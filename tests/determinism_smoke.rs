//! Workspace-level determinism smoke test.
//!
//! Every figure binary and bench assumes the seeded-RNG contract: the same
//! `ScenarioConfig` (same seed) produces bit-identical results, including
//! across the trainer's parallel per-sample gradient workers. This test
//! runs the full smoke pipeline twice — deliberately bypassing
//! `replay4ncl::cache` so pre-training itself is exercised both times —
//! and asserts the outcomes are identical.

use replay4ncl::{methods::MethodSpec, phases, scenario, ScenarioConfig};

fn config() -> ScenarioConfig {
    let mut c = ScenarioConfig::smoke();
    c.seed = 0x0D0C_5EED;
    c.pretrain_epochs = 4;
    c.cl_epochs = 6;
    c.batch_size = 4;
    c
}

#[test]
fn same_seed_same_results_end_to_end() {
    let config = config();
    let spec = MethodSpec::replay4ncl(2, (config.data.steps * 2 / 5).max(1));

    let run = || {
        let pre = phases::pretrain(&config).expect("pretrain");
        let result =
            scenario::run_method(&config, &spec, &pre.network, pre.test_acc).expect("scenario");
        (pre.test_acc, pre.epoch_losses, result)
    };

    let (acc_a, losses_a, result_a) = run();
    let (acc_b, losses_b, result_b) = run();

    assert_eq!(
        acc_a.to_bits(),
        acc_b.to_bits(),
        "pre-training accuracy must be bit-identical"
    );
    assert_eq!(
        losses_a, losses_b,
        "per-epoch pre-training losses must be identical"
    );
    assert_eq!(
        result_a, result_b,
        "full scenario results (accuracy/ops/memory) must be identical"
    );
}

#[test]
fn different_seeds_actually_differ() {
    // Guards against the degenerate way to pass the test above: a pipeline
    // that ignores its seed entirely.
    let mut a = config();
    let mut b = config();
    b.seed ^= 1;
    a.pretrain_epochs = 2;
    b.pretrain_epochs = 2;
    let la = phases::pretrain(&a).expect("pretrain a").epoch_losses;
    let lb = phases::pretrain(&b).expect("pretrain b").epoch_losses;
    assert_ne!(
        la, lb,
        "changing the seed must change the training trajectory"
    );
}

/// FNV-1a over 64-bit words: a digest that moves with any bit of any
/// word.
fn digest(words: impl IntoIterator<Item = u64>) -> u64 {
    words.into_iter().fold(0xCBF2_9CE4_8422_2325, |d, w| {
        (d ^ w).wrapping_mul(0x0000_0100_0000_01B3)
    })
}

fn ops_words(ops: &ncl_hw::OpCounts) -> [u64; 6] {
    [
        ops.synaptic_ops,
        ops.neuron_updates,
        ops.weight_updates,
        ops.codec_frames,
        ops.mem_read_bits,
        ops.mem_write_bits,
    ]
}

fn memory_words(memory: &ncl_hw::memory::MemoryFootprint) -> [u64; 3] {
    [
        memory.samples as u64,
        memory.payload_bits_per_sample,
        memory.total_bits,
    ]
}

/// Golden digests of the three continual-learning drivers in the smoke
/// config at one worker: every CL epoch of `run_method`, a two-increment
/// `run_sequence` and the online learner's checkpoint. They pin the
/// outputs across revisions, not only within one process, so a refactor
/// of the training phase that drifts a single bit fails here.
///
/// Regenerate after a deliberate change of behaviour with
/// `cargo test -q --test determinism_smoke golden -- --nocapture`, which
/// prints every digest it computes.
#[test]
fn golden_digests_pin_every_cl_driver() {
    use ncl_online::daemon::{OnlineConfig, OnlineLearner};
    use ncl_online::stream::{SampleStream, StreamConfig};
    use replay4ncl::sequence;

    let mut config = config();
    config.parallelism = 1;
    let mut checks: Vec<(&str, u64, u64)> = Vec::new();

    let pre = phases::pretrain(&config).expect("pretrain");
    let t_star = (config.data.steps * 2 / 5).max(1);
    for (name, spec, want) in [
        (
            "run_method SpikingLR",
            MethodSpec::spiking_lr(2),
            0x786E_8BFC_959C_2353,
        ),
        (
            "run_method Replay4NCL",
            MethodSpec::replay4ncl(2, t_star),
            0xD7C9_0826_8907_41B0,
        ),
    ] {
        let result =
            scenario::run_method(&config, &spec, &pre.network, pre.test_acc).expect("scenario");
        let mut words = Vec::new();
        for e in &result.epochs {
            words.extend([
                e.epoch as u64,
                u64::from(e.mean_loss.to_bits()),
                e.old_acc.to_bits(),
                e.new_acc.to_bits(),
            ]);
            words.extend(ops_words(&e.ops));
        }
        words.extend(ops_words(&result.prep_ops));
        words.extend(memory_words(&result.memory));
        checks.push((name, digest(words), want));
    }

    let seq =
        sequence::run_sequence(&config, &MethodSpec::replay4ncl(2, t_star), 2).expect("sequence");
    let mut words = vec![seq.pretrain_acc.to_bits()];
    for inc in &seq.increments {
        words.extend([
            u64::from(inc.class),
            inc.old_acc.to_bits(),
            inc.new_acc.to_bits(),
            inc.seen_acc.to_bits(),
            inc.memory_bits,
        ]);
    }
    words.extend(memory_words(&seq.final_memory));
    checks.push(("run_sequence records", digest(words), 0x7DD8_0658_EEF8_81BB));
    // Recorded after the sequence began charging each CL epoch's replay
    // reads (`phases::replay_epoch_ops`, the charge `run_method` makes);
    // every other digest reads the same before and after that change.
    checks.push((
        "run_sequence total_ops",
        digest(ops_words(&seq.total_ops)),
        0x2E6B_64A9_938E_ABDD,
    ));

    let mut online = OnlineConfig::smoke();
    online.scenario.parallelism = 1;
    let stream = SampleStream::generate(&StreamConfig {
        scenario: online.scenario.clone(),
        ..StreamConfig::smoke()
    })
    .expect("stream");
    let mut learner = OnlineLearner::bootstrap(online).expect("bootstrap");
    let summary = learner.run_stream(&stream).expect("stream run");
    assert!(
        !summary.increments.is_empty(),
        "the stream triggers an increment"
    );
    let bytes = learner.checkpoint_bytes();
    let crc = u32::from_le_bytes(bytes[bytes.len() - 4..].try_into().expect("CRC trailer"));
    checks.push(("online checkpoint CRC", u64::from(crc), 0xF50D_9AB6));

    for (name, got, _) in &checks {
        eprintln!("{name}: {got:#018x}");
    }
    for (name, got, want) in checks {
        assert_eq!(
            got, want,
            "{name}: {got:#018x} != golden {want:#018x}; the f32 bits were recorded \
             on one x86-64 Linux machine, so on another libm or CPU re-record them with \
             `cargo test -q --test determinism_smoke golden -- --nocapture`"
        );
    }
}
