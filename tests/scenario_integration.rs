//! End-to-end integration tests of the class-incremental scenario: the
//! paper's three systems compared on one shared pre-trained network, with
//! the qualitative claims of the paper asserted as invariants.

use replay4ncl::{cache, methods::MethodSpec, scenario, ScenarioConfig};

/// One shared scenario for this file (results are deterministic, so
/// every test re-derives what it needs from the cached pre-training).
fn config() -> ScenarioConfig {
    let mut c = ScenarioConfig::smoke();
    c.seed = 20_626;
    c.pretrain_epochs = 8;
    c.cl_epochs = 25;
    c.insertion_layer = 1;
    c.batch_size = 4;
    c
}

fn t_star(c: &ScenarioConfig) -> usize {
    c.data.steps * 2 / 5
}

#[test]
fn pretraining_reaches_usable_accuracy() {
    let config = config();
    let (_, acc) = cache::pretrained_network(&config).expect("pretrain");
    assert!(
        acc >= 0.7,
        "pre-training should work on the smoke task, got {acc}"
    );
}

#[test]
fn baseline_forgets_replay_methods_do_not() {
    let config = config();
    let (network, acc) = cache::pretrained_network(&config).expect("pretrain");

    let baseline = scenario::run_method(&config, &MethodSpec::baseline(), &network, acc).unwrap();
    let sota = scenario::run_method(&config, &MethodSpec::spiking_lr(4), &network, acc).unwrap();
    let ours = scenario::run_method(
        &config,
        &MethodSpec::replay4ncl(4, t_star(&config)).with_lr_divisor(2.0),
        &network,
        acc,
    )
    .unwrap();

    // The paper's central qualitative claim set:
    assert!(
        baseline.forgetting() > 0.3,
        "baseline must forget catastrophically, forgetting was {}",
        baseline.forgetting()
    );
    assert!(
        sota.final_old_acc() > baseline.final_old_acc() + 0.2,
        "replay must preserve old knowledge: sota {} vs baseline {}",
        sota.final_old_acc(),
        baseline.final_old_acc()
    );
    assert!(
        ours.final_old_acc() > baseline.final_old_acc() + 0.2,
        "replay4ncl must preserve old knowledge: {} vs baseline {}",
        ours.final_old_acc(),
        baseline.final_old_acc()
    );
    // Both replay methods learn the new task to a usable level.
    assert!(sota.final_new_acc() >= 0.5);
    assert!(ours.final_new_acc() >= 0.5);
}

#[test]
fn replay4ncl_efficiency_claims_hold() {
    let config = config();
    let (network, acc) = cache::pretrained_network(&config).expect("pretrain");
    let sota = scenario::run_method(&config, &MethodSpec::spiking_lr(4), &network, acc).unwrap();
    let ours = scenario::run_method(
        &config,
        &MethodSpec::replay4ncl(4, t_star(&config)).with_lr_divisor(2.0),
        &network,
        acc,
    )
    .unwrap();

    let speedup = ours.total_cost().speedup_vs(&sota.total_cost());
    assert!(
        speedup > 1.5,
        "latency speed-up should be well above 1x, got {speedup}"
    );

    let energy_saving = ours.total_cost().energy_saving_vs(&sota.total_cost());
    assert!(
        energy_saving > 0.2,
        "energy saving should be substantial, got {energy_saving}"
    );

    let memory_saving = ours.memory.saving_vs(&sota.memory);
    assert!(
        (0.15..=0.25).contains(&memory_saving),
        "latent memory saving should be ~20%, got {memory_saving}"
    );
}

#[test]
fn timestep_reduction_without_enhancements_costs_accuracy_at_aggressive_settings() {
    let config = config();
    let (network, acc) = cache::pretrained_network(&config).expect("pretrain");
    let native = scenario::run_method(&config, &MethodSpec::spiking_lr(4), &network, acc).unwrap();
    let aggressive = scenario::run_method(
        &config,
        &MethodSpec::spiking_lr_reduced(4, config.data.steps / 5),
        &network,
        acc,
    )
    .unwrap();
    // Fig. 2(b) / Fig. 8 Observation A: aggressive naive reduction hurts
    // the overall outcome (old accuracy, new accuracy, or both). At this
    // tiny smoke scale the gap can close to a tie on some seeds, so the
    // invariant asserted here is "never better"; the full degradation
    // curve is regenerated by `ncl-run --figure fig02b` / `--figure fig08`.
    let native_score = native.final_old_acc() + native.final_new_acc();
    let aggressive_score = aggressive.final_old_acc() + aggressive.final_new_acc();
    assert!(
        aggressive_score <= native_score,
        "aggressive naive reduction should never help: {aggressive_score} vs {native_score}"
    );
}

#[test]
fn later_insertion_layers_use_less_memory_and_less_time() {
    let base = config();
    let (_, acc) = cache::pretrained_network(&base).expect("pretrain");
    let mut sizes = Vec::new();
    let mut latencies = Vec::new();
    for insertion in 1..=base.network.layers() {
        let mut c = base.clone();
        c.insertion_layer = insertion;
        let (network, _) = cache::pretrained_network(&c).expect("pretrain");
        let r = scenario::run_method(&c, &MethodSpec::spiking_lr(4), &network, acc).unwrap();
        sizes.push(r.memory.total_bits);
        latencies.push(r.total_cost().latency.seconds());
    }
    assert!(
        sizes.windows(2).all(|w| w[0] > w[1]),
        "latent memory must shrink toward later layers: {sizes:?}"
    );
    assert!(
        latencies.windows(2).all(|w| w[0] > w[1]),
        "training cost must shrink toward later layers: {latencies:?}"
    );
}

#[test]
fn epoch_records_are_complete_and_monotone_in_cost() {
    let config = config();
    let (network, acc) = cache::pretrained_network(&config).expect("pretrain");
    let r = scenario::run_method(
        &config,
        &MethodSpec::replay4ncl(4, t_star(&config)).with_lr_divisor(2.0),
        &network,
        acc,
    )
    .unwrap();
    assert_eq!(r.epochs.len(), config.cl_epochs);
    for (i, e) in r.epochs.iter().enumerate() {
        assert_eq!(e.epoch, i);
        assert!(e.mean_loss.is_finite());
        assert!((0.0..=1.0).contains(&e.old_acc));
        assert!((0.0..=1.0).contains(&e.new_acc));
        assert!(!e.ops.is_zero());
    }
    // Cumulative cost is strictly increasing across epochs.
    let mut prev = 0.0;
    for e in 0..r.epochs.len() {
        let c = r.cost_through_epoch(e).latency.seconds();
        assert!(c > prev);
        prev = c;
    }
}
