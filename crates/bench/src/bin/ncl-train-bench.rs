//! `ncl-train-bench` — training-throughput benchmark + `BENCH_train.json`
//! emitter for the zero-allocation trainer.
//!
//! ```sh
//! ncl-train-bench [--epochs N] [--samples N] [--steps N] [--batch N]
//!                 [--quick] [--out BENCH_train.json]
//! ```
//!
//! `--quick` shrinks the run (4 epochs, 32 samples) for CI smoke; an
//! explicit `--epochs`/`--samples` wins over it regardless of flag
//! order.
//!
//! Runs whole training epochs on a demo-scale recurrent SNN through two
//! paths and reports samples/s and epoch p50 latency for each:
//!
//! * `reference` — the seed-era per-sample-allocation loop
//!   (`train_epoch_reference`): a fresh weight-shaped `Gradients`, a
//!   fresh `History` and a fresh threshold schedule per sample, a dense
//!   O(params) accumulate per sample and an O(params) scale per batch;
//! * `pool` (workers 1, 2, 4) — the arena path
//!   (`train_epoch_with` + `TrainScratch`): per-worker reusable arenas,
//!   recycled gradient buffers, a persistent per-epoch worker pool and
//!   scale-at-apply.
//!
//! Before timing, the tool verifies the two paths produce **byte-identical
//! trained weights** at every worker count; a benchmark of a wrong
//! optimization would be meaningless. The report uses the shared
//! [`ncl_serve::bench`] format (kind `train`); the binary exits 1 if any
//! gate failed, divergent weights included.

use ncl_bench::train_demo;
use ncl_serve::bench::{self, Op, Report};
use ncl_serve::protocol::object;
use ncl_snn::optimizer::Optimizer;
use ncl_snn::trainer::{self, TrainOptions, TrainScratch};
use ncl_snn::{serialize, Network};
use ncl_spike::SpikeRaster;
use ncl_tensor::Rng;
use serde_json::Value;
use std::time::Instant;

struct Args {
    epochs: usize,
    samples: usize,
    steps: usize,
    batch: usize,
    out: String,
}

/// Raw flag values before defaults are resolved (`--quick` must not
/// override an explicit `--epochs`/`--samples`, in either flag order).
#[derive(Default)]
struct RawArgs {
    epochs: Option<usize>,
    samples: Option<usize>,
    steps: Option<usize>,
    batch: Option<usize>,
    quick: bool,
    out: Option<String>,
}

fn usage(problem: &str) -> ! {
    eprintln!("ncl-train-bench: {problem}");
    eprintln!(
        "usage: ncl-train-bench [--epochs N] [--samples N] [--steps N] [--quick] [--out file.json]"
    );
    std::process::exit(2);
}

fn parse_args() -> Args {
    let mut raw = RawArgs::default();
    let mut iter = std::env::args().skip(1);
    while let Some(arg) = iter.next() {
        let mut value = |what: &str| {
            iter.next()
                .unwrap_or_else(|| usage(&format!("{what} needs a value")))
        };
        match arg.as_str() {
            "--epochs" => {
                raw.epochs = Some(
                    value("--epochs")
                        .parse()
                        .unwrap_or_else(|_| usage("--epochs must be a positive integer")),
                );
            }
            "--samples" => {
                raw.samples = Some(
                    value("--samples")
                        .parse()
                        .unwrap_or_else(|_| usage("--samples must be a positive integer")),
                );
            }
            "--steps" => {
                raw.steps = Some(
                    value("--steps")
                        .parse()
                        .unwrap_or_else(|_| usage("--steps must be a positive integer")),
                );
            }
            "--batch" => {
                raw.batch = Some(
                    value("--batch")
                        .parse()
                        .unwrap_or_else(|_| usage("--batch must be a positive integer")),
                );
            }
            "--quick" => raw.quick = true,
            "--out" => raw.out = Some(value("--out")),
            other => usage(&format!("unknown flag {other}")),
        }
    }
    let (quick_epochs, quick_samples) = if raw.quick { (4, 32) } else { (12, 64) };
    let args = Args {
        epochs: raw.epochs.unwrap_or(quick_epochs),
        samples: raw.samples.unwrap_or(quick_samples),
        steps: raw.steps.unwrap_or(40),
        batch: raw.batch.unwrap_or(train_demo::BATCH_SIZE),
        out: raw.out.unwrap_or_else(|| "BENCH_train.json".to_owned()),
    };
    if args.epochs == 0 || args.samples == 0 || args.steps == 0 || args.batch == 0 {
        usage("--epochs/--samples/--steps/--batch must be at least 1");
    }
    args
}

/// A benchmark scenario: which stage training starts from and the shape
/// of its input rasters.
struct Scenario {
    name: &'static str,
    description: &'static str,
    from_stage: usize,
    input_neurons: usize,
    steps: usize,
}

/// The two training workloads of the methodology: full pre-training from
/// the raw input, and the continual-learning update — learning stages
/// only, fed stage-1 latent activations at the reduced timestep T* (the
/// paper's headline latency metric, Fig. 2 / Fig. 11).
fn scenarios(steps: usize) -> [Scenario; 2] {
    [
        Scenario {
            name: "pretrain_full",
            description: "full network from raw input rasters",
            from_stage: 0,
            input_neurons: 48,
            steps,
        },
        Scenario {
            name: "cl_phase",
            description:
                "learning stages only, stage-1 latent activations at T* (Replay4NCL update)",
            from_stage: 1,
            input_neurons: 24,
            steps: (steps * 2 / 5).max(1),
        },
    ]
}

enum Path {
    /// Seed-era loop at the given parallelism (`2` is the workspace
    /// default the pre-PR trainer ran at: one thread-scope spawn and
    /// per-sample `Gradients`/`History` allocations every 4-sample batch).
    Reference {
        parallelism: usize,
    },
    Pool {
        workers: usize,
    },
}

/// Trains `epochs` epochs from a fresh copy of `net`, returning
/// (per-epoch wall times in µs, serialized trained weights).
fn run_path(
    path: &Path,
    net: &Network,
    refs: &[(&SpikeRaster, u16)],
    from_stage: usize,
    batch: usize,
    epochs: usize,
) -> (Vec<u64>, Vec<u8>) {
    let mut net = net.clone();
    let mut optimizer = Optimizer::adam(1e-3);
    let options = TrainOptions {
        from_stage,
        batch_size: batch,
        parallelism: match path {
            Path::Reference { parallelism } => *parallelism,
            Path::Pool { workers } => *workers,
        },
        ..TrainOptions::default()
    };
    let mut rng = Rng::seed_from_u64(1);
    let mut scratch = TrainScratch::new();
    let mut epoch_us = Vec::with_capacity(epochs);
    for _ in 0..epochs {
        let start = Instant::now();
        match path {
            Path::Reference { .. } => {
                trainer::train_epoch_reference(&mut net, refs, &mut optimizer, &options, &mut rng)
            }
            Path::Pool { .. } => trainer::train_epoch_with(
                &mut net,
                refs,
                &mut optimizer,
                &options,
                &mut rng,
                &mut scratch,
            ),
        }
        .expect("demo epoch trains");
        epoch_us.push(start.elapsed().as_micros() as u64);
    }
    (epoch_us, serialize::to_bytes(&net))
}

fn p50(mut us: Vec<u64>) -> u64 {
    us.sort_unstable();
    us[us.len() / 2]
}

/// Median-based throughput: robust to scheduler outliers on shared
/// machines (a handful of preempted epochs would otherwise dominate the
/// mean).
fn samples_per_sec(epoch_us: &[u64], samples: usize) -> f64 {
    let median = p50(epoch_us.to_vec());
    if median == 0 {
        return 0.0;
    }
    samples as f64 / (median as f64 / 1e6)
}

/// One benchmarked scenario: its JSON block and the numbers gated on.
struct ScenarioRun {
    block: Value,
    reference_sps: f64,
    pool_sps: Vec<f64>,
    best_speedup: f64,
    bit_identical: bool,
}

/// Benchmarks one scenario: bit-identity check, then timed reference
/// (workspace-default parallelism 2 and serial) and pool (1/2/4 workers)
/// runs.
fn bench_scenario(scenario: &Scenario, args: &Args) -> ScenarioRun {
    let net = train_demo::network();
    let data = train_demo::rasters(scenario.input_neurons, scenario.steps, args.samples);
    let refs: Vec<(&SpikeRaster, u16)> = data.iter().map(|(r, l)| (r, *l)).collect();
    let pool_workers = [1usize, 2, 4];
    let stage = scenario.from_stage;
    println!(
        "== {} ({}x{} rasters, from_stage {stage}) ==",
        scenario.name, scenario.input_neurons, scenario.steps
    );

    // ---- Correctness gate: bit-identical trained weights ---------------
    // The oracle is the serial seed path (the seed's own parallel chunking
    // was tolerance-equal, not bit-equal, to its serial form).
    let (_, oracle_bytes) = run_path(
        &Path::Reference { parallelism: 1 },
        &net,
        &refs,
        stage,
        args.batch,
        2,
    );
    let bit_identical = pool_workers.iter().all(|&workers| {
        let (_, bytes) = run_path(&Path::Pool { workers }, &net, &refs, stage, args.batch, 2);
        bytes == oracle_bytes
    });

    // ---- Timed runs ----------------------------------------------------
    // Baseline: the pre-PR trainer at the workspace-default parallelism 2
    // (a thread scope spawned per batch), plus its serial form.
    let (reference_us, _) = run_path(
        &Path::Reference { parallelism: 2 },
        &net,
        &refs,
        stage,
        args.batch,
        args.epochs,
    );
    let reference_sps = samples_per_sec(&reference_us, args.samples);
    let reference_p50 = p50(reference_us);
    println!(
        "  reference w2 (alloc + per-batch spawn): {reference_sps:.0} samples/s, epoch p50 {reference_p50} us"
    );
    let (reference_serial_us, _) = run_path(
        &Path::Reference { parallelism: 1 },
        &net,
        &refs,
        stage,
        args.batch,
        args.epochs,
    );
    let reference_serial_sps = samples_per_sec(&reference_serial_us, args.samples);
    let reference_serial_p50 = p50(reference_serial_us);
    println!(
        "  reference w1 (alloc, serial): {reference_serial_sps:.0} samples/s, epoch p50 {reference_serial_p50} us"
    );

    let mut pool_entries = Vec::new();
    let mut pool_sps = Vec::new();
    let mut best_speedup = 0.0f64;
    for &workers in &pool_workers {
        let (us, _) = run_path(
            &Path::Pool { workers },
            &net,
            &refs,
            stage,
            args.batch,
            args.epochs,
        );
        let sps = samples_per_sec(&us, args.samples);
        let speedup = if reference_sps > 0.0 {
            sps / reference_sps
        } else {
            0.0
        };
        best_speedup = best_speedup.max(speedup);
        pool_sps.push(sps);
        println!(
            "  pool w{workers} (arena): {sps:.0} samples/s, epoch p50 {} us, {speedup:.2}x vs reference",
            p50(us.clone())
        );
        pool_entries.push(object(vec![
            ("workers", Value::from(workers)),
            ("samples_per_sec", Value::from(sps)),
            ("epoch_p50_us", Value::from(p50(us))),
            ("speedup_vs_reference", Value::from(speedup)),
        ]));
    }

    let block = object(vec![
        ("name", Value::from(scenario.name)),
        ("description", Value::from(scenario.description)),
        (
            "config",
            object(vec![
                ("network", Value::from("48-24-16-4 recurrent (demo scale)")),
                ("from_stage", Value::from(stage)),
                ("input_neurons", Value::from(scenario.input_neurons)),
                ("samples", Value::from(args.samples)),
                ("steps", Value::from(scenario.steps)),
                ("batch_size", Value::from(args.batch)),
                ("epochs_timed", Value::from(args.epochs)),
            ]),
        ),
        (
            "reference",
            object(vec![
                ("parallelism", Value::from(2u64)),
                ("samples_per_sec", Value::from(reference_sps)),
                ("epoch_p50_us", Value::from(reference_p50)),
            ]),
        ),
        (
            "reference_serial",
            object(vec![
                ("samples_per_sec", Value::from(reference_serial_sps)),
                ("epoch_p50_us", Value::from(reference_serial_p50)),
            ]),
        ),
        ("pool", Value::Array(pool_entries)),
        ("best_speedup_vs_reference", Value::from(best_speedup)),
        ("bit_identical_to_reference", Value::from(bit_identical)),
    ]);
    ScenarioRun {
        block,
        reference_sps,
        pool_sps,
        best_speedup,
        bit_identical,
    }
}

fn main() {
    let args = parse_args();
    let runs: Vec<ScenarioRun> = scenarios(args.steps)
        .iter()
        .map(|scenario| bench_scenario(scenario, &args))
        .collect();
    let best_overall = runs.iter().map(|r| r.best_speedup).fold(0.0, f64::max);
    let bit_identical = runs.iter().all(|r| r.bit_identical);
    let results = object(vec![
        ("scenarios", runs.iter().map(|r| r.block.clone()).collect()),
        ("best_speedup_vs_reference", Value::from(best_overall)),
        ("bit_identical_to_reference", Value::from(bit_identical)),
        (
            "allocs_note",
            Value::from(
                "reference allocates a weight-shaped Gradients + History + schedule per sample, \
                 dense-accumulates each into the batch sum, and re-spawns a thread scope per \
                 batch at parallelism > 1; the pool path reuses per-worker arenas and recycled \
                 gradient buffers through a per-epoch persistent pool (zero steady-state heap \
                 allocations per sample) and folds the 1/batch scale into the optimizer step",
            ),
        ),
    ]);

    let mut report = Report::new(
        "train",
        object(vec![
            ("network", Value::from("48-24-16-4 recurrent (demo scale)")),
            ("samples", Value::from(args.samples)),
            ("steps", Value::from(args.steps)),
            ("batch_size", Value::from(args.batch)),
            ("epochs_timed", Value::from(args.epochs)),
        ]),
    );
    report.check("pool_bit_identical", bit_identical);
    report.gate("scenarios", runs.len() as f64, Op::Ge, 2.0);
    // `samples_per_sec` is 0 exactly when the epoch p50 is 0 µs.
    let reference_sps = bench::min(runs.iter().map(|r| r.reference_sps));
    report.gate("reference_samples_per_sec_min", reference_sps, Op::Gt, 0.0);
    let pool_runs = bench::min(runs.iter().map(|r| r.pool_sps.len() as f64));
    report.gate("pool_runs_min", pool_runs, Op::Ge, 1.0);
    let pool_sps = bench::min(runs.iter().flat_map(|r| r.pool_sps.iter().copied()));
    report.gate("pool_samples_per_sec_min", pool_sps, Op::Gt, 0.0);
    report.finish(results, &args.out);
}
