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
//! Runs whole training epochs on a demo-scale recurrent SNN — full
//! pre-training, the CL update from stage 1, and the readout-only CL
//! update from the last stage — through two paths and reports samples/s
//! and epoch p50 latency for each. Every path runs five times, in five
//! rounds that each run every path once; the report gives the median
//! run's numbers with the slowest and fastest run's samples/s:
//!
//! * `reference` — the seed-era per-sample-allocation loop
//!   (`train_epoch_reference`): a fresh weight-shaped `Gradients`, a
//!   fresh `History` and a fresh threshold schedule per sample, a dense
//!   O(params) accumulate per sample and an O(params) scale per batch;
//! * `pool` (workers 1, 2, 4) — the arena path
//!   (`train_epoch_with` + `TrainScratch`): per-worker reusable arenas,
//!   recycled gradient buffers, a persistent per-epoch worker pool and
//!   scale-at-apply. `workers` bounds the pool: an epoch whose timed
//!   first samples show a helper would not pay for itself runs serially.
//!
//! Before timing, the tool verifies the two paths produce **byte-identical
//! trained weights** at every worker count; a benchmark of a wrong
//! optimization would be meaningless. The report uses the shared
//! [`ncl_serve::bench`] format (kind `train`); the binary exits 1 if any
//! gate failed, divergent weights included, or if the readout-only
//! update's median at 2 workers falls below 0.8 times its median at 1
//! worker (`cl_readout_w2_vs_w1`).

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

/// The training workloads of the methodology: full pre-training from the
/// raw input, and the continual-learning update — learning stages only,
/// fed latent activations at the reduced timestep T* (the paper's
/// headline latency metric, Fig. 2 / Fig. 11) — once from stage 1, and
/// once from the last stage, where only the readout trains (the paper
/// shape's insertion layer).
fn scenarios(steps: usize, net: &Network) -> [Scenario; 3] {
    let t_star = (steps * 2 / 5).max(1);
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
            steps: t_star,
        },
        Scenario {
            name: "cl_readout",
            description: "readout only, last-stage latent activations at T* (Replay4NCL update at the paper's insertion layer)",
            from_stage: net.layers(),
            input_neurons: net.config().hidden_sizes[net.layers() - 1],
            steps: t_star,
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

/// Timed runs of every path: one run alone cannot resolve a change
/// under ~30% on a 2-vCPU VM.
const RUNS: usize = 5;

/// One path's timed runs, each reduced to its median epoch.
#[derive(Default)]
struct Spread {
    /// Samples/s of each run.
    sps: Vec<f64>,
    /// Epoch p50 of each run (µs).
    p50_us: Vec<u64>,
}

impl Spread {
    fn push(&mut self, epoch_us: &[u64], samples: usize) {
        self.sps.push(samples_per_sec(epoch_us, samples));
        self.p50_us.push(p50(epoch_us.to_vec()));
    }

    /// Samples/s of the median, slowest and fastest run, and the median
    /// run's epoch p50 (samples/s falls as the epoch p50 rises).
    fn summary(&self) -> (f64, f64, f64, u64) {
        let mut sps = self.sps.clone();
        sps.sort_unstable_by(f64::total_cmp);
        let median = sps[sps.len() / 2];
        (median, sps[0], sps[sps.len() - 1], p50(self.p50_us.clone()))
    }

    fn median(&self) -> f64 {
        self.summary().0
    }

    /// The path's JSON fields.
    fn fields(&self) -> Vec<(&'static str, Value)> {
        let (median, min, max, epoch_p50) = self.summary();
        vec![
            ("samples_per_sec", Value::from(median)),
            ("samples_per_sec_min", Value::from(min)),
            ("samples_per_sec_max", Value::from(max)),
            ("epoch_p50_us", Value::from(epoch_p50)),
            ("runs", Value::from(self.sps.len())),
        ]
    }

    fn describe(&self) -> String {
        let (median, min, max, epoch_p50) = self.summary();
        format!("{median:.0} samples/s [{min:.0}, {max:.0}], epoch p50 {epoch_p50} us")
    }
}

/// One benchmarked scenario: its JSON block and the numbers gated on.
struct ScenarioRun {
    name: &'static str,
    block: Value,
    reference_sps: f64,
    pool_sps: Vec<f64>,
    best_speedup: f64,
    bit_identical: bool,
}

/// Benchmarks one scenario: bit-identity check, then `RUNS` rounds of
/// timed runs over the reference (workspace-default parallelism 2 and
/// serial) and pool (1/2/4 workers) paths, every path once per round so
/// that drift over the rounds reaches every path alike.
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
    let mut paths = vec![
        (Path::Reference { parallelism: 2 }, Spread::default()),
        (Path::Reference { parallelism: 1 }, Spread::default()),
    ];
    paths.extend(
        pool_workers
            .iter()
            .map(|&workers| (Path::Pool { workers }, Spread::default())),
    );
    for _ in 0..RUNS {
        for (path, spread) in &mut paths {
            let (us, _) = run_path(path, &net, &refs, stage, args.batch, args.epochs);
            spread.push(&us, args.samples);
        }
    }
    let (reference, reference_serial) = (&paths[0].1, &paths[1].1);
    let reference_sps = reference.median();
    println!(
        "  reference w2 (alloc + per-batch spawn): {}",
        reference.describe()
    );
    println!(
        "  reference w1 (alloc, serial): {}",
        reference_serial.describe()
    );

    let mut pool_entries = Vec::new();
    let mut pool_sps = Vec::new();
    let mut best_speedup = 0.0f64;
    for (&workers, (_, spread)) in pool_workers.iter().zip(&paths[2..]) {
        let sps = spread.median();
        let speedup = if reference_sps > 0.0 {
            sps / reference_sps
        } else {
            0.0
        };
        best_speedup = best_speedup.max(speedup);
        pool_sps.push(sps);
        println!(
            "  pool w{workers} (arena): {}, {speedup:.2}x vs reference",
            spread.describe()
        );
        let mut fields = vec![("workers", Value::from(workers))];
        fields.extend(spread.fields());
        fields.push(("speedup_vs_reference", Value::from(speedup)));
        pool_entries.push(object(fields));
    }

    let mut reference_fields = vec![("parallelism", Value::from(2u64))];
    reference_fields.extend(reference.fields());
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
                ("runs", Value::from(RUNS)),
            ]),
        ),
        ("reference", object(reference_fields)),
        ("reference_serial", object(reference_serial.fields())),
        ("pool", Value::Array(pool_entries)),
        ("best_speedup_vs_reference", Value::from(best_speedup)),
        ("bit_identical_to_reference", Value::from(bit_identical)),
    ]);
    ScenarioRun {
        name: scenario.name,
        block,
        reference_sps,
        pool_sps,
        best_speedup,
        bit_identical,
    }
}

fn main() {
    let args = parse_args();
    let runs: Vec<ScenarioRun> = scenarios(args.steps, &train_demo::network())
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
    report.gate("scenarios", runs.len() as f64, Op::Ge, 3.0);
    // `samples_per_sec` is 0 exactly when the epoch p50 is 0 µs.
    let reference_sps = bench::min(runs.iter().map(|r| r.reference_sps));
    report.gate("reference_samples_per_sec_min", reference_sps, Op::Gt, 0.0);
    let pool_runs = bench::min(runs.iter().map(|r| r.pool_sps.len() as f64));
    report.gate("pool_runs_min", pool_runs, Op::Ge, 1.0);
    let pool_sps = bench::min(runs.iter().flat_map(|r| r.pool_sps.iter().copied()));
    report.gate("pool_samples_per_sec_min", pool_sps, Op::Gt, 0.0);
    // A pool that costs more than it computes: µs-scale readout epochs
    // must not slow down when a second worker is allowed.
    let readout = runs
        .iter()
        .find(|r| r.name == "cl_readout")
        .expect("cl_readout is benchmarked");
    report.gate(
        "cl_readout_w2_vs_w1",
        readout.pool_sps[1] / readout.pool_sps[0],
        Op::Ge,
        0.8,
    );
    report.finish(results, &args.out);
}
