//! Parallel grid sweep: run the method × insertion-layer grid through the
//! `ncl_runtime` engine and print the aggregated suite report.
//!
//! ```sh
//! cargo run --release --example parallel_sweep
//! ```
//!
//! The same grid that `ncl-run --figure fig10` renders as paper tables is
//! built here with the shared suite builder and executed on a worker
//! pool, with progress streamed to stderr. Re-run with any worker count —
//! the report is bit-identical, a property `tests/engine_determinism.rs`
//! locks in.

use replay4ncl_repro::replay::{MethodSpec, ScenarioConfig};
use replay4ncl_repro::runtime::{suites, Engine, RuntimeError, StderrProgress};

fn main() -> Result<(), RuntimeError> {
    // 1. A smoke-scale scenario and the two replay methods under
    //    comparison; the suite builder expands them over every insertion
    //    layer (0..=2 here — 6 jobs).
    let mut config = ScenarioConfig::smoke();
    config.cl_epochs = 8;
    let t_star = (config.data.steps * 2 / 5).max(1);
    let methods = [
        MethodSpec::spiking_lr(4),
        MethodSpec::replay4ncl(4, t_star).with_lr_divisor(2.0),
    ];
    let suite = suites::insertion_sweep(&config, &methods);
    println!(
        "suite '{}': {} jobs (methods x insertion layers)",
        suite.name,
        suite.len()
    );

    // 2. Execute on a worker pool. Pre-training runs once — every job
    //    shares the pre-train key, and the cache single-flights the
    //    concurrent workers — then the CL cells proceed in parallel.
    let workers = std::thread::available_parallelism().map_or(2, |n| n.get().min(4));
    let report = Engine::new(workers).run_with_events(&suite, &StderrProgress::default())?;

    // 3. One table, one summary — and a determinism spot-check against a
    //    single-worker rerun.
    println!("{}", report.render());
    let serial = Engine::new(1).run(&suite)?;
    assert_eq!(
        report.to_json().to_json(),
        serial.to_json().to_json(),
        "parallel and serial runs must serialize identically"
    );
    println!("(verified: {workers}-worker report is bit-identical to the 1-worker rerun)");
    Ok(())
}
