//! Worker-count invariance of the experiment engine.
//!
//! The `ncl_runtime` engine promises that a suite's report is a pure
//! function of the suite — worker count and completion order must not
//! leak into the results. This extends the seeded-RNG contract of
//! `determinism_smoke.rs` to the concurrency layer: the same smoke suite
//! is run with 1, 2 and 4 workers and the three serialized `SuiteReport`s
//! must be **byte-identical** (not merely approximately equal — float
//! summation order and result assembly are part of the contract).

use ncl_runtime::{suites, Engine, Job, Suite};
use replay4ncl::{MethodSpec, ScenarioConfig};

fn smoke_suite() -> Suite {
    let mut config = ScenarioConfig::smoke();
    config.pretrain_epochs = 3;
    config.cl_epochs = 3;
    config.seed = 0x1A4B_0DE7;
    let t_star = (config.data.steps * 2 / 5).max(1);

    // 8 jobs: both replay methods at every insertion layer (6 cells, the
    // Fig. 10 grid in miniature) plus the baseline and a naive reduction.
    let methods = [MethodSpec::spiking_lr(2), MethodSpec::replay4ncl(2, t_star)];
    let mut suite = suites::insertion_sweep(&config, &methods);
    suite.name = "determinism-smoke".into();
    suite.push(Job::new("baseline", config.clone(), MethodSpec::baseline()));
    suite.push(Job::new(
        "naive-reduction",
        config,
        MethodSpec::spiking_lr_reduced(2, t_star / 2),
    ));
    suite
}

#[test]
fn worker_count_does_not_change_the_report() {
    let suite = smoke_suite();
    assert_eq!(suite.len(), 8, "the acceptance grid is 8 jobs");

    let serialized: Vec<String> = [1usize, 2, 4]
        .iter()
        .map(|&workers| {
            Engine::new(workers)
                .run(&suite)
                .expect("suite runs")
                .to_json()
                .to_json()
        })
        .collect();

    assert_eq!(
        serialized[0], serialized[1],
        "1 vs 2 workers must serialize byte-identically"
    );
    assert_eq!(
        serialized[0], serialized[2],
        "1 vs 4 workers must serialize byte-identically"
    );
    // Sanity: the report actually contains all 8 jobs.
    let parsed = serde_json::from_str(&serialized[0]).expect("valid JSON");
    assert_eq!(
        parsed
            .get("jobs")
            .and_then(serde_json::Value::as_array)
            .map(Vec::len),
        Some(8)
    );
}

#[test]
fn engine_matches_the_serial_scenario_driver() {
    // The engine is plumbing, not methodology: a job's result must equal
    // what `scenario::run_method` produces directly.
    let mut config = ScenarioConfig::smoke();
    config.pretrain_epochs = 3;
    config.cl_epochs = 3;
    config.seed = 0x1A4B_0DE8;
    let method = MethodSpec::replay4ncl(2, (config.data.steps * 2 / 5).max(1));

    let suite = Suite::new("one-job").with_job(Job::new("cell", config.clone(), method.clone()));
    let report = Engine::new(2).run(&suite).expect("suite runs");

    let (network, pretrain_acc) = replay4ncl::cache::pretrained_network(&config).expect("pretrain");
    let direct = replay4ncl::scenario::run_method(&config, &method, &network, pretrain_acc)
        .expect("scenario");

    assert_eq!(report.jobs[0].result, direct);
    assert_eq!(report.jobs[0].result.method, suite.jobs[0].method);
}
