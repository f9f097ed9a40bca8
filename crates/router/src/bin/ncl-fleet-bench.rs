//! `ncl-fleet-bench` — measures the elastic fleet's failure-handling
//! paths and emits `BENCH_fleet.json`.
//!
//! Two phases:
//!
//! 1. **Failover latency** — a three-replica elastic fleet under live
//!    routed load; each round partitions the current learner and
//!    measures partition → promotion latency (detection across
//!    `failover_ticks` unhealthy sync ticks plus the promote op), then
//!    heals the deposed learner and waits for its fenced demotion.
//! 2. **Rejoin catch-up** — a ring-limited synthetic learner; one
//!    follower lags exactly `ring` versions (pure delta catch-up, one
//!    hop per sync tick) and a second joins past ring depth (full
//!    checkpoint fallback). Reports wall time and bytes shipped on
//!    each path.
//!
//! Gates (exit 1 on violation): zero failed client requests through
//! every partition, one promotion per round plus the initial election,
//! survivors byte-identical after the chaos, the delta path applying
//! exactly `ring` deltas with zero full syncs, the full-sync path
//! shipping a checkpoint no smaller than any single delta.
//!
//! ```sh
//! ncl-fleet-bench [--quick] [--rounds N] [--out PATH]
//! ```

use std::sync::Arc;
use std::time::{Duration, Instant};

use ncl_online::daemon::{OnlineConfig, OnlineLearner};
use ncl_online::stream::{SampleStream, StreamConfig};
use ncl_router::backend::Backend;
use ncl_router::faults::FaultPlan;
use ncl_router::router::{Router, RouterConfig};
use ncl_router::testkit::{
    self, percentile, start_node, start_synth_follower, Load, Node, SynthLearner,
};
use ncl_serve::client::NclClient;
use ncl_serve::protocol::object;
use ncl_serve::sync::ReplicaSync;
use serde_json::Value;

struct Args {
    quick: bool,
    rounds: usize,
    out: String,
}

fn parse_args() -> Args {
    let mut args = Args {
        quick: false,
        rounds: 4,
        out: "BENCH_fleet.json".to_owned(),
    };
    let mut iter = std::env::args().skip(1);
    while let Some(arg) = iter.next() {
        match arg.as_str() {
            "--quick" => args.quick = true,
            "--rounds" => {
                args.rounds = iter.next().and_then(|v| v.parse().ok()).unwrap_or_else(|| {
                    eprintln!("ncl-fleet-bench: --rounds needs an integer");
                    std::process::exit(2);
                });
            }
            "--out" => {
                args.out = iter.next().unwrap_or_else(|| {
                    eprintln!("ncl-fleet-bench: --out needs a path");
                    std::process::exit(2);
                });
            }
            other => {
                eprintln!("ncl-fleet-bench: unknown flag {other}");
                std::process::exit(2);
            }
        }
    }
    if args.quick {
        args.rounds = args.rounds.min(2);
    }
    args.rounds = args.rounds.max(1);
    args
}

/// Small config that bootstraps in seconds. The stream is all warmup
/// (no novel class): failover rounds measure the control plane, not
/// training, so a promoted learner drains its stream without an
/// increment and every survivor stays on the bootstrap bytes.
fn fleet_config() -> (OnlineConfig, StreamConfig) {
    let mut config = OnlineConfig::smoke();
    config.scenario.pretrain_epochs = 4;
    config.scenario.cl_epochs = 3;
    config.scenario.parallelism = 2;
    config.delta_ring = 4;
    let stream = StreamConfig {
        scenario: config.scenario.clone(),
        warmup_events: 8,
        total_events: 8,
        novel_every: 1,
        seed: 0xF1EE7,
    };
    (config, stream)
}

/// Waits for `done`; a bench that times out has nothing to report.
fn poll(what: &str, done: impl FnMut() -> bool) {
    if let Err(e) = testkit::poll_until(Duration::from_secs(30), what, done) {
        eprintln!("ncl-fleet-bench: {e}");
        std::process::exit(1);
    }
}

/// Phase 1: failover rounds. Returns the JSON block plus the background
/// load outcome (ok, failed), survivor bit-identity and promotion count.
fn failover_phase(args: &Args) -> (Value, u64, u64, bool, u64) {
    let (config, stream_config) = fleet_config();
    let stream = SampleStream::generate(&stream_config).expect("stream");
    eprintln!("bootstrapping the elastic fleet (shared deterministic base)...");
    let learner = OnlineLearner::bootstrap(config.clone()).expect("bootstrap");
    let bootstrap = learner.checkpoint();
    drop(learner);

    let nodes: Vec<Node> = (0..3)
        .map(|_| {
            start_node(&config, &bootstrap, &stream, Duration::from_millis(1))
                .expect("elastic follower")
        })
        .collect();
    let plan = Arc::new(FaultPlan::new(0xFA110));
    let backends: Vec<Arc<Backend>> = nodes
        .iter()
        .enumerate()
        .map(|(id, node)| Arc::new(Backend::new(id, node.server.local_addr())))
        .collect();
    for backend in &backends {
        backend.configure_breaker(Duration::from_millis(10), Duration::from_millis(50));
    }
    let sync_interval = Duration::from_millis(10);
    let failover_ticks = 3u32;
    let router = Router::start_with_faults(
        backends,
        RouterConfig {
            sync_interval,
            failover_ticks,
            ..RouterConfig::default()
        },
        Some(Arc::clone(&plan)),
    )
    .expect("router");
    let addr = router.local_addr();

    // Live client load across every partition in the phase.
    let load = Load::start(addr, &stream.events()[0].raster, 1);

    // Initial election: a fleet of followers has no learner, so after
    // `failover_ticks` learner-less ticks the router promotes one.
    let started = Instant::now();
    poll("the initial election", || router.promotions() >= 1);
    let initial_election_ms = started.elapsed().as_millis() as u64;
    eprintln!("initial election in {initial_election_ms} ms");

    let mut detection_ms: Vec<u64> = Vec::new();
    for round in 0..args.rounds {
        poll("a single settled learner", || {
            nodes
                .iter()
                .filter(|n| n.replica.role() == "learner")
                .count()
                == 1
        });
        let lid = nodes
            .iter()
            .position(|n| n.replica.role() == "learner")
            .expect("a learner is live");
        let promotions = router.promotions();
        let demotions = router.demotions();

        plan.partition(lid);
        let t0 = Instant::now();
        poll("failover promotion", || router.promotions() > promotions);
        let latency = t0.elapsed().as_millis() as u64;
        detection_ms.push(latency);
        eprintln!("round {round}: partitioned learner {lid}, promoted a successor in {latency} ms");

        plan.heal(lid);
        poll("the deposed learner's demotion", || {
            router.demotions() > demotions && nodes[lid].replica.role() == "follower"
        });
    }

    // Let in-flight requests settle, then stop the load.
    std::thread::sleep(Duration::from_millis(50));
    let load = load.stop();

    // No increments ran (the stream is all warmup), so every survivor —
    // including each deposed learner, which fell back to its last
    // published checkpoint — must still hold the bootstrap bytes.
    let reference = nodes[0].replica.checkpoint_bytes();
    let bit_identical = nodes
        .iter()
        .all(|n| n.replica.checkpoint_bytes() == reference);

    detection_ms.sort_unstable();
    let block = object(vec![
        ("rounds", Value::from(args.rounds)),
        ("failover_ticks", Value::from(u64::from(failover_ticks))),
        (
            "sync_interval_ms",
            Value::from(sync_interval.as_millis() as u64),
        ),
        ("initial_election_ms", Value::from(initial_election_ms)),
        (
            "detection_to_promotion_ms",
            detection_ms
                .iter()
                .map(|&v| Value::from(v))
                .collect::<Value>(),
        ),
        ("p50_ms", Value::from(percentile(&detection_ms, 0.50))),
        ("max_ms", Value::from(percentile(&detection_ms, 1.0))),
        ("promotions", Value::from(router.promotions())),
        ("demotions", Value::from(router.demotions())),
        ("final_epoch", Value::from(router.epoch())),
    ]);

    let promotions = router.promotions();
    router.shutdown();
    for node in nodes {
        node.server.shutdown();
    }
    (block, load.ok, load.failed, bit_identical, promotions)
}

/// Phase 2: rejoin catch-up economics, delta ring vs full sync.
/// Returns the JSON block plus each path's convergence verdict.
fn rejoin_phase() -> (Value, bool, bool) {
    const RING: usize = 8;
    let learner = SynthLearner::start(RING).expect("synth learner");
    let publisher = &learner.publisher;
    let near = start_synth_follower().expect("follower");
    let far = start_synth_follower().expect("follower");

    let router = Router::start(
        vec![
            Arc::new(Backend::new(0, learner.server.local_addr())),
            Arc::new(Backend::new(1, near.server.local_addr())),
        ],
        RouterConfig {
            // Driven manually with sync_now(): deterministic tick count.
            sync_interval: Duration::from_secs(3600),
            ..RouterConfig::default()
        },
    )
    .expect("router");

    // Lag == ring capacity: catch-up is one retained delta per tick.
    let target = 1 + RING as u64;
    learner.advance_to(target).expect("publish");
    let delta_bytes: usize = (1..target)
        .map(|v| publisher.delta_from(v).expect("retained delta").1.len())
        .sum();
    let t0 = Instant::now();
    for _ in 0..RING {
        router.sync_now();
    }
    let delta_wall_us = t0.elapsed().as_micros() as u64;
    // Verdict taken *now*: the full-sync scenario below publishes one
    // more version, which the sync loop would also walk `near` through.
    let near_deltas = near.deltas_applied();
    let near_ok = near.replica.registry().version() == target
        && near_deltas == RING as u64
        && near.full_syncs() == 0
        && near.replica.checkpoint_bytes() == publisher.checkpoint_bytes();
    eprintln!(
        "delta catch-up: lag {RING} -> {near_deltas} delta(s), {delta_bytes} B in {delta_wall_us} us"
    );

    // One more publish pushes v1 out of the ring; a fresh joiner at v1
    // must take the full-checkpoint path on its first sync.
    learner.advance_to(target + 1).expect("publish");
    let full_bytes = publisher.checkpoint_bytes().len();
    let mut control = NclClient::connect(router.local_addr()).expect("control");
    let joined = control
        .join(&far.server.local_addr().to_string())
        .expect("join");
    assert_eq!(joined.get("ok").and_then(Value::as_bool), Some(true));
    let t0 = Instant::now();
    router.sync_now();
    let full_wall_us = t0.elapsed().as_micros() as u64;
    eprintln!(
        "full-sync catch-up: lag {} -> {} full sync(s), {full_bytes} B in {full_wall_us} us",
        RING + 1,
        far.full_syncs(),
    );

    let far_ok = far.replica.registry().version() == target + 1
        && far.full_syncs() == 1
        && far.deltas_applied() == 0
        && far.replica.checkpoint_bytes() == publisher.checkpoint_bytes();

    let block = object(vec![
        ("ring", Value::from(RING)),
        (
            "delta",
            object(vec![
                ("lag", Value::from(RING)),
                ("deltas_applied", Value::from(near_deltas)),
                ("full_syncs", Value::from(near.full_syncs())),
                ("bytes", Value::from(delta_bytes)),
                ("bytes_per_hop", Value::from(delta_bytes / RING)),
                ("catch_up_us", Value::from(delta_wall_us)),
                ("converged", Value::from(near_ok)),
            ]),
        ),
        (
            "full_sync",
            object(vec![
                ("lag", Value::from(RING + 1)),
                ("deltas_applied", Value::from(far.deltas_applied())),
                ("full_syncs", Value::from(far.full_syncs())),
                ("bytes", Value::from(full_bytes)),
                ("catch_up_us", Value::from(full_wall_us)),
                ("converged", Value::from(far_ok)),
            ]),
        ),
        (
            "delta_hop_vs_full_ratio",
            Value::from(delta_bytes as f64 / RING as f64 / full_bytes as f64),
        ),
    ]);

    router.shutdown();
    learner.server.shutdown();
    near.server.shutdown();
    far.server.shutdown();
    (block, near_ok, far_ok)
}

fn main() {
    let args = parse_args();
    let total_start = Instant::now();

    let (failover, bg_ok, bg_failed, survivors_identical, promotions) = failover_phase(&args);
    let (rejoin, delta_converged, full_converged) = rejoin_phase();

    let report = object(vec![
        ("bench", Value::from("fleet")),
        ("replicas", Value::from(3u64)),
        ("failover", failover),
        (
            "background",
            object(vec![
                ("requests_ok", Value::from(bg_ok)),
                ("requests_failed", Value::from(bg_failed)),
            ]),
        ),
        ("survivors_bit_identical", Value::from(survivors_identical)),
        ("rejoin", rejoin),
        (
            "total_wall_s",
            Value::from(total_start.elapsed().as_secs_f64()),
        ),
    ]);
    std::fs::write(&args.out, format!("{}\n", report.to_json_pretty())).expect("write report");
    println!("{}", report.to_json_pretty());
    eprintln!("wrote {}", args.out);

    // --- gates -----------------------------------------------------------
    let mut bad = Vec::new();
    if bg_failed > 0 {
        bad.push(format!(
            "{bg_failed} client request(s) failed during failover"
        ));
    }
    if bg_ok == 0 {
        bad.push("the background load made no progress".to_owned());
    }
    if !survivors_identical {
        bad.push("survivors diverged after the failover rounds".to_owned());
    }
    if promotions != args.rounds as u64 + 1 {
        bad.push(format!(
            "expected {} promotion(s) (initial election + one per round), saw {promotions}",
            args.rounds + 1
        ));
    }
    if !delta_converged {
        bad.push("the delta catch-up path did not converge".to_owned());
    }
    if !full_converged {
        bad.push("the full-sync catch-up path did not converge".to_owned());
    }
    if !bad.is_empty() {
        for problem in &bad {
            eprintln!("ncl-fleet-bench: GATE FAILED: {problem}");
        }
        std::process::exit(1);
    }
    eprintln!("all gates passed");
}
