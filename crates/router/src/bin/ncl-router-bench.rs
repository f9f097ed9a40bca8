//! `ncl-router-bench` — measures the sharded-serving fleet and emits
//! `BENCH_router.json`.
//!
//! Boots an in-process two-replica fleet (elastic replicas from the
//! same deterministic bootstrap; the first is promoted to learner once
//! routing is measured) behind a router, then measures the three
//! numbers the sharding design is accountable for:
//!
//! 1. **Routing overhead** — predict latency/throughput direct to a
//!    replica vs through the router.
//! 2. **Delta economy** — published checkpoint-delta size vs the full
//!    checkpoint per increment (the scenario puts the insertion layer
//!    at the last hidden layer, so increments only touch the readout —
//!    the regime the paper's frozen-backbone design creates).
//! 3. **Propagation latency** — time from the learner publishing an
//!    increment to the follower serving that exact version, while
//!    routed load keeps flowing, in µs. The learner's `published` nudge
//!    runs the router's sync pass at once, so propagation is gated at a
//!    fifth of the sync interval: a fleet that waited for the tick
//!    would average half of it.
//!
//! The report uses the shared [`ncl_serve::bench`] format (kind
//! `router`); the binary exits 1 if any gate failed.
//!
//! ```sh
//! ncl-router-bench [--quick] [--requests N] [--out PATH]
//! ```

use std::sync::Arc;
use std::time::{Duration, Instant};

use ncl_data::ShdLikeConfig;
use ncl_online::daemon::OnlineConfig;
use ncl_online::stream::{SampleStream, StreamConfig};
use ncl_router::backend::Backend;
use ncl_router::router::{Router, RouterConfig};
use ncl_router::testkit::{percentile, reference_run, start_node, Load, Node};
use ncl_serve::bench::{Op, Report};
use ncl_serve::client::NclClient;
use ncl_serve::protocol::object;
use ncl_serve::sync::ReplicaSync;
use ncl_snn::NetworkConfig;
use ncl_spike::SpikeRaster;
use serde_json::Value;

struct Args {
    quick: bool,
    requests: usize,
    out: String,
}

fn parse_args() -> Args {
    let mut args = Args {
        quick: false,
        requests: 400,
        out: "BENCH_router.json".to_owned(),
    };
    let mut iter = std::env::args().skip(1);
    while let Some(arg) = iter.next() {
        match arg.as_str() {
            "--quick" => args.quick = true,
            "--requests" => {
                args.requests = iter.next().and_then(|v| v.parse().ok()).unwrap_or_else(|| {
                    eprintln!("ncl-router-bench: --requests needs an integer");
                    std::process::exit(2);
                });
            }
            "--out" => {
                args.out = iter.next().unwrap_or_else(|| {
                    eprintln!("ncl-router-bench: --out needs a path");
                    std::process::exit(2);
                });
            }
            other => {
                eprintln!("ncl-router-bench: unknown flag {other}");
                std::process::exit(2);
            }
        }
    }
    if args.quick {
        args.requests = args.requests.min(120);
    }
    args
}

/// The fleet scenario: the insertion layer sits at the last hidden
/// layer, so an increment's learning stage is the readout alone —
/// deltas ship ~2% of the parameters. (The smoke scenario's insertion
/// layer 1 would retrain most of the network and make deltas pointless.)
fn fleet_config() -> OnlineConfig {
    let mut config = OnlineConfig::smoke();
    let mut data = ShdLikeConfig::smoke_test();
    data.classes = 5;
    data.channels = 64;
    data.steps = 40;
    data.train_per_class = 8;
    data.test_per_class = 4;
    let mut network = NetworkConfig::tiny(64, 5);
    network.hidden_sizes = vec![48, 24];
    config.scenario.data = data;
    config.scenario.network = network;
    config.scenario.insertion_layer = 2;
    config.scenario.pretrain_epochs = 6;
    config.scenario.cl_epochs = 4;
    config.scenario.seed = 11;
    config.capacity_bits = Some(24 * 1024);
    config
}

/// Drives `count` predicts against `addr`; returns (ok, failed,
/// latencies µs, wall).
fn drive(
    addr: std::net::SocketAddr,
    raster: &SpikeRaster,
    count: usize,
) -> (u64, u64, Vec<u64>, Duration) {
    let mut ok = 0u64;
    let mut failed = 0u64;
    let mut latencies = Vec::with_capacity(count);
    let started = Instant::now();
    let mut client = NclClient::connect(addr).expect("connect");
    for i in 0..count {
        let sent = Instant::now();
        match client.predict(i as u64, raster) {
            Ok(reply) if reply.get("ok").and_then(Value::as_bool) == Some(true) => {
                ok += 1;
                latencies.push(sent.elapsed().as_micros() as u64);
            }
            _ => failed += 1,
        }
    }
    (ok, failed, latencies, started.elapsed())
}

fn load_block(ok: u64, failed: u64, latencies: &mut [u64], wall: Duration) -> Value {
    latencies.sort_unstable();
    object(vec![
        ("requests_ok", Value::from(ok)),
        ("requests_failed", Value::from(failed)),
        (
            "requests_per_sec",
            Value::from(ok as f64 / wall.as_secs_f64().max(1e-9)),
        ),
        ("p50_us", Value::from(percentile(latencies, 0.50))),
        ("p95_us", Value::from(percentile(latencies, 0.95))),
    ])
}

/// Longest the follower may take to serve a published increment.
const PROPAGATION_TIMEOUT: Duration = Duration::from_secs(10);

/// Waits for the learner to publish `version` and then for the follower
/// to serve it, polling both on one 50 µs loop so the two instants share
/// a resolution. Returns when the publish was seen and, unless
/// propagation timed out, when the follower was; `None` if the publish
/// never came.
fn await_propagation(
    learner: &Node,
    follower: &Node,
    version: u64,
) -> Option<(Instant, Option<Instant>)> {
    let deadline = Instant::now() + Duration::from_secs(60);
    let published = loop {
        let now = Instant::now();
        if learner.health_count("published_version") >= version {
            break now;
        }
        if now > deadline {
            return None;
        }
        std::thread::sleep(Duration::from_micros(50));
    };
    loop {
        let now = Instant::now();
        if follower.replica.registry().version() >= version {
            return Some((published, Some(now)));
        }
        if now - published > PROPAGATION_TIMEOUT {
            return Some((published, None));
        }
        std::thread::sleep(Duration::from_micros(50));
    }
}

fn main() {
    let args = parse_args();
    let total_start = Instant::now();
    let config = fleet_config();
    let stream = SampleStream::generate(&StreamConfig {
        scenario: config.scenario.clone(),
        warmup_events: 16,
        total_events: if args.quick { 40 } else { 56 },
        novel_every: 3,
        seed: 0xF1EE7,
    })
    .expect("stream");

    // --- fleet bootstrap ------------------------------------------------
    // The reference run bootstraps the shared deterministic base and
    // records what the learner must publish over the stream.
    eprintln!("bootstrapping the fleet (shared deterministic base)...");
    let reference = reference_run(&config, &stream).expect("reference run");
    let nodes: Vec<Node> = (0..2)
        .map(|_| {
            start_node(&config, &reference.bootstrap, &stream, Duration::ZERO).expect("replica")
        })
        .collect();
    let (learner, follower) = (&nodes[0], &nodes[1]);
    let backends = vec![
        Arc::new(Backend::new(0, learner.server.local_addr())),
        Arc::new(Backend::new(1, follower.server.local_addr())),
    ];
    // The default tick: propagation is gated against it, and only the
    // publish nudge makes that gate reachable.
    let sync_interval_us = RouterConfig::default().sync_interval.as_micros() as u64;
    let router = Router::start(
        backends,
        RouterConfig {
            // The learner is promoted by hand below; the router must
            // not elect one of its own while routing is measured.
            failover_ticks: u32::MAX,
            ..RouterConfig::default()
        },
    )
    .expect("router");

    let input_size = config.scenario.data.channels;
    let raster = SpikeRaster::from_fn(input_size, 24, |n, t| (n * 5 + t * 3) % 11 == 0);

    // --- 1. routing overhead -------------------------------------------
    eprintln!("measuring direct vs routed predict paths...");
    let (d_ok, d_failed, mut d_lat, d_wall) =
        drive(learner.server.local_addr(), &raster, args.requests);
    let (r_ok, r_failed, mut r_lat, r_wall) = drive(router.local_addr(), &raster, args.requests);
    let direct = load_block(d_ok, d_failed, &mut d_lat, d_wall);
    let routed = load_block(r_ok, r_failed, &mut r_lat, r_wall);
    let overhead_pct = {
        let direct_p50 = percentile(&d_lat, 0.50).max(1) as f64;
        let routed_p50 = percentile(&r_lat, 0.50) as f64;
        (routed_p50 - direct_p50) / direct_p50 * 100.0
    };

    // --- 2 + 3. stream increments: delta economy + propagation ----------
    // Promote the learner at epoch 1 under background routed load; it
    // ingests the stream and publishes a delta after every increment.
    eprintln!("running the learning stream under routed load...");
    let load = Load::start(router.local_addr(), &raster, 1);
    learner.replica.promote(1).expect("promote the learner");
    let mut increments: Vec<Value> = Vec::new();
    let (mut unpropagated, mut oversized) = (0u64, 0u64);
    let mut max_ratio = 0.0f64;
    let mut propagation_us: Vec<u64> = Vec::new();
    for version in 2..=reference.version {
        let Some((published, reached)) = await_propagation(learner, follower, version) else {
            eprintln!("ncl-router-bench: timed out waiting for the next increment");
            break;
        };
        let (_, delta) = learner
            .replica
            .fetch_delta(version - 1)
            .expect("the ring retains the newest delta");
        let delta_bytes = delta.len();
        let full_bytes = learner.replica.checkpoint_bytes().len();
        let ratio = delta_bytes as f64 / full_bytes as f64;
        max_ratio = max_ratio.max(ratio);
        let elapsed = reached.map_or(PROPAGATION_TIMEOUT, |at| at - published);
        let elapsed_us = elapsed.as_micros() as u64;
        propagation_us.push(elapsed_us);
        let note = reached.map_or(" [TIMED OUT]", |_| "");
        eprintln!(
            "increment v{version}: delta {delta_bytes} B / full {full_bytes} B \
             (ratio {:.1}%), propagated in {elapsed_us} µs{note}",
            ratio * 100.0,
        );
        unpropagated += u64::from(reached.is_none());
        oversized += u64::from(delta_bytes >= full_bytes);
        increments.push(object(vec![
            ("version", Value::from(version)),
            ("delta_bytes", Value::from(delta_bytes)),
            ("full_checkpoint_bytes", Value::from(full_bytes)),
            ("ratio", Value::from(ratio)),
            ("propagation_us", Value::from(elapsed_us)),
            ("propagated", Value::from(reached.is_some())),
        ]));
    }
    let background = load.stop();

    // --- bit-identity ----------------------------------------------------
    // The follower converges to the last *published* checkpoint, which
    // must be the reference run's.
    router.sync_now();
    let bit_identical = follower.replica.checkpoint_bytes() == reference.published
        && learner.replica.checkpoint_bytes() == reference.published;

    propagation_us.sort_unstable();
    let propagation_p50_us = percentile(&propagation_us, 0.50);
    let results = object(vec![
        ("direct", direct),
        ("routed", routed),
        ("router_overhead_pct", Value::from(overhead_pct)),
        (
            "background",
            object(vec![
                ("requests_ok", Value::from(background.ok)),
                ("requests_failed", Value::from(background.failed)),
            ]),
        ),
        (
            "delta",
            object(vec![
                ("increments", Value::from(increments.len())),
                ("max_ratio", Value::from(max_ratio)),
                ("deltas_applied", Value::from(follower.deltas_applied())),
                ("full_syncs", Value::from(follower.full_syncs())),
                ("per_increment", increments.into_iter().collect::<Value>()),
            ]),
        ),
        (
            "propagation",
            object(vec![
                ("p50_us", Value::from(propagation_p50_us)),
                ("max_us", Value::from(percentile(&propagation_us, 1.0))),
            ]),
        ),
        ("follower_bit_identical", Value::from(bit_identical)),
        (
            "total_wall_s",
            Value::from(total_start.elapsed().as_secs_f64()),
        ),
    ]);

    let mut report = Report::new(
        "router",
        object(vec![
            ("replicas", Value::from(nodes.len())),
            ("requests_per_phase", Value::from(args.requests)),
            ("sync_interval_us", Value::from(sync_interval_us)),
        ]),
    );
    report.gate("replicas", nodes.len() as f64, Op::Ge, 2.0);
    report.gate("direct_requests_ok", d_ok as f64, Op::Gt, 0.0);
    report.gate("routed_requests_ok", r_ok as f64, Op::Gt, 0.0);
    report.gate("direct_requests_failed", d_failed as f64, Op::Eq, 0.0);
    report.gate("routed_requests_failed", r_failed as f64, Op::Eq, 0.0);
    let bg_failed = background.failed as f64;
    report.gate("background_requests_failed", bg_failed, Op::Eq, 0.0);
    report.gate("increments", propagation_us.len() as f64, Op::Ge, 1.0);
    report.gate("delta_max_ratio", max_ratio, Op::Le, 0.10);
    report.gate("unpropagated_increments", unpropagated as f64, Op::Eq, 0.0);
    // A pass that waited for the tick would take half of it on average.
    let push_bound = sync_interval_us as f64 / 5.0;
    let p50_us = propagation_p50_us as f64;
    report.gate("propagation_p50_us", p50_us, Op::Le, push_bound);
    report.gate("oversized_deltas", oversized as f64, Op::Eq, 0.0);
    report.check("follower_bit_identical", bit_identical);

    router.shutdown();
    for node in nodes {
        node.server.shutdown();
    }
    report.finish(results, &args.out);
}
