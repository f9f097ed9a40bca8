//! Learning beside serving. Each cycle starts two `ElasticReplica` nodes
//! from one bootstrap checkpoint behind a `Router` (default
//! `RouterConfig`: least-loaded dispatch, 150 ms sync tick), promotes one
//! with the `promote` op, and lets its learner stream a deterministic
//! `SampleStream` whose held-out class triggers one increment (capture →
//! replay mix → train → swap → checkpoint write + fsync → delta publish);
//! the router then relays the delta to the follower. A closed-loop client
//! sends routed predicts throughout. Cycles repeat until the phase's time
//! is spent; the metrics come from the cycles during which the host stole
//! little CPU time (`stats::calm`).

use std::path::{Path, PathBuf};
use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::Arc;
use std::time::{Duration, Instant};

use ncl_obs::Registry;
use ncl_online::daemon::EVENT_DIGEST_SEED;
use ncl_online::{Checkpoint, DeltaPublisher, OnlineConfig, SampleStream, StreamConfig};
use ncl_router::{Backend, ElasticReplica, Router, RouterConfig};
use ncl_serve::{ClientConfig, NclClient, ReplicaSync, Server, ServerConfig};
use ncl_snn::Network;
use ncl_spike::SpikeRaster;
use replay4ncl::buffer::LatentReplayBuffer;
use replay4ncl::{phases, MethodSpec, ScenarioConfig};
use serde_json::Value;

use crate::report::{Metric, Run};
use crate::stats;
use crate::trace::{Parent, Recorder};

/// Novel-class samples that trigger the increment, and the stream shape
/// around them: a short known-class warm-up, then every other event
/// novel, ending on the event that completes the arrival.
const ARRIVAL_THRESHOLD: usize = 4;
const WARMUP_EVENTS: usize = 4;
const NOVEL_EVERY: usize = 2;
/// Fewest cycles a run makes, whatever its time budget.
const MIN_CYCLES: usize = 12;
/// Longest a cycle may wait for its increment to reach every replica.
const CONVERGE_TIMEOUT: Duration = Duration::from_secs(30);

/// The fleet's fixed inputs: config, bootstrap checkpoint and stream.
pub struct Fleet {
    config: OnlineConfig,
    bootstrap: Checkpoint,
    stream: SampleStream,
    probes: Vec<SpikeRaster>,
    dir: PathBuf,
}

/// Builds the fleet inputs from a pre-trained network: Replay4NCL with a
/// latent store bounded to half of what the seeded store would take, and
/// the bootstrap checkpoint `OnlineLearner::bootstrap` would produce.
pub fn prepare(
    scenario: &ScenarioConfig,
    method: MethodSpec,
    network: &Network,
    seed: u64,
    dir: &Path,
) -> Fleet {
    let data = phases::scenario_data(scenario).expect("data generation failed");
    let split = phases::scenario_split(scenario).expect("split failed");
    let (seeded, _) = phases::prepare_buffer(network, scenario, &method, &data.train, &split)
        .expect("latent generation failed");
    let capacity = seeded.footprint().total_bits / 2;
    let config = OnlineConfig {
        scenario: scenario.clone(),
        method,
        arrival_threshold: ARRIVAL_THRESHOLD,
        capture_every: 2,
        capacity_bits: Some(capacity),
        checkpoint_path: None,
        delta_ring: DeltaPublisher::DEFAULT_RING,
    };
    let mut buffer = LatentReplayBuffer::with_capacity_bits(scenario.alignment, capacity);
    for entry in &seeded {
        buffer.push(entry.clone());
    }
    let bootstrap = Checkpoint {
        version: 1,
        cursor: 0,
        event_digest: EVENT_DIGEST_SEED,
        config_digest: config.determinism_digest(),
        known_classes: split.pretrain_classes().to_vec(),
        network: network.clone(),
        buffer,
        pending: Vec::new(),
    };
    let stream = SampleStream::generate(&StreamConfig {
        scenario: scenario.clone(),
        warmup_events: WARMUP_EVENTS,
        total_events: WARMUP_EVENTS + (ARRIVAL_THRESHOLD - 1) * NOVEL_EVERY + 1,
        novel_every: NOVEL_EVERY,
        seed: crate::workload::mix(seed ^ 0x57EA),
    })
    .expect("stream generation failed");
    let probes = data.test.iter().map(|s| s.raster.clone()).collect();
    Fleet {
        config,
        bootstrap,
        stream,
        probes,
        dir: dir.to_path_buf(),
    }
}

struct Node {
    replica: Arc<ElasticReplica>,
    obs: Arc<Registry>,
    server: Server,
}

fn start_node(fleet: &Fleet, path: PathBuf) -> Node {
    let mut config = fleet.config.clone();
    config.checkpoint_path = Some(path);
    let obs = Arc::new(Registry::new());
    let replica = Arc::new(
        ElasticReplica::follower(
            config,
            fleet.bootstrap.clone(),
            fleet.stream.clone(),
            Duration::ZERO,
            Arc::clone(&obs),
        )
        .expect("elastic replica"),
    );
    replica.register_into(&obs);
    let sync: Arc<dyn ReplicaSync> = Arc::clone(&replica) as Arc<dyn ReplicaSync>;
    let server = Server::start_with_obs(
        replica.registry(),
        ServerConfig::default(),
        Some(sync),
        Arc::clone(&obs),
    )
    .expect("replica server");
    Node {
        replica,
        obs,
        server,
    }
}

/// What the closed-loop client saw during one cycle.
#[derive(Default)]
struct ClientOutcome {
    routed_us: Vec<f64>,
    direct_us: Vec<f64>,
    attempted: u64,
    failed: u64,
    regressions: u64,
}

/// Closed-loop predicts through the router until `stop`; in traced runs
/// every other predict goes straight to `direct`, so routing overhead is
/// the difference of the two medians.
fn client_loop(
    router: std::net::SocketAddr,
    direct: Option<std::net::SocketAddr>,
    probes: &[SpikeRaster],
    stop: &AtomicBool,
) -> ClientOutcome {
    let mut out = ClientOutcome::default();
    let cfg = ClientConfig::with_timeout(Duration::from_secs(10));
    let connect = |addr| NclClient::connect_with(addr, cfg);
    let (Ok(mut routed), direct) = (connect(router), direct.map(connect)) else {
        out.attempted = 1;
        out.failed = 1;
        return out;
    };
    let mut direct = direct.and_then(Result::ok);
    let mut last_version = 0u64;
    let mut i = 0usize;
    while !stop.load(Ordering::Acquire) {
        let raster = &probes[i % probes.len()];
        let via_direct = i % 2 == 1 && direct.is_some();
        let client = match (&mut direct, via_direct) {
            (Some(d), true) => d,
            _ => &mut routed,
        };
        let t = Instant::now();
        let reply = client.predict(i as u64, raster);
        let us = t.elapsed().as_secs_f64() * 1e6;
        out.attempted += 1;
        match reply {
            Ok(v) if v.get("ok").and_then(Value::as_bool) == Some(true) => {
                if via_direct {
                    out.direct_us.push(us);
                } else {
                    out.routed_us.push(us);
                    let version = v.get("model_version").and_then(Value::as_u64).unwrap_or(0);
                    if version < last_version {
                        out.regressions += 1;
                    }
                    last_version = last_version.max(version);
                }
            }
            _ => out.failed += 1,
        }
        i += 1;
    }
    out
}

/// One cycle's timings (ms), routed predict latencies (µs), the share
/// of CPU time the host stole meanwhile, and per-layer observations.
#[derive(Default)]
struct Cycle {
    increment_ms: f64,
    converge_ms: f64,
    published_ms: Option<f64>,
    routed_us: Vec<f64>,
    stolen: f64,
    layers: Vec<(&'static str, f64)>,
}

/// Mean of one daemon stage's histogram (µs) — the daemon records each
/// stage exactly, the histogram sum is exact.
fn stage_mean_us(obs: &Registry, stage: &'static str) -> f64 {
    let h = obs.stage("online_stage_us", stage);
    let h = h.histogram();
    h.sum() as f64 / h.count().max(1) as f64
}

/// Reads a counter's value out of a Prometheus text exposition.
fn exposition_value(text: &str, name: &str) -> f64 {
    text.lines()
        .filter(|l| !l.starts_with('#'))
        .find_map(|l| {
            let (key, value) = l.split_once(' ')?;
            (key == name).then(|| value.trim().parse().ok()).flatten()
        })
        .unwrap_or(0.0)
}

fn run_cycle(
    fleet: &Fleet,
    index: usize,
    stagger: Duration,
    rec: &Recorder,
    run: &mut Run,
    client: &mut ClientOutcome,
) -> Option<Cycle> {
    let (started, stolen_before) = (Instant::now(), crate::meta::stolen_s());
    let cycle_span = rec.open("fleet.cycle", None);
    let root = cycle_span.as_ref().map(ncl_obs::trace::TraceSpan::context);
    let dir = fleet.dir.join(format!("cycle-{index}"));
    std::fs::create_dir_all(&dir).expect("cycle directory");
    let (nodes, router) = rec.span("fleet.start", root, |_| {
        let nodes: Vec<Node> = (0..2)
            .map(|n| start_node(fleet, dir.join(format!("node-{n}.ckpt"))))
            .collect();
        let backends = nodes
            .iter()
            .enumerate()
            .map(|(id, n)| Arc::new(Backend::new(id, n.server.local_addr())))
            .collect();
        let router = Router::start(backends, RouterConfig::default()).expect("router start");
        (nodes, router)
    });
    let stop = AtomicBool::new(false);
    let direct = rec.enabled().then(|| nodes[1].server.local_addr());
    let router_addr = router.local_addr();
    let mut cycle = Cycle::default();
    let outcome = std::thread::scope(|s| {
        let load = s.spawn(|| client_loop(router_addr, direct, &fleet.probes, &stop));
        // Spread the promotion over the router's sync-tick phase, so the
        // median over cycles sees every phase rather than one.
        rec.span("fleet.stagger", root, |_| std::thread::sleep(stagger));
        let promoted = Instant::now();
        let promote = rec.span("router.promote", root, |_| {
            NclClient::connect(nodes[0].server.local_addr()).and_then(|mut c| c.promote(1))
        });
        let acked = Instant::now();
        let ok = matches!(&promote, Ok(v) if v.get("ok").and_then(Value::as_bool) == Some(true));
        let converged = ok && wait_converged(&nodes, [promoted, acked], rec, root, &mut cycle);
        stop.store(true, Ordering::Release);
        let outcome = load.join().expect("client thread panicked");
        (ok, converged, outcome)
    });
    let (promoted, converged, outcome) = outcome;
    run.attempted += 2;
    client.attempted += outcome.attempted;
    client.failed += outcome.failed;
    client.regressions += outcome.regressions;
    client.direct_us.extend(outcome.direct_us);
    cycle.routed_us = outcome.routed_us;
    let result = if !promoted || !converged {
        run.failed += 2;
        run.fail(format!(
            "cycle {index}: the increment never reached every replica"
        ));
        None
    } else {
        let learner = nodes[0].replica.checkpoint_bytes();
        let follower = nodes[1].replica.checkpoint_bytes();
        let on_disk = std::fs::read(dir.join("node-0.ckpt")).unwrap_or_default();
        if follower != learner || on_disk != learner {
            run.fail(format!(
                "cycle {index}: follower/learner/on-disk checkpoints differ"
            ));
        }
        if rec.enabled() {
            let obs = &nodes[0].obs;
            for (name, stage, scale) in [
                ("online.capture_us", "capture", 1.0),
                ("online.replay_mix_ms", "replay_mix", 1e-3),
                ("online.train_ms", "train", 1e-3),
                ("online.swap_us", "swap", 1.0),
                ("online.checkpoint_ms", "checkpoint", 1e-3),
            ] {
                cycle.layers.push((name, stage_mean_us(obs, stage) * scale));
            }
            cycle
                .layers
                .push(("online.checkpoint_bytes", learner.len() as f64));
            // Share of propagations that shipped a delta rather than a
            // full checkpoint, and failed-over relays (zero when healthy).
            let sync = router.sync_stats();
            let (deltas, full) = (
                sync.deltas_applied.get() as f64,
                sync.full_syncs.get() as f64,
            );
            cycle
                .layers
                .push(("router.delta_share", deltas / (deltas + full).max(1.0)));
            let failovers = exposition_value(&router.obs().render(), "router_failovers_total");
            if failovers > 0.0 || full > 0.0 {
                eprintln!("fleet: cycle {index}: {failovers} failovers, {full} full syncs");
            }
            rec.span("fleet.offline_sync", root, |_| {
                offline_sync_layers(fleet, &learner, &mut cycle)
            });
        }
        Some(cycle)
    };
    rec.span("fleet.stop", root, |_| {
        router.shutdown();
        for node in nodes {
            node.server.shutdown();
            drop(node.replica);
        }
    });
    drop(cycle_span);
    let _ = std::fs::remove_dir_all(&dir);
    result.map(|mut c| {
        c.stolen = (crate::meta::stolen_s() - stolen_before) / started.elapsed().as_secs_f64();
        c
    })
}

/// Times the publish and apply steps of this cycle's increment from
/// outside, on the same checkpoint bytes: `DeltaPublisher::publish` on
/// the bootstrap, and `apply_delta` on a fresh follower.
fn offline_sync_layers(fleet: &Fleet, learner: &[u8], cycle: &mut Cycle) {
    let next = Checkpoint::from_bytes(learner).expect("published checkpoint decodes");
    let publisher = DeltaPublisher::new(fleet.bootstrap.clone());
    let t = Instant::now();
    publisher.publish(next).expect("publish");
    cycle
        .layers
        .push(("online.delta_publish_ms", t.elapsed().as_secs_f64() * 1e3));
    let (_, delta) = publisher.delta_from(1).expect("delta from the bootstrap");
    cycle
        .layers
        .push(("online.delta_bytes", delta.len() as f64));
    let follower = ElasticReplica::follower(
        fleet.config.clone(),
        fleet.bootstrap.clone(),
        fleet.stream.clone(),
        Duration::ZERO,
        Arc::new(Registry::new()),
    )
    .expect("elastic replica");
    let t = Instant::now();
    follower.apply_delta(&delta).expect("apply delta");
    let apply_ms = t.elapsed().as_secs_f64() * 1e3;
    cycle.layers.push(("router.delta_apply_ms", apply_ms));
    if let Some(published) = cycle.published_ms {
        let wait = cycle.converge_ms - published - apply_ms;
        cycle.layers.push(("router.sync_wait_ms", wait.max(0.0)));
    }
}

/// Polls the replicas' registries until the follower serves the
/// increment; records when the learner swapped, published and the
/// follower converged (ms after `promoted`; the spans start when the
/// promote op was acknowledged).
fn wait_converged(
    nodes: &[Node],
    [promoted, acked]: [Instant; 2],
    rec: &Recorder,
    root: Parent,
    cycle: &mut Cycle,
) -> bool {
    let ms = |t: Instant| t.duration_since(promoted).as_secs_f64() * 1e3;
    let mut learner_at = None;
    loop {
        let now = Instant::now();
        if now.duration_since(promoted) > CONVERGE_TIMEOUT {
            return false;
        }
        if learner_at.is_none() && nodes[0].replica.registry().version() >= 2 {
            learner_at = Some(now);
            cycle.increment_ms = ms(now);
        }
        if rec.enabled() && cycle.published_ms.is_none() {
            let published = nodes[0]
                .replica
                .health_extra()
                .into_iter()
                .any(|(k, v)| k == "published_version" && v.as_u64() >= Some(2));
            if published {
                cycle.published_ms = Some(ms(now));
            }
        }
        if nodes[1].replica.registry().version() >= 2 {
            cycle.converge_ms = ms(now);
            let learner = learner_at.unwrap_or(now).max(acked);
            rec.record("online.increment", acked, learner, root);
            rec.record("router.propagate", learner, now, root);
            return true;
        }
        std::thread::sleep(Duration::from_micros(200));
    }
}

/// Runs cycles until `until`, at least [`MIN_CYCLES`].
pub fn run(fleet: &Fleet, until: Instant, seed: u64, rec: &Recorder, run: &mut Run) {
    let tick = RouterConfig::default().sync_interval;
    // A seeded offset, then golden-ratio steps: the promotions cover the
    // sync-tick phase evenly in every run.
    let mut phase = (crate::workload::mix(seed ^ 0xF1EE7) >> 11) as f64 / (1u64 << 53) as f64;
    let mut client = ClientOutcome::default();
    let mut traced_client = ClientOutcome::default();
    let (mut cycles, mut traced) = (Vec::new(), Vec::new());
    let untraced_rec = Recorder::new(false);
    let mut index = 0;
    // A traced run alternates untraced and traced cycles: the untraced
    // ones give the end-to-end figures, the difference is the overhead.
    while cycles.len() < MIN_CYCLES || Instant::now() < until {
        phase = (phase + 0.618_033_988_749_895) % 1.0;
        let stagger = tick.mul_f64(phase);
        let outcome = if rec.enabled() && index % 2 == 1 {
            run_cycle(fleet, index, stagger, rec, run, &mut traced_client).map(|c| traced.push(c))
        } else {
            run_cycle(fleet, index, stagger, &untraced_rec, run, &mut client)
                .map(|c| cycles.push(c))
        };
        if outcome.is_none() && index >= 2 * MIN_CYCLES {
            break;
        }
        index += 1;
    }
    for c in [&client, &traced_client] {
        run.attempted += c.attempted;
        run.failed += c.failed;
        if c.failed > 0 || c.regressions > 0 {
            run.fail(format!(
                "routed predicts: {} failed, {} version regressions",
                c.failed, c.regressions
            ));
        }
    }
    let made = cycles.len();
    let stolen = 100.0 * cycles.iter().map(|c| c.stolen).sum::<f64>() / made.max(1) as f64;
    let calm = |cs: Vec<Cycle>| stats::calm(cs.into_iter().map(|c| (c.stolen, 0.0, c)).collect());
    let (cycles, traced) = (calm(cycles), calm(traced));
    let col = |cs: &[Cycle], f: fn(&Cycle) -> f64| cs.iter().map(f).collect::<Vec<_>>();
    let routed = |cs: &[Cycle]| {
        cs.iter()
            .flat_map(|c| c.routed_us.iter().copied())
            .collect::<Vec<_>>()
    };
    let increment = stats::median(&col(&cycles, |c| c.increment_ms)).unwrap_or(f64::NAN);
    let converge = stats::median(&col(&cycles, |c| c.converge_ms)).unwrap_or(f64::NAN);
    run.e2e(Metric::new("increment_ms", increment, "ms"));
    run.e2e(Metric::new("fleet_converge_ms", converge, "ms"));
    let routed_us = routed(&cycles);
    let routed_p50 = stats::median(&routed_us).unwrap_or(f64::NAN);
    let windows = stats::windows(&routed_us);
    let p90 = stats::median_window_percentile(windows.iter().copied(), 0.9).unwrap_or(f64::NAN);
    let p99 = stats::median_window_percentile(windows.iter().copied(), 0.99).unwrap_or(f64::NAN);
    eprintln!(
        "fleet: {made} cycles ({stolen:.1}% stolen), {} calm; {} routed predicts: p50 \
         {routed_p50:.0} µs; median over {} windows: p90 {p90:.0} µs, p99 {p99:.0} µs",
        cycles.len(),
        routed_us.len(),
        windows.len(),
    );
    run.e2e(Metric::new("routed_p50_us", routed_p50, "us"));
    run.e2e(Metric::new("routed_p90_us", p90, "us"));
    run.layer(Metric::new("router.routed_p99_us", p99, "us"));
    if rec.enabled() {
        let overhead = |m: f64, f: fn(&Cycle) -> f64| {
            stats::median(&col(&traced, f)).map_or(0.0, |t| t / m - 1.0)
        };
        run.layer(Metric::new(
            "trace.overhead.increment",
            overhead(increment, |c| c.increment_ms),
            "ratio",
        ));
        run.layer(Metric::new(
            "trace.overhead.fleet_converge",
            overhead(converge, |c| c.converge_ms),
            "ratio",
        ));
        let traced_p50 = stats::median(&routed(&traced)).unwrap_or(f64::NAN);
        let (cycles, client) = (traced, traced_client);
        let mut names: Vec<&'static str> = cycles
            .iter()
            .flat_map(|c| c.layers.iter().map(|(n, _)| *n))
            .collect();
        names.sort_unstable();
        names.dedup();
        for name in names {
            let values: Vec<f64> = cycles
                .iter()
                .flat_map(|c| c.layers.iter().filter(|(n, _)| *n == name).map(|(_, v)| *v))
                .collect();
            let unit = match name.rsplit('_').next() {
                Some("us") => "us",
                Some("ms") => "ms",
                Some("bytes") => "bytes",
                _ => "ratio",
            };
            run.layer(Metric::median(name, &values, unit));
        }
        let direct = stats::median(&client.direct_us).unwrap_or(0.0);
        run.layer(Metric::new("router.dispatch_us", traced_p50 - direct, "us"));
        let t = Instant::now();
        let n = fleet.probes.len().min(16);
        for probe in &fleet.probes[..n] {
            std::hint::black_box(fleet.bootstrap.network.forward(probe).expect("forward"));
        }
        let forward_us = t.elapsed().as_secs_f64() * 1e6 / n as f64;
        run.layer(Metric::new("snn.predict_forward_us", forward_us, "us"));
    }
}
