//! End-to-end sharded-serving integration: a live learner + two
//! follower replicas behind an `ncl_router::Router`, over real TCP.
//! One follower is killed mid-load (the acceptance bar: zero failed
//! requests — failover absorbs the loss), the learner (a replica
//! promoted at epoch 1) runs a real continual-learning increment, and
//! the surviving follower converges to the learner's published
//! checkpoint **bit-identically** via the delta path.
//!
//! The remaining tests pin the replication pass itself: a learner's
//! `published` nudge propagates each increment without waiting for the
//! tick, concurrent passes count each applied delta once, and a
//! malformed epoch stamp is refused rather than applied unfenced.

use std::sync::Arc;
use std::time::Duration;

use ncl_online::stream::SampleStream;
use ncl_online::CheckpointDelta;
use ncl_router::backend::Backend;
use ncl_router::router::{Router, RouterConfig};
use ncl_router::testkit::{
    make_server, poll_until, reference_run, start_node, start_synth_follower, synth, test_config,
    Load, SynthLearner,
};
use ncl_serve::client::NclClient;
use ncl_serve::protocol;
use ncl_serve::sync::ReplicaSync;
use serde_json::Value;

/// A sync interval no test outlives: only nudges and `sync_now` run
/// passes.
const NO_TICK: Duration = Duration::from_secs(3600);

#[test]
fn fleet_survives_replica_loss_and_converges_bit_identically() {
    let (config, stream_config) = test_config();
    let stream = SampleStream::generate(&stream_config).unwrap();
    // What the learner must publish: a never-faulted reference run.
    let reference = reference_run(&config, &stream).unwrap();
    let target = reference.version;
    assert!(target > 1, "the stream must produce an increment");

    // Three replicas from the identical bootstrap (identical configs
    // yield bit-identical bases — the delta chain's anchor); the first
    // is pre-promoted to learner at epoch 1 and starts ingesting. Paced
    // events make its increments land after the kill below.
    let pace = Duration::from_millis(20);
    let start = || start_node(&config, &reference.bootstrap, &stream, pace).unwrap();
    let (learner, survivor, casualty) = (start(), start(), start());
    learner.replica.promote(1).unwrap();

    let backends = vec![
        Arc::new(Backend::new(0, learner.server.local_addr())),
        Arc::new(Backend::new(1, survivor.server.local_addr())),
        Arc::new(Backend::new(2, casualty.server.local_addr())),
    ];
    let router = Router::start(
        backends,
        RouterConfig {
            sync_interval: Duration::from_millis(20),
            ..RouterConfig::default()
        },
    )
    .unwrap();
    let addr = router.local_addr();
    let load = Load::start(addr, &stream.events()[0].raster, 2);

    // Let load reach the whole fleet, then kill one follower mid-load.
    // Failover must absorb the loss without a single failed request.
    std::thread::sleep(Duration::from_millis(120));
    casualty.server.shutdown();

    // The learner publishes a delta after each increment and the
    // router's sync loop relays them; wait for the surviving follower
    // to serve the learner's final version.
    poll_until(
        Duration::from_secs(60),
        "the survivor to reach the final version",
        || survivor.replica.registry().version() >= target,
    )
    .unwrap();

    std::thread::sleep(Duration::from_millis(80));
    let load = load.stop();
    assert!(load.ok > 0, "load made progress");
    assert_eq!(
        load.failed, 0,
        "killing a replica mid-load must not fail a single request"
    );

    // The learner published the reference run's bytes, in deltas
    // smaller than the full checkpoint.
    assert_eq!(learner.replica.checkpoint_bytes(), reference.published);
    let (_, delta) = learner.replica.fetch_delta(target - 1).unwrap();
    assert!(!delta.is_empty(), "increments must publish deltas");
    assert!(
        delta.len() < reference.published.len(),
        "a delta must be smaller than the full checkpoint"
    );

    // The survivor's serialized state matches the learner's published
    // checkpoint byte for byte, and it got there on the delta path.
    router.sync_now();
    assert_eq!(
        survivor.replica.checkpoint_bytes(),
        reference.published,
        "follower must converge bit-identically"
    );
    assert!(
        survivor.deltas_applied() >= 1,
        "convergence must use the delta path, not full-checkpoint fallback"
    );

    // Router-side accounting: nothing failed, the dead replica is
    // marked unhealthy, and the live ones serve the learner's version.
    let mut control = NclClient::connect(addr).unwrap();
    let stats = control.stats().unwrap();
    let serving = stats.get("serving").expect("serving block");
    assert_eq!(serving.get("routed").and_then(Value::as_bool), Some(true));
    assert_eq!(
        serving.get("requests_failed").and_then(Value::as_u64),
        Some(0)
    );
    let replicas = stats
        .get("replicas")
        .and_then(Value::as_array)
        .expect("replicas table")
        .clone();
    assert_eq!(replicas.len(), 3);
    let healthy_at_target = replicas
        .iter()
        .filter(|r| {
            r.get("healthy").and_then(Value::as_bool) == Some(true)
                && r.get("model_version").and_then(Value::as_u64) == Some(target)
        })
        .count();
    assert_eq!(healthy_at_target, 2, "learner + survivor at v{target}");
    assert!(
        replicas
            .iter()
            .any(|r| r.get("healthy").and_then(Value::as_bool) == Some(false)),
        "the killed replica must be marked unhealthy"
    );

    router.shutdown();
    learner.server.shutdown();
    survivor.server.shutdown();
}

#[test]
fn metrics_op_merges_the_fleet_and_stats_marks_unreachable_replicas() {
    let alive = make_server().unwrap();
    let doomed = make_server().unwrap();
    let backends = vec![
        Arc::new(Backend::new(0, alive.local_addr())),
        Arc::new(Backend::with_timeout(
            1,
            doomed.local_addr(),
            Duration::from_millis(500),
        )),
    ];
    let router = Router::start(backends, RouterConfig::default()).unwrap();
    doomed.shutdown();
    let mut client = NclClient::connect(router.local_addr()).unwrap();

    // One fleet view: the router's own series plus the live replica's
    // scrape under replica="0", with per-replica up/down gauges.
    let metrics = client.metrics().unwrap();
    assert_eq!(metrics.get("ok").and_then(Value::as_bool), Some(true));
    let text = metrics
        .get("exposition")
        .and_then(Value::as_str)
        .expect("exposition text");
    assert!(
        text.contains("serve_requests_ok_total{replica=\"0\"}"),
        "replica scrape must be relabeled and merged in:\n{text}"
    );
    assert!(text.contains("router_replica_up{replica=\"0\"} 1"));
    assert!(text.contains("router_replica_up{replica=\"1\"} 0"));
    let ticks = text
        .lines()
        .find_map(|l| l.strip_prefix("router_sync_ticks_total "))
        .and_then(|v| v.parse::<u64>().ok())
        .expect("router_sync_ticks_total sample");
    assert!(ticks >= 1, "the sync loop must have ticked");

    // Stats fan-out: the dead replica appears as an unreachable row
    // carrying the transport error, not as a silently dropped entry.
    let stats = client.stats().unwrap();
    let replicas = stats
        .get("replicas")
        .and_then(Value::as_array)
        .expect("replicas table")
        .clone();
    assert_eq!(replicas.len(), 2);
    let row = |id: u64| {
        replicas
            .iter()
            .find(|r| r.get("id").and_then(Value::as_u64) == Some(id))
            .expect("replica row")
    };
    assert!(row(0).get("unreachable").is_none());
    assert_eq!(
        row(1).get("unreachable").and_then(Value::as_bool),
        Some(true)
    );
    assert!(
        !row(1)
            .get("error")
            .and_then(Value::as_str)
            .expect("error string")
            .is_empty(),
        "the unreachable row must say why"
    );

    router.shutdown();
    alive.shutdown();
}

#[test]
fn router_refuses_swaps_and_reports_fleet_health() {
    let replica = make_server().unwrap();
    let backends = vec![Arc::new(Backend::new(0, replica.local_addr()))];
    let router = Router::start(backends, RouterConfig::default()).unwrap();
    let mut client = NclClient::connect(router.local_addr()).unwrap();

    // File-based swaps are a single-replica op; the fleet converges via
    // deltas instead, so the router refuses rather than forwarding.
    let reply = client
        .round_trip(r#"{"op":"swap","path":"nope.bin"}"#)
        .unwrap();
    assert_eq!(reply.get("ok").and_then(Value::as_bool), Some(false));

    let health = client.round_trip(r#"{"op":"health"}"#).unwrap();
    assert_eq!(health.get("ok").and_then(Value::as_bool), Some(true));
    assert_eq!(
        health.get("role").and_then(Value::as_str),
        Some("router"),
        "health must identify the router role"
    );
    assert_eq!(
        health.get("replicas_healthy").and_then(Value::as_u64),
        Some(1)
    );

    // Shutting the router down leaves the replica itself serving.
    let bye = client.shutdown().unwrap();
    assert_eq!(bye.get("ok").and_then(Value::as_bool), Some(true));
    router.wait();
    let mut direct = NclClient::connect(replica.local_addr()).unwrap();
    assert_eq!(
        direct.ping().unwrap().get("ok").and_then(Value::as_bool),
        Some(true)
    );
    replica.shutdown();
}

#[test]
fn published_nudges_push_every_increment_without_waiting_for_the_tick() {
    let (config, stream_config) = test_config();
    let stream = SampleStream::generate(&stream_config).unwrap();
    let reference = reference_run(&config, &stream).unwrap();
    let target = reference.version;
    assert!(target > 1, "the stream must produce an increment");

    let pace = Duration::from_millis(20);
    let learner = start_node(&config, &reference.bootstrap, &stream, pace).unwrap();
    let follower = start_node(&config, &reference.bootstrap, &stream, pace).unwrap();
    let backends = vec![
        Arc::new(Backend::new(0, learner.server.local_addr())),
        Arc::new(Backend::new(1, follower.server.local_addr())),
    ];
    let router = Router::start(
        backends,
        RouterConfig {
            sync_interval: NO_TICK,
            ..RouterConfig::default()
        },
    )
    .unwrap();
    // Promoted after the router's first probe told it where to nudge.
    learner.replica.promote(1).unwrap();

    // No sync_now and no tick: each increment must reach the follower
    // because the learner's publish woke the router.
    for version in 2..=target {
        poll_until(Duration::from_secs(120), "the next publish", || {
            learner.health_count("published_version") >= version
        })
        .unwrap();
        poll_until(Duration::from_secs(5), "the nudged push", || {
            follower.replica.registry().version() >= version
        })
        .unwrap();
    }
    assert_eq!(learner.replica.checkpoint_bytes(), reference.published);
    assert_eq!(
        follower.replica.checkpoint_bytes(),
        learner.replica.checkpoint_bytes(),
        "a nudged pass converges byte-identically"
    );
    assert!(router.sync_stats().nudges_woke.get() >= target - 1);
    assert_eq!(router.sync_stats().nudges_fenced.get(), 0);

    router.shutdown();
    learner.server.shutdown();
    follower.server.shutdown();
}

#[test]
fn racing_sync_passes_count_each_applied_delta_once() {
    const ROUNDS: u64 = 6;
    let learner = SynthLearner::start(ROUNDS as usize + 1).unwrap();
    let follower = start_synth_follower().unwrap();
    let backends = vec![
        Arc::new(Backend::new(0, learner.server.local_addr())),
        Arc::new(Backend::new(1, follower.server.local_addr())),
    ];
    let router = Router::start(
        backends,
        RouterConfig {
            sync_interval: NO_TICK,
            ..RouterConfig::default()
        },
    )
    .unwrap();

    // Every round leaves the follower one version behind and races two
    // passes at it: one pushes the delta, the other finds nothing to do
    // (or a stale refusal, which is not an applied delta).
    for round in 1..=ROUNDS {
        learner.advance_to(1 + round).unwrap();
        let start = std::sync::Barrier::new(2);
        std::thread::scope(|s| {
            for _ in 0..2 {
                s.spawn(|| {
                    start.wait();
                    router.sync_now();
                });
            }
        });
        assert_eq!(follower.replica.registry().version(), 1 + round);
        assert_eq!(
            router.sync_stats().deltas_applied.get(),
            round,
            "round {round}: one lagging follower, one applied delta"
        );
    }
    let text = router.obs().render();
    assert!(
        text.contains(&format!("router_sync_deltas_applied_total {ROUNDS}\n")),
        "{text}"
    );
    assert_eq!(router.sync_stats().full_syncs.get(), 0);
    assert_eq!(router.sync_stats().failures.get(), 0);
    assert_eq!(follower.deltas_applied(), ROUNDS);

    router.shutdown();
    learner.server.shutdown();
    follower.server.shutdown();
}

#[test]
fn malformed_epoch_stamps_are_refused_not_applied_unfenced() {
    let follower = start_synth_follower().unwrap();
    follower.replica.observe_epoch(2).unwrap();
    let target = synth(2).unwrap();
    let delta = CheckpointDelta::between(&synth(1).unwrap(), &target, &target.to_bytes()).unwrap();
    let payload = protocol::to_hex(&delta.to_bytes());
    // Both writes would apply unfenced: the delta advances v1 to v2,
    // the full checkpoint jumps to v3.
    let writes = [
        ("apply_delta", payload.clone()),
        (
            "apply_checkpoint",
            protocol::to_hex(&synth(3).unwrap().to_bytes()),
        ),
    ];
    let mut client = NclClient::connect(follower.server.local_addr()).unwrap();

    for stamp in [r#""1""#, "-1", "1.5", "null", "1"] {
        for (op, payload) in &writes {
            let reply = client
                .round_trip(&format!(
                    r#"{{"op":"{op}","payload":"{payload}","epoch":{stamp}}}"#
                ))
                .unwrap();
            assert_eq!(
                reply.get("ok").and_then(Value::as_bool),
                Some(false),
                "{op} stamped {stamp} must be refused: {reply}"
            );
        }
        assert_eq!(
            follower.replica.registry().version(),
            1,
            "a refused stamp {stamp} must not move the version"
        );
    }
    assert_eq!(follower.replica.current_epoch(), 2);

    // The same write at the fleet's epoch goes through.
    let applied = client
        .round_trip(&format!(
            r#"{{"op":"apply_delta","payload":"{payload}","epoch":2}}"#
        ))
        .unwrap();
    assert_eq!(applied.get("ok").and_then(Value::as_bool), Some(true));
    assert_eq!(follower.replica.registry().version(), 2);
    follower.server.shutdown();
}
