//! Deterministic chaos for the elastic fleet.
//!
//! Everything here is seeded: the sample stream, the training, and the
//! fault schedule ([`FaultPlan`]) are all deterministic functions of
//! fixed seeds, so each scenario replays the exact same failure
//! history on every run. The scenarios are the robustness acceptance
//! bar for the elastic fleet:
//!
//! * kill (partition) the learner mid-stream under live client load —
//!   the router must promote the most caught-up follower, the promoted
//!   replica must continue the deterministic stream from its applied
//!   checkpoint, the deposed learner must be demoted (not split-brain)
//!   when it returns, and the survivors must converge **byte-for-byte**
//!   with a never-faulted reference run;
//! * flap membership (leave + rejoin) under load;
//! * partition a follower until the learner's delta ring no longer
//!   covers its lag — catch-up must fall back to a full checkpoint,
//!   and both paths must be counted in the router's sync stats;
//! * drop or delay every `published` nudge — the tick alone must still
//!   converge the fleet;
//! * through all of it: **zero failed client requests** and no
//!   client-visible `model_version` regression.

use std::sync::Arc;
use std::time::Duration;

use ncl_online::stream::SampleStream;
use ncl_online::Checkpoint;
use ncl_router::backend::Backend;
use ncl_router::faults::{FaultAction, FaultPlan, FaultRule};
use ncl_router::router::{Router, RouterConfig};
use ncl_router::testkit::{
    poll_until, reference_run, start_node, start_synth_follower, test_config, Load, Node,
    SynthLearner,
};
use ncl_serve::client::NclClient;
use ncl_serve::protocol;
use ncl_serve::sync::ReplicaSync;
use serde_json::Value;

#[test]
fn learner_kill_promotes_a_follower_and_survivors_converge_bit_identically() {
    let (mut config, stream_config) = test_config();
    // A deliberately small delta ring makes ring overflow reachable.
    config.delta_ring = 2;
    let stream = SampleStream::generate(&stream_config).unwrap();

    // The never-faulted reference: bootstrap once, ingest the whole
    // stream. Determinism makes its last published checkpoint the bytes
    // every survivor of the chaos below must end on.
    let reference = reference_run(&config, &stream).unwrap();
    let (expected, target) = (reference.published, reference.version);
    assert!(target > 1, "the stream must produce an increment");

    // Three elastic replicas from the identical bootstrap; replica 0 is
    // pre-promoted to learner at epoch 1 and starts ingesting.
    let pace = Duration::from_millis(20);
    let nodes: Vec<Node> = (0..3)
        .map(|_| start_node(&config, &reference.bootstrap, &stream, pace).unwrap())
        .collect();
    nodes[0].replica.promote(1).unwrap();

    // Seeded fault plan: a low-probability predict delay exercises the
    // injection path under load; partitions drive the actual chaos.
    let plan = Arc::new(FaultPlan::with_rules(
        0xC4A05,
        vec![FaultRule::every(0.2, FaultAction::Delay(Duration::from_millis(1))).on_op("predict")],
    ));
    let backends: Vec<Arc<Backend>> = nodes
        .iter()
        .enumerate()
        .map(|(id, node)| Arc::new(Backend::new(id, node.server.local_addr())))
        .collect();
    for backend in &backends {
        // Fast breaker recovery so healed partitions are re-probed
        // promptly (the default backoff is tuned for real deployments).
        backend.configure_breaker(Duration::from_millis(20), Duration::from_millis(100));
    }
    let router = Router::start_with_faults(
        backends,
        RouterConfig {
            sync_interval: Duration::from_millis(25),
            failover_ticks: 2,
            ..RouterConfig::default()
        },
        Some(Arc::clone(&plan)),
    )
    .unwrap();
    let addr = router.local_addr();

    // Client load for the whole scenario: count outcomes and watch for
    // any per-connection model_version regression.
    let load = Load::start(addr, &stream.events()[0].raster, 2);

    std::thread::sleep(Duration::from_millis(100));

    // Flap membership under load: replica 2 leaves, then rejoins under
    // a fresh id (ids are never reused).
    let mut control = NclClient::connect(addr).unwrap();
    let left = control.leave(2).unwrap();
    assert_eq!(left.get("ok").and_then(Value::as_bool), Some(true));
    std::thread::sleep(Duration::from_millis(40));
    let rejoined = control
        .join(&nodes[2].server.local_addr().to_string())
        .unwrap();
    assert_eq!(rejoined.get("ok").and_then(Value::as_bool), Some(true));
    assert_eq!(
        rejoined.get("id").and_then(Value::as_u64),
        Some(3),
        "a rejoin is a new incarnation, not a resurrected id"
    );
    std::thread::sleep(Duration::from_millis(40));

    // Kill the learner: a partition black-holes replica 0 entirely.
    // Well before its first increment (paced events make the increment
    // land seconds in), so the whole learning run happens post-failover.
    plan.partition(0);
    poll_until(
        Duration::from_secs(30),
        "the router to promote a follower",
        || router.promotions() >= 1,
    )
    .unwrap();
    assert_eq!(router.epoch(), 2, "promotion must bump the fleet epoch");
    assert_eq!(
        nodes[1].replica.role(),
        "learner",
        "the most caught-up follower (lowest id on ties) must be promoted"
    );

    // The deposed learner returns: it still claims learner at epoch 1,
    // which is behind the fleet — it must be demoted, not re-elected.
    plan.heal(0);
    poll_until(
        Duration::from_secs(30),
        "the returning learner to be demoted",
        || router.demotions() >= 1,
    )
    .unwrap();
    poll_until(
        Duration::from_secs(30),
        "the deposed learner to step down",
        || nodes[0].replica.role() == "follower",
    )
    .unwrap();

    // The promoted learner continues the deterministic stream; every
    // survivor must land on the reference run's exact bytes.
    poll_until(
        Duration::from_secs(120),
        "every survivor to reach the reference version",
        || {
            nodes
                .iter()
                .all(|n| n.replica.registry().version() >= target)
        },
    )
    .unwrap();
    poll_until(
        Duration::from_secs(30),
        "byte-identical convergence",
        || {
            nodes
                .iter()
                .all(|n| n.replica.checkpoint_bytes() == expected)
        },
    )
    .unwrap();

    std::thread::sleep(Duration::from_millis(50));
    let load = load.stop();
    assert!(load.ok > 0, "load made progress");
    assert_eq!(
        load.failed, 0,
        "learner death + membership flapping must not fail a single request"
    );
    assert_eq!(
        load.regressions, 0,
        "clients must never observe a model_version regression"
    );
    assert!(plan.injected() >= 1, "the fault plan must have fired");

    // Cold join: a brand-new replica bootstraps from the fleet's
    // current checkpoint, fetched through the router's learner relay,
    // then registers itself — and is already byte-identical.
    let ck = control.checkpoint().unwrap();
    assert_eq!(ck.get("ok").and_then(Value::as_bool), Some(true));
    let payload = protocol::from_hex(ck.get("payload").and_then(Value::as_str).unwrap()).unwrap();
    let cold = start_node(
        &config,
        &Checkpoint::from_bytes(&payload).unwrap(),
        &stream,
        pace,
    )
    .unwrap();
    let joined = control.join(&cold.server.local_addr().to_string()).unwrap();
    assert_eq!(joined.get("ok").and_then(Value::as_bool), Some(true));
    assert_eq!(joined.get("id").and_then(Value::as_u64), Some(4));
    assert_eq!(cold.replica.registry().version(), target);
    assert_eq!(cold.replica.checkpoint_bytes(), expected);
    let members = control.members().unwrap();
    let rows = members
        .get("members")
        .and_then(Value::as_array)
        .expect("members table")
        .len();
    assert_eq!(rows, 4, "replicas 0, 1, rejoined 3 and cold-joined 4");

    router.shutdown();
    cold.server.shutdown();
    for node in nodes {
        node.server.shutdown();
    }
}

#[test]
fn follower_partitioned_past_ring_depth_catches_up_via_full_sync() {
    const RING: usize = 2;
    let learner = SynthLearner::start(RING).unwrap();
    let follower = start_synth_follower().unwrap();

    let plan = Arc::new(FaultPlan::new(0xFA117));
    let backends = vec![
        Arc::new(Backend::new(0, learner.server.local_addr())),
        Arc::new(Backend::new(1, follower.server.local_addr())),
    ];
    for backend in &backends {
        backend.configure_breaker(Duration::from_millis(1), Duration::from_millis(1));
    }
    let router = Router::start_with_faults(
        backends,
        RouterConfig {
            // Driven manually with sync_now(): deterministic tick count.
            sync_interval: Duration::from_secs(3600),
            ..RouterConfig::default()
        },
        Some(Arc::clone(&plan)),
    )
    .unwrap();

    // Partition the follower, then advance the learner far enough that
    // the ring no longer reaches the follower's version.
    plan.partition(1);
    learner.advance_to(1 + RING as u64 + 1).unwrap();
    router.sync_now();
    assert_eq!(
        follower.replica.registry().version(),
        1,
        "partitioned: no progress"
    );
    assert!(plan.injected() >= 1, "the partition must have dropped ops");

    // Heal. The follower's base (v1) fell out of the ring, so catch-up
    // must take the full-checkpoint path — and be counted as such.
    plan.heal(1);
    std::thread::sleep(Duration::from_millis(5));
    router.sync_now();
    assert_eq!(follower.replica.registry().version(), 1 + RING as u64 + 1);
    assert_eq!(follower.full_syncs(), 1, "catch-up used the full-sync path");
    assert_eq!(follower.deltas_applied(), 0);
    assert_eq!(router.sync_stats().full_syncs.get(), 1);
    assert_eq!(
        follower.replica.checkpoint_bytes(),
        learner.publisher.checkpoint_bytes(),
        "full sync must land on the learner's exact bytes"
    );

    router.shutdown();
    learner.server.shutdown();
    follower.server.shutdown();
}

#[test]
fn delta_ring_covers_lag_up_to_capacity_and_full_syncs_past_it() {
    const RING: usize = 2;
    let learner = SynthLearner::start(RING).unwrap();
    let near = start_synth_follower().unwrap();
    let far = start_synth_follower().unwrap();

    let backends = vec![
        Arc::new(Backend::new(0, learner.server.local_addr())),
        Arc::new(Backend::new(1, near.server.local_addr())),
    ];
    let router = Router::start(
        backends,
        RouterConfig {
            sync_interval: Duration::from_secs(3600),
            ..RouterConfig::default()
        },
    )
    .unwrap();

    // Lag exactly == capacity: every needed delta is still retained, so
    // the follower walks up one delta per tick, never full-syncing.
    learner.advance_to(1 + RING as u64).unwrap();
    for _ in 0..RING {
        router.sync_now();
    }
    assert_eq!(near.replica.registry().version(), 1 + RING as u64);
    assert_eq!(near.deltas_applied(), RING as u64, "deltas only");
    assert_eq!(near.full_syncs(), 0, "lag == capacity must not full-sync");

    // One more publish pushes the second follower's base out of the
    // ring: lag == capacity + 1 must fall back to a full checkpoint.
    // It joins the live fleet over the wire (the elastic path).
    learner.advance_to(2 + RING as u64).unwrap();
    let mut control = NclClient::connect(router.local_addr()).unwrap();
    let joined = control.join(&far.server.local_addr().to_string()).unwrap();
    assert_eq!(joined.get("ok").and_then(Value::as_bool), Some(true));
    router.sync_now();
    assert_eq!(far.replica.registry().version(), 2 + RING as u64);
    assert_eq!(far.full_syncs(), 1, "lag == capacity + 1 must full-sync");
    assert_eq!(far.deltas_applied(), 0);
    assert_eq!(
        far.replica.checkpoint_bytes(),
        learner.publisher.checkpoint_bytes(),
        "either path must converge bit-identically"
    );

    router.shutdown();
    learner.server.shutdown();
    near.server.shutdown();
    far.server.shutdown();
}

/// A learner and two followers under routed load, with `action`
/// applied to every `published` nudge the router receives. The fleet
/// must still converge byte-for-byte with the reference run, with zero
/// failed requests and no version regression. Returns the router's
/// metric exposition and its woken-nudge count.
fn converge_with_nudge_fault(seed: u64, action: FaultAction) -> (String, u64) {
    let (config, stream_config) = test_config();
    let stream = SampleStream::generate(&stream_config).unwrap();
    let reference = reference_run(&config, &stream).unwrap();
    let (expected, target) = (reference.published, reference.version);
    assert!(target > 1, "the stream must produce an increment");

    let pace = Duration::from_millis(10);
    let nodes: Vec<Node> = (0..3)
        .map(|_| start_node(&config, &reference.bootstrap, &stream, pace).unwrap())
        .collect();
    let plan = Arc::new(FaultPlan::with_rules(
        seed,
        vec![FaultRule::every(1.0, action).on_op("published")],
    ));
    let backends: Vec<Arc<Backend>> = nodes
        .iter()
        .enumerate()
        .map(|(id, node)| Arc::new(Backend::new(id, node.server.local_addr())))
        .collect();
    let router = Router::start_with_faults(
        backends,
        RouterConfig {
            sync_interval: Duration::from_millis(25),
            ..RouterConfig::default()
        },
        Some(Arc::clone(&plan)),
    )
    .unwrap();
    let load = Load::start(router.local_addr(), &stream.events()[0].raster, 2);
    nodes[0].replica.promote(1).unwrap();

    poll_until(
        Duration::from_secs(120),
        "byte-identical convergence on the tick",
        || {
            nodes
                .iter()
                .all(|n| n.replica.checkpoint_bytes() == expected)
        },
    )
    .unwrap();
    std::thread::sleep(Duration::from_millis(50));
    let load = load.stop();
    assert!(load.ok > 0, "load made progress");
    assert_eq!(load.failed, 0, "nudge faults must not fail a request");
    assert_eq!(load.regressions, 0, "no client-visible version regression");
    assert!(
        plan.injected() >= target - 1,
        "every publish's nudge must have met the fault"
    );
    let (text, woke) = (router.obs().render(), router.sync_stats().nudges_woke.get());
    assert_eq!(router.sync_stats().nudges_fenced.get(), 0);

    router.shutdown();
    for node in nodes {
        node.server.shutdown();
    }
    (text, woke)
}

#[test]
fn dropped_publish_nudges_fall_back_to_the_tick() {
    let (text, woke) = converge_with_nudge_fault(0xD209, FaultAction::Drop);
    assert_eq!(woke, 0, "every nudge was dropped before it could wake");
    assert!(
        text.contains("router_sync_nudges_total{outcome=\"woke\"} 0\n"),
        "{text}"
    );
}

#[test]
fn delayed_publish_nudges_still_converge() {
    let (text, woke) =
        converge_with_nudge_fault(0xDE1A, FaultAction::Delay(Duration::from_millis(40)));
    assert!(woke >= 1, "a late nudge still wakes the loop");
    assert!(
        text.contains("router_sync_nudges_total{outcome=\"fenced\"} 0\n"),
        "{text}"
    );
}
