//! Membership churn under live dispatch: two replicas repeatedly join
//! and leave a running fleet while client load flows through the
//! router. The invariants under test:
//!
//! * the router never routes a request to a backend after its `leave`
//!   settles (its per-backend counters freeze while load continues);
//! * ids are never reused — every join draws a fresh monotonic id, and
//!   retrying a `join` for an address that is already a member returns
//!   the existing id instead of double-registering it;
//! * the churn itself never fails a client request.

use std::collections::HashSet;
use std::sync::Arc;
use std::time::Duration;

use ncl_router::backend::Backend;
use ncl_router::router::{Router, RouterConfig};
use ncl_router::testkit::{make_server, Load};
use ncl_serve::client::NclClient;
use ncl_serve::server::Server;
use ncl_spike::SpikeRaster;
use serde_json::Value;

#[test]
fn churn_never_routes_to_removed_backends_and_never_reuses_ids() {
    const ROUNDS: usize = 4;

    let anchor = make_server().unwrap();
    let churn: Vec<Server> = (0..2).map(|_| make_server().unwrap()).collect();

    let router = Router::start(
        vec![Arc::new(Backend::new(0, anchor.local_addr()))],
        RouterConfig {
            sync_interval: Duration::from_millis(20),
            ..RouterConfig::default()
        },
    )
    .unwrap();
    let addr = router.local_addr();

    let raster = SpikeRaster::from_fn(6, 8, |n, t| (n + t) % 3 == 0);
    let load = Load::start(addr, &raster, 2);

    let mut all_ids: Vec<u64> = vec![0];
    std::thread::scope(|scope| {
        let router = &router;
        let churners: Vec<_> = churn
            .iter()
            .map(|server| {
                let target = server.local_addr().to_string();
                scope.spawn(move || -> Vec<u64> {
                    let mut client = NclClient::connect(addr).unwrap();
                    let mut mine = Vec::new();
                    for _ in 0..ROUNDS {
                        let joined = client.join(&target).unwrap();
                        assert_eq!(joined.get("ok").and_then(Value::as_bool), Some(true));
                        assert_eq!(
                            joined.get("already_member").and_then(Value::as_bool),
                            Some(false),
                            "the address left the fleet, so this join must be fresh"
                        );
                        let id = joined.get("id").and_then(Value::as_u64).expect("join id");
                        mine.push(id);

                        // Retrying the join (a client that timed out
                        // and cannot tell) must not double-register.
                        let dup = client.join(&target).unwrap();
                        assert_eq!(dup.get("id").and_then(Value::as_u64), Some(id));
                        assert_eq!(
                            dup.get("already_member").and_then(Value::as_bool),
                            Some(true)
                        );

                        // Serve for a bit, then leave and verify the
                        // router stops routing here: the backend's own
                        // success counter freezes while load continues.
                        std::thread::sleep(Duration::from_millis(30));
                        let handle = router
                            .backends()
                            .into_iter()
                            .find(|b| b.id == id as usize)
                            .expect("joined backend is in the fleet");
                        let left = client.leave(id).unwrap();
                        assert_eq!(left.get("ok").and_then(Value::as_bool), Some(true));
                        std::thread::sleep(Duration::from_millis(40));
                        let frozen = handle.ok_count();
                        std::thread::sleep(Duration::from_millis(60));
                        assert_eq!(
                            handle.ok_count(),
                            frozen,
                            "the router must never route to a removed backend"
                        );
                    }
                    mine
                })
            })
            .collect();
        for churner in churners {
            all_ids.extend(churner.join().unwrap());
        }
    });

    let load = load.stop();
    assert!(load.ok > 0, "load made progress");
    assert_eq!(
        load.failed, 0,
        "membership churn must not fail a single request"
    );
    let unique: HashSet<u64> = all_ids.iter().copied().collect();
    assert_eq!(
        unique.len(),
        all_ids.len(),
        "ids must never be reused across joins: {all_ids:?}"
    );

    // The fleet is back to the anchor alone, and the router counted
    // every membership change.
    let mut control = NclClient::connect(addr).unwrap();
    let members = control.members().unwrap();
    let rows = members
        .get("members")
        .and_then(Value::as_array)
        .expect("members table");
    assert_eq!(rows.len(), 1, "only the anchor remains");
    let stats = control.stats().unwrap();
    let serving = stats.get("serving").expect("serving block");
    assert_eq!(
        serving.get("requests_failed").and_then(Value::as_u64),
        Some(0)
    );
    assert_eq!(
        serving.get("joins").and_then(Value::as_u64),
        Some(2 * ROUNDS as u64)
    );
    assert_eq!(
        serving.get("leaves").and_then(Value::as_u64),
        Some(2 * ROUNDS as u64)
    );

    router.shutdown();
    anchor.shutdown();
    for server in churn {
        server.shutdown();
    }
}
