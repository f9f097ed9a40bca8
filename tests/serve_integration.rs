//! End-to-end serving integration: a live `ncl_serve::Server` on an
//! ephemeral localhost port, driven over real TCP — sustained
//! multi-connection load, a checkpoint hot swap mid-stream (the
//! acceptance bar: zero failed requests across the swap), protocol
//! error handling, and clean shutdown.

use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::Arc;
use std::time::Duration;

use ncl_serve::batcher::BatchConfig;
use ncl_serve::client::NclClient;
use ncl_serve::protocol;
use ncl_serve::registry::ModelRegistry;
use ncl_serve::server::{Server, ServerConfig};
use ncl_snn::{serialize, Network, NetworkConfig};
use ncl_spike::SpikeRaster;
use serde_json::Value;

const INPUTS: usize = 16;
const CLASSES: usize = 4;

fn serving_net(seed: u64) -> Network {
    let mut config = NetworkConfig::tiny(INPUTS, CLASSES);
    config.seed = seed;
    Network::new(config).unwrap()
}

fn start_server() -> Server {
    let registry = Arc::new(ModelRegistry::new(serving_net(1), "initial"));
    Server::start(
        registry,
        ServerConfig {
            port: 0,
            batch: BatchConfig {
                batch_size: 4,
                max_wait: Duration::from_micros(300),
                workers: 2,
            },
        },
    )
    .expect("bind ephemeral port")
}

fn raster(seed: usize) -> SpikeRaster {
    SpikeRaster::from_fn(INPUTS, 12, |n, t| (n * 5 + t * 3 + seed).is_multiple_of(4))
}

#[test]
fn hot_swap_under_sustained_load_drops_nothing() {
    let server = start_server();
    let addr = server.local_addr();

    // Write the replacement checkpoint the swap op will load.
    let swap_dir = std::env::temp_dir().join("ncl-serve-integration");
    std::fs::create_dir_all(&swap_dir).unwrap();
    let ckpt = swap_dir.join("increment.bin");
    serialize::to_file(&serving_net(2), &ckpt).unwrap();

    let stop = AtomicBool::new(false);
    let totals = std::thread::scope(|scope| {
        // 3 sustained client connections hammering predicts.
        let workers: Vec<_> = (0..3)
            .map(|w| {
                let stop = &stop;
                scope.spawn(move || {
                    let mut client = NclClient::connect(addr).expect("connect");
                    let mut ok = 0u64;
                    let mut failed = 0u64;
                    let mut versions = std::collections::BTreeSet::new();
                    let mut id = 0u64;
                    while !stop.load(Ordering::Relaxed) {
                        let line =
                            protocol::predict_request_line(id, &raster(w * 1000 + id as usize));
                        let reply = client.round_trip(&line).unwrap();
                        if reply.get("ok").and_then(Value::as_bool) == Some(true)
                            && reply.get("id").and_then(Value::as_u64) == Some(id)
                        {
                            ok += 1;
                            if let Some(v) = reply.get("model_version").and_then(Value::as_u64) {
                                versions.insert(v);
                            }
                        } else {
                            failed += 1;
                        }
                        id += 1;
                    }
                    (ok, failed, versions)
                })
            })
            .collect();

        // Let load build up, swap mid-stream, let load continue, stop.
        std::thread::sleep(Duration::from_millis(150));
        let mut control = NclClient::connect(addr).expect("connect");
        let swap_line = protocol::object(vec![
            ("op", Value::from("swap")),
            ("path", Value::from(ckpt.display().to_string())),
        ])
        .to_json();
        let swap_reply = control.round_trip(&swap_line).unwrap();
        assert_eq!(
            swap_reply.get("ok").and_then(Value::as_bool),
            Some(true),
            "swap failed: {swap_reply:?}"
        );
        assert_eq!(
            swap_reply.get("model_version").and_then(Value::as_u64),
            Some(2)
        );
        std::thread::sleep(Duration::from_millis(150));
        stop.store(true, Ordering::Relaxed);

        workers
            .into_iter()
            .map(|h| h.join().expect("client thread"))
            .collect::<Vec<_>>()
    });

    let mut all_versions = std::collections::BTreeSet::new();
    let mut total_ok = 0;
    for (ok, failed, versions) in totals {
        assert_eq!(failed, 0, "a request failed during the hot swap");
        assert!(ok > 0, "every connection made progress");
        total_ok += ok;
        all_versions.extend(versions);
    }
    assert!(
        all_versions.contains(&1) && all_versions.contains(&2),
        "load must span the swap (saw versions {all_versions:?})"
    );

    // Server-side accounting agrees: everything served, nothing failed.
    let mut control = NclClient::connect(addr).expect("connect");
    let stats = control.stats().unwrap();
    let serving = stats.get("serving").expect("serving block");
    assert_eq!(
        serving.get("requests_ok").and_then(Value::as_u64),
        Some(total_ok)
    );
    assert_eq!(
        serving.get("requests_failed").and_then(Value::as_u64),
        Some(0)
    );
    assert_eq!(serving.get("swaps").and_then(Value::as_u64), Some(1));
    let latency = serving.get("latency_us").expect("latency block");
    assert!(latency.get("p50").and_then(Value::as_u64).unwrap() > 0);
    assert!(
        latency.get("p99").and_then(Value::as_u64).unwrap()
            >= latency.get("p50").and_then(Value::as_u64).unwrap()
    );

    std::fs::remove_file(&ckpt).ok();
    server.shutdown();
}

#[test]
fn incompatible_swap_is_rejected_and_serving_continues() {
    let server = start_server();
    let addr = server.local_addr();

    let swap_dir = std::env::temp_dir().join("ncl-serve-integration");
    std::fs::create_dir_all(&swap_dir).unwrap();
    let bad_ckpt = swap_dir.join("wrong-shape.bin");
    serialize::to_file(
        &Network::new(NetworkConfig::tiny(INPUTS + 1, CLASSES)).unwrap(),
        &bad_ckpt,
    )
    .unwrap();

    let mut client = NclClient::connect(addr).expect("connect");
    let swap_line = protocol::object(vec![
        ("op", Value::from("swap")),
        ("path", Value::from(bad_ckpt.display().to_string())),
    ])
    .to_json();
    let reply = client.round_trip(&swap_line).unwrap();
    assert_eq!(reply.get("ok").and_then(Value::as_bool), Some(false));
    assert!(reply
        .get("error")
        .and_then(Value::as_str)
        .unwrap()
        .contains("incompatible"));

    // A missing checkpoint also fails softly.
    let gone = protocol::object(vec![
        ("op", Value::from("swap")),
        ("path", Value::from("does/not/exist.bin")),
    ])
    .to_json();
    assert_eq!(
        client
            .round_trip(&gone)
            .unwrap()
            .get("ok")
            .and_then(Value::as_bool),
        Some(false)
    );

    // Still version 1, still serving correctly on the same connection.
    let input = raster(3);
    let reply = client
        .round_trip(&protocol::predict_request_line(77, &input))
        .unwrap();
    assert_eq!(reply.get("ok").and_then(Value::as_bool), Some(true));
    assert_eq!(reply.get("model_version").and_then(Value::as_u64), Some(1));
    let logits = server.registry().current().network.forward(&input).unwrap();
    let direct = ncl_tensor::ops::argmax(&logits).unwrap();
    assert_eq!(
        reply.get("prediction").and_then(Value::as_u64),
        Some(direct as u64)
    );

    std::fs::remove_file(&bad_ckpt).ok();
    server.shutdown();
}

#[test]
fn predictions_over_tcp_match_in_process_inference() {
    let server = start_server();
    let addr = server.local_addr();
    let mut client = NclClient::connect(addr).expect("connect");
    let snapshot = server.registry().current();
    for i in 0..10 {
        let input = raster(i);
        let reply = client
            .round_trip(&protocol::predict_request_line(i as u64, &input))
            .unwrap();
        let logits: Vec<f32> = reply
            .get("logits")
            .and_then(Value::as_array)
            .unwrap()
            .iter()
            .map(|v| v.as_f64().unwrap() as f32)
            .collect();
        let direct = snapshot.network.forward(&input).unwrap();
        // JSON numbers travel as f64; f32 logits survive exactly.
        assert_eq!(logits, direct, "request {i}");
    }
    server.shutdown();
}

#[test]
fn malformed_lines_answer_errors_and_shutdown_op_stops() {
    let server = start_server();
    let addr = server.local_addr();
    let mut client = NclClient::connect(addr).expect("connect");
    for bad in [
        "garbage",
        r#"{"op":"predict","input":[[99]]}"#,
        r#"{"op":"nope"}"#,
    ] {
        let reply = client.round_trip(bad).unwrap();
        assert_eq!(
            reply.get("ok").and_then(Value::as_bool),
            Some(false),
            "{bad} must answer an error"
        );
    }
    let bye = client.shutdown().unwrap();
    assert_eq!(bye.get("ok").and_then(Value::as_bool), Some(true));
    server.wait();
}
