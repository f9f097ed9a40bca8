//! `ncl-online-bench` — measures the online loop end to end and emits
//! `BENCH_online.json`.
//!
//! ```sh
//! ncl-online-bench [--events N] [--workers N] [--cl-epochs N]
//!                  [--quick] [--out BENCH_online.json]
//! ```
//!
//! The run is the real daemon lifecycle, not a synthetic microbenchmark:
//! bootstrap (pre-train + seed the latent store), serve over TCP, ingest
//! a generated stream with a mid-stream novel-class arrival, train the
//! increment, hot-swap — all while two background TCP clients hammer
//! predictions. Reported:
//!
//! * **ingest throughput** — stream events applied per second (capture +
//!   bookkeeping + the amortized increment);
//! * **increment wall time** — the background Replay4NCL update
//!   (training replay ∪ pending on the arena pool);
//! * **stall-free swap latency** — the registry pointer exchange under
//!   live prediction load, with the load's failure count (must be 0:
//!   a swap never drops an in-flight or subsequent request);
//! * **checkpoint cost** — encode/decode wall time, size, and the
//!   canonical-form round-trip check.
//!
//! The report uses the shared [`ncl_serve::bench`] format (kind `online`,
//! headline `warm_events_per_sec`); the binary exits 1 if any gate failed
//! — a benchmark of a broken loop is meaningless.

use std::sync::atomic::{AtomicBool, AtomicU64, Ordering};
use std::sync::Arc;
use std::time::Instant;

use ncl_online::checkpoint::Checkpoint;
use ncl_online::daemon::{IngestOutcome, OnlineConfig, OnlineLearner};
use ncl_online::stream::{SampleStream, StreamConfig};
use ncl_serve::bench::{self, Op, Report};
use ncl_serve::client::NclClient;
use ncl_serve::protocol::{self, object};
use ncl_serve::server::{Server, ServerConfig};
use serde_json::Value;

struct Args {
    events: usize,
    workers: usize,
    cl_epochs: usize,
    out: String,
}

fn usage(problem: &str) -> ! {
    eprintln!("ncl-online-bench: {problem}");
    eprintln!("usage: ncl-online-bench [--events N] [--workers N] [--cl-epochs N] [--quick] [--out file.json]");
    std::process::exit(2);
}

fn parse_args() -> Args {
    let mut events: Option<usize> = None;
    let mut cl_epochs: Option<usize> = None;
    let mut workers = 2usize;
    let mut quick = false;
    let mut out: Option<String> = None;
    let mut iter = std::env::args().skip(1);
    while let Some(arg) = iter.next() {
        let mut value = |what: &str| {
            iter.next()
                .unwrap_or_else(|| usage(&format!("{what} needs a value")))
        };
        match arg.as_str() {
            "--events" => {
                events = Some(
                    value("--events")
                        .parse()
                        .unwrap_or_else(|_| usage("--events must be a positive integer")),
                );
            }
            "--workers" => {
                workers = value("--workers")
                    .parse()
                    .unwrap_or_else(|_| usage("--workers must be a positive integer"));
            }
            "--cl-epochs" => {
                cl_epochs = Some(
                    value("--cl-epochs")
                        .parse()
                        .unwrap_or_else(|_| usage("--cl-epochs must be a positive integer")),
                );
            }
            "--quick" => quick = true,
            "--out" => out = Some(value("--out")),
            other => usage(&format!("unknown flag {other}")),
        }
    }
    let (default_events, default_epochs) = if quick { (60, 4) } else { (150, 8) };
    let args = Args {
        events: events.unwrap_or(default_events),
        workers: workers.max(1),
        cl_epochs: cl_epochs.unwrap_or(default_epochs),
        out: out.unwrap_or_else(|| "BENCH_online.json".to_owned()),
    };
    if args.events < 10 {
        usage("--events must be at least 10 (the stream needs a warm phase)");
    }
    args
}

fn main() {
    let args = parse_args();

    let mut config = OnlineConfig::smoke();
    config.scenario.parallelism = args.workers;
    config.scenario.cl_epochs = args.cl_epochs;
    let ckpt_dir = std::env::temp_dir().join("ncl-online-bench");
    std::fs::create_dir_all(&ckpt_dir).expect("temp dir");
    config.checkpoint_path = Some(ckpt_dir.join("bench.ckpt"));

    let stream_config = StreamConfig {
        scenario: config.scenario.clone(),
        warmup_events: args.events / 3,
        total_events: args.events,
        novel_every: 3,
        seed: 0xBE_4C4,
    };
    let stream = SampleStream::generate(&stream_config).expect("stream generates");

    // --- bootstrap -------------------------------------------------------
    let boot_started = Instant::now();
    let mut learner = OnlineLearner::bootstrap(config.clone()).expect("bootstrap");
    let bootstrap_ms = boot_started.elapsed().as_secs_f64() * 1e3;
    println!(
        "bootstrap: {:.0} ms (pretrain acc {:.1}%, {} latent entries)",
        bootstrap_ms,
        learner.pretrain_acc() * 100.0,
        learner.buffer().len()
    );

    // --- serve + background prediction load ------------------------------
    let server = Server::start(learner.registry(), ServerConfig::default()).expect("server");
    let addr = server.local_addr();
    let stop = Arc::new(AtomicBool::new(false));
    let ok = Arc::new(AtomicU64::new(0));
    let failed = Arc::new(AtomicU64::new(0));
    let probe = stream.events()[0].raster.clone();
    let mut clients = Vec::new();
    for _ in 0..2 {
        let stop = Arc::clone(&stop);
        let ok = Arc::clone(&ok);
        let failed = Arc::clone(&failed);
        let probe = probe.clone();
        clients.push(std::thread::spawn(move || {
            let Ok(mut client) = NclClient::connect(addr) else {
                failed.fetch_add(1, Ordering::Relaxed);
                return;
            };
            let mut id = 0u64;
            while !stop.load(Ordering::Relaxed) {
                match client.round_trip(&protocol::predict_request_line(id, &probe)) {
                    Ok(reply) if reply.get("ok").and_then(Value::as_bool) == Some(true) => {
                        ok.fetch_add(1, Ordering::Relaxed);
                    }
                    _ => {
                        failed.fetch_add(1, Ordering::Relaxed);
                    }
                }
                id += 1;
            }
        }));
    }

    // --- ingest the stream -----------------------------------------------
    // The warm phase (known-class traffic only) isolates the steady-state
    // per-event cost; the total includes the increment's training and the
    // fsync'd checkpoint write, which dominate wall time.
    let ingest_started = Instant::now();
    let mut warm_wall = None;
    let mut increments: Vec<(u64, f64, u64, f64)> = Vec::new(); // version, train ms, swap µs, ckpt ms
    for event in stream.events() {
        if event.seq == stream_config.warmup_events as u64 {
            warm_wall = Some(ingest_started.elapsed());
        }
        if let IngestOutcome::Increment(report) = learner.ingest(event).expect("ingest") {
            println!(
                "increment v{}: {} samples, train {:.0} ms, swap {} µs",
                report.version,
                report.train_samples,
                report.train_wall.as_secs_f64() * 1e3,
                report.swap_latency.as_micros()
            );
            increments.push((
                report.version,
                report.train_wall.as_secs_f64() * 1e3,
                report.swap_latency.as_micros() as u64,
                report.checkpoint_wall.as_secs_f64() * 1e3,
            ));
        }
    }
    let ingest_wall = ingest_started.elapsed();
    let events_per_sec = stream.len() as f64 / ingest_wall.as_secs_f64().max(1e-9);
    let warm_events_per_sec = warm_wall.map_or(events_per_sec, |w| {
        stream_config.warmup_events as f64 / w.as_secs_f64().max(1e-9)
    });

    // --- checkpoint round trip -------------------------------------------
    let encode_started = Instant::now();
    let ckpt_bytes = learner.checkpoint_bytes();
    let encode_ms = encode_started.elapsed().as_secs_f64() * 1e3;
    let decode_started = Instant::now();
    let restored = Checkpoint::from_bytes(&ckpt_bytes).expect("checkpoint decodes");
    let decode_ms = decode_started.elapsed().as_secs_f64() * 1e3;
    let round_trip_ok = restored.to_bytes() == ckpt_bytes
        && restored.network == *learner.network()
        && restored.buffer == *learner.buffer();

    // --- drain the load and collect serving counters ----------------------
    // Let the load run a beat against the swapped-in model, so the counter
    // covers traffic before, during and after the swap.
    std::thread::sleep(std::time::Duration::from_millis(200));
    stop.store(true, Ordering::Relaxed);
    for handle in clients {
        let _ = handle.join();
    }
    let requests_ok = ok.load(Ordering::Relaxed);
    let requests_failed = failed.load(Ordering::Relaxed);
    server.shutdown();

    let swap_latency_us_max = increments.iter().map(|&(_, _, s, _)| s).max().unwrap_or(0);
    let results = object(vec![
        (
            "ingest",
            object(vec![
                ("events", Value::from(stream.len())),
                ("wall_ms", Value::from(ingest_wall.as_secs_f64() * 1e3)),
                ("events_per_sec", Value::from(events_per_sec)),
                ("warm_events_per_sec", Value::from(warm_events_per_sec)),
            ]),
        ),
        (
            "increments",
            increments
                .iter()
                .map(|&(version, train_ms, swap_us, ckpt_ms)| {
                    object(vec![
                        ("version", Value::from(version)),
                        ("train_wall_ms", Value::from(train_ms)),
                        ("swap_latency_us", Value::from(swap_us)),
                        ("checkpoint_wall_ms", Value::from(ckpt_ms)),
                    ])
                })
                .collect::<Value>(),
        ),
        (
            "swap",
            object(vec![
                ("latency_us_max", Value::from(swap_latency_us_max)),
                ("predictions_ok_during_run", Value::from(requests_ok)),
                ("predictions_failed", Value::from(requests_failed)),
                ("stall_free", Value::from(requests_failed == 0)),
            ]),
        ),
        (
            "checkpoint",
            object(vec![
                ("bytes", Value::from(ckpt_bytes.len())),
                ("encode_ms", Value::from(encode_ms)),
                ("decode_ms", Value::from(decode_ms)),
                ("round_trip_ok", Value::from(round_trip_ok)),
            ]),
        ),
        ("bootstrap_ms", Value::from(bootstrap_ms)),
        ("final_version", Value::from(learner.version())),
        (
            "event_digest",
            Value::from(format!("{:016x}", learner.event_digest())),
        ),
        (
            "buffer_bits",
            Value::from(learner.buffer().footprint().total_bits),
        ),
    ]);
    let mut report = Report::new(
        "online",
        object(vec![
            ("scenario", Value::from("smoke 48ch x 40 steps, 4 classes")),
            ("events", Value::from(stream.len())),
            ("warmup_events", Value::from(stream_config.warmup_events)),
            ("novel_every", Value::from(stream_config.novel_every)),
            ("workers", Value::from(args.workers)),
            ("cl_epochs", Value::from(args.cl_epochs)),
            ("arrival_threshold", Value::from(config.arrival_threshold)),
            ("capture_every", Value::from(config.capture_every)),
            (
                "capacity_bits",
                Value::from(config.capacity_bits.unwrap_or(0)),
            ),
        ]),
    );
    report.headline("warm_events_per_sec", warm_events_per_sec);
    report.gate("events_per_sec", events_per_sec, Op::Gt, 0.0);
    report.gate("warm_events_per_sec", warm_events_per_sec, Op::Gt, 0.0);
    report.gate("increments", increments.len() as f64, Op::Ge, 1.0);
    let train_ms = increments.iter().map(|&(_, ms, _, _)| ms);
    report.gate("train_wall_ms_min", bench::min(train_ms), Op::Gt, 0.0);
    report.gate("predictions_failed", requests_failed as f64, Op::Eq, 0.0);
    report.check("checkpoint_round_trip", round_trip_ok);
    report.gate("final_version", learner.version() as f64, Op::Ge, 2.0);
    report.finish(results, &args.out);
}
