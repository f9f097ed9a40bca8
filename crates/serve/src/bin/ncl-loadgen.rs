//! `ncl-loadgen` — load generator + latency recorder for `ncl-serve`.
//!
//! ```sh
//! ncl-loadgen [--addr 127.0.0.1:7878] [--connections N] [--duration-ms N]
//!             [--steps N] [--density F] [--seed N] [--timeout-ms N]
//!             [--swap-model ckpt.bin] [--swap-at-ms N] [--trace]
//!             [--out BENCH_serve.json]
//! ```
//!
//! Opens `--connections` concurrent client connections, fires predict
//! requests back-to-back for `--duration-ms`, and measures end-to-end
//! latency per request client-side. With `--swap-model`, a control
//! connection triggers a hot swap mid-run (`--swap-at-ms`, default
//! half-way). Results (p50/p95/p99 µs, requests/s, per-version request
//! counts, server-side stats) and their gates are written to `--out` in
//! the shared [`ncl_serve::bench`] report format (kind `serve`, headline
//! `requests_per_sec`); the process exits 1 if any gate failed.
//!
//! With `--trace`, every predict request originates a distributed
//! trace context (ids minted deterministically from `--seed` and the
//! connection index), so the fleet's tail sampler captures slow
//! requests end-to-end; fetch them afterwards with `ncl-trace`.

use std::collections::BTreeMap;
use std::sync::Arc;
use std::time::{Duration, Instant};

use ncl_serve::bench::{percentile, Op, Report};
use ncl_serve::client::{ClientConfig, NclClient};
use ncl_serve::protocol;
use ncl_spike::SpikeRaster;
use ncl_tensor::Rng;
use serde_json::Value;

fn usage(problem: &str) -> ! {
    eprintln!("ncl-loadgen: {problem}");
    eprintln!(
        "usage: ncl-loadgen [--addr host:port] [--connections N] [--duration-ms N] \
         [--steps N] [--density F] [--seed N] [--timeout-ms N] \
         [--swap-model ckpt.bin] [--swap-at-ms N] [--trace] [--out file.json]"
    );
    std::process::exit(2);
}

#[derive(Clone)]
struct Args {
    addr: String,
    connections: usize,
    duration: Duration,
    steps: usize,
    density: f64,
    seed: u64,
    timeout: Option<Duration>,
    swap_model: Option<String>,
    swap_at: Option<Duration>,
    trace: bool,
    out: String,
}

impl Args {
    /// The socket timeout policy every connection uses (unbounded
    /// blocking when `--timeout-ms` is absent).
    fn client_config(&self) -> ClientConfig {
        match self.timeout {
            Some(t) => ClientConfig::with_timeout(t),
            None => ClientConfig::default(),
        }
    }
}

fn parse_args() -> Args {
    let mut args = Args {
        addr: "127.0.0.1:7878".to_owned(),
        connections: 4,
        duration: Duration::from_millis(2000),
        steps: 20,
        density: 0.15,
        seed: 1,
        timeout: None,
        swap_model: None,
        swap_at: None,
        trace: false,
        out: "BENCH_serve.json".to_owned(),
    };
    let mut iter = std::env::args().skip(1);
    while let Some(arg) = iter.next() {
        let mut value = |what: &str| {
            iter.next()
                .unwrap_or_else(|| usage(&format!("{what} needs a value")))
        };
        match arg.as_str() {
            "--addr" => args.addr = value("--addr"),
            "--connections" => {
                args.connections = value("--connections")
                    .parse()
                    .unwrap_or_else(|_| usage("--connections must be a positive integer"));
            }
            "--duration-ms" => {
                let ms: u64 = value("--duration-ms")
                    .parse()
                    .unwrap_or_else(|_| usage("--duration-ms must be a u64"));
                args.duration = Duration::from_millis(ms);
            }
            "--steps" => {
                args.steps = value("--steps")
                    .parse()
                    .unwrap_or_else(|_| usage("--steps must be a positive integer"));
            }
            "--density" => {
                args.density = value("--density")
                    .parse()
                    .unwrap_or_else(|_| usage("--density must be a float"));
            }
            "--seed" => {
                args.seed = value("--seed")
                    .parse()
                    .unwrap_or_else(|_| usage("--seed must be a u64"));
            }
            "--timeout-ms" => {
                let ms: u64 = value("--timeout-ms")
                    .parse()
                    .unwrap_or_else(|_| usage("--timeout-ms must be a u64"));
                args.timeout = Some(Duration::from_millis(ms));
            }
            "--swap-model" => args.swap_model = Some(value("--swap-model")),
            "--swap-at-ms" => {
                let ms: u64 = value("--swap-at-ms")
                    .parse()
                    .unwrap_or_else(|_| usage("--swap-at-ms must be a u64"));
                args.swap_at = Some(Duration::from_millis(ms));
            }
            "--trace" => args.trace = true,
            "--out" => args.out = value("--out"),
            other => usage(&format!("unknown flag {other:?}")),
        }
    }
    if args.connections == 0 || args.steps == 0 {
        usage("--connections and --steps must be at least 1");
    }
    args
}

/// Per-client-thread tally.
#[derive(Default)]
struct ClientResult {
    latencies_us: Vec<u64>,
    ok: u64,
    failed: u64,
    by_version: BTreeMap<u64, u64>,
}

fn client_loop(
    addr: &str,
    input_size: usize,
    args: &Args,
    conn_index: usize,
    deadline: Instant,
) -> ClientResult {
    let mut result = ClientResult::default();
    let Ok(mut conn) = NclClient::connect_with(addr, args.client_config()) else {
        result.failed += 1;
        return result;
    };
    let mut rng = Rng::seed_from_u64(args.seed ^ (conn_index as u64).wrapping_mul(0x9E37));
    // Trace origination: ids are minted from a deterministic seed per
    // connection, so a re-run with the same flags names the same traces.
    let tracer = args.trace.then(|| {
        ncl_obs::Tracer::new(
            args.seed ^ (conn_index as u64).wrapping_mul(0xA5A5),
            ncl_obs::TraceConfig::default(),
            Instant::now(),
        )
    });
    let mut id = 0u64;
    while Instant::now() < deadline {
        let raster =
            SpikeRaster::from_fn(input_size, args.steps, |_, _| rng.bernoulli(args.density));
        let line = match &tracer {
            Some(tracer) => protocol::predict_request_line_traced(id, &raster, &tracer.new_trace()),
            None => protocol::predict_request_line(id, &raster),
        };
        let sent = Instant::now();
        match conn.round_trip(&line) {
            Ok(reply) => {
                let ok = reply.get("ok").and_then(Value::as_bool) == Some(true)
                    && reply.get("id").and_then(Value::as_u64) == Some(id)
                    && reply.get("prediction").is_some();
                if ok {
                    result.ok += 1;
                    result.latencies_us.push(sent.elapsed().as_micros() as u64);
                    if let Some(v) = reply.get("model_version").and_then(Value::as_u64) {
                        *result.by_version.entry(v).or_insert(0) += 1;
                    }
                } else {
                    result.failed += 1;
                }
            }
            Err(_) => {
                result.failed += 1;
                // The connection is unusable after an I/O failure.
                match NclClient::connect_with(addr, args.client_config()) {
                    Ok(fresh) => conn = fresh,
                    Err(_) => break,
                }
            }
        }
        id += 1;
    }
    result
}

fn main() {
    let args = parse_args();

    // Learn the serving contract from the stats endpoint.
    let mut control =
        NclClient::connect_with(&args.addr, args.client_config()).unwrap_or_else(|e| {
            eprintln!("ncl-loadgen: cannot connect to {}: {e}", args.addr);
            std::process::exit(1);
        });
    let stats = control.stats().unwrap_or_else(|e| {
        eprintln!("ncl-loadgen: stats probe failed: {e}");
        std::process::exit(1);
    });
    let model = stats.get("model").unwrap_or(&Value::Null);
    let input_size = model
        .get("input_size")
        .and_then(Value::as_u64)
        .unwrap_or_else(|| {
            eprintln!("ncl-loadgen: stats response lacks model.input_size");
            std::process::exit(1);
        }) as usize;
    let start_version = model.get("version").and_then(Value::as_u64).unwrap_or(0);

    let started = Instant::now();
    let deadline = started + args.duration;
    let args_shared = Arc::new(args.clone());

    // Optional hot swap mid-run on a dedicated connection.
    let swap_args = Arc::clone(&args_shared);
    let swap_thread = args_shared.swap_model.clone().map(|path| {
        std::thread::spawn(move || -> (bool, u64, String) {
            let at = swap_args.swap_at.unwrap_or(swap_args.duration / 2);
            std::thread::sleep(at);
            match NclClient::connect_with(&swap_args.addr, swap_args.client_config())
                .and_then(|mut c| c.swap(&path))
            {
                Ok(reply) => {
                    let ok = reply.get("ok").and_then(Value::as_bool) == Some(true);
                    let version = reply
                        .get("model_version")
                        .and_then(Value::as_u64)
                        .unwrap_or(0);
                    let detail = reply
                        .get("error")
                        .and_then(Value::as_str)
                        .unwrap_or("")
                        .to_owned();
                    (ok, version, detail)
                }
                Err(e) => (false, 0, e.to_string()),
            }
        })
    });

    let results: Vec<ClientResult> = std::thread::scope(|scope| {
        let handles: Vec<_> = (0..args_shared.connections)
            .map(|conn_index| {
                let args = Arc::clone(&args_shared);
                scope
                    .spawn(move || client_loop(&args.addr, input_size, &args, conn_index, deadline))
            })
            .collect();
        handles
            .into_iter()
            .map(|h| h.join().expect("client thread panicked"))
            .collect()
    });
    let elapsed = started.elapsed();

    let swap_outcome = swap_thread.map(|h| h.join().expect("swap thread panicked"));

    // Aggregate.
    let mut latencies: Vec<u64> = Vec::new();
    let mut ok = 0u64;
    let mut failed = 0u64;
    let mut by_version: BTreeMap<u64, u64> = BTreeMap::new();
    for r in results {
        latencies.extend(r.latencies_us);
        ok += r.ok;
        failed += r.failed;
        for (v, n) in r.by_version {
            *by_version.entry(v).or_insert(0) += n;
        }
    }
    latencies.sort_unstable();
    let p50 = percentile(&latencies, 0.50);
    let p95 = percentile(&latencies, 0.95);
    let p99 = percentile(&latencies, 0.99);
    let mean = if latencies.is_empty() {
        0.0
    } else {
        latencies.iter().sum::<u64>() as f64 / latencies.len() as f64
    };
    let rps = ok as f64 / elapsed.as_secs_f64();

    let final_stats = control.stats().unwrap_or(Value::Null);

    let latency_block = protocol::object(vec![
        ("p50", Value::from(p50)),
        ("p95", Value::from(p95)),
        ("p99", Value::from(p99)),
        ("mean", Value::from(mean)),
        ("max", Value::from(latencies.last().copied().unwrap_or(0))),
    ]);
    let versions_block = Value::Object(
        by_version
            .iter()
            .map(|(v, n)| (v.to_string(), Value::from(*n)))
            .collect(),
    );
    let hot_swap_block = match &swap_outcome {
        Some((swapped, version, detail)) => protocol::object(vec![
            ("requested", Value::from(true)),
            ("succeeded", Value::from(*swapped)),
            ("new_version", Value::from(*version)),
            ("detail", Value::from(detail.as_str())),
            ("start_version", Value::from(start_version)),
        ]),
        None => protocol::object(vec![("requested", Value::from(false))]),
    };
    let results = protocol::object(vec![
        ("duration_ms", Value::from(elapsed.as_millis() as u64)),
        ("requests_ok", Value::from(ok)),
        ("requests_failed", Value::from(failed)),
        ("requests_per_sec", Value::from(rps)),
        ("latency_us", latency_block),
        ("requests_by_model_version", versions_block),
        ("hot_swap", hot_swap_block),
        ("server_stats", final_stats),
    ]);

    println!(
        "ncl-loadgen: {ok} ok / {failed} failed over {:.2}s ({rps:.0} req/s)",
        elapsed.as_secs_f64()
    );
    println!("latency µs: p50={p50} p95={p95} p99={p99} mean={mean:.1}");

    let mut report = Report::new(
        "serve",
        protocol::object(vec![
            ("addr", Value::from(args_shared.addr.as_str())),
            ("connections", Value::from(args_shared.connections)),
            ("steps_per_request", Value::from(args_shared.steps)),
            ("traced", Value::from(args_shared.trace)),
        ]),
    );
    report.headline("requests_per_sec", rps);
    report.gate("requests_ok", ok as f64, Op::Gt, 0.0);
    report.gate("requests_failed", failed as f64, Op::Eq, 0.0);
    report.check("hot_swap_ok", !matches!(&swap_outcome, Some((false, _, _))));
    report.finish(results, &args_shared.out);
}
