//! The open-loop serving phase: predicts arrive on a fixed schedule over
//! two connections to an in-process `Server` (default `ServerConfig`:
//! batch 8, 500 µs max wait, 2 workers), first at the workload's nominal
//! rate, then in a geometric rate sweep that finds the highest rate the
//! server keeps up with. Every latency is timed from
//! the request's due time; every reply's logits are checked bit for bit
//! against an in-process `Network::forward` of the same raster.

use std::collections::VecDeque;
use std::io::{Read, Write};
use std::net::{SocketAddr, TcpStream};
use std::os::fd::AsRawFd;
use std::sync::Arc;
use std::time::{Duration, Instant};

use ncl_obs::trace::TraceFragment;
use ncl_obs::{TraceConfig, Tracer};
use ncl_serve::protocol;
use ncl_serve::{ModelRegistry, Server, ServerConfig};
use ncl_snn::Network;
use ncl_spike::SpikeRaster;
use ncl_tensor::Rng;
use replay4ncl::{phases, ScenarioConfig};
use serde_json::Value;

use crate::report::{Metric, Run};
use crate::stats::{self, Arrival};
use crate::trace::{LayerRow, Recorder};
use crate::workload::Workload;

/// Connections the load generator opens (one thread each).
const CONNECTIONS: usize = 2;
/// Geometric step of the rate sweep, and bisection rounds after it.
const SWEEP_RATIO: f64 = 1.5;
const BISECTIONS: usize = 3;
/// Most attempts at one swept rate.
const MAX_ATTEMPTS: usize = 4;

/// The requests: pre-rendered lines and the logits each must produce.
struct Requests {
    lines: Vec<String>,
    rasters: Vec<SpikeRaster>,
    expected: Vec<Vec<f32>>,
    /// Seeded order in which requests draw from `lines`.
    order: Vec<usize>,
}

/// What one open-loop phase (or one of its connections) saw; times are
/// µs since the phase's start.
#[derive(Default)]
struct Phase {
    arrivals: Vec<Arrival>,
    /// Trace id minted for each arrival (traced phases only).
    trace_ids: Vec<u128>,
    /// Stolen CPU time sampled through the phase.
    steal: Vec<(f64, f64)>,
    /// Output-check failures.
    wrong: Vec<String>,
}

fn us_since(start: Instant, t: Instant) -> f64 {
    t.saturating_duration_since(start).as_secs_f64() * 1e6
}

/// Checks one reply line against the request it answers.
fn check_reply(line: &str, idx: usize, expected: &[f32]) -> Result<(), String> {
    let v = serde_json::from_str(line).map_err(|e| format!("unparseable reply: {e}"))?;
    if v.get("ok").and_then(Value::as_bool) != Some(true) {
        return Err(format!("request {idx} failed: {line}"));
    }
    if v.get("id").and_then(Value::as_u64) != Some(idx as u64) {
        return Err(format!("reply out of order: wanted id {idx}"));
    }
    if v.get("model_version").and_then(Value::as_u64) != Some(1) {
        return Err("reply from an unexpected model version".into());
    }
    let logits = v
        .get("logits")
        .and_then(Value::as_array)
        .ok_or("reply without logits")?;
    let same = logits.len() == expected.len()
        && logits.iter().zip(expected).all(|(got, want)| {
            got.as_f64()
                .is_some_and(|g| (g as f32).to_bits() == want.to_bits())
        });
    if same {
        Ok(())
    } else {
        Err(format!(
            "request {idx}: served logits differ from Network::forward"
        ))
    }
}

/// Blocks until `stream` has bytes to read or `timeout` passes (`false`
/// on timeout). A socket read timeout would not do: the kernel rounds it
/// up to whole scheduler ticks, milliseconds of lateness per send.
fn wait_readable(stream: &TcpStream, timeout: Duration) -> bool {
    #[repr(C)]
    struct PollFd {
        fd: i32,
        events: i16,
        revents: i16,
    }
    #[repr(C)]
    struct TimeSpec {
        tv_sec: i64,
        tv_nsec: i64,
    }
    extern "C" {
        fn ppoll(fds: *mut PollFd, nfds: u64, timeout: *const TimeSpec, sigmask: *const u8) -> i32;
    }
    const POLLIN: i16 = 1;
    let mut fd = PollFd {
        fd: stream.as_raw_fd(),
        events: POLLIN,
        revents: 0,
    };
    let ts = TimeSpec {
        tv_sec: i64::try_from(timeout.as_secs()).unwrap_or(i64::MAX),
        tv_nsec: i64::from(timeout.subsec_nanos()),
    };
    // SAFETY: `fd` and `ts` are live locals laid out as the C `pollfd` and
    // `timespec` of 64-bit Linux for the whole call, `nfds` is 1, and a
    // null signal mask leaves the thread's mask unchanged.
    unsafe { ppoll(&mut fd, 1, &ts, std::ptr::null()) > 0 }
}

/// Drives one connection: sends requests `conn, conn + C, ...` at their
/// due times and reads replies in between, waiting for them until the
/// next due time.
fn drive_connection(
    addr: SocketAddr,
    reqs: &Requests,
    conn: usize,
    count: usize,
    rate: f64,
    start: Instant,
    tracer: Option<&Tracer>,
) -> Phase {
    let mut out = Phase::default();
    let due = |k: usize| start + Duration::from_secs_f64(k as f64 / rate);
    let mut stream = match TcpStream::connect(addr).and_then(|s| s.set_nodelay(true).map(|()| s)) {
        Ok(s) => s,
        Err(e) => {
            out.wrong.push(format!("connect failed: {e}"));
            for k in (conn..count).step_by(CONNECTIONS) {
                let d = us_since(start, due(k));
                out.arrivals.push(Arrival {
                    due_us: d,
                    sent_us: d,
                    done_us: None,
                });
            }
            return out;
        }
    };
    let drain_until = due(count) + Duration::from_secs(5);
    let mut pending: VecDeque<(usize, usize)> = VecDeque::new();
    let mut buf: Vec<u8> = Vec::with_capacity(1 << 16);
    let mut chunk = vec![0u8; 1 << 16];
    let mut k = conn;
    loop {
        let now = Instant::now();
        let wait = if k < count {
            let when = due(k);
            if now >= when {
                let idx = reqs.order[k % reqs.order.len()];
                let line = match tracer {
                    Some(t) => {
                        let ctx = t.new_trace();
                        out.trace_ids.push(ctx.trace_id);
                        let mut l = protocol::traced_line(reqs.lines[idx].trim_end(), &ctx);
                        l.push('\n');
                        std::borrow::Cow::Owned(l)
                    }
                    None => std::borrow::Cow::Borrowed(reqs.lines[idx].as_str()),
                };
                let sent = Instant::now();
                out.arrivals.push(Arrival {
                    due_us: us_since(start, when),
                    sent_us: us_since(start, sent),
                    done_us: None,
                });
                if let Err(e) = stream.write_all(line.as_bytes()) {
                    out.wrong.push(format!("send failed: {e}"));
                    break;
                }
                pending.push_back((out.arrivals.len() - 1, idx));
                k += CONNECTIONS;
                continue;
            }
            when - now
        } else if pending.is_empty() || now >= drain_until {
            break;
        } else {
            (drain_until - now).min(Duration::from_millis(50))
        };
        if wait < Duration::from_micros(20) {
            std::hint::spin_loop();
            continue;
        }
        if !wait_readable(&stream, wait) {
            continue;
        }
        match stream.read(&mut chunk) {
            Ok(0) => break,
            Ok(n) => {
                let done = us_since(start, Instant::now());
                buf.extend_from_slice(&chunk[..n]);
                while let Some(pos) = buf.iter().position(|&b| b == b'\n') {
                    let line: Vec<u8> = buf.drain(..=pos).collect();
                    let Some((a, idx)) = pending.pop_front() else {
                        out.wrong.push("reply without a request".into());
                        continue;
                    };
                    match check_reply(
                        String::from_utf8_lossy(&line).trim(),
                        idx,
                        &reqs.expected[idx],
                    ) {
                        Ok(()) => out.arrivals[a].done_us = Some(done),
                        Err(e) => out.wrong.push(e),
                    }
                }
            }
            Err(e)
                if matches!(
                    e.kind(),
                    std::io::ErrorKind::WouldBlock
                        | std::io::ErrorKind::TimedOut
                        | std::io::ErrorKind::Interrupted
                ) => {}
            Err(e) => {
                out.wrong.push(format!("read failed: {e}"));
                break;
            }
        }
    }
    // Requests never sent (a dead connection) still count as attempted.
    while k < count {
        let d = us_since(start, due(k));
        out.arrivals.push(Arrival {
            due_us: d,
            sent_us: d,
            done_us: None,
        });
        k += CONNECTIONS;
    }
    out
}

/// Runs one open-loop phase over [`CONNECTIONS`] connections, sampling
/// the CPU time the host steals every 50 ms meanwhile.
fn open_loop(
    addr: SocketAddr,
    reqs: &Requests,
    rate: f64,
    duration: Duration,
    tracer: Option<&Tracer>,
) -> Phase {
    let count = ((rate * duration.as_secs_f64()).round() as usize).max(CONNECTIONS);
    let start = Instant::now() + Duration::from_millis(5);
    let mut phase = Phase::default();
    let outcomes: Vec<Phase> = std::thread::scope(|s| {
        let handles: Vec<_> = (0..CONNECTIONS)
            .map(|c| s.spawn(move || drive_connection(addr, reqs, c, count, rate, start, tracer)))
            .collect();
        loop {
            let done = handles.iter().all(|h| h.is_finished());
            phase
                .steal
                .push((us_since(start, Instant::now()), crate::meta::stolen_s()));
            if done {
                break;
            }
            std::thread::sleep(Duration::from_millis(50));
        }
        handles
            .into_iter()
            .map(|h| h.join().expect("load generator thread panicked"))
            .collect()
    });
    for o in outcomes {
        phase.arrivals.extend(o.arrivals);
        phase.trace_ids.extend(o.trace_ids);
        phase.wrong.extend(o.wrong);
    }
    phase
}

/// Folds a phase's operation counts and output checks into the run.
fn account(run: &mut Run, phase: &Phase) -> stats::OpenLoopOutcome {
    let out = stats::account(&phase.arrivals);
    run.attempted += out.attempted as u64;
    run.failed += out.failed as u64;
    if let Some(first) = phase.wrong.first() {
        run.fail(format!("{} bad replies, first: {first}", phase.wrong.len()));
    }
    out
}

/// Whether one sweep attempt kept up: every request answered and the
/// median latency within the limit. Past capacity the queue grows for the
/// whole attempt and the median runs far past any limit; below it, the
/// median barely moves. A tail criterion would not do here: on a shared
/// machine, CPU time stolen from the client and server shows in every
/// tail at every rate.
fn kept_up(out: &stats::OpenLoopOutcome, limit_us: f64) -> bool {
    out.failed == 0 && stats::median(&out.latency_us).is_some_and(|m| m <= limit_us)
}

/// Median wall time of `f` over `reps` calls, in µs.
fn time_us(reps: usize, mut f: impl FnMut()) -> f64 {
    let times: Vec<f64> = (0..reps)
        .map(|_| {
            let t = Instant::now();
            f();
            t.elapsed().as_secs_f64() * 1e6
        })
        .collect();
    stats::median(&times).unwrap_or(0.0)
}

/// The serving phase.
pub fn run(
    w: &Workload,
    deploy: &ScenarioConfig,
    network: &Network,
    seed: u64,
    rec: &Recorder,
    run: &mut Run,
) {
    let data = phases::scenario_data(deploy).expect("data generation failed");
    let rasters: Vec<SpikeRaster> = data.test.iter().map(|s| s.raster.clone()).collect();
    let expected = rasters
        .iter()
        .map(|r| network.forward(r).expect("forward"))
        .collect();
    let lines = rasters
        .iter()
        .enumerate()
        .map(|(i, r)| protocol::predict_request_line(i as u64, r) + "\n")
        .collect();
    let mut order: Vec<usize> = (0..rasters.len()).collect();
    Rng::seed_from_u64(crate::workload::mix(seed ^ 0x5E7E)).shuffle(&mut order);
    let reqs = Requests {
        lines,
        rasters,
        expected,
        order,
    };

    let registry = Arc::new(ModelRegistry::new(network.clone(), "perfbench"));
    let server = Server::start(registry, ServerConfig::default()).expect("server start");
    let addr = server.local_addr();

    // Warm the connection threads and batcher before anything is timed.
    let warm = open_loop(addr, &reqs, w.nominal_rps, Duration::from_millis(300), None);
    account(run, &warm);

    let nominal = open_loop(
        addr,
        &reqs,
        w.nominal_rps,
        Duration::from_secs_f64(w.nominal_s),
        None,
    );
    let out = account(run, &nominal);
    let (p50, p99) = calm_latency(&nominal);
    let late = |p| stats::percentile_of(&out.late_us, p).unwrap_or(f64::NAN);
    let stolen = 100.0 * stats::stolen_share(&nominal.steal, 0.0, w.nominal_s * 1e6);
    eprintln!(
        "serve: nominal {:.0} req/s, {} answered; calm windows of {}: p50 {p50:.0} µs, \
         median window p99 {p99:.0} µs; generator late p50 {:.0} µs, p99 {:.0} µs; \
         {stolen:.1}% stolen",
        w.nominal_rps,
        out.latency_us.len(),
        stats::TAIL_WINDOW,
        late(0.5),
        late(0.99)
    );
    run.e2e(Metric::new("predict_p50_us", p50, "us"));
    // The open-loop tail is too much at the mercy of stolen CPU time to
    // gate (see README); it is reported beside the per-layer figures.
    run.layer(Metric::new("serve.predict_p99_us", p99, "us"));

    // Rate sweep: geometric steps from the nominal rate until one rate
    // keeps up and another falls behind, then bisection between the
    // highest rate that kept up and the lowest that fell behind.
    let step = Duration::from_secs(1);
    // A rate keeps up when one attempt does; it falls behind after two
    // calm attempts that did not (or after MAX_ATTEMPTS), so neither one
    // burst of machine noise nor the host's stealing moves the answer:
    // near capacity, 5% of a second stolen is enough to grow the queue.
    let sweep = |rate: f64, run: &mut Run| {
        let mut seen = Vec::new();
        let mut calm_misses = 0;
        let mut ok = false;
        while !ok && calm_misses < 2 && seen.len() < MAX_ATTEMPTS {
            let phase = open_loop(addr, &reqs, rate, step, None);
            let out = account(run, &phase);
            let stolen = stats::stolen_share(&phase.steal, 0.0, step.as_secs_f64() * 1e6);
            let median = stats::median(&out.latency_us).unwrap_or(f64::NAN);
            seen.push(format!("{median:.0} µs at {:.1}% stolen", 100.0 * stolen));
            ok = kept_up(&out, w.limit_us);
            calm_misses += usize::from(!ok && stolen <= stats::CALM_SHARE);
        }
        eprintln!(
            "serve: {rate:.0} req/s {} (median per attempt: {})",
            if ok { "keeps up" } else { "falls behind" },
            seen.join(", ")
        );
        ok
    };
    let (mut best, mut worst, mut rate) = (0.0f64, f64::INFINITY, w.nominal_rps);
    for _ in 0..12 {
        if sweep(rate, run) {
            best = rate;
            rate *= SWEEP_RATIO;
        } else {
            worst = rate;
            rate /= SWEEP_RATIO;
        }
        if best > 0.0 && worst.is_finite() {
            break;
        }
    }
    if best > 0.0 && worst.is_finite() {
        for _ in 0..BISECTIONS {
            let mid = (best * worst).sqrt();
            if sweep(mid, run) {
                best = mid;
            } else {
                worst = mid;
            }
        }
    } else {
        run.fail(format!(
            "the rate sweep found no rate bracket (met {best:.0}, missed {worst:.0})"
        ));
    }
    // The capacity lies between the last rate kept up with and the first
    // missed; the bracket's geometric middle halves the step's error.
    run.e2e(Metric::new("max_rate_rps", (best * worst).sqrt(), "1/s"));

    if rec.enabled() {
        // A second nominal phase, traced; the first gave the end-to-end
        // figures, the difference is the tracing overhead.
        let before = server.metrics().snapshot();
        let tracer = Tracer::new(seed, TraceConfig::default(), Instant::now());
        let traced = open_loop(
            addr,
            &reqs,
            w.nominal_rps,
            Duration::from_secs_f64(w.nominal_s),
            Some(&tracer),
        );
        let after = server.metrics().snapshot();
        account(run, &traced);
        let (traced_p50, _) = calm_latency(&traced);
        run.layer(Metric::new(
            "trace.overhead.predict_p50",
            traced_p50 / p50 - 1.0,
            "ratio",
        ));
        let count = |v: &Value, k: &str| v.get(k).and_then(Value::as_f64).unwrap_or(0.0);
        let (ok, batches) = (
            count(&after, "requests_ok") - count(&before, "requests_ok"),
            count(&after, "batches") - count(&before, "batches"),
        );
        let fill = ok / batches.max(1.0) / ServerConfig::default().batch.batch_size as f64;
        run.layer(Metric::new("serve.batch_fill", fill, "ratio"));
        traced_layers(&server, &reqs, network, &traced, run);
    }
    server.shutdown();
}

/// The p50 and the median window p99 of a phase's latencies over its
/// calm windows.
fn calm_latency(phase: &Phase) -> (f64, f64) {
    let calm = stats::calm_windows(&phase.arrivals, stats::TAIL_WINDOW, &phase.steal);
    let p50 = stats::median(&calm.concat()).unwrap_or(f64::NAN);
    let p99 =
        stats::median_window_percentile(calm.iter().map(Vec::as_slice), 0.99).unwrap_or(f64::NAN);
    (p50, p99)
}

/// Per-layer serving metrics: offline timings of parse, render and
/// forward on the same inputs, and the server's own `queue_wait` /
/// `forward` / `reply` spans for the traced nominal requests.
fn traced_layers(
    server: &Server,
    reqs: &Requests,
    network: &Network,
    nominal: &Phase,
    run: &mut Run,
) {
    let n = reqs.lines.len().min(64);
    let input_size = network.config().input_size;
    let parse = time_us(n * 4, {
        let mut i = 0;
        move || {
            let line = reqs.lines[i % n].trim_end();
            std::hint::black_box(protocol::parse_request(line, input_size).expect("parse"));
            i += 1;
        }
    });
    let render = time_us(n * 4, {
        let mut i = 0;
        move || {
            let logits = &reqs.expected[i % n];
            std::hint::black_box(protocol::predict_response(Some(i as u64), 0, logits, 1));
            i += 1;
        }
    });
    let forward = time_us(n * 4, {
        let mut i = 0;
        move || {
            let batch = std::slice::from_ref(&reqs.rasters[i % n]);
            std::hint::black_box(network.forward_batch(batch).expect("forward"));
            i += 1;
        }
    });
    run.layer(Metric::new("serve.parse_us", parse, "us"));
    run.layer(Metric::new("serve.render_us", render, "us"));
    run.layer(Metric::new("snn.forward_batch_us", forward, "us"));

    // The server keeps every trace whose root reaches the slow threshold
    // and 1 in `sample_one_in` of the rest (and evicts its oldest past a
    // span cap), so each kept fast request stands for `sample_one_in`.
    let policy = TraceConfig::default();
    let fragments = server.obs().tracer().recent(0, usize::MAX);
    let by_id: std::collections::HashMap<u128, &TraceFragment> =
        fragments.iter().map(|f| (f.trace_id, f)).collect();
    // Server spans carry durations on the server's clock; a request's
    // unattributed time is its due→reply latency minus generator
    // lateness, parse, queue wait, forward and reply.
    let mut layers: std::collections::BTreeMap<&str, Vec<(f64, f64)>> = Default::default();
    let mut coverage = Vec::new();
    for (a, id) in nominal.arrivals.iter().zip(&nominal.trace_ids) {
        let (Some(done), Some(fragment)) = (a.done_us, by_id.get(id)) else {
            continue;
        };
        let weight = if fragment.root_duration_us() >= policy.slow_threshold_us {
            1.0
        } else {
            policy.sample_one_in as f64
        };
        let stage = |name: &str| -> f64 {
            fragment
                .spans
                .iter()
                .filter(|s| s.stage == name)
                .map(|s| s.duration_us as f64)
                .sum()
        };
        let (qw, fwd, reply) = (stage("queue_wait"), stage("forward"), stage("reply"));
        let late = a.sent_us - a.due_us;
        let e2e = done - a.due_us;
        let unattributed = (e2e - (late + parse + qw + fwd + reply)).max(0.0);
        for (name, v) in [
            ("serve.request", unattributed),
            ("loadgen.late", late),
            ("serve.parse", parse),
            ("serve.queue_wait", qw),
            ("snn.forward_batch", fwd),
            ("serve.reply", reply),
        ] {
            layers.entry(name).or_default().push((v, weight));
        }
        coverage.push((1.0 - unattributed / e2e.max(f64::MIN_POSITIVE), weight));
    }
    let rows: Vec<LayerRow> = layers
        .iter()
        .map(|(name, samples)| LayerRow::new(name, samples))
        .collect();
    let coverage = stats::weighted_percentile(&coverage, 0.5).unwrap_or(0.0);
    let row = |name: &str| rows.iter().find(|r| r.name == name).cloned();
    eprintln!(
        "serve: {} traced requests matched the server's kept traces",
        rows.first().map_or(0, |r| r.count)
    );
    let (queue_wait, unattributed) = (row("serve.queue_wait"), row("serve.request"));
    let pct = |r: &Option<LayerRow>, p99: bool| {
        r.as_ref()
            .map_or(0.0, |r| if p99 { r.p99_us } else { r.p50_us })
    };
    run.layer(Metric::new(
        "serve.queue_wait_p50_us",
        pct(&queue_wait, false),
        "us",
    ));
    run.layer(Metric::new(
        "serve.queue_wait_p99_us",
        pct(&queue_wait, true),
        "us",
    ));
    run.layer(Metric::new(
        "serve.unattributed_p50_us",
        pct(&unattributed, false),
        "us",
    ));
    run.layer(Metric::new(
        "serve.unattributed_p99_us",
        pct(&unattributed, true),
        "us",
    ));
    let mut late: Vec<f64> = nominal
        .arrivals
        .iter()
        .map(|a| a.sent_us - a.due_us)
        .collect();
    late.sort_by(f64::total_cmp);
    run.layer(Metric::new(
        "loadgen.late_p99_us",
        stats::percentile(&late, 0.99).unwrap_or(0.0),
        "us",
    ));
    run.layer(Metric::new("trace.coverage.serve", coverage, "ratio"));
    let coverage = std::collections::BTreeMap::from([("serve.request".to_owned(), coverage)]);
    crate::trace::print_table(
        "served requests, weighted for the server's trace sampling",
        &rows,
        &coverage,
    );
}
