//! `perfbench` — the repository benchmark.
//!
//! ```text
//! cargo run --release --manifest-path perfbench/Cargo.toml -- \
//!     --workload <paper|edge> --seed <n> --seconds <s> --trace <0|1>
//! ```
//!
//! Every run drives three phases with the workload's inputs: class-
//! incremental training (SpikingLR vs Replay4NCL; half its passes first,
//! half last), then set-up, open-loop serving, and learning beside
//! serving in a two-replica fleet, which fills the run's time. It
//! checks the program's outputs as it goes and ends with one JSON line:
//! the end-to-end metrics (`--trace 0`) or the per-layer metrics from
//! spans recorded around each layer's calls (`--trace 1`).

mod cl;
mod fleet;
mod meta;
mod report;
mod serve;
mod stats;
mod trace;
mod workload;

use std::time::{Duration, Instant};

use report::{Metric, Run};
use workload::Workload;

struct Args {
    workload: String,
    seed: u64,
    seconds: f64,
    trace: bool,
}

fn usage(msg: &str) -> ! {
    eprintln!("perfbench: {msg}");
    eprintln!("usage: perfbench --workload <paper|edge> --seed <n> --seconds <s> --trace <0|1>");
    std::process::exit(2);
}

fn parse_args() -> Args {
    let mut args = Args {
        workload: String::new(),
        seed: 0,
        seconds: 10.0,
        trace: false,
    };
    let mut it = std::env::args().skip(1);
    while let Some(flag) = it.next() {
        let value = it
            .next()
            .unwrap_or_else(|| usage(&format!("{flag} needs a value")));
        match flag.as_str() {
            "--workload" => args.workload = value,
            "--seed" => {
                args.seed = value
                    .parse()
                    .unwrap_or_else(|_| usage("--seed must be a u64"))
            }
            "--seconds" => {
                args.seconds = value
                    .parse()
                    .ok()
                    .filter(|s: &f64| *s > 0.0)
                    .unwrap_or_else(|| usage("--seconds must be positive"));
            }
            "--trace" => {
                args.trace = match value.as_str() {
                    "0" => false,
                    "1" => true,
                    _ => usage("--trace must be 0 or 1"),
                };
            }
            other => usage(&format!("unknown flag {other}")),
        }
    }
    args
}

fn main() {
    let args = parse_args();
    let Some(w) = Workload::by_name(&args.workload, args.seed) else {
        usage(&format!("unknown workload {:?}", args.workload));
    };
    let meta_before = meta::before();
    let rec = trace::Recorder::new(args.trace);
    let mut run = Run::default();
    let started = Instant::now();
    let until = started + Duration::from_secs_f64(args.seconds);
    let tmp = std::path::PathBuf::from(".bench_tmp").join(std::process::id().to_string());

    // Half the class-incremental passes run first, the rest at the end.
    let mut cl = cl::Cl::default();
    let first_half = w.cl_passes.div_ceil(2);
    let t = Instant::now();
    cl.passes(&w, 0..first_half, &mut run);
    let second_half = t
        .elapsed()
        .mul_f64((w.cl_passes - first_half) as f64 / first_half as f64);
    let (deploy, network) = if w.deploy == w.scenario {
        let (config, network) = cl.first();
        (config.clone(), network.clone())
    } else {
        let outcome = replay4ncl::phases::pretrain(&w.deploy).expect("pre-training failed");
        (w.deploy.clone(), outcome.network)
    };

    // Set-up, repeated for a steady median (seven times, or for a second
    // where one is quick): the deployment's dataset, latent store,
    // bootstrap checkpoint and stream, and a server start.
    let method = ncl_bench::replay4ncl_spec(&deploy, w.scale);
    let mut setup_s = Vec::new();
    let mut fleet_inputs = None;
    let setup_started = Instant::now();
    while setup_s.len() < 7
        || (setup_started.elapsed() < Duration::from_secs(1) && setup_s.len() < 200)
    {
        let ((fleet, server), s) = meta::timed(|| {
            let fleet = fleet::prepare(&deploy, method.clone(), &network, args.seed, &tmp);
            let registry =
                std::sync::Arc::new(ncl_serve::ModelRegistry::new(network.clone(), "setup"));
            let server = ncl_serve::Server::start(registry, ncl_serve::ServerConfig::default())
                .expect("server start");
            (fleet, server)
        });
        setup_s.push(s);
        server.shutdown();
        fleet_inputs = Some(fleet);
    }
    run.e2e(Metric::median("setup_s", &setup_s, "s"));
    let fleet_inputs = fleet_inputs.expect("set-up ran");

    serve::run(&w, &deploy, &network, args.seed, &rec, &mut run);
    // Peak memory through training and serving. The fleet phase is left
    // out: its dozens of short-lived threads each grow an allocator arena,
    // so its high-water mark moves by a third from run to run.
    run.e2e(Metric::new("peak_rss_mib", meta::peak_rss_mib(), "MiB"));
    fleet::run(
        &fleet_inputs,
        until - second_half,
        args.seed,
        &rec,
        &mut run,
    );
    let _ = std::fs::remove_dir_all(&tmp);
    let _ = std::fs::remove_dir(".bench_tmp");
    cl.passes(&w, first_half..w.cl_passes, &mut run);
    cl.finish(&w, &rec, &mut run);

    if args.trace {
        layers_from_spans(&rec, &mut run);
        println!("== end-to-end metrics measured alongside the traced run ==");
        for m in &run.e2e {
            println!("{:<20} {:>16.6} {}", m.name, m.value, m.unit);
        }
    }
    meta::print(&w, args.seed, args.trace, &meta_before, started.elapsed());
    println!("{}", run.result_line(args.trace));
    if !run.check_failures.is_empty() {
        eprintln!(
            "perfbench: {} output check(s) failed",
            run.check_failures.len()
        );
        std::process::exit(1);
    }
}

/// Derives the per-layer metrics that come from the recorded spans (the
/// class-incremental pass and the fleet cycles), and prints their table.
fn layers_from_spans(rec: &trace::Recorder, run: &mut Run) {
    let (rows, coverage) = trace::layer_table(rec.fragments());
    // Mean self time: the tracer records whole µs, and a mean over many
    // spans keeps the digits a median of whole numbers would drop.
    let mean = |name: &str| {
        rows.iter()
            .find(|r| r.name == name)
            .map_or(0.0, |r| r.mean_us)
    };
    let mut add = |metric: &str, span: &str, scale: f64, unit: &'static str| {
        run.layer(Metric::new(metric, mean(span) * scale, unit));
    };
    add("data.generate_ms", "data.generate", 1e-3, "ms");
    add("snn.forward_us", "snn.forward", 1.0, "us");
    add("snn.bptt_us", "snn.bptt", 1.0, "us");
    add("snn.optimizer_us", "snn.optimizer", 1.0, "us");
    add(
        "spike.codec_ms",
        "spike.replay_samples.spikinglr",
        1e-3,
        "ms",
    );
    for tag in ["spikinglr", "replay4ncl"] {
        for (metric, span) in [
            ("core.prepare_ms", "core.prepare"),
            ("core.anew_ms", "core.anew"),
            ("snn.cl_epoch_ms", "snn.cl_epoch"),
            ("snn.eval_ms", "snn.eval"),
        ] {
            add(
                &format!("{metric}.{tag}"),
                &format!("{span}.{tag}"),
                1e-3,
                "ms",
            );
        }
    }
    for (root, name) in [
        ("cl.pass", "trace.coverage.cl"),
        ("fleet.cycle", "trace.coverage.fleet"),
    ] {
        run.layer(Metric::new(
            name,
            coverage.get(root).copied().unwrap_or(0.0),
            "ratio",
        ));
    }
    trace::print_table("class-incremental pass and fleet cycles", &rows, &coverage);
}
