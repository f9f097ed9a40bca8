//! `ncl-run` — the experiment driver: runs a paper figure, a suite file
//! or the default insertion grid on the `ncl_runtime` engine.
//!
//! ```sh
//! ncl-run [--figure <name> | --suite <file.json>] [--demo | --paper]
//!         [--jobs <n>] [--seed <u64>] [--json] [--quiet]
//! ```
//!
//! * `--figure <name>` — one entry of `ncl_bench::figures::FIGURES`
//!   (`fig01`, `fig02a`, `fig02b`, `fig08`, `fig10`, `fig11`, `fig12`,
//!   `fig13`, `headline`, `ablation-knobs`, `ablation-surrogate`,
//!   `calibrate`), printed as the figure's tables.
//! * `--suite <file.json>` — load a suite file (schema: see
//!   `ncl_runtime::job`; base presets `smoke`, `demo`, `paper`).
//! * neither — Fig. 10's grid: SpikingLR and Replay4NCL at every
//!   insertion layer 0–3 (8 jobs), printed as the generic suite table.
//! * `--demo` (default) / `--paper` — the scale a figure or the default
//!   grid runs at; `--paper` is slow on small machines.
//! * `--jobs <n>` — worker threads (default: half the cores). The report
//!   is bit-identical for any value.
//! * `--seed <u64>` — override every job's scenario seed.
//! * `--json` — print the report as JSON instead of tables.
//! * `--quiet` — suppress streaming progress on stderr.

use std::path::PathBuf;

use ncl_bench::figures::{self, Figure, FIGURES};
use ncl_bench::{default_jobs, demo_config, Scale};
use ncl_runtime::{Engine, NullSink, StderrProgress, Suite};
use replay4ncl::ScenarioConfig;

struct Args {
    figure: Option<&'static Figure>,
    suite_file: Option<PathBuf>,
    scale: Scale,
    jobs: usize,
    seed: Option<u64>,
    json: bool,
    quiet: bool,
}

fn usage(msg: &str) -> ! {
    if !msg.is_empty() {
        eprintln!("error: {msg}");
    }
    let names: Vec<&str> = FIGURES.iter().map(|f| f.name).collect();
    eprintln!(
        "usage: ncl-run [--figure <name> | --suite <file.json>] [--demo | --paper] \
         [--jobs <n>] [--seed <u64>] [--json] [--quiet]\nfigures: {}",
        names.join(", ")
    );
    std::process::exit(2);
}

fn parse_args() -> Args {
    let mut args = Args {
        figure: None,
        suite_file: None,
        scale: Scale::Demo,
        jobs: default_jobs(),
        seed: None,
        json: false,
        quiet: false,
    };
    let mut iter = std::env::args().skip(1);
    while let Some(arg) = iter.next() {
        match arg.as_str() {
            "--demo" => args.scale = Scale::Demo,
            "--paper" => args.scale = Scale::Paper,
            "--figure" => {
                let v = iter
                    .next()
                    .unwrap_or_else(|| usage("--figure needs a name"));
                let figure =
                    figures::figure(&v).unwrap_or_else(|| usage(&format!("unknown figure {v}")));
                args.figure = Some(figure);
            }
            "--suite" => {
                let v = iter.next().unwrap_or_else(|| usage("--suite needs a path"));
                args.suite_file = Some(PathBuf::from(v));
            }
            "--jobs" => {
                let v = iter.next().unwrap_or_else(|| usage("--jobs needs a value"));
                args.jobs = match v.parse() {
                    Ok(n) if n >= 1 => n,
                    _ => usage("--jobs must be a positive integer"),
                };
            }
            "--seed" => {
                let v = iter.next().unwrap_or_else(|| usage("--seed needs a value"));
                args.seed = Some(v.parse().unwrap_or_else(|_| usage("--seed must be a u64")));
            }
            "--json" => args.json = true,
            "--quiet" => args.quiet = true,
            "--help" | "-h" => usage(""),
            other => usage(&format!("unknown flag {other}")),
        }
    }
    if args.figure.is_some() && args.suite_file.is_some() {
        usage("--figure and --suite are exclusive");
    }
    args
}

/// Base-config resolver for suite files: the built-in `smoke`/`paper`
/// presets plus the harness's `demo` scale.
fn resolve_base(name: &str) -> Option<ScenarioConfig> {
    match name {
        "demo" => Some(demo_config()),
        other => ncl_runtime::job::builtin_base(other),
    }
}

fn main() {
    let args = parse_args();
    let mut suite = match &args.suite_file {
        Some(path) => match Suite::from_json_file_with(path, &resolve_base) {
            Ok(suite) => suite,
            Err(e) => {
                eprintln!("ncl-run: {e}");
                std::process::exit(2);
            }
        },
        None => {
            let base = match args.scale {
                Scale::Demo => demo_config(),
                Scale::Paper => ScenarioConfig::paper(),
            };
            let figure = args
                .figure
                .or_else(|| figures::figure("fig10"))
                .expect("fig10 is a figure");
            (figure.build)(&base, args.scale)
        }
    };
    if let Some(seed) = args.seed {
        for job in &mut suite.jobs {
            job.config.seed = seed;
        }
    }

    let engine = Engine::new(args.jobs);
    let started = std::time::Instant::now();
    let outcome = if args.quiet {
        engine.run_with_events(&suite, &NullSink)
    } else {
        engine.run_with_events(&suite, &StderrProgress::default())
    };
    let report = match outcome {
        Ok(report) => report,
        Err(e) => {
            eprintln!("ncl-run: {e}");
            std::process::exit(1);
        }
    };
    if !args.quiet {
        eprintln!(
            "wall clock: {:.2} s on {} workers",
            started.elapsed().as_secs_f64(),
            engine.workers()
        );
    }

    if args.json {
        println!("{}", report.to_json().to_json_pretty());
    } else if let Some(figure) = args.figure {
        println!("{}", figure.page(&suite, &report));
    } else {
        println!("{}", report.render());
    }
}
