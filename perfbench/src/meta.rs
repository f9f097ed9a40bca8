//! Run metadata printed with every result: commit, toolchain, cores, CPU,
//! seed, and the load average before and after the run.

use std::collections::BTreeMap;
use std::process::Command;
use std::time::{Duration, Instant};

use serde_json::Value;

use crate::workload::Workload;

/// The 1-minute load average now (`None` where `/proc` is absent).
pub fn snapshot() -> Option<f64> {
    let text = std::fs::read_to_string("/proc/loadavg").ok()?;
    text.split_whitespace().next()?.parse().ok()
}

/// CPU time the host has stolen from this machine so far, per CPU (s):
/// over an interval, its growth divided by the interval's length is the
/// share of the machine the host took. 0 where `/proc/stat` is absent.
pub fn stolen_s() -> f64 {
    let ticks: u64 = std::fs::read_to_string("/proc/stat")
        .ok()
        .and_then(|s| {
            // "cpu user nice system idle iowait irq softirq steal ..."
            let line = s.lines().next()?;
            line.split_whitespace().nth(8)?.parse().ok()
        })
        .unwrap_or(0);
    let cpus = std::thread::available_parallelism().map_or(1, |n| n.get());
    ticks as f64 / 100.0 / cpus as f64
}

/// Runs `f` and returns its result with the time it took (s): wall time
/// less the time the host stole from each CPU meanwhile. On a shared host
/// stolen time doubled the wall time of the same code from run to run.
/// Process CPU time would leave it out too, but it also counts the CPU a
/// waiting training worker burns, which moved the same pre-training by
/// 15% from run to run.
pub fn timed<T>(f: impl FnOnce() -> T) -> (T, f64) {
    let (start, stolen) = (Instant::now(), stolen_s());
    let out = f();
    (out, start.elapsed().as_secs_f64() - (stolen_s() - stolen))
}

/// Process high-water resident set size in MiB (`VmHWM`).
pub fn peak_rss_mib() -> f64 {
    std::fs::read_to_string("/proc/self/status")
        .ok()
        .and_then(|s| {
            s.lines()
                .find_map(|l| l.strip_prefix("VmHWM:"))
                .and_then(|v| v.split_whitespace().next()?.parse::<f64>().ok())
        })
        .map_or(f64::NAN, |kib| kib / 1024.0)
}

/// First line of a command's stdout, or `"unknown"`; the command is
/// waited for either way.
fn command_line(program: &str, args: &[&str]) -> String {
    Command::new(program)
        .args(args)
        .output()
        .ok()
        .filter(|o| o.status.success())
        .and_then(|o| String::from_utf8(o.stdout).ok())
        .and_then(|s| s.lines().next().map(str::to_owned))
        .unwrap_or_else(|| "unknown".to_owned())
}

fn cpu_model() -> String {
    std::fs::read_to_string("/proc/cpuinfo")
        .ok()
        .and_then(|s| {
            s.lines()
                .find_map(|l| l.strip_prefix("model name"))
                .map(|v| v.trim_start_matches([' ', '\t', ':']).to_owned())
        })
        .unwrap_or_else(|| "unknown".to_owned())
}

/// Load average and stolen CPU time when a run starts.
pub struct Before {
    load: Option<f64>,
    stolen_s: f64,
}

/// What [`print`] compares the end of the run with.
pub fn before() -> Before {
    Before {
        load: snapshot(),
        stolen_s: stolen_s(),
    }
}

/// Prints the metadata line (`meta {...}`) to stdout.
pub fn print(w: &Workload, seed: u64, traced: bool, before: &Before, elapsed: Duration) {
    let nproc = std::thread::available_parallelism().map_or(1, |n| n.get());
    // Share of the machine's CPU time the host stole during the run.
    let steal = (stolen_s() - before.stolen_s) / elapsed.as_secs_f64();
    let mut m = BTreeMap::new();
    let mut put = |k: &str, v: Value| {
        m.insert(k.to_owned(), v);
    };
    put(
        "commit",
        Value::from(command_line("git", &["rev-parse", "HEAD"])),
    );
    put("rustc", Value::from(command_line("rustc", &["-V"])));
    put("nproc", Value::from(nproc));
    put("cpu", Value::from(cpu_model()));
    put("workload", Value::from(w.name));
    put("seed", Value::from(seed));
    put(
        "data_seed",
        Value::from(format!("{:016x}", w.scenario.data.seed)),
    );
    put("traced", Value::from(traced));
    put(
        "loadavg_before",
        before.load.map_or(Value::Null, Value::from),
    );
    put("loadavg_after", snapshot().map_or(Value::Null, Value::from));
    put("steal_share", Value::from(steal));
    put("wall_s", Value::from(elapsed.as_secs_f64()));
    put("peak_rss_end_mib", Value::from(peak_rss_mib()));
    println!("meta {}", Value::Object(m).to_json());
}
