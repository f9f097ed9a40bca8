//! `ncl-router` — the front door of a sharded serving fleet.
//!
//! Fronts N `ncl-replica` processes on one address: predicts are
//! dispatched to the least-loaded healthy replica (or by consistent
//! hash of the request id), transport failures fail over to the
//! survivors, and the built-in sync loop keeps followers converged on
//! the learner's checkpoints by relaying KB-scale deltas — at once when
//! the learner's `published` nudge arrives, and every `--sync-ms` as
//! the health/failover tick and the fallback for a lost nudge.
//!
//! The fleet is elastic: replicas can `join`/`leave` over the wire, and
//! `--failover-ticks N` sets how many consecutive learner-less sync
//! ticks the router tolerates before promoting the most caught-up
//! follower.
//!
//! ```sh
//! ncl-router --backend ADDR [--backend ADDR ...]
//!            [--port N] [--policy least-loaded|hash] [--sync-ms N]
//!            [--failover-ticks N]
//! ```

use std::net::SocketAddr;
use std::sync::Arc;
use std::time::Duration;

use ncl_router::backend::Backend;
use ncl_router::router::{DispatchPolicy, Router, RouterConfig};

struct Args {
    port: u16,
    backends: Vec<SocketAddr>,
    policy: DispatchPolicy,
    sync_ms: u64,
    failover_ticks: u32,
}

fn usage(problem: &str) -> ! {
    eprintln!("ncl-router: {problem}");
    eprintln!(
        "usage: ncl-router --backend ADDR [--backend ADDR ...] [--port N] \
         [--policy least-loaded|hash] [--sync-ms N] [--failover-ticks N]"
    );
    std::process::exit(2);
}

fn parse_args() -> Args {
    let mut args = Args {
        port: 0,
        backends: Vec::new(),
        policy: DispatchPolicy::LeastLoaded,
        sync_ms: 150,
        failover_ticks: RouterConfig::default().failover_ticks,
    };
    let mut iter = std::env::args().skip(1);
    while let Some(arg) = iter.next() {
        let mut value = |what: &str| {
            iter.next()
                .unwrap_or_else(|| usage(&format!("{what} needs a value")))
        };
        match arg.as_str() {
            "--port" => {
                args.port = value("--port")
                    .parse()
                    .unwrap_or_else(|_| usage("--port must be a port number"));
            }
            "--backend" => {
                let addr = value("--backend");
                args.backends.push(
                    addr.parse()
                        .unwrap_or_else(|_| usage(&format!("bad backend address {addr}"))),
                );
            }
            "--policy" => {
                args.policy = match value("--policy").as_str() {
                    "least-loaded" => DispatchPolicy::LeastLoaded,
                    "hash" => DispatchPolicy::ConsistentHash,
                    other => usage(&format!(
                        "--policy must be least-loaded or hash, got {other}"
                    )),
                };
            }
            "--sync-ms" => {
                args.sync_ms = value("--sync-ms")
                    .parse()
                    .unwrap_or_else(|_| usage("--sync-ms must be an integer"));
            }
            "--failover-ticks" => {
                args.failover_ticks = value("--failover-ticks")
                    .parse()
                    .unwrap_or_else(|_| usage("--failover-ticks must be an integer"));
            }
            other => usage(&format!("unknown flag {other}")),
        }
    }
    if args.backends.is_empty() {
        usage("at least one --backend is required");
    }
    args
}

fn main() {
    let args = parse_args();
    let backends: Vec<Arc<Backend>> = args
        .backends
        .iter()
        .enumerate()
        .map(|(id, &addr)| Arc::new(Backend::new(id, addr)))
        .collect();
    let router = match Router::start(
        backends,
        RouterConfig {
            port: args.port,
            policy: args.policy,
            sync_interval: Duration::from_millis(args.sync_ms.max(10)),
            failover_ticks: args.failover_ticks,
            ..RouterConfig::default()
        },
    ) {
        Ok(router) => router,
        Err(e) => {
            eprintln!("ncl-router: {e}");
            std::process::exit(1);
        }
    };
    let healthy = router.backends().iter().filter(|b| b.is_healthy()).count();
    println!(
        "listening on {} fronting {} replica(s) ({} healthy)",
        router.local_addr(),
        router.backends().len(),
        healthy
    );
    router.wait();
    println!("drained and stopped.");
}
