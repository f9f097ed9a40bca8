//! `ncl-replica` — one member of an elastic sharded serving fleet.
//!
//! Both roles serve the same deterministic daemon state (identical
//! configs produce bit-identical v1 checkpoints, so every replica
//! starts from the same base — the property the delta chain relies on),
//! then diverge:
//!
//! * `--role follower` mounts an elastic replica: it serves and applies
//!   whatever the router relays, and can be *promoted* to learner over
//!   the wire — it then resumes training from its last applied
//!   checkpoint and continues the same deterministic stream.
//! * `--role learner` is the same elastic replica, promoted at fleet
//!   epoch 1 as soon as it has bootstrapped: it ingests the stream
//!   (paced by `--pace-ms` so increments land mid-load), publishes a
//!   checkpoint delta after every increment, and answers
//!   `delta`/`checkpoint` fetches. `--delta-ring N` sets how many
//!   consecutive deltas it retains before laggards need a full sync.
//!   The router adopts the highest epoch it sees, so a fresh fleet
//!   starts at epoch 1.
//!
//! Elastic-fleet flags: `--join ADDR` registers this replica with a
//! running router once it is listening; `--bootstrap-from ADDR` skips
//! local bootstrap entirely and cold-starts from the fleet's current
//! checkpoint, fetched through the router's `checkpoint` relay.
//!
//! Without `--join`, `--role learner` is the single-node online
//! continual-learning daemon: it serves predictions while it learns the
//! stream's novel class and hot-swaps each increment in. Durability
//! flags: `--checkpoint PATH` makes every increment write an atomic
//! checkpoint there, so killing the process loses at most the events
//! since the last increment; `--resume` starts from that checkpoint
//! instead of bootstrapping (a missing file is an error, never a silent
//! fresh start) and continues the stream from its cursor.
//! `--verify-checkpoint` loads the checkpoint, validates it end to end
//! (CRC, model bytes, RLE frames, budget invariant), prints a JSON
//! summary and exits.
//!
//! ```sh
//! ncl-replica --role learner|follower [--port N] [--workers N]
//!             [--events N] [--warmup N] [--novel-every N] [--pace-ms N]
//!             [--arrival-threshold N] [--cl-epochs N] [--pretrain-epochs N]
//!             [--seed N] [--delta-ring N] [--join ADDR]
//!             [--bootstrap-from ADDR] [--checkpoint PATH] [--resume] [--quiet]
//! ncl-replica --verify-checkpoint --checkpoint PATH
//! ```
//!
//! The stream flags matter for the learner and for any follower that
//! may be promoted; pass one flag set to the whole fleet so every
//! member would continue the identical stream. A resumed run must pass
//! the flags of the run that wrote the checkpoint.

use std::path::{Path, PathBuf};
use std::sync::Arc;
use std::time::Duration;

use ncl_online::checkpoint::Checkpoint;
use ncl_online::daemon::{OnlineConfig, OnlineLearner};
use ncl_online::stream::{SampleStream, StreamConfig};
use ncl_router::replica::ElasticReplica;
use ncl_serve::client::NclClient;
use ncl_serve::protocol::{from_hex, object};
use ncl_serve::server::{Server, ServerConfig};
use ncl_serve::sync::ReplicaSync;
use serde_json::Value;

#[derive(PartialEq)]
enum Role {
    Learner,
    Follower,
}

struct Args {
    role: Role,
    port: u16,
    workers: usize,
    events: usize,
    warmup: usize,
    novel_every: usize,
    pace_ms: u64,
    arrival_threshold: usize,
    cl_epochs: usize,
    pretrain_epochs: usize,
    seed: u64,
    delta_ring: usize,
    join: Option<String>,
    bootstrap_from: Option<String>,
    checkpoint: Option<PathBuf>,
    resume: bool,
    verify_checkpoint: bool,
    quiet: bool,
}

fn usage(problem: &str) -> ! {
    eprintln!("ncl-replica: {problem}");
    eprintln!(
        "usage: ncl-replica --role learner|follower [--port N] [--workers N] [--events N] \
         [--warmup N] [--novel-every N] [--pace-ms N] [--arrival-threshold N] [--cl-epochs N] \
         [--pretrain-epochs N] [--seed N] [--delta-ring N] [--join ADDR] \
         [--bootstrap-from ADDR] [--checkpoint PATH] [--resume] [--quiet]\n       \
         ncl-replica --verify-checkpoint --checkpoint PATH"
    );
    std::process::exit(2);
}

fn parse_args() -> Args {
    let mut args = Args {
        role: Role::Follower,
        port: 0,
        workers: 2,
        events: 60,
        warmup: 24,
        novel_every: 3,
        pace_ms: 0,
        arrival_threshold: 4,
        cl_epochs: 6,
        pretrain_epochs: 10,
        seed: 0x57EA4,
        delta_ring: OnlineConfig::smoke().delta_ring,
        join: None,
        bootstrap_from: None,
        checkpoint: None,
        resume: false,
        verify_checkpoint: false,
        quiet: false,
    };
    let mut role_given = false;
    let mut iter = std::env::args().skip(1);
    while let Some(arg) = iter.next() {
        let mut value = |what: &str| {
            iter.next()
                .unwrap_or_else(|| usage(&format!("{what} needs a value")))
        };
        macro_rules! parse {
            ($flag:literal) => {
                value($flag)
                    .parse()
                    .unwrap_or_else(|_| usage(concat!($flag, " must be a non-negative integer")))
            };
        }
        match arg.as_str() {
            "--role" => {
                role_given = true;
                args.role = match value("--role").as_str() {
                    "learner" => Role::Learner,
                    "follower" => Role::Follower,
                    other => usage(&format!("--role must be learner or follower, got {other}")),
                };
            }
            "--port" => args.port = parse!("--port"),
            "--workers" => args.workers = parse!("--workers"),
            "--events" => args.events = parse!("--events"),
            "--warmup" => args.warmup = parse!("--warmup"),
            "--novel-every" => args.novel_every = parse!("--novel-every"),
            "--pace-ms" => args.pace_ms = parse!("--pace-ms"),
            "--arrival-threshold" => args.arrival_threshold = parse!("--arrival-threshold"),
            "--cl-epochs" => args.cl_epochs = parse!("--cl-epochs"),
            "--pretrain-epochs" => args.pretrain_epochs = parse!("--pretrain-epochs"),
            "--seed" => args.seed = parse!("--seed"),
            "--delta-ring" => args.delta_ring = parse!("--delta-ring"),
            "--join" => args.join = Some(value("--join")),
            "--bootstrap-from" => args.bootstrap_from = Some(value("--bootstrap-from")),
            "--checkpoint" => args.checkpoint = Some(PathBuf::from(value("--checkpoint"))),
            "--resume" => args.resume = true,
            "--verify-checkpoint" => args.verify_checkpoint = true,
            "--quiet" => args.quiet = true,
            other => usage(&format!("unknown flag {other}")),
        }
    }
    if (args.verify_checkpoint || args.resume) && args.checkpoint.is_none() {
        usage("--verify-checkpoint and --resume need --checkpoint PATH");
    }
    if args.verify_checkpoint {
        return args;
    }
    if !role_given {
        usage("--role is required");
    }
    if args.role == Role::Learner && args.bootstrap_from.is_some() {
        usage("--bootstrap-from is a follower flag (the learner's state comes from training)");
    }
    if args.resume && args.bootstrap_from.is_some() {
        usage("--resume and --bootstrap-from are two different starting states; pick one");
    }
    args
}

fn main() {
    let args = parse_args();
    if let (true, Some(path)) = (args.verify_checkpoint, &args.checkpoint) {
        std::process::exit(verify_checkpoint(path));
    }
    if let Err(e) = run(&args) {
        eprintln!("ncl-replica: {e}");
        std::process::exit(1);
    }
}

/// Loads and validates the checkpoint at `path`, printing a one-line
/// JSON summary; the exit code is 0 for a clean restore, 1 otherwise.
fn verify_checkpoint(path: &Path) -> i32 {
    match Checkpoint::read(path) {
        Ok(ckpt) => {
            let summary = object(vec![
                ("ok", Value::from(true)),
                ("version", Value::from(ckpt.version)),
                ("cursor", Value::from(ckpt.cursor)),
                ("increments", Value::from(ckpt.version.saturating_sub(1))),
                ("entries", Value::from(ckpt.buffer.len())),
                (
                    "buffer_bits",
                    Value::from(ckpt.buffer.footprint().total_bits),
                ),
                (
                    "event_digest",
                    Value::from(format!("{:016x}", ckpt.event_digest)),
                ),
                (
                    "known_classes",
                    ckpt.known_classes
                        .iter()
                        .map(|&c| Value::from(u64::from(c)))
                        .collect::<Value>(),
                ),
                (
                    "model_bytes",
                    Value::from(ncl_snn::serialize::to_bytes(&ckpt.network).len()),
                ),
            ]);
            println!("{}", summary.to_json());
            0
        }
        Err(e) => {
            println!(
                "{}",
                object(vec![
                    ("ok", Value::from(false)),
                    ("error", Value::from(e.to_string())),
                ])
                .to_json()
            );
            1
        }
    }
}

/// Fetches the fleet's current checkpoint bytes through the router's
/// `checkpoint` relay (the cold-join bootstrap path).
fn fetch_checkpoint(router: &str) -> Result<Vec<u8>, Box<dyn std::error::Error>> {
    let mut client = NclClient::connect(router)?;
    let response = client.checkpoint()?;
    if response.get("ok").and_then(Value::as_bool) != Some(true) {
        let error = response
            .get("error")
            .and_then(Value::as_str)
            .unwrap_or("unrecognised response");
        return Err(format!("checkpoint fetch via {router} failed: {error}").into());
    }
    let payload = response
        .get("payload")
        .and_then(Value::as_str)
        .ok_or_else(|| format!("checkpoint response from {router} carried no payload"))?;
    Ok(from_hex(payload)?)
}

/// Registers this replica's serving address with a running router.
fn join_fleet(router: &str, own_addr: &str, quiet: bool) -> Result<(), Box<dyn std::error::Error>> {
    let mut client = NclClient::connect(router)?;
    let response = client.join(own_addr)?;
    if response.get("ok").and_then(Value::as_bool) != Some(true) {
        let error = response
            .get("error")
            .and_then(Value::as_str)
            .unwrap_or("unrecognised response");
        return Err(format!("join via {router} failed: {error}").into());
    }
    if !quiet {
        let id = response.get("id").and_then(Value::as_u64).unwrap_or(0);
        println!("joined the fleet at {router} as replica {id}");
    }
    Ok(())
}

fn run(args: &Args) -> Result<(), Box<dyn std::error::Error>> {
    let mut config = OnlineConfig::smoke();
    config.scenario.parallelism = args.workers.max(1);
    config.scenario.cl_epochs = args.cl_epochs.max(1);
    config.scenario.pretrain_epochs = args.pretrain_epochs.max(1);
    config.arrival_threshold = args.arrival_threshold;
    config.delta_ring = args.delta_ring.max(1);
    config.checkpoint_path = args.checkpoint.clone();

    // One metric registry per process; the `metrics` wire op serves it,
    // and the router merges it into the fleet exposition.
    let obs = Arc::new(ncl_obs::Registry::new());

    // The deterministic event stream: dormant until a promotion, which
    // continues it from the promoted checkpoint's cursor.
    let stream = SampleStream::generate(&StreamConfig {
        scenario: config.scenario.clone(),
        warmup_events: args.warmup,
        total_events: args.events,
        novel_every: args.novel_every.max(1),
        seed: args.seed,
    })?;
    let pace = Duration::from_millis(args.pace_ms);

    let server_config = ServerConfig {
        port: args.port,
        ..ServerConfig::default()
    };
    let replica = if let Some(router) = &args.bootstrap_from {
        // Cold join: adopt the fleet's current state instead of
        // re-deriving the v1 bootstrap locally.
        let payload = fetch_checkpoint(router)?;
        let replica = ElasticReplica::from_checkpoint_bytes(
            config,
            &payload,
            stream,
            pace,
            Arc::clone(&obs),
        )?;
        if !args.quiet {
            println!(
                "bootstrapped from the fleet via {router}: {} B checkpoint, model v{}",
                payload.len(),
                replica.registry().version()
            );
        }
        replica
    } else if let (true, Some(path)) = (args.resume, &args.checkpoint) {
        // Never fall back to a fresh bootstrap: a missing file (typo,
        // unmounted volume) would re-pretrain from scratch and serve a
        // model that forgot every online-learned class.
        if !path.exists() {
            return Err(format!(
                "--resume: checkpoint {} does not exist; drop --resume to bootstrap fresh",
                path.display()
            )
            .into());
        }
        let ckpt = Checkpoint::read(path)?;
        let (version, cursor, entries) = (ckpt.version, ckpt.cursor, ckpt.buffer.len());
        let replica = ElasticReplica::follower(config, ckpt, stream, pace, Arc::clone(&obs))
            .map_err(|e| format!("--resume: {e}"))?;
        if !args.quiet {
            println!(
                "resumed from checkpoint: model v{version}, cursor {cursor}, \
                 {entries} latent entries"
            );
        }
        // The config is digest-checked against the checkpoint, but the
        // stream is input data the checkpoint cannot vouch for: the
        // events before the cursor came from the original run's stream.
        eprintln!(
            "ncl-replica: note: resuming at cursor {cursor} of a generated stream \
             (--seed {} --events {} --warmup {} --novel-every {}); these flags must \
             match the original run, or the continued history diverges from the \
             recorded one",
            args.seed, args.events, args.warmup, args.novel_every
        );
        replica
    } else {
        let learner = OnlineLearner::bootstrap_with_obs(config.clone(), Arc::clone(&obs))?;
        if !args.quiet {
            println!(
                "bootstrapped: {} classes at {:.1}% test accuracy, {} latent entries",
                learner.known_classes().len(),
                learner.pretrain_acc() * 100.0,
                learner.buffer().len()
            );
        }
        ElasticReplica::follower(config, learner.checkpoint(), stream, pace, Arc::clone(&obs))?
    };
    replica.register_into(&obs);
    let replica = Arc::new(replica);
    let sync = Arc::clone(&replica) as Arc<dyn ReplicaSync>;
    let server = Server::start_with_obs(
        replica.registry(),
        server_config,
        Some(sync),
        Arc::clone(&obs),
    )?;
    // Promote only once serving, so predictions flow from the stream's
    // first event on.
    if args.role == Role::Learner {
        replica.promote(1)?;
    }
    println!(
        "listening on {} (model v{}, role {})",
        server.local_addr(),
        server.registry().version(),
        replica.role()
    );
    if let Some(router) = &args.join {
        join_fleet(router, &server.local_addr().to_string(), args.quiet)?;
    }
    server.wait();
    println!("drained and stopped.");
    Ok(())
}
