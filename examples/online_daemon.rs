//! The online daemon, end to end **in one process**: the loop
//! `ncl-replica --role learner` runs as a service, driven here so every
//! stage is observable.
//!
//! 1. Bootstrap: pre-train on the known classes, seed the budgeted
//!    latent store, publish the model as v1 and start `ncl-serve`.
//! 2. Stream: known-class traffic flows (periodically refreshing the
//!    replay store); served accuracy on the unseen class is ~chance.
//! 3. A novel class starts arriving. The daemon captures its latents at
//!    the reduced timestep T*, and at the arrival threshold trains a
//!    Replay4NCL increment — while the TCP server keeps answering.
//! 4. The increment hot-swaps in atomically and writes a checkpoint.
//! 5. The daemon is "killed" and resumed from the checkpoint: model,
//!    replay store, cursor and event digest come back bit-identically.
//!
//! ```sh
//! cargo run --release --example online_daemon
//! ```

use ncl_online::daemon::{IngestOutcome, OnlineConfig, OnlineLearner};
use ncl_online::stream::{SampleStream, StreamConfig};
use ncl_serve::client::NclClient;
use ncl_serve::server::{Server, ServerConfig};
use ncl_snn::serialize;
use ncl_spike::SpikeRaster;
use replay4ncl::{phases, report};
use serde_json::Value;

/// Accuracy of the *served* model over labeled samples, via TCP.
fn served_accuracy(client: &mut NclClient, samples: &[(SpikeRaster, u16)]) -> std::io::Result<f64> {
    let mut correct = 0usize;
    for (i, (raster, label)) in samples.iter().enumerate() {
        let reply = client.predict(i as u64, raster)?;
        if reply.get("prediction").and_then(Value::as_u64) == Some(u64::from(*label)) {
            correct += 1;
        }
    }
    Ok(correct as f64 / samples.len().max(1) as f64)
}

fn main() -> Result<(), Box<dyn std::error::Error>> {
    // --- 1. Bootstrap + serve -------------------------------------------
    let mut config = OnlineConfig::smoke();
    config.scenario.cl_epochs = 16;
    let ckpt_dir = std::env::temp_dir().join("ncl-online-daemon-example");
    std::fs::create_dir_all(&ckpt_dir)?;
    let ckpt_path = ckpt_dir.join("daemon.ckpt");
    std::fs::remove_file(&ckpt_path).ok();
    config.checkpoint_path = Some(ckpt_path.clone());

    let mut learner = OnlineLearner::bootstrap(config.clone())?;
    println!(
        "bootstrapped: {} known classes at {} test accuracy, {} latent entries ({} bits budget)",
        learner.known_classes().len(),
        report::pct(learner.pretrain_acc()),
        learner.buffer().len(),
        config.capacity_bits.unwrap_or(0),
    );
    let server = Server::start(learner.registry(), ServerConfig::default())?;
    let addr = server.local_addr();
    println!("serving on {addr} (model v{})", learner.version());

    // Held-out test traffic, decimated to the method's operating
    // timestep T* (what the deployed device feeds the network).
    let data = phases::scenario_data(&config.scenario)?;
    let split = phases::scenario_split(&config.scenario)?;
    let operate = |dataset: &ncl_data::Dataset| -> Result<Vec<(SpikeRaster, u16)>, _> {
        dataset
            .iter()
            .map(|s| {
                phases::method_input(&s.raster, &config.method, &config.scenario)
                    .map(|(r, _)| (r, s.label))
            })
            .collect::<Result<Vec<_>, replay4ncl::NclError>>()
    };
    let old_test = operate(&split.pretrain_subset(&data.test))?;
    let new_test = operate(&split.continual_subset(&data.test))?;

    let mut client = NclClient::connect(addr)?;
    println!(
        "served accuracy before the arrival: old classes {}, unseen class {}",
        report::pct(served_accuracy(&mut client, &old_test)?),
        report::pct(served_accuracy(&mut client, &new_test)?),
    );

    // --- 2..4. Stream with a mid-stream novel-class arrival --------------
    let stream = SampleStream::generate(&StreamConfig {
        scenario: config.scenario.clone(),
        warmup_events: 20,
        total_events: 56,
        novel_every: 2,
        seed: 0xDAE_A07,
    })?;
    for event in stream.events() {
        match learner.ingest(event)? {
            IngestOutcome::Increment(r) => println!(
                "  seq {:>3}: increment v{} — trained {} samples for {} epochs in {:.0} ms, \
                 hot-swapped in {} µs, checkpointed in {:.1} ms",
                event.seq,
                r.version,
                r.train_samples,
                r.epoch_losses.len(),
                r.train_wall.as_secs_f64() * 1e3,
                r.swap_latency.as_micros(),
                r.checkpoint_wall.as_secs_f64() * 1e3,
            ),
            IngestOutcome::Pending { class, pending } => {
                println!(
                    "  seq {:>3}: novel class {class} ({pending} pending)",
                    event.seq
                );
            }
            _ => {}
        }
    }
    println!(
        "stream done: model v{}, {} replay entries ({} bits), event digest {:016x}",
        learner.version(),
        learner.buffer().len(),
        learner.buffer().footprint().total_bits,
        learner.event_digest(),
    );
    println!(
        "served accuracy after the increment: old classes {}, new class {}",
        report::pct(served_accuracy(&mut client, &old_test)?),
        report::pct(served_accuracy(&mut client, &new_test)?),
    );

    // --- 5. Kill + resume ------------------------------------------------
    learner.write_checkpoint()?;
    let model_before = serialize::to_bytes(learner.network());
    let digest_before = learner.event_digest();
    drop(learner); // the daemon process dies here
    let restored = OnlineLearner::resume(config)?;
    assert_eq!(serialize::to_bytes(restored.network()), model_before);
    assert_eq!(restored.event_digest(), digest_before);
    println!(
        "killed and resumed from {}: model v{} restored bit-identically at cursor {}",
        ckpt_path.display(),
        restored.version(),
        restored.cursor(),
    );

    server.shutdown();
    std::fs::remove_file(&ckpt_path).ok();
    println!("drained and stopped.");
    Ok(())
}
