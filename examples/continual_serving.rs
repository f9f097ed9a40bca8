//! Continual learning **while serving**: the deployment story the paper
//! is built for, end to end.
//!
//! 1. Pre-train a recurrent SNN on the old classes and start `ncl-serve`
//!    on an ephemeral localhost port.
//! 2. Serve live traffic over the NDJSON TCP protocol.
//! 3. Run a Replay4NCL continual-learning increment *while the old model
//!    keeps serving*: capture latent-replay activations at the insertion
//!    layer (reduced timestep T*), mix them with the new class, train
//!    the unfrozen stages.
//! 4. Hot-swap the updated network in through the wire protocol — under
//!    concurrent request load, with zero dropped requests.
//! 5. Keep serving: the new class now classifies, the old classes still
//!    do.
//!
//! ```sh
//! cargo run --release --example continual_serving
//! ```

use std::sync::atomic::{AtomicBool, AtomicU64, Ordering};
use std::sync::Arc;
use std::time::Duration;

use ncl_serve::batcher::BatchConfig;
use ncl_serve::client::NclClient;
use ncl_serve::protocol;
use ncl_serve::registry::ModelRegistry;
use ncl_serve::server::{Server, ServerConfig};
use ncl_snn::serialize;
use ncl_snn::trainer::IncrementalTrainer;
use ncl_spike::SpikeRaster;
use replay4ncl::{cache, methods::MethodSpec, phases, report, ScenarioConfig};
use serde_json::Value;

/// Accuracy of the *served* model over labeled samples, via TCP.
fn served_accuracy(
    client: &mut NclClient,
    samples: &[(&SpikeRaster, u16)],
) -> std::io::Result<f64> {
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
    // --- 1. Pre-train (cached across runs) and start serving ------------
    let mut config = ScenarioConfig::smoke();
    config.cl_epochs = 16;
    let (network, pretrain_acc) = cache::pretrained_network(&config)?;
    println!(
        "pre-trained on {} old classes: {} test accuracy",
        config.old_classes(),
        report::pct(pretrain_acc)
    );

    let registry = Arc::new(ModelRegistry::new(network.clone(), "pretrained"));
    let server = Server::start(
        Arc::clone(&registry),
        ServerConfig {
            port: 0,
            batch: BatchConfig::default(),
        },
    )?;
    let addr = server.local_addr();
    println!("serving on {addr} (model v1)");

    // --- 2. Live traffic against the old model --------------------------
    let data = phases::scenario_data(&config)?;
    let split = phases::scenario_split(&config)?;
    let old_test = split.pretrain_subset(&data.test);
    let new_test = split.continual_subset(&data.test);
    let old_refs: Vec<(&SpikeRaster, u16)> = phases::sample_refs(&old_test);
    let new_refs: Vec<(&SpikeRaster, u16)> = phases::sample_refs(&new_test);

    let mut client = NclClient::connect(addr)?;
    let old_before = served_accuracy(&mut client, &old_refs)?;
    let new_before = served_accuracy(&mut client, &new_refs)?;
    println!(
        "served accuracy before increment: old classes {}, unseen class {}",
        report::pct(old_before),
        report::pct(new_before)
    );

    // --- 3. Replay4NCL increment while v1 keeps serving -----------------
    let t_star = (config.data.steps * 2 / 5).max(1);
    let method = MethodSpec::replay4ncl(6, t_star).with_lr_divisor(2.0);
    let mut updated = network.clone();
    let (buffer, _prep_ops) =
        phases::prepare_buffer(&updated, &config, &method, &data.train, &split)?;
    println!(
        "latent store: {} entries at T*={} ({} bits under {:?} alignment)",
        buffer.len(),
        t_star,
        buffer.footprint().total_bits,
        config.alignment,
    );
    let replay_samples = buffer.replay_samples(false)?;
    let cl_train = split.continual_subset(&data.train);
    let (new_samples, _) = phases::new_task_activations(&updated, &config, &method, &cl_train)?;

    let mut train_set: Vec<(&SpikeRaster, u16)> = Vec::new();
    train_set.extend(new_samples.iter().map(|(r, l)| (r, *l)));
    train_set.extend(replay_samples.iter().map(|(r, l)| (r, *l)));
    let mut epoch = 0;
    phases::increment(
        &mut IncrementalTrainer::new(),
        &mut updated,
        &config,
        &method,
        &train_set,
        &mut phases::cl_rng(&config),
        |_, report| {
            if epoch % 4 == 0 || epoch + 1 == config.cl_epochs {
                println!("  CL epoch {epoch}: mean loss {:.4}", report.mean_loss);
            }
            epoch += 1;
            Ok(())
        },
    )?;

    // --- 4. Hot-swap through the wire protocol, under load --------------
    let ckpt_dir = std::env::temp_dir().join("ncl-continual-serving");
    std::fs::create_dir_all(&ckpt_dir)?;
    let ckpt = ckpt_dir.join("increment-1.bin");
    serialize::to_file(&updated, &ckpt)?;

    let stop = AtomicBool::new(false);
    let background_ok = AtomicU64::new(0);
    let background_failed = AtomicU64::new(0);
    std::thread::scope(|scope| -> Result<(), Box<dyn std::error::Error>> {
        scope.spawn(|| {
            // Background traffic spanning the swap.
            let Ok(mut bg) = NclClient::connect(addr) else {
                background_failed.fetch_add(1, Ordering::Relaxed);
                return;
            };
            let mut id = 0u64;
            while !stop.load(Ordering::Relaxed) {
                let (raster, _) = old_refs[id as usize % old_refs.len()];
                match bg.round_trip(&protocol::predict_request_line(id, raster)) {
                    Ok(reply) if reply.get("ok").and_then(Value::as_bool) == Some(true) => {
                        background_ok.fetch_add(1, Ordering::Relaxed);
                    }
                    _ => {
                        background_failed.fetch_add(1, Ordering::Relaxed);
                    }
                }
                id += 1;
            }
        });
        std::thread::sleep(Duration::from_millis(100));
        let mut control = NclClient::connect(addr)?;
        let reply = control.swap(&ckpt.display().to_string())?;
        assert_eq!(reply.get("ok").and_then(Value::as_bool), Some(true));
        println!(
            "hot-swapped to model v{} while serving",
            reply
                .get("model_version")
                .and_then(Value::as_u64)
                .unwrap_or(0)
        );
        std::thread::sleep(Duration::from_millis(100));
        stop.store(true, Ordering::Relaxed);
        Ok(())
    })?;
    println!(
        "background traffic across the swap: {} ok, {} failed",
        background_ok.load(Ordering::Relaxed),
        background_failed.load(Ordering::Relaxed),
    );

    // --- 5. Keep serving: the increment is live -------------------------
    // Replay4NCL trains the unfrozen stages at the reduced operating
    // timestep T*, and the deployed device operates there too (that is
    // the latency/energy win) — so post-increment traffic is decimated
    // to T* before it goes on the wire.
    let operate = |refs: &[(&SpikeRaster, u16)]| -> Result<Vec<(SpikeRaster, u16)>, _> {
        refs.iter()
            .map(|(r, l)| phases::method_input(r, &method, &config).map(|(d, _)| (d, *l)))
            .collect::<Result<Vec<_>, replay4ncl::NclError>>()
    };
    let old_operated = operate(&old_refs)?;
    let new_operated = operate(&new_refs)?;
    let old_after = served_accuracy(
        &mut client,
        &old_operated
            .iter()
            .map(|(r, l)| (r, *l))
            .collect::<Vec<_>>(),
    )?;
    let new_after = served_accuracy(
        &mut client,
        &new_operated
            .iter()
            .map(|(r, l)| (r, *l))
            .collect::<Vec<_>>(),
    )?;
    println!(
        "served accuracy after increment (operating at T*={t_star}): old classes {}, new class {}",
        report::pct(old_after),
        report::pct(new_after)
    );

    let stats = client.stats()?;
    if let Some(serving) = stats.get("serving") {
        println!(
            "server: {} requests, p99 latency {} µs, {} hot swap(s)",
            serving
                .get("requests_ok")
                .and_then(Value::as_u64)
                .unwrap_or(0),
            serving
                .get("latency_us")
                .and_then(|l| l.get("p99"))
                .and_then(Value::as_u64)
                .unwrap_or(0),
            serving.get("swaps").and_then(Value::as_u64).unwrap_or(0),
        );
    }

    std::fs::remove_file(&ckpt).ok();
    server.shutdown();
    println!("drained and stopped.");
    Ok(())
}
