//! The class-incremental phase: pre-training, then SpikingLR and
//! Replay4NCL from the same pre-trained network, over a fixed suite of
//! datasets. The passes time the public entry points (`phases::pretrain`,
//! `scenario::run_method`) less the time the host stole; a traced run adds one
//! pass through the per-layer calls, each in its own span.

use std::time::Instant;

use ncl_bench::{replay4ncl_spec, spiking_lr_spec};
use ncl_hw::OpCounts;
use ncl_snn::optimizer::Optimizer;
use ncl_snn::trainer::{self, TrainOptions, TrainScratch};
use ncl_snn::ThresholdSchedule;
use ncl_snn::{BpttScratch, ForwardScratch, Gradients, History, Network, ThresholdMode};
use ncl_spike::SpikeRaster;
use ncl_tensor::Rng;
use replay4ncl::phases::PretrainOutcome;
use replay4ncl::scenario::ScenarioResult;
use replay4ncl::{phases, scenario, MethodSpec, ScenarioConfig};

use crate::meta::timed;
use crate::report::{Metric, Run};
use crate::trace::{Parent, Recorder};
use crate::workload::Workload;

/// `phases::pretrain` seeds its shuffle with the scenario seed XOR this.
const PRETRAIN_SALT: u64 = 0x11;

/// The two methods under comparison, with their metric suffixes.
fn methods(w: &Workload) -> [(&'static str, MethodSpec); 2] {
    [
        ("spikinglr", spiking_lr_spec(&w.scenario)),
        ("replay4ncl", replay4ncl_spec(&w.scenario, w.scale)),
    ]
}

/// The scenario of pass `k`. The passes are a fixed suite of datasets,
/// the same in every run: a method either learns a new class or does not
/// (per-dataset new-class top-1 is bimodal), so accuracies averaged over
/// seed-drawn datasets would spread too widely to gate. Every other input
/// of the run comes from its seed.
pub fn pass_config(w: &Workload, k: usize) -> ScenarioConfig {
    let mut config = w.scenario.clone();
    config.data.seed ^= crate::workload::mix(k as u64 + 1);
    config
}

/// The phase's measurements, gathered over passes that a run splits
/// between its start and its end.
#[derive(Default)]
pub struct Cl {
    pretrain_s: Vec<f64>,
    slr_s: Vec<f64>,
    r4_s: Vec<f64>,
    old: Vec<f64>,
    new: Vec<f64>,
    first: Option<(
        ScenarioConfig,
        PretrainOutcome,
        ScenarioResult,
        ScenarioResult,
    )>,
}

impl Cl {
    /// Runs passes `ks` of the suite. Replay4NCL, the shortest step, runs
    /// twice per pass: twice the samples for its median, and a check that
    /// it reproduces its `ScenarioResult` exactly.
    pub fn passes(&mut self, w: &Workload, ks: std::ops::Range<usize>, run: &mut Run) {
        let [(_, slr_spec), (_, r4_spec)] = methods(w);
        for k in ks {
            let config = pass_config(w, k);
            run.attempted += 4;
            let (outcome, s) = timed(|| phases::pretrain(&config).expect("pre-training failed"));
            self.pretrain_s.push(s);
            let (slr, s) = timed(|| {
                scenario::run_method(&config, &slr_spec, &outcome.network, outcome.test_acc)
                    .expect("SpikingLR run failed")
            });
            self.slr_s.push(s);
            let mut timed_r4 = || {
                let (r4, s) = timed(|| {
                    scenario::run_method(&config, &r4_spec, &outcome.network, outcome.test_acc)
                        .expect("Replay4NCL run failed")
                });
                self.r4_s.push(s);
                r4
            };
            let (r4, again) = (timed_r4(), timed_r4());
            if again != r4 {
                run.fail(format!(
                    "pass {k}: a repeated Replay4NCL run gave different results"
                ));
            }
            if r4.memory.total_bits >= slr.memory.total_bits {
                run.fail(format!(
                    "Replay4NCL store ({} bits) is not smaller than SpikingLR's ({} bits)",
                    r4.memory.total_bits, slr.memory.total_bits
                ));
            }
            self.old.push(r4.final_old_acc());
            self.new.push(r4.final_new_acc());
            if self.first.is_none() {
                self.first = Some((config, outcome, slr, r4));
            }
        }
    }

    /// The first pass's scenario and pre-trained network.
    pub fn first(&self) -> (&ScenarioConfig, &Network) {
        let (config, outcome, ..) = self.first.as_ref().expect("a pass ran");
        (config, &outcome.network)
    }

    /// Reports the phase's metrics (and, traced, runs the traced pass).
    pub fn finish(self, w: &Workload, rec: &Recorder, run: &mut Run) {
        let (config, outcome, slr, r4) = self.first.expect("a pass ran");
        let mean = |v: &[f64]| v.iter().sum::<f64>() / v.len() as f64;
        run.e2e(Metric::median("pretrain_s", &self.pretrain_s, "s"));
        run.e2e(Metric::median("cl_spikinglr_s", &self.slr_s, "s"));
        run.e2e(Metric::median("cl_replay4ncl_s", &self.r4_s, "s"));
        run.e2e(Metric::new("old_top1", mean(&self.old), "ratio"));
        run.e2e(Metric::new("new_top1", mean(&self.new), "ratio"));
        run.e2e(Metric::new(
            "latent_kib",
            r4.memory.total_bits as f64 / 8.0 / 1024.0,
            "KiB",
        ));
        eprintln!(
            "cl: {} passes; Replay4NCL old/new top-1 per pass {:.4?} / {:.4?}; s per pass: \
             pretrain {:.4?}, SpikingLR {:.4?}, Replay4NCL {:.4?}",
            self.old.len(),
            self.old,
            self.new,
            self.pretrain_s,
            self.slr_s,
            self.r4_s
        );
        if rec.enabled() {
            let traced_r4_s = traced_pass(w, &config, &outcome, rec, run, [&slr, &r4]);
            let untraced = crate::stats::median(&self.r4_s).unwrap_or(f64::NAN);
            run.layer(Metric::new(
                "trace.overhead.cl_replay4ncl",
                traced_r4_s / untraced - 1.0,
                "ratio",
            ));
        }
    }
}

/// One pass through the per-layer calls, each inside a span: the
/// pre-training of `outcome` and `run_method` for both methods, replayed
/// step by step, each checked to reproduce the untimed call's result.
/// Returns the traced Replay4NCL run's time (s).
fn traced_pass(
    w: &Workload,
    config: &ScenarioConfig,
    outcome: &PretrainOutcome,
    rec: &Recorder,
    run: &mut Run,
    expected: [&ScenarioResult; 2],
) -> f64 {
    let mut r4_s = 0.0;
    rec.span("cl.pass", None, |root| {
        traced_pretrain(config, outcome, rec, root, run);
        for ((tag, method), want) in methods(w).iter().zip(expected) {
            let (got, s) = timed(|| {
                rec.span(leak(format!("cl.method.{tag}")), root, |parent| {
                    traced_method(config, tag, method, &outcome.network, rec, parent)
                })
            });
            r4_s = s;
            if got != (want.final_old_acc(), want.final_new_acc()) {
                run.fail(format!(
                    "traced {tag} pass diverged from run_method: {got:?}"
                ));
            }
            run.layer(Metric::new(
                &format!("core.latent_bits.{tag}"),
                want.memory.total_bits as f64,
                "bits",
            ));
        }
    });
    r4_s
}

/// A span name built at run time. The tracer takes `&'static str` names;
/// a traced pass builds a dozen, once each.
fn leak(name: String) -> &'static str {
    Box::leak(name.into_boxed_str())
}

/// `phases::pretrain`, twice over the same batches, each checked to
/// produce its network weight for weight. First as the program runs it
/// (`train_epoch_with` at the scenario's parallelism), one span per
/// epoch; then serially, one sample at a time, with forward
/// (`record_from_into`), BPTT (`backward_into`) and the optimizer step in
/// separate spans: the serial split of the same work.
fn traced_pretrain(
    config: &ScenarioConfig,
    outcome: &PretrainOutcome,
    rec: &Recorder,
    root: Parent,
    run: &mut Run,
) {
    let data = rec.span("data.generate", root, |_| {
        phases::scenario_data(config).expect("data generation failed")
    });
    let split = phases::scenario_split(config).expect("split failed");
    let train = split.pretrain_subset(&data.train);
    let refs = phases::sample_refs(&train);
    let fresh = || {
        (
            Network::new(config.network.clone()).expect("valid network"),
            Optimizer::adam(config.pretrain_lr),
            Rng::seed_from_u64(config.seed ^ PRETRAIN_SALT),
        )
    };

    let (mut net, mut optimizer, mut rng) = fresh();
    let options = TrainOptions {
        from_stage: 0,
        batch_size: config.batch_size,
        parallelism: config.parallelism,
        threshold_mode: ThresholdMode::Constant,
    };
    let mut scratch = TrainScratch::new();
    let mut epoch_ms = Vec::new();
    for _ in 0..config.pretrain_epochs {
        let t = Instant::now();
        rec.span("snn.pretrain_epoch", root, |_| {
            trainer::train_epoch_with(
                &mut net,
                &refs,
                &mut optimizer,
                &options,
                &mut rng,
                &mut scratch,
            )
            .expect("pre-training epoch")
        });
        epoch_ms.push(t.elapsed().as_secs_f64() * 1e3);
    }
    let pooled = net;

    let (mut net, mut optimizer, mut rng) = fresh();
    let trained_params = net.trainable_params(0).expect("stage 0") as u64;
    let base = net.config().lif.v_threshold;
    let mut schedule = ThresholdSchedule::empty();
    let (mut history, mut fwd, mut bptt) =
        (History::empty(), ForwardScratch::new(), BpttScratch::new());
    let mut total = Gradients::zeros(&net, 0).expect("gradients");
    let mut grads = Gradients::zeros(&net, 0).expect("gradients");
    let mut ops = OpCounts::default();
    rec.span("snn.pretrain_serial", root, |serial| {
        for _ in 0..config.pretrain_epochs {
            // train_epoch_with's batches: 0..n shuffled by the same stream.
            let mut order: Vec<usize> = (0..refs.len()).collect();
            rng.shuffle(&mut order);
            for batch in order.chunks(config.batch_size) {
                total.zero_fill();
                for &i in batch {
                    let (raster, label) = refs[i];
                    rec.span("snn.forward", serial, |_| {
                        ThresholdMode::Constant
                            .schedule_into(raster, base, &mut schedule)
                            .expect("schedule");
                        net.record_from_into(0, raster, Some(&schedule), &mut history, &mut fwd)
                            .expect("forward");
                    });
                    rec.span("snn.bptt", serial, |_| {
                        grads.zero_fill();
                        ncl_snn::bptt::backward_into(
                            &net,
                            &history,
                            usize::from(label),
                            &mut grads,
                            &mut bptt,
                        )
                        .expect("backward");
                        total.accumulate(&grads).expect("accumulate");
                    });
                    ops += OpCounts::training(
                        &history.activity,
                        config.network.recurrent,
                        trained_params,
                    );
                }
                rec.span("snn.optimizer", serial, |_| {
                    optimizer
                        .step_scaled(&mut net, &total, 1.0 / batch.len() as f32)
                        .expect("optimizer step");
                });
            }
        }
    });
    if pooled != outcome.network || net != outcome.network {
        run.fail("traced pre-training diverged from phases::pretrain".into());
    }
    run.layer(Metric::new(
        "snn.synaptic_ops",
        ops.synaptic_ops as f64,
        "count",
    ));
    run.layer(Metric::median("snn.pretrain_epoch_ms", &epoch_ms, "ms"));
}

/// `scenario::run_method`, step for step, each step in a span. Returns
/// the final (old, new) top-1.
fn traced_method(
    config: &ScenarioConfig,
    tag: &str,
    method: &MethodSpec,
    pretrained: &Network,
    rec: &Recorder,
    parent: Parent,
) -> (f64, f64) {
    let data = rec.span("data.generate", parent, |_| {
        phases::scenario_data(config).expect("data generation failed")
    });
    let split = phases::scenario_split(config).expect("split failed");
    let mut network = pretrained.clone();
    let (buffer, _) = rec.span(leak(format!("core.prepare.{tag}")), parent, |_| {
        phases::prepare_buffer(&network, config, method, &data.train, &split).expect("prepare")
    });
    let decompress = method.replay.as_ref().is_some_and(|r| r.decompress);
    let replay = rec.span(leak(format!("spike.replay_samples.{tag}")), parent, |_| {
        buffer.replay_samples(decompress).expect("replay samples")
    });
    let cl_train = split.continual_subset(&data.train);
    let (new_samples, _) = rec.span(leak(format!("core.anew.{tag}")), parent, |_| {
        phases::new_task_activations(&network, config, method, &cl_train).expect("A_new")
    });
    let old_test = split.pretrain_subset(&data.test);
    let new_test = split.continual_subset(&data.test);
    let (old_eval, new_eval) = rec.span(leak(format!("core.eval_inputs.{tag}")), parent, |_| {
        (
            phases::eval_activations(&network, config, method, &old_test).expect("eval inputs"),
            phases::eval_activations(&network, config, method, &new_test).expect("eval inputs"),
        )
    });
    let old_refs: Vec<(&SpikeRaster, u16)> = old_eval.iter().map(|(r, l)| (r, *l)).collect();
    let new_refs: Vec<(&SpikeRaster, u16)> = new_eval.iter().map(|(r, l)| (r, *l)).collect();
    let mut train_set: Vec<(&SpikeRaster, u16)> =
        new_samples.iter().map(|(r, l)| (r, *l)).collect();
    train_set.extend(replay.iter().map(|(r, l)| (r, *l)));
    let mut optimizer = Optimizer::adam(config.pretrain_lr / method.lr_divisor);
    let options = TrainOptions {
        from_stage: config.insertion_layer,
        batch_size: config.batch_size,
        parallelism: config.parallelism,
        threshold_mode: method.threshold_mode,
    };
    let mut rng = phases::cl_rng(config);
    let mut scratch = TrainScratch::new();
    let (epoch_name, eval_name) = (
        leak(format!("snn.cl_epoch.{tag}")),
        leak(format!("snn.eval.{tag}")),
    );
    let mut accs = (0.0, 0.0);
    for _ in 0..config.cl_epochs {
        rec.span(epoch_name, parent, |_| {
            trainer::train_epoch_with(
                &mut network,
                &train_set,
                &mut optimizer,
                &options,
                &mut rng,
                &mut scratch,
            )
            .expect("CL epoch");
        });
        accs = rec.span(eval_name, parent, |_| {
            let eval = |refs: &[(&SpikeRaster, u16)]| {
                trainer::evaluate(
                    &network,
                    refs,
                    config.insertion_layer,
                    method.threshold_mode,
                )
                .expect("evaluate")
                .top1()
            };
            (eval(&old_refs), eval(&new_refs))
        });
    }
    accs
}
