//! The paper's figures and ablations as one table of engine suites.
//!
//! Each [`Figure`] pairs a suite builder — the experiment cells the figure
//! needs, composed from the `ncl_runtime::suites` grids and the harness
//! specs — with a renderer that turns the suite's report into the figure's
//! tables, and a one-line note of the shape the paper shows. Every result
//! carries the [`MethodSpec`] it ran, so a renderer reads which variant a
//! row is from the result itself, and a figure builds only the cells its
//! renderer prints. Fig. 1(a) runs the baseline at insertion layer 0
//! alone, Fig. 2(b) only Fig. 8's `T` and `T/5` cells and Fig. 11 only the
//! headline's SpikingLR and Replay4NCL cells. Fig. 12 runs Fig. 10's grid
//! at one CL epoch: `phases::prepare_buffer` fixes a footprint before any
//! epoch runs. Each figure fixes its own insertion layer; other grids are
//! `ncl-run --suite` files.
//!
//! `ncl-run --figure NAME` runs an entry. `control_rate_coded` is not in
//! the table: it trains its own networks on rate-coded data, so it is not
//! a grid of scenario jobs.

use ncl_hw::CostReport;
use ncl_runtime::{suites, Job, Suite, SuiteReport};
use ncl_snn::adaptive::{AdaptivePolicy, ThresholdMode};
use ncl_snn::surrogate::SurrogateKind;
use ncl_spike::memory::bits_to_kib;
use ncl_tensor::stats;
use replay4ncl::{report, EpochRecord, MethodSpec, ScenarioConfig, ScenarioResult};

use crate::{replay4ncl_spec, replay_per_class, spiking_lr_spec, t_star_of, Scale};

/// One figure or ablation: how to build its suite and how to print it.
#[derive(Debug)]
pub struct Figure {
    /// The `--figure` name.
    pub name: &'static str,
    /// What the figure shows, with its paper reference.
    pub title: &'static str,
    /// Builds the figure's cells for a base configuration and scale.
    pub build: fn(&ScenarioConfig, Scale) -> Suite,
    /// Renders the report of [`Figure::build`]'s suite as tables.
    pub render: fn(&SuiteReport) -> String,
    /// The shape the paper shows, printed under the tables.
    pub note: &'static str,
}

impl Figure {
    /// The full text page: a header naming the figure and the scenario
    /// the suite ran, the rendered tables and the paper-shape note.
    #[must_use]
    pub fn page(&self, suite: &Suite, report: &SuiteReport) -> String {
        let c = &suite.jobs[0].config;
        let (lo, hi) = suite
            .jobs
            .iter()
            .fold((c.insertion_layer, 0), |(lo, hi), j| {
                let k = j.config.insertion_layer;
                (lo.min(k), hi.max(k))
            });
        let insertion = if lo == hi {
            format!("{lo}")
        } else {
            format!("{lo}..={hi}")
        };
        format!(
            "=== {}: {} ===\n{} channels, {} classes, T={}, net {:?}, insertion {insertion}, \
             {} CL epochs\n{}\n\n{}",
            self.name,
            self.title,
            c.data.channels,
            c.data.classes,
            c.data.steps,
            c.network.hidden_sizes,
            c.cl_epochs,
            (self.render)(report),
            self.note,
        )
    }
}

/// Every figure and ablation, in paper order.
pub const FIGURES: &[Figure] = &[
    Figure {
        name: "fig01",
        title: "Fig. 1(a), catastrophic forgetting of the no-NCL baseline at insertion layer 0",
        build: baseline_cell,
        render: render_fig01,
        note: "paper shape: old-task accuracy drops sharply as the new task is learned \
               (Fig. 1(a))",
    },
    Figure {
        name: "fig02a",
        title: "Fig. 2(a), SpikingLR overheads vs the no-NCL baseline",
        build: overhead_grid,
        render: render_fig02a,
        note: "paper shape: SpikingLR costs a multiple of the baseline at every insertion \
               layer (Fig. 2(a): ~2-6x latency, ~2-8x energy)",
    },
    Figure {
        name: "fig02b",
        title: "Fig. 2(b), accuracy under aggressive timestep reduction",
        build: timestep_ends,
        render: render_fig02b,
        note: "paper shape: significant accuracy degradation at T/5 without enhancements",
    },
    Figure {
        name: "fig08",
        title: "Fig. 8, accuracy & latency across timestep settings",
        build: timestep_grid,
        render: render_fig08,
        note: "paper shapes: old-task accuracy degrades as T shrinks (worst at 0.2T); \
               processing time decreases with T (Observations A-C)",
    },
    Figure {
        name: "fig10",
        title: "Fig. 10, accuracy/time/energy across insertion layers",
        build: insertion_grid,
        render: render_fig10,
        note: "paper shapes: comparable accuracy (new-task drops at insertion 3); \
               Replay4NCL up to ~2.3x faster and up to ~57% lower energy",
    },
    Figure {
        name: "fig11",
        title: "Fig. 11, epoch profiles at the headline insertion layer",
        build: method_pair,
        render: render_fig11,
        note: "paper: old-task top-1 86.22% (SpikingLR) vs 90.43% (Replay4NCL); \
               36.4% energy saving at layer 3",
    },
    Figure {
        name: "fig12",
        title: "Fig. 12, latent memory across insertion layers",
        build: footprint_grid,
        render: render_fig12,
        note: "paper shapes: memory shrinks toward later layers; Replay4NCL saves \
               20%-21.88% at every insertion layer",
    },
    Figure {
        name: "fig13",
        title: "Fig. 13, long-training convergence comparison",
        build: long_training,
        render: render_fig13,
        note: "paper shape: Replay4NCL's lower learning rate gives better convergence \
               (smoother curve) over the long run",
    },
    Figure {
        name: "headline",
        title: "the abstract's numbers at the deepest insertion layer, T* = 2T/5",
        build: headline_jobs,
        render: render_headline,
        note: "paper reports: old 90.43% vs 86.22%, 4.88x latency, 20% memory, 36.43% \
               energy (absolute values differ on synthetic data)",
    },
    Figure {
        name: "ablation-knobs",
        title: "contribution of each Replay4NCL knob",
        build: knob_ablation,
        render: render_knob_ablation,
        note: "expected: enhancements recover accuracy lost to naive reduction, most \
               visibly at the aggressive 0.2T setting; the literal threshold variant \
               trades the efficiency gains for extra spikes",
    },
    Figure {
        name: "ablation-surrogate",
        title: "surrogate-gradient shapes",
        build: surrogate_ablation,
        render: render_surrogate_ablation,
        note: "expectation: all standard shapes train; the paper's fast sigmoid is a \
               solid default rather than a uniquely-enabling choice",
    },
    Figure {
        name: "calibrate",
        title: "the sweep of CL learning-rate divisors, threshold modes and T* \
                the harness defaults were picked from",
        build: calibration,
        render: render_calibration,
        note: "the harness's divisors are `cl_lr_divisor`; the speed-up is SpikingLR's \
               latency over the row's",
    },
];

/// Looks a figure up by its `--figure` name.
#[must_use]
pub fn figure(name: &str) -> Option<&'static Figure> {
    FIGURES.iter().find(|f| f.name == name)
}

/// `config` at insertion layer `layer`.
fn at_layer(config: &ScenarioConfig, layer: usize) -> ScenarioConfig {
    let mut config = config.clone();
    config.insertion_layer = layer;
    config
}

/// One job per method, labelled by the method's name.
fn method_jobs(name: String, config: &ScenarioConfig, methods: Vec<MethodSpec>) -> Suite {
    let mut suite = Suite::new(name);
    for method in methods {
        suite.push(Job::new(method.name.clone(), config.clone(), method));
    }
    suite
}

/// Fig. 1(a)'s one cell: the no-NCL baseline at insertion layer 0.
fn baseline_cell(config: &ScenarioConfig, _scale: Scale) -> Suite {
    let config = at_layer(config, 0);
    method_jobs("fig01".into(), &config, vec![MethodSpec::baseline()])
}

/// Fig. 2(a)'s grid: the no-NCL baseline and SpikingLR at every insertion
/// layer.
fn overhead_grid(config: &ScenarioConfig, _scale: Scale) -> Suite {
    suites::insertion_sweep(config, &[MethodSpec::baseline(), spiking_lr_spec(config)])
}

/// Fig. 8's grid: SpikingLR at native T and naively reduced to
/// 0.6/0.4/0.2 T, at the deepest insertion layer.
fn timestep_grid(config: &ScenarioConfig, _scale: Scale) -> Suite {
    let config = at_layer(config, config.network.layers());
    suites::timestep_sweep(&config, replay_per_class(&config))
}

/// Fig. 2(b)'s two cells: the ends of Fig. 8's grid, T and T/5.
fn timestep_ends(config: &ScenarioConfig, scale: Scale) -> Suite {
    let mut suite = timestep_grid(config, scale);
    let inner = 1..suite.jobs.len() - 1;
    suite.jobs.drain(inner);
    suite
}

/// Fig. 10's grid: SpikingLR and Replay4NCL at every insertion layer.
fn insertion_grid(config: &ScenarioConfig, scale: Scale) -> Suite {
    let methods = [spiking_lr_spec(config), replay4ncl_spec(config, scale)];
    suites::insertion_sweep(config, &methods)
}

/// Fig. 12's grid: Fig. 10's at one CL epoch, which is enough to read
/// every cell's latent footprint.
fn footprint_grid(config: &ScenarioConfig, scale: Scale) -> Suite {
    let mut config = config.clone();
    config.cl_epochs = 1;
    insertion_grid(&config, scale)
}

/// The headline jobs: baseline, SpikingLR and Replay4NCL at the deepest
/// insertion layer.
fn headline_jobs(config: &ScenarioConfig, scale: Scale) -> Suite {
    let config = at_layer(config, config.network.layers());
    let methods = vec![
        MethodSpec::baseline(),
        spiking_lr_spec(&config),
        replay4ncl_spec(&config, scale),
    ];
    method_jobs("headline".into(), &config, methods)
}

/// Fig. 11's cells: the headline's SpikingLR and Replay4NCL.
fn method_pair(config: &ScenarioConfig, scale: Scale) -> Suite {
    let mut suite = headline_jobs(config, scale);
    suite.jobs.remove(0);
    suite
}

/// Fig. 13: [`method_pair`] over an extended run — the paper's 150
/// epochs, or three times the demo's budget.
fn long_training(config: &ScenarioConfig, scale: Scale) -> Suite {
    let mut config = config.clone();
    config.cl_epochs = match scale {
        Scale::Paper => 150,
        Scale::Demo => 3 * config.cl_epochs,
    };
    let mut suite = method_pair(&config, scale);
    suite.name = format!("long-training-{}", config.cl_epochs);
    suite
}

/// The knob ablation at insertion layer 1 (hidden layers train, so every
/// knob acts): the SpikingLR reference, then at 0.4 T and 0.2 T naive
/// reduction, each enhancement alone, full Replay4NCL and the literal
/// Alg. 1 threshold. Each variant's spec is named by its row text and its
/// job labelled `<variant>@T*=<steps>`.
fn knob_ablation(config: &ScenarioConfig, scale: Scale) -> Suite {
    let config = at_layer(config, 1);
    let per_class = replay_per_class(&config);
    let divisor = crate::cl_lr_divisor(scale);
    let t = config.data.steps;
    let mut suite = method_jobs(
        "ablation-knobs".into(),
        &config,
        vec![spiking_lr_spec(&config)],
    );
    for t_star in [t_star_of(t), (t / 5).max(1)] {
        let variants = [
            (
                "naive reduction",
                MethodSpec::spiking_lr_reduced(per_class, t_star),
            ),
            (
                "+ adaptive threshold",
                MethodSpec::replay4ncl_ablation(per_class, t_star, true, false),
            ),
            (
                "+ reduced lr",
                MethodSpec::replay4ncl_ablation(per_class, t_star, false, true)
                    .with_lr_divisor(divisor),
            ),
            (
                "full Replay4NCL",
                MethodSpec::replay4ncl(per_class, t_star).with_lr_divisor(divisor),
            ),
            (
                "literal Alg.1 threshold",
                literal_threshold(per_class, t_star, divisor),
            ),
        ];
        for (variant, mut method) in variants {
            method.name = variant.into();
            suite.push(Job::new(
                format!("{variant}@T*={t_star}"),
                config.clone(),
                method,
            ));
        }
    }
    suite
}

/// Replay4NCL with the literal Alg. 1 threshold
/// (`AdaptiveVariant::LiteralAlg1`) in place of the shipped one.
fn literal_threshold(per_class: usize, t_star: usize, divisor: f32) -> MethodSpec {
    let mut method = MethodSpec::replay4ncl(per_class, t_star).with_lr_divisor(divisor);
    method.threshold_mode = ThresholdMode::Adaptive(AdaptivePolicy::literal());
    method.name = "Replay4NCL-literal".into();
    method
}

/// The surrogate ablation at insertion layer 1: Replay4NCL with each
/// standard surrogate shape. The pre-train cache keys on the network
/// config, so each shape pre-trains its own model.
fn surrogate_ablation(config: &ScenarioConfig, scale: Scale) -> Suite {
    let mut suite = Suite::new("ablation-surrogate");
    for kind in [
        SurrogateKind::FastSigmoid,
        SurrogateKind::ArcTan,
        SurrogateKind::Triangular,
        SurrogateKind::Gaussian,
    ] {
        let mut config = at_layer(config, 1);
        config.network.lif.surrogate_kind = kind;
        let method = replay4ncl_spec(&config, scale);
        suite.push(Job::new(format!("{kind:?}"), config, method));
    }
    suite
}

/// The calibration sweep at the deepest insertion layer: the headline
/// jobs, then SpikingLR at T* and Replay4NCL over the divisors, threshold
/// modes and T* the headline does not run.
fn calibration(config: &ScenarioConfig, scale: Scale) -> Suite {
    let mut suite = headline_jobs(config, scale);
    suite.name = "calibrate".into();
    let config = suite.jobs[0].config.clone();
    let per_class = replay_per_class(&config);
    let t = config.data.steps;
    let t_star = t_star_of(t);
    let methods = [
        MethodSpec::spiking_lr_reduced(per_class, t_star),
        MethodSpec::replay4ncl(per_class, t_star).with_lr_divisor(2.0),
        MethodSpec::replay4ncl(per_class, t_star).with_lr_divisor(3.0),
        MethodSpec::replay4ncl(per_class, t_star).with_lr_divisor(5.0),
        MethodSpec::replay4ncl_ablation(per_class, t_star, false, true).with_lr_divisor(3.0),
        MethodSpec::replay4ncl_ablation(per_class, t_star, true, false),
        literal_threshold(per_class, t_star, 3.0),
        MethodSpec::replay4ncl(per_class, (t / 5).max(1)).with_lr_divisor(3.0),
    ];
    for method in methods {
        if suite.jobs.iter().all(|j| j.method != method) {
            suite.push(Job::new(method.name.clone(), config.clone(), method));
        }
    }
    suite
}

/// The last two results of a report: [`method_pair`]'s SpikingLR and
/// Replay4NCL (last in the headline's too), or Fig. 2(b)'s T and T/5.
fn last_two(report: &SuiteReport) -> (&ScenarioResult, &ScenarioResult) {
    let [.., a, b] = &report.jobs[..] else {
        panic!("suite '{}' has fewer than two jobs", report.suite)
    };
    (&a.result, &b.result)
}

/// The results of an insertion-sweep suite as `(first, second)` method
/// pairs, one per insertion layer.
fn layer_pairs(report: &SuiteReport) -> Vec<(&ScenarioResult, &ScenarioResult)> {
    report
        .jobs
        .chunks_exact(2)
        .map(|pair| (&pair[0].result, &pair[1].result))
        .collect()
}

/// SpikingLR-vs-Replay4NCL cost rows `(key, SpikingLR, Replay4NCL)`: both
/// normalized to `reference`, then Replay4NCL's speed-up and energy saving.
fn cost_table(
    key: &str,
    reference: &CostReport,
    rows: impl Iterator<Item = (String, CostReport, CostReport)>,
) -> String {
    let rows: Vec<Vec<String>> = rows
        .map(|(key, s, o)| {
            vec![
                key,
                format!("{:.3}", s.normalized_latency(reference)),
                format!("{:.3}", o.normalized_latency(reference)),
                format!("{:.3}", s.normalized_energy(reference)),
                format!("{:.3}", o.normalized_energy(reference)),
                format!("{:.2}x", o.speedup_vs(&s)),
                report::pct(o.energy_saving_vs(&s)),
            ]
        })
        .collect();
    let headers = [
        key,
        "SOTA time",
        "R4NCL time",
        "SOTA energy",
        "R4NCL energy",
        "speed-up",
        "energy saving",
    ];
    report::render_table(&headers, &rows)
}

/// A per-epoch table: the epoch, then for each metric its value in each
/// result, as a percentage.
fn epoch_table(
    headers: &[&str],
    results: &[&ScenarioResult],
    metrics: &[fn(&EpochRecord) -> f64],
) -> String {
    let rows: Vec<Vec<String>> = (0..results[0].epochs.len())
        .map(|e| {
            let mut row = vec![format!("{e}")];
            for metric in metrics {
                row.extend(results.iter().map(|r| report::pct(metric(&r.epochs[e]))));
            }
            row
        })
        .collect();
    report::render_table(headers, &rows)
}

fn old_acc(e: &EpochRecord) -> f64 {
    e.old_acc
}

fn new_acc(e: &EpochRecord) -> f64 {
    e.new_acc
}

fn render_fig01(report: &SuiteReport) -> String {
    let result = &report.jobs[0].result;
    let rows: Vec<Vec<String>> = result
        .epochs
        .iter()
        .map(|e| {
            vec![
                format!("{}", e.epoch),
                report::pct(e.old_acc),
                report::pct(e.new_acc),
                format!("{:.4}", e.mean_loss),
            ]
        })
        .collect();
    format!(
        "pre-trained old-class accuracy: {}\n{}\n\n\
         forgetting after {} epochs: {} (old acc {} -> {})",
        report::pct(result.pretrain_acc),
        report::render_table(
            &[
                "epoch",
                "old-task acc (pre-trained)",
                "new-task acc",
                "train loss"
            ],
            &rows
        ),
        result.epochs.len(),
        report::pct(result.forgetting()),
        report::pct(result.pretrain_acc),
        report::pct(result.final_old_acc()),
    )
}

fn render_fig02a(report: &SuiteReport) -> String {
    let rows: Vec<Vec<String>> = layer_pairs(report)
        .into_iter()
        .map(|(baseline, sota)| {
            let b = baseline.total_cost();
            let s = sota.total_cost();
            vec![
                format!("{}", sota.insertion_layer),
                format!("{:.2}x", s.normalized_latency(&b)),
                format!("{:.2}x", s.normalized_energy(&b)),
                format!("{}", s.latency),
                format!("{}", s.energy),
            ]
        })
        .collect();
    report::render_table(
        &[
            "LR insertion layer",
            "SpikingLR latency (norm. to baseline)",
            "SpikingLR energy (norm. to baseline)",
            "SpikingLR latency",
            "SpikingLR energy",
        ],
        &rows,
    )
}

fn render_fig02b(report: &SuiteReport) -> String {
    let (native, reduced) = last_two(report);
    let (t, t5) = (native.operating_steps, reduced.operating_steps);
    let headers = [
        "epoch",
        &format!("old acc @ T={t}"),
        &format!("old acc @ T={t5}"),
        &format!("new acc @ T={t}"),
        &format!("new acc @ T={t5}"),
    ];
    format!(
        "{}\n\nfinal old-task accuracy: {} @ T={t} vs {} @ T={t5} (drop {})",
        epoch_table(&headers, &[native, reduced], &[old_acc, new_acc]),
        report::pct(native.final_old_acc()),
        report::pct(reduced.final_old_acc()),
        report::pct(native.final_old_acc() - reduced.final_old_acc()),
    )
}

fn render_fig08(report: &SuiteReport) -> String {
    let results: Vec<&ScenarioResult> = report.jobs.iter().map(|j| &j.result).collect();
    let headers: Vec<String> = std::iter::once("epoch".to_string())
        .chain(
            results
                .iter()
                .map(|r| format!("old@T={}", r.operating_steps)),
        )
        .chain(
            results
                .iter()
                .map(|r| format!("new@T={}", r.operating_steps)),
        )
        .collect();
    let header_refs: Vec<&str> = headers.iter().map(String::as_str).collect();
    let accuracy = epoch_table(&header_refs, &results, &[old_acc, new_acc]);

    let native_cost = results[0].total_cost();
    let rows: Vec<Vec<String>> = results
        .iter()
        .map(|r| {
            let c = r.total_cost();
            vec![
                format!("{}", r.operating_steps),
                format!("{:.3}", c.normalized_latency(&native_cost)),
                format!("{}", c.latency),
                report::pct(r.final_old_acc()),
                report::pct(r.final_new_acc()),
            ]
        })
        .collect();
    format!(
        "--- (a) accuracy per epoch (old task | new task) ---\n{accuracy}\n\n\
         --- (b) CL processing time, normalized to T={} ---\n{}",
        results[0].operating_steps,
        report::render_table(
            &[
                "timesteps",
                "normalized time",
                "absolute time",
                "final old acc",
                "final new acc"
            ],
            &rows
        )
    )
}

fn render_fig10(report: &SuiteReport) -> String {
    let pairs = layer_pairs(report);
    let rows: Vec<Vec<String>> = pairs
        .iter()
        .map(|(sota, ours)| {
            vec![
                format!("{}", sota.insertion_layer),
                report::pct(sota.final_old_acc()),
                report::pct(ours.final_old_acc()),
                report::pct(sota.final_new_acc()),
                report::pct(ours.final_new_acc()),
            ]
        })
        .collect();
    let accuracy = report::render_table(
        &[
            "insertion",
            "SpikingLR old",
            "Replay4NCL old",
            "SpikingLR new",
            "Replay4NCL new",
        ],
        &rows,
    );

    let costs = pairs.iter().map(|(sota, ours)| {
        let key = format!("{}", sota.insertion_layer);
        (key, sota.total_cost(), ours.total_cost())
    });
    format!(
        "--- (a) final Top-1 accuracy ---\n{accuracy}\n\n\
         --- (b)+(c) cost normalized to SpikingLR @ insertion 0 ---\n{}",
        cost_table("insertion", &pairs[0].0.total_cost(), costs)
    )
}

fn render_fig11(report: &SuiteReport) -> String {
    let (sota, ours) = last_two(report);
    let accuracy = epoch_table(
        &["epoch", "SpikingLR old acc", "Replay4NCL old acc"],
        &[sota, ours],
        &[old_acc],
    );

    // Cumulative cost at the paper's checkpoints (epochs 10/30/50 of 50).
    let n = sota.epochs.len();
    let checkpoints = [n / 5, 3 * n / 5, n - 1];
    let costs = checkpoints.iter().map(|&e| {
        let key = format!("{}", e + 1);
        (key, sota.cost_through_epoch(e), ours.cost_through_epoch(e))
    });
    format!(
        "--- (a) old-task accuracy per epoch ---\n{accuracy}\n\n\
         --- (b)+(c) cumulative cost at epoch checkpoints (norm. to SOTA @ first) ---\n{}\n\n\
         final old-task acc: SpikingLR {} vs Replay4NCL {}",
        cost_table("epochs", &sota.cost_through_epoch(checkpoints[0]), costs),
        report::pct(sota.final_old_acc()),
        report::pct(ours.final_old_acc()),
    )
}

fn render_fig12(report: &SuiteReport) -> String {
    // Insertion layer 0 stores raw input; the figure starts at layer 1.
    let pairs = layer_pairs(report);
    let reference = pairs[1].0.memory.total_bits as f64;
    let rows: Vec<Vec<String>> = pairs[1..]
        .iter()
        .map(|(sota, ours)| {
            let (s, o) = (&sota.memory, &ours.memory);
            vec![
                format!("{}", sota.insertion_layer),
                format!("{:.3}", s.total_bits as f64 / reference),
                format!("{:.3}", o.total_bits as f64 / reference),
                format!("{:.2} KiB", bits_to_kib(s.total_bits)),
                format!("{:.2} KiB", bits_to_kib(o.total_bits)),
                report::pct(o.saving_vs(s)),
            ]
        })
        .collect();
    report::render_table(
        &[
            "insertion",
            "SpikingLR (norm.)",
            "Replay4NCL (norm.)",
            "SpikingLR size",
            "Replay4NCL size",
            "saving",
        ],
        &rows,
    )
}

fn render_fig13(report: &SuiteReport) -> String {
    let (sota, ours) = last_two(report);
    format!(
        "--- new-task accuracy per epoch ---\n{}\n\n\
         learning-curve roughness (mean |step|, lower = smoother): \
         SpikingLR {:.4} vs Replay4NCL {:.4}\n\
         final new-task acc: SpikingLR {} vs Replay4NCL {} | final old-task acc: {} vs {}",
        epoch_table(
            &["epoch", "SpikingLR new acc", "Replay4NCL new acc"],
            &[sota, ours],
            &[new_acc]
        ),
        stats::roughness(&sota.new_acc_curve()),
        stats::roughness(&ours.new_acc_curve()),
        report::pct(sota.final_new_acc()),
        report::pct(ours.final_new_acc()),
        report::pct(sota.final_old_acc()),
        report::pct(ours.final_old_acc()),
    )
}

fn render_headline(report: &SuiteReport) -> String {
    let (sota, ours) = last_two(report);
    let summaries: Vec<String> = report
        .jobs
        .iter()
        .map(|j| report::summarize(&j.result))
        .collect();
    format!(
        "pre-training done: old-class test accuracy {}\n{}\n\n{}",
        report::pct(sota.pretrain_acc),
        summaries.join("\n"),
        report::render_table(
            &[
                "method",
                "old top-1",
                "new top-1",
                "speed-up vs SOTA",
                "energy saving",
                "memory saving"
            ],
            &[
                report::comparison_row(sota, sota),
                report::comparison_row(ours, sota),
            ],
        )
    )
}

fn render_knob_ablation(report: &SuiteReport) -> String {
    let sota = &report.jobs[0].result;
    let sota_cost = sota.total_cost();
    let rows: Vec<Vec<String>> = report.jobs[1..]
        .iter()
        .map(|j| {
            let (r, cost) = (&j.result, j.result.total_cost());
            vec![
                format!("{}", r.operating_steps),
                r.method.name.clone(),
                report::pct(r.final_old_acc()),
                report::pct(r.final_new_acc()),
                format!("{:.2}x", cost.speedup_vs(&sota_cost)),
                report::pct(cost.energy_saving_vs(&sota_cost)),
            ]
        })
        .collect();
    format!(
        "reference SpikingLR @ T={}: old {} / new {}\n{}",
        sota.operating_steps,
        report::pct(sota.final_old_acc()),
        report::pct(sota.final_new_acc()),
        report::render_table(
            &[
                "T*",
                "variant",
                "old acc",
                "new acc",
                "speed-up",
                "energy saving"
            ],
            &rows
        )
    )
}

fn render_surrogate_ablation(report: &SuiteReport) -> String {
    let rows: Vec<Vec<String>> = report
        .jobs
        .iter()
        .map(|j| {
            vec![
                j.label.clone(),
                report::pct(j.result.pretrain_acc),
                report::pct(j.result.final_old_acc()),
                report::pct(j.result.final_new_acc()),
            ]
        })
        .collect();
    report::render_table(
        &[
            "surrogate",
            "pretrain acc",
            "old acc after CL",
            "new acc after CL",
        ],
        &rows,
    )
}

fn render_calibration(report: &SuiteReport) -> String {
    // `headline_jobs` leads: the baseline (no speed-up), then SpikingLR.
    let first = &report.jobs[0].result;
    let sota_latency = report.jobs[1].result.total_cost().latency;
    let rows: Vec<Vec<String>> = report
        .jobs
        .iter()
        .enumerate()
        .map(|(i, j)| {
            let r = &j.result;
            let speedup = if i == 0 {
                "-".to_owned()
            } else {
                format!("{:.2}x", sota_latency.ratio_to(r.total_cost().latency))
            };
            vec![
                format!("{} /{:.1}", r.method.name, r.method.lr_divisor),
                format!("{}", r.operating_steps),
                report::pct(r.final_old_acc()),
                report::pct(r.final_new_acc()),
                speedup,
            ]
        })
        .collect();
    format!(
        "pretrain acc {} | insertion {}\n{}",
        report::pct(first.pretrain_acc),
        first.insertion_layer,
        report::render_table(
            &["method /divisor", "T", "old acc", "new acc", "speedup"],
            &rows
        )
    )
}

#[cfg(test)]
mod tests {
    use super::*;
    use ncl_runtime::Engine;

    fn tiny() -> ScenarioConfig {
        let mut c = ScenarioConfig::smoke();
        c.pretrain_epochs = 2;
        c.cl_epochs = 2;
        c
    }

    #[test]
    fn names_are_unique_and_found() {
        for (i, f) in FIGURES.iter().enumerate() {
            assert!(
                FIGURES[..i].iter().all(|g| g.name != f.name),
                "duplicate figure name {}",
                f.name
            );
            assert_eq!(figure(f.name).map(|g| g.name), Some(f.name));
        }
        assert!(figure("fig99").is_none());
    }

    #[test]
    fn every_figure_builds_runs_and_renders() {
        let c = tiny();
        let engine = Engine::new(1);
        for f in FIGURES {
            let suite = (f.build)(&c, Scale::Demo);
            suite.validate().expect(f.name);
            // Subset figures build only the cells they print.
            let cells = match f.name {
                "fig01" => 1,
                "fig02b" | "fig11" => 2,
                _ => suite.len(),
            };
            assert_eq!(suite.len(), cells, "{}", f.name);
            let report = engine.run(&suite).expect(f.name);
            let page = f.page(&suite, &report);
            assert!(page.contains(f.title) && page.contains(f.note), "{page}");
        }
    }
}
