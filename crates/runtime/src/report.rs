//! Aggregated suite reports.
//!
//! A [`SuiteReport`] holds every job's [`ScenarioResult`] in suite order
//! plus the cross-job summaries the sweep binaries print: best/worst
//! forgetting and latency/energy/memory totals. The JSON encoding
//! ([`SuiteReport::to_json`]) is a deterministic function of the results —
//! object keys are sorted and floats use their shortest round-trip
//! rendering — so two reports from the same suite compare byte-identical,
//! which is how the worker-count-invariance tests check the engine.

use serde::{Deserialize, Serialize};
use serde_json::Value;

use replay4ncl::methods::{StoragePolicy, ThresholdMode};
use replay4ncl::{report as text, MethodSpec, ScenarioResult};

/// One job's outcome, labelled.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct JobRecord {
    /// The job's label.
    pub label: String,
    /// The full scenario result.
    pub result: ScenarioResult,
}

/// Cross-job summary statistics of a suite run.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct SuiteSummary {
    /// Number of jobs.
    pub jobs: usize,
    /// Label and value of the lowest (best) forgetting.
    pub best_forgetting: (String, f64),
    /// Label and value of the highest (worst) forgetting.
    pub worst_forgetting: (String, f64),
    /// Sum of per-job CL latency, seconds.
    pub total_latency_s: f64,
    /// Sum of per-job CL energy, joules.
    pub total_energy_j: f64,
    /// Sum of per-job latent-memory footprints, bits.
    pub total_memory_bits: u64,
    /// Sum of per-job synaptic operations.
    pub total_synaptic_ops: u64,
}

/// The aggregated outcome of one suite run.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct SuiteReport {
    /// Suite name.
    pub suite: String,
    /// Per-job outcomes, in suite order.
    pub jobs: Vec<JobRecord>,
}

impl SuiteReport {
    /// Assembles a report from per-job records (already in suite order).
    #[must_use]
    pub fn new(suite: String, jobs: Vec<JobRecord>) -> Self {
        SuiteReport { suite, jobs }
    }

    /// Computes the cross-job summary. Totals are accumulated in suite
    /// order so the floating-point sums are deterministic.
    #[must_use]
    pub fn summary(&self) -> SuiteSummary {
        let mut best: Option<(String, f64)> = None;
        let mut worst: Option<(String, f64)> = None;
        let (mut latency, mut energy) = (0.0f64, 0.0f64);
        let (mut memory, mut synops) = (0u64, 0u64);
        for job in &self.jobs {
            let f = job.result.forgetting();
            if best.as_ref().is_none_or(|(_, b)| f < *b) {
                best = Some((job.label.clone(), f));
            }
            if worst.as_ref().is_none_or(|(_, w)| f > *w) {
                worst = Some((job.label.clone(), f));
            }
            let cost = job.result.total_cost();
            latency += cost.latency.seconds();
            energy += cost.energy.joules();
            memory += job.result.memory.total_bits;
            synops += job.result.total_ops().synaptic_ops;
        }
        let zero = || ("-".to_owned(), 0.0);
        SuiteSummary {
            jobs: self.jobs.len(),
            best_forgetting: best.unwrap_or_else(zero),
            worst_forgetting: worst.unwrap_or_else(zero),
            total_latency_s: latency,
            total_energy_j: energy,
            total_memory_bits: memory,
            total_synaptic_ops: synops,
        }
    }

    /// Deterministic JSON encoding of the full report (jobs + summary).
    #[must_use]
    pub fn to_json(&self) -> Value {
        let summary = self.summary();
        object([
            ("suite", Value::from(self.suite.as_str())),
            (
                "jobs",
                self.jobs
                    .iter()
                    .map(|j| {
                        object([
                            ("label", Value::from(j.label.as_str())),
                            ("result", result_to_json(&j.result)),
                        ])
                    })
                    .collect(),
            ),
            (
                "summary",
                object([
                    ("jobs", Value::from(summary.jobs)),
                    ("best_forgetting", stat_to_json(&summary.best_forgetting)),
                    ("worst_forgetting", stat_to_json(&summary.worst_forgetting)),
                    ("total_latency_s", Value::from(summary.total_latency_s)),
                    ("total_energy_j", Value::from(summary.total_energy_j)),
                    ("total_memory_bits", Value::from(summary.total_memory_bits)),
                    (
                        "total_synaptic_ops",
                        Value::from(summary.total_synaptic_ops),
                    ),
                ]),
            ),
        ])
    }

    /// Renders the report as the standard text table plus summary lines.
    #[must_use]
    pub fn render(&self) -> String {
        let rows: Vec<Vec<String>> = self
            .jobs
            .iter()
            .map(|j| {
                let r = &j.result;
                let cost = r.total_cost();
                vec![
                    j.label.clone(),
                    r.method.name.clone(),
                    format!("{}", r.insertion_layer),
                    format!("{}", r.operating_steps),
                    text::pct(r.final_old_acc()),
                    text::pct(r.final_new_acc()),
                    text::pct(r.forgetting()),
                    format!("{}", cost.latency),
                    format!("{}", cost.energy),
                    format!("{:.2}", r.memory.kib()),
                ]
            })
            .collect();
        let table = text::render_table(
            &[
                "job",
                "method",
                "ins",
                "T",
                "old acc",
                "new acc",
                "forgetting",
                "latency",
                "energy",
                "mem KiB",
            ],
            &rows,
        );
        let s = self.summary();
        format!(
            "=== suite '{}': {} jobs ===\n{table}\n\
             best forgetting : {} ({})\n\
             worst forgetting: {} ({})\n\
             totals          : latency {:.6} s, energy {:.9} J, latent memory {} bits",
            self.suite,
            s.jobs,
            text::pct(s.best_forgetting.1),
            s.best_forgetting.0,
            text::pct(s.worst_forgetting.1),
            s.worst_forgetting.0,
            s.total_latency_s,
            s.total_energy_j,
            s.total_memory_bits,
        )
    }
}

/// A JSON object of `fields` (keys sort on insertion).
fn object<const N: usize>(fields: [(&str, Value); N]) -> Value {
    fields.into_iter().map(|(k, v)| (k.to_owned(), v)).collect()
}

fn stat_to_json(stat: &(String, f64)) -> Value {
    object([
        ("label", Value::from(stat.0.as_str())),
        ("value", Value::from(stat.1)),
    ])
}

/// Encodes a [`MethodSpec`] with every knob it sets, in the shape serde's
/// derive gives it: enums are externally tagged (`"Constant"`,
/// `{"Reduced": 40}`).
fn method_to_json(method: &MethodSpec) -> Value {
    let replay = method.replay.as_ref().map_or(Value::Null, |r| {
        let storage = match r.storage {
            StoragePolicy::Codec(factor) => {
                object([("Codec", Value::from(u64::from(factor.get())))])
            }
            StoragePolicy::Reduced(t_star) => object([("Reduced", Value::from(t_star))]),
        };
        object([
            ("per_class", Value::from(r.per_class)),
            ("storage", storage),
            ("decompress", Value::from(r.decompress)),
        ])
    });
    let threshold_mode = match method.threshold_mode {
        ThresholdMode::Constant => Value::from("Constant"),
        ThresholdMode::Adaptive(p) => object([(
            "Adaptive",
            object([
                ("adjust_interval", Value::from(p.adjust_interval)),
                ("base", Value::from(p.base)),
                ("timing_coef", Value::from(p.timing_coef)),
                ("decay_rate", Value::from(p.decay_rate)),
                ("variant", Value::from(format!("{:?}", p.variant))),
            ]),
        )]),
    };
    object([
        ("name", Value::from(method.name.as_str())),
        ("replay", replay),
        ("threshold_mode", threshold_mode),
        ("lr_divisor", Value::from(method.lr_divisor)),
    ])
}

/// Encodes a full [`ScenarioResult`] — the method spec, accuracy curve, op
/// counts, memory and modeled cost — as a deterministic JSON tree.
fn result_to_json(result: &ScenarioResult) -> Value {
    let cost = result.total_cost();
    object([
        ("method", method_to_json(&result.method)),
        ("insertion_layer", Value::from(result.insertion_layer)),
        ("operating_steps", Value::from(result.operating_steps)),
        ("pretrain_acc", Value::from(result.pretrain_acc)),
        ("final_old_acc", Value::from(result.final_old_acc())),
        ("final_new_acc", Value::from(result.final_new_acc())),
        ("forgetting", Value::from(result.forgetting())),
        (
            "epochs",
            result
                .epochs
                .iter()
                .map(|e| {
                    object([
                        ("epoch", Value::from(e.epoch)),
                        ("mean_loss", Value::from(e.mean_loss)),
                        ("old_acc", Value::from(e.old_acc)),
                        ("new_acc", Value::from(e.new_acc)),
                        ("synaptic_ops", Value::from(e.ops.synaptic_ops)),
                        ("neuron_updates", Value::from(e.ops.neuron_updates)),
                    ])
                })
                .collect(),
        ),
        (
            "memory",
            object([
                ("samples", Value::from(result.memory.samples)),
                (
                    "payload_bits_per_sample",
                    Value::from(result.memory.payload_bits_per_sample),
                ),
                ("total_bits", Value::from(result.memory.total_bits)),
            ]),
        ),
        (
            "cost",
            object([
                ("latency_s", Value::from(cost.latency.seconds())),
                ("energy_j", Value::from(cost.energy.joules())),
                ("synaptic_ops", Value::from(cost.ops.synaptic_ops)),
                ("weight_updates", Value::from(cost.ops.weight_updates)),
                ("mem_read_bits", Value::from(cost.ops.mem_read_bits)),
                ("mem_write_bits", Value::from(cost.ops.mem_write_bits)),
            ]),
        ),
    ])
}

#[cfg(test)]
mod tests {
    use super::*;
    use ncl_hw::memory::MemoryFootprint;
    use ncl_hw::{HardwareProfile, OpCounts};
    use replay4ncl::EpochRecord;

    fn fake(label: &str, old: f64, ops: u64, bits: u64) -> JobRecord {
        JobRecord {
            label: label.into(),
            result: ScenarioResult {
                method: MethodSpec::baseline(),
                insertion_layer: 1,
                operating_steps: 16,
                pretrain_acc: 0.9,
                epochs: vec![EpochRecord {
                    epoch: 0,
                    mean_loss: 0.5,
                    old_acc: old,
                    new_acc: 0.7,
                    ops: OpCounts {
                        synaptic_ops: ops,
                        ..OpCounts::default()
                    },
                }],
                prep_ops: OpCounts::default(),
                memory: MemoryFootprint {
                    samples: 3,
                    payload_bits_per_sample: bits / 3,
                    total_bits: bits,
                },
                profile: HardwareProfile::embedded(),
            },
        }
    }

    fn report() -> SuiteReport {
        SuiteReport::new(
            "s".into(),
            vec![fake("good", 0.88, 1000, 600), fake("bad", 0.5, 3000, 900)],
        )
    }

    #[test]
    fn summary_finds_extremes_and_totals() {
        let s = report().summary();
        assert_eq!(s.jobs, 2);
        assert_eq!(s.best_forgetting.0, "good");
        assert!((s.best_forgetting.1 - 0.02).abs() < 1e-12);
        assert_eq!(s.worst_forgetting.0, "bad");
        assert!((s.worst_forgetting.1 - 0.4).abs() < 1e-12);
        assert_eq!(s.total_memory_bits, 1500);
        assert_eq!(s.total_synaptic_ops, 4000);
        assert!(s.total_latency_s > 0.0);
        assert!(s.total_energy_j > 0.0);
    }

    #[test]
    fn empty_report_summary_is_well_defined() {
        let s = SuiteReport::new("empty".into(), Vec::new()).summary();
        assert_eq!(s.jobs, 0);
        assert_eq!(s.best_forgetting.0, "-");
        assert_eq!(s.total_memory_bits, 0);
    }

    #[test]
    fn json_is_deterministic_and_parseable() {
        let a = report().to_json().to_json();
        let b = report().to_json().to_json();
        assert_eq!(a, b);
        let parsed = serde_json::from_str(&a).expect("valid JSON");
        assert_eq!(parsed.get("suite").and_then(Value::as_str), Some("s"));
        assert_eq!(
            parsed.get("jobs").and_then(Value::as_array).map(Vec::len),
            Some(2)
        );
        assert_eq!(
            parsed
                .get("summary")
                .and_then(|s| s.get("jobs"))
                .and_then(Value::as_u64),
            Some(2)
        );
    }

    #[test]
    fn json_tells_apart_specs_that_share_a_name() {
        let encode = |method: MethodSpec| {
            let mut job = fake("r", 0.8, 1000, 600);
            job.result.method = method;
            SuiteReport::new("s".into(), vec![job]).to_json().to_json()
        };
        let spec = MethodSpec::replay4ncl(3, 16);
        let mut constant = spec.clone();
        constant.threshold_mode = ThresholdMode::Constant;
        let json = [
            encode(spec.clone()),
            encode(spec.with_lr_divisor(3.0)),
            encode(constant),
        ];
        assert!(json.iter().all(|j| j.contains("\"Replay4NCL\"")));
        assert_ne!(json[0], json[1], "lr_divisor");
        assert_ne!(json[0], json[2], "threshold mode");
    }

    #[test]
    fn render_contains_labels_and_summary() {
        let text = report().render();
        assert!(text.contains("good"));
        assert!(text.contains("bad"));
        assert!(text.contains("best forgetting"));
        assert!(text.contains("2 jobs"));
    }
}
