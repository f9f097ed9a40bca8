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

use replay4ncl::{report as text, ScenarioResult};

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

    /// Looks a job's result up by label (first match).
    #[must_use]
    pub fn job(&self, label: &str) -> Option<&ScenarioResult> {
        self.jobs
            .iter()
            .find(|j| j.label == label)
            .map(|j| &j.result)
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
        Value::Object(
            [
                ("suite".to_owned(), Value::from(self.suite.as_str())),
                (
                    "jobs".to_owned(),
                    self.jobs
                        .iter()
                        .map(|j| {
                            Value::Object(
                                [
                                    ("label".to_owned(), Value::from(j.label.as_str())),
                                    ("result".to_owned(), result_to_json(&j.result)),
                                ]
                                .into_iter()
                                .collect(),
                            )
                        })
                        .collect(),
                ),
                (
                    "summary".to_owned(),
                    Value::Object(
                        [
                            ("jobs".to_owned(), Value::from(summary.jobs)),
                            (
                                "best_forgetting".to_owned(),
                                stat_to_json(&summary.best_forgetting),
                            ),
                            (
                                "worst_forgetting".to_owned(),
                                stat_to_json(&summary.worst_forgetting),
                            ),
                            (
                                "total_latency_s".to_owned(),
                                Value::from(summary.total_latency_s),
                            ),
                            (
                                "total_energy_j".to_owned(),
                                Value::from(summary.total_energy_j),
                            ),
                            (
                                "total_memory_bits".to_owned(),
                                Value::from(summary.total_memory_bits),
                            ),
                            (
                                "total_synaptic_ops".to_owned(),
                                Value::from(summary.total_synaptic_ops),
                            ),
                        ]
                        .into_iter()
                        .collect(),
                    ),
                ),
            ]
            .into_iter()
            .collect(),
        )
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
                    r.method.clone(),
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

fn stat_to_json(stat: &(String, f64)) -> Value {
    Value::Object(
        [
            ("label".to_owned(), Value::from(stat.0.as_str())),
            ("value".to_owned(), Value::from(stat.1)),
        ]
        .into_iter()
        .collect(),
    )
}

/// Encodes a full [`ScenarioResult`] — accuracy curve, op counts, memory
/// and modeled cost — as a deterministic JSON tree.
#[must_use]
fn result_to_json(result: &ScenarioResult) -> Value {
    let cost = result.total_cost();
    Value::Object(
        [
            ("method".to_owned(), Value::from(result.method.as_str())),
            (
                "insertion_layer".to_owned(),
                Value::from(result.insertion_layer),
            ),
            (
                "operating_steps".to_owned(),
                Value::from(result.operating_steps),
            ),
            ("pretrain_acc".to_owned(), Value::from(result.pretrain_acc)),
            (
                "final_old_acc".to_owned(),
                Value::from(result.final_old_acc()),
            ),
            (
                "final_new_acc".to_owned(),
                Value::from(result.final_new_acc()),
            ),
            ("forgetting".to_owned(), Value::from(result.forgetting())),
            (
                "epochs".to_owned(),
                result
                    .epochs
                    .iter()
                    .map(|e| {
                        Value::Object(
                            [
                                ("epoch".to_owned(), Value::from(e.epoch)),
                                ("mean_loss".to_owned(), Value::from(e.mean_loss)),
                                ("old_acc".to_owned(), Value::from(e.old_acc)),
                                ("new_acc".to_owned(), Value::from(e.new_acc)),
                                ("synaptic_ops".to_owned(), Value::from(e.ops.synaptic_ops)),
                                (
                                    "neuron_updates".to_owned(),
                                    Value::from(e.ops.neuron_updates),
                                ),
                            ]
                            .into_iter()
                            .collect(),
                        )
                    })
                    .collect(),
            ),
            (
                "memory".to_owned(),
                Value::Object(
                    [
                        ("samples".to_owned(), Value::from(result.memory.samples)),
                        (
                            "payload_bits_per_sample".to_owned(),
                            Value::from(result.memory.payload_bits_per_sample),
                        ),
                        (
                            "total_bits".to_owned(),
                            Value::from(result.memory.total_bits),
                        ),
                    ]
                    .into_iter()
                    .collect(),
                ),
            ),
            (
                "cost".to_owned(),
                Value::Object(
                    [
                        ("latency_s".to_owned(), Value::from(cost.latency.seconds())),
                        ("energy_j".to_owned(), Value::from(cost.energy.joules())),
                        (
                            "synaptic_ops".to_owned(),
                            Value::from(cost.ops.synaptic_ops),
                        ),
                        (
                            "weight_updates".to_owned(),
                            Value::from(cost.ops.weight_updates),
                        ),
                        (
                            "mem_read_bits".to_owned(),
                            Value::from(cost.ops.mem_read_bits),
                        ),
                        (
                            "mem_write_bits".to_owned(),
                            Value::from(cost.ops.mem_write_bits),
                        ),
                    ]
                    .into_iter()
                    .collect(),
                ),
            ),
        ]
        .into_iter()
        .collect(),
    )
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
                method: "Fake".into(),
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
    fn job_lookup_by_label() {
        let r = report();
        assert!(r.job("good").is_some());
        assert!((r.job("bad").unwrap().final_old_acc() - 0.5).abs() < 1e-12);
        assert!(r.job("missing").is_none());
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
    fn render_contains_labels_and_summary() {
        let text = report().render();
        assert!(text.contains("good"));
        assert!(text.contains("bad"));
        assert!(text.contains("best forgetting"));
        assert!(text.contains("2 jobs"));
    }
}
