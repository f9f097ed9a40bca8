//! The one report format every bench emitter writes (`BENCH_*.json`).
//!
//! A report is a JSON object with exactly the keys `bench` (the kind),
//! `config` (what was run), `results` (what was measured) and `gates`,
//! each gate `{name, value, op, bound, pass}`. The kinds whose throughput
//! a fresh run is compared against the committed datapoint also carry
//! `headline: {name, value}`. Each gate is evaluated once, here; a
//! non-finite value (written as `null`) fails every op. An emitter builds
//! a [`Report`], adds its gates, and ends with [`Report::finish`], which
//! writes the file and exits 1 if any gate failed.
//! `scripts/check_bench.py` re-evaluates every gate, requires each kind's
//! gate names, and applies the headline noise floor.

use serde_json::Value;

use crate::protocol::object;

/// A gate's comparison of its value against its bound.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum Op {
    Gt,
    Ge,
    Le,
    Eq,
}

impl Op {
    /// The operator as written into the report.
    fn symbol(self) -> &'static str {
        match self {
            Op::Gt => ">",
            Op::Ge => ">=",
            Op::Le => "<=",
            Op::Eq => "==",
        }
    }

    /// Whether `value op bound` holds; never for a non-finite value.
    fn holds(self, value: f64, bound: f64) -> bool {
        value.is_finite()
            && match self {
                Op::Gt => value > bound,
                Op::Ge => value >= bound,
                Op::Le => value <= bound,
                Op::Eq => value == bound,
            }
    }
}

/// One evaluated pass/fail condition.
struct Gate {
    name: String,
    value: f64,
    op: Op,
    bound: f64,
    pass: bool,
}

/// A bench report under construction: config, headline and gates; the
/// results are handed to [`Report::finish`].
pub struct Report {
    bench: String,
    config: Value,
    headline: Option<(String, f64)>,
    gates: Vec<Gate>,
}

impl Report {
    pub fn new(bench: &str, config: Value) -> Self {
        Report {
            bench: bench.to_owned(),
            config,
            headline: None,
            gates: Vec::new(),
        }
    }

    /// Names the throughput compared against the committed datapoint.
    pub fn headline(&mut self, name: &str, value: f64) {
        self.headline = Some((name.to_owned(), value));
    }

    /// Adds the gate `value op bound`, evaluated now.
    pub fn gate(&mut self, name: &str, value: f64, op: Op, bound: f64) {
        self.gates.push(Gate {
            name: name.to_owned(),
            value,
            op,
            bound,
            pass: op.holds(value, bound),
        });
    }

    /// Adds a yes/no condition as the gate `value == 1`.
    pub fn check(&mut self, name: &str, holds: bool) {
        self.gate(name, f64::from(u8::from(holds)), Op::Eq, 1.0);
    }

    /// Whether any gate failed (the emitter's exit status).
    fn failed(&self) -> bool {
        self.gates.iter().any(|g| !g.pass)
    }

    /// The report as pretty JSON plus a trailing newline.
    fn render(&self, results: Value) -> String {
        let gates = self
            .gates
            .iter()
            .map(|g| {
                object(vec![
                    ("name", Value::from(g.name.as_str())),
                    ("value", Value::from(g.value)),
                    ("op", Value::from(g.op.symbol())),
                    ("bound", Value::from(g.bound)),
                    ("pass", Value::from(g.pass)),
                ])
            })
            .collect();
        let mut pairs = vec![
            ("bench", Value::from(self.bench.as_str())),
            ("config", self.config.clone()),
            ("results", results),
            ("gates", Value::Array(gates)),
        ];
        if let Some((name, value)) = &self.headline {
            let headline = object(vec![
                ("name", Value::from(name.as_str())),
                ("value", Value::from(*value)),
            ]);
            pairs.push(("headline", headline));
        }
        format!("{}\n", object(pairs).to_json_pretty())
    }

    /// Writes the report to `path`, names every failed gate on stderr,
    /// and exits: 1 if the write or any gate failed, else 0.
    pub fn finish(&self, results: Value, path: &str) -> ! {
        if let Err(e) = std::fs::write(path, self.render(results)) {
            eprintln!("{} bench: cannot write {path}: {e}", self.bench);
            std::process::exit(1);
        }
        for g in self.gates.iter().filter(|g| !g.pass) {
            eprintln!(
                "{} bench: GATE FAILED: {} = {} (needs {} {})",
                self.bench,
                g.name,
                g.value,
                g.op.symbol(),
                g.bound
            );
        }
        let passed = self.gates.iter().filter(|g| g.pass).count();
        println!(
            "{} bench: {passed}/{} gates passed, wrote {path}",
            self.bench,
            self.gates.len()
        );
        std::process::exit(i32::from(self.failed()));
    }
}

/// The smallest of `values`; `+inf` (which fails every gate) when empty.
pub fn min(values: impl IntoIterator<Item = f64>) -> f64 {
    values.into_iter().fold(f64::INFINITY, f64::min)
}

/// The nearest-rank `p`-quantile (`0..=1`) of ascending `sorted`: the
/// smallest sample with at least `p·n` samples at or below it. 0 when
/// empty. Every emitter reports latency percentiles through this one
/// definition.
#[must_use]
pub fn percentile(sorted: &[u64], p: f64) -> u64 {
    let rank = ((p * sorted.len() as f64).ceil() as usize).clamp(1, sorted.len().max(1));
    sorted.get(rank - 1).copied().unwrap_or(0)
}

#[cfg(test)]
mod tests {
    use super::*;

    const OPS: [Op; 4] = [Op::Gt, Op::Ge, Op::Le, Op::Eq];

    #[test]
    fn each_op_at_just_above_and_just_below_its_bound() {
        let bound = 10.0;
        // (op, holds at bound, holds just above, holds just below)
        let table = [
            (Op::Gt, false, true, false),
            (Op::Ge, true, true, false),
            (Op::Le, true, false, true),
            (Op::Eq, true, false, false),
        ];
        for (op, at, above, below) in table {
            assert_eq!(op.holds(bound, bound), at, "{op:?} at");
            assert_eq!(op.holds(bound + 1e-9, bound), above, "{op:?} above");
            assert_eq!(op.holds(bound - 1e-9, bound), below, "{op:?} below");
        }
    }

    #[test]
    fn non_finite_values_fail_every_op() {
        for op in OPS {
            for value in [f64::NAN, f64::INFINITY, f64::NEG_INFINITY] {
                assert!(!op.holds(value, 0.0), "{op:?} {value}");
            }
        }
        assert!(!Op::Ge.holds(min([]), 1.0), "an empty min fails");
    }

    #[test]
    fn percentile_is_nearest_rank() {
        assert_eq!(percentile(&[], 0.5), 0);
        assert_eq!(percentile(&[7, 9], 0.5), 7);
        let ten: Vec<u64> = (0..10).collect();
        assert_eq!(percentile(&ten, 0.5), 4);
        assert_eq!(percentile(&ten, 0.0), 0);
        assert_eq!(percentile(&ten, 1.0), 9);
    }

    #[test]
    fn written_json_has_the_report_keys_and_gates_in_order() {
        let mut report = Report::new("serve", object(vec![("connections", Value::from(4u64))]));
        report.gate("requests_ok", 7.0, Op::Gt, 0.0);
        report.check("hot_swap_ok", true);
        report.gate("requests_failed", f64::NAN, Op::Eq, 0.0);
        let results = object(vec![("requests_ok", Value::from(7u64))]);
        let parsed = serde_json::from_str(&report.render(results.clone())).unwrap();
        let keys: Vec<&str> = parsed
            .as_object()
            .unwrap()
            .keys()
            .map(String::as_str)
            .collect();
        assert_eq!(keys, ["bench", "config", "gates", "results"]);
        assert_eq!(parsed.get("results"), Some(&results));
        let gates = parsed.get("gates").and_then(Value::as_array).unwrap();
        let names: Vec<&str> = gates
            .iter()
            .map(|g| g.get("name").and_then(Value::as_str).unwrap())
            .collect();
        assert_eq!(names, ["requests_ok", "hot_swap_ok", "requests_failed"]);
        let first = gates[0].as_object().unwrap();
        let fields: Vec<&str> = first.keys().map(String::as_str).collect();
        assert_eq!(fields, ["bound", "name", "op", "pass", "value"]);
        assert_eq!(first["op"], Value::from(">"));
        assert_eq!(first["pass"], Value::from(true));
        assert!(
            gates[2].get("value").unwrap().is_null(),
            "NaN is written as null"
        );
        assert_eq!(gates[2].get("pass"), Some(&Value::from(false)));

        report.headline("requests_per_sec", 4827.5);
        let parsed = serde_json::from_str(&report.render(Value::Null)).unwrap();
        let keys: Vec<&str> = parsed
            .as_object()
            .unwrap()
            .keys()
            .map(String::as_str)
            .collect();
        assert_eq!(keys, ["bench", "config", "gates", "headline", "results"]);
        let headline = parsed.get("headline").unwrap();
        assert_eq!(headline.get("name"), Some(&Value::from("requests_per_sec")));
        assert_eq!(headline.get("value"), Some(&Value::from(4827.5)));
        assert!(report.render(Value::Null).ends_with("}\n"));
    }

    #[test]
    fn the_report_fails_exactly_when_some_gate_failed() {
        let mut report = Report::new("train", Value::Null);
        assert!(!report.failed(), "no gates, nothing failed");
        report.check("pool_bit_identical", true);
        report.gate("pool_samples_per_sec_min", 1.0, Op::Gt, 0.0);
        assert!(!report.failed());
        report.gate("scenarios", 1.0, Op::Ge, 2.0);
        assert!(report.failed());
        assert_eq!(
            report.gates.iter().map(|g| g.pass).collect::<Vec<_>>(),
            [true, true, false]
        );
        let mut flag = Report::new("train", Value::Null);
        flag.check("pool_bit_identical", false);
        assert!(flag.failed());
    }
}
