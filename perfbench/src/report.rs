//! Result accounting and the one-line JSON result the benchmark ends with.

use std::collections::BTreeMap;

use serde_json::Value;

/// One named metric with its unit.
#[derive(Debug, Clone, PartialEq)]
pub struct Metric {
    /// Metric name (as in `BENCHMARK.json`).
    pub name: String,
    /// Measured value, with all its digits.
    pub value: f64,
    /// Unit.
    pub unit: &'static str,
}

impl Metric {
    /// A metric from one measured value.
    pub fn new(name: &str, value: f64, unit: &'static str) -> Self {
        Metric {
            name: name.to_owned(),
            value,
            unit,
        }
    }

    /// The median of repeated measurements.
    pub fn median(name: &str, values: &[f64], unit: &'static str) -> Self {
        Metric::new(name, crate::stats::median(values).unwrap_or(f64::NAN), unit)
    }
}

/// Everything one run accumulates: operation counts, output-check
/// failures and metrics.
#[derive(Debug, Default)]
pub struct Run {
    /// Operations attempted (predicts, passes, increments, syncs).
    pub attempted: u64,
    /// Operations that failed.
    pub failed: u64,
    /// Output-check failures (any one makes the run incorrect).
    pub check_failures: Vec<String>,
    /// End-to-end metrics.
    pub e2e: Vec<Metric>,
    /// Per-layer metrics.
    pub layers: Vec<Metric>,
}

impl Run {
    /// Records an output-check failure.
    pub fn fail(&mut self, why: String) {
        eprintln!("perfbench: output check failed: {why}");
        self.check_failures.push(why);
    }

    /// Adds an end-to-end metric.
    pub fn e2e(&mut self, m: Metric) {
        self.e2e.push(m);
    }

    /// Adds a per-layer metric.
    pub fn layer(&mut self, m: Metric) {
        self.layers.push(m);
    }

    /// The result line: end-to-end metrics untraced, per-layer traced.
    pub fn result_line(&self, traced: bool) -> String {
        let metrics = if traced { &self.layers } else { &self.e2e };
        let map: BTreeMap<String, Value> = metrics
            .iter()
            .map(|m| {
                let mut entry = BTreeMap::new();
                entry.insert("value".into(), Value::from(m.value));
                entry.insert("unit".into(), Value::from(m.unit));
                (m.name.clone(), Value::Object(entry))
            })
            .collect();
        let mut out = BTreeMap::new();
        out.insert(
            "correct".into(),
            Value::from(self.check_failures.is_empty()),
        );
        out.insert("attempted".into(), Value::from(self.attempted.max(1)));
        out.insert("failed".into(), Value::from(self.failed));
        out.insert("metrics".into(), Value::Object(map));
        Value::Object(out).to_json()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn result_line_has_exactly_the_contract_keys() {
        let mut run = Run {
            attempted: 3,
            ..Run::default()
        };
        run.e2e(Metric::new("setup_s", 0.25, "s"));
        run.layer(Metric::new("serve.parse_us", 12.5, "us"));
        let line: Value = serde_json::from_str(&run.result_line(false)).unwrap();
        let obj = line.as_object().unwrap();
        let keys: Vec<&str> = obj.keys().map(String::as_str).collect();
        assert_eq!(keys, ["attempted", "correct", "failed", "metrics"]);
        let metrics = line.get("metrics").unwrap();
        assert_eq!(line.get("correct"), Some(&Value::from(true)));
        assert_eq!(
            metrics.get("setup_s").unwrap().get("value"),
            Some(&Value::from(0.25))
        );
        assert!(metrics.get("serve.parse_us").is_none());
        run.fail("mismatch".into());
        let traced: Value = serde_json::from_str(&run.result_line(true)).unwrap();
        assert_eq!(traced.get("correct"), Some(&Value::from(false)));
        let parse = traced
            .get("metrics")
            .unwrap()
            .get("serve.parse_us")
            .unwrap();
        assert_eq!(parse.get("unit"), Some(&Value::from("us")));
    }
}
