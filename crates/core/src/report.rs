//! Plain-text report rendering for scenario results and figure series.

use crate::metrics::ClMetrics;
use crate::scenario::ScenarioResult;

/// Renders a fixed-width text table. The first row of `rows` may be used
/// as a header by passing it in `headers`.
///
/// # Example
///
/// ```
/// let t = replay4ncl::report::render_table(
///     &["method", "old acc"],
///     &[vec!["SpikingLR".into(), "86.2".into()],
///       vec!["Replay4NCL".into(), "90.4".into()]],
/// );
/// assert!(t.contains("Replay4NCL"));
/// assert!(t.lines().count() >= 4);
/// ```
#[must_use]
pub fn render_table(headers: &[&str], rows: &[Vec<String>]) -> String {
    let cols = headers.len();
    let mut widths: Vec<usize> = headers.iter().map(|h| h.len()).collect();
    for row in rows {
        for (i, cell) in row.iter().enumerate().take(cols) {
            widths[i] = widths[i].max(cell.len());
        }
    }
    let sep = |w: &Vec<usize>| -> String {
        let mut s = String::from("+");
        for width in w {
            s.push_str(&"-".repeat(width + 2));
            s.push('+');
        }
        s
    };
    let render_row = |cells: &[String]| -> String {
        let mut s = String::from("|");
        for (i, width) in widths.iter().enumerate() {
            let cell = cells.get(i).map_or("", String::as_str);
            s.push_str(&format!(" {cell:<width$} |"));
        }
        s
    };
    let mut out = String::new();
    out.push_str(&sep(&widths));
    out.push('\n');
    out.push_str(&render_row(
        &headers.iter().map(|h| (*h).to_string()).collect::<Vec<_>>(),
    ));
    out.push('\n');
    out.push_str(&sep(&widths));
    out.push('\n');
    for row in rows {
        out.push_str(&render_row(row));
        out.push('\n');
    }
    out.push_str(&sep(&widths));
    out
}

/// Formats a fraction as a percentage with two decimals.
#[must_use]
pub fn pct(x: f64) -> String {
    format!("{:.2}%", 100.0 * x)
}

/// One-paragraph summary of a scenario result.
#[must_use]
pub fn summarize(result: &ScenarioResult) -> String {
    let m = ClMetrics::of(result);
    let cost = result.total_cost();
    format!(
        "{} @ insertion layer {} (T={}): old {} / new {} (forgetting {}), \
         latent memory {:.2} KiB, CL latency {}, energy {}",
        result.method,
        result.insertion_layer,
        result.operating_steps,
        pct(m.old_top1),
        pct(m.new_top1),
        pct(m.forgetting),
        result.memory.kib(),
        cost.latency,
        cost.energy,
    )
}

/// Side-by-side comparison row of a method against a baseline result
/// (speed-up, energy saving, memory saving) — the numbers the paper's
/// abstract reports.
#[must_use]
pub fn comparison_row(ours: &ScenarioResult, sota: &ScenarioResult) -> Vec<String> {
    let our_cost = ours.total_cost();
    let sota_cost = sota.total_cost();
    vec![
        ours.method.clone(),
        pct(ours.final_old_acc()),
        pct(ours.final_new_acc()),
        format!("{:.2}x", our_cost.speedup_vs(&sota_cost)),
        pct(our_cost.energy_saving_vs(&sota_cost)),
        pct(ours.memory.saving_vs(&sota.memory)),
    ]
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::scenario::EpochRecord;
    use ncl_hw::memory::MemoryFootprint;
    use ncl_hw::{HardwareProfile, OpCounts};

    fn result(name: &str, ops_scale: u64, bits: u64) -> ScenarioResult {
        ScenarioResult {
            method: name.into(),
            insertion_layer: 3,
            operating_steps: 40,
            pretrain_acc: 0.95,
            epochs: vec![EpochRecord {
                epoch: 0,
                mean_loss: 0.4,
                old_acc: 0.9,
                new_acc: 0.8,
                ops: OpCounts {
                    synaptic_ops: 1000 * ops_scale,
                    ..OpCounts::default()
                },
            }],
            prep_ops: OpCounts::default(),
            memory: MemoryFootprint {
                samples: 19,
                payload_bits_per_sample: bits / 19,
                total_bits: bits,
            },
            profile: HardwareProfile::embedded(),
        }
    }

    #[test]
    fn table_is_aligned() {
        let t = render_table(
            &["a", "long header"],
            &[
                vec!["x".into(), "y".into()],
                vec!["wide cell".into(), "z".into()],
            ],
        );
        let lines: Vec<&str> = t.lines().collect();
        assert!(lines.len() >= 5);
        let width = lines[0].len();
        assert!(
            lines.iter().all(|l| l.len() == width),
            "all rows same width"
        );
    }

    #[test]
    fn pct_formats() {
        assert_eq!(pct(0.9043), "90.43%");
        assert_eq!(pct(0.0), "0.00%");
    }

    #[test]
    fn summary_contains_key_fields() {
        let s = summarize(&result("Replay4NCL", 1, 1000));
        assert!(s.contains("Replay4NCL"));
        assert!(s.contains("90.00%"));
        assert!(s.contains("insertion layer 3"));
    }

    #[test]
    fn comparison_row_computes_ratios() {
        let ours = result("Replay4NCL", 2, 800);
        let sota = result("SpikingLR", 10, 1000);
        let row = comparison_row(&ours, &sota);
        assert_eq!(row[0], "Replay4NCL");
        assert_eq!(row[3], "5.00x"); // 10/2
        assert_eq!(row[4], "80.00%");
        assert_eq!(row[5], "20.00%");
    }
}
