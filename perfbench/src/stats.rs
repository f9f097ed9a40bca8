//! Statistics shared by every phase: medians, the tail-percentile rule,
//! open-loop latency accounting, and the choice of the calm part of a
//! phase on a machine whose host steals CPU time.

/// Median of `values` (mean of the middle pair for an even count); `None`
/// when empty.
pub fn median(values: &[f64]) -> Option<f64> {
    let mut sorted = values.to_vec();
    sorted.sort_by(f64::total_cmp);
    let n = sorted.len();
    match n {
        0 => None,
        _ if n % 2 == 1 => Some(sorted[n / 2]),
        _ => Some((sorted[n / 2 - 1] + sorted[n / 2]) / 2.0),
    }
}

/// Nearest-rank percentile of an ascending slice: the smallest value with
/// at least `p` of the samples at or below it.
pub fn percentile(sorted: &[f64], p: f64) -> Option<f64> {
    if sorted.is_empty() {
        return None;
    }
    Some(sorted[rank(p, sorted.len()).clamp(1, sorted.len()) - 1])
}

/// 1-based nearest rank of percentile `p` among `n` samples (a small
/// epsilon keeps `0.99 × 1000` from rounding up to 991).
fn rank(p: f64, n: usize) -> usize {
    (p * n as f64 - 1e-9).ceil().max(0.0) as usize
}

/// Nearest-rank percentile of `(value, weight)` samples, each standing
/// for `weight` members of the population: the smallest value with at
/// least `p` of the total weight at or below it. Unit weights give
/// [`percentile`].
pub fn weighted_percentile(samples: &[(f64, f64)], p: f64) -> Option<f64> {
    let mut sorted = samples.to_vec();
    sorted.sort_by(|a, b| a.0.total_cmp(&b.0));
    let target = p * sorted.iter().map(|s| s.1).sum::<f64>() - 1e-9;
    let mut seen = 0.0;
    for &(value, weight) in &sorted {
        seen += weight;
        if seen >= target {
            return Some(value);
        }
    }
    sorted.last().map(|s| s.0)
}

/// Percentile `p` of unsorted `values`.
pub fn percentile_of(values: &[f64], p: f64) -> Option<f64> {
    let mut sorted = values.to_vec();
    sorted.sort_by(f64::total_cmp);
    percentile(&sorted, p)
}

/// Samples per latency window: the fewest that leave ten beyond a p99
/// (a tail is reported at the highest percentile with at least ten
/// samples beyond it).
pub const TAIL_WINDOW: usize = 1_000;

/// The median, over `windows`, of each window's `p` percentile. Taken per
/// window, one burst of machine noise moves one window's figure, not the
/// result.
pub fn median_window_percentile<'a>(
    windows: impl IntoIterator<Item = &'a [f64]>,
    p: f64,
) -> Option<f64> {
    let per_window: Vec<f64> = windows
        .into_iter()
        .filter_map(|w| {
            let mut sorted = w.to_vec();
            sorted.sort_by(f64::total_cmp);
            percentile(&sorted, p)
        })
        .collect();
    median(&per_window)
}

/// Consecutive [`TAIL_WINDOW`]-sample windows of a time-ordered series (the
/// whole series when it is shorter than one window).
pub fn windows(series: &[f64]) -> Vec<&[f64]> {
    if series.len() < TAIL_WINDOW {
        vec![series]
    } else {
        series.chunks_exact(TAIL_WINDOW).collect()
    }
}

/// One open-loop request: when it was due, when the generator actually
/// sent it, and when its reply arrived (µs on one clock). `done` is
/// `None` for a request that failed or never completed.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct Arrival {
    /// Scheduled send time.
    pub due_us: f64,
    /// Actual send time.
    pub sent_us: f64,
    /// Reply time, if a correct reply arrived.
    pub done_us: Option<f64>,
}

/// Outcome of one open-loop phase.
#[derive(Debug, Clone, PartialEq)]
pub struct OpenLoopOutcome {
    /// Requests scheduled.
    pub attempted: usize,
    /// Requests without a correct reply.
    pub failed: usize,
    /// Latencies of answered requests, timed from their due time.
    pub latency_us: Vec<f64>,
    /// How late the generator sent each request.
    pub late_us: Vec<f64>,
}

/// Accounts an open-loop phase: latency runs from the *due* time, so a
/// stall that delays later sends is charged to them; a failed request
/// has no latency and counts as failed.
pub fn account(arrivals: &[Arrival]) -> OpenLoopOutcome {
    let mut out = OpenLoopOutcome {
        attempted: arrivals.len(),
        failed: 0,
        latency_us: Vec::with_capacity(arrivals.len()),
        late_us: Vec::with_capacity(arrivals.len()),
    };
    for a in arrivals {
        out.late_us.push((a.sent_us - a.due_us).max(0.0));
        match a.done_us {
            Some(done) => out.latency_us.push(done - a.due_us),
            None => out.failed += 1,
        }
    }
    out
}

/// Largest share of the machine's CPU time the host may steal during an
/// interval that still counts as calm: a quiet host takes about 1%.
pub const CALM_SHARE: f64 = 0.02;

/// Stolen CPU time sampled through a phase: `(µs since the phase's start,
/// stolen seconds per CPU so far)`, in time order.
pub type StealSamples = [(f64, f64)];

/// The share of the machine's CPU time stolen between two moments of a
/// phase, read off the samples at or before each.
pub fn stolen_share(samples: &StealSamples, from_us: f64, to_us: f64) -> f64 {
    let at = |t: f64| {
        samples
            .iter()
            .take_while(|s| s.0 <= t)
            .last()
            .or(samples.first())
            .map_or(0.0, |s| s.1)
    };
    let seconds = (to_us - from_us) * 1e-6;
    if seconds > 0.0 {
        (at(to_us) - at(from_us)).max(0.0) / seconds
    } else {
        0.0
    }
}

/// The calm part of a sequence of measured intervals, each given with the
/// share of CPU time the host stole during it and a tiebreak: every
/// interval with at most [`CALM_SHARE`] stolen, and at least the calmest
/// half (by stolen share, then tiebreak). Which intervals the host
/// disturbed does not depend on the code under test, so keeping the calm
/// ones removes the host's noise without favouring fast or slow results.
pub fn calm<T>(mut items: Vec<(f64, f64, T)>) -> Vec<T> {
    let quiet = items.iter().filter(|i| i.0 <= CALM_SHARE).count();
    let keep = quiet.max(items.len().div_ceil(2));
    items.sort_by(|a, b| a.0.total_cmp(&b.0).then(a.1.total_cmp(&b.1)));
    items.truncate(keep);
    items.into_iter().map(|(.., t)| t).collect()
}

/// The calm part of an open-loop phase: the requests, in due order, are
/// cut into windows of `window`; [`calm`] keeps them by the CPU time the
/// host stole during each, then by how late the generator sent their
/// requests (p99). A window where the client or server was starved of CPU
/// times the machine, not the system. Returns the kept windows' latencies
/// (answered requests only), one vector per window.
pub fn calm_windows(arrivals: &[Arrival], window: usize, steal: &StealSamples) -> Vec<Vec<f64>> {
    let mut ordered = arrivals.to_vec();
    ordered.sort_by(|a, b| a.due_us.total_cmp(&b.due_us));
    let windows = ordered
        .chunks(window)
        .filter(|w| w.len() == window || ordered.len() < window)
        .map(|w| {
            let mut late: Vec<f64> = w.iter().map(|a| (a.sent_us - a.due_us).max(0.0)).collect();
            late.sort_by(f64::total_cmp);
            let latency = w
                .iter()
                .filter_map(|a| Some(a.done_us? - a.due_us))
                .collect();
            let (from, to) = (w[0].due_us, w[w.len() - 1].due_us);
            (
                stolen_share(steal, from, to),
                percentile(&late, 0.99).unwrap_or(0.0),
                latency,
            )
        })
        .collect();
    calm(windows)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn median_and_percentile() {
        assert_eq!(median(&[]), None);
        assert_eq!(median(&[3.0, 1.0, 2.0]), Some(2.0));
        assert_eq!(median(&[4.0, 1.0, 2.0, 3.0]), Some(2.5));
        let sorted: Vec<f64> = (1..=100).map(f64::from).collect();
        assert_eq!(percentile(&sorted, 0.5), Some(50.0));
        assert_eq!(percentile(&sorted, 0.99), Some(99.0));
        assert_eq!(percentile(&sorted, 1.0), Some(100.0));
        assert_eq!(percentile(&sorted, 0.0), Some(1.0));
    }

    #[test]
    fn a_tail_window_leaves_ten_samples_beyond_its_p99() {
        // The rule: report a tail at the highest percentile with at least
        // ten samples beyond it. A window of TAIL_WINDOW reaches p99, and
        // is the smallest that does.
        assert_eq!(TAIL_WINDOW - rank(0.99, TAIL_WINDOW), 10);
        assert_eq!((TAIL_WINDOW - 1) - rank(0.99, TAIL_WINDOW - 1), 9);
        let values: Vec<f64> = (1..=1000).rev().map(f64::from).collect();
        assert_eq!(percentile_of(&values, 0.99), Some(990.0));
        assert_eq!(percentile_of(&[], 0.99), None);
    }

    #[test]
    fn open_loop_latency_runs_from_the_due_time() {
        let arrivals = [
            // On time: 100 µs of service.
            Arrival {
                due_us: 0.0,
                sent_us: 0.0,
                done_us: Some(100.0),
            },
            // Sent 400 µs late behind a stall: charged from its due time.
            Arrival {
                due_us: 1_000.0,
                sent_us: 1_400.0,
                done_us: Some(1_500.0),
            },
            // Failed: counted, and no latency.
            Arrival {
                due_us: 2_000.0,
                sent_us: 2_000.0,
                done_us: None,
            },
            Arrival {
                due_us: 3_000.0,
                sent_us: 3_000.0,
                done_us: Some(3_301.0),
            },
        ];
        let out = account(&arrivals);
        assert_eq!(out.attempted, 4);
        assert_eq!(out.failed, 1);
        assert_eq!(out.latency_us, vec![100.0, 500.0, 301.0]);
        assert_eq!(out.late_us, vec![0.0, 400.0, 0.0, 0.0]);
    }

    #[test]
    fn median_window_percentile_shrugs_off_one_burst() {
        // Three windows of 1,000; one burst ruins the second window's tail.
        let mut series: Vec<f64> = (0..3_000).map(|i| f64::from(i % 1_000)).collect();
        for v in &mut series[1_000..1_020] {
            *v = 50_000.0;
        }
        let w = windows(&series);
        assert_eq!(w.len(), 3);
        assert_eq!(
            median_window_percentile(w.iter().copied(), 0.99),
            Some(989.0)
        );
        assert_eq!(
            median_window_percentile(w.iter().copied(), 0.9),
            Some(899.0)
        );
        // Shorter than a window: one window, the plain percentile.
        assert_eq!(windows(&series[..200]).len(), 1);
        assert_eq!(
            median_window_percentile(windows(&series[..200]), 0.9),
            Some(179.0)
        );
        assert_eq!(median_window_percentile(windows(&[]), 0.9), None);
    }

    #[test]
    fn calm_windows_keep_the_quiet_ones_and_at_least_half() {
        let arrival = |i: usize, late: f64, latency: f64| {
            let due = i as f64 * 100.0;
            Arrival {
                due_us: due,
                sent_us: due + late,
                done_us: Some(due + latency),
            }
        };
        // Four windows of 10; the generator stalled in windows 1 and 3.
        let arrivals: Vec<Arrival> = (0..40)
            .map(|i| match i / 10 {
                1 | 3 => arrival(i, 900.0, 5_000.0),
                w => arrival(i, 10.0, 50.0 + w as f64),
            })
            .rev() // order of arrival does not matter, due order does
            .collect();
        // A quiet host: every window is kept, the punctual ones first.
        let kept = calm_windows(&arrivals, 10, &[]);
        assert_eq!(kept.len(), 4);
        assert!(kept[..2]
            .iter()
            .all(|w| w.len() == 10 && w.iter().all(|&l| l < 100.0)));
        // The host stole during window 2 (due 2,000-2,900 µs): dropped,
        // although its generator was punctual.
        let steal = [(0.0, 0.0), (2_500.0, 0.05), (9_000.0, 0.05)];
        let kept = calm_windows(&arrivals, 10, &steal);
        assert_eq!(kept.len(), 3);
        assert!(kept.iter().all(|w| w.iter().all(|&l| l != 52.0)));
        // The host stole throughout: the most punctual half.
        let steal: Vec<(f64, f64)> = (0..50)
            .map(|i| (i as f64 * 100.0, i as f64 * 0.01))
            .collect();
        let kept = calm_windows(&arrivals, 10, &steal);
        assert_eq!(kept.len(), 2);
        assert!(kept.iter().all(|w| w.iter().all(|&l| l < 100.0)));
        // A short phase is one window; an odd count keeps the larger half.
        assert_eq!(calm_windows(&arrivals[..5], 10, &[]).len(), 1);
        assert_eq!(calm_windows(&arrivals[..30], 10, &steal).len(), 2);
        // Failed requests stay out of the latencies.
        let mut failed = arrivals[..10].to_vec();
        failed[0].done_us = None;
        assert_eq!(calm_windows(&failed, 10, &[])[0].len(), 9);
    }

    #[test]
    fn steal_is_read_off_the_samples_around_an_interval() {
        // Seconds stolen per CPU so far, sampled each millisecond.
        let steal = [
            (0.0, 1.0),
            (1_000.0, 1.0),
            (2_000.0, 1.0002),
            (3_000.0, 1.0005),
        ];
        let near = |a: f64, b: f64| (a - b).abs() < 1e-9;
        assert!(near(stolen_share(&steal, 0.0, 1_500.0), 0.0));
        // 0.2 ms of 2 ms.
        assert!(near(stolen_share(&steal, 500.0, 2_500.0), 0.1));
        assert!(near(stolen_share(&steal, 0.0, 5_000.0), 0.1));
        // Before the first sample counts as the first sample.
        assert!(near(stolen_share(&steal, -1_000.0, 3_000.0), 0.125));
        assert_eq!(stolen_share(&[], 0.0, 1.0), 0.0);
        assert_eq!(stolen_share(&steal, 5.0, 5.0), 0.0);
    }

    #[test]
    fn calm_keeps_every_quiet_interval_and_at_least_the_calmest_half() {
        let items = vec![
            (0.3, 0.0, 'a'),
            (0.0, 9.0, 'b'),
            (0.0, 1.0, 'c'),
            (0.1, 0.0, 'd'),
            (0.9, 0.0, 'e'),
        ];
        // Two quiet, so the calmest three: stolen share, then tiebreak.
        assert_eq!(calm(items), vec!['c', 'b', 'd']);
        // All quiet: all kept.
        let quiet: Vec<(f64, f64, usize)> = (0..5).map(|i| (CALM_SHARE, 0.0, i)).collect();
        assert_eq!(calm(quiet), vec![0, 1, 2, 3, 4]);
        assert!(calm(Vec::<(f64, f64, ())>::new()).is_empty());
    }

    #[test]
    fn weighted_percentile_generalises_nearest_rank() {
        let unit: Vec<(f64, f64)> = (1..=100).map(|v| (f64::from(v), 1.0)).collect();
        let sorted: Vec<f64> = unit.iter().map(|s| s.0).collect();
        for p in [0.0, 0.01, 0.5, 0.9, 0.99, 1.0] {
            assert_eq!(weighted_percentile(&unit, p), percentile(&sorted, p));
        }
        // A sample kept 1 in 8 weighs as much as eight slow ones.
        let samples = [(1.0, 8.0), (50.0, 1.0), (60.0, 1.0)];
        assert_eq!(weighted_percentile(&samples, 0.5), Some(1.0));
        assert_eq!(weighted_percentile(&samples, 0.85), Some(50.0));
        assert_eq!(weighted_percentile(&samples, 0.99), Some(60.0));
        assert_eq!(weighted_percentile(&[], 0.5), None);
    }
}
