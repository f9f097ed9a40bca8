//! A lock-free log₂-bucket histogram.
//!
//! Generalizes the latency histogram that used to live in
//! `ncl_serve::metrics`: 64 buckets where bucket `i` covers the value
//! range `(2^(i-1), 2^i]` (bucket 0 covers `0..=1`), so one
//! `fetch_add` per observation records any `u64` — microseconds,
//! bytes, batch sizes — with bounded relative error. Quantiles resolve
//! to the bucket's upper bound, so they never under-report.

use std::sync::atomic::{AtomicU64, Ordering};

/// Number of log₂ buckets; covers the full `u64` range.
pub const BUCKETS: usize = 64;

/// Lock-free histogram over `u64` observations.
///
/// All operations are plain relaxed atomics; concurrent recorders
/// never contend on a lock and `count`/`sum` are exact (each
/// observation is one `fetch_add` on each).
#[derive(Debug)]
pub struct Log2Histogram {
    buckets: [AtomicU64; BUCKETS],
    count: AtomicU64,
    sum: AtomicU64,
    max: AtomicU64,
    exemplar_count: AtomicU64,
    exemplar_value: AtomicU64,
    exemplar_hi: AtomicU64,
    exemplar_lo: AtomicU64,
}

impl Default for Log2Histogram {
    fn default() -> Self {
        Self::new()
    }
}

impl Log2Histogram {
    /// An empty histogram.
    #[must_use]
    pub fn new() -> Self {
        Log2Histogram {
            buckets: std::array::from_fn(|_| AtomicU64::new(0)),
            count: AtomicU64::new(0),
            sum: AtomicU64::new(0),
            max: AtomicU64::new(0),
            exemplar_count: AtomicU64::new(0),
            exemplar_value: AtomicU64::new(0),
            exemplar_hi: AtomicU64::new(0),
            exemplar_lo: AtomicU64::new(0),
        }
    }

    /// Bucket index for a value: the smallest `i` with `value <= 2^i`.
    #[inline]
    fn bucket_index(value: u64) -> usize {
        let v = value.max(1);
        ((64 - (v - 1).leading_zeros()) as usize).min(BUCKETS - 1)
    }

    /// Inclusive upper bound of bucket `i` (the last bucket is open).
    #[must_use]
    fn bucket_upper_bound(i: usize) -> u64 {
        if i >= BUCKETS - 1 {
            u64::MAX
        } else {
            1u64 << i
        }
    }

    /// Records one observation.
    #[inline]
    pub fn record(&self, value: u64) {
        self.buckets[Self::bucket_index(value)].fetch_add(1, Ordering::Relaxed);
        self.count.fetch_add(1, Ordering::Relaxed);
        self.sum.fetch_add(value, Ordering::Relaxed);
        self.max.fetch_max(value, Ordering::Relaxed);
    }

    /// Records one observation tagged with the trace it came from,
    /// keeping the trace id of the max-latency observation as an
    /// exemplar — so a p99 number in `stats` links to an actual trace.
    ///
    /// The exemplar update is racy-by-design (a check then three
    /// relaxed stores): under contention the exemplar may briefly name
    /// a near-max observation, which is fine for a diagnostics pointer
    /// and keeps the hot path lock-free.
    #[inline]
    pub fn record_traced(&self, value: u64, trace_id: u128) {
        self.record(value);
        self.exemplar_count.fetch_add(1, Ordering::Relaxed);
        if value >= self.exemplar_value.load(Ordering::Relaxed) {
            self.exemplar_value.store(value, Ordering::Relaxed);
            self.exemplar_hi
                .store((trace_id >> 64) as u64, Ordering::Relaxed);
            self.exemplar_lo.store(trace_id as u64, Ordering::Relaxed);
        }
    }

    /// The `(value, trace_id)` exemplar of the slowest traced
    /// observation, or `None` if nothing was recorded via
    /// [`Log2Histogram::record_traced`].
    #[must_use]
    pub fn exemplar(&self) -> Option<(u64, u128)> {
        if self.exemplar_count.load(Ordering::Relaxed) == 0 {
            return None;
        }
        let hi = u128::from(self.exemplar_hi.load(Ordering::Relaxed));
        let lo = u128::from(self.exemplar_lo.load(Ordering::Relaxed));
        Some((self.exemplar_value.load(Ordering::Relaxed), (hi << 64) | lo))
    }

    /// Total observations recorded.
    #[must_use]
    pub fn count(&self) -> u64 {
        self.count.load(Ordering::Relaxed)
    }

    /// Sum of all recorded values (wraps only after `u64` overflow).
    #[must_use]
    pub fn sum(&self) -> u64 {
        self.sum.load(Ordering::Relaxed)
    }

    /// Largest recorded value, exact (0 when empty).
    #[must_use]
    pub fn max(&self) -> u64 {
        self.max.load(Ordering::Relaxed)
    }

    /// Arithmetic mean of recorded values (0.0 when empty).
    #[must_use]
    pub fn mean(&self) -> f64 {
        let count = self.count();
        if count == 0 {
            return 0.0;
        }
        self.sum() as f64 / count as f64
    }

    /// Nearest-rank quantile, resolved to the containing bucket's
    /// upper bound so the estimate never under-reports. `q` is clamped
    /// to `[0, 1]`; an empty histogram reports 0.
    #[must_use]
    pub fn quantile(&self, q: f64) -> u64 {
        let count = self.count();
        if count == 0 {
            return 0;
        }
        let q = q.clamp(0.0, 1.0);
        let target = ((q * count as f64).ceil() as u64).clamp(1, count);
        let mut seen = 0u64;
        for (i, bucket) in self.buckets.iter().enumerate() {
            seen += bucket.load(Ordering::Relaxed);
            if seen >= target {
                return Self::bucket_upper_bound(i);
            }
        }
        // Racing recorders can leave count ahead of the bucket sums
        // for an instant; fall back to the largest value seen.
        self.max()
    }

    /// Cumulative `(upper_bound, count)` pairs up to and including the
    /// highest non-empty bucket. Empty histograms yield nothing; the
    /// caller adds the implicit `+Inf` bucket (== `count()`).
    #[must_use]
    pub fn cumulative_buckets(&self) -> Vec<(u64, u64)> {
        let counts: Vec<u64> = self
            .buckets
            .iter()
            .map(|b| b.load(Ordering::Relaxed))
            .collect();
        let Some(last) = counts.iter().rposition(|&c| c > 0) else {
            return Vec::new();
        };
        let mut out = Vec::with_capacity(last + 1);
        let mut running = 0u64;
        for (i, &c) in counts.iter().enumerate().take(last + 1) {
            running += c;
            out.push((Self::bucket_upper_bound(i), running));
        }
        out
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn buckets_are_log2_with_exact_count_sum_max() {
        let h = Log2Histogram::new();
        for v in [0u64, 1, 2, 3, 4, 100, 1000] {
            h.record(v);
        }
        assert_eq!(h.count(), 7);
        assert_eq!(h.sum(), 1110);
        assert_eq!(h.max(), 1000);
        // 0 and 1 share bucket 0; 2 is bucket 1; 3..=4 bucket 2.
        let cum = h.cumulative_buckets();
        assert_eq!(cum[0], (1, 2));
        assert_eq!(cum[1], (2, 3));
        assert_eq!(cum[2], (4, 5));
        assert_eq!(cum.last().unwrap().1, 7);
    }

    #[test]
    fn quantiles_resolve_to_bucket_upper_bounds() {
        let h = Log2Histogram::new();
        for _ in 0..99 {
            h.record(100); // bucket ub 128
        }
        h.record(5000); // bucket ub 8192
        assert_eq!(h.quantile(0.50), 128);
        assert_eq!(h.quantile(0.99), 128);
        assert_eq!(h.quantile(1.0), 8192);
    }

    #[test]
    fn empty_histogram_reports_zeroes() {
        let h = Log2Histogram::new();
        assert_eq!(h.count(), 0);
        assert_eq!(h.quantile(0.5), 0);
        assert_eq!(h.quantile(1.0), 0);
        assert_eq!(h.max(), 0);
        assert!(h.mean().abs() < f64::EPSILON);
        assert!(h.cumulative_buckets().is_empty());
    }

    #[test]
    fn exemplar_tracks_the_slowest_traced_observation() {
        let h = Log2Histogram::new();
        assert_eq!(h.exemplar(), None);
        h.record(9_999); // untraced observations never become exemplars
        assert_eq!(h.exemplar(), None);
        h.record_traced(100, 7);
        h.record_traced(5_000, 0x0102_0304_0506_0708_090a_0b0c_0d0e_0f10);
        h.record_traced(200, 9);
        assert_eq!(
            h.exemplar(),
            Some((5_000, 0x0102_0304_0506_0708_090a_0b0c_0d0e_0f10))
        );
        assert_eq!(h.count(), 4, "record_traced still feeds the histogram");
    }

    #[test]
    fn max_bucket_absorbs_the_full_u64_range() {
        let h = Log2Histogram::new();
        h.record(u64::MAX);
        h.record(1u64 << 63);
        assert_eq!(h.count(), 2);
        assert_eq!(h.max(), u64::MAX);
        // The open last bucket's upper bound never under-reports.
        assert_eq!(h.quantile(1.0), u64::MAX);
        let cum = h.cumulative_buckets();
        assert_eq!(cum.last().copied(), Some((u64::MAX, 2)));
    }
}
