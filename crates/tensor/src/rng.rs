//! Deterministic pseudo-random number generation.
//!
//! Experiments in this workspace must be exactly reproducible from a seed on
//! any platform, so we pin the generator to a self-contained implementation
//! of **xoshiro256++** (Blackman & Vigna) seeded through **SplitMix64**
//! rather than depending on the default generator of an external crate whose
//! stream may change between versions.

use serde::{Deserialize, Serialize};

/// Multiplicative constant of the SplitMix64 finalizer.
const SPLITMIX_GAMMA: u64 = 0x9E37_79B9_7F4A_7C15;

/// Advances a SplitMix64 state and returns the next 64-bit output.
///
/// Used only for seeding [`Rng`]; exposed for testing against the reference
/// output stream of the public-domain implementation.
#[must_use]
pub fn splitmix64(state: &mut u64) -> u64 {
    *state = state.wrapping_add(SPLITMIX_GAMMA);
    let mut z = *state;
    z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
    z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
    z ^ (z >> 31)
}

/// A deterministic xoshiro256++ pseudo-random number generator.
///
/// # Example
///
/// ```
/// use ncl_tensor::Rng;
///
/// let mut a = Rng::seed_from_u64(42);
/// let mut b = Rng::seed_from_u64(42);
/// assert_eq!(a.uniform_range(-1.0, 1.0), b.uniform_range(-1.0, 1.0)); // same seed, same stream
/// ```
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct Rng {
    s: [u64; 4],
    /// Cached second Box-Muller variate, if one is pending.
    gauss_spare: Option<f64>,
}

impl Rng {
    /// Creates a generator whose 256-bit state is expanded from `seed` with
    /// SplitMix64, as recommended by the xoshiro authors.
    #[must_use]
    pub fn seed_from_u64(seed: u64) -> Self {
        let mut sm = seed;
        let s = [
            splitmix64(&mut sm),
            splitmix64(&mut sm),
            splitmix64(&mut sm),
            splitmix64(&mut sm),
        ];
        Rng {
            s,
            gauss_spare: None,
        }
    }

    /// Derives an independent child generator; useful for giving each
    /// parallel worker or dataset shard its own stream.
    #[must_use]
    pub fn fork(&mut self, stream: u64) -> Self {
        let base = self.next_u64() ^ stream.wrapping_mul(SPLITMIX_GAMMA);
        Rng::seed_from_u64(base)
    }

    /// Returns the next raw 64-bit output.
    #[inline]
    fn next_u64(&mut self) -> u64 {
        let s = &mut self.s;
        let result = s[0].wrapping_add(s[3]).rotate_left(23).wrapping_add(s[0]);
        let t = s[1] << 17;
        s[2] ^= s[0];
        s[3] ^= s[1];
        s[1] ^= s[2];
        s[0] ^= s[3];
        s[2] ^= t;
        s[3] = s[3].rotate_left(45);
        result
    }

    /// Uniform `f64` in `[0, 1)` with 53 bits of precision.
    #[inline]
    fn uniform_f64(&mut self) -> f64 {
        (self.next_u64() >> 11) as f64 * (1.0 / (1u64 << 53) as f64)
    }

    /// Uniform `f32` in `[0, 1)`.
    #[inline]
    pub fn uniform_f32(&mut self) -> f32 {
        self.uniform_f64() as f32
    }

    /// Uniform `f32` in `[lo, hi)`.
    ///
    /// # Panics
    ///
    /// Panics in debug builds if `lo > hi`.
    #[inline]
    pub fn uniform_range(&mut self, lo: f32, hi: f32) -> f32 {
        debug_assert!(lo <= hi, "uniform_range: lo must not exceed hi");
        lo + (hi - lo) * self.uniform_f32()
    }

    /// Uniform integer in `[0, n)`; `n` must be non-zero.
    ///
    /// Uses Lemire-style rejection to avoid modulo bias.
    ///
    /// # Panics
    ///
    /// Panics if `n == 0`.
    #[inline]
    pub fn below(&mut self, n: u64) -> u64 {
        assert!(n > 0, "Rng::below requires n > 0");
        // Rejection sampling over the widening multiply keeps the
        // distribution exactly uniform for every n.
        let threshold = n.wrapping_neg() % n;
        loop {
            let x = self.next_u64();
            let m = (x as u128) * (n as u128);
            if (m as u64) >= threshold {
                return (m >> 64) as u64;
            }
        }
    }

    /// Bernoulli draw: `true` with probability `p` (clamped to `[0, 1]`).
    #[inline]
    pub fn bernoulli(&mut self, p: f64) -> bool {
        self.uniform_f64() < p
    }

    /// Standard normal variate via the Box-Muller transform.
    pub(crate) fn normal(&mut self) -> f64 {
        if let Some(z) = self.gauss_spare.take() {
            return z;
        }
        // Draw u1 in (0,1] so the log is finite.
        let u1 = 1.0 - self.uniform_f64();
        let u2 = self.uniform_f64();
        let r = (-2.0 * u1.ln()).sqrt();
        let theta = std::f64::consts::TAU * u2;
        self.gauss_spare = Some(r * theta.sin());
        r * theta.cos()
    }

    /// Normal variate with the given mean and standard deviation, as `f32`.
    #[inline]
    pub fn normal_f32(&mut self, mean: f32, std_dev: f32) -> f32 {
        (mean as f64 + std_dev as f64 * self.normal()) as f32
    }

    /// Poisson-distributed count with the given rate `lambda`.
    ///
    /// Uses Knuth's product method, which is exact and fast for the small
    /// rates (λ ≲ 10) that appear in spike encoding.
    pub fn poisson(&mut self, lambda: f64) -> u32 {
        if lambda <= 0.0 {
            return 0;
        }
        let l = (-lambda).exp();
        let mut k = 0u32;
        let mut p = 1.0;
        loop {
            p *= self.uniform_f64();
            if p <= l {
                return k;
            }
            k += 1;
            // Guard against pathological large lambda.
            if k > 10_000 {
                return k;
            }
        }
    }

    /// Fisher-Yates shuffle of a slice, in place.
    pub fn shuffle<T>(&mut self, slice: &mut [T]) {
        let n = slice.len();
        if n < 2 {
            return;
        }
        for i in (1..n).rev() {
            let j = self.below(i as u64 + 1) as usize;
            slice.swap(i, j);
        }
    }

    /// Samples `k` distinct indices from `0..n` (uniform, without
    /// replacement). Returns fewer than `k` only when `k > n`.
    pub fn sample_indices(&mut self, n: usize, k: usize) -> Vec<usize> {
        let k = k.min(n);
        let mut idx: Vec<usize> = (0..n).collect();
        // Partial Fisher-Yates: only the first k positions need settling.
        for i in 0..k {
            let j = i + self.below((n - i) as u64) as usize;
            idx.swap(i, j);
        }
        idx.truncate(k);
        idx
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn splitmix64_matches_reference_vectors() {
        // Reference outputs of the public-domain splitmix64.c for seed 0.
        let mut s = 0u64;
        let expect = [
            0xE220_A839_7B1D_CDAF_u64,
            0x6E78_9E6A_A1B9_65F4,
            0x06C4_5D18_8009_454F,
            0xF88B_B8A8_724C_81EC,
        ];
        for e in expect {
            assert_eq!(splitmix64(&mut s), e);
        }
    }

    #[test]
    fn same_seed_same_stream() {
        let mut a = Rng::seed_from_u64(123);
        let mut b = Rng::seed_from_u64(123);
        for _ in 0..100 {
            assert_eq!(a.next_u64(), b.next_u64());
        }
    }

    #[test]
    fn different_seeds_differ() {
        let mut a = Rng::seed_from_u64(1);
        let mut b = Rng::seed_from_u64(2);
        let same = (0..64).filter(|_| a.next_u64() == b.next_u64()).count();
        assert!(same < 4, "streams should be essentially uncorrelated");
    }

    #[test]
    fn uniform_bounds_and_moments() {
        let mut rng = Rng::seed_from_u64(7);
        let n = 20_000;
        let mut sum = 0.0;
        for _ in 0..n {
            let u = rng.uniform_f64();
            assert!((0.0..1.0).contains(&u));
            sum += u;
        }
        let mean = sum / n as f64;
        assert!((mean - 0.5).abs() < 0.01, "mean was {mean}");
    }

    #[test]
    fn below_is_in_range_and_covers() {
        let mut rng = Rng::seed_from_u64(9);
        let mut seen = [false; 7];
        for _ in 0..1000 {
            let v = rng.below(7) as usize;
            assert!(v < 7);
            seen[v] = true;
        }
        assert!(seen.iter().all(|&s| s));
    }

    #[test]
    #[should_panic(expected = "n > 0")]
    fn below_zero_panics() {
        let mut rng = Rng::seed_from_u64(0);
        let _ = rng.below(0);
    }

    #[test]
    fn normal_moments() {
        let mut rng = Rng::seed_from_u64(11);
        let n = 40_000;
        let (mut sum, mut sq) = (0.0, 0.0);
        for _ in 0..n {
            let z = rng.normal();
            sum += z;
            sq += z * z;
        }
        let mean = sum / n as f64;
        let var = sq / n as f64 - mean * mean;
        assert!(mean.abs() < 0.02, "mean was {mean}");
        assert!((var - 1.0).abs() < 0.05, "var was {var}");
    }

    #[test]
    fn poisson_mean_close_to_lambda() {
        let mut rng = Rng::seed_from_u64(13);
        let lambda = 3.5;
        let n = 20_000;
        let total: u64 = (0..n).map(|_| rng.poisson(lambda) as u64).sum();
        let mean = total as f64 / n as f64;
        assert!((mean - lambda).abs() < 0.1, "mean was {mean}");
        assert_eq!(rng.poisson(0.0), 0);
        assert_eq!(rng.poisson(-1.0), 0);
    }

    #[test]
    fn shuffle_is_a_permutation() {
        let mut rng = Rng::seed_from_u64(17);
        let mut v: Vec<u32> = (0..50).collect();
        rng.shuffle(&mut v);
        let mut sorted = v.clone();
        sorted.sort_unstable();
        assert_eq!(sorted, (0..50).collect::<Vec<_>>());
        // A 50-element shuffle leaving everything fixed is astronomically
        // unlikely.
        assert_ne!(v, (0..50).collect::<Vec<_>>());
    }

    #[test]
    fn sample_indices_distinct_and_bounded() {
        let mut rng = Rng::seed_from_u64(19);
        let idx = rng.sample_indices(100, 10);
        assert_eq!(idx.len(), 10);
        let mut sorted = idx.clone();
        sorted.sort_unstable();
        sorted.dedup();
        assert_eq!(sorted.len(), 10);
        assert!(idx.iter().all(|&i| i < 100));
        // k > n clamps.
        assert_eq!(rng.sample_indices(3, 10).len(), 3);
    }

    #[test]
    fn fork_produces_distinct_streams() {
        let mut parent = Rng::seed_from_u64(21);
        let mut c1 = parent.fork(0);
        let mut c2 = parent.fork(1);
        let same = (0..64).filter(|_| c1.next_u64() == c2.next_u64()).count();
        assert!(same < 4);
    }
}
