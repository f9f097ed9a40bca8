//! Bit-packed spike raster.

use serde::{Deserialize, Serialize};

use crate::error::SpikeError;

/// A binary `neurons x steps` spike raster, bit-packed in **time-major**
/// order: all neuron bits of timestep `t` are contiguous.
///
/// Time-major layout makes the SNN forward pass cache-friendly: processing
/// timestep `t` only touches the `ceil(neurons / 64)` words of that step,
/// and [`SpikeRaster::active_at`] iterates the set bits directly.
///
/// # Example
///
/// ```
/// use ncl_spike::SpikeRaster;
///
/// let mut r = SpikeRaster::new(100, 10);
/// r.set(42, 3, true);
/// assert!(r.get(42, 3));
/// assert_eq!(r.active_at(3).collect::<Vec<_>>(), vec![42]);
/// assert_eq!(r.total_spikes(), 1);
/// ```
#[derive(Debug, Clone, PartialEq, Eq, Serialize, Deserialize)]
pub struct SpikeRaster {
    neurons: usize,
    steps: usize,
    words_per_step: usize,
    words: Vec<u64>,
}

impl SpikeRaster {
    /// Creates an empty (all-zero) raster.
    #[must_use]
    pub fn new(neurons: usize, steps: usize) -> Self {
        let words_per_step = neurons.div_ceil(64);
        SpikeRaster {
            neurons,
            steps,
            words_per_step,
            words: vec![0; words_per_step * steps],
        }
    }

    /// Builds a raster from a predicate over `(neuron, step)`.
    #[must_use]
    pub fn from_fn(neurons: usize, steps: usize, mut f: impl FnMut(usize, usize) -> bool) -> Self {
        let mut r = SpikeRaster::new(neurons, steps);
        for t in 0..steps {
            for n in 0..neurons {
                if f(n, t) {
                    r.set(n, t, true);
                }
            }
        }
        r
    }

    /// Number of neurons (rows).
    #[inline]
    #[must_use]
    pub fn neurons(&self) -> usize {
        self.neurons
    }

    /// Number of timesteps (columns).
    #[inline]
    #[must_use]
    pub fn steps(&self) -> usize {
        self.steps
    }

    /// Whether the spike at `(neuron, step)` is set.
    ///
    /// # Panics
    ///
    /// Panics if indices are out of bounds.
    #[inline]
    #[must_use]
    pub fn get(&self, neuron: usize, step: usize) -> bool {
        assert!(
            neuron < self.neurons && step < self.steps,
            "raster index out of bounds"
        );
        let w = self.words[step * self.words_per_step + neuron / 64];
        (w >> (neuron % 64)) & 1 == 1
    }

    /// Sets or clears the spike at `(neuron, step)`.
    ///
    /// # Panics
    ///
    /// Panics if indices are out of bounds.
    #[inline]
    pub fn set(&mut self, neuron: usize, step: usize, value: bool) {
        assert!(
            neuron < self.neurons && step < self.steps,
            "raster index out of bounds"
        );
        let idx = step * self.words_per_step + neuron / 64;
        let bit = 1u64 << (neuron % 64);
        if value {
            self.words[idx] |= bit;
        } else {
            self.words[idx] &= !bit;
        }
    }

    /// The packed words of one timestep.
    ///
    /// # Panics
    ///
    /// Panics if `step >= steps`.
    #[inline]
    #[must_use]
    pub fn step_words(&self, step: usize) -> &[u64] {
        assert!(step < self.steps, "step out of bounds");
        &self.words[step * self.words_per_step..(step + 1) * self.words_per_step]
    }

    /// Iterator over the indices of neurons that spike at `step`.
    ///
    /// # Panics
    ///
    /// Panics if `step >= steps`.
    pub fn active_at(&self, step: usize) -> ActiveIter<'_> {
        ActiveIter {
            words: self.step_words(step),
            word_idx: 0,
            current: None,
        }
    }

    /// Number of spikes at one timestep.
    #[must_use]
    pub fn spikes_at(&self, step: usize) -> usize {
        self.step_words(step)
            .iter()
            .map(|w| w.count_ones() as usize)
            .sum()
    }

    /// Total number of spikes in the raster.
    #[must_use]
    pub fn total_spikes(&self) -> usize {
        self.words.iter().map(|w| w.count_ones() as usize).sum()
    }

    /// Fraction of set bits, in `[0, 1]`; `0.0` for an empty raster.
    #[must_use]
    pub fn density(&self) -> f64 {
        let cells = self.neurons * self.steps;
        if cells == 0 {
            return 0.0;
        }
        self.total_spikes() as f64 / cells as f64
    }

    /// Copies one timestep of `src` into timestep `dst_step` of `self`
    /// (neuron counts must match).
    ///
    /// # Errors
    ///
    /// Returns [`SpikeError::ShapeMismatch`] if neuron counts differ, or
    /// [`SpikeError::IndexOutOfBounds`] for bad step indices.
    pub(crate) fn copy_step_from(
        &mut self,
        dst_step: usize,
        src: &SpikeRaster,
        src_step: usize,
    ) -> Result<(), SpikeError> {
        if src.neurons != self.neurons {
            return Err(SpikeError::ShapeMismatch {
                op: "copy_step_from",
                expected: (self.neurons, self.steps),
                actual: (src.neurons, src.steps),
            });
        }
        if dst_step >= self.steps || src_step >= src.steps {
            return Err(SpikeError::IndexOutOfBounds {
                neuron: 0,
                step: dst_step.max(src_step),
                neurons: self.neurons,
                steps: self.steps.min(src.steps),
            });
        }
        let src_words = src.step_words(src_step).to_vec();
        let dst =
            &mut self.words[dst_step * self.words_per_step..(dst_step + 1) * self.words_per_step];
        dst.copy_from_slice(&src_words);
        Ok(())
    }

    /// ORs one timestep of `src` into timestep `dst_step` of `self`.
    ///
    /// # Errors
    ///
    /// Same conditions as [`SpikeRaster::copy_step_from`].
    pub(crate) fn or_step_from(
        &mut self,
        dst_step: usize,
        src: &SpikeRaster,
        src_step: usize,
    ) -> Result<(), SpikeError> {
        if src.neurons != self.neurons {
            return Err(SpikeError::ShapeMismatch {
                op: "or_step_from",
                expected: (self.neurons, self.steps),
                actual: (src.neurons, src.steps),
            });
        }
        if dst_step >= self.steps || src_step >= src.steps {
            return Err(SpikeError::IndexOutOfBounds {
                neuron: 0,
                step: dst_step.max(src_step),
                neurons: self.neurons,
                steps: self.steps.min(src.steps),
            });
        }
        for i in 0..self.words_per_step {
            let v = src.words[src_step * src.words_per_step + i];
            self.words[dst_step * self.words_per_step + i] |= v;
        }
        Ok(())
    }

    /// Exact number of payload bits (`neurons * steps`); the quantity the
    /// latent-memory model of Fig. 12 accounts.
    #[must_use]
    pub fn payload_bits(&self) -> u64 {
        self.neurons as u64 * self.steps as u64
    }

    /// Clears every spike, keeping shape and allocation. Equivalent to
    /// `*self = SpikeRaster::new(self.neurons(), self.steps())` without the
    /// reallocation — the training arenas reuse rasters across samples.
    pub fn clear(&mut self) {
        self.words.iter_mut().for_each(|w| *w = 0);
    }

    /// Reshapes `self` into an all-zero `neurons x steps` raster in place,
    /// reusing the existing word buffer when its capacity suffices (no
    /// heap traffic once a raster has seen its steady-state shape).
    pub fn reset(&mut self, neurons: usize, steps: usize) {
        self.neurons = neurons;
        self.steps = steps;
        self.words_per_step = neurons.div_ceil(64);
        self.words.clear();
        self.words.resize(self.words_per_step * steps, 0);
    }

    /// Makes `self` an exact copy of `other`, reusing `self`'s allocation
    /// when possible (the in-place counterpart of `clone`).
    pub fn copy_from(&mut self, other: &SpikeRaster) {
        self.neurons = other.neurons;
        self.steps = other.steps;
        self.words_per_step = other.words_per_step;
        self.words.clear();
        self.words.extend_from_slice(&other.words);
    }
}

/// Iterator over active neuron indices within one timestep.
///
/// Produced by [`SpikeRaster::active_at`].
#[derive(Debug, Clone)]
pub struct ActiveIter<'a> {
    words: &'a [u64],
    word_idx: usize,
    current: Option<u64>,
}

impl Iterator for ActiveIter<'_> {
    type Item = usize;

    fn next(&mut self) -> Option<usize> {
        loop {
            match self.current {
                Some(bits) if bits != 0 => {
                    let tz = bits.trailing_zeros() as usize;
                    self.current = Some(bits & (bits - 1)); // clear lowest set bit
                    return Some((self.word_idx - 1) * 64 + tz);
                }
                _ => {
                    if self.word_idx >= self.words.len() {
                        return None;
                    }
                    self.current = Some(self.words[self.word_idx]);
                    self.word_idx += 1;
                }
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn empty_raster_has_no_spikes() {
        let r = SpikeRaster::new(700, 100);
        assert_eq!(r.total_spikes(), 0);
        assert_eq!(r.density(), 0.0);
        assert_eq!(r.active_at(0).count(), 0);
        assert_eq!(r.payload_bits(), 70_000);
    }

    #[test]
    fn set_get_roundtrip_across_word_boundaries() {
        let mut r = SpikeRaster::new(130, 3);
        for &n in &[0usize, 63, 64, 65, 127, 128, 129] {
            r.set(n, 1, true);
            assert!(r.get(n, 1));
            assert!(!r.get(n, 0));
        }
        assert_eq!(r.spikes_at(1), 7);
        r.set(64, 1, false);
        assert!(!r.get(64, 1));
        assert_eq!(r.spikes_at(1), 6);
    }

    #[test]
    fn active_at_yields_sorted_indices() {
        let mut r = SpikeRaster::new(200, 2);
        for &n in &[5usize, 63, 64, 140, 199] {
            r.set(n, 0, true);
        }
        let active: Vec<usize> = r.active_at(0).collect();
        assert_eq!(active, vec![5, 63, 64, 140, 199]);
    }

    #[test]
    fn from_fn_diagonal() {
        let r = SpikeRaster::from_fn(5, 5, |n, t| n == t);
        assert_eq!(r.total_spikes(), 5);
        for t in 0..5 {
            assert_eq!(r.active_at(t).collect::<Vec<_>>(), vec![t]);
        }
    }

    #[test]
    fn copy_and_or_steps() {
        let mut a = SpikeRaster::new(70, 2);
        let mut b = SpikeRaster::new(70, 2);
        a.set(3, 0, true);
        b.set(65, 1, true);
        a.copy_step_from(1, &b, 1).unwrap();
        assert!(a.get(65, 1));
        a.or_step_from(1, &b, 1).unwrap();
        assert!(a.get(65, 1));
        // copy overwrites
        let empty = SpikeRaster::new(70, 1);
        a.copy_step_from(1, &empty, 0).unwrap();
        assert!(!a.get(65, 1));
        // mismatched neurons error
        let c = SpikeRaster::new(4, 1);
        assert!(a.copy_step_from(0, &c, 0).is_err());
        assert!(a.or_step_from(0, &c, 0).is_err());
        // bad steps error
        assert!(a.copy_step_from(5, &b, 0).is_err());
        assert!(a.or_step_from(0, &b, 5).is_err());
    }

    #[test]
    fn density_counts() {
        let mut r = SpikeRaster::new(10, 10);
        for i in 0..10 {
            r.set(i, i, true);
        }
        assert!((r.density() - 0.1).abs() < 1e-12);
    }

    #[test]
    fn clear_reset_copy_from_reuse_allocation() {
        let mut r = SpikeRaster::from_fn(130, 6, |n, t| (n + t) % 7 == 0);
        assert!(r.total_spikes() > 0);
        r.clear();
        assert_eq!(r.total_spikes(), 0);
        assert_eq!(r.neurons(), 130);
        assert_eq!(r.steps(), 6);

        // Reset to a smaller shape: equivalent to a fresh raster.
        r.reset(70, 3);
        assert_eq!(r, SpikeRaster::new(70, 3));
        r.set(69, 2, true);
        // Reset back up: old bits never leak through.
        r.reset(130, 6);
        assert_eq!(r, SpikeRaster::new(130, 6));

        // copy_from is an in-place clone.
        let src = SpikeRaster::from_fn(33, 4, |n, t| n == t * 3);
        r.copy_from(&src);
        assert_eq!(r, src);
        assert_eq!(r.active_at(1).collect::<Vec<_>>(), vec![3]);
    }

    #[test]
    #[should_panic(expected = "out of bounds")]
    fn get_panics_out_of_bounds() {
        let r = SpikeRaster::new(2, 2);
        let _ = r.get(2, 0);
    }
}
