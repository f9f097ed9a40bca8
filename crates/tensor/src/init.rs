//! Weight-initialization schemes used by the SNN layers.
//!
//! SNNs trained with surrogate gradients are sensitive to the initial scale
//! of input currents: too small and no neuron ever crosses threshold (dead
//! network), too large and everything saturates. The standard Xavier
//! scheme keeps the per-neuron input current near unit variance, which is a
//! good operating point for threshold-1 LIF neurons.

/// Bound of the Xavier/Glorot uniform distribution for a layer with the
/// given fan-in and fan-out: `sqrt(6 / (fan_in + fan_out))`.
#[must_use]
pub(crate) fn xavier_bound(fan_in: usize, fan_out: usize) -> f32 {
    let denom = (fan_in + fan_out).max(1) as f32;
    (6.0 / denom).sqrt()
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn xavier_bound_formula() {
        assert!((xavier_bound(700, 200) - (6.0f32 / 900.0).sqrt()).abs() < 1e-7);
        // Degenerate sizes do not divide by zero.
        assert!(xavier_bound(0, 0).is_finite());
    }
}
