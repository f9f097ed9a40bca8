//! Encoders that turn analog feature vectors into spike rasters.
//!
//! The synthetic SHD-like generator produces event data directly; for
//! non-event inputs [`poisson_encode`] does rate coding: each feature
//! value becomes a firing probability per timestep.

use ncl_tensor::Rng;

use crate::error::SpikeError;
use crate::raster::SpikeRaster;

/// Poisson rate encoding: neuron `i` fires at each timestep with
/// probability `values[i] * max_rate` (clamped to `[0, 1]`).
///
/// # Errors
///
/// Returns [`SpikeError::InvalidParameter`] if `steps == 0` or `max_rate`
/// is not in `(0, 1]`.
pub fn poisson_encode(
    values: &[f32],
    steps: usize,
    max_rate: f64,
    rng: &mut Rng,
) -> Result<SpikeRaster, SpikeError> {
    if steps == 0 {
        return Err(SpikeError::InvalidParameter {
            what: "steps",
            detail: "must be at least 1".into(),
        });
    }
    if !(0.0..=1.0).contains(&max_rate) || max_rate == 0.0 {
        return Err(SpikeError::InvalidParameter {
            what: "max_rate",
            detail: format!("must be in (0, 1], got {max_rate}"),
        });
    }
    let mut raster = SpikeRaster::new(values.len(), steps);
    for (n, &v) in values.iter().enumerate() {
        let p = (f64::from(v) * max_rate).clamp(0.0, 1.0);
        if p == 0.0 {
            continue;
        }
        for t in 0..steps {
            if rng.bernoulli(p) {
                raster.set(n, t, true);
            }
        }
    }
    Ok(raster)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn poisson_rate_tracks_value() {
        let mut rng = Rng::seed_from_u64(42);
        let r = poisson_encode(&[1.0, 0.5, 0.0], 4000, 0.5, &mut rng).unwrap();
        let rates = crate::metrics::firing_rates(&r);
        assert!((rates[0] - 0.5).abs() < 0.03, "rate was {}", rates[0]);
        assert!((rates[1] - 0.25).abs() < 0.03, "rate was {}", rates[1]);
        assert_eq!(rates[2], 0.0);
    }

    #[test]
    fn poisson_rejects_bad_parameters() {
        let mut rng = Rng::seed_from_u64(0);
        assert!(poisson_encode(&[0.5], 0, 0.5, &mut rng).is_err());
        assert!(poisson_encode(&[0.5], 10, 0.0, &mut rng).is_err());
        assert!(poisson_encode(&[0.5], 10, 1.5, &mut rng).is_err());
    }
}
