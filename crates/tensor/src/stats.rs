//! Small descriptive-statistics helpers used across the workspace for
//! accuracy accounting, spike-rate summaries and report generation.

/// Arithmetic mean; `0.0` for an empty slice.
#[must_use]
pub fn mean(xs: &[f32]) -> f32 {
    if xs.is_empty() {
        return 0.0;
    }
    xs.iter().sum::<f32>() / xs.len() as f32
}

/// Minimum value; `None` for an empty slice (NaNs are ignored).
#[must_use]
pub fn min(xs: &[f32]) -> Option<f32> {
    xs.iter().copied().filter(|v| !v.is_nan()).reduce(f32::min)
}

/// Maximum value; `None` for an empty slice (NaNs are ignored).
#[must_use]
pub fn max(xs: &[f32]) -> Option<f32> {
    xs.iter().copied().filter(|v| !v.is_nan()).reduce(f32::max)
}

/// Total-variation roughness of a curve: mean absolute successive
/// difference. Used to quantify the paper's "smoother learning curve"
/// claim (Fig. 13) numerically.
#[must_use]
pub fn roughness(xs: &[f32]) -> f32 {
    if xs.len() < 2 {
        return 0.0;
    }
    let tv: f32 = xs.windows(2).map(|w| (w[1] - w[0]).abs()).sum();
    tv / (xs.len() - 1) as f32
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn mean_known() {
        assert_eq!(mean(&[1.0, 2.0, 3.0, 4.0]), 2.5);
    }

    #[test]
    fn empty_and_short_slices() {
        assert_eq!(mean(&[]), 0.0);
        assert_eq!(min(&[]), None);
        assert_eq!(max(&[]), None);
        assert_eq!(roughness(&[1.0]), 0.0);
    }

    #[test]
    fn min_max_skip_nan() {
        let xs = [f32::NAN, 2.0, -1.0];
        assert_eq!(min(&xs), Some(-1.0));
        assert_eq!(max(&xs), Some(2.0));
    }

    #[test]
    fn roughness_orders_curves() {
        let smooth = [0.0, 0.25, 0.5, 0.75, 1.0];
        let jagged = [0.0, 1.0, 0.0, 1.0, 0.0];
        assert!(roughness(&jagged) > roughness(&smooth));
        assert!((roughness(&smooth) - 0.25).abs() < 1e-6);
    }
}
