//! Softmax cross-entropy loss on the readout logits.

use ncl_tensor::ops;

use crate::error::SnnError;

/// Allocating form of [`cross_entropy_into`], for tests.
#[cfg(test)]
pub(crate) fn cross_entropy(logits: &[f32], target: usize) -> Result<(f32, Vec<f32>), SnnError> {
    let mut grad = Vec::new();
    let loss = cross_entropy_into(logits, target, &mut grad)?;
    Ok((loss, grad))
}

/// Computes softmax cross-entropy against an integer target, writes its
/// gradient with respect to the logits (`p − onehot(target)`) into
/// `grad` (cleared and resized, reusing its allocation) and returns the
/// loss; the per-sample path of the zero-allocation training arenas.
///
/// # Errors
///
/// Returns [`SnnError::ShapeMismatch`] if `target` is out of range or the
/// logits are empty.
pub(crate) fn cross_entropy_into(
    logits: &[f32],
    target: usize,
    grad: &mut Vec<f32>,
) -> Result<f32, SnnError> {
    if logits.is_empty() {
        return Err(SnnError::ShapeMismatch {
            op: "cross_entropy",
            expected: 1,
            actual: 0,
        });
    }
    if target >= logits.len() {
        return Err(SnnError::ShapeMismatch {
            op: "cross_entropy",
            expected: logits.len() - 1,
            actual: target,
        });
    }
    grad.clear();
    grad.resize(logits.len(), 0.0);
    ops::softmax(logits, grad).map_err(SnnError::from)?;
    let loss = -(grad[target].max(1e-12)).ln();
    grad[target] -= 1.0;
    Ok(loss)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn uniform_logits_give_log_n() {
        let (loss, grad) = cross_entropy(&[0.0; 4], 2).unwrap();
        assert!((loss - (4.0f32).ln()).abs() < 1e-5);
        assert!((grad[2] - (0.25 - 1.0)).abs() < 1e-5);
        assert!((grad[0] - 0.25).abs() < 1e-5);
    }

    #[test]
    fn grad_sums_to_zero() {
        let (_, grad) = cross_entropy(&[1.0, -2.0, 0.5, 3.0], 1).unwrap();
        let sum: f32 = grad.iter().sum();
        assert!(sum.abs() < 1e-5);
    }

    #[test]
    fn confident_correct_is_cheap_wrong_is_expensive() {
        let (right, _) = cross_entropy(&[5.0, 0.0], 0).unwrap();
        let (wrong, _) = cross_entropy(&[5.0, 0.0], 1).unwrap();
        assert!(right < 0.1);
        assert!(wrong > 2.0);
    }

    #[test]
    fn errors_on_bad_input() {
        assert!(cross_entropy(&[], 0).is_err());
        assert!(cross_entropy(&[1.0, 2.0], 2).is_err());
    }

    #[test]
    fn grad_matches_finite_difference() {
        let logits = [0.3f32, -0.7, 1.2];
        let target = 2;
        let (_, grad) = cross_entropy(&logits, target).unwrap();
        let eps = 1e-3f32;
        for i in 0..3 {
            let mut plus = logits;
            plus[i] += eps;
            let mut minus = logits;
            minus[i] -= eps;
            let (lp, _) = cross_entropy(&plus, target).unwrap();
            let (lm, _) = cross_entropy(&minus, target).unwrap();
            let fd = (lp - lm) / (2.0 * eps);
            assert!(
                (fd - grad[i]).abs() < 1e-3,
                "logit {i}: fd={fd}, grad={}",
                grad[i]
            );
        }
    }
}
