//! Fast-sigmoid surrogate gradient (the paper's Fig. 5).
//!
//! The forward pass uses the non-differentiable step `s = H(v - θ)`; the
//! backward pass replaces its derivative with the fast-sigmoid surrogate
//! `∂s/∂v ≈ 1 / (scale·|v − θ| + 1)²` (Zenke & Ganguli's SuperSpike
//! surrogate, which the SpikingLR baseline also uses).

use serde::{Deserialize, Serialize};

/// Family of surrogate-gradient shapes.
///
/// The paper (and its SpikingLR baseline) uses the fast sigmoid; the other
/// standard shapes from the surrogate-gradient literature are provided for
/// ablation and for users tuning their own models. All share the
/// properties required for stable BPTT: peak 1 at the threshold crossing,
/// symmetric, strictly positive, monotonically decaying in `|x|`.
#[derive(Debug, Default, Clone, Copy, PartialEq, Serialize, Deserialize)]
pub enum SurrogateKind {
    /// `1 / (scale·|x| + 1)²` — SuperSpike / the paper's Fig. 5.
    #[default]
    FastSigmoid,
    /// `1 / (1 + (scale·x)²)` — the arctan surrogate's derivative shape.
    ArcTan,
    /// `max(0, 1 − scale·|x|)` — triangular (piecewise-linear) window.
    Triangular,
    /// `exp(−(scale·x)²)` — Gaussian window.
    Gaussian,
}

/// A parameterized surrogate gradient: a [`SurrogateKind`] with its slope.
#[derive(Debug, Clone, Copy, PartialEq, Serialize, Deserialize)]
pub struct Surrogate {
    kind: SurrogateKind,
    scale: f32,
}

impl Surrogate {
    /// Creates a surrogate of the given shape and slope.
    ///
    /// # Panics
    ///
    /// Panics in debug builds if `scale` is not positive.
    #[must_use]
    pub fn new(kind: SurrogateKind, scale: f32) -> Self {
        debug_assert!(scale > 0.0, "surrogate scale must be positive");
        Surrogate { kind, scale }
    }

    /// The shape.
    #[must_use]
    pub fn kind(&self) -> SurrogateKind {
        self.kind
    }

    /// The slope parameter.
    #[must_use]
    pub fn scale(&self) -> f32 {
        self.scale
    }

    /// Surrogate derivative evaluated at `x = v − θ`.
    #[inline]
    #[must_use]
    pub(crate) fn grad(&self, x: f32) -> f32 {
        let s = self.scale;
        match self.kind {
            SurrogateKind::FastSigmoid => {
                let d = s * x.abs() + 1.0;
                1.0 / (d * d)
            }
            SurrogateKind::ArcTan => {
                let d = s * x;
                1.0 / (1.0 + d * d)
            }
            SurrogateKind::Triangular => (1.0 - s * x.abs()).max(0.0),
            SurrogateKind::Gaussian => {
                let d = s * x;
                (-(d * d)).exp()
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn fast_sigmoid(scale: f32) -> Surrogate {
        Surrogate::new(SurrogateKind::FastSigmoid, scale)
    }

    #[test]
    fn grad_peak_and_decay() {
        let sg = fast_sigmoid(10.0);
        assert_eq!(sg.grad(0.0), 1.0);
        assert!(sg.grad(0.1) < 1.0);
        assert!(sg.grad(1.0) < sg.grad(0.1));
        // Known value: scale 10, x = 0.1 -> 1/(2^2) = 0.25.
        assert!((sg.grad(0.1) - 0.25).abs() < 1e-6);
    }

    #[test]
    fn grad_is_symmetric_and_positive() {
        let sg = fast_sigmoid(25.0);
        for x in [-2.0f32, -0.5, -0.01, 0.01, 0.5, 2.0] {
            assert!(sg.grad(x) > 0.0);
            assert!((sg.grad(x) - sg.grad(-x)).abs() < 1e-7);
        }
    }

    #[test]
    fn larger_scale_is_sharper() {
        let wide = fast_sigmoid(5.0);
        let sharp = fast_sigmoid(50.0);
        assert!(sharp.grad(0.2) < wide.grad(0.2));
        assert_eq!(sharp.grad(0.0), wide.grad(0.0));
        assert_eq!(sharp.scale(), 50.0);
    }

    #[test]
    fn all_kinds_peak_at_threshold() {
        for kind in [
            SurrogateKind::FastSigmoid,
            SurrogateKind::ArcTan,
            SurrogateKind::Triangular,
            SurrogateKind::Gaussian,
        ] {
            let sg = Surrogate::new(kind, 10.0);
            assert_eq!(sg.grad(0.0), 1.0, "{kind:?} must peak at 1");
            assert_eq!(sg.kind(), kind);
            assert_eq!(sg.scale(), 10.0);
        }
        assert_eq!(SurrogateKind::default(), SurrogateKind::FastSigmoid);
    }

    #[test]
    fn all_kinds_are_symmetric_and_decaying() {
        for kind in [
            SurrogateKind::FastSigmoid,
            SurrogateKind::ArcTan,
            SurrogateKind::Triangular,
            SurrogateKind::Gaussian,
        ] {
            let sg = Surrogate::new(kind, 10.0);
            let mut prev = sg.grad(0.0);
            for i in 1..=20 {
                let x = i as f32 * 0.05;
                let g = sg.grad(x);
                assert!((g - sg.grad(-x)).abs() < 1e-7, "{kind:?} symmetric");
                assert!(g <= prev + 1e-7, "{kind:?} decaying");
                assert!(g >= 0.0);
                prev = g;
            }
        }
    }

    #[test]
    fn triangular_has_compact_support_others_do_not() {
        let tri = Surrogate::new(SurrogateKind::Triangular, 10.0);
        assert_eq!(tri.grad(0.2), 0.0, "outside the window");
        for kind in [
            SurrogateKind::FastSigmoid,
            SurrogateKind::ArcTan,
            SurrogateKind::Gaussian,
        ] {
            assert!(Surrogate::new(kind, 10.0).grad(0.2) > 0.0);
        }
    }
}
