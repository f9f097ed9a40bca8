//! Shape-checked dense kernels: matrix-vector products, outer-product
//! accumulation, and elementwise helpers.
//!
//! These are the only kernels the SNN training loop needs. They are written
//! as unrolled slice loops (`chunks_exact` over [`LANES`]-wide blocks) so
//! the compiler autovectorizes them without bounds checks; on the network
//! sizes of the paper (≤ 700 wide) this is within a small factor of a tuned
//! BLAS and keeps the crate dependency-free.
//!
//! Determinism note: every elementwise kernel (`axpy`, [`rows_add`],
//! [`rows_add_masked`], `gemv_t`) performs independent per-element updates,
//! so unrolling does not change results. The dot-product reduction inside
//! [`gemv`] uses a fixed [`LANES`]-accumulator tree, which is a
//! *different* (but still fully deterministic) float-summation order than a
//! strictly sequential loop — the order is part of the kernel contract and
//! identical on every call, platform and thread count.

use crate::error::TensorError;
use crate::matrix::Matrix;

/// Unroll width of the vectorized kernels (f32 lanes per block).
const LANES: usize = 8;

/// Dot product with a fixed 8-lane accumulator tree (the vectorizable
/// reduction inside [`gemv`]).
#[inline]
fn dot_unrolled(row: &[f32], x: &[f32]) -> f32 {
    debug_assert_eq!(row.len(), x.len());
    let split = row.len() - row.len() % LANES;
    let mut acc = [0.0f32; LANES];
    for (rc, xc) in row[..split]
        .chunks_exact(LANES)
        .zip(x[..split].chunks_exact(LANES))
    {
        for l in 0..LANES {
            acc[l] += rc[l] * xc[l];
        }
    }
    let mut tail = 0.0f32;
    for (w, xv) in row[split..].iter().zip(x[split..].iter()) {
        tail += w * xv;
    }
    let a = (acc[0] + acc[4]) + (acc[2] + acc[6]);
    let b = (acc[1] + acc[5]) + (acc[3] + acc[7]);
    (a + b) + tail
}

/// `y += alpha · x`, unrolled; the elementwise core of [`axpy`],
/// [`rows_add`], [`rows_add_masked`] and `gemv_t` (identical rounding in
/// all of them: one `mul` + one `add` per element).
#[inline]
fn add_scaled(alpha: f32, x: &[f32], y: &mut [f32]) {
    debug_assert_eq!(x.len(), y.len());
    let split = y.len() - y.len() % LANES;
    for (yc, xc) in y[..split]
        .chunks_exact_mut(LANES)
        .zip(x[..split].chunks_exact(LANES))
    {
        for l in 0..LANES {
            yc[l] += alpha * xc[l];
        }
    }
    for (yv, xv) in y[split..].iter_mut().zip(x[split..].iter()) {
        *yv += alpha * xv;
    }
}

/// `y = A·x` (matrix-vector product).
///
/// # Errors
///
/// Returns [`TensorError::ShapeMismatch`] if `x.len() != A.cols()` or
/// `y.len() != A.rows()`.
///
/// # Example
///
/// ```
/// use ncl_tensor::{Matrix, ops};
/// # fn main() -> Result<(), ncl_tensor::TensorError> {
/// let a = Matrix::from_vec(2, 2, vec![1.0, 2.0, 3.0, 4.0])?;
/// let mut y = vec![0.0; 2];
/// ops::gemv(&a, &[1.0, 1.0], &mut y)?;
/// assert_eq!(y, vec![3.0, 7.0]);
/// # Ok(())
/// # }
/// ```
pub fn gemv(a: &Matrix, x: &[f32], y: &mut [f32]) -> Result<(), TensorError> {
    check_gemv("gemv", a, x.len(), y.len())?;
    for (r, out) in y.iter_mut().enumerate() {
        *out = dot_unrolled(a.row(r), x);
    }
    Ok(())
}

/// `y = Aᵀ·x` (transposed matrix-vector product) without materializing the
/// transpose. `x.len()` must equal `A.rows()`, `y.len()` must equal
/// `A.cols()`.
///
/// # Errors
///
/// Returns [`TensorError::ShapeMismatch`] on any dimension mismatch.
pub fn gemv_t(a: &Matrix, x: &[f32], y: &mut [f32]) -> Result<(), TensorError> {
    if x.len() != a.rows() || y.len() != a.cols() {
        return Err(TensorError::ShapeMismatch {
            op: "gemv_t",
            expected: format!("x: {}, y: {}", a.rows(), a.cols()),
            actual: format!("x: {}, y: {}", x.len(), y.len()),
        });
    }
    y.iter_mut().for_each(|v| *v = 0.0);
    for (r, &xv) in x.iter().enumerate() {
        if xv == 0.0 {
            continue; // rows gated by zero activations contribute nothing
        }
        add_scaled(xv, a.row(r), y);
    }
    Ok(())
}

/// Accumulates a scaled outer product: `A += alpha · d·xᵀ`, where `d` has
/// `A.rows()` elements and `x` has `A.cols()` elements.
///
/// This is the weight-gradient kernel: `dW += delta ⊗ input`.
///
/// # Errors
///
/// Returns [`TensorError::ShapeMismatch`] on any dimension mismatch.
pub fn outer_acc(a: &mut Matrix, d: &[f32], x: &[f32], alpha: f32) -> Result<(), TensorError> {
    if d.len() != a.rows() || x.len() != a.cols() {
        return Err(TensorError::ShapeMismatch {
            op: "outer_acc",
            expected: format!("d: {}, x: {}", a.rows(), a.cols()),
            actual: format!("d: {}, x: {}", d.len(), x.len()),
        });
    }
    for (r, &dv) in d.iter().enumerate() {
        let s = alpha * dv;
        if s == 0.0 {
            continue;
        }
        add_scaled(s, x, a.row_mut(r));
    }
    Ok(())
}

/// Sparse variant of [`outer_acc`] where the input is a set of active column
/// indices (a spike vector): `A[:, j] += alpha · d` for every `j` in
/// `active`.
///
/// # Errors
///
/// Returns [`TensorError::ShapeMismatch`] if `d.len() != A.rows()` or any
/// index in `active` is out of range.
pub fn outer_acc_sparse(
    a: &mut Matrix,
    d: &[f32],
    active: &[usize],
    alpha: f32,
) -> Result<(), TensorError> {
    if d.len() != a.rows() {
        return Err(TensorError::ShapeMismatch {
            op: "outer_acc_sparse",
            expected: format!("d: {}", a.rows()),
            actual: format!("d: {}", d.len()),
        });
    }
    let cols = a.cols();
    if let Some(&bad) = active.iter().find(|&&j| j >= cols) {
        return Err(TensorError::ShapeMismatch {
            op: "outer_acc_sparse",
            expected: format!("column < {cols}"),
            actual: format!("column {bad}"),
        });
    }
    for (r, &dv) in d.iter().enumerate() {
        let s = alpha * dv;
        if s == 0.0 {
            continue;
        }
        let row = a.row_mut(r);
        for &j in active {
            row[j] += s;
        }
    }
    Ok(())
}

/// Adds `alpha · x` to each listed row of `A`: `A[i, :] += alpha·x` for
/// every `i` in `rows`.
///
/// This is the event-driven weight-gradient kernel for input-major weight
/// matrices (`pre x post`): each active pre-synaptic neuron contributes the
/// post-synaptic delta to its own weight row.
///
/// # Errors
///
/// Returns [`TensorError::ShapeMismatch`] if `x.len() != A.cols()` or any
/// row index is out of range.
pub fn rows_add(a: &mut Matrix, rows: &[usize], x: &[f32], alpha: f32) -> Result<(), TensorError> {
    if x.len() != a.cols() {
        return Err(TensorError::ShapeMismatch {
            op: "rows_add",
            expected: format!("x: {}", a.cols()),
            actual: format!("x: {}", x.len()),
        });
    }
    let nrows = a.rows();
    if let Some(&bad) = rows.iter().find(|&&r| r >= nrows) {
        return Err(TensorError::ShapeMismatch {
            op: "rows_add",
            expected: format!("row < {nrows}"),
            actual: format!("row {bad}"),
        });
    }
    for &r in rows {
        add_scaled(alpha, x, a.row_mut(r));
    }
    Ok(())
}

/// Bitmask-driven variant of [`rows_add`]: `A[r, :] += alpha·x` for every
/// set bit `r` of `mask` (a little-endian packed row set, e.g. one
/// timestep's `SpikeRaster::step_words`). Rows are visited in ascending
/// bit order — exactly the order [`rows_add`] sees from a sorted index
/// list — so the two kernels are bit-identical on equivalent inputs; this
/// one just skips materializing the index list.
///
/// Trailing mask bits beyond `A.rows()` are rejected, not ignored.
///
/// # Errors
///
/// Returns [`TensorError::ShapeMismatch`] if `x.len() != A.cols()` or any
/// set bit indexes a row `>= A.rows()`.
pub fn rows_add_masked(
    a: &mut Matrix,
    mask: &[u64],
    x: &[f32],
    alpha: f32,
) -> Result<(), TensorError> {
    if x.len() != a.cols() {
        return Err(TensorError::ShapeMismatch {
            op: "rows_add_masked",
            expected: format!("x: {}", a.cols()),
            actual: format!("x: {}", x.len()),
        });
    }
    let nrows = a.rows();
    // Validate before mutating: the highest set bit must be a valid row.
    if let Some((wi, &word)) = mask.iter().enumerate().rev().find(|(_, w)| **w != 0) {
        let highest = wi * 64 + (63 - word.leading_zeros() as usize);
        if highest >= nrows {
            return Err(TensorError::ShapeMismatch {
                op: "rows_add_masked",
                expected: format!("row < {nrows}"),
                actual: format!("row {highest}"),
            });
        }
    }
    for (wi, &word) in mask.iter().enumerate() {
        let mut bits = word;
        let base = wi * 64;
        while bits != 0 {
            let r = base + bits.trailing_zeros() as usize;
            bits &= bits - 1; // clear lowest set bit
            add_scaled(alpha, x, a.row_mut(r));
        }
    }
    Ok(())
}

/// `y += alpha · x` (AXPY).
///
/// # Errors
///
/// Returns [`TensorError::ShapeMismatch`] if lengths differ.
pub fn axpy(alpha: f32, x: &[f32], y: &mut [f32]) -> Result<(), TensorError> {
    if x.len() != y.len() {
        return Err(TensorError::ShapeMismatch {
            op: "axpy",
            expected: format!("{}", y.len()),
            actual: format!("{}", x.len()),
        });
    }
    add_scaled(alpha, x, y);
    Ok(())
}

/// Numerically-stable softmax, written into `out`.
///
/// # Errors
///
/// Returns [`TensorError::ShapeMismatch`] if lengths differ, or
/// [`TensorError::ZeroDimension`] for empty input.
pub fn softmax(logits: &[f32], out: &mut [f32]) -> Result<(), TensorError> {
    if logits.is_empty() {
        return Err(TensorError::ZeroDimension { op: "softmax" });
    }
    if logits.len() != out.len() {
        return Err(TensorError::ShapeMismatch {
            op: "softmax",
            expected: format!("{}", logits.len()),
            actual: format!("{}", out.len()),
        });
    }
    let max = logits.iter().copied().fold(f32::NEG_INFINITY, f32::max);
    let mut sum = 0.0f32;
    for (o, &l) in out.iter_mut().zip(logits.iter()) {
        let e = (l - max).exp();
        *o = e;
        sum += e;
    }
    let inv = 1.0 / sum;
    out.iter_mut().for_each(|o| *o *= inv);
    Ok(())
}

/// Index of the maximum element (first occurrence on ties); `None` for empty
/// input.
#[must_use]
pub fn argmax(x: &[f32]) -> Option<usize> {
    if x.is_empty() {
        return None;
    }
    let mut best = 0;
    for (i, &v) in x.iter().enumerate().skip(1) {
        if v > x[best] {
            best = i;
        }
    }
    Some(best)
}

fn check_gemv(op: &'static str, a: &Matrix, xlen: usize, ylen: usize) -> Result<(), TensorError> {
    if xlen != a.cols() || ylen != a.rows() {
        return Err(TensorError::ShapeMismatch {
            op,
            expected: format!("x: {}, y: {}", a.cols(), a.rows()),
            actual: format!("x: {xlen}, y: {ylen}"),
        });
    }
    Ok(())
}

#[cfg(test)]
mod tests {
    use super::*;

    fn sample_matrix() -> Matrix {
        Matrix::from_vec(2, 3, vec![1.0, 2.0, 3.0, 4.0, 5.0, 6.0]).unwrap()
    }

    #[test]
    fn gemv_known_values() {
        let a = sample_matrix();
        let mut y = vec![0.0; 2];
        gemv(&a, &[1.0, 0.0, -1.0], &mut y).unwrap();
        assert_eq!(y, vec![-2.0, -2.0]);
    }

    #[test]
    fn gemv_shape_errors() {
        let a = sample_matrix();
        let mut y = vec![0.0; 2];
        assert!(gemv(&a, &[1.0, 2.0], &mut y).is_err());
        let mut y3 = vec![0.0; 3];
        assert!(gemv(&a, &[1.0, 2.0, 3.0], &mut y3).is_err());
    }

    #[test]
    fn gemv_t_matches_explicit_transpose() {
        let a = sample_matrix();
        let x = [0.5, -1.5];
        let mut y = vec![0.0; 3];
        gemv_t(&a, &x, &mut y).unwrap();
        let t = a.transposed();
        let mut y2 = vec![0.0; 3];
        gemv(&t, &x, &mut y2).unwrap();
        for (u, v) in y.iter().zip(y2.iter()) {
            assert!((u - v).abs() < 1e-6);
        }
    }

    #[test]
    fn outer_acc_known_values() {
        let mut a = Matrix::zeros(2, 3);
        outer_acc(&mut a, &[1.0, 2.0], &[1.0, 0.0, -1.0], 0.5).unwrap();
        assert_eq!(a.row(0), &[0.5, 0.0, -0.5]);
        assert_eq!(a.row(1), &[1.0, 0.0, -1.0]);
    }

    #[test]
    fn outer_acc_sparse_matches_dense() {
        let mut dense = Matrix::zeros(3, 5);
        let mut sparse = Matrix::zeros(3, 5);
        let d = [1.0, -2.0, 0.5];
        let mut x = vec![0.0; 5];
        x[1] = 1.0;
        x[4] = 1.0;
        outer_acc(&mut dense, &d, &x, 2.0).unwrap();
        outer_acc_sparse(&mut sparse, &d, &[1, 4], 2.0).unwrap();
        assert_eq!(dense, sparse);
    }

    #[test]
    fn outer_acc_sparse_rejects_bad_index() {
        let mut a = Matrix::zeros(2, 3);
        assert!(outer_acc_sparse(&mut a, &[1.0, 1.0], &[3], 1.0).is_err());
    }

    #[test]
    fn rows_add_touches_only_listed_rows() {
        let mut a = Matrix::zeros(3, 2);
        rows_add(&mut a, &[0, 2], &[1.0, -1.0], 2.0).unwrap();
        assert_eq!(a.row(0), &[2.0, -2.0]);
        assert_eq!(a.row(1), &[0.0, 0.0]);
        assert_eq!(a.row(2), &[2.0, -2.0]);
        // Repeated rows accumulate twice.
        rows_add(&mut a, &[1, 1], &[1.0, 1.0], 1.0).unwrap();
        assert_eq!(a.row(1), &[2.0, 2.0]);
    }

    /// Packs sorted row indices into the little-endian word mask
    /// `rows_add_masked` consumes.
    fn pack_mask(rows: &[usize], words: usize) -> Vec<u64> {
        let mut mask = vec![0u64; words];
        for &r in rows {
            mask[r / 64] |= 1u64 << (r % 64);
        }
        mask
    }

    #[test]
    fn rows_add_masked_matches_rows_add_bitwise() {
        // Rows straddling word boundaries, irregular column count, and
        // non-trivial float values: the masked walk must reproduce the
        // gathered-index kernel exactly.
        let mut rng_state = 0x9E37_79B9_7F4A_7C15u64;
        let mut next = move || {
            rng_state = rng_state.wrapping_mul(6364136223846793005).wrapping_add(1);
            ((rng_state >> 33) as f32 / (1u64 << 31) as f32) - 1.0
        };
        let rows = 130usize;
        let cols = 11usize;
        let base = Matrix::from_fn(rows, cols, |_, _| next());
        let x: Vec<f32> = (0..cols).map(|_| next()).collect();
        let active = [0usize, 1, 63, 64, 65, 100, 127, 128, 129];

        let mut gathered = base.clone();
        rows_add(&mut gathered, &active, &x, 0.37).unwrap();
        let mut masked = base;
        rows_add_masked(&mut masked, &pack_mask(&active, 3), &x, 0.37).unwrap();
        assert_eq!(gathered, masked, "bit-identical across kernels");
    }

    #[test]
    fn rows_add_masked_empty_mask_is_noop() {
        let mut a = Matrix::from_fn(4, 2, |_, _| 7.0);
        rows_add_masked(&mut a, &[0, 0], &[1.0, 1.0], 1.0).unwrap();
        rows_add_masked(&mut a, &[], &[1.0, 1.0], 1.0).unwrap();
        assert_eq!(a, Matrix::from_fn(4, 2, |_, _| 7.0));
    }

    #[test]
    fn rows_add_masked_errors() {
        let mut a = Matrix::zeros(4, 2);
        // Wrong x width.
        assert!(rows_add_masked(&mut a, &[0b1], &[1.0], 1.0).is_err());
        // Set bit beyond the row count is rejected before any mutation.
        let before = a.clone();
        assert!(rows_add_masked(&mut a, &[0b1_0001], &[1.0, 1.0], 1.0).is_err());
        assert_eq!(a, before, "validation happens before mutation");
    }

    #[test]
    fn gemv_unrolled_matches_f64_reference() {
        // A length crossing several unroll blocks plus a ragged tail.
        let cols = 83;
        let a = Matrix::from_fn(3, cols, |r, c| ((r * cols + c) as f32).sin());
        let x: Vec<f32> = (0..cols).map(|c| ((c as f32) * 0.37).cos()).collect();
        let mut y = vec![0.0f32; 3];
        gemv(&a, &x, &mut y).unwrap();
        for (r, got) in y.iter().enumerate() {
            let want: f64 = a
                .row(r)
                .iter()
                .zip(x.iter())
                .map(|(w, xv)| f64::from(*w) * f64::from(*xv))
                .sum();
            assert!((f64::from(*got) - want).abs() < 1e-4, "row {r}");
        }
    }

    #[test]
    fn rows_add_errors() {
        let mut a = Matrix::zeros(2, 2);
        assert!(rows_add(&mut a, &[0], &[1.0], 1.0).is_err());
        assert!(rows_add(&mut a, &[5], &[1.0, 2.0], 1.0).is_err());
    }

    #[test]
    fn axpy_and_dot() {
        let mut y = vec![1.0, 2.0];
        axpy(2.0, &[3.0, 4.0], &mut y).unwrap();
        assert_eq!(y, vec![7.0, 10.0]);
        assert!(axpy(1.0, &[1.0], &mut y).is_err());
    }

    #[test]
    fn softmax_sums_to_one_and_is_stable() {
        let logits = [1000.0, 1001.0, 999.0];
        let mut out = [0.0; 3];
        softmax(&logits, &mut out).unwrap();
        let sum: f32 = out.iter().sum();
        assert!((sum - 1.0).abs() < 1e-6);
        assert!(out.iter().all(|p| p.is_finite() && *p > 0.0));
        assert!(out[1] > out[0] && out[0] > out[2]);
    }

    #[test]
    fn softmax_errors() {
        let mut out = [0.0; 2];
        assert!(softmax(&[], &mut []).is_err());
        assert!(softmax(&[1.0, 2.0, 3.0], &mut out).is_err());
    }

    #[test]
    fn argmax_behaviour() {
        assert_eq!(argmax(&[1.0, 5.0, 3.0]), Some(1));
        assert_eq!(argmax(&[2.0, 2.0]), Some(0)); // first on ties
        assert_eq!(argmax(&[]), None);
    }
}
