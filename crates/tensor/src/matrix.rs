//! Row-major dense `f32` matrix.

use serde::{Deserialize, Serialize};

use crate::error::TensorError;
use crate::init;
use crate::rng::Rng;

/// A dense row-major matrix of `f32` values.
///
/// Rows are contiguous in memory, which makes `row(i)` a cheap slice view —
/// the access pattern used by the event-driven SNN forward pass
/// (accumulating weight rows of active pre-synaptic neurons).
///
/// # Example
///
/// ```
/// use ncl_tensor::Matrix;
///
/// let m = Matrix::from_fn(2, 3, |r, c| (r * 3 + c) as f32);
/// assert_eq!(m.get(1, 2), 5.0);
/// assert_eq!(m.row(0), &[0.0, 1.0, 2.0]);
/// ```
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct Matrix {
    rows: usize,
    cols: usize,
    data: Vec<f32>,
}

impl Matrix {
    /// Creates a `rows x cols` matrix filled with zeros.
    #[must_use]
    pub fn zeros(rows: usize, cols: usize) -> Self {
        Matrix {
            rows,
            cols,
            data: vec![0.0; rows * cols],
        }
    }

    /// Creates a matrix from a generator function of `(row, col)`.
    #[must_use]
    pub fn from_fn(rows: usize, cols: usize, mut f: impl FnMut(usize, usize) -> f32) -> Self {
        let mut data = Vec::with_capacity(rows * cols);
        for r in 0..rows {
            for c in 0..cols {
                data.push(f(r, c));
            }
        }
        Matrix { rows, cols, data }
    }

    /// Creates a matrix from a flat row-major vector.
    ///
    /// # Errors
    ///
    /// Returns [`TensorError::ShapeMismatch`] if `data.len() != rows * cols`.
    pub fn from_vec(rows: usize, cols: usize, data: Vec<f32>) -> Result<Self, TensorError> {
        if data.len() != rows * cols {
            return Err(TensorError::ShapeMismatch {
                op: "Matrix::from_vec",
                expected: format!("{} elements", rows * cols),
                actual: format!("{} elements", data.len()),
            });
        }
        Ok(Matrix { rows, cols, data })
    }

    /// Xavier/Glorot-uniform initialized matrix (see [`init::xavier_bound`]).
    #[must_use]
    pub fn xavier_uniform(rows: usize, cols: usize, rng: &mut Rng) -> Self {
        let bound = init::xavier_bound(cols, rows);
        Matrix::from_fn(rows, cols, |_, _| rng.uniform_range(-bound, bound))
    }

    /// Number of rows.
    #[inline]
    #[must_use]
    pub fn rows(&self) -> usize {
        self.rows
    }

    /// Number of columns.
    #[inline]
    #[must_use]
    pub fn cols(&self) -> usize {
        self.cols
    }

    /// Total number of elements.
    #[inline]
    #[must_use]
    pub fn len(&self) -> usize {
        self.data.len()
    }

    /// Whether the matrix has zero elements.
    #[inline]
    #[must_use]
    pub fn is_empty(&self) -> bool {
        self.data.is_empty()
    }

    /// Element at `(r, c)`.
    ///
    /// # Panics
    ///
    /// Panics if `r >= rows` or `c >= cols`.
    #[inline]
    #[must_use]
    pub fn get(&self, r: usize, c: usize) -> f32 {
        assert!(r < self.rows && c < self.cols, "matrix index out of bounds");
        self.data[r * self.cols + c]
    }

    /// Sets the element at `(r, c)`.
    ///
    /// # Panics
    ///
    /// Panics if `r >= rows` or `c >= cols`.
    #[inline]
    pub fn set(&mut self, r: usize, c: usize, v: f32) {
        assert!(r < self.rows && c < self.cols, "matrix index out of bounds");
        self.data[r * self.cols + c] = v;
    }

    /// Borrow of row `r` as a contiguous slice.
    ///
    /// # Panics
    ///
    /// Panics if `r >= rows`.
    #[inline]
    #[must_use]
    pub fn row(&self, r: usize) -> &[f32] {
        assert!(r < self.rows, "row index out of bounds");
        &self.data[r * self.cols..(r + 1) * self.cols]
    }

    /// Mutable borrow of row `r`.
    ///
    /// # Panics
    ///
    /// Panics if `r >= rows`.
    #[inline]
    pub(crate) fn row_mut(&mut self, r: usize) -> &mut [f32] {
        assert!(r < self.rows, "row index out of bounds");
        &mut self.data[r * self.cols..(r + 1) * self.cols]
    }

    /// Flat row-major view of the underlying storage.
    #[inline]
    #[must_use]
    pub fn as_slice(&self) -> &[f32] {
        &self.data
    }

    /// Mutable flat row-major view of the underlying storage.
    #[inline]
    pub fn as_mut_slice(&mut self) -> &mut [f32] {
        &mut self.data
    }

    /// Returns the transposed matrix (owned copy).
    #[must_use]
    pub fn transposed(&self) -> Matrix {
        Matrix::from_fn(self.cols, self.rows, |r, c| self.get(c, r))
    }

    /// Applies `f` to every element in place.
    pub fn map_inplace(&mut self, mut f: impl FnMut(f32) -> f32) {
        for v in &mut self.data {
            *v = f(*v);
        }
    }

    /// Fills the matrix with zeros, reusing the allocation.
    pub fn fill_zero(&mut self) {
        self.data.iter_mut().for_each(|v| *v = 0.0);
    }
}

impl Default for Matrix {
    fn default() -> Self {
        Matrix::zeros(0, 0)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn construction_and_indexing() {
        let m = Matrix::from_fn(3, 2, |r, c| (10 * r + c) as f32);
        assert_eq!(m.rows(), 3);
        assert_eq!(m.cols(), 2);
        assert_eq!(m.len(), 6);
        assert!(!m.is_empty());
        assert_eq!(m.get(2, 1), 21.0);
        assert_eq!(m.row(1), &[10.0, 11.0]);
    }

    #[test]
    fn from_vec_checks_length() {
        assert!(Matrix::from_vec(2, 2, vec![1.0; 4]).is_ok());
        assert!(Matrix::from_vec(2, 2, vec![1.0; 5]).is_err());
    }

    #[test]
    fn set_and_row_mut() {
        let mut m = Matrix::zeros(2, 2);
        m.set(0, 1, 5.0);
        m.row_mut(1)[0] = -2.0;
        assert_eq!(m.get(0, 1), 5.0);
        assert_eq!(m.get(1, 0), -2.0);
    }

    #[test]
    fn transpose_round_trip() {
        let m = Matrix::from_fn(3, 4, |r, c| (r * 4 + c) as f32);
        let t = m.transposed();
        assert_eq!(t.rows(), 4);
        assert_eq!(t.cols(), 3);
        assert_eq!(t.get(2, 1), m.get(1, 2));
        assert_eq!(t.transposed(), m);
    }

    #[test]
    fn map_and_fill() {
        let mut m = Matrix::from_fn(2, 2, |_, _| 2.0);
        m.map_inplace(|v| v * 3.0);
        assert_eq!(m.get(1, 1), 6.0);
        m.fill_zero();
        assert!(m.as_slice().iter().all(|&v| v == 0.0));
    }

    #[test]
    fn xavier_respects_bound() {
        let mut rng = Rng::seed_from_u64(1);
        let m = Matrix::xavier_uniform(20, 30, &mut rng);
        let bound = crate::init::xavier_bound(30, 20);
        assert!(m.as_slice().iter().all(|v| v.abs() <= bound));
    }

    #[test]
    #[should_panic(expected = "out of bounds")]
    fn get_out_of_bounds_panics() {
        let m = Matrix::zeros(2, 2);
        let _ = m.get(2, 0);
    }

    #[test]
    fn default_is_empty() {
        let m = Matrix::default();
        assert!(m.is_empty());
        assert!(!format!("{m:?}").is_empty());
    }
}
