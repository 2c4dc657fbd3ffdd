//! Dense row-major matrices and the reference GEMM.
//!
//! The systolic-array simulator and the analytical models both operate on
//! integer matrices: inputs and weights are 32-bit quantized values and the
//! column accumulations are performed at 64 bits, exactly as in the paper's
//! evaluation. [`Matrix`] is a small dense row-major container; the
//! free function [`multiply`] is the reference GEMM every simulator result
//! is checked against.

use crate::error::GemmError;
use crate::lanes;
use crate::rng::SplitMix64;
use serde::{Deserialize, Serialize};
use std::fmt;
use std::ops::{Index, IndexMut};

/// A dense, row-major matrix.
///
/// # Examples
///
/// ```
/// use gemm::Matrix;
///
/// let a = Matrix::from_rows(vec![vec![1, 2], vec![3, 4]])?;
/// assert_eq!(a[(1, 0)], 3);
/// assert_eq!(a.rows(), 2);
/// assert_eq!(a.cols(), 2);
/// # Ok::<(), gemm::GemmError>(())
/// ```
#[derive(Debug, Clone, PartialEq, Eq, Hash, Serialize, Deserialize)]
pub struct Matrix<T> {
    rows: usize,
    cols: usize,
    data: Vec<T>,
}

impl<T: Copy + Default> Matrix<T> {
    /// Creates a matrix of the given shape filled with `T::default()`.
    ///
    /// # Panics
    ///
    /// Panics if `rows * cols` overflows `usize`.
    #[must_use]
    pub fn zeros(rows: usize, cols: usize) -> Self {
        let len = rows.checked_mul(cols).expect("matrix size overflows usize");
        Self {
            rows,
            cols,
            data: vec![T::default(); len],
        }
    }

    /// Creates a matrix from a flat row-major data vector.
    ///
    /// # Errors
    ///
    /// Returns [`GemmError::ShapeMismatch`] if `data.len() != rows * cols`.
    pub fn from_vec(rows: usize, cols: usize, data: Vec<T>) -> Result<Self, GemmError> {
        if data.len() != rows * cols {
            return Err(GemmError::ShapeMismatch {
                rows,
                cols,
                elements: data.len(),
            });
        }
        Ok(Self { rows, cols, data })
    }

    /// Creates a matrix from nested row vectors.
    ///
    /// # Errors
    ///
    /// Returns [`GemmError::ShapeMismatch`] if the rows have unequal lengths.
    pub fn from_rows(rows: Vec<Vec<T>>) -> Result<Self, GemmError> {
        let n_rows = rows.len();
        let n_cols = rows.first().map_or(0, Vec::len);
        let mut data = Vec::with_capacity(n_rows * n_cols);
        for row in &rows {
            if row.len() != n_cols {
                return Err(GemmError::ShapeMismatch {
                    rows: n_rows,
                    cols: n_cols,
                    elements: rows.iter().map(Vec::len).sum(),
                });
            }
            data.extend_from_slice(row);
        }
        Ok(Self {
            rows: n_rows,
            cols: n_cols,
            data,
        })
    }

    /// Builds a matrix by evaluating `f(row, col)` for every element.
    #[must_use]
    pub fn from_fn(rows: usize, cols: usize, mut f: impl FnMut(usize, usize) -> T) -> Self {
        let mut data = Vec::with_capacity(rows * cols);
        for r in 0..rows {
            for c in 0..cols {
                data.push(f(r, c));
            }
        }
        Self { rows, cols, data }
    }

    /// Number of rows.
    #[must_use]
    pub fn rows(&self) -> usize {
        self.rows
    }

    /// Number of columns.
    #[must_use]
    pub fn cols(&self) -> usize {
        self.cols
    }

    /// Returns `true` if either dimension is zero.
    #[must_use]
    pub fn is_empty(&self) -> bool {
        self.rows == 0 || self.cols == 0
    }

    /// Returns the element at (`row`, `col`), or `None` if out of bounds.
    #[must_use]
    pub fn get(&self, row: usize, col: usize) -> Option<T> {
        if row < self.rows && col < self.cols {
            Some(self.data[row * self.cols + col])
        } else {
            None
        }
    }

    /// Sets the element at (`row`, `col`).
    ///
    /// # Panics
    ///
    /// Panics if the indices are out of bounds.
    pub fn set(&mut self, row: usize, col: usize, value: T) {
        assert!(
            row < self.rows && col < self.cols,
            "index ({row}, {col}) out of bounds for {}x{} matrix",
            self.rows,
            self.cols
        );
        self.data[row * self.cols + col] = value;
    }

    /// Borrowed view of the underlying row-major data.
    #[must_use]
    pub fn as_slice(&self) -> &[T] {
        &self.data
    }

    /// Returns one row as a slice.
    ///
    /// # Panics
    ///
    /// Panics if `row` is out of bounds.
    #[must_use]
    pub fn row(&self, row: usize) -> &[T] {
        assert!(row < self.rows, "row {row} out of bounds");
        &self.data[row * self.cols..(row + 1) * self.cols]
    }

    /// Returns one row as a mutable slice — the row-major write path of the
    /// preallocated-output kernels ([`multiply_into`],
    /// [`im2col_into`](crate::im2col::im2col_into)).
    ///
    /// # Panics
    ///
    /// Panics if `row` is out of bounds.
    #[must_use]
    pub fn row_mut(&mut self, row: usize) -> &mut [T] {
        assert!(row < self.rows, "row {row} out of bounds");
        &mut self.data[row * self.cols..(row + 1) * self.cols]
    }

    /// Reshapes this matrix in place to `rows x cols` and fills it with
    /// `T::default()`, reusing the existing allocation when it is large
    /// enough. This is how the `*_into` kernels adopt a caller-provided
    /// output buffer of any prior shape.
    pub fn reset_to(&mut self, rows: usize, cols: usize) {
        let len = rows.checked_mul(cols).expect("matrix size overflows usize");
        self.data.clear();
        self.data.resize(len, T::default());
        self.rows = rows;
        self.cols = cols;
    }

    /// Returns the transpose of this matrix.
    #[must_use]
    pub fn transpose(&self) -> Self {
        Self::from_fn(self.cols, self.rows, |r, c| self.data[c * self.cols + r])
    }

    /// Applies `f` to every element, producing a matrix of a new type.
    #[must_use]
    pub fn map<U: Copy + Default>(&self, f: impl Fn(T) -> U) -> Matrix<U> {
        Matrix {
            rows: self.rows,
            cols: self.cols,
            data: self.data.iter().map(|&v| f(v)).collect(),
        }
    }

    /// Copies a rectangular region into a new matrix. Regions that extend
    /// past the source are zero-padded (with `T::default()`), which is
    /// exactly what edge tiles of a tiled GEMM need.
    #[must_use]
    pub fn padded_block(
        &self,
        row_start: usize,
        col_start: usize,
        rows: usize,
        cols: usize,
    ) -> Self {
        Self::from_fn(rows, cols, |r, c| {
            self.get(row_start + r, col_start + c).unwrap_or_default()
        })
    }

    /// Iterator over `(row, col, value)` triples in row-major order.
    pub fn iter(&self) -> impl Iterator<Item = (usize, usize, T)> + '_ {
        let cols = self.cols;
        self.data
            .iter()
            .enumerate()
            .map(move |(i, &v)| (i / cols, i % cols, v))
    }
}

impl<T: Copy + Default> Index<(usize, usize)> for Matrix<T> {
    type Output = T;

    fn index(&self, (row, col): (usize, usize)) -> &T {
        assert!(
            row < self.rows && col < self.cols,
            "index ({row}, {col}) out of bounds for {}x{} matrix",
            self.rows,
            self.cols
        );
        &self.data[row * self.cols + col]
    }
}

impl<T: Copy + Default> IndexMut<(usize, usize)> for Matrix<T> {
    fn index_mut(&mut self, (row, col): (usize, usize)) -> &mut T {
        assert!(
            row < self.rows && col < self.cols,
            "index ({row}, {col}) out of bounds for {}x{} matrix",
            self.rows,
            self.cols
        );
        &mut self.data[row * self.cols + col]
    }
}

impl<T: Copy + Default + fmt::Display> fmt::Display for Matrix<T> {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        writeln!(f, "[{}x{}]", self.rows, self.cols)?;
        for r in 0..self.rows.min(8) {
            let row: Vec<String> = self
                .row(r)
                .iter()
                .take(8)
                .map(ToString::to_string)
                .collect();
            writeln!(f, "  {}", row.join(" "))?;
        }
        if self.rows > 8 || self.cols > 8 {
            writeln!(f, "  ...")?;
        }
        Ok(())
    }
}

impl Matrix<i32> {
    /// Fills a matrix with uniformly distributed values in `[low, high]`
    /// drawn from the given deterministic generator.
    #[must_use]
    pub fn random(rows: usize, cols: usize, rng: &mut SplitMix64, low: i32, high: i32) -> Self {
        Self::from_fn(rows, cols, |_, _| rng.next_i32_in(low, high))
    }
}

/// Reference GEMM: computes `A x B` with 64-bit accumulation.
///
/// `A` is `T x N` and `B` is `N x M`, matching the paper's notation
/// `X(T,M) = A(T,N) x B(N,M)`.
///
/// # Errors
///
/// Returns [`GemmError::IncompatibleDimensions`] if `A.cols() != B.rows()`.
///
/// # Examples
///
/// ```
/// use gemm::{multiply, Matrix};
///
/// let a = Matrix::from_rows(vec![vec![1, 2], vec![3, 4]])?;
/// let b = Matrix::from_rows(vec![vec![5, 6], vec![7, 8]])?;
/// let x = multiply(&a, &b)?;
/// assert_eq!(x[(0, 0)], 19);
/// assert_eq!(x[(1, 1)], 50);
/// # Ok::<(), gemm::GemmError>(())
/// ```
pub fn multiply(a: &Matrix<i32>, b: &Matrix<i32>) -> Result<Matrix<i64>, GemmError> {
    let mut out = Matrix::<i64>::zeros(a.rows(), b.cols());
    multiply_into(a, b, &mut out)?;
    Ok(out)
}

/// [`multiply`] with a caller-provided (preallocated) output buffer: `out`
/// is reshaped to `T x M` in place, reusing its allocation when large
/// enough, so repeated multiplications — reference checks inside
/// simulation loops, per-tile kernels — do not allocate per call.
///
/// Each output row accumulates `A[t][n] * B[n]` over the rows of `B` with
/// [`lanes::mac_scaled`], wrapping on overflow exactly as the simulated
/// arrays do.
///
/// # Errors
///
/// Returns [`GemmError::IncompatibleDimensions`] if `A.cols() != B.rows()`.
///
/// # Examples
///
/// ```
/// use gemm::{multiply, multiply_into, Matrix};
///
/// let a = Matrix::from_rows(vec![vec![1, 2], vec![3, 4]])?;
/// let b = Matrix::from_rows(vec![vec![5, 6], vec![7, 8]])?;
/// let mut out = Matrix::<i64>::zeros(0, 0); // any prior shape works
/// multiply_into(&a, &b, &mut out)?;
/// assert_eq!(out, multiply(&a, &b)?);
/// # Ok::<(), gemm::GemmError>(())
/// ```
pub fn multiply_into(
    a: &Matrix<i32>,
    b: &Matrix<i32>,
    out: &mut Matrix<i64>,
) -> Result<(), GemmError> {
    if a.cols() != b.rows() {
        return Err(GemmError::IncompatibleDimensions {
            left_cols: a.cols(),
            right_rows: b.rows(),
        });
    }
    out.reset_to(a.rows(), b.cols());
    for t in 0..a.rows() {
        let a_row = a.row(t);
        let out_row = out.row_mut(t);
        for (n, &a_tn) in a_row.iter().enumerate() {
            if a_tn == 0 {
                continue;
            }
            lanes::mac_scaled(out_row, b.row(n), a_tn);
        }
    }
    Ok(())
}

/// Adds `delta` into `acc` element-wise, wrapping on overflow (used to
/// accumulate tile partial products into the full output).
///
/// # Errors
///
/// Returns [`GemmError::IncompatibleDimensions`] if the shapes differ.
pub fn accumulate(acc: &mut Matrix<i64>, delta: &Matrix<i64>) -> Result<(), GemmError> {
    if acc.rows() != delta.rows() || acc.cols() != delta.cols() {
        return Err(GemmError::IncompatibleDimensions {
            left_cols: acc.cols(),
            right_rows: delta.rows(),
        });
    }
    for (acc, &delta) in acc.data.iter_mut().zip(&delta.data) {
        *acc = acc.wrapping_add(delta);
    }
    Ok(())
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn construction_and_indexing() {
        let m = Matrix::from_vec(2, 3, vec![1, 2, 3, 4, 5, 6]).unwrap();
        assert_eq!(m[(0, 0)], 1);
        assert_eq!(m[(1, 2)], 6);
        assert_eq!(m.get(2, 0), None);
        assert_eq!(m.get(0, 3), None);
        assert_eq!(m.row(1), &[4, 5, 6]);
        assert!(!m.is_empty());
        assert!(Matrix::<i32>::zeros(0, 3).is_empty());
    }

    #[test]
    fn bad_shapes_are_rejected() {
        assert!(Matrix::from_vec(2, 2, vec![1, 2, 3]).is_err());
        assert!(Matrix::from_rows(vec![vec![1, 2], vec![3]]).is_err());
    }

    #[test]
    fn set_and_index_mut() {
        let mut m = Matrix::<i32>::zeros(2, 2);
        m.set(0, 1, 7);
        m[(1, 0)] = 9;
        assert_eq!(m[(0, 1)], 7);
        assert_eq!(m[(1, 0)], 9);
    }

    #[test]
    #[should_panic(expected = "out of bounds")]
    fn out_of_bounds_index_panics() {
        let m = Matrix::<i32>::zeros(2, 2);
        let _ = m[(2, 0)];
    }

    #[test]
    fn transpose_round_trips() {
        let mut rng = SplitMix64::new(3);
        let m = Matrix::random(5, 7, &mut rng, -10, 10);
        assert_eq!(m.transpose().transpose(), m);
        assert_eq!(m.transpose().rows(), 7);
        assert_eq!(m.transpose()[(2, 3)], m[(3, 2)]);
    }

    #[test]
    fn map_changes_type() {
        let m = Matrix::from_vec(1, 3, vec![1, 2, 3]).unwrap();
        let doubled: Matrix<i64> = m.map(|v| i64::from(v) * 2);
        assert_eq!(doubled.as_slice(), &[2, 4, 6]);
    }

    #[test]
    fn padded_block_zero_fills() {
        let m = Matrix::from_rows(vec![vec![1, 2], vec![3, 4]]).unwrap();
        let block = m.padded_block(1, 1, 2, 2);
        assert_eq!(block[(0, 0)], 4);
        assert_eq!(block[(0, 1)], 0);
        assert_eq!(block[(1, 0)], 0);
        assert_eq!(block[(1, 1)], 0);
    }

    #[test]
    fn reference_gemm_small_case() {
        let a = Matrix::from_rows(vec![vec![1, 2, 3], vec![4, 5, 6]]).unwrap();
        let b = Matrix::from_rows(vec![vec![7, 8], vec![9, 10], vec![11, 12]]).unwrap();
        let x = multiply(&a, &b).unwrap();
        assert_eq!(x[(0, 0)], 58);
        assert_eq!(x[(0, 1)], 64);
        assert_eq!(x[(1, 0)], 139);
        assert_eq!(x[(1, 1)], 154);
    }

    #[test]
    fn multiply_into_reuses_the_output_buffer() {
        let mut rng = SplitMix64::new(41);
        let mut out = Matrix::<i64>::zeros(3, 17); // wrong shape on purpose
        for (t, n, m) in [(4usize, 7usize, 5usize), (1, 1, 1), (6, 2, 9)] {
            let a = Matrix::random(t, n, &mut rng, -50, 50);
            let b = Matrix::random(n, m, &mut rng, -50, 50);
            multiply_into(&a, &b, &mut out).unwrap();
            assert_eq!(out, multiply(&a, &b).unwrap(), "T={t} N={n} M={m}");
        }
        let a = Matrix::<i32>::zeros(2, 3);
        let b = Matrix::<i32>::zeros(4, 2);
        assert!(multiply_into(&a, &b, &mut out).is_err());
    }

    #[test]
    fn row_mut_and_reset_to_touch_the_expected_elements() {
        let mut m = Matrix::<i32>::zeros(2, 3);
        m.row_mut(1).copy_from_slice(&[4, 5, 6]);
        assert_eq!(m.row(0), &[0, 0, 0]);
        assert_eq!(m.row(1), &[4, 5, 6]);
        m.reset_to(3, 2);
        assert_eq!(m.rows(), 3);
        assert_eq!(m.cols(), 2);
        assert!(m.as_slice().iter().all(|&v| v == 0));
        // Shrinking and regrowing reuses the allocation and re-zeros.
        m.row_mut(2)[1] = 9;
        m.reset_to(1, 1);
        m.reset_to(3, 2);
        assert!(m.as_slice().iter().all(|&v| v == 0));
    }

    #[test]
    #[should_panic(expected = "out of bounds")]
    fn row_mut_is_bounds_checked() {
        let mut m = Matrix::<i32>::zeros(2, 2);
        let _ = m.row_mut(2);
    }

    #[test]
    fn gemm_identity_preserves_matrix() {
        let mut rng = SplitMix64::new(11);
        let a = Matrix::random(6, 6, &mut rng, -100, 100);
        let identity = Matrix::from_fn(6, 6, |r, c| i32::from(r == c));
        let x = multiply(&a, &identity).unwrap();
        assert_eq!(x, a.map(i64::from));
    }

    #[test]
    fn gemm_dimension_mismatch() {
        let a = Matrix::<i32>::zeros(2, 3);
        let b = Matrix::<i32>::zeros(2, 3);
        assert!(matches!(
            multiply(&a, &b),
            Err(GemmError::IncompatibleDimensions { .. })
        ));
    }

    #[test]
    fn gemm_accumulation_avoids_overflow_of_i32() {
        // Large 32-bit operands whose products overflow i32 but not i64.
        let a = Matrix::from_vec(1, 2, vec![i32::MAX, i32::MAX]).unwrap();
        let b = Matrix::from_vec(2, 1, vec![2, 2]).unwrap();
        let x = multiply(&a, &b).unwrap();
        assert_eq!(x[(0, 0)], 2 * (i64::from(i32::MAX)) * 2);
    }

    #[test]
    fn extreme_operands_wrap_like_the_array_adders() {
        // Four products i32::MIN^2 = 2^62 sum to 2^64, which wraps to 0;
        // four products i32::MIN * i32::MAX = 2^31 - 2^62 sum to
        // 2^33 - 2^64, which wraps to 2^33.
        let a = Matrix::from_vec(2, 4, vec![i32::MIN; 8]).unwrap();
        let b = Matrix::from_vec(4, 2, [i32::MIN, i32::MAX].repeat(4)).unwrap();
        let x = multiply(&a, &b).unwrap();
        assert_eq!(x.as_slice(), &[0, 1 << 33, 0, 1 << 33]);
        let mut acc = Matrix::from_vec(1, 2, vec![i64::MAX, i64::MIN]).unwrap();
        accumulate(&mut acc, &Matrix::from_vec(1, 2, vec![1i64, -1]).unwrap()).unwrap();
        assert_eq!(acc.as_slice(), &[i64::MIN, i64::MAX]);
    }

    #[test]
    fn accumulate_adds_elementwise() {
        let mut acc = Matrix::<i64>::zeros(2, 2);
        let d = Matrix::from_vec(2, 2, vec![1i64, 2, 3, 4]).unwrap();
        accumulate(&mut acc, &d).unwrap();
        accumulate(&mut acc, &d).unwrap();
        assert_eq!(acc[(1, 1)], 8);
        let wrong = Matrix::<i64>::zeros(3, 2);
        assert!(accumulate(&mut acc, &wrong).is_err());
    }

    #[test]
    fn iter_visits_all_elements_in_order() {
        let m = Matrix::from_vec(2, 2, vec![1, 2, 3, 4]).unwrap();
        let collected: Vec<_> = m.iter().collect();
        assert_eq!(collected, vec![(0, 0, 1), (0, 1, 2), (1, 0, 3), (1, 1, 4)]);
    }

    #[test]
    fn display_is_truncated_for_large_matrices() {
        let m = Matrix::<i32>::zeros(20, 20);
        let text = m.to_string();
        assert!(text.contains("[20x20]"));
        assert!(text.contains("..."));
    }
}
