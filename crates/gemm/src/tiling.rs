//! Tiling of large matrix multiplications onto a fixed-size systolic array.
//!
//! When the GEMM dimensions exceed the array size (`N > R` and/or `M > C`),
//! the multiplication is executed in `ceil(N/R) x ceil(M/C)` tiles, each
//! matching the array (Fig. 1(c) of the paper). The partial sums of tiles
//! that share the same output columns are accumulated in the output
//! accumulators below the array, so the total tile count multiplies the
//! per-tile latency in Equations (2) and (4).

use crate::error::GemmError;
use crate::matrix::{accumulate, multiply, Matrix};
use crate::problem::GemmDims;
use serde::{Deserialize, Serialize};
use std::ops::Range;

/// One tile of a tiled GEMM: the slice of the reduction dimension (`N`) and
/// of the output dimension (`M`) it covers.
#[derive(Debug, Clone, PartialEq, Eq, Hash, Serialize, Deserialize)]
pub struct Tile {
    /// Index of the tile along the reduction dimension (0-based).
    pub n_index: u64,
    /// Index of the tile along the output dimension (0-based).
    pub m_index: u64,
    /// The rows of `B` (columns of `A`) this tile covers.
    pub n_range: Range<u64>,
    /// The columns of `B` (and of the output) this tile covers.
    pub m_range: Range<u64>,
}

impl Tile {
    /// Number of reduction elements covered (at most the array row count).
    #[must_use]
    pub fn n_len(&self) -> u64 {
        self.n_range.end - self.n_range.start
    }

    /// Number of output columns covered (at most the array column count).
    #[must_use]
    pub fn m_len(&self) -> u64 {
        self.m_range.end - self.m_range.start
    }

    /// Extracts this tile's operand slices from the full matrices,
    /// zero-padded at the edges to the array size: the `T x R` slice of `A`
    /// and the `R x C` slice of `B` a tile-level kernel consumes.
    #[must_use]
    pub fn padded_operands(
        &self,
        a: &Matrix<i32>,
        b: &Matrix<i32>,
        array_rows: u32,
        array_cols: u32,
    ) -> (Matrix<i32>, Matrix<i32>) {
        let a_sub = a.padded_block(
            0,
            self.n_range.start as usize,
            a.rows(),
            array_rows as usize,
        );
        let b_sub = b.padded_block(
            self.n_range.start as usize,
            self.m_range.start as usize,
            array_rows as usize,
            array_cols as usize,
        );
        (a_sub, b_sub)
    }

    /// Accumulates the valid region of this tile's `T x C` partial product
    /// into the full output (the output-accumulator step below the array).
    ///
    /// The accumulation wraps, as the array's adders do. Wrapping addition
    /// is associative and commutative, so accumulating tiles in any order
    /// produces identical results.
    pub fn accumulate_partial(&self, out: &mut Matrix<i64>, partial: &Matrix<i64>) {
        let m_range = self.m_range.start as usize..self.m_range.end as usize;
        for t in 0..out.rows() {
            let src = &partial.row(t)[..m_range.len()];
            for (acc, &delta) in out.row_mut(t)[m_range.clone()].iter_mut().zip(src) {
                *acc = acc.wrapping_add(delta);
            }
        }
    }
}

/// The grid of tiles produced by mapping a GEMM onto an `R x C` array.
///
/// # Examples
///
/// ```
/// use gemm::{GemmDims, TileGrid};
///
/// let grid = TileGrid::new(GemmDims::new(300, 500, 64), 128, 128)?;
/// assert_eq!(grid.tiles_along_n(), 4); // ceil(500 / 128)
/// assert_eq!(grid.tiles_along_m(), 3); // ceil(300 / 128)
/// assert_eq!(grid.tile_count(), 12);
/// # Ok::<(), gemm::GemmError>(())
/// ```
#[derive(Debug, Clone, PartialEq, Eq, Serialize, Deserialize)]
pub struct TileGrid {
    dims: GemmDims,
    array_rows: u32,
    array_cols: u32,
}

impl TileGrid {
    /// Creates the tile grid for the given GEMM and array size.
    ///
    /// # Errors
    ///
    /// Returns [`GemmError::EmptyMatrix`] if the GEMM dimensions or the
    /// array dimensions are zero.
    pub fn new(dims: GemmDims, array_rows: u32, array_cols: u32) -> Result<Self, GemmError> {
        dims.validate()?;
        if array_rows == 0 || array_cols == 0 {
            return Err(GemmError::EmptyMatrix);
        }
        Ok(Self {
            dims,
            array_rows,
            array_cols,
        })
    }

    /// GEMM dimensions being tiled.
    #[must_use]
    pub fn dims(&self) -> GemmDims {
        self.dims
    }

    /// Array rows (`R`).
    #[must_use]
    pub fn array_rows(&self) -> u32 {
        self.array_rows
    }

    /// Array columns (`C`).
    #[must_use]
    pub fn array_cols(&self) -> u32 {
        self.array_cols
    }

    /// Number of tiles along the reduction dimension: `ceil(N / R)`.
    #[must_use]
    pub fn tiles_along_n(&self) -> u64 {
        self.dims.n.div_ceil(u64::from(self.array_rows))
    }

    /// Number of tiles along the output dimension: `ceil(M / C)`.
    #[must_use]
    pub fn tiles_along_m(&self) -> u64 {
        self.dims.m.div_ceil(u64::from(self.array_cols))
    }

    /// Total number of tiles: `ceil(N/R) * ceil(M/C)` (Equation 2).
    #[must_use]
    pub fn tile_count(&self) -> u64 {
        self.tiles_along_n() * self.tiles_along_m()
    }

    /// Average fraction of the array's PEs that hold useful weights over all
    /// tiles (edge tiles are partially filled). This is the spatial
    /// utilization used by the power model's activity profile.
    #[must_use]
    pub fn spatial_utilization(&self) -> f64 {
        let useful = (self.dims.n * self.dims.m) as f64;
        let allocated =
            (self.tile_count() * u64::from(self.array_rows) * u64::from(self.array_cols)) as f64;
        useful / allocated
    }

    /// Iterator over all tiles in row-major (`n` outer, `m` inner) order.
    pub fn iter(&self) -> impl Iterator<Item = Tile> + '_ {
        let r = u64::from(self.array_rows);
        let c = u64::from(self.array_cols);
        let dims = self.dims;
        (0..self.tiles_along_n()).flat_map(move |ni| {
            (0..self.tiles_along_m()).map(move |mi| Tile {
                n_index: ni,
                m_index: mi,
                n_range: (ni * r)..((ni + 1) * r).min(dims.n),
                m_range: (mi * c)..((mi + 1) * c).min(dims.m),
            })
        })
    }
}

/// The reference tiled GEMM: walks the weight-stationary tile grid, multiplies
/// each tile's zero-padded `T x R` slice of `A` by its `R x C` slice of `B`
/// with [`multiply`] and accumulates the partials. Produces exactly the same
/// result as [`multiply`], which is what the tests assert.
///
/// # Errors
///
/// Returns dimension errors from tiling or multiplication.
pub fn tiled_multiply(
    a: &Matrix<i32>,
    b: &Matrix<i32>,
    array_rows: u32,
    array_cols: u32,
) -> Result<Matrix<i64>, GemmError> {
    let dims = GemmDims::new(b.cols() as u64, a.cols() as u64, a.rows() as u64);
    if a.cols() != b.rows() {
        return Err(GemmError::IncompatibleDimensions {
            left_cols: a.cols(),
            right_rows: b.rows(),
        });
    }
    let grid = TileGrid::new(dims, array_rows, array_cols)?;
    let mut out = Matrix::<i64>::zeros(a.rows(), b.cols());
    for tile in grid.iter() {
        let (a_sub, b_sub) = tile.padded_operands(a, b, array_rows, array_cols);
        tile.accumulate_partial(&mut out, &multiply(&a_sub, &b_sub)?);
    }
    Ok(out)
}

/// Verifies that `accumulate` composes with tiling: exposed mainly for the
/// integration tests of downstream crates.
///
/// # Errors
///
/// Propagates accumulation shape mismatches.
pub fn sum_partials(partials: &[Matrix<i64>]) -> Result<Matrix<i64>, GemmError> {
    let first = partials.first().ok_or(GemmError::EmptyMatrix)?;
    let mut acc = Matrix::<i64>::zeros(first.rows(), first.cols());
    for p in partials {
        accumulate(&mut acc, p)?;
    }
    Ok(acc)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::rng::SplitMix64;

    #[test]
    fn tile_counts_match_ceiling_division() {
        let grid = TileGrid::new(GemmDims::new(256, 2304, 196), 128, 128).unwrap();
        assert_eq!(grid.tiles_along_n(), 18);
        assert_eq!(grid.tiles_along_m(), 2);
        assert_eq!(grid.tile_count(), 36);
        // Exact fit produces exactly one tile.
        let exact = TileGrid::new(GemmDims::new(128, 128, 10), 128, 128).unwrap();
        assert_eq!(exact.tile_count(), 1);
    }

    #[test]
    fn tiles_cover_the_whole_problem_without_overlap() {
        let grid = TileGrid::new(GemmDims::new(300, 500, 7), 128, 128).unwrap();
        let tiles: Vec<Tile> = grid.iter().collect();
        assert_eq!(tiles.len() as u64, grid.tile_count());
        let covered_n: u64 = tiles
            .iter()
            .filter(|t| t.m_index == 0)
            .map(Tile::n_len)
            .sum();
        let covered_m: u64 = tiles
            .iter()
            .filter(|t| t.n_index == 0)
            .map(Tile::m_len)
            .sum();
        assert_eq!(covered_n, 500);
        assert_eq!(covered_m, 300);
        for t in &tiles {
            assert!(t.n_len() <= 128);
            assert!(t.m_len() <= 128);
        }
    }

    #[test]
    fn spatial_utilization_is_one_for_exact_fit() {
        let grid = TileGrid::new(GemmDims::new(256, 256, 10), 128, 128).unwrap();
        assert!((grid.spatial_utilization() - 1.0).abs() < 1e-12);
        let partial = TileGrid::new(GemmDims::new(129, 128, 10), 128, 128).unwrap();
        assert!(partial.spatial_utilization() < 0.52);
    }

    #[test]
    fn invalid_grids_are_rejected() {
        assert!(TileGrid::new(GemmDims::new(0, 1, 1), 4, 4).is_err());
        assert!(TileGrid::new(GemmDims::new(1, 1, 1), 0, 4).is_err());
        assert!(TileGrid::new(GemmDims::new(1, 1, 1), 4, 0).is_err());
    }

    #[test]
    fn tiled_multiply_matches_reference() {
        let mut rng = SplitMix64::new(2024);
        for (t, n, m, r, c) in [
            (5usize, 20usize, 17usize, 8u32, 8u32),
            (3, 9, 9, 4, 4),
            (1, 33, 5, 16, 16),
            (7, 8, 8, 8, 8),
        ] {
            let a = Matrix::random(t, n, &mut rng, -50, 50);
            let b = Matrix::random(n, m, &mut rng, -50, 50);
            let expected = multiply(&a, &b).unwrap();
            let tiled = tiled_multiply(&a, &b, r, c).unwrap();
            assert_eq!(
                tiled, expected,
                "mismatch for T={t} N={n} M={m} R={r} C={c}"
            );
        }
    }

    #[test]
    fn tiled_multiply_rejects_mismatched_operands() {
        let a = Matrix::<i32>::zeros(2, 3);
        let b = Matrix::<i32>::zeros(4, 2);
        assert!(tiled_multiply(&a, &b, 4, 4).is_err());
    }

    #[test]
    fn kernel_sees_padded_array_sized_tiles() {
        let mut rng = SplitMix64::new(7);
        let a = Matrix::random(3, 10, &mut rng, -5, 5);
        let b = Matrix::random(10, 6, &mut rng, -5, 5);
        let grid = TileGrid::new(GemmDims::new(6, 10, 3), 8, 8).unwrap();
        let mut seen = 0u32;
        let mut result = Matrix::<i64>::zeros(3, 6);
        for tile in grid.iter() {
            let (a_sub, b_sub) = tile.padded_operands(&a, &b, 8, 8);
            seen += 1;
            assert_eq!(a_sub.rows(), 3);
            assert_eq!(a_sub.cols(), 8);
            assert_eq!(b_sub.rows(), 8);
            assert_eq!(b_sub.cols(), 8);
            assert!(tile.n_len() <= 8 && tile.m_len() <= 8);
            tile.accumulate_partial(&mut result, &multiply(&a_sub, &b_sub).unwrap());
        }
        assert_eq!(seen, 2); // ceil(10/8) * ceil(6/8) = 2 x 1
        assert_eq!(result, multiply(&a, &b).unwrap());
    }

    #[test]
    fn sum_partials_adds_everything() {
        let p1 = Matrix::from_vec(1, 2, vec![1i64, 2]).unwrap();
        let p2 = Matrix::from_vec(1, 2, vec![10i64, 20]).unwrap();
        let sum = sum_partials(&[p1, p2]).unwrap();
        assert_eq!(sum.as_slice(), &[11, 22]);
        assert!(sum_partials(&[]).is_err());
    }
}
