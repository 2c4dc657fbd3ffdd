//! Input skewing and output collection for the output-stationary dataflow.
//!
//! With the accumulators resident in the PEs, **both** operands stream
//! through the transparent-pipeline register files: SA row `i` receives
//! `A[i][n]` at the west edge at cycle `n + floor(i / k)`, and SA column `j`
//! receives `B[n][j]` at the north edge at cycle `n + floor(j / k)`.
//! Operand `n` of row `i` then meets operand `n` of column `j` at PE
//! `(i, j)` exactly at cycle `n + floor(i/k) + floor(j/k)`, so every PE sees
//! its `N` operand pairs in order and accumulates locally. After the last
//! reduction index, the accumulators of column `j` drain through the south
//! edge bottom-up, one row per cycle, starting at cycle
//! `N + ceil(R/k) - 1 + floor(j/k)` — strictly after the column's last
//! multiply-accumulate, which is what makes the drain schedule safe to read
//! straight out of the resident accumulators.
//!
//! [`OsWestFeeder`], [`OsNorthFeeder`] and [`OsCollector`] implement those
//! three schedules, like the weight-stationary
//! [`InputFeeder`](crate::InputFeeder)/[`OutputCollector`](crate::OutputCollector)
//! pair; the collector's due columns are always one dense range, derived
//! without scanning.

use crate::config::ArrayConfig;
use crate::error::SimError;
use crate::soa::{skewed_edge_into, TileOperand};
use gemm::Matrix;

/// Produces the skewed west-edge `A` stream of one output-stationary tile.
#[derive(Debug, Clone)]
pub struct OsWestFeeder<'a> {
    a: TileOperand<'a>,
    config: ArrayConfig,
}

impl<'a> OsWestFeeder<'a> {
    /// Creates a feeder for the streamed operand `A` (`R x N`: one matrix
    /// row per array row, the reduction dimension along the columns).
    ///
    /// # Errors
    ///
    /// Returns [`SimError::DimensionMismatch`] if `A` does not have exactly
    /// one row per array row.
    pub fn new(a: &'a Matrix<i32>, config: ArrayConfig) -> Result<Self, SimError> {
        Self::from_operand(TileOperand::whole(a), config)
    }

    /// [`OsWestFeeder::new`] for an operand read in place.
    pub(crate) fn from_operand(a: TileOperand<'a>, config: ArrayConfig) -> Result<Self, SimError> {
        if a.rows() != config.rows as usize {
            return Err(SimError::DimensionMismatch {
                reason: format!(
                    "streamed operand has {} rows but the array has {} rows",
                    a.rows(),
                    config.rows
                ),
            });
        }
        Ok(Self { a, config })
    }

    /// The streamed operand.
    pub(crate) fn operand(&self) -> TileOperand<'a> {
        self.a
    }

    /// Length of the reduction stream (`N`).
    #[must_use]
    pub fn stream_length(&self) -> u64 {
        self.a.cols() as u64
    }

    /// The array configuration this feeder schedules for.
    #[must_use]
    pub fn config(&self) -> ArrayConfig {
        self.config
    }

    /// Writes the west-edge operands of `cycle` into `west`, one slot per
    /// SA row: row `i` carries `A[i][cycle - floor(i / k)]`, or `None`
    /// while its stream has not started or after it ended.
    ///
    /// # Panics
    ///
    /// Panics if `west` does not have exactly one slot per array row.
    pub fn west_inputs_into(&self, cycle: u64, west: &mut [Option<i32>]) {
        assert_eq!(
            west.len(),
            self.config.rows as usize,
            "west buffer must have one slot per array row"
        );
        let a = self.a;
        skewed_edge_into(
            cycle,
            self.stream_length(),
            self.config.collapse_depth as usize,
            west,
            |i, n| a.get(i, n),
        );
    }
}

/// Produces the skewed north-edge `B` stream of one output-stationary tile.
#[derive(Debug, Clone)]
pub struct OsNorthFeeder<'a> {
    b: TileOperand<'a>,
    config: ArrayConfig,
}

impl<'a> OsNorthFeeder<'a> {
    /// Creates a feeder for the streamed operand `B` (`N x C`: one matrix
    /// column per array column, the reduction dimension along the rows).
    ///
    /// # Errors
    ///
    /// Returns [`SimError::DimensionMismatch`] if `B` does not have exactly
    /// one column per array column.
    pub fn new(b: &'a Matrix<i32>, config: ArrayConfig) -> Result<Self, SimError> {
        Self::from_operand(TileOperand::whole(b), config)
    }

    /// [`OsNorthFeeder::new`] for an operand read in place.
    pub(crate) fn from_operand(b: TileOperand<'a>, config: ArrayConfig) -> Result<Self, SimError> {
        if b.cols() != config.cols as usize {
            return Err(SimError::DimensionMismatch {
                reason: format!(
                    "streamed operand has {} columns but the array has {} columns",
                    b.cols(),
                    config.cols
                ),
            });
        }
        Ok(Self { b, config })
    }

    /// The streamed operand.
    pub(crate) fn operand(&self) -> TileOperand<'a> {
        self.b
    }

    /// Length of the reduction stream (`N`).
    #[must_use]
    pub fn stream_length(&self) -> u64 {
        self.b.rows() as u64
    }

    /// The array configuration this feeder schedules for.
    #[must_use]
    pub fn config(&self) -> ArrayConfig {
        self.config
    }

    /// Writes the north-edge operands of `cycle` into `north`, one slot
    /// per SA column: column `j` carries `B[cycle - floor(j / k)][j]` — the
    /// mirror image of [`OsWestFeeder::west_inputs_into`].
    ///
    /// # Panics
    ///
    /// Panics if `north` does not have exactly one slot per array column.
    pub fn north_inputs_into(&self, cycle: u64, north: &mut [Option<i32>]) {
        assert_eq!(
            north.len(),
            self.config.cols as usize,
            "north buffer must have one slot per array column"
        );
        let b = self.b;
        skewed_edge_into(
            cycle,
            self.stream_length(),
            self.config.collapse_depth as usize,
            north,
            |j, n| b.get(n, j),
        );
    }
}

/// Collects the drained accumulators of one output-stationary tile into the
/// `R x C` result.
#[derive(Debug, Clone)]
pub struct OsCollector {
    config: ArrayConfig,
    /// Length of the reduction stream the tile executes (`N`).
    n: u64,
    /// The rows and columns kept: `R x C`, or the part of a tile its
    /// operands reach.
    rows: usize,
    cols: usize,
    /// The `rows x cols` result, row-major like the accumulators.
    output: Vec<i64>,
    collected: usize,
}

impl OsCollector {
    /// Creates a collector for a tile reducing over `n` operand pairs.
    #[must_use]
    pub fn new(config: ArrayConfig, n: u64) -> Self {
        Self::clipped(config, n, config.rows as usize, config.cols as usize)
    }

    /// A collector that keeps only the first `rows` rows and `cols`
    /// columns of the result, for a tile whose operands reach no further:
    /// it checks the drain schedule of every PE, and its output is
    /// `rows x cols`.
    pub(crate) fn clipped(config: ArrayConfig, n: u64, rows: usize, cols: usize) -> Self {
        Self {
            config,
            n,
            rows,
            cols,
            output: vec![0; rows * cols],
            collected: 0,
        }
    }

    /// The array configuration this collector schedules for.
    #[must_use]
    pub fn config(&self) -> ArrayConfig {
        self.config
    }

    /// The reduction length (`N`) the drain schedule was built for.
    #[must_use]
    pub fn reduction_length(&self) -> u64 {
        self.n
    }

    /// The cycle at which column `j` emits its first (bottom-row) element:
    /// `N + ceil(R/k) - 1 + floor(j / k)` — strictly after the column's
    /// last multiply-accumulate for every row of the column.
    #[must_use]
    pub fn drain_start(&self, col: u32) -> u64 {
        self.n + u64::from(self.config.row_blocks()) - 1
            + u64::from(col / self.config.collapse_depth)
    }

    /// The last cycle at which any element is due, or `None` for an empty
    /// reduction: `N + ceil(R/k) + ceil(C/k) + R - 3`.
    #[must_use]
    pub fn last_due_cycle(&self) -> Option<u64> {
        if self.n == 0 {
            return None;
        }
        Some(self.drain_start(self.config.cols - 1) + u64::from(self.config.rows) - 1)
    }

    /// The contiguous range of columns due to emit an element at `cycle`,
    /// or `None` when nothing is due. Column `j` emits element `(i, j)`
    /// bottom-up at cycle `drain_start(j) + (R - 1 - i)`, so a column is
    /// due for the `R` consecutive cycles starting at its drain start, and
    /// the due columns of one cycle are one dense block-aligned range.
    #[must_use]
    pub fn due_cols(&self, cycle: u64) -> Option<(u32, u32)> {
        if self.n == 0 {
            return None;
        }
        let k = u64::from(self.config.collapse_depth);
        let cols = u64::from(self.config.cols);
        let col_blocks = u64::from(self.config.col_blocks());
        let base = self.n + u64::from(self.config.row_blocks()) - 1;
        if cycle < base {
            return None;
        }
        // Column block `cb` is due while `cycle - base - cb` is in `0..R`.
        let offset = cycle - base;
        let first_block = (offset + 1).saturating_sub(u64::from(self.config.rows));
        if first_block >= col_blocks {
            return None;
        }
        let last_block = offset.min(col_blocks - 1);
        let first = first_block * k;
        let last = ((last_block + 1) * k).min(cols) - 1;
        Some((first as u32, last as u32))
    }

    /// The row whose element column `col` emits at `cycle`, given the
    /// column is due: rows drain bottom-up from `R - 1`.
    #[must_use]
    pub fn due_row(&self, cycle: u64, col: u32) -> u32 {
        self.config.rows - 1 - (cycle - self.drain_start(col)) as u32
    }

    /// Records the elements due at `cycle`, reading them from the resident
    /// accumulator lane (`R x C`, row-major) — the drain schedule
    /// guarantees every element read here received its last
    /// multiply-accumulate in an earlier cycle.
    ///
    /// # Errors
    ///
    /// Returns [`SimError::DimensionMismatch`] if `accumulators` is not one
    /// value per PE.
    pub fn collect_due(&mut self, cycle: u64, accumulators: &[i64]) -> Result<(), SimError> {
        let cols = self.config.cols as usize;
        if accumulators.len() != self.config.rows as usize * cols {
            return Err(SimError::DimensionMismatch {
                reason: format!(
                    "expected {} accumulators, got {}",
                    self.config.rows as usize * cols,
                    accumulators.len()
                ),
            });
        }
        let Some((first, last)) = self.due_cols(cycle) else {
            return Ok(());
        };
        // The due range is block-aligned, and column block `cb` emits row
        // `R - 1 - (cycle - N - ceil(R/k) + 1 - cb)`: walking the range,
        // the row moves down one per block. Only kept elements are copied.
        let k = self.config.collapse_depth as usize;
        let (first, last) = (first as usize, last as usize);
        let age = (cycle + 1 - self.n - u64::from(self.config.row_blocks())) as usize;
        let mut row = self.config.rows as usize - 1 + first / k - age;
        let mut left = k;
        for col in first..(last + 1).min(self.cols) {
            if row >= self.rows {
                break;
            }
            self.output[row * self.cols + col] = accumulators[row * cols + col];
            left -= 1;
            if left == 0 {
                (row, left) = (row + 1, k);
            }
        }
        self.collected += last - first + 1;
        Ok(())
    }

    /// Returns `true` once every output element has been collected.
    #[must_use]
    pub fn is_complete(&self) -> bool {
        self.collected == self.config.pe_count() as usize
    }

    /// Consumes the collector and returns the collected `R x C` result
    /// (`rows x cols` for a clipped collector).
    ///
    /// # Errors
    ///
    /// Returns [`SimError::DimensionMismatch`] if the collection is not yet
    /// complete.
    pub fn into_output(self) -> Result<Matrix<i64>, SimError> {
        if !self.is_complete() {
            return Err(SimError::DimensionMismatch {
                reason: format!(
                    "only {} of {} output elements were collected",
                    self.collected,
                    self.config.pe_count()
                ),
            });
        }
        Ok(Matrix::from_vec(self.rows, self.cols, self.output)?)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::config::Dataflow;

    fn os_config(rows: u32, cols: u32, k: u32) -> ArrayConfig {
        ArrayConfig::new(rows, cols)
            .with_collapse_depth(k)
            .with_dataflow(Dataflow::OutputStationary)
    }

    #[test]
    fn west_feeder_applies_the_batched_skew() {
        // 4 SA rows, k = 2: rows 0 and 1 start at cycle 0, rows 2 and 3 at
        // cycle 1; each row streams N = 2 elements.
        let a = Matrix::from_rows(vec![vec![1, 2], vec![3, 4], vec![5, 6], vec![7, 8]]).unwrap();
        let feeder = OsWestFeeder::new(&a, os_config(4, 4, 2)).unwrap();
        assert_eq!(feeder.stream_length(), 2);
        let mut west = [None; 4];
        feeder.west_inputs_into(0, &mut west);
        assert_eq!(west, [Some(1), Some(3), None, None]);
        feeder.west_inputs_into(1, &mut west);
        assert_eq!(west, [Some(2), Some(4), Some(5), Some(7)]);
        feeder.west_inputs_into(2, &mut west);
        assert_eq!(west, [None, None, Some(6), Some(8)]);
        feeder.west_inputs_into(3, &mut west);
        assert_eq!(west, [None; 4]);
    }

    #[test]
    fn north_feeder_mirrors_the_west_schedule() {
        // 3 SA columns, k = 1: column j starts at cycle j.
        let b = Matrix::from_rows(vec![vec![1, 2, 3], vec![4, 5, 6]]).unwrap();
        let feeder = OsNorthFeeder::new(&b, os_config(2, 3, 1)).unwrap();
        let mut north = [None; 3];
        feeder.north_inputs_into(0, &mut north);
        assert_eq!(north, [Some(1), None, None]);
        feeder.north_inputs_into(1, &mut north);
        assert_eq!(north, [Some(4), Some(2), None]);
        feeder.north_inputs_into(2, &mut north);
        assert_eq!(north, [None, Some(5), Some(3)]);
        feeder.north_inputs_into(3, &mut north);
        assert_eq!(north, [None, None, Some(6)]);
        feeder.north_inputs_into(4, &mut north);
        assert_eq!(north, [None; 3]);
    }

    #[test]
    fn feeders_reject_mismatched_operands() {
        let a = Matrix::<i32>::zeros(3, 5);
        assert!(OsWestFeeder::new(&a, os_config(4, 4, 1)).is_err());
        let b = Matrix::<i32>::zeros(5, 3);
        assert!(OsNorthFeeder::new(&b, os_config(4, 4, 1)).is_err());
    }

    #[test]
    fn collector_drains_bottom_up_after_the_last_mac() {
        // 2x2, k = 1, N = 1: last MAC of column j is at cycle j + i; the
        // drain starts at N + RB - 1 + cb = 2 + j.
        let config = os_config(2, 2, 1);
        let mut collector = OsCollector::new(config, 1);
        assert_eq!(collector.drain_start(0), 2);
        assert_eq!(collector.drain_start(1), 3);
        assert_eq!(collector.last_due_cycle(), Some(4));
        assert_eq!(collector.due_cols(1), None);
        assert_eq!(collector.due_cols(2), Some((0, 0)));
        assert_eq!(collector.due_row(2, 0), 1);
        assert_eq!(collector.due_cols(3), Some((0, 1)));
        assert_eq!(collector.due_cols(4), Some((1, 1)));
        assert_eq!(collector.due_cols(5), None);
        let acc = [10i64, 20, 30, 40];
        for cycle in 0..=4 {
            collector.collect_due(cycle, &acc).unwrap();
        }
        assert!(collector.is_complete());
        let out = collector.into_output().unwrap();
        assert_eq!(out[(0, 0)], 10);
        assert_eq!(out[(0, 1)], 20);
        assert_eq!(out[(1, 0)], 30);
        assert_eq!(out[(1, 1)], 40);
    }

    #[test]
    fn incomplete_collection_cannot_be_finalized() {
        let collector = OsCollector::new(os_config(2, 2, 1), 3);
        assert!(collector.into_output().is_err());
        assert!(OsCollector::new(os_config(2, 2, 1), 0)
            .due_cols(5)
            .is_none());
        assert!(OsCollector::new(os_config(2, 2, 1), 0)
            .last_due_cycle()
            .is_none());
    }

    #[test]
    fn wrong_accumulator_lane_width_is_rejected() {
        let mut collector = OsCollector::new(os_config(2, 2, 1), 1);
        assert!(collector.collect_due(2, &[0i64; 3]).is_err());
    }
}
