//! Input skewing and output collection for the weight-stationary dataflow.
//!
//! With pipeline collapsing depth `k`, the first (and every) element of a
//! row of `A` arrives in batches of `k` words (Section III of the paper):
//! SA row `n` receives `A[t][n]` at compute cycle `t + floor(n / k)`. The
//! results of column `m` emerge at the south edge starting at cycle
//! `ceil(R/k) - 1 + floor(m / k)`, one per cycle. [`InputFeeder`] and
//! [`OutputCollector`] implement those two schedules; the collector also
//! cross-checks that the register-level validity produced by the array
//! matches the analytical schedule, which is a strong internal consistency
//! check of the simulator.

use crate::config::ArrayConfig;
use crate::error::SimError;
use crate::soa::{skewed_edge_into, TileOperand};
use gemm::Matrix;

/// Produces the skewed west-edge input stream for one tile.
#[derive(Debug, Clone)]
pub struct InputFeeder<'a> {
    a: TileOperand<'a>,
    config: ArrayConfig,
}

impl<'a> InputFeeder<'a> {
    /// Creates a feeder for the streamed operand `A` (`T x R`).
    ///
    /// # Errors
    ///
    /// Returns [`SimError::DimensionMismatch`] if `A` does not have exactly
    /// one column per array row.
    pub fn new(a: &'a Matrix<i32>, config: ArrayConfig) -> Result<Self, SimError> {
        Self::from_operand(TileOperand::whole(a), config)
    }

    /// [`InputFeeder::new`] for an operand read in place.
    pub(crate) fn from_operand(a: TileOperand<'a>, config: ArrayConfig) -> Result<Self, SimError> {
        if a.cols() != config.rows as usize {
            return Err(SimError::DimensionMismatch {
                reason: format!(
                    "streamed operand has {} columns but the array has {} rows",
                    a.cols(),
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

    /// Number of `A` rows that will be streamed.
    #[must_use]
    pub fn stream_length(&self) -> u64 {
        self.a.rows() as u64
    }

    /// The array configuration this feeder schedules for.
    #[must_use]
    pub fn config(&self) -> ArrayConfig {
        self.config
    }

    /// The west-edge operands for the given compute cycle: for SA row `n`
    /// the element `A[t][n]` with `t = cycle - floor(n / k)`, or `None` if
    /// that row's stream has not started or is already finished.
    #[must_use]
    pub fn west_inputs(&self, cycle: u64) -> Vec<Option<i32>> {
        let mut west = vec![None; self.config.rows as usize];
        self.west_inputs_into(cycle, &mut west);
        west
    }

    /// Writes the west-edge operands for the given compute cycle into a
    /// caller-provided buffer (one slot per SA row), the allocation-free
    /// form of [`InputFeeder::west_inputs`] the naive scan's loops use.
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
            |n, t| a.get(t, n),
        );
    }
}

/// Collects the south-edge outputs of one tile into the `T x C` result.
#[derive(Debug, Clone)]
pub struct OutputCollector {
    config: ArrayConfig,
    t: usize,
    /// The columns kept: `C`, or the columns a tile's weights reach.
    width: usize,
    /// The `T x width` result, row-major.
    output: Vec<i64>,
    collected: usize,
}

impl OutputCollector {
    /// Creates a collector for a stream of `t` rows of `A`.
    #[must_use]
    pub fn new(config: ArrayConfig, t: usize) -> Self {
        Self::clipped(config, t, config.cols as usize)
    }

    /// A collector that keeps only the first `width` columns of the
    /// result, for a tile whose weights reach no further: it checks the
    /// schedule of every column, and its output is `T x width`.
    pub(crate) fn clipped(config: ArrayConfig, t: usize, width: usize) -> Self {
        Self {
            config,
            t,
            width,
            output: vec![0; t * width],
            collected: 0,
        }
    }

    /// Records the south-edge values registered at the end of `cycle`.
    ///
    /// # Errors
    ///
    /// Returns [`SimError::DimensionMismatch`] if the schedule expects a
    /// valid result for some column this cycle but the array produced none
    /// (or vice versa); this indicates a dataflow bug and never happens for
    /// a correctly configured simulation.
    pub fn collect(&mut self, cycle: u64, south_outputs: &[Option<i64>]) -> Result<(), SimError> {
        let k = u64::from(self.config.collapse_depth);
        let fill_latency = u64::from(self.config.row_blocks()) - 1;
        if south_outputs.len() != self.config.cols as usize {
            return Err(SimError::DimensionMismatch {
                reason: format!(
                    "expected {} south outputs, got {}",
                    self.config.cols,
                    south_outputs.len()
                ),
            });
        }
        for (m, value) in south_outputs.iter().enumerate() {
            let column_skew = m as u64 / k;
            let start = fill_latency + column_skew;
            let expected = cycle >= start && ((cycle - start) as usize) < self.t;
            match (expected, value) {
                (true, Some(v)) => {
                    let t = (cycle - start) as usize;
                    if m < self.width {
                        self.output[t * self.width + m] = *v;
                    }
                    self.collected += 1;
                }
                (false, None) => {}
                (true, None) => {
                    return Err(SimError::DimensionMismatch {
                        reason: format!(
                            "column {m} produced no result at cycle {cycle} although one was due"
                        ),
                    })
                }
                (false, Some(_)) => {
                    return Err(SimError::DimensionMismatch {
                        reason: format!(
                            "column {m} produced an unexpected result at cycle {cycle}"
                        ),
                    })
                }
            }
        }
        Ok(())
    }

    /// The array configuration this collector schedules for.
    #[must_use]
    pub fn config(&self) -> ArrayConfig {
        self.config
    }

    /// The last cycle at which any column is due to produce a result, or
    /// `None` for an empty stream. Cycles past this bound are guaranteed
    /// output-free, which is what lets
    /// [`SystolicArray::run_cycles`](crate::SystolicArray::run_cycles)
    /// fold trailing dead cycles into O(1) bookkeeping.
    #[must_use]
    pub fn last_due_cycle(&self) -> Option<u64> {
        if self.t == 0 {
            return None;
        }
        let k = u64::from(self.config.collapse_depth);
        let fill_latency = u64::from(self.config.row_blocks()) - 1;
        Some(fill_latency + u64::from(self.config.cols - 1) / k + self.t as u64 - 1)
    }

    /// The contiguous range of columns due to register a result at
    /// `cycle`, or `None` when nothing is due — the O(1) frontier form of
    /// the output schedule. Column `m` starts producing at cycle
    /// `fill_latency + floor(m / k)` and produces for `T` cycles, so the
    /// due columns are always one dense range.
    #[must_use]
    pub fn due_range(&self, cycle: u64) -> Option<(u32, u32)> {
        if self.t == 0 {
            return None;
        }
        let k = u64::from(self.config.collapse_depth);
        let cols = u64::from(self.config.cols);
        let fill_latency = u64::from(self.config.row_blocks()) - 1;
        if cycle < fill_latency {
            return None;
        }
        let offset = cycle - fill_latency;
        let first = (offset + 1).saturating_sub(self.t as u64).saturating_mul(k);
        if first >= cols {
            return None;
        }
        let last = offset
            .saturating_add(1)
            .saturating_mul(k)
            .saturating_sub(1)
            .min(cols - 1);
        Some((first as u32, last as u32))
    }

    /// Records the south-edge values of one cycle in dense form: the
    /// array reports the contiguous column range it registered results
    /// for (`produced`) and hands over its last-row registers (`values`,
    /// one `i64` per kept column, only the produced range meaningful and
    /// read only when a result is due). The schedule cross-check of
    /// [`OutputCollector::collect`] collapses to one O(1) range
    /// comparison over all `C` columns, and each due result of a kept
    /// column is written straight into its output element — the harvest
    /// form
    /// [`SystolicArray::run_cycles`](crate::SystolicArray::run_cycles)
    /// uses.
    ///
    /// # Errors
    ///
    /// Returns [`SimError::DimensionMismatch`] if the produced range does
    /// not match the schedule (the same violations
    /// [`OutputCollector::collect`] detects) or, when a result is due,
    /// `values` does not have one slot per kept column.
    pub fn collect_produced(
        &mut self,
        cycle: u64,
        produced: Option<(u32, u32)>,
        values: &[i64],
    ) -> Result<(), SimError> {
        let due = self.due_range(cycle);
        if produced != due {
            return Err(SimError::DimensionMismatch {
                reason: format!(
                    "columns {produced:?} produced results at cycle {cycle} but {due:?} were due"
                ),
            });
        }
        let Some((first, last)) = due else {
            return Ok(());
        };
        if values.len() != self.width {
            return Err(SimError::DimensionMismatch {
                reason: format!("expected {} south values, got {}", self.width, values.len()),
            });
        }
        // The due range is block-aligned, and column block `cb` registers
        // output row `cycle - fill_latency - cb`: walking the kept columns
        // from the last one, the row moves down one per block.
        let k = self.config.collapse_depth as usize;
        let (first, last) = (first as usize, last as usize);
        let kept = (last + 1).min(self.width);
        if first < kept {
            let fill_latency = u64::from(self.config.row_blocks()) - 1;
            let mut row = (cycle - fill_latency) as usize - (kept - 1) / k;
            let mut left = (kept - 1) % k + 1;
            for (col, &value) in values[first..kept].iter().enumerate().rev() {
                self.output[row * self.width + first + col] = value;
                left -= 1;
                if left == 0 {
                    (row, left) = (row + 1, k);
                }
            }
        }
        self.collected += last - first + 1;
        Ok(())
    }

    /// Returns `true` once every output element has been collected.
    #[must_use]
    pub fn is_complete(&self) -> bool {
        self.collected == self.t * self.config.cols as usize
    }

    /// Consumes the collector and returns the collected `T x C` result
    /// (`T x width` for a clipped collector).
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
                    self.t * self.config.cols as usize
                ),
            });
        }
        Ok(Matrix::from_vec(self.t, self.width, self.output)?)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn feeder_applies_the_batched_skew() {
        // 4 SA rows, k = 2: rows 0 and 1 start at cycle 0, rows 2 and 3 at
        // cycle 1.
        let a = Matrix::from_rows(vec![vec![1, 2, 3, 4], vec![5, 6, 7, 8]]).unwrap();
        let config = ArrayConfig::new(4, 4).with_collapse_depth(2);
        let feeder = InputFeeder::new(&a, config).unwrap();
        assert_eq!(feeder.stream_length(), 2);
        assert_eq!(feeder.west_inputs(0), vec![Some(1), Some(2), None, None]);
        assert_eq!(
            feeder.west_inputs(1),
            vec![Some(5), Some(6), Some(3), Some(4)]
        );
        assert_eq!(feeder.west_inputs(2), vec![None, None, Some(7), Some(8)]);
        assert_eq!(feeder.west_inputs(3), vec![None, None, None, None]);
    }

    #[test]
    fn feeder_normal_mode_uses_unit_skew() {
        let a = Matrix::from_rows(vec![vec![9, 8, 7]]).unwrap();
        let config = ArrayConfig::new(3, 3);
        let feeder = InputFeeder::new(&a, config).unwrap();
        assert_eq!(feeder.west_inputs(0), vec![Some(9), None, None]);
        assert_eq!(feeder.west_inputs(1), vec![None, Some(8), None]);
        assert_eq!(feeder.west_inputs(2), vec![None, None, Some(7)]);
    }

    #[test]
    fn feeder_rejects_mismatched_operand() {
        let a = Matrix::<i32>::zeros(2, 3);
        assert!(InputFeeder::new(&a, ArrayConfig::new(4, 4)).is_err());
    }

    #[test]
    fn collector_enforces_the_schedule() {
        let config = ArrayConfig::new(2, 2);
        let mut collector = OutputCollector::new(config, 1);
        // Row blocks = 2, so nothing is due at cycle 0.
        collector.collect(0, &[None, None]).unwrap();
        assert!(!collector.is_complete());
        // Column 0 is due at cycle 1, column 1 at cycle 2.
        collector.collect(1, &[Some(23), None]).unwrap();
        collector.collect(2, &[None, Some(34)]).unwrap();
        assert!(collector.is_complete());
        let out = collector.into_output().unwrap();
        assert_eq!(out[(0, 0)], 23);
        assert_eq!(out[(0, 1)], 34);
    }

    #[test]
    fn collector_rejects_schedule_violations() {
        let config = ArrayConfig::new(2, 2);
        let mut collector = OutputCollector::new(config, 1);
        // A result where none is due.
        assert!(collector.collect(0, &[Some(1), None]).is_err());
        // A missing result where one is due.
        let mut collector = OutputCollector::new(config, 1);
        assert!(collector.collect(1, &[None, None]).is_err());
        // Wrong width.
        let mut collector = OutputCollector::new(config, 1);
        assert!(collector.collect(0, &[None]).is_err());
    }

    #[test]
    fn incomplete_collection_cannot_be_finalized() {
        let collector = OutputCollector::new(ArrayConfig::new(2, 2), 3);
        assert!(collector.into_output().is_err());
    }
}
