//! Register-level model of the output-stationary systolic array.
//!
//! Where the weight-stationary array ([`crate::array`]) keeps weights
//! resident and streams operands west-to-east while partial sums ripple
//! south, the output-stationary array keeps the **accumulators** resident in
//! the PEs and streams *both* operands: `A` west-to-east (one register per
//! (row, column block), as in the WS horizontal pipeline) and `B`
//! north-to-south (one register per (row block, column)). PE `(i, j)`
//! multiplies the pair of operands meeting it each cycle into its local
//! accumulator; after the reduction stream ends the accumulators drain
//! through the south edge, one row per cycle per column, bottom-up.
//!
//! # Operand layout
//!
//! Both operand pipelines are pure shift registers, so no operand ever
//! moves once it enters its edge. Their registers live in one of two
//! stores, each laid out so that what one PE row sees this cycle is a
//! contiguous slice indexed by array column:
//!
//! * while a whole feeder stream runs on the analytic kernel, in its
//!   **streams**, built once at cycle 0 straight from the operand
//!   matrices and dropped when it ends: `A` as per-row streams
//!   (`soa::RowStreams`, shared with the weight-stationary operand
//!   pipeline), reversed in time and k-expanded, so a row's registers are
//!   a window that slides one stage per cycle; `B` as a `(c_max + 1)`-row
//!   matrix whose row `s` is the north edge of cycle `s`, so row block
//!   `rb` reads row `c - rb`;
//! * otherwise in the stores the naive scan stages each cycle's edges
//!   into: `A` in k-expanded, mirrored lanes (`soa::RowLanes`), `B` in a
//!   **ring of edge stages** (`ceil(R/k)` slots of `C` operands), row
//!   block `rb` reading the stage from `rb` cycles ago. Validity is one
//!   bitset per stage for `A` (bit = row) and one flag per stage and
//!   column for `B`. Invalid operands are stored as zero.
//!
//! The streams cover only the part of the tile the operands reach: the
//! rows `A` reaches and the columns `B` reaches. Every operand past them
//! is zero padding, so those PEs' accumulators provably stay zero and no
//! cycle multiplies them. A whole stream leaves no valid operand in
//! flight, so after one, as after a reset, the naive scan starts from
//! cleared lanes and ring.
//!
//! # Kernels
//!
//! Every cycle performs exactly that cycle's multiply-accumulates, books
//! [`RunStats`] and lets the collector drain the accumulators due that
//! cycle. Which PEs multiply is decided by one of two kernels:
//!
//! * the **analytic wavefront kernel** of
//!   [`OutputStationaryArray::run_cycles`]. Under the feeder schedule
//!   (`A[i][n]` enters row `i` at cycle `n + floor(i/k)`, `B[n][j]` enters
//!   column `j` at cycle `n + floor(j/k)`), block pair `(rb, cb)` holds a
//!   valid operand pair at cycle `c` exactly when
//!   `c - N + 1 <= rb + cb <= c`. So each active row block sweeps its rows
//!   over one contiguous column range with one [`lanes::mac`]
//!   (`acc += a * b`) over contiguous accumulator, `A`-stream and
//!   `B`-stream slices. It runs whole streams only: a `run_cycles` call
//!   from cycle 0 with nothing in flight (after construction,
//!   `reset_for_tile` or another whole stream) through the stream's last
//!   multiply-accumulate;
//! * the **naive scan**, which stages both edges and checks both
//!   operands' validity at every PE. It runs for
//!   [`OutputStationaryArray::step`], and every other `run_cycles` call
//!   loops over `step`.
//!
//! Both kernels leave bit-identical accumulators and statistics, which the
//! differential suites check cycle for cycle against an array-of-structs
//! reference.

use crate::config::{ArrayConfig, Dataflow};
use crate::error::SimError;
use crate::os_dataflow::{OsCollector, OsNorthFeeder, OsWestFeeder};
use crate::soa::{RowLanes, RowStreams, StageCursor, StreamPurity};
use crate::stats::RunStats;
use gemm::lanes;

/// The `B` operand pipeline: one register per (row block, column), stored
/// as a ring of edge stages.
#[derive(Debug, Clone)]
struct StageRing {
    /// Operands, `slot * lanes..(slot + 1) * lanes` per stage.
    values: Vec<i32>,
    /// Validity of `values`, same layout.
    valid: Vec<bool>,
    cursor: StageCursor,
    lanes: usize,
}

impl StageRing {
    fn new(slots: usize, lanes: usize) -> Self {
        Self {
            values: vec![0; slots * lanes],
            valid: vec![false; slots * lanes],
            cursor: StageCursor::new(slots),
            lanes,
        }
    }

    fn clear(&mut self) {
        self.values.fill(0);
        self.valid.fill(false);
        self.cursor = StageCursor::new(self.cursor.slots);
    }

    /// Stages one north edge given in `Option` form (`None` = no operand).
    fn stage_options(&mut self, inputs: &[Option<i32>]) {
        if !self.cursor.advance(inputs.iter().all(Option::is_none)) {
            return;
        }
        let at = self.cursor.head * self.lanes;
        let values = &mut self.values[at..at + self.lanes];
        let valid = &mut self.valid[at..at + self.lanes];
        for ((value, valid), input) in values.iter_mut().zip(valid).zip(inputs) {
            *value = input.unwrap_or(0);
            *valid = input.is_some();
        }
    }

    /// The stage (values and validity) row block `rb` sees this cycle.
    fn stage(&self, rb: usize) -> (&[i32], &[bool]) {
        let at = self.cursor.slot(rb) * self.lanes;
        (
            &self.values[at..at + self.lanes],
            &self.valid[at..at + self.lanes],
        )
    }
}

/// The operand streams of one whole feeder stream the analytic wavefront
/// kernel runs, built when the stream starts at cycle 0, over the part of
/// the tile the operands reach.
#[derive(Debug, Clone)]
struct Streams {
    /// The `A` pipeline: one stream per array row `A` reaches, with
    /// windows as wide as `B` reaches.
    west: RowStreams,
    /// The `B` pipeline: row `s` (`cols` operands) is the north edge of
    /// cycle `s` over the columns `B` reaches, where column `j` carries
    /// `B[s - floor(j/k)][j]` and zero where idle, for every cycle up to
    /// the last multiply-accumulate.
    north: Vec<i32>,
    /// The reduction length (`N`).
    n: u64,
    /// The columns `B` reaches.
    cols: usize,
    k: usize,
}

impl Streams {
    /// All-zero streams of an `n`-long reduction on `config`'s array whose
    /// operands reach `rows` rows and `cols` columns into the tile.
    fn new(config: ArrayConfig, n: u64, rows: usize, cols: usize) -> Self {
        let west = RowStreams::new(config, n, rows, cols);
        Self {
            north: vec![0; (west.last_mac_cycle() as usize + 1) * cols],
            west,
            n,
            cols,
            k: config.collapse_depth as usize,
        }
    }

    /// Writes the operands of both edges, read from the feeders.
    fn fill(&mut self, west: &OsWestFeeder<'_>, north: &OsNorthFeeder<'_>) {
        // Row `i` streams row `i` of `A`.
        let a = west.operand();
        self.west.fill(|row, operands| a.copy_row(row, 0, operands));
        let (b, cols, k) = (north.operand(), self.cols, self.k);
        let mut b_row = vec![0; cols];
        for i in 0..self.n as usize {
            // Column block `cb` of row `i` of `B` enters at cycle `i + cb`.
            b.copy_row(i, 0, &mut b_row);
            let (mut at, mut left) = (i * cols, k);
            for (col, &operand) in b_row.iter().enumerate() {
                self.north[at + col] = operand;
                left -= 1;
                if left == 0 {
                    (at, left) = (at + cols, k);
                }
            }
        }
    }

    /// The `B` operand registers of row block `rb` at `cycle`: the north
    /// edge of cycle `cycle - rb`.
    fn north_stage(&self, rb: usize, cycle: u64) -> &[i32] {
        let at = (cycle as usize - rb) * self.cols;
        &self.north[at..at + self.cols]
    }
}

/// Cycle-accurate output-stationary systolic array with configurable
/// transparent pipelining.
///
/// # Examples
///
/// ```
/// use gemm::Matrix;
/// use sa_sim::{ArrayConfig, Dataflow, OutputStationaryArray};
/// use sa_sim::os_dataflow::{OsCollector, OsNorthFeeder, OsWestFeeder};
///
/// let config = ArrayConfig::new(2, 2).with_dataflow(Dataflow::OutputStationary);
/// let mut array = OutputStationaryArray::new(config)?;
/// let a = Matrix::from_rows(vec![vec![1, 2], vec![3, 4]])?;
/// let b = Matrix::from_rows(vec![vec![5, 6], vec![7, 8]])?;
/// let west = OsWestFeeder::new(&a, config)?;
/// let north = OsNorthFeeder::new(&b, config)?;
/// let mut collector = OsCollector::new(config, 2);
/// array.run_cycles(&west, &north, 0, config.os_tile_cycles(2), &mut collector)?;
/// let out = collector.into_output()?;
/// assert_eq!(out[(0, 0)], 1 * 5 + 2 * 7);
/// assert_eq!(out[(1, 1)], 3 * 6 + 4 * 8);
/// # Ok::<(), sa_sim::SimError>(())
/// ```
#[derive(Debug, Clone)]
pub struct OutputStationaryArray {
    config: ArrayConfig,
    /// `A` operand pipeline as the naive scan stages it, west, shifting
    /// east.
    a_lanes: RowLanes,
    /// `B` operand pipeline as the naive scan stages it, north, shifting
    /// south. Only the naive scan reads either store, so it clears them
    /// when it starts.
    b_ring: StageRing,
    /// Resident accumulators, one per PE, row-major (`row * cols + col`).
    acc: Vec<i64>,
    /// What the pipelines hold: whether anything is in flight, which
    /// [`OutputStationaryArray::run_cycles`] needs to know before it runs
    /// the analytic wavefront kernel, whether the naive scan's stores hold
    /// the operand registers, and whether any cycle touched the
    /// accumulators.
    purity: StreamPurity,
    stats: RunStats,
}

impl OutputStationaryArray {
    /// Creates an array with zeroed accumulators and empty pipelines.
    ///
    /// # Errors
    ///
    /// Returns [`SimError::InvalidConfig`] if the configuration is invalid
    /// or not marked [`Dataflow::OutputStationary`].
    pub fn new(config: ArrayConfig) -> Result<Self, SimError> {
        config.validate()?;
        if config.dataflow != Dataflow::OutputStationary {
            return Err(SimError::InvalidConfig {
                reason: format!(
                    "OutputStationaryArray requires an output-stationary configuration, got {}",
                    config.dataflow
                ),
            });
        }
        let rows = config.rows as usize;
        let cols = config.cols as usize;
        let k = config.collapse_depth as usize;
        Ok(Self {
            config,
            a_lanes: RowLanes::new(rows, cols, k),
            b_ring: StageRing::new(config.row_blocks() as usize, cols),
            acc: vec![0; rows * cols],
            purity: StreamPurity::Clean,
            stats: RunStats::default(),
        })
    }

    /// The array configuration.
    #[must_use]
    pub fn config(&self) -> ArrayConfig {
        self.config
    }

    /// Statistics accumulated since construction (or the last
    /// [`OutputStationaryArray::reset_for_tile`]).
    #[must_use]
    pub fn stats(&self) -> RunStats {
        self.stats
    }

    /// The resident accumulators, row-major (`row * cols + col`) — the
    /// canonical observable state of the output-stationary array, exposed
    /// for the differential tests and for schedule-level collectors.
    #[must_use]
    pub fn accumulators(&self) -> &[i64] {
        &self.acc
    }

    /// Prepares the array for a fresh tile **without reallocating**: clears
    /// both operand pipelines, the accumulators and the statistics. After
    /// `reset_for_tile` the array behaves exactly like a freshly
    /// constructed [`OutputStationaryArray::new`] of the same
    /// configuration.
    pub fn reset_for_tile(&mut self) {
        // Only a cycle leaves the pipelines anything but clean, so a clean
        // array holds nothing to clear; the naive scan clears its stores
        // when it next starts.
        if self.purity != StreamPurity::Clean {
            self.acc.fill(0);
            self.purity = StreamPurity::Clean;
        }
        self.stats = RunStats::default();
    }

    /// Advances the array by one compute clock cycle with caller-provided
    /// edge operands (`None` = no operand on that lane this cycle), the
    /// output-stationary analogue of
    /// [`SystolicArray::step_into`](crate::SystolicArray::step_into).
    /// Nothing is emitted: results accumulate in place and are read back
    /// via [`OutputStationaryArray::accumulators`] or drained on the
    /// collector schedule by [`OutputStationaryArray::run_cycles`].
    ///
    /// The cycle runs the naive scan, and the arbitrary operands it stages
    /// keep later `run_cycles` calls on the naive scan until the next
    /// [`OutputStationaryArray::reset_for_tile`].
    ///
    /// # Errors
    ///
    /// Returns [`SimError::DimensionMismatch`] if `west_inputs` does not
    /// have one entry per array row or `north_inputs` one per array column.
    pub fn step(
        &mut self,
        west_inputs: &[Option<i32>],
        north_inputs: &[Option<i32>],
    ) -> Result<(), SimError> {
        let rows = self.config.rows as usize;
        let cols = self.config.cols as usize;
        if west_inputs.len() != rows {
            return Err(SimError::DimensionMismatch {
                reason: format!("expected {rows} west inputs, got {}", west_inputs.len()),
            });
        }
        if north_inputs.len() != cols {
            return Err(SimError::DimensionMismatch {
                reason: format!("expected {cols} north inputs, got {}", north_inputs.len()),
            });
        }
        self.start_naive();
        self.a_lanes.stage_options(west_inputs);
        self.b_ring.stage_options(north_inputs);
        let macs = self.compute_naive();
        self.commit_cycle_stats(macs);
        Ok(())
    }

    /// Advances the array by `cycles` compute clock cycles
    /// (`first_cycle..first_cycle + cycles` in the feeders' and collector's
    /// schedule) — the multi-cycle entry point the tile loop of
    /// [`Simulator`](crate::Simulator) drives.
    ///
    /// Semantically this is `cycles` calls to
    /// [`OutputStationaryArray::step`] with the two feeders' scheduled
    /// edges, plus the collector draining the due accumulators each cycle.
    ///
    /// When the call runs one whole feeder stream — from cycle 0 with
    /// nothing in flight (after construction,
    /// [`OutputStationaryArray::reset_for_tile`] or another whole stream)
    /// through the stream's last multiply-accumulate — each cycle runs the
    /// analytic wavefront kernel with the per-cycle overhead hoisted: the
    /// call builds both operand streams once, straight from the operand
    /// matrices and only over the rows `A` and the columns `B` reach, the
    /// configuration checks run once per call, and trailing **dead
    /// cycles** — both edges idle, both pipelines drained, nothing due —
    /// fold into O(1) statistics bookkeeping via
    /// [`RunStats::record_dead_cycles`]. Any other call loops `step` and
    /// the drain.
    ///
    /// # Errors
    ///
    /// Returns [`SimError::DimensionMismatch`] if a feeder or the collector
    /// was built for a different geometry, or if the two operand streams
    /// disagree on the reduction length.
    pub fn run_cycles(
        &mut self,
        west: &OsWestFeeder<'_>,
        north: &OsNorthFeeder<'_>,
        first_cycle: u64,
        cycles: u64,
        collector: &mut OsCollector,
    ) -> Result<(), SimError> {
        if west.config() != self.config || north.config() != self.config {
            return Err(SimError::DimensionMismatch {
                reason: format!(
                    "feeders were built for {}/{} but the array is {}",
                    west.config(),
                    north.config(),
                    self.config
                ),
            });
        }
        if collector.config() != self.config {
            return Err(SimError::DimensionMismatch {
                reason: format!(
                    "collector was built for {} but the array is {}",
                    collector.config(),
                    self.config
                ),
            });
        }
        let n = west.stream_length();
        if n != north.stream_length() || n != collector.reduction_length() {
            return Err(SimError::DimensionMismatch {
                reason: format!(
                    "reduction lengths disagree: west {n}, north {}, collector {}",
                    north.stream_length(),
                    collector.reduction_length()
                ),
            });
        }
        let end = first_cycle.saturating_add(cycles);
        // The wavefront kernel runs whole streams only: from cycle 0 with
        // nothing in flight through the last multiply-accumulate.
        if first_cycle != 0
            || end < self.config.compute_cycles(n)
            || self.purity == StreamPurity::Stepped
        {
            let mut west_edge = vec![None; self.config.rows as usize];
            let mut north_edge = vec![None; self.config.cols as usize];
            for cycle in first_cycle..end {
                west.west_inputs_into(cycle, &mut west_edge);
                north.north_inputs_into(cycle, &mut north_edge);
                self.step(&west_edge, &north_edge)?;
                collector.collect_due(cycle, &self.acc)?;
            }
            return Ok(());
        }

        let (rows, cols) = (west.operand().real_rows(), north.operand().real_cols());
        let mut streams = Streams::new(self.config, n, rows, cols);
        streams.fill(west, north);
        self.purity = StreamPurity::Drained;
        // Bulk dead-cycle skip: after the last due element (which follows
        // the last multiply-accumulate) both edges stay idle, nothing is in
        // flight and nothing is due, so every remaining cycle is pure
        // bookkeeping.
        let live = end.min(collector.last_due_cycle().map_or(0, |due| due + 1));
        for cycle in 0..live {
            let macs = self.compute_wavefront(&streams, n, cycle);
            self.commit_cycle_stats(macs);
            collector.collect_due(cycle, &self.acc)?;
        }
        self.record_dead_cycles(end - live);
        Ok(())
    }

    /// Hands the operand registers to the lanes and the ring the naive
    /// scan stages: nothing is in flight unless the naive scan ran last,
    /// so they start cleared.
    fn start_naive(&mut self) {
        if self.purity != StreamPurity::Stepped {
            self.a_lanes.clear();
            self.b_ring.clear();
            self.purity = StreamPurity::Stepped;
        }
    }

    /// The analytic wavefront kernel: one cycle of a whole feeder stream of
    /// length `n`, returning the MAC count.
    ///
    /// Block pair `(rb, cb)` is active exactly when
    /// `cycle - n + 1 <= rb + cb <= cycle`, so each active row block owns
    /// one contiguous, block-aligned column range, and every row of the
    /// block `A` reaches runs one fused multiply-accumulate over the
    /// columns `B` reaches in it: its accumulator row, its `A` stream
    /// window and the block's `B` stream row. The MAC count covers the
    /// whole tile.
    fn compute_wavefront(&mut self, streams: &Streams, n: u64, cycle: u64) -> u64 {
        let rows = self.config.rows as usize;
        let cols = self.config.cols as usize;
        let k = self.config.collapse_depth as usize;
        let (reached_rows, width) = (streams.west.rows(), streams.cols);
        let rb_max = u64::from(self.config.row_blocks()) - 1;
        let cb_max = u64::from(self.config.col_blocks()) - 1;
        // The smallest active `rb + cb`.
        let lo = (cycle + 1).saturating_sub(n);
        if n == 0 || lo > rb_max + cb_max {
            return 0;
        }
        let mut macs = 0u64;
        for rb in lo.saturating_sub(cb_max)..=rb_max.min(cycle) {
            let col0 = lo.saturating_sub(rb) as usize * k;
            let col1 = ((cb_max.min(cycle - rb) as usize + 1) * k).min(cols);
            let rb = rb as usize;
            let row1 = ((rb + 1) * k).min(rows);
            macs += ((row1 - rb * k) * (col1 - col0)) as u64;
            let end = col1.min(width);
            if col0 >= end {
                continue;
            }
            let b = &streams.north_stage(rb, cycle)[col0..end];
            for row in rb * k..row1.min(reached_rows) {
                lanes::mac(
                    &mut self.acc[row * cols + col0..row * cols + end],
                    &streams.west.window(row, cycle)[col0..end],
                    b,
                );
            }
        }
        macs
    }

    /// The naive scan: every PE multiplies when both of its operands are
    /// valid. Returns the MAC count.
    fn compute_naive(&mut self) -> u64 {
        let rows = self.config.rows as usize;
        let cols = self.config.cols as usize;
        let k = self.config.collapse_depth as usize;
        let mut macs = 0u64;
        for row in 0..rows {
            let a = self.a_lanes.operands(row, cols);
            let (b, b_valid) = self.b_ring.stage(row / k);
            let acc = &mut self.acc[row * cols..(row + 1) * cols];
            for col in 0..cols {
                if b_valid[col] && self.a_lanes.is_valid(row, col / k) {
                    acc[col] = acc[col].wrapping_add(i64::from(a[col]) * i64::from(b[col]));
                    macs += 1;
                }
            }
        }
        macs
    }

    /// Books one committed compute cycle into the statistics — the same
    /// contract as the WS array: every PE is evaluated
    /// (`pe_cycles += R * C`), the physically existing pipeline registers
    /// (`R * ceil(C/k)` horizontal plus `ceil(R/k) * C` vertical) clock,
    /// and the remaining conceptual register positions of the full `2RC`
    /// set are transparent/gated. The resident accumulators update only on
    /// a MAC and are accounted through `macs`.
    fn commit_cycle_stats(&mut self, macs: u64) {
        let rows = self.config.rows as usize;
        let cols = self.config.cols as usize;
        let row_blocks = self.config.row_blocks() as usize;
        let col_blocks = self.config.col_blocks() as usize;
        self.stats.macs += macs;
        self.stats.compute_cycles += 1;
        self.stats.pe_cycles += (rows * cols) as u64;
        let clocked = (rows * col_blocks + cols * row_blocks) as u64;
        let total_regs = 2 * (rows * cols) as u64;
        self.stats.clocked_register_events += clocked;
        self.stats.gated_register_events += total_regs - clocked;
    }

    /// Books `cycles` dead compute cycles (no operand anywhere) into the
    /// statistics, exactly as stepping them one by one would.
    fn record_dead_cycles(&mut self, cycles: u64) {
        let rows = self.config.rows as usize;
        let cols = self.config.cols as usize;
        let row_blocks = self.config.row_blocks() as usize;
        let col_blocks = self.config.col_blocks() as usize;
        let clocked = (rows * col_blocks + cols * row_blocks) as u64;
        let total_regs = 2 * (rows * cols) as u64;
        self.stats
            .record_dead_cycles(cycles, (rows * cols) as u64, clocked, total_regs - clocked);
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use gemm::{multiply, Matrix};

    fn os_config(rows: u32, cols: u32, k: u32) -> ArrayConfig {
        ArrayConfig::new(rows, cols)
            .with_collapse_depth(k)
            .with_dataflow(Dataflow::OutputStationary)
    }

    fn run_tile(config: ArrayConfig, a: &Matrix<i32>, b: &Matrix<i32>) -> (Matrix<i64>, RunStats) {
        let mut array = OutputStationaryArray::new(config).unwrap();
        let west = OsWestFeeder::new(a, config).unwrap();
        let north = OsNorthFeeder::new(b, config).unwrap();
        let n = west.stream_length();
        let mut collector = OsCollector::new(config, n);
        array
            .run_cycles(&west, &north, 0, config.os_tile_cycles(n), &mut collector)
            .unwrap();
        (collector.into_output().unwrap(), array.stats())
    }

    #[test]
    fn full_tile_matches_the_reference_gemm() {
        use gemm::rng::SplitMix64;
        for (rows, cols, k, n, seed) in [
            (2u32, 2u32, 1u32, 3usize, 1u64),
            (4, 4, 2, 7, 2),
            (6, 3, 3, 5, 3),
            (1, 1, 1, 1, 4),
            (5, 8, 3, 11, 5),
        ] {
            let mut rng = SplitMix64::new(seed);
            let a = Matrix::random(rows as usize, n, &mut rng, -9, 9);
            let b = Matrix::random(n, cols as usize, &mut rng, -9, 9);
            let config = os_config(rows, cols, k);
            let (out, stats) = run_tile(config, &a, &b);
            assert_eq!(out, multiply(&a, &b).unwrap(), "{rows}x{cols} k={k} n={n}");
            assert_eq!(stats.total_cycles(), config.os_tile_cycles(n as u64));
            assert_eq!(stats.load_cycles, 0);
            assert_eq!(stats.macs, n as u64 * u64::from(rows) * u64::from(cols));
        }
    }

    #[test]
    fn step_with_holes_matches_per_element_accumulation() {
        // Feed a sparse stream by hand: A holes on row 1, B holes on
        // column 0 at cycle 1; only pairs with both operands valid MAC.
        let config = os_config(2, 2, 1);
        let mut array = OutputStationaryArray::new(config).unwrap();
        array.step(&[Some(2), None], &[Some(3), Some(4)]).unwrap();
        // Cycle 0: only PE (0, 0) has both operands (a row 0 meets b col 0
        // with zero skew); (0, 1) needs the b operand one stage south.
        assert_eq!(array.accumulators(), &[2 * 3, 0, 0, 0]);
        array.step(&[Some(5), Some(6)], &[None, Some(7)]).unwrap();
        // Cycle 1: (0, 0) pairs a=5 with the hole (no MAC); (0, 1) pairs
        // the a stage from a cycle ago (a=2, one stage east) with this
        // cycle's b=7; (1, 0) pairs this cycle's a=6 with the b stage from
        // a cycle ago (b=3, one stage south); (1, 1) pairs last cycle's
        // a hole with b=4 (no MAC).
        assert_eq!(array.stats().macs, 1 + 2);
        let expected = [2 * 3, 2 * 7, 6 * 3, 0];
        assert_eq!(array.accumulators(), &expected);
    }

    #[test]
    fn reset_for_tile_behaves_like_a_fresh_array() {
        let config = os_config(3, 3, 2);
        let a = Matrix::from_rows(vec![vec![1, 2], vec![3, 4], vec![5, 6]]).unwrap();
        let b = Matrix::from_rows(vec![vec![1, 0, 2], vec![0, 3, 1]]).unwrap();
        let mut array = OutputStationaryArray::new(config).unwrap();
        let run = |array: &mut OutputStationaryArray| {
            let west = OsWestFeeder::new(&a, config).unwrap();
            let north = OsNorthFeeder::new(&b, config).unwrap();
            let mut collector = OsCollector::new(config, 2);
            array
                .run_cycles(&west, &north, 0, config.os_tile_cycles(2), &mut collector)
                .unwrap();
            (collector.into_output().unwrap(), array.stats())
        };
        let first = run(&mut array);
        array.reset_for_tile();
        assert_eq!(array.stats(), RunStats::default());
        let second = run(&mut array);
        assert_eq!(first, second);
        assert_eq!(first.0, multiply(&a, &b).unwrap());
    }

    #[test]
    fn a_padded_tile_continues_in_step_after_run_cycles() {
        // A 3x7 by 7x2 product on an 8x8 array at k = 3: the tile's blocks
        // reach three rows and two columns into the array, so a whole
        // stream's streams hold neither the last five rows nor the last
        // six columns. After a `run_cycles` prefix in fill or steady state,
        // or the whole stream and part of the drain, `step` must go on
        // from exactly the registers the naive scan holds on the
        // `padded_block` copies, padding included: every accumulator and
        // every statistic matches cycle for cycle.
        use crate::soa::TileOperand;
        use gemm::rng::SplitMix64;

        let config = os_config(8, 8, 3);
        let mut rng = SplitMix64::new(27);
        let a = Matrix::random(3, 7, &mut rng, -60, 60);
        let b = Matrix::random(7, 2, &mut rng, -60, 60);
        let (a_pad, b_pad) = (a.padded_block(0, 0, 8, 7), b.padded_block(0, 0, 7, 8));
        let west = OsWestFeeder::from_operand(TileOperand::block(&a, 0, 0, 8, 7), config).unwrap();
        let north =
            OsNorthFeeder::from_operand(TileOperand::block(&b, 0, 0, 7, 8), config).unwrap();
        let padded_west = OsWestFeeder::new(&a_pad, config).unwrap();
        let padded_north = OsNorthFeeder::new(&b_pad, config).unwrap();
        let edges = |west: &OsWestFeeder<'_>, north: &OsNorthFeeder<'_>, cycle| {
            let (mut w, mut n) = (vec![None; 8], vec![None; 8]);
            west.west_inputs_into(cycle, &mut w);
            north.north_inputs_into(cycle, &mut n);
            (w, n)
        };
        let cycles = config.os_tile_cycles(7);
        for prefix in [2, 5, 9, 14] {
            let mut array = OutputStationaryArray::new(config).unwrap();
            let mut collector = OsCollector::clipped(config, 7, 3, 2);
            array
                .run_cycles(&west, &north, 0, prefix, &mut collector)
                .unwrap();
            let mut reference = OutputStationaryArray::new(config).unwrap();
            for cycle in 0..prefix {
                let (w, n) = edges(&padded_west, &padded_north, cycle);
                reference.step(&w, &n).unwrap();
            }
            assert_eq!(array.accumulators(), reference.accumulators());
            assert_eq!(array.stats(), reference.stats(), "prefix {prefix}");

            for cycle in prefix..cycles {
                let (w, n) = edges(&west, &north, cycle);
                let padded = edges(&padded_west, &padded_north, cycle);
                assert_eq!((&w, &n), (&padded.0, &padded.1));
                array.step(&w, &n).unwrap();
                reference.step(&w, &n).unwrap();
                assert_eq!(
                    array.accumulators(),
                    reference.accumulators(),
                    "prefix {prefix}, cycle {cycle}"
                );
            }
            assert_eq!(array.stats(), reference.stats(), "prefix {prefix}");
            let product = multiply(&a, &b).unwrap();
            for (i, j) in (0..3).flat_map(|i| (0..2).map(move |j| (i, j))) {
                assert_eq!(array.accumulators()[i * 8 + j], product[(i, j)]);
            }
        }
    }

    #[test]
    fn overlong_runs_fold_trailing_cycles_into_dead_stats() {
        let config = os_config(2, 2, 1);
        let a = Matrix::from_rows(vec![vec![1, 2], vec![3, 4]]).unwrap();
        let b = Matrix::from_rows(vec![vec![5, 6], vec![7, 8]]).unwrap();
        let baseline = {
            let mut array = OutputStationaryArray::new(config).unwrap();
            let west = OsWestFeeder::new(&a, config).unwrap();
            let north = OsNorthFeeder::new(&b, config).unwrap();
            let mut collector = OsCollector::new(config, 2);
            array
                .run_cycles(
                    &west,
                    &north,
                    0,
                    config.os_tile_cycles(2) + 50,
                    &mut collector,
                )
                .unwrap();
            (collector.into_output().unwrap(), array.stats())
        };
        // The 50 extra cycles are all dead: same output, 50 more compute
        // cycles, no more MACs.
        assert_eq!(baseline.0, multiply(&a, &b).unwrap());
        assert_eq!(baseline.1.total_cycles(), config.os_tile_cycles(2) + 50);
        assert_eq!(baseline.1.macs, 2 * 2 * 2);
        assert_eq!(
            baseline.1.pe_cycles,
            (config.os_tile_cycles(2) + 50) * config.pe_count()
        );
    }

    #[test]
    fn construction_rejects_ws_configurations_and_bad_geometry() {
        assert!(OutputStationaryArray::new(ArrayConfig::new(4, 4)).is_err());
        assert!(OutputStationaryArray::new(
            ArrayConfig::new(0, 4).with_dataflow(Dataflow::OutputStationary)
        )
        .is_err());
    }

    #[test]
    fn run_cycles_rejects_mismatched_schedules() {
        let config = os_config(2, 2, 1);
        let other = os_config(3, 3, 1);
        let mut array = OutputStationaryArray::new(config).unwrap();
        let a = Matrix::<i32>::zeros(2, 4);
        let b = Matrix::<i32>::zeros(4, 2);
        let west = OsWestFeeder::new(&a, config).unwrap();
        let north = OsNorthFeeder::new(&b, config).unwrap();
        // Collector built for a different geometry.
        let mut collector = OsCollector::new(other, 4);
        assert!(array
            .run_cycles(&west, &north, 0, 4, &mut collector)
            .is_err());
        // Streams disagreeing on the reduction length.
        let b_short = Matrix::<i32>::zeros(3, 2);
        let north_short = OsNorthFeeder::new(&b_short, config).unwrap();
        let mut collector = OsCollector::new(config, 4);
        assert!(array
            .run_cycles(&west, &north_short, 0, 4, &mut collector)
            .is_err());
    }
}
