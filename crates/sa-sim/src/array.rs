//! Register-level model of the weight-stationary systolic array.
//!
//! The array is simulated synchronously: every call to
//! [`SystolicArray::step_into`] (or its allocating convenience wrapper
//! [`SystolicArray::step`]) evaluates one clock cycle by computing the next
//! value of every pipeline register from the current register values and the
//! west-edge inputs, then committing them all at once. Transparent registers
//! (inside a collapsed pipeline block) are never clocked; the data simply
//! flows through them combinationally within the cycle, and the partial sums
//! inside a block are kept in carry-save form until the block's last row
//! resolves them — exactly the structure of Figs. 3 and 4 in the paper.
//!
//! # Structure-of-arrays state layout
//!
//! Only the registers that physically exist are stored: with collapsing
//! depth `k`, the horizontal (operand) pipeline has one register per
//! (row, column block) and the vertical (partial-sum) pipeline one per
//! (row block, column). Both pipelines are shift registers whose values
//! never need to move, and each keeps its registers in one of two stores,
//! laid out so that what one PE row (or row block) holds in a cycle is one
//! contiguous slice indexed by array column:
//!
//! * while a whole feeder stream runs on the analytic kernel, in its
//!   **streams**, built when it starts at cycle 0 and dropped when it
//!   ends. The operands are the **row streams** (`soa::RowStreams`,
//!   shared with the output-stationary `A` pipeline): every row's whole
//!   skewed stream, built straight from the operand matrix, reversed in
//!   time and k-expanded, so a cycle's registers are a window that slides
//!   one stage per cycle. The partial sums are the **partial-sum store**:
//!   row block `rb` works in cycle `c` on output row `c - rb - floor(j/k)`
//!   of column `j`, so the whole block reads and writes row `c - rb` of a
//!   store of `T + ceil(C/k) - 1` rows, and register `(rb, j)` after
//!   cycle `c` is entry `(c - rb, j)` of it;
//! * otherwise in the naive scan's stores: k-expanded, mirrored **row
//!   lanes** (`soa::RowLanes`), into which it stages each cycle's west
//!   edge, with validity bits (column block `cb` reads the stage from `cb`
//!   cycles ago), and a flat row-block-major, double-buffered partial-sum
//!   file with packed `u64` validity bitsets (one word-aligned segment per
//!   row block).
//!
//! The streams cover only the part of the tile the GEMM's operands reach:
//! the rows the streamed operand reaches and the columns the weights
//! reach. Every register past them provably holds zero (a padding operand,
//! or the partial sum of a column of zero weights), so no cycle multiplies
//! padding. A whole stream leaves no valid operand and no non-zero partial
//! sum that a later cycle reads, so after one, as after a reset, the naive
//! scan starts from cleared stores. The stationary weights live in one
//! row-major buffer.
//!
//! # Kernels
//!
//! Which PEs multiply in a cycle is decided by one of two kernels:
//!
//! * the **analytic wavefront kernel** of [`SystolicArray::run_cycles`].
//!   Under the feeder schedule, row block `rb` is fed by column block `cb`
//!   exactly during cycles `rb + cb ..= rb + cb + T - 1`, always with its
//!   full row range, so each active row block sweeps its rows over one
//!   contiguous column range with one [`lanes::mac`] per block row into
//!   its row of the partial-sum store, reading its operands from the row
//!   streams — the shape of the output-stationary kernel. It runs whole
//!   streams only: a `run_cycles` call from cycle 0 with nothing in flight
//!   (after construction, `reset_for_tile`, `load_weights` or another
//!   whole stream) through the stream's last multiply-accumulate, on a
//!   collector whose last due cycle is that one;
//! * the **naive scan**, which stages the west edge into the row lanes and
//!   evaluates the carry-save chain of every pipeline block of every
//!   column. It runs for [`SystolicArray::step_into`], and every other
//!   `run_cycles` call loops over `step_into`.
//!
//! Both kernels leave bit-identical outputs and statistics, which the
//! differential suites check cycle for cycle against an array-of-structs
//! reference. Neither allocates on the heap per cycle, and `run_cycles`
//! folds trailing cycles in which nothing is in flight into O(1)
//! statistics bookkeeping.

use crate::carry_save::CarrySaveValue;
use crate::config::{ArrayConfig, Dataflow};
use crate::dataflow::{InputFeeder, OutputCollector};
use crate::error::SimError;
use crate::pe::ProcessingElement;
use crate::soa::{get_bit, set_bit, words_for, RowLanes, RowStreams, StreamPurity, TileOperand};
use crate::stats::RunStats;
use gemm::{lanes, Matrix};

/// The registers of one whole feeder stream the analytic wavefront kernel
/// runs, built when the stream starts at cycle 0 and stored where no value
/// moves, over the part of the tile the operands reach.
#[derive(Debug, Clone)]
struct Streams {
    /// The operand registers: the row streams of the rows the streamed
    /// operand reaches, with windows as wide as the weights reach.
    west: RowStreams,
    /// The partial-sum store, `T + ceil(C/k) - 1` rows of `cols` sums:
    /// entry `(s, j)` is the partial sum of output row `s - floor(j/k)` of
    /// column `j`, and register `(rb, j)` after cycle `c` is entry
    /// `(c - rb, j)`.
    sums: Vec<i64>,
    /// The stream length (`T`).
    t: u64,
    /// The columns the weights reach: the width of the store.
    cols: usize,
}

impl Streams {
    /// All-zero registers of a `t`-long stream on `config`'s array whose
    /// operands reach `rows` rows and `cols` columns into the tile.
    fn new(config: ArrayConfig, t: u64, rows: usize, cols: usize) -> Self {
        let waves = (t + u64::from(config.col_blocks())).saturating_sub(1) as usize;
        Self {
            west: RowStreams::new(config, t, rows, cols),
            sums: vec![0; waves * cols],
            t,
            cols,
        }
    }

    /// Row `s` of the partial-sum store.
    fn sums_row(&self, s: u64) -> &[i64] {
        let at = s as usize * self.cols;
        &self.sums[at..at + self.cols]
    }
}

/// Cycle-accurate weight-stationary systolic array with configurable
/// transparent pipelining.
///
/// # Examples
///
/// ```
/// use gemm::Matrix;
/// use sa_sim::{ArrayConfig, SystolicArray};
///
/// let config = ArrayConfig::new(2, 2).with_collapse_depth(2);
/// let mut array = SystolicArray::new(config)?;
/// let weights = Matrix::from_rows(vec![vec![1, 2], vec![3, 4]])?;
/// array.load_weights(&weights)?;
/// // Stream a single row of A = [5, 6] (both SA rows are fed in the same
/// // cycle because k = 2) and read the result at the south edge.
/// let outputs = array.step(&[Some(5), Some(6)])?;
/// assert_eq!(outputs, vec![Some(5 * 1 + 6 * 3), Some(5 * 2 + 6 * 4)]);
/// # Ok::<(), sa_sim::SimError>(())
/// ```
#[derive(Debug, Clone)]
pub struct SystolicArray {
    config: ArrayConfig,
    /// Stationary weights, row-major (`row * cols + col`), so the
    /// wavefront kernel reads one contiguous lane of weights per block row.
    weights: Vec<i32>,
    /// The columns the loaded weights reach (`C` for a whole weight
    /// matrix): every weight past them is zero padding.
    weight_cols: usize,
    /// Horizontal (operand) pipeline registers, one per (row, column
    /// block), with their validity, as the naive scan stages them: the
    /// west edge of cycle `c` is written once and column block `cb`
    /// *reads* the stage from `cb` cycles ago, so no operand moves.
    /// Invalid operands are always stored as zero — which is what keeps
    /// the carry-save chains exact. Only the naive scan reads them and the
    /// four vertical buffers below, so it clears them when it starts.
    h_lanes: RowLanes,
    /// Vertical (partial-sum) pipeline registers as the naive scan keeps
    /// them, one per (row block, column), row-block-major
    /// (`rb * cols + col`).
    v_regs: Vec<i64>,
    /// Double buffer for the vertical registers (scratch, swapped every
    /// cycle so a cycle reads the previous block's *old* value); every
    /// naive cycle rewrites every slot.
    v_next: Vec<i64>,
    /// Validity of `v_regs`: one word-aligned segment of `vw` words per
    /// row block, bit `col` within segment `rb`.
    v_valid: Vec<u64>,
    /// Double buffer for `v_valid`.
    v_valid_next: Vec<u64>,
    /// What the pipelines hold: whether anything is in flight, which
    /// [`SystolicArray::run_cycles`] needs to know before it runs the
    /// analytic wavefront kernel, and whether the naive scan's stores hold
    /// the registers.
    purity: StreamPurity,
    /// Words per vertical validity segment: `ceil(cols / 64)`.
    vw: usize,
    weights_loaded: bool,
    stats: RunStats,
}

impl SystolicArray {
    /// Creates an array with all weights zero and empty pipelines.
    ///
    /// # Errors
    ///
    /// Returns [`SimError::InvalidConfig`] if the configuration is invalid
    /// or not marked [`Dataflow::WeightStationary`].
    pub fn new(config: ArrayConfig) -> Result<Self, SimError> {
        config.validate()?;
        if config.dataflow != Dataflow::WeightStationary {
            return Err(SimError::InvalidConfig {
                reason: format!(
                    "SystolicArray requires a weight-stationary configuration, got {}",
                    config.dataflow
                ),
            });
        }
        let rows = config.rows as usize;
        let cols = config.cols as usize;
        let row_blocks = config.row_blocks() as usize;
        let vw = words_for(cols);
        Ok(Self {
            config,
            weights: vec![0; rows * cols],
            weight_cols: cols,
            h_lanes: RowLanes::new(rows, cols, config.collapse_depth as usize),
            v_regs: vec![0; row_blocks * cols],
            v_next: vec![0; row_blocks * cols],
            v_valid: vec![0; row_blocks * vw],
            v_valid_next: vec![0; row_blocks * vw],
            purity: StreamPurity::Clean,
            vw,
            weights_loaded: false,
            stats: RunStats::default(),
        })
    }

    /// The array configuration.
    #[must_use]
    pub fn config(&self) -> ArrayConfig {
        self.config
    }

    /// Statistics accumulated since construction (or the last
    /// [`SystolicArray::reset`] / [`SystolicArray::reset_for_tile`]).
    #[must_use]
    pub fn stats(&self) -> RunStats {
        self.stats
    }

    /// A snapshot of the PE at (`row`, `col`), mainly for inspection in
    /// tests and examples, or `None` when out of bounds.
    ///
    /// The array stores its state in structure-of-arrays form, so the
    /// returned [`ProcessingElement`] is materialized on the fly: the
    /// stationary weight from the flat weight buffer plus the two
    /// configuration bits, which follow the block structure once weights
    /// (and with them the configuration) have been loaded.
    #[must_use]
    pub fn pe(&self, row: u32, col: u32) -> Option<ProcessingElement> {
        if row >= self.config.rows || col >= self.config.cols {
            return None;
        }
        let cols = self.config.cols as usize;
        let mut pe = ProcessingElement::new();
        pe.load_weight(self.weights[row as usize * cols + col as usize]);
        if self.weights_loaded {
            pe.configure(
                !self.is_block_last_col(col as usize),
                !self.is_block_last_row(row as usize),
            );
        }
        Some(pe)
    }

    /// Clears the pipelines, the weights and the statistics.
    pub fn reset(&mut self) {
        self.reset_for_tile();
        self.weights.fill(0);
    }

    /// Prepares the array for a fresh tile **without reallocating**: clears
    /// the data pipelines and the statistics and marks the weights as
    /// unloaded (the next [`SystolicArray::load_weights`] overwrites them).
    ///
    /// After `reset_for_tile` the array behaves exactly like a freshly
    /// constructed [`SystolicArray::new`] of the same configuration —
    /// property-tested cycle for cycle — with one inspection-level
    /// exception: the stationary weight buffer keeps its previous contents
    /// (still visible through [`SystolicArray::pe`]) until the next
    /// [`SystolicArray::load_weights`] — which must happen before the
    /// array can step again — overwrites it. The tile loop of
    /// [`Simulator`](crate::Simulator) reuses pooled arrays across the
    /// tiles of a GEMM through this method instead of constructing and
    /// dropping one per tile.
    pub fn reset_for_tile(&mut self) {
        // The naive scan clears its stores when it next starts.
        self.purity = StreamPurity::Clean;
        self.weights_loaded = false;
        self.stats = RunStats::default();
    }

    /// Whether row block `rb` (> 0) receives a valid partial sum at `col`
    /// this cycle: the register row block `rb - 1` committed last cycle.
    fn incoming_valid(&self, rb: usize, col: usize) -> bool {
        get_bit(&self.v_valid[(rb - 1) * self.vw..rb * self.vw], col)
    }

    fn is_block_last_row(&self, row: usize) -> bool {
        let k = self.config.collapse_depth as usize;
        row % k == k - 1 || row == self.config.rows as usize - 1
    }

    fn is_block_last_col(&self, col: usize) -> bool {
        let k = self.config.collapse_depth as usize;
        col % k == k - 1 || col == self.config.cols as usize - 1
    }

    /// Preloads one tile of weights (`R x C`) one row per cycle, and loads
    /// the per-PE configuration bits in parallel with the weights, exactly
    /// as the paper describes. Clears the data pipelines so a fresh tile can
    /// be streamed.
    ///
    /// # Errors
    ///
    /// Returns [`SimError::DimensionMismatch`] if the weight matrix does not
    /// match the array dimensions.
    pub fn load_weights(&mut self, weights: &Matrix<i32>) -> Result<(), SimError> {
        self.load_tile_weights(TileOperand::whole(weights))
    }

    /// [`SystolicArray::load_weights`] for a weight block read in place.
    pub(crate) fn load_tile_weights(&mut self, weights: TileOperand<'_>) -> Result<(), SimError> {
        let rows = self.config.rows as usize;
        let cols = self.config.cols as usize;
        if weights.rows() != rows || weights.cols() != cols {
            return Err(SimError::DimensionMismatch {
                reason: format!(
                    "weight tile is {}x{} but the array is {rows}x{cols}",
                    weights.rows(),
                    weights.cols()
                ),
            });
        }
        self.purity = StreamPurity::Clean;
        for row in 0..rows {
            // One row of weights enters the array per cycle; the
            // configuration bits ride along and are implied by the block
            // structure (see `SystolicArray::pe`).
            weights.copy_row(row, 0, &mut self.weights[row * cols..(row + 1) * cols]);
            self.stats.load_cycles += 1;
        }
        self.weight_cols = weights.real_cols();
        self.weights_loaded = true;
        Ok(())
    }

    /// Advances the array by one compute clock cycle, writing the south-edge
    /// outputs into a caller-provided buffer — the allocation-free core of
    /// the simulator.
    ///
    /// `west_inputs` holds the operand entering each PE row from the west
    /// edge this cycle (`None` when that row's stream has not started yet or
    /// has already ended). `south_outputs` must have one slot per array
    /// column; at the end of the cycle every slot holds the value registered
    /// at that column's south edge (`None` while the pipeline is still
    /// filling or draining).
    ///
    /// The cycle runs the naive scan, and the arbitrary operands it stages
    /// keep later [`SystolicArray::run_cycles`] calls on the naive scan
    /// until the pipelines are cleared.
    ///
    /// # Errors
    ///
    /// Returns [`SimError::DimensionMismatch`] if `west_inputs` does not
    /// have one entry per array row or `south_outputs` one slot per array
    /// column, or [`SimError::InvalidConfig`] if no weights have been
    /// loaded.
    pub fn step_into(
        &mut self,
        west_inputs: &[Option<i32>],
        south_outputs: &mut [Option<i64>],
    ) -> Result<(), SimError> {
        let rows = self.config.rows as usize;
        let cols = self.config.cols as usize;
        if west_inputs.len() != rows {
            return Err(SimError::DimensionMismatch {
                reason: format!("expected {rows} west inputs, got {}", west_inputs.len()),
            });
        }
        if south_outputs.len() != cols {
            return Err(SimError::DimensionMismatch {
                reason: format!(
                    "expected {cols} south output slots, got {}",
                    south_outputs.len()
                ),
            });
        }
        if !self.weights_loaded {
            return Err(SimError::InvalidConfig {
                reason: "weights must be loaded before stepping the array".to_owned(),
            });
        }

        self.start_naive();
        let macs = self.cycle_naive(west_inputs, south_outputs);
        self.commit_cycle_stats(macs);
        Ok(())
    }

    /// Books one committed compute cycle into the statistics.
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

    /// One cycle of the **analytic wavefront kernel** for a pure feeder
    /// stream, reading the operand registers from the stream's row streams
    /// and accumulating into its partial-sum store. Returns the MAC count
    /// of the cycle and the column range that registered a result at the
    /// south edge, if any; the results themselves are the store's row
    /// `cycle - (ceil(R/k) - 1)`.
    ///
    /// On a whole feeder stream from an empty pipeline, the active window
    /// of every row block is closed-form: block `rb` is fed
    /// by column block `cb` exactly during cycles `rb + cb ..= rb + cb + T - 1`,
    /// and the feeder's batched skew guarantees the window always covers
    /// the block's rows completely. That lets the cycle iterate **per row
    /// block** over its contiguous active column range: the block's
    /// partial sums are one contiguous slice of store row `cycle - rb`,
    /// and each block row runs one [`lanes::mac`] over it, the row's
    /// contiguous row-major weight lane and its stream window. Only the
    /// rows and columns the operands reach multiply; the statistics and
    /// the produced range cover the whole tile.
    fn cycle_wavefront(&self, streams: &mut Streams, cycle: u64) -> (u64, Option<(u32, u32)>) {
        let rows = self.config.rows as usize;
        let cols = self.config.cols as usize;
        let k = self.config.collapse_depth as usize;
        let row_blocks = self.config.row_blocks() as usize;
        let col_blocks = self.config.col_blocks() as usize;
        let (reached_rows, width) = (streams.west.rows(), streams.cols);

        let t = streams.t as i64;
        let c = i64::try_from(cycle).expect("cycle fits i64");
        let cb_max = col_blocks as i64 - 1;
        let rb_lo = (c - cb_max - (t - 1)).max(0);
        let rb_hi = (row_blocks as i64 - 1).min(c);
        let mut macs = 0u64;
        let mut produced = None;
        for rb in rb_lo as usize..=rb_hi as usize {
            let cb_lo = (c - rb as i64 - (t - 1)).max(0) as usize;
            let cb_hi = ((c - rb as i64).min(cb_max)) as usize;
            if cb_lo > cb_hi {
                continue;
            }
            let col_lo = cb_lo * k;
            let col_hi = (cb_hi * k + k).min(cols) - 1;
            let r0 = rb * k;
            let r1 = ((rb + 1) * k).min(rows);
            macs += ((r1 - r0) * (col_hi - col_lo + 1)) as u64;
            if rb == row_blocks - 1 {
                produced = Some((col_lo as u32, col_hi as u32));
            }
            let col_end = (col_hi + 1).min(width);
            if col_lo >= col_end {
                continue;
            }
            let at = (c as usize - rb) * width;
            let sums = &mut streams.sums[at + col_lo..at + col_end];
            for row in r0..r1.min(reached_rows) {
                lanes::mac(
                    sums,
                    &self.weights[row * cols + col_lo..row * cols + col_end],
                    &streams.west.window(row, cycle)[col_lo..col_end],
                );
            }
        }
        (macs, produced)
    }

    /// Hands the registers to the naive scan's stores: nothing is in
    /// flight unless the naive scan ran last, so they start cleared.
    fn start_naive(&mut self) {
        if self.purity != StreamPurity::Stepped {
            self.h_lanes.clear();
            self.v_regs.fill(0);
            self.v_valid.fill(0);
            self.purity = StreamPurity::Stepped;
        }
    }

    /// One naive-scan cycle: stages the west edge, then evaluates the
    /// carry-save chain of every pipeline block of every column, exactly
    /// like the register-transfer structure. A block with no valid operand
    /// commits exactly "forward the incoming partial sums, clear the
    /// validity": its multipliers see operands driven as zero, so the
    /// carry-save chain leaves the incoming value numerically untouched and
    /// the registered validity equals the (absent) operand validity.
    /// Returns the MAC count of the cycle.
    fn cycle_naive(
        &mut self,
        west_inputs: &[Option<i32>],
        south_outputs: &mut [Option<i64>],
    ) -> u64 {
        let rows = self.config.rows as usize;
        let cols = self.config.cols as usize;
        let k = self.config.collapse_depth as usize;
        let row_blocks = self.config.row_blocks() as usize;
        let col_blocks = self.config.col_blocks() as usize;

        self.h_lanes.stage_options(west_inputs);
        self.v_valid_next.fill(0);
        let mut macs = 0u64;
        for cb in 0..col_blocks {
            let col_first = cb * k;
            let width = (col_first + k).min(cols) - col_first;
            for rb in 0..row_blocks {
                let first_row = rb * k;
                let last_row = ((rb + 1) * k).min(rows) - 1;
                let valid_rows = (first_row..=last_row)
                    .filter(|&row| self.h_lanes.is_valid(row, cb))
                    .count();
                macs += (valid_rows * width) as u64;
                self.eval_block(rb, cb, valid_rows > 0, south_outputs);
            }
        }

        std::mem::swap(&mut self.v_regs, &mut self.v_next);
        std::mem::swap(&mut self.v_valid, &mut self.v_valid_next);
        macs
    }

    /// Evaluates one (row block, column block) pair: per column, the
    /// carry-save chain over the block's rows seeded with the incoming
    /// partial sum, registered at the block's last row (and, for the last
    /// row block, at the south edge). `block_valid` is the precomputed
    /// operand validity of the whole block (validity is per (row, column
    /// block), so all of a block's columns share it).
    // `col` indexes four buffers with different strides (weights, v_regs,
    // v_next, south_outputs); an iterator over any one of them would
    // obscure the other three accesses.
    #[allow(clippy::needless_range_loop)]
    fn eval_block(
        &mut self,
        rb: usize,
        cb: usize,
        block_valid: bool,
        south_outputs: &mut [Option<i64>],
    ) {
        let rows = self.config.rows as usize;
        let cols = self.config.cols as usize;
        let k = self.config.collapse_depth as usize;
        let row_blocks = self.config.row_blocks() as usize;
        let first_row = rb * k;
        let last_row = ((rb + 1) * k).min(rows) - 1;
        let col_first = cb * k;
        let col_last = (col_first + k).min(cols) - 1;
        for col in col_first..=col_last {
            let incoming = if rb == 0 {
                0i64
            } else {
                self.v_regs[(rb - 1) * cols + col]
            };
            // Within one wavefront the validity of the incoming partial
            // sum always matches the validity of this block's operands.
            debug_assert!(
                rb == 0 || self.incoming_valid(rb, col) == block_valid,
                "misaligned wavefront at column {col}, row block {rb}"
            );
            let mut acc = CarrySaveValue::from_binary(incoming);
            for row in first_row..=last_row {
                // The multiplier and carry-save stage operate every cycle;
                // an invalid operand is driven as zero so the partial sum
                // is unaffected.
                acc = acc.add(
                    i64::from(self.weights[row * cols + col])
                        * i64::from(self.h_lanes.operand(row, cb)),
                );
            }
            let resolved = acc.resolve();
            self.v_next[rb * cols + col] = resolved;
            if block_valid {
                set_bit(
                    &mut self.v_valid_next[rb * self.vw..(rb + 1) * self.vw],
                    col,
                );
            }
            if rb == row_blocks - 1 {
                south_outputs[col] = block_valid.then_some(resolved);
            }
        }
    }

    /// Advances the array by `cycles` compute clock cycles
    /// (`first_cycle..first_cycle + cycles` in the feeder's and
    /// collector's schedule), the multi-cycle entry point the tile loop
    /// of [`Simulator`](crate::Simulator) drives.
    ///
    /// Semantically this is exactly `cycles` calls to
    /// [`SystolicArray::step_into`] with
    /// [`InputFeeder::west_inputs`] as the west edge and
    /// [`OutputCollector::collect`] as the south edge (property-tested bit
    /// identical, including [`RunStats`]).
    ///
    /// When the call runs one whole feeder stream — from cycle 0 with
    /// nothing in flight (after construction,
    /// [`SystolicArray::load_weights`], [`SystolicArray::reset_for_tile`]
    /// or another whole stream) through the stream's last
    /// multiply-accumulate, on a collector whose last due cycle is that
    /// one — each cycle runs the analytic wavefront kernel with the
    /// per-cycle overhead hoisted out of the loop:
    ///
    /// * no register moves: the call builds the stream's row streams once,
    ///   straight from the streamed matrix, each cycle reads its operand
    ///   registers as a window of them, and each row block accumulates its
    ///   partial sums in place in the stream's partial-sum store;
    /// * only the rows the streamed matrix reaches and the columns the
    ///   weights reach are stored and multiplied: every other product is
    ///   zero;
    /// * south results are harvested through
    ///   [`OutputCollector::collect_produced`] as one produced column
    ///   range;
    /// * the cycles after the last multiply-accumulate are **dead** — the
    ///   feeder has no more data, no valid operand is in flight and the
    ///   collector expects nothing — and fold into O(1) statistics
    ///   bookkeeping via [`RunStats::record_dead_cycles`] instead of being
    ///   stepped one by one;
    /// * the dimension and weights-loaded checks run once per call, not
    ///   once per cycle.
    ///
    /// Any other call literally loops `step_into` and `collect`.
    ///
    /// # Errors
    ///
    /// Returns [`SimError::DimensionMismatch`] if the feeder or collector
    /// was built for a different geometry, [`SimError::InvalidConfig`] if
    /// no weights have been loaded, and any schedule violation the
    /// collector detects.
    pub fn run_cycles(
        &mut self,
        feeder: &InputFeeder<'_>,
        first_cycle: u64,
        cycles: u64,
        collector: &mut OutputCollector,
    ) -> Result<(), SimError> {
        let rows = self.config.rows as usize;
        let cols = self.config.cols as usize;
        if feeder.config() != self.config {
            return Err(SimError::DimensionMismatch {
                reason: format!(
                    "feeder was built for {} but the array is {}",
                    feeder.config(),
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
        if !self.weights_loaded {
            return Err(SimError::InvalidConfig {
                reason: "weights must be loaded before stepping the array".to_owned(),
            });
        }
        let end = first_cycle.saturating_add(cycles);
        let t = feeder.stream_length();
        // The wavefront kernel runs whole streams only: from cycle 0 with
        // nothing in flight through the last multiply-accumulate, on a
        // collector due to harvest that cycle last. Every other call, one
        // on a collector of another stream length included, steps the
        // naive scan and collects cycle by cycle.
        let stream_end = self.config.compute_cycles(t);
        if first_cycle != 0
            || end < stream_end
            || self.purity == StreamPurity::Stepped
            || collector.last_due_cycle().map(|due| due + 1) != Some(stream_end)
        {
            let mut west = vec![None; rows];
            let mut south = vec![None; cols];
            for cycle in first_cycle..end {
                feeder.west_inputs_into(cycle, &mut west);
                self.step_into(&west, &mut south)?;
                collector.collect(cycle, &south)?;
            }
            return Ok(());
        }

        // Row `n` streams column `n` of `A`: the rows past the columns `A`
        // reaches stream zeros.
        let a = feeder.operand();
        let mut streams = Streams::new(self.config, t, a.real_cols(), self.weight_cols);
        streams.west.fill(|row, operands| a.copy_col(row, operands));
        self.purity = StreamPurity::Drained;
        let fill_latency = u64::from(self.config.row_blocks()) - 1;
        for cycle in 0..stream_end {
            let (macs, produced) = self.cycle_wavefront(&mut streams, cycle);
            self.commit_cycle_stats(macs);
            // The last row block's registers are store row
            // `cycle - fill_latency`, read only when a result is due.
            let south = cycle
                .checked_sub(fill_latency)
                .map_or(&[][..], |s| streams.sums_row(s));
            collector.collect_produced(cycle, produced, south)?;
        }
        // Bulk dead-cycle skip: nothing is in flight or due after the last
        // multiply-accumulate, so every remaining cycle is pure
        // bookkeeping.
        self.record_dead_cycles(end - stream_end);
        Ok(())
    }

    /// Books `cycles` dead compute cycles (no active block anywhere) into
    /// the statistics, exactly as stepping them one by one would.
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

    /// Advances the array by one compute clock cycle, returning the
    /// south-edge outputs in a freshly allocated vector.
    ///
    /// This is a thin compatibility wrapper around
    /// [`SystolicArray::step_into`]; hot loops should call `step_into` with
    /// a reused buffer instead.
    ///
    /// # Errors
    ///
    /// Same as [`SystolicArray::step_into`].
    pub fn step(&mut self, west_inputs: &[Option<i32>]) -> Result<Vec<Option<i64>>, SimError> {
        let mut south = vec![None; self.config.cols as usize];
        self.step_into(west_inputs, &mut south)?;
        Ok(south)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn weights_2x2() -> Matrix<i32> {
        Matrix::from_rows(vec![vec![1, 2], vec![3, 4]]).unwrap()
    }

    #[test]
    fn configuration_bits_follow_the_block_structure() {
        let config = ArrayConfig::new(4, 4).with_collapse_depth(2);
        let mut array = SystolicArray::new(config).unwrap();
        array.load_weights(&Matrix::<i32>::zeros(4, 4)).unwrap();
        // Rows 0 and 2 are inside a block (transparent), rows 1 and 3 end one.
        assert!(array.pe(0, 0).unwrap().vertical_transparent());
        assert!(!array.pe(1, 0).unwrap().vertical_transparent());
        assert!(array.pe(2, 0).unwrap().vertical_transparent());
        assert!(!array.pe(3, 0).unwrap().vertical_transparent());
        // Same structure horizontally.
        assert!(array.pe(0, 0).unwrap().horizontal_transparent());
        assert!(!array.pe(0, 1).unwrap().horizontal_transparent());
    }

    #[test]
    fn configuration_bits_are_opaque_before_weights_are_loaded() {
        let config = ArrayConfig::new(4, 4).with_collapse_depth(4);
        let array = SystolicArray::new(config).unwrap();
        // The bits are loaded in parallel with the weights, so a fresh
        // array reports the opaque (normal) configuration everywhere.
        assert!(!array.pe(0, 0).unwrap().horizontal_transparent());
        assert!(!array.pe(0, 0).unwrap().vertical_transparent());
    }

    #[test]
    fn normal_mode_single_row_takes_r_plus_c_minus_1_cycles_to_emerge() {
        // 2x2 array, k = 1: the result of column 1 for the first (and only)
        // row of A appears after (R-1) + (C-1) + 1 = 3 cycles.
        let config = ArrayConfig::new(2, 2);
        let mut array = SystolicArray::new(config).unwrap();
        array.load_weights(&weights_2x2()).unwrap();
        // A = [[5, 6]]; row 0 of the SA gets 5 at cycle 0, row 1 gets 6 at
        // cycle 1 (skew of one cycle in normal mode).
        let out0 = array.step(&[Some(5), None]).unwrap();
        assert_eq!(out0, vec![None, None]);
        let out1 = array.step(&[None, Some(6)]).unwrap();
        // Column 0 result: 5*1 + 6*3 = 23, registered at the end of cycle 1.
        assert_eq!(out1, vec![Some(23), None]);
        let out2 = array.step(&[None, None]).unwrap();
        // Column 1 result: 5*2 + 6*4 = 34, one cycle later.
        assert_eq!(out2, vec![None, Some(34)]);
    }

    #[test]
    fn shallow_mode_produces_the_result_in_a_single_cycle() {
        let config = ArrayConfig::new(2, 2).with_collapse_depth(2);
        let mut array = SystolicArray::new(config).unwrap();
        array.load_weights(&weights_2x2()).unwrap();
        let out = array.step(&[Some(5), Some(6)]).unwrap();
        assert_eq!(out, vec![Some(23), Some(34)]);
    }

    #[test]
    fn step_into_writes_the_caller_buffer_without_allocating_outputs() {
        let config = ArrayConfig::new(2, 2).with_collapse_depth(2);
        let mut array = SystolicArray::new(config).unwrap();
        array.load_weights(&weights_2x2()).unwrap();
        let mut south = [Some(-1), Some(-1)];
        array.step_into(&[Some(5), Some(6)], &mut south).unwrap();
        assert_eq!(south, [Some(23), Some(34)]);
        // Every slot is rewritten each cycle, including back to None.
        array.step_into(&[None, None], &mut south).unwrap();
        assert_eq!(south, [None, None]);
    }

    #[test]
    fn load_weights_requires_matching_dimensions() {
        let mut array = SystolicArray::new(ArrayConfig::new(2, 2)).unwrap();
        assert!(array.load_weights(&Matrix::<i32>::zeros(3, 2)).is_err());
        assert!(array.load_weights(&Matrix::<i32>::zeros(2, 2)).is_ok());
    }

    #[test]
    fn stepping_before_loading_weights_is_an_error() {
        let mut array = SystolicArray::new(ArrayConfig::new(2, 2)).unwrap();
        assert!(array.step(&[Some(1), Some(2)]).is_err());
    }

    #[test]
    fn step_rejects_wrong_buffer_sizes() {
        let mut array = SystolicArray::new(ArrayConfig::new(2, 2)).unwrap();
        array.load_weights(&weights_2x2()).unwrap();
        assert!(array.step(&[Some(1)]).is_err());
        let mut too_small = [None; 1];
        assert!(array.step_into(&[Some(1), None], &mut too_small).is_err());
    }

    #[test]
    fn register_activity_reflects_clock_gating() {
        // 4x4 array: in normal mode every register is clocked; with k = 4
        // only one in four is.
        let mut normal = SystolicArray::new(ArrayConfig::new(4, 4)).unwrap();
        normal.load_weights(&Matrix::<i32>::zeros(4, 4)).unwrap();
        normal.step(&[None; 4]).unwrap();
        assert_eq!(normal.stats().gated_register_events, 0);
        assert_eq!(normal.stats().clocked_register_events, 32);

        let mut shallow =
            SystolicArray::new(ArrayConfig::new(4, 4).with_collapse_depth(4)).unwrap();
        shallow.load_weights(&Matrix::<i32>::zeros(4, 4)).unwrap();
        shallow.step(&[None; 4]).unwrap();
        assert_eq!(shallow.stats().clocked_register_events, 8);
        assert_eq!(shallow.stats().gated_register_events, 24);
        assert!((shallow.stats().clock_gating_fraction() - 0.75).abs() < 1e-12);
    }

    #[test]
    fn reset_clears_state_and_stats() {
        let mut array = SystolicArray::new(ArrayConfig::new(2, 2)).unwrap();
        array.load_weights(&weights_2x2()).unwrap();
        // Properly skewed single-row stream for k = 1.
        array.step(&[Some(1), None]).unwrap();
        array.step(&[None, Some(2)]).unwrap();
        assert!(array.stats().total_cycles() > 0);
        array.reset();
        assert_eq!(array.stats(), RunStats::default());
        assert_eq!(array.pe(0, 0).unwrap().weight(), 0);
        assert!(array.step(&[None, None]).is_err());
    }

    #[test]
    fn reset_for_tile_behaves_like_a_fresh_array() {
        use gemm::rng::SplitMix64;

        let config = ArrayConfig::new(4, 4).with_collapse_depth(2);
        let mut rng = SplitMix64::new(55);
        let weights = Matrix::random(4, 4, &mut rng, -20, 20);
        let mut reused = SystolicArray::new(config).unwrap();
        // Dirty the pipelines and the statistics with half a tile ...
        let dirty = Matrix::random(6, 4, &mut rng, -20, 20);
        let feeder = InputFeeder::new(&dirty, config).unwrap();
        reused.load_weights(&weights).unwrap();
        for cycle in 0..4 {
            reused.step(&feeder.west_inputs(cycle)).unwrap();
        }
        // ... then reset for a new tile and compare against a fresh array.
        reused.reset_for_tile();
        assert_eq!(reused.stats(), RunStats::default());
        assert!(reused.step(&[None; 4]).is_err(), "weights must be reloaded");
        let mut fresh = SystolicArray::new(config).unwrap();
        reused.load_weights(&weights).unwrap();
        fresh.load_weights(&weights).unwrap();
        let a = Matrix::random(5, 4, &mut rng, -20, 20);
        let feeder = InputFeeder::new(&a, config).unwrap();
        for cycle in 0..config.compute_cycles(5) + 3 {
            let west = feeder.west_inputs(cycle);
            assert_eq!(
                reused.step(&west).unwrap(),
                fresh.step(&west).unwrap(),
                "cycle {cycle}"
            );
        }
        assert_eq!(reused.stats(), fresh.stats());
    }

    #[test]
    fn run_cycles_matches_the_per_cycle_loop() {
        use gemm::rng::SplitMix64;

        for (rows, cols, k, t) in [(8u32, 8u32, 2u32, 5usize), (6, 6, 3, 4), (4, 8, 1, 3)] {
            let config = ArrayConfig::new(rows, cols).with_collapse_depth(k);
            let mut rng = SplitMix64::new(u64::from(rows) * 31 + u64::from(k));
            let weights = Matrix::random(rows as usize, cols as usize, &mut rng, -30, 30);
            let a = Matrix::random(t, rows as usize, &mut rng, -30, 30);
            let feeder = InputFeeder::new(&a, config).unwrap();
            let cycles = config.compute_cycles(t as u64);

            let mut bulk = SystolicArray::new(config).unwrap();
            bulk.load_weights(&weights).unwrap();
            let mut bulk_collector = OutputCollector::new(config, t);
            bulk.run_cycles(&feeder, 0, cycles, &mut bulk_collector)
                .unwrap();

            let mut stepped = SystolicArray::new(config).unwrap();
            stepped.load_weights(&weights).unwrap();
            let mut collector = OutputCollector::new(config, t);
            let mut south = vec![None; cols as usize];
            for cycle in 0..cycles {
                let west = feeder.west_inputs(cycle);
                stepped.step_into(&west, &mut south).unwrap();
                collector.collect(cycle, &south).unwrap();
            }

            assert_eq!(bulk.stats(), stepped.stats(), "{rows}x{cols} k={k}");
            assert_eq!(
                bulk_collector.into_output().unwrap(),
                collector.into_output().unwrap(),
                "{rows}x{cols} k={k}"
            );
        }
    }

    #[test]
    fn a_padded_tile_continues_in_step_into_after_run_cycles() {
        // A 9x5 by 5x3 product on an 8x8 array at k = 2: the tile's blocks
        // reach five rows and three columns into the array, so a whole
        // stream's streams hold neither the last three rows nor the last
        // five columns. After a `run_cycles` prefix in fill, steady state
        // or drain, or the whole stream, `step_into` must go on from
        // exactly the registers the naive scan holds on the `padded_block`
        // copies, padding included.
        use gemm::multiply;
        use gemm::rng::SplitMix64;

        let config = ArrayConfig::new(8, 8).with_collapse_depth(2);
        let mut rng = SplitMix64::new(26);
        let a = Matrix::random(9, 5, &mut rng, -60, 60);
        let b = Matrix::random(5, 3, &mut rng, -60, 60);
        let (a_pad, b_pad) = (a.padded_block(0, 0, 9, 8), b.padded_block(0, 0, 8, 8));
        let feeder = InputFeeder::from_operand(TileOperand::block(&a, 0, 0, 9, 8), config).unwrap();
        let padded_feeder = InputFeeder::new(&a_pad, config).unwrap();
        let cycles = config.compute_cycles(9);
        for prefix in [2, 7, 12, cycles] {
            // Dirty every naive-scan register first, so that one the naive
            // scan does not clear when it starts shows.
            let mut array = SystolicArray::new(config).unwrap();
            let dirty = Matrix::random(6, 8, &mut rng, -60, 60);
            array
                .load_weights(&Matrix::random(8, 8, &mut rng, -60, 60))
                .unwrap();
            let dirty_feeder = InputFeeder::new(&dirty, config).unwrap();
            for cycle in 0..5 {
                array.step(&dirty_feeder.west_inputs(cycle)).unwrap();
            }
            array.reset_for_tile();
            array
                .load_tile_weights(TileOperand::block(&b, 0, 0, 8, 8))
                .unwrap();
            let mut collector = OutputCollector::clipped(config, 9, 3);
            array
                .run_cycles(&feeder, 0, prefix, &mut collector)
                .unwrap();

            let mut reference = SystolicArray::new(config).unwrap();
            reference.load_weights(&b_pad).unwrap();
            let mut south = vec![None; 8];
            for cycle in 0..prefix {
                reference
                    .step_into(&padded_feeder.west_inputs(cycle), &mut south)
                    .unwrap();
            }
            assert_eq!(array.stats(), reference.stats(), "prefix {prefix}");

            let mut expected = vec![None; 8];
            for cycle in prefix..cycles + 2 {
                let west = feeder.west_inputs(cycle);
                assert_eq!(west, padded_feeder.west_inputs(cycle));
                array.step_into(&west, &mut south).unwrap();
                reference.step_into(&west, &mut expected).unwrap();
                assert_eq!(south, expected, "prefix {prefix}, cycle {cycle}");
                collector.collect(cycle, &south).unwrap();
            }
            assert_eq!(array.stats(), reference.stats(), "prefix {prefix}");
            assert_eq!(
                collector.into_output().unwrap(),
                multiply(&a, &b).unwrap(),
                "prefix {prefix}"
            );
        }
    }

    #[test]
    fn run_cycles_folds_trailing_dead_cycles() {
        use gemm::rng::SplitMix64;

        let config = ArrayConfig::new(4, 4).with_collapse_depth(2);
        let mut rng = SplitMix64::new(7);
        let weights = Matrix::random(4, 4, &mut rng, -9, 9);
        let a = Matrix::random(2, 4, &mut rng, -9, 9);
        let feeder = InputFeeder::new(&a, config).unwrap();
        let cycles = config.compute_cycles(2);
        // Run far past the drain: the extra cycles are dead and must be
        // folded into the statistics exactly as stepping them would.
        let extra = 1000u64;

        let mut bulk = SystolicArray::new(config).unwrap();
        bulk.load_weights(&weights).unwrap();
        let mut collector = OutputCollector::new(config, 2);
        bulk.run_cycles(&feeder, 0, cycles + extra, &mut collector)
            .unwrap();

        let mut stepped = SystolicArray::new(config).unwrap();
        stepped.load_weights(&weights).unwrap();
        let mut south = vec![None; 4];
        for cycle in 0..cycles + extra {
            let west = feeder.west_inputs(cycle);
            stepped.step_into(&west, &mut south).unwrap();
        }
        assert_eq!(bulk.stats(), stepped.stats());
        assert!(collector.is_complete());
    }

    #[test]
    fn run_cycles_rejects_mismatched_schedules() {
        let config = ArrayConfig::new(4, 4);
        let other = ArrayConfig::new(4, 4).with_collapse_depth(2);
        let a = Matrix::<i32>::zeros(2, 4);
        let mut array = SystolicArray::new(config).unwrap();
        array.load_weights(&Matrix::<i32>::zeros(4, 4)).unwrap();
        let feeder = InputFeeder::new(&a, other).unwrap();
        let mut collector = OutputCollector::new(config, 2);
        assert!(array.run_cycles(&feeder, 0, 1, &mut collector).is_err());
        let feeder = InputFeeder::new(&a, config).unwrap();
        let mut collector = OutputCollector::new(other, 2);
        assert!(array.run_cycles(&feeder, 0, 1, &mut collector).is_err());
        // Weights gate.
        let mut fresh = SystolicArray::new(config).unwrap();
        let mut collector = OutputCollector::new(config, 2);
        assert!(fresh.run_cycles(&feeder, 0, 1, &mut collector).is_err());
    }

    #[test]
    fn run_cycles_detects_schedule_gaps_between_producing_segments() {
        // 1x3 array, k = 1: feed the edge at cycle 0 and skip cycle 1, so
        // at cycle 2 columns 0 and 2 produce but column 1 does not. The
        // produced hull (0, 2) then equals the due range of an unbroken
        // schedule — run_cycles, continuing after manual steps, must still
        // flag the missing column 1, exactly like the per-cycle collect
        // reference does.
        let config = ArrayConfig::new(1, 3);
        let weights = Matrix::from_rows(vec![vec![1, 2, 3]]).unwrap();
        let a = Matrix::from_rows(vec![vec![5], vec![6], vec![7]]).unwrap();
        let feeder = InputFeeder::new(&a, config).unwrap();

        let run = |bulk_tail: bool| {
            let mut array = SystolicArray::new(config).unwrap();
            array.load_weights(&weights).unwrap();
            let mut south = vec![None; 3];
            array.step_into(&[Some(5)], &mut south).unwrap();
            array.step_into(&[None], &mut south).unwrap();
            let mut collector = OutputCollector::new(config, 3);
            if bulk_tail {
                array.run_cycles(&feeder, 2, 1, &mut collector)
            } else {
                array.step_into(&feeder.west_inputs(2), &mut south).unwrap();
                collector.collect(2, &south)
            }
        };
        let bulk = run(true).unwrap_err();
        let stepped = run(false).unwrap_err();
        assert!(bulk.to_string().contains("column 1"), "{bulk}");
        assert!(stepped.to_string().contains("column 1"), "{stepped}");
    }

    #[test]
    fn pe_lookup_is_bounds_checked() {
        let array = SystolicArray::new(ArrayConfig::new(2, 3)).unwrap();
        assert!(array.pe(1, 2).is_some());
        assert!(array.pe(2, 0).is_none());
        assert!(array.pe(0, 3).is_none());
    }
}
