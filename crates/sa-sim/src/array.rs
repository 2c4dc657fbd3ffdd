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
//! (row block, column). The horizontal pipeline is a pure shift register,
//! so no operand moves once staged: it is stored per row in k-expanded,
//! mirrored lanes (`soa::RowLanes`, shared with the output-stationary `A`
//! pipeline), so the operands one PE row sees in a cycle are one
//! contiguous slice indexed by array column, and column block `cb` reads
//! the stage from `cb` cycles ago. Partial sums live in a flat
//! row-block-major buffer with packed `u64` validity bitsets (one
//! word-aligned segment per row block), and the stationary weights in both
//! a column-major buffer (walked by the naive per-column carry-save chain)
//! and a row-major buffer (walked by the panel kernels).
//!
//! # Wavefront frontier tracking
//!
//! On top of the lanes the fast path maintains an incremental
//! **frontier**: one `LaneSummary` per stage slot (the contiguous range of
//! valid operand rows that edge stage carried) and a conservative
//! `[lo, hi]` **band** of column blocks that may hold any valid operand at
//! all, updated in O(1) per cycle (the band advances one block east with
//! the data and re-anchors at the west edge whenever the edge receives
//! data). A cycle then
//!
//! * iterates **only the band's segments** (everything outside the band
//!   is provably invalid — no per-cycle validity scan),
//! * evaluates only the row blocks each summary says are active, as
//!   branch-free **panels** over the block's columns (contiguous row-major
//!   weights, flat `i64` partial-sum lanes, one
//!   [`gemm::lanes::mac_scaled`] per block row), seeding each panel
//!   directly from the previous row block's registers instead of
//!   bulk-forwarding the whole vertical register file, and
//! * falls back to the stage's validity bits for any segment whose valid
//!   rows are not contiguous — west streams with mid-stream holes.
//!
//! A [`SystolicArray::step_into`] cycle performs **no heap allocation**.
//! [`SystolicArray::run_cycles`] is the macro-cycle entry point: it
//! stages, evaluates and harvests whole cycle ranges against the
//! feeder's and collector's deterministic schedules (switching to an
//! analytic rb-major wavefront kernel when the stream is provably pure)
//! and folds trailing cycles in which no block is active into O(1)
//! statistics bookkeeping.

use crate::carry_save::CarrySaveValue;
use crate::config::ArrayConfig;
use crate::dataflow::{InputFeeder, OutputCollector};
use crate::error::SimError;
use crate::pe::ProcessingElement;
use crate::soa::{
    get_bit, set_bit, set_range, words_for, LaneSummary, RowLanes, StreamPurity, WORD_BITS,
};
use crate::stats::RunStats;
use gemm::{lanes, Matrix};

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
    /// Stationary weights, column-major (`col * rows + row`) so the
    /// vertical carry-save chain of one column reads contiguous memory.
    weights: Vec<i32>,
    /// Stationary weights again, row-major (`row * cols + col`), so the
    /// panel kernel reads one contiguous lane of weights per block row.
    weights_rm: Vec<i32>,
    /// Horizontal (operand) pipeline registers, one per (row, column
    /// block), with their validity: the staged west edge of cycle `c` is
    /// written once and segment `cb` *reads* the stage from `cb` cycles
    /// ago, so no operand moves. Invalid operands are always stored as
    /// zero — which is what keeps skipped and panel-evaluated carry-save
    /// chains exact.
    h_lanes: RowLanes,
    /// Per-stage frontier summaries, indexed like the stage slots of
    /// `h_lanes` (`h_lanes.cursor.slot(cb)` for segment `cb`).
    summaries: Vec<LaneSummary>,
    /// Conservative `[lo, hi]` hull (inclusive, in column blocks) of the
    /// segments that may hold any valid operand; `None` when the whole
    /// horizontal pipeline is drained. Every segment outside the band is
    /// all-zero and all-invalid — the invariant the narrowed shifts rely
    /// on.
    band: Option<(u32, u32)>,
    /// Vertical (partial-sum) pipeline registers, one per (row block,
    /// column), row-block-major (`rb * cols + col`).
    v_regs: Vec<i64>,
    /// Double buffer for the vertical registers (scratch, swapped every
    /// cycle so a cycle reads the previous block's *old* value). In the
    /// fast path only the slots of active blocks are rewritten; stale
    /// slots belong to invalid blocks and are never observable.
    v_next: Vec<i64>,
    /// Validity of `v_regs`: one word-aligned segment of `vw` words per
    /// row block, bit `col` within segment `rb`.
    v_valid: Vec<u64>,
    /// Double buffer for `v_valid`.
    v_valid_next: Vec<u64>,
    /// Reusable `(row block, valid rows)` gather list of the sparse
    /// fallback: the blocks of one column block the wavefront currently
    /// touches.
    block_scratch: Vec<(u32, u32)>,
    /// Reusable west staging buffer of [`SystolicArray::run_cycles`]'
    /// naive fallback (kept on the array so pooled arrays reuse it across
    /// tiles and requests).
    west_scratch: Vec<Option<i32>>,
    /// Reusable south staging buffer of [`SystolicArray::run_cycles`].
    south_scratch: Vec<Option<i64>>,
    /// Columns registered at the south edge by the current fast-path
    /// cycle, as an inclusive hull (`produced_any` gates it); reset every
    /// cycle. `produced_sparse` marks that a sparse-fallback segment
    /// produced, in which case the hull is not exact and the harvest
    /// consults the validity bitset instead.
    produced_lo: u32,
    produced_hi: u32,
    produced_any: bool,
    produced_sparse: bool,
    /// Whether the data currently in flight is provably a pure, gap-free
    /// feeder stream from a clean pipeline — the precondition for the
    /// analytic wavefront kernel of [`SystolicArray::run_cycles`], whose
    /// active-window math assumes the deterministic schedule was followed
    /// from cycle 0.
    purity: StreamPurity,
    /// Words per vertical validity segment: `ceil(cols / 64)`.
    vw: usize,
    weights_loaded: bool,
    fast_path: bool,
    stats: RunStats,
}

impl SystolicArray {
    /// Creates an array with all weights zero and empty pipelines.
    ///
    /// # Errors
    ///
    /// Returns [`SimError::InvalidConfig`] if the configuration is invalid.
    pub fn new(config: ArrayConfig) -> Result<Self, SimError> {
        config.validate()?;
        let rows = config.rows as usize;
        let cols = config.cols as usize;
        let row_blocks = config.row_blocks() as usize;
        let col_blocks = config.col_blocks() as usize;
        let vw = words_for(cols);
        Ok(Self {
            config,
            weights: vec![0; rows * cols],
            weights_rm: vec![0; rows * cols],
            h_lanes: RowLanes::new(rows, cols, config.collapse_depth as usize),
            summaries: vec![LaneSummary::default(); col_blocks],
            band: None,
            v_regs: vec![0; row_blocks * cols],
            v_next: vec![0; row_blocks * cols],
            v_valid: vec![0; row_blocks * vw],
            v_valid_next: vec![0; row_blocks * vw],
            block_scratch: Vec::with_capacity(row_blocks),
            west_scratch: Vec::new(),
            south_scratch: Vec::new(),
            produced_lo: 0,
            produced_hi: 0,
            produced_any: false,
            produced_sparse: false,
            purity: StreamPurity::Clean,
            vw,
            weights_loaded: false,
            fast_path: true,
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
        let rows = self.config.rows as usize;
        let mut pe = ProcessingElement::new();
        pe.load_weight(self.weights[col as usize * rows + row as usize]);
        if self.weights_loaded {
            pe.configure(
                !self.is_block_last_col(col as usize),
                !self.is_block_last_row(row as usize),
            );
        }
        Some(pe)
    }

    /// Returns whether the frontier-banded fast path is enabled (the
    /// default).
    #[must_use]
    pub fn fast_path(&self) -> bool {
        self.fast_path
    }

    /// Enables or disables the frontier-banded fast path of
    /// [`SystolicArray::step_into`].
    ///
    /// With the fast path enabled (the default), a cycle shifts only the
    /// column-block band the wavefront currently occupies and evaluates
    /// only the row blocks the frontier summaries mark active, as
    /// branch-free column panels. Because invalid operands are always
    /// driven as zero and a carry-save chain followed by its resolution is
    /// numerically a plain wrapping sum, outputs, register values and
    /// [`RunStats`] are bit-identical either way; the tests cross-check
    /// this against the naive full-array scan. Disabling the fast path is
    /// useful only for that cross-check and for measuring the fast path's
    /// speedup.
    pub fn set_fast_path(&mut self, enabled: bool) {
        self.fast_path = enabled;
    }

    /// Clears the pipelines, the weights and the statistics.
    pub fn reset(&mut self) {
        self.reset_for_tile();
        self.weights.fill(0);
        self.weights_rm.fill(0);
    }

    /// Prepares the array for a fresh tile **without reallocating**: clears
    /// the data pipelines and the statistics and marks the weights as
    /// unloaded (the next [`SystolicArray::load_weights`] overwrites them).
    ///
    /// After `reset_for_tile` the array behaves exactly like a freshly
    /// constructed [`SystolicArray::new`] of the same configuration —
    /// property-tested cycle for cycle — with two inspection-level
    /// exceptions: the fast-path flag (a host-side measurement knob, not
    /// array state) is preserved, and the stationary weight buffer keeps
    /// its previous contents (still visible through
    /// [`SystolicArray::pe`]) until the next
    /// [`SystolicArray::load_weights`] — which must happen before the
    /// array can step again — overwrites it. The tile loops of
    /// [`Simulator`](crate::Simulator) reuse one array across all tiles
    /// of a GEMM through this method instead of constructing and dropping
    /// one per tile.
    pub fn reset_for_tile(&mut self) {
        self.clear_pipelines();
        self.weights_loaded = false;
        self.stats = RunStats::default();
    }

    fn clear_pipelines(&mut self) {
        self.h_lanes.clear();
        self.summaries.fill(LaneSummary::default());
        self.band = None;
        self.v_regs.fill(0);
        self.v_valid.fill(0);
        self.purity = StreamPurity::Clean;
    }

    /// The frontier summary of the stage segment `cb` sees this cycle.
    fn summary(&self, cb: usize) -> LaneSummary {
        self.summaries[self.h_lanes.cursor.slot(cb)]
    }

    /// Whether `row` of segment `cb` holds a valid operand this cycle.
    fn operand_valid(&self, row: usize, cb: usize) -> bool {
        self.h_lanes.is_valid(row, cb)
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
        self.clear_pipelines();
        for row in 0..rows {
            // One row of weights enters the array per cycle; the
            // configuration bits ride along and are implied by the block
            // structure (see `SystolicArray::pe`).
            let source = weights.row(row);
            self.weights_rm[row * cols..(row + 1) * cols].copy_from_slice(source);
            for (col, &w) in source.iter().enumerate() {
                self.weights[col * rows + row] = w;
            }
            self.stats.load_cycles += 1;
        }
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

        self.purity = StreamPurity::Poisoned;
        let macs = if self.fast_path {
            let macs = self.cycle_fast(EdgeSource::West(west_inputs));
            self.harvest_south(south_outputs);
            macs
        } else {
            self.cycle_naive(west_inputs, south_outputs)
        };
        self.commit_cycle_stats(macs);
        Ok(())
    }

    /// Materializes the committed south-edge outputs of the last fast-path
    /// cycle into `Option` form: the validity bits of the last row block
    /// say which columns registered a result, the register file holds the
    /// values.
    fn harvest_south(&self, south_outputs: &mut [Option<i64>]) {
        let cols = self.config.cols as usize;
        let last_rb = self.config.row_blocks() as usize - 1;
        south_outputs.fill(None);
        let seg = &self.v_valid[last_rb * self.vw..(last_rb + 1) * self.vw];
        let values = &self.v_regs[last_rb * cols..last_rb * cols + cols];
        for (word_index, &bits) in seg.iter().enumerate() {
            let mut word = bits;
            while word != 0 {
                let col = word_index * WORD_BITS + word.trailing_zeros() as usize;
                word &= word - 1;
                south_outputs[col] = Some(values[col]);
            }
        }
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

    /// Advances the band hull after the horizontal shift: every segment
    /// moves one column block east (falling off the east edge), and the
    /// band re-anchors at the west edge when the edge received data.
    fn update_band(&mut self, edge_nonempty: bool) {
        let cb_max = self.config.col_blocks() - 1;
        let shifted = match self.band {
            Some((lo, hi)) if lo < cb_max => Some((lo + 1, (hi + 1).min(cb_max))),
            _ => None,
        };
        self.band = if edge_nonempty {
            Some((0, shifted.map_or(0, |(_, hi)| hi)))
        } else {
            shifted
        };
    }

    /// One fast-path cycle: narrowed band shift, edge staging, frontier
    /// update and panel evaluation of the active blocks. Returns the MAC
    /// count of the cycle; the south-edge results stay in the register
    /// file (the caller harvests them via [`SystolicArray::harvest_south`]
    /// or the collector's dense `collect_produced` path).
    fn cycle_fast(&mut self, edge: EdgeSource<'_>) -> u64 {
        // 1 + 2. Advance the horizontal pipeline and stage the west edge:
        //    the pipeline is a pure shift register, so "every segment
        //    moves one column block east" is implemented as moving the
        //    lanes' stage head and writing the new edge stage (values,
        //    validity and summary) into the freed slot, invalid rows
        //    driven as zero. No register data moves at all.
        let summary = self.stage_edge(edge);
        self.update_band(summary.count > 0);

        // 3. Vertical reduction over the active blocks only. Each panel is
        //    seeded directly from the previous row block's register (or
        //    zero at the north edge), so no bulk forward of the vertical
        //    register file is needed: the slots of inactive blocks keep
        //    stale values, but their validity is clear and the wavefront
        //    schedule guarantees no active block ever reads them.
        self.v_valid_next.fill(0);
        self.produced_any = false;
        self.produced_sparse = false;
        let mut macs = 0u64;
        if let Some((lo, hi)) = self.band {
            for cb in lo as usize..=hi as usize {
                let s = self.summary(cb);
                if s.count == 0 {
                    continue;
                }
                macs += if s.dense {
                    self.eval_segment_panels(cb, s.first as usize, s.last as usize)
                } else {
                    self.eval_segment_sparse(cb)
                };
            }
        }

        // 4. Commit the clock edge.
        std::mem::swap(&mut self.v_regs, &mut self.v_next);
        std::mem::swap(&mut self.v_valid, &mut self.v_valid_next);
        macs
    }

    /// Stages the west edge of one cycle into the horizontal pipeline:
    /// values (invalid rows driven as zero), validity and the frontier
    /// summary. Returns the staged summary.
    fn stage_edge(&mut self, edge: EdgeSource<'_>) -> LaneSummary {
        let (summary, staged) = match edge {
            EdgeSource::West(west_inputs) => (
                LaneSummary::of_options(west_inputs),
                self.h_lanes.stage_options(west_inputs),
            ),
            EdgeSource::Feeder(feeder, cycle) => {
                let active = feeder.active_rows(cycle);
                let staged = self.h_lanes.stage_feeder(active.is_none(), |values| {
                    feeder.stage_values_into(cycle, values)
                });
                let summary = active.map_or_else(LaneSummary::default, |(first, last)| {
                    LaneSummary::dense_range(first, last)
                });
                (summary, staged)
            }
        };
        // An idle edge entering a drained pipeline writes nothing: every
        // slot already holds an empty stage and an empty summary.
        if staged {
            self.summaries[self.h_lanes.cursor.head] = summary;
        }
        summary
    }

    /// One cycle of the **analytic wavefront kernel**: the rb-major twin
    /// of [`SystolicArray::cycle_fast`] for pure feeder streams.
    ///
    /// When every operand in flight followed one deterministic feeder
    /// schedule from a clean pipeline (tracked by [`StreamPurity`]), the
    /// active window of every row block is closed-form: block `rb` is fed
    /// by segment `cb` exactly during cycles `rb + cb ..= rb + cb + T - 1`,
    /// and the feeder's batched skew guarantees the window always covers
    /// the block's rows completely. That lets the cycle iterate **per row
    /// block** over its contiguous active column range — one contiguous
    /// `i64` partial-sum lane in `v_next` seeded from the previous row
    /// block's lane, then one [`lanes::mac`] per block row over it, the
    /// row's contiguous row-major weight lane and its operand lane, and one
    /// validity range-set per row block — instead of per column block with
    /// per-block bookkeeping. The edge staging and frontier metadata stay
    /// exactly as in the generic kernel.
    ///
    /// Returns the MAC count of the cycle.
    fn cycle_dense_wavefront(&mut self, feeder: &InputFeeder<'_>, cycle: u64) -> u64 {
        let rows = self.config.rows as usize;
        let cols = self.config.cols as usize;
        let k = self.config.collapse_depth as usize;
        let row_blocks = self.config.row_blocks() as usize;
        let col_blocks = self.config.col_blocks() as usize;

        let summary = self.stage_edge(EdgeSource::Feeder(feeder, cycle));
        self.update_band(summary.count > 0);
        self.v_valid_next.fill(0);
        self.produced_any = false;
        self.produced_sparse = false;

        let t = feeder.stream_length() as i64;
        let c = i64::try_from(cycle).expect("cycle fits i64");
        let cb_max = col_blocks as i64 - 1;
        let rb_lo = (c - cb_max - (t - 1)).max(0);
        let rb_hi = (row_blocks as i64 - 1).min(c);
        let mut macs = 0u64;
        if t == 0 || rb_lo > rb_hi {
            std::mem::swap(&mut self.v_regs, &mut self.v_next);
            std::mem::swap(&mut self.v_valid, &mut self.v_valid_next);
            return 0;
        }
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
            // Within one wavefront the validity of the incoming partial
            // sum always matches the validity of this block's operands.
            debug_assert!(
                rb == 0 || (col_lo..=col_hi).all(|col| self.incoming_valid(rb, col)),
                "misaligned wavefront at row block {rb}"
            );
            let panel = &mut self.v_next[rb * cols + col_lo..=rb * cols + col_hi];
            if rb == 0 {
                panel.fill(0);
            } else {
                let src = (rb - 1) * cols;
                panel.copy_from_slice(&self.v_regs[src + col_lo..=src + col_hi]);
            }
            for row in r0..r1 {
                debug_assert!(
                    (cb_lo..=cb_hi).all(|cb| self.h_lanes.is_valid(row, cb)),
                    "misaligned operand wavefront at cycle {cycle}, row {row}"
                );
                lanes::mac(
                    panel,
                    &self.weights_rm[row * cols + col_lo..=row * cols + col_hi],
                    &self.h_lanes.operands(row, cols)[col_lo..=col_hi],
                );
            }
            set_range(
                &mut self.v_valid_next[rb * self.vw..(rb + 1) * self.vw],
                col_lo,
                col_hi,
            );
            if rb == row_blocks - 1 {
                self.note_produced(col_lo as u32, col_hi as u32);
            }
        }
        std::mem::swap(&mut self.v_regs, &mut self.v_next);
        std::mem::swap(&mut self.v_valid, &mut self.v_valid_next);
        macs
    }

    /// Notes that the current cycle registered results for the columns
    /// `col_first..=col_last` at the south edge. Segments report in
    /// ascending column order; a gap between two reports means the hull
    /// is not the exact produced set (possible only for hole-bearing
    /// streams fed through `step_into`), so the cycle must harvest
    /// through the per-column path instead of the hull comparison.
    fn note_produced(&mut self, col_first: u32, col_last: u32) {
        if self.produced_any {
            if col_first > self.produced_hi + 1 {
                self.produced_sparse = true;
            }
            self.produced_lo = self.produced_lo.min(col_first);
            self.produced_hi = self.produced_hi.max(col_last);
        } else {
            self.produced_any = true;
            self.produced_lo = col_first;
            self.produced_hi = col_last;
        }
    }

    /// One naive-scan cycle: full-array shifts and a carry-save evaluation
    /// of every pipeline block of every column, exactly like the
    /// register-transfer structure. Kept as the cross-check reference for
    /// the fast path. The frontier metadata is maintained here too, so the
    /// fast path can be toggled between tiles without losing track of the
    /// wavefront.
    fn cycle_naive(&mut self, west_inputs: &[Option<i32>], south_outputs: &mut [Option<i64>]) -> u64 {
        let rows = self.config.rows as usize;
        let cols = self.config.cols as usize;
        let k = self.config.collapse_depth as usize;
        let row_blocks = self.config.row_blocks() as usize;
        let col_blocks = self.config.col_blocks() as usize;

        // 1. Advance the horizontal pipeline (see `cycle_fast`): the
        //    operand visible to (row, column block cb) this cycle is the
        //    edge stage from `cb` cycles ago, and that staged operand is
        //    exactly what the block's register latches at the end of the
        //    cycle. The frontier metadata is maintained here too, so the
        //    fast path can be toggled between tiles without losing track
        //    of the wavefront.
        let summary = self.stage_edge(EdgeSource::West(west_inputs));
        self.update_band(summary.count > 0);

        // 2. Vertical reduction: every column chains the products of each
        //    row block in carry-save form and registers the resolved sum at
        //    the block's last row. A block with no valid operand commits
        //    exactly "forward the incoming partial sums, clear the
        //    validity": its multipliers see operands driven as zero, so the
        //    carry-save chain leaves the incoming value numerically
        //    untouched and the registered validity equals the (absent)
        //    operand validity.
        self.v_valid_next.fill(0);
        self.v_next[..cols].fill(0);
        if row_blocks > 1 {
            self.v_next[cols..row_blocks * cols]
                .copy_from_slice(&self.v_regs[..(row_blocks - 1) * cols]);
        }
        south_outputs.fill(None);
        let mut macs = 0u64;
        for cb in 0..col_blocks {
            let col_first = cb * k;
            let width = (col_first + k).min(cols) - col_first;
            for rb in 0..row_blocks {
                let first_row = rb * k;
                let last_row = ((rb + 1) * k).min(rows) - 1;
                let valid_rows = (first_row..=last_row)
                    .filter(|&row| self.operand_valid(row, cb))
                    .count();
                macs += (valid_rows * width) as u64;
                self.eval_block(rb, cb, valid_rows > 0, Some(south_outputs));
            }
        }

        std::mem::swap(&mut self.v_regs, &mut self.v_next);
        std::mem::swap(&mut self.v_valid, &mut self.v_valid_next);
        macs
    }

    /// Panel-evaluates every active row block of one dense segment: per
    /// row block, the block's columns form one contiguous panel of `i64`
    /// partial-sum lanes in `v_next`, seeded from the previous row block's
    /// registers and accumulated row by row over contiguous row-major
    /// weights with one [`lanes::mac_scaled`] per block row. The lane
    /// kernel is branch-free (invalid rows inside the block multiply
    /// operands stored as zero). A carry-save chain resolved at the block's
    /// last row is numerically a wrapping sum of its inputs, so the panel
    /// result is bit-identical to [`SystolicArray::eval_block`].
    ///
    /// Returns the MAC count contributed by the segment.
    fn eval_segment_panels(&mut self, cb: usize, first_row: usize, last_row: usize) -> u64 {
        let rows = self.config.rows as usize;
        let cols = self.config.cols as usize;
        let k = self.config.collapse_depth as usize;
        let row_blocks = self.config.row_blocks() as usize;
        let col_first = cb * k;
        let col_last = (col_first + k).min(cols) - 1;
        let width = col_last - col_first + 1;
        let rb_first = first_row / k;
        let rb_last = last_row / k;
        let mut macs = 0u64;

        // Within one wavefront the validity of the incoming partial sum
        // always matches the validity of this block's operands.
        debug_assert!(
            (rb_first.max(1)..=rb_last)
                .all(|rb| (col_first..=col_last).all(|col| self.incoming_valid(rb, col))),
            "misaligned wavefront at column block {cb}"
        );

        if width == 1 {
            // Single-column panel (k = 1, or the array's last partial
            // column block): scalar accumulation over the contiguous
            // column-major weight lane, no subslice bookkeeping.
            let col = col_first;
            let w_col = &self.weights[col * rows..col * rows + rows];
            let word = col / WORD_BITS;
            let bit = 1u64 << (col % WORD_BITS);
            for rb in rb_first..=rb_last {
                let r0 = rb * k;
                let r1 = ((rb + 1) * k).min(rows);
                macs += (last_row.min(r1 - 1) - first_row.max(r0) + 1) as u64;
                let mut acc = if rb == 0 {
                    0i64
                } else {
                    self.v_regs[(rb - 1) * cols + col]
                };
                for (row, &w) in (r0..r1).zip(&w_col[r0..r1]) {
                    let op = self.h_lanes.operand(row, cb);
                    acc = acc.wrapping_add(i64::from(w) * i64::from(op));
                }
                self.v_next[rb * cols + col] = acc;
                self.v_valid_next[rb * self.vw + word] |= bit;
            }
        } else {
            for rb in rb_first..=rb_last {
                let r0 = rb * k;
                let r1 = ((rb + 1) * k).min(rows);
                // Every valid operand of this (row, column-block) feeds
                // one MAC per column of the block.
                macs += (last_row.min(r1 - 1) - first_row.max(r0) + 1) as u64 * width as u64;
                let panel = &mut self.v_next[rb * cols + col_first..=rb * cols + col_last];
                if rb == 0 {
                    panel.fill(0);
                } else {
                    let src = (rb - 1) * cols;
                    panel.copy_from_slice(&self.v_regs[src + col_first..=src + col_last]);
                }
                for row in r0..r1 {
                    lanes::mac_scaled(
                        panel,
                        &self.weights_rm[row * cols + col_first..=row * cols + col_last],
                        self.h_lanes.operand(row, cb),
                    );
                }
                set_range(
                    &mut self.v_valid_next[rb * self.vw..(rb + 1) * self.vw],
                    col_first,
                    col_last,
                );
            }
        }
        if rb_last == row_blocks - 1 {
            self.note_produced(col_first as u32, col_last as u32);
        }
        macs
    }

    /// Fallback for a segment whose valid rows are not contiguous (a west
    /// stream with mid-stream holes): gathers the active row blocks from
    /// the segment's validity bits and evaluates each through the scalar
    /// carry-save chain.
    ///
    /// Returns the MAC count contributed by the segment.
    fn eval_segment_sparse(&mut self, cb: usize) -> u64 {
        let rows = self.config.rows as usize;
        let cols = self.config.cols as usize;
        let k = self.config.collapse_depth as usize;
        let row_blocks = self.config.row_blocks() as usize;
        let col_first = cb * k;
        let width = (col_first + k).min(cols) - col_first;
        let mut active = std::mem::take(&mut self.block_scratch);
        active.clear();
        for row in (0..rows).filter(|&row| self.operand_valid(row, cb)) {
            let rb = (row / k) as u32;
            // Rows arrive in ascending order, so one comparison against
            // the last entry groups them per block.
            match active.last_mut() {
                Some((last_rb, count)) if *last_rb == rb => *count += 1,
                _ => active.push((rb, 1)),
            }
        }
        let mut macs = 0u64;
        for &(rb, valid_rows) in &active {
            macs += u64::from(valid_rows) * width as u64;
            self.eval_block(rb as usize, cb, true, None);
            if rb as usize == row_blocks - 1 {
                self.produced_sparse = true;
                self.note_produced(col_first as u32, (col_first + width) as u32 - 1);
            }
        }
        self.block_scratch = active;
        macs
    }

    /// Evaluates one (row block, column block) pair: per column, the
    /// carry-save chain over the block's rows seeded with the incoming
    /// partial sum, registered at the block's last row. `block_valid` is
    /// the precomputed operand validity of the whole block (validity is
    /// per (row, column block), so all of a block's columns share it).
    // `col` indexes four buffers with different strides (weights, v_regs,
    // v_next, south_outputs); an iterator over any one of them would
    // obscure the other three accesses.
    #[allow(clippy::needless_range_loop)]
    fn eval_block(
        &mut self,
        rb: usize,
        cb: usize,
        block_valid: bool,
        mut south_outputs: Option<&mut [Option<i64>]>,
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
            let weights = &self.weights[col * rows..col * rows + rows];
            let mut acc = CarrySaveValue::from_binary(incoming);
            for row in first_row..=last_row {
                // The multiplier and carry-save stage operate every cycle;
                // an invalid operand is driven as zero so the partial sum
                // is unaffected.
                acc = acc.add(i64::from(weights[row]) * i64::from(self.h_lanes.operand(row, cb)));
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
                if let Some(south) = south_outputs.as_deref_mut() {
                    south[col] = block_valid.then_some(resolved);
                }
            }
        }
    }

    /// Advances the array by `cycles` compute clock cycles
    /// (`first_cycle..first_cycle + cycles` in the feeder's and
    /// collector's schedule), the multi-cycle entry point the tile loops
    /// of [`Simulator`](crate::Simulator) drive.
    ///
    /// Semantically this is exactly `cycles` calls to
    /// [`SystolicArray::step_into`] with
    /// [`InputFeeder::west_inputs`] as the west edge and
    /// [`OutputCollector::collect`] as the south edge (property-tested bit
    /// identical, including [`RunStats`]), but the per-cycle overhead is
    /// hoisted out of the loop:
    ///
    /// * west operands are staged straight from the streamed matrix into
    ///   the edge segment — no `Option<i32>` staging buffer — and the edge
    ///   frontier summary comes from the feeder's deterministic schedule
    ///   in O(1);
    /// * trailing **dead cycles** — the feeder has no more data, the band
    ///   is empty and the collector expects nothing — are folded into O(1)
    ///   statistics bookkeeping via [`RunStats::record_dead_cycles`]
    ///   instead of being stepped one by one;
    /// * the dimension and weights-loaded checks run once per call, not
    ///   once per cycle.
    ///
    /// With the fast path disabled the call falls back to literally
    /// looping `step_into`, so naive-scan cross-checks go through the same
    /// entry point.
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

        if !self.fast_path {
            // Reference fallback: the literal per-cycle loop, through the
            // array-owned staging buffers.
            let mut west = std::mem::take(&mut self.west_scratch);
            let mut south = std::mem::take(&mut self.south_scratch);
            west.clear();
            west.resize(rows, None);
            south.clear();
            south.resize(cols, None);
            let mut result = Ok(());
            for cycle in first_cycle..end {
                feeder.west_inputs_into(cycle, &mut west);
                result = self
                    .step_into(&west, &mut south)
                    .and_then(|()| collector.collect(cycle, &south));
                if result.is_err() {
                    break;
                }
            }
            self.west_scratch = west;
            self.south_scratch = south;
            return result;
        }

        let last_rb_base = (self.config.row_blocks() as usize - 1) * cols;
        let idle_from = feeder.idle_from();
        let last_due = collector.last_due_cycle();
        // The analytic wavefront kernel applies when the in-flight data is
        // provably this feeder's uninterrupted schedule from cycle 0;
        // otherwise each cycle runs the generic frontier kernel.
        let analytic = self
            .purity
            .admit(feeder.stream_length(), first_cycle, end);
        let mut cycle = first_cycle;
        while cycle < end {
            // Bulk dead-cycle skip: the west edge stays idle from here on,
            // nothing is in flight and nothing is due — every remaining
            // cycle is pure bookkeeping.
            if self.band.is_none()
                && cycle >= idle_from
                && last_due.map_or(true, |due| cycle > due)
            {
                // A drained pipeline holds an empty stage in every slot,
                // so skipping the stage writes leaves nothing stale.
                self.record_dead_cycles(end - cycle);
                break;
            }
            let macs = if analytic {
                self.cycle_dense_wavefront(feeder, cycle)
            } else {
                self.cycle_fast(EdgeSource::Feeder(feeder, cycle))
            };
            self.commit_cycle_stats(macs);
            if self.produced_sparse {
                // A sparse-fallback segment produced: the hull is not
                // exact, so harvest through the validity bitset and the
                // per-column schedule check.
                let mut south = std::mem::take(&mut self.south_scratch);
                south.clear();
                south.resize(cols, None);
                self.harvest_south(&mut south);
                let result = collector.collect(cycle, &south);
                self.south_scratch = south;
                if let Err(e) = result {
                    self.purity = StreamPurity::Poisoned;
                    return Err(e);
                }
            } else {
                let produced = self
                    .produced_any
                    .then_some((self.produced_lo, self.produced_hi));
                let result = collector.collect_produced(
                    cycle,
                    produced,
                    &self.v_regs[last_rb_base..last_rb_base + cols],
                );
                if let Err(e) = result {
                    self.purity = StreamPurity::Poisoned;
                    return Err(e);
                }
            }
            cycle += 1;
        }
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

    /// The active (row block, column block) pairs according to the
    /// incremental frontier (band hull + per-segment summaries), sorted by
    /// (column block, row block). Exposed for the frontier-vs-bitset
    /// equivalence tests; not part of the stable API.
    #[doc(hidden)]
    #[must_use]
    pub fn frontier_active_blocks(&self) -> Vec<(u32, u32)> {
        let k = self.config.collapse_depth;
        let mut blocks = Vec::new();
        let Some((lo, hi)) = self.band else {
            return blocks;
        };
        for cb in lo..=hi {
            let s = self.summary(cb as usize);
            if s.count == 0 {
                continue;
            }
            if s.dense {
                for rb in s.first / k..=s.last / k {
                    blocks.push((rb, cb));
                }
            } else {
                self.push_valid_blocks(cb, &mut blocks);
            }
        }
        blocks
    }

    /// Appends `(row block, cb)` for every row block holding a valid
    /// operand in segment `cb`, read from the segment's validity bits.
    fn push_valid_blocks(&self, cb: u32, blocks: &mut Vec<(u32, u32)>) {
        let k = self.config.collapse_depth;
        let mut last_rb = u32::MAX;
        for row in 0..self.config.rows {
            if self.operand_valid(row as usize, cb as usize) && row / k != last_rb {
                last_rb = row / k;
                blocks.push((last_rb, cb));
            }
        }
    }

    /// The active (row block, column block) pairs according to a full scan
    /// of the operand-validity bits, sorted by (column block, row block)
    /// — the reference for [`SystolicArray::frontier_active_blocks`].
    /// Exposed for the equivalence tests; not part of the stable API.
    #[doc(hidden)]
    #[must_use]
    pub fn scan_active_blocks(&self) -> Vec<(u32, u32)> {
        let mut blocks = Vec::new();
        for cb in 0..self.config.col_blocks() {
            self.push_valid_blocks(cb, &mut blocks);
        }
        blocks
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

/// Where a fast-path cycle's west-edge operands come from.
enum EdgeSource<'a> {
    /// A caller-provided per-row operand slice ([`SystolicArray::step_into`]).
    West(&'a [Option<i32>]),
    /// The deterministic feeder schedule at a given cycle
    /// ([`SystolicArray::run_cycles`]).
    Feeder(&'a InputFeeder<'a>, u64),
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
    fn fast_path_matches_naive_scan_cycle_by_cycle() {
        use gemm::rng::SplitMix64;

        for k in [1u32, 2, 4] {
            let config = ArrayConfig::new(8, 8).with_collapse_depth(k);
            let mut rng = SplitMix64::new(u64::from(k) + 100);
            let weights = Matrix::random(8, 8, &mut rng, -30, 30);
            let a = Matrix::random(5, 8, &mut rng, -30, 30);

            let mut fast = SystolicArray::new(config).unwrap();
            let mut naive = SystolicArray::new(config).unwrap();
            naive.set_fast_path(false);
            assert!(fast.fast_path());
            assert!(!naive.fast_path());
            fast.load_weights(&weights).unwrap();
            naive.load_weights(&weights).unwrap();

            let feeder = InputFeeder::new(&a, config).unwrap();
            // Step well past the drain so the fast path covers fill, steady
            // state and fully-drained cycles.
            for cycle in 0..config.compute_cycles(5) + 4 {
                let west = feeder.west_inputs(cycle);
                let f = fast.step(&west).unwrap();
                let n = naive.step(&west).unwrap();
                assert_eq!(f, n, "k = {k}, cycle = {cycle}");
                assert_eq!(
                    fast.frontier_active_blocks(),
                    fast.scan_active_blocks(),
                    "k = {k}, cycle = {cycle}"
                );
            }
            assert_eq!(fast.stats(), naive.stats(), "k = {k}");
        }
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
            bulk.run_cycles(&feeder, 0, cycles, &mut bulk_collector).unwrap();

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
        bulk.run_cycles(&feeder, 0, cycles + extra, &mut collector).unwrap();

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
        // at cycle 2 segments 0 and 2 produce but segment 1 does not. The
        // produced hull (0, 2) then equals the due range of an unbroken
        // schedule — run_cycles must still flag the missing column 1,
        // exactly like the per-cycle collect reference does.
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
    fn sparse_streams_fall_back_to_the_bitset_scan() {
        // A west stream with a mid-stream hole: rows 0 and 2 valid, row 1
        // not — the edge summary is sparse and must still evaluate
        // correctly (validated against the naive scan).
        let config = ArrayConfig::new(4, 4).with_collapse_depth(4);
        let weights = Matrix::from_fn(4, 4, |r, c| (r * 4 + c) as i32);
        let mut fast = SystolicArray::new(config).unwrap();
        let mut naive = SystolicArray::new(config).unwrap();
        naive.set_fast_path(false);
        fast.load_weights(&weights).unwrap();
        naive.load_weights(&weights).unwrap();
        let west = [Some(3), None, Some(-5), None];
        let f = fast.step(&west).unwrap();
        let n = naive.step(&west).unwrap();
        assert_eq!(f, n);
        assert_eq!(fast.frontier_active_blocks(), fast.scan_active_blocks());
        assert_eq!(fast.stats(), naive.stats());
    }

    #[test]
    fn pe_lookup_is_bounds_checked() {
        let array = SystolicArray::new(ArrayConfig::new(2, 3)).unwrap();
        assert!(array.pe(1, 2).is_some());
        assert!(array.pe(2, 0).is_none());
        assert!(array.pe(0, 3).is_none());
    }

}
