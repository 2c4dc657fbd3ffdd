//! Structure-of-arrays primitives of the array backends.
//!
//! Both array cores keep their pipeline state as flat register buffers.
//! Shared here:
//!
//! * [`TileOperand`], a tile operand read in place from its matrix at the
//!   tile's origin, with zeros past the matrix's edges, so no tile copies
//!   its operands before it runs, and which knows how far into the tile
//!   its matrix reaches;
//! * [`RowStreams`], the west-edge operand streams of a tile both arrays'
//!   analytic wavefront kernels run: the whole skewed stream of every row
//!   the operands reach, built once when the stream starts, so the operand
//!   registers one PE row holds in a cycle are one contiguous window
//!   indexed by array column;
//! * [`RowLanes`], the same west-to-east operand pipeline (one register per
//!   (row, column block)) as the naive scan stages it cycle by cycle, and
//!   the [`StageCursor`] ring position it (and the output-stationary `B`
//!   pipeline) advances;
//! * [`StreamPurity`], what the pipelines hold: both arrays run their
//!   analytic wavefront kernel only on a whole stream with nothing in
//!   flight;
//! * the packed `u64` bitset helpers of the weight-stationary naive scan's
//!   partial-sum validity, which carry the word-boundary invariants its
//!   differential tests exercise (geometries above 64 lanes).

use crate::config::ArrayConfig;
use gemm::Matrix;

const WORD_BITS: usize = 64;

/// Number of `u64` words needed for `bits` bitset bits.
pub(crate) const fn words_for(bits: usize) -> usize {
    bits.div_ceil(WORD_BITS)
}

pub(crate) fn get_bit(words: &[u64], index: usize) -> bool {
    words[index / WORD_BITS] & (1u64 << (index % WORD_BITS)) != 0
}

pub(crate) fn set_bit(words: &mut [u64], index: usize) {
    words[index / WORD_BITS] |= 1u64 << (index % WORD_BITS);
}

/// Ring position and drain state of one operand pipeline whose stages are
/// stored in `slots` ring slots.
#[derive(Debug, Clone, Copy)]
pub(crate) struct StageCursor {
    /// Slot of the newest stage; the stage from `age` cycles ago sits at
    /// slot `(head + age) mod slots`.
    pub(crate) head: usize,
    pub(crate) slots: usize,
    /// Empty stages staged since the last non-empty one, saturating at
    /// `slots`: at `slots` no valid operand is in flight.
    empty_run: usize,
}

impl StageCursor {
    pub(crate) fn new(slots: usize) -> Self {
        Self {
            head: 0,
            slots,
            empty_run: slots,
        }
    }

    pub(crate) fn is_drained(&self) -> bool {
        self.empty_run == self.slots
    }

    /// Moves the head to the slot the next stage overwrites. Returns
    /// `false` when an empty stage enters a drained pipeline: every slot
    /// already holds an empty stage, so there is nothing to write.
    pub(crate) fn advance(&mut self, empty: bool) -> bool {
        if empty {
            if self.is_drained() {
                return false;
            }
            self.empty_run += 1;
        } else {
            self.empty_run = 0;
        }
        self.head = if self.head == 0 {
            self.slots - 1
        } else {
            self.head - 1
        };
        true
    }

    pub(crate) fn slot(&self, age: usize) -> usize {
        let slot = self.head + age;
        if slot >= self.slots {
            slot - self.slots
        } else {
            slot
        }
    }
}

/// Writes one edge of a batched-skew schedule in `Option` form: lane `l`
/// (an array row or column) carries element `n = cycle - floor(l / k)` of
/// its `len`-long stream, read as `element(l, n)`, and `None` while its
/// stream has not started or after it ended.
pub(crate) fn skewed_edge_into(
    cycle: u64,
    len: u64,
    k: usize,
    edge: &mut [Option<i32>],
    element: impl Fn(usize, usize) -> i32,
) {
    for (lane, slot) in edge.iter_mut().enumerate() {
        *slot = match cycle.checked_sub((lane / k) as u64) {
            Some(n) if n < len => Some(element(lane, n as usize)),
            _ => None,
        };
    }
}

/// One tile operand read in place: the `rows x cols` block of `matrix`
/// whose top-left element is (`row0`, `col0`), with zeros past the
/// matrix's edges — the block `Matrix::padded_block` would copy out.
#[derive(Debug, Clone, Copy)]
pub(crate) struct TileOperand<'a> {
    matrix: &'a Matrix<i32>,
    row0: usize,
    col0: usize,
    rows: usize,
    cols: usize,
}

impl<'a> TileOperand<'a> {
    /// The block of `matrix` at (`row0`, `col0`).
    pub(crate) fn block(
        matrix: &'a Matrix<i32>,
        row0: usize,
        col0: usize,
        rows: usize,
        cols: usize,
    ) -> Self {
        Self {
            matrix,
            row0,
            col0,
            rows,
            cols,
        }
    }

    /// The whole of `matrix`: the origin-zero block of its own shape.
    pub(crate) fn whole(matrix: &'a Matrix<i32>) -> Self {
        Self::block(matrix, 0, 0, matrix.rows(), matrix.cols())
    }

    pub(crate) fn rows(&self) -> usize {
        self.rows
    }

    pub(crate) fn cols(&self) -> usize {
        self.cols
    }

    /// The block's rows inside the matrix: every row past them is zero.
    pub(crate) fn real_rows(&self) -> usize {
        self.matrix.rows().saturating_sub(self.row0).min(self.rows)
    }

    /// The block's columns inside the matrix: every column past them is
    /// zero.
    pub(crate) fn real_cols(&self) -> usize {
        self.matrix.cols().saturating_sub(self.col0).min(self.cols)
    }

    /// Element (`row`, `col`) of the block.
    pub(crate) fn get(&self, row: usize, col: usize) -> i32 {
        self.matrix
            .get(self.row0 + row, self.col0 + col)
            .unwrap_or(0)
    }

    /// Copies elements `(0..dst.len(), col)` of the block into `dst`,
    /// zero past the matrix.
    pub(crate) fn copy_col(&self, col: usize, dst: &mut [i32]) {
        let (row, col) = (self.row0, self.col0 + col);
        let (rows, cols) = (self.matrix.rows(), self.matrix.cols());
        let inside = if col < cols {
            rows.saturating_sub(row).min(dst.len())
        } else {
            0
        };
        if inside > 0 {
            let column = self.matrix.as_slice()[row * cols + col..]
                .iter()
                .step_by(cols);
            for (slot, &value) in dst[..inside].iter_mut().zip(column) {
                *slot = value;
            }
        }
        dst[inside..].fill(0);
    }

    /// Copies elements `(row, col..col + dst.len())` of the block into
    /// `dst`: the part inside the matrix as one slice, the rest as zeros.
    pub(crate) fn copy_row(&self, row: usize, col: usize, dst: &mut [i32]) {
        let (row, col) = (self.row0 + row, self.col0 + col);
        let inside = if row < self.matrix.rows() {
            self.matrix.cols().saturating_sub(col).min(dst.len())
        } else {
            0
        };
        if inside > 0 {
            dst[..inside].copy_from_slice(&self.matrix.row(row)[col..col + inside]);
        }
        dst[inside..].fill(0);
    }
}

/// The west-edge operand streams of one tile the analytic wavefront
/// kernels run, built when the stream starts at cycle 0.
///
/// Row `n` of an `R x C` array in collapse mode `k` receives operand `t` of
/// its stream at cycle `t + floor(n/k)` (the batched skew), and its columns
/// see that edge for `ceil(C/k)` cycles, column `j` the edge from
/// `floor(j/k)` cycles ago. The row's lane stores its edges reversed in
/// time and k-expanded: the edge of cycle `c` fills positions
/// `(c_max - c) * k .. (c_max - c + 1) * k`, where `c_max` is the last
/// cycle with a multiply-accumulate, and every position the stream does
/// not reach holds zero. The operand registers of the row's columns
/// `0..C` at cycle `c` are then exactly the window starting at
/// `(c_max - c) * k` — the registers themselves, stored where no operand
/// ever moves.
///
/// Only the part of the tile the operands reach is stored: the first
/// `rows` array rows, with windows `cols` columns wide. Every operand
/// register past them holds zero padding, so the kernels skip those PEs.
#[derive(Debug, Clone)]
pub(crate) struct RowStreams {
    /// Per stored row, `stride` operands.
    values: Vec<i32>,
    /// Positions per row lane: `c_max * k + max(cols, k)`.
    stride: usize,
    /// The stream length (`T` or `N`).
    len: u64,
    /// The last cycle with a multiply-accumulate,
    /// `len + ceil(R/k) + ceil(C/k) - 3`.
    c_max: u64,
    k: usize,
    /// The rows stored and the width of their windows.
    rows: usize,
    cols: usize,
}

impl RowStreams {
    /// All-zero streams of a `len`-long schedule on `config`'s array,
    /// holding its first `rows` rows with windows `cols` columns wide;
    /// [`RowStreams::fill`] writes the operands.
    pub(crate) fn new(config: ArrayConfig, len: u64, rows: usize, cols: usize) -> Self {
        let k = config.collapse_depth as usize;
        let c_max = (len + u64::from(config.row_blocks()) + u64::from(config.col_blocks()))
            .saturating_sub(3);
        // The edge of cycle 0 needs all `k` of its copies, even when the
        // windows are narrower.
        let stride = c_max as usize * k + cols.max(k);
        Self {
            values: vec![0; rows * stride],
            stride,
            len,
            c_max,
            k,
            rows,
            cols,
        }
    }

    /// The rows stored.
    pub(crate) fn rows(&self) -> usize {
        self.rows
    }

    /// Writes the operands, where `stream(row, operands)` writes the `len`
    /// operands of stored row `row` in stream order.
    pub(crate) fn fill(&mut self, stream: impl Fn(usize, &mut [i32])) {
        let (k, c_max) = (self.k, self.c_max as usize);
        let mut operands = vec![0; self.len as usize];
        for (row, lane) in self.values.chunks_exact_mut(self.stride).enumerate() {
            stream(row, &mut operands);
            // Operand `t` enters at cycle `t + row / k`, so the stream
            // fills the lane backwards from position `(c_max - row/k) * k`.
            let end = (c_max + 1).saturating_sub(row / k) * k;
            let lane = &mut lane[end.saturating_sub(operands.len() * k)..end];
            for (copies, &operand) in lane.chunks_exact_mut(k).rev().zip(&operands) {
                copies.fill(operand);
            }
        }
    }

    /// The last cycle with a multiply-accumulate.
    pub(crate) fn last_mac_cycle(&self) -> u64 {
        self.c_max
    }

    /// The operand registers of the stored columns of stored row `row` at
    /// `cycle` (`cycle <= c_max`).
    pub(crate) fn window(&self, row: usize, cycle: u64) -> &[i32] {
        let at = row * self.stride + (self.c_max - cycle) as usize * self.k;
        &self.values[at..at + self.cols]
    }
}

/// The west-to-east operand pipeline of an `R x C` array in collapse mode
/// `k` as the naive scan stages it: one register per (row, column block),
/// `ceil(C/k)` stages in flight.
///
/// The pipeline is a pure shift register, so no operand moves once staged.
/// Each row owns a lane of `2 * ceil(C/k)` stage slots of `k` operands: the
/// stage entering the west edge is written *k-expanded* (once per column of
/// a block) and *mirrored* (at slot `s` and `s + ceil(C/k)`). With the
/// newest stage at slot `head`, the stage from `cb` cycles ago sits at slot
/// `head + cb`, so the `C` operands starting at `head * k` are exactly what
/// columns `0..C` of the row see: column `j` reads the stage from
/// `floor(j/k)` cycles ago. Validity is one bitset per stage slot (bit
/// `row`, `ceil(R/64)` words), neither mirrored nor k-expanded, so staging
/// it costs a few word writes. Invalid operands are stored as zero.
#[derive(Debug, Clone)]
pub(crate) struct RowLanes {
    /// Operands: per row, `2 * slots` stages of `k` copies each.
    values: Vec<i32>,
    /// Validity: per stage slot, `words` words, bit `row`.
    valid: Vec<u64>,
    words: usize,
    cursor: StageCursor,
    k: usize,
}

impl RowLanes {
    pub(crate) fn new(rows: usize, cols: usize, k: usize) -> Self {
        let slots = cols.div_ceil(k);
        let words = words_for(rows);
        Self {
            values: vec![0; rows * 2 * slots * k],
            valid: vec![0; slots * words],
            words,
            cursor: StageCursor::new(slots),
            k,
        }
    }

    pub(crate) fn clear(&mut self) {
        self.values.fill(0);
        self.valid.fill(0);
        self.cursor = StageCursor::new(self.cursor.slots);
    }

    /// Stages one edge given in `Option` form (`None` = no operand): its
    /// operands go into the head slot and its mirror, copy by copy so every
    /// write is a single store, and its validity into the head slot's
    /// bitset. An idle edge entering a drained pipeline writes nothing.
    pub(crate) fn stage_options(&mut self, inputs: &[Option<i32>]) {
        if !self.cursor.advance(inputs.iter().all(Option::is_none)) {
            return;
        }
        let (k, slots, head) = (self.k, self.cursor.slots, self.cursor.head);
        for copy in head * k..(head + 1) * k {
            for (lane, input) in self.values.chunks_exact_mut(2 * slots * k).zip(inputs) {
                lane[copy] = input.unwrap_or(0);
                lane[copy + slots * k] = lane[copy];
            }
        }
        let valid = &mut self.valid[head * self.words..(head + 1) * self.words];
        valid.fill(0);
        for (row, input) in inputs.iter().enumerate() {
            if input.is_some() {
                set_bit(valid, row);
            }
        }
    }

    /// The operands columns `0..cols` of `row` see this cycle.
    pub(crate) fn operands(&self, row: usize, cols: usize) -> &[i32] {
        let (k, slots) = (self.k, self.cursor.slots);
        let at = row * 2 * slots * k + self.cursor.head * k;
        &self.values[at..at + cols]
    }

    /// The single operand column block `cb` of `row` sees this cycle: the
    /// stage from `cb` cycles ago.
    pub(crate) fn operand(&self, row: usize, cb: usize) -> i32 {
        let (k, slots) = (self.k, self.cursor.slots);
        self.values[row * 2 * slots * k + (self.cursor.head + cb) * k]
    }

    /// Whether the operand column block `cb` of `row` sees this cycle is
    /// valid.
    pub(crate) fn is_valid(&self, row: usize, cb: usize) -> bool {
        let slot = self.cursor.slot(cb);
        get_bit(&self.valid[slot * self.words..(slot + 1) * self.words], row)
    }
}

/// What the pipelines hold since they were last cleared. The analytic
/// wavefront kernels run only whole streams, from cycle 0 with nothing in
/// flight, and the naive scan starts from cleared stores unless it ran
/// last.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub(crate) enum StreamPurity {
    /// Nothing ran since the pipelines were cleared.
    Clean,
    /// Only whole streams ran, on the wavefront kernel: no valid operand
    /// and no non-zero partial sum a later cycle reads is in flight.
    Drained,
    /// The naive scan ran: its stores hold the registers.
    Stepped,
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn row_lanes_show_each_column_the_stage_of_its_block_age() {
        // 2 rows, 5 columns, k = 2: three column blocks, the last one
        // partial. Stage s carries 10 * s + row.
        let mut lanes = RowLanes::new(2, 5, 2);
        for s in 1..=3 {
            lanes.stage_options(&[Some(10 * s), Some(10 * s + 1)]);
        }
        // Columns 0-1 see the newest stage, 2-3 the one before, 4 the
        // oldest.
        assert_eq!(lanes.operands(0, 5), &[30, 30, 20, 20, 10]);
        assert_eq!(lanes.operands(1, 5), &[31, 31, 21, 21, 11]);
        assert_eq!(
            (0..3).map(|cb| lanes.operand(1, cb)).collect::<Vec<_>>(),
            [31, 21, 11]
        );
        assert!((0..3).all(|cb| lanes.is_valid(0, cb)));
        // A stage with row 0 idle: zero and invalid there, valid on row 1.
        lanes.stage_options(&[None, Some(7)]);
        assert_eq!(lanes.operands(0, 5), &[0, 0, 30, 30, 20]);
        assert_eq!(
            (0..3).map(|cb| lanes.is_valid(0, cb)).collect::<Vec<_>>(),
            [false, true, true]
        );
        assert!((0..3).all(|cb| lanes.is_valid(1, cb)));
        // Three idle stages drain the pipeline; a fourth writes nothing.
        for _ in 0..3 {
            lanes.stage_options(&[None, None]);
        }
        assert!(lanes.cursor.is_drained());
        let head = lanes.cursor.head;
        lanes.stage_options(&[None, None]);
        assert_eq!(lanes.cursor.head, head);
        assert_eq!(lanes.operands(1, 5), &[0; 5]);
        assert!((0..3).all(|cb| !lanes.is_valid(1, cb)));
    }

    #[test]
    fn row_streams_hold_the_registers_the_staged_lanes_hold() {
        // Every cycle of a stream up to its last multiply-accumulate, the
        // window of each row equals the operands the row lanes show after
        // staging the same edges one by one.
        for (rows, cols, k, len) in [(5u32, 7u32, 2u32, 4u64), (3, 3, 1, 1), (6, 4, 3, 9)] {
            let config = ArrayConfig::new(rows, cols).with_collapse_depth(k);
            let (rows, cols, k) = (rows as usize, cols as usize, k as usize);
            let operand = |row: usize, t: usize| (100 * row + t + 1) as i32;
            let mut streams = RowStreams::new(config, len, rows, cols);
            streams.fill(|row, operands| {
                for (t, slot) in operands.iter_mut().enumerate() {
                    *slot = operand(row, t);
                }
            });
            let mut staged = RowLanes::new(rows, cols, k);
            let mut edge = vec![None; rows];
            for cycle in 0..=streams.last_mac_cycle() {
                skewed_edge_into(cycle, len, k, &mut edge, operand);
                staged.stage_options(&edge);
                for row in 0..rows {
                    assert_eq!(
                        streams.window(row, cycle),
                        staged.operands(row, cols),
                        "{config} cycle {cycle} row {row}"
                    );
                }
            }
        }
    }

    #[test]
    fn tile_operands_read_in_place_with_zero_padding() {
        let matrix = Matrix::from_fn(3, 4, |r, c| (10 * r + c) as i32);
        let block = TileOperand::block(&matrix, 1, 2, 3, 4);
        let expected = matrix.padded_block(1, 2, 3, 4);
        for row in 0..3 {
            for col in 0..4 {
                assert_eq!(block.get(row, col), expected[(row, col)]);
            }
            let mut dst = [-1; 3];
            block.copy_row(row, 1, &mut dst);
            assert_eq!(dst, expected.row(row)[1..4]);
        }
        for col in 0..4 {
            let mut dst = [-1; 3];
            block.copy_col(col, &mut dst);
            assert_eq!(dst, [0, 1, 2].map(|row| expected[(row, col)]));
        }
        // The block reaches two rows and two columns into the matrix.
        assert_eq!((block.real_rows(), block.real_cols()), (2, 2));
        let past = TileOperand::block(&matrix, 4, 5, 2, 2);
        assert_eq!((past.real_rows(), past.real_cols()), (0, 0));
        let whole = TileOperand::whole(&matrix);
        assert_eq!((whole.rows(), whole.cols()), (3, 4));
        assert_eq!((whole.real_rows(), whole.real_cols()), (3, 4));
        assert_eq!(whole.get(2, 3), 23);
    }
}
