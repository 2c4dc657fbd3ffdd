//! Structure-of-arrays primitives of the array backends.
//!
//! Both array cores keep their pipeline state as flat register buffers.
//! Shared here:
//!
//! * [`RowLanes`], the west-to-east operand pipeline both arrays have (one
//!   register per (row, column block)), stored per row so that what one PE
//!   row sees in a cycle is a contiguous slice indexed by array column, and
//!   the [`StageCursor`] ring position it (and the output-stationary `B`
//!   pipeline) advances;
//! * [`StreamPurity`]: both arrays run their analytic wavefront kernel only
//!   while it holds;
//! * the packed `u64` bitset helpers of the weight-stationary partial-sum
//!   validity, which carry the word-boundary invariants its differential
//!   tests exercise (geometries above 64 lanes).

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

/// Sets every bit in `start..=last` (inclusive).
pub(crate) fn set_range(words: &mut [u64], start: usize, last: usize) {
    let (first_word, first_bit) = (start / WORD_BITS, start % WORD_BITS);
    let (last_word, last_bit) = (last / WORD_BITS, last % WORD_BITS);
    let low_mask = u64::MAX << first_bit;
    let high_mask = u64::MAX >> (WORD_BITS - 1 - last_bit);
    if first_word == last_word {
        words[first_word] |= low_mask & high_mask;
        return;
    }
    words[first_word] |= low_mask;
    for word in &mut words[first_word + 1..last_word] {
        *word = u64::MAX;
    }
    words[last_word] |= high_mask;
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

/// The west-to-east operand pipeline of an `R x C` array in collapse mode
/// `k`: one register per (row, column block), `ceil(C/k)` stages in
/// flight.
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
    /// One edge stage, one operand per row: the buffer a feeder stages
    /// into before the stage is spread over the row lanes.
    edge: Vec<i32>,
    pub(crate) cursor: StageCursor,
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
            edge: vec![0; rows],
            cursor: StageCursor::new(slots),
            k,
        }
    }

    pub(crate) fn clear(&mut self) {
        self.values.fill(0);
        self.valid.fill(0);
        self.cursor = StageCursor::new(self.cursor.slots);
    }

    /// Writes the operands of one stage — row `row` carries `value(row)` —
    /// into the head slot and its mirror, and returns the head slot's
    /// validity words, cleared. The stage goes in copy by copy, so every
    /// write is a single store rather than a short fill per row.
    fn write_stage(&mut self, value: impl Fn(usize) -> i32) -> &mut [u64] {
        let (k, slots, head) = (self.k, self.cursor.slots, self.cursor.head);
        for copy in head * k..(head + 1) * k {
            for (row, lane) in self.values.chunks_exact_mut(2 * slots * k).enumerate() {
                lane[copy] = value(row);
                lane[copy + slots * k] = lane[copy];
            }
        }
        let valid = &mut self.valid[head * self.words..(head + 1) * self.words];
        valid.fill(0);
        valid
    }

    /// Stages one edge of a feeder schedule. `idle` says whether the edge
    /// carries no operand this cycle; `stage` writes the edge's operands
    /// (one per row, idle rows as zero) and returns the valid row range.
    /// An idle edge entering a drained pipeline writes nothing.
    pub(crate) fn stage_feeder(
        &mut self,
        idle: bool,
        stage: impl FnOnce(&mut [i32]) -> Option<(u32, u32)>,
    ) {
        if !self.cursor.advance(idle) {
            return;
        }
        let mut edge = std::mem::take(&mut self.edge);
        let active = stage(&mut edge);
        let valid = self.write_stage(|row| edge[row]);
        if let Some((first, last)) = active {
            set_range(valid, first as usize, last as usize);
        }
        self.edge = edge;
    }

    /// Stages one edge given in `Option` form (`None` = no operand), as
    /// [`RowLanes::stage_feeder`].
    pub(crate) fn stage_options(&mut self, inputs: &[Option<i32>]) {
        if !self.cursor.advance(inputs.iter().all(Option::is_none)) {
            return;
        }
        let valid = self.write_stage(|row| inputs[row].unwrap_or(0));
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

/// Whether the operands currently in flight are provably the prefix of one
/// deterministic feeder schedule — the precondition of the analytic
/// wavefront kernels of both arrays' `run_cycles`, whose active-window math
/// assumes that schedule was followed from cycle 0.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub(crate) enum StreamPurity {
    /// The pipelines are empty; any schedule may start at cycle 0.
    Clean,
    /// Cycles `0..next` of a feeder stream of length `t` have been fed,
    /// nothing else.
    Tracked {
        /// The stream length the in-flight schedule was generated from.
        t: u64,
        /// The next cycle index the schedule expects.
        next: u64,
    },
    /// Arbitrary edge inputs were fed; only the naive scan may run until
    /// the pipelines are cleared.
    Poisoned,
}

impl StreamPurity {
    /// Admits a run of cycles `first_cycle..end` of a feeder stream of
    /// length `t`: returns whether the run continues the tracked schedule
    /// (so the analytic kernel applies) and records the outcome — the run's
    /// end as the next expected cycle, or poison.
    pub(crate) fn admit(&mut self, t: u64, first_cycle: u64, end: u64) -> bool {
        let pure = match *self {
            Self::Clean => first_cycle == 0,
            Self::Tracked { t: tracked, next } => tracked == t && first_cycle == next,
            Self::Poisoned => false,
        };
        *self = if pure {
            Self::Tracked { t, next: end }
        } else {
            Self::Poisoned
        };
        pure
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn bitset_range_sets_cover_word_boundaries() {
        let mut words = vec![0u64; 3];
        set_range(&mut words, 3, 3);
        assert_eq!(words[0], 1 << 3);
        words.fill(0);
        set_range(&mut words, 60, 70);
        for bit in 0..192 {
            assert_eq!(get_bit(&words, bit), (60..=70).contains(&bit), "bit {bit}");
        }
        words.fill(0);
        set_range(&mut words, 10, 140);
        for bit in 0..192 {
            assert_eq!(get_bit(&words, bit), (10..=140).contains(&bit), "bit {bit}");
        }
    }

    #[test]
    fn row_lanes_show_each_column_the_stage_of_its_block_age() {
        // 2 rows, 5 columns, k = 2: three column blocks, the last one
        // partial. Stage s carries 10 * s + row.
        let mut lanes = RowLanes::new(2, 5, 2);
        for s in 1..=3 {
            lanes.stage_feeder(false, |edge| {
                edge[0] = 10 * s;
                edge[1] = 10 * s + 1;
                Some((0, 1))
            });
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
            lanes.stage_feeder(true, |edge| {
                edge.fill(0);
                None
            });
        }
        assert!(lanes.cursor.is_drained());
        let head = lanes.cursor.head;
        lanes.stage_options(&[None, None]);
        assert_eq!(lanes.cursor.head, head);
        assert_eq!(lanes.operands(1, 5), &[0; 5]);
        assert!((0..3).all(|cb| !lanes.is_valid(1, cb)));
    }

    #[test]
    fn stream_purity_admits_only_uninterrupted_continuations() {
        let mut purity = StreamPurity::Clean;
        assert!(purity.admit(5, 0, 3));
        assert!(purity.admit(5, 3, 9));
        // A different stream length poisons, and poison sticks.
        assert!(!StreamPurity::Tracked { t: 5, next: 9 }.admit(6, 9, 10));
        let mut skipped = StreamPurity::Tracked { t: 5, next: 9 };
        assert!(!skipped.admit(5, 10, 12));
        assert_eq!(skipped, StreamPurity::Poisoned);
        assert!(!skipped.admit(5, 12, 13));
        // A clean pipeline only admits a schedule from its first cycle.
        assert!(!StreamPurity::Clean.admit(5, 1, 2));
    }
}
