//! Structure-of-arrays primitives of the array backends.
//!
//! The weight-stationary core ([`crate::array`]) keeps its pipeline state
//! as flat register buffers with packed `u64` validity bitsets (one
//! word-aligned segment per pipeline stage) and one [`LaneSummary`] frontier
//! summary per stage; the bit-level helpers here carry the invariants its
//! differential tests exercise (word-boundary geometries above 64 lanes,
//! dense-versus-sparse stage classification). [`StreamPurity`] is shared
//! with the output-stationary core ([`crate::os_array`]): both arrays run
//! their analytic wavefront kernel only while it holds.

pub(crate) const WORD_BITS: usize = 64;

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

/// Returns `true` if any bit in `start..=last` (inclusive) is set.
pub(crate) fn any_set_in(words: &[u64], start: usize, last: usize) -> bool {
    let (first_word, first_bit) = (start / WORD_BITS, start % WORD_BITS);
    let (last_word, last_bit) = (last / WORD_BITS, last % WORD_BITS);
    let low_mask = u64::MAX << first_bit;
    let high_mask = u64::MAX >> (WORD_BITS - 1 - last_bit);
    if first_word == last_word {
        return words[first_word] & low_mask & high_mask != 0;
    }
    words[first_word] & low_mask != 0
        || words[first_word + 1..last_word].iter().any(|&w| w != 0)
        || words[last_word] & high_mask != 0
}

/// Operand-validity summary of one pipeline stage: which lanes of the stage
/// hold a valid operand this cycle.
///
/// `count == 0` means the stage is empty (the other fields are then
/// meaningless); `dense` means the valid lanes are exactly the contiguous
/// range `first..=last`, which is always the case for feeder-scheduled
/// streams and lets the fast paths derive the active blocks in O(1) instead
/// of scanning validity words. Streams with mid-stream holes make a summary
/// sparse (`dense == false`), which routes that stage through the bitset
/// fallback.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub(crate) struct LaneSummary {
    /// First valid lane (when `count > 0`).
    pub(crate) first: u32,
    /// Last valid lane (when `count > 0`).
    pub(crate) last: u32,
    /// Number of valid lanes; `0` means the stage is empty.
    pub(crate) count: u32,
    /// `true` when the valid lanes are exactly `first..=last`.
    pub(crate) dense: bool,
}

impl LaneSummary {
    pub(crate) fn dense_range(first: u32, last: u32) -> Self {
        Self {
            first,
            last,
            count: last - first + 1,
            dense: true,
        }
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
    /// Arbitrary edge inputs were fed; only the generic kernel may run
    /// until the pipelines are cleared.
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
    fn bitset_range_queries_cover_word_boundaries() {
        // 130 bits span three words; probe single-word, word-crossing and
        // multi-word ranges.
        let mut words = vec![0u64; 3];
        assert!(!any_set_in(&words, 0, 129));
        set_bit(&mut words, 64);
        assert!(any_set_in(&words, 0, 129));
        assert!(any_set_in(&words, 64, 64));
        assert!(any_set_in(&words, 60, 70));
        assert!(!any_set_in(&words, 0, 63));
        assert!(!any_set_in(&words, 65, 129));
        set_bit(&mut words, 129);
        assert!(any_set_in(&words, 65, 129));
        assert!(any_set_in(&words, 129, 129));
        assert!(!any_set_in(&words, 65, 128));
        assert!(get_bit(&words, 64) && get_bit(&words, 129) && !get_bit(&words, 0));
    }

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
    fn dense_range_summary_counts_inclusive_lanes() {
        let s = LaneSummary::dense_range(3, 7);
        assert_eq!((s.first, s.last, s.count), (3, 7, 5));
        assert!(s.dense);
        assert_eq!(LaneSummary::default().count, 0);
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
