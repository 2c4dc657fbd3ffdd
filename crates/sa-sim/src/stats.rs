//! Run statistics collected by the cycle-accurate simulator.

use serde::{Deserialize, Serialize};
use std::fmt;
use std::iter::Sum;
use std::ops::{Add, AddAssign};

/// Cycle-level statistics of one or more simulated tile executions.
///
/// Besides the cycle counts (which the analytical latency model predicts and
/// the tests cross-check), the simulator records how many pipeline-register
/// clock events actually happened versus how many were suppressed by clock
/// gating of transparent registers — the activity numbers that feed the
/// power model's calibration.
///
/// # Aggregation is order-independent
///
/// Every field is an exact integer event count, so [`Add`]/[`Sum`] form a
/// commutative, associative reduction: aggregating per-tile statistics in
/// any order (in particular, in the completion order of concurrently
/// simulated tiles) yields bit-identical totals, and every derived ratio
/// ([`RunStats::utilization`], [`RunStats::clock_gating_fraction`]) depends
/// only on those totals. The tile-parallel GEMM path relies on this
/// guarantee.
#[derive(Debug, Default, Clone, Copy, PartialEq, Eq, Serialize, Deserialize)]
pub struct RunStats {
    /// Cycles spent preloading weights into the array.
    pub load_cycles: u64,
    /// Cycles spent streaming inputs and draining results.
    pub compute_cycles: u64,
    /// Useful multiply-accumulate operations performed.
    pub macs: u64,
    /// PE-cycles available during the compute phase (`compute_cycles x R x C`).
    pub pe_cycles: u64,
    /// Pipeline-register clock events that actually happened.
    pub clocked_register_events: u64,
    /// Pipeline-register clock events suppressed because the register was
    /// transparent (bypassed) and therefore clock-gated.
    pub gated_register_events: u64,
    /// Number of array-sized tiles executed.
    pub tiles: u64,
}

impl RunStats {
    /// Total elapsed cycles (weight load plus compute).
    #[must_use]
    pub fn total_cycles(&self) -> u64 {
        self.load_cycles + self.compute_cycles
    }

    /// Fraction of PE-cycles that performed a useful MAC during the compute
    /// phase (0 when nothing was simulated).
    #[must_use]
    pub fn utilization(&self) -> f64 {
        if self.pe_cycles == 0 {
            0.0
        } else {
            self.macs as f64 / self.pe_cycles as f64
        }
    }

    /// Books `cycles` **dead** compute cycles — cycles in which no
    /// pipeline block held a valid operand — in O(1), the statistics
    /// contract of the simulator's bulk dead-cycle skip.
    ///
    /// A dead cycle still elapses on the clock and still clocks the
    /// pipeline registers (the simulated hardware has no idea the cycle is
    /// dead), so `compute_cycles`, `pe_cycles` and the register activity
    /// accumulate exactly as if the cycle had been stepped; only `macs`
    /// stays untouched because no valid operand fed any multiplier.
    /// `pe_per_cycle` is `R * C`, `clocked_per_cycle` the per-cycle
    /// clocked-register count of the configuration and `gated_per_cycle`
    /// its clock-gated complement.
    pub fn record_dead_cycles(
        &mut self,
        cycles: u64,
        pe_per_cycle: u64,
        clocked_per_cycle: u64,
        gated_per_cycle: u64,
    ) {
        self.compute_cycles += cycles;
        self.pe_cycles += cycles * pe_per_cycle;
        self.clocked_register_events += cycles * clocked_per_cycle;
        self.gated_register_events += cycles * gated_per_cycle;
    }

    /// Fraction of pipeline-register clock events that were suppressed by
    /// clock gating (0 when nothing was simulated).
    #[must_use]
    pub fn clock_gating_fraction(&self) -> f64 {
        let total = self.clocked_register_events + self.gated_register_events;
        if total == 0 {
            0.0
        } else {
            self.gated_register_events as f64 / total as f64
        }
    }
}

impl Add for RunStats {
    type Output = Self;

    fn add(self, rhs: Self) -> Self {
        Self {
            load_cycles: self.load_cycles + rhs.load_cycles,
            compute_cycles: self.compute_cycles + rhs.compute_cycles,
            macs: self.macs + rhs.macs,
            pe_cycles: self.pe_cycles + rhs.pe_cycles,
            clocked_register_events: self.clocked_register_events + rhs.clocked_register_events,
            gated_register_events: self.gated_register_events + rhs.gated_register_events,
            tiles: self.tiles + rhs.tiles,
        }
    }
}

impl AddAssign for RunStats {
    fn add_assign(&mut self, rhs: Self) {
        *self = *self + rhs;
    }
}

impl Sum for RunStats {
    fn sum<I: Iterator<Item = Self>>(iter: I) -> Self {
        iter.fold(Self::default(), Add::add)
    }
}

impl fmt::Display for RunStats {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(
            f,
            "{} cycles ({} load + {} compute), {} MACs, {:.1}% utilization, {:.1}% registers clock-gated, {} tiles",
            self.total_cycles(),
            self.load_cycles,
            self.compute_cycles,
            self.macs,
            self.utilization() * 100.0,
            self.clock_gating_fraction() * 100.0,
            self.tiles
        )
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn sample() -> RunStats {
        RunStats {
            load_cycles: 8,
            compute_cycles: 20,
            macs: 160,
            pe_cycles: 320,
            clocked_register_events: 100,
            gated_register_events: 300,
            tiles: 1,
        }
    }

    #[test]
    fn totals_and_fractions() {
        let s = sample();
        assert_eq!(s.total_cycles(), 28);
        assert!((s.utilization() - 0.5).abs() < 1e-12);
        assert!((s.clock_gating_fraction() - 0.75).abs() < 1e-12);
    }

    #[test]
    fn empty_stats_have_zero_fractions() {
        let s = RunStats::default();
        assert_eq!(s.total_cycles(), 0);
        assert_eq!(s.utilization(), 0.0);
        assert_eq!(s.clock_gating_fraction(), 0.0);
    }

    #[test]
    fn addition_accumulates_every_field() {
        let mut s = sample();
        s += sample();
        assert_eq!(s.load_cycles, 16);
        assert_eq!(s.macs, 320);
        assert_eq!(s.tiles, 2);
        assert_eq!(s, sample() + sample());
    }

    #[test]
    fn aggregation_is_order_independent() {
        // Simulated per-tile statistics of different shapes.
        let tiles: Vec<RunStats> = (0..12)
            .map(|i| RunStats {
                load_cycles: i,
                compute_cycles: 3 * i + 1,
                macs: 17 * i,
                pe_cycles: 64 * (3 * i + 1),
                clocked_register_events: 5 * i + 2,
                gated_register_events: 7 * i,
                tiles: 1,
            })
            .collect();
        let forward: RunStats = tiles.iter().copied().sum();
        let reverse: RunStats = tiles.iter().rev().copied().sum();
        // An interleaved order, mimicking out-of-order tile completion.
        let mut shuffled = Vec::new();
        for pair in tiles.chunks(2).rev() {
            shuffled.extend_from_slice(pair);
        }
        let out_of_order: RunStats = shuffled.into_iter().sum();
        assert_eq!(forward, reverse);
        assert_eq!(forward, out_of_order);
        assert_eq!(forward.tiles, 12);
        // Empty sums are the identity.
        assert_eq!(
            Vec::<RunStats>::new().into_iter().sum::<RunStats>(),
            RunStats::default()
        );
    }

    #[test]
    fn dead_cycles_accumulate_everything_but_macs() {
        let mut stats = sample();
        // 4x4 array, k = 2: 16 PEs, 16 clocked + 16 gated register events
        // per cycle.
        stats.record_dead_cycles(10, 16, 16, 16);
        assert_eq!(stats.compute_cycles, 30);
        assert_eq!(stats.macs, sample().macs);
        assert_eq!(stats.pe_cycles, sample().pe_cycles + 160);
        assert_eq!(stats.clocked_register_events, 260);
        assert_eq!(stats.gated_register_events, 460);
        assert_eq!(stats.load_cycles, sample().load_cycles);
        assert_eq!(stats.tiles, sample().tiles);
    }

    #[test]
    fn display_mentions_cycles_and_macs() {
        let text = sample().to_string();
        assert!(text.contains("28 cycles"));
        assert!(text.contains("160 MACs"));
    }
}
