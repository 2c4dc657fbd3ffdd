//! Differential suite locking the output-stationary backend to its naive
//! reference and to the dataflow-independent GEMM oracle.
//!
//! `common::os::LegacyOsArray` is the array-of-structs reference for the
//! output-stationary dataflow: full-size operand register files with
//! `Vec<bool>` validity, resident per-PE accumulators, and a per-cycle scan
//! of every processing element. The tests drive it against
//! [`OutputStationaryArray`] through both entry points, asserting
//! bit-identical accumulator files and [`RunStats`](sa_sim::RunStats):
//!
//! * every cycle of [`OutputStationaryArray::step`] (the naive scan)
//!   across randomized geometries, collapse depths, reduction lengths and
//!   operand sparsity — including streams with mid-stream holes and
//!   geometries wider than 64 lanes;
//! * after every call of [`OutputStationaryArray::run_cycles`], run whole
//!   (the analytic wavefront kernel) or split at random points down to
//!   single cycles (the naive scan) — plus the schedules that are no whole
//!   stream (`step` first, a skipped resume cycle, a different stream
//!   length, a continuation on other operands, a chunked repeated run
//!   without a reset), and whole streams run back to back without a reset
//!   and then stepped.
//!
//! On top of the reference, every full tile is checked against the
//! dataflow-independent oracle: [`multiply`] of the same operands, which
//! both the weight-stationary and output-stationary backends must
//! reproduce exactly.

use gemm::rng::SplitMix64;
use gemm::{multiply, Matrix};
use proptest::prelude::*;
use sa_sim::{
    ArrayConfig, Dataflow, OsCollector, OsNorthFeeder, OsWestFeeder, OutputStationaryArray,
    Simulator,
};

mod common;
use common::os::LegacyOsArray;

/// The scheduled west edge for one cycle in `Option` form: row `i` carries
/// `A[i][n]` at cycle `n + floor(i / k)`, minus the stream indices dropped
/// by `a_mask` (bit `n % 64` set = index `n` dropped on every row).
fn west_options(a: &Matrix<i32>, config: ArrayConfig, cycle: u64, a_mask: u64) -> Vec<Option<i32>> {
    let k = u64::from(config.collapse_depth);
    (0..config.rows as usize)
        .map(|row| {
            let skew = row as u64 / k;
            let n = cycle.checked_sub(skew)?;
            if n >= a.cols() as u64 || a_mask & (1 << (n % 64)) != 0 {
                return None;
            }
            Some(a.row(row)[n as usize])
        })
        .collect()
}

/// The scheduled north edge for one cycle in `Option` form: column `j`
/// carries `B[n][j]` at cycle `n + floor(j / k)`, minus the stream indices
/// dropped by `b_mask`.
fn north_options(
    b: &Matrix<i32>,
    config: ArrayConfig,
    cycle: u64,
    b_mask: u64,
) -> Vec<Option<i32>> {
    let k = u64::from(config.collapse_depth);
    (0..config.cols as usize)
        .map(|col| {
            let skew = col as u64 / k;
            let n = cycle.checked_sub(skew)?;
            if n >= b.rows() as u64 || b_mask & (1 << (n % 64)) != 0 {
                return None;
            }
            Some(b[(n as usize, col)])
        })
        .collect()
}

/// A random `R x N` by `N x C` tile; `zero_fraction` percent of the
/// operands are zero.
fn random_tile(
    config: ArrayConfig,
    n: usize,
    seed: u64,
    zero_fraction: u32,
) -> (Matrix<i32>, Matrix<i32>) {
    let mut rng = SplitMix64::new(seed);
    let mut sparse = |low: i32, high: i32| {
        let value = rng.next_i32_in(low, high);
        if rng.next_i32_in(0, 99) < zero_fraction as i32 {
            0
        } else {
            value
        }
    };
    let a = Matrix::from_fn(config.rows as usize, n, |_, _| sparse(-60, 60));
    let b = Matrix::from_fn(n, config.cols as usize, |_, _| sparse(-60, 60));
    (a, b)
}

fn os_config(rows: u32, cols: u32, k: u32) -> ArrayConfig {
    ArrayConfig::new(rows, cols)
        .with_collapse_depth(k)
        .with_dataflow(Dataflow::OutputStationary)
}

/// Streams one random `R x N` by `N x C` tile through the reference and
/// [`OutputStationaryArray::step`], asserting bit-identical accumulator
/// files and statistics **every cycle**. `zero_fraction` controls operand
/// sparsity (the engine must not confuse *zero-valued* with *invalid*
/// operands); `a_mask` / `b_mask` drop stream indices wholesale, leaving
/// holes in the middle of a stream. With no holes, the settled
/// accumulators are also checked against the dataflow-independent oracle
/// `multiply(a, b)`.
#[allow(clippy::too_many_arguments)]
fn assert_os_equivalent(
    rows: u32,
    cols: u32,
    k: u32,
    n: usize,
    seed: u64,
    zero_fraction: u32,
    a_mask: u64,
    b_mask: u64,
) {
    let config = os_config(rows, cols, k);
    let (a, b) = random_tile(config, n, seed, zero_fraction);
    let mut reference = LegacyOsArray::new(config);
    let mut engine = OutputStationaryArray::new(config).unwrap();

    // Run well past the last scheduled operand so fill, steady state and
    // fully-drained cycles are all compared.
    for cycle in 0..config.os_tile_cycles(n as u64) + 2 {
        let west = west_options(&a, config, cycle, a_mask);
        let north = north_options(&b, config, cycle, b_mask);
        reference.step(&west, &north);
        engine.step(&west, &north).unwrap();
        assert_eq!(
            engine.accumulators(),
            reference.accumulators(),
            "accumulators diverged: {rows}x{cols} k={k} n={n} cycle={cycle}"
        );
        assert_eq!(
            engine.stats(),
            reference.stats(),
            "stats diverged: {rows}x{cols} k={k} n={n} cycle={cycle}"
        );
    }

    if a_mask == 0 && b_mask == 0 {
        let oracle = multiply(&a, &b).unwrap();
        for row in 0..rows as usize {
            for col in 0..cols as usize {
                assert_eq!(
                    reference.accumulators()[row * cols as usize + col],
                    oracle[(row, col)],
                    "oracle diverged: {rows}x{cols} k={k} n={n} at ({row}, {col})"
                );
            }
        }
    }
}

/// The engine and the reference fed identical edges, compared after every
/// call.
struct Lockstep {
    config: ArrayConfig,
    engine: OutputStationaryArray,
    reference: LegacyOsArray,
}

impl Lockstep {
    fn new(config: ArrayConfig) -> Self {
        Self {
            config,
            engine: OutputStationaryArray::new(config).unwrap(),
            reference: LegacyOsArray::new(config),
        }
    }

    /// Runs cycles `first..first + cycles` of the tile `a x b`:
    /// [`OutputStationaryArray::run_cycles`] on the engine, the same
    /// scheduled edges stepped one by one on the reference.
    fn run(
        &mut self,
        (a, b): (&Matrix<i32>, &Matrix<i32>),
        collector: &mut OsCollector,
        first: u64,
        cycles: u64,
    ) {
        let west = OsWestFeeder::new(a, self.config).unwrap();
        let north = OsNorthFeeder::new(b, self.config).unwrap();
        self.engine
            .run_cycles(&west, &north, first, cycles, collector)
            .unwrap();
        for cycle in first..first + cycles {
            self.reference.step(
                &west_options(a, self.config, cycle, 0),
                &north_options(b, self.config, cycle, 0),
            );
        }
        self.check(&format!("run_cycles {first}..{}", first + cycles));
    }

    /// Steps the scheduled edges of `cycle` into both models.
    fn step(&mut self, (a, b): (&Matrix<i32>, &Matrix<i32>), cycle: u64) {
        let west = west_options(a, self.config, cycle, 0);
        let north = north_options(b, self.config, cycle, 0);
        self.engine.step(&west, &north).unwrap();
        self.reference.step(&west, &north);
        self.check(&format!("step {cycle}"));
    }

    /// Runs cycles `first..end` in chunks whose lengths cycle through
    /// `chunks`.
    fn run_chunked(
        &mut self,
        tile: (&Matrix<i32>, &Matrix<i32>),
        collector: &mut OsCollector,
        (first, end): (u64, u64),
        chunks: &[u64],
    ) {
        let mut cycle = first;
        for &chunk in chunks.iter().cycle() {
            if cycle >= end {
                break;
            }
            let cycles = chunk.min(end - cycle);
            self.run(tile, collector, cycle, cycles);
            cycle += cycles;
        }
    }

    fn check(&self, at: &str) {
        let config = self.config;
        assert_eq!(
            self.engine.accumulators(),
            self.reference.accumulators(),
            "accumulators diverged: {config} after {at}"
        );
        assert_eq!(
            self.engine.stats(),
            self.reference.stats(),
            "stats diverged: {config} after {at}"
        );
    }
}

/// Runs one whole tile (plus `extra` trailing cycles) through `run_cycles`
/// in chunks, comparing against the reference after every chunk, and
/// checks the drained output against the GEMM oracle.
fn assert_chunked_tile(config: ArrayConfig, n: usize, seed: u64, extra: u64, chunks: &[u64]) {
    let (a, b) = random_tile(config, n, seed, 20);
    let mut lockstep = Lockstep::new(config);
    let mut collector = OsCollector::new(config, n as u64);
    let end = config.os_tile_cycles(n as u64) + extra;
    lockstep.run_chunked((&a, &b), &mut collector, (0, end), chunks);
    assert!(collector.is_complete(), "{config} n={n}");
    assert_eq!(collector.into_output().unwrap(), multiply(&a, &b).unwrap());
}

#[test]
fn os_engine_matches_the_reference_on_fixed_geometries() {
    // Geometries the random sweep is unlikely to hit: more than 64
    // rows/columns, blocks that straddle the 64-lane mark, and ragged
    // last blocks.
    for (rows, cols, k, n, seed) in [
        (1u32, 1u32, 1u32, 3usize, 1u64),
        (1, 8, 1, 2, 2),
        (8, 1, 1, 2, 3),
        (65, 65, 1, 3, 4),
        (70, 66, 4, 2, 5),
        (66, 70, 33, 3, 6),
        (96, 8, 8, 4, 7),
        (8, 96, 8, 5, 8),
    ] {
        assert_os_equivalent(rows, cols, k, n, seed, 30, 0, 0);
    }
}

#[test]
fn holey_os_streams_match_on_word_boundary_geometries() {
    // Dropped stream indices on either or both edges, on geometries wider
    // than 64 lanes.
    for (rows, cols, k, n, seed, a_mask, b_mask) in [
        (65u32, 65u32, 1u32, 4usize, 21u64, 0b1010u64, 0u64),
        (70, 66, 4, 3, 22, 0, 0b0110),
        (96, 8, 8, 5, 23, u64::MAX << 1, 0b1),
        (8, 96, 8, 4, 24, 0b1001, 0b0110),
    ] {
        assert_os_equivalent(rows, cols, k, n, seed, 30, a_mask, b_mask);
    }
}

#[test]
fn os_run_cycles_matches_the_reference_per_chunk_on_fixed_geometries() {
    // Wide and ragged geometries, each with a reduction shorter than the
    // block counts (the wavefront never fills the array) and one longer
    // (a steady state where every block pair is active). Each tile runs
    // once whole, on the wavefront kernel, and once in chunks, on the
    // naive scan.
    let chunks = [1, 1, 3, 1, 7, 2, 1, 13];
    for (rows, cols, k, ns) in [
        (65u32, 65u32, 1u32, [3usize, 70]),
        (70, 66, 4, [5, 20]),
        (66, 70, 33, [1, 5]),
        (96, 8, 8, [4, 14]),
    ] {
        for (seed, n) in ns.into_iter().enumerate() {
            let config = os_config(rows, cols, k);
            assert_chunked_tile(config, n, seed as u64, 3, &[u64::MAX]);
            assert_chunked_tile(config, n, seed as u64, 3, &chunks);
        }
    }
}

#[test]
fn os_run_cycles_after_step_matches_the_reference() {
    for (rows, cols, k, n) in [(9u32, 7u32, 2u32, 6usize), (65, 65, 1, 3), (8, 96, 8, 5)] {
        let config = os_config(rows, cols, k);
        let (a, b) = random_tile(config, n, 31, 20);
        let mut lockstep = Lockstep::new(config);
        for cycle in 0..3 {
            lockstep.step((&a, &b), cycle);
        }
        let mut collector = OsCollector::new(config, n as u64);
        let end = config.os_tile_cycles(n as u64);
        lockstep.run_chunked((&a, &b), &mut collector, (3, end), &[1, 4]);
    }
}

#[test]
fn os_run_cycles_resumed_at_a_skipped_cycle_matches_the_reference() {
    for (rows, cols, k, n) in [(9u32, 7u32, 2u32, 6usize), (65, 65, 1, 3), (70, 66, 4, 5)] {
        let config = os_config(rows, cols, k);
        let (a, b) = random_tile(config, n, 32, 20);
        let mut lockstep = Lockstep::new(config);
        let mut collector = OsCollector::new(config, n as u64);
        let end = config.os_tile_cycles(n as u64);
        lockstep.run((&a, &b), &mut collector, 0, 4);
        // Cycles 4 and 5 are never staged on either model.
        lockstep.run_chunked((&a, &b), &mut collector, (6, end), &[1, 3]);
    }
}

#[test]
fn os_run_cycles_with_a_different_stream_length_matches_the_reference() {
    for (rows, cols, k, n, other_n) in [
        (9u32, 7u32, 2u32, 6usize, 4usize),
        (65, 65, 1, 3, 5),
        (96, 8, 8, 4, 2),
    ] {
        let config = os_config(rows, cols, k);
        let (a, b) = random_tile(config, n, 33, 20);
        let (other_a, other_b) = random_tile(config, other_n, 34, 20);
        let mut lockstep = Lockstep::new(config);
        let mut collector = OsCollector::new(config, n as u64);
        lockstep.run((&a, &b), &mut collector, 0, 5);
        let mut other_collector = OsCollector::new(config, other_n as u64);
        let end = config.os_tile_cycles(other_n as u64);
        lockstep.run_chunked(
            (&other_a, &other_b),
            &mut other_collector,
            (5, end),
            &[2, 1],
        );
    }
}

#[test]
fn os_run_cycles_continued_on_other_operands_matches_the_reference() {
    // A call that continues a stream (same reduction length, the next
    // cycle) streams the edges of the feeders it is given, even when they
    // read other operands than the call that started the stream.
    for (rows, cols, k, n) in [(9u32, 7u32, 2u32, 6usize), (70, 66, 4, 5)] {
        let config = os_config(rows, cols, k);
        let (a, b) = random_tile(config, n, 37, 20);
        let (other_a, other_b) = random_tile(config, n, 38, 20);
        let mut lockstep = Lockstep::new(config);
        let mut collector = OsCollector::new(config, n as u64);
        let end = config.os_tile_cycles(n as u64);
        lockstep.run((&a, &b), &mut collector, 0, 4);
        lockstep.run_chunked((&other_a, &other_b), &mut collector, (4, end), &[3]);
    }
}

#[test]
fn os_second_run_without_reset_matches_the_reference() {
    for (rows, cols, k, n) in [(9u32, 7u32, 2u32, 6usize), (66, 70, 33, 5), (70, 66, 4, 5)] {
        let config = os_config(rows, cols, k);
        let (a, b) = random_tile(config, n, 35, 20);
        let (other_a, other_b) = random_tile(config, n, 36, 20);
        let mut lockstep = Lockstep::new(config);
        let end = config.os_tile_cycles(n as u64);
        let mut collector = OsCollector::new(config, n as u64);
        lockstep.run_chunked((&a, &b), &mut collector, (0, end), &[5]);
        // A second tile from cycle 0 on top of the first one's state.
        let mut collector = OsCollector::new(config, n as u64);
        lockstep.run_chunked((&other_a, &other_b), &mut collector, (0, end), &[1, 6]);
    }
}

#[test]
fn os_whole_streams_without_a_reset_then_steps_match_the_reference() {
    // A whole stream leaves nothing in flight: a second whole stream of
    // another length from cycle 0, with no reset, runs the wavefront
    // kernel again on top of the first one's accumulators, and cycles
    // stepped after it start the naive scan from a cleared pipeline.
    for (rows, cols, k, n) in [(9u32, 7u32, 2u32, 6usize), (66, 70, 33, 5), (70, 66, 4, 2)] {
        let config = os_config(rows, cols, k);
        let mut lockstep = Lockstep::new(config);
        for (seed, n) in [(39, n), (40, n + 3)] {
            let (a, b) = random_tile(config, n, seed, 20);
            let mut collector = OsCollector::new(config, n as u64);
            let cycles = config.os_tile_cycles(n as u64);
            lockstep.run((&a, &b), &mut collector, 0, cycles);
            assert!(collector.is_complete(), "{config} n={n}");
        }
        let (a, b) = random_tile(config, n, 41, 20);
        for cycle in 0..config.os_tile_cycles(n as u64) {
            lockstep.step((&a, &b), cycle);
        }
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(48))]

    /// The output-stationary engine's `step` is cycle-for-cycle identical
    /// — accumulators and statistics — to the array-of-structs reference
    /// across randomized geometries, collapse depths, reduction lengths
    /// and operand sparsity, and the settled accumulators equal the GEMM
    /// oracle.
    #[test]
    fn os_engine_matches_the_reference(
        rows in 1u32..=12,
        cols in 1u32..=12,
        k in 1u32..=6,
        n in 1usize..=10,
        seed in any::<u64>(),
        zero_fraction in 0u32..=90,
    ) {
        prop_assume!(k <= rows && k <= cols);
        assert_os_equivalent(rows, cols, k, n, seed, zero_fraction, 0, 0);
    }

    /// Streams with randomly dropped indices — on either edge, forcing
    /// unpaired operands — still match the reference cycle for cycle.
    #[test]
    fn os_engine_matches_the_reference_with_holes(
        rows in 1u32..=12,
        cols in 1u32..=12,
        k in 1u32..=6,
        n in 1usize..=10,
        seed in any::<u64>(),
        a_mask in any::<u64>(),
        b_mask in any::<u64>(),
    ) {
        prop_assume!(k <= rows && k <= cols);
        assert_os_equivalent(rows, cols, k, n, seed, 40, a_mask, b_mask);
    }

    /// `run_cycles` — feeder-driven staging, the collector drain and the
    /// trailing dead-cycle fold, optionally split into chunked calls — is
    /// bit-identical to stepping the reference every cycle: same statistics,
    /// and a drained output equal to the GEMM oracle.
    #[test]
    fn os_run_cycles_equals_repeated_reference_steps(
        rows in 1u32..=10,
        cols in 1u32..=10,
        k in 1u32..=5,
        n in 1usize..=8,
        chunks in 1u64..=3,
        extra in 0u64..=200,
        seed in any::<u64>(),
    ) {
        prop_assume!(k <= rows && k <= cols);
        let config = ArrayConfig::new(rows, cols)
            .with_collapse_depth(k)
            .with_dataflow(Dataflow::OutputStationary);
        let mut rng = SplitMix64::new(seed);
        let a = Matrix::random(rows as usize, n, &mut rng, -50, 50);
        let b = Matrix::random(n, cols as usize, &mut rng, -50, 50);
        let cycles = config.os_tile_cycles(n as u64) + extra;

        // Reference: the literal per-cycle loop over the same schedule.
        let mut reference = LegacyOsArray::new(config);
        for cycle in 0..cycles {
            let west = west_options(&a, config, cycle, 0);
            let north = north_options(&b, config, cycle, 0);
            reference.step(&west, &north);
        }

        let mut engine = OutputStationaryArray::new(config).unwrap();
        let west = OsWestFeeder::new(&a, config).unwrap();
        let north = OsNorthFeeder::new(&b, config).unwrap();
        let mut collector = OsCollector::new(config, n as u64);
        let per_chunk = (cycles / chunks).max(1);
        let mut done = 0;
        while done < cycles {
            let step = per_chunk.min(cycles - done);
            engine.run_cycles(&west, &north, done, step, &mut collector).unwrap();
            done += step;
        }
        prop_assert_eq!(engine.stats(), reference.stats());
        prop_assert!(collector.is_complete());
        prop_assert_eq!(collector.into_output().unwrap(), multiply(&a, &b).unwrap());
    }

    /// `run_cycles` split into random chunks, down to single cycles,
    /// leaves the same accumulators and statistics as stepping the
    /// reference through the same edges after every chunk; the drained
    /// output equals the GEMM oracle.
    #[test]
    fn os_run_cycles_matches_the_reference_after_every_chunk(
        rows in 1u32..=12,
        cols in 1u32..=12,
        k in 1u32..=6,
        n in 1usize..=10,
        chunks in proptest::collection::vec(1u64..=8, 1..=6),
        extra in 0u64..=20,
        seed in any::<u64>(),
    ) {
        prop_assume!(k <= rows && k <= cols);
        assert_chunked_tile(os_config(rows, cols, k), n, seed, extra, &chunks);
    }

    /// The dataflow-independent oracle: the same GEMM simulated on a
    /// weight-stationary and an output-stationary array of the same
    /// geometry produces the identical, reference-exact product.
    #[test]
    fn both_dataflows_reproduce_the_same_gemm(
        t in 1usize..=9,
        n in 1usize..=9,
        m in 1usize..=9,
        rows in 1u32..=8,
        cols in 1u32..=8,
        k in 1u32..=4,
        seed in any::<u64>(),
    ) {
        prop_assume!(k <= rows && k <= cols);
        let mut rng = SplitMix64::new(seed);
        let a = Matrix::random(t, n, &mut rng, -40, 40);
        let b = Matrix::random(n, m, &mut rng, -40, 40);
        let oracle = multiply(&a, &b).unwrap();
        let base = ArrayConfig::new(rows, cols).with_collapse_depth(k);
        for dataflow in Dataflow::ALL {
            let simulator = Simulator::new(base.with_dataflow(dataflow)).unwrap();
            let run = simulator.run_gemm(&a, &b).unwrap();
            prop_assert_eq!(&run.output, &oracle);
        }
    }
}
