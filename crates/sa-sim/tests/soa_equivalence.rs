//! Equivalence suite locking the structure-of-arrays simulator core to the
//! pre-refactor semantics.
//!
//! `common::ws::LegacyArray` is a faithful reimplementation of the
//! array-of-structs cycle kernel the simulator shipped with before the SoA
//! rearchitecture: per-PE state in dense vectors, the naive scan that
//! evaluates every pipeline block of every column every cycle, and the same
//! statistics accounting. The tests drive it cycle for cycle against
//! today's [`SystolicArray`] across randomized geometries, collapse depths,
//! stream lengths and operand sparsity, and assert bit-identical south
//! outputs and [`RunStats`] — through `step_into` (the naive scan) every
//! cycle, through `run_cycles` over whole streams (the analytic wavefront
//! kernel) and split into chunks down to single cycles, through a
//! `run_cycles` prefix continued in `step_into`, and through whole streams
//! run back to back without a reset and then stepped. The
//! output-stationary backend has the analogous suite in
//! `dataflow_equivalence.rs`, against the same module's
//! `common::os::LegacyOsArray`.

use gemm::rng::SplitMix64;
use gemm::{multiply, Matrix};
use proptest::prelude::*;
use sa_sim::{ArrayConfig, InputFeeder, OutputCollector, RunStats, SystolicArray};

mod common;
use common::ws as legacy;

/// Streams one random tile through the legacy reference and the SoA core,
/// asserting identical outputs every cycle and identical statistics at the
/// end. `zero_fraction` controls operand sparsity (the core must not
/// confuse *zero-valued* with *invalid* operands).
fn assert_equivalent(rows: u32, cols: u32, k: u32, t: usize, seed: u64, zero_fraction: u32) {
    let config = ArrayConfig::new(rows, cols).with_collapse_depth(k);
    let mut rng = SplitMix64::new(seed);
    let sparse = |rng: &mut SplitMix64, low: i32, high: i32| {
        let value = rng.next_i32_in(low, high);
        if rng.next_i32_in(0, 99) < zero_fraction as i32 {
            0
        } else {
            value
        }
    };
    let weights = Matrix::from_fn(rows as usize, cols as usize, |_, _| {
        sparse(&mut rng, -60, 60)
    });
    let a = Matrix::from_fn(t, rows as usize, |_, _| sparse(&mut rng, -60, 60));

    let mut reference = legacy::LegacyArray::new(config);
    let mut array = SystolicArray::new(config).unwrap();
    reference.load_weights(&weights);
    array.load_weights(&weights).unwrap();

    let feeder = InputFeeder::new(&a, config).unwrap();
    let mut west = vec![None; rows as usize];
    let mut south = vec![None; cols as usize];
    // Run well past the drain so fill, steady state and fully-drained
    // cycles are all compared.
    for cycle in 0..config.compute_cycles(t as u64) + u64::from(rows.div_ceil(k)) + 2 {
        feeder.west_inputs_into(cycle, &mut west);
        let expected = reference.step(&west);
        array.step_into(&west, &mut south).unwrap();
        assert_eq!(
            south, expected,
            "naive scan diverged: {rows}x{cols} k={k} t={t} cycle={cycle}"
        );
    }
    assert_eq!(
        array.stats(),
        reference.stats(),
        "{rows}x{cols} k={k} t={t}"
    );
}

#[test]
fn soa_core_matches_the_legacy_scan_on_fixed_geometries() {
    // Word-boundary geometries the random sweep is unlikely to hit: more
    // than 64 rows/columns (multi-word bitset segments) and blocks that
    // straddle a word boundary.
    for (rows, cols, k, t, seed) in [
        (1u32, 1u32, 1u32, 3usize, 1u64),
        (1, 8, 1, 2, 2),
        (8, 1, 1, 2, 3),
        (65, 65, 1, 3, 4),
        (70, 66, 4, 2, 5),
        (66, 70, 33, 3, 6),
        (96, 8, 8, 4, 7),
        (8, 96, 8, 5, 8),
    ] {
        assert_equivalent(rows, cols, k, t, seed, 30);
    }
}

/// Runs one whole tile (plus 3 trailing cycles) through
/// [`SystolicArray::run_cycles`] in chunks whose lengths cycle through
/// `chunks`, stepping the legacy reference over the same cycles and
/// comparing [`RunStats`] after every chunk; the collected output is
/// compared with the reference's and with the GEMM oracle at the end.
fn assert_chunked_ws_tile(rows: u32, cols: u32, k: u32, t: usize, seed: u64, chunks: &[u64]) {
    let config = ArrayConfig::new(rows, cols).with_collapse_depth(k);
    let mut rng = SplitMix64::new(seed);
    let weights = Matrix::random(rows as usize, cols as usize, &mut rng, -60, 60);
    let a = Matrix::random(t, rows as usize, &mut rng, -60, 60);
    let feeder = InputFeeder::new(&a, config).unwrap();
    let mut engine = SystolicArray::new(config).unwrap();
    let mut reference = legacy::LegacyArray::new(config);
    engine.load_weights(&weights).unwrap();
    reference.load_weights(&weights);
    let mut collector = OutputCollector::new(config, t);
    let mut reference_collector = OutputCollector::new(config, t);
    let end = config.compute_cycles(t as u64) + 3;
    let mut cycle = 0;
    for &chunk in chunks.iter().cycle() {
        if cycle >= end {
            break;
        }
        let cycles = chunk.min(end - cycle);
        engine
            .run_cycles(&feeder, cycle, cycles, &mut collector)
            .unwrap();
        for c in cycle..cycle + cycles {
            let south = reference.step(&feeder.west_inputs(c));
            reference_collector.collect(c, &south).unwrap();
        }
        cycle += cycles;
        assert_eq!(
            engine.stats(),
            reference.stats(),
            "stats diverged: {config} t={t} after cycle {cycle}"
        );
    }
    let expected = reference_collector.into_output().unwrap();
    assert_eq!(expected, multiply(&a, &weights).unwrap(), "{config} t={t}");
    assert_eq!(collector.into_output().unwrap(), expected, "{config} t={t}");
}

#[test]
fn ws_run_cycles_matches_the_reference_per_chunk_on_fixed_geometries() {
    // Wide and ragged geometries, each with a stream shorter than the
    // block counts (the wavefront never fills the array) and one longer
    // (a steady state where every block is active). Each tile runs once
    // whole, on the wavefront kernel, and once in chunks, on the naive
    // scan.
    let chunks = [1, 1, 3, 1, 7, 2, 1, 13];
    for (rows, cols, k, ts) in [
        (65u32, 65u32, 1u32, [3usize, 70]),
        (70, 66, 4, [5, 20]),
        (66, 70, 33, [1, 5]),
        (96, 8, 8, [4, 14]),
        (8, 96, 8, [5, 14]),
    ] {
        for (seed, t) in ts.into_iter().enumerate() {
            assert_chunked_ws_tile(rows, cols, k, t, seed as u64, &[u64::MAX]);
            assert_chunked_ws_tile(rows, cols, k, t, seed as u64, &chunks);
        }
    }
}

#[test]
fn step_into_after_a_partial_run_cycles_matches_the_reference() {
    // After a `run_cycles` prefix of `prefix` cycles, the rest of the
    // tile, stepped one cycle at a time, matches the reference output for
    // output.
    for (rows, cols, k, t, prefix) in [
        (8u32, 8u32, 2u32, 6usize, 4u64),
        (65, 65, 1, 3, 2),
        (70, 66, 4, 5, 7),
        (9, 7, 3, 10, 9),
    ] {
        let config = ArrayConfig::new(rows, cols).with_collapse_depth(k);
        let mut rng = SplitMix64::new(u64::from(rows) * 100 + prefix);
        let weights = Matrix::random(rows as usize, cols as usize, &mut rng, -60, 60);
        let a = Matrix::random(t, rows as usize, &mut rng, -60, 60);
        let feeder = InputFeeder::new(&a, config).unwrap();
        let mut engine = SystolicArray::new(config).unwrap();
        let mut reference = legacy::LegacyArray::new(config);
        engine.load_weights(&weights).unwrap();
        reference.load_weights(&weights);
        let mut collector = OutputCollector::new(config, t);
        let mut reference_collector = OutputCollector::new(config, t);

        engine
            .run_cycles(&feeder, 0, prefix, &mut collector)
            .unwrap();
        for cycle in 0..prefix {
            let south = reference.step(&feeder.west_inputs(cycle));
            reference_collector.collect(cycle, &south).unwrap();
        }
        assert_eq!(
            engine.stats(),
            reference.stats(),
            "{config} t={t} after {prefix} cycles"
        );

        let mut south = vec![None; cols as usize];
        for cycle in prefix..config.compute_cycles(t as u64) + 2 {
            let west = feeder.west_inputs(cycle);
            engine.step_into(&west, &mut south).unwrap();
            let expected = reference.step(&west);
            assert_eq!(south, expected, "{config} t={t} cycle {cycle}");
            collector.collect(cycle, &south).unwrap();
            reference_collector.collect(cycle, &expected).unwrap();
        }
        assert_eq!(engine.stats(), reference.stats(), "{config} t={t}");
        let expected = reference_collector.into_output().unwrap();
        assert_eq!(expected, multiply(&a, &weights).unwrap(), "{config} t={t}");
        assert_eq!(collector.into_output().unwrap(), expected, "{config} t={t}");
    }
}

#[test]
fn run_cycles_continued_on_another_feeder_matches_the_reference() {
    // A call that continues a stream (same stream length, the next
    // cycle) streams the edges of the feeder it is given, even when that
    // feeder reads other operands than the call that started the stream.
    for (rows, cols, k, t, prefix) in [(8u32, 8u32, 2u32, 6usize, 4u64), (70, 66, 4, 5, 7)] {
        let config = ArrayConfig::new(rows, cols).with_collapse_depth(k);
        let mut rng = SplitMix64::new(u64::from(rows) + prefix);
        let weights = Matrix::random(rows as usize, cols as usize, &mut rng, -60, 60);
        let first = Matrix::random(t, rows as usize, &mut rng, -60, 60);
        let second = Matrix::random(t, rows as usize, &mut rng, -60, 60);
        let feeders = [
            InputFeeder::new(&first, config).unwrap(),
            InputFeeder::new(&second, config).unwrap(),
        ];
        let mut engine = SystolicArray::new(config).unwrap();
        let mut reference = legacy::LegacyArray::new(config);
        engine.load_weights(&weights).unwrap();
        reference.load_weights(&weights);
        let mut collector = OutputCollector::new(config, t);
        let mut reference_collector = OutputCollector::new(config, t);
        let end = config.compute_cycles(t as u64);
        for (feeder, (from, to)) in feeders.iter().zip([(0, prefix), (prefix, end)]) {
            engine
                .run_cycles(feeder, from, to - from, &mut collector)
                .unwrap();
            for cycle in from..to {
                let south = reference.step(&feeder.west_inputs(cycle));
                reference_collector.collect(cycle, &south).unwrap();
            }
            assert_eq!(engine.stats(), reference.stats(), "{config} after {to}");
        }
        assert_eq!(
            collector.into_output().unwrap(),
            reference_collector.into_output().unwrap(),
            "{config} t={t}"
        );
    }
}

#[test]
fn whole_streams_without_a_reset_then_steps_match_the_reference() {
    // A whole stream leaves nothing in flight: a second whole stream of
    // another length from cycle 0, with no reset, runs the wavefront
    // kernel again, and cycles stepped after it start the naive scan from
    // cleared stores.
    for (rows, cols, k, t) in [(8u32, 8u32, 2u32, 6usize), (70, 66, 4, 5), (9, 7, 3, 2)] {
        let config = ArrayConfig::new(rows, cols).with_collapse_depth(k);
        let mut rng = SplitMix64::new(u64::from(rows) * 7 + u64::from(k));
        let weights = Matrix::random(rows as usize, cols as usize, &mut rng, -60, 60);
        let mut engine = SystolicArray::new(config).unwrap();
        let mut reference = legacy::LegacyArray::new(config);
        engine.load_weights(&weights).unwrap();
        reference.load_weights(&weights);
        for t in [t, t + 3] {
            let a = Matrix::random(t, rows as usize, &mut rng, -60, 60);
            let feeder = InputFeeder::new(&a, config).unwrap();
            let mut collector = OutputCollector::new(config, t);
            let mut reference_collector = OutputCollector::new(config, t);
            let cycles = config.compute_cycles(t as u64);
            engine
                .run_cycles(&feeder, 0, cycles, &mut collector)
                .unwrap();
            for cycle in 0..cycles {
                let south = reference.step(&feeder.west_inputs(cycle));
                reference_collector.collect(cycle, &south).unwrap();
            }
            assert_eq!(engine.stats(), reference.stats(), "{config} t={t}");
            let expected = reference_collector.into_output().unwrap();
            assert_eq!(expected, multiply(&a, &weights).unwrap(), "{config} t={t}");
            assert_eq!(collector.into_output().unwrap(), expected, "{config} t={t}");
        }
        let a = Matrix::random(t, rows as usize, &mut rng, -60, 60);
        let feeder = InputFeeder::new(&a, config).unwrap();
        let mut south = vec![None; cols as usize];
        for cycle in 0..config.compute_cycles(t as u64) + 2 {
            let west = feeder.west_inputs(cycle);
            engine.step_into(&west, &mut south).unwrap();
            assert_eq!(south, reference.step(&west), "{config} cycle {cycle}");
        }
        assert_eq!(engine.stats(), reference.stats(), "{config} t={t}");
    }
}

#[test]
fn holey_streams_match_on_word_boundary_geometries() {
    // Holey-stream coverage on geometries with multi-word validity
    // segments and blocks straddling a word boundary.
    for (rows, cols, k, t, seed, mask) in [
        (65u32, 65u32, 1u32, 4usize, 21u64, 0b1010u64),
        (70, 66, 4, 3, 22, 0b0110),
        (96, 8, 8, 5, 23, u64::MAX << 1),
        (8, 96, 8, 4, 24, 0b1001),
    ] {
        assert_holey_equivalent(rows, cols, k, t, seed, mask);
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(48))]

    /// The SoA core's naive scan is cycle-for-cycle identical to the
    /// pre-refactor array-of-structs kernel across randomized
    /// geometries, collapse depths, stream lengths and operand sparsity.
    #[test]
    fn soa_core_matches_the_legacy_scan(
        rows in 1u32..=12,
        cols in 1u32..=12,
        k in 1u32..=6,
        t in 1usize..=10,
        seed in any::<u64>(),
        zero_fraction in 0u32..=90,
    ) {
        prop_assume!(k <= rows && k <= cols);
        assert_equivalent(rows, cols, k, t, seed, zero_fraction);
    }

    /// `step_into` with a caller-provided buffer commits exactly the same
    /// cycle as the allocating legacy-style `step` wrapper.
    #[test]
    fn step_into_equals_step(
        rows in 1u32..=10,
        cols in 1u32..=10,
        k in 1u32..=5,
        t in 1usize..=8,
        seed in any::<u64>(),
    ) {
        prop_assume!(k <= rows && k <= cols);
        let config = ArrayConfig::new(rows, cols).with_collapse_depth(k);
        let mut rng = SplitMix64::new(seed);
        let weights = Matrix::random(rows as usize, cols as usize, &mut rng, -50, 50);
        let a = Matrix::random(t, rows as usize, &mut rng, -50, 50);
        let mut buffered = SystolicArray::new(config).unwrap();
        let mut allocating = SystolicArray::new(config).unwrap();
        buffered.load_weights(&weights).unwrap();
        allocating.load_weights(&weights).unwrap();
        let feeder = InputFeeder::new(&a, config).unwrap();
        let mut south = vec![Some(i64::MIN); cols as usize]; // poisoned on purpose
        for cycle in 0..config.compute_cycles(t as u64) + 3 {
            let west = feeder.west_inputs(cycle);
            buffered.step_into(&west, &mut south).unwrap();
            let allocated = allocating.step(&west).unwrap();
            prop_assert_eq!(&south, &allocated);
        }
        prop_assert_eq!(buffered.stats(), allocating.stats());
    }

    /// `run_cycles(n)` — west staging, evaluation, harvesting and error
    /// checks hoisted into the multi-cycle entry point, including the
    /// analytic wavefront kernel of a whole stream, the dead-cycle skip
    /// and chunked calls on the naive scan — is bit-identical to `n`
    /// individual `step_into` cycles with per-cycle collection.
    #[test]
    fn run_cycles_equals_repeated_step_into(
        rows in 1u32..=12,
        cols in 1u32..=12,
        k in 1u32..=6,
        t in 1usize..=10,
        chunks in 1u64..=3,
        seed in any::<u64>(),
    ) {
        prop_assume!(k <= rows && k <= cols);
        let config = ArrayConfig::new(rows, cols).with_collapse_depth(k);
        let mut rng = SplitMix64::new(seed);
        let weights = Matrix::random(rows as usize, cols as usize, &mut rng, -50, 50);
        let a = Matrix::random(t, rows as usize, &mut rng, -50, 50);
        let cycles = config.compute_cycles(t as u64);

        // Reference: the literal per-cycle loop.
        let mut stepped = SystolicArray::new(config).unwrap();
        stepped.load_weights(&weights).unwrap();
        let feeder = InputFeeder::new(&a, config).unwrap();
        let mut collector = OutputCollector::new(config, t);
        let mut south = vec![None; cols as usize];
        for cycle in 0..cycles {
            let west = feeder.west_inputs(cycle);
            stepped.step_into(&west, &mut south).unwrap();
            collector.collect(cycle, &south).unwrap();
        }
        let expected = collector.into_output().unwrap();

        let (bulk_out, bulk_stats) = run_tile_via_run_cycles(config, &weights, &a, chunks);
        prop_assert_eq!(&bulk_out, &expected);
        prop_assert_eq!(bulk_stats, stepped.stats());
    }

    /// A `run_cycles` range extended far past the drain folds the trailing
    /// dead cycles into O(1) bookkeeping with statistics identical to
    /// stepping every one of them.
    #[test]
    fn run_cycles_dead_skip_matches_stepping(
        rows in 1u32..=10,
        cols in 1u32..=10,
        k in 1u32..=5,
        t in 1usize..=6,
        extra in 1u64..=300,
        seed in any::<u64>(),
    ) {
        prop_assume!(k <= rows && k <= cols);
        let config = ArrayConfig::new(rows, cols).with_collapse_depth(k);
        let mut rng = SplitMix64::new(seed);
        let weights = Matrix::random(rows as usize, cols as usize, &mut rng, -50, 50);
        let a = Matrix::random(t, rows as usize, &mut rng, -50, 50);
        let feeder = InputFeeder::new(&a, config).unwrap();
        let cycles = config.compute_cycles(t as u64) + extra;

        let mut bulk = SystolicArray::new(config).unwrap();
        bulk.load_weights(&weights).unwrap();
        let mut collector = OutputCollector::new(config, t);
        bulk.run_cycles(&feeder, 0, cycles, &mut collector).unwrap();
        prop_assert!(collector.is_complete());

        let mut stepped = SystolicArray::new(config).unwrap();
        stepped.load_weights(&weights).unwrap();
        let mut south = vec![None; cols as usize];
        for cycle in 0..cycles {
            let west = feeder.west_inputs(cycle);
            stepped.step_into(&west, &mut south).unwrap();
        }
        prop_assert_eq!(bulk.stats(), stepped.stats());
    }

    /// The outputs and statistics stay bit-identical to the legacy
    /// reference for west streams with mid-stream holes (randomly dropped
    /// `A`-row indices).
    #[test]
    fn holey_streams_match_the_legacy_scan(
        rows in 1u32..=12,
        cols in 1u32..=12,
        k in 1u32..=6,
        t in 1usize..=10,
        hole_mask in any::<u64>(),
        seed in any::<u64>(),
    ) {
        prop_assume!(k <= rows && k <= cols);
        assert_holey_equivalent(rows, cols, k, t, seed, hole_mask);
    }

    /// Mixing manual `step_into` cycles with a `run_cycles` tail (which
    /// is no whole stream, so it must loop the naive scan, not run the
    /// analytic kernel) still matches the pure per-cycle loop.
    #[test]
    fn run_cycles_after_manual_steps_matches(
        rows in 1u32..=10,
        cols in 1u32..=10,
        k in 1u32..=5,
        t in 1usize..=8,
        prefix in 1u64..=5,
        seed in any::<u64>(),
    ) {
        prop_assume!(k <= rows && k <= cols);
        let config = ArrayConfig::new(rows, cols).with_collapse_depth(k);
        let mut rng = SplitMix64::new(seed);
        let weights = Matrix::random(rows as usize, cols as usize, &mut rng, -50, 50);
        let a = Matrix::random(t, rows as usize, &mut rng, -50, 50);
        let feeder = InputFeeder::new(&a, config).unwrap();
        let cycles = config.compute_cycles(t as u64);
        let prefix = prefix.min(cycles);

        let mut mixed = SystolicArray::new(config).unwrap();
        mixed.load_weights(&weights).unwrap();
        let mut collector = OutputCollector::new(config, t);
        let mut south = vec![None; cols as usize];
        for cycle in 0..prefix {
            let west = feeder.west_inputs(cycle);
            mixed.step_into(&west, &mut south).unwrap();
            collector.collect(cycle, &south).unwrap();
        }
        mixed.run_cycles(&feeder, prefix, cycles - prefix, &mut collector).unwrap();

        let (expected, expected_stats) = run_tile_via_run_cycles(config, &weights, &a, 1);
        prop_assert_eq!(&collector.into_output().unwrap(), &expected);
        prop_assert_eq!(mixed.stats(), expected_stats);
    }

    /// Repeatedly reusing one array through `reset_for_tile` is
    /// indistinguishable from constructing a fresh `SystolicArray::new`
    /// for every tile.
    #[test]
    fn repeated_reset_for_tile_equals_fresh_construction(
        rows in 1u32..=10,
        cols in 1u32..=10,
        k in 1u32..=5,
        seed in any::<u64>(),
    ) {
        prop_assume!(k <= rows && k <= cols);
        let config = ArrayConfig::new(rows, cols).with_collapse_depth(k);
        let mut rng = SplitMix64::new(seed);
        let mut reused = SystolicArray::new(config).unwrap();
        let mut west = vec![None; rows as usize];
        let mut south_reused = vec![None; cols as usize];
        let mut south_fresh = vec![None; cols as usize];
        // Three tiles of different stream lengths through the same array.
        for tile in 0..3usize {
            let t = tile + 1;
            let weights = Matrix::random(rows as usize, cols as usize, &mut rng, -40, 40);
            let a = Matrix::random(t, rows as usize, &mut rng, -40, 40);
            let mut fresh = SystolicArray::new(config).unwrap();
            reused.reset_for_tile();
            reused.load_weights(&weights).unwrap();
            fresh.load_weights(&weights).unwrap();
            let feeder = InputFeeder::new(&a, config).unwrap();
            for cycle in 0..config.compute_cycles(t as u64) + 2 {
                feeder.west_inputs_into(cycle, &mut west);
                reused.step_into(&west, &mut south_reused).unwrap();
                fresh.step_into(&west, &mut south_fresh).unwrap();
                prop_assert_eq!(&south_reused, &south_fresh);
            }
            prop_assert_eq!(reused.stats(), fresh.stats());
        }
    }
}

/// Drives one wavefront-aligned west stream **with holes** — a feeder
/// schedule in which a random subset of the `A`-row indices is dropped
/// wholesale (every SA row sees `None` at its skewed time for a dropped
/// index) — through the SoA core and the legacy reference, asserting
/// identical outputs every cycle and identical stats at the end.
fn assert_holey_equivalent(rows: u32, cols: u32, k: u32, t: usize, seed: u64, hole_mask: u64) {
    let config = ArrayConfig::new(rows, cols).with_collapse_depth(k);
    let mut rng = SplitMix64::new(seed);
    let weights = Matrix::random(rows as usize, cols as usize, &mut rng, -60, 60);
    let a = Matrix::random(t, rows as usize, &mut rng, -60, 60);
    let dropped = |t_index: u64| hole_mask & (1 << (t_index % 64)) != 0;

    let mut reference = legacy::LegacyArray::new(config);
    let mut array = SystolicArray::new(config).unwrap();
    reference.load_weights(&weights);
    array.load_weights(&weights).unwrap();

    let feeder = InputFeeder::new(&a, config).unwrap();
    let mut south = vec![None; cols as usize];
    for cycle in 0..config.compute_cycles(t as u64) + u64::from(rows.div_ceil(k)) + 2 {
        let mut west = feeder.west_inputs(cycle);
        for (row, slot) in west.iter_mut().enumerate() {
            let skew = row as u64 / u64::from(k);
            if slot.is_some() && dropped(cycle - skew) {
                *slot = None;
            }
        }
        let expected = reference.step(&west);
        array.step_into(&west, &mut south).unwrap();
        assert_eq!(south, expected, "{rows}x{cols} k={k} t={t} cycle={cycle}");
    }
    assert_eq!(
        array.stats(),
        reference.stats(),
        "{rows}x{cols} k={k} t={t}"
    );
}

/// Runs one tile through `run_cycles` — whole on the analytic kernel, or
/// split into `chunks` consecutive calls on the naive scan — and returns
/// the collected output plus the final stats.
fn run_tile_via_run_cycles(
    config: ArrayConfig,
    weights: &Matrix<i32>,
    a: &Matrix<i32>,
    chunks: u64,
) -> (Matrix<i64>, RunStats) {
    let mut array = SystolicArray::new(config).unwrap();
    array.load_weights(weights).unwrap();
    let feeder = InputFeeder::new(a, config).unwrap();
    let mut collector = OutputCollector::new(config, a.rows());
    let cycles = config.compute_cycles(a.rows() as u64);
    let per_chunk = (cycles / chunks).max(1);
    let mut done = 0;
    while done < cycles {
        let n = per_chunk.min(cycles - done);
        array.run_cycles(&feeder, done, n, &mut collector).unwrap();
        done += n;
    }
    (collector.into_output().unwrap(), array.stats())
}

#[test]
fn stats_match_a_hand_counted_tile() {
    // Pin the statistics contract with an exactly known case: 4x4, k = 2,
    // T = 3. Load = 4 cycles, compute = 3 + 2 + 2 - 2 = 5 cycles,
    // MACs = 3 * 4 * 4 = 48.
    let config = ArrayConfig::new(4, 4).with_collapse_depth(2);
    let mut rng = SplitMix64::new(9);
    let weights = Matrix::random(4, 4, &mut rng, -9, 9);
    let a = Matrix::random(3, 4, &mut rng, -9, 9);
    let mut array = SystolicArray::new(config).unwrap();
    array.load_weights(&weights).unwrap();
    let feeder = InputFeeder::new(&a, config).unwrap();
    let mut west = vec![None; 4];
    let mut south = vec![None; 4];
    for cycle in 0..config.compute_cycles(3) {
        feeder.west_inputs_into(cycle, &mut west);
        array.step_into(&west, &mut south).unwrap();
    }
    let stats = array.stats();
    assert_eq!(stats.load_cycles, 4);
    assert_eq!(stats.compute_cycles, 5);
    assert_eq!(stats.macs, 48);
    assert_eq!(stats.total_cycles(), 9);
    assert_eq!(
        stats,
        RunStats {
            load_cycles: 4,
            compute_cycles: 5,
            macs: 48,
            pe_cycles: 5 * 16,
            clocked_register_events: 5 * (4 * 2 + 4 * 2),
            gated_register_events: 5 * (2 * 16 - 16),
            tiles: 0,
        }
    );
}
