//! Property-based tests of the cycle-accurate simulator.

use gemm::rng::SplitMix64;
use gemm::{multiply, CancelToken, Matrix, ParallelExecutor};
use proptest::prelude::*;
use sa_sim::{
    ArrayConfig, ArrayPool, CarrySaveValue, Dataflow, RunStats, SimError, Simulator, TileEngine,
};
use std::sync::atomic::{AtomicUsize, Ordering};

proptest! {
    #![proptest_config(ProptestConfig::with_cases(64))]

    /// Chained carry-save additions always resolve to the same value as
    /// plain wrapping addition, independent of the chaining order depth.
    #[test]
    fn carry_save_chains_resolve_exactly(
        start in any::<i64>(),
        operands in prop::collection::vec(any::<i32>(), 0..12),
        factors in prop::collection::vec(-1000i64..1000, 0..12),
    ) {
        let mut cs = CarrySaveValue::from_binary(start);
        let mut reference = start;
        for (i, op) in operands.iter().enumerate() {
            let factor = factors.get(i).copied().unwrap_or(1);
            let product = i64::from(*op).wrapping_mul(factor);
            cs = cs.add(product);
            reference = reference.wrapping_add(product);
        }
        prop_assert_eq!(cs.resolve(), reference);
    }

    /// A single tile simulation is exact and meets the per-tile latency
    /// L(k) = R + ceil(R/k) + ceil(C/k) + T - 2 for any geometry, including
    /// collapse depths that do not divide the array.
    #[test]
    fn tile_simulation_is_exact_for_any_geometry(
        rows in 1u32..=10,
        cols in 1u32..=10,
        k in 1u32..=5,
        t in 1usize..=12,
        seed in any::<u64>(),
    ) {
        prop_assume!(k <= rows && k <= cols);
        let config = ArrayConfig::new(rows, cols).with_collapse_depth(k);
        let mut rng = SplitMix64::new(seed);
        let a = Matrix::random(t, rows as usize, &mut rng, -100, 100);
        let b = Matrix::random(rows as usize, cols as usize, &mut rng, -100, 100);
        let simulator = Simulator::new(config).unwrap();
        let tile = simulator.run_tile(&a, &b).unwrap();
        prop_assert_eq!(&tile.output, &multiply(&a, &b).unwrap());
        let expected = u64::from(rows)
            + u64::from(rows.div_ceil(k))
            + u64::from(cols.div_ceil(k))
            + t as u64
            - 2;
        prop_assert_eq!(tile.stats.total_cycles(), expected);
        prop_assert_eq!(tile.stats.macs, t as u64 * u64::from(rows) * u64::from(cols));
    }

    /// The clock-gated register fraction depends only on the configuration,
    /// never on the data: it equals 1 - (1/k_effective) averaged over the
    /// two directions, and is zero in normal mode.
    #[test]
    fn gating_fraction_is_data_independent(
        rows in 2u32..=8,
        k in 1u32..=4,
        seed_a in any::<u64>(),
        seed_b in any::<u64>(),
    ) {
        prop_assume!(k <= rows);
        let config = ArrayConfig::new(rows, rows).with_collapse_depth(k);
        let simulator = Simulator::new(config).unwrap();
        let run = |seed: u64| {
            let mut rng = SplitMix64::new(seed);
            let a = Matrix::random(4, rows as usize, &mut rng, -50, 50);
            let b = Matrix::random(rows as usize, rows as usize, &mut rng, -50, 50);
            simulator.run_gemm(&a, &b).unwrap().stats.clock_gating_fraction()
        };
        let f1 = run(seed_a);
        let f2 = run(seed_b);
        prop_assert!((f1 - f2).abs() < 1e-12);
        if k == 1 {
            prop_assert!(f1.abs() < 1e-12);
        }
        let expected = 1.0 - f64::from(rows.div_ceil(k)) / f64::from(rows);
        prop_assert!((f1 - expected).abs() < 1e-12);
    }

    /// Simulating the same operands twice produces identical results and
    /// statistics (the simulator is fully deterministic).
    #[test]
    fn simulation_is_deterministic(
        t in 1usize..=8,
        n in 1usize..=16,
        m in 1usize..=12,
        k in 1u32..=4,
        seed in any::<u64>(),
    ) {
        let mut rng = SplitMix64::new(seed);
        let a = Matrix::random(t, n, &mut rng, -100, 100);
        let b = Matrix::random(n, m, &mut rng, -100, 100);
        let simulator = Simulator::new(ArrayConfig::new(8, 8).with_collapse_depth(k)).unwrap();
        let first = simulator.run_gemm(&a, &b).unwrap();
        let second = simulator.run_gemm(&a, &b).unwrap();
        prop_assert_eq!(first.output, second.output);
        prop_assert_eq!(first.stats, second.stats);
    }

    /// The tile loop, which reads every tile's operands in place, equals
    /// its per-tile definition: copy each tile's operand blocks out with
    /// `padded_block`, run them through `TileEngine::execute_tile` on a
    /// fresh array, add each product at the tile's origin with wrapping
    /// adds and sum the tiles' statistics.
    #[test]
    fn the_tile_loop_equals_padded_tiles_run_one_by_one(
        rows in 1u32..=9,
        cols in 1u32..=9,
        k in 1u32..=4,
        output_stationary in any::<bool>(),
        t in 1usize..=20,
        n in 1usize..=20,
        m in 1usize..=20,
        threads in 1usize..=2,
        seed in any::<u64>(),
    ) {
        prop_assume!(k <= rows && k <= cols);
        let dataflow = if output_stationary {
            Dataflow::OutputStationary
        } else {
            Dataflow::WeightStationary
        };
        let config = ArrayConfig::new(rows, cols)
            .with_collapse_depth(k)
            .with_dataflow(dataflow);
        let mut rng = SplitMix64::new(seed);
        let a = Matrix::random(t, n, &mut rng, -100, 100);
        let b = Matrix::random(n, m, &mut rng, -100, 100);
        let (rows, cols) = (rows as usize, cols as usize);

        // Weight-stationary tiles stream all of T through R-deep slices
        // of N; output-stationary tiles own R rows of T and reduce all
        // of N. Both are C columns of M wide.
        let (t_len, n_len) = if output_stationary { (rows, n) } else { (t, rows) };
        let mut output = Matrix::<i64>::zeros(t, m);
        let mut stats = RunStats::default();
        for t0 in (0..t).step_by(t_len) {
            for n0 in (0..n).step_by(n_len) {
                for m0 in (0..m).step_by(cols) {
                    let a_sub = a.padded_block(t0, n0, t_len, n_len);
                    let b_sub = b.padded_block(n0, m0, n_len, cols);
                    let tile = TileEngine::new(config)
                        .unwrap()
                        .execute_tile(&a_sub, &b_sub)
                        .unwrap();
                    for r in 0..t_len.min(t - t0) {
                        for c in 0..cols.min(m - m0) {
                            let sum = output[(t0 + r, m0 + c)].wrapping_add(tile.output[(r, c)]);
                            output.set(t0 + r, m0 + c, sum);
                        }
                    }
                    stats += tile.stats;
                }
            }
        }

        let pool = ArrayPool::new();
        let run = Simulator::new(config)
            .unwrap()
            .threads(threads)
            .run_gemm_pooled(&pool, &a, &b)
            .unwrap();
        prop_assert_eq!(&run.output, &output);
        prop_assert_eq!(run.stats, stats);
        prop_assert_eq!(&run.output, &multiply(&a, &b).unwrap());
    }

    /// Cooperative cancellation never leaks a pooled array and never
    /// poisons the executor: wherever the token fires, every checked-out
    /// array goes back into the pool, and the same pool and simulator
    /// then reproduce the uncancelled result bit for bit. Both dataflows
    /// run the same tile loop, so both are drawn.
    #[test]
    fn cancellation_leaves_the_pool_whole_and_the_simulator_reusable(
        threads in 1usize..=3,
        n in 8usize..=16,
        m in 8usize..=16,
        t in 1usize..=6,
        cancel_at in 0usize..24,
        output_stationary in any::<bool>(),
        seed in any::<u64>(),
    ) {
        let dataflow = if output_stationary {
            Dataflow::OutputStationary
        } else {
            Dataflow::WeightStationary
        };
        let config = ArrayConfig::new(4, 4)
            .with_collapse_depth(2)
            .with_dataflow(dataflow);
        let mut rng = SplitMix64::new(seed);
        let a = Matrix::random(t, n, &mut rng, -100, 100);
        let b = Matrix::random(n, m, &mut rng, -100, 100);
        let pool = ArrayPool::bounded(threads);
        let simulator = Simulator::new(config).unwrap().threads(threads);

        // Uncancelled reference run: exact, and it seeds the pool.
        let reference = simulator
            .run_gemm_cancellable(&pool, &a, &b, &CancelToken::new())
            .unwrap();
        prop_assert_eq!(&reference.output, &multiply(&a, &b).unwrap());
        let checked_in = pool.len();
        prop_assert!(checked_in >= 1 && checked_in <= threads);

        // Fire the token at a drawn item index mid fan-out while every
        // item checks an array out of the pool and back in — the same
        // shape as a simulator tile job. Indices past the item count
        // simply never fire, covering the uncancelled path too.
        let token = CancelToken::new();
        let invocations = AtomicUsize::new(0);
        let items: Vec<usize> = (0..16).collect();
        let outcome: Result<Vec<()>, SimError> = ParallelExecutor::new(threads)
            .try_run_cancellable(items, &token, |_| {
                if invocations.fetch_add(1, Ordering::SeqCst) == cancel_at {
                    token.cancel("property harness fired");
                }
                let engine = pool.acquire(config)?;
                pool.release(engine);
                Ok(())
            });
        match outcome {
            Err(SimError::Cancelled(cancelled)) => {
                prop_assert_eq!(cancelled.reason.as_str(), "property harness fired");
                prop_assert_eq!(cancelled.total, 16);
                prop_assert!(cancelled.completed < cancelled.total);
            }
            Err(other) => prop_assert!(false, "unexpected error: {}", other),
            Ok(_) => {}
        }
        // However far the run got, nothing leaked: the pool may have
        // grown toward its bound (a late-starting worker constructs a
        // fresh array) but every checkout came back.
        prop_assert!(pool.len() >= checked_in && pool.len() <= threads);

        // A token cancelled before the run stops the simulator at zero
        // items without touching the pool.
        let stopped = CancelToken::new();
        stopped.cancel("stop before start");
        match simulator.run_gemm_cancellable(&pool, &a, &b, &stopped) {
            Err(SimError::Cancelled(cancelled)) => {
                prop_assert_eq!(cancelled.completed, 0);
                prop_assert_eq!(cancelled.reason.as_str(), "stop before start");
            }
            Err(other) => prop_assert!(false, "unexpected error: {}", other),
            Ok(_) => prop_assert!(false, "a pre-cancelled token must stop the run"),
        }

        // Same pool, same simulator, fresh token: bit-identical to the
        // uncancelled reference, so cancellation poisoned nothing.
        let rerun = simulator
            .run_gemm_cancellable(&pool, &a, &b, &CancelToken::new())
            .unwrap();
        prop_assert_eq!(rerun.output, reference.output);
        prop_assert_eq!(rerun.stats, reference.stats);
    }
}
