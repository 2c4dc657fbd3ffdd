//! Criterion bench of the structure-of-arrays simulator core: the
//! allocation-free `step_into` against the allocating `step` compatibility
//! wrapper, the multi-cycle `run_cycles` entry point (the wavefront kernel)
//! against the repeated per-cycle loop (the naive scan), the wavefront
//! panel kernel on a steady-state tile, tile reuse through
//! `reset_for_tile` against fresh construction, and the pooled against the
//! unpooled whole-GEMM path.
//! These are the micro-level counterparts of the committed
//! `BENCH_simcore.json` baseline (see `scripts/bench_baseline.sh`).

use criterion::{criterion_group, criterion_main, Criterion};
use gemm::rng::SplitMix64;
use gemm::Matrix;
use sa_sim::{ArrayConfig, ArrayPool, InputFeeder, OutputCollector, Simulator, SystolicArray};

fn operands(t: usize, n: usize, m: usize) -> (Matrix<i32>, Matrix<i32>) {
    let mut rng = SplitMix64::new(2024);
    (
        Matrix::random(t, n, &mut rng, -80, 80),
        Matrix::random(n, m, &mut rng, -80, 80),
    )
}

fn bench_step_variants(c: &mut Criterion) {
    let config = ArrayConfig::new(32, 32).with_collapse_depth(2);
    let (a, b) = operands(8, 32, 32);
    let feeder = InputFeeder::new(&a, config).unwrap();
    let cycles = config.compute_cycles(8);

    c.bench_function("simcore/step_into_reused_buffers", |bench| {
        let mut array = SystolicArray::new(config).unwrap();
        let mut west = vec![None; 32];
        let mut south = vec![None; 32];
        bench.iter(|| {
            array.reset_for_tile();
            array.load_weights(&b).unwrap();
            for cycle in 0..cycles {
                feeder.west_inputs_into(cycle, &mut west);
                array.step_into(&west, &mut south).unwrap();
            }
        })
    });
    c.bench_function("simcore/step_allocating_wrapper", |bench| {
        let mut array = SystolicArray::new(config).unwrap();
        bench.iter(|| {
            array.reset_for_tile();
            array.load_weights(&b).unwrap();
            for cycle in 0..cycles {
                let west = feeder.west_inputs(cycle);
                array.step(&west).unwrap();
            }
        })
    });
}

fn bench_run_cycles(c: &mut Criterion) {
    // One drain-heavy tile: the workload where hoisting the per-cycle
    // staging/harvesting/checks out of the loop matters most.
    let config = ArrayConfig::new(32, 32);
    let (a, b) = operands(4, 32, 32);
    let feeder = InputFeeder::new(&a, config).unwrap();
    let cycles = config.compute_cycles(4);

    c.bench_function("simcore/run_cycles_bulk", |bench| {
        let mut array = SystolicArray::new(config).unwrap();
        bench.iter(|| {
            array.reset_for_tile();
            array.load_weights(&b).unwrap();
            let mut collector = OutputCollector::new(config, 4);
            array
                .run_cycles(&feeder, 0, cycles, &mut collector)
                .unwrap();
            collector.into_output().unwrap()
        })
    });
    c.bench_function("simcore/run_cycles_as_repeated_step_into", |bench| {
        let mut array = SystolicArray::new(config).unwrap();
        let mut west = vec![None; 32];
        let mut south = vec![None; 32];
        bench.iter(|| {
            array.reset_for_tile();
            array.load_weights(&b).unwrap();
            let mut collector = OutputCollector::new(config, 4);
            for cycle in 0..cycles {
                feeder.west_inputs_into(cycle, &mut west);
                array.step_into(&west, &mut south).unwrap();
                collector.collect(cycle, &south).unwrap();
            }
            collector.into_output().unwrap()
        })
    });
}

fn bench_panel_kernel(c: &mut Criterion) {
    // Steady-state tile (most cycles carry a full wavefront): the panels
    // of the wavefront kernel rather than its fill/drain bookkeeping.
    let config = ArrayConfig::new(16, 16).with_collapse_depth(2);
    let (a, b) = operands(64, 16, 16);
    let sim = Simulator::new(config).unwrap();

    c.bench_function("simcore/steady_tile_panel_kernel", |bench| {
        bench.iter(|| sim.run_tile(&a, &b).unwrap())
    });
}

fn bench_tile_reuse(c: &mut Criterion) {
    let config = ArrayConfig::new(32, 32).with_collapse_depth(2);
    let (a, b) = operands(8, 32, 32);
    let sim = Simulator::new(config).unwrap();

    c.bench_function("simcore/tile_fresh_array_per_call", |bench| {
        bench.iter(|| sim.run_tile(&a, &b).unwrap())
    });
    c.bench_function("simcore/gemm_pooled_array_reuse", |bench| {
        let pool = ArrayPool::new();
        bench.iter(|| sim.run_gemm_pooled(&pool, &a, &b).unwrap())
    });
    c.bench_function("simcore/gemm_unpooled", |bench| {
        bench.iter(|| sim.run_gemm(&a, &b).unwrap())
    });
}

criterion_group!(
    benches,
    bench_step_variants,
    bench_run_cycles,
    bench_panel_kernel,
    bench_tile_reuse
);
criterion_main!(benches);
