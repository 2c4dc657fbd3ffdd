//! Criterion bench comparing the serial and parallel execution paths of the
//! evaluation sweep and the cycle-accurate simulator, plus the wavefront
//! cycle kernel on one drain-heavy tile (its naive-scan counterpart is
//! `simcore/run_cycles_as_repeated_step_into`).
//!
//! On a machine with 4 or more cores the `parallel` variants should beat
//! their `serial` counterparts by >= 1.5x wall-clock; on a single core they
//! degenerate to the same inline loop.

use arrayflex::EvaluationSweep;
use cnn::models::paper_evaluation_networks;
use criterion::{criterion_group, criterion_main, Criterion};
use gemm::rng::SplitMix64;
use gemm::Matrix;
use sa_sim::{ArrayConfig, Simulator};

fn bench_sweep(c: &mut Criterion) {
    let networks = paper_evaluation_networks();
    let serial = EvaluationSweep::date23();
    let parallel = EvaluationSweep::date23().threads(0);
    c.bench_function("throughput/sweep_serial", |b| {
        b.iter(|| serial.run(&networks).unwrap())
    });
    c.bench_function("throughput/sweep_parallel_all_cores", |b| {
        b.iter(|| parallel.run(&networks).unwrap())
    });
}

fn bench_simulator(c: &mut Criterion) {
    let mut rng = SplitMix64::new(41);
    let a = Matrix::random(24, 256, &mut rng, -50, 50);
    let b = Matrix::random(256, 128, &mut rng, -50, 50);
    let serial = Simulator::new(ArrayConfig::new(32, 32).with_collapse_depth(2)).unwrap();
    let parallel = serial.threads(0);
    c.bench_function("throughput/sim_gemm_serial_tiles", |bch| {
        bch.iter(|| serial.run_gemm(&a, &b).unwrap())
    });
    c.bench_function("throughput/sim_gemm_parallel_tiles", |bch| {
        bch.iter(|| parallel.run_gemm(&a, &b).unwrap())
    });
}

fn bench_cycle_kernel(c: &mut Criterion) {
    let mut rng = SplitMix64::new(43);
    let a = Matrix::random(4, 64, &mut rng, -50, 50);
    let b = Matrix::random(64, 64, &mut rng, -50, 50);
    let sim = Simulator::new(ArrayConfig::new(64, 64)).unwrap();
    c.bench_function("throughput/tile_fast_path", |bch| {
        bch.iter(|| sim.run_tile(&a, &b).unwrap())
    });
}

criterion_group!(benches, bench_sweep, bench_simulator, bench_cycle_kernel);
criterion_main!(benches);
