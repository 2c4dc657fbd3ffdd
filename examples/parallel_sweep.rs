//! The parallel execution engine end to end: fan the DATE'23 evaluation
//! sweep out across every core, simulate a tiled GEMM with tile-level
//! parallelism, and verify that both are bit-identical to their serial
//! runs — the determinism contract documented in `DESIGN.md`.
//!
//! Run with `cargo run --release --example parallel_sweep`.

use arrayflex::{EvaluationSweep, ParallelExecutor};
use cnn::models::paper_evaluation_networks;
use gemm::rng::SplitMix64;
use gemm::Matrix;
use sa_sim::{ArrayConfig, Simulator};
use std::time::Instant;

fn main() -> Result<(), Box<dyn std::error::Error>> {
    let cores = std::thread::available_parallelism().map_or(1, usize::from);
    println!("detected {cores} hardware thread(s)\n");

    // --- 1. The evaluation sweep, serial vs. fanned out over all cores. ---
    let networks = paper_evaluation_networks();
    let serial_sweep = EvaluationSweep::date23();
    let parallel_sweep = EvaluationSweep::date23().threads(0);

    let start = Instant::now();
    let serial = serial_sweep.run(&networks)?;
    let serial_ms = start.elapsed().as_secs_f64() * 1e3;
    let start = Instant::now();
    let parallel = parallel_sweep.run(&networks)?;
    let parallel_ms = start.elapsed().as_secs_f64() * 1e3;

    assert_eq!(parallel, serial, "parallel sweep must match serial");
    println!(
        "evaluation sweep over {} (size, network) pairs:",
        serial.len()
    );
    println!("  serial          {serial_ms:8.3} ms");
    println!(
        "  {cores:2} thread(s)    {parallel_ms:8.3} ms  ({:.2}x, bit-identical)\n",
        serial_ms / parallel_ms
    );
    for comparison in &serial {
        println!("  {comparison}");
    }

    // --- 2. Tile-parallel cycle-accurate simulation. ---
    let mut rng = SplitMix64::new(7);
    let a = Matrix::random(16, 192, &mut rng, -40, 40);
    let b = Matrix::random(192, 96, &mut rng, -40, 40);
    let simulator = Simulator::new(ArrayConfig::new(32, 32).with_collapse_depth(2))?;

    let start = Instant::now();
    let serial_run = simulator.run_gemm(&a, &b)?;
    let serial_ms = start.elapsed().as_secs_f64() * 1e3;
    let start = Instant::now();
    let parallel_run = simulator.threads(0).run_gemm(&a, &b)?;
    let parallel_ms = start.elapsed().as_secs_f64() * 1e3;

    assert_eq!(parallel_run, serial_run, "tile-parallel must match serial");
    println!("\ncycle-accurate 192x96 GEMM on a 32x32 array (k=2):");
    println!(
        "  serial tiles    {serial_ms:8.3} ms   {}",
        serial_run.stats
    );
    println!(
        "  {cores:2} thread(s)    {parallel_ms:8.3} ms  ({:.2}x, bit-identical)",
        serial_ms / parallel_ms
    );

    // --- 3. The engine itself, directly. ---
    let executor = ParallelExecutor::new(0);
    let cycle_counts = executor.try_run(vec![1u32, 2, 4], |k| {
        let sim = Simulator::new(ArrayConfig::new(32, 32).with_collapse_depth(k))?;
        Ok::<_, sa_sim::SimError>((k, sim.run_gemm(&a, &b)?.stats.total_cycles()))
    })?;
    println!("\nper-mode cycle counts (computed concurrently, reported in order):");
    for (k, cycles) in cycle_counts {
        println!("  k={k}: {cycles} cycles");
    }
    Ok(())
}
