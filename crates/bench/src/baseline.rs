//! The committed simulator-core performance baseline (`BENCH_simcore.json`).
//!
//! [`simcore_baseline`] times a fixed, deterministic set of hot-path
//! workloads — the cycle-accurate tile kernels of both dataflows on
//! drain-heavy, steady-state and full-size tiles, a whole tiled GEMM, a
//! skinny GEMM whose one tile is nearly all padding, the im2col lowering, the reference GEMM, one round of the `/v1/simulate`
//! benchmark mix and the compact JSON rendering of the `/v1/plan` golden
//! plan — and reports machine-readable records (bench name,
//! threads, iterations, ns/iter and, for the simulator benches, simulated
//! cycles per wall-clock second). The `bench_baseline` binary wraps it;
//! `scripts/bench_baseline.sh` regenerates the committed
//! `BENCH_simcore.json` so the perf trajectory of the simulator core is
//! tracked in-repo, and CI runs the same harness in `--quick` mode and
//! re-parses the emitted JSON against [`validate_report`].
//!
//! All workloads are single-threaded and seeded, so two runs on the same
//! machine measure the same work; only the wall-clock changes between
//! machines or code versions. Comparisons between JSON snapshots are
//! therefore meaningful per-machine (the committed file records the
//! container the repository is developed in).

use arrayflex::{ArrayFlexError, ArrayFlexModel};
use cnn::DepthwiseMapping;
use gemm::im2col::im2col;
use gemm::rng::SplitMix64;
use gemm::{multiply, ConvShape, Matrix, Tensor3};
use sa_sim::{
    ArrayConfig, ArrayPool, Dataflow, InputFeeder, OutputCollector, SimError, Simulator,
    SystolicArray, TileResult,
};
use serde::{Deserialize, Serialize};
use std::hint::black_box;
use std::time::Instant;

/// Version of the `BENCH_simcore.json` schema this module emits.
pub const SCHEMA_VERSION: u32 = 1;

/// One timed workload of the baseline.
#[derive(Debug, Clone, Serialize, Deserialize)]
pub struct BenchRecord {
    /// Stable bench name (`simcore/...` or `gemm/...`).
    pub name: String,
    /// Worker threads the workload used (all baseline benches are 1).
    pub threads: usize,
    /// Timed iterations per batch (best of three batches is reported).
    pub iters: u64,
    /// Wall-clock nanoseconds per iteration (best batch).
    pub ns_per_iter: f64,
    /// Simulated cycles per iteration (`None` for non-simulator benches).
    pub cycles_per_iter: Option<u64>,
    /// Simulated cycles per wall-clock second (`None` for non-simulator
    /// benches). This is the headline throughput number of the simulator
    /// core.
    pub cycles_per_sec: Option<f64>,
}

/// The whole baseline: a schema version plus one record per workload.
#[derive(Debug, Clone, Serialize, Deserialize)]
pub struct BaselineReport {
    /// Schema version ([`SCHEMA_VERSION`]).
    pub schema: u32,
    /// Whether the run used the reduced `--quick` iteration counts (CI
    /// smoke mode; numbers are noisier and not meant to be committed).
    pub quick: bool,
    /// The timed records, in a fixed order.
    pub benches: Vec<BenchRecord>,
}

impl BaselineReport {
    /// Looks up one record by its stable name.
    #[must_use]
    pub fn bench(&self, name: &str) -> Option<&BenchRecord> {
        self.benches.iter().find(|b| b.name == name)
    }
}

/// The stable name of the acceptance bench: one drain-heavy tile
/// (`T = 4`) on a 32x32 array through `Simulator::run_tile`, i.e. the
/// analytic wavefront kernel.
pub const DRAIN_HEAVY_FAST: &str = "simcore/tile_32x32_drain_heavy/fast";
/// The naive-scan twin of [`DRAIN_HEAVY_FAST`]: the same tile through
/// [`naive_scan_tile`].
pub const DRAIN_HEAVY_NAIVE: &str = "simcore/tile_32x32_drain_heavy/naive";
/// The JSON-emission bench: `serde_json::to_string` of the `/v1/plan`
/// golden plan.
pub const ENCODE_PLAN: &str = "json/encode_plan_resnet34_128x128";
/// The skinny-GEMM bench: a 4096x1x1 weight-stationary GEMM on a 64x64
/// array at k = 4, one tile whose operands reach one PE row and column.
pub const SKINNY_GEMM: &str = "simcore/gemm_4096x1x1_on_64x64_k4";
/// The `/v1/simulate` mix bench: one round of the `simulate` benchmark
/// workload through one [`ArrayPool`], with the constants of its
/// generator.
pub const SIMULATE_ROUND: &str = "simcore/simulate_round";

/// One GEMM of the `simulate` round: its array, depth, dataflow and
/// operands.
struct RoundGemm {
    model: ArrayFlexModel,
    k: u32,
    a: Matrix<i32>,
    b: Matrix<i32>,
}

/// The GEMMs of one round of the `simulate` benchmark workload, with the
/// same constants its generator uses: every array edge pair of 8, 16, 32
/// and 64 at every depth 1 to 4 in both dataflows, GEMM dimensions drawn
/// from 16..=64 by SplitMix64 seed `0x5eed_a11a`, plus three 128^3
/// output-stationary GEMMs on a 64x64 array at depth 2. Operands are drawn
/// in `-64..=63` from seed `i` for the round's `i`-th GEMM.
fn simulate_round() -> Result<Vec<RoundGemm>, ArrayFlexError> {
    const EDGES: [u32; 4] = [8, 16, 32, 64];
    let mut shapes = SplitMix64::new(0x5eed_a11a);
    let mut between = |low: u64, high: u64| low + shapes.next_u64() % (high - low + 1);
    let mut specs = Vec::new();
    for dataflow in Dataflow::ALL {
        for rows in EDGES {
            for cols in EDGES {
                for k in 1..=4 {
                    let (t, n, m) = (between(16, 64), between(16, 64), between(16, 64));
                    specs.push((rows, cols, k, dataflow, t, n, m));
                }
            }
        }
    }
    let largest = (64, 64, 2, Dataflow::OutputStationary, 128, 128, 128);
    specs.extend([largest; 3]);
    specs
        .into_iter()
        .enumerate()
        .map(|(seed, (rows, cols, k, dataflow, t, n, m))| {
            let mut rng = SplitMix64::new(seed as u64);
            let a = Matrix::random(t as usize, n as usize, &mut rng, -64, 63);
            let b = Matrix::random(n as usize, m as usize, &mut rng, -64, 63);
            Ok(RoundGemm {
                model: ArrayFlexModel::new(rows, cols)?.with_dataflow(dataflow),
                k,
                a,
                b,
            })
        })
        .collect()
}

/// Best-of-three-batches wall-clock nanoseconds per iteration of `f`.
fn time_batches<F: FnMut()>(iters: u64, mut f: F) -> f64 {
    // One warmup iteration outside the timed batches.
    f();
    let mut best = f64::INFINITY;
    for _ in 0..3 {
        let start = Instant::now();
        for _ in 0..iters {
            f();
        }
        let ns = start.elapsed().as_nanos() as f64 / iters as f64;
        best = best.min(ns);
    }
    best
}

/// Runs one weight-stationary tile (`A_sub` is `T x R`, `B_sub` is
/// `R x C`) as the literal per-cycle loop — `step_into` plus `collect`
/// every cycle — on a caller-owned array, reset for the tile. This is the
/// loop `SystolicArray::run_cycles` runs for every call that is not one
/// whole stream, so timing it against `Simulator::run_tile` measures the
/// naive scan against the wavefront kernel on identical hardware.
///
/// # Errors
///
/// Returns dimension errors if the operands do not match the array.
pub fn naive_scan_tile(
    array: &mut SystolicArray,
    a_sub: &Matrix<i32>,
    b_sub: &Matrix<i32>,
) -> Result<TileResult, SimError> {
    let config = array.config();
    array.reset_for_tile();
    array.load_weights(b_sub)?;
    let feeder = InputFeeder::new(a_sub, config)?;
    let t = a_sub.rows();
    let mut collector = OutputCollector::new(config, t);
    let mut west = vec![None; config.rows as usize];
    let mut south = vec![None; config.cols as usize];
    for cycle in 0..config.compute_cycles(t as u64) {
        feeder.west_inputs_into(cycle, &mut west);
        array.step_into(&west, &mut south)?;
        collector.collect(cycle, &south)?;
    }
    let mut stats = array.stats();
    stats.tiles = 1;
    Ok(TileResult {
        output: collector.into_output()?,
        stats,
    })
}

fn record(name: &str, iters: u64, cycles_per_iter: Option<u64>, ns_per_iter: f64) -> BenchRecord {
    BenchRecord {
        name: name.to_owned(),
        threads: 1,
        iters,
        ns_per_iter,
        cycles_per_iter,
        cycles_per_sec: cycles_per_iter.map(|c| c as f64 * 1e9 / ns_per_iter),
    }
}

/// Runs the fixed baseline suite and returns its report.
///
/// `quick` divides the iteration counts by ~50 for CI smoke runs; the
/// workloads themselves are identical.
///
/// # Errors
///
/// Propagates simulation or lowering errors (which would indicate a broken
/// build, not a measurement problem).
///
/// # Panics
///
/// Panics if the wavefront kernel's tile diverges from the naive scan's —
/// the baseline never times a wrong computation.
pub fn simcore_baseline(quick: bool) -> Result<BaselineReport, ArrayFlexError> {
    let scale = |iters: u64| if quick { (iters / 50).max(2) } else { iters };
    let mut benches = Vec::new();

    // 1 + 2. The acceptance bench: a drain-heavy tile (T = 4) on a 32x32
    // array in normal pipeline mode, wavefront kernel vs. naive scan.
    let mut rng = SplitMix64::new(90);
    let a_drain = Matrix::random(4, 32, &mut rng, -50, 50);
    let b_drain = Matrix::random(32, 32, &mut rng, -50, 50);
    let drain_config = ArrayConfig::new(32, 32);
    let drain_sim = Simulator::new(drain_config).map_err(ArrayFlexError::from)?;
    let mut drain_array = SystolicArray::new(drain_config).map_err(ArrayFlexError::from)?;
    let fast = drain_sim
        .run_tile(&a_drain, &b_drain)
        .map_err(ArrayFlexError::from)?;
    let naive =
        naive_scan_tile(&mut drain_array, &a_drain, &b_drain).map_err(ArrayFlexError::from)?;
    assert_eq!(fast, naive, "wavefront kernel diverged from the naive scan");
    let cycles = fast.stats.total_cycles();
    let iters = scale(400);
    let ns = time_batches(iters, || {
        drain_sim.run_tile(&a_drain, &b_drain).expect("drain tile");
    });
    benches.push(record(DRAIN_HEAVY_FAST, iters, Some(cycles), ns));
    let iters = scale(200);
    let ns = time_batches(iters, || {
        naive_scan_tile(&mut drain_array, &a_drain, &b_drain).expect("naive drain tile");
    });
    benches.push(record(DRAIN_HEAVY_NAIVE, iters, Some(cycles), ns));

    // 3. A steady-state tile: T = 64 rows streamed through a 16x16 array
    // with k = 2 (most cycles have a full wavefront, so this measures the
    // carry-save inner loop rather than the skip logic).
    let a_steady = Matrix::random(64, 16, &mut rng, -50, 50);
    let b_steady = Matrix::random(16, 16, &mut rng, -50, 50);
    let steady_sim = Simulator::new(ArrayConfig::new(16, 16).with_collapse_depth(2))
        .map_err(ArrayFlexError::from)?;
    let cycles = steady_sim
        .run_tile(&a_steady, &b_steady)
        .map_err(ArrayFlexError::from)?
        .stats
        .total_cycles();
    let iters = scale(400);
    let ns = time_batches(iters, || {
        steady_sim
            .run_tile(&a_steady, &b_steady)
            .expect("steady tile");
    });
    benches.push(record(
        "simcore/tile_16x16_steady_k2",
        iters,
        Some(cycles),
        ns,
    ));

    // 4. The output-stationary twin of the steady-state tile: the same
    // 16x16 array and collapse depth streaming a 64-deep reduction with
    // the accumulators resident in the PEs (one R x N by N x C tile).
    let a_os = Matrix::random(16, 64, &mut rng, -50, 50);
    let b_os = Matrix::random(64, 16, &mut rng, -50, 50);
    let os_sim = Simulator::new(
        ArrayConfig::new(16, 16)
            .with_collapse_depth(2)
            .with_dataflow(Dataflow::OutputStationary),
    )
    .map_err(ArrayFlexError::from)?;
    let cycles = os_sim
        .run_tile(&a_os, &b_os)
        .map_err(ArrayFlexError::from)?
        .stats
        .total_cycles();
    let iters = scale(400);
    let ns = time_batches(iters, || {
        os_sim.run_tile(&a_os, &b_os).expect("os steady tile");
    });
    benches.push(record(
        "simcore/tile_16x16_os_steady_k2",
        iters,
        Some(cycles),
        ns,
    ));

    // 5. A full-size output-stationary tile in normal pipeline mode: the
    // 64x64 array at k = 1 (4,096 block pairs) reducing over N = 64. Its
    // operands come from their own stream, so the later benches keep
    // theirs.
    let mut rng_os64 = SplitMix64::new(64);
    let a_os64 = Matrix::random(64, 64, &mut rng_os64, -50, 50);
    let b_os64 = Matrix::random(64, 64, &mut rng_os64, -50, 50);
    let os64_sim =
        Simulator::new(ArrayConfig::new(64, 64).with_dataflow(Dataflow::OutputStationary))
            .map_err(ArrayFlexError::from)?;
    let cycles = os64_sim
        .run_tile(&a_os64, &b_os64)
        .map_err(ArrayFlexError::from)?
        .stats
        .total_cycles();
    let iters = scale(100);
    let ns = time_batches(iters, || {
        os64_sim.run_tile(&a_os64, &b_os64).expect("os 64x64 tile");
    });
    benches.push(record("simcore/tile_64x64_os_k1", iters, Some(cycles), ns));

    // 6. Its weight-stationary twin: T = 64 rows of A streamed through the
    // 64x64 array at k = 1, again from an operand stream of its own.
    let mut rng_ws64 = SplitMix64::new(65);
    let a_ws64 = Matrix::random(64, 64, &mut rng_ws64, -50, 50);
    let b_ws64 = Matrix::random(64, 64, &mut rng_ws64, -50, 50);
    let ws64_sim = Simulator::new(ArrayConfig::new(64, 64)).map_err(ArrayFlexError::from)?;
    let cycles = ws64_sim
        .run_tile(&a_ws64, &b_ws64)
        .map_err(ArrayFlexError::from)?
        .stats
        .total_cycles();
    let iters = scale(100);
    let ns = time_batches(iters, || {
        ws64_sim.run_tile(&a_ws64, &b_ws64).expect("ws 64x64 tile");
    });
    benches.push(record("simcore/tile_64x64_ws_k1", iters, Some(cycles), ns));

    // 7. A whole tiled GEMM (8x4 = 32 tiles on a 32x32 array, k = 2): the
    // workload of the `throughput` experiment, serial.
    let a_gemm = Matrix::random(24, 256, &mut rng, -50, 50);
    let b_gemm = Matrix::random(256, 128, &mut rng, -50, 50);
    let gemm_sim = Simulator::new(ArrayConfig::new(32, 32).with_collapse_depth(2))
        .map_err(ArrayFlexError::from)?;
    let cycles = gemm_sim
        .run_gemm(&a_gemm, &b_gemm)
        .map_err(ArrayFlexError::from)?
        .stats
        .total_cycles();
    let iters = scale(50);
    let ns = time_batches(iters, || {
        gemm_sim.run_gemm(&a_gemm, &b_gemm).expect("tiled GEMM");
    });
    benches.push(record(
        "simcore/gemm_24x256x128_on_32x32_k2",
        iters,
        Some(cycles),
        ns,
    ));

    // 8. A skinny GEMM: T = 4096 rows of A through one weight-stationary
    // tile of a 64x64 array at k = 4 whose operands reach one PE row and
    // one PE column, so nearly all of the tile is zero padding.
    let a_skinny = Matrix::random(4096, 1, &mut rng, -50, 50);
    let b_skinny = Matrix::random(1, 1, &mut rng, -50, 50);
    let skinny_sim = Simulator::new(ArrayConfig::new(64, 64).with_collapse_depth(4))
        .map_err(ArrayFlexError::from)?;
    let cycles = skinny_sim
        .run_gemm(&a_skinny, &b_skinny)
        .map_err(ArrayFlexError::from)?
        .stats
        .total_cycles();
    let iters = scale(20);
    let ns = time_batches(iters, || {
        skinny_sim
            .run_gemm(&a_skinny, &b_skinny)
            .expect("skinny GEMM");
    });
    benches.push(record(SKINNY_GEMM, iters, Some(cycles), ns));

    // 9. The im2col lowering of a mid-network 3x3 convolution
    // (64 -> 64 channels on a 28x28 input: T = 784, N = 576).
    let shape = ConvShape::dense(64, 64, 3, 1, 1, 28);
    let input = Tensor3::random(64, 28, 28, &mut rng, -50, 50);
    im2col(&input, shape, 0)?; // validate once outside the timed loop
    let iters = scale(50);
    let ns = time_batches(iters, || {
        im2col(&input, shape, 0).expect("im2col");
    });
    benches.push(record("gemm/im2col_conv3x3_64c_28x28", iters, None, ns));

    // 10. The reference GEMM the simulator is verified against.
    let a_ref = Matrix::random(96, 96, &mut rng, -50, 50);
    let b_ref = Matrix::random(96, 96, &mut rng, -50, 50);
    let iters = scale(100);
    let ns = time_batches(iters, || {
        multiply(&a_ref, &b_ref).expect("reference GEMM");
    });
    benches.push(record("gemm/multiply_96x96x96", iters, None, ns));

    // 11. One round of the `simulate` benchmark workload, as the
    // `/v1/simulate` handler runs it: the pooled tile loop, the model's
    // prediction and the reference multiply, single-threaded.
    let round = simulate_round()?;
    let pool = ArrayPool::new();
    let run_round = || -> Result<u64, ArrayFlexError> {
        let mut cycles = 0;
        for gemm in &round {
            let run = gemm
                .model
                .simulate_gemm_pooled(&pool, &gemm.a, &gemm.b, gemm.k, 1)?;
            assert!(run.functionally_correct && run.cycles_match());
            cycles += run.stats.total_cycles();
        }
        Ok(cycles)
    };
    let cycles = run_round()?;
    let iters = scale(10);
    let ns = time_batches(iters, || {
        run_round().expect("simulate round");
    });
    benches.push(record(SIMULATE_ROUND, iters, Some(cycles), ns));

    // 12. Compact JSON rendering of the `/v1/plan` golden response: the
    // ArrayFlex plan of ResNet-34 on a 128x128 array (10,431 bytes).
    let plan = ArrayFlexModel::new(128, 128)?
        .plan_arrayflex(&cnn::models::resnet34(), DepthwiseMapping::default())?;
    let iters = scale(2000);
    let ns = time_batches(iters, || {
        black_box(serde_json::to_string(&plan).expect("plans serialize"));
    });
    benches.push(record(ENCODE_PLAN, iters, None, ns));

    Ok(BaselineReport {
        schema: SCHEMA_VERSION,
        quick,
        benches,
    })
}

/// Checks a decoded report against the schema the repository commits:
/// known version, non-empty bench list, positive timings, and
/// `cycles_per_sec` consistent with `cycles_per_iter / ns_per_iter`.
///
/// # Errors
///
/// Returns a human-readable description of the first violation.
pub fn validate_report(report: &BaselineReport) -> Result<(), String> {
    if report.schema != SCHEMA_VERSION {
        return Err(format!(
            "unsupported schema version {} (expected {SCHEMA_VERSION})",
            report.schema
        ));
    }
    if report.benches.is_empty() {
        return Err("report lists no benches".to_owned());
    }
    for bench in &report.benches {
        if bench.name.is_empty() {
            return Err("a bench record has an empty name".to_owned());
        }
        if bench.threads == 0 || bench.iters == 0 {
            return Err(format!("bench {}: zero threads or iterations", bench.name));
        }
        if !(bench.ns_per_iter.is_finite() && bench.ns_per_iter > 0.0) {
            return Err(format!("bench {}: non-positive ns/iter", bench.name));
        }
        match (bench.cycles_per_iter, bench.cycles_per_sec) {
            (Some(cycles), Some(rate)) => {
                let expected = cycles as f64 * 1e9 / bench.ns_per_iter;
                if !(rate.is_finite() && rate > 0.0) || (rate - expected).abs() > expected * 1e-6 {
                    return Err(format!(
                        "bench {}: cycles_per_sec {rate} inconsistent with \
                         {cycles} cycles at {} ns/iter",
                        bench.name, bench.ns_per_iter
                    ));
                }
            }
            (None, None) => {}
            _ => {
                return Err(format!(
                    "bench {}: cycles_per_iter and cycles_per_sec must be \
                     both present or both absent",
                    bench.name
                ));
            }
        }
    }
    Ok(())
}

/// One bench present in both sides of a baseline comparison.
#[derive(Debug, Clone)]
pub struct BenchDelta {
    /// Stable bench name.
    pub name: String,
    /// ns/iter of the old (reference) report.
    pub old_ns: f64,
    /// ns/iter of the new (candidate) report.
    pub new_ns: f64,
    /// `old_ns / new_ns`: > 1 is a speedup, < 1 a slowdown.
    pub speedup: f64,
}

impl BenchDelta {
    /// Whether this bench slowed down by more than `max_regression`
    /// (e.g. `1.3` tolerates up to a 1.3x slowdown before failing).
    #[must_use]
    pub fn regressed(&self, max_regression: f64) -> bool {
        self.new_ns > self.old_ns * max_regression
    }
}

/// Result of comparing two baseline reports by bench name.
#[derive(Debug, Clone)]
pub struct BaselineComparison {
    /// Benches present in both reports, in the old report's order.
    pub deltas: Vec<BenchDelta>,
    /// Bench names only the old report has (a silently dropped bench is
    /// treated as a regression).
    pub missing: Vec<String>,
    /// The tolerated slowdown factor regressions are judged against.
    pub max_regression: f64,
}

impl BaselineComparison {
    /// The deltas that regressed beyond the tolerated factor.
    #[must_use]
    pub fn regressions(&self) -> Vec<&BenchDelta> {
        self.deltas
            .iter()
            .filter(|d| d.regressed(self.max_regression))
            .collect()
    }

    /// `true` when no bench regressed and none disappeared.
    #[must_use]
    pub fn passed(&self) -> bool {
        self.missing.is_empty() && self.regressions().is_empty()
    }

    /// Renders the per-bench speedup table plus a verdict line.
    #[must_use]
    pub fn text(&self) -> String {
        let mut table =
            crate::TextTable::new(vec!["bench", "old ns/iter", "new ns/iter", "speedup", ""]);
        for delta in &self.deltas {
            table.push_row(vec![
                delta.name.clone(),
                format!("{:.0}", delta.old_ns),
                format!("{:.0}", delta.new_ns),
                format!("{:.2}x", delta.speedup),
                if delta.regressed(self.max_regression) {
                    "REGRESSED".to_owned()
                } else {
                    String::new()
                },
            ]);
        }
        let mut out = format!(
            "Baseline comparison (fail beyond {:.2}x slowdown)\n{}",
            self.max_regression,
            table.render()
        );
        for name in &self.missing {
            out.push_str(&format!("\nMISSING in new report: {name}"));
        }
        out.push_str(if self.passed() {
            "\nok: no bench regressed"
        } else {
            "\nFAIL: benches regressed"
        });
        out
    }
}

/// Compares two baseline reports bench by bench (matched on the stable
/// name). `max_regression` is the tolerated slowdown factor: a bench
/// whose new ns/iter exceeds `old * max_regression` counts as regressed,
/// as does a bench that disappeared from the new report. Benches only the
/// new report has are ignored (adding coverage is never a regression).
#[must_use]
pub fn compare_reports(
    old: &BaselineReport,
    new: &BaselineReport,
    max_regression: f64,
) -> BaselineComparison {
    let mut deltas = Vec::new();
    let mut missing = Vec::new();
    for bench in &old.benches {
        match new.bench(&bench.name) {
            Some(candidate) => deltas.push(BenchDelta {
                name: bench.name.clone(),
                old_ns: bench.ns_per_iter,
                new_ns: candidate.ns_per_iter,
                speedup: bench.ns_per_iter / candidate.ns_per_iter,
            }),
            None => missing.push(bench.name.clone()),
        }
    }
    BaselineComparison {
        deltas,
        missing,
        max_regression,
    }
}

/// Renders the report as an aligned text table.
#[must_use]
pub fn baseline_text(report: &BaselineReport) -> String {
    let mut table =
        crate::TextTable::new(vec!["bench", "threads", "iters", "ns/iter", "cycles/sec"]);
    for bench in &report.benches {
        table.push_row(vec![
            bench.name.clone(),
            bench.threads.to_string(),
            bench.iters.to_string(),
            format!("{:.0}", bench.ns_per_iter),
            bench
                .cycles_per_sec
                .map_or_else(|| "-".to_owned(), |c| format!("{c:.3e}")),
        ]);
    }
    let mode = if report.quick { " (quick)" } else { "" };
    format!("Simulator-core perf baseline{mode}\n{}", table.render())
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn quick_baseline_runs_and_round_trips_through_json() {
        let report = simcore_baseline(true).unwrap();
        assert!(report.quick);
        assert_eq!(report.benches.len(), 12);
        assert!(report.bench(SIMULATE_ROUND).is_some());
        assert!(report.bench(SKINNY_GEMM).is_some());
        validate_report(&report).unwrap();
        assert!(report.bench(DRAIN_HEAVY_FAST).is_some());
        assert!(report.bench("simcore/nope").is_none());
        // The simulator benches report a cycle rate, the gemm benches none.
        for bench in &report.benches {
            assert_eq!(
                bench.cycles_per_sec.is_some(),
                bench.name.starts_with("simcore/"),
                "{}",
                bench.name
            );
        }
        let json = serde_json::to_string_pretty(&report).unwrap();
        let decoded: BaselineReport = serde_json::from_str(&json).unwrap();
        validate_report(&decoded).unwrap();
        assert_eq!(decoded.benches.len(), report.benches.len());
        assert!(baseline_text(&decoded).contains("cycles/sec"));
    }

    #[test]
    fn comparison_flags_regressions_and_missing_benches() {
        let old = simcore_baseline(true).unwrap();
        // Identical reports compare clean at any threshold.
        let same = compare_reports(&old, &old, 1.0);
        assert!(same.passed());
        assert!(same.text().contains("ok: no bench regressed"));
        assert!(same.deltas.iter().all(|d| (d.speedup - 1.0).abs() < 1e-9));

        // A 2x slowdown on one bench fails a 1.3x gate but passes a 3x one.
        let mut slow = old.clone();
        slow.benches[0].ns_per_iter *= 2.0;
        slow.benches[0].cycles_per_sec = slow.benches[0].cycles_per_sec.map(|c| c / 2.0);
        let fail = compare_reports(&old, &slow, 1.3);
        assert!(!fail.passed());
        assert_eq!(fail.regressions().len(), 1);
        assert_eq!(fail.regressions()[0].name, old.benches[0].name);
        assert!(fail.text().contains("REGRESSED"));
        assert!(compare_reports(&old, &slow, 3.0).passed());

        // A bench disappearing from the new report is a failure too.
        let mut dropped = old.clone();
        dropped.benches.remove(0);
        let fail = compare_reports(&old, &dropped, 1.3);
        assert!(!fail.passed());
        assert_eq!(fail.missing, vec![old.benches[0].name.clone()]);
        assert!(fail.text().contains("MISSING"));
        // Extra benches in the new report are fine.
        assert!(compare_reports(&dropped, &old, 1.3).passed());
    }

    #[test]
    fn validation_rejects_malformed_reports() {
        let good = simcore_baseline(true).unwrap();
        let mut bad = good.clone();
        bad.schema = 99;
        assert!(validate_report(&bad).is_err());
        let mut bad = good.clone();
        bad.benches.clear();
        assert!(validate_report(&bad).is_err());
        let mut bad = good.clone();
        bad.benches[0].ns_per_iter = -1.0;
        assert!(validate_report(&bad).is_err());
        let mut bad = good.clone();
        bad.benches[0].cycles_per_sec = Some(1.0);
        assert!(validate_report(&bad).is_err());
        let mut bad = good;
        bad.benches[0].cycles_per_sec = None;
        assert!(validate_report(&bad).is_err());
    }
}
