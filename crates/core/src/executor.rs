//! Simulator-backed execution: running real GEMMs on the cycle-accurate
//! array and cross-checking them against the analytical model.
//!
//! The analytical model predicts cycle counts from Equations (1)–(4); the
//! cycle-accurate simulator in [`sa_sim`] executes the dataflow register by
//! register. [`ArrayFlexModel::simulate_gemm`] runs both and reports whether
//! they agree, which is the reproduction's substitute for validating the
//! latency model against RTL simulation.

use crate::error::ArrayFlexError;
use crate::model::{ArrayFlexModel, LayerExecution};
use gemm::{multiply, CancelToken, GemmDims, Matrix};
use sa_sim::{ArrayPool, RunStats, Simulator};

/// Result of executing a GEMM on the cycle-accurate simulator alongside the
/// analytical prediction.
#[derive(Debug, Clone, PartialEq)]
pub struct SimulatedExecution {
    /// The simulated product (bit-exact integer result).
    pub output: Matrix<i64>,
    /// Statistics of the cycle-accurate run.
    pub stats: RunStats,
    /// The analytical prediction for the same GEMM and mode.
    pub predicted: LayerExecution,
    /// Whether the simulated output matched the reference GEMM.
    pub functionally_correct: bool,
}

impl SimulatedExecution {
    /// Returns `true` if the simulated cycle count equals the analytical
    /// prediction.
    #[must_use]
    pub fn cycles_match(&self) -> bool {
        self.stats.total_cycles() == self.predicted.cycles
    }
}

impl ArrayFlexModel {
    /// Executes `A x B` on the cycle-accurate ArrayFlex simulator with
    /// collapsing depth `k` and cross-checks both the functional result
    /// (against the reference GEMM) and the cycle count (against the
    /// analytical model).
    ///
    /// The array size of the simulation is the model's `R x C`; keep it
    /// modest (tens of PEs) when calling this in tests, since the simulator
    /// evaluates every PE every cycle.
    ///
    /// # Errors
    ///
    /// Returns an error if the operands are incompatible, the configuration
    /// is invalid, or the simulation itself fails.
    pub fn simulate_gemm(
        &self,
        a: &Matrix<i32>,
        b: &Matrix<i32>,
        k: u32,
    ) -> Result<SimulatedExecution, ArrayFlexError> {
        self.simulate_gemm_threads(a, b, k, 1)
    }

    /// [`ArrayFlexModel::simulate_gemm`] with the independent tiles of the
    /// tiled GEMM simulated on `threads` worker threads (`0` auto-detects
    /// the hardware parallelism, `1` is serial).
    ///
    /// Tile-parallel simulation is bit-identical to the serial run: the
    /// functional output, the aggregated [`RunStats`] and the cycle
    /// cross-check are all unchanged, only the wall-clock time drops.
    ///
    /// # Examples
    ///
    /// ```
    /// use arrayflex::ArrayFlexModel;
    /// use gemm::{Matrix, rng::SplitMix64};
    ///
    /// let model = ArrayFlexModel::new(8, 8)?;
    /// let mut rng = SplitMix64::new(5);
    /// let a = Matrix::random(6, 20, &mut rng, -30, 30);
    /// let b = Matrix::random(20, 10, &mut rng, -30, 30);
    /// let serial = model.simulate_gemm(&a, &b, 2)?;
    /// let parallel = model.simulate_gemm_threads(&a, &b, 2, 4)?;
    /// assert!(parallel.functionally_correct);
    /// assert_eq!(parallel, serial);
    /// # Ok::<(), arrayflex::ArrayFlexError>(())
    /// ```
    ///
    /// # Errors
    ///
    /// Same as [`ArrayFlexModel::simulate_gemm`].
    pub fn simulate_gemm_threads(
        &self,
        a: &Matrix<i32>,
        b: &Matrix<i32>,
        k: u32,
        threads: usize,
    ) -> Result<SimulatedExecution, ArrayFlexError> {
        self.simulate_gemm_pooled(&ArrayPool::new(), a, b, k, threads)
    }

    /// [`ArrayFlexModel::simulate_gemm_threads`] drawing its
    /// [`SystolicArray`](sa_sim::SystolicArray) instances from a
    /// caller-owned [`ArrayPool`], so long-lived hosts — most prominently
    /// the `/v1/simulate` route of `arrayflex-serve` — reuse array state
    /// buffers across requests instead of reinitializing them per GEMM.
    /// Results are bit-identical to the unpooled call.
    ///
    /// # Errors
    ///
    /// Same as [`ArrayFlexModel::simulate_gemm`].
    pub fn simulate_gemm_pooled(
        &self,
        pool: &ArrayPool,
        a: &Matrix<i32>,
        b: &Matrix<i32>,
        k: u32,
        threads: usize,
    ) -> Result<SimulatedExecution, ArrayFlexError> {
        self.simulate_gemm_cancellable(pool, a, b, k, threads, &CancelToken::new())
    }

    /// [`ArrayFlexModel::simulate_gemm_pooled`] polling a [`CancelToken`]
    /// between tiles, so a serving layer can stop an abandoned or
    /// deadline-expired simulation within one tile boundary. Pooled arrays
    /// are checked back in inside each tile job, so cancellation never
    /// leaks pool slots; an uncancelled run is bit-identical to the plain
    /// pooled call.
    ///
    /// # Errors
    ///
    /// Returns [`ArrayFlexError::Cancelled`] when the token fired before
    /// every tile completed, otherwise the same errors as
    /// [`ArrayFlexModel::simulate_gemm_pooled`].
    pub fn simulate_gemm_cancellable(
        &self,
        pool: &ArrayPool,
        a: &Matrix<i32>,
        b: &Matrix<i32>,
        k: u32,
        threads: usize,
        token: &CancelToken,
    ) -> Result<SimulatedExecution, ArrayFlexError> {
        let dims = GemmDims::new(b.cols() as u64, a.cols() as u64, a.rows() as u64);
        let predicted = self.execute_arrayflex(dims, k)?;
        let simulator = Simulator::new(self.array_config(k))?.threads(threads);
        let run = simulator.run_gemm_cancellable(pool, a, b, token)?;
        let reference = multiply(a, b)?;
        let functionally_correct = run.output == reference;
        Ok(SimulatedExecution {
            output: run.output,
            stats: run.stats,
            predicted,
            functionally_correct,
        })
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use gemm::rng::SplitMix64;

    fn operands(t: usize, n: usize, m: usize, seed: u64) -> (Matrix<i32>, Matrix<i32>) {
        let mut rng = SplitMix64::new(seed);
        (
            Matrix::random(t, n, &mut rng, -30, 30),
            Matrix::random(n, m, &mut rng, -30, 30),
        )
    }

    #[test]
    fn simulation_matches_the_analytical_model_in_every_mode() {
        let model = ArrayFlexModel::new(8, 8).unwrap();
        let (a, b) = operands(6, 20, 10, 5);
        for k in [1, 2, 4] {
            let result = model.simulate_gemm(&a, &b, k).unwrap();
            assert!(result.functionally_correct, "k = {k}");
            assert!(
                result.cycles_match(),
                "k = {k}: simulated {} cycles, predicted {}",
                result.stats.total_cycles(),
                result.predicted.cycles
            );
        }
    }

    #[test]
    fn simulation_counts_every_mac_of_the_gemm_reduction_grid() {
        let model = ArrayFlexModel::new(4, 4).unwrap();
        let (a, b) = operands(3, 8, 4, 7);
        let result = model.simulate_gemm(&a, &b, 2).unwrap();
        // Two reduction tiles of 3x4x4 MACs each; padded columns do not
        // contribute because their operands stream real data while weights
        // are zero — the simulator counts operand-valid MACs.
        assert_eq!(result.stats.macs, 2 * 3 * 4 * 4);
        assert_eq!(result.stats.tiles, 2);
    }

    #[test]
    fn output_stationary_simulation_matches_model_and_reference() {
        use sa_sim::Dataflow;
        let model = ArrayFlexModel::new(8, 8)
            .unwrap()
            .with_dataflow(Dataflow::OutputStationary);
        let (a, b) = operands(6, 20, 10, 5);
        for k in [1, 2, 4] {
            let result = model.simulate_gemm(&a, &b, k).unwrap();
            assert!(result.functionally_correct, "k = {k}");
            assert!(
                result.cycles_match(),
                "k = {k}: simulated {} cycles, predicted {}",
                result.stats.total_cycles(),
                result.predicted.cycles
            );
            // No weight preload in the output-stationary dataflow.
            assert_eq!(result.stats.load_cycles, 0, "k = {k}");
        }
    }

    #[test]
    fn tile_parallel_simulation_matches_serial() {
        let model = ArrayFlexModel::new(8, 8).unwrap();
        let (a, b) = operands(5, 25, 18, 3);
        for k in [1, 2, 4] {
            let serial = model.simulate_gemm(&a, &b, k).unwrap();
            for threads in [0usize, 2, 5] {
                let parallel = model.simulate_gemm_threads(&a, &b, k, threads).unwrap();
                assert_eq!(parallel, serial, "k = {k}, threads = {threads}");
                assert!(parallel.cycles_match(), "k = {k}, threads = {threads}");
            }
        }
    }

    #[test]
    fn pooled_simulation_matches_the_unpooled_run_across_requests() {
        let model = ArrayFlexModel::new(8, 8).unwrap();
        let pool = ArrayPool::new();
        for (seed, k) in [(11u64, 1u32), (12, 2), (13, 4), (14, 2)] {
            let (a, b) = operands(4, 18, 9, seed);
            let pooled = model.simulate_gemm_pooled(&pool, &a, &b, k, 1).unwrap();
            let direct = model.simulate_gemm(&a, &b, k).unwrap();
            assert_eq!(pooled, direct, "seed {seed} k {k}");
        }
        // The serial path keeps exactly one array per configuration around.
        assert!((1..=3).contains(&pool.len()), "pool holds {}", pool.len());
    }

    #[test]
    fn invalid_depths_are_rejected_before_simulation() {
        let model = ArrayFlexModel::new(8, 8).unwrap();
        let (a, b) = operands(2, 8, 8, 9);
        assert!(model.simulate_gemm(&a, &b, 0).is_err());
        assert!(model.simulate_gemm(&a, &b, 16).is_err());
    }
}
