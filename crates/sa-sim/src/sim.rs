//! Whole-GEMM simulation: tiles, verification and statistics aggregation.
//!
//! [`Simulator::run_gemm_cancellable`] is the one loop over a GEMM's
//! tiles. Each tile reads its operand blocks in place and returns its
//! product over the part of the tile inside the output, so a GEMM whose
//! dimensions are not multiples of the array edges simulates no
//! multiply-accumulate on its tiles' zero padding, while every tile's
//! [`RunStats`] still count the whole array-sized tile.

use crate::backend::TileEngine;
use crate::config::{ArrayConfig, Dataflow};
use crate::error::SimError;
use crate::soa::TileOperand;
use crate::stats::RunStats;
use gemm::{multiply, CancelToken, GemmDims, GemmError, Matrix, ParallelExecutor, TileGrid};
use serde::{Deserialize, Serialize};
use std::sync::{Mutex, PoisonError};

/// Upper bound on the arrays an [`ArrayPool`] keeps alive; checkins beyond
/// it simply drop the array. Workers of the GEMM tile loop never hold more
/// than one array each, so this comfortably covers every supported thread
/// count.
const MAX_POOLED_ARRAYS: usize = 32;

/// A checkout/checkin pool of [`TileEngine`] instances (array backends of
/// either dataflow).
///
/// Constructing an array backend initializes several flat state buffers
/// (`vec![0; ..]` for weights, registers and validity bitsets); doing that
/// once per simulated tile is measurable churn in the GEMM tile loop and
/// across `/v1/simulate` requests. The pool instead recycles arrays:
/// [`ArrayPool::acquire`] hands out a reset array of the requested
/// configuration (constructing one only when none is pooled) and
/// [`ArrayPool::release`] checks it back in for the next caller. Arrays of
/// different configurations — including different **dataflows**, which are
/// part of [`ArrayConfig`] — can share one pool; `acquire` matches on the
/// exact [`ArrayConfig`], so a weight-stationary array is never handed to
/// an output-stationary request or vice versa.
///
/// Pooling is purely an allocation optimization: a pooled array is reset
/// via its backend's `reset_for_tile` on release, which is
/// property-tested to behave exactly like a freshly constructed array.
///
/// # Examples
///
/// ```
/// use sa_sim::{ArrayConfig, ArrayPool};
///
/// let pool = ArrayPool::new();
/// let config = ArrayConfig::new(4, 4).with_collapse_depth(2);
/// let array = pool.acquire(config)?;
/// pool.release(array);
/// // The next acquire of the same configuration reuses the pooled array.
/// assert_eq!(pool.len(), 1);
/// let _reused = pool.acquire(config)?;
/// assert_eq!(pool.len(), 0);
/// # Ok::<(), sa_sim::SimError>(())
/// ```
#[derive(Debug)]
pub struct ArrayPool {
    slots: Mutex<Vec<TileEngine>>,
    /// Checkins beyond this many pooled arrays are dropped.
    max_slots: usize,
}

impl Default for ArrayPool {
    fn default() -> Self {
        Self::new()
    }
}

impl ArrayPool {
    /// Creates an empty pool that accepts arrays of any configuration.
    #[must_use]
    pub fn new() -> Self {
        Self {
            slots: Mutex::new(Vec::new()),
            max_slots: MAX_POOLED_ARRAYS,
        }
    }

    /// Creates an empty pool that retains at most `max_slots` arrays (the
    /// default is 32): long-lived hosts that see many configurations —
    /// the thread-local pool behind [`Simulator::run_tile`], for example
    /// — bound their retained memory this way, at the cost of
    /// reconstructing an array when the working set exceeds the bound.
    #[must_use]
    pub fn bounded(max_slots: usize) -> Self {
        Self {
            slots: Mutex::new(Vec::new()),
            max_slots: max_slots.min(MAX_POOLED_ARRAYS),
        }
    }

    /// Number of arrays currently checked in.
    #[must_use]
    pub fn len(&self) -> usize {
        self.slots
            .lock()
            .unwrap_or_else(PoisonError::into_inner)
            .len()
    }

    /// Returns `true` if no arrays are checked in.
    #[must_use]
    pub fn is_empty(&self) -> bool {
        self.len() == 0
    }

    /// Checks out an array of the given configuration, reusing a pooled one
    /// when available and constructing one otherwise.
    ///
    /// # Errors
    ///
    /// Returns [`SimError::InvalidConfig`] if the configuration is invalid.
    pub fn acquire(&self, config: ArrayConfig) -> Result<TileEngine, SimError> {
        {
            let mut slots = self.slots.lock().unwrap_or_else(PoisonError::into_inner);
            if let Some(position) = slots.iter().position(|a| a.config() == config) {
                return Ok(slots.swap_remove(position));
            }
        }
        TileEngine::new(config)
    }

    /// Checks an array back in after resetting it for the next tile. A
    /// pool already holding 32 arrays drops the checkin instead. Raw
    /// engines ([`SystolicArray`](crate::SystolicArray),
    /// [`OutputStationaryArray`](crate::OutputStationaryArray)) convert
    /// into [`TileEngine`] on the way in.
    ///
    /// The checkin's `reset_for_tile` clears the pipelines and statistics
    /// a previous user left on the array, so the next checkout observes
    /// factory defaults.
    pub fn release(&self, array: impl Into<TileEngine>) {
        let mut array = array.into();
        array.reset_for_tile();
        let mut slots = self.slots.lock().unwrap_or_else(PoisonError::into_inner);
        if slots.len() < self.max_slots {
            slots.push(array);
        }
    }
}

/// Result of simulating a single array-sized tile.
#[derive(Debug, Clone, PartialEq)]
pub struct TileResult {
    /// The `T x C` partial product produced at the south edge.
    pub output: Matrix<i64>,
    /// Cycle-level statistics of this tile.
    pub stats: RunStats,
}

/// Result of simulating a complete (possibly tiled) GEMM.
#[derive(Debug, Clone, PartialEq)]
pub struct GemmResult {
    /// The full `T x M` product.
    pub output: Matrix<i64>,
    /// Aggregated statistics over all tiles.
    pub stats: RunStats,
    /// The tile grid the GEMM was decomposed into.
    pub grid_dims: GemmDims,
}

/// Summary of a latency cross-check between the simulator and the analytical
/// model (Equations 1–4 of the paper).
#[derive(Debug, Clone, Copy, PartialEq, Eq, Serialize, Deserialize)]
pub struct LatencyCheck {
    /// Cycles measured by the cycle-accurate simulation.
    pub simulated_cycles: u64,
    /// Cycles predicted by the analytical model.
    pub analytical_cycles: u64,
}

impl LatencyCheck {
    /// Returns `true` if the simulation matched the model exactly.
    #[must_use]
    pub fn matches(&self) -> bool {
        self.simulated_cycles == self.analytical_cycles
    }
}

/// Cycle-accurate simulator of one systolic-array configuration.
///
/// Every GEMM runs through one tile loop,
/// [`Simulator::run_gemm_cancellable`]. By default it is **serial**: the
/// tiles run inline and in order on the calling thread. The
/// [`Simulator::threads`] builder fans them out across worker threads
/// instead. Either way each tile checks a
/// [`SystolicArray`](crate::SystolicArray) (or its output-stationary twin)
/// out of an [`ArrayPool`] and back in, and a pooled array is reset
/// between tiles, which is property-tested equivalent to a fresh array.
/// The partial products are added into the output with wrapping adds,
/// which commute, so every thread count gives a bit-identical result.
///
/// # Examples
///
/// ```
/// use gemm::{multiply, Matrix};
/// use gemm::rng::SplitMix64;
/// use sa_sim::{ArrayConfig, Simulator};
///
/// let mut rng = SplitMix64::new(9);
/// let a = Matrix::random(5, 12, &mut rng, -9, 9);
/// let b = Matrix::random(12, 10, &mut rng, -9, 9);
/// let simulator = Simulator::new(ArrayConfig::new(8, 8).with_collapse_depth(2))?;
/// let result = simulator.run_gemm(&a, &b)?;
/// assert_eq!(result.output, multiply(&a, &b)?);
/// # Ok::<(), sa_sim::SimError>(())
/// ```
#[derive(Debug, Clone, Copy, PartialEq, Eq, Serialize, Deserialize)]
pub struct Simulator {
    config: ArrayConfig,
    threads: usize,
}

impl Simulator {
    /// Creates a serial simulator for the given array configuration.
    ///
    /// # Errors
    ///
    /// Returns [`SimError::InvalidConfig`] if the configuration is invalid.
    pub fn new(config: ArrayConfig) -> Result<Self, SimError> {
        config.validate()?;
        Ok(Self { config, threads: 1 })
    }

    /// Returns a copy that simulates independent tiles of a tiled GEMM on
    /// `n` worker threads (`0` auto-detects the hardware parallelism, `1`
    /// is serial).
    ///
    /// Tile-parallel execution is deterministic: partial products are
    /// accumulated in tile order and the per-tile [`RunStats`] sum is
    /// order-independent, so any thread count produces bit-identical
    /// [`GemmResult`]s.
    ///
    /// # Examples
    ///
    /// ```
    /// use gemm::{Matrix, rng::SplitMix64};
    /// use sa_sim::{ArrayConfig, Simulator};
    ///
    /// let mut rng = SplitMix64::new(3);
    /// let a = Matrix::random(6, 20, &mut rng, -9, 9);
    /// let b = Matrix::random(20, 12, &mut rng, -9, 9);
    /// let serial = Simulator::new(ArrayConfig::new(8, 8))?;
    /// let parallel = serial.threads(4);
    /// let s = serial.run_gemm(&a, &b)?;
    /// let p = parallel.run_gemm(&a, &b)?;
    /// assert_eq!(s.output, p.output);
    /// assert_eq!(s.stats, p.stats);
    /// # Ok::<(), sa_sim::SimError>(())
    /// ```
    #[must_use]
    pub const fn threads(mut self, n: usize) -> Self {
        self.threads = n;
        self
    }

    /// Returns a copy that simulates tiles serially on the calling thread
    /// (the default).
    #[must_use]
    pub const fn serial(mut self) -> Self {
        self.threads = 1;
        self
    }

    /// The configured worker-thread count (`0` = auto-detect, `1` =
    /// serial).
    #[must_use]
    pub fn thread_count(&self) -> usize {
        self.threads
    }

    /// The array configuration being simulated.
    #[must_use]
    pub fn config(&self) -> ArrayConfig {
        self.config
    }

    /// Simulates one tile: `A_sub` times `B_sub`, already padded to the
    /// dataflow's tile shape (weight-stationary: `T x R` times `R x C`;
    /// output-stationary: `R x N` times `N x C` — see
    /// [`crate::backend`] for the per-dataflow operand contract).
    ///
    /// The backing [`TileEngine`] is drawn from a thread-local
    /// [`ArrayPool`], so repeated single-tile simulations (benchmarks,
    /// tests, service requests outside a pooled GEMM) reuse state buffers
    /// instead of reinitializing them per call; pooling is
    /// property-tested equivalent to a fresh array.
    ///
    /// # Errors
    ///
    /// Returns dimension errors if the operands do not match the array, or
    /// an internal schedule violation (which would indicate a simulator
    /// bug).
    pub fn run_tile(
        &self,
        a_sub: &Matrix<i32>,
        b_sub: &Matrix<i32>,
    ) -> Result<TileResult, SimError> {
        // A handful of retained arrays covers repeated-tile callers
        // (benchmarks, tests, service handlers) while keeping the
        // per-thread memory residency small for callers that sweep many
        // geometries on one long-lived thread.
        thread_local! {
            static TILE_POOL: ArrayPool = ArrayPool::bounded(4);
        }
        TILE_POOL.with(|pool| {
            let mut engine = pool.acquire(self.config)?;
            let result = engine.execute_tile(a_sub, b_sub);
            pool.release(engine);
            result
        })
    }

    /// Simulates a complete GEMM `A (T x N)` times `B (N x M)`, tiling it
    /// over the array and accumulating the partial sums of vertically
    /// adjacent tiles in the output accumulators, exactly as in Fig. 1 of
    /// the paper.
    ///
    /// Independent tiles are simulated concurrently when
    /// [`Simulator::threads`] configured more than one worker; results are
    /// bit-identical to the serial run either way.
    ///
    /// # Errors
    ///
    /// Returns dimension errors if `A` and `B` are incompatible.
    pub fn run_gemm(&self, a: &Matrix<i32>, b: &Matrix<i32>) -> Result<GemmResult, SimError> {
        self.run_gemm_pooled(&ArrayPool::new(), a, b)
    }

    /// [`Simulator::run_gemm`] drawing its [`SystolicArray`](crate::SystolicArray) instances from
    /// a caller-owned [`ArrayPool`], so long-lived hosts (the tile-parallel
    /// sweeps, the `/v1/simulate` service route) reuse array state buffers
    /// across whole GEMMs instead of reinitializing them per run.
    ///
    /// Results are bit-identical to [`Simulator::run_gemm`]; the pool only
    /// changes where the arrays' memory comes from.
    ///
    /// # Errors
    ///
    /// Same as [`Simulator::run_gemm`].
    pub fn run_gemm_pooled(
        &self,
        pool: &ArrayPool,
        a: &Matrix<i32>,
        b: &Matrix<i32>,
    ) -> Result<GemmResult, SimError> {
        self.run_gemm_cancellable(pool, a, b, &CancelToken::new())
    }

    /// The simulator's one tile loop: [`Simulator::run_gemm_pooled`]
    /// polling a [`CancelToken`] between tiles. When the token fires
    /// (explicitly or through its deadline), the simulation stops at the
    /// next tile boundary with [`SimError::Cancelled`].
    ///
    /// The tiles go to a [`ParallelExecutor`] of the configured thread
    /// count, which runs them inline and in order at one thread. No tile
    /// copies its operands: each reads its blocks of `A` and `B` in place
    /// at its origin, with zeros past the matrices' edges, exactly the
    /// blocks `Matrix::padded_block` would copy out for
    /// [`TileEngine::execute_tile`], and simulates the padding past the
    /// edges without multiplying it. Each tile
    /// checks its array out of `pool` and back in, so cancellation — which
    /// is only ever observed **between** tiles — cannot leak a pooled
    /// array, and the pool and simulator are immediately reusable
    /// afterwards. An uncancelled run is bit-identical to
    /// [`Simulator::run_gemm_pooled`].
    ///
    /// # Errors
    ///
    /// Returns [`SimError::Cancelled`] when the token fired before every
    /// tile completed, otherwise the same errors as
    /// [`Simulator::run_gemm_pooled`].
    pub fn run_gemm_cancellable(
        &self,
        pool: &ArrayPool,
        a: &Matrix<i32>,
        b: &Matrix<i32>,
        token: &CancelToken,
    ) -> Result<GemmResult, SimError> {
        if a.cols() != b.rows() {
            return Err(SimError::from(GemmError::IncompatibleDimensions {
                left_cols: a.cols(),
                right_rows: b.rows(),
            }));
        }
        let dims = GemmDims::new(b.cols() as u64, a.cols() as u64, a.rows() as u64);
        let (rows, cols) = (self.config.rows as usize, self.config.cols as usize);
        // The dataflow's operand contract (see `backend.rs`) fixes how far a
        // tile spans `T` and the reduction `N`, and how many bands tile the
        // other one. A weight-stationary tile streams all of `T` through an
        // `R`-deep slice of `N`; an output-stationary tile owns `R` rows of
        // the output and reduces all of `N`. Both tile `M` `C` columns wide.
        let (t_len, n_len, t_bands, n_bands) = match self.config.dataflow {
            Dataflow::WeightStationary => {
                dims.validate()?;
                (a.rows(), rows, 1, a.cols().div_ceil(rows))
            }
            Dataflow::OutputStationary => (rows, a.cols(), a.rows().div_ceil(rows), 1),
        };
        let m_bands = b.cols().div_ceil(cols);
        let mut tiles = Vec::with_capacity(t_bands * n_bands * m_bands);
        for ti in 0..t_bands {
            for ni in 0..n_bands {
                for mi in 0..m_bands {
                    tiles.push((ti * t_len, ni * n_len, mi * cols));
                }
            }
        }
        let executor = ParallelExecutor::new(self.threads);
        let results = executor.try_run_cancellable(tiles, token, |(t0, n0, m0)| {
            let a_sub = TileOperand::block(a, t0, n0, t_len, n_len);
            let b_sub = TileOperand::block(b, n0, m0, n_len, cols);
            let mut engine = pool.acquire(self.config)?;
            let result = engine.execute_operands(a_sub, b_sub);
            pool.release(engine);
            result.map(|tile| (t0, m0, tile))
        })?;
        // Each tile's product covers the part of its block inside the
        // output and lands at the block's origin. Weight-stationary
        // partials of one column band add up; output-stationary blocks
        // are disjoint, so their adds land on zeros. Wrapping adds
        // commute, so the order of tiles is moot.
        let mut output = Matrix::<i64>::zeros(a.rows(), b.cols());
        for (t0, m0, tile) in &results {
            let width = tile.output.cols();
            for r in 0..tile.output.rows() {
                let dst = &mut output.row_mut(t0 + r)[*m0..m0 + width];
                for (acc, &delta) in dst.iter_mut().zip(tile.output.row(r)) {
                    *acc = acc.wrapping_add(delta);
                }
            }
        }
        Ok(GemmResult {
            output,
            stats: results.iter().map(|(_, _, tile)| tile.stats).sum(),
            grid_dims: dims,
        })
    }

    /// Simulates a complete GEMM and verifies the result against the
    /// reference multiplication, element by element.
    ///
    /// # Errors
    ///
    /// Returns [`SimError::VerificationFailed`] on the first mismatching
    /// element, or any simulation error.
    pub fn run_gemm_verified(
        &self,
        a: &Matrix<i32>,
        b: &Matrix<i32>,
    ) -> Result<GemmResult, SimError> {
        let result = self.run_gemm(a, b)?;
        let expected = multiply(a, b)?;
        for row in 0..expected.rows() {
            for col in 0..expected.cols() {
                if result.output[(row, col)] != expected[(row, col)] {
                    return Err(SimError::VerificationFailed {
                        row,
                        col,
                        simulated: result.output[(row, col)],
                        expected: expected[(row, col)],
                    });
                }
            }
        }
        Ok(result)
    }

    /// Cross-checks the simulated cycle count of a whole GEMM against the
    /// analytical tiled-latency model: for the weight-stationary dataflow
    /// `L(k) * ceil(N/R) * ceil(M/C)` (Equations 2 and 4 of the paper),
    /// for the output-stationary dataflow the stream-and-drain tile cost
    /// [`ArrayConfig::os_tile_cycles`] times the `ceil(T/R) * ceil(M/C)`
    /// output-space grid.
    ///
    /// # Errors
    ///
    /// Propagates simulation errors.
    pub fn latency_check(
        &self,
        dims: GemmDims,
        a: &Matrix<i32>,
        b: &Matrix<i32>,
    ) -> Result<LatencyCheck, SimError> {
        let result = self.run_gemm(a, b)?;
        let analytical = match self.config.dataflow {
            Dataflow::WeightStationary => {
                let grid = TileGrid::new(dims, self.config.rows, self.config.cols)?;
                self.config.tile_latency(dims.t) * grid.tile_count()
            }
            Dataflow::OutputStationary => {
                let tiles = dims.t.div_ceil(u64::from(self.config.rows))
                    * dims.m.div_ceil(u64::from(self.config.cols));
                self.config.os_tile_cycles(dims.n) * tiles
            }
        };
        Ok(LatencyCheck {
            simulated_cycles: result.stats.total_cycles(),
            analytical_cycles: analytical,
        })
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::array::SystolicArray;
    use gemm::rng::SplitMix64;

    fn random_pair(t: usize, n: usize, m: usize, seed: u64) -> (Matrix<i32>, Matrix<i32>) {
        let mut rng = SplitMix64::new(seed);
        (
            Matrix::random(t, n, &mut rng, -20, 20),
            Matrix::random(n, m, &mut rng, -20, 20),
        )
    }

    #[test]
    fn extreme_operands_give_one_product_on_every_path() {
        // i32::MIN/i32::MAX operands overflow i64 within a tile's reduction
        // and across tiles; the arrays' adders wrap, so every reference
        // path must wrap identically instead of panicking.
        let extremes = [i32::MIN, i32::MAX, i32::MIN, -1, i32::MAX];
        let a = Matrix::from_fn(5, 12, |t, n| extremes[(t + 2 * n) % 5]);
        let b = Matrix::from_fn(12, 6, |n, m| extremes[(3 * n + m) % 5]);
        let expected = multiply(&a, &b).unwrap();
        // On a 4x4 array: three WS reduction tiles per output column band.
        assert_eq!(gemm::tiled_multiply(&a, &b, 4, 4).unwrap(), expected);
        let partials: Vec<Matrix<i64>> = (0..3)
            .map(|tile| {
                let a_part = a.padded_block(0, tile * 4, 5, 4);
                let b_part = b.padded_block(tile * 4, 0, 4, 6);
                multiply(&a_part, &b_part).unwrap()
            })
            .collect();
        assert_eq!(gemm::tiling::sum_partials(&partials).unwrap(), expected);
        for dataflow in [Dataflow::WeightStationary, Dataflow::OutputStationary] {
            for k in [1, 2] {
                let config = ArrayConfig::new(4, 4)
                    .with_collapse_depth(k)
                    .with_dataflow(dataflow);
                for threads in [1, 2] {
                    let sim = Simulator::new(config).unwrap().threads(threads);
                    let result = sim.run_gemm(&a, &b).unwrap();
                    assert_eq!(result.output, expected, "{config}, {threads} threads");
                }
            }
        }
    }

    #[test]
    fn single_tile_matches_reference_in_normal_mode() {
        let (a, b) = random_pair(6, 4, 4, 1);
        let sim = Simulator::new(ArrayConfig::new(4, 4)).unwrap();
        let tile = sim.run_tile(&a, &b).unwrap();
        assert_eq!(tile.output, multiply(&a, &b).unwrap());
        // L(1) = 2R + C + T - 2 cycles.
        assert_eq!(tile.stats.total_cycles(), 2 * 4 + 4 + 6 - 2);
        assert_eq!(tile.stats.macs, 6 * 4 * 4);
    }

    #[test]
    fn single_tile_matches_reference_in_shallow_modes() {
        for k in [2, 4] {
            let (a, b) = random_pair(5, 8, 8, u64::from(k));
            let sim = Simulator::new(ArrayConfig::new(8, 8).with_collapse_depth(k)).unwrap();
            let tile = sim.run_tile(&a, &b).unwrap();
            assert_eq!(tile.output, multiply(&a, &b).unwrap(), "k = {k}");
            // L(k) = R + R/k + C/k + T - 2 cycles.
            let expected = 8 + 8 / u64::from(k) + 8 / u64::from(k) + 5 - 2;
            assert_eq!(tile.stats.total_cycles(), expected, "k = {k}");
            assert_eq!(tile.stats.macs, 5 * 8 * 8);
        }
    }

    #[test]
    fn collapse_depth_that_does_not_divide_the_array_still_works() {
        let (a, b) = random_pair(4, 6, 6, 5);
        let sim = Simulator::new(ArrayConfig::new(6, 6).with_collapse_depth(4)).unwrap();
        let tile = sim.run_tile(&a, &b).unwrap();
        assert_eq!(tile.output, multiply(&a, &b).unwrap());
        // ceil(6/4) = 2 blocks in each direction.
        assert_eq!(tile.stats.total_cycles(), 6 + 2 + 2 + 4 - 2);
    }

    #[test]
    fn tiled_gemm_matches_reference_for_every_mode() {
        let (a, b) = random_pair(7, 20, 13, 9);
        for k in [1, 2, 4] {
            let sim = Simulator::new(ArrayConfig::new(8, 8).with_collapse_depth(k)).unwrap();
            let result = sim.run_gemm_verified(&a, &b).unwrap();
            assert_eq!(result.stats.tiles, 3 * 2, "k = {k}");
            assert!(result.stats.utilization() > 0.0);
        }
    }

    #[test]
    fn gemm_cycle_count_matches_the_analytical_model() {
        let dims = GemmDims::new(13, 20, 7);
        let (a, b) = random_pair(7, 20, 13, 11);
        for k in [1, 2, 4] {
            let sim = Simulator::new(ArrayConfig::new(8, 8).with_collapse_depth(k)).unwrap();
            let check = sim.latency_check(dims, &a, &b).unwrap();
            assert!(
                check.matches(),
                "k = {k}: simulated {} != analytical {}",
                check.simulated_cycles,
                check.analytical_cycles
            );
        }
    }

    #[test]
    fn shallow_mode_needs_fewer_cycles_than_normal_mode() {
        let (a, b) = random_pair(10, 16, 16, 3);
        let normal = Simulator::new(ArrayConfig::new(16, 16)).unwrap();
        let shallow = Simulator::new(ArrayConfig::new(16, 16).with_collapse_depth(4)).unwrap();
        let normal_cycles = normal.run_gemm(&a, &b).unwrap().stats.total_cycles();
        let shallow_cycles = shallow.run_gemm(&a, &b).unwrap().stats.total_cycles();
        assert!(shallow_cycles < normal_cycles);
        // Both perform exactly the same number of useful MACs.
        assert_eq!(
            normal.run_gemm(&a, &b).unwrap().stats.macs,
            shallow.run_gemm(&a, &b).unwrap().stats.macs
        );
    }

    #[test]
    fn fast_path_tile_is_bit_identical_to_the_naive_scan() {
        // `run_tile` takes the analytic wavefront kernel, which evaluates
        // only the active blocks; its outputs and RunStats (cycles, MAC
        // counts, register events) must match `trace_tile`, which steps
        // the naive scan of the whole array every cycle, exactly.
        for (rows, cols, k, t, seed) in [
            (4u32, 4u32, 1u32, 6usize, 11u64),
            (8, 8, 2, 3, 12),
            (8, 8, 4, 10, 13),
            (6, 6, 4, 1, 14),
            (12, 4, 2, 5, 15),
        ] {
            let mut rng = SplitMix64::new(seed);
            let a = Matrix::random(t, rows as usize, &mut rng, -40, 40);
            let b = Matrix::random(rows as usize, cols as usize, &mut rng, -40, 40);
            let config = ArrayConfig::new(rows, cols).with_collapse_depth(k);
            let fast = Simulator::new(config).unwrap().run_tile(&a, &b).unwrap();
            let (output, stats, _) = crate::trace_tile(config, &a, &b).unwrap();
            assert_eq!(fast.output, output, "{rows}x{cols} k={k} t={t}");
            assert_eq!(fast.stats, stats, "{rows}x{cols} k={k} t={t}");
        }
    }

    #[test]
    fn parallel_gemm_is_bit_identical_to_serial() {
        let (a, b) = random_pair(9, 30, 21, 17);
        for k in [1, 2, 4] {
            let serial = Simulator::new(ArrayConfig::new(8, 8).with_collapse_depth(k)).unwrap();
            let reference = serial.run_gemm(&a, &b).unwrap();
            for threads in [0, 2, 3, 7] {
                let parallel = serial.threads(threads);
                assert_eq!(parallel.thread_count(), threads);
                let result = parallel.run_gemm(&a, &b).unwrap();
                assert_eq!(result, reference, "k = {k}, threads = {threads}");
            }
            // The serial() builder restores the default.
            assert_eq!(serial.threads(5).serial(), serial);
        }
    }

    #[test]
    fn pooled_gemm_reuses_arrays_and_matches_the_unpooled_run() {
        let (a, b) = random_pair(6, 20, 14, 23);
        let sim = Simulator::new(ArrayConfig::new(8, 8).with_collapse_depth(2)).unwrap();
        let reference = sim.run_gemm(&a, &b).unwrap();
        let pool = ArrayPool::new();
        let first = sim.run_gemm_pooled(&pool, &a, &b).unwrap();
        assert_eq!(first, reference);
        // The serial path checks exactly one array back in ...
        assert_eq!(pool.len(), 1);
        assert!(!pool.is_empty());
        // ... and the next run (even of a different GEMM) reuses it.
        let (a2, b2) = random_pair(3, 10, 9, 24);
        let second = sim.run_gemm_pooled(&pool, &a2, &b2).unwrap();
        assert_eq!(second, sim.run_gemm(&a2, &b2).unwrap());
        assert_eq!(pool.len(), 1);
        // Tile-parallel execution shares the same pool without growing it
        // beyond the worker count, and stays bit-identical.
        let parallel = sim.threads(3).run_gemm_pooled(&pool, &a, &b).unwrap();
        assert_eq!(parallel, reference);
        assert!(pool.len() <= 3);
    }

    #[test]
    fn pool_matches_configurations_exactly() {
        let pool = ArrayPool::new();
        let small = ArrayConfig::new(2, 2);
        let large = ArrayConfig::new(4, 4).with_collapse_depth(2);
        pool.release(SystolicArray::new(small).unwrap());
        // A different configuration constructs a new array and leaves the
        // pooled one in place.
        let acquired = pool.acquire(large).unwrap();
        assert_eq!(acquired.config(), large);
        assert_eq!(pool.len(), 1);
        // The matching configuration is reused.
        let acquired = pool.acquire(small).unwrap();
        assert_eq!(acquired.config(), small);
        assert_eq!(pool.len(), 0);
        // Invalid configurations are rejected, not pooled.
        assert!(pool.acquire(ArrayConfig::new(0, 4)).is_err());
    }

    #[test]
    fn pool_keys_checkouts_by_dataflow() {
        // Satellite regression: a pooled WS array must never satisfy an OS
        // tile request (and vice versa), even for identical geometry.
        let pool = ArrayPool::new();
        let ws = ArrayConfig::new(4, 4).with_collapse_depth(2);
        let os = ws.with_dataflow(Dataflow::OutputStationary);
        pool.release(SystolicArray::new(ws).unwrap());
        assert_eq!(pool.len(), 1);
        // The OS request constructs a fresh OS engine, leaving the pooled
        // WS array untouched.
        let engine = pool.acquire(os).unwrap();
        assert_eq!(engine.dataflow(), Dataflow::OutputStationary);
        assert_eq!(engine.config(), os);
        assert_eq!(pool.len(), 1);
        pool.release(engine);
        assert_eq!(pool.len(), 2);
        // Each dataflow gets its own engine back.
        assert_eq!(
            pool.acquire(ws).unwrap().dataflow(),
            Dataflow::WeightStationary
        );
        assert_eq!(
            pool.acquire(os).unwrap().dataflow(),
            Dataflow::OutputStationary
        );
        assert_eq!(pool.len(), 0);
    }

    #[test]
    fn no_checkin_files_a_ws_engine_under_an_os_configuration() {
        // `SystolicArray::new` rejects an output-stationary configuration,
        // so an OS request is only ever handed an OS engine.
        let os = ArrayConfig::new(4, 4)
            .with_collapse_depth(2)
            .with_dataflow(Dataflow::OutputStationary);
        assert!(matches!(
            SystolicArray::new(os),
            Err(SimError::InvalidConfig { .. })
        ));
        let pool = ArrayPool::new();
        pool.release(TileEngine::new(os).unwrap());
        assert_eq!(
            pool.acquire(os).unwrap().dataflow(),
            Dataflow::OutputStationary
        );
        assert!(pool.is_empty());
    }

    #[test]
    fn os_gemm_matches_the_reference_and_the_analytical_model() {
        let (a, b) = random_pair(7, 20, 13, 31);
        let dims = GemmDims::new(13, 20, 7);
        for k in [1, 2, 4] {
            let config = ArrayConfig::new(8, 8)
                .with_collapse_depth(k)
                .with_dataflow(Dataflow::OutputStationary);
            let sim = Simulator::new(config).unwrap();
            let result = sim.run_gemm_verified(&a, &b).unwrap();
            // Output-space grid: ceil(7/8) x ceil(13/8) = 1 x 2 tiles.
            assert_eq!(result.stats.tiles, 2, "k = {k}");
            assert_eq!(result.stats.load_cycles, 0, "k = {k}");
            let check = sim.latency_check(dims, &a, &b).unwrap();
            assert!(
                check.matches(),
                "k = {k}: simulated {} != analytical {}",
                check.simulated_cycles,
                check.analytical_cycles
            );
        }
    }

    #[test]
    fn os_parallel_gemm_is_bit_identical_to_serial() {
        let (a, b) = random_pair(19, 12, 21, 33);
        for k in [1, 3] {
            let config = ArrayConfig::new(6, 6)
                .with_collapse_depth(k)
                .with_dataflow(Dataflow::OutputStationary);
            let serial = Simulator::new(config).unwrap();
            let reference = serial.run_gemm(&a, &b).unwrap();
            assert_eq!(reference.output, multiply(&a, &b).unwrap());
            for threads in [0, 2, 5] {
                let result = serial.threads(threads).run_gemm(&a, &b).unwrap();
                assert_eq!(result, reference, "k = {k}, threads = {threads}");
            }
        }
    }

    #[test]
    fn os_gemm_rejects_mismatched_operands() {
        let a = Matrix::<i32>::zeros(2, 5);
        let b = Matrix::<i32>::zeros(4, 3);
        let config = ArrayConfig::new(4, 4).with_dataflow(Dataflow::OutputStationary);
        let sim = Simulator::new(config).unwrap();
        assert!(sim.run_gemm(&a, &b).is_err());
        assert!(sim.threads(3).run_gemm(&a, &b).is_err());
    }

    #[test]
    fn bounded_pool_caps_retained_arrays() {
        let pool = ArrayPool::bounded(2);
        for size in [2u32, 3, 4] {
            pool.release(SystolicArray::new(ArrayConfig::new(size, size)).unwrap());
        }
        assert_eq!(pool.len(), 2);
    }

    #[test]
    fn pool_checkin_clears_residual_host_state() {
        let pool = ArrayPool::new();
        let config = ArrayConfig::new(4, 4).with_collapse_depth(2);
        let mut array = SystolicArray::new(config).unwrap();
        // Check the array in dirty: weights loaded, one cycle stepped ...
        array.load_weights(&Matrix::<i32>::zeros(4, 4)).unwrap();
        array.step(&[Some(1), Some(2), None, None]).unwrap();
        assert_ne!(array.stats(), RunStats::default());
        pool.release(array);
        // ... and the next checkout observes factory defaults again.
        let reused = pool.acquire(config).unwrap();
        assert_eq!(reused.stats(), RunStats::default());
    }

    #[test]
    fn parallel_gemm_rejects_mismatched_operands() {
        let a = Matrix::<i32>::zeros(2, 5);
        let b = Matrix::<i32>::zeros(4, 3);
        let sim = Simulator::new(ArrayConfig::new(4, 4)).unwrap().threads(4);
        assert!(sim.run_gemm(&a, &b).is_err());
    }

    #[test]
    fn verification_detects_wrong_results() {
        // Simulate with mismatched operands to trigger an error path.
        let a = Matrix::<i32>::zeros(2, 5);
        let b = Matrix::<i32>::zeros(4, 3);
        let sim = Simulator::new(ArrayConfig::new(4, 4)).unwrap();
        assert!(sim.run_gemm(&a, &b).is_err());
    }

    #[test]
    fn tile_requires_operands_matching_the_array() {
        let sim = Simulator::new(ArrayConfig::new(4, 4)).unwrap();
        let a = Matrix::<i32>::zeros(3, 4);
        let bad_b = Matrix::<i32>::zeros(5, 4);
        assert!(sim.run_tile(&a, &bad_b).is_err());
        let bad_a = Matrix::<i32>::zeros(3, 5);
        let b = Matrix::<i32>::zeros(4, 4);
        assert!(sim.run_tile(&bad_a, &b).is_err());
    }

    #[test]
    fn gating_statistics_differ_between_modes() {
        let (a, b) = random_pair(6, 8, 8, 21);
        let normal = Simulator::new(ArrayConfig::new(8, 8)).unwrap();
        let shallow = Simulator::new(ArrayConfig::new(8, 8).with_collapse_depth(4)).unwrap();
        let n = normal.run_gemm(&a, &b).unwrap().stats;
        let s = shallow.run_gemm(&a, &b).unwrap().stats;
        assert_eq!(n.clock_gating_fraction(), 0.0);
        assert!((s.clock_gating_fraction() - 0.75).abs() < 1e-12);
    }
}
