//! Conventional-vs-ArrayFlex comparisons and evaluation sweeps.
//!
//! The paper's evaluation (Figs. 7–9 and the energy-delay-product summary)
//! always contrasts the proposed ArrayFlex array, configuring its pipeline
//! per layer, against a conventional fixed-pipeline array running at its
//! higher clock frequency. [`NetworkComparison`] packages one such contrast
//! for one network and one array size; [`EvaluationSweep`] runs the full
//! cross product of networks and array sizes used in the paper.

use crate::error::ArrayFlexError;
use crate::model::ArrayFlexModel;
use crate::plan::NetworkPlan;
use cnn::{DepthwiseMapping, Network};
use gemm::ParallelExecutor;
use hw_model::EdpComparison;
use sa_sim::Dataflow;
use serde::{Deserialize, Serialize};
use std::fmt;

/// The two plans (baseline and proposed) for one network on one array size.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct NetworkComparison {
    /// Name of the network.
    pub network_name: String,
    /// Array rows.
    pub rows: u32,
    /// Array columns.
    pub cols: u32,
    /// The dataflow both plans were modeled for.
    pub dataflow: Dataflow,
    /// Execution plan on the conventional fixed-pipeline array.
    pub conventional: NetworkPlan,
    /// Execution plan on ArrayFlex with per-layer pipeline configuration.
    pub arrayflex: NetworkPlan,
}

impl NetworkComparison {
    /// Assembles a comparison from the two plans of the same network on the
    /// same array (the name and geometry are taken from the baseline plan,
    /// the dataflow defaults to weight-stationary — the paper's
    /// architecture).
    #[must_use]
    pub fn from_plans(conventional: NetworkPlan, arrayflex: NetworkPlan) -> Self {
        Self::from_plans_for(Dataflow::WeightStationary, conventional, arrayflex)
    }

    /// [`NetworkComparison::from_plans`] with an explicit dataflow tag,
    /// for sweeps contrasting array architectures per network.
    #[must_use]
    pub fn from_plans_for(
        dataflow: Dataflow,
        conventional: NetworkPlan,
        arrayflex: NetworkPlan,
    ) -> Self {
        Self {
            network_name: conventional.network_name.clone(),
            rows: conventional.rows,
            cols: conventional.cols,
            dataflow,
            conventional,
            arrayflex,
        }
    }

    /// The energy/time comparison of the two plans.
    #[must_use]
    pub fn edp(&self) -> EdpComparison {
        EdpComparison {
            baseline: self.conventional.energy_report(),
            proposed: self.arrayflex.energy_report(),
        }
    }

    /// Fractional execution-time saving of ArrayFlex (the paper reports
    /// 9 %–11 %).
    #[must_use]
    pub fn time_saving(&self) -> f64 {
        self.edp().time_saving()
    }

    /// Fractional average-power saving of ArrayFlex (the paper reports
    /// 13 %–23 % depending on array size).
    #[must_use]
    pub fn power_saving(&self) -> f64 {
        self.edp().power_saving()
    }

    /// Energy-delay-product gain of ArrayFlex (the paper reports 1.4x–1.8x).
    #[must_use]
    pub fn edp_gain(&self) -> f64 {
        self.edp().edp_gain()
    }

    /// Per-layer execution-time saving of ArrayFlex over the conventional
    /// array, in layer order (the data behind Fig. 7). Negative values mean
    /// the conventional array finished that particular layer earlier.
    #[must_use]
    pub fn per_layer_time_saving(&self) -> Vec<(u32, f64)> {
        self.conventional
            .layers
            .iter()
            .zip(&self.arrayflex.layers)
            .map(|(base, prop)| {
                let saving = 1.0 - prop.time().value() / base.time().value();
                (base.layer_index, saving)
            })
            .collect()
    }
}

impl fmt::Display for NetworkComparison {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(
            f,
            "{} on {}x{}: time saving {:.1}%, power saving {:.1}%, EDP gain {:.2}x",
            self.network_name,
            self.rows,
            self.cols,
            self.time_saving() * 100.0,
            self.power_saving() * 100.0,
            self.edp_gain()
        )
    }
}

/// Compares the two designs for one network on one array model.
///
/// # Errors
///
/// Returns an error if any layer lowers to an invalid GEMM.
pub fn compare_network(
    model: &ArrayFlexModel,
    network: &Network,
    mapping: DepthwiseMapping,
) -> Result<NetworkComparison, ArrayFlexError> {
    Ok(NetworkComparison::from_plans_for(
        model.dataflow(),
        model.plan_conventional(network, mapping)?,
        model.plan_arrayflex(network, mapping)?,
    ))
}

/// The cross product of networks and array sizes evaluated in the paper.
///
/// The sweep is **serial by default** (`threads == 1`), which reproduces
/// the original sequential evaluation bit for bit. The
/// [`EvaluationSweep::threads`] builder fans the independent
/// (array size × network × pipeline choice) planning jobs out across
/// worker threads; since every job is a pure function of its inputs and the
/// [`ParallelExecutor`] returns results in submission order, the output is
/// identical for every thread count.
#[derive(Debug, Clone, PartialEq, Eq, Serialize, Deserialize)]
pub struct EvaluationSweep {
    /// Square array sizes to evaluate (the paper uses 128 and 256).
    pub array_sizes: Vec<u32>,
    /// Array dataflows to evaluate for every (size, network) pair; the
    /// paper's sweep uses only the weight-stationary architecture.
    pub dataflows: Vec<Dataflow>,
    /// Depthwise mapping policy for the CNN layer tables.
    pub mapping: DepthwiseMapping,
    /// Worker threads used by [`EvaluationSweep::run`] (`0` = auto-detect
    /// the hardware parallelism, `1` = serial, the default).
    pub threads: usize,
}

impl EvaluationSweep {
    /// The sweep used in Figs. 8 and 9 of the paper: 128x128 and 256x256
    /// arrays, the weight-stationary dataflow, block-diagonal depthwise
    /// mapping, serial execution.
    #[must_use]
    pub fn date23() -> Self {
        Self {
            array_sizes: vec![128, 256],
            dataflows: vec![Dataflow::WeightStationary],
            mapping: DepthwiseMapping::BlockDiagonal,
            threads: 1,
        }
    }

    /// Returns a copy that evaluates the given dataflows for every
    /// (array size, network) pair, so one sweep contrasts array
    /// architectures per network.
    #[must_use]
    pub fn dataflows(mut self, dataflows: Vec<Dataflow>) -> Self {
        self.dataflows = dataflows;
        self
    }

    /// Returns a copy that fans the sweep out over `n` worker threads
    /// (`0` auto-detects the hardware parallelism, `1` is serial).
    ///
    /// # Examples
    ///
    /// ```
    /// use arrayflex::EvaluationSweep;
    /// use cnn::models::resnet34;
    ///
    /// let serial = EvaluationSweep::date23();
    /// let parallel = serial.clone().threads(4);
    /// let networks = vec![resnet34()];
    /// // Deterministic fan-out: same comparisons in the same order.
    /// assert_eq!(parallel.run(&networks)?, serial.run(&networks)?);
    /// # Ok::<(), arrayflex::ArrayFlexError>(())
    /// ```
    #[must_use]
    pub fn threads(mut self, n: usize) -> Self {
        self.threads = n;
        self
    }

    /// Returns a copy that runs serially on the calling thread (the
    /// default).
    #[must_use]
    pub fn serial(mut self) -> Self {
        self.threads = 1;
        self
    }

    /// Runs the sweep over the given networks, returning one comparison per
    /// (array size, network, dataflow) triple, grouped by array size, then
    /// network, then dataflow in the orders given.
    ///
    /// With `threads > 1` (or `0` for auto-detection) the
    /// (array size × network × pipeline choice) jobs — one conventional and
    /// one ArrayFlex plan per pair — run concurrently on a
    /// [`ParallelExecutor`]; the result order and every value in it are
    /// identical to the serial run.
    ///
    /// # Errors
    ///
    /// Returns an error if a model cannot be constructed or a network cannot
    /// be planned.
    pub fn run(&self, networks: &[Network]) -> Result<Vec<NetworkComparison>, ArrayFlexError> {
        self.run_with(networks, &ParallelExecutor::new(self.threads))
    }

    /// Runs the sweep on a caller-supplied executor (ignoring the sweep's
    /// own `threads` setting).
    ///
    /// # Errors
    ///
    /// Returns an error if a model cannot be constructed or a network cannot
    /// be planned; with multiple failing jobs, the error of the first job in
    /// sweep order is reported regardless of completion order.
    pub fn run_with(
        &self,
        networks: &[Network],
        executor: &ParallelExecutor,
    ) -> Result<Vec<NetworkComparison>, ArrayFlexError> {
        self.run_cancellable_with(networks, executor, &gemm::CancelToken::new())
    }

    /// [`EvaluationSweep::run_with`] polling a
    /// [`CancelToken`](gemm::CancelToken) between planning jobs: when the
    /// token fires (explicitly or through its deadline) the sweep stops at
    /// the next job boundary instead of running the whole grid.
    ///
    /// An uncancelled run is identical to [`EvaluationSweep::run_with`],
    /// and the executor holds no state across runs, so it is immediately
    /// reusable after a cancellation.
    ///
    /// # Errors
    ///
    /// Returns [`ArrayFlexError::Cancelled`] (carrying the completed/total
    /// job counts) when the token fired before the sweep finished,
    /// otherwise the same errors as [`EvaluationSweep::run_with`].
    pub fn run_cancellable_with(
        &self,
        networks: &[Network],
        executor: &ParallelExecutor,
        token: &gemm::CancelToken,
    ) -> Result<Vec<NetworkComparison>, ArrayFlexError> {
        let grid = self.array_sizes.len() * networks.len() * self.dataflows.len();
        let mut jobs = Vec::with_capacity(grid * 2);
        for &size in &self.array_sizes {
            for index in 0..networks.len() {
                for &dataflow in &self.dataflows {
                    // One job per pipeline choice: the conventional plan and
                    // the per-layer-optimized ArrayFlex plan of the same
                    // (size, network, dataflow) triple.
                    jobs.push((size, index, dataflow, false));
                    jobs.push((size, index, dataflow, true));
                }
            }
        }
        let plans =
            executor.try_run_cancellable(jobs, token, |(size, index, dataflow, arrayflex)| {
                let model = ArrayFlexModel::new(size, size)?.with_dataflow(dataflow);
                let network = &networks[index];
                if arrayflex {
                    model.plan_arrayflex(network, self.mapping)
                } else {
                    model.plan_conventional(network, self.mapping)
                }
            })?;
        let mut results = Vec::with_capacity(grid);
        let mut plans = plans.into_iter();
        for &size in &self.array_sizes {
            for _ in 0..networks.len() {
                for &dataflow in &self.dataflows {
                    let (Some(conventional), Some(arrayflex)) = (plans.next(), plans.next()) else {
                        break;
                    };
                    debug_assert_eq!(conventional.rows, size);
                    results.push(NetworkComparison::from_plans_for(
                        dataflow,
                        conventional,
                        arrayflex,
                    ));
                }
            }
        }
        Ok(results)
    }
}

impl Default for EvaluationSweep {
    fn default() -> Self {
        Self::date23()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use cnn::models::{convnext_tiny, mobilenet_v1, paper_evaluation_networks, resnet34};

    fn compare(rows: u32, network: &Network) -> NetworkComparison {
        let model = ArrayFlexModel::new(rows, rows).unwrap();
        compare_network(&model, network, DepthwiseMapping::default()).unwrap()
    }

    #[test]
    fn convnext_on_128_matches_the_fig7_story() {
        let cmp = compare(128, &convnext_tiny());
        // Total time saving of about 11% (Fig. 7); allow a generous band
        // since our clock calibration is analytical.
        let saving = cmp.time_saving();
        assert!(
            (0.05..=0.20).contains(&saving),
            "ConvNeXt time saving {saving} outside the expected band"
        );
        // Early layers are faster on the conventional array, later layers on
        // ArrayFlex.
        let per_layer = cmp.per_layer_time_saving();
        assert!(
            per_layer[1].1 < 0.0,
            "layer 2 should favour the conventional SA"
        );
        assert!(per_layer[50].1 > 0.0, "layer 51 should favour ArrayFlex");
    }

    #[test]
    fn every_paper_network_sees_a_positive_time_saving() {
        for network in paper_evaluation_networks() {
            for size in [128u32, 256] {
                let cmp = compare(size, &network);
                assert!(
                    cmp.time_saving() > 0.0,
                    "{} on {size}: expected ArrayFlex to be faster",
                    network.name()
                );
            }
        }
    }

    #[test]
    fn power_saving_and_edp_gain_are_positive() {
        let cmp = compare(128, &resnet34());
        assert!(cmp.power_saving() > 0.0);
        assert!(cmp.edp_gain() > 1.0);
        assert!(cmp.to_string().contains("EDP gain"));
    }

    #[test]
    fn larger_arrays_save_more_power_for_mobilenet() {
        // The paper reports 13-15% power savings on 128x128 arrays and
        // 17-23% on 256x256 arrays.
        let small = compare(128, &mobilenet_v1());
        let large = compare(256, &mobilenet_v1());
        assert!(large.power_saving() > small.power_saving());
    }

    #[test]
    fn sweep_covers_every_network_and_size() {
        let sweep = EvaluationSweep::date23();
        let networks = paper_evaluation_networks();
        let results = sweep.run(&networks).unwrap();
        assert_eq!(results.len(), 6);
        assert_eq!(results[0].rows, 128);
        assert_eq!(results[5].rows, 256);
        assert_eq!(EvaluationSweep::default(), sweep);
    }

    #[test]
    fn cross_dataflow_sweep_contrasts_architectures_per_network() {
        let sweep = EvaluationSweep {
            array_sizes: vec![128],
            ..EvaluationSweep::date23()
        }
        .dataflows(vec![Dataflow::WeightStationary, Dataflow::OutputStationary]);
        let networks = vec![resnet34(), mobilenet_v1()];
        let results = sweep.run(&networks).unwrap();
        // One comparison per (size, network, dataflow), dataflow innermost.
        assert_eq!(results.len(), 4);
        assert_eq!(results[0].dataflow, Dataflow::WeightStationary);
        assert_eq!(results[1].dataflow, Dataflow::OutputStationary);
        assert_eq!(results[0].network_name, results[1].network_name);
        assert_ne!(results[0].network_name, results[2].network_name);
        // The two dataflows genuinely model different latencies for the
        // same network, while sharing the geometry.
        assert_eq!(results[0].rows, results[1].rows);
        assert_ne!(
            results[0].conventional.total_time(),
            results[1].conventional.total_time()
        );
        // The paper's sweep is the weight-stationary column of the grid.
        let ws_only = EvaluationSweep {
            array_sizes: vec![128],
            ..EvaluationSweep::date23()
        }
        .run(&networks)
        .unwrap();
        assert_eq!(results[0], ws_only[0]);
        assert_eq!(results[2], ws_only[1]);
        // Fan-out stays bit-identical with the dataflow axis in the grid.
        let parallel = sweep.threads(3).run(&networks).unwrap();
        assert_eq!(parallel, results);
    }

    #[test]
    fn parallel_sweep_is_bit_identical_to_serial() {
        let networks = paper_evaluation_networks();
        let serial = EvaluationSweep::date23().run(&networks).unwrap();
        for threads in [0usize, 2, 3, 8] {
            let sweep = EvaluationSweep::date23().threads(threads);
            assert_eq!(sweep.threads, threads);
            let parallel = sweep.run(&networks).unwrap();
            assert_eq!(parallel, serial, "threads = {threads}");
        }
        // The serial() builder restores the default configuration.
        assert_eq!(
            EvaluationSweep::date23().threads(7).serial(),
            EvaluationSweep::date23()
        );
    }

    #[test]
    fn run_with_accepts_a_shared_executor() {
        use gemm::ParallelExecutor;
        let networks = vec![resnet34()];
        let sweep = EvaluationSweep::date23();
        let serial = sweep.run(&networks).unwrap();
        let pooled = sweep
            .run_with(&networks, &ParallelExecutor::new(3))
            .unwrap();
        assert_eq!(pooled, serial);
    }

    #[test]
    fn a_cancelled_sweep_stops_early_and_an_uncancelled_one_is_unchanged() {
        use gemm::{CancelToken, ParallelExecutor};
        let networks = vec![resnet34()];
        let sweep = EvaluationSweep::date23();
        let reference = sweep.run(&networks).unwrap();

        let fresh = CancelToken::new();
        let executor = ParallelExecutor::new(2);
        let uncancelled = sweep
            .run_cancellable_with(&networks, &executor, &fresh)
            .unwrap();
        assert_eq!(uncancelled, reference);

        let fired = CancelToken::new();
        fired.cancel("client gave up");
        let err = sweep
            .run_cancellable_with(&networks, &executor, &fired)
            .unwrap_err();
        match err {
            ArrayFlexError::Cancelled(c) => {
                assert_eq!(c.completed, 0);
                assert_eq!(c.total, 2 * reference.len());
                assert_eq!(c.reason, "client gave up");
            }
            other => panic!("expected a cancellation, got {other:?}"),
        }
        // The executor carries no state across runs: the same one
        // immediately completes a fresh sweep with identical results.
        let after = sweep
            .run_cancellable_with(&networks, &executor, &CancelToken::new())
            .unwrap();
        assert_eq!(after, reference);
    }

    #[test]
    fn per_layer_savings_align_with_layer_indices() {
        let cmp = compare(128, &resnet34());
        let per_layer = cmp.per_layer_time_saving();
        assert_eq!(per_layer.len(), 34);
        assert_eq!(per_layer[0].0, 1);
        assert_eq!(per_layer[33].0, 34);
    }
}
