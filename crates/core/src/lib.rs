//! ArrayFlex: a systolic array architecture with configurable transparent
//! pipelining — the paper's primary contribution, reproduced as a Rust
//! library.
//!
//! ArrayFlex merges `k` adjacent pipeline stages of a weight-stationary
//! systolic array by making the intermediate pipeline registers transparent,
//! trading clock frequency for cycle count; the best `k` is chosen
//! independently for every CNN layer so that the absolute execution time is
//! minimized, and the lower clock frequency plus the clock gating of the
//! transparent registers simultaneously reduce power.
//!
//! The crate exposes, layer by layer of the paper:
//!
//! * [`model`] — the analytical latency/time/power/energy model of one array
//!   instance (Equations 1–6), for the conventional baseline and ArrayFlex;
//! * [`optimizer`] — the continuous-relaxation optimum `k_hat` of Equation
//!   (7) and the discrete per-layer mode selection;
//! * [`plan`] — whole-network scheduling (which mode every layer runs in,
//!   and the resulting per-layer/total time, power and energy);
//! * [`comparison`] — conventional-vs-ArrayFlex comparisons and the full
//!   evaluation sweep of the paper (three CNNs, two array sizes);
//! * [`executor`] — cycle-accurate validation of the analytical model on the
//!   register-level simulator from [`sa_sim`];
//! * [`cache`] — a sharded LRU cache of network plans keyed by a canonical
//!   hash of every planning input, so repeated plans (for example from the
//!   `arrayflex-serve` HTTP service) are served without recomputation.
//!
//! Evaluation sweeps, network planning and the cycle-accurate simulator can
//! all fan their independent work units out across cores through
//! [`ParallelExecutor`], the workspace's hand-rolled sharded thread runner;
//! serial execution stays the default everywhere, and parallel results are
//! bit-identical to serial ones (see `DESIGN.md` for the determinism
//! contract).
//!
//! # Quick example
//!
//! ```
//! use arrayflex::{compare_network, ArrayFlexModel};
//! use cnn::models::resnet34;
//! use cnn::DepthwiseMapping;
//!
//! let model = ArrayFlexModel::new(128, 128)?;
//! let comparison = compare_network(&model, &resnet34(), DepthwiseMapping::default())?;
//! // ArrayFlex finishes the inference faster than the fixed-pipeline array
//! // while drawing less average power.
//! assert!(comparison.time_saving() > 0.0);
//! assert!(comparison.power_saving() > 0.0);
//! assert!(comparison.edp_gain() > 1.0);
//! # Ok::<(), arrayflex::ArrayFlexError>(())
//! ```

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod cache;
pub mod comparison;
pub mod error;
pub mod executor;
pub mod model;
pub mod objective;
pub mod optimizer;
pub mod plan;

pub use cache::{CacheOutcome, CacheShardStats, PlanCache, PlanKey, PlanKind};
pub use comparison::{compare_network, EvaluationSweep, NetworkComparison};
pub use error::ArrayFlexError;
pub use executor::SimulatedExecution;
/// The parallel execution engine used by [`EvaluationSweep::run`], the
/// planners and the tile-parallel simulator (re-exported from [`gemm`]).
///
/// # Examples
///
/// ```
/// use arrayflex::ParallelExecutor;
///
/// let doubled = ParallelExecutor::new(4).run((0u32..6).collect(), |x| 2 * x);
/// assert_eq!(doubled, vec![0, 2, 4, 6, 8, 10]);
/// ```
pub use gemm::ParallelExecutor;
/// Re-exported cooperative-cancellation handle: evaluation sweeps and
/// cancellable simulations poll it between job items, so long runs stop
/// within one item boundary of a cancel or a passed deadline.
pub use gemm::{CancelToken, Cancelled};
pub use model::{ArrayFlexModel, LayerExecution};
pub use objective::Objective;
pub use optimizer::PipelineChoice;
pub use plan::{LayerPlan, ModeShare, NetworkPlan};

// Re-export the substrate crates so downstream users (examples, benches)
// need only depend on `arrayflex`.
pub use cnn;
pub use gemm;
pub use hw_model;
pub use sa_sim;

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn public_types_are_send_and_sync() {
        fn assert_send_sync<T: Send + Sync>() {}
        assert_send_sync::<ArrayFlexModel>();
        assert_send_sync::<NetworkPlan>();
        assert_send_sync::<NetworkComparison>();
        assert_send_sync::<ArrayFlexError>();
        assert_send_sync::<PipelineChoice>();
        assert_send_sync::<ParallelExecutor>();
        assert_send_sync::<EvaluationSweep>();
        assert_send_sync::<PlanCache>();
        assert_send_sync::<PlanKey>();
    }
}
