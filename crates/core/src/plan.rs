//! Whole-network execution planning (the per-layer scheduler).
//!
//! ArrayFlex selects its pipeline configuration independently for every CNN
//! layer (the two configuration bits per PE are loaded together with the
//! weights of each tile), so executing a network is simply executing each
//! layer's GEMM in the mode the optimizer picked for it. A [`NetworkPlan`]
//! records those decisions and the resulting per-layer and total execution
//! time, power and energy — the data behind Figs. 7, 8 and 9 of the paper.

use crate::error::ArrayFlexError;
use crate::model::{ArrayFlexModel, LayerExecution};
use cnn::{DepthwiseMapping, Network};
use gemm::ParallelExecutor;
use hw_model::{Design, EnergyReport, Microjoules, Microseconds, Milliwatts};
use serde::{Deserialize, Serialize};
use std::collections::BTreeMap;
use std::fmt;

/// The execution plan of one layer.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct LayerPlan {
    /// 1-based index of the layer in its network.
    pub layer_index: u32,
    /// Name of the layer.
    pub layer_name: String,
    /// How many identical GEMM invocations the layer requires (more than one
    /// only under the per-group depthwise mapping).
    pub repeats: u64,
    /// The continuous-relaxation depth estimate of Equation (7) for this
    /// layer (1.0 for the conventional design, which has no choice to make).
    pub continuous_estimate: f64,
    /// The execution of one GEMM invocation.
    pub execution: LayerExecution,
}

impl LayerPlan {
    /// Total execution time of the layer (all repeats).
    #[must_use]
    pub fn time(&self) -> Microseconds {
        self.execution.time * self.repeats as f64
    }

    /// Total energy of the layer (all repeats).
    #[must_use]
    pub fn energy(&self) -> Microjoules {
        self.execution.energy * self.repeats as f64
    }

    /// Total cycles of the layer (all repeats).
    #[must_use]
    pub fn cycles(&self) -> u64 {
        self.execution.cycles * self.repeats
    }

    /// The layer's (time, energy) pair for aggregation.
    #[must_use]
    pub fn energy_report(&self) -> EnergyReport {
        EnergyReport {
            time: self.time(),
            energy: self.energy(),
        }
    }
}

/// Share of a network's execution spent in one pipeline mode.
#[derive(Debug, Default, Clone, Copy, PartialEq, Serialize, Deserialize)]
pub struct ModeShare {
    /// Number of layers executed in this mode.
    pub layers: u32,
    /// Time spent in this mode.
    pub time: Microseconds,
    /// Energy consumed in this mode.
    pub energy: Microjoules,
}

impl ModeShare {
    /// Average power while operating in this mode.
    #[must_use]
    pub fn average_power(&self) -> Milliwatts {
        EnergyReport {
            time: self.time,
            energy: self.energy,
        }
        .average_power()
    }
}

/// The execution plan of a whole network on one design.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct NetworkPlan {
    /// Name of the network.
    pub network_name: String,
    /// The design the plan targets.
    pub design: Design,
    /// Array rows used for planning.
    pub rows: u32,
    /// Array columns used for planning.
    pub cols: u32,
    /// Per-layer plans in execution order.
    pub layers: Vec<LayerPlan>,
}

impl NetworkPlan {
    /// Total execution time of the network.
    #[must_use]
    pub fn total_time(&self) -> Microseconds {
        self.layers.iter().map(LayerPlan::time).sum()
    }

    /// Total energy of the network.
    #[must_use]
    pub fn total_energy(&self) -> Microjoules {
        self.layers.iter().map(LayerPlan::energy).sum()
    }

    /// Total cycle count of the network.
    #[must_use]
    pub fn total_cycles(&self) -> u64 {
        self.layers.iter().map(LayerPlan::cycles).sum()
    }

    /// The network-level (time, energy) aggregate.
    #[must_use]
    pub fn energy_report(&self) -> EnergyReport {
        EnergyReport {
            time: self.total_time(),
            energy: self.total_energy(),
        }
    }

    /// Average power over the whole inference (total energy over total
    /// time) — the quantity plotted in Fig. 9.
    #[must_use]
    pub fn average_power(&self) -> Milliwatts {
        self.energy_report().average_power()
    }

    /// Time, energy and layer count spent in each pipeline mode, keyed by
    /// collapsing depth (the per-mode power breakdown of Fig. 9).
    #[must_use]
    pub fn mode_breakdown(&self) -> BTreeMap<u32, ModeShare> {
        let mut shares: BTreeMap<u32, ModeShare> = BTreeMap::new();
        for layer in &self.layers {
            let share = shares.entry(layer.execution.collapse_depth).or_default();
            share.layers += 1;
            share.time += layer.time();
            share.energy += layer.energy();
        }
        shares
    }

    /// The fraction of layers executed in shallow pipeline mode (`k > 1`).
    #[must_use]
    pub fn shallow_layer_fraction(&self) -> f64 {
        if self.layers.is_empty() {
            return 0.0;
        }
        let shallow = self
            .layers
            .iter()
            .filter(|l| l.execution.collapse_depth > 1)
            .count();
        shallow as f64 / self.layers.len() as f64
    }

    /// Looks up the plan of one layer by index.
    #[must_use]
    pub fn layer(&self, index: u32) -> Option<&LayerPlan> {
        self.layers.iter().find(|l| l.layer_index == index)
    }
}

impl fmt::Display for NetworkPlan {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        writeln!(
            f,
            "{} on {} {}x{}: {} in total, avg {}",
            self.network_name,
            self.design,
            self.rows,
            self.cols,
            self.total_time(),
            self.average_power()
        )?;
        for layer in &self.layers {
            writeln!(
                f,
                "  #{:<3} {:<16} k={} {:>12} ({} tiles)",
                layer.layer_index,
                layer.layer_name,
                layer.execution.collapse_depth,
                layer.time().to_string(),
                layer.execution.tiles
            )?;
        }
        Ok(())
    }
}

impl ArrayFlexModel {
    /// Plans the execution of a network on the conventional fixed-pipeline
    /// array: every layer runs in normal pipeline mode at the conventional
    /// clock frequency.
    ///
    /// # Errors
    ///
    /// Returns an error if any layer lowers to an invalid GEMM.
    pub fn plan_conventional(
        &self,
        network: &Network,
        mapping: DepthwiseMapping,
    ) -> Result<NetworkPlan, ArrayFlexError> {
        self.plan_conventional_with(network, mapping, &ParallelExecutor::serial())
    }

    /// [`ArrayFlexModel::plan_conventional`] with layer evaluations fanned
    /// out over the given executor. Planning is a pure function of each
    /// layer's GEMM, so the plan is identical for any thread count.
    ///
    /// # Errors
    ///
    /// Returns an error if any layer lowers to an invalid GEMM.
    pub fn plan_conventional_with(
        &self,
        network: &Network,
        mapping: DepthwiseMapping,
        executor: &ParallelExecutor,
    ) -> Result<NetworkPlan, ArrayFlexError> {
        self.plan(network, mapping, executor, |model, dims| {
            Ok((model.execute_conventional(dims)?, 1.0))
        })
    }

    /// Plans the execution of a network on ArrayFlex, choosing the optimal
    /// pipeline depth independently for every layer (the proposed scheme).
    ///
    /// # Errors
    ///
    /// Returns an error if any layer lowers to an invalid GEMM.
    pub fn plan_arrayflex(
        &self,
        network: &Network,
        mapping: DepthwiseMapping,
    ) -> Result<NetworkPlan, ArrayFlexError> {
        self.plan_arrayflex_with(network, mapping, &ParallelExecutor::serial())
    }

    /// [`ArrayFlexModel::plan_arrayflex`] with per-layer depth optimization
    /// fanned out over the given executor. Planning is a pure function of
    /// each layer's GEMM, so the plan is identical for any thread count.
    ///
    /// # Errors
    ///
    /// Returns an error if any layer lowers to an invalid GEMM.
    pub fn plan_arrayflex_with(
        &self,
        network: &Network,
        mapping: DepthwiseMapping,
        executor: &ParallelExecutor,
    ) -> Result<NetworkPlan, ArrayFlexError> {
        self.plan(network, mapping, executor, |model, dims| {
            let choice = model.optimal_depth(dims)?;
            Ok((choice.execution, choice.continuous_estimate))
        })
    }

    /// Plans the execution of a network on ArrayFlex with one fixed
    /// collapsing depth for every layer (the ablation of per-layer
    /// configurability).
    ///
    /// # Errors
    ///
    /// Returns an error if any layer lowers to an invalid GEMM or `k` is not
    /// supported.
    pub fn plan_arrayflex_fixed(
        &self,
        network: &Network,
        mapping: DepthwiseMapping,
        k: u32,
    ) -> Result<NetworkPlan, ArrayFlexError> {
        self.plan(
            network,
            mapping,
            &ParallelExecutor::serial(),
            |model, dims| {
                Ok((
                    model.execute_arrayflex(dims, k)?,
                    model.continuous_optimal_depth(dims),
                ))
            },
        )
    }

    fn plan<F>(
        &self,
        network: &Network,
        mapping: DepthwiseMapping,
        executor: &ParallelExecutor,
        execute: F,
    ) -> Result<NetworkPlan, ArrayFlexError>
    where
        F: Fn(&Self, gemm::GemmDims) -> Result<(LayerExecution, f64), ArrayFlexError> + Sync,
    {
        let layers = executor.try_run(network.gemms(mapping), |gemm| {
            let (execution, continuous_estimate) = execute(self, gemm.dims)?;
            Ok::<_, ArrayFlexError>(LayerPlan {
                layer_index: gemm.layer_index,
                layer_name: gemm.layer_name,
                repeats: gemm.repeats,
                continuous_estimate,
                execution,
            })
        })?;
        Ok(NetworkPlan {
            network_name: network.name().to_owned(),
            design: layers
                .first()
                .map_or(Design::ArrayFlex, |l| l.execution.design),
            rows: self.rows(),
            cols: self.cols(),
            layers,
        })
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use cnn::models::{convnext_tiny, resnet34};

    fn model() -> ArrayFlexModel {
        ArrayFlexModel::new(128, 128).unwrap()
    }

    #[test]
    fn conventional_plan_uses_normal_mode_everywhere() {
        let plan = model()
            .plan_conventional(&resnet34(), DepthwiseMapping::default())
            .unwrap();
        assert_eq!(plan.design, Design::Conventional);
        assert_eq!(plan.layers.len(), 34);
        assert!(plan.layers.iter().all(|l| l.execution.collapse_depth == 1));
        assert_eq!(plan.shallow_layer_fraction(), 0.0);
        assert!(plan.total_time().value() > 0.0);
    }

    #[test]
    fn arrayflex_plan_uses_shallow_modes_for_most_convnext_layers() {
        // Section IV-A: ArrayFlex operates in shallow mode for the majority
        // of ConvNeXt layers on a 128x128 array.
        let plan = model()
            .plan_arrayflex(&convnext_tiny(), DepthwiseMapping::default())
            .unwrap();
        assert_eq!(plan.design, Design::ArrayFlex);
        assert!(plan.shallow_layer_fraction() > 0.5);
        // Early layers (large T) stay in normal mode.
        assert_eq!(plan.layer(2).unwrap().execution.collapse_depth, 1);
        // Late layers (small T) collapse deeply.
        assert_eq!(plan.layer(55).unwrap().execution.collapse_depth, 4);
    }

    #[test]
    fn arrayflex_beats_conventional_on_total_time_for_resnet34() {
        let m = model();
        let conventional = m
            .plan_conventional(&resnet34(), DepthwiseMapping::default())
            .unwrap();
        let arrayflex = m
            .plan_arrayflex(&resnet34(), DepthwiseMapping::default())
            .unwrap();
        assert!(arrayflex.total_time() < conventional.total_time());
        // The per-layer optimum can never lose to a single fixed depth.
        for k in [1, 2, 4] {
            let fixed = m
                .plan_arrayflex_fixed(&resnet34(), DepthwiseMapping::default(), k)
                .unwrap();
            assert!(arrayflex.total_time() <= fixed.total_time(), "fixed k={k}");
        }
    }

    #[test]
    fn mode_breakdown_accounts_for_every_layer_and_all_time() {
        let plan = model()
            .plan_arrayflex(&convnext_tiny(), DepthwiseMapping::default())
            .unwrap();
        let breakdown = plan.mode_breakdown();
        let layer_total: u32 = breakdown.values().map(|s| s.layers).sum();
        assert_eq!(layer_total as usize, plan.layers.len());
        let time_total: f64 = breakdown.values().map(|s| s.time.value()).sum();
        assert!((time_total - plan.total_time().value()).abs() < 1e-9);
        for share in breakdown.values() {
            assert!(share.average_power().value() > 0.0);
        }
    }

    #[test]
    fn totals_are_sums_of_layers() {
        let plan = model()
            .plan_conventional(&resnet34(), DepthwiseMapping::default())
            .unwrap();
        let time: f64 = plan.layers.iter().map(|l| l.time().value()).sum();
        let energy: f64 = plan.layers.iter().map(|l| l.energy().value()).sum();
        assert!((plan.total_time().value() - time).abs() < 1e-9);
        assert!((plan.total_energy().value() - energy).abs() < 1e-9);
        assert!(plan.total_cycles() > 0);
        assert!(plan.average_power().value() > 0.0);
    }

    #[test]
    fn per_group_depthwise_mapping_multiplies_repeats() {
        let m = model();
        let net = cnn::models::mobilenet_v1();
        let block = m
            .plan_arrayflex(&net, DepthwiseMapping::BlockDiagonal)
            .unwrap();
        let per_group = m.plan_arrayflex(&net, DepthwiseMapping::PerGroup).unwrap();
        // Per-group execution repeats tiny GEMMs per channel, which is far
        // slower on a large array.
        assert!(per_group.total_time() > block.total_time());
        assert!(per_group.layers.iter().any(|l| l.repeats > 1));
    }

    #[test]
    fn parallel_planning_is_bit_identical_to_serial() {
        use gemm::ParallelExecutor;
        let m = model();
        let net = convnext_tiny();
        let mapping = DepthwiseMapping::default();
        let serial_af = m.plan_arrayflex(&net, mapping).unwrap();
        let serial_conv = m.plan_conventional(&net, mapping).unwrap();
        for threads in [2usize, 4] {
            let executor = ParallelExecutor::new(threads);
            assert_eq!(
                m.plan_arrayflex_with(&net, mapping, &executor).unwrap(),
                serial_af,
                "arrayflex, threads = {threads}"
            );
            assert_eq!(
                m.plan_conventional_with(&net, mapping, &executor).unwrap(),
                serial_conv,
                "conventional, threads = {threads}"
            );
        }
    }

    #[test]
    fn display_lists_every_layer() {
        let plan = model()
            .plan_arrayflex(&resnet34(), DepthwiseMapping::default())
            .unwrap();
        let text = plan.to_string();
        assert!(text.contains("resnet34"));
        assert!(text.contains("#34"));
    }
}
