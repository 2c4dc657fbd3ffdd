//! Alternative optimization objectives for the per-layer mode selection.
//!
//! The paper selects the pipeline depth that minimizes the absolute
//! execution time of each layer (Equation 6). Because shallow modes also
//! reduce power, other objectives are natural extensions: minimizing the
//! energy of the layer, or its energy-delay product. This module
//! generalizes the optimizer over a selectable [`Objective`] and is the
//! basis of the `ablation_objective` bench, which quantifies how much
//! latency one gives up (and how much energy one gains) by optimizing for
//! energy instead of time.

use crate::error::ArrayFlexError;
use crate::model::{ArrayFlexModel, LayerExecution};
use crate::optimizer::PipelineChoice;
use crate::plan::NetworkPlan;
use cnn::{DepthwiseMapping, Network};
use gemm::GemmDims;
use serde::{Deserialize, Serialize};
use std::fmt;

/// What the per-layer mode selection minimizes.
#[derive(Debug, Default, Clone, Copy, PartialEq, Eq, Hash, Serialize, Deserialize)]
pub enum Objective {
    /// Minimize absolute execution time (the paper's objective).
    #[default]
    Latency,
    /// Minimize the energy consumed by the layer.
    Energy,
    /// Minimize the energy-delay product of the layer.
    EnergyDelayProduct,
}

impl Objective {
    /// All objectives, in documentation order.
    pub const ALL: [Objective; 3] = [
        Objective::Latency,
        Objective::Energy,
        Objective::EnergyDelayProduct,
    ];

    /// The scalar cost this objective assigns to one execution.
    #[must_use]
    pub fn cost(self, execution: &LayerExecution) -> f64 {
        match self {
            Objective::Latency => execution.time.value(),
            Objective::Energy => execution.energy.value(),
            Objective::EnergyDelayProduct => execution.energy.value() * execution.time.value(),
        }
    }
}

impl fmt::Display for Objective {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            Objective::Latency => write!(f, "latency"),
            Objective::Energy => write!(f, "energy"),
            Objective::EnergyDelayProduct => write!(f, "energy-delay product"),
        }
    }
}

impl ArrayFlexModel {
    /// Selects the supported collapsing depth that minimizes the given
    /// objective for one GEMM.
    ///
    /// With [`Objective::Latency`] this is exactly
    /// [`ArrayFlexModel::optimal_depth`].
    ///
    /// # Errors
    ///
    /// Returns an error for zero GEMM dimensions or if the clock plan offers
    /// no selectable depths.
    pub fn optimal_depth_for(
        &self,
        dims: GemmDims,
        objective: Objective,
    ) -> Result<PipelineChoice, ArrayFlexError> {
        let mut best: Option<(u32, LayerExecution)> = None;
        for k in self.clock_plan().selectable_depths() {
            if k > self.rows() || k > self.cols() {
                continue;
            }
            let execution = self.execute_arrayflex(dims, k)?;
            let better = match &best {
                None => true,
                Some((_, current)) => objective.cost(&execution) < objective.cost(current),
            };
            if better {
                best = Some((k, execution));
            }
        }
        let (collapse_depth, execution) =
            best.ok_or_else(|| ArrayFlexError::InvalidConfiguration {
                reason: "the clock plan offers no selectable pipeline depths".to_owned(),
            })?;
        Ok(PipelineChoice {
            collapse_depth,
            continuous_estimate: self.continuous_optimal_depth(dims),
            execution,
        })
    }

    /// Plans a whole network with the per-layer mode chosen under the given
    /// objective.
    ///
    /// # Errors
    ///
    /// Returns an error if any layer lowers to an invalid GEMM.
    pub fn plan_arrayflex_with_objective(
        &self,
        network: &Network,
        mapping: DepthwiseMapping,
        objective: Objective,
    ) -> Result<NetworkPlan, ArrayFlexError> {
        let mut layers = Vec::with_capacity(network.len());
        for gemm in network.gemms(mapping) {
            let choice = self.optimal_depth_for(gemm.dims, objective)?;
            layers.push(crate::plan::LayerPlan {
                layer_index: gemm.layer_index,
                layer_name: gemm.layer_name,
                repeats: gemm.repeats,
                continuous_estimate: choice.continuous_estimate,
                execution: choice.execution,
            });
        }
        Ok(NetworkPlan {
            network_name: network.name().to_owned(),
            design: hw_model::Design::ArrayFlex,
            rows: self.rows(),
            cols: self.cols(),
            layers,
        })
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use cnn::models::resnet34;

    fn model() -> ArrayFlexModel {
        ArrayFlexModel::new(128, 128).unwrap()
    }

    #[test]
    fn latency_objective_matches_the_default_optimizer() {
        let m = model();
        for dims in [
            GemmDims::new(256, 2304, 196),
            GemmDims::new(512, 2304, 49),
            GemmDims::new(64, 147, 12_544),
        ] {
            let default = m.optimal_depth(dims).unwrap();
            let explicit = m.optimal_depth_for(dims, Objective::Latency).unwrap();
            assert_eq!(default.collapse_depth, explicit.collapse_depth);
        }
    }

    #[test]
    fn energy_objective_prefers_deeper_collapsing() {
        let m = model();
        // Early, large-T layer: latency prefers k = 1 but energy prefers the
        // lowest-power (deepest) mode.
        let dims = GemmDims::new(96, 48, 3136);
        let latency = m.optimal_depth_for(dims, Objective::Latency).unwrap();
        let energy = m.optimal_depth_for(dims, Objective::Energy).unwrap();
        assert_eq!(latency.collapse_depth, 1);
        assert!(energy.collapse_depth >= latency.collapse_depth);
        assert!(energy.execution.energy <= latency.execution.energy);
    }

    #[test]
    fn edp_objective_sits_between_latency_and_energy() {
        let m = model();
        let dims = GemmDims::new(256, 2304, 784);
        let by_latency = m.optimal_depth_for(dims, Objective::Latency).unwrap();
        let by_energy = m.optimal_depth_for(dims, Objective::Energy).unwrap();
        let by_edp = m
            .optimal_depth_for(dims, Objective::EnergyDelayProduct)
            .unwrap();
        // The EDP optimum can never beat the specialists on their own metric.
        assert!(by_latency.execution.time <= by_edp.execution.time);
        assert!(by_energy.execution.energy <= by_edp.execution.energy);
        // And it is optimal for its own metric.
        for k in [1u32, 2, 4] {
            let e = m.execute_arrayflex(dims, k).unwrap();
            assert!(
                Objective::EnergyDelayProduct.cost(&by_edp.execution)
                    <= Objective::EnergyDelayProduct.cost(&e) + 1e-9
            );
        }
    }

    #[test]
    fn energy_planned_network_uses_no_more_energy_than_latency_planned() {
        let m = model();
        let net = resnet34();
        let by_latency = m.plan_arrayflex(&net, DepthwiseMapping::default()).unwrap();
        let by_energy = m
            .plan_arrayflex_with_objective(&net, DepthwiseMapping::default(), Objective::Energy)
            .unwrap();
        assert!(by_energy.total_energy() <= by_latency.total_energy());
        assert!(by_energy.total_time() >= by_latency.total_time());
        assert_eq!(by_energy.layers.len(), net.len());
    }

    #[test]
    fn objective_display_and_cost() {
        assert_eq!(Objective::Latency.to_string(), "latency");
        assert_eq!(Objective::default(), Objective::Latency);
        assert_eq!(Objective::ALL.len(), 3);
        let m = model();
        let e = m.execute_arrayflex(GemmDims::new(64, 64, 64), 2).unwrap();
        assert!(
            (Objective::EnergyDelayProduct.cost(&e)
                - Objective::Energy.cost(&e) * Objective::Latency.cost(&e))
            .abs()
                < 1e-9
        );
    }
}
