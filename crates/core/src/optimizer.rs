//! Selection of the optimal pipeline collapsing depth per layer.
//!
//! Section III-C of the paper derives a closed-form estimate of the optimal
//! depth by differentiating `Tabs(k)` with respect to a continuous `k`:
//!
//! ```text
//! k_hat = sqrt( (R + C) / (R + T - 2) * (dFF + dmul + dadd) / (dCSA + 2 dmux) )
//! ```
//!
//! The hardware only supports a discrete set of modes (1, 2 and 4 in the
//! evaluated design), so the runtime selection is a small discrete search
//! over the supported depths, minimizing the absolute execution time of
//! Equation (6). Both are provided here, and the benches verify that the
//! continuous estimate tracks the discrete optimum across all CNN layers, as
//! the paper observes.

use crate::error::ArrayFlexError;
use crate::model::{ArrayFlexModel, LayerExecution};
use gemm::GemmDims;
use serde::{Deserialize, Serialize};

/// The outcome of optimizing the pipeline depth for one GEMM.
#[derive(Debug, Clone, Copy, PartialEq, Serialize, Deserialize)]
pub struct PipelineChoice {
    /// The chosen collapsing depth.
    pub collapse_depth: u32,
    /// The continuous-relaxation estimate `k_hat` of Equation (7).
    pub continuous_estimate: f64,
    /// The execution of the GEMM under the chosen depth.
    pub execution: LayerExecution,
}

impl ArrayFlexModel {
    /// The continuous-relaxation optimal depth `k_hat` of Equation (7).
    ///
    /// The delay ratio `(dFF + dmul + dadd) / (dCSA + 2 dmux)` comes from the
    /// analytical datapath delays backing the clock plan.
    #[must_use]
    pub fn continuous_optimal_depth(&self, dims: GemmDims) -> f64 {
        let r = f64::from(self.rows());
        let c = f64::from(self.cols());
        let t = dims.t as f64;
        let size_ratio = (r + c) / (r + t - 2.0);
        (size_ratio * self.clock_plan().delays().delay_ratio()).sqrt()
    }

    /// Selects the supported collapsing depth that minimizes the absolute
    /// execution time `Tabs(k)` of the GEMM (Equation 6), evaluating every
    /// mode of the clock plan.
    ///
    /// # Errors
    ///
    /// Returns an error for zero GEMM dimensions or if the clock plan offers
    /// no selectable depths.
    pub fn optimal_depth(&self, dims: GemmDims) -> Result<PipelineChoice, ArrayFlexError> {
        let depths = self.clock_plan().selectable_depths();
        let mut best: Option<(u32, LayerExecution)> = None;
        for k in depths {
            // Depths larger than the array cannot be configured.
            if k > self.rows() || k > self.cols() {
                continue;
            }
            let execution = self.execute_arrayflex(dims, k)?;
            let better = match &best {
                None => true,
                Some((_, current)) => execution.time < current.time,
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

    /// Sweeps every supported depth and returns the execution of the GEMM in
    /// each mode, in increasing depth order (the data behind Fig. 5).
    ///
    /// # Errors
    ///
    /// Returns an error for zero GEMM dimensions.
    pub fn depth_sweep(&self, dims: GemmDims) -> Result<Vec<LayerExecution>, ArrayFlexError> {
        let mut executions = Vec::new();
        for k in 1..=self.clock_plan().k_max() {
            if k > self.rows() || k > self.cols() {
                break;
            }
            executions.push(self.execute_arrayflex(dims, k)?);
        }
        Ok(executions)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn model_132() -> ArrayFlexModel {
        // Fig. 5 uses a 132x132 array so that k = 1, 2, 3 and 4 all divide
        // the array. The default clock plan provides the paper's calibrated
        // frequencies for the supported modes (1, 2, 4) and falls back to
        // the analytical Equation (5) for k = 3.
        ArrayFlexModel::new(132, 132).unwrap()
    }

    #[test]
    fn layer_20_prefers_k2_and_layer_28_prefers_k4() {
        // The headline observation of Fig. 5.
        let model = model_132();
        let layer20 = GemmDims::new(256, 2304, 196);
        let layer28 = GemmDims::new(512, 2304, 49);
        assert_eq!(model.optimal_depth(layer20).unwrap().collapse_depth, 2);
        assert_eq!(model.optimal_depth(layer28).unwrap().collapse_depth, 4);
    }

    #[test]
    fn large_t_layers_prefer_normal_mode() {
        let model = ArrayFlexModel::new(128, 128).unwrap();
        let stem = GemmDims::new(64, 147, 12_544);
        assert_eq!(model.optimal_depth(stem).unwrap().collapse_depth, 1);
        assert!(model.continuous_optimal_depth(stem) < 1.5);
    }

    #[test]
    fn continuous_estimate_grows_as_t_shrinks() {
        let model = ArrayFlexModel::new(128, 128).unwrap();
        let big_t = model.continuous_optimal_depth(GemmDims::new(256, 2304, 3136));
        let mid_t = model.continuous_optimal_depth(GemmDims::new(256, 2304, 196));
        let small_t = model.continuous_optimal_depth(GemmDims::new(256, 2304, 49));
        assert!(big_t < mid_t);
        assert!(mid_t < small_t);
    }

    #[test]
    fn continuous_estimate_grows_with_array_size() {
        // Equation (7) predicts higher optimal depths for larger arrays,
        // which is the paper's explanation for the larger savings on
        // 256x256 arrays.
        let dims = GemmDims::new(512, 2304, 196);
        let small = ArrayFlexModel::new(128, 128)
            .unwrap()
            .continuous_optimal_depth(dims);
        let large = ArrayFlexModel::new(256, 256)
            .unwrap()
            .continuous_optimal_depth(dims);
        assert!(large > small);
    }

    #[test]
    fn discrete_choice_tracks_the_continuous_estimate() {
        let model = model_132();
        for (m, n, t) in [
            (256u64, 2304u64, 3136u64),
            (256, 2304, 784),
            (256, 2304, 196),
            (512, 2304, 49),
            (1024, 1024, 49),
        ] {
            let dims = GemmDims::new(m, n, t);
            let choice = model.optimal_depth(dims).unwrap();
            let k_hat = choice.continuous_estimate;
            let distance = (f64::from(choice.collapse_depth) - k_hat).abs();
            // The discrete optimum is always within ~1.5 of the continuous
            // estimate for realistic layer shapes.
            assert!(
                distance <= 1.5,
                "discrete k {} too far from continuous estimate {k_hat:.2} for {dims}",
                choice.collapse_depth
            );
        }
    }

    #[test]
    fn optimal_choice_is_never_slower_than_any_swept_mode() {
        let model = model_132();
        let dims = GemmDims::new(256, 2304, 196);
        let best = model.optimal_depth(dims).unwrap();
        for execution in model.depth_sweep(dims).unwrap() {
            assert!(best.execution.time <= execution.time);
        }
    }

    #[test]
    fn depth_sweep_covers_all_modes_up_to_k_max() {
        let model = model_132();
        let sweep = model.depth_sweep(GemmDims::new(256, 2304, 196)).unwrap();
        assert_eq!(sweep.len(), 4);
        assert_eq!(sweep[0].collapse_depth, 1);
        assert_eq!(sweep[3].collapse_depth, 4);
    }

    #[test]
    fn tiny_arrays_limit_the_search_space() {
        let model = ArrayFlexModel::new(2, 2).unwrap();
        let choice = model.optimal_depth(GemmDims::new(8, 8, 4)).unwrap();
        assert!(choice.collapse_depth <= 2);
    }
}
