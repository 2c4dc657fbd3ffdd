//! CNN layer descriptors and their mapping to GEMM dimensions.
//!
//! The paper executes single-batch CNN inference by lowering every layer to
//! matrix multiplication (Section I). A [`Layer`] describes one such layer —
//! a convolution (dense, pointwise or depthwise) or a fully-connected layer —
//! and knows how to express itself as one or more GEMM invocations in the
//! paper's `(M, N, T)` notation.

use gemm::{ConvShape, GemmDims};
use serde::{Deserialize, Serialize};
use std::fmt;

/// How depthwise convolutions are mapped onto the systolic array.
///
/// A depthwise convolution is mathematically a block-diagonal GEMM: each
/// channel's `k*k` filter only reduces over that channel's own receptive
/// field. Two mappings are provided:
///
/// * [`DepthwiseMapping::BlockDiagonal`] executes the whole layer as a single
///   GEMM of dimensions `(M = C, N = k*k, T = H_out*W_out)`, as if the block
///   diagonal were packed densely. This is the conventional treatment when a
///   layer table is used as a latency workload and is the default used by the
///   figure-regeneration benches.
/// * [`DepthwiseMapping::PerGroup`] executes one tiny GEMM per channel
///   (`M = 1`, `N = k*k`), which is faithful to the arithmetic but extremely
///   inefficient on a large array; it is provided for sensitivity studies.
#[derive(Debug, Default, Clone, Copy, PartialEq, Eq, Hash, Serialize, Deserialize)]
pub enum DepthwiseMapping {
    /// One dense GEMM per depthwise layer (default).
    #[default]
    BlockDiagonal,
    /// One GEMM per channel group.
    PerGroup,
}

/// The operation a layer performs.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, Serialize, Deserialize)]
pub enum LayerOp {
    /// A 2-D convolution (dense, pointwise or depthwise, depending on the
    /// shape's kernel size and group count).
    Conv(ConvShape),
    /// A fully-connected (linear) layer executed as a `1 x N` by `N x M`
    /// matrix product for single-batch inference.
    FullyConnected {
        /// Input feature count (`N`).
        in_features: u64,
        /// Output feature count (`M`).
        out_features: u64,
    },
    /// An explicit matrix multiplication, possibly repeated several times
    /// with identical dimensions (e.g. one GEMM per attention head in a
    /// transformer encoder layer).
    Matmul {
        /// Dimensions of one invocation.
        dims: GemmDims,
        /// Number of identical invocations.
        count: u64,
    },
}

/// One layer of a CNN, as mapped onto the systolic array.
#[derive(Debug, Clone, PartialEq, Eq, Hash, Serialize, Deserialize)]
pub struct Layer {
    /// 1-based index of the layer within its network, following the paper's
    /// numbering (projection/downsample convolutions are kept out of the
    /// default tables so the indices line up with Fig. 5 and Fig. 7).
    pub index: u32,
    /// Human-readable layer name, e.g. `"conv4_2.1"`.
    pub name: String,
    /// The operation this layer performs.
    pub op: LayerOp,
}

/// One GEMM invocation produced by lowering a layer.
#[derive(Debug, Clone, PartialEq, Eq, Hash, Serialize, Deserialize)]
pub struct LayerGemm {
    /// Index of the layer this GEMM belongs to.
    pub layer_index: u32,
    /// Name of the layer this GEMM belongs to.
    pub layer_name: String,
    /// Dimensions of one invocation.
    pub dims: GemmDims,
    /// How many identical invocations the layer needs (more than one only
    /// for per-group depthwise mapping).
    pub repeats: u64,
}

impl LayerGemm {
    /// Total multiply-accumulate count over all repeats.
    #[must_use]
    pub fn macs(&self) -> u64 {
        self.dims.macs() * self.repeats
    }
}

impl Layer {
    /// Creates a convolution layer.
    #[must_use]
    pub fn conv(index: u32, name: impl Into<String>, shape: ConvShape) -> Self {
        Self {
            index,
            name: name.into(),
            op: LayerOp::Conv(shape),
        }
    }

    /// Creates a fully-connected layer.
    #[must_use]
    pub fn fully_connected(
        index: u32,
        name: impl Into<String>,
        in_features: u64,
        out_features: u64,
    ) -> Self {
        Self {
            index,
            name: name.into(),
            op: LayerOp::FullyConnected {
                in_features,
                out_features,
            },
        }
    }

    /// Creates an explicit matrix-multiplication layer (`count` identical
    /// GEMMs of the given dimensions), used for transformer-style workloads.
    #[must_use]
    pub fn matmul(index: u32, name: impl Into<String>, dims: GemmDims, count: u64) -> Self {
        Self {
            index,
            name: name.into(),
            op: LayerOp::Matmul { dims, count },
        }
    }

    /// Returns `true` if this layer is a depthwise convolution.
    #[must_use]
    pub fn is_depthwise(&self) -> bool {
        matches!(self.op, LayerOp::Conv(shape) if shape.groups > 1)
    }

    /// Returns `true` if this layer is a 1x1 (pointwise) convolution.
    #[must_use]
    pub fn is_pointwise(&self) -> bool {
        matches!(self.op, LayerOp::Conv(shape) if shape.kernel == 1 && shape.groups == 1)
    }

    /// Total multiply-accumulate count of the layer (independent of the
    /// depthwise mapping policy).
    #[must_use]
    pub fn macs(&self) -> u64 {
        match self.op {
            LayerOp::Conv(shape) => shape.macs(),
            LayerOp::FullyConnected {
                in_features,
                out_features,
            } => in_features * out_features,
            LayerOp::Matmul { dims, count } => dims.macs() * count,
        }
    }

    /// Lowers the layer to GEMM invocations under the given depthwise
    /// mapping policy.
    #[must_use]
    pub fn gemm(&self, mapping: DepthwiseMapping) -> LayerGemm {
        let (dims, repeats) = match self.op {
            LayerOp::Conv(shape) => {
                if shape.groups > 1 {
                    match mapping {
                        DepthwiseMapping::BlockDiagonal => {
                            let per_group = shape.gemm_dims();
                            (
                                GemmDims::new(shape.out_channels as u64, per_group.n, per_group.t),
                                1,
                            )
                        }
                        DepthwiseMapping::PerGroup => (shape.gemm_dims(), shape.gemm_count()),
                    }
                } else {
                    (shape.gemm_dims(), 1)
                }
            }
            LayerOp::FullyConnected {
                in_features,
                out_features,
            } => (GemmDims::new(out_features, in_features, 1), 1),
            LayerOp::Matmul { dims, count } => (dims, count),
        };
        LayerGemm {
            layer_index: self.index,
            layer_name: self.name.clone(),
            dims,
            repeats,
        }
    }

    /// Shorthand for the GEMM dimensions under the default (block-diagonal)
    /// depthwise mapping.
    #[must_use]
    pub fn gemm_dims(&self) -> GemmDims {
        self.gemm(DepthwiseMapping::default()).dims
    }
}

impl fmt::Display for Layer {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(
            f,
            "#{:<3} {:<16} {}",
            self.index,
            self.name,
            self.gemm_dims()
        )
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn dense_conv_layer_maps_to_expected_gemm() {
        let layer = Layer::conv(20, "conv4_3.2", ConvShape::dense(256, 256, 3, 1, 1, 14));
        assert_eq!(layer.gemm_dims(), GemmDims::new(256, 2304, 196));
        assert!(!layer.is_depthwise());
        assert!(!layer.is_pointwise());
        assert_eq!(layer.macs(), 256 * 2304 * 196);
    }

    #[test]
    fn pointwise_conv_is_detected() {
        let layer = Layer::conv(2, "pw", ConvShape::dense(64, 128, 1, 1, 0, 56));
        assert!(layer.is_pointwise());
        assert_eq!(layer.gemm_dims(), GemmDims::new(128, 64, 3136));
    }

    #[test]
    fn fully_connected_maps_to_single_row_gemm() {
        let layer = Layer::fully_connected(34, "fc", 512, 1000);
        assert_eq!(layer.gemm_dims(), GemmDims::new(1000, 512, 1));
        assert_eq!(layer.macs(), 512_000);
    }

    #[test]
    fn depthwise_block_diagonal_mapping() {
        let layer = Layer::conv(3, "dw", ConvShape::depthwise(64, 3, 1, 1, 56));
        assert!(layer.is_depthwise());
        let g = layer.gemm(DepthwiseMapping::BlockDiagonal);
        assert_eq!(g.dims, GemmDims::new(64, 9, 3136));
        assert_eq!(g.repeats, 1);
    }

    #[test]
    fn depthwise_per_group_mapping() {
        let layer = Layer::conv(3, "dw", ConvShape::depthwise(64, 3, 1, 1, 56));
        let g = layer.gemm(DepthwiseMapping::PerGroup);
        assert_eq!(g.dims, GemmDims::new(1, 9, 3136));
        assert_eq!(g.repeats, 64);
        // The per-group mapping preserves the true MAC count of the layer.
        assert_eq!(g.macs(), layer.macs());
    }

    #[test]
    fn matmul_layers_carry_explicit_dimensions_and_counts() {
        let layer = Layer::matmul(5, "attention.scores", GemmDims::new(128, 64, 128), 12);
        assert_eq!(layer.gemm_dims(), GemmDims::new(128, 64, 128));
        let g = layer.gemm(DepthwiseMapping::default());
        assert_eq!(g.repeats, 12);
        assert_eq!(layer.macs(), 12 * 128 * 64 * 128);
        assert!(!layer.is_depthwise());
        assert!(!layer.is_pointwise());
    }

    #[test]
    fn display_shows_index_and_dims() {
        let layer = Layer::conv(7, "conv2_1.1", ConvShape::dense(64, 64, 3, 1, 1, 56));
        let text = layer.to_string();
        assert!(text.contains("#7"));
        assert!(text.contains("conv2_1.1"));
        assert!(text.contains("N=576"));
    }
}
