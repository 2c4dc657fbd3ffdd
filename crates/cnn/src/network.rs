//! Whole-network layer tables.

use crate::layer::{DepthwiseMapping, Layer, LayerGemm};
use serde::{Deserialize, Serialize};
use std::fmt;

/// A named sequence of CNN layers to be executed on the systolic array.
///
/// # Examples
///
/// ```
/// use cnn::models::resnet34;
///
/// let net = resnet34();
/// assert_eq!(net.len(), 34);
/// // Layer 20 is the GEMM used in Fig. 5(a) of the paper.
/// let layer20 = net.layer(20).unwrap();
/// assert_eq!(layer20.gemm_dims().n, 2304);
/// ```
#[derive(Debug, Clone, PartialEq, Eq, Serialize, Deserialize)]
pub struct Network {
    name: String,
    layers: Vec<Layer>,
}

impl Network {
    /// Creates a network from a list of layers.
    #[must_use]
    pub fn new(name: impl Into<String>, layers: Vec<Layer>) -> Self {
        Self {
            name: name.into(),
            layers,
        }
    }

    /// The network's name.
    #[must_use]
    pub fn name(&self) -> &str {
        &self.name
    }

    /// Number of layers.
    #[must_use]
    pub fn len(&self) -> usize {
        self.layers.len()
    }

    /// Returns `true` if the network has no layers.
    #[must_use]
    pub fn is_empty(&self) -> bool {
        self.layers.is_empty()
    }

    /// The layers in execution order.
    #[must_use]
    pub fn layers(&self) -> &[Layer] {
        &self.layers
    }

    /// Iterator over the layers in execution order.
    pub fn iter(&self) -> std::slice::Iter<'_, Layer> {
        self.layers.iter()
    }

    /// Looks a layer up by its 1-based index.
    #[must_use]
    pub fn layer(&self, index: u32) -> Option<&Layer> {
        self.layers.iter().find(|l| l.index == index)
    }

    /// Total multiply-accumulate count of the network.
    #[must_use]
    pub fn total_macs(&self) -> u64 {
        self.layers.iter().map(Layer::macs).sum()
    }

    /// Lowers every layer to its GEMM invocation(s) under the given
    /// depthwise mapping policy, in execution order.
    #[must_use]
    pub fn gemms(&self, mapping: DepthwiseMapping) -> Vec<LayerGemm> {
        self.layers.iter().map(|l| l.gemm(mapping)).collect()
    }

    /// Validates structural invariants: non-empty, strictly increasing
    /// 1-based indices and non-zero GEMM dimensions for every layer.
    ///
    /// # Panics
    ///
    /// Panics with a descriptive message if an invariant is violated; the
    /// model constructors call this in debug builds and the test suite calls
    /// it for every built-in network.
    pub fn assert_valid(&self) {
        assert!(
            !self.layers.is_empty(),
            "network {} has no layers",
            self.name
        );
        let mut previous = 0;
        for layer in &self.layers {
            assert!(
                layer.index > previous,
                "network {}: layer indices must be strictly increasing ({} after {previous})",
                self.name,
                layer.index
            );
            previous = layer.index;
            layer
                .gemm_dims()
                .validate()
                .unwrap_or_else(|e| panic!("network {}: layer {}: {e}", self.name, layer.name));
        }
    }
}

impl fmt::Display for Network {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        writeln!(
            f,
            "{} ({} layers, {:.2} GMACs)",
            self.name,
            self.layers.len(),
            self.total_macs() as f64 / 1e9
        )?;
        for layer in &self.layers {
            writeln!(f, "  {layer}")?;
        }
        Ok(())
    }
}

impl<'a> IntoIterator for &'a Network {
    type Item = &'a Layer;
    type IntoIter = std::slice::Iter<'a, Layer>;

    fn into_iter(self) -> Self::IntoIter {
        self.layers.iter()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use gemm::ConvShape;

    fn tiny_network() -> Network {
        Network::new(
            "tiny",
            vec![
                Layer::conv(1, "conv1", ConvShape::dense(3, 8, 3, 1, 1, 8)),
                Layer::conv(2, "conv2", ConvShape::dense(8, 16, 3, 2, 1, 8)),
                Layer::fully_connected(3, "fc", 256, 10),
            ],
        )
    }

    #[test]
    fn lookup_and_iteration() {
        let net = tiny_network();
        assert_eq!(net.len(), 3);
        assert!(!net.is_empty());
        assert_eq!(net.layer(2).unwrap().name, "conv2");
        assert!(net.layer(9).is_none());
        assert_eq!(net.iter().count(), 3);
        assert_eq!((&net).into_iter().count(), 3);
        net.assert_valid();
    }

    #[test]
    fn total_macs_is_sum_of_layers() {
        let net = tiny_network();
        let expected: u64 = net.layers().iter().map(Layer::macs).sum();
        assert_eq!(net.total_macs(), expected);
        assert!(expected > 0);
    }

    #[test]
    fn gemms_preserve_order_and_indices() {
        let net = tiny_network();
        let gemms = net.gemms(DepthwiseMapping::default());
        assert_eq!(gemms.len(), 3);
        assert_eq!(gemms[0].layer_index, 1);
        assert_eq!(gemms[2].dims.t, 1);
    }

    #[test]
    #[should_panic(expected = "strictly increasing")]
    fn duplicate_indices_fail_validation() {
        let net = Network::new(
            "bad",
            vec![
                Layer::conv(1, "a", ConvShape::dense(3, 8, 3, 1, 1, 8)),
                Layer::conv(1, "b", ConvShape::dense(8, 8, 3, 1, 1, 8)),
            ],
        );
        net.assert_valid();
    }

    #[test]
    #[should_panic(expected = "no layers")]
    fn empty_network_fails_validation() {
        Network::new("empty", vec![]).assert_valid();
    }

    #[test]
    fn display_contains_every_layer() {
        let text = tiny_network().to_string();
        assert!(text.contains("tiny"));
        assert!(text.contains("conv1"));
        assert!(text.contains("fc"));
    }
}
