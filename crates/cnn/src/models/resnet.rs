//! ResNet-34 layer table (He et al., CVPR 2016) for 224x224 inputs.

use crate::layer::Layer;
use crate::network::Network;
use gemm::ConvShape;

/// Per-stage configuration of ResNet-34: (blocks, channels, input size of
/// the stage once the stride-2 transition has been applied).
const STAGES: [(u32, usize, usize); 4] = [(3, 64, 56), (4, 128, 28), (6, 256, 14), (3, 512, 7)];

/// Builds the ResNet-34 layer table used by the paper's evaluation.
///
/// The table contains the 33 convolution layers of the main path plus the
/// final fully-connected layer (34 layers in total). Projection shortcuts
/// (the three 1x1 stride-2 convolutions) are not part of the paper's layer
/// numbering; use [`resnet34_with_projections`] if you want them included.
///
/// Layer 20 of this table is the `(M, N, T) = (256, 2304, 196)` GEMM and
/// layer 28 the `(512, 2304, 49)` GEMM used in Fig. 5 of the paper.
#[must_use]
pub fn resnet34() -> Network {
    build(false)
}

/// ResNet-34 including the three projection-shortcut convolutions (37 conv
/// layers plus the classifier). Layer indices are renumbered sequentially
/// and therefore do **not** match the paper's Fig. 5 numbering.
#[must_use]
pub fn resnet34_with_projections() -> Network {
    build(true)
}

fn build(with_projections: bool) -> Network {
    let mut layers = Vec::new();
    let mut index = 1u32;
    let mut push = |layers: &mut Vec<Layer>, name: String, shape: ConvShape| {
        layers.push(Layer::conv(index, name, shape));
        index += 1;
    };

    // Stem: 7x7 stride-2 convolution on the 224x224 input.
    push(
        &mut layers,
        "conv1".to_owned(),
        ConvShape::dense(3, 64, 7, 2, 3, 224),
    );

    // Residual stages. The max-pool between the stem and stage 2 reduces the
    // spatial size to 56x56 but contributes no GEMM.
    let mut in_channels = 64;
    for (stage_idx, (blocks, channels, size)) in STAGES.into_iter().enumerate() {
        let stage = stage_idx + 2; // stages are conventionally named conv2_x..conv5_x
        for block in 1..=blocks {
            let first_stride = if stage > 2 && block == 1 { 2 } else { 1 };
            let first_input = if first_stride == 2 { size * 2 } else { size };
            push(
                &mut layers,
                format!("conv{stage}_{block}.1"),
                ConvShape::dense(in_channels, channels, 3, first_stride, 1, first_input),
            );
            push(
                &mut layers,
                format!("conv{stage}_{block}.2"),
                ConvShape::dense(channels, channels, 3, 1, 1, size),
            );
            if with_projections && block == 1 && stage > 2 {
                push(
                    &mut layers,
                    format!("conv{stage}_proj"),
                    ConvShape::dense(in_channels, channels, 1, 2, 0, size * 2),
                );
            }
            in_channels = channels;
        }
    }

    // Classifier.
    layers.push(Layer::fully_connected(index, "fc", 512, 1000));

    let net = Network::new("resnet34", layers);
    net.assert_valid();
    net
}

/// Builds the ResNet-18 layer table (two 3x3 convolutions per basic block,
/// stages of 2/2/2/2 blocks): 17 convolutions plus the classifier.
///
/// ResNet-18 is not part of the paper's evaluation; it is provided as an
/// additional workload for the examples and sensitivity studies.
#[must_use]
pub fn resnet18() -> Network {
    let mut layers = Vec::new();
    let mut index = 1u32;
    layers.push(Layer::conv(
        index,
        "conv1",
        ConvShape::dense(3, 64, 7, 2, 3, 224),
    ));
    index += 1;
    let stages: [(u32, usize, usize); 4] = [(2, 64, 56), (2, 128, 28), (2, 256, 14), (2, 512, 7)];
    let mut in_channels = 64;
    for (stage_idx, (blocks, channels, size)) in stages.into_iter().enumerate() {
        let stage = stage_idx + 2;
        for block in 1..=blocks {
            let first_stride = if stage > 2 && block == 1 { 2 } else { 1 };
            let first_input = if first_stride == 2 { size * 2 } else { size };
            layers.push(Layer::conv(
                index,
                format!("conv{stage}_{block}.1"),
                ConvShape::dense(in_channels, channels, 3, first_stride, 1, first_input),
            ));
            index += 1;
            layers.push(Layer::conv(
                index,
                format!("conv{stage}_{block}.2"),
                ConvShape::dense(channels, channels, 3, 1, 1, size),
            ));
            index += 1;
            in_channels = channels;
        }
    }
    layers.push(Layer::fully_connected(index, "fc", 512, 1000));
    let net = Network::new("resnet18", layers);
    net.assert_valid();
    net
}

/// Builds the ResNet-50 layer table (bottleneck blocks: 1x1 reduce, 3x3,
/// 1x1 expand, stages of 3/4/6/3 blocks): 49 convolutions plus the
/// classifier. Projection shortcuts are not included, mirroring the
/// ResNet-34 table.
///
/// ResNet-50 is not part of the paper's evaluation; it is provided as an
/// additional workload with many 1x1 convolutions, whose small reduction
/// dimension stresses the optimizer differently than the 3x3-dominated
/// ResNet-34.
#[must_use]
pub fn resnet50() -> Network {
    let mut layers = Vec::new();
    let mut index = 1u32;
    layers.push(Layer::conv(
        index,
        "conv1",
        ConvShape::dense(3, 64, 7, 2, 3, 224),
    ));
    index += 1;
    // (blocks, bottleneck width, output size); output channels are 4x width.
    let stages: [(u32, usize, usize); 4] = [(3, 64, 56), (4, 128, 28), (6, 256, 14), (3, 512, 7)];
    let mut in_channels = 64;
    for (stage_idx, (blocks, width, size)) in stages.into_iter().enumerate() {
        let stage = stage_idx + 2;
        let out_channels = width * 4;
        for block in 1..=blocks {
            let stride = if stage > 2 && block == 1 { 2 } else { 1 };
            let input = if stride == 2 { size * 2 } else { size };
            layers.push(Layer::conv(
                index,
                format!("conv{stage}_{block}.reduce"),
                ConvShape::dense(in_channels, width, 1, 1, 0, input),
            ));
            index += 1;
            layers.push(Layer::conv(
                index,
                format!("conv{stage}_{block}.spatial"),
                ConvShape::dense(width, width, 3, stride, 1, input),
            ));
            index += 1;
            layers.push(Layer::conv(
                index,
                format!("conv{stage}_{block}.expand"),
                ConvShape::dense(width, out_channels, 1, 1, 0, size),
            ));
            index += 1;
            in_channels = out_channels;
        }
    }
    layers.push(Layer::fully_connected(index, "fc", 2048, 1000));
    let net = Network::new("resnet50", layers);
    net.assert_valid();
    net
}

#[cfg(test)]
mod tests {
    use super::*;
    use gemm::GemmDims;

    #[test]
    fn has_34_layers_matching_the_paper_numbering() {
        let net = resnet34();
        assert_eq!(net.len(), 34);
        assert_eq!(net.layer(1).unwrap().name, "conv1");
        assert_eq!(net.layer(34).unwrap().name, "fc");
    }

    #[test]
    fn layer_20_and_28_match_fig5_dimensions() {
        let net = resnet34();
        assert_eq!(
            net.layer(20).unwrap().gemm_dims(),
            GemmDims::new(256, 2304, 196),
            "layer 20 must be the Fig. 5(a) GEMM"
        );
        assert_eq!(
            net.layer(28).unwrap().gemm_dims(),
            GemmDims::new(512, 2304, 49),
            "layer 28 must be the Fig. 5(b) GEMM"
        );
    }

    #[test]
    fn stem_and_classifier_shapes() {
        let net = resnet34();
        // 7x7 stride-2 stem over 224x224 -> 112x112 output.
        assert_eq!(
            net.layer(1).unwrap().gemm_dims(),
            GemmDims::new(64, 147, 12544)
        );
        assert_eq!(
            net.layer(34).unwrap().gemm_dims(),
            GemmDims::new(1000, 512, 1)
        );
    }

    #[test]
    fn total_macs_is_in_the_published_ballpark() {
        // ResNet-34 is commonly quoted at ~3.6 GMACs for 224x224 inputs.
        let gmacs = resnet34().total_macs() as f64 / 1e9;
        assert!(
            (3.2..=4.0).contains(&gmacs),
            "ResNet-34 MACs {gmacs} GMACs out of expected range"
        );
    }

    #[test]
    fn projection_variant_has_three_extra_convs() {
        let plain = resnet34();
        let with_proj = resnet34_with_projections();
        assert_eq!(with_proj.len(), plain.len() + 3);
        assert!(with_proj.total_macs() > plain.total_macs());
    }

    #[test]
    fn resnet18_and_resnet50_have_the_expected_layer_counts() {
        let r18 = resnet18();
        assert_eq!(r18.len(), 18);
        assert_eq!(r18.layer(18).unwrap().name, "fc");
        let gmacs18 = r18.total_macs() as f64 / 1e9;
        assert!((1.6..=2.1).contains(&gmacs18), "ResNet-18 {gmacs18} GMACs");

        let r50 = resnet50();
        assert_eq!(r50.len(), 50);
        assert_eq!(r50.layer(50).unwrap().name, "fc");
        // ResNet-50 is ~4.1 GMACs; without projection shortcuts slightly less.
        let gmacs50 = r50.total_macs() as f64 / 1e9;
        assert!((3.4..=4.3).contains(&gmacs50), "ResNet-50 {gmacs50} GMACs");
        // Bottleneck blocks are dominated by 1x1 convolutions.
        let pointwise = r50.layers().iter().filter(|l| l.is_pointwise()).count();
        assert_eq!(pointwise, 32);
    }

    #[test]
    fn spatial_sizes_decrease_monotonically_through_stages() {
        let net = resnet34();
        let t_values: Vec<u64> = net.layers()[1..33]
            .iter()
            .map(|l| l.gemm_dims().t)
            .collect();
        // Stage outputs are 56^2, 28^2, 14^2, 7^2.
        assert!(t_values.contains(&3136));
        assert!(t_values.contains(&784));
        assert!(t_values.contains(&196));
        assert!(t_values.contains(&49));
        assert!(t_values.iter().all(|&t| t <= 3136));
    }
}
