//! End-to-end calibration checks: the headline numbers of the paper's
//! evaluation, reproduced through the full model stack (layer tables ->
//! latency model -> clock plan -> power model -> comparison).
//!
//! The asserted bands are intentionally wider than the paper's exact numbers
//! because the hardware substrate is an analytical model rather than a
//! synthesized 28 nm netlist; `EXPERIMENTS.md` records the measured values
//! next to the published ones.

use arrayflex::{compare_network, ArrayFlexModel, EvaluationSweep};
use cnn::models::{convnext_tiny, paper_evaluation_networks};
use cnn::DepthwiseMapping;

#[test]
fn print_calibration_summary() {
    // Printed with `--nocapture`; useful when recalibrating the power model.
    for size in [128u32, 256] {
        let model = ArrayFlexModel::new(size, size).unwrap();
        for net in paper_evaluation_networks() {
            let cmp = compare_network(&model, &net, DepthwiseMapping::default()).unwrap();
            println!(
                "{:>13} {size}x{size}: time_saving={:+.3} power_saving={:+.3} edp={:.2}",
                net.name(),
                cmp.time_saving(),
                cmp.power_saving(),
                cmp.edp_gain(),
            );
        }
    }
}

#[test]
fn time_savings_are_in_the_papers_ballpark() {
    // Paper: 9%-11% lower execution latency across CNNs and array sizes.
    let results = EvaluationSweep::date23()
        .run(&paper_evaluation_networks())
        .unwrap();
    assert_eq!(results.len(), 6);
    for cmp in &results {
        let saving = cmp.time_saving();
        assert!(
            (0.04..=0.20).contains(&saving),
            "{} on {}x{}: time saving {saving:.3} outside band",
            cmp.network_name,
            cmp.rows,
            cmp.cols
        );
    }
    let average: f64 =
        results.iter().map(NetworkCmpExt::saving).sum::<f64>() / results.len() as f64;
    assert!(
        (0.07..=0.15).contains(&average),
        "average time saving {average:.3} not near the paper's 11%"
    );
}

#[test]
fn power_savings_are_positive_and_grow_with_array_size() {
    // Paper: 13%-15% on 128x128 arrays and 17%-23% on 256x256 arrays. The
    // analytical power model under-reproduces the small-array savings but
    // preserves the ordering and the large-array band.
    let networks = paper_evaluation_networks();
    for net in &networks {
        let small = compare_network(
            &ArrayFlexModel::new(128, 128).unwrap(),
            net,
            DepthwiseMapping::default(),
        )
        .unwrap();
        let large = compare_network(
            &ArrayFlexModel::new(256, 256).unwrap(),
            net,
            DepthwiseMapping::default(),
        )
        .unwrap();
        assert!(small.power_saving() > 0.03, "{}", net.name());
        assert!(large.power_saving() > 0.10, "{}", net.name());
        assert!(
            large.power_saving() > small.power_saving(),
            "{}: larger arrays must save more power",
            net.name()
        );
    }
}

#[test]
fn edp_gains_are_between_1_2_and_1_9() {
    // Paper: combined energy-delay-product efficiency between 1.4x and 1.8x.
    let results = EvaluationSweep::date23()
        .run(&paper_evaluation_networks())
        .unwrap();
    for cmp in &results {
        let gain = cmp.edp_gain();
        assert!(
            (1.2..=1.9).contains(&gain),
            "{} on {}x{}: EDP gain {gain:.2} outside band",
            cmp.network_name,
            cmp.rows,
            cmp.cols
        );
    }
    assert!(results.iter().any(|c| c.edp_gain() > 1.4));
}

#[test]
fn convnext_mode_regions_match_section_iv_a() {
    // Section IV-A: on a 128x128 array the first ~11 ConvNeXt layers prefer
    // normal mode, the middle layers k = 2 and the last stage k = 4.
    let model = ArrayFlexModel::new(128, 128).unwrap();
    let plan = model
        .plan_arrayflex(&convnext_tiny(), DepthwiseMapping::default())
        .unwrap();
    let depth = |index: u32| plan.layer(index).unwrap().execution.collapse_depth;
    assert_eq!(depth(1), 1, "the stem prefers normal mode");
    assert_eq!(depth(5), 1, "stage-1 layers prefer normal mode");
    assert_eq!(depth(25), 2, "stage-3 layers prefer k = 2");
    assert_eq!(depth(50), 4, "stage-4 layers prefer k = 4");
    // Larger arrays shift more layers to deep collapsing (Fig. 8 trend).
    let big = ArrayFlexModel::new(256, 256).unwrap();
    let big_plan = big
        .plan_arrayflex(&convnext_tiny(), DepthwiseMapping::default())
        .unwrap();
    let deep = |p: &arrayflex::NetworkPlan| {
        p.layers
            .iter()
            .filter(|l| l.execution.collapse_depth == 4)
            .count()
    };
    assert!(deep(&big_plan) > deep(&plan));
}

/// Helper trait so the average above reads naturally.
trait NetworkCmpExt {
    fn saving(&self) -> f64;
}

impl NetworkCmpExt for arrayflex::NetworkComparison {
    fn saving(&self) -> f64 {
        self.time_saving()
    }
}
