//! Integration tests of the extension features built on top of the paper's
//! core reproduction: memory-traffic accounting, execution tracing,
//! alternative optimization objectives and the extra workload tables.

use arrayflex::{ArrayFlexModel, Objective};
use cnn::models::{bert_base, resnet50, vgg16};
use cnn::DepthwiseMapping;
use gemm::rng::SplitMix64;
use gemm::{GemmDims, Matrix};
use sa_sim::{trace_tile, traffic_for_gemm, ArrayConfig, Simulator};

#[test]
fn traffic_is_mode_independent_but_latency_is_not() {
    let dims = GemmDims::new(96, 192, 49);
    let model = ArrayFlexModel::new(32, 32).unwrap();
    let normal_cfg = ArrayConfig::new(32, 32);
    let shallow_cfg = ArrayConfig::new(32, 32).with_collapse_depth(4);
    // Same words moved, fewer cycles: the bandwidth-neutrality claim of the
    // paper holds while latency still improves.
    assert_eq!(
        traffic_for_gemm(normal_cfg, dims).unwrap(),
        traffic_for_gemm(shallow_cfg, dims).unwrap()
    );
    assert!(model.total_cycles(dims, 4).unwrap() < model.total_cycles(dims, 1).unwrap());
}

#[test]
fn traced_tile_matches_untraced_execution_and_shows_the_wavefront() {
    let config = ArrayConfig::new(6, 6).with_collapse_depth(2);
    let mut rng = SplitMix64::new(3);
    let a = Matrix::random(4, 6, &mut rng, -7, 7);
    let b = Matrix::random(6, 6, &mut rng, -7, 7);
    let (output, stats, trace) = trace_tile(config, &a, &b).unwrap();
    let plain = Simulator::new(config).unwrap().run_tile(&a, &b).unwrap();
    assert_eq!(output, plain.output);
    assert_eq!(stats, plain.stats);
    // The wavefront needs ceil(R/k) - 1 = 2 cycles to reach the south edge.
    assert_eq!(trace.first_output_cycle(), Some(2));
    assert!(trace.render().contains("compute cycles"));
}

#[test]
fn objective_selection_trades_latency_for_energy_on_vgg16() {
    // VGG-16's huge-T layers want k = 1 for latency but k = 4 for energy,
    // so the two objectives must diverge measurably.
    let model = ArrayFlexModel::new(128, 128).unwrap();
    let net = vgg16();
    let by_latency = model
        .plan_arrayflex_with_objective(&net, DepthwiseMapping::default(), Objective::Latency)
        .unwrap();
    let by_energy = model
        .plan_arrayflex_with_objective(&net, DepthwiseMapping::default(), Objective::Energy)
        .unwrap();
    assert!(by_latency.total_time() < by_energy.total_time());
    assert!(by_energy.total_energy() < by_latency.total_energy());
    // Latency planning keeps the big early layers in normal mode.
    assert_eq!(by_latency.layer(1).unwrap().execution.collapse_depth, 1);
    assert_eq!(by_energy.layer(1).unwrap().execution.collapse_depth, 4);
}

#[test]
fn extra_workloads_plan_cleanly_on_both_designs() {
    let model = ArrayFlexModel::new(128, 128).unwrap();
    for network in [resnet50(), vgg16(), bert_base(128)] {
        let conventional = model
            .plan_conventional(&network, DepthwiseMapping::default())
            .unwrap();
        let arrayflex = model
            .plan_arrayflex(&network, DepthwiseMapping::default())
            .unwrap();
        assert_eq!(conventional.layers.len(), network.len());
        assert_eq!(arrayflex.layers.len(), network.len());
        assert!(
            arrayflex.total_time() <= conventional.total_time() * 1.12,
            "{}: per-layer optimum should never lose badly",
            network.name()
        );
        assert!(arrayflex.total_cycles() <= conventional.total_cycles());
    }
}

#[test]
fn bert_attention_heads_execute_as_repeated_gemms() {
    let model = ArrayFlexModel::new(64, 64).unwrap();
    let plan = model
        .plan_arrayflex(&bert_base(64), DepthwiseMapping::default())
        .unwrap();
    let scores = plan.layer(2).unwrap();
    assert_eq!(scores.repeats, 12);
    assert_eq!(scores.execution.dims, GemmDims::new(64, 64, 64));
    // Layer totals multiply the per-invocation execution by the head count.
    assert!((scores.time().value() - scores.execution.time.value() * 12.0).abs() < 1e-9);
}
