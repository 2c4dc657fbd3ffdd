//! Smoke tests keeping the `examples/` binaries honest.
//!
//! `cargo test` builds every example (the compile gate below forces it even
//! when only this test target is requested), and the tests here drive the
//! same library calls `examples/quickstart.rs` makes, asserting the claims
//! its output prints. If an example's API usage rots, this file fails.

use arrayflex::{compare_network, ArrayFlexModel};
use cnn::models::resnet34;
use cnn::DepthwiseMapping;
use gemm::GemmDims;
use std::path::Path;
use std::process::Command;

/// The exact single-layer workload `examples/quickstart.rs` walks through
/// (ResNet-34 layer 28, the Fig. 5(b) GEMM).
#[test]
fn quickstart_single_layer_logic() {
    let model = ArrayFlexModel::new(128, 128).expect("paper-calibrated model");
    let dims = GemmDims::new(512, 2304, 49);

    let conventional = model.execute_conventional(dims).expect("conventional run");
    for k in [1, 2, 4] {
        let execution = model.execute_arrayflex(dims, k).expect("arrayflex run");
        // Collapsing trades cycles for clock period; cycle count never grows.
        assert!(execution.cycles <= conventional.cycles);
    }

    let best = model.optimal_depth(dims).expect("optimal depth");
    assert!([1, 2, 4].contains(&best.collapse_depth));
    assert!(best.continuous_estimate.is_finite());
    // The chosen mode is no slower than any supported mode (quickstart's
    // table is sorted by the same criterion).
    for k in [1, 2, 4] {
        let execution = model.execute_arrayflex(dims, k).expect("arrayflex run");
        assert!(best.execution.time <= execution.time);
    }
}

/// The whole-network half of quickstart: ArrayFlex beats the conventional
/// array on ResNet-34 in time, power and EDP (the printed claims).
#[test]
fn quickstart_network_logic() {
    let model = ArrayFlexModel::new(128, 128).expect("paper-calibrated model");
    let comparison =
        compare_network(&model, &resnet34(), DepthwiseMapping::default()).expect("comparison");
    assert!(comparison.time_saving() > 0.0);
    assert!(comparison.power_saving() > 0.0);
    assert!(comparison.edp_gain() > 1.0);

    let layers = comparison.arrayflex.layers.len();
    assert_eq!(layers, resnet34().layers().len());
    let shallow = comparison.arrayflex.shallow_layer_fraction();
    assert!((0.0..=1.0).contains(&shallow));
}

/// The round trip `examples/serve_client.rs` walks through: an in-process
/// HTTP server's `/v1/plan` response is byte-identical to the direct
/// library call, and the repeated request is a cache hit.
#[test]
fn serve_client_round_trip_logic() {
    use arrayflex_repro::serve::client;
    use arrayflex_repro::serve::http::{serve, ServerConfig};

    let handle = serve(ServerConfig::default()).expect("bind loopback");
    let request = r#"{"network":"resnet34","rows":128,"cols":128}"#;
    let response = client::post_json(handle.addr(), "/v1/plan", request).expect("plan request");
    assert_eq!(response.status, 200);

    let model = ArrayFlexModel::new(128, 128).expect("paper-calibrated model");
    let direct = model
        .plan_arrayflex(&resnet34(), DepthwiseMapping::default())
        .expect("direct plan");
    let direct_json = serde_json::to_string(&direct).expect("plan serializes");
    assert_eq!(response.body, direct_json.into_bytes());

    let cached = client::post_json(handle.addr(), "/v1/plan", request).expect("cached request");
    assert_eq!(cached.body, response.body);
    assert_eq!(handle.state().cache().hits(), 1);
    handle.shutdown();
}

/// Compile gate: building the examples is part of the test run.
///
/// `cargo test` already builds examples of the same package, but only this
/// explicit invocation makes the gate visible (and keeps working if the
/// examples are ever moved to another crate).
#[test]
fn all_examples_compile() {
    let manifest_dir = env!("CARGO_MANIFEST_DIR");
    assert!(
        Path::new(manifest_dir)
            .join("examples/quickstart.rs")
            .exists(),
        "examples/ directory moved; update this test"
    );
    let status = Command::new(env!("CARGO"))
        .args(["build", "--examples", "--quiet"])
        .current_dir(manifest_dir)
        .status()
        .expect("cargo is runnable from within tests");
    assert!(status.success(), "`cargo build --examples` failed");
}
