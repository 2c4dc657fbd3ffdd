//! Golden-file tests: canonical `/v1/plan`, `/v1/sweep` and
//! `/v1/simulate` responses are committed to the repository and must never
//! drift.
//!
//! The CI smoke test curls a live server with the same plan request
//! (`scripts/serve_smoke.sh`) and compares against the same file, so the
//! goldens pin the over-the-wire contract: the exact bytes of planning
//! ResNet-34 on a 128x128 array with the paper's default calibration, of
//! sweeping one (network x size) pair across both array dataflows, and of
//! register-level simulations at service-sized shapes on both dataflows.
//! `plan_digests.json` widens the plan contract to every named network,
//! design and mapping on two geometries, as one length and digest per
//! body.
//!
//! Regenerate intentionally with:
//! `BLESS_GOLDEN=1 cargo test -p arrayflex-serve --test golden`

use arrayflex::sa_sim::Dataflow;
use arrayflex_serve::api::{equivalent_sweep, MAX_SIM_MACS, NAMED_NETWORKS};
use arrayflex_serve::client;
use arrayflex_serve::http::{serve, ServerConfig};
use cnn::DepthwiseMapping;
use std::path::PathBuf;

/// The request body `scripts/serve_smoke.sh` sends (keep in sync).
const GOLDEN_REQUEST: &str = r#"{"network":"resnet34","rows":128,"cols":128}"#;

/// One (network x size) pair swept across both dataflows.
const GOLDEN_SWEEP_REQUEST: &str = r#"{"array_sizes":[64],"networks":["mobilenet_v1"],"dataflows":["weight_stationary","output_stationary"]}"#;

/// The `/v1/simulate` matrix: both dataflows x every supported depth on
/// an 8x8 and a 64x64 array (GEMMs with partial edge tiles), then the
/// largest GEMM the service accepts on the 64x64 output-stationary array.
fn simulate_matrix_requests() -> Vec<String> {
    let mut bodies = Vec::new();
    for dataflow in Dataflow::ALL {
        for (edge, t, n, m) in [(8u32, 20u64, 24u64, 13u64), (64, 80, 48, 72)] {
            for k in 1..=4u32 {
                let seed = 1000 + bodies.len() as u64;
                bodies.push(format!(
                    r#"{{"rows":{edge},"cols":{edge},"k":{k},"t":{t},"n":{n},"m":{m},"seed":{seed},"dataflow":"{}"}}"#,
                    dataflow.as_str()
                ));
            }
        }
    }
    let edge = 128u64;
    assert_eq!(edge.pow(3), MAX_SIM_MACS);
    bodies.push(format!(
        r#"{{"rows":64,"cols":64,"k":2,"t":{edge},"n":{edge},"m":{edge},"seed":7,"dataflow":"output_stationary"}}"#
    ));
    bodies
}

fn golden_path(name: &str) -> PathBuf {
    PathBuf::from(env!("CARGO_MANIFEST_DIR")).join(format!("tests/golden/{name}"))
}

fn assert_matches_golden(name: &str, body: &[u8]) {
    let path = golden_path(name);
    if std::env::var_os("BLESS_GOLDEN").is_some() {
        std::fs::write(&path, body).expect("write golden file");
        return;
    }
    let golden = std::fs::read(&path).unwrap_or_else(|e| {
        panic!(
            "missing golden file {} ({e}); regenerate with BLESS_GOLDEN=1",
            path.display()
        )
    });
    assert!(
        body == golden,
        "response drifted from {} — if the change is intentional, \
         regenerate with BLESS_GOLDEN=1 and commit the diff",
        path.display()
    );
}

#[test]
fn plan_response_matches_the_committed_golden_file() {
    let handle = serve(ServerConfig::default()).expect("bind loopback");
    let response = client::post_json(handle.addr(), "/v1/plan", GOLDEN_REQUEST).unwrap();
    handle.shutdown();
    assert_eq!(response.status, 200);
    assert_matches_golden("plan_resnet34_128x128.json", &response.body);
}

#[test]
fn sweep_response_matches_the_committed_golden_file_and_the_library() {
    let handle = serve(ServerConfig::default()).expect("bind loopback");
    let response = client::post_json(handle.addr(), "/v1/sweep", GOLDEN_SWEEP_REQUEST).unwrap();
    handle.shutdown();
    assert_eq!(response.status, 200);

    // Byte-identical to the direct library sweep of the same grid — the
    // same contract the `/v1/plan` golden pins for planning.
    let direct = equivalent_sweep(
        &[64],
        &[Dataflow::WeightStationary, Dataflow::OutputStationary],
        DepthwiseMapping::default(),
    )
    .run(&[cnn::models::mobilenet_v1()])
    .unwrap();
    assert_eq!(
        response.body,
        serde_json::to_string(&direct).unwrap().into_bytes()
    );

    assert_matches_golden("sweep_mobilenet_64_dataflows.json", &response.body);
}

/// 64-bit FNV-1a over a byte string.
fn fnv1a(bytes: &[u8]) -> u64 {
    let mut hash: u64 = 0xcbf2_9ce4_8422_2325;
    for &byte in bytes {
        hash ^= u64::from(byte);
        hash = hash.wrapping_mul(0x0000_0100_0000_01b3);
    }
    hash
}

/// The `/v1/plan` digest matrix: every named network × every design ×
/// both depthwise mappings, on a square and a skewed array.
fn plan_digest_requests() -> Vec<String> {
    let mut bodies = Vec::new();
    for (rows, cols) in [(128u32, 128u32), (37, 200)] {
        for network in NAMED_NETWORKS {
            for design in [r#""arrayflex""#, r#""conventional""#, r#"{"fixed":2}"#] {
                for mapping in ["BlockDiagonal", "PerGroup"] {
                    bodies.push(format!(
                        r#"{{"network":"{network}","rows":{rows},"cols":{cols},"design":{design},"mapping":"{mapping}"}}"#
                    ));
                }
            }
        }
    }
    bodies
}

/// Pins the length and FNV-1a digest of 72 `/v1/plan` bodies. The document
/// is assembled with `format!` alone, so it does not depend on the JSON
/// writer it checks.
#[test]
fn plan_digest_matrix_matches_the_committed_golden_file() {
    let handle = serve(ServerConfig::default()).expect("bind loopback");
    let mut rows = Vec::new();
    for request in plan_digest_requests() {
        let response = client::post_json(handle.addr(), "/v1/plan", &request).unwrap();
        assert_eq!(response.status, 200, "{request}");
        rows.push(format!(
            r#"{{"request":{request},"bytes":{},"fnv1a":"{:016x}"}}"#,
            response.body.len(),
            fnv1a(&response.body)
        ));
    }
    handle.shutdown();
    let document = format!("[\n{}\n]\n", rows.join(",\n"));
    assert_matches_golden("plan_digests.json", document.as_bytes());
}

#[test]
fn simulate_matrix_matches_the_committed_golden_file() {
    let handle = serve(ServerConfig::default()).expect("bind loopback");
    let mut bodies = Vec::new();
    for request in simulate_matrix_requests() {
        let response = client::post_json(handle.addr(), "/v1/simulate", &request).unwrap();
        assert_eq!(response.status, 200, "{request}");
        let body = String::from_utf8(response.body).unwrap();
        assert!(
            body.contains(r#""cycles_match":true"#)
                && body.contains(r#""functionally_correct":true"#),
            "{request} -> {body}"
        );
        bodies.push(body);
    }
    handle.shutdown();
    let document = format!("[\n{}\n]\n", bodies.join(",\n"));
    assert_matches_golden("simulate_matrix.json", document.as_bytes());
}
