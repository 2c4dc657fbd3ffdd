//! Round trip through the HTTP serving layer: spawn the planning service
//! in-process, request a plan over loopback, and verify the response is
//! byte-identical to calling the library directly.
//!
//! Run with: `cargo run --example serve_client`

use arrayflex_repro::prelude::*;
use arrayflex_repro::serve::client;
use arrayflex_repro::serve::http::{serve, ServerConfig};

fn main() -> Result<(), Box<dyn std::error::Error>> {
    // 1. Spawn the service on an ephemeral loopback port.
    let handle = serve(ServerConfig::default())?;
    println!("serving on http://{}", handle.addr());

    // 2. Ask it to plan ResNet-34 on a 128x128 ArrayFlex array.
    let request = r#"{"network":"resnet34","rows":128,"cols":128}"#;
    let response = client::post_json(handle.addr(), "/v1/plan", request)?;
    println!(
        "POST /v1/plan -> {} ({} bytes)",
        response.status,
        response.body.len()
    );
    assert_eq!(response.status, 200);

    // 3. The response is byte-identical to the direct library call.
    let model = ArrayFlexModel::new(128, 128)?;
    let direct = model.plan_arrayflex(&models::resnet34(), DepthwiseMapping::default())?;
    let direct_json = serde_json::to_string(&direct)?;
    assert_eq!(response.body, direct_json.into_bytes());
    println!("response matches ArrayFlexModel::plan_arrayflex byte for byte");

    // 4. A repeated request is served from the plan cache (visible in the
    //    Prometheus metrics) with, again, identical bytes.
    let cached = client::post_json(handle.addr(), "/v1/plan", request)?;
    assert_eq!(cached.body, response.body);
    let metrics = client::get(handle.addr(), "/metrics")?;
    let hits_line = metrics
        .text()?
        .lines()
        .find(|l| l.starts_with("arrayflex_serve_plan_cache_hits_total"))
        .unwrap_or("")
        .to_owned();
    println!("{hits_line}");
    assert_eq!(hits_line, "arrayflex_serve_plan_cache_hits_total 1");

    // 5. Decode the plan from the wire and read a headline number back out.
    let plan: NetworkPlan = serde_json::from_str(std::str::from_utf8(&response.body)?)?;
    println!(
        "{}: {} layers, total time {}, average power {}",
        plan.network_name,
        plan.layers.len(),
        plan.total_time(),
        plan.average_power()
    );

    handle.shutdown();
    println!("server drained and shut down cleanly");
    Ok(())
}
