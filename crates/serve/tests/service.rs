//! Integration tests of the HTTP service over real loopback sockets.

use arrayflex::sa_sim::Dataflow;
use arrayflex::{ArrayFlexModel, EvaluationSweep};
use arrayflex_serve::client::{self, read_response};
use arrayflex_serve::http::{serve, ServerConfig};
use arrayflex_serve::loadgen::{run, LoadgenConfig};
use cnn::DepthwiseMapping;
use std::io::{BufReader, Write};
use std::net::TcpStream;
use std::time::{Duration, Instant};

fn spawn_default() -> arrayflex_serve::ServerHandle {
    serve(ServerConfig::default()).expect("bind loopback")
}

const PLAN_BODY: &str = r#"{"network":"resnet34","rows":128,"cols":128}"#;

fn direct_plan_bytes() -> Vec<u8> {
    let model = ArrayFlexModel::new(128, 128).unwrap();
    let plan = model
        .plan_arrayflex(&cnn::models::resnet34(), DepthwiseMapping::default())
        .unwrap();
    serde_json::to_string(&plan).unwrap().into_bytes()
}

#[test]
fn healthz_and_metrics_respond() {
    let handle = spawn_default();
    let health = client::get(handle.addr(), "/healthz").unwrap();
    assert_eq!(health.status, 200);
    assert_eq!(health.body, b"{\"status\":\"ok\"}");
    let metrics = client::get(handle.addr(), "/metrics").unwrap();
    assert_eq!(metrics.status, 200);
    assert!(metrics
        .text()
        .unwrap()
        .contains("arrayflex_serve_plan_cache_misses_total 0"));
    handle.shutdown();
}

#[test]
fn plan_over_the_wire_is_byte_identical_to_the_library() {
    let handle = spawn_default();
    let response = client::post_json(handle.addr(), "/v1/plan", PLAN_BODY).unwrap();
    assert_eq!(response.status, 200);
    assert_eq!(response.body, direct_plan_bytes());

    // The identical request again: served from the cache, same bytes, and
    // the hit shows up in /metrics.
    let again = client::post_json(handle.addr(), "/v1/plan", PLAN_BODY).unwrap();
    assert_eq!(again.body, response.body);
    let metrics = client::get(handle.addr(), "/metrics").unwrap();
    let text = metrics.text().unwrap().to_owned();
    assert!(
        text.contains("arrayflex_serve_plan_cache_hits_total 1"),
        "{text}"
    );
    assert!(
        text.contains("arrayflex_serve_plan_cache_misses_total 1"),
        "{text}"
    );
    assert!(
        text.contains("arrayflex_serve_requests_total{route=\"/v1/plan\",status=\"200\"} 2"),
        "{text}"
    );
    handle.shutdown();
}

#[test]
fn sweep_and_simulate_over_the_wire() {
    let handle = spawn_default();
    let sweep = client::post_json(
        handle.addr(),
        "/v1/sweep",
        r#"{"array_sizes":[32],"networks":["mobilenet_v1"],"threads":2}"#,
    )
    .unwrap();
    assert_eq!(sweep.status, 200);
    let direct = EvaluationSweep {
        array_sizes: vec![32],
        dataflows: vec![Dataflow::WeightStationary],
        mapping: DepthwiseMapping::default(),
        threads: 1,
    }
    .run(&[cnn::models::mobilenet_v1()])
    .unwrap();
    assert_eq!(
        sweep.body,
        serde_json::to_string(&direct).unwrap().into_bytes()
    );

    let simulate = client::post_json(
        handle.addr(),
        "/v1/simulate",
        r#"{"rows":8,"cols":8,"k":4,"t":5,"n":16,"m":12,"seed":11}"#,
    )
    .unwrap();
    assert_eq!(simulate.status, 200);
    let decoded: arrayflex_serve::SimulateResponse =
        serde_json::from_str(simulate.text().unwrap()).unwrap();
    assert!(decoded.cycles_match && decoded.functionally_correct);
    handle.shutdown();
}

#[test]
fn malformed_json_is_a_structured_400() {
    let handle = spawn_default();
    let response = client::post_json(handle.addr(), "/v1/plan", "{\"network\": resnet34}").unwrap();
    assert_eq!(response.status, 400);
    let text = response.text().unwrap();
    assert!(text.starts_with("{\"error\":{\"code\":400,"), "{text}");
    assert!(text.contains("malformed JSON"), "{text}");
    handle.shutdown();
}

#[test]
fn unknown_routes_are_404_and_wrong_methods_405() {
    let handle = spawn_default();
    let response = client::get(handle.addr(), "/v1/does-not-exist").unwrap();
    assert_eq!(response.status, 404);
    assert!(response.text().unwrap().contains("\"code\":404"));
    let response = client::get(handle.addr(), "/v1/plan").unwrap();
    assert_eq!(response.status, 405);
    handle.shutdown();
}

#[test]
fn oversized_bodies_are_rejected_with_413() {
    let handle = serve(ServerConfig {
        max_body_bytes: 256,
        ..ServerConfig::default()
    })
    .expect("bind loopback");
    let big = format!(
        r#"{{"network":"resnet34","rows":128,"cols":128,"padding":"{}"}}"#,
        "x".repeat(1024)
    );
    let response = client::post_json(handle.addr(), "/v1/plan", &big).unwrap();
    assert_eq!(response.status, 413);
    let text = response.text().unwrap();
    assert!(text.starts_with("{\"error\":{\"code\":413,"), "{text}");
    // A request within the limit still works.
    let ok = client::post_json(
        handle.addr(),
        "/v1/plan",
        r#"{"network":"resnet34","rows":16,"cols":16}"#,
    )
    .unwrap();
    assert_eq!(ok.status, 200);
    handle.shutdown();
}

#[test]
fn oversized_body_larger_than_socket_buffers_still_receives_the_413() {
    // A multi-megabyte body cannot fit in loopback socket buffers: unless
    // the server drains what the client is still sending, the client
    // would see a connection reset instead of the structured error.
    let handle = serve(ServerConfig {
        max_body_bytes: 1024,
        ..ServerConfig::default()
    })
    .expect("bind loopback");
    let big = format!(r#"{{"pad":"{}"}}"#, "x".repeat(4 * 1024 * 1024));
    let response = client::post_json(handle.addr(), "/v1/plan", &big).unwrap();
    assert_eq!(response.status, 413);
    assert!(response
        .text()
        .unwrap()
        .starts_with("{\"error\":{\"code\":413,"));
    handle.shutdown();
}

#[test]
fn wide_hostile_objects_parse_in_linear_time() {
    // 50k distinct keys: with the quadratic duplicate-key scan this took
    // seconds of CPU per request; the set-based check keeps it linear.
    let handle = spawn_default();
    let mut body = String::from("{\"network\":\"resnet34\",\"rows\":16,\"cols\":16,\"junk\":{");
    for i in 0..50_000 {
        if i > 0 {
            body.push(',');
        }
        body.push_str(&format!("\"k{i:06}\":0"));
    }
    body.push_str("}}");
    let started = Instant::now();
    let response = client::post_json(handle.addr(), "/v1/plan", &body).unwrap();
    assert!(
        started.elapsed() < Duration::from_secs(5),
        "wide object took {:?}",
        started.elapsed()
    );
    // The unknown `junk` field is simply ignored by the handler.
    assert_eq!(response.status, 200);
    handle.shutdown();
}

#[test]
fn sweep_thread_autodetection_is_capped() {
    let handle = spawn_default();
    // threads: 0 auto-detects but must stay within the documented cap; the
    // request succeeds and matches the serial sweep bytes regardless.
    let response = client::post_json(
        handle.addr(),
        "/v1/sweep",
        r#"{"array_sizes":[16],"networks":["resnet34"],"threads":0}"#,
    )
    .unwrap();
    assert_eq!(response.status, 200);
    let direct = EvaluationSweep {
        array_sizes: vec![16],
        dataflows: vec![Dataflow::WeightStationary],
        mapping: DepthwiseMapping::default(),
        threads: 1,
    }
    .run(&[cnn::models::resnet34()])
    .unwrap();
    assert_eq!(
        response.body,
        serde_json::to_string(&direct).unwrap().into_bytes()
    );
    handle.shutdown();
}

#[test]
fn concurrent_identical_plan_requests_return_byte_identical_bodies() {
    let handle = serve(ServerConfig {
        threads: 8,
        ..ServerConfig::default()
    })
    .expect("bind loopback");
    let addr = handle.addr();
    let bodies: Vec<Vec<u8>> = std::thread::scope(|scope| {
        // The collect is load-bearing: all 16 requests must be in flight
        // concurrently before the first join, or they cannot race on the
        // plan cache.
        #[allow(clippy::needless_collect)]
        let workers: Vec<_> = (0..16)
            .map(|_| {
                scope.spawn(move || {
                    let response = client::post_json(addr, "/v1/plan", PLAN_BODY).unwrap();
                    assert_eq!(response.status, 200);
                    response.body
                })
            })
            .collect();
        workers.into_iter().map(|w| w.join().unwrap()).collect()
    });
    let reference = direct_plan_bytes();
    for body in &bodies {
        assert_eq!(body, &reference);
    }
    // All 16 racing requests collapsed into a single cached plan.
    assert_eq!(handle.state().cache().len(), 1);
    handle.shutdown();
}

#[test]
fn graceful_shutdown_drains_in_flight_requests() {
    let handle = serve(ServerConfig {
        threads: 1,
        ..ServerConfig::default()
    })
    .expect("bind loopback");
    let addr = handle.addr();
    let state = std::sync::Arc::clone(handle.state());

    // Open a connection and send only half of the request: the head
    // announces more body bytes than we write, so the single worker is
    // parked mid-request when shutdown begins.
    let body = PLAN_BODY.as_bytes();
    let (half, rest) = body.split_at(body.len() / 2);
    let mut stream = TcpStream::connect(addr).unwrap();
    stream
        .set_read_timeout(Some(Duration::from_secs(30)))
        .unwrap();
    let head = format!(
        "POST /v1/plan HTTP/1.1\r\nhost: {addr}\r\ncontent-length: {}\r\n\r\n",
        body.len()
    );
    stream.write_all(head.as_bytes()).unwrap();
    stream.write_all(half).unwrap();
    stream.flush().unwrap();

    // Wait until the acceptor has handed our connection to the worker.
    let deadline = Instant::now() + Duration::from_secs(10);
    while state.accepted() < 1 {
        assert!(Instant::now() < deadline, "connection never accepted");
        std::thread::sleep(Duration::from_millis(5));
    }

    // Begin the graceful shutdown while our request is still in flight.
    let shutdown = std::thread::spawn(move || handle.shutdown());
    std::thread::sleep(Duration::from_millis(100));

    // Finish the request: the drained worker must still answer it in full.
    stream.write_all(rest).unwrap();
    stream.flush().unwrap();
    let response = read_response(&mut BufReader::new(&mut stream)).unwrap();
    assert_eq!(response.status, 200);
    assert_eq!(response.body, direct_plan_bytes());

    shutdown.join().expect("shutdown thread");
    // The listener is gone: new connections are refused.
    assert!(client::get(addr, "/healthz").is_err());
}

#[test]
fn loadgen_sustains_one_thousand_requests_with_zero_errors() {
    let handle = serve(ServerConfig {
        threads: 4,
        ..ServerConfig::default()
    })
    .expect("bind loopback");
    let report = run(&LoadgenConfig::plan_workload(handle.addr(), 1000, 4));
    assert_eq!(report.requests, 1000);
    assert_eq!(report.errors, 0, "loadgen saw errors: {}", report.text());
    assert!(report.rps > 0.0);
    assert!(report.p50_us <= report.p90_us);
    assert!(report.p90_us <= report.p99_us);
    assert!(report.p99_us <= report.max_us);
    // Identical plans are served from the cache: every request is one
    // tallied lookup. The first few racing clients may each miss once
    // (the plan is computed outside the shard lock), but the steady state
    // is all hits.
    let (hits, misses) = (
        handle.state().cache().hits(),
        handle.state().cache().misses(),
    );
    assert_eq!(hits + misses, 1000);
    assert!(
        misses <= 4,
        "expected at most one miss per client, got {misses}"
    );
    assert_eq!(handle.state().cache().len(), 1);
    handle.shutdown();
}
