//! Chaos-invariant integration tests: seeded fault schedules through the
//! real event loop, overload shedding, request deadlines, panic isolation
//! and accept-error backoff.
//!
//! The invariant under test everywhere: for any seeded fault schedule the
//! server never panics, never deadlocks (shutdown always completes), and
//! every 200 it returns is byte-identical to the fault-free body.

use arrayflex_serve::api;
use arrayflex_serve::client;
use arrayflex_serve::http::{serve, HttpRequest, ServerConfig};
use arrayflex_serve::loadgen::{chaos_run, ChaosConfig};
use arrayflex_serve::{AppState, FaultConfig};
use std::time::Duration;

const PLAN_BODY: &str = r#"{"network":"resnet18","rows":64,"cols":64}"#;

/// The fault-free reference body for one route: what a direct library
/// call (no sockets, no faults, no concurrency) serializes.
fn reference_body(path: &str, body: &str) -> Vec<u8> {
    let state = AppState::new(&ServerConfig::default());
    let response = api::handle(
        &state,
        &HttpRequest {
            method: "POST".to_owned(),
            path: path.to_owned(),
            body: body.as_bytes().to_vec(),
        },
    );
    assert_eq!(response.status, 200, "reference request must be valid");
    response.body
}

/// Decodes a structured error body (`{"error":{"code":N,"message":".."}}`)
/// into its code and message, asserting the shape along the way.
fn error_fields(body: &[u8]) -> (i64, String) {
    let text = std::str::from_utf8(body).expect("error body is UTF-8");
    let value: serde::Value = serde_json::from_str(text).expect("error body is JSON");
    let error = value.get("error").expect("body has an `error` object");
    let code = match error.get("code") {
        Some(serde::Value::Int(code)) => *code,
        other => panic!("error.code is {other:?}"),
    };
    let message = match error.get("message") {
        Some(serde::Value::Str(message)) => message.clone(),
        other => panic!("error.message is {other:?}"),
    };
    (code, message)
}

/// A fault config that only fails accepts — stream and poll I/O stay
/// clean so the test isolates the accept-backoff path.
fn accept_only_faults(seed: u64, burst: u32) -> FaultConfig {
    FaultConfig {
        seed,
        read_eintr: 0,
        read_wouldblock: 0,
        read_short: 0,
        read_reset: 0,
        write_eintr: 0,
        write_wouldblock: 0,
        write_short: 0,
        write_reset: 0,
        poll_eintr: 0,
        spurious_wakeup: 0,
        accept_fail_burst: burst,
    }
}

#[test]
fn seeded_fault_schedules_never_panic_and_every_200_is_byte_identical() {
    // Three distinct schedules; each drives EINTR, short reads/writes,
    // WouldBlock, resets and spurious wakeups through the event loop in a
    // different deterministic order, alongside misbehaving clients
    // (slowloris drips, aborted pipelines, mid-body hangups).
    for seed in [20230418_u64, 7, 424242] {
        let handle = serve(ServerConfig {
            threads: 2,
            queue_limit: 4,
            faults: Some(FaultConfig::with_seed(seed)),
            ..ServerConfig::default()
        })
        .expect("bind loopback");
        let report = chaos_run(&ChaosConfig {
            addr: handle.addr(),
            seed,
            requests: 60,
            clients: 3,
        });
        assert!(
            report.passed(),
            "seed {seed} violated the chaos invariant: {report:?}"
        );
        assert_eq!(
            report.mismatches, 0,
            "seed {seed}: every 200 must be byte-identical to the fault-free body"
        );
        assert!(report.ok > 0, "seed {seed}: no verified 200s: {report:?}");
        assert_eq!(
            handle.state().metrics().panics(),
            0,
            "seed {seed}: a worker or loop handler panicked"
        );
        // Shutdown completing is the no-deadlock half of the invariant.
        handle.shutdown();
    }
}

#[test]
fn vanished_job_submitters_leave_a_drainable_server() {
    // The vanishing-tenant chaos arm submits async jobs and hangs up —
    // sometimes without reading the 202. Jobs are detached from their
    // submitting connection, so the server must run (or shed) every one
    // and still drain cleanly at shutdown.
    let handle = serve(ServerConfig {
        threads: 2,
        queue_limit: 4,
        ..ServerConfig::default()
    })
    .expect("bind loopback");
    let state = std::sync::Arc::clone(handle.state());
    let report = chaos_run(&ChaosConfig {
        addr: handle.addr(),
        seed: 20230418,
        requests: 120,
        clients: 3,
    });
    assert!(report.passed(), "chaos invariant violated: {report:?}");
    assert!(
        state.metrics().jobs_submitted() > 0,
        "the vanishing-tenant arm never reached the server: {report:?}"
    );
    assert_eq!(state.metrics().panics(), 0);
    // Shutdown joining every orphaned job runner is the drain half of
    // the invariant; afterwards each submitted job has settled.
    handle.shutdown();
    let settled = state.metrics().jobs_completed()
        + state.metrics().jobs_cancelled()
        + state.metrics().jobs_failed()
        + state.metrics().cancelled("shutdown");
    assert_eq!(
        settled,
        state.metrics().jobs_submitted(),
        "every submitted job must settle by completion, cancellation, or shutdown"
    );
    assert_eq!(state.metrics().jobs_failed(), 0, "no chaos job may fail");
}

#[test]
fn overload_sheds_with_a_structured_503_and_retry_after() {
    // One worker, a one-deep queue: concurrent simulate requests must
    // overflow it.
    let handle = serve(ServerConfig {
        threads: 1,
        queue_limit: 1,
        ..ServerConfig::default()
    })
    .expect("bind loopback");
    let addr = handle.addr();
    let bodies: Vec<String> = (1..=8)
        .map(|seed| format!(r#"{{"rows":16,"cols":16,"k":2,"t":8,"n":48,"m":24,"seed":{seed}}}"#))
        .collect();
    let responses: Vec<_> = std::thread::scope(|scope| {
        // Spawn-all-then-join: collecting first is what makes the
        // requests concurrent.
        #[allow(clippy::needless_collect)]
        let handles: Vec<_> = bodies
            .iter()
            .map(|body| {
                scope.spawn(move || {
                    client::post_json(addr, "/v1/simulate", body).expect("transport stays clean")
                })
            })
            .collect();
        handles.into_iter().map(|h| h.join().unwrap()).collect()
    });

    let mut sheds = 0;
    for (body, response) in bodies.iter().zip(&responses) {
        match response.status {
            200 => assert_eq!(
                response.body,
                reference_body("/v1/simulate", body),
                "admitted responses must stay byte-identical under load"
            ),
            503 => {
                sheds += 1;
                assert_eq!(
                    response.retry_after,
                    Some(1),
                    "a shed 503 must carry Retry-After"
                );
                let (code, _) = error_fields(&response.body);
                assert_eq!(code, 503);
            }
            other => panic!("unexpected status {other}"),
        }
    }
    assert!(
        sheds > 0,
        "8 concurrent jobs against a 1-deep queue must shed"
    );
    assert!(
        responses.iter().any(|r| r.status == 200),
        "some work is admitted"
    );
    assert_eq!(handle.state().metrics().total_sheds(), sheds);

    // The shed counter is visible per route in /metrics.
    let metrics = client::get(addr, "/metrics").unwrap();
    let text = metrics.text().unwrap().to_owned();
    assert!(
        text.contains(r#"arrayflex_serve_shed_total{route="/v1/simulate"}"#),
        "{text}"
    );
    handle.shutdown();
}

#[test]
fn expired_deadlines_are_answered_without_computing() {
    // A zero deadline expires every queued job before its handler runs:
    // the worker answers 503 + Retry-After and never computes.
    let handle = serve(ServerConfig {
        threads: 1,
        request_deadline: Some(Duration::ZERO),
        ..ServerConfig::default()
    })
    .expect("bind loopback");
    let response = client::post_json(handle.addr(), "/v1/plan", PLAN_BODY).unwrap();
    assert_eq!(response.status, 503);
    assert_eq!(response.retry_after, Some(1));
    let (code, message) = error_fields(&response.body);
    assert_eq!(code, 503);
    assert!(message.contains("deadline"), "body says why: {message}");
    assert!(handle.state().metrics().deadline_expired() >= 1);
    assert_eq!(
        handle.state().cache().misses(),
        0,
        "expired work must not reach the planner"
    );
    handle.shutdown();
}

#[test]
fn a_panicking_handler_is_isolated_to_a_structured_500() {
    let handle = serve(ServerConfig {
        threads: 1,
        panic_route: true,
        ..ServerConfig::default()
    })
    .expect("bind loopback");
    let poisoned = client::post_json(handle.addr(), "/__test/panic", "{}").unwrap();
    assert_eq!(poisoned.status, 500);
    assert_eq!(poisoned.retry_after, None);
    let (code, _) = error_fields(&poisoned.body);
    assert_eq!(code, 500);
    assert!(handle.state().metrics().panics() >= 1);

    // The single worker survived the panic: the next request computes.
    let after = client::post_json(handle.addr(), "/v1/plan", PLAN_BODY).unwrap();
    assert_eq!(after.status, 200);
    assert_eq!(after.body, reference_body("/v1/plan", PLAN_BODY));
    handle.shutdown();
}

#[test]
fn accept_errors_back_off_instead_of_spinning() {
    // The first three accepts fail with EMFILE (raw os error 24). The
    // loop must deregister + back off rather than spin, then resume and
    // drain the backlog: clients connected during the burst still get
    // answers (the kernel holds their connections in the listen queue).
    let handle = serve(ServerConfig {
        threads: 1,
        faults: Some(accept_only_faults(99, 3)),
        ..ServerConfig::default()
    })
    .expect("bind loopback");
    for attempt in 0..4 {
        let response = client::get(handle.addr(), "/healthz").unwrap();
        assert_eq!(response.status, 200, "attempt {attempt}");
    }
    assert!(
        handle.state().metrics().accept_backoffs() >= 1,
        "the EMFILE burst must trigger at least one backoff"
    );
    handle.shutdown();
}
