//! Integration tests of the async jobs API over real sockets: the
//! submit / poll / result round trip (byte-identical to the synchronous
//! sweep), restart on the same job directory, counted checkpoint write
//! failures, per-tenant token-bucket admission, and disconnect
//! propagation into the worker queue.

use arrayflex::sa_sim::Dataflow;
use arrayflex::ArrayFlexModel;
use arrayflex_serve::client::{self, read_response, ClientResponse, PersistentClient};
use arrayflex_serve::http::{serve, ServerConfig};
use arrayflex_serve::SimulateResponse;
use gemm::rng::SplitMix64;
use gemm::Matrix;
use std::io::{BufReader, Write};
use std::net::{SocketAddr, TcpStream};
use std::path::PathBuf;
use std::time::{Duration, Instant};

const JOB_BODY: &str = r#"{"array_sizes":[16,32],"networks":["mobilenet_v1"]}"#;
const PLAN_BODY: &str = r#"{"network":"resnet18","rows":64,"cols":64}"#;

/// A temp job directory that cleans up after itself.
struct TempJobDir(PathBuf);

impl TempJobDir {
    fn new(tag: &str) -> Self {
        let path =
            std::env::temp_dir().join(format!("arrayflex-jobs-it-{tag}-{}", std::process::id()));
        let _ = std::fs::remove_dir_all(&path);
        Self(path)
    }
}

impl Drop for TempJobDir {
    fn drop(&mut self) {
        let _ = std::fs::remove_dir_all(&self.0);
    }
}

fn field_str(value: &serde::Value, key: &str) -> String {
    match value.get(key) {
        Some(serde::Value::Str(s)) => s.clone(),
        other => panic!("field {key} missing or not a string: {other:?}"),
    }
}

/// Polls the status document until the job reaches `completed` (or fails
/// the test on `failed` / timeout).
fn await_completed(addr: SocketAddr, id: &str) -> serde::Value {
    let deadline = Instant::now() + Duration::from_secs(30);
    loop {
        let response = client::get(addr, &format!("/v1/jobs/{id}")).unwrap();
        assert_eq!(response.status, 200, "{:?}", response.text());
        let doc: serde::Value = serde_json::from_str(response.text().unwrap()).unwrap();
        match field_str(&doc, "status").as_str() {
            "completed" => return doc,
            "failed" => panic!("job failed: {doc:?}"),
            _ => {}
        }
        assert!(
            Instant::now() < deadline,
            "job {id} never completed: {doc:?}"
        );
        std::thread::sleep(Duration::from_millis(5));
    }
}

/// One `connection: close` request carrying an `x-arrayflex-tenant`
/// header (the bundled client has no custom-header hook).
fn tenant_request(
    addr: SocketAddr,
    tenant: &str,
    method: &str,
    path: &str,
    body: Option<&str>,
) -> ClientResponse {
    let mut stream = TcpStream::connect(addr).unwrap();
    stream
        .set_read_timeout(Some(Duration::from_secs(60)))
        .unwrap();
    let mut head = format!(
        "{method} {path} HTTP/1.1\r\nhost: {addr}\r\n\
         x-arrayflex-tenant: {tenant}\r\nconnection: close\r\n"
    );
    if let Some(body) = body {
        head.push_str(&format!(
            "content-type: application/json\r\ncontent-length: {}\r\n",
            body.len()
        ));
    }
    head.push_str("\r\n");
    stream.write_all(head.as_bytes()).unwrap();
    if let Some(body) = body {
        stream.write_all(body.as_bytes()).unwrap();
    }
    stream.flush().unwrap();
    read_response(&mut BufReader::new(stream)).unwrap()
}

#[test]
fn a_job_round_trips_over_http_and_survives_a_restart() {
    let dir = TempJobDir::new("roundtrip");
    let config = ServerConfig {
        job_dir: Some(dir.0.clone()),
        ..ServerConfig::default()
    };
    let handle = serve(config.clone()).expect("bind loopback");
    let reference = client::post_json(handle.addr(), "/v1/sweep", JOB_BODY).unwrap();
    assert_eq!(reference.status, 200);

    let submitted = client::post_json(handle.addr(), "/v1/jobs", JOB_BODY).unwrap();
    assert_eq!(submitted.status, 202, "{:?}", submitted.text());
    let doc: serde::Value = serde_json::from_str(submitted.text().unwrap()).unwrap();
    let id = field_str(&doc, "id");
    assert_eq!(field_str(&doc, "tenant"), "anonymous");

    // Polling for the result before the job finishes answers 409 or, if
    // the runner already won the race, the final bytes.
    let early = client::get(handle.addr(), &format!("/v1/jobs/{id}/result")).unwrap();
    assert!(
        early.status == 200 || early.status == 409,
        "unexpected early result status {}",
        early.status
    );

    await_completed(handle.addr(), &id);
    let result = client::get(handle.addr(), &format!("/v1/jobs/{id}/result")).unwrap();
    assert_eq!(result.status, 200);
    assert_eq!(
        result.body, reference.body,
        "the job result must be byte-identical to the synchronous sweep"
    );
    // Cancelling a finished job is a no-op: the status document still
    // says completed.
    let mut deleter = PersistentClient::connect(handle.addr()).unwrap();
    let deleted = deleter
        .request("DELETE", &format!("/v1/jobs/{id}"), None)
        .unwrap();
    assert_eq!(deleted.status, 200);
    let doc: serde::Value = serde_json::from_str(deleted.text().unwrap()).unwrap();
    assert_eq!(field_str(&doc, "status"), "completed");
    handle.shutdown();

    // Restart on the same directory: the terminal checkpoint is loaded
    // back, so the finished job stays queryable with the same bytes.
    let restarted = serve(config).expect("bind loopback again");
    let again = client::get(restarted.addr(), &format!("/v1/jobs/{id}/result")).unwrap();
    assert_eq!(again.status, 200);
    assert_eq!(again.body, reference.body);
    let missing = client::get(restarted.addr(), "/v1/jobs/feedfacedeadbeef").unwrap();
    assert_eq!(missing.status, 404);
    restarted.shutdown();
}

#[test]
fn failed_checkpoint_writes_are_counted_and_the_job_finishes_in_memory() {
    let dir = TempJobDir::new("lost-dir");
    let handle = serve(ServerConfig {
        job_dir: Some(dir.0.clone()),
        ..ServerConfig::default()
    })
    .expect("bind loopback");
    // The server created the directory at startup; take it away so every
    // checkpoint write fails.
    std::fs::remove_dir_all(&dir.0).unwrap();
    let reference = client::post_json(handle.addr(), "/v1/sweep", JOB_BODY).unwrap();
    assert_eq!(reference.status, 200);

    let submitted = client::post_json(handle.addr(), "/v1/jobs", JOB_BODY).unwrap();
    assert_eq!(submitted.status, 202, "{:?}", submitted.text());
    let doc: serde::Value = serde_json::from_str(submitted.text().unwrap()).unwrap();
    let id = field_str(&doc, "id");
    await_completed(handle.addr(), &id);
    let result = client::get(handle.addr(), &format!("/v1/jobs/{id}/result")).unwrap();
    assert_eq!(result.status, 200);
    assert_eq!(result.body, reference.body);

    let metrics = client::get(handle.addr(), "/metrics").unwrap();
    let text = metrics.text().unwrap();
    let failed: u64 = text
        .lines()
        .find_map(|line| line.strip_prefix("arrayflex_serve_jobs_checkpoint_failed_total "))
        .expect("checkpoint failure counter exported")
        .parse()
        .unwrap();
    assert!(failed >= 1, "{text}");
    assert!(!dir.0.exists(), "no checkpoint may recreate the directory");
    handle.shutdown();
}

#[test]
fn the_token_bucket_sheds_only_the_over_budget_tenant() {
    let handle = serve(ServerConfig {
        tenant_rate: Some(0.0),
        tenant_burst: 2.0,
        ..ServerConfig::default()
    })
    .expect("bind loopback");

    // Two requests fit tenant-a's burst; the third is shed with 429 +
    // Retry-After before it ever reaches a worker.
    let responses: Vec<ClientResponse> = (0..3)
        .map(|_| {
            tenant_request(
                handle.addr(),
                "tenant-a",
                "POST",
                "/v1/plan",
                Some(PLAN_BODY),
            )
        })
        .collect();
    assert_eq!(responses[0].status, 200);
    assert_eq!(responses[1].status, 200);
    assert_eq!(responses[2].status, 429, "{:?}", responses[2].text());
    assert!(
        responses[2].retry_after.is_some(),
        "a shed tenant request must carry Retry-After"
    );

    // Buckets are per tenant: tenant-b is untouched by tenant-a's spend.
    let other = tenant_request(
        handle.addr(),
        "tenant-b",
        "POST",
        "/v1/plan",
        Some(PLAN_BODY),
    );
    assert_eq!(other.status, 200);
    // Probes stay exempt so an over-quota tenant still looks alive to
    // its load balancer.
    let health = tenant_request(handle.addr(), "tenant-a", "GET", "/healthz", None);
    assert_eq!(health.status, 200);

    let metrics = client::get(handle.addr(), "/metrics").unwrap();
    let text = metrics.text().unwrap().to_owned();
    assert!(
        text.contains("arrayflex_serve_tenant_shed_total{tenant=\"tenant-a\"} 1"),
        "{text}"
    );
    assert!(!text.contains("tenant=\"tenant-b\""), "{text}");
    handle.shutdown();
}

#[test]
fn a_disconnected_queued_request_is_skipped_and_counted() {
    // One worker, one loop: the blockers own the worker while the
    // doomed request sits in the queue.
    let handle = serve(ServerConfig {
        threads: 1,
        event_loops: 1,
        ..ServerConfig::default()
    })
    .expect("bind loopback");

    // Occupy the worker with a run of cycle-accurate simulations long
    // enough that the doomed request is still queued when its connection
    // dies. How long one simulation takes depends on the build profile
    // and the host, so time it on this server first (the faster of two
    // runs; the first also warms the server up) and queue enough of them
    // to keep the worker busy for several times the two 50 ms sleeps
    // below.
    let slow = |seed: usize| {
        format!(r#"{{"rows":32,"cols":32,"k":2,"t":64,"n":128,"m":128,"seed":{seed}}}"#)
    };
    let mut probe = PersistentClient::connect(handle.addr()).unwrap();
    let mut one = Duration::MAX;
    for seed in 0..2 {
        let start = Instant::now();
        let response = probe
            .request("POST", "/v1/simulate", Some(slow(seed).as_bytes()))
            .unwrap();
        assert_eq!(response.status, 200);
        one = one.min(start.elapsed());
    }
    const BUSY: Duration = Duration::from_secs(1);
    // A connection keeps at most 64 requests in flight, so the run is
    // spread over connections of 32; 512 stays well inside the 1024-deep
    // worker queue, past which requests would be shed.
    const PER_CONNECTION: usize = 32;
    let blockers = (BUSY.as_nanos() / one.as_nanos().max(1) + 1).min(512) as usize;
    let mut connections: Vec<PersistentClient> = Vec::new();
    for i in 0..blockers {
        if i % PER_CONNECTION == 0 {
            connections.push(PersistentClient::connect(handle.addr()).unwrap());
        }
        connections[i / PER_CONNECTION]
            .send("POST", "/v1/simulate", Some(slow(2 + i).as_bytes()))
            .unwrap();
    }
    std::thread::sleep(Duration::from_millis(50));

    // Queue an uncached plan behind it, then abort the connection.
    send_then_reset(handle.addr(), "/v1/plan", PLAN_BODY);

    for i in 0..blockers {
        let response = connections[i / PER_CONNECTION].recv().unwrap();
        assert_eq!(response.status, 200);
    }

    // The worker observed the fired token at dequeue and skipped the
    // computation; the skip is visible by cause.
    let deadline = Instant::now() + Duration::from_secs(5);
    loop {
        let metrics = client::get(handle.addr(), "/metrics").unwrap();
        let text = metrics.text().unwrap().to_owned();
        if text.contains("arrayflex_serve_cancelled_total{cause=\"disconnect\"} 1") {
            break;
        }
        assert!(
            Instant::now() < deadline,
            "disconnect cancellation never surfaced in metrics: {text}"
        );
        std::thread::sleep(Duration::from_millis(20));
    }
    handle.shutdown();
}

/// Sends `path` with `body` behind a pipelined `/healthz`, then drops the
/// connection with the (inline, already-written) `/healthz` response
/// unread in its receive buffer. A plain close would only half-close
/// (FIN), which the server honors by finishing owed work; closing over
/// unread bytes makes the kernel answer with RST, which the loop sees as
/// a dead connection.
fn send_then_reset(addr: SocketAddr, path: &str, body: &str) {
    let mut stream = TcpStream::connect(addr).unwrap();
    stream
        .write_all(
            format!(
                "GET /healthz HTTP/1.1\r\nhost: t\r\n\r\n\
                 POST {path} HTTP/1.1\r\nhost: t\r\n\
                 content-type: application/json\r\ncontent-length: {}\r\n\r\n{body}",
                body.len(),
            )
            .as_bytes(),
        )
        .unwrap();
    stream.flush().unwrap();
    std::thread::sleep(Duration::from_millis(50));
}

#[test]
fn a_disconnecting_client_cancels_only_its_own_request() {
    // One worker: B's identical request waits behind A's while A
    // computes.
    let handle = serve(ServerConfig {
        threads: 1,
        event_loops: 1,
        ..ServerConfig::default()
    })
    .expect("bind loopback");

    // A 2x2 array runs the 128^3 GEMM as 4096 tiles: about 0.1 s in a
    // release build, much longer in debug, so B connects, sends and
    // dies (about 70 ms in) while A is still computing.
    let (rows, cols, k, t, n, m, seed) = (2, 2, 1, 128, 128, 128, 5);
    let body =
        format!(r#"{{"rows":{rows},"cols":{cols},"k":{k},"t":{t},"n":{n},"m":{m},"seed":{seed}}}"#);

    let mut a = PersistentClient::connect(handle.addr()).unwrap();
    a.send("POST", "/v1/simulate", Some(body.as_bytes()))
        .unwrap();
    std::thread::sleep(Duration::from_millis(20));
    send_then_reset(handle.addr(), "/v1/simulate", &body);

    let response = a.recv().unwrap();
    assert_eq!(response.status, 200, "{:?}", response.text());

    let model = ArrayFlexModel::new(rows, cols).unwrap();
    let mut rng = SplitMix64::new(seed);
    let lhs = Matrix::random(t as usize, n as usize, &mut rng, -64, 63);
    let rhs = Matrix::random(n as usize, m as usize, &mut rng, -64, 63);
    let run = model.simulate_gemm(&lhs, &rhs, k).unwrap();
    let direct = SimulateResponse {
        rows,
        cols,
        k,
        dataflow: Dataflow::WeightStationary,
        t,
        n,
        m,
        seed,
        simulated_cycles: run.stats.total_cycles(),
        predicted_cycles: run.predicted.cycles,
        cycles_match: run.cycles_match(),
        functionally_correct: run.functionally_correct,
        macs: run.stats.macs,
        tiles: run.stats.tiles,
    };
    assert_eq!(
        response.body,
        serde_json::to_string(&direct).unwrap().into_bytes(),
        "A's response must be byte-identical to the direct library call"
    );
    // Only B's own request may have been cancelled by its disconnect.
    let cancelled = handle.state().metrics().cancelled("disconnect");
    assert!(cancelled <= 1, "{cancelled} disconnect cancellations");
    handle.shutdown();
}
