//! Integration tests of the keep-alive event-loop serving path:
//! connection reuse, pipelining, idle deadlines, write-queue
//! backpressure and concurrent identical requests.

use arrayflex::ArrayFlexModel;
use arrayflex_serve::client::{self, read_response, PersistentClient};
use arrayflex_serve::http::{serve, ServerConfig};
use cnn::DepthwiseMapping;
use std::io::{BufReader, Read, Write};
use std::net::TcpStream;
use std::time::Duration;

const PLAN_BODY: &str = r#"{"network":"resnet34","rows":128,"cols":128}"#;

fn direct_plan_bytes() -> Vec<u8> {
    let model = ArrayFlexModel::new(128, 128).unwrap();
    let plan = model
        .plan_arrayflex(&cnn::models::resnet34(), DepthwiseMapping::default())
        .unwrap();
    serde_json::to_string(&plan).unwrap().into_bytes()
}

#[test]
fn sequential_requests_reuse_one_connection() {
    let handle = serve(ServerConfig::default()).expect("bind loopback");
    let mut conn = PersistentClient::connect(handle.addr()).unwrap();
    for _ in 0..3 {
        let health = conn.request("GET", "/healthz", None).unwrap();
        assert_eq!(health.status, 200);
        assert_eq!(health.body, b"{\"status\":\"ok\"}");
    }
    let plan = conn
        .request("POST", "/v1/plan", Some(PLAN_BODY.as_bytes()))
        .unwrap();
    assert_eq!(plan.status, 200);
    assert_eq!(plan.body, direct_plan_bytes());
    // All four requests rode one accepted connection.
    assert_eq!(handle.state().accepted(), 1);
    assert_eq!(handle.state().metrics().open_connections(), 1);
    handle.shutdown();
}

#[test]
fn pipelined_requests_come_back_in_order() {
    let handle = serve(ServerConfig::default()).expect("bind loopback");
    let mut conn = PersistentClient::connect(handle.addr()).unwrap();
    conn.send("GET", "/healthz", None).unwrap();
    conn.send("POST", "/v1/plan", Some(PLAN_BODY.as_bytes()))
        .unwrap();
    conn.send("GET", "/metrics", None).unwrap();
    let first = conn.recv().unwrap();
    let second = conn.recv().unwrap();
    let third = conn.recv().unwrap();
    assert_eq!(first.status, 200);
    assert_eq!(first.body, b"{\"status\":\"ok\"}");
    assert_eq!(second.status, 200);
    assert_eq!(second.body, direct_plan_bytes());
    assert_eq!(third.status, 200);
    assert!(
        third
            .text()
            .unwrap()
            .contains("arrayflex_serve_requests_total"),
        "third response is not the metrics page"
    );
    handle.shutdown();
}

#[test]
fn connection_close_requests_are_honored_with_eof() {
    let handle = serve(ServerConfig::default()).expect("bind loopback");
    let mut stream = TcpStream::connect(handle.addr()).unwrap();
    stream
        .set_read_timeout(Some(Duration::from_secs(10)))
        .unwrap();
    stream
        .write_all(b"GET /healthz HTTP/1.1\r\nconnection: close\r\n\r\n")
        .unwrap();
    let mut reader = BufReader::new(stream.try_clone().unwrap());
    let response = read_response(&mut reader).unwrap();
    assert_eq!(response.status, 200);
    // The server closes its side: the next read is a clean EOF.
    let mut rest = Vec::new();
    reader.read_to_end(&mut rest).unwrap();
    assert!(rest.is_empty(), "unexpected trailing bytes {rest:?}");
    handle.shutdown();
}

#[test]
fn idle_connections_are_closed_by_the_deadline() {
    let handle = serve(ServerConfig {
        read_timeout: Duration::from_millis(300),
        ..ServerConfig::default()
    })
    .expect("bind loopback");
    let mut conn = PersistentClient::connect(handle.addr()).unwrap();
    let health = conn.request("GET", "/healthz", None).unwrap();
    assert_eq!(health.status, 200);
    // Go quiet: the server must close the connection from its side.
    let mut stream = TcpStream::connect(handle.addr()).unwrap();
    stream
        .set_read_timeout(Some(Duration::from_secs(10)))
        .unwrap();
    let mut buf = [0u8; 16];
    let n = stream.read(&mut buf).expect("a clean EOF, not a timeout");
    assert_eq!(n, 0, "expected EOF from the idle close, got {n} bytes");
    assert!(
        handle.state().metrics().idle_closed() >= 1,
        "idle close must be counted"
    );
    handle.shutdown();
}

#[test]
fn backpressured_pipeline_drains_in_order_once_the_reader_catches_up() {
    let handle = serve(ServerConfig::default()).expect("bind loopback");
    let expected = direct_plan_bytes();
    let mut conn = PersistentClient::connect(handle.addr()).unwrap();
    // Fill the pipeline to its cap without reading a single response: the
    // ~10 KiB plan responses overflow the socket buffer, so the server's
    // write queue builds and read interest pauses, but nothing is lost.
    let depth = 64;
    for _ in 0..depth {
        conn.send("POST", "/v1/plan", Some(PLAN_BODY.as_bytes()))
            .unwrap();
    }
    std::thread::sleep(Duration::from_millis(200));
    for index in 0..depth {
        let response = conn
            .recv()
            .unwrap_or_else(|e| panic!("response {index}: {e}"));
        assert_eq!(response.status, 200, "response {index}");
        assert_eq!(response.body, expected, "response {index}");
    }
    // The connection survived the stall and still serves.
    let health = conn.request("GET", "/healthz", None).unwrap();
    assert_eq!(health.status, 200);
    handle.shutdown();
}

#[test]
fn identical_concurrent_plans_get_identical_bytes() {
    let handle = serve(ServerConfig::default()).expect("bind loopback");
    let addr = handle.addr();
    let expected = direct_plan_bytes();
    let bodies: Vec<Vec<u8>> = std::thread::scope(|scope| {
        // The collect is what makes the requests concurrent: a lazy
        // iterator would spawn and join one thread at a time.
        #[allow(clippy::needless_collect)]
        let handles: Vec<_> = (0..16)
            .map(|_| {
                scope.spawn(move || {
                    client::post_json(addr, "/v1/plan", PLAN_BODY)
                        .expect("request succeeds")
                        .body
                })
            })
            .collect();
        handles.into_iter().map(|h| h.join().unwrap()).collect()
    });
    for body in &bodies {
        assert_eq!(
            body, &expected,
            "concurrent responses must be byte-identical"
        );
    }
    let cache = handle.state().cache();
    // Every request consulted the cache exactly once — none were dropped
    // or double counted.
    assert_eq!(cache.hits() + cache.misses(), 16);
    handle.shutdown();
}
