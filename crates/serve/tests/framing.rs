//! Raw-socket regression tests of the HTTP framing fixes: duplicate
//! `Content-Length` hygiene (RFC 9112 §6.3) and structured errors for
//! malformed head lines (which used to be silent TCP closes).

use arrayflex_serve::client::{self, read_response, ClientResponse};
use arrayflex_serve::http::{serve, ServerConfig, ServerHandle};
use std::io::{BufReader, Write};
use std::net::TcpStream;
use std::time::Duration;

fn spawn() -> ServerHandle {
    serve(ServerConfig::default()).expect("bind loopback")
}

/// Writes raw bytes to the server and reads back one full response.
fn raw_request(handle: &ServerHandle, bytes: &[u8]) -> std::io::Result<ClientResponse> {
    let mut stream = TcpStream::connect(handle.addr())?;
    stream.set_read_timeout(Some(Duration::from_secs(30)))?;
    stream.set_nodelay(true)?;
    stream.write_all(bytes)?;
    stream.flush()?;
    read_response(&mut BufReader::new(stream))
}

#[test]
fn conflicting_content_length_headers_are_rejected() {
    let handle = spawn();
    let response = raw_request(
        &handle,
        b"POST /v1/plan HTTP/1.1\r\ncontent-length: 2\r\ncontent-length: 3\r\n\r\n{}",
    )
    .expect("a structured response, not a closed socket");
    assert_eq!(response.status, 400);
    assert!(
        response
            .text()
            .unwrap()
            .contains("conflicting content-length"),
        "{:?}",
        response.text()
    );
    handle.shutdown();
}

#[test]
fn identical_duplicate_content_length_headers_are_tolerated() {
    // Repeating the same value is redundant but unambiguous, so the
    // request is served normally.
    let handle = spawn();
    let response = raw_request(
        &handle,
        b"GET /healthz HTTP/1.1\r\ncontent-length: 0\r\ncontent-length: 0\r\n\r\n",
    )
    .unwrap();
    assert_eq!(response.status, 200);
    assert_eq!(response.body, b"{\"status\":\"ok\"}");
    handle.shutdown();
}

#[test]
fn signed_content_length_values_are_rejected() {
    // `usize::parse` accepts a leading `+`, so `+2` used to slip through
    // as length 2; the header grammar allows digits only.
    let handle = spawn();
    for value in ["+2", "-2", " ", "2 2", "0x10"] {
        let head = format!("POST /v1/plan HTTP/1.1\r\ncontent-length: {value}\r\n\r\n{{}}");
        let response = raw_request(&handle, head.as_bytes()).unwrap();
        assert_eq!(response.status, 400, "value {value:?}");
        assert!(
            response.text().unwrap().contains("invalid content-length"),
            "value {value:?}: {:?}",
            response.text()
        );
    }
    handle.shutdown();
}

#[test]
fn non_utf8_head_lines_get_a_structured_400_and_are_counted() {
    // A binary request line used to hit the `Disconnected` path: the
    // client saw a bare TCP close and the request never reached the
    // metrics.
    let handle = spawn();
    let response = raw_request(&handle, b"GET /\xff\xfe HTTP/1.1\r\n\r\n")
        .expect("a structured response, not a closed socket");
    assert_eq!(response.status, 400);
    assert!(
        response.text().unwrap().contains("UTF-8"),
        "{:?}",
        response.text()
    );
    let metrics = client::get(handle.addr(), "/metrics").unwrap();
    let text = metrics.text().unwrap().to_owned();
    assert!(
        text.contains("arrayflex_serve_requests_total{route=\"unparsable\",status=\"400\"} 1"),
        "{text}"
    );
    handle.shutdown();
}

#[test]
fn an_overlong_head_line_is_a_431() {
    let handle = spawn();
    let mut request = Vec::from(&b"GET /"[..]);
    request.extend(std::iter::repeat(b'a').take(17 * 1024));
    request.extend_from_slice(b" HTTP/1.1\r\n\r\n");
    let response =
        raw_request(&handle, &request).expect("a structured response, not a closed socket");
    assert_eq!(response.status, 431);
    assert!(
        response.text().unwrap().contains("too long"),
        "{:?}",
        response.text()
    );
    handle.shutdown();
}

#[test]
fn transfer_encoding_gets_a_structured_501() {
    // The server frames bodies with content-length only; a chunked
    // request must be refused loudly (501, RFC 9112 §6.1) rather than
    // misparsed, because ignoring transfer-encoding invites request
    // smuggling.
    let handle = spawn();
    let response = raw_request(
        &handle,
        b"POST /v1/plan HTTP/1.1\r\ntransfer-encoding: chunked\r\n\r\n\
          2\r\n{}\r\n0\r\n\r\n",
    )
    .expect("a structured response, not a closed socket");
    assert_eq!(response.status, 501);
    assert!(
        response
            .text()
            .unwrap()
            .contains("transfer-encoding is not supported; frame the body with content-length"),
        "{:?}",
        response.text()
    );
    handle.shutdown();
}

#[test]
fn an_oversized_header_block_is_a_431() {
    // Each line fits the per-line cap but the head as a whole exceeds it.
    let handle = spawn();
    let mut request = Vec::from(&b"GET /healthz HTTP/1.1\r\n"[..]);
    for index in 0..20 {
        request.extend_from_slice(format!("x-filler-{index}: ").as_bytes());
        request.extend(std::iter::repeat(b'y').take(1024));
        request.extend_from_slice(b"\r\n");
    }
    request.extend_from_slice(b"\r\n");
    let response = raw_request(&handle, &request).unwrap();
    assert_eq!(response.status, 431);
    handle.shutdown();
}
