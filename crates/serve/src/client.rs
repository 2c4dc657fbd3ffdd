//! A minimal blocking HTTP/1.1 client for loopback use.
//!
//! Just enough to drive the server from the load generator, the tests and
//! the `serve_client` example: `Content-Length` framing, no TLS, no
//! redirects. [`get`]/[`post_json`] open one connection per request
//! (`connection: close`); [`PersistentClient`] holds a keep-alive
//! connection open across requests and supports pipelining via separate
//! [`PersistentClient::send`] / [`PersistentClient::recv`] calls.

use std::io::{self, BufRead, BufReader, Write};
use std::net::{SocketAddr, TcpStream};
use std::time::Duration;

/// A decoded HTTP response.
#[derive(Debug, Clone)]
pub struct ClientResponse {
    /// Status code from the status line.
    pub status: u16,
    /// The response body.
    pub body: Vec<u8>,
    /// Parsed `Retry-After` header in seconds, when the server sent one
    /// (load shedding and deadline-expired 503s do).
    pub retry_after: Option<u64>,
}

impl ClientResponse {
    /// The body as UTF-8 text.
    ///
    /// # Errors
    ///
    /// Returns an error if the body is not valid UTF-8.
    pub fn text(&self) -> io::Result<&str> {
        std::str::from_utf8(&self.body).map_err(|e| io::Error::new(io::ErrorKind::InvalidData, e))
    }
}

/// Issues `GET path`.
///
/// # Errors
///
/// Propagates connection and protocol errors.
pub fn get(addr: SocketAddr, path: &str) -> io::Result<ClientResponse> {
    request(addr, "GET", path, None)
}

/// Issues `POST path` with a JSON body.
///
/// # Errors
///
/// Propagates connection and protocol errors.
pub fn post_json(addr: SocketAddr, path: &str, body: &str) -> io::Result<ClientResponse> {
    request(addr, "POST", path, Some(body.as_bytes()))
}

fn request(
    addr: SocketAddr,
    method: &str,
    path: &str,
    body: Option<&[u8]>,
) -> io::Result<ClientResponse> {
    let mut stream = TcpStream::connect(addr)?;
    stream.set_read_timeout(Some(Duration::from_secs(60)))?;
    stream.set_nodelay(true)?;
    let mut head = format!("{method} {path} HTTP/1.1\r\nhost: {addr}\r\nconnection: close\r\n");
    if let Some(body) = body {
        head.push_str(&format!(
            "content-type: application/json\r\ncontent-length: {}\r\n",
            body.len()
        ));
    }
    head.push_str("\r\n");
    stream.write_all(head.as_bytes())?;
    if let Some(body) = body {
        stream.write_all(body)?;
    }
    stream.flush()?;
    read_response(&mut BufReader::new(stream))
}

/// A keep-alive HTTP/1.1 connection.
///
/// Requests omit the `connection` header, so the server keeps the
/// connection open between them. [`PersistentClient::send`] and
/// [`PersistentClient::recv`] are separate so callers can pipeline:
/// write several requests back to back, then read the responses in
/// order.
#[derive(Debug)]
pub struct PersistentClient {
    writer: TcpStream,
    reader: BufReader<TcpStream>,
}

impl PersistentClient {
    /// Connects a new keep-alive client.
    ///
    /// # Errors
    ///
    /// Propagates connection-setup errors.
    pub fn connect(addr: SocketAddr) -> io::Result<Self> {
        let writer = TcpStream::connect(addr)?;
        writer.set_read_timeout(Some(Duration::from_secs(60)))?;
        writer.set_nodelay(true)?;
        let reader = BufReader::new(writer.try_clone()?);
        Ok(Self { writer, reader })
    }

    /// Writes one request without reading its response.
    ///
    /// # Errors
    ///
    /// Propagates write errors.
    pub fn send(&mut self, method: &str, path: &str, body: Option<&[u8]>) -> io::Result<()> {
        let mut head = format!("{method} {path} HTTP/1.1\r\n");
        if let Some(body) = body {
            head.push_str(&format!(
                "content-type: application/json\r\ncontent-length: {}\r\n",
                body.len()
            ));
        }
        head.push_str("\r\n");
        self.writer.write_all(head.as_bytes())?;
        if let Some(body) = body {
            self.writer.write_all(body)?;
        }
        self.writer.flush()
    }

    /// Reads the next pipelined response off the connection.
    ///
    /// # Errors
    ///
    /// Propagates read and framing errors.
    pub fn recv(&mut self) -> io::Result<ClientResponse> {
        read_response(&mut self.reader)
    }

    /// One request/response round trip over the held connection.
    ///
    /// # Errors
    ///
    /// Propagates connection and protocol errors.
    pub fn request(
        &mut self,
        method: &str,
        path: &str,
        body: Option<&[u8]>,
    ) -> io::Result<ClientResponse> {
        self.send(method, path, body)?;
        self.recv()
    }
}

/// Reads a complete response (status line, headers, `Content-Length`-framed
/// body, or body-until-close when no length was sent).
///
/// # Errors
///
/// Returns an error on a malformed status line or a truncated body.
pub fn read_response<R: BufRead>(reader: &mut R) -> io::Result<ClientResponse> {
    let mut status_line = String::new();
    reader.read_line(&mut status_line)?;
    let status = status_line
        .split(' ')
        .nth(1)
        .and_then(|code| code.parse::<u16>().ok())
        .ok_or_else(|| {
            io::Error::new(
                io::ErrorKind::InvalidData,
                format!("malformed status line {status_line:?}"),
            )
        })?;
    let mut content_length: Option<usize> = None;
    let mut retry_after: Option<u64> = None;
    loop {
        let mut line = String::new();
        if reader.read_line(&mut line)? == 0 {
            return Err(io::Error::new(
                io::ErrorKind::UnexpectedEof,
                "connection closed inside response head",
            ));
        }
        let line = line.trim_end();
        if line.is_empty() {
            break;
        }
        if let Some((name, value)) = line.split_once(':') {
            let name = name.trim();
            if name.eq_ignore_ascii_case("content-length") {
                content_length = value.trim().parse::<usize>().ok();
            } else if name.eq_ignore_ascii_case("retry-after") {
                retry_after = value.trim().parse::<u64>().ok();
            }
        }
    }
    let body = match content_length {
        Some(length) => {
            let mut body = vec![0u8; length];
            reader.read_exact(&mut body)?;
            body
        }
        None => {
            let mut body = Vec::new();
            reader.read_to_end(&mut body)?;
            body
        }
    };
    Ok(ClientResponse {
        status,
        body,
        retry_after,
    })
}
