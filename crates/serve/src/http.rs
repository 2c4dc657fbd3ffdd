//! A hand-rolled HTTP/1.1 server on [`std::net::TcpListener`].
//!
//! The build environment has no crates.io access, so — mirroring the
//! hand-rolled `ParallelExecutor` — the serving layer implements the small
//! subset of HTTP/1.1 the ArrayFlex API needs: request-line and header
//! parsing, `Content-Length` bodies with a configurable size cap, and
//! `Connection: keep-alive` with pipelining. This module owns the public
//! surface — [`ServerConfig`], [`ServerHandle`], [`serve`] — and the
//! response types; the serving threads are the event loops of
//! `crate::event_loop`, which describes their thread model.

use crate::api::{self, AppState};
use crate::event_loop;
use crate::poll;
use std::io;
use std::net::{SocketAddr, TcpListener};
use std::path::PathBuf;
use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::Arc;
use std::thread::JoinHandle;
use std::time::Duration;

/// Configuration of [`serve`].
#[derive(Debug, Clone)]
pub struct ServerConfig {
    /// Address to bind (`127.0.0.1:0` picks an ephemeral port).
    pub addr: String,
    /// Worker threads serving requests (`0` auto-detects, minimum 1).
    pub threads: usize,
    /// Total capacity of the plan cache.
    pub cache_capacity: usize,
    /// Maximum accepted request-body size in bytes (413 beyond this).
    pub max_body_bytes: usize,
    /// Idle timeout of a connection: one with no progress in either
    /// direction for this long is closed.
    pub read_timeout: Duration,
    /// Emit one structured log line per served request on stdout
    /// (`ts=… route=… status=… latency_us=… cache=… key=…`).
    pub log_requests: bool,
    /// Event-loop threads (`0` auto-detects, minimum 1).
    /// [`ServerConfig::threads`] then sizes the handler worker pool the
    /// loops hand parsed requests to.
    pub event_loops: usize,
    /// Bound on the worker job queue (parsed requests dispatched but not
    /// yet picked up). At or beyond this depth new worker-bound requests
    /// are **shed**: answered `503` + `Retry-After` on the loop thread
    /// without running the computation. `0` disables shedding (unbounded
    /// queue). Exposed as `--queue-limit`.
    pub queue_limit: usize,
    /// Per-request deadline measured from dispatch: a request still
    /// waiting in the worker queue past this is answered `503` +
    /// `Retry-After` without running its computation, and a request whose
    /// handler is still running past it is cancelled cooperatively at the
    /// next job-item boundary (a structured `503` reporting partial
    /// progress). `None` disables deadlines. Exposed as
    /// `--request-deadline-ms`.
    pub request_deadline: Option<Duration>,
    /// Directory for the crash-safe `/v1/jobs` store: every completed
    /// sweep point of a running job is checkpointed here (atomic
    /// tmp+rename, see `crate::jobs`), and a restart with
    /// the same directory resumes incomplete jobs from their last
    /// checkpoint. `None` keeps jobs in memory only (still cancellable,
    /// not crash-safe). Exposed as `--job-dir`.
    pub job_dir: Option<PathBuf>,
    /// Per-tenant token-bucket admission rate in requests per second,
    /// keyed by the `x-arrayflex-tenant` header (requests without the
    /// header share the `"anonymous"` bucket). Beyond the bucket a request
    /// is answered `429` + `Retry-After` on the loop thread. `None`
    /// disables tenant rate admission. Exposed as `--tenant-rate`.
    pub tenant_rate: Option<f64>,
    /// Burst capacity of each tenant token bucket (maximum tokens a
    /// bucket holds). Only meaningful with
    /// [`ServerConfig::tenant_rate`]. Exposed as `--tenant-burst`.
    pub tenant_burst: f64,
    /// Maximum concurrently active (queued or running) `/v1/jobs` jobs per
    /// tenant; submissions beyond it are answered `429` + `Retry-After`.
    /// `0` disables the cap. Exposed as `--tenant-max-jobs`.
    pub tenant_max_jobs: usize,
    /// Deterministic fault injection (see [`crate::fault`]): when set,
    /// every stream read/write, poll and accept consults the seeded
    /// [`crate::fault::FaultPlan`]. The seed is printed at startup so a
    /// chaotic run is replayable. Exposed as `--fault-seed`.
    pub faults: Option<crate::fault::FaultConfig>,
    /// Test-only escape hatch for the fault harness: when set,
    /// `POST /__test/panic` panics inside the handler, proving
    /// `catch_unwind` isolation answers a structured 500 and the worker
    /// survives. Never enabled by the binaries.
    pub panic_route: bool,
}

impl Default for ServerConfig {
    fn default() -> Self {
        Self {
            addr: "127.0.0.1:0".to_owned(),
            threads: 4,
            cache_capacity: 128,
            max_body_bytes: 1024 * 1024,
            read_timeout: Duration::from_secs(30),
            log_requests: false,
            event_loops: 1,
            queue_limit: 1024,
            request_deadline: None,
            job_dir: None,
            tenant_rate: None,
            tenant_burst: 8.0,
            tenant_max_jobs: 16,
            faults: None,
            panic_route: false,
        }
    }
}

/// A running server: its bound address, shared state and shutdown control.
pub struct ServerHandle {
    addr: SocketAddr,
    state: Arc<AppState>,
    stop: Arc<AtomicBool>,
    /// Event-loop and handler-worker threads.
    workers: Vec<JoinHandle<()>>,
    /// Event-loop wakers: a shutdown wakes every loop so it observes the
    /// stop flag and begins draining.
    wakers: Vec<poll::Waker>,
}

impl ServerHandle {
    /// The address the server is listening on.
    #[must_use]
    pub fn addr(&self) -> SocketAddr {
        self.addr
    }

    /// The shared application state (cache, metrics, counters).
    #[must_use]
    pub fn state(&self) -> &Arc<AppState> {
        &self.state
    }

    /// Blocks the calling thread until the server stops (i.e. until
    /// another thread calls [`ServerHandle::shutdown`]). Used by the
    /// `serve` binary's main thread.
    pub fn wait(&mut self) {
        for worker in self.workers.drain(..) {
            let _ = worker.join();
        }
        // Stop the job runners: fire their tokens (reason: shutdown) and
        // join. Interrupted jobs keep `running` status in their
        // checkpoints, so the next start with the same --job-dir resumes
        // them — a graceful stop and a SIGKILL converge on the same
        // recovery path.
        self.state.jobs().shutdown();
    }

    /// Gracefully shuts the server down: stops accepting new connections,
    /// serves everything already accepted (and every request already in
    /// flight on a kept-alive connection) to completion, flushes write
    /// queues, then joins all threads.
    pub fn shutdown(mut self) {
        self.signal_stop();
        self.wait();
    }

    /// Sets the stop flag and wakes every event loop.
    fn signal_stop(&self) {
        self.stop.store(true, Ordering::SeqCst);
        for waker in &self.wakers {
            waker.wake();
        }
    }
}

impl Drop for ServerHandle {
    fn drop(&mut self) {
        // A dropped (not shut down, not waited) handle still stops the
        // server so tests cannot leak serving threads.
        if !self.workers.is_empty() {
            self.signal_stop();
            self.wait();
        }
    }
}

/// Binds the configured address and starts the keep-alive event loops
/// and their handler worker pool. Returns immediately with a
/// [`ServerHandle`].
///
/// # Errors
///
/// Returns an error if the address cannot be bound or the readiness
/// poller cannot be created.
pub fn serve(config: ServerConfig) -> io::Result<ServerHandle> {
    let listener = TcpListener::bind(&config.addr)?;
    let addr = listener.local_addr()?;
    // `shared` (not `new`): the `/v1/jobs` runner threads need the `Arc`,
    // and incomplete jobs checkpointed in `job_dir` resume right here.
    let state = AppState::shared(&config);
    let stop = Arc::new(AtomicBool::new(false));
    let parts = event_loop::start(listener, Arc::clone(&state), Arc::clone(&stop), &config)?;
    Ok(ServerHandle {
        addr,
        state,
        stop,
        workers: parts.threads,
        wakers: parts.wakers,
    })
}

/// Resolves a `0` thread count to the detected hardware parallelism.
pub(crate) fn resolve_threads(threads: usize) -> usize {
    if threads == 0 {
        std::thread::available_parallelism().map_or(1, std::num::NonZeroUsize::get)
    } else {
        threads
    }
}

/// One parsed HTTP request.
#[derive(Debug, Clone)]
pub struct HttpRequest {
    /// Request method (`GET`, `POST`, ...), upper-case as received.
    pub method: String,
    /// Request path (query strings are not used by this API).
    pub path: String,
    /// The request body (empty when no `Content-Length` was sent).
    pub body: Vec<u8>,
}

/// One HTTP response about to be written.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct HttpResponse {
    /// Status code.
    pub status: u16,
    /// `Content-Type` of the body.
    pub content_type: &'static str,
    /// The response body.
    pub body: Vec<u8>,
}

impl HttpResponse {
    /// A `200 OK` JSON response.
    #[must_use]
    pub fn json(body: impl Into<Vec<u8>>) -> Self {
        Self {
            status: 200,
            content_type: "application/json",
            body: body.into(),
        }
    }

    /// A `200 OK` plain-text response (used by `/metrics`).
    #[must_use]
    pub fn text(body: impl Into<Vec<u8>>) -> Self {
        Self {
            status: 200,
            content_type: "text/plain; version=0.0.4",
            body: body.into(),
        }
    }

    /// A structured JSON error response: `{"error":{"code":...,"message":...}}`.
    #[must_use]
    pub fn error(status: u16, message: &str) -> Self {
        let body = serde_json::to_string(&serde::Value::Object(vec![(
            "error".to_owned(),
            serde::Value::Object(vec![
                ("code".to_owned(), serde::Value::Int(i64::from(status))),
                ("message".to_owned(), serde::Value::Str(message.to_owned())),
            ]),
        )]))
        .expect("error body serializes");
        Self {
            status,
            content_type: "application/json",
            body: body.into_bytes(),
        }
    }
}

/// The canonical reason phrase of each status code this server emits.
fn reason(status: u16) -> &'static str {
    match status {
        200 => "OK",
        202 => "Accepted",
        400 => "Bad Request",
        404 => "Not Found",
        405 => "Method Not Allowed",
        409 => "Conflict",
        413 => "Payload Too Large",
        429 => "Too Many Requests",
        431 => "Request Header Fields Too Large",
        500 => "Internal Server Error",
        501 => "Not Implemented",
        503 => "Service Unavailable",
        _ => "Unknown",
    }
}

/// Renders one response head. The `connection` header is always explicit
/// so clients never have to apply HTTP-version defaulting rules. Every
/// 429 and 503 (tenant quota, shed, expired or cancelled work) tells the
/// client to retry, with backoff, after one second.
pub(crate) fn render_head(
    status: u16,
    content_type: &str,
    content_length: usize,
    keep_alive: bool,
) -> String {
    format!(
        "HTTP/1.1 {} {}\r\ncontent-type: {}\r\ncontent-length: {}\r\nconnection: {}\r\n{}\r\n",
        status,
        reason(status),
        content_type,
        content_length,
        if keep_alive { "keep-alive" } else { "close" },
        if matches!(status, 429 | 503) {
            "retry-after: 1\r\n"
        } else {
            ""
        },
    )
}

/// Formats one structured request log line:
/// `ts=<unix-millis> route=… status=… latency_us=… cache=hit|miss|- key=<hex>|-`.
pub(crate) fn log_line(
    route: &str,
    status: u16,
    latency: Duration,
    trace: api::RequestTrace,
) -> String {
    let ts = std::time::SystemTime::now()
        .duration_since(std::time::UNIX_EPOCH)
        .map_or(0, |since| since.as_millis());
    let (cache, key) = match trace.cache {
        Some((outcome, hash)) => (outcome.to_string(), format!("{hash:016x}")),
        None => ("-".to_owned(), "-".to_owned()),
    };
    format!(
        "ts={ts} route={route} status={status} latency_us={} cache={cache} key={key}",
        latency.as_micros()
    )
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn error_bodies_are_structured_json() {
        let response = HttpResponse::error(413, "too big");
        assert_eq!(response.status, 413);
        let value: serde::Value =
            serde_json::from_str(std::str::from_utf8(&response.body).unwrap()).unwrap();
        let error = value.get("error").expect("error object");
        assert_eq!(error.get("code"), Some(&serde::Value::Int(413)));
        assert_eq!(
            error.get("message"),
            Some(&serde::Value::Str("too big".into()))
        );
    }

    /// Every status the server emits.
    const EMITTED_STATUSES: [u16; 12] =
        [200, 202, 400, 404, 405, 409, 413, 429, 431, 500, 501, 503];

    #[test]
    fn reason_phrases_cover_every_emitted_status() {
        for status in EMITTED_STATUSES {
            assert_ne!(reason(status), "Unknown", "status {status}");
        }
        assert_eq!(reason(599), "Unknown");
    }

    #[test]
    fn response_heads_are_explicit_about_connection_reuse() {
        let head = render_head(200, "application/json", 42, true);
        assert!(head.starts_with("HTTP/1.1 200 OK\r\n"), "{head}");
        assert!(head.contains("content-length: 42\r\n"), "{head}");
        assert!(head.contains("connection: keep-alive\r\n"), "{head}");
        assert!(head.ends_with("\r\n\r\n"), "{head}");
        let head = render_head(501, "application/json", 0, false);
        assert!(
            head.starts_with("HTTP/1.1 501 Not Implemented\r\n"),
            "{head}"
        );
        assert!(head.contains("connection: close\r\n"), "{head}");
    }

    #[test]
    fn retry_after_marks_exactly_the_429_and_503_heads() {
        for status in EMITTED_STATUSES {
            let head = render_head(status, "application/json", 7, true);
            let lines = head.matches("\r\nretry-after: 1\r\n").count();
            let expected = usize::from(matches!(status, 429 | 503));
            assert_eq!(lines, expected, "status {status}: {head}");
            assert!(head.ends_with("\r\n\r\n"), "{head}");
        }
    }
}
