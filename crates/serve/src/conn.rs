//! Socket-free connection machinery for the event-loop server.
//!
//! Everything in this module is pure state over byte buffers, so the whole
//! per-connection protocol layer is unit- and property-testable without
//! opening a single socket:
//!
//! * [`RecvBuffer`] — a growable, compacting read buffer the event loop
//!   appends raw socket bytes into;
//! * [`RequestParser`] — an incremental HTTP/1.1 request parser that
//!   consumes the buffer request by request, regardless of how the bytes
//!   were chunked by the network. It validates framing (`Content-Length`
//!   hygiene per RFC 9112 §6.3, head-size caps, structured rejects),
//!   implements `Connection` keep-alive semantics, and rejects
//!   `Transfer-Encoding` with a 501 —
//!   a chunked body this server cannot parse would otherwise be misframed
//!   as the next pipelined request;
//! * [`WriteQueue`] — a bounded queue of response byte segments with
//!   high/low watermarks, so a slow reader pauses request intake instead
//!   of growing server memory;
//! * [`TimerWheel`] — a hashed timing wheel driving idle / slowloris
//!   deadlines with O(1) arm and fire.

use crate::http::HttpResponse;

/// Hard cap on the request head (request line plus headers).
pub const MAX_HEAD_BYTES: usize = 16 * 1024;

/// How much of a rejected request's body is skipped (and discarded) before
/// the connection is closed. Unread bytes left in the socket's receive
/// buffer make `close()` send a TCP RST on common stacks, which would
/// destroy the queued error response; skipping a bounded amount lets
/// reasonable oversized uploads finish and read the structured error.
pub const REJECT_DRAIN_BYTES: u64 = 8 * 1024 * 1024;

// ---------------------------------------------------------------------------
// Head validators
// ---------------------------------------------------------------------------

/// Validates one request line, returning `(method, path, is_http10)`.
///
/// # Errors
///
/// Returns the structured 400 to respond with when the line is malformed.
pub fn parse_request_line(line: &str) -> Result<(String, String, bool), HttpResponse> {
    let mut parts = line.split(' ');
    let (Some(method), Some(path), Some(version)) = (parts.next(), parts.next(), parts.next())
    else {
        return Err(HttpResponse::error(400, "malformed request line"));
    };
    if parts.next().is_some()
        || method.is_empty()
        || path.is_empty()
        || !version.starts_with("HTTP/1.")
    {
        return Err(HttpResponse::error(400, "malformed request line"));
    }
    Ok((method.to_owned(), path.to_owned(), version == "HTTP/1.0"))
}

/// Accumulates validated header state while head lines stream in. One
/// instance per request; the incremental parser feeds every header line
/// through [`HeadFields::header_line`].
#[derive(Debug, Default)]
pub struct HeadFields {
    /// The validated `Content-Length`, when one was sent.
    pub content_length: Option<usize>,
    /// `true` once a `Connection: close` token was seen.
    pub connection_close: bool,
    /// `true` once a `Connection: keep-alive` token was seen.
    pub connection_keep_alive: bool,
    /// The validated `x-arrayflex-tenant` value, when one was sent (the
    /// key the per-tenant quota and job accounting layers use).
    pub tenant: Option<String>,
}

/// Longest accepted `x-arrayflex-tenant` value. Tenant names become
/// Prometheus label values and quota-map keys, so unbounded
/// client-chosen strings are rejected up front.
pub const MAX_TENANT_BYTES: usize = 64;

impl HeadFields {
    /// Validates one header line (without its line terminator).
    ///
    /// # Errors
    ///
    /// Returns the structured response to reject the request with:
    /// 400 for malformed headers and `Content-Length` hygiene violations,
    /// 501 for any `Transfer-Encoding` (this server only frames bodies by
    /// `Content-Length`; accepting the header and then treating the coded
    /// body as raw bytes would misframe a chunked body as the next
    /// pipelined request).
    pub fn header_line(&mut self, header: &str) -> Result<(), HttpResponse> {
        let Some((name, value)) = header.split_once(':') else {
            return Err(HttpResponse::error(400, "malformed header"));
        };
        let name = name.trim();
        if name.eq_ignore_ascii_case("content-length") {
            // RFC 9112 §6.3 hygiene: only plain decimal digit strings (no
            // sign, no whitespace inside, no comma list — `usize::parse`
            // alone would accept `+5`), and repeated Content-Length headers
            // must all agree; conflicting values are a request-smuggling
            // vector, not a recoverable ambiguity.
            let raw = value.trim();
            if raw.is_empty() || !raw.bytes().all(|b| b.is_ascii_digit()) {
                return Err(HttpResponse::error(400, "invalid content-length"));
            }
            let Ok(length) = raw.parse::<usize>() else {
                return Err(HttpResponse::error(400, "invalid content-length"));
            };
            if self
                .content_length
                .is_some_and(|previous| previous != length)
            {
                return Err(HttpResponse::error(
                    400,
                    "conflicting content-length headers",
                ));
            }
            self.content_length = Some(length);
        } else if name.eq_ignore_ascii_case("transfer-encoding") {
            return Err(HttpResponse::error(
                501,
                "transfer-encoding is not supported; frame the body with content-length",
            ));
        } else if name.eq_ignore_ascii_case("connection") {
            for token in value.split(',') {
                let token = token.trim();
                if token.eq_ignore_ascii_case("close") {
                    self.connection_close = true;
                } else if token.eq_ignore_ascii_case("keep-alive") {
                    self.connection_keep_alive = true;
                }
            }
        } else if name.eq_ignore_ascii_case("x-arrayflex-tenant") {
            // Tenant names feed metric labels and quota keys: bound the
            // length and restrict to printable ASCII without quotes or
            // backslashes (which would need escaping in Prometheus label
            // values).
            let raw = value.trim();
            if raw.is_empty()
                || raw.len() > MAX_TENANT_BYTES
                || !raw
                    .bytes()
                    .all(|b| (0x21..=0x7e).contains(&b) && b != b'"' && b != b'\\')
            {
                return Err(HttpResponse::error(400, "invalid x-arrayflex-tenant"));
            }
            self.tenant = Some(raw.to_owned());
        }
        Ok(())
    }

    /// Whether the connection must close after this request's response:
    /// an explicit `Connection: close`, or HTTP/1.0 without an explicit
    /// `keep-alive`.
    #[must_use]
    pub fn close_after(&self, http10: bool) -> bool {
        self.connection_close || (http10 && !self.connection_keep_alive)
    }
}

// ---------------------------------------------------------------------------
// RecvBuffer
// ---------------------------------------------------------------------------

/// A growable byte buffer with an O(1) consume cursor. The event loop
/// appends raw socket reads at the tail; the parser consumes framed
/// requests off the head. Consumed space is reclaimed by compaction once
/// it dominates the buffer, so steady-state keep-alive traffic reuses one
/// allocation.
#[derive(Debug, Default)]
pub struct RecvBuffer {
    data: Vec<u8>,
    start: usize,
}

impl RecvBuffer {
    /// Creates an empty buffer.
    #[must_use]
    pub fn new() -> Self {
        Self::default()
    }

    /// The unconsumed bytes.
    #[must_use]
    pub fn bytes(&self) -> &[u8] {
        &self.data[self.start..]
    }

    /// Number of unconsumed bytes.
    #[must_use]
    pub fn len(&self) -> usize {
        self.data.len() - self.start
    }

    /// `true` when no unconsumed bytes remain.
    #[must_use]
    pub fn is_empty(&self) -> bool {
        self.len() == 0
    }

    /// Appends freshly read bytes at the tail.
    pub fn extend(&mut self, bytes: &[u8]) {
        self.compact_if_worthwhile();
        self.data.extend_from_slice(bytes);
    }

    /// Consumes `n` bytes off the head.
    ///
    /// # Panics
    ///
    /// Panics if `n` exceeds the unconsumed length.
    pub fn consume(&mut self, n: usize) {
        assert!(n <= self.len(), "consume past the buffered bytes");
        self.start += n;
        if self.start == self.data.len() {
            self.data.clear();
            self.start = 0;
        }
    }

    fn compact_if_worthwhile(&mut self) {
        // Compact when at least 4 KiB is dead *and* the live remainder is
        // smaller than the dead prefix, so compaction is O(live) and rare.
        if self.start >= 4096 && self.len() < self.start {
            self.data.copy_within(self.start.., 0);
            self.data.truncate(self.len());
            self.start = 0;
        }
    }
}

// ---------------------------------------------------------------------------
// RequestParser
// ---------------------------------------------------------------------------

/// One fully framed request extracted off the buffer.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct ParsedRequest {
    /// Request method, as received.
    pub method: String,
    /// Request path.
    pub path: String,
    /// The complete request body.
    pub body: Vec<u8>,
    /// Whether the connection must close after this request's response.
    pub close_after: bool,
    /// The `x-arrayflex-tenant` value, when the request carried one.
    pub tenant: Option<String>,
}

/// Outcome of one [`RequestParser::next_request`] call.
#[derive(Debug)]
pub enum Parsed {
    /// A complete request was framed and consumed off the buffer.
    Request(ParsedRequest),
    /// The request violates a framing invariant: respond with `response`,
    /// skip up to `skip` announced body bytes as they arrive, then close.
    Reject {
        /// The structured error response to write.
        response: HttpResponse,
        /// Announced body bytes to discard before closing (bounded by
        /// [`REJECT_DRAIN_BYTES`]).
        skip: u64,
    },
    /// Not enough bytes buffered yet; read more.
    NeedMore,
}

#[derive(Debug)]
enum ParseState {
    /// Scanning for the end of the next request head. `scanned` bytes of
    /// the buffer head are known not to contain the terminator yet, so
    /// chunked arrival never rescans from the start.
    Head { scanned: usize },
    /// The head parsed; `remaining` body bytes are still outstanding.
    Body {
        method: String,
        path: String,
        close_after: bool,
        length: usize,
        tenant: Option<String>,
    },
    /// A reject was emitted; discard `remaining` announced body bytes,
    /// then the connection closes. No further requests are parsed.
    Skip { remaining: u64 },
}

/// Incremental HTTP/1.1 request parser over a [`RecvBuffer`].
///
/// Feed bytes into the buffer in arbitrary chunks and call
/// [`RequestParser::next_request`] until it returns [`Parsed::NeedMore`];
/// the sequence of produced requests is a pure function of the byte
/// stream, independent of chunk boundaries (property-tested in
/// `tests/conn_machine.rs`).
#[derive(Debug)]
pub struct RequestParser {
    state: ParseState,
    max_body: usize,
}

impl RequestParser {
    /// Creates a parser enforcing the given body-size cap.
    #[must_use]
    pub fn new(max_body: usize) -> Self {
        Self {
            state: ParseState::Head { scanned: 0 },
            max_body,
        }
    }

    /// `true` while the parser is mid-request (a head or body is partially
    /// received, or buffered bytes await parsing). A draining server keeps
    /// such connections alive until the request completes.
    #[must_use]
    pub fn mid_request(&self, buffer: &RecvBuffer) -> bool {
        match self.state {
            ParseState::Head { .. } => !buffer.is_empty(),
            ParseState::Body { .. } => true,
            ParseState::Skip { .. } => false,
        }
    }

    /// `true` once the parser rejected a request: the connection serves
    /// the queued error response and closes, so no further requests are
    /// ever produced.
    #[must_use]
    pub fn rejected(&self) -> bool {
        matches!(self.state, ParseState::Skip { .. })
    }

    /// Attempts to frame the next request off `buffer`.
    pub fn next_request(&mut self, buffer: &mut RecvBuffer) -> Parsed {
        loop {
            match &mut self.state {
                ParseState::Head { scanned } => {
                    let bytes = buffer.bytes();
                    match find_head_end(bytes, *scanned) {
                        HeadScan::Complete(head_len) => {
                            if head_len > MAX_HEAD_BYTES {
                                return self.reject(
                                    buffer,
                                    HttpResponse::error(431, "request head too long"),
                                    0,
                                );
                            }
                            let (method, path, fields, http10) =
                                match parse_head(&bytes[..head_len]) {
                                    Ok(parsed) => parsed,
                                    Err(response) => return self.reject(buffer, response, 0),
                                };
                            let length = fields.content_length.unwrap_or(0);
                            if length > self.max_body {
                                let response = HttpResponse::error(
                                    413,
                                    &format!(
                                        "request body of {length} bytes exceeds the {}-byte limit",
                                        self.max_body
                                    ),
                                );
                                buffer.consume(head_len);
                                return self.reject(buffer, response, length as u64);
                            }
                            let close_after = fields.close_after(http10);
                            buffer.consume(head_len);
                            self.state = ParseState::Body {
                                method,
                                path,
                                close_after,
                                length,
                                tenant: fields.tenant,
                            };
                        }
                        HeadScan::NeedMore(scanned_now) => {
                            if buffer.len() > MAX_HEAD_BYTES {
                                return self.reject(
                                    buffer,
                                    HttpResponse::error(431, "request head too long"),
                                    0,
                                );
                            }
                            *scanned = scanned_now;
                            return Parsed::NeedMore;
                        }
                    }
                }
                ParseState::Body {
                    method,
                    path,
                    close_after,
                    length,
                    tenant,
                } => {
                    if buffer.len() < *length {
                        return Parsed::NeedMore;
                    }
                    let body = buffer.bytes()[..*length].to_vec();
                    let request = ParsedRequest {
                        method: std::mem::take(method),
                        path: std::mem::take(path),
                        body,
                        close_after: *close_after,
                        tenant: tenant.take(),
                    };
                    let length = *length;
                    buffer.consume(length);
                    self.state = ParseState::Head { scanned: 0 };
                    return Parsed::Request(request);
                }
                ParseState::Skip { remaining } => {
                    let discard = (buffer.len() as u64).min(*remaining) as usize;
                    buffer.consume(discard);
                    *remaining -= discard as u64;
                    return Parsed::NeedMore;
                }
            }
        }
    }

    /// `true` once a pending reject has discarded all the body bytes it
    /// promised to skip (the connection may then close without an RST
    /// racing the error response off the wire).
    #[must_use]
    pub fn skip_complete(&self) -> bool {
        match self.state {
            ParseState::Skip { remaining } => remaining == 0,
            _ => true,
        }
    }

    fn reject(
        &mut self,
        buffer: &mut RecvBuffer,
        response: HttpResponse,
        announced: u64,
    ) -> Parsed {
        let skip = announced.min(REJECT_DRAIN_BYTES);
        // Whatever is already buffered counts against the skip budget.
        let discard = (buffer.len() as u64).min(skip) as usize;
        buffer.consume(discard);
        self.state = ParseState::Skip {
            remaining: skip - discard as u64,
        };
        Parsed::Reject { response, skip }
    }
}

/// Result of scanning for the head terminator.
enum HeadScan {
    /// The head (including its terminating blank line) spans this many
    /// bytes.
    Complete(usize),
    /// No terminator yet; this many bytes are known terminator-free.
    NeedMore(usize),
}

/// Finds the end of the request head: the first `\n` immediately followed
/// by `\n` or `\r\n` (tolerating bare-LF line endings). Scanning resumes
/// at `scanned`, so chunked arrival is O(n) total.
fn find_head_end(bytes: &[u8], scanned: usize) -> HeadScan {
    let mut i = scanned;
    while i < bytes.len() {
        if bytes[i] == b'\n' {
            match bytes.get(i + 1) {
                Some(b'\n') => return HeadScan::Complete(i + 2),
                Some(b'\r') => match bytes.get(i + 2) {
                    Some(b'\n') => return HeadScan::Complete(i + 3),
                    Some(_) => {}
                    // `\n\r` at the tail: the next byte decides.
                    None => return HeadScan::NeedMore(i),
                },
                Some(_) => {}
                // Trailing `\n`: the next byte decides.
                None => return HeadScan::NeedMore(i),
            }
        }
        i += 1;
    }
    HeadScan::NeedMore(bytes.len())
}

/// Parses and validates one complete head block (request line + headers,
/// including the terminating blank line).
fn parse_head(head: &[u8]) -> Result<(String, String, HeadFields, bool), HttpResponse> {
    let text = std::str::from_utf8(head)
        .map_err(|_| HttpResponse::error(400, "request head is not valid UTF-8"))?;
    let mut lines = text
        .split('\n')
        .map(|line| line.strip_suffix('\r').unwrap_or(line));
    let request_line = lines.next().unwrap_or("");
    let (method, path, http10) = parse_request_line(request_line)?;
    let mut fields = HeadFields::default();
    for header in lines {
        if header.is_empty() {
            break;
        }
        fields.header_line(header)?;
    }
    Ok((method, path, fields, http10))
}

// ---------------------------------------------------------------------------
// WriteQueue
// ---------------------------------------------------------------------------

/// Default high watermark of a connection's write queue: above this many
/// queued-but-unwritten bytes the event loop stops reading new requests
/// off the connection (backpressure against slow readers).
pub const WRITE_HIGH_WATERMARK: usize = 1 << 20;

/// Once a paused connection's write queue drains below this, reading
/// resumes.
pub const WRITE_LOW_WATERMARK: usize = 64 * 1024;

/// A queue of response byte segments awaiting the socket, with watermark
/// accounting. Segments are written front to back; partially written
/// fronts keep a cursor so a `WouldBlock` mid-segment resumes where it
/// stopped.
///
/// Segments come in two flavors: owned byte vectors (response heads) and
/// shared [`std::sync::Arc`] bodies, so a response body the rendered
/// memo also holds is queued without copying its bytes.
#[derive(Debug, Default)]
pub struct WriteQueue {
    segments: std::collections::VecDeque<Segment>,
    front_written: usize,
    queued_bytes: usize,
}

/// One queued run of response bytes.
#[derive(Debug)]
enum Segment {
    Owned(Vec<u8>),
    Shared(std::sync::Arc<Vec<u8>>),
}

impl Segment {
    fn bytes(&self) -> &[u8] {
        match self {
            Segment::Owned(v) => v,
            Segment::Shared(v) => v,
        }
    }
}

/// What a flush attempt achieved.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum FlushProgress {
    /// The queue is fully drained.
    Drained,
    /// Bytes were written but the sink blocked before the queue emptied.
    Partial,
    /// The sink blocked before any byte was written.
    Blocked,
}

impl WriteQueue {
    /// Creates an empty queue.
    #[must_use]
    pub fn new() -> Self {
        Self::default()
    }

    /// Queues one response's bytes.
    pub fn push(&mut self, bytes: Vec<u8>) {
        self.queued_bytes += bytes.len();
        self.segments.push_back(Segment::Owned(bytes));
    }

    /// Queues a shared response body without copying it: every
    /// connection a rendered-memo entry is written to references the
    /// memo's one allocation.
    pub fn push_shared(&mut self, bytes: std::sync::Arc<Vec<u8>>) {
        self.queued_bytes += bytes.len();
        self.segments.push_back(Segment::Shared(bytes));
    }

    /// Bytes queued and not yet written.
    #[must_use]
    pub fn queued_bytes(&self) -> usize {
        self.queued_bytes
    }

    /// `true` when nothing is queued.
    #[must_use]
    pub fn is_empty(&self) -> bool {
        self.segments.is_empty()
    }

    /// `true` while the queue is over [`WRITE_HIGH_WATERMARK`].
    #[must_use]
    pub fn over_high_watermark(&self) -> bool {
        self.queued_bytes > WRITE_HIGH_WATERMARK
    }

    /// `true` once the queue drained to [`WRITE_LOW_WATERMARK`] or below.
    #[must_use]
    pub fn below_low_watermark(&self) -> bool {
        self.queued_bytes <= WRITE_LOW_WATERMARK
    }

    /// Writes as much queued data as `sink` accepts. `WouldBlock` (and
    /// `Interrupted`) stop the flush without error; other I/O errors
    /// propagate (the connection is then closed by the caller).
    ///
    /// # Errors
    ///
    /// Returns any I/O error other than `WouldBlock` / `Interrupted`.
    pub fn flush_into(&mut self, sink: &mut impl std::io::Write) -> std::io::Result<FlushProgress> {
        let mut wrote_any = false;
        while let Some(front) = self.segments.front() {
            let pending = &front.bytes()[self.front_written..];
            match sink.write(pending) {
                Ok(0) => {
                    return Err(std::io::Error::new(
                        std::io::ErrorKind::WriteZero,
                        "socket accepted zero bytes",
                    ))
                }
                Ok(n) => {
                    wrote_any = true;
                    self.advance(n);
                }
                Err(e) if e.kind() == std::io::ErrorKind::Interrupted => {}
                Err(e) if e.kind() == std::io::ErrorKind::WouldBlock => {
                    return Ok(if wrote_any {
                        FlushProgress::Partial
                    } else {
                        FlushProgress::Blocked
                    });
                }
                Err(e) => return Err(e),
            }
        }
        Ok(FlushProgress::Drained)
    }

    /// Like [`WriteQueue::flush_into`], but gathers up to
    /// [`MAX_IOV_SEGMENTS`] segments into one vectored write per syscall —
    /// a pipelined burst of head+body pairs drains in one `writev` instead
    /// of one `write` per segment.
    ///
    /// # Errors
    ///
    /// Returns any I/O error other than `WouldBlock` / `Interrupted`.
    pub fn flush_into_vectored(
        &mut self,
        sink: &mut impl std::io::Write,
    ) -> std::io::Result<FlushProgress> {
        let mut wrote_any = false;
        while !self.segments.is_empty() {
            let mut slices: Vec<std::io::IoSlice<'_>> =
                Vec::with_capacity(self.segments.len().min(MAX_IOV_SEGMENTS));
            for (i, segment) in self.segments.iter().take(MAX_IOV_SEGMENTS).enumerate() {
                let bytes = segment.bytes();
                let pending = if i == 0 {
                    &bytes[self.front_written..]
                } else {
                    bytes
                };
                slices.push(std::io::IoSlice::new(pending));
            }
            match sink.write_vectored(&slices) {
                Ok(0) => {
                    return Err(std::io::Error::new(
                        std::io::ErrorKind::WriteZero,
                        "socket accepted zero bytes",
                    ))
                }
                Ok(n) => {
                    wrote_any = true;
                    self.advance(n);
                }
                Err(e) if e.kind() == std::io::ErrorKind::Interrupted => {}
                Err(e) if e.kind() == std::io::ErrorKind::WouldBlock => {
                    return Ok(if wrote_any {
                        FlushProgress::Partial
                    } else {
                        FlushProgress::Blocked
                    });
                }
                Err(e) => return Err(e),
            }
        }
        Ok(FlushProgress::Drained)
    }

    /// Accounts `n` freshly written bytes, popping fully drained front
    /// segments.
    fn advance(&mut self, mut n: usize) {
        self.queued_bytes -= n;
        while n > 0 {
            let front_len = self
                .segments
                .front()
                .expect("advance past queue")
                .bytes()
                .len();
            let pending = front_len - self.front_written;
            if n >= pending {
                n -= pending;
                self.segments.pop_front();
                self.front_written = 0;
            } else {
                self.front_written += n;
                n = 0;
            }
        }
    }
}

/// Cap on segments gathered into one vectored write; matches typical
/// `UIO_MAXIOV`-friendly batch sizes without ever allocating huge iovec
/// arrays.
pub const MAX_IOV_SEGMENTS: usize = 32;

// ---------------------------------------------------------------------------
// FaultyStream — the stream-I/O fault shim
// ---------------------------------------------------------------------------

/// The event loop's stream-I/O shim: every read and write on a connection
/// goes through one of these. With no [`FaultPlan`](crate::fault::FaultPlan)
/// attached it is a zero-cost passthrough; with one, each operation first
/// asks the plan whether to fail with `EINTR` / `WouldBlock` /
/// `ECONNRESET` or truncate to a short transfer — the exact error surface
/// real sockets produce, injected deterministically from a seed.
///
/// Short faults clamp the buffer and then perform the real operation, so
/// injected faults can *reorder and fragment* traffic but never corrupt
/// it: a 200 still carries the bytes the handler produced.
pub struct FaultyStream<'a, S> {
    inner: S,
    plan: Option<&'a crate::fault::FaultPlan>,
}

impl<'a, S> FaultyStream<'a, S> {
    /// Wraps `inner`; `plan` of `None` makes every call a passthrough.
    pub fn new(inner: S, plan: Option<&'a crate::fault::FaultPlan>) -> Self {
        Self { inner, plan }
    }
}

fn fault_error(kind: std::io::ErrorKind) -> std::io::Error {
    std::io::Error::new(kind, "injected fault")
}

impl<S: std::io::Read> std::io::Read for FaultyStream<'_, S> {
    fn read(&mut self, buf: &mut [u8]) -> std::io::Result<usize> {
        use crate::fault::IoFault;
        if let Some(plan) = self.plan {
            match plan.on_read(buf.len()) {
                IoFault::None => {}
                IoFault::Eintr => return Err(fault_error(std::io::ErrorKind::Interrupted)),
                IoFault::WouldBlock => return Err(fault_error(std::io::ErrorKind::WouldBlock)),
                IoFault::Reset => return Err(fault_error(std::io::ErrorKind::ConnectionReset)),
                IoFault::Short(n) => return self.inner.read(&mut buf[..n]),
            }
        }
        self.inner.read(buf)
    }
}

impl<S: std::io::Write> std::io::Write for FaultyStream<'_, S> {
    fn write(&mut self, buf: &[u8]) -> std::io::Result<usize> {
        use crate::fault::IoFault;
        if let Some(plan) = self.plan {
            match plan.on_write(buf.len()) {
                IoFault::None => {}
                IoFault::Eintr => return Err(fault_error(std::io::ErrorKind::Interrupted)),
                IoFault::WouldBlock => return Err(fault_error(std::io::ErrorKind::WouldBlock)),
                IoFault::Reset => return Err(fault_error(std::io::ErrorKind::ConnectionReset)),
                IoFault::Short(n) => return self.inner.write(&buf[..n.min(buf.len())]),
            }
        }
        self.inner.write(buf)
    }

    fn write_vectored(&mut self, bufs: &[std::io::IoSlice<'_>]) -> std::io::Result<usize> {
        use crate::fault::IoFault;
        if let Some(plan) = self.plan {
            let total: usize = bufs.iter().map(|b| b.len()).sum();
            match plan.on_write(total) {
                IoFault::None => {}
                IoFault::Eintr => return Err(fault_error(std::io::ErrorKind::Interrupted)),
                IoFault::WouldBlock => return Err(fault_error(std::io::ErrorKind::WouldBlock)),
                IoFault::Reset => return Err(fault_error(std::io::ErrorKind::ConnectionReset)),
                IoFault::Short(n) => {
                    // A short vectored write lands entirely in the first
                    // non-empty slice, like a socket running out of send
                    // buffer mid-iovec.
                    let first = bufs
                        .iter()
                        .find(|b| !b.is_empty())
                        .map(|b| &b[..])
                        .unwrap_or(&[]);
                    if first.is_empty() {
                        return Ok(0);
                    }
                    return self.inner.write(&first[..n.min(first.len())]);
                }
            }
        }
        self.inner.write_vectored(bufs)
    }

    fn flush(&mut self) -> std::io::Result<()> {
        self.inner.flush()
    }
}

// ---------------------------------------------------------------------------
// TimerWheel
// ---------------------------------------------------------------------------

/// Tick granularity of the timer wheel. Deadlines fire within one tick of
/// their nominal time (always late, never early).
pub const TIMER_TICK_MS: u64 = 25;

const TIMER_SLOTS: usize = 256;

/// A hashed timing wheel over connection tokens.
///
/// Arming is O(1): the deadline hashes to `slot = tick % TIMER_SLOTS` and
/// the `(token, generation, tick)` triple is appended there. Deadlines
/// further out than one wheel revolution simply stay in their slot and
/// are re-queued when the slot fires early (the classic hashed-wheel
/// cascade). Cancellation is lazy: the event loop validates the
/// generation (and the connection's *current* deadline) when an entry
/// fires, so re-arming never has to find and remove stale entries.
#[derive(Debug)]
pub struct TimerWheel {
    slots: Vec<Vec<TimerEntry>>,
    /// The next tick to be processed by [`TimerWheel::expired`].
    cursor: u64,
}

#[derive(Debug, Clone, Copy)]
struct TimerEntry {
    token: usize,
    generation: u64,
    tick: u64,
}

impl TimerWheel {
    /// Creates a wheel whose tick 0 corresponds to `now`.
    #[must_use]
    pub fn new() -> Self {
        Self {
            slots: (0..TIMER_SLOTS).map(|_| Vec::new()).collect(),
            cursor: 0,
        }
    }

    /// Converts a duration from the wheel epoch into a tick number
    /// (rounding up, so entries never fire early).
    #[must_use]
    pub fn tick_of(since_epoch_ms: u64) -> u64 {
        since_epoch_ms.div_ceil(TIMER_TICK_MS)
    }

    /// Arms `(token, generation)` to fire at `tick`.
    pub fn arm(&mut self, token: usize, generation: u64, tick: u64) {
        // A deadline in the past still lands one slot ahead of the cursor
        // so the next `expired` sweep picks it up.
        let tick = tick.max(self.cursor);
        let slot = (tick as usize) % TIMER_SLOTS;
        self.slots[slot].push(TimerEntry {
            token,
            generation,
            tick,
        });
    }

    /// Advances the wheel to `now_tick`, returning every `(token,
    /// generation)` whose tick elapsed. Entries parked for a later wheel
    /// revolution are re-queued, not fired.
    pub fn expired(&mut self, now_tick: u64) -> Vec<(usize, u64)> {
        let mut fired = Vec::new();
        while self.cursor <= now_tick {
            let slot = (self.cursor as usize) % TIMER_SLOTS;
            let entries = std::mem::take(&mut self.slots[slot]);
            for entry in entries {
                if entry.tick <= now_tick {
                    fired.push((entry.token, entry.generation));
                } else {
                    // A later revolution: put it back for its real tick.
                    self.slots[(entry.tick as usize) % TIMER_SLOTS].push(entry);
                }
            }
            self.cursor += 1;
        }
        fired
    }
}

impl Default for TimerWheel {
    fn default() -> Self {
        Self::new()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn feed(parser: &mut RequestParser, buffer: &mut RecvBuffer, bytes: &[u8]) -> Vec<Parsed> {
        buffer.extend(bytes);
        let mut out = Vec::new();
        loop {
            match parser.next_request(buffer) {
                Parsed::NeedMore => break,
                other => out.push(other),
            }
        }
        out
    }

    #[test]
    fn one_request_parses_whole_or_byte_at_a_time() {
        let raw = b"POST /v1/plan HTTP/1.1\r\nhost: x\r\ncontent-length: 2\r\n\r\nhi";
        for chunk in [raw.len(), 1] {
            let mut parser = RequestParser::new(1024);
            let mut buffer = RecvBuffer::new();
            let mut requests = Vec::new();
            for piece in raw.chunks(chunk) {
                for parsed in feed(&mut parser, &mut buffer, piece) {
                    match parsed {
                        Parsed::Request(r) => requests.push(r),
                        other => panic!("unexpected {other:?}"),
                    }
                }
            }
            assert_eq!(requests.len(), 1, "chunk size {chunk}");
            assert_eq!(requests[0].method, "POST");
            assert_eq!(requests[0].path, "/v1/plan");
            assert_eq!(requests[0].body, b"hi");
            assert!(!requests[0].close_after);
        }
    }

    #[test]
    fn pipelined_requests_come_out_in_order() {
        let raw = b"GET /healthz HTTP/1.1\r\n\r\nPOST /v1/plan HTTP/1.1\r\ncontent-length: 3\r\n\r\nabcGET /metrics HTTP/1.1\r\nconnection: close\r\n\r\n";
        let mut parser = RequestParser::new(1024);
        let mut buffer = RecvBuffer::new();
        let parsed = feed(&mut parser, &mut buffer, raw);
        let paths: Vec<_> = parsed
            .iter()
            .map(|p| match p {
                Parsed::Request(r) => r.path.clone(),
                other => panic!("unexpected {other:?}"),
            })
            .collect();
        assert_eq!(paths, ["/healthz", "/v1/plan", "/metrics"]);
        match &parsed[2] {
            Parsed::Request(r) => assert!(r.close_after),
            other => panic!("unexpected {other:?}"),
        }
        assert!(buffer.is_empty());
    }

    #[test]
    fn http10_closes_unless_keep_alive_is_asked_for() {
        let mut parser = RequestParser::new(1024);
        let mut buffer = RecvBuffer::new();
        let parsed = feed(
            &mut parser,
            &mut buffer,
            b"GET /healthz HTTP/1.0\r\n\r\nGET /healthz HTTP/1.0\r\nconnection: keep-alive\r\n\r\n",
        );
        match (&parsed[0], &parsed[1]) {
            (Parsed::Request(a), Parsed::Request(b)) => {
                assert!(a.close_after);
                assert!(!b.close_after);
            }
            other => panic!("unexpected {other:?}"),
        }
    }

    #[test]
    fn transfer_encoding_is_a_501_and_poisons_the_connection() {
        let mut parser = RequestParser::new(1024);
        let mut buffer = RecvBuffer::new();
        let parsed = feed(
            &mut parser,
            &mut buffer,
            b"POST /v1/plan HTTP/1.1\r\ntransfer-encoding: chunked\r\n\r\n5\r\nhello\r\n0\r\n\r\n",
        );
        match &parsed[0] {
            Parsed::Reject { response, .. } => assert_eq!(response.status, 501),
            other => panic!("unexpected {other:?}"),
        }
        assert!(parser.rejected());
        // The would-be chunked body is never misread as a next request.
        assert!(matches!(parser.next_request(&mut buffer), Parsed::NeedMore));
    }

    #[test]
    fn oversized_bodies_reject_with_413_and_skip() {
        let mut parser = RequestParser::new(4);
        let mut buffer = RecvBuffer::new();
        let parsed = feed(
            &mut parser,
            &mut buffer,
            b"POST /v1/plan HTTP/1.1\r\ncontent-length: 10\r\n\r\n12345",
        );
        match &parsed[0] {
            Parsed::Reject { response, skip } => {
                assert_eq!(response.status, 413);
                assert_eq!(*skip, 10);
            }
            other => panic!("unexpected {other:?}"),
        }
        assert!(!parser.skip_complete());
        buffer.extend(b"67890");
        let _ = parser.next_request(&mut buffer);
        assert!(parser.skip_complete());
    }

    #[test]
    fn head_overflow_is_a_431() {
        let mut parser = RequestParser::new(1024);
        let mut buffer = RecvBuffer::new();
        let mut raw = Vec::from(&b"GET /"[..]);
        raw.extend(std::iter::repeat(b'a').take(MAX_HEAD_BYTES + 8));
        let parsed = feed(&mut parser, &mut buffer, &raw);
        match &parsed[0] {
            Parsed::Reject { response, .. } => assert_eq!(response.status, 431),
            other => panic!("unexpected {other:?}"),
        }
    }

    #[test]
    fn framing_hygiene_matches_the_legacy_validators() {
        for (head, status, needle) in [
            (
                &b"POST /p HTTP/1.1\r\ncontent-length: 2\r\ncontent-length: 3\r\n\r\n"[..],
                400,
                "conflicting content-length",
            ),
            (
                &b"POST /p HTTP/1.1\r\ncontent-length: +2\r\n\r\n"[..],
                400,
                "invalid content-length",
            ),
            (
                &b"POST /p HTTP/1.1\r\nnocolon\r\n\r\n"[..],
                400,
                "malformed header",
            ),
            (&b"GET \xff\xfe HTTP/1.1\r\n\r\n"[..], 400, "UTF-8"),
            (&b"GET /p HTTP/1.1 extra\r\n\r\n"[..], 400, "request line"),
        ] {
            let mut parser = RequestParser::new(1024);
            let mut buffer = RecvBuffer::new();
            let parsed = feed(&mut parser, &mut buffer, head);
            match &parsed[0] {
                Parsed::Reject { response, .. } => {
                    assert_eq!(response.status, status, "head {head:?}");
                    let text = std::str::from_utf8(&response.body).unwrap();
                    assert!(text.contains(needle), "{text} missing {needle}");
                }
                other => panic!("unexpected {other:?} for {head:?}"),
            }
        }
    }

    #[test]
    fn identical_duplicate_content_length_is_tolerated() {
        let mut parser = RequestParser::new(16);
        let mut buffer = RecvBuffer::new();
        let parsed = feed(
            &mut parser,
            &mut buffer,
            b"POST /p HTTP/1.1\r\ncontent-length: 2\r\ncontent-length: 2\r\n\r\nok",
        );
        assert!(matches!(&parsed[0], Parsed::Request(r) if r.body == b"ok"));
    }

    #[test]
    fn write_queue_tracks_watermarks_and_partial_fronts() {
        let mut queue = WriteQueue::new();
        assert!(queue.is_empty());
        queue.push(vec![1u8; WRITE_HIGH_WATERMARK + 1]);
        assert!(queue.over_high_watermark());
        assert!(!queue.below_low_watermark());

        // A sink that accepts a fixed number of bytes then blocks.
        struct Throttle(usize);
        impl std::io::Write for Throttle {
            fn write(&mut self, buf: &[u8]) -> std::io::Result<usize> {
                if self.0 == 0 {
                    return Err(std::io::ErrorKind::WouldBlock.into());
                }
                let n = buf.len().min(self.0);
                self.0 -= n;
                Ok(n)
            }
            fn flush(&mut self) -> std::io::Result<()> {
                Ok(())
            }
        }

        let mut sink = Throttle(WRITE_HIGH_WATERMARK - WRITE_LOW_WATERMARK + 1);
        assert_eq!(queue.flush_into(&mut sink).unwrap(), FlushProgress::Partial);
        assert!(!queue.over_high_watermark());
        assert_eq!(queue.queued_bytes(), WRITE_LOW_WATERMARK);
        assert!(queue.below_low_watermark());
        let mut sink = Throttle(usize::MAX);
        assert_eq!(queue.flush_into(&mut sink).unwrap(), FlushProgress::Drained);
        assert!(queue.is_empty());
        let mut blocked = Throttle(0);
        queue.push(vec![7u8; 8]);
        assert_eq!(
            queue.flush_into(&mut blocked).unwrap(),
            FlushProgress::Blocked
        );
    }

    #[test]
    fn vectored_flush_drains_mixed_owned_and_shared_segments() {
        // A sink that records bytes and accepts a bounded amount per call,
        // so partial progress must split mid-segment.
        struct Recorder {
            out: Vec<u8>,
            per_call: usize,
        }
        impl std::io::Write for Recorder {
            fn write(&mut self, buf: &[u8]) -> std::io::Result<usize> {
                let n = buf.len().min(self.per_call);
                self.out.extend_from_slice(&buf[..n]);
                Ok(n)
            }
            fn write_vectored(&mut self, bufs: &[std::io::IoSlice<'_>]) -> std::io::Result<usize> {
                let mut budget = self.per_call;
                let mut written = 0;
                for buf in bufs {
                    if budget == 0 {
                        break;
                    }
                    let n = buf.len().min(budget);
                    self.out.extend_from_slice(&buf[..n]);
                    budget -= n;
                    written += n;
                }
                if written == 0 && !bufs.iter().all(|b| b.is_empty()) {
                    return Err(std::io::ErrorKind::WouldBlock.into());
                }
                Ok(written)
            }
            fn flush(&mut self) -> std::io::Result<()> {
                Ok(())
            }
        }

        let shared = std::sync::Arc::new(b"shared-body".to_vec());
        let mut expected = Vec::new();
        let mut queue = WriteQueue::new();
        for i in 0..MAX_IOV_SEGMENTS + 5 {
            let head = format!("head-{i}:").into_bytes();
            expected.extend_from_slice(&head);
            expected.extend_from_slice(&shared[..]);
            queue.push(head);
            queue.push_shared(std::sync::Arc::clone(&shared));
        }
        let mut sink = Recorder {
            out: Vec::new(),
            per_call: 7,
        };
        while queue.flush_into_vectored(&mut sink).unwrap() != FlushProgress::Drained {}
        assert_eq!(sink.out, expected);
        assert!(queue.is_empty());
        assert_eq!(queue.queued_bytes(), 0);
    }

    #[test]
    fn timer_wheel_fires_on_time_and_cascades_far_deadlines() {
        let mut wheel = TimerWheel::new();
        wheel.arm(1, 0, 3);
        wheel.arm(2, 5, 4);
        // A deadline more than one revolution out shares slot 3's bucket.
        wheel.arm(3, 0, 3 + TIMER_SLOTS as u64);
        assert!(wheel.expired(2).is_empty());
        let fired = wheel.expired(4);
        assert_eq!(fired, vec![(1, 0), (2, 5)]);
        // The far entry only fires a full revolution later.
        assert!(wheel.expired(5).is_empty());
        let fired = wheel.expired(3 + TIMER_SLOTS as u64);
        assert_eq!(fired, vec![(3, 0)]);
    }

    #[test]
    fn recv_buffer_compacts_without_losing_bytes() {
        let mut buffer = RecvBuffer::new();
        buffer.extend(&vec![9u8; 8192]);
        buffer.consume(8190);
        buffer.extend(b"ab");
        assert_eq!(buffer.bytes(), &[9, 9, b'a', b'b']);
        assert_eq!(buffer.len(), 4);
    }
}
