//! The handler worker pool's unit of work.
//!
//! Event loops answer `/healthz`, rendered-memo hits, quota rejections
//! and sheds themselves, and hand every request that needs computation
//! to a shared pool of worker threads as a [`Job`]. A worker runs it
//! through [`handle_job`] and mails the response back to the owning
//! loop's mailbox as a [`Completion`]; request metrics and log lines are
//! recorded here, with each request's end-to-end latency.
//!
//! **Cancellation.** Every job carries its request's own [`CancelToken`],
//! armed with the request deadline at dispatch; the event loop fires it
//! when the client's connection closes. A worker skips a job whose token
//! already fired, and the handler observes the token between job items,
//! so an abandoned computation stops within one item and answers a
//! structured 503 (dropped by the slot-generation guard, since nobody is
//! left to read it). One client disconnecting never cancels another
//! client's request.

use crate::api::{self, AppState};
use crate::conn::ParsedRequest;
use crate::event_loop::{LoopMsg, Mailbox};
use crate::http::{self, HttpRequest, HttpResponse};
use gemm::CancelToken;
use std::panic::{catch_unwind, AssertUnwindSafe};
use std::sync::Arc;
use std::time::Instant;

/// Reason a request's token carries when its connection closed.
pub(crate) const DISCONNECT_REASON: &str = "client disconnected";

/// A response ready for the wire. The body is an [`Arc`] so a
/// rendered-memo hit queues the memo's bytes without copying them.
#[derive(Debug)]
pub(crate) struct SharedResponse {
    /// Status code.
    pub status: u16,
    /// `Content-Type` of the body.
    pub content_type: &'static str,
    /// The response body.
    pub body: Arc<Vec<u8>>,
}

impl From<HttpResponse> for SharedResponse {
    fn from(response: HttpResponse) -> Self {
        Self {
            status: response.status,
            content_type: response.content_type,
            body: Arc::new(response.body),
        }
    }
}

/// One parsed request travelling from an event loop to the worker pool.
#[derive(Debug)]
pub(crate) struct Job {
    /// Index of the event loop that owns the connection.
    pub loop_id: usize,
    /// The connection's poller token on that loop.
    pub token: usize,
    /// The connection slot's generation when the request was parsed; a
    /// completion whose generation no longer matches is dropped (the
    /// connection died and the slot may have been reused).
    pub generation: u64,
    /// Position of this request in the connection's pipeline; responses
    /// are written strictly in `seq` order.
    pub seq: u64,
    /// The parsed request.
    pub request: ParsedRequest,
    /// When the request finished parsing (latency is measured from here).
    pub started: Instant,
    /// The request's cancellation token: armed with the request deadline
    /// at dispatch, fired by the event loop if the connection closes
    /// while the request is queued or computing.
    pub cancel: CancelToken,
}

/// One finished response travelling back to its event loop.
#[derive(Debug)]
pub(crate) struct Completion {
    /// The connection's poller token.
    pub token: usize,
    /// Slot generation the response belongs to.
    pub generation: u64,
    /// Pipeline position the response answers.
    pub seq: u64,
    /// The response.
    pub response: SharedResponse,
    /// Whether the connection must close after this response.
    pub close_after: bool,
}

/// Where one job's response goes, and what its metrics record.
#[derive(Debug)]
struct ReplyTo {
    loop_id: usize,
    token: usize,
    generation: u64,
    seq: u64,
    close_after: bool,
    route: &'static str,
    started: Instant,
}

/// Runs one job end to end: the disconnect and deadline checks, the
/// handler, and delivery. Called by the handler worker threads.
pub(crate) fn handle_job(state: &AppState, sinks: &[Arc<Mailbox>], job: Job) {
    let route = api::route_label(&job.request.path);
    let reply = ReplyTo {
        loop_id: job.loop_id,
        token: job.token,
        generation: job.generation,
        seq: job.seq,
        close_after: job.request.close_after,
        route,
        started: job.started,
    };

    // The connection died while this job sat in the queue: nobody can
    // read the response, so don't spend a worker computing it. (A
    // deadline-expired token without a disconnect falls through to the
    // deadline branch below for its 503 accounting.)
    if job.cancel.cancel_requested() {
        state.metrics().note_cancelled("disconnect");
        return;
    }

    // Per-request deadline: work that queued past its deadline is dead on
    // arrival — the client has given up or retried — so answer 503 now
    // instead of burning a worker on a response nobody reads. Measured
    // from parse completion, so queue time counts.
    if let Some(deadline) = state.request_deadline() {
        if job.started.elapsed() >= deadline {
            state.metrics().note_deadline_expired();
            let response = HttpResponse::error(503, "request deadline expired before processing");
            deliver(
                state,
                sinks,
                reply,
                response.into(),
                api::RequestTrace::default(),
            );
            return;
        }
    }

    let tenant = job.request.tenant;
    let request = HttpRequest {
        method: job.request.method,
        path: job.request.path,
        body: job.request.body,
    };
    // A panicking handler costs exactly one structured 500, never the
    // worker thread.
    let (response, trace) = catch_unwind(AssertUnwindSafe(|| {
        api::handle_request(state, &request, &job.cancel, tenant.as_deref())
    }))
    .unwrap_or_else(|_| {
        state.metrics().note_panic();
        (
            HttpResponse::error(500, "internal error"),
            api::RequestTrace::default(),
        )
    });
    let response = finish(state, &job.cancel, response);
    deliver(state, sinks, reply, response, trace);
}

/// Post-handler accounting: counts a 503 that came from the request's
/// token firing, by cause (`"disconnect"` when a closed connection fired
/// it, `"deadline"` when the armed deadline passed mid-handler).
fn finish(state: &AppState, token: &CancelToken, response: HttpResponse) -> SharedResponse {
    if response.status == 503 && token.is_cancelled() {
        let cause = if token.cancel_requested() {
            "disconnect"
        } else {
            "deadline"
        };
        state.metrics().note_cancelled(cause);
    }
    response.into()
}

/// Records one request's metrics/log line and mails its completion back
/// to the owning event loop.
fn deliver(
    state: &AppState,
    sinks: &[Arc<Mailbox>],
    reply: ReplyTo,
    response: SharedResponse,
    trace: api::RequestTrace,
) {
    let latency = reply.started.elapsed();
    state
        .metrics()
        .observe(reply.route, response.status, latency);
    if state.log_requests() {
        println!(
            "{}",
            http::log_line(reply.route, response.status, latency, trace)
        );
    }
    sinks[reply.loop_id].push(LoopMsg::Complete(Completion {
        token: reply.token,
        generation: reply.generation,
        seq: reply.seq,
        response,
        close_after: reply.close_after,
    }));
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn cancelled_503s_carry_retry_after_and_count_by_cause() {
        let config = crate::http::ServerConfig::default();
        let state = AppState::new(&config);
        let token = CancelToken::new();
        token.cancel(DISCONNECT_REASON);
        let shared = finish(
            &state,
            &token,
            HttpResponse::error(503, "run cancelled after 0/4 items"),
        );
        let head = http::render_head(shared.status, shared.content_type, 0, true);
        assert!(head.contains("\r\nretry-after: 1\r\n"), "{head}");
        assert_eq!(state.metrics().cancelled("disconnect"), 1);
        // A plain 200 through the same path records nothing.
        let ok = finish(
            &state,
            &CancelToken::new(),
            HttpResponse::json(b"{}".to_vec()),
        );
        let head = http::render_head(ok.status, ok.content_type, 2, true);
        assert!(!head.contains("retry-after"), "{head}");
        assert_eq!(state.metrics().total_cancelled(), 1);
    }
}
