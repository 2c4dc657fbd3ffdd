//! Batch admission in front of the request handlers.
//!
//! Two amortization mechanisms sit between the event loops and the
//! handler worker pool — the serving-layer analogue of the paper's thesis
//! that *utilization*, not peak compute, decides delivered throughput:
//!
//! * **Singleflight**: concurrent identical requests (same path, same
//!   body) to a coalescable route (`/v1/plan`, `/v1/sweep`,
//!   `/v1/simulate`) collapse onto one in-flight computation. The first
//!   request becomes the *leader* and computes; later identical requests
//!   park as *waiters* and receive the leader's response — the body is an
//!   [`Arc`], so fan-out copies nothing. Because every handler is a pure
//!   function of the request body over deterministic state, the coalesced
//!   response is byte-identical to what each waiter would have computed
//!   itself (asserted by the golden tests).
//! * **Gather window**: when [`crate::http::ServerConfig::gather_window`]
//!   is non-zero, the first `/v1/simulate` request of an array
//!   configuration waits up to that long for same-configuration requests
//!   (same `rows`/`cols`/`k`/`dataflow`, any operands), then the whole
//!   group runs as one batch through `ParallelExecutor` sharing the
//!   pooled simulator arrays. Off (zero) by default so sequential callers
//!   never pay the window as latency.
//!
//! Responses travel back to their event loop as [`Completion`]s through
//! the loop's mailbox; request metrics and log lines are recorded here,
//! per original request, with each request's own end-to-end latency.
//!
//! **Cancellation.** Every job carries a per-request [`CancelToken`]
//! armed with the request deadline; the event loop fires it when the
//! client's connection closes. A coalescable computation runs under a
//! separate *compute* token registered with its flight: a disconnecting
//! client only detaches from the flight, and the compute token fires
//! only when the **last** waiting client (leader included) is gone —
//! work with a live audience is never abandoned. The handler observes
//! its token between job items, so an abandoned computation stops within
//! one item and answers a structured 503 (dropped by the slot-generation
//! guard if nobody is left to read it).

use crate::api::{self, AppState, SimRequest};
use crate::conn::ParsedRequest;
use crate::event_loop::{LoopMsg, Mailbox};
use crate::http::{self, HttpRequest, HttpResponse};
use arrayflex::sa_sim::Dataflow;
use arrayflex::ParallelExecutor;
use gemm::CancelToken;
use std::collections::hash_map::Entry;
use std::collections::HashMap;
use std::panic::{catch_unwind, AssertUnwindSafe};
use std::sync::{Arc, Mutex};
use std::time::{Duration, Instant};

/// Reason a compute token carries when every waiting client disconnected.
pub(crate) const DISCONNECT_REASON: &str = "every waiting client disconnected";

/// A response shared between a singleflight leader and its waiters.
#[derive(Debug, Clone)]
pub(crate) struct SharedResponse {
    /// Status code.
    pub status: u16,
    /// `Content-Type` of the body.
    pub content_type: &'static str,
    /// The response body, shared across every coalesced delivery.
    pub body: Arc<Vec<u8>>,
    /// Extra response header lines (CRLF-terminated, e.g. `Retry-After`
    /// on sheds); `""` for most responses.
    pub extra_headers: &'static str,
}

impl From<HttpResponse> for SharedResponse {
    fn from(response: HttpResponse) -> Self {
        Self {
            status: response.status,
            content_type: response.content_type,
            body: Arc::new(response.body),
            extra_headers: "",
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

/// The delivery address and accounting context of one parked request.
#[derive(Debug)]
struct Waiter {
    loop_id: usize,
    token: usize,
    generation: u64,
    seq: u64,
    close_after: bool,
    route: &'static str,
    started: Instant,
    /// `true` for requests that coalesced onto another computation (the
    /// leader itself is delivered with `coalesced: false`).
    coalesced: bool,
}

/// Identity of one in-flight coalescable computation.
#[derive(Debug, Clone, PartialEq, Eq, Hash)]
struct FlightKey {
    path: String,
    body: Vec<u8>,
}

/// Array geometry a `/v1/simulate` request runs on: `(rows, cols, k,
/// dataflow)`. Requests sharing one can share a pooled-array batch.
type BatchKey = (u32, u32, u32, Dataflow);

/// One gather-bucket member: the flight it leads, the decoded request
/// the batch leader will run, and the flight's compute token.
type GatherEntry = (FlightKey, Waiter, SimRequest, CancelToken);

/// One in-flight coalescable computation: its audience and the token its
/// computation observes.
#[derive(Debug)]
struct Flight {
    /// Waiters parked behind the leader.
    waiters: Vec<Waiter>,
    /// Token the computation runs under; fired (with
    /// [`DISCONNECT_REASON`]) once the last waiting client disconnects.
    compute: CancelToken,
    /// The leader's delivery address: `(loop_id, token, generation)`.
    leader: (usize, usize, u64),
    /// Whether the leader's own connection has closed.
    leader_gone: bool,
}

/// The singleflight table and simulate gather buckets.
#[derive(Debug)]
pub(crate) struct Admission {
    /// In-flight computations: key -> the flight behind the leader.
    flights: Mutex<HashMap<FlightKey, Flight>>,
    /// Open gather buckets: batch key -> flights waiting for the batch
    /// leader to run them.
    gather: Mutex<HashMap<BatchKey, Vec<GatherEntry>>>,
    window: Duration,
}

/// Outcome of entering the singleflight table.
enum Entered {
    /// This request leads the computation; the waiter is handed back.
    Lead(Waiter),
    /// An identical computation is already in flight; the waiter was
    /// parked behind its leader.
    Coalesced,
}

impl Admission {
    pub(crate) fn new(window: Duration) -> Self {
        Self {
            flights: Mutex::new(HashMap::new()),
            gather: Mutex::new(HashMap::new()),
            window,
        }
    }

    fn enter(&self, key: FlightKey, waiter: Waiter, compute: &CancelToken) -> Entered {
        // All four table locks are poison-tolerant: handlers run under
        // `catch_unwind`, and a caught panic must not convert every later
        // request into a second panic (the tables' invariants are
        // per-entry and survive an unwound leader — `settle` still runs).
        let mut flights = self.flights.lock().unwrap_or_else(|e| e.into_inner());
        match flights.entry(key) {
            Entry::Occupied(mut entry) => {
                entry.get_mut().waiters.push(waiter);
                Entered::Coalesced
            }
            Entry::Vacant(entry) => {
                entry.insert(Flight {
                    waiters: Vec::new(),
                    compute: compute.clone(),
                    leader: (waiter.loop_id, waiter.token, waiter.generation),
                    leader_gone: false,
                });
                Entered::Lead(waiter)
            }
        }
    }

    /// Closes one flight, returning the waiters its leader must deliver
    /// the shared response to.
    fn complete(&self, key: &FlightKey) -> Vec<Waiter> {
        self.flights
            .lock()
            .unwrap_or_else(|e| e.into_inner())
            .remove(key)
            .map(|flight| flight.waiters)
            .unwrap_or_default()
    }

    /// Detaches one closed connection from every in-flight computation.
    /// Called by the owning event loop when a connection dies with
    /// requests outstanding. A flight whose last waiting client (leader
    /// included) is gone has its compute token fired: nobody is left to
    /// read the response, so the handler stops at its next job-item
    /// check instead of finishing work it cannot deliver.
    pub(crate) fn disconnected(&self, loop_id: usize, token: usize, generation: u64) {
        let address = (loop_id, token, generation);
        let mut flights = self.flights.lock().unwrap_or_else(|e| e.into_inner());
        for flight in flights.values_mut() {
            if flight.leader == address {
                flight.leader_gone = true;
            }
            flight
                .waiters
                .retain(|w| (w.loop_id, w.token, w.generation) != address);
            if flight.leader_gone && flight.waiters.is_empty() && !flight.compute.cancel_requested()
            {
                flight.compute.cancel(DISCONNECT_REASON);
            }
        }
    }

    /// Parks one flight into its gather bucket. `true` when this call
    /// opened the bucket (the caller becomes the batch leader and must
    /// sleep the window, then [`Admission::take_batch`]).
    fn join_gather(&self, batch_key: BatchKey, item: GatherEntry) -> bool {
        let mut gather = self.gather.lock().unwrap_or_else(|e| e.into_inner());
        match gather.entry(batch_key) {
            Entry::Occupied(mut entry) => {
                entry.get_mut().push(item);
                false
            }
            Entry::Vacant(entry) => {
                entry.insert(vec![item]);
                true
            }
        }
    }

    /// Takes the gathered batch (leader's own flight included).
    fn take_batch(&self, batch_key: BatchKey) -> Vec<GatherEntry> {
        self.gather
            .lock()
            .unwrap_or_else(|e| e.into_inner())
            .remove(&batch_key)
            .unwrap_or_default()
    }
}

/// Routes whose POSTs may coalesce (pure functions of the request body).
fn coalescable(method: &str, route: &str) -> bool {
    method == "POST" && matches!(route, "/v1/plan" | "/v1/sweep" | "/v1/simulate")
}

fn waiter_of(job: &Job, route: &'static str) -> Waiter {
    Waiter {
        loop_id: job.loop_id,
        token: job.token,
        generation: job.generation,
        seq: job.seq,
        close_after: job.request.close_after,
        route,
        started: job.started,
        coalesced: false,
    }
}

/// Runs one job end to end: admission, computation, delivery. Called by
/// the handler worker threads.
pub(crate) fn handle_job(
    state: &AppState,
    admission: &Admission,
    sinks: &[Arc<Mailbox>],
    job: Job,
) {
    let route = api::route_label(&job.request.path);
    let waiter = waiter_of(&job, route);

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
            let mut response = SharedResponse::from(HttpResponse::error(
                503,
                "request deadline expired before processing",
            ));
            response.extra_headers = http::RETRY_AFTER_HEADER;
            deliver(
                state,
                sinks,
                waiter,
                &response,
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

    if !coalescable(&request.method, route) {
        let (response, trace) = guarded_handle(state, &request, &job.cancel, tenant.as_deref());
        let response = finish(state, &job.cancel, response);
        deliver(state, sinks, waiter, &response, trace);
        return;
    }

    // The computation's own token, distinct from the leader's
    // per-connection token: a leader disconnecting must not abandon work
    // other coalesced clients still wait for, so only
    // `Admission::disconnected` — observing the whole audience — fires
    // it. The deadline is the leader's; waiters that coalesced later
    // inherit it (conservative: they queued no earlier than the leader
    // plus the coalescing window).
    let compute = CancelToken::with_deadline_opt(
        state
            .request_deadline()
            .map(|deadline| job.started + deadline),
    );
    let key = FlightKey {
        path: request.path.clone(),
        body: request.body.clone(),
    };
    let leader = match admission.enter(key.clone(), waiter, &compute) {
        // An identical computation is in flight; its leader delivers.
        Entered::Coalesced => return,
        Entered::Lead(waiter) => waiter,
    };

    // Gather window: batch same-configuration simulate requests. Bodies
    // that fail to decode fall through to the plain handler path so error
    // responses stay byte-identical to the unbatched server.
    if route == "/v1/simulate" && !admission.window.is_zero() {
        if let Some(sim) = try_decode_sim(&request.body) {
            if admission.join_gather(sim.batch_key(), (key, leader, sim, compute)) {
                std::thread::sleep(admission.window);
                run_batch(
                    state,
                    admission,
                    sinks,
                    admission.take_batch(sim.batch_key()),
                );
            }
            // Not the batch leader: the leader runs (and delivers) this
            // flight when its window closes.
            return;
        }
    }

    let (response, trace) = guarded_handle(state, &request, &compute, tenant.as_deref());
    let response = finish(state, &compute, response);
    settle(state, admission, sinks, &key, leader, response, trace);
}

/// Runs the handler under `catch_unwind`: a panicking handler must cost
/// exactly one structured 500 — never the worker thread, and never (via
/// singleflight) the waiters parked behind the leader, whose delivery
/// depends on `settle` running after this returns.
fn guarded_handle(
    state: &AppState,
    request: &HttpRequest,
    cancel: &CancelToken,
    tenant: Option<&str>,
) -> (HttpResponse, api::RequestTrace) {
    catch_unwind(AssertUnwindSafe(|| {
        api::handle_request(state, request, cancel, tenant)
    }))
    .unwrap_or_else(|_| {
        state.metrics().note_panic();
        (
            HttpResponse::error(500, "internal error"),
            api::RequestTrace::default(),
        )
    })
}

/// Post-handler accounting shared by every computation path: backoff
/// hints (`Retry-After`) on 429/503, and the cancellation counter when a
/// 503 came from the request's token firing (cause `"disconnect"` when a
/// closed connection fired it, `"deadline"` when the armed deadline
/// passed mid-handler).
fn finish(state: &AppState, token: &CancelToken, response: HttpResponse) -> SharedResponse {
    let mut shared = SharedResponse::from(response);
    if matches!(shared.status, 429 | 503) {
        shared.extra_headers = http::RETRY_AFTER_HEADER;
    }
    if shared.status == 503 && token.is_cancelled() {
        let cause = if token.cancel_requested() {
            "disconnect"
        } else {
            "deadline"
        };
        state.metrics().note_cancelled(cause);
    }
    shared
}

/// Decodes a simulate body the way the handler would; `None` routes the
/// request down the plain (unbatched) path.
fn try_decode_sim(body: &[u8]) -> Option<SimRequest> {
    let text = std::str::from_utf8(body).ok()?;
    let value = serde_json::from_str(text).ok()?;
    api::decode_simulate(&value).ok()
}

/// Runs one gathered simulate batch through `ParallelExecutor`, then
/// settles every member flight.
fn run_batch(
    state: &AppState,
    admission: &Admission,
    sinks: &[Arc<Mailbox>],
    batch: Vec<GatherEntry>,
) {
    if batch.is_empty() {
        return;
    }
    state.metrics().note_sim_batch(batch.len() as u64);
    let mut addresses = Vec::with_capacity(batch.len());
    let mut sims = Vec::with_capacity(batch.len());
    for (key, waiter, sim, token) in batch {
        addresses.push((key, waiter));
        sims.push((sim, token));
    }
    let threads = sims
        .len()
        .min(std::thread::available_parallelism().map_or(1, std::num::NonZeroUsize::get));
    // Same isolation as `guarded_handle`, per batch member: one poisoned
    // simulate body must not sink the other members' responses. Each
    // member runs under its own flight's compute token, so a batch entry
    // whose whole audience disconnected settles as a (dropped) 503
    // without stalling the rest of the batch.
    let responses = ParallelExecutor::new(threads).run(sims, |(sim, token)| {
        catch_unwind(AssertUnwindSafe(|| {
            let response = api::simulate_response(state, sim, &token);
            finish(state, &token, response)
        }))
        .unwrap_or_else(|_| {
            state.metrics().note_panic();
            SharedResponse::from(HttpResponse::error(500, "internal error"))
        })
    });
    for ((key, waiter), response) in addresses.into_iter().zip(responses) {
        settle(
            state,
            admission,
            sinks,
            &key,
            waiter,
            response,
            api::RequestTrace::default(),
        );
    }
}

/// Closes a flight and delivers the shared response to its leader and
/// every coalesced waiter.
fn settle(
    state: &AppState,
    admission: &Admission,
    sinks: &[Arc<Mailbox>],
    key: &FlightKey,
    leader: Waiter,
    response: SharedResponse,
    trace: api::RequestTrace,
) {
    let waiters = admission.complete(key);
    deliver(state, sinks, leader, &response, trace);
    for mut waiter in waiters {
        waiter.coalesced = true;
        // Coalesced requests never consulted the cache themselves.
        deliver(
            state,
            sinks,
            waiter,
            &response,
            api::RequestTrace::default(),
        );
    }
}

/// Records one request's metrics/log line and mails its completion back
/// to the owning event loop.
fn deliver(
    state: &AppState,
    sinks: &[Arc<Mailbox>],
    waiter: Waiter,
    response: &SharedResponse,
    trace: api::RequestTrace,
) {
    let latency = waiter.started.elapsed();
    state
        .metrics()
        .observe(waiter.route, response.status, latency);
    if waiter.coalesced {
        state.metrics().note_coalesced(waiter.route);
    }
    if state.log_requests() {
        println!(
            "{}",
            http::log_line(waiter.route, response.status, latency, trace)
        );
    }
    sinks[waiter.loop_id].push(LoopMsg::Complete(Completion {
        token: waiter.token,
        generation: waiter.generation,
        seq: waiter.seq,
        response: response.clone(),
        close_after: waiter.close_after,
    }));
}

#[cfg(test)]
mod tests {
    use super::*;

    fn waiter(loop_id: usize, token: usize) -> Waiter {
        Waiter {
            loop_id,
            token,
            generation: 1,
            seq: 0,
            close_after: false,
            route: "/v1/sweep",
            started: Instant::now(),
            coalesced: false,
        }
    }

    fn key() -> FlightKey {
        FlightKey {
            path: "/v1/sweep".to_owned(),
            body: b"{}".to_vec(),
        }
    }

    #[test]
    fn compute_token_fires_only_when_the_last_waiter_disconnects() {
        let admission = Admission::new(Duration::ZERO);
        let compute = CancelToken::new();
        let lead = admission.enter(key(), waiter(0, 7), &compute);
        assert!(matches!(lead, Entered::Lead(_)));
        let coalesced = admission.enter(key(), waiter(0, 9), &CancelToken::new());
        assert!(matches!(coalesced, Entered::Coalesced));

        // The leader disconnects; a coalesced waiter still listens.
        admission.disconnected(0, 7, 1);
        assert!(!compute.is_cancelled(), "cancelled with a live waiter");

        // An unrelated connection closing changes nothing.
        admission.disconnected(0, 99, 1);
        assert!(!compute.is_cancelled());

        // The last waiter disconnects: the computation is abandoned.
        admission.disconnected(0, 9, 1);
        assert!(compute.cancel_requested());
        assert_eq!(compute.reason().as_deref(), Some(DISCONNECT_REASON));

        // The flight still settles normally for the (dropped) delivery.
        assert_eq!(admission.complete(&key()).len(), 0);
    }

    #[test]
    fn a_disconnected_waiter_detaches_without_cancelling() {
        let admission = Admission::new(Duration::ZERO);
        let compute = CancelToken::new();
        assert!(matches!(
            admission.enter(key(), waiter(0, 7), &compute),
            Entered::Lead(_)
        ));
        assert!(matches!(
            admission.enter(key(), waiter(0, 9), &CancelToken::new()),
            Entered::Coalesced
        ));
        // The waiter leaves; the leader still wants the response.
        admission.disconnected(0, 9, 1);
        assert!(!compute.is_cancelled());
        assert_eq!(admission.complete(&key()).len(), 0);
    }

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
        assert_eq!(shared.extra_headers, http::RETRY_AFTER_HEADER);
        assert_eq!(state.metrics().cancelled("disconnect"), 1);
        // A plain 200 through the same path records nothing.
        let ok = finish(
            &state,
            &CancelToken::new(),
            HttpResponse::json(b"{}".to_vec()),
        );
        assert_eq!(ok.extra_headers, "");
        assert_eq!(state.metrics().total_cancelled(), 1);
    }
}
