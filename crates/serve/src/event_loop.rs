//! The keep-alive event-loop serving path.
//!
//! `N` event-loop threads each own a [`crate::poll::Poller`] and a set of
//! non-blocking connections; loop 0 additionally owns the listener.
//! Loops do no application work: they read bytes, run the incremental
//! parser ([`crate::conn::RequestParser`]), and hand complete requests to
//! a shared handler worker pool as [`Job`]s. A worker runs each job under
//! its request's own cancellation token ([`crate::worker`]) and mails the
//! finished [`Completion`] back to the owning loop's [`Mailbox`], which
//! wakes the loop through its [`crate::poll::Waker`].
//!
//! Per-connection invariants:
//!
//! * **Pipelining**: requests are parsed ahead (up to [`MAX_PIPELINED`]
//!   in flight) but responses are written strictly in arrival order; a
//!   `BTreeMap` keyed by sequence number reorders out-of-order
//!   completions.
//! * **Backpressure**: a connection whose write queue crosses
//!   [`crate::conn::WRITE_HIGH_WATERMARK`] (slow reader) or whose
//!   pipeline is full stops being read until it drains below
//!   [`crate::conn::WRITE_LOW_WATERMARK`] — memory per connection stays
//!   bounded no matter how the peer behaves.
//! * **Deadlines**: a hashed timer wheel ([`crate::conn::TimerWheel`])
//!   closes connections idle past `ServerConfig::read_timeout`. Progress
//!   in either direction (bytes read or bytes flushed) resets the
//!   deadline, so slowloris senders and stalled readers are both evicted
//!   while active connections are untouched. Connections with requests
//!   in flight are never idle-closed.
//! * **Graceful shutdown**: a stopping loop closes the listener, lets
//!   mid-request connections finish their request, flushes every write
//!   queue, and exits once the last connection drains.

use crate::api::{self, AppState};
use crate::conn::{
    FaultyStream, FlushProgress, Parsed, ParsedRequest, RecvBuffer, RequestParser, TimerWheel,
    WriteQueue, TIMER_TICK_MS,
};
use crate::fault::{FaultPlan, FaultyPoller};
use crate::http::{log_line, render_head, resolve_threads, HttpResponse, ServerConfig};
use crate::poll::{self, Event, Interest, Poller};
use crate::worker::{self, Completion, Job, SharedResponse};
use gemm::CancelToken;
use std::collections::{BTreeMap, VecDeque};
use std::io::{self, Read};
use std::net::{TcpListener, TcpStream};
use std::os::fd::AsRawFd;
use std::panic::{catch_unwind, AssertUnwindSafe};
use std::sync::atomic::{AtomicBool, AtomicUsize, Ordering};
use std::sync::mpsc::{self, Receiver, Sender};
use std::sync::{Arc, Mutex};
use std::thread::JoinHandle;
use std::time::{Duration, Instant};

/// Maximum requests a single connection may have in flight (parsed but
/// not yet responded); parsing pauses beyond this.
pub(crate) const MAX_PIPELINED: usize = 64;

/// Per-`service` read budget: how many bytes one connection may pull off
/// the socket before the loop moves on (fairness under pipelining floods).
const READ_BUDGET: usize = 256 * 1024;

/// Poller token of the listener (loop 0 only).
const LISTENER: usize = 0;
/// Poller token of the mailbox waker.
const WAKE: usize = 1;
/// First token available to connections; token = slot index + this.
const CONN_BASE: usize = 2;

/// How long the accept loop pauses after a persistent accept error
/// (EMFILE-class fd exhaustion). Level-triggered readiness would refire
/// the listener every poll otherwise — a hot spin that starves live
/// connections exactly when the process is already resource-starved.
const ACCEPT_BACKOFF_MS: u64 = 100;

/// Messages other threads push at an event loop.
#[derive(Debug)]
pub(crate) enum LoopMsg {
    /// A freshly accepted connection to adopt.
    Conn(TcpStream),
    /// A finished response for one of this loop's connections.
    Complete(Completion),
}

/// A loop's inbound queue plus the waker that gets its attention.
#[derive(Debug)]
pub(crate) struct Mailbox {
    queue: Mutex<VecDeque<LoopMsg>>,
    waker: poll::Waker,
}

impl Mailbox {
    fn new(waker: poll::Waker) -> Self {
        Self {
            queue: Mutex::new(VecDeque::new()),
            waker,
        }
    }

    /// Enqueues a message, waking the loop only on the empty→non-empty
    /// transition (the loop drains the whole queue per wake).
    ///
    /// Poison-tolerant: a panic caught elsewhere (handlers run under
    /// `catch_unwind`) must never wedge completion delivery — a wedged
    /// mailbox is a deadlocked connection.
    pub(crate) fn push(&self, msg: LoopMsg) {
        let was_empty = {
            let mut queue = self.queue.lock().unwrap_or_else(|e| e.into_inner());
            let was_empty = queue.is_empty();
            queue.push_back(msg);
            was_empty
        };
        if was_empty {
            self.waker.wake();
        }
    }

    fn drain(&self) -> VecDeque<LoopMsg> {
        std::mem::take(&mut *self.queue.lock().unwrap_or_else(|e| e.into_inner()))
    }
}

/// Handles `serve()` needs to own: loop + worker threads and the wakers
/// that interrupt a blocked `poll` on shutdown.
pub(crate) struct EventParts {
    pub threads: Vec<JoinHandle<()>>,
    pub wakers: Vec<poll::Waker>,
}

/// One response queued for in-order delivery on a connection.
#[derive(Debug)]
struct Delivery {
    response: SharedResponse,
    close_after: bool,
}

/// State of one live connection.
struct Conn {
    stream: TcpStream,
    buffer: RecvBuffer,
    parser: RequestParser,
    writes: WriteQueue,
    /// Finished responses waiting for their turn (keyed by sequence).
    pending: BTreeMap<u64, Delivery>,
    /// Sequence number the next parsed request receives.
    next_seq: u64,
    /// Sequence number of the next response to write.
    next_to_send: u64,
    /// Requests handed to the worker pool and not yet completed.
    in_flight: usize,
    /// No further requests will be parsed; close once everything drains.
    close_pending: bool,
    /// The peer half-closed (or the socket errored); finish writing what
    /// is owed, then close.
    peer_closed: bool,
    /// Reading is paused for backpressure (write queue over the high
    /// watermark or pipeline full).
    paused: bool,
    /// Interest currently registered with the poller.
    interest: Interest,
    /// Milliseconds-since-epoch of the last byte moved in either
    /// direction; the idle deadline measures from here.
    last_progress_ms: u64,
    /// Cancellation tokens of the connection's in-flight requests, keyed
    /// by sequence. Fired if the connection closes before the response
    /// lands, so abandoned compute stops at its next job-item boundary.
    cancels: BTreeMap<u64, CancelToken>,
}

/// A connection slot; the generation guards stale completions after the
/// slot is reused.
struct Slot {
    generation: u64,
    conn: Option<Conn>,
}

/// Everything one event-loop thread owns.
struct EventLoop {
    id: usize,
    poller: Box<dyn Poller>,
    wake_rx: poll::WakeReceiver,
    mailboxes: Vec<Arc<Mailbox>>,
    mailbox: Arc<Mailbox>,
    listener: Option<TcpListener>,
    slots: Vec<Slot>,
    free: Vec<usize>,
    live: usize,
    /// Round-robin cursor for distributing accepted connections.
    rr: usize,
    job_tx: Sender<Job>,
    state: Arc<AppState>,
    stop: Arc<AtomicBool>,
    stopping: bool,
    wheel: TimerWheel,
    idle_ms: u64,
    epoch: Instant,
    /// Parsed requests sitting in the worker queue, shared with the
    /// workers (which decrement on pickup); the shed decision reads it.
    queue_depth: Arc<AtomicUsize>,
    /// `ServerConfig::queue_limit`; `0` disables shedding.
    queue_limit: usize,
    /// Active fault-injection plan (`ServerConfig::faults`).
    faults: Option<Arc<FaultPlan>>,
    /// While `Some`, accepting is paused (listener deregistered) until
    /// this `now_ms` deadline after a persistent accept error.
    accept_resume_at: Option<u64>,
}

/// Spawns the event loops and the handler worker pool.
pub(crate) fn start(
    listener: TcpListener,
    state: Arc<AppState>,
    stop: Arc<AtomicBool>,
    config: &ServerConfig,
) -> io::Result<EventParts> {
    listener.set_nonblocking(true)?;
    let nloops = resolve_threads(config.event_loops);
    let nworkers = resolve_threads(config.threads);
    let queue_depth = Arc::new(AtomicUsize::new(0));
    let faults = config.faults.clone().map(|fc| {
        let plan = Arc::new(FaultPlan::new(fc));
        // Replayability contract: every chaotic run prints the seed that
        // reproduces its exact fault schedule.
        eprintln!("serve: fault injection active, seed {}", plan.seed());
        plan
    });

    let mut pollers = Vec::with_capacity(nloops);
    let mut mailboxes = Vec::with_capacity(nloops);
    let mut wakers = Vec::with_capacity(nloops);
    for _ in 0..nloops {
        let (waker, wake_rx) = poll::waker_pair()?;
        wakers.push(waker.clone());
        mailboxes.push(Arc::new(Mailbox::new(waker)));
        pollers.push((poll::new_poller()?, wake_rx));
    }

    let (job_tx, job_rx): (Sender<Job>, Receiver<Job>) = mpsc::channel();
    let job_rx = Arc::new(Mutex::new(job_rx));

    let mut threads = Vec::with_capacity(nloops + nworkers);
    for worker in 0..nworkers {
        let state = Arc::clone(&state);
        let sinks = mailboxes.clone();
        let job_rx = Arc::clone(&job_rx);
        let queue_depth = Arc::clone(&queue_depth);
        threads.push(
            std::thread::Builder::new()
                .name(format!("serve-worker-{worker}"))
                .spawn(move || loop {
                    // Holding the lock only across `recv` keeps workers
                    // independent; the channel closing (all loops gone)
                    // ends the worker. Poison-tolerant: a panic between
                    // `recv` and the catch_unwind below must not take the
                    // whole pool down with it.
                    let job = match job_rx.lock().unwrap_or_else(|e| e.into_inner()).recv() {
                        Ok(job) => job,
                        Err(_) => break,
                    };
                    queue_depth.fetch_sub(1, Ordering::Relaxed);
                    // Backstop panic isolation: `handle_job` guards the
                    // handler call itself (so the client gets a
                    // structured 500), but if anything else on the worker
                    // path panics the worker thread must survive — a dead
                    // worker is permanently lost capacity.
                    if catch_unwind(AssertUnwindSafe(|| {
                        worker::handle_job(&state, &sinks, job);
                    }))
                    .is_err()
                    {
                        state.metrics().note_panic();
                    }
                })
                .expect("spawn worker thread"),
        );
    }

    let mut listener = Some(listener);
    for (id, (poller, wake_rx)) in pollers.into_iter().enumerate() {
        let poller: Box<dyn Poller> = match &faults {
            Some(plan) => Box::new(FaultyPoller::new(poller, Arc::clone(plan))),
            None => poller,
        };
        let mut event_loop = EventLoop {
            id,
            poller,
            wake_rx,
            mailboxes: mailboxes.clone(),
            mailbox: Arc::clone(&mailboxes[id]),
            listener: if id == 0 { listener.take() } else { None },
            slots: Vec::new(),
            free: Vec::new(),
            live: 0,
            rr: 0,
            job_tx: job_tx.clone(),
            state: Arc::clone(&state),
            stop: Arc::clone(&stop),
            stopping: false,
            wheel: TimerWheel::new(),
            idle_ms: idle_ms_of(config.read_timeout),
            epoch: Instant::now(),
            queue_depth: Arc::clone(&queue_depth),
            queue_limit: config.queue_limit,
            faults: faults.clone(),
            accept_resume_at: None,
        };
        event_loop
            .poller
            .register(event_loop.wake_rx.fd(), WAKE, Interest::READABLE)?;
        if let Some(listener) = &event_loop.listener {
            event_loop
                .poller
                .register(listener.as_raw_fd(), LISTENER, Interest::READABLE)?;
        }
        threads.push(
            std::thread::Builder::new()
                .name(format!("serve-loop-{id}"))
                .spawn(move || event_loop.run())
                .expect("spawn event-loop thread"),
        );
    }
    // `job_tx` clones live inside the loops; dropping the original means
    // the worker channel closes exactly when the last loop exits.
    drop(job_tx);

    Ok(EventParts { threads, wakers })
}

/// Converts the configured read timeout into the idle deadline; a zero
/// timeout disables idle closing.
fn idle_ms_of(read_timeout: Duration) -> u64 {
    let ms = u64::try_from(read_timeout.as_millis()).unwrap_or(u64::MAX);
    if ms == 0 {
        u64::MAX / 2
    } else {
        ms
    }
}

impl EventLoop {
    fn now_ms(&self) -> u64 {
        u64::try_from(self.epoch.elapsed().as_millis()).unwrap_or(u64::MAX / 2)
    }

    fn run(&mut self) {
        let mut events: Vec<Event> = Vec::new();
        loop {
            if let Err(err) = self
                .poller
                .poll(&mut events, Some(Duration::from_millis(TIMER_TICK_MS)))
            {
                // A failing poller cannot make progress; drop every
                // connection rather than spin.
                eprintln!("serve: event loop {} poll failed: {err}", self.id);
                break;
            }
            for event in &events {
                match event.token {
                    LISTENER => self.accept_ready(),
                    WAKE => self.wake_rx.drain(),
                    token => self.service(token - CONN_BASE),
                }
            }
            self.maybe_resume_accept();
            self.drain_mailbox();
            if !self.stopping && self.stop.load(Ordering::SeqCst) {
                self.begin_drain();
            }
            self.expire_timers();
            if self.stopping && self.live == 0 {
                break;
            }
        }
    }

    /// Accepts every waiting connection and deals them round-robin across
    /// the loops (self included, via the mailbox for uniformity).
    ///
    /// Error classification matters here: EMFILE-class errors (fd
    /// exhaustion, out of memory) persist across retries, and with a
    /// level-triggered poller the listener stays readable the whole time —
    /// naive "log and continue" hot-spins the loop at 100% CPU exactly
    /// when the process is starved. Those errors pause accepting for
    /// [`ACCEPT_BACKOFF_MS`] instead (the kernel queues the backlog).
    /// Per-connection failures (the peer reset before we got to it) are
    /// transient and just skip to the next pending connection.
    fn accept_ready(&mut self) {
        if self.accept_resume_at.is_some() {
            return;
        }
        loop {
            let listener = match &self.listener {
                Some(listener) => listener,
                None => return,
            };
            let injected = self.faults.as_ref().and_then(|plan| plan.on_accept());
            let accepted = match injected {
                Some(err) => Err(err),
                None => listener.accept().map(|(stream, _)| stream),
            };
            match accepted {
                Ok(stream) => {
                    self.state.note_accepted();
                    self.state.metrics().note_accept_enqueued();
                    let target = self.rr % self.mailboxes.len();
                    self.rr = self.rr.wrapping_add(1);
                    self.mailboxes[target].push(LoopMsg::Conn(stream));
                }
                Err(err) if err.kind() == io::ErrorKind::WouldBlock => return,
                Err(err) if err.kind() == io::ErrorKind::Interrupted => {}
                Err(err)
                    if matches!(
                        err.kind(),
                        io::ErrorKind::ConnectionAborted | io::ErrorKind::ConnectionReset
                    ) => {}
                // Anything else — EMFILE/ENFILE have no stable ErrorKind,
                // so the persistent class is "not known-transient".
                Err(err) => {
                    self.pause_accept(&err);
                    return;
                }
            }
        }
    }

    /// Deregisters the listener and schedules a resume; see
    /// [`EventLoop::accept_ready`].
    fn pause_accept(&mut self, err: &io::Error) {
        let Some(listener) = &self.listener else {
            return;
        };
        eprintln!("serve: accept failed ({err}); pausing accepts for {ACCEPT_BACKOFF_MS}ms");
        let _ = self.poller.deregister(listener.as_raw_fd());
        self.accept_resume_at = Some(self.now_ms() + ACCEPT_BACKOFF_MS);
        self.state.metrics().note_accept_backoff();
    }

    /// Re-registers the listener once the accept backoff expires and
    /// drains whatever backlog built up during the pause.
    fn maybe_resume_accept(&mut self) {
        let Some(resume_at) = self.accept_resume_at else {
            return;
        };
        if self.now_ms() < resume_at {
            return;
        }
        self.accept_resume_at = None;
        let Some(listener) = &self.listener else {
            return;
        };
        if self
            .poller
            .register(listener.as_raw_fd(), LISTENER, Interest::READABLE)
            .is_err()
        {
            // Registration itself failing is the same resource pressure;
            // back off again rather than losing the listener for good.
            self.accept_resume_at = Some(self.now_ms() + ACCEPT_BACKOFF_MS);
            return;
        }
        self.accept_ready();
    }

    fn drain_mailbox(&mut self) {
        for msg in self.mailbox.drain() {
            match msg {
                LoopMsg::Conn(stream) => self.adopt(stream),
                LoopMsg::Complete(completion) => self.apply_completion(completion),
            }
        }
    }

    /// Registers a freshly accepted connection with this loop.
    fn adopt(&mut self, stream: TcpStream) {
        self.state.metrics().note_accept_dequeued();
        if self.stopping {
            // Accepted before the stop flag was observed; turn it away.
            return;
        }
        if stream.set_nonblocking(true).is_err() {
            return;
        }
        let _ = stream.set_nodelay(true);
        let index = match self.free.pop() {
            Some(index) => index,
            None => {
                self.slots.push(Slot {
                    generation: 0,
                    conn: None,
                });
                self.slots.len() - 1
            }
        };
        let now = self.now_ms();
        let conn = Conn {
            stream,
            buffer: RecvBuffer::new(),
            parser: RequestParser::new(self.state.max_body_bytes()),
            writes: WriteQueue::new(),
            pending: BTreeMap::new(),
            next_seq: 0,
            next_to_send: 0,
            in_flight: 0,
            close_pending: false,
            peer_closed: false,
            paused: false,
            interest: Interest::READABLE,
            last_progress_ms: now,
            cancels: BTreeMap::new(),
        };
        let token = index + CONN_BASE;
        if self
            .poller
            .register(conn.stream.as_raw_fd(), token, Interest::READABLE)
            .is_err()
        {
            self.free.push(index);
            return;
        }
        let generation = self.slots[index].generation;
        self.slots[index].conn = Some(conn);
        self.live += 1;
        self.state.metrics().note_connection_opened();
        self.wheel
            .arm(token, generation, TimerWheel::tick_of(now + self.idle_ms));
        self.service(index);
    }

    /// Queues a finished response onto its connection (dropping it if the
    /// connection died and the slot was reused).
    fn apply_completion(&mut self, completion: Completion) {
        let Some(index) = completion.token.checked_sub(CONN_BASE) else {
            return;
        };
        let Some(slot) = self.slots.get_mut(index) else {
            return;
        };
        if slot.generation != completion.generation {
            return;
        }
        let Some(conn) = slot.conn.as_mut() else {
            return;
        };
        conn.in_flight = conn.in_flight.saturating_sub(1);
        conn.cancels.remove(&completion.seq);
        if completion.close_after {
            conn.close_pending = true;
        }
        conn.pending.insert(
            completion.seq,
            Delivery {
                response: completion.response,
                close_after: completion.close_after,
            },
        );
        self.service(index);
    }

    /// One full service pass over a connection: read, parse/dispatch,
    /// stage and flush responses, update interest, maybe close.
    fn service(&mut self, index: usize) {
        if self.service_inner(index) {
            self.close(index);
        }
    }

    /// The service pass proper; `true` means the connection must close
    /// (done by the caller, outside this function's borrows).
    fn service_inner(&mut self, index: usize) -> bool {
        let now = self.now_ms();
        let Some(slot) = self.slots.get_mut(index) else {
            return false;
        };
        let Some(conn) = slot.conn.as_mut() else {
            return false;
        };
        let generation = slot.generation;
        let token = index + CONN_BASE;

        conn.recompute_pause();

        // --- read ---
        if conn.wants_read() {
            let mut scratch = [0_u8; 16 * 1024];
            let mut read = 0;
            let mut source = FaultyStream::new(&conn.stream, self.faults.as_deref());
            loop {
                match source.read(&mut scratch) {
                    Ok(0) => {
                        conn.peer_closed = true;
                        break;
                    }
                    Ok(n) => {
                        conn.buffer.extend(&scratch[..n]);
                        conn.last_progress_ms = now;
                        read += n;
                        if read >= READ_BUDGET {
                            break;
                        }
                        // A short read drained the socket in practice;
                        // skip the WouldBlock round trip. The poller is
                        // level-triggered, so any bytes that did remain
                        // (or arrive later) fire readiness again.
                        if n < scratch.len() {
                            break;
                        }
                    }
                    Err(err) if err.kind() == io::ErrorKind::WouldBlock => break,
                    Err(err) if err.kind() == io::ErrorKind::Interrupted => {}
                    Err(_) => return true,
                }
            }
        }

        // --- parse & dispatch ---
        loop {
            if conn.close_pending {
                // A reject may still be counting skipped body bytes; feed
                // it so `skip_complete` can flip.
                if conn.parser.rejected() {
                    let _ = conn.parser.next_request(&mut conn.buffer);
                }
                break;
            }
            if conn.in_flight + conn.pending.len() >= MAX_PIPELINED {
                break;
            }
            match conn.parser.next_request(&mut conn.buffer) {
                Parsed::Request(request) => {
                    let seq = conn.next_seq;
                    conn.next_seq += 1;
                    if request.close_after {
                        conn.close_pending = true;
                    }
                    // Per-tenant admission: spend one token from the
                    // tenant's bucket before any compute — including the
                    // inline memo fast path, so a hot cached request
                    // cannot bypass the quota. Probes stay exempt: an
                    // over-quota tenant must not look unhealthy to a
                    // load balancer.
                    if let Some(quota) = self.state.tenant_quota() {
                        if !matches!(request.path.as_str(), "/healthz" | "/metrics") {
                            let tenant = request.tenant.as_deref().unwrap_or("anonymous");
                            if !quota.admit(tenant) {
                                let route = api::route_label(&request.path);
                                self.state.metrics().note_tenant_shed(tenant);
                                self.state.metrics().observe(route, 429, Duration::ZERO);
                                if self.state.log_requests() {
                                    println!(
                                        "{}",
                                        log_line(
                                            route,
                                            429,
                                            Duration::ZERO,
                                            api::RequestTrace::default(),
                                        )
                                    );
                                }
                                let response = SharedResponse::from(HttpResponse::error(
                                    429,
                                    "tenant request quota exceeded, retry after backoff",
                                ));
                                conn.pending.insert(
                                    seq,
                                    Delivery {
                                        response,
                                        close_after: request.close_after,
                                    },
                                );
                                continue;
                            }
                        }
                    }
                    // Requests that need no computation — /healthz and
                    // rendered /v1/plan memo hits — are answered on the
                    // loop thread: no worker handoff, no waker round
                    // trip. Everything else crosses to the worker pool.
                    // The handler runs under `catch_unwind` so a panic on
                    // the loop thread becomes a structured 500 instead of
                    // taking the whole loop (and every connection on it)
                    // down.
                    let inline =
                        catch_unwind(AssertUnwindSafe(|| inline_response(&self.state, &request)))
                            .unwrap_or_else(|_| {
                                self.state.metrics().note_panic();
                                Some(SharedResponse::from(HttpResponse::error(
                                    500,
                                    "internal error",
                                )))
                            });
                    if let Some(response) = inline {
                        conn.pending.insert(
                            seq,
                            Delivery {
                                response,
                                close_after: request.close_after,
                            },
                        );
                        continue;
                    }
                    // Load shedding: if the worker queue is over its
                    // bound, answer now instead of queueing work we can't
                    // serve in time.
                    if self.queue_limit != 0
                        && self.queue_depth.load(Ordering::Relaxed) >= self.queue_limit
                    {
                        let response = shed_response(&self.state, &request);
                        conn.pending.insert(
                            seq,
                            Delivery {
                                response,
                                close_after: request.close_after,
                            },
                        );
                        continue;
                    }
                    conn.in_flight += 1;
                    let started = Instant::now();
                    // Arm the request's token with the deadline now, so
                    // a long handler observes expiry mid-computation —
                    // not only at dequeue — and the loop can fire it on
                    // disconnect.
                    let cancel = CancelToken::with_deadline_opt(
                        self.state
                            .request_deadline()
                            .map(|deadline| started + deadline),
                    );
                    conn.cancels.insert(seq, cancel.clone());
                    let job = Job {
                        loop_id: self.id,
                        token,
                        generation,
                        seq,
                        request,
                        started,
                        cancel,
                    };
                    self.queue_depth.fetch_add(1, Ordering::Relaxed);
                    if self.job_tx.send(job).is_err() {
                        return true;
                    }
                }
                Parsed::Reject { response, .. } => {
                    // Framing errors never reach the workers: answer
                    // directly, in pipeline order, and close after.
                    self.state
                        .metrics()
                        .observe("unparsable", response.status, Duration::ZERO);
                    let seq = conn.next_seq;
                    conn.next_seq += 1;
                    conn.pending.insert(
                        seq,
                        Delivery {
                            response: response.into(),
                            close_after: true,
                        },
                    );
                    conn.close_pending = true;
                    break;
                }
                Parsed::NeedMore => {
                    if self.stopping && !conn.parser.mid_request(&conn.buffer) {
                        // Draining: between requests means no more will
                        // be served on this connection.
                        conn.close_pending = true;
                    }
                    break;
                }
            }
        }

        // --- stage responses in pipeline order ---
        while let Some(delivery) = conn.pending.remove(&conn.next_to_send) {
            conn.next_to_send += 1;
            // Only the final owed response may announce `connection:
            // close`; intermediate pipelined responses must keep the
            // client reading.
            let last_owed = conn.in_flight == 0 && conn.pending.is_empty();
            let keep_alive = !(delivery.close_after
                || (last_owed && (conn.close_pending || conn.peer_closed || self.stopping)));
            let head = render_head(
                delivery.response.status,
                delivery.response.content_type,
                delivery.response.body.len(),
                keep_alive,
            );
            conn.writes.push(head.into_bytes());
            conn.writes.push_shared(Arc::clone(&delivery.response.body));
        }

        // --- flush ---
        if !conn.writes.is_empty() {
            let mut sink = FaultyStream::new(&conn.stream, self.faults.as_deref());
            match conn.writes.flush_into_vectored(&mut sink) {
                Ok(FlushProgress::Drained | FlushProgress::Partial) => {
                    conn.last_progress_ms = now;
                }
                Ok(FlushProgress::Blocked) => {}
                Err(err) if err.kind() == io::ErrorKind::Interrupted => {}
                Err(_) => return true,
            }
        }

        conn.recompute_pause();

        // --- close / interest ---
        let drained = conn.writes.is_empty() && conn.pending.is_empty() && conn.in_flight == 0;
        if (conn.close_pending && drained && conn.parser.skip_complete())
            || (conn.peer_closed && drained)
        {
            return true;
        }
        let interest = Interest {
            readable: conn.wants_read(),
            writable: !conn.writes.is_empty(),
        };
        if interest.readable != conn.interest.readable
            || interest.writable != conn.interest.writable
        {
            conn.interest = interest;
            if self
                .poller
                .reregister(conn.stream.as_raw_fd(), token, interest)
                .is_err()
            {
                return true;
            }
        }
        false
    }

    /// Handles fired idle deadlines, re-arming connections that made
    /// progress (or have requests in flight) since the timer was set.
    fn expire_timers(&mut self) {
        let now = self.now_ms();
        let now_tick = now / TIMER_TICK_MS;
        for (token, generation) in self.wheel.expired(now_tick) {
            let Some(index) = token.checked_sub(CONN_BASE) else {
                continue;
            };
            let Some(slot) = self.slots.get_mut(index) else {
                continue;
            };
            if slot.generation != generation {
                continue;
            }
            let Some(conn) = slot.conn.as_ref() else {
                continue;
            };
            let deadline_tick = TimerWheel::tick_of(conn.last_progress_ms + self.idle_ms);
            if deadline_tick > now_tick {
                // Progress since arming: push the deadline out.
                self.wheel.arm(token, generation, deadline_tick);
            } else if conn.in_flight > 0 {
                // Never close under a request we owe a response to; check
                // again one idle period later.
                self.wheel
                    .arm(token, generation, TimerWheel::tick_of(now + self.idle_ms));
            } else {
                self.state.metrics().note_idle_closed();
                self.close(index);
            }
        }
    }

    /// Enters draining mode: stop accepting, let mid-request connections
    /// finish, close the rest as they drain.
    fn begin_drain(&mut self) {
        self.stopping = true;
        if let Some(listener) = self.listener.take() {
            let _ = self.poller.deregister(listener.as_raw_fd());
        }
        for index in 0..self.slots.len() {
            if self.slots[index].conn.is_some() {
                self.service(index);
            }
        }
    }

    fn close(&mut self, index: usize) {
        let Some(slot) = self.slots.get_mut(index) else {
            return;
        };
        let Some(conn) = slot.conn.take() else {
            return;
        };
        let _ = self.poller.deregister(conn.stream.as_raw_fd());
        slot.generation += 1;
        self.free.push(index);
        self.live -= 1;
        self.state.metrics().note_connection_closed();
        // The connection died owing responses: fire each in-flight
        // request's token, so work only this client waited for stops.
        for cancel in conn.cancels.values() {
            cancel.cancel(worker::DISCONNECT_REASON);
        }
    }
}

impl Conn {
    /// Whether the loop should keep pulling bytes off this connection.
    fn wants_read(&self) -> bool {
        !self.paused && !self.peer_closed && (!self.close_pending || !self.parser.skip_complete())
    }

    /// Applies the backpressure hysteresis: pause reading past the high
    /// watermark (or a full pipeline), resume below the low watermark.
    fn recompute_pause(&mut self) {
        let pipeline_full = self.in_flight + self.pending.len() >= MAX_PIPELINED;
        if self.paused {
            if self.writes.below_low_watermark() && !pipeline_full {
                self.paused = false;
            }
        } else if self.writes.over_high_watermark() || pipeline_full {
            self.paused = true;
        }
    }
}

/// Answers on the loop thread the requests that need no computation: the
/// constant `/healthz` body and `/v1/plan` requests the rendered memo
/// holds (see [`crate::rendered`]). Metrics and request logs observe these
/// exactly like worker-served responses.
fn inline_response(state: &AppState, request: &ParsedRequest) -> Option<SharedResponse> {
    let started = Instant::now();
    let (response, trace) = match (request.method.as_str(), request.path.as_str()) {
        ("GET", "/healthz") => (
            SharedResponse::from(HttpResponse::json(&b"{\"status\":\"ok\"}"[..])),
            api::RequestTrace::default(),
        ),
        ("POST", "/v1/plan") => {
            let (body, trace) = api::rendered_plan(state, &request.body)?;
            (
                SharedResponse {
                    status: 200,
                    content_type: "application/json",
                    body,
                },
                trace,
            )
        }
        _ => return None,
    };
    let route = api::route_label(&request.path);
    let latency = started.elapsed();
    state.metrics().observe(route, response.status, latency);
    if state.log_requests() {
        println!("{}", log_line(route, response.status, latency, trace));
    }
    Some(response)
}

/// Builds the overload answer for a request the worker queue cannot take:
/// a structured 503 with `Retry-After` so well-behaved clients back off
/// instead of hammering.
fn shed_response(state: &AppState, request: &ParsedRequest) -> SharedResponse {
    let route = api::route_label(&request.path);
    state.metrics().note_shed(route);
    state.metrics().observe(route, 503, Duration::ZERO);
    if state.log_requests() {
        println!(
            "{}",
            log_line(route, 503, Duration::ZERO, api::RequestTrace::default())
        );
    }
    SharedResponse::from(HttpResponse::error(
        503,
        "server overloaded, retry after backoff",
    ))
}
