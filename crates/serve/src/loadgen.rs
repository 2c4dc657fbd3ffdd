//! A loopback load generator for the planning service.
//!
//! Hammers one endpoint from a configurable number of client threads and
//! reports sustained throughput and latency percentiles, with connection
//! setup and request service measured separately. Three connection modes
//! ([`ConnectionMode`]) cover the serving spectrum: one connection per
//! request (`close`, exactly like a cold external client), a persistent
//! keep-alive connection per client, and pipelined keep-alive (`N`
//! requests written back to back per batch). The `loadgen` binary wraps
//! [`run`] and the serve benchmark suite ([`bench_suite`] /
//! [`compare_serve_reports`]); the integration tests use it to assert the
//! acceptance criterion of ≥ 1000 requests with zero errors.

use crate::api::{self, AppState};
use crate::client::{self, ClientResponse, PersistentClient};
use crate::http::{HttpRequest, ServerConfig};
use arrayflex::PlanCache;
use gemm::rng::SplitMix64;
use serde::{Deserialize, Serialize};
use std::io::{self, BufReader, Write};
use std::net::{SocketAddr, TcpStream};
use std::sync::atomic::{AtomicUsize, Ordering};
use std::time::{Duration, Instant};

/// How the load generator uses connections.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum ConnectionMode {
    /// One connection per request (`connection: close`), like a cold
    /// external client. Connect and request latency are reported
    /// separately.
    Close,
    /// One persistent keep-alive connection per client thread, one
    /// request in flight at a time.
    KeepAlive,
    /// Persistent connections with up to this many requests written back
    /// to back before reading the responses.
    Pipeline(usize),
}

impl ConnectionMode {
    /// A short stable label (`close`, `keepalive`, `pipeline8`) used in
    /// reports and bench names.
    #[must_use]
    pub fn label(&self) -> String {
        match self {
            Self::Close => "close".to_owned(),
            Self::KeepAlive => "keepalive".to_owned(),
            Self::Pipeline(depth) => format!("pipeline{depth}"),
        }
    }
}

/// What to send, where, and how hard.
#[derive(Debug, Clone)]
pub struct LoadgenConfig {
    /// Server address.
    pub addr: SocketAddr,
    /// Path to `POST` to (or `GET` when `body` is `None`).
    pub path: String,
    /// JSON body (`None` issues `GET` requests instead).
    pub body: Option<String>,
    /// Total requests to issue.
    pub requests: usize,
    /// Concurrent client threads.
    pub clients: usize,
    /// How connections are used (default [`ConnectionMode::Close`]).
    pub mode: ConnectionMode,
    /// When set, requests draw their body from a pool of distinct
    /// synthetic-network plan requests with zipfian popularity instead of
    /// repeating [`LoadgenConfig::body`] — so cache hit rates under
    /// realistic key skew are measured rather than assumed.
    pub zipf: Option<ZipfWorkload>,
}

impl LoadgenConfig {
    /// A plan-request load against `addr`: the default workload of the
    /// `loadgen` binary (ResNet-34 on a 128x128 array).
    #[must_use]
    pub fn plan_workload(addr: SocketAddr, requests: usize, clients: usize) -> Self {
        Self {
            addr,
            path: "/v1/plan".to_owned(),
            body: Some(r#"{"network":"resnet34","rows":128,"cols":128}"#.to_owned()),
            requests,
            clients,
            mode: ConnectionMode::Close,
            zipf: None,
        }
    }

    /// A `/v1/simulate` load against `addr`: a small seeded cycle-accurate
    /// cross-check (16x16 array, k = 2, an 8x48x24 GEMM), heavy enough to
    /// exercise the simulator pool but far below the route's size cap.
    #[must_use]
    pub fn simulate_workload(addr: SocketAddr, requests: usize, clients: usize) -> Self {
        Self {
            addr,
            path: "/v1/simulate".to_owned(),
            body: Some(r#"{"rows":16,"cols":16,"k":2,"t":8,"n":48,"m":24,"seed":7}"#.to_owned()),
            requests,
            clients,
            mode: ConnectionMode::Close,
            zipf: None,
        }
    }
}

/// A zipfian `/v1/plan` workload: a pool of distinct synthetic networks
/// whose request popularity follows Zipf(`s`), sampled deterministically
/// from `seed`.
#[derive(Debug, Clone)]
pub struct ZipfWorkload {
    /// Zipf skew exponent (`0.0` is uniform; web-like traces are ~1.0).
    pub s: f64,
    /// Number of distinct networks in the pool.
    pub pool: usize,
    /// Seed of the per-client sampling streams (client `i` samples from
    /// `SplitMix64::new(seed + i)`), so a fixed seed and client count
    /// reproduce the exact request mix.
    pub seed: u64,
    /// Array rows of every request in the pool.
    pub rows: u32,
    /// Array columns of every request in the pool.
    pub cols: u32,
}

impl ZipfWorkload {
    /// The pool of request bodies, one distinct inline synthetic network
    /// per popularity rank (rank 0 is the hottest key). Bodies depend only
    /// on `pool`/`rows`/`cols`, never on the seed.
    ///
    /// # Panics
    ///
    /// Panics if the pool is empty.
    #[must_use]
    pub fn bodies(&self) -> Vec<String> {
        assert!(self.pool > 0, "zipf workload needs a non-empty pool");
        (0..self.pool)
            .map(|index| {
                // Distinct per index (base_channels grows with the rank),
                // with some depth variety so plan sizes differ too.
                let network = cnn::models::synthetic_cnn(1 + (index % 3) as u32, 4 + index, 16);
                format!(
                    r#"{{"network":{},"rows":{},"cols":{}}}"#,
                    serde_json::to_string(&network).expect("networks serialize"),
                    self.rows,
                    self.cols
                )
            })
            .collect()
    }
}

/// Samples pool indices with Zipf(`s`) popularity: rank `r` (0-based) has
/// weight `1 / (r + 1)^s`. Sampling walks a precomputed CDF with
/// `partition_point`, so one draw is a `next_f64` plus a binary search.
#[derive(Debug, Clone)]
pub struct ZipfSampler {
    cdf: Vec<f64>,
}

impl ZipfSampler {
    /// Builds the sampler for `n` ranks with exponent `s`.
    ///
    /// # Panics
    ///
    /// Panics if `n` is zero or `s` is not finite.
    #[must_use]
    pub fn new(n: usize, s: f64) -> Self {
        assert!(n > 0, "zipf sampler needs at least one rank");
        assert!(s.is_finite(), "zipf exponent must be finite");
        let mut cdf = Vec::with_capacity(n);
        let mut total = 0.0f64;
        for rank in 1..=n {
            total += (rank as f64).powf(-s);
            cdf.push(total);
        }
        for bound in &mut cdf {
            *bound /= total;
        }
        Self { cdf }
    }

    /// Draws one rank in `0..n` from `rng`.
    #[must_use]
    pub fn sample(&self, rng: &mut SplitMix64) -> usize {
        let u = rng.next_f64();
        self.cdf
            .partition_point(|&bound| bound <= u)
            .min(self.cdf.len() - 1)
    }

    /// The probability of rank `r` (0-based).
    #[must_use]
    pub fn probability(&self, rank: usize) -> f64 {
        let below = if rank == 0 { 0.0 } else { self.cdf[rank - 1] };
        self.cdf[rank] - below
    }
}

/// Aggregated result of one load-generation run.
#[derive(Debug, Clone, Serialize)]
pub struct LoadgenReport {
    /// Requests issued.
    pub requests: usize,
    /// Requests that failed (transport error or non-200 status other
    /// than a shed).
    pub errors: usize,
    /// Requests the server shed under overload (503 with `Retry-After`):
    /// deliberate backpressure, tallied apart from errors so the
    /// overload path is regression-gated alongside latency.
    pub sheds: usize,
    /// Client threads used.
    pub clients: usize,
    /// Connection mode label (`close`, `keepalive`, `pipelineN`).
    pub mode: String,
    /// Connections opened over the run (one per request in `close` mode,
    /// roughly one per client in the persistent modes).
    pub connects: usize,
    /// Persistent connections that had to be re-opened after an error.
    pub reconnects: usize,
    /// Wall-clock duration of the whole run in seconds.
    pub elapsed_s: f64,
    /// Sustained requests per second.
    pub rps: f64,
    /// Median request latency in microseconds (excluding connection
    /// setup, which is reported separately below).
    pub p50_us: u64,
    /// 90th-percentile latency in microseconds.
    pub p90_us: u64,
    /// 99th-percentile latency in microseconds.
    pub p99_us: u64,
    /// Worst-case latency in microseconds.
    pub max_us: u64,
    /// Median connection-setup latency in microseconds.
    pub connect_p50_us: u64,
    /// 99th-percentile connection-setup latency in microseconds.
    pub connect_p99_us: u64,
    /// Worst-case connection-setup latency in microseconds.
    pub connect_max_us: u64,
}

impl LoadgenReport {
    /// Renders the report as a small human-readable table.
    #[must_use]
    pub fn text(&self) -> String {
        format!(
            "requests: {} ({} errors, {} shed), clients: {}, mode: {}\n\
             elapsed:  {:.3} s ({:.0} req/s)\n\
             latency:  p50 {} us, p90 {} us, p99 {} us, max {} us\n\
             connect:  {} opened ({} reopened), p50 {} us, p99 {} us, max {} us",
            self.requests,
            self.errors,
            self.sheds,
            self.clients,
            self.mode,
            self.elapsed_s,
            self.rps,
            self.p50_us,
            self.p90_us,
            self.p99_us,
            self.max_us,
            self.connects,
            self.reconnects,
            self.connect_p50_us,
            self.connect_p99_us,
            self.connect_max_us
        )
    }
}

/// Plan-cache counters read after a run (present when `loadgen` owned the
/// in-process server and could read its cache directly).
#[derive(Debug, Clone, Serialize)]
pub struct CacheReport {
    /// Lookups served from the cache.
    pub hits: u64,
    /// Lookups that had to plan.
    pub misses: u64,
    /// Fraction of lookups served from the cache.
    pub hit_rate: f64,
    /// Plans resident at the end of the run.
    pub entries: usize,
    /// Plans evicted by capacity pressure.
    pub evictions: u64,
}

impl CacheReport {
    /// Reads the counters of `cache` as they stand now.
    #[must_use]
    pub fn scrape(cache: &PlanCache) -> Self {
        Self {
            hits: cache.hits(),
            misses: cache.misses(),
            hit_rate: cache.hit_rate(),
            entries: cache.len(),
            evictions: cache.evictions(),
        }
    }

    /// Renders the counters as one human-readable line.
    #[must_use]
    pub fn text(&self) -> String {
        format!(
            "cache:    {} hits / {} misses ({:.1}% hit rate), {} entries, {} evictions",
            self.hits,
            self.misses,
            self.hit_rate * 100.0,
            self.entries,
            self.evictions
        )
    }
}

/// The per-endpoint reports of one `loadgen` invocation: the planning
/// route and the (pooled) cycle-accurate simulation route, so service-side
/// wins on either path show up in the same JSON document.
#[derive(Debug, Clone, Serialize)]
pub struct CombinedReport {
    /// The `/v1/plan` load.
    pub plan: LoadgenReport,
    /// The `/v1/simulate` load.
    pub simulate: LoadgenReport,
    /// Plan-cache counters of the in-process server (`None` when the load
    /// targeted a remote address).
    pub cache: Option<CacheReport>,
}

impl CombinedReport {
    /// Total failed requests across both endpoints.
    #[must_use]
    pub fn errors(&self) -> usize {
        self.plan.errors + self.simulate.errors
    }

    /// Renders both endpoint reports as human-readable tables.
    #[must_use]
    pub fn text(&self) -> String {
        let mut out = format!(
            "POST /v1/plan\n{}\nPOST /v1/simulate\n{}",
            self.plan.text(),
            self.simulate.text()
        );
        if let Some(cache) = &self.cache {
            out.push('\n');
            out.push_str(&cache.text());
        }
        out
    }
}

/// Per-client-thread tallies, merged into the final report.
#[derive(Debug, Default)]
struct ClientStats {
    latencies: Vec<u64>,
    connect_latencies: Vec<u64>,
    errors: usize,
    sheds: usize,
    connects: usize,
    reconnects: usize,
}

impl ClientStats {
    /// Tallies one decoded response: 200s record latency, shed 503s count
    /// as deliberate backpressure, everything else is an error.
    fn tally(&mut self, response: &ClientResponse, latency_us: u64) {
        if response.status == 200 {
            self.latencies.push(latency_us);
        } else if response.status == 503 && response.retry_after.is_some() {
            self.sheds += 1;
        } else {
            self.errors += 1;
        }
    }
}

impl ClientStats {
    /// Opens (or re-opens) the persistent connection, recording the
    /// connect latency; `false` when the connect itself failed.
    fn ensure_connected(&mut self, conn: &mut Option<PersistentClient>, addr: SocketAddr) -> bool {
        if conn.is_some() {
            return true;
        }
        let started = Instant::now();
        match PersistentClient::connect(addr) {
            Ok(client) => {
                self.connect_latencies.push(micros_since(started));
                if self.connects > 0 {
                    self.reconnects += 1;
                }
                self.connects += 1;
                *conn = Some(client);
                true
            }
            Err(_) => false,
        }
    }
}

fn micros_since(started: Instant) -> u64 {
    u64::try_from(started.elapsed().as_micros()).unwrap_or(u64::MAX)
}

/// One full `connection: close` round trip with connect and request
/// timed separately: `(connect_us, request_us, response)`.
fn close_request(
    addr: SocketAddr,
    path: &str,
    body: Option<&str>,
) -> io::Result<(u64, u64, ClientResponse)> {
    let connect_started = Instant::now();
    let mut stream = TcpStream::connect(addr)?;
    stream.set_read_timeout(Some(Duration::from_secs(60)))?;
    stream.set_nodelay(true)?;
    let connect_us = micros_since(connect_started);

    let request_started = Instant::now();
    let method = if body.is_some() { "POST" } else { "GET" };
    let mut head = format!("{method} {path} HTTP/1.1\r\nconnection: close\r\n");
    if let Some(body) = body {
        head.push_str(&format!(
            "content-type: application/json\r\ncontent-length: {}\r\n",
            body.len()
        ));
    }
    head.push_str("\r\n");
    stream.write_all(head.as_bytes())?;
    if let Some(body) = body {
        stream.write_all(body.as_bytes())?;
    }
    stream.flush()?;
    let response = client::read_response(&mut BufReader::new(stream))?;
    Ok((connect_us, micros_since(request_started), response))
}

/// One client thread's worth of `close`-mode requests.
fn run_close(
    config: &LoadgenConfig,
    stats: &mut ClientStats,
    claim: &impl Fn() -> bool,
    mut next_body: impl FnMut() -> Option<String>,
) {
    while claim() {
        let body = next_body();
        match close_request(config.addr, &config.path, body.as_deref()) {
            Ok((connect_us, request_us, response)) => {
                stats.connects += 1;
                stats.connect_latencies.push(connect_us);
                stats.tally(&response, request_us);
            }
            Err(_) => stats.errors += 1,
        }
    }
}

/// One client thread's worth of keep-alive requests (one in flight at a
/// time; a transport error reconnects and retries the claimed request
/// once).
fn run_keepalive(
    config: &LoadgenConfig,
    stats: &mut ClientStats,
    claim: &impl Fn() -> bool,
    mut next_body: impl FnMut() -> Option<String>,
) {
    let mut conn: Option<PersistentClient> = None;
    while claim() {
        let body = next_body();
        let method = if body.is_some() { "POST" } else { "GET" };
        let mut served = false;
        for _attempt in 0..2 {
            if !stats.ensure_connected(&mut conn, config.addr) {
                continue;
            }
            let started = Instant::now();
            match conn
                .as_mut()
                .expect("ensure_connected leaves a client")
                .request(method, &config.path, body.as_deref().map(str::as_bytes))
            {
                Ok(response) => {
                    stats.tally(&response, micros_since(started));
                    served = true;
                    break;
                }
                // The connection died under us (server idle-close racing
                // the write, mid-stream failure): reconnect and retry.
                Err(_) => conn = None,
            }
        }
        if !served {
            stats.errors += 1;
        }
    }
}

/// One client thread's worth of pipelined keep-alive batches: claim up to
/// `depth` requests, write them back to back, then read the responses in
/// order. Per-request latency is measured from the batch's first write.
fn run_pipelined(
    config: &LoadgenConfig,
    depth: usize,
    stats: &mut ClientStats,
    claim: &impl Fn() -> bool,
    mut next_body: impl FnMut() -> Option<String>,
) {
    let depth = depth.max(1);
    let mut conn: Option<PersistentClient> = None;
    loop {
        let mut bodies = Vec::with_capacity(depth);
        while bodies.len() < depth && claim() {
            bodies.push(next_body());
        }
        if bodies.is_empty() {
            return;
        }
        if !stats.ensure_connected(&mut conn, config.addr)
            && !stats.ensure_connected(&mut conn, config.addr)
        {
            stats.errors += bodies.len();
            continue;
        }
        let client = conn.as_mut().expect("ensure_connected leaves a client");
        let batch_started = Instant::now();
        let mut wrote = true;
        for body in &bodies {
            let method = if body.is_some() { "POST" } else { "GET" };
            if client
                .send(method, &config.path, body.as_deref().map(str::as_bytes))
                .is_err()
            {
                wrote = false;
                break;
            }
        }
        if !wrote {
            stats.errors += bodies.len();
            conn = None;
            continue;
        }
        for read in 0..bodies.len() {
            match client.recv() {
                Ok(response) => {
                    stats.tally(&response, micros_since(batch_started));
                }
                Err(_) => {
                    stats.errors += bodies.len() - read;
                    conn = None;
                    break;
                }
            }
        }
    }
}

/// Runs the load: `clients` threads share a global request budget and each
/// works through it in the configured [`ConnectionMode`].
///
/// A `requests` count of zero skips the load entirely and returns an
/// all-zero report (so callers can opt out of one endpoint of a combined
/// run, e.g. `loadgen --sim-requests 0`).
///
/// # Panics
///
/// Panics if `clients` is zero.
#[must_use]
pub fn run(config: &LoadgenConfig) -> LoadgenReport {
    assert!(config.clients > 0, "loadgen needs at least one client");
    if config.requests == 0 {
        return LoadgenReport {
            requests: 0,
            errors: 0,
            sheds: 0,
            clients: config.clients,
            mode: config.mode.label(),
            connects: 0,
            reconnects: 0,
            elapsed_s: 0.0,
            rps: 0.0,
            p50_us: 0,
            p90_us: 0,
            p99_us: 0,
            max_us: 0,
            connect_p50_us: 0,
            connect_p99_us: 0,
            connect_max_us: 0,
        };
    }
    // A zipfian workload pre-renders its body pool once; every client then
    // samples ranks from its own seeded stream, so the request mix is a
    // pure function of (seed, clients, requests).
    let zipf = config
        .zipf
        .as_ref()
        .map(|z| (z.bodies(), ZipfSampler::new(z.pool, z.s), z.seed));
    let remaining = AtomicUsize::new(config.requests);
    let started = Instant::now();
    let mut per_client: Vec<ClientStats> = std::thread::scope(|scope| {
        let remaining = &remaining;
        let zipf = &zipf;
        // The collect is load-bearing: every client thread must be spawned
        // before the first join, otherwise the load degenerates to one
        // sequential client at a time.
        #[allow(clippy::needless_collect)]
        let handles: Vec<_> = (0..config.clients)
            .map(|client_index| {
                scope.spawn(move || {
                    let mut rng = zipf.as_ref().map(|(_, _, seed)| {
                        SplitMix64::new(seed.wrapping_add(client_index as u64))
                    });
                    let claim = || {
                        remaining
                            .fetch_update(Ordering::Relaxed, Ordering::Relaxed, |n| {
                                n.checked_sub(1)
                            })
                            .is_ok()
                    };
                    let next_body = || match (zipf, &mut rng) {
                        (Some((bodies, sampler, _)), Some(rng)) => {
                            Some(bodies[sampler.sample(rng)].clone())
                        }
                        _ => config.body.clone(),
                    };
                    let mut stats = ClientStats::default();
                    match config.mode {
                        ConnectionMode::Close => {
                            run_close(config, &mut stats, &claim, next_body);
                        }
                        ConnectionMode::KeepAlive => {
                            run_keepalive(config, &mut stats, &claim, next_body);
                        }
                        ConnectionMode::Pipeline(depth) => {
                            run_pipelined(config, depth, &mut stats, &claim, next_body);
                        }
                    }
                    stats
                })
            })
            .collect();
        handles
            .into_iter()
            .map(|handle| handle.join().expect("loadgen client panicked"))
            .collect()
    });
    let elapsed_s = started.elapsed().as_secs_f64();

    let mut latencies: Vec<u64> = Vec::with_capacity(config.requests);
    let mut connect_latencies: Vec<u64> = Vec::new();
    let mut errors = 0usize;
    let mut sheds = 0usize;
    let mut connects = 0usize;
    let mut reconnects = 0usize;
    for stats in &mut per_client {
        latencies.append(&mut stats.latencies);
        connect_latencies.append(&mut stats.connect_latencies);
        errors += stats.errors;
        sheds += stats.sheds;
        connects += stats.connects;
        reconnects += stats.reconnects;
    }
    latencies.sort_unstable();
    connect_latencies.sort_unstable();
    let percentile = |sorted: &[u64], p: f64| -> u64 {
        if sorted.is_empty() {
            return 0;
        }
        let rank = ((sorted.len() as f64) * p).ceil() as usize;
        sorted[rank.clamp(1, sorted.len()) - 1]
    };
    LoadgenReport {
        requests: config.requests,
        errors,
        sheds,
        clients: config.clients,
        mode: config.mode.label(),
        connects,
        reconnects,
        elapsed_s,
        rps: config.requests as f64 / elapsed_s.max(f64::MIN_POSITIVE),
        p50_us: percentile(&latencies, 0.50),
        p90_us: percentile(&latencies, 0.90),
        p99_us: percentile(&latencies, 0.99),
        max_us: latencies.last().copied().unwrap_or(0),
        connect_p50_us: percentile(&connect_latencies, 0.50),
        connect_p99_us: percentile(&connect_latencies, 0.99),
        connect_max_us: connect_latencies.last().copied().unwrap_or(0),
    }
}

// ---------------------------------------------------------------------------
// Serve benchmark suite
// ---------------------------------------------------------------------------

/// Schema version of [`ServeBenchReport`]; bump on breaking changes.
pub const SERVE_BENCH_SCHEMA: u32 = 1;

/// The committed close-mode reference: `/v1/plan` RPS of the original
/// thread-per-connection server with one connection per request, measured
/// on the reference container (`EXPERIMENTS.md` §"Serving layer"). The
/// event-loop keep-alive path is gated on sustaining ≥10x this number.
pub const REFERENCE_CLOSE_RPS: f64 = 4600.0;

/// One serving benchmark: an endpoint driven in one connection mode.
#[derive(Debug, Clone, Serialize)]
pub struct ServeBenchRecord {
    /// Stable bench name (`plan_keepalive`, `simulate_close`, ...).
    pub name: String,
    /// Endpoint path the bench hits.
    pub endpoint: String,
    /// Connection mode label.
    pub mode: String,
    /// Requests issued.
    pub requests: usize,
    /// Client threads.
    pub clients: usize,
    /// Sustained requests per second (the compared quantity).
    pub rps: f64,
    /// Median request latency in microseconds.
    pub p50_us: u64,
    /// 99th-percentile request latency in microseconds.
    pub p99_us: u64,
    /// Median connection-setup latency in microseconds.
    pub connect_p50_us: u64,
    /// Failed requests (must be zero for a valid baseline).
    pub errors: usize,
    /// Requests shed under overload (503 + `Retry-After`). Should be
    /// zero in the unsaturated baseline matrix; gated by shed *rate* in
    /// the comparison so overload-path regressions fail CI.
    pub sheds: usize,
    /// `sheds / requests` — the compared overload quantity.
    pub shed_rate: f64,
}

// Hand-written so baselines committed before the shed fields existed
// still parse: absent `sheds`/`shed_rate` default to zero. (The vendored
// derive has no `#[serde(default)]`.)
impl Deserialize for ServeBenchRecord {
    fn from_value(value: &serde::Value) -> Result<Self, serde::DeError> {
        fn field<T: Deserialize>(value: &serde::Value, name: &str) -> Result<T, serde::DeError> {
            let field = value
                .get(name)
                .ok_or_else(|| serde::DeError::new(format!("missing field `{name}`")))?;
            T::from_value(field)
        }
        fn optional<T: Deserialize + Default>(
            value: &serde::Value,
            name: &str,
        ) -> Result<T, serde::DeError> {
            value
                .get(name)
                .map_or_else(|| Ok(T::default()), T::from_value)
        }
        Ok(Self {
            name: field(value, "name")?,
            endpoint: field(value, "endpoint")?,
            mode: field(value, "mode")?,
            requests: field(value, "requests")?,
            clients: field(value, "clients")?,
            rps: field(value, "rps")?,
            p50_us: field(value, "p50_us")?,
            p99_us: field(value, "p99_us")?,
            connect_p50_us: field(value, "connect_p50_us")?,
            errors: field(value, "errors")?,
            sheds: optional(value, "sheds")?,
            shed_rate: optional(value, "shed_rate")?,
        })
    }
}

/// The committed serving baseline (`BENCH_serve.json`): RPS and latency
/// percentiles per endpoint and connection mode.
#[derive(Debug, Clone, Serialize, Deserialize)]
pub struct ServeBenchReport {
    /// Schema version ([`SERVE_BENCH_SCHEMA`]).
    pub schema: u32,
    /// The benches, in matrix order.
    pub benches: Vec<ServeBenchRecord>,
}

impl ServeBenchReport {
    /// Looks a bench up by name.
    #[must_use]
    pub fn bench(&self, name: &str) -> Option<&ServeBenchRecord> {
        self.benches.iter().find(|bench| bench.name == name)
    }

    /// The keep-alive speedup over this run's own close mode on `/v1/plan`
    /// (`plan_keepalive.rps / plan_close.rps`). Informational: close mode
    /// shares the rendered-response fast path, so this understates the
    /// win over the original server — [`reference_speedup`] is the gated
    /// ratio.
    ///
    /// [`reference_speedup`]: Self::reference_speedup
    #[must_use]
    pub fn keepalive_speedup(&self) -> Option<f64> {
        let close = self.bench("plan_close")?.rps;
        let keepalive = self.bench("plan_keepalive")?.rps;
        if close > 0.0 {
            Some(keepalive / close)
        } else {
            None
        }
    }

    /// The keep-alive speedup over the committed close-mode reference
    /// (`plan_keepalive.rps` / [`REFERENCE_CLOSE_RPS`]), the headline
    /// ratio the baseline exists to defend (must stay ≥10x).
    #[must_use]
    pub fn reference_speedup(&self) -> Option<f64> {
        Some(self.bench("plan_keepalive")?.rps / REFERENCE_CLOSE_RPS)
    }
}

/// The benchmark matrix: `(name, endpoint-config, mode, full-requests,
/// quick-requests)`. Request counts are scaled so every cell runs for a
/// comparable wall-clock slice despite the ~10-50x RPS spread.
fn bench_matrix(addr: SocketAddr, quick: bool) -> Vec<(String, LoadgenConfig)> {
    let clients = 4;
    let cell =
        |name: &str, mut config: LoadgenConfig, mode: ConnectionMode, full: usize, q: usize| {
            config.requests = if quick { q } else { full };
            config.mode = mode;
            (name.to_owned(), config)
        };
    vec![
        cell(
            "plan_close",
            LoadgenConfig::plan_workload(addr, 0, clients),
            ConnectionMode::Close,
            4000,
            800,
        ),
        cell(
            "plan_keepalive",
            LoadgenConfig::plan_workload(addr, 0, clients),
            ConnectionMode::KeepAlive,
            20000,
            3000,
        ),
        cell(
            "plan_pipeline8",
            LoadgenConfig::plan_workload(addr, 0, clients),
            ConnectionMode::Pipeline(8),
            30000,
            4000,
        ),
        cell(
            "simulate_close",
            LoadgenConfig::simulate_workload(addr, 0, clients),
            ConnectionMode::Close,
            1500,
            300,
        ),
        cell(
            "simulate_keepalive",
            LoadgenConfig::simulate_workload(addr, 0, clients),
            ConnectionMode::KeepAlive,
            3000,
            600,
        ),
    ]
}

/// Runs the serving benchmark matrix against `addr` and returns the
/// report. `quick` shrinks request counts ~5-7x for CI.
#[must_use]
pub fn bench_suite(addr: SocketAddr, quick: bool) -> ServeBenchReport {
    let benches = bench_matrix(addr, quick)
        .into_iter()
        .map(|(name, config)| {
            let report = run(&config);
            ServeBenchRecord {
                name,
                endpoint: config.path,
                mode: report.mode.clone(),
                requests: report.requests,
                clients: report.clients,
                rps: report.rps,
                p50_us: report.p50_us,
                p99_us: report.p99_us,
                connect_p50_us: report.connect_p50_us,
                errors: report.errors,
                sheds: report.sheds,
                shed_rate: report.sheds as f64 / (report.requests.max(1)) as f64,
            }
        })
        .collect();
    ServeBenchReport {
        schema: SERVE_BENCH_SCHEMA,
        benches,
    }
}

/// Structural validation of a serve bench report: schema version, a
/// non-empty matrix, zero errors and positive finite RPS everywhere.
///
/// # Errors
///
/// Returns a description of the first violation.
pub fn validate_serve_report(report: &ServeBenchReport) -> Result<(), String> {
    if report.schema != SERVE_BENCH_SCHEMA {
        return Err(format!(
            "schema {} does not match expected {SERVE_BENCH_SCHEMA}",
            report.schema
        ));
    }
    if report.benches.is_empty() {
        return Err("report contains no benches".to_owned());
    }
    for bench in &report.benches {
        if bench.errors > 0 {
            return Err(format!(
                "bench {} recorded {} errors",
                bench.name, bench.errors
            ));
        }
        if !(bench.rps.is_finite() && bench.rps > 0.0) {
            return Err(format!(
                "bench {} has invalid rps {}",
                bench.name, bench.rps
            ));
        }
        if bench.requests == 0 {
            return Err(format!("bench {} issued no requests", bench.name));
        }
    }
    Ok(())
}

/// Shed-rate slack the comparison tolerates: a candidate may shed at most
/// this much more of its requests than the baseline did before it counts
/// as an overload-path regression.
pub const SHED_RATE_SLACK: f64 = 0.05;

/// Compares a current serve bench report against a committed baseline,
/// mirroring `bench_baseline --compare`: every baseline bench must still
/// exist, keep `new_rps * max_regression >= old_rps`, and keep its shed
/// rate within [`SHED_RATE_SLACK`] of the baseline's — a server that got
/// "faster" by shedding the work is a regression, not a win.
///
/// # Errors
///
/// Returns the rendered table plus the list of violations when any bench
/// regressed beyond `max_regression`, shed beyond the slack, or
/// disappeared.
pub fn compare_serve_reports(
    old: &ServeBenchReport,
    new: &ServeBenchReport,
    max_regression: f64,
) -> Result<String, String> {
    let mut lines = vec![format!(
        "{:<20} {:>12} {:>12} {:>8} {:>10} {:>10}",
        "bench", "old rps", "new rps", "ratio", "old shed", "new shed"
    )];
    let mut violations = Vec::new();
    for bench in &old.benches {
        match new.bench(&bench.name) {
            Some(candidate) => {
                let ratio = candidate.rps / bench.rps.max(f64::MIN_POSITIVE);
                lines.push(format!(
                    "{:<20} {:>12.0} {:>12.0} {:>8.2} {:>9.1}% {:>9.1}%",
                    bench.name,
                    bench.rps,
                    candidate.rps,
                    ratio,
                    bench.shed_rate * 100.0,
                    candidate.shed_rate * 100.0
                ));
                if candidate.rps * max_regression < bench.rps {
                    violations.push(format!(
                        "{}: {:.0} -> {:.0} rps ({:.2}x slowdown exceeds {max_regression}x)",
                        bench.name,
                        bench.rps,
                        candidate.rps,
                        bench.rps / candidate.rps.max(f64::MIN_POSITIVE)
                    ));
                }
                if candidate.shed_rate > bench.shed_rate + SHED_RATE_SLACK {
                    violations.push(format!(
                        "{}: shed rate {:.1}% -> {:.1}% (exceeds baseline + {:.0}% slack)",
                        bench.name,
                        bench.shed_rate * 100.0,
                        candidate.shed_rate * 100.0,
                        SHED_RATE_SLACK * 100.0
                    ));
                }
            }
            None => violations.push(format!("{}: missing from the new report", bench.name)),
        }
    }
    let table = lines.join("\n");
    if violations.is_empty() {
        Ok(table)
    } else {
        Err(format!(
            "{table}\nregressions:\n  {}",
            violations.join("\n  ")
        ))
    }
}

// ---------------------------------------------------------------------------
// Chaos mode
// ---------------------------------------------------------------------------

/// What a chaos run hits and with what client-side schedule seed.
///
/// The seed drives every client's misbehavior schedule (which requests
/// drip, abort, or disconnect mid-body) through per-client
/// `SplitMix64::new(seed + client)` streams, so a chaos run is replayable
/// from its printed seed. Pair it with a server started with
/// [`crate::FaultConfig::with_seed`] for deterministic faults on both
/// sides of the socket.
#[derive(Debug, Clone)]
pub struct ChaosConfig {
    /// Server address.
    pub addr: SocketAddr,
    /// Seed of the per-client misbehavior streams.
    pub seed: u64,
    /// Client iterations to run (each iteration is one behavior draw and
    /// may send several requests, e.g. a pipelined burst).
    pub requests: usize,
    /// Concurrent chaos clients.
    pub clients: usize,
}

/// Tallies of one chaos run. The invariant the run checks: every 200 the
/// server returned carried the byte-identical body a fault-free server
/// would have produced ([`ChaosReport::mismatches`] must be zero); sheds,
/// disconnects, and aborts are expected traffic, not failures.
#[derive(Debug, Clone, Default, Serialize)]
pub struct ChaosReport {
    /// Requests actually written to the server.
    pub attempts: usize,
    /// 200 responses whose bodies matched the fault-free reference.
    pub ok: usize,
    /// Overload sheds observed (503 with `Retry-After`).
    pub shed: usize,
    /// Shed requests retried after the jittered backoff.
    pub retries: usize,
    /// Transport-level drops (connect failures, resets mid-response —
    /// expected under fault injection and client misbehavior).
    pub disconnects: usize,
    /// Requests the client deliberately abandoned (aborted pipelines,
    /// half-sent slowloris heads, mid-body hangups, vanished job
    /// submitters).
    pub aborts: usize,
    /// Async jobs submitted whose 202 the client actually read (vanished
    /// submitters that never read theirs count as aborts instead).
    pub jobs_submitted: usize,
    /// 200 responses whose bodies differed from the fault-free
    /// reference, plus unexpected statuses (500s): invariant violations.
    pub mismatches: usize,
}

impl ChaosReport {
    /// Whether the run upheld the chaos invariant: at least one verified
    /// 200 and zero wrong bodies or unexpected statuses.
    #[must_use]
    pub fn passed(&self) -> bool {
        self.mismatches == 0 && self.ok > 0
    }

    /// Renders the tallies as a small human-readable table.
    #[must_use]
    pub fn text(&self) -> String {
        format!(
            "attempts: {}, ok: {}, shed: {} ({} retried)\n\
             disconnects: {}, client aborts: {}, jobs submitted: {}, mismatches: {}",
            self.attempts,
            self.ok,
            self.shed,
            self.retries,
            self.disconnects,
            self.aborts,
            self.jobs_submitted,
            self.mismatches
        )
    }
}

/// One chaos workload item: a request plus the body a fault-free server
/// returns for it.
struct ChaosItem {
    path: &'static str,
    body: String,
    expected: Vec<u8>,
}

/// The chaos workload: a few `/v1/plan` bodies (exercising the rendered
/// memo) and several `/v1/simulate` bodies with distinct seeds, whose
/// simulations pressure the worker queue into shedding. Reference bodies
/// come from [`api::handle`] against a fresh default server state — the
/// true no-faults, no-concurrency answer.
fn chaos_items() -> Vec<ChaosItem> {
    let state = AppState::new(&ServerConfig::default());
    let mut bodies: Vec<(&'static str, String)> = vec![
        (
            "/v1/plan",
            r#"{"network":"resnet18","rows":64,"cols":64}"#.to_owned(),
        ),
        (
            "/v1/plan",
            r#"{"network":"resnet34","rows":128,"cols":128}"#.to_owned(),
        ),
        (
            "/v1/plan",
            r#"{"network":"resnet18","rows":32,"cols":32}"#.to_owned(),
        ),
    ];
    for seed in 1..=4u32 {
        bodies.push((
            "/v1/simulate",
            format!(r#"{{"rows":16,"cols":16,"k":2,"t":8,"n":48,"m":24,"seed":{seed}}}"#),
        ));
    }
    bodies
        .into_iter()
        .map(|(path, body)| {
            let response = api::handle(
                &state,
                &HttpRequest {
                    method: "POST".to_owned(),
                    path: path.to_owned(),
                    body: body.clone().into_bytes(),
                },
            );
            assert_eq!(response.status, 200, "chaos workload item must be valid");
            ChaosItem {
                path,
                body,
                expected: response.body,
            }
        })
        .collect()
}

/// Records one decoded response against its reference body.
fn chaos_verify(report: &mut ChaosReport, item: &ChaosItem, response: &ClientResponse) {
    if response.status == 200 {
        // The core invariant: a 200 under faults is byte-identical to the
        // fault-free answer. Memo hits included — planning purity means
        // the memo'd bytes are that same answer.
        if response.body == item.expected {
            report.ok += 1;
        } else {
            report.mismatches += 1;
        }
    } else if response.status == 503 && response.retry_after.is_some() {
        report.shed += 1;
    } else {
        // Well-formed requests may be served or shed, never anything
        // else; a 500 here is a caught handler panic leaking out.
        report.mismatches += 1;
    }
}

/// One well-behaved request with shed-retry: on a 503 the client honors
/// `Retry-After` (capped for test pacing) under jittered exponential
/// backoff, up to 3 retries.
fn chaos_request_with_retry(
    addr: SocketAddr,
    item: &ChaosItem,
    conn: &mut Option<PersistentClient>,
    rng: &mut SplitMix64,
    report: &mut ChaosReport,
) {
    for attempt in 0u32..4 {
        if conn.is_none() {
            match PersistentClient::connect(addr) {
                Ok(client) => *conn = Some(client),
                Err(_) => {
                    report.disconnects += 1;
                    return;
                }
            }
        }
        let client = conn.as_mut().expect("connected above");
        report.attempts += 1;
        match client.request("POST", item.path, Some(item.body.as_bytes())) {
            Ok(response) => {
                let shed = response.status == 503 && response.retry_after.is_some();
                chaos_verify(report, item, &response);
                if !shed || attempt == 3 {
                    return;
                }
                report.retries += 1;
                // Honor Retry-After (seconds), capped so saturated runs
                // still finish; exponential base with a little jitter
                // decorrelates the retrying clients.
                let cap = response
                    .retry_after
                    .unwrap_or(1)
                    .saturating_mul(1000)
                    .min(50);
                let backoff = (2u64 << attempt).min(cap) + rng.next_u64() % 3;
                std::thread::sleep(Duration::from_millis(backoff));
            }
            Err(_) => {
                report.disconnects += 1;
                *conn = None;
                return;
            }
        }
    }
}

/// A pipelined burst: `depth` requests written back to back, responses
/// verified in order.
fn chaos_pipelined_burst(
    addr: SocketAddr,
    items: &[ChaosItem],
    conn: &mut Option<PersistentClient>,
    rng: &mut SplitMix64,
    report: &mut ChaosReport,
) {
    if conn.is_none() {
        match PersistentClient::connect(addr) {
            Ok(client) => *conn = Some(client),
            Err(_) => {
                report.disconnects += 1;
                return;
            }
        }
    }
    let client = conn.as_mut().expect("connected above");
    let mut sent = Vec::with_capacity(4);
    for _ in 0..4 {
        let index = (rng.next_u64() as usize) % items.len();
        let item = &items[index];
        if client
            .send("POST", item.path, Some(item.body.as_bytes()))
            .is_err()
        {
            report.disconnects += 1;
            *conn = None;
            return;
        }
        report.attempts += 1;
        sent.push(index);
    }
    for index in sent {
        match client.recv() {
            Ok(response) => chaos_verify(report, &items[index], &response),
            Err(_) => {
                report.disconnects += 1;
                *conn = None;
                return;
            }
        }
    }
}

/// An aborted pipeline: three requests written on a throwaway connection,
/// one response read, then the connection dropped with two answers owed —
/// the server must clean up the dead slot without disturbing others.
fn chaos_aborted_pipeline(
    addr: SocketAddr,
    items: &[ChaosItem],
    rng: &mut SplitMix64,
    report: &mut ChaosReport,
) {
    let Ok(mut throwaway) = PersistentClient::connect(addr) else {
        report.disconnects += 1;
        return;
    };
    let mut sent = Vec::with_capacity(3);
    for _ in 0..3 {
        let index = (rng.next_u64() as usize) % items.len();
        let item = &items[index];
        if throwaway
            .send("POST", item.path, Some(item.body.as_bytes()))
            .is_err()
        {
            break;
        }
        report.attempts += 1;
        sent.push(index);
    }
    if let Some(&first) = sent.first() {
        match throwaway.recv() {
            Ok(response) => chaos_verify(report, &items[first], &response),
            Err(_) => report.disconnects += 1,
        }
    }
    report.aborts += 1;
}

/// A slowloris drip: the request head written in three chunks with sleeps
/// between them, then a coin flip between completing the request (the
/// parser must reassemble it correctly) and abandoning it mid-head (the
/// idle deadline must reap it without a worker ever seeing it).
fn chaos_slowloris(
    addr: SocketAddr,
    item: &ChaosItem,
    rng: &mut SplitMix64,
    report: &mut ChaosReport,
) {
    let Ok(mut stream) = TcpStream::connect(addr) else {
        report.disconnects += 1;
        return;
    };
    let _ = stream.set_nodelay(true);
    let _ = stream.set_read_timeout(Some(Duration::from_secs(30)));
    let head = format!(
        "POST {} HTTP/1.1\r\ncontent-type: application/json\r\n\
         content-length: {}\r\nconnection: close\r\n\r\n",
        item.path,
        item.body.len()
    );
    let bytes = head.as_bytes();
    let third = bytes.len() / 3;
    for chunk in [
        &bytes[..third],
        &bytes[third..2 * third],
        &bytes[2 * third..],
    ] {
        if stream.write_all(chunk).is_err() {
            report.disconnects += 1;
            return;
        }
        std::thread::sleep(Duration::from_millis(1 + rng.next_u64() % 2));
    }
    if rng.next_bool(0.5) {
        report.attempts += 1;
        if stream.write_all(item.body.as_bytes()).is_err() {
            report.disconnects += 1;
            return;
        }
        match client::read_response(&mut BufReader::new(stream)) {
            Ok(response) => chaos_verify(report, item, &response),
            Err(_) => report.disconnects += 1,
        }
    } else {
        report.aborts += 1;
    }
}

/// A mid-body hangup: head plus half the body, then the socket dropped.
/// The parser is left mid-request; the server must discard it without
/// dispatching a truncated body.
fn chaos_midbody_disconnect(addr: SocketAddr, item: &ChaosItem, report: &mut ChaosReport) {
    let Ok(mut stream) = TcpStream::connect(addr) else {
        report.disconnects += 1;
        return;
    };
    let head = format!(
        "POST {} HTTP/1.1\r\ncontent-type: application/json\r\ncontent-length: {}\r\n\r\n",
        item.path,
        item.body.len()
    );
    let half = item.body.len() / 2;
    let _ = stream.write_all(head.as_bytes());
    let _ = stream.write_all(&item.body.as_bytes()[..half]);
    report.aborts += 1;
}

/// A vanishing tenant: submits an async `/v1/jobs` sweep under an
/// `x-arrayflex-tenant` header on a throwaway connection, then
/// disconnects — half the time without even reading the 202. Jobs are
/// detached from their submitting connection, so the server runs the
/// sweep to completion (or sheds the submit) regardless, and the orphaned
/// job must not stop shutdown from draining.
fn chaos_vanishing_tenant_job(addr: SocketAddr, rng: &mut SplitMix64, report: &mut ChaosReport) {
    let Ok(mut stream) = TcpStream::connect(addr) else {
        report.disconnects += 1;
        return;
    };
    let _ = stream.set_nodelay(true);
    let _ = stream.set_read_timeout(Some(Duration::from_secs(30)));
    // A tiny sweep (2 points) so orphaned jobs finish in milliseconds;
    // a handful of tenant names exercises the per-tenant bookkeeping.
    let tenant = rng.next_u64() % 4;
    let body = r#"{"array_sizes":[8,16],"networks":["mobilenet_v1"]}"#;
    let head = format!(
        "POST /v1/jobs HTTP/1.1\r\nhost: chaos\r\nx-arrayflex-tenant: chaos-{tenant}\r\n\
         content-type: application/json\r\ncontent-length: {}\r\nconnection: close\r\n\r\n",
        body.len()
    );
    report.attempts += 1;
    if stream.write_all(head.as_bytes()).is_err() || stream.write_all(body.as_bytes()).is_err() {
        report.disconnects += 1;
        return;
    }
    if rng.next_bool(0.5) {
        // Read the submit response, then vanish without ever polling
        // for the result.
        match client::read_response(&mut BufReader::new(stream)) {
            Ok(response) => match response.status {
                202 => report.jobs_submitted += 1,
                // Queue sheds and tenant caps are expected traffic.
                429 | 503 => report.shed += 1,
                _ => report.mismatches += 1,
            },
            Err(_) => report.disconnects += 1,
        }
    } else {
        // Vanish with the 202 still unread in the socket.
        report.aborts += 1;
    }
}

/// One chaos client's schedule, driven by its own seeded stream.
fn chaos_client(
    addr: SocketAddr,
    items: &[ChaosItem],
    mut rng: SplitMix64,
    claim: &impl Fn() -> bool,
) -> ChaosReport {
    let mut report = ChaosReport::default();
    let mut conn: Option<PersistentClient> = None;
    while claim() {
        let index = (rng.next_u64() as usize) % items.len();
        match rng.next_u64() % 9 {
            // Nearly half the schedule is well-behaved traffic — the
            // point is proving correct answers *under* chaos, so there
            // must be plenty of verified requests interleaved with the
            // abuse.
            0..=3 => {
                chaos_request_with_retry(addr, &items[index], &mut conn, &mut rng, &mut report)
            }
            4 => chaos_pipelined_burst(addr, items, &mut conn, &mut rng, &mut report),
            5 => chaos_aborted_pipeline(addr, items, &mut rng, &mut report),
            6 => chaos_slowloris(addr, &items[index], &mut rng, &mut report),
            7 => chaos_midbody_disconnect(addr, &items[index], &mut report),
            _ => chaos_vanishing_tenant_job(addr, &mut rng, &mut report),
        }
    }
    report
}

/// Runs the chaos workload: `clients` misbehaving clients share an
/// iteration budget and hammer the server with a deterministic mix of
/// honest requests, pipelined bursts, aborted pipelines, slowloris drips,
/// mid-body hangups, and vanishing tenant job submissions, verifying
/// every 200 against the fault-free reference.
///
/// # Panics
///
/// Panics if `clients` is zero or a chaos client thread panics.
#[must_use]
pub fn chaos_run(config: &ChaosConfig) -> ChaosReport {
    assert!(config.clients > 0, "chaos needs at least one client");
    let items = chaos_items();
    let remaining = AtomicUsize::new(config.requests);
    let reports: Vec<ChaosReport> = std::thread::scope(|scope| {
        let remaining = &remaining;
        let items = &items;
        #[allow(clippy::needless_collect)] // spawn-all-then-join, as in `run`
        let handles: Vec<_> = (0..config.clients)
            .map(|client_index| {
                let rng = SplitMix64::new(config.seed.wrapping_add(client_index as u64));
                scope.spawn(move || {
                    let claim = || {
                        remaining
                            .fetch_update(Ordering::Relaxed, Ordering::Relaxed, |n| {
                                n.checked_sub(1)
                            })
                            .is_ok()
                    };
                    chaos_client(config.addr, items, rng, &claim)
                })
            })
            .collect();
        handles
            .into_iter()
            .map(|handle| handle.join().expect("chaos client panicked"))
            .collect()
    });
    let mut total = ChaosReport::default();
    for report in reports {
        total.attempts += report.attempts;
        total.ok += report.ok;
        total.shed += report.shed;
        total.retries += report.retries;
        total.disconnects += report.disconnects;
        total.aborts += report.aborts;
        total.jobs_submitted += report.jobs_submitted;
        total.mismatches += report.mismatches;
    }
    total
}

#[cfg(test)]
mod tests {
    use super::*;

    fn record(name: &str, rps: f64) -> ServeBenchRecord {
        ServeBenchRecord {
            name: name.to_owned(),
            endpoint: "/v1/plan".to_owned(),
            mode: "close".to_owned(),
            requests: 100,
            clients: 4,
            rps,
            p50_us: 100,
            p99_us: 200,
            connect_p50_us: 30,
            errors: 0,
            sheds: 0,
            shed_rate: 0.0,
        }
    }

    fn report(benches: Vec<ServeBenchRecord>) -> ServeBenchReport {
        ServeBenchReport {
            schema: SERVE_BENCH_SCHEMA,
            benches,
        }
    }

    #[test]
    fn mode_labels_are_stable() {
        assert_eq!(ConnectionMode::Close.label(), "close");
        assert_eq!(ConnectionMode::KeepAlive.label(), "keepalive");
        assert_eq!(ConnectionMode::Pipeline(8).label(), "pipeline8");
    }

    #[test]
    fn serve_reports_round_trip_through_json() {
        let original = report(vec![record("plan_close", 4500.0)]);
        let json = serde_json::to_string_pretty(&original).unwrap();
        let decoded: ServeBenchReport = serde_json::from_str(&json).unwrap();
        assert_eq!(decoded.schema, SERVE_BENCH_SCHEMA);
        assert_eq!(decoded.benches.len(), 1);
        assert_eq!(decoded.benches[0].name, "plan_close");
        assert!((decoded.benches[0].rps - 4500.0).abs() < 1e-9);
    }

    #[test]
    fn validation_catches_schema_errors_and_failures() {
        assert!(validate_serve_report(&report(vec![record("a", 100.0)])).is_ok());
        let mut wrong_schema = report(vec![record("a", 100.0)]);
        wrong_schema.schema += 1;
        assert!(validate_serve_report(&wrong_schema).is_err());
        assert!(validate_serve_report(&report(vec![])).is_err());
        let mut failed = report(vec![record("a", 100.0)]);
        failed.benches[0].errors = 1;
        assert!(validate_serve_report(&failed).is_err());
        let mut zero = report(vec![record("a", 0.0)]);
        zero.benches[0].rps = 0.0;
        assert!(validate_serve_report(&zero).is_err());
    }

    #[test]
    fn comparison_passes_noise_and_fails_regressions() {
        let old = report(vec![
            record("plan_close", 1000.0),
            record("plan_keepalive", 10000.0),
        ]);
        // 20% slower everywhere: inside the 2.5x gate.
        let ok = report(vec![
            record("plan_close", 800.0),
            record("plan_keepalive", 8000.0),
        ]);
        assert!(compare_serve_reports(&old, &ok, 2.5).is_ok());
        // 4x slower on one bench: a real regression.
        let bad = report(vec![
            record("plan_close", 250.0),
            record("plan_keepalive", 8000.0),
        ]);
        let err = compare_serve_reports(&old, &bad, 2.5).unwrap_err();
        assert!(err.contains("plan_close"), "{err}");
        // A vanished bench is always a failure.
        let missing = report(vec![record("plan_close", 1000.0)]);
        let err = compare_serve_reports(&old, &missing, 2.5).unwrap_err();
        assert!(err.contains("plan_keepalive"), "{err}");
    }

    #[test]
    fn comparison_gates_shed_rate_alongside_rps() {
        let old = report(vec![record("plan_keepalive", 10000.0)]);
        // Shedding within the slack passes (noise / trivial overload).
        let mut ok = report(vec![record("plan_keepalive", 10000.0)]);
        ok.benches[0].sheds = 400;
        ok.benches[0].shed_rate = 0.04;
        assert!(compare_serve_reports(&old, &ok, 2.5).is_ok());
        // A server that "kept" its RPS by shedding 20% of requests fails.
        let mut bad = report(vec![record("plan_keepalive", 10000.0)]);
        bad.benches[0].sheds = 2000;
        bad.benches[0].shed_rate = 0.20;
        let err = compare_serve_reports(&old, &bad, 2.5).unwrap_err();
        assert!(err.contains("shed rate"), "{err}");
    }

    #[test]
    fn baselines_without_shed_fields_still_parse() {
        // Committed BENCH_serve.json files predate the shed fields; they
        // must decode with zero defaults rather than erroring.
        let legacy = r#"{"schema":1,"benches":[{"name":"plan_close",
            "endpoint":"/v1/plan","mode":"close","requests":100,
            "clients":4,"rps":4500.0,"p50_us":100,"p99_us":200,
            "connect_p50_us":30,"errors":0}]}"#;
        let decoded: ServeBenchReport = serde_json::from_str(legacy).unwrap();
        assert_eq!(decoded.benches[0].sheds, 0);
        assert!(decoded.benches[0].shed_rate.abs() < 1e-12);
        // And the new fields round-trip when present.
        let mut with = report(vec![record("plan_close", 4500.0)]);
        with.benches[0].sheds = 7;
        with.benches[0].shed_rate = 0.07;
        let json = serde_json::to_string(&with).unwrap();
        let back: ServeBenchReport = serde_json::from_str(&json).unwrap();
        assert_eq!(back.benches[0].sheds, 7);
        assert!((back.benches[0].shed_rate - 0.07).abs() < 1e-12);
    }

    #[test]
    fn keepalive_speedup_reads_the_headline_ratio() {
        let report = report(vec![
            record("plan_close", 1000.0),
            record("plan_keepalive", 12000.0),
        ]);
        let speedup = report.keepalive_speedup().unwrap();
        assert!((speedup - 12.0).abs() < 1e-9);
        let reference = report.reference_speedup().unwrap();
        assert!((reference - 12000.0 / REFERENCE_CLOSE_RPS).abs() < 1e-9);
        assert!(report.bench("nope").is_none());
    }
}
