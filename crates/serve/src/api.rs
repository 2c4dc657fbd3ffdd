//! The JSON API of the planning/simulation service.
//!
//! Routes:
//!
//! * `POST /v1/plan` — plan one network on one array geometry; the
//!   response body is **byte-identical** to
//!   `serde_json::to_string(&model.plan_*(...))`, whether it was computed
//!   or served from the plan cache;
//! * `POST /v1/sweep` — an evaluation sweep over array sizes × networks,
//!   fanned out through [`ParallelExecutor`]; byte-identical to
//!   `serde_json::to_string(&EvaluationSweep {..}.run(&networks))`;
//! * `POST /v1/simulate` — a size-capped cycle-accurate cross-check of one
//!   random GEMM against the analytical model;
//! * `POST /v1/jobs`, `GET /v1/jobs/{id}[/result]`, `DELETE
//!   /v1/jobs/{id}` — asynchronous, cancellable, checkpointed sweep jobs
//!   (see the `jobs` module); a completed job's result is byte-identical to
//!   the equivalent `/v1/sweep` response;
//! * `GET /healthz` — liveness;
//! * `GET /metrics` — Prometheus text format (see [`crate::metrics`]).
//!
//! Handlers are pure functions from a parsed [`HttpRequest`] to an
//! [`HttpResponse`] over shared [`AppState`], so the whole API surface is
//! testable without sockets. Long-running handlers (sweep, simulate)
//! observe a per-request [`CancelToken`] between job items: the serving
//! layer arms it with the request deadline and fires it when every
//! waiting client disconnects, and a cancelled handler answers a
//! structured `503` reporting partial progress instead of computing on.

use crate::http::{HttpRequest, HttpResponse, ServerConfig};
use crate::jobs::{JobEntry, JobStore, TenantQuota};
use crate::metrics::Metrics;
use crate::rendered::RenderedCache;
use arrayflex::sa_sim::{ArrayPool, Dataflow};
use arrayflex::{
    ArrayFlexModel, CacheOutcome, EvaluationSweep, NetworkComparison, ParallelExecutor, PlanCache,
    PlanKind,
};
use cnn::{DepthwiseMapping, Network};
use gemm::rng::SplitMix64;
use gemm::{CancelToken, Matrix};
use serde::{Deserialize, Serialize, Value};
use std::sync::atomic::{AtomicU64, AtomicUsize, Ordering};
use std::sync::Arc;

/// Maximum array edge length accepted by `/v1/plan` and `/v1/sweep`.
pub const MAX_ARRAY_EDGE: u32 = 4096;
/// Maximum number of array sizes in one sweep request.
pub const MAX_SWEEP_SIZES: usize = 8;
/// Maximum number of networks in one sweep request.
pub const MAX_SWEEP_NETWORKS: usize = 8;
/// Maximum worker threads a sweep request may ask for.
pub const MAX_SWEEP_THREADS: usize = 16;
/// Maximum array edge length accepted by `/v1/simulate` (the simulator
/// evaluates every PE every cycle, so this is deliberately small).
pub const MAX_SIM_EDGE: u32 = 64;
/// Maximum `T * N * M` product accepted by `/v1/simulate`.
pub const MAX_SIM_MACS: u64 = 1 << 21;

/// Shared state of one server instance.
#[derive(Debug)]
pub struct AppState {
    cache: PlanCache,
    metrics: Metrics,
    max_body_bytes: usize,
    accepted: AtomicU64,
    sim_pool: ArrayPool,
    log_requests: bool,
    /// Rendered-response memo: full `/v1/plan` 200 bodies keyed by raw
    /// request bytes (see `crate::rendered`).
    rendered: RenderedCache,
    /// Per-route running estimates (largest response seen so far) used to
    /// pre-size JSON response buffers: `[/v1/plan, /v1/sweep,
    /// /v1/simulate]`. Serialization appends into a
    /// `String::with_capacity(estimate)` instead of growing an empty
    /// buffer through repeated reallocation on every request.
    body_estimates: [AtomicUsize; 3],
    /// Per-request deadline (`ServerConfig::request_deadline`): queued
    /// work older than this is answered 503 without computing.
    request_deadline: Option<std::time::Duration>,
    /// Test-only `POST /__test/panic` route proving panic isolation
    /// (`ServerConfig::panic_route`).
    panic_route: bool,
    /// The `/v1/jobs` store (see [`crate::jobs`]). Job execution needs an
    /// owned `Arc<AppState>`, so submissions only work on states built
    /// through [`AppState::shared`].
    jobs: JobStore,
    /// Per-tenant token-bucket admission, when `ServerConfig::tenant_rate`
    /// is set.
    tenant_quota: Option<TenantQuota>,
    /// Cap on concurrently running jobs per tenant (`0` = uncapped).
    tenant_max_jobs: usize,
}

/// Index into [`AppState`]'s per-route response-size estimates.
#[derive(Debug, Clone, Copy)]
enum BodyRoute {
    Plan = 0,
    Sweep = 1,
    Simulate = 2,
}

/// Ceiling on a per-route response-size estimate. One unusually large
/// response must not pin a multi-megabyte upfront allocation onto every
/// later request of the route; beyond this, `String` growth amortizes
/// fine.
const MAX_BODY_ESTIMATE: usize = 1 << 20;

impl AppState {
    /// Builds the state for one server configuration.
    #[must_use]
    pub fn new(config: &ServerConfig) -> Self {
        Self {
            cache: PlanCache::new(config.cache_capacity),
            metrics: Metrics::new(),
            max_body_bytes: config.max_body_bytes,
            accepted: AtomicU64::new(0),
            sim_pool: ArrayPool::new(),
            log_requests: config.log_requests,
            rendered: RenderedCache::default(),
            body_estimates: [
                AtomicUsize::new(0),
                AtomicUsize::new(0),
                AtomicUsize::new(0),
            ],
            request_deadline: config.request_deadline,
            panic_route: config.panic_route,
            jobs: JobStore::new(config.job_dir.clone()),
            tenant_quota: config
                .tenant_rate
                .map(|rate| TenantQuota::new(rate, config.tenant_burst)),
            tenant_max_jobs: config.tenant_max_jobs,
        }
    }

    /// Builds the state wrapped in the `Arc` the `/v1/jobs` runner threads
    /// need, and resumes any incomplete jobs checkpointed in
    /// `ServerConfig::job_dir`. States built with [`AppState::new`] alone
    /// answer job submissions with a `503` (every other route works).
    #[must_use]
    pub fn shared(config: &ServerConfig) -> Arc<Self> {
        let state = Arc::new(Self::new(config));
        state.jobs.attach(&state);
        state.jobs.resume(&state);
        state
    }

    /// Serializes one JSON response body into a buffer pre-sized from the
    /// route's running estimate (the largest response the route has
    /// produced so far, capped at [`MAX_BODY_ESTIMATE`]), then feeds the
    /// observed size back into the estimate. The bytes are identical to
    /// `serde_json::to_string`.
    fn sized_json_body<T: Serialize + ?Sized>(&self, route: BodyRoute, value: &T) -> Vec<u8> {
        let estimate = &self.body_estimates[route as usize];
        let mut body = String::with_capacity(estimate.load(Ordering::Relaxed));
        serde_json::to_string_into(value, &mut body).expect("responses serialize to JSON");
        estimate.fetch_max(body.len().min(MAX_BODY_ESTIMATE), Ordering::Relaxed);
        body.into_bytes()
    }

    /// The plan cache shared by every worker.
    #[must_use]
    pub fn cache(&self) -> &PlanCache {
        &self.cache
    }

    /// The pool of simulator arrays `/v1/simulate` reuses across requests
    /// (constructing and zero-initializing a
    /// [`SystolicArray`](arrayflex::sa_sim::SystolicArray) per request is
    /// measurable churn under load; results are unchanged). A reused
    /// array keeps its state buffers (weights, pipeline registers and
    /// their validity), so a worker serving simulate traffic resets them
    /// request after request instead of allocating them per request.
    #[must_use]
    pub fn sim_pool(&self) -> &ArrayPool {
        &self.sim_pool
    }

    #[cfg(test)]
    fn body_estimate(&self, route: BodyRoute) -> usize {
        self.body_estimates[route as usize].load(Ordering::Relaxed)
    }

    /// The request metrics shared by every worker.
    #[must_use]
    pub fn metrics(&self) -> &Metrics {
        &self.metrics
    }

    /// The request-body size cap in bytes.
    #[must_use]
    pub fn max_body_bytes(&self) -> usize {
        self.max_body_bytes
    }

    /// Number of connections accepted so far.
    #[must_use]
    pub fn accepted(&self) -> u64 {
        self.accepted.load(Ordering::SeqCst)
    }

    /// Whether the connection loop emits one structured log line per
    /// served request (see `ServerConfig::log_requests`).
    #[must_use]
    pub fn log_requests(&self) -> bool {
        self.log_requests
    }

    pub(crate) fn note_accepted(&self) {
        self.accepted.fetch_add(1, Ordering::SeqCst);
    }

    /// The configured per-request deadline, if any.
    #[must_use]
    pub fn request_deadline(&self) -> Option<std::time::Duration> {
        self.request_deadline
    }

    /// The `/v1/jobs` store.
    pub(crate) fn jobs(&self) -> &JobStore {
        &self.jobs
    }

    /// The per-tenant request admission layer, when configured.
    pub(crate) fn tenant_quota(&self) -> Option<&TenantQuota> {
        self.tenant_quota.as_ref()
    }
}

/// The fixed label a request path maps to in the metrics (unknown paths
/// collapse into `"other"` so hostile traffic cannot grow the label set).
#[must_use]
pub fn route_label(path: &str) -> &'static str {
    match path {
        "/healthz" => "/healthz",
        "/metrics" => "/metrics",
        "/v1/plan" => "/v1/plan",
        "/v1/sweep" => "/v1/sweep",
        "/v1/simulate" => "/v1/simulate",
        "/v1/jobs" => "/v1/jobs",
        _ if path.starts_with("/v1/jobs/") => "/v1/jobs",
        _ => "other",
    }
}

/// What the serving layer logs about one handled request beyond its
/// status: the plan-cache interaction, when the route had one.
#[derive(Debug, Clone, Copy, Default)]
pub struct RequestTrace {
    /// Cache outcome and key hash of a `/v1/plan` lookup (`None` for
    /// routes that never consulted the cache, or when planning failed
    /// before the lookup).
    pub cache: Option<(CacheOutcome, u64)>,
}

/// Dispatches one parsed request to its handler. The request runs under a
/// fresh cancel token armed with the configured per-request deadline; the
/// event-loop path calls `handle_request` directly with the token it can
/// also fire on client disconnect.
#[must_use]
pub fn handle(state: &AppState, request: &HttpRequest) -> HttpResponse {
    let cancel = CancelToken::with_deadline_opt(
        state
            .request_deadline
            .map(|deadline| std::time::Instant::now() + deadline),
    );
    handle_request(state, request, &cancel, None).0
}

/// [`handle`] with the caller-owned cancellation token and the request's
/// tenant (from the `x-arrayflex-tenant` header; `None` means anonymous),
/// also reporting the [`RequestTrace`] the connection loop feeds into
/// per-request log lines.
pub(crate) fn handle_request(
    state: &AppState,
    request: &HttpRequest,
    cancel: &CancelToken,
    tenant: Option<&str>,
) -> (HttpResponse, RequestTrace) {
    let mut trace = RequestTrace::default();
    let response = match (request.method.as_str(), request.path.as_str()) {
        ("GET", "/healthz") => HttpResponse::json(&b"{\"status\":\"ok\"}"[..]),
        ("GET", "/metrics") => {
            HttpResponse::text(state.metrics.render_prometheus(&state.cache).into_bytes())
        }
        ("POST", "/v1/plan") => {
            if let Some((body, hit_trace)) = rendered_plan(state, &request.body) {
                trace = hit_trace;
                HttpResponse::json(body.as_slice().to_vec())
            } else {
                let response = with_json_body(request, |value| plan(state, value, &mut trace));
                if response.status == 200 {
                    if let Some((_, key_hash)) = trace.cache {
                        state.rendered.store(
                            &request.body,
                            key_hash,
                            std::sync::Arc::new(response.body.clone()),
                        );
                    }
                }
                response
            }
        }
        ("POST", "/v1/sweep") => with_json_body(request, |value| sweep(state, value, cancel)),
        ("POST", "/v1/simulate") => with_json_body(request, |value| simulate(state, value, cancel)),
        ("POST", "/v1/jobs") => jobs_submit(state, request, tenant),
        ("GET", path) if path.starts_with("/v1/jobs/") => jobs_get(state, path),
        ("DELETE", path) if path.starts_with("/v1/jobs/") => jobs_delete(state, path),
        ("POST", "/__test/panic") if state.panic_route => {
            // Fault-harness escape hatch (ServerConfig::panic_route, tests
            // only): prove a handler panic is caught, answered with a
            // structured 500, and leaves the worker alive.
            panic!("test-injected handler panic")
        }
        (_, "/healthz" | "/metrics" | "/v1/plan" | "/v1/sweep" | "/v1/simulate" | "/v1/jobs") => {
            HttpResponse::error(405, &format!("method {} not allowed here", request.method))
        }
        (_, path) if path.starts_with("/v1/jobs/") => {
            HttpResponse::error(405, &format!("method {} not allowed here", request.method))
        }
        (_, path) => HttpResponse::error(404, &format!("no route for {path}")),
    };
    (response, trace)
}

/// Serves `/v1/plan` from the rendered-response memo when an entry exists
/// for this exact request body (see [`crate::rendered`]). Returns the
/// shared response bytes and the trace of the hit; `None` falls through to
/// the full planning path.
///
/// The event loop calls this inline — a memo hit never crosses into the
/// worker pool — and [`handle`] calls it too, so direct API tests stay
/// byte-identical with the fast path.
pub(crate) fn rendered_plan(
    state: &AppState,
    request_body: &[u8],
) -> Option<(std::sync::Arc<Vec<u8>>, RequestTrace)> {
    let (body, key_hash) = state.rendered.lookup(&state.cache, request_body)?;
    state.metrics.note_rendered_hit();
    Some((
        body,
        RequestTrace {
            cache: Some((CacheOutcome::Hit, key_hash)),
        },
    ))
}

/// Parses the body as JSON (rejecting invalid UTF-8 and malformed JSON
/// with a structured 400) before running the handler.
fn with_json_body(
    request: &HttpRequest,
    handler: impl FnOnce(&Value) -> Result<HttpResponse, ApiError>,
) -> HttpResponse {
    let text = match std::str::from_utf8(&request.body) {
        Ok(text) => text,
        Err(_) => return HttpResponse::error(400, "request body is not valid UTF-8"),
    };
    let value: Value = match serde_json::from_str(text) {
        Ok(value) => value,
        Err(e) => return HttpResponse::error(400, &format!("malformed JSON body: {e}")),
    };
    match handler(&value) {
        Ok(response) => response,
        Err(e) => e.into_response(),
    }
}

/// A handler-level failure: an HTTP status and a human-readable message.
pub(crate) struct ApiError {
    status: u16,
    message: String,
}

impl ApiError {
    fn bad_request(message: impl Into<String>) -> Self {
        Self {
            status: 400,
            message: message.into(),
        }
    }

    /// The structured error response this failure renders to.
    pub(crate) fn into_response(self) -> HttpResponse {
        HttpResponse::error(self.status, &self.message)
    }
}

impl From<arrayflex::ArrayFlexError> for ApiError {
    fn from(e: arrayflex::ArrayFlexError) -> Self {
        // A cancelled run is a server-side abandonment (deadline passed,
        // every waiter disconnected), not a client error: a structured
        // 503 reporting the partial progress — "run cancelled after k/n
        // items: <reason>" — so a retrying client knows the request was
        // valid and how far it got.
        if matches!(e, arrayflex::ArrayFlexError::Cancelled(_)) {
            return Self {
                status: 503,
                message: e.to_string(),
            };
        }
        // Library-level rejections of a well-formed request (bad depth,
        // zero dimension, ...) are client errors, not server faults.
        ApiError::bad_request(e.to_string())
    }
}

// ---------------------------------------------------------------------------
// Request decoding helpers
// ---------------------------------------------------------------------------

/// A network referenced by name or provided inline as a full layer table.
#[derive(Debug, Clone)]
pub enum NetworkSpec {
    /// One of the built-in model names (see [`resolve_named_network`]).
    Named(String),
    /// A complete inline network.
    Inline(Network),
}

impl NetworkSpec {
    fn from_value(value: &Value) -> Result<Self, ApiError> {
        match value {
            Value::Str(name) => Ok(Self::Named(name.clone())),
            Value::Object(_) => Network::from_value(value)
                .map(Self::Inline)
                .map_err(|e| ApiError::bad_request(format!("invalid inline network: {e}"))),
            other => Err(ApiError::bad_request(format!(
                "`network` must be a name or an inline network object, found {other:?}"
            ))),
        }
    }

    fn resolve(&self) -> Result<Network, ApiError> {
        match self {
            Self::Named(name) => resolve_named_network(name).ok_or_else(|| {
                ApiError::bad_request(format!(
                    "unknown network \"{name}\" (available: {})",
                    NAMED_NETWORKS.join(", ")
                ))
            }),
            Self::Inline(network) => {
                if network.is_empty() {
                    return Err(ApiError::bad_request("inline network has no layers"));
                }
                Ok(network.clone())
            }
        }
    }
}

/// Names accepted by [`resolve_named_network`].
pub const NAMED_NETWORKS: [&str; 6] = [
    "resnet18",
    "resnet34",
    "resnet50",
    "mobilenet_v1",
    "convnext_tiny",
    "vgg16",
];

/// Looks up one of the built-in layer tables by name.
#[must_use]
pub fn resolve_named_network(name: &str) -> Option<Network> {
    match name {
        "resnet18" => Some(cnn::models::resnet18()),
        "resnet34" => Some(cnn::models::resnet34()),
        "resnet50" => Some(cnn::models::resnet50()),
        "mobilenet_v1" => Some(cnn::models::mobilenet_v1()),
        "convnext_tiny" => Some(cnn::models::convnext_tiny()),
        "vgg16" => Some(cnn::models::vgg16()),
        _ => None,
    }
}

fn required<'v>(value: &'v Value, field: &str) -> Result<&'v Value, ApiError> {
    value
        .get(field)
        .ok_or_else(|| ApiError::bad_request(format!("missing field `{field}`")))
}

fn decode<T: Deserialize>(value: &Value, field: &str) -> Result<T, ApiError> {
    T::from_value(required(value, field)?)
        .map_err(|e| ApiError::bad_request(format!("invalid field `{field}`: {e}")))
}

fn decode_optional<T: Deserialize>(value: &Value, field: &str) -> Result<Option<T>, ApiError> {
    match value.get(field) {
        None | Some(Value::Null) => Ok(None),
        Some(present) => T::from_value(present)
            .map(Some)
            .map_err(|e| ApiError::bad_request(format!("invalid field `{field}`: {e}"))),
    }
}

fn decode_mapping(value: &Value) -> Result<DepthwiseMapping, ApiError> {
    Ok(decode_optional::<DepthwiseMapping>(value, "mapping")?.unwrap_or_default())
}

/// Decodes the optional `dataflow` field of a simulate request:
/// `"weight_stationary"` (the default) or `"output_stationary"`.
fn decode_dataflow(value: &Value) -> Result<Dataflow, ApiError> {
    Ok(decode_optional::<Dataflow>(value, "dataflow")?.unwrap_or_default())
}

/// Decodes the optional `dataflows` field of a sweep request: a non-empty
/// list of dataflow names, defaulting to the paper's weight-stationary
/// architecture.
fn decode_dataflows(value: &Value) -> Result<Vec<Dataflow>, ApiError> {
    match decode_optional::<Vec<Dataflow>>(value, "dataflows")? {
        None => Ok(vec![Dataflow::WeightStationary]),
        Some(dataflows) if dataflows.is_empty() => Err(ApiError::bad_request(
            "`dataflows` must list at least one dataflow",
        )),
        Some(dataflows) if dataflows.len() > Dataflow::ALL.len() => {
            Err(ApiError::bad_request(format!(
                "`dataflows` must list at most {} dataflows",
                Dataflow::ALL.len()
            )))
        }
        Some(dataflows) => Ok(dataflows),
    }
}

/// Decodes the optional `design` field of a plan request:
/// `"arrayflex"` (default), `"conventional"`, or `{"fixed": k}`.
fn decode_plan_kind(value: &Value) -> Result<PlanKind, ApiError> {
    match value.get("design") {
        None | Some(Value::Null) => Ok(PlanKind::ArrayFlex),
        Some(Value::Str(s)) if s == "arrayflex" => Ok(PlanKind::ArrayFlex),
        Some(Value::Str(s)) if s == "conventional" => Ok(PlanKind::Conventional),
        Some(other) => {
            if let Some(k_value) = other.get("fixed") {
                let k = u32::from_value(k_value).map_err(|e| {
                    ApiError::bad_request(format!("invalid field `design.fixed`: {e}"))
                })?;
                return Ok(PlanKind::Fixed(k));
            }
            Err(ApiError::bad_request(
                "`design` must be \"arrayflex\", \"conventional\" or {\"fixed\": k}",
            ))
        }
    }
}

fn validated_geometry(rows: u32, cols: u32) -> Result<ArrayFlexModel, ApiError> {
    if rows == 0 || cols == 0 || rows > MAX_ARRAY_EDGE || cols > MAX_ARRAY_EDGE {
        return Err(ApiError::bad_request(format!(
            "array geometry {rows}x{cols} outside the supported 1..={MAX_ARRAY_EDGE} range"
        )));
    }
    Ok(ArrayFlexModel::new(rows, cols)?)
}

// ---------------------------------------------------------------------------
// POST /v1/plan
// ---------------------------------------------------------------------------

fn plan(
    state: &AppState,
    value: &Value,
    trace: &mut RequestTrace,
) -> Result<HttpResponse, ApiError> {
    let network = NetworkSpec::from_value(required(value, "network")?)?.resolve()?;
    let rows: u32 = decode(value, "rows")?;
    let cols: u32 = decode(value, "cols")?;
    let mapping = decode_mapping(value)?;
    let kind = decode_plan_kind(value)?;
    let model = validated_geometry(rows, cols)?;
    let (plan, outcome, key_hash) =
        model.plan_cached_traced(&state.cache, &network, mapping, kind)?;
    trace.cache = Some((outcome, key_hash));
    Ok(HttpResponse::json(
        state.sized_json_body(BodyRoute::Plan, &*plan),
    ))
}

// ---------------------------------------------------------------------------
// POST /v1/sweep
// ---------------------------------------------------------------------------

/// One fully decoded and validated sweep request: the shared shape of
/// `POST /v1/sweep` (synchronous) and `POST /v1/jobs` (asynchronous,
/// checkpointed). The sweep decomposes into `sizes × networks ×
/// dataflows` **points**, each producing one [`NetworkComparison`]; both
/// paths serialize points independently and join the fragments, so their
/// bodies are byte-identical for the same request.
pub(crate) struct SweepSpec {
    sizes: Vec<u32>,
    networks: Vec<Network>,
    mapping: DepthwiseMapping,
    dataflows: Vec<Dataflow>,
    threads: usize,
}

impl SweepSpec {
    /// Number of `(size, network, dataflow)` points the sweep covers.
    pub(crate) fn points(&self) -> usize {
        self.sizes.len() * self.networks.len() * self.dataflows.len()
    }
}

/// Decodes and validates one sweep request body.
pub(crate) fn decode_sweep(value: &Value) -> Result<SweepSpec, ApiError> {
    let sizes: Vec<u32> = decode(value, "array_sizes")?;
    if sizes.is_empty() || sizes.len() > MAX_SWEEP_SIZES {
        return Err(ApiError::bad_request(format!(
            "`array_sizes` must list 1..={MAX_SWEEP_SIZES} sizes"
        )));
    }
    if let Some(&bad) = sizes.iter().find(|&&s| s == 0 || s > MAX_ARRAY_EDGE) {
        return Err(ApiError::bad_request(format!(
            "array size {bad} outside the supported 1..={MAX_ARRAY_EDGE} range"
        )));
    }
    let specs = match required(value, "networks")? {
        Value::Array(items) => items
            .iter()
            .map(NetworkSpec::from_value)
            .collect::<Result<Vec<_>, _>>()?,
        other => {
            return Err(ApiError::bad_request(format!(
                "`networks` must be an array, found {other:?}"
            )))
        }
    };
    if specs.is_empty() || specs.len() > MAX_SWEEP_NETWORKS {
        return Err(ApiError::bad_request(format!(
            "`networks` must list 1..={MAX_SWEEP_NETWORKS} networks"
        )));
    }
    let networks = specs
        .iter()
        .map(NetworkSpec::resolve)
        .collect::<Result<Vec<_>, _>>()?;
    let mapping = decode_mapping(value)?;
    let dataflows = decode_dataflows(value)?;
    let threads = decode_optional::<usize>(value, "threads")?.unwrap_or(1);
    if threads > MAX_SWEEP_THREADS {
        return Err(ApiError::bad_request(format!(
            "`threads` must be 0..={MAX_SWEEP_THREADS}"
        )));
    }
    // `0` auto-detects the hardware parallelism; cap the detected value
    // too, so no request can spawn more than MAX_SWEEP_THREADS workers on
    // a many-core host.
    let threads = if threads == 0 {
        std::thread::available_parallelism()
            .map_or(1, std::num::NonZeroUsize::get)
            .min(MAX_SWEEP_THREADS)
    } else {
        threads
    };
    Ok(SweepSpec {
        sizes,
        networks,
        mapping,
        dataflows,
        threads,
    })
}

/// [`decode_sweep`] from raw request text: the shape the `/v1/jobs`
/// runner re-derives a resumed job's point list from.
pub(crate) fn decode_sweep_text(text: &str) -> Result<SweepSpec, String> {
    let value: Value =
        serde_json::from_str(text).map_err(|e| format!("malformed JSON body: {e}"))?;
    decode_sweep(&value).map_err(|e| e.message)
}

/// Computes one sweep point — the `index`-th `(size, network, dataflow)`
/// triple in sweep order — and serializes its [`NetworkComparison`] to
/// the exact fragment a full sweep response would contain at that
/// position. Joining the fragments with `,` inside `[` `]` reproduces
/// `serde_json::to_string(&Vec<NetworkComparison>)` byte for byte, which
/// is what makes a resumed job's result identical to an uninterrupted
/// run.
pub(crate) fn sweep_point_fragment(
    state: &AppState,
    spec: &SweepSpec,
    index: usize,
) -> Result<String, arrayflex::ArrayFlexError> {
    let per_size = spec.networks.len() * spec.dataflows.len();
    let size = spec.sizes[index / per_size];
    let network = &spec.networks[(index % per_size) / spec.dataflows.len()];
    let dataflow = spec.dataflows[index % spec.dataflows.len()];
    let model = ArrayFlexModel::new(size, size)?.with_dataflow(dataflow);
    let conventional =
        model.plan_cached(&state.cache, network, spec.mapping, PlanKind::Conventional)?;
    let proposed = model.plan_cached(&state.cache, network, spec.mapping, PlanKind::ArrayFlex)?;
    let comparison =
        NetworkComparison::from_plans_for(dataflow, (*conventional).clone(), (*proposed).clone());
    Ok(serde_json::to_string(&comparison).expect("comparisons serialize to JSON"))
}

fn sweep(state: &AppState, value: &Value, cancel: &CancelToken) -> Result<HttpResponse, ApiError> {
    let spec = decode_sweep(value)?;
    // Fan the (size x network x dataflow x pipeline choice) plan jobs out
    // through the executor, serving each one from the shared plan cache.
    // Re-pairing in submission order reproduces `EvaluationSweep::run`
    // byte for byte. The cancel token is observed between plan jobs, so
    // an abandoned sweep stops within one job item.
    let executor = ParallelExecutor::new(spec.threads);
    let mut jobs =
        Vec::with_capacity(spec.sizes.len() * spec.networks.len() * spec.dataflows.len() * 2);
    for &size in &spec.sizes {
        for network in &spec.networks {
            for &dataflow in &spec.dataflows {
                jobs.push((size, network, dataflow, PlanKind::Conventional));
                jobs.push((size, network, dataflow, PlanKind::ArrayFlex));
            }
        }
    }
    let plans = executor.try_run_cancellable(jobs, cancel, |(size, network, dataflow, kind)| {
        let model = ArrayFlexModel::new(size, size)?.with_dataflow(dataflow);
        model
            .plan_cached(&state.cache, network, spec.mapping, kind)
            .map(|plan| (dataflow, plan))
    })?;
    let mut comparisons = Vec::with_capacity(plans.len() / 2);
    let mut plans = plans.into_iter();
    while let (Some((dataflow, conventional)), Some((_, proposed))) = (plans.next(), plans.next()) {
        comparisons.push(NetworkComparison::from_plans_for(
            dataflow,
            (*conventional).clone(),
            (*proposed).clone(),
        ));
    }
    Ok(HttpResponse::json(
        state.sized_json_body(BodyRoute::Sweep, &comparisons),
    ))
}

// ---------------------------------------------------------------------------
// /v1/jobs
// ---------------------------------------------------------------------------

/// The status document of one job, also used (with a 202) as the
/// submission response.
fn job_status_response(entry: &JobEntry) -> HttpResponse {
    let (status, completed, total, error) = entry.snapshot();
    let mut fields = vec![
        ("id".to_owned(), Value::Str(entry.id().to_owned())),
        ("tenant".to_owned(), Value::Str(entry.tenant().to_owned())),
        ("status".to_owned(), Value::Str(status.as_str().to_owned())),
        ("points".to_owned(), Value::UInt(total as u64)),
        ("completed".to_owned(), Value::UInt(completed as u64)),
    ];
    if !error.is_empty() {
        fields.push(("error".to_owned(), Value::Str(error)));
    }
    let body = serde_json::to_string(&Value::Object(fields)).expect("status serializes to JSON");
    HttpResponse::json(body.into_bytes())
}

/// `POST /v1/jobs`: validates the sweep body, admits it against the
/// tenant's active-job cap, and spawns the checkpointed runner. Answers
/// `202 Accepted` with the job's status document.
fn jobs_submit(state: &AppState, request: &HttpRequest, tenant: Option<&str>) -> HttpResponse {
    let tenant = tenant.unwrap_or("anonymous");
    let text = match std::str::from_utf8(&request.body) {
        Ok(text) => text,
        Err(_) => return HttpResponse::error(400, "request body is not valid UTF-8"),
    };
    let value: Value = match serde_json::from_str(text) {
        Ok(value) => value,
        Err(e) => return HttpResponse::error(400, &format!("malformed JSON body: {e}")),
    };
    let spec = match decode_sweep(&value) {
        Ok(spec) => spec,
        Err(e) => return e.into_response(),
    };
    let cap = state.tenant_max_jobs;
    if cap != 0 && state.jobs.active_for(tenant) >= cap {
        state.metrics.note_tenant_shed(tenant);
        return HttpResponse::error(
            429,
            &format!("tenant {tenant} already has {cap} active jobs; retry after one completes"),
        );
    }
    match state.jobs.submit(tenant, text.to_owned(), spec.points()) {
        Ok(entry) => {
            state.metrics.note_job_submitted();
            state.metrics.note_job_started(tenant);
            let mut response = job_status_response(&entry);
            response.status = 202;
            response
        }
        Err(message) => HttpResponse::error(503, message),
    }
}

/// `GET /v1/jobs/{id}` (status document) and `GET /v1/jobs/{id}/result`
/// (the completed sweep body, byte-identical to `/v1/sweep`; `409` while
/// the job is running or after cancellation, `500` after a failure).
fn jobs_get(state: &AppState, path: &str) -> HttpResponse {
    let rest = &path["/v1/jobs/".len()..];
    let (id, want_result) = match rest.strip_suffix("/result") {
        Some(id) => (id, true),
        None => (rest, false),
    };
    let Some(entry) = state.jobs.get(id) else {
        return HttpResponse::error(404, &format!("no job {id}"));
    };
    if !want_result {
        return job_status_response(&entry);
    }
    match entry.result() {
        Some(body) => HttpResponse::json(body),
        None => {
            let (status, completed, total, error) = entry.snapshot();
            match status.as_str() {
                "running" => HttpResponse::error(
                    409,
                    &format!("job {id} still running ({completed}/{total} points)"),
                ),
                "cancelled" => HttpResponse::error(
                    409,
                    &format!("job {id} was cancelled after {completed}/{total} points"),
                ),
                _ => HttpResponse::error(500, &format!("job {id} failed: {error}")),
            }
        }
    }
}

/// `DELETE /v1/jobs/{id}`: cooperative cancellation. The job's token
/// fires immediately; its runner acknowledges at the next point boundary
/// and checkpoints the terminal state. Deleting a terminal job is a
/// no-op returning its current status.
fn jobs_delete(state: &AppState, path: &str) -> HttpResponse {
    let id = &path["/v1/jobs/".len()..];
    let Some(entry) = state.jobs.get(id) else {
        return HttpResponse::error(404, &format!("no job {id}"));
    };
    entry.cancel_by_client();
    job_status_response(&entry)
}

/// The `EvaluationSweep` a sweep request is equivalent to (used by tests to
/// assert byte-identical responses).
#[must_use]
pub fn equivalent_sweep(
    sizes: &[u32],
    dataflows: &[Dataflow],
    mapping: DepthwiseMapping,
) -> EvaluationSweep {
    EvaluationSweep {
        array_sizes: sizes.to_vec(),
        dataflows: dataflows.to_vec(),
        mapping,
        threads: 1,
    }
}

// ---------------------------------------------------------------------------
// POST /v1/simulate
// ---------------------------------------------------------------------------

/// Response of `POST /v1/simulate`.
#[derive(Debug, Clone, PartialEq, Eq, Serialize, Deserialize)]
pub struct SimulateResponse {
    /// Array rows simulated.
    pub rows: u32,
    /// Array columns simulated.
    pub cols: u32,
    /// Pipeline collapsing depth.
    pub k: u32,
    /// Dataflow the array executed.
    pub dataflow: Dataflow,
    /// Streaming dimension of the random GEMM.
    pub t: u64,
    /// Reduction dimension of the random GEMM.
    pub n: u64,
    /// Output dimension of the random GEMM.
    pub m: u64,
    /// Seed the operands were generated from.
    pub seed: u64,
    /// Cycles measured by the register-level simulation.
    pub simulated_cycles: u64,
    /// Cycles predicted by Equations (1)-(4).
    pub predicted_cycles: u64,
    /// Whether the two cycle counts agree.
    pub cycles_match: bool,
    /// Whether the simulated product matched the reference GEMM.
    pub functionally_correct: bool,
    /// Useful multiply-accumulates the simulator counted.
    pub macs: u64,
    /// Array-sized tiles the GEMM decomposed into.
    pub tiles: u64,
}

/// One fully decoded and validated `/v1/simulate` request. Extracted from
/// the handler so the admission layer's gather window can decode requests
/// up front, group them by [`SimRequest::batch_key`] and run a whole batch
/// through `ParallelExecutor` — while the plain handler path stays the
/// composition of the same two steps, keeping responses byte-identical
/// whether a request was batched or not.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub(crate) struct SimRequest {
    rows: u32,
    cols: u32,
    k: u32,
    t: u64,
    n: u64,
    m: u64,
    seed: u64,
    dataflow: Dataflow,
}

impl SimRequest {
    /// Requests sharing this key simulate the same array configuration,
    /// so one batch can reuse one pooled-array working set.
    pub(crate) fn batch_key(self) -> (u32, u32, u32, Dataflow) {
        (self.rows, self.cols, self.k, self.dataflow)
    }
}

/// Decodes and validates one simulate request body.
pub(crate) fn decode_simulate(value: &Value) -> Result<SimRequest, ApiError> {
    let rows: u32 = decode(value, "rows")?;
    let cols: u32 = decode(value, "cols")?;
    let k: u32 = decode(value, "k")?;
    let t: u64 = decode(value, "t")?;
    let n: u64 = decode(value, "n")?;
    let m: u64 = decode(value, "m")?;
    let seed = decode_optional::<u64>(value, "seed")?.unwrap_or(0);
    let dataflow = decode_dataflow(value)?;
    if rows == 0 || cols == 0 || rows > MAX_SIM_EDGE || cols > MAX_SIM_EDGE {
        return Err(ApiError::bad_request(format!(
            "simulated array {rows}x{cols} outside the supported 1..={MAX_SIM_EDGE} range"
        )));
    }
    if t == 0 || n == 0 || m == 0 {
        return Err(ApiError::bad_request("GEMM dimensions must be non-zero"));
    }
    let macs = t.saturating_mul(n).saturating_mul(m);
    if macs > MAX_SIM_MACS {
        return Err(ApiError::bad_request(format!(
            "GEMM of {macs} MACs exceeds the cycle-accurate limit of {MAX_SIM_MACS}"
        )));
    }
    Ok(SimRequest {
        rows,
        cols,
        k,
        t,
        n,
        m,
        seed,
        dataflow,
    })
}

/// Runs one validated simulate request to its success response. The
/// cancel token is observed between simulated tiles, so an abandoned
/// simulation stops within one tile (and its pooled array is still
/// checked back in).
pub(crate) fn run_simulate(
    state: &AppState,
    req: SimRequest,
    cancel: &CancelToken,
) -> Result<HttpResponse, ApiError> {
    let model = ArrayFlexModel::new(req.rows, req.cols)?.with_dataflow(req.dataflow);
    let mut rng = SplitMix64::new(req.seed);
    let a = Matrix::random(req.t as usize, req.n as usize, &mut rng, -64, 63);
    let b = Matrix::random(req.n as usize, req.m as usize, &mut rng, -64, 63);
    let result = model.simulate_gemm_cancellable(state.sim_pool(), &a, &b, req.k, 1, cancel)?;
    let response = SimulateResponse {
        rows: req.rows,
        cols: req.cols,
        k: req.k,
        dataflow: req.dataflow,
        t: req.t,
        n: req.n,
        m: req.m,
        seed: req.seed,
        simulated_cycles: result.stats.total_cycles(),
        predicted_cycles: result.predicted.cycles,
        cycles_match: result.cycles_match(),
        functionally_correct: result.functionally_correct,
        macs: result.stats.macs,
        tiles: result.stats.tiles,
    };
    Ok(HttpResponse::json(
        state.sized_json_body(BodyRoute::Simulate, &response),
    ))
}

/// [`run_simulate`] with errors rendered to their wire responses (the
/// shape batch workers need).
pub(crate) fn simulate_response(
    state: &AppState,
    req: SimRequest,
    cancel: &CancelToken,
) -> HttpResponse {
    run_simulate(state, req, cancel).unwrap_or_else(ApiError::into_response)
}

fn simulate(
    state: &AppState,
    value: &Value,
    cancel: &CancelToken,
) -> Result<HttpResponse, ApiError> {
    run_simulate(state, decode_simulate(value)?, cancel)
}

#[cfg(test)]
mod tests {
    use super::*;

    fn state() -> AppState {
        AppState::new(&ServerConfig::default())
    }

    fn post(path: &str, body: &str) -> HttpRequest {
        HttpRequest {
            method: "POST".to_owned(),
            path: path.to_owned(),
            body: body.as_bytes().to_vec(),
        }
    }

    fn get(path: &str) -> HttpRequest {
        HttpRequest {
            method: "GET".to_owned(),
            path: path.to_owned(),
            body: Vec::new(),
        }
    }

    #[test]
    fn healthz_is_ok() {
        let response = handle(&state(), &get("/healthz"));
        assert_eq!(response.status, 200);
        assert_eq!(response.body, b"{\"status\":\"ok\"}");
    }

    #[test]
    fn plan_matches_the_direct_library_call_byte_for_byte() {
        let state = state();
        let request = post("/v1/plan", r#"{"network":"resnet34","rows":64,"cols":64}"#);
        let response = handle(&state, &request);
        assert_eq!(response.status, 200);
        let model = ArrayFlexModel::new(64, 64).unwrap();
        let direct = model
            .plan_arrayflex(&cnn::models::resnet34(), DepthwiseMapping::default())
            .unwrap();
        assert_eq!(
            response.body,
            serde_json::to_string(&direct).unwrap().into_bytes()
        );
        // The repeated request is served from the cache, byte-identically.
        let again = handle(&state, &request);
        assert_eq!(again.body, response.body);
        assert_eq!(state.cache().hits(), 1);
    }

    #[test]
    fn cold_plans_leave_the_hot_memo_entries_in_place() {
        let state = state();
        let hot = |rows: u32| {
            post(
                "/v1/plan",
                &format!(r#"{{"network":"resnet18","rows":{rows},"cols":16}}"#),
            )
        };
        for rows in 16..28 {
            assert_eq!(handle(&state, &hot(rows)).status, 200);
        }
        let before = state.metrics().rendered_hits();
        // Every tenth request plans a body never seen before; the other
        // 900 cycle through the 12 warmed bodies.
        for i in 0..1000u32 {
            let request = if i % 10 == 0 {
                post(
                    "/v1/plan",
                    &format!(
                        r#"{{"network":"resnet18","rows":{},"cols":32}}"#,
                        64 + i / 10
                    ),
                )
            } else {
                hot(16 + i % 12)
            };
            assert_eq!(handle(&state, &request).status, 200);
        }
        assert_eq!(state.metrics().rendered_hits() - before, 900);
    }

    #[test]
    fn plan_supports_conventional_fixed_and_mapping() {
        let state = state();
        let model = ArrayFlexModel::new(32, 32).unwrap();
        let net = cnn::models::mobilenet_v1();

        let conventional = handle(
            &state,
            &post(
                "/v1/plan",
                r#"{"network":"mobilenet_v1","rows":32,"cols":32,"design":"conventional"}"#,
            ),
        );
        assert_eq!(conventional.status, 200);
        let direct = model
            .plan_conventional(&net, DepthwiseMapping::default())
            .unwrap();
        assert_eq!(
            conventional.body,
            serde_json::to_string(&direct).unwrap().into_bytes()
        );

        let fixed = handle(
            &state,
            &post(
                "/v1/plan",
                r#"{"network":"mobilenet_v1","rows":32,"cols":32,"design":{"fixed":2},"mapping":"PerGroup"}"#,
            ),
        );
        assert_eq!(fixed.status, 200);
        let direct = model
            .plan_arrayflex_fixed(&net, DepthwiseMapping::PerGroup, 2)
            .unwrap();
        assert_eq!(
            fixed.body,
            serde_json::to_string(&direct).unwrap().into_bytes()
        );
    }

    #[test]
    fn plan_accepts_an_inline_network() {
        let state = state();
        let network = cnn::models::synthetic_cnn(2, 8, 16);
        let body = format!(
            r#"{{"network":{},"rows":16,"cols":16}}"#,
            serde_json::to_string(&network).unwrap()
        );
        let response = handle(&state, &post("/v1/plan", &body));
        assert_eq!(response.status, 200);
        let direct = ArrayFlexModel::new(16, 16)
            .unwrap()
            .plan_arrayflex(&network, DepthwiseMapping::default())
            .unwrap();
        assert_eq!(
            response.body,
            serde_json::to_string(&direct).unwrap().into_bytes()
        );
    }

    #[test]
    fn plan_rejects_bad_requests_with_structured_errors() {
        let state = state();
        for (body, needle) in [
            (r#"{"rows":8,"cols":8}"#, "missing field `network`"),
            (r#"{"network":"resnet34","cols":8}"#, "missing field `rows`"),
            (r#"{"network":"nope","rows":8,"cols":8}"#, "unknown network"),
            (r#"{"network":7,"rows":8,"cols":8}"#, "`network` must be"),
            (r#"{"network":"resnet34","rows":0,"cols":8}"#, "geometry"),
            (r#"{"network":"resnet34","rows":9999,"cols":8}"#, "geometry"),
            (
                r#"{"network":"resnet34","rows":8,"cols":8,"design":"nope"}"#,
                "`design` must be",
            ),
            (
                r#"{"network":"resnet34","rows":8,"cols":8,"design":{"fixed":77}}"#,
                "hardware model",
            ),
            (
                r#"{"network":"resnet34","rows":8,"cols":8,"mapping":"Sideways"}"#,
                "invalid field `mapping`",
            ),
        ] {
            let response = handle(&state, &post("/v1/plan", body));
            assert_eq!(response.status, 400, "body: {body}");
            let text = String::from_utf8(response.body).unwrap();
            assert!(text.contains(needle), "{text} missing {needle:?}");
            assert!(
                text.starts_with("{\"error\":{"),
                "unstructured error: {text}"
            );
        }
    }

    #[test]
    fn sweep_matches_evaluation_sweep_byte_for_byte() {
        let state = state();
        let request = post(
            "/v1/sweep",
            r#"{"array_sizes":[32,64],"networks":["resnet34","mobilenet_v1"],"threads":2}"#,
        );
        let response = handle(&state, &request);
        assert_eq!(response.status, 200);
        let networks = vec![cnn::models::resnet34(), cnn::models::mobilenet_v1()];
        let direct = equivalent_sweep(
            &[32, 64],
            &[Dataflow::WeightStationary],
            DepthwiseMapping::default(),
        )
        .run(&networks)
        .unwrap();
        assert_eq!(
            response.body,
            serde_json::to_string(&direct).unwrap().into_bytes()
        );
        // The sweep populated the plan cache: 2 sizes x 2 networks x 2 kinds.
        assert_eq!(state.cache().len(), 8);
        // A follow-up plan request for one of the pairs is a pure cache hit.
        let hits_before = state.cache().hits();
        let plan = handle(
            &state,
            &post("/v1/plan", r#"{"network":"resnet34","rows":32,"cols":32}"#),
        );
        assert_eq!(plan.status, 200);
        assert!(state.cache().hits() > hits_before);
    }

    #[test]
    fn sweep_returns_per_dataflow_results_for_the_same_request() {
        let state = state();
        let request = post(
            "/v1/sweep",
            r#"{"array_sizes":[32],"networks":["resnet34"],"dataflows":["weight_stationary","output_stationary"]}"#,
        );
        let response = handle(&state, &request);
        assert_eq!(response.status, 200);
        // Byte-identical to the library sweep with the same dataflow grid.
        let direct = equivalent_sweep(
            &[32],
            &[Dataflow::WeightStationary, Dataflow::OutputStationary],
            DepthwiseMapping::default(),
        )
        .run(&[cnn::models::resnet34()])
        .unwrap();
        assert_eq!(
            response.body,
            serde_json::to_string(&direct).unwrap().into_bytes()
        );
        // Both architectures are reported for the one (size, network) pair,
        // and they genuinely differ in modeled latency.
        let decoded: Vec<NetworkComparison> =
            serde_json::from_str(std::str::from_utf8(&response.body).unwrap()).unwrap();
        assert_eq!(decoded.len(), 2);
        assert_eq!(decoded[0].dataflow, Dataflow::WeightStationary);
        assert_eq!(decoded[1].dataflow, Dataflow::OutputStationary);
        assert_ne!(
            decoded[0].conventional.total_time(),
            decoded[1].conventional.total_time()
        );
        // The plan cache keys by dataflow: 1 size x 1 network x 2 dataflows
        // x 2 kinds.
        assert_eq!(state.cache().len(), 4);
        // Omitting `dataflows` is the weight-stationary sweep, so its two
        // plans are pure cache hits from the grid above.
        let hits_before = state.cache().hits();
        let ws_only = handle(
            &state,
            &post(
                "/v1/sweep",
                r#"{"array_sizes":[32],"networks":["resnet34"]}"#,
            ),
        );
        assert_eq!(ws_only.status, 200);
        assert_eq!(state.cache().hits(), hits_before + 2);
        let ws_decoded: Vec<NetworkComparison> =
            serde_json::from_str(std::str::from_utf8(&ws_only.body).unwrap()).unwrap();
        assert_eq!(ws_decoded.len(), 1);
        assert_eq!(ws_decoded[0], decoded[0]);
    }

    #[test]
    fn sweep_rejects_out_of_range_requests() {
        let state = state();
        for (body, needle) in [
            (
                r#"{"networks":["resnet34"]}"#,
                "missing field `array_sizes`",
            ),
            (
                r#"{"array_sizes":[],"networks":["resnet34"]}"#,
                "array_sizes",
            ),
            (r#"{"array_sizes":[16],"networks":[]}"#, "networks"),
            (
                r#"{"array_sizes":[16],"networks":"resnet34"}"#,
                "must be an array",
            ),
            (
                r#"{"array_sizes":[0],"networks":["resnet34"]}"#,
                "array size",
            ),
            (
                r#"{"array_sizes":[16],"networks":["resnet34"],"threads":99}"#,
                "`threads`",
            ),
            (
                r#"{"array_sizes":[16],"networks":["resnet34"],"dataflows":[]}"#,
                "`dataflows`",
            ),
            (
                r#"{"array_sizes":[16],"networks":["resnet34"],"dataflows":["sideways"]}"#,
                "invalid field `dataflows`",
            ),
        ] {
            let response = handle(&state, &post("/v1/sweep", body));
            assert_eq!(response.status, 400, "body: {body}");
            let text = String::from_utf8(response.body).unwrap();
            assert!(text.contains(needle), "{text} missing {needle:?}");
        }
    }

    #[test]
    fn response_buffers_learn_their_size_from_the_first_response() {
        let state = state();
        assert_eq!(state.body_estimate(BodyRoute::Plan), 0);
        let request = post("/v1/plan", r#"{"network":"resnet18","rows":32,"cols":32}"#);
        let first = handle(&state, &request);
        assert_eq!(first.status, 200);
        // The running estimate now matches the produced body, so the next
        // response of the route serializes into a buffer pre-sized to it
        // — and the bytes stay identical either way.
        assert_eq!(state.body_estimate(BodyRoute::Plan), first.body.len());
        let second = handle(&state, &request);
        assert_eq!(second.body, first.body);
        assert_eq!(state.body_estimate(BodyRoute::Plan), first.body.len());
    }

    #[test]
    fn simulate_cross_checks_the_analytical_model() {
        let state = state();
        assert!(state.sim_pool().is_empty());
        let response = handle(
            &state,
            &post(
                "/v1/simulate",
                r#"{"rows":8,"cols":8,"k":2,"t":6,"n":20,"m":10,"seed":5}"#,
            ),
        );
        assert_eq!(response.status, 200);
        // The request checked its simulator array back into the pool for
        // the next request of the same geometry.
        assert_eq!(state.sim_pool().len(), 1);
        let decoded: SimulateResponse =
            serde_json::from_str(std::str::from_utf8(&response.body).unwrap()).unwrap();
        assert!(decoded.cycles_match);
        assert!(decoded.functionally_correct);
        assert_eq!(decoded.simulated_cycles, decoded.predicted_cycles);
        assert!(decoded.macs > 0);
        assert!(decoded.tiles > 0);
        // Identical request, identical bytes (the operands are seeded and
        // the pooled simulator array is reset between requests).
        let again = handle(
            &state,
            &post(
                "/v1/simulate",
                r#"{"rows":8,"cols":8,"k":2,"t":6,"n":20,"m":10,"seed":5}"#,
            ),
        );
        assert_eq!(again.body, response.body);
        assert_eq!(state.sim_pool().len(), 1);
    }

    #[test]
    fn simulate_supports_the_output_stationary_dataflow() {
        let state = state();
        let response = handle(
            &state,
            &post(
                "/v1/simulate",
                r#"{"rows":8,"cols":8,"k":2,"t":6,"n":20,"m":10,"seed":5,"dataflow":"output_stationary"}"#,
            ),
        );
        assert_eq!(response.status, 200);
        let decoded: SimulateResponse =
            serde_json::from_str(std::str::from_utf8(&response.body).unwrap()).unwrap();
        assert_eq!(decoded.dataflow, Dataflow::OutputStationary);
        assert!(decoded.cycles_match);
        assert!(decoded.functionally_correct);
        // An invalid dataflow name is a structured 400.
        let bad = handle(
            &state,
            &post(
                "/v1/simulate",
                r#"{"rows":8,"cols":8,"k":2,"t":6,"n":20,"m":10,"dataflow":"sideways"}"#,
            ),
        );
        assert_eq!(bad.status, 400);
        assert!(String::from_utf8(bad.body)
            .unwrap()
            .contains("invalid field `dataflow`"));
    }

    #[test]
    fn simulate_is_size_capped() {
        let state = state();
        for body in [
            r#"{"rows":128,"cols":8,"k":1,"t":4,"n":4,"m":4}"#,
            r#"{"rows":8,"cols":8,"k":1,"t":4096,"n":4096,"m":4096}"#,
            r#"{"rows":8,"cols":8,"k":1,"t":0,"n":4,"m":4}"#,
        ] {
            let response = handle(&state, &post("/v1/simulate", body));
            assert_eq!(response.status, 400, "body: {body}");
        }
    }

    #[test]
    fn unknown_routes_and_methods_are_rejected() {
        let state = state();
        let response = handle(&state, &get("/v2/nothing"));
        assert_eq!(response.status, 404);
        assert!(String::from_utf8(response.body)
            .unwrap()
            .contains("/v2/nothing"));
        let response = handle(&state, &get("/v1/plan"));
        assert_eq!(response.status, 405);
        let response = handle(&state, &post("/healthz", "{}"));
        assert_eq!(response.status, 405);
        assert_eq!(route_label("/v1/plan"), "/v1/plan");
        assert_eq!(route_label("/v2/nothing"), "other");
    }

    #[test]
    fn malformed_json_is_a_structured_400() {
        let response = handle(&state(), &post("/v1/plan", "{not json"));
        assert_eq!(response.status, 400);
        let text = String::from_utf8(response.body).unwrap();
        assert!(text.contains("malformed JSON"), "{text}");
        let response = handle(
            &state(),
            &HttpRequest {
                method: "POST".to_owned(),
                path: "/v1/plan".to_owned(),
                body: vec![0xff, 0xfe],
            },
        );
        assert_eq!(response.status, 400);
        assert!(String::from_utf8(response.body).unwrap().contains("UTF-8"));
    }

    fn request(method: &str, path: &str) -> HttpRequest {
        HttpRequest {
            method: method.to_owned(),
            path: path.to_owned(),
            body: Vec::new(),
        }
    }

    fn temp_job_dir(tag: &str) -> std::path::PathBuf {
        let dir = std::env::temp_dir().join(format!(
            "af-api-jobs-{tag}-{}-{:?}",
            std::process::id(),
            std::thread::current().id()
        ));
        std::fs::create_dir_all(&dir).unwrap();
        dir
    }

    /// Polls a job's status document until it leaves `running`.
    fn await_terminal(state: &AppState, id: &str) -> Value {
        for _ in 0..2000 {
            let response = handle(state, &get(&format!("/v1/jobs/{id}")));
            assert_eq!(response.status, 200);
            let value: Value =
                serde_json::from_str(std::str::from_utf8(&response.body).unwrap()).unwrap();
            let status = match value.get("status") {
                Some(Value::Str(s)) => s.clone(),
                other => panic!("bad status field: {other:?}"),
            };
            if status != "running" {
                return value;
            }
            std::thread::sleep(std::time::Duration::from_millis(5));
        }
        panic!("job {id} never left running")
    }

    fn field_str(value: &Value, field: &str) -> String {
        match value.get(field) {
            Some(Value::Str(s)) => s.clone(),
            other => panic!("bad `{field}` field: {other:?}"),
        }
    }

    #[test]
    fn a_cancelled_sweep_answers_a_structured_503_with_partial_progress() {
        let state = state();
        let token = CancelToken::new();
        token.cancel("test cancellation");
        let request = post(
            "/v1/sweep",
            r#"{"array_sizes":[16],"networks":["resnet18"]}"#,
        );
        let (response, _) = handle_request(&state, &request, &token, None);
        assert_eq!(response.status, 503);
        let text = String::from_utf8(response.body).unwrap();
        assert!(text.contains("cancelled after 0/2 items"), "{text}");
        assert!(text.contains("test cancellation"), "{text}");
        assert!(text.starts_with("{\"error\":{"), "unstructured: {text}");
        // The executor and cache remain usable after the cancelled run.
        let ok = handle(&state, &request);
        assert_eq!(ok.status, 200);
        // A simulate under a pre-fired token also stops — and still
        // checks its pooled array state back in (nothing was taken).
        let (sim, _) = handle_request(
            &state,
            &post(
                "/v1/simulate",
                r#"{"rows":8,"cols":8,"k":2,"t":6,"n":20,"m":10}"#,
            ),
            &token,
            None,
        );
        assert_eq!(sim.status, 503);
    }

    #[test]
    fn a_job_result_is_byte_identical_to_the_synchronous_sweep() {
        let dir = temp_job_dir("roundtrip");
        let config = ServerConfig {
            job_dir: Some(dir.clone()),
            ..ServerConfig::default()
        };
        let state = AppState::shared(&config);
        let body = r#"{"array_sizes":[16,32],"networks":["resnet18"]}"#;
        let submit = handle(&state, &post("/v1/jobs", body));
        assert_eq!(submit.status, 202, "{:?}", String::from_utf8(submit.body));
        let value: Value =
            serde_json::from_str(std::str::from_utf8(&submit.body).unwrap()).unwrap();
        let id = field_str(&value, "id");
        assert_eq!(field_str(&value, "tenant"), "anonymous");
        assert_eq!(state.metrics().jobs_submitted(), 1);

        let terminal = await_terminal(&state, &id);
        assert_eq!(field_str(&terminal, "status"), "completed");
        // Join the runner: the final checkpoint and counters land before
        // the assertions below read them.
        state.jobs().shutdown();
        let result = handle(&state, &get(&format!("/v1/jobs/{id}/result")));
        assert_eq!(result.status, 200);
        let sweep = handle(&state, &post("/v1/sweep", body));
        assert_eq!(sweep.status, 200);
        assert_eq!(
            result.body, sweep.body,
            "job result differs from the synchronous sweep"
        );
        assert_eq!(state.metrics().jobs_completed(), 1);
        assert_eq!(state.metrics().tenant_active_jobs("anonymous"), 0);

        // The terminal checkpoint survives on disk with completed status.
        let text = std::fs::read_to_string(dir.join(format!("{id}.json"))).unwrap();
        assert!(text.contains("\"completed\""), "{text}");
        // Unknown ids are 404; wrong methods on the collection are 405.
        assert_eq!(handle(&state, &get("/v1/jobs/nope")).status, 404);
        assert_eq!(handle(&state, &request("PUT", "/v1/jobs")).status, 405);
        assert_eq!(
            handle(&state, &request("PUT", &format!("/v1/jobs/{id}"))).status,
            405
        );
        std::fs::remove_dir_all(&dir).unwrap();
    }

    #[test]
    fn a_running_checkpoint_resumes_and_completes_byte_identically() {
        let dir = temp_job_dir("resume");
        let body = r#"{"array_sizes":[16],"networks":["resnet18","mobilenet_v1"]}"#;
        // Reference run on a throwaway state.
        let reference = state();
        let sweep = handle(&reference, &post("/v1/sweep", body));
        assert_eq!(sweep.status, 200);
        // Handwrite the checkpoint a killed server would have left: one of
        // the two points completed, status still running.
        let spec = decode_sweep_text(body).unwrap();
        assert_eq!(spec.points(), 2);
        let first = sweep_point_fragment(&reference, &spec, 0).unwrap();
        let checkpoint = format!(
            r#"{{"id":"resumejob","tenant":"acme","status":"running","total":2,"request":{},"fragments":[{}],"error":""}}"#,
            serde_json::to_string(body).unwrap(),
            serde_json::to_string(&first).unwrap(),
        );
        std::fs::write(dir.join("resumejob.json"), checkpoint).unwrap();

        let config = ServerConfig {
            job_dir: Some(dir.clone()),
            ..ServerConfig::default()
        };
        let state = AppState::shared(&config);
        assert_eq!(state.metrics().jobs_resumed(), 1);
        let terminal = await_terminal(&state, "resumejob");
        assert_eq!(field_str(&terminal, "status"), "completed");
        state.jobs().shutdown();
        let result = handle(&state, &get("/v1/jobs/resumejob/result"));
        assert_eq!(result.status, 200);
        assert_eq!(
            result.body, sweep.body,
            "resumed job result differs from an uninterrupted run"
        );
        std::fs::remove_dir_all(&dir).unwrap();
    }

    #[test]
    fn deleting_a_job_cancels_it_cooperatively() {
        let dir = temp_job_dir("delete");
        let config = ServerConfig {
            job_dir: Some(dir.clone()),
            ..ServerConfig::default()
        };
        let state = AppState::shared(&config);
        // Enough points that the DELETE almost always lands mid-run.
        let body = r#"{"array_sizes":[64,128,256,512,1024,2048,4096,33],"networks":["resnet50","vgg16","resnet34","convnext_tiny"]}"#;
        let submit = handle(&state, &post("/v1/jobs", body));
        assert_eq!(submit.status, 202);
        let value: Value =
            serde_json::from_str(std::str::from_utf8(&submit.body).unwrap()).unwrap();
        let id = field_str(&value, "id");
        let deleted = handle(&state, &request("DELETE", &format!("/v1/jobs/{id}")));
        assert_eq!(deleted.status, 200);
        let terminal = await_terminal(&state, &id);
        let status = field_str(&terminal, "status");
        state.jobs().shutdown();
        // The job may have completed before the DELETE landed; both
        // outcomes must be coherent, and a cancelled job has no result.
        if status == "cancelled" {
            let result = handle(&state, &get(&format!("/v1/jobs/{id}/result")));
            assert_eq!(result.status, 409);
            assert_eq!(state.metrics().jobs_cancelled(), 1);
            assert_eq!(state.metrics().cancelled("job"), 1);
        } else {
            assert_eq!(status, "completed");
        }
        assert_eq!(state.metrics().tenant_active_jobs("anonymous"), 0);
        // Deleting a terminal job is an idempotent no-op.
        let again = handle(&state, &request("DELETE", &format!("/v1/jobs/{id}")));
        assert_eq!(again.status, 200);
        std::fs::remove_dir_all(&dir).unwrap();
    }

    #[test]
    fn job_submission_enforces_the_tenant_active_job_cap() {
        let dir = temp_job_dir("cap");
        let config = ServerConfig {
            job_dir: Some(dir.clone()),
            tenant_max_jobs: 1,
            ..ServerConfig::default()
        };
        let state = AppState::shared(&config);
        let body = r#"{"array_sizes":[64,128,256,512,1024,2048,4096,33],"networks":["resnet50","vgg16","resnet34","convnext_tiny"]}"#;
        let first = handle(&state, &post("/v1/jobs", body));
        assert_eq!(first.status, 202);
        let second = handle(&state, &post("/v1/jobs", body));
        if second.status == 429 {
            assert_eq!(state.metrics().tenant_sheds("anonymous"), 1);
        } else {
            // The first job finished before the second submit: no shed.
            assert_eq!(second.status, 202);
        }
        // A malformed job body is rejected up front, not accepted-then-failed.
        let bad = handle(&state, &post("/v1/jobs", r#"{"array_sizes":[]}"#));
        assert_eq!(bad.status, 400);
        // Unattached states (AppState::new, no Arc) refuse submissions.
        let plain = AppState::new(&ServerConfig::default());
        let refused = handle(
            &plain,
            &post(
                "/v1/jobs",
                r#"{"array_sizes":[16],"networks":["resnet18"]}"#,
            ),
        );
        assert_eq!(refused.status, 503);
        // Join the runners (any still-running job checkpoints as
        // `running` and would resume on a restart) before cleanup.
        state.jobs().shutdown();
        std::fs::remove_dir_all(&dir).unwrap();
    }

    #[test]
    fn metrics_render_after_traffic() {
        let state = state();
        let plan = post("/v1/plan", r#"{"network":"resnet34","rows":16,"cols":16}"#);
        // handle() itself does not record metrics (the connection loop
        // does), so record explicitly like the loop would.
        let response = handle(&state, &plan);
        state.metrics().observe(
            route_label(&plan.path),
            response.status,
            std::time::Duration::from_micros(42),
        );
        let rendered = handle(&state, &get("/metrics"));
        assert_eq!(rendered.status, 200);
        let text = String::from_utf8(rendered.body).unwrap();
        assert!(
            text.contains("arrayflex_serve_requests_total{route=\"/v1/plan\",status=\"200\"} 1")
        );
        assert!(text.contains("arrayflex_serve_plan_cache_misses_total 1"));
    }
}
