//! Request metrics with Prometheus text-format rendering.
//!
//! Three instrument families, all lock-free on the hot path except the
//! per-(route, status) counter map (a short-lived mutex over a small
//! `BTreeMap`):
//!
//! * `arrayflex_serve_requests_total{route,status}` — request counter;
//! * `arrayflex_serve_request_duration_us` — cumulative latency histogram
//!   with fixed microsecond buckets;
//! * `arrayflex_serve_plan_cache_{hits,misses,evictions}_total`,
//!   `arrayflex_serve_plan_cache_{entries,hit_rate}` and the per-shard
//!   `arrayflex_serve_plan_cache_shard_*_total{shard}` family — read from
//!   the plan cache at scrape time.
//!
//! Beside the serving-layer counters and gauges, one info sample,
//! `arrayflex_serve_sim_lane_kernel_info{kernel}`, names the
//! multiply-accumulate body ([`gemm::lanes::kernel`]) the simulator runs
//! on this host.

use arrayflex::{CacheShardStats, PlanCache};
use std::collections::BTreeMap;
use std::fmt::Write as _;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::Mutex;
use std::time::Duration;

/// Upper bounds (in microseconds) of the latency histogram buckets; a
/// `+Inf` bucket is implicit.
pub const LATENCY_BUCKETS_US: [u64; 10] = [
    50, 100, 250, 500, 1_000, 2_500, 5_000, 10_000, 50_000, 250_000,
];

/// Thread-safe request metrics.
#[derive(Debug, Default)]
pub struct Metrics {
    requests: Mutex<BTreeMap<(String, u16), u64>>,
    latency_buckets: [AtomicU64; LATENCY_BUCKETS_US.len() + 1],
    latency_sum_us: AtomicU64,
    latency_count: AtomicU64,
    open_connections: AtomicU64,
    event_loops: AtomicU64,
    handler_workers: AtomicU64,
    accept_queue: AtomicU64,
    idle_closed: AtomicU64,
    rendered_hits: AtomicU64,
    sheds: Mutex<BTreeMap<String, u64>>,
    panics: AtomicU64,
    deadline_expired: AtomicU64,
    accept_backoffs: AtomicU64,
    cancelled: Mutex<BTreeMap<String, u64>>,
    tenant_sheds: Mutex<BTreeMap<String, u64>>,
    tenant_jobs: Mutex<BTreeMap<String, u64>>,
    jobs_submitted: AtomicU64,
    jobs_resumed: AtomicU64,
    jobs_completed: AtomicU64,
    jobs_cancelled: AtomicU64,
    jobs_failed: AtomicU64,
    jobs_checkpoint_failed: AtomicU64,
}

/// Locks a metrics mutex, recovering the data if a panicking thread
/// poisoned it: counters have no cross-key invariants, so the inner map
/// is always safe to keep using and losing all metrics over one caught
/// panic would be worse.
fn lock_counters<T>(mutex: &Mutex<T>) -> std::sync::MutexGuard<'_, T> {
    mutex.lock().unwrap_or_else(|e| e.into_inner())
}

impl Metrics {
    /// Creates empty metrics.
    #[must_use]
    pub fn new() -> Self {
        Self::default()
    }

    /// Records one served request.
    pub fn observe(&self, route: &str, status: u16, latency: Duration) {
        {
            let mut requests = lock_counters(&self.requests);
            *requests.entry((route.to_owned(), status)).or_insert(0) += 1;
        }
        let micros = u64::try_from(latency.as_micros()).unwrap_or(u64::MAX);
        let bucket = LATENCY_BUCKETS_US
            .iter()
            .position(|&bound| micros <= bound)
            .unwrap_or(LATENCY_BUCKETS_US.len());
        self.latency_buckets[bucket].fetch_add(1, Ordering::Relaxed);
        self.latency_sum_us.fetch_add(micros, Ordering::Relaxed);
        self.latency_count.fetch_add(1, Ordering::Relaxed);
    }

    /// Total number of requests recorded for one (route, status) pair.
    #[must_use]
    pub fn requests(&self, route: &str, status: u16) -> u64 {
        lock_counters(&self.requests)
            .get(&(route.to_owned(), status))
            .copied()
            .unwrap_or(0)
    }

    /// Total number of requests recorded across all routes and statuses.
    #[must_use]
    pub fn total_requests(&self) -> u64 {
        self.latency_count.load(Ordering::Relaxed)
    }

    /// Records a connection opened by the event loop.
    pub fn note_connection_opened(&self) {
        self.open_connections.fetch_add(1, Ordering::Relaxed);
    }

    /// Records a connection closed by the event loop.
    pub fn note_connection_closed(&self) {
        self.open_connections.fetch_sub(1, Ordering::Relaxed);
    }

    /// Connections currently open on the event loops.
    #[must_use]
    pub fn open_connections(&self) -> u64 {
        self.open_connections.load(Ordering::Relaxed)
    }

    /// Records the resolved thread pool sizes the server started with.
    pub fn note_pool_sizes(&self, event_loops: usize, handler_workers: usize) {
        self.event_loops
            .store(event_loops as u64, Ordering::Relaxed);
        self.handler_workers
            .store(handler_workers as u64, Ordering::Relaxed);
    }

    /// Event-loop threads the server runs (0 before it starts).
    #[must_use]
    pub fn event_loops(&self) -> u64 {
        self.event_loops.load(Ordering::Relaxed)
    }

    /// Handler worker threads the server runs (0 before it starts).
    #[must_use]
    pub fn handler_workers(&self) -> u64 {
        self.handler_workers.load(Ordering::Relaxed)
    }

    /// Records a connection queued from the acceptor toward an event loop.
    pub fn note_accept_enqueued(&self) {
        self.accept_queue.fetch_add(1, Ordering::Relaxed);
    }

    /// Records a queued connection picked up by its event loop.
    pub fn note_accept_dequeued(&self) {
        self.accept_queue.fetch_sub(1, Ordering::Relaxed);
    }

    /// Accepted connections still waiting for their event loop.
    #[must_use]
    pub fn accept_queue_depth(&self) -> u64 {
        self.accept_queue.load(Ordering::Relaxed)
    }

    /// Records a keep-alive connection closed by the idle deadline.
    pub fn note_idle_closed(&self) {
        self.idle_closed.fetch_add(1, Ordering::Relaxed);
    }

    /// Keep-alive connections closed by the idle deadline so far.
    #[must_use]
    pub fn idle_closed(&self) -> u64 {
        self.idle_closed.load(Ordering::Relaxed)
    }

    /// Requests coalesced onto an identical in-flight request: always 0.
    /// The server runs every request on its own, so nothing coalesces;
    /// the accessor stays because `perfbench` reads it for its
    /// `admission.coalesced` metric.
    #[must_use]
    pub fn coalesced(&self, _route: &str) -> u64 {
        0
    }

    /// Records one `/v1/plan` request answered from the rendered-response
    /// memo (no planning, no key canonicalization, no serialization).
    pub fn note_rendered_hit(&self) {
        self.rendered_hits.fetch_add(1, Ordering::Relaxed);
    }

    /// Requests answered from the rendered-response memo so far.
    #[must_use]
    pub fn rendered_hits(&self) -> u64 {
        self.rendered_hits.load(Ordering::Relaxed)
    }

    /// Records one request shed by admission control (answered 503
    /// without running its computation), by route.
    pub fn note_shed(&self, route: &str) {
        *lock_counters(&self.sheds)
            .entry(route.to_owned())
            .or_insert(0) += 1;
    }

    /// Requests shed for one route label.
    #[must_use]
    pub fn sheds(&self, route: &str) -> u64 {
        lock_counters(&self.sheds).get(route).copied().unwrap_or(0)
    }

    /// Requests shed across all routes.
    #[must_use]
    pub fn total_sheds(&self) -> u64 {
        lock_counters(&self.sheds).values().sum()
    }

    /// Records one handler panic caught and converted into a structured
    /// 500 (the worker survived).
    pub fn note_panic(&self) {
        self.panics.fetch_add(1, Ordering::Relaxed);
    }

    /// Handler panics caught so far.
    #[must_use]
    pub fn panics(&self) -> u64 {
        self.panics.load(Ordering::Relaxed)
    }

    /// Records one request answered 503 because its deadline expired
    /// before a worker picked it up.
    pub fn note_deadline_expired(&self) {
        self.deadline_expired.fetch_add(1, Ordering::Relaxed);
    }

    /// Requests expired by the per-request deadline so far.
    #[must_use]
    pub fn deadline_expired(&self) -> u64 {
        self.deadline_expired.load(Ordering::Relaxed)
    }

    /// Records the accept loop backing off after a persistent accept
    /// error (EMFILE-class fd exhaustion).
    pub fn note_accept_backoff(&self) {
        self.accept_backoffs.fetch_add(1, Ordering::Relaxed);
    }

    /// Accept-loop backoffs so far.
    #[must_use]
    pub fn accept_backoffs(&self) -> u64 {
        self.accept_backoffs.load(Ordering::Relaxed)
    }

    /// Records one computation stopped through its cancel token, by cause
    /// (`deadline`, `disconnect`, `job`, `shutdown`).
    pub fn note_cancelled(&self, cause: &str) {
        *lock_counters(&self.cancelled)
            .entry(cause.to_owned())
            .or_insert(0) += 1;
    }

    /// Cancellations recorded for one cause label.
    #[must_use]
    pub fn cancelled(&self, cause: &str) -> u64 {
        lock_counters(&self.cancelled)
            .get(cause)
            .copied()
            .unwrap_or(0)
    }

    /// Cancellations recorded across all causes.
    #[must_use]
    pub fn total_cancelled(&self) -> u64 {
        lock_counters(&self.cancelled).values().sum()
    }

    /// Records one request shed by the per-tenant token bucket (429).
    pub fn note_tenant_shed(&self, tenant: &str) {
        *lock_counters(&self.tenant_sheds)
            .entry(tenant.to_owned())
            .or_insert(0) += 1;
    }

    /// Requests shed by quota for one tenant label.
    #[must_use]
    pub fn tenant_sheds(&self, tenant: &str) -> u64 {
        lock_counters(&self.tenant_sheds)
            .get(tenant)
            .copied()
            .unwrap_or(0)
    }

    /// Records a job entering the running set for `tenant` (gauge up).
    pub fn note_job_started(&self, tenant: &str) {
        *lock_counters(&self.tenant_jobs)
            .entry(tenant.to_owned())
            .or_insert(0) += 1;
    }

    /// Records a job leaving the running set for `tenant` (gauge down).
    pub fn note_job_finished(&self, tenant: &str) {
        let mut jobs = lock_counters(&self.tenant_jobs);
        if let Some(count) = jobs.get_mut(tenant) {
            *count = count.saturating_sub(1);
        }
    }

    /// Jobs currently running or resumable for one tenant label.
    #[must_use]
    pub fn tenant_active_jobs(&self, tenant: &str) -> u64 {
        lock_counters(&self.tenant_jobs)
            .get(tenant)
            .copied()
            .unwrap_or(0)
    }

    /// Records one job accepted through `POST /v1/jobs`.
    pub fn note_job_submitted(&self) {
        self.jobs_submitted.fetch_add(1, Ordering::Relaxed);
    }

    /// Jobs accepted so far.
    #[must_use]
    pub fn jobs_submitted(&self) -> u64 {
        self.jobs_submitted.load(Ordering::Relaxed)
    }

    /// Records one incomplete job resumed from its checkpoint at warm
    /// start.
    pub fn note_job_resumed(&self) {
        self.jobs_resumed.fetch_add(1, Ordering::Relaxed);
    }

    /// Jobs resumed from checkpoints so far.
    #[must_use]
    pub fn jobs_resumed(&self) -> u64 {
        self.jobs_resumed.load(Ordering::Relaxed)
    }

    /// Records one job that ran to completion.
    pub fn note_job_completed(&self) {
        self.jobs_completed.fetch_add(1, Ordering::Relaxed);
    }

    /// Jobs completed so far.
    #[must_use]
    pub fn jobs_completed(&self) -> u64 {
        self.jobs_completed.load(Ordering::Relaxed)
    }

    /// Records one job cancelled through `DELETE /v1/jobs/{id}`.
    pub fn note_job_cancelled(&self) {
        self.jobs_cancelled.fetch_add(1, Ordering::Relaxed);
    }

    /// Jobs cancelled so far.
    #[must_use]
    pub fn jobs_cancelled(&self) -> u64 {
        self.jobs_cancelled.load(Ordering::Relaxed)
    }

    /// Records one job that stopped on an execution error.
    pub fn note_job_failed(&self) {
        self.jobs_failed.fetch_add(1, Ordering::Relaxed);
    }

    /// Jobs failed so far.
    #[must_use]
    pub fn jobs_failed(&self) -> u64 {
        self.jobs_failed.load(Ordering::Relaxed)
    }

    /// Records one job checkpoint that could not be written (the job keeps
    /// running in memory).
    pub fn note_job_checkpoint_failed(&self) {
        self.jobs_checkpoint_failed.fetch_add(1, Ordering::Relaxed);
    }

    /// Job checkpoint writes that failed so far.
    #[must_use]
    pub fn jobs_checkpoint_failed(&self) -> u64 {
        self.jobs_checkpoint_failed.load(Ordering::Relaxed)
    }

    /// Renders every metric in the Prometheus text exposition format.
    #[must_use]
    pub fn render_prometheus(&self, cache: &PlanCache) -> String {
        let mut out = String::new();
        out.push_str(
            "# HELP arrayflex_serve_requests_total Requests served, by route and status.\n",
        );
        out.push_str("# TYPE arrayflex_serve_requests_total counter\n");
        for ((route, status), count) in lock_counters(&self.requests).iter() {
            let _ = writeln!(
                out,
                "arrayflex_serve_requests_total{{route=\"{route}\",status=\"{status}\"}} {count}"
            );
        }

        out.push_str(
            "# HELP arrayflex_serve_request_duration_us Request latency in microseconds.\n",
        );
        out.push_str("# TYPE arrayflex_serve_request_duration_us histogram\n");
        let mut cumulative = 0u64;
        for (index, &bound) in LATENCY_BUCKETS_US.iter().enumerate() {
            cumulative += self.latency_buckets[index].load(Ordering::Relaxed);
            let _ = writeln!(
                out,
                "arrayflex_serve_request_duration_us_bucket{{le=\"{bound}\"}} {cumulative}"
            );
        }
        cumulative += self.latency_buckets[LATENCY_BUCKETS_US.len()].load(Ordering::Relaxed);
        let _ = writeln!(
            out,
            "arrayflex_serve_request_duration_us_bucket{{le=\"+Inf\"}} {cumulative}"
        );
        let _ = writeln!(
            out,
            "arrayflex_serve_request_duration_us_sum {}",
            self.latency_sum_us.load(Ordering::Relaxed)
        );
        let _ = writeln!(
            out,
            "arrayflex_serve_request_duration_us_count {}",
            self.latency_count.load(Ordering::Relaxed)
        );

        out.push_str("# HELP arrayflex_serve_plan_cache_hits_total Plan cache hits.\n");
        out.push_str("# TYPE arrayflex_serve_plan_cache_hits_total counter\n");
        let _ = writeln!(
            out,
            "arrayflex_serve_plan_cache_hits_total {}",
            cache.hits()
        );
        out.push_str("# HELP arrayflex_serve_plan_cache_misses_total Plan cache misses.\n");
        out.push_str("# TYPE arrayflex_serve_plan_cache_misses_total counter\n");
        let _ = writeln!(
            out,
            "arrayflex_serve_plan_cache_misses_total {}",
            cache.misses()
        );
        out.push_str("# HELP arrayflex_serve_plan_cache_evictions_total Plans evicted by capacity pressure.\n");
        out.push_str("# TYPE arrayflex_serve_plan_cache_evictions_total counter\n");
        let _ = writeln!(
            out,
            "arrayflex_serve_plan_cache_evictions_total {}",
            cache.evictions()
        );
        out.push_str(
            "# HELP arrayflex_serve_plan_cache_entries Plans currently resident in the cache.\n",
        );
        out.push_str("# TYPE arrayflex_serve_plan_cache_entries gauge\n");
        let _ = writeln!(out, "arrayflex_serve_plan_cache_entries {}", cache.len());
        out.push_str("# HELP arrayflex_serve_plan_cache_hit_rate Fraction of plan lookups served from the cache.\n");
        out.push_str("# TYPE arrayflex_serve_plan_cache_hit_rate gauge\n");
        let _ = writeln!(
            out,
            "arrayflex_serve_plan_cache_hit_rate {}",
            cache.hit_rate()
        );

        out.push_str("# HELP arrayflex_serve_open_connections Connections currently open on the event loops.\n");
        out.push_str("# TYPE arrayflex_serve_open_connections gauge\n");
        let _ = writeln!(
            out,
            "arrayflex_serve_open_connections {}",
            self.open_connections.load(Ordering::Relaxed)
        );
        out.push_str(
            "# HELP arrayflex_serve_event_loops Event-loop threads framing connections.\n",
        );
        out.push_str("# TYPE arrayflex_serve_event_loops gauge\n");
        let _ = writeln!(out, "arrayflex_serve_event_loops {}", self.event_loops());
        out.push_str("# HELP arrayflex_serve_handler_workers Handler worker threads the event loops hand requests to.\n");
        out.push_str("# TYPE arrayflex_serve_handler_workers gauge\n");
        let _ = writeln!(
            out,
            "arrayflex_serve_handler_workers {}",
            self.handler_workers()
        );
        out.push_str("# HELP arrayflex_serve_accept_queue_depth Accepted connections awaiting their event loop.\n");
        out.push_str("# TYPE arrayflex_serve_accept_queue_depth gauge\n");
        let _ = writeln!(
            out,
            "arrayflex_serve_accept_queue_depth {}",
            self.accept_queue.load(Ordering::Relaxed)
        );
        out.push_str("# HELP arrayflex_serve_idle_closed_total Keep-alive connections closed by the idle deadline.\n");
        out.push_str("# TYPE arrayflex_serve_idle_closed_total counter\n");
        let _ = writeln!(
            out,
            "arrayflex_serve_idle_closed_total {}",
            self.idle_closed.load(Ordering::Relaxed)
        );
        out.push_str("# HELP arrayflex_serve_rendered_hits_total Plan requests answered from the rendered-response memo.\n");
        out.push_str("# TYPE arrayflex_serve_rendered_hits_total counter\n");
        let _ = writeln!(
            out,
            "arrayflex_serve_rendered_hits_total {}",
            self.rendered_hits.load(Ordering::Relaxed)
        );
        out.push_str("# HELP arrayflex_serve_sim_lane_kernel_info Multiply-accumulate lane kernel the simulator runs on this host (avx2 or scalar).\n");
        out.push_str("# TYPE arrayflex_serve_sim_lane_kernel_info gauge\n");
        let _ = writeln!(
            out,
            "arrayflex_serve_sim_lane_kernel_info{{kernel=\"{}\"}} 1",
            gemm::lanes::kernel()
        );
        out.push_str("# HELP arrayflex_serve_shed_total Requests shed by admission control (503 without computation), by route.\n");
        out.push_str("# TYPE arrayflex_serve_shed_total counter\n");
        for (route, count) in lock_counters(&self.sheds).iter() {
            let _ = writeln!(
                out,
                "arrayflex_serve_shed_total{{route=\"{route}\"}} {count}"
            );
        }
        out.push_str("# HELP arrayflex_serve_panics_total Handler panics caught and answered with a structured 500.\n");
        out.push_str("# TYPE arrayflex_serve_panics_total counter\n");
        let _ = writeln!(
            out,
            "arrayflex_serve_panics_total {}",
            self.panics.load(Ordering::Relaxed)
        );
        out.push_str("# HELP arrayflex_serve_deadline_expired_total Requests answered 503 because their deadline expired in the queue.\n");
        out.push_str("# TYPE arrayflex_serve_deadline_expired_total counter\n");
        let _ = writeln!(
            out,
            "arrayflex_serve_deadline_expired_total {}",
            self.deadline_expired.load(Ordering::Relaxed)
        );
        out.push_str("# HELP arrayflex_serve_accept_backoff_total Accept-loop backoffs after EMFILE-class accept errors.\n");
        out.push_str("# TYPE arrayflex_serve_accept_backoff_total counter\n");
        let _ = writeln!(
            out,
            "arrayflex_serve_accept_backoff_total {}",
            self.accept_backoffs.load(Ordering::Relaxed)
        );
        out.push_str("# HELP arrayflex_serve_cancelled_total Computations stopped through their cancel token, by cause.\n");
        out.push_str("# TYPE arrayflex_serve_cancelled_total counter\n");
        for (cause, count) in lock_counters(&self.cancelled).iter() {
            let _ = writeln!(
                out,
                "arrayflex_serve_cancelled_total{{cause=\"{cause}\"}} {count}"
            );
        }
        out.push_str("# HELP arrayflex_serve_tenant_shed_total Requests shed by the per-tenant token bucket (429), by tenant.\n");
        out.push_str("# TYPE arrayflex_serve_tenant_shed_total counter\n");
        for (tenant, count) in lock_counters(&self.tenant_sheds).iter() {
            let _ = writeln!(
                out,
                "arrayflex_serve_tenant_shed_total{{tenant=\"{tenant}\"}} {count}"
            );
        }
        out.push_str("# HELP arrayflex_serve_tenant_active_jobs Jobs currently running or resumable, by tenant.\n");
        out.push_str("# TYPE arrayflex_serve_tenant_active_jobs gauge\n");
        for (tenant, count) in lock_counters(&self.tenant_jobs).iter() {
            let _ = writeln!(
                out,
                "arrayflex_serve_tenant_active_jobs{{tenant=\"{tenant}\"}} {count}"
            );
        }
        for (name, help, value) in [
            (
                "jobs_submitted_total",
                "Jobs accepted through POST /v1/jobs.",
                self.jobs_submitted.load(Ordering::Relaxed),
            ),
            (
                "jobs_resumed_total",
                "Incomplete jobs resumed from checkpoints at warm start.",
                self.jobs_resumed.load(Ordering::Relaxed),
            ),
            (
                "jobs_completed_total",
                "Jobs that ran to completion.",
                self.jobs_completed.load(Ordering::Relaxed),
            ),
            (
                "jobs_cancelled_total",
                "Jobs cancelled through DELETE /v1/jobs.",
                self.jobs_cancelled.load(Ordering::Relaxed),
            ),
            (
                "jobs_failed_total",
                "Jobs that stopped on an execution error.",
                self.jobs_failed.load(Ordering::Relaxed),
            ),
            (
                "jobs_checkpoint_failed_total",
                "Job checkpoint writes that failed; the job keeps running in memory.",
                self.jobs_checkpoint_failed.load(Ordering::Relaxed),
            ),
        ] {
            let _ = writeln!(out, "# HELP arrayflex_serve_{name} {help}");
            let _ = writeln!(out, "# TYPE arrayflex_serve_{name} counter");
            let _ = writeln!(out, "arrayflex_serve_{name} {value}");
        }

        for (metric, help, pick) in SHARD_COUNTERS {
            let _ = writeln!(
                out,
                "# HELP arrayflex_serve_plan_cache_shard_{metric} {help}"
            );
            let _ = writeln!(
                out,
                "# TYPE arrayflex_serve_plan_cache_shard_{metric} counter"
            );
            for (shard, stats) in cache.shard_stats().iter().enumerate() {
                let _ = writeln!(
                    out,
                    "arrayflex_serve_plan_cache_shard_{metric}{{shard=\"{shard}\"}} {}",
                    pick(stats)
                );
            }
        }
        out
    }
}

/// The per-shard plan-cache counter families `/metrics` exposes: metric
/// suffix, HELP text, and the [`CacheShardStats`] field it reads.
type ShardCounter = (&'static str, &'static str, fn(&CacheShardStats) -> u64);
const SHARD_COUNTERS: [ShardCounter; 3] = [
    ("hits_total", "Plan cache hits, by shard.", |s| s.hits),
    ("misses_total", "Plan cache misses, by shard.", |s| s.misses),
    ("evictions_total", "Plan cache evictions, by shard.", |s| {
        s.evictions
    }),
];

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn counters_and_histogram_accumulate() {
        let metrics = Metrics::new();
        metrics.observe("/v1/plan", 200, Duration::from_micros(80));
        metrics.observe("/v1/plan", 200, Duration::from_micros(300));
        metrics.observe("/v1/plan", 400, Duration::from_micros(10));
        metrics.observe("/healthz", 200, Duration::from_secs(1));
        assert_eq!(metrics.requests("/v1/plan", 200), 2);
        assert_eq!(metrics.requests("/v1/plan", 400), 1);
        assert_eq!(metrics.requests("/healthz", 200), 1);
        assert_eq!(metrics.requests("/missing", 200), 0);
        assert_eq!(metrics.total_requests(), 4);
    }

    #[test]
    fn serving_gauges_and_coalesce_counters_accumulate() {
        let metrics = Metrics::new();
        metrics.note_connection_opened();
        metrics.note_connection_opened();
        metrics.note_connection_closed();
        assert_eq!(metrics.open_connections(), 1);
        metrics.note_accept_enqueued();
        assert_eq!(metrics.accept_queue_depth(), 1);
        metrics.note_accept_dequeued();
        assert_eq!(metrics.accept_queue_depth(), 0);
        metrics.note_idle_closed();
        assert_eq!(metrics.idle_closed(), 1);
        // Nothing coalesces; the accessor `perfbench` reads stays at 0.
        assert_eq!(metrics.coalesced("/v1/plan"), 0);
        metrics.note_shed("/v1/plan");
        metrics.note_shed("/v1/plan");
        metrics.note_shed("/v1/simulate");
        assert_eq!(metrics.sheds("/v1/plan"), 2);
        assert_eq!(metrics.sheds("/v1/simulate"), 1);
        assert_eq!(metrics.sheds("/healthz"), 0);
        assert_eq!(metrics.total_sheds(), 3);
        metrics.note_panic();
        assert_eq!(metrics.panics(), 1);
        metrics.note_deadline_expired();
        assert_eq!(metrics.deadline_expired(), 1);
        metrics.note_accept_backoff();
        assert_eq!(metrics.accept_backoffs(), 1);
        metrics.note_cancelled("deadline");
        metrics.note_cancelled("disconnect");
        metrics.note_cancelled("disconnect");
        assert_eq!(metrics.cancelled("deadline"), 1);
        assert_eq!(metrics.cancelled("disconnect"), 2);
        assert_eq!(metrics.cancelled("job"), 0);
        assert_eq!(metrics.total_cancelled(), 3);
        metrics.note_tenant_shed("acme");
        metrics.note_tenant_shed("acme");
        assert_eq!(metrics.tenant_sheds("acme"), 2);
        assert_eq!(metrics.tenant_sheds("other"), 0);
        metrics.note_job_started("acme");
        metrics.note_job_started("acme");
        metrics.note_job_finished("acme");
        metrics.note_job_finished("ghost"); // never started: stays at zero
        assert_eq!(metrics.tenant_active_jobs("acme"), 1);
        assert_eq!(metrics.tenant_active_jobs("ghost"), 0);
        metrics.note_job_submitted();
        metrics.note_job_resumed();
        metrics.note_job_completed();
        metrics.note_job_cancelled();
        metrics.note_job_failed();
        metrics.note_job_checkpoint_failed();
        assert_eq!(metrics.jobs_submitted(), 1);
        assert_eq!(metrics.jobs_resumed(), 1);
        assert_eq!(metrics.jobs_completed(), 1);
        assert_eq!(metrics.jobs_cancelled(), 1);
        assert_eq!(metrics.jobs_failed(), 1);
        assert_eq!(metrics.jobs_checkpoint_failed(), 1);
        let cache = PlanCache::new(4);
        let text = metrics.render_prometheus(&cache);
        assert!(text.contains("arrayflex_serve_open_connections 1"));
        assert!(text.contains("arrayflex_serve_shed_total{route=\"/v1/plan\"} 2"));
        assert!(text.contains("arrayflex_serve_shed_total{route=\"/v1/simulate\"} 1"));
        assert!(text.contains("arrayflex_serve_panics_total 1"));
        assert!(text.contains("arrayflex_serve_deadline_expired_total 1"));
        assert!(text.contains("arrayflex_serve_accept_backoff_total 1"));
        assert!(text.contains("arrayflex_serve_cancelled_total{cause=\"deadline\"} 1"));
        assert!(text.contains("arrayflex_serve_cancelled_total{cause=\"disconnect\"} 2"));
        assert!(text.contains("arrayflex_serve_tenant_shed_total{tenant=\"acme\"} 2"));
        assert!(text.contains("arrayflex_serve_tenant_active_jobs{tenant=\"acme\"} 1"));
        assert!(text.contains("arrayflex_serve_jobs_submitted_total 1"));
        assert!(text.contains("arrayflex_serve_jobs_resumed_total 1"));
        assert!(text.contains("arrayflex_serve_jobs_completed_total 1"));
        assert!(text.contains("arrayflex_serve_jobs_cancelled_total 1"));
        assert!(text.contains("arrayflex_serve_jobs_failed_total 1"));
        assert!(text.contains("arrayflex_serve_jobs_checkpoint_failed_total 1"));
    }

    #[test]
    fn prometheus_rendering_is_well_formed() {
        let metrics = Metrics::new();
        metrics.observe("/v1/plan", 200, Duration::from_micros(120));
        metrics.note_pool_sizes(2, 3);
        let cache = PlanCache::new(4);
        let text = metrics.render_prometheus(&cache);
        assert!(
            text.contains("arrayflex_serve_requests_total{route=\"/v1/plan\",status=\"200\"} 1")
        );
        // Histogram buckets are cumulative and end with +Inf == count.
        assert!(text.contains("arrayflex_serve_request_duration_us_bucket{le=\"+Inf\"} 1"));
        assert!(text.contains("arrayflex_serve_request_duration_us_count 1"));
        assert!(text.contains("arrayflex_serve_plan_cache_hits_total 0"));
        assert!(text.contains("arrayflex_serve_plan_cache_hit_rate 0"));
        assert!(text.contains("arrayflex_serve_plan_cache_evictions_total 0"));
        assert!(text.contains("arrayflex_serve_plan_cache_entries 0"));
        // One labelled sample per shard for every per-shard family.
        let shards = cache.shard_stats().len();
        for family in ["hits", "misses", "evictions"] {
            let count = text
                .lines()
                .filter(|l| {
                    l.starts_with(&format!(
                        "arrayflex_serve_plan_cache_shard_{family}_total{{"
                    ))
                })
                .count();
            assert_eq!(count, shards, "family {family}");
        }
        assert!(text.contains("arrayflex_serve_plan_cache_shard_hits_total{shard=\"0\"} 0"));
        assert!(text.contains("arrayflex_serve_open_connections 0"));
        assert!(text.contains("arrayflex_serve_accept_queue_depth 0"));
        assert!(text.contains("arrayflex_serve_idle_closed_total 0"));
        assert!(text.contains("arrayflex_serve_rendered_hits_total 0"));
        assert!(text.contains("arrayflex_serve_panics_total 0"));
        assert!(text.contains("arrayflex_serve_deadline_expired_total 0"));
        assert!(text.contains("arrayflex_serve_accept_backoff_total 0"));
        for sample in [
            "arrayflex_serve_event_loops gauge\narrayflex_serve_event_loops 2\n",
            "arrayflex_serve_handler_workers gauge\narrayflex_serve_handler_workers 3\n",
        ] {
            assert!(text.contains(&format!("# TYPE {sample}")), "{sample}");
        }
        // Exactly one lane-kernel sample, naming the dispatched body.
        let kernels: Vec<&str> = text
            .lines()
            .filter(|l| l.starts_with("arrayflex_serve_sim_lane_kernel_info"))
            .collect();
        assert_eq!(
            kernels,
            [format!(
                "arrayflex_serve_sim_lane_kernel_info{{kernel=\"{}\"}} 1",
                gemm::lanes::kernel()
            )]
        );
        // Every non-comment line is `name{labels} value` or `name value`,
        // of a family announced by a HELP and a TYPE line.
        for line in text.lines().filter(|l| !l.starts_with('#')) {
            let mut parts = line.rsplitn(2, ' ');
            let value = parts.next().unwrap();
            assert!(value.parse::<f64>().is_ok(), "bad value in line: {line}");
            let series = parts.next().expect("a series before the value");
            let name = series.split('{').next().unwrap();
            let family = ["_bucket", "_sum", "_count"]
                .iter()
                .find_map(|suffix| name.strip_suffix(suffix))
                .filter(|family| text.contains(&format!("# TYPE {family} histogram\n")))
                .unwrap_or(name);
            for kind in ["HELP", "TYPE"] {
                assert!(
                    text.contains(&format!("# {kind} {family} ")),
                    "no {kind} line for {line}"
                );
            }
        }
    }
}
