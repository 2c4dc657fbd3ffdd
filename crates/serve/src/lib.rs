//! `arrayflex-serve`: the ArrayFlex planner and simulator as an online
//! HTTP service.
//!
//! The DATE'23 reproduction is a library; this crate puts it on the wire
//! so a fleet of clients can ask it to plan networks, sweep configurations
//! and cross-check the cycle-accurate simulator. Everything is built on
//! the standard library alone (the build environment has no crates.io
//! access): a readiness-driven event-loop HTTP/1.1 server with keep-alive
//! and pipelining (a vendored epoll/poll abstraction in [`poll`], the
//! per-connection state machine in [`conn`] and a handler worker pool;
//! configured and started through [`http`]), JSON request parsing through
//! the vendored `serde_json` parser, a sharded LRU plan cache
//! ([`arrayflex::PlanCache`]) fronted by a memo of rendered `/v1/plan`
//! responses so repeated plans never recompute, request metrics in
//! Prometheus text format ([`metrics`]), a tiny blocking client
//! ([`client`]) and a load generator ([`loadgen`]).
//!
//! # Determinism contract
//!
//! `POST /v1/plan` and `POST /v1/sweep` responses are **byte-identical**
//! to serializing the corresponding direct library calls
//! (`ArrayFlexModel::plan_*`, `EvaluationSweep::run`), cached or not, for
//! any worker-thread count — the serving layer extends the workspace's
//! serial/parallel determinism contract to the wire (`DESIGN.md` §6).
//!
//! # Quick start
//!
//! ```
//! use arrayflex_serve::http::{serve, ServerConfig};
//! use arrayflex_serve::client;
//!
//! let handle = serve(ServerConfig::default())?;
//! let health = client::get(handle.addr(), "/healthz")?;
//! assert_eq!(health.status, 200);
//! let plan = client::post_json(
//!     handle.addr(),
//!     "/v1/plan",
//!     r#"{"network":"resnet34","rows":128,"cols":128}"#,
//! )?;
//! assert_eq!(plan.status, 200);
//! handle.shutdown();
//! # Ok::<(), std::io::Error>(())
//! ```

// `deny` rather than `forbid`: the vendored readiness poller (`poll`)
// needs two raw syscall FFI sites and opts back in locally; every other
// module stays unsafe-free.
#![deny(unsafe_code)]
#![warn(missing_docs)]

pub mod api;
pub mod client;
pub mod conn;
mod event_loop;
pub mod fault;
pub mod http;
mod jobs;
pub mod loadgen;
pub mod metrics;
pub mod poll;
mod rendered;
mod worker;

pub use api::{AppState, RequestTrace, SimulateResponse};
pub use fault::{FaultConfig, FaultPlan};
pub use http::{serve, HttpRequest, HttpResponse, ServerConfig, ServerHandle};
pub use loadgen::{
    CacheReport, ChaosConfig, ChaosReport, CombinedReport, LoadgenConfig, LoadgenReport,
    ZipfSampler, ZipfWorkload,
};
pub use metrics::Metrics;
