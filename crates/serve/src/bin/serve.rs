//! The `serve` binary: run the ArrayFlex planning/simulation service.
//!
//! ```text
//! cargo run --release -p arrayflex-serve --bin serve -- [--addr 127.0.0.1:8080]
//!     [--threads N] [--loops N] [--cache N] [--max-body BYTES] [--log]
//! ```
//!
//! The server is a keep-alive event loop: `--loops N` sets the number of
//! event-loop threads (0 auto-detects) and `--threads N` sizes the
//! handler worker pool behind them.
//!
//! `--cache N` bounds the plan cache at N plans (LRU eviction); `--log`
//! emits one structured log line per request on stdout.
//!
//! Overload and resilience knobs: `--queue-limit N` bounds the worker
//! queue — beyond it requests are shed with a structured 503 +
//! `Retry-After` (0 disables shedding); `--request-deadline-ms N` answers
//! work that queued longer than N milliseconds with a 503 instead of
//! computing a response nobody is waiting for; `--fault-seed N` arms the
//! deterministic fault-injection plan (injected EINTR, short reads/writes,
//! resets, spurious wakeups — for chaos testing only, never production).
//!
//! Jobs and tenants: `--job-dir PATH` makes `/v1/jobs` crash-safe — every
//! completed sweep point checkpoints to PATH, and a restart with the same
//! PATH resumes incomplete jobs (the final result is byte-identical to an
//! uninterrupted run); `--tenant-rate N` admits at most N requests/second
//! per `x-arrayflex-tenant` value (burst `--tenant-burst`, excess answered
//! 429 + `Retry-After`); `--tenant-max-jobs N` caps concurrently running
//! jobs per tenant (0 = uncapped).
//!
//! `--addr 127.0.0.1:0` binds an ephemeral port; the chosen address is
//! printed on the first line of stdout (`listening on http://...`), which
//! the CI smoke test parses.

use arrayflex_serve::http::{serve, ServerConfig};

fn main() -> Result<(), Box<dyn std::error::Error>> {
    let mut config = ServerConfig {
        // The library default is an ephemeral port (for tests); the
        // binary binds the README's quickstart port unless overridden.
        addr: "127.0.0.1:8080".to_owned(),
        ..ServerConfig::default()
    };
    let mut args = std::env::args().skip(1);
    while let Some(arg) = args.next() {
        let mut value_of = |flag: &str| args.next().ok_or_else(|| format!("{flag} needs a value"));
        match arg.as_str() {
            "--addr" => config.addr = value_of("--addr")?,
            "--threads" => config.threads = value_of("--threads")?.parse()?,
            "--loops" => config.event_loops = value_of("--loops")?.parse()?,
            "--cache" => config.cache_capacity = value_of("--cache")?.parse()?,
            "--max-body" => config.max_body_bytes = value_of("--max-body")?.parse()?,
            "--log" => config.log_requests = true,
            "--queue-limit" => config.queue_limit = value_of("--queue-limit")?.parse()?,
            "--request-deadline-ms" => {
                config.request_deadline = Some(std::time::Duration::from_millis(
                    value_of("--request-deadline-ms")?.parse()?,
                ));
            }
            "--fault-seed" => {
                config.faults = Some(arrayflex_serve::FaultConfig::with_seed(
                    value_of("--fault-seed")?.parse()?,
                ));
            }
            "--job-dir" => config.job_dir = Some(value_of("--job-dir")?.into()),
            "--tenant-rate" => config.tenant_rate = Some(value_of("--tenant-rate")?.parse()?),
            "--tenant-burst" => config.tenant_burst = value_of("--tenant-burst")?.parse()?,
            "--tenant-max-jobs" => {
                config.tenant_max_jobs = value_of("--tenant-max-jobs")?.parse()?;
            }
            "--help" | "-h" => {
                println!(
                    "usage: serve [--addr HOST:PORT] [--threads N] [--loops N] \
                     [--cache N] [--max-body BYTES] [--log] \
                     [--queue-limit N] [--request-deadline-ms N] [--fault-seed N] \
                     [--job-dir PATH] [--tenant-rate N] [--tenant-burst N] \
                     [--tenant-max-jobs N]"
                );
                return Ok(());
            }
            other => return Err(format!("unknown flag {other}").into()),
        }
    }
    let mut handle = serve(config)?;
    println!("listening on http://{}", handle.addr());
    println!(
        "routes: GET /healthz | GET /metrics | POST /v1/plan | POST /v1/sweep | \
         POST /v1/simulate | POST /v1/jobs | GET /v1/jobs/{{id}}[/result] | \
         DELETE /v1/jobs/{{id}}"
    );
    handle.wait();
    Ok(())
}
