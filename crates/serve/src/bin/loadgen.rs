//! The `loadgen` binary: hammer the planning service over loopback and
//! report sustained RPS and latency percentiles for both the `/v1/plan`
//! and the `/v1/simulate` endpoint (so wins on either service path — the
//! plan cache, the pooled simulator — are visible side by side).
//!
//! ```text
//! cargo run --release -p arrayflex-serve --bin loadgen -- [--addr HOST:PORT]
//!     [--requests N] [--sim-requests N] [--clients N] [--network NAME]
//!     [--rows N] [--cols N] [--zipf S] [--zipf-pool N] [--seed N]
//!     [--cache N] [--json] [--keep-alive] [--pipeline N]
//!     [--bench OUT.json [--quick]]
//!     [--compare OLD.json NEW.json [--max-regression FACTOR]]
//! ```
//!
//! Without `--addr`, an in-process server is spawned on an ephemeral
//! loopback port with `--server-threads N` handler workers (default `0`:
//! one per core, beside one event loop per core, as `serve` runs), so
//! the default invocation measures the full client-to-server round trip
//! on one machine with zero setup. `--json` emits one document with a
//! `plan` and a `simulate` report, each carrying RPS, p50/p90/p99/max
//! request latency and separate connection-setup percentiles; in-process
//! runs also report the server's plan-cache counters.
//!
//! `--keep-alive` reuses one connection per client; `--pipeline N` also
//! writes up to `N` requests back to back before reading responses.
//!
//! `--bench OUT.json` ignores the ad-hoc load flags and runs the fixed
//! serving benchmark matrix (close / keep-alive / pipelined, per
//! endpoint) against the same in-process server, writing the
//! committed-baseline document (`BENCH_serve.json` format). `--compare
//! OLD NEW` gates a fresh report against a committed baseline exactly
//! like `bench_baseline --compare`: non-zero exit if any bench regressed
//! beyond `--max-regression` (default 2.5x on this noisy end-to-end
//! path) or disappeared.
//!
//! `--zipf S` replaces the fixed `/v1/plan` body with a pool of
//! `--zipf-pool` distinct synthetic networks whose popularity follows
//! Zipf(S), sampled deterministically from `--seed` — the recipe for
//! measuring cache hit rates under realistic key skew (see
//! EXPERIMENTS.md). `--cache` sizes the in-process server's plan cache so
//! eviction behaviour shows up in the reported counters.
//!
//! `--chaos` runs the deterministic fault-injection harness instead of a
//! throughput load: an in-process server armed with
//! `FaultConfig::with_seed(--seed)`, two handler workers whatever
//! `--server-threads` says, and a tiny worker queue, hammered by
//! `--clients` misbehaving clients (slowloris drips, aborted pipelines,
//! mid-body hangups, shed-retry loops honoring `Retry-After`) whose
//! schedules also derive from `--seed`. Every 200 is verified
//! byte-identical against the fault-free reference; non-zero exit on any
//! mismatch, any server-side panic, or zero verified responses. The seed
//! is printed so any run replays exactly (see EXPERIMENTS.md).

use arrayflex_serve::client::PersistentClient;
use arrayflex_serve::http::{serve, ServerConfig};
use arrayflex_serve::loadgen::{
    bench_suite, chaos_run, compare_serve_reports, run, validate_serve_report, CacheReport,
    ChaosConfig, CombinedReport, ConnectionMode, LoadgenConfig, ServeBenchReport, ZipfWorkload,
};
use arrayflex_serve::FaultConfig;
use std::net::SocketAddr;

fn main() -> Result<(), Box<dyn std::error::Error>> {
    let mut addr: Option<SocketAddr> = None;
    let mut requests = 1000usize;
    let mut sim_requests = 200usize;
    let mut clients = 4usize;
    let mut server_threads = 0usize;
    let mut network = "resnet34".to_owned();
    let mut rows = 128u32;
    let mut cols = 128u32;
    let mut zipf: Option<f64> = None;
    let mut zipf_pool = 32usize;
    let mut seed = 42u64;
    let mut cache_capacity: Option<usize> = None;
    let mut json = false;
    let mut mode = ConnectionMode::Close;
    let mut bench_out: Option<String> = None;
    let mut quick = false;
    let mut compare: Option<(String, String)> = None;
    let mut max_regression = 2.5f64;
    let mut smoke: Option<SocketAddr> = None;
    let mut chaos = false;
    let mut args = std::env::args().skip(1);
    while let Some(arg) = args.next() {
        let mut value_of = |flag: &str| args.next().ok_or_else(|| format!("{flag} needs a value"));
        match arg.as_str() {
            "--addr" => addr = Some(value_of("--addr")?.parse()?),
            "--requests" => requests = value_of("--requests")?.parse()?,
            "--sim-requests" => sim_requests = value_of("--sim-requests")?.parse()?,
            "--clients" => clients = value_of("--clients")?.parse()?,
            "--server-threads" => server_threads = value_of("--server-threads")?.parse()?,
            "--network" => network = value_of("--network")?,
            "--rows" => rows = value_of("--rows")?.parse()?,
            "--cols" => cols = value_of("--cols")?.parse()?,
            "--zipf" => zipf = Some(value_of("--zipf")?.parse()?),
            "--zipf-pool" => zipf_pool = value_of("--zipf-pool")?.parse()?,
            "--seed" => seed = value_of("--seed")?.parse()?,
            "--cache" => cache_capacity = Some(value_of("--cache")?.parse()?),
            "--json" => json = true,
            "--keep-alive" => mode = ConnectionMode::KeepAlive,
            "--pipeline" => mode = ConnectionMode::Pipeline(value_of("--pipeline")?.parse()?),
            "--bench" => bench_out = Some(value_of("--bench")?),
            "--quick" => quick = true,
            "--compare" => {
                let old = value_of("--compare")?;
                let new = args.next().ok_or("--compare needs OLD.json NEW.json")?;
                compare = Some((old, new));
            }
            "--max-regression" => {
                max_regression = value_of("--max-regression")?.parse()?;
                if !(max_regression.is_finite() && max_regression >= 1.0) {
                    return Err("--max-regression factor must be >= 1.0".into());
                }
            }
            "--keepalive-smoke" => smoke = Some(value_of("--keepalive-smoke")?.parse()?),
            "--chaos" => chaos = true,
            "--help" | "-h" => {
                println!(
                    "usage: loadgen [--addr HOST:PORT] [--requests N] [--sim-requests N] \
                     [--clients N] [--server-threads N] [--network NAME] [--rows N] \
                     [--cols N] [--zipf S] [--zipf-pool N] [--seed N] [--cache N] \
                     [--json] [--keep-alive] [--pipeline N] [--bench OUT.json [--quick]] \
                     [--compare OLD NEW [--max-regression FACTOR]] \
                     [--keepalive-smoke HOST:PORT] [--chaos]"
                );
                return Ok(());
            }
            other => return Err(format!("unknown flag {other}").into()),
        }
    }

    // --compare gates two existing reports and touches no server at all.
    if let Some((old_path, new_path)) = compare {
        let old: ServeBenchReport = serde_json::from_str(&std::fs::read_to_string(&old_path)?)?;
        let new: ServeBenchReport = serde_json::from_str(&std::fs::read_to_string(&new_path)?)?;
        validate_serve_report(&old).map_err(|e| format!("{old_path}: {e}"))?;
        validate_serve_report(&new).map_err(|e| format!("{new_path}: {e}"))?;
        match compare_serve_reports(&old, &new, max_regression) {
            Ok(table) => {
                println!("{table}");
                println!("serve bench comparison OK (max regression {max_regression}x)");
                return Ok(());
            }
            Err(report) => return Err(format!("serve bench regression:\n{report}").into()),
        }
    }

    // --keepalive-smoke exercises one persistent connection against a
    // running server: two sequential requests, then a pipelined pair.
    if let Some(addr) = smoke {
        return keepalive_smoke(addr);
    }

    // --chaos spawns its own fault-armed in-process server (--addr is
    // not honored: the faults must be injected server-side).
    if chaos {
        return chaos_mode(seed, requests, clients, json);
    }

    // Spawn an in-process server unless the caller points at a remote one.
    let in_process = match addr {
        Some(_) => None,
        None => {
            let mut config = ServerConfig {
                threads: server_threads,
                ..ServerConfig::default()
            };
            if let Some(capacity) = cache_capacity {
                config.cache_capacity = capacity;
            }
            let handle = serve(config)?;
            addr = Some(handle.addr());
            Some(handle)
        }
    };
    let addr = addr.expect("an address is always set by now");

    // --bench runs the fixed matrix and writes the baseline document.
    if let Some(out_path) = bench_out {
        let report = bench_suite(addr, quick);
        validate_serve_report(&report)?;
        std::fs::write(&out_path, serde_json::to_string_pretty(&report)? + "\n")?;
        for bench in &report.benches {
            println!(
                "{:<20} {:>10.0} rps  p50 {:>6} us  p99 {:>7} us",
                bench.name, bench.rps, bench.p50_us, bench.p99_us
            );
        }
        if let Some(speedup) = report.keepalive_speedup() {
            println!("keep-alive speedup over close mode: {speedup:.1}x");
        }
        if let Some(speedup) = report.reference_speedup() {
            println!(
                "keep-alive speedup over the committed {:.1}k/s close-mode reference: {speedup:.1}x",
                arrayflex_serve::loadgen::REFERENCE_CLOSE_RPS / 1000.0
            );
        }
        println!("wrote {out_path}");
        if let Some(handle) = in_process {
            handle.shutdown();
        }
        return Ok(());
    }

    let mut plan_config = LoadgenConfig::plan_workload(addr, requests, clients);
    plan_config.mode = mode;
    plan_config.body = Some(format!(
        r#"{{"network":"{network}","rows":{rows},"cols":{cols}}}"#
    ));
    plan_config.zipf = zipf.map(|s| ZipfWorkload {
        s,
        pool: zipf_pool,
        seed,
        rows,
        cols,
    });
    let mut sim_config = LoadgenConfig::simulate_workload(addr, sim_requests, clients);
    sim_config.mode = mode;
    let report = CombinedReport {
        plan: run(&plan_config),
        simulate: run(&sim_config),
        cache: in_process
            .as_ref()
            .map(|handle| CacheReport::scrape(handle.state().cache())),
    };
    if json {
        println!("{}", serde_json::to_string_pretty(&report)?);
    } else {
        match zipf {
            Some(s) => println!(
                "loadgen @ http://{addr} (zipf s={s}, pool {zipf_pool}, seed {seed}, {rows}x{cols})"
            ),
            None => println!("loadgen @ http://{addr} ({network}, {rows}x{cols})"),
        }
        println!("{}", report.text());
    }
    if let Some(handle) = in_process {
        handle.shutdown();
    }
    if report.errors() > 0 {
        let total = requests + sim_requests;
        return Err(format!("{} of {total} requests failed", report.errors()).into());
    }
    Ok(())
}

/// The chaos harness behind `loadgen --chaos` (used by
/// `scripts/chaos_smoke.sh`): a fault-armed in-process server with a
/// deliberately tiny worker queue, a seeded misbehaving client fleet, and
/// a byte-identity check on every 200. Exits non-zero on any mismatch,
/// any server-side panic, or a run that verified nothing.
fn chaos_mode(
    seed: u64,
    requests: usize,
    clients: usize,
    json: bool,
) -> Result<(), Box<dyn std::error::Error>> {
    let config = ServerConfig {
        // Two workers and a 4-deep queue saturate under the chaos fleet,
        // so the shed and retry paths both see real traffic.
        threads: 2,
        queue_limit: 4,
        faults: Some(FaultConfig::with_seed(seed)),
        ..ServerConfig::default()
    };
    let handle = serve(config)?;
    println!("chaos seed: {seed}");
    let report = chaos_run(&ChaosConfig {
        addr: handle.addr(),
        seed,
        requests,
        clients,
    });
    let panics = handle.state().metrics().panics();
    let sheds = handle.state().metrics().total_sheds();
    handle.shutdown();
    if json {
        println!("{}", serde_json::to_string_pretty(&report)?);
    } else {
        println!("{}", report.text());
        println!("server: {sheds} sheds, {panics} panics");
    }
    if panics > 0 {
        return Err(format!("server caught {panics} handler panics under chaos").into());
    }
    if report.mismatches > 0 {
        return Err(format!(
            "{} responses diverged from the fault-free reference (seed {seed})",
            report.mismatches
        )
        .into());
    }
    if report.ok == 0 {
        return Err(format!("chaos run verified no responses at all (seed {seed})").into());
    }
    println!(
        "chaos OK: {} byte-identical 200s, {} sheds honored, seed {seed} replays this run",
        report.ok, report.shed
    );
    Ok(())
}

/// The keep-alive smoke check used by `scripts/serve_smoke.sh`: one
/// persistent connection serving two sequential requests and then a
/// pipelined pair, all of which must come back 200 and in order.
fn keepalive_smoke(addr: SocketAddr) -> Result<(), Box<dyn std::error::Error>> {
    let mut client = PersistentClient::connect(addr)?;
    for _ in 0..2 {
        let response = client.request("GET", "/healthz", None)?;
        if response.status != 200 {
            return Err(format!("sequential keep-alive request got {}", response.status).into());
        }
    }
    client.send("GET", "/healthz", None)?;
    client.send("GET", "/metrics", None)?;
    let first = client.recv()?;
    let second = client.recv()?;
    if first.status != 200 || second.status != 200 {
        return Err(format!("pipelined pair got {} and {}", first.status, second.status).into());
    }
    if !first.text()?.contains("\"status\":\"ok\"")
        || !second.text()?.contains("arrayflex_serve_requests_total")
    {
        return Err("pipelined responses arrived out of order".into());
    }
    println!("keep-alive smoke OK: 2 sequential + 2 pipelined requests on one connection");
    Ok(())
}
