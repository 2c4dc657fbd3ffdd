//! Cancellable, checkpointed long-running jobs and per-tenant admission.
//!
//! `POST /v1/jobs` accepts a sweep request and runs it **asynchronously**:
//! the submission returns a job id immediately (202), the sweep's points
//! execute one at a time on a dedicated runner thread, and clients poll
//! `GET /v1/jobs/{id}` for progress, fetch `GET /v1/jobs/{id}/result`
//! when complete, or `DELETE /v1/jobs/{id}` to cancel cooperatively
//! through the job's [`CancelToken`].
//!
//! # Crash safety
//!
//! With a job directory configured ([`crate::http::ServerConfig::job_dir`],
//! `--job-dir`) every completed sweep point is checkpointed to
//! `<dir>/<id>.json` atomically: write to a `.tmp` sibling, `sync_all`
//! it, rename it over the checkpoint, then `sync_all` the directory so
//! the rename itself is on disk. A server killed mid-job (even with
//! SIGKILL) restarts with the same directory and resumes every incomplete
//! job from its last checkpoint — and because each point's response
//! fragment is serialized independently, the resumed job's final body is
//! **byte-identical** to an uninterrupted run (the workspace determinism
//! contract, extended across process lifetimes).
//!
//! The checkpoint stores response fragments as JSON *strings* (escaped),
//! never as re-parsed values: round-tripping through a JSON value would
//! have to preserve key order to keep the bytes identical, and storing
//! the rendered text sidesteps that entirely. The final body is simply
//! `"[" + fragments.join(",") + "]"` — exactly how the vendored
//! serializer renders a `Vec`.
//!
//! # Tenants
//!
//! [`TenantQuota`] is the token-bucket admission layer keyed by the
//! `x-arrayflex-tenant` header (absent → `"anonymous"`): each tenant's
//! bucket refills at `--tenant-rate` tokens per second up to
//! `--tenant-burst`, and a request finding its bucket empty is answered
//! `429` + `Retry-After` on the loop thread. Independently,
//! `--tenant-max-jobs` caps each tenant's concurrently active jobs.

use crate::api::{self, AppState};
use gemm::CancelToken;
use serde::{Deserialize, Serialize};
use std::collections::{BTreeMap, HashMap};
use std::fs;
use std::io::{self, Write as _};
use std::path::{Path, PathBuf};
use std::sync::{Arc, Mutex, OnceLock, Weak};
use std::thread::JoinHandle;
use std::time::Instant;

/// Upper bound on distinct tenant token buckets held at once; beyond it,
/// fully-refilled buckets (indistinguishable from fresh ones) are pruned
/// so hostile tenant churn cannot grow the map without bound.
const MAX_TENANT_BUCKETS: usize = 1024;

/// Cancellation reason a `DELETE /v1/jobs/{id}` fires into the runner.
pub(crate) const JOB_CANCEL_REASON: &str = "cancelled by client";
/// Cancellation reason a graceful shutdown fires into every runner; the
/// job's checkpoint keeps `"running"` status so a restart resumes it.
pub(crate) const SHUTDOWN_REASON: &str = "server shutting down";

/// Lifecycle state of one job.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub(crate) enum JobStatus {
    /// Points are still executing (or will resume at the next start).
    Running,
    /// Every point completed; the result body is available.
    Completed,
    /// Cancelled through `DELETE`; terminal.
    Cancelled,
    /// A point failed; terminal, with the error recorded.
    Failed,
}

impl JobStatus {
    pub(crate) fn as_str(self) -> &'static str {
        match self {
            Self::Running => "running",
            Self::Completed => "completed",
            Self::Cancelled => "cancelled",
            Self::Failed => "failed",
        }
    }

    fn from_str(s: &str) -> Option<Self> {
        match s {
            "running" => Some(Self::Running),
            "completed" => Some(Self::Completed),
            "cancelled" => Some(Self::Cancelled),
            "failed" => Some(Self::Failed),
            _ => None,
        }
    }
}

/// Mutable progress of one job, guarded by its entry's mutex: status
/// transitions and fragment appends are atomic with respect to each
/// other, so `DELETE` racing the final point settles deterministically.
#[derive(Debug)]
struct JobProgress {
    status: JobStatus,
    /// Serialized response fragments of the completed points, in point
    /// order.
    fragments: Vec<String>,
    /// Failure message when `status == Failed`, `""` otherwise.
    error: String,
}

/// One submitted job.
#[derive(Debug)]
pub(crate) struct JobEntry {
    id: String,
    tenant: String,
    /// Fires on `DELETE` (terminal) or shutdown (resumable); the runner
    /// observes it between points.
    token: CancelToken,
    /// Total sweep points the job decomposes into.
    total: usize,
    /// The original request body, persisted so a restart re-derives the
    /// identical point list.
    request: String,
    progress: Mutex<JobProgress>,
}

/// Locks a jobs mutex, recovering the data if a panicking thread
/// poisoned it (same rationale as the metrics counters: per-entry
/// invariants survive an unwound runner).
fn lock<T>(mutex: &Mutex<T>) -> std::sync::MutexGuard<'_, T> {
    mutex.lock().unwrap_or_else(|e| e.into_inner())
}

impl JobEntry {
    /// The job's identifier.
    pub(crate) fn id(&self) -> &str {
        &self.id
    }

    /// The tenant that submitted the job.
    pub(crate) fn tenant(&self) -> &str {
        &self.tenant
    }

    /// `(status, completed points, total points, error)` snapshot.
    pub(crate) fn snapshot(&self) -> (JobStatus, usize, usize, String) {
        let progress = lock(&self.progress);
        (
            progress.status,
            progress.fragments.len(),
            self.total,
            progress.error.clone(),
        )
    }

    /// The assembled result body, when the job completed.
    pub(crate) fn result(&self) -> Option<Vec<u8>> {
        let progress = lock(&self.progress);
        if progress.status != JobStatus::Completed {
            return None;
        }
        Some(assemble(&progress.fragments))
    }

    /// Requests cancellation: flips a running job to `Cancelled` and
    /// fires its token. Returns `true` when this call performed the
    /// transition (the runner will acknowledge at the next point
    /// boundary), `false` when the job was already terminal.
    pub(crate) fn cancel_by_client(&self) -> bool {
        {
            let mut progress = lock(&self.progress);
            if progress.status != JobStatus::Running {
                return false;
            }
            progress.status = JobStatus::Cancelled;
        }
        self.token.cancel(JOB_CANCEL_REASON);
        true
    }
}

/// Joins response fragments into the body `serde_json::to_string` would
/// have produced for the full `Vec` (asserted byte-for-byte by the job
/// tests against `/v1/sweep`).
fn assemble(fragments: &[String]) -> Vec<u8> {
    let mut body = String::with_capacity(2 + fragments.iter().map(|f| f.len() + 1).sum::<usize>());
    body.push('[');
    for (index, fragment) in fragments.iter().enumerate() {
        if index > 0 {
            body.push(',');
        }
        body.push_str(fragment);
    }
    body.push(']');
    body.into_bytes()
}

/// On-disk checkpoint of one job (`<job-dir>/<id>.json`).
#[derive(Debug, Clone, Serialize, Deserialize)]
struct Checkpoint {
    id: String,
    tenant: String,
    status: String,
    total: usize,
    request: String,
    fragments: Vec<String>,
    error: String,
}

/// The job table, runner threads and checkpoint directory of one server.
#[derive(Debug, Default)]
pub(crate) struct JobStore {
    dir: Option<PathBuf>,
    jobs: Mutex<BTreeMap<String, Arc<JobEntry>>>,
    handles: Mutex<Vec<JoinHandle<()>>>,
    /// Back-reference to the owning state, set once it is wrapped in an
    /// `Arc` (runner threads need an owned handle); submissions before
    /// attachment are refused.
    app: OnceLock<Weak<AppState>>,
    counter: std::sync::atomic::AtomicU64,
}

impl JobStore {
    /// Creates the store, creating the checkpoint directory if needed (a
    /// directory that cannot be created downgrades to in-memory jobs,
    /// loudly).
    pub(crate) fn new(dir: Option<PathBuf>) -> Self {
        let dir = dir.and_then(|dir| match fs::create_dir_all(&dir) {
            Ok(()) => Some(dir),
            Err(e) => {
                eprintln!(
                    "job directory {} unusable ({e}); jobs will not survive restarts",
                    dir.display()
                );
                None
            }
        });
        Self {
            dir,
            ..Self::default()
        }
    }

    /// Attaches the owning `Arc<AppState>`; must be called before the
    /// first submission or resume (see [`AppState::shared`]).
    pub(crate) fn attach(&self, state: &Arc<AppState>) {
        let _ = self.app.set(Arc::downgrade(state));
    }

    /// Jobs currently `Running` for one tenant (the `--tenant-max-jobs`
    /// admission count).
    pub(crate) fn active_for(&self, tenant: &str) -> usize {
        lock(&self.jobs)
            .values()
            .filter(|e| e.tenant == tenant && lock(&e.progress).status == JobStatus::Running)
            .count()
    }

    /// Looks a job up by id.
    pub(crate) fn get(&self, id: &str) -> Option<Arc<JobEntry>> {
        lock(&self.jobs).get(id).cloned()
    }

    /// Submits one decoded-and-validated job and spawns its runner.
    ///
    /// # Errors
    ///
    /// Refused when the store has no attached state to run against (a
    /// host that never called [`JobStore::attach`]).
    pub(crate) fn submit(
        &self,
        tenant: &str,
        request: String,
        total: usize,
    ) -> Result<Arc<JobEntry>, &'static str> {
        let state = self
            .app
            .get()
            .and_then(Weak::upgrade)
            .ok_or("job execution unavailable on this serving path")?;
        let counter = self
            .counter
            .fetch_add(1, std::sync::atomic::Ordering::Relaxed);
        let entry = Arc::new(JobEntry {
            id: fresh_id(counter, request.as_bytes()),
            tenant: tenant.to_owned(),
            token: CancelToken::new(),
            total,
            request,
            progress: Mutex::new(JobProgress {
                status: JobStatus::Running,
                fragments: Vec::new(),
                error: String::new(),
            }),
        });
        lock(&self.jobs).insert(entry.id.clone(), Arc::clone(&entry));
        checkpoint(&state, &entry);
        self.spawn_runner(state, Arc::clone(&entry));
        Ok(entry)
    }

    /// Loads every checkpoint in the job directory: terminal jobs become
    /// queryable again (status and result survive the restart), and
    /// `running` jobs resume execution from their last completed point.
    pub(crate) fn resume(&self, state: &Arc<AppState>) {
        let Some(dir) = self.dir.clone() else { return };
        let entries = match fs::read_dir(&dir) {
            Ok(entries) => entries,
            Err(e) => {
                eprintln!("job directory {} unreadable at startup: {e}", dir.display());
                return;
            }
        };
        for file in entries.flatten() {
            let path = file.path();
            if path.extension().map_or(true, |ext| ext != "json") {
                continue;
            }
            match load_checkpoint(&path) {
                Ok(entry) => {
                    let entry = Arc::new(entry);
                    let running = lock(&entry.progress).status == JobStatus::Running;
                    lock(&self.jobs).insert(entry.id.clone(), Arc::clone(&entry));
                    if running {
                        let (_, completed, total, _) = entry.snapshot();
                        eprintln!(
                            "resuming job {} from checkpoint ({completed}/{total} points)",
                            entry.id
                        );
                        state.metrics().note_job_resumed();
                        state.metrics().note_job_started(&entry.tenant);
                        self.spawn_runner(Arc::clone(state), entry);
                    }
                }
                Err(e) => eprintln!("ignoring unusable job checkpoint {}: {e}", path.display()),
            }
        }
    }

    /// Fires every running job's token with [`SHUTDOWN_REASON`] (their
    /// checkpoints keep `running` status, so a restart resumes them) and
    /// joins the runner threads.
    pub(crate) fn shutdown(&self) {
        for entry in lock(&self.jobs).values() {
            if lock(&entry.progress).status == JobStatus::Running {
                entry.token.cancel(SHUTDOWN_REASON);
            }
        }
        let handles = std::mem::take(&mut *lock(&self.handles));
        for handle in handles {
            let _ = handle.join();
        }
    }

    fn spawn_runner(&self, state: Arc<AppState>, entry: Arc<JobEntry>) {
        let handle = std::thread::Builder::new()
            .name(format!("serve-job-{}", entry.id))
            .spawn(move || run_job(&state, &entry))
            .expect("spawn job runner thread");
        lock(&self.handles).push(handle);
    }
}

/// Persists one job's current progress atomically (tmp + sync + rename +
/// directory sync). A write failure is reported on stderr and counted,
/// and the job keeps running in memory.
fn checkpoint(state: &AppState, entry: &JobEntry) {
    let Some(dir) = &state.jobs().dir else { return };
    if let Err(e) = persist(dir, entry) {
        eprintln!("job {} checkpoint failed: {e}", entry.id);
        state.metrics().note_job_checkpoint_failed();
    }
}

/// A collision-resistant job id: the `RandomState` keys differ per
/// construction (and per process), so ids stay unique across restarts
/// even for identical request bodies.
fn fresh_id(counter: u64, body: &[u8]) -> String {
    use std::hash::{BuildHasher, Hasher};
    let mut hasher = std::collections::hash_map::RandomState::new().build_hasher();
    hasher.write(body);
    hasher.write_u64(counter);
    format!("{:016x}", hasher.finish())
}

fn persist(dir: &Path, entry: &JobEntry) -> io::Result<()> {
    let checkpoint = {
        let progress = lock(&entry.progress);
        Checkpoint {
            id: entry.id.clone(),
            tenant: entry.tenant.clone(),
            status: progress.status.as_str().to_owned(),
            total: entry.total,
            request: entry.request.clone(),
            fragments: progress.fragments.clone(),
            error: progress.error.clone(),
        }
    };
    let text = serde_json::to_string(&checkpoint)
        .map_err(|e| io::Error::new(io::ErrorKind::InvalidData, e.to_string()))?;
    let path = dir.join(format!("{}.json", entry.id));
    let tmp = dir.join(format!("{}.json.tmp", entry.id));
    {
        let mut file = fs::File::create(&tmp)?;
        file.write_all(text.as_bytes())?;
        file.sync_all()?;
    }
    fs::rename(&tmp, &path)?;
    // The rename lives in the directory: sync it too, or a power loss can
    // bring back the previous checkpoint (or none).
    fs::File::open(dir)?.sync_all()
}

fn load_checkpoint(path: &Path) -> io::Result<JobEntry> {
    let text = fs::read_to_string(path)?;
    let checkpoint: Checkpoint = serde_json::from_str(&text)
        .map_err(|e| io::Error::new(io::ErrorKind::InvalidData, e.to_string()))?;
    let status = JobStatus::from_str(&checkpoint.status).ok_or_else(|| {
        io::Error::new(
            io::ErrorKind::InvalidData,
            format!("unknown job status {:?}", checkpoint.status),
        )
    })?;
    if checkpoint.fragments.len() > checkpoint.total
        || (status == JobStatus::Completed && checkpoint.fragments.len() != checkpoint.total)
    {
        return Err(io::Error::new(
            io::ErrorKind::InvalidData,
            format!(
                "checkpoint claims {}/{} points",
                checkpoint.fragments.len(),
                checkpoint.total
            ),
        ));
    }
    Ok(JobEntry {
        id: checkpoint.id,
        tenant: checkpoint.tenant,
        token: CancelToken::new(),
        total: checkpoint.total,
        request: checkpoint.request,
        progress: Mutex::new(JobProgress {
            status,
            fragments: checkpoint.fragments,
            error: checkpoint.error,
        }),
    })
}

/// The runner: executes sweep points one at a time, checkpointing after
/// each, observing the cancel token between points (the one-job-item
/// cancellation boundary, same as the synchronous routes).
fn run_job(state: &Arc<AppState>, entry: &Arc<JobEntry>) {
    let spec = match api::decode_sweep_text(&entry.request) {
        Ok(spec) if spec.points() == entry.total => spec,
        Ok(spec) => {
            fail(
                state,
                entry,
                &format!(
                    "checkpoint total {} does not match the request's {} points",
                    entry.total,
                    spec.points()
                ),
            );
            return;
        }
        Err(e) => {
            fail(state, entry, &format!("job request no longer decodes: {e}"));
            return;
        }
    };
    loop {
        if entry.token.cancel_requested() {
            // DELETE flipped the status to Cancelled before firing;
            // shutdown left it Running so the checkpoint stays
            // resumable. Either way, stop at this point boundary.
            let terminal = lock(&entry.progress).status != JobStatus::Running;
            checkpoint(state, entry);
            if terminal {
                state.metrics().note_cancelled("job");
                state.metrics().note_job_cancelled();
                state.metrics().note_job_finished(&entry.tenant);
            } else {
                state.metrics().note_cancelled("shutdown");
            }
            return;
        }
        let index = lock(&entry.progress).fragments.len();
        if index >= entry.total {
            break;
        }
        match api::sweep_point_fragment(state, &spec, index) {
            Ok(fragment) => {
                lock(&entry.progress).fragments.push(fragment);
                checkpoint(state, entry);
            }
            Err(e) => {
                fail(state, entry, &format!("point {index} failed: {e}"));
                return;
            }
        }
    }
    {
        let mut progress = lock(&entry.progress);
        if progress.status != JobStatus::Running {
            // A DELETE won the race against the final point; the
            // cancellation branch above never ran, so acknowledge here.
            drop(progress);
            checkpoint(state, entry);
            state.metrics().note_cancelled("job");
            state.metrics().note_job_cancelled();
            state.metrics().note_job_finished(&entry.tenant);
            return;
        }
        progress.status = JobStatus::Completed;
    }
    checkpoint(state, entry);
    state.metrics().note_job_completed();
    state.metrics().note_job_finished(&entry.tenant);
}

fn fail(state: &Arc<AppState>, entry: &Arc<JobEntry>, message: &str) {
    eprintln!("job {} failed: {message}", entry.id);
    {
        let mut progress = lock(&entry.progress);
        progress.status = JobStatus::Failed;
        progress.error = message.to_owned();
    }
    checkpoint(state, entry);
    state.metrics().note_job_failed();
    state.metrics().note_job_finished(&entry.tenant);
}

/// One tenant's token bucket.
#[derive(Debug)]
struct Bucket {
    tokens: f64,
    last: Instant,
}

/// Per-tenant token-bucket admission (see the module docs).
#[derive(Debug)]
pub(crate) struct TenantQuota {
    rate: f64,
    burst: f64,
    buckets: Mutex<HashMap<String, Bucket>>,
}

impl TenantQuota {
    pub(crate) fn new(rate: f64, burst: f64) -> Self {
        Self {
            rate: rate.max(0.0),
            // A bucket must hold at least one whole token or nothing is
            // ever admitted.
            burst: burst.max(1.0),
            buckets: Mutex::new(HashMap::new()),
        }
    }

    /// Spends one token from `tenant`'s bucket; `false` means the
    /// request must be shed with a 429.
    pub(crate) fn admit(&self, tenant: &str) -> bool {
        let now = Instant::now();
        let mut buckets = lock(&self.buckets);
        if buckets.len() >= MAX_TENANT_BUCKETS && !buckets.contains_key(tenant) {
            // Prune buckets that have fully refilled: they are
            // indistinguishable from fresh ones, so dropping them changes
            // no admission decision.
            let (rate, burst) = (self.rate, self.burst);
            buckets.retain(|_, bucket| {
                bucket.tokens + now.duration_since(bucket.last).as_secs_f64() * rate < burst
            });
        }
        let bucket = buckets.entry(tenant.to_owned()).or_insert(Bucket {
            tokens: self.burst,
            last: now,
        });
        let elapsed = now.duration_since(bucket.last).as_secs_f64();
        bucket.tokens = (bucket.tokens + elapsed * self.rate).min(self.burst);
        bucket.last = now;
        if bucket.tokens >= 1.0 {
            bucket.tokens -= 1.0;
            true
        } else {
            false
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn fragments_assemble_like_a_serialized_vec() {
        let fragments: Vec<String> = vec!["{\"a\":1}".into(), "{\"b\":2}".into()];
        assert_eq!(assemble(&fragments), b"[{\"a\":1},{\"b\":2}]");
        assert_eq!(assemble(&[]), b"[]");
        // The join matches the vendored serializer's rendering of a Vec.
        let values = vec![
            serde::Value::Object(vec![("a".to_owned(), serde::Value::Int(1))]),
            serde::Value::Object(vec![("b".to_owned(), serde::Value::Int(2))]),
        ];
        assert_eq!(
            assemble(&fragments),
            serde_json::to_string(&values).unwrap().into_bytes()
        );
    }

    #[test]
    fn job_ids_are_unique_even_for_identical_bodies() {
        let a = fresh_id(0, b"body");
        let b = fresh_id(0, b"body");
        assert_ne!(a, b);
        assert_eq!(a.len(), 16);
    }

    #[test]
    fn a_tenant_bucket_empties_and_refills() {
        let quota = TenantQuota::new(1000.0, 2.0);
        assert!(quota.admit("acme"));
        assert!(quota.admit("acme"));
        // Burst exhausted; an independent tenant is unaffected.
        let third = quota.admit("acme");
        assert!(quota.admit("other"));
        if !third {
            // At 1000 tokens/s the bucket refills within a few ms.
            let refilled = (0..200).any(|_| {
                std::thread::sleep(std::time::Duration::from_millis(1));
                quota.admit("acme")
            });
            assert!(refilled, "bucket never refilled");
        }
    }

    #[test]
    fn a_zero_rate_bucket_sheds_after_its_burst() {
        let quota = TenantQuota::new(0.0, 1.0);
        assert!(quota.admit("acme"));
        assert!(!quota.admit("acme"));
        assert!(!quota.admit("acme"));
    }

    #[test]
    fn checkpoints_round_trip_through_disk() {
        let dir = std::env::temp_dir().join(format!("af-jobs-test-{}", fresh_id(0, b"dir")));
        fs::create_dir_all(&dir).unwrap();
        let entry = JobEntry {
            id: "abc123".to_owned(),
            tenant: "acme".to_owned(),
            token: CancelToken::new(),
            total: 3,
            request: "{\"array_sizes\":[16]}".to_owned(),
            progress: Mutex::new(JobProgress {
                status: JobStatus::Running,
                fragments: vec!["{\"x\":1}".to_owned()],
                error: String::new(),
            }),
        };
        persist(&dir, &entry).unwrap();
        let loaded = load_checkpoint(&dir.join("abc123.json")).unwrap();
        assert_eq!(loaded.id, "abc123");
        assert_eq!(loaded.tenant, "acme");
        assert_eq!(loaded.total, 3);
        assert_eq!(loaded.request, entry.request);
        let progress = lock(&loaded.progress);
        assert_eq!(progress.status, JobStatus::Running);
        assert_eq!(progress.fragments, vec!["{\"x\":1}".to_owned()]);
        drop(progress);
        // A corrupted checkpoint is rejected, not half-loaded.
        fs::write(dir.join("bad.json"), b"{not json").unwrap();
        assert!(load_checkpoint(&dir.join("bad.json")).is_err());
        // A checkpoint claiming more points than its total is rejected.
        fs::write(
            dir.join("over.json"),
            br#"{"id":"over","tenant":"t","status":"running","total":1,"request":"{}","fragments":["a","b"],"error":""}"#,
        )
        .unwrap();
        assert!(load_checkpoint(&dir.join("over.json")).is_err());
        fs::remove_dir_all(&dir).unwrap();
    }

    #[test]
    fn checkpoints_stream_the_tree_bytes() {
        const ALPHABET: [char; 10] = ['a', '{', '"', ':', '\\', '\n', '\u{1}', '/', 'é', '😀'];
        let mut rng = gemm::rng::SplitMix64::new(14);
        let text = |rng: &mut gemm::rng::SplitMix64| -> String {
            (0..rng.next_u64() % 16)
                .map(|_| ALPHABET[(rng.next_u64() % ALPHABET.len() as u64) as usize])
                .collect()
        };
        for _ in 0..256 {
            let checkpoint = Checkpoint {
                id: text(&mut rng),
                tenant: text(&mut rng),
                status: text(&mut rng),
                total: rng.next_u64() as usize,
                request: text(&mut rng),
                fragments: (0..rng.next_u64() % 5).map(|_| text(&mut rng)).collect(),
                error: text(&mut rng),
            };
            assert_eq!(
                serde_json::to_string(&checkpoint).unwrap(),
                serde_json::to_string(&checkpoint.to_value()).unwrap()
            );
        }
    }

    #[test]
    fn cancelling_a_job_is_terminal_and_idempotent() {
        let entry = JobEntry {
            id: "j".to_owned(),
            tenant: "t".to_owned(),
            token: CancelToken::new(),
            total: 2,
            request: String::new(),
            progress: Mutex::new(JobProgress {
                status: JobStatus::Running,
                fragments: Vec::new(),
                error: String::new(),
            }),
        };
        assert!(entry.cancel_by_client());
        assert!(entry.token.cancel_requested());
        assert!(!entry.cancel_by_client(), "second DELETE is a no-op");
        let (status, completed, total, _) = entry.snapshot();
        assert_eq!(status, JobStatus::Cancelled);
        assert_eq!((completed, total), (0, 2));
        assert!(entry.result().is_none(), "cancelled jobs have no result");
    }
}
