//! A hand-rolled parallel execution engine for embarrassingly parallel
//! evaluation work.
//!
//! The build environment has no crates.io access, so instead of `rayon` the
//! workspace ships this small sharded runner built only on
//! [`std::thread::scope`], [`std::sync::Mutex`] and [`std::sync::mpsc`]. A
//! fixed pool of scoped worker threads pops indexed jobs from a shared
//! queue (work-stealing in the degenerate single-queue sense: an idle
//! worker always takes the next undone job, so an unlucky shard cannot
//! stall the run), and every result is delivered back tagged with its job
//! index. Results are therefore returned **in submission order regardless
//! of completion order** — the determinism contract that lets callers swap
//! serial and parallel execution without observing any difference beyond
//! wall-clock time (see `DESIGN.md`, "Parallel execution engine").
//!
//! The runner is exposed to downstream crates as
//! [`ParallelExecutor`]; `arrayflex` re-exports it as
//! `arrayflex::ParallelExecutor`.

use crate::cancel::{CancelToken, Cancelled};
use std::sync::{mpsc, Mutex};
use std::thread;

/// A sharded thread-pool runner with deterministic result ordering.
///
/// An executor with one thread (the default for every API in this
/// workspace) runs jobs inline on the calling thread, in order, without
/// spawning anything — serial mode is not merely "one worker thread", it is
/// the exact sequential loop, which keeps single-threaded behavior
/// bit-for-bit identical to the pre-parallel code paths.
///
/// # Examples
///
/// ```
/// use gemm::ParallelExecutor;
///
/// let executor = ParallelExecutor::new(4);
/// let squares = executor.run((0u64..8).collect(), |x| x * x);
/// // Results come back in submission order, not completion order.
/// assert_eq!(squares, vec![0, 1, 4, 9, 16, 25, 36, 49]);
///
/// // A serial executor produces exactly the same values.
/// assert_eq!(ParallelExecutor::serial().run((0u64..8).collect(), |x| x * x), squares);
/// ```
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub struct ParallelExecutor {
    threads: usize,
}

impl ParallelExecutor {
    /// Creates an executor with the given number of worker threads.
    ///
    /// `threads == 0` auto-detects the available hardware parallelism
    /// (falling back to 1 if detection fails); `threads == 1` is serial
    /// mode.
    #[must_use]
    pub fn new(threads: usize) -> Self {
        let threads = if threads == 0 {
            thread::available_parallelism().map_or(1, std::num::NonZeroUsize::get)
        } else {
            threads
        };
        Self { threads }
    }

    /// Creates a serial (single-thread, inline) executor.
    #[must_use]
    pub const fn serial() -> Self {
        Self { threads: 1 }
    }

    /// Number of worker threads this executor fans out to (1 = serial).
    #[must_use]
    pub fn threads(&self) -> usize {
        self.threads
    }

    /// Returns `true` if jobs run inline on the calling thread.
    #[must_use]
    pub fn is_serial(&self) -> bool {
        self.threads <= 1
    }

    /// Runs `f` over every item and returns the results **in item order**.
    ///
    /// In serial mode this is exactly `items.into_iter().map(f).collect()`.
    /// Otherwise it is [`ParallelExecutor::run_cancellable`] with a token
    /// nothing can fire: `min(threads, items)` scoped workers drain a
    /// shared job queue, and each result is routed back to the slot of the
    /// item that produced it, so the output is independent of scheduling.
    ///
    /// # Panics
    ///
    /// If `f` panics on a worker thread, the panic is propagated to the
    /// caller when the thread scope joins.
    pub fn run<T, R, F>(&self, items: Vec<T>, f: F) -> Vec<R>
    where
        T: Send,
        R: Send,
        F: Fn(T) -> R + Sync,
    {
        if self.is_serial() || items.len() <= 1 {
            return items.into_iter().map(f).collect();
        }
        self.run_cancellable(items, &CancelToken::new(), f)
            .expect("a token no one else holds never fires")
    }

    /// Runs a fallible `f` over every item, collecting either all results
    /// (in item order) or the first error **in item order** — which makes
    /// the reported error deterministic even though a later job may have
    /// failed first on the wall clock.
    ///
    /// # Errors
    ///
    /// Returns the error of the lowest-indexed failing item.
    pub fn try_run<T, R, E, F>(&self, items: Vec<T>, f: F) -> Result<Vec<R>, E>
    where
        T: Send,
        R: Send,
        E: Send,
        F: Fn(T) -> Result<R, E> + Sync,
    {
        self.run(items, f).into_iter().collect()
    }

    /// Like [`ParallelExecutor::run`], but checks `token` between job
    /// items and stops cooperatively once it reports cancelled.
    ///
    /// Cancellation is observed at item boundaries only: items already
    /// running when the token fires complete normally, so the run stops
    /// within one job-item boundary and never abandons an item midway. If
    /// every item finished before cancellation was observed the completed
    /// results are returned — the work is done, so a late cancellation is
    /// moot. The executor itself holds no state across runs; after a
    /// cancelled run it is immediately reusable.
    ///
    /// # Errors
    ///
    /// Returns [`Cancelled`] (with the reason and completed/total item
    /// counts) when the token fired before every item completed.
    ///
    /// # Panics
    ///
    /// If `f` panics on a worker thread, the panic is propagated to the
    /// caller when the thread scope joins.
    pub fn run_cancellable<T, R, F>(
        &self,
        items: Vec<T>,
        token: &CancelToken,
        f: F,
    ) -> Result<Vec<R>, Cancelled>
    where
        T: Send,
        R: Send,
        F: Fn(T) -> R + Sync,
    {
        let jobs = items.len();
        if self.is_serial() || jobs <= 1 {
            let mut results = Vec::with_capacity(jobs);
            for item in items {
                if token.is_cancelled() {
                    return Err(token.cancelled_error(results.len(), jobs));
                }
                results.push(f(item));
            }
            return Ok(results);
        }
        let queue = Mutex::new(items.into_iter().enumerate());
        let (sender, receiver) = mpsc::channel::<(usize, R)>();
        let workers = self.threads.min(jobs);
        let mut slots: Vec<Option<R>> = Vec::with_capacity(jobs);
        slots.resize_with(jobs, || None);
        let mut completed = 0usize;
        thread::scope(|scope| {
            let queue = &queue;
            let f = &f;
            for _ in 0..workers {
                let sender = sender.clone();
                scope.spawn(move || loop {
                    // The token check sits before the pop: a fired token
                    // stops every worker at its next item boundary while
                    // in-flight items run to completion. The queue lock is
                    // held only while popping, never while running the job.
                    if token.is_cancelled() {
                        break;
                    }
                    let job = queue.lock().expect("job queue poisoned").next();
                    let Some((index, item)) = job else { break };
                    if sender.send((index, f(item))).is_err() {
                        break;
                    }
                });
            }
            drop(sender);
            // The receive loop ends when the last worker drops its sender,
            // including when a worker panicked mid-run (its sender is
            // dropped during unwinding, and the scope re-raises the panic).
            for (index, result) in receiver {
                slots[index] = Some(result);
                completed += 1;
            }
        });
        if completed == jobs {
            // Every item finished — a cancellation that landed after the
            // last pop changes nothing, so return the full result set.
            return Ok(slots
                .into_iter()
                .map(|slot| slot.expect("all slots are filled when completed == jobs"))
                .collect());
        }
        Err(token.cancelled_error(completed, jobs))
    }

    /// Like [`ParallelExecutor::try_run`], but checks `token` between job
    /// items. Cancellation wins over item errors: if the token fired
    /// before every item completed, the [`Cancelled`] error (converted via
    /// `E: From<Cancelled>`) is returned even when some completed item
    /// also failed — the partial error set under cancellation is not
    /// deterministic, the cancellation itself is.
    ///
    /// # Errors
    ///
    /// Returns the converted [`Cancelled`] error when the token fired
    /// early, otherwise the error of the lowest-indexed failing item.
    pub fn try_run_cancellable<T, R, E, F>(
        &self,
        items: Vec<T>,
        token: &CancelToken,
        f: F,
    ) -> Result<Vec<R>, E>
    where
        T: Send,
        R: Send,
        E: Send + From<Cancelled>,
        F: Fn(T) -> Result<R, E> + Sync,
    {
        self.run_cancellable(items, token, f)
            .map_err(E::from)?
            .into_iter()
            .collect()
    }
}

impl Default for ParallelExecutor {
    /// The default executor is serial, preserving the workspace's
    /// single-thread determinism guarantee unless a caller opts in.
    fn default() -> Self {
        Self::serial()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::sync::atomic::{AtomicUsize, Ordering};

    #[test]
    fn executor_is_send_sync_and_copy() {
        fn assert_send_sync<T: Send + Sync + Copy>() {}
        assert_send_sync::<ParallelExecutor>();
    }

    #[test]
    fn zero_threads_autodetects_at_least_one() {
        let auto = ParallelExecutor::new(0);
        assert!(auto.threads() >= 1);
        assert_eq!(ParallelExecutor::serial().threads(), 1);
        assert!(ParallelExecutor::serial().is_serial());
        assert!(!ParallelExecutor::new(8).is_serial());
        assert_eq!(ParallelExecutor::default(), ParallelExecutor::serial());
    }

    #[test]
    fn results_are_in_submission_order_for_any_thread_count() {
        let items: Vec<u64> = (0..97).collect();
        let expected: Vec<u64> = items.iter().map(|x| x * 3 + 1).collect();
        for threads in [1, 2, 3, 8, 128] {
            let got = ParallelExecutor::new(threads).run(items.clone(), |x| x * 3 + 1);
            assert_eq!(got, expected, "threads = {threads}");
        }
    }

    #[test]
    fn every_job_runs_exactly_once() {
        let counter = AtomicUsize::new(0);
        let results = ParallelExecutor::new(4).run((0..200).collect::<Vec<u32>>(), |x| {
            counter.fetch_add(1, Ordering::Relaxed);
            x
        });
        assert_eq!(results.len(), 200);
        assert_eq!(counter.load(Ordering::Relaxed), 200);
    }

    #[test]
    fn empty_and_singleton_inputs_never_spawn() {
        let executor = ParallelExecutor::new(16);
        assert_eq!(executor.run(Vec::<u32>::new(), |x| x), Vec::<u32>::new());
        assert_eq!(executor.run(vec![7u32], |x| x + 1), vec![8]);
    }

    #[test]
    fn try_run_reports_the_first_error_in_item_order() {
        let executor = ParallelExecutor::new(4);
        let result: Result<Vec<u32>, String> = executor.try_run((0u32..50).collect(), |x| {
            if x % 10 == 3 {
                Err(format!("bad {x}"))
            } else {
                Ok(x)
            }
        });
        // Items 3, 13, 23, ... all fail; the reported error is item 3's
        // regardless of which worker finished first.
        assert_eq!(result.unwrap_err(), "bad 3");

        let ok: Result<Vec<u32>, String> = executor.try_run((0u32..10).collect(), Ok);
        assert_eq!(ok.unwrap(), (0..10).collect::<Vec<u32>>());
    }

    #[test]
    fn an_uncancelled_run_matches_run_exactly() {
        let token = CancelToken::new();
        let items: Vec<u64> = (0..64).collect();
        for threads in [1, 4] {
            let executor = ParallelExecutor::new(threads);
            let plain = executor.run(items.clone(), |x| x * 7);
            let cancellable = executor
                .run_cancellable(items.clone(), &token, |x| x * 7)
                .expect("token never fired");
            assert_eq!(plain, cancellable, "threads = {threads}");
        }
    }

    #[test]
    fn a_pre_cancelled_run_does_no_work_and_the_executor_stays_usable() {
        let token = CancelToken::new();
        token.cancel("stop before start");
        let ran = AtomicUsize::new(0);
        for threads in [1, 4] {
            let executor = ParallelExecutor::new(threads);
            let err = executor
                .run_cancellable((0u32..32).collect(), &token, |x| {
                    ran.fetch_add(1, Ordering::Relaxed);
                    x
                })
                .unwrap_err();
            assert_eq!(err.completed, 0, "threads = {threads}");
            assert_eq!(err.total, 32);
            assert_eq!(err.reason, "stop before start");
            // Cancellation leaves no state behind: the same executor
            // immediately runs fresh work to completion.
            let fresh = executor.run((0u32..8).collect(), |x| x + 1);
            assert_eq!(fresh, (1..9).collect::<Vec<u32>>());
        }
        assert_eq!(
            ran.load(Ordering::Relaxed),
            0,
            "no item ran after pre-cancel"
        );
    }

    #[test]
    fn cancelling_mid_run_stops_within_one_item_boundary() {
        // The 10th completed item fires the token; every worker must stop
        // at its next boundary, so far fewer than all 500 items run.
        for threads in [1, 4] {
            let token = CancelToken::new();
            let completed = AtomicUsize::new(0);
            // The worker running the 10th item can be preempted before it
            // calls `cancel()` while the others legitimately finish more
            // items, so the bound counts from what had run when the cancel
            // returned, not from 10.
            let at_cancel = AtomicUsize::new(0);
            let executor = ParallelExecutor::new(threads);
            let err = executor
                .run_cancellable((0u32..500).collect(), &token, |x| {
                    if completed.fetch_add(1, Ordering::SeqCst) + 1 == 10 {
                        token.cancel("tenth item pulled the cord");
                        at_cancel.store(completed.load(Ordering::SeqCst), Ordering::SeqCst);
                    }
                    x
                })
                .unwrap_err();
            let ran = completed.load(Ordering::SeqCst);
            let at_cancel = at_cancel.load(Ordering::SeqCst);
            assert!(ran >= 10, "threads = {threads}: {ran} items ran");
            // At most one in-flight item per worker finishes after the
            // cancel; everything else must be left unpopped.
            assert!(
                ran <= at_cancel + threads,
                "threads = {threads}: {ran} items ran, {at_cancel} when the cancel returned"
            );
            assert_eq!(err.total, 500);
            assert!(err.completed <= at_cancel + threads);
        }
    }

    #[test]
    fn try_run_cancellable_reports_cancellation_over_item_errors() {
        #[derive(Debug, PartialEq)]
        enum TestError {
            Item(u32),
            Cancelled(String),
        }
        impl From<Cancelled> for TestError {
            fn from(c: Cancelled) -> Self {
                Self::Cancelled(c.reason)
            }
        }
        let token = CancelToken::new();
        token.cancel("cancelled wins");
        let result: Result<Vec<u32>, TestError> =
            ParallelExecutor::new(4)
                .try_run_cancellable((0u32..50).collect(), &token, |x| Err(TestError::Item(x)));
        assert_eq!(
            result.unwrap_err(),
            TestError::Cancelled("cancelled wins".to_owned())
        );

        // Without cancellation the behavior is exactly try_run's.
        let fresh = CancelToken::new();
        let result: Result<Vec<u32>, TestError> =
            ParallelExecutor::new(4).try_run_cancellable((0u32..50).collect(), &fresh, |x| {
                if x == 3 {
                    Err(TestError::Item(x))
                } else {
                    Ok(x)
                }
            });
        assert_eq!(result.unwrap_err(), TestError::Item(3));
    }

    #[test]
    fn a_run_that_finishes_before_observing_the_token_returns_its_results() {
        // Serial path: cancel after the last item has been pushed — there
        // is no further boundary check, so the full result comes back.
        let token = CancelToken::new();
        let items: Vec<u32> = (0..4).collect();
        let result = ParallelExecutor::serial().run_cancellable(items, &token, |x| {
            if x == 3 {
                token.cancel("too late");
            }
            x
        });
        assert_eq!(result.expect("work was already done"), vec![0, 1, 2, 3]);
    }

    #[test]
    fn parallel_matches_serial_on_heterogeneous_work() {
        // Jobs with wildly different costs still land in the right slots.
        let work = |x: u64| -> u64 {
            let mut acc = x;
            for _ in 0..(x % 7) * 1000 {
                acc = acc.wrapping_mul(6364136223846793005).wrapping_add(1);
            }
            acc
        };
        let items: Vec<u64> = (0..64).collect();
        let serial = ParallelExecutor::serial().run(items.clone(), work);
        let parallel = ParallelExecutor::new(8).run(items, work);
        assert_eq!(serial, parallel);
    }
}
