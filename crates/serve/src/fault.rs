//! Deterministic fault injection for the serving stack.
//!
//! A [`FaultPlan`] is a seeded schedule of syscall-level faults — EINTR,
//! spurious wakeups, short reads/writes, `WouldBlock`, mid-body resets,
//! and `accept(2)` failures — consulted by the event loop at every I/O
//! boundary: the stream shim ([`crate::conn::FaultyStream`]) wraps each
//! connection's reads and writes, a `FaultyPoller` wraps the loop's
//! [`Poller`], and the accept path asks the plan before touching the
//! listener. Every decision is drawn from one `SplitMix64`
//! stream, so a fault schedule is replayable from its printed seed: the
//! same seed produces the same sequence of injected faults (the exact
//! interleaving across threads still varies, which is the point — the
//! chaos invariant must hold for *any* schedule the seed produces).
//!
//! The chaos invariant the harness checks (see `tests/chaos.rs` and
//! `scripts/chaos_smoke.sh`): under any seeded fault schedule the server
//! never panics, never deadlocks, and every request answered 200 carries
//! the byte-identical body it would have gotten with no faults.

use crate::poll::{Event, Interest, Poller};
use gemm::rng::SplitMix64;
use std::io;
use std::os::fd::RawFd;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::Mutex;
use std::time::Duration;

/// Per-mille (0..=1000) fault rates plus the seed that makes the
/// schedule deterministic. The default rates are tuned so connections
/// still complete routinely: faults exercise the retry branches without
/// drowning the happy path.
#[derive(Debug, Clone)]
pub struct FaultConfig {
    /// Seed for the fault schedule; print it to make a run replayable.
    pub seed: u64,
    /// Per-mille chance a stream read returns `EINTR`.
    pub read_eintr: u32,
    /// Per-mille chance a stream read returns `WouldBlock`.
    pub read_wouldblock: u32,
    /// Per-mille chance a stream read is truncated to a few bytes.
    pub read_short: u32,
    /// Per-mille chance a stream read returns `ECONNRESET`.
    pub read_reset: u32,
    /// Per-mille chance a stream write returns `EINTR`.
    pub write_eintr: u32,
    /// Per-mille chance a stream write returns `WouldBlock`.
    pub write_wouldblock: u32,
    /// Per-mille chance a stream write is truncated to a few bytes.
    pub write_short: u32,
    /// Per-mille chance a stream write returns `ECONNRESET` (a mid-body
    /// reset when it lands inside a response).
    pub write_reset: u32,
    /// Per-mille chance a poll returns early with no events (the shape
    /// EINTR takes after `poll.rs` swallows it).
    pub poll_eintr: u32,
    /// Per-mille chance a poll reports one extra, spurious readiness
    /// event for an arbitrary token.
    pub spurious_wakeup: u32,
    /// How many `accept(2)` calls fail with `EMFILE` before the listener
    /// behaves again (a burst, not a rate: deterministic regardless of
    /// accept timing).
    pub accept_fail_burst: u32,
}

impl FaultConfig {
    /// The default chaos-mode rates under a caller-chosen seed.
    pub fn with_seed(seed: u64) -> Self {
        Self {
            seed,
            read_eintr: 20,
            read_wouldblock: 20,
            read_short: 60,
            read_reset: 4,
            write_eintr: 20,
            write_wouldblock: 20,
            write_short: 60,
            write_reset: 4,
            poll_eintr: 10,
            spurious_wakeup: 10,
            accept_fail_burst: 0,
        }
    }
}

/// What the fault plan decided for one read or write call.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub(crate) enum IoFault {
    /// Perform the real operation.
    None,
    /// Return `io::ErrorKind::Interrupted`.
    Eintr,
    /// Return `io::ErrorKind::WouldBlock`.
    WouldBlock,
    /// Return `io::ErrorKind::ConnectionReset`.
    Reset,
    /// Truncate the operation to this many bytes, then do it for real.
    Short(usize),
}

/// What the fault plan decided for one poll call.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub(crate) enum PollFault {
    /// Poll normally.
    None,
    /// Return immediately with no events (EINTR's observable shape).
    Eintr,
    /// Poll normally, then append one spurious readiness event for the
    /// given token.
    Spurious(usize),
}

/// A seeded, deterministic schedule of injected faults. Shared across
/// every event loop and shim of one server via `Arc`.
#[derive(Debug)]
pub struct FaultPlan {
    config: FaultConfig,
    rng: Mutex<SplitMix64>,
    injected: AtomicU64,
    accepts_failed: AtomicU64,
}

impl FaultPlan {
    /// Builds the plan; the schedule is a pure function of
    /// `config.seed` and the sequence of decision calls.
    pub fn new(config: FaultConfig) -> Self {
        let rng = Mutex::new(SplitMix64::new(config.seed));
        Self {
            config,
            rng,
            injected: AtomicU64::new(0),
            accepts_failed: AtomicU64::new(0),
        }
    }

    /// The seed the schedule replays from.
    pub fn seed(&self) -> u64 {
        self.config.seed
    }

    /// Total faults injected so far (tests assert the schedule actually
    /// fired).
    pub fn injected(&self) -> u64 {
        self.injected.load(Ordering::Relaxed)
    }

    /// One deterministic draw in `0..1000`.
    fn draw(&self) -> u64 {
        // A panic while holding this lock is impossible (next_u64 does
        // not panic), but recover rather than poison-propagate anyway.
        let mut rng = self.rng.lock().unwrap_or_else(|e| e.into_inner());
        rng.next_u64() % 1000
    }

    fn note(&self) {
        self.injected.fetch_add(1, Ordering::Relaxed);
    }

    fn io_fault(&self, len: usize, eintr: u32, wouldblock: u32, short: u32, reset: u32) -> IoFault {
        let roll = self.draw();
        let eintr = u64::from(eintr);
        let wouldblock = u64::from(wouldblock);
        let short = u64::from(short);
        let reset = u64::from(reset);
        if roll < eintr {
            self.note();
            IoFault::Eintr
        } else if roll < eintr + wouldblock {
            self.note();
            IoFault::WouldBlock
        } else if roll < eintr + wouldblock + reset {
            self.note();
            IoFault::Reset
        } else if roll < eintr + wouldblock + reset + short && len > 1 {
            self.note();
            // Truncate to 1..len bytes, biased small so head/body
            // boundaries get split often.
            IoFault::Short(1 + (self.draw() as usize) % (len.min(64) - 1).max(1))
        } else {
            IoFault::None
        }
    }

    /// Decides the fate of one stream read of `len` bytes.
    pub(crate) fn on_read(&self, len: usize) -> IoFault {
        let c = &self.config;
        self.io_fault(
            len,
            c.read_eintr,
            c.read_wouldblock,
            c.read_short,
            c.read_reset,
        )
    }

    /// Decides the fate of one stream write of `len` bytes.
    pub(crate) fn on_write(&self, len: usize) -> IoFault {
        let c = &self.config;
        self.io_fault(
            len,
            c.write_eintr,
            c.write_wouldblock,
            c.write_short,
            c.write_reset,
        )
    }

    /// Decides the fate of one poll call.
    pub(crate) fn on_poll(&self) -> PollFault {
        let c = &self.config;
        let roll = self.draw();
        let eintr = u64::from(c.poll_eintr);
        let spurious = u64::from(c.spurious_wakeup);
        if roll < eintr {
            self.note();
            PollFault::Eintr
        } else if roll < eintr + spurious {
            self.note();
            // Any token is fair game: the loop must shrug off readiness
            // for the listener, the waker, live slots and dead slots.
            PollFault::Spurious(self.draw() as usize % 40)
        } else {
            PollFault::None
        }
    }

    /// Returns the error the next `accept(2)` should fail with, if the
    /// configured burst has not been exhausted yet.
    pub(crate) fn on_accept(&self) -> Option<io::Error> {
        let burst = u64::from(self.config.accept_fail_burst);
        if burst == 0 {
            return None;
        }
        let failed = self
            .accepts_failed
            .fetch_update(Ordering::Relaxed, Ordering::Relaxed, |n| {
                (n < burst).then_some(n + 1)
            });
        match failed {
            Ok(_) => {
                self.note();
                // EMFILE has no stable ErrorKind; raw os error 24 is what
                // a real fd exhaustion produces on Linux.
                Some(io::Error::from_raw_os_error(24))
            }
            Err(_) => None,
        }
    }
}

/// A [`Poller`] that injects EINTR-shaped empty polls and spurious
/// readiness events around an inner poller.
pub(crate) struct FaultyPoller {
    inner: Box<dyn Poller>,
    plan: std::sync::Arc<FaultPlan>,
}

impl FaultyPoller {
    pub(crate) fn new(inner: Box<dyn Poller>, plan: std::sync::Arc<FaultPlan>) -> Self {
        Self { inner, plan }
    }
}

impl Poller for FaultyPoller {
    fn register(&mut self, fd: RawFd, token: usize, interest: Interest) -> io::Result<()> {
        self.inner.register(fd, token, interest)
    }

    fn reregister(&mut self, fd: RawFd, token: usize, interest: Interest) -> io::Result<()> {
        self.inner.reregister(fd, token, interest)
    }

    fn deregister(&mut self, fd: RawFd) -> io::Result<()> {
        self.inner.deregister(fd)
    }

    fn poll(&mut self, events: &mut Vec<Event>, timeout: Option<Duration>) -> io::Result<()> {
        match self.plan.on_poll() {
            PollFault::Eintr => {
                // poll.rs maps a real EINTR to Ok-with-no-events; produce
                // exactly that shape without sleeping the timeout.
                events.clear();
                Ok(())
            }
            PollFault::Spurious(token) => {
                self.inner.poll(events, timeout)?;
                events.push(Event {
                    token,
                    readable: true,
                    writable: true,
                });
                Ok(())
            }
            PollFault::None => self.inner.poll(events, timeout),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    /// The same seed must produce the same decision sequence — the
    /// schedule is replayable.
    #[test]
    fn fault_schedule_is_deterministic_per_seed() {
        let a = FaultPlan::new(FaultConfig::with_seed(7));
        let b = FaultPlan::new(FaultConfig::with_seed(7));
        for _ in 0..512 {
            assert_eq!(a.on_read(4096), b.on_read(4096));
            assert_eq!(a.on_write(4096), b.on_write(4096));
            assert_eq!(a.on_poll(), b.on_poll());
        }
        assert_eq!(a.injected(), b.injected());
        assert!(a.injected() > 0, "default rates must actually fire");
    }

    /// Different seeds must diverge (otherwise the seed is not doing
    /// anything).
    #[test]
    fn fault_schedules_diverge_across_seeds() {
        let a = FaultPlan::new(FaultConfig::with_seed(1));
        let b = FaultPlan::new(FaultConfig::with_seed(2));
        let divergent = (0..512).any(|_| a.on_read(4096) != b.on_read(4096));
        assert!(divergent);
    }

    /// The accept burst injects exactly `accept_fail_burst` EMFILEs and
    /// then stops, regardless of how often accept is retried.
    #[test]
    fn accept_burst_is_bounded() {
        let mut config = FaultConfig::with_seed(3);
        config.accept_fail_burst = 3;
        let plan = FaultPlan::new(config);
        let failures = (0..64).filter(|_| plan.on_accept().is_some()).count();
        assert_eq!(failures, 3);
        let err = FaultPlan::new(FaultConfig {
            accept_fail_burst: 1,
            ..FaultConfig::with_seed(4)
        })
        .on_accept()
        .expect("first accept fails");
        assert_eq!(err.raw_os_error(), Some(24));
    }

    /// Short faults never truncate to zero (that would fabricate EOF).
    #[test]
    fn short_faults_keep_at_least_one_byte() {
        let mut config = FaultConfig::with_seed(5);
        config.read_short = 1000;
        config.read_eintr = 0;
        config.read_wouldblock = 0;
        config.read_reset = 0;
        let plan = FaultPlan::new(config);
        for len in [2usize, 3, 16, 4096] {
            match plan.on_read(len) {
                IoFault::Short(n) => assert!(n >= 1 && n < len, "short {n} of {len}"),
                other => panic!("expected Short, got {other:?}"),
            }
        }
        // A 1-byte read cannot be shortened; it must pass through.
        assert_eq!(plan.on_read(1), IoFault::None);
    }
}
