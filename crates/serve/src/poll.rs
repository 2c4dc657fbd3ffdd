//! Readiness polling behind a vendored, mio-style [`Poller`] trait.
//!
//! The build environment has no crates.io access, so — mirroring the
//! hand-rolled HTTP layer — this module implements the small slice of a
//! readiness API the event loop needs: register a descriptor under a
//! `usize` token with read/write interest, block until something is
//! ready, and wake the loop from another thread.
//!
//! Two implementations sit behind the trait:
//!
//! * [`EpollPoller`] — Linux `epoll` via raw `extern "C"` syscall
//!   wrappers (`epoll_create1` / `epoll_ctl` / `epoll_wait`), O(ready)
//!   per poll. Used by default on Linux.
//! * [`PollFallback`] — portable `poll(2)`, O(registered) per poll. Used
//!   on non-Linux targets (the test suite exercises both backends through
//!   the same trait).
//!
//! Both backends are **level-triggered**: a descriptor with unread bytes
//! (or writable space) is reported again on every poll until the
//! condition clears, so the event loop never needs to drain descriptors
//! to exhaustion within one event.
//!
//! This is the only module in the crate allowed to use `unsafe` (the
//! crate root is `#![deny(unsafe_code)]`); the unsafety is confined to
//! the two FFI call sites and the `#[repr(C)]` structs they exchange.
#![allow(unsafe_code)]

use std::io::{self, Read, Write};
use std::os::unix::io::{AsRawFd, RawFd};
use std::os::unix::net::UnixStream;
use std::sync::Arc;
use std::time::Duration;

/// What readiness to watch a descriptor for.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Interest {
    /// Report when the descriptor is readable.
    pub readable: bool,
    /// Report when the descriptor is writable.
    pub writable: bool,
}

impl Interest {
    /// Read interest only.
    pub const READABLE: Self = Self {
        readable: true,
        writable: false,
    };

    /// Write interest only.
    pub const WRITABLE: Self = Self {
        readable: false,
        writable: true,
    };
}

/// One readiness event returned by [`Poller::poll`].
#[derive(Debug, Clone, Copy)]
pub struct Event {
    /// The token the descriptor was registered under.
    pub token: usize,
    /// The descriptor is readable (or hung up / errored: attempting the
    /// read is how the loop observes EOF and error conditions).
    pub readable: bool,
    /// The descriptor is writable.
    pub writable: bool,
}

/// A minimal readiness poller. One instance belongs to one event-loop
/// thread; wakeups from other threads go through a [`Waker`] registered
/// like any other readable descriptor.
pub trait Poller: Send {
    /// Starts watching `fd` under `token`.
    ///
    /// # Errors
    ///
    /// Propagates the underlying syscall failure.
    fn register(&mut self, fd: RawFd, token: usize, interest: Interest) -> io::Result<()>;

    /// Changes the interest set of an already registered descriptor.
    ///
    /// # Errors
    ///
    /// Propagates the underlying syscall failure.
    fn reregister(&mut self, fd: RawFd, token: usize, interest: Interest) -> io::Result<()>;

    /// Stops watching `fd`.
    ///
    /// # Errors
    ///
    /// Propagates the underlying syscall failure.
    fn deregister(&mut self, fd: RawFd) -> io::Result<()>;

    /// Blocks until at least one registered descriptor is ready or the
    /// timeout elapses, appending events into `events` (cleared first).
    /// An interrupted wait (`EINTR`) returns successfully with no events.
    ///
    /// # Errors
    ///
    /// Propagates the underlying syscall failure.
    fn poll(&mut self, events: &mut Vec<Event>, timeout: Option<Duration>) -> io::Result<()>;
}

/// Builds the poller for this platform: epoll on Linux, the portable
/// `poll(2)` fallback elsewhere.
///
/// # Errors
///
/// Propagates the epoll-instance creation failure.
pub fn new_poller() -> io::Result<Box<dyn Poller>> {
    #[cfg(target_os = "linux")]
    {
        Ok(Box::new(EpollPoller::new()?))
    }
    #[cfg(not(target_os = "linux"))]
    {
        Ok(Box::new(PollFallback::new()))
    }
}

// ---------------------------------------------------------------------------
// FFI surface
// ---------------------------------------------------------------------------

mod sys {
    use std::os::raw::{c_int, c_short};

    // The kernel ABI packs epoll_event on x86 so the 64-bit data field
    // follows the 32-bit event mask without padding; other architectures
    // use natural alignment.
    #[cfg(any(target_arch = "x86_64", target_arch = "x86"))]
    #[repr(C, packed)]
    #[derive(Clone, Copy)]
    pub struct EpollEvent {
        pub events: u32,
        pub data: u64,
    }

    #[cfg(not(any(target_arch = "x86_64", target_arch = "x86")))]
    #[repr(C)]
    #[derive(Clone, Copy)]
    pub struct EpollEvent {
        pub events: u32,
        pub data: u64,
    }

    #[repr(C)]
    #[derive(Clone, Copy)]
    pub struct PollFd {
        pub fd: c_int,
        pub events: c_short,
        pub revents: c_short,
    }

    pub const EPOLLIN: u32 = 0x001;
    pub const EPOLLPRI: u32 = 0x002;
    pub const EPOLLOUT: u32 = 0x004;
    pub const EPOLLERR: u32 = 0x008;
    pub const EPOLLHUP: u32 = 0x010;
    pub const EPOLLRDHUP: u32 = 0x2000;
    pub const EPOLL_CTL_ADD: c_int = 1;
    pub const EPOLL_CTL_DEL: c_int = 2;
    pub const EPOLL_CTL_MOD: c_int = 3;
    pub const EPOLL_CLOEXEC: c_int = 0x80000;

    pub const POLLIN: c_short = 0x001;
    pub const POLLPRI: c_short = 0x002;
    pub const POLLOUT: c_short = 0x004;
    pub const POLLERR: c_short = 0x008;
    pub const POLLHUP: c_short = 0x010;

    extern "C" {
        #[cfg(target_os = "linux")]
        pub fn epoll_create1(flags: c_int) -> c_int;
        #[cfg(target_os = "linux")]
        pub fn epoll_ctl(epfd: c_int, op: c_int, fd: c_int, event: *mut EpollEvent) -> c_int;
        #[cfg(target_os = "linux")]
        pub fn epoll_wait(
            epfd: c_int,
            events: *mut EpollEvent,
            maxevents: c_int,
            timeout: c_int,
        ) -> c_int;
        #[cfg(target_os = "linux")]
        pub fn close(fd: c_int) -> c_int;
        pub fn poll(fds: *mut PollFd, nfds: std::os::raw::c_ulong, timeout: c_int) -> c_int;
    }
}

/// Converts an optional timeout into the millisecond argument both
/// syscalls take (`-1` blocks indefinitely).
fn timeout_ms(timeout: Option<Duration>) -> i32 {
    match timeout {
        None => -1,
        Some(d) => i32::try_from(d.as_millis()).unwrap_or(i32::MAX),
    }
}

// ---------------------------------------------------------------------------
// EpollPoller (Linux)
// ---------------------------------------------------------------------------

/// The epoll-backed poller. See the module docs for the trait contract.
#[cfg(target_os = "linux")]
pub struct EpollPoller {
    epfd: RawFd,
    buf: Vec<sys::EpollEvent>,
}

#[cfg(target_os = "linux")]
impl EpollPoller {
    /// Capacity of the per-poll event buffer; more ready descriptors than
    /// this simply surface on the next poll (epoll round-robins).
    const MAX_EVENTS: usize = 1024;

    /// Creates a new epoll instance (`EPOLL_CLOEXEC`).
    ///
    /// # Errors
    ///
    /// Propagates the `epoll_create1` failure.
    pub fn new() -> io::Result<Self> {
        // SAFETY: epoll_create1 takes a plain flag word and returns an fd
        // or -1; no pointers are exchanged.
        let epfd = unsafe { sys::epoll_create1(sys::EPOLL_CLOEXEC) };
        if epfd < 0 {
            return Err(io::Error::last_os_error());
        }
        Ok(Self {
            epfd,
            buf: vec![sys::EpollEvent { events: 0, data: 0 }; Self::MAX_EVENTS],
        })
    }

    fn ctl(
        &self,
        op: std::os::raw::c_int,
        fd: RawFd,
        interest: Option<Interest>,
    ) -> io::Result<()> {
        let mut event = sys::EpollEvent {
            events: interest.map_or(0, interest_to_epoll),
            data: 0,
        };
        // SAFETY: `event` outlives the call; the kernel copies it.
        let rc = unsafe { sys::epoll_ctl(self.epfd, op, fd, &mut event) };
        if rc < 0 {
            return Err(io::Error::last_os_error());
        }
        Ok(())
    }
}

#[cfg(target_os = "linux")]
fn interest_to_epoll(interest: Interest) -> u32 {
    let mut events = sys::EPOLLRDHUP;
    if interest.readable {
        events |= sys::EPOLLIN;
    }
    if interest.writable {
        events |= sys::EPOLLOUT;
    }
    events
}

#[cfg(target_os = "linux")]
impl Poller for EpollPoller {
    fn register(&mut self, fd: RawFd, token: usize, interest: Interest) -> io::Result<()> {
        let mut event = sys::EpollEvent {
            events: interest_to_epoll(interest),
            data: token as u64,
        };
        // SAFETY: `event` outlives the call; the kernel copies it.
        let rc = unsafe { sys::epoll_ctl(self.epfd, sys::EPOLL_CTL_ADD, fd, &mut event) };
        if rc < 0 {
            return Err(io::Error::last_os_error());
        }
        Ok(())
    }

    fn reregister(&mut self, fd: RawFd, token: usize, interest: Interest) -> io::Result<()> {
        let mut event = sys::EpollEvent {
            events: interest_to_epoll(interest),
            data: token as u64,
        };
        // SAFETY: `event` outlives the call; the kernel copies it.
        let rc = unsafe { sys::epoll_ctl(self.epfd, sys::EPOLL_CTL_MOD, fd, &mut event) };
        if rc < 0 {
            return Err(io::Error::last_os_error());
        }
        Ok(())
    }

    fn deregister(&mut self, fd: RawFd) -> io::Result<()> {
        self.ctl(sys::EPOLL_CTL_DEL, fd, None)
    }

    fn poll(&mut self, events: &mut Vec<Event>, timeout: Option<Duration>) -> io::Result<()> {
        events.clear();
        // SAFETY: `buf` is MAX_EVENTS initialized EpollEvent structs; the
        // kernel writes at most `maxevents` of them.
        let n = unsafe {
            sys::epoll_wait(
                self.epfd,
                self.buf.as_mut_ptr(),
                Self::MAX_EVENTS as std::os::raw::c_int,
                timeout_ms(timeout),
            )
        };
        if n < 0 {
            let err = io::Error::last_os_error();
            if err.kind() == io::ErrorKind::Interrupted {
                return Ok(());
            }
            return Err(err);
        }
        for raw in &self.buf[..n as usize] {
            // Copy out of the (possibly packed) struct before use.
            let mask = raw.events;
            let token = raw.data as usize;
            events.push(Event {
                token,
                readable: mask
                    & (sys::EPOLLIN
                        | sys::EPOLLPRI
                        | sys::EPOLLHUP
                        | sys::EPOLLRDHUP
                        | sys::EPOLLERR)
                    != 0,
                writable: mask & (sys::EPOLLOUT | sys::EPOLLHUP | sys::EPOLLERR) != 0,
            });
        }
        Ok(())
    }
}

#[cfg(target_os = "linux")]
impl Drop for EpollPoller {
    fn drop(&mut self) {
        // SAFETY: closing the epoll fd we own; double-close is impossible
        // because Drop runs once.
        unsafe {
            sys::close(self.epfd);
        }
    }
}

// ---------------------------------------------------------------------------
// PollFallback (portable)
// ---------------------------------------------------------------------------

/// The portable `poll(2)` fallback: keeps the registration table in user
/// space and rebuilds the `pollfd` array per call — O(registered) per
/// poll, which is fine for its role as a correctness backstop and a
/// second implementation to test the trait against.
#[derive(Default)]
pub struct PollFallback {
    entries: Vec<(RawFd, usize, Interest)>,
    scratch: Vec<sys::PollFd>,
}

impl PollFallback {
    /// Creates an empty fallback poller.
    #[must_use]
    pub fn new() -> Self {
        Self::default()
    }

    fn position(&self, fd: RawFd) -> Option<usize> {
        self.entries
            .iter()
            .position(|&(entry_fd, _, _)| entry_fd == fd)
    }
}

impl Poller for PollFallback {
    fn register(&mut self, fd: RawFd, token: usize, interest: Interest) -> io::Result<()> {
        if self.position(fd).is_some() {
            return Err(io::Error::new(
                io::ErrorKind::AlreadyExists,
                "fd already registered",
            ));
        }
        self.entries.push((fd, token, interest));
        Ok(())
    }

    fn reregister(&mut self, fd: RawFd, token: usize, interest: Interest) -> io::Result<()> {
        let index = self
            .position(fd)
            .ok_or_else(|| io::Error::new(io::ErrorKind::NotFound, "fd not registered"))?;
        self.entries[index] = (fd, token, interest);
        Ok(())
    }

    fn deregister(&mut self, fd: RawFd) -> io::Result<()> {
        let index = self
            .position(fd)
            .ok_or_else(|| io::Error::new(io::ErrorKind::NotFound, "fd not registered"))?;
        self.entries.swap_remove(index);
        Ok(())
    }

    fn poll(&mut self, events: &mut Vec<Event>, timeout: Option<Duration>) -> io::Result<()> {
        events.clear();
        self.scratch.clear();
        for &(fd, _, interest) in &self.entries {
            let mut mask: std::os::raw::c_short = 0;
            if interest.readable {
                mask |= sys::POLLIN | sys::POLLPRI;
            }
            if interest.writable {
                mask |= sys::POLLOUT;
            }
            self.scratch.push(sys::PollFd {
                fd,
                events: mask,
                revents: 0,
            });
        }
        // SAFETY: `scratch` holds entries.len() PollFd structs the kernel
        // reads and writes in place.
        let rc = unsafe {
            sys::poll(
                self.scratch.as_mut_ptr(),
                self.scratch.len() as std::os::raw::c_ulong,
                timeout_ms(timeout),
            )
        };
        if rc < 0 {
            let err = io::Error::last_os_error();
            if err.kind() == io::ErrorKind::Interrupted {
                return Ok(());
            }
            return Err(err);
        }
        for (slot, &(_, token, _)) in self.scratch.iter().zip(&self.entries) {
            let revents = slot.revents;
            if revents == 0 {
                continue;
            }
            events.push(Event {
                token,
                readable: revents & (sys::POLLIN | sys::POLLPRI | sys::POLLHUP | sys::POLLERR) != 0,
                writable: revents & (sys::POLLOUT | sys::POLLHUP | sys::POLLERR) != 0,
            });
        }
        Ok(())
    }
}

// ---------------------------------------------------------------------------
// Waker
// ---------------------------------------------------------------------------

/// Wakes an event loop from another thread: the write half of a
/// non-blocking [`UnixStream`] pair whose read half the loop registers
/// like any socket. Cloneable and cheap — a wake is one one-byte write
/// (dropped silently when the pipe is already full, which is fine: a full
/// pipe means a wake is already pending).
#[derive(Debug, Clone)]
pub struct Waker {
    tx: Arc<UnixStream>,
}

impl Waker {
    /// Wakes the owning event loop (best effort).
    pub fn wake(&self) {
        let _ = (&*self.tx).write(&[1u8]);
    }
}

/// The read half of a waker pair; the event loop registers its fd for
/// read interest and drains it on every wake event.
#[derive(Debug)]
pub struct WakeReceiver {
    rx: UnixStream,
}

impl WakeReceiver {
    /// The fd to register with the poller.
    #[must_use]
    pub fn fd(&self) -> RawFd {
        self.rx.as_raw_fd()
    }

    /// Drains every pending wake byte.
    pub fn drain(&mut self) {
        let mut buf = [0u8; 64];
        loop {
            match self.rx.read(&mut buf) {
                Ok(0) => break,
                Ok(_) => {}
                Err(e) if e.kind() == io::ErrorKind::Interrupted => {}
                Err(_) => break,
            }
        }
    }
}

/// Creates a connected (waker, receiver) pair, both non-blocking.
///
/// # Errors
///
/// Propagates the socketpair / fcntl failures.
pub fn waker_pair() -> io::Result<(Waker, WakeReceiver)> {
    let (tx, rx) = UnixStream::pair()?;
    tx.set_nonblocking(true)?;
    rx.set_nonblocking(true)?;
    Ok((Waker { tx: Arc::new(tx) }, WakeReceiver { rx }))
}

#[cfg(test)]
mod tests {
    use super::*;

    fn exercise(poller: &mut dyn Poller) {
        let (waker, mut receiver) = waker_pair().expect("waker pair");
        poller
            .register(receiver.fd(), 7, Interest::READABLE)
            .expect("register");
        let mut events = Vec::new();

        // Nothing pending: the poll times out empty.
        poller
            .poll(&mut events, Some(Duration::from_millis(10)))
            .expect("poll");
        assert!(events.is_empty());

        // A wake makes the fd readable under its token.
        waker.wake();
        poller
            .poll(&mut events, Some(Duration::from_millis(1000)))
            .expect("poll");
        assert!(
            events.iter().any(|e| e.token == 7 && e.readable),
            "{events:?}"
        );
        receiver.drain();

        // Level-triggered: an undrained byte would re-report, a drained
        // one does not.
        poller
            .poll(&mut events, Some(Duration::from_millis(10)))
            .expect("poll");
        assert!(events.is_empty(), "{events:?}");

        // Reregistration flips interest; a write-interest unix stream is
        // immediately writable.
        poller
            .reregister(receiver.fd(), 9, Interest::WRITABLE)
            .expect("reregister");
        poller
            .poll(&mut events, Some(Duration::from_millis(1000)))
            .expect("poll");
        assert!(
            events.iter().any(|e| e.token == 9 && e.writable),
            "{events:?}"
        );

        poller.deregister(receiver.fd()).expect("deregister");
        poller
            .poll(&mut events, Some(Duration::from_millis(10)))
            .expect("poll");
        assert!(events.is_empty());
    }

    #[cfg(target_os = "linux")]
    #[test]
    fn epoll_backend_reports_readiness() {
        let mut poller = EpollPoller::new().expect("epoll instance");
        exercise(&mut poller);
    }

    #[test]
    fn poll_fallback_reports_readiness() {
        let mut poller = PollFallback::new();
        exercise(&mut poller);
    }

    #[test]
    fn fallback_rejects_duplicate_and_unknown_fds() {
        let mut poller = PollFallback::new();
        let (_, receiver) = waker_pair().expect("waker pair");
        poller
            .register(receiver.fd(), 1, Interest::READABLE)
            .expect("register");
        assert!(poller
            .register(receiver.fd(), 2, Interest::READABLE)
            .is_err());
        assert!(poller.reregister(9999, 1, Interest::READABLE).is_err());
        assert!(poller.deregister(9999).is_err());
    }
}
