//! Minimal readiness poller over raw `epoll`, in keeping with the
//! workspace's no-external-deps policy: the `extern "C"` declarations
//! below bind the handful of kernel entry points the event backend
//! needs (`epoll_create1`/`epoll_ctl`/`epoll_wait`, `listen` and `close`)
//! directly against the platform C library that `std` already links — no
//! `libc` crate, no `mio`.
//!
//! Linux-only by construction (`epoll` is a Linux API); the module is
//! compiled out elsewhere and the backend resolver never selects the
//! event backend off-Linux.

#![cfg(target_os = "linux")]

use std::io;
use std::os::fd::{AsRawFd, RawFd};

// Constants from the Linux UAPI header `sys/epoll.h`. `EPOLL_CLOEXEC`
// equals `O_CLOEXEC` (octal 0o2000000) on every Linux arch this workspace
// targets.
const EPOLL_CLOEXEC: i32 = 0o2000000;
const EPOLL_CTL_ADD: i32 = 1;
const EPOLL_CTL_MOD: i32 = 3;

/// Readable readiness (`EPOLLIN`).
pub const EVENT_READ: u32 = 0x001;
/// Writable readiness (`EPOLLOUT`).
pub const EVENT_WRITE: u32 = 0x004;
/// Error condition (`EPOLLERR`); always reported, never requested.
pub const EVENT_ERROR: u32 = 0x008;
/// Peer hangup (`EPOLLHUP`); always reported, never requested.
pub const EVENT_HANGUP: u32 = 0x010;
/// Peer shut down its write half (`EPOLLRDHUP`); requested alongside
/// reads so half-closed connections surface without a zero-byte read.
pub const EVENT_RDHUP: u32 = 0x2000;

/// The kernel's `struct epoll_event`. Packed on x86/x86_64 (the kernel
/// ABI there has no padding between `events` and `data`); naturally
/// aligned everywhere else.
#[repr(C)]
#[cfg_attr(any(target_arch = "x86", target_arch = "x86_64"), repr(packed))]
#[derive(Clone, Copy)]
struct EpollEvent {
    events: u32,
    data: u64,
}

extern "C" {
    fn epoll_create1(flags: i32) -> i32;
    fn epoll_ctl(epfd: i32, op: i32, fd: i32, event: *mut EpollEvent) -> i32;
    fn epoll_wait(epfd: i32, events: *mut EpollEvent, maxevents: i32, timeout: i32) -> i32;
    fn listen(fd: i32, backlog: i32) -> i32;
    fn close(fd: i32) -> i32;
}

/// The accept-queue length asked of a listening socket; the kernel caps
/// it at `net.core.somaxconn`.
const LISTEN_BACKLOG: i32 = 4096;

/// Re-listens on an already listening socket with [`LISTEN_BACKLOG`].
/// `std` listens with a backlog of 128, so a burst of connects overflows
/// the accept queue and clients stall on SYN retransmits (1 s, then 2 s);
/// calling `listen` again on a listening socket only resizes the queue.
///
/// # Errors
/// The raw `listen` error.
pub fn widen_backlog(listener: &impl AsRawFd) -> io::Result<()> {
    // SAFETY: plain syscall wrapper on a descriptor the caller owns.
    if unsafe { listen(listener.as_raw_fd(), LISTEN_BACKLOG) } < 0 {
        return Err(io::Error::last_os_error());
    }
    Ok(())
}

/// One delivered readiness event: the registered token plus the ready
/// mask (some combination of the `EVENT_*` bits).
#[derive(Debug, Clone, Copy)]
pub struct Event {
    /// The token the descriptor was registered under.
    pub token: u64,
    /// Ready-state bits.
    pub readiness: u32,
}

impl Event {
    /// The descriptor is readable (or in an error/hangup state, which a
    /// read will surface as EOF or an error).
    #[must_use]
    pub fn readable(&self) -> bool {
        self.readiness & (EVENT_READ | EVENT_RDHUP | EVENT_ERROR | EVENT_HANGUP) != 0
    }

    /// The descriptor is writable (or in an error state a write will
    /// surface).
    #[must_use]
    pub fn writable(&self) -> bool {
        self.readiness & (EVENT_WRITE | EVENT_ERROR | EVENT_HANGUP) != 0
    }
}

/// A level-triggered `epoll` instance. Level triggering keeps the loop's
/// obligations simple: unconsumed readiness is re-reported on the next
/// wait, so a partial read or a deferred write can never strand a
/// connection.
pub struct Poller {
    epfd: RawFd,
}

impl Poller {
    /// Creates the epoll instance.
    ///
    /// # Errors
    /// The raw `epoll_create1` error (e.g. fd exhaustion).
    pub fn new() -> io::Result<Self> {
        // SAFETY: plain syscall wrapper, no pointers involved.
        let epfd = unsafe { epoll_create1(EPOLL_CLOEXEC) };
        if epfd < 0 {
            return Err(io::Error::last_os_error());
        }
        Ok(Self { epfd })
    }

    fn ctl(&self, op: i32, fd: RawFd, interest: u32, token: u64) -> io::Result<()> {
        let mut ev = EpollEvent {
            events: interest,
            data: token,
        };
        // SAFETY: `ev` outlives the call; the kernel copies it.
        let rc = unsafe { epoll_ctl(self.epfd, op, fd, &mut ev) };
        if rc < 0 {
            return Err(io::Error::last_os_error());
        }
        Ok(())
    }

    /// Registers `source` under `token` with the given interest mask
    /// (`EVENT_READ` and/or `EVENT_WRITE`; `EVENT_RDHUP` is added to
    /// read interest automatically).
    ///
    /// # Errors
    /// The raw `epoll_ctl` error — notably `ENOSPC`/`ENOMEM` under fd or
    /// watch exhaustion, which the event loop treats as transient and
    /// backs off from.
    pub fn add(&self, source: &impl AsRawFd, token: u64, interest: u32) -> io::Result<()> {
        self.ctl(
            EPOLL_CTL_ADD,
            source.as_raw_fd(),
            with_rdhup(interest),
            token,
        )
    }

    /// Replaces the interest mask of an already registered descriptor.
    ///
    /// # Errors
    /// The raw `epoll_ctl` error.
    pub fn modify(&self, source: &impl AsRawFd, token: u64, interest: u32) -> io::Result<()> {
        self.ctl(
            EPOLL_CTL_MOD,
            source.as_raw_fd(),
            with_rdhup(interest),
            token,
        )
    }

    /// Waits up to `timeout_ms` (−1 = forever) and appends delivered
    /// events to `out` (cleared first). A signal interruption returns
    /// successfully with no events — the caller's loop re-checks its
    /// flags and waits again.
    ///
    /// # Errors
    /// The raw `epoll_wait` error, except `EINTR`.
    pub fn wait(&self, out: &mut Vec<Event>, timeout_ms: i32) -> io::Result<()> {
        out.clear();
        const CAP: usize = 256;
        let mut buf = [EpollEvent { events: 0, data: 0 }; CAP];
        // SAFETY: `buf` is a valid writable array of CAP entries.
        let n = unsafe { epoll_wait(self.epfd, buf.as_mut_ptr(), CAP as i32, timeout_ms) };
        if n < 0 {
            let err = io::Error::last_os_error();
            if err.kind() == io::ErrorKind::Interrupted {
                return Ok(());
            }
            return Err(err);
        }
        for ev in buf.iter().take(n as usize) {
            // Copy out of the (possibly packed) struct before use.
            let (events, data) = (ev.events, ev.data);
            out.push(Event {
                token: data,
                readiness: events,
            });
        }
        Ok(())
    }
}

impl Drop for Poller {
    fn drop(&mut self) {
        // SAFETY: `epfd` is a descriptor this struct owns.
        unsafe { close(self.epfd) };
    }
}

fn with_rdhup(interest: u32) -> u32 {
    if interest & EVENT_READ != 0 {
        interest | EVENT_RDHUP
    } else {
        interest
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::io::Write as _;
    use std::net::{TcpListener, TcpStream};

    #[test]
    fn socket_readiness_and_interest_changes() {
        let poller = Poller::new().unwrap();
        let listener = TcpListener::bind("127.0.0.1:0").unwrap();
        let mut client = TcpStream::connect(listener.local_addr().unwrap()).unwrap();
        let (server, _) = listener.accept().unwrap();
        server.set_nonblocking(true).unwrap();
        poller.add(&server, 42, EVENT_READ).unwrap();

        let mut events = Vec::new();
        poller.wait(&mut events, 0).unwrap();
        assert!(events.is_empty(), "no data yet");

        client.write_all(b"ping").unwrap();
        poller.wait(&mut events, 5_000).unwrap();
        assert!(events.iter().any(|e| e.token == 42 && e.readable()));

        // Level-triggered: unread data re-reports; dropping read interest
        // silences it; restoring write interest reports writable.
        poller.wait(&mut events, 0).unwrap();
        assert!(events.iter().any(|e| e.token == 42 && e.readable()));
        poller.modify(&server, 42, 0).unwrap();
        poller.wait(&mut events, 0).unwrap();
        assert!(events.is_empty());
        poller.modify(&server, 42, EVENT_WRITE).unwrap();
        poller.wait(&mut events, 5_000).unwrap();
        assert!(events.iter().any(|e| e.token == 42 && e.writable()));

        // Closing a registered fd deregisters it implicitly — the loop
        // relies on this when it drops a connection's TcpStream.
        drop(server);
        poller.wait(&mut events, 0).unwrap();
        assert!(events.is_empty());
    }
}
