//! Serve's transport: a few run-to-completion loops, each a nonblocking
//! thread over its own raw-`epoll` [`Poller`](crate::poller::Poller).
//! The listener and every poller are set up by [`Transport::bind`], so an
//! `epoll` failure is a bind error and starting the loops cannot fail.
//!
//! ## Architecture
//!
//! ```text
//!             ┌─────────────────────────────  loop thread (× N)  ─┐
//!  listener ─▶│ accept → register with this loop's poller         │
//!  sockets  ─▶│ epoll wait → read → FrameAssembler → pending      │
//!             │   → handle_request, frame by frame, in order      │
//!             │   → append response → write what the socket takes │
//!             └───────────────────────────────────────────────────┘
//! ```
//!
//! * **Run to completion** — every loop thread accepts connections off
//!   the shared listener and owns the ones it accepted. It reads a
//!   connection's frames and runs each one, in arrival order, through
//!   `handle_request`, then writes the responses itself. No request
//!   crosses a thread, so a small request costs no wake-up beyond the
//!   socket's own.
//! * **Pipelining and ordering** — a connection may send frame N+1
//!   without waiting for frame N's response. Its frames execute one at a
//!   time in send order and their responses leave in the same order, so
//!   a pipelined client reads exactly the response stream a blocking
//!   client would. Requests from different connections on one model are
//!   ordered by the model's learner lock.
//! * **Never blocks on a socket** — reads and writes are nonblocking. A
//!   response the socket will not take yet stays in the connection's
//!   write buffer, and the loop moves on to other connections.
//! * **Backpressure** — once a connection's unsent responses pass
//!   [`MAX_UNSENT_BYTES`], its remaining read frames wait and its read
//!   interest is dropped until the socket drains; the kernel's TCP
//!   window then pushes back on the client. Transient accept or
//!   registration failures (fd exhaustion) back off for
//!   [`ACCEPT_BACKOFF`] with listener interest masked, so the
//!   level-triggered poller doesn't spin a core on a hot listener.
//!
//! Memory per idle connection is one `Conn` (retained assembler and
//! write buffers plus bookkeeping) — no thread, no stack — which is what
//! lets one node hold tens of thousands of connections within ordinary
//! fd limits.

#![cfg(target_os = "linux")]

use std::collections::{HashMap, VecDeque};
use std::io::{Read, Write};
use std::net::{SocketAddr, TcpListener, TcpStream, ToSocketAddrs};
use std::sync::atomic::Ordering;
use std::sync::Arc;
use std::time::{Duration, Instant};

use crate::error::ServeError;
use crate::poller::{widen_backlog, Event, Poller, EVENT_READ, EVENT_WRITE};
use crate::protocol::{ExamplesScratch, FrameAssembler};
use crate::server::{handle_request, ServerState};

/// Token of the listening socket.
const TOKEN_LISTENER: u64 = 0;
/// First token handed to an accepted connection.
const FIRST_CONN_TOKEN: u64 = 1;

/// Backoff after accept or poller-registration failures (EMFILE-style fd
/// exhaustion), with listener interest masked so level triggering doesn't
/// spin meanwhile.
const ACCEPT_BACKOFF: Duration = Duration::from_millis(10);

/// Unsent response bytes past which a connection's read frames wait and
/// its reads stop, until the socket takes the backlog.
const MAX_UNSENT_BYTES: usize = 1 << 20;

/// Upper bound on the idle epoll wait, so a loop re-checks the shutdown
/// flag at least this often.
const WAIT_TIMEOUT_MS: i32 = 100;

/// How long the shutdown drain waits for owed responses to flush.
const DRAIN_DEADLINE: Duration = Duration::from_millis(2_000);

/// One connection's state. No thread, no stack — this struct (plus
/// kernel socket buffers) is the whole per-connection footprint.
struct Conn {
    stream: TcpStream,
    assembler: FrameAssembler,
    /// Frames read but not yet executed, in arrival order. Non-empty only
    /// while unsent responses hold execution back.
    pending: VecDeque<Vec<u8>>,
    /// Response bytes (`wbuf[wpos..]` unsent).
    wbuf: Vec<u8>,
    wpos: usize,
    /// `pending` is held back (counted in `paused_connections`).
    paused: bool,
    /// Peer sent EOF; finish owed responses, then close.
    peer_closed: bool,
    /// Protocol violation (oversized frame) or shutdown drain: stop
    /// reading, flush what's owed, then close.
    read_dead: bool,
    /// An honored OP_SHUTDOWN was answered: nothing after it runs, and
    /// the connection closes once the response flushes.
    close_after_flush: bool,
    /// Currently registered interest mask (avoids redundant epoll_ctl).
    interest: u32,
}

impl Conn {
    fn new(stream: TcpStream) -> Self {
        Self {
            stream,
            assembler: FrameAssembler::new(),
            pending: VecDeque::new(),
            wbuf: Vec::new(),
            wpos: 0,
            paused: false,
            peer_closed: false,
            read_dead: false,
            close_after_flush: false,
            interest: EVENT_READ,
        }
    }

    fn reading(&self) -> bool {
        self.pending.is_empty() && !(self.peer_closed || self.read_dead || self.close_after_flush)
    }

    fn unsent(&self) -> usize {
        self.wbuf.len() - self.wpos
    }

    /// Moves every completed frame out of the assembler into `pending`.
    ///
    /// # Errors
    /// A framing violation (oversized length prefix): the stream is
    /// beyond recovery.
    fn take_frames(&mut self, state: &ServerState) -> Result<(), ServeError> {
        while let Some(body) = self.assembler.next_frame()? {
            let nm = &state.metrics;
            nm.frames_rx.inc();
            nm.bytes_rx.add(body.len() as u64 + 4);
            nm.queue_depth.inc();
            self.pending.push_back(body);
        }
        Ok(())
    }
}

/// A bound nonblocking listener plus one poller per loop thread
/// ([`executor_count`] of them), each already watching the listener.
pub(crate) struct Transport {
    listener: TcpListener,
    pollers: Vec<Poller>,
}

impl Transport {
    /// Binds the listener and sets up every poller.
    ///
    /// # Errors
    /// Socket errors from binding, and `epoll` set-up errors (no epoll
    /// fds left, exotic kernel).
    pub(crate) fn bind(addr: impl ToSocketAddrs) -> std::io::Result<Self> {
        let listener = TcpListener::bind(addr)?;
        widen_backlog(&listener)?;
        listener.set_nonblocking(true)?;
        let pollers = (0..executor_count())
            .map(|_| {
                let poller = Poller::new()?;
                poller.add(&listener, TOKEN_LISTENER, EVENT_READ)?;
                Ok(poller)
            })
            .collect::<std::io::Result<Vec<_>>>()?;
        Ok(Self { listener, pollers })
    }

    pub(crate) fn local_addr(&self) -> std::io::Result<SocketAddr> {
        self.listener.local_addr()
    }

    /// Runs the loops until shutdown, the calling thread running the
    /// first.
    pub(crate) fn run(self, state: &Arc<ServerState>) {
        let listener = &self.listener;
        std::thread::scope(|s| {
            let mut loops = self
                .pollers
                .into_iter()
                .map(|poller| EventLoop::new(listener, state, poller));
            let mut first = loops.next().expect("at least one loop");
            for mut other in loops {
                s.spawn(move || other.run());
            }
            first.run();
        });
    }
}

struct EventLoop<'a> {
    listener: &'a TcpListener,
    state: &'a Arc<ServerState>,
    poller: Poller,
    conns: HashMap<u64, Conn>,
    next_token: u64,
    accept_backoff: Option<Instant>,
    /// Read scratch, reused across every connection's reads.
    rbuf: Vec<u8>,
    /// UPDATE decode scratch, reused across every frame this loop runs.
    scratch: ExamplesScratch,
}

impl<'a> EventLoop<'a> {
    fn new(listener: &'a TcpListener, state: &'a Arc<ServerState>, poller: Poller) -> Self {
        Self {
            listener,
            state,
            poller,
            conns: HashMap::new(),
            next_token: FIRST_CONN_TOKEN,
            accept_backoff: None,
            rbuf: vec![0u8; 64 * 1024],
            scratch: ExamplesScratch::new(),
        }
    }

    fn run(&mut self) {
        let mut events: Vec<Event> = Vec::new();
        while !self.state.shutdown.load(Ordering::SeqCst) {
            let timeout = match self.accept_backoff {
                Some(until) => {
                    let left = until.saturating_duration_since(Instant::now());
                    (left.as_millis() as i32).clamp(1, WAIT_TIMEOUT_MS)
                }
                None => WAIT_TIMEOUT_MS,
            };
            if self.poller.wait(&mut events, timeout).is_err() {
                // epoll_wait itself failing is unrecoverable; drain and
                // exit rather than spinning on a broken poller.
                break;
            }
            if let Some(until) = self.accept_backoff {
                if Instant::now() >= until {
                    self.accept_backoff = None;
                    let _ = self
                        .poller
                        .modify(self.listener, TOKEN_LISTENER, EVENT_READ);
                    self.try_accept();
                }
            }
            for ev in &events {
                match ev.token {
                    TOKEN_LISTENER => {
                        if self.accept_backoff.is_none() {
                            self.try_accept();
                        }
                    }
                    token => {
                        if ev.readable() {
                            self.handle_readable(token);
                        } else if ev.writable() {
                            self.service(token);
                        }
                    }
                }
            }
        }
        self.drain();
    }

    /// Accepts until the backlog is empty; any failure — accept itself or
    /// registering the new socket with the poller — enters the 10 ms
    /// backoff with listener interest masked (fd exhaustion recovers when
    /// connections close; spinning would starve that). Once shutdown is
    /// flagged nothing is accepted, so the wake-up connection stays queued
    /// and wakes every loop.
    fn try_accept(&mut self) {
        while !self.state.shutdown.load(Ordering::SeqCst) {
            match self.listener.accept() {
                Ok((stream, _peer)) => {
                    if stream.set_nonblocking(true).is_err() || stream.set_nodelay(true).is_err() {
                        continue;
                    }
                    let token = self.next_token;
                    if self.poller.add(&stream, token, EVENT_READ).is_err() {
                        drop(stream);
                        self.enter_accept_backoff();
                        return;
                    }
                    self.next_token += 1;
                    self.conns.insert(token, Conn::new(stream));
                    self.state.metrics.connections.inc();
                }
                Err(e) if e.kind() == std::io::ErrorKind::WouldBlock => return,
                Err(_) => {
                    self.enter_accept_backoff();
                    return;
                }
            }
        }
    }

    /// Removes a connection, keeping the open/paused/queued gauges in
    /// sync with the map — every removal path funnels through here.
    fn remove_conn(&mut self, token: u64) {
        if let Some(conn) = self.conns.remove(&token) {
            let nm = &self.state.metrics;
            nm.connections.dec();
            nm.queue_depth.add(-(conn.pending.len() as i64));
            if conn.paused {
                nm.paused_connections.dec();
            }
        }
    }

    fn enter_accept_backoff(&mut self) {
        self.accept_backoff = Some(Instant::now() + ACCEPT_BACKOFF);
        let _ = self.poller.modify(self.listener, TOKEN_LISTENER, 0);
    }

    /// Reads a connection until a read completes frames (or the socket is
    /// drained), then serves it. Stopping at the first completed frames
    /// lets the loop turn to its other connections before running more of
    /// this one; level triggering brings it back for the rest.
    fn handle_readable(&mut self, token: u64) {
        while let Some(conn) = self.conns.get_mut(&token) {
            if !conn.reading() {
                break;
            }
            match conn.stream.read(&mut self.rbuf) {
                Ok(0) => conn.peer_closed = true,
                Ok(n) => {
                    conn.assembler.push(&self.rbuf[..n]);
                    if conn.take_frames(self.state).is_err() {
                        conn.read_dead = true;
                    }
                    if n < self.rbuf.len() {
                        break;
                    }
                }
                Err(e) if e.kind() == std::io::ErrorKind::WouldBlock => break,
                Err(e) if e.kind() == std::io::ErrorKind::Interrupted => {}
                Err(_) => {
                    self.remove_conn(token);
                    return;
                }
            }
        }
        self.service(token);
    }

    /// Runs the connection's read frames while its unsent responses stay
    /// under [`MAX_UNSENT_BYTES`], writes what the socket will take,
    /// re-arms interest, and closes the connection once it's finished and
    /// flushed.
    fn service(&mut self, token: u64) {
        let state = self.state;
        let nm = &state.metrics;
        let Some(conn) = self.conns.get_mut(&token) else {
            return;
        };
        loop {
            if !conn.pending.is_empty() && conn.wpos > 0 {
                conn.wbuf.drain(..conn.wpos);
                conn.wpos = 0;
            }
            while conn.unsent() < MAX_UNSENT_BYTES {
                let Some(body) = conn.pending.pop_front() else {
                    break;
                };
                nm.queue_depth.dec();
                let before = conn.wbuf.len();
                // An honored SHUTDOWN is the last request this connection
                // gets answered.
                if handle_request(&body, state, &mut self.scratch, &mut conn.wbuf) {
                    conn.close_after_flush = true;
                    nm.queue_depth.add(-(conn.pending.len() as i64));
                    conn.pending.clear();
                }
                nm.bytes_tx.add((conn.wbuf.len() - before) as u64);
            }
            // `net.frame_write` failpoint: the requests behind these
            // unsent bytes were applied, but the responses die with the
            // connection — the same applied-but-unacked ambiguity a
            // crashed NIC produces, which the self-healing client resolves
            // by probing the model clock. Checked after execution.
            if conn.unsent() > 0
                && wmsketch_faults::check(wmsketch_faults::NET_FRAME_WRITE).is_some()
            {
                self.remove_conn(token);
                return;
            }
            while conn.unsent() > 0 {
                match conn.stream.write(&conn.wbuf[conn.wpos..]) {
                    Ok(0) => {
                        self.remove_conn(token);
                        return;
                    }
                    Ok(n) => conn.wpos += n,
                    Err(e) if e.kind() == std::io::ErrorKind::WouldBlock => break,
                    Err(e) if e.kind() == std::io::ErrorKind::Interrupted => continue,
                    Err(_) => {
                        self.remove_conn(token);
                        return;
                    }
                }
            }
            if conn.unsent() == 0 {
                conn.wbuf.clear();
                conn.wpos = 0;
            }
            // A write that freed room lets held-back frames run at once.
            if conn.pending.is_empty() || conn.unsent() >= MAX_UNSENT_BYTES {
                break;
            }
        }
        let paused = !conn.pending.is_empty();
        if paused != conn.paused {
            conn.paused = paused;
            nm.paused_connections.add(if paused { 1 } else { -1 });
        }
        // Close when nothing is owed and nothing more will be read.
        let flushed = conn.wbuf.is_empty() && conn.pending.is_empty();
        if flushed && (conn.peer_closed || conn.read_dead || conn.close_after_flush) {
            self.remove_conn(token);
            return;
        }
        // Re-arm interest.
        let mut want = 0;
        if conn.reading() {
            want |= EVENT_READ;
        }
        if conn.unsent() > 0 {
            want |= EVENT_WRITE;
        }
        if want != conn.interest {
            if self.poller.modify(&conn.stream, token, want).is_err() {
                self.remove_conn(token);
                return;
            }
            conn.interest = want;
        }
    }

    /// Graceful drain: stop accepting and reading, run the frames already
    /// read, and flush every owed response until the sockets take them or
    /// the deadline expires. Keeps pumping writability rather than taking
    /// a single pass, which would drop computed responses whenever more
    /// bytes are owed than one non-blocking write can move.
    fn drain(&mut self) {
        let started = Instant::now();
        let open = self.conns.len() as u64;
        let _ = self.poller.modify(self.listener, TOKEN_LISTENER, 0);
        for conn in self.conns.values_mut() {
            conn.read_dead = true;
        }
        let deadline = started + DRAIN_DEADLINE;
        let mut events: Vec<Event> = Vec::new();
        loop {
            let tokens: Vec<u64> = self.conns.keys().copied().collect();
            for token in tokens {
                self.service(token);
            }
            if self.conns.is_empty() || Instant::now() >= deadline {
                break;
            }
            // Wait for writability (or the slice of deadline left) before
            // the next pass, so a slow reader doesn't spin this loop.
            let _ = self.poller.wait(&mut events, 20);
        }
        let left: Vec<u64> = self.conns.keys().copied().collect();
        for token in left {
            self.remove_conn(token);
        }
        self.state.metrics.journal.push("drain", open, started);
    }
}

/// Loop-thread count: the host's parallelism capped at 4 (learner work
/// is lock-serialized per model; more loops only add contention).
fn executor_count() -> usize {
    std::thread::available_parallelism()
        .map_or(1, std::num::NonZeroUsize::get)
        .clamp(1, 4)
}
