//! Real-socket backend: a [`TcpBus`] moving length-prefixed frames between
//! OS processes over nonblocking `std::net::TcpStream`s. The
//! [`Transport`](crate::Transport) the daemon's members see, with its
//! wall-clock timer queue, is `rbay_core::MemberCtx`; the bus is where its
//! off-process frames go.
//!
//! Threading model (one bus per daemon): **one event-loop thread total**,
//! regardless of peer count. The loop multiplexes the listener, every
//! accepted connection, and every outbound connection over a single
//! [`epoll_shim::Poller`]:
//!
//! * inbound bytes are read a whole socket buffer at a time and carved
//!   into frames **zero-copy** by a [`FrameAssembler`] — each delivered
//!   [`FrameBuf`] is a view into the read buffer, so a 64 KiB read full
//!   of frames costs one allocation, not one per frame;
//! * outbound frames are staged in a per-connection `WriteQueue` and
//!   **coalesced**: one `write(2)` per wakeup pushes a whole run of
//!   length-prefixed frames, instead of two writes per frame on a
//!   dedicated thread;
//! * senders never block: frames for a peer whose connection is not yet
//!   established stay staged while the loop retries the connect with
//!   backoff (daemons of one fleet start in arbitrary order); a saturated
//!   per-peer staging queue, a peer that stays unreachable through the
//!   whole backoff window, or a connection that breaks mid-flight *drops*
//!   frames (counted in [`TcpBus::dropped_frames`]) — loss, not blocking,
//!   because every overlay protocol above already tolerates loss
//!   (heartbeats, rejoin, repair).
//!
//! Peer frames carry a `[from][to]` overlay-address header inside the
//! length-prefixed body, so one bus can host **many** federation members
//! (agent packing): the daemon demuxes on `Inbound::Peer::to`. Control
//! connections (the `cluster` harness) speak plain frames with no header.
//!
//! Only raw bytes cross the event-loop thread boundary; encoding and
//! decoding of typed messages (which may hold non-`Send` state such as
//! `Rc<Query>`) stay on the daemon's main thread.

use crate::buf::{FrameAssembler, FrameBuf};
use crate::codec::{decode_frame, encode_frame, Reader, Wire, MAX_FRAME_LEN};
use crate::{wire_enum, wire_struct};
use epoll_shim::{Interest, Poller};
use simnet::NodeAddr;
use std::collections::{HashMap, HashSet, VecDeque};
use std::io::{Read as _, Write as _};
use std::net::{SocketAddr, TcpListener, TcpStream};
use std::os::unix::io::AsRawFd;
use std::os::unix::net::UnixStream;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::mpsc::{sync_channel, Receiver, SyncSender, TrySendError};
use std::sync::{Arc, Mutex};
use std::thread;
use std::time::Instant;

/// Capacity of the shared inbound frame queue (frames, not bytes).
const INBOUND_QUEUE: usize = 4096;
/// Capacity of each per-peer outbound staging queue (frames). 4096: at
/// 16,000 packed agents the convergence burst overruns a 1024-frame
/// queue long before the write path is the bottleneck (62k drops in the
/// BENCH_wire 16k row were dominated by staging overflow).
const OUTBOUND_QUEUE: usize = 4096;
/// Hard cap on a connection's un-flushed write buffer; beyond this new
/// frames for the connection are dropped (slow-receiver protection).
/// 8 MiB absorbs the deeper staging queue above without letting one
/// stalled peer pin unbounded memory.
const WRITE_BUF_MAX: usize = 8 * 1024 * 1024;
/// Compact the write buffer once this many sent bytes accumulate at its
/// front.
const WRITE_COMPACT: usize = 256 * 1024;
/// Bytes per `read(2)` on a readable connection.
const READ_CHUNK: usize = 64 * 1024;
/// Connect attempts per peer before its staged frames are dropped.
const CONNECT_ATTEMPTS: u32 = 40;
/// Backoff after a failed connect attempt; doubles per attempt up to
/// [`CONNECT_BACKOFF_MAX`]. The full retry window spans over a minute —
/// enough for a large fleet to finish starting on a loaded host.
const CONNECT_BACKOFF: std::time::Duration = std::time::Duration::from_millis(50);
const CONNECT_BACKOFF_MAX: std::time::Duration = std::time::Duration::from_secs(2);

const TOKEN_LISTENER: u64 = 0;
const TOKEN_WAKER: u64 = 1;
const TOKEN_FIRST_CONN: u64 = 2;

/// First frame on every connection: who is calling.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Hello {
    /// A federation peer process, identified by one overlay address it
    /// hosts (packed daemons host many; the per-frame header is
    /// authoritative).
    Peer(NodeAddr),
    /// A control client (the `cluster` harness); carries no address.
    Ctrl,
}

wire_enum!(Hello {
    0 => Peer(addr),
    1 => Ctrl,
});

/// One frame delivered by the bus to the daemon's main loop.
#[derive(Debug)]
pub enum Inbound {
    /// A protocol frame from a federation peer (still encoded — decode on
    /// the main thread).
    Peer {
        /// Overlay address of the sending member (per-frame header).
        from: NodeAddr,
        /// Overlay address of the destination member — the demux key when
        /// one daemon hosts many members.
        to: NodeAddr,
        /// The encoded message, viewed zero-copy out of the read buffer.
        frame: FrameBuf,
    },
    /// A frame from a control client.
    Ctrl {
        /// Bus-local id of the control connection, for [`TcpBus::send_ctrl`].
        conn: u64,
        /// The raw frame body.
        frame: FrameBuf,
    },
    /// A control connection closed.
    CtrlClosed {
        /// Bus-local id of the closed connection.
        conn: u64,
    },
}

/// Maps overlay addresses to socket addresses (e.g. `127.0.0.1:base+i`).
pub type Resolver = Arc<dyn Fn(NodeAddr) -> Option<SocketAddr> + Send + Sync>;

/// Dropped-frame counts broken down by cause, so a lossy run says *why*
/// (snapshot of [`TcpBus::drop_stats`]).
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct DropStats {
    /// The resolver had no socket address for the destination.
    pub unresolvable: u64,
    /// A per-peer outbound staging queue was full (sender outran the
    /// event loop or a not-yet-established connection).
    pub outbound_full: u64,
    /// A connection's un-flushed write buffer exceeded its cap (slow
    /// receiver).
    pub write_cap: u64,
    /// The connect-retry budget toward a peer was exhausted.
    pub connect_exhausted: u64,
    /// A connection broke with frames still queued on it.
    pub conn_closed: u64,
}

impl DropStats {
    /// Total frames dropped across all causes.
    pub fn total(&self) -> u64 {
        self.unresolvable
            + self.outbound_full
            + self.write_cap
            + self.connect_exhausted
            + self.conn_closed
    }

    /// Adds another snapshot's counts (fleet-wide aggregation).
    pub fn merge(&mut self, other: &DropStats) {
        self.unresolvable += other.unresolvable;
        self.outbound_full += other.outbound_full;
        self.write_cap += other.write_cap;
        self.connect_exhausted += other.connect_exhausted;
        self.conn_closed += other.conn_closed;
    }
}

wire_struct!(DropStats {
    unresolvable,
    outbound_full,
    write_cap,
    connect_exhausted,
    conn_closed,
});

/// Per-cause drop counters shared between sender threads and the event
/// loop.
#[derive(Default)]
struct DropCounters {
    unresolvable: AtomicU64,
    outbound_full: AtomicU64,
    write_cap: AtomicU64,
    connect_exhausted: AtomicU64,
    conn_closed: AtomicU64,
}

impl DropCounters {
    fn snapshot(&self) -> DropStats {
        DropStats {
            unresolvable: self.unresolvable.load(Ordering::Relaxed),
            outbound_full: self.outbound_full.load(Ordering::Relaxed),
            write_cap: self.write_cap.load(Ordering::Relaxed),
            connect_exhausted: self.connect_exhausted.load(Ordering::Relaxed),
            conn_closed: self.conn_closed.load(Ordering::Relaxed),
        }
    }
}

/// State shared between sender threads and the event loop, guarded by one
/// mutex held only for queue pushes/takes (never across I/O).
#[derive(Default)]
struct Shared {
    /// Per-destination-socket staging queues of `(from, to, payload)`.
    out: HashMap<SocketAddr, VecDeque<(NodeAddr, NodeAddr, Vec<u8>)>>,
    /// Encoded replies awaiting a control connection.
    ctrl_out: Vec<(u64, Vec<u8>)>,
    /// Control connections that have completed their hello and not closed.
    ctrl_alive: HashSet<u64>,
    shutdown: bool,
}

struct BusInner {
    my_addr: NodeAddr,
    local_addr: SocketAddr,
    resolver: Resolver,
    shared: Mutex<Shared>,
    /// Self-pipe write half: one byte nudges the event loop awake.
    wake_tx: UnixStream,
    /// Frames dropped on saturated or broken outbound paths, by cause.
    dropped: DropCounters,
    /// Outbound payload frames still inside the loop (staged + write
    /// queues), published by the event loop once per iteration; read by
    /// [`TcpBus::flush`].
    pending_out: AtomicU64,
    /// Event-loop iteration counter (publishes pair with `pending_out`),
    /// so `flush` can tell a fresh zero from a stale one.
    loop_iters: AtomicU64,
}

/// A shared handle to one daemon's socket machinery. Cheap to clone.
#[derive(Clone)]
pub struct TcpBus {
    inner: Arc<BusInner>,
}

impl TcpBus {
    /// Binds `listen` (port 0 picks an ephemeral port — see
    /// [`TcpBus::local_addr`]), spawns the single event-loop thread, and
    /// returns the bus plus the inbound frame queue the loop feeds.
    pub fn start(
        listen: SocketAddr,
        my_addr: NodeAddr,
        resolver: Resolver,
    ) -> std::io::Result<(TcpBus, Receiver<Inbound>)> {
        let listener = TcpListener::bind(listen)?;
        listener.set_nonblocking(true)?;
        let local_addr = listener.local_addr()?;
        let (wake_tx, wake_rx) = UnixStream::pair()?;
        wake_tx.set_nonblocking(true)?;
        wake_rx.set_nonblocking(true)?;
        let poller = Poller::new()?;
        poller.register(listener.as_raw_fd(), TOKEN_LISTENER, Interest::READ)?;
        poller.register(wake_rx.as_raw_fd(), TOKEN_WAKER, Interest::READ)?;
        let (tx, rx) = sync_channel::<Inbound>(INBOUND_QUEUE);
        let bus = TcpBus {
            inner: Arc::new(BusInner {
                my_addr,
                local_addr,
                resolver,
                shared: Mutex::new(Shared::default()),
                wake_tx,
                dropped: DropCounters::default(),
                pending_out: AtomicU64::new(0),
                loop_iters: AtomicU64::new(0),
            }),
        };
        let mut ev = EventLoop {
            inner: Arc::clone(&bus.inner),
            poller,
            listener,
            wake_rx,
            tx,
            conns: HashMap::new(),
            by_sock: HashMap::new(),
            ctrl_tokens: HashMap::new(),
            next_token: TOKEN_FIRST_CONN,
            next_ctrl: 0,
            undelivered: VecDeque::new(),
            staged: HashMap::new(),
            retry: HashMap::new(),
            scratch: vec![0u8; READ_CHUNK],
            running: true,
        };
        thread::Builder::new()
            .name(format!("rbay-bus-{}", my_addr.0))
            .spawn(move || ev.run())
            .expect("spawn bus event loop");
        Ok((bus, rx))
    }

    /// The overlay address this bus announces in its hello.
    pub fn my_addr(&self) -> NodeAddr {
        self.inner.my_addr
    }

    /// The socket address actually bound (resolves port 0).
    pub fn local_addr(&self) -> SocketAddr {
        self.inner.local_addr
    }

    /// Queues an already-encoded frame from this bus's own address.
    pub fn send_to(&self, to: NodeAddr, frame: Vec<u8>) {
        self.send_from(self.inner.my_addr, to, frame);
    }

    /// Queues an already-encoded frame from an arbitrary hosted member
    /// address (agent packing). Never blocks: the frame is dropped (and
    /// counted) if `to` does not resolve or the peer's staging queue is
    /// full.
    pub fn send_from(&self, from: NodeAddr, to: NodeAddr, frame: Vec<u8>) {
        let Some(sock) = (self.inner.resolver)(to) else {
            self.inner
                .dropped
                .unresolvable
                .fetch_add(1, Ordering::Relaxed);
            return;
        };
        {
            let mut sh = self.inner.shared.lock().expect("shared lock");
            if sh.shutdown {
                return;
            }
            let q = sh.out.entry(sock).or_default();
            if q.len() >= OUTBOUND_QUEUE {
                self.inner
                    .dropped
                    .outbound_full
                    .fetch_add(1, Ordering::Relaxed);
                return;
            }
            q.push_back((from, to, frame));
        }
        self.wake();
    }

    /// Queues a frame back on a control connection. An unknown or closed
    /// connection is an error; transmission itself is asynchronous and
    /// best-effort.
    pub fn send_ctrl(&self, conn: u64, frame: &[u8]) -> std::io::Result<()> {
        {
            let mut sh = self.inner.shared.lock().expect("shared lock");
            if !sh.ctrl_alive.contains(&conn) {
                return Err(std::io::Error::new(
                    std::io::ErrorKind::NotConnected,
                    "ctrl conn closed",
                ));
            }
            sh.ctrl_out.push((conn, frame.to_vec()));
        }
        self.wake();
        Ok(())
    }

    /// Frames dropped so far on saturated or broken outbound paths
    /// (total across causes — see [`TcpBus::drop_stats`]).
    pub fn dropped_frames(&self) -> u64 {
        self.drop_stats().total()
    }

    /// Per-cause breakdown of the dropped-frame count.
    pub fn drop_stats(&self) -> DropStats {
        self.inner.dropped.snapshot()
    }

    /// Asks the event loop to exit; in-flight frames may be lost. Callers
    /// that care (graceful daemon shutdown) should [`TcpBus::flush`]
    /// first.
    pub fn shutdown(&self) {
        self.inner.shared.lock().expect("shared lock").shutdown = true;
        self.wake();
    }

    /// Best-effort outbound barrier: blocks until every frame queued
    /// before this call has been handed to the kernel (staging queues and
    /// per-connection write buffers empty), or until `timeout` elapses.
    /// Frames parked behind a connect still in backoff can hold the
    /// barrier open — the timeout bounds that wait. Returns whether the
    /// bus drained completely.
    pub fn flush(&self, timeout: std::time::Duration) -> bool {
        let deadline = Instant::now() + timeout;
        // Only a publish that happened *after* we started observing can
        // prove emptiness: a zero from before our last send would be
        // stale, as frames move from `shared.out` into loop-private
        // staging before being re-counted.
        let mut seen = self.inner.loop_iters.load(Ordering::Acquire);
        loop {
            self.wake();
            thread::sleep(std::time::Duration::from_millis(1));
            let iters = self.inner.loop_iters.load(Ordering::Acquire);
            let queued = {
                let sh = self.inner.shared.lock().expect("shared lock");
                !sh.out.is_empty() || !sh.ctrl_out.is_empty()
            };
            if iters > seen {
                if !queued && self.inner.pending_out.load(Ordering::Acquire) == 0 {
                    return true;
                }
                seen = iters;
            }
            if Instant::now() >= deadline {
                return false;
            }
        }
    }

    fn wake(&self) {
        // A full pipe already guarantees a pending wakeup.
        let _ = (&self.inner.wake_tx).write(&[1]);
    }
}

/// What a connection is for, decided by its hello (inbound) or by us
/// (outbound).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
enum ConnKind {
    /// Accepted, hello not yet seen.
    Pending,
    /// Accepted from a federation peer; we only read from it.
    PeerIn,
    /// Accepted from a control client (bus-local id).
    CtrlIn(u64),
    /// Initiated by us toward a peer; we only write to it.
    PeerOut,
}

/// Pending outbound bytes for one connection: serialized frames appended
/// at the back, flushed in one `write` run from the front.
#[derive(Default)]
struct WriteQueue {
    buf: Vec<u8>,
    pos: usize,
    /// End offset (in `buf`) of every *payload* frame not yet fully sent,
    /// for drop accounting when the connection dies. Hello frames are not
    /// tracked.
    frame_ends: VecDeque<usize>,
}

impl WriteQueue {
    fn has_pending(&self) -> bool {
        self.pos < self.buf.len()
    }

    fn backlog(&self) -> usize {
        self.buf.len() - self.pos
    }

    fn push_raw_frame(&mut self, body: &[u8], track: bool) {
        self.buf
            .extend_from_slice(&(body.len() as u32).to_le_bytes());
        self.buf.extend_from_slice(body);
        if track {
            self.frame_ends.push_back(self.buf.len());
        }
    }

    /// Serializes `[u32 len][from][to][payload]` directly into the buffer.
    fn push_peer_frame(&mut self, from: NodeAddr, to: NodeAddr, payload: &[u8]) {
        let start = self.buf.len();
        self.buf.extend_from_slice(&[0u8; 4]);
        from.encode_into(&mut self.buf);
        to.encode_into(&mut self.buf);
        self.buf.extend_from_slice(payload);
        let len = (self.buf.len() - start - 4) as u32;
        self.buf[start..start + 4].copy_from_slice(&len.to_le_bytes());
        self.frame_ends.push_back(self.buf.len());
    }

    fn advance(&mut self, n: usize) {
        self.pos += n;
        while self.frame_ends.front().is_some_and(|&e| e <= self.pos) {
            self.frame_ends.pop_front();
        }
        if self.pos == self.buf.len() {
            self.buf.clear();
            self.pos = 0;
        } else if self.pos >= WRITE_COMPACT {
            self.buf.drain(..self.pos);
            for e in self.frame_ends.iter_mut() {
                *e -= self.pos;
            }
            self.pos = 0;
        }
    }

    /// Payload frames queued but not fully transmitted.
    fn unsent_frames(&self) -> usize {
        self.frame_ends.len()
    }
}

struct Conn {
    stream: TcpStream,
    kind: ConnKind,
    /// Resolved destination for outbound connections (keys `by_sock`).
    sock: Option<SocketAddr>,
    assembler: FrameAssembler,
    wr: WriteQueue,
    /// Nonblocking connect still in flight; completion shows as
    /// writability.
    connecting: bool,
    interest: Interest,
}

struct EventLoop {
    inner: Arc<BusInner>,
    poller: Poller,
    listener: TcpListener,
    wake_rx: UnixStream,
    tx: SyncSender<Inbound>,
    conns: HashMap<u64, Conn>,
    by_sock: HashMap<SocketAddr, u64>,
    /// Control-connection id → poll token.
    ctrl_tokens: HashMap<u64, u64>,
    next_token: u64,
    next_ctrl: u64,
    /// Inbound frames the (full) channel refused; retried before reading
    /// more, so backpressure reaches peers through TCP.
    undelivered: VecDeque<Inbound>,
    /// Frames awaiting an *established* connection, per destination
    /// socket; moved into the connection's write queue only once the
    /// nonblocking connect completes, so a failed connect loses nothing.
    staged: HashMap<SocketAddr, VecDeque<(NodeAddr, NodeAddr, Vec<u8>)>>,
    /// Reconnect state per destination socket: next attempt time and
    /// failed attempts so far.
    retry: HashMap<SocketAddr, (Instant, u32)>,
    scratch: Vec<u8>,
    running: bool,
}

impl EventLoop {
    fn run(&mut self) {
        let mut events = Vec::new();
        while self.running {
            if !self.drain_shared() {
                break; // shutdown requested
            }
            self.service_staged();
            self.redeliver();
            self.flush_dirty();
            // Publish the loop-private outbound backlog for TcpBus::flush.
            let pending = self.staged.values().map(|q| q.len()).sum::<usize>()
                + self
                    .conns
                    .values()
                    .map(|c| c.wr.unsent_frames())
                    .sum::<usize>();
            self.inner
                .pending_out
                .store(pending as u64, Ordering::Release);
            self.inner.loop_iters.fetch_add(1, Ordering::Release);
            let timeout = if self.undelivered.is_empty() {
                std::time::Duration::from_millis(50)
            } else {
                std::time::Duration::from_millis(2)
            };
            if self.poller.wait(&mut events, Some(timeout)).is_err() {
                break;
            }
            for ev in &events {
                match ev.token {
                    TOKEN_LISTENER => self.accept_all(),
                    TOKEN_WAKER => self.drain_waker(),
                    token => self.conn_event(token, ev.readable, ev.writable, ev.error),
                }
            }
        }
    }

    /// Moves frames from [`Shared`] into the loop's per-socket staging
    /// area (peer frames) and connection write queues (ctrl replies).
    /// Returns `false` on shutdown.
    fn drain_shared(&mut self) -> bool {
        let (out, ctrl_out) = {
            let mut sh = self.inner.shared.lock().expect("shared lock");
            if sh.shutdown {
                return false;
            }
            if sh.out.is_empty() && sh.ctrl_out.is_empty() {
                return true;
            }
            let out: Vec<_> = sh.out.drain().collect();
            (out, std::mem::take(&mut sh.ctrl_out))
        };
        for (sock, q) in out {
            let staged = self.staged.entry(sock).or_default();
            for frame in q {
                if staged.len() >= OUTBOUND_QUEUE {
                    self.inner
                        .dropped
                        .outbound_full
                        .fetch_add(1, Ordering::Relaxed);
                } else {
                    staged.push_back(frame);
                }
            }
        }
        for (id, frame) in ctrl_out {
            if let Some(&token) = self.ctrl_tokens.get(&id) {
                if let Some(conn) = self.conns.get_mut(&token) {
                    conn.wr.push_raw_frame(&frame, true);
                }
            }
        }
        true
    }

    /// Moves staged frames onto established connections, opening (or
    /// re-opening, with backoff) connections for sockets that lack one.
    fn service_staged(&mut self) {
        let socks: Vec<SocketAddr> = self.staged.keys().copied().collect();
        let now = Instant::now();
        for sock in socks {
            let token = match self.by_sock.get(&sock).copied() {
                Some(t) => t,
                None => {
                    if self.retry.get(&sock).is_some_and(|&(at, _)| at > now) {
                        continue; // backing off
                    }
                    match self.open_peer_conn(sock) {
                        Some(t) => t,
                        None => {
                            self.connect_failed(sock);
                            continue;
                        }
                    }
                }
            };
            let conn = self.conns.get_mut(&token).expect("by_sock conn");
            if conn.connecting {
                continue; // frames move once the connect completes
            }
            let Some(mut q) = self.staged.remove(&sock) else {
                continue;
            };
            let mut overflowed = 0u64;
            for (from, to, payload) in q.drain(..) {
                if conn.wr.backlog() > WRITE_BUF_MAX {
                    overflowed += 1;
                } else {
                    conn.wr.push_peer_frame(from, to, &payload);
                }
            }
            if overflowed > 0 {
                self.inner
                    .dropped
                    .write_cap
                    .fetch_add(overflowed, Ordering::Relaxed);
            }
        }
    }

    /// Records a failed connect attempt toward `sock`: schedules the next
    /// attempt with exponential backoff, or — once the attempt budget is
    /// spent — drops the staged frames and resets, so a later send starts
    /// a fresh attempt cycle.
    fn connect_failed(&mut self, sock: SocketAddr) {
        let attempts = self.retry.get(&sock).map_or(0, |&(_, n)| n) + 1;
        if attempts >= CONNECT_ATTEMPTS {
            if let Some(q) = self.staged.remove(&sock) {
                self.inner
                    .dropped
                    .connect_exhausted
                    .fetch_add(q.len() as u64, Ordering::Relaxed);
            }
            self.retry.remove(&sock);
            return;
        }
        let backoff = CONNECT_BACKOFF
            .saturating_mul(1u32 << attempts.min(6))
            .min(CONNECT_BACKOFF_MAX);
        self.retry
            .insert(sock, (Instant::now() + backoff, attempts));
    }

    fn open_peer_conn(&mut self, sock: SocketAddr) -> Option<u64> {
        let stream = epoll_shim::connect_nonblocking(&sock).ok()?;
        let _ = stream.set_nodelay(true);
        let token = self.next_token;
        self.next_token += 1;
        let mut conn = Conn {
            stream,
            kind: ConnKind::PeerOut,
            sock: Some(sock),
            assembler: FrameAssembler::new(MAX_FRAME_LEN),
            wr: WriteQueue::default(),
            connecting: true,
            interest: Interest::BOTH,
        };
        conn.wr
            .push_raw_frame(&encode_frame(&Hello::Peer(self.inner.my_addr)), false);
        if self
            .poller
            .register(conn.stream.as_raw_fd(), token, Interest::BOTH)
            .is_err()
        {
            return None;
        }
        self.conns.insert(token, conn);
        self.by_sock.insert(sock, token);
        Some(token)
    }

    fn accept_all(&mut self) {
        loop {
            match self.listener.accept() {
                Ok((stream, _)) => {
                    if stream.set_nonblocking(true).is_err() {
                        continue;
                    }
                    let _ = stream.set_nodelay(true);
                    let token = self.next_token;
                    self.next_token += 1;
                    if self
                        .poller
                        .register(stream.as_raw_fd(), token, Interest::READ)
                        .is_err()
                    {
                        continue;
                    }
                    self.conns.insert(
                        token,
                        Conn {
                            stream,
                            kind: ConnKind::Pending,
                            sock: None,
                            assembler: FrameAssembler::new(MAX_FRAME_LEN),
                            wr: WriteQueue::default(),
                            connecting: false,
                            interest: Interest::READ,
                        },
                    );
                }
                Err(e) if e.kind() == std::io::ErrorKind::WouldBlock => break,
                Err(e) if e.kind() == std::io::ErrorKind::Interrupted => continue,
                Err(_) => break,
            }
        }
    }

    fn drain_waker(&mut self) {
        loop {
            match (&self.wake_rx).read(&mut self.scratch) {
                Ok(0) => break,
                Ok(_) => continue,
                Err(e) if e.kind() == std::io::ErrorKind::Interrupted => continue,
                Err(_) => break,
            }
        }
    }

    fn conn_event(&mut self, token: u64, readable: bool, writable: bool, error: bool) {
        let Some(conn) = self.conns.get_mut(&token) else {
            return;
        };
        if conn.connecting && (writable || error) {
            match conn.stream.take_error() {
                Ok(None) if !error => {
                    conn.connecting = false;
                    if let Some(sock) = conn.sock {
                        self.retry.remove(&sock);
                    }
                }
                _ => {
                    self.close_conn(token);
                    return;
                }
            }
        }
        if readable {
            self.handle_readable(token);
        }
        if writable {
            self.flush_conn(token);
        } else if error && !readable {
            self.close_conn(token);
        }
    }

    fn handle_readable(&mut self, token: u64) {
        // Hold off reading peer data while the main thread is behind; the
        // kernel buffer fills and TCP flow control stalls the sender.
        let paused = self.undelivered.len() >= INBOUND_QUEUE;
        let mut frames = Vec::new();
        loop {
            let Some(conn) = self.conns.get_mut(&token) else {
                return;
            };
            if paused && conn.kind == ConnKind::PeerIn {
                break;
            }
            match conn.stream.read(&mut self.scratch) {
                Ok(0) => {
                    self.dispatch_frames(token, &mut frames);
                    self.close_conn(token);
                    return;
                }
                Ok(n) => {
                    let chunk = self.scratch[..n].to_vec();
                    if conn.assembler.feed(chunk, &mut frames).is_err() {
                        self.close_conn(token);
                        return;
                    }
                    if n < self.scratch.len() {
                        break; // socket buffer drained
                    }
                }
                Err(e) if e.kind() == std::io::ErrorKind::WouldBlock => break,
                Err(e) if e.kind() == std::io::ErrorKind::Interrupted => continue,
                Err(_) => {
                    self.close_conn(token);
                    return;
                }
            }
        }
        self.dispatch_frames(token, &mut frames);
    }

    fn dispatch_frames(&mut self, token: u64, frames: &mut Vec<FrameBuf>) {
        for fb in frames.drain(..) {
            let Some(kind) = self.conns.get(&token).map(|c| c.kind) else {
                return;
            };
            match kind {
                ConnKind::Pending => match decode_frame::<Hello>(&fb) {
                    Ok(Hello::Peer(_)) => {
                        self.conns.get_mut(&token).expect("conn").kind = ConnKind::PeerIn;
                    }
                    Ok(Hello::Ctrl) => {
                        let id = self.next_ctrl;
                        self.next_ctrl += 1;
                        self.conns.get_mut(&token).expect("conn").kind = ConnKind::CtrlIn(id);
                        self.ctrl_tokens.insert(id, token);
                        self.inner
                            .shared
                            .lock()
                            .expect("shared lock")
                            .ctrl_alive
                            .insert(id);
                    }
                    Err(_) => {
                        self.close_conn(token);
                        return;
                    }
                },
                ConnKind::PeerIn => {
                    let mut r = Reader::new(&fb);
                    let header = NodeAddr::decode(&mut r).and_then(|f| {
                        NodeAddr::decode(&mut r).map(|t| (f, t, fb.len() - r.remaining()))
                    });
                    let Ok((from, to, off)) = header else {
                        self.close_conn(token);
                        return;
                    };
                    self.push_inbound(Inbound::Peer {
                        from,
                        to,
                        frame: fb.slice(off),
                    });
                }
                ConnKind::CtrlIn(id) => {
                    self.push_inbound(Inbound::Ctrl {
                        conn: id,
                        frame: fb,
                    });
                }
                // Peers never send payload on a connection we initiated;
                // stray bytes are ignored (EOF still closes it).
                ConnKind::PeerOut => {}
            }
        }
    }

    fn push_inbound(&mut self, msg: Inbound) {
        if !self.undelivered.is_empty() {
            self.undelivered.push_back(msg);
            return;
        }
        match self.tx.try_send(msg) {
            Ok(()) => {}
            Err(TrySendError::Full(m)) => self.undelivered.push_back(m),
            Err(TrySendError::Disconnected(_)) => self.running = false,
        }
    }

    fn redeliver(&mut self) {
        while let Some(m) = self.undelivered.pop_front() {
            match self.tx.try_send(m) {
                Ok(()) => {}
                Err(TrySendError::Full(m)) => {
                    self.undelivered.push_front(m);
                    break;
                }
                Err(TrySendError::Disconnected(_)) => {
                    self.running = false;
                    break;
                }
            }
        }
    }

    /// Flushes every connection with staged bytes and reconciles poll
    /// interests.
    fn flush_dirty(&mut self) {
        let dirty: Vec<u64> = self
            .conns
            .iter()
            .filter(|(_, c)| c.wr.has_pending() || c.connecting != c.interest.writable)
            .map(|(t, _)| *t)
            .collect();
        for token in dirty {
            self.flush_conn(token);
        }
    }

    fn flush_conn(&mut self, token: u64) {
        loop {
            let Some(conn) = self.conns.get_mut(&token) else {
                return;
            };
            if conn.connecting || !conn.wr.has_pending() {
                break;
            }
            match conn.stream.write(&conn.wr.buf[conn.wr.pos..]) {
                Ok(0) => {
                    self.close_conn(token);
                    return;
                }
                Ok(n) => conn.wr.advance(n),
                Err(e) if e.kind() == std::io::ErrorKind::WouldBlock => break,
                Err(e) if e.kind() == std::io::ErrorKind::Interrupted => continue,
                Err(_) => {
                    self.close_conn(token);
                    return;
                }
            }
        }
        self.update_interest(token);
    }

    fn update_interest(&mut self, token: u64) {
        let Some(conn) = self.conns.get_mut(&token) else {
            return;
        };
        let want = Interest {
            readable: true,
            writable: conn.connecting || conn.wr.has_pending(),
        };
        if want != conn.interest
            && self
                .poller
                .reregister(conn.stream.as_raw_fd(), token, want)
                .is_ok()
        {
            conn.interest = want;
        }
    }

    fn close_conn(&mut self, token: u64) {
        let Some(conn) = self.conns.remove(&token) else {
            return;
        };
        let _ = self.poller.deregister(conn.stream.as_raw_fd());
        let unsent = conn.wr.unsent_frames() as u64;
        if unsent > 0 {
            self.inner
                .dropped
                .conn_closed
                .fetch_add(unsent, Ordering::Relaxed);
        }
        if let Some(sock) = conn.sock {
            self.by_sock.remove(&sock);
            if conn.connecting {
                // The connect itself failed: staged frames are intact —
                // schedule a retry instead of losing them.
                self.connect_failed(sock);
            }
        }
        if let ConnKind::CtrlIn(id) = conn.kind {
            self.ctrl_tokens.remove(&id);
            self.inner
                .shared
                .lock()
                .expect("shared lock")
                .ctrl_alive
                .remove(&id);
            self.push_inbound(Inbound::CtrlClosed { conn: id });
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::codec::{read_frame, write_frame};
    use std::time::Duration;

    /// A resolver over a mutable map, so buses can bind port 0 and
    /// register their ephemeral addresses afterwards.
    fn dynamic_resolver() -> (Resolver, Arc<Mutex<HashMap<u32, SocketAddr>>>) {
        let map: Arc<Mutex<HashMap<u32, SocketAddr>>> = Arc::new(Mutex::new(HashMap::new()));
        let inner = Arc::clone(&map);
        let resolver: Resolver =
            Arc::new(move |addr: NodeAddr| inner.lock().unwrap().get(&addr.0).copied());
        (resolver, map)
    }

    fn start_bus(
        addr: NodeAddr,
        resolver: &Resolver,
        map: &Arc<Mutex<HashMap<u32, SocketAddr>>>,
    ) -> (TcpBus, Receiver<Inbound>) {
        let (bus, rx) =
            TcpBus::start("127.0.0.1:0".parse().unwrap(), addr, Arc::clone(resolver)).unwrap();
        map.lock().unwrap().insert(addr.0, bus.local_addr());
        (bus, rx)
    }

    #[test]
    fn frames_flow_between_two_buses() {
        let (resolver, map) = dynamic_resolver();
        let (bus_a, _rx_a) = start_bus(NodeAddr(0), &resolver, &map);
        let (bus_b, rx_b) = start_bus(NodeAddr(1), &resolver, &map);

        bus_a.send_to(NodeAddr(1), encode_frame(&4242u64));
        match rx_b.recv_timeout(Duration::from_secs(5)).unwrap() {
            Inbound::Peer { from, to, frame } => {
                assert_eq!(from, NodeAddr(0));
                assert_eq!(to, NodeAddr(1));
                assert_eq!(decode_frame::<u64>(&frame).unwrap(), 4242);
            }
            other => panic!("unexpected inbound: {other:?}"),
        }
        bus_a.shutdown();
        bus_b.shutdown();
    }

    #[test]
    fn frame_runs_arrive_in_order() {
        let (resolver, map) = dynamic_resolver();
        let (bus_a, _rx_a) = start_bus(NodeAddr(0), &resolver, &map);
        let (bus_b, rx_b) = start_bus(NodeAddr(1), &resolver, &map);

        // A burst far larger than one frame per wakeup: exercises write
        // coalescing on A and multi-frame reads on B.
        for i in 0..500u64 {
            bus_a.send_to(NodeAddr(1), encode_frame(&i));
        }
        for expect in 0..500u64 {
            match rx_b.recv_timeout(Duration::from_secs(5)).unwrap() {
                Inbound::Peer { frame, .. } => {
                    assert_eq!(decode_frame::<u64>(&frame).unwrap(), expect);
                }
                other => panic!("unexpected inbound: {other:?}"),
            }
        }
        assert_eq!(bus_a.dropped_frames(), 0);
        bus_a.shutdown();
        bus_b.shutdown();
    }

    #[test]
    fn packed_members_demux_by_destination() {
        let (resolver, map) = dynamic_resolver();
        let (bus_a, _rx_a) = start_bus(NodeAddr(0), &resolver, &map);
        let (bus_b, rx_b) = start_bus(NodeAddr(10), &resolver, &map);
        // Bus B answers for members 10 and 11.
        let b_sock = bus_b.local_addr();
        map.lock().unwrap().insert(11, b_sock);

        // Bus A hosts member 7 alongside its own address 0.
        bus_a.send_from(NodeAddr(7), NodeAddr(11), encode_frame(&1u64));
        bus_a.send_from(NodeAddr(0), NodeAddr(10), encode_frame(&2u64));

        let mut got = Vec::new();
        for _ in 0..2 {
            match rx_b.recv_timeout(Duration::from_secs(5)).unwrap() {
                Inbound::Peer { from, to, frame } => {
                    got.push((from.0, to.0, decode_frame::<u64>(&frame).unwrap()));
                }
                other => panic!("unexpected inbound: {other:?}"),
            }
        }
        got.sort_unstable();
        assert_eq!(got, vec![(0, 10, 2), (7, 11, 1)]);
        bus_a.shutdown();
        bus_b.shutdown();
    }

    #[test]
    fn ctrl_connections_round_trip_replies() {
        let resolver: Resolver = Arc::new(|_| None);
        let (bus, rx) =
            TcpBus::start("127.0.0.1:0".parse().unwrap(), NodeAddr(0), resolver).unwrap();

        let mut client = TcpStream::connect(bus.local_addr()).unwrap();
        client
            .set_read_timeout(Some(Duration::from_secs(5)))
            .unwrap();
        write_frame(&mut client, &encode_frame(&Hello::Ctrl)).unwrap();
        write_frame(&mut client, &encode_frame(&77u64)).unwrap();

        let conn = match rx.recv_timeout(Duration::from_secs(5)).unwrap() {
            Inbound::Ctrl { conn, frame } => {
                assert_eq!(decode_frame::<u64>(&frame).unwrap(), 77);
                conn
            }
            other => panic!("unexpected inbound: {other:?}"),
        };
        bus.send_ctrl(conn, &encode_frame(&88u64)).unwrap();
        let reply = read_frame(&mut client, MAX_FRAME_LEN).unwrap().unwrap();
        assert_eq!(decode_frame::<u64>(&reply).unwrap(), 88);

        // Closing the client surfaces CtrlClosed and invalidates the id.
        drop(client);
        loop {
            match rx.recv_timeout(Duration::from_secs(5)).unwrap() {
                Inbound::CtrlClosed { conn: closed } => {
                    assert_eq!(closed, conn);
                    break;
                }
                _ => continue,
            }
        }
        assert!(bus.send_ctrl(conn, &encode_frame(&0u64)).is_err());
        bus.shutdown();
    }

    #[test]
    fn frames_sent_before_peer_listens_survive_reconnect() {
        let (resolver, map) = dynamic_resolver();
        let (bus_a, _rx_a) = start_bus(NodeAddr(0), &resolver, &map);
        // Reserve a concrete port for peer 1, then free it so the first
        // connect attempt is refused.
        let sock = {
            let placeholder = std::net::TcpListener::bind("127.0.0.1:0").unwrap();
            placeholder.local_addr().unwrap()
        };
        map.lock().unwrap().insert(1, sock);
        bus_a.send_to(NodeAddr(1), encode_frame(&7u64));

        // Now the peer actually appears; the staged frame must arrive via
        // the reconnect backoff, not be dropped.
        let (bus_b, rx_b) = TcpBus::start(sock, NodeAddr(1), Arc::clone(&resolver)).unwrap();
        match rx_b.recv_timeout(Duration::from_secs(20)).unwrap() {
            Inbound::Peer { from, to, frame } => {
                assert_eq!(from, NodeAddr(0));
                assert_eq!(to, NodeAddr(1));
                assert_eq!(decode_frame::<u64>(&frame).unwrap(), 7);
            }
            other => panic!("unexpected inbound: {other:?}"),
        }
        assert_eq!(bus_a.dropped_frames(), 0);
        bus_a.shutdown();
        bus_b.shutdown();
    }

    #[test]
    fn unresolvable_destination_counts_a_drop() {
        let resolver: Resolver = Arc::new(|_| None);
        let (bus, _rx) =
            TcpBus::start("127.0.0.1:0".parse().unwrap(), NodeAddr(0), resolver).unwrap();
        bus.send_to(NodeAddr(99), encode_frame(&1u64));
        assert_eq!(bus.dropped_frames(), 1);
        let stats = bus.drop_stats();
        assert_eq!(stats.unresolvable, 1, "cause attributed: {stats:?}");
        assert_eq!(stats.total(), 1);
        bus.shutdown();
    }
}
