//! Real-socket backend: a [`BusLoop`] moving length-prefixed frames
//! between OS processes over nonblocking `std::net::TcpStream`s. The
//! [`Transport`](crate::Transport) the daemon's members see, with its
//! wall-clock timer queue, is `rbay_core::MemberCtx`; the loop is where
//! its off-process frames go.
//!
//! Threading model: **the loop has no thread of its own.** It is a value
//! its owner drives: each [`BusLoop::turn`] flushes what was sent since
//! the last turn, waits in `epoll` no longer than the owner's timeout, and
//! hands back the frames it read. `rbay-node` drives one on its main
//! thread between its pack's timers, so a daemon is one thread: frames
//! are decoded and handled on the thread that read them, and sends go
//! straight into the loop's staging area and write queues. One loop
//! multiplexes the listener, every accepted connection, and every
//! outbound connection over a single [`epoll_shim::Poller`]:
//!
//! * inbound bytes are read a whole socket buffer at a time and carved
//!   into frames **zero-copy** by a [`FrameAssembler`] — each delivered
//!   [`FrameBuf`] is a view into the read buffer, so a 64 KiB read full
//!   of frames costs one allocation, not one per frame;
//! * outbound frames are serialized into a per-connection `WriteQueue`
//!   and **coalesced**: one `write(2)` per turn pushes a whole run of
//!   length-prefixed frames;
//! * senders never block: frames for a peer whose connection is not yet
//!   established stay staged while the loop retries the connect with
//!   backoff (daemons of one fleet start in arbitrary order); a saturated
//!   per-peer staging queue, a peer that stays unreachable through the
//!   whole backoff window, or a connection that breaks mid-flight *drops*
//!   frames (counted in [`BusLoop::drop_stats`]) — loss, not blocking,
//!   because every overlay protocol above already tolerates loss
//!   (heartbeats, rejoin, repair).
//!
//! Within one turn, peer connections are flushed before ctrl replies, and
//! the frames read are handed back peer frames first, ctrl frames after
//! (each class in the order it was read). A ctrl client reacts to a reply
//! such as `QueryDone` by asking another daemon about it; both rules keep
//! that question from overtaking the peer frames (the querier's `Commit`)
//! that left with the reply.
//!
//! Peer frames carry a `[from][to]` overlay-address header inside the
//! length-prefixed body, so one loop can host **many** federation members
//! (agent packing): the daemon demuxes on `Inbound::Peer::to`. Control
//! connections (the `cluster` harness) speak plain frames with no header.
//!
//! [`TcpBus`] is the same loop on a spawned thread, for callers with no
//! loop of their own (tests, the benchmark's socket probe): sends reach
//! the thread through a mutex-guarded queue and a self-pipe wakeup, and
//! frames come back over a bounded channel.

use crate::buf::{FrameAssembler, FrameBuf};
use crate::codec::{decode_frame, encode_frame, Reader, Wire, MAX_FRAME_LEN};
use crate::{wire_enum, wire_struct};
use epoll_shim::{Event, Interest, Poller};
use simnet::NodeAddr;
use std::collections::{HashMap, VecDeque};
use std::io::{self, Read as _, Write as _};
use std::net::{SocketAddr, TcpListener, TcpStream};
use std::os::unix::io::AsRawFd;
use std::os::unix::net::UnixStream;
use std::sync::mpsc::{sync_channel, Receiver, SyncSender, TrySendError};
use std::sync::{Arc, Mutex};
use std::thread;
use std::time::{Duration, Instant};

/// Peer frames one turn holds before it stops reading peer connections
/// (ctrl connections are always read). Level-triggered polling reports
/// the rest next turn; until then kernel buffers and TCP flow control
/// hold the senders back. Also [`TcpBus`]'s channel capacity.
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
const CONNECT_BACKOFF: Duration = Duration::from_millis(50);
const CONNECT_BACKOFF_MAX: Duration = Duration::from_secs(2);

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

/// One frame read by a [`BusLoop`] turn.
#[derive(Debug)]
pub enum Inbound {
    /// A protocol frame from a federation peer, still encoded.
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
        /// Loop-local id of the control connection, for
        /// [`BusLoop::send_ctrl`].
        conn: u64,
        /// The raw frame body.
        frame: FrameBuf,
    },
    /// A control connection closed.
    CtrlClosed {
        /// Loop-local id of the closed connection.
        conn: u64,
    },
}

/// Maps overlay addresses to socket addresses (e.g. `127.0.0.1:base+i`).
pub type Resolver = Arc<dyn Fn(NodeAddr) -> Option<SocketAddr> + Send + Sync>;

/// Dropped-frame counts broken down by cause, so a lossy run says *why*
/// (see [`BusLoop::drop_stats`]).
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct DropStats {
    /// The resolver had no socket address for the destination.
    pub unresolvable: u64,
    /// A per-peer outbound staging queue was full (a connection not yet
    /// established, or still in connect backoff).
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

/// What a connection is for, decided by its hello (inbound) or by us
/// (outbound).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
enum ConnKind {
    /// Accepted, hello not yet seen.
    Pending,
    /// Accepted from a federation peer; we only read from it.
    PeerIn,
    /// Accepted from a control client (loop-local id).
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

/// One process's socket machinery, driven by its owner one
/// [`BusLoop::turn`] at a time.
pub struct BusLoop {
    my_addr: NodeAddr,
    local_addr: SocketAddr,
    resolver: Resolver,
    poller: Poller,
    listener: TcpListener,
    /// Self-pipe read half; set only under [`TcpBus`].
    waker: Option<UnixStream>,
    conns: HashMap<u64, Conn>,
    by_sock: HashMap<SocketAddr, u64>,
    /// Control-connection id → poll token.
    ctrl_tokens: HashMap<u64, u64>,
    next_token: u64,
    next_ctrl: u64,
    /// Frames awaiting an *established* connection, per destination
    /// socket; moved into the connection's write queue only once the
    /// nonblocking connect completes, so a failed connect loses nothing.
    staged: HashMap<SocketAddr, VecDeque<(NodeAddr, NodeAddr, Vec<u8>)>>,
    /// Reconnect state per destination socket: next attempt time and
    /// failed attempts so far.
    retry: HashMap<SocketAddr, (Instant, u32)>,
    /// Inside [`BusLoop::flush`]: a failed connect drops its frames.
    draining: bool,
    /// Ctrl-side frames read this turn, handed back after its peer
    /// frames.
    ctrl_in: Vec<Inbound>,
    events: Vec<Event>,
    frames: Vec<FrameBuf>,
    scratch: Vec<u8>,
    dropped: DropStats,
}

impl BusLoop {
    /// Binds `listen` (port 0 picks an ephemeral port — see
    /// [`BusLoop::local_addr`]). Nothing runs until the owner turns the
    /// loop.
    pub fn bind(listen: SocketAddr, my_addr: NodeAddr, resolver: Resolver) -> io::Result<BusLoop> {
        let listener = TcpListener::bind(listen)?;
        listener.set_nonblocking(true)?;
        let local_addr = listener.local_addr()?;
        let poller = Poller::new()?;
        poller.register(listener.as_raw_fd(), TOKEN_LISTENER, Interest::READ)?;
        Ok(BusLoop {
            my_addr,
            local_addr,
            resolver,
            poller,
            listener,
            waker: None,
            conns: HashMap::new(),
            by_sock: HashMap::new(),
            ctrl_tokens: HashMap::new(),
            next_token: TOKEN_FIRST_CONN,
            next_ctrl: 0,
            staged: HashMap::new(),
            retry: HashMap::new(),
            draining: false,
            ctrl_in: Vec::new(),
            events: Vec::new(),
            frames: Vec::new(),
            scratch: vec![0u8; READ_CHUNK],
            dropped: DropStats::default(),
        })
    }

    /// The socket address actually bound (resolves port 0).
    pub fn local_addr(&self) -> SocketAddr {
        self.local_addr
    }

    /// Queues an already-encoded frame from this loop's own address.
    pub fn send_to(&mut self, to: NodeAddr, frame: Vec<u8>) {
        self.send_from(self.my_addr, to, frame);
    }

    /// Queues an already-encoded frame from an arbitrary hosted member
    /// address (agent packing); the next turn writes it. Never blocks:
    /// the frame is dropped (and counted) if `to` does not resolve or its
    /// queue is full.
    pub fn send_from(&mut self, from: NodeAddr, to: NodeAddr, frame: Vec<u8>) {
        let Some(sock) = (self.resolver)(to) else {
            self.dropped.unresolvable += 1;
            return;
        };
        // Straight onto an established connection, unless older frames
        // for it are still staged.
        if !self.staged.contains_key(&sock) {
            let conn = self.by_sock.get(&sock).and_then(|t| self.conns.get_mut(t));
            if let Some(conn) = conn.filter(|c| !c.connecting) {
                if conn.wr.backlog() > WRITE_BUF_MAX {
                    self.dropped.write_cap += 1;
                } else {
                    conn.wr.push_peer_frame(from, to, &frame);
                }
                return;
            }
        }
        let q = self.staged.entry(sock).or_default();
        if q.len() >= OUTBOUND_QUEUE {
            self.dropped.outbound_full += 1;
        } else {
            q.push_back((from, to, frame));
        }
    }

    /// Queues a frame back on a control connection; the next turn writes
    /// it. An unknown or closed connection is an error.
    pub fn send_ctrl(&mut self, conn: u64, frame: &[u8]) -> io::Result<()> {
        let conn = self
            .ctrl_tokens
            .get(&conn)
            .and_then(|t| self.conns.get_mut(t))
            .ok_or_else(|| io::Error::new(io::ErrorKind::NotConnected, "ctrl conn closed"))?;
        conn.wr.push_raw_frame(frame, true);
        Ok(())
    }

    /// Frames dropped so far on saturated or broken outbound paths
    /// (total across causes — see [`BusLoop::drop_stats`]).
    pub fn dropped_frames(&self) -> u64 {
        self.dropped.total()
    }

    /// Per-cause breakdown of the dropped-frame count.
    pub fn drop_stats(&self) -> DropStats {
        self.dropped
    }

    /// One turn: writes what was sent since the last turn (peer
    /// connections before ctrl replies), waits in `epoll` no longer than
    /// `timeout` (less while a reconnect is due sooner), and appends the
    /// frames it read to `out` — peer frames first, then ctrl frames,
    /// each in read order. Once `out` holds 4,096 frames
    /// (`INBOUND_QUEUE`) the turn reads no more peer data; the kernel
    /// keeps it for the next.
    pub fn turn(&mut self, timeout: Duration, out: &mut Vec<Inbound>) -> io::Result<()> {
        self.service_staged();
        self.flush_dirty();
        let mut events = std::mem::take(&mut self.events);
        let waited = self
            .poller
            .wait(&mut events, Some(self.wait_bound(timeout)));
        if waited.is_ok() {
            for ev in &events {
                match ev.token {
                    TOKEN_LISTENER => self.accept_all(),
                    TOKEN_WAKER => self.drain_waker(),
                    token => self.conn_event(token, ev, out),
                }
            }
        }
        self.events = events;
        out.append(&mut self.ctrl_in);
        waited
    }

    /// Outbound barrier: turns the loop until every frame sent so far has
    /// been handed to the kernel (staging queues and write queues empty),
    /// or until `timeout` elapses. Returns whether everything drained.
    ///
    /// This is a shutdown barrier. Frames read meanwhile are discarded,
    /// and a peer that refuses its connect is taken to be gone: its
    /// staged frames are dropped (counted as `connect_exhausted`) at the
    /// first refusal instead of waiting out the backoff, so a daemon
    /// leaving after its neighbours does not wait on them.
    pub fn flush(&mut self, timeout: Duration) -> bool {
        let deadline = Instant::now() + timeout;
        self.draining = true;
        let now = Instant::now();
        for (at, _) in self.retry.values_mut() {
            *at = now;
        }
        let mut discarded = Vec::new();
        let drained = loop {
            self.service_staged();
            self.flush_dirty();
            if self.unsent_frames() == 0 {
                break true;
            }
            let left = deadline.saturating_duration_since(Instant::now());
            if left.is_zero() || self.turn(left, &mut discarded).is_err() {
                break false;
            }
            discarded.clear();
        };
        self.draining = false;
        drained
    }

    /// Payload frames sent but not yet handed to the kernel.
    fn unsent_frames(&self) -> usize {
        self.staged.values().map(VecDeque::len).sum::<usize>()
            + self
                .conns
                .values()
                .map(|c| c.wr.unsent_frames())
                .sum::<usize>()
    }

    /// `timeout`, cut short by the earliest reconnect due for a socket
    /// with frames staged.
    fn wait_bound(&self, timeout: Duration) -> Duration {
        let now = Instant::now();
        self.staged
            .keys()
            .filter_map(|sock| self.retry.get(sock))
            .map(|&(at, _)| at.saturating_duration_since(now))
            .fold(timeout, Duration::min)
    }

    /// Moves staged frames onto established connections, opening (or
    /// re-opening, with backoff) connections for sockets that lack one.
    fn service_staged(&mut self) {
        if self.staged.is_empty() {
            return;
        }
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
            for (from, to, payload) in q.drain(..) {
                if conn.wr.backlog() > WRITE_BUF_MAX {
                    self.dropped.write_cap += 1;
                } else {
                    conn.wr.push_peer_frame(from, to, &payload);
                }
            }
        }
    }

    /// Records a failed connect attempt toward `sock`: schedules the next
    /// attempt with exponential backoff, or — once the attempt budget is
    /// spent, or at once inside [`BusLoop::flush`] — drops the staged
    /// frames and resets, so a later send starts a fresh attempt cycle.
    fn connect_failed(&mut self, sock: SocketAddr) {
        let attempts = self.retry.get(&sock).map_or(0, |&(_, n)| n) + 1;
        if attempts >= CONNECT_ATTEMPTS || self.draining {
            if let Some(q) = self.staged.remove(&sock) {
                self.dropped.connect_exhausted += q.len() as u64;
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
            .push_raw_frame(&encode_frame(&Hello::Peer(self.my_addr)), false);
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
                Err(e) if e.kind() == io::ErrorKind::WouldBlock => break,
                Err(e) if e.kind() == io::ErrorKind::Interrupted => continue,
                Err(_) => break,
            }
        }
    }

    fn drain_waker(&mut self) {
        let Some(waker) = &self.waker else {
            return;
        };
        loop {
            match (&*waker).read(&mut self.scratch) {
                Ok(0) => break,
                Ok(_) => continue,
                Err(e) if e.kind() == io::ErrorKind::Interrupted => continue,
                Err(_) => break,
            }
        }
    }

    fn conn_event(&mut self, token: u64, ev: &Event, out: &mut Vec<Inbound>) {
        let Some(conn) = self.conns.get_mut(&token) else {
            return;
        };
        if conn.connecting && (ev.writable || ev.error) {
            match conn.stream.take_error() {
                Ok(None) if !ev.error => {
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
        if ev.readable {
            let mut frames = std::mem::take(&mut self.frames);
            self.read_conn(token, &mut frames, out);
            frames.clear();
            self.frames = frames;
        }
        if ev.writable {
            self.flush_conn(token);
        } else if ev.error && !ev.readable {
            self.close_conn(token);
        }
    }

    /// Reads a readable connection dry, or until `out` holds
    /// [`INBOUND_QUEUE`] frames if it is a peer connection.
    fn read_conn(&mut self, token: u64, frames: &mut Vec<FrameBuf>, out: &mut Vec<Inbound>) {
        loop {
            let Some(conn) = self.conns.get_mut(&token) else {
                return;
            };
            if conn.kind == ConnKind::PeerIn && out.len() >= INBOUND_QUEUE {
                break;
            }
            match conn.stream.read(&mut self.scratch) {
                Ok(0) => {
                    self.dispatch_frames(token, frames, out);
                    self.close_conn(token);
                    return;
                }
                Ok(n) => {
                    let chunk = self.scratch[..n].to_vec();
                    if conn.assembler.feed(chunk, frames).is_err() {
                        self.close_conn(token);
                        return;
                    }
                    // Classify as we go, so a hello read in this chunk
                    // decides whether the read budget applies.
                    self.dispatch_frames(token, frames, out);
                    if n < self.scratch.len() {
                        break; // socket buffer drained
                    }
                }
                Err(e) if e.kind() == io::ErrorKind::WouldBlock => break,
                Err(e) if e.kind() == io::ErrorKind::Interrupted => continue,
                Err(_) => {
                    self.close_conn(token);
                    return;
                }
            }
        }
    }

    fn dispatch_frames(&mut self, token: u64, frames: &mut Vec<FrameBuf>, out: &mut Vec<Inbound>) {
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
                    out.push(Inbound::Peer {
                        from,
                        to,
                        frame: fb.slice(off),
                    });
                }
                ConnKind::CtrlIn(id) => self.ctrl_in.push(Inbound::Ctrl {
                    conn: id,
                    frame: fb,
                }),
                // Peers never send payload on a connection we initiated;
                // stray bytes are ignored (EOF still closes it).
                ConnKind::PeerOut => {}
            }
        }
    }

    /// Flushes every connection with bytes queued, peer connections
    /// first, and reconciles poll interests.
    fn flush_dirty(&mut self) {
        let mut dirty: Vec<(bool, u64)> = self
            .conns
            .iter()
            .filter(|(_, c)| c.wr.has_pending() || c.connecting != c.interest.writable)
            .map(|(t, c)| (matches!(c.kind, ConnKind::CtrlIn(_)), *t))
            .collect();
        dirty.sort_unstable();
        for (_, token) in dirty {
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
                Err(e) if e.kind() == io::ErrorKind::WouldBlock => break,
                Err(e) if e.kind() == io::ErrorKind::Interrupted => continue,
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
        self.dropped.conn_closed += conn.wr.unsent_frames() as u64;
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
            self.ctrl_in.push(Inbound::CtrlClosed { conn: id });
        }
    }
}

/// A [`BusLoop`] running on a thread of its own.
pub struct TcpBus {
    inner: Arc<BusInner>,
}

struct BusInner {
    local_addr: SocketAddr,
    /// Sends not yet taken by the loop thread, and the shutdown flag.
    shared: Mutex<Shared>,
    /// Self-pipe write half: one byte wakes the loop thread.
    wake_tx: UnixStream,
}

#[derive(Default)]
struct Shared {
    out: Vec<(NodeAddr, Vec<u8>)>,
    shutdown: bool,
}

impl TcpBus {
    /// Binds `listen` (port 0 picks an ephemeral port — see
    /// [`TcpBus::local_addr`]), spawns the thread that turns the loop, and
    /// returns the bus plus the queue its frames arrive on.
    pub fn start(
        listen: SocketAddr,
        my_addr: NodeAddr,
        resolver: Resolver,
    ) -> io::Result<(TcpBus, Receiver<Inbound>)> {
        let mut bus_loop = BusLoop::bind(listen, my_addr, resolver)?;
        let (wake_tx, wake_rx) = UnixStream::pair()?;
        wake_tx.set_nonblocking(true)?;
        wake_rx.set_nonblocking(true)?;
        bus_loop
            .poller
            .register(wake_rx.as_raw_fd(), TOKEN_WAKER, Interest::READ)?;
        bus_loop.waker = Some(wake_rx);
        let (tx, rx) = sync_channel::<Inbound>(INBOUND_QUEUE);
        let bus = TcpBus {
            inner: Arc::new(BusInner {
                local_addr: bus_loop.local_addr,
                shared: Mutex::default(),
                wake_tx,
            }),
        };
        let inner = Arc::clone(&bus.inner);
        thread::Builder::new()
            .name(format!("rbay-bus-{}", my_addr.0))
            .spawn(move || run_threaded(bus_loop, &inner, &tx))
            .expect("spawn bus event loop");
        Ok((bus, rx))
    }

    /// The socket address actually bound (resolves port 0).
    pub fn local_addr(&self) -> SocketAddr {
        self.inner.local_addr
    }

    /// Queues an already-encoded frame from this bus's own address (see
    /// [`BusLoop::send_to`]).
    pub fn send_to(&self, to: NodeAddr, frame: Vec<u8>) {
        {
            let mut sh = self.inner.shared.lock().expect("shared lock");
            if sh.shutdown {
                return;
            }
            sh.out.push((to, frame));
        }
        self.wake();
    }

    /// Asks the loop thread to exit; frames not yet written are lost.
    pub fn shutdown(&self) {
        self.inner.shared.lock().expect("shared lock").shutdown = true;
        self.wake();
    }

    fn wake(&self) {
        // A full pipe already guarantees a pending wakeup.
        let _ = (&self.inner.wake_tx).write(&[1]);
    }
}

/// The loop thread: hands queued sends to the loop, turns it, and passes
/// what it read to the channel. Frames a full channel refuses wait in
/// `batch`, where they count against the next turn's read budget — so
/// backpressure reaches peers through TCP.
fn run_threaded(mut bus_loop: BusLoop, inner: &BusInner, tx: &SyncSender<Inbound>) {
    let mut batch: Vec<Inbound> = Vec::new();
    loop {
        let out = {
            let mut sh = inner.shared.lock().expect("shared lock");
            if sh.shutdown {
                return;
            }
            std::mem::take(&mut sh.out)
        };
        for (to, frame) in out {
            bus_loop.send_to(to, frame);
        }
        let wait = Duration::from_millis(if batch.is_empty() { 50 } else { 2 });
        if bus_loop.turn(wait, &mut batch).is_err() {
            return;
        }
        let mut read = std::mem::take(&mut batch).into_iter();
        while let Some(msg) = read.next() {
            match tx.try_send(msg) {
                Ok(()) => {}
                Err(TrySendError::Full(msg)) => {
                    batch.push(msg);
                    batch.extend(read);
                    break;
                }
                Err(TrySendError::Disconnected(_)) => return,
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::codec::{read_frame, write_frame};

    /// A resolver over a mutable map, so loops can bind port 0 and
    /// register their ephemeral addresses afterwards.
    fn dynamic_resolver() -> (Resolver, Arc<Mutex<HashMap<u32, SocketAddr>>>) {
        let map: Arc<Mutex<HashMap<u32, SocketAddr>>> = Arc::new(Mutex::new(HashMap::new()));
        let inner = Arc::clone(&map);
        let resolver: Resolver =
            Arc::new(move |addr: NodeAddr| inner.lock().unwrap().get(&addr.0).copied());
        (resolver, map)
    }

    fn bind(
        addr: NodeAddr,
        resolver: &Resolver,
        map: &Arc<Mutex<HashMap<u32, SocketAddr>>>,
    ) -> BusLoop {
        let bus =
            BusLoop::bind("127.0.0.1:0".parse().unwrap(), addr, Arc::clone(resolver)).unwrap();
        map.lock().unwrap().insert(addr.0, bus.local_addr());
        bus
    }

    /// Turns `loops` round-robin from this one thread, collecting each
    /// loop's frames (one `Vec` per turn, empty turns left out) until
    /// `done` holds, or panics after `secs` seconds.
    fn turn_until(
        loops: &mut [&mut BusLoop],
        secs: u64,
        mut done: impl FnMut(&[Vec<Vec<Inbound>>]) -> bool,
    ) -> Vec<Vec<Vec<Inbound>>> {
        let deadline = Instant::now() + Duration::from_secs(secs);
        let mut got: Vec<Vec<Vec<Inbound>>> = loops.iter().map(|_| Vec::new()).collect();
        while !done(&got) {
            assert!(Instant::now() < deadline, "timed out turning the loops");
            for (bus, turns) in loops.iter_mut().zip(&mut got) {
                let mut batch = Vec::new();
                bus.turn(Duration::from_millis(1), &mut batch).unwrap();
                if !batch.is_empty() {
                    turns.push(batch);
                }
            }
        }
        got
    }

    fn peer_frames(turns: &[Vec<Inbound>]) -> usize {
        turns
            .iter()
            .flatten()
            .filter(|m| matches!(m, Inbound::Peer { .. }))
            .count()
    }

    fn peer_u64s(turns: Vec<Vec<Inbound>>) -> Vec<(u32, u32, u64)> {
        turns
            .into_iter()
            .flatten()
            .map(|m| match m {
                Inbound::Peer { from, to, frame } => {
                    (from.0, to.0, decode_frame::<u64>(&frame).unwrap())
                }
                other => panic!("unexpected inbound: {other:?}"),
            })
            .collect()
    }

    fn ctrl_client(bus: &BusLoop) -> TcpStream {
        let client = TcpStream::connect(bus.local_addr()).unwrap();
        client
            .set_read_timeout(Some(Duration::from_secs(5)))
            .unwrap();
        write_frame(&mut &client, &encode_frame(&Hello::Ctrl)).unwrap();
        client
    }

    #[test]
    fn frames_flow_both_ways_in_order() {
        let (resolver, map) = dynamic_resolver();
        let mut a = bind(NodeAddr(0), &resolver, &map);
        let mut b = bind(NodeAddr(1), &resolver, &map);
        // A run far larger than one frame per turn: exercises write
        // coalescing and multi-frame reads on both sides.
        for i in 0..500u64 {
            a.send_to(NodeAddr(1), encode_frame(&i));
            b.send_to(NodeAddr(0), encode_frame(&(1000 + i)));
        }
        let got = turn_until(&mut [&mut a, &mut b], 10, |got| {
            peer_frames(&got[0]) == 500 && peer_frames(&got[1]) == 500
        });
        let [to_a, to_b]: [_; 2] = got.try_into().unwrap();
        let want_b: Vec<_> = (0..500).map(|i| (0, 1, i)).collect();
        let want_a: Vec<_> = (0..500).map(|i| (1, 0, 1000 + i)).collect();
        assert_eq!(peer_u64s(to_b), want_b);
        assert_eq!(peer_u64s(to_a), want_a);
        assert_eq!(a.dropped_frames() + b.dropped_frames(), 0);
    }

    #[test]
    fn packed_members_demux_by_destination() {
        let (resolver, map) = dynamic_resolver();
        let mut a = bind(NodeAddr(0), &resolver, &map);
        let mut b = bind(NodeAddr(10), &resolver, &map);
        // Loop B answers for members 10 and 11.
        map.lock().unwrap().insert(11, b.local_addr());

        // Loop A hosts member 7 alongside its own address 0.
        a.send_from(NodeAddr(7), NodeAddr(11), encode_frame(&1u64));
        a.send_from(NodeAddr(0), NodeAddr(10), encode_frame(&2u64));
        let got = turn_until(&mut [&mut a, &mut b], 10, |got| peer_frames(&got[1]) == 2);
        let [_, to_b]: [_; 2] = got.try_into().unwrap();
        assert_eq!(peer_u64s(to_b), vec![(7, 11, 1), (0, 10, 2)]);
    }

    #[test]
    fn ctrl_connections_round_trip_replies() {
        let mut bus = BusLoop::bind(
            "127.0.0.1:0".parse().unwrap(),
            NodeAddr(0),
            Arc::new(|_| None),
        )
        .unwrap();
        let mut client = ctrl_client(&bus);
        write_frame(&mut client, &encode_frame(&77u64)).unwrap();

        let got = turn_until(&mut [&mut bus], 10, |got| !got[0].is_empty());
        let conn = match got.into_iter().flatten().flatten().next().unwrap() {
            Inbound::Ctrl { conn, frame } => {
                assert_eq!(decode_frame::<u64>(&frame).unwrap(), 77);
                conn
            }
            other => panic!("unexpected inbound: {other:?}"),
        };
        bus.send_ctrl(conn, &encode_frame(&88u64)).unwrap();
        assert!(bus.flush(Duration::from_secs(5)));
        let reply = read_frame(&mut client, MAX_FRAME_LEN).unwrap().unwrap();
        assert_eq!(decode_frame::<u64>(&reply).unwrap(), 88);

        // Closing the client surfaces CtrlClosed and invalidates the id.
        drop(client);
        let got = turn_until(&mut [&mut bus], 10, |got| !got[0].is_empty());
        match got.into_iter().flatten().flatten().next().unwrap() {
            Inbound::CtrlClosed { conn: closed } => assert_eq!(closed, conn),
            other => panic!("unexpected inbound: {other:?}"),
        }
        assert!(bus.send_ctrl(conn, &encode_frame(&0u64)).is_err());
    }

    #[test]
    fn frames_sent_before_peer_listens_survive_reconnect() {
        let (resolver, map) = dynamic_resolver();
        let mut a = bind(NodeAddr(0), &resolver, &map);
        // Reserve a concrete port for peer 1, then free it so the first
        // connect attempt is refused.
        let sock = {
            let placeholder = std::net::TcpListener::bind("127.0.0.1:0").unwrap();
            placeholder.local_addr().unwrap()
        };
        map.lock().unwrap().insert(1, sock);
        a.send_to(NodeAddr(1), encode_frame(&7u64));
        for _ in 0..3 {
            a.turn(Duration::from_millis(5), &mut Vec::new()).unwrap();
        }

        // Now the peer actually appears; the staged frame must arrive via
        // the reconnect backoff, not be dropped.
        let mut b = BusLoop::bind(sock, NodeAddr(1), Arc::clone(&resolver)).unwrap();
        let got = turn_until(&mut [&mut a, &mut b], 20, |got| peer_frames(&got[1]) == 1);
        let [_, to_b]: [_; 2] = got.try_into().unwrap();
        assert_eq!(peer_u64s(to_b), vec![(0, 1, 7)]);
        assert_eq!(a.dropped_frames(), 0);
    }

    #[test]
    fn unresolvable_destination_counts_a_drop() {
        let mut bus = BusLoop::bind(
            "127.0.0.1:0".parse().unwrap(),
            NodeAddr(0),
            Arc::new(|_| None),
        )
        .unwrap();
        bus.send_to(NodeAddr(99), encode_frame(&1u64));
        assert_eq!(bus.dropped_frames(), 1);
        let stats = bus.drop_stats();
        assert_eq!(stats.unresolvable, 1, "cause attributed: {stats:?}");
        assert_eq!(stats.total(), 1);
        assert!(bus.flush(Duration::ZERO), "nothing left to write");
    }

    #[test]
    fn a_burst_past_the_read_budget_spans_turns_and_loses_nothing() {
        let (resolver, map) = dynamic_resolver();
        let mut a = bind(NodeAddr(0), &resolver, &map);
        let mut b = bind(NodeAddr(1), &resolver, &map);
        // Establish the connection, so the burst goes straight to the
        // write queue instead of the (4,096-frame) staging queue.
        a.send_to(NodeAddr(1), encode_frame(&"hello".to_owned()));
        turn_until(&mut [&mut a, &mut b], 10, |got| peer_frames(&got[1]) == 1);

        // ~110-byte frames: a 64 KiB read holds ~600, so the read budget,
        // not the socket buffer, is what ends B's first full turn.
        const BURST: usize = 2 * INBOUND_QUEUE + 100;
        for i in 0..BURST {
            a.send_to(NodeAddr(1), encode_frame(&format!("{i:0100}")));
        }
        let got = turn_until(&mut [&mut a, &mut b], 30, |got| {
            peer_frames(&got[1]) == BURST
        });
        let [_, to_b]: [_; 2] = got.try_into().unwrap();
        assert!(to_b.len() >= 2, "a burst of {BURST} frames took one turn");
        let largest = to_b.iter().map(Vec::len).max().unwrap();
        assert!(
            largest < INBOUND_QUEUE + READ_CHUNK / 100,
            "one turn read {largest} frames"
        );
        for (i, msg) in to_b.into_iter().flatten().enumerate() {
            let Inbound::Peer { frame, .. } = msg else {
                panic!("unexpected inbound: {msg:?}");
            };
            assert_eq!(decode_frame::<String>(&frame).unwrap(), format!("{i:0100}"));
        }
        assert_eq!(a.dropped_frames(), 0);
    }

    #[test]
    fn a_turn_hands_back_peer_frames_before_ctrl_frames() {
        let (resolver, map) = dynamic_resolver();
        let mut a = bind(NodeAddr(0), &resolver, &map);
        let mut b = bind(NodeAddr(1), &resolver, &map);
        let mut client = ctrl_client(&b);
        a.send_to(NodeAddr(1), encode_frame(&1u64));
        turn_until(&mut [&mut a, &mut b], 10, |got| peer_frames(&got[1]) == 1);

        // The ctrl frame reaches B's kernel first, then the peer frame;
        // B reads both in one turn.
        write_frame(&mut client, &encode_frame(&2u64)).unwrap();
        std::thread::sleep(Duration::from_millis(50));
        a.send_to(NodeAddr(1), encode_frame(&3u64));
        assert!(a.flush(Duration::from_secs(5)));
        std::thread::sleep(Duration::from_millis(50));
        let mut batch = Vec::new();
        b.turn(Duration::from_secs(1), &mut batch).unwrap();
        let order: Vec<u64> = batch
            .iter()
            .map(|m| match m {
                Inbound::Peer { frame, .. } | Inbound::Ctrl { frame, .. } => {
                    decode_frame::<u64>(frame).unwrap()
                }
                other => panic!("unexpected inbound: {other:?}"),
            })
            .collect();
        assert_eq!(order, [3, 2], "peer frame first");
    }

    /// The threaded form: the benchmark's socket probe drives it through
    /// `start`, `send_to`, `recv_timeout` and `shutdown`.
    #[test]
    fn threaded_buses_exchange_frames_in_order() {
        let (resolver, map) = dynamic_resolver();
        let mut buses = Vec::new();
        for i in 0..2u32 {
            let (bus, rx) = TcpBus::start(
                "127.0.0.1:0".parse().unwrap(),
                NodeAddr(i),
                Arc::clone(&resolver),
            )
            .unwrap();
            map.lock().unwrap().insert(i, bus.local_addr());
            buses.push((bus, rx));
        }
        for i in 0..500u64 {
            buses[0].0.send_to(NodeAddr(1), encode_frame(&i));
        }
        for expect in 0..500u64 {
            match buses[1].1.recv_timeout(Duration::from_secs(5)).unwrap() {
                Inbound::Peer { from, to, frame } => {
                    assert_eq!((from, to), (NodeAddr(0), NodeAddr(1)));
                    assert_eq!(decode_frame::<u64>(&frame).unwrap(), expect);
                }
                other => panic!("unexpected inbound: {other:?}"),
            }
        }
        buses[1].0.send_to(NodeAddr(0), encode_frame(&9u64));
        match buses[0].1.recv_timeout(Duration::from_secs(5)).unwrap() {
            Inbound::Peer { frame, .. } => assert_eq!(decode_frame::<u64>(&frame).unwrap(), 9),
            other => panic!("unexpected inbound: {other:?}"),
        }
        for (bus, rx) in &buses {
            bus.shutdown();
            // The loop thread exits and drops its end of the channel.
            assert!(matches!(
                rx.recv_timeout(Duration::from_secs(5)),
                Err(std::sync::mpsc::RecvTimeoutError::Disconnected)
            ));
        }
    }
}
