//! rbay-wire: the binary wire protocol and socket transport for the RBAY
//! federation.
//!
//! Until now every message in this codebase was a Rust enum moving through
//! `simnet`'s in-memory event queue — nothing could leave the process. The
//! paper's deployment is the opposite: 16,000 agents as real processes
//! exchanging bytes over TCP across 8 regions. This crate makes the
//! message plane real while keeping the protocol code untouched:
//!
//! * [`codec`] — a self-contained length-prefixed binary format: the
//!   [`Wire`] trait, varint integers, length-prefixed strings, a
//!   protocol-version frame header, a bounds-checked [`Reader`] whose
//!   decode path is total (hostile bytes yield [`WireError`], never a
//!   panic or unbounded allocation), and the two macros every struct and
//!   tagged enum declares its layout with: [`wire_struct!`] and
//!   [`wire_enum!`] (which also emits the tag table, [`Wire::TAGS`]).
//! * [`impls`] — the only hand-written `Wire` impls (primitives and
//!   generic containers), plus the declarations for the message surface
//!   owned by `simnet`/`pastry`/`scribe`/`rbay-query`: `PastryMsg`,
//!   `ScribeMsg`, `AggValue`, `AttrValue`, and the query AST.
//!   (`RbayPayload`, `WalRecord`, `CtrlMsg` are declared in their own
//!   crates — the orphan rule puts impls next to whichever side is
//!   local.)
//! * [`buf`] — zero-copy inbound framing: [`FrameBuf`] views into shared
//!   read buffers and the [`FrameAssembler`] that carves socket reads
//!   into frame runs.
//! * [`tcp`] — the real backend: [`tcp::BusLoop`], a nonblocking event
//!   loop (vendored `epoll-shim`) its owner turns on its own thread, with
//!   per-connection write coalescing, bounded staging queues, and
//!   `[from][to]`-headered peer frames so one loop can host many packed
//!   members; [`tcp::TcpBus`] runs the same loop on a spawned thread. The
//!   [`Transport`] over it is `rbay-core`'s `MemberCtx` (one per packed
//!   member, with the pack's wall-clock timer queue).
//!
//! [`Transport`] itself — message delivery + clock + timers, the only I/O
//! surface the protocol actors need — is `simnet`'s trait, re-exported
//! here; the simulator's `Context` implements it too, so the `rbay-node`
//! daemon and `cluster` harness in `rbay-bench` run over real loopback
//! sockets the same actors tier-1 simulates.

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod buf;
pub mod codec;
pub mod impls;
pub mod tcp;

pub use buf::{FrameAssembler, FrameBuf};
pub use codec::{
    assert_tags_covered, decode_frame, decode_frame_as, encode_frame, encode_frame_as, read_frame,
    write_frame, Reader, Sink, Wire, WireError, CANON_NAN_BITS, MAX_DEPTH, MAX_FRAME_LEN,
    WIRE_VERSION,
};
pub use simnet::Transport;
pub use tcp::{BusLoop, DropStats, Hello, Inbound, Resolver, TcpBus};
