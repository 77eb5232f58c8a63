//! Durable node state for the RBAY federation (DESIGN.md §18).
//!
//! Every `rbay-node` was amnesiac before this crate existed: a restart
//! lost the attribute map, the installed AA handlers, and every tree
//! subscription, so the only recovery path was full re-installation. This
//! crate gives a daemon one self-contained durability engine, shared by
//! every member it packs:
//!
//! * **WAL** — every state mutation (attribute upsert/delete, handler
//!   install/uninstall with its source text, subscription add/remove,
//!   reservation commit/release) is appended to one append-only log,
//!   under the address of the member it belongs to, before the mutation
//!   is acknowledged. Records are encoded with the hostile-input-hardened
//!   `rbay-wire` varint codec and framed with a `[len u32][crc32
//!   u32][body]` header, so a torn tail, a truncated file, or a flipped
//!   bit is detected and cleanly discarded — replay always recovers the
//!   longest valid prefix and never panics (pinned by the crash-recovery
//!   proptests in `tests/recovery.rs`).
//! * **Snapshots** — when the WAL crosses a record-count or byte
//!   threshold, the live generation is folded from disk, by the same fold
//!   [`Store::open`] recovers with, into each member's [`DurableState`],
//!   and that image is written to a new snapshot file (write + fsync +
//!   atomic rename); the WAL starts a new generation, and a `MANIFEST` —
//!   itself replaced atomically — points at the live `(snapshot, wal)`
//!   pair. Old generations are deleted after the manifest commits, so a
//!   crash at any instant leaves either the old pair or the new pair fully
//!   intact. The store keeps no state image between opens and
//!   compactions: the hosts' own state is the only one.
//! * **Fsync policy** — [`FsyncPolicy::Always`] syncs every append
//!   (single-record durability, one `sync_data` per append);
//!   [`FsyncPolicy::Batch`], the daemon's default, syncs on explicit
//!   [`Store::flush`] calls — one `sync_data` for every member that
//!   appended (a started `rbay_core::Pack` flushes once per tick and on
//!   leaving); [`FsyncPolicy::Never`] leaves it to the page cache, which a
//!   process kill does not lose.
//!
//! The crate is deliberately ignorant of `rbay-core`: it persists raw
//! query ids (`u64`) and AA source text (`String`), and the host replays
//! them through its own install paths — so recovered handler sources are
//! re-linted under the *current* `LintPolicy` on restore, not the policy
//! that admitted them originally.

mod record;
mod store;
mod wal;

pub use record::{DurableState, StoreStats, WalRecord};
pub use store::{FsyncPolicy, ReplayReport, Store};
pub use wal::{crc32, frame_record, replay, TornReason, WalScan, RECORD_HEADER_LEN};
