//! The durable store: a live `(snapshot, wal)` generation pair under one
//! data directory, compacted by threshold and switched atomically. One
//! store serves every member of a pack: each record names its member.
//!
//! Directory layout:
//!
//! ```text
//! <dir>/MANIFEST            text, replaced by atomic rename
//! <dir>/snapshot-<gen>.snap one framed image, member → DurableState (absent at gen 0)
//! <dir>/wal-<gen>.log       framed (member, WalRecord)s appended since the snapshot
//! ```
//!
//! The manifest commits a generation: a crash before the rename leaves the
//! old pair live and the half-written new files orphaned (deleted on the
//! next successful compaction); a crash after leaves the new pair live.
//! Orphans are harmless — open only reads what the manifest names.
//!
//! The store holds no state image. Open folds the live generation once
//! and hands each member its state ([`ReplayReport::members`]); compaction
//! folds the generation it replaces the same way, from disk.

use crate::record::{DurableState, StoreStats, WalRecord};
use crate::wal::{self, frame_record};
use rbay_wire::{decode_frame_as, Wire};
use simnet::NodeAddr;
use std::collections::BTreeMap;
use std::fs::{self, File, OpenOptions};
use std::io::{self, Read, Seek, SeekFrom, Write};
use std::path::{Path, PathBuf};
use std::time::Instant;

/// When appended records reach disk.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum FsyncPolicy {
    /// `fdatasync` after every append: no acknowledged record is ever
    /// lost, at the cost of one sync per mutation.
    Always,
    /// Sync only on explicit [`Store::flush`] calls; the daemon flushes
    /// once per tick and on shutdown, bounding loss to one tick.
    Batch,
    /// Never sync (tests and throwaway runs).
    Never,
}

impl FsyncPolicy {
    /// Parses a `--fsync` flag value.
    pub fn parse(s: &str) -> Option<FsyncPolicy> {
        match s {
            "always" => Some(FsyncPolicy::Always),
            "batch" => Some(FsyncPolicy::Batch),
            "never" => Some(FsyncPolicy::Never),
            _ => None,
        }
    }
}

/// What [`Store::open`] found and recovered.
#[derive(Debug, Default)]
pub struct ReplayReport {
    /// Whether the directory held no store before this open — no
    /// manifest — so the open created one.
    pub fresh: bool,
    /// Whether a snapshot file was loaded.
    pub snapshot_loaded: bool,
    /// Whether a named snapshot failed validation and was discarded (the
    /// store then recovers from the WAL alone — best effort, never fatal).
    pub snapshot_corrupt: bool,
    /// WAL records replayed.
    pub wal_records: u64,
    /// Bytes of torn/corrupt WAL tail discarded (file truncated to the
    /// valid prefix).
    pub torn_bytes: u64,
    /// Wall-clock microseconds spent loading snapshot + WAL.
    pub replay_micros: u64,
    /// Each member's recovered state; a member with no record is absent.
    pub members: BTreeMap<NodeAddr, DurableState>,
}

/// Compact once the live WAL holds this many records…
const SNAPSHOT_RECORDS: u64 = 4096;
/// …or this many bytes, whichever comes first.
const SNAPSHOT_BYTES: u64 = 4 * 1024 * 1024;

/// The first line of every manifest this build writes and reads.
const MANIFEST_HEADER: &str = "rbay-store v2";

/// The durability engine one pack owns. All methods return `io::Error`
/// only for environmental failures (disk full, permissions) and for a
/// directory in a format this build does not read; corrupt or torn
/// *contents* are always recovered, never errors.
#[derive(Debug)]
pub struct Store {
    dir: PathBuf,
    fsync: FsyncPolicy,
    gen: u64,
    wal: File,
    stats: StoreStats,
    /// `sync_data` calls on the WAL so far.
    syncs: u64,
    snapshot_records: u64,
    snapshot_bytes: u64,
    /// Whether the live generation's snapshot holds state a fold must
    /// load: it loaded at open, or this store wrote it. One that open
    /// discarded as corrupt is not expected to load again.
    snapshot_live: bool,
    dirty: bool,
    buf: Vec<u8>,
}

fn wal_name(gen: u64) -> String {
    format!("wal-{gen}.log")
}

/// Generation `gen`'s snapshot file; generation 0 has none.
fn snap_name(gen: u64) -> Option<String> {
    (gen > 0).then(|| format!("snapshot-{gen}.snap"))
}

fn sync_dir(dir: &Path) {
    // Directory fsync makes the rename itself durable; failure here is
    // not actionable (some filesystems refuse it), so best effort.
    if let Ok(d) = File::open(dir) {
        let _ = d.sync_all();
    }
}

/// The error refusing `path`, a store this build does not read.
fn refuse(path: &Path, found: &str) -> io::Error {
    io::Error::new(
        io::ErrorKind::InvalidData,
        format!(
            "{} holds {found}; this build reads only `{MANIFEST_HEADER}` stores",
            path.display()
        ),
    )
}

impl Store {
    /// Opens (or initializes) the store under `dir`: reads the manifest,
    /// folds the snapshot it names and the WAL into each member's state,
    /// truncates any torn tail, and leaves the WAL open for append.
    /// Refuses, without reading or writing it, a store of an earlier
    /// format (a version-1 manifest).
    pub fn open(dir: &Path, fsync: FsyncPolicy) -> io::Result<(Store, ReplayReport)> {
        fs::create_dir_all(dir)?;
        let started = Instant::now();
        let gen = read_manifest(dir)?;
        let mut report = ReplayReport {
            fresh: gen.is_none(),
            ..ReplayReport::default()
        };
        let gen = gen.unwrap_or(0);
        let mut wal = OpenOptions::new()
            .read(true)
            .write(true)
            .create(true)
            .truncate(false)
            .open(dir.join(wal_name(gen)))?;
        let mut bytes = Vec::new();
        wal.read_to_end(&mut bytes)?;
        let valid = fold(dir, gen, &bytes, &mut report);
        if valid < bytes.len() {
            report.torn_bytes = (bytes.len() - valid) as u64;
            wal.set_len(valid as u64)?;
        }
        wal.seek(SeekFrom::Start(valid as u64))?;
        report.replay_micros = started.elapsed().as_micros() as u64;
        let store = Store {
            dir: dir.to_path_buf(),
            fsync,
            gen,
            wal,
            stats: StoreStats {
                replay_records: report.wal_records,
                replay_micros: report.replay_micros,
                wal_bytes: valid as u64,
                wal_records: report.wal_records,
                ..StoreStats::default()
            },
            syncs: 0,
            snapshot_records: SNAPSHOT_RECORDS,
            snapshot_bytes: SNAPSHOT_BYTES,
            snapshot_live: report.snapshot_loaded,
            dirty: false,
            buf: Vec::with_capacity(256),
        };
        // A fresh directory gets its manifest immediately so a crash
        // between first append and first compaction still names the WAL.
        if report.fresh {
            store.write_manifest()?;
        }
        Ok((store, report))
    }

    /// Store health counters.
    pub fn stats(&self) -> StoreStats {
        self.stats
    }

    /// `sync_data` calls on the WAL so far.
    pub fn wal_syncs(&self) -> u64 {
        self.syncs
    }

    /// Overrides the compaction thresholds (tests use tiny ones).
    pub fn set_snapshot_thresholds(&mut self, records: u64, bytes: u64) {
        self.snapshot_records = records.max(1);
        self.snapshot_bytes = bytes.max(1);
    }

    /// Appends one record of member `NodeAddr(0)`: [`Store::append_for`]
    /// for a store with one member.
    pub fn append(&mut self, rec: &WalRecord) -> io::Result<()> {
        self.append_for(NodeAddr(0), rec)
    }

    /// Appends one record of `member`'s. The record is on disk (modulo
    /// fsync policy) before this returns, i.e. before the caller
    /// acknowledges the mutation. May trigger a snapshot compaction.
    pub fn append_for(&mut self, member: NodeAddr, rec: &WalRecord) -> io::Result<()> {
        self.buf.clear();
        frame_record(&mut self.buf, member, rec);
        self.wal.write_all(&self.buf)?;
        self.stats.wal_bytes += self.buf.len() as u64;
        self.stats.wal_records += 1;
        self.stats.appends += 1;
        match self.fsync {
            FsyncPolicy::Always => self.sync()?,
            FsyncPolicy::Batch => self.dirty = true,
            FsyncPolicy::Never => {}
        }
        if self.stats.wal_records >= self.snapshot_records
            || self.stats.wal_bytes >= self.snapshot_bytes
        {
            self.snapshot()?;
        }
        Ok(())
    }

    /// Syncs any unsynced appends: one `sync_data` however many members
    /// appended (a no-op under `Always`/`Never` or when nothing is
    /// pending).
    pub fn flush(&mut self) -> io::Result<()> {
        if self.dirty && self.fsync == FsyncPolicy::Batch {
            self.sync()?;
            self.dirty = false;
        }
        Ok(())
    }

    fn sync(&mut self) -> io::Result<()> {
        self.syncs += 1;
        self.wal.sync_data()
    }

    /// Takes a snapshot now: folds the live generation from disk into a
    /// new generation's image, commits it via the manifest, starts an
    /// empty WAL, and deletes the previous generation's files. A fold
    /// that comes back short — the live snapshot does not load though it
    /// did at open, or the WAL no longer reads to its end — is an error,
    /// and the live generation is kept: replacing it would drop state.
    pub fn snapshot(&mut self) -> io::Result<()> {
        let old_gen = self.gen;
        let new_gen = self.gen + 1;
        let snap = snap_name(new_gen).expect("a generation after 0");
        // 1. Snapshot image: fold, then tmp + fsync + rename.
        let mut live = ReplayReport::default();
        let wal_bytes = fs::read(self.dir.join(wal_name(old_gen)))?;
        let valid = fold(&self.dir, old_gen, &wal_bytes, &mut live);
        if (self.snapshot_live && !live.snapshot_loaded) || valid < wal_bytes.len() {
            return Err(io::Error::new(
                io::ErrorKind::InvalidData,
                format!(
                    "generation {old_gen} in {} no longer reads whole; kept, not compacted",
                    self.dir.display()
                ),
            ));
        }
        let tmp_path = self.dir.join(format!("{snap}.tmp"));
        {
            let mut image = Vec::new();
            wal::frame(&mut image, |body| live.members.encode_into(body));
            let mut f = File::create(&tmp_path)?;
            f.write_all(&image)?;
            if self.fsync != FsyncPolicy::Never {
                f.sync_all()?;
            }
        }
        fs::rename(&tmp_path, self.dir.join(&snap))?;
        // 2. Fresh WAL for the new generation.
        let new_wal = OpenOptions::new()
            .read(true)
            .write(true)
            .create(true)
            .truncate(true)
            .open(self.dir.join(wal_name(new_gen)))?;
        // 3. Commit: the manifest rename flips both files at once.
        self.gen = new_gen;
        self.wal = new_wal;
        self.snapshot_live = true;
        self.dirty = false;
        self.stats.wal_bytes = 0;
        self.stats.wal_records = 0;
        self.stats.snapshots += 1;
        self.write_manifest()?;
        // 4. Old generation is dead; reclaim (best effort).
        let _ = fs::remove_file(self.dir.join(wal_name(old_gen)));
        if let Some(old) = snap_name(old_gen) {
            let _ = fs::remove_file(self.dir.join(old));
        }
        Ok(())
    }

    fn write_manifest(&self) -> io::Result<()> {
        let tmp = self.dir.join("MANIFEST.tmp");
        let text = format!(
            "{MANIFEST_HEADER}\ngen={}\nsnapshot={}\nwal={}\n",
            self.gen,
            snap_name(self.gen).as_deref().unwrap_or("-"),
            wal_name(self.gen)
        );
        {
            let mut f = File::create(&tmp)?;
            f.write_all(text.as_bytes())?;
            if self.fsync != FsyncPolicy::Never {
                f.sync_all()?;
            }
        }
        fs::rename(&tmp, self.dir.join("MANIFEST"))?;
        if self.fsync != FsyncPolicy::Never {
            sync_dir(&self.dir);
        }
        Ok(())
    }
}

/// The live generation the manifest names; `None` without a manifest (a
/// fresh store — atomic manifest replacement guarantees we never see a
/// half-written one). A manifest of another format is refused.
fn read_manifest(dir: &Path) -> io::Result<Option<u64>> {
    let path = dir.join("MANIFEST");
    let text = match fs::read_to_string(&path) {
        Ok(text) => text,
        Err(e) if e.kind() == io::ErrorKind::NotFound => return Ok(None),
        Err(e) => return Err(e),
    };
    let mut lines = text.lines();
    let header = lines.next().unwrap_or_default();
    if header != MANIFEST_HEADER {
        return Err(refuse(&path, &format!("`{header}`")));
    }
    let gen = lines.find_map(|line| line.strip_prefix("gen=")?.parse().ok());
    gen.map(Some).ok_or_else(|| refuse(&path, "no generation"))
}

/// Folds generation `gen` — its snapshot, if any, then the WAL image
/// `wal` — into `into.members`, noting whether the snapshot loaded and
/// how many records replayed; returns the length of the WAL's valid
/// prefix. Open recovers with it and compaction snapshots with it.
fn fold(dir: &Path, gen: u64, wal: &[u8], into: &mut ReplayReport) -> usize {
    if let Some(name) = snap_name(gen) {
        match load_snapshot(&dir.join(name)) {
            Some(members) => {
                into.members = members;
                into.snapshot_loaded = true;
            }
            None => into.snapshot_corrupt = true,
        }
    }
    let scan = wal::replay(wal, |member, rec| {
        into.members.entry(member).or_default().apply(&rec);
    });
    into.wal_records = scan.records;
    scan.valid_bytes
}

/// Loads and validates one snapshot image, a single frame; `None` on any
/// corruption.
fn load_snapshot(path: &Path) -> Option<BTreeMap<NodeAddr, DurableState>> {
    let bytes = fs::read(path).ok()?;
    let body = wal::body_of(&bytes, usize::MAX).ok()?;
    if wal::RECORD_HEADER_LEN + body.len() != bytes.len() {
        return None;
    }
    decode_frame_as(wal::FORMAT_VERSION, body).ok()
}

#[cfg(test)]
mod tests {
    use super::*;
    use rbay_query::AttrValue;
    use scribe::TopicId;

    fn tmp_dir(name: &str) -> PathBuf {
        let dir =
            std::env::temp_dir().join(format!("rbay-store-test-{name}-{}", std::process::id()));
        let _ = fs::remove_dir_all(&dir);
        dir
    }

    fn put(i: u64) -> WalRecord {
        WalRecord::AttrPut {
            attr: format!("a{i}"),
            value: AttrValue::Num(i as f64),
        }
    }

    /// Member `NodeAddr(0)`'s state as a reopen of `dir` recovers it.
    fn reopened(dir: &Path, fsync: FsyncPolicy) -> (DurableState, ReplayReport) {
        let (_, mut report) = Store::open(dir, fsync).unwrap();
        let state = report.members.remove(&NodeAddr(0)).unwrap_or_default();
        (state, report)
    }

    #[test]
    fn reopen_recovers_each_members_state() {
        let dir = tmp_dir("reopen");
        {
            let (mut s, report) = Store::open(&dir, FsyncPolicy::Never).unwrap();
            assert!(report.fresh);
            s.append(&put(1)).unwrap();
            s.append(&WalRecord::NodeAaInstall {
                source: "AA = {}".into(),
            })
            .unwrap();
            s.append(&WalRecord::SubAdd {
                topic: TopicId::new("cpu=idle", "creator"),
                scope: None,
            })
            .unwrap();
            s.append(&WalRecord::Commit { query: 42 }).unwrap();
            s.append_for(NodeAddr(7), &put(2)).unwrap();
        }
        let (state, report) = reopened(&dir, FsyncPolicy::Never);
        assert!(!report.fresh);
        assert_eq!(report.wal_records, 5);
        assert_eq!(state.attrs.get("a1"), Some(&AttrValue::Num(1.0)));
        assert_eq!(state.node_aa.as_deref(), Some("AA = {}"));
        assert_eq!(state.subs.len(), 1);
        assert_eq!((state.commits, state.reserved), (1, Some(42)));
        // Member 0 taken, member 7 left.
        assert_eq!(report.members.len(), 1);
        let other = &report.members[&NodeAddr(7)];
        assert_eq!(other.attrs.keys().collect::<Vec<_>>(), ["a2"]);
        fs::remove_dir_all(&dir).unwrap();
    }

    /// Whether `state` holds `a0 .. a{n-1}` and nothing else.
    fn holds_puts(state: &DurableState, n: u64) -> bool {
        state.attrs.len() as u64 == n && (0..n).all(|i| state.attrs.contains_key(&format!("a{i}")))
    }

    /// Under `Batch` an append waits for `flush`, which syncs it once
    /// however many members appended; what was appended and flushed is
    /// all there after a reopen.
    #[test]
    fn batch_appends_synced_by_one_flush_survive_a_reopen() {
        let dir = tmp_dir("batch");
        {
            let (mut s, _) = Store::open(&dir, FsyncPolicy::Batch).unwrap();
            for i in 0..3 {
                s.append_for(NodeAddr(i as u32), &put(i)).unwrap();
            }
            assert!(s.dirty, "batch appends wait for a flush");
            assert_eq!(s.wal_syncs(), 0);
            s.flush().unwrap();
            assert!(!s.dirty);
            assert_eq!(s.wal_syncs(), 1, "three members, one sync");
            s.flush().unwrap();
            assert_eq!(s.wal_syncs(), 1, "nothing pending, no sync");
        }
        let (_, report) = Store::open(&dir, FsyncPolicy::Batch).unwrap();
        assert_eq!(report.wal_records, 3);
        assert_eq!(report.members.len(), 3);
        fs::remove_dir_all(&dir).unwrap();
    }

    /// Under `Always` each append is synced before it returns: every one
    /// survives a reopen, with no `flush` ever called.
    #[test]
    fn always_appends_each_survive_a_reopen() {
        let dir = tmp_dir("always");
        for i in 0..3 {
            let (state, report) = reopened(&dir, FsyncPolicy::Always);
            assert_eq!(report.wal_records, i);
            assert!(holds_puts(&state, i));
            let (mut s, _) = Store::open(&dir, FsyncPolicy::Always).unwrap();
            s.append(&put(i)).unwrap();
            assert!(!s.dirty, "synced at the append");
            assert_eq!(s.wal_syncs(), 1);
        }
        let (state, report) = reopened(&dir, FsyncPolicy::Always);
        assert_eq!(report.wal_records, 3);
        assert!(holds_puts(&state, 3));
        fs::remove_dir_all(&dir).unwrap();
    }

    /// Outside `Batch`, `flush` has nothing to do: no append leaves work
    /// for it, and it changes nothing.
    #[test]
    fn flush_is_a_no_op_under_never_and_always() {
        for policy in [FsyncPolicy::Never, FsyncPolicy::Always] {
            let dir = tmp_dir(&format!("flush-{policy:?}"));
            let (mut s, _) = Store::open(&dir, policy).unwrap();
            for i in 0..3 {
                s.append(&put(i)).unwrap();
                assert!(!s.dirty, "{policy:?}: an append left work for flush");
                let (before, syncs) = (s.stats(), s.wal_syncs());
                s.flush().unwrap();
                assert_eq!((s.stats(), s.wal_syncs()), (before, syncs), "{policy:?}");
                assert!(!s.dirty);
            }
            drop(s);
            assert!(holds_puts(&reopened(&dir, policy).0, 3), "{policy:?}");
            fs::remove_dir_all(&dir).unwrap();
        }
    }

    /// Compaction folds the generation it replaces from disk, so what a
    /// reopen recovers is the same with or without it.
    #[test]
    fn compaction_switches_generation_and_survives_reopen() {
        let dir = tmp_dir("compact");
        {
            let (mut s, _) = Store::open(&dir, FsyncPolicy::Never).unwrap();
            s.set_snapshot_thresholds(10, u64::MAX);
            for i in 0..25 {
                s.append(&put(i)).unwrap();
                s.append_for(NodeAddr(1), &WalRecord::Commit { query: i })
                    .unwrap();
            }
            assert!(s.stats().snapshots >= 4);
            // Only the live generation's files remain (plus the manifest).
            let files: Vec<String> = fs::read_dir(&dir)
                .unwrap()
                .map(|e| e.unwrap().file_name().into_string().unwrap())
                .collect();
            assert_eq!(files.len(), 3, "stale generations not reclaimed: {files:?}");
        }
        let (state, report) = reopened(&dir, FsyncPolicy::Never);
        assert!(report.snapshot_loaded);
        assert!(holds_puts(&state, 25));
        let other = &report.members[&NodeAddr(1)];
        assert_eq!((other.commits, other.reserved), (25, Some(24)));
        fs::remove_dir_all(&dir).unwrap();
    }

    #[test]
    fn torn_tail_is_truncated_and_appendable() {
        let dir = tmp_dir("torn");
        let wal_path;
        {
            let (mut s, _) = Store::open(&dir, FsyncPolicy::Never).unwrap();
            for i in 0..3 {
                s.append(&put(i)).unwrap();
            }
            wal_path = dir.join(wal_name(0));
        }
        // Tear the last record mid-body.
        let len = fs::metadata(&wal_path).unwrap().len();
        let f = OpenOptions::new().write(true).open(&wal_path).unwrap();
        f.set_len(len - 5).unwrap();
        drop(f);
        {
            let (mut s, mut report) = Store::open(&dir, FsyncPolicy::Never).unwrap();
            assert_eq!(report.wal_records, 2);
            assert!(report.torn_bytes > 0);
            assert!(holds_puts(&report.members.remove(&NodeAddr(0)).unwrap(), 2));
            // New appends after the truncation point replay cleanly.
            s.append(&put(9)).unwrap();
        }
        let (state, report) = reopened(&dir, FsyncPolicy::Never);
        assert_eq!(report.wal_records, 3);
        assert_eq!(state.attrs.get("a9"), Some(&AttrValue::Num(9.0)));
        fs::remove_dir_all(&dir).unwrap();
    }

    #[test]
    fn corrupt_snapshot_is_discarded_not_fatal() {
        let dir = tmp_dir("corrupt-snap");
        {
            let (mut s, _) = Store::open(&dir, FsyncPolicy::Never).unwrap();
            s.set_snapshot_thresholds(2, u64::MAX);
            for i in 0..4 {
                s.append(&put(i)).unwrap();
            }
            assert!(s.stats().snapshots >= 1);
        }
        // Flip a byte in the live snapshot.
        let snap: PathBuf = fs::read_dir(&dir)
            .unwrap()
            .map(|e| e.unwrap().path())
            .find(|p| p.extension().is_some_and(|e| e == "snap"))
            .unwrap();
        let mut bytes = fs::read(&snap).unwrap();
        let mid = bytes.len() / 2;
        bytes[mid] ^= 0xff;
        fs::write(&snap, &bytes).unwrap();
        let (_, report) = Store::open(&dir, FsyncPolicy::Never).unwrap();
        assert!(report.snapshot_corrupt);
        assert!(!report.snapshot_loaded);
        fs::remove_dir_all(&dir).unwrap();
    }

    /// A compaction whose fold comes back short keeps the live
    /// generation: a snapshot that cannot be read at compaction time (as
    /// under a transient read error), or a WAL that no longer reads to
    /// its end, is an error, not a new snapshot without that state.
    #[test]
    fn a_short_fold_fails_compaction_and_keeps_the_generation() {
        let dir = tmp_dir("short-fold");
        {
            let (mut s, _) = Store::open(&dir, FsyncPolicy::Never).unwrap();
            s.append(&put(0)).unwrap();
            s.snapshot().unwrap();
            s.append(&put(1)).unwrap();
        }
        let snap = dir.join(snap_name(1).unwrap());
        let aside = dir.join("aside");
        {
            let (mut s, _) = Store::open(&dir, FsyncPolicy::Never).unwrap();
            fs::rename(&snap, &aside).unwrap();
            assert!(s.snapshot().is_err(), "snapshot unreadable");
            fs::rename(&aside, &snap).unwrap();
            // A record torn after open: the fold stops short of the WAL.
            let mut wal = OpenOptions::new()
                .append(true)
                .open(dir.join(wal_name(1)))
                .unwrap();
            wal.write_all(&[0xff; 7]).unwrap();
            assert!(s.snapshot().is_err(), "WAL does not read whole");
            assert_eq!(s.stats().snapshots, 0);
        }
        let (state, report) = reopened(&dir, FsyncPolicy::Never);
        assert!(report.snapshot_loaded);
        assert!(holds_puts(&state, 2), "{state:?}");
        fs::remove_dir_all(&dir).unwrap();
    }

    /// A path that cannot hold a directory fails the open.
    #[test]
    fn a_regular_file_is_refused() {
        let file = tmp_dir("regular-file");
        fs::write(&file, b"not a directory").unwrap();
        assert!(Store::open(&file, FsyncPolicy::Never).is_err());
        fs::remove_file(&file).unwrap();
    }
}
