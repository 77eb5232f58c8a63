//! The durable store: a live `(snapshot, wal)` generation pair under one
//! data directory, compacted by threshold and switched atomically.
//!
//! Directory layout:
//!
//! ```text
//! <dir>/MANIFEST            text, replaced by atomic rename
//! <dir>/snapshot-<gen>.snap one framed DurableState image (absent at gen 0)
//! <dir>/wal-<gen>.log       framed WalRecords appended since the snapshot
//! ```
//!
//! The manifest commits a generation: a crash before the rename leaves the
//! old pair live and the half-written new files orphaned (deleted on the
//! next successful compaction); a crash after leaves the new pair live.
//! Orphans are harmless — open only reads what the manifest names.

use crate::record::{DurableState, StoreStats, WalRecord};
use crate::wal::{self, frame_record};
use rbay_wire::{decode_frame, encode_frame};
use std::fs::{self, File, OpenOptions};
use std::io::{Read, Seek, SeekFrom, Write};
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
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct ReplayReport {
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
}

/// Compact once the live WAL holds this many records…
const SNAPSHOT_RECORDS: u64 = 4096;
/// …or this many bytes, whichever comes first.
const SNAPSHOT_BYTES: u64 = 4 * 1024 * 1024;

/// The durability engine one host owns. All methods return `io::Error`
/// only for environmental failures (disk full, permissions); corrupt or
/// torn *contents* are always recovered, never errors.
#[derive(Debug)]
pub struct Store {
    dir: PathBuf,
    fsync: FsyncPolicy,
    gen: u64,
    wal: File,
    state: DurableState,
    stats: StoreStats,
    snapshot_records: u64,
    snapshot_bytes: u64,
    dirty: bool,
    buf: Vec<u8>,
}

fn wal_name(gen: u64) -> String {
    format!("wal-{gen}.log")
}

fn snap_name(gen: u64) -> String {
    format!("snapshot-{gen}.snap")
}

fn sync_dir(dir: &Path) {
    // Directory fsync makes the rename itself durable; failure here is
    // not actionable (some filesystems refuse it), so best effort.
    if let Ok(d) = File::open(dir) {
        let _ = d.sync_all();
    }
}

impl Store {
    /// Opens (or initializes) the store under `dir`: reads the manifest,
    /// loads the snapshot it names, replays the WAL, truncates any torn
    /// tail, and leaves the WAL open for append.
    pub fn open(dir: &Path, fsync: FsyncPolicy) -> std::io::Result<(Store, ReplayReport)> {
        fs::create_dir_all(dir)?;
        let started = Instant::now();
        let mut report = ReplayReport::default();
        let (gen, snap_file) = read_manifest(dir);
        let mut state = DurableState::default();
        if let Some(name) = &snap_file {
            match load_snapshot(&dir.join(name)) {
                Some(s) => {
                    state = s;
                    report.snapshot_loaded = true;
                }
                None => report.snapshot_corrupt = true,
            }
        }
        let wal_path = dir.join(wal_name(gen));
        let mut wal = OpenOptions::new()
            .read(true)
            .write(true)
            .create(true)
            .truncate(false)
            .open(&wal_path)?;
        let mut bytes = Vec::new();
        wal.read_to_end(&mut bytes)?;
        let mut records = 0u64;
        let scan = wal::replay(&bytes, |rec| {
            state.apply(&rec);
            records += 1;
        });
        if scan.valid_bytes < bytes.len() {
            report.torn_bytes = (bytes.len() - scan.valid_bytes) as u64;
            wal.set_len(scan.valid_bytes as u64)?;
        }
        wal.seek(SeekFrom::Start(scan.valid_bytes as u64))?;
        report.wal_records = records;
        report.replay_micros = started.elapsed().as_micros() as u64;
        let store = Store {
            dir: dir.to_path_buf(),
            fsync,
            gen,
            wal,
            state,
            stats: StoreStats {
                replay_records: records,
                replay_micros: report.replay_micros,
                wal_bytes: scan.valid_bytes as u64,
                wal_records: records,
                ..StoreStats::default()
            },
            snapshot_records: SNAPSHOT_RECORDS,
            snapshot_bytes: SNAPSHOT_BYTES,
            dirty: false,
            buf: Vec::with_capacity(256),
        };
        // A fresh directory gets its manifest immediately so a crash
        // between first append and first compaction still names the WAL.
        if !dir.join("MANIFEST").exists() {
            store.write_manifest()?;
        }
        Ok((store, report))
    }

    /// The recovered (and continuously maintained) state image.
    pub fn state(&self) -> &DurableState {
        &self.state
    }

    /// Store health counters.
    pub fn stats(&self) -> StoreStats {
        self.stats
    }

    /// Bumps the restore-time re-lint rejection counter (owned by the
    /// host, surfaced with the rest of the store stats).
    pub fn note_relint_reject(&mut self) {
        self.stats.relint_rejects += 1;
    }

    /// Overrides the compaction thresholds (tests use tiny ones).
    pub fn set_snapshot_thresholds(&mut self, records: u64, bytes: u64) {
        self.snapshot_records = records.max(1);
        self.snapshot_bytes = bytes.max(1);
    }

    /// Appends one record — unless it would not change state, in which
    /// case it is skipped (returns `Ok(false)`). The record is on disk
    /// (modulo fsync policy) before this returns, i.e. before the caller
    /// acknowledges the mutation. May trigger a snapshot compaction.
    pub fn append(&mut self, rec: &WalRecord) -> std::io::Result<bool> {
        if self.state.is_noop(rec) {
            self.stats.dedup_skips += 1;
            return Ok(false);
        }
        self.buf.clear();
        frame_record(&mut self.buf, rec);
        self.wal.write_all(&self.buf)?;
        self.stats.wal_bytes += self.buf.len() as u64;
        self.stats.wal_records += 1;
        self.stats.appends += 1;
        match self.fsync {
            FsyncPolicy::Always => self.wal.sync_data()?,
            FsyncPolicy::Batch => self.dirty = true,
            FsyncPolicy::Never => {}
        }
        self.state.apply(rec);
        if self.stats.wal_records >= self.snapshot_records
            || self.stats.wal_bytes >= self.snapshot_bytes
        {
            self.snapshot()?;
        }
        Ok(true)
    }

    /// Syncs any unsynced appends (a no-op under `Always`/`Never` or when
    /// nothing is pending).
    pub fn flush(&mut self) -> std::io::Result<()> {
        if self.dirty && self.fsync == FsyncPolicy::Batch {
            self.wal.sync_data()?;
            self.dirty = false;
        }
        Ok(())
    }

    /// Takes a snapshot now: writes the full state image to a new
    /// generation, commits it via the manifest, starts an empty WAL, and
    /// deletes the previous generation's files.
    pub fn snapshot(&mut self) -> std::io::Result<()> {
        let old_gen = self.gen;
        let new_gen = self.gen + 1;
        // 1. Snapshot image: tmp + fsync + rename.
        let snap_path = self.dir.join(snap_name(new_gen));
        let tmp_path = self.dir.join(format!("{}.tmp", snap_name(new_gen)));
        {
            let framed = encode_frame(&self.state);
            let mut image = Vec::with_capacity(framed.len() + wal::RECORD_HEADER_LEN);
            image.extend_from_slice(&(framed.len() as u32).to_le_bytes());
            image.extend_from_slice(&wal::crc32(&framed).to_le_bytes());
            image.extend_from_slice(&framed);
            let mut f = File::create(&tmp_path)?;
            f.write_all(&image)?;
            if self.fsync != FsyncPolicy::Never {
                f.sync_all()?;
            }
        }
        fs::rename(&tmp_path, &snap_path)?;
        // 2. Fresh WAL for the new generation.
        let new_wal_path = self.dir.join(wal_name(new_gen));
        let new_wal = OpenOptions::new()
            .read(true)
            .write(true)
            .create(true)
            .truncate(true)
            .open(&new_wal_path)?;
        // 3. Commit: the manifest rename flips both files at once.
        self.gen = new_gen;
        self.wal = new_wal;
        self.dirty = false;
        self.stats.wal_bytes = 0;
        self.stats.wal_records = 0;
        self.stats.snapshots += 1;
        self.write_manifest()?;
        // 4. Old generation is dead; reclaim (best effort).
        let _ = fs::remove_file(self.dir.join(wal_name(old_gen)));
        if old_gen > 0 {
            let _ = fs::remove_file(self.dir.join(snap_name(old_gen)));
        }
        Ok(())
    }

    fn write_manifest(&self) -> std::io::Result<()> {
        let tmp = self.dir.join("MANIFEST.tmp");
        let snap = if self.gen == 0 {
            "-".to_owned()
        } else {
            snap_name(self.gen)
        };
        let text = format!(
            "rbay-store v1\ngen={}\nsnapshot={}\nwal={}\n",
            self.gen,
            snap,
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

/// Reads `(gen, snapshot file)` from the manifest; a missing or corrupt
/// manifest means generation 0 with no snapshot (a fresh store — atomic
/// manifest replacement guarantees we never see a half-written one).
fn read_manifest(dir: &Path) -> (u64, Option<String>) {
    let Ok(text) = fs::read_to_string(dir.join("MANIFEST")) else {
        return (0, None);
    };
    let mut gen = 0u64;
    let mut snap = None;
    let mut ok = false;
    for (i, line) in text.lines().enumerate() {
        if i == 0 {
            ok = line == "rbay-store v1";
            if !ok {
                break;
            }
            continue;
        }
        if let Some(v) = line.strip_prefix("gen=") {
            gen = v.parse().unwrap_or(0);
        } else if let Some(v) = line.strip_prefix("snapshot=") {
            if v != "-" {
                snap = Some(v.to_owned());
            }
        }
    }
    if ok {
        (gen, snap)
    } else {
        (0, None)
    }
}

/// Loads and validates one snapshot image; `None` on any corruption.
fn load_snapshot(path: &Path) -> Option<DurableState> {
    let bytes = fs::read(path).ok()?;
    if bytes.len() < wal::RECORD_HEADER_LEN {
        return None;
    }
    let len = u32::from_le_bytes(bytes[0..4].try_into().unwrap()) as usize;
    let crc = u32::from_le_bytes(bytes[4..8].try_into().unwrap());
    if len != bytes.len() - wal::RECORD_HEADER_LEN {
        return None;
    }
    let body = &bytes[wal::RECORD_HEADER_LEN..];
    if wal::crc32(body) != crc {
        return None;
    }
    decode_frame::<DurableState>(body).ok()
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

    #[test]
    fn reopen_recovers_state() {
        let dir = tmp_dir("reopen");
        {
            let (mut s, _) = Store::open(&dir, FsyncPolicy::Never).unwrap();
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
        }
        let (s, report) = Store::open(&dir, FsyncPolicy::Never).unwrap();
        assert_eq!(report.wal_records, 4);
        assert_eq!(s.state().attrs.get("a1"), Some(&AttrValue::Num(1.0)));
        assert_eq!(s.state().node_aa.as_deref(), Some("AA = {}"));
        assert_eq!(s.state().subs.len(), 1);
        assert!(s.state().committed.contains(&42));
        assert_eq!(s.state().reserved, Some(42));
        fs::remove_dir_all(&dir).unwrap();
    }

    #[test]
    fn dedup_skips_noop_appends() {
        let dir = tmp_dir("dedup");
        let (mut s, _) = Store::open(&dir, FsyncPolicy::Never).unwrap();
        assert!(s.append(&put(1)).unwrap());
        assert!(!s.append(&put(1)).unwrap());
        assert_eq!(s.stats().appends, 1);
        assert_eq!(s.stats().dedup_skips, 1);
        fs::remove_dir_all(&dir).unwrap();
    }

    #[test]
    fn compaction_switches_generation_and_survives_reopen() {
        let dir = tmp_dir("compact");
        {
            let (mut s, _) = Store::open(&dir, FsyncPolicy::Never).unwrap();
            s.set_snapshot_thresholds(10, u64::MAX);
            for i in 0..25 {
                s.append(&put(i)).unwrap();
            }
            assert!(s.stats().snapshots >= 2);
            // Only the live generation's files remain (plus the manifest).
            let files: Vec<String> = fs::read_dir(&dir)
                .unwrap()
                .map(|e| e.unwrap().file_name().into_string().unwrap())
                .collect();
            assert_eq!(files.len(), 3, "stale generations not reclaimed: {files:?}");
        }
        let (s, report) = Store::open(&dir, FsyncPolicy::Never).unwrap();
        assert!(report.snapshot_loaded);
        assert_eq!(s.state().attrs.len(), 25);
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
            let (mut s, report) = Store::open(&dir, FsyncPolicy::Never).unwrap();
            assert_eq!(report.wal_records, 2);
            assert!(report.torn_bytes > 0);
            assert_eq!(s.state().attrs.len(), 2);
            // New appends after the truncation point replay cleanly.
            s.append(&put(9)).unwrap();
        }
        let (s, report) = Store::open(&dir, FsyncPolicy::Never).unwrap();
        assert_eq!(report.wal_records, 3);
        assert_eq!(s.state().attrs.get("a9"), Some(&AttrValue::Num(9.0)));
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
}
