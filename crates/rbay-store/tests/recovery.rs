//! Crash-recovery property tests for the WAL (mirrors the PR-6 frame-run
//! proptests): a WAL image mutilated by truncation, a bit flip, or a
//! garbage suffix must still yield every intact prefix record, and the
//! replayer must never panic on any input. Then the golden bytes that
//! freeze the on-disk format: a WAL, a snapshot and a manifest written by
//! an earlier build must keep opening.

use proptest::collection::vec;
use proptest::prelude::*;
use proptest::TestRng;
use rbay_query::AttrValue;
use rbay_store::{frame_record, replay, DurableState, FsyncPolicy, Store, StoreStats, WalRecord};
use rbay_wire::{assert_tags_covered, Reader, Wire};
use scribe::TopicId;
use simnet::SiteId;

fn s_string() -> impl Strategy<Value = String> {
    vec(0usize..6, 0..10).prop_map(|ix| {
        ix.into_iter()
            .map(|i| ['a', 'Z', '0', '_', 'Ω', '界'][i])
            .collect()
    })
}

fn s_attr_value() -> BoxedStrategy<AttrValue> {
    prop_oneof![
        any::<bool>().prop_map(AttrValue::Bool),
        any::<f64>().prop_map(AttrValue::Num),
        s_string().prop_map(AttrValue::Str),
    ]
    .boxed()
}

fn s_record() -> BoxedStrategy<WalRecord> {
    fn s_topic() -> BoxedStrategy<TopicId> {
        (s_string(), s_string())
            .prop_map(|(n, c)| TopicId::new(&n, &c))
            .boxed()
    }
    let scope = prop_oneof![Just(None), any::<u16>().prop_map(|s| Some(SiteId(s % 8))),];
    prop_oneof![
        (s_string(), s_attr_value()).prop_map(|(attr, value)| WalRecord::AttrPut { attr, value }),
        s_string().prop_map(|attr| WalRecord::AttrDel { attr }),
        s_string().prop_map(|source| WalRecord::NodeAaInstall { source }),
        Just(WalRecord::NodeAaUninstall),
        (s_string(), s_string())
            .prop_map(|(attr, source)| WalRecord::AttrAaInstall { attr, source }),
        s_string().prop_map(|attr| WalRecord::AttrAaUninstall { attr }),
        (s_topic(), scope).prop_map(|(topic, scope)| WalRecord::SubAdd { topic, scope }),
        s_topic().prop_map(|topic| WalRecord::SubRemove { topic }),
        any::<u64>().prop_map(|query| WalRecord::Commit { query }),
        any::<u64>().prop_map(|query| WalRecord::Release { query }),
    ]
    .boxed()
}

/// Every declared `WalRecord` tag comes out of `s_record` (and the tag
/// table is unique and dense from 0): a variant added to the declaration
/// but not to the strategy fails here.
#[test]
fn strategy_covers_every_declared_tag() {
    let mut rng = TestRng::seed_for("strategy_covers_every_declared_tag");
    let s = s_record();
    assert_tags_covered((0..1024).map(|_| s.gen_value(&mut rng)));
}

/// Frames `recs` into one WAL image, returning the image and each
/// record's end offset.
fn image_of(recs: &[WalRecord]) -> (Vec<u8>, Vec<usize>) {
    let mut buf = Vec::new();
    let mut ends = Vec::new();
    for r in recs {
        frame_record(&mut buf, r);
        ends.push(buf.len());
    }
    (buf, ends)
}

/// How many of `ends` lie fully within the first `cut` bytes.
fn intact_prefix(ends: &[usize], cut: usize) -> usize {
    ends.iter().take_while(|&&e| e <= cut).count()
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(192))]

    /// Truncation at any byte offset recovers exactly the records whose
    /// frames fit entirely before the cut.
    #[test]
    fn truncation_recovers_every_intact_prefix_record(
        recs in vec(s_record(), 1..12),
        cut_seed in any::<u64>(),
    ) {
        let (buf, ends) = image_of(&recs);
        let cut = (cut_seed as usize) % (buf.len() + 1);
        let expect = intact_prefix(&ends, cut);
        let mut out = Vec::new();
        let scan = replay(&buf[..cut], |r| out.push(r));
        prop_assert_eq!(&out[..], &recs[..expect]);
        prop_assert_eq!(scan.records as usize, expect);
        // The valid prefix ends exactly at the last intact record.
        let valid_end = if expect == 0 { 0 } else { ends[expect - 1] };
        prop_assert_eq!(scan.valid_bytes, valid_end);
        prop_assert_eq!(scan.torn.is_some(), cut != valid_end);
    }

    /// A single flipped bit anywhere in the image never panics, and every
    /// record that ends before the flipped byte is recovered intact.
    #[test]
    fn bit_flip_preserves_records_before_the_flip(
        recs in vec(s_record(), 1..12),
        pos_seed in any::<u64>(),
        bit in 0u8..8,
    ) {
        let (mut buf, ends) = image_of(&recs);
        let pos = (pos_seed as usize) % buf.len();
        buf[pos] ^= 1 << bit;
        let before_flip = intact_prefix(&ends, pos);
        let mut out = Vec::new();
        let _ = replay(&buf, |r| out.push(r));
        prop_assert!(out.len() >= before_flip);
        prop_assert_eq!(&out[..before_flip], &recs[..before_flip]);
    }

    /// A garbage suffix after a valid image never hides or corrupts the
    /// real records; replay yields all of them, then stops.
    #[test]
    fn garbage_suffix_recovers_all_records(
        recs in vec(s_record(), 1..12),
        garbage in vec(any::<u8>(), 1..64),
    ) {
        let (mut buf, _) = image_of(&recs);
        let n = recs.len();
        buf.extend_from_slice(&garbage);
        let mut out = Vec::new();
        let _ = replay(&buf, |r| out.push(r));
        prop_assert!(out.len() >= n);
        prop_assert_eq!(&out[..n], &recs[..]);
    }

    /// Pure garbage (no valid image at all) never panics the replayer.
    #[test]
    fn random_bytes_never_panic(bytes in vec(any::<u8>(), 0..128)) {
        let _ = replay(&bytes, |_| {});
    }
}

/// Replaying a 100k-record WAL must complete well under the 1 s budget
/// the acceptance criteria set for the bench box. The hard assertion only
/// runs for optimized builds — debug-build codec throughput is not what
/// the budget describes.
#[test]
fn replay_100k_records_under_one_second() {
    let dir = std::env::temp_dir().join(format!("rbay-store-replay100k-{}", std::process::id()));
    let _ = std::fs::remove_dir_all(&dir);
    {
        let (mut s, _) = Store::open(&dir, FsyncPolicy::Never).unwrap();
        // Keep every record live (distinct attrs) and hold compaction off
        // so the reopen replays the full 100k from the WAL.
        s.set_snapshot_thresholds(u64::MAX, u64::MAX);
        for i in 0..100_000u64 {
            s.append(&WalRecord::AttrPut {
                attr: format!("attr-{i}"),
                value: AttrValue::Num(i as f64),
            })
            .unwrap();
        }
    }
    let started = std::time::Instant::now();
    let (s, report) = Store::open(&dir, FsyncPolicy::Never).unwrap();
    let elapsed = started.elapsed();
    assert_eq!(report.wal_records, 100_000);
    assert_eq!(s.state().attrs.len(), 100_000);
    eprintln!("replay of 100k records: {elapsed:?}");
    if !cfg!(debug_assertions) {
        assert!(
            elapsed.as_millis() < 1_000,
            "100k-record replay took {elapsed:?} (budget 1s)"
        );
    }
    std::fs::remove_dir_all(&dir).unwrap();
}

// ---------------------------------------------------------------------------
// Golden bytes: the on-disk format is frozen
// ---------------------------------------------------------------------------
//
// Generated at the commit before the codec became declarative. A WAL or
// snapshot written by any earlier build must keep replaying, so these
// vectors are never edited to make a change pass.

fn hex(bytes: &[u8]) -> String {
    bytes.iter().map(|b| format!("{b:02x}")).collect()
}

fn unhex(hex: &str) -> Vec<u8> {
    (0..hex.len() / 2)
        .map(|i| u8::from_str_radix(&hex[2 * i..2 * i + 2], 16).unwrap())
        .collect()
}

fn topic(name: &str) -> TopicId {
    TopicId::new(name, "rbay")
}

/// Appended before the snapshot, so the image has every field populated.
fn golden_prelude() -> Vec<WalRecord> {
    let put = |attr: &str, value| WalRecord::AttrPut {
        attr: attr.into(),
        value,
    };
    vec![
        put("GPU", AttrValue::Bool(true)),
        put("CPU", AttrValue::Num(12.5)),
        put("type", AttrValue::Str("m5".into())),
        WalRecord::NodeAaInstall {
            source: "AA = {}".into(),
        },
        WalRecord::AttrAaInstall {
            attr: "GPU".into(),
            source: "AA = { onGet = function() return true end }".into(),
        },
        WalRecord::SubAdd {
            topic: topic("GPU=true"),
            scope: Some(SiteId(2)),
        },
        WalRecord::SubAdd {
            topic: topic("rack"),
            scope: None,
        },
        WalRecord::Commit { query: 7 },
        WalRecord::Commit { query: 300 },
    ]
}

/// One record per `WalRecord` variant in tag order, each a real change to
/// the prelude's state (the store skips no-op appends).
fn golden_records() -> Vec<WalRecord> {
    vec![
        WalRecord::AttrPut {
            attr: "mem".into(),
            value: AttrValue::Num(64.0),
        },
        WalRecord::AttrDel { attr: "CPU".into() },
        WalRecord::NodeAaInstall {
            source: "AA = { onGet = nil }".into(),
        },
        WalRecord::NodeAaUninstall,
        WalRecord::AttrAaInstall {
            attr: "mem".into(),
            source: "AA = {}".into(),
        },
        WalRecord::AttrAaUninstall { attr: "GPU".into() },
        WalRecord::SubAdd {
            topic: topic("mem>=64"),
            scope: Some(SiteId(300)),
        },
        WalRecord::SubRemove {
            topic: topic("rack"),
        },
        WalRecord::Commit { query: 1 << 40 },
        WalRecord::Release { query: 1 << 40 },
    ]
}

/// The state a store holds after the prelude, a snapshot, and the records.
fn golden_state() -> DurableState {
    let mut s = DurableState::default();
    for r in golden_prelude().iter().chain(&golden_records()) {
        s.apply(r);
    }
    assert_eq!(s.attrs.len(), 3);
    assert_eq!(s.node_aa, None);
    assert_eq!(s.attr_aas.len(), 1);
    assert_eq!(s.subs.len(), 2);
    assert_eq!(s.committed.len(), 3);
    assert_eq!(s.reserved, None);
    s
}

/// Encoded body of each of [`golden_records`].
const GOLDEN_RECORDS: [&str; 10] = [
    "00036d656d010000000000005040",
    "0103435055",
    "02144141203d207b206f6e476574203d206e696c207d",
    "03",
    "04036d656d074141203d207b7d",
    "0503475055",
    "06715a1f6ed0b8d285174485adb691472801ac02",
    "07efe05a7cff5083f29e87b63e8e1a0cf1",
    "08808080808020",
    "09808080808020",
];
/// `snapshot-1.snap` after the prelude.
const GOLDEN_SNAPSHOT: &str = "83000000bc263e4f010303435055010000000000002940034750550001047479706502026d3501074141203d207b7d01034750552b4141203d207b206f6e476574203d2066756e6374696f6e28292072657475726e207472756520656e64207d02b6fab8e833dc2efb8c2daff7f3acf5140102efe05a7cff5083f29e87b63e8e1a0cf1000207ac0201ac02";
/// `wal-1.log` after the ten records.
const GOLDEN_WAL: &str = "0f0000001a6499bb0100036d656d01000000000000504006000000ee3f2d8601010343505517000000f901bf000102144141203d207b206f6e476574203d206e696c207d020000000472cbc101030e00000016183ecf0104036d656d074141203d207b7d06000000f231a474010503475055150000002c59f2ab0106715a1f6ed0b8d285174485adb691472801ac0212000000c878d2be0107efe05a7cff5083f29e87b63e8e1a0cf108000000e220b039010880808080802008000000562bc79f0109808080808020";
const GOLDEN_MANIFEST: &str = "rbay-store v1\ngen=1\nsnapshot=snapshot-1.snap\nwal=wal-1.log\n";

#[test]
fn records_and_stats_encode_to_golden_bytes() {
    for (rec, want) in golden_records().iter().zip(GOLDEN_RECORDS) {
        assert_eq!(hex(&rec.encode()), want, "encoding moved for {rec:?}");
        let bytes = unhex(want);
        let mut r = Reader::new(&bytes);
        assert_eq!(&WalRecord::decode(&mut r).unwrap(), rec);
        assert!(r.is_empty());
    }
    let stats = StoreStats {
        appends: 40,
        dedup_skips: 3,
        snapshots: 1,
        replay_records: 17,
        replay_micros: 250,
        relint_rejects: 1,
        wal_bytes: 4096,
        wal_records: 23,
    };
    assert_eq!(hex(&stats.encode()), "28030111fa0101802017");
    assert_eq!(
        StoreStats::decode(&mut Reader::new(&stats.encode())).unwrap(),
        stats
    );
}

#[test]
fn store_writes_the_golden_files() {
    let dir = std::env::temp_dir().join(format!("rbay-store-golden-w-{}", std::process::id()));
    let _ = std::fs::remove_dir_all(&dir);
    let (mut s, _) = Store::open(&dir, FsyncPolicy::Never).unwrap();
    for r in &golden_prelude() {
        assert!(s.append(r).unwrap());
    }
    s.snapshot().unwrap();
    for r in &golden_records() {
        assert!(s.append(r).unwrap());
    }
    drop(s);
    let read = |name: &str| std::fs::read(dir.join(name)).unwrap();
    assert_eq!(hex(&read("snapshot-1.snap")), GOLDEN_SNAPSHOT);
    assert_eq!(hex(&read("wal-1.log")), GOLDEN_WAL);
    assert_eq!(read("MANIFEST"), GOLDEN_MANIFEST.as_bytes());
    std::fs::remove_dir_all(&dir).unwrap();
}

#[test]
fn a_directory_written_by_an_earlier_build_replays() {
    let dir = std::env::temp_dir().join(format!("rbay-store-golden-r-{}", std::process::id()));
    let _ = std::fs::remove_dir_all(&dir);
    std::fs::create_dir_all(&dir).unwrap();
    std::fs::write(dir.join("snapshot-1.snap"), unhex(GOLDEN_SNAPSHOT)).unwrap();
    std::fs::write(dir.join("wal-1.log"), unhex(GOLDEN_WAL)).unwrap();
    std::fs::write(dir.join("MANIFEST"), GOLDEN_MANIFEST).unwrap();
    let (s, report) = Store::open(&dir, FsyncPolicy::Never).unwrap();
    assert!(report.snapshot_loaded && !report.snapshot_corrupt);
    assert_eq!(report.wal_records, 10);
    assert_eq!(report.torn_bytes, 0);
    assert_eq!(s.state(), &golden_state());
    // The WAL alone yields the ten records, in order.
    let mut out = Vec::new();
    replay(&unhex(GOLDEN_WAL), |r| out.push(r));
    assert_eq!(out, golden_records());
    std::fs::remove_dir_all(&dir).unwrap();
}
