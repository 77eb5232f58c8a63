//! Kill-and-recover integration test for the durable daemon: a packed
//! `rbay-node` is SIGKILLed mid-load and restarted on the same
//! `--data-dir`; the recovered process must answer queries from its
//! journaled state — attributes back in place, the password `onGet`
//! guard re-installed without any operator re-installation, and the
//! pre-kill commit still on the ledger. Also: a site layout with an empty
//! site is refused before any daemon starts, and a `--data-dir` the
//! daemon cannot use fails its boot.

use rbay_bench::cluster::{proc_sock, to, Ctrl, CtrlMsg, Daemon};
use rbay_workloads::{password_aa_script, WORKLOAD_PASSWORD};
use simnet::NodeAddr;
use std::io::Read;
use std::process::{Command, Stdio};
use std::time::{Duration, Instant};

/// Test-local port block, away from the cluster harness default.
const BASE_PORT: u16 = 24_917;
/// How long one control reply may take.
const REPLY: Duration = Duration::from_secs(30);

fn spawn(data_dir: &std::path::Path) -> Daemon {
    Daemon(
        Command::new(env!("CARGO_BIN_EXE_rbay-node"))
            .args(["--index", "0", "--agents", "2", "--agents-per-proc", "2"])
            .args(["--base-port", &BASE_PORT.to_string()])
            .args(["--tick-ms", "50"])
            .arg("--data-dir")
            .arg(data_dir)
            .args(["--fsync", "never"])
            .spawn()
            .expect("spawn rbay-node"),
    )
}

fn connect() -> Ctrl {
    Ctrl::connect(
        proc_sock(BASE_PORT, 0),
        Instant::now() + Duration::from_secs(20),
    )
    .expect("ctrl connect")
}

/// Polls `check` until it returns true or the deadline hits.
fn wait_for(what: &str, mut check: impl FnMut() -> bool) {
    let deadline = Instant::now() + Duration::from_secs(60);
    while !check() {
        assert!(Instant::now() < deadline, "timed out waiting for {what}");
        std::thread::sleep(Duration::from_millis(100));
    }
}

fn wait_joined(ctrl: &mut Ctrl) {
    wait_for("both members joined", || {
        matches!(
            ctrl.request(&CtrlMsg::ProcStatus, REPLY),
            Ok(CtrlMsg::ProcStatusReply { joined: 2, .. })
        )
    });
}

/// Issues a query from member 1 and returns `(satisfied, result count)`.
fn query(ctrl: &mut Ctrl, password: Option<&str>) -> (bool, usize) {
    let reply = ctrl
        .request(
            &to(
                NodeAddr(1),
                CtrlMsg::IssueQuery {
                    zql: "SELECT 1 FROM * WHERE GPU = true".into(),
                    password: password.map(str::to_owned),
                },
            ),
            REPLY,
        )
        .expect("query reply");
    match reply {
        CtrlMsg::QueryDone {
            satisfied, results, ..
        } => (satisfied, results.len()),
        other => panic!("unexpected query reply: {other:?}"),
    }
}

#[test]
fn killed_daemon_recovers_state_and_answers_queries() {
    let data_dir = std::env::temp_dir().join(format!("rbay-restart-test-{}", std::process::id()));
    let _ = std::fs::remove_dir_all(&data_dir);
    std::fs::create_dir_all(&data_dir).expect("create data dir");

    // Boot, provision member 0 (the pack's first member: bare requests
    // target it), and commit one query's reservation on it.
    let mut daemon = spawn(&data_dir);
    let mut ctrl = connect();
    wait_joined(&mut ctrl);
    assert!(matches!(
        ctrl.request(
            &CtrlMsg::InstallNodeAa {
                src: password_aa_script(),
            },
            REPLY
        ),
        Ok(CtrlMsg::Ok)
    ));
    assert!(matches!(
        ctrl.request(
            &CtrlMsg::Post {
                attr: "GPU".into(),
                value: rbay_query::AttrValue::Bool(true),
            },
            REPLY
        ),
        Ok(CtrlMsg::Ok)
    ));
    // One satisfied query; its commit (raced by the QueryDone ack) must
    // land on member 0 before the kill. A satisfied query holds the
    // reservation, so poll the commit separately instead of re-querying.
    wait_for("query satisfied", || {
        query(&mut ctrl, Some(WORKLOAD_PASSWORD)) == (true, 1)
    });
    wait_for("commit landed", || {
        matches!(
            ctrl.request(&CtrlMsg::Status, REPLY),
            Ok(CtrlMsg::StatusReply { committed: 1, .. })
        )
    });

    // SIGKILL mid-load: a query is in flight when the process dies.
    ctrl.send(&to(
        NodeAddr(1),
        CtrlMsg::IssueQuery {
            zql: "SELECT 1 FROM * WHERE GPU = true".into(),
            password: Some(WORKLOAD_PASSWORD.into()),
        },
    ))
    .expect("in-flight query");
    daemon.0.kill().expect("kill daemon");
    let _ = daemon.0.wait();
    drop(ctrl);

    // Restart on the same data dir. No re-post, no re-install.
    daemon = spawn(&data_dir);
    let mut ctrl = connect();
    wait_joined(&mut ctrl);

    // The WAL replayed: the pre-kill commit survives the kill.
    wait_for("replay visible in proc status", || {
        matches!(
            ctrl.request(&CtrlMsg::ProcStatus, REPLY),
            Ok(CtrlMsg::ProcStatusReply { committed: 1, store, .. })
                if store.replay_records > 0
        )
    });

    // The restored attribute answers queries again — but only with the
    // password, proving the `onGet` guard was re-installed from its
    // journaled source, not just the attribute map.
    assert_eq!(
        query(&mut ctrl, None),
        (false, 0),
        "restored guard must still refuse passwordless queries"
    );
    // The committed reservation is re-held after restart, so release it
    // before expecting fresh inventory.
    assert!(matches!(
        ctrl.request(&CtrlMsg::Release, REPLY),
        Ok(CtrlMsg::Ok)
    ));
    wait_for("post-restart query satisfied", || {
        query(&mut ctrl, Some(WORKLOAD_PASSWORD)) == (true, 1)
    });

    drop(daemon);
    let _ = std::fs::remove_dir_all(&data_dir);
}

/// 9 agents over 4 sites leave the last site without members, and so
/// without a gateway: the daemon and the harness both refuse the shape
/// with exit status 2 instead of panicking on the first query there.
#[test]
fn a_layout_with_an_empty_site_is_refused() {
    for (bin, args) in [
        (
            env!("CARGO_BIN_EXE_rbay-node"),
            ["--agents", "9", "--num-sites", "4"],
        ),
        (
            env!("CARGO_BIN_EXE_rbay-node"),
            ["--agents", "9", "--num-sites", "0"],
        ),
        (
            env!("CARGO_BIN_EXE_cluster"),
            ["--agents", "9", "--num-sites", "4"],
        ),
    ] {
        let out = Command::new(bin).args(args).output().expect("spawn");
        let err = String::from_utf8_lossy(&out.stderr);
        assert_eq!(out.status.code(), Some(2), "{bin} {args:?}: {err}");
        assert!(err.contains("leaves a site without members"), "{err}");
    }
}

/// A `--data-dir` the daemon cannot use fails its boot with exit status 1
/// and a message naming the path, before it listens: a regular file, and
/// a directory of the version-1 layout (a store per member in
/// `member-<addr>`), which is neither read nor booted fresh.
#[test]
fn an_unusable_data_dir_fails_the_boot() {
    let base = std::env::temp_dir().join(format!("rbay-bad-data-dir-{}", std::process::id()));
    let _ = std::fs::remove_dir_all(&base);
    let v1 = base.join("v1");
    std::fs::create_dir_all(v1.join("member-0")).expect("create v1 layout");
    let manifest = "rbay-store v1\ngen=0\nsnapshot=-\nwal=wal-0.log\n";
    std::fs::write(v1.join("member-0/MANIFEST"), manifest).expect("write v1 manifest");
    let file = base.join("file");
    std::fs::write(&file, "not a directory").expect("write file");
    for dir in [&file, &v1] {
        let mut daemon = Daemon(
            Command::new(env!("CARGO_BIN_EXE_rbay-node"))
                .args(["--index", "0", "--agents", "2", "--agents-per-proc", "2"])
                .args(["--base-port", &(BASE_PORT + 1).to_string()])
                .arg("--data-dir")
                .arg(dir)
                .stderr(Stdio::piped())
                .spawn()
                .expect("spawn rbay-node"),
        );
        let status = daemon.reap(Duration::from_secs(20));
        let mut err = String::new();
        let stderr = daemon.0.stderr.as_mut().expect("piped stderr");
        stderr.read_to_string(&mut err).expect("read stderr");
        assert_eq!(status, Err("exited with exit status: 1".into()), "{err}");
        assert!(err.contains(&dir.display().to_string()), "{err}");
    }
    assert!(!v1.join("pack-0").exists(), "refused, not booted fresh");
    assert_eq!(
        std::fs::read_to_string(v1.join("member-0/MANIFEST")).unwrap(),
        manifest
    );
    let _ = std::fs::remove_dir_all(&base);
}
