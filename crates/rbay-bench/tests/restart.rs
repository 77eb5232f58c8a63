//! Kill-and-recover integration test for the durable daemon: a packed
//! `rbay-node` is SIGKILLed mid-load and restarted on the same
//! `--data-dir`; the recovered process must answer queries from its
//! journaled state — attributes back in place, the password `onGet`
//! guard re-installed without any operator re-installation, and the
//! pre-kill commit still on the ledger.

use rbay_bench::cluster::{proc_sock, to, Ctrl, CtrlMsg, Daemon};
use rbay_workloads::{password_aa_script, WORKLOAD_PASSWORD};
use simnet::NodeAddr;
use std::process::Command;
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
