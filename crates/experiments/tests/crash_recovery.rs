//! Crash-injection harness for the durable daemon.
//!
//! The acceptance spec of the durability layer: SIGKILL a real
//! `v6brickd` process (via `repro serve`) at randomized points of an
//! upload campaign, restart it on the same data directory, replay the
//! client's retries, and require the recovered `SNAPSHOT` to be
//! **byte-identical** to the offline `fleet::run` JSON oracle — as if
//! the crash never happened. SIGKILL gives no destructor a chance, so
//! everything the recovered daemon knows came through the write-ahead
//! log and snapshot files alone. A torn-tail variant scribbles a
//! partial record where the kill cut the WAL; a SIGTERM variant pins
//! the graceful-drain path end to end.

use std::io::{BufRead, BufReader, Write};
use std::path::{Path, PathBuf};
use std::process::{Child, ChildStdout, Command, Stdio};
use std::sync::OnceLock;
use std::time::Duration;
use v6brick_experiments::fleet::CampaignSpec;
use v6brick_experiments::serve::{campaign_bundles, offline_report_json};
use v6brick_fleet::home_seed;
use v6brick_ingest::{Client, UploadBundle};

const HOMES: u64 = 9;
const CHUNK: usize = 900;

fn spec() -> CampaignSpec {
    CampaignSpec {
        homes: HOMES,
        seed: 0xc4a5,
        workers: 2,
        device_range: (2, 3),
        duration_s: 45,
        ..Default::default()
    }
}

struct Oracle {
    bundles: Vec<UploadBundle>,
    offline: String,
}

/// The campaign is simulated once and shared across every test in this
/// binary — the oracle bytes never depend on who reads them.
fn oracle() -> &'static Oracle {
    static ORACLE: OnceLock<Oracle> = OnceLock::new();
    ORACLE.get_or_init(|| {
        let spec = spec();
        Oracle {
            bundles: campaign_bundles(&spec),
            offline: offline_report_json(&spec),
        }
    })
}

fn temp_dir(tag: &str, n: u64) -> PathBuf {
    let dir = std::env::temp_dir().join(format!("v6brick-crash-{tag}-{}-{n}", std::process::id()));
    let _ = std::fs::remove_dir_all(&dir);
    dir
}

/// A real daemon process on an ephemeral port. Keeps the stdout pipe
/// open for the process's whole life (the final STATS line must have
/// somewhere to go) and reads it lazily.
struct Daemon {
    child: Child,
    stdout: BufReader<ChildStdout>,
    addr: String,
}

fn start_daemon(dir: &Path, snapshot_every: u64) -> Daemon {
    let mut child = Command::new(env!("CARGO_BIN_EXE_repro"))
        .args([
            "serve",
            "--addr",
            "127.0.0.1:0",
            "--seed",
            &spec().seed.to_string(),
            "--data-dir",
            dir.to_str().expect("utf-8 temp path"),
            "--snapshot-every",
            &snapshot_every.to_string(),
        ])
        .stdout(Stdio::piped())
        .stderr(Stdio::null())
        .spawn()
        .expect("spawn repro serve");
    let mut stdout = BufReader::new(child.stdout.take().expect("piped stdout"));
    let addr = loop {
        let mut line = String::new();
        assert_ne!(
            stdout.read_line(&mut line).expect("daemon stdout"),
            0,
            "daemon exited before announcing its address"
        );
        if let Some(rest) = line.strip_prefix("v6brickd listening on ") {
            break rest
                .split_whitespace()
                .next()
                .expect("address token")
                .to_string();
        }
    };
    Daemon {
        child,
        stdout,
        addr,
    }
}

impl Daemon {
    fn client(&self) -> Client {
        Client::connect_retry(self.addr.as_str(), 100, Duration::from_millis(20))
            .expect("connect to daemon")
    }

    /// Read the rest of stdout (the final STATS JSON) after the process
    /// exits.
    fn drain_stdout(&mut self) -> String {
        let mut rest = String::new();
        std::io::Read::read_to_string(&mut self.stdout, &mut rest).expect("daemon stdout");
        rest
    }
}

/// Upload bundles `[..k]`, one ack at a time, so "killed after K acks"
/// is a precise statement about what the WAL must already hold.
fn upload_prefix(client: &mut Client, k: usize) {
    for bundle in &oracle().bundles[..k] {
        let ack = client.upload_bundle(bundle, CHUNK).expect("upload acked");
        assert_eq!(ack.home_index, bundle.header.home_index);
    }
}

/// The tentpole acceptance: three randomized SIGKILL points, each
/// recovered to oracle-identical bytes with client retries deduped
/// exactly-once.
#[test]
fn sigkill_at_randomized_points_recovers_byte_identically() {
    let oracle = oracle();
    for trial in 0..3u64 {
        // 1..=HOMES-2 acked uploads before the kill: always something
        // to recover, never a complete campaign.
        let k = (1 + home_seed(0xdead, trial) % (HOMES - 2)) as usize;
        let dir = temp_dir("sigkill", trial);

        let mut daemon = start_daemon(&dir, 4);
        let mut client = daemon.client();
        upload_prefix(&mut client, k);
        // SIGKILL: no drain, no fsync, no destructors.
        daemon.child.kill().expect("kill daemon");
        daemon.child.wait().expect("reap daemon");
        drop(client);

        let mut daemon = start_daemon(&dir, 4);
        let mut client = daemon.client();
        let stats = client.stats().expect("stats");
        assert!(
            stats.contains("\"recovered_from\":\"wal\"")
                || stats.contains("\"recovered_from\":\"snapshot\"")
                || stats.contains("\"recovered_from\":\"snapshot+wal\""),
            "trial {trial} (k={k}): daemon did not recover state: {stats}"
        );
        // The client never saw which acks died with the server, so it
        // retries everything; the absorbed-set dedupe makes the retries
        // exactly-once.
        for bundle in &oracle.bundles {
            client.upload_bundle(bundle, CHUNK).expect("retry acked");
        }
        let stats = client.stats().expect("stats");
        assert!(
            stats.contains(&format!("\"uploads_duplicate\":{k}")),
            "trial {trial}: expected exactly {k} deduped retries: {stats}"
        );
        assert_eq!(
            client.snapshot().expect("snapshot"),
            oracle.offline,
            "trial {trial} (k={k}): recovered population diverged from the oracle"
        );
        client.shutdown_server().expect("drain");
        drop(client);
        let status = daemon.child.wait().expect("reap daemon");
        assert!(status.success(), "trial {trial}: unclean exit: {status}");
        let _ = std::fs::remove_dir_all(&dir);
    }
}

/// A crash can also tear the WAL mid-record. Scribble a partial record
/// (valid head, missing payload) where the kill cut the file: recovery
/// must truncate the tear, keep every whole record, and still converge
/// to the oracle bytes.
#[test]
fn torn_wal_tail_is_truncated_and_recovery_converges() {
    let oracle = oracle();
    let dir = temp_dir("torn", 0);

    // Snapshot at 4 acks, one more WAL record after it, then die.
    let mut daemon = start_daemon(&dir, 4);
    let mut client = daemon.client();
    upload_prefix(&mut client, 5);
    daemon.child.kill().expect("kill daemon");
    daemon.child.wait().expect("reap daemon");
    drop(client);

    let wal = dir.join(v6brick_ingest::wal::WAL_FILE);
    let mut file = std::fs::OpenOptions::new()
        .append(true)
        .open(&wal)
        .expect("open wal for appending");
    // len=64 declared, seq head complete, only 3 of 64 payload bytes.
    file.write_all(&[64, 0, 0, 0, 9, 0, 0, 0, 0, 0, 0, 0, 1, 2, 3])
        .expect("scribble torn record");
    drop(file);
    // The tear is visible to a direct scan: one whole record (the
    // post-snapshot upload) plus a Torn tail at its end.
    let scan = v6brick_ingest::wal::scan(&wal, spec().seed)
        .expect("scan survives a torn tail")
        .expect("wal exists");
    assert_eq!(scan.records.len(), 1);
    assert!(
        matches!(scan.tail, v6brick_ingest::wal::WalTail::Torn { .. }),
        "expected a torn tail, got {:?}",
        scan.tail
    );

    let mut daemon = start_daemon(&dir, 4);
    let mut client = daemon.client();
    for bundle in &oracle.bundles {
        client.upload_bundle(bundle, CHUNK).expect("retry acked");
    }
    assert_eq!(
        client.snapshot().expect("snapshot"),
        oracle.offline,
        "recovery after a torn tail diverged from the oracle"
    );
    client.shutdown_server().expect("drain");
    drop(client);
    assert!(daemon.child.wait().expect("reap daemon").success());
    // Whatever the daemon left behind parses cleanly end to end: the
    // tear was truncated before the retries were appended.
    let scan = v6brick_ingest::wal::scan(&wal, spec().seed)
        .expect("final wal is intact")
        .expect("wal exists");
    assert_eq!(scan.tail, v6brick_ingest::wal::WalTail::Clean);
    let _ = std::fs::remove_dir_all(&dir);
}

/// A pure-WAL daemon (`snapshot_every` 0) never folds uploads into a
/// snapshot, so after a graceful drain the whole campaign lives in the
/// WAL tail: `recover` must replay every record and rebuild the offline
/// oracle byte for byte.
#[test]
fn pure_wal_tail_recovers_the_oracle_byte_for_byte() {
    let oracle = oracle();
    let dir = temp_dir("pure-wal", 0);
    let mut daemon = start_daemon(&dir, 0);
    let mut client = daemon.client();
    upload_prefix(&mut client, oracle.bundles.len());
    client.shutdown_server().expect("drain");
    drop(client);
    assert!(daemon.child.wait().expect("reap daemon").success());

    let recovered = v6brick_ingest::recover(&dir, spec().seed).expect("recover the WAL tail");
    assert_eq!(recovered.replayed, HOMES);
    assert_eq!(
        serde_json::to_string(&recovered.report).expect("serializable"),
        oracle.offline,
        "the report recovered from the WAL tail diverged from the oracle"
    );
    let _ = std::fs::remove_dir_all(&dir);
}

/// SIGTERM is the graceful path: the daemon drains, fsyncs + closes the
/// WAL, writes a final snapshot, and exits 0 with its STATS on stdout.
#[cfg(target_os = "linux")]
#[test]
fn sigterm_drains_persists_and_exits_cleanly() {
    let dir = temp_dir("sigterm", 0);
    let mut daemon = start_daemon(&dir, 0); // pure-WAL mode
    let mut client = daemon.client();
    upload_prefix(&mut client, 3);
    drop(client);

    let pid = daemon.child.id();
    let killed = Command::new("sh")
        .args(["-c", &format!("kill -TERM {pid}")])
        .status()
        .expect("send SIGTERM");
    assert!(killed.success());
    let status = daemon.child.wait().expect("reap daemon");
    assert!(status.success(), "SIGTERM exit was not clean: {status}");
    let stats = daemon.drain_stdout();
    assert!(
        stats.contains("\"wal_records\":3"),
        "final STATS should report the drained WAL: {stats}"
    );

    // The graceful exit left a clean, replayable WAL: all three acked
    // uploads recover, nothing else.
    let recovered = v6brick_ingest::recover(&dir, spec().seed).expect("recover after SIGTERM");
    assert_eq!(recovered.replayed, 3);
    assert_eq!(recovered.report.homes, 3);
    let _ = std::fs::remove_dir_all(&dir);
}
