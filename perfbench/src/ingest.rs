//! The ingest probe: `v6brickd` in its own process, durable, fed
//! pre-generated capture bundles. `fleet`'s traced run runs it, because
//! the bundles are the service-shaped form of a fleet campaign (a daemon
//! fed them snapshots to the bytes of `fleet::run`).
//!
//! The probe simulates a 300-home campaign with 60 s windows and encodes
//! each home's capture as `serve::campaign_bundles` does (even homes
//! pcap, odd homes pcapng). Each of four rounds starts the daemon with a
//! fresh data directory and the default snapshot cadence, uploads every
//! bundle in a closed loop over one connection, fetches SNAPSHOT and
//! STATS, SIGKILLs the daemon, restarts it over the same directory and
//! waits for its first answer. 300 homes is past the default
//! `snapshot_every` of 256, so every restart loads a snapshot and replays
//! the same 44-record WAL tail. Each round needs a fresh daemon, because
//! the daemon accepts each home of a campaign once.
//!
//! Uploads go through the wire codec directly rather than through
//! `Client::upload`, writing the same frames, so that each upload's send
//! and ack wait are timed apart.

use crate::metrics::Outcome;
use crate::{stats, trace, Args};
use std::fs::OpenOptions;
use std::io::{BufRead, BufReader};
use std::net::TcpStream;
use std::path::{Path, PathBuf};
use std::process::{Child, ChildStdout, Command, Stdio};
use std::time::{Duration, Instant};
use v6brick_experiments::fleet::CampaignSpec;
use v6brick_experiments::serve;
use v6brick_ingest::wire::{
    read_frame, write_frame, K_OK, K_UPLOAD_BEGIN, K_UPLOAD_CHUNK, K_UPLOAD_END,
};
use v6brick_ingest::{snapshot, wal, Client, UploadAck, UploadBundle};
use v6brick_pcap::stream::StreamDecoder;
use v6brick_pcap::{format, pcapng, Capture};

/// Homes per campaign (one upload each per round).
pub const HOMES: u64 = 300;
/// Simulated seconds per home's capture.
const WINDOW_S: u64 = 60;
/// Upload chunk size: the largest the load generator uses.
const CHUNK: usize = 4096;
/// Rounds per probe: 4 × 300 uploads support a p99.
const ROUNDS: usize = 4;

fn spec(seed: u64) -> CampaignSpec {
    CampaignSpec {
        homes: HOMES,
        seed,
        workers: crate::workers(),
        duration_s: WINDOW_S,
        ..Default::default()
    }
}

/// A running `v6brickd`.
struct Daemon {
    child: Child,
    addr: String,
    _stdout: BufReader<ChildStdout>,
}

impl Daemon {
    /// Start the daemon over `dir` and wait until it prints its address.
    fn start(bin: &Path, seed: u64, dir: &Path, log: &Path) -> Result<Daemon, String> {
        let log = OpenOptions::new()
            .create(true)
            .append(true)
            .open(log)
            .map_err(|e| format!("open {}: {e}", log.display()))?;
        let threads = crate::workers().min(4).to_string();
        let mut child = Command::new(bin)
            .args(["--addr", "127.0.0.1:0", "--seed", &seed.to_string()])
            .args(["--loop-threads", &threads, "--data-dir"])
            .arg(dir)
            .stdout(Stdio::piped())
            .stderr(log)
            .spawn()
            .map_err(|e| format!("start {}: {e}", bin.display()))?;
        let mut stdout = BufReader::new(child.stdout.take().expect("stdout is piped"));
        let mut line = String::new();
        let _ = stdout.read_line(&mut line);
        let addr = line
            .strip_prefix("v6brickd listening on ")
            .and_then(|rest| rest.split_whitespace().next())
            .map(str::to_string);
        match addr {
            Some(addr) => Ok(Daemon {
                child,
                addr,
                _stdout: stdout,
            }),
            None => {
                let _ = child.kill();
                let _ = child.wait();
                Err(format!("v6brickd did not start (said {line:?})"))
            }
        }
    }

    fn connect(&self) -> Result<Client, String> {
        Client::connect_retry(self.addr.as_str(), 100, Duration::from_millis(10))
            .map_err(|e| format!("connect {}: {e}", self.addr))
    }
}

/// Dropping the handle SIGKILLs and reaps the daemon, also on an error
/// path, so no run leaves a process behind.
impl Drop for Daemon {
    fn drop(&mut self) {
        let _ = self.child.kill();
        let _ = self.child.wait();
    }
}

fn stats_json(client: &mut Client) -> Result<serde_json::Value, String> {
    let text = client.stats().map_err(|e| format!("STATS: {e}"))?;
    serde_json::from_str(&text).map_err(|e| format!("STATS json: {e:?}"))
}

fn stat(v: &serde_json::Value, key: &str) -> u64 {
    v.get(key).and_then(|x| x.as_u64()).unwrap_or(0)
}

/// What one round measured.
#[derive(Default)]
struct Round {
    upload_ms: Vec<f64>,
    send_ms: Vec<f64>,
    ack_ms: Vec<f64>,
    upload_wall_s: f64,
    recover_s: f64,
    failed: u64,
    snapshot: String,
    stats: Option<serde_json::Value>,
    snapshot_load_s: f64,
    wal_scan_s: f64,
}

/// Upload one bundle over the raw wire codec, timing the send and the
/// wait for the ack separately. Frames are exactly what `Client::upload`
/// writes.
fn upload_split(
    stream: &mut TcpStream,
    reader: &mut BufReader<TcpStream>,
    b: &UploadBundle,
) -> Result<(f64, f64), String> {
    let io = |e: std::io::Error| format!("upload: {e}");
    let group = b.header.home_index;
    let parent = trace::begin("upload", group, None);
    let header = serde_json::to_string(&b.header).expect("header serializes");
    let send = trace::begin("send", group, Some(parent.id()));
    write_frame(stream, K_UPLOAD_BEGIN, header.as_bytes()).map_err(io)?;
    for chunk in b.pcap.chunks(CHUNK) {
        write_frame(stream, K_UPLOAD_CHUNK, chunk).map_err(io)?;
    }
    write_frame(stream, K_UPLOAD_END, &[]).map_err(io)?;
    let send = send.stop();
    let send_ns = send.dur_ns();
    send.record(0);
    let wait = trace::begin("ack_wait", group, Some(parent.id()));
    let frame = read_frame(reader).map_err(|e| format!("ack: {e}"))?;
    let wait = wait.stop();
    let ack_ns = wait.dur_ns();
    wait.record(0);
    parent.end();
    if frame.kind != K_OK {
        return Err(format!(
            "upload of home {group} refused: {}",
            String::from_utf8_lossy(&frame.payload)
        ));
    }
    let ack: UploadAck = serde_json::from_str(&String::from_utf8_lossy(&frame.payload))
        .map_err(|e| format!("ack json: {e:?}"))?;
    if ack.home_index != group {
        return Err(format!(
            "ack for home {} answered upload of {group}",
            ack.home_index
        ));
    }
    Ok((send_ns as f64 / 1e6, ack_ns as f64 / 1e6))
}

/// Upload every bundle to `daemon`, then kill it, restart it over the
/// same directory and read its state back.
fn round(
    args: &Args,
    bin: &Path,
    daemon: Daemon,
    dir: &Path,
    log: &Path,
    bundles: &[UploadBundle],
) -> Result<Round, String> {
    let mut r = Round::default();
    let mut stream =
        TcpStream::connect(daemon.addr.as_str()).map_err(|e| format!("connect: {e}"))?;
    stream
        .set_nodelay(true)
        .map_err(|e| format!("nodelay: {e}"))?;
    let mut reader = BufReader::new(stream.try_clone().map_err(|e| format!("clone: {e}"))?);
    let t0 = Instant::now();
    for b in bundles {
        let u0 = Instant::now();
        match upload_split(&mut stream, &mut reader, b) {
            Ok((send, ack)) => {
                r.upload_ms.push(u0.elapsed().as_secs_f64() * 1e3);
                r.send_ms.push(send);
                r.ack_ms.push(ack);
            }
            Err(e) => {
                eprintln!("ingest: {e}");
                r.failed += 1;
            }
        }
    }
    r.upload_wall_s = t0.elapsed().as_secs_f64();
    drop((stream, reader));
    let mut client = daemon.connect()?;
    r.snapshot = client.snapshot().map_err(|e| format!("SNAPSHOT: {e}"))?;
    let before = stats_json(&mut client)?;
    drop(client);

    let killed = Instant::now();
    drop(daemon);
    let restarted = Daemon::start(bin, args.seed, dir, log)?;
    let mut client = restarted.connect()?;
    let after = stats_json(&mut client)?;
    r.recover_s = killed.elapsed().as_secs_f64();
    let recovered = client
        .snapshot()
        .map_err(|e| format!("SNAPSHOT after restart: {e}"))?;
    drop(client);
    drop(restarted);
    if recovered != r.snapshot {
        return Err("the restarted daemon's SNAPSHOT differs from the killed one's".to_string());
    }
    let origin = after
        .get("recovered_from")
        .and_then(|v| v.as_str())
        .unwrap_or("");
    if origin != "snapshot+wal" {
        return Err(format!(
            "restart recovered from {origin:?}, want snapshot+wal"
        ));
    }
    // The restarted daemon only read the directory, so it still holds
    // exactly what the killed one left.
    let t0 = Instant::now();
    snapshot::load(dir, args.seed).map_err(|e| format!("snapshot::load: {e:?}"))?;
    r.snapshot_load_s = t0.elapsed().as_secs_f64();
    let t0 = Instant::now();
    wal::scan(&dir.join(wal::WAL_FILE), args.seed).map_err(|e| format!("wal::scan: {e:?}"))?;
    r.wal_scan_s = t0.elapsed().as_secs_f64();
    r.stats = Some(before);
    Ok(r)
}

fn fresh_dir(dir: &Path) -> Result<(), String> {
    if dir.exists() {
        std::fs::remove_dir_all(dir).map_err(|e| format!("clear {}: {e}", dir.display()))?;
    }
    std::fs::create_dir_all(dir).map_err(|e| format!("create {}: {e}", dir.display()))
}

/// Run the probe and add its per-layer metrics, checks, attempts and
/// failures to `out`.
pub fn probe(args: &Args, out: &mut Outcome) -> Result<(), String> {
    let bin = args
        .v6brickd
        .clone()
        .ok_or("the ingest probe needs --v6brickd PATH")?;
    let spec = spec(args.seed);
    let base: PathBuf = args.out_dir.join(format!("ingest-seed{}", args.seed));
    let dir = base.join("data");
    let log = base.join("v6brickd.log");
    fresh_dir(&base)?;
    fresh_dir(&dir)?;

    let (bundles, bundle_ns) = crate::timed_ns(|| serve::campaign_bundles(&spec));
    let mut rounds: Vec<Round> = Vec::new();
    for k in 0..ROUNDS {
        if k > 0 {
            fresh_dir(&dir)?;
        }
        let daemon = Daemon::start(&bin, args.seed, &dir, &log)?;
        let r = round(args, &bin, daemon, &dir, &log, &bundles)?;
        out.attempted += HOMES;
        out.failed += r.failed;
        rounds.push(r);
    }
    let _ = std::fs::remove_dir_all(&dir);

    // Checks: every round's state equals the offline oracle, the daemon
    // counted no failure, and every round left the same WAL tail.
    let oracle = serve::offline_report_json(&spec);
    let first_stats = rounds[0].stats.clone().expect("stats read");
    for r in &rounds {
        let s = r.stats.as_ref().expect("stats read");
        let bad = r.snapshot != oracle
            || stat(s, "parse_errors") != 0
            || stat(s, "uploads_failed") != 0
            || stat(s, "uploads_duplicate") != 0
            || stat(s, "connections_refused") != 0
            || stat(s, "uploads_ok") != HOMES
            || stat(s, "wal_records") == 0
            || stat(s, "wal_records") != stat(&first_stats, "wal_records")
            || r.failed != 0;
        if bad {
            eprintln!("ingest: round state check failed: {s:?}");
            out.correct = false;
        }
    }
    let walls: Vec<f64> = rounds.iter().map(|r| r.upload_wall_s).collect();
    eprintln!("ingest: rounds of {HOMES} uploads {walls:.3?}");
    metrics(args, out, &rounds, &bundles, &first_stats, bundle_ns)
}

/// Decode a bundle's capture in the format `campaign_bundles` chose.
fn decode(b: &UploadBundle) -> Result<Capture, String> {
    let decoded = if b.header.home_index.is_multiple_of(2) {
        format::from_bytes(&b.pcap)
    } else {
        pcapng::from_bytes(&b.pcap)
    };
    decoded.map_err(|e| format!("decode home {}: {e:?}", b.header.home_index))
}

/// Nanoseconds per KB that `StreamDecoder::feed` takes over `bundles`
/// at the upload chunk size.
fn stream_decode_ns_per_kb<'a>(
    bundles: impl Iterator<Item = &'a UploadBundle>,
) -> Result<f64, String> {
    let (mut ns, mut bytes) = (0u64, 0u64);
    for b in bundles {
        let mut frames = 0u64;
        let mut sink = |_ts: u64, f: &[u8]| frames += std::hint::black_box(f).len() as u64;
        let mut dec = StreamDecoder::new();
        let t0 = Instant::now();
        for chunk in b.pcap.chunks(CHUNK) {
            dec.feed(chunk, &mut sink)
                .map_err(|e| format!("stream decode: {e:?}"))?;
        }
        dec.finish().map_err(|e| format!("stream decode: {e:?}"))?;
        ns += t0.elapsed().as_nanos() as u64;
        bytes += b.pcap.len() as u64;
    }
    Ok(ns as f64 / (bytes as f64 / 1024.0).max(1.0))
}

fn metrics(
    args: &Args,
    out: &mut Outcome,
    rounds: &[Round],
    bundles: &[UploadBundle],
    stats0: &serde_json::Value,
    bundle_ns: u64,
) -> Result<(), String> {
    let flat = |f: fn(&Round) -> &Vec<f64>| -> Vec<f64> {
        rounds.iter().flat_map(|r| f(r).iter().copied()).collect()
    };
    let upload_ms = flat(|r| &r.upload_ms);
    out.set("ingest.upload_p50_ms", stats::percentile(&upload_ms, 50.0)?);
    out.set("ingest.upload_p99_ms", stats::percentile(&upload_ms, 99.0)?);
    out.set(
        "ingest.send_ms_p50",
        stats::percentile(&flat(|r| &r.send_ms), 50.0)?,
    );
    out.set(
        "ingest.ack_wait_ms_p50",
        stats::percentile(&flat(|r| &r.ack_ms), 50.0)?,
    );
    let upload_wall: f64 = rounds.iter().map(|r| r.upload_wall_s).sum();
    out.set("ingest.uploads_per_s", upload_ms.len() as f64 / upload_wall);
    let med = |f: fn(&Round) -> f64| stats::median(&rounds.iter().map(f).collect::<Vec<_>>());
    out.set("ingest.recover_s", med(|r| r.recover_s));
    out.set("ingest.recover.snapshot_load_s", med(|r| r.snapshot_load_s));
    out.set("ingest.recover.wal_scan_s", med(|r| r.wal_scan_s));

    // Daemon-side counters, from the STATS of the first round.
    let passes = stats0.get("passes");
    for (pass, name) in [
        ("addressing", "ingest.pass_ns.addressing"),
        ("ndp_dad", "ingest.pass_ns.ndp_dad"),
        ("dns", "ingest.pass_ns.dns"),
        ("traffic", "ingest.pass_ns.traffic"),
    ] {
        let ns = passes
            .and_then(|p| p.get(pass))
            .map_or(0, |p| stat(p, "nanos"));
        out.set(name, ns as f64);
    }
    out.set("ingest.wal_records", stat(stats0, "wal_records") as f64);
    out.set("ingest.wal_kb", stat(stats0, "wal_bytes") as f64 / 1024.0);
    out.set(
        "ingest.snapshots_written",
        stat(stats0, "snapshots_written") as f64,
    );
    let parse_errors = out.metrics.get("core.parse_errors").copied().unwrap_or(0.0);
    out.set(
        "core.parse_errors",
        parse_errors + stat(stats0, "parse_errors") as f64,
    );
    for key in ["uploads_failed", "uploads_duplicate", "connections_refused"] {
        let total: u64 = rounds
            .iter()
            .filter_map(|r| r.stats.as_ref())
            .map(|s| stat(s, key))
            .sum();
        out.set(
            match key {
                "uploads_failed" => "ingest.uploads_failed",
                "uploads_duplicate" => "ingest.uploads_duplicate",
                _ => "ingest.connections_refused",
            },
            total as f64,
        );
    }

    // Client-side layers over the bundles themselves.
    let bytes: u64 = bundles.iter().map(|b| b.pcap.len() as u64).sum();
    out.set(
        "ingest.kb_per_upload",
        bytes as f64 / bundles.len() as f64 / 1024.0,
    );
    out.set(
        "experiments.bundle_ms_per_home",
        bundle_ns as f64 / HOMES as f64 / 1e6,
    );
    let even = bundles.iter().filter(|b| b.header.home_index % 2 == 0);
    let odd = bundles.iter().filter(|b| b.header.home_index % 2 == 1);
    out.set("pcap.decode_ns_per_kb.pcap", stream_decode_ns_per_kb(even)?);
    out.set(
        "pcap.decode_ns_per_kb.pcapng",
        stream_decode_ns_per_kb(odd)?,
    );
    let mut encode_ns = 0;
    for b in bundles {
        let capture = decode(b)?;
        let group = b.header.home_index;
        let (encoded, ns) = crate::timed_ns(|| {
            if group.is_multiple_of(2) {
                format::to_bytes(&capture)
            } else {
                pcapng::to_bytes(&capture)
            }
        });
        if encoded != b.pcap {
            return Err(format!("re-encoding home {group} changed its bytes"));
        }
        encode_ns += ns;
    }
    out.set("pcap.encode_s", encode_ns as f64 / 1e9);

    let spans = trace::drain();
    crate::write_spans(args, "ingest", &spans)
}
