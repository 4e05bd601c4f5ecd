//! The write-ahead log's throughput budget.
//!
//! With `--data-dir`, `v6brickd` appends every absorbed upload to its
//! WAL before the ack and fsyncs only at snapshot boundaries and at
//! drain (DESIGN.md §4, ack-after-write durability). The price of that
//! choice is bounded here: on the same replay, a logged daemon must keep
//! at least 80 % of the upload rate of an unlogged one.
//!
//! The gate compares two wall clocks and sits close to its bound, so it
//! would make the default test run flaky; it is ignored there and run by
//! name instead:
//!
//! ```text
//! cargo test --release -p v6brick-experiments --test wal_overhead -- --ignored
//! ```

use std::path::PathBuf;
use std::time::Instant;
use v6brick_experiments::fleet::CampaignSpec;
use v6brick_experiments::serve::campaign_bundles;
use v6brick_ingest::{loadgen, spawn, ServerConfig, UploadBundle};

/// Replay `bundles` at a fresh in-process daemon with 8 shards over 4
/// load-generator clients and return its uploads per second.
fn upload_rate(spec: &CampaignSpec, bundles: &[UploadBundle], data_dir: Option<PathBuf>) -> f64 {
    let handle = spawn(ServerConfig {
        campaign_seed: spec.seed,
        shards: 8,
        data_dir,
        ..Default::default()
    })
    .expect("v6brickd binds an ephemeral port");
    let addr = handle.addr().to_string();
    let t0 = Instant::now();
    let load = loadgen::run(&addr, bundles, 4, spec.seed).expect("load generator runs");
    let secs = t0.elapsed().as_secs_f64();
    assert_eq!(load.failures(), 0, "WAL-overhead replay had failed uploads");
    handle.shutdown();
    handle.join();
    load.uploads() as f64 / secs.max(1e-9)
}

#[test]
#[ignore = "wall-clock ratio near its bound; run by name with --ignored"]
fn wal_keeps_80_percent_of_the_unlogged_upload_rate() {
    let spec = CampaignSpec {
        homes: 16,
        seed: 0x1963,
        workers: std::thread::available_parallelism().map_or(1, |n| n.get()),
        device_range: (2, 4),
        duration_s: 60,
        ..Default::default()
    };
    let bundles = campaign_bundles(&spec);

    // Best of 3 per side. Every logged run gets a fresh directory:
    // reusing one would let the exactly-once dedupe skip the absorb (and
    // most of the WAL write) on reruns and flatter the number.
    let wal_off = (0..3)
        .map(|_| upload_rate(&spec, &bundles, None))
        .fold(0.0, f64::max);
    let wal_on = (0..3)
        .map(|i| {
            let dir = std::env::temp_dir()
                .join(format!("v6brick-wal-overhead-{}-{i}", std::process::id()));
            let _ = std::fs::remove_dir_all(&dir);
            let rate = upload_rate(&spec, &bundles, Some(dir.clone()));
            let _ = std::fs::remove_dir_all(&dir);
            rate
        })
        .fold(0.0, f64::max);

    let overhead_pct = 100.0 * (1.0 - wal_on / wal_off.max(1e-9));
    eprintln!(
        "uploads/sec: {wal_off:.1} unlogged, {wal_on:.1} logged ({overhead_pct:.1} % overhead)"
    );
    assert!(
        wal_on >= 0.8 * wal_off,
        "write-ahead logging costs {overhead_pct:.1} % of upload throughput (budget 20 %): \
         {wal_on:.1} logged vs {wal_off:.1} unlogged uploads/sec"
    );
}
