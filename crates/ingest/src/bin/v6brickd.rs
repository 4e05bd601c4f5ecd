//! `v6brickd` — the capture-ingestion daemon.
//!
//! ```text
//! v6brickd [--addr HOST:PORT] [--seed N] [--shards N]
//!          [--max-upload-mb N] [--upload-timeout-ms N]
//!          [--read-timeout-ms N] [--loop-threads N]
//!          [--drain-deadline-ms N] [--max-conns N]
//!          [--data-dir PATH] [--snapshot-every N]
//! ```
//!
//! Binds, prints the listen address on stdout, and serves until a wire
//! `SHUTDOWN` command — or SIGTERM/SIGINT, which trigger the same
//! deadline-driven drain — stops it; exits 0 after a clean drain and
//! prints the final STATS JSON on stdout. The STATS line self-reports
//! the daemon's threading (`loop_threads`, `handler_threads`) — CI
//! greps it to prove no per-connection threads were ever created — and
//! its durability state (`wal_records`, `snapshots_written`,
//! `recovered_from`). With `--data-dir` the daemon write-ahead-logs
//! every absorbed upload before acking it and recovers the population
//! on restart. `repro serve` runs the same [`v6brick_ingest::daemon`].

fn main() {
    std::process::exit(v6brick_ingest::daemon::run(
        "v6brickd",
        std::env::args().skip(1),
    ));
}
