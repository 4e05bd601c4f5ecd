#![warn(missing_docs)]
//! # v6brick-ingest — the `v6brickd` capture-ingestion service
//!
//! The paper's pipeline is batch: capture in the testbed, analyze
//! offline. This crate is the service-shaped equivalent — a
//! long-running TCP daemon that ingests capture streams from many
//! homes concurrently and serves an incrementally updated
//! [`PopulationReport`](v6brick_core::population::PopulationReport):
//!
//! * [`wire`] — the length-prefixed frame protocol (`UPLOAD`,
//!   `SNAPSHOT`, `STATS`, `SHUTDOWN`), its typed error codes, and the
//!   resumable [`FrameReader`](wire::FrameReader) /
//!   [`FrameWriter`](wire::FrameWriter) state machines that survive
//!   arbitrary chunking and partial writes;
//! * [`poll`] — a readiness poller (raw-syscall epoll on Linux) with
//!   eventfd wakers, the substrate of the event loop;
//! * [`conn`] — the per-connection protocol state machine;
//! * [`server`] — the sharded event-loop daemon: a fixed pool of loop
//!   threads drives every connection; each upload streams
//!   chunk-by-chunk through [`v6brick_pcap::stream::StreamDecoder`]
//!   into a [`v6brick_core::observe::StreamingAnalyzer`], so the
//!   server never materializes a capture buffer — and never spawns a
//!   per-connection thread;
//! * [`state`] — the lock-striped accumulator of mergeable per-home
//!   reports;
//! * [`wal`] / [`snapshot`] / [`mod@recover`] — the durability layer:
//!   write-ahead-logged absorbs (logged before the ack), atomic
//!   periodic snapshots, and a startup path that restores the exact
//!   population a crashed daemon had acked — byte-identical to a
//!   never-crashed one;
//! * [`signal`] — SIGTERM/SIGINT → the same deadline-driven drain as
//!   the wire `SHUTDOWN` command, via raw-syscall signalfd;
//! * [`daemon`] — the one flag parser and main that `v6brickd` and
//!   `repro serve` both run;
//! * [`client`] — a blocking protocol client plus the non-blocking
//!   connection driver the load generator multiplexes;
//! * [`loadgen`] — a deterministic load generator that drives
//!   thousands of concurrent clients from a bounded worker pool.
//!
//! ## The equivalence spine
//!
//! A server fed the captures of a fleet campaign — any client order,
//! any concurrency, any shard count — snapshots **byte-identically**
//! to the offline `fleet::run` of the same campaign. This holds
//! because population folding is commutative over integer counters in
//! `BTreeMap`s, streaming pcap decode preserves the writer's frame
//! order, and both paths run the same
//! [`POPULATION_PASSES`](v6brick_core::population::POPULATION_PASSES).
//! `crates/experiments/tests/ingest_equivalence.rs` pins it.

pub mod client;
pub mod conn;
pub mod daemon;
pub mod loadgen;
pub mod poll;
pub mod recover;
pub mod server;
pub mod signal;
pub mod snapshot;
pub mod state;
pub mod wal;
pub mod wire;

pub use client::{Client, ClientError};
pub use recover::{recover, RecoverOrigin, Recovered};
pub use server::{spawn, ServerConfig, ServerHandle, ShutdownHandle};
pub use state::{AbsorbOutcome, SharedState, StatsReport};
pub use wire::{DeviceEntry, ErrorCode, UploadAck, UploadBundle, UploadHeader};
