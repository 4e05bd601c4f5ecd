#![warn(missing_docs)]
//! # v6brick-fleet — parallel multi-home campaign simulation
//!
//! The paper measures one physical testbed of 93 devices. This crate
//! scales that design out: synthesize `N` independent smart homes (each
//! a deterministic subsample of the device registry under a network
//! config drawn from the Table 2 matrix), simulate them on a worker
//! pool, and stream each finished home into a mergeable
//! [`PopulationReport`] so memory stays `O(workers)`, not `O(homes)`.
//!
//! Determinism is the design center:
//!
//! * every home's seed derives from `(campaign_seed, home_index)` alone
//!   ([`seed::home_seed`]) — home 17 of a 32-home campaign is
//!   bit-identical to home 17 of a 1000-home campaign;
//! * the pool has one executor, [`pool::run_partials`]: each worker
//!   folds the homes it ran into its own partial, and the partials'
//!   commutative merge produces the same bytes as a serial fold, across
//!   worker counts. [`pool::run_indexed`] folds over the same executor
//!   **in item order**, holding every result until the last item has
//!   run — for callers that keep every result anyway;
//! * campaigns **stream**: [`plan::plan_homes_iter`] derives each home
//!   lazily from `(campaign_seed, index)` and idle workers pull from any
//!   `IntoIterator`, so a million-home campaign folded into partials
//!   holds `O(workers)` specs, results, and report partials at any
//!   instant.
//!
//! The crate is generic over the network-config type so it does not
//! depend on the experiment harness; `v6brick-experiments` supplies the
//! per-home runner (build → simulate → analyze → drop capture) and the
//! `repro fleet` CLI on top.

pub mod checkpoint;
pub mod plan;
pub mod pool;
pub mod seed;

pub use checkpoint::{Checkpoint, CheckpointError, Fingerprint};
pub use plan::{plan_home, plan_homes, plan_homes_iter, HomeSpec};
pub use pool::{run_indexed, run_indexed_outcomes, run_partials, ItemPanic};
pub use seed::home_seed;
pub use v6brick_core::population::PopulationReport;
