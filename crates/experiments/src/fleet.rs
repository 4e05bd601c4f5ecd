//! Fleet campaigns: many synthetic homes, one population report.
//!
//! Wires the generic `v6brick-fleet` machinery to this crate's
//! experiment harness: a [`CampaignSpec`] describes the population
//! (home count, seed, worker pool, device-count range, Table 2 config
//! mix, experiment duration); [`run`] streams lazily-planned homes
//! through the worker pool, simulates each with the crate's one home
//! executor (on Ethernet, or behind a 6LoWPAN border router for the
//! `mesh_per_mille` share of homes), and folds the per-device
//! observations into per-worker [`PopulationReport`] partials that merge
//! at the end. An Ethernet home analyzes **streaming off the capture
//! tap**, so no per-home byte buffer ever exists; a mesh home buffers
//! its LAN capture only until the executor has replayed it. Each home's
//! flow table drops as soon as the observations are folded in. Campaign
//! memory is `O(workers)`, never `O(homes)`:
//! specs are derived on demand from `(campaign_seed, index)`, profiles
//! are `&'static` registry handles, failure metadata is re-derived from
//! the failed index, and only one report partial per worker crosses a
//! thread boundary.
//!
//! The report is byte-identical across worker counts for a fixed spec —
//! the per-home absorb order differs under the hierarchical merge, but
//! every aggregate is a sum of per-home integer contributions, so any
//! partition of the homes merges to the same bytes
//! (`tests/fleet_determinism.rs` pins this end to end).

use crate::config::NetworkConfig;
use crate::scenario::{self, Link, ZoneCache};
use std::collections::BTreeMap;
use std::path::Path;
use v6brick_core::analysis::PassId;
use v6brick_core::funnel::Stage;
use v6brick_core::observe::DeviceObservation;
use v6brick_core::population::{HomeFailure, PopulationReport};
use v6brick_fleet::seed::fold_bytes;
use v6brick_fleet::{plan_home, run_partials, Checkpoint, CheckpointError, Fingerprint, HomeSpec};
use v6brick_sim::{FaultPlan, SimTime};

/// Re-export of [`v6brick_core::population::POPULATION_PASSES`] (which
/// moved to core so the `v6brickd` ingestion daemon shares the exact
/// pass subset): the passes whose fields the [`PopulationReport`]
/// reads. `bench_ablation_passes` measures the saving over the full set
/// and `tests/fleet_determinism.rs` pins that the report stays
/// byte-identical to a full-pass run.
pub use v6brick_core::population::POPULATION_PASSES;

/// Description of a whole campaign.
#[derive(Debug, Clone)]
pub struct CampaignSpec {
    /// Number of homes to synthesize.
    pub homes: u64,
    /// Campaign seed; every home seed derives from it.
    pub seed: u64,
    /// Worker threads (1 = inline reference path).
    pub workers: usize,
    /// Inclusive range for devices per home.
    pub device_range: (usize, usize),
    /// Weighted network-config mix each home draws from.
    pub mix: Vec<(NetworkConfig, u32)>,
    /// Simulated duration per home, seconds.
    pub duration_s: u64,
    /// Analyzer passes each home runs (dependencies are added
    /// automatically). Defaults to [`POPULATION_PASSES`].
    pub passes: Vec<PassId>,
    /// Per-mille of homes whose IoT devices sit behind a 6LoWPAN border
    /// router instead of directly on Ethernet (0 = the pre-mesh,
    /// Ethernet-only population; 1000 = every home meshed). The draw
    /// uses each home's own seed, so home `i`'s topology is independent
    /// of campaign size and worker count.
    pub mesh_per_mille: u32,
    /// Chaos injection: home indices whose runner deliberately panics
    /// before simulating, exercising the pool's crash isolation. Empty
    /// in every real campaign; populated by `--chaos-home` and the
    /// crash-isolation regression tests.
    pub chaos_panic_homes: Vec<u64>,
}

impl Default for CampaignSpec {
    /// 64 homes of 3–12 devices, equal draw over the six Table 2
    /// configs, full 420 s experiment windows, single-threaded,
    /// population-relevant passes only.
    fn default() -> Self {
        CampaignSpec {
            homes: 64,
            seed: 0x6b1c,
            workers: 1,
            device_range: (3, 12),
            mix: NetworkConfig::ALL.iter().map(|c| (*c, 1)).collect(),
            duration_s: 420,
            passes: POPULATION_PASSES.to_vec(),
            mesh_per_mille: 0,
            chaos_panic_homes: Vec::new(),
        }
    }
}

/// Does home `home_seed` of a campaign run the mesh topology? The draw
/// step (4) is disjoint from the planner's config/count/subsample draws
/// (1–3), so adding the mesh axis moves no existing draw.
pub fn home_is_mesh(home_seed: u64, mesh_per_mille: u32) -> bool {
    v6brick_fleet::seed::home_seed(home_seed, 4) % 1000 < u64::from(mesh_per_mille)
}

/// What survives of a home once its simulation ends: the per-device
/// observations and outcomes, and no capture.
struct HomeResult {
    config_label: &'static str,
    devices: BTreeMap<String, DeviceObservation>,
    functional: BTreeMap<String, bool>,
    frames: u64,
}

fn simulate_home(
    scratch: &mut ZoneCache,
    home: HomeSpec<NetworkConfig>,
    duration: SimTime,
    passes: &[PassId],
    mesh_per_mille: u32,
) -> HomeResult {
    let mesh = home_is_mesh(home.seed, mesh_per_mille);
    let link = if mesh { Link::Mesh } else { Link::Ethernet };
    let run = scenario::execute(
        home.config,
        &home.profiles,
        home.seed,
        duration,
        passes,
        FaultPlan::new(),
        scratch.zones_for(&home.profiles),
        link,
        false,
    )
    .run;
    HomeResult {
        config_label: if mesh {
            run.config.mesh_label()
        } else {
            run.config.label()
        },
        devices: run.analysis.devices,
        functional: run.functional,
        frames: run.frames,
    }
    // `run.analysis.flows` and everything else drops here, on the
    // worker thread — peak memory is one analyzer's state per worker,
    // independent of how many frames the home generated.
}

/// Execute a campaign and aggregate the population report.
///
/// Homes stream from the lazy planner into [`run_partials`]: each
/// worker reuses its [`ZoneCache`] scratch across homes and folds
/// results into its own partial report; the partials merge afterwards
/// ([`PopulationReport::merge`] is associative and commutative, so the
/// merged bytes equal the serial in-order fold's).
///
/// Homes that panic are isolated and recorded in
/// [`PopulationReport::failures`](PopulationReport) — they never abort
/// the pool, and (because failures are `#[serde(skip)]`) never perturb
/// the serialized aggregates over the surviving homes. Their seed and
/// config label are re-derived from the failed index alone.
pub fn run(spec: &CampaignSpec) -> PopulationReport {
    let (mut report, failures) = run_range(spec, 0, spec.homes);
    for f in failures {
        report.absorb_failure(f);
    }
    report
}

/// Simulate homes `start..end` of the campaign and return the merged
/// partial report over that range plus the failures inside it.
///
/// This is the shared engine under [`run`] (one range covering the
/// whole campaign) and [`run_checkpointed`] (one range per checkpoint
/// chunk). Failure indices are globalized (the pool enumerates items
/// from zero within each range) and their metadata re-derived from the
/// index alone — no `O(homes)` map, same as before the refactor.
fn run_range(spec: &CampaignSpec, start: u64, end: u64) -> (PopulationReport, Vec<HomeFailure>) {
    let (dev_min, dev_max) = spec.device_range;
    let duration = SimTime::from_secs(spec.duration_s);
    let chaos = &spec.chaos_panic_homes;
    let (partials, panics) = run_partials(
        (start..end).map(|i| plan_home(spec.seed, i, &spec.mix, dev_min..=dev_max)),
        spec.workers,
        ZoneCache::new,
        move |scratch, home: HomeSpec<NetworkConfig>| {
            assert!(
                !chaos.contains(&home.index),
                "chaos: poisoned home {} (seed {:#x})",
                home.index,
                home.seed
            );
            simulate_home(scratch, home, duration, &spec.passes, spec.mesh_per_mille)
        },
        || PopulationReport::new(spec.seed),
        |partial, _index, home| {
            partial.absorb_home(
                home.config_label,
                &home.devices,
                &home.functional,
                home.frames,
            );
        },
    );
    let mut report = PopulationReport::new(spec.seed);
    for partial in &partials {
        report.merge(partial);
    }
    let failures = panics
        .into_iter()
        .map(|p| {
            // The pool enumerates the range's items from zero; globalize
            // before re-deriving the failed home's spec from its index
            // exactly as the planner derived it the first time.
            let index = start + p.index;
            let home = plan_home(spec.seed, index, &spec.mix, dev_min..=dev_max);
            HomeFailure {
                index,
                seed: home.seed,
                config_label: home.config.label().to_string(),
                panic_msg: p.message,
            }
        })
        .collect();
    (report, failures)
}

/// Campaign identity for checkpoint validation: seed and home count
/// directly, everything else that shapes the result bytes folded into
/// `spec_hash`. Worker count is deliberately excluded — the report is
/// byte-identical across worker counts, so resuming a 1-worker run
/// with 8 workers is sound (and pinned by `tests/checkpoint_resume.rs`).
pub fn fingerprint(spec: &CampaignSpec) -> Fingerprint {
    use std::fmt::Write;
    let mut desc = String::new();
    let _ = write!(
        desc,
        "dev={}..={};dur={};",
        spec.device_range.0, spec.device_range.1, spec.duration_s
    );
    for (config, weight) in &spec.mix {
        let _ = write!(desc, "mix={}*{weight};", config.label());
    }
    for pass in &spec.passes {
        let _ = write!(desc, "pass={pass:?};");
    }
    // Appended only when set, so pre-mesh checkpoints stay resumable:
    // an Ethernet-only spec hashes exactly as it did before the axis.
    if spec.mesh_per_mille > 0 {
        let _ = write!(desc, "mesh={};", spec.mesh_per_mille);
    }
    for home in &spec.chaos_panic_homes {
        let _ = write!(desc, "chaos={home};");
    }
    Fingerprint {
        campaign_seed: spec.seed,
        homes: spec.homes,
        spec_hash: fold_bytes(0xf1e7_c4a9, desc.as_bytes()),
    }
}

/// Outcome of one [`run_checkpointed`] leg.
pub struct CheckpointedRun {
    /// The complete campaign report — `None` when the leg paused at
    /// `stop_after` chunks with homes still remaining.
    pub report: Option<PopulationReport>,
    /// First home index not yet simulated (`spec.homes` when complete).
    pub next_index: u64,
    /// Home index the leg resumed from, when a checkpoint was loaded.
    pub resumed_from: Option<u64>,
    /// Checkpoint chunks executed by this leg.
    pub chunks_run: u64,
}

/// Execute a campaign in checkpointed chunks of `every` homes,
/// persisting progress to `path` after each chunk.
///
/// With `resume`, a checkpoint at `path` (validated against the spec's
/// [`fingerprint`]) restarts the campaign from its `next_index`; a
/// missing file starts from zero. `stop_after` bounds how many chunks
/// this leg runs before pausing (used by `--stop-after` and the resume
/// determinism tests); `None` runs to completion.
///
/// Because [`PopulationReport::merge`] is associative and commutative
/// and every home derives from `(campaign_seed, index)` alone, a
/// campaign split across any number of pause/resume legs serializes
/// byte-identically to an uninterrupted [`run`].
pub fn run_checkpointed(
    spec: &CampaignSpec,
    path: &Path,
    every: u64,
    resume: bool,
    stop_after: Option<u64>,
) -> Result<CheckpointedRun, CheckpointError> {
    let fp = fingerprint(spec);
    let every = every.max(1);
    let (mut report, mut failures, mut next, resumed_from) = match resume {
        true => match Checkpoint::load(path, fp)? {
            Some(ck) => (ck.report, ck.failures, ck.next_index, Some(ck.next_index)),
            None => (PopulationReport::new(spec.seed), Vec::new(), 0, None),
        },
        false => (PopulationReport::new(spec.seed), Vec::new(), 0, None),
    };
    let mut chunks_run = 0u64;
    while next < spec.homes {
        if let Some(limit) = stop_after {
            if chunks_run >= limit {
                return Ok(CheckpointedRun {
                    report: None,
                    next_index: next,
                    resumed_from,
                    chunks_run,
                });
            }
        }
        let end = (next + every).min(spec.homes);
        let (chunk_report, chunk_failures) = run_range(spec, next, end);
        report.merge(&chunk_report);
        failures.extend(chunk_failures);
        next = end;
        chunks_run += 1;
        Checkpoint {
            fingerprint: fp,
            next_index: next,
            report: report.clone(),
            failures: failures.clone(),
        }
        .save(path)?;
    }
    // Failures live outside the checkpointed report (the field is
    // `serde(skip)`) and are absorbed only on completion, exactly as
    // `run` does at its end.
    for f in failures {
        report.absorb_failure(f);
    }
    Ok(CheckpointedRun {
        report: Some(report),
        next_index: next,
        resumed_from,
        chunks_run,
    })
}

/// Human-readable campaign summary (the non-`--json` CLI output).
pub fn render(report: &PopulationReport) -> String {
    use std::fmt::Write;
    let mut out = String::new();
    let pct = |n: u64| 100.0 * n as f64 / report.devices.max(1) as f64;
    let _ = writeln!(
        out,
        "Fleet campaign: {} homes, {} devices (seed {:#x})",
        report.homes, report.devices, report.campaign_seed
    );
    let _ = writeln!(out, "\nHomes per network config:");
    for (label, n) in &report.homes_by_config {
        let outcome = &report.per_config[label];
        let _ = writeln!(
            out,
            "  {label:<34} {n:>5} homes  {:>5} devices  {:>5.1}% functional",
            outcome.devices,
            100.0 * outcome.functional as f64 / outcome.devices.max(1) as f64
        );
    }
    let _ = writeln!(out, "\nIPv6 funnel (Table 3 marginals, % of all devices):");
    for stage in Stage::ALL {
        let name = match stage {
            Stage::NdpTraffic => "NDP traffic",
            Stage::V6Addr => "IPv6 address",
            Stage::ActiveGua => "Active GUA",
            Stage::AaaaQueryV6 => "AAAA over v6",
            Stage::AaaaAnswerV6 => "AAAA answered",
            Stage::V6InternetData => "v6 Internet data",
            Stage::Functional => "Functional",
        };
        let n = report.funnel.count(stage);
        let _ = writeln!(out, "  {name:<18} {n:>6}  {:>5.1}%", pct(n));
    }
    let b = &report.behavior;
    let _ = writeln!(out, "\nBehaviour (Table 5 marginals):");
    for (name, n) in [
        ("Stateful DHCPv6", b.dhcpv6_stateful),
        ("ULA", b.ula),
        ("LLA", b.lla),
        ("EUI-64 address", b.eui64_addr),
        ("DNS over IPv6", b.dns_over_v6),
        ("AAAA any transport", b.aaaa_any),
        ("AAAA v4-only", b.aaaa_v4_only),
        ("DHCPv4 used", b.dhcpv4_used),
    ] {
        let _ = writeln!(out, "  {name:<18} {n:>6}  {:>5.1}%", pct(n));
    }
    let _ = writeln!(out, "\nActive IPv6 addresses per device (CDF):");
    for (value, fraction) in report.addr_hist.cdf() {
        let _ = writeln!(out, "  <= {value:>3}  {:>6.1}%", 100.0 * fraction);
    }
    let t = &report.traffic;
    let _ = writeln!(
        out,
        "\nTraffic: {} frames; {} B v6 Internet, {} B v4 Internet, {} B v6 local",
        t.frames, t.v6_internet_bytes, t.v4_internet_bytes, t.v6_local_bytes
    );
    out
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn tiny_campaign_runs_and_counts() {
        let spec = CampaignSpec {
            homes: 3,
            seed: 5,
            workers: 2,
            device_range: (2, 3),
            duration_s: 45,
            ..Default::default()
        };
        let report = run(&spec);
        assert_eq!(report.homes, 3);
        assert!(report.devices >= 6 && report.devices <= 9);
        assert!(report.traffic.frames > 0);
        assert!(report.failures.is_empty());
        let rendered = render(&report);
        assert!(rendered.contains("3 homes"));
    }

    /// Acceptance: a campaign with one deliberately-panicking home
    /// completes, reports exactly that home as failed, and serializes
    /// byte-identically to a campaign that folds only the survivors.
    #[test]
    fn poisoned_home_is_isolated_and_invisible_in_the_report() {
        let spec = CampaignSpec {
            homes: 4,
            seed: 9,
            workers: 2,
            device_range: (2, 3),
            duration_s: 45,
            chaos_panic_homes: vec![2],
            ..Default::default()
        };
        let poisoned = run(&spec);
        assert_eq!(poisoned.failures.len(), 1);
        let failure = &poisoned.failures[0];
        assert_eq!(failure.index, 2);
        assert!(failure.panic_msg.contains("poisoned home 2"));
        assert!(!failure.config_label.is_empty());
        assert_eq!(poisoned.homes, 3);

        // Reference: same plans, the poisoned index simply never exists.
        let plans = v6brick_fleet::plan_homes(spec.seed, spec.homes, &spec.mix, 2..=3);
        assert_eq!(plans[2].seed, failure.seed);
        let duration = SimTime::from_secs(spec.duration_s);
        let mut clean = PopulationReport::new(spec.seed);
        let mut scratch = ZoneCache::new();
        for home in plans.into_iter().filter(|h| h.index != 2) {
            let r = simulate_home(&mut scratch, home, duration, &spec.passes, 0);
            clean.absorb_home(r.config_label, &r.devices, &r.functional, r.frames);
        }
        assert_eq!(
            serde_json::to_string(&poisoned).unwrap(),
            serde_json::to_string(&clean).unwrap()
        );
    }
}
