//! `fleet`: a population campaign of small Ethernet homes.
//!
//! 1,000 homes of 3–12 devices over the six Table 2 configs, 10 s
//! windows (the ROADMAP's baseline campaign), `POPULATION_PASSES`, one
//! worker per core. Untraced, each unit is one `fleet::run` — what
//! `repro fleet 1000 --duration 10` runs — over the run's rotating
//! campaign seeds.

use crate::layers::{self, Counters, SharedCounters};
use crate::metrics::Outcome;
use crate::{stats, trace, Args, UnitOutput};
use std::sync::{Arc, Mutex};
use v6brick_core::population::PopulationReport;
use v6brick_devices::registry;
use v6brick_experiments::fleet::{self, CampaignSpec};
use v6brick_experiments::scenario::ZoneCache;
use v6brick_experiments::NetworkConfig;
use v6brick_fleet::{plan_home, run_partials, HomeSpec};
use v6brick_sim::SimTime;

/// Homes per campaign.
pub const HOMES: u64 = 1000;
/// Simulated seconds per home.
const WINDOW_S: u64 = 10;

pub struct Inputs {
    specs: Vec<CampaignSpec>,
}

pub fn setup(seed: u64) -> Inputs {
    registry::shared();
    let specs = crate::campaign_seeds(seed)
        .into_iter()
        .map(|seed| CampaignSpec {
            homes: HOMES,
            seed,
            workers: crate::workers(),
            duration_s: WINDOW_S,
            ..Default::default()
        })
        .collect();
    Inputs { specs }
}

/// Check one campaign's report and return its serialized bytes.
fn checked(spec: &CampaignSpec, report: &PopulationReport, correct: &mut bool) -> String {
    if report.homes != spec.homes || !report.failures.is_empty() {
        eprintln!(
            "fleet: {} of {} homes reported, {} failures",
            report.homes,
            spec.homes,
            report.failures.len()
        );
        *correct = false;
    }
    serde_json::to_string(report).expect("population report serializes")
}

/// Unit `k`: campaign `k % CAMPAIGNS` of the run, checked.
pub fn unit(w: &Inputs, k: usize) -> UnitOutput {
    let campaign = k % w.specs.len();
    let spec = &w.specs[campaign];
    let report = fleet::run(spec);
    let mut correct = true;
    let digest = layers::digest(checked(spec, &report, &mut correct).as_bytes());
    UnitOutput {
        campaign,
        digest,
        attempted: spec.homes,
        failed: report.failures.len() as u64,
        correct,
    }
}

/// One campaign rebuilt from public parts: the lazy planner, the
/// hierarchical pool with per-worker zone caches, traced homes, and the
/// partial merge — what `fleet::run` does, with spans.
pub fn traced_campaign(spec: &CampaignSpec, counters: &SharedCounters) -> PopulationReport {
    let (dev_min, dev_max) = spec.device_range;
    let duration = SimTime::from_secs(spec.duration_s);
    let (partials, panics) = run_partials(
        (0..spec.homes).map(|i| {
            trace::span("plan", i, None, || {
                plan_home(spec.seed, i, &spec.mix, dev_min..=dev_max)
            })
        }),
        spec.workers,
        ZoneCache::new,
        |cache, home: HomeSpec<NetworkConfig>| {
            let open = trace::begin("home", home.index, None);
            let run = layers::traced_home(
                Some(cache),
                home.config,
                &home.profiles,
                home.seed,
                duration,
                &spec.passes,
                home.index,
                Some(open.id()),
                counters,
            );
            open.end();
            (home.index, run)
        },
        || PopulationReport::new(spec.seed),
        |partial, _, (index, run)| {
            trace::span("absorb", index, None, || {
                partial.absorb_home(
                    run.config.label(),
                    &run.analysis.devices,
                    &run.functional,
                    run.frames,
                )
            })
        },
    );
    let mut report = PopulationReport::new(spec.seed);
    trace::span("merge", 0, None, || {
        for p in &partials {
            report.merge(p);
        }
    });
    assert!(
        panics.is_empty(),
        "traced home panicked: {:?}",
        panics.first().map(|p| &p.message)
    );
    report
}

/// Alternate untraced and traced campaigns; the traced one must
/// reproduce the untraced report byte for byte. Then run the ingest
/// probe, which serves the same kind of campaign through `v6brickd`.
pub fn traced(args: &Args, w: &Inputs) -> Result<Outcome, String> {
    let mut out = Outcome {
        correct: true,
        ..Default::default()
    };
    let counters: SharedCounters = Arc::new(Mutex::new(Counters::default()));
    let (mut ref_walls, mut traced_walls) = (Vec::new(), Vec::new());
    let (mut total, mut per_unit) = ((0, 0), None);
    crate::repeat_for(args.seconds, || {
        // One campaign throughout, so per-unit counts repeat exactly.
        let spec = &w.specs[0];
        let ((reference, ref_ns), (traced, traced_ns)) = crate::both_orders(
            traced_walls.len(),
            || crate::timed_ns(|| fleet::run(spec)),
            || crate::timed_ns(|| traced_campaign(spec, &counters)),
        );
        ref_walls.push(ref_ns);
        traced_walls.push(traced_ns);
        let want = checked(spec, &reference, &mut out.correct);
        let got = checked(spec, &traced, &mut out.correct);
        let c = counters.lock().expect("counters poisoned");
        let unit = (c.frames - total.0, c.bytes - total.1);
        total = (c.frames, c.bytes);
        if *per_unit.get_or_insert(unit) != unit {
            eprintln!("fleet: frame counts differ between traced campaigns");
            out.correct = false;
        }
        if got != want {
            eprintln!("fleet: traced campaign differs from fleet::run");
            out.correct = false;
        }
        out.attempted += spec.homes;
        Ok(())
    })?;
    let spans = trace::drain();
    let counters = Arc::try_unwrap(counters)
        .expect("campaigns finished")
        .into_inner()
        .expect("counters poisoned");
    let units = traced_walls.len() as f64;
    layers::sim_metrics(&mut out, &spans, &counters, HOMES as f64 * units, units);
    let dur = trace::dur_by_name(&spans);
    let busy = dur.get("home").copied().unwrap_or(0) + dur.get("absorb").copied().unwrap_or(0);
    let ledger = layers::pool_metrics(
        &mut out,
        &spans,
        &["home"],
        counters.device_ns + counters.sink_ns,
        busy,
        traced_walls.iter().sum(),
        crate::workers(),
    );
    if !layers::ledger_ok(ledger) {
        eprintln!("fleet: layers account for {ledger:.3} of workers x wall");
        out.correct = false;
    }
    let homes = trace::durations(&spans, "home");
    out.set("fleet.home_ms_p50", stats::percentile(&homes, 50.0)? / 1e6);
    out.set("fleet.home_ms_p90", stats::percentile(&homes, 90.0)? / 1e6);
    let merge_ns = dur.get("absorb").copied().unwrap_or(0) + dur.get("merge").copied().unwrap_or(0);
    out.set("core.merge_ms", merge_ns as f64 / units / 1e6);
    let overhead = crate::overhead_frac(&ref_walls, &traced_walls);
    out.set("trace.overhead_frac", overhead);
    eprintln!(
        "fleet: {} traced campaigns, tracing overhead {:+.1}%, ledger {ledger:.3}",
        traced_walls.len(),
        overhead * 100.0
    );
    crate::write_spans(args, "fleet", &spans)?;
    crate::ingest::probe(args, &mut out)?;
    Ok(out)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn traced_campaign_reproduces_fleet_run() {
        let spec = CampaignSpec {
            homes: 6,
            seed: 5,
            workers: 2,
            duration_s: 10,
            ..Default::default()
        };
        let counters = SharedCounters::default();
        let got = serde_json::to_string(&traced_campaign(&spec, &counters)).unwrap();
        assert_eq!(got, serde_json::to_string(&fleet::run(&spec)).unwrap());
        assert!(counters.lock().unwrap().frames > 0);
    }
}
