//! `wanscan`: the WAN exposure campaign.
//!
//! 128 homes of 3–8 devices over the five v6-capable configs, scanned
//! from the internet under all three firewall policies after the
//! default 90 s settle, with half the homes behind a 6LoWPAN border
//! router (`mesh_per_mille` 500). Untraced, each unit is one
//! `wanscan::run` — what `repro wanscan 128 --mesh-per-mille 500` runs —
//! over the run's rotating campaign seeds.

use crate::layers;
use crate::metrics::Outcome;
use crate::{stats, trace, Args, UnitOutput};
use v6brick_core::exposure::{ExposureReport, HomeScanOutcome};
use v6brick_devices::registry;
use v6brick_experiments::fleet::home_is_mesh;
use v6brick_experiments::wanscan::{self, WanScanSpec};
use v6brick_fleet::{plan_homes, run_indexed_outcomes};
use v6brick_sim::{FirewallPolicy, SimTime};

/// Homes per campaign: enough for a p90 of per-home time with ten homes
/// beyond it.
pub const HOMES: u64 = 128;
const MESH_PER_MILLE: u32 = 500;

pub struct Inputs {
    specs: Vec<WanScanSpec>,
}

pub fn setup(seed: u64) -> Inputs {
    registry::shared();
    let specs = crate::campaign_seeds(seed)
        .into_iter()
        .map(|seed| WanScanSpec {
            homes: HOMES,
            seed,
            workers: crate::workers(),
            mesh_per_mille: MESH_PER_MILLE,
            ..Default::default()
        })
        .collect();
    Inputs { specs }
}

/// Check one campaign's report and return its serialized bytes.
fn checked(spec: &WanScanSpec, report: &ExposureReport, correct: &mut bool) -> String {
    let violations = report.monotonic_violations();
    let open_under_deny: u64 = report
        .cells
        .keys()
        .map(|category| report.open_ports(category, FirewallPolicy::DefaultDeny.label()))
        .sum();
    if report.homes != spec.homes
        || !report.failures.is_empty()
        || !violations.is_empty()
        || open_under_deny != 0
    {
        eprintln!(
            "wanscan: {} of {} homes, {} failures, violations {violations:?}, \
             {open_under_deny} ports open under default-deny",
            report.homes,
            spec.homes,
            report.failures.len()
        );
        *correct = false;
    }
    serde_json::to_string(report).expect("exposure report serializes")
}

/// Unit `k`: campaign `k % CAMPAIGNS` of the run, checked.
pub fn unit(w: &Inputs, k: usize) -> UnitOutput {
    let campaign = k % w.specs.len();
    let spec = &w.specs[campaign];
    let report = wanscan::run(spec);
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

fn policy_span(p: FirewallPolicy) -> &'static str {
    match p {
        FirewallPolicy::Open => "policy_open",
        FirewallPolicy::DefaultDeny => "policy_default-deny",
        FirewallPolicy::PinholedServices => "policy_pinholed",
    }
}

/// One campaign rebuilt from public parts: `wanscan::run`'s planner,
/// pool and in-order fold, with each home scanned one policy at a time
/// so every policy gets its own span. `scan_home` scans policies in
/// turn, each on a fresh simulation from the same seed, so the
/// concatenated outcome is the one a single call would return.
fn traced_campaign(spec: &WanScanSpec) -> ExposureReport {
    let (dev_min, dev_max) = spec.device_range;
    let plans = trace::span("plan", 0, None, || {
        plan_homes(spec.seed, spec.homes, &spec.mix, dev_min..=dev_max)
    });
    let settle = SimTime::from_secs(spec.settle_s);
    let (mut report, failures) = run_indexed_outcomes(
        plans,
        spec.workers,
        |home| {
            let mesh = home_is_mesh(home.seed, spec.mesh_per_mille);
            let open = trace::begin(
                if mesh { "home_mesh" } else { "home_eth" },
                home.index,
                None,
            );
            let mut out = HomeScanOutcome {
                devices: home.profiles.len() as u64,
                ..Default::default()
            };
            for &policy in &spec.policies {
                let o = trace::span(policy_span(policy), home.index, Some(open.id()), || {
                    wanscan::scan_home(&home, &[policy], &spec.plan, settle, mesh)
                });
                out.targets.extend(o.targets);
                out.hitlist.extend(o.hitlist);
            }
            open.end();
            out
        },
        ExposureReport::new(spec.seed),
        |report, index, outcome| {
            trace::span("absorb", index, None, || report.absorb_home(&outcome))
        },
    );
    for f in failures {
        report.absorb_failure(f.index, f.message);
    }
    report
}

/// Alternate untraced and traced campaigns; the traced one must
/// reproduce the untraced report byte for byte.
pub fn traced(args: &Args, w: &Inputs) -> Result<Outcome, String> {
    let spec = &w.specs[0];
    let mut out = Outcome {
        correct: true,
        ..Default::default()
    };
    let (mut ref_walls, mut traced_walls) = (Vec::new(), Vec::new());
    crate::repeat_for(args.seconds, || {
        let ((reference, ref_ns), (traced, traced_ns)) = crate::both_orders(
            traced_walls.len(),
            || crate::timed_ns(|| wanscan::run(spec)),
            || crate::timed_ns(|| traced_campaign(spec)),
        );
        ref_walls.push(ref_ns);
        traced_walls.push(traced_ns);
        let want = checked(spec, &reference, &mut out.correct);
        let got = checked(spec, &traced, &mut out.correct);
        if got != want {
            eprintln!("wanscan: traced campaign differs from wanscan::run");
            out.correct = false;
        }
        out.attempted += spec.homes;
        Ok(())
    })?;
    let spans = trace::drain();
    let units = traced_walls.len() as f64;
    let dur = trace::dur_by_name(&spans);
    let get = |k: &str| dur.get(k).copied().unwrap_or(0);
    let (mesh, eth) = (
        trace::durations(&spans, "home_mesh"),
        trace::durations(&spans, "home_eth"),
    );
    let mean_ms = |v: &[f64]| v.iter().sum::<f64>() / (v.len().max(1) as f64) / 1e6;
    out.set("experiments.wanscan.home_ms.mesh", mean_ms(&mesh));
    out.set("experiments.wanscan.home_ms.eth", mean_ms(&eth));
    for (span, name) in [
        ("policy_open", "experiments.wanscan.policy_s.open"),
        (
            "policy_default-deny",
            "experiments.wanscan.policy_s.default-deny",
        ),
        ("policy_pinholed", "experiments.wanscan.policy_s.pinholed"),
    ] {
        out.set(name, get(span) as f64 / units / 1e9);
    }
    let homes: Vec<f64> = mesh.iter().chain(&eth).copied().collect();
    out.set("fleet.home_ms_p50", stats::percentile(&homes, 50.0)? / 1e6);
    out.set("fleet.home_ms_p90", stats::percentile(&homes, 90.0)? / 1e6);
    out.set("core.merge_ms", get("absorb") as f64 / units / 1e6);
    let ledger = layers::pool_metrics(
        &mut out,
        &spans,
        &["home_mesh", "home_eth"],
        0,
        get("home_mesh") + get("home_eth"),
        traced_walls.iter().sum(),
        spec.workers,
    );
    let overhead = crate::overhead_frac(&ref_walls, &traced_walls);
    out.set("trace.overhead_frac", overhead);
    eprintln!(
        "wanscan: {} traced campaigns, tracing overhead {:+.1}%, ledger {ledger:.3}",
        traced_walls.len(),
        overhead * 100.0
    );
    crate::write_spans(args, "wanscan", &spans)?;
    Ok(out)
}
