//! `paper`: everything `repro all` does.
//!
//! The six Table 2 configs × all 93 device models on one LAN with 420 s
//! windows and the union of every generator's analyzer passes, then
//! every table and figure, the active DNS probe and the quick port
//! scans. The suite's seed is fixed by the public API, so `--seed` does
//! not change this workload's inputs.

use crate::layers::{self, Counters, SharedCounters};
use crate::metrics::Outcome;
use crate::{trace, Args, UnitOutput};
use std::fmt::Write as _;
use std::sync::{Arc, Mutex};
use v6brick_core::analysis::PassId;
use v6brick_core::ports;
use v6brick_devices::registry;
use v6brick_experiments::figures::{
    self, FIGURE2_PASSES, FIGURE3_PASSES, FIGURE4_PASSES, FIGURE5_PASSES,
};
use v6brick_experiments::portscan::{scan, ScanPlan};
use v6brick_experiments::render::TextTable;
use v6brick_experiments::scenario::{ExperimentRun, EXPERIMENT_DURATION};
use v6brick_experiments::{
    active_dns, config, scenario, tables, tracking, ExperimentSuite, NetworkConfig,
};
use v6brick_fleet::run_indexed;

/// The base seed `ExperimentSuite` runs every config under
/// (`scenario::run_with_profiles`); the traced rebuild must match it.
const SUITE_SEED: u64 = 0x6b1c_0000;

/// Table 3's Total column, top to bottom, in the paper.
const TABLE3_TOTALS: [i64; 9] = [34, 59, 8, 51, 27, 22, 19, 19, 8];

pub struct Inputs {
    passes: Vec<PassId>,
}

/// `repro all`'s analyzer passes: the union over every table, figure
/// and the tracking report.
pub fn setup() -> Inputs {
    registry::shared();
    let mut passes = tables::all_table_passes();
    for extra in [
        FIGURE2_PASSES,
        FIGURE3_PASSES,
        FIGURE4_PASSES,
        FIGURE5_PASSES,
        tracking::PASSES,
    ] {
        for p in extra {
            if !passes.contains(p) {
                passes.push(*p);
            }
        }
    }
    Inputs { passes }
}

fn metric_name(c: NetworkConfig) -> &'static str {
    match c {
        NetworkConfig::Ipv4Only => "experiments.config_s.ipv4-only",
        NetworkConfig::Ipv6Only => "experiments.config_s.ipv6-only",
        NetworkConfig::Ipv6OnlyRdnssOnly => "experiments.config_s.ipv6-only-rdnss",
        NetworkConfig::Ipv6OnlyStateful => "experiments.config_s.ipv6-only-stateful",
        NetworkConfig::DualStack => "experiments.config_s.dual-stack",
        NetworkConfig::DualStackStateful => "experiments.config_s.dual-stack-stateful",
        NetworkConfig::Ipv6OnlyEnterprise => unreachable!("not part of the suite"),
    }
}

/// Render `repro all`'s stdout for `suite`, recording spans for the
/// table rendering, the active DNS probe and the port scans.
fn render_all(suite: &ExperimentSuite) -> String {
    let mut out = String::new();
    let print = |out: &mut String, t: TextTable| {
        let _ = writeln!(out, "{t}\n");
    };
    trace::span("tables", 0, None, || {
        let _ = writeln!(out, "{}", config::table2());
        print(&mut out, tables::table3(suite));
        print(&mut out, figures::figure2(suite));
        print(&mut out, tables::table4(suite));
        print(&mut out, tables::table5(suite));
        print(&mut out, tables::table6(suite));
    });
    let a = trace::span("active_dns", 0, None, || {
        active_dns::probe(
            suite.observed_domains(),
            scenario::build_zones(&suite.profiles),
        )
    });
    trace::span("tables", 0, None, || {
        print(&mut out, tables::table7(suite, &a));
        print(&mut out, tables::table8(suite));
        print(&mut out, tables::table9(suite, &a));
        print(&mut out, tables::table10(suite));
        print(&mut out, tables::table11(suite));
        print(&mut out, tables::table12(suite));
        print(&mut out, tables::table13(suite));
        print(&mut out, figures::figure3(suite));
        print(&mut out, figures::figure4(suite));
        print(&mut out, figures::figure5(suite));
        print(&mut out, tables::variants(suite));
        print(&mut out, tables::dad_report(suite));
        print(&mut out, tracking::tracking_table(suite));
    });
    trace::span("portscan", 0, None, || {
        let plan = ScanPlan::quick();
        let profiles = registry::build();
        let results = scan(&profiles, &plan);
        let mut t = TextTable::new("Port scans (§5.4.2): devices with asymmetric v4/v6 exposure")
            .headers(["Device", "v4-only TCP", "v6-only TCP", "both"]);
        let fmt = |s: &std::collections::BTreeSet<u16>| {
            s.iter()
                .map(|p| p.to_string())
                .collect::<Vec<_>>()
                .join(",")
        };
        for p in &profiles {
            let d = ports::diff(&results[&p.id].v4, &results[&p.id].v6);
            if d.is_asymmetric() {
                t.row([
                    p.name.clone(),
                    fmt(&d.tcp_v4_only),
                    fmt(&d.tcp_v6_only),
                    fmt(&d.tcp_both),
                ]);
            }
        }
        let _ = writeln!(out, "{t}");
    });
    out
}

/// Does the suite reproduce the paper's Table 3 Total column?
fn table3_ok(suite: &ExperimentSuite) -> bool {
    let h = tables::headline_numbers(suite);
    let n = suite.device_ids().count() as i64;
    let got = [
        n - h["t3_ndp"],
        h["t3_ndp"],
        h["t3_ndp"] - h["t3_addr"],
        h["t3_addr"],
        h["t3_gua"],
        h["t3_aaaa_v6"],
        h["t3_aaaa_pos"],
        h["t3_data"],
        h["t3_functional"],
    ];
    if got != TABLE3_TOTALS {
        eprintln!("paper: Table 3 totals {got:?}, want {TABLE3_TOTALS:?}");
    }
    got == TABLE3_TOTALS
}

/// One reproduction; returns the suite, the output digest, and the
/// suite's share of the wall time.
fn reproduce(w: &Inputs) -> (ExperimentSuite, u64, u64) {
    let (suite, suite_ns) = crate::timed_ns(|| ExperimentSuite::run_all_scoped(&w.passes));
    let text = render_all(&suite);
    (suite, layers::digest(text.as_bytes()), suite_ns)
}

/// One reproduction, as one `repro all` runs it, checked against the
/// paper's Table 3 and for frames the analyzer could not parse.
pub fn unit(w: &Inputs) -> UnitOutput {
    let (suite, digest, _) = reproduce(w);
    let parse_errors: u64 = suite.runs().iter().map(|r| r.analysis.parse_errors).sum();
    if parse_errors != 0 {
        eprintln!("paper: the analyzer could not parse {parse_errors} frames");
    }
    UnitOutput {
        campaign: 0,
        digest,
        attempted: 1,
        failed: 0,
        correct: table3_ok(&suite) && parse_errors == 0,
    }
}

/// The six configs rebuilt from public parts with traced homes, on the
/// same pool the suite uses.
fn traced_suite(w: &Inputs, counters: &SharedCounters) -> Vec<ExperimentRun> {
    let profiles = registry::build();
    run_indexed(
        NetworkConfig::ALL.to_vec(),
        crate::workers().min(NetworkConfig::ALL.len()),
        |c| {
            let open = trace::begin("config", c as u64, None);
            let run = layers::traced_home(
                None,
                c,
                &profiles,
                SUITE_SEED,
                EXPERIMENT_DURATION,
                &w.passes,
                c as u64,
                Some(open.id()),
                counters,
            );
            open.end();
            run
        },
        Vec::new(),
        |acc, _, run| acc.push(run),
    )
}

/// Alternate an untraced reproduction with a traced rebuild of its six
/// configs; every traced run must serialize like the untraced one.
pub fn traced(args: &Args, w: &Inputs) -> Result<Outcome, String> {
    let mut out = Outcome {
        correct: true,
        ..Default::default()
    };
    let counters: SharedCounters = Arc::new(Mutex::new(Counters::default()));
    let (mut ref_walls, mut traced_walls) = (Vec::new(), Vec::new());
    crate::repeat_for(args.seconds, || {
        let ((suite, _, suite_ns), (runs, traced_ns)) = crate::both_orders(
            traced_walls.len(),
            || reproduce(w),
            || crate::timed_ns(|| traced_suite(w, &counters)),
        );
        ref_walls.push(suite_ns);
        traced_walls.push(traced_ns);
        out.correct &= table3_ok(&suite);
        let want: Vec<String> = suite.runs().iter().map(layers::run_bytes).collect();
        let got: Vec<String> = runs.iter().map(layers::run_bytes).collect();
        if want != got {
            eprintln!("paper: traced configs differ from the suite's runs");
            out.correct = false;
        }
        out.attempted += 1;
        Ok(())
    })?;
    let spans = trace::drain();
    let counters = Arc::try_unwrap(counters)
        .expect("suite finished")
        .into_inner()
        .expect("counters poisoned");
    let units = traced_walls.len() as f64;
    let configs = NetworkConfig::ALL.len() as f64;
    layers::sim_metrics(&mut out, &spans, &counters, configs * units, units);
    let dur = trace::dur_by_name(&spans);
    let traced_only: Vec<trace::Span> = spans
        .iter()
        .filter(|s| !["tables", "active_dns", "portscan"].contains(&s.name))
        .cloned()
        .collect();
    let ledger = layers::pool_metrics(
        &mut out,
        &traced_only,
        &["config"],
        counters.device_ns + counters.sink_ns,
        dur.get("config").copied().unwrap_or(0),
        traced_walls.iter().sum(),
        crate::workers().min(NetworkConfig::ALL.len()),
    );
    if !layers::ledger_ok(ledger) {
        eprintln!("paper: layers account for {ledger:.3} of workers x wall");
        out.correct = false;
    }
    for c in NetworkConfig::ALL {
        let ns: u64 = spans
            .iter()
            .filter(|s| s.name == "config" && s.group == c as u64)
            .map(trace::Span::dur_ns)
            .sum();
        out.set(metric_name(c), ns as f64 / units / 1e9);
    }
    for (span, name) in [
        ("tables", "experiments.tables_s"),
        ("active_dns", "experiments.active_dns_s"),
        ("portscan", "experiments.portscan_s"),
    ] {
        out.set(
            name,
            dur.get(span).copied().unwrap_or(0) as f64 / units / 1e9,
        );
    }
    let overhead = crate::overhead_frac(&ref_walls, &traced_walls);
    out.set("trace.overhead_frac", overhead);
    eprintln!(
        "paper: {} traced suites, tracing overhead {:+.1}%, ledger {ledger:.3}",
        traced_walls.len(),
        overhead * 100.0
    );
    crate::write_spans(args, "paper", &spans)?;
    Ok(out)
}
