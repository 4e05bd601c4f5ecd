//! `repro` — regenerate every table and figure of the paper.
//!
//! ```text
//! repro all                 # everything (tables 2-13, figures 2-5, scans)
//! repro table3              # one artifact
//! repro figure4
//! repro portscan [--full]   # §5.4.2 (full = TCP 1-65535 like the paper)
//! repro tracking            # §5.4.3
//! repro dad                 # §5.2.1 DAD compliance
//! repro fleet 256 [--workers 8] [--seed 42] [--json]
//!                [--max-failures N] [--chaos-home IDX]...
//!                [--checkpoint PATH] [--resume] [--checkpoint-every N]
//!                [--stop-after N] [--mesh-per-mille N]
//!                           # parallel multi-home campaign; exits
//!                           # nonzero only when more than N homes fail.
//!                           # With --checkpoint, progress persists every
//!                           # N homes and --resume continues a stopped
//!                           # run byte-identically. --mesh-per-mille
//!                           # puts N‰ of homes behind a 6LoWPAN border
//!                           # router
//! repro mesh [--seed S] [--duration SECS] [--json]
//!                           # Table 3 across link layers: the same
//!                           # devices on Ethernet vs behind a 6LoWPAN
//!                           # border router; JSON is byte-deterministic
//!                           # per (seed, duration)
//! repro --scenario broken-v6 [--seed S]
//!                           # fault-injection preset (broken-v6,
//!                           # tunnel-flap, ra-suppress, dns-servfail):
//!                           # Table 9-style switching report as JSON
//! repro wanscan [HOMES] [--seed S] [--workers N] [--settle SECS]
//!               [--policy LABEL] [--mesh-per-mille N] [--json] [--verify]
//!                           # WAN-side exposure scan across firewall
//!                           # policies; --verify reruns at other worker
//!                           # counts and byte-diffs the report
//! repro serve [--addr HOST:PORT] [--seed N] [--shards N]
//!             [--max-upload-mb N] [--upload-timeout-ms N]
//!             [--read-timeout-ms N] [--loop-threads N]
//!             [--drain-deadline-ms N] [--max-conns N]
//!             [--data-dir PATH] [--snapshot-every N]
//!                           # run the v6brickd ingestion daemon (same
//!                           # flags, same main) until a wire SHUTDOWN
//!                           # (or SIGTERM/SIGINT) drains it; --data-dir
//!                           # write-ahead-logs every upload and
//!                           # recovers state on restart
//! repro stats [--addr HOST:PORT]
//!                           # print a running daemon's STATS JSON
//!                           # (wal_records, recovered_from, ...) — the
//!                           # CI crash-recovery smoke polls this
//! repro upload N [--addr HOST:PORT] [--clients N] [--seed N]
//!                [--duration S] [--workers N] [--dev-min N] [--dev-max N]
//!                [--chaos-home IDX]... [--verify] [--shutdown] [--json]
//!                           # simulate an N-home campaign, replay its
//!                           # captures at a v6brickd server over
//!                           # concurrent clients; --verify diffs the
//!                           # server snapshot against the offline fleet
//!                           # JSON byte-for-byte
//! ```

use std::env;
use v6brick_core::analysis::PassId;
use v6brick_core::ports;
use v6brick_experiments::portscan::{scan, ScanPlan};
use v6brick_experiments::render::TextTable;
use v6brick_experiments::suite::ExperimentSuite;
use v6brick_experiments::{
    active_dns, broken, config, enterprise, figures, fleet, mesh, reachability, scenario, tables,
    tracking, wanscan,
};

fn main() {
    let args: Vec<String> = env::args().skip(1).collect();
    let what = args.first().map(String::as_str).unwrap_or("all");
    let full_scan = args.iter().any(|a| a == "--full");

    if what == "table2" {
        println!("{}", config::table2());
        return;
    }
    if what == "portscan" {
        run_portscan(full_scan);
        return;
    }
    if what == "enterprise" {
        println!("{}", enterprise::report());
        return;
    }
    if what == "reachability" {
        println!("{}", reachability::report());
        return;
    }
    if what == "fleet" {
        run_fleet(&args[1..]);
        return;
    }
    if what == "mesh" {
        run_mesh_report(&args[1..]);
        return;
    }
    if what == "--scenario" || what == "scenario" {
        run_scenario(&args[1..]);
        return;
    }
    if what == "wanscan" {
        run_wanscan(&args[1..]);
        return;
    }
    if what == "serve" {
        // The `v6brickd` daemon in-process: its flags, its main.
        std::process::exit(v6brick_ingest::daemon::run(
            "repro serve",
            args[1..].iter().cloned(),
        ));
    }
    if what == "upload" {
        run_upload(&args[1..]);
        return;
    }
    if what == "stats" {
        run_stats(&args[1..]);
        return;
    }
    const KNOWN: &[&str] = &[
        "all", "table3", "table4", "table5", "table6", "table7", "table8", "table9", "table10",
        "table11", "table12", "table13", "figure2", "figure3", "figure4", "figure5", "dad",
        "variants", "tracking", "json",
    ];
    if !KNOWN.contains(&what) {
        // Reject unknown artifacts *before* paying for the 6-experiment
        // suite.
        refuse(format!("unknown artifact {what:?}; {}", usage_hint()));
    }

    let passes = artifact_passes(what);
    eprintln!(
        "Running the six connectivity experiments over 93 devices (passes: {})...",
        passes
            .iter()
            .map(|p| p.label())
            .collect::<Vec<_>>()
            .join(", ")
    );
    let t0 = std::time::Instant::now();
    let suite = ExperimentSuite::run_all_scoped(&passes);
    eprintln!(
        "   done in {:?} ({} frames captured)",
        t0.elapsed(),
        suite.runs().iter().map(|r| r.frames).sum::<u64>()
    );

    let active = || {
        eprintln!("Running the active DNS experiment over all observed domains...");
        let zones = scenario::build_zones(&suite.profiles);
        active_dns::probe(suite.observed_domains(), zones)
    };

    let print = |t: TextTable| println!("{t}\n");
    match what {
        "all" => {
            println!("{}", config::table2());
            print(tables::table3(&suite));
            print(figures::figure2(&suite));
            print(tables::table4(&suite));
            print(tables::table5(&suite));
            print(tables::table6(&suite));
            let a = active();
            print(tables::table7(&suite, &a));
            print(tables::table8(&suite));
            print(tables::table9(&suite, &a));
            print(tables::table10(&suite));
            print(tables::table11(&suite));
            print(tables::table12(&suite));
            print(tables::table13(&suite));
            print(figures::figure3(&suite));
            print(figures::figure4(&suite));
            print(figures::figure5(&suite));
            print(tables::variants(&suite));
            print(tables::dad_report(&suite));
            print(tracking::tracking_table(&suite));
            run_portscan(full_scan);
            // Stderr only, like `repro fleet`'s: CI budgets the
            // reproduction's memory without touching the stdout bytes.
            eprintln!("peak_rss_bytes={}", peak_rss_bytes().unwrap_or(0));
        }
        "table3" => print(tables::table3(&suite)),
        "table4" => print(tables::table4(&suite)),
        "table5" => print(tables::table5(&suite)),
        "table6" => print(tables::table6(&suite)),
        "table7" => print(tables::table7(&suite, &active())),
        "table8" => print(tables::table8(&suite)),
        "table9" => print(tables::table9(&suite, &active())),
        "table10" => print(tables::table10(&suite)),
        "table11" => print(tables::table11(&suite)),
        "table12" => print(tables::table12(&suite)),
        "table13" => print(tables::table13(&suite)),
        "figure2" => print(figures::figure2(&suite)),
        "figure3" => print(figures::figure3(&suite)),
        "figure4" => print(figures::figure4(&suite)),
        "figure5" => print(figures::figure5(&suite)),
        "dad" => print(tables::dad_report(&suite)),
        "variants" => print(tables::variants(&suite)),
        "tracking" => print(tracking::tracking_table(&suite)),
        "json" => {
            // Machine-readable dump: headline numbers + per-device
            // observations across the IPv6-capable union.
            let mut per_device = std::collections::BTreeMap::new();
            for id in suite.device_ids() {
                per_device.insert(id.to_string(), suite.v6_and_dual_observation(id));
            }
            let out = serde_json::json!({
                "headline": tables::headline_numbers(&suite),
                "functional_v6only": suite
                    .device_ids()
                    .filter(|id| suite.functional_v6only(id))
                    .collect::<Vec<_>>(),
                // Capture-health counters: frames analyzed and frames
                // that failed even lenient parsing, summed over the six
                // runs. Anything nonzero in `parse_errors` means the
                // capture path and the analyzer disagree on framing.
                "frames": suite.runs().iter().map(|r| r.analysis.frames).sum::<u64>(),
                "parse_errors": suite.runs().iter().map(|r| r.analysis.parse_errors).sum::<u64>(),
                "devices": per_device,
            });
            println!(
                "{}",
                serde_json::to_string_pretty(&out).expect("serializable")
            );
        }
        other => refuse(format!("unknown artifact {other:?}; {}", usage_hint())),
    }
}

/// The one-line help every "unknown subcommand" error carries: the full
/// subcommand list plus the valid `--scenario` presets, so a typo never
/// leaves the user guessing what would have worked.
fn usage_hint() -> String {
    format!(
        "subcommands: all, table2..table13, figure2..figure5, portscan, dad, variants, \
         tracking, enterprise, reachability, json, fleet, mesh, wanscan, serve, upload, \
         stats, --scenario <preset>; scenario presets: {}",
        broken::PRESETS.join(", ")
    )
}

/// The analyzer passes the requested artifact reads — each generator
/// module declares its own `PASSES`, and the suite runs exactly that
/// union (the analyzer closes over dependencies itself, e.g. `traffic`
/// pulling in `dns` for peer-name attribution). `all` and `json` take
/// the union over every generator.
fn artifact_passes(what: &str) -> Vec<PassId> {
    use v6brick_experiments::figures::{
        FIGURE2_PASSES, FIGURE3_PASSES, FIGURE4_PASSES, FIGURE5_PASSES,
    };
    let slice: &[PassId] = match what {
        "table3" => tables::table3::PASSES,
        "table4" => tables::table4::PASSES,
        "table5" => tables::table5::PASSES,
        "table6" => tables::table6::PASSES,
        "table7" => tables::table7::PASSES,
        "table8" => tables::table8::PASSES,
        "table9" => tables::table9::PASSES,
        "table10" => tables::table10::PASSES,
        "table11" => tables::table11::PASSES,
        "table12" => tables::table12::PASSES,
        "table13" => tables::table13::PASSES,
        "figure2" => FIGURE2_PASSES,
        "figure3" => FIGURE3_PASSES,
        "figure4" => FIGURE4_PASSES,
        "figure5" => FIGURE5_PASSES,
        "dad" => tables::dad::PASSES,
        "variants" => tables::variants::PASSES,
        "tracking" => tracking::PASSES,
        _ => {
            // `all`/`json` serve every generator: tables, figures, and
            // the tracking report.
            let mut union = tables::all_table_passes();
            for extra in [
                FIGURE2_PASSES,
                FIGURE3_PASSES,
                FIGURE4_PASSES,
                FIGURE5_PASSES,
                tracking::PASSES,
            ] {
                for p in extra {
                    if !union.contains(p) {
                        union.push(*p);
                    }
                }
            }
            return union;
        }
    };
    slice.to_vec()
}

/// Print `msg` and exit 2: how `repro` refuses arguments it cannot act
/// on, before any work.
fn refuse(msg: impl std::fmt::Display) -> ! {
    eprintln!("{msg}");
    std::process::exit(2)
}

/// One subcommand's arguments, read front to back.
struct Flags<'a>(std::slice::Iter<'a, String>);

impl<'a> Flags<'a> {
    /// The next flag or positional argument.
    fn next(&mut self) -> Option<&'a str> {
        self.0.next().map(String::as_str)
    }

    /// The value after `flag`.
    fn value(&mut self, flag: &str) -> String {
        match self.next() {
            Some(v) => v.to_string(),
            None => refuse(format!("{flag} needs a value")),
        }
    }

    /// The number after `flag`.
    fn number(&mut self, flag: &str) -> u64 {
        self.value(flag)
            .parse()
            .unwrap_or_else(|e| refuse(format!("bad value for {flag}: {e}")))
    }

    /// The 0..=1000 fraction after `flag`.
    fn per_mille(&mut self, flag: &str) -> u32 {
        match self.number(flag) {
            n @ 0..=1000 => n as u32,
            n => refuse(format!("{flag} is a 0..=1000 fraction, got {n}")),
        }
    }
}

/// Keep `arg` as `cmd`'s one positional argument; refuse a second one,
/// which would otherwise be dropped without a word.
fn positional<'a>(cmd: &str, slot: &mut Option<&'a str>, arg: &'a str) {
    if let Some(first) = slot.replace(arg) {
        refuse(format!(
            "{cmd}: unexpected argument {arg:?} after {first:?}; it takes one"
        ));
    }
}

/// The positional home count of `fleet`, `wanscan` and `upload`.
fn home_count(n: &str) -> u64 {
    n.parse()
        .unwrap_or_else(|e| refuse(format!("bad home count {n:?}: {e}")))
}

/// `repro --scenario <preset> [--seed S]` — run a fault-injection
/// preset and emit its switching report. Human summary on stderr, the
/// byte-deterministic JSON report on stdout (CI reruns and diffs it).
fn run_scenario(args: &[String]) {
    let mut seed: u64 = 1;
    let mut preset = None;
    let mut flags = Flags(args.iter());
    while let Some(arg) = flags.next() {
        match arg {
            "--seed" => seed = flags.number(arg),
            other if !other.starts_with('-') => positional("--scenario", &mut preset, other),
            other => refuse(format!("unknown scenario flag {other:?}")),
        }
    }
    let Some(preset) = preset else {
        refuse(format!(
            "usage: repro --scenario <preset> [--seed S]\npresets: {}",
            broken::PRESETS.join(", ")
        ));
    };
    eprintln!("Running fault-injection preset {preset:?} (seed {seed:#x})...");
    let t0 = std::time::Instant::now();
    let Some(report) = broken::run_preset(preset, seed) else {
        refuse(format!(
            "unknown preset {preset:?}; try: {}",
            broken::PRESETS.join(", ")
        ));
    };
    eprintln!("   done in {:?}", t0.elapsed());
    eprintln!("{}", broken::render(&report));
    println!(
        "{}",
        serde_json::to_string_pretty(&report).expect("serializable")
    );
}

/// Peak resident set size of this process in bytes (`VmHWM` from
/// `/proc/self/status`). `None` off Linux or if procfs is unreadable.
///
/// The high-water mark is monotonic for the life of the process, so a
/// per-campaign measurement needs the campaign in its own process —
/// which is how CI's `fleet-scale-smoke` compares the peaks of a
/// 1k-home and a 100k-home `repro fleet` run.
fn peak_rss_bytes() -> Option<u64> {
    let status = std::fs::read_to_string("/proc/self/status").ok()?;
    let line = status.lines().find(|l| l.starts_with("VmHWM:"))?;
    let kb: u64 = line.split_whitespace().nth(1)?.parse().ok()?;
    Some(kb * 1024)
}

/// `repro mesh [--seed S] [--duration SECS] [--json]` — the link-layer
/// readiness comparison: [`mesh::CONFIGS`] over [`mesh::DEVICE_IDS`],
/// each run once on the Ethernet LAN and once behind a 6LoWPAN border
/// router. Human tables on stdout by default; `--json` emits the
/// byte-deterministic report CI reruns and diffs.
fn run_mesh_report(args: &[String]) {
    let mut spec = mesh::MeshSpec::default();
    let mut json = false;
    let mut flags = Flags(args.iter());
    while let Some(arg) = flags.next() {
        match arg {
            "--seed" => spec.seed = flags.number(arg),
            "--duration" => spec.duration_s = flags.number(arg),
            "--json" => json = true,
            other => refuse(format!("unknown mesh flag {other:?}")),
        }
    }
    eprintln!(
        "Comparing {} devices x {} configs across link layers (seed {:#x}, {} s windows)...",
        mesh::DEVICE_IDS.len(),
        mesh::CONFIGS.len(),
        spec.seed,
        spec.duration_s
    );
    let t0 = std::time::Instant::now();
    let report = mesh::run(&spec);
    eprintln!("   done in {:.1?}", t0.elapsed());
    if json {
        println!(
            "{}",
            serde_json::to_string_pretty(&report).expect("serializable")
        );
    } else {
        println!("{}", mesh::render(&report));
    }
}

/// `repro fleet <homes> [--workers W] [--seed S] [--duration SECS]
/// [--max-failures N] [--chaos-home IDX]... [--json]`
fn run_fleet(args: &[String]) {
    let mut spec = fleet::CampaignSpec {
        workers: std::thread::available_parallelism().map_or(1, |n| n.get()),
        ..Default::default()
    };
    let mut json = false;
    let mut max_failures: u64 = 0;
    let mut checkpoint: Option<String> = None;
    let mut checkpoint_every: u64 = 10_000;
    let mut resume = false;
    let mut stop_after: Option<u64> = None;
    let mut homes = None;
    let mut flags = Flags(args.iter());
    while let Some(arg) = flags.next() {
        match arg {
            "--workers" => spec.workers = flags.number(arg) as usize,
            "--seed" => spec.seed = flags.number(arg),
            "--duration" => spec.duration_s = flags.number(arg),
            "--max-failures" => max_failures = flags.number(arg),
            "--chaos-home" => spec.chaos_panic_homes.push(flags.number(arg)),
            "--checkpoint" => checkpoint = Some(flags.value(arg)),
            "--checkpoint-every" => checkpoint_every = flags.number(arg),
            "--mesh-per-mille" => spec.mesh_per_mille = flags.per_mille(arg),
            "--resume" => resume = true,
            "--stop-after" => stop_after = Some(flags.number(arg)),
            "--json" => json = true,
            other if !other.starts_with('-') => positional("fleet", &mut homes, other),
            other => refuse(format!("unknown fleet flag {other:?}")),
        }
    }
    if let Some(n) = homes {
        spec.homes = home_count(n);
    }
    if (resume || stop_after.is_some()) && checkpoint.is_none() {
        refuse("fleet: --resume/--stop-after need --checkpoint PATH");
    }

    eprintln!(
        "Simulating {} homes ({} workers, seed {:#x}, {} s windows)...",
        spec.homes, spec.workers, spec.seed, spec.duration_s
    );
    let t0 = std::time::Instant::now();
    let report = match &checkpoint {
        None => fleet::run(&spec),
        Some(path) => {
            let leg = fleet::run_checkpointed(
                &spec,
                std::path::Path::new(path),
                checkpoint_every,
                resume,
                stop_after,
            )
            .unwrap_or_else(|e| refuse(format!("fleet: {e}")));
            if let Some(from) = leg.resumed_from {
                eprintln!("   resumed from checkpoint at home {from}");
            }
            match leg.report {
                Some(report) => report,
                None => {
                    // Paused with homes remaining: the checkpoint holds
                    // the progress, a later --resume leg finishes it.
                    // Exit 0 with no stdout report — stdout bytes belong
                    // to complete campaigns only.
                    eprintln!(
                        "   paused at home {}/{} after {} chunk(s); resume with \
                         --checkpoint {path} --resume",
                        leg.next_index, spec.homes, leg.chunks_run
                    );
                    eprintln!("peak_rss_bytes={}", peak_rss_bytes().unwrap_or(0));
                    return;
                }
            }
        }
    };
    let elapsed = t0.elapsed();
    eprintln!(
        "   done in {:.1?} — {:.1} homes/sec ({} devices simulated, {} homes failed)",
        elapsed,
        report.homes as f64 / elapsed.as_secs_f64().max(1e-9),
        report.devices,
        report.failures.len()
    );
    for f in &report.failures {
        eprintln!(
            "   home {} FAILED (seed {:#x}, {}): {}",
            f.index, f.seed, f.config_label, f.panic_msg
        );
    }
    // Machine-parseable memory line (stderr only — the stdout JSON stays
    // byte-identical for a given spec no matter where it runs). Degrades
    // to 0 off Linux / without procfs so consumers always find the line.
    eprintln!("peak_rss_bytes={}", peak_rss_bytes().unwrap_or(0));
    if json {
        // `report.failures` is `#[serde(skip)]` so the population
        // aggregates stay byte-identical with or without crashed homes;
        // the summary wrapper carries the failure accounting instead.
        let out = serde_json::json!({
            "failure_count": report.failures.len() as u64,
            "failures": report.failures,
            "report": report,
        });
        println!(
            "{}",
            serde_json::to_string_pretty(&out).expect("serializable")
        );
    } else {
        println!("{}", fleet::render(&report));
    }
    if report.failures.len() as u64 > max_failures {
        eprintln!(
            "fleet: {} failed homes exceed --max-failures {max_failures}",
            report.failures.len()
        );
        std::process::exit(1);
    }
}

/// `repro wanscan [HOMES] [--seed S] [--workers N] [--settle SECS]
/// [--policy LABEL] [--json] [--verify]`
///
/// Scan a fleet of homes from the Internet side under each firewall
/// policy and print the exposure report. `--verify` reruns the campaign
/// at other worker counts and fails unless every rerun serializes
/// byte-identically and the policy lattice is monotonic.
fn run_wanscan(args: &[String]) {
    use v6brick_sim::FirewallPolicy;

    let mut spec = wanscan::WanScanSpec {
        workers: std::thread::available_parallelism().map_or(1, |n| n.get()),
        ..Default::default()
    };
    let mut json = false;
    let mut verify = false;
    let mut homes = None;
    let mut flags = Flags(args.iter());
    while let Some(arg) = flags.next() {
        match arg {
            "--seed" => spec.seed = flags.number(arg),
            "--workers" => spec.workers = (flags.number(arg) as usize).max(1),
            "--settle" => spec.settle_s = flags.number(arg),
            "--mesh-per-mille" => spec.mesh_per_mille = flags.per_mille(arg),
            "--policy" => {
                let label = flags.value(arg);
                let policy = FirewallPolicy::from_label(&label).unwrap_or_else(|| {
                    refuse(format!(
                        "unknown firewall policy {label:?}; try: {}",
                        FirewallPolicy::ALL
                            .iter()
                            .map(|p| p.label())
                            .collect::<Vec<_>>()
                            .join(", ")
                    ))
                });
                spec.policies = vec![policy];
            }
            "--json" => json = true,
            "--verify" => verify = true,
            other if !other.starts_with('-') => positional("wanscan", &mut homes, other),
            other => refuse(format!("unknown wanscan flag {other:?}")),
        }
    }
    if let Some(n) = homes {
        spec.homes = home_count(n);
    }

    eprintln!(
        "Scanning {} homes from the WAN side ({} workers, seed {:#x}, policies: {})...",
        spec.homes,
        spec.workers,
        spec.seed,
        spec.policies
            .iter()
            .map(|p| p.label())
            .collect::<Vec<_>>()
            .join(", ")
    );
    let t0 = std::time::Instant::now();
    let report = wanscan::run(&spec);
    let elapsed = t0.elapsed();
    eprintln!(
        "   done in {elapsed:.1?} — {:.1} homes/sec ({} devices scanned, {} homes failed)",
        report.homes as f64 / elapsed.as_secs_f64().max(1e-9),
        report.devices,
        report.failures.len()
    );
    eprintln!("peak_rss_bytes={}", peak_rss_bytes().unwrap_or(0));
    let mut exit = 0;
    for (index, msg) in &report.failures {
        eprintln!("   home {index} FAILED: {msg}");
        exit = 1;
    }
    for v in report.monotonic_violations() {
        eprintln!("wanscan: policy monotonicity violated: {v}");
        exit = 1;
    }

    if json {
        println!(
            "{}",
            serde_json::to_string_pretty(&report).expect("serializable")
        );
    } else {
        println!("{}", wanscan::render(&report));
    }

    if verify {
        let base = serde_json::to_string(&report).expect("serializable");
        for workers in [1, spec.workers + 1] {
            if workers == spec.workers {
                continue;
            }
            eprintln!("Verifying worker-count independence at {workers} worker(s)...");
            let rerun = wanscan::run(&wanscan::WanScanSpec {
                workers,
                ..spec.clone()
            });
            if serde_json::to_string(&rerun).expect("serializable") == base {
                eprintln!("   byte-identical");
            } else {
                eprintln!("wanscan: report DIVERGED at {workers} worker(s)");
                exit = 1;
            }
        }
    }
    if exit != 0 {
        std::process::exit(exit);
    }
}

/// `repro stats [--addr HOST:PORT]` — fetch a running daemon's STATS
/// JSON over the wire and print it. One line, CI-greppable: the
/// crash-recovery smoke polls `uploads_ok` with it and asserts on
/// `recovered_from` after a restart.
fn run_stats(args: &[String]) {
    let mut addr = "127.0.0.1:6468".to_string();
    let mut flags = Flags(args.iter());
    while let Some(arg) = flags.next() {
        match arg {
            "--addr" => addr = flags.value(arg),
            other => refuse(format!("unknown stats flag {other:?}")),
        }
    }
    let mut client =
        v6brick_ingest::Client::connect_retry(&*addr, 50, std::time::Duration::from_millis(20))
            .unwrap_or_else(|e| {
                eprintln!("stats: connect {addr}: {e}");
                std::process::exit(1);
            });
    let stats = client.stats().unwrap_or_else(|e| {
        eprintln!("stats: {e}");
        std::process::exit(1);
    });
    println!("{stats}");
}

/// `repro upload N ...` — replay an N-home campaign at a `v6brickd`
/// server over concurrent clients, optionally verifying the snapshot
/// against the offline fleet JSON.
fn run_upload(args: &[String]) {
    use v6brick_experiments::serve as bridge;
    use v6brick_ingest::{loadgen, Client};

    let mut spec = fleet::CampaignSpec {
        homes: 3,
        workers: std::thread::available_parallelism().map_or(1, |n| n.get()),
        ..Default::default()
    };
    let mut addr = "127.0.0.1:6468".to_string();
    let mut clients = 2usize;
    let mut verify = false;
    let mut shutdown = false;
    let mut json = false;
    let mut dev_min = spec.device_range.0;
    let mut dev_max = spec.device_range.1;
    let mut homes = None;
    let mut flags = Flags(args.iter());
    while let Some(arg) = flags.next() {
        match arg {
            "--addr" => addr = flags.value(arg),
            "--clients" => clients = flags.number(arg) as usize,
            "--seed" => spec.seed = flags.number(arg),
            "--duration" => spec.duration_s = flags.number(arg),
            "--workers" => spec.workers = flags.number(arg) as usize,
            "--dev-min" => dev_min = flags.number(arg) as usize,
            "--dev-max" => dev_max = flags.number(arg) as usize,
            "--chaos-home" => spec.chaos_panic_homes.push(flags.number(arg)),
            "--verify" => verify = true,
            "--shutdown" => shutdown = true,
            "--json" => json = true,
            other if !other.starts_with('-') => positional("upload", &mut homes, other),
            other => refuse(format!("unknown upload flag {other:?}")),
        }
    }
    if let Some(n) = homes {
        spec.homes = home_count(n);
    }
    spec.device_range = (dev_min, dev_max);

    eprintln!(
        "Simulating {} homes for upload (seed {:#x}, {} s windows)...",
        spec.homes, spec.seed, spec.duration_s
    );
    let bundles = bridge::campaign_bundles(&spec);
    eprintln!(
        "Uploading {} bundles to {addr} over {clients} clients...",
        bundles.len()
    );
    let t0 = std::time::Instant::now();
    let load = loadgen::run(&addr, &bundles, clients, spec.seed).unwrap_or_else(|e| {
        eprintln!("upload: {e}");
        std::process::exit(1);
    });
    let elapsed = t0.elapsed();
    eprintln!(
        "   done in {elapsed:.1?} — {} uploads ok, {} failed, {} frames",
        load.uploads(),
        load.failures(),
        load.frames()
    );
    for c in &load.per_client {
        eprintln!(
            "   client {}: {} uploads, {} frames, {} failures (chunk {})",
            c.client, c.uploads, c.frames, c.failures, c.chunk_size
        );
    }

    let mut exit = 0;
    // Chaos homes fail by design; anything beyond that is a real error.
    let expected_failures = spec.chaos_panic_homes.len() as u64;
    if load.failures() != expected_failures {
        eprintln!(
            "upload: {} failed uploads (expected {expected_failures})",
            load.failures()
        );
        exit = 1;
    }

    let mut snapshot = None;
    if verify || json {
        let mut client = Client::connect_retry(&*addr, 50, std::time::Duration::from_millis(20))
            .unwrap_or_else(|e| {
                eprintln!("upload: reconnect for snapshot: {e}");
                std::process::exit(1);
            });
        let snap = client.snapshot().unwrap_or_else(|e| {
            eprintln!("upload: snapshot: {e}");
            std::process::exit(1);
        });
        if verify {
            eprintln!("Verifying against the offline fleet report...");
            let offline = bridge::offline_report_json(&spec);
            if snap == offline {
                eprintln!(
                    "   snapshot is byte-identical to the offline fleet JSON ({} bytes)",
                    snap.len()
                );
            } else {
                eprintln!(
                    "   MISMATCH: snapshot {} bytes, offline {} bytes",
                    snap.len(),
                    offline.len()
                );
                exit = 1;
            }
        }
        snapshot = Some(snap);
    }

    if shutdown {
        let mut client = Client::connect_retry(&*addr, 50, std::time::Duration::from_millis(20))
            .unwrap_or_else(|e| {
                eprintln!("upload: reconnect for shutdown: {e}");
                std::process::exit(1);
            });
        client.shutdown_server().unwrap_or_else(|e| {
            eprintln!("upload: shutdown: {e}");
            std::process::exit(1);
        });
        eprintln!("   server drain requested");
    }

    if json {
        let out = serde_json::json!({
            "homes": spec.homes,
            "clients": clients as u64,
            "uploads_ok": load.uploads(),
            "uploads_failed": load.failures(),
            "frames": load.frames(),
            "verified": verify && exit == 0,
            "snapshot": snapshot,
        });
        println!(
            "{}",
            serde_json::to_string_pretty(&out).expect("serializable")
        );
    }
    if exit != 0 {
        std::process::exit(exit);
    }
}

fn run_portscan(full: bool) {
    let plan = if full {
        ScanPlan::full()
    } else {
        ScanPlan::quick()
    };
    eprintln!(
        "Running the active port scans ({} TCP + {} UDP ports per address)...",
        plan.tcp.len(),
        plan.udp.len()
    );
    let profiles = v6brick_devices::registry::build();
    let t0 = std::time::Instant::now();
    let results = scan(&profiles, &plan);
    eprintln!("   done in {:?}", t0.elapsed());
    let mut t = TextTable::new("Port scans (§5.4.2): devices with asymmetric v4/v6 exposure")
        .headers(["Device", "v4-only TCP", "v6-only TCP", "both"]);
    for p in &profiles {
        let r = &results[&p.id];
        let d = ports::diff(&r.v4, &r.v6);
        if d.is_asymmetric() {
            let fmt = |s: &std::collections::BTreeSet<u16>| {
                s.iter()
                    .map(|p| p.to_string())
                    .collect::<Vec<_>>()
                    .join(",")
            };
            t.row([
                p.name.clone(),
                fmt(&d.tcp_v4_only),
                fmt(&d.tcp_v6_only),
                fmt(&d.tcp_both),
            ]);
        }
    }
    println!("{t}");
}
