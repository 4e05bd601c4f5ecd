//! `perfbench` — the v6brick benchmark.
//!
//! ```text
//! perfbench --workload paper|fleet|wanscan --seed N --seconds S
//!           --trace 0|1 [--v6brickd PATH] [--out-dir DIR]
//! ```
//!
//! Runs one workload through the same public entry points `repro all`,
//! `repro fleet` and `repro wanscan` use, checks the outputs, and prints
//! one JSON result line last on stdout. With `--trace 0` it reports the
//! end-to-end metrics; with `--trace 1` it rebuilds the work from the
//! crates' public parts with timers around every layer boundary and
//! reports the per-layer metrics (`fleet`'s also runs the `v6brickd`
//! ingest probe). See `NOTES.md` for the workloads and what each metric
//! means.

mod fleet;
mod ingest;
mod layers;
mod metrics;
mod paper;
mod stats;
mod trace;
mod wanscan;
mod wrap;

use metrics::Outcome;
use std::path::PathBuf;
use std::process::{Command, ExitCode};
use std::time::Instant;

/// Parsed command line.
#[derive(Debug, Clone)]
pub struct Args {
    pub workload: String,
    pub seed: u64,
    pub seconds: f64,
    pub trace: bool,
    pub v6brickd: Option<PathBuf>,
    pub out_dir: PathBuf,
    /// Run only unit `k` of an untraced campaign workload and report it
    /// (the parent runs each unit in a process of its own).
    unit: Option<usize>,
}

fn parse_args() -> Result<Args, String> {
    let mut args = Args {
        workload: String::new(),
        seed: 1,
        seconds: 10.0,
        trace: false,
        v6brickd: None,
        out_dir: PathBuf::from(".bench_run"),
        unit: None,
    };
    let mut it = std::env::args().skip(1);
    while let Some(flag) = it.next() {
        let value = it.next().ok_or_else(|| format!("{flag} needs a value"))?;
        let bad = |e: &dyn std::fmt::Display| format!("bad value for {flag}: {e}");
        match flag.as_str() {
            "--workload" => args.workload = value,
            "--seed" => args.seed = value.parse().map_err(|e| bad(&e))?,
            "--seconds" => args.seconds = value.parse().map_err(|e| bad(&e))?,
            "--trace" => {
                args.trace = match value.as_str() {
                    "0" => false,
                    "1" => true,
                    other => return Err(bad(&other)),
                }
            }
            "--v6brickd" => args.v6brickd = Some(PathBuf::from(value)),
            "--out-dir" => args.out_dir = PathBuf::from(value),
            "--unit" => args.unit = Some(value.parse().map_err(|e| bad(&e))?),
            other => return Err(format!("unknown flag {other}")),
        }
    }
    if !["paper", "fleet", "wanscan"].contains(&args.workload.as_str()) {
        return Err(format!(
            "--workload must be paper, fleet or wanscan (got {:?})",
            args.workload
        ));
    }
    if args.seconds.is_nan() || args.seconds <= 0.0 {
        return Err("--seconds must be positive".to_string());
    }
    Ok(args)
}

/// Worker threads for campaigns and the suite: one per core, as the
/// CLI defaults to.
pub fn workers() -> usize {
    std::thread::available_parallelism().map_or(1, |n| n.get())
}

/// Peak resident set (VmHWM) of process `pid` (`"self"` for this one),
/// in MiB.
pub fn peak_rss_mb(pid: &str) -> Result<f64, String> {
    let status = std::fs::read_to_string(format!("/proc/{pid}/status"))
        .map_err(|e| format!("read /proc/{pid}/status: {e}"))?;
    status
        .lines()
        .find_map(|l| l.strip_prefix("VmHWM:"))
        .and_then(|v| v.trim().trim_end_matches("kB").trim().parse::<f64>().ok())
        .map(|kb| kb / 1024.0)
        .ok_or_else(|| format!("no VmHWM in /proc/{pid}/status"))
}

/// Run `unit` repeatedly for about `seconds`: at least once, then again
/// while one more unit as long as the last would end less than half a
/// unit past `seconds`.
pub fn repeat_for(
    seconds: f64,
    mut unit: impl FnMut() -> Result<(), String>,
) -> Result<(), String> {
    let t0 = Instant::now();
    loop {
        let u0 = Instant::now();
        unit()?;
        let last = u0.elapsed().as_secs_f64();
        if t0.elapsed().as_secs_f64() + last / 2.0 > seconds {
            return Ok(());
        }
    }
}

/// Run unit `unit` of a traced run: its untraced side and its traced
/// side, first one then the other in turn, so that neither side always
/// pays the process's cold start.
pub fn both_orders<A, B>(
    unit: usize,
    untraced: impl FnOnce() -> A,
    traced: impl FnOnce() -> B,
) -> (A, B) {
    if unit.is_multiple_of(2) {
        let a = untraced();
        (a, traced())
    } else {
        let b = traced();
        (untraced(), b)
    }
}

/// Tracing overhead: the traced side's median wall over the untraced
/// side's, minus 1.
pub fn overhead_frac(untraced_ns: &[u64], traced_ns: &[u64]) -> f64 {
    let median = |v: &[u64]| stats::median(&v.iter().map(|x| *x as f64).collect::<Vec<_>>());
    median(traced_ns) / median(untraced_ns) - 1.0
}

/// `f`'s result and its wall time in nanoseconds.
pub fn timed_ns<R>(f: impl FnOnce() -> R) -> (R, u64) {
    let t0 = Instant::now();
    let r = f();
    (r, t0.elapsed().as_nanos() as u64)
}

/// Campaigns one run of `fleet` or `wanscan` rotates through: unit `k`
/// runs campaign `k % CAMPAIGNS`, so a run's medians cover several input
/// sets; the campaigns a run reaches again are checked for identical
/// output, and every run reaches at least one again.
pub const CAMPAIGNS: usize = 8;

/// The campaign seeds of run seed `seed`; distinct seeds never share one.
pub fn campaign_seeds(seed: u64) -> Vec<u64> {
    (0..CAMPAIGNS as u64)
        .map(|j| seed.wrapping_mul(CAMPAIGNS as u64).wrapping_add(j))
        .collect()
}

/// What one unit of an untraced campaign workload produced, checked.
#[derive(Debug, Clone, PartialEq)]
pub struct UnitOutput {
    /// Which of the run's inputs the unit ran; units with the same
    /// campaign must produce the same digest.
    pub campaign: usize,
    pub digest: u64,
    pub attempted: u64,
    pub failed: u64,
    pub correct: bool,
}

/// A unit as its process measured it.
#[derive(Debug, Clone, PartialEq)]
struct UnitReport {
    out: UnitOutput,
    setup_s: f64,
    wall_s: f64,
    rss_mb: f64,
}

impl UnitReport {
    fn line(&self) -> String {
        let o = &self.out;
        format!(
            "unit {} {} {} {} {} {:?} {:?} {:?}",
            o.campaign,
            o.digest,
            o.attempted,
            o.failed,
            o.correct,
            self.setup_s,
            self.wall_s,
            self.rss_mb
        )
    }

    fn parse(line: &str) -> Option<UnitReport> {
        let f: Vec<&str> = line.strip_prefix("unit ")?.split(' ').collect();
        if f.len() != 8 {
            return None;
        }
        Some(UnitReport {
            out: UnitOutput {
                campaign: f[0].parse().ok()?,
                digest: f[1].parse().ok()?,
                attempted: f[2].parse().ok()?,
                failed: f[3].parse().ok()?,
                correct: f[4].parse().ok()?,
            },
            setup_s: f[5].parse().ok()?,
            wall_s: f[6].parse().ok()?,
            rss_mb: f[7].parse().ok()?,
        })
    }
}

/// Run unit `k` in a fresh process of this program and read its report.
fn unit_process(args: &Args, k: usize) -> Result<UnitReport, String> {
    let exe = std::env::current_exe().map_err(|e| format!("current_exe: {e}"))?;
    let out = Command::new(exe)
        .args([
            "--workload",
            &args.workload,
            "--seed",
            &args.seed.to_string(),
        ])
        .args(["--unit", &k.to_string()])
        .output()
        .map_err(|e| format!("start unit {k}: {e}"))?;
    eprint!("{}", String::from_utf8_lossy(&out.stderr));
    let text = String::from_utf8_lossy(&out.stdout);
    match (out.status.success(), UnitReport::parse(text.trim())) {
        (true, Some(r)) => Ok(r),
        _ => Err(format!("unit {k} failed ({}): {text:?}", out.status)),
    }
}

/// An untraced campaign workload: each unit — one reproduction or one
/// campaign, what one `repro` invocation runs — in a process of its
/// own that times its own set-up and unit and reports its own VmHWM.
/// The metrics are medians over the units.
fn campaign_units(args: &Args) -> Result<Outcome, String> {
    let mut units: Vec<UnitReport> = Vec::new();
    repeat_for(args.seconds, || {
        units.push(unit_process(args, units.len())?);
        Ok(())
    })?;
    // The repeat check below needs some campaign run twice; when the time
    // allowed none, run campaign 0 again.
    let mut seen = std::collections::BTreeSet::new();
    if units.iter().all(|u| seen.insert(u.out.campaign)) {
        units.push(unit_process(args, CAMPAIGNS)?);
    }
    let mut out = Outcome {
        correct: true,
        ..Default::default()
    };
    let mut first = std::collections::BTreeMap::new();
    for u in &units {
        out.attempted += u.out.attempted;
        out.failed += u.out.failed;
        out.correct &= u.out.correct;
        if *first.entry(u.out.campaign).or_insert(u.out.digest) != u.out.digest {
            eprintln!(
                "{}: campaign {} gave different output bytes on a repeat",
                args.workload, u.out.campaign
            );
            out.correct = false;
        }
    }
    let col = |f: fn(&UnitReport) -> f64| units.iter().map(f).collect::<Vec<_>>();
    let walls = col(|u| u.wall_s);
    eprintln!(
        "{}: units {walls:.3?}, median {:.3} s, VmHWM median {:.1} MB",
        args.workload,
        stats::median(&walls),
        stats::median(&col(|u| u.rss_mb))
    );
    out.set("setup_s", stats::median(&col(|u| u.setup_s)));
    out.set("wall_s", stats::median(&walls));
    out.set("peak_rss_mb", stats::median(&col(|u| u.rss_mb)));
    Ok(out)
}

/// Write the spans of one part of a traced run next to the other run
/// files.
pub fn write_spans(args: &Args, part: &str, spans: &[trace::Span]) -> Result<(), String> {
    let path = args
        .out_dir
        .join(format!("trace-{part}-seed{}.jsonl", args.seed));
    trace::write_jsonl(&path, spans).map_err(|e| format!("write {}: {e}", path.display()))
}

fn run(args: &Args, started: Instant) -> Result<Outcome, String> {
    if !args.trace && args.unit.is_none() {
        return campaign_units(args);
    }
    // The campaign workloads' set-up: compile the device registry and
    // fix the workload's inputs.
    let work = match args.workload.as_str() {
        "paper" => Workload::Paper(paper::setup()),
        "fleet" => Workload::Fleet(fleet::setup(args.seed)),
        _ => Workload::WanScan(wanscan::setup(args.seed)),
    };
    let setup_s = started.elapsed().as_secs_f64();
    let Some(k) = args.unit else {
        return match work {
            Workload::Paper(w) => paper::traced(args, &w),
            Workload::Fleet(w) => fleet::traced(args, &w),
            Workload::WanScan(w) => wanscan::traced(args, &w),
        };
    };
    let t0 = Instant::now();
    let out = match work {
        Workload::Paper(w) => paper::unit(&w),
        Workload::Fleet(w) => fleet::unit(&w, k),
        Workload::WanScan(w) => wanscan::unit(&w, k),
    };
    let report = UnitReport {
        out,
        setup_s,
        wall_s: t0.elapsed().as_secs_f64(),
        rss_mb: peak_rss_mb("self")?,
    };
    println!("{}", report.line());
    std::process::exit(0);
}

enum Workload {
    Paper(paper::Inputs),
    Fleet(fleet::Inputs),
    WanScan(wanscan::Inputs),
}

fn main() -> ExitCode {
    let started = Instant::now();
    let args = match parse_args() {
        Ok(a) => a,
        Err(e) => {
            eprintln!("perfbench: {e}");
            return ExitCode::from(2);
        }
    };
    let outcome = match run(&args, started) {
        Ok(o) => o,
        Err(e) => {
            eprintln!("perfbench: {} failed: {e}", args.workload);
            return ExitCode::FAILURE;
        }
    };
    match metrics::result_line(&outcome, args.trace) {
        Ok(line) => {
            println!("{line}");
            if outcome.correct {
                ExitCode::SUCCESS
            } else {
                eprintln!("perfbench: {} output check failed", args.workload);
                ExitCode::FAILURE
            }
        }
        Err(e) => {
            eprintln!("perfbench: {e}");
            ExitCode::FAILURE
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn unit_report_round_trips_through_its_line() {
        let r = UnitReport {
            out: UnitOutput {
                campaign: 3,
                digest: u64::MAX - 7,
                attempted: 1000,
                failed: 0,
                correct: true,
            },
            setup_s: 0.001_234_567_8,
            wall_s: 1.104_000_000_1,
            rss_mb: 7.835_937_5,
        };
        assert_eq!(UnitReport::parse(&r.line()), Some(r));
        assert_eq!(UnitReport::parse("unit 1 2 3"), None);
        assert_eq!(UnitReport::parse("garbage"), None);
    }

    #[test]
    fn campaign_seeds_never_overlap_between_run_seeds() {
        let a = campaign_seeds(5);
        let b = campaign_seeds(6);
        assert_eq!(a.len(), CAMPAIGNS);
        assert!(a.iter().all(|s| !b.contains(s)));
    }
}
