//! Broken-IPv6 scenario presets: fault injection + Table 9 switching.
//!
//! The paper measures IP-version switching (Table 9) by comparing
//! *static* configurations. These presets make the question dynamic:
//! run a dual-stack home, break part of the IPv6 path mid-experiment,
//! and report which device classes abandon their IPv6 sessions for
//! IPv4 — and whether they find their way back once the fault clears.
//!
//! Four presets, all over the same curated device subset:
//!
//! * `broken-v6` — the headline scenario: the upstream 6in4 tunnel dies
//!   for a fixed three-minute window (90–270 s). Advertised-but-broken
//!   IPv6, the failure mode §6 warns about.
//! * `tunnel-flap` — three seed-jittered short outages, exercising
//!   repeated fallback/recovery cycles.
//! * `ra-suppress` — the router goes quiet on Router Advertisements
//!   during the addressing phase.
//! * `dns-servfail` — the upstream resolver answers SERVFAIL for every
//!   zone during the first half of the boot-time lookups (5–9 s).
//!   Devices look their destinations up 7–11 s in and never ask again
//!   for an answered name, so a later window would serve no query at
//!   all; names asked after 9 s resolve normally.
//!
//! Every preset is deterministic for a fixed seed: serializing the
//! [`PresetReport`] from two identical runs yields byte-identical JSON
//! (CI's fault-matrix smoke job diffs exactly that).

use crate::config::NetworkConfig;
use crate::scenario::{self, Link};
use serde::{Deserialize, Serialize};
use std::collections::BTreeMap;
use v6brick_core::analysis::PassId;
use v6brick_core::outage::OutageReport;
use v6brick_devices::profile::DeviceProfile;
use v6brick_devices::registry;
use v6brick_sim::event::SimTime;
use v6brick_sim::{DnsFaultMode, FaultPlan};

/// Every scenario preset name, in CLI listing order.
pub const PRESETS: &[&str] = &["broken-v6", "tunnel-flap", "ra-suppress", "dns-servfail"];

/// The device subset every preset runs: one representative per major
/// category, mixing devices that hold long-lived IPv6 sessions (and so
/// can demonstrably fall back) with v4-reliant and v4-only controls
/// that should classify as `unchanged`.
pub fn preset_profiles() -> Vec<DeviceProfile> {
    [
        "apple_tv",
        "google_home_mini",
        "homepod_mini",
        "nest_camera",
        "samsung_fridge",
        "ikea_gateway",
        "echo_show_5",
        "wyze_cam",
    ]
    .iter()
    .map(|id| registry::by_id(id))
    .collect()
}

/// The fault schedule for a named preset, or `None` for an unknown
/// name. `seed` only influences schedules that are defined as
/// seed-jittered (`tunnel-flap`); fixed windows ignore it so the
/// scenario timeline reads the same in every report.
pub fn preset_plan(preset: &str, seed: u64) -> Option<FaultPlan> {
    let s = SimTime::from_secs;
    match preset {
        "broken-v6" => Some(FaultPlan::new().tunnel_outage(s(90), s(270))),
        "tunnel-flap" => Some(FaultPlan::new().tunnel_flap(seed, s(80), s(100), s(40), 3)),
        "ra-suppress" => Some(FaultPlan::new().ra_suppression(s(60), s(210))),
        "dns-servfail" => {
            Some(FaultPlan::new().dns_fault(s(5), s(9), None, DnsFaultMode::Servfail))
        }
        _ => None,
    }
}

/// The serializable outcome of one preset run. Field order and
/// `BTreeMap` keying make the JSON byte-stable across identical runs.
#[derive(Debug, Clone, Serialize, Deserialize)]
pub struct PresetReport {
    /// Preset name.
    pub preset: String,
    /// Base seed the run used.
    pub seed: u64,
    /// Network configuration label (always dual-stack today).
    pub config: String,
    /// Simulated duration, seconds.
    pub duration_s: u64,
    /// LAN frames the capture tap saw.
    pub frames: u64,
    /// 6in4 tunnel packets the injected outage swallowed.
    pub tunnel_drops: u64,
    /// Functionality-test outcome per device id.
    pub functional: BTreeMap<String, bool>,
    /// Table 9-style switching verdicts.
    pub outage: OutageReport,
}

/// Run a named preset at `seed`. Returns `None` for an unknown preset.
pub fn run_preset(preset: &str, seed: u64) -> Option<PresetReport> {
    let plan = preset_plan(preset, seed)?;
    let profiles = preset_profiles();
    let duration = scenario::EXPERIMENT_DURATION;
    let home = scenario::execute(
        NetworkConfig::DualStack,
        &profiles,
        seed,
        duration,
        &[PassId::Traffic],
        plan,
        scenario::build_zones(&profiles),
        Link::Ethernet,
        false,
    );
    let mut outage = OutageReport::default();
    for p in &profiles {
        let switches = home.switches.get(&p.id).cloned().unwrap_or_default();
        outage.push_device(&p.id, p.category.label(), switches);
    }
    Some(PresetReport {
        preset: preset.to_string(),
        seed,
        config: home.run.config.label().to_string(),
        duration_s: duration.as_micros() / 1_000_000,
        frames: home.run.frames,
        tunnel_drops: home.tunnel_drops,
        functional: home.run.functional,
        outage,
    })
}

/// Human-readable preset summary (the non-`--json` CLI output).
pub fn render(report: &PresetReport) -> String {
    use std::fmt::Write;
    let mut out = String::new();
    let _ = writeln!(
        out,
        "Scenario {} (seed {:#x}, {} on {})",
        report.preset, report.seed, report.duration_s, report.config
    );
    let _ = writeln!(
        out,
        "Frames: {}  tunnel drops: {}",
        report.frames, report.tunnel_drops
    );
    let _ = writeln!(out, "\nSwitching verdicts:");
    for (label, n) in &report.outage.by_class {
        let _ = writeln!(out, "  {label:<26} {n}");
    }
    let _ = writeln!(out, "\nPer device:");
    for (id, d) in &report.outage.devices {
        let _ = writeln!(
            out,
            "  {id:<20} {:<12} {:<26} fell back {}x, recovered {}x",
            d.category,
            d.class.label(),
            d.fell_back,
            d.recovered
        );
        for s in &d.switches {
            let _ = writeln!(
                out,
                "      {:>5}s  {}  {}",
                s.at_us / 1_000_000,
                if s.to_v6 { "-> v6" } else { "-> v4" },
                s.domain
            );
        }
    }
    out
}

#[cfg(test)]
mod tests {
    use super::*;
    use v6brick_core::outage::OutageClass;
    use v6brick_devices::phone::Phone;
    use v6brick_devices::stack::IotDevice;
    use v6brick_sim::{FrameSink, Internet, Router, SimulationBuilder};

    /// Frames tapped and FNV-1a over every timestamp and frame.
    struct Fnv(u64, u64);

    impl Fnv {
        fn fold(&mut self, bytes: &[u8]) {
            for &b in bytes {
                self.1 = (self.1 ^ u64::from(b)).wrapping_mul(0x100_0000_01b3);
            }
        }
    }

    impl FrameSink for Fnv {
        fn on_frame(&mut self, timestamp_us: u64, frame: &[u8]) {
            self.0 += 1;
            self.fold(&timestamp_us.to_le_bytes());
            self.fold(frame);
        }

        fn into_any(self: Box<Self>) -> Box<dyn std::any::Any> {
            self
        }
    }

    /// The preset home at `seed`, built as [`run_preset`] builds it,
    /// under `plan`: (frames tapped, capture digest).
    fn capture_digest(plan: FaultPlan, seed: u64) -> (u64, u64) {
        let profiles = preset_profiles();
        let config = NetworkConfig::DualStack;
        let mut b = SimulationBuilder::new(
            Router::new(config.router_config()),
            Internet::new(scenario::build_zones(&profiles)),
        );
        for p in &profiles {
            b.add_host(Box::new(IotDevice::new(p.clone())));
        }
        b.add_host(Box::new(Phone::pixel7()));
        b.add_host(Box::new(Phone::iphone_x()));
        b.add_sink(Box::new(Fnv(0, 0xcbf2_9ce4_8422_2325)));
        let mut sim = b.seed(seed ^ config as u64).faults(plan).build();
        sim.run_until(scenario::EXPERIMENT_DURATION);
        let sink = sim.take_sinks().pop().expect("the digest sink");
        let fnv = sink.into_any().downcast::<Fnv>().expect("an Fnv sink");
        (fnv.0, fnv.1)
    }

    /// (report bytes, FNV-1a) of each preset's serialized report at
    /// seed 1, in [`PRESETS`] order.
    const PINNED_REPORTS: [(usize, u64); 4] = [
        (20908, 0x79c6_1ba3_e5de_4eea),
        (38818, 0xbb86_f660_7a24_d4ad),
        (1268, 0xa721_eb53_43e7_5b96),
        (1269, 0xfaa6_fb4f_7bfc_16ef),
    ];

    /// A preset whose fault never touches a frame measures nothing: each
    /// one must tap different bytes than the same home left alone. Each
    /// report's bytes are pinned too.
    #[test]
    fn every_preset_changes_the_capture() {
        let healthy = capture_digest(FaultPlan::new(), 1);
        for (preset, pinned) in PRESETS.iter().zip(PINNED_REPORTS) {
            let faulted = capture_digest(preset_plan(preset, 1).unwrap(), 1);
            let report = run_preset(preset, 1).unwrap();
            let json = serde_json::to_string(&report).unwrap();
            let mut digest = Fnv(0, 0xcbf2_9ce4_8422_2325);
            digest.fold(json.as_bytes());
            assert_eq!(
                (json.len(), digest.1),
                pinned,
                "{preset}: report bytes changed: {} bytes, digest {:#018x}",
                json.len(),
                digest.1
            );
            assert_eq!(
                faulted.0, report.frames,
                "{preset}: digest a different home"
            );
            assert_ne!(faulted, healthy, "{preset} left the capture untouched");
            assert!(
                report.functional.values().all(|&f| f),
                "{preset}: {report:?}"
            );
        }
    }

    #[test]
    fn unknown_preset_is_rejected() {
        assert!(preset_plan("no-such-preset", 1).is_none());
        assert!(run_preset("no-such-preset", 1).is_none());
    }

    #[test]
    fn every_preset_has_a_plan() {
        for p in PRESETS {
            assert!(preset_plan(p, 7).is_some(), "{p} must resolve");
        }
    }

    /// Acceptance: under `broken-v6`, at least one device class
    /// demonstrably falls back v6->v4 *during* the injected outage and
    /// recovers to v6 after it clears.
    #[test]
    fn broken_v6_devices_fall_back_during_outage_and_recover_after() {
        let report = run_preset("broken-v6", 1).unwrap();
        assert!(
            report.tunnel_drops > 0,
            "outage must swallow tunnel packets"
        );
        assert!(report.outage.fell_back_count() >= 1, "{report:?}");
        assert!(report.outage.recovered_count() >= 1, "{report:?}");
        let outage_start = 90_000_000u64;
        let outage_end = 270_000_000u64;
        let witnessed = report.outage.devices.values().any(|d| {
            d.class == OutageClass::FellBackAndRecovered
                && d.switches
                    .iter()
                    .any(|s| !s.to_v6 && (outage_start..outage_end).contains(&s.at_us))
                && d.switches.iter().any(|s| s.to_v6 && s.at_us >= outage_end)
        });
        assert!(
            witnessed,
            "some device must fall back inside [90s,270s) and recover after: {:#?}",
            report.outage.devices
        );
        // The v4-only control never switches families.
        assert_eq!(
            report.outage.devices["wyze_cam"].class,
            OutageClass::Unchanged
        );
    }

    /// Acceptance: byte-identical JSON across two identical runs.
    #[test]
    fn broken_v6_report_is_byte_deterministic() {
        let a = serde_json::to_string(&run_preset("broken-v6", 2).unwrap()).unwrap();
        let b = serde_json::to_string(&run_preset("broken-v6", 2).unwrap()).unwrap();
        assert_eq!(a, b);
    }
}
