//! Table-3-style readiness comparison across link layers: the same
//! devices once on the Ethernet LAN and once behind a 6LoWPAN border
//! router.
//!
//! The paper's Table 3 asks which devices stay functional as IPv4 is
//! withdrawn. This module asks the same question along a second axis:
//! does moving a device from the Ethernet testbed onto a compressed
//! 802.15.4 mesh change the answer? The border router forwards IPv6
//! only, so the expected picture is sharp — v6-capable devices keep
//! working (their traffic now IPHC-compressed and re-attributed from
//! the mesh capture), while v4-dependent devices brick even under
//! configurations that would have carried them on Ethernet.
//!
//! `repro mesh [--seed S] [--duration SECS] [--json]` renders the
//! comparison; the JSON serialization is byte-deterministic for a given
//! `(seed, duration)` and CI reruns and diffs it.

use std::collections::BTreeMap;

use serde::Serialize;
use v6brick_core::analysis::PassId;
use v6brick_devices::registry;
use v6brick_sim::{FaultPlan, SimTime};

use crate::config::NetworkConfig;
use crate::render::TextTable;
use crate::scenario::{self, Link};

/// The fixed device slice the comparison runs: two v6-ready hubs, two
/// cloud-chatty media devices, one Matter-style bridge, and one
/// v4-dependent camera — enough spread to show both outcomes without
/// paying for the full 93-device registry twice per configuration.
pub const DEVICE_IDS: [&str; 6] = [
    "aqara_hub",
    "echo_show_5",
    "google_home_mini",
    "homepod_mini",
    "nest_camera",
    "wyze_cam",
];

/// The configurations compared: the IPv4 baseline, the IPv6-only
/// readiness probe, and the dual-stack middle ground.
pub const CONFIGS: [NetworkConfig; 3] = [
    NetworkConfig::Ipv4Only,
    NetworkConfig::Ipv6Only,
    NetworkConfig::DualStack,
];

/// Campaign parameters for one comparison run.
#[derive(Debug, Clone)]
pub struct MeshSpec {
    /// Base seed; each configuration derives its simulation seed from it
    /// exactly as the Ethernet suite does.
    pub seed: u64,
    /// Simulated window per (configuration, link) cell, in seconds.
    pub duration_s: u64,
}

impl Default for MeshSpec {
    fn default() -> MeshSpec {
        MeshSpec {
            seed: 1,
            duration_s: scenario::EXPERIMENT_DURATION.0 / 1_000_000,
        }
    }
}

/// One device's outcome in one configuration, on both link layers.
#[derive(Debug, Clone, Serialize)]
pub struct DeviceReadiness {
    /// Functionality test passed on the Ethernet LAN.
    pub functional_ethernet: bool,
    /// Functionality test passed behind the border router.
    pub functional_mesh: bool,
    /// Sent DNS queries over IPv6 transport while meshed — proves the
    /// mesh-capture attribution credited the leaf, not the BR.
    pub dns_over_v6_mesh: bool,
    /// Moved Internet data over IPv6 while meshed.
    pub v6_internet_data_mesh: bool,
}

/// One configuration's Ethernet-vs-mesh comparison.
#[derive(Debug, Clone, Serialize)]
pub struct ConfigReadiness {
    /// The Table 2 row label of the Ethernet run.
    pub config: String,
    /// The mesh twin's population label.
    pub mesh_config: String,
    /// Per-device outcomes, keyed by device id.
    pub devices: BTreeMap<String, DeviceReadiness>,
    /// Devices functional on Ethernet.
    pub functional_ethernet: u64,
    /// Devices functional behind the mesh.
    pub functional_mesh: u64,
    /// 802.15.4 frames the border router put on the air.
    pub mesh_frames: u64,
    /// Leaf IPv4/ARP frames the v6-only mesh refused to carry.
    pub dropped_v4_frames: u64,
    /// IPv6 packets forwarded mesh → Ethernet.
    pub forwarded_up: u64,
    /// IPv6 packets forwarded Ethernet → mesh.
    pub forwarded_down: u64,
    /// Ethernet→mesh unicasts with no learned leaf route.
    pub no_route_drops: u64,
    /// Leaf address bindings recovered from the mesh capture.
    pub mesh_bindings: u64,
    /// Mesh frames/datagrams any decode stage dropped.
    pub mesh_decode_errors: u64,
}

/// The full comparison: every configuration in [`CONFIGS`] run twice.
///
/// Serialization is byte-deterministic for a given spec: the device map
/// is a `BTreeMap`, configurations keep [`CONFIGS`] order, and both
/// simulations are seeded.
#[derive(Debug, Clone, Serialize)]
pub struct MeshReadinessReport {
    /// Base seed the campaign ran under.
    pub seed: u64,
    /// Simulated seconds per cell.
    pub duration_s: u64,
    /// Device ids compared, sorted.
    pub devices: Vec<String>,
    /// One comparison per configuration, in [`CONFIGS`] order.
    pub configs: Vec<ConfigReadiness>,
}

/// Run the comparison: `CONFIGS × {Ethernet, mesh}` over [`DEVICE_IDS`].
pub fn run(spec: &MeshSpec) -> MeshReadinessReport {
    let profiles: Vec<_> = DEVICE_IDS.iter().map(|id| registry::by_id(id)).collect();
    let duration = SimTime::from_secs(spec.duration_s);
    let configs = CONFIGS
        .iter()
        .map(|&config| {
            let eth = scenario::run_scoped(config, &profiles, spec.seed, duration, &PassId::ALL);
            let home = scenario::execute(
                config,
                &profiles,
                spec.seed,
                duration,
                &PassId::ALL,
                FaultPlan::new(),
                scenario::build_zones(&profiles),
                Link::Mesh,
                false,
            );
            let transit = home.transit.expect("a mesh home reports its transit");
            let mesh = home.run;
            let devices: BTreeMap<String, DeviceReadiness> = profiles
                .iter()
                .map(|p| {
                    let o = mesh.analysis.device(&p.id);
                    (
                        p.id.clone(),
                        DeviceReadiness {
                            functional_ethernet: eth.functional.get(&p.id).copied() == Some(true),
                            functional_mesh: mesh.functional.get(&p.id).copied() == Some(true),
                            dns_over_v6_mesh: o.is_some_and(|o| o.dns_over_v6()),
                            v6_internet_data_mesh: o.is_some_and(|o| o.v6_internet_data()),
                        },
                    )
                })
                .collect();
            ConfigReadiness {
                config: config.label().to_string(),
                mesh_config: config.mesh_label().to_string(),
                functional_ethernet: devices.values().filter(|d| d.functional_ethernet).count()
                    as u64,
                functional_mesh: devices.values().filter(|d| d.functional_mesh).count() as u64,
                devices,
                mesh_frames: transit.mesh_frames,
                dropped_v4_frames: transit.dropped_v4_frames,
                forwarded_up: transit.forwarded_up,
                forwarded_down: transit.forwarded_down,
                no_route_drops: transit.no_route_drops,
                mesh_bindings: transit.mesh_bindings,
                mesh_decode_errors: transit.mesh_decode_errors,
            }
        })
        .collect();
    let mut devices: Vec<String> = DEVICE_IDS.iter().map(|s| s.to_string()).collect();
    devices.sort();
    MeshReadinessReport {
        seed: spec.seed,
        duration_s: spec.duration_s,
        devices,
        configs,
    }
}

/// Render the comparison as two text tables: per-device readiness and
/// the border-router transit counters.
pub fn render(report: &MeshReadinessReport) -> String {
    let mark = |b: bool| if b { "yes" } else { " - " };
    let t = TextTable::new(format!(
        "Mesh readiness (Table 3 across link layers, seed {:#x}, {} s windows)",
        report.seed, report.duration_s
    ))
    .percent_base(report.devices.len());
    let mut headers = vec!["Device".to_string()];
    for c in &report.configs {
        headers.push(format!("{} eth", c.config));
        headers.push("mesh".to_string());
    }
    let mut t2 = TextTable::new("Border-router transit per configuration").headers([
        "Mesh config",
        "802.15.4 frames",
        "v4 dropped",
        "up",
        "down",
        "no-route",
        "bindings",
        "decode errs",
    ]);
    let t = {
        let mut t = t.headers(headers);
        for id in &report.devices {
            let mut row = vec![id.clone()];
            for c in &report.configs {
                let d = &c.devices[id];
                row.push(mark(d.functional_ethernet).to_string());
                row.push(mark(d.functional_mesh).to_string());
            }
            t.row(row);
        }
        let mut totals = vec!["functional".to_string()];
        for c in &report.configs {
            totals.push(format!(
                "{}/{}",
                c.functional_ethernet,
                report.devices.len()
            ));
            totals.push(format!("{}/{}", c.functional_mesh, report.devices.len()));
        }
        t.row(totals);
        t
    };
    for c in &report.configs {
        t2.row([
            c.mesh_config.clone(),
            c.mesh_frames.to_string(),
            c.dropped_v4_frames.to_string(),
            c.forwarded_up.to_string(),
            c.forwarded_down.to_string(),
            c.no_route_drops.to_string(),
            c.mesh_bindings.to_string(),
            c.mesh_decode_errors.to_string(),
        ]);
    }
    format!("{t}\n{t2}")
}

#[cfg(test)]
mod tests {
    use super::*;

    fn quick_spec() -> MeshSpec {
        MeshSpec {
            seed: 0x6e57,
            duration_s: 90,
        }
    }

    #[test]
    fn readiness_shows_the_link_layer_delta() {
        let report = run(&quick_spec());
        assert_eq!(report.configs.len(), CONFIGS.len());

        // IPv4-only: the v6-only mesh bricks everything the Ethernet
        // LAN carried.
        let v4 = &report.configs[0];
        assert!(v4.functional_ethernet > 0, "Ethernet carries v4 devices");
        assert_eq!(v4.functional_mesh, 0, "no IPv4 crosses the mesh");
        assert!(v4.dropped_v4_frames > 0, "the BR counts refused v4 frames");

        // IPv6-only: v6-capable devices work on BOTH links, and the
        // mesh-capture attribution proves they were credited as leaves.
        let v6 = &report.configs[1];
        assert!(v6.functional_mesh > 0, "v6 devices survive the mesh");
        assert!(v6.mesh_bindings > 0, "leaf addresses were recovered");
        assert_eq!(v6.mesh_decode_errors, 0, "own mesh decodes losslessly");
        let mini = &v6.devices["google_home_mini"];
        assert!(mini.functional_ethernet && mini.functional_mesh);
        assert!(mini.dns_over_v6_mesh && mini.v6_internet_data_mesh);
        // Partially-ready devices keep their Table 3 shape across the
        // link change: not functional v6-only on either link, but their
        // meshed DNS and data still land on the right leaf.
        let show = &v6.devices["echo_show_5"];
        assert!(!show.functional_ethernet && !show.functional_mesh);
        assert!(show.dns_over_v6_mesh && show.v6_internet_data_mesh);
        let wyze = &v6.devices["wyze_cam"];
        assert!(!wyze.functional_mesh, "v4-dependent camera bricks");

        // Dual-stack: Ethernet carries everything, while the v6-only
        // transit mesh keeps only the truly v6-functional devices alive
        // — the headline link-layer delta.
        let ds = &report.configs[2];
        assert_eq!(ds.functional_ethernet, report.devices.len() as u64);
        assert!(ds.functional_mesh < ds.functional_ethernet);
        assert!(ds.functional_mesh > 0);
    }

    #[test]
    fn report_is_seed_deterministic() {
        let a = serde_json::to_string(&run(&quick_spec())).expect("serializable");
        let b = serde_json::to_string(&run(&quick_spec())).expect("serializable");
        assert_eq!(a, b, "same spec must serialize byte-identically");
    }
}
