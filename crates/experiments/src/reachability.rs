//! Extension experiment (§7 future work): IPv6 destination reachability.
//!
//! "Having an IPv6 address does not guarantee the destination is
//! reachable, which explains why some devices still use IPv4 despite
//! having AAAA records." This module makes a configurable fraction of
//! AAAA-ready destinations unreachable over IPv6 and measures the
//! consequences: in dual-stack the devices' happy-eyeballs fallback
//! recovers over IPv4; in an IPv6-only network the same destinations
//! brick their devices outright.

use crate::config::NetworkConfig;
use crate::render::TextTable;
use crate::scenario::{self, ExperimentRun, Link};
use v6brick_core::analysis::PassId;
use v6brick_devices::profile::DeviceProfile;
use v6brick_devices::registry;
use v6brick_sim::internet::ZoneDb;
use v6brick_sim::FaultPlan;

/// Build zones where every `k`-th AAAA-ready destination is unreachable
/// over IPv6 (deterministic by name hash).
pub fn zones_with_dead_v6(profiles: &[DeviceProfile], every_kth: u64) -> ZoneDb {
    let base = scenario::build_zones(profiles);
    let mut out = ZoneDb::new();
    for p in base.iter() {
        let mut p = p.clone();
        if p.aaaa.is_some() && every_kth > 0 {
            let mut h: u64 = 0xcbf2_9ce4_8422_2325;
            for b in p.name.as_str().bytes() {
                h ^= u64::from(b);
                h = h.wrapping_mul(0x100_0000_01b3);
            }
            if h.is_multiple_of(every_kth) {
                p = p.with_v6_unreachable();
            }
        }
        out.insert(p);
    }
    out
}

/// Run one configuration with degraded v6 reachability: the ordinary
/// executor over [`zones_with_dead_v6`], every pass, base seed `0x7ea1`.
pub fn run_with_dead_v6(
    config: NetworkConfig,
    profiles: &[DeviceProfile],
    every_kth: u64,
) -> ExperimentRun {
    scenario::execute(
        config,
        profiles,
        0x7ea1,
        scenario::EXPERIMENT_DURATION,
        &PassId::ALL,
        FaultPlan::new(),
        zones_with_dead_v6(profiles, every_kth),
        Link::Ethernet,
        false,
    )
    .run
}

/// The reachability report: healthy vs degraded v6, in both dual-stack
/// and IPv6-only networks, over the functional-capable device set.
pub fn report() -> TextTable {
    let ids = [
        "apple_tv",
        "google_tv",
        "tivo_stream",
        "meta_portal_mini",
        "google_home_mini",
        "google_nest_mini",
        "nest_hub",
        "nest_hub_max",
    ];
    let profiles: Vec<DeviceProfile> = ids.iter().map(|id| registry::by_id(id)).collect();

    let healthy_v6 = scenario::run_with_profiles(NetworkConfig::Ipv6Only, &profiles);
    let degraded_v6 = run_with_dead_v6(NetworkConfig::Ipv6Only, &profiles, 2);
    let degraded_dual = run_with_dead_v6(NetworkConfig::DualStack, &profiles, 2);

    let functional = |r: &ExperimentRun| r.functional.values().filter(|f| **f).count();
    let mut t = TextTable::new(
        "Extension (paper §7): IPv6 destination reachability — half the AAAA-ready servers dead over v6",
    )
    .headers(["Scenario", "Functional (of 8)", "Devices with v6 data"]);
    t.row([
        "IPv6-only, all servers reachable".to_string(),
        functional(&healthy_v6).to_string(),
        healthy_v6
            .analysis
            .count(|o| o.v6_internet_data())
            .to_string(),
    ]);
    t.row([
        "IPv6-only, 1/2 of v6 servers dead".to_string(),
        functional(&degraded_v6).to_string(),
        degraded_v6
            .analysis
            .count(|o| o.v6_internet_data())
            .to_string(),
    ]);
    t.row([
        "Dual-stack, 1/2 of v6 servers dead (v4 fallback)".to_string(),
        functional(&degraded_dual).to_string(),
        degraded_dual
            .analysis
            .count(|o| o.v6_internet_data())
            .to_string(),
    ]);
    t
}

#[cfg(test)]
mod tests {
    use super::*;

    fn profiles(ids: &[&str]) -> Vec<DeviceProfile> {
        ids.iter().map(|id| registry::by_id(id)).collect()
    }

    #[test]
    fn dead_v6_required_brick_in_v6only_but_fall_back_in_dual() {
        // Make EVERY v6 server dead: even a fully v6-capable, normally
        // functional device bricks in IPv6-only...
        let p = profiles(&["google_home_mini"]);
        let v6 = run_with_dead_v6(NetworkConfig::Ipv6Only, &p, 1);
        assert_eq!(v6.functional.get("google_home_mini"), Some(&false));
        let o = v6.analysis.device("google_home_mini").unwrap();
        assert!(
            !o.aaaa_pos_v6.is_empty(),
            "AAAA records still resolve — only the data path is dead"
        );
        assert_eq!(o.v6_internet_bytes, 0, "no v6 exchange completes");

        // ...but in dual-stack the happy-eyeballs fallback saves it.
        let dual = run_with_dead_v6(NetworkConfig::DualStack, &p, 1);
        assert_eq!(dual.functional.get("google_home_mini"), Some(&true));
        let o = dual.analysis.device("google_home_mini").unwrap();
        assert!(o.v4_internet_bytes > 0, "recovered over IPv4");
    }

    #[test]
    fn healthy_zones_unaffected_by_zero_fraction() {
        let p = profiles(&["google_home_mini"]);
        let run = run_with_dead_v6(NetworkConfig::Ipv6Only, &p, 0);
        assert_eq!(run.functional.get("google_home_mini"), Some(&true));
    }
}
