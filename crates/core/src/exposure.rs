//! Internet-side exposure: scanner hitlist generation and the mergeable
//! per-campaign [`ExposureReport`].
//!
//! The paper measures IPv6 service readiness from *inside* the home
//! (Fig. 5's LAN port scan). The related work looks at the same devices
//! from the Internet: "Unconsidered Installations" discovers IoT
//! deployments in the v6 Internet via hitlists built from structured
//! interface identifiers, and "Where Have All the Firewalls Gone?" shows
//! routed residential /64s often lack the default-deny posture NAT gave
//! IPv4. This module supplies the vantage-independent pieces of that
//! methodology:
//!
//! * [`hitlist`] — candidate GUAs derived from observed EUI-64/SLAAC
//!   addressing, the way real scanners extrapolate from passive
//!   observations (a MAC seen once pins the OUI; adjacent NIC suffixes
//!   from the same production batch are worth probing too);
//! * [`dense_sweep`] — the brute-force low-IID baseline, which a 2^64
//!   interface-identifier space makes structurally hopeless for SLAAC
//!   addresses;
//! * [`ExposureReport`] — a byte-deterministic aggregate of what a WAN
//!   scanner reached, broken down by device category x firewall policy x
//!   addressing mode, merging hierarchically like
//!   [`PopulationReport`](crate::population::PopulationReport).

use serde::Serialize;
use std::collections::{BTreeMap, BTreeSet};
use std::net::Ipv6Addr;
use v6brick_net::ipv6::Ipv6AddrExt;
use v6brick_net::Mac;

/// Candidate GUAs for an Internet-side scan of `prefix`, extrapolated
/// from passively `observed` addresses (any scope — an EUI-64 link-local
/// leaks the same MAC as a GUA).
///
/// Only EUI-64-format observations contribute: each one pins a MAC, and
/// every NIC suffix within `neighborhood` of it (same OUI, wrapping in
/// the 24-bit suffix space) is re-derived into a SLAAC address under
/// `prefix`. Privacy-extension and DHCPv6 addresses carry no structure
/// worth extrapolating and are skipped — so a hitlist never contains a
/// temporary address, and always contains the true SLAAC GUA of any
/// device whose EUI-64 identifier was observed.
///
/// Returned sorted and deduplicated.
pub fn hitlist(prefix: Ipv6Addr, observed: &[Ipv6Addr], neighborhood: u16) -> Vec<Ipv6Addr> {
    let mut out = BTreeSet::new();
    for a in observed {
        let Some(mac) = a.eui64_mac() else {
            continue;
        };
        let oui = mac.oui();
        let suffix = u32::from_be_bytes([0, mac.0[3], mac.0[4], mac.0[5]]);
        for delta in -i64::from(neighborhood)..=i64::from(neighborhood) {
            let s = (i64::from(suffix) + delta).rem_euclid(1 << 24) as u32;
            let b = s.to_be_bytes();
            let m = Mac::new(oui[0], oui[1], oui[2], b[1], b[2], b[3]);
            out.insert(m.slaac_address(prefix));
        }
    }
    out.into_iter().collect()
}

/// The dense-sweep baseline: the first `budget` interface identifiers of
/// `prefix` (`::1` up), the way a v4-style address-space walk would start.
/// It finds low-IID router/DHCP-style addresses and structurally misses
/// both SLAAC identifiers (2^64 space) and high-IID DHCPv6 pools.
pub fn dense_sweep(prefix: Ipv6Addr, budget: u32) -> Vec<Ipv6Addr> {
    (1..=u128::from(budget))
        .map(|i| Ipv6Addr::from(u128::from(prefix) | i))
        .collect()
}

/// One cell of the exposure matrix: scan targets sharing a device
/// category, firewall policy, and addressing mode.
#[derive(Debug, Clone, Default, PartialEq, Eq, Serialize)]
pub struct ExposureCell {
    /// Global addresses probed.
    pub targets: u64,
    /// Targets that answered the liveness probe from the WAN.
    pub responsive: u64,
    /// Open TCP (target, port) pairs reachable from the Internet.
    pub open_tcp: u64,
    /// Open UDP (target, port) pairs reachable from the Internet.
    pub open_udp: u64,
}

impl ExposureCell {
    /// Ports reachable from the Internet, either transport.
    pub fn open_total(&self) -> u64 {
        self.open_tcp + self.open_udp
    }

    fn merge(&mut self, other: &ExposureCell) {
        self.targets += other.targets;
        self.responsive += other.responsive;
        self.open_tcp += other.open_tcp;
        self.open_udp += other.open_udp;
    }
}

/// Hitlist quality against ground truth, per firewall policy.
#[derive(Debug, Clone, Default, PartialEq, Eq, Serialize)]
pub struct HitlistStats {
    /// Ground-truth global addresses assigned across the scanned homes.
    pub truth_addrs: u64,
    /// EUI-64 hitlist candidates generated.
    pub candidates: u64,
    /// Ground-truth addresses the hitlist covered.
    pub covered: u64,
    /// Hitlist candidates that answered the liveness probe.
    pub responsive: u64,
    /// Dense-sweep candidates probed.
    pub dense_candidates: u64,
    /// Ground-truth addresses the dense sweep covered.
    pub dense_covered: u64,
    /// Dense-sweep candidates that answered the liveness probe.
    pub dense_responsive: u64,
}

impl HitlistStats {
    fn merge(&mut self, other: &HitlistStats) {
        self.truth_addrs += other.truth_addrs;
        self.candidates += other.candidates;
        self.covered += other.covered;
        self.responsive += other.responsive;
        self.dense_candidates += other.dense_candidates;
        self.dense_covered += other.dense_covered;
        self.dense_responsive += other.dense_responsive;
    }
}

/// The WAN scan outcome for one target address under one policy.
#[derive(Debug, Clone)]
pub struct TargetOutcome {
    /// Firewall policy label the home ran (`default-deny`/`pinholed`/
    /// `open`).
    pub policy: String,
    /// Device category label (the paper's Table 3 grouping).
    pub category: String,
    /// Addressing mode of the probed address (`eui64`/`privacy`/`dhcpv6`).
    pub addressing: String,
    /// Did the target answer the liveness probe?
    pub responsive: bool,
    /// Open TCP ports found reachable on it.
    pub open_tcp: u64,
    /// Open UDP ports found reachable on it.
    pub open_udp: u64,
}

/// Everything one home's WAN scan campaign produced (all policies).
#[derive(Debug, Clone, Default)]
pub struct HomeScanOutcome {
    /// IoT devices in the home.
    pub devices: u64,
    /// Per-target, per-policy scan results.
    pub targets: Vec<TargetOutcome>,
    /// Per-policy hitlist quality.
    pub hitlist: Vec<(String, HitlistStats)>,
}

/// Mergeable, byte-deterministic aggregate of a WAN scan campaign.
///
/// Counters only, in `BTreeMap`s keyed by stable labels: serialization is
/// byte-identical for a given campaign regardless of worker count, merge
/// order, or shard boundaries (the same discipline as
/// [`PopulationReport`](crate::population::PopulationReport), pinned by
/// the `wanscan_determinism` integration test).
#[derive(Debug, Clone, PartialEq, Serialize)]
pub struct ExposureReport {
    /// Campaign seed — merging reports from different campaigns is a bug.
    pub campaign_seed: u64,
    /// Homes scanned.
    pub homes: u64,
    /// IoT devices across those homes.
    pub devices: u64,
    /// category → firewall policy → addressing mode → cell.
    pub cells: BTreeMap<String, BTreeMap<String, BTreeMap<String, ExposureCell>>>,
    /// firewall policy → hitlist quality vs ground truth.
    pub hitlist: BTreeMap<String, HitlistStats>,
    /// Homes whose scan worker crashed (not serialized: crash isolation
    /// reporting, like `PopulationReport::failures`).
    #[serde(skip)]
    pub failures: Vec<(u64, String)>,
}

impl ExposureReport {
    /// An empty report for a campaign.
    pub fn new(campaign_seed: u64) -> ExposureReport {
        ExposureReport {
            campaign_seed,
            homes: 0,
            devices: 0,
            cells: BTreeMap::new(),
            hitlist: BTreeMap::new(),
            failures: Vec::new(),
        }
    }

    /// Fold one home's scan outcome in.
    pub fn absorb_home(&mut self, outcome: &HomeScanOutcome) {
        self.homes += 1;
        self.devices += outcome.devices;
        for t in &outcome.targets {
            let cell = self
                .cells
                .entry(t.category.clone())
                .or_default()
                .entry(t.policy.clone())
                .or_default()
                .entry(t.addressing.clone())
                .or_default();
            cell.targets += 1;
            cell.responsive += u64::from(t.responsive);
            cell.open_tcp += t.open_tcp;
            cell.open_udp += t.open_udp;
        }
        for (policy, hs) in &outcome.hitlist {
            self.hitlist.entry(policy.clone()).or_default().merge(hs);
        }
    }

    /// Record a home whose scan worker crashed.
    pub fn absorb_failure(&mut self, home_index: u64, panic_message: String) {
        self.failures.push((home_index, panic_message));
    }

    /// Merge another shard of the same campaign (associative and
    /// commutative, like `PopulationReport::merge`).
    pub fn merge(&mut self, other: &ExposureReport) {
        assert_eq!(
            self.campaign_seed, other.campaign_seed,
            "merging exposure reports from different campaigns"
        );
        self.homes += other.homes;
        self.devices += other.devices;
        for (cat, by_policy) in &other.cells {
            let mine = self.cells.entry(cat.clone()).or_default();
            for (policy, by_mode) in by_policy {
                let mine = mine.entry(policy.clone()).or_default();
                for (mode, cell) in by_mode {
                    mine.entry(mode.clone()).or_default().merge(cell);
                }
            }
        }
        for (policy, hs) in &other.hitlist {
            self.hitlist.entry(policy.clone()).or_default().merge(hs);
        }
        self.failures.extend(other.failures.iter().cloned());
    }

    /// Open ports reachable under `policy` in `category`, summed over
    /// addressing modes.
    pub fn open_ports(&self, category: &str, policy: &str) -> u64 {
        self.cells
            .get(category)
            .and_then(|p| p.get(policy))
            .map(|modes| modes.values().map(ExposureCell::open_total).sum())
            .unwrap_or(0)
    }

    /// Check the structural guarantee of the firewall-policy lattice: for
    /// every device category, `open` reaches at least as many ports as
    /// `pinholed`, which reaches at least as many as `default-deny`.
    /// Returns a violation description per offending category.
    pub fn monotonic_violations(&self) -> Vec<String> {
        let mut v = Vec::new();
        for cat in self.cells.keys() {
            let deny = self.open_ports(cat, "default-deny");
            let pin = self.open_ports(cat, "pinholed");
            let open = self.open_ports(cat, "open");
            if !(open >= pin && pin >= deny) {
                v.push(format!(
                    "{cat}: open={open} pinholed={pin} default-deny={deny}"
                ));
            }
        }
        v
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn mac() -> Mac {
        Mac::new(0xc0, 0xff, 0x4d, 0x2e, 0x1a, 0x2b)
    }

    fn prefix() -> Ipv6Addr {
        "2001:db8:10:1::".parse().unwrap()
    }

    #[test]
    fn hitlist_rederives_gua_from_any_eui64_observation() {
        let gua = mac().slaac_address(prefix());
        // Observing the GUA itself, or only the EUI-64 LLA, both pin the
        // MAC and therefore the GUA.
        let lla = mac().slaac_address("fe80::".parse().unwrap());
        for obs in [gua, lla] {
            let h = hitlist(prefix(), &[obs], 2);
            assert!(h.contains(&gua), "observation {obs} must cover {gua}");
            assert_eq!(h.len(), 5, "window of 2 yields 5 candidates");
        }
    }

    #[test]
    fn hitlist_skips_unstructured_addresses() {
        let privacy: Ipv6Addr = "2001:db8:10:1:7c11:aabb:1234:5678".parse().unwrap();
        let dhcp: Ipv6Addr = "2001:db8:10:1::d000".parse().unwrap();
        assert!(hitlist(prefix(), &[privacy, dhcp], 8).is_empty());
    }

    #[test]
    fn hitlist_neighborhood_wraps_within_oui() {
        let low = Mac::new(0xc0, 0xff, 0x4d, 0, 0, 0);
        let h = hitlist(prefix(), &[low.slaac_address(prefix())], 1);
        let wrapped = Mac::new(0xc0, 0xff, 0x4d, 0xff, 0xff, 0xff);
        assert!(h.contains(&wrapped.slaac_address(prefix())));
        assert_eq!(h.len(), 3);
    }

    #[test]
    fn dense_sweep_misses_slaac_and_dhcpv6_pool() {
        let sweep = dense_sweep(prefix(), 1024);
        assert_eq!(sweep.len(), 1024);
        assert_eq!(sweep[0], "2001:db8:10:1::1".parse::<Ipv6Addr>().unwrap());
        assert!(!sweep.contains(&mac().slaac_address(prefix())));
        assert!(!sweep.contains(&"2001:db8:10:1::d000".parse().unwrap()));
    }

    fn outcome(devices: u64, policy: &str, open_tcp: u64) -> HomeScanOutcome {
        HomeScanOutcome {
            devices,
            targets: vec![TargetOutcome {
                policy: policy.into(),
                category: "Camera".into(),
                addressing: "eui64".into(),
                responsive: open_tcp > 0,
                open_tcp,
                open_udp: 0,
            }],
            hitlist: vec![(
                policy.into(),
                HitlistStats {
                    truth_addrs: devices,
                    candidates: devices * 3,
                    covered: devices,
                    responsive: devices,
                    dense_candidates: 16,
                    dense_covered: 0,
                    dense_responsive: 0,
                },
            )],
        }
    }

    #[test]
    fn merge_equals_sequential_absorb() {
        let outcomes = [
            outcome(3, "open", 5),
            outcome(2, "pinholed", 2),
            outcome(4, "open", 1),
        ];
        let mut seq = ExposureReport::new(9);
        for o in &outcomes {
            seq.absorb_home(o);
        }
        let mut left = ExposureReport::new(9);
        left.absorb_home(&outcomes[0]);
        let mut right = ExposureReport::new(9);
        right.absorb_home(&outcomes[1]);
        right.absorb_home(&outcomes[2]);
        left.merge(&right);
        assert_eq!(left, seq);
        assert_eq!(
            serde_json::to_string(&left).unwrap(),
            serde_json::to_string(&seq).unwrap()
        );
    }

    #[test]
    #[should_panic(expected = "different campaigns")]
    fn merge_rejects_foreign_campaign() {
        let mut a = ExposureReport::new(1);
        a.merge(&ExposureReport::new(2));
    }

    #[test]
    fn monotonicity_check_flags_inversions() {
        let mut r = ExposureReport::new(1);
        r.absorb_home(&outcome(1, "open", 3));
        r.absorb_home(&outcome(1, "pinholed", 1));
        r.absorb_home(&outcome(1, "default-deny", 0));
        assert!(r.monotonic_violations().is_empty());
        r.absorb_home(&outcome(1, "default-deny", 9));
        let v = r.monotonic_violations();
        assert_eq!(v.len(), 1);
        assert!(v[0].starts_with("Camera:"));
    }
}
