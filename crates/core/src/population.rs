//! Population-scale aggregation: mergeable marginals over many homes.
//!
//! A fleet campaign simulates hundreds of independent homes and cannot
//! keep every capture (or even every analysis) in memory. This module
//! provides the streaming alternative: each home's
//! [`DeviceObservation`]s fold into a [`PopulationReport`] and are
//! dropped. Reports are associative — two partial reports [`merge`]
//! into the same result as one sequential pass — so a campaign can be
//! reduced per-worker and combined, or streamed home-by-home.
//!
//! Every field is an integer counter keyed by `BTreeMap`s; no floats
//! and no hash-order dependence. Serializing the same campaign twice —
//! regardless of worker count — yields byte-identical JSON, which the
//! determinism tests rely on.
//!
//! [`merge`]: PopulationReport::merge

use crate::analysis::PassId;
use crate::funnel::Stage;
use crate::observe::DeviceObservation;
use serde::{Deserialize, Serialize};
use std::collections::BTreeMap;

/// The analyzer passes whose fields a [`PopulationReport`] actually
/// reads: funnel and behaviour marginals (`addressing`, `ndp_dad`,
/// `dns`), histograms and volume counters (`traffic`). The EUI-64
/// correlator and the flow table feed nothing in the report, so every
/// population consumer — the offline fleet pool and the `v6brickd`
/// ingestion daemon alike — runs exactly this subset; sharing one const
/// is part of what makes their reports byte-identical.
pub const POPULATION_PASSES: &[PassId] = &[
    PassId::Addressing,
    PassId::NdpDad,
    PassId::Dns,
    PassId::Traffic,
];

/// The Table 3 feature funnel, as population marginals: how many
/// devices reached each [`Stage`].
#[derive(Debug, Clone, Default, PartialEq, Eq, Serialize, Deserialize)]
pub struct FunnelCounts {
    /// Reached [`Stage::NdpTraffic`].
    pub ndp_traffic: u64,
    /// Reached [`Stage::V6Addr`].
    pub v6_addr: u64,
    /// Reached [`Stage::ActiveGua`].
    pub active_gua: u64,
    /// Reached [`Stage::AaaaQueryV6`].
    pub aaaa_q_v6: u64,
    /// Reached [`Stage::AaaaAnswerV6`].
    pub aaaa_pos_v6: u64,
    /// Reached [`Stage::V6InternetData`].
    pub v6_internet_data: u64,
    /// Reached [`Stage::Functional`].
    pub functional: u64,
}

impl FunnelCounts {
    /// Devices that reached `stage`.
    pub fn count(&self, stage: Stage) -> u64 {
        match stage {
            Stage::NdpTraffic => self.ndp_traffic,
            Stage::V6Addr => self.v6_addr,
            Stage::ActiveGua => self.active_gua,
            Stage::AaaaQueryV6 => self.aaaa_q_v6,
            Stage::AaaaAnswerV6 => self.aaaa_pos_v6,
            Stage::V6InternetData => self.v6_internet_data,
            Stage::Functional => self.functional,
        }
    }

    fn count_mut(&mut self, stage: Stage) -> &mut u64 {
        match stage {
            Stage::NdpTraffic => &mut self.ndp_traffic,
            Stage::V6Addr => &mut self.v6_addr,
            Stage::ActiveGua => &mut self.active_gua,
            Stage::AaaaQueryV6 => &mut self.aaaa_q_v6,
            Stage::AaaaAnswerV6 => &mut self.aaaa_pos_v6,
            Stage::V6InternetData => &mut self.v6_internet_data,
            Stage::Functional => &mut self.functional,
        }
    }

    fn absorb(&mut self, o: &DeviceObservation, functional: bool) {
        for stage in Stage::ALL {
            *self.count_mut(stage) += stage.reached(o, functional) as u64;
        }
    }

    fn merge(&mut self, other: &FunnelCounts) {
        for stage in Stage::ALL {
            *self.count_mut(stage) += other.count(stage);
        }
    }
}

/// The Table 5 behaviour marginals: address-management and DNS habits
/// across the population.
#[derive(Debug, Clone, Default, PartialEq, Eq, Serialize, Deserialize)]
pub struct BehaviorCounts {
    /// Ran a stateful DHCPv6 exchange.
    pub dhcpv6_stateful: u64,
    /// Held a unique-local address.
    pub ula: u64,
    /// Held a link-local address.
    pub lla: u64,
    /// Held an active EUI-64-derived address.
    pub eui64_addr: u64,
    /// Sent DNS over IPv6 transport.
    pub dns_over_v6: u64,
    /// Queried A-only (never AAAA) over IPv6 transport.
    pub a_only_v6: u64,
    /// Issued AAAA queries over either transport.
    pub aaaa_any: u64,
    /// Issued AAAA queries over IPv4 transport only.
    pub aaaa_v4_only: u64,
    /// Got a positive AAAA answer over either transport.
    pub aaaa_pos_any: u64,
    /// Got a negative AAAA answer.
    pub aaaa_neg: u64,
    /// Completed a DHCPv4 exchange.
    pub dhcpv4_used: u64,
}

impl BehaviorCounts {
    fn absorb(&mut self, o: &DeviceObservation) {
        self.dhcpv6_stateful += o.dhcpv6_stateful as u64;
        self.ula += o.has_ula() as u64;
        self.lla += o.has_lla() as u64;
        self.eui64_addr += o.has_eui64_addr() as u64;
        self.dns_over_v6 += o.dns_over_v6() as u64;
        self.a_only_v6 += !o.a_only_v6_names().is_empty() as u64;
        self.aaaa_any += !o.aaaa_q_any().is_empty() as u64;
        self.aaaa_v4_only += o.aaaa_v4_only() as u64;
        self.aaaa_pos_any += !o.aaaa_pos_any().is_empty() as u64;
        self.aaaa_neg += !o.aaaa_neg.is_empty() as u64;
        self.dhcpv4_used += o.dhcpv4_used as u64;
    }

    fn merge(&mut self, other: &BehaviorCounts) {
        self.dhcpv6_stateful += other.dhcpv6_stateful;
        self.ula += other.ula;
        self.lla += other.lla;
        self.eui64_addr += other.eui64_addr;
        self.dns_over_v6 += other.dns_over_v6;
        self.a_only_v6 += other.a_only_v6;
        self.aaaa_any += other.aaaa_any;
        self.aaaa_v4_only += other.aaaa_v4_only;
        self.aaaa_pos_any += other.aaaa_pos_any;
        self.aaaa_neg += other.aaaa_neg;
        self.dhcpv4_used += other.dhcpv4_used;
    }
}

/// An integer histogram that can render cumulative distributions.
#[derive(Debug, Clone, Default, PartialEq, Eq, Serialize, Deserialize)]
pub struct Histogram {
    /// value → occurrence count.
    pub counts: BTreeMap<u64, u64>,
    /// Total samples recorded.
    pub total: u64,
}

impl Histogram {
    /// Record one sample.
    pub fn record(&mut self, value: u64) {
        *self.counts.entry(value).or_insert(0) += 1;
        self.total += 1;
    }

    /// Fold another histogram in.
    pub fn merge(&mut self, other: &Histogram) {
        for (value, count) in &other.counts {
            *self.counts.entry(*value).or_insert(0) += count;
        }
        self.total += other.total;
    }

    /// CDF points `(value, fraction of samples ≤ value)`.
    pub fn cdf(&self) -> Vec<(u64, f64)> {
        let mut cumulative = 0u64;
        self.counts
            .iter()
            .map(|(value, count)| {
                cumulative += count;
                (*value, cumulative as f64 / self.total.max(1) as f64)
            })
            .collect()
    }

    /// The smallest recorded value whose CDF reaches `q` (0..=1).
    pub fn quantile(&self, q: f64) -> Option<u64> {
        let target = (q * self.total as f64).ceil() as u64;
        let mut cumulative = 0u64;
        for (value, count) in &self.counts {
            cumulative += count;
            if cumulative >= target {
                return Some(*value);
            }
        }
        self.counts.keys().next_back().copied()
    }
}

/// Per-network-config outcome rates.
#[derive(Debug, Clone, Default, PartialEq, Eq, Serialize, Deserialize)]
pub struct ConfigOutcome {
    /// Homes simulated under this config.
    pub homes: u64,
    /// Devices across those homes.
    pub devices: u64,
    /// Devices passing the functionality check.
    pub functional: u64,
}

/// Campaign-wide traffic volume counters.
#[derive(Debug, Clone, Default, PartialEq, Eq, Serialize, Deserialize)]
pub struct TrafficTotals {
    /// Frames captured across all homes.
    pub frames: u64,
    /// IPv6 Internet payload bytes.
    pub v6_internet_bytes: u64,
    /// IPv4 Internet payload bytes.
    pub v4_internet_bytes: u64,
    /// IPv6 local payload bytes.
    pub v6_local_bytes: u64,
}

impl TrafficTotals {
    fn merge(&mut self, other: &TrafficTotals) {
        self.frames += other.frames;
        self.v6_internet_bytes += other.v6_internet_bytes;
        self.v4_internet_bytes += other.v4_internet_bytes;
        self.v6_local_bytes += other.v6_local_bytes;
    }
}

/// One home that panicked instead of completing its simulation.
///
/// Failures ride on the [`PopulationReport`] for campaign accounting but
/// are **excluded from serialization**: the serialized report over the
/// surviving homes must stay byte-identical to a campaign that never
/// contained the poisoned home at all.
#[derive(Debug, Clone, PartialEq, Eq, Serialize, Deserialize)]
pub struct HomeFailure {
    /// Home index within the campaign.
    pub index: u64,
    /// The home's derived simulation seed.
    pub seed: u64,
    /// Network-config label the home ran under.
    pub config_label: String,
    /// Rendered panic payload from the worker.
    pub panic_msg: String,
}

/// The streaming aggregate over a whole campaign of simulated homes.
#[derive(Debug, Clone, Default, PartialEq, Serialize, Deserialize)]
pub struct PopulationReport {
    /// Seed the campaign's per-home seeds derive from.
    pub campaign_seed: u64,
    /// Homes absorbed so far.
    pub homes: u64,
    /// Devices absorbed so far.
    pub devices: u64,
    /// Homes per network-config label (Table 2 row).
    pub homes_by_config: BTreeMap<String, u64>,
    /// Table 3 funnel marginals over all devices.
    pub funnel: FunnelCounts,
    /// Table 5 behaviour marginals over all devices.
    pub behavior: BehaviorCounts,
    /// Outcome rates per network-config label.
    pub per_config: BTreeMap<String, ConfigOutcome>,
    /// Active IPv6 addresses per device.
    pub addr_hist: Histogram,
    /// Distinct AAAA-queried names per device.
    pub aaaa_hist: Histogram,
    /// Volume counters.
    pub traffic: TrafficTotals,
    /// Homes that panicked instead of completing (crash isolation).
    /// Never serialized — see [`HomeFailure`].
    #[serde(skip)]
    pub failures: Vec<HomeFailure>,
}

impl PopulationReport {
    /// Fresh report for a campaign rooted at `campaign_seed`.
    pub fn new(campaign_seed: u64) -> Self {
        PopulationReport {
            campaign_seed,
            ..Default::default()
        }
    }

    /// Fold one finished home in: its per-device observations, the
    /// functionality-check outcomes, and the capture's frame count. The
    /// home's heavyweight state (capture, flow table) should already be
    /// gone by the time this runs.
    pub fn absorb_home(
        &mut self,
        config_label: &str,
        observations: &BTreeMap<String, DeviceObservation>,
        functional: &BTreeMap<String, bool>,
        frames: u64,
    ) {
        self.homes += 1;
        *self
            .homes_by_config
            .entry(config_label.to_string())
            .or_insert(0) += 1;
        let outcome = self.per_config.entry(config_label.to_string()).or_default();
        outcome.homes += 1;
        self.traffic.frames += frames;
        for (id, o) in observations {
            let is_functional = functional.get(id).copied().unwrap_or(false);
            self.devices += 1;
            outcome.devices += 1;
            outcome.functional += is_functional as u64;
            self.funnel.absorb(o, is_functional);
            self.behavior.absorb(o);
            self.addr_hist.record(o.active_v6.len() as u64);
            self.aaaa_hist.record(o.aaaa_q_any().len() as u64);
            self.traffic.v6_internet_bytes += o.v6_internet_bytes;
            self.traffic.v4_internet_bytes += o.v4_internet_bytes;
            self.traffic.v6_local_bytes += o.v6_local_bytes;
        }
    }

    /// Record one home that panicked instead of completing. Failures do
    /// not touch any serialized counter; they exist so the harness can
    /// report (and gate on) partial campaigns.
    pub fn absorb_failure(&mut self, failure: HomeFailure) {
        self.failures.push(failure);
    }

    /// Fold another partial report in. Merging is associative and
    /// commutative, so any reduction tree over disjoint home subsets
    /// produces the same report. Panics if the seeds disagree — partial
    /// reports from different campaigns are not comparable.
    pub fn merge(&mut self, other: &PopulationReport) {
        assert_eq!(
            self.campaign_seed, other.campaign_seed,
            "merging reports from different campaigns"
        );
        self.homes += other.homes;
        self.devices += other.devices;
        for (label, n) in &other.homes_by_config {
            *self.homes_by_config.entry(label.clone()).or_insert(0) += n;
        }
        self.funnel.merge(&other.funnel);
        self.behavior.merge(&other.behavior);
        for (label, outcome) in &other.per_config {
            let mine = self.per_config.entry(label.clone()).or_default();
            mine.homes += outcome.homes;
            mine.devices += outcome.devices;
            mine.functional += outcome.functional;
        }
        self.addr_hist.merge(&other.addr_hist);
        self.aaaa_hist.merge(&other.aaaa_hist);
        self.traffic.merge(&other.traffic);
        self.failures.extend(other.failures.iter().cloned());
        self.failures.sort_by_key(|f| f.index);
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn home(
        n_devices: usize,
        active: usize,
    ) -> (BTreeMap<String, DeviceObservation>, BTreeMap<String, bool>) {
        let mut obs = BTreeMap::new();
        let mut func = BTreeMap::new();
        for i in 0..n_devices {
            let mut o = DeviceObservation {
                ndp_traffic: true,
                ..Default::default()
            };
            for a in 0..active {
                o.active_v6.insert(
                    format!("2001:db8::{:x}:{:x}", i + 1, a + 1)
                        .parse()
                        .unwrap(),
                );
            }
            o.v6_internet_bytes = 100;
            obs.insert(format!("dev-{i}"), o);
            func.insert(format!("dev-{i}"), i % 2 == 0);
        }
        (obs, func)
    }

    #[test]
    fn absorb_counts_devices_and_homes() {
        let mut r = PopulationReport::new(7);
        let (obs, func) = home(4, 2);
        r.absorb_home("IPv6-only", &obs, &func, 1000);
        assert_eq!(r.homes, 1);
        assert_eq!(r.devices, 4);
        assert_eq!(r.funnel.ndp_traffic, 4);
        assert_eq!(r.funnel.v6_addr, 4);
        assert_eq!(r.funnel.functional, 2);
        assert_eq!(r.per_config["IPv6-only"].functional, 2);
        assert_eq!(r.traffic.frames, 1000);
        assert_eq!(r.traffic.v6_internet_bytes, 400);
        assert_eq!(r.addr_hist.total, 4);
        assert_eq!(r.addr_hist.counts[&2], 4);
    }

    #[test]
    fn merge_equals_sequential_absorb() {
        let homes: Vec<_> = (1..=6).map(|n| home(n, n % 3)).collect();
        let mut sequential = PopulationReport::new(1);
        for (obs, func) in &homes {
            sequential.absorb_home("Dual-stack", obs, func, 10);
        }
        let mut left = PopulationReport::new(1);
        let mut right = PopulationReport::new(1);
        for (i, (obs, func)) in homes.iter().enumerate() {
            let part = if i < 3 { &mut left } else { &mut right };
            part.absorb_home("Dual-stack", obs, func, 10);
        }
        left.merge(&right);
        assert_eq!(left, sequential);
    }

    #[test]
    fn histogram_cdf_and_quantile() {
        let mut h = Histogram::default();
        for v in [0, 0, 1, 2, 2, 2] {
            h.record(v);
        }
        let cdf = h.cdf();
        assert_eq!(cdf[0], (0, 2.0 / 6.0));
        assert_eq!(cdf[2], (2, 1.0));
        assert_eq!(h.quantile(0.5), Some(1));
        assert_eq!(h.quantile(1.0), Some(2));
    }

    #[test]
    #[should_panic(expected = "different campaigns")]
    fn merge_rejects_mismatched_seeds() {
        let mut a = PopulationReport::new(1);
        let b = PopulationReport::new(2);
        a.merge(&b);
    }
}
