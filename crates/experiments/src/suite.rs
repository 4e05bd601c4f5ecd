//! The six-experiment suite with union/delta helpers.
//!
//! The six Table 2 configurations are independent simulations, so
//! [`ExperimentSuite::run_all`] fans them out over the fleet worker pool
//! ([`v6brick_fleet::run_indexed`]) and folds the finished runs back in
//! `NetworkConfig::ALL` order — suite construction is byte-deterministic
//! for any worker count, the same guarantee the fleet campaigns prove at
//! population scale.

use crate::config::NetworkConfig;
use crate::scenario::{self, ExperimentRun, EXPERIMENT_DURATION};
use std::collections::BTreeSet;
use std::sync::{LazyLock, OnceLock};
use v6brick_core::analysis::PassId;
use v6brick_core::funnel::Stage;
use v6brick_core::observe::DeviceObservation;
use v6brick_devices::profile::DeviceProfile;
use v6brick_devices::registry;
use v6brick_fleet::run_indexed;
use v6brick_net::hash::FxHashMap;

/// One more than the highest `NetworkConfig` discriminant — the size of
/// the config-indexed run lookup table.
const CONFIG_SLOTS: usize = NetworkConfig::Ipv6OnlyEnterprise as usize + 1;

/// The configurations each memoized union merges, by scope: the three
/// IPv6-only runs (Table 3), the two dual-stack runs (Table 4), and all
/// five IPv6-capable runs (Table 5).
const SCOPES: [&[NetworkConfig]; 3] = [
    &NetworkConfig::IPV6_ONLY,
    &NetworkConfig::DUAL_STACK,
    &[
        NetworkConfig::Ipv6Only,
        NetworkConfig::Ipv6OnlyRdnssOnly,
        NetworkConfig::Ipv6OnlyStateful,
        NetworkConfig::DualStack,
        NetworkConfig::DualStackStateful,
    ],
];

/// What a union reads for a device that no run in its scope observed.
static NOT_OBSERVED: LazyLock<DeviceObservation> = LazyLock::new(DeviceObservation::default);

/// All experiment runs plus the device registry they ran over.
pub struct ExperimentSuite {
    /// The device profiles the runs were built from.
    pub profiles: Vec<DeviceProfile>,
    /// One run per configuration. Private so the memoized unions below
    /// can never go stale; read through [`ExperimentSuite::runs`].
    runs: Vec<ExperimentRun>,
    /// Config-discriminant → position in `runs` (the table generators
    /// look runs up by config thousands of times).
    by_config: [Option<usize>; CONFIG_SLOTS],
    /// Memoized scope unions, one map (device id → merged observation)
    /// per [`SCOPES`] entry, built in one pass on first use: the table
    /// generators read the same unions thousands of times.
    unions: [OnceLock<FxHashMap<String, DeviceObservation>>; 3],
}

impl ExperimentSuite {
    /// Run all six configurations over the full 93-device registry, in
    /// parallel across the available cores (capped at one worker per
    /// configuration).
    pub fn run_all() -> ExperimentSuite {
        Self::run_all_scoped(&PassId::ALL)
    }

    /// Like [`ExperimentSuite::run_all`] but analyzing with only the
    /// named passes (plus their dependencies). The `repro` binary uses
    /// this to run exactly the passes the requested artifact reads —
    /// composed as the union of each generator's declared `PASSES`.
    pub fn run_all_scoped(passes: &[PassId]) -> ExperimentSuite {
        Self::run_configs_scoped(
            registry::build(),
            &NetworkConfig::ALL,
            std::thread::available_parallelism().map_or(1, |n| n.get()),
            passes,
        )
    }

    /// The fully general constructor: arbitrary configurations, profile
    /// subset, worker count, and analyzer pass selection. Runs fold back
    /// in `configs` order no matter which worker finishes first, so the
    /// suite is byte-deterministic for any worker count; `workers <= 1`
    /// is the serial reference path.
    pub fn run_configs_scoped(
        profiles: Vec<DeviceProfile>,
        configs: &[NetworkConfig],
        workers: usize,
        passes: &[PassId],
    ) -> ExperimentSuite {
        let passes = passes.to_vec();
        let runs = run_indexed(
            configs.to_vec(),
            workers.min(configs.len()),
            |c| scenario::run_scoped(c, &profiles, 0x6b1c_0000, EXPERIMENT_DURATION, &passes),
            Vec::with_capacity(configs.len()),
            |acc, _index, run| acc.push(run),
        );
        Self::from_runs(profiles, runs)
    }

    /// Run a single configuration (examples use this).
    pub fn run_config(config: NetworkConfig) -> ExperimentSuite {
        let profiles = registry::build();
        let runs = vec![scenario::run_with_profiles(config, &profiles)];
        Self::from_runs(profiles, runs)
    }

    fn from_runs(profiles: Vec<DeviceProfile>, runs: Vec<ExperimentRun>) -> ExperimentSuite {
        let mut by_config = [None; CONFIG_SLOTS];
        for (i, run) in runs.iter().enumerate() {
            by_config[run.config as usize] = Some(i);
        }
        ExperimentSuite {
            profiles,
            runs,
            by_config,
            unions: Default::default(),
        }
    }

    /// Every run, in the order they were executed.
    pub fn runs(&self) -> &[ExperimentRun] {
        &self.runs
    }

    /// The run for one configuration, if the suite contains it.
    fn run_opt(&self, config: NetworkConfig) -> Option<&ExperimentRun> {
        self.by_config[config as usize].map(|i| &self.runs[i])
    }

    /// The run for one configuration.
    pub fn run(&self, config: NetworkConfig) -> &ExperimentRun {
        self.run_opt(config)
            .unwrap_or_else(|| panic!("suite does not contain {config:?}"))
    }

    /// Device ids in registry order.
    pub fn device_ids(&self) -> impl Iterator<Item = &str> {
        self.profiles.iter().map(|p| p.id.as_str())
    }

    /// The profile for a device id.
    pub fn profile(&self, id: &str) -> &DeviceProfile {
        self.profiles
            .iter()
            .find(|p| p.id == id)
            .unwrap_or_else(|| panic!("unknown device {id}"))
    }

    /// A device's observations merged across the runs of `SCOPES[scope]`
    /// (set-union semantics; byte counters summed).
    fn union(&self, scope: usize, id: &str) -> &DeviceObservation {
        self.unions[scope]
            .get_or_init(|| {
                let mut merged: FxHashMap<String, DeviceObservation> = FxHashMap::default();
                for run in SCOPES[scope].iter().filter_map(|c| self.run_opt(*c)) {
                    for (id, o) in &run.analysis.devices {
                        merge_into(merged.entry(id.clone()).or_default(), o);
                    }
                }
                merged
            })
            .get(id)
            .unwrap_or(&NOT_OBSERVED)
    }

    /// Union across the three IPv6-only configurations (Table 3 scope).
    pub fn v6only_observation(&self, id: &str) -> &DeviceObservation {
        self.union(0, id)
    }

    /// Union across the two dual-stack configurations (Table 4 scope).
    pub fn dual_observation(&self, id: &str) -> &DeviceObservation {
        self.union(1, id)
    }

    /// Union across all IPv6-capable configurations (Table 5 scope:
    /// "IPv6-only and dual-stack experiments").
    pub fn v6_and_dual_observation(&self, id: &str) -> &DeviceObservation {
        self.union(2, id)
    }

    /// Functional in the given configuration?
    pub fn functional_in(&self, id: &str, config: NetworkConfig) -> bool {
        self.run_opt(config)
            .and_then(|r| r.functional.get(id))
            .copied()
            .unwrap_or(false)
    }

    /// Functional in *any* IPv6-only configuration (the paper's Table 3
    /// criterion).
    pub fn functional_v6only(&self, id: &str) -> bool {
        NetworkConfig::IPV6_ONLY
            .iter()
            .any(|c| self.run_opt(*c).is_some() && self.functional_in(id, *c))
    }

    /// Did the device reach `stage` of the IPv6-only funnel? Table 3's
    /// scope: the [`ExperimentSuite::v6only_observation`] union and the
    /// [`ExperimentSuite::functional_v6only`] verdict.
    pub fn reached_v6only(&self, id: &str, stage: Stage) -> bool {
        stage.reached(self.v6only_observation(id), self.functional_v6only(id))
    }

    /// The functional device ids under the first configuration in the
    /// suite (convenience for single-config suites).
    pub fn functional_devices(&self) -> Vec<&str> {
        let run = &self.runs[0];
        self.profiles
            .iter()
            .filter(|p| run.functional.get(&p.id).copied().unwrap_or(false))
            .map(|p| p.id.as_str())
            .collect()
    }

    /// Every destination domain observed (DNS + SNI) across all runs,
    /// excluding local names — the input to the active DNS experiment.
    pub fn observed_domains(&self) -> BTreeSet<v6brick_net::dns::Name> {
        let mut out = BTreeSet::new();
        for run in &self.runs {
            for o in run.analysis.devices.values() {
                for n in o
                    .a_q_v4
                    .iter()
                    .chain(&o.a_q_v6)
                    .chain(&o.aaaa_q_v4)
                    .chain(&o.aaaa_q_v6)
                    .chain(&o.sni_domains)
                {
                    if !n.as_str().ends_with(".local") {
                        out.insert(n.clone());
                    }
                }
            }
        }
        out
    }
}

/// Set-union merge of one observation into another.
pub fn merge_into(dst: &mut DeviceObservation, src: &DeviceObservation) {
    dst.ndp_traffic |= src.ndp_traffic;
    dst.announced_v6.extend(src.announced_v6.iter().copied());
    dst.active_v6.extend(src.active_v6.iter().copied());
    dst.dad_probed.extend(src.dad_probed.iter().copied());
    dst.dhcpv4_used |= src.dhcpv4_used;
    dst.dhcpv6_stateless |= src.dhcpv6_stateless;
    dst.dhcpv6_stateful |= src.dhcpv6_stateful;
    dst.dhcpv6_addrs.extend(src.dhcpv6_addrs.iter().copied());
    dst.aaaa_q_v6.extend(src.aaaa_q_v6.iter().cloned());
    dst.aaaa_q_v4.extend(src.aaaa_q_v4.iter().cloned());
    dst.a_q_v6.extend(src.a_q_v6.iter().cloned());
    dst.a_q_v4.extend(src.a_q_v4.iter().cloned());
    dst.https_q.extend(src.https_q.iter().cloned());
    dst.svcb_q.extend(src.svcb_q.iter().cloned());
    dst.aaaa_pos_v6.extend(src.aaaa_pos_v6.iter().cloned());
    dst.aaaa_pos_v4.extend(src.aaaa_pos_v4.iter().cloned());
    dst.aaaa_neg.extend(src.aaaa_neg.iter().cloned());
    dst.dns_src_v6.extend(src.dns_src_v6.iter().copied());
    dst.v6_internet_bytes += src.v6_internet_bytes;
    dst.v4_internet_bytes += src.v4_internet_bytes;
    dst.v6_local_bytes += src.v6_local_bytes;
    dst.v6_internet_peers
        .extend(src.v6_internet_peers.iter().copied());
    dst.data_src_v6.extend(src.data_src_v6.iter().copied());
    dst.ntp_src_v6.extend(src.ntp_src_v6.iter().copied());
    dst.domains_v6.extend(src.domains_v6.iter().cloned());
    dst.domains_v4.extend(src.domains_v4.iter().cloned());
    dst.sni_domains.extend(src.sni_domains.iter().cloned());
    dst.domains_from_eui64
        .extend(src.domains_from_eui64.iter().cloned());
    dst.dns_names_from_eui64
        .extend(src.dns_names_from_eui64.iter().cloned());
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn merge_unions_sets_and_sums_bytes() {
        let mut a = DeviceObservation {
            v6_internet_bytes: 10,
            ..DeviceObservation::default()
        };
        a.aaaa_q_v6.insert("x.example".parse().unwrap());
        let mut b = DeviceObservation {
            v6_internet_bytes: 5,
            ndp_traffic: true,
            ..DeviceObservation::default()
        };
        b.aaaa_q_v6.insert("y.example".parse().unwrap());
        merge_into(&mut a, &b);
        assert_eq!(a.v6_internet_bytes, 15);
        assert!(a.ndp_traffic);
        assert_eq!(a.aaaa_q_v6.len(), 2);
    }
}
