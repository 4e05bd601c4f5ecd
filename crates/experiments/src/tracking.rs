//! §5.4.3 — tracking domains: which domains (and second-level domains)
//! do the eight IPv6-only-functional devices contact in the IPv4-only
//! network that never appear in the IPv6-only network?

use crate::render::TextTable;
use crate::suite::ExperimentSuite;
use crate::NetworkConfig;
use std::collections::BTreeSet;
use v6brick_core::analysis::PassId;
use v6brick_core::observe::DeviceObservation;
use v6brick_core::party;
use v6brick_net::dns::Name;

/// Analyzer passes this report reads (DNS query names plus SNI, which
/// the traffic pass extracts).
pub const PASSES: &[PassId] = &[PassId::Dns, PassId::Traffic];

/// The measured §5.4.3 comparison.
#[derive(Debug, Default)]
pub struct TrackingReport {
    /// Domains used by the functional devices in IPv4-only but not in
    /// IPv6-only.
    pub v4_only_domains: BTreeSet<Name>,
    /// Their second-level domains.
    pub v4_only_slds: BTreeSet<Name>,
    /// The third-party (tracking/analytics) subset of those SLDs.
    pub third_party_slds: BTreeSet<Name>,
}

/// Domains a device used in one configuration (DNS + SNI).
fn domains_in(suite: &ExperimentSuite, id: &str, config: NetworkConfig) -> BTreeSet<Name> {
    let run = suite.run(config);
    run.analysis
        .device(id)
        .into_iter()
        .flat_map(DeviceObservation::destination_names)
        .cloned()
        .collect()
}

/// Compute the report over the functional devices.
pub fn tracking_report(suite: &ExperimentSuite) -> TrackingReport {
    let mut report = TrackingReport::default();
    let functional: Vec<String> = suite
        .profiles
        .iter()
        .filter(|p| suite.functional_v6only(&p.id))
        .map(|p| p.id.clone())
        .collect();
    for id in &functional {
        let v4 = domains_in(suite, id, NetworkConfig::Ipv4Only);
        let mut v6 = BTreeSet::new();
        for c in NetworkConfig::IPV6_ONLY {
            v6.extend(domains_in(suite, id, c));
        }
        for d in v4.difference(&v6) {
            report.v4_only_domains.insert(d.clone());
            report.v4_only_slds.insert(d.second_level());
        }
    }
    for sld in &report.v4_only_slds {
        if party::is_tracking_sld(sld) {
            report.third_party_slds.insert(sld.clone());
        }
    }
    report
}

/// Render the report.
pub fn tracking_table(suite: &ExperimentSuite) -> TextTable {
    let r = tracking_report(suite);
    let mut t = TextTable::new(
        "Tracking domains (§5.4.3): functional devices' IPv4-only destinations absent from IPv6-only",
    )
    .headers(["Metric", "Count"]);
    t.row([
        "Domains used only in IPv4".to_string(),
        r.v4_only_domains.len().to_string(),
    ]);
    t.row([
        "Second-level domains (SLDs)".to_string(),
        r.v4_only_slds.len().to_string(),
    ]);
    t.row([
        "Third-party / tracking SLDs".to_string(),
        r.third_party_slds.len().to_string(),
    ]);
    for sld in &r.third_party_slds {
        t.row([format!("  tracker: {sld}"), String::new()]);
    }
    t
}
