//! Side-by-side comparison of the three IPv6-only variants (the paper
//! discusses these differences in §5.2.1 but never tabulates them).

use crate::render::TextTable;
use crate::suite::ExperimentSuite;
use crate::NetworkConfig;
use v6brick_core::analysis::PassId;
use v6brick_core::observe::DeviceObservation;
use v6brick_core::population::POPULATION_PASSES;

/// Analyzer passes this generator reads.
pub const PASSES: &[PassId] = POPULATION_PASSES;

/// Side-by-side comparison of the three IPv6-only variants (the paper
/// discusses these differences in §5.2.1 but never tabulates them).
pub fn variants(suite: &ExperimentSuite) -> TextTable {
    let mut t = TextTable::new("IPv6-only variants: baseline vs RDNSS-only vs stateful (devices)")
        .headers(["Feature", "Baseline", "RDNSS-only", "Stateful"]);
    let configs = [
        NetworkConfig::Ipv6Only,
        NetworkConfig::Ipv6OnlyRdnssOnly,
        NetworkConfig::Ipv6OnlyStateful,
    ];
    let row = |t: &mut TextTable, label: &str, f: &dyn Fn(&DeviceObservation) -> bool| {
        let mut r = vec![label.to_string()];
        for c in configs {
            let run = suite.run(c);
            r.push(run.analysis.count(|o| f(o)).to_string());
        }
        t.rows.push(r);
    };
    row(&mut t, "NDP traffic", &|o| o.ndp_traffic);
    row(&mut t, "IPv6 address", &|o| o.has_v6_addr());
    row(&mut t, "DNS over IPv6", &|o| o.dns_over_v6());
    row(&mut t, "Stateless DHCPv6 exchange", &|o| o.dhcpv6_stateless);
    row(&mut t, "Stateful DHCPv6 exchange", &|o| o.dhcpv6_stateful);
    row(&mut t, "Got a DHCPv6 address", &|o| {
        !o.dhcpv6_addrs.is_empty()
    });
    row(&mut t, "Internet IPv6 data", &|o| o.v6_internet_data());
    // Functionality per variant.
    let mut r = vec!["Functional".to_string()];
    for c in configs {
        let run = suite.run(c);
        r.push(run.functional.values().filter(|x| **x).count().to_string());
    }
    t.rows.push(r);
    t
}
