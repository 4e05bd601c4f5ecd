//! Table 5: feature support, IPv6-only and dual-stack experiments united.

use super::count_by_category;
use crate::render::TextTable;
use crate::suite::ExperimentSuite;
use v6brick_core::analysis::PassId;

/// Analyzer passes this generator reads.
pub const PASSES: &[PassId] = super::FEATURE_PASSES;

/// Table 5: feature support, IPv6-only and dual-stack experiments united.
pub fn table5(suite: &ExperimentSuite) -> TextTable {
    let o = |id: &str| suite.v6_and_dual_observation(id);
    let mut t =
        TextTable::new("Table 5: IPv6-only and dual-stack experiments — IPv6 feature support")
            .percent_base(suite.profiles.len())
            .headers([
                "Feature",
                "Appliance",
                "Camera",
                "TV/Ent.",
                "Gateway",
                "Health",
                "Home Auto",
                "Speaker",
                "Total",
                "%",
            ]);
    t.count_row(
        "IPv6 Addr",
        &count_by_category(suite, |id| o(id).has_v6_addr()),
    );
    t.count_row(
        "Stateful DHCPv6",
        &count_by_category(suite, |id| o(id).dhcpv6_stateful),
    );
    t.count_row("GUA", &count_by_category(suite, |id| o(id).active_gua()));
    t.count_row("ULA", &count_by_category(suite, |id| o(id).has_ula()));
    t.count_row("LLA", &count_by_category(suite, |id| o(id).has_lla()));
    t.count_row(
        "EUI-64 Addr",
        &count_by_category(suite, |id| o(id).has_eui64_addr()),
    );
    t.count_row(
        "DNS Over IPv6",
        &count_by_category(suite, |id| o(id).dns_over_v6()),
    );
    t.count_row(
        "A-only Request in IPv6",
        &count_by_category(suite, |id| !o(id).a_only_v6_names().is_empty()),
    );
    t.count_row(
        "AAAA Request (v4 or v6)",
        &count_by_category(suite, |id| !o(id).aaaa_q_any().is_empty()),
    );
    t.count_row(
        "IPv4-only AAAA Request",
        &count_by_category(suite, |id| o(id).aaaa_v4_only()),
    );
    t.count_row(
        "AAAA Response",
        &count_by_category(suite, |id| !o(id).aaaa_pos_any().is_empty()),
    );
    t.count_row(
        "AAAA Req No AAAA Res",
        &count_by_category(suite, |id| !o(id).aaaa_neg.is_empty()),
    );
    t.count_row(
        "Stateless DHCPv6",
        &count_by_category(suite, |id| o(id).dhcpv6_stateless),
    );
    t.count_row(
        "IPv6 TCP/UDP Trans",
        &count_by_category(suite, |id| {
            o(id).v6_internet_bytes + o(id).v6_local_bytes > 0
        }),
    );
    t.count_row(
        "Internet Trans",
        &count_by_category(suite, |id| o(id).v6_internet_data()),
    );
    t.count_row(
        "Local Trans",
        &count_by_category(suite, |id| o(id).v6_local_bytes > 0),
    );
    t
}
