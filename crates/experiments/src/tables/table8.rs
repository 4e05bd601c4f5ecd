//! Table 8: feature support by manufacturer/platform (≥3 devices) and OS
//! (≥2 devices).

use crate::render::TextTable;
use crate::suite::ExperimentSuite;
use v6brick_core::analysis::PassId;
use v6brick_net::ipv6::Ipv6AddrExt;

/// Analyzer passes this generator reads.
pub const PASSES: &[PassId] = super::FEATURE_PASSES;

/// Table 8: feature support by manufacturer/platform (≥3 devices) and OS
/// (≥2 devices).
pub fn table8(suite: &ExperimentSuite) -> TextTable {
    let o = |id: &str| suite.v6_and_dual_observation(id);
    let columns = super::Columns::new(suite, |os| {
        suite.profiles.iter().filter(|p| p.os == os).count() >= 2
    });
    let mut t = TextTable::new(
        "Table 8: IPv6 feature support per manufacturer/platform (>=3 devices) and OS (>=2 devices)",
    );
    t.headers = columns.headers("Feature");

    // A feature's cell counts the devices that show it.
    let feature_row = |t: &mut TextTable, label: &str, f: &dyn Fn(&str) -> bool| {
        t.rows.push(columns.row(label, |p| usize::from(f(&p.id))));
    };

    feature_row(&mut t, "Device #", &|_| true);
    feature_row(&mut t, "Functional over IPv6-only", &|id| {
        suite.functional_v6only(id)
    });
    feature_row(&mut t, "IPv6 Address", &|id| o(id).has_v6_addr());
    feature_row(&mut t, "Stateful DHCPv6", &|id| o(id).dhcpv6_stateful);
    feature_row(&mut t, "GUA", &|id| o(id).active_gua());
    feature_row(&mut t, "ULA", &|id| o(id).has_ula());
    feature_row(&mut t, "LLA", &|id| o(id).has_lla());
    feature_row(&mut t, "GUA EUI-64 Address", &|id| {
        o(id)
            .active_v6
            .iter()
            .any(|a| a.is_global_unicast() && a.is_eui64())
    });
    feature_row(&mut t, "DNS over IPv6", &|id| o(id).dns_over_v6());
    feature_row(&mut t, "A-only Req in IPv6", &|id| {
        !o(id).a_only_v6_names().is_empty()
    });
    feature_row(&mut t, "AAAA Req (v4 or v6)", &|id| {
        !o(id).aaaa_q_any().is_empty()
    });
    feature_row(&mut t, "IPv4-only AAAA Req", &|id| o(id).aaaa_v4_only());
    feature_row(&mut t, "EUI-64 Addr DNS Req", &|id| {
        o(id)
            .dns_src_v6
            .iter()
            .any(|a| a.is_global_unicast() && a.is_eui64())
    });
    feature_row(&mut t, "AAAA Response", &|id| {
        !o(id).aaaa_pos_any().is_empty()
    });
    feature_row(&mut t, "Stateless DHCPv6", &|id| o(id).dhcpv6_stateless);
    feature_row(&mut t, "IPv6 TCP/UDP Trans", &|id| {
        o(id).v6_internet_bytes + o(id).v6_local_bytes > 0
    });
    feature_row(&mut t, "Internet Trans", &|id| o(id).v6_internet_data());
    feature_row(&mut t, "Local Data Trans", &|id| o(id).v6_local_bytes > 0);
    feature_row(&mut t, "EUI-64 Internet Trans", &|id| {
        o(id)
            .data_src_v6
            .iter()
            .any(|a| a.is_global_unicast() && a.is_eui64())
    });
    t
}
