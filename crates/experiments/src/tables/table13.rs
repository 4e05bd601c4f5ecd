//! Table 13: address and distinct-query counts by manufacturer and OS.

use crate::render::TextTable;
use crate::suite::ExperimentSuite;
use v6brick_core::analysis::PassId;
use v6brick_core::observe::DeviceObservation;
use v6brick_net::ipv6::{AddressKind, Ipv6AddrExt};

/// Analyzer passes this generator reads (address sets and query names —
/// no traffic accounting).
pub const PASSES: &[PassId] = &[PassId::Addressing, PassId::Dns];

/// Table 13: address and distinct-query counts by manufacturer and OS.
pub fn table13(suite: &ExperimentSuite) -> TextTable {
    let o = |id: &str| suite.v6_and_dual_observation(id);
    let columns = super::Columns::new(suite, |_| true);
    let mut t =
        TextTable::new("Table 13: IPv6 addresses and distinct DNS queries per manufacturer and OS");
    t.headers = columns.headers("Metric");

    let row = |t: &mut TextTable, label: &str, f: &dyn Fn(&DeviceObservation) -> usize| {
        t.rows.push(columns.row(label, |p| f(o(&p.id))));
    };
    row(&mut t, "IPv6 Address", &|ob| ob.all_addrs().len());
    row(&mut t, "GUA", &|ob| {
        ob.all_addrs()
            .iter()
            .filter(|a| a.kind() == AddressKind::Global)
            .count()
    });
    row(&mut t, "ULA", &|ob| {
        ob.all_addrs()
            .iter()
            .filter(|a| a.kind() == AddressKind::UniqueLocal)
            .count()
    });
    row(&mut t, "LLA", &|ob| {
        ob.all_addrs()
            .iter()
            .filter(|a| a.kind() == AddressKind::LinkLocal)
            .count()
    });
    row(&mut t, "AAAA Req", &|ob| ob.aaaa_q_any().len());
    row(&mut t, "A only Req in IPv6", &|ob| {
        ob.a_only_v6_names().len()
    });
    row(&mut t, "IPv4-only AAAA Req", &|ob| {
        ob.aaaa_q_v4.difference(&ob.aaaa_q_v6).count()
    });
    row(&mut t, "AAAA Res", &|ob| ob.aaaa_pos_any().len());
    t
}
