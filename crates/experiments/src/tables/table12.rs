//! Table 12: feature support by purchase year.

use crate::render::TextTable;
use crate::suite::ExperimentSuite;
use v6brick_core::analysis::PassId;
use v6brick_core::population::POPULATION_PASSES;

/// Analyzer passes this generator reads.
pub const PASSES: &[PassId] = POPULATION_PASSES;

/// Table 12: feature support by purchase year.
pub fn table12(suite: &ExperimentSuite) -> TextTable {
    let years: Vec<u16> = {
        let mut y: Vec<u16> = suite.profiles.iter().map(|p| p.purchase_year).collect();
        y.sort();
        y.dedup();
        y
    };
    let mut headers = vec!["Feature".to_string()];
    headers.extend(years.iter().map(|y| y.to_string()));
    let mut t = TextTable::new("Table 12: IPv6 feature support by purchase year");
    t.headers = headers;

    let o = |id: &str| suite.v6_and_dual_observation(id);
    let row = |t: &mut TextTable, label: &str, f: &dyn Fn(&str) -> bool| {
        let mut r = vec![label.to_string()];
        for y in &years {
            let n = suite
                .profiles
                .iter()
                .filter(|p| p.purchase_year == *y && f(&p.id))
                .count();
            r.push(n.to_string());
        }
        t.rows.push(r);
    };
    row(&mut t, "# of Devices", &|_| true);
    row(&mut t, "IPv6 NDP Traffic", &|id| o(id).ndp_traffic);
    row(&mut t, "IPv6 Address", &|id| o(id).has_v6_addr());
    row(&mut t, "GUA", &|id| o(id).active_gua());
    row(&mut t, "AAAA DNS Request", &|id| {
        !o(id).aaaa_q_any().is_empty()
    });
    row(&mut t, "AAAA Response", &|id| {
        !o(id).aaaa_pos_any().is_empty()
    });
    row(&mut t, "Internet TCP/UDP IPv6 Data", &|id| {
        o(id).v6_internet_data()
    });
    row(&mut t, "Functional over IPv6-only", &|id| {
        suite.functional_v6only(id)
    });
    t
}
