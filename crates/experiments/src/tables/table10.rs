//! Table 10: the measured per-device feature flags (the paper's
//! appendix inventory), from the captures.

use crate::render::TextTable;
use crate::suite::ExperimentSuite;
use v6brick_core::analysis::PassId;
use v6brick_core::population::POPULATION_PASSES;

/// Analyzer passes this generator reads.
pub const PASSES: &[PassId] = POPULATION_PASSES;

/// Table 10: the measured per-device feature flags (the paper's
/// appendix inventory), from the captures.
pub fn table10(suite: &ExperimentSuite) -> TextTable {
    let mut t = TextTable::new("Table 10: devices, categories, and measured IPv6 features")
        .headers([
            "Device",
            "Category",
            "Func v6-only",
            "NDP",
            "IPv6 Addr",
            "GUA",
            "DNS/IPv6",
            "Global Data",
        ]);
    for p in &suite.profiles {
        let o = suite.v6_and_dual_observation(&p.id);
        let y = |b: bool| if b { "yes" } else { "-" };
        t.row([
            p.name.clone(),
            p.category.label().to_string(),
            y(suite.functional_v6only(&p.id)).to_string(),
            y(o.ndp_traffic).to_string(),
            y(o.has_v6_addr()).to_string(),
            y(o.active_gua()).to_string(),
            y(o.dns_over_v6()).to_string(),
            y(o.v6_internet_data()).to_string(),
        ]);
    }
    t
}
