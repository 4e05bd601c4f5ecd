//! Table 4: per-category deltas, dual-stack minus IPv6-only.

use super::count_by_category;
use crate::render::TextTable;
use crate::suite::ExperimentSuite;
use v6brick_core::analysis::PassId;
use v6brick_core::observe::DeviceObservation;
use v6brick_core::population::POPULATION_PASSES;

/// Analyzer passes this generator reads.
pub const PASSES: &[PassId] = POPULATION_PASSES;

/// Table 4: per-category deltas, dual-stack minus IPv6-only.
pub fn table4(suite: &ExperimentSuite) -> TextTable {
    let mut t =
        TextTable::new("Table 4: Dual-stack experiments — feature-support deltas vs IPv6-only")
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
    let mut delta = |label: &str, f: &dyn Fn(&DeviceObservation) -> bool| {
        let dual = count_by_category(suite, |id| f(suite.dual_observation(id)));
        let v6 = count_by_category(suite, |id| f(suite.v6only_observation(id)));
        let d: Vec<i64> = dual
            .iter()
            .zip(&v6)
            .map(|(a, b)| *a as i64 - *b as i64)
            .collect();
        t.delta_row(label, &d);
    };
    delta("IPv6 NDP Traffic", &|o| o.ndp_traffic);
    delta("IPv6 Address", &|o| o.has_v6_addr());
    delta("^ Global Unique Address", &|o| o.active_gua());
    delta("AAAA DNS Request", &|o| !o.aaaa_q_any().is_empty());
    delta("^ AAAA DNS Response", &|o| !o.aaaa_pos_any().is_empty());
    delta("Internet TCP/UDP Data Comm.", &|o| o.v6_internet_data());
    t
}
