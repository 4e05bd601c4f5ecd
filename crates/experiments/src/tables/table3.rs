//! Table 3: IPv6-only experiments, the feature funnel per category.

use super::{active_gua, count_by_category, FUNNEL_PASSES};
use crate::render::TextTable;
use crate::suite::ExperimentSuite;
use v6brick_core::analysis::PassId;

/// Analyzer passes this generator reads.
pub const PASSES: &[PassId] = FUNNEL_PASSES;

/// Table 3: IPv6-only experiments, the feature funnel per category.
pub fn table3(suite: &ExperimentSuite) -> TextTable {
    let o = |id: &str| suite.v6only_observation(id);
    let mut t =
        TextTable::new("Table 3: IPv6-only experiments — IPv6 feature support per category")
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
    t.count_row("Total # of Device", &count_by_category(suite, |_| true));
    t.count_row(
        "- No IPv6",
        &count_by_category(suite, |id| !o(id).ndp_traffic),
    );
    t.count_row(
        "IPv6 NDP Traffic",
        &count_by_category(suite, |id| o(id).ndp_traffic),
    );
    t.count_row(
        "- NDP Traffic No Addr",
        &count_by_category(suite, |id| o(id).ndp_traffic && !o(id).has_v6_addr()),
    );
    t.count_row(
        "IPv6 Address",
        &count_by_category(suite, |id| o(id).has_v6_addr()),
    );
    t.count_row(
        "^ Global Unique Address",
        &count_by_category(suite, |id| active_gua(o(id))),
    );
    t.count_row(
        "- IPv6 Address but No IPv6 DNS",
        &count_by_category(suite, |id| o(id).has_v6_addr() && !o(id).dns_over_v6()),
    );
    t.count_row(
        "IPv6 DNS (AAAA Req)",
        &count_by_category(suite, |id| !o(id).aaaa_q_v6.is_empty()),
    );
    t.count_row(
        "^ AAAA DNS Response",
        &count_by_category(suite, |id| !o(id).aaaa_pos_v6.is_empty()),
    );
    t.count_row(
        "- IPv6 DNS but No Data",
        &count_by_category(suite, |id| {
            !o(id).aaaa_q_v6.is_empty() && !o(id).v6_internet_data()
        }),
    );
    t.count_row(
        "Internet TCP/UDP Data Comm.",
        &count_by_category(suite, |id| o(id).v6_internet_data()),
    );
    t.count_row(
        "- IPv6 Data but Not Func",
        &count_by_category(suite, |id| {
            o(id).v6_internet_data() && !suite.functional_v6only(id)
        }),
    );
    t.count_row(
        "Functional over IPv6-only",
        &count_by_category(suite, |id| suite.functional_v6only(id)),
    );
    t
}
