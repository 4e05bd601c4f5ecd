//! Table 3: IPv6-only experiments, the feature funnel per category.

use super::count_by_category;
use crate::render::TextTable;
use crate::suite::ExperimentSuite;
use v6brick_core::analysis::PassId;
use v6brick_core::funnel::Stage;
use v6brick_core::population::POPULATION_PASSES;

/// Analyzer passes this generator reads.
pub const PASSES: &[PassId] = POPULATION_PASSES;

/// Table 3: IPv6-only experiments, the feature funnel per category.
pub fn table3(suite: &ExperimentSuite) -> TextTable {
    let reached = |id: &str, stage: Stage| suite.reached_v6only(id, stage);
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
        &count_by_category(suite, |id| !reached(id, Stage::NdpTraffic)),
    );
    t.count_row(
        "IPv6 NDP Traffic",
        &count_by_category(suite, |id| reached(id, Stage::NdpTraffic)),
    );
    t.count_row(
        "- NDP Traffic No Addr",
        &count_by_category(suite, |id| {
            reached(id, Stage::NdpTraffic) && !reached(id, Stage::V6Addr)
        }),
    );
    t.count_row(
        "IPv6 Address",
        &count_by_category(suite, |id| reached(id, Stage::V6Addr)),
    );
    t.count_row(
        "^ Global Unique Address",
        &count_by_category(suite, |id| reached(id, Stage::ActiveGua)),
    );
    t.count_row(
        "- IPv6 Address but No IPv6 DNS",
        &count_by_category(suite, |id| {
            reached(id, Stage::V6Addr) && !suite.v6only_observation(id).dns_over_v6()
        }),
    );
    t.count_row(
        "IPv6 DNS (AAAA Req)",
        &count_by_category(suite, |id| reached(id, Stage::AaaaQueryV6)),
    );
    t.count_row(
        "^ AAAA DNS Response",
        &count_by_category(suite, |id| reached(id, Stage::AaaaAnswerV6)),
    );
    t.count_row(
        "- IPv6 DNS but No Data",
        &count_by_category(suite, |id| {
            reached(id, Stage::AaaaQueryV6) && !reached(id, Stage::V6InternetData)
        }),
    );
    t.count_row(
        "Internet TCP/UDP Data Comm.",
        &count_by_category(suite, |id| reached(id, Stage::V6InternetData)),
    );
    t.count_row(
        "- IPv6 Data but Not Func",
        &count_by_category(suite, |id| {
            reached(id, Stage::V6InternetData) && !reached(id, Stage::Functional)
        }),
    );
    t.count_row(
        "Functional over IPv6-only",
        &count_by_category(suite, |id| reached(id, Stage::Functional)),
    );
    t
}
