//! The compact map of measured headline numbers used by the integration
//! tests and EXPERIMENTS.md.

use super::dad_counts;
use crate::suite::ExperimentSuite;
use std::collections::BTreeMap;
use v6brick_core::analysis::PassId;
use v6brick_core::funnel::Stage;
use v6brick_core::population::POPULATION_PASSES;

/// Analyzer passes the headline numbers read (the funnel plus DAD).
pub const PASSES: &[PassId] = POPULATION_PASSES;

/// A compact map of measured headline numbers used by the integration
/// tests and EXPERIMENTS.md.
pub fn headline_numbers(suite: &ExperimentSuite) -> BTreeMap<&'static str, i64> {
    let u = |id: &str| suite.v6_and_dual_observation(id);
    let ids: Vec<&str> = suite.device_ids().collect();
    let count = |f: &dyn Fn(&str) -> bool| ids.iter().filter(|id| f(id)).count() as i64;
    let mut m = BTreeMap::new();
    for stage in Stage::ALL {
        let key = match stage {
            Stage::NdpTraffic => "t3_ndp",
            Stage::V6Addr => "t3_addr",
            Stage::ActiveGua => "t3_gua",
            Stage::AaaaQueryV6 => "t3_aaaa_v6",
            Stage::AaaaAnswerV6 => "t3_aaaa_pos",
            Stage::V6InternetData => "t3_data",
            Stage::Functional => "t3_functional",
        };
        m.insert(key, count(&|id| suite.reached_v6only(id, stage)));
    }
    m.insert("t5_addr", count(&|id| u(id).has_v6_addr()));
    m.insert("t5_stateful", count(&|id| u(id).dhcpv6_stateful));
    m.insert("t5_gua", count(&|id| u(id).active_gua()));
    m.insert("t5_ula", count(&|id| u(id).has_ula()));
    m.insert("t5_lla", count(&|id| u(id).has_lla()));
    m.insert("t5_eui64", count(&|id| u(id).has_eui64_addr()));
    m.insert("t5_dns6", count(&|id| u(id).dns_over_v6()));
    m.insert(
        "t5_a_only",
        count(&|id| !u(id).a_only_v6_names().is_empty()),
    );
    m.insert("t5_aaaa_any", count(&|id| !u(id).aaaa_q_any().is_empty()));
    m.insert("t5_aaaa_v4only", count(&|id| u(id).aaaa_v4_only()));
    m.insert("t5_aaaa_pos", count(&|id| !u(id).aaaa_pos_any().is_empty()));
    m.insert("t5_stateless", count(&|id| u(id).dhcpv6_stateless));
    m.insert(
        "t5_trans",
        count(&|id| u(id).v6_internet_bytes + u(id).v6_local_bytes > 0),
    );
    m.insert("t5_internet", count(&|id| u(id).v6_internet_data()));
    m.insert("t5_local", count(&|id| u(id).v6_local_bytes > 0));
    let (dad_some, dad_never) = dad_counts(suite);
    m.insert("dad_skip_some", dad_some as i64);
    m.insert("dad_never", dad_never as i64);
    m
}
