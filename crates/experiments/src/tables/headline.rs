//! The compact map of measured headline numbers used by the integration
//! tests and EXPERIMENTS.md.

use super::{aaaa_v4_only, active_gua, dad_counts, has_eui64_addr, has_lla, has_ula};
use crate::suite::ExperimentSuite;
use std::collections::BTreeMap;
use v6brick_core::analysis::PassId;

/// Analyzer passes the headline numbers read (the funnel plus DAD).
pub const PASSES: &[PassId] = super::FUNNEL_PASSES;

/// A compact map of measured headline numbers used by the integration
/// tests and EXPERIMENTS.md.
pub fn headline_numbers(suite: &ExperimentSuite) -> BTreeMap<&'static str, i64> {
    let v6 = |id: &str| suite.v6only_observation(id);
    let u = |id: &str| suite.v6_and_dual_observation(id);
    let ids: Vec<&str> = suite.device_ids().collect();
    let count = |f: &dyn Fn(&str) -> bool| ids.iter().filter(|id| f(id)).count() as i64;
    let mut m = BTreeMap::new();
    m.insert("t3_ndp", count(&|id| v6(id).ndp_traffic));
    m.insert("t3_addr", count(&|id| v6(id).has_v6_addr()));
    m.insert("t3_gua", count(&|id| active_gua(v6(id))));
    m.insert("t3_aaaa_v6", count(&|id| !v6(id).aaaa_q_v6.is_empty()));
    m.insert("t3_aaaa_pos", count(&|id| !v6(id).aaaa_pos_v6.is_empty()));
    m.insert("t3_data", count(&|id| v6(id).v6_internet_data()));
    m.insert("t3_functional", count(&|id| suite.functional_v6only(id)));
    m.insert("t5_addr", count(&|id| u(id).has_v6_addr()));
    m.insert("t5_stateful", count(&|id| u(id).dhcpv6_stateful));
    m.insert("t5_gua", count(&|id| active_gua(u(id))));
    m.insert("t5_ula", count(&|id| has_ula(u(id))));
    m.insert("t5_lla", count(&|id| has_lla(u(id))));
    m.insert("t5_eui64", count(&|id| has_eui64_addr(u(id))));
    m.insert("t5_dns6", count(&|id| u(id).dns_over_v6()));
    m.insert(
        "t5_a_only",
        count(&|id| !u(id).a_only_v6_names().is_empty()),
    );
    m.insert("t5_aaaa_any", count(&|id| !u(id).aaaa_q_any().is_empty()));
    m.insert("t5_aaaa_v4only", count(&|id| aaaa_v4_only(u(id))));
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
