//! The Table 3 / Figure 2 readiness funnel: how far each device gets
//! toward working on an IPv6-only network.
//!
//! Every report that counts the funnel — Table 3, Figure 2, the `t3_*`
//! headline numbers, the fleet population marginals and the enterprise
//! comparison — reads its stages here, so each stage's predicate is
//! written once. Each report keeps its own labels.
//!
//! The funnel is not nested: a device can reach a stage without the one
//! above it. In Table 3's Gateway column three devices ask AAAA over
//! IPv6 and two of those send no data, yet two gateways send IPv6
//! Internet data (the paper's own table has the same shape). So every
//! stage has its own [`Stage::reached`]; no single "deepest stage" per
//! device could rebuild the data row.

use crate::analysis::DeviceObservation;

/// One funnel stage.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Stage {
    /// Emitted any NDP traffic.
    NdpTraffic,
    /// Assigned (announced or used) an IPv6 address.
    V6Addr,
    /// Sourced traffic from a global unicast address.
    ActiveGua,
    /// Issued AAAA queries over IPv6 transport.
    AaaaQueryV6,
    /// Got a positive AAAA answer over IPv6 transport.
    AaaaAnswerV6,
    /// Exchanged TCP/UDP data with an Internet host over IPv6.
    V6InternetData,
    /// Passed the §4.1 functionality check.
    Functional,
}

impl Stage {
    /// Every stage, in Table 3 row order.
    pub const ALL: [Stage; 7] = [
        Stage::NdpTraffic,
        Stage::V6Addr,
        Stage::ActiveGua,
        Stage::AaaaQueryV6,
        Stage::AaaaAnswerV6,
        Stage::V6InternetData,
        Stage::Functional,
    ];

    /// Did the device observed as `o`, with functionality verdict
    /// `functional`, reach this stage?
    pub fn reached(self, o: &DeviceObservation, functional: bool) -> bool {
        match self {
            Stage::NdpTraffic => o.ndp_traffic,
            Stage::V6Addr => o.has_v6_addr(),
            Stage::ActiveGua => o.active_gua(),
            Stage::AaaaQueryV6 => !o.aaaa_q_v6.is_empty(),
            Stage::AaaaAnswerV6 => !o.aaaa_pos_v6.is_empty(),
            Stage::V6InternetData => o.v6_internet_data(),
            Stage::Functional => functional,
        }
    }
}
