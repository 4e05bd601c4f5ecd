//! The result types every analyzer pass writes into: one
//! [`DeviceObservation`] per device plus the capture-wide
//! [`ExperimentAnalysis`].
//!
//! Field ownership is partitioned across the passes (see
//! [`super::PassId::owned_device_fields`]): each observation field is
//! written by exactly one pass, which is what makes pass subsets
//! *monotone* — disabling a pass leaves its fields at their defaults and
//! every other field byte-identical to the full run.

use serde::{Deserialize, Serialize};
use std::collections::{BTreeMap, BTreeSet};
use std::net::{IpAddr, Ipv6Addr};
use v6brick_net::dns::Name;
use v6brick_net::ipv6::Ipv6AddrExt;

/// Everything the pipeline measured about one device.
///
/// `Deserialize` exists for the ingest write-ahead log: a WAL record
/// carries the already-analyzed observations so crash recovery can
/// re-absorb them without re-decoding the capture.
#[derive(Debug, Clone, Default, PartialEq, Serialize, Deserialize)]
pub struct DeviceObservation {
    /// Did the device emit any NDP traffic (RS/RA/NS/NA)?
    pub ndp_traffic: bool,
    /// Addresses the device *assigned*: DAD targets and NA announcements.
    pub announced_v6: BTreeSet<Ipv6Addr>,
    /// Addresses that actually sourced UDP/TCP traffic.
    pub active_v6: BTreeSet<Ipv6Addr>,
    /// Addresses for which a DAD probe (NS from `::`) was observed.
    pub dad_probed: BTreeSet<Ipv6Addr>,
    /// Completed a DHCPv4 exchange (request seen).
    pub dhcpv4_used: bool,
    /// Sent a DHCPv6 Information-Request (stateless).
    pub dhcpv6_stateless: bool,
    /// Sent a DHCPv6 Solicit/Request (stateful).
    pub dhcpv6_stateful: bool,
    /// Addresses received in DHCPv6 IA_NA replies.
    pub dhcpv6_addrs: BTreeSet<Ipv6Addr>,

    /// Distinct names in AAAA queries, by transport family.
    pub aaaa_q_v6: BTreeSet<Name>,
    /// AAAA query IPv4.
    pub aaaa_q_v4: BTreeSet<Name>,
    /// Names queried for A over IPv6 transport but never for AAAA
    /// anywhere (the "A-only in IPv6" behaviour) are derived later;
    /// these are the raw A query names per transport.
    pub a_q_v6: BTreeSet<Name>,
    /// A query IPv4.
    pub a_q_v4: BTreeSet<Name>,
    /// HTTPS/SVCB resource-record queries (HTTP/3 probing).
    pub https_q: BTreeSet<Name>,
    /// Svcb query.
    pub svcb_q: BTreeSet<Name>,
    /// Names with positive AAAA answers, by transport family.
    pub aaaa_pos_v6: BTreeSet<Name>,
    /// AAAA positive IPv4.
    pub aaaa_pos_v4: BTreeSet<Name>,
    /// Names whose AAAA query got a negative answer.
    pub aaaa_neg: BTreeSet<Name>,
    /// IPv6 source addresses used for DNS queries.
    pub dns_src_v6: BTreeSet<Ipv6Addr>,

    /// L4 payload bytes exchanged with Internet hosts, per family
    /// (both directions).
    pub v6_internet_bytes: u64,
    /// IPv4 internet bytes.
    pub v4_internet_bytes: u64,
    /// IPv6 bytes exchanged with on-link / non-global peers.
    pub v6_local_bytes: u64,
    /// Distinct IPv6 Internet peers.
    pub v6_internet_peers: BTreeSet<Ipv6Addr>,
    /// IPv6 source addresses that carried Internet data.
    pub data_src_v6: BTreeSet<Ipv6Addr>,
    /// IPv6 source addresses that carried NTP.
    pub ntp_src_v6: BTreeSet<Ipv6Addr>,

    /// Destination domains reached over each family (DNS answer mapping
    /// plus SNI).
    pub domains_v6: BTreeSet<Name>,
    /// Domains IPv4.
    pub domains_v4: BTreeSet<Name>,
    /// Domains seen in TLS SNI.
    pub sni_domains: BTreeSet<Name>,
    /// Domains contacted from an EUI-64 source (DNS or data), for the
    /// Fig. 5 exposure analysis.
    pub domains_from_eui64: BTreeSet<Name>,
    /// Names queried (DNS) from an EUI-64 source.
    pub dns_names_from_eui64: BTreeSet<Name>,
}

impl DeviceObservation {
    /// Any IPv6 address assigned (announced or actively used)?
    pub fn has_v6_addr(&self) -> bool {
        !self.active_v6.is_empty() || self.announced_v6.iter().any(|a| !a.is_unspecified())
    }

    /// Active GUA (sourced traffic from a global address)?
    pub fn active_gua(&self) -> bool {
        self.active_v6.iter().any(|a| a.is_global_unicast())
    }

    /// Assigned any ULA?
    pub fn has_ula(&self) -> bool {
        self.all_addrs().iter().any(|a| a.is_unique_local())
    }

    /// Assigned any LLA?
    pub fn has_lla(&self) -> bool {
        self.all_addrs().iter().any(|a| a.is_link_local())
    }

    /// Holds an active EUI-64 address: an (inherently link-used) EUI-64 LLA,
    /// or an EUI-64 global that sourced traffic.
    pub fn has_eui64_addr(&self) -> bool {
        self.all_addrs()
            .iter()
            .any(|a| a.is_link_local() && a.is_eui64())
            || self
                .active_v6
                .iter()
                .any(|a| !a.is_link_local() && a.is_eui64())
    }

    /// Every assigned-or-active address.
    pub fn all_addrs(&self) -> BTreeSet<Ipv6Addr> {
        self.announced_v6.union(&self.active_v6).copied().collect()
    }

    /// Did the device send DNS queries (A or AAAA) over IPv6 transport?
    pub fn dns_over_v6(&self) -> bool {
        !self.aaaa_q_v6.is_empty() || !self.a_q_v6.is_empty()
    }

    /// Any v4-only AAAA query name?
    pub fn aaaa_v4_only(&self) -> bool {
        self.aaaa_q_v4.difference(&self.aaaa_q_v6).next().is_some()
    }

    /// All AAAA query names, either transport.
    pub fn aaaa_q_any(&self) -> BTreeSet<Name> {
        self.aaaa_q_v6.union(&self.aaaa_q_v4).cloned().collect()
    }

    /// Names queried A-only over IPv6: asked for A over v6 but never for
    /// AAAA on any transport.
    pub fn a_only_v6_names(&self) -> BTreeSet<Name> {
        let all_aaaa = self.aaaa_q_any();
        self.a_q_v6
            .iter()
            .filter(|n| !all_aaaa.contains(*n))
            .cloned()
            .collect()
    }

    /// The device's destination names: its A and AAAA questions over
    /// either family plus its TLS SNI names, without `.local` names.
    /// May repeat a name.
    pub fn destination_names(&self) -> impl Iterator<Item = &Name> {
        self.a_q_v4
            .iter()
            .chain(&self.a_q_v6)
            .chain(&self.aaaa_q_v4)
            .chain(&self.aaaa_q_v6)
            .chain(&self.sni_domains)
            .filter(|n| !n.as_str().ends_with(".local"))
    }

    /// Positive AAAA answers on either transport.
    pub fn aaaa_pos_any(&self) -> BTreeSet<Name> {
        self.aaaa_pos_v6.union(&self.aaaa_pos_v4).cloned().collect()
    }

    /// Transmitted Internet data over IPv6?
    pub fn v6_internet_data(&self) -> bool {
        self.v6_internet_bytes > 0
    }

    /// Fraction of Internet volume carried over IPv6 (dual-stack; Fig. 4).
    pub fn v6_volume_fraction(&self) -> f64 {
        let total = self.v6_internet_bytes + self.v4_internet_bytes;
        if total == 0 {
            return 0.0;
        }
        self.v6_internet_bytes as f64 / total as f64
    }
}

/// The result of analyzing one experiment capture.
#[derive(Debug, Default, Serialize)]
pub struct ExperimentAnalysis {
    /// Per-device observations, keyed by the label supplied with the MAC.
    pub devices: BTreeMap<String, DeviceObservation>,
    /// DNS answer map harvested from the whole capture: IP → name.
    pub ip_to_name: BTreeMap<IpAddr, Name>,
    /// Frames that could not be attributed to a known device.
    pub unattributed_frames: u64,
    /// Total frames examined.
    pub frames: u64,
    /// Raw frames handed to the analyzer that failed even lenient
    /// parsing. These contribute to nothing else — without this counter
    /// they would vanish without a trace.
    pub parse_errors: u64,
    /// The full 5-tuple flow table (not serialized; used by volume
    /// cross-checks and benchmarks). Populated only when the
    /// [`super::PassId::Flows`] pass runs.
    #[serde(skip)]
    pub flows: crate::flows::FlowTable,
}

impl ExperimentAnalysis {
    /// Observation by device label.
    pub fn device(&self, label: &str) -> Option<&DeviceObservation> {
        self.devices.get(label)
    }

    /// Count devices satisfying a predicate.
    pub fn count(&self, pred: impl Fn(&DeviceObservation) -> bool) -> usize {
        self.devices.values().filter(|o| pred(o)).count()
    }
}
