//! Property tests pinning the composable pass pipeline to the
//! pre-refactor monolithic fold.
//!
//! The decomposition of `observe` into `core::analysis` passes must be
//! invisible: for ANY frame interleaving — valid protocol exchanges,
//! garbage, truncations, unattributable MACs — the full `StreamingAnalyzer`
//! produces the byte-identical `ExperimentAnalysis` (via serde_json)
//! that the monolithic analyzer produced before the refactor. The
//! oracle below is that monolith's `feed_parsed`, copied verbatim from
//! the pre-refactor `observe.rs` so the comparison stays independent of
//! the pass implementations.
//!
//! A second property checks subset monotonicity: running any subset of
//! passes yields exactly the full run's values for every field the
//! subset's closure owns, and untouched defaults for every field it
//! does not.

use proptest::prelude::*;
use std::collections::HashMap;
use std::net::{IpAddr, Ipv4Addr, Ipv6Addr};
use v6brick_core::analysis::PassId;
use v6brick_core::flows::FlowTable;
use v6brick_core::observe::{DeviceObservation, ExperimentAnalysis, StreamingAnalyzer};
use v6brick_net::dns::{Message, Name, Rcode, Rdata, Record, RecordType};
use v6brick_net::ethernet::{EtherType, Repr as EthRepr};
use v6brick_net::ipv4::Protocol;
use v6brick_net::ipv6::{Cidr, Ipv6AddrExt};
use v6brick_net::ndp::Repr as Ndp;
use v6brick_net::parse::{self, Net, ParsedPacket, L4};
use v6brick_net::udp::PseudoHeader;
use v6brick_net::{dhcpv4, dhcpv6, icmpv6, ipv4, ipv6, tcp, tls, udp, Mac};

// --- the oracle: the pre-refactor monolithic analyzer -----------------------

/// The monolithic single-pass analyzer exactly as it existed before the
/// `core::analysis` decomposition (`feed_parsed` copied from the old
/// `observe.rs`), plus the `parse_errors` counter the refactor added to
/// `feed` so the serialized outputs stay comparable.
struct Monolith {
    devices: Vec<(Mac, String)>,
    lan_prefix: Cidr,
    mac_index: HashMap<Mac, usize>,
    obs: Vec<DeviceObservation>,
    analysis: ExperimentAnalysis,
    pending: HashMap<(Mac, u16), (Name, RecordType, bool)>,
    flows: FlowTable,
}

impl Monolith {
    fn new(devices: &[(Mac, String)], lan_prefix: Cidr) -> Monolith {
        Monolith {
            devices: devices.to_vec(),
            lan_prefix,
            mac_index: devices
                .iter()
                .enumerate()
                .map(|(i, (m, _))| (*m, i))
                .collect(),
            obs: vec![DeviceObservation::default(); devices.len()],
            analysis: ExperimentAnalysis::default(),
            pending: HashMap::new(),
            flows: FlowTable::new(),
        }
    }

    fn feed(&mut self, timestamp_us: u64, frame: &[u8]) {
        if let Ok(p) = parse::parse_lenient(frame) {
            self.feed_parsed(timestamp_us, &p);
        } else {
            self.analysis.parse_errors += 1;
        }
    }

    fn feed_parsed(&mut self, ts: u64, p: &ParsedPacket) {
        let analysis = &mut self.analysis;
        let obs = &mut self.obs;
        let pending = &mut self.pending;
        let lan_prefix = self.lan_prefix;
        analysis.frames += 1;
        let from = self.mac_index.get(&p.eth.src).copied();
        let to = self.mac_index.get(&p.eth.dst).copied();
        if from.is_none() && to.is_none() {
            analysis.unattributed_frames += 1;
        }
        self.flows.record(ts, p);

        // --- NDP / ICMPv6, attributed to the sender ---
        if let (Net::Ipv6(ip), L4::Icmpv6(msg)) = (&p.net, &p.l4) {
            if let Some(i) = from {
                let o = &mut obs[i];
                match msg {
                    icmpv6::Repr::Ndp(ndp) => {
                        o.ndp_traffic = true;
                        match ndp {
                            Ndp::NeighborSolicit { target, .. } if ip.src.is_unspecified() => {
                                o.dad_probed.insert(*target);
                                o.announced_v6.insert(*target);
                            }
                            Ndp::NeighborAdvert { target, .. } => {
                                o.announced_v6.insert(*target);
                            }
                            _ => {}
                        }
                    }
                    icmpv6::Repr::EchoRequest { .. }
                        if !ip.src.is_unspecified() && !ip.src.is_multicast() =>
                    {
                        o.active_v6.insert(ip.src);
                    }
                    _ => {}
                }
            }
            return;
        }

        // --- DHCPv4 (UDP 67/68) ---
        if let (
            Net::Ipv4(_),
            L4::Udp {
                src_port: 68,
                dst_port: 67,
                payload,
            },
        ) = (&p.net, &p.l4)
        {
            if let Some(i) = from {
                if let Ok(msg) = dhcpv4::Repr::parse_bytes(payload) {
                    if msg.message_type == dhcpv4::MessageType::Request {
                        obs[i].dhcpv4_used = true;
                    }
                }
            }
            return;
        }

        // --- DHCPv6 (UDP 546/547) ---
        if let (
            Net::Ipv6(_),
            L4::Udp {
                src_port,
                dst_port,
                payload,
            },
        ) = (&p.net, &p.l4)
        {
            if *dst_port == 547 && *src_port == 546 {
                if let (Some(i), Ok(msg)) = (from, dhcpv6::Repr::parse_bytes(payload)) {
                    match msg.message_type {
                        dhcpv6::MessageType::InformationRequest => obs[i].dhcpv6_stateless = true,
                        dhcpv6::MessageType::Solicit | dhcpv6::MessageType::Request => {
                            obs[i].dhcpv6_stateful = true
                        }
                        _ => {}
                    }
                }
                return;
            }
            if *dst_port == 546 && *src_port == 547 {
                if let (Some(i), Ok(msg)) = (to, dhcpv6::Repr::parse_bytes(payload)) {
                    if let Some(ia) = msg.ia_na {
                        for a in ia.addresses {
                            obs[i].dhcpv6_addrs.insert(a.addr);
                            obs[i].announced_v6.insert(a.addr);
                        }
                    }
                }
                return;
            }
        }

        // --- DNS (UDP 53) ---
        if let L4::Udp {
            src_port,
            dst_port,
            payload,
        } = &p.l4
        {
            if *dst_port == 53 || *src_port == 53 {
                let over_v6 = p.is_ipv6();
                if *dst_port == 53 {
                    if let (Some(i), Ok(msg)) = (from, Message::parse_bytes(payload)) {
                        if let Some(q) = msg.question() {
                            let o = &mut obs[i];
                            match q.rtype {
                                RecordType::A => {
                                    if over_v6 {
                                        o.a_q_v6.insert(q.name.clone());
                                    } else {
                                        o.a_q_v4.insert(q.name.clone());
                                    }
                                }
                                RecordType::Aaaa => {
                                    if over_v6 {
                                        o.aaaa_q_v6.insert(q.name.clone());
                                    } else {
                                        o.aaaa_q_v4.insert(q.name.clone());
                                    }
                                }
                                RecordType::Https => {
                                    o.https_q.insert(q.name.clone());
                                }
                                RecordType::Svcb => {
                                    o.svcb_q.insert(q.name.clone());
                                }
                                _ => {}
                            }
                            pending.insert((p.eth.src, msg.id), (q.name.clone(), q.rtype, over_v6));
                            if over_v6 {
                                if let Some(IpAddr::V6(src)) = p.src_ip() {
                                    o.dns_src_v6.insert(src);
                                    o.active_v6.insert(src);
                                    if src.is_eui64() {
                                        o.dns_names_from_eui64.insert(q.name.clone());
                                        o.domains_from_eui64.insert(q.name.clone());
                                    }
                                }
                            }
                        }
                    }
                } else if let Ok(msg) = Message::parse_bytes(payload) {
                    for r in &msg.answers {
                        match r.rdata {
                            Rdata::A(a) => {
                                analysis.ip_to_name.insert(IpAddr::V4(a), r.name.clone());
                            }
                            Rdata::Aaaa(a) => {
                                analysis.ip_to_name.insert(IpAddr::V6(a), r.name.clone());
                            }
                            _ => {}
                        }
                    }
                    if let Some(i) = to {
                        if let Some((name, rtype, _)) = pending.remove(&(p.eth.dst, msg.id)) {
                            if rtype == RecordType::Aaaa {
                                let o = &mut obs[i];
                                if msg.aaaa_answers().next().is_some() {
                                    if over_v6 {
                                        o.aaaa_pos_v6.insert(name);
                                    } else {
                                        o.aaaa_pos_v4.insert(name);
                                    }
                                } else {
                                    o.aaaa_neg.insert(name);
                                }
                            }
                        }
                    }
                }
                return;
            }
        }

        // --- Data traffic (TCP / non-service UDP) ---
        let (src_ip, dst_ip) = match (p.src_ip(), p.dst_ip()) {
            (Some(s), Some(d)) => (s, d),
            _ => return,
        };
        let payload_len = match &p.l4 {
            L4::Tcp { payload, .. } | L4::Udp { payload, .. } => payload.len() as u64,
            _ => return,
        };
        let is_ntp = p.involves_port(123);
        let (idx, dev_ip, peer_ip, outbound) = match (from, to) {
            (Some(i), _) => (i, src_ip, dst_ip, true),
            (_, Some(i)) => (i, dst_ip, src_ip, false),
            _ => return,
        };
        let o = &mut obs[idx];
        match (dev_ip, peer_ip) {
            (IpAddr::V6(dev6), IpAddr::V6(peer6)) => {
                if outbound {
                    o.active_v6.insert(dev6);
                }
                let local = peer6.is_multicast()
                    || !peer6.is_global_unicast()
                    || lan_prefix.contains(peer6);
                if local {
                    o.v6_local_bytes += payload_len;
                } else {
                    o.v6_internet_bytes += payload_len;
                    o.v6_internet_peers.insert(peer6);
                    if outbound {
                        if is_ntp {
                            o.ntp_src_v6.insert(dev6);
                        } else {
                            o.data_src_v6.insert(dev6);
                        }
                    }
                    if let Some(name) = analysis.ip_to_name.get(&IpAddr::V6(peer6)) {
                        o.domains_v6.insert(name.clone());
                        if outbound && dev6.is_eui64() && !is_ntp {
                            o.domains_from_eui64.insert(name.clone());
                        }
                    }
                }
            }
            (IpAddr::V4(_), IpAddr::V4(peer4)) => {
                let local = peer4.is_private() || peer4.is_broadcast() || peer4.is_multicast();
                if !local {
                    o.v4_internet_bytes += payload_len;
                    if let Some(name) = analysis.ip_to_name.get(&IpAddr::V4(peer4)) {
                        o.domains_v4.insert(name.clone());
                    }
                }
            }
            _ => {}
        }
        if outbound {
            if let L4::Tcp { payload, .. } = &p.l4 {
                if let Ok(sni) = tls::parse_sni(payload) {
                    let o = &mut obs[idx];
                    o.sni_domains.insert(sni.clone());
                    match peer_ip {
                        IpAddr::V6(peer6)
                            if peer6.is_global_unicast() && !lan_prefix.contains(peer6) =>
                        {
                            o.domains_v6.insert(sni.clone());
                            if let IpAddr::V6(dev6) = dev_ip {
                                if dev6.is_eui64() {
                                    o.domains_from_eui64.insert(sni);
                                }
                            }
                        }
                        IpAddr::V4(peer4) if !peer4.is_private() => {
                            o.domains_v4.insert(sni);
                        }
                        _ => {}
                    }
                }
            }
        }
    }

    fn finish(self) -> ExperimentAnalysis {
        let mut analysis = self.analysis;
        analysis.devices = self
            .devices
            .iter()
            .zip(self.obs)
            .map(|((_, label), o)| (label.clone(), o))
            .collect();
        analysis.flows = self.flows;
        analysis
    }
}

// --- frame synthesis --------------------------------------------------------

fn dev_mac(dev: u8) -> Mac {
    Mac::new(2, 0, 0, 0, 0, 0x10 + (dev % 2))
}

fn router_mac() -> Mac {
    Mac::new(2, 0, 0, 0, 0, 1)
}

/// A stranger MAC neither in the device map nor the router's — frames
/// between strangers count as unattributed.
fn stranger_mac() -> Mac {
    Mac::new(2, 0, 0, 0, 0, 0xee)
}

fn lan() -> Cidr {
    Cidr::new("2001:db8:10:1::".parse().unwrap(), 64)
}

/// A device address inside the LAN /64; `eui` selects the ff:fe
/// interface-id pattern [`Ipv6AddrExt::is_eui64`] recognizes.
fn dev_addr(dev: u8, tail: u16, eui: bool) -> Ipv6Addr {
    if eui {
        Ipv6Addr::new(0x2001, 0xdb8, 0x10, 1, 0x0260, 0x08ff, 0xfe12, tail)
    } else {
        Ipv6Addr::new(0x2001, 0xdb8, 0x10, 1, 0, 0, dev as u16 + 1, tail)
    }
}

/// A peer outside the LAN (global) or inside it (local), per `global`.
fn peer_addr(tail: u16, global: bool) -> Ipv6Addr {
    if global {
        Ipv6Addr::new(0x2001, 0xdb8, 0xffff, 2, 0, 0, 0, tail.max(1))
    } else {
        Ipv6Addr::new(0x2001, 0xdb8, 0x10, 1, 0xcafe, 0, 0, tail.max(1))
    }
}

fn name_pool(i: u8) -> Name {
    const POOL: [&str; 4] = [
        "cloud.example",
        "api.vendor.example",
        "cdn.example",
        "telemetry.example",
    ];
    Name::new(POOL[i as usize % POOL.len()]).unwrap()
}

fn eth_v6(src_mac: Mac, dst_mac: Mac, ip: Vec<u8>) -> Vec<u8> {
    EthRepr {
        src: src_mac,
        dst: dst_mac,
        ethertype: EtherType::Ipv6,
    }
    .build(&ip)
}

fn v6_frame(
    src_mac: Mac,
    dst_mac: Mac,
    src: Ipv6Addr,
    dst: Ipv6Addr,
    next_header: Protocol,
    l4: Vec<u8>,
) -> Vec<u8> {
    let ip = ipv6::Repr {
        src,
        dst,
        next_header,
        hop_limit: 64,
        payload_len: l4.len(),
    }
    .build(&l4);
    eth_v6(src_mac, dst_mac, ip)
}

fn v6_udp(
    src_mac: Mac,
    dst_mac: Mac,
    src: Ipv6Addr,
    dst: Ipv6Addr,
    sp: u16,
    dp: u16,
    payload: Vec<u8>,
) -> Vec<u8> {
    let u = udp::Repr {
        src_port: sp,
        dst_port: dp,
        payload,
    }
    .build(PseudoHeader::V6 { src, dst });
    v6_frame(src_mac, dst_mac, src, dst, Protocol::Udp, u)
}

fn v4_udp(
    src_mac: Mac,
    dst_mac: Mac,
    src: Ipv4Addr,
    dst: Ipv4Addr,
    sp: u16,
    dp: u16,
    payload: Vec<u8>,
) -> Vec<u8> {
    let u = udp::Repr {
        src_port: sp,
        dst_port: dp,
        payload,
    }
    .build(PseudoHeader::V4 { src, dst });
    let ip = ipv4::Repr {
        src,
        dst,
        protocol: Protocol::Udp,
        ttl: 64,
        payload_len: u.len(),
    }
    .build(&u);
    EthRepr {
        src: src_mac,
        dst: dst_mac,
        ethertype: EtherType::Ipv4,
    }
    .build(&ip)
}

/// One step of a generated capture.
#[derive(Debug, Clone)]
enum Op {
    /// Random bytes — must count as a parse error on both pipelines.
    Garbage(Vec<u8>),
    /// DAD probe: NS from `::` for a tentative address.
    NsDad { dev: u8, tail: u16, eui: bool },
    /// Gratuitous NA announcing an address.
    Na { dev: u8, tail: u16 },
    /// Outbound echo request (probe-only address use).
    Echo { dev: u8, tail: u16, eui: bool },
    /// DNS query from a device (`rtype` indexes A/AAAA/HTTPS/SVCB).
    Query {
        dev: u8,
        name: u8,
        rtype: u8,
        over_v6: bool,
        id: u16,
        tail: u16,
        eui: bool,
    },
    /// DNS response toward a device; `aaaa` answers with an address the
    /// traffic pass can later attribute.
    Response {
        dev: u8,
        id: u16,
        name: u8,
        aaaa: bool,
        over_v6: bool,
        peer_tail: u16,
    },
    /// v6 data exchange (UDP); inbound frames attribute via dst MAC.
    DataV6 {
        dev: u8,
        tail: u16,
        eui: bool,
        peer_tail: u16,
        global: bool,
        dport: u16,
        len: u8,
        outbound: bool,
    },
    /// v4 data exchange.
    DataV4 { dev: u8, public: bool, len: u8 },
    /// TLS ClientHello with SNI over TCP.
    Sni {
        dev: u8,
        name: u8,
        tail: u16,
        eui: bool,
        peer_tail: u16,
    },
    /// DHCPv6 client message (stateful Solicit or stateless
    /// Information-Request).
    Dhcpv6Client { dev: u8, stateful: bool },
    /// DHCPv6 Reply delivering an IA_NA address.
    Dhcpv6Reply { dev: u8, tail: u16 },
    /// DHCPv4 Request.
    Dhcpv4Req { dev: u8 },
    /// Data frame between two MACs the analyzer does not know.
    Unattributed { len: u8 },
    /// A valid data frame cut short — parses leniently or errors, but
    /// both pipelines must agree either way.
    Truncated { dev: u8, len: u8, cut: u8 },
}

fn build_frame(op: &Op) -> Vec<u8> {
    let r = router_mac();
    match op {
        Op::Garbage(bytes) => bytes.clone(),
        Op::NsDad { dev, tail, eui } => {
            let target = dev_addr(*dev, *tail, *eui);
            let ns = icmpv6::Repr::Ndp(Ndp::NeighborSolicit {
                target,
                options: vec![],
            });
            let src = Ipv6Addr::UNSPECIFIED;
            let dst = target.solicited_node();
            let body = ns.build(src, dst);
            v6_frame(dev_mac(*dev), r, src, dst, Protocol::Icmpv6, body)
        }
        Op::Na { dev, tail } => {
            let target = dev_addr(*dev, *tail, false);
            let na = icmpv6::Repr::Ndp(Ndp::NeighborAdvert {
                router: false,
                solicited: false,
                override_flag: true,
                target,
                options: vec![],
            });
            let dst = "ff02::1".parse().unwrap();
            let body = na.build(target, dst);
            v6_frame(dev_mac(*dev), r, target, dst, Protocol::Icmpv6, body)
        }
        Op::Echo { dev, tail, eui } => {
            let src = dev_addr(*dev, *tail, *eui);
            let dst = peer_addr(9, true);
            let echo = icmpv6::Repr::EchoRequest {
                ident: 7,
                seq: 1,
                payload: vec![0xab; 8],
            };
            let body = echo.build(src, dst);
            v6_frame(dev_mac(*dev), r, src, dst, Protocol::Icmpv6, body)
        }
        Op::Query {
            dev,
            name,
            rtype,
            over_v6,
            id,
            tail,
            eui,
        } => {
            let rt = [
                RecordType::A,
                RecordType::Aaaa,
                RecordType::Https,
                RecordType::Svcb,
            ][*rtype as usize % 4];
            let msg = Message::query(*id, name_pool(*name), rt).build();
            if *over_v6 {
                let src = dev_addr(*dev, *tail, *eui);
                let dst = peer_addr(1, false);
                v6_udp(dev_mac(*dev), r, src, dst, 40000 + *id % 1000, 53, msg)
            } else {
                v4_udp(
                    dev_mac(*dev),
                    r,
                    Ipv4Addr::new(192, 168, 1, 10 + dev % 2),
                    Ipv4Addr::new(192, 168, 1, 1),
                    40000 + *id % 1000,
                    53,
                    msg,
                )
            }
        }
        Op::Response {
            dev,
            id,
            name,
            aaaa,
            over_v6,
            peer_tail,
        } => {
            let n = name_pool(*name);
            let query = Message::query(*id, n.clone(), RecordType::Aaaa);
            let mut resp = query.response(Rcode::NoError);
            if *aaaa {
                resp.answers.push(Record::new(
                    n,
                    300,
                    Rdata::Aaaa(peer_addr(*peer_tail, true)),
                ));
            }
            let msg = resp.build();
            if *over_v6 {
                let src = peer_addr(1, false);
                let dst = dev_addr(*dev, 2, false);
                v6_udp(r, dev_mac(*dev), src, dst, 53, 40000 + *id % 1000, msg)
            } else {
                v4_udp(
                    r,
                    dev_mac(*dev),
                    Ipv4Addr::new(192, 168, 1, 1),
                    Ipv4Addr::new(192, 168, 1, 10 + dev % 2),
                    53,
                    40000 + *id % 1000,
                    msg,
                )
            }
        }
        Op::DataV6 {
            dev,
            tail,
            eui,
            peer_tail,
            global,
            dport,
            len,
            outbound,
        } => {
            let d = dev_addr(*dev, *tail, *eui);
            let peer = peer_addr(*peer_tail, *global);
            let payload = vec![0x5a; *len as usize];
            // Steer clear of the service ports the classifier reserves
            // (53/67/68/546/547) while keeping NTP (123) reachable.
            let dp = if *dport % 8 == 0 {
                123
            } else {
                30000 + dport % 1000
            };
            if *outbound {
                v6_udp(dev_mac(*dev), r, d, peer, 50000, dp, payload)
            } else {
                v6_udp(r, dev_mac(*dev), peer, d, dp, 50000, payload)
            }
        }
        Op::DataV4 { dev, public, len } => {
            let src = Ipv4Addr::new(192, 168, 1, 10 + dev % 2);
            let dst = if *public {
                Ipv4Addr::new(203, 0, 113, 7)
            } else {
                Ipv4Addr::new(192, 168, 1, 77)
            };
            v4_udp(
                dev_mac(*dev),
                r,
                src,
                dst,
                50001,
                8883,
                vec![0x11; *len as usize],
            )
        }
        Op::Sni {
            dev,
            name,
            tail,
            eui,
            peer_tail,
        } => {
            let src = dev_addr(*dev, *tail, *eui);
            let dst = peer_addr(*peer_tail, true);
            let (head, padding) = tls::client_hello(&name_pool(*name), 64);
            let hello = padding.spell(&head, &mut Vec::new()).to_vec();
            let seg = tcp::Repr {
                src_port: 50443,
                dst_port: 443,
                seq: 1,
                ack: 1,
                flags: tcp::Flags::PSH.union(tcp::Flags::ACK),
                window: 0xffff,
                payload: hello,
            }
            .build(PseudoHeader::V6 { src, dst });
            v6_frame(dev_mac(*dev), r, src, dst, Protocol::Tcp, seg)
        }
        Op::Dhcpv6Client { dev, stateful } => {
            let mt = if *stateful {
                dhcpv6::MessageType::Solicit
            } else {
                dhcpv6::MessageType::InformationRequest
            };
            let msg = dhcpv6::Repr::new(mt, 0x1234).build();
            let src = dev_addr(*dev, 1, false);
            let dst = "ff02::1:2".parse().unwrap();
            v6_udp(dev_mac(*dev), r, src, dst, 546, 547, msg)
        }
        Op::Dhcpv6Reply { dev, tail } => {
            let mut msg = dhcpv6::Repr::new(dhcpv6::MessageType::Reply, 0x1234);
            msg.ia_na = Some(dhcpv6::IaNa {
                iaid: 1,
                t1: 1800,
                t2: 2880,
                addresses: vec![dhcpv6::IaAddr {
                    addr: dev_addr(*dev, *tail, false),
                    preferred: 3600,
                    valid: 7200,
                }],
            });
            let src = peer_addr(1, false);
            let dst = dev_addr(*dev, 1, false);
            v6_udp(r, dev_mac(*dev), src, dst, 547, 546, msg.build())
        }
        Op::Dhcpv4Req { dev } => {
            let msg =
                dhcpv4::Repr::client(dhcpv4::MessageType::Request, 0x42, dev_mac(*dev)).build();
            v4_udp(
                dev_mac(*dev),
                r,
                Ipv4Addr::UNSPECIFIED,
                Ipv4Addr::BROADCAST,
                68,
                67,
                msg,
            )
        }
        Op::Unattributed { len } => v6_udp(
            stranger_mac(),
            stranger_mac(),
            peer_addr(3, false),
            peer_addr(4, true),
            50002,
            30001,
            vec![0; *len as usize],
        ),
        Op::Truncated { dev, len, cut } => {
            let mut f = v6_udp(
                dev_mac(*dev),
                router_mac(),
                dev_addr(*dev, 5, false),
                peer_addr(6, true),
                50003,
                30002,
                vec![0x77; *len as usize],
            );
            let keep = 1 + (*cut as usize % f.len().max(2));
            f.truncate(keep.min(f.len()));
            f
        }
    }
}

fn arb_op() -> impl Strategy<Value = Op> {
    // The vendored proptest has no `prop_oneof!`, so draw one flat tuple
    // of integers and map the first word onto a variant, slicing the
    // rest for fields. Tails and DNS ids fold into small pools so that
    // re-announcements and query/response correlation actually occur.
    (
        any::<u8>(),
        any::<u8>(),
        any::<u16>(),
        any::<u16>(),
        any::<u16>(),
    )
        .prop_map(|(disc, a, b, c, d)| {
            let dev = a & 0x0f;
            let eui = a & 0x10 != 0;
            let flag2 = a & 0x20 != 0;
            let flag3 = a & 0x40 != 0;
            let tail = 1 + b % 6;
            let peer_tail = 1 + c % 6;
            let id = c % 8;
            let small = (d >> 8) as u8;
            match disc % 14 {
                0 => Op::Garbage(
                    (0..b as usize % 64)
                        .map(|i| (c as usize ^ (i * 37)) as u8)
                        .collect(),
                ),
                1 => Op::NsDad { dev, tail, eui },
                2 => Op::Na { dev, tail },
                3 => Op::Echo { dev, tail, eui },
                4 => Op::Query {
                    dev,
                    name: small,
                    rtype: (d & 0xff) as u8,
                    over_v6: flag2,
                    id,
                    tail,
                    eui,
                },
                5 => Op::Response {
                    dev,
                    id: b % 8,
                    name: small,
                    aaaa: flag2,
                    over_v6: flag3,
                    peer_tail,
                },
                6 => Op::DataV6 {
                    dev,
                    tail,
                    eui,
                    peer_tail,
                    global: flag2,
                    dport: d,
                    len: small,
                    outbound: flag3,
                },
                7 => Op::DataV4 {
                    dev,
                    public: flag2,
                    len: small,
                },
                8 => Op::Sni {
                    dev,
                    name: small,
                    tail,
                    eui,
                    peer_tail,
                },
                9 => Op::Dhcpv6Client {
                    dev,
                    stateful: flag2,
                },
                10 => Op::Dhcpv6Reply { dev, tail },
                11 => Op::Dhcpv4Req { dev },
                12 => Op::Unattributed { len: small },
                _ => Op::Truncated {
                    dev,
                    len: small,
                    cut: (d & 0xff) as u8,
                },
            }
        })
}

fn device_map() -> Vec<(Mac, String)> {
    vec![
        (dev_mac(0), "dev0".to_string()),
        (dev_mac(1), "dev1".to_string()),
    ]
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(64))]

    /// The full pass set reproduces the pre-refactor monolith exactly,
    /// for any interleaving of valid, garbage, truncated, and
    /// unattributable frames.
    #[test]
    fn full_pass_set_matches_monolith(ops in proptest::collection::vec(arb_op(), 0..80)) {
        let macs = device_map();
        let mut new = StreamingAnalyzer::new(&macs, lan());
        let mut old = Monolith::new(&macs, lan());
        for (i, op) in ops.iter().enumerate() {
            let frame = build_frame(op);
            let ts = i as u64 * 1000;
            new.feed(ts, &frame);
            old.feed(ts, &frame);
        }
        let new = new.finish();
        let old = old.finish();
        // Flows are serde-skipped, so compare them structurally first.
        prop_assert_eq!(new.flows.len(), old.flows.len());
        let total = |a: &ExperimentAnalysis| -> u64 {
            a.flows.iter().map(|(_, f)| f.total_bytes()).sum()
        };
        prop_assert_eq!(total(&new), total(&old));
        prop_assert_eq!(
            serde_json::to_string(&new).unwrap(),
            serde_json::to_string(&old).unwrap()
        );
    }

    /// Subset monotonicity: any pass subset produces exactly the full
    /// run's values for fields its closure owns, and defaults for the
    /// rest.
    #[test]
    fn pass_subsets_are_monotone(
        ops in proptest::collection::vec(arb_op(), 0..60),
        mask in 1u8..63,
    ) {
        let macs = device_map();
        let frames: Vec<(u64, Vec<u8>)> = ops
            .iter()
            .enumerate()
            .map(|(i, op)| (i as u64 * 1000, build_frame(op)))
            .collect();

        let mut full = StreamingAnalyzer::new(&macs, lan());
        for (ts, f) in &frames {
            full.feed(*ts, f);
        }
        let full_json = serde_json::to_value(full.finish()).unwrap();

        let selected: Vec<PassId> = PassId::ALL
            .iter()
            .copied()
            .enumerate()
            .filter(|(i, _)| mask & (1 << i) != 0)
            .map(|(_, p)| p)
            .collect();
        let mut sub = StreamingAnalyzer::with_passes(&macs, lan(), &selected);
        let enabled = sub.enabled_passes();
        for (ts, f) in &frames {
            sub.feed(*ts, f);
        }
        let sub_json = serde_json::to_value(sub.finish()).unwrap();

        // Frame accounting never depends on the selection.
        for counter in ["frames", "parse_errors", "unattributed_frames"] {
            prop_assert_eq!(sub_json.get_field(counter), full_json.get_field(counter));
        }

        let default_obs = serde_json::to_value(DeviceObservation::default()).unwrap();
        for (_, label) in &macs {
            let f = full_json.get_field("devices").get_field(label.as_str());
            let s = sub_json.get_field("devices").get_field(label.as_str());
            for pass in PassId::ALL {
                for field in pass.owned_device_fields() {
                    if enabled.contains(&pass) {
                        prop_assert_eq!(
                            s.get_field(field), f.get_field(field),
                            "enabled pass {:?} field {} must match the full run", pass, field
                        );
                    } else {
                        prop_assert_eq!(
                            s.get_field(field), default_obs.get_field(field),
                            "disabled pass {:?} field {} must stay default", pass, field
                        );
                    }
                }
            }
        }
    }
}
