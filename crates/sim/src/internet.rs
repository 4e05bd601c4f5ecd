//! The Internet model: authoritative DNS zones, public resolvers, and the
//! remote cloud endpoints the IoT devices talk to.
//!
//! The Internet sits at the far end of the WAN link. It consumes IPv4
//! packets (native, or 6in4 proto-41 encapsulating IPv6, exactly like the
//! testbed's Hurricane Electric tunnel) and produces IPv4 packets back.
//! Remote servers are deliberately semi-stateless: they answer SYN with
//! SYN/ACK, data with ACK plus a response sized by the domain's traffic
//! profile, and FIN with FIN/ACK — enough TCP for the capture analysis and
//! the port scans without a full stack on the cloud side.

use crate::addrs;
use crate::event::SimTime;
use crate::faults::{DnsFaultMode, FaultPlan};
use crate::wire::{self, alloc, Queued};
use std::borrow::Borrow;
use std::collections::BTreeSet;
use std::hash::Hash;
use std::net::{IpAddr, Ipv4Addr, Ipv6Addr};
use std::sync::Arc;
use v6brick_net::dns::{MessageView, Name, Rcode, Rdata, RecordType, Section, Writer};
use v6brick_net::hash::FxHashMap;
use v6brick_net::ipv4::Protocol;
use v6brick_net::ipv6::Ipv6AddrExt;
use v6brick_net::udp::PseudoHeader;
use v6brick_net::{icmpv6, ipv4, ipv6, tcp, udp, Run};

/// How a destination domain behaves: which address families it serves, and
/// whether its IPv6 server answers.
#[derive(Debug, Clone)]
pub struct DomainProfile {
    /// Name.
    pub name: Name,
    /// IPv4 presence. Nearly every cloud has one.
    pub a: Option<Ipv4Addr>,
    /// IPv6 presence — the paper's "AAAA readiness" (Table 7).
    pub aaaa: Option<Ipv6Addr>,
    /// The paper's §7 caveat: "having an IPv6 address does not guarantee
    /// the destination is reachable". When false, the AAAA record exists
    /// but every IPv6 packet toward the server is silently dropped.
    pub reachable_v6: bool,
}

impl DomainProfile {
    /// A dual-stack domain with deterministic addresses derived from the
    /// name.
    pub fn dual_stack(name: Name) -> DomainProfile {
        let (a, aaaa) = derive_addrs(&name);
        DomainProfile {
            name,
            a: Some(a),
            aaaa: Some(aaaa),
            reachable_v6: true,
        }
    }

    /// An IPv4-only domain (no AAAA record) — the §5.1.3 functionality
    /// killers like `api.amazon.com`.
    pub fn v4_only(name: Name) -> DomainProfile {
        let (a, _) = derive_addrs(&name);
        DomainProfile {
            name,
            a: Some(a),
            aaaa: None,
            reachable_v6: true,
        }
    }

    /// Mark the AAAA record as published but the server as unreachable
    /// over IPv6 (the paper's §7 reachability caveat).
    pub fn with_v6_unreachable(mut self) -> DomainProfile {
        self.reachable_v6 = false;
        self
    }
}

/// Deterministic server addresses for a domain: a stable hash of the name
/// mapped into documentation ranges.
pub fn derive_addrs(name: &Name) -> (Ipv4Addr, Ipv6Addr) {
    // FNV-1a, stable across runs and platforms.
    let mut h: u64 = 0xcbf2_9ce4_8422_2325;
    for b in name.as_str().bytes() {
        h ^= u64::from(b);
        h = h.wrapping_mul(0x100_0000_01b3);
    }
    let a = Ipv4Addr::new(198, 18, (h >> 8) as u8, ((h & 0xff) as u8).max(1));
    let aaaa = Ipv6Addr::new(
        0x2001,
        0xdb8,
        0xffff,
        (h >> 48) as u16,
        (h >> 32) as u16,
        (h >> 16) as u16,
        h as u16,
        1,
    );
    (a, aaaa)
}

/// The authoritative zone database the public resolvers answer from.
#[derive(Debug, Clone, Default)]
pub struct ZoneDb {
    domains: FxHashMap<Name, DomainProfile>,
}

impl ZoneDb {
    /// An empty zone set.
    pub fn new() -> ZoneDb {
        ZoneDb::default()
    }

    /// Register (or replace) a domain.
    pub fn insert(&mut self, profile: DomainProfile) {
        self.domains.insert(profile.name.clone(), profile);
    }

    /// Look up a domain, by [`Name`] or by its text.
    pub fn get<Q>(&self, name: &Q) -> Option<&DomainProfile>
    where
        Name: Borrow<Q>,
        Q: Hash + Eq + ?Sized,
    {
        self.domains.get(name)
    }

    /// Number of registered domains.
    pub fn len(&self) -> usize {
        self.domains.len()
    }

    /// Is the database empty?
    pub fn is_empty(&self) -> bool {
        self.domains.is_empty()
    }

    /// Iterate all profiles.
    pub fn iter(&self) -> impl Iterator<Item = &DomainProfile> {
        self.domains.values()
    }
}

/// The zone database with its reverse maps, so a packet's destination
/// identifies its domain. Fixed once built, so forks share one copy.
#[derive(Debug)]
struct Zones {
    db: ZoneDb,
    by_v4: FxHashMap<Ipv4Addr, Name>,
    by_v6: FxHashMap<Ipv6Addr, Name>,
}

/// The Internet entity: resolvers + remote servers + the 6in4 far end.
#[derive(Debug, Clone)]
pub struct Internet {
    zones: Arc<Zones>,
    /// Fault schedule (zone-level DNS timeout/SERVFAIL windows).
    faults: FaultPlan,
    /// The SOA every negative answer carries in its authority section.
    soa: Rdata,
    /// Address of an attached Internet-side scanner: inner v6 packets
    /// addressed to it are buffered instead of served.
    scanner_addr: Option<Ipv6Addr>,
    /// Buffered inner IPv6 packets destined for the scanner (probe
    /// replies crossing the tunnel outward).
    scanner_rx: Vec<Vec<u8>>,
    /// Every global-unicast source address seen inside the 6in4 tunnel —
    /// the passive vantage a tunnel provider (or tapping scanner) has on
    /// the home's addressing, and the hitlist generator's input.
    observed_v6_sources: BTreeSet<Ipv6Addr>,
}

impl Internet {
    /// Build from a zone database.
    pub fn new(zones: ZoneDb) -> Internet {
        let mut by_v4 = FxHashMap::default();
        let mut by_v6 = FxHashMap::default();
        for p in zones.iter() {
            if let Some(a) = p.a {
                by_v4.insert(a, p.name.clone());
            }
            if let Some(aaaa) = p.aaaa {
                by_v6.insert(aaaa, p.name.clone());
            }
        }
        Internet {
            zones: Arc::new(Zones {
                db: zones,
                by_v4,
                by_v6,
            }),
            faults: FaultPlan::new(),
            soa: Rdata::Soa {
                mname: Name::new("ns1.invalid").unwrap(),
                rname: Name::new("hostmaster.invalid").unwrap(),
                serial: 20240405,
                refresh: 7200,
                retry: 900,
                expire: 1_209_600,
                minimum: 86_400,
            },
            scanner_addr: None,
            scanner_rx: Vec::new(),
            observed_v6_sources: BTreeSet::new(),
        }
    }

    /// Attach an Internet-side scanner at `addr`: tunnel-crossing v6
    /// packets addressed to it are buffered for [`Internet::take_scanner_rx`]
    /// instead of being handled as server traffic.
    pub fn attach_scanner(&mut self, addr: Ipv6Addr) {
        self.scanner_addr = Some(addr);
    }

    /// Drain the buffered probe replies addressed to the scanner.
    pub fn take_scanner_rx(&mut self) -> Vec<Vec<u8>> {
        std::mem::take(&mut self.scanner_rx)
    }

    /// Global-unicast v6 source addresses observed inside the tunnel so
    /// far, in address order.
    pub fn observed_v6_sources(&self) -> impl Iterator<Item = &Ipv6Addr> {
        self.observed_v6_sources.iter()
    }

    /// Install the fault schedule ([`SimulationBuilder::faults`] calls
    /// this for every layer).
    ///
    /// [`SimulationBuilder::faults`]: crate::engine::SimulationBuilder::faults
    pub fn set_faults(&mut self, faults: FaultPlan) {
        self.faults = faults;
    }

    /// Handle one IPv4 packet arriving from the router's WAN interface
    /// at virtual time `now`: plain bytes, or bytes ending in a run (a
    /// device's telemetry upload), whose length the servers read from
    /// the length fields without spelling it. Returns the IPv4 packet
    /// flowing back, if any, with the [`Run`] it ends in: a server's
    /// bulk reply is one repeated byte, emitted as a run behind the
    /// headers.
    pub fn handle_packet_at<'a>(
        &mut self,
        now: SimTime,
        packet: impl Into<Queued<'a>>,
    ) -> Option<(Vec<u8>, Run)> {
        let Queued { head, run } = packet.into();
        let p = ipv4::Packet::new_checked_with_tail(head, run.len()).ok()?;
        let repr = ipv4::Repr::parse(&p);
        let (l3, run) = (p.payload(), run.cut(head.len(), usize::from(p.total_len())));
        match repr.protocol {
            // 6in4: unwrap and process as IPv6, re-wrapping replies.
            Protocol::Ipv6 if repr.dst == addrs::TUNNEL_REMOTE_IPV4 => {
                let inner = ipv6::Packet::new_checked_with_tail(l3, run.len()).ok()?;
                let inner_repr = ipv6::Repr::parse(&inner);
                if inner_repr.src.is_global_unicast() {
                    self.observed_v6_sources.insert(inner_repr.src);
                }
                if Some(inner_repr.dst) == self.scanner_addr {
                    self.scanner_rx
                        .push(run.spell(l3, &mut Vec::new()).to_vec());
                    return None;
                }
                let path = ReplyPath::SixIn4 {
                    router: repr.src,
                    src: inner_repr.dst,
                    dst: inner_repr.src,
                };
                let l4_run = run.cut(l3.len(), ipv6::HEADER_LEN + inner_repr.payload_len);
                self.handle_v6(now, path, &inner_repr, inner.payload(), l4_run)
            }
            _ => self.handle_v4(now, &repr, l3, run),
        }
    }

    /// A native IPv4 packet whose L4 bytes are `l4` followed by `run`.
    fn handle_v4(
        &mut self,
        now: SimTime,
        ip: &ipv4::Repr,
        l4: &[u8],
        run: Run,
    ) -> Option<(Vec<u8>, Run)> {
        let path = ReplyPath::V4 {
            src: ip.dst,
            dst: ip.src,
        };
        let server = IpAddr::V4(ip.dst);
        match ip.protocol {
            Protocol::Udp => self.handle_udp(now, path, server, l4, run),
            Protocol::Tcp => self.handle_tcp(path, server, l4, run),
            _ => None,
        }
    }

    /// A decapsulated IPv6 packet whose L4 bytes are `l4` followed by
    /// `run`.
    fn handle_v6(
        &mut self,
        now: SimTime,
        path: ReplyPath,
        ip: &ipv6::Repr,
        l4: &[u8],
        run: Run,
    ) -> Option<(Vec<u8>, Run)> {
        // The §7 reachability extension: servers whose AAAA exists but
        // whose IPv6 path is dead swallow everything silently.
        if let Some(name) = self.zones.by_v6.get(&ip.dst) {
            if let Some(p) = self.zones.db.get(name) {
                if !p.reachable_v6 {
                    return None;
                }
            }
        }
        let server = IpAddr::V6(ip.dst);
        match ip.next_header {
            Protocol::Udp => self.handle_udp(now, path, server, l4, run),
            Protocol::Tcp => self.handle_tcp(path, server, l4, run),
            Protocol::Icmpv6 => {
                // Echo service on resolvers and known servers (the IoT
                // connectivity probes of §5.4.1's "misc" EUI-64 uses).
                let known = ip.dst == addrs::DNS6_PRIMARY
                    || ip.dst == addrs::DNS6_SECONDARY
                    || self.zones.by_v6.contains_key(&ip.dst);
                if !known {
                    return None;
                }
                match icmpv6::Repr::parse_bytes(ip.src, ip.dst, l4) {
                    Ok(icmpv6::Repr::EchoRequest {
                        ident,
                        seq,
                        payload,
                    }) => {
                        let reply = icmpv6::Repr::EchoReply {
                            ident,
                            seq,
                            payload,
                        };
                        let body = reply.build(ip.dst, ip.src);
                        Some(path.packet(Protocol::Icmpv6, 0, &body, Run::default(), |_, _| {}))
                    }
                    _ => None,
                }
            }
            _ => None,
        }
    }

    /// UDP service dispatch: the reply to a datagram addressed to
    /// `server`, `l4` followed by `run`, if it gets one.
    fn handle_udp(
        &mut self,
        now: SimTime,
        path: ReplyPath,
        server: IpAddr,
        l4: &[u8],
        run: Run,
    ) -> Option<(Vec<u8>, Run)> {
        let u = udp::Packet::new_checked_with_tail(l4, run.len()).ok()?;
        let (dst_port, payload) = (u.dst_port(), u.payload());
        let reply = |src_port, body, run| {
            path.packet(Protocol::Udp, udp::HEADER_LEN, body, run, |dgram, ph| {
                udp::Repr {
                    src_port,
                    dst_port: u.src_port(),
                    payload: Vec::new(),
                }
                .emit(dgram, run, ph)
            })
        };
        let is_resolver = match server {
            IpAddr::V4(d) => d == addrs::DNS4_PRIMARY || d == addrs::DNS4_SECONDARY,
            IpAddr::V6(d) => d == addrs::DNS6_PRIMARY || d == addrs::DNS6_SECONDARY,
        };
        if is_resolver && dst_port == 53 {
            let query = MessageView::new(payload).ok()?;
            if query.is_response() {
                return None;
            }
            let answer = self.answer(now, &query)?;
            return Some(reply(53, &answer, Run::default()));
        }
        if !self.serves(server) {
            return None;
        }
        // NTP on any known server address.
        if dst_port == 123 {
            return Some(reply(123, &[], Run::new(0x24, 48)));
        }
        // Generic UDP cloud service on a known server: scaled echo.
        let payload_len = usize::from(u.len()) - udp::HEADER_LEN;
        let len = (payload_len as u32 * RESPONSE_SCALE).clamp(16, 8192) as usize;
        Some(reply(dst_port, &[], Run::new(0x5a, len)))
    }

    /// The resolver's reply to `query` at `now`, written straight from
    /// the view: A/AAAA answered from the zone's profile, HTTPS/SVCB
    /// advertising the same endpoint, NOERROR + SOA (a negative answer)
    /// for a registered name without the requested record, NXDOMAIN +
    /// SOA for an unregistered one. Every reply repeats all the query's
    /// questions but answers only the first. `None` when a timeout fault
    /// swallows the query.
    fn answer(&self, now: SimTime, query: &MessageView<'_>) -> Option<Vec<u8>> {
        let Some(q) = query.question() else {
            return Some(Writer::response_to(query, Rcode::FormErr).finish());
        };
        let name = q.name.text();
        // Zone-level resolver faults: the query times out (no reply
        // packet at all) or comes back SERVFAIL.
        match self.faults.dns_fault_for(now, &name) {
            Some(DnsFaultMode::Timeout) => return None,
            Some(DnsFaultMode::Servfail) => {
                return Some(Writer::response_to(query, Rcode::ServFail).finish());
            }
            None => {}
        }
        let (rcode, rdata) = match self.zones.db.get(name.as_str()) {
            None => (Rcode::NxDomain, None),
            Some(profile) => (
                Rcode::NoError,
                match q.rtype {
                    RecordType::A => profile.a.map(Rdata::A),
                    RecordType::Aaaa => profile.aaaa.map(Rdata::Aaaa),
                    // Service binding: advertise the same endpoint.
                    RecordType::Https | RecordType::Svcb
                        if profile.a.is_some() || profile.aaaa.is_some() =>
                    {
                        Some(Rdata::Svcb {
                            priority: 1,
                            target: Name::root(),
                        })
                    }
                    _ => None,
                },
            ),
        };
        let mut w = Writer::response_to(query, rcode);
        match rdata {
            Some(rdata) => w.record(Section::Answer, &name, q.rtype, 300, &rdata),
            // Negative: NXDOMAIN, or NOERROR without the record.
            None => {
                let zone = second_level(&name);
                w.record(Section::Authority, zone, RecordType::Soa, 900, &self.soa);
            }
        }
        Some(w.finish())
    }

    /// Semi-stateless server-side TCP: the reply to a segment addressed
    /// to `server`, `l4` followed by `data_run`, read in place.
    fn handle_tcp(
        &mut self,
        path: ReplyPath,
        server: IpAddr,
        l4: &[u8],
        data_run: Run,
    ) -> Option<(Vec<u8>, Run)> {
        let seg = tcp::Packet::new_checked(l4).ok()?;
        // Unroutable/unknown destination: silence (packets to nowhere).
        if !self.serves(server) {
            return None;
        }
        let flags = seg.flags();
        let data_len = seg.payload().len() + data_run.len();
        let header = |seq, ack, flags, window| tcp::Repr {
            src_port: seg.dst_port(),
            dst_port: seg.src_port(),
            seq,
            ack,
            flags,
            window,
            payload: Vec::new(),
        };
        let (reply, body_len) = if flags.contains(tcp::Flags::SYN) {
            // Accept connections on the standard cloud ports; RST the rest.
            let ack = seg.seq().wrapping_add(1);
            if matches!(seg.dst_port(), 443 | 80 | 8883 | 8443 | 123) {
                let flags = tcp::Flags::SYN | tcp::Flags::ACK;
                (header(1000, ack, flags, 0xffff), 0)
            } else {
                (header(0, ack, tcp::Flags::RST | tcp::Flags::ACK, 0), 0)
            }
        } else if flags.contains(tcp::Flags::FIN) {
            let ack = seg.seq().wrapping_add(1 + data_len as u32);
            let flags = tcp::Flags::FIN | tcp::Flags::ACK;
            (header(seg.ack(), ack, flags, 0xffff), 0)
        } else if data_len > 0 {
            // Cap the response segment well inside the IPv6 payload-length
            // field; clients chase volume with multiple request segments.
            let len = (data_len as u32 * RESPONSE_SCALE).clamp(64, 48 * 1024) as usize;
            let ack = seg.seq().wrapping_add(data_len as u32);
            let flags = tcp::Flags::PSH | tcp::Flags::ACK;
            (header(seg.ack(), ack, flags, 0xffff), len)
        } else {
            return None;
        };
        let run = Run::new(RESPONSE_FILL, body_len);
        Some(
            path.packet(Protocol::Tcp, tcp::HEADER_LEN, &[], run, |s, ph| {
                reply.emit(s, run, ph)
            }),
        )
    }

    /// Is `ip` the server address of a registered domain?
    fn serves(&self, ip: IpAddr) -> bool {
        match ip {
            IpAddr::V4(a) => self.zones.by_v4.contains_key(&a),
            IpAddr::V6(a) => self.zones.by_v6.contains_key(&a),
        }
    }
}

/// The zone a negative answer's SOA is owned by: the name's last two
/// labels (the text form of [`Name::second_level`]).
fn second_level(name: &str) -> &str {
    match name.rmatch_indices('.').nth(1) {
        Some((dot, _)) => &name[dot + 1..],
        None => name,
    }
}

/// The byte cloud servers fill TCP responses with (the TLS
/// application-data content type).
const RESPONSE_FILL: u8 = 0x17;

/// Server response bytes per request byte: every cloud's verbosity.
const RESPONSE_SCALE: u32 = 4;

/// The IP layers a reply travels in: native IPv4, or IPv6 re-wrapped in
/// the 6in4 tunnel back to the router.
#[derive(Debug, Clone, Copy)]
enum ReplyPath {
    V4 {
        src: Ipv4Addr,
        dst: Ipv4Addr,
    },
    SixIn4 {
        router: Ipv4Addr,
        src: Ipv6Addr,
        dst: Ipv6Addr,
    },
}

impl ReplyPath {
    /// A reply packet ending in `run`: one buffer of the IP header(s),
    /// then `l4_header` bytes that `emit_l4` writes (with the body in
    /// place behind them, for the checksum), then `body`.
    fn packet(
        self,
        protocol: Protocol,
        l4_header: usize,
        body: &[u8],
        run: Run,
        emit_l4: impl FnOnce(&mut [u8], PseudoHeader),
    ) -> (Vec<u8>, Run) {
        let pkt = match self {
            ReplyPath::V4 { src, dst } => {
                let at = ipv4::HEADER_LEN;
                let mut pkt = alloc(at + l4_header, body);
                emit_l4(&mut pkt[at..], PseudoHeader::V4 { src, dst });
                ipv4::Repr {
                    src,
                    dst,
                    protocol,
                    ttl: 64,
                    payload_len: pkt.len() - at + run.len(),
                }
                .emit(&mut pkt);
                pkt
            }
            ReplyPath::SixIn4 { router, src, dst } => {
                let l4_len = l4_header + body.len();
                wire::sixin4_packet(router, src, dst, protocol, l4_len, run, |pkt| {
                    let segment = wire::push_segment(pkt, l4_header, body);
                    emit_l4(segment, PseudoHeader::V6 { src, dst })
                })
            }
        };
        (pkt, run)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use v6brick_net::dns::Message;
    use v6brick_net::Mac;

    fn name(s: &str) -> Name {
        Name::new(s).unwrap()
    }

    /// An IPv4 packet from the router's WAN address: the IP part of the
    /// frame the wire helper builds.
    fn wan_udp(dst: Ipv4Addr, src_port: u16, dst_port: u16, payload: Vec<u8>) -> Vec<u8> {
        let (m, src) = (Mac::BROADCAST, addrs::ROUTER_WAN_IPV4);
        wire::udp4_frame(m, m, src, dst, src_port, dst_port, payload)[wire::ETH..].to_vec()
    }

    fn wan_tcp(dst: Ipv4Addr, seg: &tcp::Repr) -> Vec<u8> {
        let (m, src) = (Mac::BROADCAST, addrs::ROUTER_WAN_IPV4);
        wire::tcp4_frame(m, m, src, dst, seg)[wire::ETH..].to_vec()
    }

    /// The reply to `packet` at t = 0, its run spelled out.
    fn reply_to(net: &mut Internet, packet: &[u8]) -> Option<Vec<u8>> {
        let (head, run) = net.handle_packet_at(SimTime::ZERO, packet)?;
        Some(run.spell(&head, &mut Vec::new()).to_vec())
    }

    fn test_internet() -> Internet {
        let mut z = ZoneDb::new();
        z.insert(DomainProfile::dual_stack(name("cloud.example.com")));
        z.insert(DomainProfile::v4_only(name("api.amazon.com")));
        Internet::new(z)
    }

    #[test]
    fn derive_addrs_is_deterministic_and_distinct() {
        let (a1, s1) = derive_addrs(&name("cloud.example.com"));
        let (a2, s2) = derive_addrs(&name("cloud.example.com"));
        assert_eq!((a1, s1), (a2, s2));
        let (b1, t1) = derive_addrs(&name("other.example.com"));
        assert_ne!(a1, b1);
        assert_ne!(s1, t1);
    }

    /// The resolver's parsed reply to a `name`/`rtype` query at t = 0.
    fn resolve(net: &mut Internet, name: &str, rtype: RecordType) -> Message {
        let query = Writer::query(1, name, rtype);
        let reply = reply_to(net, &wan_udp(addrs::DNS4_PRIMARY, 40000, 53, query)).unwrap();
        let rp = ipv4::Packet::new_checked(&reply[..]).unwrap();
        let ru = udp::Packet::new_checked(rp.payload()).unwrap();
        Message::parse_bytes(ru.payload()).unwrap()
    }

    #[test]
    fn resolver_answers_a_and_aaaa() {
        let mut net = test_internet();
        let resp = resolve(&mut net, "cloud.example.com", RecordType::Aaaa);
        assert_eq!(resp.aaaa_answers().count(), 1);
        assert!(!resp.is_negative());

        // v4-only domain: AAAA gets NOERROR + SOA (negative).
        let resp = resolve(&mut net, "api.amazon.com", RecordType::Aaaa);
        assert!(resp.is_negative());
        assert_eq!(resp.rcode, Rcode::NoError);
        assert_eq!(resp.authorities[0].name, name("amazon.com"));

        // ... but its A record exists.
        let resp = resolve(&mut net, "api.amazon.com", RecordType::A);
        assert_eq!(resp.a_answers().count(), 1);

        // Unknown name: NXDOMAIN.
        let resp = resolve(&mut net, "nope.invalid", RecordType::A);
        assert_eq!(resp.rcode, Rcode::NxDomain);
    }

    #[test]
    fn second_level_is_the_last_two_labels() {
        for text in ["", "com", "amazon.com", "api.amazon.com", "a.b.c.d"] {
            let want = if text.is_empty() {
                Name::root()
            } else {
                name(text).second_level()
            };
            assert_eq!(second_level(text), want.as_str());
        }
    }

    #[test]
    fn dns_over_v4_udp_end_to_end() {
        let mut net = test_internet();
        let query = Writer::query(7, "cloud.example.com", RecordType::A);
        let packet = wan_udp(addrs::DNS4_PRIMARY, 40000, 53, query);
        let reply = reply_to(&mut net, &packet).unwrap();
        let rp = ipv4::Packet::new_checked(&reply[..]).unwrap();
        assert_eq!(rp.src(), addrs::DNS4_PRIMARY);
        let ru = udp::Packet::new_checked(rp.payload()).unwrap();
        let msg = Message::parse_bytes(ru.payload()).unwrap();
        assert!(msg.is_response);
        assert_eq!(msg.a_answers().count(), 1);
    }

    #[test]
    fn dns_fault_windows_timeout_and_servfail() {
        let mut net = test_internet();
        net.set_faults(
            FaultPlan::new()
                .dns_fault(
                    SimTime::from_secs(10),
                    SimTime::from_secs(20),
                    Some("example.com"),
                    DnsFaultMode::Servfail,
                )
                .dns_fault(
                    SimTime::from_secs(30),
                    SimTime::from_secs(40),
                    None,
                    DnsFaultMode::Timeout,
                ),
        );
        let query_packet = || {
            let query = Writer::query(7, "cloud.example.com", RecordType::Aaaa);
            wan_udp(addrs::DNS4_PRIMARY, 40000, 53, query)
        };
        let answer_at = |net: &mut Internet, t: u64| {
            let reply = net.handle_packet_at(SimTime::from_secs(t), &query_packet());
            reply.map(|(r, run)| {
                assert!(run.is_empty(), "DNS answers are copied, not runs");
                let rp = ipv4::Packet::new_checked(&r[..]).unwrap();
                let ru = udp::Packet::new_checked(rp.payload()).unwrap();
                Message::parse_bytes(ru.payload()).unwrap().rcode
            })
        };
        // Inside the SERVFAIL window for the matching zone.
        assert_eq!(answer_at(&mut net, 15), Some(Rcode::ServFail));
        // Inside the all-zone timeout window: no reply packet at all.
        assert_eq!(answer_at(&mut net, 35), None);
        // Outside every window: a normal answer.
        assert_eq!(answer_at(&mut net, 50), Some(Rcode::NoError));
    }

    #[test]
    fn tcp_syn_to_cloud_port_gets_synack_via_tunnel() {
        let mut net = test_internet();
        let (_, server6) = derive_addrs(&name("cloud.example.com"));
        let client: Ipv6Addr = "2001:db8:10:1::abcd".parse().unwrap();
        let syn = tcp::Repr::syn(40001, 443, 77);
        let m = Mac::BROADCAST;
        let v6 = &wire::tcp6_frame(m, m, client, server6, &syn)[wire::ETH..];
        let encap = ipv4::Repr {
            src: addrs::ROUTER_WAN_IPV4,
            dst: addrs::TUNNEL_REMOTE_IPV4,
            protocol: Protocol::Ipv6,
            ttl: 64,
            payload_len: v6.len(),
        }
        .build(v6);
        let reply = reply_to(&mut net, &encap).unwrap();
        let outer = ipv4::Packet::new_checked(&reply[..]).unwrap();
        assert_eq!(outer.protocol(), Protocol::Ipv6);
        let inner = ipv6::Packet::new_checked(outer.payload()).unwrap();
        assert_eq!(inner.src(), server6);
        let seg = tcp::Packet::new_checked(inner.payload()).unwrap();
        assert!(seg.flags().contains(tcp::Flags::SYN));
        assert!(seg.flags().contains(tcp::Flags::ACK));
        assert_eq!(seg.ack(), 78);
    }

    #[test]
    fn tcp_syn_to_closed_port_gets_rst() {
        let mut net = test_internet();
        let (server4, _) = derive_addrs(&name("cloud.example.com"));
        let packet = wan_tcp(server4, &tcp::Repr::syn(40001, 9999, 5));
        let reply = reply_to(&mut net, &packet).unwrap();
        let rp = ipv4::Packet::new_checked(&reply[..]).unwrap();
        assert_eq!((rp.src(), rp.dst()), (server4, addrs::ROUTER_WAN_IPV4));
        let seg = tcp::Packet::new_checked(rp.payload()).unwrap();
        assert_eq!(seg.flags(), tcp::Flags::RST | tcp::Flags::ACK);
        assert_eq!((seg.src_port(), seg.dst_port()), (9999, 40001));
        assert_eq!((seg.seq(), seg.ack(), seg.window()), (0, 6, 0));
        assert!(seg.payload().is_empty());
        assert!(seg.verify_checksum_v4(server4, addrs::ROUTER_WAN_IPV4));
    }

    #[test]
    fn data_gets_scaled_response() {
        let mut net = test_internet();
        let (server4, _) = derive_addrs(&name("cloud.example.com"));
        let data = tcp::Repr {
            src_port: 40001,
            dst_port: 443,
            seq: 100,
            ack: 1001,
            flags: tcp::Flags::PSH | tcp::Flags::ACK,
            window: 0xffff,
            payload: vec![1; 100],
        };
        let packet = wan_tcp(server4, &data);
        let (head, run) = net.handle_packet_at(SimTime::ZERO, &packet).unwrap();
        // The response body is a run behind the headers, checksummed
        // as if it were spelled out.
        assert_eq!(run, Run::new(RESPONSE_FILL, 400));
        assert_eq!(head.len(), ipv4::HEADER_LEN + tcp::HEADER_LEN);
        let reply = run.spell(&head, &mut Vec::new()).to_vec();
        let rp = ipv4::Packet::new_checked(&reply[..]).unwrap();
        let seg = tcp::Packet::new_checked(rp.payload()).unwrap();
        assert_eq!(seg.payload(), &[RESPONSE_FILL; 400][..]);
        assert!(seg.verify_checksum_v4(server4, addrs::ROUTER_WAN_IPV4));
    }

    #[test]
    fn packets_to_unknown_hosts_are_dropped() {
        let mut net = test_internet();
        let packet = wan_tcp(Ipv4Addr::new(192, 0, 2, 99), &tcp::Repr::syn(1, 443, 1));
        assert!(net.handle_packet_at(SimTime::ZERO, &packet).is_none());
    }
}
