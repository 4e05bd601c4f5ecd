//! The testbed router: the paper's custom Linux gateway (§4.1) reduced to
//! its observable behaviours.
//!
//! * DHCPv4 server (dnsmasq-style) when IPv4 is enabled;
//! * Router Advertisements carrying a SLAAC prefix, with RDNSS (RFC 8106)
//!   and the M/O flags steering clients toward DHCPv6, per experiment
//!   configuration (Table 2);
//! * stateless DHCPv6 (Information-Request → Reply with DNS servers) and
//!   stateful DHCPv6 (Solicit / Advertise / Request / Reply with IA_NA);
//! * NAT44 toward the WAN for IPv4, and a routed 6in4 tunnel for IPv6 —
//!   IPv6 is *not* NATed, so inbound v6 reaches devices directly (the
//!   §5.4.2 exposure the paper probes);
//! * an IPv6 neighbor table, which the active port scan harvests exactly
//!   the way the paper does.

use crate::addrs;
use crate::event::SimTime;
use crate::faults::FaultPlan;
use crate::host::Effects;
use crate::wire::{self, alloc, eth_frame, Queued};
use std::collections::{HashMap, HashSet};
use std::net::{Ipv4Addr, Ipv6Addr};
use v6brick_net::dhcpv6::OPTION_DNS_SERVERS;
use v6brick_net::ethernet::EtherType;
use v6brick_net::ipv4::Protocol;
use v6brick_net::ipv6::{mcast, Ipv6AddrExt};
use v6brick_net::ndp::{NdpOption, Repr as Ndp};
use v6brick_net::udp::PseudoHeader;
use v6brick_net::{arp, dhcpv4, dhcpv6, icmpv6, ipv4, ipv6, tcp, udp, Mac, Run};

/// How the CPE filters unsolicited IPv6 arriving from the WAN. IPv4 is
/// always "filtered" as a side effect of NAT44; routed IPv6 has no such
/// accident, so the posture is an explicit policy ("Where Have All the
/// Firewalls Gone?" finds all three in deployed home gateways).
/// Policies order from most to least restrictive: each one lets in a
/// superset of what the one before it lets in.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash)]
pub enum FirewallPolicy {
    /// RFC 6092 simple security: only return traffic of flows the LAN
    /// initiated crosses inward.
    DefaultDeny,
    /// Default-deny plus static pinholes for common service ports (the
    /// UPnP/PCP-forwarded posture) and inbound ICMPv6 echo (RFC 4890).
    PinholedServices,
    /// No WAN-side filtering at all: the routed /64 is fully reachable —
    /// the posture the seed simulator modelled implicitly.
    Open,
}

impl FirewallPolicy {
    /// All policies, most to least restrictive.
    pub const ALL: [FirewallPolicy; 3] = [
        FirewallPolicy::DefaultDeny,
        FirewallPolicy::PinholedServices,
        FirewallPolicy::Open,
    ];

    /// Stable label used in reports and CLI flags.
    pub fn label(&self) -> &'static str {
        match self {
            FirewallPolicy::DefaultDeny => "default-deny",
            FirewallPolicy::PinholedServices => "pinholed",
            FirewallPolicy::Open => "open",
        }
    }

    /// Parse a CLI label.
    pub fn from_label(s: &str) -> Option<FirewallPolicy> {
        FirewallPolicy::ALL.into_iter().find(|p| p.label() == s)
    }
}

/// TCP destination ports a `PinholedServices` gateway forwards inward.
pub const PINHOLED_TCP: [u16; 4] = [80, 443, 8080, 8443];
/// UDP destination ports a `PinholedServices` gateway forwards inward.
pub const PINHOLED_UDP: [u16; 2] = [5353, 5540];

/// Which services the router runs — one row of Table 2.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct RouterConfig {
    /// IPv4 connectivity (DHCPv4 + NAT44).
    pub ipv4: bool,
    /// IPv6 connectivity (RAs with a SLAAC prefix + 6in4 routing).
    pub ipv6: bool,
    /// Attach an RDNSS option to RAs.
    pub rdnss: bool,
    /// Answer stateless DHCPv6 (Information-Request).
    pub stateless_dhcpv6: bool,
    /// Assign addresses over stateful DHCPv6 (and set the RA M flag).
    pub stateful_dhcpv6: bool,
    /// Advertise the prefix with the autonomous flag cleared: DHCPv6
    /// becomes the only path to a global address (the enterprise-style
    /// configuration the paper's §7 names as unexplored future work).
    pub suppress_slaac: bool,
    /// WAN-side filtering of inbound IPv6 (the tunnel ingress path).
    pub wan_v6_firewall: FirewallPolicy,
}

/// RA interval (dnsmasq default era: a few minutes; shortened to keep the
/// simulated experiments dense).
const RA_PERIOD: SimTime = SimTime::from_secs(120);
const TOKEN_PERIODIC_RA: u64 = 1;

/// The router.
#[derive(Debug, Clone)]
pub struct Router {
    config: RouterConfig,
    /// DHCPv4 leases: MAC → assigned address.
    leases_v4: HashMap<Mac, Ipv4Addr>,
    next_v4_host: u8,
    /// ARP/forwarding table for IPv4.
    arp_table: HashMap<Ipv4Addr, Mac>,
    /// IPv6 neighbor table (the port scanner's target list).
    neighbors_v6: HashMap<Ipv6Addr, Mac>,
    /// Stateful DHCPv6 assignments: DUID → address.
    leases_v6: HashMap<Vec<u8>, Ipv6Addr>,
    next_v6_host: u16,
    /// NAT44: (lan ip, lan port, proto) → wan port, plus the reverse.
    nat_out: HashMap<(Ipv4Addr, u16, u8), u16>,
    nat_in: HashMap<(u16, u8), (Ipv4Addr, u16)>,
    next_nat_port: u16,
    /// Stateful v6 firewall table: flows the LAN initiated, keyed
    /// (lan addr, remote addr, proto, lan port, remote port). Entries
    /// never expire — simulated campaigns are far shorter than any real
    /// conntrack timeout.
    v6_flows: HashSet<(Ipv6Addr, Ipv6Addr, u8, u16, u16)>,
    /// Fault schedule (RA suppression, DHCPv6 silence windows).
    faults: FaultPlan,
    /// Frames the router dropped (v4 without NAT state, unroutable v6...).
    pub dropped: u64,
    /// Inbound v6 packets rejected by the WAN firewall policy.
    pub wan_v6_filtered: u64,
}

impl Router {
    /// A router running the given service set.
    pub fn new(config: RouterConfig) -> Router {
        Router {
            config,
            leases_v4: HashMap::new(),
            next_v4_host: addrs::DHCP4_POOL_START,
            arp_table: HashMap::new(),
            neighbors_v6: HashMap::new(),
            leases_v6: HashMap::new(),
            next_v6_host: addrs::DHCP6_POOL_START,
            nat_out: HashMap::new(),
            nat_in: HashMap::new(),
            next_nat_port: 20_000,
            v6_flows: HashSet::new(),
            faults: FaultPlan::new(),
            dropped: 0,
            wan_v6_filtered: 0,
        }
    }

    /// The active configuration.
    pub fn config(&self) -> RouterConfig {
        self.config
    }

    /// Switch the WAN-side v6 firewall policy from now on. Flows the
    /// LAN opened so far stay in the stateful table.
    pub fn set_wan_v6_firewall(&mut self, policy: FirewallPolicy) {
        self.config.wan_v6_firewall = policy;
    }

    /// Install the fault schedule ([`SimulationBuilder::faults`] calls
    /// this for every layer).
    ///
    /// [`SimulationBuilder::faults`]: crate::engine::SimulationBuilder::faults
    pub fn set_faults(&mut self, faults: FaultPlan) {
        self.faults = faults;
    }

    /// The IPv6 neighbor table, sorted for determinism — what the paper
    /// reads off the router to enumerate scan targets (§4.3).
    pub fn neighbor_table_v6(&self) -> Vec<(Ipv6Addr, Mac)> {
        let mut v: Vec<_> = self.neighbors_v6.iter().map(|(a, m)| (*a, *m)).collect();
        v.sort();
        v
    }

    /// The DHCPv4 lease table.
    pub fn leases_v4(&self) -> Vec<(Mac, Ipv4Addr)> {
        let mut v: Vec<_> = self.leases_v4.iter().map(|(m, a)| (*m, *a)).collect();
        v.sort();
        v
    }

    /// Power-on: start the periodic RA beacon.
    pub fn on_start(&mut self, _now: SimTime, fx: &mut Effects) {
        if self.config.ipv6 {
            fx.set_timer(SimTime::from_millis(800), TOKEN_PERIODIC_RA);
        }
    }

    /// Timer dispatch.
    pub fn on_timer(&mut self, now: SimTime, token: u64, fx: &mut Effects) {
        if token == TOKEN_PERIODIC_RA && self.config.ipv6 {
            // The beacon keeps ticking through a suppression window so
            // RAs resume on schedule once the window closes.
            if !self.faults.ra_suppressed(now) {
                fx.send_frame(self.build_ra(None));
            }
            fx.set_timer(RA_PERIOD, TOKEN_PERIODIC_RA);
        }
    }

    /// A LAN frame addressed to (or multicast past) the router: plain
    /// bytes, or bytes ending in a run. Every header the router reads
    /// lies before the run; NAT44 and the 6in4 tunnel carry the run,
    /// cut to the packet's length fields, onto the WAN unspelled. The
    /// messages the router answers itself (ARP, DHCP, NDP) are read
    /// from the bytes before the run; no host ends one in a run.
    pub fn on_frame<'a>(&mut self, now: SimTime, frame: impl Into<Queued<'a>>, fx: &mut Effects) {
        let Queued { head: frame, run } = frame.into();
        let Ok(eth) = v6brick_net::ethernet::Frame::new_checked(frame) else {
            return;
        };
        let src_mac = eth.src();
        match eth.ethertype() {
            EtherType::Arp => self.handle_arp(src_mac, eth.payload(), fx),
            EtherType::Ipv4 => self.handle_ipv4(src_mac, eth.payload(), run, fx),
            EtherType::Ipv6 => self.handle_ipv6(now, src_mac, eth.payload(), run, fx),
            EtherType::Other(_) => {}
        }
    }

    /// An IPv4 packet arriving from the WAN (internet side): plain bytes,
    /// or bytes ending in a run. Every header the router reads lies
    /// before the run; the run, cut to the packet's length fields, ends
    /// the frame forwarded onto the LAN, still unspelled.
    pub fn on_wan_packet<'a>(
        &mut self,
        _now: SimTime,
        packet: impl Into<Queued<'a>>,
        fx: &mut Effects,
    ) {
        let Queued { head: packet, run } = packet.into();
        let Ok(p) = ipv4::Packet::new_checked_with_tail(packet, run.len()) else {
            return;
        };
        let repr = ipv4::Repr::parse(&p);
        let (l3, run) = (
            p.payload(),
            run.cut(packet.len(), usize::from(p.total_len())),
        );
        // 6in4 tunnel ingress: decapsulate and route onto the LAN.
        if repr.protocol == Protocol::Ipv6 && repr.src == addrs::TUNNEL_REMOTE_IPV4 {
            if !self.config.ipv6 {
                self.dropped += 1;
                return;
            }
            let Ok(inner) = ipv6::Packet::new_checked_with_tail(l3, run.len()) else {
                return;
            };
            let inner_repr = ipv6::Repr::parse(&inner);
            let l4_run = run.cut(l3.len(), ipv6::HEADER_LEN + inner_repr.payload_len);
            if !self.wan_v6_permitted(&inner_repr, inner.payload(), l4_run) {
                self.wan_v6_filtered += 1;
                return;
            }
            let dst = inner.dst();
            // Routed (no NAT66): deliver to the on-link neighbor if known.
            if let Some(&mac) = self.neighbors_v6.get(&dst) {
                let frame = eth_frame(addrs::ROUTER_MAC, mac, EtherType::Ipv6, l3);
                fx.send_frame_with_run(frame, run);
            } else {
                self.dropped += 1;
            }
            return;
        }
        if !self.config.ipv4 {
            self.dropped += 1;
            return;
        }
        // Reverse NAT.
        let (dst_port, proto) = match extract_ports_v4(&repr, l3, run) {
            Some((_, dst_port, proto)) => (dst_port, proto),
            None => {
                self.dropped += 1;
                return;
            }
        };
        let Some(&(lan_ip, lan_port)) = self.nat_in.get(&(dst_port, proto)) else {
            // Unsolicited inbound IPv4: the NAT "firewall" effect.
            self.dropped += 1;
            return;
        };
        let Some(&mac) = self.arp_table.get(&lan_ip) else {
            self.dropped += 1;
            return;
        };
        let (mut frame, run) =
            rewrite_v4(wire::ETH, &repr, l3, run, None, Some((lan_ip, lan_port)));
        wire::emit_eth(&mut frame, addrs::ROUTER_MAC, mac, EtherType::Ipv4);
        fx.send_frame_with_run(frame, run);
    }

    fn handle_arp(&mut self, src_mac: Mac, payload: &[u8], fx: &mut Effects) {
        if !self.config.ipv4 {
            return;
        }
        let Ok(req) = arp::Repr::parse_bytes(payload) else {
            return;
        };
        self.arp_table.insert(req.sender_ip, req.sender_mac);
        if req.operation == arp::Operation::Request && req.target_ip == addrs::ROUTER_IPV4 {
            let reply = req.reply_to(addrs::ROUTER_MAC);
            fx.send_frame(eth_frame(
                addrs::ROUTER_MAC,
                src_mac,
                EtherType::Arp,
                &reply.build(),
            ));
        }
    }

    /// An IPv4 packet from the LAN, `payload` followed by `run`.
    fn handle_ipv4(&mut self, src_mac: Mac, payload: &[u8], run: Run, fx: &mut Effects) {
        if !self.config.ipv4 {
            return;
        }
        let Ok(p) = ipv4::Packet::new_checked_with_tail(payload, run.len()) else {
            return;
        };
        let repr = ipv4::Repr::parse(&p);
        let (l4, run) = (
            p.payload(),
            run.cut(payload.len(), usize::from(p.total_len())),
        );
        if repr.src != Ipv4Addr::UNSPECIFIED {
            self.arp_table.insert(repr.src, src_mac);
        }

        // DHCPv4 service.
        if repr.protocol == Protocol::Udp {
            if let Ok(u) = udp::Packet::new_checked_with_tail(l4, run.len()) {
                if u.dst_port() == 67 {
                    self.handle_dhcpv4(src_mac, u.payload(), fx);
                    return;
                }
            }
        }

        // Local delivery to the router itself: nothing else runs on it.
        if repr.dst == addrs::ROUTER_IPV4 {
            return;
        }

        // LAN-to-LAN is switched, not routed — ignore.
        let lan = ipv4::Cidr::new(addrs::ROUTER_IPV4, 24);
        if lan.contains(repr.dst) {
            return;
        }

        // Outbound: NAT and forward to the WAN.
        let Some((src_port, _dst_port, proto)) = extract_ports_v4(&repr, l4, run) else {
            self.dropped += 1;
            return;
        };
        let key = (repr.src, src_port, proto);
        let wan_port = match self.nat_out.get(&key) {
            Some(&p) => p,
            None => {
                let p = self.next_nat_port;
                self.next_nat_port = self.next_nat_port.wrapping_add(1).max(20_000);
                self.nat_out.insert(key, p);
                self.nat_in.insert((p, proto), (repr.src, src_port));
                p
            }
        };
        let (packet, run) = rewrite_v4(
            0,
            &repr,
            l4,
            run,
            Some((addrs::ROUTER_WAN_IPV4, wan_port)),
            None,
        );
        fx.send_wan(packet, run);
    }

    fn handle_dhcpv4(&mut self, src_mac: Mac, payload: &[u8], fx: &mut Effects) {
        let Ok(msg) = dhcpv4::Repr::parse_bytes(payload) else {
            return;
        };
        let reply_type = match msg.message_type {
            dhcpv4::MessageType::Discover => dhcpv4::MessageType::Offer,
            dhcpv4::MessageType::Request => dhcpv4::MessageType::Ack,
            _ => return,
        };
        let ip = *self.leases_v4.entry(msg.client_mac).or_insert_with(|| {
            let ip = Ipv4Addr::new(192, 168, 1, self.next_v4_host);
            self.next_v4_host = self.next_v4_host.wrapping_add(1);
            ip
        });
        self.arp_table.insert(ip, msg.client_mac);
        let mut reply = dhcpv4::Repr::client(reply_type, msg.xid, msg.client_mac);
        reply.your_addr = ip;
        reply.server_id = Some(addrs::ROUTER_IPV4);
        reply.lease_time = Some(86_400);
        reply.subnet_mask = Some(Ipv4Addr::new(255, 255, 255, 0));
        reply.router = Some(addrs::ROUTER_IPV4);
        reply.dns_servers = vec![addrs::DNS4_PRIMARY, addrs::DNS4_SECONDARY];
        fx.send_frame(wire::udp4_frame(
            addrs::ROUTER_MAC,
            src_mac,
            addrs::ROUTER_IPV4,
            ip,
            67,
            68,
            reply.build(),
        ));
    }

    /// An IPv6 packet from the LAN, `payload` followed by `run`.
    fn handle_ipv6(
        &mut self,
        now: SimTime,
        src_mac: Mac,
        payload: &[u8],
        run: Run,
        fx: &mut Effects,
    ) {
        let Ok(p) = ipv6::Packet::new_checked_with_tail(payload, run.len()) else {
            return;
        };
        let repr = ipv6::Repr::parse(&p);
        let l4_run = run.cut(payload.len(), ipv6::HEADER_LEN + repr.payload_len);
        // Learn neighbors from any unicast source (the kernel does this
        // from NDP; we also learn from data traffic like `ip -6 neigh`
        // effectively does on a busy LAN).
        if !repr.src.is_unspecified() && !repr.src.is_multicast() {
            self.neighbors_v6.insert(repr.src, src_mac);
        }
        if !self.config.ipv6 {
            return;
        }

        match repr.next_header {
            Protocol::Icmpv6 => {
                if let Ok(msg) = icmpv6::Repr::parse_bytes(repr.src, repr.dst, p.payload()) {
                    // ICMPv6 *responses* to an off-link destination (echo
                    // replies and unreachables answering Internet-side
                    // probes) are routed out the tunnel like data. NDP,
                    // locally-destined ICMPv6, and device-originated
                    // off-link probes stay with the control plane — the
                    // testbed CPE absorbed those, and the connectivity
                    // experiments' captures pin that behavior.
                    let off_link = repr.dst.is_global_unicast()
                        && !ipv6::Cidr::new(addrs::LAN_PREFIX, 64).contains(repr.dst);
                    if off_link
                        && matches!(
                            msg,
                            icmpv6::Repr::EchoReply { .. } | icmpv6::Repr::DstUnreachable { .. }
                        )
                    {
                        self.route_v6(&repr, payload, run, fx);
                    } else {
                        self.handle_icmpv6(now, src_mac, &repr, &msg, fx);
                    }
                }
            }
            Protocol::Udp => {
                if let Ok(u) = udp::Packet::new_checked_with_tail(p.payload(), l4_run.len()) {
                    if u.dst_port() == 547 {
                        self.handle_dhcpv6(now, src_mac, repr.src, u.payload(), fx);
                        return;
                    }
                }
                self.route_v6(&repr, payload, run, fx);
            }
            _ => self.route_v6(&repr, payload, run, fx),
        }
    }

    fn handle_icmpv6(
        &mut self,
        now: SimTime,
        src_mac: Mac,
        ip: &ipv6::Repr,
        msg: &icmpv6::Repr,
        fx: &mut Effects,
    ) {
        match msg {
            // Solicited RA, unicast to the soliciting node — unless a
            // suppression window is active.
            icmpv6::Repr::Ndp(Ndp::RouterSolicit { .. }) if !self.faults.ra_suppressed(now) => {
                fx.send_frame(self.build_ra(Some((src_mac, ip.src))));
            }
            icmpv6::Repr::Ndp(Ndp::NeighborSolicit { target, .. }) => {
                // Record SLLAO if present.
                for o in msg.as_ndp().unwrap().options() {
                    if let NdpOption::SourceLinkLayerAddr(m) = o {
                        if !ip.src.is_unspecified() {
                            self.neighbors_v6.insert(ip.src, *m);
                        }
                    }
                }
                if *target == addrs::ROUTER_LLA || *target == addrs::ROUTER_GUA {
                    // DAD probes come from ::; real resolution gets an NA.
                    if !ip.src.is_unspecified() {
                        let na = icmpv6::Repr::Ndp(Ndp::NeighborAdvert {
                            router: true,
                            solicited: true,
                            override_flag: true,
                            target: *target,
                            options: vec![NdpOption::TargetLinkLayerAddr(addrs::ROUTER_MAC)],
                        });
                        fx.send_frame(wire::icmpv6_frame(
                            addrs::ROUTER_MAC,
                            src_mac,
                            addrs::ROUTER_LLA,
                            ip.src,
                            &na,
                        ));
                    }
                }
            }
            icmpv6::Repr::Ndp(Ndp::NeighborAdvert {
                target, options, ..
            }) => {
                for o in options {
                    if let NdpOption::TargetLinkLayerAddr(m) = o {
                        self.neighbors_v6.insert(*target, *m);
                    }
                }
            }
            _ => {}
        }
    }

    fn handle_dhcpv6(
        &mut self,
        now: SimTime,
        src_mac: Mac,
        src: Ipv6Addr,
        payload: &[u8],
        fx: &mut Effects,
    ) {
        if self.faults.dhcpv6_silent(now) {
            // The server drops the request on the floor; clients retry
            // into the void until the window closes.
            return;
        }
        let Ok(msg) = dhcpv6::Repr::parse_bytes(payload) else {
            return;
        };
        let reply = match msg.message_type {
            dhcpv6::MessageType::InformationRequest
                if self.config.stateless_dhcpv6 || self.config.stateful_dhcpv6 =>
            {
                let mut r = dhcpv6::Repr::new(dhcpv6::MessageType::Reply, msg.transaction_id);
                r.client_id = msg.client_id.clone();
                r.server_id = Some(SERVER_DUID.to_vec());
                if msg.oro.contains(&OPTION_DNS_SERVERS) || msg.oro.is_empty() {
                    r.dns_servers = vec![addrs::DNS6_PRIMARY, addrs::DNS6_SECONDARY];
                }
                Some(r)
            }
            dhcpv6::MessageType::Solicit if self.config.stateful_dhcpv6 => {
                let addr = self.lease_v6_for(msg.client_id.as_deref());
                let mut r = dhcpv6::Repr::new(dhcpv6::MessageType::Advertise, msg.transaction_id);
                r.client_id = msg.client_id.clone();
                r.server_id = Some(SERVER_DUID.to_vec());
                r.ia_na = Some(ia_with(
                    addr,
                    msg.ia_na.as_ref().map(|i| i.iaid).unwrap_or(1),
                ));
                r.dns_servers = vec![addrs::DNS6_PRIMARY, addrs::DNS6_SECONDARY];
                Some(r)
            }
            dhcpv6::MessageType::Request if self.config.stateful_dhcpv6 => {
                let addr = self.lease_v6_for(msg.client_id.as_deref());
                let mut r = dhcpv6::Repr::new(dhcpv6::MessageType::Reply, msg.transaction_id);
                r.client_id = msg.client_id.clone();
                r.server_id = Some(SERVER_DUID.to_vec());
                r.ia_na = Some(ia_with(
                    addr,
                    msg.ia_na.as_ref().map(|i| i.iaid).unwrap_or(1),
                ));
                r.dns_servers = vec![addrs::DNS6_PRIMARY, addrs::DNS6_SECONDARY];
                Some(r)
            }
            _ => None,
        };
        if let Some(reply) = reply {
            fx.send_frame(wire::udp6_frame(
                addrs::ROUTER_MAC,
                src_mac,
                addrs::ROUTER_LLA,
                src,
                547,
                546,
                reply.build(),
            ));
        }
    }

    fn lease_v6_for(&mut self, duid: Option<&[u8]>) -> Ipv6Addr {
        let key = duid.unwrap_or(&[]).to_vec();
        if let Some(&a) = self.leases_v6.get(&key) {
            return a;
        }
        let mut o = addrs::LAN_PREFIX.octets();
        o[14..16].copy_from_slice(&self.next_v6_host.to_be_bytes());
        self.next_v6_host = self.next_v6_host.wrapping_add(1);
        let a = Ipv6Addr::from(o);
        self.leases_v6.insert(key, a);
        a
    }

    /// Route a unicast IPv6 packet, `full_packet` followed by `run`:
    /// on-link stays switched; off-link GUAs go through the tunnel, run
    /// and all. ULAs and LLAs are never routed off-link.
    fn route_v6(&mut self, repr: &ipv6::Repr, full_packet: &[u8], run: Run, fx: &mut Effects) {
        if repr.dst.is_multicast() || repr.dst == addrs::ROUTER_LLA || repr.dst == addrs::ROUTER_GUA
        {
            return;
        }
        let lan = ipv6::Cidr::new(addrs::LAN_PREFIX, 64);
        if lan.contains(repr.dst) || repr.dst.is_link_local() || repr.dst.is_unique_local() {
            // On-link (or non-routable scope): switched, not routed.
            return;
        }
        if !repr.src.is_global_unicast() {
            // No NAT66: packets sourced from LLA/ULA cannot cross the
            // tunnel. (This is why ULA-only Matter devices show "local
            // transmission" but no Internet traffic — §5.2.3.)
            self.dropped += 1;
            return;
        }
        // An outbound flow opens a stateful pinhole for its return
        // traffic, whatever the firewall policy.
        if let Ok(p6) = ipv6::Packet::new_checked_with_tail(full_packet, run.len()) {
            let l4_run = run.cut(full_packet.len(), ipv6::HEADER_LEN + repr.payload_len);
            if let Some((proto, src_port, dst_port)) = flow_v6(repr, p6.payload(), l4_run) {
                self.v6_flows
                    .insert((repr.src, repr.dst, proto, src_port, dst_port));
            }
        }
        let mut encap = alloc(ipv4::HEADER_LEN, full_packet);
        ipv4::Repr {
            src: addrs::ROUTER_WAN_IPV4,
            dst: addrs::TUNNEL_REMOTE_IPV4,
            protocol: Protocol::Ipv6,
            ttl: 64,
            payload_len: full_packet.len() + run.len(),
        }
        .emit(&mut encap);
        fx.send_wan(encap, run);
    }

    /// Does the WAN firewall policy let this decapsulated inbound IPv6
    /// packet, whose L4 bytes are `l4` followed by `run`, onto the LAN?
    fn wan_v6_permitted(&self, inner: &ipv6::Repr, l4: &[u8], run: Run) -> bool {
        let policy = self.config.wan_v6_firewall;
        if policy == FirewallPolicy::Open {
            return true;
        }
        let Some((proto, src_port, dst_port)) = flow_v6(inner, l4, run) else {
            // Unparseable / exotic protocol: stateful gateways drop it.
            return false;
        };
        // Return traffic of a LAN-initiated flow (key reversed).
        if self
            .v6_flows
            .contains(&(inner.dst, inner.src, proto, dst_port, src_port))
        {
            return true;
        }
        if policy == FirewallPolicy::PinholedServices {
            return match proto {
                6 => PINHOLED_TCP.contains(&dst_port),
                17 => PINHOLED_UDP.contains(&dst_port),
                // RFC 4890 §4.3.1: echo must not be dropped.
                58 => true,
                _ => false,
            };
        }
        false
    }

    /// Construct a Router Advertisement frame (multicast, or unicast to a
    /// soliciting node).
    fn build_ra(&self, unicast_to: Option<(Mac, Ipv6Addr)>) -> Vec<u8> {
        let mut options = vec![
            NdpOption::SourceLinkLayerAddr(addrs::ROUTER_MAC),
            NdpOption::Mtu(1480), // 6in4 tunnel MTU
            NdpOption::PrefixInfo {
                prefix_len: 64,
                on_link: true,
                autonomous: !self.config.suppress_slaac,
                valid_lifetime: 86_400,
                preferred_lifetime: 14_400,
                prefix: addrs::LAN_PREFIX,
            },
        ];
        if self.config.rdnss {
            options.push(NdpOption::Rdnss {
                lifetime: 1800,
                servers: vec![addrs::DNS6_PRIMARY, addrs::DNS6_SECONDARY],
            });
        }
        let ra = icmpv6::Repr::Ndp(Ndp::RouterAdvert {
            hop_limit: 64,
            managed: self.config.stateful_dhcpv6,
            other_config: self.config.stateless_dhcpv6 || self.config.stateful_dhcpv6,
            router_lifetime: 1800,
            reachable_time: 0,
            retrans_time: 0,
            options,
        });
        let (dst_mac, dst_ip) = match unicast_to {
            Some((mac, ip)) if !ip.is_unspecified() => (mac, ip),
            _ => (Mac::for_ipv6_multicast(mcast::ALL_NODES), mcast::ALL_NODES),
        };
        wire::icmpv6_frame(addrs::ROUTER_MAC, dst_mac, addrs::ROUTER_LLA, dst_ip, &ra)
    }
}

const SERVER_DUID: &[u8] = &[0, 1, 0, 1, 0x52, 0x54, 0, 0, 0, 1];

fn ia_with(addr: Ipv6Addr, iaid: u32) -> dhcpv6::IaNa {
    dhcpv6::IaNa {
        iaid,
        t1: 43_200,
        t2: 69_120,
        addresses: vec![dhcpv6::IaAddr {
            addr,
            preferred: 86_400,
            valid: 172_800,
        }],
    }
}

/// (src_port, dst_port) of the UDP or TCP segment `l4` followed by
/// `run`.
fn transport_ports(protocol: Protocol, l4: &[u8], run: Run) -> Option<(u16, u16)> {
    match protocol {
        Protocol::Udp => {
            let u = udp::Packet::new_checked_with_tail(l4, run.len()).ok()?;
            Some((u.src_port(), u.dst_port()))
        }
        Protocol::Tcp => {
            let t = tcp::Packet::new_checked(l4).ok()?;
            Some((t.src_port(), t.dst_port()))
        }
        _ => None,
    }
}

/// (proto byte, src_port, dst_port) flow tuple of a v6 payload. ICMPv6
/// flows are keyed on the address pair alone (ports 0/0), which pairs an
/// outbound echo request with its inbound reply.
fn flow_v6(repr: &ipv6::Repr, l4: &[u8], run: Run) -> Option<(u8, u16, u16)> {
    match repr.next_header {
        Protocol::Icmpv6 => Some((58, 0, 0)),
        p => transport_ports(p, l4, run).map(|(s, d)| (p.into(), s, d)),
    }
}

/// (src_port, dst_port, proto byte) of a v4 payload, if TCP/UDP.
fn extract_ports_v4(repr: &ipv4::Repr, l4: &[u8], run: Run) -> Option<(u16, u16, u8)> {
    transport_ports(repr.protocol, l4, run).map(|(s, d)| (s, d, repr.protocol.into()))
}

/// Rewrite an IPv4 packet for NAT, changing its source (outbound) or
/// destination (inbound) address and port, into a fresh packet that
/// starts `prefix` bytes into its buffer (room for a link header). The
/// packet's L4 bytes are `l4` followed by `run`, and so are the
/// rewritten packet's: the run is returned, cut where the rewrite cuts
/// the payload, and never spelled out.
///
/// The rewrite normalises: a fresh 20-byte IPv4 header with the TTL
/// decremented, a fresh 20-byte TCP header (options dropped, flags
/// masked to 0x1f, urgent pointer zero), a UDP payload cut at its length
/// field, and every checksum recomputed in full. An RFC 1624 incremental
/// update would instead carry a corrupted frame's bad checksum onto the
/// WAN.
fn rewrite_v4(
    prefix: usize,
    repr: &ipv4::Repr,
    l4: &[u8],
    run: Run,
    new_src: Option<(Ipv4Addr, u16)>,
    new_dst: Option<(Ipv4Addr, u16)>,
) -> (Vec<u8>, Run) {
    let src = new_src.map(|(ip, _)| ip).unwrap_or(repr.src);
    let dst = new_dst.map(|(ip, _)| ip).unwrap_or(repr.dst);
    let ph = PseudoHeader::V4 { src, dst };
    let at = prefix + ipv4::HEADER_LEN;
    let (mut pkt, run) = match repr.protocol {
        Protocol::Udp => {
            let u = udp::Packet::new_checked_with_tail(l4, run.len()).expect("caller verified");
            let run = run.cut(l4.len(), usize::from(u.len()));
            let mut pkt = alloc(at + udp::HEADER_LEN, u.payload());
            udp::Repr {
                src_port: new_src.map(|(_, p)| p).unwrap_or_else(|| u.src_port()),
                dst_port: new_dst.map(|(_, p)| p).unwrap_or_else(|| u.dst_port()),
                payload: Vec::new(),
            }
            .emit(&mut pkt[at..], run, ph);
            (pkt, run)
        }
        Protocol::Tcp => {
            let t = tcp::Packet::new_checked(l4).expect("caller verified");
            let mut pkt = alloc(at + tcp::HEADER_LEN, t.payload());
            tcp::Repr {
                src_port: new_src.map(|(_, p)| p).unwrap_or_else(|| t.src_port()),
                dst_port: new_dst.map(|(_, p)| p).unwrap_or_else(|| t.dst_port()),
                seq: t.seq(),
                ack: t.ack(),
                flags: t.flags(),
                window: t.window(),
                payload: Vec::new(),
            }
            .emit(&mut pkt[at..], run, ph);
            (pkt, run)
        }
        _ => (alloc(at, l4), run),
    };
    ipv4::Repr {
        src,
        dst,
        protocol: repr.protocol,
        ttl: repr.ttl.saturating_sub(1),
        payload_len: pkt.len() - at + run.len(),
    }
    .emit(&mut pkt[prefix..]);
    (pkt, run)
}

impl RouterConfig {
    /// IPv4-only (Table 2 row 1).
    pub fn ipv4_only() -> RouterConfig {
        RouterConfig {
            ipv4: true,
            ipv6: false,
            rdnss: false,
            stateless_dhcpv6: false,
            stateful_dhcpv6: false,
            suppress_slaac: false,
            wan_v6_firewall: FirewallPolicy::Open,
        }
    }

    /// IPv6-only baseline (row 2): SLAAC + RDNSS + stateless DHCPv6.
    pub fn ipv6_only() -> RouterConfig {
        RouterConfig {
            ipv4: false,
            ipv6: true,
            rdnss: true,
            stateless_dhcpv6: true,
            stateful_dhcpv6: false,
            suppress_slaac: false,
            wan_v6_firewall: FirewallPolicy::Open,
        }
    }

    /// The same services behind a different WAN-side v6 firewall policy.
    pub fn with_firewall(mut self, policy: FirewallPolicy) -> RouterConfig {
        self.wan_v6_firewall = policy;
        self
    }

    /// IPv6-only, RDNSS-only variation (row 3).
    pub fn ipv6_only_rdnss_only() -> RouterConfig {
        RouterConfig {
            stateless_dhcpv6: false,
            ..RouterConfig::ipv6_only()
        }
    }

    /// IPv6-only, stateful variation (row 4).
    pub fn ipv6_only_stateful() -> RouterConfig {
        RouterConfig {
            stateful_dhcpv6: true,
            ..RouterConfig::ipv6_only()
        }
    }

    /// Dual-stack baseline (row 5).
    pub fn dual_stack() -> RouterConfig {
        RouterConfig {
            ipv4: true,
            ..RouterConfig::ipv6_only()
        }
    }

    /// Dual-stack, stateful variation (row 6).
    pub fn dual_stack_stateful() -> RouterConfig {
        RouterConfig {
            ipv4: true,
            stateful_dhcpv6: true,
            ..RouterConfig::ipv6_only()
        }
    }

    /// Enterprise-style IPv6-only: stateful DHCPv6 is the *only* path to
    /// a global address (the RA's prefix carries `A=0`). The paper's §7
    /// flags this configuration as unexplored future work; v6brick
    /// implements it as an extension experiment.
    pub fn ipv6_only_enterprise() -> RouterConfig {
        RouterConfig {
            stateful_dhcpv6: true,
            suppress_slaac: true,
            ..RouterConfig::ipv6_only()
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use rand::rngs::StdRng;
    use rand::SeedableRng;

    fn fx_rng() -> StdRng {
        StdRng::seed_from_u64(1)
    }

    fn client_mac() -> Mac {
        Mac::new(2, 0, 0, 0, 0, 0x42)
    }

    #[test]
    fn table2_configs() {
        assert!(!RouterConfig::ipv4_only().ipv6);
        assert!(RouterConfig::ipv6_only().stateless_dhcpv6);
        assert!(!RouterConfig::ipv6_only().stateful_dhcpv6);
        assert!(!RouterConfig::ipv6_only_rdnss_only().stateless_dhcpv6);
        assert!(RouterConfig::ipv6_only_rdnss_only().rdnss);
        assert!(RouterConfig::ipv6_only_stateful().stateful_dhcpv6);
        assert!(RouterConfig::dual_stack().ipv4);
        assert!(RouterConfig::dual_stack_stateful().stateful_dhcpv6);
    }

    #[test]
    fn dhcpv4_discover_gets_offer_with_lease() {
        let mut rng = fx_rng();
        let mut fx = Effects::new(&mut rng);
        let mut router = Router::new(RouterConfig::ipv4_only());
        let discover = dhcpv4::Repr::client(dhcpv4::MessageType::Discover, 7, client_mac());
        let frame = wire::udp4_frame(
            client_mac(),
            Mac::BROADCAST,
            Ipv4Addr::UNSPECIFIED,
            Ipv4Addr::BROADCAST,
            68,
            67,
            discover.build(),
        );
        router.on_frame(SimTime::ZERO, &frame, &mut fx);
        assert_eq!(fx.frames.len(), 1);
        let reply = v6brick_net::parse::ParsedPacket::parse(&fx.frames[0]).unwrap();
        match reply.l4 {
            v6brick_net::parse::L4::Udp { payload, .. } => {
                let offer = dhcpv4::Repr::parse_bytes(payload).unwrap();
                assert_eq!(offer.message_type, dhcpv4::MessageType::Offer);
                assert_eq!(offer.your_addr, Ipv4Addr::new(192, 168, 1, 100));
                assert_eq!(
                    offer.dns_servers,
                    vec![addrs::DNS4_PRIMARY, addrs::DNS4_SECONDARY]
                );
            }
            other => panic!("expected udp, got {other:?}"),
        }
        assert_eq!(router.leases_v4().len(), 1);
    }

    #[test]
    fn rs_triggers_unicast_ra_with_rdnss() {
        let mut rng = fx_rng();
        let mut fx = Effects::new(&mut rng);
        let mut router = Router::new(RouterConfig::ipv6_only());
        let lla: Ipv6Addr = "fe80::42".parse().unwrap();
        router.on_frame(SimTime::ZERO, &rs_frame(lla), &mut fx);
        assert_eq!(fx.frames.len(), 1);
        let p = v6brick_net::parse::ParsedPacket::parse(&fx.frames[0]).unwrap();
        let ndp = match &p.l4 {
            v6brick_net::parse::L4::Icmpv6(i) => i.as_ndp().unwrap().clone(),
            other => panic!("expected icmpv6, got {other:?}"),
        };
        match ndp {
            Ndp::RouterAdvert {
                managed,
                other_config,
                options,
                ..
            } => {
                assert!(!managed);
                assert!(other_config); // stateless DHCPv6 advertised
                assert!(options.iter().any(|o| matches!(o, NdpOption::Rdnss { .. })));
                assert!(options.iter().any(|o| matches!(
                    o,
                    NdpOption::PrefixInfo {
                        autonomous: true,
                        ..
                    }
                )));
            }
            other => panic!("expected RA, got {other:?}"),
        }
        // Router learned the neighbor.
        assert_eq!(router.neighbor_table_v6(), vec![(lla, client_mac())]);
    }

    #[test]
    fn rdnss_only_config_omits_dhcpv6_but_keeps_rdnss() {
        let mut rng = fx_rng();
        let mut fx = Effects::new(&mut rng);
        let mut router = Router::new(RouterConfig::ipv6_only_rdnss_only());
        // Information-request must be ignored.
        let mut inf = dhcpv6::Repr::new(dhcpv6::MessageType::InformationRequest, 5);
        inf.oro = vec![OPTION_DNS_SERVERS];
        let frame = dhcpv6_frame(&inf);
        router.on_frame(SimTime::ZERO, &frame, &mut fx);
        assert!(fx.frames.is_empty());
    }

    #[test]
    fn stateful_dhcpv6_assigns_stable_address() {
        let mut rng = fx_rng();
        let mut router = Router::new(RouterConfig::ipv6_only_stateful());
        let duid = vec![0, 3, 0, 1, 2, 0, 0, 0, 0, 0x42];

        let run = |router: &mut Router, rng: &mut StdRng, mt: dhcpv6::MessageType| {
            let mut fx = Effects::new(rng);
            let mut m = dhcpv6::Repr::new(mt, 9);
            m.client_id = Some(duid.clone());
            m.ia_na = Some(dhcpv6::IaNa {
                iaid: 3,
                t1: 0,
                t2: 0,
                addresses: vec![],
            });
            router.on_frame(SimTime::ZERO, &dhcpv6_frame(&m), &mut fx);
            assert_eq!(fx.frames.len(), 1);
            let p = v6brick_net::parse::ParsedPacket::parse(&fx.frames[0]).unwrap();
            match &p.l4 {
                v6brick_net::parse::L4::Udp { payload, .. } => {
                    dhcpv6::Repr::parse_bytes(payload).unwrap()
                }
                other => panic!("expected udp, got {other:?}"),
            }
        };

        let adv = run(&mut router, &mut rng, dhcpv6::MessageType::Solicit);
        assert_eq!(adv.message_type, dhcpv6::MessageType::Advertise);
        let offered = adv.ia_na.as_ref().unwrap().addresses[0].addr;
        assert!(ipv6::Cidr::new(addrs::LAN_PREFIX, 64).contains(offered));

        let rep = run(&mut router, &mut rng, dhcpv6::MessageType::Request);
        assert_eq!(rep.message_type, dhcpv6::MessageType::Reply);
        assert_eq!(rep.ia_na.as_ref().unwrap().addresses[0].addr, offered);
        assert_eq!(rep.ia_na.as_ref().unwrap().iaid, 3);
    }

    #[test]
    fn nat_roundtrip_v4() {
        let mut rng = fx_rng();
        let mut router = Router::new(RouterConfig::dual_stack());
        let lan_ip = Ipv4Addr::new(192, 168, 1, 100);
        router.arp_table.insert(lan_ip, client_mac());

        // Outbound UDP to a remote host.
        let remote = Ipv4Addr::new(198, 18, 5, 5);
        let frame = wire::udp4_frame(
            client_mac(),
            addrs::ROUTER_MAC,
            lan_ip,
            remote,
            5000,
            443,
            b"out".to_vec(),
        );
        let mut fx = Effects::new(&mut rng);
        router.on_frame(SimTime::ZERO, &frame, &mut fx);
        assert_eq!(fx.wan.len(), 1);
        let out = ipv4::Packet::new_checked(&fx.wan[0][..]).unwrap();
        assert_eq!(out.src(), addrs::ROUTER_WAN_IPV4);
        let ou = udp::Packet::new_checked(out.payload()).unwrap();
        let wan_port = ou.src_port();
        assert!(wan_port >= 20_000);
        assert!(ou.verify_checksum_v4(out.src(), out.dst()));

        // Inbound reply through the mapping reaches the device.
        let reply = wan_udp(remote, 443, wan_port, b"in");
        let mut fx = Effects::new(&mut rng);
        router.on_wan_packet(SimTime::ZERO, &reply, &mut fx);
        assert_eq!(fx.frames.len(), 1);
        let p = v6brick_net::parse::ParsedPacket::parse(&fx.frames[0]).unwrap();
        assert_eq!(p.dst_ip().unwrap().to_string(), "192.168.1.100");
        assert_eq!(p.ports(), Some((443, 5000)));

        // Unsolicited inbound is firewalled.
        let stray = wan_udp(remote, 443, 31_337, b"x");
        let dropped_before = router.dropped;
        let mut fx = Effects::new(&mut rng);
        router.on_wan_packet(SimTime::ZERO, &stray, &mut fx);
        assert!(fx.frames.is_empty());
        assert_eq!(router.dropped, dropped_before + 1);
    }

    #[test]
    fn v6_routing_requires_gua_source() {
        let mut rng = fx_rng();
        let mut router = Router::new(RouterConfig::ipv6_only());
        let remote: Ipv6Addr = "2001:db8:ffff::1".parse().unwrap();

        let send = |router: &mut Router, rng: &mut StdRng, src: Ipv6Addr| {
            let frame = wire::udp6_frame(
                client_mac(),
                addrs::ROUTER_MAC,
                src,
                remote,
                5000,
                443,
                b"x".to_vec(),
            );
            let mut fx = Effects::new(rng);
            router.on_frame(SimTime::ZERO, &frame, &mut fx);
            fx.wan.len()
        };

        // GUA source: tunneled.
        let gua: Ipv6Addr = "2001:db8:10:1::100".parse().unwrap();
        assert_eq!(send(&mut router, &mut rng, gua), 1);
        // ULA source: dropped (no NAT66).
        let ula: Ipv6Addr = "fd12:3456::100".parse().unwrap();
        assert_eq!(send(&mut router, &mut rng, ula), 0);
        // LLA source: dropped.
        let lla: Ipv6Addr = "fe80::100".parse().unwrap();
        assert_eq!(send(&mut router, &mut rng, lla), 0);
    }

    fn rs_frame(lla: Ipv6Addr) -> Vec<u8> {
        let rs = icmpv6::Repr::Ndp(Ndp::RouterSolicit {
            options: vec![NdpOption::SourceLinkLayerAddr(client_mac())],
        });
        wire::icmpv6_frame(
            client_mac(),
            Mac::for_ipv6_multicast(mcast::ALL_ROUTERS),
            lla,
            mcast::ALL_ROUTERS,
            &rs,
        )
    }

    /// A DHCPv6 client message from fe80::42, multicast to the servers.
    /// (Hop limit 64 where a real client sends 1; the router ignores it.)
    fn dhcpv6_frame(m: &dhcpv6::Repr) -> Vec<u8> {
        wire::udp6_frame(
            client_mac(),
            Mac::for_ipv6_multicast(mcast::DHCPV6_SERVERS),
            "fe80::42".parse().unwrap(),
            mcast::DHCPV6_SERVERS,
            546,
            547,
            m.build(),
        )
    }

    /// The IP packet of a frame: what crosses the WAN link.
    fn ip_of(frame: Vec<u8>) -> Vec<u8> {
        frame[wire::ETH..].to_vec()
    }

    /// A UDP datagram from a remote host to the router's WAN address.
    fn wan_udp(remote: Ipv4Addr, src_port: u16, dst_port: u16, payload: &[u8]) -> Vec<u8> {
        let wan = addrs::ROUTER_WAN_IPV4;
        let m = addrs::ROUTER_MAC;
        ip_of(wire::udp4_frame(
            m,
            m,
            remote,
            wan,
            src_port,
            dst_port,
            payload.to_vec(),
        ))
    }

    #[test]
    fn ra_suppression_window_silences_solicited_and_periodic_ras() {
        use crate::faults::FaultPlan;
        let mut rng = fx_rng();
        let mut router = Router::new(RouterConfig::ipv6_only());
        router.set_faults(
            FaultPlan::new().ra_suppression(SimTime::from_secs(10), SimTime::from_secs(20)),
        );
        let lla: Ipv6Addr = "fe80::42".parse().unwrap();

        // Inside the window: no solicited RA, no periodic RA — but the
        // beacon timer is re-armed so RAs resume afterwards.
        let mut fx = Effects::new(&mut rng);
        router.on_frame(SimTime::from_secs(15), &rs_frame(lla), &mut fx);
        assert!(fx.frames.is_empty(), "solicited RA must be suppressed");
        let mut fx = Effects::new(&mut rng);
        router.on_timer(SimTime::from_secs(15), TOKEN_PERIODIC_RA, &mut fx);
        assert!(fx.frames.is_empty(), "periodic RA must be suppressed");
        assert_eq!(fx.timers.len(), 1, "beacon keeps ticking");

        // Outside the window: both paths answer again.
        let mut fx = Effects::new(&mut rng);
        router.on_frame(SimTime::from_secs(25), &rs_frame(lla), &mut fx);
        assert_eq!(fx.frames.len(), 1);
        let mut fx = Effects::new(&mut rng);
        router.on_timer(SimTime::from_secs(25), TOKEN_PERIODIC_RA, &mut fx);
        assert_eq!(fx.frames.len(), 1);
    }

    #[test]
    fn dhcpv6_silence_window_drops_requests() {
        use crate::faults::FaultPlan;
        let mut rng = fx_rng();
        let mut router = Router::new(RouterConfig::ipv6_only());
        router.set_faults(FaultPlan::new().dhcpv6_silence(SimTime::ZERO, SimTime::from_secs(60)));
        let mut inf = dhcpv6::Repr::new(dhcpv6::MessageType::InformationRequest, 5);
        inf.oro = vec![OPTION_DNS_SERVERS];
        let frame = dhcpv6_frame(&inf);
        let mut fx = Effects::new(&mut rng);
        router.on_frame(SimTime::from_secs(30), &frame, &mut fx);
        assert!(fx.frames.is_empty(), "server is silent inside the window");
        let mut fx = Effects::new(&mut rng);
        router.on_frame(SimTime::from_secs(61), &frame, &mut fx);
        assert_eq!(fx.frames.len(), 1, "server answers after the window");
    }

    /// 6in4-encapsulated inbound packet carrying `inner`.
    fn encap_v6(inner: &[u8]) -> Vec<u8> {
        ipv4::Repr {
            src: addrs::TUNNEL_REMOTE_IPV4,
            dst: addrs::ROUTER_WAN_IPV4,
            protocol: Protocol::Ipv6,
            ttl: 64,
            payload_len: inner.len(),
        }
        .build(inner)
    }

    fn inner_udp(src: Ipv6Addr, dst: Ipv6Addr, src_port: u16, dst_port: u16) -> Vec<u8> {
        let m = client_mac();
        ip_of(wire::udp6_frame(
            m,
            m,
            src,
            dst,
            src_port,
            dst_port,
            b"probe".to_vec(),
        ))
    }

    fn inner_tcp_syn(src: Ipv6Addr, dst: Ipv6Addr, src_port: u16, dst_port: u16) -> Vec<u8> {
        let syn = tcp::Repr::syn(src_port, dst_port, 7);
        ip_of(wire::tcp6_frame(client_mac(), client_mac(), src, dst, &syn))
    }

    #[test]
    fn default_deny_blocks_unsolicited_but_passes_return_traffic() {
        let mut rng = fx_rng();
        let mut router =
            Router::new(RouterConfig::ipv6_only().with_firewall(FirewallPolicy::DefaultDeny));
        let dev: Ipv6Addr = "2001:db8:10:1::100".parse().unwrap();
        let remote: Ipv6Addr = "2001:db8:ffff::1".parse().unwrap();
        router.neighbors_v6.insert(dev, client_mac());

        // Unsolicited inbound: filtered, counted.
        let mut fx = Effects::new(&mut rng);
        router.on_wan_packet(
            SimTime::ZERO,
            &encap_v6(&inner_udp(remote, dev, 443, 5000)),
            &mut fx,
        );
        assert!(fx.frames.is_empty());
        assert_eq!(router.wan_v6_filtered, 1);

        // The device opens an outbound flow...
        let out = inner_udp(dev, remote, 5000, 443);
        let frame = eth_frame(client_mac(), addrs::ROUTER_MAC, EtherType::Ipv6, &out);
        let mut fx = Effects::new(&mut rng);
        router.on_frame(SimTime::ZERO, &frame, &mut fx);
        assert_eq!(fx.wan.len(), 1);

        // ...and now the exact reverse flow crosses inward.
        let mut fx = Effects::new(&mut rng);
        router.on_wan_packet(
            SimTime::ZERO,
            &encap_v6(&inner_udp(remote, dev, 443, 5000)),
            &mut fx,
        );
        assert_eq!(fx.frames.len(), 1);
        assert_eq!(router.wan_v6_filtered, 1);

        // A different remote port is still unsolicited.
        let mut fx = Effects::new(&mut rng);
        router.on_wan_packet(
            SimTime::ZERO,
            &encap_v6(&inner_udp(remote, dev, 444, 5000)),
            &mut fx,
        );
        assert!(fx.frames.is_empty());
        assert_eq!(router.wan_v6_filtered, 2);
    }

    #[test]
    fn pinholed_passes_service_ports_and_echo_only() {
        let mut rng = fx_rng();
        let mut router =
            Router::new(RouterConfig::ipv6_only().with_firewall(FirewallPolicy::PinholedServices));
        let dev: Ipv6Addr = "2001:db8:10:1::100".parse().unwrap();
        let remote: Ipv6Addr = "2001:db8:ffff::1".parse().unwrap();
        router.neighbors_v6.insert(dev, client_mac());

        let deliver = |router: &mut Router, rng: &mut StdRng, inner: Vec<u8>| {
            let mut fx = Effects::new(rng);
            router.on_wan_packet(SimTime::ZERO, &encap_v6(&inner), &mut fx);
            fx.frames.len()
        };

        // TCP SYN to a pinholed port crosses; a high port does not.
        assert_eq!(
            deliver(
                &mut router,
                &mut rng,
                inner_tcp_syn(remote, dev, 40000, 443)
            ),
            1
        );
        assert_eq!(
            deliver(
                &mut router,
                &mut rng,
                inner_tcp_syn(remote, dev, 40000, 9999)
            ),
            0
        );
        // UDP likewise.
        assert_eq!(
            deliver(&mut router, &mut rng, inner_udp(remote, dev, 40000, 5353)),
            1
        );
        assert_eq!(
            deliver(&mut router, &mut rng, inner_udp(remote, dev, 40000, 1024)),
            0
        );
        // ICMPv6 echo is never dropped (RFC 4890).
        let echo = icmpv6::Repr::EchoRequest {
            ident: 1,
            seq: 1,
            payload: vec![],
        };
        let inner = ip_of(wire::icmpv6_frame(
            client_mac(),
            client_mac(),
            remote,
            dev,
            &echo,
        ));
        assert_eq!(deliver(&mut router, &mut rng, inner), 1);
        assert_eq!(router.wan_v6_filtered, 2);
    }

    #[test]
    fn tunnel_ingress_reaches_known_neighbor() {
        let mut rng = fx_rng();
        let mut router = Router::new(RouterConfig::ipv6_only());
        let dev: Ipv6Addr = "2001:db8:10:1::100".parse().unwrap();
        router.neighbors_v6.insert(dev, client_mac());
        let remote: Ipv6Addr = "2001:db8:ffff::1".parse().unwrap();
        let mut fx = Effects::new(&mut rng);
        router.on_wan_packet(
            SimTime::ZERO,
            &encap_v6(&inner_udp(remote, dev, 443, 5000)),
            &mut fx,
        );
        assert_eq!(fx.frames.len(), 1);
        let p = v6brick_net::parse::ParsedPacket::parse(&fx.frames[0]).unwrap();
        assert_eq!(p.eth.dst, client_mac());
        assert_eq!(p.dst_ip().unwrap().to_string(), dev.to_string());
    }
}
