//! The generic IoT device network stack.
//!
//! One state machine, driven entirely by the [`DeviceProfile`]: DHCPv4
//! client, NDP/SLAAC/DAD addressing (EUI-64 or privacy IIDs per profile),
//! stateless/stateful DHCPv6 clients, a stub DNS resolver over either
//! family, TLS-shaped TCP cloud sessions with SNI, NTP, mDNS/Matter local
//! chatter, listening services for the port scans, and the per-profile
//! quirks the paper documents (v4-gated IPv6, EUI-64 source selection,
//! address churn, hard-coded endpoints, ...).

use crate::profile::*;
use rand::Rng;
use std::any::Any;
use std::collections::BTreeMap;
use std::net::{IpAddr, Ipv4Addr, Ipv6Addr};
use std::sync::Arc;
use v6brick_net::dns::{Message, MessageView, Name, RecordType, Writer};
use v6brick_net::hash::{FxHashMap, FxHashSet};
use v6brick_net::ipv6::{mcast, Ipv6AddrExt};
use v6brick_net::ndp::{NdpOption, Repr as Ndp};
use v6brick_net::parse::{Net, ParsedPacket, L4};
use v6brick_net::{dhcpv4, dhcpv6, icmpv6, tcp, tls, Mac, Run};
use v6brick_sim::addrs as well_known;
use v6brick_sim::event::SimTime;
use v6brick_sim::host::{Effects, Host};
use v6brick_sim::internet::derive_addrs;
use v6brick_sim::wire;

const TOKEN_TICK: u64 = 1;
/// Per-tick interval during the boot phase.
const BOOT_TICK: SimTime = SimTime::from_secs(1);
/// Tick interval once settled.
const SETTLED_TICK: SimTime = SimTime::from_secs(5);
/// Ticks considered "boot phase".
const BOOT_TICKS: u32 = 40;

/// The NTP anycast service every device knows without DNS.
pub fn ntp_anycast() -> Name {
    Name::new("ntp.anycast.example").unwrap()
}

#[derive(Debug, Clone, Copy, PartialEq, Eq)]
enum Dhcp4State {
    Idle,
    DiscoverSent,
    RequestSent,
    Bound,
}

#[derive(Debug, Clone, Copy, PartialEq, Eq)]
enum Dhcp6State {
    Idle,
    SolicitSent,
    RequestSent,
    Done,
}

#[derive(Debug, Clone)]
struct PendingQuery {
    name: Name,
    rtype: RecordType,
}

/// Attempts made at one lookup of a name (record type and transport),
/// and the tick of the last one.
#[derive(Debug, Clone, Copy)]
struct Attempts {
    rtype: RecordType,
    over_v6: bool,
    count: u8,
    last: u32,
}

#[derive(Debug, Clone, Copy, PartialEq, Eq)]
enum ConnState {
    SynSent,
    Established,
}

#[derive(Debug, Clone)]
struct Conn {
    remote: IpAddr,
    remote_port: u16,
    domain: Name,
    state: ConnState,
    seq: u32,
    ack: u32,
    src6: Option<Ipv6Addr>,
    got_response: bool,
    opened_tick: u32,
    /// Tick of the last segment we sent on this connection.
    last_tx_tick: u32,
    /// Tick of the last segment the peer sent us.
    last_rx_tick: u32,
}

/// First v6 retry delay after falling back to IPv4, in settled ticks.
const FALLBACK_RETRY_INITIAL: u32 = 12;
/// Ceiling for the doubling v6-retry backoff, in settled ticks.
const FALLBACK_RETRY_CAP: u32 = 16;

/// Per-destination fallback state: the device is on IPv4 for this domain
/// and periodically races a fresh IPv6 handshake against the live v4
/// session (happy-eyeballs style) to detect recovery.
#[derive(Debug, Clone)]
struct FallbackState {
    /// Next tick at which a v6 probe handshake may be raced.
    retry_at: u32,
    /// Current retry interval (doubles up to [`FALLBACK_RETRY_CAP`]).
    backoff: u32,
}

/// One observed v6↔v4 connection-family switch (the Table 9 events).
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct SwitchEvent {
    /// Device tick at which the switch happened.
    pub tick: u32,
    /// Simulated wall-clock time of the switch, in microseconds.
    pub at_us: u64,
    /// Destination whose connection switched family.
    pub domain: Name,
    /// `true` = recovered back to IPv6; `false` = fell back to IPv4.
    pub to_v6: bool,
}

/// A behavioural IoT device on the simulated LAN.
#[derive(Clone)]
pub struct IotDevice {
    /// Shared, so a round can walk the destinations while it mutates
    /// the device.
    profile: Arc<DeviceProfile>,
    boot_jitter_ms: u64,
    tick: u32,

    // IPv4 side.
    dhcp4: Dhcp4State,
    v4_addr: Option<Ipv4Addr>,
    v4_dns: Vec<Ipv4Addr>,
    v4_gateway: Option<Ipv4Addr>,
    gateway_mac: Option<Mac>,
    dhcp4_attempts: u8,

    // IPv6 side.
    v6_started: bool,
    lla: Option<Ipv6Addr>,
    eui_gua: Option<Ipv6Addr>,
    privacy_gua: Option<Ipv6Addr>,
    ula: Option<Ipv6Addr>,
    stateful_addr: Option<Ipv6Addr>,
    /// Extra announced-but-unused addresses (churn, unused EUI GUA...).
    announced_extra: Vec<Ipv6Addr>,
    v6_dns: Vec<Ipv6Addr>,
    router_mac6: Option<Mac>,
    ra_prefix: Option<Ipv6Addr>,
    ra_managed: bool,
    ra_other: bool,
    dhcp6: Dhcp6State,
    dhcp6_xid: u32,
    rs_sent: u8,
    churn_left: u8,
    lla_rotated: bool,

    // DNS.
    resolved4: FxHashMap<Name, Ipv4Addr>,
    resolved6: FxHashMap<Name, Ipv6Addr>,
    negative6: FxHashSet<Name>,
    pending: FxHashMap<u16, PendingQuery>,
    /// Query dedup/retry state, per name: attempts made at each lookup
    /// and the tick of the last attempt. Lost queries (frame-loss
    /// injection) are retried with backoff, up to four attempts.
    asked: FxHashMap<Name, Vec<Attempts>>,
    next_txid: u16,

    // Transport. Keyed by local port and walked in port order, so the
    // frames a sweep or a telemetry round emits never depend on hash
    // iteration order (captures stay byte-identical per seed).
    conns: BTreeMap<u16, Conn>,
    next_port: u16,
    ntp_done: bool,
    stateful_probe_done: bool,

    /// Destinations whose IPv6 path timed out (AAAA published, server
    /// unreachable over v6 — the paper's §7 caveat): currently served
    /// over IPv4, with a backed-off v6 probe racing for recovery.
    fallback: FxHashMap<Name, FallbackState>,
    /// Every family switch in chronological order (Table 9 input).
    switch_events: Vec<SwitchEvent>,
    /// Simulated wall clock of the current callback, in microseconds.
    now_us: u64,

    // Application accounting (read by the functionality tester).
    connected: FxHashSet<Name>,
    seed: u64,
}

impl IotDevice {
    /// Instantiate from a profile.
    pub fn new(profile: DeviceProfile) -> IotDevice {
        // Deterministic per-device jitter so 93 boots interleave.
        let seed = profile.mac.as_bytes().iter().fold(0u64, |acc, b| {
            acc.wrapping_mul(131).wrapping_add(u64::from(*b))
        });
        IotDevice {
            boot_jitter_ms: 200 + seed % 4800,
            tick: 0,
            dhcp4: Dhcp4State::Idle,
            v4_addr: None,
            v4_dns: Vec::new(),
            v4_gateway: None,
            gateway_mac: None,
            dhcp4_attempts: 0,
            v6_started: false,
            lla: None,
            eui_gua: None,
            privacy_gua: None,
            ula: None,
            stateful_addr: None,
            announced_extra: Vec::new(),
            v6_dns: Vec::new(),
            router_mac6: None,
            ra_prefix: None,
            ra_managed: false,
            ra_other: false,
            dhcp6: Dhcp6State::Idle,
            dhcp6_xid: (seed as u32) & 0xff_ffff,
            rs_sent: 0,
            churn_left: profile.ipv6.addr_churn,
            lla_rotated: false,
            resolved4: FxHashMap::default(),
            resolved6: FxHashMap::default(),
            negative6: FxHashSet::default(),
            pending: FxHashMap::default(),
            asked: FxHashMap::default(),
            next_txid: (seed as u16) | 1,
            conns: BTreeMap::new(),
            next_port: 40_000 + (seed % 1000) as u16,
            ntp_done: false,
            stateful_probe_done: false,
            fallback: FxHashMap::default(),
            switch_events: Vec::new(),
            now_us: 0,
            connected: FxHashSet::default(),
            seed,
            profile: Arc::new(profile),
        }
    }

    /// Borrow the profile.
    pub fn profile(&self) -> &DeviceProfile {
        &self.profile
    }

    /// The functionality test (§4.1): did every required destination
    /// complete a cloud exchange (over either family)?
    pub fn is_functional(&self) -> bool {
        self.profile
            .required_destinations()
            .all(|d| self.connected.contains(&d.domain))
    }

    /// Every v6↔v4 family switch the device performed, in order.
    pub fn switch_events(&self) -> &[SwitchEvent] {
        &self.switch_events
    }

    fn record_switch(&mut self, domain: Name, to_v6: bool) {
        self.switch_events.push(SwitchEvent {
            tick: self.tick,
            at_us: self.now_us,
            domain,
            to_v6,
        });
    }

    /// Abandon the IPv6 path for `domain`: serve it over IPv4 and arm the
    /// happy-eyeballs v6 recovery probe. Idempotent for a domain already
    /// fallen back (a stale racing SYN re-arms nothing).
    fn enter_fallback(&mut self, domain: Name, now: u32) {
        if self.fallback.contains_key(&domain) {
            return;
        }
        self.record_switch(domain.clone(), false);
        self.fallback.insert(
            domain,
            FallbackState {
                retry_at: now + FALLBACK_RETRY_INITIAL,
                backoff: FALLBACK_RETRY_INITIAL,
            },
        );
    }

    /// Currently assigned global addresses with their formation mode
    /// (`"eui64"`, `"privacy"`, or `"dhcpv6"`) — the ground truth the
    /// WAN exposure scanner's hit-rate is judged against.
    pub fn gua_inventory(&self) -> Vec<(Ipv6Addr, &'static str)> {
        let mut v = Vec::new();
        if let Some(a) = self.eui_gua {
            v.push((a, "eui64"));
        }
        if let Some(a) = self.privacy_gua {
            v.push((a, "privacy"));
        }
        if let Some(a) = self.stateful_addr {
            v.push((a, "dhcpv6"));
        }
        for &a in &self.announced_extra {
            if a.is_global_unicast() {
                v.push((a, if a.is_eui64() { "eui64" } else { "privacy" }));
            }
        }
        v.sort();
        v.dedup_by_key(|(a, _)| *a);
        v
    }

    /// All currently assigned IPv6 addresses (diagnostics).
    pub fn v6_addresses(&self) -> Vec<Ipv6Addr> {
        self.owned_v6().collect()
    }

    /// Every address that makes an IP "one of mine": the single-address
    /// slots, then the announced extras.
    fn owned_v6(&self) -> impl Iterator<Item = Ipv6Addr> + '_ {
        self.v6_slots()
            .into_iter()
            .flatten()
            .chain(self.announced_extra.iter().copied())
    }

    /// The single-address slots, in [`IotDevice::v6_addresses`] order.
    fn v6_slots(&self) -> [Option<Ipv6Addr>; 5] {
        [
            self.lla,
            self.eui_gua,
            self.privacy_gua,
            self.ula,
            self.stateful_addr,
        ]
    }

    // --- address formation ------------------------------------------------

    fn iid_random(&self, salt: u64) -> [u8; 8] {
        // Deterministic "random" IID from the device seed.
        let mut h = self.seed ^ salt.wrapping_mul(0x9e37_79b9_7f4a_7c15);
        h ^= h >> 33;
        h = h.wrapping_mul(0xff51_afd7_ed55_8ccd);
        h ^= h >> 33;
        let mut iid = h.to_be_bytes();
        iid[0] &= 0xfd; // keep the U/L bit clear: not EUI-64 derived
        iid[3] = 0xaa; // never collide with the ff:fe marker
        iid[4] = 0xbb;
        iid
    }

    fn addr_from(prefix: Ipv6Addr, iid: [u8; 8]) -> Ipv6Addr {
        let mut o = prefix.octets();
        o[8..].copy_from_slice(&iid);
        Ipv6Addr::from(o)
    }

    fn make_lla(&self, salt: u64) -> Ipv6Addr {
        let prefix = Ipv6Addr::new(0xfe80, 0, 0, 0, 0, 0, 0, 0);
        if self.profile.ipv6.lla_eui64 && salt == 0 {
            // The boot LLA of an EUI-64 device embeds the MAC; rotations
            // (salt != 0) switch to randomized identifiers.
            self.profile.mac.slaac_address(prefix)
        } else {
            Self::addr_from(prefix, self.iid_random(0x11a + salt))
        }
    }

    fn ula_prefix(&self) -> Ipv6Addr {
        // fd00::/8 + 40-bit global id from the device seed (Matter fabric).
        let g = self.seed;
        Ipv6Addr::new(
            0xfd00 | ((g >> 32) as u16 & 0xff),
            (g >> 16) as u16,
            g as u16,
            1,
            0,
            0,
            0,
            0,
        )
    }

    // --- traffic source selection (the §5.4.1 findings) --------------------

    fn dns_src6(&self) -> Option<Ipv6Addr> {
        if self.profile.ipv6.traffic_from_stateful {
            // Prefer the stateful address; fall back to the privacy GUA
            // when the network offers no stateful DHCPv6 (the Fridge in
            // the baseline experiments).
            return self.stateful_addr.or(self.privacy_gua);
        }
        if self.profile.ipv6.gua_eui64 && !self.profile.ipv6.privacy_gua_for_traffic {
            return self.eui_gua;
        }
        self.privacy_gua.or(self.stateful_addr)
    }

    fn data_src6(&self) -> Option<Ipv6Addr> {
        if self.profile.ipv6.traffic_from_stateful {
            return self.stateful_addr.or(self.privacy_gua);
        }
        if self.profile.ipv6.gua_eui64
            && !self.profile.ipv6.privacy_gua_for_traffic
            && !self.profile.ipv6.data_from_privacy_gua
        {
            return self.eui_gua;
        }
        self.privacy_gua.or(self.stateful_addr)
    }

    /// Source for ICMPv6 echo connectivity probes: the EUI-64 GUA for
    /// EUI-64 devices (Fig. 5's "misc" use), the privacy GUA otherwise.
    fn echo_src6(&self) -> Option<Ipv6Addr> {
        if !self.profile.ipv6.v6_echo_probe {
            return None;
        }
        if self.profile.ipv6.gua_eui64 {
            self.eui_gua
        } else {
            self.privacy_gua
        }
    }

    fn local_src6(&self) -> Option<Ipv6Addr> {
        self.ula.or(self.lla)
    }

    /// Is `a` one of this device's addresses?
    fn owns_v6(&self, a: Ipv6Addr) -> bool {
        self.owned_v6().any(|o| o == a)
    }

    /// Does the device's NIC pass a frame sent to `dst`? Every unicast
    /// does (the LAN hands a device only its own); of the groups, only
    /// those the device has joined: broadcast, all-nodes, and the
    /// solicited-node group (`33:33:ff` and the low 24 bits) of each of
    /// its addresses.
    fn listens_to(&self, dst: Mac) -> bool {
        const ALL_NODES: Mac = Mac::for_ipv6_multicast(mcast::ALL_NODES);
        if dst.is_unicast() || dst == Mac::BROADCAST || dst == ALL_NODES {
            return true;
        }
        let [0x33, 0x33, 0xff, low @ ..] = dst.0 else {
            return false;
        };
        self.owned_v6().any(|a| a.octets()[13..] == low)
    }

    // --- frame emission helpers --------------------------------------------

    fn router6(&self) -> Mac {
        self.router_mac6.unwrap_or(well_known::ROUTER_MAC)
    }

    fn announce_addr(&self, addr: Ipv6Addr, fx: &mut Effects) {
        // Unsolicited NA to all-nodes: how assigned addresses become
        // visible to the router's neighbor table (and the capture).
        let na = icmpv6::Repr::Ndp(Ndp::NeighborAdvert {
            router: false,
            solicited: false,
            override_flag: true,
            target: addr,
            options: vec![NdpOption::TargetLinkLayerAddr(self.profile.mac)],
        });
        let src = addr;
        fx.send_frame(wire::icmpv6_frame(
            self.profile.mac,
            Mac::for_ipv6_multicast(mcast::ALL_NODES),
            src,
            mcast::ALL_NODES,
            &na,
        ));
    }

    fn dad_probe(&self, target: Ipv6Addr, fx: &mut Effects) {
        let ns = icmpv6::Repr::Ndp(Ndp::NeighborSolicit {
            target,
            options: vec![],
        });
        let dst = target.solicited_node();
        fx.send_frame(wire::icmpv6_frame(
            self.profile.mac,
            Mac::for_ipv6_multicast(dst),
            Ipv6Addr::UNSPECIFIED,
            dst,
            &ns,
        ));
    }

    fn assign_with_dad(&mut self, addr: Ipv6Addr, is_global: bool, fx: &mut Effects) {
        let dad = match self.profile.ipv6.dad {
            DadBehavior::Full => true,
            DadBehavior::LinkLocalOnly => !is_global,
            DadBehavior::Never => false,
        };
        if dad {
            self.dad_probe(addr, fx);
        }
        // Joining the solicited-node multicast group emits an MLDv2
        // report (RFC 3810), from the unspecified address while the
        // unicast address is still tentative — exactly what real stacks
        // put on the wire during address configuration.
        let report = icmpv6::Repr::Mldv2Report {
            records: vec![(4, addr.solicited_node())],
        };
        let mld_dst: Ipv6Addr = Ipv6Addr::new(0xff02, 0, 0, 0, 0, 0, 0, 0x16);
        fx.send_frame(wire::icmpv6_frame(
            self.profile.mac,
            Mac::for_ipv6_multicast(mld_dst),
            Ipv6Addr::UNSPECIFIED,
            mld_dst,
            &report,
        ));
        self.announce_addr(addr, fx);
    }

    // --- IPv4 client --------------------------------------------------------

    fn dhcp4_send(&mut self, mt: dhcpv4::MessageType, fx: &mut Effects) {
        let mut msg = dhcpv4::Repr::client(mt, self.seed as u32 ^ 0x44, self.profile.mac);
        msg.hostname = Some(self.profile.id.clone());
        if mt == dhcpv4::MessageType::Request {
            msg.requested_ip = self.v4_addr;
            msg.server_id = Some(well_known::ROUTER_IPV4);
        }
        fx.send_frame(wire::udp4_frame(
            self.profile.mac,
            Mac::BROADCAST,
            Ipv4Addr::UNSPECIFIED,
            Ipv4Addr::BROADCAST,
            68,
            67,
            msg.build(),
        ));
    }

    fn arp_for_gateway(&self, fx: &mut Effects) {
        let Some(my) = self.v4_addr else { return };
        let Some(gw) = self.v4_gateway else { return };
        let req = v6brick_net::arp::Repr::request(self.profile.mac, my, gw);
        fx.send_frame(wire::eth_frame(
            self.profile.mac,
            Mac::BROADCAST,
            v6brick_net::ethernet::EtherType::Arp,
            &req.build(),
        ));
    }

    // --- IPv6 bringup --------------------------------------------------------

    fn v6_may_run(&self) -> bool {
        if !self.profile.ipv6.ndp {
            return false;
        }
        if self.profile.ipv6.skip_v6_if_v4 {
            // The ThirdReality bridge only brings IPv6 up once it is
            // certain IPv4 is absent (DHCP attempts exhausted), and never
            // while IPv4 is bound.
            let dhcp_settled = self.dhcp4 == Dhcp4State::Bound || self.dhcp4_attempts >= 5;
            return dhcp_settled && self.v4_addr.is_none();
        }
        true
    }

    fn v6_full_addressing(&self) -> bool {
        // Devices gated on IPv4 probe NDP but never complete addressing
        // until IPv4 is up; pure addressless devices never do.
        #[allow(clippy::nonminimal_bool)] // the two clauses mirror the two device classes
        let full = !self.profile.ipv6.addressless
            && !(self.profile.ipv6.addr_requires_v4 && self.v4_addr.is_none());
        full
    }

    fn start_v6(&mut self, fx: &mut Effects) {
        self.v6_started = true;
        if self.v6_full_addressing() && self.profile.ipv6.lla {
            let lla = self.make_lla(0);
            self.assign_with_dad(lla, false, fx);
            self.lla = Some(lla);
        }
        if self.v6_full_addressing() && self.profile.ipv6.ula {
            let iid = if self.profile.ipv6.lla_eui64 {
                self.profile.mac.to_eui64()
            } else {
                self.iid_random(0x01a)
            };
            let ula = Self::addr_from(self.ula_prefix(), iid);
            self.assign_with_dad(ula, true, fx);
            self.ula = Some(ula);
        }
        // Router solicitation (from the LLA when present, else from ::).
        self.send_rs(fx);
    }

    fn send_rs(&mut self, fx: &mut Effects) {
        let src = self.lla.unwrap_or(Ipv6Addr::UNSPECIFIED);
        let options = if src.is_unspecified() {
            vec![]
        } else {
            vec![NdpOption::SourceLinkLayerAddr(self.profile.mac)]
        };
        let rs = icmpv6::Repr::Ndp(Ndp::RouterSolicit { options });
        fx.send_frame(wire::icmpv6_frame(
            self.profile.mac,
            Mac::for_ipv6_multicast(mcast::ALL_ROUTERS),
            src,
            mcast::ALL_ROUTERS,
            &rs,
        ));
        self.rs_sent += 1;
    }

    fn on_ra(
        &mut self,
        src_mac: Mac,
        ra_prefix: Option<Ipv6Addr>,
        managed: bool,
        other: bool,
        rdnss: Vec<Ipv6Addr>,
        fx: &mut Effects,
    ) {
        self.router_mac6 = Some(src_mac);
        self.ra_managed = managed;
        self.ra_other = other;
        if let Some(prefix) = ra_prefix {
            let fresh = self.ra_prefix != Some(prefix);
            self.ra_prefix = Some(prefix);
            if fresh && self.v6_full_addressing() {
                self.configure_guas(prefix, fx);
            }
        }
        if self.profile.ipv6.rdnss && !rdnss.is_empty() {
            self.v6_dns = rdnss;
        }
        // DHCPv6 entry points.
        if self.v6_full_addressing() {
            if managed && self.profile.ipv6.dhcpv6_stateful && self.dhcp6 == Dhcp6State::Idle {
                self.dhcp6_send(dhcpv6::MessageType::Solicit, fx);
                self.dhcp6 = Dhcp6State::SolicitSent;
            } else if other && self.profile.ipv6.dhcpv6_stateless && self.dhcp6 == Dhcp6State::Idle
            {
                self.dhcp6_send(dhcpv6::MessageType::InformationRequest, fx);
                self.dhcp6 = Dhcp6State::Done; // fire and remember
            }
        }
    }

    fn configure_guas(&mut self, prefix: Ipv6Addr, fx: &mut Effects) {
        let gua_allowed = !(self.profile.ipv6.gua_requires_v4 && self.v4_addr.is_none());
        // Active EUI-64 GUA.
        if self.profile.ipv6.gua_eui64 && self.profile.ipv6.slaac_gua && gua_allowed {
            let a = self.profile.mac.slaac_address(prefix);
            self.assign_with_dad(a, true, fx);
            self.eui_gua = Some(a);
        }
        // Privacy GUA (primary for privacy devices; secondary for the
        // privacy-redirect devices and as the stateful-traffic fallback).
        let wants_privacy = self.profile.ipv6.slaac_gua
            && (!self.profile.ipv6.gua_eui64
                || self.profile.ipv6.privacy_gua_for_traffic
                || self.profile.ipv6.data_from_privacy_gua
                || self.profile.ipv6.traffic_from_stateful);
        if wants_privacy && gua_allowed {
            let a = Self::addr_from(prefix, self.iid_random(0x6a));
            self.assign_with_dad(a, true, fx);
            self.privacy_gua = Some(a);
        }
        // Assigned-but-unused EUI-64 GUA (Fig. 5's 18 devices).
        if self.profile.ipv6.unused_eui64_gua {
            let a = self.profile.mac.slaac_address(prefix);
            self.assign_with_dad(a, true, fx);
            self.announced_extra.push(a);
        }
        // One spare privacy address that never carries traffic.
        if self.profile.ipv6.assigns_unused_addr && self.profile.ipv6.slaac_gua && gua_allowed {
            let a = Self::addr_from(prefix, self.iid_random(0xdead));
            self.assign_with_dad(a, true, fx);
            self.announced_extra.push(a);
        }
    }

    fn dhcp6_send(&mut self, mt: dhcpv6::MessageType, fx: &mut Effects) {
        let Some(src) = self.lla.or(self.ula) else {
            return;
        };
        let mut msg = dhcpv6::Repr::new(mt, self.dhcp6_xid);
        msg.client_id = Some(self.duid());
        msg.elapsed_time = Some(0);
        msg.oro = vec![dhcpv6::OPTION_DNS_SERVERS];
        if mt.is_stateful() {
            msg.ia_na = Some(dhcpv6::IaNa {
                iaid: 1,
                t1: 0,
                t2: 0,
                addresses: vec![],
            });
        }
        fx.send_frame(wire::udp6_frame(
            self.profile.mac,
            Mac::for_ipv6_multicast(mcast::DHCPV6_SERVERS),
            src,
            mcast::DHCPV6_SERVERS,
            546,
            547,
            msg.build(),
        ));
    }

    fn duid(&self) -> Vec<u8> {
        let mut d = vec![0, 3, 0, 1];
        d.extend_from_slice(self.profile.mac.as_bytes());
        d
    }

    // --- DNS -----------------------------------------------------------------

    fn txid(&mut self) -> u16 {
        self.next_txid = self.next_txid.wrapping_add(7).max(1);
        self.next_txid
    }

    fn send_query(&mut self, name: &Name, rtype: RecordType, over_v6: bool, fx: &mut Effects) {
        let tried = self.asked.get(name).and_then(|lookups| {
            lookups
                .iter()
                .find(|a| a.rtype == rtype && a.over_v6 == over_v6)
                .copied()
        });
        // Already answered?
        let answered = match rtype {
            RecordType::A => {
                self.resolved4.contains_key(name) || (over_v6 && self.resolved6.contains_key(name))
            }
            RecordType::Aaaa => self.resolved6.contains_key(name) || self.negative6.contains(name),
            _ => tried.is_some(),
        };
        if answered {
            return;
        }
        // Retry with backoff: at most 4 attempts, at least 5 ticks apart.
        if let Some(a) = tried {
            if a.count >= 4 || self.tick.saturating_sub(a.last) < 5 {
                return;
            }
        }
        let id = self.txid();
        let query = Writer::query(id, name.as_str(), rtype);
        if over_v6 {
            let (Some(src), Some(&server)) = (self.dns_src6(), self.v6_dns.first()) else {
                return;
            };
            fx.send_frame(wire::udp6_frame(
                self.profile.mac,
                self.router6(),
                src,
                server,
                self.alloc_port(),
                53,
                query,
            ));
        } else {
            let (Some(src), Some(&server), Some(gw)) =
                (self.v4_addr, self.v4_dns.first(), self.gateway_mac)
            else {
                return;
            };
            fx.send_frame(wire::udp4_frame(
                self.profile.mac,
                gw,
                src,
                server,
                self.alloc_port(),
                53,
                query,
            ));
        }
        let tick = self.tick;
        let lookups = match self.asked.get_mut(name) {
            Some(lookups) => lookups,
            None => self.asked.entry(name.clone()).or_default(),
        };
        match lookups
            .iter_mut()
            .find(|a| a.rtype == rtype && a.over_v6 == over_v6)
        {
            Some(a) => {
                a.count += 1;
                a.last = tick;
            }
            None => lookups.push(Attempts {
                rtype,
                over_v6,
                count: 1,
                last: tick,
            }),
        }
        self.pending.insert(
            id,
            PendingQuery {
                name: name.clone(),
                rtype,
            },
        );
    }

    fn alloc_port(&mut self) -> u16 {
        self.next_port = self.next_port.wrapping_add(1);
        if self.next_port < 32_768 {
            self.next_port = 40_000;
        }
        self.next_port
    }

    /// One resolution round: issue every query the current connectivity
    /// allows. Deduplicated by `asked`.
    fn dns_round(&mut self, fx: &mut Effects) {
        let has_v4_dns = self.v4_addr.is_some() && !self.v4_dns.is_empty();
        let v6_ready =
            self.profile.dns.v6_transport && !self.v6_dns.is_empty() && self.dns_src6().is_some();
        let profile = Arc::clone(&self.profile);
        for d in &profile.app.destinations {
            // A records: v4 transport when available. Over IPv6 transport
            // an A query only happens as the pair of a dual-family lookup
            // (wants_aaaa) or as a deliberate AF_INET resolution (the
            // a_only names of §5.2.2); everything else rides IPv4.
            if has_v4_dns {
                self.send_query(&d.domain, RecordType::A, false, fx);
            }
            if v6_ready && ((d.wants_aaaa && !d.aaaa_v4_transport_only) || d.a_only) {
                self.send_query(&d.domain, RecordType::A, true, fx);
            }
            // AAAA records.
            let wants = d.wants_aaaa && !d.a_only;
            if wants {
                match self.profile.dns.aaaa {
                    AaaaTransport::None => {}
                    AaaaTransport::V4Only => {
                        if has_v4_dns {
                            self.send_query(&d.domain, RecordType::Aaaa, false, fx);
                        }
                    }
                    AaaaTransport::V6Capable => {
                        if d.aaaa_v4_transport_only {
                            if has_v4_dns {
                                self.send_query(&d.domain, RecordType::Aaaa, false, fx);
                            }
                        } else if v6_ready {
                            self.send_query(&d.domain, RecordType::Aaaa, true, fx);
                        } else if has_v4_dns {
                            self.send_query(&d.domain, RecordType::Aaaa, false, fx);
                        }
                    }
                }
            }
            // HTTPS/SVCB probing rides the v6 resolver when available.
            if self.profile.dns.https_records && v6_ready && d.party == Party::First {
                self.send_query(&d.domain, RecordType::Https, true, fx);
            }
            if self.profile.dns.svcb_records && v6_ready && d.required {
                self.send_query(&d.domain, RecordType::Svcb, true, fx);
            }
        }
    }

    fn on_dns_response(&mut self, payload: &[u8]) {
        let Ok(msg) = MessageView::new(payload) else {
            return;
        };
        if !msg.is_response() {
            return;
        }
        let Some(p) = self.pending.remove(&msg.id()) else {
            return;
        };
        match p.rtype {
            RecordType::A => {
                if let Some(a) = msg.a_answers().next() {
                    self.resolved4.insert(p.name, a);
                }
            }
            RecordType::Aaaa => {
                if let Some(a) = msg.aaaa_answers().next() {
                    self.resolved6.insert(p.name, a);
                } else {
                    self.negative6.insert(p.name);
                }
            }
            _ => {}
        }
    }

    // --- transport / application ----------------------------------------------

    fn family_for(&self, d: &Destination, v6_possible: bool, v4_possible: bool) -> Option<bool> {
        // Returns Some(true) for v6, Some(false) for v4.
        match (v6_possible, v4_possible) {
            (false, false) => None,
            (true, false) => Some(true),
            (false, true) => Some(false),
            (true, true) => match d.dual_stack {
                DualStackChoice::PreferV6 | DualStackChoice::Both => Some(true),
                DualStackChoice::PreferV4 => Some(false),
            },
        }
    }

    fn connect_round(&mut self, fx: &mut Effects) {
        // Fire-TV-style gating: until the required cloud session exists,
        // only the required destinations are attempted, so a bricked
        // session produces no ancillary traffic (the paper's "AAAA
        // responses but no IPv6 data" case).
        let gated = self.profile.app.data_requires_required && !self.is_functional();
        // Happy-eyeballs fallback: an IPv6 handshake that never completes
        // (AAAA record published, server dead over v6 — §7) gets abandoned
        // and the destination is retried over IPv4.
        let now = self.tick;
        let latency = u32::from(self.profile.app.fallback_latency_ticks.max(1));
        // Both sweeps walk `conns` in port order, so the fallback entry
        // and switch-event order are the same on every rerun.
        let stale: Vec<(u16, bool)> = self
            .conns
            .iter()
            .filter(|(_, c)| {
                c.state == ConnState::SynSent && now.saturating_sub(c.opened_tick) > latency
            })
            .map(|(port, c)| (*port, c.remote.is_ipv6()))
            .collect();
        for (port, was_v6) in stale {
            if let Some(c) = self.conns.remove(&port) {
                if was_v6 && self.v4_addr.is_some() {
                    // Dead-over-v6 destination: fall back to IPv4. With no
                    // IPv4 available there is nothing to fall back to, so
                    // the v6 handshake simply retries (a lost SYN/ACK must
                    // not permanently blacklist the only usable family).
                    self.enter_fallback(c.domain, now);
                }
            }
        }
        // Mid-session stall: an established IPv6 connection whose last
        // send went unanswered for a full fallback window (an upstream
        // tunnel outage, not a dead server) is torn down the same way —
        // the destination reconnects over IPv4 below and the v6 recovery
        // race starts probing.
        let stalled: Vec<u16> = self
            .conns
            .iter()
            .filter(|(_, c)| {
                c.state == ConnState::Established
                    && c.remote.is_ipv6()
                    && c.last_tx_tick > c.last_rx_tick
                    && now.saturating_sub(c.last_tx_tick) >= latency
            })
            .map(|(port, _)| *port)
            .collect();
        for port in stalled {
            if let Some(c) = self.conns.remove(&port) {
                self.connected.remove(&c.domain);
                if self.v4_addr.is_some() {
                    self.enter_fallback(c.domain, now);
                }
            }
        }
        let profile = Arc::clone(&self.profile);
        for d in &profile.app.destinations {
            if gated && !d.required {
                continue;
            }
            // Recovery race: a fallen-back destination periodically opens
            // a fresh IPv6 handshake *alongside* its live IPv4 session.
            // If the SYN/ACK comes back (tunnel restored, server alive)
            // the v4 leg is dropped in `handle_tcp_raw`; if not, the SYN
            // goes stale and the next probe waits out a doubled backoff.
            if let Some(fb) = self.fallback.get(&d.domain) {
                let racing = self
                    .conns
                    .values()
                    .any(|c| c.domain == d.domain && c.remote.is_ipv6());
                if now >= fb.retry_at && !racing && !self.profile.app.no_v6_data {
                    if let (Some(target), Some(_src)) =
                        (self.resolved6.get(&d.domain).copied(), self.data_src6())
                    {
                        self.open_v6(d.domain.clone(), target, 443, fx);
                        let fb = self.fallback.get_mut(&d.domain).expect("checked above");
                        fb.backoff = (fb.backoff * 2).min(FALLBACK_RETRY_CAP);
                        fb.retry_at = now + fb.backoff;
                    }
                }
            }
            if self.connected.contains(&d.domain)
                || self.conns.values().any(|c| c.domain == d.domain)
            {
                continue;
            }
            let v6_target = self.resolved6.get(&d.domain).copied();
            let v6_possible = v6_target.is_some()
                && self.data_src6().is_some()
                && !self.profile.app.no_v6_data
                && !self.fallback.contains_key(&d.domain);
            let v4_possible = self.resolved4.contains_key(&d.domain) && self.v4_addr.is_some();
            // RFC 6724 patience: a v6-preferring destination waits for
            // its AAAA answer before falling back to IPv4 (otherwise an
            // early A answer would permanently capture the connection
            // and flatten the Fig. 4 volume shares).
            if !v6_possible
                && v4_possible
                && d.dual_stack != DualStackChoice::PreferV4
                && d.wants_aaaa
                && !self.profile.app.no_v6_data
                && self.data_src6().is_some()
                && !self.negative6.contains(&d.domain)
                && !self.fallback.contains_key(&d.domain)
            {
                continue;
            }
            let Some(use_v6) = self.family_for(d, v6_possible, v4_possible) else {
                continue;
            };
            if use_v6 {
                self.open_v6(d.domain.clone(), v6_target.unwrap(), 443, fx);
            } else {
                let target = self.resolved4[&d.domain];
                self.open_v4(d.domain.clone(), target, 443, fx);
            }
            // "Both" destinations additionally keep a v4 session alive.
            if use_v6 && d.dual_stack == DualStackChoice::Both && v4_possible {
                let target = self.resolved4[&d.domain];
                self.open_v4(d.domain.clone(), target, 443, fx);
            }
        }
        // Hard-coded endpoint: reachable with a GUA and no DNS at all.
        if let Some(name) = self.profile.app.hardcoded_v6_endpoint.clone() {
            if !self.connected.contains(&name) && !self.conns.values().any(|c| c.domain == name) {
                if let Some(_src) = self.data_src6() {
                    let (_, v6) = derive_addrs(&name);
                    self.open_v6(name, v6, 443, fx);
                }
            }
        }
    }

    fn open_v6(&mut self, domain: Name, target: Ipv6Addr, port: u16, fx: &mut Effects) {
        let Some(src) = self.data_src6() else { return };
        let local = self.alloc_port();
        let seq = (self.seed as u32) ^ u32::from(local);
        let syn = tcp::Repr::syn(local, port, seq);
        fx.send_frame(wire::tcp6_frame(
            self.profile.mac,
            self.router6(),
            src,
            target,
            &syn,
        ));
        self.conns.insert(
            local,
            Conn {
                remote: IpAddr::V6(target),
                remote_port: port,
                domain,
                state: ConnState::SynSent,
                seq: seq.wrapping_add(1),
                ack: 0,
                src6: Some(src),
                got_response: false,
                opened_tick: self.tick,
                last_tx_tick: self.tick,
                last_rx_tick: self.tick,
            },
        );
    }

    fn open_v4(&mut self, domain: Name, target: Ipv4Addr, port: u16, fx: &mut Effects) {
        let (Some(src), Some(gw)) = (self.v4_addr, self.gateway_mac) else {
            return;
        };
        let local = self.alloc_port();
        let seq = (self.seed as u32) ^ u32::from(local);
        let syn = tcp::Repr::syn(local, port, seq);
        fx.send_frame(wire::tcp4_frame(self.profile.mac, gw, src, target, &syn));
        self.conns.insert(
            local,
            Conn {
                remote: IpAddr::V4(target),
                remote_port: port,
                domain,
                state: ConnState::SynSent,
                seq: seq.wrapping_add(1),
                ack: 0,
                src6: None,
                got_response: false,
                opened_tick: self.tick,
                last_tx_tick: self.tick,
                last_rx_tick: self.tick,
            },
        );
    }

    /// Send `payload` followed by `run` on connection `local`.
    fn send_on_conn(&mut self, local: u16, payload: Vec<u8>, run: Run, fx: &mut Effects) {
        let Some(conn) = self.conns.get_mut(&local) else {
            return;
        };
        let seg = tcp::Repr {
            src_port: local,
            dst_port: conn.remote_port,
            seq: conn.seq,
            ack: conn.ack,
            flags: tcp::Flags::PSH | tcp::Flags::ACK,
            window: 0xffff,
            payload,
        };
        conn.seq = conn
            .seq
            .wrapping_add((seg.payload.len() + run.len()) as u32);
        conn.last_tx_tick = self.tick;
        let frame = match conn.remote {
            IpAddr::V6(dst) => {
                let src = conn.src6.unwrap_or(dst); // src6 always set for v6
                wire::tcp6_frame_with_run(self.profile.mac, self.router6(), src, dst, &seg, run)
            }
            IpAddr::V4(dst) => {
                let (Some(src), Some(gw)) = (self.v4_addr, self.gateway_mac) else {
                    return;
                };
                wire::tcp4_frame_with_run(self.profile.mac, gw, src, dst, &seg, run)
            }
        };
        fx.send_frame_with_run(frame, run);
    }

    fn telemetry_round(&mut self, fx: &mut Effects) {
        if self.profile.app.data_requires_required && !self.is_functional() {
            return;
        }
        // Partition the established connections by family and split the
        // byte budget per the Fig. 4 share when both are active.
        let established: Vec<(u16, bool, u16)> = self
            .conns
            .iter()
            .filter(|(_, c)| c.state == ConnState::Established)
            .map(|(port, c)| {
                let weight = self
                    .profile
                    .app
                    .destinations
                    .iter()
                    .find(|d| d.domain == c.domain)
                    .map(|d| d.volume_weight)
                    .unwrap_or(2);
                (*port, c.remote.is_ipv6(), weight)
            })
            .collect();
        if established.is_empty() {
            return;
        }
        let w6: u32 = established
            .iter()
            .filter(|(_, v6, _)| *v6)
            .map(|(_, _, w)| u32::from(*w))
            .sum();
        let w4: u32 = established
            .iter()
            .filter(|(_, v6, _)| !*v6)
            .map(|(_, _, w)| u32::from(*w))
            .sum();
        let share = u32::from(self.profile.app.v6_volume_share_pct);
        const BASE_ROUND_BYTES: u32 = 300_000;
        let round_bytes = BASE_ROUND_BYTES * u32::from(self.profile.app.telemetry_scale.max(1));
        for (port, is_v6, weight) in established {
            let bytes = if w6 > 0 && w4 > 0 && share > 0 {
                // Dual-stack: honour the device's observed v6 share.
                if is_v6 {
                    round_bytes * share / 100 * u32::from(weight) / w6
                } else {
                    round_bytes * (100 - share) / 100 * u32::from(weight) / w4
                }
            } else {
                round_bytes * u32::from(weight) / (w6 + w4).max(1)
            };
            let domain = self.conns[&port].domain.clone();
            // Segment the round's budget so no single frame approaches the
            // IPv6 payload-length limit (responses are 4x and capped at
            // 48 KiB by the server side).
            let mut remaining = bytes.clamp(120, 1_200_000) as usize;
            while remaining > 0 {
                let chunk = remaining.min(12_000);
                remaining -= chunk;
                let (hello, padding) = tls::client_hello(&domain, chunk);
                self.send_on_conn(port, hello, padding, fx);
            }
        }
    }

    /// Connectivity checks: an ICMPv6 echo probe from the GUA (the Fig. 5
    /// "misc" use of EUI-64 addresses — not TCP/UDP, so it never counts
    /// as data transmission), plus NTP over IPv4 when available.
    fn probe_round(&mut self, fx: &mut Effects) {
        // Stateful-address users (§5.2.1's four devices) verify the
        // DHCPv6-assigned address with its own connectivity probe, even
        // though it is not their primary address.
        if !self.stateful_probe_done {
            if let Some(src) = self
                .stateful_addr
                .filter(|_| self.profile.ipv6.dhcpv6_stateful_use)
            {
                self.stateful_probe_done = true;
                let echo = icmpv6::Repr::EchoRequest {
                    ident: (self.seed as u16) | 1,
                    seq: 2,
                    payload: vec![0x71; 16],
                };
                fx.send_frame(wire::icmpv6_frame(
                    self.profile.mac,
                    self.router6(),
                    src,
                    well_known::DNS6_PRIMARY,
                    &echo,
                ));
            }
        }
        if self.ntp_done {
            return;
        }
        if let Some(src) = self.echo_src6() {
            self.ntp_done = true;
            let echo = icmpv6::Repr::EchoRequest {
                ident: (self.seed as u16) | 1,
                seq: 1,
                payload: vec![0x70; 16],
            };
            fx.send_frame(wire::icmpv6_frame(
                self.profile.mac,
                self.router6(),
                src,
                well_known::DNS6_PRIMARY,
                &echo,
            ));
        } else if let (Some(src), Some(gw)) = (self.v4_addr, self.gateway_mac) {
            self.ntp_done = true;
            let (v4, _) = derive_addrs(&ntp_anycast());
            let port = self.alloc_port();
            fx.send_frame(wire::udp4_frame(
                self.profile.mac,
                gw,
                src,
                v4,
                port,
                123,
                vec![0x23; 48],
            ));
        }
    }

    fn local_round(&mut self, fx: &mut Effects) {
        if !self.profile.app.local_ipv6 {
            return;
        }
        let Some(src) = self.local_src6() else { return };
        // mDNS service announcement (PTR record for the Matter service).
        let mut msg = Message::query(0, Name::new("_matter._tcp.local").unwrap(), RecordType::Ptr);
        msg.is_response = true;
        msg.authoritative = true;
        msg.answers.push(v6brick_net::dns::Record::new(
            Name::new("_matter._tcp.local").unwrap(),
            4500,
            v6brick_net::dns::Rdata::Ptr(
                Name::new(&format!("{}.local", self.profile.id.replace('_', "-"))).unwrap(),
            ),
        ));
        fx.send_frame(wire::udp6_frame(
            self.profile.mac,
            Mac::for_ipv6_multicast(mcast::MDNS),
            src,
            mcast::MDNS,
            5353,
            5353,
            msg.build(),
        ));
    }

    fn churn_round(&mut self, t: u32, fx: &mut Effects) {
        if self.profile.ipv6.addr_churn == 0 {
            return;
        }
        // Temporary privacy GUAs regenerate per run (fresh randomness —
        // every experiment sees different temporaries, so the union
        // across the six runs accumulates like the paper's two-week
        // capture did). Budgeted per run by `addr_churn`.
        if self.churn_left > 0 {
            self.churn_left -= 1;
            if let Some(prefix) = self.ra_prefix {
                let mut iid: [u8; 8] = fx.rng.gen();
                iid[0] &= 0xfd;
                iid[3] = 0xaa;
                iid[4] = 0xbb;
                let a = Self::addr_from(prefix, iid);
                self.announce_addr(a, fx);
                self.announced_extra.push(a);
            }
        }
        // Fabric ULAs rotate deterministically (the same fabric readdress
        // sequence replays each run, as a stable Matter fabric would).
        if self.profile.ipv6.ula && self.ula.is_some() {
            let a = Self::addr_from(self.ula_prefix(), self.iid_random(0x1000 + u64::from(t)));
            self.announce_addr(a, fx);
            self.announced_extra.push(a);
        }
        // LLA rotation: a ~5% chance per churn round means roughly every
        // other run rotates once, mid-experiment.
        if self.profile.ipv6.rotates_lla && !self.lla_rotated && fx.rng.gen_bool(0.05) {
            self.lla_rotated = true;
            let lla = self.make_lla(0x77 + u64::from(fx.rng.gen::<u16>()));
            self.assign_with_dad(lla, false, fx);
            self.lla = Some(lla);
        }
    }

    // --- inbound handling -------------------------------------------------------

    fn handle_frame(&mut self, p: &ParsedPacket, fx: &mut Effects) {
        match (&p.net, &p.l4) {
            (Net::Arp(arp), L4::None) => {
                if arp.operation == v6brick_net::arp::Operation::Request
                    && Some(arp.target_ip) == self.v4_addr
                {
                    let reply = arp.reply_to(self.profile.mac);
                    fx.send_frame(wire::eth_frame(
                        self.profile.mac,
                        p.eth.src,
                        v6brick_net::ethernet::EtherType::Arp,
                        &reply.build(),
                    ));
                } else if arp.operation == v6brick_net::arp::Operation::Reply
                    && Some(arp.sender_ip) == self.v4_gateway
                {
                    self.gateway_mac = Some(arp.sender_mac);
                }
            }
            (
                Net::Ipv4(ip),
                L4::Udp {
                    src_port,
                    dst_port,
                    payload,
                },
            ) => {
                if *src_port == 67 && *dst_port == 68 {
                    self.on_dhcp4(payload, fx);
                } else if *src_port == 53 {
                    self.on_dns_response(payload);
                } else if ip.dst == self.v4_addr.unwrap_or(Ipv4Addr::UNSPECIFIED) {
                    self.on_udp_service(false, *dst_port, *src_port, p, fx);
                }
            }
            (Net::Ipv6(ip), L4::Icmpv6(msg)) => self.on_icmpv6(p.eth.src, ip, msg, fx),
            (
                Net::Ipv6(ip),
                L4::Udp {
                    src_port,
                    dst_port,
                    payload,
                },
            ) => {
                if *src_port == 547 && *dst_port == 546 {
                    self.on_dhcp6(payload, fx);
                } else if *src_port == 53 {
                    self.on_dns_response(payload);
                } else if self.owns_v6(ip.dst) {
                    self.on_udp_service(true, *dst_port, *src_port, p, fx);
                }
            }
            _ => {}
        }
    }

    fn on_dhcp4(&mut self, payload: &[u8], fx: &mut Effects) {
        let Ok(msg) = dhcpv4::Repr::parse_bytes(payload) else {
            return;
        };
        if msg.client_mac != self.profile.mac {
            return;
        }
        match (msg.message_type, self.dhcp4) {
            (dhcpv4::MessageType::Offer, Dhcp4State::DiscoverSent) => {
                self.v4_addr = Some(msg.your_addr);
                self.dhcp4 = Dhcp4State::RequestSent;
                self.dhcp4_send(dhcpv4::MessageType::Request, fx);
            }
            (dhcpv4::MessageType::Ack, Dhcp4State::RequestSent) => {
                self.v4_addr = Some(msg.your_addr);
                self.v4_dns = msg.dns_servers.clone();
                self.v4_gateway = msg.router;
                self.dhcp4 = Dhcp4State::Bound;
                self.arp_for_gateway(fx);
            }
            _ => {}
        }
    }

    fn on_dhcp6(&mut self, payload: &[u8], fx: &mut Effects) {
        let Ok(msg) = dhcpv6::Repr::parse_bytes(payload) else {
            return;
        };
        if msg.client_id.as_deref() != Some(&self.duid()[..]) {
            return;
        }
        match msg.message_type {
            dhcpv6::MessageType::Advertise if self.dhcp6 == Dhcp6State::SolicitSent => {
                self.dhcp6 = Dhcp6State::RequestSent;
                self.dhcp6_send(dhcpv6::MessageType::Request, fx);
            }
            dhcpv6::MessageType::Reply => {
                if !msg.dns_servers.is_empty() && self.v6_dns.is_empty() {
                    self.v6_dns = msg.dns_servers.clone();
                }
                if self.dhcp6 == Dhcp6State::RequestSent {
                    if let Some(ia) = &msg.ia_na {
                        if let Some(addr) = ia.addresses.first() {
                            self.assign_with_dad(addr.addr, true, fx);
                            if self.profile.ipv6.dhcpv6_stateful_use {
                                self.stateful_addr = Some(addr.addr);
                            } else {
                                self.announced_extra.push(addr.addr);
                            }
                        }
                    }
                    self.dhcp6 = Dhcp6State::Done;
                }
            }
            _ => {}
        }
    }

    fn on_icmpv6(
        &mut self,
        src_mac: Mac,
        ip: &v6brick_net::ipv6::Repr,
        msg: &icmpv6::Repr,
        fx: &mut Effects,
    ) {
        match msg {
            icmpv6::Repr::Ndp(Ndp::RouterAdvert { managed, other_config, options, .. }) => {
                if !self.v6_may_run() {
                    return;
                }
                let mut prefix = None;
                let mut rdnss = Vec::new();
                for o in options {
                    match o {
                        NdpOption::PrefixInfo { autonomous: true, prefix: p, prefix_len: 64, .. } => {
                            prefix = Some(*p);
                        }
                        NdpOption::Rdnss { servers, .. } => rdnss = servers.clone(),
                        _ => {}
                    }
                }
                if !self.v6_started {
                    // Unsolicited RA can also kick off bringup.
                    self.start_v6(fx);
                }
                self.on_ra(src_mac, prefix, *managed, *other_config, rdnss, fx);
            }
            icmpv6::Repr::Ndp(Ndp::NeighborSolicit { target, .. })
                // Answer address resolution for our own addresses; stay
                // silent on DAD probes from `::` for our address (that
                // would mean a conflict — which the simulator never
                // creates).
                if self.owns_v6(*target) && !ip.src.is_unspecified() => {
                    let na = icmpv6::Repr::Ndp(Ndp::NeighborAdvert {
                        router: false,
                        solicited: true,
                        override_flag: true,
                        target: *target,
                        options: vec![NdpOption::TargetLinkLayerAddr(self.profile.mac)],
                    });
                    fx.send_frame(wire::icmpv6_frame(
                        self.profile.mac,
                        src_mac,
                        *target,
                        ip.src,
                        &na,
                    ));
                }
            icmpv6::Repr::EchoRequest { ident, seq, payload } => {
                // Reply from the pinged address (or the LLA on multicast
                // pings — the all-nodes harvest of §4.3).
                let src = if self.owns_v6(ip.dst) {
                    Some(ip.dst)
                } else if ip.dst.is_multicast() {
                    self.lla.or_else(|| self.owned_v6().next())
                } else {
                    None
                };
                if let Some(src) = src {
                    let reply = icmpv6::Repr::EchoReply {
                        ident: *ident,
                        seq: *seq,
                        payload: payload.clone(),
                    };
                    fx.send_frame(wire::icmpv6_frame(self.profile.mac, src_mac, src, ip.src, &reply));
                }
            }
            _ => {}
        }
    }

    fn on_udp_service(
        &mut self,
        is_v6: bool,
        dst_port: u16,
        src_port: u16,
        p: &ParsedPacket,
        fx: &mut Effects,
    ) {
        let open = if is_v6 {
            self.profile.app.open_udp_v6.contains(&dst_port)
        } else {
            self.profile.app.open_udp_v4.contains(&dst_port)
        };
        match (p.src_ip(), p.dst_ip()) {
            (Some(IpAddr::V6(peer)), Some(IpAddr::V6(me))) => {
                if open {
                    fx.send_frame(wire::udp6_frame(
                        self.profile.mac,
                        p.eth.src,
                        me,
                        peer,
                        dst_port,
                        src_port,
                        vec![0x77; 16],
                    ));
                } else {
                    // ICMPv6 port unreachable — the UDP scan "closed".
                    let unreachable = icmpv6::Repr::DstUnreachable { code: 4 };
                    fx.send_frame(wire::icmpv6_frame(
                        self.profile.mac,
                        p.eth.src,
                        me,
                        peer,
                        &unreachable,
                    ));
                }
            }
            (Some(IpAddr::V4(peer)), Some(IpAddr::V4(me))) if open => {
                fx.send_frame(wire::udp4_frame(
                    self.profile.mac,
                    p.eth.src,
                    me,
                    peer,
                    dst_port,
                    src_port,
                    vec![0x77; 16],
                ));
            }
            // (ICMPv4 port-unreachable omitted: the paper's UDP scans
            // focus on IPv6 exposure.)
            _ => {}
        }
    }
}

impl Host for IotDevice {
    fn mac(&self) -> Mac {
        self.profile.mac
    }

    fn on_start(&mut self, _now: SimTime, fx: &mut Effects) {
        fx.set_timer(SimTime::from_millis(self.boot_jitter_ms), TOKEN_TICK);
    }

    fn on_frame(&mut self, now: SimTime, frame: &[u8], fx: &mut Effects) {
        self.now_us = now.as_micros();
        // The NIC drops a group the device never joined unparsed.
        let Some(&dst) = frame.first_chunk() else {
            return;
        };
        if !self.listens_to(Mac(dst)) {
            return;
        }
        // Parse strictly first, then dispatch.
        if let Ok(p) = ParsedPacket::parse(frame) {
            if let L4::Tcp { .. } = p.l4 {
                self.handle_tcp(&p, fx);
                return;
            }
            self.handle_frame(&p, fx);
        }
    }

    fn on_timer(&mut self, now: SimTime, _token: u64, fx: &mut Effects) {
        self.now_us = now.as_micros();
        self.tick += 1;
        let t = self.tick;

        // IPv4 bringup (every device tries DHCPv4 — they are all v4-first
        // designs; in an IPv6-only network this simply never completes).
        if t >= 1 && self.dhcp4 == Dhcp4State::Idle && self.dhcp4_attempts < 5 {
            self.dhcp4_attempts += 1;
            self.dhcp4 = Dhcp4State::DiscoverSent;
            self.dhcp4_send(dhcpv4::MessageType::Discover, fx);
        }
        if t.is_multiple_of(10) && self.dhcp4 != Dhcp4State::Bound && self.dhcp4_attempts < 5 {
            self.dhcp4 = Dhcp4State::Idle; // retry
        }
        if self.dhcp4 == Dhcp4State::Bound && self.gateway_mac.is_none() && t.is_multiple_of(3) {
            self.arp_for_gateway(fx);
        }

        // IPv6 bringup.
        if t >= 3 && !self.v6_started && self.v6_may_run() {
            self.start_v6(fx);
        }
        // ThirdReality-style: if v4 came up later, tear v6 down is not
        // needed (we only ever started it when allowed); if v4 never came
        // and we deferred, retry RS.
        if self.v6_started && self.ra_prefix.is_none() && self.rs_sent < 4 && t.is_multiple_of(5) {
            self.send_rs(fx);
        }
        // ADDR_REQUIRES_V4 devices: once v4 binds, upgrade from probing to
        // full addressing.
        if self.v6_started
            && self.v6_full_addressing()
            && self.lla.is_none()
            && self.profile.ipv6.lla
        {
            let lla = self.make_lla(0);
            self.assign_with_dad(lla, false, fx);
            self.lla = Some(lla);
            if let Some(prefix) = self.ra_prefix {
                self.configure_guas(prefix, fx);
            }
        }
        if self.v6_started
            && self.v6_full_addressing()
            && self.ula.is_none()
            && self.profile.ipv6.ula
        {
            let iid = if self.profile.ipv6.lla_eui64 {
                self.profile.mac.to_eui64()
            } else {
                self.iid_random(0x01a)
            };
            let ula = Self::addr_from(self.ula_prefix(), iid);
            self.assign_with_dad(ula, true, fx);
            self.ula = Some(ula);
        }
        // Addressless probing: the paper's eight devices "use the
        // unspecified address :: to multicast NDP messages without
        // configuring an IPv6 address" — periodic router solicitations
        // from ::.
        if self.v6_started && !self.v6_full_addressing() && t.is_multiple_of(15) {
            let rs = icmpv6::Repr::Ndp(Ndp::RouterSolicit { options: vec![] });
            fx.send_frame(wire::icmpv6_frame(
                self.profile.mac,
                Mac::for_ipv6_multicast(mcast::ALL_ROUTERS),
                Ipv6Addr::UNSPECIFIED,
                mcast::ALL_ROUTERS,
                &rs,
            ));
        }
        // GUA late configuration for gua_requires_v4 devices.
        if self.v6_started && self.v6_full_addressing() {
            if let Some(prefix) = self.ra_prefix {
                let want_gua = self.profile.ipv6.slaac_gua
                    && !(self.profile.ipv6.gua_requires_v4 && self.v4_addr.is_none());
                let have_gua = self.eui_gua.is_some() || self.privacy_gua.is_some();
                if want_gua && !have_gua {
                    self.configure_guas(prefix, fx);
                }
            }
        }

        // DHCPv6 exchanges lost to frame drops are retried (the router's
        // server side is idempotent).
        if t >= 10 && t.is_multiple_of(7) {
            match self.dhcp6 {
                Dhcp6State::SolicitSent => self.dhcp6_send(dhcpv6::MessageType::Solicit, fx),
                Dhcp6State::RequestSent => self.dhcp6_send(dhcpv6::MessageType::Request, fx),
                _ => {}
            }
        }

        // DNS from tick 8, refreshed periodically (new transports may have
        // appeared).
        if t >= 8 && t.is_multiple_of(4) {
            self.dns_round(fx);
        }
        // Connections from tick 12.
        if t >= 12 && t.is_multiple_of(4) {
            self.connect_round(fx);
        }
        // NTP once transports settle.
        if t >= 14 {
            self.probe_round(fx);
        }
        // Local chatter every ~20 ticks.
        if t >= 10 && t.is_multiple_of(20) {
            self.local_round(fx);
        }
        // Churn every 6 ticks past boot.
        if t >= 20 && t.is_multiple_of(6) {
            self.churn_round(t, fx);
        }
        // Telemetry cadence on the settled clock.
        if t >= BOOT_TICKS && t.is_multiple_of(12) {
            self.telemetry_round(fx);
        }
        // A little deterministic jitter keeps device ticks from aligning.
        let step = if t < BOOT_TICKS {
            BOOT_TICK
        } else {
            SETTLED_TICK
        };
        let jitter = fx.rng.gen_range(0..2000u64);
        fx.set_timer(step + SimTime(jitter), TOKEN_TICK);
    }

    fn fork(&self) -> Option<Box<dyn Host>> {
        Some(Box::new(self.clone()))
    }

    fn as_any(&self) -> &dyn Any {
        self
    }

    fn as_any_mut(&mut self) -> &mut dyn Any {
        self
    }
}

impl IotDevice {
    /// A TCP segment: the client side of the device's own connections,
    /// and the server side the port scans probe.
    fn handle_tcp(&mut self, p: &ParsedPacket, fx: &mut Effects) {
        let L4::Tcp {
            src_port,
            dst_port,
            seq,
            flags,
            payload,
            ..
        } = &p.l4
        else {
            return;
        };
        let seq = *seq;

        // Client path.
        if let Some(conn) = self.conns.get_mut(dst_port) {
            if conn.remote_port == *src_port {
                if flags.contains(tcp::Flags::SYN) && flags.contains(tcp::Flags::ACK) {
                    conn.state = ConnState::Established;
                    conn.ack = seq.wrapping_add(1);
                    conn.last_rx_tick = self.tick;
                    let port = *dst_port;
                    let was_v6 = conn.remote.is_ipv6();
                    let domain = conn.domain.clone();
                    let (hello, padding) = tls::client_hello(&domain, 200);
                    self.send_on_conn(port, hello, padding, fx);
                    // A completed v6 handshake for a fallen-back domain
                    // means the v6 path recovered: the racing probe wins
                    // and the IPv4 leg is dropped (Table 9's switch back).
                    if was_v6 && self.fallback.remove(&domain).is_some() {
                        let v4_legs: Vec<u16> = self
                            .conns
                            .iter()
                            .filter(|(_, c)| c.domain == domain && c.remote.is_ipv4())
                            .map(|(p, _)| *p)
                            .collect();
                        for p in v4_legs {
                            self.conns.remove(&p);
                        }
                        self.record_switch(domain, true);
                    }
                } else if !payload.is_empty() {
                    conn.ack = seq.wrapping_add(payload.len() as u32);
                    conn.got_response = true;
                    conn.last_rx_tick = self.tick;
                    if !self.connected.contains(&conn.domain) {
                        self.connected.insert(conn.domain.clone());
                    }
                } else if flags.contains(tcp::Flags::RST) {
                    let port = *dst_port;
                    self.conns.remove(&port);
                }
                return;
            }
        }

        // Server path.
        if flags.contains(tcp::Flags::SYN) && !flags.contains(tcp::Flags::ACK) {
            let open = if p.is_ipv6() {
                self.profile.app.open_tcp_v6.contains(dst_port)
            } else {
                self.profile.app.open_tcp_v4.contains(dst_port)
            };
            let reply = if open {
                tcp::Repr {
                    src_port: *dst_port,
                    dst_port: *src_port,
                    seq: 1,
                    ack: seq.wrapping_add(1),
                    flags: tcp::Flags::SYN | tcp::Flags::ACK,
                    window: 0xffff,
                    payload: Vec::new(),
                }
            } else {
                tcp::Repr {
                    src_port: *dst_port,
                    dst_port: *src_port,
                    seq: 0,
                    ack: seq.wrapping_add(1),
                    flags: tcp::Flags::RST | tcp::Flags::ACK,
                    window: 0,
                    payload: Vec::new(),
                }
            };
            match (p.src_ip(), p.dst_ip()) {
                (Some(IpAddr::V6(peer)), Some(IpAddr::V6(me))) if self.owns_v6(me) => {
                    fx.send_frame(wire::tcp6_frame(
                        self.profile.mac,
                        p.eth.src,
                        me,
                        peer,
                        &reply,
                    ));
                }
                (Some(IpAddr::V4(peer)), Some(IpAddr::V4(me))) if Some(me) == self.v4_addr => {
                    fx.send_frame(wire::tcp4_frame(
                        self.profile.mac,
                        p.eth.src,
                        me,
                        peer,
                        &reply,
                    ));
                }
                _ => {}
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::registry;

    #[test]
    fn device_instantiates_for_every_profile() {
        for profile in registry::build() {
            let d = IotDevice::new(profile.clone());
            assert_eq!(d.mac(), profile.mac);
            assert!(!d.is_functional(), "nothing connected yet");
            assert!(d.v6_addresses().is_empty());
        }
    }

    #[test]
    fn jitter_is_deterministic_and_spread() {
        let profiles = registry::build();
        let jitters: Vec<u64> = profiles
            .iter()
            .map(|p| IotDevice::new(p.clone()).boot_jitter_ms)
            .collect();
        let again: Vec<u64> = profiles
            .iter()
            .map(|p| IotDevice::new(p.clone()).boot_jitter_ms)
            .collect();
        assert_eq!(jitters, again);
        let distinct: std::collections::HashSet<u64> = jitters.iter().copied().collect();
        assert!(distinct.len() > 50, "jitter should spread boots");
    }

    #[test]
    fn source_selection_follows_profile() {
        let mut d = IotDevice::new(registry::by_id("echo_plus"));
        d.eui_gua = Some("2001:db8:10:1::1".parse().unwrap());
        d.privacy_gua = Some("2001:db8:10:1::2".parse().unwrap());
        // Echo Plus uses its EUI-64 GUA for both DNS and data.
        assert_eq!(d.dns_src6(), d.eui_gua);
        assert_eq!(d.data_src6(), d.eui_gua);

        let mut d = IotDevice::new(registry::by_id("samsung_tv"));
        d.eui_gua = Some("2001:db8:10:1::1".parse().unwrap());
        d.privacy_gua = Some("2001:db8:10:1::2".parse().unwrap());
        // Samsung TV redirects traffic to the privacy GUA; only the echo
        // probe uses the EUI-64 address.
        assert_eq!(d.dns_src6(), d.privacy_gua);
        assert_eq!(d.data_src6(), d.privacy_gua);
        assert_eq!(d.echo_src6(), d.eui_gua);

        let mut d = IotDevice::new(registry::by_id("smartlife_hub"));
        d.eui_gua = Some("2001:db8:10:1::1".parse().unwrap());
        d.privacy_gua = Some("2001:db8:10:1::2".parse().unwrap());
        // SmartLife: DNS from EUI-64, data from privacy.
        assert_eq!(d.dns_src6(), d.eui_gua);
        assert_eq!(d.data_src6(), d.privacy_gua);

        let mut d = IotDevice::new(registry::by_id("samsung_fridge"));
        d.eui_gua = Some("2001:db8:10:1::1".parse().unwrap());
        d.stateful_addr = Some("2001:db8:10:1::d000".parse().unwrap());
        d.privacy_gua = Some("2001:db8:10:1::2".parse().unwrap());
        // Fridge: DNS/data from the stateful address, echo probe from
        // EUI-64 — and the privacy GUA as fallback without stateful.
        assert_eq!(d.dns_src6(), d.stateful_addr);
        assert_eq!(d.data_src6(), d.stateful_addr);
        assert_eq!(d.echo_src6(), d.eui_gua);
        d.stateful_addr = None;
        assert_eq!(d.dns_src6(), d.privacy_gua);
    }

    #[test]
    fn syn_ack_behind_an_extension_header_acks_its_own_seq() {
        use rand::SeedableRng;
        use v6brick_net::ipv4::Protocol;
        use v6brick_net::udp::PseudoHeader;
        let mut rng = rand::rngs::StdRng::seed_from_u64(1);
        let mut d = IotDevice::new(registry::by_id("google_home_mini"));
        let me: Ipv6Addr = "2001:db8:10:1::7".parse().unwrap();
        let server: Ipv6Addr = "2001:db8:ffff::1".parse().unwrap();
        d.privacy_gua = Some(me);
        d.router_mac6 = Some(well_known::ROUTER_MAC);
        let mut fx = Effects::new(&mut rng);
        d.open_v6(
            Name::new("cloud.example.com").unwrap(),
            server,
            443,
            &mut fx,
        );
        let (&local, _) = d.conns.iter().next().expect("SYN sent");

        // The SYN-ACK rides behind an 8-byte hop-by-hop header, so its
        // TCP header does not start 40 bytes into the IPv6 packet.
        let syn_ack = tcp::Repr {
            src_port: 443,
            dst_port: local,
            seq: 0x0102_0304,
            ack: 1,
            flags: tcp::Flags::SYN | tcp::Flags::ACK,
            window: 0xffff,
            payload: Vec::new(),
        }
        .build(PseudoHeader::V6 {
            src: server,
            dst: me,
        });
        let mut l3 = vec![6u8, 0, 1, 4, 0, 0, 0, 0];
        l3.extend_from_slice(&syn_ack);
        let ip = v6brick_net::ipv6::Repr {
            src: server,
            dst: me,
            next_header: Protocol::Other(0),
            hop_limit: 64,
            payload_len: l3.len(),
        }
        .build(&l3);
        let frame = wire::eth_frame(
            well_known::ROUTER_MAC,
            d.profile.mac,
            v6brick_net::ethernet::EtherType::Ipv6,
            &ip,
        );
        let mut fx = Effects::new(&mut rng);
        d.on_frame(SimTime::ZERO, &frame, &mut fx);
        let conn = &d.conns[&local];
        assert_eq!(conn.state, ConnState::Established);
        assert_eq!(conn.ack, 0x0102_0305);
    }

    #[test]
    fn lla_style_follows_eui64_flag() {
        let d = IotDevice::new(registry::by_id("echo_plus"));
        let lla = d.make_lla(0);
        assert!(lla.is_eui64());
        assert_eq!(lla.eui64_mac(), Some(d.profile.mac));

        let d = IotDevice::new(registry::by_id("apple_tv"));
        assert!(!d.make_lla(0).is_eui64());
    }

    #[test]
    fn dns_retry_backoff_and_dedup() {
        use rand::SeedableRng;
        use v6brick_net::dns::RecordType;
        let mut rng = rand::rngs::StdRng::seed_from_u64(1);
        let mut d = IotDevice::new(registry::by_id("google_home_mini"));
        // Fake a ready v6 transport.
        d.privacy_gua = Some("2001:db8:10:1:1234:aabb:1:2".parse().unwrap());
        d.v6_dns = vec![well_known::DNS6_PRIMARY];
        d.router_mac6 = Some(well_known::ROUTER_MAC);
        d.tick = 10;
        let name: Name = "retry.example".parse().unwrap();

        let mut fx = Effects::new(&mut rng);
        d.send_query(&name, RecordType::Aaaa, true, &mut fx);
        assert_eq!(fx.frames.len(), 1, "first attempt goes out");

        // Immediate duplicate: suppressed by the backoff window.
        let mut fx = Effects::new(&mut rng);
        d.send_query(&name, RecordType::Aaaa, true, &mut fx);
        assert!(fx.frames.is_empty(), "within backoff");

        // After the backoff expires, the retry goes out.
        d.tick = 16;
        let mut fx = Effects::new(&mut rng);
        d.send_query(&name, RecordType::Aaaa, true, &mut fx);
        assert_eq!(fx.frames.len(), 1, "retry after backoff");

        // Four attempts total, then silence.
        d.tick = 22;
        let third = {
            let mut fx = Effects::new(&mut rng);
            d.send_query(&name, RecordType::Aaaa, true, &mut fx);
            fx.frames.len()
        };
        d.tick = 28;
        let fourth = {
            let mut fx = Effects::new(&mut rng);
            d.send_query(&name, RecordType::Aaaa, true, &mut fx);
            fx.frames.len()
        };
        d.tick = 34;
        let fifth = {
            let mut fx = Effects::new(&mut rng);
            d.send_query(&name, RecordType::Aaaa, true, &mut fx);
            fx.frames.len()
        };
        assert_eq!((third, fourth, fifth), (1, 1, 0), "capped at 4 attempts");

        // An answered name is never re-queried.
        d.resolved6
            .insert(name.clone(), "2001:db8:ffff::1".parse().unwrap());
        d.tick = 60;
        let mut fx = Effects::new(&mut rng);
        d.send_query(&name, RecordType::Aaaa, true, &mut fx);
        assert!(fx.frames.is_empty(), "answered => no more queries");
    }

    #[test]
    fn negative_answer_stops_retries() {
        use rand::SeedableRng;
        use v6brick_net::dns::RecordType;
        let mut rng = rand::rngs::StdRng::seed_from_u64(2);
        let mut d = IotDevice::new(registry::by_id("google_home_mini"));
        d.privacy_gua = Some("2001:db8:10:1:1234:aabb:1:2".parse().unwrap());
        d.v6_dns = vec![well_known::DNS6_PRIMARY];
        d.router_mac6 = Some(well_known::ROUTER_MAC);
        d.tick = 10;
        let name: Name = "nxdomain.example".parse().unwrap();
        d.negative6.insert(name.clone());
        let mut fx = Effects::new(&mut rng);
        d.send_query(&name, RecordType::Aaaa, true, &mut fx);
        assert!(fx.frames.is_empty(), "negative answers are final");
    }

    #[test]
    fn fallback_latency_is_per_profile() {
        // Streaming boxes abandon a silent v6 path faster than the
        // embedded default.
        assert_eq!(registry::by_id("apple_tv").app.fallback_latency_ticks, 6);
        assert_eq!(
            registry::by_id("google_home_mini")
                .app
                .fallback_latency_ticks,
            8
        );
    }

    #[test]
    fn stalled_v6_session_falls_back_and_recovers_via_race() {
        use rand::SeedableRng;
        let mut rng = rand::rngs::StdRng::seed_from_u64(3);
        let mut d = IotDevice::new(registry::by_id("google_home_mini"));
        d.privacy_gua = Some("2001:db8:10:1:1234:aabb:1:2".parse().unwrap());
        d.router_mac6 = Some(well_known::ROUTER_MAC);
        d.v4_addr = Some("192.168.1.50".parse().unwrap());
        d.v4_gateway = Some("192.168.1.1".parse().unwrap());
        d.gateway_mac = Some(well_known::ROUTER_MAC);
        let dest = d
            .profile
            .required_destinations()
            .next()
            .unwrap()
            .domain
            .clone();
        let v6_target: Ipv6Addr = "2001:db8:ffff::10".parse().unwrap();
        d.resolved6.insert(dest.clone(), v6_target);
        d.resolved4
            .insert(dest.clone(), "198.51.100.10".parse().unwrap());

        // An established v6 session whose last telemetry burst (tick 52)
        // went unanswered.
        d.tick = 50;
        let mut fx = Effects::new(&mut rng);
        d.open_v6(dest.clone(), v6_target, 443, &mut fx);
        let port6 = *d.conns.keys().next().unwrap();
        {
            let c = d.conns.get_mut(&port6).unwrap();
            c.state = ConnState::Established;
            c.last_rx_tick = 50;
            c.last_tx_tick = 52;
        }
        d.connected.insert(dest.clone());

        // Six silent ticks: under the 8-tick latency, no fallback yet.
        d.tick = 58;
        let mut fx = Effects::new(&mut rng);
        d.connect_round(&mut fx);
        assert!(d.fallback.is_empty(), "not stalled yet");

        // Eight silent ticks: stall. The v6 session is torn down and the
        // destination reconnects over IPv4 in the same round.
        d.tick = 60;
        let mut fx = Effects::new(&mut rng);
        d.connect_round(&mut fx);
        assert!(d.fallback.contains_key(&dest));
        assert!(!d.connected.contains(&dest), "stalled domain disconnected");
        assert_eq!(d.switch_events.len(), 1);
        assert!(!d.switch_events[0].to_v6, "first event is the v6->v4 fall");
        let v4_port = *d
            .conns
            .iter()
            .find(|(_, c)| c.domain == dest)
            .map(|(p, c)| {
                assert!(c.remote.is_ipv4(), "reconnected over IPv4");
                p
            })
            .unwrap();
        {
            // Pretend the v4 handshake completed (the unit test has no
            // server side).
            let c = d.conns.get_mut(&v4_port).unwrap();
            c.state = ConnState::Established;
            c.got_response = true;
        }
        d.connected.insert(dest.clone());

        // At retry_at (= 60 + 12) the recovery race opens a fresh v6 SYN
        // alongside the live v4 leg and doubles the backoff (capped).
        d.tick = 72;
        let mut fx = Effects::new(&mut rng);
        d.connect_round(&mut fx);
        assert!(d
            .conns
            .values()
            .any(|c| c.domain == dest && c.remote.is_ipv6()));
        assert!(d
            .conns
            .values()
            .any(|c| c.domain == dest && c.remote.is_ipv4()));
        let fb = d.fallback.get(&dest).unwrap();
        assert_eq!((fb.backoff, fb.retry_at), (16, 88), "doubled and capped");

        // The racing SYN is answered: the device switches back to v6 and
        // drops the IPv4 leg.
        let (race_port, conn6) = d
            .conns
            .iter()
            .find(|(_, c)| c.domain == dest && c.remote.is_ipv6())
            .map(|(p, c)| (*p, c.clone()))
            .unwrap();
        let synack = tcp::Repr {
            src_port: 443,
            dst_port: race_port,
            seq: 9000,
            ack: conn6.seq,
            flags: tcp::Flags::SYN | tcp::Flags::ACK,
            window: 0xffff,
            payload: Vec::new(),
        };
        let frame = wire::tcp6_frame(
            well_known::ROUTER_MAC,
            d.profile.mac,
            v6_target,
            conn6.src6.unwrap(),
            &synack,
        );
        let mut fx = Effects::new(&mut rng);
        d.on_frame(SimTime::from_secs(300), &frame, &mut fx);
        assert!(d.fallback.is_empty(), "v6 path recovered");
        assert_eq!(d.switch_events.len(), 2);
        assert!(d.switch_events[1].to_v6, "second event is the recovery");
        assert_eq!(
            d.switch_events[1].at_us,
            SimTime::from_secs(300).as_micros()
        );
        assert!(
            d.conns
                .values()
                .all(|c| c.domain != dest || c.remote.is_ipv6()),
            "the losing v4 leg is dropped"
        );
    }

    #[test]
    fn stale_v6_syn_without_v4_never_blacklists() {
        use rand::SeedableRng;
        let mut rng = rand::rngs::StdRng::seed_from_u64(4);
        let mut d = IotDevice::new(registry::by_id("google_home_mini"));
        d.privacy_gua = Some("2001:db8:10:1:1234:aabb:1:2".parse().unwrap());
        d.router_mac6 = Some(well_known::ROUTER_MAC);
        let dest = d
            .profile
            .required_destinations()
            .next()
            .unwrap()
            .domain
            .clone();
        let v6_target: Ipv6Addr = "2001:db8:ffff::10".parse().unwrap();
        d.resolved6.insert(dest.clone(), v6_target);
        d.tick = 50;
        let mut fx = Effects::new(&mut rng);
        d.open_v6(dest.clone(), v6_target, 443, &mut fx);
        // The SYN goes stale, but with no IPv4 there is nothing to fall
        // back to: the only usable family must keep retrying.
        d.tick = 60;
        let mut fx = Effects::new(&mut rng);
        d.connect_round(&mut fx);
        assert!(d.fallback.is_empty(), "no v4 => no fallback entry");
        assert!(
            d.conns.values().any(|c| c.domain == dest),
            "v6 handshake retried immediately"
        );
        assert!(d.switch_events.is_empty());
    }

    #[test]
    fn ula_prefix_is_fd00_7() {
        let d = IotDevice::new(registry::by_id("homepod_mini"));
        let p = d.ula_prefix();
        assert!(p.is_unique_local(), "{p} must be a ULA prefix");
    }

    /// A peer on the LAN, and its link-local address.
    const PEER: Mac = Mac::new(2, 0, 0, 0, 0, 0x99);
    const PEER_LLA: Ipv6Addr = Ipv6Addr::new(0xfe80, 0, 0, 0, 0, 0, 0, 0x99);

    /// A device holding an LLA, a GUA and an announced extra address,
    /// whose low 24 bits all differ.
    fn addressed_device() -> IotDevice {
        let mut d = IotDevice::new(registry::by_id("google_home_mini"));
        d.lla = Some("fe80::1:1111".parse().unwrap());
        d.privacy_gua = Some("2001:db8:10:1::2:2222".parse().unwrap());
        d.announced_extra
            .push("2001:db8:10:1::3:3333".parse().unwrap());
        d
    }

    /// The frames `d` sends in answer to `frame`.
    fn answers(d: &mut IotDevice, frame: &[u8]) -> Vec<Vec<u8>> {
        use rand::SeedableRng;
        let mut rng = rand::rngs::StdRng::seed_from_u64(1);
        let mut fx = Effects::new(&mut rng);
        d.on_frame(SimTime::ZERO, frame, &mut fx);
        assert!(fx.timers.is_empty() && fx.wan.is_empty());
        fx.frames
    }

    /// `msg` from the peer's LLA to the IPv6 group `group`.
    fn to_group(group: Ipv6Addr, msg: &icmpv6::Repr) -> Vec<u8> {
        wire::icmpv6_frame(PEER, Mac::for_ipv6_multicast(group), PEER_LLA, group, msg)
    }

    #[test]
    fn a_device_answers_an_ns_to_the_solicited_node_group_of_each_address() {
        let mut d = addressed_device();
        for target in d.v6_addresses() {
            let ns = icmpv6::Repr::Ndp(Ndp::NeighborSolicit {
                target,
                options: vec![NdpOption::SourceLinkLayerAddr(PEER)],
            });
            let na = answers(&mut d, &to_group(target.solicited_node(), &ns));
            assert_eq!(na.len(), 1, "NS for {target}");
            let p = ParsedPacket::parse(&na[0]).unwrap();
            assert_eq!(p.eth.dst, PEER);
            assert!(matches!(
                p.l4,
                L4::Icmpv6(icmpv6::Repr::Ndp(Ndp::NeighborAdvert { target: t, .. })) if t == target
            ));
        }
    }

    #[test]
    fn a_device_still_hears_broadcast_arp_and_all_nodes_ras() {
        let mut d = addressed_device();
        let me = Ipv4Addr::new(192, 168, 1, 50);
        d.v4_addr = Some(me);
        let who_has = v6brick_net::arp::Repr::request(PEER, Ipv4Addr::new(192, 168, 1, 9), me);
        let arp = wire::eth_frame(
            PEER,
            Mac::BROADCAST,
            v6brick_net::ethernet::EtherType::Arp,
            &who_has.build(),
        );
        let reply = answers(&mut d, &arp);
        assert_eq!(reply.len(), 1);
        assert!(
            matches!(ParsedPacket::parse(&reply[0]).unwrap().net, Net::Arp(a)
            if a.operation == v6brick_net::arp::Operation::Reply && a.sender_ip == me)
        );

        let ra = icmpv6::Repr::Ndp(Ndp::RouterAdvert {
            hop_limit: 64,
            managed: false,
            other_config: false,
            router_lifetime: 1800,
            reachable_time: 0,
            retrans_time: 0,
            options: vec![NdpOption::PrefixInfo {
                prefix_len: 64,
                on_link: true,
                autonomous: true,
                valid_lifetime: 86_400,
                preferred_lifetime: 14_400,
                prefix: well_known::LAN_PREFIX,
            }],
        });
        let ra = wire::icmpv6_frame(
            well_known::ROUTER_MAC,
            Mac::for_ipv6_multicast(mcast::ALL_NODES),
            well_known::ROUTER_LLA,
            mcast::ALL_NODES,
            &ra,
        );
        answers(&mut d, &ra);
        assert_eq!(d.ra_prefix, Some(well_known::LAN_PREFIX));
        assert_eq!(d.router_mac6, Some(well_known::ROUTER_MAC));
    }

    #[test]
    fn a_device_drops_groups_it_never_joined_unparsed() {
        let mut d = addressed_device();
        // A ping to any group the device hears draws a reply, so one sent
        // to a group it did not join shows the frame never got that far.
        let ping = icmpv6::Repr::EchoRequest {
            ident: 7,
            seq: 1,
            payload: vec![],
        };
        assert_eq!(answers(&mut d, &to_group(mcast::ALL_NODES, &ping)).len(), 1);
        let other_device: Ipv6Addr = "2001:db8:10:1::4:4444".parse().unwrap();
        let mld = Ipv6Addr::new(0xff02, 0, 0, 0, 0, 0, 0, 0x16);
        for group in [
            mcast::MDNS,
            mld,
            mcast::ALL_ROUTERS,
            mcast::DHCPV6_SERVERS,
            other_device.solicited_node(),
        ] {
            assert!(
                answers(&mut d, &to_group(group, &ping)).is_empty(),
                "{group}"
            );
        }
        // mDNS over IPv4: 224.0.0.251 on 01:00:5e:00:00:fb.
        d.v4_addr = Some(Ipv4Addr::new(192, 168, 1, 50));
        let mdns4 = wire::udp4_frame(
            PEER,
            Mac::new(0x01, 0, 0x5e, 0, 0, 0xfb),
            Ipv4Addr::new(192, 168, 1, 9),
            Ipv4Addr::new(224, 0, 0, 251),
            5353,
            5353,
            Message::query(0, Name::new("_matter._tcp.local").unwrap(), RecordType::Ptr).build(),
        );
        assert!(answers(&mut d, &mdns4).is_empty());
    }
}
