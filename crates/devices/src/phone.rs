//! The verification phones (§4.2): a Google Pixel 7 and an iPhone X with
//! complete, modern dual-stack support. The paper uses them to confirm
//! each network configuration actually works before attributing failures
//! to the IoT devices; the experiment harness does the same.

use rand::Rng;
use std::any::Any;
use std::collections::HashMap;
use std::net::{Ipv4Addr, Ipv6Addr};
use v6brick_net::dns::{MessageView, Name, RecordType, Writer};
use v6brick_net::ipv6::mcast;
use v6brick_net::ndp::{NdpOption, Repr as Ndp};
use v6brick_net::parse::{Net, ParsedPacket, L4};
use v6brick_net::{dhcpv4, icmpv6, Mac};
use v6brick_sim::event::SimTime;
use v6brick_sim::host::{Effects, Host};
use v6brick_sim::wire;

const TOKEN_TICK: u64 = 1;

/// A modern phone: SLAAC with privacy extensions, RDNSS, DHCPv4, DNS over
/// both families, and a connectivity check against a canary domain.
pub struct Phone {
    name: &'static str,
    mac: Mac,
    canary: Name,
    tick: u32,
    v4_addr: Option<Ipv4Addr>,
    v4_dns: Vec<Ipv4Addr>,
    gateway_mac: Option<Mac>,
    lla: Option<Ipv6Addr>,
    gua: Option<Ipv6Addr>,
    v6_dns: Vec<Ipv6Addr>,
    router_mac: Option<Mac>,
    pending: HashMap<u16, RecordType>,
    /// Did the canary resolve over v4 / over v6?
    pub canary_v4: bool,
    /// Did the canary domain resolve over IPv6 transport?
    pub canary_v6: bool,
    discover_sent: bool,
    seed: u64,
}

impl Phone {
    /// The Google Pixel 7.
    pub fn pixel7() -> Phone {
        Phone::new("pixel7", Mac::new(0x02, 0x9a, 0x11, 0x70, 0x00, 0x01))
    }

    /// The iPhone X.
    pub fn iphone_x() -> Phone {
        Phone::new("iphone-x", Mac::new(0x02, 0x9a, 0x11, 0x70, 0x00, 0x02))
    }

    fn new(name: &'static str, mac: Mac) -> Phone {
        let seed = mac
            .as_bytes()
            .iter()
            .fold(7u64, |a, b| a * 131 + u64::from(*b));
        Phone {
            name,
            mac,
            canary: Name::new("connectivity-check.phone.example").unwrap(),
            tick: 0,
            v4_addr: None,
            v4_dns: Vec::new(),
            gateway_mac: None,
            lla: None,
            gua: None,
            v6_dns: Vec::new(),
            router_mac: None,
            pending: HashMap::new(),
            canary_v4: false,
            canary_v6: false,
            discover_sent: false,
            seed,
        }
    }

    /// The phone's id for diagnostics.
    pub fn name(&self) -> &'static str {
        self.name
    }

    /// Network verification: at least one family is fully working.
    pub fn network_ok(&self) -> bool {
        self.canary_v4 || self.canary_v6
    }

    /// The canary domain the harness must register in the zone database.
    pub fn canary_domain() -> Name {
        Name::new("connectivity-check.phone.example").unwrap()
    }

    fn privacy_iid(&self, salt: u64) -> [u8; 8] {
        let mut h = self.seed ^ salt.wrapping_mul(0x2545_f491_4f6c_dd1d);
        h ^= h >> 29;
        let mut iid = h.to_be_bytes();
        iid[3] = 0xcc;
        iid[4] = 0xdd;
        iid
    }
}

impl Host for Phone {
    fn mac(&self) -> Mac {
        self.mac
    }

    fn on_start(&mut self, _now: SimTime, fx: &mut Effects) {
        fx.set_timer(SimTime::from_millis(500 + self.seed % 700), TOKEN_TICK);
    }

    fn on_frame(&mut self, _now: SimTime, frame: &[u8], fx: &mut Effects) {
        let Ok(p) = ParsedPacket::parse(frame) else {
            return;
        };
        match (&p.net, &p.l4) {
            (
                Net::Ipv4(_),
                L4::Udp {
                    src_port: 67,
                    dst_port: 68,
                    payload,
                },
            ) => {
                if let Ok(msg) = dhcpv4::Repr::parse_bytes(payload) {
                    if msg.client_mac != self.mac {
                        return;
                    }
                    match msg.message_type {
                        dhcpv4::MessageType::Offer => {
                            self.v4_addr = Some(msg.your_addr);
                            let mut req =
                                dhcpv4::Repr::client(dhcpv4::MessageType::Request, 0x9a, self.mac);
                            req.requested_ip = Some(msg.your_addr);
                            req.server_id = msg.server_id;
                            fx.send_frame(wire::udp4_frame(
                                self.mac,
                                Mac::BROADCAST,
                                Ipv4Addr::UNSPECIFIED,
                                Ipv4Addr::BROADCAST,
                                68,
                                67,
                                req.build(),
                            ));
                        }
                        dhcpv4::MessageType::Ack => {
                            self.v4_addr = Some(msg.your_addr);
                            self.v4_dns = msg.dns_servers.clone();
                            self.gateway_mac = Some(p.eth.src);
                        }
                        _ => {}
                    }
                }
            }
            (Net::Ipv6(_), L4::Icmpv6(icmpv6::Repr::Ndp(Ndp::RouterAdvert { options, .. }))) => {
                self.router_mac = Some(p.eth.src);
                if self.lla.is_none() {
                    let lla = Phone::addr(
                        Ipv6Addr::new(0xfe80, 0, 0, 0, 0, 0, 0, 0),
                        self.privacy_iid(1),
                    );
                    self.lla = Some(lla);
                }
                for o in options {
                    match o {
                        NdpOption::PrefixInfo {
                            autonomous: true,
                            prefix,
                            ..
                        } if self.gua.is_none() => {
                            let gua = Phone::addr(*prefix, self.privacy_iid(2));
                            self.gua = Some(gua);
                            // Announce so the router can route back.
                            let na = icmpv6::Repr::Ndp(Ndp::NeighborAdvert {
                                router: false,
                                solicited: false,
                                override_flag: true,
                                target: gua,
                                options: vec![NdpOption::TargetLinkLayerAddr(self.mac)],
                            });
                            fx.send_frame(wire::icmpv6_frame(
                                self.mac,
                                Mac::for_ipv6_multicast(mcast::ALL_NODES),
                                gua,
                                mcast::ALL_NODES,
                                &na,
                            ));
                        }
                        NdpOption::Rdnss { servers, .. } => {
                            self.v6_dns = servers.clone();
                        }
                        _ => {}
                    }
                }
            }
            (
                _,
                L4::Udp {
                    src_port: 53,
                    payload,
                    ..
                },
            ) => {
                if let Ok(msg) = MessageView::new(payload) {
                    if let Some(rtype) = self.pending.remove(&msg.id()) {
                        match rtype {
                            RecordType::A if msg.a_answers().next().is_some() => {
                                self.canary_v4 = true;
                            }
                            RecordType::Aaaa if msg.aaaa_answers().next().is_some() => {
                                self.canary_v6 = true;
                            }
                            _ => {}
                        }
                    }
                }
            }
            _ => {}
        }
    }

    fn on_timer(&mut self, _now: SimTime, _token: u64, fx: &mut Effects) {
        self.tick += 1;
        if !self.discover_sent {
            self.discover_sent = true;
            let mut d = dhcpv4::Repr::client(dhcpv4::MessageType::Discover, 0x9a, self.mac);
            d.hostname = Some(self.name.to_string());
            fx.send_frame(wire::udp4_frame(
                self.mac,
                Mac::BROADCAST,
                Ipv4Addr::UNSPECIFIED,
                Ipv4Addr::BROADCAST,
                68,
                67,
                d.build(),
            ));
            // And solicit routers.
            let rs = icmpv6::Repr::Ndp(Ndp::RouterSolicit { options: vec![] });
            fx.send_frame(wire::icmpv6_frame(
                self.mac,
                Mac::for_ipv6_multicast(mcast::ALL_ROUTERS),
                Ipv6Addr::UNSPECIFIED,
                mcast::ALL_ROUTERS,
                &rs,
            ));
        }
        // Connectivity checks once transports are up.
        if self.tick >= 5 {
            if let (Some(src), Some(&dns), Some(gw)) =
                (self.v4_addr, self.v4_dns.first(), self.gateway_mac)
            {
                if !self.canary_v4 {
                    let id = 0x4a00 | (self.tick as u16 & 0xff);
                    self.pending.insert(id, RecordType::A);
                    let q = Writer::query(id, self.canary.as_str(), RecordType::A);
                    fx.send_frame(wire::udp4_frame(self.mac, gw, src, dns, 40053, 53, q));
                }
            }
            if let (Some(src), Some(&dns), Some(rm)) =
                (self.gua, self.v6_dns.first(), self.router_mac)
            {
                if !self.canary_v6 {
                    let id = 0x6a00 | (self.tick as u16 & 0xff);
                    self.pending.insert(id, RecordType::Aaaa);
                    let q = Writer::query(id, self.canary.as_str(), RecordType::Aaaa);
                    fx.send_frame(wire::udp6_frame(self.mac, rm, src, dns, 40053, 53, q));
                }
            }
        }
        let jitter = fx.rng.gen_range(0..500u64);
        fx.set_timer(SimTime::from_secs(2) + SimTime(jitter), TOKEN_TICK);
    }

    fn as_any(&self) -> &dyn Any {
        self
    }

    fn as_any_mut(&mut self) -> &mut dyn Any {
        self
    }
}

impl Phone {
    fn addr(prefix: Ipv6Addr, iid: [u8; 8]) -> Ipv6Addr {
        let mut o = prefix.octets();
        o[8..].copy_from_slice(&iid);
        Ipv6Addr::from(o)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn phones_have_distinct_identities() {
        let p = Phone::pixel7();
        let i = Phone::iphone_x();
        assert_ne!(p.mac(), i.mac());
        assert_ne!(p.name(), i.name());
        assert!(!p.network_ok());
    }

    #[test]
    fn privacy_iids_are_not_eui64() {
        use v6brick_net::ipv6::Ipv6AddrExt;
        let p = Phone::pixel7();
        let a = Phone::addr("2001:db8:10:1::".parse().unwrap(), p.privacy_iid(2));
        assert!(!a.is_eui64());
    }
}
