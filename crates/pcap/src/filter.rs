//! Typed packet filters — the role BPF expressions play in the paper's
//! tcpdump-based pipeline, but checked at compile time.

use std::net::IpAddr;
use v6brick_net::ipv4::Protocol;
use v6brick_net::parse::{Net, ParsedPacket, L4};
use v6brick_net::Mac;

/// Which IP family a filter selects.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum IpVersion {
    /// V4.
    V4,
    /// V6.
    V6,
}

/// A conjunctive packet filter: every populated field must match.
///
/// ```
/// use v6brick_pcap::filter::{Filter, IpVersion};
///
/// // tcpdump's `ip6 and udp port 53`:
/// let dns6 = Filter::new().ip_version(IpVersion::V6).port(53);
/// # let _ = dns6;
/// ```
#[derive(Debug, Clone, Default)]
pub struct Filter {
    ip_version: Option<IpVersion>,
    protocol: Option<Protocol>,
    port: Option<u16>,
    src_mac: Option<Mac>,
    either_mac: Option<Mac>,
    ip: Option<IpAddr>,
}

impl Filter {
    /// A filter matching everything.
    pub fn new() -> Filter {
        Filter::default()
    }

    /// Require the given IP family.
    pub fn ip_version(mut self, v: IpVersion) -> Filter {
        self.ip_version = Some(v);
        self
    }

    /// Require the given transport protocol.
    pub fn protocol(mut self, p: Protocol) -> Filter {
        self.protocol = Some(p);
        self
    }

    /// Require either TCP/UDP port to equal `port`.
    pub fn port(mut self, port: u16) -> Filter {
        self.port = Some(port);
        self
    }

    /// Require the frame's source MAC (device attribution — the paper keys
    /// every per-device statistic on the MAC).
    pub fn src_mac(mut self, mac: Mac) -> Filter {
        self.src_mac = Some(mac);
        self
    }

    /// Require the frame's source *or* destination MAC.
    pub fn either_mac(mut self, mac: Mac) -> Filter {
        self.either_mac = Some(mac);
        self
    }

    /// Require either IP address to equal `ip`.
    pub fn ip(mut self, ip: IpAddr) -> Filter {
        self.ip = Some(ip);
        self
    }

    /// Does `p` satisfy every populated condition?
    pub fn matches(&self, p: &ParsedPacket) -> bool {
        if let Some(v) = self.ip_version {
            let ok = match v {
                IpVersion::V4 => matches!(p.net, Net::Ipv4(_)),
                IpVersion::V6 => matches!(p.net, Net::Ipv6(_)),
            };
            if !ok {
                return false;
            }
        }
        if let Some(proto) = self.protocol {
            let actual = match (&p.net, &p.l4) {
                (_, L4::Udp { .. }) => Some(Protocol::Udp),
                (_, L4::Tcp { .. }) => Some(Protocol::Tcp),
                (_, L4::Icmpv4 { .. }) => Some(Protocol::Icmp),
                (_, L4::Icmpv6(_)) => Some(Protocol::Icmpv6),
                (Net::Ipv4(r), L4::Other { .. }) => Some(r.protocol),
                (Net::Ipv6(r), L4::Other { .. }) => Some(r.next_header),
                _ => None,
            };
            if actual != Some(proto) {
                return false;
            }
        }
        if let Some(port) = self.port {
            if !p.involves_port(port) {
                return false;
            }
        }
        if let Some(mac) = self.src_mac {
            if p.eth.src != mac {
                return false;
            }
        }
        if let Some(mac) = self.either_mac {
            if p.eth.src != mac && p.eth.dst != mac {
                return false;
            }
        }
        if let Some(ip) = self.ip {
            if p.src_ip() != Some(ip) && p.dst_ip() != Some(ip) {
                return false;
            }
        }
        true
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::net::Ipv6Addr;
    use v6brick_net::ethernet::{EtherType, Repr as EthRepr};
    use v6brick_net::udp::{PseudoHeader, Repr as UdpRepr};
    use v6brick_net::{ipv6, parse::ParsedPacket};

    fn dns6_frame(src_mac: Mac) -> Vec<u8> {
        let src: Ipv6Addr = "2001:db8::10".parse().unwrap();
        let dst: Ipv6Addr = "2001:4860:4860::8888".parse().unwrap();
        let udp = UdpRepr {
            src_port: 40001,
            dst_port: 53,
            payload: vec![0; 12],
        }
        .build(PseudoHeader::V6 { src, dst });
        let ip = ipv6::Repr {
            src,
            dst,
            next_header: Protocol::Udp,
            hop_limit: 64,
            payload_len: udp.len(),
        }
        .build(&udp);
        EthRepr {
            src: src_mac,
            dst: Mac::new(2, 0, 0, 0, 0, 0xfe),
            ethertype: EtherType::Ipv6,
        }
        .build(&ip)
    }

    #[test]
    fn conjunctive_matching() {
        let mac = Mac::new(2, 0, 0, 0, 0, 9);
        let frame = dns6_frame(mac);
        let p = ParsedPacket::parse(&frame).unwrap();
        assert!(Filter::new().matches(&p));
        assert!(Filter::new()
            .ip_version(IpVersion::V6)
            .protocol(Protocol::Udp)
            .port(53)
            .src_mac(mac)
            .matches(&p));
        assert!(!Filter::new().ip_version(IpVersion::V4).matches(&p));
        assert!(!Filter::new().port(443).matches(&p));
        assert!(!Filter::new().src_mac(Mac::BROADCAST).matches(&p));
        assert!(Filter::new()
            .either_mac(Mac::new(2, 0, 0, 0, 0, 0xfe))
            .matches(&p));
        assert!(Filter::new()
            .ip("2001:4860:4860::8888".parse().unwrap())
            .matches(&p));
        assert!(!Filter::new()
            .ip("2001:db8::99".parse().unwrap())
            .matches(&p));
    }
}
