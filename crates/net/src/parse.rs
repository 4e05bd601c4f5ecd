//! Full-stack packet parsing: from raw Ethernet frame bytes to a typed
//! summary the capture pipeline can classify without re-walking buffers.

use crate::error::{Error, Result};
use crate::ipv4::Protocol;
use crate::mac::Mac;
use crate::{arp, ethernet, icmpv6, ipv4, ipv6, tcp, udp};
use std::net::IpAddr;

/// Layer-3 content of a frame.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum Net {
    /// Arp.
    Arp(arp::Repr),
    /// Ipv4.
    Ipv4(ipv4::Repr),
    /// Ipv6.
    Ipv6(ipv6::Repr),
    /// EtherType we do not model; payload discarded.
    Other(u16),
}

/// Layer-4 content of a frame. Payloads borrow the frame's buffer.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum L4<'a> {
    /// Udp.
    Udp {
        /// Source port.
        src_port: u16,
        /// Destination port.
        dst_port: u16,
        /// Payload (cut at the length field).
        payload: &'a [u8],
    },
    /// Tcp.
    Tcp {
        /// Source port.
        src_port: u16,
        /// Destination port.
        dst_port: u16,
        /// Sequence number.
        seq: u32,
        /// Acknowledgement number.
        ack: u32,
        /// Flags.
        flags: tcp::Flags,
        /// Payload.
        payload: &'a [u8],
    },
    /// Icmpv4.
    Icmpv4 {
        /// Raw body; decode with [`crate::icmpv4::Repr::parse_bytes`] on demand.
        raw: &'a [u8],
    },
    /// Icmpv6.
    Icmpv6(icmpv6::Repr),
    /// 6in4 or other nested/unknown payloads.
    Other {
        /// Protocol.
        protocol: u8,
        /// Payload length.
        payload_len: usize,
    },
    /// ARP and friends have no L4.
    None,
}

/// A frame parsed down to layer 4, borrowing its payloads from the
/// frame's buffer: parsing copies no payload byte.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct ParsedPacket<'a> {
    /// Eth.
    pub eth: ethernet::Repr,
    /// Net.
    pub net: Net,
    /// L4.
    pub l4: L4<'a>,
}

impl<'a> ParsedPacket<'a> {
    /// Parse a raw Ethernet frame.
    pub fn parse(frame: &'a [u8]) -> Result<ParsedPacket<'a>> {
        let f = ethernet::Frame::new_checked(frame)?;
        let eth = ethernet::Repr::parse(&f);
        let (net, l4) = match eth.ethertype {
            ethernet::EtherType::Arp => {
                let a = arp::Repr::parse_bytes(f.payload())?;
                (Net::Arp(a), L4::None)
            }
            ethernet::EtherType::Ipv4 => {
                let p = ipv4::Packet::new_checked(f.payload())?;
                let repr = ipv4::Repr::parse(&p);
                let l4 = parse_l4_v4(&repr, p.payload())?;
                (Net::Ipv4(repr), l4)
            }
            ethernet::EtherType::Ipv6 => {
                let p = ipv6::Packet::new_checked(f.payload())?;
                let repr = ipv6::Repr::parse(&p);
                let l4 = parse_l4_v6(&repr, p.payload())?;
                (Net::Ipv6(repr), l4)
            }
            ethernet::EtherType::Other(o) => (Net::Other(o), L4::None),
        };
        Ok(ParsedPacket { eth, net, l4 })
    }

    /// Source MAC.
    pub fn src_mac(&self) -> Mac {
        self.eth.src
    }

    /// Source IP, if this is an IP packet.
    pub fn src_ip(&self) -> Option<IpAddr> {
        match &self.net {
            Net::Ipv4(r) => Some(IpAddr::V4(r.src)),
            Net::Ipv6(r) => Some(IpAddr::V6(r.src)),
            _ => None,
        }
    }

    /// Destination IP, if this is an IP packet.
    pub fn dst_ip(&self) -> Option<IpAddr> {
        match &self.net {
            Net::Ipv4(r) => Some(IpAddr::V4(r.dst)),
            Net::Ipv6(r) => Some(IpAddr::V6(r.dst)),
            _ => None,
        }
    }

    /// Is this an IPv6 frame?
    pub fn is_ipv6(&self) -> bool {
        matches!(self.net, Net::Ipv6(_))
    }

    /// (src_port, dst_port) for TCP/UDP.
    pub fn ports(&self) -> Option<(u16, u16)> {
        match &self.l4 {
            L4::Udp {
                src_port, dst_port, ..
            }
            | L4::Tcp {
                src_port, dst_port, ..
            } => Some((*src_port, *dst_port)),
            _ => None,
        }
    }

    /// UDP/TCP application payload bytes, if any.
    pub fn l4_payload(&self) -> Option<&'a [u8]> {
        match &self.l4 {
            L4::Udp { payload, .. } | L4::Tcp { payload, .. } => Some(payload),
            _ => None,
        }
    }

    /// Does either port match?
    pub fn involves_port(&self, port: u16) -> bool {
        self.ports()
            .map(|(s, d)| s == port || d == port)
            .unwrap_or(false)
    }
}

/// The UDP or TCP layer of `payload`, whose protocol is `protocol`;
/// `None` for any other protocol.
fn parse_transport(protocol: Protocol, payload: &[u8]) -> Option<Result<L4<'_>>> {
    let l4 = match protocol {
        Protocol::Udp => udp::Packet::new_checked(payload).map(|u| L4::Udp {
            src_port: u.src_port(),
            dst_port: u.dst_port(),
            payload: u.payload(),
        }),
        Protocol::Tcp => tcp::Packet::new_checked(payload).map(|t| L4::Tcp {
            src_port: t.src_port(),
            dst_port: t.dst_port(),
            seq: t.seq(),
            ack: t.ack(),
            flags: t.flags(),
            payload: t.payload(),
        }),
        _ => return None,
    };
    Some(l4)
}

fn parse_l4_v4<'a>(ip: &ipv4::Repr, payload: &'a [u8]) -> Result<L4<'a>> {
    if let Some(l4) = parse_transport(ip.protocol, payload) {
        return l4;
    }
    Ok(match ip.protocol {
        Protocol::Icmp => L4::Icmpv4 { raw: payload },
        p => L4::Other {
            protocol: p.into(),
            payload_len: payload.len(),
        },
    })
}

/// Walk the IPv6 extension-header chain to the real upper-layer header.
/// Returns the effective next-header value and the offset where its data
/// starts. Handles hop-by-hop (0), routing (43), and destination options
/// (60) — the chains present in real captures (router alerts on MLD,
/// RPL artifacts); fragments (44) are reported as-is since a fragment
/// has no complete L4 to parse.
fn skip_extension_headers(first: u8, payload: &[u8]) -> Result<(u8, usize)> {
    let mut next = first;
    let mut off = 0usize;
    // RFC 8200 mandates each extension header appear at most once; a
    // small bound also protects against crafted loops.
    for _ in 0..8 {
        match next {
            0 | 43 | 60 => {
                if payload.len() < off + 8 {
                    return Err(Error::Truncated);
                }
                let hdr_len = 8 + usize::from(payload[off + 1]) * 8;
                if payload.len() < off + hdr_len {
                    return Err(Error::Truncated);
                }
                next = payload[off];
                off += hdr_len;
            }
            _ => return Ok((next, off)),
        }
    }
    Err(Error::Malformed)
}

fn parse_l4_v6<'a>(ip: &ipv6::Repr, payload: &'a [u8]) -> Result<L4<'a>> {
    // Resolve extension headers first so MLD-with-router-alert and
    // similar real-world chains parse down to their actual L4.
    let (next, off) = skip_extension_headers(ip.next_header.into(), payload)?;
    let ip = &ipv6::Repr {
        next_header: next.into(),
        ..*ip
    };
    let payload = &payload[off..];
    if let Some(l4) = parse_transport(ip.next_header, payload) {
        return l4;
    }
    match ip.next_header {
        Protocol::Icmpv6 => {
            let i = icmpv6::Repr::parse_bytes(ip.src, ip.dst, payload)?;
            Ok(L4::Icmpv6(i))
        }
        p => Ok(L4::Other {
            protocol: p.into(),
            payload_len: payload.len(),
        }),
    }
}

/// Parse a frame leniently: a frame whose L4 fails to decode (bad checksum,
/// truncation) is still returned with [`L4::Other`] so capture statistics
/// do not silently drop it.
pub fn parse_lenient(frame: &[u8]) -> Result<ParsedPacket<'_>> {
    match ParsedPacket::parse(frame) {
        Ok(p) => Ok(p),
        Err(Error::Truncated)
        | Err(Error::BadChecksum)
        | Err(Error::Malformed)
        | Err(Error::BadName)
        | Err(Error::Unsupported) => {
            // Retry at L3 only.
            let f = ethernet::Frame::new_checked(frame)?;
            let eth = ethernet::Repr::parse(&f);
            let net = match eth.ethertype {
                ethernet::EtherType::Ipv4 => ipv4::Packet::new_checked(f.payload())
                    .map(|p| Net::Ipv4(ipv4::Repr::parse(&p)))
                    .unwrap_or(Net::Other(0x0800)),
                ethernet::EtherType::Ipv6 => ipv6::Packet::new_checked(f.payload())
                    .map(|p| Net::Ipv6(ipv6::Repr::parse(&p)))
                    .unwrap_or(Net::Other(0x86dd)),
                ethernet::EtherType::Arp => Net::Other(0x0806),
                ethernet::EtherType::Other(o) => Net::Other(o),
            };
            let protocol = match &net {
                Net::Ipv4(r) => r.protocol.into(),
                Net::Ipv6(r) => r.next_header.into(),
                _ => 0,
            };
            Ok(ParsedPacket {
                eth,
                net,
                l4: L4::Other {
                    protocol,
                    payload_len: 0,
                },
            })
        }
        Err(e) => Err(e),
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::ethernet::EtherType;
    use crate::udp::PseudoHeader;
    use std::net::{Ipv4Addr, Ipv6Addr};

    fn mac(n: u8) -> Mac {
        Mac::new(2, 0, 0, 0, 0, n)
    }

    fn v6_udp_frame() -> Vec<u8> {
        let src: Ipv6Addr = "fe80::1".parse().unwrap();
        let dst: Ipv6Addr = "ff02::fb".parse().unwrap();
        let udp = udp::Repr {
            src_port: 5353,
            dst_port: 5353,
            payload: b"mdns".to_vec(),
        }
        .build(PseudoHeader::V6 { src, dst });
        let ip = ipv6::Repr {
            src,
            dst,
            next_header: Protocol::Udp,
            hop_limit: 255,
            payload_len: udp.len(),
        }
        .build(&udp);
        ethernet::Repr {
            src: mac(1),
            dst: Mac::for_ipv6_multicast(dst),
            ethertype: EtherType::Ipv6,
        }
        .build(&ip)
    }

    #[test]
    fn parse_v6_udp_stack() {
        let frame = v6_udp_frame();
        let p = ParsedPacket::parse(&frame).unwrap();
        assert!(p.is_ipv6());
        assert_eq!(p.ports(), Some((5353, 5353)));
        assert_eq!(p.l4_payload(), Some(&b"mdns"[..]));
        assert!(p.involves_port(5353));
        assert!(!p.involves_port(53));
        assert_eq!(p.src_ip().unwrap().to_string(), "fe80::1");
    }

    #[test]
    fn parse_v4_tcp_stack() {
        let src = Ipv4Addr::new(192, 168, 1, 9);
        let dst = Ipv4Addr::new(52, 94, 236, 48);
        let seg = tcp::Repr::syn(44000, 443, 1).build(PseudoHeader::V4 { src, dst });
        let ip = ipv4::Repr {
            src,
            dst,
            protocol: Protocol::Tcp,
            ttl: 64,
            payload_len: seg.len(),
        }
        .build(&seg);
        let frame = ethernet::Repr {
            src: mac(2),
            dst: mac(0xfe),
            ethertype: EtherType::Ipv4,
        }
        .build(&ip);
        let p = ParsedPacket::parse(&frame).unwrap();
        assert!(!p.is_ipv6());
        match &p.l4 {
            L4::Tcp { flags, .. } => assert!(flags.contains(tcp::Flags::SYN)),
            other => panic!("expected tcp, got {other:?}"),
        }
    }

    #[test]
    fn parse_arp() {
        let a = arp::Repr::request(
            mac(3),
            Ipv4Addr::new(10, 0, 0, 2),
            Ipv4Addr::new(10, 0, 0, 1),
        );
        let frame = ethernet::Repr {
            src: mac(3),
            dst: Mac::BROADCAST,
            ethertype: EtherType::Arp,
        }
        .build(&a.build());
        let p = ParsedPacket::parse(&frame).unwrap();
        assert!(matches!(p.net, Net::Arp(_)));
        assert_eq!(p.l4, L4::None);
        assert_eq!(p.src_ip(), None);
    }

    #[test]
    fn hop_by_hop_extension_header_is_traversed() {
        // UDP behind a hop-by-hop header (router-alert style), as MLD and
        // RPL frames carry in real captures.
        let src: Ipv6Addr = "fe80::1".parse().unwrap();
        let dst: Ipv6Addr = "ff02::16".parse().unwrap();
        let udp_bytes = udp::Repr {
            src_port: 1111,
            dst_port: 2222,
            payload: b"mld-ish".to_vec(),
        }
        .build(PseudoHeader::V6 { src, dst });
        // Hop-by-hop: next=UDP(17), len=0 (8 bytes), PadN filler.
        let mut payload = vec![17u8, 0, 1, 4, 0, 0, 0, 0];
        payload.extend_from_slice(&udp_bytes);
        let ip = ipv6::Repr {
            src,
            dst,
            next_header: Protocol::Other(0), // hop-by-hop
            hop_limit: 1,
            payload_len: payload.len(),
        }
        .build(&payload);
        let frame = ethernet::Repr {
            src: mac(1),
            dst: Mac::for_ipv6_multicast(dst),
            ethertype: EtherType::Ipv6,
        }
        .build(&ip);
        let p = ParsedPacket::parse(&frame).unwrap();
        assert_eq!(p.ports(), Some((1111, 2222)));
        assert_eq!(p.l4_payload(), Some(&b"mld-ish"[..]));
    }

    #[test]
    fn chained_extension_headers() {
        // hop-by-hop -> destination options -> UDP.
        let src: Ipv6Addr = "2001:db8::1".parse().unwrap();
        let dst: Ipv6Addr = "2001:db8::2".parse().unwrap();
        let udp_bytes = udp::Repr {
            src_port: 7,
            dst_port: 9,
            payload: vec![],
        }
        .build(PseudoHeader::V6 { src, dst });
        let mut payload = vec![60u8, 0, 1, 4, 0, 0, 0, 0]; // HBH -> dest opts
        payload.extend_from_slice(&[17u8, 0, 1, 4, 0, 0, 0, 0]); // dest opts -> UDP
        payload.extend_from_slice(&udp_bytes);
        let ip = ipv6::Repr {
            src,
            dst,
            next_header: Protocol::Other(0),
            hop_limit: 64,
            payload_len: payload.len(),
        }
        .build(&payload);
        let frame = ethernet::Repr {
            src: mac(1),
            dst: mac(2),
            ethertype: EtherType::Ipv6,
        }
        .build(&ip);
        let p = ParsedPacket::parse(&frame).unwrap();
        assert_eq!(p.ports(), Some((7, 9)));
    }

    #[test]
    fn truncated_extension_header_rejected() {
        let src: Ipv6Addr = "2001:db8::1".parse().unwrap();
        let dst: Ipv6Addr = "2001:db8::2".parse().unwrap();
        let payload = vec![17u8, 3, 0, 0]; // claims 32 bytes, has 4
        let ip = ipv6::Repr {
            src,
            dst,
            next_header: Protocol::Other(0),
            hop_limit: 64,
            payload_len: payload.len(),
        }
        .build(&payload);
        let frame = ethernet::Repr {
            src: mac(1),
            dst: mac(2),
            ethertype: EtherType::Ipv6,
        }
        .build(&ip);
        assert!(ParsedPacket::parse(&frame).is_err());
        assert!(crate::parse::parse_lenient(&frame).is_ok());
    }

    #[test]
    fn lenient_parse_keeps_corrupt_l4() {
        let mut frame = v6_udp_frame();
        let n = frame.len();
        frame[n - 1] ^= 0x55; // corrupt UDP payload => fine, UDP doesn't verify here
                              // Corrupt the UDP length field instead to break L4 parse.
        frame[14 + 40 + 4] = 0xff;
        assert!(ParsedPacket::parse(&frame).is_err());
        let p = parse_lenient(&frame).unwrap();
        assert!(matches!(p.l4, L4::Other { .. }));
        assert!(p.is_ipv6());
    }
}
