//! ICMPv6 (RFC 4443), carrying echo, errors, and — via [`crate::ndp`] —
//! the Neighbor Discovery messages.
//!
//! Every ICMPv6 message is checksummed over the IPv6 pseudo-header, so both
//! parse and emit need the enclosing source and destination addresses.

use crate::checksum::Checksum;
use crate::error::{Error, Result};
use crate::ndp;
use std::net::Ipv6Addr;

/// Owned representation of an ICMPv6 message.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum Repr {
    /// Type 128. The active port-scan pipeline pings ff02::1 with this to
    /// harvest the neighbor table, exactly as the paper does (§4.3).
    EchoRequest {
        /// Ident.
        ident: u16,
        /// Sequence number.
        seq: u16,
        /// Payload.
        payload: Vec<u8>,
    },
    /// Type 129.
    EchoReply {
        /// Ident.
        ident: u16,
        /// Sequence number.
        seq: u16,
        /// Payload.
        payload: Vec<u8>,
    },
    /// Type 1; code 4 is port-unreachable — the UDP scan "closed" signal.
    /// Dst Unreachable.
    DstUnreachable {
        /// ICMPv6 code; 4 is port-unreachable.
        code: u8,
    },
    /// Types 133–136.
    Ndp(ndp::Repr),
    /// Type 143 — MLDv2 Multicast Listener Report (RFC 3810). Real IPv6
    /// stacks emit these when joining the solicited-node groups of their
    /// addresses; the records are (record type, multicast address) pairs
    /// (type 4 = CHANGE_TO_EXCLUDE, i.e. "join").
    Mldv2Report {
        /// (record type, multicast group) pairs; source lists unsupported.
        records: Vec<(u8, Ipv6Addr)>,
    },
}

impl Repr {
    /// Parse raw ICMPv6 bytes, verifying the pseudo-header checksum.
    pub fn parse_bytes(src: Ipv6Addr, dst: Ipv6Addr, b: &[u8]) -> Result<Repr> {
        if b.len() < 8 {
            return Err(Error::Truncated);
        }
        let mut c = Checksum::new();
        c.add_ipv6_pseudo(src, dst, 58, b.len() as u32);
        c.add(b);
        if c.finish() != 0 {
            return Err(Error::BadChecksum);
        }
        let ident = u16::from_be_bytes([b[4], b[5]]);
        let seq = u16::from_be_bytes([b[6], b[7]]);
        match (b[0], b[1]) {
            (128, 0) => Ok(Repr::EchoRequest {
                ident,
                seq,
                payload: b[8..].to_vec(),
            }),
            (129, 0) => Ok(Repr::EchoReply {
                ident,
                seq,
                payload: b[8..].to_vec(),
            }),
            (1, code) => Ok(Repr::DstUnreachable { code }),
            (ty @ 133..=136, 0) => Ok(Repr::Ndp(ndp::Repr::parse_body(ty, &b[4..])?)),
            (143, 0) => {
                let n = usize::from(u16::from_be_bytes([b[6], b[7]]));
                // Reserve only what the bytes can hold (20 per record),
                // never what the count claims.
                let mut records = Vec::with_capacity(n.min((b.len() - 8) / 20));
                let mut off = 8;
                for _ in 0..n {
                    if b.len() < off + 20 {
                        return Err(Error::Truncated);
                    }
                    let rec_type = b[off];
                    let aux = usize::from(b[off + 1]) * 4;
                    let n_src = usize::from(u16::from_be_bytes([b[off + 2], b[off + 3]]));
                    let mut o = [0u8; 16];
                    o.copy_from_slice(&b[off + 4..off + 20]);
                    records.push((rec_type, Ipv6Addr::from(o)));
                    off += 20 + aux + 16 * n_src;
                    if b.len() < off {
                        return Err(Error::Truncated);
                    }
                }
                Ok(Repr::Mldv2Report { records })
            }
            _ => Err(Error::Unsupported),
        }
    }

    /// Append the message to `out`, [`Repr::buffer_len`] bytes,
    /// checksummed over the IPv6 pseudo-header of `src` and `dst`.
    pub fn emit(&self, out: &mut Vec<u8>, src: Ipv6Addr, dst: Ipv6Addr) {
        let start = out.len();
        match self {
            Repr::EchoRequest {
                ident,
                seq,
                payload,
            } => {
                out.extend_from_slice(&[128, 0, 0, 0]);
                out.extend_from_slice(&ident.to_be_bytes());
                out.extend_from_slice(&seq.to_be_bytes());
                out.extend_from_slice(payload);
            }
            Repr::EchoReply {
                ident,
                seq,
                payload,
            } => {
                out.extend_from_slice(&[129, 0, 0, 0]);
                out.extend_from_slice(&ident.to_be_bytes());
                out.extend_from_slice(&seq.to_be_bytes());
                out.extend_from_slice(payload);
            }
            Repr::DstUnreachable { code } => {
                out.extend_from_slice(&[1, *code, 0, 0, 0, 0, 0, 0]);
            }
            Repr::Ndp(n) => {
                out.extend_from_slice(&[n.icmp_type(), 0, 0, 0]);
                n.emit_body(out);
            }
            Repr::Mldv2Report { records } => {
                out.extend_from_slice(&[143, 0, 0, 0, 0, 0]);
                out.extend_from_slice(&(records.len() as u16).to_be_bytes());
                for (rec_type, group) in records {
                    out.push(*rec_type);
                    out.push(0); // aux data len
                    out.extend_from_slice(&0u16.to_be_bytes()); // no sources
                    out.extend_from_slice(&group.octets());
                }
            }
        }
        let msg = &mut out[start..];
        let mut c = Checksum::new();
        c.add_ipv6_pseudo(src, dst, 58, msg.len() as u32);
        c.add(msg);
        let sum = c.finish();
        msg[2..4].copy_from_slice(&sum.to_be_bytes());
    }

    /// The length of the message [`Repr::emit`] appends.
    pub fn buffer_len(&self) -> usize {
        match self {
            Repr::EchoRequest { payload, .. } | Repr::EchoReply { payload, .. } => {
                8 + payload.len()
            }
            Repr::DstUnreachable { .. } => 8,
            Repr::Ndp(n) => 4 + n.body_len(),
            Repr::Mldv2Report { records } => 8 + 20 * records.len(),
        }
    }

    /// Serialize, computing the pseudo-header checksum.
    pub fn build(&self, src: Ipv6Addr, dst: Ipv6Addr) -> Vec<u8> {
        let mut b = Vec::with_capacity(self.buffer_len());
        self.emit(&mut b, src, dst);
        b
    }

    /// If this is an NDP message, borrow it.
    pub fn as_ndp(&self) -> Option<&ndp::Repr> {
        match self {
            Repr::Ndp(n) => Some(n),
            _ => None,
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::ipv6::mcast;
    use crate::mac::Mac;
    use crate::ndp::NdpOption;

    fn lla() -> Ipv6Addr {
        "fe80::1".parse().unwrap()
    }

    #[test]
    fn echo_roundtrip_checksummed() {
        let r = Repr::EchoRequest {
            ident: 42,
            seq: 1,
            payload: b"discover".to_vec(),
        };
        let bytes = r.build(lla(), mcast::ALL_NODES);
        assert_eq!(
            Repr::parse_bytes(lla(), mcast::ALL_NODES, &bytes).unwrap(),
            r
        );
        // Wrong pseudo-header => checksum failure.
        assert_eq!(
            Repr::parse_bytes(lla(), mcast::ALL_ROUTERS, &bytes).unwrap_err(),
            Error::BadChecksum
        );
    }

    #[test]
    fn ndp_ra_through_icmpv6() {
        let ra = Repr::Ndp(ndp::Repr::RouterAdvert {
            hop_limit: 64,
            managed: false,
            other_config: true,
            router_lifetime: 1800,
            reachable_time: 0,
            retrans_time: 0,
            options: vec![NdpOption::SourceLinkLayerAddr(Mac::new(2, 0, 0, 0, 0, 1))],
        });
        let bytes = ra.build(lla(), mcast::ALL_NODES);
        let parsed = Repr::parse_bytes(lla(), mcast::ALL_NODES, &bytes).unwrap();
        assert_eq!(parsed, ra);
        assert!(parsed.as_ndp().is_some());
    }

    #[test]
    fn dad_ns_from_unspecified() {
        let ns = Repr::Ndp(ndp::Repr::NeighborSolicit {
            target: "fe80::c2ff:4dff:fe2e:1a2b".parse().unwrap(),
            options: vec![],
        });
        let src: Ipv6Addr = "::".parse().unwrap();
        let dst: Ipv6Addr = "ff02::1:ff2e:1a2b".parse().unwrap();
        let bytes = ns.build(src, dst);
        assert_eq!(Repr::parse_bytes(src, dst, &bytes).unwrap(), ns);
    }

    #[test]
    fn port_unreachable_roundtrip() {
        let r = Repr::DstUnreachable { code: 4 };
        let bytes = r.build(lla(), lla());
        assert_eq!(Repr::parse_bytes(lla(), lla(), &bytes).unwrap(), r);
    }

    #[test]
    fn mldv2_report_roundtrip() {
        use crate::ipv6::Ipv6AddrExt;
        let a: Ipv6Addr = "fe80::c2ff:4dff:fe2e:1a2b".parse().unwrap();
        let r = Repr::Mldv2Report {
            records: vec![(4, a.solicited_node()), (4, mcast::MDNS)],
        };
        let src: Ipv6Addr = "::".parse().unwrap();
        let dst: Ipv6Addr = "ff02::16".parse().unwrap();
        let bytes = r.build(src, dst);
        assert_eq!(Repr::parse_bytes(src, dst, &bytes).unwrap(), r);
    }

    #[test]
    fn mldv2_truncation_rejected() {
        let r = Repr::Mldv2Report {
            records: vec![(4, mcast::ALL_NODES)],
        };
        let src: Ipv6Addr = "::".parse().unwrap();
        let dst: Ipv6Addr = "ff02::16".parse().unwrap();
        let bytes = r.build(src, dst);
        // Claim two records but provide one.
        let mut bad = bytes.clone();
        bad[7] = 2;
        // (checksum now wrong, so fix it: rebuild via raw checksum calc)
        bad[2] = 0;
        bad[3] = 0;
        let mut c = crate::checksum::Checksum::new();
        c.add_ipv6_pseudo(src, dst, 58, bad.len() as u32);
        c.add(&bad);
        let sum = c.finish();
        bad[2..4].copy_from_slice(&sum.to_be_bytes());
        assert_eq!(
            Repr::parse_bytes(src, dst, &bad).unwrap_err(),
            Error::Truncated
        );
    }

    #[test]
    fn emit_appends_the_buffer_len_bytes_build_gives() {
        let mac = Mac::new(2, 0, 0, 0, 0, 1);
        let target: Ipv6Addr = "2001:db8::1".parse().unwrap();
        let msgs = [
            Repr::EchoRequest {
                ident: 1,
                seq: 2,
                payload: b"odd".to_vec(),
            },
            Repr::EchoReply {
                ident: 3,
                seq: 4,
                payload: vec![],
            },
            Repr::DstUnreachable { code: 4 },
            Repr::Ndp(ndp::Repr::RouterSolicit {
                options: vec![NdpOption::SourceLinkLayerAddr(mac)],
            }),
            Repr::Ndp(ndp::Repr::RouterAdvert {
                hop_limit: 64,
                managed: true,
                other_config: false,
                router_lifetime: 1800,
                reachable_time: 0,
                retrans_time: 0,
                options: vec![
                    NdpOption::PrefixInfo {
                        prefix_len: 64,
                        on_link: true,
                        autonomous: true,
                        valid_lifetime: 86_400,
                        preferred_lifetime: 14_400,
                        prefix: "2001:db8::".parse().unwrap(),
                    },
                    NdpOption::Mtu(1480),
                    NdpOption::Rdnss {
                        lifetime: 600,
                        servers: vec![target, lla()],
                    },
                    NdpOption::Unknown {
                        option_type: 31,
                        data: vec![7; 6],
                    },
                ],
            }),
            Repr::Ndp(ndp::Repr::NeighborSolicit {
                target,
                options: vec![],
            }),
            Repr::Ndp(ndp::Repr::NeighborAdvert {
                router: false,
                solicited: true,
                override_flag: true,
                target,
                options: vec![NdpOption::TargetLinkLayerAddr(mac)],
            }),
            Repr::Mldv2Report {
                records: vec![(4, mcast::MDNS), (4, mcast::ALL_NODES)],
            },
        ];
        for msg in msgs {
            let built = msg.build(lla(), mcast::ALL_NODES);
            assert_eq!(built.len(), msg.buffer_len(), "{msg:?}");
            assert_eq!(
                Repr::parse_bytes(lla(), mcast::ALL_NODES, &built),
                Ok(msg.clone())
            );
            // Behind an odd number of bytes already in the buffer.
            let mut out = vec![0xa5; 3];
            msg.emit(&mut out, lla(), mcast::ALL_NODES);
            assert_eq!(out[..3], [0xa5; 3]);
            assert_eq!(out[3..], built[..], "{msg:?}");
        }
    }

    #[test]
    fn short_buffer_rejected() {
        assert_eq!(
            Repr::parse_bytes(lla(), lla(), &[128, 0, 0]).unwrap_err(),
            Error::Truncated
        );
    }
}
