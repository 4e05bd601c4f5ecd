//! Neighbor Discovery Protocol (RFC 4861) messages and options, plus the
//! RDNSS option from RFC 8106.
//!
//! NDP is the load-bearing protocol of the study: Table 3 row 2 counts
//! devices by whether they emit *any* NDP traffic, SLAAC rides on Router
//! Advertisements, DAD rides on Neighbor Solicitations from `::`, and RDNSS
//! is one of the two DNS-configuration channels the testbed offers.

use crate::error::{Error, Result};
use crate::mac::Mac;
use std::net::Ipv6Addr;

/// An NDP option (RFC 4861 §4.6, RFC 8106 §5.1).
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum NdpOption {
    /// Type 1.
    SourceLinkLayerAddr(Mac),
    /// Type 2.
    TargetLinkLayerAddr(Mac),
    /// Type 3 — carried in RAs; the `autonomous` flag authorizes SLAAC.
    PrefixInfo {
        /// Prefix length.
        prefix_len: u8,
        /// On link.
        on_link: bool,
        /// Autonomous.
        autonomous: bool,
        /// Valid lifetime.
        valid_lifetime: u32,
        /// Preferred lifetime.
        preferred_lifetime: u32,
        /// Prefix.
        prefix: Ipv6Addr,
    },
    /// Type 5.
    Mtu(u32),
    /// Type 25 — Recursive DNS Server (RFC 8106).
    Rdnss {
        /// Lifetime.
        lifetime: u32,
        /// Servers.
        servers: Vec<Ipv6Addr>,
    },
    /// Anything else, preserved for analysis.
    /// Unknown.
    Unknown {
        /// Raw option type byte.
        option_type: u8,
        /// Option body (without the type/length prelude).
        data: Vec<u8>,
    },
}

impl NdpOption {
    /// The length of the option [`NdpOption::emit`] appends.
    fn buffer_len(&self) -> usize {
        match self {
            NdpOption::SourceLinkLayerAddr(_)
            | NdpOption::TargetLinkLayerAddr(_)
            | NdpOption::Mtu(_) => 8,
            NdpOption::PrefixInfo { .. } => 32,
            NdpOption::Rdnss { servers, .. } => 8 + 16 * servers.len(),
            NdpOption::Unknown { data, .. } => 2 + data.len(),
        }
    }

    fn emit(&self, out: &mut Vec<u8>) {
        match self {
            NdpOption::SourceLinkLayerAddr(mac) => {
                out.extend_from_slice(&[1, 1]);
                out.extend_from_slice(mac.as_bytes());
            }
            NdpOption::TargetLinkLayerAddr(mac) => {
                out.extend_from_slice(&[2, 1]);
                out.extend_from_slice(mac.as_bytes());
            }
            NdpOption::PrefixInfo {
                prefix_len,
                on_link,
                autonomous,
                valid_lifetime,
                preferred_lifetime,
                prefix,
            } => {
                out.extend_from_slice(&[3, 4, *prefix_len]);
                let mut flags = 0u8;
                if *on_link {
                    flags |= 0x80;
                }
                if *autonomous {
                    flags |= 0x40;
                }
                out.push(flags);
                out.extend_from_slice(&valid_lifetime.to_be_bytes());
                out.extend_from_slice(&preferred_lifetime.to_be_bytes());
                out.extend_from_slice(&[0; 4]); // reserved
                out.extend_from_slice(&prefix.octets());
            }
            NdpOption::Mtu(mtu) => {
                out.extend_from_slice(&[5, 1, 0, 0]);
                out.extend_from_slice(&mtu.to_be_bytes());
            }
            NdpOption::Rdnss { lifetime, servers } => {
                let len = 1 + 2 * servers.len();
                out.extend_from_slice(&[25, len as u8, 0, 0]);
                out.extend_from_slice(&lifetime.to_be_bytes());
                for s in servers {
                    out.extend_from_slice(&s.octets());
                }
            }
            NdpOption::Unknown { option_type, data } => {
                debug_assert_eq!((data.len() + 2) % 8, 0);
                out.push(*option_type);
                out.push(((data.len() + 2) / 8) as u8);
                out.extend_from_slice(data);
            }
        }
    }

    /// Parse a contiguous options region.
    fn parse_all(mut b: &[u8]) -> Result<Vec<NdpOption>> {
        let mut opts = Vec::new();
        while !b.is_empty() {
            if b.len() < 2 {
                return Err(Error::Truncated);
            }
            let ty = b[0];
            let len = usize::from(b[1]) * 8;
            if len == 0 {
                return Err(Error::Malformed);
            }
            if b.len() < len {
                return Err(Error::Truncated);
            }
            let body = &b[2..len];
            let opt = match ty {
                1 if body.len() >= 6 => {
                    NdpOption::SourceLinkLayerAddr(Mac::from_slice(&body[..6])?)
                }
                2 if body.len() >= 6 => {
                    NdpOption::TargetLinkLayerAddr(Mac::from_slice(&body[..6])?)
                }
                3 if body.len() >= 30 => {
                    let mut p = [0u8; 16];
                    p.copy_from_slice(&body[14..30]);
                    NdpOption::PrefixInfo {
                        prefix_len: body[0],
                        on_link: body[1] & 0x80 != 0,
                        autonomous: body[1] & 0x40 != 0,
                        valid_lifetime: u32::from_be_bytes(body[2..6].try_into().unwrap()),
                        preferred_lifetime: u32::from_be_bytes(body[6..10].try_into().unwrap()),
                        prefix: Ipv6Addr::from(p),
                    }
                }
                5 if body.len() >= 6 => {
                    NdpOption::Mtu(u32::from_be_bytes(body[2..6].try_into().unwrap()))
                }
                25 if body.len() >= 6 && (body.len() - 6).is_multiple_of(16) => {
                    let lifetime = u32::from_be_bytes(body[2..6].try_into().unwrap());
                    let servers = body[6..]
                        .chunks_exact(16)
                        .map(|c| {
                            let mut o = [0u8; 16];
                            o.copy_from_slice(c);
                            Ipv6Addr::from(o)
                        })
                        .collect();
                    NdpOption::Rdnss { lifetime, servers }
                }
                _ => NdpOption::Unknown {
                    option_type: ty,
                    data: body.to_vec(),
                },
            };
            opts.push(opt);
            b = &b[len..];
        }
        Ok(opts)
    }
}

/// An NDP message. The ICMPv6 type/code and checksum are handled by
/// [`crate::icmpv6`]; these representations cover the message body.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum Repr {
    /// Type 133.
    /// Router Solicit.
    RouterSolicit {
        /// Attached NDP options (usually a source link-layer address).
        options: Vec<NdpOption>,
    },
    /// Type 134.
    RouterAdvert {
        /// Hop limit.
        hop_limit: u8,
        /// M flag: addresses are available via (stateful) DHCPv6.
        managed: bool,
        /// O flag: other configuration (DNS, ...) available via DHCPv6.
        other_config: bool,
        /// Router lifetime.
        router_lifetime: u16,
        /// Reachable time.
        reachable_time: u32,
        /// Retrans time.
        retrans_time: u32,
        /// Options.
        options: Vec<NdpOption>,
    },
    /// Type 135. A solicitation from `::` for one's own tentative address
    /// is Duplicate Address Detection.
    NeighborSolicit {
        /// Target.
        target: Ipv6Addr,
        /// Options.
        options: Vec<NdpOption>,
    },
    /// Type 136.
    NeighborAdvert {
        /// Router.
        router: bool,
        /// Solicited.
        solicited: bool,
        /// Override flag.
        override_flag: bool,
        /// Target.
        target: Ipv6Addr,
        /// Options.
        options: Vec<NdpOption>,
    },
}

impl Repr {
    /// The ICMPv6 type byte for this message.
    pub fn icmp_type(&self) -> u8 {
        match self {
            Repr::RouterSolicit { .. } => 133,
            Repr::RouterAdvert { .. } => 134,
            Repr::NeighborSolicit { .. } => 135,
            Repr::NeighborAdvert { .. } => 136,
        }
    }

    /// The length of the body [`Repr::emit_body`] appends.
    pub fn body_len(&self) -> usize {
        let (fixed, options) = match self {
            Repr::RouterSolicit { options } => (4, options),
            Repr::RouterAdvert { options, .. } => (12, options),
            Repr::NeighborSolicit { options, .. } | Repr::NeighborAdvert { options, .. } => {
                (20, options)
            }
        };
        fixed + options.iter().map(NdpOption::buffer_len).sum::<usize>()
    }

    /// Serialize the message body (everything after the 4-byte ICMPv6
    /// type/code/checksum prelude).
    pub fn emit_body(&self, out: &mut Vec<u8>) {
        match self {
            Repr::RouterSolicit { options } => {
                out.extend_from_slice(&[0; 4]); // reserved
                for o in options {
                    o.emit(out);
                }
            }
            Repr::RouterAdvert {
                hop_limit,
                managed,
                other_config,
                router_lifetime,
                reachable_time,
                retrans_time,
                options,
            } => {
                out.push(*hop_limit);
                let mut flags = 0u8;
                if *managed {
                    flags |= 0x80;
                }
                if *other_config {
                    flags |= 0x40;
                }
                out.push(flags);
                out.extend_from_slice(&router_lifetime.to_be_bytes());
                out.extend_from_slice(&reachable_time.to_be_bytes());
                out.extend_from_slice(&retrans_time.to_be_bytes());
                for o in options {
                    o.emit(out);
                }
            }
            Repr::NeighborSolicit { target, options } => {
                out.extend_from_slice(&[0; 4]);
                out.extend_from_slice(&target.octets());
                for o in options {
                    o.emit(out);
                }
            }
            Repr::NeighborAdvert {
                router,
                solicited,
                override_flag,
                target,
                options,
            } => {
                let mut flags = 0u8;
                if *router {
                    flags |= 0x80;
                }
                if *solicited {
                    flags |= 0x40;
                }
                if *override_flag {
                    flags |= 0x20;
                }
                out.extend_from_slice(&[flags, 0, 0, 0]);
                out.extend_from_slice(&target.octets());
                for o in options {
                    o.emit(out);
                }
            }
        }
    }

    /// Parse a message body for the given ICMPv6 type.
    pub fn parse_body(icmp_type: u8, b: &[u8]) -> Result<Repr> {
        match icmp_type {
            133 => {
                if b.len() < 4 {
                    return Err(Error::Truncated);
                }
                Ok(Repr::RouterSolicit {
                    options: NdpOption::parse_all(&b[4..])?,
                })
            }
            134 => {
                if b.len() < 12 {
                    return Err(Error::Truncated);
                }
                Ok(Repr::RouterAdvert {
                    hop_limit: b[0],
                    managed: b[1] & 0x80 != 0,
                    other_config: b[1] & 0x40 != 0,
                    router_lifetime: u16::from_be_bytes([b[2], b[3]]),
                    reachable_time: u32::from_be_bytes(b[4..8].try_into().unwrap()),
                    retrans_time: u32::from_be_bytes(b[8..12].try_into().unwrap()),
                    options: NdpOption::parse_all(&b[12..])?,
                })
            }
            135 => {
                if b.len() < 20 {
                    return Err(Error::Truncated);
                }
                let mut o = [0u8; 16];
                o.copy_from_slice(&b[4..20]);
                Ok(Repr::NeighborSolicit {
                    target: Ipv6Addr::from(o),
                    options: NdpOption::parse_all(&b[20..])?,
                })
            }
            136 => {
                if b.len() < 20 {
                    return Err(Error::Truncated);
                }
                let mut o = [0u8; 16];
                o.copy_from_slice(&b[4..20]);
                Ok(Repr::NeighborAdvert {
                    router: b[0] & 0x80 != 0,
                    solicited: b[0] & 0x40 != 0,
                    override_flag: b[0] & 0x20 != 0,
                    target: Ipv6Addr::from(o),
                    options: NdpOption::parse_all(&b[20..])?,
                })
            }
            _ => Err(Error::Unsupported),
        }
    }

    /// Convenience: the options attached to this message.
    pub fn options(&self) -> &[NdpOption] {
        match self {
            Repr::RouterSolicit { options }
            | Repr::RouterAdvert { options, .. }
            | Repr::NeighborSolicit { options, .. }
            | Repr::NeighborAdvert { options, .. } => options,
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn roundtrip(r: Repr) {
        let mut body = Vec::new();
        r.emit_body(&mut body);
        let parsed = Repr::parse_body(r.icmp_type(), &body).unwrap();
        assert_eq!(parsed, r);
    }

    #[test]
    fn router_solicit_roundtrip() {
        roundtrip(Repr::RouterSolicit {
            options: vec![NdpOption::SourceLinkLayerAddr(Mac::new(2, 0, 0, 0, 0, 9))],
        });
    }

    #[test]
    fn router_advert_full_roundtrip() {
        roundtrip(Repr::RouterAdvert {
            hop_limit: 64,
            managed: true,
            other_config: true,
            router_lifetime: 1800,
            reachable_time: 30_000,
            retrans_time: 1000,
            options: vec![
                NdpOption::SourceLinkLayerAddr(Mac::new(2, 0, 0, 0, 0, 1)),
                NdpOption::Mtu(1480),
                NdpOption::PrefixInfo {
                    prefix_len: 64,
                    on_link: true,
                    autonomous: true,
                    valid_lifetime: 86400,
                    preferred_lifetime: 14400,
                    prefix: "2001:db8:1::".parse().unwrap(),
                },
                NdpOption::Rdnss {
                    lifetime: 1800,
                    servers: vec![
                        "2001:4860:4860::8888".parse().unwrap(),
                        "2001:4860:4860::8844".parse().unwrap(),
                    ],
                },
            ],
        });
    }

    #[test]
    fn dad_solicit_roundtrip() {
        // DAD: NS for one's own tentative address, no SLLAO (source is ::).
        roundtrip(Repr::NeighborSolicit {
            target: "fe80::c2ff:4dff:fe2e:1a2b".parse().unwrap(),
            options: vec![],
        });
    }

    #[test]
    fn neighbor_advert_roundtrip() {
        roundtrip(Repr::NeighborAdvert {
            router: false,
            solicited: true,
            override_flag: true,
            target: "2001:db8:1::5".parse().unwrap(),
            options: vec![NdpOption::TargetLinkLayerAddr(Mac::new(2, 0, 0, 0, 0, 5))],
        });
    }

    #[test]
    fn unknown_option_preserved() {
        roundtrip(Repr::RouterSolicit {
            options: vec![NdpOption::Unknown {
                option_type: 14,
                data: vec![0; 6],
            }],
        });
    }

    #[test]
    fn zero_length_option_rejected() {
        // type 1, length 0 — must not loop forever.
        let body = [0u8, 0, 0, 0, 1, 0, 0, 0];
        assert_eq!(Repr::parse_body(133, &body).unwrap_err(), Error::Malformed);
    }

    #[test]
    fn truncated_option_rejected() {
        let body = [0u8, 0, 0, 0, 1, 2, 0, 0]; // opt claims 16 bytes, has 4
        assert_eq!(Repr::parse_body(133, &body).unwrap_err(), Error::Truncated);
    }

    #[test]
    fn unsupported_type_rejected() {
        assert_eq!(
            Repr::parse_body(200, &[0; 8]).unwrap_err(),
            Error::Unsupported
        );
    }
}
