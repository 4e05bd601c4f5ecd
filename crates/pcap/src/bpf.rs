//! A tcpdump-flavoured text syntax for [`crate::filter::Filter`].
//!
//! The paper's pipeline drives tcpdump with BPF expressions like
//! `ip6 and udp port 53`; this module accepts the conjunctive subset of
//! that syntax so analysis scripts read the same way:
//!
//! ```
//! use v6brick_pcap::bpf;
//!
//! let f = bpf::parse("ip6 and udp and port 53").unwrap();
//! # let _ = f;
//! ```
//!
//! Supported terms, joined by `and`/`&&`: `ip`, `ip6`, `tcp`, `udp`,
//! `icmp`, `icmp6`, `port N`, `host A`, `ether src M`, `ether host M`.

use crate::filter::{Filter, IpVersion};
use std::net::IpAddr;
use v6brick_net::ipv4::Protocol;
use v6brick_net::Mac;

/// A syntax error with the offending token.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct ParseError {
    /// The token that could not be interpreted.
    pub token: String,
    /// Human-readable explanation.
    pub message: &'static str,
}

impl std::fmt::Display for ParseError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(f, "bad filter term {:?}: {}", self.token, self.message)
    }
}

impl std::error::Error for ParseError {}

fn err(token: &str, message: &'static str) -> ParseError {
    ParseError {
        token: token.to_string(),
        message,
    }
}

/// Parse a conjunctive filter expression.
pub fn parse(expr: &str) -> Result<Filter, ParseError> {
    let mut filter = Filter::new();
    let tokens: Vec<&str> = expr
        .split_whitespace()
        .filter(|t| *t != "and" && *t != "&&")
        .collect();
    let mut i = 0;
    while i < tokens.len() {
        match tokens[i] {
            "ip" => filter = filter.ip_version(IpVersion::V4),
            "ip6" => filter = filter.ip_version(IpVersion::V6),
            "tcp" => filter = filter.protocol(Protocol::Tcp),
            "udp" => filter = filter.protocol(Protocol::Udp),
            "icmp" => filter = filter.protocol(Protocol::Icmp),
            "icmp6" | "icmpv6" => filter = filter.protocol(Protocol::Icmpv6),
            "port" => {
                i += 1;
                let t = tokens.get(i).ok_or(err("port", "missing port number"))?;
                let p: u16 = t.parse().map_err(|_| err(t, "not a port number"))?;
                filter = filter.port(p);
            }
            "host" => {
                i += 1;
                let t = tokens.get(i).ok_or(err("host", "missing address"))?;
                let a: IpAddr = t.parse().map_err(|_| err(t, "not an IP address"))?;
                filter = filter.ip(a);
            }
            "ether" => {
                i += 1;
                let kind = *tokens.get(i).ok_or(err("ether", "expected src|host"))?;
                i += 1;
                let t = tokens.get(i).ok_or(err(kind, "missing MAC"))?;
                let m: Mac = t.parse().map_err(|_| err(t, "not a MAC address"))?;
                filter = match kind {
                    "src" => filter.src_mac(m),
                    "host" => filter.either_mac(m),
                    other => return Err(err(other, "expected src|host")),
                };
            }
            other => return Err(err(other, "unknown term")),
        }
        i += 1;
    }
    Ok(filter)
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::net::Ipv6Addr;
    use v6brick_net::ethernet::{EtherType, Repr as EthRepr};
    use v6brick_net::parse::ParsedPacket;
    use v6brick_net::udp::PseudoHeader;
    use v6brick_net::{ipv6, udp};

    /// A DNS query frame, to parse in place.
    fn dns6_frame() -> Vec<u8> {
        let src: Ipv6Addr = "2001:db8::10".parse().unwrap();
        let dst: Ipv6Addr = "2001:4860:4860::8888".parse().unwrap();
        let u = udp::Repr {
            src_port: 40000,
            dst_port: 53,
            payload: vec![0; 12],
        }
        .build(PseudoHeader::V6 { src, dst });
        let ip = ipv6::Repr {
            src,
            dst,
            next_header: v6brick_net::ipv4::Protocol::Udp,
            hop_limit: 64,
            payload_len: u.len(),
        }
        .build(&u);
        EthRepr {
            src: Mac::new(2, 0, 0, 0, 0, 0x11),
            dst: Mac::new(2, 0, 0, 0, 0, 0xfe),
            ethertype: EtherType::Ipv6,
        }
        .build(&ip)
    }

    #[test]
    fn tcpdump_style_expressions() {
        let frame = dns6_frame();
        let p = ParsedPacket::parse(&frame).unwrap();
        assert!(parse("ip6 and udp and port 53").unwrap().matches(&p));
        assert!(parse("ip6 && udp && port 53").unwrap().matches(&p));
        assert!(!parse("ip and udp").unwrap().matches(&p));
        assert!(!parse("tcp").unwrap().matches(&p));
        assert!(parse("host 2001:4860:4860::8888").unwrap().matches(&p));
        assert!(parse("ether src 02:00:00:00:00:11").unwrap().matches(&p));
        assert!(!parse("ether src 02:00:00:00:00:22").unwrap().matches(&p));
        assert!(parse("ether host 02:00:00:00:00:fe").unwrap().matches(&p));
        assert!(parse("").unwrap().matches(&p), "empty matches all");
    }

    #[test]
    fn errors_carry_the_bad_token() {
        assert_eq!(parse("bogus").unwrap_err().token, "bogus");
        assert_eq!(parse("port banana").unwrap_err().token, "banana");
        assert_eq!(parse("port").unwrap_err().token, "port");
        assert_eq!(parse("host not-an-ip").unwrap_err().token, "not-an-ip");
        assert_eq!(
            parse("ether dst 02:00:00:00:00:01").unwrap_err().token,
            "dst"
        );
        assert!(parse("icmp6").is_ok());
    }
}
