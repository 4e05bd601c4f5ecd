//! 5-tuple flow reassembly.
//!
//! Flows are keyed on the canonicalized (lower endpoint first) 5-tuple so
//! both directions land in one record. The hash-indexed table is one of
//! the design choices DESIGN.md calls out; `bench_ablation_flows`
//! compares it against a linear scan.

use serde::Serialize;
use std::collections::HashMap;
use std::net::IpAddr;
use v6brick_net::parse::{Net, ParsedPacket, L4};

/// Transport protocol of a flow.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, Serialize)]
pub enum FlowProto {
    /// The UDP transport.
    Udp,
    /// The TCP transport.
    Tcp,
}

/// Canonical flow key: `a` is the numerically lower (addr, port) endpoint.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, Serialize)]
pub struct FlowKey {
    /// The numerically lower (address, port) endpoint.
    pub a: (IpAddr, u16),
    /// The numerically higher (address, port) endpoint.
    pub b: (IpAddr, u16),
    /// Transport protocol.
    pub proto: FlowProto,
}

impl FlowKey {
    /// Canonicalize endpoints so both directions map to one key.
    pub fn new(src: (IpAddr, u16), dst: (IpAddr, u16), proto: FlowProto) -> FlowKey {
        if src <= dst {
            FlowKey {
                a: src,
                b: dst,
                proto,
            }
        } else {
            FlowKey {
                a: dst,
                b: src,
                proto,
            }
        }
    }

    /// Is this an IPv6 flow?
    pub fn is_ipv6(&self) -> bool {
        self.a.0.is_ipv6()
    }

    /// Does either endpoint use `port`?
    pub fn involves_port(&self, port: u16) -> bool {
        self.a.1 == port || self.b.1 == port
    }
}

/// Accumulated state of one flow.
#[derive(Debug, Clone, Default, Serialize)]
pub struct Flow {
    /// Bytes from endpoint `a` to `b` (L4 payload).
    pub bytes_ab: u64,
    /// Bytes from endpoint `b` to `a`.
    pub bytes_ba: u64,
    /// Frames in each direction.
    pub packets_ab: u64,
    /// Packets (b to a).
    pub packets_ba: u64,
    /// First (microseconds).
    pub first_us: u64,
    /// Last (microseconds).
    pub last_us: u64,
}

impl Flow {
    /// Total L4 payload bytes both ways.
    pub fn total_bytes(&self) -> u64 {
        self.bytes_ab + self.bytes_ba
    }
}

/// The flow table.
#[derive(Debug, Default)]
pub struct FlowTable {
    flows: HashMap<FlowKey, Flow>,
}

impl FlowTable {
    /// Empty table.
    pub fn new() -> FlowTable {
        FlowTable::default()
    }

    /// Account one parsed frame; non-TCP/UDP frames are ignored.
    /// Returns the key it was filed under, if any.
    pub fn record(&mut self, ts_us: u64, p: &ParsedPacket) -> Option<FlowKey> {
        let (src_ip, dst_ip) = match (&p.net, p.src_ip(), p.dst_ip()) {
            (Net::Ipv4(_) | Net::Ipv6(_), Some(s), Some(d)) => (s, d),
            _ => return None,
        };
        let (proto, src_port, dst_port, payload) = match p.l4 {
            L4::Udp {
                src_port,
                dst_port,
                payload,
            } => (FlowProto::Udp, src_port, dst_port, payload),
            L4::Tcp {
                src_port,
                dst_port,
                payload,
                ..
            } => (FlowProto::Tcp, src_port, dst_port, payload),
            _ => return None,
        };
        let len = payload.len() as u64;
        let src = (src_ip, src_port);
        let dst = (dst_ip, dst_port);
        let key = FlowKey::new(src, dst, proto);
        let flow = self.flows.entry(key).or_insert_with(|| Flow {
            first_us: ts_us,
            ..Flow::default()
        });
        flow.last_us = ts_us;
        if key.a == src {
            flow.bytes_ab += len;
            flow.packets_ab += 1;
        } else {
            flow.bytes_ba += len;
            flow.packets_ba += 1;
        }
        Some(key)
    }

    /// Number of distinct flows.
    pub fn len(&self) -> usize {
        self.flows.len()
    }

    /// Is the table empty?
    pub fn is_empty(&self) -> bool {
        self.flows.is_empty()
    }

    /// Look up one flow.
    pub fn get(&self, key: &FlowKey) -> Option<&Flow> {
        self.flows.get(key)
    }

    /// Iterate all flows.
    pub fn iter(&self) -> impl Iterator<Item = (&FlowKey, &Flow)> {
        self.flows.iter()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::net::Ipv6Addr;
    use v6brick_net::ethernet::{EtherType, Repr as EthRepr};
    use v6brick_net::ipv4::Protocol;
    use v6brick_net::udp::{PseudoHeader, Repr as UdpRepr};
    use v6brick_net::{ipv6, Mac};

    /// A UDP frame with an `n`-byte payload, to parse in place.
    fn udp6(src: &str, sp: u16, dst: &str, dp: u16, n: usize) -> Vec<u8> {
        let src: Ipv6Addr = src.parse().unwrap();
        let dst: Ipv6Addr = dst.parse().unwrap();
        let u = UdpRepr {
            src_port: sp,
            dst_port: dp,
            payload: vec![0; n],
        }
        .build(PseudoHeader::V6 { src, dst });
        let ip = ipv6::Repr {
            src,
            dst,
            next_header: Protocol::Udp,
            hop_limit: 64,
            payload_len: u.len(),
        }
        .build(&u);
        EthRepr {
            src: Mac::new(2, 0, 0, 0, 0, 1),
            dst: Mac::new(2, 0, 0, 0, 0, 2),
            ethertype: EtherType::Ipv6,
        }
        .build(&ip)
    }

    fn record(t: &mut FlowTable, ts_us: u64, frame: &[u8]) -> Option<FlowKey> {
        t.record(ts_us, &ParsedPacket::parse(frame).unwrap())
    }

    #[test]
    fn both_directions_share_a_flow() {
        let mut t = FlowTable::new();
        let k1 = record(
            &mut t,
            10,
            &udp6("2001:db8::1", 1000, "2001:db8::2", 53, 40),
        )
        .unwrap();
        let k2 = record(
            &mut t,
            20,
            &udp6("2001:db8::2", 53, "2001:db8::1", 1000, 120),
        )
        .unwrap();
        assert_eq!(k1, k2);
        assert_eq!(t.len(), 1);
        let f = t.get(&k1).unwrap();
        assert_eq!(f.total_bytes(), 160);
        assert_eq!(f.packets_ab + f.packets_ba, 2);
        assert_eq!((f.first_us, f.last_us), (10, 20));
    }

    #[test]
    fn distinct_tuples_distinct_flows() {
        let mut t = FlowTable::new();
        record(&mut t, 0, &udp6("2001:db8::1", 1000, "2001:db8::2", 53, 1));
        record(&mut t, 0, &udp6("2001:db8::1", 1001, "2001:db8::2", 53, 1));
        record(&mut t, 0, &udp6("2001:db8::1", 1000, "2001:db8::3", 53, 1));
        assert_eq!(t.len(), 3);
    }

    #[test]
    fn key_predicates() {
        let k = FlowKey::new(
            ("2001:db8::1".parse().unwrap(), 1000),
            ("2001:db8::2".parse().unwrap(), 53),
            FlowProto::Udp,
        );
        assert!(k.is_ipv6());
        assert!(k.involves_port(53));
        assert!(!k.involves_port(443));
    }
}
