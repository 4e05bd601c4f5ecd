//! Property tests on the flow-table invariants.

use proptest::prelude::*;
use std::net::{IpAddr, Ipv6Addr};
use v6brick_core::flows::{FlowKey, FlowProto, FlowTable};
use v6brick_net::ethernet::{EtherType, Repr as EthRepr};
use v6brick_net::ipv4::Protocol;
use v6brick_net::parse::ParsedPacket;
use v6brick_net::udp::PseudoHeader;
use v6brick_net::{ipv6, udp, Mac};

/// A UDP frame with an `n`-byte payload, to parse in place.
fn frame(src: Ipv6Addr, dst: Ipv6Addr, sp: u16, dp: u16, n: usize) -> Vec<u8> {
    let u = udp::Repr {
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

fn arb_v6() -> impl Strategy<Value = Ipv6Addr> {
    any::<u128>().prop_map(Ipv6Addr::from)
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(128))]

    #[test]
    fn key_is_direction_invariant(a in arb_v6(), b in arb_v6(), pa in any::<u16>(), pb in any::<u16>()) {
        let k1 = FlowKey::new((IpAddr::V6(a), pa), (IpAddr::V6(b), pb), FlowProto::Udp);
        let k2 = FlowKey::new((IpAddr::V6(b), pb), (IpAddr::V6(a), pa), FlowProto::Udp);
        prop_assert_eq!(k1, k2);
    }

    #[test]
    fn totals_conserve_bytes(packets in proptest::collection::vec(
        (any::<u128>(), any::<u128>(), any::<u16>(), any::<u16>(), 0usize..200), 1..50))
    {
        let mut table = FlowTable::new();
        let mut total = 0u64;
        for (i, (a, b, pa, pb, n)) in packets.iter().enumerate() {
            let f = frame(Ipv6Addr::from(*a), Ipv6Addr::from(*b), *pa, *pb, *n);
            table.record(i as u64, &ParsedPacket::parse(&f).unwrap());
            total += *n as u64;
        }
        let sum: u64 = table.iter().map(|(_, f)| f.total_bytes()).sum();
        prop_assert_eq!(sum, total);
        let packets_sum: u64 = table.iter().map(|(_, f)| f.packets_ab + f.packets_ba).sum();
        prop_assert_eq!(packets_sum as usize, packets.len());
    }

    #[test]
    fn timestamps_monotone_per_flow(ns in proptest::collection::vec(0usize..100, 2..30)) {
        let mut table = FlowTable::new();
        let src: Ipv6Addr = "2001:db8::1".parse().unwrap();
        let dst: Ipv6Addr = "2001:db8::2".parse().unwrap();
        for (i, n) in ns.iter().enumerate() {
            let f = frame(src, dst, 1000, 2000, *n);
            table.record(i as u64 * 10, &ParsedPacket::parse(&f).unwrap());
        }
        prop_assert_eq!(table.len(), 1);
        let (_, f) = table.iter().next().unwrap();
        prop_assert_eq!(f.first_us, 0);
        prop_assert_eq!(f.last_us, (ns.len() as u64 - 1) * 10);
    }
}
