//! The router's NAT44 rewrite normalises what it forwards, in both
//! directions: a fresh 20-byte IPv4 header (TOS, identification,
//! fragment bits and options dropped, TTL decremented), a fresh 20-byte
//! TCP header (options dropped, flags masked to 0x1f, urgent pointer
//! zero), a UDP payload cut at its length field, and every checksum
//! recomputed in full — so a segment that arrives with a bad checksum
//! leaves with a good one. The expected packets are built with the
//! `v6brick-net` serializers, which `v6brick-net`'s proptests pin
//! against independent reference serializers.

use proptest::prelude::*;
use rand::rngs::StdRng;
use rand::SeedableRng;
use std::net::Ipv4Addr;
use v6brick_net::ethernet::{self, EtherType};
use v6brick_net::udp::PseudoHeader;
use v6brick_net::{checksum, ipv4, tcp, udp, Mac};
use v6brick_sim::event::SimTime;
use v6brick_sim::host::Effects;
use v6brick_sim::{addrs, Router, RouterConfig};

const CLIENT_MAC: Mac = Mac::new(0x02, 0, 0, 0, 0, 0x42);
const LAN_IP: Ipv4Addr = Ipv4Addr::new(192, 168, 1, 100);
const REMOTE: Ipv4Addr = Ipv4Addr::new(198, 18, 7, 9);
/// The WAN port a fresh router maps its first flow to.
const FIRST_NAT_PORT: u16 = 20_000;

/// `len` deterministic pseudo-random bytes.
fn bytes(seed: u64, len: usize) -> Vec<u8> {
    let mut x = seed | 1;
    (0..len)
        .map(|_| {
            x ^= x << 13;
            x ^= x >> 7;
            x ^= x << 17;
            x as u8
        })
        .collect()
}

/// Empty, a 48 KiB cloud reply, odd, or up to 2 KiB.
fn arb_payload() -> impl Strategy<Value = Vec<u8>> {
    (0u8..4, 0usize..=2048, any::<u64>()).prop_map(|(kind, n, seed)| {
        let len = match kind {
            0 => 0,
            1 => 48 * 1024,
            2 => n | 1,
            _ => n,
        };
        bytes(seed, len)
    })
}

/// An IPv4 packet carrying header fields a rewrite must not copy: a TOS
/// byte, an identification, the DF bit and `opt_words` words of options.
fn odd_ipv4(
    src: Ipv4Addr,
    dst: Ipv4Addr,
    proto: u8,
    ttl: u8,
    opt_words: usize,
    salt: u64,
    l4: &[u8],
) -> Vec<u8> {
    let ihl = 5 + opt_words;
    let total = (ihl * 4 + l4.len()) as u16;
    let mut h = vec![0x40 | ihl as u8, salt as u8];
    h.extend_from_slice(&total.to_be_bytes());
    h.extend_from_slice(&[(salt >> 8) as u8, (salt >> 16) as u8, 0x40, 0]);
    h.extend_from_slice(&[ttl, proto, 0, 0]);
    h.extend_from_slice(&src.octets());
    h.extend_from_slice(&dst.octets());
    h.extend_from_slice(&bytes(salt, opt_words * 4));
    let c = checksum::checksum(&h);
    h[10..12].copy_from_slice(&c.to_be_bytes());
    [&h[..], l4].concat()
}

/// A TCP segment with `opt_words` words of options, the raw `flags`
/// byte (bits above 0x1f included), an urgent pointer and a garbage
/// checksum.
fn odd_tcp(seg: &tcp::Repr, flags: u8, urgent: u16, opt_words: usize, salt: u64) -> Vec<u8> {
    let mut h = [seg.src_port.to_be_bytes(), seg.dst_port.to_be_bytes()].concat();
    h.extend_from_slice(&seg.seq.to_be_bytes());
    h.extend_from_slice(&seg.ack.to_be_bytes());
    h.extend_from_slice(&[((5 + opt_words) as u8) << 4, flags]);
    h.extend_from_slice(&seg.window.to_be_bytes());
    h.extend_from_slice(&(salt as u16).to_be_bytes());
    h.extend_from_slice(&urgent.to_be_bytes());
    h.extend_from_slice(&bytes(salt, opt_words * 4));
    [&h[..], &seg.payload].concat()
}

/// A UDP datagram whose length field covers only the first `kept`
/// payload bytes, with a garbage checksum.
fn short_udp(src_port: u16, dst_port: u16, kept: usize, payload: &[u8], salt: u64) -> Vec<u8> {
    let h = [
        src_port.to_be_bytes(),
        dst_port.to_be_bytes(),
        ((8 + kept) as u16).to_be_bytes(),
        (salt as u16).to_be_bytes(),
    ]
    .concat();
    [&h[..], payload].concat()
}

fn lan_frame(packet: &[u8]) -> Vec<u8> {
    ethernet::Repr {
        src: CLIENT_MAC,
        dst: addrs::ROUTER_MAC,
        ethertype: EtherType::Ipv4,
    }
    .build(packet)
}

/// Hand the router one LAN frame; return what it sends to the WAN.
fn outbound(router: &mut Router, frame: &[u8]) -> Vec<Vec<u8>> {
    let mut rng = StdRng::seed_from_u64(1);
    let mut fx = Effects::new(&mut rng);
    router.on_frame(SimTime::ZERO, frame, &mut fx);
    fx.wan
}

/// Hand the router one WAN packet; return what it sends onto the LAN.
fn inbound(router: &mut Router, packet: &[u8]) -> Vec<Vec<u8>> {
    let mut rng = StdRng::seed_from_u64(1);
    let mut fx = Effects::new(&mut rng);
    router.on_wan_packet(SimTime::ZERO, packet, &mut fx);
    fx.frames
}

/// The frame the router emits toward the client for `packet`.
fn to_client(packet: &[u8]) -> Vec<u8> {
    ethernet::Repr {
        src: addrs::ROUTER_MAC,
        dst: CLIENT_MAC,
        ethertype: EtherType::Ipv4,
    }
    .build(packet)
}

fn ipv4_packet(src: Ipv4Addr, dst: Ipv4Addr, proto: ipv4::Protocol, ttl: u8, l4: &[u8]) -> Vec<u8> {
    ipv4::Repr {
        src,
        dst,
        protocol: proto,
        ttl: ttl.saturating_sub(1),
        payload_len: l4.len(),
    }
    .build(l4)
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(128))]

    #[test]
    fn tcp_rewrite_normalises_both_directions(
            lan_port in 1024u16..=65535, remote_port in 1u16..=65535,
            seq in any::<u32>(), ack in any::<u32>(), flags in any::<u8>(),
            window in any::<u16>(), urgent in any::<u16>(),
            tcp_opts in 0usize..=10, ip_opts in 0usize..=10,
            ttl in any::<u8>(), salt in any::<u64>(), payload in arb_payload()) {
        let mut router = Router::new(RouterConfig::dual_stack());
        let seg = |src_port, dst_port| tcp::Repr {
            src_port, dst_port, seq, ack, flags: tcp::Flags(flags & 0x1f), window,
            payload: payload.clone(),
        };

        // LAN → WAN: source rewritten to the router's WAN address.
        let odd = odd_tcp(&seg(lan_port, remote_port), flags, urgent, tcp_opts, salt);
        let frame = lan_frame(&odd_ipv4(LAN_IP, REMOTE, 6, ttl, ip_opts, salt, &odd));
        let wan = addrs::ROUTER_WAN_IPV4;
        let l4 = seg(FIRST_NAT_PORT, remote_port).build(PseudoHeader::V4 { src: wan, dst: REMOTE });
        let expected = ipv4_packet(wan, REMOTE, ipv4::Protocol::Tcp, ttl, &l4);
        prop_assert_eq!(outbound(&mut router, &frame), vec![expected]);

        // WAN → LAN: the reply through the mapping reaches the client.
        let odd = odd_tcp(&seg(remote_port, FIRST_NAT_PORT), flags, urgent, tcp_opts, salt);
        let packet = odd_ipv4(REMOTE, wan, 6, ttl, ip_opts, salt, &odd);
        let l4 = seg(remote_port, lan_port).build(PseudoHeader::V4 { src: REMOTE, dst: LAN_IP });
        let expected = to_client(&ipv4_packet(REMOTE, LAN_IP, ipv4::Protocol::Tcp, ttl, &l4));
        prop_assert_eq!(inbound(&mut router, &packet), vec![expected]);
    }

    #[test]
    fn udp_rewrite_cuts_at_the_length_field(
            lan_port in 1024u16..=65535, remote_port in 68u16..=65535,
            cut in any::<usize>(), ip_opts in 0usize..=10,
            ttl in any::<u8>(), salt in any::<u64>(), payload in arb_payload()) {
        let mut router = Router::new(RouterConfig::dual_stack());
        let kept = cut % (payload.len() + 1);
        let dgram = |src_port, dst_port| udp::Repr {
            src_port, dst_port, payload: payload[..kept].to_vec(),
        };

        let odd = short_udp(lan_port, remote_port, kept, &payload, salt);
        let frame = lan_frame(&odd_ipv4(LAN_IP, REMOTE, 17, ttl, ip_opts, salt, &odd));
        let wan = addrs::ROUTER_WAN_IPV4;
        let l4 = dgram(FIRST_NAT_PORT, remote_port).build(PseudoHeader::V4 { src: wan, dst: REMOTE });
        let expected = ipv4_packet(wan, REMOTE, ipv4::Protocol::Udp, ttl, &l4);
        prop_assert_eq!(outbound(&mut router, &frame), vec![expected]);

        let odd = short_udp(remote_port, FIRST_NAT_PORT, kept, &payload, salt);
        let packet = odd_ipv4(REMOTE, wan, 17, ttl, ip_opts, salt, &odd);
        let l4 = dgram(remote_port, lan_port).build(PseudoHeader::V4 { src: REMOTE, dst: LAN_IP });
        let expected = to_client(&ipv4_packet(REMOTE, LAN_IP, ipv4::Protocol::Udp, ttl, &l4));
        prop_assert_eq!(inbound(&mut router, &packet), vec![expected]);
    }
}
