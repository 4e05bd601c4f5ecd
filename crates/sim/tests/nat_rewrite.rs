//! The router's NAT44 rewrite normalises what it forwards, in both
//! directions: a fresh 20-byte IPv4 header (TOS, identification,
//! fragment bits and options dropped, TTL decremented), a fresh 20-byte
//! TCP header (options dropped, flags masked to 0x1f, urgent pointer
//! zero), a UDP payload cut at its length field, and every checksum
//! recomputed in full — so a segment that arrives with a bad checksum
//! leaves with a good one. The expected packets are built with the
//! `v6brick-net` serializers, which `v6brick-net`'s proptests pin
//! against independent reference serializers.
//!
//! A reply from the internet model ends in a run (its body of one
//! repeated byte, kept as `(byte, len)`). The router forwards the run
//! unspelled, through NAT44 and through 6in4 decapsulation alike, and
//! the frame it sends must spell out to the frame the spelled-out reply
//! gives. A device's telemetry upload ends in a run of TLS padding, which
//! the router carries to the WAN unspelled, through NAT44 and 6in4
//! encapsulation alike: the packet it sends must spell out to the packet
//! the spelled-out upload gives.

use proptest::prelude::*;
use rand::rngs::StdRng;
use rand::SeedableRng;
use std::net::{Ipv4Addr, Ipv6Addr};
use v6brick_net::dns::Name;
use v6brick_net::ethernet::{self, EtherType};
use v6brick_net::udp::PseudoHeader;
use v6brick_net::{checksum, ipv4, ipv6, tcp, tls, udp, Mac, Run};
use v6brick_sim::event::SimTime;
use v6brick_sim::host::Effects;
use v6brick_sim::wire::{self, Queued};
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

/// Hand the router one WAN packet, `head` followed by `run`; return
/// what it sends onto the LAN, each frame's run spelled out, and how
/// many bytes it wrote itself.
fn inbound_run(router: &mut Router, head: &[u8], run: Run) -> (Vec<Vec<u8>>, usize) {
    let mut rng = StdRng::seed_from_u64(1);
    let mut fx = Effects::new(&mut rng);
    router.on_wan_packet(SimTime::ZERO, Queued { head, run }, &mut fx);
    let written = fx.frames.iter().map(Vec::len).sum();
    let frames = fx
        .frames
        .iter()
        .enumerate()
        .map(|(i, f)| fx.run(i).spell(f, &mut Vec::new()).to_vec())
        .collect();
    (frames, written)
}

/// Hand the router one LAN frame, `head` followed by `run`; return what
/// it sends to the WAN, each packet's run spelled out, and how many
/// bytes it wrote itself.
fn outbound_run(router: &mut Router, head: &[u8], run: Run) -> (Vec<Vec<u8>>, usize) {
    let mut rng = StdRng::seed_from_u64(1);
    let mut fx = Effects::new(&mut rng);
    router.on_frame(SimTime::ZERO, Queued { head, run }, &mut fx);
    let written = fx.wan.iter().map(Vec::len).sum();
    let packets = fx
        .wan
        .iter()
        .enumerate()
        .map(|(i, p)| fx.wan_run(i).spell(p, &mut Vec::new()).to_vec())
        .collect();
    (packets, written)
}

/// A telemetry segment's payload as a device queues it: the ClientHello
/// for a name `name_len` letters longer than `.example`, and the padding
/// that brings it to `size` bytes (none when the hello alone is that
/// long).
fn upload(name_len: usize, size: usize) -> (Vec<u8>, Run) {
    let name = "a".repeat(name_len) + ".example";
    tls::client_hello(&Name::new(&name).unwrap(), size)
}

/// A transport header for a reply whose whole payload is `run`, emitted
/// with the run's share of the checksum: TCP when `seg` is given, else
/// UDP between the ports.
fn l4_head(seg: Option<&tcp::Repr>, ports: (u16, u16), run: Run, ph: PseudoHeader) -> Vec<u8> {
    match seg {
        Some(seg) => {
            let mut l4 = vec![0; tcp::HEADER_LEN];
            seg.emit(&mut l4, run, ph);
            l4
        }
        None => {
            let mut l4 = vec![0; udp::HEADER_LEN];
            let (src_port, dst_port) = ports;
            udp::Repr {
                src_port,
                dst_port,
                payload: Vec::new(),
            }
            .emit(&mut l4, run, ph);
            l4
        }
    }
}

/// A run: empty, a 48 KiB cloud reply, odd, or up to 9 KiB.
fn arb_run() -> impl Strategy<Value = Run> {
    (0u8..4, 0usize..=9216, any::<u8>()).prop_map(|(kind, n, byte)| {
        let len = match kind {
            0 => 0,
            1 => 48 * 1024,
            2 => n | 1,
            _ => n,
        };
        Run::new(byte, len)
    })
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(128))]

    #[test]
    fn nat44_reverse_carries_a_run_to_the_spelled_out_frame(
            lan_port in 1024u16..=65535, remote_port in 68u16..=65535, is_tcp in any::<bool>(),
            seq in any::<u32>(), ack in any::<u32>(), ttl in 1u8..=255, run in arb_run()) {
        let mut router = Router::new(RouterConfig::dual_stack());
        let proto = if is_tcp { 6 } else { 17 };
        let open = if is_tcp {
            odd_tcp(&tcp::Repr::syn(lan_port, remote_port, seq), 0x02, 0, 0, 1)
        } else {
            short_udp(lan_port, remote_port, 0, &[], 1)
        };
        outbound(&mut router, &lan_frame(&odd_ipv4(LAN_IP, REMOTE, proto, 64, 0, 1, &open)));

        let wan = addrs::ROUTER_WAN_IPV4;
        let seg = tcp::Repr {
            src_port: remote_port, dst_port: FIRST_NAT_PORT, seq, ack,
            flags: tcp::Flags::PSH | tcp::Flags::ACK, window: 0xffff, payload: Vec::new(),
        };
        let l4 = l4_head(is_tcp.then_some(&seg), (remote_port, FIRST_NAT_PORT), run,
                         PseudoHeader::V4 { src: REMOTE, dst: wan });
        let mut head = vec![0; ipv4::HEADER_LEN];
        head.extend_from_slice(&l4);
        ipv4::Repr {
            src: REMOTE, dst: wan, protocol: proto.into(), ttl,
            payload_len: l4.len() + run.len(),
        }
        .emit(&mut head);

        let spelled = inbound(&mut router.clone(), run.spell(&head, &mut Vec::new()));
        let (frames, written) = inbound_run(&mut router, &head, run);
        prop_assert_eq!(spelled.len(), 1);
        prop_assert_eq!(frames, spelled);
        // The router wrote the headers only.
        prop_assert_eq!(written, ethernet::HEADER_LEN + head.len());
    }

    #[test]
    fn sixin4_decapsulation_carries_a_run_to_the_spelled_out_frame(
            dev_port in 1024u16..=65535, remote_port in 1u16..=65535, is_tcp in any::<bool>(),
            seq in any::<u32>(), ack in any::<u32>(), run in arb_run()) {
        let mut router = Router::new(RouterConfig::ipv6_only());
        let dev: Ipv6Addr = "2001:db8:10:1::42".parse().unwrap();
        let remote: Ipv6Addr = "2001:db8:ffff::9".parse().unwrap();
        // The device's first packet teaches the router its neighbor.
        let hello = wire::udp6_frame(CLIENT_MAC, addrs::ROUTER_MAC, dev, remote, 5000, 443, vec![1]);
        outbound(&mut router, &hello);

        let proto = if is_tcp { 6 } else { 17 };
        let seg = tcp::Repr {
            src_port: remote_port, dst_port: dev_port, seq, ack,
            flags: tcp::Flags::PSH | tcp::Flags::ACK, window: 0xffff, payload: Vec::new(),
        };
        let l4 = l4_head(is_tcp.then_some(&seg), (remote_port, dev_port), run,
                         PseudoHeader::V6 { src: remote, dst: dev });
        let at = ipv4::HEADER_LEN + ipv6::HEADER_LEN;
        let mut head = vec![0; at];
        head.extend_from_slice(&l4);
        ipv6::Repr {
            src: remote, dst: dev, next_header: proto.into(), hop_limit: 64,
            payload_len: l4.len() + run.len(),
        }
        .emit(&mut head[ipv4::HEADER_LEN..]);
        ipv4::Repr {
            src: addrs::TUNNEL_REMOTE_IPV4, dst: addrs::ROUTER_WAN_IPV4,
            protocol: ipv4::Protocol::Ipv6, ttl: 64,
            payload_len: head.len() - ipv4::HEADER_LEN + run.len(),
        }
        .emit(&mut head);

        let spelled = inbound(&mut router.clone(), run.spell(&head, &mut Vec::new()));
        let (frames, written) = inbound_run(&mut router, &head, run);
        prop_assert_eq!(spelled.len(), 1);
        prop_assert_eq!(frames, spelled);
        prop_assert_eq!(written, ethernet::HEADER_LEN + head.len() - ipv4::HEADER_LEN);
    }

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

    #[test]
    fn nat44_carries_an_uploads_padding_to_the_spelled_out_packet(
            lan_port in 1024u16..=65535, remote_port in 1u16..=65535,
            seq in any::<u32>(), ack in any::<u32>(),
            name_len in 1usize..=40, size in 0usize..=12_000) {
        let mut router = Router::new(RouterConfig::dual_stack());
        let (hello, padding) = upload(name_len, size);
        let seg = tcp::Repr {
            src_port: lan_port, dst_port: remote_port, seq, ack,
            flags: tcp::Flags::PSH | tcp::Flags::ACK, window: 0xffff, payload: hello,
        };
        let head = wire::tcp4_frame_with_run(CLIENT_MAC, addrs::ROUTER_MAC, LAN_IP, REMOTE, &seg, padding);

        let spelled = outbound(&mut router.clone(), padding.spell(&head, &mut Vec::new()));
        let (packets, written) = outbound_run(&mut router, &head, padding);
        prop_assert_eq!(spelled.len(), 1);
        prop_assert_eq!(packets, spelled);
        // The router wrote the headers and the ClientHello only.
        prop_assert_eq!(written, head.len() - ethernet::HEADER_LEN);
    }

    #[test]
    fn sixin4_carries_an_uploads_padding_to_the_spelled_out_packet(
            dev_port in 1024u16..=65535, remote_port in 1u16..=65535,
            seq in any::<u32>(), ack in any::<u32>(),
            name_len in 1usize..=40, size in 0usize..=12_000) {
        let mut router = Router::new(RouterConfig::ipv6_only());
        let dev: Ipv6Addr = "2001:db8:10:1::42".parse().unwrap();
        let remote: Ipv6Addr = "2001:db8:ffff::9".parse().unwrap();
        let (hello, padding) = upload(name_len, size);
        let seg = tcp::Repr {
            src_port: dev_port, dst_port: remote_port, seq, ack,
            flags: tcp::Flags::PSH | tcp::Flags::ACK, window: 0xffff, payload: hello,
        };
        let head = wire::tcp6_frame_with_run(CLIENT_MAC, addrs::ROUTER_MAC, dev, remote, &seg, padding);

        let spelled = outbound(&mut router.clone(), padding.spell(&head, &mut Vec::new()));
        let (packets, written) = outbound_run(&mut router, &head, padding);
        prop_assert_eq!(spelled.len(), 1);
        prop_assert_eq!(packets, spelled);
        prop_assert_eq!(written, ipv4::HEADER_LEN + head.len() - ethernet::HEADER_LEN);
    }
}
