//! Property-based round-trip and robustness tests for every wire format.

use proptest::prelude::*;
use std::net::{Ipv4Addr, Ipv6Addr};
use v6brick_net::dns::{Message, Name, Rcode, Rdata, Record, RecordType};
use v6brick_net::ipv4::Protocol;
use v6brick_net::udp::PseudoHeader;
use v6brick_net::{
    arp, checksum, dhcpv4, dhcpv6, dns, ethernet, icmpv4, icmpv6, ipv4, ipv6, ndp, tcp, tls, udp,
    Mac, Run, Speller,
};

fn arb_mac() -> impl Strategy<Value = Mac> {
    any::<[u8; 6]>().prop_map(Mac::from)
}

fn arb_v4() -> impl Strategy<Value = Ipv4Addr> {
    any::<u32>().prop_map(Ipv4Addr::from)
}

fn arb_v6() -> impl Strategy<Value = Ipv6Addr> {
    any::<u128>().prop_map(Ipv6Addr::from)
}

fn arb_label() -> impl Strategy<Value = String> {
    proptest::string::string_regex("[a-z0-9]([a-z0-9-]{0,14}[a-z0-9])?").unwrap()
}

fn arb_name() -> impl Strategy<Value = Name> {
    proptest::collection::vec(arb_label(), 1..5)
        .prop_map(|labels| Name::new(&labels.join(".")).unwrap())
}

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

/// A payload that is empty, the 48 KiB cloud-reply size, odd, or any
/// length up to 2 KiB.
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

/// A checksum input length: half the cases under 300 bytes, where the
/// 8-byte word and 16-bit tail boundaries lie close together, the rest up
/// to 70,000 bytes.
fn arb_checksum_len() -> impl Strategy<Value = usize> {
    (any::<bool>(), 0usize..300, 0usize..=70_000)
        .prop_map(|(short, s, l)| if short { s } else { l })
}

/// Reference RFC 1071 sum: big-endian 16-bit words, one at a time, of
/// the concatenated pieces (the final odd byte zero-padded), folded and
/// complemented.
fn reference_checksum(pieces: &[&[u8]]) -> u16 {
    let data = pieces.concat();
    let mut sum = 0u64;
    for w in data.chunks(2) {
        sum += u64::from(u16::from_be_bytes([w[0], *w.get(1).unwrap_or(&0)]));
    }
    while sum > 0xffff {
        sum = (sum & 0xffff) + (sum >> 16);
    }
    !(sum as u16)
}

/// Reference pseudo-header bytes (RFC 768 / RFC 793 / RFC 8200 §8.1).
fn reference_pseudo(ph: PseudoHeader, proto: u8, len: usize) -> Vec<u8> {
    match ph {
        PseudoHeader::V4 { src, dst } => {
            let mut p = [src.octets(), dst.octets()].concat();
            p.extend_from_slice(&[0, proto]);
            p.extend_from_slice(&(len as u16).to_be_bytes());
            p
        }
        PseudoHeader::V6 { src, dst } => {
            let mut p = [src.octets(), dst.octets()].concat();
            p.extend_from_slice(&(len as u32).to_be_bytes());
            p.extend_from_slice(&[0, 0, 0, proto]);
            p
        }
    }
}

fn reference_ipv4(src: Ipv4Addr, dst: Ipv4Addr, proto: u8, ttl: u8, payload: &[u8]) -> Vec<u8> {
    let total = (20 + payload.len()) as u16;
    let mut h = vec![0x45, 0];
    h.extend_from_slice(&total.to_be_bytes());
    h.extend_from_slice(&[0, 0, 0, 0, ttl, proto, 0, 0]);
    h.extend_from_slice(&src.octets());
    h.extend_from_slice(&dst.octets());
    let c = reference_checksum(&[&h]);
    h[10..12].copy_from_slice(&c.to_be_bytes());
    [&h[..], payload].concat()
}

fn reference_ipv6(src: Ipv6Addr, dst: Ipv6Addr, nh: u8, hl: u8, payload: &[u8]) -> Vec<u8> {
    let mut h = vec![0x60, 0, 0, 0];
    h.extend_from_slice(&(payload.len() as u16).to_be_bytes());
    h.extend_from_slice(&[nh, hl]);
    h.extend_from_slice(&src.octets());
    h.extend_from_slice(&dst.octets());
    [&h[..], payload].concat()
}

fn reference_udp(sp: u16, dp: u16, payload: &[u8], ph: PseudoHeader) -> Vec<u8> {
    let len = 8 + payload.len();
    let mut h = [
        sp.to_be_bytes(),
        dp.to_be_bytes(),
        (len as u16).to_be_bytes(),
        [0, 0],
    ]
    .concat();
    let c = match reference_checksum(&[&reference_pseudo(ph, 17, len), &h, payload]) {
        0 => 0xffff,
        c => c,
    };
    h[6..8].copy_from_slice(&c.to_be_bytes());
    [&h[..], payload].concat()
}

fn reference_tcp(r: &tcp::Repr, ph: PseudoHeader) -> Vec<u8> {
    let len = 20 + r.payload.len();
    let mut h = [&r.src_port.to_be_bytes()[..], &r.dst_port.to_be_bytes()].concat();
    h.extend_from_slice(&r.seq.to_be_bytes());
    h.extend_from_slice(&r.ack.to_be_bytes());
    h.extend_from_slice(&[0x50, r.flags.0]);
    h.extend_from_slice(&r.window.to_be_bytes());
    h.extend_from_slice(&[0, 0, 0, 0]);
    let c = reference_checksum(&[&reference_pseudo(ph, 6, len), &h, &r.payload]);
    h[16..18].copy_from_slice(&c.to_be_bytes());
    [&h[..], &r.payload].concat()
}

fn arb_pseudo() -> impl Strategy<Value = PseudoHeader> {
    (any::<bool>(), arb_v4(), arb_v4(), arb_v6(), arb_v6()).prop_map(|(v6, s4, d4, s6, d6)| {
        if v6 {
            PseudoHeader::V6 { src: s6, dst: d6 }
        } else {
            PseudoHeader::V4 { src: s4, dst: d4 }
        }
    })
}

/// The front of a payload that ends in a run: empty, odd, or any length
/// up to 2 KiB.
fn arb_front() -> impl Strategy<Value = Vec<u8>> {
    (0u8..3, 0usize..=2048, any::<u64>()).prop_map(|(kind, n, seed)| {
        let len = match kind {
            0 => 0,
            1 => n | 1,
            _ => n,
        };
        bytes(seed, len)
    })
}

/// The ClientHello `tls::client_hello` wrote before it ended in a run:
/// the handshake record for `host`, then application-data records of
/// at most 4,096 bytes of 0x5a, each behind a 5-byte record header,
/// carrying `payload_len` less the handshake record's length.
fn reference_client_hello(host: &[u8], payload_len: usize) -> Vec<u8> {
    let mut ext_body = ((host.len() + 3) as u16).to_be_bytes().to_vec();
    ext_body.push(0);
    ext_body.extend_from_slice(&(host.len() as u16).to_be_bytes());
    ext_body.extend_from_slice(host);
    let mut extensions = 0u16.to_be_bytes().to_vec();
    extensions.extend_from_slice(&(ext_body.len() as u16).to_be_bytes());
    extensions.extend_from_slice(&ext_body);
    let mut hello = vec![0x03, 0x03];
    hello.extend_from_slice(&[0x11; 32]);
    hello.push(0);
    hello.extend_from_slice(&[0x00, 0x02, 0x13, 0x01, 0x01, 0x00]);
    hello.extend_from_slice(&(extensions.len() as u16).to_be_bytes());
    hello.extend_from_slice(&extensions);
    let mut hs = vec![1];
    hs.extend_from_slice(&(hello.len() as u32).to_be_bytes()[1..]);
    hs.extend_from_slice(&hello);
    let mut rec = vec![22, 0x03, 0x01];
    rec.extend_from_slice(&(hs.len() as u16).to_be_bytes());
    rec.extend_from_slice(&hs);
    let mut remaining = payload_len.saturating_sub(rec.len());
    while remaining > 0 {
        let chunk = remaining.min(4096);
        rec.extend_from_slice(&[23, 0x03, 0x03]);
        rec.extend_from_slice(&(chunk as u16).to_be_bytes());
        rec.resize(rec.len() + chunk, 0x5a);
        remaining -= chunk;
    }
    rec
}

/// A run of either pattern, up to 62,000 bytes spelled: a fill of any
/// byte, or TLS padding, either one possibly cut short.
fn arb_run() -> impl Strategy<Value = Run> {
    (any::<bool>(), any::<u8>(), 0usize..=62_000, any::<u16>()).prop_map(
        |(padding, byte, n, cut)| {
            let run = if padding {
                Run::tls_padding(n)
            } else {
                Run::new(byte, n)
            };
            if cut % 4 == 0 {
                run.cut(0, usize::from(cut) % (run.len() + 1))
            } else {
                run
            }
        },
    )
}

/// A run of one of nine patterns, more than a [`Speller`] keeps: fills
/// of three bytes, and padding of six data sizes, two of them one record
/// apart and one a single byte past a whole record. Half are cut short,
/// to any length.
fn arb_speller_run() -> impl Strategy<Value = Run> {
    (0usize..9, any::<bool>(), 0usize..=13_000).prop_map(|(pattern, cut, end)| {
        let run = match pattern {
            0..=2 => Run::new(pattern as u8 * 0x51, 3_000 + 4_000 * pattern),
            p => Run::tls_padding([1, 100, 4_096, 4_097, 8_192, 12_000][p - 3]),
        };
        if cut {
            run.cut(0, end)
        } else {
            run
        }
    })
}

/// Host bytes for a server_name extension: letters of both cases,
/// digits, `-`, `_`, dots (so empty labels and trailing dots), and bytes
/// no name may hold, up to past the 253-byte limit.
fn arb_sni_host() -> impl Strategy<Value = Vec<u8>> {
    const ALPHABET: &[u8] = b"aZq09-_...! \xc3";
    proptest::collection::vec(0usize..ALPHABET.len(), 0..300)
        .prop_map(|picks| picks.into_iter().map(|i| ALPHABET[i]).collect())
}

/// A buffer of `header` garbage bytes ahead of `payload`: `emit` must
/// write every header byte itself.
fn dirty(header: usize, payload: &[u8]) -> Vec<u8> {
    [&vec![0xa5; header][..], payload].concat()
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(256))]

    #[test]
    fn checksum_verifies_after_insertion(data in proptest::collection::vec(any::<u8>(), 2..256)) {
        // Insert a checksum over the buffer at a fixed (even) offset, then
        // verify the whole buffer folds to zero.
        let mut buf = data.clone();
        if buf.len() % 2 == 1 { buf.push(0); }
        buf[0] = 0; buf[1] = 0;
        let c = checksum::checksum(&buf);
        buf[0..2].copy_from_slice(&c.to_be_bytes());
        prop_assert!(checksum::verify(&buf));
    }

    #[test]
    fn wide_checksum_matches_rfc1071_reference(len in arb_checksum_len(), seed in any::<u64>(),
                                               cuts in proptest::collection::vec(any::<u32>(), 0..6)) {
        let data = bytes(seed, len);
        // Even split points; only the final piece may be odd.
        let mut at: Vec<usize> = cuts.iter().map(|c| (*c as usize % (len / 2 + 1)) * 2).collect();
        at.sort_unstable();
        let mut c = checksum::Checksum::new();
        let mut prev = 0;
        for &cut in &at {
            c.add(&data[prev..cut]);
            prev = cut;
        }
        c.add(&data[prev..]);
        let reference = reference_checksum(&[&data]);
        prop_assert_eq!(c.finish(), reference);
        prop_assert_eq!(checksum::checksum(&data), reference);
    }

    #[test]
    fn ipv4_emit_matches_reference(src in arb_v4(), dst in arb_v4(), proto in any::<u8>(),
                                   ttl in any::<u8>(), payload in arb_payload()) {
        let r = ipv4::Repr { src, dst, protocol: proto.into(), ttl, payload_len: payload.len() };
        let reference = reference_ipv4(src, dst, proto, ttl, &payload);
        let mut buf = dirty(ipv4::HEADER_LEN, &payload);
        r.emit(&mut buf);
        prop_assert_eq!(&buf, &reference);
        prop_assert_eq!(r.build(&payload), reference);
    }

    #[test]
    fn ipv6_emit_matches_reference(src in arb_v6(), dst in arb_v6(), nh in any::<u8>(),
                                   hl in any::<u8>(), payload in arb_payload()) {
        let r = ipv6::Repr { src, dst, next_header: nh.into(), hop_limit: hl, payload_len: payload.len() };
        let reference = reference_ipv6(src, dst, nh, hl, &payload);
        let mut buf = dirty(ipv6::HEADER_LEN, &payload);
        r.emit(&mut buf);
        prop_assert_eq!(&buf, &reference);
        prop_assert_eq!(r.build(&payload), reference);
    }

    #[test]
    fn udp_emit_matches_reference(sp in any::<u16>(), dp in any::<u16>(), ph in arb_pseudo(),
                                  payload in arb_payload()) {
        let reference = reference_udp(sp, dp, &payload, ph);
        let mut buf = dirty(udp::HEADER_LEN, &payload);
        let r = udp::Repr { src_port: sp, dst_port: dp, payload };
        r.emit(&mut buf, Run::default(), ph);
        prop_assert_eq!(&buf, &reference);
        prop_assert_eq!(r.build(ph), reference);
    }

    #[test]
    fn add_run_matches_add_over_the_spelled_run(prefix in 0usize..600, seed in any::<u64>(),
                                                run in arb_run()) {
        // Heads of both parities: an odd head's last byte shares a word
        // with the run's first.
        let head = bytes(seed, prefix);
        let mut c = checksum::Checksum::new();
        c.add(&head);
        c.add_run(run, head.len() % 2 == 1);
        let spelled = run.spell(&head, &mut Vec::new()).to_vec();
        prop_assert_eq!(spelled.len(), head.len() + run.len());
        prop_assert_eq!(c.finish(), reference_checksum(&[&spelled]));
    }

    #[test]
    fn padding_runs_spell_client_hellos_padding(name in arb_name(), payload_len in 0usize..=13_000,
                                                data in 0usize..=65_000) {
        let (head, padding) = tls::client_hello(&name, payload_len);
        let spelled = padding.spell(&head, &mut Vec::new()).to_vec();
        prop_assert_eq!(spelled, reference_client_hello(name.as_str().as_bytes(), payload_len));
        // The padding alone, at lengths no upload reaches.
        let reference = reference_client_hello(b"", 0);
        let padded = reference_client_hello(b"", reference.len() + data);
        if padded.len() <= reference.len() + 65_535 {
            let run = Run::tls_padding(data);
            prop_assert_eq!(run.spell(&reference, &mut Vec::new()), &padded[..]);
        }
    }

    #[test]
    fn a_cut_run_spells_a_prefix(run in arb_run(), head in 0usize..64, end in 0usize..=70_000) {
        let front = bytes(7, head);
        let whole = run.spell(&front, &mut Vec::new()).to_vec();
        let cut = run.cut(head, end);
        prop_assert_eq!(cut.len(), end.saturating_sub(head).min(run.len()));
        prop_assert_eq!(cut.spell(&front, &mut Vec::new()), &whole[..head + cut.len()]);
    }

    #[test]
    fn udp_emit_with_a_run_spells_out_to_emit(sp in any::<u16>(), dp in any::<u16>(),
                                              ph in arb_pseudo(), front in arb_front(),
                                              byte in any::<u8>(), n in 0usize..=63_000) {
        let run = Run::new(byte, n);
        let mut head = dirty(udp::HEADER_LEN, &front);
        let r = udp::Repr { src_port: sp, dst_port: dp, payload: Vec::new() };
        r.emit(&mut head, run, ph);
        let full = run.spell(&front, &mut Vec::new()).to_vec();
        let mut spelled = dirty(udp::HEADER_LEN, &full);
        r.emit(&mut spelled, Run::default(), ph);
        prop_assert_eq!(run.spell(&head, &mut Vec::new()), &spelled[..]);
        prop_assert_eq!(spelled, reference_udp(sp, dp, &full, ph));
    }

    #[test]
    fn tcp_emit_with_a_run_spells_out_to_emit(sp in any::<u16>(), dp in any::<u16>(), seq in any::<u32>(),
                                              ack in any::<u32>(), flags in 0u8..32, window in any::<u16>(),
                                              ph in arb_pseudo(), front in arb_front(),
                                              byte in any::<u8>(), n in 0usize..=63_000) {
        let run = Run::new(byte, n);
        let mut r = tcp::Repr { src_port: sp, dst_port: dp, seq, ack, flags: tcp::Flags(flags), window, payload: Vec::new() };
        let mut head = dirty(tcp::HEADER_LEN, &front);
        r.emit(&mut head, run, ph);
        r.payload = run.spell(&front, &mut Vec::new()).to_vec();
        let mut spelled = dirty(tcp::HEADER_LEN, &r.payload);
        r.emit(&mut spelled, Run::default(), ph);
        prop_assert_eq!(run.spell(&head, &mut Vec::new()), &spelled[..]);
        prop_assert_eq!(spelled, reference_tcp(&r, ph));
    }

    #[test]
    fn views_with_a_tail_agree_with_the_spelled_out_packet(src in arb_v4(), dst in arb_v4(),
                                                           sp in any::<u16>(), dp in any::<u16>(),
                                                           front in arb_front(), byte in any::<u8>(),
                                                           n in 0usize..=60_000, lie in 0usize..=96) {
        // An IPv4 datagram ending in a run, whose lengths may also lie
        // short of the buffer, read through views over its head alone.
        let run = Run::new(byte, n);
        let ph = PseudoHeader::V4 { src, dst };
        let mut dgram = dirty(udp::HEADER_LEN, &front);
        udp::Repr { src_port: sp, dst_port: dp, payload: Vec::new() }.emit(&mut dgram, run, ph);
        let len = (dgram.len() + n).saturating_sub(lie).max(udp::HEADER_LEN);
        dgram[4..6].copy_from_slice(&(len as u16).to_be_bytes());
        let ip = ipv4::Repr { src, dst, protocol: Protocol::Udp, ttl: 64, payload_len: dgram.len() + n };
        let mut head = dirty(ipv4::HEADER_LEN, &dgram);
        ip.emit(&mut head);
        let spelled = run.spell(&head, &mut Vec::new()).to_vec();

        let whole = ipv4::Packet::new_checked(&spelled[..]).unwrap();
        let front4 = ipv4::Packet::new_checked_with_tail(&head[..], n).unwrap();
        prop_assert_eq!(ipv4::Repr::parse(&front4), ipv4::Repr::parse(&whole));
        let ip_run = run.cut(head.len(), usize::from(whole.total_len()));
        prop_assert_eq!(ip_run.spell(front4.payload(), &mut Vec::new()), whole.payload());

        let u = udp::Packet::new_checked(whole.payload()).unwrap();
        let front_u = udp::Packet::new_checked_with_tail(front4.payload(), ip_run.len()).unwrap();
        prop_assert_eq!((front_u.src_port(), front_u.dst_port()), (sp, dp));
        let udp_run = ip_run.cut(front4.payload().len(), usize::from(u.len()));
        prop_assert_eq!(udp_run.spell(front_u.payload(), &mut Vec::new()), u.payload());
        // One byte short of the length field is truncated either way.
        prop_assert!(udp::Packet::new_checked_with_tail(front4.payload(), u.len() as usize - front4.payload().len() - 1).is_err());
    }

    #[test]
    fn tcp_emit_matches_reference(sp in any::<u16>(), dp in any::<u16>(), seq in any::<u32>(),
                                  ack in any::<u32>(), flags in 0u8..32, window in any::<u16>(),
                                  ph in arb_pseudo(), payload in arb_payload()) {
        let r = tcp::Repr { src_port: sp, dst_port: dp, seq, ack, flags: tcp::Flags(flags), window, payload };
        let reference = reference_tcp(&r, ph);
        let mut buf = dirty(tcp::HEADER_LEN, &r.payload);
        r.emit(&mut buf, Run::default(), ph);
        prop_assert_eq!(&buf, &reference);
        prop_assert_eq!(r.build(ph), reference);
    }

    #[test]
    fn ethernet_roundtrip(src in arb_mac(), dst in arb_mac(), et in any::<u16>(),
                          payload in proptest::collection::vec(any::<u8>(), 0..128)) {
        let r = ethernet::Repr { src, dst, ethertype: et.into() };
        let bytes = r.build(&payload);
        let f = ethernet::Frame::new_checked(&bytes[..]).unwrap();
        prop_assert_eq!(ethernet::Repr::parse(&f), r);
        prop_assert_eq!(f.payload(), &payload[..]);
    }

    #[test]
    fn arp_roundtrip(smac in arb_mac(), sip in arb_v4(), tmac in arb_mac(), tip in arb_v4(), op in 1u8..=2) {
        let r = arp::Repr {
            operation: if op == 1 { arp::Operation::Request } else { arp::Operation::Reply },
            sender_mac: smac, sender_ip: sip, target_mac: tmac, target_ip: tip,
        };
        prop_assert_eq!(arp::Repr::parse_bytes(&r.build()).unwrap(), r);
    }

    #[test]
    fn ipv4_roundtrip(src in arb_v4(), dst in arb_v4(), proto in any::<u8>(), ttl in any::<u8>(),
                      payload in proptest::collection::vec(any::<u8>(), 0..256)) {
        let r = ipv4::Repr { src, dst, protocol: proto.into(), ttl, payload_len: payload.len() };
        let bytes = r.build(&payload);
        let p = ipv4::Packet::new_checked(&bytes[..]).unwrap();
        prop_assert_eq!(ipv4::Repr::parse(&p), r);
        prop_assert_eq!(p.payload(), &payload[..]);
    }

    #[test]
    fn ipv4_corruption_never_panics(src in arb_v4(), dst in arb_v4(),
                                    payload in proptest::collection::vec(any::<u8>(), 0..64),
                                    flip in any::<(usize, u8)>()) {
        let r = ipv4::Repr { src, dst, protocol: Protocol::Udp, ttl: 64, payload_len: payload.len() };
        let mut bytes = r.build(&payload);
        let idx = flip.0 % bytes.len();
        bytes[idx] ^= flip.1;
        let _ = ipv4::Packet::new_checked(&bytes[..]); // must not panic
    }

    #[test]
    fn ipv6_roundtrip(src in arb_v6(), dst in arb_v6(), nh in any::<u8>(), hl in any::<u8>(),
                      payload in proptest::collection::vec(any::<u8>(), 0..256)) {
        let r = ipv6::Repr { src, dst, next_header: nh.into(), hop_limit: hl, payload_len: payload.len() };
        let bytes = r.build(&payload);
        let p = ipv6::Packet::new_checked(&bytes[..]).unwrap();
        prop_assert_eq!(ipv6::Repr::parse(&p), r);
    }

    #[test]
    fn eui64_embed_extract(mac in arb_mac(), prefix in arb_v6()) {
        use v6brick_net::ipv6::Ipv6AddrExt;
        let prefix = Ipv6Addr::from(u128::from(prefix) & !0xffff_ffff_ffff_ffffu128);
        let a = mac.slaac_address(prefix);
        // The embedded MAC always comes back out.
        prop_assert_eq!(Mac::from_eui64(&a.octets()[8..16].try_into().unwrap()), Some(mac));
        // And for unicast-classified prefixes the trait agrees.
        if a.is_eui64() {
            prop_assert_eq!(a.eui64_mac(), Some(mac));
        }
    }

    #[test]
    fn mac_order_is_byte_order(a in arb_mac(), other in arb_mac(), shared in 0usize..=6) {
        // `b` shares `a`'s first `shared` bytes, so every position can
        // decide the order (all six shared: the two are equal).
        let mut b = other;
        b.0[..shared].copy_from_slice(&a.0[..shared]);
        prop_assert_eq!(a.cmp(&b), a.0.cmp(&b.0));
        prop_assert_eq!(a.partial_cmp(&b), Some(a.0.cmp(&b.0)));
    }

    #[test]
    fn udp_roundtrip_v6(src in arb_v6(), dst in arb_v6(), sp in any::<u16>(), dp in any::<u16>(),
                        payload in proptest::collection::vec(any::<u8>(), 0..256)) {
        let r = udp::Repr { src_port: sp, dst_port: dp, payload };
        let bytes = r.build(PseudoHeader::V6 { src, dst });
        let p = udp::Packet::new_checked(&bytes[..]).unwrap();
        prop_assert!(p.verify_checksum_v6(src, dst));
        prop_assert_eq!(udp::Repr::parse(&p), r);
    }

    #[test]
    fn tcp_roundtrip_v4(src in arb_v4(), dst in arb_v4(), sp in any::<u16>(), dp in any::<u16>(),
                        seq in any::<u32>(), ack in any::<u32>(), flags in 0u8..32,
                        payload in proptest::collection::vec(any::<u8>(), 0..256)) {
        let r = tcp::Repr {
            src_port: sp, dst_port: dp, seq, ack,
            flags: tcp::Flags(flags), window: 1024, payload,
        };
        let bytes = r.build(PseudoHeader::V4 { src, dst });
        let p = tcp::Packet::new_checked(&bytes[..]).unwrap();
        prop_assert!(p.verify_checksum_v4(src, dst));
        prop_assert_eq!(tcp::Repr::parse(&p), r);
    }

    #[test]
    fn icmpv4_roundtrip(ident in any::<u16>(), seq in any::<u16>(),
                        payload in proptest::collection::vec(any::<u8>(), 0..64)) {
        let r = icmpv4::Repr::EchoRequest { ident, seq, payload };
        prop_assert_eq!(icmpv4::Repr::parse_bytes(&r.build()).unwrap(), r);
    }

    #[test]
    fn icmpv6_echo_roundtrip(src in arb_v6(), dst in arb_v6(), ident in any::<u16>(), seq in any::<u16>(),
                             payload in proptest::collection::vec(any::<u8>(), 0..64)) {
        let r = icmpv6::Repr::EchoRequest { ident, seq, payload };
        let bytes = r.build(src, dst);
        prop_assert_eq!(icmpv6::Repr::parse_bytes(src, dst, &bytes).unwrap(), r);
    }

    #[test]
    fn ndp_ra_roundtrip(hop in any::<u8>(), m in any::<bool>(), o in any::<bool>(),
                        lifetime in any::<u16>(), prefix in arb_v6(), mac in arb_mac(),
                        rdnss in proptest::collection::vec(arb_v6(), 0..4)) {
        let ra = ndp::Repr::RouterAdvert {
            hop_limit: hop, managed: m, other_config: o,
            router_lifetime: lifetime, reachable_time: 0, retrans_time: 0,
            options: vec![
                ndp::NdpOption::SourceLinkLayerAddr(mac),
                ndp::NdpOption::PrefixInfo {
                    prefix_len: 64, on_link: true, autonomous: true,
                    valid_lifetime: 86400, preferred_lifetime: 14400, prefix,
                },
                ndp::NdpOption::Rdnss { lifetime: 1800, servers: rdnss },
            ],
        };
        let mut body = Vec::new();
        ra.emit_body(&mut body);
        prop_assert_eq!(ndp::Repr::parse_body(134, &body).unwrap(), ra);
    }

    #[test]
    fn dhcpv4_roundtrip(xid in any::<u32>(), mac in arb_mac(), your in arb_v4(),
                        lease in any::<u32>(), dns_servers in proptest::collection::vec(arb_v4(), 0..4)) {
        let mut r = dhcpv4::Repr::client(dhcpv4::MessageType::Ack, xid, mac);
        r.your_addr = your;
        r.lease_time = Some(lease);
        r.dns_servers = dns_servers;
        prop_assert_eq!(dhcpv4::Repr::parse_bytes(&r.build()).unwrap(), r);
    }

    #[test]
    fn dhcpv6_roundtrip(xid in any::<u32>(), duid in proptest::collection::vec(any::<u8>(), 1..20),
                        addr in arb_v6(), dns_servers in proptest::collection::vec(arb_v6(), 0..4)) {
        let mut r = dhcpv6::Repr::new(dhcpv6::MessageType::Reply, xid);
        r.client_id = Some(duid);
        r.ia_na = Some(dhcpv6::IaNa {
            iaid: 1, t1: 100, t2: 200,
            addresses: vec![dhcpv6::IaAddr { addr, preferred: 3600, valid: 7200 }],
        });
        r.dns_servers = dns_servers;
        prop_assert_eq!(dhcpv6::Repr::parse_bytes(&r.build()).unwrap(), r);
    }

    #[test]
    fn dns_query_roundtrip(id in any::<u16>(), name in arb_name()) {
        let q = Message::query(id, name, RecordType::Aaaa);
        prop_assert_eq!(Message::parse_bytes(&q.build()).unwrap(), q);
    }

    #[test]
    fn dns_response_roundtrip(id in any::<u16>(), name in arb_name(),
                              answers in proptest::collection::vec(arb_v6(), 0..6),
                              ttl in any::<u32>()) {
        let q = Message::query(id, name.clone(), RecordType::Aaaa);
        let mut resp = q.response(Rcode::NoError);
        for a in &answers {
            resp.answers.push(Record::new(name.clone(), ttl, Rdata::Aaaa(*a)));
        }
        let parsed = Message::parse_bytes(&resp.build()).unwrap();
        prop_assert_eq!(&parsed, &resp);
        prop_assert_eq!(parsed.aaaa_answers().count(), answers.len());
        // Compression must never grow past the naive encoding.
        let naive = 12 + (name.as_str().len() + 6) * (answers.len() + 1) + answers.len() * 26 + 16;
        prop_assert!(resp.build().len() <= naive + 16);
    }

    #[test]
    fn dns_never_panics_on_garbage(data in proptest::collection::vec(any::<u8>(), 0..128)) {
        let _ = Message::parse_bytes(&data);
    }

    #[test]
    fn dns_name_subdomain_reflexive(name in arb_name()) {
        prop_assert!(name.is_subdomain_of(&name));
        prop_assert!(name.is_subdomain_of(&dns::Name::root()));
        prop_assert!(name.second_level().labels().count() <= 2);
    }

    #[test]
    fn tls_sni_roundtrip(name in arb_name(), pad in 0usize..4096) {
        let (hello, padding) = tls::client_hello(&name, pad);
        prop_assert_eq!(tls::parse_sni(&hello).unwrap(), name);
        prop_assert!(hello.len() + padding.len() >= pad);
    }

    #[test]
    fn sni_text_accepts_and_normalises_what_parse_sni_does(host in arb_sni_host(),
                                                           pad in 0usize..600, cut in any::<u16>()) {
        let hello = reference_client_hello(&host, pad);
        let owned = |t: dns::NameText| t.to_name();
        prop_assert_eq!(tls::sni_text(&hello).map(owned), tls::parse_sni(&hello));
        // Truncated hellos fail alike.
        let short = &hello[..usize::from(cut) % (hello.len() + 1)];
        prop_assert_eq!(tls::sni_text(short).map(owned), tls::parse_sni(short));
    }

    #[test]
    fn tls_never_panics_on_garbage(data in proptest::collection::vec(any::<u8>(), 0..256)) {
        let _ = tls::parse_sni(&data);
        prop_assert_eq!(tls::sni_text(&data).map(|t| t.to_name()), tls::parse_sni(&data));
    }

    #[test]
    fn full_stack_parse_roundtrip(src_mac in arb_mac(), dst_mac in arb_mac(),
                                  src in arb_v6(), dst in arb_v6(),
                                  sp in any::<u16>(), dp in any::<u16>(),
                                  payload in proptest::collection::vec(any::<u8>(), 0..128)) {
        use v6brick_net::parse::{L4, ParsedPacket};
        let u = udp::Repr { src_port: sp, dst_port: dp, payload: payload.clone() }
            .build(PseudoHeader::V6 { src, dst });
        let ip = ipv6::Repr { src, dst, next_header: Protocol::Udp, hop_limit: 64, payload_len: u.len() }
            .build(&u);
        let frame = ethernet::Repr { src: src_mac, dst: dst_mac, ethertype: ethernet::EtherType::Ipv6 }
            .build(&ip);
        let p = ParsedPacket::parse(&frame).unwrap();
        prop_assert_eq!(p.src_mac(), src_mac);
        prop_assert_eq!(p.ports(), Some((sp, dp)));
        match p.l4 {
            L4::Udp { payload: got, .. } => prop_assert_eq!(got, &payload[..]),
            other => prop_assert!(false, "expected udp, got {:?}", other),
        }
    }

    #[test]
    fn full_stack_tcp_parse_borrows_payload_and_carries_seq_ack(
            src in arb_v4(), dst in arb_v4(), sp in any::<u16>(), dp in any::<u16>(),
            seq in any::<u32>(), ack in any::<u32>(), flags in 0u8..32,
            payload in proptest::collection::vec(any::<u8>(), 0..128)) {
        use v6brick_net::parse::{L4, ParsedPacket};
        let r = tcp::Repr { src_port: sp, dst_port: dp, seq, ack, flags: tcp::Flags(flags), window: 512, payload };
        let seg = r.build(PseudoHeader::V4 { src, dst });
        let ip = ipv4::Repr { src, dst, protocol: Protocol::Tcp, ttl: 64, payload_len: seg.len() }
            .build(&seg);
        let frame = ethernet::Repr { src: Mac::BROADCAST, dst: Mac::BROADCAST, ethertype: ethernet::EtherType::Ipv4 }
            .build(&ip);
        let p = ParsedPacket::parse(&frame).unwrap();
        let expected = L4::Tcp { src_port: sp, dst_port: dp, seq, ack, flags: tcp::Flags(flags), payload: &r.payload[..] };
        prop_assert_eq!(&p.l4, &expected);
        // The payload is the frame's own bytes, not a copy.
        prop_assert_eq!(p.l4_payload().map(|b| b.as_ptr()), Some(frame[frame.len() - r.payload.len()..].as_ptr()));
    }

    #[test]
    fn dhcpv6_never_panics_on_garbage(data in proptest::collection::vec(any::<u8>(), 0..160)) {
        let _ = dhcpv6::Repr::parse_bytes(&data);
    }

    #[test]
    fn dhcpv6_truncation_and_corruption_never_panic(
            xid in any::<u32>(), duid in proptest::collection::vec(any::<u8>(), 1..20),
            addr in arb_v6(), dns_servers in proptest::collection::vec(arb_v6(), 0..4),
            cut in any::<usize>(), flip in any::<(usize, u8)>()) {
        let mut r = dhcpv6::Repr::new(dhcpv6::MessageType::Reply, xid);
        r.client_id = Some(duid);
        r.ia_na = Some(dhcpv6::IaNa {
            iaid: 1, t1: 100, t2: 200,
            addresses: vec![dhcpv6::IaAddr { addr, preferred: 3600, valid: 7200 }],
        });
        r.dns_servers = dns_servers;
        let bytes = r.build();
        // Every prefix either parses or is cleanly rejected.
        let _ = dhcpv6::Repr::parse_bytes(&bytes[..cut % (bytes.len() + 1)]);
        // A flipped byte (often inside an option header, turning its
        // declared length into a lie) must never panic either.
        let mut mangled = bytes.clone();
        let idx = flip.0 % mangled.len();
        mangled[idx] ^= flip.1;
        let _ = dhcpv6::Repr::parse_bytes(&mangled);
    }

    #[test]
    fn ndp_never_panics_on_garbage(ty in 133u8..=137, data in proptest::collection::vec(any::<u8>(), 0..96)) {
        let _ = ndp::Repr::parse_body(ty, &data);
    }

    #[test]
    fn rdnss_truncation_and_corruption_never_panic(
            prefix in arb_v6(), mac in arb_mac(),
            rdnss in proptest::collection::vec(arb_v6(), 0..4),
            cut in any::<usize>(), flip in any::<(usize, u8)>()) {
        let ra = ndp::Repr::RouterAdvert {
            hop_limit: 64, managed: false, other_config: true,
            router_lifetime: 1800, reachable_time: 0, retrans_time: 0,
            options: vec![
                ndp::NdpOption::SourceLinkLayerAddr(mac),
                ndp::NdpOption::PrefixInfo {
                    prefix_len: 64, on_link: true, autonomous: true,
                    valid_lifetime: 86400, preferred_lifetime: 14400, prefix,
                },
                ndp::NdpOption::Rdnss { lifetime: 1800, servers: rdnss },
            ],
        };
        let mut body = Vec::new();
        ra.emit_body(&mut body);
        let _ = ndp::Repr::parse_body(134, &body[..cut % (body.len() + 1)]);
        // Corrupt one byte — an RDNSS option whose length field no
        // longer matches its server list is the interesting case.
        let mut mangled = body.clone();
        let idx = flip.0 % mangled.len();
        mangled[idx] ^= flip.1;
        let _ = ndp::Repr::parse_body(134, &mangled);
    }

    #[test]
    fn frame_truncation_never_panics(src_mac in arb_mac(), dst_mac in arb_mac(),
                                     src in arb_v6(), dst in arb_v6(),
                                     cut in any::<usize>()) {
        use v6brick_net::parse::ParsedPacket;
        let u = udp::Repr { src_port: 1, dst_port: 2, payload: vec![0; 32] }
            .build(PseudoHeader::V6 { src, dst });
        let ip = ipv6::Repr { src, dst, next_header: Protocol::Udp, hop_limit: 64, payload_len: u.len() }
            .build(&u);
        let frame = ethernet::Repr { src: src_mac, dst: dst_mac, ethertype: ethernet::EtherType::Ipv6 }
            .build(&ip);
        let cut = cut % (frame.len() + 1);
        let _ = ParsedPacket::parse(&frame[..cut]);
        let _ = v6brick_net::parse::parse_lenient(&frame[..cut]);
    }

    #[test]
    fn a_speller_spells_what_each_run_spells(
        frames in proptest::collection::vec((0usize..400, arb_speller_run()), 1..48),
        seed in any::<u64>(),
    ) {
        // Heads run from empty to past the room in front of a slot's run.
        let mut speller = Speller::new();
        for (i, (head, run)) in frames.into_iter().enumerate() {
            let head = bytes(seed ^ i as u64, head);
            let want = run.spell(&head, &mut Vec::new()).to_vec();
            prop_assert_eq!(speller.spell(&head, run), &want[..]);
        }
    }
}
