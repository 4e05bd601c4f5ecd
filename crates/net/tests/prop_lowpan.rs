//! Property tests for the 6LoWPAN adaptation layer — the same discipline
//! as `prop_readers` in `v6brick-pcap`: compress→decompress is identity
//! for every address mode the compressor can choose, and the decompressor
//! and reassembler *type* hostile input (garbage, truncation, overlapping
//! fragments) instead of panicking.

use proptest::prelude::*;
use std::net::Ipv6Addr;
use v6brick_net::ipv4::Protocol;
use v6brick_net::ipv6::{self, Cidr};
use v6brick_net::udp::{self, PseudoHeader};
use v6brick_net::{ieee802154, sixlowpan, Mac};

fn ctx() -> Cidr {
    Cidr::new("2001:db8:10:1::".parse().unwrap(), 64)
}

fn arb_ll() -> impl Strategy<Value = [u8; 8]> {
    any::<[u8; 6]>().prop_map(|b| Mac::from(b).to_eui64())
}

/// Assemble a unicast address exercising one of the compressor's modes:
/// prefix ∈ {link-local, the context /64, a foreign /64} crossed with
/// IID ∈ {the link-layer address (full elision), the 16-bit ff:fe00 form,
/// an arbitrary 64-bit IID}.
fn unicast(prefix_mode: u8, iid_mode: u8, ll: [u8; 8], short: u16, iid: [u8; 8]) -> Ipv6Addr {
    let mut o = [0u8; 16];
    o[..8].copy_from_slice(match prefix_mode % 3 {
        0 => &[0xfe, 0x80, 0, 0, 0, 0, 0, 0],
        1 => &[0x20, 0x01, 0x0d, 0xb8, 0x00, 0x10, 0x00, 0x01], // the context /64
        _ => &[0x20, 0x01, 0x0d, 0xb8, 0xbe, 0xef, 0, 0],       // foreign: full inline
    });
    match iid_mode % 3 {
        0 => o[8..].copy_from_slice(&ll),
        1 => {
            o[11] = 0xff;
            o[12] = 0xfe;
            o[14..].copy_from_slice(&short.to_be_bytes());
        }
        _ => o[8..].copy_from_slice(&iid),
    }
    Ipv6Addr::from(o)
}

/// Assemble a multicast address in one of the four DAM shapes:
/// ff02::XX (8-bit), 32-bit, 48-bit, and full-inline.
fn multicast(mode: u8, scope: u8, tail: [u8; 15]) -> Ipv6Addr {
    let mut o = [0u8; 16];
    o[0] = 0xff;
    match mode % 4 {
        0 => {
            o[1] = 0x02;
            o[15] = tail[0];
        }
        1 => {
            o[1] = scope;
            o[13..].copy_from_slice(&tail[..3]);
        }
        2 => {
            o[1] = scope;
            o[11..].copy_from_slice(&tail[..5]);
        }
        _ => o[1..].copy_from_slice(&tail),
    }
    Ipv6Addr::from(o)
}

fn hop_limit_of(mode: u8, raw: u8) -> u8 {
    match mode % 4 {
        0 => 1,
        1 => 64,
        2 => 255,
        _ => raw,
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(96))]

    #[test]
    fn iphc_roundtrips_every_address_mode(
        ll_src in arb_ll(),
        ll_dst in arb_ll(),
        (src_prefix, src_iid_mode, src_short, src_iid) in
            (any::<u8>(), any::<u8>(), any::<u16>(), any::<[u8; 8]>()),
        (dst_prefix, dst_iid_mode, dst_short, dst_iid) in
            (any::<u8>(), any::<u8>(), any::<u16>(), any::<[u8; 8]>()),
        (mcast_mode, mcast_scope, mcast_tail) in
            (any::<u8>(), any::<u8>(), any::<[u8; 15]>()),
        kind in 0u8..4, // 0 = unicast→unicast, 1 = unspecified src, 2/3 = multicast dst
        (hlim_mode, hlim_raw) in (any::<u8>(), any::<u8>()),
        next_header in 0u8..=255,
        payload in proptest::collection::vec(any::<u8>(), 0..96),
    ) {
        let src = if kind == 1 {
            Ipv6Addr::UNSPECIFIED
        } else {
            unicast(src_prefix, src_iid_mode, ll_src, src_short, src_iid)
        };
        let dst = if kind >= 2 {
            multicast(mcast_mode, mcast_scope, mcast_tail)
        } else {
            unicast(dst_prefix, dst_iid_mode, ll_dst, dst_short, dst_iid)
        };
        // NHC-UDP is covered by its own property below; a next_header
        // byte of 17 over a non-UDP payload simply stays inline (the
        // compressor checks the payload parses as UDP first).
        let ip = ipv6::Repr {
            src, dst,
            next_header: next_header.into(),
            hop_limit: hop_limit_of(hlim_mode, hlim_raw),
            payload_len: payload.len(),
        };
        let c = sixlowpan::compress(&ip, &payload, &ll_src, &ll_dst, Some(&ctx()));
        prop_assert!(sixlowpan::is_iphc(&c));
        let (rip, rp) = sixlowpan::decompress(&c, &ll_src, &ll_dst, Some(&ctx())).unwrap();
        prop_assert_eq!(rip.src, ip.src);
        prop_assert_eq!(rip.dst, ip.dst);
        prop_assert_eq!(rip.hop_limit, ip.hop_limit);
        prop_assert_eq!(rp, payload);
        // next_header survives except when a random 17 rode a payload
        // that happens to parse as UDP — then NHC rebuilds it as UDP.
        if ip.next_header != Protocol::Udp {
            prop_assert_eq!(rip.next_header, ip.next_header);
        }
    }

    #[test]
    fn nhc_udp_roundtrips_all_port_classes(
        ll_src in arb_ll(),
        ll_dst in arb_ll(),
        (src_bits, dst_bits) in (any::<u128>(), any::<u128>()),
        (sport_class, dport_class) in (0u8..3, 0u8..3),
        (sport, dport) in (any::<u16>(), any::<u16>()),
        body in proptest::collection::vec(any::<u8>(), 0..64),
        hlim in (any::<u8>(), any::<u8>()).prop_map(|(m, r)| hop_limit_of(m, r)),
    ) {
        // Force ports into each NHC class: arbitrary, 0xF0xx, 0xF0Bx.
        let shape = |class: u8, p: u16| match class {
            1 => 0xf000 | (p & 0xff),
            2 => 0xf0b0 | (p & 0x0f),
            _ => p,
        };
        let src = Ipv6Addr::from(src_bits);
        let dst = Ipv6Addr::from(dst_bits);
        let datagram = udp::Repr {
            src_port: shape(sport_class, sport),
            dst_port: shape(dport_class, dport),
            payload: body,
        }
        .build(PseudoHeader::V6 { src, dst });
        let ip = ipv6::Repr {
            src, dst,
            next_header: Protocol::Udp,
            hop_limit: hlim,
            payload_len: datagram.len(),
        };
        let c = sixlowpan::compress(&ip, &datagram, &ll_src, &ll_dst, Some(&ctx()));
        let (rip, rp) = sixlowpan::decompress(&c, &ll_src, &ll_dst, Some(&ctx())).unwrap();
        prop_assert_eq!(rip.next_header, Protocol::Udp);
        prop_assert_eq!(rp, datagram, "UDP header + checksum must rebuild byte-exactly");
    }

    #[test]
    fn fragment_reassemble_is_identity(
        mut datagram in proptest::collection::vec(any::<u8>(), 1..1500),
        tag in any::<u16>(),
        src in arb_ll(),
        dst in arb_ll(),
    ) {
        // A real unfragmented LoWPAN payload always starts with an IPHC
        // dispatch, never a FRAG one; mask the lead byte so small random
        // datagrams don't masquerade as fragments.
        datagram[0] &= 0x7f;
        let frags = sixlowpan::fragment(&datagram, tag, ieee802154::MAX_PAYLOAD).unwrap();
        prop_assert!(frags.iter().all(|f| f.len() <= ieee802154::MAX_PAYLOAD));
        let mut r = sixlowpan::Reassembler::new();
        let mut out = None;
        for (i, f) in frags.iter().enumerate() {
            let got = r.push(i as u64, src, dst, f).unwrap();
            if i + 1 < frags.len() {
                prop_assert!(got.is_none());
            } else {
                out = got;
            }
        }
        prop_assert_eq!(out.expect("final fragment completes"), datagram);
        prop_assert_eq!(r.pending(), 0);
    }

    #[test]
    fn interleaved_streams_do_not_cross(
        a in proptest::collection::vec(any::<u8>(), 200..600),
        b in proptest::collection::vec(any::<u8>(), 200..600),
        tag in any::<u16>(),
        src_seed in any::<[u8; 6]>(),
    ) {
        // Two sources, deliberately sharing one datagram tag: streams are
        // keyed by (src, dst, tag, size) so they must not cross.
        let src_a = Mac::from(src_seed).to_eui64();
        let mut other = src_seed;
        other[5] = other[5].wrapping_add(1);
        let src_b = Mac::from(other).to_eui64();
        let dst = [0u8; 8];
        let fa = sixlowpan::fragment(&a, tag, ieee802154::MAX_PAYLOAD).unwrap();
        let fb = sixlowpan::fragment(&b, tag, ieee802154::MAX_PAYLOAD).unwrap();
        let mut r = sixlowpan::Reassembler::new();
        let mut done = Vec::new();
        for i in 0..fa.len().max(fb.len()) {
            if let Some(f) = fa.get(i) {
                if let Some(d) = r.push(i as u64, src_a, dst, f).unwrap() { done.push(d); }
            }
            if let Some(f) = fb.get(i) {
                if let Some(d) = r.push(i as u64, src_b, dst, f).unwrap() { done.push(d); }
            }
        }
        prop_assert!(done.contains(&a));
        prop_assert!(done.contains(&b));
    }

    #[test]
    fn decompressor_types_garbage(
        junk in proptest::collection::vec(any::<u8>(), 0..200),
        ll_src in arb_ll(),
        ll_dst in arb_ll(),
        with_ctx in any::<bool>(),
    ) {
        // Never panics; any outcome is a value or a typed error.
        let ctx = ctx();
        let c = if with_ctx { Some(&ctx) } else { None };
        let _ = sixlowpan::decompress(&junk, &ll_src, &ll_dst, c);
    }

    #[test]
    fn decompressor_types_truncation(
        payload in proptest::collection::vec(any::<u8>(), 0..96),
        ll_src in arb_ll(),
        ll_dst in arb_ll(),
        cut_seed in any::<u64>(),
    ) {
        // Truncating a *valid* compression at every prefix length stays typed.
        let ip = ipv6::Repr {
            src: "2001:db8:beef::102:304:506:708".parse().unwrap(),
            dst: "ff05::1:3".parse().unwrap(),
            next_header: Protocol::Icmpv6,
            hop_limit: 13,
            payload_len: payload.len(),
        };
        let c = sixlowpan::compress(&ip, &payload, &ll_src, &ll_dst, Some(&ctx()));
        let cut = (cut_seed as usize) % (c.len() + 1);
        let _ = sixlowpan::decompress(&c[..cut], &ll_src, &ll_dst, Some(&ctx()));
    }

    #[test]
    fn reassembler_types_hostile_fragments(
        frames in proptest::collection::vec(
            proptest::collection::vec(any::<u8>(), 0..130), 0..24),
        src in arb_ll(),
        dst in arb_ll(),
    ) {
        // Arbitrary byte soup — including bytes that alias FRAG1/FRAGN
        // dispatches with bogus sizes/offsets — never panics and never
        // hands back a datagram longer than the 11-bit size field allows.
        let mut r = sixlowpan::Reassembler::new();
        for (i, f) in frames.iter().enumerate() {
            if let Ok(Some(d)) = r.push(i as u64, src, dst, f) {
                if sixlowpan::is_fragment(f) {
                    prop_assert!(d.len() <= sixlowpan::MAX_DATAGRAM);
                }
            }
        }
    }

    #[test]
    fn overlapping_fragments_are_rejected_not_merged(
        datagram in proptest::collection::vec(any::<u8>(), 300..900),
        tag in any::<u16>(),
        src in arb_ll(),
        dst in arb_ll(),
        dup_seed in any::<u64>(),
    ) {
        // 300+ bytes against a 106-byte budget: always at least 3 frags.
        let frags = sixlowpan::fragment(&datagram, tag, ieee802154::MAX_PAYLOAD).unwrap();
        prop_assert!(frags.len() >= 2);
        let dup = (dup_seed as usize) % (frags.len() - 1); // never the completing tail
        let mut r = sixlowpan::Reassembler::new();
        for (i, f) in frags.iter().enumerate().take(dup + 1) {
            prop_assert!(r.push(i as u64, src, dst, f).unwrap().is_none());
        }
        // Replay an already-covered fragment mid-stream: typed, and the
        // whole datagram is abandoned rather than merged.
        prop_assert_eq!(
            r.push(dup as u64, src, dst, &frags[dup]).unwrap_err(),
            v6brick_net::Error::Malformed
        );
        prop_assert_eq!(r.pending(), 0, "overlap abandons the datagram");
    }

    #[test]
    fn frame_plus_lowpan_pipeline_roundtrips(
        seq in any::<u8>(),
        pan_id in any::<u16>(),
        payload in proptest::collection::vec(any::<u8>(), 0..700),
        tag in any::<u16>(),
    ) {
        // Full stack: IPv6 → IPHC → fragments → 802.15.4 frames → parse →
        // reassemble → decompress. This is exactly the analyzer's path.
        let src_mac = Mac::new(2, 0, 0, 0, 0, 0x0a);
        let ll_src = src_mac.to_eui64();
        let ll_dst = Mac::new(2, 0, 0, 0, 0, 0x0b).to_eui64();
        let mut o = [0u8; 16];
        o[..8].copy_from_slice(&[0x20, 0x01, 0x0d, 0xb8, 0x00, 0x10, 0x00, 0x01]);
        o[8..].copy_from_slice(&ll_src);
        let ip = ipv6::Repr {
            src: Ipv6Addr::from(o),
            dst: "2001:db8:2::80".parse().unwrap(),
            next_header: Protocol::Tcp,
            hop_limit: 64,
            payload_len: payload.len(),
        };
        let compressed = sixlowpan::compress(&ip, &payload, &ll_src, &ll_dst, Some(&ctx()));
        let frags = sixlowpan::fragment(&compressed, tag, ieee802154::MAX_PAYLOAD).unwrap();
        let mut r = sixlowpan::Reassembler::new();
        let mut out = None;
        for (i, f) in frags.iter().enumerate() {
            let frame = ieee802154::Repr {
                seq: seq.wrapping_add(i as u8),
                pan_id,
                dst: ll_dst,
                src: ll_src,
            }
            .build(f);
            let parsed = ieee802154::Frame::new_checked(&frame[..]).unwrap();
            prop_assert_eq!(ieee802154::Repr::parse(&parsed).src_mac(), Some(src_mac));
            if let Some(d) = r.push(i as u64, parsed.src(), parsed.dst(), parsed.payload()).unwrap() {
                out = Some(d);
            }
        }
        let (rip, rp) = sixlowpan::decompress(
            &out.expect("reassembly completes"), &ll_src, &ll_dst, Some(&ctx())).unwrap();
        prop_assert_eq!(rip.src, ip.src);
        prop_assert_eq!(rip.dst, ip.dst);
        prop_assert_eq!(rp, payload);
    }

    #[test]
    fn payloads_past_the_datagram_bound_never_fit_one(
        ll_src in arb_ll(),
        ll_dst in arb_ll(),
        (src_prefix, src_iid_mode, src_short, src_iid) in
            (any::<u8>(), any::<u8>(), any::<u16>(), any::<[u8; 8]>()),
        (dst_prefix, dst_iid_mode, dst_short, dst_iid) in
            (any::<u8>(), any::<u8>(), any::<u16>(), any::<[u8; 8]>()),
        (mcast_mode, mcast_scope, mcast_tail) in
            (any::<u8>(), any::<u8>(), any::<[u8; 15]>()),
        kind in 0u8..5, // as above, plus 4 = the tightest compression there is
        (hlim_mode, hlim_raw) in (any::<u8>(), any::<u8>()),
        (udp, sport, dport) in (any::<bool>(), any::<u16>(), any::<u16>()),
        past in 1usize..400,
        tag in any::<u16>(),
    ) {
        // The 6LoWPAN border router skips compressing a payload longer
        // than MAX_DATAGRAM + 2 bytes: compression must never fit one.
        let (src, dst, hop_limit, udp, ports) = if kind == 4 {
            // Both addresses elided (link-local, each from its
            // link-layer address), hop limit elided, NHC-UDP with both
            // ports in four bits each: 2 bytes shorter than the payload.
            let (src, dst) = (unicast(0, 0, ll_src, 0, [0; 8]), unicast(0, 0, ll_dst, 0, [0; 8]));
            (src, dst, 64, true, (0xf0b0 | sport & 15, 0xf0b0 | dport & 15))
        } else {
            let src = if kind == 1 {
                Ipv6Addr::UNSPECIFIED
            } else {
                unicast(src_prefix, src_iid_mode, ll_src, src_short, src_iid)
            };
            let dst = if kind >= 2 {
                multicast(mcast_mode, mcast_scope, mcast_tail)
            } else {
                unicast(dst_prefix, dst_iid_mode, ll_dst, dst_short, dst_iid)
            };
            (src, dst, hop_limit_of(hlim_mode, hlim_raw), udp, (sport, dport))
        };
        let len = sixlowpan::MAX_DATAGRAM + 2 + past;
        let payload = if udp {
            udp::Repr { src_port: ports.0, dst_port: ports.1, payload: vec![0x5a; len - 8] }
                .build(PseudoHeader::V6 { src, dst })
        } else {
            vec![0x5a; len]
        };
        let ip = ipv6::Repr {
            src, dst,
            next_header: if udp { Protocol::Udp } else { Protocol::Tcp },
            hop_limit,
            payload_len: len,
        };
        let c = sixlowpan::compress(&ip, &payload, &ll_src, &ll_dst, Some(&ctx()));
        prop_assert!(c.len() > sixlowpan::MAX_DATAGRAM, "{} bytes compressed", c.len());
        if kind == 4 {
            prop_assert_eq!(c.len(), len - 2);
        }
        prop_assert!(sixlowpan::fragment(&c, tag, ieee802154::MAX_PAYLOAD).is_err());
    }
}
