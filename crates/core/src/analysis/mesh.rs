//! Mesh-aware attribution: mapping decompressed 6LoWPAN traffic back to
//! the leaf devices that originated it.
//!
//! Behind a border router, every Ethernet frame a leaf device sends
//! carries the *border router's* MAC as its link-layer source — the LAN
//! tap alone cannot tell leaves apart, which would collapse a whole mesh
//! of devices into one row of the population tables. The mesh-side
//! 802.15.4 capture restores the mapping: each IPHC datagram names its
//! sender by extended (EUI-64) address, and the embedded `ff:fe` marker
//! recovers the leaf MAC, yielding IPv6 address → device bindings that
//! [`StreamingAnalyzer`](crate::analysis::StreamingAnalyzer) consults whenever MAC
//! attribution fails.
//!
//! This walk genuinely exercises the decompression pipeline — 802.15.4
//! framing, RFC 4944 reassembly, RFC 6282 IPHC — rather than peeking at
//! simulator ground truth, in keeping with the tcpdump-only discipline of
//! the measurement core.

use std::collections::BTreeMap;
use std::net::Ipv6Addr;
use v6brick_net::ipv6::Cidr;
use v6brick_net::{ieee802154, sixlowpan, Mac};
use v6brick_pcap::Capture;

/// IPv6 → leaf-MAC bindings recovered from a mesh-side capture, plus the
/// decode accounting that makes silent loss visible.
#[derive(Debug, Clone, Default, PartialEq, Eq)]
pub struct MeshBindings {
    /// Source address → the MAC recovered from the sender's EUI-64.
    pub by_addr: BTreeMap<Ipv6Addr, Mac>,
    /// 802.15.4 frames walked.
    pub frames: u64,
    /// Complete IPv6 datagrams recovered (post-reassembly, post-IPHC).
    pub datagrams: u64,
    /// Frames or datagrams dropped by any decode stage.
    pub decode_errors: u64,
    /// Datagrams abandoned by the reassembly timeout.
    pub expired: u64,
}

/// Walk a mesh-side 802.15.4 capture and recover IPv6 → leaf-MAC
/// bindings.
///
/// `ctx` is IPHC compression context 0 — the routed LAN /64, the same
/// value the border router compressed with. Senders whose extended
/// address is not a modified EUI-64 (no `ff:fe` marker) contribute
/// datagram counts but no binding; later datagrams from the same source
/// address overwrite earlier bindings (last writer wins, deterministic in
/// capture order).
pub fn bindings_from_mesh_capture(capture: &Capture, ctx: &Cidr) -> MeshBindings {
    let mut out = MeshBindings::default();
    let mut reassembler = sixlowpan::Reassembler::new();
    for pkt in capture.iter() {
        out.frames += 1;
        let Ok(frame) = ieee802154::Frame::new_checked(&pkt.data[..]) else {
            out.decode_errors += 1;
            continue;
        };
        let repr = ieee802154::Repr::parse(&frame);
        let datagram = match reassembler.push(pkt.timestamp_us, repr.src, repr.dst, frame.payload())
        {
            Ok(Some(d)) => d,
            Ok(None) => continue, // mid-reassembly
            Err(_) => {
                out.decode_errors += 1;
                continue;
            }
        };
        if !sixlowpan::is_iphc(&datagram) {
            out.decode_errors += 1;
            continue;
        }
        let Ok((ip, _payload)) = sixlowpan::decompress(&datagram, &repr.src, &repr.dst, Some(ctx))
        else {
            out.decode_errors += 1;
            continue;
        };
        out.datagrams += 1;
        if ip.src.is_unspecified() || ip.src.is_multicast() {
            continue;
        }
        if let Some(mac) = Mac::from_eui64(&repr.src) {
            out.by_addr.insert(ip.src, mac);
        }
    }
    out.expired = reassembler.expired();
    out
}

#[cfg(test)]
mod tests {
    use super::*;
    use v6brick_net::{ipv4, ipv6, udp};

    fn ctx() -> Cidr {
        Cidr::new("2001:db8:10:1::".parse().unwrap(), 64)
    }

    fn leaf_mac() -> Mac {
        Mac::new(2, 0, 0, 0, 0xee, 1)
    }

    fn mesh_capture_of(ip: &ipv6::Repr, payload: &[u8], src_ext: [u8; 8]) -> Capture {
        let dst_ext = Mac::new(2, 0x52, 0x54, 0, 0xb0, 1).to_eui64();
        let compressed = sixlowpan::compress(ip, payload, &src_ext, &dst_ext, Some(&ctx()));
        let frags = sixlowpan::fragment(&compressed, 7, ieee802154::MAX_PAYLOAD).unwrap();
        let mut cap = Capture::new();
        for (i, frag) in frags.iter().enumerate() {
            let frame = ieee802154::Repr {
                seq: i as u8,
                pan_id: 0x6b42,
                dst: dst_ext,
                src: src_ext,
            }
            .build(frag);
            cap.push(i as u64 * 100, &frame);
        }
        cap
    }

    fn udp_datagram(src: Ipv6Addr, dst: Ipv6Addr, body: Vec<u8>) -> (ipv6::Repr, Vec<u8>) {
        let u = udp::Repr {
            src_port: 5000,
            dst_port: 53,
            payload: body,
        }
        .build(udp::PseudoHeader::V6 { src, dst });
        (
            ipv6::Repr {
                src,
                dst,
                next_header: ipv4::Protocol::Udp,
                hop_limit: 64,
                payload_len: u.len(),
            },
            u,
        )
    }

    #[test]
    fn binds_leaf_gua_to_recovered_mac() {
        let src = leaf_mac().slaac_address("2001:db8:10:1::".parse().unwrap());
        let (ip, payload) = udp_datagram(src, "2001:db8:2::53".parse().unwrap(), b"q".to_vec());
        let cap = mesh_capture_of(&ip, &payload, leaf_mac().to_eui64());
        let b = bindings_from_mesh_capture(&cap, &ctx());
        assert_eq!(b.frames, cap.len() as u64);
        assert_eq!(b.datagrams, 1);
        assert_eq!(b.decode_errors, 0);
        assert_eq!(b.by_addr.get(&src), Some(&leaf_mac()));
    }

    #[test]
    fn fragmented_datagrams_bind_after_reassembly() {
        let src = leaf_mac().slaac_address("2001:db8:10:1::".parse().unwrap());
        let (ip, payload) = udp_datagram(src, "2001:db8:2::53".parse().unwrap(), vec![0x41; 400]);
        let cap = mesh_capture_of(&ip, &payload, leaf_mac().to_eui64());
        assert!(cap.len() > 1, "400-byte body must fragment");
        let b = bindings_from_mesh_capture(&cap, &ctx());
        assert_eq!(b.datagrams, 1);
        assert_eq!(b.by_addr.get(&src), Some(&leaf_mac()));
    }

    #[test]
    fn garbage_frames_count_as_decode_errors() {
        let mut cap = Capture::new();
        cap.push(0, &[0u8; 4]);
        cap.push(1, &[0xff; 40]);
        let b = bindings_from_mesh_capture(&cap, &ctx());
        assert_eq!(b.frames, 2);
        assert_eq!(b.datagrams, 0);
        assert!(b.decode_errors >= 1);
        assert!(b.by_addr.is_empty());
    }

    #[test]
    fn non_eui64_senders_yield_no_binding() {
        let src: Ipv6Addr = "2001:db8:10:1::1234".parse().unwrap();
        let (ip, payload) = udp_datagram(src, "2001:db8:2::53".parse().unwrap(), b"q".to_vec());
        // An extended address without the ff:fe marker: nothing to recover.
        let cap = mesh_capture_of(&ip, &payload, [9, 9, 9, 9, 9, 9, 9, 9]);
        let b = bindings_from_mesh_capture(&cap, &ctx());
        assert_eq!(b.datagrams, 1);
        assert!(b.by_addr.is_empty());
    }
}
