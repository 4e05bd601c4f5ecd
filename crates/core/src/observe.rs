//! The classic capture-to-observations entry points: one
//! [`DeviceObservation`] per device.
//!
//! This is the measurement core's front door. It attributes every frame
//! by source (or destination) MAC, tracks NDP behaviour, address
//! assignment and usage, DAD compliance, DHCPv4/DHCPv6 exchanges, DNS
//! transactions per transport family, SNI extraction, and data volumes
//! split by family and by local-versus-Internet scope — exactly the
//! observables §5 reports.
//!
//! The analysis itself lives in [`crate::analysis`]: one
//! [`AnalyzerPass`](crate::analysis::AnalyzerPass) per concern, composed
//! by the [`StreamingAnalyzer`] re-exported here. [`StreamingAnalyzer::new`]
//! runs every pass, byte-equivalent (via serde) to the pre-decomposition
//! monolith — the streaming-equivalence and property tests pin this.
//! Callers that need only a subset of the observables (the fleet
//! population path) construct a narrower one with
//! [`StreamingAnalyzer::with_passes`].
//!
//! The state machine is incremental: frames are consumed one at a time
//! (`feed`), holding only `O(state)` memory — the per-device observation
//! sets, the pending-DNS map, and the flow table — so the simulator's
//! capture tap can drive it live and the experiment never materializes an
//! `O(frames)` byte buffer. [`analyze`] keeps the classic buffered entry
//! point as a thin wrapper over the same machine.

use v6brick_net::ipv6::Cidr;
use v6brick_net::Mac;
use v6brick_pcap::Capture;

pub use crate::analysis::{DeviceObservation, ExperimentAnalysis, StreamingAnalyzer};

/// Walk a buffered capture once and produce per-device observations.
///
/// A thin wrapper over [`StreamingAnalyzer`] for captures that already
/// sit in memory (pcap files, tests); the live path feeds the analyzer
/// straight from the simulator's capture tap instead. Feeds the *raw*
/// frames so unparseable ones land in
/// [`ExperimentAnalysis::parse_errors`], exactly as on the live path. See
/// [`StreamingAnalyzer::new`] for the `devices` / `lan_prefix` contract.
pub fn analyze(
    capture: &Capture,
    devices: &[(Mac, String)],
    lan_prefix: Cidr,
) -> ExperimentAnalysis {
    let mut analyzer = StreamingAnalyzer::new(devices, lan_prefix);
    for pkt in capture.iter() {
        analyzer.feed(pkt.timestamp_us, &pkt.data);
    }
    analyzer.finish()
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::net::{IpAddr, Ipv6Addr};
    use v6brick_net::dns::{Message, Name, RecordType};
    use v6brick_net::ethernet::EtherType;
    use v6brick_net::icmpv6;
    use v6brick_net::ipv4::Protocol;
    use v6brick_net::ipv6::Ipv6AddrExt;
    use v6brick_net::ndp::Repr as Ndp;

    use v6brick_net::udp::PseudoHeader;
    use v6brick_net::{ethernet, ipv6, udp};

    fn lan() -> Cidr {
        Cidr::new("2001:db8:10:1::".parse().unwrap(), 64)
    }

    fn dev_mac() -> Mac {
        Mac::new(2, 0, 0, 0, 0, 0x55)
    }

    fn labels() -> Vec<(Mac, String)> {
        vec![(dev_mac(), "dev".into())]
    }

    fn eth(src: Mac, dst: Mac, payload: &[u8]) -> Vec<u8> {
        ethernet::Repr {
            src,
            dst,
            ethertype: EtherType::Ipv6,
        }
        .build(payload)
    }

    fn v6_udp(src: Ipv6Addr, dst: Ipv6Addr, sp: u16, dp: u16, body: Vec<u8>) -> Vec<u8> {
        let u = udp::Repr {
            src_port: sp,
            dst_port: dp,
            payload: body,
        }
        .build(PseudoHeader::V6 { src, dst });
        ipv6::Repr {
            src,
            dst,
            next_header: Protocol::Udp,
            hop_limit: 64,
            payload_len: u.len(),
        }
        .build(&u)
    }

    #[test]
    fn dad_and_announce_are_assigned_not_active() {
        let target: Ipv6Addr = "fe80::c2ff:4dff:fe2e:1a2b".parse().unwrap();
        let ns = icmpv6::Repr::Ndp(Ndp::NeighborSolicit {
            target,
            options: vec![],
        });
        let dst = target.solicited_node();
        let body = ns.build(Ipv6Addr::UNSPECIFIED, dst);
        let ip = ipv6::Repr {
            src: Ipv6Addr::UNSPECIFIED,
            dst,
            next_header: Protocol::Icmpv6,
            hop_limit: 255,
            payload_len: body.len(),
        }
        .build(&body);
        let mut cap = Capture::new();
        cap.push(0, &eth(dev_mac(), Mac::for_ipv6_multicast(dst), &ip));
        let a = analyze(&cap, &labels(), lan());
        let o = a.device("dev").unwrap();
        assert!(o.ndp_traffic);
        assert!(o.announced_v6.contains(&target));
        assert!(o.dad_probed.contains(&target));
        assert!(o.active_v6.is_empty());
        assert!(o.has_v6_addr());
    }

    #[test]
    fn dns_query_and_positive_answer_tracked_per_transport() {
        // An EUI-64 GUA source exercises the exposure path.
        let dev: Ipv6Addr = {
            let m = dev_mac();
            m.slaac_address("2001:db8:10:1::".parse().unwrap())
        };
        let resolver: Ipv6Addr = "2001:4860:4860::8888".parse().unwrap();
        let name = Name::new("svc0.acme.example").unwrap();
        let q = Message::query(77, name.clone(), RecordType::Aaaa);
        let mut cap = Capture::new();
        cap.push(
            0,
            &eth(
                dev_mac(),
                Mac::new(2, 0, 0, 0, 0, 0xfe),
                &v6_udp(dev, resolver, 40001, 53, q.build()),
            ),
        );
        let mut resp = q.response(v6brick_net::dns::Rcode::NoError);
        resp.answers.push(v6brick_net::dns::Record::new(
            name.clone(),
            300,
            v6brick_net::dns::Rdata::Aaaa("2001:db8:ffff::5".parse().unwrap()),
        ));
        cap.push(
            10,
            &eth(
                Mac::new(2, 0, 0, 0, 0, 0xfe),
                dev_mac(),
                &v6_udp(resolver, dev, 53, 40001, resp.build()),
            ),
        );
        let a = analyze(&cap, &labels(), lan());
        let o = a.device("dev").unwrap();
        assert!(o.aaaa_q_v6.contains(&name));
        assert!(o.aaaa_pos_v6.contains(&name));
        assert!(o.dns_over_v6());
        assert!(o.dns_src_v6.contains(&dev));
        assert!(o.dns_names_from_eui64.contains(&name));
        assert_eq!(
            a.ip_to_name
                .get(&IpAddr::V6("2001:db8:ffff::5".parse().unwrap())),
            Some(&name)
        );
    }

    #[test]
    fn negative_aaaa_tracked() {
        let dev: Ipv6Addr = "2001:db8:10:1:1234:aabb:1:2".parse().unwrap();
        let resolver: Ipv6Addr = "2001:4860:4860::8888".parse().unwrap();
        let name = Name::new("api.amazon.com").unwrap();
        let q = Message::query(5, name.clone(), RecordType::Aaaa);
        let mut cap = Capture::new();
        cap.push(
            0,
            &eth(
                dev_mac(),
                Mac::new(2, 0, 0, 0, 0, 0xfe),
                &v6_udp(dev, resolver, 40001, 53, q.build()),
            ),
        );
        let resp = q.response(v6brick_net::dns::Rcode::NoError);
        cap.push(
            10,
            &eth(
                Mac::new(2, 0, 0, 0, 0, 0xfe),
                dev_mac(),
                &v6_udp(resolver, dev, 53, 40001, resp.build()),
            ),
        );
        let a = analyze(&cap, &labels(), lan());
        let o = a.device("dev").unwrap();
        assert!(o.aaaa_neg.contains(&name));
        assert!(o.aaaa_pos_any().is_empty());
    }

    #[test]
    fn internet_vs_local_volume_split() {
        let dev: Ipv6Addr = "2001:db8:10:1::10".parse().unwrap();
        let internet: Ipv6Addr = "2001:db8:ffff::99".parse().unwrap();
        let local_peer: Ipv6Addr = "fd12::9".parse().unwrap();
        let mut cap = Capture::new();
        cap.push(
            0,
            &eth(
                dev_mac(),
                Mac::new(2, 0, 0, 0, 0, 0xfe),
                &v6_udp(dev, internet, 5000, 9999, vec![0; 100]),
            ),
        );
        cap.push(
            1,
            &eth(
                dev_mac(),
                Mac::new(2, 0, 0, 0, 0, 0xfe),
                &v6_udp(dev, local_peer, 5353, 5353, vec![0; 40]),
            ),
        );
        let a = analyze(&cap, &labels(), lan());
        let o = a.device("dev").unwrap();
        assert_eq!(o.v6_internet_bytes, 100);
        assert_eq!(o.v6_local_bytes, 40);
        assert!(o.v6_internet_data());
        assert!(o.v6_internet_peers.contains(&internet));
        assert!(o.data_src_v6.contains(&dev));
        assert!(o.active_v6.contains(&dev));
    }

    #[test]
    fn a_only_names_derived() {
        let mut o = DeviceObservation::default();
        let a_only = Name::new("a-only.example").unwrap();
        let both = Name::new("both.example").unwrap();
        o.a_q_v6.insert(a_only.clone());
        o.a_q_v6.insert(both.clone());
        o.aaaa_q_v4.insert(both.clone());
        let set = o.a_only_v6_names();
        assert!(set.contains(&a_only));
        assert!(!set.contains(&both));
    }

    #[test]
    fn unattributed_frames_counted() {
        let stranger = Mac::new(2, 9, 9, 9, 9, 9);
        let mut cap = Capture::new();
        cap.push(
            0,
            &eth(
                stranger,
                Mac::new(2, 8, 8, 8, 8, 8),
                &v6_udp(
                    "fe80::9".parse().unwrap(),
                    "fe80::8".parse().unwrap(),
                    1,
                    2,
                    vec![],
                ),
            ),
        );
        let a = analyze(&cap, &labels(), lan());
        assert_eq!(a.unattributed_frames, 1);
        assert_eq!(a.frames, 1);
        assert_eq!(a.parse_errors, 0);
    }

    #[test]
    fn parse_errors_counted_and_contribute_nothing_else() {
        let mut cap = Capture::new();
        // A frame too short for even an Ethernet header.
        cap.push(0, &[0xde, 0xad]);
        cap.push(
            1,
            &eth(
                dev_mac(),
                Mac::new(2, 0, 0, 0, 0, 0xfe),
                &v6_udp(
                    "2001:db8:10:1::10".parse().unwrap(),
                    "2001:db8:ffff::99".parse().unwrap(),
                    5000,
                    9999,
                    vec![0; 10],
                ),
            ),
        );
        let a = analyze(&cap, &labels(), lan());
        assert_eq!(a.parse_errors, 1);
        assert_eq!(a.frames, 1, "only the parseable frame is analyzed");
        assert_eq!(a.unattributed_frames, 0);
    }

    #[test]
    fn mesh_bindings_attribute_br_forwarded_frames() {
        let dev: Ipv6Addr = "2001:db8:10:1::10".parse().unwrap();
        let internet: Ipv6Addr = "2001:db8:ffff::99".parse().unwrap();
        // A border router's MAC: not in the device list.
        let br = Mac::new(2, 0x52, 0x54, 0, 0xb0, 1);
        let frame = eth(
            br,
            Mac::new(2, 0, 0, 0, 0, 0xfe),
            &v6_udp(dev, internet, 5000, 9999, vec![0; 100]),
        );
        // Without bindings the forwarded frame can't be attributed…
        let mut plain = StreamingAnalyzer::new(&labels(), lan());
        plain.feed(0, &frame);
        let plain = plain.finish();
        assert_eq!(plain.unattributed_frames, 1);
        assert_eq!(plain.device("dev").unwrap().v6_internet_bytes, 0);
        // …with one it credits the leaf, not the border router.
        let mut mesh = StreamingAnalyzer::new(&labels(), lan());
        assert!(mesh.add_mesh_binding(dev, dev_mac()));
        assert!(!mesh.add_mesh_binding(dev, br), "unknown MAC binds nothing");
        assert_eq!(mesh.mesh_binding_count(), 1);
        mesh.feed(0, &frame);
        let mesh = mesh.finish();
        assert_eq!(mesh.unattributed_frames, 0);
        let o = mesh.device("dev").unwrap();
        assert_eq!(o.v6_internet_bytes, 100);
        assert!(o.active_v6.contains(&dev));
    }

    #[test]
    fn pass_subset_populates_only_owned_fields() {
        use crate::analysis::PassId;
        let dev: Ipv6Addr = "2001:db8:10:1::10".parse().unwrap();
        let internet: Ipv6Addr = "2001:db8:ffff::99".parse().unwrap();
        let frame = eth(
            dev_mac(),
            Mac::new(2, 0, 0, 0, 0, 0xfe),
            &v6_udp(dev, internet, 5000, 9999, vec![0; 100]),
        );
        let mut full = StreamingAnalyzer::new(&labels(), lan());
        full.feed(0, &frame);
        let full = full.finish();

        let mut sub = StreamingAnalyzer::with_passes(&labels(), lan(), &[PassId::Traffic]);
        assert_eq!(
            sub.enabled_passes(),
            vec![PassId::Dns, PassId::Traffic],
            "the dns dependency is pulled in"
        );
        sub.feed(0, &frame);
        let sub = sub.finish();

        let (f, s) = (full.device("dev").unwrap(), sub.device("dev").unwrap());
        assert_eq!(s.v6_internet_bytes, f.v6_internet_bytes);
        assert_eq!(s.v6_internet_peers, f.v6_internet_peers);
        assert_eq!(s.data_src_v6, f.data_src_v6);
        assert!(f.active_v6.contains(&dev), "full run sees the active addr");
        assert!(
            s.active_v6.is_empty(),
            "addressing disabled: its fields stay default"
        );
    }
}
