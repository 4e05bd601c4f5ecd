//! The pipeline is pure pcap analysis: serializing an experiment capture
//! to the tcpdump on-disk format and re-loading it must yield identical
//! measurements.

use v6brick::core::observe;
use v6brick::devices::registry;
use v6brick::devices::stack::IotDevice;
use v6brick::experiments::{scenario, NetworkConfig};
use v6brick::pcap::format;
use v6brick::pcap::stats::CaptureStats;
use v6brick::sim::{BorderRouter, Host, Internet, Router, SimTime, SimulationBuilder};

fn household() -> (v6brick::pcap::Capture, Vec<(v6brick::net::Mac, String)>) {
    // HomePod included for its stateless DHCPv6 support.
    let ids = [
        "echo_show_5",
        "nest_camera",
        "google_home_mini",
        "aqara_hub",
        "homepod_mini",
    ];
    let profiles: Vec<_> = ids.iter().map(|id| registry::by_id(id)).collect();
    let zones = scenario::build_zones(&profiles);
    let mut b = SimulationBuilder::new(
        Router::new(NetworkConfig::DualStack.router_config()),
        Internet::new(zones),
    );
    let macs: Vec<_> = profiles
        .iter()
        .map(|p| {
            b.add_host(Box::new(IotDevice::new(p.clone())));
            (p.mac, p.id.clone())
        })
        .collect();
    let mut sim = b.build();
    sim.run_until(SimTime::from_secs(120));
    (sim.take_capture(), macs)
}

#[test]
fn analysis_survives_pcap_roundtrip() {
    let (capture, macs) = household();
    assert!(capture.len() > 500, "capture too small: {}", capture.len());

    let bytes = format::to_bytes(&capture);
    let reloaded = format::from_bytes(&bytes).expect("valid pcap");
    assert_eq!(reloaded, capture);

    let a1 = observe::analyze(&capture, &macs, scenario::lan_prefix());
    let a2 = observe::analyze(&reloaded, &macs, scenario::lan_prefix());
    let s1 = serde_json::to_string(&a1.devices).unwrap();
    let s2 = serde_json::to_string(&a2.devices).unwrap();
    assert_eq!(s1, s2, "identical measurements from the on-disk format");
}

/// A small meshed household: two v6-chatty devices behind a 6LoWPAN
/// border router, returning the 802.15.4 *mesh-side* capture.
fn mesh_household() -> v6brick::pcap::Capture {
    let ids = ["google_home_mini", "echo_show_5"];
    let profiles: Vec<_> = ids.iter().map(|id| registry::by_id(id)).collect();
    let zones = scenario::build_zones(&profiles);
    let mut b = SimulationBuilder::new(
        Router::new(NetworkConfig::Ipv6Only.router_config()),
        Internet::new(zones),
    );
    let leaves: Vec<Box<dyn Host>> = profiles
        .iter()
        .map(|p| Box::new(IotDevice::new(p.clone())) as Box<dyn Host>)
        .collect();
    let br = b.add_host(Box::new(BorderRouter::new(0x6e53, leaves)));
    let mut sim = b.seed(0x6e53).build();
    sim.run_until(SimTime::from_secs(90));
    sim.host_mut(br)
        .as_any_mut()
        .downcast_mut::<BorderRouter>()
        .expect("host is the border router")
        .take_mesh_capture()
}

/// The mesh capture is 802.15.4 frames, not Ethernet — it must survive
/// the pcapng container under `LINKTYPE_IEEE802_15_4_NOFCS`, stream back
/// through the incremental decoder byte for byte, and still yield the
/// same leaf-address bindings the attribution phase depends on.
#[test]
fn mesh_capture_survives_pcapng_and_streaming() {
    use v6brick::core::bindings_from_mesh_capture;
    use v6brick::pcap::pcapng;
    use v6brick::pcap::stream::StreamDecoder;

    let capture = mesh_household();
    assert!(
        capture.len() > 50,
        "mesh capture too small: {}",
        capture.len()
    );

    let bytes = pcapng::to_bytes_with_linktype(&capture, pcapng::LINKTYPE_IEEE802_15_4_NOFCS);
    let reloaded = pcapng::from_bytes(&bytes).expect("valid pcapng");
    assert_eq!(reloaded, capture, "pcapng round-trip must be lossless");

    // Incremental decode at an awkward chunk size: same frames, same
    // order, same timestamps as the batch reader.
    let mut decoder = StreamDecoder::new();
    let mut streamed = v6brick::pcap::Capture::new();
    for chunk in bytes.chunks(71) {
        decoder
            .feed(chunk, &mut |ts, frame| streamed.push(ts, frame))
            .expect("stream decode");
    }
    assert_eq!(decoder.finish().expect("clean tail"), capture.len() as u64);
    assert_eq!(streamed, capture, "streamed frames must match the tap");

    // The decompression pipeline agrees on both copies: identical
    // leaf bindings and health counters from the on-disk bytes.
    let a = bindings_from_mesh_capture(&capture, &scenario::lan_prefix());
    let b = bindings_from_mesh_capture(&streamed, &scenario::lan_prefix());
    assert!(!a.by_addr.is_empty(), "leaves must bind from the mesh air");
    assert_eq!(a, b, "bindings must survive the on-disk format");
    assert_eq!(a.decode_errors, 0, "own mesh traffic decodes losslessly");
}

#[test]
fn capture_statistics_are_plausible() {
    let (capture, _) = household();
    let stats = CaptureStats::of(&capture);
    assert_eq!(stats.frames, capture.len() as u64);
    assert!(stats.ipv6_frames > 0, "dual-stack must carry v6 frames");
    assert!(stats.ipv4_frames > 0);
    assert!(stats.arp_frames > 0, "v4 needs ARP resolution");
    assert!(stats.dns_frames > 0);
    assert!(stats.dhcpv4_frames > 0);
    assert!(
        stats.dhcpv6_frames > 0,
        "stateless DHCPv6 runs in dual-stack"
    );
    assert!(stats.icmpv6_frames > 0, "NDP is ICMPv6");
    assert!(stats.tcp_frames > stats.udp_frames, "telemetry dominates");
    // Every frame decodes at least to L3 (no junk on our wire).
    assert_eq!(stats.undecoded_frames, 0);
}

#[test]
fn filters_select_expected_traffic() {
    use v6brick::net::parse::Net;
    use v6brick::net::{ParsedPacket, L4};
    let (capture, macs) = household();
    let mac_of = |id: &str| macs.iter().find(|(_, d)| d == id).unwrap().0;
    let is_v6 = |p: &ParsedPacket| matches!(p.net, Net::Ipv6(_));

    // tcpdump's `ip6 and udp port 53`.
    let dns6 = |p: &ParsedPacket| is_v6(p) && matches!(p.l4, L4::Udp { .. }) && p.involves_port(53);
    let dns6_count = capture.parsed().filter(|(_, p)| dns6(p)).count();
    assert!(dns6_count > 0, "v6 DNS present in dual-stack");

    // Per-device attribution: the Echo's MAC appears as a source.
    let echo_mac = mac_of("echo_show_5");
    assert!(capture.parsed().any(|(_, p)| p.eth.src == echo_mac));

    // An Aqara hub never talks DNS over v6.
    let aqara_mac = mac_of("aqara_hub");
    let aqara_dns6 = |p: &ParsedPacket| is_v6(p) && p.involves_port(53) && p.eth.src == aqara_mac;
    assert_eq!(capture.parsed().filter(|(_, p)| aqara_dns6(p)).count(), 0);
}
