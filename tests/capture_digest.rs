//! Byte-level pins on the simulator's LAN captures.
//!
//! Reports are order-insensitive summaries, so a change that reorders,
//! re-pads or re-checksums frames can keep every report byte while
//! changing the wire. These tests hash the timestamp, length and bytes
//! of every tapped frame instead: a rerun must tap the identical bytes,
//! and each Table 2 configuration must keep the digest pinned here.
//!
//! The window (120 s over the full registry) still carries NAT44 and
//! 6in4 in both directions, DNS over IPv4 and IPv6, ICMPv6 echo, and
//! ≥12 KB uploads answered by ~48 KB replies; `coverage` asserts that,
//! so a pin can never silently stop exercising a frame emitter.
//!
//! One more pin runs the dual-stack home with a LAN-corruption window
//! over its first telemetry round: a corrupted upload is forwarded as
//! the tap saw it, flipped byte included, not as its sender queued it.
//!
//! The last pin covers the mesh link layer: five leaves behind a 6LoWPAN
//! border router, with both the LAN capture and the 802.15.4 capture
//! pinned. Its window carries datagrams too large for one 6LoWPAN
//! datagram across the border in both directions.

use std::any::Any;
use std::net::{Ipv4Addr, Ipv6Addr};
use v6brick::devices::phone::Phone;
use v6brick::devices::registry;
use v6brick::devices::stack::IotDevice;
use v6brick::experiments::{scenario, NetworkConfig};
use v6brick::net::ethernet::{EtherType, Frame};
use v6brick::net::ipv4::{self, Protocol};
use v6brick::net::ipv6::{self, Ipv6AddrExt};
use v6brick::net::sixlowpan;
use v6brick::net::{tcp, udp};
use v6brick::pcap::{format, Capture};
use v6brick::sim::{
    addrs, BorderRouter, FaultPlan, FrameSink, Host, Internet, Router, SimTime, SimulationBuilder,
};

/// The pinned window: long enough for bulk telemetry and its replies.
const WINDOW: SimTime = SimTime::from_secs(120);
/// The base seed of the paper suite (`scenario::run`).
const BASE_SEED: u64 = 0x6b1c_0000;

/// Traffic classes the pinned window must contain.
#[derive(Debug, Default, Clone, Copy, PartialEq, Eq)]
struct Coverage {
    nat44_out: u64,
    nat44_in: u64,
    tunnel_out: u64,
    tunnel_in: u64,
    dns4: u64,
    dns6: u64,
    echo6: u64,
    uploads_12k: u64,
    replies_40k: u64,
    /// Uploads of ≥12 KB whose TCP checksum fails, corrupted on the
    /// LAN: over IPv4, then over IPv6.
    corrupt_uploads_12k: [u64; 2],
}

impl Coverage {
    fn add(&mut self, o: &Coverage) {
        self.nat44_out += o.nat44_out;
        self.nat44_in += o.nat44_in;
        self.tunnel_out += o.tunnel_out;
        self.tunnel_in += o.tunnel_in;
        self.dns4 += o.dns4;
        self.dns6 += o.dns6;
        self.echo6 += o.echo6;
        self.uploads_12k += o.uploads_12k;
        self.replies_40k += o.replies_40k;
        for (n, o) in self
            .corrupt_uploads_12k
            .iter_mut()
            .zip(o.corrupt_uploads_12k)
        {
            *n += o;
        }
    }

    /// Classify one frame with zero-copy views (a full parse would copy
    /// every payload).
    fn observe(&mut self, frame: &[u8]) {
        let Ok(eth) = Frame::new_checked(frame) else {
            return;
        };
        let from_router = eth.src() == addrs::ROUTER_MAC;
        match eth.ethertype() {
            EtherType::Ipv4 => {
                let Ok(ip) = ipv4::Packet::new_checked(eth.payload()) else {
                    return;
                };
                let lan = ipv4::Cidr::new(addrs::ROUTER_IPV4, 24);
                let routed = |a: Ipv4Addr| !lan.contains(a) && !a.is_broadcast();
                if routed(ip.dst()) && !from_router {
                    self.nat44_out += 1;
                }
                if routed(ip.src()) && from_router {
                    self.nat44_in += 1;
                }
                let (src, dst) = (ip.src(), ip.dst());
                self.transport(ip.protocol(), ip.payload(), false, |t| {
                    t.verify_checksum_v4(src, dst)
                });
            }
            EtherType::Ipv6 => {
                let Ok(ip) = ipv6::Packet::new_checked(eth.payload()) else {
                    return;
                };
                let lan = ipv6::Cidr::new(addrs::LAN_PREFIX, 64);
                let routed = |a: Ipv6Addr| a.is_global_unicast() && !lan.contains(a);
                if routed(ip.dst()) && !from_router {
                    self.tunnel_out += 1;
                }
                if routed(ip.src()) && from_router {
                    self.tunnel_in += 1;
                }
                let (src, dst) = (ip.src(), ip.dst());
                self.transport(ip.next_header(), ip.payload(), true, |t| {
                    t.verify_checksum_v6(src, dst)
                });
            }
            _ => {}
        }
    }

    /// Count one transport segment; `intact` verifies a TCP checksum.
    fn transport(
        &mut self,
        proto: Protocol,
        l4: &[u8],
        v6: bool,
        intact: impl Fn(&tcp::Packet<&[u8]>) -> bool,
    ) {
        match proto {
            Protocol::Udp => {
                if let Ok(u) = udp::Packet::new_checked(l4) {
                    if u.src_port() == 53 || u.dst_port() == 53 {
                        *if v6 { &mut self.dns6 } else { &mut self.dns4 } += 1;
                    }
                }
            }
            Protocol::Tcp => {
                if let Ok(t) = tcp::Packet::new_checked(l4) {
                    let len = t.payload().len();
                    if len >= 12_000 && t.dst_port() == 443 {
                        self.uploads_12k += 1;
                        if !intact(&t) {
                            self.corrupt_uploads_12k[usize::from(v6)] += 1;
                        }
                    }
                    if len >= 40_000 && t.src_port() == 443 {
                        self.replies_40k += 1;
                    }
                }
            }
            Protocol::Icmpv6 if matches!(l4.first(), Some(128 | 129)) => self.echo6 += 1,
            _ => {}
        }
    }
}

/// A tap sink folding every frame into a running digest.
#[derive(Debug)]
struct DigestSink {
    hash: u64,
    frames: u64,
    coverage: Coverage,
}

impl DigestSink {
    fn new() -> DigestSink {
        DigestSink {
            hash: 0x6b1c_d16e_57ca_97e5,
            frames: 0,
            coverage: Coverage::default(),
        }
    }

    fn fold(&mut self, word: u64) {
        // splitmix64 finalizer over the running state.
        let mut z = self.hash ^ word;
        z = (z ^ (z >> 30)).wrapping_mul(0xbf58_476d_1ce4_e5b9);
        z = (z ^ (z >> 27)).wrapping_mul(0x94d0_49bb_1331_11eb);
        self.hash = z ^ (z >> 31);
    }
}

impl FrameSink for DigestSink {
    fn on_frame(&mut self, timestamp_us: u64, frame: &[u8]) {
        self.frames += 1;
        self.fold(timestamp_us);
        self.fold(frame.len() as u64);
        let mut words = frame.chunks_exact(8);
        for w in &mut words {
            self.fold(u64::from_le_bytes(w.try_into().unwrap()));
        }
        let mut tail = [0u8; 8];
        tail[..words.remainder().len()].copy_from_slice(words.remainder());
        self.fold(u64::from_le_bytes(tail));
        self.coverage.observe(frame);
    }

    fn into_any(self: Box<Self>) -> Box<dyn Any> {
        self
    }
}

/// Run one configuration over the full registry, exactly as the paper
/// suite builds it (devices in registry order, then the two phones,
/// seeded `BASE_SEED ^ config`), and digest its LAN capture.
fn digest(config: NetworkConfig) -> DigestSink {
    digest_faulted(config, FaultPlan::new(), WINDOW).0
}

/// [`digest`] under `faults`, run to `window`; also the number of
/// frames the corruption injector flipped a byte in.
fn digest_faulted(config: NetworkConfig, faults: FaultPlan, window: SimTime) -> (DigestSink, u64) {
    let profiles = registry::shared();
    let mut b = SimulationBuilder::new(
        Router::new(config.router_config()),
        Internet::new(scenario::build_zones(profiles)),
    );
    for p in profiles {
        b.add_host(Box::new(IotDevice::new(p.clone())));
    }
    b.add_host(Box::new(Phone::pixel7()));
    b.add_host(Box::new(Phone::iphone_x()));
    b.add_sink(Box::new(DigestSink::new()));
    let mut sim = b
        .seed(BASE_SEED ^ config as u64)
        .capture(false)
        .faults(faults)
        .build();
    sim.run_until(window);
    let sink = *sim
        .take_sinks()
        .pop()
        .expect("the digest sink was attached")
        .into_any()
        .downcast::<DigestSink>()
        .expect("the only sink is the digest");
    (sink, sim.frames_corrupted)
}

/// Digest all six configurations, three per thread.
fn digest_all() -> Vec<(NetworkConfig, DigestSink)> {
    let (a, b) = NetworkConfig::ALL.split_at(3);
    std::thread::scope(|s| {
        let run = |cs: &'static [NetworkConfig]| {
            s.spawn(move || cs.iter().map(|&c| (c, digest(c))).collect::<Vec<_>>())
        };
        let (ha, hb) = (run(a), run(b));
        let mut out = ha.join().expect("digest thread");
        out.extend(hb.join().expect("digest thread"));
        out
    })
}

#[test]
fn rerun_in_one_process_taps_identical_bytes() {
    let first = digest(NetworkConfig::Ipv6Only);
    let second = digest(NetworkConfig::Ipv6Only);
    assert_eq!(first.frames, second.frames);
    assert_eq!(
        first.hash, second.hash,
        "the same config and seed must tap the same bytes in the same order"
    );
}

/// (config, frames tapped, digest) over [`WINDOW`] at [`BASE_SEED`].
const PINNED: [(NetworkConfig, u64, u64); 6] = [
    (NetworkConfig::Ipv4Only, 27_267, 0x8558bd947f5064d7),
    (NetworkConfig::Ipv6Only, 11_225, 0x4cff90510f35c08a),
    (NetworkConfig::Ipv6OnlyRdnssOnly, 10_695, 0xf5ec0ef7108e10f2),
    (NetworkConfig::Ipv6OnlyStateful, 11_292, 0x57defc48f5ecbf49),
    (NetworkConfig::DualStack, 31_640, 0xe57c1dc349e8ea09),
    (NetworkConfig::DualStackStateful, 31_707, 0x630faef1ce1f1ec2),
];

#[test]
fn table2_capture_digests_are_pinned() {
    let runs = digest_all();
    let mut total = Coverage::default();
    let mut mismatches = Vec::new();
    for ((config, d), (pinned_config, frames, hash)) in runs.iter().zip(PINNED) {
        assert_eq!(*config, pinned_config);
        total.add(&d.coverage);
        if (d.frames, d.hash) != (frames, hash) {
            mismatches.push(format!(
                "{}: {} frames, digest {:#018x} (pinned {frames} frames, {hash:#018x})",
                config.label(),
                d.frames,
                d.hash
            ));
        }
    }
    assert!(
        mismatches.is_empty(),
        "captured bytes changed:\n{}",
        mismatches.join("\n")
    );
    let covered = [
        total.nat44_out,
        total.nat44_in,
        total.tunnel_out,
        total.tunnel_in,
        total.dns4,
        total.dns6,
        total.echo6,
        total.uploads_12k,
        total.replies_40k,
    ];
    assert!(
        covered.iter().all(|&n| n > 0),
        "the pinned window lost a traffic class: {total:?}"
    );
}

/// The LAN-corruption window of [`corrupted_telemetry_round_is_pinned`]:
/// every device's first telemetry round (its tick 48) falls inside it.
const CORRUPT_FROM: SimTime = SimTime::from_secs(78);
const CORRUPT_TO: SimTime = SimTime::from_secs(90);
const CORRUPT_PER_MILLE: u32 = 200;
/// The home runs a little past the window, so replies to the last
/// corrupted uploads are tapped too.
const CORRUPT_WINDOW: SimTime = SimTime::from_secs(95);

/// (frames tapped, digest, frames corrupted) of the dual-stack home
/// with [`CORRUPT_FROM`]..[`CORRUPT_TO`] corrupted.
const PINNED_CORRUPT: (u64, u64, u64) = (31_605, 0x316f713a16faa974, 2_452);

#[test]
fn corrupted_telemetry_round_is_pinned() {
    let plan = FaultPlan::new().lan_corrupt(CORRUPT_FROM, CORRUPT_TO, CORRUPT_PER_MILLE);
    let (d, corrupted) = digest_faulted(NetworkConfig::DualStack, plan, CORRUPT_WINDOW);
    assert_eq!(
        (d.frames, d.hash, corrupted),
        PINNED_CORRUPT,
        "captured bytes changed: {} frames, digest {:#018x}, {corrupted} corrupted",
        d.frames,
        d.hash
    );
    let c = &d.coverage;
    assert!(
        c.corrupt_uploads_12k.iter().all(|&n| n > 0),
        "the window must corrupt uploads over both families: {c:?}"
    );
}

/// The leaves of [`mesh_home_captures_are_pinned`], behind one border
/// router.
const MESH_LEAVES: [&str; 5] = [
    "google_home_mini",
    "echo_show_5",
    "nest_camera",
    "homepod_mini",
    "aqara_hub",
];
/// The border router's seed, which is also the simulation's.
const MESH_SEED: u64 = 0x6e53;
const MESH_WINDOW: SimTime = SimTime::from_secs(150);

/// FNV-1a over a capture's classic pcap bytes.
fn pcap_digest(capture: &Capture) -> (usize, u64) {
    let bytes = format::to_bytes(capture);
    let hash = bytes.iter().fold(0xcbf2_9ce4_8422_2325, |h, &b| {
        (h ^ u64::from(b)).wrapping_mul(0x100_0000_01b3)
    });
    (bytes.len(), hash)
}

/// LAN frames to or from the border router whose IPv6 payload exceeds
/// what any 6LoWPAN datagram can carry once compressed.
fn oversized_crossings(lan: &Capture) -> usize {
    lan.iter()
        .filter(|p| {
            let Ok(eth) = Frame::new_checked(&p.data[..]) else {
                return false;
            };
            let crosses =
                eth.src() == addrs::BORDER_ROUTER_MAC || eth.dst() == addrs::BORDER_ROUTER_MAC;
            crosses
                && eth.ethertype() == EtherType::Ipv6
                && ipv6::Packet::new_checked(eth.payload())
                    .is_ok_and(|ip| ip.payload().len() > sixlowpan::MAX_DATAGRAM + 8)
        })
        .count()
}

/// ((LAN pcap bytes, FNV-1a), (mesh pcap bytes, FNV-1a), oversized
/// LAN frames across the border) of the mesh home at [`MESH_WINDOW`].
const PINNED_MESH: ((usize, u64), (usize, u64), usize) = (
    (45_397_492, 0x099c_23df_05c3_d9f4),
    (217_846, 0x0307_340f_18ac_9e41),
    1_612,
);

#[test]
fn mesh_home_captures_are_pinned() {
    let profiles: Vec<_> = MESH_LEAVES.iter().map(|id| registry::by_id(id)).collect();
    let config = NetworkConfig::Ipv6Only;
    let mut b = SimulationBuilder::new(
        Router::new(config.router_config()),
        Internet::new(scenario::build_zones(&profiles)),
    );
    let leaves = profiles
        .iter()
        .map(|p| Box::new(IotDevice::new(p.clone())) as Box<dyn Host>)
        .collect();
    let br = b.add_host(Box::new(BorderRouter::new(MESH_SEED, leaves)));
    let mut sim = b.seed(MESH_SEED).build();
    sim.run_until(MESH_WINDOW);
    let lan = sim.take_capture();
    let mesh = sim
        .host_mut(br)
        .as_any_mut()
        .downcast_mut::<BorderRouter>()
        .expect("host is the border router")
        .take_mesh_capture();
    let got = (
        pcap_digest(&lan),
        pcap_digest(&mesh),
        oversized_crossings(&lan),
    );
    assert_eq!(
        got, PINNED_MESH,
        "mesh home bytes changed: LAN {} bytes {:#018x}, mesh {} bytes {:#018x}, {} oversized crossings",
        got.0 .0, got.0 .1, got.1 .0, got.1 .1, got.2
    );
    assert!(
        got.2 > 0,
        "the window must carry oversized datagrams across the border"
    );
}
