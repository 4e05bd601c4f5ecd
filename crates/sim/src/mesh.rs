//! The 6LoWPAN border router: a second link layer behind one LAN host.
//!
//! A [`BorderRouter`] owns a set of leaf devices that, in an
//! Ethernet-only home, would sit directly on the LAN. To the simulation
//! engine it is a single [`Host`]; internally it runs an 802.15.4 mesh
//! segment: every leaf frame is IPHC-compressed, fragmented to the
//! 127-byte PHY MTU, timed through a CSMA-style slotted MAC with
//! seed-deterministic backoff, and recorded in a mesh-side capture
//! ([`v6brick_pcap::pcapng::LINKTYPE_IEEE802_15_4_NOFCS`]); the IPv6
//! payload is then route-over forwarded onto the Ethernet segment with
//! the border router's own MAC as the link-layer source (ND proxying).
//!
//! Modeled behaviour and deliberate simplifications:
//!
//! * **v6-only transit.** The mesh carries IPv6 exclusively; leaf IPv4,
//!   ARP, and DHCPv4 frames are dropped at the border (counted in
//!   [`BorderRouter::dropped_v4_frames`]). A v4-dependent leaf therefore
//!   bricks — exactly the Table-3-style readiness delta the mesh
//!   scenario family exists to measure.
//! * **ND proxy.** Leaf NDP messages have their source/target link-layer
//!   address options rewritten to the border router's MAC (checksums
//!   recomputed), so the home router only ever learns the border
//!   router's MAC; return traffic for leaf addresses is routed back by
//!   an IPv6 → leaf table learned from outbound sources.
//! * **No intra-mesh shortcut.** Leaf-to-leaf unicast would be delivered
//!   inside the mesh by a real Thread network; our leaves talk to the
//!   router, the Internet, and multicast groups, so the border router
//!   only forwards mesh↔Ethernet. Multicast from the LAN is delivered
//!   to every leaf (one broadcast mesh frame).
//! * **No mesh-local prefix.** Leaf traffic that crosses the border
//!   uses LAN-prefix addresses, which also serve as IPHC compression
//!   context 0; nothing is numbered from a Thread-style mesh-local ULA.
//! * **Oversized datagrams.** A packet too long for one 6LoWPAN
//!   datagram (over 2,047 bytes compressed: a leaf's 12 KB upload, the
//!   replies it draws) takes a datagram tag but puts nothing on the air,
//!   and one whose payload exceeds `MAX_DATAGRAM + 2` bytes is neither
//!   spelled out nor compressed. It still crosses the border on the
//!   Ethernet side, as a run when the leaf ended it in one: the leaf's
//!   own buffer, with only its Ethernet source rewritten. A real leaf
//!   would segment its TCP to the 1,280-byte IPv6 minimum MTU.

use crate::addrs;
use crate::event::SimTime;
use crate::host::{Effects, Host, Lists};
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};
use std::any::Any;
use std::collections::BTreeMap;
use std::net::Ipv6Addr;
use v6brick_net::ethernet::{self, EtherType};
use v6brick_net::ipv6::Cidr;
use v6brick_net::{icmpv6, ieee802154, ipv4, ipv6, ndp, sixlowpan, Mac, Run};
use v6brick_pcap::Capture;

/// Salt separating the mesh MAC-backoff RNG from the behavioural stream,
/// following the `FAULT_STREAM_SALT` discipline: mesh timing never
/// consumes a behavioural draw, so an Ethernet home and a mesh home with
/// the same seed stay draw-for-draw comparable.
const MESH_STREAM_SALT: u64 = 0x6b0a_15c4_f00d_d00d;

/// Leaf timers are multiplexed through the border router's host slot:
/// the leaf index rides the top 16 bits of the token.
const TOKEN_SHIFT: u32 = 48;

/// A border router fronting an 802.15.4 mesh of leaf devices.
pub struct BorderRouter {
    mac: Mac,
    context: Cidr,
    leaves: Vec<Box<dyn Host>>,
    leaf_macs: Vec<Mac>,
    /// Learned IPv6 → leaf-index routes (outbound source learning).
    addr_table: BTreeMap<Ipv6Addr, usize>,
    mesh_rng: StdRng,
    mesh_capture: Capture,
    mesh_capture_enabled: bool,
    /// The mesh air interface is busy until this instant (µs).
    busy_until_us: u64,
    seq: u8,
    tag: u16,
    /// Leaf IPv4/ARP/DHCPv4 frames refused transit (v6-only mesh).
    pub dropped_v4_frames: u64,
    /// 802.15.4 frames put on the air (both directions).
    pub mesh_frames: u64,
    /// IPv6 packets forwarded mesh → Ethernet.
    pub forwarded_up: u64,
    /// IPv6 packets forwarded Ethernet → mesh.
    pub forwarded_down: u64,
    /// Unicast arrivals with no learned leaf route.
    pub no_route_drops: u64,
    /// Where a short datagram that ends in a run is spelled out before
    /// compression.
    spelled: Vec<u8>,
    /// Where a LAN frame for one leaf is copied, its Ethernet destination
    /// rewritten to the leaf's MAC.
    delivered: Vec<u8>,
    /// The lists every leaf callback's [`Effects`] fill, emptied after
    /// each.
    lists: Lists,
}

impl BorderRouter {
    /// Build a border router over `leaves`, with mesh MAC timing drawn
    /// from a dedicated stream derived from `seed`.
    pub fn new(seed: u64, leaves: Vec<Box<dyn Host>>) -> BorderRouter {
        let leaf_macs = leaves.iter().map(|l| l.mac()).collect();
        BorderRouter {
            mac: addrs::BORDER_ROUTER_MAC,
            context: Cidr::new(addrs::LAN_PREFIX, 64),
            leaves,
            leaf_macs,
            addr_table: BTreeMap::new(),
            mesh_rng: StdRng::seed_from_u64(seed ^ MESH_STREAM_SALT),
            mesh_capture: Capture::new(),
            mesh_capture_enabled: true,
            busy_until_us: 0,
            seq: 0,
            tag: 0,
            dropped_v4_frames: 0,
            mesh_frames: 0,
            forwarded_up: 0,
            forwarded_down: 0,
            no_route_drops: 0,
            spelled: Vec::new(),
            delivered: Vec::new(),
            lists: Lists::default(),
        }
    }

    /// Disable the mesh-side capture (for bulk fleet runs that only need
    /// the Ethernet view).
    pub fn mesh_capture_enabled(mut self, enabled: bool) -> BorderRouter {
        self.mesh_capture_enabled = enabled;
        self
    }

    /// Number of leaf devices behind the mesh.
    pub fn leaf_count(&self) -> usize {
        self.leaves.len()
    }

    /// Borrow a leaf (downcast via `as_any` for device state queries).
    pub fn leaf(&self, idx: usize) -> &dyn Host {
        self.leaves[idx].as_ref()
    }

    /// MACs of the leaf devices, in attachment order.
    pub fn leaf_macs(&self) -> &[Mac] {
        &self.leaf_macs
    }

    /// Learned IPv6 → leaf-index routes (deterministic iteration order).
    pub fn leaf_addrs(&self) -> &BTreeMap<Ipv6Addr, usize> {
        &self.addr_table
    }

    /// Take the mesh-side 802.15.4 capture, leaving an empty one.
    pub fn take_mesh_capture(&mut self) -> Capture {
        std::mem::take(&mut self.mesh_capture)
    }

    /// Borrow the mesh-side capture.
    pub fn mesh_capture(&self) -> &Capture {
        &self.mesh_capture
    }

    /// Put one IPv6 packet, `ip` carrying `payload` followed by `run`,
    /// on the mesh air between `src` and `dst`: spell it out, compress it
    /// and transmit the datagram.
    ///
    /// Compression shortens a payload by at most 4 bytes (NHC-UDP turns
    /// the 8-byte UDP header into at least 4) and IPHC adds at least 2,
    /// so a datagram is at least 2 bytes shorter than its payload, and a
    /// payload over `MAX_DATAGRAM + 2` bytes can never fit one. It is
    /// neither spelled out nor compressed; it takes a datagram tag, as
    /// the refused datagram would have.
    fn put_on_air(
        &mut self,
        now: SimTime,
        ip: &ipv6::Repr,
        payload: &[u8],
        run: Run,
        src: [u8; 8],
        dst: [u8; 8],
    ) {
        if payload.len() + run.len() > sixlowpan::MAX_DATAGRAM + 2 {
            self.tag = self.tag.wrapping_add(1);
            return;
        }
        let payload = run.spell(payload, &mut self.spelled);
        let compressed = sixlowpan::compress(ip, payload, &src, &dst, Some(&self.context));
        self.transmit_mesh(now, src, dst, &compressed);
    }

    /// Put one compressed datagram on the mesh air interface: fragment,
    /// frame, and time each fragment through the slotted CSMA MAC.
    fn transmit_mesh(&mut self, now: SimTime, src: [u8; 8], dst: [u8; 8], datagram: &[u8]) {
        let tag = self.tag;
        self.tag = self.tag.wrapping_add(1);
        let Ok(frags) = sixlowpan::fragment(datagram, tag, ieee802154::MAX_PAYLOAD) else {
            // Too long for FRAG headers (over 2,047 bytes compressed),
            // as leaf uploads and the replies they draw are; `put_on_air`
            // does not even compress the longest. The packet still
            // crosses on the Ethernet side, with no airtime.
            return;
        };
        for frag in frags {
            let frame = ieee802154::Repr {
                seq: self.seq,
                pan_id: addrs::MESH_PAN_ID,
                dst,
                src,
            }
            .build(&frag);
            self.seq = self.seq.wrapping_add(1);
            // CSMA: wait for a clear channel, back off a random number of
            // slots, then occupy the air for the frame's serialization
            // time. `start` is nondecreasing across frames by
            // construction, which the capture's monotonicity assert pins.
            let slots = self.mesh_rng.gen_range(0u64..8);
            let start = now
                .as_micros()
                .max(self.busy_until_us)
                .saturating_add(slots * addrs::MESH_SLOT_US);
            self.busy_until_us = start.saturating_add(frame.len() as u64 * addrs::MESH_US_PER_BYTE);
            self.mesh_frames += 1;
            if self.mesh_capture_enabled {
                self.mesh_capture.push(start, &frame);
            }
        }
    }

    /// Extended (EUI-64) mesh address of a leaf.
    fn leaf_ext(&self, idx: usize) -> [u8; 8] {
        self.leaf_macs[idx].to_eui64()
    }

    /// The border router's own extended mesh address.
    fn br_ext(&self) -> [u8; 8] {
        self.mac.to_eui64()
    }

    /// Drive one leaf callback and translate its effects: timers are
    /// re-tagged with the leaf index, and frames cross the border, each
    /// with the run the leaf ended it in. The callback fills the border
    /// router's own lists, which are emptied for the next one.
    fn with_leaf(
        &mut self,
        idx: usize,
        now: SimTime,
        fx: &mut Effects,
        f: impl FnOnce(&mut dyn Host, &mut Effects),
    ) {
        let mut inner = self.lists.effects(&mut *fx.rng);
        f(self.leaves[idx].as_mut(), &mut inner);
        let mut lists = inner.into_lists();
        for (delay, token) in lists.timers.drain(..) {
            debug_assert!(token < 1 << TOKEN_SHIFT, "leaf token collides with mux");
            fx.set_timer(delay, ((idx as u64) << TOKEN_SHIFT) | token);
        }
        for (i, frame) in lists.frames.drain(..).enumerate() {
            self.leaf_outbound(idx, now, frame, lists.runs.get(i), fx);
        }
        lists.runs.clear();
        self.lists = lists;
    }

    /// One frame a leaf wants on the wire, `frame` followed by `run`:
    /// refuse v4, put the v6 packet on the mesh air, then route-over
    /// forward it onto the Ethernet segment with ND proxying.
    fn leaf_outbound(
        &mut self,
        idx: usize,
        now: SimTime,
        mut frame: Vec<u8>,
        run: Run,
        fx: &mut Effects,
    ) {
        let Ok(eth) = ethernet::Frame::new_checked(&frame[..]) else {
            return;
        };
        let eth_repr = ethernet::Repr::parse(&eth);
        match eth_repr.ethertype {
            EtherType::Ipv6 => {}
            EtherType::Ipv4 | EtherType::Arp => {
                // The mesh is v6-only: a leaf that needs DHCPv4/ARP to
                // function is bricked behind this border router.
                self.dropped_v4_frames += 1;
                return;
            }
            EtherType::Other(_) => return,
        }
        let Ok(ip_pkt) = ipv6::Packet::new_checked_with_tail(eth.payload(), run.len()) else {
            return;
        };
        let ip = ipv6::Repr::parse(&ip_pkt);
        let payload = ip_pkt.payload();
        let l4_run = run.cut(eth.payload().len(), ipv6::HEADER_LEN + ip.payload_len);

        // Source learning: the return-path route for this leaf.
        if !ip.src.is_unspecified() && !ip.src.is_multicast() {
            self.addr_table.insert(ip.src, idx);
        }

        // Mesh air: leaf → border router (or mesh broadcast).
        let ll_dst = if eth_repr.dst.is_multicast() {
            ieee802154::BROADCAST
        } else {
            self.br_ext()
        };
        self.put_on_air(now, &ip, payload, l4_run, self.leaf_ext(idx), ll_dst);

        // Ethernet side: the border router is the link-layer source. NDP
        // link-layer address options must follow (ND proxy) — rebuild
        // those messages so checksums stay valid; everything else only
        // needs the Ethernet source swapped, in the leaf's own buffer,
        // run and all.
        self.forwarded_up += 1;
        if ip.next_header == ipv4::Protocol::Icmpv6 {
            // Only a transport payload ends in a run.
            debug_assert!(run.is_empty(), "an ICMPv6 frame ends in a run");
            if let Some(proxied) = self.proxy_ndp(&eth_repr, &ip, payload) {
                fx.send_frame(proxied);
                return;
            }
        }
        frame[6..12].copy_from_slice(self.mac.as_bytes());
        fx.send_frame_with_run(frame, run);
    }

    /// Rebuild a leaf NDP message with link-layer address options pointing
    /// at the border router. Returns `None` when the message is not NDP
    /// (or fails to parse), in which case a plain source swap suffices.
    fn proxy_ndp(&self, eth: &ethernet::Repr, ip: &ipv6::Repr, payload: &[u8]) -> Option<Vec<u8>> {
        let msg = icmpv6::Repr::parse_bytes(ip.src, ip.dst, payload).ok()?;
        let icmpv6::Repr::Ndp(ndp_msg) = msg else {
            return None;
        };
        let proxy_opts = |options: Vec<ndp::NdpOption>| {
            options
                .into_iter()
                .map(|o| match o {
                    ndp::NdpOption::SourceLinkLayerAddr(_) => {
                        ndp::NdpOption::SourceLinkLayerAddr(self.mac)
                    }
                    ndp::NdpOption::TargetLinkLayerAddr(_) => {
                        ndp::NdpOption::TargetLinkLayerAddr(self.mac)
                    }
                    other => other,
                })
                .collect()
        };
        let proxied = match ndp_msg {
            ndp::Repr::RouterSolicit { options } => ndp::Repr::RouterSolicit {
                options: proxy_opts(options),
            },
            ndp::Repr::NeighborSolicit { target, options } => ndp::Repr::NeighborSolicit {
                target,
                options: proxy_opts(options),
            },
            ndp::Repr::NeighborAdvert {
                router,
                solicited,
                override_flag,
                target,
                options,
            } => ndp::Repr::NeighborAdvert {
                router,
                solicited,
                override_flag,
                target,
                options: proxy_opts(options),
            },
            // Leaves do not originate RAs; leave one untouched if ever seen.
            ra @ ndp::Repr::RouterAdvert { .. } => ra,
        };
        Some(crate::wire::icmpv6_frame(
            self.mac,
            eth.dst,
            ip.src,
            ip.dst,
            &icmpv6::Repr::Ndp(proxied),
        ))
    }

    /// An Ethernet frame arriving at the border: multicast fans out to
    /// every leaf over one broadcast mesh frame; unicast is routed by the
    /// learned address table with the Ethernet destination rewritten.
    fn inbound(&mut self, now: SimTime, frame: &[u8], fx: &mut Effects) {
        let Ok(eth) = ethernet::Frame::new_checked(frame) else {
            return;
        };
        let eth_repr = ethernet::Repr::parse(&eth);
        if eth_repr.src == self.mac {
            // Our own route-over forwards echoing back off the LAN.
            return;
        }
        if eth_repr.ethertype != EtherType::Ipv6 {
            return; // v4/ARP never crosses into the mesh
        }
        let Ok(ip_pkt) = ipv6::Packet::new_checked(eth.payload()) else {
            return;
        };
        let ip = ipv6::Repr::parse(&ip_pkt);
        let payload = ip_pkt.payload();

        if eth_repr.dst.is_multicast() {
            self.put_on_air(
                now,
                &ip,
                payload,
                Run::default(),
                self.br_ext(),
                ieee802154::BROADCAST,
            );
            self.forwarded_down += 1;
            for idx in 0..self.leaves.len() {
                self.with_leaf(idx, now, fx, |leaf, inner| leaf.on_frame(now, frame, inner));
            }
            return;
        }

        // Unicast: route by the inner IPv6 destination.
        let Some(&idx) = self.addr_table.get(&ip.dst) else {
            self.no_route_drops += 1;
            return;
        };
        self.put_on_air(
            now,
            &ip,
            payload,
            Run::default(),
            self.br_ext(),
            self.leaf_ext(idx),
        );
        self.forwarded_down += 1;
        let mut delivered = std::mem::take(&mut self.delivered);
        delivered.clear();
        delivered.extend_from_slice(frame);
        delivered[0..6].copy_from_slice(self.leaf_macs[idx].as_bytes());
        self.with_leaf(idx, now, fx, |leaf, inner| {
            leaf.on_frame(now, &delivered, inner)
        });
        self.delivered = delivered;
    }
}

impl Host for BorderRouter {
    fn mac(&self) -> Mac {
        self.mac
    }

    fn on_start(&mut self, now: SimTime, fx: &mut Effects) {
        for idx in 0..self.leaves.len() {
            self.with_leaf(idx, now, fx, |leaf, inner| leaf.on_start(now, inner));
        }
    }

    fn on_frame(&mut self, now: SimTime, frame: &[u8], fx: &mut Effects) {
        self.inbound(now, frame, fx);
    }

    fn on_timer(&mut self, now: SimTime, token: u64, fx: &mut Effects) {
        let idx = (token >> TOKEN_SHIFT) as usize;
        let leaf_token = token & ((1u64 << TOKEN_SHIFT) - 1);
        if idx < self.leaves.len() {
            self.with_leaf(idx, now, fx, |leaf, inner| {
                leaf.on_timer(now, leaf_token, inner)
            });
        }
    }

    fn fork(&self) -> Option<Box<dyn Host>> {
        let leaves = self
            .leaves
            .iter()
            .map(|l| l.fork())
            .collect::<Option<Vec<_>>>()?;
        Some(Box::new(BorderRouter {
            mac: self.mac,
            context: self.context,
            leaves,
            leaf_macs: self.leaf_macs.clone(),
            addr_table: self.addr_table.clone(),
            mesh_rng: self.mesh_rng.clone(),
            mesh_capture: self.mesh_capture.clone(),
            mesh_capture_enabled: self.mesh_capture_enabled,
            busy_until_us: self.busy_until_us,
            seq: self.seq,
            tag: self.tag,
            dropped_v4_frames: self.dropped_v4_frames,
            mesh_frames: self.mesh_frames,
            forwarded_up: self.forwarded_up,
            forwarded_down: self.forwarded_down,
            no_route_drops: self.no_route_drops,
            spelled: Vec::new(),
            delivered: Vec::new(),
            lists: Lists::default(),
        }))
    }

    fn as_any(&self) -> &dyn Any {
        self
    }

    fn as_any_mut(&mut self) -> &mut dyn Any {
        self
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::event::SimTime;
    use crate::wire;
    use v6brick_net::{tcp, udp};

    /// A scripted leaf: emits one canned frame on start, records frames.
    struct Leaf {
        mac: Mac,
        emit: Vec<Vec<u8>>,
        heard: Vec<Vec<u8>>,
    }

    impl Host for Leaf {
        fn mac(&self) -> Mac {
            self.mac
        }
        fn on_start(&mut self, _now: SimTime, fx: &mut Effects) {
            for f in self.emit.drain(..) {
                fx.send_frame(f);
            }
            fx.set_timer(SimTime::from_millis(5), 1);
        }
        fn on_frame(&mut self, _now: SimTime, frame: &[u8], _fx: &mut Effects) {
            self.heard.push(frame.to_vec());
        }
        fn on_timer(&mut self, _now: SimTime, _token: u64, _fx: &mut Effects) {}
        fn as_any(&self) -> &dyn Any {
            self
        }
        fn as_any_mut(&mut self) -> &mut dyn Any {
            self
        }
    }

    fn leaf_mac(n: u8) -> Mac {
        Mac::new(2, 0, 0, 0, 0xee, n)
    }

    fn run_start(br: &mut BorderRouter) -> Vec<Vec<u8>> {
        let mut rng = StdRng::seed_from_u64(1);
        let mut fx = Effects::new(&mut rng);
        br.on_start(SimTime::ZERO, &mut fx);
        fx.frames
    }

    #[test]
    fn v6_crosses_v4_bricks() {
        let src6: Ipv6Addr = "2001:db8:10:1::ee:1".parse().unwrap();
        let v6 = crate::wire::udp6_frame(
            leaf_mac(1),
            addrs::ROUTER_MAC,
            src6,
            "2001:db8:2::53".parse().unwrap(),
            5000,
            53,
            b"q".to_vec(),
        );
        let v4 = crate::wire::udp4_frame(
            leaf_mac(1),
            Mac::BROADCAST,
            "0.0.0.0".parse().unwrap(),
            "255.255.255.255".parse().unwrap(),
            68,
            67,
            vec![0; 64],
        );
        let mut br = BorderRouter::new(
            7,
            vec![Box::new(Leaf {
                mac: leaf_mac(1),
                emit: vec![v6.clone(), v4],
                heard: Vec::new(),
            })],
        );
        let out = run_start(&mut br);
        assert_eq!(out.len(), 1, "only the v6 frame crosses");
        assert_eq!(br.dropped_v4_frames, 1);
        assert_eq!(br.forwarded_up, 1);
        // The Ethernet source is now the border router's MAC…
        assert_eq!(&out[0][6..12], addrs::BORDER_ROUTER_MAC.as_bytes());
        // …the IPv6 payload is untouched…
        assert_eq!(&out[0][14..], &v6[14..]);
        // …the return route was learned, and the mesh air saw the packet.
        assert_eq!(br.leaf_addrs().get(&src6), Some(&0));
        assert!(br.mesh_frames >= 1);
        assert!(!br.mesh_capture().is_empty());
    }

    #[test]
    fn ndp_sllao_is_proxied_with_valid_checksum() {
        let lla: Ipv6Addr = "fe80::aa:1".parse().unwrap();
        let rs = crate::wire::icmpv6_frame(
            leaf_mac(1),
            Mac::new(0x33, 0x33, 0, 0, 0, 2),
            lla,
            "ff02::2".parse().unwrap(),
            &icmpv6::Repr::Ndp(ndp::Repr::RouterSolicit {
                options: vec![ndp::NdpOption::SourceLinkLayerAddr(leaf_mac(1))],
            }),
        );
        let mut br = BorderRouter::new(
            7,
            vec![Box::new(Leaf {
                mac: leaf_mac(1),
                emit: vec![rs],
                heard: Vec::new(),
            })],
        );
        let out = run_start(&mut br);
        assert_eq!(out.len(), 1);
        let p = v6brick_net::ParsedPacket::parse(&out[0]).expect("checksum must still verify");
        let v6brick_net::L4::Icmpv6(icmpv6::Repr::Ndp(ndp::Repr::RouterSolicit { options })) = p.l4
        else {
            panic!("expected proxied RS");
        };
        assert_eq!(
            options,
            vec![ndp::NdpOption::SourceLinkLayerAddr(
                addrs::BORDER_ROUTER_MAC
            )],
            "SLLAO must now name the border router"
        );
    }

    #[test]
    fn inbound_unicast_routes_by_learned_address() {
        let leaf_gua: Ipv6Addr = "2001:db8:10:1::ee:1".parse().unwrap();
        let v6 = crate::wire::udp6_frame(
            leaf_mac(1),
            addrs::ROUTER_MAC,
            leaf_gua,
            "2001:db8:2::53".parse().unwrap(),
            5000,
            53,
            b"q".to_vec(),
        );
        let mut br = BorderRouter::new(
            7,
            vec![
                Box::new(Leaf {
                    mac: leaf_mac(1),
                    emit: vec![v6],
                    heard: Vec::new(),
                }),
                Box::new(Leaf {
                    mac: leaf_mac(2),
                    emit: vec![],
                    heard: Vec::new(),
                }),
            ],
        );
        let _ = run_start(&mut br);
        // A reply from the router to the learned leaf GUA, addressed to
        // the border router's MAC (as the router would after ND).
        let reply = crate::wire::udp6_frame(
            addrs::ROUTER_MAC,
            addrs::BORDER_ROUTER_MAC,
            "2001:db8:2::53".parse().unwrap(),
            leaf_gua,
            53,
            5000,
            b"a".to_vec(),
        );
        let mut rng = StdRng::seed_from_u64(2);
        let mut fx = Effects::new(&mut rng);
        br.on_frame(SimTime::from_millis(1), &reply, &mut fx);
        assert_eq!(br.forwarded_down, 1);
        let l1 = br.leaf(0).as_any().downcast_ref::<Leaf>().unwrap();
        assert_eq!(l1.heard.len(), 1, "routed to the owning leaf");
        assert_eq!(
            &l1.heard[0][0..6],
            leaf_mac(1).as_bytes(),
            "Ethernet destination rewritten to the leaf"
        );
        let l2 = br.leaf(1).as_any().downcast_ref::<Leaf>().unwrap();
        assert!(l2.heard.is_empty(), "other leaves stay silent");
        // An unknown destination is dropped and counted.
        let stray = crate::wire::udp6_frame(
            addrs::ROUTER_MAC,
            addrs::BORDER_ROUTER_MAC,
            "2001:db8:2::53".parse().unwrap(),
            "2001:db8:10:1::dead".parse().unwrap(),
            53,
            5000,
            b"x".to_vec(),
        );
        br.on_frame(SimTime::from_millis(2), &stray, &mut fx);
        assert_eq!(br.no_route_drops, 1);
    }

    #[test]
    fn multicast_fans_out_to_all_leaves_once() {
        let mut br = BorderRouter::new(
            7,
            vec![
                Box::new(Leaf {
                    mac: leaf_mac(1),
                    emit: vec![],
                    heard: Vec::new(),
                }),
                Box::new(Leaf {
                    mac: leaf_mac(2),
                    emit: vec![],
                    heard: Vec::new(),
                }),
            ],
        );
        let _ = run_start(&mut br);
        let ra = crate::wire::icmpv6_frame(
            addrs::ROUTER_MAC,
            Mac::new(0x33, 0x33, 0, 0, 0, 1),
            addrs::ROUTER_LLA,
            "ff02::1".parse().unwrap(),
            &icmpv6::Repr::Ndp(ndp::Repr::RouterAdvert {
                hop_limit: 64,
                managed: false,
                other_config: false,
                router_lifetime: 1800,
                reachable_time: 0,
                retrans_time: 0,
                options: vec![],
            }),
        );
        let mut rng = StdRng::seed_from_u64(3);
        let mut fx = Effects::new(&mut rng);
        let frames_before = br.mesh_frames;
        br.on_frame(SimTime::from_millis(1), &ra, &mut fx);
        for i in 0..2 {
            let l = br.leaf(i).as_any().downcast_ref::<Leaf>().unwrap();
            assert_eq!(l.heard.len(), 1, "leaf {i} hears the RA");
        }
        assert_eq!(
            br.mesh_frames - frames_before,
            1,
            "one broadcast mesh frame, not one per leaf"
        );
    }

    /// A leaf sending one UDP datagram of `payload` bytes: from its
    /// link-local address to the border router's, both elided, with
    /// ports NHC-UDP packs into one byte, the tightest compression a
    /// datagram can get.
    fn udp_leaf(payload: usize) -> BorderRouter {
        let mac = leaf_mac(1);
        let link_local = |mac: Mac| {
            let mut a = [0u8; 16];
            a[..2].copy_from_slice(&[0xfe, 0x80]);
            a[8..].copy_from_slice(&mac.to_eui64());
            Ipv6Addr::from(a)
        };
        let frame = crate::wire::udp6_frame(
            mac,
            addrs::BORDER_ROUTER_MAC,
            link_local(mac),
            link_local(addrs::BORDER_ROUTER_MAC),
            0xf0b1,
            0xf0b2,
            vec![0x5a; payload],
        );
        BorderRouter::new(
            7,
            vec![Box::new(Leaf {
                mac,
                emit: vec![frame],
                heard: Vec::new(),
            })],
        )
    }

    #[test]
    fn oversized_datagrams_take_a_tag_but_no_airtime() {
        // An IPv6 payload longer than MAX_DATAGRAM + 2 bytes never fits
        // a datagram, so it skips compression and the air. This leaf's
        // datagrams are exactly 2 bytes shorter than their payload, so
        // the longest payload compressed still fits.
        let limit = sixlowpan::MAX_DATAGRAM + 2 - udp::HEADER_LEN;
        for (payload, on_air) in [
            (1_500, true),
            (limit, true),
            (limit + 1, false),
            (3_000, false),
            (12_000, false),
        ] {
            let mut br = udp_leaf(payload);
            let out = run_start(&mut br);
            assert_eq!(br.tag, 1, "{payload} bytes take one datagram tag");
            assert_eq!(br.forwarded_up, 1, "{payload} bytes still cross");
            assert_eq!(out.len(), 1);
            assert_eq!(
                out[0].len(),
                wire::ETH + ipv6::HEADER_LEN + udp::HEADER_LEN + payload
            );
            assert_eq!(br.mesh_frames > 0, on_air, "{payload} bytes on the air");
            assert_eq!(br.mesh_capture().len() as u64, br.mesh_frames);
        }
    }

    #[test]
    fn mesh_capture_timestamps_are_monotone_and_csma_spaced() {
        // Three rapid-fire datagrams: serialization + backoff must order
        // the air strictly, never overlapping transmissions.
        let mut br = BorderRouter::new(7, vec![]);
        let d = vec![0x60u8; 400]; // forces FRAG1 + FRAGN
        br.transmit_mesh(SimTime::ZERO, [1; 8], [2; 8], &d);
        br.transmit_mesh(SimTime::ZERO, [1; 8], [2; 8], &d);
        let c = br.take_mesh_capture();
        assert!(c.len() >= 8, "two 400-byte datagrams fragment");
        let ts: Vec<u64> = c.iter().map(|p| p.timestamp_us).collect();
        for w in ts.windows(2) {
            assert!(w[0] < w[1], "strictly increasing air starts: {ts:?}");
        }
        // Every 802.15.4 frame respects the PHY MTU.
        for p in c.iter() {
            assert!(p.data.len() <= ieee802154::MTU);
            ieee802154::Frame::new_checked(&p.data[..]).expect("well-formed mesh frame");
        }
    }

    /// A leaf that sends one frame, which may end in a run, at start.
    #[derive(Clone)]
    struct RunLeaf {
        frame: Option<(Vec<u8>, Run)>,
    }

    impl Host for RunLeaf {
        fn mac(&self) -> Mac {
            leaf_mac(1)
        }
        fn on_start(&mut self, _now: SimTime, fx: &mut Effects) {
            if let Some((frame, run)) = self.frame.take() {
                fx.send_frame_with_run(frame, run);
            }
        }
        fn on_frame(&mut self, _now: SimTime, _frame: &[u8], _fx: &mut Effects) {}
        fn on_timer(&mut self, _now: SimTime, _token: u64, _fx: &mut Effects) {}
        fn fork(&self) -> Option<Box<dyn Host>> {
            Some(Box::new(self.clone()))
        }
        fn as_any(&self) -> &dyn Any {
            self
        }
        fn as_any_mut(&mut self) -> &mut dyn Any {
            self
        }
    }

    const LEAF_GUA: Ipv6Addr = Ipv6Addr::new(0x2001, 0xdb8, 0x10, 1, 0, 0, 0xee, 1);
    const CLOUD: Ipv6Addr = Ipv6Addr::new(0x2001, 0xdb8, 0xffff, 0, 0, 0, 0, 1);

    /// A leaf's TCP segment to the cloud through the router: 5 bytes of
    /// payload, then `run`.
    fn leaf_upload(run: Run) -> (Vec<u8>, Run) {
        let seg = tcp::Repr {
            src_port: 40_000,
            dst_port: 443,
            seq: 1,
            ack: 1,
            flags: tcp::Flags::PSH | tcp::Flags::ACK,
            window: 0xffff,
            payload: b"hello".to_vec(),
        };
        let frame =
            wire::tcp6_frame_with_run(leaf_mac(1), addrs::ROUTER_MAC, LEAF_GUA, CLOUD, &seg, run);
        (frame, run)
    }

    /// A border router over one [`RunLeaf`] sending `frame`, with the
    /// mesh capture on; started, with the frames it forwarded and the
    /// runs they end in.
    fn cross(frame: (Vec<u8>, Run)) -> (BorderRouter, Vec<(Vec<u8>, Run)>) {
        let mut br = BorderRouter::new(7, vec![Box::new(RunLeaf { frame: Some(frame) })]);
        let mut rng = StdRng::seed_from_u64(1);
        let mut fx = Effects::new(&mut rng);
        br.on_start(SimTime::ZERO, &mut fx);
        let out = (0..fx.frames.len())
            .map(|i| (fx.frames[i].clone(), fx.run(i)))
            .collect();
        (br, out)
    }

    #[test]
    fn a_leaf_upload_crosses_as_a_run_with_a_tag_and_no_airtime() {
        let (frame, run) = leaf_upload(Run::tls_padding(12_000));
        let (br, out) = cross((frame.clone(), run));
        assert_eq!(out.len(), 1);
        let (head, crossed) = &out[0];
        assert_eq!(*crossed, run, "the run crosses intact");
        assert!(head.len() < 256, "only the head is in the buffer");
        assert_eq!(&head[6..12], addrs::BORDER_ROUTER_MAC.as_bytes());
        assert_eq!((&head[..6], &head[12..]), (&frame[..6], &frame[12..]));
        assert_eq!(br.tag, 1, "the oversized datagram takes a tag");
        assert_eq!(br.mesh_frames, 0);
        assert!(br.mesh_capture().is_empty());
        assert_eq!(br.forwarded_up, 1);
    }

    #[test]
    fn a_short_datagram_ending_in_a_run_goes_on_the_air_like_its_spelled_twin() {
        // 40 + 20 + 5 + 1,435: a 1,500-byte datagram.
        let (head, run) = leaf_upload(Run::new(0x17, 1_435));
        let spelled = run.spell(&head, &mut Vec::new()).to_vec();
        assert_eq!(spelled.len(), wire::ETH + 1_500);
        let (mut with_run, crossed) = cross((head, run));
        let (mut twin, twin_crossed) = cross((spelled, Run::default()));
        assert!(with_run.mesh_frames > 0, "the datagram goes on the air");
        assert_eq!(with_run.take_mesh_capture(), twin.take_mesh_capture());
        let spell = |(f, r): &(Vec<u8>, Run)| r.spell(f, &mut Vec::new()).to_vec();
        assert_eq!(spell(&crossed[0]), spell(&twin_crossed[0]));
    }

    #[test]
    fn a_fork_starts_with_empty_scratch_buffers() {
        let (mut br, _) = cross(leaf_upload(Run::new(0x17, 300)));
        let reply = wire::udp6_frame(
            addrs::ROUTER_MAC,
            addrs::BORDER_ROUTER_MAC,
            CLOUD,
            LEAF_GUA,
            443,
            40_000,
            vec![0x17; 600],
        );
        let mut rng = StdRng::seed_from_u64(2);
        let mut fx = Effects::new(&mut rng);
        br.on_frame(SimTime::from_millis(1), &reply, &mut fx);
        assert_eq!(br.forwarded_down, 1);
        assert!(br.spelled.capacity() > 0 && br.delivered.capacity() > 0);
        let fork = br.fork().expect("the leaf forks");
        let fork = fork.as_any().downcast_ref::<BorderRouter>().unwrap();
        assert_eq!(fork.spelled.capacity(), 0);
        assert_eq!(fork.delivered.capacity(), 0);
        assert_eq!(fork.lists.frames.capacity(), 0);
    }

    #[test]
    fn mesh_timing_is_seed_deterministic() {
        let run = |seed| {
            let mut br = BorderRouter::new(seed, vec![]);
            let d = vec![0x60u8; 300];
            br.transmit_mesh(SimTime::ZERO, [1; 8], [2; 8], &d);
            br.take_mesh_capture()
        };
        assert_eq!(run(7), run(7));
        assert_ne!(
            run(7).iter().map(|p| p.timestamp_us).collect::<Vec<_>>(),
            run(8).iter().map(|p| p.timestamp_us).collect::<Vec<_>>(),
            "different seeds draw different backoffs"
        );
    }
}
