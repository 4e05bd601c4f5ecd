//! The simulation engine: clock, event loop, LAN delivery, WAN link, and
//! the tcpdump-style capture tap.
//!
//! The tap fans every surviving LAN frame out to any combination of
//! [`FrameSink`]s: the classic buffered [`Capture`] (opt-in via
//! [`SimulationBuilder::capture`], for pcap export and debugging) and
//! streaming sinks attached with [`SimulationBuilder::add_sink`] (the
//! default analysis path — the experiment harness attaches its
//! incremental analyzer here so no frame is ever buffered or parsed
//! twice).
//!
//! A queued frame or packet may end in a [`Run`] (a bulk payload: a
//! cloud reply's repeated byte, or a telemetry upload's TLS padding).
//! The engine spells a LAN frame out with its [`Speller`] before the loss
//! and corruption injectors, the tap and the hosts read the frame, so
//! every tapped and delivered byte is the frame's full bytes. The speller
//! writes each recent run pattern out once and copies only a frame's
//! head in front of it, so a delivery does not write its bulk payload
//! again. The router reads only headers, so it is handed the frame as
//! its sender queued it, run unspelled, unless the corruption injector
//! flipped a byte in it. WAN packets travel unspelled: the router and
//! the internet model read their headers and length fields alone.

use crate::addrs;
use crate::event::{EventKind, EventQueue, SimTime};
use crate::faults::FaultPlan;
use crate::host::{frame_addressed_to, Effects, Host, HostId};
use crate::internet::Internet;
use crate::router::Router;
use crate::wire::Queued;
use rand::rngs::StdRng;
use rand::SeedableRng;
use v6brick_net::ethernet::Frame;
use v6brick_net::{ipv4, Mac, Run, Speller};
use v6brick_pcap::Capture;
pub use v6brick_pcap::FrameSink;

/// Sender slot used for the router in LAN events.
const ROUTER_SLOT: usize = usize::MAX;
/// Sender slot used to seed events that come "from the wire" itself.
const NOBODY: usize = usize::MAX - 1;
/// Salt separating the fault/loss RNG stream from the behavioural RNG.
/// Loss and corruption decisions never consume the main stream, so a
/// trace with loss enabled stays draw-for-draw comparable to one
/// without (`loss_stream_does_not_perturb_behavior` pins this).
const FAULT_STREAM_SALT: u64 = 0xfa17_57ae_a09d_2291;

/// Builder for a [`Simulation`].
pub struct SimulationBuilder {
    router: Router,
    internet: Internet,
    hosts: Vec<Box<dyn Host>>,
    seed: u64,
    capture_enabled: bool,
    sinks: Vec<Box<dyn FrameSink>>,
    loss_per_mille: u32,
    faults: FaultPlan,
}

impl SimulationBuilder {
    /// Start from a router and an internet model.
    pub fn new(router: Router, internet: Internet) -> SimulationBuilder {
        SimulationBuilder {
            router,
            internet,
            hosts: Vec::new(),
            seed: 0x1db8_2024,
            capture_enabled: true,
            sinks: Vec::new(),
            loss_per_mille: 0,
            faults: FaultPlan::new(),
        }
    }

    /// Add a host; returns its id.
    pub fn add_host(&mut self, host: Box<dyn Host>) -> HostId {
        self.hosts.push(host);
        self.hosts.len() - 1
    }

    /// Override the deterministic seed.
    pub fn seed(mut self, seed: u64) -> SimulationBuilder {
        self.seed = seed;
        self
    }

    /// Disable the buffered capture (used by the high-volume port scans
    /// and by the streaming analysis path, which attaches a sink
    /// instead). Streaming sinks added with
    /// [`SimulationBuilder::add_sink`] are unaffected.
    pub fn capture(mut self, enabled: bool) -> SimulationBuilder {
        self.capture_enabled = enabled;
        self
    }

    /// Attach a streaming [`FrameSink`] to the capture tap. Every frame
    /// that survives the loss injector is offered to every sink, in
    /// attachment order, before delivery — exactly what the buffered
    /// capture would have recorded. Recover the sinks after the run with
    /// [`Simulation::take_sinks`].
    pub fn add_sink(&mut self, sink: Box<dyn FrameSink>) {
        self.sinks.push(sink);
    }

    /// Inject random LAN frame loss (per-mille, 0–1000). Lost frames
    /// vanish before the capture tap, like RF loss ahead of the monitor
    /// port — the failure-injection knob for robustness tests.
    pub fn loss_per_mille(mut self, per_mille: u32) -> SimulationBuilder {
        assert!(per_mille <= 1000, "loss is per-mille");
        self.loss_per_mille = per_mille;
        self
    }

    /// Install a [`FaultPlan`]. The plan is cloned into the router
    /// (RA suppression, DHCPv6 silence) and the internet model (DNS
    /// faults); the engine itself enforces tunnel outages and the LAN
    /// loss/corruption windows.
    pub fn faults(mut self, plan: FaultPlan) -> SimulationBuilder {
        self.faults = plan;
        self
    }

    /// Finish building.
    pub fn build(self) -> Simulation {
        let mut router = self.router;
        let mut internet = self.internet;
        router.set_faults(self.faults.clone());
        internet.set_faults(self.faults.clone());
        let mut macs: Vec<(Mac, HostId)> = self.hosts.iter().map(|h| h.mac()).zip(0..).collect();
        macs.sort_unstable();
        Simulation {
            macs,
            clock: SimTime::ZERO,
            queue: EventQueue::new(),
            router,
            internet,
            hosts: self.hosts,
            rng: StdRng::seed_from_u64(self.seed),
            fault_rng: StdRng::seed_from_u64(self.seed ^ FAULT_STREAM_SALT),
            capture: Capture::new(),
            capture_enabled: self.capture_enabled,
            sinks: self.sinks,
            loss_per_mille: self.loss_per_mille,
            faults: self.faults,
            started: false,
            frames_delivered: 0,
            frames_lost: 0,
            frames_corrupted: 0,
            tunnel_drops: 0,
            speller: Speller::new(),
        }
    }
}

/// The running simulation.
pub struct Simulation {
    clock: SimTime,
    queue: EventQueue,
    router: Router,
    internet: Internet,
    hosts: Vec<Box<dyn Host>>,
    /// Every host's MAC beside its id, read once at build and sorted:
    /// the LAN's address filter. The hosts holding one MAC sit together,
    /// in host order.
    macs: Vec<(Mac, HostId)>,
    rng: StdRng,
    /// Dedicated stream for loss/corruption decisions — never shared
    /// with host/router behaviour.
    fault_rng: StdRng,
    capture: Capture,
    capture_enabled: bool,
    sinks: Vec<Box<dyn FrameSink>>,
    loss_per_mille: u32,
    faults: FaultPlan,
    started: bool,
    /// Total LAN frame deliveries (observability).
    pub frames_delivered: u64,
    /// Frames dropped by the loss injector.
    pub frames_lost: u64,
    /// Frames the corruption injector flipped a byte in.
    pub frames_corrupted: u64,
    /// WAN 6in4 packets swallowed by tunnel-outage windows.
    pub tunnel_drops: u64,
    /// Where a frame ending in a run is spelled out: each run pattern
    /// once, then reused for every later frame it covers.
    speller: Speller,
}

impl Simulation {
    /// Current virtual time.
    pub fn now(&self) -> SimTime {
        self.clock
    }

    /// The LAN capture taken so far (tcpdump's view).
    pub fn capture(&self) -> &Capture {
        &self.capture
    }

    /// Take ownership of the capture, leaving an empty one.
    pub fn take_capture(&mut self) -> Capture {
        std::mem::take(&mut self.capture)
    }

    /// Take ownership of the attached streaming sinks (attachment
    /// order); downcast via [`FrameSink::into_any`] to recover concrete
    /// analyzers.
    pub fn take_sinks(&mut self) -> Vec<Box<dyn FrameSink>> {
        std::mem::take(&mut self.sinks)
    }

    /// Borrow the router (neighbor table, lease table, drop counters).
    pub fn router(&self) -> &Router {
        &self.router
    }

    /// Mutably borrow the router (switching its firewall policy).
    pub fn router_mut(&mut self) -> &mut Router {
        &mut self.router
    }

    /// Borrow the internet model (zone db, served-bytes accounting).
    pub fn internet(&self) -> &Internet {
        &self.internet
    }

    /// Mutably borrow the internet model (scanner tap registration and
    /// reply drain).
    pub fn internet_mut(&mut self) -> &mut Internet {
        &mut self.internet
    }

    /// Borrow a host by id.
    pub fn host(&self, id: HostId) -> &dyn Host {
        self.hosts[id].as_ref()
    }

    /// Mutably borrow a host by id.
    pub fn host_mut(&mut self, id: HostId) -> &mut dyn Host {
        self.hosts[id].as_mut()
    }

    /// Number of hosts.
    pub fn host_count(&self) -> usize {
        self.hosts.len()
    }

    /// An independent copy of the running simulation: the clock, the
    /// pending events, both RNG streams, the router, the internet model,
    /// every host and the buffered capture. Run to the same deadline,
    /// the copy and the original tap the same frames and end in the same
    /// state. `None` when a streaming sink is attached (sinks cannot be
    /// copied) or when a host does not implement [`Host::fork`].
    pub fn fork(&self) -> Option<Simulation> {
        if !self.sinks.is_empty() {
            return None;
        }
        let hosts = self
            .hosts
            .iter()
            .map(|h| h.fork())
            .collect::<Option<Vec<_>>>()?;
        Some(Simulation {
            clock: self.clock,
            queue: self.queue.clone(),
            router: self.router.clone(),
            internet: self.internet.clone(),
            hosts,
            macs: self.macs.clone(),
            rng: self.rng.clone(),
            fault_rng: self.fault_rng.clone(),
            capture: self.capture.clone(),
            capture_enabled: self.capture_enabled,
            sinks: Vec::new(),
            loss_per_mille: self.loss_per_mille,
            faults: self.faults.clone(),
            started: self.started,
            frames_delivered: self.frames_delivered,
            frames_lost: self.frames_lost,
            frames_corrupted: self.frames_corrupted,
            tunnel_drops: self.tunnel_drops,
            speller: Speller::new(),
        })
    }

    /// Run until `deadline` (inclusive) or until the event queue drains.
    pub fn run_until(&mut self, deadline: SimTime) {
        if !self.started {
            self.started = true;
            // Power everything on at t=0.
            let mut fx = Effects::new(&mut self.rng);
            self.router.on_start(self.clock, &mut fx);
            Self::apply(&mut self.queue, self.clock, ROUTER_SLOT, fx);
            for i in 0..self.hosts.len() {
                let mut fx = Effects::new(&mut self.rng);
                self.hosts[i].on_start(self.clock, &mut fx);
                Self::apply(&mut self.queue, self.clock, i, fx);
            }
        }
        // An event past the deadline stays queued with its sequence
        // number, so it keeps its place among same-time peers.
        while let Some(ev) = self.queue.pop_due(deadline) {
            self.clock = ev.at;
            match ev.kind {
                EventKind::LanFrame { from, frame, run } => {
                    let mut speller = std::mem::take(&mut self.speller);
                    let queued = Queued { head: &frame, run };
                    self.deliver_lan(from, queued, speller.spell(&frame, run));
                    self.speller = speller;
                }
                EventKind::Timer { host, token } => {
                    let mut fx = Effects::new(&mut self.rng);
                    if host == ROUTER_SLOT {
                        self.router.on_timer(self.clock, token, &mut fx);
                    } else if let Some(h) = self.hosts.get_mut(host) {
                        h.on_timer(self.clock, token, &mut fx);
                    }
                    Self::apply(&mut self.queue, self.clock, host, fx);
                }
                EventKind::WanPacket {
                    to_internet,
                    packet,
                    run,
                } => {
                    if self.tunnel_blocked(&packet, run) {
                        self.tunnel_drops += 1;
                    } else if to_internet {
                        let packet = Queued { head: &packet, run };
                        if let Some((reply, run)) =
                            self.internet.handle_packet_at(self.clock, packet)
                        {
                            self.queue.push(
                                self.clock + SimTime(addrs::WAN_DELAY_US),
                                EventKind::WanPacket {
                                    to_internet: false,
                                    packet: reply,
                                    run,
                                },
                            );
                        }
                    } else {
                        let mut fx = Effects::new(&mut self.rng);
                        let packet = Queued { head: &packet, run };
                        self.router.on_wan_packet(self.clock, packet, &mut fx);
                        Self::apply(&mut self.queue, self.clock, ROUTER_SLOT, fx);
                    }
                }
            }
        }
        self.clock = deadline;
    }

    /// Is this WAN packet, `packet` followed by `run`, a 6in4 tunnel
    /// packet inside an active tunnel-outage window? IPv4 traffic is
    /// never affected. Only the header is read, so the run stays unspelled.
    fn tunnel_blocked(&self, packet: &[u8], run: Run) -> bool {
        if !self.faults.tunnel_down(self.clock) {
            return false;
        }
        let Ok(p) = ipv4::Packet::new_checked_with_tail(packet, run.len()) else {
            return false;
        };
        let repr = ipv4::Repr::parse(&p);
        repr.protocol == ipv4::Protocol::Ipv6
            && (repr.dst == addrs::TUNNEL_REMOTE_IPV4 || repr.src == addrs::TUNNEL_REMOTE_IPV4)
    }

    /// Deliver one LAN frame, `frame` spelled out and `queued` as its
    /// sender queued it: tap it, then hand it to the router if it is
    /// addressed there, and to the other hosts in host order: every one
    /// of them for a multicast (broadcast included), the ones holding
    /// the destination MAC for a unicast.
    fn deliver_lan(&mut self, from: usize, queued: Queued, frame: &[u8]) {
        use rand::Rng;
        // Loss and corruption draw from the dedicated fault stream only,
        // and only while a knob is actually enabled — the behavioural RNG
        // never sees them.
        let loss = self
            .faults
            .lan_loss_per_mille(self.clock, from == ROUTER_SLOT)
            .max(self.loss_per_mille);
        if loss > 0 && self.fault_rng.gen_range(0u32..1000) < loss {
            self.frames_lost += 1;
            return;
        }
        let corrupt = self.faults.lan_corrupt_per_mille(self.clock);
        let corrupted: Option<Vec<u8>> =
            if corrupt > 0 && !frame.is_empty() && self.fault_rng.gen_range(0u32..1000) < corrupt {
                let mut c = frame.to_vec();
                let idx = self.fault_rng.gen_range(0..c.len());
                c[idx] ^= 0xff;
                self.frames_corrupted += 1;
                Some(c)
            } else {
                None
            };
        // A flipped byte may lie in the run, so a corrupted frame reaches
        // the router spelled out.
        let (frame, queued) = match corrupted.as_deref() {
            Some(c) => (c, Queued::from(c)),
            None => (frame, queued),
        };
        let timestamp_us = self.clock.as_micros();
        if self.capture_enabled {
            self.capture.push(timestamp_us, frame);
        }
        for sink in &mut self.sinks {
            sink.on_frame(timestamp_us, frame);
        }
        let Ok(eth) = Frame::new_checked(frame) else {
            return;
        };
        let dst = eth.dst();
        self.frames_delivered += 1;

        if from != ROUTER_SLOT && frame_addressed_to(dst, addrs::ROUTER_MAC) {
            let mut fx = Effects::new(&mut self.rng);
            self.router.on_frame(self.clock, queued, &mut fx);
            Self::apply(&mut self.queue, self.clock, ROUTER_SLOT, fx);
        }
        if dst.is_multicast() {
            for i in (0..self.hosts.len()).filter(|&i| i != from) {
                self.deliver_to(i, frame);
            }
        } else {
            // Only the holders of `dst`: a lookup, not a walk of the LAN.
            let mut at = self.macs.partition_point(|&(mac, _)| mac < dst);
            while let Some(&(mac, i)) = self.macs.get(at) {
                if mac != dst {
                    break;
                }
                at += 1;
                if i != from {
                    self.deliver_to(i, frame);
                }
            }
        }
    }

    /// Hand `frame` to host `i` and schedule what it does about it.
    fn deliver_to(&mut self, i: HostId, frame: &[u8]) {
        let mut fx = Effects::new(&mut self.rng);
        self.hosts[i].on_frame(self.clock, frame, &mut fx);
        Self::apply(&mut self.queue, self.clock, i, fx);
    }

    /// Schedule the side effects a callback produced.
    fn apply(queue: &mut EventQueue, now: SimTime, slot: usize, mut fx: Effects) {
        for (i, frame) in std::mem::take(&mut fx.frames).into_iter().enumerate() {
            let run = fx.run(i);
            queue.push(
                now + SimTime(addrs::LAN_DELAY_US),
                EventKind::LanFrame {
                    from: slot,
                    frame,
                    run,
                },
            );
        }
        for (delay, token) in std::mem::take(&mut fx.timers) {
            queue.push(now + delay, EventKind::Timer { host: slot, token });
        }
        for (i, packet) in std::mem::take(&mut fx.wan).into_iter().enumerate() {
            queue.push(
                now + SimTime(addrs::WAN_DELAY_US),
                EventKind::WanPacket {
                    to_internet: true,
                    packet,
                    run: fx.wan_run(i),
                },
            );
        }
    }

    /// Inject a raw frame onto the LAN "from nowhere" (test helper).
    pub fn inject_frame(&mut self, frame: Vec<u8>) {
        self.queue.push(
            self.clock + SimTime(addrs::LAN_DELAY_US),
            EventKind::LanFrame {
                from: NOBODY,
                frame,
                run: Run::default(),
            },
        );
    }

    /// Inject a raw IPv4 packet arriving at the router's WAN interface
    /// after one WAN propagation delay — how the WAN scanner delivers
    /// probes from the Internet side.
    pub fn inject_wan(&mut self, packet: Vec<u8>) {
        self.queue.push(
            self.clock + SimTime(addrs::WAN_DELAY_US),
            EventKind::WanPacket {
                to_internet: false,
                packet,
                run: Run::default(),
            },
        );
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::faults::FaultPlan;
    use crate::internet::ZoneDb;
    use crate::router::RouterConfig;
    use std::any::Any;
    use std::sync::{Arc, Mutex};
    use v6brick_net::ethernet::{self, EtherType, Repr as EthRepr};
    use v6brick_net::Mac;

    /// A host that broadcasts one frame at start and counts what it hears.
    struct Chatter {
        mac: Mac,
        heard: usize,
        sent_on_timer: bool,
    }

    impl Host for Chatter {
        fn mac(&self) -> Mac {
            self.mac
        }
        fn on_start(&mut self, _now: SimTime, fx: &mut Effects) {
            fx.send_frame(
                EthRepr {
                    src: self.mac,
                    dst: Mac::BROADCAST,
                    ethertype: EtherType::Other(0x9999),
                }
                .build(b"hello"),
            );
            fx.set_timer(SimTime::from_secs(1), 42);
        }
        fn on_frame(&mut self, _now: SimTime, _frame: &[u8], _fx: &mut Effects) {
            self.heard += 1;
        }
        fn on_timer(&mut self, _now: SimTime, token: u64, _fx: &mut Effects) {
            assert_eq!(token, 42);
            self.sent_on_timer = true;
        }
        fn as_any(&self) -> &dyn Any {
            self
        }
        fn as_any_mut(&mut self) -> &mut dyn Any {
            self
        }
    }

    fn two_chatters() -> Simulation {
        let mut b = SimulationBuilder::new(
            Router::new(RouterConfig::ipv4_only()),
            Internet::new(ZoneDb::new()),
        );
        b.add_host(Box::new(Chatter {
            mac: Mac::new(2, 0, 0, 0, 0, 1),
            heard: 0,
            sent_on_timer: false,
        }));
        b.add_host(Box::new(Chatter {
            mac: Mac::new(2, 0, 0, 0, 0, 2),
            heard: 0,
            sent_on_timer: false,
        }));
        b.build()
    }

    #[test]
    fn broadcast_reaches_other_hosts_not_sender() {
        let mut sim = two_chatters();
        sim.run_until(SimTime::from_secs(2));
        for i in 0..2 {
            let c = sim.host(i).as_any().downcast_ref::<Chatter>().unwrap();
            assert_eq!(c.heard, 1, "host {i} should hear exactly the peer's frame");
            assert!(c.sent_on_timer);
        }
        // Both frames were captured.
        assert_eq!(sim.capture().len(), 2);
        assert_eq!(sim.frames_delivered, 2);
    }

    #[test]
    fn determinism_same_seed_same_capture() {
        let mut a = two_chatters();
        let mut b = two_chatters();
        a.run_until(SimTime::from_secs(5));
        b.run_until(SimTime::from_secs(5));
        assert_eq!(a.capture(), b.capture());
    }

    #[test]
    fn capture_can_be_disabled() {
        let mut b = SimulationBuilder::new(
            Router::new(RouterConfig::ipv4_only()),
            Internet::new(ZoneDb::new()),
        );
        b.add_host(Box::new(Chatter {
            mac: Mac::new(2, 0, 0, 0, 0, 1),
            heard: 0,
            sent_on_timer: false,
        }));
        let mut sim = b.capture(false).build();
        sim.run_until(SimTime::from_secs(2));
        assert!(sim.capture().is_empty());
    }

    #[test]
    fn sink_sees_exactly_the_captured_frames() {
        // A Capture attached as a streaming sink must record the same
        // frames as the engine's own buffered capture.
        let mut b = SimulationBuilder::new(
            Router::new(RouterConfig::ipv4_only()),
            Internet::new(ZoneDb::new()),
        );
        b.add_host(Box::new(Chatter {
            mac: Mac::new(2, 0, 0, 0, 0, 1),
            heard: 0,
            sent_on_timer: false,
        }));
        b.add_host(Box::new(Chatter {
            mac: Mac::new(2, 0, 0, 0, 0, 2),
            heard: 0,
            sent_on_timer: false,
        }));
        b.add_sink(Box::new(Capture::new()));
        let mut sim = b.build();
        sim.run_until(SimTime::from_secs(2));
        let sink = sim.take_sinks().pop().unwrap();
        let mirrored = *sink.into_any().downcast::<Capture>().unwrap();
        assert_eq!(&mirrored, sim.capture());
        assert_eq!(mirrored.len(), 2);
    }

    /// A host that consumes the behavioural RNG on every timer tick and
    /// records its draws — the probe for fault-stream isolation.
    struct RngProbe {
        mac: Mac,
        draws: Vec<u64>,
    }

    impl Host for RngProbe {
        fn mac(&self) -> Mac {
            self.mac
        }
        fn on_start(&mut self, _now: SimTime, fx: &mut Effects) {
            fx.set_timer(SimTime::from_millis(100), 7);
        }
        fn on_frame(&mut self, _now: SimTime, _frame: &[u8], _fx: &mut Effects) {}
        fn on_timer(&mut self, _now: SimTime, _token: u64, fx: &mut Effects) {
            use rand::Rng;
            self.draws.push(fx.rng.gen());
            // Keep traffic flowing through the loss injector.
            fx.send_frame(
                EthRepr {
                    src: self.mac,
                    dst: Mac::BROADCAST,
                    ethertype: EtherType::Other(0x9999),
                }
                .build(b"tick"),
            );
            fx.set_timer(SimTime::from_millis(100), 7);
        }
        fn as_any(&self) -> &dyn Any {
            self
        }
        fn as_any_mut(&mut self) -> &mut dyn Any {
            self
        }
    }

    fn probe_run(loss: u32) -> (Vec<u64>, u64) {
        let mut b = SimulationBuilder::new(
            Router::new(RouterConfig::ipv4_only()),
            Internet::new(ZoneDb::new()),
        );
        b.add_host(Box::new(RngProbe {
            mac: Mac::new(2, 0, 0, 0, 0, 1),
            draws: Vec::new(),
        }));
        b.add_host(Box::new(RngProbe {
            mac: Mac::new(2, 0, 0, 0, 0, 2),
            draws: Vec::new(),
        }));
        let mut sim = b.loss_per_mille(loss).build();
        sim.run_until(SimTime::from_secs(5));
        let d = sim.host(0).as_any().downcast_ref::<RngProbe>().unwrap();
        (d.draws.clone(), sim.frames_lost)
    }

    #[test]
    fn loss_stream_does_not_perturb_behavior() {
        // Loss decisions ride a dedicated RNG stream: enabling loss must
        // not shift a single behavioural draw.
        let (clean, lost0) = probe_run(0);
        let (lossy, lost500) = probe_run(500);
        assert!(clean.len() >= 40, "probe ticked: {}", clean.len());
        assert_eq!(lost0, 0);
        assert!(lost500 > 0, "heavy loss must actually drop frames");
        assert_eq!(clean, lossy, "behavioural draws shifted under loss");
    }

    #[test]
    fn fault_window_loss_is_time_bounded() {
        use crate::faults::{Direction, FaultPlan};
        let mk = |plan: FaultPlan| {
            let mut b = SimulationBuilder::new(
                Router::new(RouterConfig::ipv4_only()),
                Internet::new(ZoneDb::new()),
            );
            b.add_host(Box::new(RngProbe {
                mac: Mac::new(2, 0, 0, 0, 0, 1),
                draws: Vec::new(),
            }));
            b.faults(plan)
        };
        // Window covers the whole run: total loss.
        let mut sim = mk(FaultPlan::new().lan_loss(
            SimTime::ZERO,
            SimTime::from_secs(10),
            1000,
            Direction::Both,
        ))
        .build();
        sim.run_until(SimTime::from_secs(5));
        assert!(sim.frames_lost > 0);
        assert_eq!(sim.frames_delivered, 0);
        // Window already closed: no loss at all.
        let mut sim = mk(FaultPlan::new().lan_loss(
            SimTime::ZERO,
            SimTime::from_millis(50),
            1000,
            Direction::Both,
        ))
        .build();
        sim.run_until(SimTime::from_secs(5));
        assert_eq!(sim.frames_lost, 0);
        assert!(sim.frames_delivered > 0);
    }

    #[test]
    fn corruption_taints_frames_but_still_delivers_them() {
        use crate::faults::FaultPlan;
        let mut b = SimulationBuilder::new(
            Router::new(RouterConfig::ipv4_only()),
            Internet::new(ZoneDb::new()),
        );
        b.add_host(Box::new(RngProbe {
            mac: Mac::new(2, 0, 0, 0, 0, 1),
            draws: Vec::new(),
        }));
        let mut sim = b
            .faults(FaultPlan::new().lan_corrupt(SimTime::ZERO, SimTime::from_secs(10), 1000))
            .build();
        sim.run_until(SimTime::from_secs(5));
        assert!(sim.frames_corrupted > 0);
        // Corrupted frames still hit the capture tap.
        assert_eq!(sim.capture().len() as u64, sim.frames_corrupted);
        assert_eq!(sim.frames_lost, 0);
    }

    /// A host that keeps every frame it is handed.
    struct Recorder {
        mac: Mac,
        heard: Vec<Vec<u8>>,
    }

    impl Host for Recorder {
        fn mac(&self) -> Mac {
            self.mac
        }
        fn on_start(&mut self, _now: SimTime, _fx: &mut Effects) {}
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

    /// One recorder on the LAN, with `frame` (ending in `run`) queued to
    /// it at t = 0, run for a second under `faults` with `seed`.
    fn run_one_frame(seed: u64, faults: FaultPlan, frame: &[u8], run: Run) -> Simulation {
        let mut b = SimulationBuilder::new(
            Router::new(RouterConfig::ipv4_only()),
            Internet::new(ZoneDb::new()),
        );
        b.add_host(Box::new(Recorder {
            mac: Mac::new(2, 0, 0, 0, 0, 1),
            heard: Vec::new(),
        }));
        let mut sim = b.seed(seed).faults(faults).build();
        sim.queue.push(
            SimTime::ZERO,
            EventKind::LanFrame {
                from: NOBODY,
                frame: frame.to_vec(),
                run,
            },
        );
        sim.run_until(SimTime::from_secs(1));
        sim
    }

    fn tapped(sim: &Simulation) -> Vec<&[u8]> {
        sim.capture().iter().map(|p| &p.data[..]).collect()
    }

    fn heard(sim: &Simulation) -> &[Vec<u8>] {
        &sim.host(0)
            .as_any()
            .downcast_ref::<Recorder>()
            .unwrap()
            .heard
    }

    /// A 19-byte frame to the recorder, and a run of `run_len` bytes to
    /// end it with.
    fn frame_to_recorder(run_len: usize) -> (Vec<u8>, Run) {
        let head = EthRepr {
            src: Mac::new(2, 0, 0, 0, 0, 9),
            dst: Mac::new(2, 0, 0, 0, 0, 1),
            ethertype: EtherType::Other(0x9999),
        }
        .build(b"front");
        (head, Run::new(0x17, run_len))
    }

    #[test]
    fn a_run_is_tapped_and_delivered_spelled_out() {
        let (head, run) = frame_to_recorder(3000);
        let spelled = run.spell(&head, &mut Vec::new()).to_vec();
        let sim = run_one_frame(0, FaultPlan::new(), &head, run);
        assert_eq!(tapped(&sim), [&spelled[..]]);
        assert_eq!(heard(&sim), [spelled]);
    }

    #[test]
    fn corruption_draws_its_index_over_the_spelled_out_frame() {
        // The head is 19 bytes of a 50 kB frame: a draw over the head
        // alone would almost never flip the byte the full-length draw does.
        let (head, run) = frame_to_recorder(50_000);
        let spelled = run.spell(&head, &mut Vec::new()).to_vec();
        let corrupt = || FaultPlan::new().lan_corrupt(SimTime::ZERO, SimTime::from_secs(1), 1000);
        for seed in 0..8 {
            let with_run = run_one_frame(seed, corrupt(), &head, run);
            let plain = run_one_frame(seed, corrupt(), &spelled, Run::default());
            assert_eq!(with_run.frames_corrupted, 1);
            assert_ne!(tapped(&with_run), [&spelled[..]]);
            assert_eq!(tapped(&with_run), tapped(&plain));
            assert_eq!(heard(&with_run), heard(&plain));
        }
    }

    #[test]
    fn a_tunnel_outage_drops_a_run_like_its_spelled_out_form() {
        // A 6in4 reply from the tunnel broker whose body is a run, and
        // the same reply spelled out.
        let run = Run::new(0x17, 40_000);
        let mut head = vec![0; ipv4::HEADER_LEN + 8];
        ipv4::Repr {
            src: addrs::TUNNEL_REMOTE_IPV4,
            dst: addrs::ROUTER_WAN_IPV4,
            protocol: ipv4::Protocol::Ipv6,
            ttl: 64,
            payload_len: 8 + run.len(),
        }
        .emit(&mut head);
        let spelled = run.spell(&head, &mut Vec::new()).to_vec();
        let drops = |packet: &[u8], run: Run, outage: bool| {
            let mut plan = FaultPlan::new();
            if outage {
                plan = plan.tunnel_outage(SimTime::ZERO, SimTime::from_secs(1));
            }
            let mut sim = SimulationBuilder::new(
                Router::new(RouterConfig::ipv6_only()),
                Internet::new(ZoneDb::new()),
            )
            .faults(plan)
            .build();
            sim.queue.push(
                SimTime::ZERO,
                EventKind::WanPacket {
                    to_internet: false,
                    packet: packet.to_vec(),
                    run,
                },
            );
            sim.run_until(SimTime::from_secs(1));
            sim.tunnel_drops
        };
        assert_eq!(drops(&head, run, true), 1);
        assert_eq!(drops(&spelled, Run::default(), true), 1);
        assert_eq!(drops(&head, run, false), 0);
        assert_eq!(drops(&spelled, Run::default(), false), 0);
    }

    const UPLOADER_IP: std::net::Ipv4Addr = std::net::Ipv4Addr::new(192, 168, 1, 7);
    const CLOUD_IP: std::net::Ipv4Addr = std::net::Ipv4Addr::new(198, 18, 0, 9);

    /// A device's telemetry upload: a TCP segment to the cloud through
    /// the router, a short head ending in 12 KB of TLS padding.
    fn upload_frame() -> (Vec<u8>, Run) {
        let seg = v6brick_net::tcp::Repr {
            src_port: 40_000,
            dst_port: 443,
            seq: 1,
            ack: 1,
            flags: v6brick_net::tcp::Flags::PSH | v6brick_net::tcp::Flags::ACK,
            window: 0xffff,
            payload: b"hello".to_vec(),
        };
        let run = Run::tls_padding(12_000);
        let frame = crate::wire::tcp4_frame_with_run(
            lan_mac(7),
            addrs::ROUTER_MAC,
            UPLOADER_IP,
            CLOUD_IP,
            &seg,
            run,
        );
        (frame, run)
    }

    /// A host that sends [`upload_frame`] at start.
    struct Uploader;

    impl Host for Uploader {
        fn mac(&self) -> Mac {
            lan_mac(7)
        }
        fn on_start(&mut self, _now: SimTime, fx: &mut Effects) {
            let (frame, run) = upload_frame();
            fx.send_frame_with_run(frame, run);
        }
        fn on_frame(&mut self, _now: SimTime, _frame: &[u8], _fx: &mut Effects) {}
        fn on_timer(&mut self, _now: SimTime, _token: u64, _fx: &mut Effects) {}
        fn as_any(&self) -> &dyn Any {
            self
        }
        fn as_any_mut(&mut self) -> &mut dyn Any {
            self
        }
    }

    /// The IPv4 packet a fresh router sends to the WAN for `frame`.
    fn routed(frame: &[u8]) -> Option<Vec<u8>> {
        let mut rng = StdRng::seed_from_u64(0);
        let mut fx = Effects::new(&mut rng);
        Router::new(RouterConfig::ipv4_only()).on_frame(SimTime::ZERO, frame, &mut fx);
        fx.wan.pop()
    }

    /// Run the uploader under `faults` until the router has handled its
    /// frame; return the simulation and the WAN packet the router queued,
    /// if any, with its run.
    fn upload(seed: u64, faults: FaultPlan) -> (Simulation, Option<(Vec<u8>, Run)>) {
        let mut b = SimulationBuilder::new(
            Router::new(RouterConfig::ipv4_only()),
            Internet::new(ZoneDb::new()),
        );
        b.add_host(Box::new(Uploader));
        let mut sim = b.seed(seed).faults(faults).build();
        sim.run_until(SimTime(addrs::LAN_DELAY_US));
        let wan = std::iter::from_fn(|| sim.queue.pop()).find_map(|e| match e.kind {
            EventKind::WanPacket {
                to_internet: true,
                packet,
                run,
            } => Some((packet, run)),
            _ => None,
        });
        (sim, wan)
    }

    #[test]
    fn a_host_run_is_tapped_spelled_and_reaches_the_router_unspelled() {
        let (head, run) = upload_frame();
        let spelled = run.spell(&head, &mut Vec::new()).to_vec();
        let (sim, wan) = upload(0, FaultPlan::new());
        assert_eq!(tapped(&sim), [&spelled[..]]);
        let (packet, wan_run) = wan.expect("the router forwards the upload");
        // NAT44 rewrote the headers and carried the padding unspelled.
        assert_eq!(wan_run, run);
        assert_eq!(packet.len(), head.len() - ethernet::HEADER_LEN);
        let expected = routed(&spelled).expect("the spelled upload is forwarded");
        assert_eq!(wan_run.spell(&packet, &mut Vec::new()), &expected[..]);
    }

    #[test]
    fn a_corrupted_run_reaches_the_router_spelled() {
        let (head, run) = upload_frame();
        let spelled = run.spell(&head, &mut Vec::new()).to_vec();
        let corrupt = || FaultPlan::new().lan_corrupt(SimTime::ZERO, SimTime::from_secs(1), 1000);
        let mut past_the_head = 0;
        for seed in 0..8 {
            let (sim, wan) = upload(seed, corrupt());
            let tap = tapped(&sim)[0].to_vec();
            let flipped = (0..tap.len()).find(|&i| tap[i] != spelled[i]).unwrap();
            if flipped < head.len() {
                continue;
            }
            past_the_head += 1;
            // The router read the flipped byte: the packet it forwards is
            // the corrupted frame's, written out whole.
            let (packet, wan_run) = wan.expect("a payload flip is forwarded");
            assert!(wan_run.is_empty());
            assert_eq!(Some(packet), routed(&tap));
        }
        assert!(past_the_head > 0, "no seed flipped a byte of the run");
    }

    /// A host that sends `outbox` at start and logs its id in a log the
    /// whole LAN shares, for every frame it is handed.
    #[derive(Clone)]
    struct Listener {
        id: HostId,
        mac: Mac,
        outbox: Option<Vec<u8>>,
        log: Arc<Mutex<Vec<HostId>>>,
    }

    impl Host for Listener {
        fn mac(&self) -> Mac {
            self.mac
        }
        fn on_start(&mut self, _now: SimTime, fx: &mut Effects) {
            if let Some(frame) = self.outbox.take() {
                fx.send_frame(frame);
            }
        }
        fn on_frame(&mut self, _now: SimTime, _frame: &[u8], _fx: &mut Effects) {
            self.log.lock().unwrap().push(self.id);
        }
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

    fn lan_mac(last: u8) -> Mac {
        Mac::new(2, 0, 0, 0, 0, last)
    }

    fn frame_to(dst: Mac) -> Vec<u8> {
        EthRepr {
            src: lan_mac(0xee),
            dst,
            ethertype: EtherType::Other(0x9999),
        }
        .build(b"ping")
    }

    /// Listeners with `macs`, in host order; `sender` sends one frame to
    /// `dst` at start. Returns the simulation and the LAN's log.
    fn listeners(
        macs: &[Mac],
        sender: Option<(HostId, Mac)>,
    ) -> (Simulation, Arc<Mutex<Vec<HostId>>>) {
        let log = Arc::new(Mutex::new(Vec::new()));
        let mut b = SimulationBuilder::new(
            Router::new(RouterConfig::ipv4_only()),
            Internet::new(ZoneDb::new()),
        );
        for (id, &mac) in macs.iter().enumerate() {
            b.add_host(Box::new(Listener {
                id,
                mac,
                outbox: sender
                    .filter(|&(s, _)| s == id)
                    .map(|(_, dst)| frame_to(dst)),
                log: Arc::clone(&log),
            }));
        }
        (b.build(), log)
    }

    #[test]
    fn unicast_reaches_every_holder_of_its_mac_in_host_order_but_not_the_sender() {
        // Hosts 1, 3 and 4 share a MAC that sorts after host 0's and
        // before host 2's; host 4 sends to it.
        let (a, b, c) = (lan_mac(5), lan_mac(3), lan_mac(9));
        let (mut sim, log) = listeners(&[b, a, c, a, a], Some((4, a)));
        sim.run_until(SimTime::from_secs(1));
        assert_eq!(*log.lock().unwrap(), [1, 3]);
        assert_eq!(sim.frames_delivered, 1);
    }

    #[test]
    fn multicast_reaches_every_host_but_the_sender_in_host_order() {
        let macs = [lan_mac(9), lan_mac(1), lan_mac(5), lan_mac(1)];
        for dst in [Mac::BROADCAST, Mac::new(0x33, 0x33, 0, 0, 0, 1)] {
            let (mut sim, log) = listeners(&macs, Some((1, dst)));
            sim.run_until(SimTime::from_secs(1));
            assert_eq!(*log.lock().unwrap(), [0, 2, 3], "to {dst:?}");
        }
    }

    #[test]
    fn unicast_to_an_unknown_mac_reaches_no_host() {
        // Below, between and above the MACs on the LAN.
        for last in [1, 4, 9] {
            let (mut sim, log) = listeners(&[lan_mac(3), lan_mac(5)], None);
            sim.inject_frame(frame_to(lan_mac(last)));
            sim.run_until(SimTime::from_secs(1));
            assert!(log.lock().unwrap().is_empty(), "to {last}");
            assert_eq!(sim.capture().len(), 1);
            assert_eq!(sim.frames_delivered, 1);
        }
    }

    #[test]
    fn a_fork_keeps_the_mac_index() {
        let (a, b) = (lan_mac(7), lan_mac(2));
        let (mut sim, log) = listeners(&[a, b, a], None);
        sim.run_until(SimTime::from_secs(1));
        let mut fork = sim.fork().expect("listeners fork");
        for dst in [a, b] {
            fork.inject_frame(frame_to(dst));
        }
        fork.run_until(SimTime::from_secs(2));
        assert_eq!(std::mem::take(&mut *log.lock().unwrap()), [0, 2, 1]);
        for dst in [a, b] {
            sim.inject_frame(frame_to(dst));
        }
        sim.run_until(SimTime::from_secs(2));
        assert_eq!(*log.lock().unwrap(), [0, 2, 1]);
    }

    #[test]
    fn run_until_respects_deadline() {
        let mut sim = two_chatters();
        sim.run_until(SimTime::from_millis(100));
        assert_eq!(sim.now(), SimTime::from_millis(100));
        // Timers at t=1s have not fired yet.
        let c = sim.host(0).as_any().downcast_ref::<Chatter>().unwrap();
        assert!(!c.sent_on_timer);
        sim.run_until(SimTime::from_secs(2));
        let c = sim.host(0).as_any().downcast_ref::<Chatter>().unwrap();
        assert!(c.sent_on_timer);
    }
}
