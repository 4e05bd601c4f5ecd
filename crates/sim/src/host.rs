//! The host abstraction: anything with a MAC address on the simulated LAN.

use crate::event::SimTime;
use rand::rngs::StdRng;
use std::any::Any;
use v6brick_net::{Mac, Run};

/// Index of a host within the simulation's host table.
pub type HostId = usize;

/// The side effects a host may produce while handling an event. The engine
/// drains these after each callback, which keeps host code free of engine
/// borrows.
pub struct Effects<'a> {
    /// Frames to transmit on the LAN (fully formed Ethernet bytes, up to
    /// the run each may end in).
    pub frames: Vec<Vec<u8>>,
    /// Timers to arm: (delay from now, opaque token passed back).
    pub timers: Vec<(SimTime, u64)>,
    /// IPv4 packets to transmit on the WAN toward the Internet, up to the
    /// run each may end in. Only the router produces these.
    pub wan: Vec<Vec<u8>>,
    /// Deterministic per-simulation randomness.
    pub rng: &'a mut StdRng,
    /// The run ending each frame in `frames`. A host ends a frame in a
    /// run when it sends a bulk payload (a device's telemetry upload);
    /// the router does when it carries one across.
    pub(crate) runs: Runs,
    /// The run ending each packet in `wan`.
    pub(crate) wan_runs: Runs,
}

/// The runs ending the packets of one list, by index. Packets past its
/// end have none, so a list without runs costs no allocation.
#[derive(Debug, Default)]
pub(crate) struct Runs(Vec<Run>);

impl Runs {
    /// Record that the packet at `index` ends in `run`.
    fn set(&mut self, index: usize, run: Run) {
        if !run.is_empty() {
            self.0.resize(index, Run::default());
            self.0.push(run);
        }
    }

    /// The run ending the packet at `index`.
    pub(crate) fn get(&self, index: usize) -> Run {
        self.0.get(index).copied().unwrap_or_default()
    }

    /// Forget every run, keeping the memory.
    pub(crate) fn clear(&mut self) {
        self.0.clear();
    }
}

/// The lists an [`Effects`] fills, apart from its RNG. The engine keeps
/// one set between events, and a border router one for its leaves; each
/// empties it after each callback, so callbacks reuse the lists' memory
/// instead of allocating their own.
#[derive(Debug, Default)]
pub(crate) struct Lists {
    pub(crate) frames: Vec<Vec<u8>>,
    pub(crate) timers: Vec<(SimTime, u64)>,
    wan: Vec<Vec<u8>>,
    pub(crate) runs: Runs,
    wan_runs: Runs,
}

impl Lists {
    /// An effects sink that fills these lists, which must be empty. It
    /// holds them until [`Effects::into_lists`] gives them back.
    pub(crate) fn effects<'a>(&mut self, rng: &'a mut StdRng) -> Effects<'a> {
        let Lists {
            frames,
            timers,
            wan,
            runs,
            wan_runs,
        } = std::mem::take(self);
        Effects {
            frames,
            timers,
            wan,
            rng,
            runs,
            wan_runs,
        }
    }
}

impl<'a> Effects<'a> {
    /// Create an effects sink backed by the simulation RNG.
    pub fn new(rng: &'a mut StdRng) -> Effects<'a> {
        Lists::default().effects(rng)
    }

    /// Forget every run, keeping the memory.
    pub(crate) fn clear_runs(&mut self) {
        self.runs.clear();
        self.wan_runs.clear();
    }

    /// The lists, without the RNG.
    pub(crate) fn into_lists(self) -> Lists {
        Lists {
            frames: self.frames,
            timers: self.timers,
            wan: self.wan,
            runs: self.runs,
            wan_runs: self.wan_runs,
        }
    }

    /// Queue a frame for transmission.
    pub fn send_frame(&mut self, frame: Vec<u8>) {
        self.frames.push(frame);
    }

    /// Queue a frame that ends in `run`: the engine spells the run out
    /// behind `frame` for the tap and the hosts, and hands the router the
    /// frame unspelled. Every length field in `frame` counts the run.
    /// Only a transport payload the router forwards may end in a run: it
    /// reads the messages it answers itself (ARP, DHCP, NDP) from `frame`
    /// alone. A border router forwards a leaf's frame onto the LAN with
    /// the run the leaf ended it in.
    pub fn send_frame_with_run(&mut self, frame: Vec<u8>, run: Run) {
        self.runs.set(self.frames.len(), run);
        self.frames.push(frame);
    }

    /// The run ending `frames[frame]` (empty for most frames).
    pub fn run(&self, frame: usize) -> Run {
        self.runs.get(frame)
    }

    /// Arm a timer `delay` from now; `token` is returned to
    /// [`Host::on_timer`].
    pub fn set_timer(&mut self, delay: SimTime, token: u64) {
        self.timers.push((delay, token));
    }

    /// Queue an IPv4 packet for the WAN link, ending in `run` (router
    /// only).
    pub(crate) fn send_wan(&mut self, packet: Vec<u8>, run: Run) {
        self.wan_runs.set(self.wan.len(), run);
        self.wan.push(packet);
    }

    /// The run ending `wan[packet]` (empty for most packets).
    pub fn wan_run(&self, packet: usize) -> Run {
        self.wan_runs.get(packet)
    }
}

/// A participant on the LAN. Implemented by the IoT device models, the
/// verification phones, and the port-scanner host; the router has its own
/// slot in the engine.
///
/// `Send` is a supertrait so whole simulations (and their boxed hosts)
/// can move between worker threads: the fleet campaign runner builds
/// and runs one `Simulation` per home on a thread pool.
pub trait Host: Any + Send {
    /// This host's MAC address (its identity for capture attribution).
    /// It never changes: the engine reads it once, when the simulation
    /// is built, and filters every frame against that copy.
    fn mac(&self) -> Mac;

    /// Called once when the simulation starts (the "power on" moment).
    fn on_start(&mut self, now: SimTime, fx: &mut Effects);

    /// Called for every LAN frame this host would see: unicast to its MAC,
    /// broadcast, or any multicast. Hosts do their own multicast filtering:
    /// a device model (`IotDevice`) listens to broadcast, all-nodes
    /// (`33:33:00:00:00:01`) and the solicited-node groups of its own IPv6
    /// addresses, and drops any other group before parsing the frame.
    fn on_frame(&mut self, now: SimTime, frame: &[u8], fx: &mut Effects);

    /// Called when a timer armed via [`Effects::set_timer`] fires.
    fn on_timer(&mut self, now: SimTime, token: u64, fx: &mut Effects);

    /// An independent copy of this host in its current state, for
    /// [`Simulation::fork`](crate::engine::Simulation::fork). Fed the
    /// same events, the copy must behave exactly like the original.
    /// Hosts that cannot promise that keep the default, `None`, which
    /// makes the whole simulation unforkable.
    fn fork(&self) -> Option<Box<dyn Host>> {
        None
    }

    /// Downcasting support, so experiment code can query concrete device
    /// state after a run.
    fn as_any(&self) -> &dyn Any;
    /// Mutable downcasting support.
    fn as_any_mut(&mut self) -> &mut dyn Any;
}

/// Should a host with `mac` see a frame addressed to `dst`?
pub fn frame_addressed_to(dst: Mac, mac: Mac) -> bool {
    dst == mac || dst.is_multicast()
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn addressing_rules() {
        let me = Mac::new(2, 0, 0, 0, 0, 5);
        assert!(frame_addressed_to(me, me));
        assert!(frame_addressed_to(Mac::BROADCAST, me));
        assert!(frame_addressed_to(Mac::new(0x33, 0x33, 0, 0, 0, 1), me));
        assert!(!frame_addressed_to(Mac::new(2, 0, 0, 0, 0, 6), me));
    }
}
