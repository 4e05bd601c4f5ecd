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
    /// Frames to transmit on the LAN (fully formed Ethernet bytes).
    pub frames: Vec<Vec<u8>>,
    /// Timers to arm: (delay from now, opaque token passed back).
    pub timers: Vec<(SimTime, u64)>,
    /// IPv4 packets to transmit on the WAN toward the Internet. Only the
    /// router produces these.
    pub wan: Vec<Vec<u8>>,
    /// Deterministic per-simulation randomness.
    pub rng: &'a mut StdRng,
    /// The run that ends each frame in `frames`, by index; frames past
    /// its end have none. Only the router attaches runs, when it carries
    /// a bulk reply from the WAN onto the LAN.
    pub(crate) runs: Vec<Run>,
}

impl<'a> Effects<'a> {
    /// Create an effects sink backed by the simulation RNG.
    pub fn new(rng: &'a mut StdRng) -> Effects<'a> {
        Effects {
            frames: Vec::new(),
            timers: Vec::new(),
            wan: Vec::new(),
            rng,
            runs: Vec::new(),
        }
    }

    /// Queue a frame for transmission.
    pub fn send_frame(&mut self, frame: Vec<u8>) {
        self.frames.push(frame);
    }

    /// Queue a frame that ends in `run`: the engine spells the run out
    /// behind `frame` wherever the frame is read.
    pub(crate) fn send_frame_with_run(&mut self, frame: Vec<u8>, run: Run) {
        self.runs.resize(self.frames.len(), Run::default());
        self.runs.push(run);
        self.frames.push(frame);
    }

    /// The run ending `frames[frame]`: empty unless the router carried a
    /// bulk reply from the WAN onto the LAN in that frame.
    pub fn run(&self, frame: usize) -> Run {
        self.runs.get(frame).copied().unwrap_or_default()
    }

    /// Arm a timer `delay` from now; `token` is returned to
    /// [`Host::on_timer`].
    pub fn set_timer(&mut self, delay: SimTime, token: u64) {
        self.timers.push((delay, token));
    }

    /// Queue an IPv4 packet for the WAN link (router only).
    pub fn send_wan(&mut self, packet: Vec<u8>) {
        self.wan.push(packet);
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
    /// broadcast, or any multicast. Hosts do their own multicast filtering.
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
