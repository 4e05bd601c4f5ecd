//! Once a simulation has warmed up, the trip of a frame that its host
//! builds with `sim::wire` from borrowed bytes allocates nothing: the
//! engine reuses one set of effect lists, and the frame takes the buffer
//! an earlier frame gave back after delivery.
//!
//! A counting global allocator counts the allocations made on the calling
//! thread while a closure runs.

use std::alloc::{GlobalAlloc, Layout, System};
use std::any::Any;
use std::cell::Cell;
use v6brick_net::ethernet::EtherType;
use v6brick_net::Mac;
use v6brick_sim::event::SimTime;
use v6brick_sim::host::{Effects, Host};
use v6brick_sim::internet::{Internet, ZoneDb};
use v6brick_sim::router::{Router, RouterConfig};
use v6brick_sim::{addrs, wire, Simulation, SimulationBuilder};

struct Counting;

thread_local! {
    static COUNTING: Cell<bool> = const { Cell::new(false) };
    static ALLOCATIONS: Cell<usize> = const { Cell::new(0) };
}

fn note() {
    if COUNTING.with(Cell::get) {
        ALLOCATIONS.with(|n| n.set(n.get() + 1));
    }
}

unsafe impl GlobalAlloc for Counting {
    unsafe fn alloc(&self, layout: Layout) -> *mut u8 {
        note();
        System.alloc(layout)
    }

    unsafe fn alloc_zeroed(&self, layout: Layout) -> *mut u8 {
        note();
        System.alloc_zeroed(layout)
    }

    unsafe fn realloc(&self, ptr: *mut u8, layout: Layout, new_size: usize) -> *mut u8 {
        note();
        System.realloc(ptr, layout, new_size)
    }

    unsafe fn dealloc(&self, ptr: *mut u8, layout: Layout) {
        System.dealloc(ptr, layout)
    }
}

#[global_allocator]
static ALLOC: Counting = Counting;

/// Allocations made on this thread while `f` runs.
fn allocations(f: impl FnOnce()) -> usize {
    ALLOCATIONS.with(|n| n.set(0));
    COUNTING.with(|c| c.set(true));
    f();
    COUNTING.with(|c| c.set(false));
    ALLOCATIONS.with(Cell::get)
}

/// A host that answers every frame with one to `peer`; the one that
/// `serves` sends the first at start.
struct Bouncer {
    mac: Mac,
    peer: Mac,
    serves: bool,
}

impl Bouncer {
    fn bounce(&self, fx: &mut Effects) {
        fx.send_frame(wire::eth_frame(
            self.mac,
            self.peer,
            EtherType::Other(0x88b5),
            b"bounce",
        ));
    }
}

impl Host for Bouncer {
    fn mac(&self) -> Mac {
        self.mac
    }
    fn on_start(&mut self, _now: SimTime, fx: &mut Effects) {
        if self.serves {
            self.bounce(fx);
        }
    }
    fn on_frame(&mut self, _now: SimTime, _frame: &[u8], fx: &mut Effects) {
        self.bounce(fx);
    }
    fn on_timer(&mut self, _now: SimTime, _token: u64, _fx: &mut Effects) {}
    fn as_any(&self) -> &dyn Any {
        self
    }
    fn as_any_mut(&mut self) -> &mut dyn Any {
        self
    }
}

/// Two bouncers on an IPv4-only LAN (a router with no timers), the tap
/// buffering nothing.
fn bouncers() -> Simulation {
    let (a, b) = (Mac::new(2, 0, 0, 0, 0, 1), Mac::new(2, 0, 0, 0, 0, 2));
    let mut builder = SimulationBuilder::new(
        Router::new(RouterConfig::ipv4_only()),
        Internet::new(ZoneDb::new()),
    );
    builder.add_host(Box::new(Bouncer {
        mac: a,
        peer: b,
        serves: true,
    }));
    builder.add_host(Box::new(Bouncer {
        mac: b,
        peer: a,
        serves: false,
    }));
    builder.capture(false).build()
}

/// Run `sim` on for `frames` more frames; return the allocations made.
fn run_frames(sim: &mut Simulation, frames: u64) -> usize {
    let before = sim.frames_delivered;
    let deadline = sim.now() + SimTime(frames * addrs::LAN_DELAY_US);
    let n = allocations(|| sim.run_until(deadline));
    assert_eq!(sim.frames_delivered - before, frames);
    n
}

#[test]
fn unicast_frames_cost_no_allocation_after_warm_up() {
    let mut sim = bouncers();
    run_frames(&mut sim, 100);
    let short = run_frames(&mut sim, 1_000);
    let long = run_frames(&mut sim, 10_000);
    assert!(
        long <= short,
        "{short} allocations over 1,000 frames, {long} over 10,000"
    );
}
