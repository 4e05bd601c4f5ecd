//! Once a simulation has warmed up, the trip of a frame that its host
//! builds with `sim::wire` from borrowed bytes allocates nothing: the
//! engine reuses one set of effect lists, and the frame takes the buffer
//! an earlier frame gave back after delivery. So does a frame's crossing
//! of a 6LoWPAN border router, either way, when the datagram is too long
//! for the air: the border router reuses its own lists and copy buffer,
//! and forwards a leaf's run unspelled.
//!
//! A counting global allocator counts the allocations made on the calling
//! thread while a closure runs.

use std::alloc::{GlobalAlloc, Layout, System};
use std::any::Any;
use std::cell::Cell;
use std::net::Ipv6Addr;
use v6brick_net::ethernet::EtherType;
use v6brick_net::{icmpv6, tcp, Mac, Run};
use v6brick_sim::event::SimTime;
use v6brick_sim::host::{Effects, Host};
use v6brick_sim::internet::{Internet, ZoneDb};
use v6brick_sim::router::{Router, RouterConfig};
use v6brick_sim::{addrs, wire, BorderRouter, Simulation, SimulationBuilder};

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

/// A host that answers every frame with the one `frame` builds from its
/// MAC to `peer`'s; the one that `serves` sends the first at start.
struct Bouncer {
    mac: Mac,
    peer: Mac,
    serves: bool,
    frame: fn(Mac, Mac) -> Vec<u8>,
}

impl Bouncer {
    fn bounce(&self, fx: &mut Effects) {
        fx.send_frame((self.frame)(self.mac, self.peer));
    }
}

fn plain_frame(src: Mac, dst: Mac) -> Vec<u8> {
    wire::eth_frame(src, dst, EtherType::Other(0x88b5), b"bounce")
}

/// An echo request between the two MACs' link-local addresses.
fn echo_frame(src: Mac, dst: Mac) -> Vec<u8> {
    let lla = |mac: Mac| mac.slaac_address(Ipv6Addr::new(0xfe80, 0, 0, 0, 0, 0, 0, 0));
    let echo = icmpv6::Repr::EchoRequest {
        ident: 7,
        seq: 1,
        payload: Vec::new(),
    };
    wire::icmpv6_frame(src, dst, lla(src), lla(dst), &echo)
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

/// Two bouncers of `frame`s on an IPv4-only LAN (a router with no
/// timers), the tap buffering nothing.
fn bouncers(frame: fn(Mac, Mac) -> Vec<u8>) -> Simulation {
    let (a, b) = (Mac::new(2, 0, 0, 0, 0, 1), Mac::new(2, 0, 0, 0, 0, 2));
    let mut builder = SimulationBuilder::new(
        Router::new(RouterConfig::ipv4_only()),
        Internet::new(ZoneDb::new()),
    );
    builder.add_host(Box::new(Bouncer {
        mac: a,
        peer: b,
        serves: true,
        frame,
    }));
    builder.add_host(Box::new(Bouncer {
        mac: b,
        peer: a,
        serves: false,
        frame,
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

/// Warm `sim` up over 100 frames; then the allocations over 1,000
/// frames and over 10,000, each frame `frames_per` LAN frames.
fn bound(sim: &mut Simulation, frames_per: u64) -> (usize, usize) {
    run_frames(sim, 100 * frames_per);
    let short = run_frames(sim, 1_000 * frames_per);
    let long = run_frames(sim, 10_000 * frames_per);
    (short, long)
}

#[test]
fn unicast_frames_cost_no_allocation_after_warm_up() {
    let (short, long) = bound(&mut bouncers(plain_frame), 1);
    assert!(
        long <= short,
        "{short} allocations over 1,000 frames, {long} over 10,000"
    );
}

#[test]
fn echo_requests_cost_no_allocation_after_warm_up() {
    let (short, long) = bound(&mut bouncers(echo_frame), 1);
    assert!(
        long <= short,
        "{short} allocations over 1,000 echo requests, {long} over 10,000"
    );
}

const LEAF_MAC: Mac = Mac::new(2, 0, 0, 0, 0xee, 1);
const PEER_MAC: Mac = Mac::new(2, 0, 0, 0, 0, 9);
const LEAF_GUA: Ipv6Addr = Ipv6Addr::new(0x2001, 0xdb8, 0x10, 1, 0, 0, 0xee, 1);
const PEER_GUA: Ipv6Addr = Ipv6Addr::new(0x2001, 0xdb8, 0x10, 1, 0, 0, 0, 9);

/// A TCP segment from `src` to `dst` ending in `run`.
fn segment_with_run(src: (Mac, Ipv6Addr), dst: (Mac, Ipv6Addr), run: Run) -> Vec<u8> {
    let seg = tcp::Repr {
        src_port: 40_000,
        dst_port: 443,
        seq: 1,
        ack: 1,
        flags: tcp::Flags::PSH | tcp::Flags::ACK,
        window: 0xffff,
        payload: Vec::new(),
    };
    wire::tcp6_frame_with_run(src.0, dst.0, src.1, dst.1, &seg, run)
}

/// A mesh leaf and a LAN host that answer each other: the leaf sends an
/// upload ending in 12 KB of TLS padding, too long for the air, to the
/// LAN host, which answers with a 2 KB segment to the leaf's address
/// through the border router.
struct MeshPeer {
    leaf: bool,
}

impl MeshPeer {
    fn send(&self, fx: &mut Effects) {
        let (frame, run) = if self.leaf {
            let run = Run::tls_padding(12_000);
            (
                segment_with_run((LEAF_MAC, LEAF_GUA), (PEER_MAC, PEER_GUA), run),
                run,
            )
        } else {
            let to = (addrs::BORDER_ROUTER_MAC, LEAF_GUA);
            let run = Run::new(0x17, 2_048);
            (segment_with_run((PEER_MAC, PEER_GUA), to, run), run)
        };
        fx.send_frame_with_run(frame, run);
    }
}

impl Host for MeshPeer {
    fn mac(&self) -> Mac {
        if self.leaf {
            LEAF_MAC
        } else {
            PEER_MAC
        }
    }
    fn on_start(&mut self, _now: SimTime, fx: &mut Effects) {
        if self.leaf {
            self.send(fx);
        }
    }
    fn on_frame(&mut self, _now: SimTime, _frame: &[u8], fx: &mut Effects) {
        self.send(fx);
    }
    fn on_timer(&mut self, _now: SimTime, _token: u64, _fx: &mut Effects) {}
    fn as_any(&self) -> &dyn Any {
        self
    }
    fn as_any_mut(&mut self) -> &mut dyn Any {
        self
    }
}

#[test]
fn mesh_crossings_cost_no_allocation_after_warm_up() {
    let mut builder = SimulationBuilder::new(
        Router::new(RouterConfig::ipv4_only()),
        Internet::new(ZoneDb::new()),
    );
    let leaf = Box::new(MeshPeer { leaf: true });
    builder.add_host(Box::new(
        BorderRouter::new(1, vec![leaf]).mesh_capture_enabled(false),
    ));
    builder.add_host(Box::new(MeshPeer { leaf: false }));
    let mut sim = builder.capture(false).build();
    // Each crossing up is answered by one down: two LAN frames a round.
    let (short, long) = bound(&mut sim, 2);
    let br = sim.host(0).as_any().downcast_ref::<BorderRouter>().unwrap();
    assert_eq!(br.forwarded_down, 11_100);
    // The leaf's answer to the last crossing down is still queued.
    assert_eq!(br.forwarded_up, 11_101);
    assert_eq!(br.mesh_frames, 0, "every datagram is too long for the air");
    assert!(
        long <= short,
        "{short} allocations over 1,000 crossings each way, {long} over 10,000"
    );
}
