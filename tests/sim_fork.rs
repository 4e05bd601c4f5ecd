//! `Simulation::fork` on real device stacks.
//!
//! A fork taken mid-run must continue exactly as the original does:
//! the same tapped frames, router state, internet observations and
//! device addresses, on both link layers and with the fault injector's
//! own RNG stream in use across the fork. A simulation that cannot be
//! copied faithfully must refuse to fork.

use std::net::{Ipv4Addr, Ipv6Addr};
use v6brick::devices::phone::Phone;
use v6brick::devices::registry;
use v6brick::devices::stack::IotDevice;
use v6brick::experiments::{scenario, NetworkConfig};
use v6brick::net::Mac;
use v6brick::pcap::Capture;
use v6brick::sim::{
    BorderRouter, Direction, FaultPlan, Host, Internet, Router, SimTime, Simulation,
    SimulationBuilder,
};

const DEVICES: [&str; 4] = [
    "google_home_mini",
    "echo_show_5",
    "samsung_fridge",
    "hue_hub",
];
const FORK_AT: SimTime = SimTime::from_secs(45);
const END: SimTime = SimTime::from_secs(120);

fn devices() -> Vec<Box<dyn Host>> {
    DEVICES
        .iter()
        .map(|id| Box::new(IotDevice::new(registry::by_id(id))) as Box<dyn Host>)
        .collect()
}

/// A dual-stack home with the buffered capture on, and frame loss and
/// corruption windows that are open when the fork is taken.
fn home(mesh: bool) -> SimulationBuilder {
    let profiles: Vec<_> = DEVICES.iter().map(|id| registry::by_id(id)).collect();
    let config = NetworkConfig::DualStack;
    let mut b = SimulationBuilder::new(
        Router::new(config.router_config()),
        Internet::new(scenario::build_zones(&profiles)),
    );
    if mesh {
        b.add_host(Box::new(BorderRouter::new(7, devices())));
    } else {
        for d in devices() {
            b.add_host(d);
        }
    }
    let plan = FaultPlan::new()
        .lan_loss(
            SimTime::from_secs(10),
            SimTime::from_secs(90),
            100,
            Direction::Both,
        )
        .lan_corrupt(SimTime::from_secs(15), SimTime::from_secs(90), 50);
    b.seed(0xf0_4c).faults(plan)
}

/// Everything observable about a finished run.
#[derive(Debug, PartialEq)]
struct Observed {
    lan: Capture,
    mesh: Option<Capture>,
    router_drops: (u64, u64),
    neighbors: Vec<(Ipv6Addr, Mac)>,
    leases: Vec<(Mac, Ipv4Addr)>,
    delivered: u64,
    lost: u64,
    corrupted: u64,
    tunnel_drops: u64,
    observed_v6: Vec<Ipv6Addr>,
    guas: Vec<Vec<(Ipv6Addr, &'static str)>>,
}

fn observe(sim: &Simulation) -> Observed {
    let mut mesh = None;
    let mut guas = Vec::new();
    let mut inventory = |host: &dyn Host| {
        let dev = host.as_any().downcast_ref::<IotDevice>().expect("a device");
        guas.push(dev.gua_inventory());
    };
    for id in 0..sim.host_count() {
        match sim.host(id).as_any().downcast_ref::<BorderRouter>() {
            Some(br) => {
                mesh = Some(br.mesh_capture().clone());
                (0..br.leaf_count()).for_each(|i| inventory(br.leaf(i)));
            }
            None => inventory(sim.host(id)),
        }
    }
    let router = sim.router();
    Observed {
        lan: sim.capture().clone(),
        mesh,
        router_drops: (router.dropped, router.wan_v6_filtered),
        neighbors: router.neighbor_table_v6(),
        leases: router.leases_v4(),
        delivered: sim.frames_delivered,
        lost: sim.frames_lost,
        corrupted: sim.frames_corrupted,
        tunnel_drops: sim.tunnel_drops,
        observed_v6: sim.internet().observed_v6_sources().copied().collect(),
        guas,
    }
}

fn fork_continues_like_the_original(mesh: bool) {
    let mut original = home(mesh).build();
    original.run_until(FORK_AT);
    let at_fork = observe(&original);
    let mut fork = original.fork().expect("device homes fork");
    assert_eq!(
        observe(&fork),
        at_fork,
        "the fork starts where the original is"
    );

    original.run_until(END);
    fork.run_until(END);
    let (a, b) = (observe(&original), observe(&fork));
    assert!(
        a.lan.len() > at_fork.lan.len(),
        "the run must go on after the fork"
    );
    let (lost, corrupted) = ((at_fork.lost, a.lost), (at_fork.corrupted, a.corrupted));
    assert!(
        lost.0 > 0 && lost.1 > lost.0 && corrupted.0 > 0 && corrupted.1 > corrupted.0,
        "loss {lost:?} and corruption {corrupted:?} must straddle the fork"
    );
    assert!(!a.observed_v6.is_empty());
    assert!(a.guas.iter().any(|g| !g.is_empty()));
    if mesh {
        let (before, after) = (at_fork.mesh.as_ref(), a.mesh.as_ref());
        assert!(after.unwrap().len() > before.unwrap().len());
    }
    // Not assert_eq!: the Debug form of two captures runs to megabytes.
    assert!(a == b, "the fork diverged from the original");
}

#[test]
fn ethernet_fork_continues_like_the_original() {
    fork_continues_like_the_original(false);
}

#[test]
fn mesh_fork_continues_like_the_original() {
    fork_continues_like_the_original(true);
}

#[test]
fn unforkable_simulations_refuse_to_fork() {
    let mut with_sink = home(false);
    with_sink.add_sink(Box::new(Capture::new()));
    assert!(with_sink.build().fork().is_none(), "sinks cannot be copied");

    let mut with_phone = home(false);
    with_phone.add_host(Box::new(Phone::pixel7()));
    let mut sim = with_phone.build();
    sim.run_until(SimTime::from_secs(1));
    assert!(sim.fork().is_none(), "the phone does not fork");
}
