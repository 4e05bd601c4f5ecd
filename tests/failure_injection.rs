//! Failure injection: the measurement conclusions must survive a hostile
//! wire — random frame loss, and junk frames injected into the LAN.

use v6brick::core::observe;
use v6brick::devices::phone::Phone;
use v6brick::devices::registry;
use v6brick::devices::stack::IotDevice;
use v6brick::experiments::{scenario, NetworkConfig};
use v6brick::net::Mac;
use v6brick::sim::{Direction, FaultPlan, Internet, Router, SimTime, SimulationBuilder};

fn run_lossy(
    config: NetworkConfig,
    ids: &[&str],
    loss_per_mille: u32,
    junk: bool,
) -> (Vec<(String, bool)>, observe::ExperimentAnalysis, u64) {
    let profiles: Vec<_> = ids.iter().map(|id| registry::by_id(id)).collect();
    let zones = scenario::build_zones(&profiles);
    let mut b = SimulationBuilder::new(Router::new(config.router_config()), Internet::new(zones));
    let mut handles = Vec::new();
    for p in &profiles {
        let h = b.add_host(Box::new(IotDevice::new(p.clone())));
        handles.push((h, p.id.clone(), p.mac));
    }
    b.add_host(Box::new(Phone::pixel7()));
    // Loss over the whole run, both ways.
    let loss = FaultPlan::new().lan_loss(
        SimTime::ZERO,
        SimTime(u64::MAX),
        loss_per_mille,
        Direction::Both,
    );
    let mut sim = b.faults(loss).seed(0xbad).build();

    if junk {
        // Inject garbage: truncated frames, wrong ethertypes, corrupted
        // IPv6 headers, zero-length frames. Nothing may panic, and the
        // devices must shrug it off.
        sim.run_until(SimTime::from_secs(5));
        sim.inject_frame(vec![]);
        sim.inject_frame(vec![0xff; 5]);
        sim.inject_frame(vec![0xff; 14]); // header only, bogus ethertype
        let mut bad_v6 = vec![0u8; 54];
        bad_v6[12] = 0x86;
        bad_v6[13] = 0xdd;
        bad_v6[14] = 0x90; // version 9
        sim.inject_frame(bad_v6);
        let mut short_v6 = vec![0u8; 20];
        short_v6[12] = 0x86;
        short_v6[13] = 0xdd;
        sim.inject_frame(short_v6);
    }

    sim.run_until(scenario::EXPERIMENT_DURATION);
    let functional: Vec<(String, bool)> = handles
        .iter()
        .map(|(h, id, _)| {
            let d = sim.host(*h).as_any().downcast_ref::<IotDevice>().unwrap();
            (id.clone(), d.is_functional())
        })
        .collect();
    let lost = sim.frames_lost;
    let capture = sim.take_capture();
    let macs: Vec<(Mac, String)> = handles.iter().map(|(_, id, m)| (*m, id.clone())).collect();
    let analysis = observe::analyze(&capture, &macs, scenario::lan_prefix());
    (functional, analysis, lost)
}

const HOUSEHOLD: &[&str] = &[
    "google_home_mini",
    "apple_tv",
    "echo_show_5",
    "hue_hub",
    "samsung_fridge",
];

#[test]
fn junk_frames_do_not_disturb_anything() {
    let (functional, analysis, _) = run_lossy(NetworkConfig::DualStack, HOUSEHOLD, 0, true);
    for (id, ok) in &functional {
        assert!(ok, "{id} functional despite junk on the wire");
    }
    // The junk is captured but attributed to nobody.
    assert!(analysis.unattributed_frames >= 2);
}

#[test]
fn moderate_loss_is_absorbed_by_retries() {
    // 3% frame loss: DHCP retries, DNS retries with backoff, and TCP SYN
    // retries keep every device functional.
    let (functional, analysis, lost) = run_lossy(NetworkConfig::DualStack, HOUSEHOLD, 30, false);
    assert!(lost > 0, "the injector must actually drop frames");
    for (id, ok) in &functional {
        assert!(ok, "{id} must survive 3% loss");
    }
    // And the headline observations still hold for the v6-capable ones.
    let ghm = analysis.device("google_home_mini").unwrap();
    assert!(ghm.ndp_traffic && ghm.dns_over_v6());
}

#[test]
fn functional_verdicts_stable_in_ipv6_only_under_loss() {
    let (functional, _, lost) = run_lossy(NetworkConfig::Ipv6Only, HOUSEHOLD, 30, false);
    assert!(lost > 0);
    let verdict: std::collections::BTreeMap<_, _> = functional.into_iter().collect();
    // Exactly the devices that are functional on a clean wire.
    assert!(verdict["google_home_mini"]);
    assert!(verdict["apple_tv"]);
    assert!(!verdict["echo_show_5"]);
    assert!(!verdict["hue_hub"]);
    assert!(!verdict["samsung_fridge"]);
}

#[test]
fn heavy_loss_degrades_but_never_panics() {
    // 25% loss: no guarantees about functionality, but no crashes and the
    // analysis pipeline still runs over whatever was captured.
    let (_, analysis, lost) = run_lossy(NetworkConfig::DualStack, HOUSEHOLD, 250, false);
    assert!(lost > 100);
    assert!(analysis.frames > 0);
}
