//! Receive-path fuzzing of a device model: `IotDevice::on_frame` must
//! never panic, whatever bytes arrive. Its multicast filter reads the
//! destination MAC before any parser has checked the frame, so frames are
//! cut down to nothing as well as bit-flipped.
//!
//! The corpus is the LAN capture of a small dual-stack home, and each case
//! goes to a copy of one of its devices as it stands after that run:
//! addressed, with its names resolved and its clouds reached.

use proptest::prelude::*;
use rand::rngs::StdRng;
use rand::SeedableRng;
use std::sync::OnceLock;
use v6brick_devices::{registry, IotDevice};
use v6brick_sim::event::SimTime;
use v6brick_sim::host::{Effects, Host};
use v6brick_sim::internet::{DomainProfile, Internet, ZoneDb};
use v6brick_sim::router::{Router, RouterConfig};
use v6brick_sim::SimulationBuilder;

/// The home's devices; the first is the one fed the cases.
const DEVICES: &[&str] = &["google_home_mini", "echo_show_5", "samsung_tv"];

/// How long the home runs: past boot, DNS and the first connections.
const RUN: SimTime = SimTime::from_secs(60);

struct Corpus {
    device: IotDevice,
    frames: Vec<Vec<u8>>,
}

fn corpus() -> &'static Corpus {
    static CORPUS: OnceLock<Corpus> = OnceLock::new();
    CORPUS.get_or_init(|| {
        let profiles: Vec<_> = DEVICES.iter().map(|id| registry::by_id(id)).collect();
        let mut zones = ZoneDb::new();
        for d in profiles.iter().flat_map(|p| &p.app.destinations) {
            zones.insert(if d.aaaa_ready {
                DomainProfile::dual_stack(d.domain.clone())
            } else {
                DomainProfile::v4_only(d.domain.clone())
            });
        }
        let mut b = SimulationBuilder::new(
            Router::new(RouterConfig::dual_stack()),
            Internet::new(zones),
        );
        for p in &profiles {
            b.add_host(Box::new(IotDevice::new(p.clone())));
        }
        let mut sim = b.seed(7).build();
        sim.run_until(RUN);
        let device = sim
            .host(0)
            .as_any()
            .downcast_ref::<IotDevice>()
            .expect("host 0 is a device")
            .clone();
        let frames = sim.capture().iter().map(|p| p.data.to_vec()).collect();
        Corpus { device, frames }
    })
}

/// Hand `frame` to a copy of the device.
fn feed(frame: &[u8]) {
    let mut device = corpus().device.clone();
    let mut rng = StdRng::seed_from_u64(7);
    let mut fx = Effects::new(&mut rng);
    device.on_frame(RUN, frame, &mut fx);
}

#[test]
fn the_device_is_booted_and_the_corpus_is_varied() {
    let c = corpus();
    assert!(c.device.v6_addresses().len() >= 2, "LLA and a GUA");
    assert!(c.device.is_functional(), "every required cloud reached");
    assert!(c.frames.len() > 500, "{} frames", c.frames.len());
    let multicast = c.frames.iter().filter(|f| f[0] & 1 != 0).count();
    assert!(multicast > 0 && multicast < c.frames.len());
}

#[test]
fn every_prefix_of_a_captured_frame_is_survived() {
    for frame in corpus().frames.iter().step_by(25) {
        for len in 0..=frame.len() {
            feed(&frame[..len]);
        }
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(512))]

    #[test]
    fn flipped_and_cut_frames_never_panic(
        pick in any::<usize>(),
        flips in proptest::collection::vec((any::<usize>(), 0u8..8), 0..6),
        cut in any::<usize>(),
        keep_whole in any::<bool>(),
    ) {
        let frames = &corpus().frames;
        let mut frame = frames[pick % frames.len()].clone();
        for (at, bit) in flips {
            let i = at % frame.len();
            frame[i] ^= 1 << bit;
        }
        if !keep_whole {
            frame.truncate(cut % (frame.len() + 1));
        }
        feed(&frame);
    }
}
