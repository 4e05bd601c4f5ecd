//! Byte-level pins on DNS-heavy outputs.
//!
//! DNS is most of a fleet campaign's traffic and decides the paper's
//! AAAA-readiness tables, so a change to how messages are read or
//! written must keep every DNS byte. This file pins:
//!
//! * the serialized `PopulationReport` of a small fleet campaign with
//!   short windows (where DNS dominates the frames), at one and two
//!   workers;
//! * every tapped frame of the `dns-servfail` preset home, hashed like
//!   `capture_digest`'s pins;
//! * that this capture carries every answer shape the resolver writes:
//!   A, AAAA, NOERROR with an SOA, HTTPS, SVCB and SERVFAIL. (No
//!   simulation answers NXDOMAIN, CNAME, PTR or TXT; the codec's
//!   proptests cover those.)

use std::any::Any;
use v6brick::devices::phone::Phone;
use v6brick::devices::stack::IotDevice;
use v6brick::experiments::fleet::{self, CampaignSpec};
use v6brick::experiments::{broken, scenario, NetworkConfig};
use v6brick::net::dns::{Message, Rcode, Rdata, RecordType};
use v6brick::net::{ParsedPacket, L4};
use v6brick::sim::{FrameSink, Internet, Router, SimulationBuilder};

/// FNV-1a over serialized bytes.
fn fnv1a(bytes: &[u8]) -> u64 {
    bytes.iter().fold(0xcbf2_9ce4_8422_2325, |h, &b| {
        (h ^ u64::from(b)).wrapping_mul(0x100_0000_01b3)
    })
}

/// 64 homes of the default mix, 10 s windows.
fn campaign(workers: usize) -> CampaignSpec {
    CampaignSpec {
        homes: 64,
        workers,
        duration_s: 10,
        ..Default::default()
    }
}

/// (report bytes, FNV-1a) of [`campaign`] at any worker count.
const PINNED_REPORT: (usize, u64) = (1247, 0x4df4_f6e1_54d4_e5e4);

#[test]
fn short_window_campaign_report_is_pinned_at_one_and_two_workers() {
    for workers in [1, 2] {
        let report = fleet::run(&campaign(workers));
        assert!(report.failures.is_empty(), "{:?}", report.failures);
        let json = serde_json::to_string(&report).unwrap();
        let got = (json.len(), fnv1a(json.as_bytes()));
        assert_eq!(
            got, PINNED_REPORT,
            "fleet report bytes changed at {workers} worker(s): {} bytes, digest {:#018x}",
            got.0, got.1
        );
    }
}

/// DNS answers by shape.
#[derive(Debug, Default)]
struct Answers {
    a: u64,
    aaaa: u64,
    nodata_soa: u64,
    https: u64,
    svcb: u64,
    servfail: u64,
}

impl Answers {
    fn observe(&mut self, frame: &[u8]) {
        let Ok(p) = ParsedPacket::parse(frame) else {
            return;
        };
        let L4::Udp {
            src_port: 53,
            payload,
            ..
        } = &p.l4
        else {
            return;
        };
        let Ok(msg) = Message::parse_bytes(payload) else {
            return;
        };
        if !msg.is_response {
            return;
        }
        if msg.rcode == Rcode::ServFail {
            self.servfail += 1;
        }
        let soa = msg
            .authorities
            .iter()
            .any(|r| matches!(r.rdata, Rdata::Soa { .. }));
        if msg.rcode == Rcode::NoError && msg.answers.is_empty() && soa {
            self.nodata_soa += 1;
        }
        for r in &msg.answers {
            match r.rtype {
                RecordType::A => self.a += 1,
                RecordType::Aaaa => self.aaaa += 1,
                RecordType::Https => self.https += 1,
                RecordType::Svcb => self.svcb += 1,
                _ => {}
            }
        }
    }
}

/// A tap sink folding every frame into a running digest, as
/// `capture_digest` does, and counting DNS answer shapes.
struct DigestSink {
    hash: u64,
    frames: u64,
    answers: Answers,
}

impl DigestSink {
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
        self.answers.observe(frame);
    }

    fn into_any(self: Box<Self>) -> Box<dyn Any> {
        self
    }
}

/// The seed the `dns-servfail` home runs at.
const SEED: u64 = 1;

/// The `dns-servfail` preset home at [`SEED`], built as
/// `broken::run_preset` builds it, with the digest sink on its tap.
fn servfail_home() -> DigestSink {
    let profiles = broken::preset_profiles();
    let config = NetworkConfig::DualStack;
    let mut b = SimulationBuilder::new(
        Router::new(config.router_config()),
        Internet::new(scenario::build_zones(&profiles)),
    );
    for p in &profiles {
        b.add_host(Box::new(IotDevice::new(p.clone())));
    }
    b.add_host(Box::new(Phone::pixel7()));
    b.add_host(Box::new(Phone::iphone_x()));
    b.add_sink(Box::new(DigestSink {
        hash: 0x6b1c_d16e_57ca_97e5,
        frames: 0,
        answers: Answers::default(),
    }));
    let plan = broken::preset_plan("dns-servfail", SEED).expect("a known preset");
    let mut sim = b.seed(SEED ^ config as u64).faults(plan).build();
    sim.run_until(scenario::EXPERIMENT_DURATION);
    *sim.take_sinks()
        .pop()
        .expect("the digest sink was attached")
        .into_any()
        .downcast::<DigestSink>()
        .expect("the only sink is the digest")
}

/// (frames tapped, digest) of [`servfail_home`].
const PINNED_CAPTURE: (u64, u64) = (16_798, 0x5cc4_7d58_75e2_5d97);

#[test]
fn servfail_home_capture_is_pinned_and_covers_every_answer_shape() {
    let home = servfail_home();
    let report = broken::run_preset("dns-servfail", SEED).expect("a known preset");
    assert_eq!(
        home.frames, report.frames,
        "the digest must run the preset's home"
    );
    assert_eq!(
        (home.frames, home.hash),
        PINNED_CAPTURE,
        "dns-servfail capture changed: {} frames, digest {:#018x}",
        home.frames,
        home.hash
    );
    let a = &home.answers;
    assert!(
        [a.a, a.aaaa, a.nodata_soa, a.https, a.svcb, a.servfail]
            .iter()
            .all(|&n| n > 0),
        "the pinned capture lost an answer shape: {a:?}"
    );
}
