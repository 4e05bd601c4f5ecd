//! Receive-path fuzzing of the 6LoWPAN border router, on both of its
//! sides: it must never panic, whatever bytes arrive.
//!
//! LAN side: the corpus is the LAN capture of a small mesh home (two
//! scripted leaves that solicit the router, resolve a name, open a
//! connection to a cloud and upload to it, behind a dual-stack router),
//! and each case, a capture frame bit-flipped or cut short down to
//! nothing, goes to a copy of the home's border router as it stands after
//! that run, with its return routes learned.
//!
//! Leaf side: a scripted leaf sends a frame that ends in a run, with an
//! IPv6 payload length shorter than, equal to or longer than its head and
//! run hold, or with its head cut short, and then an NDP message. A
//! transport frame that crosses must spell out to the leaf's frame
//! spelled out with the border router's MAC as its Ethernet source.

use proptest::prelude::*;
use rand::rngs::StdRng;
use rand::SeedableRng;
use std::any::Any;
use std::net::Ipv6Addr;
use std::sync::{Mutex, OnceLock};
use v6brick_net::dns::{Name, RecordType, Writer};
use v6brick_net::parse::{ParsedPacket, L4};
use v6brick_net::{icmpv6, ndp, tcp, Mac, Run};
use v6brick_sim::event::SimTime;
use v6brick_sim::host::{Effects, Host};
use v6brick_sim::internet::{derive_addrs, DomainProfile, Internet, ZoneDb};
use v6brick_sim::router::{Router, RouterConfig};
use v6brick_sim::{addrs, wire, BorderRouter, SimulationBuilder};

/// A scripted leaf: sends `outbox` at start, each frame with its run,
/// and answers nothing.
#[derive(Clone)]
struct Leaf {
    mac: Mac,
    outbox: Vec<(Vec<u8>, Run)>,
}

impl Host for Leaf {
    fn mac(&self) -> Mac {
        self.mac
    }
    fn on_start(&mut self, _now: SimTime, fx: &mut Effects) {
        for (frame, run) in self.outbox.drain(..) {
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

const CLOUD: &str = "cloud.example.com";

/// Where a frame's IPv6 header starts: behind the Ethernet header.
const IP: usize = v6brick_net::ethernet::HEADER_LEN;

fn leaf_mac(n: u8) -> Mac {
    Mac::new(2, 0, 0, 0, 0xee, n)
}

fn gua(mac: Mac) -> Ipv6Addr {
    mac.slaac_address(addrs::LAN_PREFIX)
}

fn lla(mac: Mac) -> Ipv6Addr {
    mac.slaac_address(Ipv6Addr::new(0xfe80, 0, 0, 0, 0, 0, 0, 0))
}

fn cloud6() -> Ipv6Addr {
    derive_addrs(&Name::new(CLOUD).unwrap()).1
}

/// A leaf's router solicitation, its link-layer address attached.
fn router_solicit(mac: Mac) -> Vec<u8> {
    let all_routers: Ipv6Addr = "ff02::2".parse().unwrap();
    wire::icmpv6_frame(
        mac,
        Mac::for_ipv6_multicast(all_routers),
        lla(mac),
        all_routers,
        &icmpv6::Repr::Ndp(ndp::Repr::RouterSolicit {
            options: vec![ndp::NdpOption::SourceLinkLayerAddr(mac)],
        }),
    )
}

/// A TCP segment from leaf `mac` to the cloud: `payload` in the head,
/// then `run`.
fn upload(mac: Mac, flags: tcp::Flags, payload: &[u8], run: Run) -> Vec<u8> {
    let seg = tcp::Repr {
        src_port: 40_000,
        dst_port: 443,
        seq: 1,
        ack: 1,
        flags,
        window: 0xffff,
        payload: payload.to_vec(),
    };
    wire::tcp6_frame_with_run(mac, addrs::ROUTER_MAC, gua(mac), cloud6(), &seg, run)
}

/// What one corpus leaf sends at start.
fn corpus_leaf(n: u8) -> Leaf {
    let mac = leaf_mac(n);
    let query = Writer::query(u16::from(n), CLOUD, RecordType::Aaaa);
    let dns = wire::udp6_frame(
        mac,
        addrs::ROUTER_MAC,
        gua(mac),
        addrs::DNS6_PRIMARY,
        5_000,
        53,
        query,
    );
    let syn = wire::tcp6_frame(
        mac,
        addrs::ROUTER_MAC,
        gua(mac),
        cloud6(),
        &tcp::Repr::syn(40_000, 443, 1),
    );
    let padding = Run::tls_padding(3_000);
    let data = upload(mac, tcp::Flags::PSH | tcp::Flags::ACK, b"hello", padding);
    Leaf {
        mac,
        outbox: vec![
            (router_solicit(mac), Run::default()),
            (dns, Run::default()),
            (syn, Run::default()),
            (data, padding),
        ],
    }
}

struct Corpus {
    /// The home's border router after the run.
    border_router: Mutex<Box<dyn Host>>,
    /// The LAN capture.
    frames: Vec<Vec<u8>>,
}

fn corpus() -> &'static Corpus {
    static CORPUS: OnceLock<Corpus> = OnceLock::new();
    CORPUS.get_or_init(|| {
        let mut zones = ZoneDb::new();
        zones.insert(DomainProfile::dual_stack(Name::new(CLOUD).unwrap()));
        let mut b = SimulationBuilder::new(
            Router::new(RouterConfig::dual_stack()),
            Internet::new(zones),
        );
        let leaves: Vec<Box<dyn Host>> = vec![Box::new(corpus_leaf(1)), Box::new(corpus_leaf(2))];
        b.add_host(Box::new(BorderRouter::new(7, leaves)));
        let mut sim = b.seed(7).build();
        sim.run_until(SimTime::from_secs(2));
        let br = sim.host(0).as_any().downcast_ref::<BorderRouter>().unwrap();
        // The run exercised both directions: uploads went out, and the
        // router's answers and the cloud's replies came back to leaves.
        assert_eq!(br.forwarded_up, 8);
        assert!(br.forwarded_down >= 8, "{} down", br.forwarded_down);
        let frames = sim.capture().iter().map(|p| p.data.to_vec()).collect();
        Corpus {
            border_router: Mutex::new(sim.host(0).fork().expect("leaves fork")),
            frames,
        }
    })
}

/// Hand `frame` to a copy of the corpus home's border router.
fn feed(frame: &[u8]) {
    let mut br = corpus().border_router.lock().unwrap().fork().unwrap();
    let mut rng = StdRng::seed_from_u64(7);
    let mut fx = Effects::new(&mut rng);
    br.on_frame(SimTime::from_secs(3), frame, &mut fx);
}

#[test]
fn lan_frames_cut_short_never_panic() {
    for frame in &corpus().frames {
        let len = frame.len();
        for cut in [
            0,
            1,
            6,
            12,
            13,
            14,
            15,
            20,
            53,
            54,
            55,
            60,
            61,
            73,
            74,
            len / 2,
            len - 1,
        ] {
            feed(&frame[..cut.min(len)]);
        }
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(512))]

    #[test]
    fn lan_frames_bit_flipped_and_cut_never_panic(
        pick in any::<usize>(),
        flips in proptest::collection::vec((any::<usize>(), 1u8..=255), 1..4),
        cut in any::<usize>(),
        whole in any::<bool>(),
    ) {
        let frames = &corpus().frames;
        let mut frame = frames[pick % frames.len()].clone();
        for (at, mask) in flips {
            let i = at % frame.len();
            frame[i] ^= mask;
        }
        if !whole {
            frame.truncate(cut % (frame.len() + 1));
        }
        feed(&frame);
    }

    #[test]
    fn leaf_frames_ending_in_runs_cross_as_their_spelled_form(
        head_payload in 0usize..64,
        short in 0usize..2_100,
        long in 2_100usize..13_000,
        on_air in any::<bool>(),
        tls in any::<bool>(),
        plen_delta in 0usize..160,
        cut in 0usize..240,
    ) {
        let mac = leaf_mac(1);
        // Short enough for the air, or not.
        let run_len = if on_air { short } else { long };
        let run = if tls { Run::tls_padding(run_len) } else { Run::new(0x17, run_len) };
        let flags = tcp::Flags::PSH | tcp::Flags::ACK;
        let mut frame = upload(mac, flags, &vec![0xab; head_payload], run);
        // Shorter than, equal to or longer than what the frame holds.
        let held = frame.len() - IP - 40 + run.len();
        let plen = (held + plen_delta).saturating_sub(80).min(usize::from(u16::MAX));
        let at = IP + 4;
        frame[at..at + 2].copy_from_slice(&(plen as u16).to_be_bytes());
        // Half the cases cut the head short.
        if cut < 120 {
            frame.truncate(cut);
        }
        let leaf = Leaf {
            mac,
            outbox: vec![(frame.clone(), run), (router_solicit(mac), Run::default())],
        };
        let mut br = BorderRouter::new(7, vec![Box::new(leaf)]);
        let mut rng = StdRng::seed_from_u64(1);
        let mut fx = Effects::new(&mut rng);
        br.on_start(SimTime::ZERO, &mut fx);

        let well_formed = frame.len() >= IP + 40
            && frame.len() - IP + run.len() >= 40 + plen;
        prop_assert_eq!(fx.frames.len(), if well_formed { 2 } else { 1 });
        if well_formed {
            let mut expected = run.spell(&frame, &mut Vec::new()).to_vec();
            expected[6..12].copy_from_slice(addrs::BORDER_ROUTER_MAC.as_bytes());
            prop_assert_eq!(fx.run(0).spell(&fx.frames[0], &mut Vec::new()), &expected[..]);
        }
        // The NDP message is proxied: it names the border router.
        let rs = ParsedPacket::parse(fx.frames.last().unwrap()).expect("a valid RS");
        let L4::Icmpv6(icmpv6::Repr::Ndp(ndp::Repr::RouterSolicit { options })) = rs.l4 else {
            panic!("the leaf's RS crosses as an RS");
        };
        prop_assert_eq!(
            options,
            vec![ndp::NdpOption::SourceLinkLayerAddr(addrs::BORDER_ROUTER_MAC)]
        );
    }
}
