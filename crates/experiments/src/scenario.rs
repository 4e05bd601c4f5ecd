//! Scenario construction and single-experiment execution.
//!
//! Every simulated home in this crate is built and run by one executor:
//! the router per Table 2 row, the Internet's zone database derived from
//! every device's destination list, the device models and the two
//! verification phones. It runs the experiment window under the caller's
//! fault plan, performs the functionality test, and analyzes the LAN
//! traffic. The devices attach either directly to the Ethernet LAN or as
//! the leaves of one 6LoWPAN border router; the WAN exposure scan builds
//! its homes with the same device helper.
//!
//! An Ethernet home's analysis streams: a [`StreamingAnalyzer`] rides the
//! simulator's capture tap and folds every frame into `O(state)` as it
//! crosses the LAN, so the home never materializes an `O(frames)` capture
//! buffer unless the caller keeps one. A mesh home's LAN frames wear the
//! border router's MAC, and the analyzer needs the leaf bindings decoded
//! from the mesh capture before its first frame, so a mesh home buffers
//! its LAN capture and the executor replays it after the run.

use crate::config::NetworkConfig;
use std::borrow::Borrow;
use std::collections::BTreeMap;
use v6brick_core::analysis::PassId;
use v6brick_core::observe::{ExperimentAnalysis, StreamingAnalyzer};
use v6brick_core::outage::SwitchRecord;
use v6brick_devices::phone::Phone;
use v6brick_devices::profile::DeviceProfile;
use v6brick_devices::stack::{ntp_anycast, IotDevice};
use v6brick_net::hash::FxHashMap;
use v6brick_net::ipv6::Cidr;
use v6brick_net::Mac;
use v6brick_pcap::Capture;
use v6brick_sim::event::SimTime;
use v6brick_sim::internet::{DomainProfile, Internet, ZoneDb};
use v6brick_sim::{
    addrs, BorderRouter, FaultPlan, Host, HostId, Router, Simulation, SimulationBuilder,
};

/// How long each connectivity experiment runs (virtual time). Long enough
/// for boot, addressing, resolution, rendezvous, and several telemetry
/// rounds.
pub const EXPERIMENT_DURATION: SimTime = SimTime::from_secs(420);

/// The domain registrations one profile contributes to a zone database,
/// in destination order — the unit [`ZoneCache`] memoizes.
fn zone_fragment(p: &DeviceProfile) -> Vec<DomainProfile> {
    let mut out = Vec::with_capacity(p.app.destinations.len() + 1);
    for d in &p.app.destinations {
        out.push(if d.aaaa_ready {
            DomainProfile::dual_stack(d.domain.clone())
        } else {
            DomainProfile::v4_only(d.domain.clone())
        });
    }
    if let Some(h) = &p.app.hardcoded_v6_endpoint {
        out.push(DomainProfile::dual_stack(h.clone()));
    }
    out
}

/// Replay per-profile fragments into one zone database. First
/// registration wins (deterministic because profiles and their
/// destinations are ordered); the NTP anycast and the phones' canary
/// domain are registered last, unconditionally — exactly the order the
/// uncached builder always used.
fn assemble_zones<'a>(fragments: impl Iterator<Item = &'a [DomainProfile]>) -> ZoneDb {
    let mut zones = ZoneDb::new();
    for fragment in fragments {
        for dp in fragment {
            // Don't overwrite: shared domains keep their first profile.
            if zones.get(&dp.name).is_none() {
                zones.insert(dp.clone());
            }
        }
    }
    zones.insert(DomainProfile::dual_stack(ntp_anycast()));
    zones.insert(DomainProfile::dual_stack(Phone::canary_domain()));
    zones
}

/// Build the authoritative zone database for a set of device profiles:
/// every destination with its AAAA readiness, the hard-coded endpoints,
/// the NTP anycast, and the phones' canary domain.
pub fn build_zones<P: Borrow<DeviceProfile>>(profiles: &[P]) -> ZoneDb {
    let fragments: Vec<Vec<DomainProfile>> =
        profiles.iter().map(|p| zone_fragment(p.borrow())).collect();
    assemble_zones(fragments.iter().map(|f| f.as_slice()))
}

/// Per-worker scratch for fleet-scale zone building: memoizes each
/// profile's [`DomainProfile`] fragment so a worker that simulates
/// thousands of homes derives every destination's zone entry once per
/// registry profile instead of once per home. Produces a database
/// byte-equivalent to [`build_zones`] for any profile list — the cache
/// only skips re-deriving per-profile fragments; the first-wins
/// assembly order is identical.
#[derive(Default)]
pub struct ZoneCache {
    fragments: FxHashMap<String, Vec<DomainProfile>>,
}

impl ZoneCache {
    /// An empty cache; it warms up as homes are simulated.
    pub fn new() -> ZoneCache {
        ZoneCache::default()
    }

    /// [`build_zones`], memoized per profile id.
    pub fn zones_for<P: Borrow<DeviceProfile>>(&mut self, profiles: &[P]) -> ZoneDb {
        for p in profiles {
            let p = p.borrow();
            self.fragments
                .entry(p.id.clone())
                .or_insert_with(|| zone_fragment(p));
        }
        assemble_zones(
            profiles
                .iter()
                .map(|p| self.fragments[&p.borrow().id].as_slice()),
        )
    }
}

/// The base seed of the paper suite: [`run_with_profiles`] and
/// [`ExperimentSuite`](crate::suite::ExperimentSuite) derive each
/// configuration's simulation seed from it.
pub const SUITE_SEED: u64 = 0x6b1c_0000;

/// The outcome of one connectivity experiment.
pub struct ExperimentRun {
    /// Config.
    pub config: NetworkConfig,
    /// Pipeline output, streamed off the LAN capture tap.
    pub analysis: ExperimentAnalysis,
    /// Functionality-test outcome per device id (§4.1).
    pub functional: BTreeMap<String, bool>,
    /// Did the verification phones confirm the network works?
    pub phones_ok: bool,
    /// The router's IPv6 neighbor table at the end of the run.
    pub neighbors_v6: Vec<(std::net::Ipv6Addr, Mac)>,
    /// Frames captured.
    pub frames: u64,
}

/// The LAN /64 used to split local from Internet IPv6 traffic.
pub fn lan_prefix() -> Cidr {
    Cidr::new(addrs::LAN_PREFIX, 64)
}

/// Run one experiment over an arbitrary profile subset (tests use this
/// with a handful of devices) at the suite's seed and window, analyzing
/// with every pass.
pub fn run_with_profiles<P: Borrow<DeviceProfile>>(
    config: NetworkConfig,
    profiles: &[P],
) -> ExperimentRun {
    run_scoped(
        config,
        profiles,
        SUITE_SEED,
        EXPERIMENT_DURATION,
        &PassId::ALL,
    )
}

/// Like [`run_with_profiles`] with an explicit base seed and duration,
/// analyzing with only the named passes (plus their dependencies).
/// Device *behaviours* must be seed-invariant (only boot jitter and
/// temporary addresses vary), and fleet campaigns and tests trade
/// capture length for wall-clock time. Callers that read a known subset
/// of [`v6brick_core::observe::DeviceObservation`] — the fleet
/// population report, a single table generator — skip the work of the
/// passes whose fields they never look at; the fields a disabled pass
/// owns stay at their defaults.
pub fn run_scoped<P: Borrow<DeviceProfile>>(
    config: NetworkConfig,
    profiles: &[P],
    base_seed: u64,
    duration: SimTime,
    passes: &[PassId],
) -> ExperimentRun {
    execute(
        config,
        profiles,
        base_seed,
        duration,
        passes,
        FaultPlan::new(),
        build_zones(profiles),
        Link::Ethernet,
        false,
    )
    .run
}

/// Where a home's IoT devices attach.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub(crate) enum Link {
    /// Each device is a host of its own on the Ethernet LAN.
    Ethernet,
    /// Every device is a leaf of one 6LoWPAN border router, which
    /// carries only IPv6 between the mesh and the LAN.
    Mesh,
}

/// A home's IoT devices as its simulation holds them, in profile order.
pub(crate) enum Devices {
    /// One host per device.
    Hosts(Vec<HostId>),
    /// The border router whose leaves are the devices.
    Mesh(HostId),
}

impl Devices {
    /// Attach one [`IotDevice`] per profile on `link`. A mesh home's
    /// border router draws its air timing from `seed`, and records the
    /// 802.15.4 capture only with `mesh_capture` set.
    pub(crate) fn attach<P: Borrow<DeviceProfile>>(
        b: &mut SimulationBuilder,
        profiles: &[P],
        link: Link,
        seed: u64,
        mesh_capture: bool,
    ) -> Devices {
        let devices = profiles
            .iter()
            .map(|p| Box::new(IotDevice::new(p.borrow().clone())) as Box<dyn Host>);
        match link {
            Link::Ethernet => Devices::Hosts(devices.map(|d| b.add_host(d)).collect()),
            Link::Mesh => {
                let br = BorderRouter::new(seed, devices.collect());
                Devices::Mesh(b.add_host(Box::new(br.mesh_capture_enabled(mesh_capture))))
            }
        }
    }

    /// The device of the `i`-th profile.
    pub(crate) fn get<'s>(&self, sim: &'s Simulation, i: usize) -> &'s IotDevice {
        let host = match self {
            Devices::Hosts(ids) => sim.host(ids[i]),
            Devices::Mesh(br) => border_router(sim.host(*br)).leaf(i),
        };
        host.as_any().downcast_ref().expect("host is a device")
    }
}

fn border_router(host: &dyn Host) -> &BorderRouter {
    host.as_any()
        .downcast_ref()
        .expect("host is the border router")
}

/// What [`execute`] returns: the ordinary experiment outcome plus what
/// only some callers read.
pub(crate) struct HomeRun {
    /// The ordinary experiment outcome.
    pub run: ExperimentRun,
    /// Every device's v6↔v4 switch log, keyed by device id.
    pub switches: BTreeMap<String, Vec<SwitchRecord>>,
    /// 6in4 tunnel packets an injected outage swallowed.
    pub tunnel_drops: u64,
    /// Every LAN frame in tap order, when the caller kept the capture.
    pub capture: Option<Capture>,
    /// The border router's accounting, for a mesh home.
    pub transit: Option<MeshTransit>,
}

/// A mesh home's border-router accounting.
pub(crate) struct MeshTransit {
    /// 802.15.4 frames the border router put on the air.
    pub mesh_frames: u64,
    /// Leaf IPv4/ARP frames refused transit by the v6-only mesh.
    pub dropped_v4_frames: u64,
    /// IPv6 packets forwarded mesh → Ethernet.
    pub forwarded_up: u64,
    /// IPv6 packets forwarded Ethernet → mesh.
    pub forwarded_down: u64,
    /// Ethernet→mesh unicasts with no learned leaf route.
    pub no_route_drops: u64,
    /// IPv6 → leaf-MAC bindings recovered from the mesh capture.
    pub mesh_bindings: u64,
    /// Mesh frames/datagrams any decode stage dropped.
    pub mesh_decode_errors: u64,
}

/// The one home executor: build a home over `zones` with its devices on
/// `link`, run it for `duration` under `faults`, test each device's
/// function and analyze the LAN traffic with `passes` (with none, the
/// analysis is empty). With `keep_capture` the LAN capture comes back
/// too.
#[allow(clippy::too_many_arguments)]
pub(crate) fn execute<P: Borrow<DeviceProfile>>(
    config: NetworkConfig,
    profiles: &[P],
    base_seed: u64,
    duration: SimTime,
    passes: &[PassId],
    faults: FaultPlan,
    zones: ZoneDb,
    link: Link,
    keep_capture: bool,
) -> HomeRun {
    let router = Router::new(config.router_config());
    let mut b = SimulationBuilder::new(router, Internet::new(zones));
    let sim_seed = base_seed ^ config as u64;
    // A mesh home's leaf bindings come from its 802.15.4 capture.
    let devices = Devices::attach(&mut b, profiles, link, sim_seed, true);
    let phones = [
        b.add_host(Box::new(Phone::pixel7())),
        b.add_host(Box::new(Phone::iphone_x())),
    ];
    let macs: Vec<(Mac, String)> = profiles
        .iter()
        .map(|p| (p.borrow().mac, p.borrow().id.clone()))
        .collect();

    // An Ethernet home streams its analysis off the capture tap; a mesh
    // home replays its buffered capture once its bindings are decoded. A
    // home asked for no pass attaches no analyzer.
    let mesh = link == Link::Mesh;
    let streamed = !mesh && !passes.is_empty();
    if streamed {
        b.add_sink(Box::new(StreamingAnalyzer::with_passes(
            &macs,
            lan_prefix(),
            passes,
        )));
    }
    let buffered = keep_capture || mesh;
    let mut sim = b.seed(sim_seed).capture(buffered).faults(faults).build();
    sim.run_until(duration);
    let capture = buffered.then(|| sim.take_capture());

    // Functionality test: ask each device model whether its primary
    // function (cloud rendezvous with every required destination)
    // completed — the §4.1 companion-app check. The switch log comes off
    // the same device.
    let mut functional = BTreeMap::new();
    let mut switches = BTreeMap::new();
    for (i, p) in profiles.iter().enumerate() {
        let id = &p.borrow().id;
        let dev = devices.get(&sim, i);
        functional.insert(id.clone(), dev.is_functional());
        switches.insert(
            id.clone(),
            dev.switch_events()
                .iter()
                .map(|e| SwitchRecord {
                    at_us: e.at_us,
                    domain: e.domain.as_str().to_string(),
                    to_v6: e.to_v6,
                })
                .collect::<Vec<_>>(),
        );
    }
    let phones_ok = phones.iter().all(|h| {
        sim.host(*h)
            .as_any()
            .downcast_ref::<Phone>()
            .is_some_and(Phone::network_ok)
    });

    let (analyzer, transit) = match devices {
        Devices::Hosts(_) if streamed => {
            let sink = sim
                .take_sinks()
                .pop()
                .expect("the streaming analyzer was attached above");
            let analyzer = sink
                .into_any()
                .downcast::<StreamingAnalyzer>()
                .expect("the only sink is the streaming analyzer");
            (*analyzer, None)
        }
        Devices::Hosts(_) => (
            StreamingAnalyzer::with_passes(&macs, lan_prefix(), passes),
            None,
        ),
        Devices::Mesh(br) => {
            let br = border_router(sim.host(br));
            let bindings =
                v6brick_core::bindings_from_mesh_capture(br.mesh_capture(), &lan_prefix());
            let mut analyzer = StreamingAnalyzer::with_passes(&macs, lan_prefix(), passes);
            for (addr, mac) in &bindings.by_addr {
                // The border router's own mesh-local address resolves to
                // no device and binds nothing.
                analyzer.add_mesh_binding(*addr, *mac);
            }
            let lan = capture.as_ref().expect("a mesh home buffers its capture");
            for pkt in lan.iter() {
                analyzer.feed(pkt.timestamp_us, &pkt.data);
            }
            let transit = MeshTransit {
                mesh_frames: br.mesh_frames,
                dropped_v4_frames: br.dropped_v4_frames,
                forwarded_up: br.forwarded_up,
                forwarded_down: br.forwarded_down,
                no_route_drops: br.no_route_drops,
                // Count only the bindings that name a leaf, as the
                // analyzer does.
                mesh_bindings: bindings
                    .by_addr
                    .values()
                    .filter(|m| **m != addrs::BORDER_ROUTER_MAC)
                    .count() as u64,
                mesh_decode_errors: bindings.decode_errors,
            };
            (analyzer, Some(transit))
        }
    };
    HomeRun {
        run: ExperimentRun {
            config,
            analysis: analyzer.finish(),
            functional,
            phones_ok,
            neighbors_v6: sim.router().neighbor_table_v6(),
            frames: sim.frames_tapped,
        },
        switches,
        tunnel_drops: sim.tunnel_drops,
        capture: capture.filter(|_| keep_capture),
        transit,
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::collections::HashMap;
    use v6brick_devices::registry;
    use v6brick_net::dns::Name;

    fn profiles(ids: &[&str]) -> Vec<DeviceProfile> {
        ids.iter().map(|id| registry::by_id(id)).collect()
    }

    #[test]
    fn zone_db_covers_all_destinations() {
        let profiles = registry::build();
        let zones = build_zones(&profiles);
        assert!(zones.len() > 1000, "zones: {}", zones.len());
        // A domain several devices register keeps its first registration,
        // in registry order; a hard-coded endpoint registers as ready.
        let mut first_ready: HashMap<&Name, bool> = HashMap::new();
        for p in &profiles {
            for d in &p.app.destinations {
                first_ready.entry(&d.domain).or_insert(d.aaaa_ready);
            }
            if let Some(h) = &p.app.hardcoded_v6_endpoint {
                first_ready.entry(h).or_insert(true);
            }
        }
        for (domain, ready) in first_ready {
            let prof = zones.get(domain).expect("domain registered");
            assert_eq!(prof.aaaa.is_some(), ready, "AAAA record of {domain:?}");
        }
        assert!(zones.get(&ntp_anycast()).is_some());
        assert!(zones.get(&Phone::canary_domain()).is_some());
    }

    #[test]
    fn first_registration_of_a_shared_domain_wins() {
        // Two profiles register one domain with opposite AAAA readiness,
        // a third hard-codes an endpoint of that name, and a fourth does
        // both itself.
        let shared = Name::new("shared.zones.example").unwrap();
        let with_shared = |id: &str, ready: bool| {
            let mut p = registry::by_id(id);
            let mut d = p.app.destinations[0].clone();
            d.domain = shared.clone();
            d.aaaa_ready = ready;
            p.app.destinations.push(d);
            p
        };
        let ready = with_shared("google_home_mini", true);
        let v4_only = with_shared("echo_show_5", false);
        let mut hardcoded = registry::by_id("aqara_hub");
        hardcoded.app.hardcoded_v6_endpoint = Some(shared.clone());
        let mut both = with_shared("nest_camera", false);
        both.app.hardcoded_v6_endpoint = Some(shared.clone());

        let mut cache = ZoneCache::new();
        for (order, first_ready) in [
            (vec![&ready, &v4_only], true),
            (vec![&v4_only, &ready], false),
            (vec![&hardcoded, &v4_only], true),
            (vec![&v4_only, &hardcoded], false),
            // A profile's destinations register before its endpoint.
            (vec![&both], false),
        ] {
            let ids: Vec<&str> = order.iter().map(|p| p.id.as_str()).collect();
            for zones in [build_zones(&order), cache.zones_for(&order)] {
                let prof = zones.get(&shared).expect("shared domain registered");
                assert_eq!(prof.aaaa.is_some(), first_ready, "{ids:?}");
            }
        }
    }

    #[test]
    fn functional_device_works_in_ipv6_only() {
        let run = run_with_profiles(NetworkConfig::Ipv6Only, &profiles(&["google_home_mini"]));
        assert!(run.phones_ok, "phones must verify the v6-only network");
        assert_eq!(run.functional.get("google_home_mini"), Some(&true));
        let o = run.analysis.device("google_home_mini").unwrap();
        assert!(o.ndp_traffic);
        assert!(o.dns_over_v6());
        assert!(!o.aaaa_q_v6.is_empty());
        assert!(o.v6_internet_data());
    }

    #[test]
    fn amazon_echo_bricks_in_ipv6_only_but_works_dual() {
        let run6 = run_with_profiles(NetworkConfig::Ipv6Only, &profiles(&["echo_show_5"]));
        assert_eq!(run6.functional.get("echo_show_5"), Some(&false));
        let o = run6.analysis.device("echo_show_5").unwrap();
        // Full IPv6 feature support...
        assert!(o.ndp_traffic && o.has_v6_addr());
        assert!(!o.aaaa_q_v6.is_empty());
        // ...but its required api.amazon.com never resolves AAAA.
        assert!(o.aaaa_neg.contains(&Name::new("api.amazon.com").unwrap()));

        let run_dual = run_with_profiles(NetworkConfig::DualStack, &profiles(&["echo_show_5"]));
        assert_eq!(run_dual.functional.get("echo_show_5"), Some(&true));
        let o = run_dual.analysis.device("echo_show_5").unwrap();
        assert!(o.v6_internet_data(), "transmits v6 data in dual-stack");
        assert!(o.v4_internet_bytes > 0, "but still relies on IPv4");
    }

    #[test]
    fn no_ipv6_device_stays_silent_on_v6() {
        let run = run_with_profiles(NetworkConfig::Ipv6Only, &profiles(&["wyze_cam"]));
        let o = run.analysis.device("wyze_cam").unwrap();
        assert!(!o.ndp_traffic);
        assert!(!o.has_v6_addr());
        assert_eq!(run.functional.get("wyze_cam"), Some(&false));
        // But in IPv4-only it works.
        let run4 = run_with_profiles(NetworkConfig::Ipv4Only, &profiles(&["wyze_cam"]));
        assert_eq!(run4.functional.get("wyze_cam"), Some(&true));
    }

    /// A mesh home of `ids` under `config`, at the suite's seed and window.
    fn mesh_home(config: NetworkConfig, ids: &[&str]) -> (ExperimentRun, MeshTransit) {
        let profiles = profiles(ids);
        let home = execute(
            config,
            &profiles,
            SUITE_SEED,
            EXPERIMENT_DURATION,
            &PassId::ALL,
            FaultPlan::new(),
            build_zones(&profiles),
            Link::Mesh,
            false,
        );
        (
            home.run,
            home.transit.expect("a mesh home reports its transit"),
        )
    }

    #[test]
    fn mesh_home_attributes_leaves_and_v6_device_works() {
        let (run, transit) = mesh_home(NetworkConfig::Ipv6Only, &["google_home_mini"]);
        assert!(run.phones_ok, "phones live on Ethernet, unaffected");
        assert_eq!(run.functional.get("google_home_mini"), Some(&true));
        assert!(transit.mesh_frames > 0, "traffic crossed the mesh air");
        assert!(transit.mesh_bindings >= 1, "leaf addresses recovered");
        assert_eq!(transit.mesh_decode_errors, 0);
        assert!(transit.forwarded_up > 0 && transit.forwarded_down > 0);
        let o = run.analysis.device("google_home_mini").unwrap();
        assert!(o.dns_over_v6(), "DNS attributed to the leaf, not the BR");
        assert!(o.v6_internet_data(), "data attributed to the leaf");
    }

    #[test]
    fn v4_dependent_device_bricks_behind_the_mesh() {
        // On Ethernet this device works over IPv4; the v6-only mesh
        // refuses its DHCPv4/ARP frames at the border, so it bricks even
        // with IPv4 service on the router — the readiness delta the mesh
        // family measures.
        let (run, transit) = mesh_home(NetworkConfig::Ipv4Only, &["wyze_cam"]);
        assert_eq!(run.functional.get("wyze_cam"), Some(&false));
        assert!(transit.dropped_v4_frames > 0);
    }

    #[test]
    fn everything_functional_in_ipv4_only() {
        // Spot-check a diverse subset (the full-matrix assertion lives in
        // the integration tests).
        let ids = [
            "samsung_fridge",
            "nest_camera",
            "apple_tv",
            "ikea_gateway",
            "echo_plus",
            "aqara_hub",
            "behmor_brewer",
            "homepod_mini",
        ];
        let run = run_with_profiles(NetworkConfig::Ipv4Only, &profiles(&ids));
        for id in ids {
            assert_eq!(run.functional.get(id), Some(&true), "{id} must work on v4");
        }
    }
}
