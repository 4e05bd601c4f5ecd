//! Scenario construction and single-experiment execution.
//!
//! Builds the full testbed — router per Table 2 row, the Internet's zone
//! database derived from every device's destination list, all 93 device
//! models, the two verification phones — runs the experiment window,
//! performs the functionality test, and analyzes the traffic.
//!
//! Analysis is streaming by default: a [`StreamingAnalyzer`] rides the
//! simulator's capture tap and folds every frame into `O(state)` as it
//! crosses the LAN, so the experiment never materializes an `O(frames)`
//! capture buffer and never parses a frame twice. Buffered captures
//! (pcap export, debugging) remain available via
//! `SimulationBuilder::capture(true)` on a hand-built simulation.

use crate::config::NetworkConfig;
use std::borrow::Borrow;
use std::collections::BTreeMap;
use v6brick_core::analysis::PassId;
use v6brick_core::observe::{ExperimentAnalysis, StreamingAnalyzer};
use v6brick_core::outage::SwitchRecord;
use v6brick_devices::phone::Phone;
use v6brick_devices::profile::DeviceProfile;
use v6brick_devices::registry;
use v6brick_devices::stack::{ntp_anycast, IotDevice};
use v6brick_net::hash::FxHashMap;
use v6brick_net::ipv6::Cidr;
use v6brick_net::Mac;
use v6brick_sim::event::SimTime;
use v6brick_sim::internet::{DomainProfile, Internet, ZoneDb};
use v6brick_sim::{addrs, BorderRouter, FaultPlan, Host, Router, SimulationBuilder};

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

/// Run one experiment over the full registry.
pub fn run(config: NetworkConfig) -> ExperimentRun {
    run_with_profiles(config, registry::shared())
}

/// Run one experiment over an arbitrary profile subset (tests use this
/// with a handful of devices).
pub fn run_with_profiles<P: Borrow<DeviceProfile>>(
    config: NetworkConfig,
    profiles: &[P],
) -> ExperimentRun {
    run_scoped(
        config,
        profiles,
        0x6b1c_0000,
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
    run_faulted(
        config,
        profiles,
        base_seed,
        duration,
        passes,
        FaultPlan::new(),
    )
    .run
}

/// [`run_scoped`] with a per-worker [`ZoneCache`]: the fleet pool's
/// home runner, where one worker simulates thousands of homes and the
/// zone fragments amortize. Byte-identical output to [`run_scoped`].
pub fn run_home<P: Borrow<DeviceProfile>>(
    cache: &mut ZoneCache,
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
        false,
        cache.zones_for(profiles),
    )
    .0
    .run
}

/// The outcome of one fault-injected experiment: the ordinary
/// [`ExperimentRun`] plus the fault-specific observations the healthy
/// path never produces.
pub struct FaultedRun {
    /// The ordinary experiment outcome.
    pub run: ExperimentRun,
    /// Every device's v6↔v4 switch log, keyed by device id.
    pub switches: BTreeMap<String, Vec<SwitchRecord>>,
    /// 6in4 tunnel packets the injected outage swallowed.
    pub tunnel_drops: u64,
}

/// One home's experiment with the raw capture retained: the input the
/// ingestion path replays at a `v6brickd` server. The simulation is
/// bit-identical to [`run_scoped`]'s (same seed, same build order —
/// enabling the buffered capture consumes no randomness), so the
/// capture holds exactly the frames the streaming analyzer would see.
pub struct CapturedRun {
    /// Config the home ran under.
    pub config: NetworkConfig,
    /// Every LAN frame, in tap order.
    pub capture: v6brick_pcap::Capture,
    /// Functionality-test outcome per device id (§4.1) — the
    /// out-of-band result an upload header carries alongside the pcap.
    pub functional: BTreeMap<String, bool>,
}

/// Run one home and keep its capture instead of (not in addition to)
/// an analysis: the bundle-generation path for `repro upload`, the
/// load generator, and the server equivalence tests. No analyzer pass
/// runs — the server is the one doing the analysis.
pub fn run_captured<P: Borrow<DeviceProfile>>(
    config: NetworkConfig,
    profiles: &[P],
    base_seed: u64,
    duration: SimTime,
) -> CapturedRun {
    let (faulted, capture) = execute(
        config,
        profiles,
        base_seed,
        duration,
        &[],
        FaultPlan::new(),
        true,
        build_zones(profiles),
    );
    CapturedRun {
        config,
        capture: capture.expect("capture was enabled"),
        functional: faulted.run.functional,
    }
}

/// The outcome of one mesh-home experiment: the ordinary run (attributed
/// to leaf devices via the mesh capture) plus the border-router
/// accounting the Ethernet topology never produces.
pub struct MeshRun {
    /// The ordinary experiment outcome.
    pub run: ExperimentRun,
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

/// Run one experiment with every IoT device behind a 6LoWPAN border
/// router instead of directly on the Ethernet LAN — the second
/// link-layer scenario family, and the fleet pool's mesh-home runner:
/// like [`run_home`] but with the devices behind a border router. The
/// mesh capture is walked for attribution bindings and then dropped —
/// nothing `O(frames)` outlives the home.
pub fn run_mesh_home<P: Borrow<DeviceProfile>>(
    cache: &mut ZoneCache,
    config: NetworkConfig,
    profiles: &[P],
    base_seed: u64,
    duration: SimTime,
    passes: &[PassId],
) -> MeshRun {
    execute_mesh(
        config,
        profiles,
        base_seed,
        duration,
        passes,
        cache.zones_for(profiles),
    )
}

/// The mesh twin of [`execute`]. Unlike the Ethernet path this one runs
/// in two phases — simulate with a buffered LAN capture, then analyze —
/// because the attribution bindings come from *decoding the mesh
/// capture* (802.15.4 framing → RFC 4944 reassembly → IPHC), and the
/// analyzer needs them installed before it sees the first frame. The
/// Ethernet path keeps its streaming analyzer and is byte-identical to
/// before the mesh family existed.
fn execute_mesh<P: Borrow<DeviceProfile>>(
    config: NetworkConfig,
    profiles: &[P],
    base_seed: u64,
    duration: SimTime,
    passes: &[PassId],
    zones: ZoneDb,
) -> MeshRun {
    let internet = Internet::new(zones);
    let router = Router::new(config.router_config());
    let mut b = SimulationBuilder::new(router, internet);

    let sim_seed = base_seed ^ config as u64;
    let mut leaves: Vec<Box<dyn Host>> = Vec::with_capacity(profiles.len());
    let mut device_ids = Vec::with_capacity(profiles.len());
    for p in profiles {
        let p = p.borrow();
        leaves.push(Box::new(IotDevice::new(p.clone())));
        device_ids.push((p.id.clone(), p.mac));
    }
    let br_id = b.add_host(Box::new(BorderRouter::new(sim_seed, leaves)));
    let pixel = b.add_host(Box::new(Phone::pixel7()));
    let iphone = b.add_host(Box::new(Phone::iphone_x()));

    let mut sim = b.seed(sim_seed).capture(true).build();
    sim.run_until(duration);
    let lan_capture = sim.take_capture();

    // Phase 2: recover leaf identity from the mesh air, then walk the
    // LAN capture with the bindings installed.
    let br = sim
        .host_mut(br_id)
        .as_any_mut()
        .downcast_mut::<BorderRouter>()
        .expect("host is the border router");
    let mesh_capture = br.take_mesh_capture();
    let (mesh_frames, dropped_v4, fwd_up, fwd_down, no_route) = (
        br.mesh_frames,
        br.dropped_v4_frames,
        br.forwarded_up,
        br.forwarded_down,
        br.no_route_drops,
    );
    let mut functional = BTreeMap::new();
    for (idx, (id, _)) in device_ids.iter().enumerate() {
        let dev = br
            .leaf(idx)
            .as_any()
            .downcast_ref::<IotDevice>()
            .expect("leaf is a device");
        functional.insert(id.clone(), dev.is_functional());
    }

    let bindings = v6brick_core::bindings_from_mesh_capture(&mesh_capture, &lan_prefix());
    let macs: Vec<(Mac, String)> = device_ids
        .iter()
        .map(|(id, mac)| (*mac, id.clone()))
        .collect();
    let mut analyzer = StreamingAnalyzer::with_passes(&macs, lan_prefix(), passes);
    for (addr, mac) in &bindings.by_addr {
        // The border router's own mesh-local address resolves to no
        // device and binds nothing — exactly what we want.
        analyzer.add_mesh_binding(*addr, *mac);
    }
    for pkt in lan_capture.iter() {
        analyzer.feed(pkt.timestamp_us, &pkt.data);
    }
    let frames = analyzer.frames_fed();
    let analysis = analyzer.finish();

    let phones_ok = [pixel, iphone].iter().all(|h| {
        sim.host(*h)
            .as_any()
            .downcast_ref::<Phone>()
            .map(|p| p.network_ok())
            .unwrap_or(false)
    });
    let neighbors_v6 = sim.router().neighbor_table_v6();

    MeshRun {
        run: ExperimentRun {
            config,
            analysis,
            functional,
            phones_ok,
            neighbors_v6,
            frames,
        },
        mesh_frames,
        dropped_v4_frames: dropped_v4,
        forwarded_up: fwd_up,
        forwarded_down: fwd_down,
        no_route_drops: no_route,
        mesh_bindings: analyzer_bindings(&bindings),
        mesh_decode_errors: bindings.decode_errors,
    }
}

/// How many of the recovered bindings name an actual leaf (the border
/// router's own addresses are excluded by the analyzer, so count them
/// the same way here).
fn analyzer_bindings(b: &v6brick_core::MeshBindings) -> u64 {
    b.by_addr
        .values()
        .filter(|m| **m != addrs::BORDER_ROUTER_MAC)
        .count() as u64
}

/// [`run_scoped`] under an injected [`FaultPlan`]: the same build and
/// measurement path, plus the devices' family-switch logs and the
/// engine's fault counters for Table 9-style outage reporting.
pub fn run_faulted<P: Borrow<DeviceProfile>>(
    config: NetworkConfig,
    profiles: &[P],
    base_seed: u64,
    duration: SimTime,
    passes: &[PassId],
    faults: FaultPlan,
) -> FaultedRun {
    execute(
        config,
        profiles,
        base_seed,
        duration,
        passes,
        faults,
        false,
        build_zones(profiles),
    )
    .0
}

/// The one Ethernet-home executor: build the home over `zones`, run it
/// for `duration`, test each device's function and stream the analysis
/// off the capture tap. Every Ethernet run in this module calls it, and
/// so does the reachability extension, with zones whose IPv6 servers
/// are partly dead.
#[allow(clippy::too_many_arguments)]
pub(crate) fn execute<P: Borrow<DeviceProfile>>(
    config: NetworkConfig,
    profiles: &[P],
    base_seed: u64,
    duration: SimTime,
    passes: &[PassId],
    faults: FaultPlan,
    keep_capture: bool,
    zones: ZoneDb,
) -> (FaultedRun, Option<v6brick_pcap::Capture>) {
    let internet = Internet::new(zones);
    let router = Router::new(config.router_config());
    let mut b = SimulationBuilder::new(router, internet);

    let mut device_ids = Vec::with_capacity(profiles.len());
    for p in profiles {
        let p = p.borrow();
        let id = b.add_host(Box::new(IotDevice::new(p.clone())));
        device_ids.push((id, p.id.clone(), p.mac));
    }
    let pixel = b.add_host(Box::new(Phone::pixel7()));
    let iphone = b.add_host(Box::new(Phone::iphone_x()));

    // Stream the analysis off the capture tap instead of buffering the
    // whole capture: peak memory is the analyzer state, not the frames.
    let macs: Vec<(Mac, String)> = device_ids
        .iter()
        .map(|(_, id, mac)| (*mac, id.clone()))
        .collect();
    b.add_sink(Box::new(StreamingAnalyzer::with_passes(
        &macs,
        lan_prefix(),
        passes,
    )));

    let mut sim = b
        .seed(base_seed ^ config as u64)
        .capture(keep_capture)
        .faults(faults)
        .build();
    sim.run_until(duration);
    let capture = keep_capture.then(|| sim.take_capture());

    // Functionality test: ask each device model whether its primary
    // function (cloud rendezvous with every required destination)
    // completed — the §4.1 companion-app check. The switch log comes off
    // the same downcast.
    let mut functional = BTreeMap::new();
    let mut switches = BTreeMap::new();
    for (hid, id, _) in &device_ids {
        let dev = sim
            .host(*hid)
            .as_any()
            .downcast_ref::<IotDevice>()
            .expect("host is a device");
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
    let phones_ok = [pixel, iphone].iter().all(|h| {
        sim.host(*h)
            .as_any()
            .downcast_ref::<Phone>()
            .map(|p| p.network_ok())
            .unwrap_or(false)
    });

    let neighbors_v6 = sim.router().neighbor_table_v6();
    let tunnel_drops = sim.tunnel_drops;
    let analyzer = sim
        .take_sinks()
        .pop()
        .expect("the streaming analyzer was attached above")
        .into_any()
        .downcast::<StreamingAnalyzer>()
        .expect("the only sink is the streaming analyzer");
    let frames = analyzer.frames_fed();
    let analysis = analyzer.finish();

    (
        FaultedRun {
            run: ExperimentRun {
                config,
                analysis,
                functional,
                phones_ok,
                neighbors_v6,
                frames,
            },
            switches,
            tunnel_drops,
        },
        capture,
    )
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::collections::HashMap;
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

    #[test]
    fn mesh_home_attributes_leaves_and_v6_device_works() {
        let mesh = run_mesh_home(
            &mut ZoneCache::new(),
            NetworkConfig::Ipv6Only,
            &profiles(&["google_home_mini"]),
            0x6b1c_0000,
            EXPERIMENT_DURATION,
            &PassId::ALL,
        );
        assert!(mesh.run.phones_ok, "phones live on Ethernet, unaffected");
        assert_eq!(mesh.run.functional.get("google_home_mini"), Some(&true));
        assert!(mesh.mesh_frames > 0, "traffic crossed the mesh air");
        assert!(mesh.mesh_bindings >= 1, "leaf addresses recovered");
        assert_eq!(mesh.mesh_decode_errors, 0);
        assert!(mesh.forwarded_up > 0 && mesh.forwarded_down > 0);
        let o = mesh.run.analysis.device("google_home_mini").unwrap();
        assert!(o.dns_over_v6(), "DNS attributed to the leaf, not the BR");
        assert!(o.v6_internet_data(), "data attributed to the leaf");
    }

    #[test]
    fn v4_dependent_device_bricks_behind_the_mesh() {
        // On Ethernet this device works over IPv4; the v6-only mesh
        // refuses its DHCPv4/ARP frames at the border, so it bricks even
        // with IPv4 service on the router — the readiness delta the mesh
        // family measures.
        let mesh = run_mesh_home(
            &mut ZoneCache::new(),
            NetworkConfig::Ipv4Only,
            &profiles(&["wyze_cam"]),
            0x6b1c_0000,
            EXPERIMENT_DURATION,
            &PassId::ALL,
        );
        assert_eq!(mesh.run.functional.get("wyze_cam"), Some(&false));
        assert!(mesh.dropped_v4_frames > 0);
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
