//! The WAN-side exposure scan: what an Internet scanner reaches inside
//! the home, per CPE firewall policy.
//!
//! The paper scans its devices from the LAN (§4.3); the natural
//! follow-up — asked by "Unconsidered Installations" and "Where Have All
//! the Firewalls Gone?" — is what the same devices expose to the v6
//! *Internet*, where routed GUAs replace the incidental shield IPv4 NAT
//! provided. Each home settles once and is then probed once per
//! [`FirewallPolicy`] by an external scanner at [`scanner_addr`],
//! through the 6in4 tunnel:
//!
//! 1. **settle** — the home boots, addresses itself, and talks to its
//!    clouds for [`WanScanSpec::settle_s`] virtual seconds, exactly as in
//!    the connectivity experiments, behind the strictest requested
//!    policy. The internet side passively records every GUA it sees
//!    ([`Internet::observed_v6_sources`]) — the scanner's only
//!    real-world knowledge of the home. All inbound traffic during the
//!    settle is return traffic, so no policy filters any of it and the
//!    settle is the same under all of them; the router's filter counter
//!    checks this on every home.
//! 2. **hitlist** — the observations are extrapolated into candidate
//!    addresses ([`exposure::hitlist`]) next to a dense low-IID sweep
//!    baseline ([`exposure::dense_sweep`]).
//!
//! Each policy then probes its own [`Simulation::fork`] of the settled
//! home, with the router switched to that policy:
//!
//! 3. **liveness** — one ICMPv6 echo per candidate *and* per
//!    ground-truth address (the omniscient probe set that measures the
//!    firewall rather than the hitlist), injected on the WAN side.
//! 4. **service sweep** — TCP SYN / UDP probes over
//!    [`ScanPlan`]'s WAN port set, against responsive ground-truth
//!    addresses only (the way real scanners gate expensive sweeps on a
//!    liveness pass).
//!
//! Everything folds into a byte-deterministic [`ExposureReport`]; the
//! fleet worker pool parallelizes homes with the same crash isolation
//! and merge discipline as the population campaigns.

use crate::config::NetworkConfig;
use crate::portscan::ScanPlan;
use crate::scenario::{self, Devices, Link};
use std::collections::{BTreeMap, BTreeSet};
use std::net::Ipv6Addr;
use v6brick_core::exposure::{self, ExposureReport, HitlistStats, HomeScanOutcome, TargetOutcome};
use v6brick_fleet::{plan_home, run_partials, HomeSpec};
use v6brick_net::ipv4::Protocol;
use v6brick_net::udp::PseudoHeader;
use v6brick_net::{icmpv6, ipv6, tcp, udp, Run};
use v6brick_sim::{
    addrs, wire, FirewallPolicy, Internet, Router, SimTime, Simulation, SimulationBuilder,
};

/// The scanner's source address: a documentation-range GUA well outside
/// both the LAN /64 and the pseudo-Internet's derived service addresses.
pub fn scanner_addr() -> Ipv6Addr {
    Ipv6Addr::new(0x2001, 0xdb8, 0x5ca9, 0, 0, 0, 0, 1)
}

/// Echo ident marking scanner liveness probes.
const ECHO_IDENT: u16 = 0x5ca9;

/// How far around an observed NIC suffix the hitlist extrapolates.
pub const HITLIST_NEIGHBORHOOD: u16 = 4;

/// Low-IID addresses the dense-sweep baseline probes per home.
pub const DENSE_BUDGET: u32 = 256;

/// Virtual time allowed for one probe wave's replies to drain (two WAN
/// legs plus the LAN round trip is under 25 ms; a full second absorbs
/// retransmission-free stragglers).
const PROBE_WINDOW: SimTime = SimTime::from_secs(1);

/// Description of a WAN scan campaign.
#[derive(Debug, Clone)]
pub struct WanScanSpec {
    /// Homes to synthesize and scan.
    pub homes: u64,
    /// Campaign seed; home seeds derive from it.
    pub seed: u64,
    /// Worker threads (1 = inline reference path).
    pub workers: usize,
    /// Inclusive range of devices per home.
    pub device_range: (usize, usize),
    /// Weighted network-config mix each home draws from.
    pub mix: Vec<(NetworkConfig, u32)>,
    /// Firewall policies each home is scanned under.
    pub policies: Vec<FirewallPolicy>,
    /// Service ports the sweep probes.
    pub plan: ScanPlan,
    /// Virtual seconds the home runs before the scan starts.
    pub settle_s: u64,
    /// Per-mille of homes whose devices sit behind a 6LoWPAN border
    /// router instead of directly on the Ethernet LAN. Meshed leaves
    /// still SLAAC GUAs out of the LAN /64 (the border router forwards
    /// the RAs), so the passive observations — and therefore the hitlist
    /// — gain BR-derived mesh addresses, and inbound probes measure
    /// whether the firewall *and* the border router let a scanner reach
    /// them. `0` (the default) reproduces the pre-mesh campaign byte for
    /// byte.
    pub mesh_per_mille: u32,
}

impl Default for WanScanSpec {
    /// 16 homes of 3–8 devices drawn evenly from the five v6-capable
    /// Table 2 configurations (an IPv4-only home has no v6 attack
    /// surface), all three firewall policies, the WAN port set, 90 s of
    /// settle — enough for addressing plus a telemetry round.
    fn default() -> Self {
        let mut mix: Vec<(NetworkConfig, u32)> =
            NetworkConfig::IPV6_ONLY.iter().map(|c| (*c, 1)).collect();
        mix.extend(NetworkConfig::DUAL_STACK.iter().map(|c| (*c, 1)));
        WanScanSpec {
            homes: 16,
            seed: 0x6b1c,
            workers: 1,
            device_range: (3, 8),
            mix,
            policies: FirewallPolicy::ALL.to_vec(),
            plan: ScanPlan::wan(),
            settle_s: 90,
            mesh_per_mille: 0,
        }
    }
}

/// The payload of every echo and UDP probe.
const PROBE_PAYLOAD: &[u8] = b"v6scan";

/// A probe from the scanner to `dst` as the tunnel broker delivers it
/// to the router: one 6in4 packet, whose `next_header` payload,
/// `l4_len` bytes, `write_l4` appends behind the headers.
fn probe(
    dst: Ipv6Addr,
    next_header: Protocol,
    l4_len: usize,
    write_l4: impl FnOnce(&mut Vec<u8>),
) -> Vec<u8> {
    wire::sixin4_packet(
        addrs::ROUTER_WAN_IPV4,
        scanner_addr(),
        dst,
        next_header,
        l4_len,
        Run::default(),
        write_l4,
    )
}

fn echo_probe(dst: Ipv6Addr, seq: u16) -> Vec<u8> {
    let echo = icmpv6::Repr::EchoRequest {
        ident: ECHO_IDENT,
        seq,
        payload: PROBE_PAYLOAD.to_vec(),
    };
    probe(dst, Protocol::Icmpv6, echo.buffer_len(), |pkt| {
        echo.emit(pkt, scanner_addr(), dst)
    })
}

/// Scanner source port for a probe of `port` — distinct from any
/// device-side ephemeral port, stable across runs.
fn scan_sport(port: u16) -> u16 {
    33_000 + (port % 32_000)
}

fn syn_probe(dst: Ipv6Addr, port: u16) -> Vec<u8> {
    let syn = tcp::Repr::syn(scan_sport(port), port, 0x5ca9);
    probe(dst, Protocol::Tcp, tcp::HEADER_LEN, |pkt| {
        let segment = wire::push_segment(pkt, tcp::HEADER_LEN, &[]);
        let ph = PseudoHeader::V6 {
            src: scanner_addr(),
            dst,
        };
        syn.emit(segment, Run::default(), ph)
    })
}

fn udp_probe(dst: Ipv6Addr, port: u16) -> Vec<u8> {
    let dgram = udp::Repr {
        src_port: scan_sport(port),
        dst_port: port,
        payload: Vec::new(),
    };
    let l4_len = udp::HEADER_LEN + PROBE_PAYLOAD.len();
    probe(dst, Protocol::Udp, l4_len, |pkt| {
        let segment = wire::push_segment(pkt, udp::HEADER_LEN, PROBE_PAYLOAD);
        let ph = PseudoHeader::V6 {
            src: scanner_addr(),
            dst,
        };
        dgram.emit(segment, Run::default(), ph)
    })
}

/// What the scanner heard back, keyed by responding address.
#[derive(Default)]
struct Replies {
    /// Addresses that answered the echo.
    live: BTreeSet<Ipv6Addr>,
    /// (address, port) pairs that answered SYN with SYN/ACK.
    open_tcp: BTreeSet<(Ipv6Addr, u16)>,
    /// (address, port) pairs that answered a UDP probe with data.
    open_udp: BTreeSet<(Ipv6Addr, u16)>,
}

impl Replies {
    /// Classify one packet captured at the scanner tap (an inner IPv6
    /// packet as it crossed the tunnel outward).
    fn absorb(&mut self, bytes: &[u8]) {
        let Ok(p) = ipv6::Packet::new_checked(bytes) else {
            return;
        };
        let repr = ipv6::Repr::parse(&p);
        match repr.next_header {
            Protocol::Icmpv6 => {
                if let Ok(icmpv6::Repr::EchoReply { ident, .. }) =
                    icmpv6::Repr::parse_bytes(repr.src, repr.dst, p.payload())
                {
                    if ident == ECHO_IDENT {
                        self.live.insert(repr.src);
                    }
                }
            }
            Protocol::Tcp => {
                if let Ok(seg) = tcp::Packet::new_checked(p.payload()) {
                    let flags = seg.flags();
                    if flags.contains(tcp::Flags::SYN) && flags.contains(tcp::Flags::ACK) {
                        self.open_tcp.insert((repr.src, seg.src_port()));
                    }
                }
            }
            Protocol::Udp => {
                if let Ok(d) = udp::Packet::new_checked(p.payload()) {
                    self.open_udp.insert((repr.src, d.src_port()));
                }
            }
            _ => {}
        }
    }
}

/// Inject a wave of probes, each built as it is injected, and simulate
/// until the replies drained.
fn probe_wave(
    sim: &mut Simulation,
    probes: impl IntoIterator<Item = Vec<u8>>,
    until: SimTime,
    replies: &mut Replies,
) {
    for p in probes {
        sim.inject_wan(p);
    }
    sim.run_until(until);
    for bytes in sim.internet_mut().take_scanner_rx() {
        replies.absorb(&bytes);
    }
}

/// What the settle leaves the scanner to work with. None of it depends
/// on the firewall policy, because the settle does not.
struct Targets {
    /// Every global address a device holds, with its category and
    /// addressing mode (never shown to the scanner).
    truth: BTreeMap<Ipv6Addr, (&'static str, &'static str)>,
    /// The hitlist extrapolated from the passive observations.
    candidates: Vec<Ipv6Addr>,
    /// The dense low-IID sweep baseline.
    dense: Vec<Ipv6Addr>,
}

/// Build one home behind a router running `policy`, let it live its
/// normal life for `settle` while the internet side passively observes
/// outbound sources, and read off the ground truth and the hitlist.
/// With `mesh` set, every device sits behind a 6LoWPAN border router:
/// the observations, the extrapolation, and later the probes all see
/// leaf GUAs that only exist on the Ethernet side because the border
/// router decompressed and forwarded them.
///
/// Panics if the router filtered any inbound v6 packet during the
/// settle: only then is the settle identical under every looser policy,
/// which [`scan_home`] relies on to probe them all from this one run.
fn settle_home(
    home: &HomeSpec<NetworkConfig>,
    policy: FirewallPolicy,
    settle: SimTime,
    mesh: bool,
) -> (Simulation, Targets) {
    let router = Router::new(home.config.router_config_with(policy));
    let internet = Internet::new(scenario::build_zones(&home.profiles));
    let mut b = SimulationBuilder::new(router, internet);
    let sim_seed = home.seed ^ home.config as u64;
    let link = if mesh { Link::Mesh } else { Link::Ethernet };
    // The scan never reads the 802.15.4 air, so nothing records it.
    let devices = Devices::attach(&mut b, &home.profiles, link, sim_seed, false);
    let mut sim = b.seed(sim_seed).capture(false).build();
    sim.internet_mut().attach_scanner(scanner_addr());
    sim.run_until(settle);
    let filtered = sim.router().wan_v6_filtered;
    assert_eq!(
        filtered,
        0,
        "the {} settle filtered {filtered} inbound v6 packet(s), so a looser policy \
         would not settle identically",
        policy.label()
    );

    let mut truth = BTreeMap::new();
    for i in 0..home.profiles.len() {
        let dev = devices.get(&sim, i);
        let category = dev.profile().category.label();
        for (addr, mode) in dev.gua_inventory() {
            truth.insert(addr, (category, mode));
        }
    }

    let observed: Vec<Ipv6Addr> = sim.internet().observed_v6_sources().copied().collect();
    let targets = Targets {
        truth,
        candidates: exposure::hitlist(addrs::LAN_PREFIX, &observed, HITLIST_NEIGHBORHOOD),
        dense: exposure::dense_sweep(addrs::LAN_PREFIX, DENSE_BUDGET),
    };
    (sim, targets)
}

/// Switch a settled home's router to `policy` and probe it, folding
/// target rows and hitlist stats into `out`: a liveness wave, then a
/// service sweep of the responsive ground-truth addresses.
fn probe_policy(
    sim: &mut Simulation,
    targets: &Targets,
    policy: FirewallPolicy,
    plan: &ScanPlan,
    out: &mut HomeScanOutcome,
) {
    let Targets {
        truth,
        candidates,
        dense,
    } = targets;
    sim.router_mut().set_wan_v6_firewall(policy);

    // Liveness. The union covers the scanner's candidate lists and — for
    // the firewall measurement — the ground truth itself.
    let probe_set: BTreeSet<Ipv6Addr> = candidates
        .iter()
        .chain(dense.iter())
        .chain(truth.keys())
        .copied()
        .collect();
    let mut replies = Replies::default();
    let echoes = probe_set
        .iter()
        .enumerate()
        .map(|(i, &dst)| echo_probe(dst, i as u16));
    let t1 = sim.now() + PROBE_WINDOW;
    probe_wave(sim, echoes, t1, &mut replies);

    // Service sweep over responsive ground-truth addresses.
    let sweep_targets: Vec<Ipv6Addr> = truth
        .keys()
        .filter(|a| replies.live.contains(a))
        .copied()
        .collect();
    let probes = sweep_targets.iter().flat_map(|&dst| {
        let syns = plan.tcp.iter().map(move |&port| syn_probe(dst, port));
        syns.chain(plan.udp.iter().map(move |&port| udp_probe(dst, port)))
    });
    probe_wave(sim, probes, t1 + PROBE_WINDOW, &mut replies);

    let label = policy.label().to_string();
    for (&addr, &(category, mode)) in truth {
        out.targets.push(TargetOutcome {
            policy: label.clone(),
            category: category.to_string(),
            addressing: mode.to_string(),
            responsive: replies.live.contains(&addr),
            open_tcp: plan
                .tcp
                .iter()
                .filter(|p| replies.open_tcp.contains(&(addr, **p)))
                .count() as u64,
            open_udp: plan
                .udp
                .iter()
                .filter(|p| replies.open_udp.contains(&(addr, **p)))
                .count() as u64,
        });
    }
    out.hitlist.push((
        label,
        HitlistStats {
            truth_addrs: truth.len() as u64,
            candidates: candidates.len() as u64,
            covered: truth.keys().filter(|a| candidates.contains(a)).count() as u64,
            responsive: candidates
                .iter()
                .filter(|a| replies.live.contains(a))
                .count() as u64,
            dense_candidates: dense.len() as u64,
            dense_covered: truth.keys().filter(|a| dense.contains(a)).count() as u64,
            dense_responsive: dense.iter().filter(|a| replies.live.contains(a)).count() as u64,
        },
    ));
}

/// Scan one home under every requested policy, in order.
///
/// The home settles once, behind the strictest requested policy; each
/// policy then probes its own [`Simulation::fork`] of the settled home
/// with the router switched to that policy (the last one probes the
/// settled simulation itself). This gives the same outcome as settling
/// a fresh simulation per policy from the same seed, because the
/// settle is identical under every policy: nothing inbound during the
/// settle is unsolicited, so no policy filters any of it. That is a
/// checked precondition — the shared settle panics (and the campaign
/// records a failed home) if its router filtered a single inbound v6
/// packet. So the probe waves hit identical device state, and
/// reachability under a stricter policy is a subset of reachability
/// under a looser one.
pub fn scan_home(
    home: &HomeSpec<NetworkConfig>,
    policies: &[FirewallPolicy],
    plan: &ScanPlan,
    settle: SimTime,
    mesh: bool,
) -> HomeScanOutcome {
    let mut out = HomeScanOutcome {
        devices: home.profiles.len() as u64,
        ..Default::default()
    };
    let Some((&last, rest)) = policies.split_last() else {
        return out;
    };
    let strictest = rest.iter().copied().fold(last, Ord::min);
    let (mut sim, targets) = settle_home(home, strictest, settle, mesh);
    for &policy in rest {
        let mut fork = sim.fork().expect("devices and border routers fork");
        probe_policy(&mut fork, &targets, policy, plan, &mut out);
    }
    probe_policy(&mut sim, &targets, last, plan, &mut out);
    out
}

/// Execute a campaign: stream the homes from the lazy planner into the
/// worker pool, fold each worker's scans into its own partial report
/// and merge the partials ([`ExposureReport::merge`] only sums integer
/// counters, so the merged bytes equal the serial in-order fold's).
/// Worker crashes are isolated and recorded in
/// [`ExposureReport::failures`] without perturbing the serialized
/// aggregates.
pub fn run(spec: &WanScanSpec) -> ExposureReport {
    let (dev_min, dev_max) = spec.device_range;
    let settle = SimTime::from_secs(spec.settle_s);
    let (partials, failures) = run_partials(
        (0..spec.homes).map(|i| plan_home(spec.seed, i, &spec.mix, dev_min..=dev_max)),
        spec.workers,
        || (),
        |_, home: HomeSpec<NetworkConfig>| {
            let mesh = crate::fleet::home_is_mesh(home.seed, spec.mesh_per_mille);
            scan_home(&home, &spec.policies, &spec.plan, settle, mesh)
        },
        || ExposureReport::new(spec.seed),
        |partial, _index, outcome| partial.absorb_home(&outcome),
    );
    let mut report = ExposureReport::new(spec.seed);
    for partial in &partials {
        report.merge(partial);
    }
    for f in failures {
        report.absorb_failure(f.index, f.message);
    }
    report
}

/// Human-readable campaign summary (the non-`--json` CLI output).
pub fn render(report: &ExposureReport) -> String {
    use std::fmt::Write;
    let mut out = String::new();
    let _ = writeln!(
        out,
        "WAN exposure scan: {} homes, {} devices (seed {:#x})",
        report.homes, report.devices, report.campaign_seed
    );
    let _ = writeln!(out, "\nHitlist vs ground truth, per firewall policy:");
    for (policy, h) in &report.hitlist {
        let _ = writeln!(
            out,
            "  {policy:<13} {:>5} candidates covering {}/{} true GUAs ({} responsive); \
             dense sweep {} covering {} ({} responsive)",
            h.candidates,
            h.covered,
            h.truth_addrs,
            h.responsive,
            h.dense_candidates,
            h.dense_covered,
            h.dense_responsive,
        );
    }
    let _ = writeln!(
        out,
        "\nOpen ports reachable from the Internet (category x policy):"
    );
    let _ = writeln!(
        out,
        "  {:<14} {:>12} {:>10} {:>10}  targets responsive",
        "category", "default-deny", "pinholed", "open"
    );
    for (cat, by_policy) in &report.cells {
        let (mut targets, mut responsive) = (0u64, 0u64);
        for modes in by_policy.values() {
            for cell in modes.values() {
                targets += cell.targets;
                responsive += cell.responsive;
            }
        }
        let _ = writeln!(
            out,
            "  {:<14} {:>12} {:>10} {:>10}  {targets:>7} {responsive:>10}",
            cat,
            report.open_ports(cat, "default-deny"),
            report.open_ports(cat, "pinholed"),
            report.open_ports(cat, "open"),
        );
    }
    let violations = report.monotonic_violations();
    if violations.is_empty() {
        let _ = writeln!(out, "\nPolicy monotonicity: ok (open >= pinholed >= deny)");
    } else {
        for v in &violations {
            let _ = writeln!(out, "\nPolicy monotonicity VIOLATED: {v}");
        }
    }
    if !report.failures.is_empty() {
        let _ = writeln!(out, "\n{} home(s) failed to scan:", report.failures.len());
        for (index, msg) in &report.failures {
            let _ = writeln!(out, "  home {index}: {msg}");
        }
    }
    out
}

#[cfg(test)]
mod tests {
    use super::*;
    use v6brick_devices::registry;

    fn one_home(ids: &[&str], config: NetworkConfig) -> HomeSpec<NetworkConfig> {
        HomeSpec {
            index: 0,
            seed: 0x5ca9_0001,
            config,
            profiles: ids
                .iter()
                .map(|id| registry::lookup(id).expect("known device id"))
                .collect(),
        }
    }

    /// A probe as the scanner used to compose it: the L4 bytes, inside
    /// an IPv6 packet, inside the tunnel broker's protocol-41 IPv4.
    fn encap(next_header: Protocol, dst: Ipv6Addr, l4: Vec<u8>) -> Vec<u8> {
        let inner = ipv6::Repr {
            src: scanner_addr(),
            dst,
            next_header,
            hop_limit: 64,
            payload_len: l4.len(),
        }
        .build(&l4);
        v6brick_net::ipv4::Repr {
            src: addrs::TUNNEL_REMOTE_IPV4,
            dst: addrs::ROUTER_WAN_IPV4,
            protocol: Protocol::Ipv6,
            ttl: 64,
            payload_len: inner.len(),
        }
        .build(&inner)
    }

    #[test]
    fn one_buffer_probes_equal_the_encapsulated_composition() {
        let ph = |dst| PseudoHeader::V6 {
            src: scanner_addr(),
            dst,
        };
        let dsts: [Ipv6Addr; 3] = [
            "2001:db8:10:1::1".parse().unwrap(),
            "2001:db8:10:1:c2ff:4dff:fe2e:1a2b".parse().unwrap(),
            "2001:db8:10:1:ffff:ffff:ffff:fffe".parse().unwrap(),
        ];
        for dst in dsts {
            for (seq, port) in [
                (0, 22),
                (1, 80),
                (255, 443),
                (4_097, 5_353),
                (u16::MAX, 65_535),
            ] {
                let icmp = icmpv6::Repr::EchoRequest {
                    ident: ECHO_IDENT,
                    seq,
                    payload: b"v6scan".to_vec(),
                }
                .build(scanner_addr(), dst);
                assert_eq!(echo_probe(dst, seq), encap(Protocol::Icmpv6, dst, icmp));
                let syn = tcp::Repr::syn(scan_sport(port), port, 0x5ca9).build(ph(dst));
                assert_eq!(syn_probe(dst, port), encap(Protocol::Tcp, dst, syn));
                let dgram = udp::Repr {
                    src_port: scan_sport(port),
                    dst_port: port,
                    payload: b"v6scan".to_vec(),
                }
                .build(ph(dst));
                assert_eq!(udp_probe(dst, port), encap(Protocol::Udp, dst, dgram));
            }
        }
    }

    #[test]
    fn open_home_exposes_services_deny_home_exposes_nothing() {
        let home = one_home(&["samsung_fridge", "hue_hub"], NetworkConfig::Ipv6Only);
        let outcome = scan_home(
            &home,
            &FirewallPolicy::ALL,
            &ScanPlan::wan(),
            SimTime::from_secs(45),
            false,
        );
        assert_eq!(outcome.devices, 2);

        let open_ports = |policy: &str| -> u64 {
            outcome
                .targets
                .iter()
                .filter(|t| t.policy == policy)
                .map(|t| t.open_tcp + t.open_udp)
                .sum()
        };
        // Under the routed-/64 posture the fridge's v6-only ports are on
        // the Internet; default-deny hides everything, pinholes sit
        // in between (the hub's 80/443 are pinholed service ports).
        assert!(open_ports("open") > 0, "open policy must expose services");
        assert_eq!(open_ports("default-deny"), 0);
        assert!(open_ports("pinholed") <= open_ports("open"));
        assert!(
            outcome
                .targets
                .iter()
                .filter(|t| t.policy == "default-deny")
                .all(|t| !t.responsive),
            "default-deny must block even liveness probes"
        );

        // The whole-home report agrees with the lattice.
        let mut report = ExposureReport::new(1);
        report.absorb_home(&outcome);
        assert!(report.monotonic_violations().is_empty());
    }

    #[test]
    fn hitlist_quality_is_policy_independent_but_responsiveness_is_not() {
        let home = one_home(&["samsung_fridge", "hue_hub"], NetworkConfig::Ipv6Only);
        let outcome = scan_home(
            &home,
            &FirewallPolicy::ALL,
            &ScanPlan::wan(),
            SimTime::from_secs(45),
            false,
        );
        let stats: BTreeMap<&str, &HitlistStats> = outcome
            .hitlist
            .iter()
            .map(|(p, h)| (p.as_str(), h))
            .collect();
        let open = stats["open"];
        let deny = stats["default-deny"];
        // Same settle phase -> same observations -> same hitlist.
        assert_eq!(open.candidates, deny.candidates);
        assert_eq!(open.covered, deny.covered);
        assert_eq!(open.truth_addrs, deny.truth_addrs);
        // But the firewall decides who answers.
        assert_eq!(deny.responsive, 0);
        assert!(open.truth_addrs > 0);
    }

    #[test]
    fn meshed_home_exposes_leaf_guas_through_the_border_router() {
        // Devices that actually move Internet traffic over IPv6 — the
        // passive tap has to see them for the hitlist to have anything
        // to extrapolate from.
        let home = one_home(
            &["google_home_mini", "echo_show_5"],
            NetworkConfig::Ipv6Only,
        );
        let meshed = scan_home(
            &home,
            &FirewallPolicy::ALL,
            &ScanPlan::wan(),
            SimTime::from_secs(90),
            true,
        );
        let stats: BTreeMap<&str, &HitlistStats> = meshed
            .hitlist
            .iter()
            .map(|(p, h)| (p.as_str(), h))
            .collect();
        let open = stats["open"];
        // Leaf GUAs are real ground truth even though the leaves only
        // touch the Ethernet through the border router's forwarding...
        assert!(open.truth_addrs > 0, "meshed leaves still hold GUAs");
        // ...the scanner's passive tap observed them (the BR forwarded
        // their flows), so the hitlist extrapolation covers them...
        assert!(open.covered > 0, "hitlist must cover BR-derived GUAs");
        // ...and under the open policy a WAN probe crosses the tunnel,
        // the LAN, *and* the mesh, and comes back.
        assert!(
            open.responsive > 0,
            "leaves behind the border router must answer WAN probes under the open policy"
        );
        // Default-deny still blocks everything — the border router is a
        // transit, not a firewall bypass.
        assert_eq!(stats["default-deny"].responsive, 0);
    }
}
