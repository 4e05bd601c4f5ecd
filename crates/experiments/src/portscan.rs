//! The active port-scan experiment (§4.3, §5.4.2).
//!
//! Mirrors the paper's nmap methodology: an ICMPv6 echo to ff02::1
//! refreshes the router's neighbor table, scan targets come from that
//! table (self-assigned addresses may be temporary, so they are harvested
//! live), then TCP SYN scans cover the requested port range and UDP
//! probes cover 1–1024. SYN→SYN/ACK is open, SYN→RST closed; a UDP
//! response is open, ICMPv6 port-unreachable closed.

use rand::Rng;
use std::any::Any;
use std::collections::BTreeMap;
use std::net::{IpAddr, Ipv4Addr};
use v6brick_core::ports::ScanResult;
use v6brick_devices::profile::DeviceProfile;
use v6brick_devices::stack::IotDevice;
use v6brick_fleet::run_indexed;
use v6brick_net::ipv6::mcast;
use v6brick_net::parse::{ParsedPacket, L4};
use v6brick_net::{icmpv6, tcp, Mac};
use v6brick_sim::event::SimTime;
use v6brick_sim::host::{Effects, Host, HostId};
use v6brick_sim::internet::Internet;
use v6brick_sim::wire;
use v6brick_sim::{Router, RouterConfig, Simulation, SimulationBuilder};

/// Which ports to probe.
#[derive(Debug, Clone)]
pub struct ScanPlan {
    /// TCP ports (the paper scans 1–65535).
    pub tcp: Vec<u16>,
    /// UDP ports (the paper scans 1–1024).
    pub udp: Vec<u16>,
}

impl ScanPlan {
    /// The paper's full plan: TCP 1–65535, UDP 1–1024.
    pub fn full() -> ScanPlan {
        ScanPlan {
            tcp: (1..=65535).collect(),
            udp: (1..=1024).collect(),
        }
    }

    /// A fast plan covering the well-known range plus the specific ports
    /// the study cares about; used by tests and the default CLI run.
    pub fn quick() -> ScanPlan {
        let mut tcp: Vec<u16> = (1..=1024).collect();
        tcp.extend([
            5353, 5540, 6668, 7000, 8001, 8060, 8080, 8443, 8883, 9999, 37993, 39500, 46525, 46757,
            49152, 49153,
        ]);
        ScanPlan {
            tcp,
            udp: (1..=1024).collect(),
        }
    }

    /// The Internet-side sweep: the service ports [`ScanPlan::quick`]
    /// carries beyond the well-known range, plus the handful of low
    /// well-known ports WAN scanners lead with. Small enough that a
    /// fleet campaign can afford it against every responsive address.
    pub fn wan() -> ScanPlan {
        let mut tcp: Vec<u16> = vec![21, 22, 23, 53, 80, 123, 443, 554];
        tcp.extend(ScanPlan::quick().tcp.into_iter().filter(|p| *p > 1024));
        tcp.sort_unstable();
        tcp.dedup();
        ScanPlan {
            tcp,
            udp: vec![53, 123, 1900, 5353, 5540],
        }
    }
}

/// Scan results for one device over both families.
#[derive(Debug, Clone, Default)]
pub struct DeviceScan {
    /// IPv4.
    pub v4: ScanResult,
    /// IPv6.
    pub v6: ScanResult,
}

/// The scanning host.
#[derive(Clone)]
struct Scanner {
    mac: Mac,
    addr4: Ipv4Addr,
    addr6: std::net::Ipv6Addr,
    plan: ScanPlan,
    /// (target ip, port queue index) cursor.
    targets: Vec<(IpAddr, Mac)>,
    cursor_target: usize,
    cursor_port: usize,
    udp_phase: bool,
    results: BTreeMap<IpAddr, ScanResult>,
    pinged: bool,
    done: bool,
}

const SCAN_BATCH: usize = 2048;
/// When the targets are harvested from the router, in seconds.
const HARVEST_S: u64 = 60;
/// When the sweep starts, in seconds: after the harvest.
const SCAN_START_S: u64 = 65;

impl Scanner {
    /// A scanner with no targets yet: [`scan`] harvests them from the
    /// router once the devices have settled.
    fn new(plan: ScanPlan) -> Scanner {
        Scanner {
            mac: Mac::new(0x02, 0x99, 0x99, 0x99, 0x99, 0x02),
            addr4: Ipv4Addr::new(192, 168, 1, 251),
            addr6: "2001:db8:10:1::5ca0".parse().unwrap(),
            plan,
            targets: Vec::new(),
            cursor_target: 0,
            cursor_port: 0,
            udp_phase: false,
            results: BTreeMap::new(),
            pinged: false,
            done: false,
        }
    }

    fn send_batch(&mut self, fx: &mut Effects) {
        let mut sent = 0;
        while sent < SCAN_BATCH {
            if self.cursor_target >= self.targets.len() {
                if self.udp_phase {
                    self.done = true;
                    return;
                }
                // TCP pass finished; start the UDP pass.
                self.udp_phase = true;
                self.cursor_target = 0;
                self.cursor_port = 0;
                continue;
            }
            let ports = if self.udp_phase {
                &self.plan.udp
            } else {
                &self.plan.tcp
            };
            if self.cursor_port >= ports.len() {
                self.cursor_target += 1;
                self.cursor_port = 0;
                continue;
            }
            let port = ports[self.cursor_port];
            self.cursor_port += 1;
            let (ip, dmac) = self.targets[self.cursor_target];
            if self.udp_phase {
                self.send_udp_probe(ip, dmac, port, fx);
            } else {
                self.send_syn(ip, dmac, port, fx);
            }
            sent += 1;
        }
    }

    fn send_syn(&mut self, ip: IpAddr, dmac: Mac, port: u16, fx: &mut Effects) {
        let sport = 33_000 + (port % 32_000);
        let syn = tcp::Repr::syn(sport, port, u32::from(port) ^ 0x5ca9);
        match ip {
            IpAddr::V6(dst) => {
                fx.send_frame(wire::tcp6_frame(self.mac, dmac, self.addr6, dst, &syn))
            }
            IpAddr::V4(dst) => {
                fx.send_frame(wire::tcp4_frame(self.mac, dmac, self.addr4, dst, &syn))
            }
        }
    }

    fn send_udp_probe(&mut self, ip: IpAddr, dmac: Mac, port: u16, fx: &mut Effects) {
        let sport = 33_000 + (port % 32_000);
        match ip {
            IpAddr::V6(dst) => fx.send_frame(wire::udp6_frame(
                self.mac,
                dmac,
                self.addr6,
                dst,
                sport,
                port,
                b"probe".to_vec(),
            )),
            IpAddr::V4(dst) => fx.send_frame(wire::udp4_frame(
                self.mac,
                dmac,
                self.addr4,
                dst,
                sport,
                port,
                b"probe".to_vec(),
            )),
        }
    }
}

impl Host for Scanner {
    fn mac(&self) -> Mac {
        self.mac
    }

    fn on_start(&mut self, _now: SimTime, fx: &mut Effects) {
        // Wait out the settling window: the paper scans a long-running
        // testbed, so every device must have booted and configured its
        // addresses before the sweep starts. Until then the scanner
        // sends nothing and draws no random numbers, so the devices
        // settle exactly as they would without it.
        fx.set_timer(SimTime::from_secs(SCAN_START_S), 1);
    }

    fn on_frame(&mut self, _now: SimTime, frame: &[u8], _fx: &mut Effects) {
        let Ok(p) = ParsedPacket::parse(frame) else {
            return;
        };
        let Some(src_ip) = p.src_ip() else { return };
        // Only unicast replies addressed to the scanner count: multicast
        // chatter (mDNS announcements) must not read as open ports.
        let to_me = matches!(p.dst_ip(), Some(IpAddr::V4(d)) if d == self.addr4)
            || matches!(p.dst_ip(), Some(IpAddr::V6(d)) if d == self.addr6);
        if !to_me {
            return;
        }
        match &p.l4 {
            L4::Tcp { flags, dst_port, src_port, .. }
                // Replies to our SYNs come back with src=scanned port.
                if *dst_port == 33_000 + (*src_port % 32_000)
                    && flags.contains(tcp::Flags::SYN)
                    && flags.contains(tcp::Flags::ACK)
                => {
                    self.results.entry(src_ip).or_default().open_tcp.insert(*src_port);
                }
            L4::Udp { src_port, .. } => {
                self.results.entry(src_ip).or_default().open_udp.insert(*src_port);
            }
            L4::Icmpv6(icmpv6::Repr::DstUnreachable { .. }) => {
                // Port closed — nothing to record (closed is the default).
            }
            _ => {}
        }
    }

    fn on_timer(&mut self, _now: SimTime, _token: u64, fx: &mut Effects) {
        if !self.pinged {
            self.pinged = true;
            // The paper's neighbor-table refresh.
            let echo = icmpv6::Repr::EchoRequest {
                ident: 0x5ca9,
                seq: 1,
                payload: vec![],
            };
            fx.send_frame(wire::icmpv6_frame(
                self.mac,
                Mac::for_ipv6_multicast(mcast::ALL_NODES),
                self.addr6,
                mcast::ALL_NODES,
                &echo,
            ));
        }
        self.send_batch(fx);
        if !self.done {
            let jitter = fx.rng.gen_range(0..5_000u64);
            fx.set_timer(SimTime(20_000 + jitter), 1);
        }
    }

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

/// Run the scan over the given devices. Two phases, like the paper:
///
/// 1. a short dual-stack settling window in which devices boot and
///    configure addresses, with the scanner on the LAN but silent;
/// 2. target harvesting from the router's neighbor table and DHCPv4
///    leases, then the scanner's all-nodes ping and SYN/UDP sweeps.
///
/// The home settles once; the sweep then runs on every available core,
/// each extra core on a fork of the settled home. The results do not
/// depend on the core count.
pub fn scan(profiles: &[DeviceProfile], plan: &ScanPlan) -> BTreeMap<String, DeviceScan> {
    let workers = std::thread::available_parallelism().map_or(1, |n| n.get());
    sweep(profiles, plan, workers)
}

/// [`scan`] with the sweep dealt over `workers` shards (capped at the
/// number of devices harvested). Whole devices are dealt round-robin in
/// harvest order, all of a device's addresses to one shard; every shard
/// after the first sweeps its own fork of the settled home. A device
/// answers a probe the same whenever it arrives, so the results do not
/// depend on `workers`.
fn sweep(
    profiles: &[DeviceProfile],
    plan: &ScanPlan,
    workers: usize,
) -> BTreeMap<String, DeviceScan> {
    // Phase 1: boot the devices in a dual-stack network.
    let zones = crate::scenario::build_zones(profiles);
    let internet = Internet::new(zones);
    let router = Router::new(RouterConfig::dual_stack());
    let mut b = SimulationBuilder::new(router, internet);
    for p in profiles {
        b.add_host(Box::new(IotDevice::new(p.clone())));
    }
    let sid = b.add_host(Box::new(Scanner::new(plan.clone())));
    let mut sim = b.capture(false).seed(0x5ca9).build();
    sim.run_until(SimTime::from_secs(HARVEST_S));

    // Harvest targets: IPv6 neighbor table + DHCPv4 leases.
    let mut targets: Vec<(IpAddr, Mac)> = Vec::new();
    for (ip, mac) in sim.router().neighbor_table_v6() {
        // Everything in the neighbor table gets scanned, link-locals
        // included — exactly the paper's harvest (devices without GUAs,
        // like the Hue hub, still expose services on their LLA).
        if !ip.is_multicast() && !ip.is_unspecified() {
            targets.push((IpAddr::V6(ip), mac));
        }
    }
    for (mac, ip) in sim.router().leases_v4() {
        targets.push((IpAddr::V4(ip), mac));
    }
    // Drop phone/scanner artifacts: keep only known device MACs.
    let device_macs: BTreeMap<Mac, String> =
        profiles.iter().map(|p| (p.mac, p.id.clone())).collect();
    targets.retain(|(_, m)| device_macs.contains_key(m));

    // Phase 2: deal the devices to shards and sweep them in parallel.
    let mut dealt: BTreeMap<Mac, usize> = BTreeMap::new();
    for (_, mac) in &targets {
        let next = dealt.len();
        dealt.entry(*mac).or_insert(next);
    }
    let shards = workers.min(dealt.len()).max(1);
    let mut shard_targets = vec![Vec::new(); shards];
    for &(ip, mac) in &targets {
        shard_targets[dealt[&mac] % shards].push((ip, mac));
    }
    let forks: Vec<Simulation> = (1..shards)
        .map(|_| sim.fork().expect("every port-scan host forks"))
        .collect();

    // Fold per-address results into per-device results via MAC.
    let mut owner: BTreeMap<IpAddr, &String> = BTreeMap::new();
    for (ip, mac) in &targets {
        owner.entry(*ip).or_insert(&device_macs[mac]);
    }
    let devices = profiles
        .iter()
        .map(|p| (p.id.clone(), DeviceScan::default()))
        .collect();
    run_indexed(
        std::iter::once(sim).chain(forks).zip(shard_targets),
        shards,
        |(mut sim, targets)| {
            scanner_mut(&mut sim, sid).targets = targets;
            sweep_shard(&mut sim, sid)
        },
        devices,
        |out: &mut BTreeMap<String, DeviceScan>, _, shard| {
            for (ip, result) in shard {
                let Some(id) = owner.get(&ip) else { continue };
                let entry = out.get_mut(*id).expect("device entry");
                let family = match ip {
                    IpAddr::V4(_) => &mut entry.v4,
                    IpAddr::V6(_) => &mut entry.v6,
                };
                family.open_tcp.extend(result.open_tcp);
                family.open_udp.extend(result.open_udp);
            }
        },
    )
}

fn scanner_mut(sim: &mut Simulation, sid: HostId) -> &mut Scanner {
    sim.host_mut(sid)
        .as_any_mut()
        .downcast_mut::<Scanner>()
        .expect("scanner host")
}

/// Run one shard a second at a time until its scanner has sent its last
/// probe, then one second more for the last replies; returns what the
/// scanner found, per address. `run_until` peeks before it pops, so the
/// steps order no event differently from one long run.
fn sweep_shard(sim: &mut Simulation, sid: HostId) -> BTreeMap<IpAddr, ScanResult> {
    while !scanner_mut(sim, sid).done {
        sim.run_until(sim.now() + SimTime::from_secs(1));
    }
    sim.run_until(sim.now() + SimTime::from_secs(1));
    std::mem::take(&mut scanner_mut(sim, sid).results)
}

#[cfg(test)]
mod tests {
    use super::*;
    use v6brick_core::ports;
    use v6brick_devices::registry;

    #[test]
    fn fridge_scan_finds_v6_only_ports() {
        let profiles = vec![registry::by_id("samsung_fridge")];
        let results = scan(&profiles, &ScanPlan::quick());
        let fridge = &results["samsung_fridge"];
        assert!(fridge.v4.open_tcp.contains(&8001));
        assert!(fridge.v4.open_tcp.contains(&8080));
        for p in [37993u16, 46525, 46757] {
            assert!(fridge.v6.open_tcp.contains(&p), "v6-only port {p}");
            assert!(!fridge.v4.open_tcp.contains(&p));
        }
        let diff = ports::diff(&fridge.v4, &fridge.v6);
        assert_eq!(diff.tcp_v6_only, [37993, 46525, 46757].into());
    }

    #[test]
    fn v4_only_camera_ports_absent_on_v6() {
        let profiles = vec![registry::by_id("amcrest_cam")];
        let results = scan(&profiles, &ScanPlan::quick());
        let cam = &results["amcrest_cam"];
        assert!(cam.v4.open_tcp.contains(&554));
        assert!(cam.v4.open_tcp.contains(&80));
        // Amcrest has an IPv6 address but serves nothing on it.
        assert!(cam.v6.open_tcp.is_empty());
    }

    #[test]
    fn sweep_results_do_not_depend_on_the_worker_count() {
        let profiles: Vec<DeviceProfile> = [
            "samsung_fridge",
            "amcrest_cam",
            "microseven_cam",
            "yi_camera",
            "roku_tv",
            "wemo_plug",
            "tplink_kasa_plug",
            "hue_hub",
        ]
        .into_iter()
        .map(registry::by_id)
        .collect();
        let plan = ScanPlan::quick();
        let serial = format!("{:?}", sweep(&profiles, &plan, 1));
        assert!(
            serial.contains("37993"),
            "the fridge's v6-only port: {serial}"
        );
        for workers in [2, 3, 8] {
            assert_eq!(
                format!("{:?}", sweep(&profiles, &plan, workers)),
                serial,
                "{workers} workers"
            );
        }
    }

    #[test]
    fn closed_ports_stay_closed() {
        let profiles = vec![registry::by_id("hue_hub")];
        let results = scan(&profiles, &ScanPlan::quick());
        let hue = &results["hue_hub"];
        assert!(hue.v4.open_tcp.contains(&80) && hue.v4.open_tcp.contains(&443));
        assert!(hue.v6.open_tcp.contains(&80) && hue.v6.open_tcp.contains(&443));
        assert!(!hue.v4.open_tcp.contains(&22));
        assert!(!hue.v6.open_tcp.contains(&22));
    }
}
