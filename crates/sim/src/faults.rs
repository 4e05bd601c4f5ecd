//! Deterministic, schedulable fault injection.
//!
//! A [`FaultPlan`] is a list of absolute-time [`FaultWindow`]s, each
//! carrying one [`FaultKind`]. The plan is cloned into every layer that
//! can fail — the engine (tunnel outages, LAN loss/corruption windows),
//! the router (RA suppression, DHCPv6 silence), and the internet model
//! (per-zone DNS faults) — and each layer consults only the kinds it
//! owns, keyed by the current virtual time. Windows are half-open
//! `[start, end)` so that back-to-back flap windows never overlap.
//!
//! Randomized schedules (tunnel flaps) derive from a seed via the same
//! splitmix64 mix the fleet uses for home seeds, so a home's fault
//! timeline is a pure function of `(campaign_seed, home_index)` and the
//! plan never touches the simulation RNG: traces with and without a
//! fault plan stay comparable draw-for-draw (the engine keeps a
//! dedicated fault RNG stream for the per-frame loss decisions).

use crate::event::SimTime;

/// How a DNS fault presents to the querying device.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum DnsFaultMode {
    /// The resolver never answers — queries disappear upstream.
    Timeout,
    /// The resolver answers every query with `SERVFAIL`.
    Servfail,
}

/// Which direction of LAN traffic a loss window applies to.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Direction {
    /// Only frames the router sends toward devices are lossy.
    ToDevices,
    /// Only frames devices send (toward the router or each other).
    FromDevices,
    /// Every LAN frame.
    Both,
}

/// One injectable failure mode.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum FaultKind {
    /// The upstream 6in4 tunnel is down: protocol-41 packets to or from
    /// the tunnel broker vanish on the WAN link. IPv4 is unaffected —
    /// the paper's "advertised but broken" IPv6.
    TunnelV6Outage,
    /// The router stops sending Router Advertisements (periodic and
    /// solicited). Timers keep running so RAs resume when the window
    /// closes.
    RaSuppress,
    /// The router's DHCPv6 server drops every request silently
    /// (Solicit, Request, Information-Request). DHCPv4 is unaffected.
    Dhcpv6Silence,
    /// The upstream resolver misbehaves for matching zones.
    DnsFault {
        /// Suffix match on the query name (`"example.com"` matches
        /// `cdn.example.com`); `None` faults every zone.
        zone: Option<String>,
        /// Timeout or SERVFAIL.
        mode: DnsFaultMode,
    },
    /// Random LAN frame loss during the window.
    LanLoss {
        /// Drop probability in per-mille (0–1000).
        per_mille: u32,
        /// Which direction is lossy.
        direction: Direction,
    },
    /// Random single-byte payload corruption during the window. The
    /// frame still reaches the capture tap and receivers — parsers must
    /// survive it.
    LanCorrupt {
        /// Corruption probability in per-mille (0–1000).
        per_mille: u32,
    },
}

/// A timed fault: `kind` is active for `start <= now < end`.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct FaultWindow {
    /// First instant the fault is active.
    pub start: SimTime,
    /// First instant after the fault (half-open).
    pub end: SimTime,
    /// What fails.
    pub kind: FaultKind,
}

impl FaultWindow {
    /// Is the window active at `now`?
    pub fn active(&self, now: SimTime) -> bool {
        self.start <= now && now < self.end
    }
}

/// A full fault schedule for one simulation run.
#[derive(Debug, Clone, Default, PartialEq, Eq)]
pub struct FaultPlan {
    windows: Vec<FaultWindow>,
}

/// splitmix64 finalizer — the same mix `v6brick-fleet` uses to derive
/// home seeds, copied here because `sim` sits below `fleet` in the
/// dependency order.
fn mix(mut z: u64) -> u64 {
    z = (z ^ (z >> 30)).wrapping_mul(0xbf58_476d_1ce4_e5b9);
    z = (z ^ (z >> 27)).wrapping_mul(0x94d0_49bb_1331_11eb);
    z ^ (z >> 31)
}

/// splitmix64 golden-gamma increment.
const GOLDEN_GAMMA: u64 = 0x9e37_79b9_7f4a_7c15;

impl FaultPlan {
    /// An empty plan (no faults).
    pub fn new() -> FaultPlan {
        FaultPlan::default()
    }

    /// Does the plan inject anything at all?
    pub fn is_empty(&self) -> bool {
        self.windows.is_empty()
    }

    /// The scheduled windows, in insertion order.
    pub fn windows(&self) -> &[FaultWindow] {
        &self.windows
    }

    /// Append an arbitrary window.
    pub fn window(mut self, start: SimTime, end: SimTime, kind: FaultKind) -> FaultPlan {
        assert!(start <= end, "fault window ends before it starts");
        self.windows.push(FaultWindow { start, end, kind });
        self
    }

    /// Schedule a single tunnel outage.
    pub fn tunnel_outage(self, start: SimTime, end: SimTime) -> FaultPlan {
        self.window(start, end, FaultKind::TunnelV6Outage)
    }

    /// Schedule a deterministic tunnel flap: `count` outages of
    /// `down` each, the k-th starting at `first + k*period` plus a
    /// seed-derived jitter of up to a quarter period. The schedule is a
    /// pure function of `seed` (splitmix64 stream), independent of the
    /// simulation RNG.
    pub fn tunnel_flap(
        mut self,
        seed: u64,
        first: SimTime,
        period: SimTime,
        down: SimTime,
        count: u32,
    ) -> FaultPlan {
        let jitter_span = (period.as_micros() / 4).max(1);
        for k in 0..count {
            let draw = mix(seed.wrapping_add((k as u64 + 1).wrapping_mul(GOLDEN_GAMMA)));
            let jitter = SimTime(draw % jitter_span);
            let start = first + SimTime(period.as_micros() * k as u64) + jitter;
            self = self.tunnel_outage(start, start + down);
        }
        self
    }

    /// Schedule an RA-suppression window.
    pub fn ra_suppression(self, start: SimTime, end: SimTime) -> FaultPlan {
        self.window(start, end, FaultKind::RaSuppress)
    }

    /// Schedule a DHCPv6-server-silence window.
    pub fn dhcpv6_silence(self, start: SimTime, end: SimTime) -> FaultPlan {
        self.window(start, end, FaultKind::Dhcpv6Silence)
    }

    /// Schedule a DNS fault for `zone` (suffix match; `None` = all).
    pub fn dns_fault(
        self,
        start: SimTime,
        end: SimTime,
        zone: Option<&str>,
        mode: DnsFaultMode,
    ) -> FaultPlan {
        self.window(
            start,
            end,
            FaultKind::DnsFault {
                zone: zone.map(str::to_string),
                mode,
            },
        )
    }

    /// Schedule a directional LAN-loss window.
    pub fn lan_loss(
        self,
        start: SimTime,
        end: SimTime,
        per_mille: u32,
        direction: Direction,
    ) -> FaultPlan {
        assert!(per_mille <= 1000, "loss is per-mille");
        self.window(
            start,
            end,
            FaultKind::LanLoss {
                per_mille,
                direction,
            },
        )
    }

    /// Schedule a LAN-corruption window.
    pub fn lan_corrupt(self, start: SimTime, end: SimTime, per_mille: u32) -> FaultPlan {
        assert!(per_mille <= 1000, "corruption is per-mille");
        self.window(start, end, FaultKind::LanCorrupt { per_mille })
    }

    /// Is the 6in4 tunnel down at `now`?
    pub fn tunnel_down(&self, now: SimTime) -> bool {
        self.windows
            .iter()
            .any(|w| matches!(w.kind, FaultKind::TunnelV6Outage) && w.active(now))
    }

    /// Are Router Advertisements suppressed at `now`?
    pub fn ra_suppressed(&self, now: SimTime) -> bool {
        self.windows
            .iter()
            .any(|w| matches!(w.kind, FaultKind::RaSuppress) && w.active(now))
    }

    /// Is the DHCPv6 server silent at `now`?
    pub fn dhcpv6_silent(&self, now: SimTime) -> bool {
        self.windows
            .iter()
            .any(|w| matches!(w.kind, FaultKind::Dhcpv6Silence) && w.active(now))
    }

    /// The DNS fault affecting `name` at `now`, if any. The first
    /// matching window wins.
    pub fn dns_fault_for(&self, now: SimTime, name: &str) -> Option<DnsFaultMode> {
        self.windows.iter().find_map(|w| match &w.kind {
            FaultKind::DnsFault { zone, mode } if w.active(now) => {
                let hit = match zone {
                    None => true,
                    Some(z) => {
                        let n = name.strip_suffix('.').unwrap_or(name);
                        n == z
                            || (n.len() > z.len()
                                && n.ends_with(z.as_str())
                                && n.as_bytes()[n.len() - z.len() - 1] == b'.')
                    }
                };
                hit.then_some(*mode)
            }
            _ => None,
        })
    }

    /// The effective LAN loss probability (per-mille) at `now` for a
    /// frame travelling in the given direction. Overlapping windows
    /// combine by maximum.
    pub fn lan_loss_per_mille(&self, now: SimTime, from_router: bool) -> u32 {
        self.windows
            .iter()
            .filter_map(|w| match w.kind {
                FaultKind::LanLoss {
                    per_mille,
                    direction,
                } if w.active(now) => {
                    let applies = match direction {
                        Direction::Both => true,
                        Direction::ToDevices => from_router,
                        Direction::FromDevices => !from_router,
                    };
                    applies.then_some(per_mille)
                }
                _ => None,
            })
            .max()
            .unwrap_or(0)
    }

    /// The effective LAN corruption probability (per-mille) at `now`.
    pub fn lan_corrupt_per_mille(&self, now: SimTime) -> u32 {
        self.windows
            .iter()
            .filter_map(|w| match w.kind {
                FaultKind::LanCorrupt { per_mille } if w.active(now) => Some(per_mille),
                _ => None,
            })
            .max()
            .unwrap_or(0)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn empty_plan_faults_nothing() {
        let p = FaultPlan::new();
        assert!(p.is_empty());
        assert!(!p.tunnel_down(SimTime::from_secs(100)));
        assert!(!p.ra_suppressed(SimTime::ZERO));
        assert!(!p.dhcpv6_silent(SimTime::ZERO));
        assert_eq!(p.dns_fault_for(SimTime::ZERO, "example.com"), None);
        assert_eq!(p.lan_loss_per_mille(SimTime::ZERO, true), 0);
        assert_eq!(p.lan_corrupt_per_mille(SimTime::ZERO), 0);
    }

    #[test]
    fn windows_are_half_open() {
        let p = FaultPlan::new().tunnel_outage(SimTime::from_secs(10), SimTime::from_secs(20));
        assert!(!p.tunnel_down(SimTime(9_999_999)));
        assert!(p.tunnel_down(SimTime::from_secs(10)));
        assert!(p.tunnel_down(SimTime(19_999_999)));
        assert!(!p.tunnel_down(SimTime::from_secs(20)));
    }

    #[test]
    fn dns_fault_suffix_matching() {
        let p = FaultPlan::new().dns_fault(
            SimTime::ZERO,
            SimTime::from_secs(60),
            Some("acme.com"),
            DnsFaultMode::Servfail,
        );
        let t = SimTime::from_secs(5);
        assert_eq!(p.dns_fault_for(t, "acme.com"), Some(DnsFaultMode::Servfail));
        assert_eq!(
            p.dns_fault_for(t, "cdn.acme.com."),
            Some(DnsFaultMode::Servfail)
        );
        assert_eq!(p.dns_fault_for(t, "notacme.com"), None);
        assert_eq!(p.dns_fault_for(SimTime::from_secs(60), "acme.com"), None);

        let all = FaultPlan::new().dns_fault(
            SimTime::ZERO,
            SimTime::from_secs(1),
            None,
            DnsFaultMode::Timeout,
        );
        assert_eq!(
            all.dns_fault_for(SimTime::ZERO, "anything.net"),
            Some(DnsFaultMode::Timeout)
        );
    }

    #[test]
    fn directional_loss_and_max_combination() {
        let p = FaultPlan::new()
            .lan_loss(
                SimTime::ZERO,
                SimTime::from_secs(10),
                100,
                Direction::ToDevices,
            )
            .lan_loss(SimTime::ZERO, SimTime::from_secs(10), 300, Direction::Both);
        let t = SimTime::from_secs(1);
        assert_eq!(p.lan_loss_per_mille(t, true), 300);
        assert_eq!(p.lan_loss_per_mille(t, false), 300);
        let q = FaultPlan::new().lan_loss(
            SimTime::ZERO,
            SimTime::from_secs(10),
            100,
            Direction::FromDevices,
        );
        assert_eq!(q.lan_loss_per_mille(t, true), 0);
        assert_eq!(q.lan_loss_per_mille(t, false), 100);
    }

    #[test]
    fn tunnel_flap_is_deterministic_and_seed_sensitive() {
        let mk = |seed| {
            FaultPlan::new().tunnel_flap(
                seed,
                SimTime::from_secs(60),
                SimTime::from_secs(120),
                SimTime::from_secs(30),
                3,
            )
        };
        assert_eq!(mk(7), mk(7));
        assert_ne!(mk(7), mk(8));
        let p = mk(7);
        assert_eq!(p.windows().len(), 3);
        for (k, w) in p.windows().iter().enumerate() {
            let base = SimTime::from_secs(60 + 120 * k as u64);
            assert!(w.start >= base, "flap {k} starts at or after its slot");
            assert!(w.start.as_micros() < base.as_micros() + 30_000_000);
            assert_eq!(w.end - w.start, SimTime::from_secs(30));
        }
    }
}
