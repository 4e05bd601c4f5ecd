//! The active DNS experiment (§4.3): query AAAA records for every
//! destination domain the devices were observed to use.
//!
//! Like the paper, this runs as a real client: a prober host on the LAN
//! issues one AAAA (and one A) query per name through the simulated
//! resolver path, and records which names return addresses. Nothing reads
//! the zone database directly.

use rand::Rng;
use std::any::Any;
use std::collections::{BTreeMap, BTreeSet};
use std::net::Ipv4Addr;
use v6brick_net::dns::{MessageView, Name, RecordType, Writer};
use v6brick_net::parse::{Net, ParsedPacket, L4};
use v6brick_net::Mac;
use v6brick_sim::event::SimTime;
use v6brick_sim::host::{Effects, Host};
use v6brick_sim::internet::{Internet, ZoneDb};
use v6brick_sim::wire;
use v6brick_sim::{addrs, Router, RouterConfig, SimulationBuilder};

/// What the prober learned about one name.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct DnsReadiness {
    /// Has a.
    pub has_a: bool,
    /// Has AAAA.
    pub has_aaaa: bool,
}

/// Results of the active experiment.
#[derive(Debug, Default)]
pub struct ActiveDnsReport {
    /// Names.
    pub names: BTreeMap<Name, DnsReadiness>,
}

impl ActiveDnsReport {
    /// Names with AAAA records.
    pub fn aaaa_ready(&self) -> BTreeSet<Name> {
        self.names
            .iter()
            .filter(|(_, r)| r.has_aaaa)
            .map(|(n, _)| n.clone())
            .collect()
    }
}

const BATCH: usize = 64;

/// The researcher's probing laptop: a LAN host that walks the name list,
/// `dig`-style, over IPv4.
struct Prober {
    mac: Mac,
    names: Vec<Name>,
    next: usize,
    /// txid → (name, rtype)
    pending: BTreeMap<u16, (usize, RecordType)>,
    results: Vec<DnsReadiness>,
    addr: Ipv4Addr,
    done: bool,
}

impl Prober {
    fn new(names: Vec<Name>) -> Prober {
        let results = vec![DnsReadiness::default(); names.len()];
        Prober {
            mac: Mac::new(0x02, 0x99, 0x99, 0x99, 0x99, 0x01),
            names,
            next: 0,
            pending: BTreeMap::new(),
            results,
            addr: Ipv4Addr::new(192, 168, 1, 250),
            done: false,
        }
    }

    fn send_batch(&mut self, fx: &mut Effects) {
        let mut sent = 0;
        while self.next < self.names.len() && sent < BATCH {
            let idx = self.next;
            self.next += 1;
            for rtype in [RecordType::A, RecordType::Aaaa] {
                let txid = (idx as u16) << 1 | u16::from(rtype == RecordType::Aaaa);
                let q = Writer::query(txid, self.names[idx].as_str(), rtype);
                fx.send_frame(wire::udp4_frame(
                    self.mac,
                    addrs::ROUTER_MAC,
                    self.addr,
                    addrs::DNS4_PRIMARY,
                    33000 + (idx % 16000) as u16,
                    53,
                    q,
                ));
                self.pending.insert(txid, (idx, rtype));
            }
            sent += 1;
        }
        if self.next >= self.names.len() && self.pending.is_empty() {
            self.done = true;
        }
    }
}

impl Host for Prober {
    fn mac(&self) -> Mac {
        self.mac
    }

    fn on_start(&mut self, _now: SimTime, fx: &mut Effects) {
        fx.set_timer(SimTime::from_millis(100), 1);
    }

    fn on_frame(&mut self, _now: SimTime, frame: &[u8], _fx: &mut Effects) {
        let Ok(p) = ParsedPacket::parse(frame) else {
            return;
        };
        if let (
            Net::Ipv4(_),
            L4::Udp {
                src_port: 53,
                payload,
                ..
            },
        ) = (&p.net, &p.l4)
        {
            if let Ok(msg) = MessageView::new(payload) {
                if let Some((idx, rtype)) = self.pending.remove(&msg.id()) {
                    match rtype {
                        RecordType::A => self.results[idx].has_a = msg.a_answers().next().is_some(),
                        RecordType::Aaaa => {
                            self.results[idx].has_aaaa = msg.aaaa_answers().next().is_some()
                        }
                        _ => {}
                    }
                }
            }
        }
    }

    fn on_timer(&mut self, _now: SimTime, _token: u64, fx: &mut Effects) {
        self.send_batch(fx);
        if !self.done {
            let jitter = fx.rng.gen_range(0..20_000u64);
            fx.set_timer(SimTime(200_000 + jitter), 1);
        }
    }

    fn as_any(&self) -> &dyn Any {
        self
    }

    fn as_any_mut(&mut self) -> &mut dyn Any {
        self
    }
}

/// Run the active experiment: probe every name against the given zones.
///
/// The prober does not DHCP (it is statically configured, like a
/// researcher laptop); the capture tap is off since this experiment's
/// output is the prober's own answer table, as with `dig` scripts.
pub fn probe(names: impl IntoIterator<Item = Name>, zones: ZoneDb) -> ActiveDnsReport {
    let names: Vec<Name> = names.into_iter().collect();
    // The name index is packed into a 15-bit txid field; beyond that the
    // ids would alias and answers would be attributed to wrong names.
    assert!(
        names.len() <= 32_768,
        "active DNS probe supports at most 32768 names per run ({} given)",
        names.len()
    );
    let total = names.len();
    let internet = Internet::new(zones);
    // NAT for the prober's v4 path needs IPv4 enabled. The router
    // learns the statically configured prober from its first frames.
    let router = Router::new(RouterConfig::dual_stack());
    let prober = Prober::new(names.clone());

    let mut b = SimulationBuilder::new(router, internet);
    let pid = b.add_host(Box::new(prober));
    let mut sim = b.capture(false).seed(0xd16).build();
    // Generously sized window: BATCH names per 200ms.
    let window = SimTime::from_secs(10 + (total as u64 / BATCH as u64 + 2));
    sim.run_until(window);

    let prober = sim
        .host(pid)
        .as_any()
        .downcast_ref::<Prober>()
        .expect("prober host");
    let mut report = ActiveDnsReport::default();
    for (n, r) in prober.names.iter().zip(&prober.results) {
        report.names.insert(n.clone(), *r);
    }
    report
}

#[cfg(test)]
mod tests {
    use super::*;
    use v6brick_sim::internet::DomainProfile;

    #[test]
    fn probe_distinguishes_ready_and_unready() {
        let mut zones = ZoneDb::new();
        zones.insert(DomainProfile::dual_stack("ready.example".parse().unwrap()));
        zones.insert(DomainProfile::v4_only("legacy.example".parse().unwrap()));
        let report = probe(
            vec![
                "ready.example".parse().unwrap(),
                "legacy.example".parse().unwrap(),
                "missing.example".parse().unwrap(),
            ],
            zones,
        );
        let r = report.names[&"ready.example".parse::<Name>().unwrap()];
        assert!(r.has_a && r.has_aaaa);
        let l = report.names[&"legacy.example".parse::<Name>().unwrap()];
        assert!(l.has_a && !l.has_aaaa);
        let m = report.names[&"missing.example".parse::<Name>().unwrap()];
        assert!(!m.has_a && !m.has_aaaa);
        assert_eq!(report.aaaa_ready().len(), 1);
    }

    #[test]
    fn probe_scales_to_many_names() {
        let mut zones = ZoneDb::new();
        let names: Vec<Name> = (0..500)
            .map(|i| format!("n{i}.bulk.example").parse().unwrap())
            .collect();
        for (i, n) in names.iter().enumerate() {
            if i % 3 == 0 {
                zones.insert(DomainProfile::dual_stack(n.clone()));
            } else {
                zones.insert(DomainProfile::v4_only(n.clone()));
            }
        }
        let report = probe(names, zones);
        assert_eq!(report.names.len(), 500);
        assert_eq!(report.aaaa_ready().len(), 167);
    }
}
