//! Table 6: address counts, distinct query names, dual-stack volume
//! fractions — per category.

use crate::render::TextTable;
use crate::suite::ExperimentSuite;
use v6brick_core::analysis::PassId;
use v6brick_core::observe::DeviceObservation;
use v6brick_devices::profile::Category;
use v6brick_net::ipv6::{AddressKind, Ipv6AddrExt};

/// Analyzer passes this generator reads.
pub const PASSES: &[PassId] = super::FEATURE_PASSES;

/// Table 6: address counts, distinct query names, dual-stack volume
/// fractions — per category.
pub fn table6(suite: &ExperimentSuite) -> TextTable {
    let o = |id: &str| suite.v6_and_dual_observation(id);
    let mut t = TextTable::new(
        "Table 6: number of IPv6 addresses, DNS query names, and the dual-stack IPv6 volume fraction",
    )
    .headers([
        "Metric", "Appliance", "Camera", "TV/Ent.", "Gateway", "Health", "Home Auto",
        "Speaker", "Total",
    ]);
    let sum_by_cat = |f: &dyn Fn(&DeviceObservation) -> usize| -> Vec<usize> {
        Category::ALL
            .iter()
            .map(|c| {
                suite
                    .profiles
                    .iter()
                    .filter(|p| p.category == *c)
                    .map(|p| f(o(&p.id)))
                    .sum()
            })
            .collect()
    };
    let sum_row = |t: &mut TextTable, label: &str, f: &dyn Fn(&DeviceObservation) -> usize| {
        let counts = sum_by_cat(f);
        let mut r = vec![label.to_string()];
        r.extend(counts.iter().map(|c| c.to_string()));
        r.push(counts.iter().sum::<usize>().to_string());
        t.rows.push(r);
    };
    sum_row(&mut t, "# of IPv6 Addr", &|ob| ob.all_addrs().len());
    sum_row(&mut t, "# of GUA Addr", &|ob| {
        ob.all_addrs()
            .iter()
            .filter(|a| a.kind() == AddressKind::Global)
            .count()
    });
    sum_row(&mut t, "# of ULA Addr", &|ob| {
        ob.all_addrs()
            .iter()
            .filter(|a| a.kind() == AddressKind::UniqueLocal)
            .count()
    });
    sum_row(&mut t, "# of LLA Addr", &|ob| {
        ob.all_addrs()
            .iter()
            .filter(|a| a.kind() == AddressKind::LinkLocal)
            .count()
    });
    sum_row(&mut t, "# of AAAA DNS Req", &|ob| ob.aaaa_q_any().len());
    sum_row(&mut t, "# of A-only Req in IPv6", &|ob| {
        ob.a_only_v6_names().len()
    });
    sum_row(&mut t, "# of IPv4-only AAAA Req", &|ob| {
        ob.aaaa_q_v4.difference(&ob.aaaa_q_v6).count()
    });
    sum_row(&mut t, "# of AAAA DNS Res", &|ob| ob.aaaa_pos_any().len());

    // Volume fraction per category, dual-stack only.
    let mut r = vec!["IPv6 Fraction of Total Volume (%)".to_string()];
    let (mut tot6, mut tot) = (0u64, 0u64);
    for c in Category::ALL {
        let (mut v6, mut all) = (0u64, 0u64);
        for p in suite.profiles.iter().filter(|p| p.category == c) {
            let ob = suite.dual_observation(&p.id);
            v6 += ob.v6_internet_bytes;
            all += ob.v6_internet_bytes + ob.v4_internet_bytes;
        }
        tot6 += v6;
        tot += all;
        r.push(if all == 0 {
            "0.0%".into()
        } else {
            format!("{:.1}%", 100.0 * v6 as f64 / all as f64)
        });
    }
    r.push(format!("{:.1}%", 100.0 * tot6 as f64 / tot.max(1) as f64));
    t.rows.push(r);
    t
}
