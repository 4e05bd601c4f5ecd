//! One generator per paper figure, emitting the data series as text
//! (the repro harness regenerates numbers, not pixels).

use crate::render::TextTable;
use crate::suite::ExperimentSuite;
use std::collections::BTreeMap;
use v6brick_core::analysis::PassId;
use v6brick_core::eui64;
use v6brick_core::funnel::Stage;
use v6brick_core::population::POPULATION_PASSES;
use v6brick_net::Mac;

/// Analyzer passes [`figure2`] reads (the full readiness funnel).
pub const FIGURE2_PASSES: &[PassId] = POPULATION_PASSES;

/// Analyzer passes [`figure3`] reads (address and AAAA-query counts).
pub const FIGURE3_PASSES: &[PassId] = &[PassId::Addressing, PassId::Dns];

/// Analyzer passes [`figure4`] reads (volume fractions only; the
/// functionality annotation comes from the simulator, not a pass).
pub const FIGURE4_PASSES: &[PassId] = &[PassId::Traffic];

/// Analyzer passes [`figure5`] reads (the EUI-64 funnel needs address
/// sets, names, traffic attribution, and the EUI-64 correlators).
pub const FIGURE5_PASSES: &[PassId] = &[
    PassId::Addressing,
    PassId::Dns,
    PassId::Traffic,
    PassId::Eui64,
];

/// `n` as a percentage of the suite's devices.
fn percent_of_devices(suite: &ExperimentSuite, n: usize) -> f64 {
    100.0 * n as f64 / suite.profiles.len().max(1) as f64
}

/// Figure 2: the IPv6-only feature funnel (the nested-circle chart's
/// underlying percentages).
pub fn figure2(suite: &ExperimentSuite) -> TextTable {
    let mut t = TextTable::new(format!(
        "Figure 2: IPv6-only experiments — the readiness funnel (percent of {} devices)",
        suite.profiles.len()
    ))
    .headers(["Ring (outer to inner)", "Devices", "%"]);
    for stage in Stage::ALL {
        let label = match stage {
            Stage::NdpTraffic => "IPv6 NDP traffic",
            Stage::V6Addr => "IPv6 address",
            // The chart draws no ring for global addresses.
            Stage::ActiveGua => continue,
            Stage::AaaaQueryV6 => "IPv6 DNS (AAAA request)",
            Stage::AaaaAnswerV6 => "AAAA response",
            Stage::V6InternetData => "Internet data communication",
            Stage::Functional => "Functional",
        };
        let n = suite
            .device_ids()
            .filter(|id| suite.reached_v6only(id, stage))
            .count();
        t.row([
            label.to_string(),
            n.to_string(),
            format!("{:.1}%", percent_of_devices(suite, n)),
        ]);
    }
    t
}

/// Figure 3: CDFs of per-device IPv6 address counts (top) and distinct
/// AAAA query counts (bottom). Emits the sorted series.
pub fn figure3(suite: &ExperimentSuite) -> TextTable {
    let mut addr_counts: Vec<usize> = suite
        .device_ids()
        .map(|id| suite.v6_and_dual_observation(id).all_addrs().len())
        .filter(|n| *n > 0)
        .collect();
    addr_counts.sort_unstable();
    let mut q_counts: Vec<usize> = suite
        .device_ids()
        .map(|id| suite.v6_and_dual_observation(id).aaaa_q_any().len())
        .filter(|n| *n > 0)
        .collect();
    q_counts.sort_unstable();

    let mut t = TextTable::new(
        "Figure 3: CDFs — IPv6 addresses per device (top), AAAA queries per device (bottom)",
    )
    .headers(["Percentile", "# addresses", "# AAAA queries"]);
    for pct in [10, 25, 50, 75, 80, 90, 95, 100] {
        let pick = |v: &Vec<usize>| {
            if v.is_empty() {
                0
            } else {
                v[((v.len() - 1) * pct) / 100]
            }
        };
        t.row([
            format!("p{pct}"),
            pick(&addr_counts).to_string(),
            pick(&q_counts).to_string(),
        ]);
    }
    // The paper's concentration findings.
    let top_share = |v: &Vec<usize>, k: usize| -> f64 {
        let total: usize = v.iter().sum();
        let top: usize = v.iter().rev().take(k).sum();
        if total == 0 {
            0.0
        } else {
            100.0 * top as f64 / total as f64
        }
    };
    t.row([
        "top-10 devices' share".to_string(),
        format!("{:.0}% of addresses", top_share(&addr_counts, 10)),
        format!("{:.0}% of AAAA queries", top_share(&q_counts, 10)),
    ]);
    t
}

/// Figure 4: per-device fraction of dual-stack Internet volume over IPv6,
/// sorted descending, annotated with functionality.
pub fn figure4(suite: &ExperimentSuite) -> TextTable {
    let mut rows: Vec<(String, f64, bool)> = suite
        .profiles
        .iter()
        .map(|p| {
            (
                p.name.clone(),
                suite.dual_observation(&p.id).v6_volume_fraction(),
                suite.functional_v6only(&p.id),
            )
        })
        .filter(|(_, f, _)| *f > 0.0)
        .collect();
    rows.sort_by(|a, b| b.1.partial_cmp(&a.1).unwrap());
    let mut t =
        TextTable::new("Figure 4: fraction of Internet data volume over IPv6 in dual-stack")
            .headers(["Device", "IPv6 fraction", "Functional in IPv6-only"]);
    for (name, frac, func) in rows {
        t.row([
            name,
            format!("{:.1}%", frac * 100.0),
            if func {
                "functional".into()
            } else {
                "non-functional".to_string()
            },
        ]);
    }
    t
}

/// Figure 5: the EUI-64 funnel and the party mix of exposed domains.
pub fn figure5(suite: &ExperimentSuite) -> TextTable {
    let funnel = eui64_funnel(suite);
    let mut t =
        TextTable::new("Figure 5: EUI-64 GUA exposure").headers(["Stage", "Devices / domains"]);
    t.row([
        "Assign GUA EUI-64 addresses".to_string(),
        format!(
            "{} devices ({:.1}%)",
            funnel.assign,
            percent_of_devices(suite, funnel.assign)
        ),
    ]);
    t.row([
        "Use them".to_string(),
        format!(
            "{} devices ({:.1}%)",
            funnel.use_any,
            percent_of_devices(suite, funnel.use_any)
        ),
    ]);
    t.row([
        "Use them for DNS".to_string(),
        format!("{} devices", funnel.use_dns),
    ]);
    t.row([
        "Use them for Internet data".to_string(),
        format!("{} devices", funnel.use_internet_data),
    ]);
    t.row([
        "Domains contacted (data devices)".to_string(),
        format!(
            "{} first-party, {} support, {} third-party",
            funnel.data_domains_by_party.first,
            funnel.data_domains_by_party.support,
            funnel.data_domains_by_party.third
        ),
    ]);
    t.row([
        "Domains queried (DNS-only devices)".to_string(),
        format!(
            "{} first-party, {} support, {} third-party",
            funnel.dns_only_domains_by_party.first,
            funnel.dns_only_domains_by_party.support,
            funnel.dns_only_domains_by_party.third
        ),
    ]);
    t
}

/// The measured EUI-64 funnel over the union of IPv6-capable runs.
pub fn eui64_funnel(suite: &ExperimentSuite) -> eui64::Eui64Funnel {
    // Merge per-device observations, then run the core funnel.
    let mut analysis = v6brick_core::observe::ExperimentAnalysis::default();
    for p in &suite.profiles {
        analysis
            .devices
            .insert(p.id.clone(), suite.v6_and_dual_observation(&p.id).clone());
    }
    let macs: Vec<(String, Mac)> = suite
        .profiles
        .iter()
        .map(|p| (p.id.clone(), p.mac))
        .collect();
    let vendors: Vec<(String, String)> = suite
        .profiles
        .iter()
        .map(|p| (p.id.clone(), p.manufacturer.clone()))
        .collect();
    eui64::funnel(&analysis, &macs, &vendors)
}

/// Per-category dual-stack volume fractions (the Table 6 bottom row as a
/// map, for tests).
pub fn category_volume_fractions(suite: &ExperimentSuite) -> BTreeMap<&'static str, f64> {
    let mut out = BTreeMap::new();
    for c in v6brick_devices::Category::ALL {
        let (mut v6, mut all) = (0u64, 0u64);
        for p in suite.profiles.iter().filter(|p| p.category == c) {
            let o = suite.dual_observation(&p.id);
            v6 += o.v6_internet_bytes;
            all += o.v6_internet_bytes + o.v4_internet_bytes;
        }
        out.insert(
            c.label(),
            if all == 0 {
                0.0
            } else {
                v6 as f64 / all as f64
            },
        );
    }
    out
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::NetworkConfig;
    use v6brick_devices::registry;

    #[test]
    fn percentages_are_over_the_suites_own_devices() {
        let profiles = ["google_home_mini", "echo_show_5", "aqara_hub"]
            .iter()
            .map(|id| registry::by_id(id))
            .collect();
        let suite = ExperimentSuite::run_configs_scoped(
            profiles,
            &[NetworkConfig::Ipv6Only],
            1,
            &PassId::ALL,
        );
        let pct = |n: &str| format!("{:.1}%", 100.0 * n.parse::<f64>().unwrap() / 3.0);

        let fig2 = figure2(&suite);
        assert!(
            fig2.title.ends_with("(percent of 3 devices)"),
            "{}",
            fig2.title
        );
        for row in &fig2.rows {
            assert_eq!(row[2], pct(&row[1]), "{row:?}");
        }
        let count = |label: &str| &fig2.rows.iter().find(|r| r[0] == label).unwrap()[1];
        assert_eq!(count("IPv6 NDP traffic"), "3");
        assert_eq!(count("Functional"), "1", "only the Google Home Mini works");

        let fig5 = figure5(&suite);
        for row in &fig5.rows[..2] {
            let (n, rest) = row[1].split_once(" devices (").unwrap();
            assert_eq!(rest, format!("{})", pct(n)), "{row:?}");
        }
        assert_ne!(fig5.rows[0][1], "0 devices (0.0%)");
    }
}
