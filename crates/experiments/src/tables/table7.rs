//! Table 7: destination AAAA readiness, measured by the active DNS
//! experiment, split functional / non-functional and grouped by category
//! and by manufacturer.

use crate::active_dns::ActiveDnsReport;
use crate::render::TextTable;
use crate::suite::ExperimentSuite;
use std::collections::BTreeSet;
use v6brick_core::analysis::PassId;
use v6brick_core::observe::DeviceObservation;
use v6brick_devices::profile::Category;
use v6brick_net::dns::Name;

/// Analyzer passes this generator reads (query names from `dns`, SNI
/// from `traffic`).
pub const PASSES: &[PassId] = &[PassId::Dns, PassId::Traffic];

/// Table 7: destination AAAA readiness, measured by the active DNS
/// experiment, split functional / non-functional and grouped by category
/// and by manufacturer.
pub fn table7(suite: &ExperimentSuite, active: &ActiveDnsReport) -> TextTable {
    let ready = active.aaaa_ready();
    let mut t = TextTable::new("Table 7: DNS AAAA readiness across destinations (active queries)")
        .headers([
            "Group",
            "Device #",
            "Domain #",
            "AAAA Res. #",
            "AAAA Res. %",
        ]);

    let group_row = |t: &mut TextTable, label: String, ids: Vec<&str>| {
        // The group's destination names over every run.
        let domains: BTreeSet<&Name> = suite
            .runs()
            .iter()
            .flat_map(|run| ids.iter().filter_map(|id| run.analysis.device(id)))
            .flat_map(DeviceObservation::destination_names)
            .collect();
        let ready_count = domains.iter().filter(|d| ready.contains(**d)).count();
        let pct = if domains.is_empty() {
            0.0
        } else {
            100.0 * ready_count as f64 / domains.len() as f64
        };
        t.row([
            label,
            ids.len().to_string(),
            domains.len().to_string(),
            ready_count.to_string(),
            format!("{pct:.1}%"),
        ]);
    };

    t.row([
        "— Functional devices in IPv6-only network —",
        "",
        "",
        "",
        "",
    ]);
    for c in Category::ALL {
        let ids: Vec<&str> = suite
            .profiles
            .iter()
            .filter(|p| p.category == c && suite.functional_v6only(&p.id))
            .map(|p| p.id.as_str())
            .collect();
        if !ids.is_empty() {
            group_row(&mut t, c.label().to_string(), ids);
        }
    }
    let func: Vec<&str> = suite
        .profiles
        .iter()
        .filter(|p| suite.functional_v6only(&p.id))
        .map(|p| p.id.as_str())
        .collect();
    group_row(&mut t, "Total (functional)".into(), func);

    t.row([
        "— Non-functional devices in IPv6-only network —",
        "",
        "",
        "",
        "",
    ]);
    for c in Category::ALL {
        let ids: Vec<&str> = suite
            .profiles
            .iter()
            .filter(|p| p.category == c && !suite.functional_v6only(&p.id))
            .map(|p| p.id.as_str())
            .collect();
        if !ids.is_empty() {
            group_row(&mut t, c.label().to_string(), ids);
        }
    }
    let nonfunc: Vec<&str> = suite
        .profiles
        .iter()
        .filter(|p| !suite.functional_v6only(&p.id))
        .map(|p| p.id.as_str())
        .collect();
    group_row(&mut t, "Total (non-functional)".into(), nonfunc);

    // By manufacturer (>= 3 devices), non-functional side like the paper.
    t.row([
        "— Non-functional, by manufacturer (>= 3 devices) —",
        "",
        "",
        "",
        "",
    ]);
    let mut mans: Vec<&String> = suite.profiles.iter().map(|p| &p.manufacturer).collect();
    mans.sort();
    mans.dedup();
    for man in mans {
        let ids: Vec<&str> = suite
            .profiles
            .iter()
            .filter(|p| &p.manufacturer == man && !suite.functional_v6only(&p.id))
            .map(|p| p.id.as_str())
            .collect();
        if ids.len() >= 3 {
            group_row(&mut t, man.clone(), ids);
        }
    }
    t
}
