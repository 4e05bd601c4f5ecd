//! Byte-level pin on the WAN exposure scan's report.
//!
//! `wanscan_determinism` proves the report is independent of worker
//! count and shard boundaries, but not that it stays the same across a
//! change to how a home is simulated. This file pins the serialized
//! report of one small campaign that covers both link layers and every
//! firewall policy, and checks that scanning one policy at a time gives
//! exactly the matching slice of the all-policy campaign.

use std::collections::BTreeMap;
use v6brick::core::exposure::ExposureReport;
use v6brick::experiments::fleet::home_is_mesh;
use v6brick::experiments::wanscan::{self, WanScanSpec};
use v6brick::sim::FirewallPolicy;
use v6brick_fleet::plan_homes_iter;

/// Eight homes, about half of them meshed, under every policy given.
fn spec(workers: usize, policies: Vec<FirewallPolicy>) -> WanScanSpec {
    WanScanSpec {
        homes: 8,
        seed: 0x5ca9_d16e,
        workers,
        device_range: (3, 6),
        policies,
        mesh_per_mille: 500,
        ..Default::default()
    }
}

fn all_policies(workers: usize) -> WanScanSpec {
    spec(workers, FirewallPolicy::ALL.to_vec())
}

/// FNV-1a over the serialized report.
fn digest(bytes: &[u8]) -> u64 {
    bytes.iter().fold(0xcbf2_9ce4_8422_2325, |h, &b| {
        (h ^ u64::from(b)).wrapping_mul(0x100_0000_01b3)
    })
}

/// (report bytes, digest) of [`all_policies`] at any worker count.
const PINNED: (usize, u64) = (2425, 0xac3d_fa70_1438_2039);

/// Responsive targets and open ports under `policy`, over every cell.
fn reach(report: &ExposureReport, policy: FirewallPolicy) -> (u64, u64) {
    let cells = report
        .cells
        .values()
        .filter_map(|by_policy| by_policy.get(policy.label()))
        .flat_map(|by_mode| by_mode.values());
    cells.fold((0, 0), |(responsive, open), cell| {
        (responsive + cell.responsive, open + cell.open_total())
    })
}

#[test]
fn all_policy_report_is_pinned_at_one_and_two_workers() {
    let s = all_policies(1);
    let (dev_min, dev_max) = s.device_range;
    let meshed = plan_homes_iter(s.seed, s.homes, &s.mix, dev_min..=dev_max)
        .filter(|home| home_is_mesh(home.seed, s.mesh_per_mille))
        .count() as u64;
    assert!(
        meshed > 0 && meshed < s.homes,
        "the pinned campaign must mix mesh and Ethernet homes ({meshed} of {} meshed)",
        s.homes
    );

    for workers in [1, 2] {
        let report = wanscan::run(&all_policies(workers));
        assert!(report.failures.is_empty(), "{:?}", report.failures);
        let (responsive, open) = reach(&report, FirewallPolicy::Open);
        assert!(
            responsive > 0 && open > 0,
            "the open policy must expose something ({responsive} responsive, {open} ports)"
        );
        assert_eq!(reach(&report, FirewallPolicy::DefaultDeny), (0, 0));
        let json = serde_json::to_string(&report).unwrap();
        let got = (json.len(), digest(json.as_bytes()));
        assert_eq!(
            got, PINNED,
            "WAN-scan report bytes changed at {workers} worker(s): {} bytes, digest {:#018x}",
            got.0, got.1
        );
    }
}

#[test]
fn single_policy_campaigns_are_slices_of_the_all_policy_campaign() {
    let all = wanscan::run(&all_policies(2));
    for policy in FirewallPolicy::ALL {
        let one = wanscan::run(&spec(2, vec![policy]));
        let label = policy.label();
        assert_eq!(
            (one.homes, one.devices),
            (all.homes, all.devices),
            "{label}"
        );
        let slice: BTreeMap<_, _> = all
            .cells
            .iter()
            .filter_map(|(category, by_policy)| {
                let cells = by_policy.get(label)?.clone();
                Some((
                    category.clone(),
                    BTreeMap::from([(label.to_string(), cells)]),
                ))
            })
            .collect();
        assert_eq!(one.cells, slice, "cells under {label}");
        let hitlist = BTreeMap::from([(label.to_string(), all.hitlist[label].clone())]);
        assert_eq!(one.hitlist, hitlist, "hitlist under {label}");
    }
}
