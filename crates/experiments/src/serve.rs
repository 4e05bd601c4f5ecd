//! Bridging fleet campaigns onto the `v6brickd` ingestion daemon.
//!
//! The offline path (`fleet::run`) simulates every home and folds the
//! observations directly. This module produces the *service-shaped*
//! equivalent of the same campaign: one [`UploadBundle`] per home — the
//! serialized capture plus the metadata header — which the load
//! generator replays at a running server. Because the simulation is
//! seeded identically and the capture tap records exactly the frames
//! the offline analyzer consumed, a server fed these bundles snapshots
//! byte-identically to `fleet::run` for the same spec
//! (`tests/ingest_equivalence.rs` pins this; `repro upload --verify`
//! checks it from the CLI).
//!
//! Only Ethernet campaigns have bundles. A mesh home's LAN frames wear
//! its border router's MAC, and `fleet::run` attributes them to leaves
//! through bindings decoded from the home's 802.15.4 capture. An upload
//! carries no such bindings, so a server could not attribute them.

use crate::fleet::CampaignSpec;
use crate::scenario::{self, Link};
use v6brick_fleet::{plan_homes_iter, run_indexed};
use v6brick_ingest::{DeviceEntry, UploadBundle, UploadHeader};
use v6brick_pcap::{format, pcapng};
use v6brick_sim::{FaultPlan, SimTime};

/// Simulate every home of `spec` and package each as an upload bundle,
/// in home-index order. Even-indexed homes serialize as classic pcap
/// and odd-indexed ones as pcapng, so any replay of a multi-home
/// campaign exercises both of the server's decode paths.
///
/// Homes listed in `spec.chaos_panic_homes` get `chaos_panic` set in
/// their header: the server will deliberately panic on them, mirroring
/// the offline pool's crash-isolation semantics (the home is counted
/// as failed and absorbed nowhere).
///
/// Panics if `spec.mesh_per_mille` is not 0 (see the module docs).
pub fn campaign_bundles(spec: &CampaignSpec) -> Vec<UploadBundle> {
    assert_eq!(
        spec.mesh_per_mille, 0,
        "an upload carries no mesh bindings, so a server could not attribute a mesh \
         home's leaves: campaign_bundles takes Ethernet campaigns only"
    );
    let (dev_min, dev_max) = spec.device_range;
    let plans = plan_homes_iter(spec.seed, spec.homes, &spec.mix, dev_min..=dev_max);
    let duration = SimTime::from_secs(spec.duration_s);
    let campaign_seed = spec.seed;
    let chaos = spec.chaos_panic_homes.clone();
    run_indexed(
        plans,
        spec.workers,
        move |home| {
            // No pass is asked for, so no analyzer is attached: the server
            // does the analysis.
            let home_run = scenario::execute(
                home.config,
                &home.profiles,
                home.seed,
                duration,
                &[],
                FaultPlan::new(),
                scenario::build_zones(&home.profiles),
                Link::Ethernet,
                true,
            );
            let run = home_run.run;
            let capture = home_run.capture.expect("the capture was kept");
            let devices = home
                .profiles
                .iter()
                .map(|p| DeviceEntry {
                    id: p.id.clone(),
                    mac: p.mac,
                    functional: run.functional.get(&p.id).copied().unwrap_or(false),
                })
                .collect();
            let pcap = if home.index % 2 == 0 {
                format::to_bytes(&capture)
            } else {
                pcapng::to_bytes(&capture)
            };
            UploadBundle {
                header: UploadHeader {
                    campaign_seed,
                    home_index: home.index,
                    config_label: run.config.label().to_string(),
                    lan_prefix: v6brick_sim::addrs::LAN_PREFIX,
                    lan_prefix_len: 64,
                    devices,
                    chaos_panic: chaos.contains(&home.index),
                },
                pcap,
            }
        },
        Vec::with_capacity(spec.homes as usize),
        |bundles, _index, bundle| bundles.push(bundle),
    )
}

/// The canonical offline JSON for `spec` — the byte string a server fed
/// this campaign's bundles must snapshot to.
pub fn offline_report_json(spec: &CampaignSpec) -> String {
    serde_json::to_string(&crate::fleet::run(spec)).expect("population report serializes")
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn bundles_cover_every_home_in_both_formats() {
        let spec = CampaignSpec {
            homes: 4,
            seed: 11,
            workers: 2,
            device_range: (2, 2),
            duration_s: 45,
            ..Default::default()
        };
        let bundles = campaign_bundles(&spec);
        assert_eq!(bundles.len(), 4);
        for (i, b) in bundles.iter().enumerate() {
            assert_eq!(b.header.home_index, i as u64);
            assert_eq!(b.header.campaign_seed, 11);
            assert_eq!(b.header.devices.len(), 2);
            assert!(!b.pcap.is_empty());
            let frames = if i % 2 == 0 {
                format::from_bytes(&b.pcap).unwrap().len()
            } else {
                pcapng::from_bytes(&b.pcap).unwrap().len()
            };
            assert!(frames > 0, "home {i} captured no frames");
        }
        // Deterministic: regeneration is identical.
        assert_eq!(campaign_bundles(&spec), bundles);
    }

    #[test]
    #[should_panic(expected = "an upload carries no mesh bindings")]
    fn mesh_campaign_is_refused() {
        campaign_bundles(&CampaignSpec {
            homes: 1,
            mesh_per_mille: 1000,
            ..Default::default()
        });
    }
}
