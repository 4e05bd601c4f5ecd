//! The server==fleet correctness spine, pinned.
//!
//! A `v6brickd` server fed a fleet campaign's per-home captures must
//! produce a `SNAPSHOT` **byte-identical** to the JSON of the offline
//! `fleet::run` for the same spec and seed — no matter how many
//! clients uploaded, in what order, at what chunking, or how many lock
//! stripes the server runs. This holds because the population report is
//! a commutative monoid over integer counters, the streaming decoder is
//! chunking-invariant, and the capture tap records exactly the frames
//! the offline analyzer consumed.

use v6brick_experiments::fleet::CampaignSpec;
use v6brick_experiments::serve::{campaign_bundles, offline_report_json};
use v6brick_ingest::{loadgen, spawn, Client, ServerConfig, ServerHandle};

fn small_spec() -> CampaignSpec {
    CampaignSpec {
        homes: 4,
        seed: 0x51de,
        workers: 2,
        device_range: (2, 3),
        duration_s: 45,
        ..Default::default()
    }
}

/// (bytes, FNV-1a) of [`small_spec`]'s bundles: each bundle's header
/// JSON followed by its pcap bytes, in home order.
const PINNED_BUNDLES: (usize, u64) = (501_682, 0x2324_da93_6f8d_467a);

fn server_for(spec: &CampaignSpec, shards: usize) -> ServerHandle {
    spawn(ServerConfig {
        campaign_seed: spec.seed,
        shards,
        ..Default::default()
    })
    .expect("server binds an ephemeral port")
}

#[test]
fn any_upload_order_and_sharding_snapshots_byte_identically_to_fleet_run() {
    let spec = small_spec();
    let offline = offline_report_json(&spec);
    let bundles = campaign_bundles(&spec);
    assert_eq!(bundles.len(), spec.homes as usize);
    let (mut len, mut digest) = (0, 0xcbf2_9ce4_8422_2325_u64);
    for b in &bundles {
        let header = serde_json::to_string(&b.header).unwrap();
        for bytes in [header.as_bytes(), &b.pcap] {
            len += bytes.len();
            digest = bytes.iter().fold(digest, |h, &b| {
                (h ^ u64::from(b)).wrapping_mul(0x100_0000_01b3)
            });
        }
    }
    assert_eq!(
        (len, digest),
        PINNED_BUNDLES,
        "bundle bytes changed: {len} bytes, digest {digest:#018x}"
    );

    // Three permutations × three stripe counts, one client each.
    let orders: [Vec<usize>; 3] = [vec![0, 1, 2, 3], vec![3, 2, 1, 0], vec![2, 0, 3, 1]];
    for (shards, order) in [1, 3, 8].into_iter().zip(orders) {
        let handle = server_for(&spec, shards);
        let mut client = Client::connect(handle.addr()).unwrap();
        for j in order {
            let ack = client.upload_bundle(&bundles[j], 777).unwrap();
            assert_eq!(ack.home_index, bundles[j].header.home_index);
            assert!(ack.frames > 0);
        }
        // Identical over the wire and in-process.
        assert_eq!(client.snapshot().unwrap(), offline, "shards={shards}");
        assert_eq!(handle.state().snapshot_json(), offline);
        handle.shutdown();
        handle.join();
    }
}

#[test]
fn concurrent_clients_snapshot_byte_identically_to_fleet_run() {
    let spec = small_spec();
    let offline = offline_report_json(&spec);
    let bundles = campaign_bundles(&spec);

    // 3 clients over 4 bundles: uneven partition, concurrent absorption.
    let handle = server_for(&spec, 4);
    let addr = handle.addr().to_string();
    let load = loadgen::run(&addr, &bundles, 3, spec.seed).unwrap();
    assert_eq!(load.failures(), 0);
    assert_eq!(load.uploads(), spec.homes);
    assert_eq!(handle.state().snapshot_json(), offline);
    handle.shutdown();
    handle.join();
}

/// Chaos parity: a home the offline pool crash-isolates is the same
/// home the server's `catch_unwind` isolates — both reports exclude it,
/// so the byte identity survives injected failures too.
#[test]
fn chaos_panic_homes_are_excluded_identically_on_both_paths() {
    let spec = CampaignSpec {
        chaos_panic_homes: vec![1],
        ..small_spec()
    };
    let offline = offline_report_json(&spec);
    let bundles = campaign_bundles(&spec);
    assert!(bundles[1].header.chaos_panic);

    let handle = server_for(&spec, 2);
    let addr = handle.addr().to_string();
    let load = loadgen::run(&addr, &bundles, 2, spec.seed).unwrap();
    // Exactly the chaos home fails; every other home lands.
    assert_eq!(load.failures(), 1);
    assert_eq!(load.uploads(), spec.homes - 1);
    let stats = handle.state().stats_report();
    assert_eq!(stats.uploads_failed, 1);
    assert_eq!(stats.uploads_ok, spec.homes - 1);
    assert_eq!(handle.state().snapshot_json(), offline);
    handle.shutdown();
    handle.join();
}
