//! Mesh-campaign determinism regression: the second link-layer family
//! may not cost the fleet any of its guarantees. A campaign with homes
//! behind 6LoWPAN border routers must serialize byte-identically across
//! worker counts and reruns, its mesh draw must be stable per home, and
//! the population aggregates must credit *leaf devices* — traffic that
//! reaches the Ethernet tap wearing the border router's MAC is only
//! countable because the mesh-capture attribution rebinds it.
//!
//! Two byte pins hold a mesh home's whole analysis in place across a
//! change to how homes are built: the serialized report of the
//! worker-count campaign below, and `mesh::run` over the readiness
//! comparison CI's mesh smoke job runs.

use v6brick_experiments::fleet::{self, home_is_mesh, CampaignSpec};
use v6brick_experiments::mesh::{self, MeshSpec};
use v6brick_experiments::NetworkConfig;

/// FNV-1a over serialized bytes.
fn fnv1a(bytes: &[u8]) -> u64 {
    bytes.iter().fold(0xcbf2_9ce4_8422_2325, |h, &b| {
        (h ^ u64::from(b)).wrapping_mul(0x100_0000_01b3)
    })
}

fn assert_pinned(name: &str, json: &str, pinned: (usize, u64)) {
    let got = (json.len(), fnv1a(json.as_bytes()));
    assert_eq!(
        got, pinned,
        "{name} bytes changed: {} bytes, digest {:#018x}",
        got.0, got.1
    );
}

/// (report bytes, FNV-1a) of [`mesh_spec`] at any worker count.
const PINNED_CAMPAIGN: (usize, u64) = (1266, 0xfafb_cbf5_3647_f41f);

/// (report bytes, FNV-1a) of `mesh::run` at seed 1 with 90 s windows.
const PINNED_READINESS: (usize, u64) = (3083, 0x84ac_3af0_4d9d_9cd5);

fn mesh_spec(workers: usize) -> CampaignSpec {
    CampaignSpec {
        homes: 10,
        seed: 0x6e50,
        workers,
        device_range: (2, 3),
        duration_s: 60,
        mesh_per_mille: 500,
        ..Default::default()
    }
}

#[test]
fn worker_count_does_not_change_the_mesh_report() {
    let serial = serde_json::to_string(&fleet::run(&mesh_spec(1))).unwrap();
    for workers in [2, 8] {
        let parallel = serde_json::to_string(&fleet::run(&mesh_spec(workers))).unwrap();
        assert_eq!(
            serial, parallel,
            "mesh campaign diverged at {workers} workers"
        );
    }
    // Rerun determinism: the same spec twice is the same bytes.
    let again = serde_json::to_string(&fleet::run(&mesh_spec(1))).unwrap();
    assert_eq!(serial, again, "mesh campaign must be rerun-stable");
    assert_pinned("mesh campaign report", &serial, PINNED_CAMPAIGN);
}

#[test]
fn readiness_report_is_pinned() {
    let report = mesh::run(&MeshSpec {
        seed: 1,
        duration_s: 90,
    });
    let json = serde_json::to_string(&report).unwrap();
    assert_pinned("mesh readiness report", &json, PINNED_READINESS);
}

#[test]
fn campaign_mixes_both_link_layers_and_labels_them() {
    let report = fleet::run(&mesh_spec(2));
    assert!(report.failures.is_empty(), "no home may crash");
    let labels: Vec<&str> = report.homes_by_config.keys().map(String::as_str).collect();
    assert!(
        labels.iter().any(|l| l.ends_with("+ mesh")),
        "a 500 per-mille draw over 10 homes must select some mesh homes: {labels:?}"
    );
    assert!(
        labels.iter().any(|l| !l.ends_with("+ mesh")),
        "…and leave some homes on Ethernet: {labels:?}"
    );
    // The draw is a pure function of the home seed, so the campaign's
    // split is exactly what the helper predicts.
    let meshed: u64 = (0..10)
        .filter(|&i| home_is_mesh(v6brick_fleet::home_seed(0x6e50, i), 500))
        .count() as u64;
    let labeled: u64 = report
        .homes_by_config
        .iter()
        .filter(|(l, _)| l.ends_with("+ mesh"))
        .map(|(_, n)| n)
        .sum();
    assert_eq!(meshed, labeled, "label split must match the per-home draw");
}

/// The attribution pin, at population scale: in an all-mesh, v6-only
/// campaign every LAN frame wears the border router's MAC, so the
/// per-device funnel stages are only countable because the mesh-capture
/// bindings rebound traffic to the leaves. The strongest statement is
/// equality: the mesh campaign's v6 funnel must match its Ethernet twin
/// stage for stage — the link change loses no attribution. (Only
/// `ndp_traffic` may differ: leaf ND is proxied by the border router.)
#[test]
fn all_mesh_campaign_still_credits_leaf_devices() {
    let spec = |mesh_per_mille: u32| CampaignSpec {
        homes: 4,
        seed: 0x6e51,
        workers: 2,
        device_range: (2, 3),
        mix: vec![(NetworkConfig::Ipv6Only, 1)],
        duration_s: 90,
        mesh_per_mille,
        ..Default::default()
    };
    let mesh = fleet::run(&spec(1000));
    let ethernet = fleet::run(&spec(0));
    assert!(mesh.failures.is_empty());
    assert!(mesh.devices > 0);
    assert!(
        mesh.homes_by_config.keys().all(|l| l.ends_with("+ mesh")),
        "per_mille=1000 must mesh every home"
    );
    assert!(
        mesh.funnel.active_gua > 0,
        "leaves must be credited with sourcing from their GUAs"
    );
    assert!(
        mesh.funnel.aaaa_q_v6 > 0,
        "leaf DNS over v6 must attribute through the border router"
    );
    assert_eq!(mesh.funnel.v6_addr, ethernet.funnel.v6_addr);
    assert_eq!(mesh.funnel.active_gua, ethernet.funnel.active_gua);
    assert_eq!(mesh.funnel.aaaa_q_v6, ethernet.funnel.aaaa_q_v6);
    assert_eq!(mesh.funnel.aaaa_pos_v6, ethernet.funnel.aaaa_pos_v6);
    assert_eq!(
        mesh.funnel.v6_internet_data,
        ethernet.funnel.v6_internet_data
    );
}

/// `mesh_per_mille: 0` is not just "no mesh homes" — it must reproduce
/// the pre-mesh campaign byte for byte, fingerprint included, so
/// existing checkpoints and CI baselines survive the new axis.
#[test]
fn zero_mesh_campaign_is_byte_identical_to_default() {
    let base = CampaignSpec {
        homes: 6,
        seed: 0x6e52,
        workers: 2,
        device_range: (2, 3),
        duration_s: 45,
        ..Default::default()
    };
    let explicit_zero = CampaignSpec {
        mesh_per_mille: 0,
        ..base.clone()
    };
    assert_eq!(
        serde_json::to_string(&fleet::run(&base)).unwrap(),
        serde_json::to_string(&fleet::run(&explicit_zero)).unwrap(),
    );
}
