//! WAN-scan determinism regression: the serialized `ExposureReport` may
//! not depend on worker count, merge order, or shard boundaries, and the
//! firewall-policy lattice (open >= pinholed >= default-deny per cell)
//! must hold on every campaign. This pins the chain from home planning
//! through the shared settle and its per-policy forks, probe-wave
//! classification, in-order reduction, and the integer-only report
//! serialization.

use v6brick_experiments::wanscan::{self, WanScanSpec};

/// Small homes and a short settle keep the test fast while still drawing
/// several network configs and firewall policies per campaign.
fn spec(workers: usize) -> WanScanSpec {
    WanScanSpec {
        homes: 4,
        seed: 0x5ca9,
        workers,
        device_range: (2, 3),
        settle_s: 45,
        ..Default::default()
    }
}

#[test]
fn worker_count_does_not_change_the_report() {
    let serial = serde_json::to_string(&wanscan::run(&spec(1))).unwrap();
    let parallel = serde_json::to_string(&wanscan::run(&spec(3))).unwrap();
    assert_eq!(serial, parallel, "report must not depend on worker count");
}

#[test]
fn merged_shards_equal_one_campaign() {
    // Streaming aggregation must compose: scanning half the homes into
    // each of two reports and merging matches the one-shot campaign.
    use v6brick_core::exposure::ExposureReport;
    use v6brick_fleet::{plan_homes, run_indexed};
    use v6brick_sim::SimTime;

    let s = spec(2);
    let (dev_min, dev_max) = s.device_range;
    let plans = plan_homes(s.seed, s.homes, &s.mix, dev_min..=dev_max);
    let settle = SimTime::from_secs(s.settle_s);

    let run_slice = |homes: Vec<_>| {
        run_indexed(
            homes,
            2,
            |home: v6brick_fleet::HomeSpec<_>| {
                wanscan::scan_home(&home, &s.policies, &s.plan, settle, false)
            },
            ExposureReport::new(s.seed),
            |report, _i, outcome| report.absorb_home(&outcome),
        )
    };

    let mut all = plans.clone();
    let tail = all.split_off(all.len() / 2);
    let mut merged = run_slice(all);
    merged.merge(&run_slice(tail));

    let whole = wanscan::run(&s);
    assert_eq!(
        serde_json::to_string(&merged).unwrap(),
        serde_json::to_string(&whole).unwrap(),
        "merge of shard reports must equal the one-shot campaign"
    );
}

#[test]
fn policy_lattice_holds_per_cell() {
    let report = wanscan::run(&spec(2));
    assert!(report.failures.is_empty(), "no home may crash");
    assert_eq!(
        report.monotonic_violations(),
        Vec::<String>::new(),
        "a stricter firewall policy may never expose more than a looser one"
    );
}

/// The mesh axis keeps every determinism and lattice guarantee: a
/// campaign where some homes sit behind 6LoWPAN border routers must
/// serialize byte-identically across worker counts and reruns, and the
/// firewall lattice must hold through the extra transit hop.
#[test]
fn mesh_campaign_is_deterministic_and_lattice_clean() {
    let mesh_spec = |workers: usize| WanScanSpec {
        mesh_per_mille: 500,
        ..spec(workers)
    };
    let serial = wanscan::run(&mesh_spec(1));
    let parallel = wanscan::run(&mesh_spec(3));
    assert_eq!(
        serde_json::to_string(&serial).unwrap(),
        serde_json::to_string(&parallel).unwrap(),
        "mesh report must not depend on worker count"
    );
    assert!(serial.failures.is_empty(), "no meshed home may crash");
    assert_eq!(serial.monotonic_violations(), Vec::<String>::new());

    // And the axis is real: an all-mesh campaign diverges from the
    // all-Ethernet one (the border router refuses v4 and re-times v6),
    // while per_mille=0 reproduces the pre-mesh bytes exactly.
    let ethernet = wanscan::run(&spec(2));
    let zero = wanscan::run(&WanScanSpec {
        mesh_per_mille: 0,
        ..spec(2)
    });
    assert_eq!(
        serde_json::to_string(&ethernet).unwrap(),
        serde_json::to_string(&zero).unwrap(),
        "mesh_per_mille=0 must be byte-identical to the pre-mesh campaign"
    );
}
