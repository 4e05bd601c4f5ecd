//! Campaign-level determinism regression (ISSUE satellite #2): the same
//! campaign spec must produce a byte-identical `PopulationReport` JSON
//! at every worker count. This pins the whole chain — seed derivation,
//! streaming home planning, per-home simulation, worker-local partial
//! reports, the hierarchical merge, and the integer-only serialization
//! of the report.

use v6brick_experiments::fleet::{self, CampaignSpec};

/// 32 homes, seed 7. Small homes and a short window keep the test fast
/// while still exercising every network config in the default mix.
fn spec(workers: usize) -> CampaignSpec {
    CampaignSpec {
        homes: 32,
        seed: 7,
        workers,
        device_range: (2, 5),
        duration_s: 60,
        ..Default::default()
    }
}

#[test]
fn worker_count_does_not_change_the_report() {
    let serial = serde_json::to_string(&fleet::run(&spec(1))).unwrap();
    for workers in [2usize, 8] {
        let parallel = serde_json::to_string(&fleet::run(&spec(workers))).unwrap();
        assert_eq!(
            serial, parallel,
            "report must not depend on worker count (diverged at {workers})"
        );
    }
}

#[test]
fn population_pass_subset_matches_full_pass_report() {
    // The default campaign runs only the passes whose fields the
    // population report reads. Running every pass must produce the
    // byte-identical report — the extra passes only populate fields the
    // report never looks at.
    use v6brick_core::analysis::PassId;
    let subset = spec(4);
    let full = CampaignSpec {
        passes: PassId::ALL.to_vec(),
        ..spec(4)
    };
    assert_eq!(
        serde_json::to_string(&fleet::run(&subset)).unwrap(),
        serde_json::to_string(&fleet::run(&full)).unwrap(),
        "disabling report-irrelevant passes must not change the report"
    );
}

#[test]
fn merged_shards_equal_one_campaign() {
    // Streaming aggregation must compose: absorbing homes one campaign
    // at a time via `merge` matches absorbing them all at once. We model
    // shards by re-running the same homes split across two half-size
    // reports (shard = distinct fold targets, same planned homes).
    use v6brick_core::population::PopulationReport;
    use v6brick_fleet::{plan_homes, run_indexed};
    use v6brick_sim::SimTime;

    let s = spec(2);
    let (dev_min, dev_max) = s.device_range;
    let plans = plan_homes(s.seed, s.homes, &s.mix, dev_min..=dev_max);
    let duration = SimTime::from_secs(s.duration_s);

    let run_slice = |homes: Vec<_>| {
        run_indexed(
            homes,
            2,
            |home: v6brick_fleet::HomeSpec<_>| {
                let run = v6brick_experiments::scenario::run_scoped(
                    home.config,
                    &home.profiles,
                    home.seed,
                    duration,
                    &v6brick_core::analysis::PassId::ALL,
                );
                (
                    run.config.label().to_string(),
                    run.analysis.devices,
                    run.functional,
                    run.frames,
                )
            },
            PopulationReport::new(s.seed),
            |report, _i, (label, devices, functional, frames)| {
                report.absorb_home(&label, &devices, &functional, frames);
            },
        )
    };

    let mut all = plans.clone();
    let tail = all.split_off(all.len() / 2);
    let mut merged = run_slice(all);
    merged.merge(&run_slice(tail));

    let whole = fleet::run(&s);
    assert_eq!(
        serde_json::to_string(&merged).unwrap(),
        serde_json::to_string(&whole).unwrap(),
        "merge of shard reports must equal the one-shot campaign"
    );
}
