//! A byte-level pin on `repro fleet`'s human-readable summary.
//!
//! `fleet::render` prints the Table 3 funnel and the Table 5 behaviour
//! marginals of a campaign. The JSON report is pinned elsewhere; this
//! file pins the rendered text of a small fixed campaign (length and
//! FNV-1a), so the labels, order and percentages of every block hold.

use v6brick::experiments::fleet::{self, CampaignSpec};

/// FNV-1a over the rendered text.
fn fnv1a(bytes: &[u8]) -> u64 {
    bytes.iter().fold(0xcbf2_9ce4_8422_2325, |h, &b| {
        (h ^ u64::from(b)).wrapping_mul(0x100_0000_01b3)
    })
}

/// 16 homes of the default mix, 60 s windows, two workers.
fn campaign() -> CampaignSpec {
    CampaignSpec {
        homes: 16,
        workers: 2,
        duration_s: 60,
        ..Default::default()
    }
}

/// (rendered bytes, FNV-1a) of `fleet::render` over [`campaign`].
const PINNED_RENDER: (usize, u64) = (1399, 0x031d_6ca2_9647_3af7);

#[test]
fn campaign_summary_is_pinned() {
    let report = fleet::run(&campaign());
    assert!(report.failures.is_empty(), "{:?}", report.failures);
    let text = fleet::render(&report);
    let got = (text.len(), fnv1a(text.as_bytes()));
    assert_eq!(
        got, PINNED_RENDER,
        "fleet summary bytes changed: {} bytes, digest {:#018x}\n{text}",
        got.0, got.1
    );
}
