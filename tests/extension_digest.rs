//! Byte-level pins on the two §7 extension reports.
//!
//! `repro reachability` and `repro enterprise` print reports that no
//! other test reads byte for byte, and `repro all` prints neither. The
//! reachability report runs its degraded homes through the same
//! executor as every other experiment, so a change to that executor
//! must keep both reports' rendered text. This file pins each one's
//! length and FNV-1a digest.

use v6brick::experiments::{enterprise, reachability};

/// FNV-1a over the rendered text.
fn fnv1a(bytes: &[u8]) -> u64 {
    bytes.iter().fold(0xcbf2_9ce4_8422_2325, |h, &b| {
        (h ^ u64::from(b)).wrapping_mul(0x100_0000_01b3)
    })
}

fn assert_pinned(name: &str, text: &str, pinned: (usize, u64)) {
    let got = (text.len(), fnv1a(text.as_bytes()));
    assert_eq!(
        got, pinned,
        "{name} report bytes changed: {} bytes, digest {:#018x}\n{text}",
        got.0, got.1
    );
}

/// (rendered bytes, FNV-1a) of `reachability::report()`.
const PINNED_REACHABILITY: (usize, u64) = (491, 0xfe4a_9108_65e2_5784);

/// (rendered bytes, FNV-1a) of `enterprise::report()`.
const PINNED_ENTERPRISE: (usize, u64) = (553, 0x231f_ba43_b6fc_3cd3);

#[test]
fn reachability_report_is_pinned() {
    let text = reachability::report().to_string();
    assert_pinned("reachability", &text, PINNED_REACHABILITY);
}

#[test]
fn enterprise_report_is_pinned() {
    let text = enterprise::report().to_string();
    assert_pinned("enterprise", &text, PINNED_ENTERPRISE);
}
