//! Byte-level pin on the active port scan.
//!
//! The unit tests in `portscan` check a few devices' well-known ports;
//! this file pins every device's v4/v6 TCP/UDP result of the quick scan
//! over the whole registry, so a change to how the scan is simulated
//! (when the scanner joins, how the targets are harvested) cannot shift
//! a single port.

use v6brick_devices::registry;
use v6brick_experiments::portscan::{scan, ScanPlan};

/// FNV-1a.
fn digest(bytes: &[u8]) -> u64 {
    bytes.iter().fold(0xcbf2_9ce4_8422_2325, |h, &b| {
        (h ^ u64::from(b)).wrapping_mul(0x100_0000_01b3)
    })
}

#[test]
fn quick_scan_of_the_registry_is_pinned() {
    let results = scan(&registry::build(), &ScanPlan::quick());
    let open: usize = results
        .values()
        .map(|d| {
            d.v4.open_tcp.len() + d.v4.open_udp.len() + d.v6.open_tcp.len() + d.v6.open_udp.len()
        })
        .sum();
    let text = format!("{results:?}");
    assert_eq!(
        (results.len(), open, text.len(), digest(text.as_bytes())),
        (93, 31, 11826, 0x4038_aa72_af7f_fc73),
        "quick-scan results changed"
    );
}
