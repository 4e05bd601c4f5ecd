//! One generator per paper table, one module per generator. Every number
//! here is *measured* from the captures (or the device models for the
//! functionality column); the registry's ground truth is never consulted.
//!
//! Each module declares the analyzer passes its generator reads
//! (`PASSES`, e.g. [`table3::PASSES`]) so callers — the `repro` binary in
//! particular — can run a
//! [`StreamingAnalyzer`](v6brick_core::StreamingAnalyzer) with the union
//! of exactly the passes an artifact needs instead of paying for the
//! full pipeline. The generator functions are re-exported here, so
//! `tables::table3(&suite)` keeps compiling unchanged alongside
//! `tables::table3::PASSES`.

pub mod dad;
pub mod headline;
pub mod table10;
pub mod table11;
pub mod table12;
pub mod table13;
pub mod table3;
pub mod table4;
pub mod table5;
pub mod table6;
pub mod table7;
pub mod table8;
pub mod table9;
pub mod variants;

pub use dad::{dad_counts, dad_report};
pub use headline::headline_numbers;
pub use table10::table10;
pub use table11::table11;
pub use table12::table12;
pub use table13::table13;
pub use table3::table3;
pub use table4::table4;
pub use table5::table5;
pub use table6::table6;
pub use table7::table7;
pub use table8::table8;
pub use table9::table9;
pub use variants::variants;

use crate::suite::ExperimentSuite;
use v6brick_core::analysis::PassId;
use v6brick_devices::profile::{Category, DeviceProfile, Os};

/// Addressing + DNS + traffic (no NDP row).
pub const FEATURE_PASSES: &[PassId] = &[PassId::Addressing, PassId::Dns, PassId::Traffic];

/// Union of the passes every table generator declares — the suite scope
/// that can serve any table.
pub fn all_table_passes() -> Vec<PassId> {
    let mut out: Vec<PassId> = Vec::new();
    for passes in [
        table3::PASSES,
        table4::PASSES,
        table5::PASSES,
        table6::PASSES,
        table7::PASSES,
        table8::PASSES,
        table9::PASSES,
        table10::PASSES,
        table11::PASSES,
        table12::PASSES,
        table13::PASSES,
        variants::PASSES,
        dad::PASSES,
        headline::PASSES,
    ] {
        for p in passes {
            if !out.contains(p) {
                out.push(*p);
            }
        }
    }
    out
}

/// Count devices per category satisfying `pred`.
pub fn count_by_category(
    suite: &ExperimentSuite,
    mut pred: impl FnMut(&str) -> bool,
) -> Vec<usize> {
    Category::ALL
        .iter()
        .map(|c| {
            suite
                .profiles
                .iter()
                .filter(|p| p.category == *c && pred(&p.id))
                .count()
        })
        .collect()
}

/// The OS columns of Tables 8 and 13, in column order.
const OS_COLUMNS: [Os; 5] = [
    Os::Tizen,
    Os::FireOs,
    Os::AndroidBased,
    Os::Fuchsia,
    Os::IosTvos,
];

/// The column groups Tables 8 and 13 share: a total, every manufacturer
/// or platform with at least three devices, then OS columns.
struct Columns<'a> {
    suite: &'a ExperimentSuite,
    mans: Vec<&'a str>,
    oses: Vec<Os>,
}

impl<'a> Columns<'a> {
    /// The manufacturers of at least three devices, sorted, and the
    /// [`OS_COLUMNS`] that `keep_os` keeps.
    fn new(suite: &'a ExperimentSuite, keep_os: impl Fn(Os) -> bool) -> Columns<'a> {
        let mut mans: Vec<&str> = suite
            .profiles
            .iter()
            .map(|p| p.manufacturer.as_str())
            .collect();
        mans.sort_unstable();
        mans.dedup();
        mans.retain(|m| {
            suite
                .profiles
                .iter()
                .filter(|p| p.manufacturer == *m)
                .count()
                >= 3
        });
        let oses = OS_COLUMNS.into_iter().filter(|&os| keep_os(os)).collect();
        Columns { suite, mans, oses }
    }

    /// The header row, led by `first`.
    fn headers(&self, first: &str) -> Vec<String> {
        let mut headers = vec![first.to_string(), "Total".to_string()];
        headers.extend(self.mans.iter().map(|m| m.to_string()));
        headers.extend(self.oses.iter().map(|os| os.label().to_string()));
        headers
    }

    /// One row led by `label`: `cell` summed over every device, then
    /// over each manufacturer's devices and each OS's devices.
    fn row(&self, label: &str, cell: impl Fn(&DeviceProfile) -> usize) -> Vec<String> {
        let sum = |keep: &dyn Fn(&DeviceProfile) -> bool| {
            let n: usize = self
                .suite
                .profiles
                .iter()
                .filter(|p| keep(p))
                .map(&cell)
                .sum();
            n.to_string()
        };
        let mut r = vec![label.to_string(), sum(&|_| true)];
        r.extend(self.mans.iter().map(|m| sum(&|p| p.manufacturer == *m)));
        r.extend(self.oses.iter().map(|os| sum(&|p| p.os == *os)));
        r
    }
}
