//! Diagnostic: run the full six-experiment suite and print the headline
//! counts against their paper targets.
//!
//! ```sh
//! cargo run --release -p v6brick-experiments --example diagnostics
//! ```
use v6brick_experiments::suite::ExperimentSuite;
use v6brick_experiments::{figures, tables};

/// The paper's value for each Table 3 and Table 5 headline number.
const TARGETS: &[(&str, i64)] = &[
    ("t3_ndp", 59),
    ("t3_addr", 51),
    ("t3_gua", 27),
    ("t3_aaaa_v6", 22),
    ("t3_aaaa_pos", 19),
    ("t3_data", 19),
    ("t3_functional", 8),
    ("t5_addr", 54),
    ("t5_stateful", 12),
    ("t5_gua", 31),
    ("t5_ula", 23),
    ("t5_lla", 50),
    ("t5_eui64", 31),
    ("t5_dns6", 22),
    ("t5_a_only", 19),
    ("t5_aaaa_any", 37),
    ("t5_aaaa_v4only", 33),
    ("t5_aaaa_pos", 31),
    ("t5_stateless", 16),
    ("t5_trans", 29),
    ("t5_internet", 23),
    ("t5_local", 21),
];

fn main() {
    let t = std::time::Instant::now();
    let suite = ExperimentSuite::run_all();
    println!("suite: {:?}", t.elapsed());

    let measured = tables::headline_numbers(&suite);
    println!("--- Tables 3 and 5: measured (paper)");
    for (key, target) in TARGETS {
        println!("  {key:<16} {:>3} ({target})", measured[key]);
    }
    let f = figures::eui64_funnel(&suite);
    println!(
        "--- Fig 5 (targets 33/15/8/5): assign={} use={} dns={} data={}",
        f.assign, f.use_any, f.use_dns, f.use_internet_data
    );
    // Table 4 targets: ndp -1, addr +2, gua +3, aaaa +15, pos +12,
    // data +3 (the paper's own union arithmetic requires +4).
    println!("\n{}", tables::table4(&suite));
    // Table 6 targets: 684 addresses / 456 GUA / 169 ULA / 59 LLA;
    // 1077 AAAA names / 114 A-only / 334 v4-only / 531 answered.
    println!("\n{}", tables::table6(&suite));
    // Fig. 4: three devices above 80 %, the Nest Hubs below 20 %.
    println!("\n{}", figures::figure4(&suite));
}
