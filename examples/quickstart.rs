//! Quickstart: run one connectivity experiment over the full 93-device
//! testbed and print the headline IPv6-readiness funnel.
//!
//! ```sh
//! cargo run --release --example quickstart
//! ```

use v6brick::core::funnel::Stage;
use v6brick::experiments::{tables, ExperimentSuite, NetworkConfig};

fn main() {
    println!(
        "Booting 93 IoT devices in an IPv6-only network (SLAAC + RDNSS + stateless DHCPv6)..."
    );
    let suite = ExperimentSuite::run_config(NetworkConfig::Ipv6Only);

    let functional = suite.functional_devices();
    println!(
        "\n{} of 93 devices remain functional without IPv4:",
        functional.len()
    );
    for id in &functional {
        let p = suite.profile(id);
        println!("  - {} ({})", p.name, p.category.label());
    }

    // The measured funnel for this single run, counted per Table 3 stage.
    let count = |stage| {
        suite
            .device_ids()
            .filter(|id| suite.reached_v6only(id, stage))
            .count()
    };
    println!("\nThe readiness funnel (one IPv6-only run):");
    for (label, stage) in [
        ("NDP traffic:", Stage::NdpTraffic),
        ("IPv6 address:", Stage::V6Addr),
        ("AAAA queries (v6):", Stage::AaaaQueryV6),
        ("AAAA answers:", Stage::AaaaAnswerV6),
        ("Internet v6 data:", Stage::V6InternetData),
        ("Functional:", Stage::Functional),
    ] {
        println!("  {label:<20}{}", count(stage));
    }

    println!("\nFull per-category breakdown:\n");
    // A single-config suite supports Table 3's IPv6-only scope.
    println!("{}", tables::table3(&suite));
}
