//! Scenario: you are deciding whether *your* smart home can survive an
//! IPv6-only ISP. Pick the devices you own, run them through the
//! IPv6-only and dual-stack experiments, and get a per-device verdict
//! with every Table 3 stage it reached or missed on IPv6-only — the
//! paper's RQ1 as a tool. The stages are not nested: a gateway can send
//! IPv6 data to a hard-coded endpoint without ever asking for AAAA.
//!
//! ```sh
//! cargo run --release --example ipv6_readiness_audit -- echo_show_5 nest_camera apple_tv hue_hub
//! ```
//! (With no arguments, a representative mixed household is audited.)

use v6brick::core::funnel::Stage;
use v6brick::devices::registry;
use v6brick::experiments::{scenario, NetworkConfig};

/// This report's name for each Table 3 stage.
fn label(stage: Stage) -> &'static str {
    match stage {
        Stage::NdpTraffic => "NDP traffic",
        Stage::V6Addr => "IPv6 address",
        Stage::ActiveGua => "active global address",
        Stage::AaaaQueryV6 => "AAAA query over IPv6",
        Stage::AaaaAnswerV6 => "AAAA answer over IPv6",
        Stage::V6InternetData => "IPv6 Internet data",
        Stage::Functional => "functional",
    }
}

fn main() {
    let args: Vec<String> = std::env::args().skip(1).collect();
    let ids: Vec<String> = if args.is_empty() {
        [
            "echo_show_5",
            "nest_camera",
            "apple_tv",
            "hue_hub",
            "samsung_fridge",
            "wyze_cam",
            "google_home_mini",
            "tplink_kasa_plug",
        ]
        .iter()
        .map(|s| s.to_string())
        .collect()
    } else {
        args
    };
    let mut profiles = Vec::new();
    for id in &ids {
        match registry::find(id) {
            Some(p) => profiles.push(p),
            None => {
                eprintln!("unknown device id {id:?}; valid ids are:");
                for p in registry::build() {
                    eprintln!("  {}", p.id);
                }
                std::process::exit(2);
            }
        }
    }

    println!(
        "Auditing {} devices for IPv6-only readiness...\n",
        profiles.len()
    );
    let v6 = scenario::run_with_profiles(NetworkConfig::Ipv6Only, &profiles);
    let dual = scenario::run_with_profiles(NetworkConfig::DualStack, &profiles);

    for p in &profiles {
        let works_v6 = v6.functional.get(&p.id).copied().unwrap_or(false);
        let works_dual = dual.functional.get(&p.id).copied().unwrap_or(false);
        let o = v6.analysis.device(&p.id).expect("analyzed");
        println!("{} ({} / {}):", p.name, p.manufacturer, p.category.label());
        if works_v6 {
            println!("  VERDICT: works on IPv6-only — safe to drop IPv4.");
        } else if works_dual {
            println!("  VERDICT: needs IPv4 — works dual-stack, bricks IPv6-only.");
        } else {
            println!("  VERDICT: did not complete its cloud rendezvous in either run.");
        }
        println!("  IPv6-only, stage by stage (Table 3):");
        for stage in Stage::ALL {
            let mark = if stage.reached(o, works_v6) {
                "reached"
            } else {
                "missed "
            };
            let volume = if stage == Stage::V6InternetData && o.v6_internet_data() {
                format!(" ({} KiB)", o.v6_internet_bytes / 1024)
            } else {
                String::new()
            };
            println!("    {mark}  {}{volume}", label(stage));
        }
        let v4_only: Vec<String> = p
            .required_destinations()
            .filter(|d| o.aaaa_neg.contains(&d.domain) || !d.aaaa_ready)
            .map(|d| d.domain.to_string())
            .collect();
        if !works_v6 && !v4_only.is_empty() {
            println!(
                "  IPv4-only required cloud endpoints: {}",
                v4_only.join(", ")
            );
        }
        println!();
    }

    let survivors = profiles
        .iter()
        .filter(|p| v6.functional.get(&p.id).copied().unwrap_or(false))
        .count();
    println!(
        "Summary: {survivors}/{} of this household would survive an IPv6-only network.",
        profiles.len()
    );
}
