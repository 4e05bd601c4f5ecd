//! The streaming analysis pipeline must be indistinguishable from the
//! buffered one, and the parallel suite from the serial one.
//!
//! 1. A `StreamingAnalyzer` fed frame-by-frame from the simulator's
//!    capture tap produces an `ExperimentAnalysis` byte-identical (via
//!    serde_json) to buffering the whole capture and running `analyze`.
//! 2. `ExperimentSuite` construction folds runs in `NetworkConfig::ALL`
//!    order for any worker count, so the Table 3 / Table 5 renderings
//!    compare equal between the serial and parallel paths.

use v6brick_core::analysis::PassId;
use v6brick_core::observe::{self, StreamingAnalyzer};
use v6brick_devices::registry;
use v6brick_devices::stack::IotDevice;
use v6brick_experiments::suite::ExperimentSuite;
use v6brick_experiments::{scenario, tables, NetworkConfig};
use v6brick_net::Mac;
use v6brick_sim::{Internet, Router, SimTime, SimulationBuilder};

/// Run one household simulation with BOTH the buffered capture and a
/// streaming sink attached, so the two analysis paths observe exactly
/// the same tap.
fn both_paths(config: NetworkConfig, ids: &[&str]) -> (String, String) {
    let profiles: Vec<_> = ids.iter().map(|id| registry::by_id(id)).collect();
    let zones = scenario::build_zones(&profiles);
    let mut b = SimulationBuilder::new(Router::new(config.router_config()), Internet::new(zones));
    let macs: Vec<(Mac, String)> = profiles
        .iter()
        .map(|p| {
            b.add_host(Box::new(IotDevice::new(p.clone())));
            (p.mac, p.id.clone())
        })
        .collect();
    b.add_sink(Box::new(StreamingAnalyzer::new(
        &macs,
        scenario::lan_prefix(),
    )));
    let mut sim = b.seed(0x5eed ^ config as u64).build();
    sim.run_until(SimTime::from_secs(180));

    let capture = sim.take_capture();
    let streamed = sim
        .take_sinks()
        .pop()
        .unwrap()
        .into_any()
        .downcast::<StreamingAnalyzer>()
        .unwrap();
    assert_eq!(
        streamed.frames_fed(),
        capture.len() as u64,
        "the sink must see every tapped frame"
    );
    let buffered = observe::analyze(&capture, &macs, scenario::lan_prefix());
    (
        serde_json::to_string(&buffered).unwrap(),
        serde_json::to_string(&streamed.finish()).unwrap(),
    )
}

#[test]
fn streaming_equals_buffered_ipv6_only() {
    let (buffered, streamed) = both_paths(
        NetworkConfig::Ipv6Only,
        &["google_home_mini", "echo_show_5", "aqara_hub"],
    );
    assert_eq!(buffered, streamed);
}

#[test]
fn streaming_equals_buffered_dual_stack() {
    let (buffered, streamed) = both_paths(
        NetworkConfig::DualStack,
        &["echo_show_5", "nest_camera", "apple_tv", "wyze_cam"],
    );
    assert_eq!(buffered, streamed);
}

#[test]
fn parallel_suite_is_byte_deterministic() {
    let ids = [
        "google_home_mini",
        "echo_show_5",
        "nest_camera",
        "apple_tv",
        "wyze_cam",
        "aqara_hub",
    ];
    let profiles = || ids.iter().map(|id| registry::by_id(id)).collect();
    let serial =
        ExperimentSuite::run_configs_scoped(profiles(), &NetworkConfig::ALL, 1, &PassId::ALL);
    let parallel =
        ExperimentSuite::run_configs_scoped(profiles(), &NetworkConfig::ALL, 4, &PassId::ALL);

    // Runs fold in NetworkConfig::ALL order regardless of worker count...
    let order: Vec<NetworkConfig> = parallel.runs().iter().map(|r| r.config).collect();
    assert_eq!(order, NetworkConfig::ALL.to_vec());

    // ...and the rendered Table 3 / Table 5 artifacts are byte-identical.
    assert_eq!(
        tables::table3(&serial).to_string(),
        tables::table3(&parallel).to_string()
    );
    assert_eq!(
        tables::table5(&serial).to_string(),
        tables::table5(&parallel).to_string()
    );
}
