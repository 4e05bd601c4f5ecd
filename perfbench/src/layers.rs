//! One home (or one suite config) rebuilt from public parts with a timer
//! at every layer boundary, and the per-layer totals it feeds.
//!
//! [`traced_home`] mirrors the harness's private runner in
//! `v6brick_experiments::scenario`: the same zone database, router,
//! internet model, host order, analyzer and seed, so its
//! [`ExperimentRun`] serializes to the same bytes as the untraced one.

use crate::trace;
use crate::wrap::{Meter, TimedHost, TimedSink};
use std::borrow::Borrow;
use std::collections::BTreeMap;
use std::sync::{Arc, Mutex};
use std::time::Instant;
use v6brick_core::analysis::PassId;
use v6brick_core::observe::StreamingAnalyzer;
use v6brick_devices::phone::Phone;
use v6brick_devices::profile::DeviceProfile;
use v6brick_devices::stack::IotDevice;
use v6brick_experiments::scenario::{build_zones, lan_prefix, ExperimentRun, ZoneCache};
use v6brick_experiments::NetworkConfig;
use v6brick_net::parse::ParsedPacket;
use v6brick_net::Mac;
use v6brick_sim::{FaultPlan, Internet, Router, SimTime, SimulationBuilder};

/// Frames kept per home for the parser probe: one in `SAMPLE_EVERY`, at
/// most `SAMPLE_CAP`.
const SAMPLE_EVERY: u64 = 64;
const SAMPLE_CAP: usize = 256;

/// Counters gathered inside a home's `run_until` and `finish`.
#[derive(Debug, Default)]
pub struct Counters {
    pub device_ns: u64,
    pub device_events: u64,
    pub deliveries: u64,
    pub sink_ns: u64,
    pub frames: u64,
    pub bytes: u64,
    pub parse_errors: u64,
    pub pass_ns: BTreeMap<&'static str, u64>,
    pub sample: Vec<Vec<u8>>,
}

impl Counters {
    pub fn add(&mut self, o: Counters) {
        self.device_ns += o.device_ns;
        self.device_events += o.device_events;
        self.deliveries += o.deliveries;
        self.sink_ns += o.sink_ns;
        self.frames += o.frames;
        self.bytes += o.bytes;
        self.parse_errors += o.parse_errors;
        for (k, v) in o.pass_ns {
            *self.pass_ns.entry(k).or_insert(0) += v;
        }
        self.sample.extend(o.sample);
    }
}

/// Counters shared by a pool's workers.
pub type SharedCounters = Arc<Mutex<Counters>>;

/// Simulate and analyze one home with every host wrapped in a
/// [`TimedHost`] and the analyzer in a [`TimedSink`]. Records spans
/// `build`, `run_until` (self time = engine, router and internet),
/// `finish` and `teardown` under `parent`.
#[allow(clippy::too_many_arguments)]
pub fn traced_home<P: Borrow<DeviceProfile>>(
    cache: Option<&mut ZoneCache>,
    config: NetworkConfig,
    profiles: &[P],
    base_seed: u64,
    duration: SimTime,
    passes: &[PassId],
    group: u64,
    parent: Option<u64>,
    counters: &SharedCounters,
) -> ExperimentRun {
    let build = trace::begin("build", group, parent);
    let zones = match cache {
        Some(c) => c.zones_for(profiles),
        None => build_zones(profiles),
    };
    let mut b = SimulationBuilder::new(Router::new(config.router_config()), Internet::new(zones));
    let meter = Arc::new(Meter::default());
    let timed = |h: Box<dyn v6brick_sim::Host>| Box::new(TimedHost::new(h, Arc::clone(&meter)));
    let mut device_ids = Vec::with_capacity(profiles.len());
    for p in profiles {
        let p = p.borrow();
        let id = b.add_host(timed(Box::new(IotDevice::new(p.clone()))));
        device_ids.push((id, p.id.clone(), p.mac));
    }
    let pixel = b.add_host(timed(Box::new(Phone::pixel7())));
    let iphone = b.add_host(timed(Box::new(Phone::iphone_x())));
    let macs: Vec<(Mac, String)> = device_ids
        .iter()
        .map(|(_, id, mac)| (*mac, id.clone()))
        .collect();
    let mut analyzer = StreamingAnalyzer::with_passes(&macs, lan_prefix(), passes);
    analyzer.enable_metrics();
    b.add_sink(Box::new(TimedSink::new(
        Box::new(analyzer),
        SAMPLE_EVERY,
        SAMPLE_CAP,
    )));
    let mut sim = b
        .seed(base_seed ^ config as u64)
        .capture(false)
        .faults(FaultPlan::new())
        .build();
    build.end();

    let run = trace::begin("run_until", group, parent);
    sim.run_until(duration);
    let run = run.stop();

    let finish = trace::begin("finish", group, parent);
    let functional = device_ids
        .iter()
        .map(|(hid, id, _)| {
            let dev = sim
                .host(*hid)
                .as_any()
                .downcast_ref::<IotDevice>()
                .expect("host is a device");
            (id.clone(), dev.is_functional())
        })
        .collect();
    let phones_ok = [pixel, iphone].iter().all(|h| {
        sim.host(*h)
            .as_any()
            .downcast_ref::<Phone>()
            .is_some_and(|p| p.network_ok())
    });
    let neighbors_v6 = sim.router().neighbor_table_v6();
    let sink = *sim
        .take_sinks()
        .pop()
        .expect("the timed analyzer was attached above")
        .into_any()
        .downcast::<TimedSink>()
        .expect("the only sink is the timed analyzer");
    let analyzer = sink
        .inner
        .into_any()
        .downcast::<StreamingAnalyzer>()
        .expect("the timed sink wraps the analyzer");
    let frames = analyzer.frames_fed();
    let parse_errors = analyzer.parse_errors();
    let pass_ns = analyzer
        .pass_metrics()
        .into_iter()
        .map(|(id, m)| (id.label(), m.nanos))
        .collect();
    let analysis = analyzer.finish();
    finish.end();

    trace::span("teardown", group, parent, || drop(sim));
    let callback_ns = meter.ns() + sink.ns;
    run.record(callback_ns);
    counters.lock().expect("counters poisoned").add(Counters {
        device_ns: meter.ns(),
        device_events: meter.events(),
        deliveries: meter.frames(),
        sink_ns: sink.ns,
        frames: sink.frames,
        bytes: sink.bytes,
        parse_errors,
        pass_ns,
        sample: sink.sample,
    });
    ExperimentRun {
        config,
        analysis,
        functional,
        phones_ok,
        neighbors_v6,
        frames,
    }
}

/// Everything about a run that downstream reports read, as one string:
/// two runs compare equal exactly when their serialized outputs do.
pub fn run_bytes(run: &ExperimentRun) -> String {
    format!(
        "{}|{}|{:?}|{}|{:?}|{}",
        run.config.label(),
        serde_json::to_string(&run.analysis).expect("analysis serializes"),
        run.functional,
        run.phones_ok,
        run.neighbors_v6,
        run.frames
    )
}

/// Nanoseconds `ParsedPacket::parse` takes per frame over `frames`,
/// repeated until at least 20 ms have been timed.
pub fn parse_ns_per_frame(frames: &[Vec<u8>]) -> f64 {
    if frames.is_empty() {
        return 0.0;
    }
    let mut parsed = 0u64;
    let t0 = Instant::now();
    while t0.elapsed().as_millis() < 20 {
        for f in frames {
            std::hint::black_box(ParsedPacket::parse(std::hint::black_box(f)).ok());
        }
        parsed += frames.len() as u64;
    }
    t0.elapsed().as_nanos() as f64 / parsed as f64
}

/// The simulator, device, analyzer and parser metrics of a traced run,
/// from its spans and counters, divided by `units` (traced repetitions)
/// where the metric is a total.
pub fn sim_metrics(
    out: &mut crate::metrics::Outcome,
    spans: &[trace::Span],
    c: &Counters,
    homes: f64,
    units: f64,
) {
    let self_ns = trace::self_by_name(spans);
    let dur_ns = trace::dur_by_name(spans);
    let get = |m: &BTreeMap<&str, u64>, k: &str| m.get(k).copied().unwrap_or(0) as f64;
    let engine_ns = get(&self_ns, "run_until");
    let frames = c.frames as f64;
    let kb = c.bytes as f64 / 1024.0;
    out.set("sim.build_ms_per_home", get(&dur_ns, "build") / homes / 1e6);
    out.set("sim.engine_self_s", engine_ns / units / 1e9);
    out.set("sim.engine_ns_per_frame", engine_ns / frames.max(1.0));
    out.set("sim.engine_ns_per_kb", engine_ns / kb.max(1.0));
    out.set("sim.frames", frames / units);
    out.set("sim.frame_kb", kb / units);
    out.set(
        "sim.deliveries_per_frame",
        c.deliveries as f64 / frames.max(1.0),
    );
    out.set("devices.busy_s", c.device_ns as f64 / units / 1e9);
    out.set(
        "devices.ns_per_event",
        c.device_ns as f64 / (c.device_events as f64).max(1.0),
    );
    let analysis_ns = c.sink_ns as f64 + get(&dur_ns, "finish");
    out.set("core.analysis_busy_s", analysis_ns / units / 1e9);
    out.set("core.analysis_ns_per_frame", analysis_ns / frames.max(1.0));
    for (pass, name) in [
        ("addressing", "core.pass_ns.addressing"),
        ("ndp_dad", "core.pass_ns.ndp_dad"),
        ("dns", "core.pass_ns.dns"),
        ("traffic", "core.pass_ns.traffic"),
        ("eui64", "core.pass_ns.eui64"),
    ] {
        out.set(
            name,
            c.pass_ns.get(pass).copied().unwrap_or(0) as f64 / units,
        );
    }
    out.set("core.parse_errors", c.parse_errors as f64);
    if c.parse_errors != 0 {
        eprintln!("the analyzer could not parse {} frames", c.parse_errors);
        out.correct = false;
    }
    out.set("net.parse_ns_per_frame", parse_ns_per_frame(&c.sample));
}

/// Pool accounting over the traced phase: `busy_ns` is the summed
/// duration of every pool item, `wall_ns` the phase's wall time, and
/// `items` the names of the spans around one item (`home`, `config`).
/// Sets `fleet.pool_idle_frac` and `trace.ledger_frac` and returns the
/// ledger: the self times of the layer spans, the callback counters
/// `counters_ns` and pool idle, over `workers × wall`. An item span's own
/// self time — time inside an item that no layer span or counter covers —
/// is left out, so time outside the measured layers shows as a shortfall
/// below 1.
pub fn pool_metrics(
    out: &mut crate::metrics::Outcome,
    spans: &[trace::Span],
    items: &[&str],
    counters_ns: u64,
    busy_ns: u64,
    wall_ns: u64,
    workers: usize,
) -> f64 {
    let capacity = workers as f64 * wall_ns as f64;
    let idle = (capacity - busy_ns as f64).max(0.0);
    let layers: u64 = trace::self_by_name(spans)
        .into_iter()
        .filter(|(name, _)| !items.contains(name))
        .map(|(_, ns)| ns)
        .sum();
    let ledger = (layers as f64 + counters_ns as f64 + idle) / capacity;
    out.set("fleet.pool_idle_frac", idle / capacity);
    out.set("trace.ledger_frac", ledger);
    ledger
}

/// Do the layers account for `workers × wall` within 10 %?
pub fn ledger_ok(ledger: f64) -> bool {
    (ledger - 1.0).abs() <= 0.1
}

/// A digest of `bytes` for comparing outputs across repetitions: the
/// fleet crate's checksum fold.
pub fn digest(bytes: &[u8]) -> u64 {
    v6brick_fleet::seed::fold_bytes(0, bytes)
}

#[cfg(test)]
mod tests {
    use super::*;
    use v6brick_devices::registry;
    use v6brick_experiments::scenario;

    fn span(id: u64, parent: Option<u64>, name: &'static str, at: (u64, u64)) -> trace::Span {
        trace::Span {
            id,
            parent,
            name,
            group: 0,
            thread: 0,
            start_ns: at.0,
            end_ns: at.1,
            attributed_ns: 0,
        }
    }

    #[test]
    fn the_ledger_falls_short_when_a_layer_is_not_wrapped() {
        // Two workers over a 1,000 ns wall: one home of 0..1000 and one
        // of 0..900, each a 200 ns build, a run_until whose callbacks
        // (300 ns) the counters carry, and a finish.
        let homes = |build: bool| {
            let mut v = Vec::new();
            for (k, end) in [(0u64, 1000u64), (10, 900)] {
                v.push(span(k + 1, None, "home", (0, end)));
                if build {
                    v.push(span(k + 2, Some(k + 1), "build", (0, 200)));
                }
                let mut run = span(k + 3, Some(k + 1), "run_until", (200, end - 100));
                run.attributed_ns = 300;
                v.push(run);
                v.push(span(k + 4, Some(k + 1), "finish", (end - 100, end - 10)));
            }
            v
        };
        let ledger = |spans: &[trace::Span]| {
            let mut out = crate::metrics::Outcome::default();
            pool_metrics(&mut out, spans, &["home"], 600, 1900, 1000, 2)
        };
        // Each home's last 10 ns are outside every layer.
        let full = ledger(&homes(true));
        assert!((full - 0.99).abs() < 1e-9, "{full}");
        assert!(ledger_ok(full));
        // Without its span the build time is the homes' own, unaccounted.
        let unwrapped = ledger(&homes(false));
        assert!((unwrapped - 0.79).abs() < 1e-9, "{unwrapped}");
        assert!(!ledger_ok(unwrapped));
    }

    #[test]
    fn wrapped_tiny_home_reproduces_the_unwrapped_run() {
        // Tests share the span list; this one's spans carry their own group.
        const GROUP: u64 = 1 << 40;
        let profiles: Vec<DeviceProfile> = ["google_home_mini", "echo_show_5", "wyze_cam"]
            .into_iter()
            .map(registry::by_id)
            .collect();
        let window = SimTime::from_secs(60);
        let counters = SharedCounters::default();
        for config in [NetworkConfig::Ipv6Only, NetworkConfig::DualStack] {
            let want = scenario::run_scoped(config, &profiles, 7, window, &PassId::ALL);
            let frames_before = counters.lock().unwrap().frames;
            let home = trace::begin("home", GROUP, None);
            let got = traced_home(
                None,
                config,
                &profiles,
                7,
                window,
                &PassId::ALL,
                GROUP,
                Some(home.id()),
                &counters,
            );
            home.end();
            assert_eq!(run_bytes(&got), run_bytes(&want), "{}", config.label());
            let c = counters.lock().unwrap();
            assert_eq!(c.frames - frames_before, want.frames);
            assert!(c.device_ns > 0 && c.sink_ns > 0 && c.deliveries > 0);
        }
        let spans: Vec<trace::Span> = trace::drain()
            .into_iter()
            .filter(|s| s.group == GROUP)
            .collect();
        for name in ["build", "run_until", "finish", "teardown"] {
            assert_eq!(trace::durations(&spans, name).len(), 2, "{name}");
        }
        // One worker that ran the two homes back to back: the layers
        // account for the homes' time.
        let busy = trace::dur_by_name(&spans)["home"];
        let c = counters.lock().unwrap();
        let mut out = crate::metrics::Outcome::default();
        let ledger = pool_metrics(
            &mut out,
            &spans,
            &["home"],
            c.device_ns + c.sink_ns,
            busy,
            busy,
            1,
        );
        assert!(ledger_ok(ledger), "{ledger}");
    }
}
