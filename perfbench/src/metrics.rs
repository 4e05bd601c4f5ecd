//! The metric catalogue and the result line.
//!
//! `BENCHMARK.json` declares the same names and units; a test keeps the
//! two in step.

use std::collections::BTreeMap;
use std::fmt::Write as _;

/// End-to-end metrics, reported by every untraced run of every workload.
pub const END_TO_END: &[(&str, &str)] = &[("setup_s", "s"), ("wall_s", "s"), ("peak_rss_mb", "MB")];

/// Per-layer metrics, reported by every traced run. A workload that does
/// not reach a layer reports 0 for it.
pub const PER_LAYER: &[(&str, &str)] = &[
    ("sim.build_ms_per_home", "ms/home"),
    ("sim.engine_self_s", "s"),
    ("sim.engine_ns_per_frame", "ns/frame"),
    ("sim.engine_ns_per_kb", "ns/KB"),
    ("sim.frames", "count"),
    ("sim.frame_kb", "KB"),
    ("sim.deliveries_per_frame", "count/frame"),
    ("devices.busy_s", "s"),
    ("devices.ns_per_event", "ns/event"),
    ("core.analysis_busy_s", "s"),
    ("core.analysis_ns_per_frame", "ns/frame"),
    ("core.pass_ns.addressing", "ns"),
    ("core.pass_ns.ndp_dad", "ns"),
    ("core.pass_ns.dns", "ns"),
    ("core.pass_ns.traffic", "ns"),
    ("core.pass_ns.eui64", "ns"),
    ("core.merge_ms", "ms"),
    ("core.parse_errors", "count"),
    ("net.parse_ns_per_frame", "ns/frame"),
    ("pcap.decode_ns_per_kb.pcap", "ns/KB"),
    ("pcap.decode_ns_per_kb.pcapng", "ns/KB"),
    ("pcap.encode_s", "s"),
    ("fleet.pool_idle_frac", "frac"),
    ("fleet.home_ms_p50", "ms"),
    ("fleet.home_ms_p90", "ms"),
    ("ingest.uploads_per_s", "1/s"),
    ("ingest.upload_p50_ms", "ms"),
    ("ingest.upload_p99_ms", "ms"),
    ("ingest.recover_s", "s"),
    ("ingest.send_ms_p50", "ms"),
    ("ingest.ack_wait_ms_p50", "ms"),
    ("ingest.pass_ns.addressing", "ns"),
    ("ingest.pass_ns.ndp_dad", "ns"),
    ("ingest.pass_ns.dns", "ns"),
    ("ingest.pass_ns.traffic", "ns"),
    ("ingest.wal_records", "count"),
    ("ingest.wal_kb", "KB"),
    ("ingest.snapshots_written", "count"),
    ("ingest.recover.snapshot_load_s", "s"),
    ("ingest.recover.wal_scan_s", "s"),
    ("ingest.kb_per_upload", "KB"),
    ("ingest.uploads_failed", "count"),
    ("ingest.uploads_duplicate", "count"),
    ("ingest.connections_refused", "count"),
    ("experiments.config_s.ipv4-only", "s"),
    ("experiments.config_s.ipv6-only", "s"),
    ("experiments.config_s.ipv6-only-rdnss", "s"),
    ("experiments.config_s.ipv6-only-stateful", "s"),
    ("experiments.config_s.dual-stack", "s"),
    ("experiments.config_s.dual-stack-stateful", "s"),
    ("experiments.tables_s", "s"),
    ("experiments.active_dns_s", "s"),
    ("experiments.portscan_s", "s"),
    ("experiments.bundle_ms_per_home", "ms/home"),
    ("experiments.wanscan.home_ms.mesh", "ms"),
    ("experiments.wanscan.home_ms.eth", "ms"),
    ("experiments.wanscan.policy_s.open", "s"),
    ("experiments.wanscan.policy_s.default-deny", "s"),
    ("experiments.wanscan.policy_s.pinholed", "s"),
    ("trace.overhead_frac", "frac"),
    ("trace.ledger_frac", "frac"),
];

/// Names: a letter or digit, then up to 63 letters, digits, `_`, `.`
/// and `-`.
pub fn valid_name(name: &str) -> bool {
    let ok = |c: char| c.is_ascii_alphanumeric() || matches!(c, '_' | '.' | '-');
    name.len() <= 64
        && name
            .chars()
            .next()
            .is_some_and(|c| c.is_ascii_alphanumeric())
        && name.chars().all(ok)
}

/// Units: 1 to 16 letters, digits, `_`, `/`, `%`, `.` and `-`.
pub fn valid_unit(unit: &str) -> bool {
    let ok = |c: char| c.is_ascii_alphanumeric() || matches!(c, '_' | '/' | '%' | '.' | '-');
    (1..=16).contains(&unit.len()) && unit.chars().all(ok)
}

/// What one run measured.
#[derive(Debug, Default)]
pub struct Outcome {
    pub correct: bool,
    pub attempted: u64,
    pub failed: u64,
    pub metrics: BTreeMap<&'static str, f64>,
}

impl Outcome {
    pub fn set(&mut self, name: &'static str, value: f64) {
        self.metrics.insert(name, value);
    }
}

/// Render the result line for `catalogue`. Every end-to-end metric must
/// be measured, finite and non-zero; a per-layer metric the workload
/// does not reach reads 0.
pub fn result_line(outcome: &Outcome, traced: bool) -> Result<String, String> {
    let catalogue = if traced { PER_LAYER } else { END_TO_END };
    if let Some(extra) = outcome
        .metrics
        .keys()
        .find(|k| !catalogue.iter().any(|(n, _)| n == *k))
    {
        return Err(format!("metric {extra} is not in the catalogue"));
    }
    let mut body = String::new();
    for (i, (name, unit)) in catalogue.iter().enumerate() {
        if !valid_name(name) || !valid_unit(unit) {
            return Err(format!(
                "metric {name} ({unit}) breaks the name or unit charset"
            ));
        }
        let value = match outcome.metrics.get(name) {
            Some(v) => *v,
            None if traced => 0.0,
            None => return Err(format!("end-to-end metric {name} was not measured")),
        };
        if !value.is_finite() || (!traced && value == 0.0) {
            return Err(format!("metric {name} has no usable value ({value})"));
        }
        if i > 0 {
            body.push_str(", ");
        }
        let _ = write!(
            body,
            "\"{name}\": {{\"value\": {value:?}, \"unit\": \"{unit}\"}}"
        );
    }
    Ok(format!(
        "{{\"correct\": {}, \"attempted\": {}, \"failed\": {}, \"metrics\": {{{body}}}}}",
        outcome.correct,
        outcome.attempted.max(1),
        outcome.failed
    ))
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn metric_names_and_units_obey_the_charset() {
        for (name, unit) in END_TO_END.iter().chain(PER_LAYER) {
            assert!(valid_name(name), "{name}");
            assert!(valid_unit(unit), "{unit}");
        }
        let mut names: Vec<&str> = END_TO_END
            .iter()
            .chain(PER_LAYER)
            .map(|(n, _)| *n)
            .collect();
        names.sort_unstable();
        let before = names.len();
        names.dedup();
        assert_eq!(names.len(), before, "metric names must be unique");
        assert!(PER_LAYER.len() <= 128 && (1..=16).contains(&END_TO_END.len()));

        assert!(!valid_name("_lead"));
        assert!(!valid_name("has space"));
        assert!(!valid_name("slash/no"));
        assert!(!valid_name(&"x".repeat(65)));
        assert!(valid_name("experiments.config_s.dual-stack-stateful"));
        assert!(!valid_unit(""));
        assert!(!valid_unit("ms per home"));
        assert!(valid_unit("ns/KB"));
    }

    #[test]
    fn catalogue_matches_benchmark_json() {
        let path = concat!(env!("CARGO_MANIFEST_DIR"), "/../BENCHMARK.json");
        let text = std::fs::read_to_string(path).expect("BENCHMARK.json at the repository root");
        let json: serde_json::Value = serde_json::from_str(&text).expect("BENCHMARK.json parses");
        for (key, catalogue) in [("end_to_end", END_TO_END), ("per_layer", PER_LAYER)] {
            let declared: Vec<(String, String)> = json
                .get(key)
                .and_then(|v| v.as_array())
                .expect("metric list")
                .iter()
                .map(|m| {
                    let field = |f: &str| m.get(f).and_then(|v| v.as_str()).expect("string field");
                    (field("name").to_string(), field("unit").to_string())
                })
                .collect();
            let ours: Vec<(String, String)> = catalogue
                .iter()
                .map(|(n, u)| (n.to_string(), u.to_string()))
                .collect();
            assert_eq!(declared, ours, "{key}");
        }
    }

    #[test]
    fn result_line_fills_unreached_layers_and_rejects_missing_end_to_end() {
        let mut o = Outcome {
            correct: true,
            attempted: 3,
            ..Default::default()
        };
        o.set("setup_s", 0.001);
        assert!(result_line(&o, false).is_err());
        o.set("wall_s", 6.25);
        o.set("peak_rss_mb", 80.5);
        let line = result_line(&o, false).unwrap();
        assert!(line.starts_with("{\"correct\": true, \"attempted\": 3, \"failed\": 0,"));
        assert!(line.contains("\"wall_s\": {\"value\": 6.25, \"unit\": \"s\"}"));
        let parsed: serde_json::Value = serde_json::from_str(&line).unwrap();
        assert_eq!(parsed.get("metrics").unwrap().as_object().unwrap().len(), 3);

        let traced = Outcome {
            correct: true,
            attempted: 1,
            ..Default::default()
        };
        let line = result_line(&traced, true).unwrap();
        let parsed: serde_json::Value = serde_json::from_str(&line).unwrap();
        assert_eq!(
            parsed.get("metrics").unwrap().as_object().unwrap().len(),
            PER_LAYER.len()
        );
    }
}
