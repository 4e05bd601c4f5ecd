#![warn(missing_docs)]
//! # v6brick-core — the measurement pipeline
//!
//! The paper's contribution, as reusable library code: everything needed
//! to turn raw packet captures from a smart-home LAN into the IPv6
//! adoption, DNS, traffic, and privacy characterizations of §5.
//!
//! The pipeline deliberately sees **only what tcpdump saw**: Ethernet
//! frames plus (for the port-scan target list) the router's neighbor
//! table. Device ground truth never leaks in; the reproduction tests
//! assert that the *measured* values land on the paper's numbers.
//!
//! * [`analysis`] — the composable analyzer-pass pipeline: one
//!   [`analysis::AnalyzerPass`] per concern, composed by the
//!   [`StreamingAnalyzer`].
//! * [`flows`] — 5-tuple flow reassembly with per-direction accounting.
//! * [`funnel`] — the Table 3 / Fig. 2 readiness funnel: one
//!   [`funnel::Stage`] per row, each with its own predicate.
//! * [`observe`] — the capture-to-observations front door: one
//!   [`observe::DeviceObservation`] per device MAC, from a live tap
//!   ([`StreamingAnalyzer`]) or a buffered capture ([`analyze`]).
//! * [`party`] — first / support / third party classification (§5.4).
//! * [`transitions`] — per-domain IP-version transition analysis between
//!   experiment configurations (Table 9).
//! * [`outage`] — dynamic Table 9 switching: how devices fall back to
//!   IPv4 during injected faults and whether they recover.
//! * [`eui64`] — EUI-64 exposure analysis (Fig. 5).
//! * [`ports`] — port-scan result types and v4/v6 diffing (§5.4.2).
//! * [`population`] — mergeable population-scale aggregates for
//!   multi-home fleet campaigns (streaming Table 3/5 marginals).
//! * [`exposure`] — Internet-side exposure: EUI-64 hitlist
//!   extrapolation, the dense-sweep baseline, and the mergeable
//!   per-campaign [`ExposureReport`] of the WAN scanner.

pub mod analysis;
pub mod eui64;
pub mod exposure;
pub mod flows;
pub mod funnel;
pub mod observe;
pub mod outage;
pub mod party;
pub mod population;
pub mod ports;
pub mod transitions;

pub use analysis::mesh::{bindings_from_mesh_capture, MeshBindings};
pub use analysis::{AnalyzerPass, PassId, PassMetrics};
pub use exposure::{ExposureReport, HomeScanOutcome};
pub use observe::{analyze, DeviceObservation, ExperimentAnalysis, StreamingAnalyzer};
pub use outage::{OutageClass, OutageReport, SwitchRecord};
pub use population::{HomeFailure, PopulationReport};
