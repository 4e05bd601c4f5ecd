//! Benchmark harness crate. The benchmark lives in `benches/`:
//!
//! * `ablations` — the design-choice ablations DESIGN.md §4 stars (flow
//!   table, DNS name encoding, capture storage, streaming vs buffered
//!   analysis, analyzer pass subsets).
//!
//! End-to-end and per-layer timings come from `perfbench/`, the
//! benchmark of record (`python3 perfbench/run.py`).
