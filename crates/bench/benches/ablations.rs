//! Ablation benchmarks for the design choices DESIGN.md calls out.
//!
//! 1. Flow table: hash-indexed 5-tuple map vs a linear-scan vector.
//! 2. DNS name encoding: RFC 1035 compression vs naive repetition
//!    (size and time on a response with repeated owner names), and the
//!    owned codec (`Message::build`, `Message::parse_bytes`) beside the
//!    borrowed one (a `MessageView` walk, a `Writer` answering a view).
//! 3. Capture storage: `bytes::Bytes` per-frame copies vs `Vec<u8>`
//!    per-frame allocations vs a contiguous arena with ranges; plus
//!    the pre-counted `Capture::with_capacity` vs growth reallocation.
//! 4. Analysis pipeline: buffer-then-scan (`Capture` + `analyze`) vs
//!    the streaming single pass (`StreamingAnalyzer::feed` off the tap).

use criterion::{black_box, criterion_group, criterion_main, Criterion, Throughput};
use std::collections::HashMap;
use std::net::{IpAddr, Ipv6Addr};
use v6brick_core::flows::{FlowKey, FlowProto, FlowTable};
use v6brick_net::dns::{
    Message, MessageView, Name, Rcode, Rdata, Record, RecordType, Section, Writer,
};

// --- ablation 1: flow table ---------------------------------------------------

/// The naive alternative: an unsorted vector scanned per packet.
struct LinearFlows {
    flows: Vec<(FlowKey, u64)>,
}

impl LinearFlows {
    fn record(&mut self, key: FlowKey, bytes: u64) {
        for (k, b) in self.flows.iter_mut() {
            if *k == key {
                *b += bytes;
                return;
            }
        }
        self.flows.push((key, bytes));
    }
}

fn synth_keys(n_flows: usize, packets: usize) -> Vec<(FlowKey, u64)> {
    (0..packets)
        .map(|i| {
            let f = i % n_flows;
            let a = Ipv6Addr::new(0x2001, 0xdb8, 0x10, 1, 0, 0, 0, (f % 64) as u16 + 1);
            let b = Ipv6Addr::new(0x2001, 0xdb8, 0xffff, 0, 0, 0, 0, (f / 64) as u16 + 1);
            (
                FlowKey::new(
                    (IpAddr::V6(a), 40000 + (f % 100) as u16),
                    (IpAddr::V6(b), 443),
                    FlowProto::Tcp,
                ),
                (i % 1400) as u64,
            )
        })
        .collect()
}

fn bench_flow_ablation(c: &mut Criterion) {
    for n_flows in [64usize, 1024] {
        let packets = synth_keys(n_flows, 50_000);
        let mut g = c.benchmark_group(format!("ablation_flows/{n_flows}_flows_50k_pkts"));
        g.sample_size(20);
        g.throughput(Throughput::Elements(50_000));
        g.bench_function("hash_indexed", |b| {
            b.iter(|| {
                let mut t: HashMap<FlowKey, u64> = HashMap::new();
                for (k, bytes) in &packets {
                    *t.entry(*k).or_insert(0) += bytes;
                }
                t.len()
            })
        });
        g.bench_function("linear_scan", |b| {
            b.iter(|| {
                let mut t = LinearFlows { flows: Vec::new() };
                for (k, bytes) in &packets {
                    t.record(*k, *bytes);
                }
                t.flows.len()
            })
        });
        g.finish();
    }

    // The production FlowTable on real parsed frames (end-to-end anchor).
    let raw: Vec<Vec<u8>> = (0..10_000)
        .map(|i| {
            use v6brick_net::udp::PseudoHeader;
            let src = Ipv6Addr::new(0x2001, 0xdb8, 0x10, 1, 0, 0, 0, (i % 64) as u16 + 1);
            let dst = Ipv6Addr::new(0x2001, 0xdb8, 0xffff, 0, 0, 0, 0, 1);
            let u = v6brick_net::udp::Repr {
                src_port: 40000 + (i % 100) as u16,
                dst_port: 443,
                payload: vec![0; 64],
            }
            .build(PseudoHeader::V6 { src, dst });
            let ip = v6brick_net::ipv6::Repr {
                src,
                dst,
                next_header: v6brick_net::ipv4::Protocol::Udp,
                hop_limit: 64,
                payload_len: u.len(),
            }
            .build(&u);
            v6brick_net::ethernet::Repr {
                src: v6brick_net::Mac::new(2, 0, 0, 0, 0, 1),
                dst: v6brick_net::Mac::new(2, 0, 0, 0, 0, 2),
                ethertype: v6brick_net::ethernet::EtherType::Ipv6,
            }
            .build(&ip)
        })
        .collect();
    let frames: Vec<v6brick_net::parse::ParsedPacket> = raw
        .iter()
        .map(|f| v6brick_net::parse::ParsedPacket::parse(f).unwrap())
        .collect();
    let mut g = c.benchmark_group("ablation_flows/production_table");
    g.sample_size(20);
    g.throughput(Throughput::Elements(frames.len() as u64));
    g.bench_function("flowtable_record_10k", |b| {
        b.iter(|| {
            let mut t = FlowTable::new();
            for (i, p) in frames.iter().enumerate() {
                t.record(i as u64, p);
            }
            t.len()
        })
    });
    g.finish();
}

// --- ablation 2: DNS name compression ------------------------------------------

/// Build the same response without compression (naive repetition).
fn build_uncompressed(msg: &Message) -> Vec<u8> {
    fn write_name(out: &mut Vec<u8>, name: &Name) {
        for label in name.labels() {
            out.push(label.len() as u8);
            out.extend_from_slice(label.as_bytes());
        }
        out.push(0);
    }
    let mut out = Vec::with_capacity(512);
    out.extend_from_slice(&msg.id.to_be_bytes());
    out.extend_from_slice(&[0x81, 0x80]); // response, RD+RA
    for count in [msg.questions.len(), msg.answers.len(), 0, 0] {
        out.extend_from_slice(&(count as u16).to_be_bytes());
    }
    for q in &msg.questions {
        write_name(&mut out, &q.name);
        out.extend_from_slice(&u16::from(q.rtype).to_be_bytes());
        out.extend_from_slice(&1u16.to_be_bytes());
    }
    for r in &msg.answers {
        write_name(&mut out, &r.name);
        out.extend_from_slice(&u16::from(r.rtype).to_be_bytes());
        out.extend_from_slice(&1u16.to_be_bytes());
        out.extend_from_slice(&r.ttl.to_be_bytes());
        if let Rdata::Aaaa(a) = &r.rdata {
            out.extend_from_slice(&16u16.to_be_bytes());
            out.extend_from_slice(&a.octets());
        }
    }
    out
}

fn bench_dns_ablation(c: &mut Criterion) {
    let name = Name::new("very-long-service-name.telemetry.us-east.vendor-cloud.example").unwrap();
    let q = Message::query(1, name.clone(), RecordType::Aaaa);
    let mut resp = q.response(Rcode::NoError);
    for i in 0..8u16 {
        resp.answers.push(Record::new(
            name.clone(),
            300,
            Rdata::Aaaa(Ipv6Addr::new(0x2001, 0xdb8, i, 0, 0, 0, 0, 1)),
        ));
    }
    let compressed = resp.build();
    let naive = build_uncompressed(&resp);
    assert!(compressed.len() < naive.len());
    println!(
        "dns encoding: compressed {} bytes vs naive {} bytes ({}% smaller)",
        compressed.len(),
        naive.len(),
        100 - 100 * compressed.len() / naive.len()
    );

    let mut g = c.benchmark_group("ablation_dns_encoding");
    g.bench_function("compressed_build", |b| b.iter(|| black_box(&resp).build()));
    g.bench_function("naive_build", |b| {
        b.iter(|| build_uncompressed(black_box(&resp)))
    });
    g.bench_function("compressed_parse", |b| {
        b.iter(|| Message::parse_bytes(black_box(&compressed)).unwrap())
    });
    // The borrowed side: what a host reads of an answer, and what the
    // internet model writes from the query's view.
    g.bench_function("view_walk", |b| {
        b.iter(|| {
            let v = MessageView::new(black_box(&compressed)).unwrap();
            (
                v.id(),
                v.question().map(|q| q.name.text().len()),
                v.aaaa_answers().count(),
            )
        })
    });
    let query = q.build();
    g.bench_function("writer_from_view", |b| {
        b.iter(|| {
            let v = MessageView::new(black_box(&query)).unwrap();
            let owner = v.question().unwrap().name.text();
            let mut w = Writer::response_to(&v, Rcode::NoError);
            for r in &resp.answers {
                w.record(Section::Answer, &owner, r.rtype, r.ttl, &r.rdata);
            }
            w.finish()
        })
    });
    g.finish();
}

// --- ablation 3: capture storage -----------------------------------------------

fn bench_capture_ablation(c: &mut Criterion) {
    let frames: Vec<Vec<u8>> = (0..10_000)
        .map(|i| vec![(i % 251) as u8; 80 + (i % 600)])
        .collect();
    let total: usize = frames.iter().map(Vec::len).sum();

    let mut g = c.benchmark_group("ablation_capture_storage");
    g.sample_size(20);
    g.throughput(Throughput::Bytes(total as u64));
    g.bench_function("bytes_per_frame", |b| {
        b.iter(|| {
            let mut store: Vec<bytes::Bytes> = Vec::with_capacity(frames.len());
            for f in &frames {
                store.push(bytes::Bytes::copy_from_slice(f));
            }
            store.len()
        })
    });
    g.bench_function("vec_per_frame", |b| {
        b.iter(|| {
            let mut store: Vec<Vec<u8>> = Vec::with_capacity(frames.len());
            for f in &frames {
                store.push(f.clone());
            }
            store.len()
        })
    });
    g.bench_function("contiguous_arena", |b| {
        b.iter(|| {
            let mut arena: Vec<u8> = Vec::with_capacity(total);
            let mut ranges: Vec<(u32, u32)> = Vec::with_capacity(frames.len());
            for f in &frames {
                let start = arena.len() as u32;
                arena.extend_from_slice(f);
                ranges.push((start, f.len() as u32));
            }
            ranges.len()
        })
    });
    // The delta the pcap readers' pre-scan buys: they count frames from
    // the record headers first, so the packet vector never reallocates.
    g.bench_function("capture_push_grow", |b| {
        b.iter(|| {
            let mut cap = v6brick_pcap::Capture::new();
            for (ts, f) in frames.iter().enumerate() {
                cap.push(ts as u64, f);
            }
            cap.len()
        })
    });
    g.bench_function("capture_push_with_capacity", |b| {
        b.iter(|| {
            let mut cap = v6brick_pcap::Capture::with_capacity(frames.len());
            for (ts, f) in frames.iter().enumerate() {
                cap.push(ts as u64, f);
            }
            cap.len()
        })
    });
    g.finish();
}

// --- ablation 4: streaming vs buffered analysis ---------------------------------

/// What a household's analysis costs with and without materializing the
/// capture buffer. Both paths parse every frame exactly once; the
/// buffered path additionally copies every frame into the `Capture`
/// and walks it a second time. DESIGN.md §4 cites this group.
fn bench_streaming_ablation(c: &mut Criterion) {
    use v6brick_core::observe::{self, StreamingAnalyzer};
    use v6brick_devices::registry;
    use v6brick_devices::stack::IotDevice;
    use v6brick_experiments::{scenario, NetworkConfig};
    use v6brick_sim::{Internet, Router, SimTime, SimulationBuilder};

    let ids = [
        "echo_show_5",
        "nest_camera",
        "google_home_mini",
        "aqara_hub",
    ];
    let profiles: Vec<_> = ids.iter().map(|id| registry::by_id(id)).collect();
    let zones = scenario::build_zones(&profiles);
    let mut b = SimulationBuilder::new(
        Router::new(NetworkConfig::DualStack.router_config()),
        Internet::new(zones),
    );
    let macs: Vec<_> = profiles
        .iter()
        .map(|p| {
            b.add_host(Box::new(IotDevice::new(p.clone())));
            (p.mac, p.id.clone())
        })
        .collect();
    let mut sim = b.build();
    sim.run_until(SimTime::from_secs(180));
    let capture = sim.take_capture();
    // The tap replay: the exact (timestamp, frame) stream a sink sees.
    let frames: Vec<(u64, Vec<u8>)> = capture
        .iter()
        .map(|p| (p.timestamp_us, p.data.to_vec()))
        .collect();

    let mut g = c.benchmark_group("ablation_streaming");
    g.sample_size(20);
    g.throughput(Throughput::Bytes(capture.total_bytes()));
    g.bench_function("buffer_then_scan", |b| {
        b.iter(|| {
            let mut cap = v6brick_pcap::Capture::with_capacity(frames.len());
            for (ts, f) in &frames {
                cap.push(*ts, f);
            }
            observe::analyze(&cap, &macs, scenario::lan_prefix()).frames
        })
    });
    g.bench_function("streaming_single_pass", |b| {
        b.iter(|| {
            let mut a = StreamingAnalyzer::new(&macs, scenario::lan_prefix());
            for (ts, f) in &frames {
                a.feed(*ts, f);
            }
            a.finish().frames
        })
    });
    g.finish();
}

// --- ablation 5: full vs selected analyzer pass sets -------------------------

/// What composable passes buy over the monolithic fold: callers that
/// read a known subset of the analysis run only the passes owning those
/// fields. Two levels: a single-household replay through the analyzer
/// (isolates per-frame pass cost) and a whole fleet campaign with the
/// population subset vs every pass (the production saving — the
/// population report never reads the EUI-64 or flow-table fields).
/// DESIGN.md §4 cites this group.
fn bench_ablation_passes(c: &mut Criterion) {
    use v6brick_core::analysis::PassId;
    use v6brick_core::observe::StreamingAnalyzer;
    use v6brick_devices::registry;
    use v6brick_devices::stack::IotDevice;
    use v6brick_experiments::fleet::{self, CampaignSpec, POPULATION_PASSES};
    use v6brick_experiments::{scenario, NetworkConfig};
    use v6brick_sim::{Internet, Router, SimTime, SimulationBuilder};

    let ids = [
        "echo_show_5",
        "nest_camera",
        "google_home_mini",
        "aqara_hub",
    ];
    let profiles: Vec<_> = ids.iter().map(|id| registry::by_id(id)).collect();
    let zones = scenario::build_zones(&profiles);
    let mut b = SimulationBuilder::new(
        Router::new(NetworkConfig::DualStack.router_config()),
        Internet::new(zones),
    );
    let macs: Vec<_> = profiles
        .iter()
        .map(|p| {
            b.add_host(Box::new(IotDevice::new(p.clone())));
            (p.mac, p.id.clone())
        })
        .collect();
    let mut sim = b.build();
    sim.run_until(SimTime::from_secs(180));
    let capture = sim.take_capture();
    let frames: Vec<(u64, Vec<u8>)> = capture
        .iter()
        .map(|p| (p.timestamp_us, p.data.to_vec()))
        .collect();

    let mut g = c.benchmark_group("ablation_passes/analyzer");
    g.sample_size(20);
    g.throughput(Throughput::Bytes(capture.total_bytes()));
    let selections: [(&str, &[PassId]); 3] = [
        ("full", &PassId::ALL),
        ("population", POPULATION_PASSES),
        ("addressing_only", &[PassId::Addressing]),
    ];
    for (label, passes) in selections {
        g.bench_function(label, |b| {
            b.iter(|| {
                let mut a = StreamingAnalyzer::with_passes(&macs, scenario::lan_prefix(), passes);
                for (ts, f) in &frames {
                    a.feed(*ts, f);
                }
                black_box(a.finish().frames)
            })
        });
    }
    g.finish();

    // Whole campaigns: the simulation dominates, so this measures the
    // end-to-end saving a fleet run actually sees.
    let spec = |passes: &[PassId]| CampaignSpec {
        homes: 4,
        seed: 0xab1a,
        workers: 1,
        device_range: (2, 3),
        duration_s: 45,
        passes: passes.to_vec(),
        ..Default::default()
    };
    let mut g = c.benchmark_group("ablation_passes/fleet");
    g.sample_size(10);
    g.bench_function("full_pass_set", |b| {
        b.iter(|| black_box(fleet::run(&spec(&PassId::ALL)).devices))
    });
    g.bench_function("population_pass_set", |b| {
        b.iter(|| black_box(fleet::run(&spec(POPULATION_PASSES)).devices))
    });
    g.finish();
}

criterion_group!(
    benches,
    bench_flow_ablation,
    bench_dns_ablation,
    bench_capture_ablation,
    bench_streaming_ablation,
    bench_ablation_passes
);
criterion_main!(benches);
