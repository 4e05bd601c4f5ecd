//! The composable analysis pipeline: one [`AnalyzerPass`] per measurement
//! concern, composed by a [`StreamingAnalyzer`].
//!
//! The §5 observables decompose into six passes — [`addressing`]
//! (address assignment and use), [`ndp_dad`] (NDP presence and DAD
//! compliance), [`dns`] (per-transport DNS transactions and the global
//! answer map), [`traffic`] (volume accounting and destination domains),
//! [`eui64`] (EUI-64 exposure), and [`flows`] (the 5-tuple flow table).
//! Each [`DeviceObservation`] field is owned by exactly one pass
//! ([`PassId::owned_device_fields`]), so running a subset leaves the other
//! fields at their defaults and everything the subset *does* populate is
//! byte-identical to a full run — the monotonicity property the fleet
//! path relies on when it runs only the population-relevant passes.
//!
//! Per-frame work shared between passes (frame classification, DNS
//! message parsing, SNI extraction, data-frame attribution) is computed
//! at most once per frame and handed to every pass through
//! [`SharedFrameCtx`].

pub mod addressing;
pub mod dns;
pub mod eui64;
pub mod flows;
pub mod mesh;
pub mod ndp_dad;
pub mod traffic;
pub mod types;

pub use types::{DeviceObservation, ExperimentAnalysis};

use serde::Serialize;
use std::collections::{BTreeSet, HashMap};
use std::net::{IpAddr, Ipv6Addr};
use std::time::Instant;
use v6brick_net::dns::{MessageView, Name, NameText};
use v6brick_net::ipv6::{Cidr, Ipv6AddrExt};
use v6brick_net::parse::{self, Net, ParsedPacket, L4};
use v6brick_net::{tls, Mac};
use v6brick_pcap::FrameSink;

/// Stable identifier for one analyzer pass.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash, Serialize)]
#[serde(rename_all = "snake_case")]
pub enum PassId {
    /// Address assignment and use (SLAAC/DHCPv4/DHCPv6, active sources).
    Addressing,
    /// NDP presence and DAD probing.
    NdpDad,
    /// DNS transactions per transport family + the global answer map.
    Dns,
    /// Data-volume accounting and destination domains.
    Traffic,
    /// EUI-64 exposure (domains contacted from EUI-64 sources).
    Eui64,
    /// The full 5-tuple flow table.
    Flows,
}

impl PassId {
    /// Every pass, in canonical execution order.
    pub const ALL: [PassId; 6] = [
        PassId::Addressing,
        PassId::NdpDad,
        PassId::Dns,
        PassId::Traffic,
        PassId::Eui64,
        PassId::Flows,
    ];

    /// Human-readable (and JSON) label.
    pub fn label(self) -> &'static str {
        match self {
            PassId::Addressing => "addressing",
            PassId::NdpDad => "ndp_dad",
            PassId::Dns => "dns",
            PassId::Traffic => "traffic",
            PassId::Eui64 => "eui64",
            PassId::Flows => "flows",
        }
    }

    /// Passes this pass reads shared state from.
    /// [`StreamingAnalyzer::with_passes`] closes over these, so enabling
    /// `Traffic` always enables `Dns` (the destination-domain attribution
    /// reads the DNS answer map).
    pub fn deps(self) -> &'static [PassId] {
        match self {
            PassId::Traffic | PassId::Eui64 => &[PassId::Dns],
            _ => &[],
        }
    }

    /// Does this pass inspect frames of the given class? Used both to
    /// skip dispatch in the hot loop and to attribute per-pass frame
    /// counters.
    pub fn handles(self, class: FrameClass) -> bool {
        match self {
            PassId::Addressing | PassId::Flows => true,
            PassId::NdpDad => class == FrameClass::Icmpv6,
            PassId::Dns => class == FrameClass::Dns,
            PassId::Traffic => class == FrameClass::Data,
            PassId::Eui64 => matches!(class, FrameClass::Dns | FrameClass::Data),
        }
    }

    /// The [`DeviceObservation`] fields this pass (and only this pass)
    /// writes — the ownership partition behind subset monotonicity. Field
    /// names match the serde output.
    pub fn owned_device_fields(self) -> &'static [&'static str] {
        match self {
            PassId::Addressing => &[
                "announced_v6",
                "active_v6",
                "dhcpv4_used",
                "dhcpv6_stateless",
                "dhcpv6_stateful",
                "dhcpv6_addrs",
            ],
            PassId::NdpDad => &["ndp_traffic", "dad_probed"],
            PassId::Dns => &[
                "aaaa_q_v6",
                "aaaa_q_v4",
                "a_q_v6",
                "a_q_v4",
                "https_q",
                "svcb_q",
                "aaaa_pos_v6",
                "aaaa_pos_v4",
                "aaaa_neg",
                "dns_src_v6",
            ],
            PassId::Traffic => &[
                "v6_internet_bytes",
                "v4_internet_bytes",
                "v6_local_bytes",
                "v6_internet_peers",
                "data_src_v6",
                "ntp_src_v6",
                "domains_v6",
                "domains_v4",
                "sni_domains",
            ],
            PassId::Eui64 => &["domains_from_eui64", "dns_names_from_eui64"],
            PassId::Flows => &[],
        }
    }
}

/// What kind of frame is this, for dispatch purposes?
///
/// Classification is purely structural (family + ports), computed once
/// per frame, and reproduces the monolithic analyzer's early-return
/// precedence exactly: ICMPv6 > DHCPv4 > DHCPv6 > DNS > data.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum FrameClass {
    /// IPv6 + ICMPv6 (NDP, echo, errors).
    Icmpv6,
    /// IPv4 UDP 68 → 67.
    Dhcpv4,
    /// IPv6 UDP 546 → 547 (client to server).
    Dhcpv6ClientToServer,
    /// IPv6 UDP 547 → 546 (server to client).
    Dhcpv6ServerToClient,
    /// UDP with source or destination port 53.
    Dns,
    /// Everything else (TCP / non-service UDP / other).
    Data,
}

impl FrameClass {
    /// Classify a parsed frame.
    pub fn classify(p: &ParsedPacket) -> FrameClass {
        match (&p.net, &p.l4) {
            (Net::Ipv6(_), L4::Icmpv6(_)) => FrameClass::Icmpv6,
            (
                Net::Ipv4(_),
                L4::Udp {
                    src_port: 68,
                    dst_port: 67,
                    ..
                },
            ) => FrameClass::Dhcpv4,
            (
                Net::Ipv6(_),
                L4::Udp {
                    src_port: 546,
                    dst_port: 547,
                    ..
                },
            ) => FrameClass::Dhcpv6ClientToServer,
            (
                Net::Ipv6(_),
                L4::Udp {
                    src_port: 547,
                    dst_port: 546,
                    ..
                },
            ) => FrameClass::Dhcpv6ServerToClient,
            (
                _,
                L4::Udp {
                    src_port, dst_port, ..
                },
            ) if *src_port == 53 || *dst_port == 53 => FrameClass::Dns,
            _ => FrameClass::Data,
        }
    }
}

/// Is an IPv6 peer local to the home (multicast, non-global, or inside
/// the routed LAN prefix)?
pub fn v6_peer_is_local(peer: Ipv6Addr, lan_prefix: Cidr) -> bool {
    peer.is_multicast() || !peer.is_global_unicast() || lan_prefix.contains(peer)
}

/// A data frame attributed to a device: the common precondition of the
/// traffic and EUI-64 passes, computed once per frame.
#[derive(Debug, Clone, Copy)]
pub struct DataFrame {
    /// Index of the attributed device in the observation vector.
    pub idx: usize,
    /// The device-side address.
    pub dev_ip: IpAddr,
    /// The peer-side address.
    pub peer_ip: IpAddr,
    /// L4 payload bytes carried.
    pub payload_len: u64,
    /// Did the device send the frame (vs. receive it)?
    pub outbound: bool,
    /// Does either port indicate NTP?
    pub is_ntp: bool,
}

impl DataFrame {
    /// Attribute a [`FrameClass::Data`] frame to a device end (sender
    /// preferred, mirroring the monolith). `None` when addresses are
    /// missing, the L4 carries no payload notion, or neither MAC is a
    /// known device.
    fn attribute(p: &ParsedPacket, from: Option<usize>, to: Option<usize>) -> Option<DataFrame> {
        let (src_ip, dst_ip) = match (p.src_ip(), p.dst_ip()) {
            (Some(s), Some(d)) => (s, d),
            _ => return None,
        };
        let payload_len = p.l4_payload()?.len() as u64;
        let (idx, dev_ip, peer_ip, outbound) = match (from, to) {
            (Some(i), _) => (i, src_ip, dst_ip, true),
            (_, Some(i)) => (i, dst_ip, src_ip, false),
            _ => return None,
        };
        Some(DataFrame {
            idx,
            dev_ip,
            peer_ip,
            payload_len,
            outbound,
            is_ntp: p.involves_port(123),
        })
    }
}

/// State shared between passes: the per-device observations and the
/// global DNS answer map (written by the [`dns`] pass, read by
/// [`traffic`] and [`eui64`]).
#[derive(Debug)]
pub struct SharedState {
    /// One observation per registered device, indexed like the device
    /// list handed to [`StreamingAnalyzer::with_passes`].
    pub obs: Vec<DeviceObservation>,
    /// The global DNS answer map: IP → last name that resolved to it.
    /// Hashed while frames stream (std's keyed hasher: its keys come
    /// from captured bytes), then ordered by [`StreamingAnalyzer::finish`].
    pub ip_to_name: HashMap<IpAddr, Name>,
}

/// Lazily-computed per-frame derivations shared between passes, each
/// made by the first pass that asks.
#[derive(Debug, Default)]
pub struct FrameCaches<'a> {
    dns: Option<Option<MessageView<'a>>>,
    sni: Option<Option<NameText>>,
}

impl<'a> FrameCaches<'a> {
    /// The frame's UDP payload as a validated DNS message view
    /// (memoized; `None` for non-UDP frames or unparseable payloads). The
    /// view borrows the frame, not the caches, so a pass can read it
    /// while mutating observations.
    pub fn dns_message(&mut self, p: &ParsedPacket<'a>) -> Option<MessageView<'a>> {
        *self.dns.get_or_insert_with(|| match p.l4 {
            L4::Udp { payload, .. } => MessageView::new(payload).ok(),
            _ => None,
        })
    }

    /// The TLS SNI carried in the frame's TCP payload, decoded into a
    /// stack [`NameText`] (memoized): a pass notes it with `note_name`,
    /// which allocates only for a set that lacks it.
    pub fn sni(&mut self, p: &ParsedPacket) -> Option<&NameText> {
        self.sni
            .get_or_insert_with(|| match &p.l4 {
                L4::Tcp { payload, .. } => tls::sni_text(payload).ok(),
                _ => None,
            })
            .as_ref()
    }
}

/// Everything a pass may read or write while handling one frame.
#[derive(Debug)]
pub struct SharedFrameCtx<'a> {
    /// The frame's dispatch class.
    pub class: FrameClass,
    /// Index of the sending device, if the source MAC is registered.
    pub from: Option<usize>,
    /// Index of the receiving device, if the destination MAC is registered.
    pub to: Option<usize>,
    /// The routed LAN /64 (local-vs-Internet split).
    pub lan_prefix: Cidr,
    /// Device attribution for [`FrameClass::Data`] frames (`None`
    /// otherwise, or when the frame can't be attributed).
    pub data: Option<DataFrame>,
    /// Cross-pass mutable state.
    pub state: &'a mut SharedState,
    /// Per-frame memoized derivations.
    pub caches: FrameCaches<'a>,
}

/// Insert a decoded name into `set`, allocating only if the set lacks it.
pub(crate) fn note_name(set: &mut BTreeSet<Name>, name: &NameText) {
    if !set.contains(name.as_str()) {
        set.insert(name.to_name());
    }
}

/// Insert `name` into `set`, cloning only if the set lacks it.
pub(crate) fn note_owned(set: &mut BTreeSet<Name>, name: &Name) {
    if !set.contains(name) {
        set.insert(name.clone());
    }
}

/// One analysis concern, fed every frame of the classes it
/// [`PassId::handles`].
pub trait AnalyzerPass: Send {
    /// Which pass this is.
    fn id(&self) -> PassId;

    /// Observe one parsed frame.
    fn on_frame<'a>(&mut self, ts: u64, p: &ParsedPacket<'a>, ctx: &mut SharedFrameCtx<'a>);

    /// Move any privately-held results into the final analysis. Passes
    /// that write only shared per-device fields need not override this.
    fn finish_into(&mut self, analysis: &mut ExperimentAnalysis) {
        let _ = analysis;
    }
}

/// Per-pass execution counters.
#[derive(Debug, Clone, Copy, Default, Serialize)]
pub struct PassMetrics {
    /// Frames dispatched to the pass.
    pub frames: u64,
    /// Wall-clock nanoseconds spent inside the pass. Only collected
    /// after [`StreamingAnalyzer::enable_metrics`] — timing costs two
    /// `Instant` reads per pass per frame, which the fleet hot path must
    /// not pay.
    pub nanos: u64,
}

struct PassEntry {
    id: PassId,
    pass: Box<dyn AnalyzerPass>,
    metrics: PassMetrics,
}

impl std::fmt::Debug for PassEntry {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("PassEntry")
            .field("id", &self.id)
            .field("metrics", &self.metrics)
            .finish()
    }
}

/// The incremental analysis state machine: a composed set of analyzer
/// passes sharing one frame walk.
///
/// Construct with the device MAC → label map and the LAN prefix, [`feed`]
/// every tapped frame in capture order, then [`finish`] to obtain the
/// [`ExperimentAnalysis`]. Feeding frame-by-frame from the live tap is
/// byte-equivalent (via serde) to buffering the whole capture and calling
/// [`crate::observe::analyze`], and with every pass enabled the output is
/// byte-identical to the pre-decomposition monolithic analyzer — the
/// streaming-equivalence and property tests pin both.
///
/// [`feed`]: StreamingAnalyzer::feed
/// [`finish`]: StreamingAnalyzer::finish
#[derive(Debug)]
pub struct StreamingAnalyzer {
    devices: Vec<(Mac, String)>,
    lan_prefix: Cidr,
    /// Device MAC → index. `v6brickd` builds it from an upload's header
    /// and probes it with MACs read from the captured frames, so it keeps
    /// std's keyed hasher.
    mac_index: HashMap<Mac, usize>,
    /// IPv6 address → device index, consulted only when MAC attribution
    /// fails — the mesh case, where every leaf frame carries the border
    /// router's MAC. Empty (and therefore free) for Ethernet-only homes.
    mesh_bindings: HashMap<Ipv6Addr, usize>,
    state: SharedState,
    passes: Vec<PassEntry>,
    frames: u64,
    unattributed: u64,
    parse_errors: u64,
    /// Every frame handed to `feed`, including unparseable ones.
    fed: u64,
    metrics_enabled: bool,
}

impl StreamingAnalyzer {
    /// A fresh analyzer running every pass.
    ///
    /// `lan_prefix` is the routed /64: IPv6 peers inside it (or
    /// non-global) count as local, everything else as Internet. `devices`
    /// maps MAC → label; frames from other MACs (router, phones) only
    /// contribute to the global DNS answer map.
    pub fn new(devices: &[(Mac, String)], lan_prefix: Cidr) -> StreamingAnalyzer {
        Self::with_passes(devices, lan_prefix, &PassId::ALL)
    }

    /// An analyzer running only the passes in `ids` plus their
    /// [`PassId::deps`] closure, instantiated in canonical
    /// [`PassId::ALL`] order. The fields those passes own come out
    /// byte-identical to a full run; everything else stays at its
    /// default. See [`StreamingAnalyzer::new`] for the `devices` /
    /// `lan_prefix` contract.
    pub fn with_passes(
        devices: &[(Mac, String)],
        lan_prefix: Cidr,
        ids: &[PassId],
    ) -> StreamingAnalyzer {
        let mut enabled: BTreeSet<PassId> = ids.iter().copied().collect();
        loop {
            let before = enabled.len();
            let deps: Vec<PassId> = enabled.iter().flat_map(|p| p.deps()).copied().collect();
            enabled.extend(deps);
            if enabled.len() == before {
                break;
            }
        }
        let passes = PassId::ALL
            .iter()
            .filter(|id| enabled.contains(id))
            .map(|&id| PassEntry {
                id,
                pass: instantiate(id),
                metrics: PassMetrics::default(),
            })
            .collect();
        StreamingAnalyzer {
            devices: devices.to_vec(),
            lan_prefix,
            mac_index: devices
                .iter()
                .enumerate()
                .map(|(i, (m, _))| (*m, i))
                .collect(),
            mesh_bindings: HashMap::new(),
            state: SharedState {
                obs: vec![DeviceObservation::default(); devices.len()],
                ip_to_name: HashMap::new(),
            },
            passes,
            frames: 0,
            unattributed: 0,
            parse_errors: 0,
            fed: 0,
            metrics_enabled: false,
        }
    }

    /// The passes this analyzer runs, in execution order (deps included).
    pub fn enabled_passes(&self) -> Vec<PassId> {
        self.passes.iter().map(|e| e.id).collect()
    }

    /// Collect per-pass wall-clock timings from now on (off by default —
    /// the fleet hot path must not pay for `Instant` reads).
    pub fn enable_metrics(&mut self) {
        self.metrics_enabled = true;
    }

    /// Per-pass execution counters, in execution order.
    pub fn pass_metrics(&self) -> Vec<(PassId, PassMetrics)> {
        self.passes.iter().map(|e| (e.id, e.metrics)).collect()
    }

    /// Bind an IPv6 address to the device owning `mac`, for frames whose
    /// link-layer identity was erased by a border router. Returns `false`
    /// (and binds nothing) when `mac` is not a registered device — the
    /// border router's own mesh-local address lands here.
    ///
    /// Bindings only ever *add* attribution: they are consulted after MAC
    /// lookup fails, so Ethernet-attributed frames are untouched and an
    /// empty binding table reproduces pre-mesh behaviour exactly.
    pub fn add_mesh_binding(&mut self, addr: Ipv6Addr, mac: Mac) -> bool {
        match self.mac_index.get(&mac) {
            Some(&idx) => {
                self.mesh_bindings.insert(addr, idx);
                true
            }
            None => false,
        }
    }

    /// Number of mesh address bindings installed.
    pub fn mesh_binding_count(&self) -> usize {
        self.mesh_bindings.len()
    }

    /// Frames handed to [`StreamingAnalyzer::feed`] so far (parseable or
    /// not) — the equivalent of the buffered pipeline's capture length.
    pub fn frames_fed(&self) -> u64 {
        self.fed
    }

    /// Frames that failed lenient parsing so far.
    pub fn parse_errors(&self) -> u64 {
        self.parse_errors
    }

    /// Consume one raw frame. Unparseable frames count toward
    /// [`StreamingAnalyzer::frames_fed`] and
    /// [`StreamingAnalyzer::parse_errors`] but contribute nothing else.
    pub fn feed(&mut self, timestamp_us: u64, frame: &[u8]) {
        self.fed += 1;
        match parse::parse_lenient(frame) {
            Ok(p) => self.feed_parsed(timestamp_us, &p),
            Err(_) => self.parse_errors += 1,
        }
    }

    /// Consume one already-parsed frame.
    fn feed_parsed(&mut self, ts: u64, p: &ParsedPacket) {
        self.frames += 1;
        let mut from = self.mac_index.get(&p.eth.src).copied();
        let mut to = self.mac_index.get(&p.eth.dst).copied();
        if !self.mesh_bindings.is_empty() {
            if let Net::Ipv6(ip) = &p.net {
                if from.is_none() {
                    from = self.mesh_bindings.get(&ip.src).copied();
                }
                if to.is_none() && !ip.dst.is_multicast() {
                    to = self.mesh_bindings.get(&ip.dst).copied();
                }
            }
        }
        if from.is_none() && to.is_none() {
            self.unattributed += 1;
        }
        let class = FrameClass::classify(p);
        let mut ctx = SharedFrameCtx {
            class,
            from,
            to,
            lan_prefix: self.lan_prefix,
            data: if class == FrameClass::Data {
                DataFrame::attribute(p, from, to)
            } else {
                None
            },
            state: &mut self.state,
            caches: FrameCaches::default(),
        };
        for entry in &mut self.passes {
            if !entry.id.handles(class) {
                continue;
            }
            entry.metrics.frames += 1;
            if self.metrics_enabled {
                let t0 = Instant::now();
                entry.pass.on_frame(ts, p, &mut ctx);
                entry.metrics.nanos += t0.elapsed().as_nanos() as u64;
            } else {
                entry.pass.on_frame(ts, p, &mut ctx);
            }
        }
    }

    /// Finalize: key the per-device observations by label, order the
    /// DNS answer map, and let each pass move its private results over.
    /// Consumes the analyzer — the state *is* the result.
    pub fn finish(self) -> ExperimentAnalysis {
        let mut analysis = ExperimentAnalysis {
            devices: self
                .devices
                .iter()
                .zip(self.state.obs)
                .map(|((_, label), o)| (label.clone(), o))
                .collect(),
            ip_to_name: self.state.ip_to_name.into_iter().collect(),
            unattributed_frames: self.unattributed,
            frames: self.frames,
            parse_errors: self.parse_errors,
            flows: crate::flows::FlowTable::new(),
        };
        let mut passes = self.passes;
        for entry in &mut passes {
            entry.pass.finish_into(&mut analysis);
        }
        analysis
    }
}

impl FrameSink for StreamingAnalyzer {
    fn on_frame(&mut self, timestamp_us: u64, frame: &[u8]) {
        self.feed(timestamp_us, frame);
    }

    fn into_any(self: Box<Self>) -> Box<dyn std::any::Any> {
        self
    }
}

/// Construct the pass implementation for an id.
fn instantiate(id: PassId) -> Box<dyn AnalyzerPass> {
    match id {
        PassId::Addressing => Box::new(addressing::AddressingPass),
        PassId::NdpDad => Box::new(ndp_dad::NdpDadPass),
        PassId::Dns => Box::new(dns::DnsPass::new()),
        PassId::Traffic => Box::new(traffic::TrafficPass),
        PassId::Eui64 => Box::new(eui64::Eui64Pass),
        PassId::Flows => Box::new(flows::FlowsPass::new()),
    }
}
