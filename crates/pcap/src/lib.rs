#![warn(missing_docs)]
//! # v6brick-pcap — packet captures
//!
//! The testbed's router captures every LAN frame with tcpdump; the paper's
//! analysis pipeline is pcap analysis. This crate provides:
//!
//! * [`Capture`] — an in-memory, timestamped packet store that the
//!   simulator's capture tap fills and the analysis pipeline consumes;
//! * classic pcap ([`mod@format`]) serialization, byte-compatible with
//!   tcpdump/wireshark (linktype 1, microsecond resolution, both
//!   endiannesses and the nanosecond variant accepted on read);
//! * capture [`stats`].

pub mod format;
pub mod pcapng;
pub mod stats;
pub mod stream;

use bytes::Bytes;
use v6brick_net::parse::{self, ParsedPacket};

/// A streaming consumer of tapped frames.
///
/// The simulator's capture tap drives any combination of sinks, one
/// `on_frame` call per frame in capture order. A sink that buffers (the
/// [`Capture`] impl below) reproduces the classic tcpdump-to-disk
/// pipeline; a sink that folds each frame into running state analyzes
/// the experiment in a single pass with `O(state)` memory instead of
/// `O(frames)`.
pub trait FrameSink: Send {
    /// Observe one frame as it crosses the tap. Timestamps are
    /// non-decreasing microseconds since the start of the experiment.
    fn on_frame(&mut self, timestamp_us: u64, frame: &[u8]);

    /// Recover the concrete sink once the producer is done with it.
    fn into_any(self: Box<Self>) -> Box<dyn std::any::Any>;
}

impl FrameSink for Capture {
    fn on_frame(&mut self, timestamp_us: u64, frame: &[u8]) {
        self.push(timestamp_us, frame);
    }

    fn into_any(self: Box<Self>) -> Box<dyn std::any::Any> {
        self
    }
}

/// One captured frame: a timestamp (microseconds since the start of the
/// experiment) plus the raw Ethernet bytes.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct CapturedPacket {
    /// Timestamp (microseconds).
    pub timestamp_us: u64,
    /// Data.
    pub data: Bytes,
}

impl CapturedPacket {
    /// Parse this frame leniently (never fails on L4 corruption).
    pub fn parse(&self) -> Option<ParsedPacket<'_>> {
        parse::parse_lenient(&self.data).ok()
    }
}

/// An in-memory packet capture, in capture order.
#[derive(Debug, Clone, Default, PartialEq, Eq)]
pub struct Capture {
    packets: Vec<CapturedPacket>,
}

impl Capture {
    /// An empty capture.
    pub fn new() -> Capture {
        Capture::default()
    }

    /// An empty capture with room for `frames` frames — the constructor
    /// for every path that knows the frame count up front (pcap readers
    /// pre-scan their record headers, filters bound by the source size).
    pub fn with_capacity(frames: usize) -> Capture {
        Capture {
            packets: Vec::with_capacity(frames),
        }
    }

    /// Append a frame. Timestamps must be non-decreasing; the simulator
    /// guarantees this, and [`format::read_pcap`] sorts on load.
    pub fn push(&mut self, timestamp_us: u64, frame: &[u8]) {
        debug_assert!(
            self.packets
                .last()
                .map(|p| p.timestamp_us <= timestamp_us)
                .unwrap_or(true),
            "capture timestamps must be monotone"
        );
        self.packets.push(CapturedPacket {
            timestamp_us,
            data: Bytes::copy_from_slice(frame),
        });
    }

    /// Number of frames.
    pub fn len(&self) -> usize {
        self.packets.len()
    }

    /// Is the capture empty?
    pub fn is_empty(&self) -> bool {
        self.packets.is_empty()
    }

    /// Iterate over raw frames.
    pub fn iter(&self) -> impl Iterator<Item = &CapturedPacket> {
        self.packets.iter()
    }

    /// Iterate over parsed frames (lenient; unparseable frames skipped).
    pub fn parsed(&self) -> impl Iterator<Item = (u64, ParsedPacket<'_>)> + '_ {
        self.packets
            .iter()
            .filter_map(|p| p.parse().map(|pp| (p.timestamp_us, pp)))
    }

    /// Append every frame of `other` and restore timestamp order.
    pub fn merge(&mut self, other: &Capture) {
        self.packets.reserve(other.packets.len());
        self.packets.extend(other.packets.iter().cloned());
        self.packets.sort_by_key(|p| p.timestamp_us);
    }

    /// Total captured bytes.
    pub fn total_bytes(&self) -> u64 {
        self.packets.iter().map(|p| p.data.len() as u64).sum()
    }

    /// The timestamp of the last frame, if any.
    pub fn last_timestamp_us(&self) -> Option<u64> {
        self.packets.last().map(|p| p.timestamp_us)
    }
}

impl FromIterator<CapturedPacket> for Capture {
    fn from_iter<I: IntoIterator<Item = CapturedPacket>>(iter: I) -> Capture {
        Capture {
            packets: iter.into_iter().collect(),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use v6brick_net::ethernet::{EtherType, Repr as EthRepr};
    use v6brick_net::Mac;

    fn frame(ethertype: EtherType) -> Vec<u8> {
        EthRepr {
            src: Mac::new(2, 0, 0, 0, 0, 1),
            dst: Mac::BROADCAST,
            ethertype,
        }
        .build(&[0u8; 4])
    }

    #[test]
    fn push_iter_and_totals() {
        let mut c = Capture::new();
        c.push(0, &frame(EtherType::Other(0x1234)));
        c.push(5, &frame(EtherType::Other(0x1234)));
        assert_eq!(c.len(), 2);
        assert_eq!(c.total_bytes(), 36);
        assert_eq!(c.last_timestamp_us(), Some(5));
        assert_eq!(c.iter().count(), 2);
    }

    #[test]
    fn merge_restores_order() {
        let mut a = Capture::new();
        a.push(10, &frame(EtherType::Other(1)));
        let mut b = Capture::new();
        b.push(5, &frame(EtherType::Other(2)));
        a.merge(&b);
        let ts: Vec<u64> = a.iter().map(|p| p.timestamp_us).collect();
        assert_eq!(ts, vec![5, 10]);
    }
}
