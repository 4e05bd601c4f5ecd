//! Incremental capture decoding for network-fed byte streams.
//!
//! The batch readers ([`crate::format::from_bytes`],
//! [`crate::pcapng::from_bytes`]) need the whole file in memory. A
//! capture arriving over a socket shows up as arbitrary chunks instead,
//! and an ingestion daemon must analyze it *as it arrives* without ever
//! materializing the `O(frames)` byte buffer. [`StreamDecoder`] fills
//! that gap: feed it chunks in stream order and it emits each completed
//! frame to a callback, buffering only the current partial record —
//! `O(max frame)` memory, independent of upload size.
//!
//! The format (classic pcap in either endianness and timestamp
//! resolution, or pcapng with per-section byte order) is auto-detected
//! from the first bytes. All errors are the typed
//! [`PcapError`] values the batch readers
//! return — a decoder on a network-facing path must never panic, which
//! `tests/prop_readers.rs` fuzzes.
//!
//! Frames are emitted in **stream order** (no timestamp sort): the
//! writers in this crate emit monotone timestamps, so for captures this
//! workspace produces, stream order equals the batch readers' sorted
//! order, and streaming analysis is byte-equivalent to buffered
//! analysis.

use crate::format::{PcapError, MAX_RECORD_BYTES};
use crate::pcapng::{BlockWalker, BLOCK_EPB};

const MAGIC_USEC: u32 = 0xa1b2_c3d4;
const MAGIC_NSEC: u32 = 0xa1b2_3c4d;
const BLOCK_SHB: u32 = 0x0A0D_0D0A;
const LINKTYPE_ETHERNET: u32 = 1;

/// Decode state: which format the stream turned out to be.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
enum State {
    /// Not enough bytes yet to tell the format.
    Detect,
    /// Classic pcap, past its 24-byte global header.
    Classic {
        /// Multi-byte fields are big-endian.
        big_endian: bool,
        /// Timestamps carry nanoseconds in the sub-second field.
        nsec: bool,
    },
    /// pcapng; the flag tracks the current section's byte order.
    Ng {
        /// The byte order the most recent SHB established.
        big_endian: bool,
    },
}

/// An incremental pcap/pcapng decoder.
///
/// ```
/// use v6brick_pcap::{format, stream::StreamDecoder, Capture};
///
/// let mut capture = Capture::new();
/// capture.push(5, &[0xAB; 14]);
/// let bytes = format::to_bytes(&capture);
///
/// let mut frames = Vec::new();
/// let mut decoder = StreamDecoder::new();
/// for chunk in bytes.chunks(7) {
///     decoder
///         .feed(chunk, &mut |ts, frame: &[u8]| frames.push((ts, frame.to_vec())))
///         .unwrap();
/// }
/// assert_eq!(decoder.finish().unwrap(), 1);
/// assert_eq!(frames, vec![(5u64, vec![0xAB; 14])]);
/// ```
#[derive(Debug)]
pub struct StreamDecoder {
    state: State,
    /// Unconsumed tail: at most one partial record plus the chunk that
    /// completed it — never the whole stream.
    buf: Vec<u8>,
    /// Bytes consumed (drained out of `buf`) so far.
    consumed: u64,
    /// Frames emitted so far.
    frames: u64,
    /// A hard error already reported; further feeding is refused.
    poisoned: bool,
}

impl Default for StreamDecoder {
    fn default() -> StreamDecoder {
        StreamDecoder::new()
    }
}

impl StreamDecoder {
    /// A decoder awaiting the first chunk.
    pub fn new() -> StreamDecoder {
        StreamDecoder {
            state: State::Detect,
            buf: Vec::new(),
            consumed: 0,
            frames: 0,
            poisoned: false,
        }
    }

    /// Frames emitted so far.
    pub fn frames(&self) -> u64 {
        self.frames
    }

    /// Feed one chunk, emitting every frame it completes to `sink` in
    /// stream order. After an error the decoder is poisoned and refuses
    /// further input (the error is sticky by design: a network server
    /// must fail the whole upload, not resynchronize into garbage).
    pub fn feed(
        &mut self,
        chunk: &[u8],
        sink: &mut dyn FnMut(u64, &[u8]),
    ) -> Result<(), PcapError> {
        if self.poisoned {
            return Err(PcapError::TruncatedRecord);
        }
        self.buf.extend_from_slice(chunk);
        let result = self.drain(sink);
        if result.is_err() {
            self.poisoned = true;
        }
        result
    }

    /// End of stream. Returns the total frame count on a clean boundary;
    /// a non-empty pending buffer is the typed
    /// [`PcapError::PartialTail`] (a truncated upload), and a stream too
    /// short to even identify is [`PcapError::TruncatedRecord`].
    pub fn finish(self) -> Result<u64, PcapError> {
        if self.poisoned {
            return Err(PcapError::TruncatedRecord);
        }
        if self.state == State::Detect {
            // Never saw a complete magic/global header: nothing of any
            // format was decoded.
            return Err(PcapError::TruncatedRecord);
        }
        if !self.buf.is_empty() {
            return Err(PcapError::PartialTail {
                offset: self.consumed,
                pending: self.buf.len(),
            });
        }
        Ok(self.frames)
    }

    /// Consume as much of `buf` as currently possible.
    fn drain(&mut self, sink: &mut dyn FnMut(u64, &[u8])) -> Result<(), PcapError> {
        if self.state == State::Detect && !self.detect()? {
            return Ok(()); // need more bytes
        }
        match self.state {
            State::Detect => unreachable!("detect() either errored or advanced"),
            State::Classic { big_endian, nsec } => self.drain_classic(big_endian, nsec, sink),
            State::Ng { .. } => self.drain_ng(sink),
        }
    }

    /// Identify the format from the leading bytes. `Ok(true)` once the
    /// relevant header is fully consumed.
    fn detect(&mut self) -> Result<bool, PcapError> {
        if self.buf.len() < 4 {
            return Ok(false);
        }
        let magic_le = u32::from_le_bytes(self.buf[0..4].try_into().unwrap());
        let magic_be = u32::from_be_bytes(self.buf[0..4].try_into().unwrap());
        if magic_le == BLOCK_SHB {
            // pcapng: leave the SHB in the buffer — the block walker
            // consumes it like any other block (and sets the byte
            // order from its magic).
            self.state = State::Ng { big_endian: false };
            return Ok(true);
        }
        let (big_endian, nsec) = match (magic_le, magic_be) {
            (MAGIC_USEC, _) => (false, false),
            (MAGIC_NSEC, _) => (false, true),
            (_, MAGIC_USEC) => (true, false),
            (_, MAGIC_NSEC) => (true, true),
            _ => return Err(PcapError::BadMagic(magic_le)),
        };
        // Classic: wait for the full 24-byte global header, validate
        // the linktype, then consume it.
        if self.buf.len() < 24 {
            return Ok(false);
        }
        let lt: [u8; 4] = self.buf[20..24].try_into().unwrap();
        let linktype = if big_endian {
            u32::from_be_bytes(lt)
        } else {
            u32::from_le_bytes(lt)
        };
        if linktype != LINKTYPE_ETHERNET {
            return Err(PcapError::UnsupportedLinkType(linktype));
        }
        self.discard(24);
        self.state = State::Classic { big_endian, nsec };
        Ok(true)
    }

    fn drain_classic(
        &mut self,
        big_endian: bool,
        nsec: bool,
        sink: &mut dyn FnMut(u64, &[u8]),
    ) -> Result<(), PcapError> {
        let u32_at = |buf: &[u8], off: usize| -> u32 {
            let b: [u8; 4] = buf[off..off + 4].try_into().unwrap();
            if big_endian {
                u32::from_be_bytes(b)
            } else {
                u32::from_le_bytes(b)
            }
        };
        let mut pos = 0usize;
        while pos + 16 <= self.buf.len() {
            let incl = u32_at(&self.buf, pos + 8) as usize;
            if incl > MAX_RECORD_BYTES {
                return Err(PcapError::OversizedRecord(incl));
            }
            if pos + 16 + incl > self.buf.len() {
                break; // partial record: wait for more bytes
            }
            let sec = u64::from(u32_at(&self.buf, pos));
            let sub = u64::from(u32_at(&self.buf, pos + 4));
            let usec = if nsec { sub / 1000 } else { sub };
            sink(sec * 1_000_000 + usec, &self.buf[pos + 16..pos + 16 + incl]);
            self.frames += 1;
            pos += 16 + incl;
        }
        self.discard(pos);
        Ok(())
    }

    fn drain_ng(&mut self, sink: &mut dyn FnMut(u64, &[u8])) -> Result<(), PcapError> {
        let State::Ng { big_endian } = self.state else {
            unreachable!("drain_ng outside Ng state");
        };
        let mut walker = BlockWalker::resume(&self.buf, big_endian);
        let mut frames = 0u64;
        let consumed = loop {
            match walker.next_block() {
                Ok(Some((block_type, body, total))) => {
                    if block_type == BLOCK_EPB {
                        let (ts, data) = walker.decode_epb(body, total)?;
                        sink(ts, data);
                        frames += 1;
                    }
                }
                Ok(None) => break walker.pos(),
                // Mid-block end of the *current* buffer just means the
                // next chunk completes it.
                Err(PcapError::PartialTail { .. }) => break walker.pos(),
                Err(e) => return Err(e),
            }
        };
        self.state = State::Ng {
            big_endian: walker.big_endian(),
        };
        self.frames += frames;
        self.discard(consumed);
        Ok(())
    }

    /// Drop `n` consumed bytes off the front of the pending buffer.
    fn discard(&mut self, n: usize) {
        if n > 0 {
            self.buf.drain(..n);
            self.consumed += n as u64;
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::{format, pcapng, Capture};

    fn sample() -> Capture {
        let mut c = Capture::new();
        c.push(1_000_001, &[0x11; 15]);
        c.push(2_500_000, &[0x22; 64]);
        c.push(9_000_000, &[0x33; 3]);
        c
    }

    type DecodedFrames = (Vec<(u64, Vec<u8>)>, u64);

    fn decode_chunked(bytes: &[u8], chunk: usize) -> Result<DecodedFrames, PcapError> {
        let mut frames = Vec::new();
        let mut d = StreamDecoder::new();
        for c in bytes.chunks(chunk.max(1)) {
            d.feed(c, &mut |ts, f: &[u8]| frames.push((ts, f.to_vec())))?;
        }
        let n = d.finish()?;
        Ok((frames, n))
    }

    #[test]
    fn classic_all_chunkings_match_batch_reader() {
        let bytes = format::to_bytes(&sample());
        let whole = decode_chunked(&bytes, bytes.len()).unwrap();
        assert_eq!(whole.1, 3);
        let batch: Vec<(u64, Vec<u8>)> = format::from_bytes(&bytes)
            .unwrap()
            .iter()
            .map(|p| (p.timestamp_us, p.data.to_vec()))
            .collect();
        assert_eq!(whole.0, batch);
        for chunk in [1, 2, 3, 7, 16, 64] {
            assert_eq!(
                decode_chunked(&bytes, chunk).unwrap(),
                whole,
                "chunk {chunk}"
            );
        }
    }

    #[test]
    fn pcapng_all_chunkings_match_batch_reader() {
        let bytes = pcapng::to_bytes(&sample());
        let whole = decode_chunked(&bytes, bytes.len()).unwrap();
        assert_eq!(whole.1, 3);
        let batch: Vec<(u64, Vec<u8>)> = pcapng::from_bytes(&bytes)
            .unwrap()
            .iter()
            .map(|p| (p.timestamp_us, p.data.to_vec()))
            .collect();
        assert_eq!(whole.0, batch);
        for chunk in [1, 2, 5, 13, 32, 101] {
            assert_eq!(
                decode_chunked(&bytes, chunk).unwrap(),
                whole,
                "chunk {chunk}"
            );
        }
    }

    #[test]
    fn truncated_stream_is_typed_partial_tail() {
        for bytes in [format::to_bytes(&sample()), pcapng::to_bytes(&sample())] {
            let cut = &bytes[..bytes.len() - 5];
            let err = decode_chunked(cut, 9).unwrap_err();
            assert!(matches!(err, PcapError::PartialTail { .. }), "got {err:?}");
        }
    }

    #[test]
    fn empty_capture_and_empty_stream() {
        // A header-only classic stream is a valid empty capture.
        let empty = format::to_bytes(&Capture::new());
        assert_eq!(decode_chunked(&empty, 5).unwrap(), (vec![], 0));
        // A zero-byte stream never identified a format.
        let d = StreamDecoder::new();
        assert!(matches!(d.finish(), Err(PcapError::TruncatedRecord)));
    }

    #[test]
    fn garbage_magic_rejected_and_sticky() {
        let mut d = StreamDecoder::new();
        let err = d.feed(&[0xDE, 0xAD, 0xBE, 0xEF, 0x00], &mut |_, _| {});
        assert!(matches!(err, Err(PcapError::BadMagic(_))));
        // Poisoned: even a valid continuation is refused.
        assert!(d.feed(&[0u8; 8], &mut |_, _| {}).is_err());
    }

    #[test]
    fn buffer_stays_bounded_by_one_record() {
        let mut big = Capture::new();
        big.push(1, &vec![0xAA; 60_000]);
        big.push(2, &vec![0xBB; 60_000]);
        let bytes = format::to_bytes(&big);
        let mut d = StreamDecoder::new();
        let mut max_pending = 0usize;
        let mut frames = 0u64;
        for c in bytes.chunks(4096) {
            d.feed(c, &mut |_, _| frames += 1).unwrap();
            max_pending = max_pending.max(d.buf.len());
        }
        assert_eq!(d.finish().unwrap(), 2);
        assert_eq!(frames, 2);
        // Pending never exceeds one record (+ header) + one chunk.
        assert!(max_pending <= 60_000 + 16 + 4096, "peak {max_pending}");
    }
}
