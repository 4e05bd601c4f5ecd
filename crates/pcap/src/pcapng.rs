//! pcapng (the modern capture format, RFC draft-ietf-opsawg-pcapng).
//!
//! Wireshark defaults to pcapng; supporting it alongside classic pcap
//! makes the simulator's captures drop-in for either toolchain. We write
//! little-endian files with one section, one Ethernet interface at
//! microsecond resolution, and one Enhanced Packet Block per frame; the
//! reader accepts both endiannesses and skips unknown blocks.

use crate::format::PcapError;
use crate::{Capture, CapturedPacket};
use bytes::Bytes;

const BLOCK_SHB: u32 = 0x0A0D_0D0A;
const BLOCK_IDB: u32 = 0x0000_0001;
pub(crate) const BLOCK_EPB: u32 = 0x0000_0006;
const BYTE_ORDER_MAGIC: u32 = 0x1A2B_3C4D;

/// IDB linktype for Ethernet II frames (the default everywhere).
pub const LINKTYPE_ETHERNET: u16 = 1;

/// IDB linktype for IEEE 802.15.4 frames captured without the trailing
/// FCS — what the mesh sub-network capture writes.
pub const LINKTYPE_IEEE802_15_4_NOFCS: u16 = 230;

fn pad4(n: usize) -> usize {
    (4 - n % 4) % 4
}

fn push_block(out: &mut Vec<u8>, block_type: u32, body: &[u8]) {
    let total = 12 + body.len() + pad4(body.len());
    out.extend_from_slice(&block_type.to_le_bytes());
    out.extend_from_slice(&(total as u32).to_le_bytes());
    out.extend_from_slice(body);
    out.extend(std::iter::repeat_n(0u8, pad4(body.len())));
    out.extend_from_slice(&(total as u32).to_le_bytes());
}

/// Serialize a capture as a pcapng stream with an Ethernet interface.
pub fn to_bytes(capture: &Capture) -> Vec<u8> {
    to_bytes_with_linktype(capture, LINKTYPE_ETHERNET)
}

/// Serialize a capture as a pcapng stream whose single interface carries
/// the given linktype (e.g. [`LINKTYPE_IEEE802_15_4_NOFCS`] for mesh
/// captures). Readers in this crate are linktype-agnostic — the IDB is
/// informational for external dissectors.
pub fn to_bytes_with_linktype(capture: &Capture, linktype: u16) -> Vec<u8> {
    let mut out = Vec::with_capacity(64 + capture.len() * 96);

    // Section Header Block.
    let mut shb = Vec::with_capacity(16);
    shb.extend_from_slice(&BYTE_ORDER_MAGIC.to_le_bytes());
    shb.extend_from_slice(&1u16.to_le_bytes()); // major
    shb.extend_from_slice(&0u16.to_le_bytes()); // minor
    shb.extend_from_slice(&(-1i64).to_le_bytes()); // section length: unknown
    push_block(&mut out, BLOCK_SHB, &shb);

    // Interface Description Block: default (µs) resolution.
    let mut idb = Vec::with_capacity(8);
    idb.extend_from_slice(&linktype.to_le_bytes());
    idb.extend_from_slice(&0u16.to_le_bytes()); // reserved
    idb.extend_from_slice(&262_144u32.to_le_bytes()); // snaplen
    push_block(&mut out, BLOCK_IDB, &idb);

    // One Enhanced Packet Block per frame.
    for p in capture.iter() {
        let mut epb = Vec::with_capacity(20 + p.data.len());
        epb.extend_from_slice(&0u32.to_le_bytes()); // interface id
        epb.extend_from_slice(&((p.timestamp_us >> 32) as u32).to_le_bytes());
        epb.extend_from_slice(&(p.timestamp_us as u32).to_le_bytes());
        epb.extend_from_slice(&(p.data.len() as u32).to_le_bytes()); // captured
        epb.extend_from_slice(&(p.data.len() as u32).to_le_bytes()); // original
        epb.extend_from_slice(&p.data);
        epb.extend(std::iter::repeat_n(0u8, pad4(p.data.len())));
        push_block(&mut out, BLOCK_EPB, &epb);
    }
    out
}

/// One parsed block header: `(type, body offset, total length)`.
pub(crate) type BlockHead = (u32, usize, usize);

/// A cursor over a pcapng block chain that tracks the **per-section**
/// byte order: each Section Header Block re-establishes endianness for
/// the blocks that follow it, so a file concatenating a little-endian
/// and a big-endian section (legal per the spec — each capture host
/// writes its native order) parses correctly.
pub(crate) struct BlockWalker<'a> {
    buf: &'a [u8],
    pos: usize,
    big_endian: bool,
}

impl<'a> BlockWalker<'a> {
    /// Validate the leading SHB and position the cursor at block 0.
    pub(crate) fn new(buf: &'a [u8]) -> Result<BlockWalker<'a>, PcapError> {
        if buf.len() < 4 {
            return Err(PcapError::TruncatedRecord);
        }
        // The SHB type value is a byte-order palindrome, so this check
        // is endianness-independent.
        let first_type = u32::from_le_bytes(buf[0..4].try_into().unwrap());
        if first_type != BLOCK_SHB {
            return Err(PcapError::BadMagic(first_type));
        }
        Ok(BlockWalker {
            buf,
            pos: 0,
            big_endian: false,
        })
    }

    /// Resume mid-chain at a block boundary, with the byte order the
    /// enclosing section established. The streaming decoder re-enters
    /// here on every fed chunk.
    pub(crate) fn resume(buf: &'a [u8], big_endian: bool) -> BlockWalker<'a> {
        BlockWalker {
            buf,
            pos: 0,
            big_endian,
        }
    }

    /// Cursor position (the next unconsumed block boundary).
    pub(crate) fn pos(&self) -> usize {
        self.pos
    }

    /// The byte order currently in force.
    pub(crate) fn big_endian(&self) -> bool {
        self.big_endian
    }

    fn u32_at(&self, off: usize) -> Result<u32, PcapError> {
        let b: [u8; 4] = self
            .buf
            .get(off..off + 4)
            .ok_or(PcapError::TruncatedRecord)?
            .try_into()
            .unwrap();
        Ok(if self.big_endian {
            u32::from_be_bytes(b)
        } else {
            u32::from_le_bytes(b)
        })
    }

    /// Advance to the next block. `Ok(None)` at a clean end of input;
    /// [`PcapError::PartialTail`] when the input ends mid-block.
    pub(crate) fn next_block(&mut self) -> Result<Option<BlockHead>, PcapError> {
        let (buf, pos) = (self.buf, self.pos);
        if pos == buf.len() {
            return Ok(None);
        }
        if pos + 12 > buf.len() {
            return Err(PcapError::PartialTail {
                offset: pos as u64,
                pending: buf.len() - pos,
            });
        }
        // The block type is written in the section's byte order, but
        // SHB's value is a palindrome — safe to test before switching.
        let raw_type = self.u32_at(pos)?;
        if raw_type == BLOCK_SHB {
            // A new section: its byte-order magic governs everything
            // from this block's own length field onward.
            let magic_le = u32::from_le_bytes(buf[pos + 8..pos + 12].try_into().unwrap());
            self.big_endian = match magic_le {
                BYTE_ORDER_MAGIC => false,
                m if m.swap_bytes() == BYTE_ORDER_MAGIC => true,
                m => return Err(PcapError::BadMagic(m)),
            };
        }
        let block_type = self.u32_at(pos)?;
        let total = self.u32_at(pos + 4)? as usize;
        if total < 12 || !total.is_multiple_of(4) {
            return Err(PcapError::TruncatedRecord);
        }
        if total > MAX_BLOCK_BYTES {
            return Err(PcapError::OversizedRecord(total));
        }
        if pos + total > buf.len() {
            return Err(PcapError::PartialTail {
                offset: pos as u64,
                pending: buf.len() - pos,
            });
        }
        // Trailing length must agree (format self-check).
        if self.u32_at(pos + total - 4)? as usize != total {
            return Err(PcapError::TruncatedRecord);
        }
        self.pos = pos + total;
        Ok(Some((block_type, pos + 8, total)))
    }

    /// Decode the packet out of an EPB located by [`Self::next_block`].
    pub(crate) fn decode_epb(
        &self,
        body: usize,
        total: usize,
    ) -> Result<(u64, &'a [u8]), PcapError> {
        let ts_hi = u64::from(self.u32_at(body + 4)?);
        let ts_lo = u64::from(self.u32_at(body + 8)?);
        let captured = self.u32_at(body + 12)? as usize;
        let data_start = body + 20;
        // body == block start + 8; the trailing length occupies the
        // final 4 bytes of the block.
        if data_start + captured > body - 8 + total - 4 {
            return Err(PcapError::TruncatedRecord);
        }
        Ok((
            (ts_hi << 32) | ts_lo,
            &self.buf[data_start..data_start + captured],
        ))
    }
}

/// Upper bound on a single block's declared length — generous for any
/// real EPB, small enough that corrupt lengths cannot make a streaming
/// reader buffer unbounded input.
pub(crate) const MAX_BLOCK_BYTES: usize = crate::format::MAX_RECORD_BYTES + 64;

/// Deserialize a pcapng stream (single or multi-section, sections of
/// either endianness; unknown block types are skipped, as the format
/// requires). Sections without interfaces or packets are valid and
/// contribute nothing; a stream cut mid-block yields the typed
/// [`PcapError::PartialTail`] rather than a generic failure.
pub fn from_bytes(buf: &[u8]) -> Result<Capture, PcapError> {
    // Pre-scan the block chain (headers only) to count EPBs, so the
    // packet vector is allocated exactly once.
    let mut count = 0usize;
    let mut scout = BlockWalker::new(buf)?;
    // An erroring scout just stops counting early; the parse loop below
    // reports errors with full context.
    while let Ok(Some((block_type, _, _))) = scout.next_block() {
        if block_type == BLOCK_EPB {
            count += 1;
        }
    }
    let mut packets: Vec<CapturedPacket> = Vec::with_capacity(count);
    let mut walker = BlockWalker::new(buf)?;
    while let Some((block_type, body, total)) = walker.next_block()? {
        if block_type == BLOCK_EPB {
            let (timestamp_us, data) = walker.decode_epb(body, total)?;
            packets.push(CapturedPacket {
                timestamp_us,
                data: Bytes::copy_from_slice(data),
            });
        }
        // SHB, IDB, and anything unknown: skip.
    }
    packets.sort_by_key(|p| p.timestamp_us);
    Ok(packets.into_iter().collect())
}

#[cfg(test)]
mod tests {
    use super::*;

    fn sample() -> Capture {
        let mut c = Capture::new();
        c.push(1_000_001, &[0xAA; 15]); // odd length exercises padding
        c.push(2_500_000, &[0xBB; 64]);
        c.push(u64::from(u32::MAX) * 2, &[0xCC; 3]); // >32-bit timestamp
        c
    }

    #[test]
    fn roundtrip() {
        let c = sample();
        let bytes = to_bytes(&c);
        assert_eq!(from_bytes(&bytes).unwrap(), c);
    }

    #[test]
    fn blocks_are_32bit_aligned_with_matching_lengths() {
        let bytes = to_bytes(&sample());
        let mut pos = 0;
        while pos < bytes.len() {
            let total = u32::from_le_bytes(bytes[pos + 4..pos + 8].try_into().unwrap()) as usize;
            assert_eq!(total % 4, 0);
            let trailing =
                u32::from_le_bytes(bytes[pos + total - 4..pos + total].try_into().unwrap());
            assert_eq!(trailing as usize, total);
            pos += total;
        }
        assert_eq!(pos, bytes.len());
    }

    #[test]
    fn header_layout_matches_spec() {
        let bytes = to_bytes(&Capture::new());
        // SHB type + byte-order magic.
        assert_eq!(&bytes[0..4], &BLOCK_SHB.to_le_bytes());
        assert_eq!(&bytes[8..12], &BYTE_ORDER_MAGIC.to_le_bytes());
        // Second block is the IDB with LINKTYPE_ETHERNET.
        let shb_len = u32::from_le_bytes(bytes[4..8].try_into().unwrap()) as usize;
        assert_eq!(&bytes[shb_len..shb_len + 4], &BLOCK_IDB.to_le_bytes());
        assert_eq!(
            u16::from_le_bytes(bytes[shb_len + 8..shb_len + 10].try_into().unwrap()),
            LINKTYPE_ETHERNET
        );
    }

    #[test]
    fn unknown_blocks_are_skipped() {
        let mut bytes = to_bytes(&sample());
        // Append a custom block (type 0x0BAD) — readers must skip it.
        let mut custom = Vec::new();
        super::push_block(&mut custom, 0x0BAD, &[1, 2, 3, 4, 5]);
        bytes.extend_from_slice(&custom);
        assert_eq!(from_bytes(&bytes).unwrap(), sample());
    }

    #[test]
    fn rejects_classic_pcap_and_garbage() {
        let classic = crate::format::to_bytes(&sample());
        assert!(matches!(from_bytes(&classic), Err(PcapError::BadMagic(_))));
        assert!(from_bytes(&[0u8; 7]).is_err());
    }

    #[test]
    fn truncation_detected() {
        let bytes = to_bytes(&sample());
        for cut in [bytes.len() - 1, bytes.len() - 5, 13] {
            assert!(from_bytes(&bytes[..cut]).is_err(), "cut at {cut}");
        }
    }

    /// Build one section (SHB + IDB + EPBs) in the requested byte order.
    fn section(packets: &[(u64, &[u8])], big_endian: bool) -> Vec<u8> {
        let w32 = |v: u32| {
            if big_endian {
                v.to_be_bytes()
            } else {
                v.to_le_bytes()
            }
        };
        let mut out = Vec::new();
        let mut block = |block_type: u32, body: &[u8]| {
            let total = 12 + body.len() + pad4(body.len());
            out.extend_from_slice(&w32(block_type));
            out.extend_from_slice(&w32(total as u32));
            out.extend_from_slice(body);
            out.extend(std::iter::repeat_n(0u8, pad4(body.len())));
            out.extend_from_slice(&w32(total as u32));
        };
        let mut shb = Vec::new();
        shb.extend_from_slice(&w32(BYTE_ORDER_MAGIC));
        shb.extend_from_slice(&if big_endian {
            1u16.to_be_bytes()
        } else {
            1u16.to_le_bytes()
        });
        shb.extend_from_slice(&[0u8; 2]); // minor 0 either way
        shb.extend_from_slice(&(-1i64).to_le_bytes());
        block(BLOCK_SHB, &shb);
        let mut idb = Vec::new();
        idb.extend_from_slice(&if big_endian {
            LINKTYPE_ETHERNET.to_be_bytes()
        } else {
            LINKTYPE_ETHERNET.to_le_bytes()
        });
        idb.extend_from_slice(&[0u8; 2]);
        idb.extend_from_slice(&w32(262_144));
        block(BLOCK_IDB, &idb);
        for (ts, data) in packets {
            let mut epb = Vec::new();
            epb.extend_from_slice(&w32(0));
            epb.extend_from_slice(&w32((ts >> 32) as u32));
            epb.extend_from_slice(&w32(*ts as u32));
            epb.extend_from_slice(&w32(data.len() as u32));
            epb.extend_from_slice(&w32(data.len() as u32));
            epb.extend_from_slice(data);
            epb.extend(std::iter::repeat_n(0u8, pad4(data.len())));
            block(BLOCK_EPB, &epb);
        }
        out
    }

    #[test]
    fn mixed_endian_sections_parse_per_section() {
        // A little-endian section followed by a big-endian one: each
        // SHB re-establishes the byte order for its own blocks.
        let mut bytes = section(&[(10, &[0xAA; 7])], false);
        bytes.extend_from_slice(&section(&[(20, &[0xBB; 5])], true));
        let c = from_bytes(&bytes).unwrap();
        assert_eq!(c.len(), 2);
        let frames: Vec<_> = c.iter().collect();
        assert_eq!(frames[0].timestamp_us, 10);
        assert_eq!(&frames[0].data[..], &[0xAA; 7]);
        assert_eq!(frames[1].timestamp_us, 20);
        assert_eq!(&frames[1].data[..], &[0xBB; 5]);
    }

    #[test]
    fn empty_and_interfaceless_sections_tolerated() {
        // A bare SHB (no IDB, no packets) is a valid, empty capture.
        let shb_only = &to_bytes(&Capture::new())[..28];
        assert_eq!(from_bytes(shb_only).unwrap(), Capture::new());
        // Packets in a section that never declared an interface still
        // decode (the reader does not require an IDB).
        let mut interfaceless = section(&[], false)[..28].to_vec();
        let full = section(&[(5, &[0xCC; 4])], false);
        interfaceless.extend_from_slice(&full[full.len() - 36..]); // just the EPB
        let c = from_bytes(&interfaceless).unwrap();
        assert_eq!(c.len(), 1);
        assert_eq!(c.iter().next().unwrap().timestamp_us, 5);
        // An empty section between two populated ones is skipped.
        let mut multi = section(&[(1, &[0x11; 2])], false);
        multi.extend_from_slice(&section(&[], true));
        multi.extend_from_slice(&section(&[(2, &[0x22; 2])], false));
        assert_eq!(from_bytes(&multi).unwrap().len(), 2);
    }

    #[test]
    fn trailing_partial_block_is_typed() {
        let bytes = to_bytes(&sample());
        // Cut mid-way through the final EPB: everything before it is a
        // clean prefix, the error names the boundary.
        let cut = bytes.len() - 6;
        match from_bytes(&bytes[..cut]) {
            Err(PcapError::PartialTail { offset, pending }) => {
                assert!(offset as usize <= cut);
                assert_eq!(offset as usize + pending, cut);
            }
            other => panic!("expected PartialTail, got {other:?}"),
        }
        // A corrupt trailing length is corruption, not a partial tail.
        let mut corrupt = to_bytes(&sample());
        let n = corrupt.len();
        corrupt[n - 2] ^= 0xFF;
        assert!(matches!(
            from_bytes(&corrupt),
            Err(PcapError::TruncatedRecord)
        ));
    }
}
