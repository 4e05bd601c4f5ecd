//! RFC 1071 Internet checksum, including the IPv4 and IPv6 pseudo-headers
//! used by UDP, TCP, ICMPv4, and ICMPv6.

use crate::run::Run;
use std::net::{Ipv4Addr, Ipv6Addr};

/// Ones-complement sum accumulator.
///
/// Data can be fed in pieces (pseudo-header, then header, then payload);
/// each piece must be an even number of bytes except the last, or the
/// last before a [`Run`].
#[derive(Debug, Default, Clone, Copy)]
pub struct Checksum {
    /// Sum of big-endian 16-bit words, carries not yet folded.
    sum: u64,
}

impl Checksum {
    /// Fresh accumulator.
    pub fn new() -> Checksum {
        Checksum { sum: 0 }
    }

    /// Fold a byte slice into the sum. Odd-length slices are zero-padded,
    /// so only the final piece may be odd.
    ///
    /// The ones-complement sum is byte-order independent (RFC 1071
    /// §2(B)): the slice is summed as native-endian 64-bit words, each
    /// added as two 32-bit halves into a `u64` that cannot overflow below
    /// 16 GiB, with the sub-word tail taken 16 bits at a time. The
    /// partial sum is then folded to 16 bits and byte-swapped once into
    /// network order.
    pub fn add(&mut self, data: &[u8]) {
        let mut acc = 0u64;
        let mut words = data.chunks_exact(8);
        for w in &mut words {
            let v = u64::from_ne_bytes(w.try_into().expect("8-byte chunk"));
            acc += (v & 0xffff_ffff) + (v >> 32);
        }
        let mut pairs = words.remainder().chunks_exact(2);
        for p in &mut pairs {
            acc += u64::from(u16::from_ne_bytes([p[0], p[1]]));
        }
        if let [last] = pairs.remainder() {
            acc += u64::from(u16::from_ne_bytes([*last, 0]));
        }
        self.sum += u64::from(u16::from_be_bytes(fold(acc).to_ne_bytes()));
    }

    /// Fold the bytes `run` spells into the sum without spelling them:
    /// each stretch of one byte adds that byte as the high half of a
    /// word at even offsets and as the low half at odd ones. `odd` says
    /// whether the run follows an odd number of bytes, the last of which
    /// [`Checksum::add`] zero-padded; the run's first byte then
    /// completes that word. Nothing may be added after a run.
    pub fn add_run(&mut self, run: Run, odd: bool) {
        let mut odd = odd;
        run.stretches(|byte, n| {
            let (byte, high, low) = (u64::from(byte), n.div_ceil(2), n / 2);
            let (high, low) = if odd { (low, high) } else { (high, low) };
            self.sum += (byte << 8) * high as u64 + byte * low as u64;
            odd ^= n % 2 == 1;
        });
    }

    /// Fold a single big-endian 16-bit word into the sum.
    pub fn add_u16(&mut self, v: u16) {
        self.sum += u64::from(v);
    }

    /// Fold a 32-bit value (as two words).
    pub fn add_u32(&mut self, v: u32) {
        self.add_u16((v >> 16) as u16);
        self.add_u16(v as u16);
    }

    /// Add the IPv4 pseudo-header (RFC 768 / RFC 793).
    pub fn add_ipv4_pseudo(&mut self, src: Ipv4Addr, dst: Ipv4Addr, proto: u8, len: u16) {
        self.add(&src.octets());
        self.add(&dst.octets());
        self.add_u16(u16::from(proto));
        self.add_u16(len);
    }

    /// Add the IPv6 pseudo-header (RFC 8200 §8.1).
    pub fn add_ipv6_pseudo(&mut self, src: Ipv6Addr, dst: Ipv6Addr, next_header: u8, len: u32) {
        self.add(&src.octets());
        self.add(&dst.octets());
        self.add_u32(len);
        self.add_u16(u16::from(next_header));
    }

    /// Finish: fold carries and complement.
    pub fn finish(self) -> u16 {
        !fold(self.sum)
    }
}

/// End-around-carry fold of a wide ones-complement sum to 16 bits.
fn fold(mut s: u64) -> u16 {
    while s > 0xffff {
        s = (s & 0xffff) + (s >> 16);
    }
    s as u16
}

/// One-shot checksum of a contiguous buffer.
pub fn checksum(data: &[u8]) -> u16 {
    let mut c = Checksum::new();
    c.add(data);
    c.finish()
}

/// Verify a buffer whose checksum field is already populated: the total sum
/// must fold to zero (stored as `!0 == 0xffff` complement identity).
pub fn verify(data: &[u8]) -> bool {
    checksum(data) == 0
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn rfc1071_worked_example() {
        // The classic example from RFC 1071 §3.
        let data = [0x00u8, 0x01, 0xf2, 0x03, 0xf4, 0xf5, 0xf6, 0xf7];
        // Sum = 0x0001 + 0xf203 + 0xf4f5 + 0xf6f7 = 0x2ddf0 -> fold 0xddf2
        assert_eq!(checksum(&data), !0xddf2);
    }

    #[test]
    fn odd_length_pads_with_zero() {
        assert_eq!(checksum(&[0xab]), !0xab00);
    }

    #[test]
    fn verify_accepts_self_checksummed_buffer() {
        let mut data = vec![
            0x45, 0x00, 0x00, 0x1c, 0x12, 0x34, 0x00, 0x00, 0x40, 0x11, 0, 0,
        ];
        let c = checksum(&data);
        data[10..12].copy_from_slice(&c.to_be_bytes());
        assert!(verify(&data));
    }

    #[test]
    fn pseudo_header_changes_sum() {
        let mut a = Checksum::new();
        a.add(b"hi");
        let mut b = Checksum::new();
        b.add_ipv6_pseudo(
            "fe80::1".parse().unwrap(),
            "ff02::1".parse().unwrap(),
            17,
            2,
        );
        b.add(b"hi");
        assert_ne!(a.finish(), b.finish());
    }

    #[test]
    fn empty_buffer_checksums_to_ffff() {
        assert_eq!(checksum(&[]), 0xffff);
    }
}
