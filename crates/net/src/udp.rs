//! UDP (RFC 768), with IPv4/IPv6 pseudo-header checksums.

use crate::checksum::Checksum;
use crate::error::{Error, Result};
use crate::run::Run;
use std::net::{Ipv4Addr, Ipv6Addr};

/// UDP header length.
pub const HEADER_LEN: usize = 8;

/// A view over a UDP datagram.
#[derive(Debug)]
pub struct Packet<T: AsRef<[u8]>> {
    buffer: T,
}

impl<T: AsRef<[u8]>> Packet<T> {
    /// Wrap a buffer after validating the length field.
    pub fn new_checked(buffer: T) -> Result<Packet<T>> {
        Packet::new_checked_with_tail(buffer, 0)
    }

    /// Wrap the front of a datagram that continues `tail` bytes past
    /// `buffer` (one that ends in a [`Run`]): the header must lie in
    /// `buffer`, the length field is checked against `buffer.len() +
    /// tail`, and [`Packet::payload`] returns the part of the payload in
    /// `buffer`. The checksum verifiers need the whole datagram and
    /// panic on such a view.
    pub fn new_checked_with_tail(buffer: T, tail: usize) -> Result<Packet<T>> {
        let b = buffer.as_ref();
        if b.len() < HEADER_LEN {
            return Err(Error::Truncated);
        }
        let len = usize::from(u16::from_be_bytes([b[4], b[5]]));
        if len < HEADER_LEN || b.len() + tail < len {
            return Err(Error::Truncated);
        }
        Ok(Packet { buffer })
    }

    /// Source port.
    pub fn src_port(&self) -> u16 {
        let b = self.buffer.as_ref();
        u16::from_be_bytes([b[0], b[1]])
    }

    /// Destination port.
    pub fn dst_port(&self) -> u16 {
        let b = self.buffer.as_ref();
        u16::from_be_bytes([b[2], b[3]])
    }

    /// Length field (header + payload).
    pub fn len(&self) -> u16 {
        let b = self.buffer.as_ref();
        u16::from_be_bytes([b[4], b[5]])
    }

    /// True when the datagram carries no payload.
    pub fn is_empty(&self) -> bool {
        self.len() == HEADER_LEN as u16
    }

    /// Stored checksum field.
    pub fn checksum(&self) -> u16 {
        let b = self.buffer.as_ref();
        u16::from_be_bytes([b[6], b[7]])
    }

    /// Where the payload ends in the buffer: at the length field, or at
    /// the buffer's end for a view made with a tail.
    fn payload_end(&self) -> usize {
        usize::from(self.len()).min(self.buffer.as_ref().len())
    }

    /// Verify the checksum under an IPv6 pseudo-header.
    pub fn verify_checksum_v6(&self, src: Ipv6Addr, dst: Ipv6Addr) -> bool {
        let b = &self.buffer.as_ref()[..usize::from(self.len())];
        let mut c = Checksum::new();
        c.add_ipv6_pseudo(src, dst, 17, u32::from(self.len()));
        c.add(b);
        c.finish() == 0
    }

    /// Verify the checksum under an IPv4 pseudo-header. A zero checksum
    /// means "not computed" and is accepted, per RFC 768.
    pub fn verify_checksum_v4(&self, src: Ipv4Addr, dst: Ipv4Addr) -> bool {
        if self.checksum() == 0 {
            return true;
        }
        let b = &self.buffer.as_ref()[..usize::from(self.len())];
        let mut c = Checksum::new();
        c.add_ipv4_pseudo(src, dst, 17, self.len());
        c.add(b);
        c.finish() == 0
    }
}

impl<'a, T: AsRef<[u8]> + ?Sized> Packet<&'a T> {
    /// Application payload, borrowed for as long as the buffer.
    pub fn payload(&self) -> &'a [u8] {
        &self.buffer.as_ref()[HEADER_LEN..self.payload_end()]
    }
}

/// Owned representation of a UDP datagram (header + owned payload).
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Repr {
    /// Source port.
    pub src_port: u16,
    /// Destination port.
    pub dst_port: u16,
    /// Payload.
    pub payload: Vec<u8>,
}

/// Which pseudo-header to checksum against.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum PseudoHeader {
    /// V4.
    V4 {
        /// Source IPv4 address.
        src: Ipv4Addr,
        /// Destination IPv4 address.
        dst: Ipv4Addr,
    },
    /// V6.
    V6 {
        /// Source IPv6 address.
        src: Ipv6Addr,
        /// Destination IPv6 address.
        dst: Ipv6Addr,
    },
}

impl PseudoHeader {
    /// The transport checksum of `segment` followed by `run`, with the
    /// checksum field in `segment` zeroed, under this pseudo-header for
    /// `protocol`. The run's share is computed without spelling it out.
    pub(crate) fn checksum(self, protocol: u8, segment: &[u8], run: Run) -> u16 {
        let len = segment.len() + run.len();
        let mut c = Checksum::new();
        match self {
            PseudoHeader::V4 { src, dst } => c.add_ipv4_pseudo(src, dst, protocol, len as u16),
            PseudoHeader::V6 { src, dst } => c.add_ipv6_pseudo(src, dst, protocol, len as u32),
        }
        c.add(segment);
        c.add_run(run, segment.len() % 2 == 1);
        c.finish()
    }
}

impl Repr {
    /// Parse from a checked view, copying the payload.
    pub fn parse<T: AsRef<[u8]>>(packet: &Packet<T>) -> Repr {
        Repr {
            src_port: packet.src_port(),
            dst_port: packet.dst_port(),
            payload: packet.buffer.as_ref()[HEADER_LEN..packet.payload_end()].to_vec(),
        }
    }

    /// Parse straight from bytes.
    pub fn parse_bytes(bytes: &[u8]) -> Result<Repr> {
        Ok(Repr::parse(&Packet::new_checked(bytes)?))
    }

    /// Write this header into the front of `buf` and checksum the
    /// datagram against `ph`. The datagram is `buf` followed by `run`:
    /// the rest of `buf` is the payload's front, already in place
    /// (`self.payload` is not read: the caller copies the payload, and
    /// [`Repr::build`] copies `self.payload`), and the length field is
    /// `buf.len() + run.len()`.
    pub fn emit(&self, buf: &mut [u8], run: Run, ph: PseudoHeader) {
        let len = buf.len() + run.len();
        buf[0..2].copy_from_slice(&self.src_port.to_be_bytes());
        buf[2..4].copy_from_slice(&self.dst_port.to_be_bytes());
        buf[4..6].copy_from_slice(&(len as u16).to_be_bytes());
        buf[6..8].fill(0);
        let mut sum = ph.checksum(17, buf, run);
        if sum == 0 {
            sum = 0xffff; // RFC 768: transmitted zero means "no checksum"
        }
        buf[6..8].copy_from_slice(&sum.to_be_bytes());
    }

    /// Serialize with the checksum computed against `ph`.
    pub fn build(&self, ph: PseudoHeader) -> Vec<u8> {
        let mut buf = [&[0; HEADER_LEN][..], &self.payload].concat();
        self.emit(&mut buf, Run::default(), ph);
        buf
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn v6_roundtrip_with_valid_checksum() {
        let src: Ipv6Addr = "fe80::1".parse().unwrap();
        let dst: Ipv6Addr = "fe80::2".parse().unwrap();
        let r = Repr {
            src_port: 5353,
            dst_port: 53,
            payload: b"query".to_vec(),
        };
        let bytes = r.build(PseudoHeader::V6 { src, dst });
        let p = Packet::new_checked(&bytes[..]).unwrap();
        assert!(p.verify_checksum_v6(src, dst));
        // A different pseudo-header (not a src/dst swap, which the
        // commutative sum cannot detect) must fail.
        assert!(!p.verify_checksum_v6(src, "fe80::3".parse().unwrap()));
        assert_eq!(Repr::parse(&p), r);
    }

    #[test]
    fn v4_zero_checksum_accepted() {
        let src = Ipv4Addr::new(10, 0, 0, 1);
        let dst = Ipv4Addr::new(10, 0, 0, 2);
        let r = Repr {
            src_port: 1024,
            dst_port: 53,
            payload: vec![1, 2, 3],
        };
        let mut bytes = r.build(PseudoHeader::V4 { src, dst });
        let p = Packet::new_checked(&bytes[..]).unwrap();
        assert!(p.verify_checksum_v4(src, dst));
        bytes[6..8].copy_from_slice(&[0, 0]);
        let p = Packet::new_checked(&bytes[..]).unwrap();
        assert!(p.verify_checksum_v4(src, dst));
    }

    #[test]
    fn truncation_rejected() {
        assert_eq!(
            Packet::new_checked(&[0u8; 4][..]).unwrap_err(),
            Error::Truncated
        );
        // Declared length larger than buffer.
        let mut b = [0u8; 8];
        b[4..6].copy_from_slice(&20u16.to_be_bytes());
        assert_eq!(Packet::new_checked(&b[..]).unwrap_err(), Error::Truncated);
    }

    #[test]
    fn payload_respects_length_field() {
        let r = Repr {
            src_port: 1,
            dst_port: 2,
            payload: b"xy".to_vec(),
        };
        let mut bytes = r.build(PseudoHeader::V4 {
            src: Ipv4Addr::UNSPECIFIED,
            dst: Ipv4Addr::UNSPECIFIED,
        });
        bytes.extend_from_slice(&[9u8; 4]);
        let p = Packet::new_checked(&bytes[..]).unwrap();
        assert_eq!(p.payload(), b"xy");
    }
}
