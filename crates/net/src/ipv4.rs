//! IPv4 headers (RFC 791).

use crate::checksum;
use crate::error::{Error, Result};
use std::net::Ipv4Addr;

/// IP protocol numbers shared by IPv4's `protocol` and IPv6's `next header`.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum Protocol {
    /// Icmp.
    Icmp,
    /// Igmp.
    Igmp,
    /// Tcp.
    Tcp,
    /// Udp.
    Udp,
    /// Ipv6.
    Ipv6, // 6in4 encapsulation, as used by the testbed's tunnel
    /// Icmpv6.
    Icmpv6,
    /// Other.
    Other(u8),
}

impl From<u8> for Protocol {
    fn from(v: u8) -> Protocol {
        match v {
            1 => Protocol::Icmp,
            2 => Protocol::Igmp,
            6 => Protocol::Tcp,
            17 => Protocol::Udp,
            41 => Protocol::Ipv6,
            58 => Protocol::Icmpv6,
            other => Protocol::Other(other),
        }
    }
}

impl From<Protocol> for u8 {
    fn from(v: Protocol) -> u8 {
        match v {
            Protocol::Icmp => 1,
            Protocol::Igmp => 2,
            Protocol::Tcp => 6,
            Protocol::Udp => 17,
            Protocol::Ipv6 => 41,
            Protocol::Icmpv6 => 58,
            Protocol::Other(o) => o,
        }
    }
}

/// Minimum (and, for us, only) IPv4 header length: we never emit options.
pub const HEADER_LEN: usize = 20;

/// A view over an IPv4 packet.
#[derive(Debug)]
pub struct Packet<T: AsRef<[u8]>> {
    buffer: T,
}

impl<T: AsRef<[u8]>> Packet<T> {
    /// Wrap a buffer after validating version, IHL, total length, and
    /// header checksum.
    pub fn new_checked(buffer: T) -> Result<Packet<T>> {
        Packet::new_checked_with_tail(buffer, 0)
    }

    /// Wrap the front of a packet that continues `tail` bytes past
    /// `buffer` (one that ends in a [`Run`](crate::Run)): the header must
    /// lie in `buffer`, the total length is checked against
    /// `buffer.len() + tail`, and [`Packet::payload`] returns the part of
    /// the payload in `buffer`.
    pub fn new_checked_with_tail(buffer: T, tail: usize) -> Result<Packet<T>> {
        let b = buffer.as_ref();
        if b.len() < HEADER_LEN {
            return Err(Error::Truncated);
        }
        if b[0] >> 4 != 4 {
            return Err(Error::Malformed);
        }
        let ihl = usize::from(b[0] & 0x0f) * 4;
        if ihl < HEADER_LEN || b.len() < ihl {
            return Err(Error::Malformed);
        }
        let total = usize::from(u16::from_be_bytes([b[2], b[3]]));
        if total < ihl || b.len() + tail < total {
            return Err(Error::Truncated);
        }
        if !checksum::verify(&b[..ihl]) {
            return Err(Error::BadChecksum);
        }
        Ok(Packet { buffer })
    }

    /// Wrap without checking.
    pub fn new_unchecked(buffer: T) -> Packet<T> {
        Packet { buffer }
    }

    fn ihl(&self) -> usize {
        usize::from(self.buffer.as_ref()[0] & 0x0f) * 4
    }

    /// Total length field.
    pub fn total_len(&self) -> u16 {
        let b = self.buffer.as_ref();
        u16::from_be_bytes([b[2], b[3]])
    }

    /// Time to live.
    pub fn ttl(&self) -> u8 {
        self.buffer.as_ref()[8]
    }

    /// Carried protocol.
    pub fn protocol(&self) -> Protocol {
        self.buffer.as_ref()[9].into()
    }

    /// Source address.
    pub fn src(&self) -> Ipv4Addr {
        let b = &self.buffer.as_ref()[12..16];
        Ipv4Addr::new(b[0], b[1], b[2], b[3])
    }

    /// Destination address.
    pub fn dst(&self) -> Ipv4Addr {
        let b = &self.buffer.as_ref()[16..20];
        Ipv4Addr::new(b[0], b[1], b[2], b[3])
    }
}

impl<'a, T: AsRef<[u8]> + ?Sized> Packet<&'a T> {
    /// The layer-4 payload (bounded by the total-length field), borrowed
    /// for as long as the buffer.
    pub fn payload(&self) -> &'a [u8] {
        let b = self.buffer.as_ref();
        &b[self.ihl()..usize::from(self.total_len()).min(b.len())]
    }
}

/// Owned representation of an IPv4 header.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Repr {
    /// Source.
    pub src: Ipv4Addr,
    /// Destination.
    pub dst: Ipv4Addr,
    /// Protocol.
    pub protocol: Protocol,
    /// TTL.
    pub ttl: u8,
    /// Payload length.
    pub payload_len: usize,
}

impl Repr {
    /// Parse from a checked view.
    pub fn parse<T: AsRef<[u8]>>(packet: &Packet<T>) -> Repr {
        Repr {
            src: packet.src(),
            dst: packet.dst(),
            protocol: packet.protocol(),
            ttl: packet.ttl(),
            payload_len: usize::from(packet.total_len()) - packet.ihl(),
        }
    }

    /// Write this header into the front of `buf`, ahead of the
    /// `payload_len` bytes the caller places at `buf[HEADER_LEN..]`, and
    /// compute the header checksum. The header is always a fresh
    /// option-less one: TOS, identification and fragment fields zero.
    ///
    /// # Panics
    /// Totals beyond the 16-bit total-length field are a caller bug.
    pub fn emit(&self, buf: &mut [u8]) {
        let total = HEADER_LEN + self.payload_len;
        assert!(
            total <= usize::from(u16::MAX),
            "ipv4 total length {total} exceeds the length field"
        );
        let h = &mut buf[..HEADER_LEN];
        h[0] = 0x45;
        h[1] = 0;
        h[2..4].copy_from_slice(&(total as u16).to_be_bytes());
        h[4..8].fill(0);
        h[8] = self.ttl;
        h[9] = self.protocol.into();
        h[10..12].fill(0);
        h[12..16].copy_from_slice(&self.src.octets());
        h[16..20].copy_from_slice(&self.dst.octets());
        let c = checksum::checksum(h);
        h[10..12].copy_from_slice(&c.to_be_bytes());
    }

    /// Serialize header + payload into a fresh buffer.
    pub fn build(&self, payload: &[u8]) -> Vec<u8> {
        debug_assert_eq!(self.payload_len, payload.len());
        let mut buf = [&[0; HEADER_LEN][..], payload].concat();
        self.emit(&mut buf);
        buf
    }
}

/// An IPv4 CIDR block, used for the LAN subnet and routing decisions.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Cidr {
    /// Address.
    pub address: Ipv4Addr,
    /// Prefix length.
    pub prefix_len: u8,
}

impl Cidr {
    /// Construct; prefix length must be ≤ 32.
    pub fn new(address: Ipv4Addr, prefix_len: u8) -> Cidr {
        assert!(prefix_len <= 32, "ipv4 prefix length out of range");
        Cidr {
            address,
            prefix_len,
        }
    }

    /// Does `addr` fall inside this block?
    pub fn contains(&self, addr: Ipv4Addr) -> bool {
        if self.prefix_len == 0 {
            return true;
        }
        let mask = u32::MAX << (32 - u32::from(self.prefix_len));
        (u32::from(self.address) & mask) == (u32::from(addr) & mask)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn repr() -> Repr {
        Repr {
            src: Ipv4Addr::new(192, 168, 1, 10),
            dst: Ipv4Addr::new(8, 8, 8, 8),
            protocol: Protocol::Udp,
            ttl: 64,
            payload_len: 4,
        }
    }

    #[test]
    fn roundtrip() {
        let bytes = repr().build(b"data");
        let p = Packet::new_checked(&bytes[..]).unwrap();
        assert_eq!(Repr::parse(&p), repr());
        assert_eq!(p.payload(), b"data");
    }

    #[test]
    fn corrupted_checksum_is_rejected() {
        let mut bytes = repr().build(b"data");
        bytes[12] ^= 0xff;
        assert_eq!(
            Packet::new_checked(&bytes[..]).unwrap_err(),
            Error::BadChecksum
        );
    }

    #[test]
    fn rejects_wrong_version_and_truncation() {
        let mut bytes = repr().build(b"data");
        bytes[0] = 0x65;
        assert_eq!(
            Packet::new_checked(&bytes[..]).unwrap_err(),
            Error::Malformed
        );
        let bytes = repr().build(b"data");
        assert_eq!(
            Packet::new_checked(&bytes[..10]).unwrap_err(),
            Error::Truncated
        );
    }

    #[test]
    fn payload_respects_total_length() {
        // Frame padding past total_len must not leak into payload().
        let mut bytes = repr().build(b"data");
        bytes.extend_from_slice(&[0u8; 12]); // ethernet-style padding
        let p = Packet::new_checked(&bytes[..]).unwrap();
        assert_eq!(p.payload(), b"data");
    }

    #[test]
    fn cidr_contains() {
        let lan = Cidr::new(Ipv4Addr::new(192, 168, 1, 0), 24);
        assert!(lan.contains(Ipv4Addr::new(192, 168, 1, 200)));
        assert!(!lan.contains(Ipv4Addr::new(192, 168, 2, 1)));
        assert!(Cidr::new(Ipv4Addr::UNSPECIFIED, 0).contains(Ipv4Addr::new(8, 8, 8, 8)));
    }

    #[test]
    fn protocol_mapping_roundtrip() {
        for v in [1u8, 2, 6, 17, 41, 58, 99] {
            assert_eq!(u8::from(Protocol::from(v)), v);
        }
    }
}
