//! Ethernet II framing.

use crate::error::{Error, Result};
use crate::mac::Mac;
use std::fmt;

/// The EtherType values the testbed produces.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum EtherType {
    /// Ipv4.
    Ipv4,
    /// Arp.
    Arp,
    /// Ipv6.
    Ipv6,
    /// Anything else, preserved verbatim.
    Other(u16),
}

impl From<u16> for EtherType {
    fn from(v: u16) -> EtherType {
        match v {
            0x0800 => EtherType::Ipv4,
            0x0806 => EtherType::Arp,
            0x86dd => EtherType::Ipv6,
            other => EtherType::Other(other),
        }
    }
}

impl From<EtherType> for u16 {
    fn from(v: EtherType) -> u16 {
        match v {
            EtherType::Ipv4 => 0x0800,
            EtherType::Arp => 0x0806,
            EtherType::Ipv6 => 0x86dd,
            EtherType::Other(o) => o,
        }
    }
}

impl fmt::Display for EtherType {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            EtherType::Ipv4 => write!(f, "IPv4"),
            EtherType::Arp => write!(f, "ARP"),
            EtherType::Ipv6 => write!(f, "IPv6"),
            EtherType::Other(o) => write!(f, "0x{o:04x}"),
        }
    }
}

/// Length of the Ethernet II header.
pub const HEADER_LEN: usize = 14;

/// A view over an Ethernet II frame.
#[derive(Debug, Clone)]
pub struct Frame<T: AsRef<[u8]>> {
    buffer: T,
}

impl<T: AsRef<[u8]>> Frame<T> {
    /// Wrap a buffer after verifying it can hold the header.
    pub fn new_checked(buffer: T) -> Result<Frame<T>> {
        if buffer.as_ref().len() < HEADER_LEN {
            return Err(Error::Truncated);
        }
        Ok(Frame { buffer })
    }

    /// Wrap without checking; accessors may panic on short buffers.
    pub fn new_unchecked(buffer: T) -> Frame<T> {
        Frame { buffer }
    }

    /// Consume the view, returning the underlying buffer.
    pub fn into_inner(self) -> T {
        self.buffer
    }

    /// Destination MAC.
    pub fn dst(&self) -> Mac {
        Mac::from_slice(&self.buffer.as_ref()[0..6]).unwrap()
    }

    /// Source MAC.
    pub fn src(&self) -> Mac {
        Mac::from_slice(&self.buffer.as_ref()[6..12]).unwrap()
    }

    /// EtherType.
    pub fn ethertype(&self) -> EtherType {
        let b = self.buffer.as_ref();
        u16::from_be_bytes([b[12], b[13]]).into()
    }
}

impl<'a, T: AsRef<[u8]> + ?Sized> Frame<&'a T> {
    /// The layer-3 payload, borrowed for as long as the buffer.
    pub fn payload(&self) -> &'a [u8] {
        &self.buffer.as_ref()[HEADER_LEN..]
    }
}

impl<T: AsRef<[u8]> + AsMut<[u8]>> Frame<T> {
    /// Set the destination MAC.
    pub fn set_dst(&mut self, mac: Mac) {
        self.buffer.as_mut()[0..6].copy_from_slice(mac.as_bytes());
    }

    /// Set the source MAC.
    pub fn set_src(&mut self, mac: Mac) {
        self.buffer.as_mut()[6..12].copy_from_slice(mac.as_bytes());
    }

    /// Set the EtherType.
    pub fn set_ethertype(&mut self, ty: EtherType) {
        self.buffer.as_mut()[12..14].copy_from_slice(&u16::from(ty).to_be_bytes());
    }

    /// Mutable access to the payload.
    pub fn payload_mut(&mut self) -> &mut [u8] {
        &mut self.buffer.as_mut()[HEADER_LEN..]
    }
}

/// Owned representation of a frame header.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Repr {
    /// Source.
    pub src: Mac,
    /// Destination.
    pub dst: Mac,
    /// Ethertype.
    pub ethertype: EtherType,
}

impl Repr {
    /// Parse the header of a checked frame.
    pub fn parse<T: AsRef<[u8]>>(frame: &Frame<T>) -> Repr {
        Repr {
            src: frame.src(),
            dst: frame.dst(),
            ethertype: frame.ethertype(),
        }
    }

    /// Bytes needed to emit this header.
    pub const fn buffer_len(&self) -> usize {
        HEADER_LEN
    }

    /// Emit into the header portion of a frame.
    pub fn emit<T: AsRef<[u8]> + AsMut<[u8]>>(&self, frame: &mut Frame<T>) {
        frame.set_src(self.src);
        frame.set_dst(self.dst);
        frame.set_ethertype(self.ethertype);
    }

    /// Build a full frame: header plus payload, as a fresh vector.
    pub fn build(&self, payload: &[u8]) -> Vec<u8> {
        let mut buf = vec![0u8; HEADER_LEN + payload.len()];
        let mut f = Frame::new_unchecked(&mut buf[..]);
        self.emit(&mut f);
        f.payload_mut().copy_from_slice(payload);
        buf
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn sample() -> Vec<u8> {
        Repr {
            src: Mac::new(2, 2, 2, 2, 2, 2),
            dst: Mac::BROADCAST,
            ethertype: EtherType::Ipv6,
        }
        .build(b"payload")
    }

    #[test]
    fn roundtrip() {
        let buf = sample();
        let f = Frame::new_checked(&buf[..]).unwrap();
        assert_eq!(f.dst(), Mac::BROADCAST);
        assert_eq!(f.src(), Mac::new(2, 2, 2, 2, 2, 2));
        assert_eq!(f.ethertype(), EtherType::Ipv6);
        assert_eq!(f.payload(), b"payload");
    }

    #[test]
    fn checked_rejects_short_buffer() {
        assert_eq!(
            Frame::new_checked(&[0u8; 13][..]).unwrap_err(),
            Error::Truncated
        );
    }

    #[test]
    fn ethertype_mapping() {
        assert_eq!(u16::from(EtherType::Ipv4), 0x0800);
        assert_eq!(EtherType::from(0x86dd), EtherType::Ipv6);
        assert_eq!(EtherType::from(0x1234), EtherType::Other(0x1234));
        assert_eq!(u16::from(EtherType::Other(0x1234)), 0x1234);
    }

    #[test]
    fn repr_parse_matches_build() {
        let buf = sample();
        let f = Frame::new_checked(&buf[..]).unwrap();
        let r = Repr::parse(&f);
        assert_eq!(r.ethertype, EtherType::Ipv6);
        assert_eq!(r.buffer_len(), HEADER_LEN);
    }
}
