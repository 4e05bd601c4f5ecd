//! TCP segments (RFC 9293).
//!
//! The simulator implements enough of TCP for the study's needs: the
//! three-way handshake, in-order data transfer, FIN teardown, and — for the
//! active port scans — the SYN → SYN/ACK (open) vs SYN → RST (closed)
//! distinction nmap relies on.

use crate::checksum::Checksum;
use crate::error::{Error, Result};
use crate::run::Run;
use std::fmt;
use std::net::{Ipv4Addr, Ipv6Addr};

/// Minimum TCP header length (no options).
pub const HEADER_LEN: usize = 20;

/// Tiny internal helper replicating the parts of the `bitflags` crate we
/// need, keeping the dependency set to the approved list.
macro_rules! bitflags_like {
    (
        $(#[$meta:meta])*
        pub struct $name:ident(u8) {
            $($flag:ident = $value:expr,)*
        }
    ) => {
        $(#[$meta])*
        #[derive(Clone, Copy, PartialEq, Eq, Hash, Default)]
        pub struct $name(pub u8);

        impl $name {
            /// Item.
            $(
                #[doc = concat!("The ", stringify!($flag), " flag bit.")]
                pub const $flag: $name = $name($value);
            )*

            /// No flags set.
            pub const fn empty() -> $name { $name(0) }

            /// Does `self` contain every bit of `other`?
            pub const fn contains(self, other: $name) -> bool {
                self.0 & other.0 == other.0
            }

            /// Union.
            pub const fn union(self, other: $name) -> $name {
                $name(self.0 | other.0)
            }
        }

        impl std::ops::BitOr for $name {
            type Output = $name;
            fn bitor(self, other: $name) -> $name { self.union(other) }
        }

        impl fmt::Debug for $name {
            fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
                let mut first = true;
                $(
                    if self.contains($name::$flag) {
                        if !first { write!(f, "|")?; }
                        write!(f, stringify!($flag))?;
                        first = false;
                    }
                )*
                if first { write!(f, "(none)")?; }
                Ok(())
            }
        }
    };
}

bitflags_like! {
    /// TCP flag bits.
    pub struct Flags(u8) {
        FIN = 0x01,
        SYN = 0x02,
        RST = 0x04,
        PSH = 0x08,
        ACK = 0x10,
    }
}

/// A view over a TCP segment.
#[derive(Debug)]
pub struct Packet<T: AsRef<[u8]>> {
    buffer: T,
}

impl<T: AsRef<[u8]>> Packet<T> {
    /// Wrap a buffer after validating length and data offset.
    pub fn new_checked(buffer: T) -> Result<Packet<T>> {
        let b = buffer.as_ref();
        if b.len() < HEADER_LEN {
            return Err(Error::Truncated);
        }
        let off = usize::from(b[12] >> 4) * 4;
        if off < HEADER_LEN || b.len() < off {
            return Err(Error::Malformed);
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

    /// Sequence number.
    pub fn seq(&self) -> u32 {
        let b = self.buffer.as_ref();
        u32::from_be_bytes([b[4], b[5], b[6], b[7]])
    }

    /// Acknowledgement number.
    pub fn ack(&self) -> u32 {
        let b = self.buffer.as_ref();
        u32::from_be_bytes([b[8], b[9], b[10], b[11]])
    }

    /// Flag bits.
    pub fn flags(&self) -> Flags {
        Flags(self.buffer.as_ref()[13] & 0x1f)
    }

    /// Receive window.
    pub fn window(&self) -> u16 {
        let b = self.buffer.as_ref();
        u16::from_be_bytes([b[14], b[15]])
    }

    fn data_offset(&self) -> usize {
        usize::from(self.buffer.as_ref()[12] >> 4) * 4
    }

    /// Verify the checksum under an IPv6 pseudo-header.
    pub fn verify_checksum_v6(&self, src: Ipv6Addr, dst: Ipv6Addr) -> bool {
        let b = self.buffer.as_ref();
        let mut c = Checksum::new();
        c.add_ipv6_pseudo(src, dst, 6, b.len() as u32);
        c.add(b);
        c.finish() == 0
    }

    /// Verify the checksum under an IPv4 pseudo-header.
    pub fn verify_checksum_v4(&self, src: Ipv4Addr, dst: Ipv4Addr) -> bool {
        let b = self.buffer.as_ref();
        let mut c = Checksum::new();
        c.add_ipv4_pseudo(src, dst, 6, b.len() as u16);
        c.add(b);
        c.finish() == 0
    }
}

impl<'a, T: AsRef<[u8]> + ?Sized> Packet<&'a T> {
    /// Application payload, borrowed for as long as the buffer.
    pub fn payload(&self) -> &'a [u8] {
        &self.buffer.as_ref()[self.data_offset()..]
    }
}

/// Owned representation of a TCP segment.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Repr {
    /// Source port.
    pub src_port: u16,
    /// Destination port.
    pub dst_port: u16,
    /// Sequence number.
    pub seq: u32,
    /// Acknowledgement number.
    pub ack: u32,
    /// Flags.
    pub flags: Flags,
    /// Window.
    pub window: u16,
    /// Payload.
    pub payload: Vec<u8>,
}

/// Which pseudo-header to checksum against.
pub use crate::udp::PseudoHeader;

impl Repr {
    /// Parse from a checked view, copying the payload.
    pub fn parse<T: AsRef<[u8]>>(packet: &Packet<T>) -> Repr {
        Repr {
            src_port: packet.src_port(),
            dst_port: packet.dst_port(),
            seq: packet.seq(),
            ack: packet.ack(),
            flags: packet.flags(),
            window: packet.window(),
            payload: packet.buffer.as_ref()[packet.data_offset()..].to_vec(),
        }
    }

    /// Parse straight from bytes.
    pub fn parse_bytes(bytes: &[u8]) -> Result<Repr> {
        Ok(Repr::parse(&Packet::new_checked(bytes)?))
    }

    /// Write this header into the front of `buf` and checksum the
    /// segment against `ph`. The segment is `buf` followed by `run`: the
    /// rest of `buf` is the payload's front, already in place
    /// (`self.payload` is not read: the caller copies the payload, and
    /// [`Repr::build`] copies `self.payload`). The header is always a
    /// fresh option-less one with a zero urgent pointer.
    pub fn emit(&self, buf: &mut [u8], run: Run, ph: PseudoHeader) {
        buf[0..2].copy_from_slice(&self.src_port.to_be_bytes());
        buf[2..4].copy_from_slice(&self.dst_port.to_be_bytes());
        buf[4..8].copy_from_slice(&self.seq.to_be_bytes());
        buf[8..12].copy_from_slice(&self.ack.to_be_bytes());
        buf[12] = ((HEADER_LEN / 4) as u8) << 4;
        buf[13] = self.flags.0;
        buf[14..16].copy_from_slice(&self.window.to_be_bytes());
        buf[16..20].fill(0);
        let sum = ph.checksum(6, buf, run);
        buf[16..18].copy_from_slice(&sum.to_be_bytes());
    }

    /// Serialize with the checksum computed against `ph`.
    pub fn build(&self, ph: PseudoHeader) -> Vec<u8> {
        let mut buf = [&[0; HEADER_LEN][..], &self.payload].concat();
        self.emit(&mut buf, Run::default(), ph);
        buf
    }

    /// A bare SYN to open (or scan) `dst_port`.
    pub fn syn(src_port: u16, dst_port: u16, seq: u32) -> Repr {
        Repr {
            src_port,
            dst_port,
            seq,
            ack: 0,
            flags: Flags::SYN,
            window: 0xffff,
            payload: Vec::new(),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn roundtrip_with_checksum() {
        let src: Ipv6Addr = "2001:db8::1".parse().unwrap();
        let dst: Ipv6Addr = "2001:db8::2".parse().unwrap();
        let r = Repr {
            src_port: 40000,
            dst_port: 443,
            seq: 12345,
            ack: 67890,
            flags: Flags::PSH | Flags::ACK,
            window: 64240,
            payload: b"tls".to_vec(),
        };
        let bytes = r.build(PseudoHeader::V6 { src, dst });
        let p = Packet::new_checked(&bytes[..]).unwrap();
        assert!(p.verify_checksum_v6(src, dst));
        assert_eq!(Repr::parse(&p), r);
    }

    #[test]
    fn syn_shape() {
        let syn = Repr::syn(55555, 37993, 7);
        assert!(syn.flags.contains(Flags::SYN));
        assert!(!syn.flags.contains(Flags::ACK));
        assert_eq!((syn.src_port, syn.dst_port, syn.seq), (55555, 37993, 7));
    }

    #[test]
    fn flags_debug_rendering() {
        assert_eq!(format!("{:?}", Flags::SYN | Flags::ACK), "SYN|ACK");
        assert_eq!(format!("{:?}", Flags::empty()), "(none)");
    }

    #[test]
    fn bad_data_offset_rejected() {
        let r = Repr::syn(1, 2, 0);
        let mut bytes = r.build(PseudoHeader::V4 {
            src: Ipv4Addr::UNSPECIFIED,
            dst: Ipv4Addr::UNSPECIFIED,
        });
        bytes[12] = 0x30; // data offset 12 bytes < 20
        assert_eq!(
            Packet::new_checked(&bytes[..]).unwrap_err(),
            Error::Malformed
        );
        bytes[12] = 0xf0; // data offset 60 bytes > buffer
        assert_eq!(
            Packet::new_checked(&bytes[..]).unwrap_err(),
            Error::Malformed
        );
    }

    #[test]
    fn v4_checksum_verifies() {
        let src = Ipv4Addr::new(192, 168, 1, 5);
        let dst = Ipv4Addr::new(93, 184, 216, 34);
        let bytes = Repr::syn(1000, 80, 1).build(PseudoHeader::V4 { src, dst });
        let p = Packet::new_checked(&bytes[..]).unwrap();
        assert!(p.verify_checksum_v4(src, dst));
        // A different address (not a src/dst swap, which the commutative
        // sum cannot detect) must fail.
        assert!(!p.verify_checksum_v4(src, Ipv4Addr::new(1, 1, 1, 1)));
    }
}
