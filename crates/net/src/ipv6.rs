//! IPv6 headers (RFC 8200) and the address taxonomy from RFC 4291 that the
//! paper's entire analysis is built on: Global Unicast Addresses (GUA),
//! Unique Local Addresses (ULA), Link-Local Addresses (LLA), multicast
//! scopes, and EUI-64 interface-identifier detection.

use crate::error::{Error, Result};
use crate::ipv4::Protocol;
use crate::mac::Mac;
use serde::{Deserialize, Serialize};
use std::net::Ipv6Addr;

/// Fixed IPv6 header length.
pub const HEADER_LEN: usize = 40;

/// The address classes the paper distinguishes (Table 1, Table 5).
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, PartialOrd, Ord, Serialize, Deserialize)]
pub enum AddressKind {
    /// Globally-routable unicast (2000::/3).
    Global,
    /// Unique local address (fc00::/7), used by Matter/HomeKit fabrics.
    UniqueLocal,
    /// Link-local (fe80::/10).
    LinkLocal,
    /// Multicast (ff00::/8).
    Multicast,
    /// The unspecified address `::` used during DAD and pre-configuration.
    Unspecified,
    /// Loopback `::1`.
    Loopback,
    /// Anything else (reserved ranges, v4-mapped, ...).
    Other,
}

/// Extension trait giving `std::net::Ipv6Addr` the classification operations
/// the measurement pipeline needs.
pub trait Ipv6AddrExt {
    /// Classify per RFC 4291.
    fn kind(&self) -> AddressKind;
    /// Is this a GUA (2000::/3)?
    fn is_global_unicast(&self) -> bool;
    /// Is this a ULA (fc00::/7)?
    fn is_unique_local(&self) -> bool;
    /// Is this an LLA (fe80::/10)?
    fn is_link_local(&self) -> bool;
    /// Does the interface identifier carry the modified-EUI-64 `ff:fe`
    /// marker, i.e. does it embed a MAC address?
    fn is_eui64(&self) -> bool;
    /// Recover the embedded MAC if [`Ipv6AddrExt::is_eui64`].
    fn eui64_mac(&self) -> Option<Mac>;
    /// The low 64 bits.
    fn interface_id(&self) -> u64;
    /// The solicited-node multicast address (ff02::1:ffXX:XXXX) for this
    /// unicast address, used by DAD and address resolution.
    fn solicited_node(&self) -> Ipv6Addr;
    /// The /64 prefix with a zeroed interface identifier.
    fn prefix64(&self) -> Ipv6Addr;
}

impl Ipv6AddrExt for Ipv6Addr {
    fn kind(&self) -> AddressKind {
        let o = self.octets();
        if self.is_unspecified() {
            AddressKind::Unspecified
        } else if self.is_loopback() {
            AddressKind::Loopback
        } else if o[0] == 0xff {
            AddressKind::Multicast
        } else if o[0] == 0xfe && (o[1] & 0xc0) == 0x80 {
            AddressKind::LinkLocal
        } else if (o[0] & 0xfe) == 0xfc {
            AddressKind::UniqueLocal
        } else if (o[0] & 0xe0) == 0x20 {
            AddressKind::Global
        } else {
            AddressKind::Other
        }
    }

    fn is_global_unicast(&self) -> bool {
        self.kind() == AddressKind::Global
    }

    fn is_unique_local(&self) -> bool {
        self.kind() == AddressKind::UniqueLocal
    }

    fn is_link_local(&self) -> bool {
        self.kind() == AddressKind::LinkLocal
    }

    fn is_eui64(&self) -> bool {
        let o = self.octets();
        matches!(
            self.kind(),
            AddressKind::Global | AddressKind::UniqueLocal | AddressKind::LinkLocal
        ) && o[11] == 0xff
            && o[12] == 0xfe
    }

    fn eui64_mac(&self) -> Option<Mac> {
        if !self.is_eui64() {
            return None;
        }
        let o = self.octets();
        let mut iid = [0u8; 8];
        iid.copy_from_slice(&o[8..]);
        Mac::from_eui64(&iid)
    }

    fn interface_id(&self) -> u64 {
        let o = self.octets();
        u64::from_be_bytes(o[8..16].try_into().unwrap())
    }

    fn solicited_node(&self) -> Ipv6Addr {
        let o = self.octets();
        Ipv6Addr::new(
            0xff02,
            0,
            0,
            0,
            0,
            1,
            0xff00 | u16::from(o[13]),
            u16::from_be_bytes([o[14], o[15]]),
        )
    }

    fn prefix64(&self) -> Ipv6Addr {
        let mut o = self.octets();
        o[8..].fill(0);
        Ipv6Addr::from(o)
    }
}

/// Well-known multicast groups used by NDP and MDNS.
pub mod mcast {
    use std::net::Ipv6Addr;

    /// ff02::1 — all nodes on link.
    pub const ALL_NODES: Ipv6Addr = Ipv6Addr::new(0xff02, 0, 0, 0, 0, 0, 0, 1);
    /// ff02::2 — all routers on link.
    pub const ALL_ROUTERS: Ipv6Addr = Ipv6Addr::new(0xff02, 0, 0, 0, 0, 0, 0, 2);
    /// ff02::fb — mDNS.
    pub const MDNS: Ipv6Addr = Ipv6Addr::new(0xff02, 0, 0, 0, 0, 0, 0, 0xfb);
    /// ff02::1:2 — All_DHCP_Relay_Agents_and_Servers.
    pub const DHCPV6_SERVERS: Ipv6Addr = Ipv6Addr::new(0xff02, 0, 0, 0, 0, 0, 1, 2);
}

/// A view over an IPv6 packet.
#[derive(Debug)]
pub struct Packet<T: AsRef<[u8]>> {
    buffer: T,
}

impl<T: AsRef<[u8]>> Packet<T> {
    /// Wrap a buffer after validating version and payload length.
    pub fn new_checked(buffer: T) -> Result<Packet<T>> {
        Packet::new_checked_with_tail(buffer, 0)
    }

    /// Wrap the front of a packet that continues `tail` bytes past
    /// `buffer` (one that ends in a [`Run`](crate::Run)): the header must
    /// lie in `buffer`, the payload length is checked against
    /// `buffer.len() + tail`, and [`Packet::payload`] returns the part of
    /// the payload in `buffer`.
    pub fn new_checked_with_tail(buffer: T, tail: usize) -> Result<Packet<T>> {
        let b = buffer.as_ref();
        if b.len() < HEADER_LEN {
            return Err(Error::Truncated);
        }
        if b[0] >> 4 != 6 {
            return Err(Error::Malformed);
        }
        let plen = usize::from(u16::from_be_bytes([b[4], b[5]]));
        if b.len() + tail < HEADER_LEN + plen {
            return Err(Error::Truncated);
        }
        Ok(Packet { buffer })
    }

    /// Wrap without checking.
    pub fn new_unchecked(buffer: T) -> Packet<T> {
        Packet { buffer }
    }

    /// Payload length field.
    pub fn payload_len(&self) -> u16 {
        let b = self.buffer.as_ref();
        u16::from_be_bytes([b[4], b[5]])
    }

    /// Next header (we do not emit extension headers; the hop-by-hop case
    /// is handled during parse by [`crate::parse`]).
    pub fn next_header(&self) -> Protocol {
        self.buffer.as_ref()[6].into()
    }

    /// Hop limit.
    pub fn hop_limit(&self) -> u8 {
        self.buffer.as_ref()[7]
    }

    /// Source address.
    pub fn src(&self) -> Ipv6Addr {
        let mut o = [0u8; 16];
        o.copy_from_slice(&self.buffer.as_ref()[8..24]);
        Ipv6Addr::from(o)
    }

    /// Destination address.
    pub fn dst(&self) -> Ipv6Addr {
        let mut o = [0u8; 16];
        o.copy_from_slice(&self.buffer.as_ref()[24..40]);
        Ipv6Addr::from(o)
    }
}

impl<'a, T: AsRef<[u8]> + ?Sized> Packet<&'a T> {
    /// The layer-4 payload (bounded by the payload-length field),
    /// borrowed for as long as the buffer.
    pub fn payload(&self) -> &'a [u8] {
        let b = self.buffer.as_ref();
        &b[HEADER_LEN..(HEADER_LEN + usize::from(self.payload_len())).min(b.len())]
    }
}

/// Owned representation of an IPv6 header.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Repr {
    /// Source.
    pub src: Ipv6Addr,
    /// Destination.
    pub dst: Ipv6Addr,
    /// Next header.
    pub next_header: Protocol,
    /// Hop limit.
    pub hop_limit: u8,
    /// Payload length.
    pub payload_len: usize,
}

impl Repr {
    /// Parse from a checked view.
    pub fn parse<T: AsRef<[u8]>>(packet: &Packet<T>) -> Repr {
        Repr {
            src: packet.src(),
            dst: packet.dst(),
            next_header: packet.next_header(),
            hop_limit: packet.hop_limit(),
            payload_len: usize::from(packet.payload_len()),
        }
    }

    /// Write this header into the front of `buf`, ahead of the
    /// `payload_len` bytes the caller places at `buf[HEADER_LEN..]`.
    /// Traffic class and flow label are zero.
    ///
    /// # Panics
    /// Payloads beyond the 16-bit payload-length field are a caller bug
    /// (the simulator segments transport data well below this).
    pub fn emit(&self, buf: &mut [u8]) {
        assert!(
            self.payload_len <= usize::from(u16::MAX),
            "ipv6 payload {} exceeds the length field",
            self.payload_len
        );
        let h = &mut buf[..HEADER_LEN];
        h[0..4].copy_from_slice(&[0x60, 0, 0, 0]);
        h[4..6].copy_from_slice(&(self.payload_len as u16).to_be_bytes());
        h[6] = self.next_header.into();
        h[7] = self.hop_limit;
        h[8..24].copy_from_slice(&self.src.octets());
        h[24..40].copy_from_slice(&self.dst.octets());
    }

    /// Serialize header + payload into a fresh buffer.
    pub fn build(&self, payload: &[u8]) -> Vec<u8> {
        debug_assert_eq!(self.payload_len, payload.len());
        let mut buf = [&[0; HEADER_LEN][..], payload].concat();
        self.emit(&mut buf);
        buf
    }
}

/// An IPv6 CIDR block.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Cidr {
    /// Address.
    pub address: Ipv6Addr,
    /// Prefix length.
    pub prefix_len: u8,
}

impl Cidr {
    /// Construct; prefix length must be ≤ 128.
    pub fn new(address: Ipv6Addr, prefix_len: u8) -> Cidr {
        assert!(prefix_len <= 128, "ipv6 prefix length out of range");
        Cidr {
            address,
            prefix_len,
        }
    }

    /// Does `addr` fall inside this block?
    pub fn contains(&self, addr: Ipv6Addr) -> bool {
        let p = u128::from(self.address);
        let a = u128::from(addr);
        if self.prefix_len == 0 {
            return true;
        }
        let mask = u128::MAX << (128 - u32::from(self.prefix_len));
        (p & mask) == (a & mask)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn addr(s: &str) -> Ipv6Addr {
        s.parse().unwrap()
    }

    #[test]
    fn address_kinds() {
        assert_eq!(addr("2001:db8::1").kind(), AddressKind::Global);
        assert_eq!(addr("2600:1700:abc::5").kind(), AddressKind::Global);
        assert_eq!(addr("fd00:1234::1").kind(), AddressKind::UniqueLocal);
        assert_eq!(addr("fc01::9").kind(), AddressKind::UniqueLocal);
        assert_eq!(addr("fe80::1").kind(), AddressKind::LinkLocal);
        assert_eq!(addr("ff02::1").kind(), AddressKind::Multicast);
        assert_eq!(addr("::").kind(), AddressKind::Unspecified);
        assert_eq!(addr("::1").kind(), AddressKind::Loopback);
        assert_eq!(addr("::ffff:1.2.3.4").kind(), AddressKind::Other);
    }

    #[test]
    fn febf_is_still_link_local_but_fec0_is_not() {
        assert!(addr("febf::1").is_link_local());
        assert_eq!(addr("fec0::1").kind(), AddressKind::Other);
    }

    #[test]
    fn eui64_detection_and_mac_recovery() {
        let mac = Mac::new(0xc0, 0xff, 0x4d, 0x2e, 0x1a, 0x2b);
        let gua = mac.slaac_address(addr("2001:db8:1::"));
        assert!(gua.is_eui64());
        assert_eq!(gua.eui64_mac(), Some(mac));
        // A privacy-extension (random IID) address is not EUI-64.
        assert!(!addr("2001:db8:1::5a31:9c2e:11d0:77ab").is_eui64());
        // Multicast can never be EUI-64 even with the marker bytes.
        assert!(!addr("ff02::1:ff00:0").is_eui64());
    }

    #[test]
    fn solicited_node_mapping() {
        assert_eq!(
            addr("fe80::c2ff:4dff:fe2e:1a2b").solicited_node(),
            addr("ff02::1:ff2e:1a2b")
        );
    }

    #[test]
    fn prefix64_zeroes_iid() {
        assert_eq!(
            addr("2001:db8:1:2:aaaa:bbbb:cccc:dddd").prefix64(),
            addr("2001:db8:1:2::")
        );
    }

    #[test]
    fn header_roundtrip() {
        let r = Repr {
            src: addr("fe80::1"),
            dst: addr("ff02::1"),
            next_header: Protocol::Icmpv6,
            hop_limit: 255,
            payload_len: 3,
        };
        let bytes = r.build(b"abc");
        let p = Packet::new_checked(&bytes[..]).unwrap();
        assert_eq!(Repr::parse(&p), r);
        assert_eq!(p.payload(), b"abc");
    }

    #[test]
    fn rejects_bad_version_and_truncation() {
        let r = Repr {
            src: addr("::1"),
            dst: addr("::1"),
            next_header: Protocol::Udp,
            hop_limit: 64,
            payload_len: 0,
        };
        let mut bytes = r.build(b"");
        bytes[0] = 0x40;
        assert_eq!(
            Packet::new_checked(&bytes[..]).unwrap_err(),
            Error::Malformed
        );
        let bytes = r.build(b"");
        assert_eq!(
            Packet::new_checked(&bytes[..30]).unwrap_err(),
            Error::Truncated
        );
    }

    #[test]
    fn payload_respects_declared_length() {
        let r = Repr {
            src: addr("::1"),
            dst: addr("::1"),
            next_header: Protocol::Udp,
            hop_limit: 64,
            payload_len: 2,
        };
        let mut bytes = r.build(b"hi");
        bytes.extend_from_slice(&[0u8; 8]);
        let p = Packet::new_checked(&bytes[..]).unwrap();
        assert_eq!(p.payload(), b"hi");
    }

    #[test]
    fn cidr_contains() {
        let c = Cidr::new(addr("2001:db8:1::"), 64);
        assert!(c.contains(addr("2001:db8:1:0:1:2:3:4")));
        assert!(!c.contains(addr("2001:db8:2::1")));
        assert!(Cidr::new(addr("::"), 0).contains(addr("2001::1")));
    }
}
