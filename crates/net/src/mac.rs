//! IEEE 802 MAC addresses.
//!
//! MAC addresses matter to this study twice over: they are the layer-2
//! identity of every testbed device, and — via the EUI-64 expansion — they
//! leak into SLAAC IPv6 addresses on devices that skip privacy extensions
//! (the paper's §5.4.1 privacy finding).

use crate::error::{Error, Result};
use serde::{Deserialize, Serialize};
use std::cmp::Ordering;
use std::fmt;
use std::net::Ipv6Addr;
use std::str::FromStr;

/// A 48-bit IEEE 802 MAC address. Addresses order as their bytes do,
/// compared as one 48-bit big-endian integer.
#[derive(Clone, Copy, PartialEq, Eq, Hash, Serialize, Deserialize)]
pub struct Mac(pub [u8; 6]);

impl Mac {
    /// The broadcast address `ff:ff:ff:ff:ff:ff`.
    pub const BROADCAST: Mac = Mac([0xff; 6]);
    /// The all-zero address, used as a placeholder before assignment.
    pub const UNSPECIFIED: Mac = Mac([0; 6]);

    /// Byte-wise constructor.
    pub const fn new(b0: u8, b1: u8, b2: u8, b3: u8, b4: u8, b5: u8) -> Mac {
        Mac([b0, b1, b2, b3, b4, b5])
    }

    /// Parse from a 6-byte slice.
    pub fn from_slice(s: &[u8]) -> Result<Mac> {
        <[u8; 6]>::try_from(s)
            .map(Mac)
            .map_err(|_| Error::Malformed)
    }

    /// The address as a 48-bit big-endian integer.
    const fn to_u64(self) -> u64 {
        let [b0, b1, b2, b3, b4, b5] = self.0;
        u64::from_be_bytes([0, 0, b0, b1, b2, b3, b4, b5])
    }

    /// Raw bytes.
    pub const fn as_bytes(&self) -> &[u8; 6] {
        &self.0
    }

    /// True for group (multicast/broadcast) addresses: I/G bit set.
    pub const fn is_multicast(&self) -> bool {
        self.0[0] & 0x01 != 0
    }

    /// True for the all-ones broadcast address.
    pub fn is_broadcast(&self) -> bool {
        *self == Mac::BROADCAST
    }

    /// True for unicast addresses.
    pub const fn is_unicast(&self) -> bool {
        !self.is_multicast()
    }

    /// The 24-bit Organizationally Unique Identifier, which identifies the
    /// manufacturer — the paper notes EUI-64 addresses therefore leak the
    /// vendor as well as the device identity.
    pub const fn oui(&self) -> [u8; 3] {
        [self.0[0], self.0[1], self.0[2]]
    }

    /// Expand to the modified EUI-64 interface identifier used by SLAAC
    /// without privacy extensions (RFC 4291 §2.5.1): insert `ff:fe` in the
    /// middle and flip the U/L bit.
    pub const fn to_eui64(&self) -> [u8; 8] {
        [
            self.0[0] ^ 0x02,
            self.0[1],
            self.0[2],
            0xff,
            0xfe,
            self.0[3],
            self.0[4],
            self.0[5],
        ]
    }

    /// Build the IPv6 address `prefix::eui64` from a /64 prefix, i.e. the
    /// predictable SLAAC address the paper flags as a tracking risk.
    pub fn slaac_address(&self, prefix: Ipv6Addr) -> Ipv6Addr {
        let mut o = prefix.octets();
        o[8..].copy_from_slice(&self.to_eui64());
        Ipv6Addr::from(o)
    }

    /// Recover the MAC embedded in a modified EUI-64 interface identifier,
    /// if the `ff:fe` marker is present.
    pub fn from_eui64(iid: &[u8; 8]) -> Option<Mac> {
        if iid[3] == 0xff && iid[4] == 0xfe {
            Some(Mac([iid[0] ^ 0x02, iid[1], iid[2], iid[5], iid[6], iid[7]]))
        } else {
            None
        }
    }

    /// The layer-2 multicast address an IPv6 multicast destination maps to
    /// (RFC 2464 §7): `33:33` followed by the low 32 bits.
    pub const fn for_ipv6_multicast(dst: Ipv6Addr) -> Mac {
        let o = dst.octets();
        Mac([0x33, 0x33, o[12], o[13], o[14], o[15]])
    }
}

impl Ord for Mac {
    fn cmp(&self, other: &Mac) -> Ordering {
        self.to_u64().cmp(&other.to_u64())
    }
}

impl PartialOrd for Mac {
    fn partial_cmp(&self, other: &Mac) -> Option<Ordering> {
        Some(self.cmp(other))
    }
}

impl fmt::Display for Mac {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(
            f,
            "{:02x}:{:02x}:{:02x}:{:02x}:{:02x}:{:02x}",
            self.0[0], self.0[1], self.0[2], self.0[3], self.0[4], self.0[5]
        )
    }
}

impl fmt::Debug for Mac {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        fmt::Display::fmt(self, f)
    }
}

impl FromStr for Mac {
    type Err = Error;

    fn from_str(s: &str) -> Result<Mac> {
        let mut b = [0u8; 6];
        let mut parts = s.split(':');
        for slot in &mut b {
            let p = parts.next().ok_or(Error::Malformed)?;
            *slot = u8::from_str_radix(p, 16).map_err(|_| Error::Malformed)?;
        }
        if parts.next().is_some() {
            return Err(Error::Malformed);
        }
        Ok(Mac(b))
    }
}

impl From<[u8; 6]> for Mac {
    fn from(b: [u8; 6]) -> Mac {
        Mac(b)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn display_and_parse_roundtrip() {
        let m = Mac::new(0xc0, 0xff, 0x4d, 0x2e, 0x1a, 0x2b);
        assert_eq!(m.to_string(), "c0:ff:4d:2e:1a:2b");
        assert_eq!("c0:ff:4d:2e:1a:2b".parse::<Mac>().unwrap(), m);
    }

    #[test]
    fn parse_rejects_garbage() {
        assert!("c0:ff:4d".parse::<Mac>().is_err());
        assert!("c0:ff:4d:2e:1a:2b:00".parse::<Mac>().is_err());
        assert!("zz:ff:4d:2e:1a:2b".parse::<Mac>().is_err());
    }

    #[test]
    fn multicast_and_broadcast_bits() {
        assert!(Mac::BROADCAST.is_broadcast());
        assert!(Mac::BROADCAST.is_multicast());
        assert!(Mac::new(0x01, 0, 0x5e, 0, 0, 1).is_multicast());
        assert!(Mac::new(0xc0, 0, 0, 0, 0, 1).is_unicast());
    }

    #[test]
    fn eui64_expansion_flips_ul_bit_and_inserts_fffe() {
        let m = Mac::new(0xc0, 0xff, 0x4d, 0x2e, 0x1a, 0x2b);
        assert_eq!(
            m.to_eui64(),
            [0xc2, 0xff, 0x4d, 0xff, 0xfe, 0x2e, 0x1a, 0x2b]
        );
        assert_eq!(Mac::from_eui64(&m.to_eui64()), Some(m));
    }

    #[test]
    fn eui64_recovery_requires_fffe_marker() {
        assert_eq!(Mac::from_eui64(&[1, 2, 3, 4, 5, 6, 7, 8]), None);
    }

    #[test]
    fn slaac_address_composition() {
        let m = Mac::new(0xc0, 0xff, 0x4d, 0x2e, 0x1a, 0x2b);
        let a = m.slaac_address("2001:db8:1::".parse().unwrap());
        assert_eq!(
            a,
            "2001:db8:1::c2ff:4dff:fe2e:1a2b"
                .parse::<Ipv6Addr>()
                .unwrap()
        );
    }

    #[test]
    fn ipv6_multicast_mapping() {
        let all_nodes: Ipv6Addr = "ff02::1".parse().unwrap();
        assert_eq!(
            Mac::for_ipv6_multicast(all_nodes),
            Mac::new(0x33, 0x33, 0, 0, 0, 1)
        );
    }

    #[test]
    fn oui_is_first_three_bytes() {
        let m = Mac::new(0xc0, 0xff, 0x4d, 0x2e, 0x1a, 0x2b);
        assert_eq!(m.oui(), [0xc0, 0xff, 0x4d]);
    }
}
