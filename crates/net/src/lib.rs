#![warn(missing_docs)]
//! # v6brick-net — wire formats
//!
//! Typed, checked packet views and owned representations for every protocol
//! the IMC'24 smart-home testbed exchanges on the wire:
//!
//! * Layer 2: Ethernet II ([`ethernet`]), ARP ([`arp`]), IEEE 802.15.4
//!   data frames ([`ieee802154`]) with the 6LoWPAN adaptation layer
//!   ([`sixlowpan`]: RFC 6282 IPHC/NHC compression, RFC 4944 fragmentation)
//! * Layer 3: IPv4 ([`ipv4`]), IPv6 ([`ipv6`]) with the full address
//!   taxonomy the paper relies on (GUA / ULA / LLA, EUI-64 detection)
//! * Layer 4: UDP ([`udp`]), TCP ([`tcp`])
//! * Control: ICMPv4 ([`icmpv4`]), ICMPv6 + NDP ([`icmpv6`], [`ndp`])
//! * Configuration: DHCPv4 ([`dhcpv4`]), DHCPv6 ([`dhcpv6`])
//! * Naming: DNS ([`dns`]) with A / AAAA / HTTPS / SVCB / SOA records and
//!   name compression
//!
//! The design follows the smoltcp idiom: a `Packet<T: AsRef<[u8]>>` view with
//! a `new_checked` constructor validates structure once, after which field
//! accessors are infallible; `Packet<T: AsMut<[u8]>>` emits in place. Each
//! protocol also offers an owned `Repr` ("representation") that parses from
//! and emits into a view, which is what the simulator and analysis pipeline
//! use day to day.
//!
//! ```
//! use v6brick_net::ipv6::Ipv6AddrExt;
//! use std::net::Ipv6Addr;
//!
//! // The paper's privacy finding hinges on EUI-64 detection:
//! let a: Ipv6Addr = "2001:db8::c2ff:4dff:fe2e:1a2b".parse().unwrap();
//! assert!(a.is_eui64());
//! assert_eq!(a.eui64_mac().unwrap().to_string(), "c0:ff:4d:2e:1a:2b");
//! ```

pub mod arp;
pub mod checksum;
pub mod dhcpv4;
pub mod dhcpv6;
pub mod dns;
pub mod error;
pub mod ethernet;
pub mod icmpv4;
pub mod icmpv6;
pub mod ieee802154;
pub mod ipv4;
pub mod ipv6;
pub mod mac;
pub mod ndp;
pub mod parse;
pub mod run;
pub mod sixlowpan;
pub mod tcp;
pub mod tls;
pub mod udp;

pub use error::{Error, Result};
pub use mac::Mac;
pub use parse::{ParsedPacket, L4};
pub use run::Run;
