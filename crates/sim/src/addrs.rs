//! Well-known addresses of the simulated testbed, mirroring §4.1.

use std::net::{Ipv4Addr, Ipv6Addr};
use v6brick_net::Mac;

/// The router's LAN-side MAC.
pub const ROUTER_MAC: Mac = Mac::new(0x02, 0x52, 0x54, 0x00, 0x00, 0x01);

/// The LAN IPv4 subnet is 192.168.1.0/24; the router is .1.
pub const ROUTER_IPV4: Ipv4Addr = Ipv4Addr::new(192, 168, 1, 1);

/// First address handed out by the DHCPv4 pool.
pub const DHCP4_POOL_START: u8 = 100;

/// The router's public (WAN) IPv4 address, behind which the LAN is NATed.
pub const ROUTER_WAN_IPV4: Ipv4Addr = Ipv4Addr::new(203, 0, 113, 50);

/// The 6in4 tunnel remote endpoint (the "Hurricane Electric" side).
pub const TUNNEL_REMOTE_IPV4: Ipv4Addr = Ipv4Addr::new(198, 51, 100, 1);

/// The router's link-local address.
pub const ROUTER_LLA: Ipv6Addr = Ipv6Addr::new(0xfe80, 0, 0, 0, 0, 0, 0, 1);

/// The routed /64 delegated through the tunnel and advertised on the LAN.
pub const LAN_PREFIX: Ipv6Addr = Ipv6Addr::new(0x2001, 0xdb8, 0x10, 0x1, 0, 0, 0, 0);

/// The router's GUA on the LAN prefix.
pub const ROUTER_GUA: Ipv6Addr = Ipv6Addr::new(0x2001, 0xdb8, 0x10, 0x1, 0, 0, 0, 1);

/// First interface-id handed out by the stateful DHCPv6 pool.
pub const DHCP6_POOL_START: u16 = 0xd000;

/// Google public DNS over IPv4 (the testbed's configured resolver).
pub const DNS4_PRIMARY: Ipv4Addr = Ipv4Addr::new(8, 8, 8, 8);
/// Google public DNS over IPv4, secondary.
pub const DNS4_SECONDARY: Ipv4Addr = Ipv4Addr::new(8, 8, 4, 4);
/// Google public DNS over IPv6.
pub const DNS6_PRIMARY: Ipv6Addr = Ipv6Addr::new(0x2001, 0x4860, 0x4860, 0, 0, 0, 0, 0x8888);
/// Google public DNS over IPv6, secondary.
pub const DNS6_SECONDARY: Ipv6Addr = Ipv6Addr::new(0x2001, 0x4860, 0x4860, 0, 0, 0, 0, 0x8844);

/// One-way LAN propagation delay.
pub const LAN_DELAY_US: u64 = 300;
/// One-way WAN propagation delay (LAN ↔ Internet).
pub const WAN_DELAY_US: u64 = 12_000;

/// The 6LoWPAN border router's Ethernet-side MAC.
pub const BORDER_ROUTER_MAC: Mac = Mac::new(0x02, 0x52, 0x54, 0x00, 0xb0, 0x01);

/// The 802.15.4 PAN identifier of the home's one mesh.
pub const MESH_PAN_ID: u16 = 0x6b42;

/// One CSMA backoff slot (the 802.15.4 aUnitBackoffPeriod: 20 symbols at
/// 62.5 ksymbol/s).
pub const MESH_SLOT_US: u64 = 320;

/// Air time per byte at the 2.4 GHz O-QPSK PHY's 250 kbit/s.
pub const MESH_US_PER_BYTE: u64 = 32;
