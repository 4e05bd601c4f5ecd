//! Address assignment and use: SLAAC announcements, DHCPv4/DHCPv6
//! exchanges, and which IPv6 sources are *active* (actually originate
//! traffic) — the Table 3/4 addressing observables.

use super::{AnalyzerPass, FrameClass, PassId, SharedFrameCtx};
use std::net::IpAddr;
use v6brick_net::icmpv6;
use v6brick_net::ndp::Repr as Ndp;
use v6brick_net::parse::{Net, ParsedPacket, L4};
use v6brick_net::{dhcpv4, dhcpv6};

/// See the module docs. Owns `announced_v6`, `active_v6`, `dhcpv4_used`,
/// `dhcpv6_stateless`, `dhcpv6_stateful`, and `dhcpv6_addrs`.
pub struct AddressingPass;

impl AnalyzerPass for AddressingPass {
    fn id(&self) -> PassId {
        PassId::Addressing
    }

    fn on_frame<'a>(&mut self, _ts: u64, p: &ParsedPacket<'a>, ctx: &mut SharedFrameCtx<'a>) {
        match ctx.class {
            FrameClass::Icmpv6 => {
                let (Net::Ipv6(ip), L4::Icmpv6(msg)) = (&p.net, &p.l4) else {
                    return;
                };
                let Some(i) = ctx.from else { return };
                match msg {
                    icmpv6::Repr::Ndp(ndp) => match ndp {
                        Ndp::NeighborSolicit { target, .. } if ip.src.is_unspecified() => {
                            // DAD probe: the target is being assigned.
                            ctx.state.obs[i].announced_v6.insert(*target);
                        }
                        Ndp::NeighborAdvert { target, .. } => {
                            ctx.state.obs[i].announced_v6.insert(*target);
                        }
                        _ => {}
                    },
                    icmpv6::Repr::EchoRequest { .. }
                        // Outbound connectivity probes *use* their source
                        // address (this is how probe-only EUI-64 GUAs show
                        // up as active — Fig. 5's "misc" uses).
                        if !ip.src.is_unspecified() && !ip.src.is_multicast() =>
                    {
                        ctx.state.obs[i].active_v6.insert(ip.src);
                    }
                    _ => {}
                }
            }
            FrameClass::Dhcpv4 => {
                let Some(i) = ctx.from else { return };
                let L4::Udp { payload, .. } = &p.l4 else {
                    return;
                };
                if let Ok(msg) = dhcpv4::Repr::parse_bytes(payload) {
                    if msg.message_type == dhcpv4::MessageType::Request {
                        ctx.state.obs[i].dhcpv4_used = true;
                    }
                }
            }
            FrameClass::Dhcpv6ClientToServer => {
                let L4::Udp { payload, .. } = &p.l4 else {
                    return;
                };
                if let (Some(i), Ok(msg)) = (ctx.from, dhcpv6::Repr::parse_bytes(payload)) {
                    match msg.message_type {
                        dhcpv6::MessageType::InformationRequest => {
                            ctx.state.obs[i].dhcpv6_stateless = true
                        }
                        dhcpv6::MessageType::Solicit | dhcpv6::MessageType::Request => {
                            ctx.state.obs[i].dhcpv6_stateful = true
                        }
                        _ => {}
                    }
                }
            }
            FrameClass::Dhcpv6ServerToClient => {
                let L4::Udp { payload, .. } = &p.l4 else {
                    return;
                };
                if let (Some(i), Ok(msg)) = (ctx.to, dhcpv6::Repr::parse_bytes(payload)) {
                    if let Some(ia) = msg.ia_na {
                        for a in ia.addresses {
                            let o = &mut ctx.state.obs[i];
                            o.dhcpv6_addrs.insert(a.addr);
                            o.announced_v6.insert(a.addr);
                        }
                    }
                }
            }
            FrameClass::Dns => {
                // A DNS query over IPv6 *uses* its source address.
                let L4::Udp { dst_port: 53, .. } = &p.l4 else {
                    return;
                };
                let Some(i) = ctx.from else { return };
                if !p.is_ipv6() {
                    return;
                }
                let has_question = ctx
                    .caches
                    .dns_message(p)
                    .and_then(|m| m.question())
                    .is_some();
                if has_question {
                    if let Some(IpAddr::V6(src)) = p.src_ip() {
                        ctx.state.obs[i].active_v6.insert(src);
                    }
                }
            }
            FrameClass::Data => {
                // An outbound data frame *uses* its IPv6 source address.
                let Some(d) = ctx.data else { return };
                if let (IpAddr::V6(dev6), IpAddr::V6(_)) = (d.dev_ip, d.peer_ip) {
                    if d.outbound {
                        ctx.state.obs[d.idx].active_v6.insert(dev6);
                    }
                }
            }
        }
    }
}
