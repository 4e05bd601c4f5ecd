//! EUI-64 exposure: which domains a device contacted *from* an EUI-64
//! source address (by DNS query, attributed data, or SNI) — the raw
//! material of the Fig. 5 privacy analysis in [`crate::eui64`].

use super::{
    note_name, note_owned, v6_peer_is_local, AnalyzerPass, FrameClass, PassId, SharedFrameCtx,
};
use std::net::IpAddr;
use v6brick_net::ipv6::Ipv6AddrExt;
use v6brick_net::parse::{ParsedPacket, L4};

/// See the module docs. Owns `domains_from_eui64` and
/// `dns_names_from_eui64`. Dispatched [`FrameClass::Dns`] and
/// [`FrameClass::Data`] frames; depends on [`super::dns`] for the answer
/// map.
pub struct Eui64Pass;

impl AnalyzerPass for Eui64Pass {
    fn id(&self) -> PassId {
        PassId::Eui64
    }

    fn on_frame<'a>(&mut self, _ts: u64, p: &ParsedPacket<'a>, ctx: &mut SharedFrameCtx<'a>) {
        match ctx.class {
            FrameClass::Dns => {
                // A query sent from an EUI-64 source exposes the name.
                let L4::Udp { dst_port: 53, .. } = &p.l4 else {
                    return;
                };
                let Some(i) = ctx.from else { return };
                if !p.is_ipv6() {
                    return;
                }
                let Some(IpAddr::V6(src)) = p.src_ip() else {
                    return;
                };
                if !src.is_eui64() {
                    return;
                }
                let Some(q) = ctx.caches.dns_message(p).and_then(|m| m.question()) else {
                    return;
                };
                let name = q.name.text();
                let o = &mut ctx.state.obs[i];
                note_name(&mut o.dns_names_from_eui64, &name);
                note_name(&mut o.domains_from_eui64, &name);
            }
            FrameClass::Data => {
                let Some(d) = ctx.data else { return };
                if let (IpAddr::V6(dev6), IpAddr::V6(peer6)) = (d.dev_ip, d.peer_ip) {
                    if !v6_peer_is_local(peer6, ctx.lan_prefix)
                        && d.outbound
                        && dev6.is_eui64()
                        && !d.is_ntp
                    {
                        let state = &mut *ctx.state;
                        if let Some(name) = state.ip_to_name.get(&IpAddr::V6(peer6)) {
                            note_owned(&mut state.obs[d.idx].domains_from_eui64, name);
                        }
                    }
                }
                // SNI from client-to-server TLS off an EUI-64 source.
                if d.outbound {
                    if let (IpAddr::V6(dev6), IpAddr::V6(peer6)) = (d.dev_ip, d.peer_ip) {
                        if dev6.is_eui64()
                            && peer6.is_global_unicast()
                            && !ctx.lan_prefix.contains(peer6)
                        {
                            if let L4::Tcp { .. } = &p.l4 {
                                if let Some(sni) = ctx.caches.sni(p) {
                                    note_name(&mut ctx.state.obs[d.idx].domains_from_eui64, sni);
                                }
                            }
                        }
                    }
                }
            }
            _ => {}
        }
    }
}
