//! Data-volume accounting: bytes split by family and by
//! local-versus-Internet scope, Internet peers, data/NTP source
//! addresses, and destination domains attributed through the DNS answer
//! map and TLS SNI — the Fig. 3/4 traffic observables.

use super::{note_name, note_owned, v6_peer_is_local, AnalyzerPass, PassId, SharedFrameCtx};
use std::net::IpAddr;
use v6brick_net::ipv6::Ipv6AddrExt;
use v6brick_net::parse::{ParsedPacket, L4};

/// See the module docs. Owns the byte counters, `v6_internet_peers`,
/// `data_src_v6`, `ntp_src_v6`, `domains_v6`, `domains_v4`, and
/// `sni_domains`. Only dispatched [`super::FrameClass::Data`] frames;
/// depends on [`super::dns`] for the answer map.
pub struct TrafficPass;

impl AnalyzerPass for TrafficPass {
    fn id(&self) -> PassId {
        PassId::Traffic
    }

    fn on_frame<'a>(&mut self, _ts: u64, p: &ParsedPacket<'a>, ctx: &mut SharedFrameCtx<'a>) {
        let Some(d) = ctx.data else { return };
        match (d.dev_ip, d.peer_ip) {
            (IpAddr::V6(_), IpAddr::V6(peer6)) => {
                if v6_peer_is_local(peer6, ctx.lan_prefix) {
                    ctx.state.obs[d.idx].v6_local_bytes += d.payload_len;
                } else {
                    let name = ctx.state.ip_to_name.get(&IpAddr::V6(peer6));
                    let o = &mut ctx.state.obs[d.idx];
                    o.v6_internet_bytes += d.payload_len;
                    o.v6_internet_peers.insert(peer6);
                    if d.outbound {
                        if let IpAddr::V6(dev6) = d.dev_ip {
                            if d.is_ntp {
                                o.ntp_src_v6.insert(dev6);
                            } else {
                                o.data_src_v6.insert(dev6);
                            }
                        }
                    }
                    if let Some(name) = name {
                        note_owned(&mut o.domains_v6, name);
                    }
                }
            }
            (IpAddr::V4(_), IpAddr::V4(peer4)) => {
                let local = peer4.is_private() || peer4.is_broadcast() || peer4.is_multicast();
                if !local {
                    let name = ctx.state.ip_to_name.get(&IpAddr::V4(peer4));
                    let o = &mut ctx.state.obs[d.idx];
                    o.v4_internet_bytes += d.payload_len;
                    if let Some(name) = name {
                        note_owned(&mut o.domains_v4, name);
                    }
                }
            }
            _ => {}
        }
        // SNI extraction from client-to-server TLS.
        if d.outbound {
            if let L4::Tcp { .. } = &p.l4 {
                if let Some(sni) = ctx.caches.sni(p) {
                    let o = &mut ctx.state.obs[d.idx];
                    note_name(&mut o.sni_domains, sni);
                    match d.peer_ip {
                        IpAddr::V6(peer6)
                            if peer6.is_global_unicast() && !ctx.lan_prefix.contains(peer6) =>
                        {
                            note_name(&mut o.domains_v6, sni);
                        }
                        IpAddr::V4(peer4) if !peer4.is_private() => {
                            note_name(&mut o.domains_v4, sni);
                        }
                        _ => {}
                    }
                }
            }
        }
    }
}
