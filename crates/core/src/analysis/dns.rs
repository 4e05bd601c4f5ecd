//! DNS transactions per transport family: query record types, positive
//! and negative AAAA answers (matched to queries by client MAC + txid),
//! query source addresses, and the capture-global IP → name answer map
//! the [`super::traffic`] and [`super::eui64`] passes attribute
//! destinations with.

use super::{note_name, AnalyzerPass, PassId, SharedFrameCtx};
use std::collections::HashMap;
use std::net::IpAddr;
use v6brick_net::dns::{Name, RdataView, RecordType};
use v6brick_net::parse::{ParsedPacket, L4};
use v6brick_net::Mac;

/// See the module docs. Owns the ten `*_q_*` / `aaaa_pos_*` / `aaaa_neg`
/// / `dns_src_v6` observation fields plus the shared
/// [`super::SharedState::ip_to_name`] map. Only dispatched
/// [`super::FrameClass::Dns`] frames.
pub struct DnsPass {
    /// Pending queries: (client mac, txid) -> the name, for an AAAA
    /// query (the only type whose answer is recorded per name).
    pending: HashMap<(Mac, u16), Option<Name>>,
}

impl DnsPass {
    /// A fresh pass with no outstanding queries.
    pub fn new() -> DnsPass {
        DnsPass {
            pending: HashMap::new(),
        }
    }
}

impl Default for DnsPass {
    fn default() -> Self {
        Self::new()
    }
}

impl AnalyzerPass for DnsPass {
    fn id(&self) -> PassId {
        PassId::Dns
    }

    fn on_frame<'a>(&mut self, _ts: u64, p: &ParsedPacket<'a>, ctx: &mut SharedFrameCtx<'a>) {
        let L4::Udp { dst_port, .. } = &p.l4 else {
            return;
        };
        let over_v6 = p.is_ipv6();
        if *dst_port == 53 {
            // Query from a device.
            let Some(i) = ctx.from else { return };
            let Some(msg) = ctx.caches.dns_message(p) else {
                return;
            };
            let Some(q) = msg.question() else { return };
            let name = q.name.text();
            let o = &mut ctx.state.obs[i];
            let set = match q.rtype {
                RecordType::A if over_v6 => Some(&mut o.a_q_v6),
                RecordType::A => Some(&mut o.a_q_v4),
                RecordType::Aaaa if over_v6 => Some(&mut o.aaaa_q_v6),
                RecordType::Aaaa => Some(&mut o.aaaa_q_v4),
                RecordType::Https => Some(&mut o.https_q),
                RecordType::Svcb => Some(&mut o.svcb_q),
                _ => None,
            };
            if let Some(set) = set {
                note_name(set, &name);
            }
            let aaaa = (q.rtype == RecordType::Aaaa).then(|| name.to_name());
            self.pending.insert((p.eth.src, msg.id()), aaaa);
            if over_v6 {
                if let Some(IpAddr::V6(src)) = p.src_ip() {
                    o.dns_src_v6.insert(src);
                }
            }
        } else {
            // Response toward a device.
            let Some(msg) = ctx.caches.dns_message(p) else {
                return;
            };
            // Harvest the global answer map regardless of destination.
            for r in msg.answers() {
                let ip = match r.rdata {
                    RdataView::A(a) => IpAddr::V4(a),
                    RdataView::Aaaa(a) => IpAddr::V6(a),
                    _ => continue,
                };
                let name = r.name.text();
                match ctx.state.ip_to_name.get_mut(&ip) {
                    Some(known) if known.as_str() == name.as_str() => {}
                    Some(known) => *known = name.to_name(),
                    None => {
                        ctx.state.ip_to_name.insert(ip, name.to_name());
                    }
                }
            }
            if let Some(i) = ctx.to {
                if let Some(Some(name)) = self.pending.remove(&(p.eth.dst, msg.id())) {
                    let o = &mut ctx.state.obs[i];
                    let set = if msg.aaaa_answers().next().is_none() {
                        &mut o.aaaa_neg
                    } else if over_v6 {
                        &mut o.aaaa_pos_v6
                    } else {
                        &mut o.aaaa_pos_v4
                    };
                    set.insert(name);
                }
            }
        }
    }
}
