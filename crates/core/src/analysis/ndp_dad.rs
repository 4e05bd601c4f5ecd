//! NDP presence and DAD compliance: did the device speak NDP at all, and
//! which addresses did it probe for duplicates before using?

use super::{AnalyzerPass, PassId, SharedFrameCtx};
use v6brick_net::icmpv6;
use v6brick_net::ndp::Repr as Ndp;
use v6brick_net::parse::{Net, ParsedPacket, L4};

/// See the module docs. Owns `ndp_traffic` and `dad_probed`. Only
/// dispatched [`super::FrameClass::Icmpv6`] frames.
pub struct NdpDadPass;

impl AnalyzerPass for NdpDadPass {
    fn id(&self) -> PassId {
        PassId::NdpDad
    }

    fn on_frame<'a>(&mut self, _ts: u64, p: &ParsedPacket<'a>, ctx: &mut SharedFrameCtx<'a>) {
        let (Net::Ipv6(ip), L4::Icmpv6(msg)) = (&p.net, &p.l4) else {
            return;
        };
        let Some(i) = ctx.from else { return };
        if let icmpv6::Repr::Ndp(ndp) = msg {
            let o = &mut ctx.state.obs[i];
            o.ndp_traffic = true;
            if let Ndp::NeighborSolicit { target, .. } = ndp {
                if ip.src.is_unspecified() {
                    // DAD probe: NS from the unspecified address.
                    o.dad_probed.insert(*target);
                }
            }
        }
    }
}
