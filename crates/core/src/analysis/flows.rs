//! The 5-tuple flow table pass: records every parsed frame into a
//! [`FlowTable`] and hands it over at finish. The only pass holding its
//! result privately rather than in shared per-device observations — and
//! the only per-frame hash-map insert in the pipeline, which is why the
//! fleet path leaves it out.

use super::{AnalyzerPass, ExperimentAnalysis, PassId, SharedFrameCtx};
use crate::flows::FlowTable;
use v6brick_net::parse::ParsedPacket;

/// See the module docs. Dispatched every frame class.
pub struct FlowsPass {
    table: FlowTable,
}

impl FlowsPass {
    /// A fresh pass with an empty flow table.
    pub fn new() -> FlowsPass {
        FlowsPass {
            table: FlowTable::new(),
        }
    }
}

impl Default for FlowsPass {
    fn default() -> Self {
        Self::new()
    }
}

impl AnalyzerPass for FlowsPass {
    fn id(&self) -> PassId {
        PassId::Flows
    }

    fn on_frame<'a>(&mut self, ts: u64, p: &ParsedPacket<'a>, _ctx: &mut SharedFrameCtx<'a>) {
        self.table.record(ts, p);
    }

    fn finish_into(&mut self, analysis: &mut ExperimentAnalysis) {
        analysis.flows = std::mem::take(&mut self.table);
    }
}
