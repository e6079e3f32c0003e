//! Shadow state for staging a publish: twins of the catalogs the front
//! door applies a gram to and of the circuits it pushes the delta
//! through, so each layer's share can be replayed through its public
//! function after the real call has returned.

use crate::surface::{apply_updategrams, gram_to_batch, Catalog, DataflowView, Updategram};
use crate::trace::{Recorder, SpanId};

pub struct ShadowSubs {
    /// One twin per catalog the front door applies the gram to; deltas
    /// are signed against the first.
    pub catalogs: Vec<Catalog>,
    /// One view per circuit the front door pushes.
    pub views: Vec<DataflowView>,
}

impl ShadowSubs {
    /// Replay `gram` under `front`: sign it against the pre-state, push
    /// the batch through every listening view, apply it to every catalog.
    pub fn stage_publish(&mut self, rec: &mut Recorder, front: SpanId, gram: &Updategram) {
        let (batch, _) = rec.staged("pdms.updategram.sign", front, || {
            gram_to_batch(&self.catalogs[0], gram)
        });
        for view in &mut self.views {
            if view.relations().contains(&gram.relation) {
                rec.staged("query.dataflow.push", front, || view.push_batch(&batch));
            }
        }
        for catalog in &mut self.catalogs {
            rec.staged("pdms.updategram.apply", front, || {
                apply_updategrams(catalog, std::slice::from_ref(gram))
            });
        }
    }
}
