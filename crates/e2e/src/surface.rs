//! The benchmark's whole view of the repository.
//!
//! Every call the benchmark makes into a library crate goes through this
//! module, so a later PR that moves a signature listed here knows it needs
//! a `benchmark` issue first, and the other modules never name a
//! `revere_*` crate. Fallible calls are wrapped so that errors leave this
//! module as `String` through `Display`: the network API's planned move
//! from `Result<_, String>` to a typed error compiles unchanged.

pub use revere_mangrove::annotation::extract_from_doc;
pub use revere_mangrove::{parse_html, CourseCalendar, Mangrove, MangroveSchema, WhosWho};
pub use revere_pdms::fault::FaultPlan;
pub use revere_pdms::{
    apply_updategrams, checkpoint, gram_to_batch, recover, CacheStats, DataflowView, GramInbox,
    IvmStrategy, PdmsNetwork, Peer, PeerDisk, PublishReport, QueryOutcome, ReformulateOptions,
    Reformulator, ReliableLink, SequencedGram, Updategram,
};
pub use revere_query::{ConjunctiveQuery, ExecMode, GlavMapping, Plan, StepProfile, UnionQuery};
pub use revere_storage::wal::{encode_catalog, Journal, WalRecord};
pub use revere_storage::{Attribute, Catalog, RelSchema, Relation, TripleStore, Tuple, Value};
pub use revere_util::{RngExt, SeedableRng, StdRng};
pub use revere_workload::{course_templates, DirtSpec, PageGenerator, Topology, TopologyKind};

use revere_util::obs::{Obs, SpanHandle};
use std::fmt::Display;

fn text<T, E: Display>(r: Result<T, E>) -> Result<T, String> {
    r.map_err(|e| e.to_string())
}

/// `GlavMapping::parse`.
pub fn mapping(name: &str, source: &str, target: &str, rule: &str) -> Result<GlavMapping, String> {
    text(GlavMapping::parse(name, source, target, rule))
}

/// `PdmsNetwork::query_str` — the query front door.
pub fn query_str(net: &PdmsNetwork, at_peer: &str, query: &str) -> Result<QueryOutcome, String> {
    text(net.query_str(at_peer, query))
}

/// `PdmsNetwork::publish` — the update front door.
pub fn publish(net: &mut PdmsNetwork, gram: &Updategram) -> Result<PublishReport, String> {
    text(net.publish(gram))
}

/// `PdmsNetwork::subscribe` with `IvmStrategy::Dataflow`.
pub fn subscribe(
    net: &mut PdmsNetwork,
    at_peer: &str,
    name: &str,
    query: &str,
) -> Result<(), String> {
    text(
        net.subscribe(at_peer, name, query, IvmStrategy::Dataflow)
            .map(|_| ()),
    )
}

/// `parse_query`.
pub fn parse_query(src: &str) -> Result<ConjunctiveQuery, String> {
    text(revere_query::parse_query(src))
}

/// `plan_cq`.
pub fn plan_cq(q: &ConjunctiveQuery, catalog: &Catalog) -> Plan {
    revere_query::plan_cq(q, catalog)
}

/// `eval_cq_bindings_mode` under the default engine, untraced: the join
/// kernel without answer materialisation. Returns the surviving binding
/// count and the per-step profiles.
pub fn eval_bindings(
    q: &ConjunctiveQuery,
    plan: &Plan,
    catalog: &Catalog,
) -> Result<(usize, Vec<StepProfile>), String> {
    text(revere_query::eval_cq_bindings_mode(
        q,
        plan,
        catalog,
        &Obs::disabled(),
        &SpanHandle::none(),
        ExecMode::default(),
    ))
}

/// `eval_cq_bag_planned_mode` under the default engine: kernel plus
/// answer materialisation.
pub fn eval_bag(q: &ConjunctiveQuery, plan: &Plan, catalog: &Catalog) -> Result<Relation, String> {
    text(revere_query::eval_cq_bag_planned_mode(
        q,
        plan,
        catalog,
        ExecMode::default(),
        &Obs::disabled(),
    ))
}

/// `eval_naive_union` — the nested-loop oracle.
pub fn eval_naive_union(u: &UnionQuery, catalog: &Catalog) -> Result<Relation, String> {
    text(revere_query::eval_naive_union(u, catalog))
}

/// `eval_union` — freshly planned, uncached evaluation.
pub fn eval_union(u: &UnionQuery, catalog: &Catalog) -> Result<Relation, String> {
    text(revere_query::eval_union(u, catalog))
}

/// `DataflowView::new`.
pub fn dataflow_view(
    name: &str,
    q: ConjunctiveQuery,
    catalog: &Catalog,
) -> Result<DataflowView, String> {
    text(DataflowView::new(name, q, catalog))
}

/// `ReliableLink::ship_dataflow`; returns whether the gram was acknowledged.
pub fn ship_dataflow(
    link: &mut ReliableLink,
    gram: &SequencedGram,
    inbox: &mut GramInbox,
    catalog: &mut Catalog,
    view: &mut DataflowView,
) -> Result<bool, String> {
    text(
        link.ship_dataflow(gram, inbox, catalog, view)
            .map(|d| d.acknowledged),
    )
}
