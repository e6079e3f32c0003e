//! Piazza: the peer data management system of REVERE (§3 of the paper).
//!
//! "Semantic mappings between disparate schemas are given locally between
//! two (or a small set of) peers. Using these semantic mappings
//! transitively, peers can make use of relevant data anywhere in the
//! system. Consequently, queries in a PDMS can be posed using the local
//! schema of the peer, without having to learn the schema of other peers."
//!
//! * [`peer`] — peers: a name, a peer schema, stored relations.
//! * [`reformulate`] — query answering over the transitive closure of GLAV
//!   mappings: rule-goal expansion mixing GAV unfolding with MiniCon view
//!   rewriting, with the pruning heuristics §3.1.1 mentions.
//! * [`network`] — the simulated overlay: message/hop accounting, query
//!   routing, degraded execution under a seeded fault plan
//!   (retry/backoff, query budgets, partial-answer completeness reports),
//!   reformulation/plan caches whose entries are each valid for the
//!   inputs they were computed from ("plan once, run many"), and
//!   continuous queries ([`PdmsNetwork::subscribe_str`] /
//!   [`PdmsNetwork::publish`]), each a [`MaterializedView`] kept fresh by
//!   every publish. Its front doors fail with one [`PdmsError`].
//! * [`xmlmap`] — the Figure 4 mapping-template language for XML peers:
//!   a target-schema template annotated with binding queries, applied to
//!   source documents.
//! * [`views`] — the one [`MaterializedView`]: a query whose answer is
//!   kept by delta-dataflow circuits, with derivation weights.
//! * [`placement`] — greedy view placement under per-peer storage budgets
//!   (each placed view a subscription at the asking peer, so it stays
//!   fresh) and plan-aware query routing.
//! * [`updategram`] — updategrams \[36\] and the cost-based choice between
//!   pushing their deltas through a view and re-seeding it.
//! * [`propagation`] — shipping updategrams to remote caches
//!   at-least-once over faulty links, with receiver-side dedup.
//! * [`durable`] — peer checkpoints + WAL recovery on top of
//!   `revere_storage::wal`, making the at-least-once/dedup pair
//!   exactly-once *across peer restarts*.
//! * [`monitor`] — the overlay health monitor: per-peer vitals kept over
//!   a window of scrapes, Healthy/Degraded/Suspect/Down verdicts with
//!   hysteresis, a structured event log, and a cluster dashboard.

pub mod durable;
pub mod monitor;
pub mod network;
pub mod peer;
pub mod placement;
pub mod propagation;
pub mod reformulate;
pub mod updategram;
pub mod views;
pub mod xmlmap;

/// Deterministic fault injection (re-exported from `revere-util`): the
/// [`fault::FaultPlan`] the network and propagation layers execute under.
pub use revere_util::fault;

/// Observability (re-exported from `revere-util`): the [`obs::Obs`] handle
/// the network, evaluation, and propagation layers record spans and
/// metrics through when tracing is enabled.
pub use revere_util::obs;

pub use durable::{
    checkpoint, recover, CheckpointReport, OutboxResume, PeerDisk, PeerRecovery, RecoveredPeer,
};
pub use monitor::{Health, Monitor, MonitorEvent, PeerVitals};
#[doc(hidden)]
pub use network::IvmStrategy;
pub use network::{
    CacheStats, CompletenessReport, PdmsError, PdmsNetwork, PeerAccounting, PublishReport,
    QueryBudget, QueryOutcome, Subscription,
};
pub use peer::Peer;
pub use placement::{answer_with_plan, plan_placement, PlacementPlan, WorkloadEntry};
pub use propagation::{apply_once, Delivery, GramInbox, LinkStats, ReliableLink};
pub use reformulate::{ReformulateOptions, ReformulationResult, Reformulator};
pub use updategram::{
    apply_updategrams, gram_to_batch, maintain, MaintenanceChoice, SequencedGram, Updategram,
};
pub use views::MaterializedView;
pub use xmlmap::XmlMapping;

// Named by `crates/e2e/src/surface.rs`; delete with the next `benchmark`
// issue.
#[doc(hidden)]
pub type DataflowView = MaterializedView;
