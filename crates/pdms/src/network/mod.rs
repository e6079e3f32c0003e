//! The simulated peer network.
//!
//! §3.1: "Piazza consists of an overlay network of peers connected via the
//! Internet ... each peer can receive and process requests." The real
//! Internet is replaced (DESIGN.md §3) by an in-process overlay that
//! tracks exactly what the distributed system would pay: messages sent,
//! tuples shipped, peers contacted.
//!
//! # Degraded execution
//!
//! Real peers "join and leave at will", so the fetch path is chaos-ready:
//! a seeded [`FaultPlan`] (see `revere_util::fault`) can down peers, drop
//! or flake messages, and charge latency; the network retries with capped
//! exponential backoff under a per-query [`QueryBudget`]. Whatever cannot
//! be fetched is *reported*, never silently skipped: every
//! [`QueryOutcome`] carries a [`CompletenessReport`] naming unreachable
//! peers, missing relations, and dropped disjuncts, so callers can
//! distinguish an empty answer from a degraded one. With the default
//! zero-fault plan the happy path is byte-identical to a perfect network.
//!
//! This module owns membership, mappings and durability admin; each
//! submodule owns one other decision (DESIGN.md §5 has the table).

mod cache;
mod query;
mod subscribe;
mod transport;

pub use cache::CacheStats;
pub use query::QueryOutcome;
#[doc(hidden)]
pub use subscribe::IvmStrategy;
pub use subscribe::{PublishReport, Subscription};
pub use transport::{CompletenessReport, PeerAccounting, QueryBudget};

use crate::durable::{self, CheckpointReport, PeerDisk, PeerRecovery};
use crate::peer::{split_qualified, Peer};
use crate::reformulate::ReformulateOptions;
use cache::Caches;
use revere_query::eval::EvalError;
use revere_query::glav::GlavMapping;
use revere_query::parse::ParseError;
use revere_storage::SharedCatalog;
use revere_util::fault::{FaultPlan, RetryPolicy};
use revere_util::obs::Obs;
use std::collections::{BTreeMap, BTreeSet};
use std::fmt;
use std::sync::Mutex;
use subscribe::Subscriptions;

/// The PDMS: peers plus the shared mapping graph.
#[derive(Debug)]
pub struct PdmsNetwork {
    peers: BTreeMap<String, Peer>,
    mappings: Vec<GlavMapping>,
    /// Reformulation configuration used for queries.
    pub options: ReformulateOptions,
    /// Fault schedule for the fetch path (default: the perfect network).
    pub faults: FaultPlan,
    /// Retry policy for failed remote fetches.
    pub retry: RetryPolicy,
    /// Per-query spend limits.
    pub budget: QueryBudget,
    /// Reuse reformulations and query plans across queries (default on).
    /// A cached reformulation is served while the mapping graph it was
    /// expanded over is current, a cached plan while the statistics of
    /// the peers it reads are (DESIGN.md has the dependency table);
    /// nothing a cache holds can change an answer. Turning it
    /// off makes every query reformulate and plan from scratch — the
    /// baseline the cache-invalidation tests compare byte-for-byte
    /// against.
    pub caching: bool,
    /// Observability handle. [`Obs::disabled`] (the default) records
    /// nothing; an enabled handle collects per-query spans
    /// (reformulation, per-relation fetch, per-disjunct evaluation) and
    /// `pdms.*` metrics. Enabling it never changes answers.
    pub obs: Obs,
    /// The q-error threshold of the estimator feedback loop. After each
    /// completely-fetched query, any executed plan whose
    /// observed max q-error exceeds this value has its cache entry
    /// evicted and its measured join selectivities written back into the
    /// owning peers' statistics. A write that materially changes a
    /// learned value bumps that peer's stats epoch, so exactly the cached
    /// plans that read the peer re-plan against the new evidence; plans
    /// over other peers, and every reformulation, stay cached. `None`
    /// disables feedback — the E15 ablation baseline. Well-calibrated
    /// plans never trigger it, so warm caches stay warm on workloads the
    /// estimator already gets right.
    pub replan_q_error: Option<f64>,
    /// Bumped on every membership or mapping-graph change. Cached
    /// reformulations and plans are stamped with it; plans also carry the
    /// stats epochs of the peer catalogs they read, which is how peer
    /// data changes are caught.
    topology_epoch: u64,
    /// Stable storage per durable peer (see [`PdmsNetwork::enable_durability`]).
    /// Peers without an entry lose everything on [`PdmsNetwork::restart_peer`]
    /// the way any in-memory store would — durability is opt-in.
    disks: BTreeMap<String, PeerDisk>,
    /// Continuous queries and the base they are maintained against.
    subs: Subscriptions,
    caches: Mutex<Caches>,
    /// Per-owner fetch vitals for the health monitor; see
    /// [`PdmsNetwork::peer_accounting`].
    accounting: Mutex<BTreeMap<String, PeerAccounting>>,
}

impl Default for PdmsNetwork {
    fn default() -> Self {
        PdmsNetwork {
            peers: BTreeMap::new(),
            mappings: Vec::new(),
            options: ReformulateOptions::default(),
            faults: FaultPlan::default(),
            retry: RetryPolicy::default(),
            budget: QueryBudget::default(),
            caching: true,
            obs: Obs::disabled(),
            replan_q_error: Some(REPLAN_Q_ERROR_DEFAULT),
            topology_epoch: 0,
            disks: BTreeMap::new(),
            subs: Subscriptions::default(),
            caches: Mutex::new(Caches::default()),
            accounting: Mutex::new(BTreeMap::new()),
        }
    }
}

/// Default [`PdmsNetwork::replan_q_error`] threshold: a plan whose worst
/// step misestimated cardinality by more than 4× in either direction is
/// considered mis-calibrated and triggers feedback + re-planning.
pub const REPLAN_Q_ERROR_DEFAULT: f64 = 4.0;

/// Why a front door of the network refused a request. `Display` prints
/// the user-facing message.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum PdmsError {
    /// The peer asked, or the owner a gram names, is not a member.
    UnknownPeer(String),
    /// A mapping's source peer is not a member.
    UnknownSourcePeer(String),
    /// A mapping's target peer is not a member.
    UnknownTargetPeer(String),
    /// A published relation name carries no peer qualifier.
    Unqualified(String),
    /// The owning peer does not store the published relation.
    NotStored {
        /// The owner named by the relation's qualifier.
        peer: String,
        /// The relation as published.
        relation: String,
    },
    /// The query text does not parse.
    Parse(ParseError),
    /// The reformulated union cannot be shaped into an answer.
    Eval(EvalError),
}

impl fmt::Display for PdmsError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            Self::UnknownPeer(peer) => write!(f, "unknown peer {peer:?}"),
            Self::UnknownSourcePeer(peer) => write!(f, "unknown source peer {peer}"),
            Self::UnknownTargetPeer(peer) => write!(f, "unknown target peer {peer}"),
            Self::Unqualified(relation) => write!(f, "relation {relation:?} is not peer-qualified"),
            Self::NotStored { peer, relation } => write!(f, "peer {peer:?} does not store {relation:?}"),
            Self::Parse(e) => e.fmt(f),
            Self::Eval(e) => e.fmt(f),
        }
    }
}

impl std::error::Error for PdmsError {}

impl From<ParseError> for PdmsError {
    fn from(e: ParseError) -> Self {
        PdmsError::Parse(e)
    }
}

impl From<EvalError> for PdmsError {
    fn from(e: EvalError) -> Self {
        PdmsError::Eval(e)
    }
}

/// The distinct peers owning `relations`, in name order (an unqualified
/// name has no owner).
fn owners_of<'a>(relations: impl IntoIterator<Item = &'a str>) -> BTreeSet<&'a str> {
    relations.into_iter().filter_map(split_qualified).map(|(owner, _)| owner).collect()
}

impl PdmsNetwork {
    /// An empty network.
    pub fn new() -> Self {
        Self::default()
    }

    /// Add a peer. A member of the same name is first retired exactly as
    /// [`PdmsNetwork::remove_peer`] retires it: its disk, its journal
    /// cursor and the selectivities other peers learned from its data do
    /// not pass to the newcomer.
    pub fn add_peer(&mut self, peer: Peer) {
        self.remove_peer(&peer.name);
        self.topology_epoch += 1;
        self.peers.insert(peer.name.clone(), peer);
    }

    /// Remove a peer — "every member can join or leave at will" (§3.1).
    /// Mappings naming it stay in the graph; subsequent queries report the
    /// gap in their [`CompletenessReport`] instead of failing. Learned
    /// join selectivities that mention the departed peer's relations are
    /// purged from every remaining peer: that evidence can no longer be
    /// re-verified against live data, and a rejoining peer may return
    /// with entirely different content under the same names. The purge is
    /// journaled on durable peers, so a restart does not replay it away.
    pub fn remove_peer(&mut self, name: &str) -> Option<Peer> {
        self.topology_epoch += 1;
        let gone = self.peers.remove(name)?;
        self.disks.remove(name);
        self.subs.forget_cursor(name);
        for p in self.peers.values() {
            p.storage.write(|c| c.purge_join_stats(name));
        }
        Some(gone)
    }

    /// Give `name` stable storage: attach a [`PeerDisk`]'s journal to its
    /// catalog (every subsequent mutation is logged) and take an initial
    /// checkpoint so pre-existing data is in the image. Idempotent; the
    /// returned disk handle survives crashes — keep it (or use
    /// [`PdmsNetwork::restart_peer`], which tracks it internally).
    pub fn enable_durability(&mut self, name: &str) -> Option<PeerDisk> {
        let peer = self.peers.get(name)?;
        let disk = self.disks.entry(name.to_string()).or_default().clone();
        peer.storage.write(|c| {
            if c.journal().is_none() {
                c.attach_journal(disk.journal());
            }
            durable::checkpoint(&disk, c, &[], &[]);
        });
        Some(disk)
    }

    /// The stable storage of a durable peer.
    pub fn disk(&self, name: &str) -> Option<&PeerDisk> {
        self.disks.get(name)
    }

    /// Checkpoint a durable peer: write a fresh image and truncate its
    /// log (see [`crate::durable::checkpoint`]). `None` when the peer is
    /// unknown or not durable.
    pub fn checkpoint_peer(&self, name: &str) -> Option<CheckpointReport> {
        let peer = self.peers.get(name)?;
        let disk = self.disks.get(name)?;
        Some(peer.storage.read(|c| durable::checkpoint(disk, c, &[], &[])))
    }

    /// Crash + restart a durable peer: its in-memory state is dropped and
    /// rebuilt from stable storage (image + log-suffix replay). The
    /// peer's logical schema is configuration, not volatile state, so it
    /// survives the restart; the storage catalog is whatever the disk
    /// proves. `None` when the peer is unknown, not durable, or its image
    /// is corrupt (in which case the live peer is left untouched).
    pub fn restart_peer(&mut self, name: &str) -> Option<PeerRecovery> {
        let peer = self.peers.get_mut(name)?;
        let recovered = durable::recover(self.disks.get(name)?)?;
        peer.storage = SharedCatalog::new(recovered.catalog);
        self.topology_epoch += 1;
        Some(recovered.report)
    }

    /// Add a mapping between two member peers, rejecting edges whose
    /// endpoints are not members (dynamically-built topologies can react
    /// instead of crashing).
    pub fn try_add_mapping(&mut self, mapping: GlavMapping) -> Result<(), PdmsError> {
        if !self.peers.contains_key(&mapping.source_peer) {
            return Err(PdmsError::UnknownSourcePeer(mapping.source_peer));
        }
        if !self.peers.contains_key(&mapping.target_peer) {
            return Err(PdmsError::UnknownTargetPeer(mapping.target_peer));
        }
        self.topology_epoch += 1;
        self.mappings.push(mapping);
        Ok(())
    }

    /// Add a mapping between two member peers.
    ///
    /// # Panics
    /// Panics if either endpoint is unknown — a mapping to a non-member is
    /// always a bug in test/bench setup. Use
    /// [`PdmsNetwork::try_add_mapping`] to handle it gracefully.
    pub fn add_mapping(&mut self, mapping: GlavMapping) {
        if let Err(e) = self.try_add_mapping(mapping) {
            panic!("{e}");
        }
    }

    /// Borrow a peer.
    pub fn peer(&self, name: &str) -> Option<&Peer> {
        self.peers.get(name)
    }

    /// The member a request names, or why there is none.
    fn member(&self, name: &str) -> Result<&Peer, PdmsError> {
        self.peers.get(name).ok_or_else(|| PdmsError::UnknownPeer(name.to_string()))
    }

    /// Mutably borrow a peer. Conservatively treated as a topology change
    /// for cache purposes (every cached reformulation and plan is
    /// invalidated) — the caller may swap the peer's entire storage for
    /// one whose stats epoch happens to equal the old one, which the
    /// per-owner plan stamps alone would not detect. To change a peer's
    /// *data*, go through [`PdmsNetwork::peer`] and `storage.write`
    /// instead: that bumps the catalog's stats epoch and re-plans only
    /// the disjuncts that read the peer.
    pub fn peer_mut(&mut self, name: &str) -> Option<&mut Peer> {
        if self.peers.contains_key(name) {
            self.topology_epoch += 1;
        }
        self.peers.get_mut(name)
    }

    /// Peer names.
    pub fn peer_names(&self) -> impl Iterator<Item = &str> {
        self.peers.keys().map(String::as_str)
    }

    /// Number of peers.
    pub fn len(&self) -> usize {
        self.peers.len()
    }

    /// True when the network has no peers.
    pub fn is_empty(&self) -> bool {
        self.peers.is_empty()
    }

    /// Number of mappings.
    pub fn mapping_count(&self) -> usize {
        self.mappings.len()
    }
}

#[cfg(test)]
mod tests;
