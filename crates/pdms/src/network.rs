//! The simulated peer network.
//!
//! §3.1: "Piazza consists of an overlay network of peers connected via the
//! Internet ... each peer can receive and process requests." The real
//! Internet is replaced (DESIGN.md §3) by an in-process overlay that
//! tracks exactly what the distributed system would pay: messages sent,
//! tuples shipped, peers contacted. Disjuncts of a reformulated query can
//! be evaluated on worker threads (`std::thread::scope` over the peers'
//! lock-protected catalogs), standing in for §3.1.2's peer-local query
//! processing.
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

use crate::durable::{self, CheckpointReport, PeerDisk, PeerRecovery};
use crate::peer::{split_qualified, Peer};
use crate::reformulate::{ReformulateOptions, ReformulationResult, Reformulator};
use crate::updategram::{apply_updategrams, gram_to_batch, Updategram};
use crate::views::MaterializedView;
use revere_query::dataflow::DeltaBatch;
use revere_query::glav::GlavMapping;
use revere_query::plan::{plan_cq, q_error, Plan};
use revere_query::eval::EvalError;
use revere_query::{head_schema, parse_query, ConjunctiveQuery, StepProfile, UnionQuery};
use revere_storage::{row_deltas, Catalog, Lsn, Relation, SharedCatalog};
use revere_util::fault::{Fate, FaultPlan, RetryPolicy};
use revere_util::obs::{names, Histogram, Obs, SpanHandle};
use std::borrow::Borrow;
use std::collections::{BTreeMap, BTreeSet, HashMap};
use std::fmt;
use std::hash::Hash;
use std::sync::{Arc, Mutex};

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
    /// completely-fetched (sequential) query, any executed plan whose
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
    /// Continuous queries registered via [`PdmsNetwork::subscribe_str`].
    subs: BTreeMap<String, Subscription>,
    /// The merged base snapshot the subscription circuits were initialized
    /// against, kept in lockstep by [`PdmsNetwork::publish`] and
    /// [`PdmsNetwork::sync_durable_subscriptions`]. Built lazily at the
    /// first subscribe; `None` until then.
    subs_base: Option<Catalog>,
    /// Per-durable-peer journal positions already absorbed into
    /// `subs_base` (WAL change-data capture for mutations that bypass
    /// [`PdmsNetwork::publish`]).
    wal_cursors: BTreeMap<String, Lsn>,
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
            subs: BTreeMap::new(),
            subs_base: None,
            wal_cursors: BTreeMap::new(),
            caches: Mutex::new(Caches::default()),
            accounting: Mutex::new(BTreeMap::new()),
        }
    }
}

/// Default [`PdmsNetwork::replan_q_error`] threshold: a plan whose worst
/// step misestimated cardinality by more than 4× in either direction is
/// considered mis-calibrated and triggers feedback + re-planning.
pub const REPLAN_Q_ERROR_DEFAULT: f64 = 4.0;

/// Per-owner fetch-path vitals, accumulated *unconditionally* — even
/// with [`Obs::disabled`] — so the health monitor (`crate::monitor`) can
/// scrape every overlay without the observability tax. All fields are
/// cumulative totals since construction; scrapers keep their own
/// previous snapshot and difference. Updated only for *remote* fetches
/// (local reads involve no network and say nothing about peer health).
#[derive(Debug, Clone, Default, PartialEq)]
pub struct PeerAccounting {
    /// Fetch attempts aimed at this owner (first tries + retries).
    pub fetch_attempts: u64,
    /// Messages sent toward this owner (requests and its responses).
    pub messages_sent: u64,
    /// Messages the fault plan dropped on the way to/from this owner.
    pub messages_dropped: u64,
    /// Retries spent beyond first attempts.
    pub retries_spent: u64,
    /// Completeness gaps: fetches this owner never delivered.
    pub gaps_observed: u64,
    /// Round-trip latency (ticks) of each resolved fetch, delivered or
    /// timed out.
    pub latency: Histogram,
    /// Worst q-error observed across completely-fetched plans touching
    /// this owner's relations (0 until a plan has been profiled;
    /// sequential query path only, like the feedback loop itself).
    pub worst_q_error: f64,
}

/// Hit/miss counters for the network's reformulation and plan caches.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct CacheStats {
    /// Queries answered with a cached reformulation.
    pub reformulation_hits: usize,
    /// Queries that had to reformulate from scratch.
    pub reformulation_misses: usize,
    /// Disjuncts executed under a cached plan.
    pub plan_hits: usize,
    /// Disjuncts planned from scratch.
    pub plan_misses: usize,
    /// Cached plans evicted by the q-error feedback loop.
    pub plan_evictions: usize,
}

impl fmt::Display for CacheStats {
    /// Canonical `key=value` line.
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(
            f,
            "reformulation_hits={} reformulation_misses={} plan_hits={} plan_misses={} \
             plan_evictions={}",
            self.reformulation_hits,
            self.reformulation_misses,
            self.plan_hits,
            self.plan_misses,
            self.plan_evictions,
        )
    }
}

/// Most reformulations kept at once. The key is the query's exact text,
/// so an ad hoc stream with varying constants would otherwise grow the
/// map for as long as the mapping graph holds still.
const REFORMULATION_CAPACITY: usize = 256;

/// Most plans kept at once (a reformulation holds up to a few hundred
/// disjuncts, many of them isomorphic across queries).
const PLAN_CAPACITY: usize = 16_384;

/// The reformulation cache audits itself: the lookup that finds a valid
/// entry for the 16th time re-expands the query over the current mapping
/// graph, checks the entry against it and replaces it; the next audit
/// falls due after four times as many such lookups, so the total audit
/// work is logarithmic in traffic. With no global flush left, a path that
/// changed the mapping graph without bumping `topology_epoch` would
/// otherwise serve a stale union for ever; the audit bounds that, and in
/// debug builds — every test suite — it asserts. The first one is early
/// enough that a short run exercises the path: `crates/e2e`'s 20-step
/// `query_churn` smoke test requires the reformulation layer to run at
/// least once in a timed pass.
const FIRST_REFORMULATION_AUDIT: u64 = 16;
const REFORMULATION_AUDIT_BACKOFF: u64 = 4;

/// The caches behind [`PdmsNetwork::query`]. Each entry is valid for the
/// inputs it was computed from and nothing else, so there is no global
/// flush:
///
/// | entry | key | computed from | served while |
/// |---|---|---|---|
/// | reformulation | options + the query's exact text | the mapping graph | `topology_epoch` is the one it was expanded under |
/// | plan | the disjunct's canonical key | the staged snapshots and learned join statistics of the peers owning its body relations | `topology_epoch` and each of those owners' stats epochs are the ones it was costed under |
///
/// A publish, an `analyze` or a feedback write at one peer therefore
/// re-plans only the disjuncts that read that peer and re-reformulates
/// nothing; a membership or mapping change invalidates everything.
/// Epochs are compared exactly, never hashed together.
#[derive(Debug)]
struct Caches {
    /// NOT keyed by the rename-invariant canonical key: a reformulation
    /// carries the query's own head variables into every disjunct, so
    /// serving it for a merely-isomorphic query would change the answer
    /// schema.
    reformulations: BoundedMap<(ReformulateOptions, String), CachedReformulation>,
    /// Plans *do* transfer across isomorphic disjuncts, because the
    /// executor re-projects from the query it is given
    /// ([`revere_query::eval_planned`]).
    plans: BoundedMap<String, CachedPlan>,
    stats: CacheStats,
    /// Reformulation lookups that found a valid entry, and the count at
    /// which the next audit falls due.
    valid_lookups: u64,
    audit_at: u64,
}

impl Default for Caches {
    fn default() -> Self {
        Caches {
            reformulations: BoundedMap::new(REFORMULATION_CAPACITY),
            plans: BoundedMap::new(PLAN_CAPACITY),
            stats: CacheStats::default(),
            valid_lookups: 0,
            audit_at: FIRST_REFORMULATION_AUDIT,
        }
    }
}

#[derive(Debug)]
struct CachedReformulation {
    topology: u64,
    result: Arc<ReformulationResult>,
    deps: Arc<UnionDeps>,
}

#[derive(Debug)]
struct CachedPlan {
    topology: u64,
    /// Stats epochs of the disjunct's owners, in [`DisjunctDeps::owners`]
    /// order (equal keys name equal relations, hence equal owners).
    owner_epochs: Vec<u64>,
    plan: Arc<Plan>,
}

/// What the plan cache needs to know about a reformulated union, derived
/// once when the reformulation is cached so that a hit derives nothing.
#[derive(Debug)]
struct UnionDeps {
    /// Every peer owning a body relation of some disjunct, sorted.
    owners: Vec<String>,
    /// Parallel to the union's disjuncts.
    disjuncts: Vec<DisjunctDeps>,
}

#[derive(Debug)]
struct DisjunctDeps {
    /// The disjunct's canonical key — its plan-cache key.
    key: String,
    /// The distinct owners of its body relations, ascending indices into
    /// [`UnionDeps::owners`]: the catalogs `fetch_phase` stages and
    /// imports learned join statistics from when the disjunct is costed.
    owners: Vec<usize>,
}

impl UnionDeps {
    fn of(union: &UnionQuery) -> Self {
        let owners_of = |d: &ConjunctiveQuery| -> BTreeSet<String> {
            d.body
                .iter()
                .filter_map(|a| split_qualified(&a.relation))
                .map(|(owner, _)| owner.to_string())
                .collect()
        };
        let per_disjunct: Vec<BTreeSet<String>> = union.disjuncts.iter().map(owners_of).collect();
        let owners: Vec<String> =
            per_disjunct.iter().flatten().collect::<BTreeSet<_>>().into_iter().cloned().collect();
        let disjuncts = union
            .disjuncts
            .iter()
            .zip(&per_disjunct)
            .map(|(d, mine)| DisjunctDeps {
                key: d.canonical_key(),
                owners: mine
                    .iter()
                    .map(|o| owners.binary_search(o).expect("every owner was collected above"))
                    .collect(),
            })
            .collect();
        UnionDeps { owners, disjuncts }
    }
}

/// Which relations each disjunct reads, as a sorted multiset — what a
/// reformulation audit compares. Not the canonical keys: those can depend
/// on the fresh variable names an expansion mints.
fn relation_footprint(union: &UnionQuery) -> Vec<Vec<&str>> {
    let mut footprint: Vec<Vec<&str>> = union
        .disjuncts
        .iter()
        .map(|d| {
            let mut relations: Vec<&str> = d.body.iter().map(|a| a.relation.as_str()).collect();
            relations.sort_unstable();
            relations
        })
        .collect();
    footprint.sort_unstable();
    footprint
}

/// One query's view of the plan cache: the union's dependencies and the
/// current stats epoch of each of its owners (`None` for a non-member),
/// read once before the fetch phase — a catalog that moves afterwards
/// leaves the plans of this query stamped older than its data, so they
/// are re-planned, never served stale.
struct PlanScope {
    deps: Arc<UnionDeps>,
    epochs: Vec<Option<u64>>,
}

/// Why a disjunct was planned the way it was, recorded on its
/// `pdms.eval.disjunct` span.
enum PlanVerdict<'a> {
    /// `caching` is off.
    Bypass,
    Hit,
    /// `stale_owner` is the first owner whose stats epoch moved since the
    /// cached plan was costed; `None` when there was no current entry.
    Miss { stale_owner: Option<&'a str> },
}

/// A map that never holds more than `capacity` entries: inserting a new
/// key into a full map first drops the older half, by insertion order.
#[derive(Debug)]
struct BoundedMap<K, V> {
    capacity: usize,
    inserted: u64,
    entries: HashMap<K, (u64, V)>,
}

impl<K: Hash + Eq, V> BoundedMap<K, V> {
    fn new(capacity: usize) -> Self {
        BoundedMap { capacity, inserted: 0, entries: HashMap::new() }
    }

    fn get<Q: Hash + Eq + ?Sized>(&self, key: &Q) -> Option<&V>
    where
        K: Borrow<Q>,
    {
        self.entries.get(key).map(|(_, v)| v)
    }

    fn insert(&mut self, key: K, value: V) {
        if self.entries.len() >= self.capacity && !self.entries.contains_key(&key) {
            let mut ages: Vec<u64> = self.entries.values().map(|(age, _)| *age).collect();
            ages.sort_unstable();
            let median = ages[ages.len() / 2];
            self.entries.retain(|_, (age, _)| *age > median);
        }
        self.inserted += 1;
        self.entries.insert(key, (self.inserted, value));
    }

    fn remove<Q: Hash + Eq + ?Sized>(&mut self, key: &Q) -> Option<V>
    where
        K: Borrow<Q>,
    {
        self.entries.remove(key).map(|(_, v)| v)
    }
}

/// Per-query spend limits. `None` means unlimited (the default).
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct QueryBudget {
    /// Stop fetching once this many messages have been sent.
    pub max_messages: Option<usize>,
    /// Stop fetching once the simulated clock passes this many ticks.
    pub deadline_ticks: Option<u64>,
}

/// What a degraded query could and could not cover. All-empty (the
/// [`CompletenessReport::is_complete`] state) on the happy path.
#[derive(Debug, Clone, Default, PartialEq, Eq)]
pub struct CompletenessReport {
    /// Disjuncts in the reformulated union.
    pub disjuncts_total: usize,
    /// Disjuncts dropped because some body relation could not be staged.
    pub disjuncts_dropped: usize,
    /// Peers that could not be reached (down, lossy past retry, or gone).
    pub peers_unreachable: BTreeSet<String>,
    /// Referenced relations that could not be staged: unknown or departed
    /// owner, owner not storing the relation, or fetch failure.
    pub relations_missing: BTreeSet<String>,
    /// Retry attempts spent beyond each first try.
    pub retries: usize,
    /// Request messages lost in flight (includes sends to down peers).
    pub messages_dropped: usize,
    /// Simulated clock at the end of the fetch phase (latency + backoff).
    pub latency_ticks: u64,
    /// True when the message budget cut fetching short.
    pub budget_exhausted: bool,
    /// True when the deadline cut fetching short.
    pub deadline_exceeded: bool,
}

impl CompletenessReport {
    /// True when every disjunct was fully evaluated against fetched data.
    pub fn is_complete(&self) -> bool {
        self.disjuncts_dropped == 0
            && self.peers_unreachable.is_empty()
            && self.relations_missing.is_empty()
    }

    /// Fraction of disjuncts fully evaluated, in `[0, 1]` (1.0 for the
    /// degenerate empty union).
    pub fn coverage(&self) -> f64 {
        if self.disjuncts_total == 0 {
            1.0
        } else {
            (self.disjuncts_total - self.disjuncts_dropped) as f64 / self.disjuncts_total as f64
        }
    }
}

impl fmt::Display for CompletenessReport {
    /// Canonical single-line `key=value` serialization. Set fields
    /// render comma-joined (peer and relation names never contain commas
    /// or whitespace in this workspace), empty sets as an empty value.
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        let join = |set: &BTreeSet<String>| set.iter().cloned().collect::<Vec<_>>().join(",");
        write!(
            f,
            "disjuncts_total={} disjuncts_dropped={} peers_unreachable={} relations_missing={} \
             retries={} messages_dropped={} latency_ticks={} budget_exhausted={} deadline_exceeded={}",
            self.disjuncts_total,
            self.disjuncts_dropped,
            join(&self.peers_unreachable),
            join(&self.relations_missing),
            self.retries,
            self.messages_dropped,
            self.latency_ticks,
            self.budget_exhausted,
            self.deadline_exceeded,
        )
    }
}

/// The result of asking one peer a question.
#[derive(Debug)]
pub struct QueryOutcome {
    /// The answers, in the querying peer's vocabulary.
    pub answers: Relation,
    /// The reformulated union and its statistics, shared with the
    /// reformulation cache when caching is on.
    pub reformulation: Arc<ReformulationResult>,
    /// Peers whose data actually contributed (had the needed relations).
    pub peers_contacted: BTreeSet<String>,
    /// Messages exchanged: one request + one response per contacted remote
    /// peer, per relation fetched (plus lost/retried requests under
    /// faults).
    pub messages: usize,
    /// Tuples shipped from remote peers to the querying peer.
    pub tuples_shipped: usize,
    /// What the answer covers and what it is missing.
    pub completeness: CompletenessReport,
}

/// A continuous query registered at a peer ([`PdmsNetwork::subscribe_str`]):
/// a [`MaterializedView`] of the query's reformulation over the mapping
/// graph, plus where it was asked and what publishing has done to it.
/// Published updategrams re-fire only subscriptions whose base relations
/// the delta touches; everything else is a counted no-op.
#[derive(Debug)]
pub struct Subscription {
    /// The peer the continuous query was posed at.
    pub at_peer: String,
    /// The maintained answer; named after the subscription (unique per
    /// network), defined by the query as posed in that peer's vocabulary.
    pub view: MaterializedView,
    /// Disjuncts in the reformulated union; those the network could not
    /// evaluate at subscribe time (unreachable base relations) are not in
    /// the view ([`Subscription::disjuncts_dropped`]).
    pub disjuncts_total: usize,
    /// Times a published delta incrementally refreshed this subscription.
    pub refreshes: usize,
    /// Published deltas that touched none of this subscription's base
    /// relations (no work beyond the affected-set check).
    pub skipped: usize,
}

impl Subscription {
    /// Disjuncts dropped at subscribe time.
    pub fn disjuncts_dropped(&self) -> usize {
        self.disjuncts_total - self.view.disjuncts()
    }

    /// The base relations whose deltas re-fire this subscription.
    pub fn relations(&self) -> &BTreeSet<String> {
        self.view.relations()
    }

    /// The maintained answer under set semantics, sorted.
    pub fn answers(&self) -> Relation {
        self.view.as_relation()
    }

    /// Join-work units spent across all circuits.
    pub fn work(&self) -> u64 {
        self.view.work()
    }

    /// Distinct tuples held across all circuit arrangements.
    pub fn arranged_tuples(&self) -> usize {
        self.view.arranged_tuples()
    }
}

/// What one [`PdmsNetwork::publish`] call did.
#[derive(Debug, Clone, Default)]
pub struct PublishReport {
    /// Subscriptions whose answers were incrementally refreshed.
    pub refreshed: Vec<String>,
    /// Subscriptions skipped because the delta touches none of their
    /// base relations.
    pub skipped: usize,
    /// Distinct output tuples whose derivation counts changed, summed
    /// over the refreshed subscriptions.
    pub output_changes: usize,
}

/// What every disjunct of one query is evaluated against.
struct DisjunctRun<'a> {
    staging: &'a Catalog,
    /// `None` when caching is off.
    scope: Option<&'a PlanScope>,
    /// The fetch was complete: plans may be cached and profiles fed back.
    /// A plan costed against partial staging data executes correctly but
    /// would poison the cache with statistics from a degraded view of the
    /// network.
    cacheable: bool,
}

/// Internal result of the shared fetch phase.
struct Fetched {
    staging: Catalog,
    peers_contacted: BTreeSet<String>,
    messages: usize,
    tuples_shipped: usize,
    completeness: CompletenessReport,
}

impl PdmsNetwork {
    /// An empty network.
    pub fn new() -> Self {
        Self::default()
    }

    /// Add a peer. Replaces any existing peer of the same name.
    pub fn add_peer(&mut self, peer: Peer) {
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
        self.wal_cursors.remove(name);
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

    /// The durable-subscription sync cursor for `name`: journaled records
    /// with `lsn < cursor` have been absorbed into the subscription base
    /// (see [`PdmsNetwork::sync_durable_subscriptions`]). `None` until
    /// the peer has a cursor. The health monitor reads
    /// `journal.next_lsn() - cursor` as the inbox watermark lag.
    pub fn wal_cursor(&self, name: &str) -> Option<Lsn> {
        self.wal_cursors.get(name).copied()
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
        if !self.peers.contains_key(name) {
            return None;
        }
        let disk = self.disks.get(name)?.clone();
        let recovered = durable::recover(&disk)?;
        self.topology_epoch += 1;
        let old = self.peers.remove(name).expect("membership checked above");
        self.peers.insert(
            old.name.clone(),
            Peer { name: old.name, schema: old.schema, storage: SharedCatalog::new(recovered.catalog) },
        );
        Some(recovered.report)
    }

    /// Add a mapping between two member peers, rejecting edges whose
    /// endpoints are not members (dynamically-built topologies can react
    /// instead of crashing).
    pub fn try_add_mapping(&mut self, mapping: GlavMapping) -> Result<(), String> {
        if !self.peers.contains_key(&mapping.source_peer) {
            return Err(format!("unknown source peer {}", mapping.source_peer));
        }
        if !self.peers.contains_key(&mapping.target_peer) {
            return Err(format!("unknown target peer {}", mapping.target_peer));
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

    /// Pose a textual query at a peer. The query must use relations
    /// qualified with peer names (usually the local peer's).
    pub fn query_str(&self, at_peer: &str, query: &str) -> Result<QueryOutcome, String> {
        let q = parse_query(query).map_err(|e| e.to_string())?;
        self.query(at_peer, &q)
    }

    /// Snapshot the cache hit/miss counters.
    pub fn cache_stats(&self) -> CacheStats {
        self.lock_caches().stats
    }

    /// Drop every cached reformulation and plan and zero the counters.
    pub fn clear_caches(&self) {
        let mut caches = self.lock_caches();
        *caches = Caches::default();
    }

    fn lock_caches(&self) -> std::sync::MutexGuard<'_, Caches> {
        // A panic while holding the lock leaves plain data; recover it.
        self.caches.lock().unwrap_or_else(std::sync::PoisonError::into_inner)
    }

    /// Snapshot the per-owner fetch vitals (cumulative since
    /// construction). The map is keyed by owner peer name and only ever
    /// gains entries for peers that have been fetched from remotely.
    pub fn peer_accounting(&self) -> BTreeMap<String, PeerAccounting> {
        self.lock_accounting().clone()
    }

    fn lock_accounting(&self) -> std::sync::MutexGuard<'_, BTreeMap<String, PeerAccounting>> {
        self.accounting.lock().unwrap_or_else(std::sync::PoisonError::into_inner)
    }

    /// Reformulate through the cache, under a `pdms.reformulate` span that
    /// records the cache verdict ("hit" / "miss" / "audit" / "bypass") and,
    /// when the rule-goal expansion actually ran, how much work it did (an
    /// audit counts as a miss in [`CacheStats`]: the query reformulated
    /// from scratch). The second return is `None` exactly when `caching`
    /// is off.
    fn reformulate_cached(
        &self,
        q: &ConjunctiveQuery,
        parent: &SpanHandle,
    ) -> (Arc<ReformulationResult>, Option<Arc<UnionDeps>>) {
        let span = parent.child("pdms.reformulate");
        let expand = |verdict: &str| {
            let r = Reformulator::new(self.mappings.clone(), self.options.clone()).reformulate(q);
            span.set("cache", verdict);
            span.set("disjuncts", r.union.disjuncts.len());
            span.set("nodes_expanded", r.nodes_expanded);
            span.set("candidates", r.candidates_generated);
            span.set("pruned_by_containment", r.pruned_by_containment);
            span.set("pruned_by_visited", r.pruned_by_visited);
            Arc::new(r)
        };
        if !self.caching {
            return (expand("bypass"), None);
        }
        let key = (self.options.clone(), q.to_string());
        let audited = {
            let mut guard = self.lock_caches();
            let caches = &mut *guard;
            let valid =
                caches.reformulations.get(&key).filter(|e| e.topology == self.topology_epoch);
            let audited = match valid {
                Some(e) => {
                    caches.valid_lookups += 1;
                    if caches.valid_lookups != caches.audit_at {
                        caches.stats.reformulation_hits += 1;
                        span.set("cache", "hit");
                        span.set("disjuncts", e.result.union.disjuncts.len());
                        return (Arc::clone(&e.result), Some(Arc::clone(&e.deps)));
                    }
                    caches.audit_at *= REFORMULATION_AUDIT_BACKOFF;
                    Some(Arc::clone(&e.result))
                }
                None => None,
            };
            caches.stats.reformulation_misses += 1;
            audited
        };
        // Reformulation can be expensive; don't hold the lock for it. The
        // mapping graph only changes through `&mut self`, so the stamp
        // cannot go stale while this query runs.
        let result = expand(if audited.is_some() { "audit" } else { "miss" });
        let deps = Arc::new(UnionDeps::of(&result.union));
        if let Some(cached) = audited {
            debug_assert_eq!(
                relation_footprint(&cached.union),
                relation_footprint(&result.union),
                "stale reformulation cached for `{q}`"
            );
        }
        self.lock_caches().reformulations.insert(
            key,
            CachedReformulation {
                topology: self.topology_epoch,
                result: Arc::clone(&result),
                deps: Arc::clone(&deps),
            },
        );
        (result, Some(deps))
    }

    /// Read the current stats epoch of every owner the union depends on.
    fn plan_scope(&self, deps: Arc<UnionDeps>) -> PlanScope {
        let epochs =
            deps.owners.iter().map(|o| self.peers.get(o).map(|p| p.storage.epoch())).collect();
        PlanScope { deps, epochs }
    }

    /// Plan disjunct `i` of the run's union through the cache.
    fn plan_for<'a>(
        &self,
        i: usize,
        d: &ConjunctiveQuery,
        run: &DisjunctRun<'a>,
    ) -> (Arc<Plan>, PlanVerdict<'a>) {
        let Some(scope) = run.scope else {
            return (Arc::new(plan_cq(d, run.staging)), PlanVerdict::Bypass);
        };
        let dep = &scope.deps.disjuncts[i];
        let mut stale_owner = None;
        {
            let mut guard = self.lock_caches();
            let caches = &mut *guard;
            if let Some(e) =
                caches.plans.get(&dep.key).filter(|e| e.topology == self.topology_epoch)
            {
                debug_assert_eq!(e.owner_epochs.len(), dep.owners.len());
                stale_owner = dep
                    .owners
                    .iter()
                    .zip(&e.owner_epochs)
                    .find(|(&o, &costed_at)| scope.epochs[o] != Some(costed_at))
                    .map(|(&o, _)| scope.deps.owners[o].as_str());
                if stale_owner.is_none() {
                    caches.stats.plan_hits += 1;
                    return (Arc::clone(&e.plan), PlanVerdict::Hit);
                }
            }
            caches.stats.plan_misses += 1;
        }
        let plan = Arc::new(plan_cq(d, run.staging));
        let owner_epochs: Option<Vec<u64>> = dep.owners.iter().map(|&o| scope.epochs[o]).collect();
        if let (true, Some(owner_epochs)) = (run.cacheable, owner_epochs) {
            self.lock_caches().plans.insert(
                dep.key.clone(),
                CachedPlan { topology: self.topology_epoch, owner_epochs, plan: Arc::clone(&plan) },
            );
        }
        (plan, PlanVerdict::Miss { stale_owner })
    }

    /// Copy the owner's learned join-overlap statistics for `rel` into a
    /// staging catalog, so planning against the staged snapshot sees the
    /// same evidence the feedback loop recorded at the peer.
    fn stage_join_stats(staging: &mut Catalog, peer: &Peer, rel: &str) {
        let learned = peer.storage.read(|c| c.join_stats().mentioning(rel));
        if !learned.is_empty() {
            staging.absorb_join_stats(&learned);
        }
    }

    /// The estimator feedback loop (sequential query path only — worker
    /// threads would make write order, and thus last-write-wins learned
    /// values, scheduling-dependent). When a completely-fetched plan's
    /// observed max q-error exceeds [`PdmsNetwork::replan_q_error`]:
    /// evict exactly that plan's cache entry, and write each
    /// unambiguous (single-pair) join step's measured selectivity
    /// `bindings / (probes · build_rows)` into the owning peers'
    /// catalogs. The write bumps those catalogs' stats epochs only when
    /// the learned value materially changed, which invalidates every
    /// cached plan stamped with the old epoch of a peer written to —
    /// cached plans can never outlive the observations that justified
    /// them, and plans over other peers are left alone.
    fn feed_back(&self, plan: &Plan, profiles: &[StepProfile]) {
        let max_q = plan
            .steps
            .iter()
            .zip(profiles)
            .map(|(s, p)| q_error(s.est_bindings, p.bindings))
            .fold(1.0, f64::max);
        self.note_worst_q_error(plan, max_q);
        let Some(threshold) = self.replan_q_error else { return };
        if max_q <= threshold {
            return;
        }
        self.obs.inc(names::PDMS_FEEDBACK_PLANS_REPLANNED, 1);
        if self.caching {
            let mut caches = self.lock_caches();
            if caches.plans.remove(plan.key()).is_some() {
                caches.stats.plan_evictions += 1;
            }
        }
        for (s, p) in plan.steps.iter().zip(profiles) {
            // Only steps with exactly one join pair attribute cleanly; a
            // multi-pair step's selectivity is a product we can't split.
            if s.join_pairs.len() != 1 || p.probes == 0 || p.build_rows == 0 {
                continue;
            }
            let pair = &s.join_pairs[0];
            let sel = p.bindings as f64 / (p.probes as f64 * p.build_rows as f64);
            let mut owners: Vec<&str> = Vec::new();
            for rel in [s.relation.as_str(), pair.other_relation.as_str()] {
                if let Some((owner, _)) = split_qualified(rel) {
                    if !owners.contains(&owner) {
                        owners.push(owner);
                    }
                }
            }
            for owner in owners {
                if let Some(peer) = self.peers.get(owner) {
                    let changed = peer.storage.write(|c| {
                        c.note_join_overlap(
                            &s.relation,
                            pair.col,
                            &pair.other_relation,
                            pair.other_col,
                            sel,
                        )
                    });
                    if changed {
                        self.obs.inc(names::PDMS_FEEDBACK_OVERLAPS_OBSERVED, 1);
                    }
                }
            }
        }
    }

    /// Record `max_q` as the worst observed q-error for every owner whose
    /// relations the profiled plan touched — a monitor vital, not part of
    /// the feedback write-back (it is recorded below the replan
    /// threshold too, and even when feedback is disabled).
    fn note_worst_q_error(&self, plan: &Plan, max_q: f64) {
        let mut owners: Vec<&str> = Vec::new();
        for s in &plan.steps {
            if let Some((owner, _)) = split_qualified(&s.relation) {
                if !owners.contains(&owner) {
                    owners.push(owner);
                }
            }
        }
        if owners.is_empty() {
            return;
        }
        let mut acct = self.lock_accounting();
        for owner in owners {
            let a = acct.entry(owner.to_string()).or_default();
            if max_q > a.worst_q_error {
                a.worst_q_error = max_q;
            }
        }
    }

    /// Fetch phase, shared by [`PdmsNetwork::query`] and
    /// [`PdmsNetwork::query_parallel`]: snapshot every referenced relation
    /// that survives the network weather, accounting for every message,
    /// retry, and gap along the way.
    fn fetch_phase(&self, at_peer: &str, union: &UnionQuery, parent: &SpanHandle) -> Fetched {
        let mut f = Fetched {
            staging: Catalog::new(),
            peers_contacted: BTreeSet::new(),
            messages: 0,
            tuples_shipped: 0,
            completeness: CompletenessReport::default(),
        };
        let mut clock = 0u64;
        let mut fetched: BTreeSet<&str> = BTreeSet::new();
        for d in &union.disjuncts {
            for a in &d.body {
                if !fetched.insert(&a.relation) {
                    continue;
                }
                let span = parent.child("pdms.fetch");
                span.set("relation", &a.relation);
                // Per-relation accounting deltas, stamped on the span when
                // the fetch resolves.
                let msg0 = f.messages;
                let dropped0 = f.completeness.messages_dropped;
                let retries0 = f.completeness.retries;
                let clock0 = clock;
                let Some((owner, _)) = split_qualified(&a.relation) else {
                    // Unqualified relations have no owner to ask.
                    f.completeness.relations_missing.insert(a.relation.clone());
                    span.set("outcome", "unqualified");
                    continue;
                };
                span.set("owner", owner);
                let Some(peer) = self.peers.get(owner) else {
                    // Unknown or departed owner: the gap is reported, not
                    // silently absorbed into a smaller answer.
                    f.completeness.relations_missing.insert(a.relation.clone());
                    f.completeness.peers_unreachable.insert(owner.to_string());
                    span.set("outcome", "owner_gone");
                    continue;
                };
                if owner == at_peer {
                    // Local data: no network involved.
                    match peer.snapshot(&a.relation) {
                        Some(rel) => {
                            f.peers_contacted.insert(owner.to_string());
                            span.set("outcome", "local");
                            span.set("tuples", rel.len());
                            f.staging.register(rel);
                            Self::stage_join_stats(&mut f.staging, peer, &a.relation);
                        }
                        None => {
                            f.completeness.relations_missing.insert(a.relation.clone());
                            span.set("outcome", "local_missing");
                        }
                    }
                    continue;
                }
                // The overlay knows each peer's advertised schema: a peer
                // that does not store the relation is never asked (and the
                // gap is recorded).
                if !peer.stores(&a.relation) {
                    f.completeness.relations_missing.insert(a.relation.clone());
                    span.set("outcome", "not_advertised");
                    continue;
                }
                // Remote fetch under the fault plan, with retry/backoff
                // and the per-query budget.
                let mut delivered = false;
                let mut attempts = 0u32;
                for attempt in 0..self.retry.attempts() {
                    if let Some(max) = self.budget.max_messages {
                        if f.messages >= max {
                            f.completeness.budget_exhausted = true;
                            span.set("budget_exhausted", true);
                            break;
                        }
                    }
                    if let Some(deadline) = self.budget.deadline_ticks {
                        if clock >= deadline {
                            f.completeness.deadline_exceeded = true;
                            span.set("deadline_exceeded", true);
                            break;
                        }
                    }
                    attempts = attempt + 1;
                    if attempt > 0 {
                        f.completeness.retries += 1;
                    }
                    if self.faults.is_down_at(owner, clock) {
                        // Request into the void; wait out the timeout.
                        f.messages += 1;
                        f.completeness.messages_dropped += 1;
                        let wait = self.retry.backoff(attempt);
                        clock += wait;
                        self.obs.advance(wait);
                        continue;
                    }
                    match self.faults.fate(owner, &a.relation, attempt) {
                        Fate::Dropped => {
                            f.messages += 1;
                            f.completeness.messages_dropped += 1;
                            let wait = self.retry.backoff(attempt);
                            clock += wait;
                            self.obs.advance(wait);
                        }
                        Fate::Flaky => {
                            // Transient error response: request + error.
                            f.messages += 2;
                            let wait = self.retry.backoff(attempt);
                            clock += wait;
                            self.obs.advance(wait);
                        }
                        Fate::Delivered { latency } => {
                            f.messages += 2;
                            clock += latency;
                            self.obs.advance(latency);
                            if let Some(rel) = peer.snapshot(&a.relation) {
                                f.peers_contacted.insert(owner.to_string());
                                f.tuples_shipped += rel.len();
                                span.set("tuples", rel.len());
                                f.staging.register(rel);
                                Self::stage_join_stats(&mut f.staging, peer, &a.relation);
                            }
                            delivered = true;
                            break;
                        }
                    }
                }
                if !delivered {
                    f.completeness.relations_missing.insert(a.relation.clone());
                    f.completeness.peers_unreachable.insert(owner.to_string());
                    self.obs.inc(names::PDMS_FETCH_GAPS_OBSERVED, 1);
                }
                {
                    // Monitor vitals, kept even when obs is disabled: the
                    // adds are commutative, so the totals are identical no
                    // matter how concurrent queries interleave.
                    let mut acct = self.lock_accounting();
                    let a = acct.entry(owner.to_string()).or_default();
                    a.fetch_attempts += attempts as u64;
                    a.messages_sent += (f.messages - msg0) as u64;
                    a.messages_dropped += (f.completeness.messages_dropped - dropped0) as u64;
                    a.retries_spent += (f.completeness.retries - retries0) as u64;
                    if !delivered {
                        a.gaps_observed += 1;
                    }
                    a.latency.observe(clock - clock0);
                }
                if span.is_recording() {
                    span.set("outcome", if delivered { "delivered" } else { "unreachable" });
                    span.set("attempts", attempts);
                    span.set("messages", f.messages - msg0);
                    span.set("dropped", f.completeness.messages_dropped - dropped0);
                    span.set("retries", f.completeness.retries - retries0);
                    span.set("latency_ticks", clock - clock0);
                }
                self.obs.inc(names::PDMS_FETCH_MESSAGES_SENT, (f.messages - msg0) as u64);
                self.obs.inc(names::PDMS_FETCH_MESSAGES_DROPPED, (f.completeness.messages_dropped - dropped0) as u64);
                self.obs.inc(names::PDMS_FETCH_RETRIES_SPENT, (f.completeness.retries - retries0) as u64);
                self.obs.observe(names::PDMS_FETCH_LATENCY_TICKS, clock - clock0);
            }
        }
        f.completeness.latency_ticks = clock;
        f.completeness.disjuncts_total = union.disjuncts.len();
        f.completeness.disjuncts_dropped = union
            .disjuncts
            .iter()
            .filter(|d| d.body.iter().any(|a| f.staging.get(&a.relation).is_none()))
            .count();
        f
    }

    /// Pose a parsed query at a peer: reformulate over the mapping graph,
    /// fetch the needed relations (riding out whatever faults the plan
    /// injects), evaluate the union over what arrived.
    pub fn query(&self, at_peer: &str, q: &ConjunctiveQuery) -> Result<QueryOutcome, String> {
        self.run_query(at_peer, q, false)
    }

    /// Parallel variant: evaluate the disjuncts on scoped worker threads,
    /// one contiguous chunk per available core. Same answers, stats, and
    /// completeness as [`PdmsNetwork::query`] — the fetch phase (and hence
    /// the fault schedule) is shared, and only disjunct evaluation fans
    /// out.
    pub fn query_parallel(&self, at_peer: &str, q: &ConjunctiveQuery) -> Result<QueryOutcome, String> {
        self.run_query(at_peer, q, true)
    }

    fn run_query(
        &self,
        at_peer: &str,
        q: &ConjunctiveQuery,
        parallel: bool,
    ) -> Result<QueryOutcome, String> {
        if !self.peers.contains_key(at_peer) {
            return Err(format!("unknown peer {at_peer:?}"));
        }
        let root = self.obs.span(if parallel { "pdms.query_parallel" } else { "pdms.query" });
        root.set("peer", at_peer);
        root.set("query", q);
        let (reformulation, deps) = self.reformulate_cached(q, &root);
        let scope = deps.map(|deps| self.plan_scope(deps));
        let fetched = self.fetch_phase(at_peer, &reformulation.union, &root);
        let run = DisjunctRun {
            staging: &fetched.staging,
            scope: scope.as_ref(),
            cacheable: fetched.completeness.is_complete(),
        };

        // Evaluate disjuncts (those whose relations are all staged), each
        // under a cached-or-fresh plan.
        let disjuncts = &reformulation.union.disjuncts;
        let results: Vec<Option<Relation>> = if parallel {
            let workers = revere_query::vec::available_cores();
            let per_worker = disjuncts.len().div_ceil(workers).max(1);
            // Workers record no spans: span order would depend on thread
            // scheduling and break trace determinism. Metrics counters
            // *are* commutative, so the per-step `query.eval.*` accounting
            // (incl. the `step_bindings` histogram) is emitted exactly as
            // on the sequential path — `tests/trace_obs.rs` asserts the
            // parity.
            std::thread::scope(|s| {
                let run = &run;
                let handles: Vec<_> = disjuncts
                    .chunks(per_worker)
                    .enumerate()
                    .map(|(c, chunk)| {
                        let first = c * per_worker;
                        s.spawn(move || {
                            chunk
                                .iter()
                                .enumerate()
                                .map(|(k, d)| self.eval_disjunct_untraced(first + k, d, run))
                                .collect::<Vec<_>>()
                        })
                    })
                    .collect();
                handles
                    .into_iter()
                    .flat_map(|h| h.join().expect("disjunct worker panicked"))
                    .collect()
            })
        } else {
            disjuncts
                .iter()
                .enumerate()
                .map(|(i, d)| self.eval_disjunct(i, d, &run, &root))
                .collect()
        };
        // Merging in disjunct order and then `distinct()` (which sorts and
        // dedups) makes the final row order a pure function of the query,
        // independent of thread scheduling and identical on both paths.
        // The union is built once, shaped by the first evaluated disjunct.
        let mut schema = None;
        let mut rows = Vec::new();
        for r in results.into_iter().flatten() {
            schema.get_or_insert_with(|| r.schema.clone());
            rows.extend(r.into_rows());
        }
        let answers = match schema {
            Some(schema) => Relation::with_rows(schema, rows).distinct(),
            // Every disjunct dropped: the empty relation, shaped by the
            // first disjunct's head as `eval_union` shapes it, behind the
            // same two checks.
            None => {
                let shape_error = |m: &str| EvalError { message: m.into() }.to_string();
                let first = disjuncts.first().ok_or_else(|| shape_error("empty union"))?;
                if disjuncts.iter().any(|d| d.head.terms.len() != first.head.terms.len()) {
                    return Err(shape_error("union disjuncts have different head arity"));
                }
                Relation::new(head_schema(first))
            }
        };
        root.set("answers", answers.len());
        root.set("complete", fetched.completeness.is_complete());
        Ok(QueryOutcome {
            answers,
            reformulation,
            peers_contacted: fetched.peers_contacted,
            messages: fetched.messages,
            tuples_shipped: fetched.tuples_shipped,
            completeness: fetched.completeness,
        })
    }

    /// Evaluate disjunct `i` on the sequential path: under its own span,
    /// profiled, with the profile fed back to the estimator. `None` when
    /// it cannot be evaluated against what was staged.
    fn eval_disjunct(
        &self,
        i: usize,
        d: &ConjunctiveQuery,
        run: &DisjunctRun<'_>,
        root: &SpanHandle,
    ) -> Option<Relation> {
        let span = root.child("pdms.eval.disjunct");
        let (plan, verdict) = self.plan_for(i, d, run);
        if span.is_recording() {
            // The canonical form, not `d` itself: reformulation mints
            // fresh variable names from a process-wide counter, so the
            // raw text varies run to run while the canonical key is
            // byte-stable — the golden-trace contract needs the latter.
            span.set("disjunct", plan.key());
            match verdict {
                PlanVerdict::Bypass => span.set("plan_cache", "bypass"),
                PlanVerdict::Hit => span.set("plan_cache", "hit"),
                PlanVerdict::Miss { stale_owner } => {
                    span.set("plan_cache", "miss");
                    if let Some(owner) = stale_owner {
                        span.set("stale_owner", owner);
                    }
                }
            }
        }
        let (bag, profiles) =
            revere_query::eval_planned(d, &plan, run.staging, &self.obs, &span).ok()?;
        // Feed actuals back only when the fetch was complete: a partial
        // staging would teach the estimator that missing data means
        // empty joins.
        if run.cacheable {
            self.feed_back(&plan, &profiles);
        }
        let answers = bag.distinct();
        span.set("answers", answers.len());
        Some(answers)
    }

    /// Evaluate disjunct `i` on a `query_parallel` worker: no span, no
    /// feedback (worker scheduling would make last-write-wins learned
    /// values nondeterministic).
    fn eval_disjunct_untraced(
        &self,
        i: usize,
        d: &ConjunctiveQuery,
        run: &DisjunctRun<'_>,
    ) -> Option<Relation> {
        let (plan, _) = self.plan_for(i, d, run);
        revere_query::eval_planned(d, &plan, run.staging, &self.obs, &SpanHandle::none())
            .map(|(bag, _)| bag.distinct())
            .ok()
    }

    /// `EXPLAIN ANALYZE` for a query posed at a peer: reformulate and
    /// fetch exactly as [`PdmsNetwork::query`] would, then render each
    /// disjunct's plan with estimated vs measured per-step cardinalities
    /// and q-error (see [`revere_query::plan::explain_analyze`]).
    /// Disjuncts that cannot be evaluated against the staged data are
    /// reported inline rather than dropped.
    pub fn explain_analyze(&self, at_peer: &str, q: &ConjunctiveQuery) -> Result<String, String> {
        if !self.peers.contains_key(at_peer) {
            return Err(format!("unknown peer {at_peer:?}"));
        }
        let (reformulation, _) = self.reformulate_cached(q, &SpanHandle::none());
        let fetched = self.fetch_phase(at_peer, &reformulation.union, &SpanHandle::none());
        let mut out = format!(
            "explain analyze at {at_peer}: {q}\n{} disjunct(s), fetch {}\n",
            reformulation.union.disjuncts.len(),
            fetched.completeness,
        );
        for (i, d) in reformulation.union.disjuncts.iter().enumerate() {
            out.push_str(&format!("disjunct {}: {d}\n", i + 1));
            match revere_query::plan::explain_analyze(d, &fetched.staging) {
                Ok(ea) => out.push_str(&ea.to_string()),
                Err(e) => out.push_str(&format!("  (not evaluable: {e})\n")),
            }
        }
        Ok(out)
    }

    /// `EXPLAIN ANALYZE` for a textual query (see
    /// [`PdmsNetwork::explain_analyze`]).
    pub fn explain_analyze_str(&self, at_peer: &str, query: &str) -> Result<String, String> {
        let q = parse_query(query).map_err(|e| e.to_string())?;
        self.explain_analyze(at_peer, &q)
    }

    /// Every peer's stored relations and learned join statistics merged
    /// into one [`Catalog`] — what evaluating "at" the whole network reads
    /// (the subscriptions' base, experiments, the tests' oracles).
    pub fn snapshot_all(&self) -> Catalog {
        let mut c = Catalog::new();
        for p in self.peers.values() {
            p.storage.read(|cat| {
                for name in cat.names() {
                    if let Some(r) = cat.get(name) {
                        c.register(r.clone());
                    }
                }
                c.absorb_join_stats(cat.join_stats());
            });
        }
        c
    }

    // -----------------------------------------------------------------
    // Continuous queries (delta-dataflow IVM over the overlay)
    // -----------------------------------------------------------------

    /// Build the mirrored base snapshot on first use, and start every
    /// durable peer's WAL cursor at its current tail (the snapshot
    /// already contains everything journaled so far).
    fn ensure_subs_base(&mut self) {
        if self.subs_base.is_some() {
            return;
        }
        self.subs_base = Some(self.snapshot_all());
        for (name, disk) in &self.disks {
            self.wal_cursors.insert(name.clone(), disk.journal().next_lsn());
        }
    }

    /// Register a continuous query at a peer. The query is reformulated
    /// over the mapping graph exactly like [`PdmsNetwork::query`]; each
    /// evaluable disjunct is compiled into a circuit and initialized
    /// against the current network contents, so [`Subscription::answers`]
    /// immediately equals what a one-shot query would return. Disjuncts
    /// referencing unreachable relations are dropped and counted.
    /// Replaces any existing subscription of the same name.
    pub fn subscribe_str(
        &mut self,
        at_peer: &str,
        name: &str,
        query: &str,
    ) -> Result<&Subscription, String> {
        let q = parse_query(query).map_err(|e| e.to_string())?;
        self.subscribe_cq(at_peer, name, q)
    }

    /// [`PdmsNetwork::subscribe_str`] for an already-parsed query.
    pub fn subscribe_cq(
        &mut self,
        at_peer: &str,
        name: &str,
        q: ConjunctiveQuery,
    ) -> Result<&Subscription, String> {
        if !self.peers.contains_key(at_peer) {
            return Err(format!("unknown peer {at_peer:?}"));
        }
        // Absorb pending durable-peer mutations first, so the circuits
        // initialize against the same state later deltas are signed from.
        self.sync_durable_subscriptions();
        self.ensure_subs_base();
        let (reformulation, _) = self.reformulate_cached(&q, &SpanHandle::none());
        let base = self.subs_base.as_ref().expect("ensured above");
        let sub = Subscription {
            at_peer: at_peer.to_string(),
            view: MaterializedView::union(name, q, &reformulation.union.disjuncts, base),
            disjuncts_total: reformulation.union.disjuncts.len(),
            refreshes: 0,
            skipped: 0,
        };
        self.subs.insert(name.to_string(), sub);
        Ok(self.subs.get(name).expect("just inserted"))
    }

    /// Remove a subscription, returning its final state.
    pub fn unsubscribe(&mut self, name: &str) -> Option<Subscription> {
        self.subs.remove(name)
    }

    /// Borrow a subscription.
    pub fn subscription(&self, name: &str) -> Option<&Subscription> {
        self.subs.get(name)
    }

    /// Registered subscription names.
    pub fn subscription_names(&self) -> impl Iterator<Item = &str> {
        self.subs.keys().map(String::as_str)
    }

    /// Apply an updategram to the relation's owning peer and push the
    /// resulting delta through every affected subscription. The delta is
    /// signed against the pre-state (a delete retracts every stored copy
    /// of a row, duplicate inserts each count), applied to the owner's
    /// catalog and the mirrored base, and re-fires *only* subscriptions
    /// whose base relations it touches — everyone else pays one set
    /// lookup. Errors when the relation is unqualified, its owner is not
    /// a member, or the owner does not store it.
    pub fn publish(&mut self, gram: &Updategram) -> Result<PublishReport, String> {
        let Some((owner, _)) = split_qualified(&gram.relation) else {
            return Err(format!("relation {:?} is not peer-qualified", gram.relation));
        };
        let owner = owner.to_string();
        let Some(peer) = self.peers.get(&owner) else {
            return Err(format!("unknown peer {owner:?}"));
        };
        if !peer.storage.read(|c| c.get(&gram.relation).is_some()) {
            return Err(format!("peer {owner:?} does not store {:?}", gram.relation));
        }
        // Catch up on out-of-band durable-peer mutations so this gram's
        // deltas are signed against the state subscribers actually hold.
        self.sync_durable_subscriptions();
        self.ensure_subs_base();
        let base = self.subs_base.as_ref().expect("ensured above");
        let batch = gram_to_batch(base, gram);
        self.peers
            .get(&owner)
            .expect("membership checked above")
            .storage
            .write(|c| apply_updategrams(c, std::slice::from_ref(gram)));
        // The application above may itself have journaled records on a
        // durable owner; advance the cursor past them — their effect is
        // exactly this batch, which is pushed below.
        if let Some(disk) = self.disks.get(&owner) {
            self.wal_cursors.insert(owner.clone(), disk.journal().next_lsn());
        }
        apply_updategrams(
            self.subs_base.as_mut().expect("ensured above"),
            std::slice::from_ref(gram),
        );
        Ok(self.refire(&batch))
    }

    /// Absorb durable peers' journal suffixes into the subscription layer:
    /// mutations made *directly* on a durable peer's catalog (bypassing
    /// [`PdmsNetwork::publish`]) are recovered from its WAL via per-peer
    /// LSN cursors, replayed into the mirrored base as signed row deltas,
    /// and pushed through affected subscriptions. Returns the number of
    /// distinct changed rows absorbed. No-op (0) before the first
    /// subscription.
    pub fn sync_durable_subscriptions(&mut self) -> usize {
        if self.subs_base.is_none() {
            return 0;
        }
        let mut changed = 0;
        let names: Vec<String> = self.disks.keys().cloned().collect();
        for name in names {
            let journal = self.disks.get(&name).expect("listed above").journal();
            let cursor = self.wal_cursors.get(&name).copied().unwrap_or(0);
            let records = journal.records_from(cursor);
            self.wal_cursors.insert(name.clone(), journal.next_lsn());
            if records.is_empty() {
                continue;
            }
            let deltas = row_deltas(&records, self.subs_base.as_mut().expect("checked above"));
            let mut batch = DeltaBatch::new();
            for (rel, row, w) in deltas {
                batch.add(rel, row, w);
            }
            if batch.is_empty() {
                continue;
            }
            changed += batch.len();
            self.refire(&batch);
        }
        changed
    }

    /// Push one signed batch through every affected subscription.
    fn refire(&mut self, batch: &DeltaBatch) -> PublishReport {
        let mut report = PublishReport::default();
        for (name, sub) in self.subs.iter_mut() {
            if !batch.relations().any(|r| sub.view.relations().contains(r)) {
                sub.skipped += 1;
                report.skipped += 1;
                continue;
            }
            report.output_changes += sub.view.push(batch);
            sub.refreshes += 1;
            report.refreshed.push(name.clone());
        }
        report
    }
}

// Named by `crates/e2e/src/surface.rs`; delete with the next `benchmark`
// issue.

/// The maintainer selector of the two-maintainer era; circuits are left.
#[doc(hidden)]
#[derive(Debug, Clone, Copy)]
pub enum IvmStrategy {
    Dataflow,
}

impl PdmsNetwork {
    #[doc(hidden)]
    pub fn subscribe(
        &mut self,
        at_peer: &str,
        name: &str,
        query: &str,
        _strategy: IvmStrategy,
    ) -> Result<&Subscription, String> {
        self.subscribe_str(at_peer, name, query)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use revere_storage::{RelSchema, Value};
    use revere_util::fault::FaultSpec;

    /// The Figure 2 network in miniature: three universities, chain
    /// mappings, course data everywhere.
    fn university_network() -> PdmsNetwork {
        let mut net = PdmsNetwork::new();
        for (peer, rel, rows) in [
            ("MIT", "subject", vec![("Databases", 120i64)]),
            ("Berkeley", "course", vec![("Ancient Greece", 40), ("Databases", 95)]),
            ("Tsinghua", "kecheng", vec![("Roman Law", 25)]),
        ] {
            let mut p = Peer::new(peer);
            let mut r = Relation::new(RelSchema::new(
                rel,
                vec![
                    revere_storage::Attribute::text("title"),
                    revere_storage::Attribute::int("enrollment"),
                ],
            ));
            for (t, e) in rows {
                r.insert(vec![Value::str(t), Value::Int(e)]);
            }
            p.add_relation(r);
            net.add_peer(p);
        }
        net.add_mapping(
            GlavMapping::parse(
                "m_bm",
                "Berkeley",
                "MIT",
                "m(T, E) :- Berkeley.course(T, E) ==> m(T, E) :- MIT.subject(T, E)",
            )
            .unwrap(),
        );
        net.add_mapping(
            GlavMapping::parse(
                "m_tb",
                "Tsinghua",
                "Berkeley",
                "m(T, E) :- Tsinghua.kecheng(T, E) ==> m(T, E) :- Berkeley.course(T, E)",
            )
            .unwrap(),
        );
        net
    }

    #[test]
    fn query_reaches_all_peers_transitively() {
        let net = university_network();
        let out = net.query_str("MIT", "q(T, E) :- MIT.subject(T, E)").unwrap();
        // All four (title, enrollment) pairs from all three peers.
        assert_eq!(out.answers.len(), 4, "{}", out.answers);
        assert_eq!(out.peers_contacted.len(), 3);
        assert!(out.messages >= 4); // two remote peers, ≥1 relation each
        assert!(out.tuples_shipped >= 3);
        // The perfect network leaves no gaps to report.
        assert!(out.completeness.is_complete(), "{:?}", out.completeness);
        assert_eq!(out.completeness.retries, 0);
        assert_eq!(out.completeness.latency_ticks, 0);
        assert!((out.completeness.coverage() - 1.0).abs() < f64::EPSILON);
    }

    #[test]
    fn query_in_any_peers_vocabulary() {
        let net = university_network();
        // Same information need, posed at Tsinghua in its own vocabulary.
        let out = net.query_str("Tsinghua", "q(T, E) :- Tsinghua.kecheng(T, E)").unwrap();
        assert_eq!(out.answers.len(), 4);
    }

    #[test]
    fn local_only_when_no_mappings() {
        let mut net = PdmsNetwork::new();
        let mut p = Peer::new("Lonely");
        let mut r = Relation::new(RelSchema::text("course", &["title"]));
        r.insert(vec![Value::str("Solipsism 101")]);
        p.add_relation(r);
        net.add_peer(p);
        let out = net.query_str("Lonely", "q(T) :- Lonely.course(T)").unwrap();
        assert_eq!(out.answers.len(), 1);
        assert_eq!(out.messages, 0);
        assert_eq!(out.tuples_shipped, 0);
        assert!(out.completeness.is_complete());
    }

    #[test]
    fn selections_are_pushed_through_mappings() {
        let net = university_network();
        let out = net
            .query_str("MIT", "q(T, E) :- MIT.subject(T, E), E > 50")
            .unwrap();
        // Databases@MIT (120) and Databases@Berkeley (95).
        assert_eq!(out.answers.len(), 2, "{}", out.answers);
    }

    #[test]
    fn unknown_peer_is_an_error() {
        let net = university_network();
        assert!(net.query_str("Oxford", "q(T) :- Oxford.course(T)").is_err());
    }

    #[test]
    #[should_panic(expected = "unknown source peer")]
    fn mapping_to_unknown_peer_panics() {
        let mut net = PdmsNetwork::new();
        net.add_peer(Peer::new("A"));
        net.add_mapping(
            GlavMapping::parse("m", "Ghost", "A", "m(X) :- Ghost.r(X) ==> m(X) :- A.r(X)").unwrap(),
        );
    }

    #[test]
    fn try_add_mapping_rejects_bad_edges_gracefully() {
        let mut net = PdmsNetwork::new();
        net.add_peer(Peer::new("A"));
        net.add_peer(Peer::new("B"));
        let good = GlavMapping::parse("m", "A", "B", "m(X) :- A.r(X) ==> m(X) :- B.r(X)").unwrap();
        assert!(net.try_add_mapping(good).is_ok());
        let bad_src =
            GlavMapping::parse("m", "Ghost", "B", "m(X) :- Ghost.r(X) ==> m(X) :- B.r(X)").unwrap();
        let err = net.try_add_mapping(bad_src).unwrap_err();
        assert!(err.contains("unknown source peer Ghost"), "{err}");
        let bad_tgt =
            GlavMapping::parse("m", "A", "Ghost", "m(X) :- A.r(X) ==> m(X) :- Ghost.r(X)").unwrap();
        let err = net.try_add_mapping(bad_tgt).unwrap_err();
        assert!(err.contains("unknown target peer Ghost"), "{err}");
        // Rejected edges leave the graph untouched.
        assert_eq!(net.mapping_count(), 1);
    }

    #[test]
    fn parallel_execution_matches_sequential() {
        // Both paths normalize through `distinct()`, so the comparison is
        // exact — same rows in the same order, no re-sorting needed.
        let net = university_network();
        let q = parse_query("q(T) :- MIT.subject(T, E)").unwrap();
        let seq = net.query("MIT", &q).unwrap();
        let par = net.query_parallel("MIT", &q).unwrap();
        assert_eq!(seq.answers.rows(), par.answers.rows());
    }

    #[test]
    fn sequential_and_parallel_stats_are_identical() {
        // The fetch phase is one shared routine: both paths must report
        // exactly the same accounting, not just the same rows.
        let net = university_network();
        let q = parse_query("q(T, E) :- MIT.subject(T, E)").unwrap();
        let seq = net.query("MIT", &q).unwrap();
        let par = net.query_parallel("MIT", &q).unwrap();
        assert_eq!(seq.messages, par.messages);
        assert_eq!(seq.tuples_shipped, par.tuples_shipped);
        assert_eq!(seq.peers_contacted, par.peers_contacted);
        assert_eq!(seq.completeness, par.completeness);
    }

    #[test]
    fn parallel_execution_is_deterministic_across_runs() {
        // The disjunct workers race, but the merged answer must not: row
        // order is normalized, so repeated runs are byte-identical.
        let net = university_network();
        let q = parse_query("q(T, E) :- MIT.subject(T, E)").unwrap();
        let first = net.query_parallel("MIT", &q).unwrap();
        for _ in 0..8 {
            let again = net.query_parallel("MIT", &q).unwrap();
            assert_eq!(first.answers.rows(), again.answers.rows());
        }
        // Sorted normalization: each row ≤ its successor.
        assert!(first.answers.rows().windows(2).all(|w| w[0] <= w[1]));
    }

    #[test]
    fn peer_departure_degrades_gracefully() {
        // "every member can join or leave at will": drop Berkeley's data;
        // MIT still gets its local answers plus whatever remains reachable
        // — and the gap is *reported*, not silently absorbed.
        let mut net = university_network();
        net.peer_mut("Berkeley").unwrap().storage =
            revere_storage::SharedCatalog::new(Catalog::new());
        let out = net.query_str("MIT", "q(T) :- MIT.subject(T, E)").unwrap();
        // MIT local (1) + Tsinghua via the two-hop translation (1).
        assert_eq!(out.answers.len(), 2, "{}", out.answers);
        assert!(!out.completeness.is_complete());
        assert!(out.completeness.relations_missing.contains("Berkeley.course"));
        assert!(out.completeness.disjuncts_dropped >= 1);
    }

    #[test]
    fn ghost_owner_is_a_reported_gap_not_a_silent_shrink() {
        // Regression for the silent-shrinkage bug: a relation whose owner
        // has left the network must surface in the completeness report.
        let mut net = university_network();
        let departed = net.remove_peer("Berkeley");
        assert!(departed.is_some());
        let out = net.query_str("MIT", "q(T, E) :- MIT.subject(T, E)").unwrap();
        // Smaller answer, as before ...
        assert_eq!(out.answers.len(), 2, "{}", out.answers);
        // ... but now the ghost is named instead of vanishing without trace.
        assert!(!out.completeness.is_complete());
        assert!(out.completeness.peers_unreachable.contains("Berkeley"));
        assert!(out.completeness.relations_missing.contains("Berkeley.course"));
        assert!(out.completeness.disjuncts_dropped >= 1);
        assert!(out.completeness.coverage() < 1.0);
    }

    #[test]
    fn all_disjuncts_dropped_is_an_empty_answer_shaped_by_the_head() {
        // No peer stores anything any more: every disjunct names an
        // unreachable relation, and the answer is shaped without
        // evaluating (or re-planning) anything.
        let mut net = university_network();
        net.obs = Obs::enabled();
        for peer in ["MIT", "Berkeley", "Tsinghua"] {
            net.peer_mut(peer).unwrap().storage =
                revere_storage::SharedCatalog::new(Catalog::new());
        }
        let out = net.query_str("MIT", "q(T, 'tag') :- MIT.subject(T, E)").unwrap();
        assert!(out.answers.is_empty());
        assert_eq!(out.answers.schema.name, "q");
        assert_eq!(out.answers.schema.attr_names().collect::<Vec<_>>(), ["T", "c1"]);
        assert_eq!(out.completeness.disjuncts_dropped, out.reformulation.union.disjuncts.len());
        let snapshot = net.obs.metrics().unwrap().snapshot().to_string();
        assert!(!snapshot.contains("query.eval."), "{snapshot}");
    }

    #[test]
    fn downed_peer_yields_partial_answer_with_report() {
        let mut net = university_network();
        net.faults = FaultPlan::new(FaultSpec::default().with_down_peer("Berkeley"));
        let out = net.query_str("MIT", "q(T, E) :- MIT.subject(T, E)").unwrap();
        assert_eq!(out.answers.len(), 2, "{}", out.answers);
        assert!(out.completeness.peers_unreachable.contains("Berkeley"));
        assert!(out.completeness.relations_missing.contains("Berkeley.course"));
        // Every attempt was a request into the void.
        assert_eq!(out.completeness.retries as u32, net.retry.attempts() - 1);
        assert!(out.completeness.messages_dropped > 0);
        assert!(out.completeness.latency_ticks > 0, "backoff advances the clock");
    }

    #[test]
    fn message_budget_truncates_with_report() {
        let mut net = university_network();
        // Room for exactly one remote fetch (2 messages), not two.
        net.budget.max_messages = Some(2);
        let out = net.query_str("MIT", "q(T, E) :- MIT.subject(T, E)").unwrap();
        assert!(out.messages <= 2);
        assert!(out.completeness.budget_exhausted);
        assert!(!out.completeness.is_complete());
        assert_eq!(out.completeness.relations_missing.len(), 1);
        // Local data always survives a blown budget.
        assert!(out.answers.len() >= 1);
    }

    #[test]
    fn deadline_truncates_with_report() {
        let mut net = university_network();
        net.faults = FaultPlan::new(FaultSpec {
            latency_ticks: (3, 3),
            ..FaultSpec::default()
        });
        net.budget.deadline_ticks = Some(2);
        let out = net.query_str("MIT", "q(T, E) :- MIT.subject(T, E)").unwrap();
        // First remote fetch starts at tick 0 (< 2) and lands at tick 3;
        // the second is past the deadline before it starts.
        assert!(out.completeness.deadline_exceeded);
        assert_eq!(out.completeness.relations_missing.len(), 1);
        assert_eq!(out.completeness.latency_ticks, 3);
    }

    #[test]
    fn zero_fault_plan_is_byte_identical_to_default() {
        let plain = university_network();
        let mut chaos_off = university_network();
        chaos_off.faults = FaultPlan::new(FaultSpec::chaos(99, 0.0));
        let q = parse_query("q(T, E) :- MIT.subject(T, E)").unwrap();
        let a = plain.query("MIT", &q).unwrap();
        let b = chaos_off.query("MIT", &q).unwrap();
        assert_eq!(a.answers.rows(), b.answers.rows());
        assert_eq!(a.messages, b.messages);
        assert_eq!(a.tuples_shipped, b.tuples_shipped);
        assert_eq!(a.peers_contacted, b.peers_contacted);
        assert_eq!(a.completeness, b.completeness);
    }

    #[test]
    fn warm_cache_answers_are_byte_identical_and_counted() {
        let net = university_network();
        let q = parse_query("q(T, E) :- MIT.subject(T, E)").unwrap();
        let cold = net.query("MIT", &q).unwrap();
        let stats = net.cache_stats();
        assert_eq!(stats.reformulation_hits, 0);
        assert_eq!(stats.reformulation_misses, 1);
        assert!(stats.plan_misses > 0);
        for _ in 0..3 {
            let warm = net.query("MIT", &q).unwrap();
            assert_eq!(cold.answers.rows(), warm.answers.rows());
            assert_eq!(cold.completeness, warm.completeness);
        }
        let stats = net.cache_stats();
        assert_eq!(stats.reformulation_hits, 3);
        assert_eq!(stats.reformulation_misses, 1);
        // Every disjunct of every warm query came from the plan cache.
        assert_eq!(stats.plan_hits, 3 * cold.reformulation.union.disjuncts.len());
    }

    #[test]
    fn caching_disabled_is_byte_identical() {
        let cached = university_network();
        let mut plain = university_network();
        plain.caching = false;
        let q = parse_query("q(T, E) :- MIT.subject(T, E), E > 30").unwrap();
        for _ in 0..2 {
            let a = cached.query("MIT", &q).unwrap();
            let b = plain.query("MIT", &q).unwrap();
            assert_eq!(a.answers.rows(), b.answers.rows());
            assert_eq!(a.completeness, b.completeness);
        }
        assert_eq!(plain.cache_stats(), CacheStats::default());
    }

    #[test]
    fn adding_a_mapping_invalidates_the_caches() {
        let mut net = university_network();
        let q = parse_query("q(T, E) :- MIT.subject(T, E)").unwrap();
        let before = net.query("MIT", &q).unwrap();
        assert_eq!(before.answers.len(), 4);
        // A new peer + mapping makes more data reachable; a stale cached
        // reformulation would keep answering without it.
        let mut p = Peer::new("Oxford");
        let mut r = Relation::new(RelSchema::new(
            "module",
            vec![
                revere_storage::Attribute::text("title"),
                revere_storage::Attribute::int("enrollment"),
            ],
        ));
        r.insert(vec![Value::str("Logic"), Value::Int(77)]);
        p.add_relation(r);
        net.add_peer(p);
        net.add_mapping(
            GlavMapping::parse(
                "m_om",
                "Oxford",
                "MIT",
                "m(T, E) :- Oxford.module(T, E) ==> m(T, E) :- MIT.subject(T, E)",
            )
            .unwrap(),
        );
        let after = net.query("MIT", &q).unwrap();
        assert_eq!(after.answers.len(), 5, "{}", after.answers);
        assert!(after.answers.iter().any(|r| r[0] == Value::str("Logic")));
    }

    #[test]
    fn removing_a_peer_invalidates_the_caches() {
        let mut net = university_network();
        let q = parse_query("q(T, E) :- MIT.subject(T, E)").unwrap();
        assert_eq!(net.query("MIT", &q).unwrap().answers.len(), 4);
        net.remove_peer("Tsinghua");
        let after = net.query("MIT", &q).unwrap();
        assert_eq!(after.answers.len(), 3, "{}", after.answers);
        assert!(!after.completeness.is_complete());
    }

    #[test]
    fn peer_data_changes_invalidate_via_the_stats_epoch() {
        let net = university_network();
        let q = parse_query("q(T, E) :- MIT.subject(T, E)").unwrap();
        assert_eq!(net.query("MIT", &q).unwrap().answers.len(), 4);
        // Write through the peer's own storage — no network-level mutator
        // involved, so only the catalog stats epoch can catch it.
        net.peer("Berkeley").unwrap().storage.write(|c| {
            c.insert("Berkeley.course", vec![Value::str("Rhetoric"), Value::Int(12)])
        });
        let after = net.query("MIT", &q).unwrap();
        assert_eq!(after.answers.len(), 5, "{}", after.answers);
    }

    #[test]
    fn incomplete_fetches_do_not_poison_the_plan_cache() {
        let mut net = university_network();
        net.faults = FaultPlan::new(FaultSpec::default().with_down_peer("Berkeley"));
        let q = parse_query("q(T, E) :- MIT.subject(T, E)").unwrap();
        let degraded = net.query("MIT", &q).unwrap();
        assert!(!degraded.completeness.is_complete());
        // Plans costed against the partial staging data were not cached.
        assert_eq!(net.cache_stats().plan_hits, 0);
        let again = net.query("MIT", &q).unwrap();
        assert_eq!(degraded.answers.rows(), again.answers.rows());
        // The reformulation *is* reused (it never depends on the data)...
        assert_eq!(net.cache_stats().reformulation_hits, 1);
        // ...but every disjunct replanned.
        assert_eq!(net.cache_stats().plan_hits, 0);
    }

    #[test]
    fn parallel_path_shares_the_caches() {
        let net = university_network();
        let q = parse_query("q(T, E) :- MIT.subject(T, E)").unwrap();
        let seq = net.query("MIT", &q).unwrap();
        let par = net.query_parallel("MIT", &q).unwrap();
        assert_eq!(seq.answers.rows(), par.answers.rows());
        let stats = net.cache_stats();
        assert_eq!(stats.reformulation_hits, 1);
        assert_eq!(stats.plan_hits, seq.reformulation.union.disjuncts.len());
    }

    #[test]
    fn clear_caches_resets_entries_and_counters() {
        let net = university_network();
        let q = parse_query("q(T, E) :- MIT.subject(T, E)").unwrap();
        net.query("MIT", &q).unwrap();
        net.query("MIT", &q).unwrap();
        assert!(net.cache_stats().reformulation_hits > 0);
        net.clear_caches();
        assert_eq!(net.cache_stats(), CacheStats::default());
        let out = net.query("MIT", &q).unwrap();
        assert_eq!(out.answers.len(), 4);
        assert_eq!(net.cache_stats().reformulation_misses, 1);
    }

    #[test]
    fn caches_stay_within_capacity_and_never_change_an_answer() {
        let cached = university_network();
        let mut plain = university_network();
        plain.caching = false;
        // More distinct query texts than the reformulation cache holds,
        // each with disjunct shapes of its own: the constants differ.
        let texts = |i: usize| format!("q(T, E) :- MIT.subject(T, E), E > {i}");
        for i in 0..REFORMULATION_CAPACITY + 40 {
            let (a, b) = (
                cached.query_str("MIT", &texts(i)).unwrap(),
                plain.query_str("MIT", &texts(i)).unwrap(),
            );
            assert_eq!(a.answers.rows(), b.answers.rows(), "query {i}");
            let caches = cached.lock_caches();
            assert!(caches.reformulations.entries.len() <= REFORMULATION_CAPACITY);
            assert!(caches.plans.entries.len() <= PLAN_CAPACITY);
        }
        // The oldest texts were evicted, the newest are still served.
        let before = cached.cache_stats();
        cached.query_str("MIT", &texts(0)).unwrap();
        cached.query_str("MIT", &texts(REFORMULATION_CAPACITY + 39)).unwrap();
        let after = cached.cache_stats();
        assert_eq!(after.reformulation_misses, before.reformulation_misses + 1);
        assert_eq!(after.reformulation_hits, before.reformulation_hits + 1);
    }

    #[test]
    fn bounded_map_drops_the_older_half_when_full() {
        let mut m = BoundedMap::new(4);
        for k in 0..4 {
            m.insert(k, k * 10);
        }
        // Overwriting a held key never evicts, and makes it the youngest.
        m.insert(0, 1);
        assert_eq!(m.entries.len(), 4);
        m.insert(4, 40);
        let mut held: Vec<i32> = m.entries.keys().copied().collect();
        held.sort_unstable();
        assert_eq!(held, [0, 4], "1, 2 and 3 were the three oldest");
        assert_eq!(m.get(&0), Some(&1));
        assert_eq!(m.remove(&4), Some(40));
    }

    #[test]
    fn reformulation_audits_back_off_and_count_as_misses() {
        let net = university_network();
        let q = parse_query("q(T, E) :- MIT.subject(T, E)").unwrap();
        let cold = net.query("MIT", &q).unwrap();
        let mut audits = Vec::new();
        for lookup in 1..=70u64 {
            let before = net.cache_stats().reformulation_misses;
            let out = net.query("MIT", &q).unwrap();
            assert_eq!(out.answers.rows(), cold.answers.rows());
            if net.cache_stats().reformulation_misses > before {
                audits.push(lookup);
            }
        }
        assert_eq!(audits, [16, 64]);
        // An audit re-derives the same disjuncts, so no plan is rebuilt.
        let stats = net.cache_stats();
        assert_eq!(stats.plan_misses, cold.reformulation.union.disjuncts.len(), "{stats}");
    }

    #[test]
    fn cache_stats_display_round_trips() {
        let stats = CacheStats {
            reformulation_hits: 3,
            reformulation_misses: 1,
            plan_hits: 12,
            plan_misses: 4,
            plan_evictions: 2,
        };
        assert_eq!(
            stats.to_string(),
            "reformulation_hits=3 reformulation_misses=1 plan_hits=12 plan_misses=4 \
             plan_evictions=2"
        );
    }

    /// One peer, one join: `course(title, dept) ⋈ dept(name, head)`.
    fn join_network() -> PdmsNetwork {
        let mut net = PdmsNetwork::new();
        let mut p = Peer::new("U");
        let mut course = Relation::new(RelSchema::text("course", &["title", "dept"]));
        for (t, d) in [("Databases", "cs"), ("Compilers", "cs"), ("Ethics", "phil")] {
            course.insert(vec![Value::str(t), Value::str(d)]);
        }
        let mut dept = Relation::new(RelSchema::text("dept", &["name", "head"]));
        for (n, h) in [("cs", "Stonebraker"), ("phil", "Kant")] {
            dept.insert(vec![Value::str(n), Value::str(h)]);
        }
        p.add_relation(course);
        p.add_relation(dept);
        net.add_peer(p);
        net
    }

    #[test]
    fn feedback_evicts_miscalibrated_plans_and_learns_overlap() {
        let mut net = join_network();
        // Hair-trigger threshold: every plan's max q-error is ≥ 1, so
        // every complete execution feeds back and evicts its own entry.
        net.replan_q_error = Some(0.5);
        let q = "q(T, H) :- U.course(T, D), U.dept(D, H)";
        let out = net.query_str("U", q).unwrap();
        assert_eq!(out.answers.len(), 3, "{}", out.answers);
        assert!(net.cache_stats().plan_evictions >= 1, "{}", net.cache_stats());
        // The observed selectivity landed in the owning peer's catalog...
        let learned = net.snapshot_all();
        assert!(!learned.join_stats().is_empty());
        let sel = learned
            .join_stats()
            .overlap("U.course", 1, "U.dept", 0)
            .expect("the join pair was observed");
        // 3 bindings out of 3 probes × 2 build rows.
        assert!((sel - 0.5).abs() < 1e-12, "sel {sel}");
        // ...and answers stay correct (and identical) on the re-planned path.
        let again = net.query_str("U", q).unwrap();
        assert_eq!(again.answers, out.answers);
    }

    #[test]
    fn feedback_disabled_leaves_the_estimator_alone() {
        let mut net = join_network();
        net.replan_q_error = None;
        let q = "q(T, H) :- U.course(T, D), U.dept(D, H)";
        net.query_str("U", q).unwrap();
        net.query_str("U", q).unwrap();
        let stats = net.cache_stats();
        assert_eq!(stats.plan_evictions, 0, "{stats}");
        assert!(stats.plan_hits >= 1, "{stats}");
        assert!(net.snapshot_all().join_stats().is_empty());
    }

    #[test]
    fn completeness_report_display_round_trips() {
        let mut report = CompletenessReport {
            disjuncts_total: 5,
            disjuncts_dropped: 2,
            peers_unreachable: ["Berkeley", "Tsinghua"].iter().map(|s| s.to_string()).collect(),
            relations_missing: ["Berkeley.course"].iter().map(|s| s.to_string()).collect(),
            retries: 7,
            messages_dropped: 3,
            latency_ticks: 42,
            budget_exhausted: true,
            deadline_exceeded: false,
        };
        assert_eq!(
            report.to_string(),
            "disjuncts_total=5 disjuncts_dropped=2 peers_unreachable=Berkeley,Tsinghua \
             relations_missing=Berkeley.course retries=7 messages_dropped=3 latency_ticks=42 \
             budget_exhausted=true deadline_exceeded=false"
        );
        // Empty sets serialize as empty values.
        report.peers_unreachable.clear();
        report.relations_missing.clear();
        assert!(report.to_string().contains(" peers_unreachable= relations_missing= retries=7 "));
    }

    #[test]
    fn live_completeness_reports_round_trip() {
        // The serialization holds for reports the system actually
        // produces, not just hand-built ones: the line names the gap.
        let mut net = university_network();
        net.faults = FaultPlan::new(FaultSpec::default().with_down_peer("Berkeley"));
        let out = net.query_str("MIT", "q(T, E) :- MIT.subject(T, E)").unwrap();
        let text = out.completeness.to_string();
        assert!(text.contains(" peers_unreachable=Berkeley "), "{text}");
        assert!(!out.completeness.is_complete());
    }

    #[test]
    fn explain_analyze_renders_per_disjunct_tables() {
        let net = university_network();
        let text = net.explain_analyze_str("MIT", "q(T, E) :- MIT.subject(T, E)").unwrap();
        assert!(text.contains("explain analyze at MIT"), "{text}");
        assert!(text.contains("disjunct 1:"), "{text}");
        assert!(text.contains("act bind"), "{text}");
        assert!(text.contains("q-err"), "{text}");
        assert!(text.contains("max q-error"), "{text}");
        assert!(net.explain_analyze_str("Oxford", "q(T) :- Oxford.c(T)").is_err());
    }

    #[test]
    fn enabling_obs_never_changes_answers() {
        let plain = university_network();
        let mut traced = university_network();
        traced.obs = Obs::enabled();
        let q = parse_query("q(T, E) :- MIT.subject(T, E)").unwrap();
        let a = plain.query("MIT", &q).unwrap();
        let b = traced.query("MIT", &q).unwrap();
        assert_eq!(a.answers.rows(), b.answers.rows());
        assert_eq!(a.messages, b.messages);
        assert_eq!(a.completeness, b.completeness);
        // And the trace actually recorded the pipeline.
        let spans = traced.obs.tracer().unwrap().spans();
        assert!(spans.iter().any(|s| s.name == "pdms.query"));
        assert!(spans.iter().any(|s| s.name == "pdms.reformulate"));
        assert!(spans.iter().any(|s| s.name == "pdms.fetch"));
        assert!(spans.iter().any(|s| s.name == "pdms.eval.disjunct"));
        assert!(spans.iter().any(|s| s.name == "eval.step"));
        assert!(traced.obs.metrics().unwrap().counter(names::PDMS_FETCH_MESSAGES_SENT) > 0);
    }

    #[test]
    fn obs_trace_mirrors_simulated_latency() {
        let mut net = university_network();
        net.obs = Obs::enabled();
        net.faults = FaultPlan::new(FaultSpec::default().with_down_peer("Berkeley"));
        let out = net.query_str("MIT", "q(T, E) :- MIT.subject(T, E)").unwrap();
        assert!(out.completeness.latency_ticks > 0);
        // The tracer clock advanced by at least the simulated latency
        // (span starts/ends consume extra ticks on top).
        let now = net.obs.tracer().unwrap().now();
        assert!(now >= out.completeness.latency_ticks, "{now}");
        // The down peer's fetch span carries its fault annotations.
        let spans = net.obs.tracer().unwrap().spans();
        let fetch = spans
            .iter()
            .find(|s| s.name == "pdms.fetch" && s.arg("owner") == Some("Berkeley"))
            .expect("fetch span for Berkeley");
        assert_eq!(fetch.arg("outcome"), Some("unreachable"));
        assert!(fetch.arg("dropped").is_some());
        assert!(fetch.arg("latency_ticks").is_some());
    }

    #[test]
    fn new_peer_joining_is_one_mapping_away() {
        // Example 3.1's Trento: join by mapping to the most similar peer.
        let mut net = university_network();
        let mut trento = Peer::new("Trento");
        let mut r = Relation::new(RelSchema::new(
            "corso",
            vec![
                revere_storage::Attribute::text("titolo"),
                revere_storage::Attribute::int("iscritti"),
            ],
        ));
        r.insert(vec![Value::str("Etruscan Art"), Value::Int(15)]);
        trento.add_relation(r);
        net.add_peer(trento);
        net.add_mapping(
            GlavMapping::parse(
                "m_tt",
                "Trento",
                "Tsinghua",
                "m(T, E) :- Trento.corso(T, E) ==> m(T, E) :- Tsinghua.kecheng(T, E)",
            )
            .unwrap(),
        );
        let out = net.query_str("MIT", "q(T, E) :- MIT.subject(T, E)").unwrap();
        assert_eq!(out.answers.len(), 5);
        assert!(out
            .answers
            .iter()
            .any(|r| r[0] == Value::str("Etruscan Art")));
    }

    #[test]
    fn departed_peers_learned_stats_do_not_survive_removal() {
        // A peer that leaves takes its evidence with it: learned join
        // selectivities naming its relations are stale the moment it
        // departs (it may rejoin with different data under the same
        // names) and must not keep steering other peers' plans — nor come
        // back when a durable peer that learned it restarts from its log.
        let mut net = university_network();
        net.enable_durability("MIT").expect("MIT is a member");
        net.peer("MIT").unwrap().storage.write(|c| {
            c.note_join_overlap("MIT.subject", 0, "Berkeley.course", 0, 0.5);
            c.note_join_overlap("MIT.subject", 0, "Tsinghua.kecheng", 0, 0.25);
        });
        let mit = net.peer("MIT").unwrap();
        assert_eq!(mit.storage.read(|c| c.join_stats().len()), 2);
        let epoch_before = mit.storage.epoch();

        net.remove_peer("Berkeley").expect("Berkeley is a member");
        let mit = net.peer("MIT").unwrap();
        assert_eq!(
            mit.storage.read(|c| c.join_stats().overlap("MIT.subject", 0, "Berkeley.course", 0)),
            None,
            "stale evidence about the departed peer is gone"
        );
        assert_eq!(
            mit.storage.read(|c| c.join_stats().overlap("MIT.subject", 0, "Tsinghua.kecheng", 0)),
            Some(0.25),
            "evidence about live peers survives"
        );
        assert!(mit.storage.epoch() != epoch_before, "purge shifts the stats epoch");

        net.restart_peer("MIT").expect("MIT is durable");
        let learned = net.peer("MIT").unwrap().storage.read(|c| c.join_stats().clone());
        assert_eq!(learned.len(), 1, "the purge was journaled: replay does not undo it");
        assert_eq!(learned.overlap("MIT.subject", 0, "Tsinghua.kecheng", 0), Some(0.25));
    }

    #[test]
    fn durable_peer_restart_recovers_catalog_and_schema() {
        let mut net = university_network();
        net.enable_durability("Berkeley").expect("Berkeley is a member");
        // Post-checkpoint mutation: lands in the log, not the image.
        net.peer_mut("Berkeley").unwrap().insert(
            "course",
            vec![Value::str("Crash Recovery"), Value::Int(60)],
        );
        let before = net.query_str("MIT", "q(T, E) :- MIT.subject(T, E)").unwrap();

        let report = net.restart_peer("Berkeley").expect("durable peer restarts");
        assert!(report.image_used);
        assert_eq!(report.replayed, 1, "only the post-checkpoint insert replays");
        assert!(
            net.peer("Berkeley").unwrap().schema.relation("course").is_some(),
            "logical schema is configuration, not volatile state"
        );
        let after = net.query_str("MIT", "q(T, E) :- MIT.subject(T, E)").unwrap();
        assert_eq!(before.answers, after.answers, "answers identical across the restart");
    }

    #[test]
    fn non_durable_peer_cannot_restart() {
        let mut net = university_network();
        assert!(net.restart_peer("Berkeley").is_none(), "no disk, no recovery");
        assert!(net.peer("Berkeley").is_some(), "the live peer is untouched");
        assert!(net.restart_peer("Nowhere").is_none());
    }

    #[test]
    fn subscription_tracks_published_deltas_across_peers() {
        let mut net = university_network();
        let text = "q(T, E) :- MIT.subject(T, E)";
        net.subscribe_str("MIT", "cq", text).unwrap();
        // Initialization lands exactly on the one-shot answer.
        let oneshot = net.query_str("MIT", text).unwrap().answers;
        assert_eq!(net.subscription("cq").unwrap().answers().rows(), oneshot.rows());

        // A remote insert flows through the mapping-reformulated circuit.
        let gram = Updategram::inserts(
            "Berkeley.course",
            vec![vec![Value::str("Distributed Systems"), Value::Int(77)]],
        );
        let report = net.publish(&gram).unwrap();
        assert_eq!(report.refreshed, vec!["cq".to_string()]);
        assert!(report.output_changes >= 1);
        let oneshot = net.query_str("MIT", text).unwrap().answers;
        assert_eq!(net.subscription("cq").unwrap().answers().rows(), oneshot.rows());

        // A delete retracts; the maintained answer shrinks in lockstep.
        let gram = Updategram::deletes(
            "Berkeley.course",
            vec![vec![Value::str("Ancient Greece"), Value::Int(40)]],
        );
        net.publish(&gram).unwrap();
        let oneshot = net.query_str("MIT", text).unwrap().answers;
        assert_eq!(net.subscription("cq").unwrap().answers().rows(), oneshot.rows());
        assert_eq!(net.subscription("cq").unwrap().refreshes, 2);
    }

    #[test]
    fn unaffected_subscription_is_a_counted_noop() {
        let mut net = PdmsNetwork::new();
        for name in ["A", "B"] {
            let mut p = Peer::new(name);
            let mut r = Relation::new(RelSchema::text("r", &["x"]));
            r.insert(vec![Value::str("seed")]);
            p.add_relation(r);
            net.add_peer(p);
        }
        net.subscribe_str("A", "only_a", "q(X) :- A.r(X)").unwrap();
        let work_before = net.subscription("only_a").unwrap().work();
        let report = net
            .publish(&Updategram::inserts("B.r", vec![vec![Value::str("noise")]]))
            .unwrap();
        assert!(report.refreshed.is_empty());
        assert_eq!(report.skipped, 1);
        let sub = net.subscription("only_a").unwrap();
        assert_eq!(sub.skipped, 1);
        assert_eq!(sub.work(), work_before, "no join work for an unaffected delta");
    }

    #[test]
    fn durable_peer_direct_mutations_sync_through_the_wal() {
        let mut net = university_network();
        net.enable_durability("Berkeley").expect("Berkeley is a member");
        let text = "q(T, E) :- MIT.subject(T, E)";
        net.subscribe_str("MIT", "cq", text).unwrap();
        // Mutate the durable peer directly — no publish, no gram.
        net.peer("Berkeley").unwrap().storage.write(|c| {
            c.insert("Berkeley.course", vec![Value::str("WAL Mining"), Value::Int(12)]);
            c.delete("Berkeley.course", &[Value::str("Ancient Greece"), Value::Int(40)]);
        });
        let absorbed = net.sync_durable_subscriptions();
        assert!(absorbed >= 2, "both the insert and the delete are captured");
        let oneshot = net.query_str("MIT", text).unwrap().answers;
        assert_eq!(net.subscription("cq").unwrap().answers().rows(), oneshot.rows());
        // Cursors advanced: a second sync has nothing left to absorb.
        assert_eq!(net.sync_durable_subscriptions(), 0);
    }

    #[test]
    fn publish_rejects_bad_targets() {
        let mut net = university_network();
        let unqualified = Updategram::inserts("course", vec![vec![Value::str("x"), Value::Int(1)]]);
        assert!(net.publish(&unqualified).unwrap_err().contains("not peer-qualified"));
        let ghost =
            Updategram::inserts("Oxford.course", vec![vec![Value::str("x"), Value::Int(1)]]);
        assert!(net.publish(&ghost).unwrap_err().contains("unknown peer"));
        let unstored =
            Updategram::inserts("MIT.course", vec![vec![Value::str("x"), Value::Int(1)]]);
        assert!(net.publish(&unstored).unwrap_err().contains("does not store"));
    }
}
