//! When a reformulation or a plan is still valid.

use super::transport::Fetched;
use super::{owners_of, PdmsNetwork};
use crate::reformulate::{ReformulateOptions, ReformulationResult, Reformulator};
use revere_query::plan::{plan_cq, Plan};
use revere_query::{ConjunctiveQuery, UnionQuery};
use revere_storage::fxhash::FxMap;
use revere_util::obs::SpanHandle;
use std::collections::BTreeSet;
use std::fmt;
use std::hash::Hash;
use std::sync::Arc;

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
pub(super) const REFORMULATION_CAPACITY: usize = 256;

/// Most plans kept at once (a reformulation holds up to a few hundred
/// disjuncts, many of them isomorphic across queries).
pub(super) const PLAN_CAPACITY: usize = 16_384;

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
pub(super) struct Caches {
    /// NOT keyed by the rename-invariant canonical key: a reformulation
    /// carries the query's own head variables into every disjunct, so
    /// serving it for a merely-isomorphic query would change the answer
    /// schema.
    pub(super) reformulations: BoundedMap<(ReformulateOptions, String), CachedReformulation>,
    /// Plans *do* transfer across isomorphic disjuncts, because the
    /// executor re-projects from the query it is given
    /// ([`revere_query::eval_planned`]).
    pub(super) plans: BoundedMap<String, CachedPlan>,
    pub(super) stats: CacheStats,
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
pub(super) struct CachedReformulation {
    topology: u64,
    result: Arc<ReformulationResult>,
    deps: Arc<UnionDeps>,
}

#[derive(Debug)]
pub(super) struct CachedPlan {
    topology: u64,
    /// Stats epochs of the disjunct's owners, in [`DisjunctDeps::owners`]
    /// order (equal keys name equal relations, hence equal owners).
    owner_epochs: Vec<u64>,
    plan: Arc<Plan>,
}

/// What the plan cache needs to know about a reformulated union, derived
/// once when the reformulation is cached so that a hit derives nothing.
#[derive(Debug)]
pub(super) struct UnionDeps {
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
        let per_disjunct: Vec<BTreeSet<&str>> = union
            .disjuncts
            .iter()
            .map(|d| owners_of(d.body.iter().map(|a| a.relation.as_str())))
            .collect();
        let mut owners: Vec<&str> = per_disjunct.iter().flatten().copied().collect();
        owners.sort_unstable();
        owners.dedup();
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
        UnionDeps { owners: owners.into_iter().map(String::from).collect(), disjuncts }
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
pub(super) struct PlanScope {
    deps: Arc<UnionDeps>,
    epochs: Vec<Option<u64>>,
}

/// Why a disjunct was planned the way it was, recorded on its
/// `pdms.eval.disjunct` span.
pub(super) enum PlanVerdict<'a> {
    Hit,
    /// `stale_owner` is the first owner whose stats epoch moved since the
    /// cached plan was costed; `None` when there was no current entry.
    Miss { stale_owner: Option<&'a str> },
}

/// A map that never holds more than `capacity` entries: inserting a new
/// key into a full map first drops the older half, by insertion order.
#[derive(Debug)]
pub(super) struct BoundedMap<K, V> {
    capacity: usize,
    inserted: u64,
    pub(super) entries: FxMap<K, (u64, V)>,
}

impl<K: Hash + Eq, V> BoundedMap<K, V> {
    pub(super) fn new(capacity: usize) -> Self {
        BoundedMap { capacity, inserted: 0, entries: FxMap::default() }
    }

    pub(super) fn get(&self, key: &K) -> Option<&V> {
        self.entries.get(key).map(|(_, v)| v)
    }

    pub(super) fn insert(&mut self, key: K, value: V) {
        if self.entries.len() >= self.capacity && !self.entries.contains_key(&key) {
            let mut ages: Vec<u64> = self.entries.values().map(|(age, _)| *age).collect();
            ages.sort_unstable();
            let median = ages[ages.len() / 2];
            self.entries.retain(|_, (age, _)| *age > median);
        }
        self.inserted += 1;
        self.entries.insert(key, (self.inserted, value));
    }

    pub(super) fn remove(&mut self, key: &K) -> Option<V> {
        self.entries.remove(key).map(|(_, v)| v)
    }
}

impl PdmsNetwork {
    /// Snapshot the cache hit/miss counters.
    pub fn cache_stats(&self) -> CacheStats {
        self.lock_caches().stats
    }

    /// Drop every cached reformulation and plan and zero the counters.
    pub fn clear_caches(&self) {
        *self.lock_caches() = Caches::default();
    }

    pub(super) fn lock_caches(&self) -> std::sync::MutexGuard<'_, Caches> {
        // A panic while holding the lock leaves plain data; recover it.
        self.caches.lock().unwrap_or_else(std::sync::PoisonError::into_inner)
    }

    /// Reformulate through the cache, under a `pdms.reformulate` span that
    /// records the cache verdict ("hit" / "miss" / "audit") and, when the
    /// rule-goal expansion actually ran, how much work it did (an audit
    /// counts as a miss in [`CacheStats`]: the query reformulated from
    /// scratch).
    pub(super) fn reformulate_cached(
        &self,
        q: &ConjunctiveQuery,
        parent: &SpanHandle,
    ) -> (Arc<ReformulationResult>, Arc<UnionDeps>) {
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
                        return (Arc::clone(&e.result), Arc::clone(&e.deps));
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
        (result, deps)
    }

    /// Read the current stats epoch of every owner the union depends on.
    pub(super) fn plan_scope(&self, deps: Arc<UnionDeps>) -> PlanScope {
        let epochs =
            deps.owners.iter().map(|o| self.peers.get(o).map(|p| p.storage.epoch())).collect();
        PlanScope { deps, epochs }
    }

    /// Plan disjunct `i` of the query's union against what was fetched,
    /// through the cache.
    pub(super) fn plan_for<'a>(
        &self,
        i: usize,
        d: &ConjunctiveQuery,
        fetched: &Fetched,
        scope: &'a PlanScope,
    ) -> (Arc<Plan>, PlanVerdict<'a>) {
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
        let plan = Arc::new(plan_cq(d, &fetched.staging));
        // A plan costed against a partial fetch executes correctly but
        // would poison the cache with statistics from a degraded view of
        // the network.
        let owner_epochs: Option<Vec<u64>> = dep.owners.iter().map(|&o| scope.epochs[o]).collect();
        if let (true, Some(owner_epochs)) = (fetched.completeness.is_complete(), owner_epochs) {
            self.lock_caches().plans.insert(
                dep.key.clone(),
                CachedPlan { topology: self.topology_epoch, owner_epochs, plan: Arc::clone(&plan) },
            );
        }
        (plan, PlanVerdict::Miss { stale_owner })
    }
}
