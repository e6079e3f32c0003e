//! What a fetch costs, and what it failed to cover.

use super::PdmsNetwork;
use crate::peer::{split_qualified, Peer};
use revere_query::UnionQuery;
use revere_storage::{Catalog, Relation};
use revere_util::fault::Fate;
use revere_util::obs::{names, Histogram, SpanHandle};
use std::collections::{BTreeMap, BTreeSet};
use std::fmt;
use std::sync::{MutexGuard, PoisonError};

/// Per-owner fetch-path vitals, accumulated *unconditionally* — even
/// with [`Obs::disabled`](revere_util::obs::Obs::disabled) — so the health monitor (`crate::monitor`) can
/// scrape every overlay without the observability tax. All fields are
/// cumulative totals since construction; scrapers keep their own
/// previous snapshot and difference. Updated only for *remote* fetches
/// (local reads involve no network and say nothing about peer health).
#[derive(Debug, Clone, Default, PartialEq)]
pub struct PeerAccounting {
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
    /// this owner's relations (0 until a plan has been profiled).
    pub worst_q_error: f64,
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

/// Internal result of the shared fetch phase.
#[derive(Default)]
pub(super) struct Fetched {
    pub(super) staging: Catalog,
    pub(super) peers_contacted: BTreeSet<String>,
    pub(super) messages: usize,
    pub(super) tuples_shipped: usize,
    pub(super) completeness: CompletenessReport,
}

impl Fetched {
    /// Stage the snapshot of `relation` that `owner` handed over, with the
    /// join statistics the feedback loop learned about it there, so
    /// planning against the staged copy sees the same evidence.
    fn stage(&mut self, owner: &Peer, relation: &str, rel: Relation, span: &SpanHandle) {
        self.peers_contacted.insert(owner.name.clone());
        span.set("tuples", rel.len());
        self.staging.register(rel);
        let learned = owner.storage.read(|c| c.join_stats().mentioning(relation));
        if !learned.is_empty() {
            self.staging.absorb_join_stats(&learned);
        }
    }
}

impl PdmsNetwork {
    /// Snapshot the per-owner fetch vitals (cumulative since
    /// construction). The map is keyed by owner peer name and only ever
    /// gains entries for peers that have been fetched from remotely.
    pub fn peer_accounting(&self) -> BTreeMap<String, PeerAccounting> {
        self.lock_accounting().clone()
    }

    pub(super) fn lock_accounting(&self) -> MutexGuard<'_, BTreeMap<String, PeerAccounting>> {
        self.accounting.lock().unwrap_or_else(PoisonError::into_inner)
    }

    /// Fetch phase, shared by [`PdmsNetwork::query`] and
    /// [`PdmsNetwork::explain_analyze`]: snapshot every referenced relation
    /// that survives the network weather, accounting for every message,
    /// retry, and gap along the way.
    pub(super) fn fetch_phase(&self, at_peer: &str, union: &UnionQuery, parent: &SpanHandle) -> Fetched {
        let mut f = Fetched::default();
        let mut clock = 0u64;
        let mut fetched: BTreeSet<&str> = BTreeSet::new();
        for d in &union.disjuncts {
            for a in &d.body {
                if !fetched.insert(&a.relation) {
                    continue;
                }
                let span = parent.child("pdms.fetch");
                span.set("relation", &a.relation);
                // Where this relation's fetch starts; what it cost is the
                // difference once it resolves.
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
                            span.set("outcome", "local");
                            f.stage(peer, &a.relation, rel, &span);
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
                    if self.budget.max_messages.is_some_and(|max| f.messages >= max) {
                        f.completeness.budget_exhausted = true;
                        span.set("budget_exhausted", true);
                        break;
                    }
                    if self.budget.deadline_ticks.is_some_and(|deadline| clock >= deadline) {
                        f.completeness.deadline_exceeded = true;
                        span.set("deadline_exceeded", true);
                        break;
                    }
                    attempts = attempt + 1;
                    if attempt > 0 {
                        f.completeness.retries += 1;
                    }
                    // A request to a down peer goes into the void: the
                    // sender waits out the timeout, as for a lost one.
                    let fate = if self.faults.is_down_at(owner, clock) {
                        Fate::Dropped
                    } else {
                        self.faults.fate(owner, &a.relation, attempt)
                    };
                    let wait = match fate {
                        Fate::Dropped => {
                            f.messages += 1;
                            f.completeness.messages_dropped += 1;
                            self.retry.backoff(attempt)
                        }
                        Fate::Flaky => {
                            // Transient error response: request + error.
                            f.messages += 2;
                            self.retry.backoff(attempt)
                        }
                        Fate::Delivered { latency } => {
                            f.messages += 2;
                            delivered = true;
                            latency
                        }
                    };
                    clock += wait;
                    self.obs.advance(wait);
                    if delivered {
                        if let Some(rel) = peer.snapshot(&a.relation) {
                            f.tuples_shipped += rel.len();
                            f.stage(peer, &a.relation, rel, &span);
                        }
                        break;
                    }
                }
                if !delivered {
                    f.completeness.relations_missing.insert(a.relation.clone());
                    f.completeness.peers_unreachable.insert(owner.to_string());
                    self.obs.inc(names::PDMS_FETCH_GAPS_OBSERVED, 1);
                }
                // The fetch's tally, read by the owner's vitals, the span
                // and the obs counters alike.
                let messages = f.messages - msg0;
                let dropped = f.completeness.messages_dropped - dropped0;
                let retries = f.completeness.retries - retries0;
                let ticks = clock - clock0;
                {
                    // Monitor vitals, kept even when obs is disabled: the
                    // adds are commutative, so the totals are identical no
                    // matter how concurrent queries interleave.
                    let mut acct = self.lock_accounting();
                    let a = acct.entry(owner.to_string()).or_default();
                    a.messages_sent += messages as u64;
                    a.messages_dropped += dropped as u64;
                    a.retries_spent += retries as u64;
                    if !delivered {
                        a.gaps_observed += 1;
                    }
                    a.latency.observe(ticks);
                }
                if span.is_recording() {
                    span.set("outcome", if delivered { "delivered" } else { "unreachable" });
                    span.set("attempts", attempts);
                    span.set("messages", messages);
                    span.set("dropped", dropped);
                    span.set("retries", retries);
                    span.set("latency_ticks", ticks);
                }
                self.obs.inc(names::PDMS_FETCH_MESSAGES_SENT, messages as u64);
                self.obs.inc(names::PDMS_FETCH_MESSAGES_DROPPED, dropped as u64);
                self.obs.inc(names::PDMS_FETCH_RETRIES_SPENT, retries as u64);
                self.obs.observe(names::PDMS_FETCH_LATENCY_TICKS, ticks);
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
}
