//! How a union is evaluated and fed back.

use super::cache::{PlanScope, PlanVerdict};
use super::transport::{CompletenessReport, Fetched};
use super::{owners_of, PdmsError, PdmsNetwork};
use crate::reformulate::ReformulationResult;
use revere_query::eval::EvalError;
use revere_query::plan::{q_error, Plan};
use revere_query::{head_schema, parse_query, ConjunctiveQuery, StepProfile};
use revere_storage::{Catalog, Relation};
use revere_util::obs::{names, SpanHandle};
use std::collections::BTreeSet;
use std::sync::Arc;

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

impl PdmsNetwork {
    /// Pose a textual query at a peer. The query must use relations
    /// qualified with peer names (usually the local peer's).
    pub fn query_str(&self, at_peer: &str, query: &str) -> Result<QueryOutcome, PdmsError> {
        let q = parse_query(query)?;
        self.query(at_peer, &q)
    }

    /// Pose a parsed query at a peer: reformulate over the mapping graph,
    /// fetch the needed relations (riding out whatever faults the plan
    /// injects), evaluate the union over what arrived.
    pub fn query(&self, at_peer: &str, q: &ConjunctiveQuery) -> Result<QueryOutcome, PdmsError> {
        self.member(at_peer)?;
        let root = self.obs.span("pdms.query");
        root.set("peer", at_peer);
        root.set("query", q);
        let (reformulation, deps) = self.reformulate_cached(q, &root);
        let scope = deps.map(|deps| self.plan_scope(deps));
        let fetched = self.fetch_phase(at_peer, &reformulation.union, &root);

        // Evaluate disjuncts (those whose relations are all staged), each
        // under a cached-or-fresh plan, and gather their rows in disjunct
        // order; `distinct()` (which sorts and dedups) then makes the
        // final row order a pure function of the query. The union is
        // built once, shaped by the first evaluated disjunct.
        let disjuncts = &reformulation.union.disjuncts;
        let mut schema = None;
        let mut rows = Vec::new();
        for (i, d) in disjuncts.iter().enumerate() {
            if let Some(r) = self.eval_disjunct(i, d, &fetched, scope.as_ref(), &root) {
                schema.get_or_insert_with(|| r.schema.clone());
                rows.extend(r.into_rows());
            }
        }
        let answers = match schema {
            Some(schema) => Relation::with_rows(schema, rows).distinct(),
            // Every disjunct dropped: the empty relation, shaped by the
            // first disjunct's head as `eval_union` shapes it, behind the
            // same two checks.
            None => {
                let shape_error = |m: &str| PdmsError::Eval(EvalError { message: m.into() });
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

    /// Evaluate disjunct `i` under its own span, profiled, with the
    /// profile fed back to the estimator. `None` when it cannot be
    /// evaluated against what was staged.
    fn eval_disjunct(
        &self,
        i: usize,
        d: &ConjunctiveQuery,
        fetched: &Fetched,
        scope: Option<&PlanScope>,
        root: &SpanHandle,
    ) -> Option<Relation> {
        let span = root.child("pdms.eval.disjunct");
        let (plan, verdict) = self.plan_for(i, d, fetched, scope);
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
            revere_query::eval_planned(d, &plan, &fetched.staging, &self.obs, &span).ok()?;
        // Feed actuals back only when the fetch was complete: a partial
        // staging would teach the estimator that missing data means
        // empty joins.
        if fetched.completeness.is_complete() {
            self.feed_back(&plan, &profiles);
        }
        let answers = bag.distinct();
        span.set("answers", answers.len());
        Some(answers)
    }

    /// The estimator feedback loop. When a completely-fetched plan's
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
            if caches.plans.remove(&plan.key().to_owned()).is_some() {
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
            for owner in owners_of([s.relation.as_str(), pair.other_relation.as_str()]) {
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
        let owners = owners_of(plan.steps.iter().map(|s| s.relation.as_str()));
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

    /// `EXPLAIN ANALYZE` for a query posed at a peer: reformulate and
    /// fetch exactly as [`PdmsNetwork::query`] would, then render each
    /// disjunct's plan with estimated vs measured per-step cardinalities
    /// and q-error (see [`revere_query::plan::explain_analyze`]).
    /// Disjuncts that cannot be evaluated against the staged data are
    /// reported inline rather than dropped.
    pub fn explain_analyze(&self, at_peer: &str, q: &ConjunctiveQuery) -> Result<String, PdmsError> {
        self.member(at_peer)?;
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
    pub fn explain_analyze_str(&self, at_peer: &str, query: &str) -> Result<String, PdmsError> {
        let q = parse_query(query)?;
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
}
