//! How a union is evaluated and fed back.

use super::cache::{PlanScope, PlanVerdict};
use super::transport::{CompletenessReport, Fetched, PeerAccounting};
use super::{owners_of, PdmsError, PdmsNetwork};
use crate::peer::split_qualified;
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
    /// reformulation cache.
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
        let scope = self.plan_scope(deps);
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
            if let Some(r) = self.eval_disjunct(i, d, &fetched, &scope, &root) {
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
        scope: &PlanScope,
        root: &SpanHandle,
    ) -> Option<Relation> {
        let span = root.child("pdms.eval.disjunct");
        let (plan, verdict) = self.plan_for(i, d, fetched, scope);
        if span.is_recording() {
            // The canonical form, not `d` itself: it names the plan the
            // disjunct ran, whatever names reformulation gave its
            // variables.
            span.set("disjunct", plan.key());
            match verdict {
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
        {
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
    ///
    /// Each step updates its owner's entry in place (an owner met twice
    /// takes the same maximum twice); only an owner's first entry
    /// allocates its name.
    fn note_worst_q_error(&self, plan: &Plan, max_q: f64) {
        let mut acct = self.lock_accounting();
        for (owner, _) in plan.steps.iter().filter_map(|s| split_qualified(&s.relation)) {
            if let Some(a) = acct.get_mut(owner) {
                if max_q > a.worst_q_error {
                    a.worst_q_error = max_q;
                }
            } else {
                let first = PeerAccounting { worst_q_error: max_q, ..PeerAccounting::default() };
                acct.insert(owner.to_string(), first);
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

#[cfg(test)]
mod tests {
    use super::*;
    use crate::peer::Peer;
    use revere_query::glav::GlavMapping;
    use revere_query::plan::explain_analyze;
    use revere_storage::{Attribute, RelSchema, Value};
    use std::collections::BTreeMap;

    /// After one complete query over a two-peer mapping, the accounting
    /// holds one entry per owner of the executed plans' relations, each
    /// at the largest q-error of the plans that read it.
    #[test]
    fn accounting_keeps_each_owner_at_its_plans_worst_q_error() {
        let mut net = PdmsNetwork::new();
        for (peer, rel, rows) in [
            ("A", "r", vec![(1, 2), (2, 3), (2, 4), (2, 5), (3, 1)]),
            ("B", "s", vec![(2, 2), (2, 6), (7, 2)]),
        ] {
            let mut p = Peer::new(peer);
            let schema = vec![Attribute::int("x"), Attribute::int("y")];
            let mut r = Relation::new(RelSchema::new(rel, schema));
            for (x, y) in rows {
                r.insert(vec![Value::Int(x), Value::Int(y)]);
            }
            p.add_relation(r);
            net.add_peer(p);
        }
        let rule = "m(X, Y) :- B.s(X, Y) ==> m(X, Y) :- A.r(X, Y)";
        net.add_mapping(GlavMapping::parse("m_ba", "B", "A", rule).unwrap());
        let q = parse_query("q(X, W) :- A.r(X, Y), A.r(Y, Z), A.r(Z, W), Z > 1").unwrap();

        // The plans the query will run: a cold cache plans every disjunct
        // afresh against the staged relations, as `explain_analyze` does.
        let (reformulation, _) = net.reformulate_cached(&q, &SpanHandle::none());
        let fetched = net.fetch_phase("A", &reformulation.union, &SpanHandle::none());
        let mut expect: BTreeMap<String, f64> = BTreeMap::new();
        for d in &reformulation.union.disjuncts {
            let ea = explain_analyze(d, &fetched.staging).unwrap();
            for owner in owners_of(ea.plan.steps.iter().map(|s| s.relation.as_str())) {
                let worst = expect.entry(owner.to_string()).or_insert(0.0);
                *worst = worst.max(ea.max_q_error());
            }
        }
        assert_eq!(expect.len(), 2, "{expect:?}");
        assert!(expect.values().any(|&w| w > 1.0), "some estimate is off: {expect:?}");

        let out = net.query("A", &q).unwrap();
        assert!(out.completeness.is_complete());
        let worst: BTreeMap<String, f64> =
            net.peer_accounting().into_iter().map(|(o, a)| (o, a.worst_q_error)).collect();
        assert_eq!(worst, expect);
    }
}
