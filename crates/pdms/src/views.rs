//! Materialized views at peers (data placement).
//!
//! §3.1.2: "Our ultimate goal is to materialize the best views at each peer
//! to allow answering queries most efficiently ... in an environment where
//! the data sources are subject to update at any point, and hence view
//! updates can become expensive." A [`MaterializedView`] keeps derivation
//! *counts* per tuple (the counting algorithm for non-recursive views) so
//! the updategram machinery can maintain it incrementally under both
//! inserts and deletes.
//!
//! Counts are true Z-set weights: a retraction arriving before its
//! matching insert (out-of-order propagation, or a delta computed against
//! a slightly stale base) drives a tuple's count *negative*, and a later
//! insert cancels it back to zero — the tuple never spuriously appears.
//! Only tuples with **positive** count are visible through
//! [`MaterializedView::as_relation`] / [`MaterializedView::len`].
//!
//! [`DataflowView`] is the circuit-backed successor (see
//! [`revere_query::dataflow`]): same maintenance contract, but updates
//! flow through arranged per-operator state in O(|Δ|) instead of
//! re-evaluating delta queries against the base relations. Continuous
//! queries ([`crate::PdmsNetwork::subscribe_str`]) are maintained by
//! circuits only; the counting view stays for what the paper's §3.2 asks
//! of it — views a peer materializes and maintains from updategrams,
//! with [`crate::maintain`]'s incremental-vs-recompute choice.

use crate::updategram::{gram_to_batch, Updategram};
use revere_query::dataflow::Circuit;
use revere_query::eval::{eval_cq_bag, EvalError, Source};
use revere_query::plan::plan_cq;
use revere_query::ConjunctiveQuery;
use revere_storage::{Catalog, RelSchema, Relation, Tuple};
use std::collections::HashMap;

/// A materialized conjunctive view with derivation counts.
#[derive(Debug, Clone)]
pub struct MaterializedView {
    /// View name (also the relation name of [`MaterializedView::as_relation`]).
    pub name: String,
    /// Defining query.
    pub definition: ConjunctiveQuery,
    counts: HashMap<Tuple, i64>,
    schema: RelSchema,
    /// Full refreshes performed.
    pub refresh_count: usize,
    /// Incremental maintenance rounds applied.
    pub incremental_count: usize,
}

impl MaterializedView {
    /// Create an empty (unrefreshed) view.
    pub fn new(name: impl Into<String>, definition: ConjunctiveQuery) -> Self {
        let name = name.into();
        let attr_names: Vec<String> = definition
            .head
            .terms
            .iter()
            .enumerate()
            .map(|(i, t)| match t {
                revere_query::Term::Var(v) => v.clone(),
                revere_query::Term::Const(_) => format!("c{i}"),
            })
            .collect();
        let schema = RelSchema::text(
            name.clone(),
            &attr_names.iter().map(String::as_str).collect::<Vec<_>>(),
        );
        MaterializedView {
            name,
            definition,
            counts: HashMap::new(),
            schema,
            refresh_count: 0,
            incremental_count: 0,
        }
    }

    /// Recompute from scratch ("simply invalidating views and re-reading
    /// data" — the baseline the paper wants to avoid).
    pub fn refresh_full<S: Source>(&mut self, source: &S) -> Result<(), EvalError> {
        let bag = eval_cq_bag(&self.definition, source)?;
        self.counts.clear();
        for row in bag.into_rows() {
            *self.counts.entry(row).or_insert(0) += 1;
        }
        self.refresh_count += 1;
        Ok(())
    }

    /// Apply a signed delta of derivations (from the updategram machinery).
    /// Tuples whose count reaches zero vanish. Counts may go transiently
    /// *negative* (a retraction ahead of its insert); such tuples are kept
    /// invisibly so the matching insert cancels them instead of making the
    /// tuple appear with a net count of zero.
    pub fn apply_derivation_delta(&mut self, rows: impl IntoIterator<Item = (Tuple, i64)>) {
        let _ = self.apply_derivation_delta_diff(rows);
    }

    /// Like [`MaterializedView::apply_derivation_delta`], but also report
    /// the *set-level* change: tuples that newly appeared and tuples that
    /// vanished. This is the view-side half of updategram propagation —
    /// the returned pair is exactly the updategram the view's consumers
    /// need.
    pub fn apply_derivation_delta_diff(
        &mut self,
        rows: impl IntoIterator<Item = (Tuple, i64)>,
    ) -> (Vec<Tuple>, Vec<Tuple>) {
        let mut appeared = Vec::new();
        let mut vanished = Vec::new();
        for (row, sign) in rows {
            let entry = self.counts.entry(row.clone()).or_insert(0);
            let before = *entry;
            *entry += sign;
            if before <= 0 && *entry > 0 {
                appeared.push(row);
            } else if before > 0 && *entry <= 0 {
                vanished.push(row);
            }
        }
        // Z-set consolidation: drop exact zeros, KEEP negatives — clamping
        // them would turn a later matching insert into a phantom appearance
        // (the delete-below-zero asymmetry the differential harness caught).
        self.counts.retain(|_, c| *c != 0);
        self.incremental_count += 1;
        // A tuple may transiently vanish then reappear within one batch;
        // cancel such pairs.
        appeared.sort();
        vanished.sort();
        let mut final_appeared = Vec::new();
        for a in appeared {
            if let Ok(pos) = vanished.binary_search(&a) {
                vanished.remove(pos);
            } else {
                final_appeared.push(a);
            }
        }
        (final_appeared, vanished)
    }

    /// The view's current contents: tuples with *positive* derivation
    /// count (set semantics, sorted for determinism).
    pub fn as_relation(&self) -> Relation {
        let mut rows: Vec<Tuple> = self
            .counts
            .iter()
            .filter(|(_, c)| **c > 0)
            .map(|(t, _)| t.clone())
            .collect();
        rows.sort();
        Relation::with_rows(self.schema.clone(), rows)
    }

    /// Number of distinct tuples with positive derivation count.
    pub fn len(&self) -> usize {
        self.counts.values().filter(|c| **c > 0).count()
    }

    /// True when the view holds no (positively derived) tuples.
    pub fn is_empty(&self) -> bool {
        self.len() == 0
    }

    /// Derivation count of one tuple (0 if absent).
    pub fn derivations(&self, row: &Tuple) -> i64 {
        self.counts.get(row).copied().unwrap_or(0)
    }

    /// Total derivations across tuples (net — transiently negative counts
    /// subtract).
    pub fn total_derivations(&self) -> i64 {
        self.counts.values().sum()
    }
}

/// A continuous query maintained by a delta-dataflow [`Circuit`] instead
/// of counting-IVM delta queries: the planned body is compiled once into
/// a chain of bilinear incremental joins with arranged per-side state, and
/// each updategram becomes a [`revere_query::dataflow::DeltaBatch`] pushed
/// through in O(|Δ|) — no base-relation rescan per update.
///
/// The maintenance contract matches [`MaterializedView`]: same derivation
/// counts, same set-level appeared/vanished diffs, byte-identical
/// [`DataflowView::as_relation`]. `tests/differential_ivm.rs` holds both
/// implementations to the from-scratch recompute oracle after every delta.
#[derive(Debug, Clone)]
pub struct DataflowView {
    /// View name (also the relation name of [`DataflowView::as_relation`]).
    pub name: String,
    /// Defining query.
    pub definition: ConjunctiveQuery,
    circuit: Circuit,
    /// Incremental maintenance rounds applied (updategrams pushed).
    pub incremental_count: usize,
}

impl DataflowView {
    /// Compile `definition` against `catalog` (planning its body, building
    /// the circuit, seeding it with the current contents).
    pub fn new(
        name: impl Into<String>,
        definition: ConjunctiveQuery,
        catalog: &Catalog,
    ) -> Result<Self, EvalError> {
        let plan = plan_cq(&definition, catalog);
        let mut circuit = Circuit::new(&definition, &plan)?;
        circuit.init_full(catalog)?;
        Ok(DataflowView {
            name: name.into(),
            definition,
            circuit,
            incremental_count: 0,
        })
    }

    /// Push one updategram through the circuit **and** apply it to the
    /// catalog (deltas are computed against the pre-gram state, mirroring
    /// [`crate::updategram::maintain`]). Returns the set-level
    /// `(appeared, vanished)` diff — the updategram the view's own
    /// consumers need.
    pub fn apply_gram(
        &mut self,
        catalog: &mut Catalog,
        gram: &Updategram,
    ) -> (Vec<Tuple>, Vec<Tuple>) {
        let batch = gram_to_batch(catalog, gram);
        let diff = self.push_batch(&batch);
        crate::updategram::apply_updategrams(catalog, std::slice::from_ref(gram));
        diff
    }

    /// Push a pre-built delta batch (already signed against the circuit's
    /// current base state) and return the set-level diff.
    pub fn push_batch(
        &mut self,
        batch: &revere_query::dataflow::DeltaBatch,
    ) -> (Vec<Tuple>, Vec<Tuple>) {
        let out = self.circuit.push(batch);
        self.incremental_count += 1;
        let mut appeared = Vec::new();
        let mut vanished = Vec::new();
        for (t, w) in out.iter() {
            let after = self.circuit.derivations().weight(t);
            let before = after - w;
            if before <= 0 && after > 0 {
                appeared.push(t.clone());
            } else if before > 0 && after <= 0 {
                vanished.push(t.clone());
            }
        }
        (appeared, vanished)
    }

    /// The view's current contents (set semantics, sorted).
    pub fn as_relation(&self) -> Relation {
        self.circuit.output_set()
    }

    /// The maintained *bag* result, sorted — what the differential harness
    /// compares byte-for-byte against `eval_planned(..).0.sorted()`.
    pub fn as_bag(&self) -> Relation {
        self.circuit.output_bag()
    }

    /// Number of distinct tuples with positive derivation count.
    pub fn len(&self) -> usize {
        self.circuit.len()
    }

    /// True when the view holds no tuples.
    pub fn is_empty(&self) -> bool {
        self.circuit.is_empty()
    }

    /// Derivation count of one tuple (0 if absent).
    pub fn derivations(&self, row: &Tuple) -> i64 {
        self.circuit.derivations().weight(row)
    }

    /// The base relations this view listens to (the affected-set check:
    /// grams on other relations are guaranteed no-ops).
    pub fn relations(&self) -> std::collections::BTreeSet<String> {
        self.circuit.relations()
    }

    /// The underlying circuit (work counters, arranged-state footprint).
    pub fn circuit(&self) -> &Circuit {
        &self.circuit
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use revere_query::parse_query;
    use revere_storage::{Catalog, Value};

    fn base() -> Catalog {
        let mut c = Catalog::new();
        let mut r = Relation::new(RelSchema::text("r", &["a", "b"]));
        r.insert(vec!["1".into(), "x".into()]);
        r.insert(vec!["2".into(), "x".into()]);
        r.insert(vec!["3".into(), "y".into()]);
        c.register(r);
        c
    }

    #[test]
    fn full_refresh_counts_derivations() {
        let def = parse_query("v(B) :- r(A, B)").unwrap();
        let mut v = MaterializedView::new("v", def);
        v.refresh_full(&base()).unwrap();
        assert_eq!(v.len(), 2);
        assert_eq!(v.derivations(&vec![Value::str("x")]), 2);
        assert_eq!(v.derivations(&vec![Value::str("y")]), 1);
        assert_eq!(v.total_derivations(), 3);
        assert_eq!(v.refresh_count, 1);
    }

    #[test]
    fn derivation_delta_add_and_remove() {
        let def = parse_query("v(B) :- r(A, B)").unwrap();
        let mut v = MaterializedView::new("v", def);
        v.refresh_full(&base()).unwrap();
        // One derivation of "y" removed: tuple vanishes.
        v.apply_derivation_delta(vec![(vec![Value::str("y")], -1)]);
        assert_eq!(v.len(), 1);
        // One derivation of "x" removed: tuple survives (count 2 -> 1).
        v.apply_derivation_delta(vec![(vec![Value::str("x")], -1)]);
        assert_eq!(v.len(), 1);
        assert_eq!(v.derivations(&vec![Value::str("x")]), 1);
        // New tuple appears.
        v.apply_derivation_delta(vec![(vec![Value::str("z")], 1)]);
        assert_eq!(v.len(), 2);
        assert_eq!(v.incremental_count, 3);
    }

    #[test]
    fn as_relation_is_sorted_and_deduped() {
        let def = parse_query("v(B) :- r(A, B)").unwrap();
        let mut v = MaterializedView::new("v", def);
        v.refresh_full(&base()).unwrap();
        let rel = v.as_relation();
        assert_eq!(rel.len(), 2);
        assert_eq!(rel.rows()[0], vec![Value::str("x")]);
        assert_eq!(rel.schema.name, "v");
    }

    #[test]
    fn empty_before_refresh() {
        let def = parse_query("v(B) :- r(A, B)").unwrap();
        let v = MaterializedView::new("v", def);
        assert!(v.is_empty());
    }

    #[test]
    fn delete_below_zero_then_insert_cancels() {
        // Regression: a retraction ahead of its insert used to be clamped
        // away, so the later insert made the tuple appear with net count
        // zero. Z-set semantics: -1 then +1 nets to nothing.
        let def = parse_query("v(B) :- r(A, B)").unwrap();
        let mut v = MaterializedView::new("v", def);
        let (app, van) = v.apply_derivation_delta_diff(vec![(vec![Value::str("w")], -1)]);
        assert!(app.is_empty() && van.is_empty());
        assert_eq!(v.derivations(&vec![Value::str("w")]), -1);
        assert!(v.is_empty(), "negative counts are invisible");
        let (app, van) = v.apply_derivation_delta_diff(vec![(vec![Value::str("w")], 1)]);
        assert!(app.is_empty(), "net-zero tuple must not appear");
        assert!(van.is_empty());
        assert!(v.is_empty());
        assert_eq!(v.derivations(&vec![Value::str("w")]), 0);
    }

    #[test]
    fn negative_count_needs_full_repayment_to_appear() {
        let def = parse_query("v(B) :- r(A, B)").unwrap();
        let mut v = MaterializedView::new("v", def);
        v.apply_derivation_delta(vec![(vec![Value::str("w")], -2)]);
        let (app, _) = v.apply_derivation_delta_diff(vec![(vec![Value::str("w")], 2)]);
        assert!(app.is_empty());
        // Only the third insert takes the count positive.
        let (app, _) = v.apply_derivation_delta_diff(vec![(vec![Value::str("w")], 1)]);
        assert_eq!(app, vec![vec![Value::str("w")]]);
        assert_eq!(v.len(), 1);
    }

    #[test]
    fn duplicate_tuple_deltas_accumulate() {
        // Regression: repeated (tuple, +1) entries in one batch must sum,
        // and the set-level diff must report the tuple exactly once.
        let def = parse_query("v(B) :- r(A, B)").unwrap();
        let mut v = MaterializedView::new("v", def);
        let (app, _) = v.apply_derivation_delta_diff(vec![
            (vec![Value::str("d")], 1),
            (vec![Value::str("d")], 1),
            (vec![Value::str("d")], 1),
        ]);
        assert_eq!(app, vec![vec![Value::str("d")]]);
        assert_eq!(v.derivations(&vec![Value::str("d")]), 3);
        // Retracting two of three copies keeps the tuple visible.
        let (_, van) = v.apply_derivation_delta_diff(vec![
            (vec![Value::str("d")], -1),
            (vec![Value::str("d")], -1),
        ]);
        assert!(van.is_empty());
        assert_eq!(v.len(), 1);
    }

    #[test]
    fn dataflow_view_matches_counting_view() {
        let mut c1 = base();
        let mut c2 = base();
        let def = parse_query("v(B) :- r(A, B)").unwrap();
        let mut counting = MaterializedView::new("v", def.clone());
        counting.refresh_full(&c1).unwrap();
        let mut flow = DataflowView::new("v", def, &c2).unwrap();
        assert_eq!(flow.as_relation().rows(), counting.as_relation().rows());
        let gram = Updategram {
            relation: "r".into(),
            insert: vec![vec!["4".into(), "z".into()]],
            delete: vec![vec!["3".into(), "y".into()]],
        };
        crate::updategram::maintain(
            &mut c1,
            &mut counting,
            std::slice::from_ref(&gram),
            Some(crate::updategram::MaintenanceChoice::Incremental),
        )
        .unwrap();
        let (app, van) = flow.apply_gram(&mut c2, &gram);
        assert_eq!(app, vec![vec![Value::str("z")]]);
        assert_eq!(van, vec![vec![Value::str("y")]]);
        assert_eq!(flow.as_relation().rows(), counting.as_relation().rows());
        assert_eq!(c1.get("r").unwrap().sorted().rows(), c2.get("r").unwrap().sorted().rows());
    }

    #[test]
    fn dataflow_view_ignores_unrelated_grams() {
        let mut c = base();
        c.create(RelSchema::text("t", &["z"]));
        let mut flow =
            DataflowView::new("v", parse_query("v(B) :- r(A, B)").unwrap(), &c).unwrap();
        let before = flow.as_relation();
        let work = flow.circuit().work;
        let (app, van) =
            flow.apply_gram(&mut c, &Updategram::inserts("t", vec![vec!["new".into()]]));
        assert!(app.is_empty() && van.is_empty());
        assert_eq!(flow.as_relation().rows(), before.rows());
        assert_eq!(flow.circuit().work, work, "unrelated gram must cost nothing");
        assert!(!flow.relations().contains("t"));
    }
}
