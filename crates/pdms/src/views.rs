//! Materialized views at peers (data placement).
//!
//! §3.1.2: "Our ultimate goal is to materialize the best views at each peer
//! to allow answering queries most efficiently ... in an environment where
//! the data sources are subject to update at any point, and hence view
//! updates can become expensive." A [`MaterializedView`] is the one thing
//! in the tree that means "a query whose answer is kept": a union of
//! delta-dataflow [`Circuit`]s (see [`revere_query::dataflow`]) — one for a
//! conjunctive view, one per reformulated disjunct for a continuous query
//! ([`crate::PdmsNetwork::subscribe_str`]) — whose arranged per-operator
//! state turns each updategram into O(|Δ|) work instead of a rescan of the
//! base relations. [`crate::maintain`] is the paper's cost-based policy
//! over that state: push the delta, or re-plan and re-seed.
//!
//! Every change a view sees is a [`revere_storage::ZSetBatch`] — what the
//! catalog signs for an applied gram, or what tracked catalogs recorded —
//! and every circuit returns and keeps a [`ZSet`]: the view merges them,
//! and orders a result only where it is read.
//!
//! Derivation counts are true Z-set weights, summed over the circuits: a
//! retraction arriving before its matching insert (out-of-order
//! propagation, or a delta signed against a slightly stale base) drives a
//! tuple's weight *negative*, and a later insert cancels it back to zero —
//! the tuple never spuriously appears. Only tuples with **positive** weight
//! are visible through [`MaterializedView::as_relation`] /
//! [`MaterializedView::len`].

use crate::updategram::Updategram;
use revere_query::dataflow::Circuit;
use revere_query::eval::{head_schema, EvalError};
use revere_query::plan::plan_cq;
use revere_query::ConjunctiveQuery;
use revere_storage::{Catalog, Relation, Tuple, ZSet, ZSetBatch};
use std::borrow::Cow;
use std::collections::BTreeSet;

/// A query whose answer is kept fresh under updategrams: each disjunct's
/// planned body is compiled once into a chain of bilinear incremental
/// joins with arranged per-side state, and each updategram becomes a
/// [`ZSetBatch`] pushed through in O(|Δ|) — no base-relation rescan per
/// update. `tests/differential_ivm.rs` holds it to the from-scratch
/// recompute oracle after every delta, across mid-stream re-seeds.
#[derive(Debug, Clone)]
pub struct MaterializedView {
    /// View name.
    pub name: String,
    /// Defining query, as posed (its head names
    /// [`MaterializedView::as_relation`]).
    pub definition: ConjunctiveQuery,
    /// One circuit per disjunct of the maintained union.
    circuits: Vec<Circuit>,
    /// Base relations any circuit reads — the affected set.
    relations: BTreeSet<String>,
}

/// Plan `q` against `catalog`, compile the circuit, seed it with the
/// current contents.
fn seeded(q: &ConjunctiveQuery, catalog: &Catalog) -> Result<Circuit, EvalError> {
    let mut circuit = Circuit::new(q, &plan_cq(q, catalog))?;
    circuit.init_full(catalog)?;
    Ok(circuit)
}

impl MaterializedView {
    /// A conjunctive view: compile `definition` against `catalog` and seed
    /// it with the current contents. Errors when a body relation is
    /// missing or has the wrong arity (the evaluator's contract).
    pub fn new(
        name: impl Into<String>,
        definition: ConjunctiveQuery,
        catalog: &Catalog,
    ) -> Result<Self, EvalError> {
        let circuit = seeded(&definition, catalog)?;
        Ok(Self::over(name.into(), definition, vec![circuit]))
    }

    /// The view of `definition` maintained as the union of `disjuncts`
    /// (its reformulation over the mapping graph). A disjunct `catalog`
    /// cannot evaluate — unreachable relation, arity mismatch — is left
    /// out, exactly as the one-shot evaluator drops it;
    /// [`MaterializedView::disjuncts`] says how many made it.
    pub fn union(
        name: impl Into<String>,
        definition: ConjunctiveQuery,
        disjuncts: &[ConjunctiveQuery],
        catalog: &Catalog,
    ) -> Self {
        let circuits = disjuncts.iter().filter_map(|d| seeded(d, catalog).ok()).collect();
        Self::over(name.into(), definition, circuits)
    }

    fn over(name: String, definition: ConjunctiveQuery, circuits: Vec<Circuit>) -> Self {
        let relations = circuits.iter().flat_map(Circuit::relations).collect();
        MaterializedView { name, definition, circuits, relations }
    }

    /// Re-plan every disjunct against `catalog` and re-seed it from
    /// scratch ("simply invalidating views and re-reading data" — the
    /// baseline the paper wants to avoid, and the right call when the
    /// delta outweighs the base). Each seed is one pass over its base
    /// relations ([`Circuit::init_full`]). All or nothing: when any
    /// disjunct fails to seed, the view keeps every old circuit. Work
    /// counters restart with the circuits.
    pub fn refresh_full(&mut self, catalog: &Catalog) -> Result<(), EvalError> {
        self.circuits = self
            .circuits
            .iter()
            .map(|c| seeded(c.definition(), catalog))
            .collect::<Result<_, _>>()?;
        Ok(())
    }

    /// Apply one updategram to the catalog ([`Catalog::apply`]) **and**
    /// push the signed rows the apply reports through the view. Returns
    /// the set-level `(appeared, vanished)` diff — the updategram the
    /// view's own consumers need. A row whose arity is not its
    /// relation's refuses the gram before anything is journaled, written
    /// or pushed.
    pub fn apply_gram(
        &mut self,
        catalog: &mut Catalog,
        gram: &Updategram,
    ) -> Result<(Vec<Tuple>, Vec<Tuple>), EvalError> {
        let change = catalog.apply(&gram.relation, &gram.delete, &gram.insert)?;
        Ok(self.push_batch(&ZSetBatch::from(&change)))
    }

    /// Push a pre-built batch (already signed against the view's current
    /// base state) through every circuit — nothing else: no set-level
    /// diff is computed. Returns the derivation weights that changed,
    /// summed over the circuits (what a publish reports as
    /// `output_changes`).
    pub fn push(&mut self, batch: &ZSetBatch) -> usize {
        self.circuits.iter_mut().map(|c| c.push(batch).len()).sum()
    }

    /// Push a pre-built batch and return the *set-level* change: tuples
    /// whose summed derivation weight turned positive (appeared) or
    /// stopped being positive (vanished), each in tuple order.
    pub fn push_batch(&mut self, batch: &ZSetBatch) -> (Vec<Tuple>, Vec<Tuple>) {
        let mut outs = self.circuits.iter_mut().map(|c| c.push(batch));
        let mut out = outs.next().unwrap_or_default();
        outs.for_each(|o| out.merge(&o));
        let mut appeared = Vec::new();
        let mut vanished = Vec::new();
        for (t, w) in out.iter() {
            let after = self.derivations(t);
            let before = after - w;
            if before <= 0 && after > 0 {
                appeared.push(t.clone());
            } else if before > 0 && after <= 0 {
                vanished.push(t.clone());
            }
        }
        appeared.sort_unstable();
        vanished.sort_unstable();
        (appeared, vanished)
    }

    /// The maintained derivation weights, summed over the circuits
    /// (borrowed when there is one).
    fn total(&self) -> Cow<'_, ZSet> {
        match self.circuits.as_slice() {
            [one] => Cow::Borrowed(one.derivations()),
            many => {
                let mut sum = ZSet::new();
                many.iter().for_each(|c| sum.merge(c.derivations()));
                Cow::Owned(sum)
            }
        }
    }

    /// The view's current contents: tuples with *positive* derivation
    /// weight (set semantics, sorted).
    pub fn as_relation(&self) -> Relation {
        Relation::with_rows(head_schema(&self.definition), self.total().support())
    }

    /// The maintained *bag* result, sorted — what the differential harness
    /// compares byte-for-byte against `eval_planned(..).0.sorted()`.
    pub fn as_bag(&self) -> Relation {
        self.total().to_bag(head_schema(&self.definition))
    }

    /// Number of distinct tuples with positive derivation weight.
    pub fn len(&self) -> usize {
        self.total().iter().filter(|(_, w)| *w > 0).count()
    }

    /// True when the view holds no (positively derived) tuples.
    pub fn is_empty(&self) -> bool {
        self.len() == 0
    }

    /// Derivation weight of one tuple (0 if absent).
    pub fn derivations(&self, row: &Tuple) -> i64 {
        self.circuits.iter().map(|c| c.derivations().weight(row)).sum()
    }

    /// The base relations this view listens to (the affected-set check:
    /// grams on other relations are guaranteed no-ops).
    pub fn relations(&self) -> &BTreeSet<String> {
        &self.relations
    }

    /// Disjuncts maintained (1 for a conjunctive view).
    pub fn disjuncts(&self) -> usize {
        self.circuits.len()
    }

    /// Join-work units spent across all circuits since they were seeded.
    pub fn work(&self) -> u64 {
        self.circuits.iter().map(Circuit::work).sum()
    }

    /// Distinct tuples held across all circuit arrangements — the state
    /// footprint paid for O(|Δ|) refreshes.
    pub fn arranged_tuples(&self) -> usize {
        self.circuits.iter().map(Circuit::arranged_tuples).sum()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use revere_query::parse_query;
    use revere_storage::{RelSchema, Value};

    fn base() -> Catalog {
        let mut c = Catalog::new();
        let mut r = Relation::new(RelSchema::text("r", &["a", "b"]));
        r.insert(vec!["1".into(), "x".into()]);
        r.insert(vec!["2".into(), "x".into()]);
        r.insert(vec!["3".into(), "y".into()]);
        c.register(r);
        c
    }

    fn view(c: &Catalog) -> MaterializedView {
        MaterializedView::new("v", parse_query("v(B) :- r(A, B)").unwrap(), c).unwrap()
    }

    fn empty_base() -> Catalog {
        let mut c = Catalog::new();
        c.create(RelSchema::text("r", &["a", "b"]));
        c
    }

    /// A view over an empty `r`, so the tests below choose every weight.
    fn empty_view() -> MaterializedView {
        view(&empty_base())
    }

    /// `w` derivations of head tuple `(b)`, as a signed base delta on `r`.
    fn delta(rows: &[(&str, &str, i64)]) -> ZSetBatch {
        let mut batch = ZSetBatch::new();
        for (a, b, w) in rows {
            batch.add("r", vec![(*a).into(), (*b).into()], *w);
        }
        batch
    }

    #[test]
    fn full_refresh_counts_derivations() {
        let v = view(&base());
        assert_eq!(v.len(), 2);
        assert_eq!(v.derivations(&vec![Value::str("x")]), 2);
        assert_eq!(v.derivations(&vec![Value::str("y")]), 1);
        assert_eq!(v.as_bag().len(), 3);
    }

    #[test]
    fn derivation_delta_add_and_remove() {
        let mut v = view(&base());
        // One derivation of "y" removed: tuple vanishes.
        let (_, van) = v.push_batch(&delta(&[("3", "y", -1)]));
        assert_eq!(van, vec![vec![Value::str("y")]]);
        assert_eq!(v.len(), 1);
        // One derivation of "x" removed: tuple survives (count 2 -> 1).
        let diff = v.push_batch(&delta(&[("1", "x", -1)]));
        assert!(diff.0.is_empty() && diff.1.is_empty());
        assert_eq!(v.len(), 1);
        assert_eq!(v.derivations(&vec![Value::str("x")]), 1);
        // New tuple appears.
        let (app, _) = v.push_batch(&delta(&[("9", "z", 1)]));
        assert_eq!(app, vec![vec![Value::str("z")]]);
        assert_eq!(v.len(), 2);
    }

    #[test]
    fn as_relation_is_sorted_and_deduped() {
        let rel = view(&base()).as_relation();
        assert_eq!(rel.len(), 2);
        assert_eq!(rel.rows()[0], vec![Value::str("x")]);
        assert_eq!(rel.schema.name, "v");
    }

    #[test]
    fn empty_before_refresh() {
        // Seeded from an empty base the view is empty, and rows written
        // without an updategram stay invisible until the next re-seed.
        let mut c = empty_base();
        let mut v = view(&c);
        assert!(v.is_empty());
        c.insert("r", vec!["1".into(), "x".into()]);
        assert!(v.is_empty());
        v.refresh_full(&c).unwrap();
        assert_eq!(v.len(), 1);
    }

    #[test]
    fn delete_below_zero_then_insert_cancels() {
        // Regression: a retraction ahead of its insert used to be clamped
        // away, so the later insert made the tuple appear with net count
        // zero. Z-set semantics: -1 then +1 nets to nothing.
        let mut v = empty_view();
        let (app, van) = v.push_batch(&delta(&[("1", "w", -1)]));
        assert!(app.is_empty() && van.is_empty());
        assert_eq!(v.derivations(&vec![Value::str("w")]), -1);
        assert!(v.is_empty(), "negative counts are invisible");
        let (app, van) = v.push_batch(&delta(&[("1", "w", 1)]));
        assert!(app.is_empty(), "net-zero tuple must not appear");
        assert!(van.is_empty());
        assert!(v.is_empty());
        assert_eq!(v.derivations(&vec![Value::str("w")]), 0);
    }

    #[test]
    fn negative_count_needs_full_repayment_to_appear() {
        let mut v = empty_view();
        v.push_batch(&delta(&[("1", "w", -2)]));
        let (app, _) = v.push_batch(&delta(&[("1", "w", 2)]));
        assert!(app.is_empty());
        // Only the third insert takes the count positive.
        let (app, _) = v.push_batch(&delta(&[("1", "w", 1)]));
        assert_eq!(app, vec![vec![Value::str("w")]]);
        assert_eq!(v.len(), 1);
    }

    #[test]
    fn duplicate_tuple_deltas_accumulate() {
        // Regression: repeated (row, +1) entries in one batch must sum,
        // and the set-level diff must report the tuple exactly once.
        let mut v = empty_view();
        let (app, _) = v.push_batch(&delta(&[("1", "d", 1), ("1", "d", 1), ("1", "d", 1)]));
        assert_eq!(app, vec![vec![Value::str("d")]]);
        assert_eq!(v.derivations(&vec![Value::str("d")]), 3);
        // Retracting two of three copies keeps the tuple visible.
        let (_, van) = v.push_batch(&delta(&[("1", "d", -1), ("1", "d", -1)]));
        assert!(van.is_empty());
        assert_eq!(v.len(), 1);
    }

    #[test]
    fn union_sums_derivations_across_disjuncts() {
        // Two disjuncts derive "x"; the tuple vanishes only when the
        // *summed* weight stops being positive. The third disjunct reads a
        // relation the catalog lacks and is left out.
        let mut c = base();
        let mut s = Relation::new(RelSchema::text("s", &["b"]));
        s.insert(vec!["x".into()]);
        c.register(s);
        let disjuncts: Vec<_> = ["v(B) :- r(A, B)", "v(B) :- s(B)", "v(B) :- gone(B)"]
            .iter()
            .map(|t| parse_query(t).unwrap())
            .collect();
        let mut v = MaterializedView::union("v", disjuncts[0].clone(), &disjuncts, &c);
        assert_eq!(v.disjuncts(), 2);
        assert_eq!(v.derivations(&vec![Value::str("x")]), 3);
        assert_eq!(v.len(), 2);
        let gone = Updategram::deletes(
            "r",
            vec![vec!["1".into(), "x".into()], vec!["2".into(), "x".into()]],
        );
        let (app, van) = v.apply_gram(&mut c, &gone).unwrap();
        assert!(app.is_empty() && van.is_empty(), "still derived through s");
        let gone = Updategram::deletes("s", vec![vec!["x".into()]]);
        let (_, van) = v.apply_gram(&mut c, &gone).unwrap();
        assert_eq!(van, vec![vec![Value::str("x")]]);
        assert_eq!(v.as_relation().rows(), [vec![Value::str("y")]]);
    }

    #[test]
    fn a_failed_refresh_leaves_every_circuit_as_it_was() {
        let mut c = base();
        c.register(Relation::with_rows(RelSchema::text("s", &["b"]), vec![vec!["x".into()]]));
        let disjuncts: Vec<_> =
            ["v(B) :- r(A, B)", "v(B) :- s(B)"].iter().map(|t| parse_query(t).unwrap()).collect();
        let mut v = MaterializedView::union("v", disjuncts[0].clone(), &disjuncts, &c);
        let bag = |v: &MaterializedView| v.as_bag().into_rows();
        let before = bag(&v);
        assert_eq!(before.len(), 4);
        // `r` holds one new row and `s` is gone: the second disjunct
        // cannot seed, so the first must not be re-seeded either.
        let mut moved = Catalog::new();
        moved.register(Relation::with_rows(
            RelSchema::text("r", &["a", "b"]),
            vec![vec!["9".into(), "zz".into()]],
        ));
        assert!(v.refresh_full(&moved).is_err());
        assert_eq!(bag(&v), before);
        assert!(v.refresh_full(&c).is_ok());
        assert_eq!(bag(&v), before);
    }

    #[test]
    fn dataflow_view_ignores_unrelated_grams() {
        let mut c = base();
        c.create(RelSchema::text("t", &["z"]));
        let mut v = view(&c);
        let before = v.as_relation();
        let work = v.work();
        let gram = Updategram::inserts("t", vec![vec!["new".into()]]);
        let (app, van) = v.apply_gram(&mut c, &gram).unwrap();
        assert!(app.is_empty() && van.is_empty());
        assert_eq!(v.as_relation().rows(), before.rows());
        assert_eq!(v.work(), work, "unrelated gram must cost nothing");
        assert!(!v.relations().contains("t"));
    }
}
