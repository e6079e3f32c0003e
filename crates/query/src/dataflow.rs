//! DBSP-style delta dataflow: continuous queries kept fresh in O(|Δ|).
//!
//! §3.1.2 wants materialized views maintained "versus simply invalidating
//! views and re-reading data". Re-evaluating delta *queries* against base
//! relations on every updategram is correct, but each round still scans
//! the unchanged base data to rebuild its hash indexes. This module has
//! no such rescan: a [`Circuit`] compiles a planned conjunctive body
//! (reusing the [`crate::plan`] step order) into a chain of bilinear
//! incremental hash joins whose per-side state stays **arranged**
//! (indexed by join key) between updates, so one updategram costs work
//! proportional to the delta and the bindings it touches, not to the
//! base tables.
//!
//! The algebra is Z-sets: a [`revere_storage::ZSet`] maps tuples to
//! signed multiplicities, insertions are `+w`, retractions `-w`, and
//! operators are linear (filter/map/project) or bilinear (join) in their
//! inputs, so `Δ(A ⋈ B) = ΔA ⋈ B + A ⋈ ΔB + ΔA ⋈ ΔB` — the decomposition
//! [`JoinState`] implements by joining `ΔL` against the *updated* right
//! arrangement and `ΔR` against the *old* left arrangement. A circuit is
//! one `JoinState` per plan step — left the bindings entering the step,
//! right the atom's filtered rows — and nothing else stateful: the output
//! Z-set's weights are derivation counts, and set semantics is read off
//! their sign where the view is kept (`pdms::views`), with no second copy
//! of the counts. The last step's join emits straight into the head: each
//! match is extended into one scratch binding, the query's comparisons
//! (a linear filter) and head projection (a linear map) run on it there,
//! and no intermediate binding Z-set is built. Stage 0's left side is the
//! constant unit binding, so no entering binding ever probes its rows and
//! they are not arranged.
//!
//! One type carries every Z-set here: a push reads a
//! [`revere_storage::ZSetBatch`] (what a tracked catalog records) and
//! returns a `ZSet`; binding deltas, arrangement groups and derivation
//! counts are `ZSet`s too, hashed under the seedless
//! [`revere_storage::fxhash`], probed and folded by borrowed key, and
//! sorted only when read ([`Circuit::output_set`],
//! [`Circuit::output_bag`]) — a push never scans or sorts full state.
//! Seeding ([`Circuit::init_full`]) runs the same stage loop as a push,
//! reading each relation's rows straight from the catalog.
//!
//! `tests/differential_ivm.rs` holds every circuit byte-identical to
//! [`crate::eval_planned`] recomputed from scratch after every delta;
//! `tests/property_tests.rs` pins the algebraic laws on the same
//! [`JoinState`] the circuits run.

use crate::ast::{CmpOp, ConjunctiveQuery, Term};
use crate::eval::{head_schema, validate, AtomSplit, EvalError};
use crate::plan::Plan;
use revere_storage::fxhash::{rebuild_if_full, FxMap};
use revere_storage::{Catalog, RelSchema, Relation, Tuple, Value, ZSet, ZSetBatch};
use std::borrow::Cow;
use std::collections::BTreeSet;

// ---------------------------------------------------------------------
// Arrangements and the bilinear join
// ---------------------------------------------------------------------

/// Write `t`'s `cols` into `key`, reusing its allocation.
fn fill_key(key: &mut Vec<Value>, cols: &[usize], t: &[Value]) {
    key.clear();
    key.extend(cols.iter().map(|&c| t[c].clone()));
}

/// A Z-set arranged (indexed) by a key: the per-side state an incremental
/// join probes instead of rescanning its input. Keys are column
/// projections of the stored tuples; the key index is a hash map and each
/// key's group a [`ZSet`], so neither a probe nor a fold walks an ordered
/// tree. Group iteration order is unspecified (but deterministic).
#[derive(Debug, Clone, Default)]
pub struct Arrangement {
    key_cols: Vec<usize>,
    index: FxMap<Vec<Value>, ZSet>,
    distinct: usize,
}

impl Arrangement {
    /// An empty arrangement keyed by the given columns of its tuples.
    pub fn new(key_cols: Vec<usize>) -> Self {
        Arrangement { key_cols, index: FxMap::default(), distinct: 0 }
    }

    /// Fold a delta into the arrangement (consolidating; groups and
    /// entries reaching weight zero are dropped). Cost is O(|delta|)
    /// index operations — touched entries only, never a full-index scan,
    /// or the "incremental" join would secretly pay O(base) per update.
    pub fn apply(&mut self, delta: &ZSet) {
        self.fold(delta.iter().map(|(t, w)| (Cow::Borrowed(&t[..]), w)));
    }

    /// [`Arrangement::apply`] over signed entries, each borrowed (cloned
    /// only when it enters) or owned (moved in). A key is cloned only
    /// when its group is created.
    fn fold<'a>(&mut self, entries: impl IntoIterator<Item = (Cow<'a, [Value]>, i64)>) {
        let mut key = Vec::with_capacity(self.key_cols.len());
        for (t, w) in entries {
            fill_key(&mut key, &self.key_cols, &t);
            match self.index.get_mut(key.as_slice()) {
                Some(group) => {
                    let before = group.len();
                    group.add(t, w);
                    self.distinct = self.distinct + group.len() - before;
                    if group.is_empty() {
                        self.index.remove(key.as_slice());
                    }
                }
                None => {
                    rebuild_if_full(&mut self.index);
                    self.index.insert(key.clone(), ZSet::from_iter([(t, w)]));
                    self.distinct += 1;
                }
            }
        }
    }

    /// Iterate the `(tuple, weight)` entries stored under `key`.
    pub fn probe<'a>(&'a self, key: &[Value]) -> impl Iterator<Item = (&'a Tuple, i64)> + 'a {
        self.index.get(key).into_iter().flat_map(ZSet::iter)
    }

    /// Distinct tuples currently stored (arranged-state footprint).
    pub fn len(&self) -> usize {
        self.distinct
    }

    /// True when nothing is stored.
    pub fn is_empty(&self) -> bool {
        self.distinct == 0
    }
}

/// A bilinear incremental equi-join: both inputs kept arranged by their
/// join keys. One [`JoinState::push_with`] call implements
/// `Δ(L ⋈ R) = ΔL ⋈ R + L ⋈ ΔR + ΔL ⋈ ΔR` by folding `ΔR` into the right
/// arrangement *before* probing it with `ΔL`, and probing the *old* left
/// arrangement with `ΔR`.
#[derive(Debug, Clone)]
pub struct JoinState {
    left: Arrangement,
    right: Arrangement,
    left_key: Vec<usize>,
    right_key: Vec<usize>,
    /// Tuples touched across all pushes (probe hits + folded entries) —
    /// the deterministic cost counter E17 reports.
    pub work: u64,
}

impl JoinState {
    /// A join matching `left_key` columns of left tuples against
    /// `right_key` columns of right tuples.
    pub fn new(left_key: Vec<usize>, right_key: Vec<usize>) -> Self {
        JoinState {
            left: Arrangement::new(left_key.clone()),
            right: Arrangement::new(right_key.clone()),
            left_key,
            right_key,
            work: 0,
        }
    }

    /// Push one round of input deltas; `emit(l, r, w)` receives every
    /// matched pair with its signed multiplicity (`w_l · w_r`).
    pub fn push_with(&mut self, dl: &ZSet, dr: &ZSet, emit: impl FnMut(&Tuple, &Tuple, i64)) {
        let dr: Vec<_> = dr.iter().collect();
        self.right.fold(dr.iter().map(|&(r, w)| (Cow::Borrowed(&r[..]), w)));
        self.join(dl.iter(), &dr, emit);
        self.left.apply(dl);
    }

    /// One round between folding `ΔR` into the right arrangement, which
    /// the caller does first, and folding `ΔL` into the left one, which
    /// it does next: emit `ΔL ⋈ R` (the updated right side) and `L ⋈ ΔR`
    /// (the old left side). Both deltas consolidated.
    fn join<'l>(
        &mut self,
        dl: impl ExactSizeIterator<Item = (&'l Tuple, i64)>,
        dr: &[(&Tuple, i64)],
        mut emit: impl FnMut(&Tuple, &Tuple, i64),
    ) {
        self.work += (dl.len() + dr.len()) as u64;
        let mut key = Vec::with_capacity(self.left_key.len());
        for (l, wl) in dl {
            fill_key(&mut key, &self.left_key, l);
            for (r, wr) in self.right.probe(&key) {
                self.work += 1;
                emit(l, r, wl * wr);
            }
        }
        for &(r, wr) in dr {
            fill_key(&mut key, &self.right_key, r);
            for (l, wl) in self.left.probe(&key) {
                self.work += 1;
                emit(l, r, wl * wr);
            }
        }
    }

    /// [`JoinState::push_with`] emitting concatenated `l ++ r` tuples —
    /// the form the bilinearity property test checks against a
    /// from-scratch recompute.
    pub fn push_concat(&mut self, dl: &ZSet, dr: &ZSet) -> ZSet {
        let mut out = ZSet::new();
        self.push_with(dl, dr, |l, r, w| {
            let mut t = l.clone();
            t.extend(r.iter().cloned());
            out.add(t, w);
        });
        out
    }
}

// ---------------------------------------------------------------------
// Circuits: a planned conjunctive body as an operator chain
// ---------------------------------------------------------------------

/// A resolved term: a binding-table column, a constant, or a variable the
/// body never binds (such a comparison/head position can never be
/// satisfied — mirroring the evaluator, which drops those rows).
#[derive(Debug, Clone)]
enum Operand {
    Col(usize),
    Const(Value),
    Unbound,
}

impl Operand {
    fn resolve(term: &Term, var_cols: &[String]) -> Operand {
        match term {
            Term::Const(c) => Operand::Const(c.clone()),
            Term::Var(v) => var_cols
                .iter()
                .position(|c| c == v)
                .map(Operand::Col)
                .unwrap_or(Operand::Unbound),
        }
    }

    fn value<'a>(&'a self, binding: &'a Tuple) -> Option<&'a Value> {
        match self {
            Operand::Col(i) => Some(&binding[*i]),
            Operand::Const(c) => Some(c),
            Operand::Unbound => None,
        }
    }
}

/// True when `binding` satisfies every comparison.
fn cmp_pass(comparisons: &[(Operand, CmpOp, Operand)], binding: &Tuple) -> bool {
    comparisons.iter().all(|(l, op, r)| match (l.value(binding), r.value(binding)) {
        (Some(a), Some(b)) => op.apply(a, b),
        _ => false,
    })
}

/// The head tuple of `binding`, or `None` when the head names a variable
/// the body never binds. Allocated at its exact length: a seed moves it
/// into the derivation counts, where it lives as long as the circuit.
fn project(head: &[Operand], binding: &Tuple) -> Option<Tuple> {
    let mut t = Vec::with_capacity(head.len());
    for o in head {
        t.push(o.value(binding)?.clone());
    }
    Some(t)
}

/// One join step of a circuit: the atom's pushed-filter/key analysis plus
/// its incremental join — left the binding table entering this step,
/// arranged by the probe columns; right the atom's rows surviving pushed
/// filters, arranged by the atom-side join columns.
#[derive(Debug, Clone)]
struct Stage {
    relation: String,
    split: AtomSplit,
    join: JoinState,
    /// False for stage 0: its left side is the constant unit binding, so
    /// no entering binding ever probes its rows and they are not arranged.
    arrange_rows: bool,
}

/// Where one round's base rows come from: a pushed batch's per-relation
/// Z-sets, or (seeding) every row a catalog stores, each an insert.
#[derive(Clone, Copy)]
enum Input<'a> {
    Batch(&'a ZSetBatch),
    Catalog(&'a Catalog),
}

impl Stage {
    /// This round's consolidated delta on the stage's relation, borrowed
    /// from `input`, keeping the rows that survive the atom's pushed
    /// filters. A catalog's rows are consolidated by hash: equal rows sum,
    /// and the first one seen keeps its spelling, as a batch's would.
    fn rows<'a>(&self, input: Input<'a>) -> Vec<(&'a Tuple, i64)> {
        let keep = |t: &Tuple| t.len() == self.split.arity && self.split.row_passes(t);
        match input {
            Input::Batch(batch) => batch
                .get(&self.relation)
                .into_iter()
                .flat_map(ZSet::iter)
                .filter(|(t, _)| keep(t))
                .collect(),
            Input::Catalog(catalog) => {
                let rows = catalog.get(&self.relation).map_or(&[][..], Relation::rows);
                let mut counts: FxMap<&Tuple, i64> =
                    FxMap::with_capacity_and_hasher(rows.len(), Default::default());
                for t in rows.iter().filter(|t| keep(t)) {
                    *counts.entry(t).or_insert(0) += 1;
                }
                counts.into_iter().collect()
            }
        }
    }

    /// One round of this stage: fold its rows into the right arrangement
    /// (unless nothing probes it), join the bindings entering it with the
    /// rows, hand `emit` each match extended into one scratch binding,
    /// then move the entering bindings into the left arrangement.
    fn step(
        &mut self,
        d_bindings: ZSet,
        d_rows: &[(&Tuple, i64)],
        mut emit: impl FnMut(&Tuple, i64),
    ) {
        let Stage { split, join, arrange_rows, .. } = self;
        if *arrange_rows {
            join.right.fold(d_rows.iter().map(|&(r, w)| (Cow::Borrowed(&r[..]), w)));
        }
        let mut binding = Vec::new();
        join.join(d_bindings.iter(), d_rows, |b, r, w| {
            binding.clear();
            binding.extend_from_slice(b);
            extend_binding(split, &mut binding, r);
            emit(&binding, w);
        });
        join.left.fold(d_bindings.into_iter().map(|(b, w)| (Cow::Owned(b), w)));
    }
}

/// Extend a binding with an atom row's newly bound variables — identical
/// to the evaluator's probe extension.
fn extend_binding(split: &AtomSplit, binding: &mut Tuple, row: &Tuple) {
    binding.extend(split.new_vars.iter().map(|(i, _)| row[*i].clone()));
}

/// A compiled continuous query: the plan's join order as a chain of
/// bilinear incremental joins, then the query's comparisons (linear
/// filter) and head projection (linear map), accumulating derivation
/// counts of head tuples. Pushing a [`ZSetBatch`] costs work
/// proportional to the delta and the bindings it touches — never a base
/// relation rescan.
#[derive(Debug, Clone)]
pub struct Circuit {
    query: ConjunctiveQuery,
    stages: Vec<Stage>,
    comparisons: Vec<(Operand, CmpOp, Operand)>,
    head: Vec<Operand>,
    schema: RelSchema,
    /// Derivation counts of head tuples.
    out: ZSet,
    /// Batches pushed so far (including the initializing one).
    pub pushes: usize,
}

impl Circuit {
    /// Compile `q` under `plan` (which must
    /// [apply](crate::plan::Plan::applies_to) to it). The circuit starts
    /// empty; seed it with [`Circuit::init_full`] or push base data as
    /// insert deltas.
    pub fn new(q: &ConjunctiveQuery, plan: &Plan) -> Result<Circuit, EvalError> {
        if !plan.applies_to(q) {
            return Err(EvalError {
                message: format!(
                    "plan for {:?} does not apply to {:?}",
                    plan.key(),
                    q.canonical_key()
                ),
            });
        }
        let canonical = q.canonical_order();
        let mut var_cols: Vec<String> = Vec::new();
        let mut stages = Vec::with_capacity(plan.order.len());
        for &ci in &plan.order {
            let atom = &q.body[canonical[ci]];
            let split = AtomSplit::analyze(atom, &var_cols);
            let mut join = JoinState::new(
                split.join_cols.iter().map(|(_, b)| *b).collect(),
                split.join_cols.iter().map(|(i, _)| *i).collect(),
            );
            let arrange_rows = !stages.is_empty();
            if !arrange_rows {
                // The unit binding: one empty tuple with weight 1. It
                // never changes; stage 0's only live input is its rows'
                // delta. Seeding it is construction, not refresh work.
                join.left.fold([(Cow::Owned(Vec::new()), 1)]);
            }
            var_cols.extend(split.new_vars.iter().map(|(_, v)| v.clone()));
            stages.push(Stage { relation: atom.relation.clone(), split, join, arrange_rows });
        }
        let comparisons = q
            .comparisons
            .iter()
            .map(|c| {
                (
                    Operand::resolve(&c.left, &var_cols),
                    c.op,
                    Operand::resolve(&c.right, &var_cols),
                )
            })
            .collect();
        let head = q.head.terms.iter().map(|t| Operand::resolve(t, &var_cols)).collect();
        Ok(Circuit {
            query: q.clone(),
            stages,
            comparisons,
            head,
            schema: head_schema(q),
            out: ZSet::new(),
            pushes: 0,
        })
    }

    /// The query this circuit maintains.
    pub fn definition(&self) -> &ConjunctiveQuery {
        &self.query
    }

    /// The base relations the circuit listens to. Batches touching none
    /// of these are guaranteed no-ops (the subscription layer's
    /// affected-set check).
    pub fn relations(&self) -> BTreeSet<String> {
        self.stages.iter().map(|s| s.relation.clone()).collect()
    }

    /// Seed an empty circuit with a source's current contents in one pass
    /// of the stage loop [`Circuit::push`] runs: each stage reads its
    /// relation's rows straight from `source` as inserts, borrowed and
    /// consolidated by hash, and the last stage folds its matches straight
    /// into the derivation counts. The result, and every counter, equals
    /// pushing the whole catalog as one batch of `+1`s — by bilinearity
    /// the from-scratch evaluation. Errors if a body relation is missing
    /// or has the wrong arity (same contract as the evaluator).
    pub fn init_full(&mut self, source: &Catalog) -> Result<(), EvalError> {
        validate(&self.query, source)?;
        let mut derivations = std::mem::take(&mut self.out);
        self.round(Input::Catalog(source), |t, w| derivations.add(t, w));
        self.out = derivations;
        Ok(())
    }

    /// Push one batch of base-relation deltas through the circuit and
    /// return the derivation-level output delta (head tuples with signed
    /// multiplicities), also folded into [`Circuit::derivations`].
    pub fn push(&mut self, batch: &ZSetBatch) -> ZSet {
        let mut out = ZSet::new();
        self.round(Input::Batch(batch), |t, w| out.add(t, w));
        self.out.merge(&out);
        out
    }

    /// The stage loop of one round, shared by [`Circuit::push`] and
    /// [`Circuit::init_full`]; `emit` receives every head tuple derived or
    /// retracted, unconsolidated.
    ///
    /// Every stage but the last folds its matches into the next stage's
    /// binding delta, consolidated by hash; the last one applies the
    /// comparisons (linear filter) and head projection (linear map) to
    /// each match, which by linearity equals filtering and projecting the
    /// consolidated binding delta.
    fn round(&mut self, input: Input<'_>, mut emit: impl FnMut(Tuple, i64)) {
        let Circuit { stages, comparisons, head, pushes, .. } = self;
        *pushes += 1;
        let Some((last, earlier)) = stages.split_last_mut() else {
            return;
        };
        // ΔB_{-1}: the unit binding never changes.
        let mut d_bindings = ZSet::new();
        for stage in earlier {
            let (d_rows, mut next) = (stage.rows(input), ZSet::new());
            stage.step(d_bindings, &d_rows, |binding, w| next.add(binding, w));
            d_bindings = next;
        }
        let d_rows = last.rows(input);
        last.step(d_bindings, &d_rows, |binding, w| {
            if cmp_pass(comparisons, binding) {
                if let Some(t) = project(head, binding) {
                    emit(t, w);
                }
            }
        });
    }

    /// The maintained derivation counts of head tuples: the bag result
    /// as a Z-set.
    pub fn derivations(&self) -> &ZSet {
        &self.out
    }

    /// The maintained bag result, sorted — byte-comparable with
    /// `eval_planned(..).0.sorted()`.
    pub fn output_bag(&self) -> Relation {
        self.out.to_bag(self.schema.clone())
    }

    /// The maintained set-semantics result, sorted and deduplicated.
    pub fn output_set(&self) -> Relation {
        Relation::with_rows(self.schema.clone(), self.out.support())
    }

    /// Tuples touched across all pushes — folded delta entries plus probe
    /// hits, summed over the stages' joins. The deterministic refresh-cost
    /// counter E17 sweeps.
    pub fn work(&self) -> u64 {
        self.stages.iter().map(|s| s.join.work).sum()
    }

    /// Distinct tuples held across all arrangements — the circuit's
    /// state footprint (reported by E17 as write amplification).
    pub fn arranged_tuples(&self) -> usize {
        self.stages.iter().map(|s| s.join.left.len() + s.join.right.len()).sum()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::eval_planned;
    use revere_util::obs::{Obs, SpanHandle};
    use crate::parse::parse_query;
    use crate::plan::plan_cq;
    use revere_storage::Catalog;

    fn catalog() -> Catalog {
        let mut c = Catalog::new();
        let mut r = Relation::new(RelSchema::text("r", &["a", "b"]));
        let mut s = Relation::new(RelSchema::text("s", &["b", "c"]));
        for (a, b) in [("1", "x"), ("2", "x"), ("3", "y")] {
            r.insert(vec![a.into(), b.into()]);
        }
        for (b, c2) in [("x", "p"), ("y", "q"), ("z", "r")] {
            s.insert(vec![b.into(), c2.into()]);
        }
        c.register(r);
        c.register(s);
        c
    }

    fn circuit(c: &Catalog, text: &str) -> Circuit {
        let q = parse_query(text).unwrap();
        let plan = plan_cq(&q, c);
        let mut cir = Circuit::new(&q, &plan).unwrap();
        cir.init_full(c).unwrap();
        cir
    }

    fn assert_matches_recompute(cir: &Circuit, c: &Catalog) {
        let q = cir.definition().clone();
        let plan = plan_cq(&q, c);
        let fresh =
            eval_planned(&q, &plan, c, &Obs::disabled(), &SpanHandle::none()).unwrap().0.sorted();
        assert_eq!(cir.output_bag().rows(), fresh.rows(), "circuit diverged from recompute");
    }

    #[test]
    fn init_matches_recompute() {
        let c = catalog();
        for text in [
            "q(A, C) :- r(A, B), s(B, C)",
            "q(B) :- r(A, B)",
            "q(A) :- r(A, 'x')",
            "q(A, C) :- r(A, B), s(B, C), A != C",
        ] {
            let cir = circuit(&c, text);
            assert_matches_recompute(&cir, &c);
        }
    }

    #[test]
    fn insert_and_delete_deltas_track_recompute() {
        let mut c = catalog();
        let mut cir = circuit(&c, "q(A, C) :- r(A, B), s(B, C)");
        // Insert: a new r row joins with an existing s row.
        let mut batch = ZSetBatch::new();
        batch.add("r", vec!["4".into(), "y".into()], 1);
        c.insert("r", vec!["4".into(), "y".into()]);
        let out = cir.push(&batch);
        assert_eq!(out.len(), 1);
        assert_matches_recompute(&cir, &c);
        // Delete: retract an r row; its derivation vanishes.
        let mut batch = ZSetBatch::new();
        batch.add("r", vec!["1".into(), "x".into()], -1);
        c.delete("r", &[Value::str("1"), Value::str("x")]);
        let out = cir.push(&batch);
        assert_eq!(out.iter().map(|(_, w)| w).sum::<i64>(), -1);
        assert_matches_recompute(&cir, &c);
    }

    #[test]
    fn self_join_delta_join_delta() {
        // A self-loop inserted into a transitive step derives through the
        // delta in BOTH atom positions — the Δ⋈Δ term.
        let mut c = Catalog::new();
        let mut e = Relation::new(RelSchema::text("e", &["a", "b"]));
        e.insert(vec!["1".into(), "2".into()]);
        c.register(e);
        let mut cir = circuit(&c, "q(X, Z) :- e(X, Y), e(Y, Z)");
        let mut batch = ZSetBatch::new();
        batch.add("e", vec!["9".into(), "9".into()], 1);
        c.insert("e", vec!["9".into(), "9".into()]);
        cir.push(&batch);
        assert!(cir.output_set().contains(&vec!["9".into(), "9".into()]));
        assert_matches_recompute(&cir, &c);
    }

    #[test]
    fn weighted_rows_count_as_bags() {
        // Duplicate base rows are weight-2 entries; derivations multiply.
        let mut c = Catalog::new();
        let mut r = Relation::new(RelSchema::text("r", &["a"]));
        r.insert(vec!["x".into()]);
        r.insert(vec!["x".into()]);
        c.register(r);
        let cir = circuit(&c, "q(A) :- r(A)");
        assert_eq!(cir.derivations().weight(&["x".into()]), 2);
        assert_matches_recompute(&cir, &c);
    }

    #[test]
    fn seeding_keeps_the_first_spelling_of_equal_rows() {
        // `Int(2)` and `Float(2.0)` are one row of weight 2, spelled as the
        // catalog holds it first — as a batch of the rows would spell it.
        for (first, second) in
            [(Value::Int(2), Value::Float(2.0)), (Value::Float(2.0), Value::Int(2))]
        {
            let mut c = Catalog::new();
            let mut r = Relation::new(RelSchema::text("r", &["a"]));
            r.insert(vec![first.clone()]);
            r.insert(vec![second]);
            c.register(r);
            let cir = circuit(&c, "q(A) :- r(A)");
            let seeded: Vec<_> =
                cir.derivations().iter().map(|(t, w)| (format!("{t:?}"), w)).collect();
            assert_eq!(seeded, [(format!("{:?}", vec![first]), 2)]);
        }
    }

    #[test]
    fn unaffected_relation_is_a_cheap_noop() {
        let c = catalog();
        let mut cir = circuit(&c, "q(A, C) :- r(A, B), s(B, C)");
        let work_before = cir.work();
        let mut batch = ZSetBatch::new();
        batch.add("unrelated", vec!["z".into()], 1);
        let out = cir.push(&batch);
        assert!(out.is_empty());
        assert_eq!(cir.work(), work_before);
    }

    #[test]
    fn circuit_rejects_non_applicable_plan() {
        let c = catalog();
        let a = parse_query("q(B) :- r(A, B)").unwrap();
        let b = parse_query("q(A, C) :- r(A, B), s(B, C)").unwrap();
        let plan = plan_cq(&a, &c);
        assert!(Circuit::new(&b, &plan).is_err());
    }

    #[test]
    fn init_full_validates_like_the_evaluator() {
        let c = catalog();
        let q = parse_query("q(X) :- ghost(X)").unwrap();
        let plan = plan_cq(&q, &c);
        let mut cir = Circuit::new(&q, &plan).unwrap();
        assert!(cir.init_full(&c).is_err());
    }
}
