//! Updategrams and incremental view maintenance.
//!
//! §3.1.2: "Piazza treats updates as first-class citizens, as any other
//! data source, in the form of 'updategrams' \[36\]. Updategrams on base
//! data can be combined to create updategrams for views. When a view is
//! recomputed on a Piazza node, the query optimizer decides which
//! updategrams to use in a cost-based fashion."
//!
//! An [`Updategram`] is the wire's intent on one base relation: rows to
//! insert, and rows of which to delete every copy. Its effect is what the
//! owning catalog signs when it applies the gram ([`Catalog::apply`]): a
//! [`revere_storage::ZSetBatch`], the one Z-set type a view is pushed.
//! [`maintain`] applies a batch of updategrams to a catalog and brings a
//! [`MaterializedView`] up to date, choosing between the two things the
//! view can do — **incrementally** (each gram's signed rows pushed
//! through the view's circuits, O(|Δ|)) or by **full recomputation**
//! (apply the grams, re-plan, re-seed) — with a simple cost model:
//! exactly the decision the paper assigns to the optimizer. Experiment E8
//! validates the crossover.
//!
//! The delta rule lives in [`revere_query::dataflow`]: every join stage
//! computes `Δ(A ⋈ B) = ΔA ⋈ (B + ΔB) + A ⋈ ΔB` against arranged state, so
//! self-joins (the Δ⋈Δ term), stored duplicates and repeated delete rows
//! need no special case here: the catalog signs a gram where it applies
//! it ([`revere_storage::Change`]).

use crate::views::MaterializedView;
use revere_query::eval::EvalError;
use revere_storage::{ArityError, Catalog, Relation, Tuple, ZSetBatch};

/// A change on one base relation as sent: rows to insert and rows to
/// delete, which the owning catalog signs into a Z-set where it applies it.
#[derive(Debug, Clone, Default)]
pub struct Updategram {
    /// The (qualified) base relation name.
    pub relation: String,
    /// Tuples to insert.
    pub insert: Vec<Tuple>,
    /// Tuples to delete (every occurrence is removed).
    pub delete: Vec<Tuple>,
}

impl Updategram {
    /// An insert-only updategram.
    pub fn inserts(relation: impl Into<String>, rows: Vec<Tuple>) -> Self {
        Updategram { relation: relation.into(), insert: rows, delete: Vec::new() }
    }

    /// A delete-only updategram.
    pub fn deletes(relation: impl Into<String>, rows: Vec<Tuple>) -> Self {
        Updategram { relation: relation.into(), insert: Vec::new(), delete: rows }
    }

    /// Total changed tuples.
    pub fn size(&self) -> usize {
        self.insert.len() + self.delete.len()
    }

    /// True when the gram changes nothing. Sealing an empty gram is
    /// legal but wasteful — senders skip them to keep the change log
    /// (and the wire) free of no-op frames.
    pub fn is_empty(&self) -> bool {
        self.insert.is_empty() && self.delete.is_empty()
    }

    /// Refuse a row whose arity is not its relation's in `catalog` (a
    /// relation the catalog lacks refuses nothing: applying the gram
    /// there is a no-op).
    pub fn check_arity(&self, catalog: &Catalog) -> Result<(), ArityError> {
        match catalog.get(&self.relation) {
            Some(rel) => rel.check_arity(self.delete.iter().chain(&self.insert)),
            None => Ok(()),
        }
    }

    /// Stamp this gram with a delivery id, making it a unit of
    /// at-least-once propagation (see [`crate::propagation`]).
    pub fn sequenced(self, id: u64) -> SequencedGram {
        SequencedGram { id, gram: self }
    }
}

/// An updategram stamped with a link-unique delivery id. Duplicated
/// deliveries of the same id are deduplicated at the receiver (idempotent
/// apply), which is what makes at-least-once shipping safe.
#[derive(Debug, Clone)]
pub struct SequencedGram {
    /// Delivery id, unique per propagation link.
    pub id: u64,
    /// The payload.
    pub gram: Updategram,
}

/// How the optimizer decided to bring the view up to date.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum MaintenanceChoice {
    /// Push each gram's delta through the view's circuits.
    Incremental,
    /// Invalidate: apply the grams, re-plan and re-seed the view.
    Recompute,
}

/// Outcome of one maintenance round.
#[derive(Debug, Clone)]
pub struct MaintenanceReport {
    /// The path taken.
    pub choice: MaintenanceChoice,
    /// Estimated incremental cost (tuples touched).
    pub est_incremental: usize,
    /// Estimated recompute cost (tuples touched).
    pub est_recompute: usize,
}

/// Cost model: both paths approximated by tuples read.
///
/// * Incremental: for each changed atom occurrence, the delta joins with
///   the rest of the body — approximated by `|Δ| × (body_len − 1)` index
///   probes plus the delta itself, per occurrence of the changed relation.
/// * Recompute: reads every base relation in the body once.
fn estimate(
    view: &MaterializedView,
    catalog: &Catalog,
    grams: &[Updategram],
) -> (usize, usize) {
    let body = &view.definition.body;
    let recompute: usize = body
        .iter()
        .map(|a| catalog.get(&a.relation).map(Relation::len).unwrap_or(0))
        .sum();
    let mut incremental = 0usize;
    for g in grams {
        let occurrences = body.iter().filter(|a| a.relation == g.relation).count();
        incremental += g.size() * body.len().max(1) * occurrences.max(1);
    }
    (incremental, recompute)
}

/// Apply `grams` to `catalog` and bring `view` up to date.
///
/// `force` overrides the cost-based choice (used by the E8 ablation).
/// Every gram's arity is checked before any is applied: a row of the
/// wrong arity anywhere in `grams` refuses the whole call, leaving the
/// catalog and the view as they were.
pub fn maintain(
    catalog: &mut Catalog,
    view: &mut MaterializedView,
    grams: &[Updategram],
    force: Option<MaintenanceChoice>,
) -> Result<MaintenanceReport, EvalError> {
    for g in grams {
        g.check_arity(catalog)?;
    }
    let (est_incremental, est_recompute) = estimate(view, catalog, grams);
    let choice = force.unwrap_or(if est_incremental < est_recompute {
        MaintenanceChoice::Incremental
    } else {
        MaintenanceChoice::Recompute
    });
    match choice {
        MaintenanceChoice::Recompute => {
            apply_updategrams(catalog, grams);
            view.refresh_full(catalog)?;
        }
        MaintenanceChoice::Incremental => {
            for g in grams {
                let change = catalog.apply(&g.relation, &g.delete, &g.insert)?;
                view.push(&ZSetBatch::from(&change));
            }
        }
    }
    Ok(MaintenanceReport { choice, est_incremental, est_recompute })
}

/// Apply updategrams through [`Catalog::apply`] — deletes first, every
/// copy removed, then inserts. Panics, before that gram is journaled or
/// written, on a row whose arity is not its relation's.
pub fn apply_updategrams(catalog: &mut Catalog, grams: &[Updategram]) {
    for g in grams {
        catalog.apply(&g.relation, &g.delete, &g.insert).unwrap_or_else(|e| panic!("{e}"));
    }
}

/// The batch applying one updategram would make of the catalog's current
/// state ([`Catalog::sign`]): each insert is `+1`, each *distinct* delete
/// row `-m` for its `m` current copies. Grams on unknown relations yield
/// an empty batch.
pub fn gram_to_batch(catalog: &Catalog, gram: &Updategram) -> ZSetBatch {
    ZSetBatch::from(&catalog.sign(&gram.relation, &gram.delete, &gram.insert))
}

#[cfg(test)]
mod tests {
    use super::*;
    use revere_query::eval::eval_cq_bag;
    use revere_query::parse_query;
    use revere_storage::{Attribute, RelSchema, Value};

    fn base() -> Catalog {
        let mut c = Catalog::new();
        let mut r = Relation::new(RelSchema::text("r", &["a", "b"]));
        let mut s = Relation::new(RelSchema::text("s", &["b", "c"]));
        for (a, b) in [("1", "x"), ("2", "x"), ("3", "y")] {
            r.insert(vec![a.into(), b.into()]);
        }
        for (b, c) in [("x", "p"), ("y", "q"), ("z", "r")] {
            s.insert(vec![b.into(), c.into()]);
        }
        c.register(r);
        c.register(s);
        c
    }

    fn view_of(text: &str, c: &Catalog) -> MaterializedView {
        MaterializedView::new("v", parse_query(text).unwrap(), c).unwrap()
    }

    fn view(c: &Catalog) -> MaterializedView {
        view_of("v(A, C) :- r(A, B), s(B, C)", c)
    }

    /// Invariant: after maintenance the view equals a from-scratch
    /// evaluation, derivation counts included (bag equality).
    fn assert_consistent(catalog: &Catalog, view: &MaterializedView) {
        let fresh = eval_cq_bag(&view.definition, catalog).unwrap().sorted();
        assert_eq!(view.as_bag().rows(), fresh.rows(), "view diverged from recompute");
    }

    #[test]
    fn insert_maintenance() {
        let mut c = base();
        let mut v = view(&c);
        let g = Updategram::inserts("r", vec![vec!["4".into(), "y".into()]]);
        let rep = maintain(&mut c, &mut v, &[g], Some(MaintenanceChoice::Incremental)).unwrap();
        assert_eq!(rep.choice, MaintenanceChoice::Incremental);
        assert!(v.as_relation().contains(&vec![Value::str("4"), Value::str("q")]));
        assert_consistent(&c, &v);
    }

    #[test]
    fn delete_maintenance() {
        let mut c = base();
        let mut v = view(&c);
        let g = Updategram::deletes("r", vec![vec!["1".into(), "x".into()]]);
        maintain(&mut c, &mut v, &[g], Some(MaintenanceChoice::Incremental)).unwrap();
        assert!(!v.as_relation().contains(&vec![Value::str("1"), Value::str("p")]));
        assert_consistent(&c, &v);
    }

    #[test]
    fn mixed_batch_over_both_relations() {
        let mut c = base();
        let mut v = view(&c);
        let grams = vec![
            Updategram {
                relation: "r".into(),
                insert: vec![vec!["5".into(), "z".into()]],
                delete: vec![vec!["2".into(), "x".into()]],
            },
            Updategram {
                relation: "s".into(),
                insert: vec![vec!["y".into(), "q2".into()]],
                delete: vec![vec!["x".into(), "p".into()]],
            },
        ];
        maintain(&mut c, &mut v, &grams, Some(MaintenanceChoice::Incremental)).unwrap();
        assert_consistent(&c, &v);
        assert!(v.as_relation().contains(&vec![Value::str("5"), Value::str("r")]));
        assert!(v.as_relation().contains(&vec![Value::str("3"), Value::str("q2")]));
    }

    #[test]
    fn duplicate_supporting_derivations_survive_partial_delete() {
        // v(C) :- r(A, B), s(B, C): tuple "p" derived via A=1 and A=2.
        let mut c = base();
        let mut v = view_of("v(C) :- r(A, B), s(B, C)", &c);
        assert_eq!(v.derivations(&vec![Value::str("p")]), 2);
        let g = Updategram::deletes("r", vec![vec!["1".into(), "x".into()]]);
        maintain(&mut c, &mut v, &[g], Some(MaintenanceChoice::Incremental)).unwrap();
        // Still derivable via A=2.
        assert_eq!(v.derivations(&vec![Value::str("p")]), 1);
        assert_consistent(&c, &v);
    }

    #[test]
    fn self_join_maintenance() {
        let mut c = Catalog::new();
        let mut e = Relation::new(RelSchema::text("e", &["a", "b"]));
        for (a, b) in [("1", "2"), ("2", "3")] {
            e.insert(vec![a.into(), b.into()]);
        }
        c.register(e);
        let mut v = view_of("v(X, Z) :- e(X, Y), e(Y, Z)", &c);
        assert_eq!(v.len(), 1);
        // Insert an edge that creates paths through BOTH atom positions.
        let g = Updategram::inserts("e", vec![vec!["3".into(), "1".into()]]);
        maintain(&mut c, &mut v, &[g], Some(MaintenanceChoice::Incremental)).unwrap();
        assert_consistent(&c, &v);
        assert_eq!(v.len(), 3);
    }

    #[test]
    fn self_join_delta_join_delta() {
        // Inserting a self-loop creates a derivation using the delta in
        // BOTH atom positions — the Δ⋈Δ term naive per-occurrence rules miss.
        let mut c = Catalog::new();
        let mut e = Relation::new(RelSchema::text("e", &["a", "b"]));
        e.insert(vec!["1".into(), "2".into()]);
        c.register(e);
        let mut v = view_of("v(X, Z) :- e(X, Y), e(Y, Z)", &c);
        let g = Updategram::inserts("e", vec![vec!["9".into(), "9".into()]]);
        maintain(&mut c, &mut v, &[g], Some(MaintenanceChoice::Incremental)).unwrap();
        assert!(v.as_relation().contains(&vec![Value::str("9"), Value::str("9")]));
        assert_consistent(&c, &v);
    }

    #[test]
    fn self_join_delete() {
        let mut c = Catalog::new();
        let mut e = Relation::new(RelSchema::text("e", &["a", "b"]));
        for (a, b) in [("1", "2"), ("2", "3"), ("3", "1")] {
            e.insert(vec![a.into(), b.into()]);
        }
        c.register(e);
        let mut v = view_of("v(X, Z) :- e(X, Y), e(Y, Z)", &c);
        let g = Updategram::deletes("e", vec![vec!["2".into(), "3".into()]]);
        maintain(&mut c, &mut v, &[g], Some(MaintenanceChoice::Incremental)).unwrap();
        assert_consistent(&c, &v);
    }

    #[test]
    fn cost_model_prefers_incremental_for_small_deltas() {
        let mut c = Catalog::new();
        let mut r = Relation::new(RelSchema::text("r", &["a", "b"]));
        for i in 0..10_000 {
            r.insert(vec![Value::Int(i), Value::Int(i % 100)]);
        }
        c.register(r);
        let mut v = view_of("v(B) :- r(A, B)", &c);
        let g = Updategram::inserts("r", vec![vec![Value::Int(10_000), Value::Int(5)]]);
        let rep = maintain(&mut c, &mut v, &[g], None).unwrap();
        assert_eq!(rep.choice, MaintenanceChoice::Incremental);
        assert_consistent(&c, &v);
    }

    #[test]
    fn cost_model_prefers_recompute_for_huge_deltas() {
        let mut c = Catalog::new();
        let mut r = Relation::new(RelSchema::text("r", &["a", "b"]));
        r.insert(vec![Value::Int(0), Value::Int(0)]);
        c.register(r);
        let mut v = view_of("v(B) :- r(A, B)", &c);
        let big: Vec<Tuple> = (1..500).map(|i| vec![Value::Int(i), Value::Int(i)]).collect();
        let rep = maintain(&mut c, &mut v, &[Updategram::inserts("r", big)], None).unwrap();
        assert_eq!(rep.choice, MaintenanceChoice::Recompute);
        assert_consistent(&c, &v);
    }

    #[test]
    fn forced_recompute_matches_incremental_result() {
        let grams = vec![Updategram {
            relation: "r".into(),
            insert: vec![vec!["9".into(), "x".into()]],
            delete: vec![vec!["3".into(), "y".into()]],
        }];
        let (mut c1, mut c2) = (base(), base());
        let (mut v1, mut v2) = (view(&c1), view(&c2));
        maintain(&mut c1, &mut v1, &grams, Some(MaintenanceChoice::Incremental)).unwrap();
        maintain(&mut c2, &mut v2, &grams, Some(MaintenanceChoice::Recompute)).unwrap();
        assert_eq!(v1.as_relation().rows(), v2.as_relation().rows());
    }

    #[test]
    fn deleting_a_duplicated_row_retracts_every_copy() {
        // Regression: Catalog::delete removes every occurrence, but the
        // delta overlay used to list the deleted row once — leaving one
        // phantom derivation behind for each extra physical copy.
        let mut c = Catalog::new();
        let mut r = Relation::new(RelSchema::text("r", &["a"]));
        r.insert(vec!["x".into()]);
        r.insert(vec!["x".into()]);
        r.insert(vec!["y".into()]);
        c.register(r);
        let mut v = view_of("v(A) :- r(A)", &c);
        assert_eq!(v.derivations(&vec![Value::str("x")]), 2);
        let g = Updategram::deletes("r", vec![vec!["x".into()]]);
        maintain(&mut c, &mut v, &[g], Some(MaintenanceChoice::Incremental)).unwrap();
        assert_eq!(v.derivations(&vec![Value::str("x")]), 0);
        assert!(!v.as_relation().contains(&vec![Value::str("x")]));
        assert_consistent(&c, &v);
    }

    #[test]
    fn repeated_delete_rows_in_one_gram_retract_once() {
        // The first physical delete removes the row; the second removes
        // nothing and must not drive derivation counts doubly negative.
        let mut c = base();
        let mut v = view(&c);
        let g = Updategram::deletes(
            "r",
            vec![vec!["1".into(), "x".into()], vec!["1".into(), "x".into()]],
        );
        maintain(&mut c, &mut v, &[g], Some(MaintenanceChoice::Incremental)).unwrap();
        assert_consistent(&c, &v);
        assert_eq!(v.derivations(&vec![Value::str("1"), Value::str("p")]), 0);
    }

    #[test]
    fn gram_to_batch_signs_against_pre_state() {
        let mut c = Catalog::new();
        let mut r = Relation::new(RelSchema::text("r", &["a"]));
        r.insert(vec!["x".into()]);
        r.insert(vec!["x".into()]);
        c.register(r);
        let g = Updategram {
            relation: "r".into(),
            insert: vec![vec!["z".into()], vec!["z".into()]],
            delete: vec![vec!["x".into()], vec!["x".into()], vec!["ghost".into()]],
        };
        let batch = gram_to_batch(&c, &g);
        let d = batch.get("r").unwrap();
        assert_eq!(d.weight(&[Value::str("x")]), -2, "both stored copies retract");
        assert_eq!(d.weight(&[Value::str("z")]), 2, "insert occurrences count");
        assert_eq!(d.weight(&[Value::str("ghost")]), 0, "absent delete is a no-op");

        // A three-copy row listed twice, apart, among other deletes: one
        // retraction at its full multiplicity. Of equal rows spelled
        // differently, the first-listed spelling is the one signed.
        let mut c = Catalog::new();
        let mut r = Relation::new(RelSchema::new("r", vec![Attribute::int("a")]));
        for v in [3, 1, 3, 2, 3, 1] {
            r.insert(vec![Value::Int(v)]);
        }
        c.register(r);
        let g = Updategram {
            relation: "r".into(),
            insert: vec![vec![Value::Int(7)]],
            delete: vec![
                vec![Value::Float(3.0)],
                vec![Value::Int(1)],
                vec![Value::Int(9)],
                vec![Value::Int(3)],
                vec![Value::Int(1)],
            ],
        };
        let batch = gram_to_batch(&c, &g);
        let entries: Vec<(String, i64)> =
            batch.get("r").unwrap().sorted().iter().map(|(t, w)| (format!("{t:?}"), *w)).collect();
        let expected = [("[Int(1)]", -2), ("[Float(3.0)]", -3), ("[Int(7)]", 1)];
        assert_eq!(entries, expected.map(|(t, w)| (t.to_string(), w)));
    }

    #[test]
    fn a_wrong_arity_gram_refuses_the_whole_maintain_call() {
        // The first gram is well-formed; the second carries a one-column
        // row for a two-column relation. Neither path applies the first.
        for choice in [MaintenanceChoice::Incremental, MaintenanceChoice::Recompute] {
            let mut c = base();
            let mut v = view(&c);
            let (rows, bag) = (c.get("r").unwrap().clone(), v.as_bag());
            let grams = [
                Updategram::inserts("r", vec![vec!["4".into(), "y".into()]]),
                Updategram::inserts("s", vec![vec!["lonely".into()]]),
            ];
            let err = maintain(&mut c, &mut v, &grams, Some(choice)).unwrap_err();
            assert_eq!(err.message, "relation s has arity 2, row has 1", "{choice:?}");
            assert_eq!(c.get("r"), Some(&rows), "{choice:?}: the catalog moved");
            assert_eq!(v.as_bag().rows(), bag.rows(), "{choice:?}: the view moved");
        }
    }

    #[test]
    fn updategram_on_unrelated_relation_is_noop_for_view() {
        let mut c = base();
        c.create(RelSchema::text("t", &["z"]));
        let mut v = view(&c);
        let before = v.as_relation();
        let g = Updategram::inserts("t", vec![vec!["new".into()]]);
        maintain(&mut c, &mut v, &[g], Some(MaintenanceChoice::Incremental)).unwrap();
        assert_eq!(v.as_relation().rows(), before.rows());
        assert_eq!(c.get("t").unwrap().len(), 1);
    }
}
