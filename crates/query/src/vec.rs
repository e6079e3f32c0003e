//! Vectorized columnar execution of planned conjunctive queries — the
//! engine behind every entry point of [`crate::eval`].
//!
//! A plan runs in batches: the binding table is one [`ColumnVec`] per
//! variable, build-side filters (constants, within-atom repeated
//! variables) narrow one ascending row list in place
//! ([`ColumnVec::retain_eq_const`], [`ColumnVec::retain_eq`]), hash
//! joins build and probe with per-column typed keys (`i64`, dictionary
//! codes) where both sides share a concrete type, and match output is a
//! pair of index vectors gathered into new columns — integer and code
//! copies, no per-row tuple clones or key vectors.
//!
//! **Grouped build index.** A keyed step groups its filtered build rows
//! in one flat layout: each distinct key gets a group number (by first
//! appearance through one hash map for `i64` and `Value` keys; a `Str`
//! key's build dictionary code is its group), a count per group and its
//! prefix sums give every group a slice of one row array, and a fill in
//! relation order leaves each key's matches as one slice in relation
//! order. However many keys, the index is one map (none for a `Str` key)
//! and two arrays; the probe looks each binding's key up once and copies
//! its slice.
//!
//! **Comparison pass.** Comparisons run after the last join step, column
//! by column: each narrows one list of kept rows, an `Int` column
//! against an `Int` constant as `i64`s (a constant on the left flips the
//! operator) and every other pair through [`CmpOp::apply`] on `Value`s.
//! The binding columns are gathered once by the rows kept, and not at all
//! when every row survives.
//!
//! **Determinism contract.** Output row order is a pure function of the
//! query, the plan and the data: head order, ties in binding order. The
//! binding table itself runs probe bindings in order, matches within a
//! binding in relation insert order; [`eval_planned`] then projects the
//! head in ascending order of its values, ordering binding rows by
//! integer keys (an `Int` column's value, a `Str` column's dictionary
//! rank, see `revere_storage::column`) and keeping rows with equal keys
//! in binding order. The bag leaves the engine sorted, so set semantics
//! over it ([`Relation::distinct`]) is one linear pass. Each phase — the
//! leading scan, the probe, the comparison filter and the head
//! projection — is one pass on the calling thread, so `query.eval.*`
//! counters, `eval.step` span fields and [`StepProfile`]s are emitted once
//! per step, in step order.
//!
//! `tests/differential_vec.rs` holds this engine to the nested-loop
//! oracle ([`crate::eval::eval_naive_bag`]) on generated corpora —
//! answers, errors, and step profiles.

use crate::ast::{CmpOp, ConjunctiveQuery, Term};
use crate::eval::{head_schema, validate, AtomSplit, EvalError, StepProfile};
use crate::plan::Plan;
use revere_storage::fxhash::FxMap;
use revere_storage::{Catalog, ColumnVec, ColumnarBatch, Relation, Value};
use revere_util::obs::{names, Obs, SpanHandle};
use std::borrow::Cow;
use std::cmp::Ordering;
use std::hash::Hash;

/// The columnar binding table: one column per bound variable, `rows`
/// logical rows. Starts with zero columns and one empty binding.
struct Bindings {
    names: Vec<String>,
    cols: Vec<ColumnVec>,
    rows: usize,
}

/// One step's hash index over the filtered build rows, in the tightest
/// key representation the join columns admit. Typed paths require both
/// sides to hold the same concrete [`ColumnVec`] variant — `Value`
/// equality is numeric across `Int`/`Float`, which only the generic
/// `Value`-keyed path honors (see `revere_storage::column` docs). A keyed
/// index maps each key to a group of [`Groups`].
enum BuildIndex {
    /// No join columns: every probe row matches every build row
    /// (leading scan or cartesian extension). Holds the filtered row
    /// indices in relation order.
    All(Vec<u32>),
    /// Single join column, both sides `Int`.
    Int { keys: FxMap<i64, u32>, groups: Groups },
    /// Single join column, both sides `Str`: grouped by *build* dictionary
    /// code (the code is the group), probed through a probe-code →
    /// build-code translation.
    Str {
        groups: Groups,
        /// `trans[probe_code]` = the build dictionary's code for the same
        /// string, or `None` when the build side never saw it.
        trans: Vec<Option<u32>>,
    },
    /// Anything else: materialized `Value` keys, equal exactly when the
    /// query language says so (numerically across `Int`/`Float`).
    Generic { keys: FxMap<Vec<Value>, u32>, groups: Groups },
}

/// The filtered build rows grouped by join key in one flat array: group
/// `g`'s rows are `rows[starts[g]..starts[g + 1]]`, in relation order.
struct Groups {
    starts: Vec<u32>,
    rows: Vec<u32>,
}

impl Groups {
    /// Group the ascending `sel_rows` into `n` groups, `group(i)` being
    /// the group of `sel_rows[i]`: count each group's rows, take prefix
    /// sums, and fill every group front to back — a stable counting sort.
    fn new(sel_rows: &[u32], n: usize, group: impl Fn(usize) -> u32) -> Groups {
        let mut starts = vec![0u32; n + 1];
        for i in 0..sel_rows.len() {
            starts[group(i) as usize + 1] += 1;
        }
        for g in 0..n {
            starts[g + 1] += starts[g];
        }
        let mut next = starts[..n].to_vec();
        let mut rows = vec![0; sel_rows.len()];
        for (i, &r) in sel_rows.iter().enumerate() {
            let slot = &mut next[group(i) as usize];
            rows[*slot as usize] = r;
            *slot += 1;
        }
        Groups { starts, rows }
    }

    /// Group `g`'s rows, in relation order.
    fn get(&self, g: u32) -> &[u32] {
        let g = g as usize;
        &self.rows[self.starts[g] as usize..self.starts[g + 1] as usize]
    }
}

/// Number the distinct keys of the `sel_rows` by first appearance, and
/// group the rows by them.
fn group_by_key<K: Hash + Eq>(sel_rows: &[u32], key: impl Fn(u32) -> K) -> (FxMap<K, u32>, Groups) {
    let mut keys = FxMap::with_capacity_and_hasher(sel_rows.len(), Default::default());
    let group_of: Vec<u32> = sel_rows
        .iter()
        .map(|&r| {
            let next = keys.len() as u32;
            *keys.entry(key(r)).or_insert(next)
        })
        .collect();
    let groups = Groups::new(sel_rows, keys.len(), |i| group_of[i]);
    (keys, groups)
}

/// Build the step's hash index from the filtered build rows.
fn build_index(
    split: &AtomSplit,
    batch: &ColumnarBatch,
    bind: &Bindings,
    sel_rows: Vec<u32>,
) -> BuildIndex {
    if split.join_cols.is_empty() {
        return BuildIndex::All(sel_rows);
    }
    if let [(bcol, pcol)] = split.join_cols.as_slice() {
        match (batch.column(*bcol), &bind.cols[*pcol]) {
            (ColumnVec::Int(build), ColumnVec::Int(_)) => {
                let (keys, groups) = group_by_key(&sel_rows, |r| build[r as usize]);
                return BuildIndex::Int { keys, groups };
            }
            (ColumnVec::Str { dict: bd, codes: bc }, ColumnVec::Str { dict: pd, .. }) => {
                let groups = Groups::new(&sel_rows, bd.strings().len(), |i| {
                    bc[sel_rows[i] as usize]
                });
                return BuildIndex::Str { groups, trans: bd.translate(pd) };
            }
            _ => {}
        }
    }
    let (keys, groups) = group_by_key(&sel_rows, |r| {
        split.join_cols.iter().map(|(i, _)| batch.column(*i).get(r as usize)).collect::<Vec<_>>()
    });
    BuildIndex::Generic { keys, groups }
}

/// Probe every binding row against the index, producing the match pairs
/// `(probe row, build row)` in binding order: bindings ascending, matches
/// within a binding in relation insert order.
fn probe(index: &BuildIndex, split: &AtomSplit, bind: &Bindings) -> (Vec<u32>, Vec<u32>) {
    // A cartesian step's output size is known up front; a keyed one's is
    // not, and one match per probe row (a key join) is the first guess.
    let cap = if let BuildIndex::All(rows) = index { bind.rows * rows.len() } else { bind.rows };
    let (mut p, mut b) = (Vec::with_capacity(cap), Vec::with_capacity(cap));
    let mut emit = |probe_row: usize, matches: &[u32]| {
        p.extend(std::iter::repeat_n(probe_row as u32, matches.len()));
        b.extend_from_slice(matches);
    };
    match index {
        BuildIndex::All(rows) => {
            for probe_row in 0..bind.rows {
                emit(probe_row, rows);
            }
        }
        BuildIndex::Int { keys, groups } => {
            let probe_keys = bind.cols[split.join_cols[0].1]
                .as_ints()
                .expect("Int index implies Int probe column");
            for (probe_row, key) in probe_keys.iter().enumerate() {
                if let Some(&g) = keys.get(key) {
                    emit(probe_row, groups.get(g));
                }
            }
        }
        BuildIndex::Str { groups, trans } => {
            let (_, codes) = bind.cols[split.join_cols[0].1]
                .as_dict()
                .expect("Str index implies Str probe column");
            for (probe_row, &code) in codes.iter().enumerate() {
                if let Some(g) = trans[code as usize] {
                    emit(probe_row, groups.get(g));
                }
            }
        }
        BuildIndex::Generic { keys, groups } => {
            for probe_row in 0..bind.rows {
                let key: Vec<Value> =
                    split.join_cols.iter().map(|(_, c)| bind.cols[*c].get(probe_row)).collect();
                if let Some(&g) = keys.get(&key) {
                    emit(probe_row, groups.get(g));
                }
            }
        }
    }
    (p, b)
}

/// A head or comparison term resolved against the binding columns.
enum Resolved {
    Const(Value),
    Col(usize),
    /// The variable is not bound by the body (an unsafe query): no row
    /// that reaches such a term survives.
    Missing,
}

impl Resolved {
    /// The term's value at binding row `row`: a constant by reference, a
    /// column's cell rebuilt.
    fn value_at(&self, bind: &Bindings, row: usize) -> Cow<'_, Value> {
        match self {
            Resolved::Const(v) => Cow::Borrowed(v),
            Resolved::Col(i) => Cow::Owned(bind.cols[*i].get(row)),
            Resolved::Missing => unreachable!("callers reject unbound terms first"),
        }
    }
}

fn resolve_term(t: &Term, names: &[String]) -> Resolved {
    match t {
        Term::Const(c) => Resolved::Const(c.clone()),
        Term::Var(v) => match names.iter().position(|n| n == v) {
            Some(i) => Resolved::Col(i),
            None => Resolved::Missing,
        },
    }
}

/// Keep the binding rows of `kept` on which `l op r` holds. An `Int`
/// column against an `Int` constant compares `i64`s (a constant on the
/// left flips the operator); every other pair goes through
/// [`CmpOp::apply`]. An unbound term passes no row (the parser rejects
/// such comparisons anyway).
fn retain_cmp(bind: &Bindings, l: &Resolved, op: CmpOp, r: &Resolved, kept: &mut Vec<u32>) {
    let ints = |col: &usize| bind.cols[*col].as_ints();
    let typed = match (l, r) {
        (Resolved::Col(i), Resolved::Const(Value::Int(c))) => ints(i).map(|v| (v, op, *c)),
        (Resolved::Const(Value::Int(c)), Resolved::Col(i)) => ints(i).map(|v| (v, op.flip(), *c)),
        _ => None,
    };
    if let Some((v, op, c)) = typed {
        kept.retain(|&row| op.holds(v[row as usize].cmp(&c)));
    } else if matches!(l, Resolved::Missing) || matches!(r, Resolved::Missing) {
        kept.clear();
    } else {
        kept.retain(|&row| {
            let row = row as usize;
            op.apply(&l.value_at(bind, row), &r.value_at(bind, row))
        });
    }
}

/// Evaluate `q` under a caller-supplied (possibly cached) plan, with full
/// fidelity: the answer bag, in head order (see the module's determinism
/// contract), one [`StepProfile`] per plan step (parallel
/// to `plan.order` — what the PDMS feedback loop turns into observed join
/// selectivities), one `eval.step` child span of `parent` per executed
/// step, and the `query.eval.*` counters in `obs`. The plan must apply to
/// `q` (same canonical key); the output is projected from `q`'s own head,
/// so a plan cached from an isomorphic disjunct yields byte-identical
/// answers to planning fresh. Execution is identical whether or not
/// `obs`/`parent` record anything (`tests/trace_obs.rs` holds that to
/// byte-identity); a caller that wants only the bag takes `.0`.
pub fn eval_planned(
    q: &ConjunctiveQuery,
    plan: &Plan,
    catalog: &Catalog,
    obs: &Obs,
    parent: &SpanHandle,
) -> Result<(Relation, Vec<StepProfile>), EvalError> {
    let (bind, trace) = eval_bindings_vec(q, plan, catalog, obs, parent)?;

    // Project the head in head order. Materializing output tuples is
    // where string payloads finally leave their dictionaries — the
    // dominant cost on answer-heavy queries.
    let head: Vec<Resolved> =
        q.head.terms.iter().map(|t| resolve_term(t, &bind.names)).collect();
    let project =
        |row: usize| head.iter().map(|r| r.value_at(&bind, row).into_owned()).collect();
    let rows = if head.iter().any(|r| matches!(r, Resolved::Missing)) {
        Vec::new()
    } else {
        // Constant head terms are equal on every row: only columns order.
        let cols: Vec<usize> = head
            .iter()
            .filter_map(|r| if let Resolved::Col(c) = r { Some(*c) } else { None })
            .collect();
        match head_order(&bind, &cols) {
            Some(order) => order.into_iter().map(|row| project(row as usize)).collect(),
            None => (0..bind.rows).map(project).collect(),
        }
    };
    Ok((Relation::with_rows(head_schema(q), rows), trace))
}

/// The binding rows in head order: ascending by the columns `cols` (the
/// head's, left to right) under [`Value`] order, rows with equal cells in
/// binding order. `None` when the rows already stand in that order — one
/// linear check, made before anything is ranked.
///
/// Rows with equal keys project to rows that compare equal, so which
/// binding order they keep is visible only in their spelling (an `Any`
/// column's `Int(2)` and `Float(2.0)`); keeping binding order keeps it a
/// pure function of (query, plan, data), and the one a stable sort of the
/// unordered bag would give.
fn head_order(bind: &Bindings, cols: &[usize]) -> Option<Vec<u32>> {
    let cmp_rows = |a: usize, b: usize| {
        cols.iter().map(|&c| cmp_cells(&bind.cols[c], a, b)).find(|o| o.is_ne())
    };
    if (1..bind.rows).all(|r| cmp_rows(r - 1, r) != Some(Ordering::Greater)) {
        return None;
    }
    let keys: Vec<Vec<u64>> = cols.iter().map(|&c| order_keys(&bind.cols[c])).collect();
    let mut order: Vec<u32> = (0..bind.rows as u32).collect();
    // Stable: rows with equal keys keep binding order.
    order.sort_by(|&a, &b| {
        let (a, b) = (a as usize, b as usize);
        keys.iter().map(|k| k[a].cmp(&k[b])).find(|o| o.is_ne()).unwrap_or(Ordering::Equal)
    });
    Some(order)
}

/// Cells `a` and `b` of one column under [`Value`] order, compared by
/// dictionary code first when both are strings.
fn cmp_cells(col: &ColumnVec, a: usize, b: usize) -> Ordering {
    match col {
        ColumnVec::Int(v) => v[a].cmp(&v[b]),
        ColumnVec::Str { codes, .. } if codes[a] == codes[b] => Ordering::Equal,
        ColumnVec::Str { dict, codes } => {
            dict.strings()[codes[a] as usize].cmp(&dict.strings()[codes[b] as usize])
        }
        ColumnVec::Any(v) => v[a].cmp(&v[b]),
    }
}

/// One integer per cell that orders as the cells do under [`Value`] order,
/// equal exactly when the cells are: an `Int` column's value (sign bit
/// flipped), a `Str` column's dictionary rank, an `Any` column's dense
/// rank among its own cells.
fn order_keys(col: &ColumnVec) -> Vec<u64> {
    match col {
        ColumnVec::Int(v) => v.iter().map(|&i| (i as u64) ^ (1 << 63)).collect(),
        ColumnVec::Str { dict, codes } => {
            let ranks = dict.ranks();
            codes.iter().map(|&c| ranks[c as usize] as u64).collect()
        }
        ColumnVec::Any(v) => dense_ranks(v.len(), |a, b| v[a].cmp(&v[b])),
    }
}

/// Each of `n` items' rank among the distinct items under `cmp`: order
/// and equality kept.
fn dense_ranks(n: usize, cmp: impl Fn(usize, usize) -> Ordering) -> Vec<u64> {
    let mut order: Vec<u32> = (0..n as u32).collect();
    order.sort_unstable_by(|&a, &b| cmp(a as usize, b as usize));
    let mut ranks = vec![0; n];
    let mut rank = 0;
    for w in 1..n {
        if cmp(order[w - 1] as usize, order[w] as usize).is_ne() {
            rank += 1;
        }
        ranks[order[w] as usize] = rank;
    }
    ranks
}

/// [`eval_planned`] without the answer copy-out: the join pipeline and
/// comparison filters run in full — identical counters, spans and
/// [`StepProfile`]s — but the head is never projected into owned tuples.
/// Returns the surviving binding count. This is the EXPLAIN-ANALYZE /
/// adaptive-feedback shape: everything the q-error machinery consumes
/// comes from the profiles, and a plan probe should not pay for strings
/// nobody reads.
pub fn eval_bindings(
    q: &ConjunctiveQuery,
    plan: &Plan,
    catalog: &Catalog,
    obs: &Obs,
    parent: &SpanHandle,
) -> Result<(usize, Vec<StepProfile>), EvalError> {
    eval_bindings_vec(q, plan, catalog, obs, parent).map(|(b, t)| (b.rows, t))
}

/// The binding-realization core: everything up to (not including) head
/// projection. [`eval_bindings`] exposes the count; [`eval_planned`]
/// materializes answers on top.
fn eval_bindings_vec(
    q: &ConjunctiveQuery,
    plan: &Plan,
    catalog: &Catalog,
    obs: &Obs,
    parent: &SpanHandle,
) -> Result<(Bindings, Vec<StepProfile>), EvalError> {
    if !plan.applies_to(q) {
        return Err(EvalError {
            message: format!("plan for {:?} does not apply to {:?}", plan.key(), q.canonical_key()),
        });
    }
    validate(q, catalog)?;
    let canonical = q.canonical_order();

    let mut bind = Bindings { names: Vec::new(), cols: Vec::new(), rows: 1 };
    let mut trace = Vec::with_capacity(plan.order.len());

    for (step_no, &ci) in plan.order.iter().enumerate() {
        let atom = &q.body[canonical[ci]];
        // Each relation's columnar image is memoised on the relation
        // ([`Relation::batch`]), so repeated evaluations skip the
        // row→column pivot, and a relation joined at two steps hands both
        // the same image (and so the same dictionaries).
        let batch = catalog.get(&atom.relation).expect("validated above").batch();
        let split = AtomSplit::analyze(atom, &bind.names);
        let span = parent.child("eval.step");
        span.set("step", step_no + 1);
        span.set("relation", &atom.relation);

        // Build-side filters: every row, narrowed in place once per pushed
        // constant and once per within-atom repeated variable.
        let mut sel_rows: Vec<u32> = (0..batch.rows() as u32).collect();
        for (i, c) in &split.const_checks {
            batch.column(*i).retain_eq_const(c, &mut sel_rows);
        }
        for (i, j) in &split.self_joins {
            batch.column(*i).retain_eq(batch.column(*j), &mut sel_rows);
        }
        let build_rows = sel_rows.len();

        let index = build_index(&split, &batch, &bind, sel_rows);
        let (probe_idx, build_idx) = probe(&index, &split, &bind);

        obs.inc(names::QUERY_EVAL_STEPS_EXECUTED, 1);
        obs.inc(names::QUERY_EVAL_ROWS_SCANNED, batch.rows() as u64);
        obs.inc(names::QUERY_EVAL_ROWS_BUILT, build_rows as u64);
        obs.inc(names::QUERY_EVAL_ROWS_PROBED, bind.rows as u64);
        obs.observe(names::QUERY_EVAL_STEP_BINDINGS, probe_idx.len() as u64);
        span.set("rows_scanned", batch.rows());
        span.set("build_rows", build_rows);
        span.set("probes", bind.rows);
        span.set("est_bindings", format_args!("{:.1}", plan.steps[step_no].est_bindings));
        span.set("bindings", probe_idx.len());
        span.finish();

        // Gather: surviving bindings keep their columns re-indexed by
        // probe row; each newly bound variable is a gather of its atom
        // column by build row — integer and dictionary-code copies, no
        // per-row tuple clones.
        let mut next_cols: Vec<ColumnVec> =
            bind.cols.iter().map(|c| c.gather(&probe_idx)).collect();
        for (i, v) in split.new_vars {
            next_cols.push(batch.column(i).gather(&build_idx));
            bind.names.push(v);
        }
        let probes = bind.rows;
        bind.cols = next_cols;
        bind.rows = probe_idx.len();
        trace.push(StepProfile { bindings: bind.rows, build_rows, probes });
        if bind.rows == 0 {
            break;
        }
    }
    // An empty binding table short-circuits; later steps see 0 bindings
    // (and no build/probe work, so feedback skips them).
    trace.resize(plan.order.len(), StepProfile::default());

    // Apply comparisons column by column, each narrowing the kept rows:
    // a row survives iff every comparison passes.
    if !q.comparisons.is_empty() && bind.rows > 0 {
        let mut kept: Vec<u32> = (0..bind.rows as u32).collect();
        for c in &q.comparisons {
            let l = resolve_term(&c.left, &bind.names);
            let r = resolve_term(&c.right, &bind.names);
            retain_cmp(&bind, &l, c.op, &r, &mut kept);
        }
        if kept.len() < bind.rows {
            bind.cols = bind.cols.iter().map(|c| c.gather(&kept)).collect();
            bind.rows = kept.len();
        }
    }
    Ok((bind, trace))
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::eval::{eval_naive_bag, eval_naive_profiles};
    use crate::parse::parse_query;
    use crate::plan::plan_cq;
    use revere_storage::{Catalog, RelSchema};

    fn catalog() -> Catalog {
        let mut c = Catalog::new();
        let mut course = Relation::new(RelSchema::text("course", &["id", "title", "dept"]));
        course.insert(vec!["c1".into(), "Databases".into(), "cs".into()]);
        course.insert(vec!["c2".into(), "Ancient Greece".into(), "hist".into()]);
        course.insert(vec!["c3".into(), "Compilers".into(), "cs".into()]);
        c.register(course);
        let mut size = Relation::new(RelSchema::new(
            "enrollment",
            vec![
                revere_storage::Attribute::text("cid"),
                revere_storage::Attribute::int("n"),
            ],
        ));
        size.insert(vec!["c1".into(), Value::Int(120)]);
        size.insert(vec!["c2".into(), Value::Int(35)]);
        size.insert(vec!["c3".into(), Value::Int(60)]);
        c.register(size);
        let mut edge = Relation::new(RelSchema::new(
            "edge",
            vec![revere_storage::Attribute::int("a"), revere_storage::Attribute::int("b")],
        ));
        for (a, b) in [(1, 2), (2, 3), (2, 2), (3, 1), (1, 3)] {
            edge.insert(vec![Value::Int(a), Value::Int(b)]);
        }
        c.register(edge);
        c
    }

    fn untraced(
        q: &ConjunctiveQuery,
        plan: &Plan,
        c: &Catalog,
    ) -> Result<(Relation, Vec<StepProfile>), EvalError> {
        eval_planned(q, plan, c, &Obs::disabled(), &SpanHandle::none())
    }

    /// On representative query shapes: the answer bag is the naive
    /// oracle's, the step profiles are the profile oracle's, the kernel's
    /// binding count is the bag's length.
    #[test]
    fn vectorized_matches_naive_and_profile_oracles_exactly() {
        let c = catalog();
        for text in [
            "q(T) :- course(I, T, D)",
            "q(T) :- course(I, T, 'cs')",
            "q(T, N) :- course(I, T, D), enrollment(I, N)",
            "q(T, N) :- course(I, T, D), enrollment(I, N), N > 50",
            "q(A, B) :- edge(A, B), edge(B, A)",
            "q(A) :- edge(A, A)",
            "q(T, B) :- course(I, T, 'cs'), edge(2, B)",
            "q(X, Y) :- edge(X, Y), edge(Y, Z), edge(Z, X)",
            "q(T) :- course(I, T, 'none'), enrollment(I, N)",
        ] {
            let q = parse_query(text).unwrap();
            let plan = plan_cq(&q, &c);
            let naive = eval_naive_bag(&q, &c).unwrap();
            let profiles = eval_naive_profiles(&q, &plan, &c).unwrap();
            let (vec, trace) = untraced(&q, &plan, &c).unwrap();
            assert!(vec.rows().is_sorted(), "head order: {text}");
            assert_eq!(vec.rows(), naive.sorted().rows(), "answers: {text}");
            assert_eq!(trace, profiles, "step profiles diverged: {text}");
            let (n, trace) =
                eval_bindings(&q, &plan, &c, &Obs::disabled(), &SpanHandle::none()).unwrap();
            assert_eq!(n, naive.len(), "binding count: {text}");
            assert_eq!(trace, profiles, "kernel step profiles diverged: {text}");
        }
    }

    /// The bag leaves in head order. Of rows that compare equal but are
    /// spelled differently (an `Any` column's `Int(2)` and `Float(2.0)`),
    /// binding order is kept, so set semantics keeps the spelling a
    /// stable sort of the binding-order bag keeps: the last one.
    #[test]
    fn equal_rows_keep_binding_order_and_eval_cq_its_spelling() {
        let mut c = Catalog::new();
        let mut r = Relation::new(RelSchema::text("r", &["x", "tag"]));
        for (x, tag) in [(Value::Float(2.0), "a"), (Value::Int(1), "b"), (Value::Int(2), "c")] {
            r.insert(vec![x, tag.into()]);
        }
        c.register(r);
        let q = parse_query("q(X) :- r(X, T)").unwrap();
        let (bag, _) = untraced(&q, &plan_cq(&q, &c), &c).unwrap();
        let spelled = |rel: &Relation| format!("{:?}", rel.rows());
        assert_eq!(spelled(&bag), "[[Int(1)], [Float(2.0)], [Int(2)]]");
        assert_eq!(spelled(&crate::eval::eval_cq(&q, &c).unwrap()), "[[Int(1)], [Int(2)]]");
    }

    /// A build side whose key repeats at non-adjacent rows hands the
    /// key's matches to the probe in relation order, on the `Int`, `Str`
    /// and `Generic` index paths alike (for `Generic`, an `Any` key column
    /// spelling one key `Int(2)` and `Float(2.0)`). The matches differ
    /// only in spelling, so the bag shows their binding order.
    #[test]
    fn grouped_index_keeps_ties_in_relation_order_on_every_path() {
        let tags = [Value::Float(2.0), Value::Int(5), Value::Int(2), Value::Int(6), Value::Int(2)];
        let paths: [(&str, [Value; 5], Value); 3] = [
            ("Int", [1, 5, 1, 6, 1].map(Value::Int), Value::Int(1)),
            ("Str", ["a", "e", "a", "f", "a"].map(Value::str), Value::str("a")),
            (
                "Generic",
                [Value::Float(2.0), Value::Int(5), Value::Int(2), Value::Int(6), Value::Float(2.0)],
                Value::Int(2),
            ),
        ];
        for (path, keys, probe_key) in paths {
            let mut c = Catalog::new();
            let mut p = Relation::new(RelSchema::text("p", &["k"]));
            p.insert(vec![probe_key]);
            c.register(p);
            let mut b = Relation::new(RelSchema::text("b", &["k", "x"]));
            for (k, x) in keys.into_iter().zip(tags.clone()) {
                b.insert(vec![k, x]);
            }
            c.register(b);
            let built = c.get("b").unwrap().batch();
            let kind = match built.column(0) {
                ColumnVec::Int(_) => "Int",
                ColumnVec::Str { .. } => "Str",
                ColumnVec::Any(_) => "Generic",
            };
            assert_eq!(kind, path, "the key column takes the {path} path");
            let q = parse_query("q(X) :- p(K), b(K, X)").unwrap();
            let plan = plan_cq(&q, &c);
            assert_eq!(plan.steps[1].relation, "b", "{path}: b is the build side");
            let (bag, _) = untraced(&q, &plan, &c).unwrap();
            assert_eq!(
                format!("{:?}", bag.rows()),
                "[[Float(2.0)], [Int(2)], [Int(2)]]",
                "{path}: ties in relation order"
            );
        }
    }

    /// The comparison pass agrees with [`CmpOp::apply`] row by row, for
    /// `Int`, `Str` and `Any` columns against `Int`, `Float`, `Str` and
    /// `Null` constants, under all six operators, with the constant on
    /// either side.
    #[test]
    fn comparison_pass_agrees_with_cmp_op_apply() {
        use crate::ast::{Atom, Comparison};
        let columns: [Vec<Value>; 3] = [
            [1, 2, 3, -5, 2].map(Value::Int).to_vec(),
            ["a", "b", "2", "c"].map(Value::str).to_vec(),
            vec![
                Value::Int(2),
                Value::Float(2.0),
                Value::Float(2.5),
                Value::str("b"),
                Value::Null,
                Value::Int(3),
            ],
        ];
        let constants =
            [Value::Int(2), Value::Float(2.0), Value::Float(2.5), Value::str("b"), Value::Null];
        let ops = [CmpOp::Eq, CmpOp::Ne, CmpOp::Lt, CmpOp::Le, CmpOp::Gt, CmpOp::Ge];
        for cells in columns {
            let mut c = Catalog::new();
            let mut r = Relation::new(RelSchema::text("r", &["x"]));
            for cell in &cells {
                r.insert(vec![cell.clone()]);
            }
            c.register(r);
            for k in &constants {
                for op in ops {
                    for const_left in [false, true] {
                        let (var, con) = (Term::Var("X".into()), Term::Const(k.clone()));
                        let (left, right) = if const_left { (con, var) } else { (var, con) };
                        let q = ConjunctiveQuery {
                            head: Atom::new("q", vec![Term::Var("X".into())]),
                            body: vec![Atom::new("r", vec![Term::Var("X".into())])],
                            comparisons: vec![Comparison { left, op, right }],
                        };
                        let mut expect: Vec<Vec<Value>> = cells
                            .iter()
                            .filter(|x| if const_left { op.apply(k, x) } else { op.apply(x, k) })
                            .map(|x| vec![x.clone()])
                            .collect();
                        expect.sort();
                        let (bag, _) = untraced(&q, &plan_cq(&q, &c), &c).unwrap();
                        assert_eq!(
                            format!("{:?}", bag.rows()),
                            format!("{expect:?}"),
                            "{q} over {cells:?}"
                        );
                    }
                }
            }
        }
    }

    /// A broken query errors with the oracle's message (both check
    /// relations and arities up front); a plan that does not apply is
    /// rejected by both entry points, naming the two canonical keys.
    #[test]
    fn errors_match_naive_oracle() {
        let c = catalog();
        let q = parse_query("q(X) :- ghost(X)").unwrap();
        let plan = plan_cq(&q, &c);
        let vec = untraced(&q, &plan, &c);
        assert_eq!(vec.unwrap_err(), eval_naive_bag(&q, &c).unwrap_err());

        let other = parse_query("q(N) :- enrollment(C, N)").unwrap();
        let wrong = plan_cq(&other, &c);
        let q2 = parse_query("q(T) :- course(I, T, D)").unwrap();
        let expected = EvalError {
            message: format!(
                "plan for {:?} does not apply to {:?}",
                wrong.key(),
                q2.canonical_key()
            ),
        };
        assert_eq!(untraced(&q2, &wrong, &c).unwrap_err(), expected);
        let kernel = eval_bindings(&q2, &wrong, &c, &Obs::disabled(), &SpanHandle::none());
        assert_eq!(kernel.unwrap_err(), expected);
    }

    /// Counters are emitted identically whether or not a recording span
    /// is attached, and by the kernel as by the full evaluator.
    #[test]
    fn counters_agree_traced_untraced_and_across_entry_points() {
        let c = catalog();
        let q = parse_query("q(T, N) :- course(I, T, 'cs'), enrollment(I, N), N > 50").unwrap();
        let plan = plan_cq(&q, &c);
        let run = |traced: bool, kernel: bool| {
            let obs = Obs::enabled();
            let root = if traced { obs.span("root") } else { SpanHandle::none() };
            if kernel {
                eval_bindings(&q, &plan, &c, &obs, &root).unwrap();
            } else {
                eval_planned(&q, &plan, &c, &obs, &root).unwrap();
            }
            root.finish();
            obs.metrics().unwrap().snapshot().to_string()
        };
        let baseline = run(true, false);
        assert_eq!(baseline, run(false, false), "tracing changed counters");
        assert_eq!(baseline, run(true, true), "kernel and evaluator disagree on counters");
        assert_eq!(baseline, run(false, true));
        assert!(baseline.contains(names::QUERY_EVAL_STEP_BINDINGS), "{baseline}");
    }
}
