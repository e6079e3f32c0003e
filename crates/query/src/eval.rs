//! Evaluation of conjunctive queries over a storage catalog.
//!
//! The evaluator is the execution layer behind every peer's "query
//! answering ... with respect to its peer schema" service (§3.1) and behind
//! MANGROVE's RDF-style queries. It executes an explicit [`Plan`] (see
//! [`crate::plan`]): a statistics-costed join order over the query's
//! canonical body, performing one hash join per step with constant and
//! repeated-variable filters pushed into the hash build. Callers that
//! already hold a cached plan use [`eval_cq_bag_planned`]; the plain
//! entry points plan on the fly.
//!
//! [`eval_naive`] is the differential oracle: a nested-loop evaluator in
//! textual body order with no indexes and no reordering, slow and
//! obviously correct. `tests/differential_query.rs` holds every planned
//! path to `planned ≡ naive` on generated inputs.
//!
//! Two engines execute the same plans behind this facade: the historical
//! row-at-a-time engine ([`eval_cq_bag_profiled_obs_row`]) and the
//! columnar batch engine in [`crate::vec`], selected by [`ExecMode`]
//! (vectorized by default). They are byte-identical in answers, counters,
//! and step profiles — `tests/differential_vec.rs` gates it.

use crate::ast::{Atom, ConjunctiveQuery, Term, UnionQuery};
use crate::plan::{plan_cq, Plan};
use crate::vec::{eval_cq_bag_profiled_obs_vec, eval_cq_bindings_vec, ExecMode, VecOpts};
use revere_storage::{Catalog, ColumnarBatch, RelStats, Relation, RelSchema, Tuple, Value};
use revere_util::obs::{names, Obs, SpanHandle};
use std::collections::HashMap;
use std::sync::Arc;

/// Anything the evaluator can read relations from.
///
/// [`Catalog`] is the usual source; the PDMS implements this for overlay
/// structures (base catalog + delta relations) so incremental view
/// maintenance can swap one atom's relation without copying base data.
pub trait Source {
    /// Borrow the named relation, if present.
    fn relation(&self, name: &str) -> Option<&Relation>;

    /// Statistics for the named relation, when the source keeps them.
    /// Estimates only — the planner must survive `None` (and does, by
    /// falling back to raw row counts).
    fn stats(&self, _name: &str) -> Option<&RelStats> {
        None
    }

    /// Learned equijoin selectivity for a column pair, when the source
    /// carries feedback from previously executed plans (see
    /// [`revere_storage::stats::JoinStats`]). The planner prefers this
    /// over any model-based estimate and must survive `None`.
    fn join_overlap(&self, _rel_a: &str, _col_a: usize, _rel_b: &str, _col_b: usize) -> Option<f64> {
        None
    }

    /// The columnar image of the named relation, consumed by the
    /// vectorized engine (see [`crate::vec`]): the relation's own
    /// memoised image ([`Relation::batch`]), pivoted once per row state
    /// and shared by every source the relation is reachable from.
    fn batch(&self, name: &str) -> Option<Arc<ColumnarBatch>> {
        self.relation(name).map(Relation::batch)
    }
}

impl Source for Catalog {
    fn relation(&self, name: &str) -> Option<&Relation> {
        self.get(name)
    }

    fn stats(&self, name: &str) -> Option<&RelStats> {
        self.rel_stats(name)
    }

    fn join_overlap(&self, rel_a: &str, col_a: usize, rel_b: &str, col_b: usize) -> Option<f64> {
        self.join_stats().overlap(rel_a, col_a, rel_b, col_b)
    }
}

/// Error raised when a query references a relation the catalog lacks or
/// uses it at the wrong arity.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct EvalError {
    /// Description of the problem.
    pub message: String,
}

impl std::fmt::Display for EvalError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(f, "eval error: {}", self.message)
    }
}

impl std::error::Error for EvalError {}

/// Check every body atom up front: the relation must exist at the right
/// arity. Centralized so the planned, traced, and naive evaluators agree
/// *exactly* on which queries error — error behavior must not depend on
/// join order (it used to: a query could return an empty `Ok` or an `Err`
/// for the same missing relation depending on where the greedy order put
/// it).
pub(crate) fn validate<S: Source>(q: &ConjunctiveQuery, catalog: &S) -> Result<(), EvalError> {
    for atom in &q.body {
        let rel = catalog.relation(&atom.relation).ok_or_else(|| EvalError {
            message: format!("unknown relation {:?}", atom.relation),
        })?;
        if rel.schema.arity() != atom.terms.len() {
            return Err(EvalError {
                message: format!(
                    "relation {} has arity {}, atom uses {}",
                    atom.relation,
                    rel.schema.arity(),
                    atom.terms.len()
                ),
            });
        }
    }
    Ok(())
}

/// How one atom's columns relate to the current binding table: constants
/// to check, repeated variables *within* the atom, join columns (variables
/// already bound) and new variables. One analysis drives both the hash
/// build and the probe, so a repeated variable is keyed and filtered
/// identically wherever the plan places the atom. Shared with
/// [`crate::dataflow`], whose circuits compile the same analysis into
/// per-stage arrangements.
#[derive(Debug, Clone)]
pub(crate) struct AtomSplit {
    /// The atom's arity (number of term positions).
    pub(crate) arity: usize,
    /// (atom column, required constant).
    pub(crate) const_checks: Vec<(usize, Value)>,
    /// (atom column, earlier atom column holding the same variable).
    pub(crate) self_joins: Vec<(usize, usize)>,
    /// (atom column, binding-table column) for already-bound variables.
    pub(crate) join_cols: Vec<(usize, usize)>,
    /// (atom column, variable) for variables this atom binds first.
    pub(crate) new_vars: Vec<(usize, String)>,
}

impl AtomSplit {
    pub(crate) fn analyze(atom: &Atom, var_cols: &[String]) -> Self {
        let mut split = AtomSplit {
            arity: atom.terms.len(),
            const_checks: Vec::new(),
            self_joins: Vec::new(),
            join_cols: Vec::new(),
            new_vars: Vec::new(),
        };
        let mut seen_in_atom: HashMap<&str, usize> = HashMap::new();
        for (i, t) in atom.terms.iter().enumerate() {
            match t {
                Term::Const(c) => split.const_checks.push((i, c.clone())),
                Term::Var(v) => {
                    if let Some(&first) = seen_in_atom.get(v.as_str()) {
                        split.self_joins.push((i, first));
                    } else {
                        seen_in_atom.insert(v, i);
                        if let Some(bcol) = var_cols.iter().position(|c| c == v) {
                            split.join_cols.push((i, bcol));
                        } else {
                            split.new_vars.push((i, v.clone()));
                        }
                    }
                }
            }
        }
        split
    }

    /// Does a stored row survive the filters pushed into the hash build?
    pub(crate) fn row_passes(&self, row: &Tuple) -> bool {
        self.const_checks.iter().all(|(i, c)| &row[*i] == c)
            && self.self_joins.iter().all(|(i, j)| row[*i] == row[*j])
    }
}

/// Evaluate a conjunctive query, returning a relation named after the
/// query head whose columns are the head terms in order (set semantics).
pub fn eval_cq<S: Source>(q: &ConjunctiveQuery, catalog: &S) -> Result<Relation, EvalError> {
    Ok(eval_cq_bag(q, catalog)?.distinct())
}

/// Evaluate under *bag* semantics: one output row per derivation (binding
/// of the body). The counting-based incremental view maintenance in the
/// PDMS needs derivation multiplicities, not just the answer set.
pub fn eval_cq_bag<S: Source>(q: &ConjunctiveQuery, catalog: &S) -> Result<Relation, EvalError> {
    let plan = plan_cq(q, catalog);
    eval_cq_bag_planned(q, &plan, catalog)
}

/// Bag evaluation under a caller-supplied (possibly cached) plan. The
/// plan must apply to `q` (same canonical key); the output is always
/// projected from `q`'s own head, so a plan cached from an isomorphic
/// disjunct yields byte-identical answers to planning fresh.
pub fn eval_cq_bag_planned<S: Source>(
    q: &ConjunctiveQuery,
    plan: &Plan,
    catalog: &S,
) -> Result<Relation, EvalError> {
    Ok(eval_cq_bag_traced(q, plan, catalog)?.0)
}

/// Like [`eval_cq_bag_planned`], also returning the binding-table size
/// after each join step (parallel to `plan.order`) — the measured
/// counterpart of the plan's estimates, used by EXPLAIN-style reporting
/// and the E13 experiment.
pub fn eval_cq_bag_traced<S: Source>(
    q: &ConjunctiveQuery,
    plan: &Plan,
    catalog: &S,
) -> Result<(Relation, Vec<usize>), EvalError> {
    eval_cq_bag_traced_obs(q, plan, catalog, &Obs::disabled(), &SpanHandle::none())
}

/// What one executed join step measured — the actuals the feedback loop
/// compares against the plan's estimates. `bindings / (probes ·
/// build_rows)` is the observed equijoin selectivity for the step's join
/// columns.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct StepProfile {
    /// Binding-table rows after this step.
    pub bindings: usize,
    /// Stored rows surviving the filters pushed into the hash build.
    pub build_rows: usize,
    /// Binding-table rows probed into the step's hash index.
    pub probes: usize,
}

/// [`eval_cq_bag_traced`] with full observability: one child span of
/// `parent` per executed join step (relation, rows scanned, build rows,
/// probes, output bindings) and `query.eval.*` counters in `obs`.
/// Execution is identical whether or not `obs`/`parent` record anything —
/// instrumentation must never change answers (the `trace_obs`
/// integration test holds this to byte-identity).
pub fn eval_cq_bag_traced_obs<S: Source>(
    q: &ConjunctiveQuery,
    plan: &Plan,
    catalog: &S,
    obs: &Obs,
    parent: &SpanHandle,
) -> Result<(Relation, Vec<usize>), EvalError> {
    let (rel, profiles) = eval_cq_bag_profiled_obs(q, plan, catalog, obs, parent)?;
    Ok((rel, profiles.iter().map(|p| p.bindings).collect()))
}

/// The full-fidelity evaluator: like [`eval_cq_bag_traced_obs`] but
/// returning a complete [`StepProfile`] per plan step (parallel to
/// `plan.order`), which the PDMS feedback loop turns into observed join
/// selectivities. The other bag evaluators are thin wrappers over this.
/// Dispatches on [`ExecMode::default`]; use
/// [`eval_cq_bag_profiled_obs_mode`] to pick an engine explicitly.
pub fn eval_cq_bag_profiled_obs<S: Source>(
    q: &ConjunctiveQuery,
    plan: &Plan,
    catalog: &S,
    obs: &Obs,
    parent: &SpanHandle,
) -> Result<(Relation, Vec<StepProfile>), EvalError> {
    eval_cq_bag_profiled_obs_mode(q, plan, catalog, obs, parent, ExecMode::default())
}

/// [`eval_cq_bag_profiled_obs`] with an explicit engine choice. The two
/// engines are byte-identical in output (including row order), counters,
/// span fields, step profiles, and errors — `tests/differential_vec.rs`
/// gates that equivalence — so the mode only changes *how fast* the same
/// answer arrives. [`ExecMode::Row`] is the historical per-tuple engine,
/// kept as the ablation baseline E18 measures against.
pub fn eval_cq_bag_profiled_obs_mode<S: Source>(
    q: &ConjunctiveQuery,
    plan: &Plan,
    catalog: &S,
    obs: &Obs,
    parent: &SpanHandle,
    mode: ExecMode,
) -> Result<(Relation, Vec<StepProfile>), EvalError> {
    match mode {
        ExecMode::Row => eval_cq_bag_profiled_obs_row(q, plan, catalog, obs, parent),
        ExecMode::Vectorized => {
            eval_cq_bag_profiled_obs_vec(q, plan, catalog, obs, parent, &VecOpts::default())
        }
    }
}

/// [`eval_cq_bag_planned`] with an explicit engine and a metrics sink but
/// no tracing — the shape the parallel network path wants. Counters
/// (`query.eval.steps`, `query.eval.step_bindings`, …) are emitted exactly
/// as on the traced path; only spans are absent.
pub fn eval_cq_bag_planned_mode<S: Source>(
    q: &ConjunctiveQuery,
    plan: &Plan,
    catalog: &S,
    mode: ExecMode,
    obs: &Obs,
) -> Result<Relation, EvalError> {
    Ok(eval_cq_bag_profiled_obs_mode(q, plan, catalog, obs, &SpanHandle::none(), mode)?.0)
}

/// Realize the bindings of a planned conjunctive query **without
/// materializing answers**: the join pipeline and comparison filters run
/// in full — identical counters, spans, and [`StepProfile`]s to the
/// corresponding bag evaluator — but the head is never projected into
/// owned tuples. Returns the surviving binding count and the per-step
/// profiles.
///
/// This is the EXPLAIN-ANALYZE / adaptive-feedback shape: everything the
/// q-error machinery consumes (realized bindings per step, observed join
/// selectivities) comes from the profiles, and skipping the answer
/// copy-out keeps a plan probe from paying for strings nobody reads. E18
/// benchmarks the engines head-to-head on exactly this kernel.
pub fn eval_cq_bindings_mode<S: Source>(
    q: &ConjunctiveQuery,
    plan: &Plan,
    catalog: &S,
    obs: &Obs,
    parent: &SpanHandle,
    mode: ExecMode,
) -> Result<(usize, Vec<StepProfile>), EvalError> {
    match mode {
        ExecMode::Row => {
            eval_bindings_row(q, plan, catalog, obs, parent).map(|(rows, _, t)| (rows.len(), t))
        }
        ExecMode::Vectorized => {
            eval_cq_bindings_vec(q, plan, catalog, obs, parent, &VecOpts::default())
        }
    }
}

/// The row-at-a-time engine: one hash join per plan step over a binding
/// table of owned tuples. Superseded by the vectorized engine
/// ([`crate::vec`]) as the default, retained as an ablation
/// ([`ExecMode::Row`]) and as the semantic reference the differential
/// gate holds the columnar engine to.
pub fn eval_cq_bag_profiled_obs_row<S: Source>(
    q: &ConjunctiveQuery,
    plan: &Plan,
    catalog: &S,
    obs: &Obs,
    parent: &SpanHandle,
) -> Result<(Relation, Vec<StepProfile>), EvalError> {
    let (rows, var_cols, trace) = eval_bindings_row(q, plan, catalog, obs, parent)?;

    // Project the head.
    let resolve = |t: &Term, binding: &Tuple| -> Option<Value> {
        match t {
            Term::Const(c) => Some(c.clone()),
            Term::Var(v) => var_cols
                .iter()
                .position(|c| c == v)
                .map(|i| binding[i].clone()),
        }
    };
    let mut out = Relation::new(a_schema(q));
    'row: for b in &rows {
        let mut tuple = Vec::with_capacity(q.head.terms.len());
        for t in &q.head.terms {
            match resolve(t, b) {
                Some(v) => tuple.push(v),
                None => continue 'row,
            }
        }
        out.insert(tuple);
    }
    Ok((out, trace))
}

/// The row engine's binding-realization core: the join pipeline and
/// comparison filters, stopping short of head projection. Returns the
/// surviving binding tuples, the variable columns naming them, and the
/// per-step profiles. [`eval_cq_bag_profiled_obs_row`] projects the head
/// on top; [`eval_cq_bindings_mode`] exposes the counts directly.
fn eval_bindings_row<S: Source>(
    q: &ConjunctiveQuery,
    plan: &Plan,
    catalog: &S,
    obs: &Obs,
    parent: &SpanHandle,
) -> Result<(Vec<Tuple>, Vec<String>, Vec<StepProfile>), EvalError> {
    if !plan.applies_to(q) {
        return Err(EvalError {
            message: format!("plan for {:?} does not apply to {:?}", plan.key(), q.canonical_key()),
        });
    }
    validate(q, catalog)?;
    let canonical = q.canonical_order();

    // Binding table: column per variable, row per partial assignment.
    let mut var_cols: Vec<String> = Vec::new();
    let mut rows: Vec<Tuple> = vec![Vec::new()]; // one empty binding
    let mut trace = Vec::with_capacity(plan.order.len());

    for (step_no, &ci) in plan.order.iter().enumerate() {
        let atom = &q.body[canonical[ci]];
        let rel = catalog.relation(&atom.relation).expect("validated above");
        let split = AtomSplit::analyze(atom, &var_cols);
        let span = parent.child("eval.step");
        span.set("step", step_no + 1);
        span.set("relation", &atom.relation);

        // Build the step's hash index: rows surviving the pushed-down
        // filters (constants, within-atom repeats), keyed by the columns
        // of already-bound variables. The same split drives both the
        // build and the probe keys, so a repeated variable is filtered
        // identically wherever the plan places the atom.
        let mut index: HashMap<Vec<&Value>, Vec<&Tuple>> = HashMap::new();
        let mut build_rows = 0usize;
        for row in rel.iter() {
            if !split.row_passes(row) {
                continue;
            }
            build_rows += 1;
            let key: Vec<&Value> = split.join_cols.iter().map(|(i, _)| &row[*i]).collect();
            index.entry(key).or_default().push(row);
        }

        // Probe with every current binding.
        let mut next_rows: Vec<Tuple> = Vec::new();
        for binding in &rows {
            let key: Vec<&Value> = split.join_cols.iter().map(|(_, b)| &binding[*b]).collect();
            if let Some(matches) = index.get(&key) {
                for m in matches {
                    let mut extended = binding.clone();
                    for (i, _) in &split.new_vars {
                        extended.push(m[*i].clone());
                    }
                    next_rows.push(extended);
                }
            }
        }
        obs.inc(names::QUERY_EVAL_STEPS_EXECUTED, 1);
        obs.inc(names::QUERY_EVAL_ROWS_SCANNED, rel.len() as u64);
        obs.inc(names::QUERY_EVAL_ROWS_BUILT, build_rows as u64);
        obs.inc(names::QUERY_EVAL_ROWS_PROBED, rows.len() as u64);
        obs.observe(names::QUERY_EVAL_STEP_BINDINGS, next_rows.len() as u64);
        span.set("rows_scanned", rel.len());
        span.set("build_rows", build_rows);
        span.set("probes", rows.len());
        span.set("est_bindings", format!("{:.1}", plan.steps[step_no].est_bindings));
        span.set("bindings", next_rows.len());
        span.finish();
        for (_, v) in split.new_vars {
            var_cols.push(v);
        }
        let probes = rows.len();
        rows = next_rows;
        trace.push(StepProfile { bindings: rows.len(), build_rows, probes });
        if rows.is_empty() {
            break;
        }
    }
    // An empty binding table short-circuits; later steps see 0 bindings
    // (and no build/probe work, so feedback skips them).
    trace.resize(plan.order.len(), StepProfile::default());

    // Apply comparisons.
    let resolve = |t: &Term, binding: &Tuple| -> Option<Value> {
        match t {
            Term::Const(c) => Some(c.clone()),
            Term::Var(v) => var_cols
                .iter()
                .position(|c| c == v)
                .map(|i| binding[i].clone()),
        }
    };
    for c in &q.comparisons {
        rows.retain(|b| {
            match (resolve(&c.left, b), resolve(&c.right, b)) {
                (Some(l), Some(r)) => c.op.apply(&l, &r),
                _ => false, // unsafe comparisons never pass (parser rejects them anyway)
            }
        });
    }
    Ok((rows, var_cols, trace))
}

/// Evaluate a union of conjunctive queries (set semantics across
/// disjuncts). Disjuncts referencing unknown relations contribute nothing
/// rather than failing the whole union — in a PDMS a rewriting may mention
/// a peer whose data is unavailable, and "the system should make use of
/// relevant data anywhere" that *is* reachable.
pub fn eval_union<S: Source>(u: &UnionQuery, catalog: &S) -> Result<Relation, EvalError> {
    eval_union_with(u, catalog, eval_cq)
}

/// Union evaluation through the naive oracle: same skip-unavailable and
/// dedup semantics as [`eval_union`], different per-disjunct evaluator.
pub fn eval_naive_union<S: Source>(u: &UnionQuery, catalog: &S) -> Result<Relation, EvalError> {
    eval_union_with(u, catalog, eval_naive)
}

/// Union evaluation with a caller-supplied per-disjunct evaluator —
/// the hook the PDMS uses to execute each disjunct under a cached plan
/// while keeping [`eval_union`]'s skip-unavailable and dedup semantics.
pub fn eval_union_with<S, F>(u: &UnionQuery, catalog: &S, eval_one: F) -> Result<Relation, EvalError>
where
    S: Source,
    F: Fn(&ConjunctiveQuery, &S) -> Result<Relation, EvalError>,
{
    let Some(first) = u.disjuncts.first() else {
        return Err(EvalError { message: "empty union".into() });
    };
    let mut acc: Option<Relation> = None;
    for d in &u.disjuncts {
        if d.head.terms.len() != first.head.terms.len() {
            return Err(EvalError { message: "union disjuncts have different head arity".into() });
        }
        match eval_one(d, catalog) {
            Ok(r) => {
                acc = Some(match acc {
                    None => r,
                    Some(a) => {
                        let schema = a.schema.clone();
                        let mut rows = a.into_rows();
                        rows.extend(r.into_rows());
                        Relation::with_rows(schema, rows)
                    }
                });
            }
            Err(_) => continue,
        }
    }
    match acc {
        Some(r) => Ok(r.distinct()),
        None => {
            // Every disjunct failed; return an empty relation of the right shape.
            Ok(Relation::new(a_schema(first)))
        }
    }
}

/// Set-semantics naive evaluation: [`eval_naive_bag`] then distinct.
pub fn eval_naive<S: Source>(q: &ConjunctiveQuery, catalog: &S) -> Result<Relation, EvalError> {
    Ok(eval_naive_bag(q, catalog)?.distinct())
}

/// The differential oracle: nested-loop evaluation in *textual* body
/// order — no planner, no indexes, no pushed filters, one environment
/// per derivation. Quadratically slow and obviously correct; any
/// divergence from [`eval_cq_bag`] (up to row order) is a planner or
/// executor bug.
pub fn eval_naive_bag<S: Source>(q: &ConjunctiveQuery, catalog: &S) -> Result<Relation, EvalError> {
    validate(q, catalog)?;
    let mut envs: Vec<HashMap<String, Value>> = vec![HashMap::new()];
    for atom in &q.body {
        let rel = catalog.relation(&atom.relation).expect("validated above");
        let mut next: Vec<HashMap<String, Value>> = Vec::new();
        for env in &envs {
            'row: for row in rel.iter() {
                let mut ext = env.clone();
                for (i, t) in atom.terms.iter().enumerate() {
                    match t {
                        Term::Const(c) => {
                            if &row[i] != c {
                                continue 'row;
                            }
                        }
                        Term::Var(v) => match ext.get(v) {
                            Some(bound) => {
                                if bound != &row[i] {
                                    continue 'row;
                                }
                            }
                            None => {
                                ext.insert(v.clone(), row[i].clone());
                            }
                        },
                    }
                }
                next.push(ext);
            }
        }
        envs = next;
    }

    let resolve = |t: &Term, env: &HashMap<String, Value>| -> Option<Value> {
        match t {
            Term::Const(c) => Some(c.clone()),
            Term::Var(v) => env.get(v).cloned(),
        }
    };
    for c in &q.comparisons {
        envs.retain(|e| match (resolve(&c.left, e), resolve(&c.right, e)) {
            (Some(l), Some(r)) => c.op.apply(&l, &r),
            _ => false,
        });
    }

    let mut out = Relation::new(a_schema(q));
    'env: for e in &envs {
        let mut tuple = Vec::with_capacity(q.head.terms.len());
        for t in &q.head.terms {
            match resolve(t, e) {
                Some(v) => tuple.push(v),
                None => continue 'env,
            }
        }
        out.insert(tuple);
    }
    Ok(out)
}

pub(crate) fn a_schema(q: &ConjunctiveQuery) -> RelSchema {
    RelSchema::text(
        q.head.relation.clone(),
        &q.head
            .terms
            .iter()
            .enumerate()
            .map(|(i, t)| match t {
                Term::Var(v) => v.clone(),
                Term::Const(_) => format!("c{i}"),
            })
            .collect::<Vec<_>>()
            .iter()
            .map(String::as_str)
            .collect::<Vec<_>>(),
    )
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::parse::parse_query;

    fn catalog() -> Catalog {
        let mut c = Catalog::new();
        let mut course = Relation::new(RelSchema::text("course", &["id", "title", "dept"]));
        course.insert(vec!["c1".into(), "Databases".into(), "cs".into()]);
        course.insert(vec!["c2".into(), "Ancient Greece".into(), "hist".into()]);
        course.insert(vec!["c3".into(), "Compilers".into(), "cs".into()]);
        c.register(course);
        let mut teaches = Relation::new(RelSchema::text("teaches", &["prof", "cid"]));
        teaches.insert(vec!["ada".into(), "c1".into()]);
        teaches.insert(vec!["bob".into(), "c2".into()]);
        teaches.insert(vec!["ada".into(), "c3".into()]);
        c.register(teaches);
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
        c
    }

    #[test]
    fn single_atom_scan() {
        let q = parse_query("q(T) :- course(I, T, D)").unwrap();
        let r = eval_cq(&q, &catalog()).unwrap();
        assert_eq!(r.len(), 3);
    }

    #[test]
    fn join_two_atoms() {
        let q = parse_query("q(P, T) :- teaches(P, I), course(I, T, D)").unwrap();
        let r = eval_cq(&q, &catalog()).unwrap();
        assert_eq!(r.len(), 3);
        assert!(r.contains(&vec!["ada".into(), "Databases".into()]));
    }

    #[test]
    fn constants_filter() {
        let q = parse_query("q(T) :- course(I, T, 'cs')").unwrap();
        let r = eval_cq(&q, &catalog()).unwrap();
        assert_eq!(r.len(), 2);
    }

    #[test]
    fn comparisons_filter() {
        let q = parse_query("q(T) :- course(I, T, D), enrollment(I, N), N > 50").unwrap();
        let r = eval_cq(&q, &catalog()).unwrap();
        assert_eq!(r.len(), 2);
        assert!(!r.contains(&vec!["Ancient Greece".into()]));
    }

    #[test]
    fn repeated_variable_in_atom() {
        let mut c = Catalog::new();
        let mut e = Relation::new(RelSchema::text("e", &["a", "b"]));
        e.insert(vec!["x".into(), "x".into()]);
        e.insert(vec!["x".into(), "y".into()]);
        c.register(e);
        let q = parse_query("q(X) :- e(X, X)").unwrap();
        assert_eq!(eval_cq(&q, &c).unwrap().len(), 1);
    }

    #[test]
    fn three_way_join_chain() {
        let q = parse_query(
            "q(P, N) :- teaches(P, I), course(I, T, 'cs'), enrollment(I, N)",
        )
        .unwrap();
        let r = eval_cq(&q, &catalog()).unwrap();
        assert_eq!(r.len(), 2);
    }

    #[test]
    fn constant_in_head() {
        let q = parse_query("q(P, 'fixed') :- teaches(P, I)").unwrap();
        let r = eval_cq(&q, &catalog()).unwrap();
        assert!(r.iter().all(|t| t[1] == Value::str("fixed")));
        assert_eq!(r.len(), 2); // distinct over (ada, bob)
    }

    #[test]
    fn set_semantics() {
        let q = parse_query("q(P) :- teaches(P, I)").unwrap();
        assert_eq!(eval_cq(&q, &catalog()).unwrap().len(), 2);
    }

    #[test]
    fn unknown_relation_errors() {
        let q = parse_query("q(X) :- nothere(X)").unwrap();
        assert!(eval_cq(&q, &catalog()).is_err());
    }

    #[test]
    fn arity_mismatch_errors() {
        let q = parse_query("q(X) :- course(X)").unwrap();
        assert!(eval_cq(&q, &catalog()).is_err());
    }

    #[test]
    fn cartesian_when_disconnected() {
        let q = parse_query("q(P, N) :- teaches(P, 'c1'), enrollment('c2', N)").unwrap();
        let r = eval_cq(&q, &catalog()).unwrap();
        assert_eq!(r.len(), 1);
        assert!(r.contains(&vec!["ada".into(), Value::Int(35)]));
    }

    #[test]
    fn union_merges_and_dedups() {
        let u = UnionQuery {
            disjuncts: vec![
                parse_query("q(T) :- course(I, T, 'cs')").unwrap(),
                parse_query("q(T) :- course(I, T, D)").unwrap(),
            ],
        };
        assert_eq!(eval_union(&u, &catalog()).unwrap().len(), 3);
    }

    #[test]
    fn union_skips_unavailable_disjunct() {
        let u = UnionQuery {
            disjuncts: vec![
                parse_query("q(T) :- gone.course(I, T)").unwrap(),
                parse_query("q(T) :- course(I, T, 'hist')").unwrap(),
            ],
        };
        assert_eq!(eval_union(&u, &catalog()).unwrap().len(), 1);
    }

    #[test]
    fn empty_result_has_head_shape() {
        let q = parse_query("q(T, D) :- course(I, T, D), D = 'none'").unwrap();
        let r = eval_cq(&q, &catalog()).unwrap();
        assert!(r.is_empty());
        assert_eq!(r.schema.arity(), 2);
    }

    #[test]
    fn naive_oracle_agrees_on_the_basics() {
        let c = catalog();
        for text in [
            "q(T) :- course(I, T, D)",
            "q(P, T) :- teaches(P, I), course(I, T, D)",
            "q(T) :- course(I, T, 'cs')",
            "q(T) :- course(I, T, D), enrollment(I, N), N > 50",
            "q(P, N) :- teaches(P, 'c1'), enrollment('c2', N)",
        ] {
            let q = parse_query(text).unwrap();
            let planned = eval_cq_bag(&q, &c).unwrap().sorted();
            let naive = eval_naive_bag(&q, &c).unwrap().sorted();
            assert_eq!(planned.rows(), naive.rows(), "{text}");
        }
    }

    #[test]
    fn naive_errors_match_planned_errors() {
        let c = catalog();
        // Even when the *first* atom would already empty the binding
        // table, a later bad atom must error in both evaluators.
        let q = parse_query("q(T) :- course(I, T, 'nope'), ghost(T)").unwrap();
        assert!(eval_cq_bag(&q, &c).is_err());
        assert!(eval_naive_bag(&q, &c).is_err());
    }

    #[test]
    fn cached_plan_executes_isomorphic_query_with_its_own_head() {
        let c = catalog();
        let a = parse_query("q(P, T) :- teaches(P, I), course(I, T, D)").unwrap();
        let b = parse_query("q(X, U) :- teaches(X, C), course(C, U, E)").unwrap();
        let plan = crate::plan::plan_cq(&a, &c);
        let via_cache = eval_cq_bag_planned(&b, &plan, &c).unwrap();
        let fresh = eval_cq_bag(&b, &c).unwrap();
        assert_eq!(via_cache.sorted().rows(), fresh.sorted().rows());
        assert_eq!(
            via_cache.schema.attr_names().collect::<Vec<_>>(),
            fresh.schema.attr_names().collect::<Vec<_>>(),
        );
    }

    #[test]
    fn planned_rejects_non_isomorphic_query() {
        let c = catalog();
        let a = parse_query("q(T) :- course(I, T, D)").unwrap();
        let b = parse_query("q(P) :- teaches(P, I)").unwrap();
        let plan = crate::plan::plan_cq(&a, &c);
        assert!(eval_cq_bag_planned(&b, &plan, &c).is_err());
    }

    #[test]
    fn trace_reports_per_step_binding_counts() {
        let c = catalog();
        let q = parse_query("q(T) :- course(I, T, 'cs'), teaches(P, I)").unwrap();
        let plan = crate::plan::plan_cq(&q, &c);
        let (r, trace) = eval_cq_bag_traced(&q, &plan, &c).unwrap();
        assert_eq!(trace.len(), plan.order.len());
        assert_eq!(*trace.last().unwrap(), r.len());
    }

    #[test]
    fn naive_union_matches_planned_union() {
        let c = catalog();
        let u = UnionQuery {
            disjuncts: vec![
                parse_query("q(T) :- gone.course(I, T)").unwrap(),
                parse_query("q(T) :- course(I, T, 'cs')").unwrap(),
                parse_query("q(T) :- course(I, T, D)").unwrap(),
            ],
        };
        assert_eq!(
            eval_union(&u, &c).unwrap().sorted().rows(),
            eval_naive_union(&u, &c).unwrap().sorted().rows(),
        );
    }
}
