//! Evaluation of conjunctive queries over a storage catalog.
//!
//! The evaluator is the execution layer behind every peer's "query
//! answering ... with respect to its peer schema" service (§3.1) and behind
//! MANGROVE's RDF-style queries. It executes an explicit [`Plan`] (see
//! [`crate::plan`]): a statistics-costed join order over the query's
//! canonical body, one hash join per step with constant and
//! repeated-variable filters pushed into the hash build. There is one
//! engine — the columnar one in the private `vec` module — behind four entry
//! points: [`eval_cq`] and [`eval_cq_bag`] plan on the fly (set / bag
//! semantics); [`eval_planned`] runs a caller-supplied (possibly cached)
//! plan with full instrumentation; [`eval_bindings`] is the same kernel
//! without the answer copy-out.
//!
//! Everything reads from one [`Catalog`], directly: relations through
//! [`Catalog::get`], statistics through [`Catalog::rel_stats`] and
//! [`Catalog::join_stats`], the columnar image through
//! [`Relation::batch`]. A peer evaluating over fetched data stages the
//! snapshots into a catalog of its own (O(1) per relation); there is no
//! second kind of source to implement.
//!
//! [`eval_naive_bag`] is the differential oracle and the only second
//! implementation: a nested-loop evaluator in textual body order with no
//! plan, no indexes and no code shared with the engine beyond the
//! up-front relation/arity check that fixes which queries error — slow and
//! obviously correct. `tests/differential_query.rs` and
//! `tests/differential_vec.rs` hold the engine to it on generated inputs,
//! answers and [`StepProfile`]s both.

use crate::ast::{Atom, ConjunctiveQuery, Term, UnionQuery};
use crate::plan::{plan_cq, Plan};
use crate::vec::{eval_bindings, eval_planned};
use revere_storage::{ArityError, Catalog, Relation, RelSchema, Tuple, Value};
use revere_util::obs::{Obs, SpanHandle};
use std::collections::HashMap;

/// Error raised when a query references a relation the catalog lacks or
/// uses it at the wrong arity, or when a change to a relation carries a
/// row of the wrong arity.
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

impl From<ArityError> for EvalError {
    fn from(e: ArityError) -> Self {
        EvalError { message: e.to_string() }
    }
}

/// Check every body atom up front: the relation must exist at the right
/// arity. Centralized so the planned, traced, and naive evaluators agree
/// *exactly* on which queries error — error behavior must not depend on
/// join order (it used to: a query could return an empty `Ok` or an `Err`
/// for the same missing relation depending on where the greedy order put
/// it).
pub(crate) fn validate(q: &ConjunctiveQuery, catalog: &Catalog) -> Result<(), EvalError> {
    for atom in &q.body {
        let rel = catalog.get(&atom.relation).ok_or_else(|| EvalError {
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
        for (i, t) in atom.terms.iter().enumerate() {
            match t {
                Term::Const(c) => split.const_checks.push((i, c.clone())),
                Term::Var(v) => {
                    // Atoms are short: the variable's first column is a
                    // scan of the terms before it.
                    if let Some(first) = atom.terms[..i].iter().position(|u| u == t) {
                        split.self_joins.push((i, first));
                    } else if let Some(bcol) = var_cols.iter().position(|c| c == v) {
                        split.join_cols.push((i, bcol));
                    } else {
                        split.new_vars.push((i, v.clone()));
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
pub fn eval_cq(q: &ConjunctiveQuery, catalog: &Catalog) -> Result<Relation, EvalError> {
    Ok(eval_cq_bag(q, catalog)?.distinct())
}

/// Evaluate under *bag* semantics: one output row per derivation (binding
/// of the body) — the multiplicities a maintained view's Z-set weights
/// are checked against.
pub fn eval_cq_bag(q: &ConjunctiveQuery, catalog: &Catalog) -> Result<Relation, EvalError> {
    let plan = plan_cq(q, catalog);
    Ok(eval_planned(q, &plan, catalog, &Obs::disabled(), &SpanHandle::none())?.0)
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

/// Evaluate a union of conjunctive queries (set semantics across
/// disjuncts). Disjuncts referencing unknown relations contribute nothing
/// rather than failing the whole union — in a PDMS a rewriting may mention
/// a peer whose data is unavailable, and "the system should make use of
/// relevant data anywhere" that *is* reachable.
pub fn eval_union(u: &UnionQuery, catalog: &Catalog) -> Result<Relation, EvalError> {
    eval_union_with(u, catalog, eval_cq)
}

/// Union evaluation through the naive oracle: same skip-unavailable and
/// dedup semantics as [`eval_union`], different per-disjunct evaluator.
pub fn eval_naive_union(u: &UnionQuery, catalog: &Catalog) -> Result<Relation, EvalError> {
    eval_union_with(u, catalog, eval_naive)
}

/// The skip-unavailable and dedup semantics [`eval_union`] and
/// [`eval_naive_union`] share, over either per-disjunct evaluator.
fn eval_union_with(
    u: &UnionQuery,
    catalog: &Catalog,
    eval_one: fn(&ConjunctiveQuery, &Catalog) -> Result<Relation, EvalError>,
) -> Result<Relation, EvalError> {
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
            Ok(Relation::new(head_schema(first)))
        }
    }
}

/// Set-semantics naive evaluation: [`eval_naive_bag`] then distinct.
pub fn eval_naive(q: &ConjunctiveQuery, catalog: &Catalog) -> Result<Relation, EvalError> {
    Ok(eval_naive_bag(q, catalog)?.distinct())
}

/// The differential oracle: nested-loop evaluation in *textual* body
/// order — no planner, no indexes, no pushed filters, one environment
/// per derivation. Quadratically slow and obviously correct; any
/// divergence from [`eval_cq_bag`] (up to row order) is a planner or
/// executor bug.
pub fn eval_naive_bag(q: &ConjunctiveQuery, catalog: &Catalog) -> Result<Relation, EvalError> {
    validate(q, catalog)?;
    let mut envs: Vec<HashMap<String, Value>> = vec![HashMap::new()];
    for atom in &q.body {
        let rel = catalog.get(&atom.relation).expect("validated above");
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

    let mut out = Relation::new(head_schema(q));
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

/// The [`StepProfile`] oracle: what executing `plan`'s join order
/// `A₀ … Aₙ` over `q` must measure, derived from [`eval_naive_bag`] alone.
/// Step `k` builds from the rows of `A_k` that satisfy the atom on its
/// own (`build_rows`), probes with the bindings of `A₀ … A_{k−1}` (one
/// empty binding before the first step) and leaves the bindings of
/// `A₀ … A_k`; nothing runs after a step that leaves none, so later
/// profiles are all-zero. The engine's profiles feed the estimator's
/// feedback loop; this is what they are checked against.
pub fn eval_naive_profiles(
    q: &ConjunctiveQuery,
    plan: &Plan,
    catalog: &Catalog,
) -> Result<Vec<StepProfile>, EvalError> {
    validate(q, catalog)?;
    let bindings_of = |atoms: &[Atom]| -> Result<usize, EvalError> {
        let mut sub = ConjunctiveQuery::new(Atom::new("p", Vec::new()), atoms.to_vec());
        sub.head.terms = sub.body_vars().into_iter().map(Term::var).collect();
        Ok(eval_naive_bag(&sub, catalog)?.len())
    };
    let canonical = q.canonical_order();
    let mut profiles = vec![StepProfile::default(); plan.order.len()];
    let mut prefix: Vec<Atom> = Vec::new();
    let mut probes = 1;
    for (profile, &ci) in profiles.iter_mut().zip(&plan.order) {
        if probes == 0 {
            break;
        }
        prefix.push(q.body[canonical[ci]].clone());
        let build_rows = bindings_of(&prefix[prefix.len() - 1..])?;
        let bindings = bindings_of(&prefix)?;
        *profile = StepProfile { bindings, build_rows, probes };
        probes = bindings;
    }
    Ok(profiles)
}

/// The schema every evaluator gives `q`'s answer: the relation is named
/// after the head, a head variable names its column, and a constant in
/// position `i` is column `c{i}`.
pub fn head_schema(q: &ConjunctiveQuery) -> RelSchema {
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

// Named by `crates/e2e/src/surface.rs`; delete with the next `benchmark`
// issue.

/// The engine selector of the two-engine era; one engine is left.
#[doc(hidden)]
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub enum ExecMode {
    #[default]
    Vectorized,
}

impl std::fmt::Display for ExecMode {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(f, "vectorized")
    }
}

#[doc(hidden)]
pub fn eval_cq_bindings_mode(
    q: &ConjunctiveQuery,
    plan: &Plan,
    catalog: &Catalog,
    obs: &Obs,
    parent: &SpanHandle,
    _mode: ExecMode,
) -> Result<(usize, Vec<StepProfile>), EvalError> {
    eval_bindings(q, plan, catalog, obs, parent)
}

#[doc(hidden)]
pub fn eval_cq_bag_planned_mode(
    q: &ConjunctiveQuery,
    plan: &Plan,
    catalog: &Catalog,
    _mode: ExecMode,
    obs: &Obs,
) -> Result<Relation, EvalError> {
    Ok(eval_planned(q, plan, catalog, obs, &SpanHandle::none())?.0)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::parse::parse_query;

    fn planned(q: &ConjunctiveQuery, plan: &Plan, c: &Catalog) -> Result<Relation, EvalError> {
        Ok(eval_planned(q, plan, c, &Obs::disabled(), &SpanHandle::none())?.0)
    }

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
        let via_cache = planned(&b, &plan, &c).unwrap();
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
        assert!(planned(&b, &plan, &c).is_err());
    }

    #[test]
    fn trace_reports_per_step_binding_counts() {
        let c = catalog();
        let q = parse_query("q(T) :- course(I, T, 'cs'), teaches(P, I)").unwrap();
        let plan = crate::plan::plan_cq(&q, &c);
        let (r, trace) = eval_planned(&q, &plan, &c, &Obs::disabled(), &SpanHandle::none()).unwrap();
        assert_eq!(trace.len(), plan.order.len());
        assert_eq!(trace.last().unwrap().bindings, r.len());
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
