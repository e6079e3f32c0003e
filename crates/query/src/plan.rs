//! Statistics-driven join planning for conjunctive queries.
//!
//! The evaluator used to pick its join order greedily — most shared
//! variables first, ties by raw relation size — which ignores what the
//! data actually looks like: a huge relation with a highly selective
//! constant should be joined *first*, not last. This module turns
//! ordering into an explicit, explainable [`Plan`]:
//!
//! * costs come from the catalog's incremental statistics
//!   ([`revere_storage::RelStats`], reached through [`Catalog::rel_stats`]):
//!   exact value frequencies for pushed-down constant selections, distinct
//!   counts for join selectivities;
//! * the chosen order is a permutation of the *canonical* body
//!   ([`ConjunctiveQuery::canonical_order`]), so a plan cached under a
//!   query's canonical key executes any isomorphic query;
//! * join selectivities come from the best evidence at hand: a learned
//!   overlap fed back from executed plans, then MCV-vs-MCV histogram
//!   overlap, and only then the uniform containment assumption.
//!
//! A plan never changes *what* a query answers — only the join order and
//! which filters are pushed into the hash build. The differential oracle
//! (`eval::eval_naive`) checks exactly that.

use crate::ast::{ConjunctiveQuery, Term};
use revere_storage::Catalog;
use revere_util::obs::{Obs, SpanHandle};
use std::collections::HashMap;
use std::fmt;

/// Default equality selectivity when no statistics are available.
const DEFAULT_EQ_SELECTIVITY: f64 = 0.1;

/// One equijoin column pair a step resolves: the step's own column joined
/// against the binding column first bound by `(other_relation,
/// other_col)`. This is the attribution the feedback loop needs to turn a
/// measured step selectivity into a reusable statistic.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct JoinPair {
    /// Column index in this step's relation.
    pub col: usize,
    /// Relation that first bound the joined variable.
    pub other_relation: String,
    /// Column index in `other_relation`.
    pub other_col: usize,
}

/// One join step of a plan (the atom at `Plan::order[i]` of the canonical
/// body), annotated with the planner's estimates for EXPLAIN output.
#[derive(Debug, Clone)]
pub struct PlanStep {
    /// Relation the step scans or probes.
    pub relation: String,
    /// Raw rows in the relation at planning time.
    pub rows: usize,
    /// Estimated rows surviving the filters pushed into the hash build
    /// (constant equalities and within-atom repeated variables).
    pub est_rows: f64,
    /// Estimated binding-table size after this step.
    pub est_bindings: f64,
    /// Number of already-bound variables used as the hash-join key
    /// (0 = leading scan or cartesian extension).
    pub join_width: usize,
    /// Filters pushed down into the build: constants + repeated-variable
    /// equalities inside the atom.
    pub pushed_filters: usize,
    /// The equijoin column pairs this step resolves (one per bound
    /// variable with a known first binder), for feedback attribution.
    pub join_pairs: Vec<JoinPair>,
    /// True when the relation was absent from the source at planning
    /// time — distinct from a genuinely empty relation (`rows == 0`).
    pub missing: bool,
}

/// An ordered, costed, explainable join plan for one conjunctive query.
#[derive(Debug, Clone)]
pub struct Plan {
    key: String,
    /// Execution order, as indices into the canonical body.
    pub order: Vec<usize>,
    /// Per-step annotations, parallel to `order`.
    pub steps: Vec<PlanStep>,
    /// Total estimated cost (sum of per-step build + output sizes).
    pub est_cost: f64,
}

impl Plan {
    /// The canonical key of the query this plan was built for.
    pub fn key(&self) -> &str {
        &self.key
    }

    /// True when this plan can execute `q`: the canonical keys match, so
    /// the canonical bodies are position-wise isomorphic.
    pub fn applies_to(&self, q: &ConjunctiveQuery) -> bool {
        self.key == q.canonical_key()
    }
}

impl Plan {
    /// Render the plan as an `EXPLAIN`-style table, one aligned line per
    /// join step. With `actuals` (the per-step `bindings` of
    /// [`crate::eval_planned`]'s profiles, parallel to `order`) each
    /// line gains `act bind` and `q-err` columns — `EXPLAIN ANALYZE`.
    /// Column widths are computed from the estimate side only, so the
    /// shared prefix of every line is byte-identical with and without
    /// actuals and the two renderings diff cleanly.
    pub fn render(&self, actuals: Option<&[usize]>) -> String {
        let mut out = format!("plan [cost-based] est cost {:.1}\n", self.est_cost);
        let access: Vec<String> = self
            .steps
            .iter()
            .enumerate()
            .map(|(i, s)| {
                let how = if s.join_width > 0 {
                    format!("probe on {} bound var(s)", s.join_width)
                } else if i == 0 {
                    "scan".to_string()
                } else {
                    "cartesian".to_string()
                };
                format!("{how} {}", s.relation)
            })
            .collect();
        // A relation absent at planning time renders as `missing`, not as
        // `rows 0` — EXPLAIN must distinguish "not there" from "empty".
        let rows_cell =
            |s: &PlanStep| if s.missing { "missing".to_string() } else { s.rows.to_string() };
        let width = |it: &mut dyn Iterator<Item = usize>| it.max().unwrap_or(1);
        let w_access = width(&mut access.iter().map(String::len));
        let w_rows = width(&mut self.steps.iter().map(|s| rows_cell(s).len()));
        let w_pushed = width(&mut self.steps.iter().map(|s| s.pushed_filters.to_string().len()));
        let w_est_rows = width(&mut self.steps.iter().map(|s| format!("{:.1}", s.est_rows).len()));
        let w_est_bind =
            width(&mut self.steps.iter().map(|s| format!("{:.1}", s.est_bindings).len()));
        for (i, s) in self.steps.iter().enumerate() {
            out.push_str(&format!(
                "  {}. {:<w_access$}  rows {:>w_rows$}  pushed {:>w_pushed$}  est rows ~{:>w_est_rows$.1}  est bind ~{:>w_est_bind$.1}",
                i + 1,
                access[i],
                rows_cell(s),
                s.pushed_filters,
                s.est_rows,
                s.est_bindings,
            ));
            if let Some(acts) = actuals {
                let act = acts.get(i).copied().unwrap_or(0);
                out.push_str(&format!(
                    "  act bind {act:>8}  q-err {:>8.2}",
                    q_error(s.est_bindings, act)
                ));
            }
            out.push('\n');
        }
        out
    }
}

impl fmt::Display for Plan {
    /// An `EXPLAIN`-style dump: [`Plan::render`] without actuals.
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.write_str(&self.render(None))
    }
}

/// The q-error of an estimate against a measured cardinality:
/// `max(est/actual, actual/est)` with both sides clamped to ≥ 1, so a
/// perfect estimate scores 1.0 and the score is symmetric in over- and
/// under-estimation. The clamp keeps "estimated 0.3, got 0" from
/// reading as a miss.
pub fn q_error(est: f64, actual: usize) -> f64 {
    let e = est.max(1.0);
    let a = (actual as f64).max(1.0);
    (e / a).max(a / e)
}

/// The result of `EXPLAIN ANALYZE`: a plan plus the measured per-step
/// binding counts from actually executing it. `Display` renders the
/// aligned est-vs-actual table (see [`Plan::render`]).
#[derive(Debug, Clone)]
pub struct ExplainAnalyze {
    /// The executed plan.
    pub plan: Plan,
    /// Binding-table size after each step, parallel to `plan.order`.
    pub actual_bindings: Vec<usize>,
    /// Derivations produced (bag semantics).
    pub derivations: usize,
    /// Distinct answers (set semantics).
    pub answers: usize,
}

impl ExplainAnalyze {
    /// Per-step q-error of the planner's binding estimates.
    pub fn q_errors(&self) -> Vec<f64> {
        self.plan
            .steps
            .iter()
            .zip(&self.actual_bindings)
            .map(|(s, &a)| q_error(s.est_bindings, a))
            .collect()
    }

    /// The worst per-step q-error (1.0 for an empty plan).
    pub fn max_q_error(&self) -> f64 {
        self.q_errors().into_iter().fold(1.0, f64::max)
    }
}

impl fmt::Display for ExplainAnalyze {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.write_str(&self.plan.render(Some(&self.actual_bindings)))?;
        writeln!(
            f,
            "  => {} answer(s), {} derivation(s), max q-error {:.2}",
            self.answers,
            self.derivations,
            self.max_q_error()
        )
    }
}

/// Plan `q`, execute it, and pair the estimates with measured per-step
/// cardinalities — `EXPLAIN ANALYZE` as a library call.
pub fn explain_analyze(
    q: &ConjunctiveQuery,
    source: &Catalog,
) -> Result<ExplainAnalyze, crate::eval::EvalError> {
    let plan = plan_cq(q, source);
    let (rel, profiles) =
        crate::eval_planned(q, &plan, source, &Obs::disabled(), &SpanHandle::none())?;
    let actual_bindings = profiles.iter().map(|p| p.bindings).collect();
    let derivations = rel.len();
    let answers = rel.distinct().len();
    Ok(ExplainAnalyze { plan, actual_bindings, derivations, answers })
}

/// What the planner tracks per bound variable: the running distinct-count
/// estimate plus which `(relation, column)` bound it first — the
/// provenance that lets a later join look up measured or MCV overlap for
/// the actual column pair being joined.
#[derive(Debug, Clone)]
struct VarBound {
    distinct: f64,
    origin: Option<(String, usize)>,
}

/// What the planner knows about one candidate atom against the current
/// set of bound variables.
struct CandidateEstimate {
    /// Rows after pushed-down filters.
    eff_rows: f64,
    /// Estimated bindings if joined next.
    est_out: f64,
    /// Shared (already-bound) variables.
    join_width: usize,
    /// Pushed constant / self-join filters.
    pushed: usize,
    /// Raw relation size (`None` when the relation is missing).
    raw_size: Option<usize>,
    /// Per new variable: (name, estimated distinct count, atom column).
    new_vars: Vec<(String, f64, usize)>,
    /// Per joined variable: (name, distinct estimate on the atom side).
    joined_vars: Vec<(String, f64)>,
    /// Equijoin column pairs with known provenance (see [`JoinPair`]).
    join_pairs: Vec<JoinPair>,
}

/// The selectivity of joining `atom`'s column `i` against an already-bound
/// variable, best evidence first: a learned observation for the exact
/// column pair, the MCV-vs-MCV overlap of the two histograms, and only
/// then the uniform `1/max(d1,d2)` containment assumption.
fn join_pair_selectivity(
    source: &Catalog,
    atom_rel: &str,
    i: usize,
    d_atom: f64,
    vb: &VarBound,
) -> f64 {
    let uniform = 1.0 / d_atom.max(vb.distinct).max(1.0);
    let Some((o_rel, o_col)) = &vb.origin else { return uniform };
    if let Some(learned) = source.join_stats().overlap(atom_rel, i, o_rel, *o_col) {
        return learned;
    }
    match (source.rel_stats(atom_rel), source.rel_stats(o_rel)) {
        (Some(sa), Some(sb)) => {
            revere_storage::mcv_join_overlap(sa, i, sb, *o_col).unwrap_or(uniform)
        }
        _ => uniform,
    }
}

fn estimate(
    atom: &crate::ast::Atom,
    source: &Catalog,
    bound: &HashMap<String, VarBound>,
    cur_bindings: f64,
) -> CandidateEstimate {
    let rel = source.get(&atom.relation);
    let stats = source.rel_stats(&atom.relation);
    let raw_size = rel.map(|r| r.len());
    let rows = raw_size.unwrap_or(0) as f64;
    let mut eff = rows;
    let mut pushed = 0usize;
    let mut join_sel = 1.0f64;
    let mut join_width = 0usize;
    let mut seen_in_atom: HashMap<&str, usize> = HashMap::new();
    let mut new_vars: Vec<(String, f64, usize)> = Vec::new();
    let mut joined_vars: Vec<(String, f64)> = Vec::new();
    let mut join_pairs: Vec<JoinPair> = Vec::new();
    for (i, t) in atom.terms.iter().enumerate() {
        match t {
            Term::Const(c) => {
                eff *= stats
                    .map(|s| s.selectivity_eq(i, c))
                    .unwrap_or(DEFAULT_EQ_SELECTIVITY);
                pushed += 1;
            }
            Term::Var(v) => {
                if let Some(&first) = seen_in_atom.get(v.as_str()) {
                    eff *= stats
                        .map(|s| s.selectivity_self_join(first, i))
                        .unwrap_or(DEFAULT_EQ_SELECTIVITY);
                    pushed += 1;
                    continue;
                }
                seen_in_atom.insert(v, i);
                let d_atom = stats
                    .map(|s| s.distinct(i) as f64)
                    .unwrap_or_else(|| rows.sqrt())
                    .max(1.0);
                if let Some(vb) = bound.get(v) {
                    join_sel *= join_pair_selectivity(source, &atom.relation, i, d_atom, vb);
                    join_width += 1;
                    joined_vars.push((v.clone(), d_atom));
                    if let Some((o_rel, o_col)) = &vb.origin {
                        join_pairs.push(JoinPair {
                            col: i,
                            other_relation: o_rel.clone(),
                            other_col: *o_col,
                        });
                    }
                } else {
                    new_vars.push((v.clone(), d_atom, i));
                }
            }
        }
    }
    let est_out = (cur_bindings * eff * join_sel).max(0.0);
    CandidateEstimate {
        eff_rows: eff,
        est_out,
        join_width,
        pushed,
        raw_size,
        new_vars,
        joined_vars,
        join_pairs,
    }
}

/// Plan `q` against `source`: repeatedly join the atom with the smallest
/// estimated output, never a cartesian step while a connected atom remains.
pub fn plan_cq(q: &ConjunctiveQuery, source: &Catalog) -> Plan {
    let canonical = q.canonical_order();
    let mut remaining: Vec<usize> = (0..canonical.len()).collect();
    let mut bound: HashMap<String, VarBound> = HashMap::new();
    let mut cur = 1.0f64;
    let mut order = Vec::with_capacity(canonical.len());
    let mut steps = Vec::with_capacity(canonical.len());
    let mut cost = 0.0f64;

    while !remaining.is_empty() {
        // Estimate every remaining atom against the current bindings.
        let ests: Vec<(usize, CandidateEstimate)> = remaining
            .iter()
            .map(|&ci| (ci, estimate(&q.body[canonical[ci]], source, &bound, cur)))
            .collect();
        let connected = ests.iter().any(|(_, e)| e.join_width > 0);
        let pick = ests
            .iter()
            .enumerate()
            // While any atom shares a variable, cartesian candidates are
            // out of the running.
            .filter(|(_, (_, e))| !connected || e.join_width > 0)
            .min_by(|(_, (ci_a, a)), (_, (ci_b, b))| {
                a.est_out
                    .partial_cmp(&b.est_out)
                    .unwrap_or(std::cmp::Ordering::Equal)
                    .then_with(|| {
                        a.eff_rows.partial_cmp(&b.eff_rows).unwrap_or(std::cmp::Ordering::Equal)
                    })
                    .then_with(|| ci_a.cmp(ci_b))
            })
            .map(|(pos, _)| pos)
            .expect("remaining non-empty");
        let (ci, est) = &ests[pick];
        let atom = &q.body[canonical[*ci]];
        // Account the step and update the planner state.
        cost += est.eff_rows + est.est_out;
        for (v, d_atom) in &est.joined_vars {
            // Containment: a join never grows a variable's distinct count.
            let prev = bound.get(v);
            let d = prev.map(|b| b.distinct).unwrap_or(f64::MAX).min(*d_atom);
            let origin = prev.and_then(|b| b.origin.clone());
            bound.insert(v.clone(), VarBound { distinct: d, origin });
        }
        for (v, d, col) in &est.new_vars {
            bound.insert(
                v.clone(),
                VarBound {
                    distinct: d.min(est.est_out.max(1.0)),
                    origin: Some((atom.relation.clone(), *col)),
                },
            );
        }
        steps.push(PlanStep {
            relation: atom.relation.clone(),
            rows: est.raw_size.unwrap_or(0),
            est_rows: est.eff_rows,
            est_bindings: est.est_out,
            join_width: est.join_width,
            pushed_filters: est.pushed,
            join_pairs: est.join_pairs.clone(),
            missing: est.raw_size.is_none(),
        });
        cur = est.est_out;
        order.push(*ci);
        remaining.retain(|r| r != ci);
    }

    Plan { key: q.canonical_key(), order, steps, est_cost: cost }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::parse::parse_query;
    use revere_storage::{Attribute, Catalog, RelSchema, Relation, Value};

    /// A catalog where raw sizes mislead: `big` has 1000 rows but a
    /// constant filter matching 2 of them; `small` has 50 rows and no
    /// filter, so a planner blind to constants would scan `small` first.
    fn skewed_catalog() -> Catalog {
        let mut c = Catalog::new();
        let mut big = Relation::new(RelSchema::new(
            "big",
            vec![Attribute::int("k"), Attribute::text("tag")],
        ));
        for i in 0..1000i64 {
            let tag = if i < 2 { "rare" } else { "common" };
            big.insert(vec![Value::Int(i % 60), Value::str(tag)]);
        }
        c.register(big);
        let mut small = Relation::new(RelSchema::new(
            "small",
            vec![Attribute::int("k"), Attribute::int("v")],
        ));
        for i in 0..50i64 {
            small.insert(vec![Value::Int(i % 60), Value::Int(i)]);
        }
        c.register(small);
        c
    }

    #[test]
    fn cost_based_starts_with_the_selective_constant() {
        let q = parse_query("q(V) :- small(K, V), big(K, 'rare')").unwrap();
        let c = skewed_catalog();
        let plan = plan_cq(&q, &c);
        assert_eq!(plan.steps[0].relation, "big", "{plan}");
        assert!(plan.steps[0].est_rows < 5.0, "{plan}");
    }

    #[test]
    fn plan_transfers_between_isomorphic_queries() {
        let c = skewed_catalog();
        let a = parse_query("q(V) :- small(K, V), big(K, 'rare')").unwrap();
        let b = parse_query("q(W) :- big(J, 'rare'), small(J, W)").unwrap();
        let plan = plan_cq(&a, &c);
        assert!(plan.applies_to(&b));
        assert!(!plan.applies_to(&parse_query("q(V) :- small(K, V)").unwrap()));
    }

    #[test]
    fn connected_atoms_beat_cartesian_products() {
        let c = skewed_catalog();
        // `small` joins `big` on K; the second `small` atom is connected
        // only through V. A cartesian step must not be scheduled while a
        // connected atom remains.
        let q = parse_query("q(V) :- big(K, T), small(K, V), small(V, W)").unwrap();
        let plan = plan_cq(&q, &c);
        for (i, s) in plan.steps.iter().enumerate().skip(1) {
            assert!(s.join_width > 0, "step {} is cartesian: {plan}", i + 1);
        }
    }

    #[test]
    fn explain_dump_names_order_and_estimates() {
        let q = parse_query("q(V) :- small(K, V), big(K, 'rare')").unwrap();
        let plan = plan_cq(&q, &skewed_catalog());
        let text = plan.to_string();
        assert!(text.contains("cost-based"), "{text}");
        assert!(text.contains("scan big"), "{text}");
        assert!(text.contains("probe on 1 bound var(s)"), "{text}");
    }

    #[test]
    fn q_error_is_symmetric_and_clamped() {
        assert_eq!(q_error(10.0, 10), 1.0);
        assert_eq!(q_error(100.0, 10), 10.0);
        assert_eq!(q_error(10.0, 100), 10.0);
        // Sub-1 estimates and zero actuals clamp to 1 on both sides.
        assert_eq!(q_error(0.3, 0), 1.0);
    }

    #[test]
    fn explain_and_analyze_share_an_aligned_prefix() {
        let c = skewed_catalog();
        let q = parse_query("q(V) :- small(K, V), big(K, 'rare')").unwrap();
        let ea = explain_analyze(&q, &c).unwrap();
        let explain = ea.plan.render(None);
        let analyze = ea.plan.render(Some(&ea.actual_bindings));
        // Every ANALYZE line extends the matching EXPLAIN line verbatim.
        for (e, a) in explain.lines().zip(analyze.lines()) {
            assert!(a.starts_with(e), "not a prefix:\n{e}\n{a}");
        }
        // The appended columns are aligned: every line's suffix starts at
        // the same offset.
        let offsets: Vec<usize> = analyze
            .lines()
            .skip(1)
            .map(|l| l.find("  act bind ").expect("analyze column"))
            .collect();
        assert!(offsets.windows(2).all(|w| w[0] == w[1]), "{analyze}");
        assert!(analyze.contains("q-err"), "{analyze}");
    }

    #[test]
    fn explain_analyze_reports_actuals_and_q_error() {
        let c = skewed_catalog();
        let q = parse_query("q(V) :- small(K, V), big(K, 'rare')").unwrap();
        let ea = explain_analyze(&q, &c).unwrap();
        assert_eq!(ea.actual_bindings.len(), ea.plan.order.len());
        assert_eq!(ea.q_errors().len(), ea.plan.order.len());
        assert!(ea.max_q_error() >= 1.0);
        let text = ea.to_string();
        assert!(text.contains("act bind"), "{text}");
        assert!(text.contains("max q-error"), "{text}");
    }

    #[test]
    fn missing_relation_plans_without_panicking() {
        let q = parse_query("q(X) :- ghost(X), small(X, Y)").unwrap();
        let plan = plan_cq(&q, &skewed_catalog());
        assert_eq!(plan.order.len(), 2);
        let ghost = plan.steps.iter().find(|s| s.relation == "ghost").unwrap();
        assert!(ghost.missing);
        assert_eq!(ghost.rows, 0);
    }

    #[test]
    fn missing_relation_renders_as_missing_not_rows_zero() {
        let mut c = Catalog::new();
        // A genuinely empty relation, for contrast with a missing one.
        c.create(RelSchema::text("empty", &["k"]));
        let q = parse_query("q(X) :- ghost(X), empty(X)").unwrap();
        let plan = plan_cq(&q, &c);
        let text = plan.render(None);
        let ghost_line = text.lines().find(|l| l.contains(" ghost")).unwrap();
        let empty_line = text.lines().find(|l| l.contains(" empty")).unwrap();
        assert!(ghost_line.contains("rows missing"), "{text}");
        assert!(!empty_line.contains("missing"), "empty is not missing: {text}");
        // The aligned-prefix invariant holds with the marker in play.
        let analyze = plan.render(Some(&[0, 0]));
        for (e, a) in text.lines().zip(analyze.lines()) {
            assert!(a.starts_with(e), "not a prefix:\n{e}\n{a}");
        }
    }

    #[test]
    fn adaptive_estimates_use_mcv_overlap() {
        // Two relations joining on a skewed key: `hot` is 9 of 10 rows on
        // both sides, so uniform 1/max(d1,d2) would estimate 50 bindings.
        let mut c = Catalog::new();
        let mut a = Relation::new(RelSchema::text("a", &["k"]));
        let mut b = Relation::new(RelSchema::text("b", &["k", "v"]));
        for i in 0..10i64 {
            let k = if i < 9 { "hot".to_string() } else { format!("cold{i}") };
            a.insert(vec![Value::str(k.clone())]);
            b.insert(vec![Value::str(k), Value::Int(i)]);
        }
        c.register(a);
        c.register(b);
        let q = parse_query("q(K, V) :- a(K), b(K, V)").unwrap();
        let plan = plan_cq(&q, &c);
        // True join output: 9·9 + 1·1 = 82 bindings.
        let est = plan.steps.last().unwrap().est_bindings;
        assert!((est - 82.0).abs() < 1e-6, "MCV overlap is exact here, got {est}");
    }

    #[test]
    fn learned_overlap_beats_the_model() {
        let mut c = skewed_catalog();
        let q = parse_query("q(V) :- small(K, V), big(K, T)").unwrap();
        let before = plan_cq(&q, &c);
        // Feed back a measured selectivity for the joined pair; the next
        // plan's estimate must reflect it exactly.
        let (first, second) = (&before.steps[0], &before.steps[1]);
        let pair = &second.join_pairs[0];
        assert_eq!(pair.other_relation, first.relation);
        assert!(c.note_join_overlap(&second.relation, pair.col, &pair.other_relation, pair.other_col, 0.5));
        let after = plan_cq(&q, &c);
        let probe = after.steps.iter().find(|s| s.join_width > 0).unwrap();
        let expected = after.steps[0].est_rows * probe.est_rows * 0.5;
        assert!(
            (probe.est_bindings - expected).abs() < 1e-6,
            "learned selectivity should drive the estimate: {after}"
        );
    }

    #[test]
    fn planning_is_deterministic() {
        let c = skewed_catalog();
        let q = parse_query("q(V) :- small(K, V), big(K, T), small(V, W)").unwrap();
        let a = plan_cq(&q, &c);
        let b = plan_cq(&q, &c);
        assert_eq!(a.order, b.order);
        assert_eq!(a.to_string(), b.to_string());
    }
}

