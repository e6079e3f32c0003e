//! The MiniCon algorithm: answering queries using views (LAV rewriting).
//!
//! In local-as-view integration "the data sources are defined as views over
//! the mediated schema" (§3.1.1); answering a query then requires rewriting
//! it to use only the views. MiniCon (Pottinger & Halevy, VLDB'00) does this
//! in two phases:
//!
//! 1. **MCD formation** — for every (goal, view) pair, try to build a
//!    *MiniCon description*: a mapping of a minimal set of query goals into
//!    one view instance, subject to (C1) distinguished query variables land
//!    on distinguished view variables or constants, and (C2) a query
//!    variable mapped onto an *existential* view variable drags every goal
//!    it occurs in into the same MCD.
//! 2. **Combination** — sets of MCDs with pairwise-disjoint goal sets that
//!    jointly cover all goals are combined into candidate rewritings.
//!
//! Comparisons in the query are retained in each rewriting; variables used
//! in comparisons are treated like distinguished variables (their values
//! must be exposed by the views), which keeps the output sound.

use crate::ast::{Atom, ConjunctiveQuery, Term};
use crate::unfold::ViewDef;
use crate::unify::Subst;
use std::collections::{BTreeMap, BTreeSet, HashMap, HashSet};
use std::rc::Rc;

/// A view with its variables freshened, shared by every MCD formed from it.
#[derive(Debug)]
struct FreshView {
    query: ConjunctiveQuery,
    /// Distinguished (head) variables.
    distinguished: HashSet<String>,
}

/// One MiniCon description.
#[derive(Debug, Clone)]
struct Mcd {
    view_idx: usize,
    /// Indices of covered query goals.
    goals: BTreeSet<usize>,
    /// Query variable → view term (resolved through `sigma` when read),
    /// ordered by name so every walk over it is deterministic.
    tau: BTreeMap<String, Term>,
    /// Bindings among/over view variables (head homomorphism + constants).
    sigma: Subst,
    /// The freshened view used by this MCD.
    view: Rc<FreshView>,
}

/// Rewrite `q` using only the given views. Every returned query references
/// only view relations, is safe, and is contained in `q` (soundness); with
/// a complete set of MCD combinations the union of results is the maximal
/// contained rewriting for comparison-free queries.
pub fn rewrite_using_views(q: &ConjunctiveQuery, views: &[ViewDef]) -> Vec<ConjunctiveQuery> {
    ViewCover::new(q, views).rewrite(&[], None)
}

/// The MiniCon descriptions of one query over a fixed list of views: the
/// part of [`rewrite_using_views`] that views appended later cannot change.
/// The reformulator forms one per query node over the node's identity
/// views, then rewrites through each mapping edge with
/// [`ViewCover::rewrite_through`] instead of re-forming the identity MCDs
/// per edge.
#[derive(Debug)]
pub struct ViewCover<'q> {
    q: &'q ConjunctiveQuery,
    /// Variables whose values must be retrievable from the views.
    needed: HashSet<String>,
    /// Deduplicated MCDs of the fixed views, in view order.
    mcds: Vec<Mcd>,
    /// How many views are fixed: the index an appended view takes.
    views: usize,
}

impl<'q> ViewCover<'q> {
    /// Form (phase 1) the MCDs of `q` over `views`.
    pub fn new(q: &'q ConjunctiveQuery, views: &[ViewDef]) -> Self {
        let mut needed: HashSet<String> = q.head_vars().into_iter().map(str::to_string).collect();
        for c in &q.comparisons {
            for t in [&c.left, &c.right] {
                if let Some(v) = t.as_var() {
                    needed.insert(v.to_string());
                }
            }
        }
        let mut mcds = Vec::new();
        for (vi, vdef) in views.iter().enumerate() {
            form_mcds(q, &needed, vi, vdef, &mut mcds);
        }
        dedup_mcds(&mut mcds);
        ViewCover { q, needed, mcds, views: views.len() }
    }

    /// The rewritings `rewrite_using_views(q, views ++ [view])` returns
    /// that use `view`, in the same order and spelled the same way.
    pub fn rewrite_through(&self, view: &ViewDef) -> Vec<ConjunctiveQuery> {
        let mut extra = Vec::new();
        form_mcds(self.q, &self.needed, self.views, view, &mut extra);
        dedup_mcds(&mut extra);
        self.rewrite(&extra, Some(self.views))
    }

    /// Phase 2 over the fixed MCDs then `extra`: every exact cover by
    /// pairwise-disjoint MCDs (one of view `required`, when given) becomes
    /// a rewriting; rewritings equal up to renaming are kept once.
    fn rewrite(&self, extra: &[Mcd], required: Option<usize>) -> Vec<ConjunctiveQuery> {
        let mcds: Vec<&Mcd> = self.mcds.iter().chain(extra).collect();
        let all: BTreeSet<usize> = (0..self.q.body.len()).collect();
        let mut rewritings = Vec::new();
        combine(&mcds, &all, &BTreeSet::new(), &mut Vec::new(), required, self.q, &mut rewritings);
        let mut seen = HashSet::new();
        rewritings.retain(|r| seen.insert(r.canonical_key()));
        rewritings
    }
}

/// MCDs from every (goal, view-atom) seed of view `vi`, whose variables
/// are freshened with the prefix `mc{vi}_`.
fn form_mcds(
    q: &ConjunctiveQuery,
    needed: &HashSet<String>,
    vi: usize,
    vdef: &ViewDef,
    out: &mut Vec<Mcd>,
) {
    let query = vdef.as_query().rename_vars(&format!("mc{vi}_"));
    let distinguished =
        query.head.terms.iter().filter_map(|t| t.as_var().map(str::to_string)).collect();
    let seed = Mcd {
        view_idx: vi,
        goals: BTreeSet::new(),
        tau: BTreeMap::new(),
        sigma: Subst::new(),
        view: Rc::new(FreshView { query, distinguished }),
    };
    for gi in 0..q.body.len() {
        for with_goal in map_goal_into_view(q, gi, &seed) {
            close_mcd(q, needed, with_goal, out);
        }
    }
}

/// All ways of consistently mapping query goal `gi` into some atom of the
/// MCD's view.
fn map_goal_into_view(q: &ConjunctiveQuery, gi: usize, base: &Mcd) -> Vec<Mcd> {
    let goal = &q.body[gi];
    let mut out = Vec::new();
    for w in &base.view.query.body {
        if w.relation != goal.relation || w.terms.len() != goal.terms.len() {
            continue;
        }
        let mut m = base.clone();
        if try_map_atom(goal, w, &mut m) {
            m.goals.insert(gi);
            out.push(m);
        }
    }
    out
}

/// Extend the MCD's (tau, sigma) so that `goal` maps onto view atom `w`.
fn try_map_atom(goal: &Atom, w: &Atom, m: &mut Mcd) -> bool {
    for (tq, tv) in goal.terms.iter().zip(&w.terms) {
        let tv_res = m.sigma.resolve(tv);
        match tq {
            Term::Const(c) => match tv_res {
                Term::Const(d) => {
                    if *c != d {
                        return false;
                    }
                }
                Term::Var(y) => {
                    // A query constant can only constrain a distinguished
                    // view variable (via selection on the view's output).
                    if !m.view.distinguished.contains(&y) {
                        return false;
                    }
                    if !m.sigma.bind(&y, Term::Const(c.clone())) {
                        return false;
                    }
                }
            },
            Term::Var(x) => {
                match m.tau.get(x).cloned() {
                    None => {
                        m.tau.insert(x.clone(), tv_res);
                    }
                    Some(prev) => {
                        let prev_res = m.sigma.resolve(&prev);
                        if !reconcile(prev_res, tv_res, m) {
                            return false;
                        }
                    }
                }
            }
        }
    }
    true
}

/// Make two view-side terms equal, if permitted (only distinguished view
/// variables may be equated or bound to constants).
fn reconcile(a: Term, b: Term, m: &mut Mcd) -> bool {
    match (a, b) {
        (Term::Const(x), Term::Const(y)) => x == y,
        (Term::Var(y), Term::Const(c)) | (Term::Const(c), Term::Var(y)) => {
            m.view.distinguished.contains(&y) && m.sigma.bind(&y, Term::Const(c))
        }
        (Term::Var(y1), Term::Var(y2)) => {
            if y1 == y2 {
                return true;
            }
            m.view.distinguished.contains(&y1)
                && m.view.distinguished.contains(&y2)
                && m.sigma.bind(&y1, Term::Var(y2))
        }
    }
}

/// Enforce property C2 by closure: any query variable sitting on an
/// existential view variable forces all its goals into the MCD. Branches
/// over the choice of view atom for each forced goal; pushes completed
/// MCDs into `out`.
fn close_mcd(q: &ConjunctiveQuery, needed: &HashSet<String>, m: Mcd, out: &mut Vec<Mcd>) {
    // Find a violation: var on existential view var with an uncovered goal.
    for (x, t) in &m.tau {
        let resolved = m.sigma.resolve(t);
        if let Term::Var(y) = &resolved {
            if !m.view.distinguished.contains(y) {
                // C1: needed variables may not land on existential vars.
                if needed.contains(x) {
                    return; // dead MCD
                }
                for (gi, g) in q.body.iter().enumerate() {
                    if m.goals.contains(&gi) {
                        continue;
                    }
                    if g.vars().contains(&x.as_str()) {
                        // Force goal gi in, branching over target atoms.
                        for next in map_goal_into_view(q, gi, &m) {
                            close_mcd(q, needed, next, out);
                        }
                        return;
                    }
                }
            }
        }
    }
    out.push(m);
}

fn dedup_mcds(mcds: &mut Vec<Mcd>) {
    use std::fmt::Write as _;
    let mut seen = HashSet::new();
    mcds.retain(|m| {
        // `tau` iterates in name order, so the key is canonical as built.
        let mut key = format!("{}|{:?}|", m.view_idx, m.goals);
        for (k, v) in &m.tau {
            // Writing to a `String` cannot fail.
            let _ = write!(key, "{k}->{},", m.sigma.resolve(v));
        }
        seen.insert(key)
    });
}

/// Recursive exact-cover over goal sets; a cover that uses no MCD of
/// view `required` (when given) is not built.
fn combine(
    mcds: &[&Mcd],
    all: &BTreeSet<usize>,
    covered: &BTreeSet<usize>,
    chosen: &mut Vec<usize>,
    required: Option<usize>,
    q: &ConjunctiveQuery,
    out: &mut Vec<ConjunctiveQuery>,
) {
    if covered == all {
        let uses_required =
            required.is_none_or(|vi| chosen.iter().any(|&i| mcds[i].view_idx == vi));
        if uses_required {
            if let Some(r) = build_rewriting(q, mcds, chosen) {
                out.push(r);
            }
        }
        return;
    }
    let next_goal = *all.iter().find(|g| !covered.contains(g)).expect("uncovered goal exists");
    for (i, m) in mcds.iter().enumerate() {
        if !m.goals.contains(&next_goal) {
            continue;
        }
        if !m.goals.is_disjoint(covered) {
            continue;
        }
        let mut new_cov = covered.clone();
        new_cov.extend(m.goals.iter().copied());
        chosen.push(i);
        combine(mcds, all, &new_cov, chosen, required, q, out);
        chosen.pop();
    }
}

/// Materialize a rewriting from a set of chosen MCDs.
fn build_rewriting(q: &ConjunctiveQuery, mcds: &[&Mcd], chosen: &[usize]) -> Option<ConjunctiveQuery> {
    // Global mapping from query variables to rewriting terms.
    let head_vars: HashSet<&str> = q.head_vars().into_iter().collect();
    let mut global: HashMap<String, Term> = HashMap::new();
    let mut atoms = Vec::with_capacity(chosen.len());
    let mut fresh_counter = 0usize;

    for (k, &mi) in chosen.iter().enumerate() {
        let m = mcds[mi];
        // Group query vars by the view variable they land on.
        let mut by_view_var: HashMap<String, Vec<&String>> = HashMap::new();
        for (x, t) in &m.tau {
            match m.sigma.resolve(t) {
                Term::Const(c) => {
                    // x is pinned to a constant.
                    match global.get(x) {
                        None => {
                            global.insert(x.clone(), Term::Const(c));
                        }
                        Some(Term::Const(d)) if *d == c => {}
                        Some(Term::Const(_)) => return None,
                        Some(Term::Var(_)) => {
                            // Another MCD chose a variable; tighten to const.
                            global.insert(x.clone(), Term::Const(c));
                        }
                    }
                }
                Term::Var(y) => by_view_var.entry(y).or_default().push(x),
            }
        }
        // Choose representatives: prefer a head var of Q.
        for (_, group) in by_view_var.iter() {
            let rep = group
                .iter()
                .find(|x| head_vars.contains(x.as_str()))
                .unwrap_or(&group[0])
                .to_string();
            for x in group {
                match global.get(x.as_str()) {
                    None => {
                        global.insert((*x).clone(), Term::Var(rep.clone()));
                    }
                    Some(_) => {
                        // Already assigned by another MCD (shared variable):
                        // the existing assignment wins; all members of the
                        // group must agree with it, which is enforced by
                        // substituting the same term for rep below.
                    }
                }
            }
        }
        // Build the view atom's arguments from the view head.
        let mut args = Vec::with_capacity(m.view.query.head.terms.len());
        for t in &m.view.query.head.terms {
            match m.sigma.resolve(t) {
                Term::Const(c) => args.push(Term::Const(c)),
                Term::Var(y) => {
                    // Which query var (if any) landed on y?
                    let owner = m.tau.iter().find(|(_, vt)| {
                        matches!(m.sigma.resolve(vt), Term::Var(ref yy) if *yy == y)
                    });
                    match owner {
                        Some((x, _)) => args.push(
                            global.get(x).cloned().unwrap_or_else(|| Term::Var(x.clone())),
                        ),
                        None => {
                            fresh_counter += 1;
                            args.push(Term::Var(format!("F{k}_{fresh_counter}")));
                        }
                    }
                }
            }
        }
        atoms.push(Atom::new(m.view.query.head.relation.clone(), args));
    }

    // Apply the global substitution to the head, atoms and comparisons.
    let subst_term = |t: &Term, global: &HashMap<String, Term>| -> Term {
        match t {
            Term::Var(v) => {
                let mut cur = global.get(v).cloned().unwrap_or_else(|| t.clone());
                // Chase one extra level (rep may itself be remapped).
                if let Term::Var(v2) = &cur {
                    if v2 != v {
                        if let Some(next) = global.get(v2) {
                            cur = next.clone();
                        }
                    }
                }
                cur
            }
            c @ Term::Const(_) => c.clone(),
        }
    };
    let head = Atom::new(
        q.head.relation.clone(),
        q.head.terms.iter().map(|t| subst_term(t, &global)).collect(),
    );
    let body: Vec<Atom> = atoms
        .iter()
        .map(|a| Atom::new(a.relation.clone(), a.terms.iter().map(|t| subst_term(t, &global)).collect()))
        .collect();
    let comparisons = q
        .comparisons
        .iter()
        .map(|c| crate::ast::Comparison {
            left: subst_term(&c.left, &global),
            op: c.op,
            right: subst_term(&c.right, &global),
        })
        .collect();
    let rw = ConjunctiveQuery { head, body, comparisons };
    if rw.is_safe() {
        Some(rw)
    } else {
        None
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::containment::contained_in;
    use crate::eval::eval_cq;
    use crate::parse::parse_query;
    use crate::unfold::{unfold_with, ViewDef};
    use revere_storage::{Catalog, RelSchema, Relation};

    fn views(defs: &[&str]) -> Vec<ViewDef> {
        defs.iter()
            .map(|d| ViewDef::from_query(&parse_query(d).unwrap()))
            .collect()
    }

    /// Expand each rewriting back to base relations and check containment
    /// in the original query — the soundness criterion.
    fn assert_sound(q: &ConjunctiveQuery, vs: &[ViewDef], rewritings: &[ConjunctiveQuery]) {
        for r in rewritings {
            for expanded in unfold_with(r, vs, 8) {
                assert!(
                    contained_in(&expanded, q),
                    "unsound rewriting {r} (expanded: {expanded}) for query {q}"
                );
            }
        }
    }

    #[test]
    fn identity_view() {
        let q = parse_query("q(X, Y) :- e(X, Y)").unwrap();
        let vs = views(&["v(A, B) :- e(A, B)"]);
        let rs = rewrite_using_views(&q, &vs);
        assert_eq!(rs.len(), 1);
        assert_eq!(rs[0].body[0].relation, "v");
        assert_sound(&q, &vs, &rs);
    }

    #[test]
    fn path_of_two_via_single_edge_view() {
        let q = parse_query("q(X, Y) :- e(X, Z), e(Z, Y)").unwrap();
        let vs = views(&["v(A, B) :- e(A, B)"]);
        let rs = rewrite_using_views(&q, &vs);
        assert_eq!(rs.len(), 1);
        assert_eq!(rs[0].body.len(), 2);
        assert_sound(&q, &vs, &rs);
    }

    #[test]
    fn existential_view_var_forces_goal_closure() {
        // v exposes only the start of a 2-path; the join variable is
        // existential, so one MCD must cover both goals.
        let q = parse_query("q(X) :- e(X, Y), f(Y, Z)").unwrap();
        let vs = views(&["v(A) :- e(A, B), f(B, C)"]);
        let rs = rewrite_using_views(&q, &vs);
        assert_eq!(rs.len(), 1);
        assert_eq!(rs[0].body.len(), 1);
        assert_sound(&q, &vs, &rs);
    }

    #[test]
    fn head_var_on_existential_is_rejected() {
        let q = parse_query("q(X, Y) :- e(X, Y)").unwrap();
        let vs = views(&["v(A) :- e(A, B)"]);
        assert!(rewrite_using_views(&q, &vs).is_empty());
    }

    #[test]
    fn partial_coverage_yields_nothing() {
        let q = parse_query("q(X) :- e(X, X), f(X)").unwrap();
        let vs = views(&["v(A) :- e(A, A)"]); // no view covers f
        assert!(rewrite_using_views(&q, &vs).is_empty());
    }

    #[test]
    fn two_views_combine() {
        let q = parse_query("q(X, Z) :- e(X, Y), f(Y, Z)").unwrap();
        let vs = views(&["v1(A, B) :- e(A, B)", "v2(A, B) :- f(A, B)"]);
        let rs = rewrite_using_views(&q, &vs);
        assert_eq!(rs.len(), 1);
        assert_eq!(rs[0].body.len(), 2);
        assert_sound(&q, &vs, &rs);
    }

    #[test]
    fn constant_in_query_selects_on_distinguished() {
        let q = parse_query("q(X) :- e(X, 'target')").unwrap();
        let vs = views(&["v(A, B) :- e(A, B)"]);
        let rs = rewrite_using_views(&q, &vs);
        assert_eq!(rs.len(), 1);
        assert!(rs[0].body[0].terms.iter().any(Term::is_const));
        assert_sound(&q, &vs, &rs);
    }

    #[test]
    fn constant_on_existential_is_rejected() {
        let q = parse_query("q(X) :- e(X, 'target')").unwrap();
        let vs = views(&["v(A) :- e(A, B)"]); // B hidden
        assert!(rewrite_using_views(&q, &vs).is_empty());
    }

    #[test]
    fn constant_in_view_body_matches() {
        let q = parse_query("q(X) :- e(X, 'target')").unwrap();
        let vs = views(&["v(A) :- e(A, 'target')"]);
        let rs = rewrite_using_views(&q, &vs);
        assert_eq!(rs.len(), 1);
        assert_sound(&q, &vs, &rs);
    }

    #[test]
    fn multiple_rewritings_from_overlapping_views() {
        let q = parse_query("q(X, Y) :- e(X, Y)").unwrap();
        let vs = views(&["v1(A, B) :- e(A, B)", "v2(A, B) :- e(A, B)"]);
        let rs = rewrite_using_views(&q, &vs);
        assert_eq!(rs.len(), 2);
        assert_sound(&q, &vs, &rs);
    }

    #[test]
    fn comparison_vars_must_be_exposed() {
        let q = parse_query("q(X) :- e(X, S), S > 10").unwrap();
        let hidden = views(&["v(A) :- e(A, B)"]);
        assert!(rewrite_using_views(&q, &hidden).is_empty());
        let exposed = views(&["v(A, B) :- e(A, B)"]);
        let rs = rewrite_using_views(&q, &exposed);
        assert_eq!(rs.len(), 1);
        assert_eq!(rs[0].comparisons.len(), 1);
    }

    #[test]
    fn repeated_query_var_equates_distinguished_view_vars() {
        let q = parse_query("q(X) :- e(X, X)").unwrap();
        let vs = views(&["v(A, B) :- e(A, B)"]);
        let rs = rewrite_using_views(&q, &vs);
        assert_eq!(rs.len(), 1);
        // Both positions of v must carry the same variable.
        let a = &rs[0].body[0];
        assert_eq!(a.terms[0], a.terms[1]);
        assert_sound(&q, &vs, &rs);
    }

    #[test]
    fn a_cover_rewrites_through_an_appended_view_as_the_full_list_does() {
        let fixed = views(&["id0(A, B) :- e(A, B)", "id1(A, B) :- f(A, B)"]);
        for (q, extra) in [
            ("q(X, Z) :- e(X, Y), f(Y, Z)", "m(A, B) :- e(A, B)"),
            ("q(X) :- e(X, Y), f(Y, Z)", "m(A) :- e(A, B), f(B, C)"),
            ("q(X, Y) :- e(X, Y), e(Y, X)", "m(A, B) :- e(A, B)"),
            ("q(X) :- e(X, 'c'), f(X, X)", "m(A, B) :- f(A, B)"),
            ("q(X) :- e(X, Y)", "m(A) :- g(A)"),
        ] {
            let q = parse_query(q).unwrap();
            let extra = views(&[extra]).remove(0);
            let mut all = fixed.clone();
            all.push(extra.clone());
            let mut full = rewrite_using_views(&q, &all);
            full.retain(|r| r.body.iter().any(|a| a.relation == "m"));
            assert_eq!(ViewCover::new(&q, &fixed).rewrite_through(&extra), full, "{q}");
        }
    }

    /// End-to-end: evaluating the rewriting over materialized views equals
    /// evaluating the query over the base data (for an equivalent rewriting).
    #[test]
    fn rewriting_evaluates_correctly() {
        let q = parse_query("q(X, Y) :- e(X, Z), e(Z, Y)").unwrap();
        let vs = views(&["v(A, B) :- e(A, B)"]);
        let rs = rewrite_using_views(&q, &vs);
        assert_eq!(rs.len(), 1);

        // Base data.
        let mut base = Catalog::new();
        let mut e = Relation::new(RelSchema::text("e", &["a", "b"]));
        for (x, y) in [("1", "2"), ("2", "3"), ("3", "1"), ("2", "4")] {
            e.insert(vec![x.into(), y.into()]);
        }
        base.register(e);
        let direct = eval_cq(&q, &base).unwrap();

        // Materialize the view, evaluate the rewriting over it.
        let vq = parse_query("v(A, B) :- e(A, B)").unwrap();
        let mut vcat = Catalog::new();
        let mut vrel = eval_cq(&vq, &base).unwrap();
        vrel.schema.name = "v".into();
        vcat.register(vrel);
        let via_views = eval_cq(&rs[0], &vcat).unwrap();

        let mut d: Vec<_> = direct.rows().to_vec();
        let mut v: Vec<_> = via_views.rows().to_vec();
        d.sort();
        v.sort();
        assert_eq!(d, v);
    }
}
