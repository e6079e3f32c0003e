//! Query containment, equivalence and minimization.
//!
//! The reformulator uses containment two ways: to prune redundant rewriting
//! paths ("heuristics that prune redundant and irrelevant paths", §3.1.1)
//! and to minimize rewritings before shipping them to peers.
//!
//! Containment of comparison-free conjunctive queries is decided by the
//! classical containment-mapping test (Chandra & Merlin): `Q1 ⊆ Q2` iff
//! there is a homomorphism from `Q2` into the *frozen* `Q1` that maps head
//! to head. Comparisons are handled conservatively: we additionally require
//! every comparison of `Q2` to appear (under the mapping) among `Q1`'s
//! comparisons — sound, not complete, which is the right trade for a
//! pruning heuristic.

use crate::ast::{Atom, Comparison, ConjunctiveQuery, Term};
use crate::unify::{any_homomorphism, Subst};
use revere_storage::Value;

/// Freeze a term: a variable becomes a distinct fresh constant.
fn frozen(t: &Term) -> Term {
    match t {
        Term::Var(v) => Term::Const(Value::str(format!("\u{2744}{v}"))),
        c @ Term::Const(_) => c.clone(),
    }
}

/// Freeze a query: replace each variable by a distinct fresh constant.
/// Returns the frozen body and head.
fn freeze(q: &ConjunctiveQuery) -> (Vec<Atom>, Atom) {
    let freeze_atom = |a: &Atom| Atom::new(a.relation.clone(), a.terms.iter().map(frozen).collect());
    (q.body.iter().map(freeze_atom).collect(), freeze_atom(&q.head))
}

/// Test `q1 ⊆ q2` (every answer of `q1` on every database is an answer of
/// `q2`). Sound and complete for comparison-free queries; sound (may say
/// `false` unnecessarily) when comparisons are present.
///
/// A homomorphism sends every body atom of `q2` onto an atom of `q1` with
/// the same relation and arity, so a `q2` atom without one decides `false`
/// before anything is frozen; the search stops at the first homomorphism
/// that also carries `q2`'s comparisons.
pub fn contained_in(q1: &ConjunctiveQuery, q2: &ConjunctiveQuery) -> bool {
    if q1.head.terms.len() != q2.head.terms.len() {
        return false;
    }
    let has_image = |a: &Atom| {
        q1.body.iter().any(|b| b.relation == a.relation && b.terms.len() == a.terms.len())
    };
    if !q2.body.iter().all(has_image) {
        return false;
    }
    let (frozen_body, frozen_head) = freeze(q1);
    // Seed the homomorphism with the head correspondence.
    let mut base = Subst::new();
    for (t2, t1f) in q2.head.terms.iter().zip(&frozen_head.terms) {
        match t2 {
            Term::Var(v) => {
                if !base.bind(v, t1f.clone()) {
                    return false;
                }
            }
            Term::Const(c) => {
                if Term::Const(c.clone()) != *t1f {
                    return false;
                }
            }
        }
    }
    // Conservative comparison check: q2's comparisons, after mapping, must
    // be syntactically implied by q1's (frozen) comparisons or hold between
    // constants.
    let frozen_cmp: Vec<Comparison> = q1
        .comparisons
        .iter()
        .map(|c| Comparison { left: frozen(&c.left), op: c.op, right: frozen(&c.right) })
        .collect();
    any_homomorphism(&q2.body, &frozen_body, &base, |h| {
        q2.comparisons.iter().all(|c| {
            let mapped = h.apply_cmp(c);
            match (&mapped.left, &mapped.right) {
                (Term::Const(a), Term::Const(b))
                    if !a.to_string().starts_with('\u{2744}')
                        && !b.to_string().starts_with('\u{2744}') =>
                {
                    mapped.op.apply(a, b)
                }
                _ => frozen_cmp.contains(&mapped),
            }
        })
    })
}

/// Test logical equivalence: containment both ways.
pub fn equivalent(q1: &ConjunctiveQuery, q2: &ConjunctiveQuery) -> bool {
    contained_in(q1, q2) && contained_in(q2, q1)
}

/// Minimize a conjunctive query: repeatedly drop a body atom if the
/// shrunken query is still equivalent. The result is the (unique up to
/// isomorphism) core for comparison-free queries.
pub fn minimize(q: &ConjunctiveQuery) -> ConjunctiveQuery {
    let mut current = q.clone();
    loop {
        let mut shrunk = None;
        for i in 0..current.body.len() {
            if current.body.len() == 1 {
                break;
            }
            let mut cand = current.clone();
            cand.body.remove(i);
            if !cand.is_safe() {
                continue;
            }
            if equivalent(&cand, &current) {
                shrunk = Some(cand);
                break;
            }
        }
        match shrunk {
            Some(c) => current = c,
            None => return current,
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::parse::parse_query;

    fn q(src: &str) -> ConjunctiveQuery {
        parse_query(src).unwrap()
    }

    #[test]
    fn reflexive() {
        let a = q("q(X) :- r(X, Y), s(Y)");
        assert!(contained_in(&a, &a));
        assert!(equivalent(&a, &a));
    }

    #[test]
    fn more_constrained_is_contained() {
        let tight = q("q(X) :- r(X, X)");
        let loose = q("q(X) :- r(X, Y)");
        assert!(contained_in(&tight, &loose));
        assert!(!contained_in(&loose, &tight));
    }

    #[test]
    fn constant_vs_variable() {
        let tight = q("q(X) :- r(X, 'a')");
        let loose = q("q(X) :- r(X, Y)");
        assert!(contained_in(&tight, &loose));
        assert!(!contained_in(&loose, &tight));
    }

    #[test]
    fn classic_path_containment() {
        // Chandra–Merlin style: a longer path query is contained in a
        // shorter one when a folding exists.
        let two = q("q(X) :- e(X, Y), e(Y, X)");
        let loop1 = q("q(X) :- e(X, X)");
        assert!(contained_in(&loop1, &two));
        assert!(!contained_in(&two, &loop1));
    }

    #[test]
    fn head_shape_matters() {
        let a = q("q(X, Y) :- r(X, Y)");
        let b = q("q(X, X) :- r(X, X)");
        assert!(contained_in(&b, &a));
        assert!(!contained_in(&a, &b));
    }

    #[test]
    fn different_relations_not_contained() {
        assert!(!contained_in(&q("q(X) :- r(X)"), &q("q(X) :- s(X)")));
    }

    #[test]
    fn comparisons_sound_direction() {
        let strict = q("q(X) :- r(X, S), S > 10");
        let loose = q("q(X) :- r(X, S)");
        assert!(contained_in(&strict, &loose));
        assert!(!contained_in(&loose, &strict));
        // Identical comparison is recognized.
        assert!(contained_in(&strict, &strict));
    }

    #[test]
    fn minimize_removes_redundant_atom() {
        let redundant = q("q(X) :- r(X, Y), r(X, Z)");
        let min = minimize(&redundant);
        assert_eq!(min.body.len(), 1);
        assert!(equivalent(&min, &redundant));
    }

    #[test]
    fn minimize_keeps_core() {
        let core = q("q(X) :- r(X, Y), s(Y)");
        assert_eq!(minimize(&core).body.len(), 2);
    }

    #[test]
    fn minimize_folding_chain() {
        // e(X,Y), e(Y,Z) with head q(X): the second atom is NOT redundant
        // (path of length 2 differs from length 1).
        let p2 = q("q(X) :- e(X, Y), e(Y, Z)");
        assert_eq!(minimize(&p2).body.len(), 2);
        // But duplicating an atom is.
        let dup = q("q(X) :- e(X, Y), e(X, Y), e(Y, Z)");
        assert_eq!(minimize(&dup).body.len(), 2);
    }
}
