//! Global-as-view unfolding.
//!
//! In GAV-style data integration "the mediated schema is defined as a set
//! of queries over the data sources" (§3.1.1). A [`ViewDef`] is one such
//! definition: a head relation plus the conjunctive query defining it.
//! Unfolding replaces an atom over a defined relation by the definition's
//! body, unifying head arguments and freshening existential variables.

use crate::ast::{Atom, ConjunctiveQuery};
use crate::unify::{unify_atoms, Subst};

/// A view definition `head :- body` (a GAV rule).
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct ViewDef {
    /// The defined relation, as an atom over the definition's variables.
    pub head: Atom,
    /// The defining query body.
    pub body: Vec<Atom>,
}

impl ViewDef {
    /// Build from a conjunctive query (`q.head` becomes the defined
    /// relation).
    pub fn from_query(q: &ConjunctiveQuery) -> Self {
        ViewDef { head: q.head.clone(), body: q.body.clone() }
    }

    /// View definition as a conjunctive query.
    pub fn as_query(&self) -> ConjunctiveQuery {
        ConjunctiveQuery::new(self.head.clone(), self.body.clone())
    }
}

/// The prefix that freshens a definition unfolded into `q`: the smallest
/// `u{n}_` that no variable of `q` starts with, so a renamed definition
/// variable cannot capture one of `q`'s, and the same query always gets
/// the same names.
fn fresh_prefix(q: &ConjunctiveQuery) -> String {
    let vars: Vec<&str> = q
        .body
        .iter()
        .chain(std::iter::once(&q.head))
        .flat_map(|a| a.terms.iter().filter_map(|t| t.as_var()))
        .chain(q.comparisons.iter().flat_map(|c| [&c.left, &c.right]).filter_map(|t| t.as_var()))
        .collect();
    (0..)
        .map(|n| format!("u{n}_"))
        .find(|prefix| !vars.iter().any(|v| v.starts_with(prefix.as_str())))
        .expect("finitely many variables leave some prefix free")
}

/// Unfold the atom at `q.body[idx]` using `def`. Returns `None` if the atom
/// does not unify with the definition head (different relation, arity, or
/// clashing constants).
pub fn unfold_once(q: &ConjunctiveQuery, idx: usize, def: &ViewDef) -> Option<ConjunctiveQuery> {
    let goal = &q.body[idx];
    // Freshen the definition so its variables cannot capture the query's.
    let fresh = def.as_query().rename_vars(&fresh_prefix(q));
    let s = unify_atoms(goal, &fresh.head, &Subst::new())?;
    let mut body: Vec<Atom> = Vec::with_capacity(q.body.len() - 1 + fresh.body.len());
    for (i, a) in q.body.iter().enumerate() {
        if i != idx {
            body.push(s.apply_atom(a));
        }
    }
    for a in &fresh.body {
        body.push(s.apply_atom(a));
    }
    Some(ConjunctiveQuery {
        head: s.apply_atom(&q.head),
        body,
        comparisons: q.comparisons.iter().map(|c| s.apply_cmp(c)).collect(),
    })
}

/// Exhaustively unfold every atom of `q` that matches some definition,
/// leaving unmatched atoms in place. Definitions whose heads mention other
/// defined relations are unfolded recursively up to `max_depth`.
///
/// Returns all complete unfoldings (one per combination of applicable
/// definitions — a relation may have several defining rules, i.e. a union).
pub fn unfold_with(
    q: &ConjunctiveQuery,
    defs: &[ViewDef],
    max_depth: usize,
) -> Vec<ConjunctiveQuery> {
    let mut results = Vec::new();
    expand(q.clone(), defs, max_depth, &mut results);
    results
}

fn expand(q: ConjunctiveQuery, defs: &[ViewDef], depth: usize, out: &mut Vec<ConjunctiveQuery>) {
    // Find the first body atom with at least one applicable definition.
    let target = q.body.iter().enumerate().find_map(|(i, a)| {
        let applicable: Vec<&ViewDef> = defs
            .iter()
            .filter(|d| d.head.relation == a.relation && d.head.terms.len() == a.terms.len())
            .collect();
        if applicable.is_empty() {
            None
        } else {
            Some((i, applicable))
        }
    });
    match target {
        None => out.push(q),
        Some(_) if depth == 0 => out.push(q), // depth exhausted: leave as-is
        Some((i, applicable)) => {
            let mut any = false;
            for d in applicable {
                if let Some(next) = unfold_once(&q, i, d) {
                    any = true;
                    expand(next, defs, depth - 1, out);
                }
            }
            if !any {
                // Head matched by name but unification failed (constant
                // clash): this disjunct is empty; drop it.
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::parse::parse_query;

    fn def(src: &str) -> ViewDef {
        ViewDef::from_query(&parse_query(src).unwrap())
    }

    #[test]
    fn basic_unfold() {
        let q = parse_query("q(X) :- v(X, 'cs')").unwrap();
        let d = def("v(A, B) :- course(A, T, B)");
        let u = unfold_once(&q, 0, &d).unwrap();
        assert_eq!(u.body.len(), 1);
        assert_eq!(u.body[0].relation, "course");
        // The constant propagated into the definition body.
        assert!(u.body[0].terms.iter().any(|t| t.is_const()));
    }

    #[test]
    fn unfold_preserves_other_atoms_and_comparisons() {
        let q = parse_query("q(X, N) :- v(X), size(X, N), N > 5").unwrap();
        let d = def("v(A) :- course(A, T)");
        let u = unfold_once(&q, 0, &d).unwrap();
        assert_eq!(u.body.len(), 2);
        assert_eq!(u.comparisons.len(), 1);
    }

    #[test]
    fn existential_vars_are_freshened() {
        let q = parse_query("q(X, T) :- v(X), r(X, T)").unwrap();
        // The def uses T existentially; it must not capture the query's T.
        let d = def("v(A) :- course(A, T)");
        let u = unfold_once(&q, 0, &d).unwrap();
        let course_atom = u.body.iter().find(|a| a.relation == "course").unwrap();
        let t_in_course = course_atom.terms[1].as_var().unwrap();
        assert_ne!(t_in_course, "T", "definition's T captured the query's T");
    }

    #[test]
    fn fresh_names_come_from_the_query_not_from_the_call_count() {
        use crate::ast::Term;
        let d = def("v(A) :- course(A, T)");
        // `q(X, u0_T) :- v(X), r(X, u0_T), s(u1_)`: lowercase names do not
        // parse as variables, so the query is built by hand.
        let (x, t, u1) = (Term::var("X"), Term::var("u0_T"), Term::var("u1_"));
        let q = ConjunctiveQuery::new(
            Atom::new("q", vec![x.clone(), t.clone()]),
            vec![Atom::new("v", vec![x.clone()]), Atom::new("r", vec![x, t]), Atom::new("s", vec![u1])],
        );
        let once = unfold_once(&q, 0, &d).unwrap();
        assert_eq!(once, unfold_once(&q, 0, &d).unwrap(), "the same call, the same names");
        // `u0_` is taken and `u1_` is spelled out (a variable *named* `u1_`
        // starts with it), so the definition's `T` becomes `u2_T`.
        let course = once.body.iter().find(|a| a.relation == "course").unwrap();
        assert_eq!(course.terms[1].as_var(), Some("u2_T"));
    }

    #[test]
    fn non_matching_relation_returns_none() {
        let q = parse_query("q(X) :- w(X)").unwrap();
        assert!(unfold_once(&q, 0, &def("v(A) :- r(A)")).is_none());
    }

    #[test]
    fn constant_clash_returns_none() {
        let q = parse_query("q(X) :- v(X, 'cs')").unwrap();
        let d = def("v(A, 'hist') :- r(A)");
        assert!(unfold_once(&q, 0, &d).is_none());
    }

    #[test]
    fn unfold_with_handles_unions() {
        // v defined by two rules => two unfoldings.
        let q = parse_query("q(X) :- v(X)").unwrap();
        let defs = vec![def("v(A) :- r(A)"), def("v(A) :- s(A)")];
        let us = unfold_with(&q, &defs, 4);
        assert_eq!(us.len(), 2);
    }

    #[test]
    fn unfold_with_is_recursive_to_depth() {
        let q = parse_query("q(X) :- a(X)").unwrap();
        let defs = vec![def("a(X) :- b(X)"), def("b(X) :- c(X)")];
        let us = unfold_with(&q, &defs, 4);
        assert_eq!(us.len(), 1);
        assert_eq!(us[0].body[0].relation, "c");
        // Depth 1 stops after one level.
        let shallow = unfold_with(&q, &defs, 1);
        assert_eq!(shallow[0].body[0].relation, "b");
    }

    #[test]
    fn repeated_head_vars_in_definition() {
        let q = parse_query("q(X, Y) :- v(X, Y)").unwrap();
        let d = def("v(A, A) :- r(A)");
        let u = unfold_once(&q, 0, &d).unwrap();
        // X and Y must be identified.
        let hv = u.head_vars();
        assert_eq!(hv[0], hv[1]);
    }
}
