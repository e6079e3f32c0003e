//! Substitutions, atom unification and homomorphism search.
//!
//! Homomorphisms are the workhorse of the classical theory this crate
//! implements: containment mappings (containment module), unfolding
//! (unification of a goal with a view head) and MiniCon coverage all reduce
//! to finding structure-preserving variable mappings.

use crate::ast::{Atom, Comparison, Term};
use std::collections::HashMap;

/// A substitution from variable names to terms.
#[derive(Debug, Clone, Default, PartialEq, Eq)]
pub struct Subst {
    map: HashMap<String, Term>,
}

impl Subst {
    /// The empty substitution.
    pub fn new() -> Self {
        Self::default()
    }

    /// Look up a variable.
    pub fn get(&self, var: &str) -> Option<&Term> {
        self.map.get(var)
    }

    /// Bind `var` to `term`, following existing bindings of `term` if it is
    /// itself a bound variable. Returns `false` on conflict.
    pub fn bind(&mut self, var: &str, term: Term) -> bool {
        let resolved = self.resolve(&term);
        match self.map.get(var) {
            None => {
                self.map.insert(var.to_string(), resolved);
                true
            }
            Some(existing) => self.resolve(&existing.clone()) == resolved,
        }
    }

    /// Resolve a term through the substitution, chasing chains of variable
    /// bindings (a binding made *after* a term was stored can redirect it).
    pub fn resolve(&self, t: &Term) -> Term {
        let mut cur = t.clone();
        let mut steps = 0usize;
        while let Term::Var(v) = &cur {
            match self.map.get(v) {
                Some(next) if next != &cur => {
                    cur = next.clone();
                    steps += 1;
                    if steps > self.map.len() {
                        break; // defensive: should be unreachable
                    }
                }
                _ => break,
            }
        }
        cur
    }

    /// Apply to an atom.
    pub fn apply_atom(&self, a: &Atom) -> Atom {
        Atom::new(a.relation.clone(), a.terms.iter().map(|t| self.resolve(t)).collect())
    }

    /// Apply to a comparison.
    pub fn apply_cmp(&self, c: &Comparison) -> Comparison {
        Comparison { left: self.resolve(&c.left), op: c.op, right: self.resolve(&c.right) }
    }

    /// Number of bound variables.
    pub fn len(&self) -> usize {
        self.map.len()
    }

    /// True when nothing is bound.
    pub fn is_empty(&self) -> bool {
        self.map.is_empty()
    }

    /// Iterate over bindings.
    pub fn iter(&self) -> impl Iterator<Item = (&str, &Term)> {
        self.map.iter().map(|(k, v)| (k.as_str(), v))
    }
}

/// Unify two atoms symmetrically (classic MGU restricted to flat terms).
/// Both sides' variables may be bound. Returns the extended substitution,
/// or `None` if the atoms cannot be unified.
pub fn unify_atoms(a: &Atom, b: &Atom, base: &Subst) -> Option<Subst> {
    if a.relation != b.relation || a.terms.len() != b.terms.len() {
        return None;
    }
    let mut s = base.clone();
    for (ta, tb) in a.terms.iter().zip(&b.terms) {
        let ra = s.resolve(ta);
        let rb = s.resolve(tb);
        match (ra, rb) {
            (Term::Const(x), Term::Const(y)) => {
                if x != y {
                    return None;
                }
            }
            (Term::Var(v), t) | (t, Term::Var(v)) => {
                if !s.bind(&v, t) {
                    return None;
                }
            }
        }
    }
    Some(s)
}

/// A *homomorphism* maps variables of the source atoms to terms such that
/// every source atom becomes (syntactically) one of the target atoms.
/// Unlike unification it is directional: target variables are treated as
/// constants.
///
/// Returns every homomorphism extending `base`.
pub fn all_homomorphisms(source: &[Atom], target: &[Atom], base: &Subst) -> Vec<Subst> {
    let mut results = Vec::new();
    search(source, target, base.clone(), &mut |h| {
        results.push(h.clone());
        false
    });
    results
}

/// Whether some homomorphism extending `base` satisfies `accept`: the
/// search stops at the first one that does, in the order
/// [`all_homomorphisms`] lists them.
pub fn any_homomorphism(
    source: &[Atom],
    target: &[Atom],
    base: &Subst,
    mut accept: impl FnMut(&Subst) -> bool,
) -> bool {
    search(source, target, base.clone(), &mut accept)
}

/// Depth-first over the source atoms; `found` sees each complete
/// homomorphism and returns `true` to stop. Returns whether it stopped.
fn search(
    source: &[Atom],
    target: &[Atom],
    current: Subst,
    found: &mut dyn FnMut(&Subst) -> bool,
) -> bool {
    let Some((first, rest)) = source.split_first() else {
        return found(&current);
    };
    for cand in target {
        if cand.relation != first.relation || cand.terms.len() != first.terms.len() {
            continue;
        }
        // Directional matching: source vars may bind; target terms are rigid.
        let mut s = current.clone();
        let mut ok = true;
        for (st, tt) in first.terms.iter().zip(&cand.terms) {
            match s.resolve(st) {
                Term::Const(c) => {
                    if Term::Const(c) != *tt {
                        ok = false;
                        break;
                    }
                }
                Term::Var(v) => {
                    if !s.bind(&v, tt.clone()) {
                        ok = false;
                        break;
                    }
                }
            }
        }
        if ok && search(rest, target, s, found) {
            return true;
        }
    }
    false
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::parse::parse_query;
    use revere_storage::Value;

    fn atoms(src: &str) -> Vec<Atom> {
        parse_query(&format!("q() :- {src}")).unwrap().body
    }

    #[test]
    fn unify_binds_both_sides() {
        let a = atoms("r(X, 'c')")[0].clone();
        let b = atoms("r('d', Y)")[0].clone();
        let s = unify_atoms(&a, &b, &Subst::new()).unwrap();
        assert_eq!(s.resolve(&Term::var("X")), Term::Const(Value::str("d")));
        assert_eq!(s.resolve(&Term::var("Y")), Term::Const(Value::str("c")));
    }

    #[test]
    fn unify_fails_on_constant_clash() {
        let a = atoms("r('x')")[0].clone();
        let b = atoms("r('y')")[0].clone();
        assert!(unify_atoms(&a, &b, &Subst::new()).is_none());
    }

    #[test]
    fn unify_fails_on_arity_or_name() {
        let a = atoms("r(X)")[0].clone();
        assert!(unify_atoms(&a, &atoms("s(X)")[0], &Subst::new()).is_none());
        assert!(unify_atoms(&a, &atoms("r(X, Y)")[0], &Subst::new()).is_none());
    }

    #[test]
    fn homomorphism_respects_repeated_vars() {
        // r(X, X) maps into r(a, a) but not r(a, b).
        let src = atoms("r(X, X)");
        assert!(!all_homomorphisms(&src, &atoms("r('a', 'a')"), &Subst::new()).is_empty());
        assert!(all_homomorphisms(&src, &atoms("r('a', 'b')"), &Subst::new()).is_empty());
    }

    #[test]
    fn homomorphism_is_directional() {
        // Target variables behave as frozen constants: r('a') has no image
        // in r(X) under our directional definition... but r(X) maps to r('a').
        assert!(!all_homomorphisms(&atoms("r(X)"), &atoms("r('a')"), &Subst::new()).is_empty());
        assert!(all_homomorphisms(&atoms("r('a')"), &atoms("r(X)"), &Subst::new()).is_empty());
    }

    #[test]
    fn all_homomorphisms_enumerates() {
        let hs = all_homomorphisms(&atoms("r(X)"), &atoms("r('a'), r('b')"), &Subst::new());
        assert_eq!(hs.len(), 2);
    }

    #[test]
    fn any_homomorphism_stops_at_the_first_accepted() {
        let (src, tgt) = (atoms("r(X)"), atoms("r('a'), r('b'), r('c')"));
        let mut seen = 0;
        let b = Term::Const(Value::str("b"));
        assert!(any_homomorphism(&src, &tgt, &Subst::new(), |h| {
            seen += 1;
            h.resolve(&Term::var("X")) == b
        }));
        assert_eq!(seen, 2, "r('c') is never tried");
        assert!(!any_homomorphism(&src, &atoms("s('a')"), &Subst::new(), |_| true));
    }

    #[test]
    fn multi_atom_homomorphism_joins() {
        let src = atoms("r(X, Y), s(Y, Z)");
        let tgt = atoms("r('1', '2'), s('2', '3'), s('9', '9')");
        let hs = all_homomorphisms(&src, &tgt, &Subst::new());
        assert_eq!(hs.len(), 1);
        assert_eq!(hs[0].resolve(&Term::var("Z")), Term::Const(Value::str("3")));
    }

    #[test]
    fn base_substitution_constrains_search() {
        let mut base = Subst::new();
        base.bind("X", Term::Const(Value::str("b")));
        let hs = all_homomorphisms(&atoms("r(X)"), &atoms("r('a'), r('b')"), &base);
        assert_eq!(hs.len(), 1);
    }
}
