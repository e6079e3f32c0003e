//! Conjunctive queries and unions of conjunctive queries.

use revere_storage::Value;
use std::cmp::Ordering;
use std::collections::BTreeSet;
use std::fmt;

/// A term: a variable or a constant.
#[derive(Debug, Clone, PartialEq, Eq, Hash, PartialOrd, Ord)]
pub enum Term {
    /// A variable, conventionally capitalized (`X`, `Title`).
    Var(String),
    /// A constant value.
    Const(Value),
}

impl Term {
    /// Convenience constructor for a variable.
    pub fn var(name: impl Into<String>) -> Term {
        Term::Var(name.into())
    }

    /// The variable name, if this is a variable.
    pub fn as_var(&self) -> Option<&str> {
        match self {
            Term::Var(v) => Some(v),
            Term::Const(_) => None,
        }
    }

    /// True if this term is a constant.
    pub fn is_const(&self) -> bool {
        matches!(self, Term::Const(_))
    }
}

impl fmt::Display for Term {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            Term::Var(v) => write!(f, "{v}"),
            Term::Const(Value::Str(s)) => write!(f, "'{s}'"),
            Term::Const(c) => write!(f, "{c}"),
        }
    }
}

/// A relational atom `relation(t1, ..., tn)`.
///
/// In the PDMS, relation names are qualified with their peer
/// (`Berkeley.course`); this crate treats names as opaque strings.
#[derive(Debug, Clone, PartialEq, Eq, Hash)]
pub struct Atom {
    /// Relation name.
    pub relation: String,
    /// Argument terms.
    pub terms: Vec<Term>,
}

impl Atom {
    /// Shorthand constructor.
    pub fn new(relation: impl Into<String>, terms: Vec<Term>) -> Self {
        Atom { relation: relation.into(), terms }
    }

    /// The variables occurring in this atom, in first-occurrence order.
    pub fn vars(&self) -> Vec<&str> {
        let mut seen = BTreeSet::new();
        let mut out = Vec::new();
        for t in &self.terms {
            if let Term::Var(v) = t {
                if seen.insert(v.as_str()) {
                    out.push(v.as_str());
                }
            }
        }
        out
    }
}

impl fmt::Display for Atom {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "{}(", self.relation)?;
        for (i, t) in self.terms.iter().enumerate() {
            if i > 0 {
                write!(f, ", ")?;
            }
            write!(f, "{t}")?;
        }
        write!(f, ")")
    }
}

/// Comparison operators for filter predicates.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum CmpOp {
    /// `=`
    Eq,
    /// `!=`
    Ne,
    /// `<`
    Lt,
    /// `<=`
    Le,
    /// `>`
    Gt,
    /// `>=`
    Ge,
}

impl CmpOp {
    /// Apply to two values.
    pub fn apply(self, a: &Value, b: &Value) -> bool {
        match self {
            CmpOp::Eq => a == b,
            CmpOp::Ne => a != b,
            CmpOp::Lt => a < b,
            CmpOp::Le => a <= b,
            CmpOp::Gt => a > b,
            CmpOp::Ge => a >= b,
        }
    }

    /// Whether `a op b` holds, given `a.cmp(b)`.
    pub(crate) fn holds(self, ord: Ordering) -> bool {
        match self {
            CmpOp::Eq => ord.is_eq(),
            CmpOp::Ne => ord.is_ne(),
            CmpOp::Lt => ord.is_lt(),
            CmpOp::Le => ord.is_le(),
            CmpOp::Gt => ord.is_gt(),
            CmpOp::Ge => ord.is_ge(),
        }
    }

    /// The operator with its operands swapped: `a op b` exactly when
    /// `b op.flip() a`.
    pub(crate) fn flip(self) -> CmpOp {
        match self {
            CmpOp::Lt => CmpOp::Gt,
            CmpOp::Le => CmpOp::Ge,
            CmpOp::Gt => CmpOp::Lt,
            CmpOp::Ge => CmpOp::Le,
            op => op,
        }
    }
}

impl fmt::Display for CmpOp {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        let s = match self {
            CmpOp::Eq => "=",
            CmpOp::Ne => "!=",
            CmpOp::Lt => "<",
            CmpOp::Le => "<=",
            CmpOp::Gt => ">",
            CmpOp::Ge => ">=",
        };
        write!(f, "{s}")
    }
}

/// A comparison `left op right` in a query body.
#[derive(Debug, Clone, PartialEq, Eq, Hash)]
pub struct Comparison {
    /// Left operand.
    pub left: Term,
    /// Operator.
    pub op: CmpOp,
    /// Right operand.
    pub right: Term,
}

impl fmt::Display for Comparison {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "{} {} {}", self.left, self.op, self.right)
    }
}

/// A conjunctive query `head :- body, comparisons`.
#[derive(Debug, Clone, PartialEq, Eq, Hash)]
pub struct ConjunctiveQuery {
    /// Head atom (the answer relation).
    pub head: Atom,
    /// Relational subgoals.
    pub body: Vec<Atom>,
    /// Filter comparisons.
    pub comparisons: Vec<Comparison>,
}

impl ConjunctiveQuery {
    /// Build a comparison-free query.
    pub fn new(head: Atom, body: Vec<Atom>) -> Self {
        ConjunctiveQuery { head, body, comparisons: Vec::new() }
    }

    /// Head (distinguished) variables, in head order with duplicates kept.
    pub fn head_vars(&self) -> Vec<&str> {
        self.head.terms.iter().filter_map(Term::as_var).collect()
    }

    /// All variables occurring in the body, in first-occurrence order.
    pub fn body_vars(&self) -> Vec<&str> {
        let mut seen = BTreeSet::new();
        let mut out = Vec::new();
        for a in &self.body {
            for v in a.vars() {
                if seen.insert(v) {
                    out.push(v);
                }
            }
        }
        out
    }

    /// Safety: every head variable and every comparison variable occurs in
    /// some relational subgoal.
    pub fn is_safe(&self) -> bool {
        let body: BTreeSet<&str> = self.body_vars().into_iter().collect();
        let head_ok = self.head_vars().iter().all(|v| body.contains(v));
        let cmp_ok = self.comparisons.iter().all(|c| {
            [&c.left, &c.right]
                .iter()
                .filter_map(|t| t.as_var())
                .all(|v| body.contains(v))
        });
        head_ok && cmp_ok
    }

    /// Consistently rename every variable with the given prefix; used to
    /// freshen view/mapping definitions before unification.
    pub fn rename_vars(&self, prefix: &str) -> ConjunctiveQuery {
        let ren = |t: &Term| match t {
            Term::Var(v) => Term::Var(format!("{prefix}{v}")),
            c @ Term::Const(_) => c.clone(),
        };
        ConjunctiveQuery {
            head: Atom::new(
                self.head.relation.clone(),
                self.head.terms.iter().map(ren).collect(),
            ),
            body: self
                .body
                .iter()
                .map(|a| Atom::new(a.relation.clone(), a.terms.iter().map(ren).collect()))
                .collect(),
            comparisons: self
                .comparisons
                .iter()
                .map(|c| Comparison { left: ren(&c.left), op: c.op, right: ren(&c.right) })
                .collect(),
        }
    }

    /// The canonical ordering of the body: indices into `body` sorted by
    /// relation, then by a shape that names no variable — constants
    /// verbatim, a head variable by its head position, any other variable
    /// by where it first occurs in the atom — and, between atoms of one
    /// shape, by body position. Variable names must not take part:
    /// isomorphic disjuncts may name their variables differently
    /// (unfolding freshens with `u{n}_` prefixes), and `u9_T` sorts after
    /// `u10_T`. Two queries with equal
    /// [`ConjunctiveQuery::canonical_key`] have structurally identical
    /// bodies *position by position* under this ordering, which is what
    /// lets a cached [plan](crate::plan) built for one disjunct execute an
    /// isomorphic one.
    pub fn canonical_order(&self) -> Vec<usize> {
        #[derive(PartialEq, Eq, PartialOrd, Ord)]
        enum Shape<'a> {
            Const(&'a Value),
            Head(usize),
            Local(usize),
        }
        fn shape<'a>(head: &[Term], atom: &'a Atom) -> Vec<Shape<'a>> {
            let first = |terms: &[Term], t: &Term| terms.iter().position(|u| u == t);
            atom.terms
                .iter()
                .map(|t| match t {
                    Term::Const(c) => Shape::Const(c),
                    Term::Var(_) => match first(head, t) {
                        Some(p) => Shape::Head(p),
                        None => Shape::Local(first(&atom.terms, t).expect("t is one of them")),
                    },
                })
                .collect()
        }
        let mut idx: Vec<usize> = (0..self.body.len()).collect();
        idx.sort_by_cached_key(|&i| {
            let atom = &self.body[i];
            (atom.relation.as_str(), shape(&self.head.terms, atom))
        });
        idx
    }

    /// A canonical textual form invariant under variable renaming and body
    /// reordering — used by the reformulator's visited-set pruning and as
    /// the cache key of the PDMS reformulation/plan caches.
    pub fn canonical_key(&self) -> String {
        use fmt::Write as _;
        /// Write `t` as the key spells it: a constant as `#{c}`, a
        /// variable as `v{k}` for the k-th name in `names` — minted on
        /// first sight when `mint`, else left as it is (safety binds every
        /// comparison variable in the body, so only an unsafe query's
        /// comparison gets there).
        fn term<'a>(t: &'a Term, names: &mut Vec<&'a str>, mint: bool, key: &mut String) {
            // Writing to a `String` cannot fail.
            let k = match t {
                Term::Const(c) => {
                    let _ = write!(key, "#{c}");
                    return;
                }
                Term::Var(v) => match names.iter().position(|n| *n == v) {
                    Some(k) => k + 1,
                    None if mint => {
                        names.push(v);
                        names.len()
                    }
                    None => {
                        key.push_str(v);
                        return;
                    }
                },
            };
            let _ = write!(key, "v{k}");
        }
        fn atom<'a>(a: &'a Atom, names: &mut Vec<&'a str>, key: &mut String) {
            key.push_str(&a.relation);
            key.push('(');
            for t in &a.terms {
                term(t, names, true, key);
                key.push(',');
            }
            key.push(')');
        }
        // Sort body atoms canonically, then rename variables in order of
        // first appearance across head-then-sorted-body. This runs once
        // per disjunct per query, so everything is written straight into
        // the key: no per-term strings.
        let mut names: Vec<&str> = Vec::new();
        let mut key = String::new();
        atom(&self.head, &mut names, &mut key);
        key.push_str(":-");
        for i in self.canonical_order() {
            atom(&self.body[i], &mut names, &mut key);
        }
        // Comparisons go through the same renaming (a raw `to_string`
        // here would leak the original variable names, breaking the
        // renaming invariance the reformulation/plan caches key on) and
        // are sorted as text.
        let mut cmps: Vec<String> = self
            .comparisons
            .iter()
            .map(|c| {
                let mut text = String::new();
                term(&c.left, &mut names, false, &mut text);
                let _ = write!(text, " {} ", c.op);
                term(&c.right, &mut names, false, &mut text);
                text
            })
            .collect();
        cmps.sort();
        for c in cmps {
            key.push('|');
            key.push_str(&c);
        }
        key
    }
}

impl fmt::Display for ConjunctiveQuery {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "{} :- ", self.head)?;
        let mut first = true;
        for a in &self.body {
            if !first {
                write!(f, ", ")?;
            }
            write!(f, "{a}")?;
            first = false;
        }
        for c in &self.comparisons {
            if !first {
                write!(f, ", ")?;
            }
            write!(f, "{c}")?;
            first = false;
        }
        Ok(())
    }
}

/// A union of conjunctive queries with compatible heads — the shape a PDMS
/// reformulation takes.
#[derive(Debug, Clone, Default, PartialEq, Eq)]
pub struct UnionQuery {
    /// The disjuncts.
    pub disjuncts: Vec<ConjunctiveQuery>,
}

impl UnionQuery {
    /// Wrap a single query.
    pub fn single(q: ConjunctiveQuery) -> Self {
        UnionQuery { disjuncts: vec![q] }
    }

    /// Add a disjunct unless an equivalent one (up to renaming/reordering)
    /// is already present.
    pub fn push_dedup(&mut self, q: ConjunctiveQuery) {
        let key = q.canonical_key();
        if !self.disjuncts.iter().any(|d| d.canonical_key() == key) {
            self.disjuncts.push(q);
        }
    }

    /// Number of disjuncts.
    pub fn len(&self) -> usize {
        self.disjuncts.len()
    }

    /// True when there are no disjuncts (the empty query).
    pub fn is_empty(&self) -> bool {
        self.disjuncts.is_empty()
    }
}

impl fmt::Display for UnionQuery {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        for (i, d) in self.disjuncts.iter().enumerate() {
            if i > 0 {
                writeln!(f)?;
            }
            write!(f, "{d}")?;
        }
        Ok(())
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::parse::parse_query;

    #[test]
    fn safety() {
        let q = parse_query("q(X) :- r(X, Y)").unwrap();
        assert!(q.is_safe());
        let bad = ConjunctiveQuery::new(
            Atom::new("q", vec![Term::var("Z")]),
            vec![Atom::new("r", vec![Term::var("X")])],
        );
        assert!(!bad.is_safe());
    }

    #[test]
    fn canonical_key_invariant_under_renaming_and_reordering() {
        let a = parse_query("q(X) :- r(X, Y), s(Y)").unwrap();
        let b = parse_query("q(A) :- s(B), r(A, B)").unwrap();
        assert_eq!(a.canonical_key(), b.canonical_key());
        let c = parse_query("q(A) :- s(A), r(A, B)").unwrap();
        assert_ne!(a.canonical_key(), c.canonical_key());
    }

    #[test]
    fn canonical_key_ignores_how_minted_names_sort() {
        // `u10_T` sorts before `u9_T`, `u8_T` after `u7_T`: ordering
        // same-relation atoms by their printed form made the key depend
        // on which fresh prefix unfolding picked.
        let minted = |e: &str, f: &str| {
            parse_query(&format!("q(A, B) :- r({e}, A), r({f}, B)")).unwrap().canonical_key()
        };
        assert_eq!(minted("U7_T", "U8_T"), minted("U9_T", "U10_T"));
        let q = parse_query("q(A, B) :- r(A, E), r(B, E)").unwrap();
        assert_eq!(q.rename_vars("u9_").canonical_key(), q.rename_vars("u10_").canonical_key());
        assert_eq!(q.canonical_key(), "q(v1,v2,):-r(v1,v3,)r(v2,v3,)");
        // Shape still separates atoms that differ in more than names.
        let swapped = parse_query("q(A, B) :- r(B, E), r(A, E)").unwrap();
        assert_eq!(swapped.canonical_key(), q.canonical_key());
        let local = parse_query("q(A) :- r(E, E), r(A, F)").unwrap();
        let local_swapped = parse_query("q(A) :- r(A, F), r(E, E)").unwrap();
        assert_eq!(local.canonical_key(), local_swapped.canonical_key());
    }

    #[test]
    fn canonical_key_renames_comparison_variables_too() {
        let a = parse_query("q(X) :- r(X, Y), Y > 20").unwrap();
        let b = parse_query("q(A) :- r(A, B), B > 20").unwrap();
        assert_eq!(a.canonical_key(), b.canonical_key());
        let c = parse_query("q(A) :- r(A, B), A > 20").unwrap();
        assert_ne!(a.canonical_key(), c.canonical_key());
        // And the key carries no raw variable names at all.
        assert!(!a.canonical_key().contains('Y'), "{}", a.canonical_key());
    }

    #[test]
    fn union_dedups_renamed_duplicates() {
        let mut u = UnionQuery::default();
        u.push_dedup(parse_query("q(X) :- r(X, Y)").unwrap());
        u.push_dedup(parse_query("q(A) :- r(A, B)").unwrap());
        assert_eq!(u.len(), 1);
        u.push_dedup(parse_query("q(A) :- r(A, A)").unwrap());
        assert_eq!(u.len(), 2);
    }

    #[test]
    fn rename_vars_leaves_constants() {
        let q = parse_query("q(X) :- r(X, 'fixed')").unwrap();
        let r = q.rename_vars("p_");
        assert_eq!(r.to_string(), "q(p_X) :- r(p_X, 'fixed')");
    }

    #[test]
    fn display_roundtrips_through_parser() {
        let src = "q(X, Y) :- course(X, T), teaches(Y, X), T = 'db', X != Y";
        let q = parse_query(src).unwrap();
        let again = parse_query(&q.to_string()).unwrap();
        assert_eq!(q, again);
    }
}
