//! Differential testing for the whole query stack.
//!
//! The planned evaluator ([`eval_cq_bag`] and friends) reorders joins,
//! builds hash indexes, and pushes filters; [`eval_naive_bag`] is a
//! nested-loop evaluator in textual body order with none of that. On any
//! input they must agree exactly — same bags, same sets, same errors.
//! These tests generate random catalogs and random (sometimes broken)
//! queries and hold every planned path to `planned ≡ naive`.
//!
//! The second half checks the *rewriting* layers against the containment
//! oracle: every MiniCon rewriting, once expanded through its view
//! definitions, must be contained in the query it rewrites; and every
//! disjunct the PDMS reformulator produces must be contained in the
//! original query after translating relation names back into the querying
//! peer's vocabulary.
//!
//! Seeding: `REVERE_DIFF_SEED` (default 1) offsets every generator, so
//! `scripts/verify.sh` can sweep several seeds. Failures print the
//! offending query text and its canonical key.

use revere::prelude::*;
use revere::storage::Attribute;
use revere_util::prop::Gen;

/// Base seed for this run, from `REVERE_DIFF_SEED` (default 1).
fn diff_seed() -> u64 {
    std::env::var("REVERE_DIFF_SEED")
        .ok()
        .and_then(|s| s.trim().parse().ok())
        .unwrap_or(1)
}

/// Independent generator for one case: mixes the run seed with the case
/// index so cases stay decorrelated within and across seeds.
fn case_gen(case: u64) -> Gen {
    Gen::from_seed(diff_seed().wrapping_mul(0x9E37_79B9_7F4A_7C15).wrapping_add(case))
}

const INT_DOMAIN: [i64; 4] = [0, 1, 2, 3];
const STR_DOMAIN: [&str; 3] = ["a", "b", "c"];
const VARS: [&str; 5] = ["X0", "X1", "X2", "X3", "X4"];

/// A random catalog: 2–4 relations `r0..`, arity 1–3, each column int or
/// text, 0–10 rows drawn from tiny domains (small domains force joins and
/// duplicates — the cases where bag semantics and join order can bite).
fn random_catalog(g: &mut Gen) -> Catalog {
    let mut catalog = Catalog::new();
    let n_rels = *g.pick(&[2usize, 3, 4]);
    for ri in 0..n_rels {
        let int_cols: Vec<bool> = g.vec(1..4, |g| *g.pick(&[true, false]));
        let attrs: Vec<Attribute> = int_cols
            .iter()
            .enumerate()
            .map(|(ci, is_int)| {
                if *is_int {
                    Attribute::int(format!("c{ci}"))
                } else {
                    Attribute::text(format!("c{ci}"))
                }
            })
            .collect();
        let mut rel = Relation::new(RelSchema::new(format!("r{ri}"), attrs));
        let rows = g.vec(0..11, |g| {
            int_cols
                .iter()
                .map(|is_int| {
                    if *is_int {
                        Value::Int(*g.pick(&INT_DOMAIN))
                    } else {
                        Value::str(*g.pick(&STR_DOMAIN))
                    }
                })
                .collect::<Vec<Value>>()
        });
        for row in rows {
            rel.insert(row);
        }
        catalog.register(rel);
    }
    catalog
}

/// A random constant, rendered for the query parser.
fn random_const(g: &mut Gen) -> String {
    if *g.pick(&[true, false]) {
        g.pick(&INT_DOMAIN).to_string()
    } else {
        format!("'{}'", g.pick(&STR_DOMAIN))
    }
}

/// A random safe conjunctive query over `catalog`, as text. 1–3 atoms,
/// variables shared across atoms (small pool ⇒ frequent joins and
/// repeated variables *within* one atom), constants in atom positions,
/// 0–2 comparisons over body variables. With `break_it`, the query instead
/// references a missing relation or uses a real one at the wrong arity —
/// the planned and naive evaluators must produce the *same* error.
fn random_query(g: &mut Gen, catalog: &Catalog, head_arity: Option<usize>, break_it: bool) -> String {
    let rels: Vec<(String, usize)> = catalog
        .names()
        .map(|n| (n.to_string(), catalog.get(n).unwrap().schema.arity()))
        .collect();
    let n_atoms = *g.pick(&[1usize, 2, 2, 3]);
    let broken_atom = if break_it { *g.pick(&[0, n_atoms - 1]) } else { usize::MAX };
    let mut body = Vec::new();
    let mut used: Vec<&str> = Vec::new();
    for ai in 0..n_atoms {
        let (name, mut arity) = g.pick(&rels).clone();
        let name = if ai == broken_atom && *g.pick(&[true, false]) {
            "ghost".to_string() // unknown relation
        } else {
            if ai == broken_atom {
                arity += 1; // known relation, wrong arity
            }
            name
        };
        let terms: Vec<String> = (0..arity)
            .map(|ti| {
                // The first position is always a variable, so the query is
                // safe even when every other position draws a constant.
                if (ai == 0 && ti == 0) || *g.pick(&[true, true, true, false]) {
                    let v = *g.pick(&VARS);
                    if !used.contains(&v) {
                        used.push(v);
                    }
                    v.to_string()
                } else {
                    random_const(g)
                }
            })
            .collect();
        body.push(format!("{name}({})", terms.join(", ")));
    }
    for _ in 0..*g.pick(&[0usize, 0, 1, 2]) {
        let v = *g.pick(&used);
        let op = *g.pick(&["=", "!=", "<", "<=", ">", ">="]);
        body.push(format!("{v} {op} {}", random_const(g)));
    }
    let h = head_arity.unwrap_or(*g.pick(&[1usize, 1, 2, 3]));
    let head: Vec<String> = (0..h).map(|_| g.pick(&used).to_string()).collect();
    format!("q({}) :- {}", head.join(", "), body.join(", "))
}

/// Rows of a relation in a canonical order, for byte-level comparison.
fn sorted_rows(r: Relation) -> Vec<Vec<Value>> {
    r.sorted().into_rows()
}

/// Assert planned ≡ naive for one query under both bag and set semantics,
/// including agreement on errors.
fn assert_agrees(case: u64, text: &str, q: &ConjunctiveQuery, catalog: &Catalog) {
    let ctx = || format!("case {case}, query `{text}`, canonical `{}`", q.canonical_key());
    match (eval_cq_bag(q, catalog), eval_naive_bag(q, catalog)) {
        (Ok(p), Ok(n)) => {
            assert_eq!(sorted_rows(p), sorted_rows(n), "bag semantics diverged: {}", ctx())
        }
        (Err(p), Err(n)) => assert_eq!(p, n, "errors diverged: {}", ctx()),
        (p, n) => panic!("planned {p:?} vs naive {n:?}: {}", ctx()),
    }
    match (eval_cq(q, catalog), eval_naive(q, catalog)) {
        (Ok(p), Ok(n)) => {
            assert_eq!(sorted_rows(p), sorted_rows(n), "set semantics diverged: {}", ctx())
        }
        (Err(p), Err(n)) => assert_eq!(p, n, "errors diverged (set): {}", ctx()),
        (p, n) => panic!("planned {p:?} vs naive {n:?} (set): {}", ctx()),
    }
}

/// Every permutation of `0..n`.
fn permutations(n: usize) -> Vec<Vec<usize>> {
    if n == 0 {
        return vec![Vec::new()];
    }
    let mut out = Vec::new();
    for p in permutations(n - 1) {
        for i in 0..=p.len() {
            let mut q = p.clone();
            q.insert(i, n - 1);
            out.push(q);
        }
    }
    out
}

/// Evaluate `q` under every join order, not just the planner's — the
/// orders the cost model never picks too, a cartesian step first among
/// them — and hold each to the oracle: the bag equals [`eval_naive_bag`]
/// and the step profiles equal [`eval_naive_profiles`] for that order.
/// Returns the number of orders checked.
fn assert_every_order_agrees(
    case: u64,
    text: &str,
    q: &ConjunctiveQuery,
    catalog: &Catalog,
) -> usize {
    let planned = plan_cq(q, catalog);
    let perms = permutations(planned.order.len());
    for perm in &perms {
        let mut plan = planned.clone();
        plan.order = perm.iter().map(|&i| planned.order[i]).collect();
        plan.steps = perm.iter().map(|&i| planned.steps[i].clone()).collect();
        let got = eval_planned(q, &plan, catalog, &Obs::disabled(), &SpanHandle::none())
            .map(|(bag, profiles)| (sorted_rows(bag), profiles));
        let want = eval_naive_bag(q, catalog)
            .and_then(|bag| Ok((sorted_rows(bag), eval_naive_profiles(q, &plan, catalog)?)));
        assert_eq!(got, want, "case {case}: `{text}` diverged under order {:?}", plan.order);
    }
    perms.len()
}

#[test]
fn planned_evaluator_agrees_with_naive_oracle() {
    let mut orders = 0;
    for case in 0..64 {
        let mut g = case_gen(case);
        let catalog = random_catalog(&mut g);
        let text = random_query(&mut g, &catalog, None, false);
        let q = parse_query(&text).unwrap_or_else(|e| panic!("case {case}: `{text}`: {e}"));
        assert!(q.is_safe(), "case {case}: generated unsafe query `{text}`");
        assert_agrees(case, &text, &q, &catalog);
        orders += assert_every_order_agrees(case, &text, &q, &catalog);
    }
    // More orders than queries: multi-atom bodies were actually permuted.
    assert!(orders > 64, "only {orders} orders checked");
}

/// Learned join statistics steer the *planner*, never the *answers*: a
/// catalog poisoned with arbitrary (including wildly wrong) learned
/// overlaps must evaluate every query exactly like the naive oracle, and
/// so must every other join order of the same query.
#[test]
fn learned_statistics_never_change_answers() {
    let mut orders = 0;
    for case in 0..32 {
        let mut g = case_gen(40_000 + case);
        let mut catalog = random_catalog(&mut g);
        let names: Vec<String> = catalog.names().map(str::to_string).collect();
        for _ in 0..*g.pick(&[1usize, 2, 4]) {
            let ra = g.pick(&names).clone();
            let rb = g.pick(&names).clone();
            let (ca, cb) = (*g.pick(&[0usize, 1, 2]), *g.pick(&[0usize, 1, 2]));
            let sel = *g.pick(&[1e-6, 0.01, 0.5, 1.0]);
            catalog.note_join_overlap(&ra, ca, &rb, cb, sel);
        }
        let text = random_query(&mut g, &catalog, None, false);
        let q = parse_query(&text).unwrap_or_else(|e| panic!("case {case}: `{text}`: {e}"));
        assert_agrees(case, &text, &q, &catalog);
        orders += assert_every_order_agrees(case, &text, &q, &catalog);
    }
    assert!(orders > 32, "only {orders} orders checked");
}

#[test]
fn planned_and_naive_agree_on_broken_queries() {
    for case in 0..32 {
        let mut g = case_gen(10_000 + case);
        let catalog = random_catalog(&mut g);
        let text = random_query(&mut g, &catalog, None, true);
        let q = parse_query(&text).unwrap_or_else(|e| panic!("case {case}: `{text}`: {e}"));
        let planned = eval_cq_bag(&q, &catalog);
        let naive = eval_naive_bag(&q, &catalog);
        assert!(planned.is_err(), "case {case}: `{text}` should not evaluate");
        assert_eq!(planned, naive, "case {case}: `{text}` errors diverged");
    }
}

#[test]
fn planned_union_agrees_with_naive_union() {
    for case in 0..24 {
        let mut g = case_gen(20_000 + case);
        let catalog = random_catalog(&mut g);
        let arity = *g.pick(&[1usize, 2]);
        let k = *g.pick(&[1usize, 2, 3]);
        let mut texts = Vec::new();
        let mut union: Option<UnionQuery> = None;
        for _ in 0..k {
            // One disjunct in three may be broken: the union evaluator
            // skips unavailable disjuncts, and both paths must skip the
            // same ones.
            let broken = *g.pick(&[false, false, true]);
            let text = random_query(&mut g, &catalog, Some(arity), broken);
            let d = parse_query(&text).unwrap_or_else(|e| panic!("case {case}: `{text}`: {e}"));
            texts.push(text);
            match union.as_mut() {
                None => union = Some(UnionQuery::single(d)),
                Some(u) => u.push_dedup(d),
            }
        }
        let union = union.unwrap();
        let planned = eval_union(&union, &catalog).map(sorted_rows);
        let naive = eval_naive_union(&union, &catalog).map(sorted_rows);
        assert_eq!(planned, naive, "case {case}: union of {texts:?} diverged");
    }
}

/// A random view set over the fixed two-relation schema `r0(a,b)`,
/// `r1(b,c)`, plus a random query — every MiniCon rewriting, expanded
/// back through the view definitions, must be contained in the query.
#[test]
fn minicon_rewritings_expand_to_contained_queries() {
    let shapes = [
        "q(X, Y) :- r0(X, Z), r1(Z, Y)",
        "q(X) :- r0(X, Z), r1(Z, Y)",
        "q(X, Z) :- r0(X, Z)",
        "q(X) :- r0(X, X)",
        "q(X, Y) :- r0(X, Z), r0(Z, Y)",
    ];
    let view_shapes = [
        "v0(A, B) :- r0(A, B)",
        "v1(A, B) :- r1(A, B)",
        "v2(A, C) :- r0(A, B), r1(B, C)",
        "v3(A) :- r0(A, B)",
        "v4(A, B, C) :- r0(A, B), r1(B, C)",
    ];
    for case in 0..32 {
        let mut g = case_gen(30_000 + case);
        let q = parse_query(*g.pick(&shapes)).unwrap();
        let views: Vec<ViewDef> = g
            .vec(1..4, |g| *g.pick(&view_shapes))
            .into_iter()
            .map(|s| ViewDef::from_query(&parse_query(s).unwrap()))
            .collect();
        for r in rewrite_using_views(&q, &views) {
            for expanded in unfold_with(&r, &views, 8) {
                assert!(
                    contained_in(&expanded, &q),
                    "case {case}: unsound rewriting `{r}` of `{q}` — expansion `{expanded}` \
                     (canonical `{}`) is not contained in the query",
                    expanded.canonical_key()
                );
            }
        }
    }
}

/// Every disjunct the PDMS reformulator emits, translated back into the
/// querying peer's vocabulary, must be contained in the original query.
/// The network's mappings are pure renamings (peer i's `course` is peer
/// j's `course`), so the translation is just re-qualifying each atom's
/// relation name — any variable-wiring mistake in reformulation would
/// break containment.
#[test]
fn reformulated_disjuncts_are_contained_in_the_original_query() {
    let mut net = PdmsNetwork::new();
    for name in ["A", "B", "C"] {
        let mut p = Peer::new(name);
        let mut r = Relation::new(RelSchema::new(
            "course",
            vec![Attribute::text("title"), Attribute::int("enrollment")],
        ));
        r.insert(vec![Value::str(format!("intro at {name}")), Value::Int(30)]);
        p.add_relation(r);
        net.add_peer(p);
    }
    for (i, (a, b)) in [("A", "B"), ("B", "C")].iter().enumerate() {
        net.add_mapping(
            GlavMapping::parse(
                format!("m{i}"),
                *a,
                *b,
                &format!("m(T, E) :- {a}.course(T, E) ==> m(T, E) :- {b}.course(T, E)"),
            )
            .unwrap(),
        );
    }
    for text in [
        "q(T, E) :- A.course(T, E)",
        "q(T) :- A.course(T, E), E > 20",
        "q(T, U) :- A.course(T, E), A.course(U, E)",
    ] {
        let q = parse_query(text).unwrap();
        let out = net.query_str("A", text).expect("query runs");
        assert!(out.reformulation.union.len() > 1, "expected remote disjuncts for `{text}`");
        for d in &out.reformulation.union.disjuncts {
            let mut renamed = d.clone();
            for atom in &mut renamed.body {
                if let Some((_, rel)) = atom.relation.split_once('.') {
                    atom.relation = format!("A.{rel}");
                }
            }
            assert!(
                contained_in(&renamed, &q),
                "disjunct `{d}` of `{text}` escapes the query: renamed `{renamed}` \
                 (canonical `{}`) is not contained in it",
                renamed.canonical_key()
            );
        }
    }
}
