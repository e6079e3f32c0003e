//! Differential gate for the vectorized columnar engine.
//!
//! The engine behind `eval_planned` is held to the nested-loop naive oracle —
//! the same bag of answers after canonical sort, the same errors — and
//! its step profiles, the feedback loop's input, to the profile oracle
//! derived from that evaluator (`eval_naive_profiles`). These tests
//! generate random catalogs and conjunctive queries biased toward the
//! shapes where a columnar engine can go wrong:
//!
//! * repeated variables *within* one atom (the `retain_eq` filter),
//! * constants in atom positions (`retain_eq_const` pushdown, including the
//!   `Int`/`Float` numeric-equality corner) and in comparisons (the typed
//!   `Int` pass and the `CmpOp::apply` fallback, across types),
//! * mixed-type columns that force the `Any` fallback paths,
//! * cartesian-adjacent bodies (atoms sharing no variables — the
//!   `BuildIndex::All` fan-out), and
//! * broken queries (missing relation / wrong arity), which must produce
//!   the *same* `EvalError` as the oracle.
//!
//! Seeding: `REVERE_VEC_SEED` (default 1) offsets every generator;
//! `scripts/verify.sh` sweeps several seeds.

use revere::prelude::*;
use revere::storage::Attribute;
use revere_util::prop::Gen;

/// Base seed for this run, from `REVERE_VEC_SEED` (default 1).
fn vec_seed() -> u64 {
    std::env::var("REVERE_VEC_SEED")
        .ok()
        .and_then(|s| s.trim().parse().ok())
        .unwrap_or(1)
}

/// Independent generator for one case: mixes the run seed with the case
/// index so cases stay decorrelated within and across seeds.
fn case_gen(case: u64) -> Gen {
    Gen::from_seed(vec_seed().wrapping_mul(0x9E37_79B9_7F4A_7C15).wrapping_add(case))
}

const INT_DOMAIN: [i64; 4] = [0, 1, 2, 3];
const STR_DOMAIN: [&str; 3] = ["a", "b", "c"];
const VARS: [&str; 5] = ["X0", "X1", "X2", "X3", "X4"];

/// What a generated column holds. `Mixed` defeats the typed columnar fast
/// paths: the column degrades to `ColumnVec::Any` and every comparison
/// goes through full `Value` semantics — including `Int(2) == Float(2.0)`
/// numeric equality, which a code- or bits-level equality would miss.
#[derive(Clone, Copy)]
enum ColKind {
    Int,
    Str,
    Mixed,
}

/// The mixed domain deliberately collides across types: `Float(2.0)`
/// equals `Int(2)`, `Float(3.0)` equals `Int(3)`, and `Null`/`Bool` sit
/// outside both the int and string fast paths.
fn mixed_value(g: &mut Gen) -> Value {
    match *g.pick(&[0u8, 1, 2, 3, 4, 5]) {
        0 => Value::Int(*g.pick(&INT_DOMAIN)),
        1 => Value::Float(2.0),
        2 => Value::Float(3.0),
        3 => Value::str(*g.pick(&STR_DOMAIN)),
        4 => Value::Null,
        _ => Value::Bool(true),
    }
}

/// A random catalog: 2–4 relations `r0..`, arity 1–3, each column int,
/// text, or mixed, 0–12 rows drawn from tiny domains (small domains force
/// joins and duplicates; mixed columns force the `Any` fallback).
fn random_catalog(g: &mut Gen) -> Catalog {
    let mut catalog = Catalog::new();
    let n_rels = *g.pick(&[2usize, 3, 4]);
    for ri in 0..n_rels {
        let kinds: Vec<ColKind> =
            g.vec(1..4, |g| *g.pick(&[ColKind::Int, ColKind::Int, ColKind::Str, ColKind::Mixed]));
        let attrs: Vec<Attribute> = kinds
            .iter()
            .enumerate()
            .map(|(ci, k)| match k {
                ColKind::Int => Attribute::int(format!("c{ci}")),
                _ => Attribute::text(format!("c{ci}")),
            })
            .collect();
        let mut rel = Relation::new(RelSchema::new(format!("r{ri}"), attrs));
        let rows = g.vec(0..13, |g| {
            kinds
                .iter()
                .map(|k| match k {
                    ColKind::Int => Value::Int(*g.pick(&INT_DOMAIN)),
                    ColKind::Str => Value::str(*g.pick(&STR_DOMAIN)),
                    ColKind::Mixed => mixed_value(g),
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

/// A random constant, rendered for the query parser: an integer or a
/// string, now and then a float (one equal to an integer, one between
/// two), so comparisons meet typed columns across types.
fn random_const(g: &mut Gen) -> String {
    match *g.pick(&[0u8, 0, 1, 1, 2]) {
        0 => g.pick(&INT_DOMAIN).to_string(),
        1 => format!("'{}'", g.pick(&STR_DOMAIN)),
        _ => g.pick(&["2.0", "2.5"]).to_string(),
    }
}

/// A random safe conjunctive query over `catalog`, as text: 1–3 atoms
/// with variables drawn from a small pool (frequent cross-atom joins,
/// repeated variables within one atom, and — when atoms share no
/// variables — cartesian steps), constants in atom positions, 0–2
/// comparisons. With `break_it`, the query references a missing relation
/// or a real one at the wrong arity instead.
fn random_query(g: &mut Gen, catalog: &Catalog, break_it: bool) -> String {
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
            "ghost".to_string()
        } else {
            if ai == broken_atom {
                arity += 1;
            }
            name
        };
        // Draw this atom's variables from either half of the pool: atoms
        // drawing from disjoint halves share nothing, which makes the
        // step a cartesian product — the shape the `BuildIndex::All`
        // fan-out path must get right.
        let pool: &[&str] = if *g.pick(&[true, false]) { &VARS[..3] } else { &VARS[2..] };
        let terms: Vec<String> = (0..arity)
            .map(|ti| {
                if (ai == 0 && ti == 0) || *g.pick(&[true, true, true, false]) {
                    let v = *g.pick(pool);
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
    let h = *g.pick(&[1usize, 1, 2, 3]);
    let head: Vec<String> = (0..h).map(|_| g.pick(&used).to_string()).collect();
    format!("q({}) :- {}", head.join(", "), body.join(", "))
}

type Evaluated = Result<(Relation, Vec<StepProfile>), String>;

fn run_vec(q: &ConjunctiveQuery, plan: &Plan, c: &Catalog) -> Evaluated {
    eval_planned(q, plan, c, &Obs::disabled(), &SpanHandle::none()).map_err(|e| e.to_string())
}

fn run_kernel(
    q: &ConjunctiveQuery,
    plan: &Plan,
    c: &Catalog,
) -> Result<(usize, Vec<StepProfile>), String> {
    eval_bindings(q, plan, c, &Obs::disabled(), &SpanHandle::none()).map_err(|e| e.to_string())
}

/// Rows in canonical order, for comparison against the (differently
/// ordered) naive oracle.
fn sorted_rows(r: &Relation) -> Vec<Vec<Value>> {
    r.sorted().into_rows()
}

/// The vectorized bag leaves the engine in head order — sorted under
/// `Value` order, so set semantics over it is one linear pass — and is
/// the naive oracle's bag as a multiset; step profiles ≡ the profile
/// oracle, the bindings-only kernel ≡ both. Mixed columns make some
/// heads `Any` columns, whose order falls back to `Value` order.
#[test]
fn vectorized_agrees_with_naive_and_profile_oracles() {
    for case in 0..256u64 {
        let mut g = case_gen(case);
        let catalog = random_catalog(&mut g);
        let text = random_query(&mut g, &catalog, false);
        let q = parse_query(&text).unwrap_or_else(|e| panic!("case {case}: `{text}`: {e}"));
        assert!(q.is_safe(), "case {case}: generated unsafe query `{text}`");
        let plan = plan_cq(&q, &catalog);
        let ctx = format!("case {case}: `{text}` (canonical `{}`)", q.canonical_key());
        let vec = run_vec(&q, &plan, &catalog);
        let naive = eval_naive_bag(&q, &catalog).map_err(|e| e.to_string());
        match (vec, naive) {
            (Ok((v, trace)), Ok(n)) => {
                assert!(v.rows().is_sorted(), "{ctx}: not in head order");
                assert_eq!(v.rows(), sorted_rows(&n), "{ctx}: vectorized vs naive diverged");
                let oracle = eval_naive_profiles(&q, &plan, &catalog).unwrap();
                assert_eq!(trace, oracle, "{ctx}: step profiles vs profile oracle");
                // The bindings-only kernel must agree with the full
                // evaluation: the same profiles, and — these queries are
                // safe, so every realized binding emits exactly one head
                // row — the naive bag's length.
                let (kernel_n, kernel_trace) = run_kernel(&q, &plan, &catalog)
                    .unwrap_or_else(|e| panic!("{ctx}: bindings kernel: {e}"));
                assert_eq!(kernel_n, n.len(), "{ctx}: bindings count vs naive bag");
                assert_eq!(kernel_trace, oracle, "{ctx}: kernel profiles vs profile oracle");
            }
            (Err(v), Err(n)) => assert_eq!(v, n, "{ctx}: errors diverged vs naive"),
            (v, n) => panic!("{ctx}: vec {v:?} vs naive {n:?}"),
        }
    }
}

/// Broken queries (unknown relation, wrong arity) error identically from
/// the engine and the oracle — same message, not merely both erring.
#[test]
fn broken_queries_error_as_the_naive_oracle_does() {
    for case in 0..32u64 {
        let mut g = case_gen(10_000 + case);
        let catalog = random_catalog(&mut g);
        let text = random_query(&mut g, &catalog, true);
        let q = parse_query(&text).unwrap_or_else(|e| panic!("case {case}: `{text}`: {e}"));
        let plan = plan_cq(&q, &catalog);
        let vec = run_vec(&q, &plan, &catalog).map(|(r, _)| r);
        let naive = eval_naive_bag(&q, &catalog).map_err(|e| e.to_string());
        assert!(naive.is_err(), "case {case}: `{text}` should not evaluate");
        assert_eq!(vec, naive, "case {case}: `{text}` errors diverged");
        let kernel = run_kernel(&q, &plan, &catalog).map(|_| ());
        assert_eq!(kernel, naive.map(|_| ()), "case {case}: `{text}` kernel errors diverged");
    }
}

/// A plan cached for a different query is rejected before anything runs,
/// with one error naming both canonical keys — by the evaluator and by the
/// bindings-only kernel.
#[test]
fn inapplicable_plans_are_rejected_by_evaluator_and_kernel() {
    let mut g = case_gen(20_000);
    let catalog = random_catalog(&mut g);
    let a = parse_query("q(X0) :- r0(X0)").unwrap();
    let b = parse_query("q(X0, X1) :- r1(X0, X1)").unwrap();
    let plan = plan_cq(&a, &catalog);
    let expected = format!(
        "eval error: plan for {:?} does not apply to {:?}",
        plan.key(),
        b.canonical_key()
    );
    assert_eq!(run_vec(&b, &plan, &catalog).unwrap_err(), expected);
    assert_eq!(run_kernel(&b, &plan, &catalog).unwrap_err(), expected);
}
