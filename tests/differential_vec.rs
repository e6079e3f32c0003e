//! Differential gate for the vectorized columnar engine.
//!
//! The engine (`query::vec`) is held to the nested-loop naive oracle —
//! the same bag of answers after canonical sort, the same errors — and
//! its step profiles, the feedback loop's input, to the profile oracle
//! derived from that evaluator (`eval_naive_profiles`). These tests
//! generate random catalogs and conjunctive queries biased toward the
//! shapes where a columnar engine can go wrong:
//!
//! * repeated variables *within* one atom (bitmap self-join filters),
//! * constants in atom positions (`eq_const` pushdown, including the
//!   `Int`/`Float` numeric-equality corner),
//! * mixed-type columns that force the `Any` fallback paths,
//! * cartesian-adjacent bodies (atoms sharing no variables — the
//!   `BuildIndex::All` fan-out), and
//! * broken queries (missing relation / wrong arity), which must produce
//!   the *same* `EvalError` as the oracle.
//!
//! Every case also sweeps morsel configurations — sequential, and forced
//! parallel at morsel sizes 1, 7, 64, and whole-relation — and holds the
//! output (rows in order, profiles, errors) byte-identical across all of
//! them.
//!
//! Seeding: `REVERE_VEC_SEED` (default 1) offsets every generator;
//! `scripts/verify.sh` sweeps several seeds.

use revere::prelude::*;
use revere::query::vec::eval_planned_opts;
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

/// A random constant, rendered for the query parser.
fn random_const(g: &mut Gen) -> String {
    if *g.pick(&[true, false]) {
        g.pick(&INT_DOMAIN).to_string()
    } else {
        format!("'{}'", g.pick(&STR_DOMAIN))
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

/// The morsel configurations every case is held byte-identical across:
/// sequential, and forced-parallel at morsel sizes 1, 7, 64, and
/// whole-relation (one morsel ⇒ one worker).
fn opts_sweep() -> Vec<(&'static str, VecOpts)> {
    vec![
        ("default", VecOpts::default()),
        ("sequential", VecOpts::sequential()),
        ("morsel=1", VecOpts::forced_parallel(1)),
        ("morsel=7", VecOpts::forced_parallel(7)),
        ("morsel=64", VecOpts::forced_parallel(64)),
        ("morsel=whole", VecOpts::forced_parallel(usize::MAX)),
    ]
}

type Evaluated = Result<(Relation, Vec<StepProfile>), String>;

fn run_vec(q: &ConjunctiveQuery, plan: &Plan, c: &Catalog, opts: &VecOpts) -> Evaluated {
    eval_planned_opts(q, plan, c, &Obs::disabled(), &SpanHandle::none(), opts)
        .map_err(|e| e.to_string())
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

/// Every configuration of the morsel sweep returns what the sequential
/// run returns — rows in order, profiles, errors (row order is part of
/// the contract). Hands back the sequential result.
fn assert_sweep_is_byte_identical(
    ctx: &str,
    q: &ConjunctiveQuery,
    plan: &Plan,
    c: &Catalog,
) -> Evaluated {
    let sequential = run_vec(q, plan, c, &VecOpts::sequential());
    for (label, opts) in opts_sweep() {
        match (&sequential, &run_vec(q, plan, c, &opts)) {
            (Ok((s, st)), Ok((v, vt))) => {
                assert_eq!(s.rows(), v.rows(), "{ctx} [{label}]: row order diverged");
                assert_eq!(st, vt, "{ctx} [{label}]: step profiles diverged");
            }
            (Err(s), Err(v)) => assert_eq!(s, v, "{ctx} [{label}]: errors diverged"),
            (s, v) => panic!("{ctx} [{label}]: sequential {s:?} vs {v:?}"),
        }
    }
    sequential
}

/// Vectorized ≡ naive oracle after canonical sort, step profiles ≡ the
/// profile oracle, the bindings-only kernel ≡ both, across the whole
/// morsel sweep.
#[test]
fn vectorized_agrees_with_naive_and_profile_oracles() {
    for case in 0..64u64 {
        let mut g = case_gen(case);
        let catalog = random_catalog(&mut g);
        let text = random_query(&mut g, &catalog, false);
        let q = parse_query(&text).unwrap_or_else(|e| panic!("case {case}: `{text}`: {e}"));
        assert!(q.is_safe(), "case {case}: generated unsafe query `{text}`");
        let plan = plan_cq(&q, &catalog);
        let ctx = format!("case {case}: `{text}` (canonical `{}`)", q.canonical_key());
        let vec = assert_sweep_is_byte_identical(&ctx, &q, &plan, &catalog);
        let naive = eval_naive_bag(&q, &catalog).map_err(|e| e.to_string());
        match (vec, naive) {
            (Ok((v, trace)), Ok(n)) => {
                assert_eq!(sorted_rows(&v), sorted_rows(&n), "{ctx}: vectorized vs naive diverged");
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
        let vec = run_vec(&q, &plan, &catalog, &VecOpts::default()).map(|(r, _)| r);
        let naive = eval_naive_bag(&q, &catalog).map_err(|e| e.to_string());
        assert!(naive.is_err(), "case {case}: `{text}` should not evaluate");
        assert_eq!(vec, naive, "case {case}: `{text}` errors diverged");
        let kernel = run_kernel(&q, &plan, &catalog).map(|_| ());
        assert_eq!(kernel, naive.map(|_| ()), "case {case}: `{text}` kernel errors diverged");
    }
}

/// A plan cached for a different query is rejected before anything runs,
/// with one error naming both canonical keys — by the evaluator under
/// every morsel configuration and by the bindings-only kernel.
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
    let vec = assert_sweep_is_byte_identical("inapplicable plan", &b, &plan, &catalog);
    assert_eq!(vec.unwrap_err(), expected);
    assert_eq!(run_kernel(&b, &plan, &catalog).unwrap_err(), expected);
}

/// Real-thread coverage: a join over a relation large enough that every
/// forced-parallel configuration actually spawns workers, held
/// byte-identical to the sequential run.
#[test]
fn morsel_parallel_is_byte_identical_on_large_inputs() {
    let mut edge = Relation::new(RelSchema::new(
        "edge",
        vec![Attribute::int("a"), Attribute::int("b")],
    ));
    // Deterministic pseudo-random graph over 400 nodes, 20k edges: big
    // enough for thousands of morsels at size 7, small enough to stay
    // fast as a test.
    let mut x: u64 = 0x2545_F491_4F6C_DD1D;
    for _ in 0..20_000 {
        x ^= x << 13;
        x ^= x >> 7;
        x ^= x << 17;
        let a = (x % 400) as i64;
        let b = ((x >> 16) % 400) as i64;
        edge.insert(vec![Value::Int(a), Value::Int(b)]);
    }
    let mut catalog = Catalog::new();
    catalog.register(edge);
    for text in [
        "q(A, C) :- edge(A, B), edge(B, C)",
        "q(A) :- edge(A, A)",
        "q(A, B) :- edge(A, B), edge(B, A), A != B",
    ] {
        let q = parse_query(text).unwrap();
        let plan = plan_cq(&q, &catalog);
        assert_sweep_is_byte_identical(text, &q, &plan, &catalog).unwrap();
    }
}
