//! Property-based tests over the core data structures and algorithms.
//!
//! These pin down the invariants the paper's machinery rests on: the XML
//! substrate round-trips, conjunctive-query containment behaves like a
//! preorder, minimization preserves semantics on real data, MiniCon
//! rewritings are sound, and incremental view maintenance agrees with
//! recomputation on arbitrary updategram batches.
//!
//! Inputs are drawn from the in-repo harness (`revere_util::prop`):
//! closure-driven generation, a fixed case count per property, seeded and
//! shrink-free — a failure prints the case seed to reproduce it.

use revere::pdms::placement::{answer_with_plan, plan_placement, WorkloadEntry};
use revere::pdms::{maintain, MaintenanceChoice, MaterializedView, Updategram};
use revere::prelude::*;
use revere::query::unfold::{unfold_with, ViewDef};
use revere::query::unify::{all_homomorphisms, Subst};
use revere::query::{eval_cq, rewrite_using_views, Atom, CmpOp, Comparison, Term};
use revere::storage::{Catalog, Relation};
use revere::xml::{parse as parse_xml, to_string, Document, NodeId};
use revere_util::prop::{forall, Gen};
use revere_util::{RngCore, RngExt};

// ---------------------------------------------------------------------
// XML generators
// ---------------------------------------------------------------------

/// An XML name: `[a-z][a-z0-9]{0,6}`.
fn gen_name(g: &mut Gen) -> String {
    let mut s = g.lowercase(1..2);
    s.push_str(&g.string_from("abcdefghijklmnopqrstuvwxyz0123456789", 0..7));
    s
}

/// Printable text without XML-significant characters; the writer escapes
/// `&<>` itself, which `xml_escaping_roundtrips` covers separately.
fn gen_text(g: &mut Gen) -> String {
    let alphabet: String = (' '..='~').filter(|c| !"<>&\"'".contains(*c)).collect();
    loop {
        let s = g.string_from(&alphabet, 1..21).trim().to_string();
        if !s.is_empty() {
            return s;
        }
    }
}

/// Fill `node`: either a text leaf, or attributes plus 1–3 child elements
/// recursively (bounded depth and fanout, like the proptest original).
fn gen_subtree(g: &mut Gen, d: &mut Document, node: NodeId, depth: u32) {
    if depth == 0 || g.random_bool(0.3) {
        let t = gen_text(g);
        d.add_text(node, t);
        return;
    }
    for _ in 0..g.random_range(0..3usize) {
        let (k, v) = (gen_name(g), gen_text(g));
        d.set_attr(node, k, v);
    }
    for _ in 0..g.random_range(1..4usize) {
        let e = d.add_element(node, gen_name(g));
        gen_subtree(g, d, e, depth - 1);
    }
}

/// A random document with bounded depth and fanout.
fn gen_document(g: &mut Gen) -> Document {
    let mut d = Document::new(gen_name(g));
    let root = d.root();
    gen_subtree(g, &mut d, root, 3);
    d
}

#[test]
fn xml_roundtrip() {
    forall(64, |g| {
        let doc = gen_document(g);
        let text = to_string(&doc);
        let back = parse_xml(&text).expect("writer output parses");
        assert!(back.structurally_eq(&doc), "roundtrip changed the tree:\n{text}");
    });
}

#[test]
fn xml_escaping_roundtrips() {
    let printable: String = (' '..='~').collect();
    forall(64, |g| {
        let raw = g.string_from(&printable, 0..25);
        if raw.trim().is_empty() {
            return;
        }
        let mut d = Document::new("r");
        let root = d.root();
        d.add_text(root, raw.clone());
        d.set_attr(root, "a", raw.clone());
        let back = parse_xml(&to_string(&d)).expect("escaped output parses");
        assert_eq!(back.text_content(back.root()), raw);
        assert_eq!(back.attr(back.root(), "a"), Some(raw.as_str()));
    });
}

// ---------------------------------------------------------------------
// Value ordering
// ---------------------------------------------------------------------

fn gen_value(g: &mut Gen) -> Value {
    match g.random_range(0..5u8) {
        0 => Value::Null,
        1 => Value::Bool(g.random_bool(0.5)),
        2 => Value::Int(g.random_range(i32::MIN as i64..i32::MAX as i64 + 1)),
        3 => Value::Float(g.random_range(-1e9f64..1e9)),
        _ => Value::str(g.lowercase(0..9)),
    }
}

#[test]
fn value_ordering_is_total_and_antisymmetric() {
    forall(256, |g| {
        use std::cmp::Ordering;
        let (a, b, c) = (gen_value(g), gen_value(g), gen_value(g));
        // Antisymmetry.
        assert_eq!(a.cmp(&b), b.cmp(&a).reverse());
        // Transitivity (spot form): sorting never panics and is stable
        // under re-sorting.
        let mut v = vec![a.clone(), b.clone(), c.clone()];
        v.sort();
        let w = {
            let mut w = v.clone();
            w.sort();
            w
        };
        assert_eq!(&v, &w);
        // Eq consistent with Ord.
        assert_eq!(a == b, a.cmp(&b) == Ordering::Equal);
    });
}

/// `Value::Str` holds an `Arc<str>`; it must hash, compare and order
/// exactly as the owned `String` it replaced did, or `HashMap<Vec<Value>, _>`
/// join indexes, sorted answers and WAL images would all shift.
#[test]
fn string_cells_hash_and_order_as_owned_strings_did() {
    use std::collections::hash_map::DefaultHasher;
    use std::hash::{Hash, Hasher};
    fn hash_of(f: impl FnOnce(&mut DefaultHasher)) -> u64 {
        let mut h = DefaultHasher::new();
        f(&mut h);
        h.finish()
    }
    forall(256, |g| {
        let (a, b) = (g.lowercase(0..6), g.lowercase(0..6));
        let (va, vb) = (Value::str(&a), Value::from(b.clone()));
        // The String-era `Hash` impl: the variant tag, then the `String`.
        let string_era = hash_of(|h| {
            3u8.hash(h);
            a.hash(h);
        });
        assert_eq!(hash_of(|h| va.hash(h)), string_era);
        assert_eq!(hash_of(|h| va.clone().hash(h)), string_era, "a clone hashes alike");
        assert_eq!(va.cmp(&vb), a.cmp(&b));
        assert_eq!(va == vb, a == b);
        assert_eq!((va.as_str(), va.to_string()), (Some(a.as_str()), a.clone()));
    });
}

// ---------------------------------------------------------------------
// Conjunctive queries: containment, minimization, rewriting
// ---------------------------------------------------------------------

/// A random small database over relations r/2 and s/2 with a tiny value
/// domain (so joins actually hit).
fn gen_db(g: &mut Gen) -> Catalog {
    let mut cat = Catalog::new();
    for name in ["r", "s"] {
        let mut rel = Relation::new(RelSchema::text(name, &["a", "b"]));
        for _ in 0..g.random_range(0..12usize) {
            rel.insert(vec![
                Value::Int(g.random_range(0i64..4)),
                Value::Int(g.random_range(0i64..4)),
            ]);
        }
        cat.register(rel.distinct());
    }
    cat
}

/// A random safe conjunctive query over r/2, s/2 with ≤3 atoms and ≤4 vars.
fn gen_query(g: &mut Gen) -> ConjunctiveQuery {
    let vars = ["X", "Y", "Z", "W"];
    let atoms: Vec<(&str, usize, usize)> = g.vec(1..4, |g| {
        (
            *g.pick(&["r", "s"]),
            g.random_range(0..4usize),
            g.random_range(0..4usize),
        )
    });
    let head_var = g.random_range(0..4usize);
    let body: Vec<String> = atoms
        .iter()
        .map(|(rel, v1, v2)| format!("{rel}({}, {})", vars[*v1], vars[*v2]))
        .collect();
    // Head var must appear in the body.
    let used: Vec<&str> = atoms
        .iter()
        .flat_map(|(_, v1, v2)| [vars[*v1], vars[*v2]])
        .collect();
    let hv = if used.contains(&vars[head_var]) { vars[head_var] } else { used[0] };
    parse_query(&format!("q({hv}) :- {}", body.join(", "))).expect("generated query is safe")
}

#[test]
fn containment_is_reflexive() {
    forall(48, |g| {
        let q = gen_query(g);
        assert!(contained_in(&q, &q));
    });
}

#[test]
fn containment_implies_answer_inclusion() {
    forall(48, |g| {
        let (q1, q2, db) = (gen_query(g), gen_query(g), gen_db(g));
        if contained_in(&q1, &q2) {
            let a1 = eval_cq(&q1, &db).unwrap();
            let a2 = eval_cq(&q2, &db).unwrap();
            for row in a1.iter() {
                assert!(
                    a2.contains(row),
                    "containment said {q1} ⊆ {q2} but {row:?} only in the first"
                );
            }
        }
    });
}

/// A body term for the containment generators: one of four variables,
/// or one of two constants.
fn gen_term(g: &mut Gen) -> Term {
    if g.random_range(0..5u32) == 0 {
        Term::Const(Value::Int(g.random_range(0i64..2)))
    } else {
        Term::var(*g.pick(&["X", "Y", "Z", "W"]))
    }
}

/// A conjunctive query whose atoms differ in relation (`r`, `s`), arity
/// (1 or 2) and constants, with up to two comparisons and a head of arity
/// 1 or 2. Not necessarily safe: containment does not ask.
fn gen_cq_with_comparisons(g: &mut Gen) -> ConjunctiveQuery {
    let body: Vec<Atom> = g.vec(1..4, |g| {
        let arity = g.random_range(1..3usize);
        Atom::new(*g.pick(&["r", "s"]), g.vec(arity..arity, gen_term))
    });
    let vars: Vec<Term> = body.iter().flat_map(|a| a.terms.clone()).filter(|t| !t.is_const()).collect();
    let pick_var = |g: &mut Gen| match vars.is_empty() {
        true => Term::Const(Value::Int(0)),
        false => g.pick(&vars).clone(),
    };
    let arity = g.random_range(1..3usize);
    let head = Atom::new("q", (0..arity).map(|_| pick_var(g)).collect());
    let comparisons = g.vec(0..3, |g| Comparison {
        left: pick_var(g),
        op: *g.pick(&[CmpOp::Eq, CmpOp::Ne, CmpOp::Lt, CmpOp::Ge]),
        right: match g.random_range(0..2u32) {
            0 => Term::Const(Value::Int(g.random_range(0i64..3))),
            _ => pick_var(g),
        },
    });
    ConjunctiveQuery { head, body, comparisons }
}

/// `q` with less asked of it — an atom, a constant or a comparison
/// dropped — so that `q` is often contained in the result.
fn loosen(g: &mut Gen, q: &ConjunctiveQuery) -> ConjunctiveQuery {
    let mut out = q.clone();
    match g.random_range(0..3u32) {
        0 if out.body.len() > 1 => {
            let i = g.random_range(0..out.body.len());
            out.body.remove(i);
        }
        1 => {
            for a in &mut out.body {
                for t in &mut a.terms {
                    if t.is_const() {
                        *t = Term::var("V");
                    }
                }
            }
        }
        _ => {
            out.comparisons.pop();
        }
    }
    out
}

/// The containment test as stated (Chandra–Merlin, with the conservative
/// comparison check): list every homomorphism from `q2`'s body into the
/// frozen `q1` that maps head to head, and ask whether one of them carries
/// `q2`'s comparisons onto `q1`'s or onto true facts between constants.
fn contained_by_listing(q1: &ConjunctiveQuery, q2: &ConjunctiveQuery) -> bool {
    const FROST: char = '\u{2744}';
    if q1.head.terms.len() != q2.head.terms.len() {
        return false;
    }
    let frozen = |t: &Term| match t {
        Term::Var(v) => Term::Const(Value::str(format!("{FROST}{v}"))),
        c => c.clone(),
    };
    let freeze = |a: &Atom| Atom::new(a.relation.clone(), a.terms.iter().map(frozen).collect());
    let body: Vec<Atom> = q1.body.iter().map(freeze).collect();
    let mut base = Subst::new();
    for (t2, t1) in q2.head.terms.iter().zip(q1.head.terms.iter().map(frozen)) {
        let ok = match t2 {
            Term::Var(v) => base.bind(v, t1),
            c => *c == t1,
        };
        if !ok {
            return false;
        }
    }
    let facts: Vec<Comparison> = q1
        .comparisons
        .iter()
        .map(|c| Comparison { left: frozen(&c.left), op: c.op, right: frozen(&c.right) })
        .collect();
    all_homomorphisms(&q2.body, &body, &base).iter().any(|h| {
        q2.comparisons.iter().all(|c| {
            let mapped = h.apply_cmp(c);
            match (&mapped.left, &mapped.right) {
                (Term::Const(a), Term::Const(b))
                    if !a.to_string().starts_with(FROST) && !b.to_string().starts_with(FROST) =>
                {
                    mapped.op.apply(a, b)
                }
                _ => facts.contains(&mapped),
            }
        })
    })
}

#[test]
fn containment_agrees_with_listing_every_homomorphism() {
    let (mut held, mut failed) = (0, 0);
    forall(256, |g| {
        let q = gen_cq_with_comparisons(g);
        let (q1, q2) = match g.random_range(0..3u32) {
            0 => (q, gen_cq_with_comparisons(g)),
            1 => (q.clone(), loosen(g, &q)),
            _ => (loosen(g, &q), q),
        };
        let want = contained_by_listing(&q1, &q2);
        assert_eq!(contained_in(&q1, &q2), want, "{q1} ⊆ {q2}");
        if want {
            held += 1;
        } else {
            failed += 1;
        }
    });
    // Both answers must be exercised, or the agreement shows nothing.
    assert!(held >= 32 && failed >= 32, "contained {held}, not contained {failed}");
}

#[test]
fn minimization_preserves_answers() {
    forall(48, |g| {
        let (q, db) = (gen_query(g), gen_db(g));
        let m = minimize(&q);
        assert!(m.body.len() <= q.body.len());
        let orig = eval_cq(&q, &db).unwrap();
        let mind = eval_cq(&m, &db).unwrap();
        let mut a = orig.rows().to_vec();
        let mut b = mind.rows().to_vec();
        a.sort();
        b.sort();
        assert_eq!(a, b, "minimize changed the answers of {q}");
    });
}

#[test]
fn minicon_rewritings_are_sound_on_data() {
    forall(48, |g| {
        let (q, db) = (gen_query(g), gen_db(g));
        // Views: projections of r and s exposing both columns.
        let views = [
            ViewDef::from_query(&parse_query("v_r(A, B) :- r(A, B)").unwrap()),
            ViewDef::from_query(&parse_query("v_s(A, B) :- s(A, B)").unwrap()),
        ];
        let rewritings = rewrite_using_views(&q, &views);
        // Materialize the views.
        let mut vcat = Catalog::new();
        for (vname, def) in [("v_r", "v_r(A, B) :- r(A, B)"), ("v_s", "v_s(A, B) :- s(A, B)")] {
            let mut rel = eval_cq(&parse_query(def).unwrap(), &db).unwrap();
            rel.schema.name = vname.to_string();
            vcat.register(rel);
        }
        let direct = eval_cq(&q, &db).unwrap();
        for rw in &rewritings {
            let via = eval_cq(rw, &vcat).unwrap();
            for row in via.iter() {
                assert!(
                    direct.contains(row),
                    "unsound: {rw} produced {row:?} not in {q}"
                );
            }
        }
        // With full-fidelity views, some rewriting must exist and the
        // union must be complete.
        assert!(!rewritings.is_empty(), "no rewriting for {q}");
        let mut union_rows: Vec<_> = rewritings
            .iter()
            .flat_map(|rw| eval_cq(rw, &vcat).unwrap().into_rows())
            .collect();
        union_rows.sort();
        union_rows.dedup();
        let mut want = direct.rows().to_vec();
        want.sort();
        assert_eq!(union_rows, want, "rewriting union incomplete for {q}");
    });
}

#[test]
fn unfolding_preserves_answers() {
    forall(48, |g| {
        let (q, db) = (gen_query(g), gen_db(g));
        // Define virtual relations over the base and unfold them back.
        let defs = [
            ViewDef::from_query(&parse_query("r(A, B) :- base_r(A, B)").unwrap()),
            ViewDef::from_query(&parse_query("s(A, B) :- base_s(A, B)").unwrap()),
        ];
        let mut base = Catalog::new();
        let mut r = db.get("r").unwrap().clone();
        r.schema.name = "base_r".into();
        let mut s = db.get("s").unwrap().clone();
        s.schema.name = "base_s".into();
        base.register(r);
        base.register(s);
        let unfolded = unfold_with(&q, &defs, 8);
        assert_eq!(unfolded.len(), 1);
        let a = eval_cq(&q, &db).unwrap();
        let b = eval_cq(&unfolded[0], &base).unwrap();
        let mut ra = a.rows().to_vec();
        let mut rb = b.rows().to_vec();
        ra.sort();
        rb.sort();
        assert_eq!(ra, rb);
    });
}

// ---------------------------------------------------------------------
// Updategrams: incremental maintenance == recompute
// ---------------------------------------------------------------------

#[test]
fn incremental_maintenance_matches_recompute() {
    forall(48, |g| {
        let db = gen_db(g);
        let inserts: Vec<(i64, i64)> =
            g.vec(0..6, |g| (g.random_range(0i64..4), g.random_range(0i64..4)));
        let delete_count = g.random_range(0..4usize);
        let view_q = *g.pick(&[
            "v(A, C) :- r(A, B), s(B, C)",
            "v(B) :- r(A, B)",
            "v(A, C) :- r(A, B), r(B, C)",
        ]);
        let def = parse_query(view_q).unwrap();
        let mut c1 = db.clone();
        let mut c2 = db;
        let mut v1 = MaterializedView::new("v", def.clone(), &c1).unwrap();
        let mut v2 = MaterializedView::new("v", def, &c2).unwrap();

        // Deletes drawn from existing rows; inserts arbitrary.
        let existing: Vec<Vec<Value>> = c1.get("r").unwrap().rows().to_vec();
        let deletes: Vec<Vec<Value>> = existing.into_iter().take(delete_count).collect();
        let gram = Updategram {
            relation: "r".into(),
            insert: inserts
                .iter()
                .map(|(x, y)| vec![Value::Int(*x), Value::Int(*y)])
                .collect(),
            delete: deletes,
        };
        maintain(&mut c1, &mut v1, std::slice::from_ref(&gram), Some(MaintenanceChoice::Incremental)).unwrap();
        maintain(&mut c2, &mut v2, std::slice::from_ref(&gram), Some(MaintenanceChoice::Recompute)).unwrap();
        let r1 = v1.as_relation();
        let r2 = v2.as_relation();
        assert_eq!(r1.rows(), r2.rows(), "divergence after {gram:?}");
    });
}

// ---------------------------------------------------------------------
// Data placement: a placed view is a subscription, so it stays fresh
// ---------------------------------------------------------------------

/// The three-peer chain of `placement.rs`'s unit tests: `P0 → P1 → P2`,
/// four courses each, every peer's `course` mapped onto its successor's.
fn placement_chain() -> PdmsNetwork {
    let mut net = PdmsNetwork::new();
    for i in 0..3 {
        let mut p = Peer::new(format!("P{i}"));
        let mut r = Relation::new(RelSchema::text("course", &["title"]));
        for k in 0..4 {
            r.insert(vec![Value::str(format!("C{k}@P{i}"))]);
        }
        p.add_relation(r);
        net.add_peer(p);
    }
    for i in 1..3 {
        let rule =
            format!("m(T) :- P{}.course(T) ==> m(T) :- P{i}.course(T)", i - 1);
        net.add_mapping(
            GlavMapping::parse(format!("m{i}"), format!("P{}", i - 1), format!("P{i}"), &rule)
                .unwrap(),
        );
    }
    net
}

#[test]
fn placed_views_answer_as_the_network_does_after_every_publish() {
    forall(12, |g| {
        let mut net = placement_chain();
        let hot = parse_query("q(T) :- P2.course(T)").unwrap();
        let workload = vec![WorkloadEntry { peer: "P2".into(), query: hot.clone(), frequency: 10.0 }];
        let plan = plan_placement(&mut net, &workload, 1_000);
        assert_eq!(plan.placements.len(), 1);
        // A renamed copy of the hot query shares the view; P1's own query
        // has none and takes the network path.
        let renamed = parse_query("q(X) :- P2.course(X)").unwrap();
        let unplaced = parse_query("q(T) :- P1.course(T)").unwrap();

        for step in 0..24 {
            let owner = g.random_range(0..3usize);
            let relation = format!("P{owner}.course");
            let stored = net.peer(&format!("P{owner}")).unwrap().storage.snapshot(&relation).unwrap();
            let gram = if stored.is_empty() || g.random_bool(0.6) {
                // Small title pool: re-inserts of stored rows happen.
                let title = format!("N{}@P{owner}", g.random_range(0..6usize));
                Updategram::inserts(&relation, vec![vec![Value::str(title)]])
            } else {
                Updategram::deletes(&relation, vec![g.pick(stored.rows()).clone()])
            };
            net.publish(&gram).unwrap();

            for (peer, q, placed) in [("P2", &hot, true), ("P2", &renamed, true), ("P1", &unplaced, false)] {
                let live = net.query(peer, q).unwrap();
                let (answers, messages) = answer_with_plan(&net, &plan, peer, q).unwrap();
                assert_eq!(
                    answers.rows(),
                    live.answers.rows(),
                    "step {step}: `{q}` at {peer} drifted from the network after {gram:?}"
                );
                assert_eq!(messages == 0, placed, "step {step}: `{q}` at {peer} spent {messages}");
            }
        }
    });
}

// ---------------------------------------------------------------------
// Z-sets: the delta-dataflow algebra (storage::zset, query::dataflow)
// ---------------------------------------------------------------------

/// A small random Z-set over binary integer tuples, weights in `-3..=3`.
fn gen_delta(g: &mut Gen) -> ZSet {
    g.vec(0..8, |g| {
        (
            vec![Value::Int(g.random_range(0i64..4)), Value::Int(g.random_range(0i64..4))],
            g.random_range(-3i64..4),
        )
    })
    .into_iter()
    .collect()
}

/// The additive inverse: every weight negated.
fn negated(a: &ZSet) -> ZSet {
    a.iter().map(|(t, w)| (t, -w)).collect()
}

/// Nested-loop Z-set equijoin on the first column: the oracle
/// [`JoinState`] is checked against.
fn brute_join(a: &ZSet, b: &ZSet) -> ZSet {
    let mut out = ZSet::new();
    for (l, wl) in a.iter() {
        for (r, wr) in b.iter() {
            if l[0] == r[0] {
                let mut t = l.clone();
                t.extend(r.iter().cloned());
                out.add(t, wl * wr);
            }
        }
    }
    out
}

#[test]
fn zset_addition_is_commutative_and_associative() {
    forall(128, |g| {
        let (a, b, c) = (gen_delta(g), gen_delta(g), gen_delta(g));
        let mut ab = a.clone();
        ab.merge(&b);
        let mut ba = b.clone();
        ba.merge(&a);
        assert_eq!(ab, ba, "a+b != b+a");
        let mut ab_c = ab;
        ab_c.merge(&c);
        let mut bc = b.clone();
        bc.merge(&c);
        let mut a_bc = a;
        a_bc.merge(&bc);
        assert_eq!(ab_c, a_bc, "(a+b)+c != a+(b+c)");
    });
}

#[test]
fn zset_insert_then_retract_cancels() {
    forall(128, |g| {
        let a = gen_delta(g);
        let mut sum = a.clone();
        sum.merge(&negated(&a));
        assert!(sum.is_empty(), "a + (-a) left residue: {sum:?}");
    });
}

#[test]
fn zset_incremental_join_is_bilinear() {
    forall(96, |g| {
        let (a, b, da, db) = (gen_delta(g), gen_delta(g), gen_delta(g), gen_delta(g));
        let mut state = JoinState::new(vec![0], vec![0]);
        state.push_concat(&a, &b);
        let incr = state.push_concat(&da, &db);
        // Δ(A ⋈ B) = (A+ΔA) ⋈ (B+ΔB) − A ⋈ B ...
        let mut a2 = a.clone();
        a2.merge(&da);
        let mut b2 = b.clone();
        b2.merge(&db);
        let mut expected = brute_join(&a2, &b2);
        expected.merge(&negated(&brute_join(&a, &b)));
        assert_eq!(incr, expected, "incremental != recompute difference");
        // ... and decomposes as ΔA⋈B + A⋈ΔB + ΔA⋈ΔB.
        let mut decomposed = brute_join(&da, &b);
        decomposed.merge(&brute_join(&a, &db));
        decomposed.merge(&brute_join(&da, &db));
        assert_eq!(incr, decomposed, "bilinear decomposition diverged");
    });
}

/// A cell `k` in `0..4`, spelled `Int(k)` or `Float(k)` at random: equal
/// values of both spellings must meet in one hashed group and one
/// derivation count, as they meet in one `ZSet` entry.
fn gen_num(g: &mut Gen) -> Value {
    let k = g.random_range(0i64..4);
    if g.random_bool(0.5) {
        Value::Int(k)
    } else {
        Value::Float(k as f64)
    }
}

/// [`gen_delta`] with mixed `Int`/`Float` spellings.
fn gen_mixed_delta(g: &mut Gen) -> ZSet {
    let entries = g.vec(0..8, |g| (vec![gen_num(g), gen_num(g)], g.random_range(-3i64..4)));
    entries.into_iter().collect()
}

#[test]
fn zset_hashed_state_agrees_with_value_equality() {
    forall(96, |g| {
        // Bilinearity, as above, across spellings.
        let (a, b, da, db) =
            (gen_mixed_delta(g), gen_mixed_delta(g), gen_mixed_delta(g), gen_mixed_delta(g));
        let mut state = JoinState::new(vec![0], vec![0]);
        state.push_concat(&a, &b);
        let incr = state.push_concat(&da, &db);
        let mut decomposed = brute_join(&da, &b);
        decomposed.merge(&brute_join(&a, &db));
        decomposed.merge(&brute_join(&da, &db));
        assert_eq!(incr, decomposed, "bilinear decomposition diverged across spellings");

        // An arrangement counts distinct nonzero tuples as a ZSet does,
        // and a key of either spelling probes the same group.
        let mut arr = Arrangement::new(vec![0]);
        let mut sum = ZSet::new();
        for _ in 0..g.random_range(1..5usize) {
            let d = gen_mixed_delta(g);
            arr.apply(&d);
            sum.merge(&d);
            assert_eq!(arr.len(), sum.len(), "arranged tuples != distinct nonzero tuples");
        }
        for k in 0..4i64 {
            let expected: ZSet = sum.iter().filter(|(t, _)| t[0] == Value::Int(k)).collect();
            for key in [Value::Int(k), Value::Float(k as f64)] {
                let got: ZSet = arr.probe(&[key]).collect();
                assert_eq!(got, expected, "probe of key {k} missed entries");
            }
        }
    });
}

#[test]
fn circuit_over_mixed_spellings_matches_recompute() {
    forall(48, |g| {
        let mut catalog = Catalog::new();
        for (name, cols) in [("r", ["a", "b"]), ("s", ["b", "c"])] {
            let mut rel = Relation::new(RelSchema::text(name, &cols));
            for _ in 0..g.random_range(0..8usize) {
                rel.insert(vec![gen_num(g), gen_num(g)]);
            }
            catalog.register(rel);
        }
        let q = parse_query("q(A, C) :- r(A, B), s(B, C)").unwrap();
        let mut circuit = Circuit::new(&q, &plan_cq(&q, &catalog)).unwrap();
        circuit.init_full(&catalog).unwrap();
        for step in 0..6 {
            let relation = if g.random_bool(0.5) { "r" } else { "s" };
            let gram = Updategram {
                relation: relation.into(),
                insert: g.vec(0..3, |g| vec![gen_num(g), gen_num(g)]),
                delete: g.vec(0..3, |g| vec![gen_num(g), gen_num(g)]),
            };
            let batch = gram_to_batch(&catalog, &gram);
            apply_updategrams(&mut catalog, std::slice::from_ref(&gram));
            circuit.push(&batch);
            let plan = plan_cq(&q, &catalog);
            let fresh = eval_planned(&q, &plan, &catalog, &Obs::disabled(), &SpanHandle::none())
                .unwrap()
                .0
                .sorted();
            assert_eq!(circuit.output_bag().rows(), fresh.rows(), "step {step}: after {gram:?}");
        }
    });
}

/// The catalog's one signing rule against a bag-difference oracle. Bags
/// hold duplicates in `Int(k)`/`Float(k)` spellings; grams carry
/// repeated, absent and respelled deletes, and some name an unknown
/// relation. Per distinct row, post − pre equals (a) what
/// [`Catalog::apply`] reports, (b) [`gram_to_batch`] on the pre-state,
/// (c) what [`Catalog::replay`] reports for the journaled records — and
/// for the gram journaled whole as a `DeltaApplied` — replayed onto
/// clones of the pre-state; and (d) the apply journals the bytes the same
/// change written as single-row `delete`/`insert` calls journals.
#[test]
fn catalog_signs_every_change_as_the_bag_difference() {
    use revere::storage::{Change, Tuple};
    fn signed(change: &Change) -> ZSet {
        change.rows().collect()
    }
    fn respelled(row: &[Value]) -> Tuple {
        row.iter()
            .map(|v| match v {
                Value::Int(k) => Value::Float(*k as f64),
                Value::Float(f) => Value::Int(*f as i64),
                other => other.clone(),
            })
            .collect()
    }
    fn journaled(pre: &Catalog) -> (Catalog, Journal) {
        let (mut c, journal) = (pre.clone(), Journal::new());
        c.attach_journal(journal.clone());
        (c, journal)
    }
    forall(256, |g| {
        let mut pre = Catalog::new();
        let rows = g.vec(0..10, |g| vec![gen_num(g), gen_num(g)]);
        pre.register(Relation::with_rows(RelSchema::text("r", &["a", "b"]), rows));
        let stored = pre.get("r").unwrap().rows().to_vec();
        let mut delete = g.vec(0..3, |g| vec![gen_num(g), gen_num(g)]);
        if !stored.is_empty() && g.random_bool(0.7) {
            let row = g.pick(&stored).clone();
            delete.push(respelled(&row));
            delete.push(row);
        }
        let gram = Updategram {
            relation: if g.random_bool(0.85) { "r" } else { "nope" }.into(),
            insert: g.vec(0..3, |g| vec![gen_num(g), gen_num(g)]),
            delete,
        };
        let rel = gram.relation.as_str();

        let (mut post, journal) = journaled(&pre);
        let applied = signed(&post.apply(rel, &gram.delete, &gram.insert).unwrap());
        let mut oracle: ZSet = post.get("r").unwrap().iter().map(|r| (r, 1)).collect();
        oracle.merge(&stored.iter().map(|r| (r, -1)).collect());
        assert_eq!(applied, oracle, "(a) apply of {gram:?}");

        let batch = gram_to_batch(&pre, &gram);
        assert_eq!(batch.get("r").cloned().unwrap_or_default(), oracle, "(b) gram_to_batch");

        let mut replica = pre.clone();
        let mut replayed = ZSet::new();
        for (_, rec) in journal.records() {
            replayed.merge(&signed(&replica.replay(&rec)));
        }
        assert_eq!(replayed, oracle, "(c) replay of the journaled records");
        assert_eq!(replica.get("r"), post.get("r"));
        let whole = WalRecord::DeltaApplied {
            link: "L".into(),
            id: 0,
            relation: gram.relation.clone(),
            insert: gram.insert.clone(),
            delete: gram.delete.clone(),
        };
        assert_eq!(signed(&pre.clone().replay(&whole)), oracle, "(c) replay of a DeltaApplied");

        let (mut by_row, by_row_journal) = journaled(&pre);
        for row in &gram.delete {
            by_row.delete(rel, row);
        }
        for row in &gram.insert {
            by_row.insert(rel, row.clone());
        }
        assert_eq!(journal.bytes(), by_row_journal.bytes(), "(d) the journal bytes");
        assert_eq!(by_row.get("r"), post.get("r"));
        assert_eq!(by_row.rel_stats("r"), post.rel_stats("r"));
        assert_eq!(by_row.stats_epoch(), post.stats_epoch());
    });
}

/// A tracked catalog reports its own changes: across a random run of
/// `apply`, `insert`, `delete`, `register` and `replay` calls (rows in
/// `Int(k)`/`Float(k)` spellings, some of the wrong arity, some naming an
/// unknown relation), each take is consolidated — no row twice, none
/// with weight zero — and the Z-set sum of the rows taken at random
/// points along the way equals after − before as bags, relation by
/// relation. A clone of the tracked catalog and an untracked twin put
/// through the same calls record nothing.
#[test]
fn tracked_catalogs_record_the_bag_difference() {
    use std::collections::BTreeMap;
    fn bags(c: &Catalog) -> BTreeMap<String, ZSet> {
        let bag = |name| c.get(name).unwrap().iter().map(|r| (r, 1)).collect();
        c.names().map(|name| (name.to_string(), bag(name))).collect()
    }
    /// Add one take to `taken`, after checking it is consolidated.
    fn take(tracked: &mut Catalog, taken: &mut BTreeMap<String, ZSet>) {
        let batch = tracked.take_changes();
        for (relation, z) in batch.relations().map(|r| (r, batch.get(r).unwrap())) {
            let entries = z.sorted();
            assert_eq!(entries.len(), z.len());
            assert!(entries.iter().all(|(_, w)| *w != 0), "a zero weight in {relation}: {z:?}");
            assert!(entries.windows(2).all(|p| p[0].0 != p[1].0), "a row twice in {relation}");
            taken.entry(relation.to_string()).or_default().merge(z);
        }
    }
    fn row(g: &mut Gen) -> Vec<Value> {
        let arity = if g.random_bool(0.05) { 1 } else { 2 };
        (0..arity).map(|_| gen_num(g)).collect()
    }
    forall(256, |g| {
        let mut tracked = Catalog::new();
        for name in ["r", "s"] {
            let rows = g.vec(0..6, |g| vec![gen_num(g), gen_num(g)]);
            tracked.register(Relation::with_rows(RelSchema::text(name, &["a", "b"]), rows));
        }
        let before = bags(&tracked);
        let mut untracked = tracked.clone();
        tracked.track_changes();
        let mut copy = tracked.clone();
        let mut taken: BTreeMap<String, ZSet> = BTreeMap::new();
        for _ in 0..g.random_range(1..12usize) {
            let rel = *g.pick(&["r", "s", "r", "s", "nope"]);
            let (delete, insert) = (g.vec(0..3, row), g.vec(0..3, row));
            let stored = tracked.get(rel).map(|r| r.rows().to_vec()).unwrap_or_default();
            let victim = if stored.is_empty() { row(g) } else { g.pick(&stored).clone() };
            let replacement = g.vec(0..5, |g| vec![gen_num(g), gen_num(g)]);
            let op = g.random_range(0..7u8);
            for c in [&mut tracked, &mut copy, &mut untracked] {
                let wide = |r: &Vec<Value>| r.len() != 2;
                match op {
                    0 => drop(c.apply(rel, &delete, &insert)),
                    1 if !insert.iter().any(wide) => {
                        for r in &insert {
                            c.insert(rel, r.clone());
                        }
                    }
                    2 => drop(c.delete(rel, &victim)),
                    3 if rel != "nope" => c.register(Relation::with_rows(
                        RelSchema::text(rel, &["a", "b"]),
                        replacement.clone(),
                    )),
                    4 => {
                        let rec = WalRecord::Delete { relation: rel.into(), row: victim.clone() };
                        drop(c.replay(&rec));
                    }
                    5 => drop(c.replay(&WalRecord::DeltaApplied {
                        link: "L".into(),
                        id: 0,
                        relation: rel.into(),
                        insert: insert.clone(),
                        delete: delete.clone(),
                    })),
                    _ if rel != "nope" => drop(c.replay(&WalRecord::Register {
                        relation: Relation::with_rows(
                            RelSchema::text(rel, &["a", "b"]),
                            replacement.clone(),
                        ),
                    })),
                    _ => {}
                }
            }
            if g.random_bool(0.4) {
                take(&mut tracked, &mut taken);
            }
        }
        take(&mut tracked, &mut taken);
        let mut oracle = bags(&tracked);
        for (name, bag) in &before {
            oracle.get_mut(name).unwrap().merge(&negated(bag));
        }
        oracle.retain(|_, d| !d.is_empty());
        taken.retain(|_, d| !d.is_empty());
        assert_eq!(taken, oracle, "taken rows vs after − before");
        assert!(tracked.take_changes().is_empty(), "a take empties the record");
        assert!(copy.take_changes().is_empty(), "a clone does not track");
        assert!(untracked.take_changes().is_empty(), "an untracked catalog records nothing");
        assert_eq!(bags(&copy), bags(&tracked));
        assert_eq!(bags(&untracked), bags(&tracked));
    });
}

#[test]
fn zset_consolidation_never_stores_zero_weights() {
    forall(128, |g| {
        let mut acc = ZSet::new();
        for _ in 0..g.random_range(1..5usize) {
            let d = gen_delta(g);
            acc.merge(&d);
            if g.random_bool(0.5) {
                acc.merge(&negated(&d));
            }
        }
        assert!(acc.iter().all(|(_, w)| w != 0), "zero-weight entry survived: {acc:?}");
        // Draining every entry leaves the canonical empty delta.
        let entries: Vec<_> = acc.iter().map(|(t, w)| (t.clone(), w)).collect();
        for (t, w) in entries {
            acc.add(t, -w);
        }
        assert!(acc.is_empty());
        assert_eq!(acc, ZSet::new());
    });
}

// ---------------------------------------------------------------------
// Corpus text utilities
// ---------------------------------------------------------------------

#[test]
fn stemming_is_idempotent() {
    forall(256, |g| {
        use revere::corpus::text::stem;
        let word = g.lowercase(1..15);
        let once = stem(&word);
        assert_eq!(stem(&once), once);
        // Stems never grow.
        assert!(once.len() <= word.len() + 1, "{word} -> {once}");
    });
}

#[test]
fn name_similarity_is_bounded_and_reflexive() {
    forall(256, |g| {
        use revere::corpus::text::{name_similarity, SynonymTable};
        let a = g.string_from("abcdefghijklmnopqrstuvwxyz_", 1..13);
        let b = g.string_from("abcdefghijklmnopqrstuvwxyz_", 1..13);
        let syn = SynonymTable::default_domain();
        let s = name_similarity(&a, &b, &syn);
        assert!((0.0..=1.0).contains(&s), "similarity {s} out of range");
        assert_eq!(name_similarity(&a, &a, &syn), 1.0);
    });
}

#[test]
fn edit_distance_triangle_inequality() {
    forall(256, |g| {
        use revere::corpus::text::edit_distance;
        let (a, b, c) = (g.lowercase(0..9), g.lowercase(0..9), g.lowercase(0..9));
        assert!(edit_distance(&a, &c) <= edit_distance(&a, &b) + edit_distance(&b, &c));
        assert_eq!(edit_distance(&a, &b), edit_distance(&b, &a));
        assert_eq!(edit_distance(&a, &a), 0);
    });
}

// ---------------------------------------------------------------------
// Topologies
// ---------------------------------------------------------------------

#[test]
fn generated_topologies_are_connected() {
    forall(64, |g| {
        let n = g.random_range(1usize..40);
        let seed = g.random_range(0u64..1000);
        let extra = g.random_range(0usize..5);
        for kind in [
            TopologyKind::Chain,
            TopologyKind::Star,
            TopologyKind::Tree,
            TopologyKind::Random { extra },
        ] {
            let t = Topology::generate(kind, n, seed);
            assert!(t.is_connected(), "{kind:?} n={n} seed={seed} disconnected");
            assert!(t.mapping_count() <= n.saturating_sub(1) + extra);
            assert!(t.diameter().is_some());
        }
    });
}

// ---------------------------------------------------------------------
// Triple store
// ---------------------------------------------------------------------

#[test]
fn triple_store_republish_is_idempotent() {
    forall(64, |g| {
        use revere::storage::TripleStore;
        let facts: Vec<(String, String, String)> = g.vec(0..10, |g| {
            (
                g.string_from("abc", 1..2),
                g.string_from("pqr", 1..2),
                g.string_from("xyz", 1..2),
            )
        });
        let mut store = TripleStore::new();
        let stmts: Vec<(String, String, Value)> = facts
            .iter()
            .map(|(s, p, o)| (s.clone(), p.clone(), Value::str(o.clone())))
            .collect();
        store.republish("src", stmts.clone());
        let first = store.len();
        store.republish("src", stmts.clone());
        assert_eq!(store.len(), first);
        // Indexed pattern query agrees with a full scan for every subject.
        for (s, _, _) in &stmts {
            let indexed = store.query((Some(s), None, None)).len();
            let scanned = store.iter().filter(|t| t.subject == s.as_str()).count();
            assert_eq!(indexed, scanned);
        }
    });
}

/// Run seed for the triple-store properties, from `REVERE_TRIPLES_SEED`
/// (default 7); `scripts/verify.sh` sweeps `REVERE_TRIPLES_SEEDS`.
fn triples_gen(g: &mut Gen) -> Gen {
    let seed: u64 = std::env::var("REVERE_TRIPLES_SEED")
        .ok()
        .and_then(|s| s.trim().parse().ok())
        .unwrap_or(7);
    Gen::from_seed(g.next_u64() ^ seed.wrapping_mul(0x9E37_79B9_7F4A_7C15))
}

/// The store holds exactly its live triples: every index has one entry per
/// live triple, the slab never outgrew the most that were ever live, the
/// live `Str` objects hold one allocation per distinct content, and the
/// map they share through holds each live content with its count of live
/// triples. Right after `compact()`, the name and source interners hold
/// exactly the names and sources the live triples use.
fn assert_nothing_dead(store: &revere::storage::TripleStore, peak_live: usize, compacted: bool) {
    let o = store.occupancy();
    let live = store.len();
    assert!(o.slots <= peak_live, "{} slots for a peak of {peak_live} live triples", o.slots);
    assert_eq!(
        [o.subject_entries, o.predicate_entries, o.source_entries],
        [live; 3],
        "an index holds something other than the live triples"
    );
    let mut strings: std::collections::BTreeMap<&str, usize> = Default::default();
    for s in store.iter().filter_map(|t| t.object.as_str()) {
        *strings.entry(s).or_default() += 1;
    }
    assert_eq!(o.object_strings, strings.len(), "equal object strings share one allocation");
    let shared: Vec<(&str, usize)> = o.shared_strings.iter().map(|(s, n)| (&**s, *n)).collect();
    assert_eq!(
        shared,
        strings.into_iter().collect::<Vec<_>>(),
        "the shared-string map holds other than the live strings and their counts"
    );
    let distinct = |mut items: Vec<&str>| {
        items.sort_unstable();
        items.dedup();
        items.len()
    };
    let names = distinct(store.iter().flat_map(|t| [t.subject, t.predicate]).collect());
    let sources = distinct(store.iter().map(|t| t.source).collect());
    if compacted {
        assert_eq!((o.names, o.sources), (names, sources), "compact kept a dead name or source");
    } else {
        assert!(o.names >= names && o.sources >= sources, "a live name or source is not interned");
    }
}

/// Random schedules of every write the store has, against a vector of
/// owned triples in publish order as the model. After every step every
/// read equals the model's filter, oldest first, every object keeps the
/// spelling it was published with, and nothing dead is kept — whether or
/// not the schedule ever calls `compact()`.
#[test]
fn triple_store_agrees_with_a_vec_model_and_keeps_nothing_dead() {
    use revere::storage::{Triple, TripleStore};
    const SUBJECTS: [&str; 4] = ["course/a", "course/b", "person/a", "person/b"];
    const PREDICATES: [&str; 3] = ["x.title", "x.phone", "x.room"];
    const SOURCES: [&str; 4] = ["http://u/0", "http://u/1", "http://u/2", "http://u/3"];
    /// One published triple, owned.
    struct Fact {
        subject: String,
        predicate: String,
        object: Value,
        source: &'static str,
        published_at: u64,
    }
    impl Fact {
        fn view(&self) -> Triple<'_> {
            Triple {
                subject: &self.subject,
                predicate: &self.predicate,
                object: &self.object,
                source: self.source,
                published_at: self.published_at,
            }
        }
    }
    /// `Int(k)` and `Float(k)` are equal values with two spellings.
    fn gen_object(g: &mut Gen) -> Value {
        match g.random_range(0..5u8) {
            0 => Value::Int(g.random_range(0..2i64)),
            1 => Value::Float(g.random_range(0..2i64) as f64),
            _ => Value::str(g.string_from("xyz", 1..2)),
        }
    }
    forall(128, |g| {
        let g = &mut triples_gen(g);
        let mut store = TripleStore::new();
        let mut model: Vec<Fact> = Vec::new();
        let (mut clock, mut peak, mut minted) = (0u64, 0usize, 0usize);
        let compacts = g.random_bool(0.5);
        for _ in 0..g.random_range(1..40usize) {
            // A subject from the pool, or one nobody has used before: the
            // vocabulary `compact()` has to keep up with.
            let mut gen_statement = |g: &mut Gen| {
                let subject = if g.random_bool(0.15) {
                    minted += 1;
                    format!("person/n{minted}")
                } else {
                    g.pick(&SUBJECTS).to_string()
                };
                (subject, g.pick(&PREDICATES).to_string(), gen_object(g))
            };
            let source = *g.pick(&SOURCES);
            let mut publish = |model: &mut Vec<Fact>, (subject, predicate, object)| {
                clock += 1;
                model.push(Fact { subject, predicate, object, source, published_at: clock });
                peak = peak.max(model.len());
            };
            let mut compacted = false;
            match g.random_range(0..10u8) {
                0..=2 => {
                    let (s, p, o) = gen_statement(g);
                    publish(&mut model, (s.clone(), p.clone(), o.clone()));
                    assert_eq!(store.insert(&s, &p, o, source), clock);
                }
                3..=6 => {
                    let statements = g.vec(0..6, &mut gen_statement);
                    let before = model.len();
                    model.retain(|t| t.source != source);
                    assert_eq!(store.republish(source, statements.clone()), before - model.len());
                    statements.into_iter().for_each(|s| publish(&mut model, s));
                }
                7 | 8 => {
                    let before = model.len();
                    model.retain(|t| t.source != source);
                    assert_eq!(store.retract_source(source), before - model.len());
                }
                _ if compacts => {
                    store.compact();
                    compacted = true;
                }
                _ => {}
            }

            assert_eq!(store.len(), model.len());
            assert_eq!(store.is_empty(), model.is_empty());
            assert_eq!(store.now(), clock);
            // `Debug`, so an object stored under another spelling fails.
            let expect: Vec<Triple> = model.iter().map(Fact::view).collect();
            assert_eq!(format!("{:?}", store.iter().collect::<Vec<_>>()), format!("{expect:?}"));
            assert_nothing_dead(&store, peak, compacted);
            let rows: Vec<Vec<Value>> = model
                .iter()
                .map(|t| {
                    vec![
                        Value::str(&t.subject),
                        Value::str(&t.predicate),
                        t.object.clone(),
                        Value::str(t.source),
                        Value::Int(t.published_at as i64),
                    ]
                })
                .collect();
            assert_eq!(store.as_relation().rows(), rows);
            for source in SOURCES.iter().chain(&["http://u/never"]) {
                let expect: Vec<Triple> =
                    model.iter().filter(|t| t.source == *source).map(Fact::view).collect();
                assert_eq!(store.from_source(source), expect, "from_source({source})");
            }
            // All eight patterns, each position free, bound to every name
            // in use, and bound to a name nobody published.
            let minted_last = format!("person/n{minted}");
            let subjects: Vec<Option<&str>> = SUBJECTS
                .iter()
                .copied()
                .chain([minted_last.as_str(), "nobody"])
                .map(Some)
                .chain([None])
                .collect();
            let predicates: Vec<Option<&str>> =
                PREDICATES.iter().copied().chain(["x.none"]).map(Some).chain([None]).collect();
            let objects = [
                Value::Int(0),
                Value::Float(1.0),
                Value::str("x"),
                Value::str("y"),
                Value::str("q"),
            ];
            let objects: Vec<Option<&Value>> = objects.iter().map(Some).chain([None]).collect();
            for &s in &subjects {
                for &p in &predicates {
                    for &o in &objects {
                        let expect: Vec<Triple> = model
                            .iter()
                            .filter(|t| {
                                s.is_none_or(|s| t.subject == s)
                                    && p.is_none_or(|p| t.predicate == p)
                                    && o.is_none_or(|o| &t.object == o)
                            })
                            .map(Fact::view)
                            .collect();
                        assert_eq!(store.query((s, p, o)), expect, "query({s:?}, {p:?}, {o:?})");
                    }
                }
            }
            for p in PREDICATES.iter().chain(&["x.none"]) {
                let mut expect: Vec<&str> = model
                    .iter()
                    .filter(|t| t.predicate == *p)
                    .map(|t| t.subject.as_str())
                    .collect();
                expect.sort();
                expect.dedup();
                assert_eq!(store.subjects_with(p), expect, "subjects_with({p})");
            }
        }
    });
}

/// Fifty rounds of revisions to a generated site, `compact()` never
/// called: the applications render what a store built from scratch from
/// each page's final version renders, and the churned store is no bigger.
#[test]
fn triple_store_after_fifty_republish_rounds_renders_as_if_built_fresh() {
    use revere::mangrove::apps::{CourseCalendar, PhoneDirectory, WhosWho};
    use revere::mangrove::{Mangrove, MangroveSchema};
    use revere::workload::DirtSpec;
    forall(2, |g| {
        let g = &mut triples_gen(g);
        // Three revisions of one site: same URLs and subjects, other values
        // and other lies in the directories.
        let revisions: Vec<Vec<_>> = (0..3)
            .map(|_| {
                PageGenerator {
                    seed: g.next_u64(),
                    courses: 30,
                    people: 40,
                    dirt: DirtSpec { conflict_prob: 0.3, secondary_pages: 3 },
                }
                .generate()
            })
            .collect();
        let pages = revisions[0].len();
        let mut churned = Mangrove::new(MangroveSchema::department());
        // Per page: when it was last published, which revision, and how
        // many statements that stored.
        let mut last = vec![(0usize, 0usize, 0usize); pages];
        let (mut tick, mut peak) = (0usize, 0usize);
        for round in 0..=50 {
            let slice: Vec<usize> = if round == 0 {
                (0..pages).collect()
            } else {
                (0..g.random_range(1..pages / 2)).map(|_| g.random_range(0..pages)).collect()
            };
            for p in slice {
                let revision = g.random_range(0..revisions.len());
                let page = &revisions[revision][p];
                let report = churned.publish(&page.url, &page.html);
                assert_eq!(report.retracted, last[p].2, "{}", page.url);
                tick += 1;
                last[p] = (tick, revision, report.stored);
                peak = peak.max(churned.store.len());
            }
            assert_eq!(churned.store.len(), last.iter().map(|l| l.2).sum::<usize>());
            assert_nothing_dead(&churned.store, peak, false);
        }
        // Freshest and majority ties go by publish time: publish the final
        // versions in the order the churned store last saw them.
        let mut order: Vec<usize> = (0..pages).collect();
        order.sort_by_key(|&p| last[p].0);
        let mut fresh = Mangrove::new(MangroveSchema::department());
        for p in order {
            let page = &revisions[last[p].1][p];
            fresh.publish(&page.url, &page.html);
        }
        let (a, b) = (&churned.store, &fresh.store);
        assert_eq!(CourseCalendar::default().render(a), CourseCalendar::default().render(b));
        assert_eq!(WhosWho::default().render(a), WhosWho::default().render(b));
        assert_eq!(PhoneDirectory::default().render(a), PhoneDirectory::default().render(b));
    });
}

/// Every application, under every cleaning policy, renders what a
/// per-cell oracle builds from `clean::resolve` — one `(S, P, ?)` probe
/// per cell — while the store is churned by republishes, retractions and
/// `compact()`. The objects mix `Str`, `Int(k)` and `Float(k)` spellings of
/// equal values, and the comparison is on `Debug` output, so a cell that
/// kept another spelling than the oracle's fails.
#[test]
fn triple_store_apps_render_as_per_cell_resolve() {
    use revere::mangrove::clean::resolve;
    use revere::mangrove::{render_course_summary, render_people_summary, PaperDatabase};
    use revere::xml::writer::{escape_attr, escape_text};
    const SUBJECTS: [&str; 6] =
        ["course/c1", "course/c2", "person/p1", "person/p2", "paper/x1", "paper/x2"];
    const PREDICATES: [&str; 11] = [
        "course.title",
        "course.time",
        "course.room",
        "course.instructor",
        "person.name",
        "person.email",
        "person.office",
        "person.phone",
        "publication.title",
        "publication.author",
        "publication.year",
    ];
    const SOURCES: [&str; 5] =
        ["http://u/~p1/", "http://u/courses/c1.html", "http://u/x1", "http://u/dir1", "http://u/dir2"];
    const POLICIES: [CleaningPolicy; 4] = [
        CleaningPolicy::TakeAll,
        CleaningPolicy::PreferOwnSource,
        CleaningPolicy::Majority,
        CleaningPolicy::Freshest,
    ];
    fn gen_object(g: &mut Gen) -> Value {
        let k = g.random_range(0..3i64);
        match g.random_range(0..4u8) {
            0 => Value::Int(k),
            1 => Value::Float(k as f64),
            _ => Value::str(g.string_from("xyz", 1..2)),
        }
    }
    fn first(store: &TripleStore, s: &str, p: &str, policy: &CleaningPolicy) -> Value {
        resolve(store, s, p, policy).into_iter().next().unwrap_or(Value::Null)
    }
    fn joined(store: &TripleStore, s: &str, p: &str, policy: &CleaningPolicy) -> Value {
        let vals = resolve(store, s, p, policy);
        if vals.is_empty() {
            return Value::Null;
        }
        Value::str(vals.iter().map(Value::to_string).collect::<Vec<_>>().join("; "))
    }
    fn table(name: &str, columns: &[&str], rows: Vec<Vec<Value>>) -> String {
        format!("{:?}", Relation::with_rows(RelSchema::text(name, columns), rows))
    }
    /// A generated summary page: the page an empty store renders, with
    /// one element per subject of `key` inserted before `end`.
    fn summary(
        render: fn(&TripleStore, &CleaningPolicy) -> String,
        store: &TripleStore,
        (key, end): (&str, &str),
        policy: &CleaningPolicy,
        (tag, open, close): (&str, &str, &str),
        fields: &[(&str, &str, &str)],
    ) -> String {
        let mut html = render(&TripleStore::new(), policy);
        let mut at = html.find(end).expect("the empty page has its end");
        for s in store.subjects_with(key) {
            let mut element = format!("<{tag} mg:about=\"{}\">{open}", escape_attr(s));
            for (p, before, after) in fields {
                if let Some(v) = resolve(store, s, p, policy).into_iter().next() {
                    element.push_str(&format!(
                        "{before}<span mg:tag=\"{}\">{}</span>{after}",
                        escape_attr(p),
                        escape_text(&v.to_string())
                    ));
                }
            }
            element.push_str(close);
            html.insert_str(at, &element);
            at += element.len();
        }
        html
    }
    fn check(store: &TripleStore) {
        for policy in &POLICIES {
            let calendar = store
                .subjects_with("course.title")
                .into_iter()
                .map(|s| {
                    let cell = |p| first(store, s, p, policy);
                    vec![Value::str(s), cell("course.title"), cell("course.time"), cell("course.room")]
                })
                .collect();
            assert_eq!(
                format!("{:?}", CourseCalendar { policy: policy.clone() }.render(store)),
                table("calendar", &["course", "title", "time", "room"], calendar),
                "calendar under {policy:?}"
            );
            let people = store
                .subjects_with("person.name")
                .into_iter()
                .map(|s| {
                    let cell = |p| joined(store, s, p, policy);
                    vec![Value::str(s), cell("person.name"), cell("person.email"), cell("person.office")]
                })
                .collect();
            assert_eq!(
                format!("{:?}", WhosWho { policy: policy.clone() }.render(store)),
                table("whos_who", &["person", "name", "email", "office"], people),
                "who's who under {policy:?}"
            );
            let phones = store
                .subjects_with("person.phone")
                .into_iter()
                .map(|s| {
                    let name = first(store, s, "person.name", &CleaningPolicy::Freshest);
                    vec![Value::str(s), name, first(store, s, "person.phone", policy)]
                })
                .collect();
            assert_eq!(
                format!("{:?}", PhoneDirectory { policy: policy.clone() }.render(store)),
                table("phone_directory", &["person", "name", "phone"], phones),
                "phone directory under {policy:?}"
            );
            let courses = summary(
                render_course_summary,
                store,
                ("course.title", "</body>"),
                policy,
                ("div", "\n", "</div>\n"),
                &[
                    ("course.title", "  <p>Title: ", "</p>\n"),
                    ("course.instructor", "  <p>Instructor: ", "</p>\n"),
                    ("course.time", "  <p>Time: ", "</p>\n"),
                    ("course.room", "  <p>Room: ", "</p>\n"),
                ],
            );
            assert_eq!(render_course_summary(store, policy), courses, "course summary under {policy:?}");
            let people = summary(
                render_people_summary,
                store,
                ("person.name", "</ul>"),
                policy,
                ("li", "", "</li>\n"),
                &[("person.name", "", ""), ("person.email", " — ", ""), ("person.office", ", ", "")],
            );
            assert_eq!(render_people_summary(store, policy), people, "people summary under {policy:?}");
        }
        let papers = store
            .subjects_with("publication.title")
            .into_iter()
            .map(|s| {
                let all = |p| resolve(store, s, p, &CleaningPolicy::TakeAll);
                let mut authors: Vec<String> =
                    all("publication.author").iter().map(Value::to_string).collect();
                authors.sort();
                authors.dedup();
                let oldest = |p| all(p).into_iter().next().unwrap_or(Value::Null);
                vec![
                    Value::str(s),
                    oldest("publication.title"),
                    Value::str(authors.join("; ")),
                    oldest("publication.year"),
                ]
            })
            .collect();
        assert_eq!(
            format!("{:?}", PaperDatabase.render(store)),
            table("papers", &["paper", "title", "authors", "year"], papers)
        );
    }
    forall(48, |g| {
        let g = &mut triples_gen(g);
        let mut store = TripleStore::new();
        let mut minted = 0usize;
        for _ in 0..g.random_range(1..30usize) {
            let source = *g.pick(&SOURCES);
            match g.random_range(0..10u8) {
                0..=5 => {
                    let statements = g.vec(0..8, |g| {
                        let subject = if g.random_bool(0.1) {
                            minted += 1;
                            format!("person/n{minted}")
                        } else {
                            g.pick(&SUBJECTS).to_string()
                        };
                        (subject, g.pick(&PREDICATES).to_string(), gen_object(g))
                    });
                    store.republish(source, statements);
                }
                6 | 7 => {
                    store.retract_source(source);
                }
                _ => store.compact(),
            }
            check(&store);
        }
    });
}

// ---------------------------------------------------------------------
// Column vectors and their filters (the vectorized engine substrate)
// ---------------------------------------------------------------------

/// A generated column: sometimes homogeneous (typed representation),
/// sometimes mixed (the `Any` fallback), with nulls and duplicates.
fn gen_column_values(g: &mut Gen) -> Vec<Value> {
    match g.random_range(0..3u8) {
        0 => g.vec(0..30, |g| Value::Int(g.random_range(-3i64..4))),
        1 => g.vec(0..30, |g| Value::str(g.lowercase(0..3))),
        _ => g.vec(0..30, |g| gen_value(g)),
    }
}

#[test]
fn column_get_roundtrips_every_cell() {
    forall(256, |g| {
        let vals = gen_column_values(g);
        let col = ColumnVec::from_values(&vals);
        assert_eq!(col.len(), vals.len());
        for (i, v) in vals.iter().enumerate() {
            assert_eq!(&col.get(i), v, "get({i}) diverged");
        }
    });
}

/// One cell of a column kind — 0 all-`Int`, 1 all-`Str`, else mixed —
/// from a domain small enough that equal values recur, within a
/// representation and across one (`Int(2)` and `Float(2.0)`, `-0.0`,
/// NaN).
fn gen_small_cell(g: &mut Gen, kind: u8) -> Value {
    let variant = if kind < 2 { kind } else { g.random_range(0..5u8) };
    match variant {
        0 => Value::Int(g.random_range(-2i64..3)),
        1 => Value::str(g.string_from("ab", 0..2)),
        2 => Value::Float(*g.pick(&[-1.0, 0.0, -0.0, 2.0, 2.5, f64::NAN])),
        3 => Value::Null,
        _ => Value::Bool(g.random_bool(0.5)),
    }
}

#[test]
fn column_filters_keep_what_value_equality_keeps() {
    forall(512, |g| {
        let kind = g.random_range(0..3u8);
        let vals = g.vec(0..40, |g| gen_small_cell(g, kind));
        // The second column is built on its own, so a `Str` one has its
        // own dictionary; half its cells repeat the first column's row.
        let twin_kind = if g.random_bool(0.8) { kind } else { g.random_range(0..3u8) };
        let twin: Vec<Value> = vals
            .iter()
            .map(|v| if g.random_bool(0.5) { v.clone() } else { gen_small_cell(g, twin_kind) })
            .collect();
        let rows: Vec<u32> = (0..vals.len() as u32).filter(|_| g.random_bool(0.7)).collect();
        let c = if !vals.is_empty() && g.random_bool(0.5) {
            g.pick(&vals).clone()
        } else {
            gen_small_cell(g, 2)
        };
        let (a, b) = (ColumnVec::from_values(&vals), ColumnVec::from_values(&twin));
        let oracle = |keep: &dyn Fn(usize) -> bool| -> Vec<u32> {
            rows.iter().copied().filter(|&r| keep(r as usize)).collect()
        };
        let read = |col: &ColumnVec, kept: &[u32]| -> Vec<Value> {
            let gathered = col.gather(kept);
            (0..gathered.len()).map(|i| gathered.get(i)).collect()
        };
        for (col, cells) in [(&a, &vals), (&b, &twin)] {
            let mut kept = rows.clone();
            col.retain_eq_const(&c, &mut kept);
            assert_eq!(kept, oracle(&|r| cells[r] == c), "retain_eq_const({c:?}) on {cells:?}");
            let expect: Vec<Value> = kept.iter().map(|&r| cells[r as usize].clone()).collect();
            assert_eq!(read(col, &kept), expect, "gather of the kept rows");
        }
        let pairs = [(&a, &b, &vals, &twin), (&b, &a, &twin, &vals), (&a, &a, &vals, &vals)];
        for (x, y, xs, ys) in pairs {
            let mut kept = rows.clone();
            x.retain_eq(y, &mut kept);
            assert_eq!(kept, oracle(&|r| xs[r] == ys[r]), "retain_eq on {xs:?} and {ys:?}");
            let expect: Vec<Value> = kept.iter().map(|&r| xs[r as usize].clone()).collect();
            assert_eq!(read(x, &kept), expect, "gather of the kept rows");
        }
    });
}

#[test]
fn columnar_batch_roundtrips_relations() {
    forall(128, |g| {
        let db = gen_db(g);
        for name in db.names().map(str::to_string).collect::<Vec<_>>() {
            let rel = db.get(&name).unwrap();
            let batch = ColumnarBatch::from_relation(rel);
            assert_eq!(batch.rows(), rel.len());
            for (i, row) in rel.iter().enumerate() {
                for (j, cell) in row.iter().enumerate() {
                    let got = batch.column(j).get(i);
                    assert_eq!(&got, cell, "cell ({i}, {j}) diverged for {name}");
                }
            }
        }
    });
}

// ---------------------------------------------------------------------
// Shared relations: the derived-state memo and copy-on-write snapshots
// ---------------------------------------------------------------------

/// Every write path of a journaled catalog, interleaved with snapshots
/// and reads of the memo, against a plain `Vec` of rows as the model.
/// After every step the owner's rows are the model's, whatever the memo
/// serves equals a computation from scratch (so no write path left a
/// stale statistic or columnar image behind), every snapshot still held —
/// including ones written to in the meantime — reads exactly the rows it
/// had, untouched by the owner and not touching it, and **the log is
/// never behind the state**: recovering from the image taken when the
/// journal was attached plus the log as it stands lands on the live
/// catalog — rows, statistics and learned join selectivities.
#[test]
fn relation_memo_follows_every_write_and_snapshots_stay_put() {
    use revere::storage::wal::{decode_catalog, encode_catalog};
    use revere::storage::{RelStats, SharedCatalog, Tuple};
    fn gen_row(g: &mut Gen) -> Tuple {
        vec![Value::Int(g.random_range(0..3i64)), Value::str(g.lowercase(0..2))]
    }
    fn memo_is_fresh(r: &Relation) {
        assert_eq!(*r.stats(), RelStats::compute(r), "stale statistics");
        assert_eq!(*r.batch(), ColumnarBatch::from_relation(r), "stale columnar image");
    }
    forall(192, |g| {
        let schema = RelSchema::text("t", &["a", "b"]);
        let journal = Journal::new();
        // Some history from before the journal: the image is the baseline.
        let mut model: Vec<Tuple> = g.vec(0..4, gen_row);
        let mut catalog = Catalog::new();
        catalog.register(Relation::with_rows(schema.clone(), model.clone()));
        catalog.note_join_overlap("A.t", 0, "B.t", 1, 0.5);
        let image = encode_catalog(&catalog, journal.next_lsn());
        catalog.attach_journal(journal.clone());
        let shared = SharedCatalog::new(catalog);
        let mut held: Vec<(Relation, Vec<Tuple>)> = Vec::new();
        for _ in 0..g.random_range(1..48usize) {
            let row = gen_row(g);
            match g.random_range(0..11u8) {
                0 | 1 => {
                    model.push(row.clone());
                    assert!(shared.write(|c| c.insert("t", row)));
                }
                2 => {
                    let n = model.iter().filter(|r| **r == row).count();
                    model.retain(|r| *r != row);
                    assert_eq!(shared.write(|c| c.delete("t", &row)), n);
                }
                3 | 4 => {
                    let (a, b) = (*g.pick(&["A.t", "B.t", "t"]), *g.pick(&["A.u", "B.t"]));
                    let sel = *g.pick(&[0.5, 0.25, 0.01]);
                    shared.write(|c| c.note_join_overlap(a, g.random_range(0..2usize), b, 1, sel));
                }
                5 => {
                    let gone = *g.pick(&["A", "B", "Nobody"]);
                    shared.write(|c| c.purge_join_stats(gone));
                }
                6 => {
                    // Replace the relation: fresh rows, or a snapshot
                    // taken earlier (the owner then shares *its* rows).
                    let rel = if held.is_empty() || g.random_bool(0.5) {
                        Relation::with_rows(schema.clone(), g.vec(0..6, gen_row))
                    } else {
                        g.pick(&held).0.clone()
                    };
                    model = rel.rows().to_vec();
                    shared.write(|c| c.register(rel));
                }
                7 | 8 => {
                    let snap = shared.snapshot("t").unwrap();
                    assert_eq!(snap.rows(), model);
                    held.push((snap, model.clone()));
                }
                9 if !held.is_empty() => {
                    // A snapshot is a relation of its own: writing to it
                    // must not reach the owner either.
                    let k = g.random_range(0..held.len());
                    held[k].0.insert(row.clone());
                    held[k].1.push(row);
                }
                _ if !held.is_empty() => {
                    held.swap_remove(g.random_range(0..held.len()));
                }
                _ => {}
            }
            // Reading the owner's memo fills it; skip that on some steps
            // so writes meet both a filled and an empty memo.
            let read_memo = g.random_bool(0.6);
            shared.read(|c| {
                let r = c.get("t").unwrap();
                assert_eq!(r.rows(), model, "owner diverged from the model");
                let stats = c.rel_stats("t").expect("a registered relation has statistics");
                assert_eq!(stats, &RelStats::compute(r), "catalog statistics drifted");
                if read_memo {
                    memo_is_fresh(r);
                }
                let (mut recovered, as_of) = decode_catalog(&image).expect("the image is clean");
                for (_, rec) in journal.records().iter().filter(|(l, _)| *l >= as_of) {
                    recovered.replay(rec);
                }
                assert_eq!(
                    encode_catalog(&recovered, 0),
                    encode_catalog(c, 0),
                    "the log fell behind the state (rows or join statistics)"
                );
                assert_eq!(recovered.rel_stats("t"), Some(stats), "recovered statistics differ");
            });
            for (snap, rows) in &held {
                assert_eq!(snap.rows(), rows, "a held snapshot changed under its holder");
                memo_is_fresh(snap);
            }
        }
        shared.read(|c| memo_is_fresh(c.get("t").unwrap()));
    });
}

/// `Relation::distinct` against collecting the rows into a `BTreeSet` (the
/// implementation the in-place sort replaced), on bags whose cells include
/// equal values in different representations (`Int(2)` and `Float(2.0)`):
/// the same rows, in the same order, and of equal rows the same
/// *representation* — collecting keeps the last in the bag. Rows are
/// compared by their `Debug` text, which tells `Int(2)` from `Float(2.0)`.
/// Deduplicating a clone copies the rows and leaves the other handle's
/// rows and memo as they were.
#[test]
fn relation_distinct_matches_a_btreeset_and_leaves_clones_alone() {
    use revere::storage::Tuple;
    use std::collections::BTreeSet;
    use std::sync::Arc;
    fn gen_cell(g: &mut Gen) -> Value {
        match g.random_range(0..5u8) {
            0 => Value::Null,
            1 => Value::Int(g.random_range(-2..3i64)),
            2 => Value::Float(g.random_range(-2..3i64) as f64),
            3 => Value::Float(*g.pick(&[0.5, -0.0, f64::NAN])),
            _ => Value::str(g.string_from("ab", 0..2)),
        }
    }
    let text = |rows: &[Tuple]| format!("{rows:?}");
    forall(256, |g| {
        let schema = RelSchema::text("t", &["a", "b"]);
        let rows: Vec<Tuple> = g.vec(0..24, |g| vec![gen_cell(g), gen_cell(g)]);
        let model: Vec<Tuple> = rows.iter().collect::<BTreeSet<_>>().into_iter().cloned().collect();

        let owned = Relation::with_rows(schema.clone(), rows.clone());
        assert_eq!(text(owned.distinct().rows()), text(&model), "unshared handle");

        let kept = Relation::with_rows(schema, rows.clone());
        let (stats, batch) = (kept.stats(), kept.batch());
        assert_eq!(text(kept.clone().distinct().rows()), text(&model), "shared handle");
        assert_eq!(text(kept.rows()), text(&rows), "the other handle's rows changed");
        assert!(Arc::ptr_eq(&kept.stats(), &stats), "the other handle's statistics were dropped");
        assert!(Arc::ptr_eq(&kept.batch(), &batch), "the other handle's columnar image was dropped");
    });
}

/// `RelStats::compute` equals the statistics a fold of `note_insert` over
/// the rows builds, down to the spelling each histogram key keeps: of
/// equal cells (`Int(2)`, `Float(2.0)`) the first seen, which is the one
/// `most_common` reports. Histograms are compared by the `Debug` text of
/// what `ColumnStats::iter` yields.
#[test]
fn relstats_compute_matches_a_fold_of_note_insert_spelling_and_all() {
    use revere::storage::{RelStats, Tuple};
    fn gen_cell(g: &mut Gen) -> Value {
        let k = g.random_range(-2..3i64);
        match g.random_range(0..5u8) {
            0 => Value::Null,
            1 => Value::Int(k),
            2 => Value::Float(k as f64),
            _ => Value::str(g.string_from("ab", 0..2)),
        }
    }
    let spellings = |s: &RelStats| -> Vec<String> {
        s.columns.iter().map(|c| format!("{:?}", c.iter().collect::<Vec<_>>())).collect()
    };
    forall(256, |g| {
        let schema = RelSchema::text("t", &["a", "b", "c"]);
        let rows: Vec<Tuple> = g.vec(0..40, |g| vec![gen_cell(g), gen_cell(g), gen_cell(g)]);
        let mut folded = RelStats { rows: 0, columns: vec![Default::default(); 3] };
        rows.iter().for_each(|row| folded.note_insert(row));
        let computed = RelStats::compute(&Relation::with_rows(schema, rows));
        assert_eq!(computed, folded);
        assert_eq!(spellings(&computed), spellings(&folded));
    });
}

// ---------------------------------------------------------------------
// Observability: histogram merge (PR 10)
// ---------------------------------------------------------------------

/// Observations mixing small values, bucket boundaries, and extremes —
/// the cases log2 bucketing must carve up correctly.
fn gen_observations(g: &mut Gen) -> Vec<u64> {
    g.vec(0..40, |g| {
        let small = g.random_range(0..16u64);
        let boundary = (1u64 << g.random_range(0..63u32)).wrapping_sub(g.random_range(0..2u64));
        let wild = g.random_range(0..u64::MAX);
        *g.pick(&[0, 1, small, boundary, wild, u64::MAX])
    })
}

/// `Histogram::merge` must be exactly "observing the union": buckets,
/// count, sum, min, max, and therefore every quantile — the invariant
/// that makes the monitor's per-peer → cluster rollup lossless.
#[test]
fn histogram_merge_equals_observing_the_union() {
    use revere_util::obs::Histogram;
    forall(256, |g| {
        let (xs, ys) = (gen_observations(g), gen_observations(g));
        let observe_all = |vals: &[u64]| {
            let mut h = Histogram::default();
            for &v in vals {
                h.observe(v);
            }
            h
        };
        let mut merged = observe_all(&xs);
        merged.merge(&observe_all(&ys));
        let union: Vec<u64> = xs.iter().chain(&ys).copied().collect();
        assert_eq!(merged, observe_all(&union), "merge diverged from observing the union");
        for q in [0.0, 0.5, 0.9, 0.99, 1.0] {
            assert_eq!(
                merged.quantile(q),
                observe_all(&union).quantile(q),
                "quantile({q}) diverged"
            );
        }
    });
}

// ---------------------------------------------------------------------
// Query front door: no panic on any input
// ---------------------------------------------------------------------

/// Valid inputs the mutation loop starts from: queries with comparisons,
/// quoted constants and dotted names, and one GLAV mapping rule.
const PARSE_SEEDS: [&str; 4] = [
    "q(X, T) :- course(X, T, S), S >= 100, T != 'a, b'",
    "q(V) :- small(K, V), big(K, 'rare')",
    "q(T) :- Berkeley.course(T, E), E <= 3",
    "m(T, E) :- B.course(T, E) ==> m(T, E) :- M.subject(T, E)",
];

/// Valid markup the mutation loop starts from: XML with a declaration, a
/// comment, a CDATA section, entities and quoted attributes, and HTML
/// with annotation attributes, void and unclosed tags.
const MARKUP_SEEDS: [&str; 3] = [
    "<?xml version=\"1.0\"?><!-- c --><a x='1' y=\"&amp;\"><b>t &lt; u</b><![CDATA[<raw>]]><c/></a>",
    "<html><body><div mg:about=\"course/db\" mg:tag='title'>Data &amp; bases<br></div><p>x</body>",
    "<!DOCTYPE html><ul><li><a href=\"/p?a=1&b=2\">&#233;t&eacute;</a><li>two</ul>",
];

/// `text` with one to three edits from `alphabet` — a character inserted,
/// replaced or deleted, or the text truncated.
fn mutant(g: &mut Gen, text: &str, alphabet: &[char]) -> String {
    let mut text: Vec<char> = text.chars().collect();
    for _ in 0..g.random_range(1..4usize) {
        let at = g.random_range(0..text.len() + 1);
        match g.random_range(0..4u8) {
            0 => text.insert(at, *g.pick(alphabet)),
            1 if at < text.len() => text[at] = *g.pick(alphabet),
            2 if at < text.len() => {
                text.remove(at);
            }
            _ => text.truncate(at),
        }
    }
    text.into_iter().collect()
}

/// Every mutant of a valid query or mapping — characters inserted,
/// replaced, deleted, or the text truncated, multi-byte characters
/// included — parses to a value or an error, never a panic, through both
/// the query parser and the mapping parser; every mutant of valid markup
/// does the same through the XML parser and the HTML parser.
#[test]
fn query_and_mapping_parsers_never_panic_on_mutants() {
    let alphabet: Vec<char> = "()',:-=<>!. XYTab01_é😀".chars().collect();
    forall(20_000, |g| {
        let seed = *g.pick(&PARSE_SEEDS);
        let text = mutant(g, seed, &alphabet);
        let _ = parse_query(&text);
        let _ = GlavMapping::parse("m", "B", "M", &text);
    });
    parse_xml(MARKUP_SEEDS[0]).expect("the XML seed is well-formed");
    let alphabet: Vec<char> = "<>/=\"'!?-&;[]#é😀".chars().collect();
    forall(20_000, |g| {
        let seed = *g.pick(&MARKUP_SEEDS);
        let text = mutant(g, seed, &alphabet);
        let _ = parse_xml(&text);
        let _ = revere::mangrove::parse_html(&text);
    });
}

/// Annotated pages the MANGROVE mutation loop starts from: a course page
/// and a person page in each of the generator's two layouts, with the
/// `mg:about` / `mg:tag` attributes, entities and numeric cells the
/// extractor and the cleaning policies read.
const ANNOTATED_SEEDS: [&str; 3] = [
    "<html><body mg:about=\"course/c1\"><h1><span mg:tag=\"course.title\">Data &amp; bases</span>\
     </h1><p>Taught by <span mg:tag=\"course.instructor\">Ada Lovelace</span>.</p><p>Meets \
     <span mg:tag=\"course.time\">MWF 10</span> in <span mg:tag=\"course.room\">203</span>.</p>\
     </body></html>",
    "<html><body mg:about=\"person/p1\"><h1><span mg:tag=\"person.name\">Ada Lovelace</span>\
     </h1><ul><li>Phone: <span mg:tag=\"person.phone\">5551234</span></li><li>Email: \
     <span mg:tag=\"person.email\">ada@u.edu</span></li><li>Office: \
     <span mg:tag=\"person.office\">CSE 203</span></li></ul></body></html>",
    "<html><body><div mg:about=\"person/p1\"><table><tr><td mg:tag=\"person.name\">Ada L.</td>\
     </tr><tr><td mg:tag=\"person.phone\">555-9999</td></tr><tr>\
     <td mg:tag=\"person.office\">203</td></tr></table></div></body></html>",
];

/// Every mutant of an annotated page goes through MANGROVE's front door
/// without a panic: three mutants published at two colliding URLs (so
/// republishes retract what a mutant stored), then the three
/// applications rendered under every cleaning policy, both generated
/// summaries rendered and re-extracted, the consistency check run and the
/// store compacted.
#[test]
fn mangrove_publish_and_render_never_panic_on_mutants() {
    use revere::mangrove::apps::{CourseCalendar, PhoneDirectory, WhosWho};
    use revere::mangrove::{
        extract_statements, find_inconsistencies, render_course_summary, render_people_summary,
        Mangrove, MangroveSchema,
    };
    const URLS: [&str; 2] = ["http://u/courses/c1.html", "http://u/~p1/"];
    const POLICIES: [CleaningPolicy; 4] = [
        CleaningPolicy::TakeAll,
        CleaningPolicy::PreferOwnSource,
        CleaningPolicy::Majority,
        CleaningPolicy::Freshest,
    ];
    let alphabet: Vec<char> = "<>/=\"':.!-&;# mg:abouttag0123é😀".chars().collect();
    forall(5_000, |g| {
        let mut m = Mangrove::new(MangroveSchema::department());
        for _ in 0..3 {
            let seed = *g.pick(&ANNOTATED_SEEDS);
            let html = mutant(g, seed, &alphabet);
            let url = g.pick(&URLS);
            m.publish(url, &html);
        }
        for policy in POLICIES {
            CourseCalendar { policy: policy.clone() }.render(&m.store);
            WhosWho { policy: policy.clone() }.render(&m.store);
            PhoneDirectory { policy: policy.clone() }.render(&m.store);
            extract_statements(&render_course_summary(&m.store, &policy));
            extract_statements(&render_people_summary(&m.store, &policy));
        }
        find_inconsistencies(&m.store, &m.schema);
        m.store.compact();
    });
}

// ---------------------------------------------------------------------
// Binary decoders: no panic on any input
// ---------------------------------------------------------------------

/// `bytes` with one to three edits: a bit flipped, a byte set, deleted
/// or inserted, or (rarely) the tail cut off. Set and inserted bytes
/// favour the ones length and tag fields break on.
fn byte_mutant(g: &mut Gen, bytes: &[u8]) -> Vec<u8> {
    let mut out = bytes.to_vec();
    for _ in 0..g.random_range(1..4usize) {
        let at = g.random_range(0..out.len() + 1);
        let byte = if g.random_bool(0.5) {
            *g.pick(&[0u8, 1, 2, 3, 4, 9, 0x7f, 0x80, 0xfe, 0xff])
        } else {
            g.random_range(0..256u16) as u8
        };
        match g.random_range(0..9u8) {
            0..=2 if at < out.len() => out[at] ^= 1 << g.random_range(0..8u32),
            3..=4 if at < out.len() => out[at] = byte,
            5..=6 if at < out.len() => {
                out.remove(at);
            }
            8 => out.truncate(at),
            _ => out.insert(at, byte),
        }
    }
    out
}

/// Recompute the trailing CRC over everything before it (the `RVSN`
/// snapshot's frame), so the mutant reaches the structural decoder.
fn reseal_tail(bytes: &mut [u8]) {
    if let Some(body) = bytes.len().checked_sub(4) {
        let crc = revere::storage::wal::crc32(&bytes[..body]);
        bytes[body..].copy_from_slice(&crc.to_le_bytes());
    }
}

/// Recompute a log's header CRC and the CRC of every frame its length
/// prefixes still delimit.
fn reseal_log(bytes: &mut [u8]) {
    use revere::storage::wal::crc32;
    let (header, frame) = (20, 8);
    if bytes.len() < header {
        return;
    }
    let crc = crc32(&bytes[..header - 4]);
    bytes[header - 4..header].copy_from_slice(&crc.to_le_bytes());
    let mut pos = header;
    while pos + frame <= bytes.len() {
        let len = u32::from_le_bytes(bytes[pos..pos + 4].try_into().unwrap()) as usize;
        let Some(end) = (pos + frame).checked_add(len).filter(|&e| e <= bytes.len()) else {
            break;
        };
        let crc = crc32(&bytes[pos + frame..end]);
        bytes[pos + 4..pos + frame].copy_from_slice(&crc.to_le_bytes());
        pos = end;
    }
}

/// Every mutant of a valid record, log or catalog snapshot — bits
/// flipped, bytes set, deleted, inserted or cut, and on most mutants the
/// CRCs resealed over the edit — decodes to a value or to `None` (a log
/// to its clean prefix), never a panic: `WalRecord::from_bytes`,
/// `Wal::open` and `decode_catalog`.
#[test]
fn binary_decoders_never_panic_on_mutants() {
    use revere::storage::wal::{decode_catalog, encode_catalog, Wal};
    let row = |a: &str, b: Value| vec![Value::str(a), b, Value::Null, Value::Bool(true)];
    let schema = RelSchema::text("S.mixed", &["a", "b", "c", "d"]);
    let rows =
        vec![row("x", Value::Int(-3)), row("", Value::Float(2.5)), row("x", Value::Int(-3))];
    let mixed = Relation::with_rows(schema, rows.clone());
    let mut catalog = Catalog::new();
    catalog.register(mixed.clone());
    catalog.create(RelSchema::text("S.empty", &["a"]));
    catalog.note_join_overlap("S.mixed", 0, "S.empty", 0, 0.25);
    let snapshot = encode_catalog(&catalog, 7);
    let decoded = decode_catalog(&snapshot).expect("the snapshot decodes");
    assert_eq!(encode_catalog(&decoded.0, decoded.1), snapshot);

    let (relation, link) = ("S.mixed".to_string(), "T".to_string());
    let records = [
        WalRecord::Register { relation: mixed },
        WalRecord::Insert { relation: relation.clone(), row: rows[0].clone() },
        WalRecord::Delete { relation: relation.clone(), row: rows[1].clone() },
        WalRecord::JoinObserved {
            rel_a: relation.clone(),
            col_a: 0,
            rel_b: "S.empty".into(),
            col_b: 0,
            selectivity: 0.5,
        },
        WalRecord::DeltaApplied {
            link: link.clone(),
            id: 4,
            relation: relation.clone(),
            insert: rows.clone(),
            delete: vec![],
        },
        WalRecord::DeltaSealed { link: link.clone(), id: 5, relation, insert: vec![], delete: rows },
        WalRecord::DeltaAcked { link, id: 5 },
        WalRecord::JoinPurged { peer: "S".into() },
    ];
    let encoded: Vec<Vec<u8>> = records.iter().map(WalRecord::to_bytes).collect();
    for (rec, bytes) in records.iter().zip(&encoded) {
        assert_eq!(WalRecord::from_bytes(bytes).as_ref(), Some(rec));
    }
    let mut wal = Wal::with_base(3);
    for rec in &records {
        wal.append(rec);
    }
    let log = wal.bytes().to_vec();
    assert_eq!(Wal::open(&log).1.records, records.len());

    // How many mutants got past the checksums and decoded: the loop must
    // exercise the structural decoders, not only the CRC checks.
    let (mut snapshots, mut logs) = (0, 0);
    forall(30_000, |g| {
        let record: &Vec<u8> = g.pick(&encoded);
        let _ = WalRecord::from_bytes(&byte_mutant(g, record));
        let reseal = g.random_bool(0.8);
        let mut image = byte_mutant(g, &snapshot);
        let mut bytes = byte_mutant(g, &log);
        if reseal {
            reseal_tail(&mut image);
            reseal_log(&mut bytes);
        }
        snapshots += usize::from(decode_catalog(&image).is_some());
        logs += usize::from(Wal::open(&bytes).1.records > 0);
    });
    assert!(snapshots > 1_000 && logs > 1_000, "decoded {snapshots} snapshots, {logs} logs");
}
