//! Differential testing for incremental view maintenance.
//!
//! A [`MaterializedView`] promises one contract however it is driven:
//! after any sequence of updategrams, the maintained state equals what a
//! from-scratch evaluation of the defining query over the current catalog
//! would produce. These tests generate random catalogs, random conjunctive
//! queries (self-joins, constants, comparisons), and adversarial gram
//! sequences — duplicate inserts, multi-copy deletes, deletes of absent
//! rows, bulk dataset joins and leaves, churn on unrelated relations — and
//! after **every** gram hold two arms to the recompute oracle byte for
//! byte: a view that always pushes the delta through its circuits, and a
//! view driven by [`maintain`]'s policy — the cost model's own choice per
//! gram, and a forced re-seed every [`RESEED_EVERY`]-th — so one view
//! alternates between push and re-plan-and-re-seed mid-stream.
//!
//! A second arm holds a seeded circuit to its definition: a circuit
//! seeded by [`Circuit::init_full`] equals its twin seeded by pushing the
//! whole catalog as one batch of inserts — derivation counts, join work,
//! arranged tuples and pushes — over random 1–3-atom queries and bag
//! catalogs that spell equal cells as both `Int` and `Float`, before and
//! after a few random grams.
//!
//! A third arm holds subscriptions to the query they were asked as:
//! three subscriptions — a join local to a durable peer, a query across
//! a mapping, and a query over an in-memory peer — equal a one-shot query
//! after every step of a seeded mix of publishes, direct writes on both
//! peers (inserts, multi-copy and absent deletes, same-schema
//! re-registrations), checkpoints and clean restarts of the durable
//! peer, a mapping added mid-stream, the in-memory peer leaving and
//! rejoining, and its storage swapped through `peer_mut`.
//!
//! Seeding: `REVERE_IVM_SEED` (default 7) offsets every generator;
//! `scripts/verify.sh` sweeps `REVERE_IVM_SEEDS` (default `7 42 1003`).

use revere::prelude::*;
use revere::storage::Attribute;
use revere_util::prop::Gen;
use revere_util::RngExt;

/// Base seed for this run, from `REVERE_IVM_SEED` (default 7).
fn ivm_seed() -> u64 {
    std::env::var("REVERE_IVM_SEED")
        .ok()
        .and_then(|s| s.trim().parse().ok())
        .unwrap_or(7)
}

/// Independent generator for one case: mixes the run seed with the case
/// index so cases stay decorrelated within and across seeds.
fn case_gen(case: u64) -> Gen {
    Gen::from_seed(ivm_seed().wrapping_mul(0x9E37_79B9_7F4A_7C15).wrapping_add(case))
}

const VARS: [&str; 5] = ["A", "B", "C", "D", "E"];

/// A random row for a binary int relation. The tiny domain forces joins,
/// duplicates, and delete collisions.
fn random_row(g: &mut Gen) -> Vec<Value> {
    vec![Value::Int(g.random_range(0i64..4)), Value::Int(g.random_range(0i64..4))]
}

/// A random catalog: 2–4 binary int relations `r0..` with 0–10 rows each
/// (duplicates included — bag semantics must survive maintenance), plus a
/// decoy relation `noise` the queries never mention.
fn random_catalog(g: &mut Gen) -> Catalog {
    let mut catalog = Catalog::new();
    let n_rels = *g.pick(&[2usize, 3, 4]);
    for ri in 0..n_rels {
        let mut rel = Relation::new(RelSchema::new(
            format!("r{ri}"),
            vec![Attribute::int("c0"), Attribute::int("c1")],
        ));
        for row in g.vec(0..11, random_row) {
            rel.insert(row);
        }
        catalog.register(rel);
    }
    let mut noise = Relation::new(RelSchema::new(
        "noise",
        vec![Attribute::int("c0"), Attribute::int("c1")],
    ));
    for row in g.vec(0..4, random_row) {
        noise.insert(row);
    }
    catalog.register(noise);
    catalog
}

/// A random safe conjunctive query over the `r*` relations: as many atoms
/// as one pick from `atoms` (relations drawn with replacement, so
/// self-joins happen), a small
/// variable pool (frequent join columns and repeated variables), optional
/// constants in atom positions, 0–2 comparisons over body variables.
fn random_query_text(g: &mut Gen, catalog: &Catalog, atoms: &[usize]) -> String {
    let rels: Vec<String> =
        catalog.names().filter(|n| n.starts_with('r')).map(str::to_string).collect();
    let n_atoms = *g.pick(atoms);
    let mut body = Vec::new();
    let mut used: Vec<&str> = Vec::new();
    for ai in 0..n_atoms {
        let name = g.pick(&rels).clone();
        let terms: Vec<String> = (0..2)
            .map(|ti| {
                if (ai == 0 && ti == 0) || *g.pick(&[true, true, true, false]) {
                    let v = *g.pick(&VARS);
                    if !used.contains(&v) {
                        used.push(v);
                    }
                    v.to_string()
                } else {
                    g.random_range(0i64..4).to_string()
                }
            })
            .collect();
        body.push(format!("{name}({})", terms.join(", ")));
    }
    for _ in 0..*g.pick(&[0usize, 0, 1, 2]) {
        let v = *g.pick(&used);
        let op = *g.pick(&["=", "!=", "<", "<=", ">", ">="]);
        body.push(format!("{v} {op} {}", g.random_range(0i64..4)));
    }
    let h = *g.pick(&[1usize, 1, 2]);
    let head: Vec<String> = (0..h).map(|_| g.pick(&used).to_string()).collect();
    format!("q({}) :- {}", head.join(", "), body.join(", "))
}

/// A random updategram against the current catalog. Mixes the adversarial
/// shapes incremental maintainers get wrong: inserting rows that already
/// exist (multiplicity goes up, not set membership), deleting rows held at
/// multiplicity > 1, deleting rows that are absent (a no-op the delta path
/// must also treat as one), whole-dataset bulk arrivals and departures
/// (a peer joining or leaving the network), and churn on a relation the
/// query never reads.
fn random_gram(g: &mut Gen, catalog: &Catalog) -> Updategram {
    let names: Vec<String> = catalog.names().map(str::to_string).collect();
    let rel = if g.random_bool(0.15) {
        "noise".to_string()
    } else {
        g.pick(&names).clone()
    };
    let existing: Vec<Vec<Value>> = catalog.get(&rel).map(|r| r.rows().to_vec()).unwrap_or_default();
    match g.random_range(0i64..10) {
        // Fresh inserts (often colliding with existing rows anyway).
        0..=2 => Updategram::inserts(&rel, g.vec(1..4, random_row)),
        // Duplicate insert: re-assert a row that is already there.
        3 if !existing.is_empty() => {
            let row = g.pick(&existing).clone();
            Updategram::inserts(&rel, vec![row.clone(), row])
        }
        // Targeted delete (hits multi-copy rows when the bag has them).
        4..=5 if !existing.is_empty() => {
            Updategram::deletes(&rel, vec![g.pick(&existing).clone()])
        }
        // Delete of a row that may not exist.
        6 => Updategram::deletes(&rel, vec![random_row(g)]),
        // Mixed gram: deletes processed before inserts.
        7 => {
            let delete = if existing.is_empty() {
                vec![random_row(g)]
            } else {
                vec![g.pick(&existing).clone()]
            };
            Updategram { relation: rel, insert: g.vec(1..3, random_row), delete }
        }
        // Bulk join: a whole dataset arrives at once.
        8 => Updategram::inserts(&rel, g.vec(5..11, random_row)),
        // Bulk leave: the dataset departs (every distinct row deleted).
        _ => {
            let mut distinct = existing;
            distinct.sort();
            distinct.dedup();
            Updategram::deletes(&rel, distinct)
        }
    }
}

/// Rows of a relation in a canonical order, for byte-level comparison.
fn sorted_rows(r: Relation) -> Vec<Vec<Value>> {
    r.sorted().into_rows()
}

/// The policy arm is forced to [`MaintenanceChoice::Recompute`] on every
/// gram whose index is `RESEED_EVERY - 1` modulo this.
const RESEED_EVERY: usize = 5;

/// Hold one case to the oracle: after every gram, each arm's bag equals
/// `eval_cq_bag` recomputed from scratch and its set view equals `eval_cq`.
/// Returns how often the cost model, left to itself, picked
/// `[Incremental, Recompute]` — or `None` when the generated query
/// compiles to no circuit (skipped case).
fn run_case(case: u64, grams: usize) -> Option<[usize; 2]> {
    let mut g = case_gen(case);
    let mut catalog = random_catalog(&mut g);
    let text = random_query_text(&mut g, &catalog, &[2, 2, 3]);
    let q = parse_query(&text).unwrap_or_else(|e| panic!("case {case}: `{text}`: {e}"));
    assert!(q.is_safe(), "case {case}: generated unsafe query `{text}`");

    let mut push = MaterializedView::new("push", q.clone(), &catalog).ok()?;
    let mut policy_catalog = catalog.clone();
    let mut policy = push.clone();
    let mut picks = [0usize; 2];

    for round in 0..grams {
        let gram = random_gram(&mut g, &catalog);
        push.apply_gram(&mut catalog, &gram).unwrap();
        let force = (round % RESEED_EVERY == RESEED_EVERY - 1).then_some(MaintenanceChoice::Recompute);
        let report =
            maintain(&mut policy_catalog, &mut policy, std::slice::from_ref(&gram), force).unwrap();
        if force.is_none() {
            picks[usize::from(report.choice == MaintenanceChoice::Recompute)] += 1;
        }

        let ctx = || {
            format!(
                "case {case}, round {round}, query `{text}`, gram on `{}` (+{} -{})",
                gram.relation,
                gram.insert.len(),
                gram.delete.len()
            )
        };
        let bag_oracle = sorted_rows(eval_cq_bag(&q, &catalog).unwrap());
        let set_oracle = sorted_rows(eval_cq(&q, &catalog).unwrap());
        for (arm, view) in [("always-push", &push), ("policy", &policy)] {
            assert_eq!(
                sorted_rows(view.as_bag()),
                bag_oracle,
                "{arm} bag drifted from recompute: {}",
                ctx()
            );
            assert_eq!(
                sorted_rows(view.as_relation()),
                set_oracle,
                "{arm} set drifted from recompute: {}",
                ctx()
            );
        }
    }
    Some(picks)
}

#[test]
fn circuits_track_recompute_after_every_gram() {
    let picks: Vec<[usize; 2]> = (0..16u64).filter_map(|case| run_case(case, 40)).collect();
    let compiled = picks.len();
    assert!(compiled >= 12, "only {compiled}/16 generated queries compiled to circuits");
    // The policy arm is only a second arm if the cost model really sends
    // one stream down both paths.
    let [incremental, recompute] = picks.iter().fold([0, 0], |[i, r], p| [i + p[0], r + p[1]]);
    assert!(incremental > 0 && recompute > 0, "cost model picks: {incremental} / {recompute}");
}

/// Long single-case soak: one query, hundreds of grams, catching drift
/// that only accumulates (arrangement leaks, sign errors that cancel over
/// short runs).
#[test]
fn one_circuit_survives_a_long_gram_stream() {
    assert!(
        run_case(90_001, 250).or_else(|| run_case(90_002, 250)).is_some(),
        "soak cases failed to compile a circuit"
    );
}

// ---------------------------------------------------------------------
// Seeding ≡ replaying the catalog as one batch
// ---------------------------------------------------------------------

/// `catalog` with about a third of its cells spelled as the equal
/// `Float`, so one bag holds both `Int(2)` and `Float(2.0)`.
fn respell(g: &mut Gen, catalog: &Catalog) -> Catalog {
    let mut out = Catalog::new();
    for name in catalog.names() {
        let rel = catalog.get(name).expect("listed");
        let rows = rel
            .rows()
            .iter()
            .map(|row| {
                row.iter()
                    .map(|v| match v {
                        Value::Int(i) if g.random_bool(0.3) => Value::Float(*i as f64),
                        v => v.clone(),
                    })
                    .collect()
            })
            .collect();
        out.register(Relation::with_rows(rel.schema.clone(), rows));
    }
    out
}

/// Push every stored row of `catalog` as a `+1`, in one batch: the
/// definition of seeding that [`Circuit::init_full`] must reproduce.
fn replay(circuit: &mut Circuit, catalog: &Catalog) {
    let mut batch = ZSetBatch::new();
    for name in catalog.names() {
        for row in catalog.get(name).expect("listed").rows() {
            batch.add(name, row.clone(), 1);
        }
    }
    circuit.push(&batch);
}

/// The derivation counts and every counter of a circuit.
fn counters(c: &Circuit) -> (ZSet, u64, usize, usize) {
    (c.derivations().clone(), c.work(), c.arranged_tuples(), c.pushes)
}

/// Seed one circuit with `init_full` and its twin by [`replay`]; they
/// must agree, and keep agreeing while a few random grams are pushed
/// into both.
fn run_seed_case(case: u64) {
    let mut g = case_gen(case);
    let base = random_catalog(&mut g);
    let mut catalog = respell(&mut g, &base);
    let text = random_query_text(&mut g, &catalog, &[1, 2, 3]);
    let q = parse_query(&text).unwrap_or_else(|e| panic!("case {case}: `{text}`: {e}"));
    let mut seeded = Circuit::new(&q, &plan_cq(&q, &catalog)).expect("the plan applies");
    let mut replayed = seeded.clone();
    seeded.init_full(&catalog).expect("every relation is stored");
    replay(&mut replayed, &catalog);
    let ctx = |round: &str| format!("case {case}, query `{text}`, {round}");
    assert_eq!(counters(&seeded), counters(&replayed), "{}", ctx("seeded"));
    assert_eq!(
        seeded.output_bag().rows(),
        sorted_rows(eval_cq_bag(&q, &catalog).unwrap()),
        "{}",
        ctx("seeded vs recompute")
    );
    for round in 0..6 {
        let gram = random_gram(&mut g, &catalog);
        let batch = gram_to_batch(&catalog, &gram);
        catalog.apply(&gram.relation, &gram.delete, &gram.insert).expect("arity holds");
        let round = format!("gram {round} on `{}`", gram.relation);
        assert_eq!(seeded.push(&batch), replayed.push(&batch), "{}", ctx(&round));
        assert_eq!(counters(&seeded), counters(&replayed), "{}", ctx(&round));
    }
}

#[test]
fn seeding_equals_replaying_the_catalog_as_one_batch() {
    for case in 0..48u64 {
        run_seed_case(60_000 + case);
    }
}

// ---------------------------------------------------------------------
// Subscriptions ≡ one-shot queries under every change path
// ---------------------------------------------------------------------

/// A binary int relation named `name`.
fn int_pair(name: impl Into<String>) -> RelSchema {
    RelSchema::new(name, vec![Attribute::int("c0"), Attribute::int("c1")])
}

/// The subscriptions of [`run_durable_case`]: (name, peer, query) — a
/// join local to the durable peer, a query at `V` that the mapping
/// `D.r ⟶ V.t` answers partly from `D` (and, once added, `M.u ⟶ V.t`
/// from `M`), and a query over the in-memory peer `M`.
const DURABLE_SUBSCRIPTIONS: [(&str, &str, &str); 3] = [
    ("local", "D", "q(A, C) :- D.r(A, B), D.s(B, C)"),
    ("mapped", "V", "q(A, B) :- V.t(A, B)"),
    ("memory", "V", "q(A) :- M.u(A, B)"),
];

/// A fresh in-memory peer `M` storing `u` with random rows.
fn memory_peer(g: &mut Gen) -> Peer {
    let mut p = Peer::new("M");
    p.add_relation(Relation::with_rows(int_pair("u"), g.vec(0..8, random_row)));
    p
}

/// A network of a durable peer `D` (relations `r`, `s`), a peer `V`
/// (relation `t`) with a mapping from `D.r` into `V.t`, and an in-memory
/// peer `M` (relation `u`).
fn durable_network(g: &mut Gen) -> PdmsNetwork {
    let mut net = PdmsNetwork::new();
    for (peer, rels) in [("D", &["r", "s"][..]), ("V", &["t"][..])] {
        let mut p = Peer::new(peer);
        for name in rels {
            p.add_relation(Relation::with_rows(int_pair(*name), g.vec(0..8, random_row)));
        }
        net.add_peer(p);
    }
    net.add_peer(memory_peer(g));
    net.add_mapping(
        GlavMapping::parse("m", "D", "V", "m(A, B) :- D.r(A, B) ==> m(A, B) :- V.t(A, B)")
            .expect("mapping parses"),
    );
    net.enable_durability("D").expect("D is a member");
    net
}

/// One direct write on a catalog of `peer` through `storage.write`,
/// bypassing `publish`: an insert, a delete of a stored row (every copy
/// goes), a delete of a row that may be absent, or a re-registration of
/// a relation under the same schema. Returns what it did.
fn direct_write(g: &mut Gen, net: &PdmsNetwork, peer: &str) -> String {
    let rel = if peer == "D" { *g.pick(&["r", "s"]) } else { "u" };
    let qualified = format!("{peer}.{rel}");
    let peer = net.peer(peer).expect("a member");
    peer.storage.write(|c| match g.random_range(0..4u8) {
        0 => {
            let row = random_row(g);
            c.insert(&qualified, row.clone());
            format!("insert {row:?} into {qualified}")
        }
        1 if !c.get(&qualified).expect("D stores it").is_empty() => {
            let row = g.pick(c.get(&qualified).expect("D stores it").rows()).clone();
            let removed = c.delete(&qualified, &row);
            format!("delete {row:?} from {qualified} ({removed} copies)")
        }
        1 | 2 => {
            let row = random_row(g);
            let removed = c.delete(&qualified, &row);
            format!("delete maybe-absent {row:?} from {qualified} ({removed} copies)")
        }
        _ => {
            let rows = g.vec(0..8, random_row);
            let n = rows.len();
            c.register(Relation::with_rows(int_pair(qualified.as_str()), rows));
            format!("register {qualified} with {n} rows")
        }
    })
}

/// A random published gram on one of `D`'s relations.
fn published_gram(g: &mut Gen, net: &PdmsNetwork) -> Updategram {
    let relation = format!("D.{}", g.pick(&["r", "s"]));
    let stored = net
        .peer("D")
        .expect("D is a member")
        .storage
        .read(|c| c.get(&relation).expect("D stores it").rows().to_vec());
    let mut delete = g.vec(0..3, random_row);
    if !stored.is_empty() && g.random_bool(0.6) {
        let row = g.pick(&stored).clone();
        delete.push(row.clone());
        delete.push(row);
    }
    Updategram { relation, insert: g.vec(0..3, random_row), delete }
}

/// Drive one seeded schedule of publishes, direct writes, checkpoints
/// and clean restarts of `D`, direct writes on `M`, the mapping
/// `M.u ⟶ V.t`, `M` leaving and rejoining, and `M`'s storage swapped;
/// after every step, sync and hold each subscription to a one-shot
/// query at its peer.
fn run_durable_case(case: u64, steps: usize) {
    let mut g = case_gen(case);
    let mut net = durable_network(&mut g);
    for (name, peer, text) in DURABLE_SUBSCRIPTIONS {
        net.subscribe_str(peer, name, text).expect("subscribes");
    }
    let mut mapped_m = false;
    for step in 0..steps {
        let m_member = net.peer("M").is_some();
        let what = match g.random_range(0..15u8) {
            0..=2 => {
                let gram = published_gram(&mut g, &net);
                net.publish(&gram).expect("D stores the relation");
                format!("publish {gram:?}")
            }
            3..=5 => {
                let mut what = direct_write(&mut g, &net, "D");
                // A checkpoint may land before anyone reads the write.
                if g.random_bool(0.3) {
                    net.checkpoint_peer("D").expect("D is durable");
                    what.push_str(", then checkpoint");
                }
                what
            }
            6 => {
                net.checkpoint_peer("D").expect("D is durable");
                "checkpoint".to_string()
            }
            7 => {
                net.restart_peer("D").expect("D restarts cleanly");
                "restart".to_string()
            }
            8..=10 if m_member => direct_write(&mut g, &net, "M"),
            11 if m_member && !mapped_m => {
                mapped_m = true;
                let rule = "m(A, B) :- M.u(A, B) ==> m(A, B) :- V.t(A, B)";
                net.add_mapping(GlavMapping::parse("mu", "M", "V", rule).expect("parses"));
                "add mapping M.u ⟶ V.t".to_string()
            }
            12 if m_member => {
                let rows = g.vec(0..8, random_row);
                let mut catalog = Catalog::new();
                catalog.register(Relation::with_rows(int_pair("M.u"), rows));
                let peer = net.peer_mut("M").expect("M is a member");
                peer.storage = revere::storage::SharedCatalog::new(catalog);
                "swap M's storage".to_string()
            }
            13 if m_member => {
                net.remove_peer("M");
                "remove M".to_string()
            }
            _ if !m_member => {
                let m = memory_peer(&mut g);
                net.add_peer(m);
                "re-add M".to_string()
            }
            _ => "nothing".to_string(),
        };
        net.sync_subscriptions();
        for (name, peer, text) in DURABLE_SUBSCRIPTIONS {
            let oneshot = net.query_str(peer, text).expect("query runs").answers;
            assert_eq!(
                net.subscription(name).expect("subscribed").answers().rows(),
                oneshot.rows(),
                "case {case}, step {step} ({what}): subscription `{name}` drifted"
            );
        }
    }
}

#[test]
fn subscriptions_equal_one_shot_queries_under_every_change_path() {
    for case in 0..8u64 {
        run_durable_case(70_000 + case, 60);
    }
}
