//! Integration: the PDMS reformulation/plan caches never serve stale
//! answers.
//!
//! Every test drives two networks through the *same* sequence of queries
//! and mutations — one warm, one a cold-cache twin that clears every
//! cache before each query and records no hit — and asserts the answers
//! stay byte-identical at every step. The mutations are exactly the ones the cache stamps must
//! notice: adding a mapping, removing a peer, and updategram-driven data
//! maintenance flowing through a peer's catalog — and each must
//! invalidate only what was computed from the thing that changed.

use revere::prelude::*;
use revere::storage::Attribute;

const QUERIES: [&str; 3] = [
    "q(T, E) :- A.course(T, E)",
    "q(T) :- A.course(T, E), E > 15",
    "q(T, U) :- A.course(T, E), A.course(U, E)",
];

/// A three-peer line `A — B — C`, each peer holding a different-sized
/// `course` relation; mappings are pure renamings along the line. With
/// `last_mapping` false the `B — C` edge is left out (so a test can add
/// it after warming the caches).
fn build(last_mapping: bool) -> PdmsNetwork {
    let mut net = PdmsNetwork::new();
    for (i, name) in ["A", "B", "C"].iter().enumerate() {
        let mut p = Peer::new(*name);
        let mut r = Relation::new(RelSchema::new(
            "course",
            vec![Attribute::text("title"), Attribute::int("enrollment")],
        ));
        for k in 0..3 + 2 * i {
            r.insert(vec![
                Value::str(format!("Course {k} at {name}")),
                Value::Int((10 + 7 * i + 3 * k) as i64),
            ]);
        }
        p.add_relation(r);
        net.add_peer(p);
    }
    let edges: &[(&str, &str)] = if last_mapping { &[("A", "B"), ("B", "C")] } else { &[("A", "B")] };
    for (i, (a, b)) in edges.iter().enumerate() {
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
    net
}

fn rows(out: &QueryOutcome) -> Vec<Vec<Value>> {
    out.answers.sorted().into_rows()
}

/// Run every probe query on both networks and assert byte-identical
/// answers; returns the total row count (to assert mutations took effect).
fn assert_identical(cached: &PdmsNetwork, cold: &PdmsNetwork, when: &str) -> usize {
    let mut total = 0;
    for q in QUERIES {
        let a = cached.query_str("A", q).expect("cached query runs");
        cold.clear_caches();
        let b = cold.query_str("A", q).expect("cold query runs");
        let stats = cold.cache_stats();
        assert_eq!((stats.reformulation_hits, stats.plan_hits), (0, 0), "{when}: the cold twin hit");
        assert_eq!(rows(&a), rows(&b), "{when}: `{q}` diverged from the cold run");
        total += a.answers.len();
    }
    total
}

#[test]
fn warm_answers_are_byte_identical_and_actually_cached() {
    let cached = build(true);
    let cold = build(true);
    let first = assert_identical(&cached, &cold, "first pass");
    let second = assert_identical(&cached, &cold, "second pass");
    assert_eq!(first, second);
    let stats = cached.cache_stats();
    assert_eq!(stats.reformulation_hits, QUERIES.len(), "second pass should be all hits");
    assert!(stats.plan_hits > 0, "warm pass should reuse plans: {stats:?}");
}

#[test]
fn adding_a_mapping_after_warmup_is_visible_immediately() {
    let mut cached = build(false);
    let mut cold = build(false);
    let before = assert_identical(&cached, &cold, "before add_mapping");
    for net in [&mut cached, &mut cold] {
        net.try_add_mapping(
            GlavMapping::parse(
                "late",
                "B",
                "C",
                "m(T, E) :- B.course(T, E) ==> m(T, E) :- C.course(T, E)",
            )
            .unwrap(),
        )
        .expect("both endpoints exist");
    }
    let after = assert_identical(&cached, &cold, "after add_mapping");
    assert!(after > before, "C's rows should now reach A ({before} -> {after})");
}

#[test]
fn removing_a_peer_after_warmup_stops_its_contribution() {
    let mut cached = build(true);
    let mut cold = build(true);
    let before = assert_identical(&cached, &cold, "before remove_peer");
    for net in [&mut cached, &mut cold] {
        assert!(net.remove_peer("C").is_some());
    }
    let after = assert_identical(&cached, &cold, "after remove_peer");
    assert!(after < before, "C's rows should be gone ({before} -> {after})");
}

#[test]
fn updategram_maintenance_after_warmup_invalidates_warm_plans() {
    let cached = build(true);
    let cold = build(true);
    let before = assert_identical(&cached, &cold, "before updategram");
    // The same maintenance round on each network's copy of peer B: an
    // updategram of new rows flows through `maintain`, which mutates the
    // peer catalog (bumping its stats epoch) while bringing a local
    // materialized view up to date.
    let grams = vec![Updategram::inserts(
        "B.course",
        vec![
            vec![Value::str("late-breaking seminar"), Value::Int(99)],
            vec![Value::str("late-breaking colloquium"), Value::Int(12)],
        ],
    )];
    for net in [&cached, &cold] {
        let view = net.peer("B").unwrap().storage.write(|c| {
            let mut view = MaterializedView::new(
                "B.popular",
                parse_query("popular(T, E) :- B.course(T, E), E > 50").unwrap(),
                c,
            )
            .expect("view seeds");
            maintain(c, &mut view, &grams, None).expect("maintenance applies");
            view
        });
        assert_eq!(view.len(), 1, "the view saw the new row too");
    }
    let after = assert_identical(&cached, &cold, "after updategram");
    assert!(after > before, "inserted rows should reach A ({before} -> {after})");
}

/// Disjuncts of the three probe queries' reformulations that read `owner`.
fn disjuncts_reading(net: &PdmsNetwork, owner: &str) -> usize {
    let prefix = format!("{owner}.");
    QUERIES
        .iter()
        .map(|q| {
            let out = net.query_str("A", q).expect("probe runs");
            out.reformulation
                .union
                .disjuncts
                .iter()
                .filter(|d| d.body.iter().any(|a| a.relation.starts_with(&prefix)))
                .count()
        })
        .sum()
}

#[test]
fn reformulations_survive_data_changes_but_not_topology_changes() {
    let mut cached = build(false);
    let mut cold = build(false);
    for net in [&mut cached, &mut cold] {
        // Freeze the estimator feedback loop: its writes are peer-data
        // changes of their own and would blur the exact counts below
        // (`tests/differential_cache.rs` covers it under caching).
        net.replan_q_error = None;
    }
    assert_identical(&cached, &cold, "cold");
    assert_identical(&cached, &cold, "warm");
    let reading_b = disjuncts_reading(&cached, "B");
    assert!(reading_b > 0, "no disjunct reads the peer the test publishes to");

    // Peer data: a publish re-plans exactly the disjuncts that read the
    // published owner and re-reformulates nothing.
    let rows = vec![vec![Value::str("Churn seminar"), Value::Int(21)]];
    let grams =
        [Updategram::inserts("B.course", rows.clone()), Updategram::deletes("B.course", rows)];
    for gram in grams {
        let before = cached.cache_stats();
        for net in [&mut cached, &mut cold] {
            net.publish(&gram).expect("B stores course");
        }
        assert_identical(&cached, &cold, "after publish");
        let after = cached.cache_stats();
        assert_eq!(after.reformulation_misses, before.reformulation_misses, "{after}");
        assert_eq!(after.reformulation_hits, before.reformulation_hits + QUERIES.len(), "{after}");
        assert_eq!(after.plan_misses, before.plan_misses + reading_b, "{after}");
    }

    // Topology: each of these forces every query to reformulate afresh.
    let late = || {
        let rule = "m(T, E) :- B.course(T, E) ==> m(T, E) :- C.course(T, E)";
        GlavMapping::parse("late", "B", "C", rule).unwrap()
    };
    let swapped = || {
        let mut r = Relation::new(RelSchema::new(
            "course",
            vec![Attribute::text("title"), Attribute::int("enrollment")],
        ));
        r.insert(vec![Value::str("Swapped in at C"), Value::Int(77)]);
        r
    };
    type Change = Box<dyn Fn(&mut PdmsNetwork)>;
    let changes: [(&str, Change); 4] = [
        ("add_mapping", Box::new(move |net| net.add_mapping(late()))),
        ("peer_mut", Box::new(move |net| net.peer_mut("C").unwrap().add_relation(swapped()))),
        (
            "restart_peer",
            Box::new(|net| {
                net.enable_durability("B").expect("B is a member");
                net.restart_peer("B").expect("B recovers from its image");
            }),
        ),
        ("remove_peer", Box::new(|net| assert!(net.remove_peer("C").is_some()))),
    ];
    for (what, change) in &changes {
        for net in [&mut cached, &mut cold] {
            change(net);
        }
        let before = cached.cache_stats();
        assert_identical(&cached, &cold, what);
        let after = cached.cache_stats();
        assert_eq!(
            after.reformulation_misses,
            before.reformulation_misses + QUERIES.len(),
            "{what} left a reformulation cached: {after}"
        );
    }
}

/// The fetch stages each relation by reference: the columnar image the
/// evaluator reads belongs to the rows, not to the per-query staging
/// catalog, so queries share one image per relation until that relation's
/// owner is written to — and a write replaces the image of that relation
/// only. What the simulation *accounts* as shipped does not change: every
/// remote relation still costs its full cardinality and a request/reply
/// pair, on every query.
#[test]
fn queries_share_one_columnar_image_per_relation_until_its_owner_is_written() {
    use std::sync::Arc;
    let mut net = build(true);
    let image = |net: &PdmsNetwork, owner: &str| {
        let snapshot = net.peer(owner).unwrap().snapshot(&format!("{owner}.course"));
        snapshot.expect("every peer stores course").batch()
    };
    let owners = ["A", "B", "C"];
    let first = net.query_str("A", QUERIES[2]).expect("query runs");
    let after_first = owners.map(|o| image(&net, o));
    let second = net.query_str("A", QUERIES[2]).expect("query runs");
    for (o, img) in owners.iter().zip(&after_first) {
        assert!(Arc::ptr_eq(img, &image(&net, o)), "{o}.course was pivoted again");
        // Any other catalog the relation is staged into reads it too.
        let staged = net.snapshot_all();
        assert!(Arc::ptr_eq(img, &staged.get(&format!("{o}.course")).unwrap().batch()));
    }
    // B (5 rows) and C (7 rows) are remote to A: 12 tuples, 2 x 2 messages.
    for out in [&first, &second] {
        assert_eq!((out.tuples_shipped, out.messages), (12, 4));
        assert!(out.completeness.is_complete());
    }
    assert_eq!(first.completeness, second.completeness);
    assert_eq!(rows(&first), rows(&second));

    let late = vec![vec![Value::str("Late addition at B"), Value::Int(24)]];
    net.publish(&Updategram::inserts("B.course", late)).expect("B stores course");
    let third = net.query_str("A", QUERIES[2]).expect("query runs");
    let [a, b, c] = owners.map(|o| image(&net, o));
    assert!(Arc::ptr_eq(&a, &after_first[0]), "a publish to B re-pivoted A.course");
    assert!(Arc::ptr_eq(&c, &after_first[2]), "a publish to B re-pivoted C.course");
    assert!(!Arc::ptr_eq(&b, &after_first[1]), "B.course kept a stale image");
    assert_eq!((after_first[1].rows(), b.rows()), (5, 6), "the old image is left as it was");
    assert_eq!((third.tuples_shipped, third.messages), (13, 4));
    assert_eq!(third.completeness, first.completeness);
    assert!(third.answers.len() > first.answers.len(), "the published row joined nothing");
}
