//! Materialized views, updategrams and data placement (§3.1.2).
//!
//! The paper's Piazza section sketches three run-time mechanisms beyond
//! query answering: materializing views at peers, maintaining them with
//! updategrams ("updates as first-class citizens"), and choosing between
//! incremental maintenance and recomputation "in a cost-based fashion".
//! This example runs all three on one network.
//!
//! Run with: `cargo run --release --example views_and_updates`

use revere::pdms::placement::{answer_with_plan, plan_placement, WorkloadEntry};
use revere::prelude::*;
use std::time::Instant;

fn main() {
    // A 5-peer chain, each peer holding 2k course rows.
    let mut net = PdmsNetwork::new();
    for i in 0..5 {
        let mut p = Peer::new(format!("P{i}"));
        let mut r = Relation::new(RelSchema::new(
            "course",
            vec![
                revere::storage::Attribute::text("title"),
                revere::storage::Attribute::int("enrollment"),
            ],
        ));
        for k in 0..2000 {
            r.insert(vec![
                Value::str(format!("C{k}@P{i}")),
                Value::Int(((k * 13 + i * 7) % 400) as i64),
            ]);
        }
        p.add_relation(r);
        net.add_peer(p);
    }
    for i in 1..5 {
        net.add_mapping(
            GlavMapping::parse(
                format!("m{i}"),
                format!("P{}", i - 1),
                format!("P{i}"),
                &format!(
                    "m(T, E) :- P{}.course(T, E) ==> m(T, E) :- P{i}.course(T, E)",
                    i - 1
                ),
            )
            .expect("mapping parses"),
        );
    }

    // ------------------------------------------------------------------
    // 1. Data placement: P4's hot query gets its answer materialized.
    // ------------------------------------------------------------------
    let hot = parse_query("q(T, E) :- P4.course(T, E), E > 350").unwrap();
    let workload = vec![WorkloadEntry { peer: "P4".into(), query: hot.clone(), frequency: 50.0 }];
    let before = net.query("P4", &hot).expect("query runs");
    let plan = plan_placement(&mut net, &workload, 1_000_000);
    let (answers, messages) = answer_with_plan(&net, &plan, "P4", &hot).expect("planned query runs");
    println!(
        "placement: hot query cost {} messages / {} tuples shipped before; {} messages after \
         ({} placed tuples)",
        before.messages,
        before.tuples_shipped,
        messages,
        plan.placements.iter().map(|p| p.rows).sum::<usize>()
    );
    assert_eq!(messages, 0);
    assert_eq!(answers.rows(), before.answers.rows());

    // The placed view is a subscription: a publish two peers away reaches
    // it, so the local answer still equals re-asking the network.
    let gram = Updategram {
        relation: "P2.course".into(),
        insert: vec![vec![Value::str("Fresh@P2"), Value::Int(399)]],
        delete: vec![vec![Value::str("C27@P2"), Value::Int(365)]],
    };
    let report = net.publish(&gram).expect("publish applies");
    let live = net.query("P4", &hot).expect("query runs");
    let (answers, messages) = answer_with_plan(&net, &plan, "P4", &hot).expect("planned query runs");
    println!(
        "after a publish at P2: {} view(s) refreshed, {} rows served locally at {} messages \
         (asking the network: {} messages)",
        report.refreshed.len(),
        answers.len(),
        messages,
        live.messages
    );
    assert_eq!(messages, 0);
    assert_ne!(live.answers.rows(), before.answers.rows(), "the publish changed the answer");
    assert_eq!(answers.rows(), live.answers.rows(), "placed view went stale");

    // ------------------------------------------------------------------
    // 2. A materialized join view at P0, maintained by updategrams.
    // ------------------------------------------------------------------
    // The view joins P0's courses with a local "popular" side table.
    let mut catalog = Catalog::new();
    catalog.register(net.peer("P0").unwrap().storage.snapshot("P0.course").unwrap());
    let mut tags = Relation::new(RelSchema::new(
        "tags",
        vec![
            revere::storage::Attribute::int("enrollment"),
            revere::storage::Attribute::text("tag"),
        ],
    ));
    for e in 0..400 {
        tags.insert(vec![
            Value::Int(e),
            Value::str(if e > 300 { "huge" } else { "normal" }),
        ]);
    }
    catalog.register(tags);
    let def = parse_query("v(T, Tag) :- P0.course(T, E), tags(E, Tag)").unwrap();
    let mut view = MaterializedView::new("v", def, &catalog).expect("view seeds");
    println!("\nview materialized: {} tuples, {} derivations", view.len(), view.as_bag().len());

    // A burst of small updategrams: incremental is chosen and fast.
    let gram = Updategram {
        relation: "P0.course".into(),
        insert: vec![
            vec![Value::str("NewCourse1"), Value::Int(399)],
            vec![Value::str("NewCourse2"), Value::Int(10)],
        ],
        delete: vec![vec![Value::str("C0@P0"), Value::Int(0)]],
    };
    let start = Instant::now();
    let report = maintain(&mut catalog, &mut view, &[gram], None).expect("maintenance runs");
    println!(
        "small updategram: optimizer chose {:?} (est inc {} vs recompute {}), {:?}",
        report.choice, report.est_incremental, report.est_recompute, start.elapsed()
    );
    assert_eq!(report.choice, MaintenanceChoice::Incremental);
    assert!(view.as_relation().contains(&vec![Value::str("NewCourse1"), Value::str("huge")]));

    // A bulk load: the optimizer flips to recomputation.
    let bulk = Updategram {
        relation: "P0.course".into(),
        insert: (0..20_000)
            .map(|k| vec![Value::str(format!("Bulk{k}")), Value::Int(k % 400)])
            .collect(),
        delete: Vec::new(),
    };
    let report = maintain(&mut catalog, &mut view, &[bulk], None).expect("maintenance runs");
    println!(
        "bulk updategram: optimizer chose {:?} (est inc {} vs recompute {})",
        report.choice, report.est_incremental, report.est_recompute
    );
    assert_eq!(report.choice, MaintenanceChoice::Recompute);

    // Consistency check: the view equals a fresh recompute.
    let fresh = eval_cq(&view.definition, &catalog).unwrap().sorted();
    assert_eq!(view.as_relation().rows(), fresh.rows());
    println!("view verified against full recompute: {} tuples", view.len());

    // Done with the placement plan: take its views back, or the network
    // would go on maintaining them for nobody.
    plan.retire(&mut net);
    assert_eq!(net.subscription_names().count(), 0);
    println!("\nviews_and_updates OK");
}
