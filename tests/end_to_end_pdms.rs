//! Integration: PDMS query answering across generated universities and
//! topologies (spanning revere-workload, revere-query, revere-pdms).

use revere::prelude::*;
use revere::storage::Attribute;

/// Build a PDMS from `n` single-relation peers connected by `topology`,
/// every peer holding one course row tagged with its own name.
fn build_network(kind: TopologyKind, n: usize, seed: u64) -> PdmsNetwork {
    let topology = Topology::generate(kind, n, seed);
    let mut net = PdmsNetwork::new();
    for i in 0..n {
        let mut p = Peer::new(format!("P{i}"));
        let mut r = Relation::new(RelSchema::new(
            "course",
            vec![Attribute::text("title"), Attribute::int("enrollment")],
        ));
        r.insert(vec![Value::str(format!("Course at P{i}")), Value::Int(10 + i as i64)]);
        p.add_relation(r);
        net.add_peer(p);
    }
    for (idx, (a, b)) in topology.edges.iter().enumerate() {
        net.add_mapping(
            GlavMapping::parse(
                format!("m{idx}"),
                format!("P{a}"),
                format!("P{b}"),
                &format!("m(T, E) :- P{a}.course(T, E) ==> m(T, E) :- P{b}.course(T, E)"),
            )
            .expect("mapping parses"),
        );
    }
    net
}

#[test]
fn chain_reaches_every_peer_from_the_far_end() {
    let n = 6;
    let net = build_network(TopologyKind::Chain, n, 0);
    let out = net
        .query_str(&format!("P{}", n - 1), &format!("q(T, E) :- P{}.course(T, E)", n - 1))
        .unwrap();
    assert_eq!(out.answers.len(), n, "{}", out.answers);
    assert_eq!(out.reformulation.peers_reached.len(), n);
}

#[test]
fn star_reaches_every_peer_from_a_leaf() {
    let n = 7;
    let net = build_network(TopologyKind::Star, n, 0);
    let out = net.query_str("P3", "q(T, E) :- P3.course(T, E)").unwrap();
    assert_eq!(out.answers.len(), n);
}

#[test]
fn random_connected_topology_reaches_all() {
    let n = 8;
    let net = build_network(TopologyKind::Random { extra: 3 }, n, 42);
    let out = net.query_str("P0", "q(T, E) :- P0.course(T, E)").unwrap();
    assert_eq!(out.answers.len(), n, "{}", out.answers);
}

#[test]
fn every_peer_sees_the_same_global_answer_set() {
    // The paper's symmetry claim: any peer can pose the query in its own
    // vocabulary and reach everyone.
    let n = 5;
    let net = build_network(TopologyKind::Tree, n, 0);
    let mut counts = Vec::new();
    for i in 0..n {
        let out = net
            .query_str(&format!("P{i}"), &format!("q(T, E) :- P{i}.course(T, E)"))
            .unwrap();
        counts.push(out.answers.len());
    }
    assert!(counts.iter().all(|&c| c == n), "{counts:?}");
}

#[test]
fn selection_pushes_through_the_whole_network() {
    let n = 5;
    let net = build_network(TopologyKind::Chain, n, 0);
    // enrollment = 10 + i, so E > 12 keeps peers 3 and 4 only.
    let out = net
        .query_str("P0", "q(T, E) :- P0.course(T, E), E > 12")
        .unwrap();
    assert_eq!(out.answers.len(), 2, "{}", out.answers);
}

#[test]
fn disconnected_component_is_unreachable() {
    let mut net = build_network(TopologyKind::Chain, 4, 0);
    // Add an island peer with no mappings.
    let mut island = Peer::new("Island");
    let mut r = Relation::new(RelSchema::new(
        "course",
        vec![Attribute::text("title"), Attribute::int("enrollment")],
    ));
    r.insert(vec![Value::str("Unreachable"), Value::Int(1)]);
    island.add_relation(r);
    net.add_peer(island);
    let out = net.query_str("P0", "q(T, E) :- P0.course(T, E)").unwrap();
    assert_eq!(out.answers.len(), 4);
    assert!(!out.answers.iter().any(|r| r[0] == Value::str("Unreachable")));
}

#[test]
fn university_generator_feeds_real_peers() {
    // Wire two generated universities into a PDMS using their ground
    // truth to author the course mapping (what MatchingAdvisor proposes
    // in the full pipeline).
    let gen = UniversityGenerator { seed: 5, rename_prob: 0.7, rows_per_relation: 8, ..Default::default() };
    let us = gen.generate(2);
    let mut net = PdmsNetwork::new();
    for u in &us {
        let mut p = Peer::new(u.name.clone());
        for name in u.schema.relations.iter().map(|r| r.name.clone()) {
            p.add_relation(u.data.get(&name).unwrap().clone());
        }
        net.add_peer(p);
    }
    // Find each side's (course relation, title attr) from ground truth.
    let course_of = |u: &University| -> (String, String) {
        u.truth
            .attributes
            .iter()
            .find(|(_, v)| v.0 == "course" && v.1 == "title")
            .map(|((r, a), _)| (r.clone(), a.clone()))
            .expect("course.title present")
    };
    let (r0, _) = course_of(&us[0]);
    let (r1, _) = course_of(&us[1]);
    let arity0 = us[0].schema.relation(&r0).unwrap().arity();
    let arity1 = us[1].schema.relation(&r1).unwrap().arity();
    let t0 = us[0].schema.relation(&r0).unwrap().position(&course_of(&us[0]).1).unwrap();
    let t1 = us[1].schema.relation(&r1).unwrap().position(&course_of(&us[1]).1).unwrap();
    let vars = |arity: usize, t: usize, prefix: &str| -> String {
        (0..arity)
            .map(|i| if i == t { "T".to_string() } else { format!("{prefix}{i}") })
            .collect::<Vec<_>>()
            .join(", ")
    };
    let mapping_text = format!(
        "m(T) :- {}.{}({}) ==> m(T) :- {}.{}({})",
        us[0].name,
        r0,
        vars(arity0, t0, "A"),
        us[1].name,
        r1,
        vars(arity1, t1, "B"),
    );
    net.add_mapping(
        GlavMapping::parse("m_univ", us[0].name.clone(), us[1].name.clone(), &mapping_text)
            .expect("generated mapping parses"),
    );
    let q = format!(
        "q(T) :- {}.{}({})",
        us[1].name,
        r1,
        vars(arity1, t1, "B")
    );
    let out = net.query_str(&us[1].name, &q).unwrap();
    // Titles from both universities (8 rows each, possibly with repeats).
    assert!(out.answers.len() > 8, "{}", out.answers);
    assert_eq!(out.peers_contacted.len(), 2);
}
