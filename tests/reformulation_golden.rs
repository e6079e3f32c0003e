//! Reformulation is a pure function of the query and the mapping graph.
//!
//! Two contracts, both over the benchmark's course overlays (a
//! `Random { extra: 2 }` topology of identity `course(T, E)` mappings,
//! seeded as `crates/e2e` seeds them, with the twelve `course_templates`
//! posed at `P0`):
//!
//! * **Golden output.** Every disjunct's canonical key, in union order,
//!   and the four search counters of each query equal what
//!   `tests/golden/reformulation.txt` records. The pruning heuristics may
//!   get faster; they may not change what they keep or what they count.
//! * **Purity.** Reformulating the same query twice, once on another
//!   thread, spells every disjunct the same way: fresh variable names come
//!   from the query being unfolded, not from state shared across calls.

use revere::prelude::*;
use std::fmt::Write as _;
use std::path::Path;

/// The seed `crates/e2e` draws its overlay's shape from.
const SHAPE_SEED: u64 = 1013;

/// The overlay `query_warm` (6 peers) and `query_churn` (10 peers) query:
/// one identity mapping per topology edge, searched to the graph's depth.
fn overlay(peers: usize) -> Reformulator {
    let topology = Topology::generate(TopologyKind::Random { extra: 2 }, peers, SHAPE_SEED);
    let mappings = topology
        .edges
        .iter()
        .enumerate()
        .map(|(idx, (a, b))| {
            GlavMapping::parse(
                format!("m{idx}"),
                format!("P{a}"),
                format!("P{b}"),
                &format!("m(T, E) :- P{a}.course(T, E) ==> m(T, E) :- P{b}.course(T, E)"),
            )
            .expect("identity mapping parses")
        })
        .collect();
    let options = ReformulateOptions { max_depth: peers.max(8), ..Default::default() };
    Reformulator::new(mappings, options)
}

/// One block per (overlay, template): the query, its counters, then one
/// canonical key per disjunct.
fn render() -> String {
    let mut out = String::new();
    for peers in [6, 10] {
        let reformulator = overlay(peers);
        for template in course_templates("P0", 12) {
            let q = parse_query(&template).expect("template parses");
            let r = reformulator.reformulate(&q);
            let _ = writeln!(out, "# peers={peers} {template}");
            let _ = writeln!(
                out,
                "nodes_expanded={} candidates_generated={} pruned_by_containment={} \
                 pruned_by_visited={} disjuncts={}",
                r.nodes_expanded,
                r.candidates_generated,
                r.pruned_by_containment,
                r.pruned_by_visited,
                r.union.len()
            );
            for d in &r.union.disjuncts {
                let _ = writeln!(out, "{}", d.canonical_key());
            }
        }
    }
    out
}

#[test]
fn reformulation_matches_the_golden_file() {
    let path = Path::new(env!("CARGO_MANIFEST_DIR")).join("../../tests/golden/reformulation.txt");
    let golden = std::fs::read_to_string(&path).expect("tests/golden/reformulation.txt");
    let actual = render();
    if actual != golden {
        let at = actual
            .lines()
            .zip(golden.lines())
            .position(|(a, g)| a != g)
            .unwrap_or_else(|| actual.lines().count().min(golden.lines().count()));
        panic!(
            "reformulation output differs from the golden file at line {}:\n  golden: {:?}\n  actual: {:?}",
            at + 1,
            golden.lines().nth(at),
            actual.lines().nth(at)
        );
    }
}

#[test]
fn reformulation_is_a_pure_function() {
    // The 10-peer overlay's enrollment self-join: a hundred disjuncts,
    // each unfolded through two goals at every hop.
    let template = course_templates("P0", 12)
        .into_iter()
        .find(|t| t.starts_with("q(T, U)"))
        .expect("a self-join template");
    let spell = move || {
        let q = parse_query(&template).expect("template parses");
        overlay(10)
            .reformulate(&q)
            .union
            .disjuncts
            .iter()
            .map(ToString::to_string)
            .collect::<Vec<String>>()
    };
    let here = spell();
    let there = std::thread::spawn(spell.clone()).join().expect("reformulation thread");
    assert!(here.len() > 50, "the self-join reaches the whole overlay: {}", here.len());
    assert_eq!(here.len(), there.len(), "the same query reformulated twice");
    if let Some(k) = (0..here.len()).find(|&k| here[k] != there[k]) {
        panic!(
            "the same query reformulated twice spells disjunct {k} two ways:\n  {}\n  {}",
            here[k], there[k]
        );
    }
}
