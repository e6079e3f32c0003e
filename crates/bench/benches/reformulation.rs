//! Bench (in-repo harness) for E2: reformulation time vs chain length, with the
//! pruning heuristics on and off; and `query_churn`'s reformulations — the
//! twelve course templates over the 10-peer overlay, where each two-atom
//! template expands into 100 disjuncts.

use revere_util::criterion::{criterion_group, criterion_main, BenchmarkId, Criterion};
use revere_pdms::{ReformulateOptions, Reformulator};
use revere_query::{parse_query, GlavMapping};
use revere_workload::{course_templates, Topology, TopologyKind};

fn chain_mappings(k: usize) -> Vec<GlavMapping> {
    (1..k)
        .map(|i| {
            GlavMapping::parse(
                format!("m{i}"),
                format!("P{}", i - 1),
                format!("P{i}"),
                &format!(
                    "m(T, E) :- P{}.course(T, E) ==> m(T, E) :- P{i}.course(T, E)",
                    i - 1
                ),
            )
            .expect("mapping parses")
        })
        .collect()
}

fn bench_reformulation(c: &mut Criterion) {
    let mut group = c.benchmark_group("reformulation_chain");
    for k in [2usize, 4, 6, 8] {
        let mappings = chain_mappings(k);
        let q = parse_query(&format!("q(T, E) :- P{}.course(T, E)", k - 1)).unwrap();
        for pruning in [true, false] {
            let label = if pruning { "pruned" } else { "unpruned" };
            let reformulator = Reformulator::new(
                mappings.clone(),
                ReformulateOptions { pruning, ..Default::default() },
            );
            group.bench_with_input(BenchmarkId::new(label, k), &q, |b, q| {
                b.iter(|| reformulator.reformulate(std::hint::black_box(q)))
            });
        }
    }
    group.finish();
}

/// The end-to-end benchmark's course overlay: a `Random { extra: 2 }`
/// topology (shape seed 1013) with one identity mapping per edge.
fn overlay_mappings(peers: usize) -> Vec<GlavMapping> {
    Topology::generate(TopologyKind::Random { extra: 2 }, peers, 1013)
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
            .expect("mapping parses")
        })
        .collect()
}

fn bench_overlay(c: &mut Criterion) {
    let peers = 10;
    let reformulator = Reformulator::new(
        overlay_mappings(peers),
        ReformulateOptions { max_depth: peers, ..Default::default() },
    );
    let templates: Vec<_> = course_templates("P0", 12)
        .iter()
        .map(|t| parse_query(t).expect("template parses"))
        .collect();
    let mut group = c.benchmark_group("reformulation_overlay");
    group.sample_size(10);
    // One template of each shape: two selections (10 disjuncts each),
    // enrollment self-join and constant-title probe (100 each).
    for (i, shape) in ["select_gt", "select_lt", "self_join", "probe"].into_iter().enumerate() {
        group.bench_with_input(BenchmarkId::new(shape, peers), &templates[i], |b, q| {
            b.iter(|| reformulator.reformulate(std::hint::black_box(q)))
        });
    }
    group.bench_function("all_12", |b| {
        b.iter(|| {
            for q in &templates {
                std::hint::black_box(reformulator.reformulate(q));
            }
        })
    });
    group.finish();
}

criterion_group!(benches, bench_reformulation, bench_overlay);
criterion_main!(benches);
