//! Bench (in-repo harness) for E1/E9: full-network query answering across
//! topologies, corpus statistics computation scaling, and a relation's
//! statistics built from scratch (what registering a relation costs).

use revere_util::criterion::{criterion_group, criterion_main, BenchmarkId, Criterion};
use revere_bench::fixtures::course_network;
use revere_corpus::{Corpus, CorpusEntry, CorpusStats};
use revere_storage::{RelSchema, RelStats, Relation, Value};
use revere_workload::{TopologyKind, UniversityGenerator};

fn bench_reachability(c: &mut Criterion) {
    let mut group = c.benchmark_group("pdms_query");
    group.sample_size(10);
    for n in [4usize, 8, 16] {
        for (kind, label) in [
            (TopologyKind::Chain, "chain"),
            (TopologyKind::Star, "star"),
            (TopologyKind::Random { extra: 2 }, "random"),
        ] {
            let net = course_network(kind, n, 5, 7);
            group.bench_with_input(
                BenchmarkId::new(label, n),
                &net,
                |b, net| {
                    b.iter(|| {
                        net.query_str("P0", "q(T, E) :- P0.course(T, E)")
                            .expect("query runs")
                            .answers
                            .len()
                    })
                },
            );
        }
    }
    group.finish();
}

fn bench_stats(c: &mut Criterion) {
    let mut group = c.benchmark_group("corpus_stats");
    group.sample_size(10);
    for n in [20usize, 100] {
        let gen = UniversityGenerator { seed: 9, rows_per_relation: 5, ..Default::default() };
        let mut corpus = Corpus::new();
        for u in gen.generate(n) {
            let mut e = CorpusEntry::schema_only(u.schema.clone());
            e.data = u.data.clone();
            corpus.add(e);
        }
        group.bench_with_input(BenchmarkId::new("compute", n), &corpus, |b, corp| {
            b.iter(|| CorpusStats::compute(std::hint::black_box(corp)))
        });
        let stats = CorpusStats::compute(&corpus);
        group.bench_with_input(BenchmarkId::new("similar_names", n), &stats, |b, s| {
            b.iter(|| s.similar_names("instructor", 10))
        });
    }
    group.finish();
}

/// `RelStats::compute` over a 4 000 × 4 text relation shaped like the
/// course calendar a MANGROVE render loads into a peer: a key column, and
/// columns with hundreds, dozens and a handful of distinct values.
fn bench_rel_stats(c: &mut Criterion) {
    let rows = (0..4000)
        .map(|i| {
            vec![
                Value::str(format!("course/c{i:04}")),
                Value::str(format!("Title {}", i % 997)),
                Value::str(format!("MWF {}:30", 8 + i % 9)),
                Value::str(format!("Sieg {}", 100 + i % 40)),
            ]
        })
        .collect();
    let rel = Relation::with_rows(RelSchema::text("course", &["id", "title", "time", "room"]), rows);
    let mut group = c.benchmark_group("rel_stats");
    group.sample_size(20);
    group.bench_function("compute_4000x4_text", |b| {
        b.iter(|| RelStats::compute(std::hint::black_box(&rel)))
    });
    group.finish();
}

criterion_group!(benches, bench_reachability, bench_stats, bench_rel_stats);
criterion_main!(benches);
