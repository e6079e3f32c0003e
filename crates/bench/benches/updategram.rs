//! Bench (in-repo harness) for E8: incremental updategram maintenance vs full
//! view recomputation across delta sizes.

use revere_util::criterion::{criterion_group, criterion_main, BenchmarkId, Criterion};
use revere_bench::fixtures::big_relation;
use revere_pdms::{maintain, MaintenanceChoice, MaterializedView, Updategram};
use revere_query::parse_query;
use revere_storage::{Catalog, Value};

const BASE: usize = 20_000;
const DOMAIN: i64 = 500;

fn setup() -> (Catalog, MaterializedView) {
    let mut c = Catalog::new();
    c.register(big_relation("r", BASE, DOMAIN));
    c.register(big_relation("s", BASE / 5, DOMAIN));
    let v = MaterializedView::new("v", parse_query("v(A, C) :- r(A, B), s(B, C)").unwrap(), &c)
        .unwrap();
    (c, v)
}

fn gram(delta: usize) -> Updategram {
    Updategram {
        relation: "r".into(),
        insert: (0..delta)
            .map(|i| vec![Value::Int((i as i64 * 7) % DOMAIN), Value::Int((i as i64 * 3) % DOMAIN)])
            .collect(),
        delete: Vec::new(),
    }
}

fn bench_maintenance(c: &mut Criterion) {
    let mut group = c.benchmark_group("view_maintenance");
    group.sample_size(10);
    for delta in [10usize, 200, 4000] {
        group.bench_with_input(BenchmarkId::new("incremental", delta), &delta, |b, &d| {
            b.iter_batched(
                || (setup(), gram(d)),
                |((mut cat, mut view), g)| {
                    maintain(&mut cat, &mut view, &[g], Some(MaintenanceChoice::Incremental))
                        .unwrap()
                },
                revere_util::criterion::BatchSize::LargeInput,
            );
        });
        group.bench_with_input(BenchmarkId::new("recompute", delta), &delta, |b, &d| {
            b.iter_batched(
                || (setup(), gram(d)),
                |((mut cat, mut view), g)| {
                    maintain(&mut cat, &mut view, &[g], Some(MaintenanceChoice::Recompute))
                        .unwrap()
                },
                revere_util::criterion::BatchSize::LargeInput,
            );
        });
    }
    group.finish();
}

criterion_group!(benches, bench_maintenance);
criterion_main!(benches);
