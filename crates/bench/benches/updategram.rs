//! Bench (in-repo harness) for E8: incremental updategram maintenance vs full
//! view recomputation across delta sizes, and the write path's fan-out of
//! one small batch through many circuit-backed views.

use revere_util::criterion::{criterion_group, criterion_main, BenchmarkId, Criterion};
use revere_bench::fixtures::big_relation;
use revere_pdms::{maintain, MaintenanceChoice, MaterializedView, Updategram};
use revere_query::parse_query;
use revere_storage::{Attribute, Catalog, RelSchema, Relation, Tuple, Value, ZSetBatch};

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

/// Subscribers of the fan-out case, all maintaining the same join.
const SUBSCRIBERS: usize = 100;
/// Join-column domain of the fan-out case.
const FANOUT_DOMAIN: i64 = 200;

/// The write path's fan-out: one 4-insert/4-delete batch pushed through
/// 100 circuit-backed views of `r ⋈ s` over 2 000 × 400 rows. Each batch
/// inserts four fresh `r` rows and retracts the previous batch's four,
/// so the state the circuits hold is stationary across iterations.
fn bench_subscriber_fanout(c: &mut Criterion) {
    let mut cat = Catalog::new();
    let mut r = Relation::new(RelSchema::new("r", vec![Attribute::int("a"), Attribute::int("b")]));
    for i in 0..2_000i64 {
        r.insert(vec![Value::Int(i), Value::Int((i * 17 + 5) % FANOUT_DOMAIN)]);
    }
    let mut s = Relation::new(RelSchema::new("s", vec![Attribute::int("b"), Attribute::int("c")]));
    for i in 0..400i64 {
        s.insert(vec![Value::Int(i % FANOUT_DOMAIN), Value::Int((i * 31) % FANOUT_DOMAIN)]);
    }
    cat.register(r);
    cat.register(s);
    let join = parse_query("v(A, C) :- r(A, B), s(B, C)").unwrap();
    let mut views: Vec<MaterializedView> = (0..SUBSCRIBERS)
        .map(|i| MaterializedView::new(format!("sub{i}"), join.clone(), &cat).unwrap())
        .collect();
    let mut fresh = 1_000_000i64;
    let mut live: Vec<Tuple> = Vec::new();
    let mut group = c.benchmark_group("updategram");
    group.sample_size(20);
    group.bench_function("subscriber_fanout", |b| {
        b.iter(|| {
            let mut batch = ZSetBatch::new();
            for row in live.drain(..) {
                batch.add("r", row, -1);
            }
            for _ in 0..4 {
                let row = vec![Value::Int(fresh), Value::Int((fresh * 7) % FANOUT_DOMAIN)];
                fresh += 1;
                batch.add("r", row.clone(), 1);
                live.push(row);
            }
            views.iter_mut().map(|v| v.push(&batch)).sum::<usize>()
        })
    });
    group.finish();
}

criterion_group!(benches, bench_maintenance, bench_subscriber_fanout);
criterion_main!(benches);
