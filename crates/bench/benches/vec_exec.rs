//! Bench (in-repo harness) for the columnar join engine: filtered scans
//! and hash self-joins over a synthetic fact table (50 000 rows, and a
//! 40-row scan and self-join that isolate the fixed per-call cost), timed
//! both as the bindings-only kernel ([`eval_bindings`]), as the full evaluation
//! including answer materialization ([`eval_planned`]), as that
//! evaluation under set semantics ([`Relation::distinct`] of the bag,
//! which leaves the engine in head order: one linear pass), and as the
//! seed of
//! a continuous query on the same plan ([`Circuit::new`] +
//! [`Circuit::init_full`]), whose first round is that same answer: the
//! `seed/` to `full/` ratio is what a subscribe pays over a one-shot
//! query. Absolute times; the per-layer trajectory lives in `revere-e2e`
//! (`query.vec.kernel_self_us_per_op`).

use revere_query::dataflow::Circuit;
use revere_query::parse::parse_query;
use revere_query::plan::plan_cq;
use revere_query::{eval_bindings, eval_planned};
use revere_storage::{Attribute, Catalog, RelSchema, Relation, Value};
use revere_util::criterion::{criterion_group, criterion_main, Criterion};
use revere_util::obs::{Obs, SpanHandle};

/// `fact(key Int, tag Str, val Int)`: 1024 join keys, 16 tags, 300
/// values.
fn fact_catalog(rows: usize) -> Catalog {
    let mut r = Relation::new(RelSchema::new(
        "fact",
        vec![Attribute::int("key"), Attribute::text("tag"), Attribute::int("val")],
    ));
    for i in 0..rows {
        r.insert(vec![
            Value::Int((i as i64 * 37) % 1024),
            Value::str(format!("t{}", i % 16)),
            Value::Int((i as i64 * 13) % 300),
        ]);
    }
    let mut catalog = Catalog::new();
    catalog.register(r);
    catalog
}

fn bench_vec_exec(c: &mut Criterion) {
    let mut group = c.benchmark_group("vec_exec");
    group.sample_size(10);
    let (large, small) = (fact_catalog(50_000), fact_catalog(40));
    let queries = [
        ("filter_scan", "q(K, V) :- fact(K, T, V), V < 30", &large),
        ("self_join", "q(K, W) :- fact(K, T, V), fact(V, U, W), W >= 280", &large),
        // A 40-row scan, the size of one disjunct of a small-data query:
        // what is left is the fixed cost every evaluation pays.
        ("filter_scan_small", "q(K, V) :- fact(K, T, V), V < 30", &small),
        // Its keyed-build twin: the 40 rows joined to themselves on `val`,
        // then filtered — a build index, a probe and a comparison pass.
        ("self_join_small", "q(K, W) :- fact(K, T, V), fact(W, U, V), V < 30", &small),
    ];
    for (name, text, catalog) in queries {
        let q = parse_query(text).expect("bench query parses");
        let plan = plan_cq(&q, catalog);
        group.bench_function(format!("bindings/{name}"), |b| {
            b.iter(|| {
                eval_bindings(
                    &q,
                    &plan,
                    std::hint::black_box(catalog),
                    &Obs::disabled(),
                    &SpanHandle::none(),
                )
                .expect("bench query evaluates")
            })
        });
        group.bench_function(format!("full/{name}"), |b| {
            b.iter(|| {
                eval_planned(
                    &q,
                    &plan,
                    std::hint::black_box(catalog),
                    &Obs::disabled(),
                    &SpanHandle::none(),
                )
                .expect("bench query evaluates")
            })
        });
        group.bench_function(format!("set/{name}"), |b| {
            b.iter(|| {
                eval_planned(
                    &q,
                    &plan,
                    std::hint::black_box(catalog),
                    &Obs::disabled(),
                    &SpanHandle::none(),
                )
                .expect("bench query evaluates")
                .0
                .distinct()
            })
        });
        group.bench_function(format!("seed/{name}"), |b| {
            b.iter(|| {
                let mut circuit = Circuit::new(&q, &plan).expect("the plan applies");
                circuit.init_full(std::hint::black_box(catalog)).expect("bench query seeds");
                circuit
            })
        });
    }
    group.finish();
}

criterion_group!(benches, bench_vec_exec);
criterion_main!(benches);
