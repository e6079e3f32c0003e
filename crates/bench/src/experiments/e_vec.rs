//! E18: vectorized columnar execution vs the row engine.
//!
//! ROADMAP item 1 asks for a columnar batch engine "as fast as the
//! hardware allows" behind the existing deterministic facade. E18
//! measures it two ways:
//!
//! * **Per-operator throughput** — scan/materialize, filter, hash build,
//!   and hash probe over a synthetic fact table, row representation vs
//!   columnar ([`revere_storage::ColumnVec`] + selection bitmaps). Each
//!   operator pair computes the same result (asserted), so the ratio is
//!   pure representation cost: per-tuple clones and `Vec<&Value>` key
//!   materialization against typed column loops.
//! * **The E13 realized-bindings hot loop** — the plan-quality probe of
//!   the E13 experiment (evaluate every reformulated disjunct of the
//!   workload templates against the merged snapshot) re-run under
//!   [`ExecMode::Row`] and [`ExecMode::Vectorized`]. Both engines return
//!   byte-identical relations and step profiles (asserted per disjunct);
//!   only the wall-clock differs.
//!
//! Timings are wall-clock and machine-dependent; row counts, realized
//! bindings, and answer checksums are pure functions of the seed. The
//! full-scale report also asserts the hot-loop speedup stays above
//! `REVERE_E18_MIN_SPEEDUP` (default 3) — running the report IS the
//! perf-regression gate, like E15's calibration gate. The floor is a
//! ratio against the row engine and moves with it: it was 5 while the row
//! engine's binding tuples cloned owned `String`s; with `Arc<str>` cells
//! that baseline runs the hot loop ~1.9× faster and the vectorized
//! kernel, which never touched strings, as fast as before. 3× of the new
//! baseline allows the vectorized kernel less absolute time than 5× of
//! the old one did.

use crate::experiments::e_plancache::{plan_cache_network, PlanCacheConfig};
use crate::table::Table;
use revere_query::plan::{plan_cq_with, Strategy};
use revere_query::{
    eval_cq_bag_profiled_obs_mode, eval_cq_bindings_mode, ConjunctiveQuery, ExecMode, Plan,
};
use revere_storage::{Attribute, Catalog, ColumnarBatch, RelSchema, Relation, Tuple, Value};
use revere_util::obs::{Obs, SpanHandle};
use revere_workload::course_templates;
use std::collections::HashMap;
use std::hint::black_box;
use std::time::{Duration, Instant};

/// Default rows in the synthetic fact table of the operator sweep.
pub const OPERATOR_ROWS: usize = 200_000;

/// Distinct join keys in the fact table (`rows / KEY_DOMAIN` matches per
/// probe on average).
const KEY_DOMAIN: i64 = 1024;

/// Hot-loop scale: the E13 overlay with 30× the data, where join work
/// dominates fixed query overheads.
pub fn hot_loop_config() -> PlanCacheConfig {
    PlanCacheConfig { peers: 6, rows_per_peer: 1200, templates: 8, queries: 0 }
}

/// Minimum acceptable hot-loop speedup (vectorized over row) asserted by
/// the full-scale report, overridable via `REVERE_E18_MIN_SPEEDUP`.
fn min_speedup() -> f64 {
    std::env::var("REVERE_E18_MIN_SPEEDUP")
        .ok()
        .and_then(|s| s.trim().parse().ok())
        .unwrap_or(3.0)
}

/// Run `f` `reps` times, returning the minimum elapsed time and the (rep-
/// invariant, asserted) result.
fn time_best<R: PartialEq + std::fmt::Debug>(
    reps: usize,
    mut f: impl FnMut() -> R,
) -> (Duration, R) {
    let mut best: Option<(Duration, R)> = None;
    for _ in 0..reps.max(1) {
        let t = Instant::now();
        let r = black_box(f());
        let dt = t.elapsed();
        match &best {
            Some((b, prev)) => {
                assert_eq!(prev, &r, "benchmark body is not deterministic");
                if dt < *b {
                    best = Some((dt, r));
                }
            }
            None => best = Some((dt, r)),
        }
    }
    best.expect("reps >= 1")
}

/// The synthetic fact table: `fact(key Int, tag Str, val Int)` with
/// `KEY_DOMAIN` join keys, 16 tags, and 300 distinct values.
fn fact_table(rows: usize) -> Relation {
    let mut r = Relation::new(RelSchema::new(
        "fact",
        vec![Attribute::int("key"), Attribute::text("tag"), Attribute::int("val")],
    ));
    for i in 0..rows {
        r.insert(vec![
            Value::Int((i as i64 * 37) % KEY_DOMAIN),
            Value::str(format!("t{}", i % 16)),
            Value::Int((i as i64 * 13) % 300),
        ]);
    }
    r
}

/// One operator measured both ways.
pub struct OperatorPoint {
    /// Operator name.
    pub name: &'static str,
    /// Input rows processed per repetition.
    pub rows: usize,
    /// Output cardinality (identical both ways, asserted).
    pub output: u64,
    /// Best-of-reps row-representation time.
    pub row_t: Duration,
    /// Best-of-reps columnar time.
    pub vec_t: Duration,
}

impl OperatorPoint {
    /// Vectorized speedup over the row representation.
    pub fn speedup(&self) -> f64 {
        self.row_t.as_secs_f64() / self.vec_t.as_secs_f64().max(1e-12)
    }
}

/// Measure scan, filter, hash build, and hash probe at `rows` scale.
/// Every pair is held to identical output cardinality.
pub fn operator_sweep(rows: usize, reps: usize) -> Vec<OperatorPoint> {
    let rel = fact_table(rows);
    let batch = ColumnarBatch::from_relation(&rel);
    let mut points = Vec::new();
    let mut push = |name, output_row: (Duration, u64), output_vec: (Duration, u64)| {
        assert_eq!(output_row.1, output_vec.1, "{name}: row and vectorized outputs diverged");
        points.push(OperatorPoint {
            name,
            rows,
            output: output_row.1,
            row_t: output_row.0,
            vec_t: output_vec.0,
        });
    };

    // Scan/materialize: clone every tuple vs pivot the relation into
    // typed columns (what the vectorized engine does once per query).
    push(
        "scan",
        time_best(reps, || rel.rows().to_vec().len() as u64),
        time_best(reps, || ColumnarBatch::from_relation(&rel).rows() as u64),
    );

    // Filter val = 7: per-tuple compare + clone of survivors vs one
    // `eq_const` bitmap and a gather of all three columns.
    let seven = Value::Int(7);
    push(
        "filter",
        time_best(reps, || {
            rel.iter().filter(|r| r[2] == seven).cloned().collect::<Vec<Tuple>>().len() as u64
        }),
        time_best(reps, || {
            let sel = batch.column(2).eq_const(&seven);
            let cols: Vec<_> = batch.columns().iter().map(|c| c.filter(&sel)).collect();
            cols[0].len() as u64
        }),
    );

    // Hash build on `key`: `Vec<&Value>` keys into tuple-ref buckets vs
    // `i64` keys into row-index buckets.
    push(
        "hash-build",
        time_best(reps, || {
            let mut index: HashMap<Vec<&Value>, Vec<&Tuple>> = HashMap::new();
            for row in rel.iter() {
                index.entry(vec![&row[0]]).or_default().push(row);
            }
            index.len() as u64
        }),
        time_best(reps, || {
            let keys = batch.column(0).as_ints().expect("int key column");
            let mut index: HashMap<i64, Vec<u32>> = HashMap::new();
            for (i, k) in keys.iter().enumerate() {
                index.entry(*k).or_default().push(i as u32);
            }
            index.len() as u64
        }),
    );

    // Probe with 4096 bindings: per-binding key vector + clone-extend of
    // each match vs typed lookups emitting index pairs, then one gather.
    let bindings: Vec<Tuple> =
        (0..4096).map(|i| vec![Value::Int((i as i64 * 7) % KEY_DOMAIN)]).collect();
    let row_index: HashMap<Vec<&Value>, Vec<&Tuple>> = {
        let mut index: HashMap<Vec<&Value>, Vec<&Tuple>> = HashMap::new();
        for row in rel.iter() {
            index.entry(vec![&row[0]]).or_default().push(row);
        }
        index
    };
    let vec_index: HashMap<i64, Vec<u32>> = {
        let keys = batch.column(0).as_ints().expect("int key column");
        let mut index: HashMap<i64, Vec<u32>> = HashMap::new();
        for (i, k) in keys.iter().enumerate() {
            index.entry(*k).or_default().push(i as u32);
        }
        index
    };
    let probe_keys: Vec<i64> = bindings
        .iter()
        .map(|b| match &b[0] {
            Value::Int(k) => *k,
            _ => unreachable!(),
        })
        .collect();
    push(
        "probe",
        time_best(reps, || {
            let mut out: Vec<Tuple> = Vec::new();
            for binding in &bindings {
                let key: Vec<&Value> = vec![&binding[0]];
                if let Some(matches) = row_index.get(&key) {
                    for m in matches {
                        let mut extended = binding.clone();
                        extended.push(m[2].clone());
                        out.push(extended);
                    }
                }
            }
            out.len() as u64
        }),
        time_best(reps, || {
            let mut probe_idx: Vec<u32> = Vec::new();
            let mut build_idx: Vec<u32> = Vec::new();
            for (p, k) in probe_keys.iter().enumerate() {
                if let Some(matches) = vec_index.get(k) {
                    for &m in matches {
                        probe_idx.push(p as u32);
                        build_idx.push(m);
                    }
                }
            }
            let vals = batch.column(2).gather(&build_idx);
            (vals.len().min(probe_idx.len())) as u64
        }),
    );
    points
}

/// One template shape of the hot loop, with its disjuncts evaluated under
/// both engines — the binding-realization kernel (the gated metric) and
/// the full evaluation including answer materialization (for context: the
/// answer copy-out allocates identical owned tuples in both engines, so
/// answer-heavy shapes dilute the end-to-end ratio toward 1).
pub struct HotLoopPoint {
    /// Template shape label.
    pub label: &'static str,
    /// Reformulated disjuncts evaluated.
    pub disjuncts: usize,
    /// Total realized bindings over all steps (identical both engines).
    pub bindings: usize,
    /// Total answer rows (identical both engines).
    pub answers: usize,
    /// Best-of-reps binding-realization time, row engine.
    pub row_t: Duration,
    /// Best-of-reps binding-realization time, vectorized engine.
    pub vec_t: Duration,
    /// Best-of-reps full evaluation (bindings + answers), row engine.
    pub row_full_t: Duration,
    /// Best-of-reps full evaluation, vectorized engine.
    pub vec_full_t: Duration,
}

impl HotLoopPoint {
    /// Vectorized speedup over the row engine on binding realization.
    pub fn speedup(&self) -> f64 {
        self.row_t.as_secs_f64() / self.vec_t.as_secs_f64().max(1e-12)
    }

    /// Vectorized speedup on the full evaluation (answers materialized).
    pub fn full_speedup(&self) -> f64 {
        self.row_full_t.as_secs_f64() / self.vec_full_t.as_secs_f64().max(1e-12)
    }
}

fn eval_mode(
    d: &ConjunctiveQuery,
    plan: &Plan,
    snapshot: &Catalog,
    mode: ExecMode,
) -> (Relation, Vec<usize>) {
    let (rel, profiles) = eval_cq_bag_profiled_obs_mode(
        d,
        plan,
        snapshot,
        &Obs::disabled(),
        &SpanHandle::none(),
        mode,
    )
    .expect("disjunct evaluates");
    (rel, profiles.iter().map(|p| p.bindings).collect())
}

/// The hot-loop kernel: realize the bindings of one disjunct (join
/// pipeline + comparisons, no answer copy-out) and return the total
/// realized bindings — what the E13 q-error feedback actually consumes.
fn bindings_mode(d: &ConjunctiveQuery, plan: &Plan, snapshot: &Catalog, mode: ExecMode) -> u64 {
    let (_, profiles) =
        eval_cq_bindings_mode(d, plan, snapshot, &Obs::disabled(), &SpanHandle::none(), mode)
            .expect("disjunct evaluates");
    profiles.iter().map(|p| p.bindings as u64).sum()
}

/// Re-run the E13 realized-bindings probe under both engines: every
/// reformulated disjunct of the workload templates, planned cost-based,
/// evaluated against the merged snapshot. Grouped by template shape so
/// the speedup is attributable to the join pattern.
pub fn hot_loop_sweep_with(cfg: PlanCacheConfig, reps: usize) -> Vec<HotLoopPoint> {
    let net = plan_cache_network(&cfg);
    let snapshot = net.snapshot_all();
    let labels = ["scan E>t", "scan E<t", "self-join on E", "const-probe join"];
    let mut groups: Vec<Vec<(ConjunctiveQuery, Plan)>> = vec![Vec::new(); labels.len()];
    for (i, text) in course_templates("P0", cfg.templates).iter().enumerate() {
        let out = net.query_str("P0", text).expect("template query runs");
        for d in &out.reformulation.union.disjuncts {
            let plan = plan_cq_with(d, &snapshot, Strategy::CostBased);
            groups[i % labels.len()].push((d.clone(), plan));
        }
    }
    labels
        .iter()
        .zip(groups)
        .map(|(label, work)| {
            // Correctness once, outside the timed loops: byte-identical
            // relations (including row order) and identical per-step
            // binding traces from both engines.
            let (mut bindings, mut answers) = (0usize, 0usize);
            for (d, plan) in &work {
                let (row_rel, row_steps) = eval_mode(d, plan, &snapshot, ExecMode::Row);
                let (vec_rel, vec_steps) = eval_mode(d, plan, &snapshot, ExecMode::Vectorized);
                assert_eq!(row_rel.rows(), vec_rel.rows(), "{label}: engines diverged on {d}");
                assert_eq!(row_steps, vec_steps, "{label}: step traces diverged on {d}");
                for mode in [ExecMode::Row, ExecMode::Vectorized] {
                    assert_eq!(
                        bindings_mode(d, plan, &snapshot, mode),
                        row_steps.iter().sum::<usize>() as u64,
                        "{label}: {mode} bindings kernel diverged from full eval on {d}"
                    );
                }
                bindings += row_steps.iter().sum::<usize>();
                answers += row_rel.len();
            }
            let run = |mode: ExecMode| {
                time_best(reps, || {
                    work.iter()
                        .map(|(d, plan)| bindings_mode(d, plan, &snapshot, mode))
                        .sum::<u64>()
                })
            };
            let run_full = |mode: ExecMode| {
                time_best(reps, || {
                    work.iter()
                        .map(|(d, plan)| eval_mode(d, plan, &snapshot, mode).0.len() as u64)
                        .sum::<u64>()
                })
            };
            let (row_t, _) = run(ExecMode::Row);
            let (vec_t, _) = run(ExecMode::Vectorized);
            let (row_full_t, _) = run_full(ExecMode::Row);
            let (vec_full_t, _) = run_full(ExecMode::Vectorized);
            HotLoopPoint {
                label,
                disjuncts: work.len(),
                bindings,
                answers,
                row_t,
                vec_t,
                row_full_t,
                vec_full_t,
            }
        })
        .collect()
}

fn ms(d: Duration) -> String {
    format!("{:.2}", d.as_secs_f64() * 1e3)
}

/// E18a — per-operator throughput, row vs columnar representation.
pub fn e18_operators() -> Table {
    let mut t = Table::new(
        "E18a: per-operator throughput, row vs vectorized (fact table, 200k rows)",
        &["operator", "rows", "output", "row ms", "vec ms", "row Melem/s", "vec Melem/s", "speedup"],
    );
    for p in operator_sweep(OPERATOR_ROWS, 3) {
        let melems = |d: Duration| p.rows as f64 / d.as_secs_f64().max(1e-12) / 1e6;
        t.row(vec![
            p.name.to_string(),
            p.rows.to_string(),
            p.output.to_string(),
            ms(p.row_t),
            ms(p.vec_t),
            format!("{:.0}", melems(p.row_t)),
            format!("{:.0}", melems(p.vec_t)),
            format!("{:.1}x", p.speedup()),
        ]);
    }
    t
}

/// E18b — the E13 realized-bindings hot loop under both engines. The
/// gated metric ("bind" columns, `REVERE_E18_MIN_SPEEDUP`) is binding
/// realization via [`eval_cq_bindings_mode`]: the join pipeline and
/// comparison filters, the part the engines actually differ on and the
/// part the E13 q-error loop consumes. The "full" columns include answer
/// materialization — an identical owned-tuple copy-out in both engines —
/// for end-to-end context.
pub fn e18_hot_loop() -> Table {
    let points = hot_loop_sweep_with(hot_loop_config(), 3);
    let mut t = Table::new(
        "E18b: E13 realized-bindings hot loop, row vs vectorized engine (6 peers, 1200-3600 rows/peer)",
        &[
            "template",
            "disjuncts",
            "bindings",
            "answers",
            "bind row ms",
            "bind vec ms",
            "bind speedup",
            "full row ms",
            "full vec ms",
            "full speedup",
        ],
    );
    let mut totals = [Duration::ZERO; 4];
    for p in &points {
        totals[0] += p.row_t;
        totals[1] += p.vec_t;
        totals[2] += p.row_full_t;
        totals[3] += p.vec_full_t;
        t.row(vec![
            p.label.to_string(),
            p.disjuncts.to_string(),
            p.bindings.to_string(),
            p.answers.to_string(),
            ms(p.row_t),
            ms(p.vec_t),
            format!("{:.1}x", p.speedup()),
            ms(p.row_full_t),
            ms(p.vec_full_t),
            format!("{:.1}x", p.full_speedup()),
        ]);
    }
    let total_speedup = totals[0].as_secs_f64() / totals[1].as_secs_f64().max(1e-12);
    let total_full = totals[2].as_secs_f64() / totals[3].as_secs_f64().max(1e-12);
    t.row(vec![
        "TOTAL".to_string(),
        points.iter().map(|p| p.disjuncts).sum::<usize>().to_string(),
        points.iter().map(|p| p.bindings).sum::<usize>().to_string(),
        points.iter().map(|p| p.answers).sum::<usize>().to_string(),
        ms(totals[0]),
        ms(totals[1]),
        format!("{total_speedup:.1}x"),
        ms(totals[2]),
        ms(totals[3]),
        format!("{total_full:.1}x"),
    ]);
    assert!(
        total_speedup >= min_speedup(),
        "E18 hot-loop speedup regressed: {total_speedup:.2}x < {:.2}x \
         (override with REVERE_E18_MIN_SPEEDUP)",
        min_speedup()
    );
    t
}

/// Both E18 tables.
pub fn e18_tables() -> Vec<Table> {
    vec![e18_operators(), e18_hot_loop()]
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn operators_agree_and_report() {
        // The parity asserts live inside operator_sweep; a small scale
        // keeps the smoke fast.
        let points = operator_sweep(20_000, 1);
        assert_eq!(points.len(), 4);
        for p in &points {
            assert!(p.output > 0, "{} produced nothing", p.name);
        }
    }

    #[test]
    fn hot_loop_is_deterministic_and_engines_agree() {
        let cfg = PlanCacheConfig { peers: 3, rows_per_peer: 60, templates: 4, queries: 0 };
        // Engine-equality asserts live inside the sweep (full answers and
        // step traces per disjunct, plus bindings-kernel counts).
        let a = hot_loop_sweep_with(cfg, 1);
        let b = hot_loop_sweep_with(cfg, 1);
        assert!(a.iter().map(|p| p.bindings).sum::<usize>() > 0, "hot loop realized nothing");
        for (x, y) in a.iter().zip(&b) {
            assert_eq!(x.bindings, y.bindings);
            assert_eq!(x.answers, y.answers);
            assert_eq!(x.disjuncts, y.disjuncts);
        }
    }
}
