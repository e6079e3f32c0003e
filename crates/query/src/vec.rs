//! Vectorized columnar execution of planned conjunctive queries — the
//! engine behind every entry point of [`crate::eval`].
//!
//! A plan runs in batches: the binding table is one [`ColumnVec`] per
//! variable, build-side filters (constants, within-atom repeated
//! variables) are selection bitmaps combined with [`SelBitmap`] algebra,
//! hash joins build and probe with per-column typed keys (`i64`,
//! dictionary codes) where both sides share a concrete type, and match
//! output is a pair of index vectors gathered into new columns — integer
//! and code copies, no per-row tuple clones or key vectors.
//!
//! **Determinism contract.** Output row order is a pure function of the
//! query, the plan and the data: probe bindings in order, matches within
//! a binding in relation insert order. Morsel-parallel execution keeps
//! it: worker threads claim fixed-size morsels from an atomic counter,
//! each morsel's output lands in its own slot, and slots are concatenated
//! in morsel order, independent of thread scheduling. Workers never
//! touch the tracer or metrics; the coordinator emits per-step totals
//! once, so `query.eval.*` counters, `eval.step` span fields and
//! [`StepProfile`]s do not depend on [`VecOpts`] either.
//!
//! `tests/differential_vec.rs` holds this engine to the nested-loop
//! oracle ([`crate::eval::eval_naive_bag`]) on generated corpora —
//! answers, errors, and step profiles — and every [`VecOpts`]
//! configuration to the sequential run byte for byte.

use crate::ast::{ConjunctiveQuery, Term};
use crate::eval::{head_schema, validate, AtomSplit, EvalError, StepProfile};
use crate::fxhash::FxMap;
use crate::plan::Plan;
use revere_storage::{Catalog, ColumnVec, ColumnarBatch, Relation, SelBitmap, Value};
use revere_util::obs::{names, Obs, SpanHandle};
use std::collections::HashMap;
use std::ops::Range;
use std::sync::atomic::{AtomicUsize, Ordering};
use std::sync::{Arc, OnceLock};

/// Tuning knobs for the vectorized engine. Every setting changes only
/// *how* work is scheduled, never what is computed — output is
/// byte-identical across all values (a test invariant).
#[derive(Debug, Clone, Copy)]
pub struct VecOpts {
    /// Rows per morsel when a phase runs in parallel.
    pub morsel_rows: usize,
    /// Phases over fewer rows than this stay sequential (parallelism has
    /// a fixed spawn cost; tiny inputs never win it back).
    pub parallel_min_rows: usize,
    /// Upper bound on worker threads (actual count is also capped by
    /// available parallelism and the number of morsels).
    pub max_threads: usize,
}

impl Default for VecOpts {
    fn default() -> Self {
        VecOpts { morsel_rows: 2048, parallel_min_rows: 8192, max_threads: usize::MAX }
    }
}

impl VecOpts {
    /// Never spawn: single-threaded execution regardless of input size.
    pub fn sequential() -> Self {
        VecOpts { max_threads: 1, ..VecOpts::default() }
    }

    /// Parallelize at any size with the given morsel granularity — the
    /// configuration the morsel byte-identity tests sweep.
    pub fn forced_parallel(morsel_rows: usize) -> Self {
        VecOpts { morsel_rows, parallel_min_rows: 0, max_threads: usize::MAX }
    }
}

/// The machine's core count, read once per process. The standard
/// library re-reads the cgroup quota files on every
/// `available_parallelism` call, which costs more than a small scan; the
/// count cannot change under a running process in any way we act on.
fn available_cores() -> usize {
    static CORES: OnceLock<usize> = OnceLock::new();
    *CORES.get_or_init(|| std::thread::available_parallelism().map_or(1, |n| n.get()))
}

/// Split `0..n` into contiguous morsels of `opts.morsel_rows` and map `f`
/// over each, returning per-morsel results *in morsel order*.
///
/// Below `opts.parallel_min_rows` (or with one worker/morsel) this is a
/// plain sequential loop on the calling thread, decided before anything
/// else is looked at. Otherwise scoped worker threads claim morsel
/// indices from a shared atomic counter; each result lands in the slot of
/// its morsel index, workers are joined in spawn order, and the slots are
/// read out in index order — so the concatenation is a pure function of
/// `n`, `morsel_rows`, and `f`, whatever the thread scheduling did.
fn morsel_map<T, F>(n: usize, opts: &VecOpts, f: F) -> Vec<T>
where
    T: Send,
    F: Fn(Range<usize>) -> T + Sync,
{
    let step = opts.morsel_rows.max(1);
    let ranges: Vec<Range<usize>> =
        (0..n).step_by(step).map(|s| s..(s + step).min(n)).collect();
    let workers = if n < opts.parallel_min_rows {
        1
    } else {
        available_cores().min(opts.max_threads).min(ranges.len())
    };
    if workers <= 1 {
        return ranges.into_iter().map(f).collect();
    }
    let next = AtomicUsize::new(0);
    let mut slots: Vec<Option<T>> = Vec::new();
    slots.resize_with(ranges.len(), || None);
    std::thread::scope(|s| {
        let handles: Vec<_> = (0..workers)
            .map(|_| {
                let (ranges, next, f) = (&ranges, &next, &f);
                s.spawn(move || {
                    let mut out = Vec::new();
                    loop {
                        let i = next.fetch_add(1, Ordering::Relaxed);
                        if i >= ranges.len() {
                            break;
                        }
                        out.push((i, f(ranges[i].clone())));
                    }
                    out
                })
            })
            .collect();
        for h in handles {
            for (i, t) in h.join().expect("morsel worker panicked") {
                slots[i] = Some(t);
            }
        }
    });
    slots.into_iter().map(|t| t.expect("every morsel claimed")).collect()
}

/// The columnar binding table: one column per bound variable, `rows`
/// logical rows. Starts with zero columns and one empty binding.
struct Bindings {
    names: Vec<String>,
    cols: Vec<ColumnVec>,
    rows: usize,
}

/// One step's hash index over the filtered build rows, in the tightest
/// key representation the join columns admit. Typed paths require both
/// sides to hold the same concrete [`ColumnVec`] variant — `Value`
/// equality is numeric across `Int`/`Float`, which only the generic
/// `Value`-keyed path honors (see `revere_storage::column` docs).
enum BuildIndex {
    /// No join columns: every probe row matches every build row
    /// (leading scan or cartesian extension). Holds the filtered row
    /// indices in relation order.
    All(Vec<u32>),
    /// Single join column, both sides `Int`.
    Int(FxMap<i64, Vec<u32>>),
    /// Single join column, both sides `Str`: keyed by *build* dictionary
    /// code, probed through a probe-code → build-code translation.
    Str {
        index: FxMap<u32, Vec<u32>>,
        /// `trans[probe_code]` = the build dictionary's code for the same
        /// string, or `None` when the build side never saw it.
        trans: Vec<Option<u32>>,
    },
    /// Anything else: materialized `Value` keys, equal exactly when the
    /// query language says so (numerically across `Int`/`Float`).
    Generic(HashMap<Vec<Value>, Vec<u32>>),
}

/// Build the step's hash index from the filtered build rows.
fn build_index(
    split: &AtomSplit,
    batch: &ColumnarBatch,
    bind: &Bindings,
    sel_rows: &[u32],
) -> BuildIndex {
    if split.join_cols.is_empty() {
        return BuildIndex::All(sel_rows.to_vec());
    }
    if let [(bcol, pcol)] = split.join_cols.as_slice() {
        match (batch.column(*bcol), &bind.cols[*pcol]) {
            (ColumnVec::Int(build), ColumnVec::Int(_)) => {
                let mut index: FxMap<i64, Vec<u32>> = FxMap::default();
                for &r in sel_rows {
                    index.entry(build[r as usize]).or_default().push(r);
                }
                return BuildIndex::Int(index);
            }
            (ColumnVec::Str { dict: bd, codes: bc }, ColumnVec::Str { dict: pd, .. }) => {
                let mut index: FxMap<u32, Vec<u32>> = FxMap::default();
                for &r in sel_rows {
                    index.entry(bc[r as usize]).or_default().push(r);
                }
                let trans: Vec<Option<u32>> = if Arc::ptr_eq(bd, pd) {
                    (0..pd.len() as u32).map(Some).collect()
                } else {
                    let codes: HashMap<&str, u32> = bd
                        .iter()
                        .enumerate()
                        .map(|(i, s)| (&**s, i as u32))
                        .collect();
                    pd.iter().map(|s| codes.get(&**s).copied()).collect()
                };
                return BuildIndex::Str { index, trans };
            }
            _ => {}
        }
    }
    let mut index: HashMap<Vec<Value>, Vec<u32>> = HashMap::new();
    for &r in sel_rows {
        let key: Vec<Value> =
            split.join_cols.iter().map(|(i, _)| batch.column(*i).get(r as usize)).collect();
        index.entry(key).or_default().push(r);
    }
    BuildIndex::Generic(index)
}

/// Probe every binding row against the index, producing the match pairs
/// `(probe row, build row)` in the contract's order: bindings ascending,
/// matches within a binding in relation insert order.
fn probe(
    index: &BuildIndex,
    split: &AtomSplit,
    bind: &Bindings,
    opts: &VecOpts,
) -> (Vec<u32>, Vec<u32>) {
    // The leading-scan / cartesian shape: morselize over the *build*
    // rows when there is a single probe binding (the common scan case),
    // over the bindings otherwise.
    if let BuildIndex::All(rows) = index {
        if bind.rows == 1 {
            let parts = morsel_map(rows.len(), opts, |range| rows[range].to_vec());
            let build: Vec<u32> = parts.concat();
            return (vec![0; build.len()], build);
        }
        let parts = morsel_map(bind.rows, opts, |range| {
            let mut p = Vec::with_capacity(range.len() * rows.len());
            let mut b = Vec::with_capacity(range.len() * rows.len());
            for probe_row in range {
                for &m in rows {
                    p.push(probe_row as u32);
                    b.push(m);
                }
            }
            (p, b)
        });
        return concat_pairs(parts);
    }
    let parts = morsel_map(bind.rows, opts, |range| {
        let mut p: Vec<u32> = Vec::new();
        let mut b: Vec<u32> = Vec::new();
        let mut emit = |probe_row: usize, matches: &[u32]| {
            for &m in matches {
                p.push(probe_row as u32);
                b.push(m);
            }
        };
        match index {
            BuildIndex::All(_) => unreachable!("handled above"),
            BuildIndex::Int(map) => {
                let keys = bind.cols[split.join_cols[0].1]
                    .as_ints()
                    .expect("Int index implies Int probe column");
                for probe_row in range {
                    if let Some(matches) = map.get(&keys[probe_row]) {
                        emit(probe_row, matches);
                    }
                }
            }
            BuildIndex::Str { index: map, trans } => {
                let (_, codes) = bind.cols[split.join_cols[0].1]
                    .as_dict()
                    .expect("Str index implies Str probe column");
                for probe_row in range {
                    if let Some(code) = trans[codes[probe_row] as usize] {
                        if let Some(matches) = map.get(&code) {
                            emit(probe_row, matches);
                        }
                    }
                }
            }
            BuildIndex::Generic(map) => {
                for probe_row in range {
                    let key: Vec<Value> = split
                        .join_cols
                        .iter()
                        .map(|(_, b)| bind.cols[*b].get(probe_row))
                        .collect();
                    if let Some(matches) = map.get(&key) {
                        emit(probe_row, matches);
                    }
                }
            }
        }
        (p, b)
    });
    concat_pairs(parts)
}

/// Concatenate per-morsel `(probe, build)` pairs in morsel order.
fn concat_pairs(parts: Vec<(Vec<u32>, Vec<u32>)>) -> (Vec<u32>, Vec<u32>) {
    let total: usize = parts.iter().map(|(p, _)| p.len()).sum();
    let mut probe = Vec::with_capacity(total);
    let mut build = Vec::with_capacity(total);
    for (p, b) in parts {
        probe.extend(p);
        build.extend(b);
    }
    (probe, build)
}

/// A head or comparison term resolved against the binding columns.
enum Resolved {
    Const(Value),
    Col(usize),
    /// The variable is not bound by the body (an unsafe query): no row
    /// that reaches such a term survives.
    Missing,
}

fn resolve_term(t: &Term, names: &[String]) -> Resolved {
    match t {
        Term::Const(c) => Resolved::Const(c.clone()),
        Term::Var(v) => match names.iter().position(|n| n == v) {
            Some(i) => Resolved::Col(i),
            None => Resolved::Missing,
        },
    }
}

/// Evaluate `q` under a caller-supplied (possibly cached) plan, with full
/// fidelity: the answer bag, one [`StepProfile`] per plan step (parallel
/// to `plan.order` — what the PDMS feedback loop turns into observed join
/// selectivities), one `eval.step` child span of `parent` per executed
/// step, and the `query.eval.*` counters in `obs`. The plan must apply to
/// `q` (same canonical key); the output is projected from `q`'s own head,
/// so a plan cached from an isomorphic disjunct yields byte-identical
/// answers to planning fresh. Execution is identical whether or not
/// `obs`/`parent` record anything (`tests/trace_obs.rs` holds that to
/// byte-identity); a caller that wants only the bag takes `.0`.
pub fn eval_planned(
    q: &ConjunctiveQuery,
    plan: &Plan,
    catalog: &Catalog,
    obs: &Obs,
    parent: &SpanHandle,
) -> Result<(Relation, Vec<StepProfile>), EvalError> {
    eval_planned_opts(q, plan, catalog, obs, parent, &VecOpts::default())
}

/// [`eval_planned`] without the answer copy-out: the join pipeline and
/// comparison filters run in full — identical counters, spans and
/// [`StepProfile`]s — but the head is never projected into owned tuples.
/// Returns the surviving binding count. This is the EXPLAIN-ANALYZE /
/// adaptive-feedback shape: everything the q-error machinery consumes
/// comes from the profiles, and a plan probe should not pay for strings
/// nobody reads.
pub fn eval_bindings(
    q: &ConjunctiveQuery,
    plan: &Plan,
    catalog: &Catalog,
    obs: &Obs,
    parent: &SpanHandle,
) -> Result<(usize, Vec<StepProfile>), EvalError> {
    eval_bindings_vec(q, plan, catalog, obs, parent, &VecOpts::default()).map(|(b, t)| (b.rows, t))
}

/// [`eval_planned`] under explicit scheduling options: the hook
/// `tests/differential_vec.rs` forces real threads through at morsel
/// sizes 1, 7, 64 and whole-relation. Production runs the default.
#[doc(hidden)]
pub fn eval_planned_opts(
    q: &ConjunctiveQuery,
    plan: &Plan,
    catalog: &Catalog,
    obs: &Obs,
    parent: &SpanHandle,
    opts: &VecOpts,
) -> Result<(Relation, Vec<StepProfile>), EvalError> {
    let (bind, trace) = eval_bindings_vec(q, plan, catalog, obs, parent, opts)?;

    // Project the head. Materializing output tuples is where string
    // payloads finally leave their dictionaries — the dominant cost on
    // answer-heavy queries — and rows are independent, so the pass is
    // morselized; concatenating morsels in index order keeps the output
    // in binding order.
    let mut out = Relation::new(head_schema(q));
    let head: Vec<Resolved> =
        q.head.terms.iter().map(|t| resolve_term(t, &bind.names)).collect();
    if !head.iter().any(|r| matches!(r, Resolved::Missing)) {
        let chunks = morsel_map(bind.rows, opts, |range| {
            range
                .map(|row| {
                    head.iter()
                        .map(|r| match r {
                            Resolved::Const(v) => v.clone(),
                            Resolved::Col(i) => bind.cols[*i].get(row),
                            Resolved::Missing => unreachable!("guarded above"),
                        })
                        .collect::<Vec<Value>>()
                })
                .collect::<Vec<_>>()
        });
        for chunk in chunks {
            for row in chunk {
                out.insert(row);
            }
        }
    }
    Ok((out, trace))
}

/// The binding-realization core: everything up to (not including) head
/// projection. [`eval_bindings`] exposes the count; [`eval_planned`]
/// materializes answers on top.
fn eval_bindings_vec(
    q: &ConjunctiveQuery,
    plan: &Plan,
    catalog: &Catalog,
    obs: &Obs,
    parent: &SpanHandle,
    opts: &VecOpts,
) -> Result<(Bindings, Vec<StepProfile>), EvalError> {
    if !plan.applies_to(q) {
        return Err(EvalError {
            message: format!("plan for {:?} does not apply to {:?}", plan.key(), q.canonical_key()),
        });
    }
    validate(q, catalog)?;
    let canonical = q.canonical_order();

    let mut bind = Bindings { names: Vec::new(), cols: Vec::new(), rows: 1 };
    let mut trace = Vec::with_capacity(plan.order.len());
    // Columnar images are each relation's own memoised image
    // ([`Relation::batch`]), so repeated evaluations — the
    // realized-bindings hot loop, every disjunct of a reformulated query —
    // skip the row→column pivot entirely. The per-eval map just keeps a
    // relation joined at several steps from being looked up twice.
    let mut batches: HashMap<&str, Arc<ColumnarBatch>> = HashMap::new();

    for (step_no, &ci) in plan.order.iter().enumerate() {
        let atom = &q.body[canonical[ci]];
        let batch: &ColumnarBatch = batches
            .entry(&atom.relation)
            .or_insert_with(|| catalog.get(&atom.relation).expect("validated above").batch());
        let split = AtomSplit::analyze(atom, &bind.names);
        let span = parent.child("eval.step");
        span.set("step", step_no + 1);
        span.set("relation", &atom.relation);

        // Build-side filters as bitmap algebra: one bitmap per pushed
        // constant and per within-atom repeated variable, intersected.
        let mut sel = SelBitmap::all(batch.rows());
        for (i, c) in &split.const_checks {
            sel = sel.and(&batch.column(*i).eq_const(c));
        }
        for (i, j) in &split.self_joins {
            sel = sel.and(&batch.column(*i).eq_elementwise(batch.column(*j)));
        }
        let sel_rows = sel.ones();
        let build_rows = sel_rows.len();

        let index = build_index(&split, batch, &bind, &sel_rows);
        let (probe_idx, build_idx) = probe(&index, &split, &bind, opts);

        obs.inc(names::QUERY_EVAL_STEPS_EXECUTED, 1);
        obs.inc(names::QUERY_EVAL_ROWS_SCANNED, batch.rows() as u64);
        obs.inc(names::QUERY_EVAL_ROWS_BUILT, build_rows as u64);
        obs.inc(names::QUERY_EVAL_ROWS_PROBED, bind.rows as u64);
        obs.observe(names::QUERY_EVAL_STEP_BINDINGS, probe_idx.len() as u64);
        span.set("rows_scanned", batch.rows());
        span.set("build_rows", build_rows);
        span.set("probes", bind.rows);
        span.set("est_bindings", format_args!("{:.1}", plan.steps[step_no].est_bindings));
        span.set("bindings", probe_idx.len());
        span.finish();

        // Gather: surviving bindings keep their columns re-indexed by
        // probe row; each newly bound variable is a gather of its atom
        // column by build row — integer and dictionary-code copies, no
        // per-row tuple clones.
        let mut next_cols: Vec<ColumnVec> =
            bind.cols.iter().map(|c| c.gather(&probe_idx)).collect();
        for (i, v) in &split.new_vars {
            next_cols.push(batch.column(*i).gather(&build_idx));
            bind.names.push(v.clone());
        }
        let probes = bind.rows;
        bind.cols = next_cols;
        bind.rows = probe_idx.len();
        trace.push(StepProfile { bindings: bind.rows, build_rows, probes });
        if bind.rows == 0 {
            break;
        }
    }
    // An empty binding table short-circuits; later steps see 0 bindings
    // (and no build/probe work, so feedback skips them).
    trace.resize(plan.order.len(), StepProfile::default());

    // Apply comparisons: a row survives iff every comparison passes.
    // Rows are independent, so the pass is morselized like any other
    // operator.
    if !q.comparisons.is_empty() && bind.rows > 0 {
        let terms: Vec<(Resolved, Resolved)> = q
            .comparisons
            .iter()
            .map(|c| (resolve_term(&c.left, &bind.names), resolve_term(&c.right, &bind.names)))
            .collect();
        let unsafe_cmp = terms
            .iter()
            .any(|(l, r)| matches!(l, Resolved::Missing) || matches!(r, Resolved::Missing));
        let keep = if unsafe_cmp {
            // Unsafe comparisons never pass (parser rejects them anyway).
            SelBitmap::none(bind.rows)
        } else {
            let value_at = |r: &Resolved, row: usize| match r {
                Resolved::Const(v) => v.clone(),
                Resolved::Col(i) => bind.cols[*i].get(row),
                Resolved::Missing => unreachable!("handled above"),
            };
            let parts = morsel_map(bind.rows, opts, |range| {
                range
                    .filter(|&row| {
                        q.comparisons
                            .iter()
                            .zip(&terms)
                            .all(|(c, (l, r))| c.op.apply(&value_at(l, row), &value_at(r, row)))
                    })
                    .map(|row| row as u32)
                    .collect::<Vec<u32>>()
            });
            SelBitmap::from_indices(bind.rows, &parts.concat())
        };
        bind.cols = bind.cols.iter().map(|c| c.filter(&keep)).collect();
        bind.rows = keep.count_ones();
    }
    Ok((bind, trace))
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::eval::{eval_naive_bag, eval_naive_profiles};
    use crate::parse::parse_query;
    use crate::plan::plan_cq;
    use revere_storage::{Catalog, RelSchema};

    fn catalog() -> Catalog {
        let mut c = Catalog::new();
        let mut course = Relation::new(RelSchema::text("course", &["id", "title", "dept"]));
        course.insert(vec!["c1".into(), "Databases".into(), "cs".into()]);
        course.insert(vec!["c2".into(), "Ancient Greece".into(), "hist".into()]);
        course.insert(vec!["c3".into(), "Compilers".into(), "cs".into()]);
        c.register(course);
        let mut size = Relation::new(RelSchema::new(
            "enrollment",
            vec![
                revere_storage::Attribute::text("cid"),
                revere_storage::Attribute::int("n"),
            ],
        ));
        size.insert(vec!["c1".into(), Value::Int(120)]);
        size.insert(vec!["c2".into(), Value::Int(35)]);
        size.insert(vec!["c3".into(), Value::Int(60)]);
        c.register(size);
        let mut edge = Relation::new(RelSchema::new(
            "edge",
            vec![revere_storage::Attribute::int("a"), revere_storage::Attribute::int("b")],
        ));
        for (a, b) in [(1, 2), (2, 3), (2, 2), (3, 1), (1, 3)] {
            edge.insert(vec![Value::Int(a), Value::Int(b)]);
        }
        c.register(edge);
        c
    }

    fn untraced(
        q: &ConjunctiveQuery,
        plan: &Plan,
        c: &Catalog,
        opts: &VecOpts,
    ) -> Result<(Relation, Vec<StepProfile>), EvalError> {
        eval_planned_opts(q, plan, c, &Obs::disabled(), &SpanHandle::none(), opts)
    }

    /// On representative query shapes: the answer bag is the naive
    /// oracle's, the step profiles are the profile oracle's, the kernel's
    /// binding count is the bag's length, and every scheduling
    /// configuration returns the sequential run's rows in its order.
    #[test]
    fn vectorized_matches_naive_and_profile_oracles_exactly() {
        let c = catalog();
        for text in [
            "q(T) :- course(I, T, D)",
            "q(T) :- course(I, T, 'cs')",
            "q(T, N) :- course(I, T, D), enrollment(I, N)",
            "q(T, N) :- course(I, T, D), enrollment(I, N), N > 50",
            "q(A, B) :- edge(A, B), edge(B, A)",
            "q(A) :- edge(A, A)",
            "q(T, B) :- course(I, T, 'cs'), edge(2, B)",
            "q(X, Y) :- edge(X, Y), edge(Y, Z), edge(Z, X)",
            "q(T) :- course(I, T, 'none'), enrollment(I, N)",
        ] {
            let q = parse_query(text).unwrap();
            let plan = plan_cq(&q, &c);
            let naive = eval_naive_bag(&q, &c).unwrap();
            let profiles = eval_naive_profiles(&q, &plan, &c).unwrap();
            let (sequential, _) = untraced(&q, &plan, &c, &VecOpts::sequential()).unwrap();
            assert_eq!(sequential.sorted().rows(), naive.sorted().rows(), "answers: {text}");
            for opts in [VecOpts::default(), VecOpts::sequential(), VecOpts::forced_parallel(2)]
            {
                let (vec, trace) = untraced(&q, &plan, &c, &opts).unwrap();
                assert_eq!(vec.rows(), sequential.rows(), "row order diverged: {text}");
                assert_eq!(trace, profiles, "step profiles diverged: {text}");
            }
            let (n, trace) =
                eval_bindings(&q, &plan, &c, &Obs::disabled(), &SpanHandle::none()).unwrap();
            assert_eq!(n, naive.len(), "binding count: {text}");
            assert_eq!(trace, profiles, "kernel step profiles diverged: {text}");
        }
    }

    /// A broken query errors with the oracle's message (both check
    /// relations and arities up front); a plan that does not apply is
    /// rejected by both entry points, naming the two canonical keys.
    #[test]
    fn errors_match_naive_oracle() {
        let c = catalog();
        let q = parse_query("q(X) :- ghost(X)").unwrap();
        let plan = plan_cq(&q, &c);
        let vec = untraced(&q, &plan, &c, &VecOpts::default());
        assert_eq!(vec.unwrap_err(), eval_naive_bag(&q, &c).unwrap_err());

        let other = parse_query("q(N) :- enrollment(C, N)").unwrap();
        let wrong = plan_cq(&other, &c);
        let q2 = parse_query("q(T) :- course(I, T, D)").unwrap();
        let expected = EvalError {
            message: format!(
                "plan for {:?} does not apply to {:?}",
                wrong.key(),
                q2.canonical_key()
            ),
        };
        assert_eq!(untraced(&q2, &wrong, &c, &VecOpts::default()).unwrap_err(), expected);
        let kernel = eval_bindings(&q2, &wrong, &c, &Obs::disabled(), &SpanHandle::none());
        assert_eq!(kernel.unwrap_err(), expected);
    }

    /// Counters are emitted identically whether or not a recording span
    /// is attached, and by the kernel as by the full evaluator — the
    /// traced/untraced parity the parallel query path depends on.
    #[test]
    fn counters_agree_traced_untraced_and_across_entry_points() {
        let c = catalog();
        let q = parse_query("q(T, N) :- course(I, T, 'cs'), enrollment(I, N), N > 50").unwrap();
        let plan = plan_cq(&q, &c);
        let run = |traced: bool, kernel: bool| {
            let obs = Obs::enabled();
            let root = if traced { obs.span("root") } else { SpanHandle::none() };
            if kernel {
                eval_bindings(&q, &plan, &c, &obs, &root).unwrap();
            } else {
                eval_planned(&q, &plan, &c, &obs, &root).unwrap();
            }
            root.finish();
            obs.metrics().unwrap().snapshot().to_string()
        };
        let baseline = run(true, false);
        assert_eq!(baseline, run(false, false), "tracing changed counters");
        assert_eq!(baseline, run(true, true), "kernel and evaluator disagree on counters");
        assert_eq!(baseline, run(false, true));
        assert!(baseline.contains(names::QUERY_EVAL_STEP_BINDINGS), "{baseline}");
    }

    #[test]
    fn morsel_map_is_order_preserving() {
        let opts = VecOpts::forced_parallel(3);
        let out = morsel_map(20, &opts, |r| r.collect::<Vec<usize>>());
        assert_eq!(out.concat(), (0..20).collect::<Vec<usize>>());
        assert_eq!(morsel_map(0, &opts, |r| r.len()), Vec::<usize>::new());
    }

    /// A phase below `parallel_min_rows` never leaves the calling thread,
    /// however many morsels it splits into and whatever `max_threads`
    /// allows.
    #[test]
    fn morsel_map_below_parallel_min_rows_runs_on_the_calling_thread() {
        let opts = VecOpts { morsel_rows: 1, parallel_min_rows: 41, max_threads: usize::MAX };
        let caller = std::thread::current().id();
        let threads = morsel_map(40, &opts, |_| std::thread::current().id());
        assert_eq!(threads, vec![caller; 40]);
    }
}
