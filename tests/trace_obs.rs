//! Integration: end-to-end observability (spanning revere-util's obs
//! substrate, revere-query evaluation, and revere-pdms networking).
//!
//! Two contracts, both seed-parametric:
//!
//! 1. **Golden determinism** — a fixed seed produces a byte-identical
//!    Chrome trace across two fresh runs. The trace clock is logical
//!    (ticks), wall-clock never appears in the export, so this holds on
//!    any machine at any load.
//! 2. **Answer invariance** — enabling observability never changes what a
//!    query returns: answers, completeness, and message accounting are
//!    identical with tracing on and off.
//!
//! The seed comes from `REVERE_TRACE_SEED` (default 1003);
//! `scripts/verify.sh` runs this suite under several seeds.

use revere::pdms::obs::names;
use revere::prelude::*;
use revere::storage::Attribute;

/// The seed under test: `REVERE_TRACE_SEED` or 1003.
fn trace_seed() -> u64 {
    std::env::var("REVERE_TRACE_SEED")
        .ok()
        .and_then(|s| s.trim().parse().ok())
        .unwrap_or(1003)
}

/// A 10-peer random overlay under a moderate chaos plan: enough faults
/// that retries, drops, and unreachable peers appear in the trace.
fn build_network(seed: u64) -> PdmsNetwork {
    let topology = Topology::generate(TopologyKind::Random { extra: 2 }, 10, seed);
    let mut net = PdmsNetwork::new();
    for i in 0..10 {
        let mut p = Peer::new(format!("P{i}"));
        let mut r = Relation::new(RelSchema::new(
            "course",
            vec![Attribute::text("title"), Attribute::int("enrollment")],
        ));
        for k in 0..3 {
            r.insert(vec![
                Value::str(format!("Course {k} at P{i}")),
                Value::Int((10 + i * 3 + k) as i64),
            ]);
        }
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
    net.faults = FaultPlan::new(FaultSpec::chaos(seed, 0.2));
    net
}

const QUERIES: [&str; 2] =
    ["q(T, E) :- P0.course(T, E)", "q(T) :- P0.course(T, E), E > 20"];

/// Run the workload with tracing enabled, returning the network.
fn traced_run(seed: u64) -> PdmsNetwork {
    let mut net = build_network(seed);
    net.obs = Obs::enabled();
    for q in QUERIES {
        net.query_str("P0", q).expect("traced query runs");
    }
    net
}

#[test]
fn golden_fixed_seed_trace_is_byte_identical() {
    let seed = trace_seed();
    let a = traced_run(seed);
    let b = traced_run(seed);
    let (ta, tb) = (a.obs.tracer().unwrap(), b.obs.tracer().unwrap());
    assert_eq!(ta.chrome_trace(), tb.chrome_trace(), "chrome trace diverged under seed {seed}");
    assert_eq!(ta.render_tree(), tb.render_tree(), "span tree diverged under seed {seed}");
    assert_eq!(
        a.obs.metrics().unwrap().snapshot().to_string(),
        b.obs.metrics().unwrap().snapshot().to_string(),
        "metrics diverged under seed {seed}"
    );
}

#[test]
fn trace_covers_all_three_layers() {
    let net = traced_run(trace_seed());
    let spans = net.obs.tracer().unwrap().spans();
    for name in ["pdms.query", "pdms.reformulate", "pdms.fetch", "pdms.eval.disjunct", "eval.step"]
    {
        assert!(spans.iter().any(|s| s.name == name), "no {name} span recorded");
    }
    // Every span closed, and parents opened before their children.
    for s in &spans {
        assert!(s.end_tick.is_some(), "span {} never finished", s.name);
        if let Some(pid) = s.parent {
            let parent = spans.iter().find(|p| p.id == pid).expect("parent recorded");
            assert!(parent.start_tick <= s.start_tick, "{} starts before parent", s.name);
        }
    }
    // The export is one JSON array with one object per span.
    let json = net.obs.tracer().unwrap().chrome_trace();
    assert!(json.starts_with('[') && json.trim_end().ends_with(']'));
    assert_eq!(json.matches("\"ph\":\"X\"").count(), spans.len());
    // Wall-clock stays out of the deterministic export.
    assert!(!json.contains("wall"), "wall-clock leaked into the trace export");
}

#[test]
fn trace_says_why_work_was_redone() {
    // A reformulation that actually ran reports its rule-goal expansion
    // work; a cached one does not. A plan rebuilt because a peer's
    // statistics moved names that peer.
    let mut net = build_network(trace_seed());
    net.faults = FaultPlan::default();
    net.obs = Obs::enabled();
    let q = QUERIES[0];
    net.query_str("P0", q).expect("cold query runs");
    net.peer("P3").unwrap().storage.write(|c| {
        c.insert("P3.course", vec![Value::str("Late addition"), Value::Int(55)])
    });
    net.query_str("P0", q).expect("warm query runs");
    let spans = net.obs.tracer().unwrap().spans();
    let reformulations: Vec<_> = spans.iter().filter(|s| s.name == "pdms.reformulate").collect();
    let [cold, warm] = reformulations[..] else { panic!("one reformulate span per query") };
    assert_eq!(cold.arg("cache"), Some("miss"));
    for work in ["nodes_expanded", "candidates", "pruned_by_containment", "pruned_by_visited"] {
        assert!(cold.arg(work).is_some(), "a reformulation miss must report {work}");
        assert!(warm.arg(work).is_none(), "a reformulation hit did no {work} work");
    }
    assert_eq!(warm.arg("cache"), Some("hit"), "a data change re-reformulated");
    let second_query = spans.iter().rfind(|s| s.name == "pdms.query").expect("two queries ran").id;
    let disjuncts: Vec<_> = spans
        .iter()
        .filter(|s| s.name == "pdms.eval.disjunct" && s.parent == Some(second_query))
        .collect();
    assert!(!disjuncts.is_empty());
    for d in disjuncts {
        let reads_p3 = d.arg("disjunct").is_some_and(|key| key.contains("P3.course"));
        let expected = if reads_p3 { (Some("miss"), Some("P3")) } else { (Some("hit"), None) };
        assert_eq!((d.arg("plan_cache"), d.arg("stale_owner")), expected, "{:?}", d.args);
    }
}

#[test]
fn tracing_never_changes_answers() {
    let seed = trace_seed();
    for q in QUERIES {
        let plain = build_network(seed).query_str("P0", q).expect("query runs");
        let mut net = build_network(seed);
        net.obs = Obs::enabled();
        let traced = net.query_str("P0", q).expect("query runs");
        assert_eq!(plain.answers, traced.answers, "answers changed under tracing: {q}");
        assert_eq!(
            plain.completeness, traced.completeness,
            "completeness changed under tracing: {q}"
        );
        assert_eq!(plain.messages, traced.messages, "messages changed under tracing: {q}");
        assert_eq!(
            plain.peers_contacted, traced.peers_contacted,
            "contacted set changed under tracing: {q}"
        );
    }
}

#[test]
fn feedback_runs_are_byte_identical_too() {
    // The estimator feedback loop writes learned statistics during query
    // execution; both the learned store and the trace it leaves behind
    // must be deterministic. A hair-trigger threshold makes every
    // complete plan feed back; faults are disabled so every fetch is
    // complete and the loop fires on each join.
    let seed = trace_seed();
    let run = || {
        let mut net = build_network(seed);
        net.faults = FaultPlan::default();
        net.replan_q_error = Some(0.5);
        net.obs = Obs::enabled();
        let join = "q(T, U) :- P0.course(T, E), P0.course(U, E)";
        for q in QUERIES.iter().copied().chain([join, join]) {
            net.query_str("P0", q).expect("query runs");
        }
        net
    };
    let (a, b) = (run(), run());
    let dump = a.snapshot_all().join_stats().dump();
    assert!(!dump.is_empty(), "feedback never fired");
    assert_eq!(dump, b.snapshot_all().join_stats().dump(), "learned stats diverged");
    assert_eq!(
        a.obs.tracer().unwrap().chrome_trace(),
        b.obs.tracer().unwrap().chrome_trace(),
        "feedback made the trace nondeterministic under seed {seed}"
    );
    assert_eq!(
        a.obs.metrics().unwrap().snapshot().to_string(),
        b.obs.metrics().unwrap().snapshot().to_string(),
        "feedback metrics diverged under seed {seed}"
    );
}

#[test]
fn parallel_and_sequential_agree_under_tracing() {
    // query_parallel records no per-worker spans (span order would depend
    // on scheduling) but must still return the sequential answers.
    let seed = trace_seed();
    let mut net = build_network(seed);
    net.obs = Obs::enabled();
    for q in QUERIES {
        let seq = net.query_str("P0", q).expect("query runs");
        let parsed = parse_query(q).expect("query parses");
        let par = net.query_parallel("P0", &parsed).expect("query runs");
        let (mut a, mut b) = (seq.answers.rows().to_vec(), par.answers.rows().to_vec());
        a.sort();
        b.sort();
        assert_eq!(a, b, "parallel diverged from sequential under tracing: {q}");
    }
    let spans = net.obs.tracer().unwrap().spans();
    assert!(spans.iter().any(|s| s.name == "pdms.query_parallel"));
    assert!(spans.iter().all(|s| s.name != "pdms.worker"));
}

#[test]
fn parallel_path_emits_the_same_eval_counters_as_sequential() {
    // Regression: `query.eval.*` accounting (notably the
    // `query.eval.step_bindings` histogram behind EXPLAIN ANALYZE) used
    // to be emitted only on the traced sequential path; the parallel
    // workers evaluated without the network's metrics handle and the
    // counters silently read zero. Twin networks, same seed, no faults
    // (so both paths evaluate every disjunct): the eval counters must
    // agree exactly, counter for counter and histogram for histogram.
    let seed = trace_seed();
    let run = |parallel: bool| {
        let mut net = build_network(seed);
        net.faults = FaultPlan::default();
        net.obs = Obs::enabled();
        for q in QUERIES {
            if parallel {
                let parsed = parse_query(q).expect("query parses");
                net.query_parallel("P0", &parsed).expect("query runs");
            } else {
                net.query_str("P0", q).expect("query runs");
            }
        }
        net
    };
    let (seq, par) = (run(false), run(true));
    let (sm, pm) = (seq.obs.metrics().unwrap(), par.obs.metrics().unwrap());
    for name in [
        names::QUERY_EVAL_STEPS_EXECUTED,
        names::QUERY_EVAL_ROWS_SCANNED,
        names::QUERY_EVAL_ROWS_BUILT,
        names::QUERY_EVAL_ROWS_PROBED,
    ] {
        assert!(sm.counter(name) > 0, "sequential path never emitted {name}");
        assert_eq!(sm.counter(name), pm.counter(name), "counter {name} diverged");
    }
    let sh = sm.histogram(names::QUERY_EVAL_STEP_BINDINGS).expect("sequential histogram exists");
    let ph = pm.histogram(names::QUERY_EVAL_STEP_BINDINGS).expect("parallel path lost step_bindings");
    assert_eq!((sh.count, sh.sum, sh.min, sh.max), (ph.count, ph.sum, ph.min, ph.max));
}

#[test]
fn every_emitted_metric_name_is_registered() {
    // Counter-name lint: a representative traced workload (chaos fetches,
    // retries, feedback, parallel eval) may only emit names canonicalized
    // in `obs::names` — strays fail here before they ossify.
    let seed = trace_seed();
    let mut net = build_network(seed);
    net.replan_q_error = Some(0.5);
    net.obs = Obs::enabled();
    for q in QUERIES {
        net.query_str("P0", q).expect("query runs");
    }
    let snap = net.obs.metrics().unwrap().snapshot();
    assert!(!snap.counters.is_empty(), "workload emitted no counters");
    let strays = names::unregistered(&snap);
    assert!(strays.is_empty(), "unregistered metric names emitted: {strays:?}");
    for name in snap.counters.keys().chain(snap.histograms.keys()) {
        assert!(names::follows_scheme(name), "metric {name} breaks layer.noun_verb scheme");
    }
}
