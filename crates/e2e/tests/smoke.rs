//! Smoke tests: every workload at a hundredth of the reported scale, with
//! every reference check against the nested-loop oracle. They hold the
//! benchmark to the library's API (a signature that drifts fails here, at
//! tier-1, not at benchmark time) and to its own determinism contract.

use revere_e2e::metrics::{Measure, END_TO_END, PER_LAYER};
use revere_e2e::workloads::Scale;
use revere_e2e::{run, Run, Workload};

/// Steps per workload: enough to cross a publish, a checkpoint, a
/// reference check and a compaction at smoke scale.
fn steps(w: Workload) -> Measure {
    Measure::Steps(match w {
        Workload::QueryWarm | Workload::QueryChurn => 20,
        Workload::UpdateFanout => 30,
        Workload::IngestSite => 7,
    })
}

fn smoke(w: Workload, seed: u64, traced: bool) -> Run {
    run(w, &Scale::smoke(), seed, steps(w), traced, 1).expect("the workload builds")
}

#[test]
fn every_workload_runs_clean_and_reports_every_metric() {
    for w in Workload::ALL {
        let untraced = smoke(w, 1013, false).result;
        assert_eq!(untraced.failed, 0, "{}", w.name());
        assert!(untraced.attempted > 0);
        assert!(untraced.correct);
        let names: Vec<&str> = untraced.metrics.iter().map(|m| m.name.as_str()).collect();
        assert_eq!(names, END_TO_END.map(|m| m.name), "{}", w.name());
        for m in &untraced.metrics {
            assert!(m.value > 0.0, "{} {} is never 0", w.name(), m.name);
        }

        // `correct` also holds the wall-clock reconciliation check, which
        // an unoptimised build at this scale need not meet.
        let traced = smoke(w, 1013, true);
        assert_eq!(traced.result.failed, 0, "{}", w.name());
        let names: Vec<&str> = traced
            .result
            .metrics
            .iter()
            .map(|m| m.name.as_str())
            .collect();
        assert_eq!(names, PER_LAYER.map(|m| m.name), "{}", w.name());
        assert!(!traced
            .trace
            .expect("a traced run keeps its spans")
            .spans
            .is_empty());
    }
}

#[test]
fn layers_appear_only_on_the_workloads_that_use_them() {
    let value = |r: &Run, name: &str| r.result.get(name).expect("a listed metric");
    let update = smoke(Workload::UpdateFanout, 7, true);
    let ingest = smoke(Workload::IngestSite, 7, true);
    let churn = smoke(Workload::QueryChurn, 7, true);
    for m in PER_LAYER
        .iter()
        .filter(|m| m.name.starts_with("mangrove.") || m.name.starts_with("storage.triples."))
    {
        assert_eq!(value(&update, m.name), 0.0, "{}", m.name);
        assert_eq!(value(&churn, m.name), 0.0, "{}", m.name);
        assert!(value(&ingest, m.name) > 0.0, "{}", m.name);
    }
    for name in [
        "pdms.reformulate.self_us_per_op",
        "query.plan.self_us_per_op",
        "query.vec.kernel_self_us_per_op",
    ] {
        assert_eq!(value(&update, name), 0.0, "{name}");
        assert!(value(&churn, name) > 0.0, "{name}");
    }
    assert!(value(&update, "storage.wal.records_per_gram") > 0.0);
    assert!(value(&update, "pdms.durable.log_truncated_records") > 0.0);
}

#[test]
fn same_seed_repeats_every_count_exactly() {
    for w in Workload::ALL {
        let (a, b) = (smoke(w, 42, true).result, smoke(w, 42, true).result);
        for m in PER_LAYER.iter().filter(|m| m.exact) {
            assert_eq!(a.get(m.name), b.get(m.name), "{} {}", w.name(), m.name);
        }
        assert_eq!(a.attempted, b.attempted);
    }
}

#[test]
fn different_seeds_give_different_traces() {
    for w in Workload::ALL {
        let shape = |seed| {
            let run = smoke(w, seed, true);
            let spans = run.trace.expect("a traced run keeps its spans").spans;
            let exact: Vec<f64> = PER_LAYER
                .iter()
                .filter(|m| m.exact)
                .filter_map(|m| run.result.get(m.name))
                .collect();
            (
                spans
                    .into_iter()
                    .map(|s| (s.name, s.op_id, s.parent))
                    .collect::<Vec<_>>(),
                exact,
            )
        };
        assert_ne!(shape(1), shape(2), "{}", w.name());
    }
}

#[test]
fn names_are_well_formed_and_match_the_manifest() {
    let manifest = include_str!("../../../BENCHMARK.json");
    let names: Vec<&str> = Workload::ALL
        .iter()
        .map(|w| w.name())
        .chain(END_TO_END.iter().map(|m| m.name))
        .chain(PER_LAYER.iter().map(|m| m.name))
        .collect();
    for name in &names {
        assert!(
            !name.is_empty()
                && name.len() <= 64
                && name
                    .chars()
                    .all(|c| c.is_ascii_alphanumeric() || "_.-".contains(c)),
            "{name}"
        );
        assert_eq!(
            manifest.matches(&format!("\"name\": \"{name}\"")).count(),
            1,
            "{name}"
        );
    }
    // And the manifest lists nothing the program does not report.
    assert_eq!(manifest.matches("\"name\": ").count(), names.len());
    let better = |lower: bool| if lower { "lower" } else { "higher" };
    let listed = |name: &str, unit: &str, lower: bool, rest: String| {
        let entry = format!(
            "\"name\": \"{name}\",\n      \"unit\": \"{unit}\",\n      \"better\": \"{}\"{rest}",
            better(lower)
        );
        assert!(
            manifest.contains(&entry),
            "BENCHMARK.json disagrees on {name}"
        );
    };
    for m in &END_TO_END {
        listed(
            m.name,
            m.unit,
            m.lower_is_better,
            format!(",\n      \"bound\": {}", m.bound),
        );
    }
    for m in &PER_LAYER {
        listed(m.name, m.unit, m.lower_is_better, "\n".into());
    }
}
