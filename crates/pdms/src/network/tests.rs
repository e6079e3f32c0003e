use super::cache::{BoundedMap, PLAN_CAPACITY, REFORMULATION_CAPACITY};
use super::*;
use crate::updategram::Updategram;
use revere_query::eval::EvalError;
use revere_query::parse_query;
use revere_storage::{Attribute, Catalog, RelSchema, Relation, Value};
use revere_util::fault::FaultSpec;
use revere_util::obs::names;

/// The Figure 2 network in miniature: three universities, chain
/// mappings, course data everywhere.
fn university_network() -> PdmsNetwork {
    let mut net = PdmsNetwork::new();
    for (peer, rel, rows) in [
        ("MIT", "subject", vec![("Databases", 120i64)]),
        ("Berkeley", "course", vec![("Ancient Greece", 40), ("Databases", 95)]),
        ("Tsinghua", "kecheng", vec![("Roman Law", 25)]),
    ] {
        let mut p = Peer::new(peer);
        let schema = vec![Attribute::text("title"), Attribute::int("enrollment")];
        let mut r = Relation::new(RelSchema::new(rel, schema));
        for (t, e) in rows {
            r.insert(vec![Value::str(t), Value::Int(e)]);
        }
        p.add_relation(r);
        net.add_peer(p);
    }
    for (name, source, target, rule) in [
        ("m_bm", "Berkeley", "MIT", "m(T, E) :- Berkeley.course(T, E) ==> m(T, E) :- MIT.subject(T, E)"),
        ("m_tb", "Tsinghua", "Berkeley", "m(T, E) :- Tsinghua.kecheng(T, E) ==> m(T, E) :- Berkeley.course(T, E)"),
    ] {
        net.add_mapping(GlavMapping::parse(name, source, target, rule).unwrap());
    }
    net
}

#[test]
fn query_reaches_all_peers_transitively() {
    let net = university_network();
    let out = net.query_str("MIT", "q(T, E) :- MIT.subject(T, E)").unwrap();
    // All four (title, enrollment) pairs from all three peers.
    assert_eq!(out.answers.len(), 4, "{}", out.answers);
    assert_eq!(out.peers_contacted.len(), 3);
    assert!(out.messages >= 4); // two remote peers, ≥1 relation each
    assert!(out.tuples_shipped >= 3);
    // The perfect network leaves no gaps to report.
    assert!(out.completeness.is_complete(), "{:?}", out.completeness);
    assert_eq!(out.completeness.retries, 0);
    assert_eq!(out.completeness.latency_ticks, 0);
    assert!((out.completeness.coverage() - 1.0).abs() < f64::EPSILON);
}

#[test]
fn query_in_any_peers_vocabulary() {
    let net = university_network();
    // Same information need, posed at Tsinghua in its own vocabulary.
    let out = net.query_str("Tsinghua", "q(T, E) :- Tsinghua.kecheng(T, E)").unwrap();
    assert_eq!(out.answers.len(), 4);
}

#[test]
fn local_only_when_no_mappings() {
    let mut net = PdmsNetwork::new();
    let mut p = Peer::new("Lonely");
    let mut r = Relation::new(RelSchema::text("course", &["title"]));
    r.insert(vec![Value::str("Solipsism 101")]);
    p.add_relation(r);
    net.add_peer(p);
    let out = net.query_str("Lonely", "q(T) :- Lonely.course(T)").unwrap();
    assert_eq!(out.answers.len(), 1);
    assert_eq!(out.messages, 0);
    assert_eq!(out.tuples_shipped, 0);
    assert!(out.completeness.is_complete());
}

#[test]
fn selections_are_pushed_through_mappings() {
    let net = university_network();
    let out = net
        .query_str("MIT", "q(T, E) :- MIT.subject(T, E), E > 50")
        .unwrap();
    // Databases@MIT (120) and Databases@Berkeley (95).
    assert_eq!(out.answers.len(), 2, "{}", out.answers);
}

#[test]
fn unknown_peer_is_an_error() {
    let mut net = university_network();
    let q = parse_query("q(T) :- Oxford.course(T)").unwrap();
    let oxford = |r: Result<_, PdmsError>| matches!(r, Err(PdmsError::UnknownPeer(p)) if p == "Oxford");
    assert!(oxford(net.query("Oxford", &q).map(|_| ())));
    assert!(oxford(net.query_str("Oxford", "q(T) :- Oxford.course(T)").map(|_| ())));
    assert!(oxford(net.explain_analyze("Oxford", &q).map(|_| ())));
    assert!(oxford(net.subscribe_cq("Oxford", "cq", q).map(|_| ())));
    assert_eq!(PdmsError::UnknownPeer("Oxford".into()).to_string(), "unknown peer \"Oxford\"");
    // Text that does not parse is refused before any peer is asked.
    let err = net.query_str("MIT", "q(T) :- ").unwrap_err();
    assert!(matches!(&err, PdmsError::Parse(_)), "{err:?}");
    assert_eq!(err.to_string(), parse_query("q(T) :- ").unwrap_err().to_string());
    let err = PdmsError::from(EvalError { message: "empty union".into() });
    assert_eq!(err.to_string(), "eval error: empty union");
}

#[test]
#[should_panic(expected = "unknown source peer")]
fn mapping_to_unknown_peer_panics() {
    let mut net = PdmsNetwork::new();
    net.add_peer(Peer::new("A"));
    net.add_mapping(
        GlavMapping::parse("m", "Ghost", "A", "m(X) :- Ghost.r(X) ==> m(X) :- A.r(X)").unwrap(),
    );
}

#[test]
fn try_add_mapping_rejects_bad_edges_gracefully() {
    let mut net = PdmsNetwork::new();
    net.add_peer(Peer::new("A"));
    net.add_peer(Peer::new("B"));
    let good = GlavMapping::parse("m", "A", "B", "m(X) :- A.r(X) ==> m(X) :- B.r(X)").unwrap();
    assert!(net.try_add_mapping(good).is_ok());
    let bad_src =
        GlavMapping::parse("m", "Ghost", "B", "m(X) :- Ghost.r(X) ==> m(X) :- B.r(X)").unwrap();
    let err = net.try_add_mapping(bad_src).unwrap_err();
    assert!(matches!(&err, PdmsError::UnknownSourcePeer(p) if p == "Ghost"), "{err:?}");
    assert_eq!(err.to_string(), "unknown source peer Ghost");
    let bad_tgt =
        GlavMapping::parse("m", "A", "Ghost", "m(X) :- A.r(X) ==> m(X) :- Ghost.r(X)").unwrap();
    let err = net.try_add_mapping(bad_tgt).unwrap_err();
    assert!(matches!(&err, PdmsError::UnknownTargetPeer(p) if p == "Ghost"), "{err:?}");
    assert_eq!(err.to_string(), "unknown target peer Ghost");
    // Rejected edges leave the graph untouched.
    assert_eq!(net.mapping_count(), 1);
}

#[test]
fn peer_departure_degrades_gracefully() {
    // "every member can join or leave at will": drop Berkeley's data;
    // MIT still gets its local answers plus whatever remains reachable
    // — and the gap is *reported*, not silently absorbed.
    let mut net = university_network();
    net.peer_mut("Berkeley").unwrap().storage =
        revere_storage::SharedCatalog::new(Catalog::new());
    let out = net.query_str("MIT", "q(T) :- MIT.subject(T, E)").unwrap();
    // MIT local (1) + Tsinghua via the two-hop translation (1).
    assert_eq!(out.answers.len(), 2, "{}", out.answers);
    assert!(!out.completeness.is_complete());
    assert!(out.completeness.relations_missing.contains("Berkeley.course"));
    assert!(out.completeness.disjuncts_dropped >= 1);
}

#[test]
fn ghost_owner_is_a_reported_gap_not_a_silent_shrink() {
    // Regression for the silent-shrinkage bug: a relation whose owner
    // has left the network must surface in the completeness report.
    let mut net = university_network();
    let departed = net.remove_peer("Berkeley");
    assert!(departed.is_some());
    let out = net.query_str("MIT", "q(T, E) :- MIT.subject(T, E)").unwrap();
    // Smaller answer, as before ...
    assert_eq!(out.answers.len(), 2, "{}", out.answers);
    // ... but now the ghost is named instead of vanishing without trace.
    assert!(!out.completeness.is_complete());
    assert!(out.completeness.peers_unreachable.contains("Berkeley"));
    assert!(out.completeness.relations_missing.contains("Berkeley.course"));
    assert!(out.completeness.disjuncts_dropped >= 1);
    assert!(out.completeness.coverage() < 1.0);
}

#[test]
fn all_disjuncts_dropped_is_an_empty_answer_shaped_by_the_head() {
    // No peer stores anything any more: every disjunct names an
    // unreachable relation, and the answer is shaped without
    // evaluating (or re-planning) anything.
    let mut net = university_network();
    net.obs = Obs::enabled();
    for peer in ["MIT", "Berkeley", "Tsinghua"] {
        net.peer_mut(peer).unwrap().storage =
            revere_storage::SharedCatalog::new(Catalog::new());
    }
    let out = net.query_str("MIT", "q(T, 'tag') :- MIT.subject(T, E)").unwrap();
    assert!(out.answers.is_empty());
    assert_eq!(out.answers.schema.name, "q");
    assert_eq!(out.answers.schema.attr_names().collect::<Vec<_>>(), ["T", "c1"]);
    assert_eq!(out.completeness.disjuncts_dropped, out.reformulation.union.disjuncts.len());
    let snapshot = net.obs.metrics().unwrap().snapshot().to_string();
    assert!(!snapshot.contains("query.eval."), "{snapshot}");
}

#[test]
fn downed_peer_yields_partial_answer_with_report() {
    let mut net = university_network();
    net.faults = FaultPlan::new(FaultSpec::default().with_down_peer("Berkeley"));
    let out = net.query_str("MIT", "q(T, E) :- MIT.subject(T, E)").unwrap();
    assert_eq!(out.answers.len(), 2, "{}", out.answers);
    assert!(out.completeness.peers_unreachable.contains("Berkeley"));
    assert!(out.completeness.relations_missing.contains("Berkeley.course"));
    // Every attempt was a request into the void.
    assert_eq!(out.completeness.retries as u32, net.retry.attempts() - 1);
    assert!(out.completeness.messages_dropped > 0);
    assert!(out.completeness.latency_ticks > 0, "backoff advances the clock");
}

#[test]
fn message_budget_truncates_with_report() {
    let mut net = university_network();
    // Room for exactly one remote fetch (2 messages), not two.
    net.budget.max_messages = Some(2);
    let out = net.query_str("MIT", "q(T, E) :- MIT.subject(T, E)").unwrap();
    assert!(out.messages <= 2);
    assert!(out.completeness.budget_exhausted);
    assert!(!out.completeness.is_complete());
    assert_eq!(out.completeness.relations_missing.len(), 1);
    // Local data always survives a blown budget.
    assert!(out.answers.len() >= 1);
}

#[test]
fn deadline_truncates_with_report() {
    let mut net = university_network();
    net.faults = FaultPlan::new(FaultSpec {
        latency_ticks: (3, 3),
        ..FaultSpec::default()
    });
    net.budget.deadline_ticks = Some(2);
    let out = net.query_str("MIT", "q(T, E) :- MIT.subject(T, E)").unwrap();
    // First remote fetch starts at tick 0 (< 2) and lands at tick 3;
    // the second is past the deadline before it starts.
    assert!(out.completeness.deadline_exceeded);
    assert_eq!(out.completeness.relations_missing.len(), 1);
    assert_eq!(out.completeness.latency_ticks, 3);
}

#[test]
fn zero_fault_plan_is_byte_identical_to_default() {
    let plain = university_network();
    let mut chaos_off = university_network();
    chaos_off.faults = FaultPlan::new(FaultSpec::chaos(99, 0.0));
    let q = parse_query("q(T, E) :- MIT.subject(T, E)").unwrap();
    let a = plain.query("MIT", &q).unwrap();
    let b = chaos_off.query("MIT", &q).unwrap();
    assert_eq!(a.answers.rows(), b.answers.rows());
    assert_eq!(a.messages, b.messages);
    assert_eq!(a.tuples_shipped, b.tuples_shipped);
    assert_eq!(a.peers_contacted, b.peers_contacted);
    assert_eq!(a.completeness, b.completeness);
}

#[test]
fn warm_cache_answers_are_byte_identical_and_counted() {
    let net = university_network();
    let q = parse_query("q(T, E) :- MIT.subject(T, E)").unwrap();
    let cold = net.query("MIT", &q).unwrap();
    let stats = net.cache_stats();
    assert_eq!(stats.reformulation_hits, 0);
    assert_eq!(stats.reformulation_misses, 1);
    assert!(stats.plan_misses > 0);
    for _ in 0..3 {
        let warm = net.query("MIT", &q).unwrap();
        assert_eq!(cold.answers.rows(), warm.answers.rows());
        assert_eq!(cold.completeness, warm.completeness);
    }
    let stats = net.cache_stats();
    assert_eq!(stats.reformulation_hits, 3);
    assert_eq!(stats.reformulation_misses, 1);
    // Every disjunct of every warm query came from the plan cache.
    assert_eq!(stats.plan_hits, 3 * cold.reformulation.union.disjuncts.len());
}

#[test]
fn caching_disabled_is_byte_identical() {
    let cached = university_network();
    let mut plain = university_network();
    plain.caching = false;
    let q = parse_query("q(T, E) :- MIT.subject(T, E), E > 30").unwrap();
    for _ in 0..2 {
        let a = cached.query("MIT", &q).unwrap();
        let b = plain.query("MIT", &q).unwrap();
        assert_eq!(a.answers.rows(), b.answers.rows());
        assert_eq!(a.completeness, b.completeness);
    }
    assert_eq!(plain.cache_stats(), CacheStats::default());
}

#[test]
fn adding_a_mapping_invalidates_the_caches() {
    let mut net = university_network();
    let q = parse_query("q(T, E) :- MIT.subject(T, E)").unwrap();
    let before = net.query("MIT", &q).unwrap();
    assert_eq!(before.answers.len(), 4);
    // A new peer + mapping makes more data reachable; a stale cached
    // reformulation would keep answering without it.
    let mut p = Peer::new("Oxford");
    let schema = vec![Attribute::text("title"), Attribute::int("enrollment")];
    let mut r = Relation::new(RelSchema::new("module", schema));
    r.insert(vec![Value::str("Logic"), Value::Int(77)]);
    p.add_relation(r);
    net.add_peer(p);
    let rule = "m(T, E) :- Oxford.module(T, E) ==> m(T, E) :- MIT.subject(T, E)";
    net.add_mapping(GlavMapping::parse("m_om", "Oxford", "MIT", rule).unwrap());
    let after = net.query("MIT", &q).unwrap();
    assert_eq!(after.answers.len(), 5, "{}", after.answers);
    assert!(after.answers.iter().any(|r| r[0] == Value::str("Logic")));
}

#[test]
fn removing_a_peer_invalidates_the_caches() {
    let mut net = university_network();
    let q = parse_query("q(T, E) :- MIT.subject(T, E)").unwrap();
    assert_eq!(net.query("MIT", &q).unwrap().answers.len(), 4);
    net.remove_peer("Tsinghua");
    let after = net.query("MIT", &q).unwrap();
    assert_eq!(after.answers.len(), 3, "{}", after.answers);
    assert!(!after.completeness.is_complete());
}

#[test]
fn peer_data_changes_invalidate_via_the_stats_epoch() {
    let net = university_network();
    let q = parse_query("q(T, E) :- MIT.subject(T, E)").unwrap();
    assert_eq!(net.query("MIT", &q).unwrap().answers.len(), 4);
    // Write through the peer's own storage — no network-level mutator
    // involved, so only the catalog stats epoch can catch it.
    net.peer("Berkeley").unwrap().storage.write(|c| {
        c.insert("Berkeley.course", vec![Value::str("Rhetoric"), Value::Int(12)])
    });
    let after = net.query("MIT", &q).unwrap();
    assert_eq!(after.answers.len(), 5, "{}", after.answers);
}

#[test]
fn incomplete_fetches_do_not_poison_the_plan_cache() {
    let mut net = university_network();
    net.faults = FaultPlan::new(FaultSpec::default().with_down_peer("Berkeley"));
    let q = parse_query("q(T, E) :- MIT.subject(T, E)").unwrap();
    let degraded = net.query("MIT", &q).unwrap();
    assert!(!degraded.completeness.is_complete());
    // Plans costed against the partial staging data were not cached.
    assert_eq!(net.cache_stats().plan_hits, 0);
    let again = net.query("MIT", &q).unwrap();
    assert_eq!(degraded.answers.rows(), again.answers.rows());
    // The reformulation *is* reused (it never depends on the data)...
    assert_eq!(net.cache_stats().reformulation_hits, 1);
    // ...but every disjunct replanned.
    assert_eq!(net.cache_stats().plan_hits, 0);
}

#[test]
fn clear_caches_resets_entries_and_counters() {
    let net = university_network();
    let q = parse_query("q(T, E) :- MIT.subject(T, E)").unwrap();
    net.query("MIT", &q).unwrap();
    net.query("MIT", &q).unwrap();
    assert!(net.cache_stats().reformulation_hits > 0);
    net.clear_caches();
    assert_eq!(net.cache_stats(), CacheStats::default());
    let out = net.query("MIT", &q).unwrap();
    assert_eq!(out.answers.len(), 4);
    assert_eq!(net.cache_stats().reformulation_misses, 1);
}

#[test]
fn caches_stay_within_capacity_and_never_change_an_answer() {
    let cached = university_network();
    let mut plain = university_network();
    plain.caching = false;
    // More distinct query texts than the reformulation cache holds,
    // each with disjunct shapes of its own: the constants differ.
    let texts = |i: usize| format!("q(T, E) :- MIT.subject(T, E), E > {i}");
    for i in 0..REFORMULATION_CAPACITY + 40 {
        let (a, b) = (
            cached.query_str("MIT", &texts(i)).unwrap(),
            plain.query_str("MIT", &texts(i)).unwrap(),
        );
        assert_eq!(a.answers.rows(), b.answers.rows(), "query {i}");
        let caches = cached.lock_caches();
        assert!(caches.reformulations.entries.len() <= REFORMULATION_CAPACITY);
        assert!(caches.plans.entries.len() <= PLAN_CAPACITY);
    }
    // The oldest texts were evicted, the newest are still served.
    let before = cached.cache_stats();
    cached.query_str("MIT", &texts(0)).unwrap();
    cached.query_str("MIT", &texts(REFORMULATION_CAPACITY + 39)).unwrap();
    let after = cached.cache_stats();
    assert_eq!(after.reformulation_misses, before.reformulation_misses + 1);
    assert_eq!(after.reformulation_hits, before.reformulation_hits + 1);
}

#[test]
fn bounded_map_drops_the_older_half_when_full() {
    let mut m = BoundedMap::new(4);
    for k in 0..4 {
        m.insert(k, k * 10);
    }
    // Overwriting a held key never evicts, and makes it the youngest.
    m.insert(0, 1);
    assert_eq!(m.entries.len(), 4);
    m.insert(4, 40);
    let mut held: Vec<i32> = m.entries.keys().copied().collect();
    held.sort_unstable();
    assert_eq!(held, [0, 4], "1, 2 and 3 were the three oldest");
    assert_eq!(m.get(&0), Some(&1));
    assert_eq!(m.remove(&4), Some(40));
}

#[test]
fn reformulation_audits_back_off_and_count_as_misses() {
    let net = university_network();
    let q = parse_query("q(T, E) :- MIT.subject(T, E)").unwrap();
    let cold = net.query("MIT", &q).unwrap();
    let mut audits = Vec::new();
    for lookup in 1..=70u64 {
        let before = net.cache_stats().reformulation_misses;
        let out = net.query("MIT", &q).unwrap();
        assert_eq!(out.answers.rows(), cold.answers.rows());
        if net.cache_stats().reformulation_misses > before {
            audits.push(lookup);
        }
    }
    assert_eq!(audits, [16, 64]);
    // An audit re-derives the same disjuncts, so no plan is rebuilt.
    let stats = net.cache_stats();
    assert_eq!(stats.plan_misses, cold.reformulation.union.disjuncts.len(), "{stats}");
}

#[test]
fn cache_stats_display_round_trips() {
    let stats = CacheStats {
        reformulation_hits: 3,
        reformulation_misses: 1,
        plan_hits: 12,
        plan_misses: 4,
        plan_evictions: 2,
    };
    assert_eq!(
        stats.to_string(),
        "reformulation_hits=3 reformulation_misses=1 plan_hits=12 plan_misses=4 \
         plan_evictions=2"
    );
}

/// One peer, one join: `course(title, dept) ⋈ dept(name, head)`.
fn join_network() -> PdmsNetwork {
    let mut net = PdmsNetwork::new();
    let mut p = Peer::new("U");
    let mut course = Relation::new(RelSchema::text("course", &["title", "dept"]));
    for (t, d) in [("Databases", "cs"), ("Compilers", "cs"), ("Ethics", "phil")] {
        course.insert(vec![Value::str(t), Value::str(d)]);
    }
    let mut dept = Relation::new(RelSchema::text("dept", &["name", "head"]));
    for (n, h) in [("cs", "Stonebraker"), ("phil", "Kant")] {
        dept.insert(vec![Value::str(n), Value::str(h)]);
    }
    p.add_relation(course);
    p.add_relation(dept);
    net.add_peer(p);
    net
}

#[test]
fn feedback_evicts_miscalibrated_plans_and_learns_overlap() {
    let mut net = join_network();
    // Hair-trigger threshold: every plan's max q-error is ≥ 1, so
    // every complete execution feeds back and evicts its own entry.
    net.replan_q_error = Some(0.5);
    let q = "q(T, H) :- U.course(T, D), U.dept(D, H)";
    let out = net.query_str("U", q).unwrap();
    assert_eq!(out.answers.len(), 3, "{}", out.answers);
    assert!(net.cache_stats().plan_evictions >= 1, "{}", net.cache_stats());
    // The observed selectivity landed in the owning peer's catalog...
    let learned = net.snapshot_all();
    assert!(!learned.join_stats().is_empty());
    let sel = learned
        .join_stats()
        .overlap("U.course", 1, "U.dept", 0)
        .expect("the join pair was observed");
    // 3 bindings out of 3 probes × 2 build rows.
    assert!((sel - 0.5).abs() < 1e-12, "sel {sel}");
    // ...and answers stay correct (and identical) on the re-planned path.
    let again = net.query_str("U", q).unwrap();
    assert_eq!(again.answers, out.answers);
}

#[test]
fn feedback_disabled_leaves_the_estimator_alone() {
    let mut net = join_network();
    net.replan_q_error = None;
    let q = "q(T, H) :- U.course(T, D), U.dept(D, H)";
    net.query_str("U", q).unwrap();
    net.query_str("U", q).unwrap();
    let stats = net.cache_stats();
    assert_eq!(stats.plan_evictions, 0, "{stats}");
    assert!(stats.plan_hits >= 1, "{stats}");
    assert!(net.snapshot_all().join_stats().is_empty());
}

#[test]
fn completeness_report_display_round_trips() {
    let mut report = CompletenessReport {
        disjuncts_total: 5,
        disjuncts_dropped: 2,
        peers_unreachable: ["Berkeley", "Tsinghua"].iter().map(|s| s.to_string()).collect(),
        relations_missing: ["Berkeley.course"].iter().map(|s| s.to_string()).collect(),
        retries: 7,
        messages_dropped: 3,
        latency_ticks: 42,
        budget_exhausted: true,
        deadline_exceeded: false,
    };
    assert_eq!(
        report.to_string(),
        "disjuncts_total=5 disjuncts_dropped=2 peers_unreachable=Berkeley,Tsinghua \
         relations_missing=Berkeley.course retries=7 messages_dropped=3 latency_ticks=42 \
         budget_exhausted=true deadline_exceeded=false"
    );
    // Empty sets serialize as empty values.
    report.peers_unreachable.clear();
    report.relations_missing.clear();
    assert!(report.to_string().contains(" peers_unreachable= relations_missing= retries=7 "));
}

#[test]
fn live_completeness_reports_round_trip() {
    // The serialization holds for reports the system actually
    // produces, not just hand-built ones: the line names the gap.
    let mut net = university_network();
    net.faults = FaultPlan::new(FaultSpec::default().with_down_peer("Berkeley"));
    let out = net.query_str("MIT", "q(T, E) :- MIT.subject(T, E)").unwrap();
    let text = out.completeness.to_string();
    assert!(text.contains(" peers_unreachable=Berkeley "), "{text}");
    assert!(!out.completeness.is_complete());
}

#[test]
fn explain_analyze_renders_per_disjunct_tables() {
    let net = university_network();
    let text = net.explain_analyze_str("MIT", "q(T, E) :- MIT.subject(T, E)").unwrap();
    assert!(text.contains("explain analyze at MIT"), "{text}");
    assert!(text.contains("disjunct 1:"), "{text}");
    assert!(text.contains("act bind"), "{text}");
    assert!(text.contains("q-err"), "{text}");
    assert!(text.contains("max q-error"), "{text}");
    let err = net.explain_analyze_str("Oxford", "q(T) :- Oxford.c(T)").unwrap_err();
    assert!(matches!(err, PdmsError::UnknownPeer(_)), "{err:?}");
}

#[test]
fn enabling_obs_never_changes_answers() {
    let plain = university_network();
    let mut traced = university_network();
    traced.obs = Obs::enabled();
    let q = parse_query("q(T, E) :- MIT.subject(T, E)").unwrap();
    let a = plain.query("MIT", &q).unwrap();
    let b = traced.query("MIT", &q).unwrap();
    assert_eq!(a.answers.rows(), b.answers.rows());
    assert_eq!(a.messages, b.messages);
    assert_eq!(a.completeness, b.completeness);
    // And the trace actually recorded the pipeline.
    let spans = traced.obs.tracer().unwrap().spans();
    assert!(spans.iter().any(|s| s.name == "pdms.query"));
    assert!(spans.iter().any(|s| s.name == "pdms.reformulate"));
    assert!(spans.iter().any(|s| s.name == "pdms.fetch"));
    assert!(spans.iter().any(|s| s.name == "pdms.eval.disjunct"));
    assert!(spans.iter().any(|s| s.name == "eval.step"));
    assert!(traced.obs.metrics().unwrap().counter(names::PDMS_FETCH_MESSAGES_SENT) > 0);
}

#[test]
fn obs_trace_mirrors_simulated_latency() {
    let mut net = university_network();
    net.obs = Obs::enabled();
    net.faults = FaultPlan::new(FaultSpec::default().with_down_peer("Berkeley"));
    let out = net.query_str("MIT", "q(T, E) :- MIT.subject(T, E)").unwrap();
    assert!(out.completeness.latency_ticks > 0);
    // The tracer clock advanced by at least the simulated latency
    // (span starts/ends consume extra ticks on top).
    let now = net.obs.tracer().unwrap().now();
    assert!(now >= out.completeness.latency_ticks, "{now}");
    // The down peer's fetch span carries its fault annotations.
    let spans = net.obs.tracer().unwrap().spans();
    let fetch = spans
        .iter()
        .find(|s| s.name == "pdms.fetch" && s.arg("owner") == Some("Berkeley"))
        .expect("fetch span for Berkeley");
    assert_eq!(fetch.arg("outcome"), Some("unreachable"));
    assert!(fetch.arg("dropped").is_some());
    assert!(fetch.arg("latency_ticks").is_some());
}

#[test]
fn new_peer_joining_is_one_mapping_away() {
    // Example 3.1's Trento: join by mapping to the most similar peer.
    let mut net = university_network();
    let mut trento = Peer::new("Trento");
    let schema = vec![Attribute::text("titolo"), Attribute::int("iscritti")];
    let mut r = Relation::new(RelSchema::new("corso", schema));
    r.insert(vec![Value::str("Etruscan Art"), Value::Int(15)]);
    trento.add_relation(r);
    net.add_peer(trento);
    let rule = "m(T, E) :- Trento.corso(T, E) ==> m(T, E) :- Tsinghua.kecheng(T, E)";
    net.add_mapping(GlavMapping::parse("m_tt", "Trento", "Tsinghua", rule).unwrap());
    let out = net.query_str("MIT", "q(T, E) :- MIT.subject(T, E)").unwrap();
    assert_eq!(out.answers.len(), 5);
    assert!(out
        .answers
        .iter()
        .any(|r| r[0] == Value::str("Etruscan Art")));
}

#[test]
fn departed_peers_learned_stats_do_not_survive_removal() {
    // A peer that leaves takes its evidence with it: learned join
    // selectivities naming its relations are stale the moment it
    // departs (it may rejoin with different data under the same
    // names) and must not keep steering other peers' plans — nor come
    // back when a durable peer that learned it restarts from its log.
    let mut net = university_network();
    net.enable_durability("MIT").expect("MIT is a member");
    net.peer("MIT").unwrap().storage.write(|c| {
        c.note_join_overlap("MIT.subject", 0, "Berkeley.course", 0, 0.5);
        c.note_join_overlap("MIT.subject", 0, "Tsinghua.kecheng", 0, 0.25);
    });
    let mit = net.peer("MIT").unwrap();
    assert_eq!(mit.storage.read(|c| c.join_stats().len()), 2);
    let epoch_before = mit.storage.epoch();

    net.remove_peer("Berkeley").expect("Berkeley is a member");
    let mit = net.peer("MIT").unwrap();
    assert_eq!(
        mit.storage.read(|c| c.join_stats().overlap("MIT.subject", 0, "Berkeley.course", 0)),
        None,
        "stale evidence about the departed peer is gone"
    );
    assert_eq!(
        mit.storage.read(|c| c.join_stats().overlap("MIT.subject", 0, "Tsinghua.kecheng", 0)),
        Some(0.25),
        "evidence about live peers survives"
    );
    assert!(mit.storage.epoch() != epoch_before, "purge shifts the stats epoch");

    net.restart_peer("MIT").expect("MIT is durable");
    let learned = net.peer("MIT").unwrap().storage.read(|c| c.join_stats().clone());
    assert_eq!(learned.len(), 1, "the purge was journaled: replay does not undo it");
    assert_eq!(learned.overlap("MIT.subject", 0, "Tsinghua.kecheng", 0), Some(0.25));
}

#[test]
fn add_peer_over_a_live_name_retires_the_predecessor() {
    // The newcomer inherits nothing: not the predecessor's disk (a
    // restart would recover the old image into it), not its journal
    // cursor, not the selectivities other peers learned from its data.
    let mut net = university_network();
    net.enable_durability("Berkeley").expect("Berkeley is a member");
    net.peer("MIT").unwrap().storage.write(|c| {
        c.note_join_overlap("MIT.subject", 0, "Berkeley.course", 0, 0.5);
    });
    let mut newcomer = Peer::new("Berkeley");
    let mut r = Relation::new(RelSchema::text("course", &["title"]));
    r.insert(vec![Value::str("Data Provenance")]);
    newcomer.add_relation(r);
    net.add_peer(newcomer);
    assert!(net.restart_peer("Berkeley").is_none(), "the predecessor's disk went with it");
    let rows = net.peer("Berkeley").unwrap().snapshot("Berkeley.course").unwrap();
    assert_eq!(rows.rows(), [vec![Value::str("Data Provenance")]]);
    for name in ["MIT", "Tsinghua"] {
        let dump = net.peer(name).unwrap().storage.read(|c| c.join_stats().dump());
        assert!(!dump.contains("Berkeley."), "{name} kept {dump}");
    }
}

#[test]
fn durable_peer_restart_recovers_catalog_and_schema() {
    let mut net = university_network();
    net.enable_durability("Berkeley").expect("Berkeley is a member");
    // Post-checkpoint mutation: lands in the log, not the image.
    net.peer_mut("Berkeley").unwrap().insert(
        "course",
        vec![Value::str("Crash Recovery"), Value::Int(60)],
    );
    let before = net.query_str("MIT", "q(T, E) :- MIT.subject(T, E)").unwrap();

    let report = net.restart_peer("Berkeley").expect("durable peer restarts");
    assert!(report.image_used);
    assert_eq!(report.replayed, 1, "only the post-checkpoint insert replays");
    assert!(
        net.peer("Berkeley").unwrap().schema.relation("course").is_some(),
        "logical schema is configuration, not volatile state"
    );
    let after = net.query_str("MIT", "q(T, E) :- MIT.subject(T, E)").unwrap();
    assert_eq!(before.answers, after.answers, "answers identical across the restart");
}

#[test]
fn non_durable_peer_cannot_restart() {
    let mut net = university_network();
    assert!(net.restart_peer("Berkeley").is_none(), "no disk, no recovery");
    assert!(net.peer("Berkeley").is_some(), "the live peer is untouched");
    assert!(net.restart_peer("Nowhere").is_none());
}

#[test]
fn subscription_tracks_published_deltas_across_peers() {
    let mut net = university_network();
    let text = "q(T, E) :- MIT.subject(T, E)";
    net.subscribe_str("MIT", "cq", text).unwrap();
    // Initialization lands exactly on the one-shot answer.
    let oneshot = net.query_str("MIT", text).unwrap().answers;
    assert_eq!(net.subscription("cq").unwrap().answers().rows(), oneshot.rows());

    // A remote insert flows through the mapping-reformulated circuit.
    let gram = Updategram::inserts(
        "Berkeley.course",
        vec![vec![Value::str("Distributed Systems"), Value::Int(77)]],
    );
    let report = net.publish(&gram).unwrap();
    assert_eq!(report.refreshed, vec!["cq".to_string()]);
    assert!(report.output_changes >= 1);
    let oneshot = net.query_str("MIT", text).unwrap().answers;
    assert_eq!(net.subscription("cq").unwrap().answers().rows(), oneshot.rows());

    // A delete retracts; the maintained answer shrinks in lockstep.
    let gram = Updategram::deletes(
        "Berkeley.course",
        vec![vec![Value::str("Ancient Greece"), Value::Int(40)]],
    );
    net.publish(&gram).unwrap();
    let oneshot = net.query_str("MIT", text).unwrap().answers;
    assert_eq!(net.subscription("cq").unwrap().answers().rows(), oneshot.rows());
    assert_eq!(net.subscription("cq").unwrap().refreshes, 2);
}

#[test]
fn unaffected_subscription_is_a_counted_noop() {
    let mut net = PdmsNetwork::new();
    for name in ["A", "B"] {
        let mut p = Peer::new(name);
        let mut r = Relation::new(RelSchema::text("r", &["x"]));
        r.insert(vec![Value::str("seed")]);
        p.add_relation(r);
        net.add_peer(p);
    }
    net.subscribe_str("A", "only_a", "q(X) :- A.r(X)").unwrap();
    let work_before = net.subscription("only_a").unwrap().work();
    let report = net
        .publish(&Updategram::inserts("B.r", vec![vec![Value::str("noise")]]))
        .unwrap();
    assert!(report.refreshed.is_empty());
    assert_eq!(report.skipped, 1);
    let sub = net.subscription("only_a").unwrap();
    assert_eq!(sub.skipped, 1);
    assert_eq!(sub.work(), work_before, "no join work for an unaffected delta");
}

#[test]
fn durable_peer_direct_mutations_sync_through_the_wal() {
    let mut net = university_network();
    net.enable_durability("Berkeley").expect("Berkeley is a member");
    let text = "q(T, E) :- MIT.subject(T, E)";
    net.subscribe_str("MIT", "cq", text).unwrap();
    // Mutate the durable peer directly — no publish, no gram.
    net.peer("Berkeley").unwrap().storage.write(|c| {
        c.insert("Berkeley.course", vec![Value::str("WAL Mining"), Value::Int(12)]);
        c.delete("Berkeley.course", &[Value::str("Ancient Greece"), Value::Int(40)]);
    });
    let absorbed = net.sync_durable_subscriptions();
    assert!(absorbed >= 2, "both the insert and the delete are captured");
    let oneshot = net.query_str("MIT", text).unwrap().answers;
    assert_eq!(net.subscription("cq").unwrap().answers().rows(), oneshot.rows());
    // Cursors advanced: a second sync has nothing left to absorb.
    assert_eq!(net.sync_durable_subscriptions(), 0);
}

#[test]
fn publish_rejects_bad_targets() {
    let mut net = university_network();
    let mut refuse = |relation: &str| {
        net.publish(&Updategram::inserts(relation, vec![vec![Value::str("x"), Value::Int(1)]]))
            .unwrap_err()
    };
    let err = refuse("course");
    assert!(matches!(&err, PdmsError::Unqualified(r) if r == "course"), "{err:?}");
    assert_eq!(err.to_string(), "relation \"course\" is not peer-qualified");
    assert!(matches!(refuse("Oxford.course"), PdmsError::UnknownPeer(p) if p == "Oxford"));
    let err = refuse("MIT.course");
    assert!(matches!(&err, PdmsError::NotStored { peer, relation }
        if peer == "MIT" && relation == "MIT.course"), "{err:?}");
    assert_eq!(err.to_string(), "peer \"MIT\" does not store \"MIT.course\"");
}
