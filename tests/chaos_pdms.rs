//! Integration: the PDMS under deterministic chaos (spanning revere-util's
//! fault substrate, revere-pdms networking and propagation).
//!
//! Every test reads its seed from `REVERE_CHAOS_SEED` (default 7) and must
//! hold for *any* seed: assertions are about invariants (determinism,
//! reported gaps, exactly-once application, budget honoring), never about
//! which specific peers a given seed happens to down.
//!
//! `scripts/verify.sh` runs this suite under several seeds; override the
//! set with `REVERE_CHAOS_SEEDS="1 2 3" scripts/verify.sh`.

use revere::pdms::durable::{checkpoint, recover, PeerDisk};
use revere::prelude::*;
use revere::storage::Attribute;

/// The seed under test: `REVERE_CHAOS_SEED` or 7.
fn chaos_seed() -> u64 {
    std::env::var("REVERE_CHAOS_SEED")
        .ok()
        .and_then(|s| s.trim().parse().ok())
        .unwrap_or(7)
}

/// An `n`-peer PDMS over `topology`, one course row per peer.
fn build_network(kind: TopologyKind, n: usize, seed: u64) -> PdmsNetwork {
    let topology = Topology::generate(kind, n, seed);
    let mut net = PdmsNetwork::new();
    for i in 0..n {
        let mut p = Peer::new(format!("P{i}"));
        let mut r = Relation::new(RelSchema::new(
            "course",
            vec![Attribute::text("title"), Attribute::int("enrollment")],
        ));
        r.insert(vec![Value::str(format!("Course at P{i}")), Value::Int(10 + i as i64)]);
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
    net
}

fn sorted_rows(out: &QueryOutcome) -> Vec<Vec<Value>> {
    let mut rows = out.answers.rows().to_vec();
    rows.sort();
    rows
}

#[test]
fn same_seed_chaos_runs_are_identical() {
    let run = || {
        let mut net = build_network(TopologyKind::Random { extra: 2 }, 10, 3);
        net.faults = FaultPlan::new(FaultSpec::chaos(chaos_seed(), 0.3));
        net.query_str("P0", "q(T, E) :- P0.course(T, E)").unwrap()
    };
    let (a, b) = (run(), run());
    assert_eq!(sorted_rows(&a), sorted_rows(&b));
    assert_eq!(a.messages, b.messages);
    assert_eq!(a.tuples_shipped, b.tuples_shipped);
    assert_eq!(a.completeness, b.completeness);
}

#[test]
fn downed_peer_yields_partial_answer_naming_it() {
    let mut net = build_network(TopologyKind::Chain, 4, 0);
    // Probabilities stay zero; P2 is forced down regardless of seed.
    net.faults = FaultPlan::new(
        FaultSpec { seed: chaos_seed(), ..FaultSpec::default() }.with_down_peer("P2"),
    );
    let out = net.query_str("P0", "q(T, E) :- P0.course(T, E)").unwrap();
    // The other three peers still answer (reformulation composes the
    // mappings, so P3 is fetched directly — not routed through P2)...
    assert_eq!(out.answers.len(), 3, "{}", out.answers);
    assert!(!out.answers.iter().any(|r| r[0] == Value::str("Course at P2")));
    // ...and the gap is named, not silently absorbed.
    assert!(!out.completeness.is_complete());
    assert!(out.completeness.peers_unreachable.contains("P2"));
    assert!(out.completeness.relations_missing.contains("P2.course"));
    assert!(out.completeness.retries > 0, "down peer should have been retried");
    assert!(out.completeness.messages_dropped > 0);
}

#[test]
fn zero_fault_plan_matches_default_network_bit_for_bit() {
    let plain = build_network(TopologyKind::Random { extra: 2 }, 8, 11);
    let mut zeroed = build_network(TopologyKind::Random { extra: 2 }, 8, 11);
    zeroed.faults = FaultPlan::new(FaultSpec::chaos(chaos_seed(), 0.0));
    assert!(zeroed.faults.is_zero());
    let a = plain.query_str("P0", "q(T, E) :- P0.course(T, E)").unwrap();
    let b = zeroed.query_str("P0", "q(T, E) :- P0.course(T, E)").unwrap();
    assert_eq!(a.answers.rows(), b.answers.rows());
    assert_eq!(a.messages, b.messages);
    assert_eq!(a.tuples_shipped, b.tuples_shipped);
    assert_eq!(a.peers_contacted, b.peers_contacted);
    assert!(b.completeness.is_complete());
    assert_eq!(b.completeness.retries, 0);
    assert_eq!(b.completeness.latency_ticks, 0);
}

#[test]
fn message_budget_is_honored_and_reported() {
    let mut net = build_network(TopologyKind::Chain, 6, 0);
    net.budget = QueryBudget { max_messages: Some(4), deadline_ticks: None };
    let out = net.query_str("P0", "q(T, E) :- P0.course(T, E)").unwrap();
    assert!(out.messages <= 4, "spent {} messages", out.messages);
    assert!(out.completeness.budget_exhausted);
    assert!(!out.completeness.is_complete());
    // The local row plus whatever fit in the budget.
    assert!(!out.answers.is_empty());
    assert!(out.answers.len() < 6, "{}", out.answers);
    assert!(!out.completeness.peers_unreachable.is_empty());
}

/// A one-relation remote cache: catalog holding `feed`, view caching it.
fn remote_cache() -> (Catalog, MaterializedView) {
    let mut rel = Relation::new(RelSchema::text("feed", &["title"]));
    rel.insert(vec!["Databases".into()]);
    let mut cat = Catalog::new();
    cat.register(rel);
    let view =
        MaterializedView::new("cache", parse_query("cache(T) :- feed(T)").unwrap(), &cat).unwrap();
    (cat, view)
}

#[test]
fn duplicate_updategram_applies_exactly_once() {
    let (mut cat, mut view) = remote_cache();
    let mut inbox = GramInbox::new();
    let mut link = ReliableLink::new("M", FaultPlan::zero());
    let sealed = link.seal(Updategram::inserts("feed", vec![vec!["Greece".into()]]));
    // Shipped twice (sender crashed before recording the ack, say): the
    // second delivery is acknowledged but a no-op at the receiver.
    let first = link.ship(&sealed, &mut inbox, &mut cat, &mut view).unwrap();
    let second = link.ship(&sealed, &mut inbox, &mut cat, &mut view).unwrap();
    assert!(first.acknowledged && first.applied);
    assert!(second.acknowledged && !second.applied);
    assert_eq!(inbox.duplicates_ignored, 1);
    assert_eq!(inbox.applied_count(), 1);
    assert_eq!(cat.get("feed").unwrap().len(), 2, "insert applied exactly once");
    assert_eq!(view.len(), 2);
}

#[test]
fn lossy_link_still_delivers_exactly_once_to_the_cache() {
    let (mut cat, mut view) = remote_cache();
    let mut inbox = GramInbox::new();
    // Heavy drop/flaky/duplicate weather, but no outage: at-least-once
    // shipping converges for any seed within the round budget.
    let spec = FaultSpec {
        seed: chaos_seed(),
        drop_prob: 0.6,
        flaky_prob: 0.3,
        duplicate_prob: 0.4,
        ..FaultSpec::default()
    };
    let mut link = ReliableLink::new("M", FaultPlan::new(spec));
    let sealed = link.seal(Updategram::inserts("feed", vec![vec!["Greece".into()]]));
    let d = link
        .ship_until_acknowledged(&sealed, &mut inbox, &mut cat, &mut view, 64)
        .unwrap();
    assert!(d.acknowledged, "lossy link never converged: {:?}", link.stats);
    assert!(d.applied);
    // However many copies the weather produced, the cache saw one apply.
    assert_eq!(inbox.applied_count(), 1);
    assert_eq!(cat.get("feed").unwrap().len(), 2);
    assert_eq!(view.len(), 2);
}

// ---------------------------------------------------------------------
// Continuous queries under chaos (circuits × E12 weather × E16 restarts)
// ---------------------------------------------------------------------

/// The subscribing peer's base data for a joining continuous query:
/// `feed(title, kind)` and `tag(kind, label)`.
fn subscriber_catalog() -> Catalog {
    let mut feed = Relation::new(RelSchema::new(
        "feed",
        vec![Attribute::text("title"), Attribute::int("kind")],
    ));
    feed.insert(vec![Value::str("Databases"), Value::Int(0)]);
    feed.insert(vec![Value::str("Systems"), Value::Int(1)]);
    let mut tag = Relation::new(RelSchema::new(
        "tag",
        vec![Attribute::int("kind"), Attribute::text("label")],
    ));
    tag.insert(vec![Value::Int(0), Value::str("core")]);
    let mut cat = Catalog::new();
    cat.register(feed);
    cat.register(tag);
    cat
}

/// The deterministic updategram stream both twins replay: inserts on both
/// join sides (a `tag` insert re-derives many cached rows at once) and a
/// delete that always hits the previous tick's `feed` insert.
fn subscriber_gram(tick: u64) -> Updategram {
    match tick % 5 {
        0 | 1 | 3 => Updategram::inserts(
            "feed",
            vec![vec![Value::str(format!("t{tick}")), Value::Int((tick % 3) as i64)]],
        ),
        2 => Updategram::inserts(
            "tag",
            vec![vec![Value::Int((tick % 3) as i64), Value::str(format!("l{tick}"))]],
        ),
        _ => Updategram::deletes(
            "feed",
            vec![vec![Value::str(format!("t{}", tick - 1)), Value::Int(((tick - 1) % 3) as i64)]],
        ),
    }
}

/// One run of the stream into a circuit-backed continuous query behind
/// `spec` weather, optionally crashing the subscriber mid-stream and
/// recovering it from its disk (the circuit is volatile — it is rebuilt
/// from the recovered durable catalog). Returns the canonical end state:
/// (maintained bag rows, base catalog rows, grams applied).
fn dataflow_chaos_run(
    seed: u64,
    lossy: bool,
    crash_at: Option<u64>,
) -> (Vec<Vec<Value>>, Vec<Vec<Value>>, usize) {
    const ROUNDS: u64 = 20;
    let plan = if lossy {
        FaultPlan::new(FaultSpec {
            seed,
            drop_prob: 0.6,
            flaky_prob: 0.3,
            duplicate_prob: 0.4,
            ..FaultSpec::default()
        })
    } else {
        FaultPlan::zero()
    };
    let disk = PeerDisk::new();
    let mut cat = subscriber_catalog();
    cat.attach_journal(disk.journal());
    checkpoint(&disk, &cat, &[], &[]);
    let q = parse_query("cache(T, L) :- feed(T, K), tag(K, L)").unwrap();
    let mut view = MaterializedView::new("cache", q.clone(), &cat).unwrap();
    let mut inbox = GramInbox::durable("Src", disk.journal());
    let mut link = ReliableLink::new("Sub", plan);
    let mut pending: Vec<SequencedGram> = Vec::new();

    for tick in 0..ROUNDS {
        if crash_at == Some(tick) {
            drop(std::mem::take(&mut cat));
            let rec = recover(&disk).expect("subscriber recovers");
            cat = rec.catalog;
            inbox = rec
                .inboxes
                .into_iter()
                .find(|(l, _)| l == "Src")
                .map(|(_, i)| i)
                .unwrap_or_else(|| GramInbox::durable("Src", disk.journal()));
            view = MaterializedView::new("cache", q.clone(), &cat).expect("circuit rebuilds");
        }
        pending.push(link.seal(subscriber_gram(tick)));
        // Ship strictly in sequence order: a delete must not overtake the
        // insert it targets (deletes of absent rows are no-ops, so
        // out-of-order delivery would not converge). The head gram blocks
        // the line until acknowledged.
        while let Some(g) = pending.first() {
            let d = link.ship(g, &mut inbox, &mut cat, &mut view).expect("ship");
            if d.acknowledged {
                pending.remove(0);
            } else {
                break;
            }
        }
        if tick % 6 == 5 {
            checkpoint(&disk, &cat, &[&inbox], &[]);
        }
    }
    let mut rounds = 0;
    while let Some(g) = pending.first() {
        let d = link.ship(g, &mut inbox, &mut cat, &mut view).expect("ship");
        if d.acknowledged {
            pending.remove(0);
        }
        rounds += 1;
        assert!(rounds < 10_000, "lossy-but-live weather must drain");
    }

    // Whatever the weather did, the circuit must agree with a fresh
    // evaluation of its own definition over the final base state.
    let oracle = eval_cq_bag(&q, &cat).unwrap().sorted();
    assert_eq!(view.as_bag().rows(), oracle.rows(), "circuit drifted from recompute");

    let mut bag = view.as_bag().rows().to_vec();
    bag.sort();
    let mut base: Vec<Vec<Value>> = Vec::new();
    for rel in ["feed", "tag"] {
        base.extend(cat.get(rel).unwrap().rows().iter().cloned());
    }
    base.sort();
    (bag, base, inbox.applied_count())
}

#[test]
fn subscribed_circuit_under_chaos_converges_to_the_fault_free_twin() {
    let seed = chaos_seed();
    let clean = dataflow_chaos_run(seed, false, None);
    assert_eq!(clean.2, 20, "fault-free twin applies every gram once");
    let lossy = dataflow_chaos_run(seed, true, None);
    assert_eq!(lossy, clean, "seed {seed}: lossy weather diverged from the fault-free twin");
    // Crash-and-recover mid-stream: the durable catalog + inbox watermark
    // come back, the circuit re-seeds from them, and the stream continues
    // exactly-once — including re-deliveries of grams applied pre-crash.
    for crash_tick in [3u64, 9, 16] {
        let crashy = dataflow_chaos_run(seed, true, Some(crash_tick));
        assert_eq!(
            crashy, clean,
            "seed {seed}: crash at tick {crash_tick} diverged from the fault-free twin"
        );
    }
}

#[test]
fn raising_the_dial_never_creates_answers() {
    // Fixed dice, moving thresholds: with one seed, a higher failure rate
    // can only shrink the answer set.
    let mut counts = Vec::new();
    for rate in [0.0, 0.2, 0.4, 0.6] {
        let mut net = build_network(TopologyKind::Random { extra: 2 }, 10, 3);
        net.faults = FaultPlan::new(FaultSpec::chaos(chaos_seed(), rate));
        let out = net.query_str("P0", "q(T, E) :- P0.course(T, E)").unwrap();
        counts.push(out.answers.len());
    }
    assert!(counts.windows(2).all(|w| w[1] <= w[0]), "{counts:?}");
}

#[test]
fn crash_at_tick_zero_is_indistinguishable_from_a_downed_peer() {
    // A peer whose kill-at-tick event fires before the query starts is
    // down for the whole query: answers and the completeness report must
    // match the static-outage plan exactly.
    let run = |spec: FaultSpec| {
        let mut net = build_network(TopologyKind::Chain, 6, 3);
        net.faults = FaultPlan::new(spec);
        net.query_str("P0", "q(T, E) :- P0.course(T, E)").unwrap()
    };
    let crashed = run(FaultSpec::default().with_crash("P3", 0));
    let downed = run(FaultSpec::default().with_down_peer("P3"));
    assert_eq!(sorted_rows(&crashed), sorted_rows(&downed));
    assert_eq!(
        crashed.completeness.peers_unreachable,
        downed.completeness.peers_unreachable
    );
    assert!(!crashed.completeness.is_complete());
    assert!(crashed.completeness.peers_unreachable.contains("P3"));
}

#[test]
fn mid_query_crashes_surface_as_reported_gaps_never_silent_shrink() {
    // Kill-at-tick events landing *during* the fetch phase (the message
    // latency advances the query clock past them) may cost answers, but
    // every lost answer must be blamed in the completeness report — a
    // crash never silently shrinks the answer set.
    let seed = chaos_seed();
    let baseline = {
        let mut net = build_network(TopologyKind::Random { extra: 2 }, 10, 3);
        net.faults = FaultPlan::new(FaultSpec {
            seed,
            latency_ticks: (1, 3),
            ..FaultSpec::default()
        });
        net.query_str("P0", "q(T, E) :- P0.course(T, E)").unwrap()
    };
    assert!(baseline.completeness.is_complete(), "latency alone loses nothing");
    for tick in [1u64, 4, 8, 16] {
        let mut spec = FaultSpec { seed, latency_ticks: (1, 3), ..FaultSpec::default() };
        for p in 1..10 {
            // Stagger the kills so different peers die at different ticks.
            spec = spec.with_crash(format!("P{p}"), tick + p % 3);
        }
        let mut net = build_network(TopologyKind::Random { extra: 2 }, 10, 3);
        net.faults = FaultPlan::new(spec);
        let out = net.query_str("P0", "q(T, E) :- P0.course(T, E)").unwrap();
        assert!(out.answers.len() <= baseline.answers.len());
        if out.answers.len() < baseline.answers.len() {
            assert!(
                !out.completeness.is_complete(),
                "tick {tick}: shrunken answers with a clean report"
            );
            assert!(
                !out.completeness.peers_unreachable.is_empty()
                    || out.completeness.disjuncts_dropped > 0,
                "tick {tick}: the gap names no culprit: {:?}",
                out.completeness
            );
        }
    }
}
