//! Differential testing for the PDMS query caches: warm ≡ cold.
//!
//! A cached reformulation is valid for the mapping graph it was expanded
//! over, a cached plan for the statistics of the peers it reads; nothing
//! is ever flushed globally. This suite draws one random schedule over
//! everything that can change either input — publishes (insert and
//! delete grams), direct catalog writes and deletes, new mappings, peers
//! leaving and rejoining under the same name with *different* data,
//! crash-restarts of durable peers, changing network weather, and the
//! estimator feedback loop writing learned statistics mid-query — and
//! applies it to a network and its cold-cache twin, which clears every
//! cache before each query and so reformulates and plans from scratch.
//! After every step a random query (at a random peer) must return
//! identical sorted answers and an identical [`CompletenessReport`] on
//! both, and the twin must record no cache hit.
//!
//! Seeding: `REVERE_CACHE_SEED` (default 7) seeds the schedule;
//! `scripts/verify.sh` sweeps `REVERE_CACHE_SEEDS` (default
//! `7 42 1003 1 2`).

use revere::prelude::*;
use revere::storage::Attribute;
use revere_util::prop::Gen;
use revere_util::RngExt;

const PEERS: usize = 6;
const STEPS: usize = 160;
/// Peers given stable storage (and so eligible for `restart_peer`).
const DURABLE: [usize; 2] = [1, 4];

/// The seed under test: `REVERE_CACHE_SEED` or 7.
fn cache_seed() -> u64 {
    std::env::var("REVERE_CACHE_SEED")
        .ok()
        .and_then(|s| s.trim().parse().ok())
        .unwrap_or(7)
}

/// Peer `i` with a `course` relation in E15's correlated layout: a block
/// of rows shares the hot enrollment 100, half of them titled
/// `Colloquium`, so a join behind the constant title mis-estimates by
/// more than the re-plan threshold and the feedback loop fires.
/// `generation` changes both the size and the values, so a peer that
/// rejoins under its old name holds different data.
fn course_peer(i: usize, generation: usize) -> Peer {
    let mut p = Peer::new(format!("P{i}"));
    let mut r = Relation::new(RelSchema::new(
        "course",
        vec![Attribute::text("title"), Attribute::int("enrollment")],
    ));
    let n = 24 + 12 * ((i + generation) % 3);
    for k in 0..n {
        let (title, e) = match k {
            0..=1 => ("Colloquium".to_string(), 100),
            2..=3 => (format!("Workshop {k} at P{i}"), 100),
            _ => (
                format!("Course {k} at P{i} (gen {generation})"),
                (10 + 40 * i + k + 7 * generation) as i64,
            ),
        };
        r.insert(vec![Value::str(title), Value::Int(e)]);
    }
    p.add_relation(r);
    p
}

fn renaming(name: String, a: usize, b: usize) -> GlavMapping {
    GlavMapping::parse(
        name,
        format!("P{a}"),
        format!("P{b}"),
        &format!("m(T, E) :- P{a}.course(T, E) ==> m(T, E) :- P{b}.course(T, E)"),
    )
    .expect("mapping parses")
}

/// Six peers and a single mapping: the schedule's `add_mapping` steps
/// connect the rest, so each one makes new data reachable and a stale
/// cached reformulation shows as a missing answer.
fn build() -> PdmsNetwork {
    let mut net = PdmsNetwork::new();
    for i in 0..PEERS {
        net.add_peer(course_peer(i, 0));
    }
    net.add_mapping(renaming("m0".to_string(), 0, 1));
    for i in DURABLE {
        net.enable_durability(&format!("P{i}")).expect("member peer");
    }
    net
}

/// The query pool posed at `peer`: E13's templates plus the correlated
/// probe that trips the feedback loop.
fn templates(peer: &str) -> Vec<String> {
    let mut pool = course_templates(peer, 8);
    pool.push(format!("q(U, E) :- {peer}.course(U, E), {peer}.course('Colloquium', E)"));
    pool
}

/// Pose `text` at `at` on both networks, the twin's caches cleared first,
/// and hold them to each other.
fn assert_same(
    cached: &PdmsNetwork,
    cold: &PdmsNetwork,
    at: &str,
    text: &str,
    when: &str,
) {
    let q = parse_query(text).expect("template parses");
    let run = |net: &PdmsNetwork| net.query(at, &q).expect("member peer");
    let a = run(cached);
    cold.clear_caches();
    let b = run(cold);
    let stats = cold.cache_stats();
    assert_eq!((stats.reformulation_hits, stats.plan_hits), (0, 0), "{when}: the cold twin hit");
    assert_eq!(
        a.answers.sorted().into_rows(),
        b.answers.sorted().into_rows(),
        "{when}: `{text}` at {at} diverged from the cold run"
    );
    assert_eq!(a.completeness, b.completeness, "{when}: `{text}` at {at}: completeness diverged");
}

#[test]
fn random_schedule_cached_equals_uncached() {
    let seed = cache_seed();
    let mut g = Gen::from_seed(seed.wrapping_mul(0x9E37_79B9_7F4A_7C15));
    let mut cached = build();
    let mut cold = build();

    // Warm-up: every template once at P0 — and the correlated probe must
    // actually force a feedback eviction, or the schedule below would
    // never exercise plans invalidated by learned statistics.
    for text in templates("P0") {
        assert_same(&cached, &cold, "P0", &text, "warm-up");
    }
    assert!(cached.cache_stats().plan_evictions > 0, "the correlated probe never tripped feedback");

    let mut generation = [0usize; PEERS];
    let mut absent: Vec<usize> = Vec::new();
    // Batches published so far and not yet retracted.
    let mut published: Vec<(String, Vec<Vec<Value>>)> = Vec::new();
    let mut stormy = false;
    for step in 0..STEPS {
        let members: Vec<usize> = (0..PEERS).filter(|i| !absent.contains(i)).collect();
        let target = *g.pick(&members);
        let relation = format!("P{target}.course");
        let op = g.random_range(0..10u32);
        let what = match op {
            0 => {
                let rows: Vec<Vec<Value>> = (0..3)
                    .map(|j| {
                        vec![
                            Value::str(format!("Published {step}.{j}")),
                            Value::Int(g.random_range(10i64..300)),
                        ]
                    })
                    .collect();
                let gram = Updategram::inserts(relation.clone(), rows.clone());
                for net in [&mut cached, &mut cold] {
                    net.publish(&gram).expect("member stores course");
                }
                published.push((relation, rows));
                "publish insert"
            }
            1 if !published.is_empty() => {
                let (relation, rows) = published.swap_remove(g.random_range(0..published.len()));
                // The owner may have left (or rejoined without these
                // rows) since; a refused or no-op gram is a fine step.
                let gram = Updategram::deletes(relation, rows);
                for net in [&mut cached, &mut cold] {
                    let _ = net.publish(&gram);
                }
                "publish delete"
            }
            2 => {
                let row = vec![Value::str(format!("Direct {step}")), Value::Int(100)];
                for net in [&cached, &cold] {
                    net.peer(&format!("P{target}"))
                        .expect("member")
                        .storage
                        .write(|c| c.insert(&relation, row.clone()));
                }
                "direct write"
            }
            3 => {
                // Retract what some earlier direct write may have put here
                // (a delete that removes nothing is a fine step).
                let row =
                    vec![Value::str(format!("Direct {}", g.random_range(0..step + 1))), Value::Int(100)];
                for net in [&cached, &cold] {
                    net.peer(&format!("P{target}"))
                        .expect("member")
                        .storage
                        .write(|c| c.delete(&relation, &row));
                }
                "direct delete"
            }
            4 if members.len() > 1 => {
                let other = *g.pick(&members);
                if other != target {
                    for net in [&mut cached, &mut cold] {
                        net.add_mapping(renaming(format!("late{step}"), target, other));
                    }
                }
                "add_mapping"
            }
            5 if target != 0 && absent.len() < 2 => {
                for net in [&mut cached, &mut cold] {
                    assert!(net.remove_peer(&format!("P{target}")).is_some());
                }
                absent.push(target);
                "remove_peer"
            }
            6 if !absent.is_empty() => {
                let back = absent.swap_remove(g.random_range(0..absent.len()));
                generation[back] += 1;
                for net in [&mut cached, &mut cold] {
                    net.add_peer(course_peer(back, generation[back]));
                    if DURABLE.contains(&back) {
                        net.enable_durability(&format!("P{back}")).expect("just added");
                    }
                }
                "re-add peer with different data"
            }
            7 => {
                let durable: Vec<usize> =
                    DURABLE.iter().copied().filter(|i| !absent.contains(i)).collect();
                if !durable.is_empty() {
                    let i = *g.pick(&durable);
                    for net in [&mut cached, &mut cold] {
                        net.restart_peer(&format!("P{i}")).expect("durable peer recovers");
                    }
                }
                "restart_peer"
            }
            8 => {
                stormy = !stormy;
                for net in [&mut cached, &mut cold] {
                    net.faults = if stormy {
                        FaultPlan::new(FaultSpec::chaos(seed, 0.15))
                    } else {
                        FaultPlan::default()
                    };
                }
                "weather change"
            }
            _ => "query only",
        };
        let members: Vec<usize> = (0..PEERS).filter(|i| !absent.contains(i)).collect();
        let at = format!("P{}", g.pick(&members));
        let text = g.pick(&templates(&at)).clone();
        let when = format!("seed {seed} step {step} ({what})");
        assert_same(&cached, &cold, &at, &text, &when);
    }

    let stats = cached.cache_stats();
    assert!(stats.reformulation_hits > 0 && stats.plan_hits > 0, "caches never hit: {stats}");
}
