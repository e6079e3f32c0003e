//! Seeded inputs. The overlay and join fixtures are copies of
//! `revere-bench`'s (`network_with_rows`, `big_relation`), kept here so
//! that crate can be edited without moving the baseline.
//!
//! What an operation costs comes from a fixed seed, not from the run's:
//! the overlay's shape (the number of reformulated disjuncts is a function
//! of the mapping graph) and every column's multiset of values (answer
//! sizes, and the plans the optimizer's statistics lead it to, are
//! functions of the histograms — under redrawn histograms three of the
//! twelve templates ran twice as slow for one seed in three). The run's seed
//! decides which row holds which value, and the order of operations: two
//! runs differ in their data, not in how much work it is.

use crate::surface::{
    mapping, Attribute, GlavMapping, PdmsNetwork, Peer, RelSchema, Relation, RngExt, SeedableRng,
    StdRng, Topology, TopologyKind, Value,
};

/// The seed of everything that sets an operation's cost (E13's topology
/// seed).
pub const SHAPE_SEED: u64 = 1013;

/// `n` draws from `lo..hi`: the multiset comes from `shape`, `rng` deals
/// it out over the rows. Row 0 keeps its draw — a template names it.
fn dealt(n: usize, lo: i64, hi: i64, shape: &mut StdRng, rng: &mut StdRng) -> Vec<i64> {
    let mut values: Vec<i64> = (0..n).map(|_| shape.random_range(lo..hi)).collect();
    if let Some((_, rest)) = values.split_first_mut() {
        rng.shuffle(rest);
    }
    values
}

/// A `Random{extra: 2}` overlay of `peers` peers `P0..`, each storing
/// `course(title, enrollment)` with `base_rows * (1 + i % 3)` rows whose
/// enrollments are [`dealt`] by `rng`; every edge is an identity GLAV
/// mapping. Returns the mappings too: the network keeps its copy private
/// and the traced pass reformulates outside it.
pub fn course_overlay(
    peers: usize,
    base_rows: usize,
    rng: &mut StdRng,
) -> Result<(PdmsNetwork, Vec<GlavMapping>), String> {
    let topology = Topology::generate(TopologyKind::Random { extra: 2 }, peers, SHAPE_SEED);
    let mut shape = StdRng::seed_from_u64(SHAPE_SEED);
    let mut net = PdmsNetwork::new();
    // The transitive closure must span the whole graph.
    net.options.max_depth = peers.max(8);
    for i in 0..peers {
        let mut peer = Peer::new(format!("P{i}"));
        let mut rel = Relation::new(RelSchema::new(
            "course",
            vec![Attribute::text("title"), Attribute::int("enrollment")],
        ));
        let enrollments = dealt(base_rows * (1 + i % 3), 10, 310, &mut shape, rng);
        for (k, e) in enrollments.into_iter().enumerate() {
            rel.insert(vec![
                Value::str(format!("Course {k} at P{i}")),
                Value::Int(e),
            ]);
        }
        peer.add_relation(rel);
        net.add_peer(peer);
    }
    let mut mappings = Vec::new();
    for (idx, (a, b)) in topology.edges.iter().enumerate() {
        let m = mapping(
            &format!("m{idx}"),
            &format!("P{a}"),
            &format!("P{b}"),
            &format!("m(T, E) :- P{a}.course(T, E) ==> m(T, E) :- P{b}.course(T, E)"),
        )?;
        net.try_add_mapping(m.clone()).map_err(|e| e.to_string())?;
        mappings.push(m);
    }
    Ok((net, mappings))
}

/// A binary integer relation `name(a, b)`: `key(i)` in the first column,
/// draws from `0..domain` [`dealt`] by `rng` in the second.
pub fn int_relation(
    name: &str,
    rows: usize,
    domain: i64,
    key: impl Fn(usize) -> i64,
    rng: &mut StdRng,
) -> Relation {
    let mut r = Relation::new(RelSchema::new(
        name,
        vec![Attribute::int("a"), Attribute::int("b")],
    ));
    let mut shape = StdRng::seed_from_u64(SHAPE_SEED ^ rows as u64);
    for (i, b) in dealt(rows, 0, domain, &mut shape, rng)
        .into_iter()
        .enumerate()
    {
        r.insert(vec![Value::Int(key(i)), Value::Int(b)]);
    }
    r
}
