//! Integration: the durability layer end to end (spanning
//! revere-storage's WAL, revere-pdms propagation/durable, and
//! revere-util's fault + property substrates).
//!
//! Three families of guarantees live here:
//!
//! * **Record format** (property tests): every [`WalRecord`] round-trips
//!   through its binary codec, and a log torn at *any* byte offset
//!   recovers exactly the clean prefix of what was written — never a
//!   corrupt or invented record.
//! * **Exactly-once across restarts**: a seeded propagation stream with
//!   both peers crashing mid-stream converges to catalogs byte-identical
//!   to a crash-free twin, with every gram applied exactly once. The
//!   seed comes from `REVERE_CRASH_SEED` (default 7) and the invariant
//!   must hold for *any* seed; `scripts/verify.sh` runs several via
//!   `REVERE_CRASH_SEEDS`.
//! * **Resource bounds**: acknowledged history is truncated from the log
//!   at checkpoints, and the receiver's dedup inbox compacts to a
//!   watermark instead of remembering every id forever.

use revere::pdms::durable::{checkpoint, recover, PeerDisk, RecoveredPeer};
use revere::pdms::propagation::{GramInbox, ReliableLink};
use revere::pdms::{MaterializedView, SequencedGram, Updategram};
use revere::prelude::*;
use revere::storage::wal::{Wal, WalRecord};
use revere::storage::wal::encode_catalog;
use revere::storage::{Attribute, Catalog};
use revere_util::prop::{forall, Gen};
use revere_util::RngExt;
use std::collections::{BTreeMap, BTreeSet};

/// The crash seed under test: `REVERE_CRASH_SEED` or 7.
fn crash_seed() -> u64 {
    std::env::var("REVERE_CRASH_SEED")
        .ok()
        .and_then(|s| s.trim().parse().ok())
        .unwrap_or(7)
}

// ---------------------------------------------------------------------
// WAL record generators (satellite: record-format coverage)
// ---------------------------------------------------------------------

/// A finite, codec-exact value (no NaN: records derive `PartialEq`).
fn gen_value(g: &mut Gen) -> Value {
    match g.random_range(0..5u32) {
        0 => Value::Null,
        1 => Value::Bool(g.random_bool(0.5)),
        2 => Value::Int(g.random_range(-1000i64..1000)),
        3 => Value::Float(g.random_range(-1000i64..1000) as f64 / 8.0),
        _ => Value::str(g.lowercase(1..8)),
    }
}

fn gen_rows(g: &mut Gen, arity: usize) -> Vec<Vec<Value>> {
    g.vec(0..4, |g| (0..arity).map(|_| gen_value(g)).collect())
}

fn gen_relation(g: &mut Gen) -> Relation {
    let arity = g.random_range(1..4usize);
    let name = format!("{}.{}", g.lowercase(1..4), g.lowercase(1..6));
    let attrs = (0..arity)
        .map(|i| Attribute::text(format!("a{i}")))
        .collect::<Vec<_>>();
    let schema = RelSchema::new(name, attrs);
    let rows = gen_rows(g, arity);
    Relation::with_rows(schema, rows)
}

fn gen_record(g: &mut Gen) -> WalRecord {
    let rel = || "p.r".to_string();
    match g.random_range(0..8u32) {
        0 => WalRecord::Register { relation: gen_relation(g) },
        1 => WalRecord::Insert { relation: g.lowercase(1..6), row: (0..2).map(|_| gen_value(g)).collect() },
        2 => WalRecord::Delete { relation: g.lowercase(1..6), row: (0..2).map(|_| gen_value(g)).collect() },
        3 => WalRecord::JoinPurged { peer: g.lowercase(1..6) },
        4 => WalRecord::JoinObserved {
            rel_a: g.lowercase(1..6),
            col_a: g.random_range(0..4u32),
            rel_b: g.lowercase(1..6),
            col_b: g.random_range(0..4u32),
            selectivity: g.random_range(0i64..100) as f64 / 100.0,
        },
        5 => WalRecord::DeltaApplied {
            link: g.lowercase(1..5),
            id: g.random_range(0u64..1000),
            relation: rel(),
            insert: gen_rows(g, 2),
            delete: gen_rows(g, 2),
        },
        6 => WalRecord::DeltaSealed {
            link: g.lowercase(1..5),
            id: g.random_range(0u64..1000),
            relation: rel(),
            insert: gen_rows(g, 2),
            delete: gen_rows(g, 2),
        },
        _ => WalRecord::DeltaAcked { link: g.lowercase(1..5), id: g.random_range(0u64..1000) },
    }
}

#[test]
fn prop_wal_records_round_trip_the_binary_codec() {
    forall(128, |g| {
        let rec = gen_record(g);
        let bytes = rec.to_bytes();
        let back = WalRecord::from_bytes(&bytes);
        assert_eq!(back.as_ref(), Some(&rec), "decode(encode(r)) == r");
    });
}

#[test]
fn prop_log_torn_at_any_offset_recovers_the_clean_prefix() {
    forall(32, |g| {
        let mut wal = Wal::new();
        let n = g.random_range(1..6usize);
        let mut frames = Vec::new();
        for _ in 0..n {
            let at = wal.byte_len();
            wal.append(&gen_record(g));
            frames.push(wal.bytes()[at..].to_vec());
        }
        let full = wal.bytes().to_vec();
        let cut = g.random_range(0..full.len() + 1);
        let (re, report) = Wal::open(&full[..cut]);
        let original = wal.records();
        let recovered = re.records();
        assert!(recovered.len() <= original.len());
        assert_eq!(
            recovered,
            &original[..recovered.len()],
            "recovered records are a clean prefix, never invented"
        );
        if cut == full.len() {
            assert!(report.is_clean(), "an untorn log reopens clean");
            assert_eq!(recovered.len(), original.len());
        }
        // The log is its frame bytes: reopening gives them back, and a
        // truncation keeps the appended frames byte for byte.
        let mut truncated = wal.clone();
        let dropped = truncated.truncate_below(g.random_range(0..n as u64 + 1));
        assert_eq!(
            (Wal::open(&full).0.bytes(), &truncated.bytes()[Wal::new().byte_len()..]),
            (&full[..], &frames[dropped..].concat()[..]),
            "reopening or truncating re-encoded a frame"
        );
    });
}

#[test]
fn log_torn_at_every_byte_offset_is_a_clean_prefix() {
    // Exhaustive version of the property above for one representative
    // log: every single byte offset, not a sample.
    let mut wal = Wal::new();
    let header_len = wal.byte_len();
    wal.append(&WalRecord::JoinPurged { peer: "p".into() });
    wal.append(&WalRecord::Insert { relation: "p.r".into(), row: vec![Value::str("x")] });
    wal.append(&WalRecord::DeltaAcked { link: "q".into(), id: 9 });
    let full = wal.bytes().to_vec();
    for cut in 0..=full.len() {
        let (re, report) = Wal::open(&full[..cut]);
        let recovered = re.records();
        assert_eq!(recovered, &wal.records()[..recovered.len()], "cut at {cut}");
        if cut >= header_len {
            assert_eq!(
                report.torn_bytes,
                cut - re.byte_len(),
                "cut at {cut}: everything past the clean prefix is accounted torn"
            );
        }
    }
}

// ---------------------------------------------------------------------
// Resource bounds: log truncation and inbox compaction
// ---------------------------------------------------------------------

fn course_catalog(rel: &str) -> Catalog {
    let mut c = Catalog::new();
    c.create(RelSchema::text(rel, &["title", "area"]));
    c
}

fn replica_view(catalog: &Catalog, rel: &str) -> MaterializedView {
    let q = parse_query(&format!("v(T) :- {rel}(T, A)")).expect("view parses");
    MaterializedView::new("v", q, catalog).expect("view seeds")
}

#[test]
fn acknowledged_grams_are_truncated_from_the_log_at_checkpoint() {
    let disk = PeerDisk::new();
    let mut src = course_catalog("Src.course");
    src.attach_journal(disk.journal());
    let mut link = ReliableLink::durable("Dst", FaultPlan::default(), disk.journal());
    let mut inbox = GramInbox::new();
    let mut dst = course_catalog("Dst.course");
    let mut view = replica_view(&dst, "Dst.course");

    for i in 0..10 {
        let gram = link.seal(Updategram::inserts(
            "Dst.course",
            vec![vec![Value::str(format!("c{i}")), Value::str("x")]],
        ));
        let d = link.ship(&gram, &mut inbox, &mut dst, &mut view).expect("perfect network");
        assert!(d.acknowledged);
    }
    let before = disk.log_len();
    let report = checkpoint(&disk, &src, &[], &[&link]);
    assert!(report.truncated >= 20, "10 seals + 10 acks are garbage once acknowledged");
    assert_eq!(report.retained_for_acks, 0);
    assert!(disk.log_len() < before, "the log physically shrinks");
    // And the truncated log still recovers the full sender state.
    let rec = recover(&disk).expect("recovers");
    let resume = rec.outboxes.get("Dst").expect("outbox");
    assert_eq!(resume.next_id(), 10, "sequence counter survives truncation via the image");
    assert_eq!(resume.pending_count(), 0);
}

#[test]
fn inbox_memory_stays_bounded_over_many_ship_rounds() {
    // Satellite: the dedup ledger must not grow with delivery count. A
    // duplicating, ack-dropping network forces re-deliveries; in-order
    // ids keep the compaction watermark tight.
    let spec = FaultSpec {
        seed: crash_seed(),
        flaky_prob: 0.3,
        duplicate_prob: 0.3,
        ..FaultSpec::default()
    };
    let mut link = ReliableLink::new("Dst", FaultPlan::new(spec));
    let mut inbox = GramInbox::new();
    let mut dst = course_catalog("Dst.course");
    let mut view = replica_view(&dst, "Dst.course");

    let rounds = 300u64;
    let mut tracked_peak = 0usize;
    for i in 0..rounds {
        let gram = link.seal(Updategram::inserts(
            "Dst.course",
            vec![vec![Value::str(format!("c{i}")), Value::str("x")]],
        ));
        link.ship_until_acknowledged(&gram, &mut inbox, &mut dst, &mut view, 64)
            .expect("lossy-but-live weather converges");
        tracked_peak = tracked_peak.max(inbox.tracked_ids());
    }
    assert_eq!(inbox.applied_count(), rounds as usize);
    assert!(inbox.duplicates_ignored > 0, "the weather actually produced duplicates");
    assert_eq!(inbox.watermark(), rounds, "the contiguous prefix compacted away");
    assert_eq!(inbox.tracked_ids(), 0, "no ids remembered individually after catch-up");
    assert!(
        tracked_peak <= 2,
        "in-order delivery keeps the explicit ledger tiny (peak {tracked_peak})"
    );
}

// ---------------------------------------------------------------------
// Crash convergence (the verify-gate invariant)
// ---------------------------------------------------------------------

/// Recovery checked against the log it folds: `replayed` counts the
/// records at or above the image's mark that the catalog and inboxes
/// take (seal and ack records fold into outboxes instead), and each
/// outbox owes exactly the seals the log holds without a matching ack.
fn assert_fold_matches_the_log(disk: &PeerDisk, rec: &RecoveredPeer) {
    let mut owed: BTreeMap<String, BTreeSet<u64>> = BTreeMap::new();
    let mut suffix = 0;
    for (lsn, r) in disk.journal().records() {
        match r {
            WalRecord::DeltaSealed { link, id, .. } => {
                owed.entry(link).or_default().insert(id);
            }
            WalRecord::DeltaAcked { link, id } => {
                owed.entry(link).or_default().remove(&id);
            }
            _ => suffix += usize::from(lsn >= rec.report.as_of),
        }
    }
    assert_eq!(rec.report.replayed, suffix, "replayed is not the log's suffix");
    for (link, outbox) in &rec.outboxes {
        let pending: BTreeSet<u64> = outbox.pending().iter().map(|g| g.id).collect();
        assert_eq!(pending, owed.remove(link).unwrap_or_default(), "link {link} owes other grams");
    }
    assert!(owed.values().all(BTreeSet::is_empty), "seals with no outbox: {owed:?}");
}

/// Final canonical state of one seeded propagation run: (source catalog
/// bytes, target catalog bytes, distinct grams applied).
fn propagation_run(seed: u64, crashing: bool) -> (Vec<u8>, Vec<u8>, usize) {
    const ROUNDS: u64 = 24;
    const CHECKPOINT_EVERY: u64 = 6;
    let plan = FaultPlan::new(FaultSpec {
        seed,
        drop_prob: 0.2,
        flaky_prob: 0.1,
        duplicate_prob: 0.1,
        ..FaultSpec::default()
    });
    let crash_schedule = FaultPlan::new(
        FaultSpec::default()
            .with_crash("Dst", 7 + seed % 5)
            .with_crash("Src", 15 + seed % 5),
    );
    let crash_dst = crash_schedule.crash_tick("Dst").expect("scheduled");
    let crash_src = crash_schedule.crash_tick("Src").expect("scheduled");

    let src_disk = PeerDisk::new();
    let dst_disk = PeerDisk::new();
    let mut src = course_catalog("Src.course");
    src.attach_journal(src_disk.journal());
    checkpoint(&src_disk, &src, &[], &[]);
    let mut dst = course_catalog("Dst.course");
    dst.attach_journal(dst_disk.journal());
    checkpoint(&dst_disk, &dst, &[], &[]);

    let mut link = ReliableLink::durable("Dst", plan.clone(), src_disk.journal());
    link.retry = RetryPolicy::none();
    let mut inbox = GramInbox::durable("Src", dst_disk.journal());
    let mut view = replica_view(&dst, "Dst.course");
    let mut pending: Vec<SequencedGram> = Vec::new();

    for tick in 0..ROUNDS {
        if crashing && tick == crash_dst {
            drop(std::mem::take(&mut dst));
            let rec = recover(&dst_disk).expect("receiver recovers");
            assert_fold_matches_the_log(&dst_disk, &rec);
            let restored = rec.inboxes.get("Src").map_or(0, GramInbox::applied_count);
            assert_eq!(restored, inbox.applied_count(), "the inbox forgot or invented grams");
            dst = rec.catalog;
            inbox = rec
                .inboxes
                .into_iter()
                .find(|(l, _)| l == "Src")
                .map(|(_, i)| i)
                .unwrap_or_else(|| GramInbox::durable("Src", dst_disk.journal()));
            view = replica_view(&dst, "Dst.course");
        }
        if crashing && tick == crash_src {
            drop(std::mem::take(&mut src));
            let rec = recover(&src_disk).expect("sender recovers");
            assert_fold_matches_the_log(&src_disk, &rec);
            assert!(rec.inboxes.is_empty(), "the sender had no inbox");
            src = rec.catalog;
            let resume = rec.outboxes.get("Dst").cloned().unwrap_or_default();
            link = resume.resume("Dst", plan.clone(), &src_disk);
            link.retry = RetryPolicy::none();
            pending = resume.pending();
        }

        let row = vec![Value::str(format!("c{tick}")), Value::str("x")];
        src.insert("Src.course", row.clone());
        src.note_join_overlap("Src.course", 0, "Dst.course", 0, ((seed + tick) % 9 + 1) as f64 / 10.0);
        pending.push(link.seal(Updategram::inserts("Dst.course", vec![row])));

        let mut still = Vec::new();
        for g in pending.drain(..) {
            let d = link.ship(&g, &mut inbox, &mut dst, &mut view).expect("ship");
            if !d.acknowledged {
                still.push(g);
            }
        }
        pending = still;

        if tick % CHECKPOINT_EVERY == CHECKPOINT_EVERY - 1 {
            checkpoint(&src_disk, &src, &[], &[&link]);
            checkpoint(&dst_disk, &dst, &[&inbox], &[]);
        }
    }
    let mut rounds = 0;
    while !pending.is_empty() {
        let mut still = Vec::new();
        for g in pending.drain(..) {
            let d = link.ship(&g, &mut inbox, &mut dst, &mut view).expect("ship");
            if !d.acknowledged {
                still.push(g);
            }
        }
        pending = still;
        rounds += 1;
        assert!(rounds < 10_000, "lossy-but-live weather must drain");
    }
    (encode_catalog(&src, 0), encode_catalog(&dst, 0), inbox.applied_count())
}

#[test]
fn crash_run_converges_byte_identically_to_the_crash_free_twin() {
    let seed = crash_seed();
    let (src_base, dst_base, applied_base) = propagation_run(seed, false);
    let (src_crash, dst_crash, applied_crash) = propagation_run(seed, true);
    assert_eq!(src_crash, src_base, "seed {seed}: source catalog diverged");
    assert_eq!(dst_crash, dst_base, "seed {seed}: target catalog diverged");
    assert_eq!(applied_crash, applied_base, "seed {seed}: apply counts differ");
    assert_eq!(applied_crash, 24, "seed {seed}: every gram applied exactly once");
}

#[test]
fn network_level_restart_preserves_query_answers() {
    // Public-API spot check: a durable peer in a PdmsNetwork restarts
    // and queries posed elsewhere cannot tell.
    let mut net = PdmsNetwork::new();
    for (name, title) in [("A", "Logic"), ("B", "Algebra")] {
        let mut p = Peer::new(name);
        let mut r = Relation::new(RelSchema::text("course", &["title"]));
        r.insert(vec![Value::str(title)]);
        p.add_relation(r);
        net.add_peer(p);
    }
    net.add_mapping(
        GlavMapping::parse("m", "B", "A", "m(T) :- B.course(T) ==> m(T) :- A.course(T)")
            .expect("mapping parses"),
    );
    net.enable_durability("B").expect("B is a member");
    net.peer_mut("B").unwrap().insert("course", vec![Value::str("Geometry")]);
    let before = net.query_str("A", "q(T) :- A.course(T)").expect("query");
    let report = net.restart_peer("B").expect("durable restart");
    assert!(report.image_used);
    let after = net.query_str("A", "q(T) :- A.course(T)").expect("query");
    assert_eq!(before.answers, after.answers);
}

// ---------------------------------------------------------------------
// A row of the wrong arity never reaches the log
// ---------------------------------------------------------------------

#[test]
fn publish_refuses_a_wrong_arity_row_before_the_owner_journals_it() {
    let mut net = PdmsNetwork::new();
    let mut p = Peer::new("B");
    p.add_relation(Relation::with_rows(
        RelSchema::text("course", &["title"]),
        vec![vec![Value::str("Algebra")]],
    ));
    net.add_peer(p);
    net.enable_durability("B").expect("B is a member");
    net.subscribe_str("B", "all", "q(T) :- B.course(T)").expect("subscribes");
    let rows = |net: &PdmsNetwork| {
        net.peer("B").unwrap().storage.read(|c| c.get("B.course").unwrap().rows().to_vec())
    };
    let (before, log) = (rows(&net), net.disk("B").unwrap().log_len());
    // The bad row comes last: the delete and the good insert before it
    // must not happen either.
    let gram = Updategram {
        relation: "B.course".into(),
        insert: vec![vec![Value::str("Logic")], vec![Value::str("Logic"), Value::Int(3)]],
        delete: vec![vec![Value::str("Algebra")]],
    };
    let err = net.publish(&gram).unwrap_err();
    let PdmsError::Eval(e) = &err else { panic!("{err:?}") };
    assert_eq!(e.message, "relation B.course has arity 1, row has 2");
    assert_eq!(rows(&net), before, "the owner is untouched");
    assert_eq!(net.disk("B").unwrap().log_len(), log, "nothing was journaled");
    assert_eq!(net.subscription("all").unwrap().answers().rows(), before);
    net.restart_peer("B").expect("the log replays");
    assert_eq!(rows(&net), before);
}

#[test]
fn ship_refuses_a_wrong_arity_row_before_the_receiver_journals_it() {
    let disk = PeerDisk::new();
    let mut dst = course_catalog("Dst.course");
    dst.attach_journal(disk.journal());
    checkpoint(&disk, &dst, &[], &[]);
    let mut inbox = GramInbox::durable("Src", disk.journal());
    let mut view = replica_view(&dst, "Dst.course");
    let mut link = ReliableLink::new("Dst", FaultPlan::default());
    let row = vec![Value::str("c0"), Value::str("x")];
    let good = link.seal(Updategram::inserts("Dst.course", vec![row]));
    assert!(link.ship(&good, &mut inbox, &mut dst, &mut view).expect("ships").applied);
    let bad = link.seal(Updategram::inserts("Dst.course", vec![vec![Value::str("c1")]]));
    let err = link.ship(&bad, &mut inbox, &mut dst, &mut view).unwrap_err();
    assert_eq!(err.message, "relation Dst.course has arity 2, row has 1");
    assert!(!inbox.is_seen(bad.id), "a refused gram is not accepted");

    let rec = recover(&disk).expect("the log replays");
    let rows = |c: &Catalog| c.get("Dst.course").unwrap().rows().to_vec();
    assert_eq!(rows(&rec.catalog), rows(&dst));
    let restored = &rec.inboxes["Src"];
    assert!(restored.is_seen(good.id) && !restored.is_seen(bad.id));
}
