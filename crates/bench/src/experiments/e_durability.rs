//! E16: durability — exactly-once updategram delivery across peer crashes.
//!
//! §3.1 lets peers "join or leave at will"; PR 2 made *transient* faults
//! survivable and this experiment stresses the stronger failure mode:
//! peers that crash mid-propagation and restart from stable storage. A
//! source peer streams seeded updategrams to a target replica over a
//! lossy [`ReliableLink`]; both ends journal to a [`PeerDisk`] and
//! checkpoint periodically. A kill-at-tick schedule (drawn from the
//! [`FaultPlan`]'s crash events) crashes each side mid-stream; the
//! harness recovers it from disk and carries on. The invariant — checked
//! here for every seed and gated in `scripts/verify.sh` via
//! `REVERE_CRASH_SEEDS` — is that the converged catalogs (rows *and*
//! learned join statistics) are **byte-identical** to a crash-free run
//! of the same seed, with zero double-applies. The table reports what
//! that costs: recovery latency, replayed suffix length, and the
//! stable-storage amplification of image + log over raw state.

use crate::table::Table;
use revere_pdms::durable::{checkpoint, recover, PeerDisk};
use revere_pdms::fault::{FaultPlan, FaultSpec, RetryPolicy};
use revere_pdms::propagation::{GramInbox, ReliableLink};
use revere_pdms::updategram::Updategram;
use revere_pdms::views::MaterializedView;
use revere_pdms::SequencedGram;
use revere_query::parse_query;
use revere_storage::wal::encode_catalog;
use revere_storage::{Catalog, RelSchema, Value};
use std::time::Instant;

/// The crash seeds E16 sweeps (the `REVERE_CRASH_SEEDS` default).
pub const CRASH_SEEDS: [u64; 3] = [7, 42, 1003];

/// Propagation rounds (= simulation ticks) per run.
pub const ROUNDS: u64 = 48;

/// Checkpoint cadence, in ticks.
pub const CHECKPOINT_EVERY: u64 = 8;

const SRC_REL: &str = "Src.course";
const DST_REL: &str = "Dst.course";
const AREAS: [&str; 3] = ["systems", "ai", "theory"];

/// One seed's crash run, compared against its crash-free twin.
pub struct DurabilityPoint {
    /// The seed.
    pub seed: u64,
    /// Crash/restart events executed (both sides).
    pub crashes: usize,
    /// Grams the source sealed.
    pub grams: usize,
    /// Distinct grams the target applied (must equal `grams`).
    pub applied: usize,
    /// Duplicate deliveries the target's inbox absorbed.
    pub duplicates: usize,
    /// Longest post-image suffix any single recovery replayed.
    pub replay_max: usize,
    /// Total wall-clock spent in `recover` across all crashes, in µs.
    pub recovery_us: u128,
    /// Peak change-log size observed, in bytes.
    pub log_peak: usize,
    /// Final stable footprint (image + log, both peers), in bytes.
    pub stable_bytes: usize,
    /// Final raw state size (both catalog blobs), in bytes.
    pub state_bytes: usize,
    /// Byte-identity of both final catalogs vs the crash-free run.
    pub converged: bool,
}

impl DurabilityPoint {
    /// Stable-storage amplification: image + log over raw state.
    pub fn amplification(&self) -> f64 {
        self.stable_bytes as f64 / self.state_bytes.max(1) as f64
    }
}

/// Final state of one run (crashing or not): canonical catalog bytes for
/// both peers plus the delivery counters.
struct RunOutcome {
    src_bytes: Vec<u8>,
    dst_bytes: Vec<u8>,
    grams: usize,
    applied: usize,
    duplicates: usize,
    crashes: usize,
    replay_max: usize,
    recovery_us: u128,
    log_peak: usize,
    stable_bytes: usize,
    state_bytes: usize,
}

fn course_schema(rel: &str) -> RelSchema {
    RelSchema::text(rel, &["title", "area"])
}

fn row(tick: u64, seed: u64) -> Vec<Value> {
    vec![
        Value::str(format!("c{tick}")),
        Value::str(AREAS[((seed.wrapping_add(tick)) % AREAS.len() as u64) as usize]),
    ]
}

/// The seeded gram for `tick`: one insert, plus (every 4th tick) a
/// delete of the row inserted four ticks earlier — so the log carries
/// both polarities and replicas must converge on a churning multiset.
fn gram_for(tick: u64, seed: u64) -> Updategram {
    let mut g = Updategram::inserts(DST_REL, vec![row(tick, seed)]);
    if tick % 4 == 3 && tick >= 4 {
        g.delete.push(row(tick - 4, seed));
    }
    g
}

fn replica_view(catalog: &Catalog) -> MaterializedView {
    let q = parse_query(&format!("v(T) :- {DST_REL}(T, A)")).expect("view query parses");
    MaterializedView::new("v", q, catalog).expect("replica view seeds")
}

/// The lossy-but-live wire weather for `seed` (no outages — crashes are
/// injected by the kill-at-tick schedule, not the per-message dice).
fn weather(seed: u64) -> FaultPlan {
    FaultPlan::new(FaultSpec {
        seed,
        drop_prob: 0.2,
        flaky_prob: 0.1,
        duplicate_prob: 0.1,
        ..FaultSpec::default()
    })
}

/// The kill-at-tick schedule for `seed`: one receiver crash and one
/// sender crash, both mid-stream, read back through the fault plan's
/// crash events so E16 exercises the same machinery tests use.
fn crash_plan(seed: u64) -> FaultPlan {
    FaultPlan::new(
        FaultSpec::default()
            .with_crash("Dst", 10 + seed % 7)
            .with_crash("Src", 25 + seed % 9),
    )
}

/// Run one seeded propagation stream. `crashing` selects whether the
/// crash schedule fires; everything else is identical, which is what
/// makes the byte-identity comparison meaningful.
fn run(seed: u64, crashing: bool) -> RunOutcome {
    let plan = weather(seed);
    let crash_schedule = crash_plan(seed);
    let crash_dst = crash_schedule.crash_tick("Dst").expect("Dst crash scheduled");
    let crash_src = crash_schedule.crash_tick("Src").expect("Src crash scheduled");

    let src_disk = PeerDisk::new();
    let dst_disk = PeerDisk::new();

    let mut src_cat = Catalog::new();
    src_cat.create(course_schema(SRC_REL));
    src_cat.attach_journal(src_disk.journal());
    checkpoint(&src_disk, &src_cat, &[], &[]);

    let mut dst_cat = Catalog::new();
    dst_cat.create(course_schema(DST_REL));
    dst_cat.attach_journal(dst_disk.journal());
    checkpoint(&dst_disk, &dst_cat, &[], &[]);

    let mut link = ReliableLink::durable("Dst", plan.clone(), src_disk.journal());
    link.retry = RetryPolicy::none();
    let mut inbox = GramInbox::durable("Src", dst_disk.journal());
    let mut view = replica_view(&dst_cat);

    let mut pending: Vec<SequencedGram> = Vec::new();
    let mut crashes = 0usize;
    let mut replay_max = 0usize;
    let mut recovery_us = 0u128;
    let mut log_peak = 0usize;

    let ship_pending = |pending: &mut Vec<SequencedGram>,
                            link: &mut ReliableLink,
                            inbox: &mut GramInbox,
                            dst_cat: &mut Catalog,
                            view: &mut MaterializedView| {
        let mut still = Vec::new();
        for g in pending.drain(..) {
            let d = link.ship(&g, inbox, dst_cat, view).expect("ship never eval-errors");
            if !d.acknowledged {
                still.push(g);
            }
        }
        *pending = still;
    };

    for tick in 0..ROUNDS {
        if crashing && tick == crash_dst {
            // Receiver crash: the in-memory replica, inbox, and view are
            // gone; stable storage is everything.
            drop(std::mem::take(&mut dst_cat));
            let start = Instant::now();
            let rec = recover(&dst_disk).expect("receiver recovers");
            recovery_us += start.elapsed().as_micros();
            replay_max = replay_max.max(rec.report.replayed);
            crashes += 1;
            dst_cat = rec.catalog;
            inbox = rec
                .inboxes
                .into_iter()
                .find(|(l, _)| l == "Src")
                .map(|(_, i)| i)
                .unwrap_or_else(|| GramInbox::durable("Src", dst_disk.journal()));
            view = replica_view(&dst_cat);
        }
        if crashing && tick == crash_src {
            // Sender crash: the link's in-flight queue dies with it; the
            // outbox resumes from journaled seals and acks.
            drop(std::mem::take(&mut src_cat));
            let start = Instant::now();
            let rec = recover(&src_disk).expect("sender recovers");
            recovery_us += start.elapsed().as_micros();
            replay_max = replay_max.max(rec.report.replayed);
            crashes += 1;
            src_cat = rec.catalog;
            let resume = rec.outboxes.get("Dst").cloned().unwrap_or_default();
            link = resume.resume("Dst", plan.clone(), &src_disk);
            link.retry = RetryPolicy::none();
            pending = resume.pending();
        }

        // Source-side change + the learned statistic that must survive.
        let gram = gram_for(tick, seed);
        for r in &gram.insert {
            src_cat.insert(SRC_REL, r.clone());
        }
        for r in &gram.delete {
            src_cat.delete(SRC_REL, r);
        }
        src_cat.note_join_overlap(
            SRC_REL,
            0,
            DST_REL,
            0,
            ((seed + tick) % 9 + 1) as f64 / 10.0,
        );
        pending.push(link.seal(gram));
        ship_pending(&mut pending, &mut link, &mut inbox, &mut dst_cat, &mut view);

        if tick % CHECKPOINT_EVERY == CHECKPOINT_EVERY - 1 {
            checkpoint(&src_disk, &src_cat, &[], &[&link]);
            checkpoint(&dst_disk, &dst_cat, &[&inbox], &[]);
        }
        log_peak = log_peak.max(src_disk.log_len()).max(dst_disk.log_len());
    }

    // Drain: keep re-shipping until every gram is acknowledged (the
    // weather is lossy but live, so this converges).
    let mut rounds = 0;
    while !pending.is_empty() {
        ship_pending(&mut pending, &mut link, &mut inbox, &mut dst_cat, &mut view);
        rounds += 1;
        assert!(rounds < 10_000, "lossy-but-live weather must drain");
    }

    let src_bytes = encode_catalog(&src_cat, 0);
    let dst_bytes = encode_catalog(&dst_cat, 0);
    let state_bytes = src_bytes.len() + dst_bytes.len();
    RunOutcome {
        grams: link.next_seal_id() as usize,
        applied: inbox.applied_count(),
        duplicates: inbox.duplicates_ignored,
        crashes,
        replay_max,
        recovery_us,
        log_peak,
        stable_bytes: src_disk.stable_len() + dst_disk.stable_len(),
        state_bytes,
        src_bytes,
        dst_bytes,
    }
}

/// Run the sweep: for each seed, a crash-free twin and a crashing run,
/// compared byte-for-byte.
pub fn durability_sweep() -> Vec<DurabilityPoint> {
    durability_sweep_seeds(&CRASH_SEEDS)
}

/// The sweep over explicit seeds (the verify gate passes
/// `REVERE_CRASH_SEEDS` through here).
pub fn durability_sweep_seeds(seeds: &[u64]) -> Vec<DurabilityPoint> {
    seeds
        .iter()
        .map(|&seed| {
            let baseline = run(seed, false);
            let crashed = run(seed, true);
            DurabilityPoint {
                seed,
                crashes: crashed.crashes,
                grams: crashed.grams,
                applied: crashed.applied,
                duplicates: crashed.duplicates,
                replay_max: crashed.replay_max,
                recovery_us: crashed.recovery_us,
                log_peak: crashed.log_peak,
                stable_bytes: crashed.stable_bytes,
                state_bytes: crashed.state_bytes,
                converged: crashed.src_bytes == baseline.src_bytes
                    && crashed.dst_bytes == baseline.dst_bytes
                    && crashed.applied == baseline.applied,
            }
        })
        .collect()
}

/// E16 — crash recovery (§3.1: peers leave *and come back*).
pub fn e16_durability() -> Table {
    let mut t = Table::new(
        "E16: exactly-once delivery across peer crashes (durability, §3.1)",
        &[
            "seed", "crashes", "grams", "applied", "dups absorbed", "replay max",
            "recovery us", "log peak B", "stable B", "state B", "amp x", "converged",
        ],
    );
    for p in durability_sweep() {
        t.row(vec![
            p.seed.to_string(),
            p.crashes.to_string(),
            p.grams.to_string(),
            p.applied.to_string(),
            p.duplicates.to_string(),
            p.replay_max.to_string(),
            p.recovery_us.to_string(),
            p.log_peak.to_string(),
            p.stable_bytes.to_string(),
            p.state_bytes.to_string(),
            format!("{:.2}", p.amplification()),
            p.converged.to_string(),
        ]);
    }
    t
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn every_seed_converges_byte_identically_with_exactly_once_delivery() {
        for p in durability_sweep() {
            assert!(p.converged, "seed {}: crash run diverged from crash-free twin", p.seed);
            assert_eq!(p.crashes, 2, "seed {}: both scheduled crashes fired", p.seed);
            assert_eq!(
                p.applied, p.grams,
                "seed {}: every gram applied exactly once",
                p.seed
            );
            assert!(p.duplicates > 0, "seed {}: lossy weather exercised dedup", p.seed);
        }
    }

    #[test]
    fn recovery_replays_a_suffix_not_the_full_history() {
        for p in durability_sweep() {
            // A full-history replay would be ~ROUNDS journaled mutations
            // (each tick journals an insert + a join observation + a seal
            // at minimum). The checkpoint cadence bounds the suffix.
            let full_history = (ROUNDS * 2) as usize;
            assert!(
                p.replay_max < full_history,
                "seed {}: replayed {} records, smells like full history ({}+)",
                p.seed,
                p.replay_max,
                full_history
            );
        }
    }

    #[test]
    fn checkpoints_keep_the_log_bounded() {
        for p in durability_sweep() {
            // Unbounded logging would retain every frame ever written;
            // with truncation the peak stays near one checkpoint window.
            assert!(
                p.log_peak < p.stable_bytes.max(1) * 4,
                "seed {}: log peak {} vs stable {}",
                p.seed,
                p.log_peak,
                p.stable_bytes
            );
            assert!(p.amplification() < 16.0, "seed {}: amplification blew up", p.seed);
        }
    }
}
