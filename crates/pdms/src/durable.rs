//! Peer-level durability: checkpoint a peer's state to simulated stable
//! storage and recover it after a crash.
//!
//! The paper's peers "can join or leave at will" (§3.1). The
//! [`crate::propagation`] layer already makes *transient* faults
//! survivable (retry + dedup); this module makes *restarts* survivable.
//! A peer's stable storage is a [`PeerDisk`]: a [`Journal`] (the
//! append-only WAL from `revere_storage::wal`) plus at most one *peer
//! image* — a snapshot of catalog, inbox watermarks, and outbox
//! sequence counters taken at a known LSN. Recovery is image + replay of
//! the LSN suffix, never a full-history replay, in one pass over the log:
//! a journal is clean by construction (see `revere_storage::wal`), so
//! recovery decodes each record once and re-validates nothing.
//!
//! # Exactly-once across restarts
//!
//! Three records make updategram delivery exactly-once across crashes on
//! either end of a link:
//!
//! * the **receiver** journals [`WalRecord::DeltaApplied`] *before*
//!   applying (see [`crate::propagation::apply_once`]): a crash after the
//!   apply replays it; a re-delivery after recovery hits the restored
//!   inbox watermark and is ignored;
//! * the **sender** journals [`WalRecord::DeltaSealed`] when it stamps a
//!   gram: the gram is *owed* until acknowledged, and a restarted sender
//!   re-ships it under the same id (the receiver dedups);
//! * the sender journals [`WalRecord::DeltaAcked`] when the ack arrives,
//!   which releases the seal record for truncation.
//!
//! # Truncation protocol
//!
//! [`checkpoint`] writes a fresh image at `as_of = next LSN`, then
//! truncates the log below `min(as_of, every link's truncation floor)`.
//! The floor of a link is the LSN of its oldest unacknowledged seal —
//! that record is the *only* copy of a gram still owed to a downstream
//! peer, so it must survive checkpoints until the ack comes back. Once
//! all downstream peers have acknowledged, the log shrinks to (at most)
//! the post-image suffix: acknowledged history is garbage.

use crate::propagation::{GramInbox, ReliableLink};
use crate::updategram::Updategram;
use crate::SequencedGram;
use revere_storage::wal::{
    crc32, decode_catalog, encode_catalog, put_str, put_u32, put_u64, Journal, Lsn, Reader,
    WalRecord,
};
use revere_storage::Catalog;
use revere_util::fault::FaultPlan;
use std::collections::{BTreeMap, BTreeSet};
use std::sync::{Arc, Mutex};

const IMAGE_MAGIC: &[u8; 4] = b"RVPI";
const IMAGE_VERSION: u32 = 1;

/// A peer's simulated stable storage: the change log plus at most one
/// peer image. Cloning shares the underlying storage (it is the same
/// "disk"), which is what lets the test harness keep a handle across a
/// simulated crash: the in-memory peer is dropped, the `PeerDisk`
/// survives, and [`recover`] rebuilds the peer from it.
#[derive(Debug, Clone, Default)]
pub struct PeerDisk {
    image: Arc<Mutex<Option<Vec<u8>>>>,
    journal: Journal,
}

impl PeerDisk {
    /// An empty disk: no image, an empty log.
    pub fn new() -> Self {
        Self::default()
    }

    /// Handle to the disk's change log. Attach it to the peer's catalog
    /// ([`Catalog::attach_journal`]) and durable inbox/links.
    pub fn journal(&self) -> Journal {
        self.journal.clone()
    }

    fn with_image<T>(&self, f: impl FnOnce(&mut Option<Vec<u8>>) -> T) -> T {
        f(&mut self.image.lock().unwrap_or_else(std::sync::PoisonError::into_inner))
    }

    /// Size of the peer image in bytes (0 when none).
    pub fn image_len(&self) -> usize {
        self.with_image(|i| i.as_ref().map_or(0, Vec::len))
    }

    /// Size of the change log in bytes.
    pub fn log_len(&self) -> usize {
        self.journal.byte_len()
    }

    /// Total stable bytes (image + log) — the numerator of the E16
    /// write-amplification metric.
    pub fn stable_len(&self) -> usize {
        self.image_len() + self.log_len()
    }
}

/// What one [`checkpoint`] did.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct CheckpointReport {
    /// Exclusive LSN high-water mark of the image: every record below it
    /// is reflected in the image.
    pub as_of: Lsn,
    /// The truncation floor actually used (≤ `as_of`; lower when a link
    /// still holds unacknowledged seal records).
    pub floor: Lsn,
    /// Log records dropped by the truncation.
    pub truncated: usize,
    /// Log records retained *below* `as_of` solely for unacknowledged
    /// grams (0 once every downstream peer has acknowledged).
    pub retained_for_acks: usize,
    /// Size of the image written, in bytes.
    pub image_bytes: usize,
    /// Size of the log after truncation, in bytes.
    pub log_bytes: usize,
}

/// Checkpoint a peer: write a fresh image capturing `catalog`, the
/// `inboxes`' dedup watermarks, and the `links`' sequence counters, then
/// truncate the log below every link's truncation floor (see the module
/// docs). Every catalog mutation is journaled before it is applied, so
/// the image taken here plus the log suffix is self-contained, and a
/// shared borrow of the catalog is all a checkpoint needs.
pub fn checkpoint(
    disk: &PeerDisk,
    catalog: &Catalog,
    inboxes: &[&GramInbox],
    links: &[&ReliableLink],
) -> CheckpointReport {
    let as_of = disk.journal.next_lsn();
    let image = encode_peer_image(catalog, as_of, inboxes, links);
    let floor = links
        .iter()
        .filter_map(|l| l.truncation_floor())
        .min()
        .unwrap_or(as_of)
        .min(as_of);
    let truncated = disk.journal.truncate_below(floor);
    let retained_for_acks = disk.journal.count_below(as_of);
    let image_bytes = image.len();
    disk.with_image(|i| *i = Some(image));
    CheckpointReport {
        as_of,
        floor,
        truncated,
        retained_for_acks,
        image_bytes,
        log_bytes: disk.journal.byte_len(),
    }
}

/// Recovered sender-side state for one outgoing link: the next sequence
/// id and every sealed-but-unacknowledged gram (with the LSN of its seal
/// record). Turn it back into a live link with [`OutboxResume::resume`]
/// and re-ship [`OutboxResume::pending`] — the receiver's inbox absorbs
/// any that were actually delivered before the crash.
#[derive(Debug, Clone, Default)]
pub struct OutboxResume {
    next_id: u64,
    unacked: BTreeMap<u64, (Lsn, Updategram)>,
}

impl OutboxResume {
    /// Unacknowledged grams in id order, re-sealed under their original
    /// ids (at-least-once: ship these again after a restart).
    pub fn pending(&self) -> Vec<SequencedGram> {
        self.unacked
            .iter()
            .map(|(id, (_, gram))| gram.clone().sequenced(*id))
            .collect()
    }

    /// How many grams are still owed.
    pub fn pending_count(&self) -> usize {
        self.unacked.len()
    }

    /// The id the resumed link will assign next.
    pub fn next_id(&self) -> u64 {
        self.next_id
    }

    /// Rebuild the live [`ReliableLink`] for `target`, journaled on
    /// `disk`, continuing the id sequence and truncation floors exactly
    /// where the crashed sender left them.
    pub fn resume(&self, target: &str, plan: FaultPlan, disk: &PeerDisk) -> ReliableLink {
        let unacked = self.unacked.iter().map(|(id, (lsn, _))| (*id, *lsn)).collect();
        ReliableLink::restore(target, plan, disk.journal(), self.next_id, unacked)
    }
}

/// What [`recover`] reconstructed and how much work it took.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct PeerRecovery {
    /// True when a peer image anchored the recovery (false: log-only).
    pub image_used: bool,
    /// The image's exclusive LSN high-water mark (0 without an image).
    pub as_of: Lsn,
    /// Records with `lsn >= as_of` replayed into the catalog/inboxes —
    /// the suffix; the acceptance criterion is that this stays small
    /// after a checkpoint, because everything older is in the image.
    /// Seal and ack records fold into outboxes and are not counted.
    pub replayed: usize,
}

/// Everything [`recover`] rebuilds from a [`PeerDisk`].
#[derive(Debug)]
pub struct RecoveredPeer {
    /// The recovered catalog, with the disk's journal re-attached (new
    /// mutations continue the same log).
    pub catalog: Catalog,
    /// Per-link receiver state, dedup watermarks intact.
    pub inboxes: BTreeMap<String, GramInbox>,
    /// Per-link sender state: sequence counters + unacknowledged grams.
    pub outboxes: BTreeMap<String, OutboxResume>,
    /// Recovery accounting.
    pub report: PeerRecovery,
}

/// Recover a peer from its stable storage in one pass over the log: the
/// image's catalog, inboxes and sequence counters are decoded where they
/// lie, under the disk's lock, and then each retained record is decoded
/// once and folded, split by the image's `as_of` mark:
///
/// * seal/ack records fold into outbox state at **any** LSN — the image
///   stores only each link's sequence counter, and an unacked seal
///   record below `as_of` is the gram's only surviving copy;
/// * any other record with `lsn >= as_of` replays into the catalog
///   ([`Catalog::replay`]), and a [`WalRecord::DeltaApplied`] is also
///   accepted by its link's inbox ([`GramInbox::accept`]); older ones
///   are already reflected in the image.
///
/// The log needs no validation here: a [`Journal`] only ever holds
/// records it appended or a log
/// [`Wal::open`](revere_storage::wal::Wal::open) cut to its clean prefix.
/// Returns `None` only when the image is corrupt.
pub fn recover(disk: &PeerDisk) -> Option<RecoveredPeer> {
    // `None`: no image was taken; `Some(None)`: the image is corrupt.
    let image = disk.with_image(|image| {
        image.as_deref().map(|bytes| {
            let (blob, inboxes, next_ids) = decode_peer_image(bytes, &disk.journal)?;
            let (catalog, as_of) = decode_catalog(blob)?;
            Some((catalog, as_of, inboxes, next_ids))
        })
    });
    let image_used = image.is_some();
    let (mut catalog, as_of, mut inboxes, next_ids) = match image {
        Some(decoded) => decoded?,
        None => (Catalog::new(), 0, BTreeMap::new(), BTreeMap::new()),
    };
    let mut outboxes: BTreeMap<String, OutboxResume> = next_ids
        .into_iter()
        .map(|(link, next_id)| (link, OutboxResume { next_id, unacked: BTreeMap::new() }))
        .collect();

    let mut replayed = 0usize;
    for (lsn, rec) in disk.journal.records() {
        match rec {
            WalRecord::DeltaSealed { link, id, relation, insert, delete } => {
                let ob = outboxes.entry(link).or_default();
                ob.next_id = ob.next_id.max(id + 1);
                ob.unacked.insert(id, (lsn, Updategram { relation, insert, delete }));
            }
            WalRecord::DeltaAcked { link, id } => {
                outboxes.entry(link).or_default().unacked.remove(&id);
            }
            _ if lsn >= as_of => {
                catalog.replay(&rec);
                if let WalRecord::DeltaApplied { link, id, .. } = rec {
                    inboxes
                        .entry(link)
                        .or_insert_with_key(|link| GramInbox::durable(link.clone(), disk.journal()))
                        .accept(id);
                }
                replayed += 1;
            }
            // Below as_of and not outbox-relevant: captured by the image.
            _ => {}
        }
    }

    catalog.attach_journal(disk.journal());
    Some(RecoveredPeer {
        catalog,
        inboxes,
        outboxes,
        report: PeerRecovery { image_used, as_of, replayed },
    })
}

// ---------------------------------------------------------------------------
// Peer image codec
// ---------------------------------------------------------------------------
//
//   magic "RVPI" | version u32
//   | catalog blob: len u32 + encode_catalog(catalog, as_of) bytes
//   | inbox count u32
//     | per inbox: link str | watermark u64 | duplicates u64 | applied u64
//       | above count u32 | above ids u64*
//   | outbox count u32
//     | per outbox: link str | next_id u64
//   | crc32 of everything above

fn encode_peer_image(
    catalog: &Catalog,
    as_of: Lsn,
    inboxes: &[&GramInbox],
    links: &[&ReliableLink],
) -> Vec<u8> {
    let mut out = Vec::new();
    out.extend_from_slice(IMAGE_MAGIC);
    put_u32(&mut out, IMAGE_VERSION);
    let blob = encode_catalog(catalog, as_of);
    put_u32(&mut out, blob.len() as u32);
    out.extend_from_slice(&blob);
    // Only durable inboxes have a link identity worth persisting; the
    // encoder sorts by link so the image is deterministic.
    let mut named: Vec<&GramInbox> = inboxes.iter().copied().filter(|i| i.link().is_some()).collect();
    named.sort_by(|a, b| a.link().cmp(&b.link()));
    put_u32(&mut out, named.len() as u32);
    for inbox in named {
        put_str(&mut out, inbox.link().expect("filtered to named inboxes"));
        put_u64(&mut out, inbox.watermark());
        put_u64(&mut out, inbox.duplicates_ignored as u64);
        put_u64(&mut out, inbox.applied_count() as u64);
        let above = inbox.above();
        put_u32(&mut out, above.len() as u32);
        for id in above {
            put_u64(&mut out, *id);
        }
    }
    let mut outs: Vec<&ReliableLink> = links.to_vec();
    outs.sort_by(|a, b| a.target.cmp(&b.target));
    put_u32(&mut out, outs.len() as u32);
    for link in outs {
        put_str(&mut out, &link.target);
        put_u64(&mut out, link.next_seal_id());
    }
    let crc = crc32(&out);
    put_u32(&mut out, crc);
    out
}

/// A peer image's catalog blob, durable inboxes and outbox next ids.
type DecodedImage<'a> = (&'a [u8], BTreeMap<String, GramInbox>, BTreeMap<String, u64>);

fn decode_peer_image<'a>(bytes: &'a [u8], journal: &Journal) -> Option<DecodedImage<'a>> {
    if bytes.len() < 8 {
        return None;
    }
    let body = &bytes[..bytes.len() - 4];
    let crc = u32::from_le_bytes(bytes[bytes.len() - 4..].try_into().ok()?);
    if crc32(body) != crc {
        return None;
    }
    let mut r = Reader::new(body);
    if r.take(4)? != IMAGE_MAGIC {
        return None;
    }
    if r.u32()? != IMAGE_VERSION {
        return None;
    }
    let blob_len = r.u32()? as usize;
    let blob = r.take(blob_len)?;
    let mut inboxes = BTreeMap::new();
    for _ in 0..r.u32()? {
        let link = r.str()?;
        let watermark = r.u64()?;
        let duplicates = r.u64()?;
        r.u64()?; // the applied count, which the ids above derive
        let mut above = BTreeSet::new();
        for _ in 0..r.u32()? {
            above.insert(r.u64()?);
        }
        let durability = Some((link.clone(), journal.clone()));
        inboxes.insert(link, GramInbox::restore(watermark, above, duplicates as usize, durability));
    }
    let mut outboxes = BTreeMap::new();
    for _ in 0..r.u32()? {
        let link = r.str()?;
        let next_id = r.u64()?;
        outboxes.insert(link, next_id);
    }
    if !r.done() {
        return None;
    }
    Some((blob, inboxes, outboxes))
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::propagation::apply_once;
    use crate::views::MaterializedView;
    use revere_query::parse_query;
    use revere_storage::{RelSchema, Relation, Value};
    use revere_storage::wal::Wal;
    use revere_util::fault::{FaultSpec, RetryPolicy};
    use revere_util::prop::{forall, Gen};
    use revere_util::RngExt;

    fn course_catalog() -> Catalog {
        let mut c = Catalog::new();
        c.create(RelSchema::text("S.course", &["title", "area"]));
        c.insert("S.course", vec![Value::str("db"), Value::str("systems")]);
        c.insert("S.course", vec![Value::str("ml"), Value::str("ai")]);
        c
    }

    /// Corrupt the tail of `disk`'s log in place, keeping only the first
    /// `keep` bytes: a torn write at crash time, which [`recover`] must
    /// come back from with the clean prefix.
    fn tear_log(disk: &PeerDisk, keep: usize) {
        let bytes = disk.journal.bytes();
        let (wal, _) = Wal::open(&bytes[..keep.min(bytes.len())]);
        disk.journal.replace(wal);
    }

    /// A view over `relation`, seeded from `catalog` so incremental
    /// maintenance has a base state to delta against.
    fn view_over(catalog: &Catalog, relation: &str) -> MaterializedView {
        let q = parse_query(&format!("v(T) :- {relation}(T, A)")).expect("parse");
        MaterializedView::new("v", q, catalog).expect("seed")
    }

    #[test]
    fn checkpoint_then_recover_round_trips_catalog_and_counters() {
        let disk = PeerDisk::new();
        let mut cat = course_catalog();
        cat.attach_journal(disk.journal());
        cat.insert("S.course", vec![Value::str("os"), Value::str("systems")]);
        let report = checkpoint(&disk, &cat, &[], &[]);
        assert!(report.as_of > 0);
        assert_eq!(report.retained_for_acks, 0);
        // Post-checkpoint mutations land in the suffix.
        cat.insert("S.course", vec![Value::str("pl"), Value::str("languages")]);

        let rec = recover(&disk).expect("clean recovery");
        assert!(rec.report.image_used);
        assert_eq!(rec.report.as_of, report.as_of);
        assert_eq!(rec.report.replayed, 1, "only the post-image insert replays");
        let rows = rec.catalog.get("S.course").expect("relation").sorted();
        assert_eq!(rows, cat.get("S.course").expect("relation").sorted());
    }

    #[test]
    fn recover_without_an_image_replays_the_whole_log() {
        let disk = PeerDisk::new();
        let mut cat = Catalog::new();
        cat.attach_journal(disk.journal());
        cat.register(Relation::new(RelSchema::text("S.t", &["v"])));
        cat.insert("S.t", vec![Value::str("a")]);
        let rec = recover(&disk).expect("recovery");
        assert!(!rec.report.image_used);
        assert_eq!(rec.catalog.get("S.t").expect("relation").len(), 1);
    }

    #[test]
    fn unacked_seals_survive_checkpoints_and_resume_pending() {
        let disk = PeerDisk::new();
        let mut cat = course_catalog();
        cat.attach_journal(disk.journal());
        // A link whose target is down: the seal never gets acknowledged.
        let plan = FaultPlan::new(FaultSpec::default().with_down_peer("T"));
        let mut link = ReliableLink::durable("T", plan.clone(), disk.journal());
        link.retry = RetryPolicy::none();
        let gram = link.seal(Updategram::inserts(
            "T.course",
            vec![vec![Value::str("db"), Value::str("systems")]],
        ));
        let mut inbox = GramInbox::new();
        let mut target_cat = Catalog::new();
        target_cat.create(RelSchema::text("T.course", &["title", "area"]));
        let mut view = view_over(&target_cat, "T.course");
        let d = link.ship(&gram, &mut inbox, &mut target_cat, &mut view).expect("ship");
        assert!(!d.acknowledged);

        let report = checkpoint(&disk, &cat, &[], &[&link]);
        assert!(report.floor < report.as_of, "unacked seal pins the floor");
        assert_eq!(report.retained_for_acks, 1);

        let rec = recover(&disk).expect("recovery");
        let resume = rec.outboxes.get("T").expect("outbox for T");
        assert_eq!(resume.pending_count(), 1);
        assert_eq!(resume.next_id(), 1, "sequence continues past the sealed gram");
        let pending = resume.pending();
        assert_eq!(pending[0].id, gram.id, "re-shipped under the original id");
        assert_eq!(pending[0].gram.relation, "T.course");
    }

    #[test]
    fn acked_grams_release_the_log_at_the_next_checkpoint() {
        let disk = PeerDisk::new();
        let mut cat = course_catalog();
        cat.attach_journal(disk.journal());
        let mut link = ReliableLink::durable("T", FaultPlan::default(), disk.journal());
        let mut inbox = GramInbox::new();
        let mut target_cat = Catalog::new();
        target_cat.create(RelSchema::text("T.course", &["title", "area"]));
        let mut view = view_over(&target_cat, "T.course");
        for i in 0..3 {
            let gram = link.seal(Updategram::inserts(
                "T.course",
                vec![vec![Value::str(format!("c{i}")), Value::str("x")]],
            ));
            let d = link.ship(&gram, &mut inbox, &mut target_cat, &mut view).expect("ship");
            assert!(d.acknowledged);
        }
        assert_eq!(link.truncation_floor(), None, "fully acknowledged");
        let before = disk.log_len();
        let report = checkpoint(&disk, &cat, &[], &[&link]);
        assert_eq!(report.retained_for_acks, 0);
        assert!(report.truncated > 0, "acknowledged history is garbage");
        assert!(disk.log_len() < before);
        // The truncated log still recovers: everything lives in the image.
        let rec = recover(&disk).expect("recovery");
        assert_eq!(rec.report.replayed, 0);
        assert_eq!(
            rec.catalog.get("S.course").expect("relation").sorted(),
            cat.get("S.course").expect("relation").sorted()
        );
    }

    #[test]
    fn receiver_crash_after_apply_does_not_double_apply() {
        // Receiver journals DeltaApplied before applying; after a crash +
        // recovery, a re-delivery of the same id must be a duplicate.
        let disk = PeerDisk::new();
        let mut cat = course_catalog();
        cat.attach_journal(disk.journal());
        // Base catalog predates the journal; checkpoint it into the image.
        checkpoint(&disk, &cat, &[], &[]);
        let mut view = view_over(&cat, "S.course");
        let mut inbox = GramInbox::durable("Src", disk.journal());
        let gram = Updategram::inserts(
            "S.course",
            vec![vec![Value::str("net"), Value::str("systems")]],
        )
        .sequenced(0);
        assert!(apply_once(&mut inbox, &mut cat, &mut view, &gram).expect("apply"));
        let rows_before = cat.get("S.course").expect("relation").len();

        // Crash: drop the in-memory peer, recover from disk.
        drop((cat, inbox));
        let mut rec = recover(&disk).expect("recovery");
        assert_eq!(rec.catalog.get("S.course").expect("relation").len(), rows_before);
        let restored = rec.inboxes.get_mut("Src").expect("inbox for Src");
        assert!(restored.is_seen(0), "watermark survived the crash");
        let mut view2 = view_over(&rec.catalog, "S.course");
        let applied =
            apply_once(restored, &mut rec.catalog, &mut view2, &gram).expect("re-delivery");
        assert!(!applied, "exactly-once across the restart");
        assert_eq!(rec.catalog.get("S.course").expect("relation").len(), rows_before);
    }

    #[test]
    fn torn_image_is_fatal_torn_log_is_not() {
        let disk = PeerDisk::new();
        let mut cat = course_catalog();
        cat.attach_journal(disk.journal());
        checkpoint(&disk, &cat, &[], &[]);
        cat.insert("S.course", vec![Value::str("sec"), Value::str("systems")]);

        // Tear the log mid-frame: the post-checkpoint insert was in
        // flight at the crash, so recovery keeps the image state only.
        let full = disk.journal.bytes().len();
        tear_log(&disk, full.saturating_sub(3));
        let rec = recover(&disk).expect("torn log recovers");
        assert_eq!(rec.report.replayed, 0, "the torn record is discarded");
        assert_eq!(rec.catalog.get("S.course").expect("relation").len(), 2);

        // Corrupt the image: recovery refuses (the image CRC catches it).
        disk.with_image(|i| {
            let img = i.as_mut().expect("image");
            let mid = img.len() / 2;
            img[mid] ^= 0xFF;
        });
        assert!(recover(&disk).is_none());
    }

    /// `bytes` with one to three edits — a bit flipped, a byte set,
    /// deleted or inserted, or the tail cut off — and, four times in
    /// five, the trailing CRC resealed over the edit so the structural
    /// decoder runs.
    fn image_mutant(g: &mut Gen, bytes: &[u8]) -> Vec<u8> {
        let mut out = bytes.to_vec();
        for _ in 0..g.random_range(1..4usize) {
            let at = g.random_range(0..out.len() + 1);
            let byte = *g.pick(&[0u8, 1, 2, 4, 0x7f, 0x80, 0xff]);
            match g.random_range(0..9u8) {
                0..=2 if at < out.len() => out[at] ^= 1 << g.random_range(0..8u32),
                3..=4 if at < out.len() => out[at] = byte,
                5..=6 if at < out.len() => {
                    out.remove(at);
                }
                8 => out.truncate(at),
                _ => out.insert(at, byte),
            }
        }
        if let Some(body) = out.len().checked_sub(4).filter(|_| g.random_bool(0.8)) {
            let crc = crc32(&out[..body]);
            out[body..].copy_from_slice(&crc.to_le_bytes());
        }
        out
    }

    #[test]
    fn peer_image_decoder_never_panics_on_mutants() {
        let disk = PeerDisk::new();
        let mut inbox = GramInbox::durable("Src", disk.journal());
        for id in [0, 2, 5] {
            inbox.accept(id);
        }
        let mut link = ReliableLink::durable("T", FaultPlan::default(), disk.journal());
        link.seal(Updategram::inserts("T.course", vec![]));
        let image = encode_peer_image(&course_catalog(), 4, &[&inbox], &[&link]);
        let (blob, inboxes, outboxes) = decode_peer_image(&image, &disk.journal).expect("valid");
        assert!(!blob.is_empty() && inboxes.len() == 1 && outboxes.len() == 1);
        let mut decoded = 0;
        forall(10_000, |g| {
            let mutant = image_mutant(g, &image);
            if let Some((blob, ..)) = decode_peer_image(&mutant, &disk.journal) {
                decoded += 1;
                let _ = decode_catalog(blob);
            }
        });
        assert!(decoded > 500, "only {decoded} mutants got past the checksum and decoded");
    }
}
