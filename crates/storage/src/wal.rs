//! Durable change log: an append-only, CRC-framed write-ahead log (WAL)
//! plus deterministic catalog snapshots.
//!
//! The paper's peers "can join or leave at will" (§3.1). PR 2 made
//! *transient* outages survivable (retry + dedup); this module makes
//! *restarts* survivable: every catalog mutation is journaled as a
//! [`WalRecord`] before it is applied, and recovery is snapshot + replay
//! of the LSN suffix. The design follows the LSN-window CDC shape of
//! SNIPPETS.md Snippet 3: change records keyed by a monotone LSN,
//! consumed within an acknowledged window, then truncated.
//!
//! Like everything in this workspace the format is hermetic and
//! hand-rolled — no serde, no external CRC crate.
//!
//! # On-disk layout (simulated)
//!
//! The "disk" is a byte vector (the simulation's stable storage — cheap,
//! deterministic, and truncatable at any byte offset by the torn-write
//! tests). Layout:
//!
//! ```text
//! header   = magic "RVWL" | version u32 | base_lsn u64 | crc32(header)
//! frame*   = len u32 | crc32(payload) | payload
//! payload  = lsn u64 | record bytes (see WalRecord)
//! ```
//!
//! All integers are little-endian. A [`Wal`] holds exactly these bytes
//! and one `(lsn, offset)` per frame: a record is encoded once, when it
//! is appended, and decoded only when [`Wal::records`] is read (recovery
//! and tests).
//!
//! A [`Journal`] is clean by construction: it only ever holds a log
//! built by [`Wal::append`] and [`Wal::truncate_below`], or one that
//! [`Wal::open`] validated, so its readers never re-check it. `open` is
//! where foreign bytes enter, and it validates the header and every frame
//! in order and **truncates the torn tail**: the first short or corrupt
//! frame ends the log, and the bytes before it are kept as they are, the
//! clean prefix. A torn write can therefore lose the records that were
//! mid-flight at the crash — exactly the contract of a real WAL without
//! `fsync` batching — but can never produce a wrong record.

use crate::catalog::Catalog;
use crate::relation::{Relation, Tuple};
use crate::schema::{AttrType, Attribute, RelSchema};
use crate::stats::{JoinObservation, JoinStats};
use crate::value::Value;
use std::sync::{Arc, Mutex};

/// Log sequence number: position of a record in a peer's mutation history.
/// Strictly increasing within one log; never reused after truncation.
pub type Lsn = u64;

const WAL_MAGIC: &[u8; 4] = b"RVWL";
const SNAP_MAGIC: &[u8; 4] = b"RVSN";
const WAL_VERSION: u32 = 1;
const HEADER_LEN: usize = 4 + 4 + 8 + 4;
/// Per-frame overhead: length prefix + CRC.
const FRAME_OVERHEAD: usize = 4 + 4;

// ---------------------------------------------------------------------------
// CRC32 (IEEE 802.3, reflected) — table built at compile time.
// ---------------------------------------------------------------------------

const fn build_crc_table() -> [u32; 256] {
    let mut table = [0u32; 256];
    let mut i = 0;
    while i < 256 {
        let mut c = i as u32;
        let mut k = 0;
        while k < 8 {
            c = if c & 1 != 0 { 0xEDB8_8320 ^ (c >> 1) } else { c >> 1 };
            k += 1;
        }
        table[i] = c;
        i += 1;
    }
    table
}

const CRC_TABLE: [u32; 256] = build_crc_table();

/// CRC32 (IEEE) of a byte slice. Exposed so tests and the snapshot format
/// share one implementation.
pub fn crc32(bytes: &[u8]) -> u32 {
    let mut c = 0xFFFF_FFFFu32;
    for &b in bytes {
        c = CRC_TABLE[((c ^ b as u32) & 0xFF) as usize] ^ (c >> 8);
    }
    c ^ 0xFFFF_FFFF
}

// ---------------------------------------------------------------------------
// Byte codec
// ---------------------------------------------------------------------------

/// Append a little-endian `u32` (pub: downstream formats — e.g. the peer
/// image in `revere-pdms` — reuse this codec so all framing matches).
pub fn put_u32(out: &mut Vec<u8>, v: u32) {
    out.extend_from_slice(&v.to_le_bytes());
}

/// Append a little-endian `u64`.
pub fn put_u64(out: &mut Vec<u8>, v: u64) {
    out.extend_from_slice(&v.to_le_bytes());
}

/// Append a length-prefixed UTF-8 string.
pub fn put_str(out: &mut Vec<u8>, s: &str) {
    put_u32(out, s.len() as u32);
    out.extend_from_slice(s.as_bytes());
}

fn put_value(out: &mut Vec<u8>, v: &Value) {
    match v {
        Value::Null => out.push(0),
        Value::Bool(b) => {
            out.push(1);
            out.push(*b as u8);
        }
        Value::Int(i) => {
            out.push(2);
            put_u64(out, *i as u64);
        }
        Value::Float(f) => {
            out.push(3);
            put_u64(out, f.to_bits());
        }
        Value::Str(s) => {
            out.push(4);
            put_str(out, s);
        }
    }
}

fn put_tuple(out: &mut Vec<u8>, t: &[Value]) {
    put_u32(out, t.len() as u32);
    for v in t {
        put_value(out, v);
    }
}

fn put_rows(out: &mut Vec<u8>, rows: &[Tuple]) {
    put_u32(out, rows.len() as u32);
    for r in rows {
        put_tuple(out, r);
    }
}

fn put_schema(out: &mut Vec<u8>, s: &RelSchema) {
    put_str(out, &s.name);
    put_u32(out, s.attrs.len() as u32);
    for a in &s.attrs {
        put_str(out, &a.name);
        out.push(match a.ty {
            AttrType::Text => 0,
            AttrType::Int => 1,
            AttrType::Float => 2,
            AttrType::Bool => 3,
        });
    }
}

fn put_relation(out: &mut Vec<u8>, r: &Relation) {
    put_schema(out, &r.schema);
    put_rows(out, r.rows());
}

/// Bounded cursor over a byte slice; every read is checked so corrupt or
/// truncated input decodes to `None`, never a panic. Public for the same
/// reason as [`put_u32`]: downstream binary formats share the codec.
pub struct Reader<'a> {
    buf: &'a [u8],
    pos: usize,
}

impl<'a> Reader<'a> {
    /// Start reading at the front of `buf`.
    pub fn new(buf: &'a [u8]) -> Self {
        Reader { buf, pos: 0 }
    }

    /// The next `n` bytes, or `None` if fewer remain.
    pub fn take(&mut self, n: usize) -> Option<&'a [u8]> {
        let end = self.pos.checked_add(n)?;
        if end > self.buf.len() {
            return None;
        }
        let s = &self.buf[self.pos..end];
        self.pos = end;
        Some(s)
    }

    pub fn u8(&mut self) -> Option<u8> {
        Some(self.take(1)?[0])
    }

    pub fn u32(&mut self) -> Option<u32> {
        Some(u32::from_le_bytes(self.take(4)?.try_into().ok()?))
    }

    pub fn u64(&mut self) -> Option<u64> {
        Some(u64::from_le_bytes(self.take(8)?.try_into().ok()?))
    }

    pub fn str(&mut self) -> Option<String> {
        let n = self.u32()? as usize;
        let bytes = self.take(n)?;
        String::from_utf8(bytes.to_vec()).ok()
    }

    fn value(&mut self) -> Option<Value> {
        Some(match self.u8()? {
            0 => Value::Null,
            1 => Value::Bool(self.u8()? != 0),
            2 => Value::Int(self.u64()? as i64),
            3 => Value::Float(f64::from_bits(self.u64()?)),
            4 => Value::Str(self.str()?.into()),
            _ => return None,
        })
    }

    fn tuple(&mut self) -> Option<Tuple> {
        let n = self.u32()? as usize;
        let mut t = Vec::with_capacity(n.min(1024));
        for _ in 0..n {
            t.push(self.value()?);
        }
        Some(t)
    }

    fn rows(&mut self) -> Option<Vec<Tuple>> {
        let n = self.u32()? as usize;
        let mut rows = Vec::with_capacity(n.min(1024));
        for _ in 0..n {
            rows.push(self.tuple()?);
        }
        Some(rows)
    }

    fn schema(&mut self) -> Option<RelSchema> {
        let name = self.str()?;
        let n = self.u32()? as usize;
        let mut attrs = Vec::with_capacity(n.min(1024));
        for _ in 0..n {
            let aname = self.str()?;
            let ty = match self.u8()? {
                0 => AttrType::Text,
                1 => AttrType::Int,
                2 => AttrType::Float,
                3 => AttrType::Bool,
                _ => return None,
            };
            attrs.push(Attribute::new(aname, ty));
        }
        Some(RelSchema::new(name, attrs))
    }

    fn relation(&mut self) -> Option<Relation> {
        let schema = self.schema()?;
        let rows = self.rows()?;
        if rows.iter().any(|r| r.len() != schema.arity()) {
            return None;
        }
        Some(Relation::with_rows(schema, rows))
    }

    pub fn done(&self) -> bool {
        self.pos == self.buf.len()
    }
}

// ---------------------------------------------------------------------------
// Records
// ---------------------------------------------------------------------------

/// One journaled catalog or propagation mutation.
///
/// The first five variants are the catalog's own mutation vocabulary —
/// one per [`Catalog`] mutator, what [`Catalog::replay`] consumes; the `Delta*` variants journal the
/// propagation layer's exactly-once state — sealed-but-unacked outgoing
/// updategrams, downstream acknowledgements, and incoming applications —
/// so a peer restart neither re-applies nor loses grams.
#[derive(Debug, Clone, PartialEq)]
pub enum WalRecord {
    /// A relation was registered, or replaced wholesale by a
    /// re-registration under the same name.
    Register {
        /// Full relation contents at registration time.
        relation: Relation,
    },
    /// One row inserted into a named relation.
    Insert {
        /// Target relation name.
        relation: String,
        /// The inserted row.
        row: Tuple,
    },
    /// Every copy of one row deleted from a named relation.
    Delete {
        /// Target relation name.
        relation: String,
        /// The deleted row.
        row: Tuple,
    },
    /// A learned equijoin selectivity was fed back from an executed plan.
    JoinObserved {
        /// One side's relation name.
        rel_a: String,
        /// That side's column index.
        col_a: u32,
        /// The other side's relation name.
        rel_b: String,
        /// That side's column index.
        col_b: u32,
        /// Observed selectivity.
        selectivity: f64,
    },
    /// Every learned join selectivity mentioning a departed peer's
    /// relations was dropped ([`Catalog::purge_join_stats`]).
    JoinPurged {
        /// The departed peer's name.
        peer: String,
    },
    /// An incoming updategram was accepted and applied exactly once.
    /// Journaled *before* applying, so replay re-applies the same deltas
    /// and re-marks the gram id as seen.
    DeltaApplied {
        /// Identity of the inbound link (`<source>→<target>`).
        link: String,
        /// The gram's sequence id on that link.
        id: u64,
        /// Relation the gram mutates.
        relation: String,
        /// Rows inserted by the gram.
        insert: Vec<Tuple>,
        /// Rows deleted by the gram.
        delete: Vec<Tuple>,
    },
    /// An outgoing updategram was sealed (assigned its id) and is now
    /// owed to the downstream peer until acknowledged.
    DeltaSealed {
        /// Identity of the outbound link (the target peer).
        link: String,
        /// The gram's sequence id on that link.
        id: u64,
        /// Relation the gram mutates.
        relation: String,
        /// Rows the gram inserts.
        insert: Vec<Tuple>,
        /// Rows the gram deletes.
        delete: Vec<Tuple>,
    },
    /// The downstream peer acknowledged a sealed gram; its seal record is
    /// truncatable at the next checkpoint.
    DeltaAcked {
        /// Identity of the outbound link (the target peer).
        link: String,
        /// The acknowledged gram id.
        id: u64,
    },
}

impl WalRecord {
    /// Encode to the record byte format (the frame payload minus the LSN).
    pub fn to_bytes(&self) -> Vec<u8> {
        let mut out = Vec::new();
        match self {
            WalRecord::Register { relation } => {
                out.push(1);
                put_relation(&mut out, relation);
            }
            WalRecord::Insert { relation, row } => {
                out.push(2);
                put_str(&mut out, relation);
                put_tuple(&mut out, row);
            }
            WalRecord::Delete { relation, row } => {
                out.push(3);
                put_str(&mut out, relation);
                put_tuple(&mut out, row);
            }
            WalRecord::JoinObserved { rel_a, col_a, rel_b, col_b, selectivity } => {
                out.push(5);
                put_str(&mut out, rel_a);
                put_u32(&mut out, *col_a);
                put_str(&mut out, rel_b);
                put_u32(&mut out, *col_b);
                put_u64(&mut out, selectivity.to_bits());
            }
            WalRecord::DeltaApplied { link, id, relation, insert, delete } => {
                out.push(6);
                put_str(&mut out, link);
                put_u64(&mut out, *id);
                put_str(&mut out, relation);
                put_rows(&mut out, insert);
                put_rows(&mut out, delete);
            }
            WalRecord::DeltaSealed { link, id, relation, insert, delete } => {
                out.push(7);
                put_str(&mut out, link);
                put_u64(&mut out, *id);
                put_str(&mut out, relation);
                put_rows(&mut out, insert);
                put_rows(&mut out, delete);
            }
            WalRecord::DeltaAcked { link, id } => {
                out.push(8);
                put_str(&mut out, link);
                put_u64(&mut out, *id);
            }
            WalRecord::JoinPurged { peer } => {
                out.push(9);
                put_str(&mut out, peer);
            }
        }
        out
    }

    /// Decode a record; `None` on any malformation (unknown tag — 4, the
    /// retired `Analyze`, included — short buffer, trailing garbage,
    /// arity mismatch).
    pub fn from_bytes(bytes: &[u8]) -> Option<WalRecord> {
        let mut r = Reader::new(bytes);
        let rec = match r.u8()? {
            1 => WalRecord::Register { relation: r.relation()? },
            2 => WalRecord::Insert { relation: r.str()?, row: r.tuple()? },
            3 => WalRecord::Delete { relation: r.str()?, row: r.tuple()? },
            5 => WalRecord::JoinObserved {
                rel_a: r.str()?,
                col_a: r.u32()?,
                rel_b: r.str()?,
                col_b: r.u32()?,
                selectivity: f64::from_bits(r.u64()?),
            },
            6 => WalRecord::DeltaApplied {
                link: r.str()?,
                id: r.u64()?,
                relation: r.str()?,
                insert: r.rows()?,
                delete: r.rows()?,
            },
            7 => WalRecord::DeltaSealed {
                link: r.str()?,
                id: r.u64()?,
                relation: r.str()?,
                insert: r.rows()?,
                delete: r.rows()?,
            },
            8 => WalRecord::DeltaAcked { link: r.str()?, id: r.u64()? },
            9 => WalRecord::JoinPurged { peer: r.str()? },
            _ => return None,
        };
        r.done().then_some(rec)
    }
}

// ---------------------------------------------------------------------------
// The log
// ---------------------------------------------------------------------------

/// What [`Wal::open`] found: how much of the log was recoverable.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct WalOpenReport {
    /// Clean records recovered.
    pub records: usize,
    /// Bytes dropped from the torn tail (0 for a cleanly closed log).
    pub torn_bytes: usize,
    /// True when the header itself was missing or corrupt and the log was
    /// reinitialized empty.
    pub header_rebuilt: bool,
}

impl WalOpenReport {
    /// True when the whole log decoded without loss.
    pub fn is_clean(&self) -> bool {
        self.torn_bytes == 0 && !self.header_rebuilt
    }
}

/// An append-only log of [`WalRecord`]s over simulated stable storage:
/// its bytes and one `(lsn, offset)` per frame (see the module docs).
///
/// Appends assign strictly increasing LSNs starting at the header's
/// `base_lsn`. [`Wal::truncate_below`] cuts the acknowledged prefix at a
/// frame boundary and advances `base_lsn` so truncated LSNs are never
/// reused.
#[derive(Debug, Clone)]
pub struct Wal {
    base_lsn: Lsn,
    bytes: Vec<u8>,
    /// Each retained frame's LSN and its offset in `bytes`.
    frames: Vec<(Lsn, usize)>,
}

impl Default for Wal {
    fn default() -> Self {
        Wal::new()
    }
}

impl Wal {
    /// A fresh empty log starting at LSN 0.
    pub fn new() -> Self {
        Self::with_base(0)
    }

    /// A fresh empty log whose first record will get `base_lsn`.
    pub fn with_base(base_lsn: Lsn) -> Self {
        Wal { base_lsn, bytes: Self::header_bytes(base_lsn), frames: Vec::new() }
    }

    fn header_bytes(base_lsn: Lsn) -> Vec<u8> {
        let mut h = Vec::with_capacity(HEADER_LEN);
        h.extend_from_slice(WAL_MAGIC);
        put_u32(&mut h, WAL_VERSION);
        put_u64(&mut h, base_lsn);
        let crc = crc32(&h);
        put_u32(&mut h, crc);
        h
    }

    /// Open a log from its serialized bytes, validating the header and
    /// every frame (CRC, LSN order, a record that decodes), and keeping
    /// the clean prefix as it is: the torn tail is cut, nothing is
    /// re-encoded. Never fails: a hopeless byte soup recovers as an empty
    /// log (and the report says so).
    pub fn open(bytes: &[u8]) -> (Wal, WalOpenReport) {
        let mut report = WalOpenReport::default();
        if bytes.is_empty() {
            return (Wal::new(), report);
        }
        if bytes.len() < HEADER_LEN
            || &bytes[0..4] != WAL_MAGIC
            || u32::from_le_bytes(bytes[4..8].try_into().unwrap()) != WAL_VERSION
            || u32::from_le_bytes(bytes[HEADER_LEN - 4..HEADER_LEN].try_into().unwrap())
                != crc32(&bytes[..HEADER_LEN - 4])
        {
            report.header_rebuilt = true;
            report.torn_bytes = bytes.len();
            return (Wal::new(), report);
        }
        let base_lsn = u64::from_le_bytes(bytes[8..16].try_into().unwrap());
        let mut frames = Vec::new();
        let mut pos = HEADER_LEN;
        while let Some((lsn, rec)) = Self::frame(&bytes[pos..]) {
            // LSNs must start at or after the base and strictly increase,
            // and the record must decode; anything else is corruption and
            // ends the clean prefix.
            let in_order = frames.last().map_or(lsn >= base_lsn, |&(prev, _)| lsn > prev);
            if !in_order || WalRecord::from_bytes(rec).is_none() {
                break;
            }
            frames.push((lsn, pos));
            pos += FRAME_OVERHEAD + 8 + rec.len();
        }
        report.records = frames.len();
        report.torn_bytes = bytes.len() - pos;
        (Wal { base_lsn, bytes: bytes[..pos].to_vec(), frames }, report)
    }

    /// Split the frame at the start of `buf` into its LSN and record
    /// bytes; `None` if short or its CRC fails.
    fn frame(buf: &[u8]) -> Option<(Lsn, &[u8])> {
        let len = u32::from_le_bytes(buf.get(0..4)?.try_into().unwrap()) as usize;
        let crc = u32::from_le_bytes(buf.get(4..8)?.try_into().unwrap());
        let payload = buf.get(FRAME_OVERHEAD..FRAME_OVERHEAD.checked_add(len)?)?;
        if crc32(payload) != crc || payload.len() < 8 {
            return None;
        }
        Some((u64::from_le_bytes(payload[0..8].try_into().unwrap()), &payload[8..]))
    }

    /// Append a record, assigning and returning its LSN. The record is
    /// encoded once, into the frame.
    pub fn append(&mut self, rec: &WalRecord) -> Lsn {
        let (lsn, at) = (self.next_lsn(), self.bytes.len());
        self.bytes.extend_from_slice(&[0; FRAME_OVERHEAD]);
        put_u64(&mut self.bytes, lsn);
        self.bytes.extend_from_slice(&rec.to_bytes());
        let payload = &self.bytes[at + FRAME_OVERHEAD..];
        let head = [(payload.len() as u32).to_le_bytes(), crc32(payload).to_le_bytes()];
        self.bytes[at..at + FRAME_OVERHEAD].copy_from_slice(head.as_flattened());
        self.frames.push((lsn, at));
        lsn
    }

    /// The LSN the next appended record will get.
    pub fn next_lsn(&self) -> Lsn {
        self.frames.last().map_or(self.base_lsn, |(l, _)| l + 1)
    }

    /// The retained records in LSN order, decoded from the frames.
    pub fn records(&self) -> Vec<(Lsn, WalRecord)> {
        let decode = |&(lsn, at): &(Lsn, usize)| {
            let (_, rec) = Self::frame(&self.bytes[at..]).expect("a kept frame is whole");
            (lsn, WalRecord::from_bytes(rec).expect("a kept frame decodes"))
        };
        self.frames.iter().map(decode).collect()
    }

    /// Number of retained records.
    pub fn len(&self) -> usize {
        self.frames.len()
    }

    /// True when no record is retained.
    pub fn is_empty(&self) -> bool {
        self.frames.is_empty()
    }

    /// The serialized log (header + frames) as it would sit on disk.
    pub fn bytes(&self) -> &[u8] {
        &self.bytes
    }

    /// Serialized size in bytes.
    pub fn byte_len(&self) -> usize {
        self.bytes.len()
    }

    /// Drop every record with `lsn < floor` (they are captured by a
    /// snapshot and acknowledged downstream) and advance `base_lsn` so
    /// truncated LSNs are never reused: a new header, then the kept
    /// frames' bytes as they are. Returns how many records were dropped.
    /// A floor beyond `next_lsn` is clamped (LSNs never skip).
    pub fn truncate_below(&mut self, floor: Lsn) -> usize {
        let floor = floor.min(self.next_lsn());
        if floor <= self.base_lsn {
            return 0;
        }
        let dropped = self.frames.partition_point(|(l, _)| *l < floor);
        let cut = self.frames.get(dropped).map_or(self.bytes.len(), |&(_, at)| at);
        self.bytes.splice(..cut, Self::header_bytes(floor));
        self.frames.drain(..dropped);
        self.frames.iter_mut().for_each(|(_, at)| *at = *at + HEADER_LEN - cut);
        self.base_lsn = floor;
        dropped
    }
}

/// A clonable, thread-safe handle to one peer's [`Wal`] — the journal a
/// [`Catalog`] and its propagation links write through. Lock poisoning is
/// recovered, matching the [`crate::SharedCatalog`] policy.
#[derive(Debug, Clone, Default)]
pub struct Journal {
    inner: Arc<Mutex<Wal>>,
}

impl Journal {
    /// A journal over a fresh empty log.
    pub fn new() -> Self {
        Self::default()
    }

    fn with<T>(&self, f: impl FnOnce(&mut Wal) -> T) -> T {
        f(&mut self.inner.lock().unwrap_or_else(std::sync::PoisonError::into_inner))
    }

    /// Append a record; returns its LSN.
    pub fn append(&self, rec: &WalRecord) -> Lsn {
        self.with(|w| w.append(rec))
    }

    /// The LSN the next record will get.
    pub fn next_lsn(&self) -> Lsn {
        self.with(|w| w.next_lsn())
    }

    /// Copy of the serialized log bytes (what a crash leaves behind).
    pub fn bytes(&self) -> Vec<u8> {
        self.with(|w| w.bytes().to_vec())
    }

    /// Serialized size in bytes.
    pub fn byte_len(&self) -> usize {
        self.with(|w| w.byte_len())
    }

    /// Number of retained records.
    pub fn record_count(&self) -> usize {
        self.with(|w| w.len())
    }

    /// The retained records in LSN order, decoded from the frames.
    pub fn records(&self) -> Vec<(Lsn, WalRecord)> {
        self.with(|w| w.records())
    }

    /// Number of retained records with `lsn < below`, counted by a
    /// partition point on the LSN-ordered log.
    pub fn count_below(&self, below: Lsn) -> usize {
        self.with(|w| w.frames.partition_point(|(l, _)| *l < below))
    }

    /// See [`Wal::truncate_below`].
    pub fn truncate_below(&self, floor: Lsn) -> usize {
        self.with(|w| w.truncate_below(floor))
    }

    /// Replace the wrapped log, for every handle — catalog, links, disk
    /// — at once (a torn-write fixture installs a reopened log here).
    pub fn replace(&self, wal: Wal) {
        self.with(|w| *w = wal);
    }
}

// ---------------------------------------------------------------------------
// Catalog snapshots
// ---------------------------------------------------------------------------

/// Deterministic snapshot of a catalog's durable state: relations in name
/// order with rows in [`Relation::sorted`] order, plus the learned join
/// selectivities. Two catalogs holding the same data encode to identical
/// bytes regardless of insertion order — the byte-identity invariant E16
/// asserts. `as_of` is the *exclusive* LSN high-water mark: replaying
/// records with `lsn >= as_of` on top of the snapshot reconstructs the
/// live catalog.
///
/// Per-relation statistics and the stats epoch are deliberately *not*
/// encoded: statistics are recomputed from data on decode (they are a
/// deterministic function of it), and epochs are process-local cache
/// counters, not durable state.
pub fn encode_catalog(cat: &Catalog, as_of: Lsn) -> Vec<u8> {
    let mut out = Vec::new();
    out.extend_from_slice(SNAP_MAGIC);
    put_u32(&mut out, WAL_VERSION);
    put_u64(&mut out, as_of);
    let names: Vec<&str> = cat.names().collect();
    put_u32(&mut out, names.len() as u32);
    for name in names {
        let rel = cat.get(name).expect("names() returned it");
        put_relation(&mut out, &rel.sorted());
    }
    let js = cat.join_stats();
    put_u32(&mut out, js.len() as u32);
    for (((ra, ca), (rb, cb)), o) in js.iter() {
        put_str(&mut out, ra);
        put_u32(&mut out, *ca as u32);
        put_str(&mut out, rb);
        put_u32(&mut out, *cb as u32);
        put_u64(&mut out, o.selectivity.to_bits());
        put_u64(&mut out, o.observations);
    }
    let crc = crc32(&out);
    put_u32(&mut out, crc);
    out
}

/// Decode a snapshot produced by [`encode_catalog`]. Returns the catalog
/// and the snapshot's exclusive LSN high-water mark; `None` if the bytes
/// are corrupt (bad CRC, magic, or structure).
pub fn decode_catalog(bytes: &[u8]) -> Option<(Catalog, Lsn)> {
    if bytes.len() < 4 {
        return None;
    }
    let (body, crc_bytes) = bytes.split_at(bytes.len() - 4);
    if crc32(body) != u32::from_le_bytes(crc_bytes.try_into().unwrap()) {
        return None;
    }
    let mut r = Reader::new(body);
    if r.take(4)? != SNAP_MAGIC || r.u32()? != WAL_VERSION {
        return None;
    }
    let as_of = r.u64()?;
    let n_rels = r.u32()? as usize;
    let mut cat = Catalog::new();
    for _ in 0..n_rels {
        cat.register(r.relation()?);
    }
    let n_join = r.u32()? as usize;
    let mut js = JoinStats::default();
    for _ in 0..n_join {
        let ra = r.str()?;
        let ca = r.u32()? as usize;
        let rb = r.str()?;
        let cb = r.u32()? as usize;
        let obs = JoinObservation {
            selectivity: f64::from_bits(r.u64()?),
            observations: r.u64()?,
        };
        js.restore(&ra, ca, &rb, cb, obs);
    }
    cat.absorb_join_stats(&js);
    r.done().then_some((cat, as_of))
}

#[cfg(test)]
mod tests {
    use super::*;

    /// A small record with no catalog effect, for tests about framing.
    fn marker() -> WalRecord {
        WalRecord::DeltaAcked { link: "T".into(), id: 0 }
    }

    fn sample_relation() -> Relation {
        let mut r = Relation::new(RelSchema::new(
            "course",
            vec![Attribute::text("title"), Attribute::int("enrollment")],
        ));
        r.insert(vec![Value::str("Databases"), Value::Int(120)]);
        r.insert(vec![Value::str("Ancient Greece"), Value::Int(40)]);
        r
    }

    #[test]
    fn crc32_matches_the_ieee_check_value() {
        // The standard CRC-32 check vector.
        assert_eq!(crc32(b"123456789"), 0xCBF4_3926);
        assert_eq!(crc32(b""), 0);
    }

    #[test]
    fn records_round_trip_through_bytes() {
        let recs = vec![
            WalRecord::Register { relation: sample_relation() },
            WalRecord::Insert {
                relation: "course".into(),
                row: vec![Value::str("Roman Law"), Value::Int(25)],
            },
            WalRecord::Delete {
                relation: "course".into(),
                row: vec![Value::Null, Value::Float(1.5)],
            },
            WalRecord::JoinPurged { peer: "Gone".into() },
            WalRecord::JoinObserved {
                rel_a: "A.r".into(),
                col_a: 0,
                rel_b: "B.s".into(),
                col_b: 2,
                selectivity: 0.125,
            },
            WalRecord::DeltaApplied {
                link: "S→T".into(),
                id: 7,
                relation: "m".into(),
                insert: vec![vec![Value::Bool(true)]],
                delete: vec![],
            },
            WalRecord::DeltaSealed {
                link: "T".into(),
                id: 9,
                relation: "m".into(),
                insert: vec![],
                delete: vec![vec![Value::Int(-3)]],
            },
            WalRecord::DeltaAcked { link: "T".into(), id: 9 },
        ];
        for rec in recs {
            let bytes = rec.to_bytes();
            assert_eq!(WalRecord::from_bytes(&bytes), Some(rec.clone()), "{rec:?}");
            // Trailing garbage must be rejected, not silently ignored.
            let mut longer = bytes.clone();
            longer.push(0);
            assert_eq!(WalRecord::from_bytes(&longer), None);
        }
        assert_eq!(WalRecord::from_bytes(&[42]), None, "unknown tag");
        assert_eq!(WalRecord::from_bytes(&[4]), None, "the retired Analyze tag");
        assert_eq!(WalRecord::from_bytes(&[]), None, "empty");
    }

    #[test]
    fn log_appends_assign_increasing_lsns_and_reopen_cleanly() {
        let mut w = Wal::new();
        assert_eq!(w.append(&marker()), 0);
        assert_eq!(w.append(&marker()), 1);
        let (re, report) = Wal::open(w.bytes());
        assert!(report.is_clean(), "{report:?}");
        assert_eq!(re.records(), w.records());
        assert_eq!(re.next_lsn(), 2);
    }

    #[test]
    fn torn_tail_is_truncated_to_the_clean_prefix() {
        let mut w = Wal::new();
        for i in 0..4 {
            w.append(&WalRecord::Insert {
                relation: "t".into(),
                row: vec![Value::Int(i)],
            });
        }
        let full = w.bytes().to_vec();
        // Cut mid-way through the last frame.
        let cut = full.len() - 3;
        let (re, report) = Wal::open(&full[..cut]);
        assert_eq!(re.len(), 3);
        assert!(!report.is_clean());
        assert_eq!(report.torn_bytes, cut - re.byte_len(), "everything past the clean prefix");
        // New appends continue after the clean prefix.
        let mut re = re;
        assert_eq!(re.next_lsn(), 3);
        re.append(&marker());
        let (again, rep2) = Wal::open(re.bytes());
        assert!(rep2.is_clean());
        assert_eq!(again.len(), 4);
    }

    #[test]
    fn corrupt_byte_ends_the_clean_prefix() {
        let mut w = Wal::new();
        for i in 0..3 {
            w.append(&WalRecord::Insert { relation: "t".into(), row: vec![Value::Int(i)] });
        }
        let mut bytes = w.bytes().to_vec();
        // Flip one bit in the middle record's payload.
        let mid = HEADER_LEN + (bytes.len() - HEADER_LEN) / 2;
        bytes[mid] ^= 0x40;
        let (re, report) = Wal::open(&bytes);
        assert!(re.len() < 3, "corruption truncates from the flipped frame");
        assert!(report.torn_bytes > 0);
    }

    #[test]
    fn corrupt_header_recovers_as_an_empty_log() {
        let mut w = Wal::new();
        w.append(&marker());
        let mut bytes = w.bytes().to_vec();
        bytes[1] ^= 0xFF;
        let (re, report) = Wal::open(&bytes);
        assert!(re.is_empty());
        assert!(report.header_rebuilt);
        assert_eq!(report.torn_bytes, bytes.len());
    }

    #[test]
    fn truncate_below_drops_the_prefix_and_never_reuses_lsns() {
        let mut w = Wal::new();
        for i in 0..5 {
            w.append(&WalRecord::Insert { relation: "t".into(), row: vec![Value::Int(i)] });
        }
        let before = w.byte_len();
        assert_eq!(w.truncate_below(3), 3);
        assert!(w.byte_len() < before, "truncation reclaims bytes");
        assert_eq!(w.records().iter().map(|(l, _)| *l).collect::<Vec<_>>(), vec![3, 4]);
        assert_eq!(w.next_lsn(), 5);
        // Truncating everything still keeps the LSN sequence monotone.
        assert_eq!(w.truncate_below(u64::MAX), 2);
        assert!(w.is_empty());
        assert_eq!(w.next_lsn(), 5);
        assert_eq!(w.append(&marker()), 5);
        // The truncated log reopens with its base intact.
        let (re, report) = Wal::open(w.bytes());
        assert!(report.is_clean());
        assert_eq!(re.records().iter().map(|(l, _)| *l).collect::<Vec<_>>(), vec![5]);
    }

    #[test]
    fn snapshot_encoding_is_order_insensitive_and_crc_checked() {
        let mut a = Catalog::new();
        a.create(RelSchema::text("t", &["v"]));
        a.insert("t", vec![Value::str("x")]);
        a.insert("t", vec![Value::str("y")]);
        a.note_join_overlap("A.r", 0, "B.s", 1, 0.25);
        let mut b = Catalog::new();
        b.create(RelSchema::text("t", &["v"]));
        b.insert("t", vec![Value::str("y")]);
        b.insert("t", vec![Value::str("x")]);
        b.note_join_overlap("B.s", 1, "A.r", 0, 0.25);
        assert_eq!(encode_catalog(&a, 9), encode_catalog(&b, 9));

        let bytes = encode_catalog(&a, 9);
        let (decoded, as_of) = decode_catalog(&bytes).expect("clean snapshot");
        assert_eq!(as_of, 9);
        assert_eq!(encode_catalog(&decoded, 9), bytes, "decode is the inverse");
        assert_eq!(decoded.join_stats().overlap("A.r", 0, "B.s", 1), Some(0.25));
        assert_eq!(
            decoded.join_stats().iter().next().unwrap().1.observations,
            a.join_stats().iter().next().unwrap().1.observations,
            "observation counts survive the round trip"
        );
        // Any flipped byte is caught by the CRC.
        let mut bad = bytes.clone();
        bad[10] ^= 1;
        assert!(decode_catalog(&bad).is_none());
        assert!(decode_catalog(&[]).is_none());
    }

    #[test]
    fn snapshot_plus_suffix_replay_rebuilds_the_catalog() {
        let mut live = Catalog::new();
        let journal = Journal::new();
        live.attach_journal(journal.clone());
        live.create(RelSchema::text("t", &["v"]));
        live.insert("t", vec![Value::str("a")]);
        // Checkpoint here: the snapshot covers everything so far.
        let snap = encode_catalog(&live, journal.next_lsn());
        live.insert("t", vec![Value::str("b")]);
        live.delete("t", &[Value::str("a")]);

        let (mut rec, as_of) = decode_catalog(&snap).expect("clean snapshot");
        let suffix: Vec<_> = journal.records().into_iter().filter(|(l, _)| *l >= as_of).collect();
        assert_eq!(suffix.len(), 2, "only the post-snapshot suffix");
        for (_, r) in &suffix {
            rec.replay(r);
        }
        assert_eq!(encode_catalog(&rec, 0), encode_catalog(&live, 0));

        // Full-history replay (no snapshot) lands in the same state.
        let mut rec2 = Catalog::new();
        for (_, r) in &journal.records() {
            rec2.replay(r);
        }
        assert_eq!(encode_catalog(&rec2, 0), encode_catalog(&live, 0));
    }
}
