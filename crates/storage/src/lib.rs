//! Storage substrate for the REVERE reproduction.
//!
//! MANGROVE "stores the data in a relational database using a simple graph
//! representation" and queries it with an RDF-style engine (§2.2 of the
//! paper); Piazza peers hold "stored relations" (§3.1). This crate provides
//! both storage shapes, built from scratch:
//!
//! * [`value`] — the dynamically-typed [`Value`] cell type.
//! * [`schema`] — relation schemas ([`RelSchema`]) and database schemas
//!   ([`DbSchema`]): the unit that corpus tools and peer mappings operate on.
//! * [`relation`] — in-memory [`Relation`]s (bags of tuples); clones
//!   share rows, statistics and columnar image, writes are copy-on-write.
//! * [`mod@column`] — typed column vectors ([`ColumnVec`]) with the
//!   filters that narrow a row list, and relation→batch pivoting
//!   ([`ColumnarBatch`]): the columnar layer under the vectorized evaluator. Joins themselves
//!   live one crate up, in `revere_query::vec` — this crate stores.
//! * [`triples`] — the provenance-carrying triple store MANGROVE publishes
//!   annotations into, with SPO/POS/OSP indexes (our stand-in for Jena \[33\]).
//! * [`catalog`] — a named collection of relations, plus a thread-safe
//!   shared wrapper used by the PDMS peers, whose snapshots are O(1).
//! * [`zset`] — hashed Z-sets ([`ZSet`], per relation a [`ZSetBatch`]):
//!   every change, from a catalog's record to a continuous query's state.
//! * [`fxhash`] — the seedless hasher under every Z-set and join index.
//! * [`stats`] — incremental per-relation/per-column statistics (row,
//!   distinct and value-frequency counts) behind the catalog's stats
//!   epoch; what the query planner costs join orders with.
//! * [`wal`] — the durable change log: CRC-framed append-only
//!   [`wal::WalRecord`] journal with per-record LSNs, deterministic
//!   catalog snapshots, and snapshot + suffix-replay recovery.

pub mod catalog;
pub mod column;
pub mod fxhash;
pub mod relation;
pub mod schema;
pub mod stats;
pub mod triples;
pub mod value;
pub mod wal;
pub mod zset;

pub use catalog::{Catalog, Change, SharedCatalog};
pub use column::{ColumnVec, ColumnarBatch};
pub use relation::{ArityError, Relation, Tuple};
pub use schema::{AttrType, Attribute, DbSchema, RelSchema};
pub use stats::{mcv_join_overlap, ColumnStats, JoinObservation, JoinStats, RelStats};
pub use triples::{Occupancy, Triple, TripleStore};
pub use value::Value;
pub use wal::{decode_catalog, encode_catalog, Journal, Lsn, Wal, WalOpenReport, WalRecord};
pub use zset::{ZSet, ZSetBatch};
