//! The provenance-carrying triple store MANGROVE publishes into.
//!
//! §2.2: "the annotations on web pages are stored in a repository for
//! querying and access by applications ... we currently store the data in a
//! relational database using a simple graph representation"; §2.3: "The
//! source URL of the data is stored in the database and can serve as an
//! important resource for cleaning up the data."
//!
//! A triple is `(subject, predicate, object)` plus its provenance: the
//! source URL it was published from and the logical publish time. The store
//! supports *republish* semantics — publishing a page replaces all triples
//! previously published from that URL, which is what makes MANGROVE's
//! instant-gratification loop work — and everything it keeps is live:
//!
//! * a stored triple is a fixed-width record: its subject, predicate and
//!   source are `u32` ids into three interners, each holding a name once,
//!   and its object is a [`Value`]; a `Str` object equal to one already
//!   stored shares that allocation (by string content only, so `Int(2)`
//!   and `Float(2.0)` keep their spellings) through a map from each live
//!   object string to the number of live triples holding it; no other
//!   object is hashed. Reads give [`Triple`] views borrowing the store's
//!   names and objects, and allocate nothing per triple;
//! * records sit in a slab; a retracted record's slot goes on a free list
//!   and the next insert takes it, so the slab is as long as the largest
//!   number of triples ever live at once;
//! * each subject holds `(predicate id, slot)` per live triple in publish
//!   order, so an `(S, P, ?)` pattern is one probe that dereferences only
//!   the matching records, oldest first — the only pattern MANGROVE's
//!   applications and cleaning pose; each predicate holds `subject id →
//!   live count`, so [`TripleStore::subjects_with`] enumerates keys, and
//!   [`TripleStore::records`] reads several predicates of every such key
//!   in one walk — what an application renders; each source holds its
//!   slots in publish order. Nothing indexes objects: a pattern with a
//!   free subject is one scan of the live records;
//! * retraction removes a triple from every index it is in, so no read
//!   ever meets a dead entry and no cost depends on when
//!   [`TripleStore::compact`] last ran. A name whose last triple went
//!   keeps its id until `compact`; an object string leaves with its last
//!   triple.

use crate::fxhash::FxMap;
use crate::relation::Relation;
use crate::schema::RelSchema;
use crate::value::Value;
use std::collections::hash_map::Entry;
use std::collections::{HashMap, HashSet};
use std::sync::Arc;

/// One edge of the annotation graph, with provenance, as the store's reads
/// give it: every field borrows the store's own name or object.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Triple<'s> {
    /// Subject: the entity the statement is about (e.g. a course URL).
    pub subject: &'s str,
    /// Predicate: the schema tag (e.g. `course.title`).
    pub predicate: &'s str,
    /// Object: the value.
    pub object: &'s Value,
    /// Source URL the triple was extracted from.
    pub source: &'s str,
    /// Logical publish time (monotonically increasing per store).
    pub published_at: u64,
}

/// A query pattern: each position either bound or free.
pub type Pattern<'a> = (Option<&'a str>, Option<&'a str>, Option<&'a Value>);

/// A stored triple: ids into the store's interners, the object, and the
/// publish time.
#[derive(Debug, Clone)]
struct Record {
    subject: u32,
    predicate: u32,
    source: u32,
    object: Value,
    published_at: u64,
}

/// Names interned to dense ids, each id carrying an index entry `T`. The
/// name map is keyed by page-supplied strings, so it keeps the default
/// collision-hardened hasher. A name whose entry has emptied keeps its id
/// until [`TripleStore::compact`].
#[derive(Debug, Clone)]
struct Names<T> {
    ids: HashMap<Arc<str>, u32>,
    entries: Vec<(Arc<str>, T)>,
}

impl<T> Default for Names<T> {
    fn default() -> Self {
        Names { ids: HashMap::new(), entries: Vec::new() }
    }
}

impl<T: Default> Names<T> {
    fn id(&self, name: &str) -> Option<u32> {
        self.ids.get(name).copied()
    }

    fn intern(&mut self, name: &str) -> u32 {
        if let Some(id) = self.id(name) {
            return id;
        }
        let id = u32::try_from(self.entries.len()).expect("fewer than 2^32 names");
        let name: Arc<str> = name.into();
        self.entries.push((name.clone(), T::default()));
        self.ids.insert(name, id);
        id
    }

    fn name(&self, id: u32) -> &Arc<str> {
        &self.entries[id as usize].0
    }

    fn entry(&self, id: u32) -> &T {
        &self.entries[id as usize].1
    }

    fn entry_mut(&mut self, id: u32) -> &mut T {
        &mut self.entries[id as usize].1
    }

    /// Forget the names whose entry is `unused`, renumbering the rest in
    /// their order. Returns the old → new id map when a name went.
    fn forget(&mut self, unused: impl Fn(&T) -> bool) -> Option<Vec<u32>> {
        if !self.entries.iter().any(|(_, e)| unused(e)) {
            return None;
        }
        let mut remap = vec![u32::MAX; self.entries.len()];
        let mut kept = 0;
        for (id, (_, e)) in self.entries.iter().enumerate() {
            if !unused(e) {
                remap[id] = kept;
                kept += 1;
            }
        }
        self.entries.retain(|(_, e)| !unused(e));
        self.entries.shrink_to_fit();
        self.ids.retain(|_, id| {
            *id = remap[*id as usize];
            *id != u32::MAX
        });
        self.ids.shrink_to_fit();
        Some(remap)
    }
}

/// `(predicate id, slot)` of each live triple of one subject.
type SubjectEntry = Vec<(u32, u32)>;
/// `subject id → live triples carrying the pair` for one predicate.
type PredicateEntry = FxMap<u32, u32>;
/// The slots of one source's live triples, in publish order.
type SourceEntry = Vec<u32>;

/// How much a [`TripleStore`] holds, part by part. With nothing dead
/// reachable, every `*_entries` field equals [`TripleStore::len`].
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Occupancy {
    /// Slab slots, live and free.
    pub slots: usize,
    /// Entries over all subjects' lists.
    pub subject_entries: usize,
    /// Live counts summed over all `(predicate, subject)` pairs.
    pub predicate_entries: usize,
    /// Entries over all sources' lists.
    pub source_entries: usize,
    /// Interned subject and predicate names, used or not.
    pub names: usize,
    /// Interned source URLs, used or not.
    pub sources: usize,
    /// Distinct string allocations among the live triples' `Str` objects:
    /// with sharing, the number of distinct live `Str` contents.
    pub object_strings: usize,
    /// The map equal `Str` objects share through: each string it holds,
    /// in content order, with its count of live triples.
    pub shared_strings: Vec<(Arc<str>, usize)>,
}

/// The annotation repository.
#[derive(Debug, Default, Clone)]
pub struct TripleStore {
    slots: Vec<Option<Record>>, // `None` exactly for the slots in `free`
    free: Vec<u32>,
    clock: u64,
    subjects: Names<SubjectEntry>,
    predicates: Names<PredicateEntry>,
    sources: Names<SourceEntry>,
    /// Each live `Str` object's allocation → the live triples holding it.
    /// Keyed by page-supplied strings, so the default hasher.
    strings: HashMap<Arc<str>, u32>,
}

impl TripleStore {
    /// Create an empty store.
    pub fn new() -> Self {
        Self::default()
    }

    /// Number of live triples.
    pub fn len(&self) -> usize {
        self.slots.len() - self.free.len()
    }

    /// True when the store holds no live triples.
    pub fn is_empty(&self) -> bool {
        self.len() == 0
    }

    /// Current logical clock (advances on every publish).
    pub fn now(&self) -> u64 {
        self.clock
    }

    /// Insert one triple from `source`. Returns its publish time.
    pub fn insert(
        &mut self,
        subject: &str,
        predicate: &str,
        object: impl Into<Value>,
        source: &str,
    ) -> u64 {
        let source = self.sources.intern(source);
        self.insert_from(source, subject, predicate, object.into())
    }

    fn insert_from(&mut self, source: u32, subject: &str, predicate: &str, object: Value) -> u64 {
        self.clock += 1;
        let slot = self.free.pop().unwrap_or_else(|| {
            self.slots.push(None);
            u32::try_from(self.slots.len() - 1).expect("fewer than 2^32 triples")
        });
        let subject = self.subjects.intern(subject);
        let predicate = self.predicates.intern(predicate);
        self.subjects.entry_mut(subject).push((predicate, slot));
        *self.predicates.entry_mut(predicate).entry(subject).or_insert(0) += 1;
        self.sources.entry_mut(source).push(slot);
        // A `Str` equal to a stored one takes that allocation; any other
        // object keeps its own spelling (`Int(2)` equals `Float(2.0)`).
        let object = match object {
            Value::Str(s) => match self.strings.entry(s.clone()) {
                Entry::Occupied(mut at) => {
                    *at.get_mut() += 1;
                    Value::Str(at.key().clone())
                }
                Entry::Vacant(at) => {
                    at.insert(1);
                    Value::Str(s)
                }
            },
            object => object,
        };
        let published_at = self.clock;
        let record = Record { subject, predicate, source, object, published_at };
        self.slots[slot as usize] = Some(record);
        published_at
    }

    /// Replace everything previously published from `source` with the given
    /// `(subject, predicate, object)` statements — the semantics of a user
    /// hitting "publish" in the MANGROVE annotation tool. Returns how many
    /// triples the previous version had. The source is looked up once.
    pub fn republish(
        &mut self,
        source: &str,
        statements: impl IntoIterator<Item = (String, String, Value)>,
    ) -> usize {
        let retracted = self.retract_source(source);
        let mut statements = statements.into_iter().peekable();
        if statements.peek().is_some() {
            let source = self.sources.intern(source);
            for (s, p, o) in statements {
                self.insert_from(source, &s, &p, o);
            }
        }
        retracted
    }

    /// Remove all triples from a source (page deleted). Returns the count.
    /// Costs one lookup of the URL, then per statement one pass over its
    /// subject's list, one probe of its predicate's counts and, for a `Str`
    /// object, one hash of the string to drop its count; no name is
    /// hashed. The source keeps its id until [`TripleStore::compact`].
    pub fn retract_source(&mut self, source: &str) -> usize {
        let Some(id) = self.sources.id(source) else {
            return 0;
        };
        let slots = std::mem::take(self.sources.entry_mut(id));
        for &slot in &slots {
            let r = self.slots[slot as usize].take().expect("the source index holds live slots");
            self.free.push(slot);
            self.subjects.entry_mut(r.subject).retain(|&(_, at)| at != slot);
            let counts = self.predicates.entry_mut(r.predicate);
            if let Entry::Occupied(mut count) = counts.entry(r.subject) {
                *count.get_mut() -= 1;
                if *count.get() == 0 {
                    count.remove();
                }
            }
            if let Value::Str(s) = r.object {
                if let Entry::Occupied(mut at) = self.strings.entry(s) {
                    *at.get_mut() -= 1;
                    if *at.get() == 0 {
                        at.remove();
                    }
                }
            }
        }
        slots.len()
    }

    fn record(&self, slot: u32) -> &Record {
        self.slots[slot as usize].as_ref().expect("indexes hold live slots")
    }

    /// The view of one record.
    fn view<'s>(&'s self, r: &'s Record) -> Triple<'s> {
        Triple {
            subject: self.subjects.name(r.subject),
            predicate: self.predicates.name(r.predicate),
            object: &r.object,
            source: self.sources.name(r.source),
            published_at: r.published_at,
        }
    }

    /// Every live record that `keep` accepts, oldest first.
    fn oldest_first(&self, keep: impl Fn(&Record) -> bool) -> Vec<&Record> {
        let mut live: Vec<&Record> = self.slots.iter().flatten().filter(|r| keep(r)).collect();
        // Freed slots are reused, so slab order is not publish order.
        live.sort_unstable_by_key(|r| r.published_at);
        live
    }

    /// All live triples matching a pattern, oldest first. A bound subject
    /// is one probe of the subject index, narrowed by predicate id before
    /// any record is touched; any other pattern is one scan of the live
    /// records, filtered, then sorted.
    pub fn query(&self, (s, p, o): Pattern<'_>) -> Vec<Triple<'_>> {
        let p = match p.map(|p| self.predicates.id(p)) {
            Some(None) => return Vec::new(), // a predicate nobody published
            p => p.flatten(),
        };
        let object = |r: &Record| o.is_none_or(|o| &r.object == o);
        let records: Vec<&Record> = match s {
            Some(s) => {
                let Some(s) = self.subjects.id(s) else {
                    return Vec::new();
                };
                (self.subjects.entry(s).iter())
                    .filter(|&&(q, _)| p.is_none_or(|p| p == q))
                    .map(|&(_, slot)| self.record(slot))
                    .filter(|r| object(r))
                    .collect()
            }
            None => self.oldest_first(|r| p.is_none_or(|p| r.predicate == p) && object(r)),
        };
        records.into_iter().map(|r| self.view(r)).collect()
    }

    /// Distinct subjects having the given predicate, sorted.
    pub fn subjects_with(&self, predicate: &str) -> Vec<&str> {
        self.keyed(predicate).into_iter().map(|(name, _)| &**name).collect()
    }

    /// The subjects having `predicate`, with their ids, in name order.
    fn keyed(&self, predicate: &str) -> Vec<(&Arc<str>, u32)> {
        let Some(p) = self.predicates.id(predicate) else {
            return Vec::new();
        };
        let mut out: Vec<(&Arc<str>, u32)> =
            (self.predicates.entry(p).keys()).map(|&s| (self.subjects.name(s), s)).collect();
        out.sort_unstable_by(|a, b| a.0.cmp(b.0));
        out
    }

    /// Walk the subjects having `key` in name order: `f` gets each one's
    /// interned name and, per entry of `predicates`, its live triples for
    /// that predicate, oldest first. Each name is looked up once a walk.
    pub fn records<'s>(
        &'s self,
        key: &str,
        predicates: &[&str],
        mut f: impl FnMut(&'s Arc<str>, &[Vec<Triple<'s>>]),
    ) {
        let wanted: Vec<Option<u32>> = predicates.iter().map(|p| self.predicates.id(p)).collect();
        let mut groups: Vec<Vec<Triple<'s>>> = vec![Vec::new(); predicates.len()];
        for (name, s) in self.keyed(key) {
            groups.iter_mut().for_each(Vec::clear);
            // A subject's list is in publish order.
            for &(p, slot) in self.subjects.entry(s) {
                if let Some(at) = wanted.iter().position(|&w| w == Some(p)) {
                    groups[at].push(self.view(self.record(slot)));
                }
            }
            f(name, &groups);
        }
    }

    /// All live triples published from `source`, oldest first (a source's
    /// list grows in publish order and is only ever emptied whole).
    pub fn from_source(&self, source: &str) -> Vec<Triple<'_>> {
        (self.sources.id(source).into_iter())
            .flat_map(|id| self.sources.entry(id))
            .map(|&slot| self.view(self.record(slot)))
            .collect()
    }

    /// Iterate over all live triples, oldest first.
    pub fn iter(&self) -> impl Iterator<Item = Triple<'_>> {
        self.oldest_first(|_| true).into_iter().map(move |r| self.view(r))
    }

    /// Expose the graph as a 5-column relation
    /// `triple(subject, predicate, object, source, published_at)` so the
    /// conjunctive-query engine can join over it — the "RDF-style queries"
    /// of §2.2. Its name cells share the store's interned strings.
    pub fn as_relation(&self) -> Relation {
        let schema = RelSchema::new(
            "triple",
            vec![
                crate::schema::Attribute::text("subject"),
                crate::schema::Attribute::text("predicate"),
                crate::schema::Attribute::text("object"),
                crate::schema::Attribute::text("source"),
                crate::schema::Attribute::int("published_at"),
            ],
        );
        let rows = (self.oldest_first(|_| true).into_iter())
            .map(|r| {
                vec![
                    Value::Str(self.subjects.name(r.subject).clone()),
                    Value::Str(self.predicates.name(r.predicate).clone()),
                    r.object.clone(),
                    Value::Str(self.sources.name(r.source).clone()),
                    Value::Int(r.published_at as i64),
                ]
            })
            .collect();
        Relation::with_rows(schema, rows)
    }

    /// Forget the subject, predicate and source names no live triple uses
    /// any more. The names that stay are renumbered in their order, and
    /// the records and indexes that hold their ids rewritten — only when
    /// such a name exists; then give back spare capacity. Nothing else
    /// accumulates: no query, publish or memory figure depends on calling
    /// this, and every list keeps its publish order.
    pub fn compact(&mut self) {
        let subjects = self.subjects.forget(Vec::is_empty);
        let predicates = self.predicates.forget(|e| e.is_empty());
        let sources = self.sources.forget(Vec::is_empty);
        let renumber = |map: &Option<Vec<u32>>, id: &mut u32| {
            if let Some(map) = map {
                *id = map[*id as usize];
            }
        };
        if subjects.is_some() || predicates.is_some() || sources.is_some() {
            for r in self.slots.iter_mut().flatten() {
                renumber(&subjects, &mut r.subject);
                renumber(&predicates, &mut r.predicate);
                renumber(&sources, &mut r.source);
            }
        }
        if predicates.is_some() {
            for (_, entry) in &mut self.subjects.entries {
                entry.iter_mut().for_each(|(p, _)| renumber(&predicates, p));
            }
        }
        if let Some(map) = &subjects {
            for (_, entry) in &mut self.predicates.entries {
                *entry = entry.drain().map(|(s, n)| (map[s as usize], n)).collect();
            }
        }
        self.slots.shrink_to_fit();
        self.free.shrink_to_fit();
    }

    /// Sizes of the slab and of each index (see [`Occupancy`]).
    pub fn occupancy(&self) -> Occupancy {
        let object_strings: HashSet<*const u8> = (self.slots.iter().flatten())
            .filter_map(|r| match &r.object {
                Value::Str(s) => Some(s.as_ptr()),
                _ => None,
            })
            .collect();
        Occupancy {
            slots: self.slots.len(),
            subject_entries: self.subjects.entries.iter().map(|(_, e)| e.len()).sum(),
            predicate_entries: (self.predicates.entries.iter())
                .flat_map(|(_, e)| e.values())
                .map(|&n| n as usize)
                .sum(),
            source_entries: self.sources.entries.iter().map(|(_, e)| e.len()).sum(),
            names: self.subjects.entries.len() + self.predicates.entries.len(),
            sources: self.sources.entries.len(),
            object_strings: object_strings.len(),
            shared_strings: {
                let mut shared: Vec<(Arc<str>, usize)> =
                    self.strings.iter().map(|(s, &n)| (s.clone(), n as usize)).collect();
                shared.sort_unstable();
                shared
            },
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn store() -> TripleStore {
        let mut s = TripleStore::new();
        s.insert("course/db", "course.title", "Databases", "http://uw.edu/db");
        s.insert("course/db", "course.size", Value::Int(120), "http://uw.edu/db");
        s.insert("alice", "person.phone", "555-1234", "http://uw.edu/alice");
        s.insert("alice", "person.phone", "555-9999", "http://other.org/alice");
        s
    }

    #[test]
    fn pattern_queries_use_each_bound_position() {
        let mut s = store();
        assert_eq!(s.query((Some("alice"), None, None)).len(), 2);
        assert_eq!(s.query((None, Some("course.title"), None)).len(), 1);
        let v = Value::str("555-1234");
        assert_eq!(s.query((None, None, Some(&v))).len(), 1);
        assert_eq!(s.query((None, None, None)).len(), 4);
        assert_eq!(
            s.query((Some("alice"), Some("person.phone"), Some(&v))).len(),
            1
        );
        assert!(s.query((Some("nobody"), None, None)).is_empty());

        // Two newer triples carrying `v` take the slots the course page
        // freed, in the reverse of their publish order: the scan still
        // answers oldest first.
        s.retract_source("http://uw.edu/db");
        s.insert("bob", "person.phone", "555-1234", "http://uw.edu/bob");
        s.insert("bob", "person.room", "555-1234", "http://uw.edu/bob");
        let seen = |pattern| -> Vec<(&str, &str)> {
            s.query(pattern).iter().map(|t| (t.subject, t.predicate)).collect()
        };
        assert_eq!(
            seen((None, None, Some(&v))),
            [("alice", "person.phone"), ("bob", "person.phone"), ("bob", "person.room")]
        );
        assert_eq!(
            seen((None, Some("person.phone"), Some(&v))),
            [("alice", "person.phone"), ("bob", "person.phone")]
        );
        assert_eq!(seen((None, Some("person.room"), Some(&v))), [("bob", "person.room")]);
        assert!(seen((None, Some("course.title"), Some(&v))).is_empty());
    }

    #[test]
    fn republish_replaces_source_triples_only() {
        let mut s = store();
        s.republish(
            "http://uw.edu/alice",
            vec![("alice".into(), "person.phone".into(), Value::str("555-0000"))],
        );
        let phones: Vec<String> = s
            .query((Some("alice"), Some("person.phone"), None))
            .iter()
            .map(|t| t.object.to_string())
            .collect();
        assert_eq!(phones.len(), 2);
        assert!(phones.contains(&"555-0000".to_string()));
        assert!(phones.contains(&"555-9999".to_string())); // other source kept
        assert!(!phones.contains(&"555-1234".to_string()));
    }

    #[test]
    fn provenance_is_recorded() {
        let s = store();
        let t = s.query((Some("course/db"), Some("course.title"), None))[0];
        assert_eq!(t.source, "http://uw.edu/db");
        assert!(t.published_at >= 1);
    }

    #[test]
    fn retract_source_removes_everything_from_it() {
        let mut s = store();
        assert_eq!(s.retract_source("http://uw.edu/db"), 2);
        assert_eq!(s.len(), 2);
        assert!(s.query((Some("course/db"), None, None)).is_empty());
        assert_eq!(s.retract_source("http://uw.edu/db"), 0);
    }

    #[test]
    fn subjects_with_dedups() {
        let s = store();
        assert_eq!(s.subjects_with("person.phone"), vec!["alice"]);
    }

    #[test]
    fn as_relation_exposes_graph() {
        let rel = store().as_relation();
        assert_eq!(rel.len(), 4);
        assert_eq!(rel.schema.arity(), 5);
        assert_eq!(rel.schema.position("predicate"), Some(1));
    }

    #[test]
    fn compact_preserves_live_triples() {
        let mut s = store();
        s.retract_source("http://uw.edu/db");
        s.compact();
        assert_eq!(s.len(), 2);
        assert_eq!(s.query((Some("alice"), None, None)).len(), 2);
        // Clock keeps advancing after compaction.
        let before = s.now();
        s.insert("x", "y", "z", "src");
        assert!(s.now() > before);
    }

    #[test]
    fn republish_reuses_the_slots_it_frees() {
        let mut s = store();
        for round in 0..100 {
            let phone = Value::str(format!("555-{round:04}"));
            let retracted = s.republish(
                "http://uw.edu/alice",
                vec![("alice".into(), "person.phone".into(), phone.clone())],
            );
            assert_eq!(retracted, 1);
            let phones = s.query((Some("alice"), Some("person.phone"), None));
            assert_eq!(phones.len(), 2);
            // Oldest first, although the new triple sits in a reused slot.
            assert_eq!(phones[0].source, "http://other.org/alice");
            assert_eq!(*phones[1].object, phone);
        }
        let o = s.occupancy();
        assert_eq!((o.slots, o.subject_entries, o.source_entries), (4, 4, 4));
        // "Databases" and two phones: `Int(120)` is not in the map, and
        // each retracted phone left it.
        assert_eq!(o.shared_strings.len(), 3);
        assert_eq!(s.now(), 104, "every statement still gets its own tick");
    }

    #[test]
    fn compact_forgets_names_no_live_triple_uses() {
        let mut s = store();
        assert_eq!((s.occupancy().names, s.occupancy().sources), (2 + 3, 3));
        s.retract_source("http://uw.edu/db");
        let o = s.occupancy();
        assert_eq!((o.names, o.sources), (2 + 3, 3), "names outlive their triples until compact");
        s.compact();
        assert_eq!((s.occupancy().names, s.occupancy().sources), (1 + 1, 2));
        assert_eq!(s.from_source("http://other.org/alice")[0].object, &Value::str("555-9999"));
        assert!(s.from_source("http://uw.edu/db").is_empty());
        assert_eq!(s.subjects_with("person.phone"), vec!["alice"]);
        assert!(s.subjects_with("course.title").is_empty());
        assert_eq!(s.query((None, Some("person.phone"), None)).len(), 2);
    }

    #[test]
    fn a_record_is_fixed_width() {
        // Three name ids, the publish time and one `Value`: no owned name.
        assert!(std::mem::size_of::<Option<Record>>() <= 48);
    }

    #[test]
    fn equal_string_objects_share_one_allocation_and_numbers_keep_their_spelling() {
        let mut s = TripleStore::new();
        s.insert("a", "p", Value::str("x"), "u/1");
        s.insert("b", "p", Value::str("x"), "u/2");
        s.insert("a", "n", Value::Int(2), "u/1");
        s.insert("b", "n", Value::Float(2.0), "u/2");
        let xs = s.query((None, Some("p"), None));
        let (Value::Str(a), Value::Str(b)) = (xs[0].object, xs[1].object) else {
            panic!("string objects")
        };
        assert!(Arc::ptr_eq(a, b), "equal contents share the first one's allocation");
        assert_eq!(s.occupancy().object_strings, 1);
        let ns: Vec<String> =
            s.query((None, Some("n"), None)).iter().map(|t| format!("{:?}", t.object)).collect();
        assert_eq!(ns, ["Int(2)", "Float(2.0)"]);
        s.retract_source("u/1");
        assert_eq!(s.query((Some("b"), Some("n"), None))[0].object, &Value::Float(2.0));
    }

    #[test]
    fn publish_times_are_monotonic() {
        let s = store();
        let times: Vec<u64> = s.iter().map(|t| t.published_at).collect();
        let mut sorted = times.clone();
        sorted.sort();
        sorted.dedup();
        assert_eq!(sorted.len(), times.len());
    }
}
