//! The provenance-carrying triple store MANGROVE publishes into.
//!
//! §2.2: "the annotations on web pages are stored in a repository for
//! querying and access by applications ... we currently store the data in a
//! relational database using a simple graph representation"; §2.3: "The
//! source URL of the data is stored in the database and can serve as an
//! important resource for cleaning up the data."
//!
//! A [`Triple`] is `(subject, predicate, object)` plus its provenance: the
//! source URL it was published from and the logical publish time. The store
//! supports *republish* semantics — publishing a page replaces all triples
//! previously published from that URL, which is what makes MANGROVE's
//! instant-gratification loop work — and everything it keeps is live:
//!
//! * triples sit in a slab; a retracted triple's slot goes on a free list
//!   and the next insert takes it, so the slab is as long as the largest
//!   number of triples ever live at once;
//! * subject and predicate names are interned to `u32`. The subject index
//!   holds `(predicate id, slot)` per live triple in publish order, so an
//!   `(S, P, ?)` pattern is one probe that dereferences only the matching
//!   triples, oldest first; the predicate index holds `subject id → live
//!   count`, so [`TripleStore::subjects_with`] enumerates keys, and
//!   [`TripleStore::records`] reads several predicates of every such key in
//!   one walk — what an application renders; the object and source
//!   indexes hold slots;
//! * retraction removes a triple from every index it is in, so no read
//!   ever meets a dead entry and no cost depends on when
//!   [`TripleStore::compact`] last ran.

use crate::relation::Relation;
use crate::schema::RelSchema;
use crate::value::Value;
use std::collections::hash_map::Entry;
use std::collections::HashMap;
use std::sync::Arc;

/// One edge of the annotation graph, with provenance.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Triple {
    /// Subject: the entity the statement is about (e.g. a course URL).
    pub subject: String,
    /// Predicate: the schema tag (e.g. `course.title`).
    pub predicate: String,
    /// Object: the value.
    pub object: Value,
    /// Source URL the triple was extracted from.
    pub source: String,
    /// Logical publish time (monotonically increasing per store).
    pub published_at: u64,
}

/// A query pattern: each position either bound or free.
pub type Pattern<'a> = (Option<&'a str>, Option<&'a str>, Option<&'a Value>);

/// Names interned to dense ids, each id carrying an index entry `T`. A
/// name whose entry has emptied keeps its id until [`TripleStore::compact`].
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

    fn entry(&self, id: u32) -> &T {
        &self.entries[id as usize].1
    }

    fn entry_mut(&mut self, id: u32) -> &mut T {
        &mut self.entries[id as usize].1
    }
}

/// `(predicate id, slot)` of each live triple of one subject.
type SubjectEntry = Vec<(u32, u32)>;
/// `subject id → live triples carrying the pair` for one predicate.
type PredicateEntry = HashMap<u32, u32>;

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
    /// Entries over all objects' lists.
    pub object_entries: usize,
    /// Entries over all sources' lists.
    pub source_entries: usize,
    /// Interned subject and predicate names, used or not.
    pub names: usize,
}

/// The annotation repository.
#[derive(Debug, Default, Clone)]
pub struct TripleStore {
    slots: Vec<Option<Triple>>, // `None` exactly for the slots in `free`
    free: Vec<u32>,
    clock: u64,
    subjects: Names<SubjectEntry>,
    predicates: Names<PredicateEntry>,
    by_object: HashMap<Value, Vec<u32>>,
    by_source: HashMap<String, Vec<u32>>,
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
        subject: impl Into<String>,
        predicate: impl Into<String>,
        object: impl Into<Value>,
        source: impl Into<String>,
    ) -> u64 {
        self.clock += 1;
        let t = Triple {
            subject: subject.into(),
            predicate: predicate.into(),
            object: object.into(),
            source: source.into(),
            published_at: self.clock,
        };
        let slot = self.free.pop().unwrap_or_else(|| {
            self.slots.push(None);
            u32::try_from(self.slots.len() - 1).expect("fewer than 2^32 triples")
        });
        Self::index_names(&mut self.subjects, &mut self.predicates, &t, slot);
        self.by_object.entry(t.object.clone()).or_default().push(slot);
        match self.by_source.get_mut(&t.source) {
            Some(slots) => slots.push(slot),
            None => {
                self.by_source.insert(t.source.clone(), vec![slot]);
            }
        }
        self.slots[slot as usize] = Some(t);
        self.clock
    }

    fn index_names(
        subjects: &mut Names<SubjectEntry>,
        predicates: &mut Names<PredicateEntry>,
        t: &Triple,
        slot: u32,
    ) {
        let s = subjects.intern(&t.subject);
        let p = predicates.intern(&t.predicate);
        subjects.entry_mut(s).push((p, slot));
        *predicates.entry_mut(p).entry(s).or_insert(0) += 1;
    }

    /// Replace everything previously published from `source` with the given
    /// `(subject, predicate, object)` statements — the semantics of a user
    /// hitting "publish" in the MANGROVE annotation tool. Returns how many
    /// triples the previous version had.
    pub fn republish(
        &mut self,
        source: &str,
        statements: impl IntoIterator<Item = (String, String, Value)>,
    ) -> usize {
        let retracted = self.retract_source(source);
        for (s, p, o) in statements {
            self.insert(s, p, o, source);
        }
        retracted
    }

    /// Remove all triples from a source (page deleted). Returns the count.
    /// Costs the page's statements, each times the length of its subject's
    /// and its object's list.
    pub fn retract_source(&mut self, source: &str) -> usize {
        let Some(slots) = self.by_source.remove(source) else {
            return 0;
        };
        for &slot in &slots {
            let t = self.slots[slot as usize].take().expect("the source index holds live slots");
            self.free.push(slot);
            let s = self.subjects.id(&t.subject).expect("a live triple's subject is interned");
            let p = self.predicates.id(&t.predicate).expect("a live triple's predicate is interned");
            self.subjects.entry_mut(s).retain(|&(_, at)| at != slot);
            if let Entry::Occupied(mut count) = self.predicates.entry_mut(p).entry(s) {
                *count.get_mut() -= 1;
                if *count.get() == 0 {
                    count.remove();
                }
            }
            if let Entry::Occupied(mut at) = self.by_object.entry(t.object) {
                at.get_mut().retain(|&at| at != slot);
                if at.get().is_empty() {
                    at.remove();
                }
            }
        }
        slots.len()
    }

    fn at(&self, slot: u32) -> &Triple {
        self.slots[slot as usize].as_ref().expect("indexes hold live slots")
    }

    /// All live triples matching a pattern, oldest first. A bound subject
    /// is one probe of the subject index (narrowed by predicate id before
    /// any triple is touched); otherwise a bound object probes the object
    /// index, a lone predicate walks its subjects' lists, and a fully-free
    /// pattern scans the slab; only the last two need a sort.
    pub fn query(&self, pattern: Pattern<'_>) -> Vec<&Triple> {
        match pattern {
            (Some(s), p, o) => {
                let Some(s) = self.subjects.id(s) else {
                    return Vec::new();
                };
                let p = match p.map(|p| self.predicates.id(p)) {
                    Some(None) => return Vec::new(), // a predicate nobody published
                    p => p.flatten(),
                };
                self.subjects
                    .entry(s)
                    .iter()
                    .filter(|&&(q, _)| p.is_none_or(|p| p == q))
                    .map(|&(_, slot)| self.at(slot))
                    .filter(|t| o.is_none_or(|o| &t.object == o))
                    .collect()
            }
            (None, p, Some(o)) => self
                .by_object
                .get(o)
                .into_iter()
                .flatten()
                .map(|&slot| self.at(slot))
                .filter(|t| p.is_none_or(|p| t.predicate == p))
                .collect(),
            (None, p, None) => {
                let mut out: Vec<&Triple> = match p.map(|p| self.predicates.id(p)) {
                    Some(None) => return Vec::new(),
                    Some(Some(p)) => (self.predicates.entry(p).keys())
                        .flat_map(|&s| self.subjects.entry(s))
                        .filter(|&&(q, _)| q == p)
                        .map(|&(_, slot)| self.at(slot))
                        .collect(),
                    None => self.slots.iter().flatten().collect(),
                };
                // Subjects are walked in id order, and freed slots are reused.
                out.sort_unstable_by_key(|t| t.published_at);
                out
            }
        }
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
        let mut out: Vec<(&Arc<str>, u32)> = (self.predicates.entry(p).keys())
            .map(|&s| (&self.subjects.entries[s as usize].0, s))
            .collect();
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
        mut f: impl FnMut(&'s Arc<str>, &[Vec<&'s Triple>]),
    ) {
        let wanted: Vec<Option<u32>> = predicates.iter().map(|p| self.predicates.id(p)).collect();
        let mut groups: Vec<Vec<&Triple>> = vec![Vec::new(); predicates.len()];
        for (name, s) in self.keyed(key) {
            groups.iter_mut().for_each(Vec::clear);
            // A subject's list is in publish order (see `compact`).
            for &(p, slot) in self.subjects.entry(s) {
                if let Some(at) = wanted.iter().position(|&w| w == Some(p)) {
                    groups[at].push(self.at(slot));
                }
            }
            f(name, &groups);
        }
    }

    /// All live triples published from `source`, oldest first (a source's
    /// list grows in publish order and is only ever removed whole).
    pub fn from_source(&self, source: &str) -> Vec<&Triple> {
        self.by_source
            .get(source)
            .into_iter()
            .flatten()
            .map(|&slot| self.at(slot))
            .collect()
    }

    /// Iterate over all live triples, oldest first.
    pub fn iter(&self) -> impl Iterator<Item = &Triple> {
        self.query((None, None, None)).into_iter()
    }

    /// Expose the graph as a 5-column relation
    /// `triple(subject, predicate, object, source, published_at)` so the
    /// conjunctive-query engine can join over it — the "RDF-style queries"
    /// of §2.2.
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
        let rows = self
            .iter()
            .map(|t| {
                vec![
                    Value::str(&t.subject),
                    Value::str(&t.predicate),
                    t.object.clone(),
                    Value::str(&t.source),
                    Value::Int(t.published_at as i64),
                ]
            })
            .collect();
        Relation::with_rows(schema, rows)
    }

    /// Forget the subject and predicate names no live triple uses any more
    /// (their ids are renumbered, so both name-keyed indexes are rebuilt —
    /// only when there is such a name), and give back spare capacity.
    /// Nothing else accumulates: no query, publish or memory figure depends
    /// on calling this.
    /// The rebuild goes in publish order, so every subject's list stays
    /// oldest first, as [`TripleStore::records`] needs.
    pub fn compact(&mut self) {
        let unused = self.subjects.entries.iter().any(|(_, e)| e.is_empty())
            || self.predicates.entries.iter().any(|(_, e)| e.is_empty());
        if unused {
            self.subjects = Names::default();
            self.predicates = Names::default();
            let mut live: Vec<(u32, &Triple)> = (self.slots.iter().enumerate())
                .filter_map(|(slot, t)| Some((slot as u32, t.as_ref()?)))
                .collect();
            live.sort_unstable_by_key(|(_, t)| t.published_at);
            for (slot, t) in live {
                Self::index_names(&mut self.subjects, &mut self.predicates, t, slot);
            }
        }
        self.slots.shrink_to_fit();
        self.free.shrink_to_fit();
    }

    /// Sizes of the slab and of each index (see [`Occupancy`]).
    pub fn occupancy(&self) -> Occupancy {
        Occupancy {
            slots: self.slots.len(),
            subject_entries: self.subjects.entries.iter().map(|(_, e)| e.len()).sum(),
            predicate_entries: self
                .predicates
                .entries
                .iter()
                .flat_map(|(_, e)| e.values())
                .map(|&n| n as usize)
                .sum(),
            object_entries: self.by_object.values().map(Vec::len).sum(),
            source_entries: self.by_source.values().map(Vec::len).sum(),
            names: self.subjects.entries.len() + self.predicates.entries.len(),
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
        let s = store();
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
            assert_eq!(phones[1].object, phone);
        }
        let o = s.occupancy();
        assert_eq!((o.slots, o.subject_entries, o.object_entries), (4, 4, 4));
        assert_eq!(s.now(), 104, "every statement still gets its own tick");
    }

    #[test]
    fn compact_forgets_names_no_live_triple_uses() {
        let mut s = store();
        assert_eq!(s.occupancy().names, 2 + 3);
        s.retract_source("http://uw.edu/db");
        assert_eq!(s.occupancy().names, 2 + 3, "names outlive their triples until compact");
        s.compact();
        assert_eq!(s.occupancy().names, 1 + 1);
        assert_eq!(s.subjects_with("person.phone"), vec!["alice"]);
        assert!(s.subjects_with("course.title").is_empty());
        assert_eq!(s.query((None, Some("person.phone"), None)).len(), 2);
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
