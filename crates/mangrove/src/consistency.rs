//! Proactive inconsistency detection (§2.3).
//!
//! "In addition to dealing with inconsistent data as necessary, one can
//! also build special applications whose goal is to proactively find
//! inconsistencies in the database and notify the relevant authors."
//!
//! [`find_inconsistencies`] scans the repository for subjects whose
//! single-valued tags (per the schema's hints) carry conflicting values,
//! and groups the findings by source URL so each page author can be
//! notified about exactly the conflicts their pages participate in.

use crate::schema::MangroveSchema;
use revere_storage::{TripleStore, Value};
use std::collections::BTreeMap;

/// One detected conflict: a single-valued tag with several values.
#[derive(Debug, Clone, PartialEq)]
pub struct Inconsistency {
    /// The subject (e.g. `person/ada`).
    pub subject: String,
    /// The tag that should be single-valued.
    pub predicate: String,
    /// The conflicting `(value, source, published_at)` assertions, in
    /// publish order.
    pub assertions: Vec<(Value, String, u64)>,
}

/// `(value, source, published_at)` assertions keyed by (subject, predicate),
/// borrowed from the store.
type AssertionGroups<'s> = BTreeMap<(&'s str, &'s str), Vec<(&'s Value, &'s str, u64)>>;

/// Scan the store for violations of the schema's single-valued hints.
pub fn find_inconsistencies(store: &TripleStore, schema: &MangroveSchema) -> Vec<Inconsistency> {
    // Group assertions by (subject, predicate), oldest first.
    let mut groups: AssertionGroups = BTreeMap::new();
    for t in store.iter() {
        if schema.decl(t.predicate).map(|d| d.single_valued).unwrap_or(false) {
            groups
                .entry((t.subject, t.predicate))
                .or_default()
                .push((t.object, t.source, t.published_at));
        }
    }
    let mut out = Vec::new();
    for ((subject, predicate), assertions) in groups {
        let mut values: Vec<&Value> = assertions.iter().map(|&(v, _, _)| v).collect();
        values.sort();
        values.dedup();
        if values.len() > 1 {
            out.push(Inconsistency {
                subject: subject.to_string(),
                predicate: predicate.to_string(),
                assertions: (assertions.into_iter())
                    .map(|(v, source, at)| (v.clone(), source.to_string(), at))
                    .collect(),
            });
        }
    }
    out
}

/// The notification list: source URL → the inconsistencies its pages are
/// involved in ("notify the relevant authors").
pub fn notifications_by_source(
    inconsistencies: &[Inconsistency],
) -> BTreeMap<String, Vec<&Inconsistency>> {
    let mut by_source: BTreeMap<String, Vec<&Inconsistency>> = BTreeMap::new();
    for inc in inconsistencies {
        let mut sources: Vec<&str> = inc.assertions.iter().map(|(_, s, _)| s.as_str()).collect();
        sources.sort();
        sources.dedup();
        for s in sources {
            by_source.entry(s.to_string()).or_default().push(inc);
        }
    }
    by_source
}

#[cfg(test)]
mod tests {
    use super::*;

    fn conflicted() -> (TripleStore, MangroveSchema) {
        let mut s = TripleStore::new();
        s.insert("person/ada", "person.phone", "555-0001", "http://u/~ada/");
        s.insert("person/ada", "person.phone", "555-9999", "http://u/dir");
        // Multi-valued tag: conflicts allowed, no report.
        s.insert("course/db", "course.instructor", "Ada", "http://u/db");
        s.insert("course/db", "course.instructor", "Bob", "http://u/db2");
        // Single-valued but consistent: no report.
        s.insert("person/bob", "person.phone", "555-2222", "http://u/~bob/");
        s.insert("person/bob", "person.phone", "555-2222", "http://u/dir");
        (s, MangroveSchema::department())
    }

    #[test]
    fn finds_only_single_valued_conflicts() {
        let (store, schema) = conflicted();
        let found = find_inconsistencies(&store, &schema);
        assert_eq!(found.len(), 1, "{found:?}");
        assert_eq!(found[0].subject, "person/ada");
        assert_eq!(found[0].predicate, "person.phone");
        let values: Vec<&Value> = found[0].assertions.iter().map(|(v, _, _)| v).collect();
        assert_eq!(values, [&Value::str("555-0001"), &Value::str("555-9999")]);
        // Assertions in publish order.
        assert!(found[0].assertions[0].2 < found[0].assertions[1].2);
    }

    #[test]
    fn notifications_reach_every_involved_author() {
        let (store, schema) = conflicted();
        let found = find_inconsistencies(&store, &schema);
        let notify = notifications_by_source(&found);
        assert!(notify.contains_key("http://u/~ada/"));
        assert!(notify.contains_key("http://u/dir"));
        assert!(!notify.contains_key("http://u/~bob/"));
    }

    #[test]
    fn clean_store_reports_nothing() {
        let mut s = TripleStore::new();
        s.insert("x", "person.phone", "1", "src");
        assert!(find_inconsistencies(&s, &MangroveSchema::department()).is_empty());
    }

    #[test]
    fn undeclared_tags_are_ignored() {
        let mut s = TripleStore::new();
        s.insert("x", "weird.tag", "1", "a");
        s.insert("x", "weird.tag", "2", "b");
        assert!(find_inconsistencies(&s, &MangroveSchema::department()).is_empty());
    }

    #[test]
    fn resolves_after_author_fixes_page() {
        let (mut store, schema) = conflicted();
        // The directory page republishes with the correct number.
        store.republish(
            "http://u/dir",
            vec![
                ("person/ada".into(), "person.phone".into(), Value::str("555-0001")),
                ("person/bob".into(), "person.phone".into(), Value::str("555-2222")),
            ],
        );
        assert!(find_inconsistencies(&store, &schema).is_empty());
    }
}
