//! Application-side data cleaning (§2.3: deferred integrity constraints).
//!
//! "The burden of cleaning up the data is passed to the application using
//! the data ... different applications will have varying requirements for
//! data integrity." The policies here are the ones the paper sketches:
//! take everything; prefer facts published from the subject's own web
//! space ("extract a phone number from the faculty's web space, rather
//! than anywhere on the web" — provenance-based); majority vote across
//! sources; or freshest publish wins.

use revere_storage::{Triple, TripleStore, Value};
use std::collections::BTreeMap;

/// How an application resolves conflicting values for one
/// `(subject, predicate)`.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum CleaningPolicy {
    /// Keep every distinct value (applications whose users "can tell
    /// easily whether the answers they are receiving are correct").
    TakeAll,
    /// Only trust triples whose source URL matches the subject's own web
    /// space, determined by `subject_source_hint` — the paper's phone
    /// directory example. Falls back to [`CleaningPolicy::Majority`] when
    /// the subject has no own-space triples for the predicate.
    PreferOwnSource,
    /// The most frequently asserted value wins; ties broken by freshness.
    Majority,
    /// The most recently published value wins.
    Freshest,
}

/// Does `source` look like `subject`'s own web space? The heuristic the
/// paper implies: the subject identifier's last path component appears in
/// the source URL as a whole segment — no letter or digit on either side —
/// so subject `person/p003` owns `http://univ.edu/~p003/index.html` but
/// not `http://univ.edu/~p0031/`.
pub fn is_own_source(subject: &str, source: &str) -> bool {
    let key = subject.rsplit('/').next().unwrap_or_default().as_bytes();
    let src = source.as_bytes();
    let edge = |b: Option<&u8>| b.is_none_or(|b| !b.is_ascii_alphanumeric());
    !key.is_empty()
        && (0..src.len()).any(|i| {
            src[i..].starts_with(key)
                && edge(i.checked_sub(1).map(|j| &src[j]))
                && edge(src.get(i + key.len()))
        })
}

/// Resolve the values of `(subject, predicate)` under a policy: one
/// `(S, P, ?)` probe of the store, then [`resolve_among`].
///
/// Single-winner policies return at most one value; [`CleaningPolicy::TakeAll`]
/// returns every distinct value ordered by first publish time.
pub fn resolve(
    store: &TripleStore,
    subject: &str,
    predicate: &str,
    policy: &CleaningPolicy,
) -> Vec<Value> {
    let triples = store.query((Some(subject), Some(predicate), None));
    resolve_among(subject, &triples, policy).cloned().collect()
}

/// Resolve one `(subject, predicate)` group — its live triples, oldest
/// first, as [`TripleStore::query`] and [`TripleStore::records`] give
/// them — under a policy, as [`resolve`] does. The values are borrowed
/// from the store (a value asserted as both `Int(2)` and `Float(2.0)`
/// keeps its oldest spelling under `TakeAll` and `Majority`); only
/// [`CleaningPolicy::Majority`], and the fallback to it, allocate.
pub fn resolve_among<'t>(
    subject: &str,
    triples: &'t [Triple<'t>],
    policy: &CleaningPolicy,
) -> impl Iterator<Item = &'t Value> {
    let (all, winner) = match policy {
        CleaningPolicy::TakeAll => (triples, None),
        CleaningPolicy::PreferOwnSource => {
            let own = triples.iter().rev().find(|t| is_own_source(subject, t.source));
            (&[][..], own.map(|t| t.object).or_else(|| majority(triples)))
        }
        CleaningPolicy::Majority => (&[][..], majority(triples)),
        CleaningPolicy::Freshest => (&[][..], triples.last().map(|t| t.object)),
    };
    // TakeAll: every value not asserted by an older triple of the group.
    let distinct = all
        .iter()
        .enumerate()
        .filter(|&(i, t)| all[..i].iter().all(|u| u.object != t.object))
        .map(|(_, t)| t.object);
    winner.into_iter().chain(distinct)
}

/// The most frequently asserted value, ties broken by the latest publish.
fn majority<'t>(triples: &[Triple<'t>]) -> Option<&'t Value> {
    let mut counts: BTreeMap<&Value, (usize, u64)> = BTreeMap::new();
    for t in triples {
        let e = counts.entry(t.object).or_insert((0, 0));
        e.0 += 1;
        e.1 = e.1.max(t.published_at);
    }
    counts.into_iter().max_by_key(|(_, (n, at))| (*n, *at)).map(|(v, _)| v)
}

#[cfg(test)]
mod tests {
    use super::*;

    fn conflicted_store() -> TripleStore {
        let mut s = TripleStore::new();
        // Own page says 0001 (published first).
        s.insert("person/ada", "person.phone", "555-0001", "http://univ.edu/~ada/");
        // Two directories agree on a wrong value (published later).
        s.insert("person/ada", "person.phone", "555-9999", "http://univ.edu/dir1");
        s.insert("person/ada", "person.phone", "555-9999", "http://univ.edu/dir2");
        s
    }

    #[test]
    fn take_all_returns_distinct_in_publish_order() {
        let s = conflicted_store();
        let vals = resolve(&s, "person/ada", "person.phone", &CleaningPolicy::TakeAll);
        assert_eq!(vals, vec![Value::str("555-0001"), Value::str("555-9999")]);
    }

    #[test]
    fn prefer_own_source_trusts_home_page() {
        let s = conflicted_store();
        let vals = resolve(&s, "person/ada", "person.phone", &CleaningPolicy::PreferOwnSource);
        assert_eq!(vals, vec![Value::str("555-0001")]);
    }

    #[test]
    fn prefer_own_source_falls_back_to_majority() {
        let mut s = TripleStore::new();
        s.insert("person/bob", "person.phone", "555-1111", "http://univ.edu/dir1");
        s.insert("person/bob", "person.phone", "555-1111", "http://univ.edu/dir2");
        s.insert("person/bob", "person.phone", "555-2222", "http://univ.edu/dir3");
        let vals = resolve(&s, "person/bob", "person.phone", &CleaningPolicy::PreferOwnSource);
        assert_eq!(vals, vec![Value::str("555-1111")]);
    }

    #[test]
    fn majority_wins_even_against_own_page() {
        let s = conflicted_store();
        let vals = resolve(&s, "person/ada", "person.phone", &CleaningPolicy::Majority);
        assert_eq!(vals, vec![Value::str("555-9999")]);
    }

    #[test]
    fn freshest_takes_latest_publish() {
        let s = conflicted_store();
        let vals = resolve(&s, "person/ada", "person.phone", &CleaningPolicy::Freshest);
        assert_eq!(vals, vec![Value::str("555-9999")]);
        let mut s2 = conflicted_store();
        s2.insert("person/ada", "person.phone", "555-0002", "http://univ.edu/~ada/");
        let vals2 = resolve(&s2, "person/ada", "person.phone", &CleaningPolicy::Freshest);
        assert_eq!(vals2, vec![Value::str("555-0002")]);
    }

    #[test]
    fn empty_for_unknown_subject() {
        let s = conflicted_store();
        for p in [
            CleaningPolicy::TakeAll,
            CleaningPolicy::PreferOwnSource,
            CleaningPolicy::Majority,
            CleaningPolicy::Freshest,
        ] {
            assert!(resolve(&s, "person/eve", "person.phone", &p).is_empty());
        }
    }

    #[test]
    fn own_source_heuristic() {
        assert!(is_own_source("person/p003", "http://univ.edu/~p003/index.html"));
        assert!(!is_own_source("person/p003", "http://univ.edu/directory.html"));
        assert!(!is_own_source("", "http://univ.edu/x"));
    }

    #[test]
    fn own_source_key_is_a_whole_path_segment() {
        // `htmlgen` ids are `p{i:03}`: p100 is a prefix of p1000..p1009.
        for other in ["p1000", "p1009", "xp100", "p100x"] {
            let url = format!("http://univ.edu/~{other}/index.html");
            assert!(!is_own_source("person/p100", &url), "{url}");
        }
        assert!(is_own_source("person/p100", "http://univ.edu/~p100/index.html"));
        assert!(is_own_source("person/p100", "http://univ.edu/~p100"));
        assert!(is_own_source("person/p100", "p100.html"));
        // A later occurrence may be the whole segment.
        assert!(is_own_source("person/p100", "http://univ.edu/p1000/p100/"));
        assert!(is_own_source("course/c100", "http://univ.edu/courses/c100.html"));
        assert!(!is_own_source("course/db", "http://univ.edu/courses/dbms.html"));
        assert!(!is_own_source("course/db", "http://adb.univ.edu/courses/os.html"));
        assert!(is_own_source("course/db", "http://univ.edu/courses/db.html"));
    }
}
