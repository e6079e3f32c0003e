//! The annotation-enabled search engine (§2.2).
//!
//! "Other applications that we are constructing include a departmental
//! paper database, a 'Who's Who,' and an annotation-enabled search
//! engine." The engine below searches the *structured* side of the pages:
//! keywords are TF-IDF-scored against the values published for each
//! subject, and — this is the "annotation-enabled" part — hits can be
//! restricted to specific tags (`person.name:ada`) so a search for a
//! phone number does not match a course description.

use revere_storage::TripleStore;
use std::collections::{BTreeMap, HashMap};

/// One search hit.
#[derive(Debug, Clone, PartialEq)]
pub struct SearchHit {
    /// The matching subject.
    pub subject: String,
    /// TF-IDF relevance score.
    pub score: f64,
    /// The `(predicate, value)` pairs that matched a query term.
    pub matched: Vec<(String, String)>,
}

/// An inverted index over the triple store's values.
#[derive(Debug, Default)]
pub struct SearchEngine {
    /// term → (subject → occurrences), with the predicates it came from.
    postings: HashMap<String, BTreeMap<String, Vec<String>>>,
    /// Number of indexed subjects (the "document" count for IDF).
    subjects: usize,
}

fn terms_of(text: &str) -> Vec<String> {
    text.split(|c: char| !c.is_alphanumeric())
        .filter(|t| t.len() >= 2)
        .map(str::to_lowercase)
        .collect()
}

impl SearchEngine {
    /// Build (or rebuild) the index from the store's current contents.
    /// MANGROVE's instant-gratification contract applies: call after
    /// publishes, not on a crawl schedule.
    pub fn build(store: &TripleStore) -> SearchEngine {
        let mut postings: HashMap<String, BTreeMap<String, Vec<String>>> = HashMap::new();
        let mut subjects: BTreeMap<&str, ()> = BTreeMap::new();
        for t in store.iter() {
            subjects.insert(t.subject, ());
            for term in terms_of(&t.object.to_string()) {
                postings
                    .entry(term)
                    .or_default()
                    .entry(t.subject.to_string())
                    .or_default()
                    .push(t.predicate.to_string());
            }
        }
        SearchEngine { postings, subjects: subjects.len() }
    }

    /// Search with optional tag restriction. Query syntax: plain keywords
    /// score everywhere; `tag:keyword` (e.g. `person.name:ada`) only
    /// matches occurrences published under predicates starting with `tag`.
    /// Hits are ranked by summed TF-IDF; returns the top `k`.
    pub fn search(&self, query: &str, k: usize) -> Vec<SearchHit> {
        let mut scores: BTreeMap<&str, (f64, Vec<(String, String)>)> = BTreeMap::new();
        for raw in query.split_whitespace() {
            let (tag_filter, word) = match raw.split_once(':') {
                Some((tag, w)) if !tag.is_empty() && !w.is_empty() => (Some(tag), w),
                _ => (None, raw),
            };
            for term in terms_of(word) {
                let Some(subjects) = self.postings.get(&term) else {
                    continue;
                };
                // IDF over indexed subjects.
                let idf = ((1.0 + self.subjects as f64)
                    / (1.0 + subjects.len() as f64))
                .ln()
                    + 1.0;
                for (subject, predicates) in subjects {
                    let hits: Vec<&String> = predicates
                        .iter()
                        .filter(|p| tag_filter.map(|t| p.starts_with(t)).unwrap_or(true))
                        .collect();
                    if hits.is_empty() {
                        continue;
                    }
                    let tf = hits.len() as f64;
                    let entry = scores.entry(subject).or_insert((0.0, Vec::new()));
                    entry.0 += tf.sqrt() * idf;
                    for p in hits {
                        let pair = (p.clone(), term.clone());
                        if !entry.1.contains(&pair) {
                            entry.1.push(pair);
                        }
                    }
                }
            }
        }
        let mut out: Vec<SearchHit> = scores
            .into_iter()
            .map(|(subject, (score, matched))| SearchHit {
                subject: subject.to_string(),
                score,
                matched,
            })
            .collect();
        out.sort_by(|a, b| b.score.total_cmp(&a.score).then_with(|| a.subject.cmp(&b.subject)));
        out.truncate(k);
        out
    }
}

/// The departmental paper database (§2.2), the third named
/// instant-gratification application: publications aggregated from
/// members' pages, one row per paper with its authors joined.
#[derive(Debug, Clone, Default)]
pub struct PaperDatabase;

impl PaperDatabase {
    /// Render the publication list from the store.
    pub fn render(&self, store: &TripleStore) -> revere_storage::Relation {
        use revere_storage::{RelSchema, Relation, Triple, Value};
        let schema = RelSchema::text("papers", &["paper", "title", "authors", "year"]);
        let mut rows = Vec::new();
        let columns = ["publication.title", "publication.author", "publication.year"];
        store.records("publication.title", &columns, |subject, groups| {
            let oldest = |group: &[Triple]| group.first().map_or(Value::Null, |t| t.object.clone());
            let mut authors: Vec<String> = groups[1].iter().map(|t| t.object.to_string()).collect();
            authors.sort();
            authors.dedup();
            rows.push(vec![
                Value::Str(subject.clone()),
                oldest(&groups[0]),
                Value::str(authors.join("; ")),
                oldest(&groups[2]),
            ]);
        });
        Relation::with_rows(schema, rows)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::publish::Mangrove;
    use crate::schema::MangroveSchema;

    fn store() -> TripleStore {
        let mut m = Mangrove::new(MangroveSchema::department());
        m.publish(
            "http://u/db",
            r#"<body mg:about="course/db">
                 <h1 mg:tag="course.title">Advanced Databases</h1>
                 <span mg:tag="course.instructor">Ada Lovelace</span>
               </body>"#,
        );
        m.publish(
            "http://u/~ada",
            r#"<body mg:about="person/ada">
                 <span mg:tag="person.name">Ada Lovelace</span>
                 <span mg:tag="person.office">Databases Lab 3</span>
               </body>"#,
        );
        m.publish(
            "http://u/papers/p1",
            r#"<body mg:about="paper/p1">
                 <span mg:tag="publication.title">Crossing the Structure Chasm</span>
                 <span mg:tag="publication.author">Alon Halevy</span>
                 <span mg:tag="publication.author">Oren Etzioni</span>
                 <span mg:tag="publication.year">2003</span>
               </body>"#,
        );
        m.store
    }

    #[test]
    fn keyword_search_ranks_by_relevance() {
        let engine = SearchEngine::build(&store());
        let hits = engine.search("databases", 10);
        assert_eq!(hits.len(), 2);
        // The course mentions "Databases" in its title; both it and Ada's
        // office match, but scores are positive and sorted.
        assert!(hits[0].score >= hits[1].score);
        assert!(hits.iter().any(|h| h.subject == "course/db"));
        assert!(hits.iter().any(|h| h.subject == "person/ada"));
    }

    #[test]
    fn tag_filter_narrows_to_annotated_field() {
        let engine = SearchEngine::build(&store());
        // Unfiltered: "lovelace" matches both the course (instructor) and
        // the person (name).
        assert_eq!(engine.search("lovelace", 10).len(), 2);
        // Annotation-enabled: only person.name occurrences.
        let hits = engine.search("person.name:lovelace", 10);
        assert_eq!(hits.len(), 1);
        assert_eq!(hits[0].subject, "person/ada");
        assert!(hits[0].matched.iter().all(|(p, _)| p == "person.name"));
    }

    #[test]
    fn multi_term_queries_accumulate() {
        let engine = SearchEngine::build(&store());
        let hits = engine.search("structure chasm", 10);
        assert_eq!(hits.len(), 1);
        assert_eq!(hits[0].subject, "paper/p1");
        assert!(hits[0].matched.len() >= 2);
    }

    #[test]
    fn unknown_terms_yield_nothing() {
        let engine = SearchEngine::build(&store());
        assert!(engine.search("zebra quantum", 10).is_empty());
        assert!(engine.search("", 10).is_empty());
    }

    #[test]
    fn rebuilding_after_publish_sees_new_data() {
        let mut m = Mangrove::new(MangroveSchema::department());
        let before = SearchEngine::build(&m.store);
        assert!(before.search("fresh", 5).is_empty());
        m.publish(
            "http://u/x",
            r#"<body mg:about="course/x"><h1 mg:tag="course.title">Fresh Topic</h1></body>"#,
        );
        let after = SearchEngine::build(&m.store);
        assert_eq!(after.search("fresh", 5).len(), 1);
    }

    #[test]
    fn paper_database_joins_authors() {
        let db = PaperDatabase.render(&store());
        assert_eq!(db.len(), 1);
        let row = &db.rows()[0];
        assert_eq!(row[1].to_string(), "Crossing the Structure Chasm");
        assert!(row[2].to_string().contains("Alon Halevy"));
        assert!(row[2].to_string().contains("Oren Etzioni"));
        assert_eq!(row[3].to_string(), "2003");
    }

    #[test]
    fn empty_store_gives_empty_results() {
        let s = TripleStore::new();
        assert!(SearchEngine::build(&s).search("anything", 5).is_empty());
        assert!(PaperDatabase.render(&s).is_empty());
    }
}
