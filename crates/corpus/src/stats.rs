//! Basic and composite statistics over the corpus (§4.2).
//!
//! Basic statistics (§4.2.1): "Term usage: how frequently the term is used
//! as a relation name, attribute name, or in data ... Co-occurring schema
//! elements: for each of the different uses of a term, which relation
//! names and attributes tend to appear with it? ... Similar names: for
//! each of the uses of a term, which other words tend to be used with
//! similar statistical characteristics?"
//!
//! Composite statistics (§4.2.2) are kept for "partial structures that
//! appear frequently": we mine frequent attribute-name pairs within
//! relations (an apriori-style pass), which is exactly the signal the
//! DesignAdvisor's "TA info is usually a separate table" advice needs.

use crate::corpus::Corpus;
use crate::text::{stem, tokenize, SparseVec};
use std::collections::{BTreeMap, BTreeSet};

/// The role a term plays in structured data.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash)]
pub enum TermRole {
    /// Used as a relation name.
    RelationName,
    /// Used as an attribute name.
    AttributeName,
    /// Appears inside data values.
    DataValue,
}

/// Per-term usage counts by role.
#[derive(Debug, Clone, Default)]
pub struct TermUsage {
    /// Schemas in which the term names a relation.
    pub as_relation: usize,
    /// Schemas in which the term names an attribute.
    pub as_attribute: usize,
    /// Sampled values containing the term.
    pub in_data: usize,
}

impl TermUsage {
    /// Total uses.
    pub fn total(&self) -> usize {
        self.as_relation + self.as_attribute + self.in_data
    }

    /// The dominant role, if the term is used at all.
    pub fn dominant_role(&self) -> Option<TermRole> {
        if self.total() == 0 {
            return None;
        }
        let mut best = (TermRole::RelationName, self.as_relation);
        if self.as_attribute > best.1 {
            best = (TermRole::AttributeName, self.as_attribute);
        }
        if self.in_data > best.1 {
            best = (TermRole::DataValue, self.in_data);
        }
        Some(best.0)
    }
}

/// Statistics computed over a corpus.
#[derive(Debug, Clone, Default)]
pub struct CorpusStats {
    /// Stemmed term → usage counts.
    pub usage: BTreeMap<String, TermUsage>,
    /// Stemmed attribute term → co-occurrence vector over sibling
    /// attribute terms (how often they share a relation).
    cooccurrence: BTreeMap<String, SparseVec>,
    /// Attribute term → relation-name terms it appears under.
    pub home_relations: BTreeMap<String, BTreeMap<String, usize>>,
    /// Number of schemas in the corpus when computed.
    pub schema_count: usize,
}

impl CorpusStats {
    /// Compute all statistics in one pass over the corpus.
    pub fn compute(corpus: &Corpus) -> CorpusStats {
        let mut stats = CorpusStats {
            schema_count: corpus.len(),
            ..Default::default()
        };
        for entry in &corpus.entries {
            for rel in &entry.schema.relations {
                for tok in tokenize(&rel.name) {
                    stats.usage.entry(stem(&tok)).or_default().as_relation += 1;
                }
                let attr_terms: Vec<String> = rel
                    .attrs
                    .iter()
                    .flat_map(|a| tokenize(&a.name))
                    .map(|t| stem(&t))
                    .collect::<BTreeSet<_>>()
                    .into_iter()
                    .collect();
                let rel_term = tokenize(&rel.name)
                    .first()
                    .map(|t| stem(t))
                    .unwrap_or_default();
                for t in &attr_terms {
                    stats.usage.entry(t.clone()).or_default().as_attribute += 1;
                    *stats
                        .home_relations
                        .entry(t.clone())
                        .or_default()
                        .entry(rel_term.clone())
                        .or_default() += 1;
                }
                // Co-occurrence, each pair counted from both ends.
                for (i, a) in attr_terms.iter().enumerate() {
                    for b in attr_terms.iter().skip(i + 1) {
                        stats
                            .cooccurrence
                            .entry(a.clone())
                            .or_default()
                            .add(b.clone(), 1.0);
                        stats
                            .cooccurrence
                            .entry(b.clone())
                            .or_default()
                            .add(a.clone(), 1.0);
                    }
                }
                // Data term usage (sampled).
                if let Some(data) = entry.data.get(&rel.name) {
                    for attr in rel.attr_names() {
                        for v in data.sample_values(attr, 5) {
                            for tok in tokenize(&v.to_string()) {
                                stats.usage.entry(stem(&tok)).or_default().in_data += 1;
                            }
                        }
                    }
                }
            }
        }
        stats
    }

    /// Usage of one term (stemmed lookup).
    pub fn term_usage(&self, term: &str) -> TermUsage {
        self.usage.get(&stem(term)).cloned().unwrap_or_default()
    }

    /// Terms whose co-occurrence profiles are most similar to `term`'s —
    /// §4.2.1's "similar names" statistic: distributional similarity, not
    /// string similarity, so it can surface synonyms the dictionary lacks.
    pub fn similar_names(&self, term: &str, k: usize) -> Vec<(String, f64)> {
        let t = stem(term);
        let Some(vec) = self.cooccurrence.get(&t) else {
            return Vec::new();
        };
        let mut scored: Vec<(String, f64)> = self
            .cooccurrence
            .iter()
            .filter(|(other, _)| **other != t)
            .map(|(other, v)| (other.clone(), vec.cosine(v)))
            .filter(|(_, s)| *s > 0.0)
            .collect();
        scored.sort_by(|a, b| b.1.total_cmp(&a.1).then_with(|| a.0.cmp(&b.0)));
        scored.truncate(k);
        scored
    }

    /// How often two attribute terms share a relation.
    pub fn pair_support(&self, a: &str, b: &str) -> usize {
        (self.cooccurrence.get(&stem(a)))
            .and_then(|v| v.weights().get(&stem(b)))
            .map_or(0, |&n| n as usize)
    }

    /// The relation-name term an attribute term most commonly lives under,
    /// with its support.
    pub fn usual_home(&self, attr_term: &str) -> Option<(String, usize)> {
        self.home_relations
            .get(&stem(attr_term))
            .and_then(|homes| {
                homes
                    .iter()
                    .max_by_key(|(name, n)| (**n, std::cmp::Reverse((*name).clone())))
                    .map(|(name, n)| (name.clone(), *n))
            })
    }

    /// Frequent attribute pairs above a support threshold, most frequent
    /// first (the composite statistics of §4.2.2).
    pub fn frequent_pairs_above(&self, min_support: usize) -> Vec<((&str, &str), usize)> {
        let mut pairs: Vec<_> = (self.cooccurrence.iter())
            .flat_map(|(a, v)| v.weights().iter().map(move |(b, &n)| ((&**a, &**b), n as usize)))
            .filter(|&((a, b), n)| a < b && n >= min_support)
            .collect();
        pairs.sort_by(|a, b| b.1.cmp(&a.1).then_with(|| a.0.cmp(&b.0)));
        pairs
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::corpus::CorpusEntry;
    use revere_storage::{DbSchema, RelSchema};

    fn corpus() -> Corpus {
        let mut c = Corpus::new();
        for i in 0..4 {
            let schema = DbSchema::new(format!("U{i}"))
                .with(RelSchema::text("course", &["title", "instructor", "time"]))
                .with(RelSchema::text("ta", &["name", "email"]));
            c.add(CorpusEntry::schema_only(schema));
        }
        // One deviant schema using "class(name, teacher, time)".
        let schema = DbSchema::new("U9")
            .with(RelSchema::text("class", &["name", "teacher", "time"]));
        c.add(CorpusEntry::schema_only(schema));
        c
    }

    #[test]
    fn term_usage_by_role() {
        let s = CorpusStats::compute(&corpus());
        let course = s.term_usage("course");
        assert_eq!(course.as_relation, 4);
        assert_eq!(course.as_attribute, 0);
        assert_eq!(course.dominant_role(), Some(TermRole::RelationName));
        let title = s.term_usage("title");
        assert_eq!(title.as_attribute, 4);
        assert_eq!(s.term_usage("nonexistent").total(), 0);
    }

    #[test]
    fn cooccurrence_surfaces_distributional_synonyms() {
        let s = CorpusStats::compute(&corpus());
        // "instructor" and "teacher" never co-occur with each other but
        // share the neighbors {title/name?, time} — "teacher" co-occurs
        // with {name, time}, "instructor" with {title, time}; both share
        // "time", so they show up in each other's similar-names lists.
        let sims = s.similar_names("instructor", 10);
        assert!(
            sims.iter().any(|(t, _)| t == &stem("teacher")),
            "expected stem of teacher among {sims:?}"
        );
    }

    #[test]
    fn frequent_pairs_mined() {
        let s = CorpusStats::compute(&corpus());
        assert_eq!(s.pair_support("title", "instructor"), 4);
        assert_eq!(s.pair_support("instructor", "title"), 4);
        assert_eq!(s.pair_support("title", "email"), 0);
        let top = s.frequent_pairs_above(4);
        assert!(!top.is_empty());
        assert!(top[0].1 >= 4);
    }

    #[test]
    fn usual_home_of_attribute() {
        let s = CorpusStats::compute(&corpus());
        let (home, n) = s.usual_home("email").unwrap();
        assert_eq!(home, "ta");
        assert_eq!(n, 4);
        assert!(s.usual_home("never_seen").is_none());
    }

    #[test]
    fn stats_are_stem_insensitive() {
        let s = CorpusStats::compute(&corpus());
        assert_eq!(s.term_usage("courses").as_relation, 4);
        assert_eq!(s.pair_support("titles", "instructors"), 4);
    }

    #[test]
    fn data_values_counted() {
        let mut c = Corpus::new();
        let schema = DbSchema::new("U").with(RelSchema::text("person", &["phone"]));
        let mut e = CorpusEntry::schema_only(schema);
        let mut r = revere_storage::Relation::new(RelSchema::text("person", &["phone"]));
        r.insert(vec![revere_storage::Value::str("contact 5551234")]);
        e.data.register(r);
        c.add(e);
        let s = CorpusStats::compute(&c);
        assert!(s.term_usage("contact").in_data >= 1);
    }
}
