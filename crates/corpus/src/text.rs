//! The U-WORLD text toolbox, adapted to schema terms.
//!
//! §4.2.1 keeps statistics in several versions "depending on whether we
//! take into consideration word stemming, synonym tables, inter-language
//! dictionaries, or any combination of these three". This module supplies
//! those three axes plus the similarity primitives the learners use.

use std::collections::{BTreeMap, BTreeSet, HashMap};

/// Split an identifier into lowercase word tokens: `course_title`,
/// `courseTitle`, `Course-Title` and `course title` all yield
/// `["course", "title"]`.
pub fn tokenize(identifier: &str) -> Vec<String> {
    let mut tokens = Vec::new();
    let mut current = String::new();
    let mut prev_lower = false;
    for c in identifier.chars() {
        if c.is_alphanumeric() {
            if c.is_uppercase() && prev_lower
                && !current.is_empty() {
                    tokens.push(std::mem::take(&mut current));
                }
            prev_lower = c.is_lowercase() || c.is_numeric();
            current.extend(c.to_lowercase());
        } else {
            prev_lower = false;
            if !current.is_empty() {
                tokens.push(std::mem::take(&mut current));
            }
        }
    }
    if !current.is_empty() {
        tokens.push(current);
    }
    tokens
}

/// A light suffix-stripping stemmer, iterated to a fixpoint so that
/// morphological variants land on the same stem: `courses` → `course` →
/// `cours`; `course` → `cours`; `classes` → `classe` → `class`;
/// `teaching` → `teach`; `enrollment(s)` → `enroll`.
pub fn stem(word: &str) -> String {
    let mut w = word.to_lowercase();
    loop {
        let next = stem_step(&w);
        if next == w {
            return w;
        }
        w = next;
    }
}

fn stem_step(w: &str) -> String {
    if w.len() > 4 && w.ends_with("ies") {
        return format!("{}y", &w[..w.len() - 3]);
    }
    if w.len() > 3 && w.ends_with('s') && !w.ends_with("ss") && !w.ends_with("us") {
        return w[..w.len() - 1].to_string();
    }
    for suf in ["ment", "tion"] {
        if w.len() > suf.len() + 3 && w.ends_with(suf) {
            return w[..w.len() - suf.len()].to_string();
        }
    }
    for suf in ["ing", "ed", "er"] {
        if w.len() > suf.len() + 3 && w.ends_with(suf) {
            return w[..w.len() - suf.len()].to_string();
        }
    }
    if w.len() > 4 && w.ends_with('e') {
        return w[..w.len() - 1].to_string();
    }
    w.to_string()
}

/// A synonym table: groups of interchangeable terms. Lookup is symmetric.
#[derive(Debug, Clone, Default)]
pub struct SynonymTable {
    canonical: HashMap<String, usize>,
    groups: Vec<BTreeSet<String>>,
}

impl SynonymTable {
    /// Empty table.
    pub fn new() -> Self {
        Self::default()
    }

    /// Add a synonym group; overlapping groups are merged.
    pub fn add_group(&mut self, words: &[&str]) {
        let mut target: Option<usize> = None;
        for w in words {
            if let Some(&g) = self.canonical.get(&w.to_lowercase()) {
                target = Some(g);
                break;
            }
        }
        let g = target.unwrap_or_else(|| {
            self.groups.push(BTreeSet::new());
            self.groups.len() - 1
        });
        for w in words {
            let w = w.to_lowercase();
            self.groups[g].insert(w.clone());
            self.canonical.insert(w, g);
        }
    }

    /// Are two words synonymous (or identical)?
    pub fn synonymous(&self, a: &str, b: &str) -> bool {
        let (a, b) = (a.to_lowercase(), b.to_lowercase());
        if a == b {
            return true;
        }
        match (self.canonical.get(&a), self.canonical.get(&b)) {
            (Some(x), Some(y)) => x == y,
            _ => false,
        }
    }

    /// English-only synonym groups: the [`SynonymTable::default_domain`]
    /// table with every Italian term removed — models a coordinator who
    /// has no inter-language dictionary (the E10 ablation).
    pub fn english_only() -> SynonymTable {
        let full = SynonymTable::default_domain();
        let italian = [
            "corso", "insegnamento", "docente", "professore", "titolo", "nome", "iscritti",
            "orario", "aula", "ufficio", "telefono", "posta", "dipartimento", "facolta",
            "assistente", "libro", "testo", "crediti", "periodo", "sito", "direttore",
            "relatore", "autore", "codice", "seminario",
        ];
        let mut t = SynonymTable::new();
        for group in &full.groups {
            let kept: Vec<&str> = group
                .iter()
                .map(String::as_str)
                .filter(|w| !italian.contains(w))
                .collect();
            if kept.len() >= 2 {
                t.add_group(&kept);
            }
        }
        t
    }

    /// The English/Italian dictionary implicit in the paper's Example 3.1
    /// plus common schema-vocabulary synonym groups. Tools can start from
    /// this and grow it from corpus statistics.
    pub fn default_domain() -> SynonymTable {
        let mut t = SynonymTable::new();
        for group in [
            &["course", "class", "subject", "offering", "module", "corso", "insegnamento"][..],
            &["instructor", "teacher", "professor", "lecturer", "faculty", "docente", "professore"],
            &["title", "name", "heading", "titolo", "nome"],
            &["enrollment", "size", "capacity", "seats", "iscritti"],
            &["time", "schedule", "when", "hours", "orario"],
            &["room", "location", "place", "building", "aula", "ufficio", "office", "venue"],
            &["phone", "telephone", "telefono"],
            &["email", "mail", "posta"],
            &["department", "dept", "school", "division", "dipartimento", "facolta", "unit"],
            &["ta", "assistant", "tutor", "grader", "assistente"],
            &["book", "text", "textbook", "reading", "libro", "testo"],
            &["credits", "units", "crediti"],
            &["term", "quarter", "semester", "session", "periodo"],
            &["url", "homepage", "website", "sito"],
            &["chair", "head", "director", "dean", "direttore"],
            &["speaker", "presenter", "relatore"],
            &["author", "autore"],
            &["code", "number", "id", "codice"],
            &["seminar", "talk", "colloquium", "seminario"],
        ] {
            t.add_group(group);
        }
        t
    }
}

/// Levenshtein edit distance.
pub fn edit_distance(a: &str, b: &str) -> usize {
    let a: Vec<char> = a.chars().collect();
    let b: Vec<char> = b.chars().collect();
    if a.is_empty() {
        return b.len();
    }
    if b.is_empty() {
        return a.len();
    }
    let mut prev: Vec<usize> = (0..=b.len()).collect();
    let mut cur = vec![0usize; b.len() + 1];
    for (i, ca) in a.iter().enumerate() {
        cur[0] = i + 1;
        for (j, cb) in b.iter().enumerate() {
            let sub = prev[j] + usize::from(ca != cb);
            cur[j + 1] = sub.min(prev[j + 1] + 1).min(cur[j] + 1);
        }
        std::mem::swap(&mut prev, &mut cur);
    }
    prev[b.len()]
}

/// Normalized string similarity in [0, 1] (1 = identical).
pub fn string_similarity(a: &str, b: &str) -> f64 {
    let max = a.chars().count().max(b.chars().count());
    if max == 0 {
        return 1.0;
    }
    1.0 - edit_distance(a, b) as f64 / max as f64
}

/// Jaccard similarity between two token sets.
pub fn jaccard<T: Ord>(a: &BTreeSet<T>, b: &BTreeSet<T>) -> f64 {
    if a.is_empty() && b.is_empty() {
        return 1.0;
    }
    let inter = a.intersection(b).count();
    let union = a.len() + b.len() - inter;
    inter as f64 / union as f64
}

/// Name similarity combining the three §4.2.1 axes: exact/edit similarity
/// on the raw names, token-level Jaccard after stemming, and synonym-table
/// credit.
pub fn name_similarity(a: &str, b: &str, synonyms: &SynonymTable) -> f64 {
    if a.eq_ignore_ascii_case(b) {
        return 1.0;
    }
    let ta: Vec<String> = tokenize(a);
    let tb: Vec<String> = tokenize(b);
    // Synonym credit: best pairwise token synonymy.
    let mut syn_hits = 0usize;
    for x in &ta {
        if tb.iter().any(|y| synonyms.synonymous(x, y)) {
            syn_hits += 1;
        }
    }
    let syn_score = if ta.is_empty() {
        0.0
    } else {
        syn_hits as f64 / ta.len().max(tb.len()) as f64
    };
    let sa: BTreeSet<String> = ta.iter().map(|t| stem(t)).collect();
    let sb: BTreeSet<String> = tb.iter().map(|t| stem(t)).collect();
    let token_score = jaccard(&sa, &sb);
    let edit_score = string_similarity(&a.to_lowercase(), &b.to_lowercase());
    syn_score.max(token_score).max(edit_score * 0.9)
}

/// A sparse TF-IDF-style vector with cosine similarity.
#[derive(Debug, Clone, Default, PartialEq)]
pub struct SparseVec {
    weights: BTreeMap<String, f64>,
}

impl SparseVec {
    /// Build from raw term counts.
    pub fn from_counts(counts: impl IntoIterator<Item = (String, f64)>) -> Self {
        SparseVec { weights: counts.into_iter().filter(|(_, w)| *w != 0.0).collect() }
    }

    /// Each term's weight, in term order.
    pub fn weights(&self) -> &BTreeMap<String, f64> {
        &self.weights
    }

    /// Add weight to a term.
    pub fn add(&mut self, term: impl Into<String>, w: f64) {
        *self.weights.entry(term.into()).or_insert(0.0) += w;
    }

    /// Cosine similarity.
    pub fn cosine(&self, other: &SparseVec) -> f64 {
        let (small, large) = if self.weights.len() <= other.weights.len() {
            (&self.weights, &other.weights)
        } else {
            (&other.weights, &self.weights)
        };
        let dot: f64 = small
            .iter()
            .filter_map(|(k, v)| large.get(k).map(|w| v * w))
            .sum();
        let na: f64 = self.weights.values().map(|v| v * v).sum::<f64>().sqrt();
        let nb: f64 = other.weights.values().map(|v| v * v).sum::<f64>().sqrt();
        if na == 0.0 || nb == 0.0 {
            0.0
        } else {
            dot / (na * nb)
        }
    }

    /// Pearson correlation between two sparse vectors embedded in a
    /// `dim`-dimensional space (absent entries are zero). Unlike
    /// [`SparseVec::cosine`], this centers both vectors first, so two
    /// near-uniform probability distributions — which cosine-correlate
    /// highly for no semantic reason — score ≈ 0: only the *shape* above
    /// the baseline correlates. Returns 0 when either vector is
    /// (near-)constant.
    pub fn pearson(&self, other: &SparseVec, dim: usize) -> f64 {
        if dim == 0 {
            return 0.0;
        }
        let n = dim as f64;
        let (small, large) = if self.weights.len() <= other.weights.len() {
            (&self.weights, &other.weights)
        } else {
            (&other.weights, &self.weights)
        };
        let dot: f64 = small
            .iter()
            .filter_map(|(k, v)| large.get(k).map(|w| v * w))
            .sum();
        let sa: f64 = self.weights.values().sum();
        let sb: f64 = other.weights.values().sum();
        let qa: f64 = self.weights.values().map(|v| v * v).sum();
        let qb: f64 = other.weights.values().map(|v| v * v).sum();
        let (va, vb) = (qa - sa * sa / n, qb - sb * sb / n);
        if va <= 1e-12 || vb <= 1e-12 {
            return 0.0;
        }
        (dot - sa * sb / n) / (va * vb).sqrt()
    }

    /// Number of nonzero terms.
    pub fn len(&self) -> usize {
        self.weights.len()
    }

    /// True when all weights are zero.
    pub fn is_empty(&self) -> bool {
        self.weights.is_empty()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn tokenize_handles_cases() {
        assert_eq!(tokenize("course_title"), vec!["course", "title"]);
        assert_eq!(tokenize("courseTitle"), vec!["course", "title"]);
        assert_eq!(tokenize("Course-Title2"), vec!["course", "title2"]);
        assert_eq!(tokenize(""), Vec::<String>::new());
    }

    #[test]
    fn stemming_collapses_morphology() {
        assert_eq!(stem("courses"), stem("course"));
        assert_eq!(stem("classes"), stem("class"));
        assert_eq!(stem("enrollments"), stem("enrollment"));
        assert_eq!(stem("teaches"), stem("teaching"));
        assert_eq!(stem("teaching"), "teach");
        assert_eq!(stem("studies"), stem("study"));
        // Short words are untouched.
        assert_eq!(stem("as"), "as");
    }

    #[test]
    fn synonym_table_symmetric_and_merged() {
        let t = SynonymTable::default_domain();
        assert!(t.synonymous("course", "class"));
        assert!(t.synonymous("class", "course"));
        assert!(t.synonymous("corso", "subject"));
        assert!(!t.synonymous("course", "phone"));
        assert!(t.synonymous("same", "same"));
    }

    #[test]
    fn overlapping_groups_merge() {
        let mut t = SynonymTable::new();
        t.add_group(&["a", "b"]);
        t.add_group(&["b", "c"]);
        assert!(t.synonymous("a", "c"));
    }

    #[test]
    fn edit_distance_basics() {
        assert_eq!(edit_distance("kitten", "sitting"), 3);
        assert_eq!(edit_distance("", "abc"), 3);
        assert_eq!(edit_distance("same", "same"), 0);
    }

    #[test]
    fn name_similarity_axes() {
        let syn = SynonymTable::default_domain();
        assert_eq!(name_similarity("title", "Title", &syn), 1.0);
        // Synonyms beat edit distance.
        assert!(name_similarity("instructor", "docente", &syn) > 0.9);
        // Shared stemmed token.
        assert!(name_similarity("course_title", "title", &syn) > 0.4);
        // Unrelated stays low.
        assert!(name_similarity("phone", "title", &syn) < 0.4);
    }

    #[test]
    fn cosine_similarity() {
        let mut a = SparseVec::default();
        a.add("x", 1.0);
        a.add("y", 1.0);
        let mut b = SparseVec::default();
        b.add("x", 1.0);
        b.add("y", 1.0);
        assert!((a.cosine(&b) - 1.0).abs() < 1e-9);
        let mut c = SparseVec::default();
        c.add("z", 5.0);
        assert_eq!(a.cosine(&c), 0.0);
        assert_eq!(SparseVec::default().cosine(&a), 0.0);
    }

    #[test]
    fn jaccard_edge_cases() {
        let empty: BTreeSet<String> = BTreeSet::new();
        assert_eq!(jaccard(&empty, &empty), 1.0);
        let a: BTreeSet<String> = ["x".to_string()].into();
        assert_eq!(jaccard(&a, &empty), 0.0);
    }
}
