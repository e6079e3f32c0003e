//! Per-university schema derivation and data generation.
//!
//! "Naturally, each university used a different, independently evolved
//! schema to mark up its web pages" (Example 3.1). The generator derives a
//! schema per university from the shared [`Ontology`] by applying exactly
//! the divergence axes the paper names: synonym renaming, abbreviation,
//! inter-language renaming (Italian), attribute dropping, and relation
//! renaming — while retaining the ground-truth correspondence of every
//! generated element to its ontology concept, which is what lets the
//! matching experiments measure accuracy.

use crate::ontology::{generate_value, Ontology, ValueKind};
use revere_util::rngs::StdRng;
use revere_util::{RngExt, SeedableRng};
use revere_storage::{Attribute, Catalog, DbSchema, RelSchema, Relation, Value};
use std::collections::BTreeMap;

/// Which language a university's vocabulary is drawn from.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Language {
    /// English surface names (canonical + synonyms).
    English,
    /// Italian surface names ("the University of Rome, that has a schema
    /// using terms in Italian").
    Italian,
}

/// Ground truth: generated element name → ontology element name.
#[derive(Debug, Clone, Default)]
pub struct GroundTruth {
    /// Relation name → concept canonical name.
    pub relations: BTreeMap<String, String>,
    /// `(relation, attribute)` → `(concept, canonical attribute)`.
    pub attributes: BTreeMap<(String, String), (String, String)>,
}

impl GroundTruth {
    /// The canonical concept element behind a generated `(rel, attr)`.
    pub fn concept_of(&self, rel: &str, attr: &str) -> Option<&(String, String)> {
        self.attributes.get(&(rel.to_string(), attr.to_string()))
    }

    /// Derive the correct element-level correspondences between two
    /// universities: pairs whose ground-truth concepts coincide.
    pub fn correspondences(&self, other: &GroundTruth) -> Vec<((String, String), (String, String))> {
        let mut out = Vec::new();
        for (a_key, a_val) in &self.attributes {
            for (b_key, b_val) in &other.attributes {
                if a_val == b_val {
                    out.push((a_key.clone(), b_key.clone()));
                }
            }
        }
        out
    }
}

/// A generated university: schema, data and ground truth.
#[derive(Debug, Clone)]
pub struct University {
    /// University name (e.g. `U03` or `Roma`).
    pub name: String,
    /// Its derived schema.
    pub schema: DbSchema,
    /// Its data, one relation per schema relation.
    pub data: Catalog,
    /// Ground-truth correspondences to the ontology.
    pub truth: GroundTruth,
    /// Per-attribute value kinds (for page generation and matcher oracles).
    pub value_kinds: BTreeMap<(String, String), ValueKind>,
}

/// Configuration for deriving universities.
#[derive(Debug, Clone)]
pub struct UniversityGenerator {
    /// Base RNG seed; university `i` uses `seed + i`.
    pub seed: u64,
    /// Probability that a surface name is replaced by a synonym variant
    /// (0.0 = all canonical names, 1.0 = always renamed). This is the
    /// matching-difficulty knob.
    pub rename_prob: f64,
    /// Probability an optional attribute is dropped (scaled by the
    /// ontology's per-attribute keep weight).
    pub drop_prob: f64,
    /// Rows to generate per relation.
    pub rows_per_relation: usize,
    /// Fraction of universities using the Italian vocabulary.
    pub italian_fraction: f64,
}

impl Default for UniversityGenerator {
    fn default() -> Self {
        UniversityGenerator {
            seed: 42,
            rename_prob: 0.5,
            drop_prob: 0.3,
            rows_per_relation: 30,
            italian_fraction: 0.2,
        }
    }
}

impl UniversityGenerator {
    /// Generate `n` universities.
    pub fn generate(&self, n: usize) -> Vec<University> {
        (0..n).map(|i| self.generate_one(i)).collect()
    }

    /// Generate the `i`-th university.
    pub fn generate_one(&self, i: usize) -> University {
        let mut rng = StdRng::seed_from_u64(self.seed.wrapping_add(i as u64));
        let language = if rng.random_bool(self.italian_fraction.clamp(0.0, 1.0)) {
            Language::Italian
        } else {
            Language::English
        };
        let name = match language {
            Language::English => format!("U{i:02}"),
            Language::Italian => format!("It{i:02}"),
        };
        self.derive(&name, language, &mut rng)
    }

    /// Derive one university with an explicit language and RNG.
    pub fn derive(&self, name: &str, language: Language, rng: &mut StdRng) -> University {
        let ontology = Ontology::university();
        let mut schema = DbSchema::new(name);
        let mut truth = GroundTruth::default();
        let mut value_kinds = BTreeMap::new();
        let mut data = Catalog::new();

        // Shared pools so cross-relation values line up (TA.course refers
        // to real course codes, etc.).
        let course_codes: Vec<Value> = (0..self.rows_per_relation)
            .map(|_| generate_value(ValueKind::CourseCode, rng))
            .collect();

        for concept in &ontology.concepts {
            let rel_name = self.pick_name(
                concept.canonical,
                concept.variants,
                concept.italian,
                language,
                rng,
            );
            let mut attrs = Vec::new();
            let mut kept: Vec<&crate::ontology::ConceptAttr> = Vec::new();
            for a in &concept.attrs {
                let drop_chance = self.drop_prob * (1.0 - a.keep_weight) * 2.0;
                if rng.random_bool(drop_chance.clamp(0.0, 0.95)) {
                    continue;
                }
                let attr_name =
                    self.pick_name(a.canonical, a.variants, a.italian, language, rng);
                // Avoid duplicate attribute names within one relation.
                if attrs.iter().any(|x: &Attribute| x.name == attr_name) {
                    continue;
                }
                truth.attributes.insert(
                    (rel_name.clone(), attr_name.clone()),
                    (concept.canonical.to_string(), a.canonical.to_string()),
                );
                value_kinds.insert((rel_name.clone(), attr_name.clone()), a.kind);
                attrs.push(Attribute::new(attr_name, a.kind.attr_type()));
                kept.push(a);
            }
            if attrs.is_empty() {
                continue;
            }
            truth
                .relations
                .insert(rel_name.clone(), concept.canonical.to_string());
            let rel_schema = RelSchema::new(rel_name.clone(), attrs);
            schema.relations.push(rel_schema.clone());

            // Generate data.
            let mut rel = Relation::new(rel_schema);
            for row_i in 0..self.rows_per_relation {
                let row: Vec<Value> = kept
                    .iter()
                    .map(|a| match a.kind {
                        // Keep referential consistency for course codes.
                        ValueKind::CourseCode => course_codes[row_i % course_codes.len()].clone(),
                        k => generate_value(k, rng),
                    })
                    .collect();
                rel.insert(row);
            }
            data.register(rel);
        }
        University {
            name: name.to_string(),
            schema,
            data,
            truth,
            value_kinds,
        }
    }

    fn pick_name(
        &self,
        canonical: &str,
        variants: &[&str],
        italian: &[&str],
        language: Language,
        rng: &mut StdRng,
    ) -> String {
        match language {
            Language::Italian => italian[rng.random_range(0..italian.len())].to_string(),
            Language::English => {
                if rng.random_bool(self.rename_prob.clamp(0.0, 1.0)) && !variants.is_empty() {
                    variants[rng.random_range(0..variants.len())].to_string()
                } else {
                    canonical.to_string()
                }
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn generation_is_deterministic() {
        let g = UniversityGenerator::default();
        let a = g.generate_one(3);
        let b = g.generate_one(3);
        assert_eq!(a.schema, b.schema);
        assert_eq!(a.data.total_rows(), b.data.total_rows());
    }

    #[test]
    fn different_universities_diverge() {
        let g = UniversityGenerator { rename_prob: 0.8, ..Default::default() };
        let a = g.generate_one(1);
        let b = g.generate_one(2);
        assert_ne!(a.schema, b.schema);
    }

    #[test]
    fn ground_truth_covers_every_attribute() {
        let g = UniversityGenerator::default();
        let u = g.generate_one(0);
        for r in &u.schema.relations {
            assert!(u.truth.relations.contains_key(&r.name));
            for a in &r.attrs {
                assert!(
                    u.truth.concept_of(&r.name, &a.name).is_some(),
                    "{}.{} lacks ground truth",
                    r.name,
                    a.name
                );
            }
        }
    }

    #[test]
    fn data_conforms_to_schema() {
        let g = UniversityGenerator { rows_per_relation: 10, ..Default::default() };
        let u = g.generate_one(5);
        for r in &u.schema.relations {
            let rel = u.data.get(&r.name).expect("relation has data");
            assert_eq!(rel.len(), 10);
            assert_eq!(rel.schema.arity(), r.arity());
        }
    }

    #[test]
    fn correspondences_between_two_universities() {
        let g = UniversityGenerator::default();
        let a = g.generate_one(0);
        let b = g.generate_one(1);
        let corr = a.truth.correspondences(&b.truth);
        // Both always keep course.code and course.title at minimum.
        assert!(corr.len() >= 2, "only {} correspondences", corr.len());
        // Every correspondence's two sides share a concept.
        for ((ar, aa), (br, ba)) in &corr {
            assert_eq!(
                a.truth.concept_of(ar, aa),
                b.truth.concept_of(br, ba)
            );
        }
    }

    #[test]
    fn italian_universities_use_italian_names() {
        let g = UniversityGenerator { italian_fraction: 1.0, ..Default::default() };
        let u = g.generate_one(0);
        assert!(u.name.starts_with("It"));
        // Relation names come from the Italian dictionaries.
        let ontology = Ontology::university();
        for r in &u.schema.relations {
            let concept = ontology.concept(&u.truth.relations[&r.name]).unwrap();
            assert!(
                concept.italian.contains(&r.name.as_str()),
                "{} not an Italian name for {}",
                r.name,
                concept.canonical
            );
        }
    }

    #[test]
    fn zero_rename_keeps_canonical_names() {
        let g = UniversityGenerator {
            rename_prob: 0.0,
            drop_prob: 0.0,
            italian_fraction: 0.0,
            ..Default::default()
        };
        let u = g.generate_one(0);
        assert!(u.schema.relation("course").is_some());
        let course = u.schema.relation("course").unwrap();
        assert!(course.position("title").is_some());
        assert!(course.position("instructor").is_some());
    }
}
