//! The shared university-domain ontology.
//!
//! Every synthetic university derives its schema from these concepts by
//! renaming and restructuring, so matching difficulty is controlled and
//! every generated element carries a known ground-truth concept — the thing
//! the paper's real-world corpus cannot provide. The vocabulary variants
//! mirror the paper's §4.2.1 axes: synonyms, abbreviations ("stemming"-like
//! surface variation) and inter-language dictionaries (Example 3.1's
//! University of Rome "has a schema using terms in Italian").

use revere_util::rngs::StdRng;
use revere_util::RngExt;
use revere_storage::{AttrType, Value};

/// How an attribute's values look, for the data generators and the
/// value-based matcher.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum ValueKind {
    /// Person names ("Ada Lovelace").
    PersonName,
    /// Course titles ("Introduction to Databases").
    CourseTitle,
    /// Course codes ("CSE 444").
    CourseCode,
    /// Department names ("Computer Science").
    DeptName,
    /// Meeting times ("MWF 10:30-11:20").
    MeetingTime,
    /// Room strings ("Sieg 134").
    Room,
    /// Phone numbers ("206-555-0199").
    Phone,
    /// Email addresses.
    Email,
    /// Enrollment counts (integers 5..400).
    Enrollment,
    /// Credit counts (integers 1..6).
    Credits,
    /// Book titles.
    BookTitle,
    /// URLs.
    Url,
    /// Term names ("Fall 2002").
    Term,
}

impl ValueKind {
    /// Declared storage type for this kind of value.
    pub fn attr_type(self) -> AttrType {
        match self {
            ValueKind::Enrollment | ValueKind::Credits => AttrType::Int,
            _ => AttrType::Text,
        }
    }
}

/// One attribute of a concept: a canonical name, its surface variants, and
/// the kind of values it holds.
#[derive(Debug, Clone)]
pub struct ConceptAttr {
    /// Canonical (ground-truth) name, e.g. `title`.
    pub canonical: &'static str,
    /// Synonyms and abbreviations usable as surface names.
    pub variants: &'static [&'static str],
    /// Italian surface names (the inter-language axis).
    pub italian: &'static [&'static str],
    /// What the values look like.
    pub kind: ValueKind,
    /// Probability-weight of appearing in a derived schema (1.0 = always).
    pub keep_weight: f64,
}

/// A domain concept (maps to a relation in derived schemas).
#[derive(Debug, Clone)]
pub struct Concept {
    /// Canonical concept name, e.g. `course`.
    pub canonical: &'static str,
    /// Synonym relation names.
    pub variants: &'static [&'static str],
    /// Italian relation names.
    pub italian: &'static [&'static str],
    /// Attributes.
    pub attrs: Vec<ConceptAttr>,
}

/// The full domain ontology.
#[derive(Debug, Clone)]
pub struct Ontology {
    /// The concepts.
    pub concepts: Vec<Concept>,
}

macro_rules! attr {
    ($canon:literal, [$($v:literal),*], [$($i:literal),*], $kind:ident, $w:literal) => {
        ConceptAttr {
            canonical: $canon,
            variants: &[$($v),*],
            italian: &[$($i),*],
            kind: ValueKind::$kind,
            keep_weight: $w,
        }
    };
}

impl Ontology {
    /// The university domain of the paper's running example: courses,
    /// instructors, TAs, departments, textbooks and seminars.
    pub fn university() -> Ontology {
        Ontology {
            concepts: vec![
                Concept {
                    canonical: "course",
                    variants: &["class", "subject", "offering", "module"],
                    italian: &["corso", "insegnamento"],
                    attrs: vec![
                        attr!("code", ["course_code", "number", "course_no", "id"], ["codice"], CourseCode, 1.0),
                        attr!("title", ["name", "course_title", "heading"], ["titolo", "nome"], CourseTitle, 1.0),
                        attr!("instructor", ["teacher", "professor", "lecturer", "taught_by"], ["docente", "professore"], PersonName, 0.95),
                        attr!("enrollment", ["size", "num_students", "capacity", "seats"], ["iscritti"], Enrollment, 0.8),
                        attr!("credits", ["units", "credit_hours"], ["crediti"], Credits, 0.6),
                        attr!("time", ["schedule", "meeting_time", "when", "hours"], ["orario"], MeetingTime, 0.8),
                        attr!("room", ["location", "place", "building"], ["aula"], Room, 0.7),
                        attr!("term", ["quarter", "semester", "session"], ["periodo"], Term, 0.6),
                        attr!("url", ["homepage", "website", "course_page"], ["sito"], Url, 0.5),
                    ],
                },
                Concept {
                    canonical: "instructor",
                    variants: &["faculty", "professor", "teacher", "staff"],
                    italian: &["docente"],
                    attrs: vec![
                        attr!("name", ["full_name", "instructor_name"], ["nome"], PersonName, 1.0),
                        attr!("email", ["mail", "email_address", "contact"], ["posta"], Email, 0.9),
                        attr!("phone", ["telephone", "phone_number", "office_phone"], ["telefono"], Phone, 0.8),
                        attr!("office", ["room", "office_location"], ["ufficio"], Room, 0.7),
                        attr!("department", ["dept", "unit", "division"], ["dipartimento"], DeptName, 0.8),
                    ],
                },
                Concept {
                    canonical: "ta",
                    variants: &["teaching_assistant", "assistant", "tutor", "grader"],
                    italian: &["assistente"],
                    attrs: vec![
                        attr!("name", ["ta_name", "assistant_name"], ["nome"], PersonName, 1.0),
                        attr!("email", ["mail", "contact_email"], ["posta"], Email, 0.8),
                        attr!("course", ["class", "assists", "for_course"], ["corso"], CourseCode, 0.9),
                        attr!("hours", ["office_hours", "availability"], ["orario"], MeetingTime, 0.6),
                    ],
                },
                Concept {
                    canonical: "department",
                    variants: &["dept", "school", "division", "faculty_unit"],
                    italian: &["dipartimento", "facolta"],
                    attrs: vec![
                        attr!("name", ["dept_name", "title"], ["nome"], DeptName, 1.0),
                        attr!("chair", ["head", "director", "dean"], ["direttore"], PersonName, 0.7),
                        attr!("phone", ["telephone", "main_phone"], ["telefono"], Phone, 0.6),
                        attr!("url", ["homepage", "website"], ["sito"], Url, 0.6),
                    ],
                },
                Concept {
                    canonical: "textbook",
                    variants: &["book", "text", "reading", "required_text"],
                    italian: &["libro", "testo"],
                    attrs: vec![
                        attr!("title", ["book_title", "name"], ["titolo"], BookTitle, 1.0),
                        attr!("author", ["written_by", "authors"], ["autore"], PersonName, 0.9),
                        attr!("course", ["for_course", "class", "used_in"], ["corso"], CourseCode, 0.9),
                    ],
                },
                Concept {
                    canonical: "seminar",
                    variants: &["talk", "colloquium", "lecture_event"],
                    italian: &["seminario"],
                    attrs: vec![
                        attr!("title", ["topic", "name"], ["titolo"], CourseTitle, 1.0),
                        attr!("speaker", ["presenter", "given_by"], ["relatore"], PersonName, 0.9),
                        attr!("time", ["when", "schedule"], ["orario"], MeetingTime, 0.8),
                        attr!("room", ["location", "venue"], ["aula"], Room, 0.7),
                    ],
                },
            ],
        }
    }

    /// Look up a concept by canonical name.
    pub fn concept(&self, canonical: &str) -> Option<&Concept> {
        self.concepts.iter().find(|c| c.canonical == canonical)
    }
}

const FIRST_NAMES: &[&str] = &[
    "Ada", "Alan", "Grace", "Edsger", "Barbara", "Donald", "Leslie", "John", "Tim", "Radia",
    "Frances", "Ken", "Dennis", "Niklaus", "Tony", "Edgar", "Jim", "Michael", "David", "Sophie",
];
const LAST_NAMES: &[&str] = &[
    "Lovelace", "Turing", "Hopper", "Dijkstra", "Liskov", "Knuth", "Lamport", "Backus",
    "BernersLee", "Perlman", "Allen", "Thompson", "Ritchie", "Wirth", "Hoare", "Codd", "Gray",
    "Stonebraker", "DeWitt", "Wilson",
];
const TITLE_HEADS: &[&str] = &[
    "Introduction to", "Advanced", "Topics in", "Foundations of", "Seminar on", "Principles of",
    "Applied", "Graduate",
];
const TITLE_SUBJECTS: &[&str] = &[
    "Databases", "Operating Systems", "Ancient History", "Machine Learning", "Compilers",
    "Distributed Systems", "Information Retrieval", "Roman Law", "Greek Philosophy", "Networks",
    "Algorithms", "Linguistics", "Art History", "Microeconomics", "Astrophysics",
];
const DEPTS: &[&str] = &[
    "Computer Science", "History", "Classics", "Mathematics", "Physics", "Economics",
    "Linguistics", "Philosophy", "Statistics", "Biology",
];
const DEPT_CODES: &[&str] =
    &["CSE", "HIST", "CLAS", "MATH", "PHYS", "ECON", "LING", "PHIL", "STAT", "BIOL"];
const BUILDINGS: &[&str] = &["Sieg", "Guggenheim", "Savery", "Kane", "Loew", "Denny", "Gowen"];
const DAYS: &[&str] = &["MWF", "TTh", "MW", "F", "Daily"];
const TERMS: &[&str] = &["Fall 2002", "Winter 2003", "Spring 2003", "Summer 2003"];

/// Generate one value of the given kind.
pub fn generate_value(kind: ValueKind, rng: &mut StdRng) -> Value {
    let pick = |xs: &[&str], rng: &mut StdRng| xs[rng.random_range(0..xs.len())].to_string();
    match kind {
        ValueKind::PersonName => Value::str(format!(
            "{} {}",
            pick(FIRST_NAMES, rng),
            pick(LAST_NAMES, rng)
        )),
        ValueKind::CourseTitle => Value::str(format!(
            "{} {}",
            pick(TITLE_HEADS, rng),
            pick(TITLE_SUBJECTS, rng)
        )),
        ValueKind::CourseCode => Value::str(format!(
            "{} {}",
            pick(DEPT_CODES, rng),
            rng.random_range(100..600)
        )),
        ValueKind::DeptName => Value::str(pick(DEPTS, rng)),
        ValueKind::MeetingTime => {
            let h = rng.random_range(8..17);
            Value::str(format!("{} {}:30-{}:20", pick(DAYS, rng), h, h + 1))
        }
        ValueKind::Room => Value::str(format!(
            "{} {}",
            pick(BUILDINGS, rng),
            rng.random_range(100..500)
        )),
        ValueKind::Phone => Value::str(format!(
            "206-555-{:04}",
            rng.random_range(0..10000)
        )),
        ValueKind::Email => Value::str(format!(
            "{}{}@univ.edu",
            pick(FIRST_NAMES, rng).to_lowercase(),
            rng.random_range(1..100)
        )),
        ValueKind::Enrollment => Value::Int(rng.random_range(5..400)),
        ValueKind::Credits => Value::Int(rng.random_range(1..6)),
        ValueKind::BookTitle => Value::str(format!(
            "The {} Book, {}th ed.",
            pick(TITLE_SUBJECTS, rng),
            rng.random_range(1..9)
        )),
        ValueKind::Url => Value::str(format!(
            "http://univ.edu/{}/{}",
            pick(DEPT_CODES, rng).to_lowercase(),
            rng.random_range(100..600)
        )),
        ValueKind::Term => Value::str(pick(TERMS, rng)),
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use revere_util::SeedableRng;

    #[test]
    fn ontology_has_expected_shape() {
        let o = Ontology::university();
        assert_eq!(o.concepts.len(), 6);
        assert!(o.concept("course").is_some());
        assert!(o.concept("nonexistent").is_none());
        assert!(o.concepts.iter().map(|c| c.attrs.len()).sum::<usize>() > 20);
    }

    #[test]
    fn every_attr_has_variants_and_italian() {
        for c in &Ontology::university().concepts {
            assert!(!c.variants.is_empty(), "{}", c.canonical);
            assert!(!c.italian.is_empty(), "{}", c.canonical);
            for a in &c.attrs {
                assert!(!a.variants.is_empty(), "{}.{}", c.canonical, a.canonical);
                assert!(!a.italian.is_empty(), "{}.{}", c.canonical, a.canonical);
                assert!(a.keep_weight > 0.0 && a.keep_weight <= 1.0);
            }
        }
    }

    #[test]
    fn values_are_deterministic_per_seed() {
        let mut a = StdRng::seed_from_u64(7);
        let mut b = StdRng::seed_from_u64(7);
        for kind in [
            ValueKind::PersonName,
            ValueKind::CourseCode,
            ValueKind::Enrollment,
            ValueKind::Email,
        ] {
            assert_eq!(generate_value(kind, &mut a), generate_value(kind, &mut b));
        }
    }

    #[test]
    fn int_kinds_generate_ints() {
        let mut rng = StdRng::seed_from_u64(1);
        assert!(matches!(generate_value(ValueKind::Enrollment, &mut rng), Value::Int(_)));
        assert!(matches!(generate_value(ValueKind::Credits, &mut rng), Value::Int(_)));
        assert_eq!(ValueKind::Enrollment.attr_type(), AttrType::Int);
        assert_eq!(ValueKind::Phone.attr_type(), AttrType::Text);
    }

    #[test]
    fn value_kinds_are_visually_distinct() {
        // The value matcher depends on different kinds producing
        // distinguishable distributions; spot-check formats.
        let mut rng = StdRng::seed_from_u64(3);
        let phone = generate_value(ValueKind::Phone, &mut rng).to_string();
        assert!(phone.starts_with("206-555-"));
        let email = generate_value(ValueKind::Email, &mut rng).to_string();
        assert!(email.contains('@'));
        let time = generate_value(ValueKind::MeetingTime, &mut rng).to_string();
        assert!(time.contains(':'));
    }
}
