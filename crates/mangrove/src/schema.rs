//! MANGROVE's lightweight schemas.
//!
//! §2.1: "Users of MANGROVE are required to adhere to one of the schemas
//! provided by the MANGROVE administrator at their organization ...
//! MANGROVE users are only required to use a set of standardized tag names
//! (and their allowed nesting structure) ... they are not required to
//! adhere to integrity constraints." A schema is therefore just a tag
//! vocabulary organized by concept, with single-valuedness recorded as a
//! *hint* for cleaning policies — never enforced at publish time.

use std::collections::BTreeMap;

/// Declaration of one tag.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct TagDecl {
    /// Fully-qualified tag, e.g. `course.title`.
    pub name: String,
    /// Whether applications *expect* a single value per subject (a hint
    /// for cleaning, not a constraint: "certain attributes may have
    /// multiple values, where there should be only one").
    pub single_valued: bool,
}

/// A lightweight schema: concepts and their tags.
#[derive(Debug, Clone, Default)]
pub struct MangroveSchema {
    /// Schema name (e.g. `uw-cse`).
    pub name: String,
    tags: BTreeMap<String, TagDecl>,
}

impl MangroveSchema {
    /// Create an empty schema.
    pub fn new(name: impl Into<String>) -> Self {
        MangroveSchema { name: name.into(), tags: BTreeMap::new() }
    }

    /// Declare a tag (builder style).
    pub fn tag(mut self, name: &str, single_valued: bool) -> Self {
        self.tags.insert(
            name.to_string(),
            TagDecl { name: name.to_string(), single_valued },
        );
        self
    }

    /// Is the tag declared?
    pub fn declares(&self, tag: &str) -> bool {
        self.tags.contains_key(tag)
    }

    /// The declaration, if any.
    pub fn decl(&self, tag: &str) -> Option<&TagDecl> {
        self.tags.get(tag)
    }

    /// Number of declared tags.
    pub fn len(&self) -> usize {
        self.tags.len()
    }

    /// True when no tag is declared.
    pub fn is_empty(&self) -> bool {
        self.tags.is_empty()
    }

    /// The departmental schema used throughout the paper's examples:
    /// courses, people, seminars — contact info, scheduling, publications.
    pub fn department() -> MangroveSchema {
        MangroveSchema::new("department")
            .tag("course.title", true)
            .tag("course.instructor", false)
            .tag("course.time", true)
            .tag("course.room", true)
            .tag("course.enrollment", true)
            .tag("course.textbook", false)
            .tag("course.url", true)
            .tag("person.name", true)
            .tag("person.phone", true)
            .tag("person.email", true)
            .tag("person.office", true)
            .tag("person.homepage", true)
            .tag("seminar.title", true)
            .tag("seminar.speaker", true)
            .tag("seminar.time", true)
            .tag("seminar.room", true)
            .tag("publication.title", true)
            .tag("publication.author", false)
            .tag("publication.year", true)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn department_schema_declares_expected_tags() {
        let s = MangroveSchema::department();
        assert!(s.declares("course.title"));
        assert!(s.declares("person.phone"));
        assert!(!s.declares("course.nonexistent"));
        assert!(s.len() >= 15);
    }

    #[test]
    fn single_valued_hints() {
        let s = MangroveSchema::department();
        assert!(s.decl("person.phone").unwrap().single_valued);
        assert!(!s.decl("course.instructor").unwrap().single_valued);
    }

    #[test]
    fn builder_overwrite() {
        let s = MangroveSchema::new("x").tag("a.b", true).tag("a.b", false);
        assert!(!s.decl("a.b").unwrap().single_valued);
        assert_eq!(s.len(), 1);
    }
}
