//! The publish pipeline.
//!
//! §2.2: "the annotations on web pages are stored in a repository for
//! querying and access by applications ... The database is typically
//! updated the moment a user publishes new or revised content." A
//! [`Mangrove`] instance couples a [`MangroveSchema`] with the triple-store
//! repository; [`Mangrove::publish`] parses a page, extracts its
//! statements, flags undeclared tags (without rejecting anything — there
//! are no integrity constraints at publish time) and atomically replaces
//! the page's previous statements.

use crate::annotation::{extract_statements, AnnotationIssue};
use crate::schema::MangroveSchema;
use revere_storage::TripleStore;

/// What one publish did.
#[derive(Debug, Clone)]
pub struct PublishReport {
    /// Statements stored.
    pub stored: usize,
    /// Statements of the page's previous version that this publish
    /// replaced: with `stored`, the publish's write amplification.
    pub retracted: usize,
    /// Tags used on the page but not declared in the schema. They are
    /// *still stored* — applications decide what to trust — but reported
    /// back to the author, the way the paper's tool surfaces schema
    /// guidance.
    pub undeclared_tags: Vec<String>,
    /// Structural annotation issues (orphan tags, empty values).
    pub issues: Vec<AnnotationIssue>,
}

/// A MANGROVE installation: schema + repository.
#[derive(Debug, Default)]
pub struct Mangrove {
    /// The organization's schema.
    pub schema: MangroveSchema,
    /// The annotation repository.
    pub store: TripleStore,
}

impl Mangrove {
    /// Create an installation with the given schema.
    pub fn new(schema: MangroveSchema) -> Self {
        Mangrove { schema, store: TripleStore::new() }
    }

    /// Publish (or republish) a page: everything previously published from
    /// `url` is replaced by the page's current statements.
    pub fn publish(&mut self, url: &str, html: &str) -> PublishReport {
        publish_page(&mut self.store, &self.schema, url, html)
    }
}

/// Free-function form of the publish pipeline (used by the crawl baseline,
/// which maintains its own store).
pub fn publish_page(
    store: &mut TripleStore,
    schema: &MangroveSchema,
    url: &str,
    html: &str,
) -> PublishReport {
    let (statements, issues) = extract_statements(html);
    let mut undeclared: Vec<String> = statements
        .iter()
        .filter(|s| !schema.declares(&s.predicate))
        .map(|s| s.predicate.clone())
        .collect();
    undeclared.sort();
    undeclared.dedup();
    let stored = statements.len();
    let retracted = store.republish(
        url,
        statements
            .into_iter()
            .map(|s| (s.subject, s.predicate, s.object)),
    );
    PublishReport { stored, retracted, undeclared_tags: undeclared, issues }
}

#[cfg(test)]
mod tests {
    use super::*;
    use revere_storage::Value;

    fn page(phone: &str) -> String {
        format!(
            r#"<body mg:about="person/ada">
                 <span mg:tag="person.name">Ada Lovelace</span>
                 <span mg:tag="person.phone">{phone}</span>
               </body>"#
        )
    }

    #[test]
    fn publish_stores_statements_immediately() {
        let mut m = Mangrove::new(MangroveSchema::department());
        let report = m.publish("http://u/ada", &page("555-0001"));
        assert_eq!(report.stored, 2);
        assert!(report.undeclared_tags.is_empty());
        // Instantly visible.
        let phones = m
            .store
            .query((Some("person/ada"), Some("person.phone"), None));
        assert_eq!(phones.len(), 1);
        assert_eq!(*phones[0].object, Value::str("555-0001"));
    }

    #[test]
    fn republish_replaces_old_statements() {
        let mut m = Mangrove::new(MangroveSchema::department());
        assert_eq!(m.publish("http://u/ada", &page("555-0001")).retracted, 0);
        assert_eq!(m.publish("http://u/ada", &page("555-0002")).retracted, 2);
        let phones = m
            .store
            .query((Some("person/ada"), Some("person.phone"), None));
        assert_eq!(phones.len(), 1);
        assert_eq!(*phones[0].object, Value::str("555-0002"));
    }

    #[test]
    fn undeclared_tags_reported_but_stored() {
        let mut m = Mangrove::new(MangroveSchema::department());
        let html = r#"<body mg:about="s"><span mg:tag="weird.tag">v</span></body>"#;
        let report = m.publish("http://u/x", html);
        assert_eq!(report.undeclared_tags, vec!["weird.tag".to_string()]);
        assert_eq!(report.stored, 1);
        assert_eq!(m.store.len(), 1);
    }

    #[test]
    fn conflicting_sources_coexist() {
        // No integrity constraints: two pages may disagree.
        let mut m = Mangrove::new(MangroveSchema::department());
        m.publish("http://u/ada", &page("555-0001"));
        m.publish(
            "http://u/directory",
            r#"<body><div mg:about="person/ada"><span mg:tag="person.phone">555-9999</span></div></body>"#,
        );
        let phones = m
            .store
            .query((Some("person/ada"), Some("person.phone"), None));
        assert_eq!(phones.len(), 2);
    }

    #[test]
    fn issues_propagate() {
        let mut m = Mangrove::new(MangroveSchema::department());
        let report = m.publish("http://u/x", r#"<p mg:tag="person.name">Ada</p>"#);
        assert_eq!(report.stored, 0);
        assert_eq!(report.issues.len(), 1);
    }
}
