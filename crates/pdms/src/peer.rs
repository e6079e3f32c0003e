//! Peers.
//!
//! §3.1: "A peer can provide any or all of three different types of
//! content: (1) new XML data (which we refer to as *stored relations* ...),
//! (2) a new logical schema that others can query or map to (... a *peer
//! schema*), and (3) new mappings." A [`Peer`] holds the first two; the
//! mappings live in the network's shared mapping graph.
//!
//! Relation names are peer-qualified throughout the PDMS: peer `Berkeley`'s
//! relation `course` is addressed as `Berkeley.course`.

use revere_storage::{Catalog, DbSchema, RelSchema, Relation, SharedCatalog, Value};

/// One Piazza peer.
#[derive(Debug, Clone)]
pub struct Peer {
    /// Peer name (`Berkeley`).
    pub name: String,
    /// Stored relations, registered under *qualified* names.
    pub storage: SharedCatalog,
    /// The peer's logical schema (unqualified relation names).
    pub schema: DbSchema,
}

/// Qualify a relation name with its peer: `qualified("Berkeley", "course")
/// == "Berkeley.course"`.
pub fn qualified(peer: &str, relation: &str) -> String {
    format!("{peer}.{relation}")
}

/// Split a qualified name into `(peer, relation)`; `None` when unqualified.
pub fn split_qualified(name: &str) -> Option<(&str, &str)> {
    name.split_once('.')
}

impl Peer {
    /// Create a peer with no relations.
    pub fn new(name: impl Into<String>) -> Self {
        let name = name.into();
        Peer {
            schema: DbSchema::new(name.clone()),
            name,
            storage: SharedCatalog::new(Catalog::new()),
        }
    }

    /// Add a stored relation. The relation's schema name may be given
    /// unqualified; it is stored qualified.
    pub fn add_relation(&mut self, rel: Relation) {
        let mut rel = rel;
        let unqualified = rel.schema.name.clone();
        if split_qualified(&unqualified).is_none() {
            rel.schema.name = qualified(&self.name, &unqualified);
        }
        self.schema.relations.push(RelSchema {
            name: unqualified,
            attrs: rel.schema.attrs.clone(),
        });
        self.storage.write(|c| c.register(rel));
    }

    /// Insert a row into a stored relation (unqualified name).
    pub fn insert(&mut self, relation: &str, row: Vec<Value>) -> bool {
        let q = qualified(&self.name, relation);
        self.storage.write(|c| c.insert(&q, row))
    }

    /// Clone out one stored relation by qualified name — what a remote
    /// peer ships back when the overlay asks it for data.
    pub fn snapshot(&self, qualified: &str) -> Option<Relation> {
        self.storage.snapshot(qualified)
    }

    /// True when the peer currently stores `qualified` — the advertised
    /// schema the overlay consults before spending messages on a fetch.
    pub fn stores(&self, qualified: &str) -> bool {
        self.storage.read(|c| c.get(qualified).is_some())
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn qualification_round_trips() {
        assert_eq!(qualified("Berkeley", "course"), "Berkeley.course");
        assert_eq!(split_qualified("Berkeley.course"), Some(("Berkeley", "course")));
        assert_eq!(split_qualified("unqualified"), None);
    }

    #[test]
    fn add_relation_qualifies_storage_keeps_schema_unqualified() {
        let mut p = Peer::new("MIT");
        p.add_relation(Relation::new(RelSchema::text("subject", &["title", "enrollment"])));
        assert!(p.stores("MIT.subject"));
        assert!(!p.stores("subject"));
        assert!(p.schema.relation("subject").is_some());
    }

    #[test]
    fn insert_goes_to_qualified_relation() {
        let mut p = Peer::new("MIT");
        p.add_relation(Relation::new(RelSchema::text("subject", &["title"])));
        assert!(p.insert("subject", vec![Value::str("DB")]));
        assert!(!p.insert("nope", vec![Value::str("x")]));
        assert_eq!(p.snapshot("MIT.subject").unwrap().len(), 1);
    }

    #[test]
    fn stores_and_snapshot_agree() {
        let mut p = Peer::new("MIT");
        p.add_relation(Relation::new(RelSchema::text("subject", &["title"])));
        assert!(p.stores("MIT.subject"));
        assert!(p.snapshot("MIT.subject").is_some());
        assert!(!p.stores("MIT.ghost"));
        assert!(p.snapshot("MIT.ghost").is_none());
        // Unqualified names are not storage keys.
        assert!(!p.stores("subject"));
    }

    #[test]
    fn logical_peer_has_schema_but_no_storage() {
        let mut p = Peer::new("Mediator");
        p.schema.relations.push(RelSchema::text("course", &["title"]));
        assert!(!p.stores("Mediator.course"));
        assert!(p.schema.relation("course").is_some());
    }
}
