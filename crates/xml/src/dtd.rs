//! DTD-style schemas in the compact notation of the paper's Figure 3.
//!
//! Figure 3 writes peer schemas as, e.g.:
//!
//! ```text
//! Element schedule(college*)
//! Element college(name, dept*)
//! Element dept(name, course*)
//! Element course(title, size)
//! ```
//!
//! A [`Dtd`] is a set of such element declarations. An element whose name is
//! declared but has no children declaration (or declares `#PCDATA`) holds
//! text. [`Dtd::validate`] checks a [`Document`] against the content models.

use crate::error::XmlError;
use crate::tree::{Document, NodeId, NodeKind};
use std::collections::BTreeMap;
use std::fmt;

/// How many times a particle may repeat, mirroring DTD occurrence markers.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Occurrence {
    /// Exactly once (no marker).
    One,
    /// Zero or one (`?`).
    Optional,
    /// Zero or more (`*`).
    Star,
    /// One or more (`+`).
    Plus,
}

impl Occurrence {
    fn accepts(self, n: usize) -> bool {
        match self {
            Occurrence::One => n == 1,
            Occurrence::Optional => n <= 1,
            Occurrence::Star => true,
            Occurrence::Plus => n >= 1,
        }
    }

    fn marker(self) -> &'static str {
        match self {
            Occurrence::One => "",
            Occurrence::Optional => "?",
            Occurrence::Star => "*",
            Occurrence::Plus => "+",
        }
    }
}

/// One child slot in a content model: an element name plus its occurrence.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Particle {
    /// Child element name.
    pub name: String,
    /// How many times it may repeat.
    pub occurrence: Occurrence,
}

/// What an element may contain.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum ContentModel {
    /// Character data only (`#PCDATA`, or an empty declaration).
    Text,
    /// A sequence of named children. Validation is order-insensitive within
    /// the sequence (the paper's examples never rely on sibling order, and
    /// generated peer schemas reorder fields freely) but cardinalities are
    /// enforced, and no undeclared child may appear.
    Children(Vec<Particle>),
}

/// A set of element declarations, keyed by element name.
#[derive(Debug, Clone, Default, PartialEq, Eq)]
pub struct Dtd {
    elements: BTreeMap<String, ContentModel>,
    root: Option<String>,
}

impl Dtd {
    /// Create an empty DTD.
    pub fn new() -> Self {
        Self::default()
    }

    /// Declare an element. The first declaration names the document root.
    pub fn declare(&mut self, name: impl Into<String>, model: ContentModel) -> &mut Self {
        let name = name.into();
        if self.root.is_none() {
            self.root = Some(name.clone());
        }
        self.elements.insert(name, model);
        self
    }

    /// The root element name (the first declared element), if any.
    pub fn root(&self) -> Option<&str> {
        self.root.as_deref()
    }

    /// Look up an element's content model.
    pub fn model(&self, name: &str) -> Option<&ContentModel> {
        self.elements.get(name)
    }

    /// Number of declared elements.
    pub fn len(&self) -> usize {
        self.elements.len()
    }

    /// True when no element has been declared.
    pub fn is_empty(&self) -> bool {
        self.elements.is_empty()
    }

    /// Parse the Figure 3 notation: one `Element name(child, child*)`
    /// declaration per line. Blank lines and `#` comments are ignored.
    /// `Element name(#PCDATA)` and `Element name()` both declare text
    /// content.
    pub fn parse(src: &str) -> Result<Dtd, XmlError> {
        let mut dtd = Dtd::new();
        for (lineno, raw) in src.lines().enumerate() {
            let line = raw.trim();
            if line.is_empty() || line.starts_with('#') {
                continue;
            }
            let rest = line.strip_prefix("Element").ok_or_else(|| XmlError::BadDtd {
                message: format!("line {}: expected 'Element', got {line:?}", lineno + 1),
            })?;
            let rest = rest.trim_start();
            let open = rest.find('(').ok_or_else(|| XmlError::BadDtd {
                message: format!("line {}: missing '(' in {line:?}", lineno + 1),
            })?;
            let name = rest[..open].trim();
            if name.is_empty() {
                return Err(XmlError::BadDtd {
                    message: format!("line {}: empty element name", lineno + 1),
                });
            }
            let close = rest.rfind(')').ok_or_else(|| XmlError::BadDtd {
                message: format!("line {}: missing ')' in {line:?}", lineno + 1),
            })?;
            let inner = rest[open + 1..close].trim();
            let model = if inner.is_empty() || inner == "#PCDATA" {
                ContentModel::Text
            } else {
                let mut particles = Vec::new();
                for part in inner.split(',') {
                    let part = part.trim();
                    let (name, occurrence) = match part.as_bytes().last() {
                        Some(b'*') => (&part[..part.len() - 1], Occurrence::Star),
                        Some(b'+') => (&part[..part.len() - 1], Occurrence::Plus),
                        Some(b'?') => (&part[..part.len() - 1], Occurrence::Optional),
                        _ => (part, Occurrence::One),
                    };
                    if name.is_empty() {
                        return Err(XmlError::BadDtd {
                            message: format!("line {}: empty particle in {line:?}", lineno + 1),
                        });
                    }
                    particles.push(Particle {
                        name: name.to_string(),
                        occurrence,
                    });
                }
                ContentModel::Children(particles)
            };
            dtd.declare(name, model);
        }
        if dtd.is_empty() {
            return Err(XmlError::BadDtd {
                message: "no element declarations found".into(),
            });
        }
        Ok(dtd)
    }

    /// Validate a document against this DTD.
    ///
    /// Checks: the root element is the DTD's root; every element is
    /// declared; text-model elements contain no child elements; child-model
    /// elements contain only declared children within their cardinalities
    /// and no non-whitespace text.
    pub fn validate(&self, doc: &Document) -> Result<(), XmlError> {
        let root_name = doc.name(doc.root()).unwrap_or_default();
        if let Some(expected) = self.root() {
            if root_name != expected {
                return Err(XmlError::Invalid {
                    element: root_name.to_string(),
                    message: format!("root must be <{expected}>"),
                });
            }
        }
        self.validate_node(doc, doc.root())
    }

    fn validate_node(&self, doc: &Document, id: NodeId) -> Result<(), XmlError> {
        let name = doc.name(id).expect("validate_node called on element");
        let model = self.model(name).ok_or_else(|| XmlError::Invalid {
            element: name.to_string(),
            message: "element not declared in DTD".into(),
        })?;
        match model {
            ContentModel::Text => {
                if doc.child_elements(id).next().is_some() {
                    return Err(XmlError::Invalid {
                        element: name.to_string(),
                        message: "text-only element contains child elements".into(),
                    });
                }
                Ok(())
            }
            ContentModel::Children(particles) => {
                for &c in doc.children(id) {
                    if let NodeKind::Text(t) = &doc.node(c).kind {
                        if !t.trim().is_empty() {
                            return Err(XmlError::Invalid {
                                element: name.to_string(),
                                message: format!("unexpected text {:?}", t.trim()),
                            });
                        }
                    }
                }
                let mut counts: BTreeMap<&str, usize> = BTreeMap::new();
                for c in doc.child_elements(id) {
                    let cname = doc.name(c).expect("child element");
                    *counts.entry(cname).or_default() += 1;
                }
                for cname in counts.keys() {
                    if !particles.iter().any(|p| p.name == **cname) {
                        return Err(XmlError::Invalid {
                            element: name.to_string(),
                            message: format!("undeclared child <{cname}>"),
                        });
                    }
                }
                for p in particles {
                    let n = counts.get(p.name.as_str()).copied().unwrap_or(0);
                    if !p.occurrence.accepts(n) {
                        return Err(XmlError::Invalid {
                            element: name.to_string(),
                            message: format!(
                                "child <{}> occurs {n} times, allowed {}{}",
                                p.name,
                                p.name,
                                p.occurrence.marker()
                            ),
                        });
                    }
                }
                for c in doc.child_elements(id) {
                    self.validate_node(doc, c)?;
                }
                Ok(())
            }
        }
    }
}

impl fmt::Display for Dtd {
    /// Renders back in the Figure 3 notation, root declaration first.
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        let mut names: Vec<&str> = self.elements.keys().map(String::as_str).collect();
        if let Some(root) = self.root() {
            names.retain(|n| *n != root);
            names.insert(0, root);
        }
        for name in names {
            match &self.elements[name] {
                ContentModel::Text => writeln!(f, "Element {name}(#PCDATA)")?,
                ContentModel::Children(ps) => {
                    let inner: Vec<String> = ps
                        .iter()
                        .map(|p| format!("{}{}", p.name, p.occurrence.marker()))
                        .collect();
                    writeln!(f, "Element {name}({})", inner.join(", "))?;
                }
            }
        }
        Ok(())
    }
}

/// The Berkeley peer schema of Figure 3, verbatim.
pub fn berkeley_schema() -> Dtd {
    Dtd::parse(
        "Element schedule(college*)\n\
         Element college(name, dept*)\n\
         Element dept(name, course*)\n\
         Element course(title, size)\n\
         Element name(#PCDATA)\n\
         Element title(#PCDATA)\n\
         Element size(#PCDATA)",
    )
    .expect("static schema parses")
}

/// The MIT peer schema of Figure 3, verbatim.
pub fn mit_schema() -> Dtd {
    Dtd::parse(
        "Element catalog(course*)\n\
         Element course(name, subject*)\n\
         Element subject(title, enrollment)\n\
         Element name(#PCDATA)\n\
         Element title(#PCDATA)\n\
         Element enrollment(#PCDATA)",
    )
    .expect("static schema parses")
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::parser::parse;

    #[test]
    fn parses_figure3_notation() {
        let dtd = berkeley_schema();
        assert_eq!(dtd.root(), Some("schedule"));
        assert_eq!(
            dtd.model("college"),
            Some(&ContentModel::Children(vec![
                Particle { name: "name".into(), occurrence: Occurrence::One },
                Particle { name: "dept".into(), occurrence: Occurrence::Star },
            ]))
        );
        assert_eq!(dtd.model("title"), Some(&ContentModel::Text));
    }

    #[test]
    fn display_roundtrips() {
        let dtd = mit_schema();
        let again = Dtd::parse(&dtd.to_string()).unwrap();
        assert_eq!(dtd, again);
    }

    #[test]
    fn validates_conforming_document() {
        let doc = parse(
            "<schedule><college><name>Berkeley</name>\
             <dept><name>History</name>\
             <course><title>Ancient Greece</title><size>40</size></course>\
             </dept></college></schedule>",
        )
        .unwrap();
        berkeley_schema().validate(&doc).unwrap();
    }

    #[test]
    fn rejects_wrong_root() {
        let doc = parse("<catalog/>").unwrap();
        assert!(matches!(
            berkeley_schema().validate(&doc).unwrap_err(),
            XmlError::Invalid { .. }
        ));
    }

    #[test]
    fn rejects_missing_required_child() {
        // course requires both title and size.
        let doc = parse(
            "<schedule><college><name>B</name><dept><name>H</name>\
             <course><title>X</title></course></dept></college></schedule>",
        )
        .unwrap();
        let err = berkeley_schema().validate(&doc).unwrap_err();
        assert!(err.to_string().contains("size"), "{err}");
    }

    #[test]
    fn rejects_undeclared_child() {
        let doc = parse("<schedule><bogus/></schedule>").unwrap();
        let err = berkeley_schema().validate(&doc).unwrap_err();
        assert!(err.to_string().contains("bogus"), "{err}");
    }

    #[test]
    fn rejects_text_in_element_content() {
        let doc = parse("<schedule>stray</schedule>").unwrap();
        assert!(berkeley_schema().validate(&doc).is_err());
    }

    #[test]
    fn star_allows_zero() {
        let doc = parse("<schedule/>").unwrap();
        berkeley_schema().validate(&doc).unwrap();
    }

    #[test]
    fn plus_requires_one() {
        let dtd = Dtd::parse("Element a(b+)\nElement b(#PCDATA)").unwrap();
        assert!(dtd.validate(&parse("<a/>").unwrap()).is_err());
        dtd.validate(&parse("<a><b>x</b></a>").unwrap()).unwrap();
    }

    #[test]
    fn optional_rejects_two() {
        let dtd = Dtd::parse("Element a(b?)\nElement b(#PCDATA)").unwrap();
        assert!(dtd.validate(&parse("<a><b/><b/></a>").unwrap()).is_err());
    }

    #[test]
    fn bad_dtd_errors() {
        assert!(Dtd::parse("Elem a(b)").is_err());
        assert!(Dtd::parse("Element a b)").is_err());
        assert!(Dtd::parse("").is_err());
    }
}
