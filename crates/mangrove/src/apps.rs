//! Instant-gratification applications (§2.2).
//!
//! "Instant gratification is provided by building a set of applications
//! over MANGROVE that immediately show the user the value of structuring
//! her data. For example, an online department schedule is created based
//! on the annotations department members add to course home pages ...
//! Other applications ... include a departmental paper database, a 'Who's
//! Who', and an annotation-enabled search engine."
//!
//! Each application is a *view* over the triple store, recomputed on
//! demand — so a publish is visible on the very next render, which is the
//! E4 experiment's subject. A render is one walk of the store
//! ([`TripleStore::records`]) with each cell [`resolve_among`] its
//! `(subject, predicate)` group, under the [`CleaningPolicy`] each
//! application chooses — §2.3's point that integrity is an application
//! decision.

use crate::clean::{resolve_among, CleaningPolicy};
use revere_storage::{RelSchema, Relation, Triple, TripleStore, Value};
use std::fmt::Write as _;

/// How one cell is made of its `(subject, predicate)` group.
type Cell = fn(&str, &[Triple], &CleaningPolicy) -> Value;

/// The first value `policy` keeps of one `(subject, predicate)` group, or
/// `Null`.
fn first(subject: &str, group: &[Triple], policy: &CleaningPolicy) -> Value {
    resolve_among(subject, group, policy).next().cloned().unwrap_or(Value::Null)
}

/// Every value `policy` keeps of one group, joined with `; ` into one
/// string (a lone string value is that cell), or `Null`.
fn joined(subject: &str, group: &[Triple], policy: &CleaningPolicy) -> Value {
    let mut values = resolve_among(subject, group, policy).peekable();
    let Some(head) = values.next() else {
        return Value::Null;
    };
    if values.peek().is_none() && matches!(head, Value::Str(_)) {
        return head.clone();
    }
    let mut text = head.to_string();
    for v in values {
        let _ = write!(text, "; {v}");
    }
    Value::str(text)
}

/// One row per subject having `key`, in name order: the subject, then per
/// `(predicate, cell, policy)` column the cell made of that group.
fn render_rows(
    store: &TripleStore,
    schema: RelSchema,
    key: &str,
    columns: &[(&str, Cell, &CleaningPolicy)],
) -> Relation {
    let predicates: Vec<&str> = columns.iter().map(|&(p, _, _)| p).collect();
    let mut rows = Vec::new();
    store.records(key, &predicates, |subject, groups| {
        let mut row = Vec::with_capacity(columns.len() + 1);
        row.push(Value::Str(subject.clone()));
        let cells = columns.iter().zip(groups);
        row.extend(cells.map(|(&(_, cell, policy), group)| cell(subject, group, policy)));
        rows.push(row);
    });
    Relation::with_rows(schema, rows)
}

/// The departmental course calendar: one row per course with title, time
/// and room. Uses [`CleaningPolicy::Freshest`] — a schedule should show
/// the latest published time.
#[derive(Debug, Clone)]
pub struct CourseCalendar {
    /// Conflict policy (freshest by default).
    pub policy: CleaningPolicy,
}

impl Default for CourseCalendar {
    fn default() -> Self {
        CourseCalendar { policy: CleaningPolicy::Freshest }
    }
}

impl CourseCalendar {
    /// Render the calendar from the store's current contents.
    pub fn render(&self, store: &TripleStore) -> Relation {
        let p = &self.policy;
        render_rows(
            store,
            RelSchema::text("calendar", &["course", "title", "time", "room"]),
            "course.title",
            &[("course.title", first, p), ("course.time", first, p), ("course.room", first, p)],
        )
    }
}

/// The "Who's Who": people with name, email and office. Multi-valued
/// fields tolerated ([`CleaningPolicy::TakeAll`], joined with `;`).
#[derive(Debug, Clone)]
pub struct WhosWho {
    /// Conflict policy (take-all by default).
    pub policy: CleaningPolicy,
}

impl Default for WhosWho {
    fn default() -> Self {
        WhosWho { policy: CleaningPolicy::TakeAll }
    }
}

impl WhosWho {
    /// Render the listing.
    pub fn render(&self, store: &TripleStore) -> Relation {
        let p = &self.policy;
        render_rows(
            store,
            RelSchema::text("whos_who", &["person", "name", "email", "office"]),
            "person.name",
            &[
                ("person.name", joined, p),
                ("person.email", joined, p),
                ("person.office", joined, p),
            ],
        )
    }
}

/// The faculty phone directory — the paper's worked example of
/// provenance-based cleaning: "the application can be instructed to
/// extract a phone number from the faculty's web space, rather than
/// anywhere on the web."
#[derive(Debug, Clone)]
pub struct PhoneDirectory {
    /// Conflict policy (prefer-own-source by default).
    pub policy: CleaningPolicy,
}

impl Default for PhoneDirectory {
    fn default() -> Self {
        PhoneDirectory { policy: CleaningPolicy::PreferOwnSource }
    }
}

impl PhoneDirectory {
    /// Render the directory: one phone per person under the policy.
    pub fn render(&self, store: &TripleStore) -> Relation {
        render_rows(
            store,
            RelSchema::text("phone_directory", &["person", "name", "phone"]),
            "person.phone",
            &[
                ("person.name", first, &CleaningPolicy::Freshest),
                ("person.phone", first, &self.policy),
            ],
        )
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::publish::Mangrove;
    use crate::schema::MangroveSchema;

    fn installation() -> Mangrove {
        let mut m = Mangrove::new(MangroveSchema::department());
        m.publish(
            "http://univ.edu/courses/db.html",
            r#"<body mg:about="course/db">
                 <h1 mg:tag="course.title">Databases</h1>
                 <span mg:tag="course.time">MWF 10:30</span>
                 <span mg:tag="course.room">Sieg 134</span>
               </body>"#,
        );
        m.publish(
            "http://univ.edu/~ada/",
            r#"<body mg:about="person/ada">
                 <span mg:tag="person.name">Ada Lovelace</span>
                 <span mg:tag="person.phone">555-0001</span>
                 <span mg:tag="person.email">ada@univ.edu</span>
                 <span mg:tag="person.office">Sieg 301</span>
               </body>"#,
        );
        m
    }

    #[test]
    fn calendar_lists_courses() {
        let m = installation();
        let cal = CourseCalendar::default().render(&m.store);
        assert_eq!(cal.len(), 1);
        assert_eq!(cal.rows()[0][1], Value::str("Databases"));
        assert_eq!(cal.rows()[0][2], Value::str("MWF 10:30"));
    }

    #[test]
    fn instant_gratification_publish_to_visible() {
        let mut m = installation();
        // A new course page appears...
        m.publish(
            "http://univ.edu/courses/os.html",
            r#"<body mg:about="course/os"><h1 mg:tag="course.title">Operating Systems</h1></body>"#,
        );
        // ...and the very next render shows it.
        let cal = CourseCalendar::default().render(&m.store);
        assert_eq!(cal.len(), 2);
    }

    #[test]
    fn republish_updates_calendar() {
        let mut m = installation();
        m.publish(
            "http://univ.edu/courses/db.html",
            r#"<body mg:about="course/db">
                 <h1 mg:tag="course.title">Databases</h1>
                 <span mg:tag="course.time">TTh 9:00</span>
               </body>"#,
        );
        let cal = CourseCalendar::default().render(&m.store);
        assert_eq!(cal.rows()[0][2], Value::str("TTh 9:00"));
        // Room was removed from the page; it disappears from the view.
        assert_eq!(cal.rows()[0][3], Value::Null);
    }

    #[test]
    fn whos_who_joins_multiple_values() {
        let mut m = installation();
        m.publish(
            "http://univ.edu/group.html",
            r#"<body><div mg:about="person/ada"><span mg:tag="person.email">lovelace@acm.org</span></div></body>"#,
        );
        let ww = WhosWho::default().render(&m.store);
        let email = ww.rows()[0][2].to_string();
        assert!(email.contains("ada@univ.edu") && email.contains("lovelace@acm.org"));
    }

    #[test]
    fn phone_directory_resists_dirty_directories() {
        let mut m = installation();
        // Two stale directories disagree with Ada's own page.
        for d in ["dir1", "dir2"] {
            m.publish(
                &format!("http://univ.edu/{d}.html"),
                r#"<body><div mg:about="person/ada"><span mg:tag="person.phone">555-9999</span></div></body>"#,
            );
        }
        let dir = PhoneDirectory::default().render(&m.store);
        assert_eq!(dir.len(), 1);
        assert_eq!(dir.rows()[0][2], Value::str("555-0001"), "own page must win");
        // A majority-policy directory would have been fooled.
        let fooled = PhoneDirectory { policy: CleaningPolicy::Majority }.render(&m.store);
        assert_eq!(fooled.rows()[0][2], Value::str("555-9999"));
    }

    #[test]
    fn phone_directory_own_space_is_not_a_url_substring() {
        let mut m = Mangrove::new(MangroveSchema::department());
        m.publish(
            "http://univ.edu/~p100/index.html",
            r#"<body mg:about="person/p100">
                 <span mg:tag="person.name">Pat Hundred</span>
                 <span mg:tag="person.phone">555-0100</span>
               </body>"#,
        );
        // Published later, from somebody else's web space: "p100" is a
        // substring of the URL but p100 does not own it.
        m.publish(
            "http://univ.edu/~p1000/index.html",
            r#"<body mg:about="person/p1000">
                 <span mg:tag="person.phone">555-1000</span>
                 <div mg:about="person/p100"><span mg:tag="person.phone">555-6666</span></div>
               </body>"#,
        );
        let dir = PhoneDirectory::default().render(&m.store);
        let phone_of = |who: &str| {
            let row = dir.iter().find(|r| r[0] == Value::str(who)).expect("listed");
            row[2].clone()
        };
        assert_eq!(phone_of("person/p100"), Value::str("555-0100"));
        assert_eq!(phone_of("person/p1000"), Value::str("555-1000"));
    }

    #[test]
    fn empty_store_renders_empty_views() {
        let store = TripleStore::new();
        assert!(CourseCalendar::default().render(&store).is_empty());
        assert!(WhosWho::default().render(&store).is_empty());
        assert!(PhoneDirectory::default().render(&store).is_empty());
    }
}
