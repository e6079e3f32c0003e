//! Dynamic page generation (§2.3).
//!
//! "MANGROVE also enables some web pages that are currently compiled by
//! hand, such as department-wide course summaries, to be dynamically
//! generated in the spirit of systems like Strudel \[17\]."
//!
//! [`render_course_summary`] and [`render_people_summary`] compile a
//! department-wide page from the triple store. The generated HTML is
//! itself annotated with `mg:` attributes, so the output closes the loop:
//! a generated summary can be published back into (another) MANGROVE
//! installation and re-extracted losslessly.

use crate::clean::{resolve_among, CleaningPolicy};
use revere_storage::TripleStore;
use revere_xml::writer::{escape_attr, escape_text};
use std::fmt::Write as _;

/// Render the department-wide course summary page. One section per
/// course subject, each fact both displayed and annotated.
pub fn render_course_summary(store: &TripleStore, policy: &CleaningPolicy) -> String {
    let mut html = String::from(
        "<html><head><title>Department course summary</title></head><body>\n\
         <h1>Department course summary</h1>\n\
         <p>Generated from published annotations.</p>\n",
    );
    let fields = [
        ("course.title", "Title"),
        ("course.instructor", "Instructor"),
        ("course.time", "Time"),
        ("course.room", "Room"),
    ];
    store.records("course.title", &fields.map(|(pred, _)| pred), |subject, groups| {
        let _ = writeln!(html, "<div mg:about=\"{}\">", escape_attr(subject));
        for ((pred, label), group) in fields.iter().zip(groups) {
            if let Some(v) = resolve_among(subject, group, policy).next() {
                let _ = writeln!(
                    html,
                    "  <p>{label}: <span mg:tag=\"{}\">{}</span></p>",
                    escape_attr(pred),
                    escape_text(&v.to_string())
                );
            }
        }
        html.push_str("</div>\n");
    });
    html.push_str("</body></html>\n");
    html
}

/// Render the department "people" page (name / email / office).
pub fn render_people_summary(store: &TripleStore, policy: &CleaningPolicy) -> String {
    let mut html = String::from(
        "<html><head><title>People</title></head><body>\n<h1>People</h1>\n<ul>\n",
    );
    let fields = [("person.name", ""), ("person.email", " — "), ("person.office", ", ")];
    store.records("person.name", &fields.map(|(pred, _)| pred), |subject, groups| {
        let _ = write!(html, "<li mg:about=\"{}\">", escape_attr(subject));
        for ((pred, sep), group) in fields.iter().zip(groups) {
            if let Some(v) = resolve_among(subject, group, policy).next() {
                let _ = write!(
                    html,
                    "{sep}<span mg:tag=\"{}\">{}</span>",
                    escape_attr(pred),
                    escape_text(&v.to_string())
                );
            }
        }
        html.push_str("</li>\n");
    });
    html.push_str("</ul>\n</body></html>\n");
    html
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::annotation::extract_statements;
    use crate::publish::Mangrove;
    use crate::schema::MangroveSchema;
    use revere_storage::Value;

    fn loaded() -> Mangrove {
        let mut m = Mangrove::new(MangroveSchema::department());
        m.publish(
            "http://u/db",
            r#"<body mg:about="course/db">
                 <h1 mg:tag="course.title">Databases</h1>
                 <span mg:tag="course.instructor">Ada Lovelace</span>
                 <span mg:tag="course.time">MWF 10:30</span>
               </body>"#,
        );
        m.publish(
            "http://u/~ada",
            r#"<body mg:about="person/ada">
                 <span mg:tag="person.name">Ada Lovelace</span>
                 <span mg:tag="person.email">ada@u.edu</span>
               </body>"#,
        );
        m
    }

    #[test]
    fn course_summary_contains_facts_and_annotations() {
        let m = loaded();
        let html = render_course_summary(&m.store, &CleaningPolicy::Freshest);
        assert!(html.contains("Databases"));
        assert!(html.contains("mg:about=\"course/db\""));
        assert!(html.contains("mg:tag=\"course.time\""));
    }

    #[test]
    fn generated_page_republishes_losslessly() {
        // The Strudel loop: generate → publish elsewhere → same facts.
        let m = loaded();
        let html = render_course_summary(&m.store, &CleaningPolicy::Freshest);
        let (stmts, issues) = extract_statements(&html);
        assert!(issues.is_empty(), "{issues:?}");
        assert!(stmts
            .iter()
            .any(|s| s.subject == "course/db"
                && s.predicate == "course.title"
                && s.object == Value::str("Databases")));
        assert!(stmts
            .iter()
            .any(|s| s.predicate == "course.instructor"));
        // Publish into a second installation; the calendar renders there.
        let mut mirror = Mangrove::new(MangroveSchema::department());
        mirror.publish("http://mirror/summary", &html);
        let cal = crate::apps::CourseCalendar::default().render(&mirror.store);
        assert_eq!(cal.len(), 1);
    }

    #[test]
    fn people_summary_lists_everyone() {
        let m = loaded();
        let html = render_people_summary(&m.store, &CleaningPolicy::Freshest);
        assert!(html.contains("ada@u.edu"));
        let (stmts, issues) = extract_statements(&html);
        assert!(issues.is_empty());
        assert_eq!(stmts.iter().filter(|s| s.subject == "person/ada").count(), 2);
    }

    #[test]
    fn values_are_escaped() {
        let mut m = Mangrove::new(MangroveSchema::department());
        m.store
            .insert("course/x", "course.title", "Logic <& > Proofs", "src");
        let html = render_course_summary(&m.store, &CleaningPolicy::Freshest);
        assert!(html.contains("Logic &lt;&amp; &gt; Proofs"));
        let (stmts, _) = extract_statements(&html);
        assert_eq!(stmts[0].object, Value::str("Logic <& > Proofs"));
    }

    #[test]
    fn subjects_with_markup_round_trip_through_both_summaries() {
        let subjects = ["course/a\"b", "course/<x>", "course/a&amp;b", "course/&lt;y"];
        let mut m = Mangrove::new(MangroveSchema::department());
        for s in subjects {
            m.store.insert(s, "course.title", "T", "src");
            m.store.insert(s, "person.name", "N", "src");
        }
        for html in [
            render_course_summary(&m.store, &CleaningPolicy::Freshest),
            render_people_summary(&m.store, &CleaningPolicy::Freshest),
        ] {
            let (stmts, issues) = extract_statements(&html);
            assert!(issues.is_empty(), "{issues:?}");
            let mut about: Vec<&str> = stmts.iter().map(|s| s.subject.as_str()).collect();
            about.dedup();
            let mut expect = subjects.to_vec();
            expect.sort();
            assert_eq!(about, expect, "{html}");
        }
    }

    #[test]
    fn empty_store_renders_empty_summary() {
        let store = TripleStore::new();
        let html = render_course_summary(&store, &CleaningPolicy::Freshest);
        let (stmts, _) = extract_statements(&html);
        assert!(stmts.is_empty());
    }
}
