//! `ingest_site`: the U-WORLD → S-WORLD path.
//!
//! A generated department site is published through `Mangrove::publish` in
//! set-up; then, round after round, a rotating slice of its pages is republished
//! in a revised variant, the instant-gratification applications are
//! rendered, the course calendar is loaded as peer `UW`'s `course`
//! relation, and peer `MSU` answers a query over the `UW → MSU` mapping.
//! The user-visible latency is "instant gratification" carried through to
//! Piazza: from the last page of a revision batch being published to the
//! revised value appearing in an answer at the other peer.

use super::IngestScale;
use crate::metrics::Tally;
use crate::surface::{
    extract_from_doc, mapping, parse_html, query_str, CourseCalendar, DirtSpec, Mangrove,
    MangroveSchema, PageGenerator, PdmsNetwork, Peer, RelSchema, Relation, TripleStore, Value,
    WhosWho,
};
use crate::trace::Recorder;
use crate::System;
use std::hint::black_box;
use std::time::Instant;

const COURSE_COLUMNS: [&str; 4] = ["id", "title", "time", "room"];
const MSU_QUERY: &str = "q(C, N) :- MSU.offering(C, N, S, V)";

pub struct IngestSite {
    scale: IngestScale,
    pages: Vec<Page>,
    /// Indices into `pages`: course pages, and all the others.
    courses: Vec<usize>,
    others: Vec<usize>,
    mangrove: Mangrove,
    net: PdmsNetwork,
    rounds: usize,
    /// Sum of `PublishReport::stored` over the live version of each page.
    stored: usize,
    /// Twin of the store, for staging `TripleStore::republish`.
    shadow: Option<TripleStore>,
    counts: Counts,
}

struct Page {
    url: String,
    /// The page as generated, and with one annotated value rewritten.
    html: [String; 2],
    /// For a course page: its subject id and its title in each variant.
    course: Option<(String, [String; 2])>,
    /// Which variant is published (flipped by every republish).
    live: usize,
    /// Statements the live version stored.
    stored: usize,
}

#[derive(Default)]
struct Counts {
    pages: usize,
    html_bytes: usize,
    statements: usize,
    compactions: usize,
}

impl System for IngestSite {
    type Scale = IngestScale;
    const TRACED_STEPS_PER_SECOND: f64 = 2.0;

    fn build(scale: &IngestScale, seed: u64, traced: bool) -> Result<Self, String> {
        let generated = PageGenerator {
            seed,
            courses: scale.courses,
            people: scale.people,
            dirt: DirtSpec {
                conflict_prob: 0.25,
                secondary_pages: 3,
            },
        }
        .generate();
        let mut pages = Vec::with_capacity(generated.len());
        for g in generated {
            // Rewrite the first fact the page states, so a republish
            // really replaces statements.
            let (subject, predicate, value) = g
                .truth
                .first()
                .or(g.lies.first())
                .ok_or("a generated page states no fact")?;
            let (old, new) = (value.to_string(), format!("{value} rev"));
            let revised = g.html.replacen(&format!(">{old}<"), &format!(">{new}<"), 1);
            if revised == g.html {
                return Err(format!(
                    "{}: value {old:?} is not an annotated text node",
                    g.url
                ));
            }
            let course = (predicate == "course.title").then(|| (subject.clone(), [old, new]));
            pages.push(Page {
                url: g.url,
                html: [g.html, revised],
                course,
                live: 0,
                stored: 0,
            });
        }
        let (courses, others): (Vec<usize>, Vec<usize>) =
            (0..pages.len()).partition(|&i| pages[i].course.is_some());
        if courses.is_empty() || scale.slice_pages < 2 {
            return Err("ingest_site needs a course page in every slice".into());
        }

        let mut uw = Peer::new("UW");
        uw.add_relation(Relation::new(RelSchema::text("course", &COURSE_COLUMNS)));
        let mut msu = Peer::new("MSU");
        let mut offering = Relation::new(RelSchema::text(
            "offering",
            &["code", "name", "slot", "venue"],
        ));
        offering.insert(
            ["offering/1", "Databases at MSU", "TTh 9:00", "Hall 2"]
                .map(Value::str)
                .to_vec(),
        );
        msu.add_relation(offering);
        let mut net = PdmsNetwork::new();
        net.add_peer(uw);
        net.add_peer(msu);
        net.try_add_mapping(mapping(
            "uw_msu",
            "UW",
            "MSU",
            "m(I, T, S, V) :- UW.course(I, T, S, V) ==> m(I, T, S, V) :- MSU.offering(I, T, S, V)",
        )?)
        .map_err(|e| e.to_string())?;

        let mut site = IngestSite {
            scale: scale.clone(),
            pages,
            courses,
            others,
            mangrove: Mangrove::new(MangroveSchema::department()),
            net,
            rounds: 0,
            stored: 0,
            shadow: traced.then(TripleStore::new),
            counts: Counts::default(),
        };
        // The site goes up once; the timed loop revises it.
        for p in 0..site.pages.len() {
            site.publish(p);
            if let Some(shadow) = site.shadow.as_mut() {
                let page = &site.pages[p];
                let statements = extract_from_doc(&parse_html(&page.html[page.live])).0;
                shadow.republish(
                    &page.url,
                    statements
                        .into_iter()
                        .map(|s| (s.subject, s.predicate, s.object)),
                );
            }
        }
        site.counts = Counts::default();
        Ok(site)
    }

    fn cycle_steps(&self) -> usize {
        self.scale.compact_every
    }

    /// Revision round `round`.
    fn step(&mut self, round: usize, tally: &mut Tally, mut rec: Option<&mut Recorder>) {
        // Course pages go last, so the batch ends on a page whose
        // revision must show in MSU's answer.
        let n_courses = (self.scale.slice_pages * self.courses.len() / self.pages.len()).max(1);
        let n_others = self.scale.slice_pages - n_courses;
        let take = |from: &[usize], n: usize| -> Vec<usize> {
            (0..n.min(from.len()))
                .map(|j| from[(round * n + j) % from.len()])
                .collect()
        };
        let mut slice = take(&self.others, n_others);
        slice.extend(take(&self.courses, n_courses));
        for &p in &slice {
            self.pages[p].live ^= 1;
        }
        let (&last, rest) = slice.split_last().expect("a slice is never empty");
        tally.attempted += 1;

        let t0 = Instant::now();
        for &p in rest {
            self.publish(p);
        }
        let t_last = Instant::now();
        self.publish(last);
        let t1 = Instant::now();
        if let (Some(rec), Some(shadow)) = (rec.as_deref_mut(), self.shadow.as_mut()) {
            let front = rec.front("mangrove.publish", t0, t1 - t0);
            let html = |&p: &usize| &self.pages[p].html[self.pages[p].live];
            let (docs, _) = rec.staged("mangrove.html.parse", front, || {
                slice
                    .iter()
                    .map(|p| parse_html(html(p)))
                    .collect::<Vec<_>>()
            });
            let (extracted, _) = rec.staged("mangrove.annotation.extract", front, || {
                docs.iter()
                    .map(|d| extract_from_doc(d).0)
                    .collect::<Vec<_>>()
            });
            rec.staged("storage.triples.republish", front, || {
                for (p, statements) in slice.iter().zip(extracted) {
                    let triples = statements
                        .into_iter()
                        .map(|s| (s.subject, s.predicate, s.object));
                    shadow.republish(&self.pages[*p].url, triples);
                }
            });
            self.counts.html_bytes += slice.iter().map(|p| html(p).len()).sum::<usize>();
        }
        self.counts.pages += slice.len();

        // The instant-gratification applications, then the hand-over to
        // Piazza. The clock restarts: the replay above is not the round's.
        let t1r = Instant::now();
        let calendar = CourseCalendar::default().render(&self.mangrove.store);
        black_box(WhosWho::default().render(&self.mangrove.store));
        let t2 = Instant::now();
        let rows = calendar
            .iter()
            .map(|row| row.iter().map(|v| Value::str(v.to_string())).collect())
            .collect();
        let course = Relation::with_rows(RelSchema::text("UW.course", &COURSE_COLUMNS), rows);
        self.net
            .peer("UW")
            .expect("built with UW")
            .storage
            .write(|c| c.register(course));
        let t3 = Instant::now();
        let out = query_str(&self.net, "MSU", MSU_QUERY);
        let t4 = Instant::now();
        self.rounds += 1;
        let compacted = self.rounds % self.scale.compact_every == 0;
        if compacted {
            self.mangrove.store.compact();
        }
        let t5 = Instant::now();
        tally.latency((t1 - t_last) + (t4 - t1r));
        tally.step((t1 - t0) + (t5 - t1r), slice.len() as u64);

        if let Some(rec) = rec {
            rec.front("mangrove.apps.render", t1r, t2 - t1r);
            rec.front("pdms.peer.load", t2, t3 - t2);
            rec.front("pdms.network.query", t3, t4 - t3);
            if compacted {
                rec.front("storage.triples.compact", t4, t5 - t4);
                self.counts.compactions += 1;
                if let Some(shadow) = self.shadow.as_mut() {
                    shadow.compact();
                }
            }
        }
        let verdict = out.and_then(|out| {
            let (id, titles) = self.pages[last]
                .course
                .as_ref()
                .ok_or("the batch did not end on a course page")?;
            let revised = vec![Value::str(id), Value::str(&titles[self.pages[last].live])];
            if !out.completeness.is_complete() {
                Err("incomplete answer on a perfect network".into())
            } else if !out.answers.contains(&revised) {
                Err(format!("MSU's answer lacks the revised {revised:?}"))
            } else if self.mangrove.store.len() != self.stored {
                Err(format!(
                    "store holds {} triples, live pages stored {}",
                    self.mangrove.store.len(),
                    self.stored
                ))
            } else {
                Ok(())
            }
        });
        tally.check(verdict.map_err(|e| format!("round {round}: {e}")));
    }

    fn layer_metrics(&self, rec: &Recorder) -> Vec<(&'static str, f64)> {
        let c = &self.counts;
        let totals = rec.totals();
        let pages = c.pages.max(1) as f64;
        let self_us_per_page =
            |name: &str| totals.get(name).map_or(0.0, |t| t.1 as f64 / 1e3 / pages);
        let ms_per = |name: &str, n: usize| {
            totals
                .get(name)
                .map_or(0.0, |t| t.0 as f64 / 1e6 / n.max(1) as f64)
        };
        let publish = totals.get("mangrove.publish").copied().unwrap_or((1, 0));
        vec![
            (
                "mangrove.html.parse_self_us_per_page",
                self_us_per_page("mangrove.html.parse"),
            ),
            ("mangrove.html.bytes_per_page", c.html_bytes as f64 / pages),
            (
                "mangrove.annotation.extract_self_us_per_page",
                self_us_per_page("mangrove.annotation.extract"),
            ),
            (
                "mangrove.annotation.statements_per_page",
                c.statements as f64 / pages,
            ),
            (
                "storage.triples.republish_self_us_per_page",
                self_us_per_page("storage.triples.republish"),
            ),
            ("storage.triples.live", self.mangrove.store.len() as f64),
            (
                "storage.triples.compact_ms",
                ms_per("storage.triples.compact", c.compactions),
            ),
            (
                "mangrove.apps.render_ms_per_round",
                ms_per("mangrove.apps.render", self.rounds),
            ),
            (
                "pdms.peer.load_ms_per_round",
                ms_per("pdms.peer.load", self.rounds),
            ),
            (
                "pdms.network.query_ms_per_round",
                ms_per("pdms.network.query", self.rounds),
            ),
            (
                "mangrove.publish.unattributed_ratio",
                publish.1 as f64 / publish.0 as f64,
            ),
        ]
    }
}

impl IngestSite {
    /// Publish the live variant of page `p` through the front door.
    fn publish(&mut self, p: usize) {
        let page = &mut self.pages[p];
        let report = self.mangrove.publish(&page.url, &page.html[page.live]);
        self.stored = self.stored + report.stored - page.stored;
        self.counts.statements += report.stored;
        page.stored = report.stored;
    }
}
