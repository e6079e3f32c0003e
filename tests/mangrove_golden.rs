//! The instant-gratification applications render what they always have.
//!
//! A small dirty department site (`PageGenerator` with a quarter of its
//! facts contradicted on three secondary pages) is published into a
//! `Mangrove`; `CourseCalendar`, `WhosWho` and `PhoneDirectory` are
//! rendered, then again after a slice of pages is republished with one
//! value revised, then again after `compact()`. Every row, with each
//! cell's `Debug` spelling (so `Int(2)` and `Float(2.0)` differ), must
//! equal `tests/golden/mangrove_apps.txt`. A change to how the store keeps
//! or orders its triples may make rendering faster; it may not change one
//! byte of what the applications show.

use revere::prelude::*;
use revere::workload::DirtSpec;
use std::fmt::Write as _;
use std::path::Path;

/// The site's generator seed.
const SITE_SEED: u64 = 1013;

/// One block per application: a header, then one line per row.
fn render_apps(out: &mut String, stage: &str, store: &TripleStore) {
    let apps = [
        ("calendar", CourseCalendar::default().render(store)),
        ("whos_who", WhosWho::default().render(store)),
        ("phone_directory", PhoneDirectory::default().render(store)),
    ];
    for (name, relation) in apps {
        let _ = writeln!(out, "# {stage} {name} rows={}", relation.len());
        for row in relation.iter() {
            let _ = writeln!(out, "{row:?}");
        }
    }
}

/// Publish the site, render; republish every third page with its first
/// stated value revised, render; compact, render.
fn render() -> String {
    let site = PageGenerator {
        seed: SITE_SEED,
        courses: 12,
        people: 16,
        dirt: DirtSpec { conflict_prob: 0.25, secondary_pages: 3 },
    }
    .generate();
    let mut mangrove = Mangrove::new(MangroveSchema::department());
    for page in &site {
        mangrove.publish(&page.url, &page.html);
    }
    let mut out = String::new();
    render_apps(&mut out, "published", &mangrove.store);
    for page in site.iter().step_by(3) {
        let Some((_, _, value)) = page.truth.first().or(page.lies.first()) else {
            continue;
        };
        let revised = page.html.replacen(&format!(">{value}<"), &format!(">{value} rev<"), 1);
        mangrove.publish(&page.url, &revised);
    }
    render_apps(&mut out, "revised", &mangrove.store);
    mangrove.store.compact();
    render_apps(&mut out, "compacted", &mangrove.store);
    out
}

#[test]
fn mangrove_apps_match_the_golden_file() {
    let path =
        Path::new(env!("CARGO_MANIFEST_DIR")).join("../../tests/golden/mangrove_apps.txt");
    let golden = std::fs::read_to_string(&path).expect("tests/golden/mangrove_apps.txt");
    let actual = render();
    if actual != golden {
        let at = actual
            .lines()
            .zip(golden.lines())
            .position(|(a, g)| a != g)
            .unwrap_or_else(|| actual.lines().count().min(golden.lines().count()));
        panic!(
            "application renders differ from the golden file at line {}:\n  golden: {:?}\n  actual: {:?}",
            at + 1,
            golden.lines().nth(at),
            actual.lines().nth(at)
        );
    }
}
