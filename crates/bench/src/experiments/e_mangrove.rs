//! E4–E5: the MANGROVE experiments.

use crate::table::{f2, ms, Table};
use revere_mangrove::clean::resolve;
use revere_mangrove::{CleaningPolicy, CrawlBaseline, Mangrove, MangroveSchema};
use revere_storage::Value;
use revere_workload::{DirtSpec, PageGenerator};
use std::time::Instant;

/// E4 — §2.2: instant gratification. Publish throughput, and freshness of
/// MANGROVE's publish-time ingestion against periodic crawls.
pub fn e4_instant_gratification() -> Table {
    let mut t = Table::new(
        "E4: instant gratification vs periodic crawl (§2.2)",
        &[
            "system", "crawl interval", "pages", "triples", "ingest time ms",
            "pages/s", "mean staleness (ticks)",
        ],
    );
    let gen = PageGenerator { seed: 4, courses: 120, people: 120, ..Default::default() };
    let pages = gen.generate();

    // MANGROVE: ingest at publish time.
    let mut m = Mangrove::new(MangroveSchema::department());
    let start = Instant::now();
    for p in &pages {
        m.publish(&p.url, &p.html);
    }
    let elapsed = start.elapsed();
    t.row(vec![
        "MANGROVE".into(),
        "-".into(),
        pages.len().to_string(),
        m.store.len().to_string(),
        ms(elapsed),
        f2(pages.len() as f64 / elapsed.as_secs_f64()),
        "0.00".into(),
    ]);

    // Crawl baseline: publishes land uniformly over time; a publish at
    // phase p waits (interval - p) ticks. Simulate one publish per tick.
    for &interval in &[10u64, 100, 1000] {
        let mut crawl = CrawlBaseline::new(MangroveSchema::department(), interval);
        let mut total_staleness = 0u64;
        let start = Instant::now();
        for p in &pages {
            total_staleness += crawl.staleness_of_publish_now();
            crawl.author_publish(&p.url, &p.html);
            crawl.tick();
        }
        // Drain the tail so everything is ingested.
        while !crawl.now().is_multiple_of(interval) {
            crawl.tick();
        }
        let elapsed = start.elapsed();
        t.row(vec![
            "crawl".into(),
            interval.to_string(),
            pages.len().to_string(),
            crawl.store.len().to_string(),
            ms(elapsed),
            f2(pages.len() as f64 / elapsed.as_secs_f64()),
            f2(total_staleness as f64 / pages.len() as f64),
        ]);
    }
    t
}

/// E5 — §2.3: deferred integrity constraints. Accuracy of each cleaning
/// policy on the phone-number task under increasing dirt.
pub fn e5_cleaning_policies() -> Table {
    let mut t = Table::new(
        "E5: application-side cleaning policies under dirty data (§2.3)",
        &[
            "dirty rate", "conflicted people", "own-source acc", "majority acc",
            "freshest acc", "take-all avg values",
        ],
    );
    for &rate in &[0.0f64, 0.1, 0.25, 0.5] {
        let gen = PageGenerator {
            seed: 5,
            courses: 0,
            people: 40,
            dirt: DirtSpec { conflict_prob: rate, secondary_pages: 3 },
        };
        let pages = gen.generate();
        let mut m = Mangrove::new(MangroveSchema::department());
        for p in &pages {
            m.publish(&p.url, &p.html);
        }
        // Ground truth: each person's phone, read from their home page
        // (the authoritative source; directories may restate or lie).
        let mut subjects: Vec<(String, Value)> = Vec::new();
        for page in pages.iter().filter(|p| p.url.contains("/~")) {
            for (s, pred, v) in &page.truth {
                if pred == "person.phone" && !subjects.iter().any(|(s2, _)| s2 == s) {
                    subjects.push((s.clone(), v.clone()));
                }
            }
        }
        let conflicted = subjects
            .iter()
            .filter(|(s, v)| {
                m.store
                    .query((Some(s), Some("person.phone"), None))
                    .iter()
                    .any(|tr| tr.object != v)
            })
            .count();
        let acc = |policy: &CleaningPolicy| -> f64 {
            let right = subjects
                .iter()
                .filter(|(s, v)| {
                    resolve(&m.store, s, "person.phone", policy).first() == Some(v)
                })
                .count();
            right as f64 / subjects.len() as f64
        };
        let take_all_avg: f64 = subjects
            .iter()
            .map(|(s, _)| resolve(&m.store, s, "person.phone", &CleaningPolicy::TakeAll).len())
            .sum::<usize>() as f64
            / subjects.len() as f64;
        t.row(vec![
            f2(rate),
            conflicted.to_string(),
            f2(acc(&CleaningPolicy::PreferOwnSource)),
            f2(acc(&CleaningPolicy::Majority)),
            f2(acc(&CleaningPolicy::Freshest)),
            f2(take_all_avg),
        ]);
    }
    t
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn e4_mangrove_is_fresher_than_every_crawl() {
        let t = e4_instant_gratification();
        let mangrove_staleness: f64 = t.rows[0][6].parse().unwrap();
        assert_eq!(mangrove_staleness, 0.0);
        for r in &t.rows[1..] {
            let staleness: f64 = r[6].parse().unwrap();
            let interval: f64 = r[1].parse().unwrap();
            assert!(staleness > 0.0);
            // Mean staleness ~ interval/2 under uniform publishing.
            assert!(staleness <= interval, "{r:?}");
            // Nothing lost: same triple count as pages dictate.
            assert_eq!(r[3], t.rows[0][3], "{r:?}");
        }
    }

    #[test]
    fn e5_own_source_dominates_majority() {
        let t = e5_cleaning_policies();
        for r in &t.rows {
            let own: f64 = r[2].parse().unwrap();
            let majority: f64 = r[3].parse().unwrap();
            assert!(own >= majority - 1e-9, "{r:?}");
            assert!((own - 1.0).abs() < 1e-9, "own-source should stay perfect: {r:?}");
        }
        // At zero dirt every policy is perfect.
        let clean = &t.rows[0];
        assert_eq!(clean[3], "1.00");
        assert_eq!(clean[4], "1.00");
    }
}
