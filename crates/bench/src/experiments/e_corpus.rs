//! E6, E7, E9, E10: the statistics-over-structures experiments.

use crate::table::{f2, ms, Table};
use revere_corpus::{
    Corpus, CorpusEntry, CorpusStats, DesignAdvisor, Learner, MatchQuality, MatchingAdvisor,
    MultiStrategyClassifier,
};
use revere_storage::{Catalog, DbSchema, RelSchema};
use revere_workload::{University, UniversityGenerator};
use std::time::Instant;

/// Build a labeled corpus from the first `train` of `total` generated
/// universities; return (corpus, held-out universities).
fn split_corpus(
    seed: u64,
    total: usize,
    train: usize,
    rename_prob: f64,
    italian: f64,
) -> (Corpus, Vec<University>) {
    let gen = UniversityGenerator {
        seed,
        rename_prob,
        italian_fraction: italian,
        rows_per_relation: 12,
        ..Default::default()
    };
    let mut universities = gen.generate(total);
    let test = universities.split_off(train);
    let mut corpus = Corpus::new();
    for u in &universities {
        let mut e = CorpusEntry::schema_only(u.schema.clone());
        e.data = u.data.clone();
        e.labels = u.truth.attributes.clone().into_iter().collect();
        corpus.add(e);
    }
    (corpus, test)
}

/// Mean matching accuracy of `learners` over held-out pairs.
fn accuracy_over_pairs(
    matcher: &MatchingAdvisor,
    test: &[University],
) -> (f64, f64, f64) {
    let (mut acc, mut prec, mut rec) = (0.0, 0.0, 0.0);
    let mut pairs = 0;
    for w in test.chunks(2) {
        if w.len() < 2 {
            break;
        }
        let (a, b) = (&w[0], &w[1]);
        let proposed = matcher.match_schemas(&a.schema, &a.data, &b.schema, &b.data);
        let truth = a.truth.correspondences(&b.truth);
        if truth.is_empty() {
            continue;
        }
        let q = MatchQuality::evaluate(&proposed, &truth);
        acc += q.accuracy;
        prec += q.precision;
        rec += q.recall;
        pairs += 1;
    }
    let n = pairs.max(1) as f64;
    (acc / n, prec / n, rec / n)
}

/// E6 — §4.3.2: LSD-style matching accuracy by learner and difficulty.
/// The paper's claim: multi-strategy matching reaches 70–90% accuracy.
pub fn e6_matching_accuracy() -> Table {
    let mut t = Table::new(
        "E6: schema matching accuracy by learner and difficulty (\u{a7}4.3.2; LSD 70-90% claim)",
        &["rename prob", "italian frac", "learner", "accuracy", "precision", "recall"],
    );
    for &(rename, italian) in &[(0.3f64, 0.0f64), (0.6, 0.0), (1.0, 0.25), (1.0, 0.5)] {
        let (corpus, test) = split_corpus(2003, 18, 12, rename, italian);
        let clf = MultiStrategyClassifier::train(&corpus);
        for (learners, label) in [
            (vec![Learner::Name], "name"),
            (vec![Learner::Value], "value"),
            (vec![Learner::Structure], "structure"),
            (vec![Learner::Meta], "multi-strategy"),
        ] {
            let matcher = MatchingAdvisor::new(clf.clone()).with_learners(learners);
            let (acc, prec, rec) = accuracy_over_pairs(&matcher, &test);
            t.row(vec![
                f2(rename),
                f2(italian),
                label.to_string(),
                f2(acc),
                f2(prec),
                f2(rec),
            ]);
        }
    }
    t
}

/// E7 — §4.3.1: DesignAdvisor retrieval quality vs corpus size. The
/// corpus mixes university schemas with junk-domain distractors; we
/// measure where the first same-domain schema ranks for a fresh fragment.
pub fn e7_design_advisor() -> Table {
    let mut t = Table::new(
        "E7: DesignAdvisor ranking quality vs corpus size (\u{a7}4.3.1)",
        &[
            "university schemas", "distractors", "rank of first real", "MRR",
            "top-1 fit", "advice items",
        ],
    );
    for &n in &[4usize, 8, 16, 32] {
        let (mut corpus, test) = split_corpus(77, n + 1, n, 0.5, 0.0);
        // Distractor schemas from unrelated domains.
        let distractors = n / 2;
        for d in 0..distractors {
            corpus.add(CorpusEntry::schema_only(
                DbSchema::new(format!("Junk{d}"))
                    .with(RelSchema::text("invoice", &["sku", "amount_due", "po_number"]))
                    .with(RelSchema::text("shipment", &["tracking", "carrier", "weight_kg"])),
            ));
        }
        let advisor = DesignAdvisor::new(
            &corpus,
            MatchingAdvisor::new(MultiStrategyClassifier::train(&corpus)),
        );
        // Fragment: the held-out university's course relation.
        let fresh = &test[0];
        let course_rel = fresh
            .truth
            .relations
            .iter()
            .find(|(_, c)| *c == "course")
            .map(|(r, _)| r.clone())
            .expect("course relation exists");
        let fragment =
            DbSchema::new("draft").with(fresh.schema.relation(&course_rel).unwrap().clone());
        let mut data = Catalog::new();
        data.register(fresh.data.get(&course_rel).unwrap().clone());
        let ranking = advisor.rank(&corpus, &fragment, &data);
        let first_real = ranking
            .iter()
            .position(|r| !r.name.starts_with("Junk"))
            .map(|p| p + 1)
            .unwrap_or(ranking.len());
        let advice = advisor.advise(&corpus, &fragment, &data, 3);
        t.row(vec![
            n.to_string(),
            distractors.to_string(),
            first_real.to_string(),
            f2(1.0 / first_real as f64),
            f2(ranking[0].fit),
            advice.len().to_string(),
        ]);
    }
    t
}

/// E9 — §4.2: statistics computation scaling and similar-name quality.
pub fn e9_stats_scaling() -> Table {
    let mut t = Table::new(
        "E9: corpus statistics scaling & similar-name quality (\u{a7}4.2)",
        &[
            "schemas", "distinct terms", "frequent pairs (sup>=25%)", "compute ms",
            "synonym hits@5",
        ],
    );
    // Probe pairs: true synonyms the statistics should surface
    // distributionally (without any dictionary).
    let probes = [("instructor", "teacher"), ("enrollment", "size"), ("time", "schedule")];
    for &n in &[10usize, 50, 100, 200] {
        let gen = UniversityGenerator {
            seed: 99,
            rename_prob: 0.6,
            rows_per_relation: 6,
            ..Default::default()
        };
        let mut corpus = Corpus::new();
        for u in gen.generate(n) {
            let mut e = CorpusEntry::schema_only(u.schema.clone());
            e.data = u.data.clone();
            corpus.add(e);
        }
        let start = Instant::now();
        let stats = CorpusStats::compute(&corpus);
        let elapsed = start.elapsed();
        let hits = probes
            .iter()
            .filter(|(a, b)| {
                stats
                    .similar_names(a, 5)
                    .iter()
                    .any(|(term, _)| *term == revere_corpus::text::stem(b))
            })
            .count();
        t.row(vec![
            n.to_string(),
            stats.usage.len().to_string(),
            stats.frequent_pairs_above(n / 4).len().to_string(),
            ms(elapsed),
            format!("{hits}/{}", probes.len()),
        ]);
    }
    t
}

/// E10 — §3 / Example 3.1: joining via the most-similar peer takes less
/// residual mapping effort than mapping to a global mediated schema.
///
/// The setup mirrors the paper's Trento argument exactly: the mediated
/// schema is in canonical English, the coalition contains Italian peers,
/// and the coordinator has **no inter-language dictionary** (English-only
/// synonym table) — so "if the University of Rome ... maps its schema to a
/// mediated schema that uses terms in English, this does not help the
/// University of Trento. It would be much easier for Trento to provide a
/// mapping to the Rome schema." Effort = true correspondences the advisor
/// failed to propose (which the coordinator must author by hand).
///
/// Two modeling rules keep the comparison honest:
///
/// * **Each route is helped only by its own ecosystem's corpus.** The
///   similar-peer route uses the local coalition's corpus (which contains
///   Italian peers); the mediated route uses the mediated schema's
///   English-only corpus. Training the mediated matcher on a labeled
///   bilingual corpus would hand it exactly the inter-language dictionary
///   the ablation removes — a learned one.
/// * **Matching is schema-level** (no instance samples). Piazza mappings
///   (Fig 4) are authored over schemas/DTDs, and a joining peer's data is
///   unreachable through the PDMS until the mapping exists; letting the
///   tool read the joiner's tuples would also trivialize the language
///   variable, since value formats (phones, emails, counts) are
///   language-blind.
pub fn e10_join_effort() -> Table {
    let mut t = Table::new(
        "E10: new-peer join effort, similar peer vs mediated schema (\u{a7}3, Ex. 3.1)",
        &[
            "joining peer", "language", "strategy", "partner", "auto-matched",
            "residual (hand-authored)", "effort ratio",
        ],
    );
    // Coalition: 8 universities, some Italian (Roma-like peers exist).
    let coalition_gen = UniversityGenerator {
        seed: 31,
        rename_prob: 0.5,
        italian_fraction: 0.4,
        rows_per_relation: 12,
        ..Default::default()
    };
    let coalition = coalition_gen.generate(8);
    let mut corpus = Corpus::new();
    for u in &coalition {
        let mut e = CorpusEntry::schema_only(u.schema.clone());
        e.data = u.data.clone();
        e.labels = u.truth.attributes.clone().into_iter().collect();
        corpus.add(e);
    }
    // The mediated schema: canonical English, complete.
    let mediated = UniversityGenerator {
        seed: 1,
        rename_prob: 0.0,
        drop_prob: 0.0,
        italian_fraction: 0.0,
        rows_per_relation: 12,
    }
    .generate_one(0);
    // The mediated ecosystem's corpus: English universities only.
    let english_gen = UniversityGenerator {
        seed: 32,
        rename_prob: 0.5,
        italian_fraction: 0.0,
        rows_per_relation: 12,
        ..Default::default()
    };
    let mut english_corpus = Corpus::new();
    for u in &english_gen.generate(8) {
        let mut e = CorpusEntry::schema_only(u.schema.clone());
        e.data = u.data.clone();
        e.labels = u.truth.attributes.clone().into_iter().collect();
        english_corpus.add(e);
    }
    // No inter-language dictionary: English-only synonyms on both routes.
    let english = revere_corpus::text::SynonymTable::english_only();
    let matcher = MatchingAdvisor::new(MultiStrategyClassifier::train(&corpus))
        .with_synonyms(english.clone());
    let mediated_matcher = MatchingAdvisor::new(MultiStrategyClassifier::train(&english_corpus))
        .with_synonyms(english);
    let advisor = DesignAdvisor::new(&corpus, matcher.clone());

    let joiners = [
        (
            UniversityGenerator {
                seed: 500,
                rename_prob: 1.0,
                italian_fraction: 1.0,
                rows_per_relation: 12,
                ..Default::default()
            }
            .generate_one(0),
            "italian (Trento-like)",
        ),
        (
            UniversityGenerator {
                seed: 501,
                rename_prob: 1.0,
                italian_fraction: 0.0,
                rows_per_relation: 12,
                ..Default::default()
            }
            .generate_one(1),
            "english (fully renamed)",
        ),
    ];
    for (joiner, lang) in &joiners {
        // Route A: map to the most similar coalition peer, chosen by
        // the DesignAdvisor over the corpus.
        let ranking = advisor.rank(&corpus, &joiner.schema, &joiner.data);
        let best = &coalition[ranking[0].corpus_index];
        // Route B: map to the mediated schema (helped only by the
        // mediated ecosystem's English corpus).
        let empty = Catalog::new();
        for (strategy, route_matcher, partner) in [
            ("similar peer", &matcher, best),
            ("mediated", &mediated_matcher, &mediated),
        ] {
            // Schema-level matching: see the modeling rules above.
            let proposed =
                route_matcher.match_schemas(&joiner.schema, &empty, &partner.schema, &empty);
            let truth = joiner.truth.correspondences(&partner.truth);
            let q = MatchQuality::evaluate(&proposed, &truth);
            let matchable: std::collections::BTreeSet<_> =
                truth.iter().map(|(a, _)| a.clone()).collect();
            let auto = (q.accuracy * matchable.len() as f64).round() as usize;
            let residual = matchable.len().saturating_sub(auto);
            t.row(vec![
                joiner.name.clone(),
                lang.to_string(),
                strategy.to_string(),
                partner.name.clone(),
                auto.to_string(),
                residual.to_string(),
                f2(residual as f64 / matchable.len().max(1) as f64),
            ]);
        }
    }
    t
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn e6_meta_in_or_above_the_paper_band_and_robust_across_difficulty() {
        let t = e6_matching_accuracy();
        // Group rows by difficulty (4 learners each).
        for block in t.rows.chunks(4) {
            let acc = |label: &str| -> f64 {
                block
                    .iter()
                    .find(|r| r[2] == label)
                    .map(|r| r[3].parse().unwrap())
                    .unwrap()
            };
            let meta = acc("multi-strategy");
            let singles = [acc("name"), acc("value"), acc("structure")];
            let best = singles.iter().cloned().fold(0.0f64, f64::max);
            let worst = singles.iter().cloned().fold(1.0f64, f64::min);
            // The paper's band: ≥ 0.7 accuracy at every difficulty.
            assert!(meta >= 0.7, "meta below the LSD band: {block:?}");
            // Robustness: within a small margin of the best single
            // learner and never collapsing to below the worst one.
            // (On this synthetic workload the value learner is
            // near-ceiling — its generated formats are unrealistically
            // discriminative — so the meta tracks rather than beats it;
            // see EXPERIMENTS.md for the discussion.)
            assert!(meta >= best - 0.15, "meta {meta} far below best {best}: {block:?}");
            assert!(meta >= worst - 0.03, "meta {meta} below worst {worst}: {block:?}");
        }
    }

    #[test]
    fn e7_real_schema_ranks_first_or_second() {
        let t = e7_design_advisor();
        for r in &t.rows {
            let rank: usize = r[2].parse().unwrap();
            assert!(rank <= 2, "{r:?}");
        }
    }

    #[test]
    fn e9_statistics_scale_and_find_synonyms() {
        let t = e9_stats_scaling();
        let last = t.rows.last().unwrap();
        let hits = last[4].split('/').next().unwrap().parse::<usize>().unwrap();
        assert!(hits >= 2, "distributional synonyms not surfacing: {last:?}");
    }

    #[test]
    fn e10_similar_peer_wins_cross_language_and_ties_within_language() {
        let t = e10_join_effort();
        // Row pairs: (similar peer, mediated) per joiner.
        // Italian joiner, no inter-language dictionary: the paper's
        // Trento argument — mapping to a similar (Italian) peer needs
        // strictly less hand-authoring than the English mediated schema.
        let italian = &t.rows[0..2];
        let it_similar: usize = italian[0][5].parse().unwrap();
        let it_mediated: usize = italian[1][5].parse().unwrap();
        assert!(
            it_similar < it_mediated,
            "cross-language: similar peer should win: {italian:?}"
        );
        // English joiner: both strategies work; similar-peer must be in
        // the same ballpark (within a small absolute margin).
        let english = &t.rows[2..4];
        let en_similar: usize = english[0][5].parse().unwrap();
        let en_mediated: usize = english[1][5].parse().unwrap();
        assert!(
            en_similar <= en_mediated + 3,
            "within-language: similar peer far worse: {english:?}"
        );
    }
}
