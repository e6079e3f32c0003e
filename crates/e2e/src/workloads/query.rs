//! `query_warm` and `query_churn`: the query front door, used two ways.
//!
//! Both pose course templates in Zipf proportion at `P0` of a random
//! overlay through `PdmsNetwork::query_str`. `query_warm` never writes, so after
//! set-up every reformulation and plan is cached and the time goes to
//! fetch, the join kernel, answer materialisation and `distinct`.
//! `query_churn` publishes a small gram before every few queries; each
//! publish shifts the cache epoch, so most queries re-reformulate and
//! re-plan over small data, and reformulation, planning and invalidation
//! dominate.

use super::shadow::ShadowSubs;
use super::QueryScale;
use crate::fixtures::{course_overlay, SHAPE_SEED};
use crate::metrics::{percentile_us, Tally};
use crate::surface::{
    course_templates, dataflow_view, eval_bag, eval_bindings, eval_naive_union, eval_union,
    parse_query, plan_cq, publish, query_str, subscribe, CacheStats, Catalog, GlavMapping,
    PdmsNetwork, QueryOutcome, ReformulateOptions, Reformulator, Relation, RngExt, SeedableRng,
    StdRng, Updategram, Value,
};
use crate::trace::{Recorder, SpanId};
use crate::System;
use std::collections::BTreeSet;
use std::time::{Duration, Instant};

const AT: &str = "P0";

pub struct QueryOverlay {
    scale: QueryScale,
    net: PdmsNetwork,
    templates: Vec<String>,
    /// Template ranks in the order one cycle poses them.
    deck: Vec<usize>,
    rng: StdRng,
    /// Templates already posed once in this pass.
    seen: Vec<bool>,
    queries: usize,
    publishes: usize,
    /// The delete gram that undoes the last insert gram.
    undo: Option<Updategram>,
    publish_ns: Vec<u64>,
    shadow: Option<Shadow>,
    counts: Counts,
}

/// What the traced pass needs beside the network.
struct Shadow {
    mappings: Vec<GlavMapping>,
    options: ReformulateOptions,
    stats_at_start: CacheStats,
    subs: ShadowSubs,
}

/// Counts the public API already returns, summed over the traced pass.
#[derive(Default)]
struct Counts {
    nodes_expanded: usize,
    disjuncts: usize,
    candidates: usize,
    pruned: usize,
    plans: usize,
    tuples_shipped: usize,
    messages: usize,
    bindings: usize,
    answers: usize,
    distinct_in: usize,
    refreshed: usize,
    skipped: usize,
    output_changes: usize,
}

impl System for QueryOverlay {
    type Scale = QueryScale;
    const TRACED_STEPS_PER_SECOND: f64 = 14.0;

    fn build(scale: &QueryScale, seed: u64, traced: bool) -> Result<Self, String> {
        let mut rng = StdRng::seed_from_u64(seed);
        let (mut net, mappings) = course_overlay(scale.peers, scale.base_rows, &mut rng)?;
        let templates = course_templates(AT, scale.templates);
        for (k, t) in templates.iter().take(scale.subscriptions).enumerate() {
            subscribe(&mut net, AT, &format!("sub{k}"), t)?;
        }
        // Pose every template once, so reformulation and plan caches are
        // warm; twice, because the first execution's feedback may shift
        // the epoch the first plans were cached under.
        for _ in 0..2 {
            for t in &templates {
                query_str(&net, AT, t)?;
            }
        }
        let shadow = if traced {
            let snapshot = net.snapshot_all();
            let mut views = Vec::new();
            for (k, t) in templates.iter().take(scale.subscriptions).enumerate() {
                let union = Reformulator::new(mappings.clone(), net.options.clone())
                    .reformulate(&parse_query(t)?)
                    .union;
                for d in union.disjuncts {
                    views.push(dataflow_view(&format!("sub{k}"), d, &snapshot)?);
                }
            }
            Some(Shadow {
                mappings,
                options: net.options.clone(),
                stats_at_start: net.cache_stats(),
                // The front door applies a gram to the owner's catalog
                // and to the subscriptions' mirrored base.
                subs: ShadowSubs {
                    catalogs: vec![snapshot.clone(), snapshot],
                    views,
                },
            })
        } else {
            None
        };
        Ok(QueryOverlay {
            deck: zipf_deck(
                templates.len(),
                scale.zipf_s,
                scale.cycle_queries,
                scale.publish_every,
                &mut rng,
            ),
            seen: vec![false; templates.len()],
            scale: scale.clone(),
            net,
            templates,
            rng,
            queries: 0,
            publishes: 0,
            undo: None,
            publish_ns: Vec::new(),
            shadow,
            counts: Counts::default(),
        })
    }

    fn cycle_steps(&self) -> usize {
        self.deck.len()
    }

    fn step(&mut self, i: usize, tally: &mut Tally, mut rec: Option<&mut Recorder>) {
        let mut busy = Duration::ZERO;
        if self.scale.publish_every > 0 && i % self.scale.publish_every == 0 {
            busy += self.publish_step(tally, rec.as_deref_mut());
        }
        busy += self.query_step(tally, rec);
        tally.step(busy, 1);
    }

    fn finish(&mut self, tally: &mut Tally) {
        // Every subscription must equal a one-shot query of its template.
        for k in 0..self.scale.subscriptions {
            let name = format!("sub{k}");
            let verdict = query_str(&self.net, AT, &self.templates[k]).and_then(|out| {
                let sub = self
                    .net
                    .subscription(&name)
                    .ok_or("subscription vanished")?;
                if sub.answers().rows() == out.answers.rows() {
                    Ok(())
                } else {
                    Err(format!(
                        "{name} drifted from a one-shot query of its template"
                    ))
                }
            });
            tally.attempted += 1;
            tally.check(verdict);
        }
    }

    fn layer_metrics(&self, rec: &Recorder) -> Vec<(&'static str, f64)> {
        let c = &self.counts;
        let totals = rec.totals();
        let queries = self.queries.max(1) as f64;
        let self_us =
            |name: &str, per: f64| totals.get(name).map_or(0.0, |t| t.1 as f64 / 1e3 / per);
        let ratio = |num: usize, den: usize| {
            if den == 0 {
                0.0
            } else {
                num as f64 / den as f64
            }
        };
        let stats = self.net.cache_stats();
        let at_start = self
            .shadow
            .as_ref()
            .map(|s| s.stats_at_start)
            .unwrap_or_default();
        let hits = stats.reformulation_hits - at_start.reformulation_hits;
        let misses = stats.reformulation_misses - at_start.reformulation_misses;
        let plan_hits = stats.plan_hits - at_start.plan_hits;
        let plan_misses = stats.plan_misses - at_start.plan_misses;
        let front = totals.get("pdms.network.query").copied().unwrap_or((1, 0));
        let mut out = vec![
            (
                "query.parse.self_us_per_op",
                self_us("query.parse", queries),
            ),
            (
                "pdms.reformulate.self_us_per_op",
                self_us("pdms.reformulate", queries),
            ),
            (
                "pdms.reformulate.nodes_expanded_per_op",
                c.nodes_expanded as f64 / queries,
            ),
            (
                "pdms.reformulate.disjuncts_per_op",
                c.disjuncts as f64 / queries,
            ),
            (
                "pdms.reformulate.pruned_ratio",
                ratio(c.pruned, c.candidates),
            ),
            (
                "pdms.network.cache.reformulation_hit_ratio",
                ratio(hits, hits + misses),
            ),
            (
                "pdms.network.cache.plan_hit_ratio",
                ratio(plan_hits, plan_hits + plan_misses),
            ),
            (
                "pdms.network.cache.plan_evictions",
                (stats.plan_evictions - at_start.plan_evictions) as f64,
            ),
            ("query.plan.self_us_per_op", self_us("query.plan", queries)),
            ("query.plan.plans_per_op", c.plans as f64 / queries),
            (
                "pdms.network.fetch.self_us_per_op",
                self_us("pdms.network.fetch", queries),
            ),
            (
                "pdms.network.fetch.tuples_shipped_per_op",
                c.tuples_shipped as f64 / queries,
            ),
            (
                "pdms.network.fetch.messages_per_op",
                c.messages as f64 / queries,
            ),
            (
                "query.vec.kernel_self_us_per_op",
                self_us("query.vec", queries),
            ),
            ("query.vec.bindings_per_op", c.bindings as f64 / queries),
            (
                "query.vec.bindings_per_answer",
                ratio(c.bindings, c.answers),
            ),
            (
                "query.eval.materialize_self_us_per_op",
                self_us("query.eval", queries),
            ),
            (
                "storage.relation.distinct_self_us_per_op",
                self_us("storage.relation.distinct", queries),
            ),
            (
                "storage.relation.rows_in_per_row_out",
                ratio(c.distinct_in, c.answers),
            ),
            (
                "pdms.network.query.unattributed_ratio",
                front.1 as f64 / front.0 as f64,
            ),
        ];
        if self.publishes > 0 {
            let grams = self.publishes as f64;
            let (work, arranged) = (0..self.scale.subscriptions)
                .filter_map(|k| self.net.subscription(&format!("sub{k}")))
                .fold((0u64, 0usize), |(w, a), s| {
                    (w + s.work(), a + s.arranged_tuples())
                });
            out.extend([
                (
                    "pdms.updategram.sign_self_us_per_op",
                    self_us("pdms.updategram.sign", grams),
                ),
                (
                    "pdms.updategram.apply_self_us_per_op",
                    self_us("pdms.updategram.apply", grams),
                ),
                (
                    "query.dataflow.push_self_us_per_op",
                    self_us("query.dataflow.push", grams),
                ),
                (
                    "query.dataflow.work_per_row",
                    work as f64 / (grams * self.scale.gram_rows as f64),
                ),
                (
                    "query.dataflow.output_changes_per_gram",
                    c.output_changes as f64 / grams,
                ),
                ("query.dataflow.arranged_tuples", arranged as f64),
                (
                    "pdms.network.publish.refreshed_per_gram",
                    c.refreshed as f64 / grams,
                ),
                (
                    "pdms.network.publish.skipped_per_gram",
                    c.skipped as f64 / grams,
                ),
                (
                    "pdms.network.publish.p50_us",
                    percentile_us(&self.publish_ns, 0.50),
                ),
                (
                    "pdms.network.publish.p95_us",
                    percentile_us(&self.publish_ns, 0.95),
                ),
            ]);
        }
        out
    }
}

/// The queries of one cycle: `n` template ranks in exact Zipf(`s`)
/// proportion (largest remainders). Every cycle poses the same deck, so
/// cycles differ in what the machine did, not in what they were asked; a
/// sampled trace of this length varies by a tenth in its share of
/// self-join templates alone.
///
/// Which queries fall between the same two publishes decides how many of
/// them hit the reformulation cache, so that split comes from a fixed
/// seed, as everything else that sets a query's cost; `rng` orders the queries within
/// each such window, which moves no hit or miss.
fn zipf_deck(templates: usize, s: f64, n: usize, window: usize, rng: &mut StdRng) -> Vec<usize> {
    let weights: Vec<f64> = (0..templates).map(|i| ((i + 1) as f64).powf(-s)).collect();
    let total: f64 = weights.iter().sum();
    let exact: Vec<f64> = weights.iter().map(|w| w / total * n as f64).collect();
    let mut counts: Vec<usize> = exact.iter().map(|x| x.floor() as usize).collect();
    let mut by_remainder: Vec<usize> = (0..templates).collect();
    by_remainder.sort_by(|&a, &b| {
        exact[b]
            .fract()
            .total_cmp(&exact[a].fract())
            .then(a.cmp(&b))
    });
    let short = n.saturating_sub(counts.iter().sum());
    for &i in by_remainder.iter().take(short) {
        counts[i] += 1;
    }
    let mut deck: Vec<usize> = counts
        .iter()
        .enumerate()
        .flat_map(|(i, &c)| std::iter::repeat_n(i, c))
        .collect();
    StdRng::seed_from_u64(SHAPE_SEED).shuffle(&mut deck);
    for queries in deck.chunks_mut(if window == 0 { n.max(1) } else { window }) {
        rng.shuffle(queries);
    }
    deck
}

impl QueryOverlay {
    /// Publish the next gram of the churn stream: four fresh rows into a
    /// rotating peer's `course`, then a gram deleting the same rows.
    fn publish_step(&mut self, tally: &mut Tally, rec: Option<&mut Recorder>) -> Duration {
        let k = self.publishes;
        self.publishes += 1;
        let gram = self.undo.take().unwrap_or_else(|| {
            let relation = format!("P{}.course", (k / 2) % self.scale.peers);
            let rows: Vec<_> = (0..self.scale.gram_rows)
                .map(|j| {
                    vec![
                        Value::str(format!("Churn {k} row {j}")),
                        Value::Int(self.rng.random_range(10..310i64)),
                    ]
                })
                .collect();
            self.undo = Some(Updategram::deletes(relation.clone(), rows.clone()));
            Updategram::inserts(relation, rows)
        });
        tally.attempted += 1;
        let t = Instant::now();
        let report = publish(&mut self.net, &gram);
        let dt = t.elapsed();
        self.publish_ns.push(dt.as_nanos() as u64);
        match report {
            Err(e) => tally.fail(|| format!("publish to {}: {e}", gram.relation)),
            Ok(report) => {
                self.counts.refreshed += report.refreshed.len();
                self.counts.skipped += report.skipped;
                self.counts.output_changes += report.output_changes;
            }
        }
        if let (Some(rec), Some(shadow)) = (rec, self.shadow.as_mut()) {
            let front = rec.front("pdms.network.publish", t, dt);
            shadow.subs.stage_publish(rec, front, &gram);
        }
        dt
    }

    fn query_step(&mut self, tally: &mut Tally, rec: Option<&mut Recorder>) -> Duration {
        let rank = self.deck[self.queries % self.deck.len()];
        let text = self.templates[rank].clone();
        let before = self.net.cache_stats();
        tally.attempted += 1;
        let t = Instant::now();
        let out = query_str(&self.net, AT, &text);
        let dt = t.elapsed();
        tally.latency(dt);
        self.queries += 1;
        let first = !std::mem::replace(&mut self.seen[rank], true);
        let verdict = out.and_then(|out| {
            if !out.completeness.is_complete() {
                return Err("incomplete answer on a perfect network".to_string());
            }
            if let Some(rec) = rec {
                let front = rec.front("pdms.network.query", t, dt);
                self.stage_query(rec, front, &text, &out, before)?;
            }
            if first || self.queries % self.scale.check_every == 0 {
                self.check_reference(&out)?;
            }
            Ok(())
        });
        tally.check(verdict.map_err(|e| format!("query {text:?}: {e}")));
        dt
    }

    /// The answer must equal a from-scratch evaluation of the same union
    /// over a snapshot of every peer, bypassing caches, fetch and plans.
    fn check_reference(&self, out: &QueryOutcome) -> Result<(), String> {
        let snapshot = self.net.snapshot_all();
        let union = &out.reformulation.union;
        let expected = if self.scale.naive_reference {
            eval_naive_union(union, &snapshot)?
        } else {
            eval_union(union, &snapshot)?
        };
        if expected.rows() == out.answers.rows() {
            Ok(())
        } else {
            Err(format!(
                "{} answers, the reference has {}",
                out.answers.len(),
                expected.len()
            ))
        }
    }

    /// Replay the layers of one front-door query under `front` and hold
    /// the staged answer to the front door's.
    fn stage_query(
        &mut self,
        rec: &mut Recorder,
        front: SpanId,
        text: &str,
        out: &QueryOutcome,
        before: CacheStats,
    ) -> Result<(), String> {
        let shadow = self
            .shadow
            .as_ref()
            .ok_or("traced pass without shadow state")?;
        let c = &mut self.counts;
        let after = self.net.cache_stats();
        let plan_misses = after.plan_misses - before.plan_misses;
        c.plans += plan_misses;
        c.tuples_shipped += out.tuples_shipped;
        c.messages += out.messages;
        c.answers += out.answers.len();

        let (cq, _) = rec.staged("query.parse", front, || parse_query(text));
        let cq = cq?;
        // Reformulate and plan only where the front door did: on a miss.
        if after.reformulation_misses > before.reformulation_misses {
            let (r, _) = rec.staged("pdms.reformulate", front, || {
                Reformulator::new(shadow.mappings.clone(), shadow.options.clone()).reformulate(&cq)
            });
            c.nodes_expanded += r.nodes_expanded;
            c.disjuncts += r.union.disjuncts.len();
            c.candidates += r.candidates_generated;
            c.pruned += r.pruned_by_containment + r.pruned_by_visited;
        }
        let union = &out.reformulation.union;
        let net = &self.net;
        let (staging, _) = rec.staged("pdms.network.fetch", front, || {
            let mut staging = Catalog::new();
            let mut fetched = BTreeSet::new();
            for atom in union.disjuncts.iter().flat_map(|d| &d.body) {
                if !fetched.insert(&atom.relation) {
                    continue;
                }
                let owner = atom.relation.split_once('.').and_then(|(o, _)| net.peer(o));
                if let Some((peer, rel)) =
                    owner.and_then(|p| Some((p, p.snapshot(&atom.relation)?)))
                {
                    staging.register(rel);
                    let learned = peer
                        .storage
                        .read(|c| c.join_stats().mentioning(&atom.relation));
                    staging.absorb_join_stats(&learned);
                }
            }
            staging
        });
        let mut rows = Vec::new();
        let mut schema = None;
        for (k, d) in union.disjuncts.iter().enumerate() {
            // A plan is needed to evaluate; it is a staged layer only for
            // as many disjuncts as the front door planned afresh.
            let plan = if k < plan_misses {
                rec.staged("query.plan", front, || plan_cq(d, &staging)).0
            } else {
                plan_cq(d, &staging)
            };
            let (bag, eval) = rec.staged("query.eval", front, || eval_bag(d, &plan, &staging));
            // The same disjunct through the bindings-only kernel, as a
            // child: `query.eval`'s self time is then materialisation.
            let (kernel, _) = rec.staged("query.vec", eval, || eval_bindings(d, &plan, &staging));
            c.bindings += kernel?.1.iter().map(|p| p.bindings).sum::<usize>();
            let bag = bag?;
            c.distinct_in += bag.len();
            let (set, _) = rec.staged("storage.relation.distinct", front, || bag.distinct());
            schema.get_or_insert_with(|| set.schema.clone());
            rows.extend(set.into_rows());
        }
        // Every row goes through `distinct` twice: per disjunct, then
        // across the union.
        c.distinct_in += rows.len();
        let schema = schema.ok_or("empty union")?;
        let (answers, _) = rec.staged("storage.relation.distinct", front, || {
            Relation::with_rows(schema, rows).distinct()
        });
        if answers.rows() == out.answers.rows() {
            Ok(())
        } else {
            Err(format!(
                "staged answer has {} rows, the front door's {}",
                answers.len(),
                out.answers.len()
            ))
        }
    }
}
