//! Per-relation / per-column data statistics.
//!
//! §3.1.2 sketches a cost-based choice between maintenance strategies;
//! the same discipline applies to join ordering: "answering queries most
//! efficiently" needs estimates of how many tuples each subgoal will
//! produce. [`RelStats`] keeps, for every column of a relation, the row
//! count, the distinct-value count, and the full value-frequency
//! histogram (whose top-k projection is the classic most-common-values
//! list). Statistics are maintained *incrementally* on insert/delete —
//! the planner never pays a scan to stay informed — and exposed through
//! [`crate::Catalog`], which also carries a monotonically increasing
//! *stats epoch* so plan caches can tell fresh estimates from stale ones.

use crate::relation::{Relation, Tuple};
use crate::value::Value;
use std::collections::BTreeMap;

/// Frequency statistics for one column.
///
/// The histogram is exact (this is an in-memory engine; relations are
/// small enough that a full value→count map is cheaper than the sketches
/// a disk-based system would use). [`ColumnStats::most_common`] projects
/// the MCV list a traditional optimizer would persist.
#[derive(Debug, Clone, Default, PartialEq, Eq)]
pub struct ColumnStats {
    counts: BTreeMap<Value, usize>,
}

impl ColumnStats {
    /// Number of distinct values currently in the column.
    pub fn distinct(&self) -> usize {
        self.counts.len()
    }

    /// Occurrences of `v` in the column (0 if absent).
    pub fn count_of(&self, v: &Value) -> usize {
        self.counts.get(v).copied().unwrap_or(0)
    }

    /// The `k` most common values with their counts, most frequent first
    /// (ties broken by value order, so the list is deterministic).
    pub fn most_common(&self, k: usize) -> Vec<(&Value, usize)> {
        let mut all: Vec<(&Value, usize)> = self.counts.iter().map(|(v, &c)| (v, c)).collect();
        all.sort_by(|a, b| b.1.cmp(&a.1).then_with(|| a.0.cmp(b.0)));
        all.truncate(k);
        all
    }

    /// Iterate over the full value→count histogram in value order.
    pub fn iter(&self) -> impl Iterator<Item = (&Value, usize)> {
        self.counts.iter().map(|(v, &c)| (v, c))
    }

    fn note(&mut self, v: &Value, delta: isize) {
        let c = self.counts.entry(v.clone()).or_insert(0);
        if delta >= 0 {
            *c += delta as usize;
        } else {
            *c = c.saturating_sub((-delta) as usize);
            if *c == 0 {
                self.counts.remove(v);
            }
        }
    }
}

/// Statistics for one relation: row count plus per-column histograms.
#[derive(Debug, Clone, Default, PartialEq, Eq)]
pub struct RelStats {
    /// Current row count (bag cardinality).
    pub rows: usize,
    /// One [`ColumnStats`] per schema column, in schema order.
    pub columns: Vec<ColumnStats>,
}

impl RelStats {
    /// Compute statistics from scratch, a column at a time: a stable sort
    /// of its cells, and a histogram built in bulk from the runs. A run's
    /// key is its first-seen spelling (`Int(2)` or `Float(2.0)`), as with
    /// [`RelStats::note_insert`].
    pub fn compute(rel: &Relation) -> RelStats {
        let mut cells: Vec<&Value> = Vec::with_capacity(rel.len());
        let columns = (0..rel.schema.arity())
            .map(|col| {
                cells.clear();
                cells.extend(rel.iter().map(|row| &row[col]));
                cells.sort();
                let counts = cells
                    .chunk_by(|a, b| a == b)
                    .map(|run| (run[0].clone(), run.len()))
                    .collect();
                ColumnStats { counts }
            })
            .collect();
        RelStats { rows: rel.len(), columns }
    }

    /// Account for one appended row.
    pub fn note_insert(&mut self, row: &Tuple) {
        self.rows += 1;
        for (col, v) in self.columns.iter_mut().zip(row) {
            col.note(v, 1);
        }
    }

    /// Account for `n` removed copies of `row` — `n` as reported by
    /// [`Relation::delete`], so a delete-of-absent (`n == 0`) is a no-op
    /// instead of a silent desync.
    pub fn note_delete_n(&mut self, row: &[Value], n: usize) {
        if n == 0 {
            return;
        }
        self.rows = self.rows.saturating_sub(n);
        for (col, v) in self.columns.iter_mut().zip(row) {
            col.note(v, -(n as isize));
        }
    }

    /// Distinct values in column `col` (0 for out-of-range columns).
    pub fn distinct(&self, col: usize) -> usize {
        self.columns.get(col).map(ColumnStats::distinct).unwrap_or(0)
    }

    /// Estimated fraction of rows whose column `col` equals `v`.
    ///
    /// The histogram is exact, so a present value gets its true
    /// frequency. An absent value truly matches nothing *right now*, but
    /// the estimate stays a small positive floor rather than zero: the
    /// planner uses these numbers to rank join orders, and a hard zero
    /// would make every order look equally (and misleadingly) free.
    pub fn selectivity_eq(&self, col: usize, v: &Value) -> f64 {
        if self.rows == 0 {
            return 0.0;
        }
        match self.columns.get(col).map(|c| c.count_of(v)) {
            Some(n) if n > 0 => n as f64 / self.rows as f64,
            _ => 0.5 / self.rows as f64,
        }
    }

    /// Estimated fraction of rows where columns `a` and `b` hold the same
    /// value (a within-atom self-join): `1 / max(distinct(a), distinct(b))`.
    pub fn selectivity_self_join(&self, a: usize, b: usize) -> f64 {
        let d = self.distinct(a).max(self.distinct(b)).max(1);
        1.0 / d as f64
    }
}

/// MCV-vs-MCV equijoin overlap: the probability that a random row of `a`
/// and a random row of `b` agree on the given columns, `Σ_v fA(v)·fB(v)`.
///
/// The histograms are exact, so this is the exact match probability under
/// row independence — it degrades gracefully to the classic
/// `1/max(d1,d2)` only when both columns are uniform with containment,
/// which is precisely the assumption it replaces. Disjoint columns get a
/// small positive floor (mirroring [`RelStats::selectivity_eq`]) so the
/// planner still ranks orders instead of seeing a wall of zeros. Returns
/// `None` when either column is missing or either relation is empty.
pub fn mcv_join_overlap(a: &RelStats, a_col: usize, b: &RelStats, b_col: usize) -> Option<f64> {
    if a.rows == 0 || b.rows == 0 {
        return None;
    }
    let (ca, cb) = (a.columns.get(a_col)?, b.columns.get(b_col)?);
    // Walk the smaller histogram, probe the larger one.
    let (small, large) = if ca.distinct() <= cb.distinct() { (ca, cb) } else { (cb, ca) };
    let mut matches = 0usize;
    for (v, n) in small.iter() {
        matches += n * large.count_of(v);
    }
    let total = (a.rows * b.rows) as f64;
    if matches == 0 {
        Some(0.5 / total)
    } else {
        Some(matches as f64 / total)
    }
}

/// One learned join-overlap observation: the selectivity measured from an
/// executed hash join, plus how many times the pair has been observed.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct JoinObservation {
    /// Measured `bindings / (probes · build_rows)` from the last
    /// execution that exceeded the re-plan threshold.
    pub selectivity: f64,
    /// How many executions have reported this pair.
    pub observations: u64,
}

/// A normalized `(relation, column)` pair identifying one equijoin edge.
/// Sides are ordered lexicographically so `(A.x, B.y)` and `(B.y, A.x)`
/// share one entry.
pub type JoinKey = ((String, usize), (String, usize));

fn join_key(rel_a: &str, col_a: usize, rel_b: &str, col_b: usize) -> JoinKey {
    let a = (rel_a.to_string(), col_a);
    let b = (rel_b.to_string(), col_b);
    if a <= b { (a, b) } else { (b, a) }
}

/// Learned equijoin selectivities keyed by normalized column pair.
///
/// This is the feedback half of the estimator: the PDMS records observed
/// build/probe hit rates from executed hash joins here, and the planner
/// prefers a recorded overlap over any model-based estimate. Everything
/// is a `BTreeMap` of values derived from integer counts, so two
/// identical runs produce byte-identical stores ([`JoinStats::dump`]).
#[derive(Debug, Clone, Default, PartialEq)]
pub struct JoinStats {
    entries: BTreeMap<JoinKey, JoinObservation>,
}

impl JoinStats {
    /// The learned selectivity for a column pair, if one was recorded.
    pub fn overlap(&self, rel_a: &str, col_a: usize, rel_b: &str, col_b: usize) -> Option<f64> {
        self.entries.get(&join_key(rel_a, col_a, rel_b, col_b)).map(|o| o.selectivity)
    }

    /// Record an observed selectivity for a column pair. Returns `true`
    /// when the stored estimate materially changed — callers use this to
    /// decide whether caches keyed on the stats epoch must be invalidated
    /// (a re-observation of the same value must not flush warm caches).
    pub fn note(&mut self, rel_a: &str, col_a: usize, rel_b: &str, col_b: usize, sel: f64) -> bool {
        let entry = self
            .entries
            .entry(join_key(rel_a, col_a, rel_b, col_b))
            .or_insert(JoinObservation { selectivity: f64::NAN, observations: 0 });
        entry.observations += 1;
        let changed = !(entry.selectivity == sel
            || (entry.selectivity - sel).abs() <= 1e-9 * entry.selectivity.abs());
        entry.selectivity = sel;
        changed
    }

    /// Number of recorded pairs.
    pub fn len(&self) -> usize {
        self.entries.len()
    }

    /// True when nothing has been learned yet.
    pub fn is_empty(&self) -> bool {
        self.entries.is_empty()
    }

    /// Iterate over recorded pairs in key order.
    pub fn iter(&self) -> impl Iterator<Item = (&JoinKey, &JoinObservation)> {
        self.entries.iter()
    }

    /// The subset of entries whose key mentions `rel` (either side).
    pub fn mentioning(&self, rel: &str) -> JoinStats {
        JoinStats {
            entries: self
                .entries
                .iter()
                .filter(|((a, b), _)| a.0 == rel || b.0 == rel)
                .map(|(k, v)| (k.clone(), *v))
                .collect(),
        }
    }

    /// Remove every entry whose key mentions (on either side) a relation
    /// for which `drop_rel` returns true. Returns how many entries were
    /// removed. Used when a peer departs: its learned selectivities must
    /// not keep steering other peers' planners.
    pub fn purge_where(&mut self, drop_rel: impl Fn(&str) -> bool) -> usize {
        let before = self.entries.len();
        self.entries.retain(|(a, b), _| !drop_rel(&a.0) && !drop_rel(&b.0));
        before - self.entries.len()
    }

    /// Restore an exact observation (selectivity *and* observation count),
    /// bypassing the material-change accounting of [`JoinStats::note`].
    /// Used by snapshot decoding, where the store must round-trip
    /// byte-identically.
    pub fn restore(
        &mut self,
        rel_a: &str,
        col_a: usize,
        rel_b: &str,
        col_b: usize,
        obs: JoinObservation,
    ) {
        self.entries.insert(join_key(rel_a, col_a, rel_b, col_b), obs);
    }

    /// Merge `other` into `self`, overwriting overlapping keys (the
    /// incoming side is the fresher observation).
    pub fn absorb(&mut self, other: &JoinStats) {
        for (k, v) in &other.entries {
            self.entries.insert(k.clone(), *v);
        }
    }

    /// Deterministic one-line-per-entry rendering, for byte-identity
    /// assertions in determinism tests.
    pub fn dump(&self) -> String {
        use std::fmt::Write as _;
        let mut out = String::new();
        for (((ra, ca), (rb, cb)), o) in &self.entries {
            let _ = writeln!(
                out,
                "{ra}[{ca}] ⋈ {rb}[{cb}]  sel {:.6e}  obs {}",
                o.selectivity, o.observations
            );
        }
        out
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::schema::RelSchema;

    fn rel() -> Relation {
        let mut r = Relation::new(RelSchema::text("t", &["a", "b"]));
        r.insert(vec!["x".into(), "1".into()]);
        r.insert(vec!["x".into(), "2".into()]);
        r.insert(vec!["y".into(), "1".into()]);
        r
    }

    #[test]
    fn compute_counts_rows_and_distincts() {
        let s = RelStats::compute(&rel());
        assert_eq!(s.rows, 3);
        assert_eq!(s.distinct(0), 2);
        assert_eq!(s.distinct(1), 2);
        assert_eq!(s.columns[0].count_of(&"x".into()), 2);
    }

    #[test]
    fn incremental_matches_recompute() {
        let mut r = rel();
        let mut s = RelStats::compute(&r);
        let row = vec![Value::str("z"), Value::str("1")];
        r.insert(row.clone());
        s.note_insert(&row);
        assert_eq!(s, RelStats::compute(&r));
        let gone = vec![Value::str("x"), Value::str("1")];
        let removed = r.delete(&gone);
        s.note_delete_n(&gone, removed);
        assert_eq!(s, RelStats::compute(&r));
        // Delete-of-absent: the relation reports 0 rows removed, and
        // noting that count leaves the stats untouched.
        let absent = vec![Value::str("ghost"), Value::str("9")];
        let removed = r.delete(&absent);
        assert_eq!(removed, 0);
        s.note_delete_n(&absent, removed);
        assert_eq!(s, RelStats::compute(&r));
        // A row that exists twice is noted with its true count.
        let dup = vec![Value::str("d"), Value::str("5")];
        r.insert(dup.clone());
        r.insert(dup.clone());
        s.note_insert(&dup);
        s.note_insert(&dup);
        let removed = r.delete(&dup);
        assert_eq!(removed, 2);
        s.note_delete_n(&dup, removed);
        assert_eq!(s, RelStats::compute(&r));
    }

    #[test]
    fn most_common_is_deterministic_and_sorted() {
        let s = RelStats::compute(&rel());
        let mcv = s.columns[0].most_common(2);
        assert_eq!(mcv[0], (&Value::str("x"), 2));
        assert_eq!(mcv[1], (&Value::str("y"), 1));
        assert_eq!(s.columns[0].most_common(1).len(), 1);
    }

    #[test]
    fn selectivities() {
        let s = RelStats::compute(&rel());
        assert!((s.selectivity_eq(0, &"x".into()) - 2.0 / 3.0).abs() < 1e-9);
        // Absent value: small positive floor, not zero.
        let absent = s.selectivity_eq(0, &"nope".into());
        assert!(absent > 0.0 && absent < 0.2);
        assert!((s.selectivity_self_join(0, 1) - 0.5).abs() < 1e-9);
    }

    #[test]
    fn empty_relation_stats() {
        let r = Relation::new(RelSchema::text("t", &["a"]));
        let s = RelStats::compute(&r);
        assert_eq!(s.rows, 0);
        assert_eq!(s.distinct(0), 0);
        assert_eq!(s.selectivity_eq(0, &"x".into()), 0.0);
    }

    #[test]
    fn mcv_overlap_is_exact_match_probability() {
        // a.b = {1, 1, 2}; rel column 1 has "1" twice, "2" once.
        let a = RelStats::compute(&rel());
        // Self-overlap on column 1: (2·2 + 1·1) / (3·3) = 5/9.
        let sel = mcv_join_overlap(&a, 1, &a, 1).unwrap();
        assert!((sel - 5.0 / 9.0).abs() < 1e-9, "got {sel}");
        // Under uniform containment it reduces to 1/max(d1,d2).
        let mut u = Relation::new(RelSchema::text("u", &["k"]));
        for k in 0..4 {
            u.insert(vec![Value::str(format!("{k}"))]);
        }
        let su = RelStats::compute(&u);
        let sel = mcv_join_overlap(&su, 0, &su, 0).unwrap();
        assert!((sel - 0.25).abs() < 1e-9, "uniform self-overlap should be 1/d, got {sel}");
        // Disjoint columns: small positive floor, never zero.
        let mut w = Relation::new(RelSchema::text("w", &["k"]));
        w.insert(vec![Value::str("elsewhere")]);
        let sw = RelStats::compute(&w);
        let sel = mcv_join_overlap(&su, 0, &sw, 0).unwrap();
        assert!(sel > 0.0 && sel < 0.25, "disjoint floor, got {sel}");
        // Missing column or empty relation: no estimate.
        assert_eq!(mcv_join_overlap(&su, 7, &sw, 0), None);
        let empty = RelStats::compute(&Relation::new(RelSchema::text("e", &["k"])));
        assert_eq!(mcv_join_overlap(&su, 0, &empty, 0), None);
    }

    #[test]
    fn join_stats_normalize_keys_and_report_material_change() {
        let mut js = JoinStats::default();
        assert!(js.is_empty());
        assert!(js.note("B.r", 1, "A.r", 0, 0.125), "first observation is a change");
        // Symmetric lookup through the normalized key.
        assert_eq!(js.overlap("A.r", 0, "B.r", 1), Some(0.125));
        assert_eq!(js.overlap("B.r", 1, "A.r", 0), Some(0.125));
        assert_eq!(js.overlap("A.r", 0, "B.r", 0), None);
        // Re-observing the same value is not a material change...
        assert!(!js.note("A.r", 0, "B.r", 1, 0.125));
        // ...but a different value is.
        assert!(js.note("A.r", 0, "B.r", 1, 0.5));
        assert_eq!(js.len(), 1);
        // The dump is deterministic and carries the observation count.
        assert_eq!(js.dump(), "A.r[0] ⋈ B.r[1]  sel 5.000000e-1  obs 3\n");
    }

    #[test]
    fn join_stats_filter_and_absorb() {
        let mut js = JoinStats::default();
        js.note("A.r", 0, "B.r", 0, 0.1);
        js.note("B.r", 1, "C.r", 0, 0.2);
        let only_a = js.mentioning("A.r");
        assert_eq!(only_a.len(), 1);
        assert_eq!(only_a.overlap("A.r", 0, "B.r", 0), Some(0.1));
        let mut other = JoinStats::default();
        other.note("A.r", 0, "B.r", 0, 0.9);
        js.absorb(&other);
        assert_eq!(js.len(), 2);
        assert_eq!(js.overlap("A.r", 0, "B.r", 0), Some(0.9), "absorb overwrites");
    }
}
