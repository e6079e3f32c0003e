//! E8: updategrams and incremental view maintenance.

use crate::fixtures::big_relation;
use crate::table::{f2, ms, Table};
use revere_pdms::{maintain, MaintenanceChoice, MaterializedView, Updategram};
use revere_query::parse_query;
use revere_storage::{Catalog, Value};
use std::time::Instant;

/// E8 — §3.1.2: incremental maintenance beats invalidate-and-recompute
/// for small deltas; the cost model finds the crossover.
pub fn e8_updategrams() -> Table {
    let mut t = Table::new(
        "E8: updategram maintenance vs recompute (\u{a7}3.1.2)",
        &[
            "base rows", "delta rows", "delta %", "incremental ms", "recompute ms",
            "speedup", "cost model picks",
        ],
    );
    let base_rows = 50_000usize;
    let domain = 1_000i64;
    for &delta_pct in &[0.05f64, 0.5, 2.0, 10.0, 40.0, 150.0] {
        let delta_rows = ((base_rows as f64) * delta_pct / 100.0).round() as usize;
        let make = || {
            let mut c = Catalog::new();
            c.register(big_relation("r", base_rows, domain));
            c.register(big_relation("s", base_rows / 5, domain));
            let v = MaterializedView::new(
                "v",
                parse_query("v(A, C) :- r(A, B), s(B, C)").unwrap(),
                &c,
            )
            .unwrap();
            (c, v)
        };
        let gram = || Updategram {
            relation: "r".into(),
            insert: (0..delta_rows)
                .map(|i| vec![Value::Int((i as i64 * 7) % domain), Value::Int((i as i64 * 3) % domain)])
                .collect(),
            delete: Vec::new(),
        };

        let (mut c1, mut v1) = make();
        let g1 = gram();
        let start = Instant::now();
        maintain(&mut c1, &mut v1, &[g1], Some(MaintenanceChoice::Incremental)).unwrap();
        let inc = start.elapsed();

        let (mut c2, mut v2) = make();
        let g2 = gram();
        let start = Instant::now();
        maintain(&mut c2, &mut v2, &[g2], Some(MaintenanceChoice::Recompute)).unwrap();
        let rec = start.elapsed();

        assert_eq!(
            v1.as_relation().rows(),
            v2.as_relation().rows(),
            "maintenance paths diverged"
        );

        // What does the cost model choose, unforced?
        let (mut c3, mut v3) = make();
        let g3 = gram();
        let report = maintain(&mut c3, &mut v3, &[g3], None).unwrap();

        t.row(vec![
            base_rows.to_string(),
            delta_rows.to_string(),
            f2(delta_pct),
            ms(inc),
            ms(rec),
            f2(rec.as_secs_f64() / inc.as_secs_f64().max(1e-9)),
            match report.choice {
                MaintenanceChoice::Incremental => "incremental",
                MaintenanceChoice::Recompute => "recompute",
            }
            .to_string(),
        ]);
    }
    t
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn e8_incremental_wins_small_deltas_and_model_tracks_it() {
        let t = e8_updategrams();
        // Smallest delta: incremental much faster; model says incremental.
        let first = &t.rows[0];
        let speedup: f64 = first[5].parse().unwrap();
        assert!(speedup > 2.0, "small-delta speedup {speedup}: {first:?}");
        assert_eq!(first[6], "incremental");
        // The cost model's crossover lies inside the sweep: the largest
        // delta (150% of base) flips it to recompute.
        let last = t.rows.last().unwrap();
        assert_eq!(last[6], "recompute", "{last:?}");
        // Speedup decays monotonically-ish: last ratio below first.
        let last_speedup: f64 = last[5].parse().unwrap();
        assert!(last_speedup < speedup, "{t}");
    }
}
