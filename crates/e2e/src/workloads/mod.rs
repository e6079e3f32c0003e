//! The workloads and their sizes.

pub mod ingest;
pub mod query;
pub mod shadow;
pub mod update;

/// Sizes of the two query workloads (`query_warm`, `query_churn`).
#[derive(Debug, Clone)]
pub struct QueryScale {
    /// Peers in the overlay.
    pub peers: usize,
    /// Peer `i` stores `base_rows * (1 + i % 3)` course rows.
    pub base_rows: usize,
    /// Distinct query templates posed at `P0`.
    pub templates: usize,
    /// Zipf skew of the template mix (0 = uniform).
    pub zipf_s: f64,
    /// Queries per cycle; each cycle poses the same deck of templates.
    pub cycle_queries: usize,
    /// Dataflow subscriptions at `P0` (the first templates).
    pub subscriptions: usize,
    /// A publish precedes every `publish_every`-th query (0 = never).
    pub publish_every: usize,
    /// Rows per published gram.
    pub gram_rows: usize,
    /// A query is checked against the reference on a template's first
    /// occurrence and on every `check_every`-th query.
    pub check_every: usize,
    /// Check against the nested-loop oracle (`eval_naive_union`); when
    /// false, against a freshly planned uncached `eval_union`. The oracle
    /// is quadratic in the relation size on the self-join templates.
    pub naive_reference: bool,
}

/// Sizes of `update_fanout`.
#[derive(Debug, Clone)]
pub struct UpdateScale {
    /// Rows of `Hub.r(a, b)`.
    pub r_rows: usize,
    /// Rows of `Hub.s(b, c)`.
    pub s_rows: usize,
    /// Join-column domain.
    pub domain: i64,
    /// Dataflow subscriptions of the join at the hub.
    pub subscribers: usize,
    /// Gram `g` inserts this many fresh rows and deletes those of gram
    /// `g - retire_after`, so the data size is stationary.
    pub gram_rows: usize,
    pub retire_after: usize,
    /// Hub and replica checkpoint after every this many grams; one
    /// cycle of the workload.
    pub checkpoint_every: usize,
    /// The reference checks run after every this many grams, and at the end.
    pub check_every: usize,
    /// As [`QueryScale::naive_reference`], for the from-scratch join.
    pub naive_reference: bool,
}

/// Sizes of `ingest_site`.
#[derive(Debug, Clone)]
pub struct IngestScale {
    pub courses: usize,
    pub people: usize,
    /// Pages republished per revision round.
    pub slice_pages: usize,
    /// `TripleStore::compact` runs after every this many rounds; one
    /// cycle of the workload.
    pub compact_every: usize,
}

/// Sizes of all four workloads.
#[derive(Debug, Clone)]
pub struct Scale {
    pub query_warm: QueryScale,
    pub query_churn: QueryScale,
    pub update_fanout: UpdateScale,
    pub ingest_site: IngestScale,
}

impl Scale {
    /// The sizes the benchmark reports at.
    pub fn full() -> Scale {
        Scale {
            query_warm: QueryScale {
                peers: 6,
                base_rows: 400,
                templates: 12,
                zipf_s: 1.2,
                cycle_queries: 100,
                subscriptions: 0,
                publish_every: 0,
                gram_rows: 0,
                check_every: 50,
                naive_reference: false,
            },
            query_churn: QueryScale {
                peers: 10,
                base_rows: 40,
                templates: 12,
                zipf_s: 0.0,
                cycle_queries: 96,
                subscriptions: 4,
                publish_every: 8,
                gram_rows: 4,
                check_every: 50,
                naive_reference: false,
            },
            update_fanout: UpdateScale {
                r_rows: 2_000,
                s_rows: 400,
                domain: 200,
                subscribers: 100,
                gram_rows: 4,
                retire_after: 64,
                checkpoint_every: 256,
                check_every: 1_000,
                naive_reference: false,
            },
            ingest_site: IngestScale {
                courses: 4_000,
                people: 4_000,
                slice_pages: 2_000,
                compact_every: 24,
            },
        }
    }

    /// A hundredth of the work, for the smoke tests: small enough that
    /// every reference check runs against the nested-loop oracle.
    pub fn smoke() -> Scale {
        let full = Scale::full();
        Scale {
            query_warm: QueryScale {
                peers: 4,
                base_rows: 8,
                cycle_queries: 12,
                check_every: 5,
                naive_reference: true,
                ..full.query_warm
            },
            query_churn: QueryScale {
                peers: 4,
                base_rows: 4,
                cycle_queries: 12,
                subscriptions: 2,
                publish_every: 4,
                check_every: 5,
                naive_reference: true,
                ..full.query_churn
            },
            update_fanout: UpdateScale {
                r_rows: 60,
                s_rows: 20,
                domain: 10,
                subscribers: 3,
                retire_after: 4,
                checkpoint_every: 8,
                check_every: 10,
                naive_reference: true,
                ..full.update_fanout
            },
            ingest_site: IngestScale {
                courses: 30,
                people: 30,
                slice_pages: 16,
                compact_every: 3,
            },
        }
    }
}
