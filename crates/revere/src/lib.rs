//! # REVERE — Crossing the Structure Chasm
//!
//! A full reproduction of the system sketched in *Crossing the Structure
//! Chasm* (Halevy, Etzioni, Doan, Ives, McDowell, Tatarinov, Madhavan —
//! CIDR 2003). REVERE attacks the gap between the unstructured world
//! (easy authoring, keyword search, graceful degradation) and the
//! structured world (schemas, exact queries, brittle sharing) with three
//! coupled components:
//!
//! 1. **MANGROVE** ([`mangrove`]) — in-place annotation of HTML,
//!    publish-to-visible instant gratification applications, and deferred
//!    integrity constraints with provenance-based cleaning.
//! 2. **Piazza** ([`pdms`]) — a peer data management system: GLAV mappings
//!    between pairs of peers, query reformulation over the transitive
//!    closure of the mapping graph, XML mapping templates, materialized
//!    views and updategram-based incremental maintenance.
//! 3. **Statistics over structures** ([`corpus`]) — a corpus of schemas
//!    with term-usage/co-occurrence statistics, LSD-style multi-strategy
//!    matchers, the `DesignAdvisor` and `MatchingAdvisor` tools, and
//!    keyword-to-query reformulation.
//!
//! Substrates built for the reproduction: an XML data model ([`xml`]), a
//! relational + triple storage engine ([`storage`]), a conjunctive-query
//! stack with containment, MiniCon and GAV unfolding ([`query`]), and
//! deterministic workload generators ([`workload`]).
//!
//! ## Quickstart
//!
//! ```
//! use revere::prelude::*;
//!
//! // A two-peer PDMS: pose the query at MIT, get Berkeley's data too.
//! let mut net = PdmsNetwork::new();
//! for (name, rel) in [("MIT", "subject"), ("Berkeley", "course")] {
//!     let mut peer = Peer::new(name);
//!     let mut data = Relation::new(RelSchema::text(rel, &["title"]));
//!     data.insert(vec![Value::str(format!("{name} special topics"))]);
//!     peer.add_relation(data);
//!     net.add_peer(peer);
//! }
//! net.add_mapping(GlavMapping::parse(
//!     "m", "Berkeley", "MIT",
//!     "m(T) :- Berkeley.course(T) ==> m(T) :- MIT.subject(T)",
//! ).unwrap());
//! let out = net.query_str("MIT", "q(T) :- MIT.subject(T)").unwrap();
//! assert_eq!(out.answers.len(), 2);
//! ```

pub use revere_corpus as corpus;
pub use revere_mangrove as mangrove;
pub use revere_pdms as pdms;
pub use revere_query as query;
pub use revere_storage as storage;
pub use revere_workload as workload;
pub use revere_xml as xml;

/// The commonly-used types, one `use` away.
pub mod prelude {
    pub use revere_corpus::{
        Corpus, CorpusEntry, CorpusStats, DesignAdvisor, Learner, MatchQuality, MatchingAdvisor,
        MultiStrategyClassifier, QueryReformulator,
    };
    pub use revere_mangrove::{
        CleaningPolicy, CourseCalendar, CrawlBaseline, Mangrove, MangroveSchema, PhoneDirectory,
        WhosWho,
    };
    pub use revere_pdms::fault::{FaultPlan, FaultSpec, RetryPolicy};
    pub use revere_pdms::obs::{Metrics, MetricsSnapshot, Obs, SpanHandle, Tracer};
    pub use revere_pdms::{
        apply_once, apply_updategrams, gram_to_batch, maintain, CacheStats, CompletenessReport,
        GramInbox, Health, MaintenanceChoice, MaterializedView, Monitor, MonitorEvent,
        PdmsError, PdmsNetwork, Peer, PeerAccounting, PeerVitals, PublishReport,
        QueryBudget, QueryOutcome,
        ReformulateOptions, Reformulator, ReliableLink, SequencedGram, Subscription, Updategram,
        XmlMapping,
    };
    pub use revere_query::{
        contained_in, eval_bindings, eval_cq, eval_cq_bag, eval_naive, eval_naive_bag,
        eval_naive_profiles, eval_naive_union, eval_planned, eval_union, explain_analyze,
        minimize, parse_query, plan_cq, q_error, rewrite_using_views, unfold_with, Arrangement,
        Circuit, ConjunctiveQuery, ExplainAnalyze, GlavMapping, JoinState, Plan, StepProfile,
        UnionQuery, ViewDef,
    };
    pub use revere_storage::{
        Catalog, ColumnVec, ColumnarBatch, DbSchema, Journal, RelSchema, Relation,
        TripleStore, Value, WalRecord, ZSet, ZSetBatch,
    };
    pub use revere_workload::{
        course_templates, PageGenerator, QueryMix, Topology, TopologyKind, University,
        UniversityGenerator,
    };
    pub use revere_xml::{parse as parse_xml, Document, Dtd, Path as XmlPath};
}
