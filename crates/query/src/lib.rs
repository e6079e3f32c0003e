//! Query substrate for the REVERE reproduction.
//!
//! Piazza's query answering "performs query unfolding and query
//! reformulation using views" over GLAV mappings \[19\] (§3.1.1 of the
//! paper). This crate implements the machinery that sentence depends on,
//! from scratch:
//!
//! * [`ast`] — conjunctive queries ([`ConjunctiveQuery`]) and unions of
//!   them ([`UnionQuery`]), with safety checking.
//! * [`parse`] — a datalog-style concrete syntax,
//!   `q(X, T) :- course(X, T, S), S > 100`.
//! * [`unify`] — substitutions and homomorphism search between atom sets.
//! * [`containment`] — query containment and equivalence via containment
//!   mappings (the canonical-database test), plus query [`minimize`].
//! * [`plan`] — statistics-driven join planning: explainable, cacheable
//!   [`Plan`]s costed from catalog statistics and execution feedback.
//! * [`eval`] — plan-driven evaluation of (unions of) conjunctive queries
//!   over a [`revere_storage::Catalog`]: four entry points ([`eval_cq`],
//!   [`eval_cq_bag`], [`eval_planned`], [`eval_bindings`]) over one
//!   engine, plus the nested-loop [`eval_naive`] differential oracle.
//! * `vec` (private) — that engine: vectorized columnar execution with
//!   row-list selections and typed batched hash joins, each phase one
//!   pass on the calling thread.
//! * [`dataflow`] — DBSP-style delta dataflow over `revere_storage`'s
//!   Z-sets: bilinear incremental joins with arranged state, and
//!   [`Circuit`]s that keep a planned conjunctive body fresh in O(|Δ|)
//!   per update.
//! * [`unfold`] — global-as-view unfolding of defined relations.
//! * [`minicon`] — the MiniCon algorithm for answering queries using views
//!   (local-as-view rewriting).
//! * [`glav`] — GLAV mappings normalized into a GAV rule plus a LAV view
//!   over a shared virtual relation, the form the PDMS reformulator
//!   consumes.
//!
//! [`minimize`]: containment::minimize

pub mod ast;
pub mod containment;
pub mod dataflow;
pub mod eval;
pub mod glav;
pub mod minicon;
pub mod parse;
pub mod plan;
pub mod unfold;
pub mod unify;
mod vec;

pub use ast::{Atom, CmpOp, Comparison, ConjunctiveQuery, Term, UnionQuery};
pub use containment::{contained_in, equivalent, minimize};
pub use dataflow::{Arrangement, Circuit, JoinState};
pub use eval::{
    eval_cq, eval_cq_bag, eval_naive, eval_naive_bag, eval_naive_profiles, eval_naive_union,
    eval_union, head_schema, StepProfile,
};
#[doc(hidden)]
pub use eval::{eval_cq_bag_planned_mode, eval_cq_bindings_mode, ExecMode};
pub use vec::{eval_bindings, eval_planned};
pub use plan::{explain_analyze, plan_cq, q_error, ExplainAnalyze, JoinPair, Plan, PlanStep};
pub use glav::GlavMapping;
pub use minicon::{rewrite_using_views, ViewCover};
pub use parse::parse_query;
pub use unfold::{unfold_once, unfold_with, ViewDef};
