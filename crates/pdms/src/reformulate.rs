//! Query reformulation over the transitive closure of peer mappings.
//!
//! §3.1.1: "a query should be rewritten using sources reachable through the
//! transitive closure of all mappings. However, mappings are defined
//! 'directionally' with query expressions (using the GLAV formalism \[19\]),
//! and a given user query may have to be evaluated against the mapping in
//! either the 'forward' or 'backward' direction. This means that our query
//! answering algorithm has aspects of both global-as-view and
//! local-as-view: it performs query unfolding and query reformulation using
//! views. In addition, our query answering algorithm is aided by heuristics
//! that prune redundant and irrelevant paths through the space of
//! mappings."
//!
//! The algorithm here is the rule-goal expansion of Halevy et al.
//! (ICDE'03) \[25\], phrased at query granularity:
//!
//! 1. Start from the user query (peer-qualified relations). It is itself
//!    the first answer node (local data answers it).
//! 2. To expand a query node, run MiniCon with (a) one *identity view* per
//!    concrete relation in the node (so goals may stay put) and (b) the
//!    LAV side of every candidate mapping — forward mappings into the
//!    node's peers and, because mappings are traversed in both directions,
//!    the reversed mappings too. Each resulting rewriting's virtual
//!    mapping atoms are then unfolded through the corresponding GAV side,
//!    yielding a new concrete query over *other* peers' vocabularies.
//! 3. Every distinct node is a disjunct of the answer (the union over all
//!    reachable peers); expansion continues breadth-first to a depth bound.
//!
//! Pruning heuristics (ablatable — experiment E2):
//! * **relevance** — only mappings whose LAV body shares a relation with
//!   the node are offered to MiniCon;
//! * **containment** — a new node contained in an already-accepted node is
//!   redundant (adds no answers) and is dropped along with its subtree;
//! * **minimization** — nodes are minimized before dedup, collapsing
//!   isomorphic variants that differ only by redundant atoms.
//!
//! The visited-set on canonical forms is always on: it is what guarantees
//! termination on cyclic mapping graphs, not a heuristic.

use revere_query::glav::GlavMapping;
use revere_query::unfold::{unfold_with, ViewDef};
use revere_query::{contained_in, minimize, ConjunctiveQuery, UnionQuery, ViewCover};
use std::collections::{BTreeSet, HashSet, VecDeque};

/// Tuning knobs for reformulation: two bounds on the search and the E2
/// pruning ablation. There is no direction knob — mappings are always
/// traversed forward and backward. Hashable: together with the query's
/// text they key the network's reformulation cache.
#[derive(Debug, Clone, PartialEq, Eq, Hash)]
pub struct ReformulateOptions {
    /// Maximum mapping-graph hops from the querying peer.
    pub max_depth: usize,
    /// Cap on produced disjuncts (safety valve; `usize::MAX` = unbounded).
    pub max_rewritings: usize,
    /// Enable the relevance / containment / minimization heuristics
    /// (off only for the E2 ablation).
    pub pruning: bool,
}

impl Default for ReformulateOptions {
    fn default() -> Self {
        ReformulateOptions {
            max_depth: 8,
            max_rewritings: 4096,
            pruning: true,
        }
    }
}

/// Statistics and output of one reformulation.
#[derive(Debug, Clone)]
pub struct ReformulationResult {
    /// The reformulated query: a union over every reachable peer's
    /// vocabulary (the original query is always the first disjunct).
    pub union: UnionQuery,
    /// Query nodes expanded (MiniCon invocations).
    pub nodes_expanded: usize,
    /// Candidate nodes generated before dedup/pruning.
    pub candidates_generated: usize,
    /// Candidates dropped by the containment heuristic.
    pub pruned_by_containment: usize,
    /// Candidates dropped by the visited set.
    pub pruned_by_visited: usize,
    /// Peers whose vocabulary appears in the final union.
    pub peers_reached: BTreeSet<String>,
}

/// A reformulation engine over a fixed mapping graph.
#[derive(Debug, Clone)]
pub struct Reformulator {
    mappings: Vec<GlavMapping>,
    options: ReformulateOptions,
}

impl Reformulator {
    /// Build from the network's mappings.
    pub fn new(mappings: Vec<GlavMapping>, options: ReformulateOptions) -> Self {
        Reformulator { mappings, options }
    }

    /// All mappings plus their reversals: the paper's "forward or
    /// backward direction".
    fn edge_set(&self) -> Vec<GlavMapping> {
        let mut edges = self.mappings.clone();
        edges.extend(self.mappings.iter().map(GlavMapping::reversed));
        edges
    }

    /// Reformulate `query` (posed in some peer's vocabulary) into a union
    /// over every vocabulary reachable through the mapping graph.
    pub fn reformulate(&self, query: &ConjunctiveQuery) -> ReformulationResult {
        let edges = self.edge_set();
        let mut result = ReformulationResult {
            union: UnionQuery::default(),
            nodes_expanded: 0,
            candidates_generated: 0,
            pruned_by_containment: 0,
            pruned_by_visited: 0,
            peers_reached: BTreeSet::new(),
        };
        let mut visited: HashSet<String> = HashSet::new();
        let mut accepted: Vec<ConjunctiveQuery> = Vec::new();

        let root = if self.options.pruning { minimize(query) } else { query.clone() };
        visited.insert(root.canonical_key());
        accepted.push(root.clone());
        result.union.disjuncts.push(root.clone());

        let mut frontier: VecDeque<(ConjunctiveQuery, usize)> = VecDeque::from([(root, 0)]);
        while let Some((node, depth)) = frontier.pop_front() {
            if depth >= self.options.max_depth
                || result.union.len() >= self.options.max_rewritings
            {
                continue;
            }
            result.nodes_expanded += 1;
            for candidate in self.expand(&node, &edges) {
                result.candidates_generated += 1;
                let candidate = if self.options.pruning {
                    minimize(&candidate)
                } else {
                    candidate
                };
                let key = candidate.canonical_key();
                if !visited.insert(key) {
                    result.pruned_by_visited += 1;
                    continue;
                }
                if self.options.pruning
                    && accepted.iter().any(|a| contained_in(&candidate, a))
                {
                    result.pruned_by_containment += 1;
                    continue;
                }
                // `visited` holds every accepted key, so the union needs
                // no dedup of its own.
                accepted.push(candidate.clone());
                result.union.disjuncts.push(candidate.clone());
                frontier.push_back((candidate, depth + 1));
                if result.union.len() >= self.options.max_rewritings {
                    break;
                }
            }
        }

        for d in &result.union.disjuncts {
            for a in &d.body {
                if let Some((peer, _)) = crate::peer::split_qualified(&a.relation) {
                    result.peers_reached.insert(peer.to_string());
                }
            }
        }
        result
    }

    /// One expansion step: rewrite `node` through each single mapping edge,
    /// letting un-mapped goals pass through identity views.
    fn expand(&self, node: &ConjunctiveQuery, edges: &[GlavMapping]) -> Vec<ConjunctiveQuery> {
        // Identity views: id__rel(vars) :- rel(vars) for each relation used
        // by the node, so MiniCon can leave goals in place.
        let node_relations: BTreeSet<&str> =
            node.body.iter().map(|a| a.relation.as_str()).collect();
        let mut identity_views: Vec<ViewDef> = Vec::new();
        for (i, a) in node.body.iter().enumerate() {
            let rel = &a.relation;
            let vars: Vec<revere_query::Term> = (0..a.terms.len())
                .map(|k| revere_query::Term::var(format!("Id{i}_{k}")))
                .collect();
            let id_name = format!("id__{i}__{rel}");
            let head = revere_query::Atom::new(id_name, vars.clone());
            let body = vec![revere_query::Atom::new(rel.clone(), vars)];
            identity_views.push(ViewDef { head, body });
        }
        // The identity views' MCDs are the same for every edge: form them
        // once per node.
        let cover = ViewCover::new(node, &identity_views);

        let mut out = Vec::new();
        for m in edges {
            if self.options.pruning {
                // Relevance: the mapping's LAV body must mention one of the
                // node's relations.
                let relevant = m
                    .target_body
                    .iter()
                    .any(|a| node_relations.contains(a.relation.as_str()));
                if !relevant {
                    continue;
                }
            }
            // Unfold: mapping atoms via the GAV rule, identity atoms back
            // to their base relations. Only rewritings that use the
            // mapping come back; pure-identity ones reproduce the node.
            let mut defs = identity_views.clone();
            defs.push(m.gav_rule());
            for rw in cover.rewrite_through(&m.lav_view()) {
                for expanded in unfold_with(&rw, &defs, 16) {
                    if expanded.is_safe() {
                        out.push(expanded);
                    }
                }
            }
        }
        out
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use revere_query::parse_query;

    fn mapping(name: &str, src: &str, tgt: &str, body: &str) -> GlavMapping {
        GlavMapping::parse(name, src, tgt, body).unwrap()
    }

    /// Berkeley -> MIT mapping over simplified relational peer schemas.
    fn berkeley_mit() -> GlavMapping {
        mapping(
            "m_bm",
            "Berkeley",
            "MIT",
            "m(T, E) :- Berkeley.course(T, E) ==> m(T, E) :- MIT.subject(T, E)",
        )
    }

    #[test]
    fn single_hop_translation() {
        let r = Reformulator::new(vec![berkeley_mit()], ReformulateOptions::default());
        let q = parse_query("q(T) :- MIT.subject(T, E)").unwrap();
        let res = r.reformulate(&q);
        assert_eq!(res.union.len(), 2, "{}", res.union);
        assert!(res.peers_reached.contains("Berkeley"));
        assert!(res.peers_reached.contains("MIT"));
    }

    #[test]
    fn transitive_two_hops() {
        // Tsinghua -> Berkeley -> MIT; query at MIT reaches Tsinghua.
        let m1 = berkeley_mit();
        let m2 = mapping(
            "m_tb",
            "Tsinghua",
            "Berkeley",
            "m(T, E) :- Tsinghua.kecheng(T, E) ==> m(T, E) :- Berkeley.course(T, E)",
        );
        let r = Reformulator::new(vec![m1, m2], ReformulateOptions::default());
        let q = parse_query("q(T) :- MIT.subject(T, E)").unwrap();
        let res = r.reformulate(&q);
        assert_eq!(res.union.len(), 3, "{}", res.union);
        assert!(res.peers_reached.contains("Tsinghua"));
    }

    #[test]
    fn backward_traversal_reaches_target_side() {
        // Query at Berkeley (the mapping's SOURCE side): only reachable
        // via the reversed mapping.
        let r = Reformulator::new(vec![berkeley_mit()], ReformulateOptions::default());
        let q = parse_query("q(T) :- Berkeley.course(T, E)").unwrap();
        let res = r.reformulate(&q);
        assert_eq!(res.union.len(), 2);
        assert!(res.peers_reached.contains("MIT"));
    }

    #[test]
    fn depth_limit_bounds_reach() {
        let m1 = berkeley_mit();
        let m2 = mapping(
            "m_tb",
            "Tsinghua",
            "Berkeley",
            "m(T, E) :- Tsinghua.kecheng(T, E) ==> m(T, E) :- Berkeley.course(T, E)",
        );
        let r = Reformulator::new(
            vec![m1, m2],
            ReformulateOptions { max_depth: 1, ..Default::default() },
        );
        let q = parse_query("q(T) :- MIT.subject(T, E)").unwrap();
        let res = r.reformulate(&q);
        assert_eq!(res.union.len(), 2, "depth 1 must stop at Berkeley");
    }

    #[test]
    fn cyclic_mapping_graph_terminates() {
        // A <-> B <-> C <-> A cycle.
        let ms = vec![
            mapping("ab", "A", "B", "m(X) :- A.r(X) ==> m(X) :- B.r(X)"),
            mapping("bc", "B", "C", "m(X) :- B.r(X) ==> m(X) :- C.r(X)"),
            mapping("ca", "C", "A", "m(X) :- C.r(X) ==> m(X) :- A.r(X)"),
        ];
        let r = Reformulator::new(ms, ReformulateOptions::default());
        let q = parse_query("q(X) :- A.r(X)").unwrap();
        let res = r.reformulate(&q);
        assert_eq!(res.union.len(), 3);
        assert_eq!(res.peers_reached.len(), 3);
    }

    #[test]
    fn join_query_translates_atom_wise() {
        // Two-atom query; mapping only covers one relation. The other goal
        // passes through the identity view.
        let m = mapping(
            "m1",
            "A",
            "B",
            "m(X, Y) :- A.r(X, Y) ==> m(X, Y) :- B.r(X, Y)",
        );
        let r = Reformulator::new(vec![m], ReformulateOptions::default());
        let q = parse_query("q(X, Z) :- B.r(X, Y), B.s(Y, Z)").unwrap();
        let res = r.reformulate(&q);
        // Local + (A.r ⋈ B.s) hybrid.
        assert!(res.union.len() >= 2, "{}", res.union);
        assert!(res
            .union
            .disjuncts
            .iter()
            .any(|d| d.body.iter().any(|a| a.relation == "A.r")
                && d.body.iter().any(|a| a.relation == "B.s")));
    }

    #[test]
    fn complex_mapping_bodies() {
        // Mapping whose source side is a join (GAV direction splits into
        // two source atoms).
        let m = mapping(
            "m1",
            "A",
            "B",
            "m(T, P) :- A.course(C, T), A.teaches(P, C) ==> m(T, P) :- B.offering(T, P)",
        );
        let r = Reformulator::new(vec![m], ReformulateOptions::default());
        let q = parse_query("q(T) :- B.offering(T, P)").unwrap();
        let res = r.reformulate(&q);
        assert_eq!(res.union.len(), 2);
        let translated = &res.union.disjuncts[1];
        assert_eq!(translated.body.len(), 2);
    }

    #[test]
    fn pruning_reduces_candidates_without_losing_peers() {
        // Chain of 5 peers; compare pruned vs unpruned.
        let ms: Vec<GlavMapping> = (0..4)
            .map(|i| {
                mapping(
                    &format!("m{i}"),
                    &format!("P{i}"),
                    &format!("P{}", i + 1),
                    &format!("m(X, Y) :- P{i}.r(X, Y) ==> m(X, Y) :- P{}.r(X, Y)", i + 1),
                )
            })
            .collect();
        let q = parse_query("q(X) :- P4.r(X, Y)").unwrap();
        let pruned = Reformulator::new(ms.clone(), ReformulateOptions::default()).reformulate(&q);
        let unpruned = Reformulator::new(
            ms,
            ReformulateOptions { pruning: false, ..Default::default() },
        )
        .reformulate(&q);
        assert_eq!(pruned.peers_reached.len(), 5);
        assert_eq!(unpruned.peers_reached.len(), 5);
        assert!(
            pruned.nodes_expanded <= unpruned.nodes_expanded,
            "pruned {} > unpruned {}",
            pruned.nodes_expanded,
            unpruned.nodes_expanded
        );
    }

    #[test]
    fn irrelevant_mappings_do_not_expand_the_search() {
        let relevant = berkeley_mit();
        let mut ms = vec![relevant];
        for i in 0..10 {
            ms.push(mapping(
                &format!("noise{i}"),
                &format!("X{i}"),
                &format!("Y{i}"),
                &format!("m(A) :- X{i}.foo(A) ==> m(A) :- Y{i}.bar(A)"),
            ));
        }
        let r = Reformulator::new(ms, ReformulateOptions::default());
        let q = parse_query("q(T) :- MIT.subject(T, E)").unwrap();
        let res = r.reformulate(&q);
        assert_eq!(res.union.len(), 2);
        assert_eq!(res.peers_reached.len(), 2);
    }

    #[test]
    fn max_rewritings_caps_output() {
        let ms: Vec<GlavMapping> = (0..6)
            .map(|i| {
                mapping(
                    &format!("m{i}"),
                    &format!("P{i}"),
                    "Hub",
                    &format!("m(X) :- P{i}.r(X) ==> m(X) :- Hub.r(X)"),
                )
            })
            .collect();
        let q = parse_query("q(X) :- Hub.r(X)").unwrap();
        let r = Reformulator::new(
            ms,
            ReformulateOptions { max_rewritings: 3, ..Default::default() },
        );
        let res = r.reformulate(&q);
        assert!(res.union.len() <= 3);
    }
}
