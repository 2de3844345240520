//! Fill-reducing orderings, built from scratch.
//!
//! The paper (Section 3.1) pre-orders the 2-D/3-D grid problems with nested
//! dissection ("asymptotically optimal for these problems") and the irregular
//! Harwell-Boeing problems with multiple minimum degree. This crate provides
//! both, plus a coordinate-free dissection:
//!
//! * [`minimum_degree`] — a quotient-graph minimum external degree ordering
//!   with supervariable (indistinguishable node) merging and element
//!   absorption. This is the same algorithm family as Liu's MMD; we perform
//!   single elimination rather than multiple elimination, which affects
//!   ordering *speed*, not fill quality.
//! * [`nested_dissection`] — geometric nested dissection for problems with
//!   node coordinates, recursing on coordinate-median planes and ordering
//!   separators last, with minimum degree on the base regions.
//! * [`mod@nd_graph`] — graph-based nested dissection for patterns *without*
//!   coordinates: supervariable compression, multilevel heavy-edge
//!   coarsening ([`coarsen`]), BFS level-set bisection of the coarsest
//!   graph, and Fiduccia–Mattheyses separator refinement ([`fm`]) during
//!   projection, minimum degree on base regions.
//! * [`probe_structure`] — the structure probe that resolves an `Auto`
//!   ordering choice deterministically from the pattern: a trial bisection
//!   (separator weight, balance, growth exponent) scored against an exact
//!   minimum-degree fill sample.
//! * [`Orderer`] — one matrix's adjacency graph, its supervariable quotient
//!   and the scratch workspace all of the above run in. The free functions
//!   are thin wrappers over a fresh one; an analysis that probes and then
//!   orders builds one and asks it for both, so the graph and the
//!   compression are built once and the recursion allocates nothing.
//! * [`order_problem`] / [`order_problem_with_tree`] — applies the ordering
//!   the paper uses for a given benchmark problem; the `_with_tree` variant
//!   also returns the [`SeparatorTree`] when dissection ran, which drives
//!   subtree-parallel symbolic analysis and proportional mapping downstream.
//!
//! The [`mod@reference`] module contains a naive "elimination game" used by tests
//! (here and in dependent crates) to validate fill counts independently.

pub mod coarsen;
pub mod fm;
pub mod mindeg;
pub mod nd;
pub mod nd_graph;
pub mod probe;
pub mod reference;
pub mod septree;
mod workspace;

pub use mindeg::minimum_degree;
pub use nd::{nested_dissection, nested_dissection_with_tree, BaseOrdering, NdOptions};
pub use nd_graph::{nd_graph, NdGraphOptions, RefineKind};
pub use probe::{probe_structure, ProbeChoice, ProbeReport};
pub use septree::SeparatorTree;
pub use workspace::{compressions_on_this_thread, OrderPhases, Orderer};

use sparsemat::gen::OrderingHint;
use sparsemat::{Graph, Permutation, Problem};

/// Orders a benchmark problem the way the paper does: nested dissection for
/// grid/cube problems (they carry coordinates), minimum degree for irregular
/// problems, and the natural order for dense ones.
pub fn order_problem(p: &Problem) -> Permutation {
    order_problem_with_tree(p).0
}

/// [`order_problem`], also returning the separator tree when the chosen
/// ordering was a dissection (geometric or graph-based). Minimum-degree and
/// natural orderings have no tree.
pub fn order_problem_with_tree(p: &Problem) -> (Permutation, Option<SeparatorTree>) {
    let g = Graph::from_pattern(p.matrix.pattern());
    match (p.ordering, &p.coords) {
        (OrderingHint::Natural, _) => (Permutation::identity(p.n()), None),
        (OrderingHint::NestedDissection, Some(coords)) => {
            let (perm, tree) = nested_dissection_with_tree(&g, coords, &NdOptions::default());
            (perm, Some(tree))
        }
        // No coordinates: dissect the graph structure directly.
        (OrderingHint::NestedDissection, None) => {
            let (perm, tree) = nd_graph(&g, &NdGraphOptions::default());
            (perm, Some(tree))
        }
        (OrderingHint::MinimumDegree, _) => (minimum_degree(&g), None),
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use sparsemat::gen;

    #[test]
    fn order_problem_dispatches() {
        let dense = gen::dense(10);
        assert_eq!(order_problem(&dense), Permutation::identity(10));

        let grid = gen::grid2d(6);
        let (p, tree) = order_problem_with_tree(&grid);
        assert_eq!(p.len(), 36);
        assert!(tree.is_some(), "geometric nd must return a tree");

        let irr = gen::bcsstk_like("T", 60, 1);
        let (p, tree) = order_problem_with_tree(&irr);
        assert_eq!(p.len(), irr.n());
        assert!(tree.is_none(), "minimum degree has no separator tree");
    }

    #[test]
    fn nd_without_coords_uses_graph_dissection() {
        let mut p = gen::bcsstk_like("T", 400, 1);
        p.coords = None;
        p.ordering = gen::OrderingHint::NestedDissection;
        let (perm, tree) = order_problem_with_tree(&p);
        assert_eq!(perm.len(), p.n());
        let tree = tree.expect("nd_graph returns a tree");
        tree.validate().unwrap();
    }
}
