//! Weighted graphs and heavy-edge matching coarsening for multilevel
//! dissection.
//!
//! Supervariable compression (identical closed neighborhoods) only collapses
//! *exact* duplicates; mesh interiors keep their full vertex count and a
//! single BFS level cut on them yields wide, jagged separators. The standard
//! remedy is multilevel partitioning: repeatedly contract a heavy-edge
//! matching until the graph is small, bisect the coarsest graph, then project
//! the partition back level by level, refining at each step (see
//! [`crate::fm`]). This module provides the graph representation shared by
//! those stages and the matching-based contraction.
//!
//! A [`LevelGraph`] is a CSR adjacency with integer vertex weights (original
//! vertices represented) and edge weights (original edges crossing the pair).
//! The finest level is built from a region of the (possibly compressed)
//! dissection graph; each coarsening level sums weights so that separator
//! size and balance measured on any level mean the same thing they mean on
//! the original matrix.

use crate::workspace::with_index_map;

/// A weighted undirected graph for one level of the multilevel hierarchy.
///
/// `adj`/`ewt` are parallel CSR arrays; every edge appears in both endpoint
/// lists with the same weight. Vertex `v`'s weight `vwt[v]` counts original
/// matrix columns collapsed into it, so it is at most the matrix order and
/// fits `u32`; an edge weight is a sum of products of such counts, for which
/// no 32-bit bound holds, and stays 64-bit.
#[derive(Debug, Clone, Default)]
pub struct LevelGraph {
    /// CSR row pointers, length `n + 1`.
    pub adj_ptr: Vec<usize>,
    /// Neighbor lists, ascending within each vertex.
    pub adj: Vec<u32>,
    /// Edge weights parallel to `adj`.
    pub ewt: Vec<u64>,
    /// Vertex weights (original columns represented).
    pub vwt: Vec<u32>,
}

/// Result buffers of a [`LevelGraph`] breadth-first search. `level` doubles
/// as the visited set (`u32::MAX` = unreached), so several searches from
/// different starts can share one pass over the graph.
#[derive(Debug, Default)]
pub struct LevelBfs {
    /// Vertices in visit order.
    pub order: Vec<u32>,
    /// Per-vertex level, `u32::MAX` for unreached vertices.
    pub level: Vec<u32>,
}

impl LevelGraph {
    /// Number of vertices.
    pub fn n(&self) -> usize {
        self.vwt.len()
    }

    /// Neighbors of `v`, ascending.
    pub fn neighbors(&self, v: usize) -> &[u32] {
        &self.adj[self.adj_ptr[v]..self.adj_ptr[v + 1]]
    }

    /// Edge weights parallel to [`LevelGraph::neighbors`].
    pub fn edge_weights(&self, v: usize) -> &[u64] {
        &self.ewt[self.adj_ptr[v]..self.adj_ptr[v + 1]]
    }

    /// Total vertex weight.
    pub fn total_weight(&self) -> usize {
        self.vwt.iter().map(|&w| w as usize).sum()
    }

    fn clear(&mut self) {
        self.adj_ptr.clear();
        self.adj.clear();
        self.ewt.clear();
        self.vwt.clear();
        self.adj_ptr.push(0);
    }

    /// Builds the level graph induced by `region` (ascending vertex ids of
    /// `g`), with vertex weights from `vwt_of` and edge weights
    /// `vwt_of(u) * vwt_of(v)` — exact for supervariable quotients, where two
    /// adjacent groups are fully interconnected.
    pub fn from_region(g: &sparsemat::Graph, region: &[u32], vwt_of: impl Fn(u32) -> u32) -> Self {
        let mut lg = LevelGraph::default();
        lg.fill_from_region(g, region, vwt_of, &mut vec![u32::MAX; g.n()]);
        lg
    }

    /// [`LevelGraph::from_region`] into `self`, reusing its arrays. `local`
    /// is the region→local index map: at least `g.n()` long and all
    /// `u32::MAX` on entry; only the region's slots are written, and they are
    /// restored before returning.
    pub(crate) fn fill_from_region(
        &mut self,
        g: &sparsemat::Graph,
        region: &[u32],
        vwt_of: impl Fn(u32) -> u32,
        local: &mut [u32],
    ) {
        debug_assert!(region.windows(2).all(|w| w[0] < w[1]));
        self.clear();
        with_index_map(local, region, |local| {
            for &v in region {
                let wv = vwt_of(v);
                for &u in g.neighbors(v as usize) {
                    let lu = local[u as usize];
                    if lu != u32::MAX {
                        self.adj.push(lu);
                        self.ewt.push(u64::from(wv) * u64::from(vwt_of(u)));
                    }
                }
                self.vwt.push(wv);
                self.adj_ptr.push(self.adj.len());
            }
        });
    }

    /// Builds the sub-level-graph induced by `verts` (ascending local ids)
    /// into `sub`, carrying vertex and edge weights through. `local` is as in
    /// [`LevelGraph::fill_from_region`] (at least `self.n()` long).
    pub(crate) fn fill_subgraph(&self, verts: &[u32], sub: &mut LevelGraph, local: &mut [u32]) {
        debug_assert!(verts.windows(2).all(|w| w[0] < w[1]));
        sub.clear();
        with_index_map(local, verts, |local| {
            for &v in verts {
                let (lo, hi) = (self.adj_ptr[v as usize], self.adj_ptr[v as usize + 1]);
                for k in lo..hi {
                    let lu = local[self.adj[k] as usize];
                    if lu != u32::MAX {
                        sub.adj.push(lu);
                        sub.ewt.push(self.ewt[k]);
                    }
                }
                sub.vwt.push(self.vwt[v as usize]);
                sub.adj_ptr.push(sub.adj.len());
            }
        });
    }

    /// BFS over the whole graph from `start`: visit order and per-vertex
    /// level (`u32::MAX` for unreached vertices of a disconnected graph) are
    /// left in `bfs`.
    pub fn bfs(&self, start: usize, bfs: &mut LevelBfs) {
        self.bfs_begin(bfs);
        self.bfs_from(start, bfs);
    }

    /// Marks every vertex unreached and empties the visit order.
    pub(crate) fn bfs_begin(&self, bfs: &mut LevelBfs) {
        bfs.order.clear();
        bfs.level.clear();
        bfs.level.resize(self.n(), u32::MAX);
    }

    /// Searches from the unreached vertex `start`, appending to the visit
    /// order of earlier searches since [`LevelGraph::bfs_begin`]; the new
    /// component is the tail of `bfs.order`.
    pub(crate) fn bfs_from(&self, start: usize, bfs: &mut LevelBfs) {
        debug_assert_eq!(bfs.level[start], u32::MAX);
        let mut head = bfs.order.len();
        bfs.level[start] = 0;
        bfs.order.push(start as u32);
        while head < bfs.order.len() {
            let v = bfs.order[head] as usize;
            head += 1;
            for &u in self.neighbors(v) {
                if bfs.level[u as usize] == u32::MAX {
                    bfs.level[u as usize] = bfs.level[v] + 1;
                    bfs.order.push(u);
                }
            }
        }
    }
}

/// Contraction scratch for [`coarsen_into`]; every array is re-initialized
/// for the first `n` (fine or coarse) slots on entry, so nothing needs to
/// hold between calls.
#[derive(Debug, Default)]
pub(crate) struct CoarsenScratch {
    /// The one or two fine vertices of each coarse vertex.
    pair: Vec<(u32, u32)>,
    /// Marker: last coarse vertex whose contraction touched `c`.
    seen: Vec<u32>,
    /// Position of `c` in `edges` while `seen[c]` is current.
    slot: Vec<u32>,
    edges: Vec<(u32, u64)>,
}

/// One level of heavy-edge matching contraction.
///
/// Vertices are visited in ascending order; each unmatched vertex pairs with
/// its unmatched neighbor of maximum edge weight (ties: lighter vertex, then
/// smaller index — all deterministic), subject to the merged weight staying
/// under a cap that keeps a balanced bisection of the coarse graph possible.
/// Returns the coarse graph and the fine→coarse vertex map, or `None` when
/// matching no longer shrinks the graph enough to be worth another level.
pub fn coarsen(g: &LevelGraph) -> Option<(LevelGraph, Vec<u32>)> {
    let mut cg = LevelGraph::default();
    let mut map = Vec::new();
    coarsen_into(g, &mut cg, &mut map, &mut CoarsenScratch::default()).then_some((cg, map))
}

/// [`coarsen`] into reusable storage: on `true`, `cg` holds the coarse graph
/// and `map` the fine→coarse vertex map; on `false` both are unspecified.
pub(crate) fn coarsen_into(
    g: &LevelGraph,
    cg: &mut LevelGraph,
    map: &mut Vec<u32>,
    s: &mut CoarsenScratch,
) -> bool {
    let n = g.n();
    if n < 8 {
        return false;
    }
    let total = g.total_weight();
    let max_vwt = (total / 10).max(2);
    const UNMATCHED: u32 = u32::MAX;

    // Matching and coarse numbering in one ascending sweep. A vertex still
    // unmatched at its turn is the smaller endpoint of its pair (every
    // smaller vertex has been matched, if only with itself), so numbering
    // pairs as they form is numbering them by first appearance.
    map.clear();
    map.resize(n, UNMATCHED);
    s.pair.clear();
    for v in 0..n {
        if map[v] != UNMATCHED {
            continue;
        }
        let wv = g.vwt[v] as usize;
        let (mut best, mut best_ewt, mut best_vwt) = (v, 0u64, u32::MAX);
        for (&u, &w) in g.neighbors(v).iter().zip(g.edge_weights(v)) {
            let u = u as usize;
            if u == v || map[u] != UNMATCHED || wv + g.vwt[u] as usize > max_vwt {
                continue;
            }
            if w > best_ewt || (w == best_ewt && g.vwt[u] < best_vwt) {
                best = u;
                best_ewt = w;
                best_vwt = g.vwt[u];
            }
        }
        let c = s.pair.len() as u32;
        map[v] = c;
        map[best] = c;
        s.pair.push((v as u32, if best == v { UNMATCHED } else { best as u32 }));
    }
    let cn = s.pair.len();
    if cn * 20 > n * 19 {
        return false; // matching stalled; another level buys nothing
    }

    cg.clear();
    s.seen.clear();
    s.seen.resize(cn, u32::MAX);
    s.slot.clear();
    s.slot.resize(cn, 0);
    for c in 0..cn {
        s.edges.clear();
        let mut w = 0u32;
        let (first, second) = s.pair[c];
        for f in [first, second] {
            if f == UNMATCHED {
                continue;
            }
            let f = f as usize;
            w += g.vwt[f];
            for (&u, &we) in g.neighbors(f).iter().zip(g.edge_weights(f)) {
                let cu = map[u as usize] as usize;
                if cu == c {
                    continue; // interior edge contracts away
                }
                if s.seen[cu] == c as u32 {
                    s.edges[s.slot[cu] as usize].1 += we;
                } else {
                    s.seen[cu] = c as u32;
                    s.slot[cu] = s.edges.len() as u32;
                    s.edges.push((cu as u32, we));
                }
            }
        }
        // Coarse neighbors are distinct, so this orders by neighbor id.
        s.edges.sort_unstable();
        for &(cu, we) in &s.edges {
            cg.adj.push(cu);
            cg.ewt.push(we);
        }
        cg.vwt.push(w);
        cg.adj_ptr.push(cg.adj.len());
    }
    true
}

#[cfg(test)]
mod tests {
    use super::*;
    use sparsemat::{Graph, SparsityPattern};

    fn path_graph(n: usize) -> LevelGraph {
        let coords: Vec<(u32, u32)> = (1..n as u32).map(|i| (i, i - 1)).collect();
        let p = SparsityPattern::from_coords(n, coords).unwrap();
        let g = Graph::from_pattern(&p);
        let region: Vec<u32> = (0..n as u32).collect();
        LevelGraph::from_region(&g, &region, |_| 1)
    }

    #[test]
    fn coarsen_path_halves_and_preserves_weight() {
        let g = path_graph(64);
        let (cg, map) = coarsen(&g).expect("path must coarsen");
        assert!(cg.n() <= 33, "coarse n {}", cg.n());
        assert_eq!(cg.total_weight(), 64);
        assert_eq!(map.len(), 64);
        // Every coarse edge connects distinct vertices and weights are symmetric.
        for v in 0..cg.n() {
            for (&u, &w) in cg.neighbors(v).iter().zip(cg.edge_weights(v)) {
                assert_ne!(u as usize, v);
                let back = cg
                    .neighbors(u as usize)
                    .iter()
                    .position(|&x| x as usize == v)
                    .expect("symmetric edge");
                assert_eq!(cg.edge_weights(u as usize)[back], w);
            }
        }
    }

    #[test]
    fn coarsen_is_deterministic() {
        let g = path_graph(100);
        let a = coarsen(&g).unwrap();
        let b = coarsen(&g).unwrap();
        assert_eq!(a.1, b.1);
        assert_eq!(a.0.adj, b.0.adj);
        assert_eq!(a.0.vwt, b.0.vwt);
    }

    #[test]
    fn tiny_graphs_do_not_coarsen() {
        let g = path_graph(4);
        assert!(coarsen(&g).is_none());
    }

    #[test]
    fn subgraph_carries_weights() {
        let g = path_graph(10);
        let mut sub = LevelGraph::default();
        g.fill_subgraph(&[2, 3, 4, 7], &mut sub, &mut vec![u32::MAX; g.n()]);
        assert_eq!(sub.n(), 4);
        assert_eq!(sub.total_weight(), 4);
        // 2-3 and 3-4 survive; 7 is isolated within the subgraph.
        assert_eq!(sub.neighbors(1), &[0, 2]);
        assert!(sub.neighbors(3).is_empty());
    }

    #[test]
    fn bfs_levels() {
        let g = path_graph(16);
        let mut bfs = LevelBfs::default();
        g.bfs(8, &mut bfs);
        assert_eq!(bfs.order.len(), 16);
        assert_eq!(bfs.level[8], 0);
        assert_eq!(bfs.level[0], 8);
    }

    #[test]
    fn edge_weights_beyond_u32_survive_coarsening_and_refinement() {
        // A path of 12 quotient vertices whose two middle ones stand for
        // 70 000 merged columns each: the edge between them weighs
        // 4.9e9 > u32::MAX. Vertex weights are bounded by the matrix order
        // and may be narrow; edge weights are products and may not.
        let n = 12usize;
        let coords: Vec<(u32, u32)> = (1..n as u32).map(|i| (i, i - 1)).collect();
        let g = Graph::from_pattern(&SparsityPattern::from_coords(n, coords).unwrap());
        let region: Vec<u32> = (0..n as u32).collect();
        let big = 70_000u32;
        let lg = LevelGraph::from_region(&g, &region, |v| if v == 5 || v == 6 { big } else { 1 });
        let heavy = u64::from(big) * u64::from(big);
        assert!(heavy > u64::from(u32::MAX));
        assert_eq!(lg.edge_weights(5)[1], heavy);
        assert_eq!(lg.edge_weights(6)[0], heavy);
        assert_eq!(lg.total_weight(), 2 * big as usize + 10);

        // Contraction sums edge weights: nothing may wrap on the way up.
        let (cg, map) = coarsen(&lg).expect("path must coarsen");
        assert_eq!(cg.total_weight(), lg.total_weight());
        let fine_cut: u64 = (0..n)
            .flat_map(|v| {
                lg.neighbors(v).iter().zip(lg.edge_weights(v)).map(move |(&u, &w)| (v, u, w))
            })
            .filter(|&(v, u, _)| map[v] != map[u as usize])
            .map(|(_, _, w)| w)
            .sum();
        assert_eq!(cg.ewt.iter().sum::<u64>(), fine_cut);
        // The cap keeps the two heavy vertices apart, so their edge survives
        // at full weight on the coarse level.
        assert_ne!(map[5], map[6]);
        assert!(cg.ewt.contains(&heavy));

        // FM on both levels: gains and side weights are computed from the
        // 70 000-column vertices without overflow, and a valid separator
        // comes out.
        for level in [&lg, &cg] {
            let m = level.n();
            let mut label = vec![crate::fm::SEP; m];
            label[0] = crate::fm::LOW;
            label[m - 1] = crate::fm::HIGH;
            crate::fm::refine(level, &mut label, &crate::fm::FmOptions::default());
            let sep: usize =
                (0..m).filter(|&v| label[v] == crate::fm::SEP).map(|v| level.vwt[v] as usize).sum();
            assert!(sep < level.total_weight() - 2, "nothing moved: {label:?}");
            for v in 0..m {
                let crosses = |&u: &u32| label[v] + label[u as usize] == 1;
                assert!(!level.neighbors(v).iter().any(crosses), "low–high edge at {v}");
            }
        }
    }
}
