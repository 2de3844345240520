//! Full (undirected) adjacency structure derived from a symmetric pattern.
//!
//! The ordering algorithms (minimum degree, nested dissection) operate on the
//! adjacency graph of the matrix: both triangles, no self loops.

use crate::SparsityPattern;
use std::cell::Cell;

thread_local! {
    /// Graphs built on this thread, for tests that pin "one graph per analysis".
    static BUILDS: Cell<u64> = const { Cell::new(0) };
}

/// Undirected adjacency lists in compressed form.
#[derive(Debug, Clone)]
pub struct Graph {
    adj_ptr: Vec<usize>,
    adj: Vec<u32>,
}

impl Graph {
    /// Builds the adjacency graph of a symmetric matrix given its lower
    /// triangle pattern. Diagonal entries are dropped; every off-diagonal
    /// entry `(i, j)` produces edges `i → j` and `j → i`.
    pub fn from_pattern(p: &SparsityPattern) -> Self {
        let n = p.n();
        let mut deg = vec![0usize; n];
        for (r, c) in p.iter() {
            if r != c {
                deg[r as usize] += 1;
                deg[c as usize] += 1;
            }
        }
        let mut adj_ptr = vec![0usize; n + 1];
        for v in 0..n {
            adj_ptr[v + 1] = adj_ptr[v] + deg[v];
        }
        let mut adj = vec![0u32; adj_ptr[n]];
        let mut next = adj_ptr.clone();
        for (r, c) in p.iter() {
            if r != c {
                adj[next[r as usize]] = c;
                next[r as usize] += 1;
                adj[next[c as usize]] = r;
                next[c as usize] += 1;
            }
        }
        for v in 0..n {
            adj[adj_ptr[v]..adj_ptr[v + 1]].sort_unstable();
        }
        BUILDS.with(|b| b.set(b.get() + 1));
        Self { adj_ptr, adj }
    }

    /// Wraps adjacency lists that are already in this type's form: `adj_ptr`
    /// has `n + 1` monotone offsets into `adj`, every list is strictly
    /// ascending without self loops, and every edge appears in both endpoint
    /// lists. For callers that derive one graph from another (quotients,
    /// induced subgraphs) and would otherwise round-trip through a pattern.
    pub fn from_sorted_adjacency(adj_ptr: Vec<usize>, adj: Vec<u32>) -> Self {
        let g = Self { adj_ptr, adj };
        debug_assert_eq!(g.adj_ptr.last().copied(), Some(g.adj.len()));
        debug_assert!((0..g.n()).all(|v| {
            let nb = g.neighbors(v);
            nb.windows(2).all(|w| w[0] < w[1])
                && nb.iter().all(|&u| {
                    u as usize != v && g.neighbors(u as usize).binary_search(&(v as u32)).is_ok()
                })
        }));
        g
    }

    /// Number of [`Graph::from_pattern`] calls made on the current thread.
    /// Test instrumentation: lets a test assert how many graphs one analysis
    /// builds without threading a counter through every layer.
    #[doc(hidden)]
    pub fn builds_on_this_thread() -> u64 {
        BUILDS.with(Cell::get)
    }

    /// Number of vertices.
    #[inline]
    pub fn n(&self) -> usize {
        self.adj_ptr.len() - 1
    }

    /// Number of directed edges (twice the undirected edge count).
    #[inline]
    pub fn edge_count(&self) -> usize {
        self.adj.len()
    }

    /// Neighbors of vertex `v`, sorted ascending.
    #[inline]
    pub fn neighbors(&self, v: usize) -> &[u32] {
        &self.adj[self.adj_ptr[v]..self.adj_ptr[v + 1]]
    }

    /// Degree of vertex `v`.
    #[inline]
    pub fn degree(&self, v: usize) -> usize {
        self.adj_ptr[v + 1] - self.adj_ptr[v]
    }

    /// Breadth-first search from `start` over vertices where `alive` is true.
    /// Returns `(visited_vertices_in_bfs_order, level_of_each_visited)`.
    ///
    /// Allocates a visited set per call; loops over many starts should hold
    /// a [`BfsScratch`] and call [`Graph::bfs_with`] instead.
    pub fn bfs(&self, start: usize, alive: &[bool]) -> (Vec<u32>, Vec<u32>) {
        let mut scratch = BfsScratch::default();
        self.bfs_with(start, alive, usize::MAX, &mut scratch);
        (scratch.order, scratch.level)
    }

    /// [`Graph::bfs`] into reusable scratch, stopping once `limit` vertices
    /// have been reached (the result is then the first `limit` vertices of
    /// the unbounded search). The visit order and levels are left in
    /// `scratch.order` / `scratch.level`; the visited set is un-marked again
    /// on the way out, so a search costs O(visited + their edges) no matter
    /// how large the graph is.
    pub fn bfs_with(&self, start: usize, alive: &[bool], limit: usize, scratch: &mut BfsScratch) {
        debug_assert!(alive[start]);
        scratch.enter(self.n());
        let BfsScratch { seen, order, level } = scratch;
        seen[start] = true;
        order.push(start as u32);
        level.push(0u32);
        let mut head = 0;
        'search: while head < order.len() {
            let v = order[head] as usize;
            let lv = level[head];
            head += 1;
            for &w in self.neighbors(v) {
                if order.len() >= limit {
                    break 'search;
                }
                if alive[w as usize] && !seen[w as usize] {
                    seen[w as usize] = true;
                    order.push(w);
                    level.push(lv + 1);
                }
            }
        }
        for &v in order.iter() {
            seen[v as usize] = false;
        }
    }

    /// Finds a pseudo-peripheral vertex of the component containing `start`
    /// (restricted to `alive` vertices) by repeated BFS, as in the
    /// Gibbs–Poole–Stockmeyer/George–Liu scheme.
    pub fn pseudo_peripheral(&self, start: usize, alive: &[bool]) -> usize {
        self.pseudo_peripheral_with(start, alive, &mut BfsScratch::default())
    }

    /// [`Graph::pseudo_peripheral`] on reusable scratch. The search from the
    /// returned vertex is the last one run, so `scratch` holds it on return.
    pub fn pseudo_peripheral_with(
        &self,
        start: usize,
        alive: &[bool],
        scratch: &mut BfsScratch,
    ) -> usize {
        self.bfs_with(start, alive, usize::MAX, scratch);
        let mut ecc = *scratch.level.last().unwrap_or(&0);
        let mut frontier_last = scratch.order[scratch.order.len() - 1] as usize;
        loop {
            self.bfs_with(frontier_last, alive, usize::MAX, scratch);
            let ecc2 = *scratch.level.last().unwrap_or(&0);
            if ecc2 > ecc {
                ecc = ecc2;
                frontier_last = scratch.order[scratch.order.len() - 1] as usize;
            } else {
                return frontier_last;
            }
        }
    }

    /// Connected components over `alive` vertices. Returns one representative
    /// vertex list per component, each in BFS order. One visited set serves
    /// every component, so the whole search is O(n + m).
    pub fn components(&self, alive: &[bool]) -> Vec<Vec<u32>> {
        let mut seen = vec![false; self.n()];
        let mut comps = Vec::new();
        for s in 0..self.n() {
            if !alive[s] || seen[s] {
                continue;
            }
            seen[s] = true;
            let mut order = vec![s as u32];
            let mut head = 0;
            while head < order.len() {
                let v = order[head] as usize;
                head += 1;
                for &w in self.neighbors(v) {
                    if alive[w as usize] && !seen[w as usize] {
                        seen[w as usize] = true;
                        order.push(w);
                    }
                }
            }
            comps.push(order);
        }
        comps
    }
}

/// Reusable state for [`Graph::bfs_with`]: the visited set (all `false`
/// between searches) and the result buffers of the latest search.
#[derive(Debug, Default)]
pub struct BfsScratch {
    seen: Vec<bool>,
    /// Vertices reached by the latest search, in visit order.
    pub order: Vec<u32>,
    /// BFS level of each entry of `order`.
    pub level: Vec<u32>,
}

impl BfsScratch {
    /// Grows the visited set to `n` vertices and clears the result buffers.
    fn enter(&mut self, n: usize) {
        debug_assert!(
            self.seen.iter().all(|&s| !s),
            "visited set must be clear between searches"
        );
        if self.seen.len() < n {
            self.seen.resize(n, false);
        }
        self.order.clear();
        self.level.clear();
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn path4() -> Graph {
        // 0 - 1 - 2 - 3
        let p = SparsityPattern::from_coords(4, vec![(1, 0), (2, 1), (3, 2)]).unwrap();
        Graph::from_pattern(&p)
    }

    #[test]
    fn adjacency_is_symmetric_and_sorted() {
        let g = path4();
        assert_eq!(g.n(), 4);
        assert_eq!(g.edge_count(), 6);
        assert_eq!(g.neighbors(1), &[0, 2]);
        assert_eq!(g.degree(0), 1);
        assert_eq!(g.degree(1), 2);
    }

    #[test]
    fn bfs_levels() {
        let g = path4();
        let alive = vec![true; 4];
        let (order, level) = g.bfs(0, &alive);
        assert_eq!(order, vec![0, 1, 2, 3]);
        assert_eq!(level, vec![0, 1, 2, 3]);
    }

    #[test]
    fn bfs_respects_alive_mask() {
        let g = path4();
        let alive = vec![true, true, false, true];
        let (order, _) = g.bfs(0, &alive);
        assert_eq!(order, vec![0, 1]);
    }

    #[test]
    fn pseudo_peripheral_on_path_is_an_endpoint() {
        let g = path4();
        let alive = vec![true; 4];
        let v = g.pseudo_peripheral(1, &alive);
        assert!(v == 0 || v == 3);
    }

    #[test]
    fn components_found() {
        // Two components: 0-1 and 2 (isolated), 3 masked out.
        let p = SparsityPattern::from_coords(4, vec![(1, 0)]).unwrap();
        let g = Graph::from_pattern(&p);
        let alive = vec![true, true, true, false];
        let comps = g.components(&alive);
        assert_eq!(comps.len(), 2);
        assert_eq!(comps[0], vec![0, 1]);
        assert_eq!(comps[1], vec![2]);
    }
}
