//! Quotient-graph multiple minimum degree (MMD) ordering.
//!
//! Liu's MMD — the ordering the paper applies to its irregular benchmark
//! matrices: a quotient graph of *supervariables* and *elements*, element
//! absorption, indistinguishable node merging, exact external degrees, and
//! **multiple elimination**: within one "round", every minimum-degree
//! vertex untouched by the round's earlier pivots is eliminated before any
//! degree is recomputed, so each degree update pass is shared by several
//! pivots.

use sparsemat::{Graph, Permutation};

/// Computes a minimum external degree ordering of the adjacency graph.
///
/// Returns the permutation `P` such that `P·A·Pᵀ` is ordered for low fill;
/// old vertex `order[k]` is eliminated `k`-th.
pub fn minimum_degree(g: &Graph) -> Permutation {
    minimum_degree_with(g, &mut MindegScratch::default())
}

/// [`minimum_degree`] on reusable scratch.
pub(crate) fn minimum_degree_with(g: &Graph, s: &mut MindegScratch) -> Permutation {
    s.begin(g.n());
    for v in 0..g.n() {
        s.set_neighbors(v, g.neighbors(v).iter().copied());
    }
    s.run();
    Permutation::from_old_of_new(std::mem::take(&mut s.order))
        .expect("elimination order is a permutation")
}

#[derive(Debug, Clone, Copy, PartialEq, Eq)]
enum State {
    Alive,
    Merged,
    Eliminated,
}

const NONE: u32 = u32::MAX;

/// Intrusive doubly-linked degree buckets with a moving minimum pointer.
/// The arrays may be longer than the current graph; `buckets` is the logical
/// bucket count (`n.max(1)`), which also clamps degrees.
#[derive(Default)]
struct DegreeLists {
    head: Vec<i32>,
    next: Vec<i32>,
    prev: Vec<i32>,
    /// Degree bucket each vertex currently sits in, or -1.
    bucket: Vec<i32>,
    buckets: usize,
    min_deg: usize,
}

impl DegreeLists {
    fn reset(&mut self, n: usize) {
        self.buckets = n.max(1);
        for (a, len) in [
            (&mut self.head, self.buckets),
            (&mut self.next, n),
            (&mut self.prev, n),
            (&mut self.bucket, n),
        ] {
            a.clear();
            a.resize(len, -1);
        }
        self.min_deg = 0;
    }

    fn insert(&mut self, v: usize, d: usize) {
        debug_assert_eq!(self.bucket[v], -1);
        let d = d.min(self.buckets - 1);
        let h = self.head[d];
        self.next[v] = h;
        self.prev[v] = -1;
        if h >= 0 {
            self.prev[h as usize] = v as i32;
        }
        self.head[d] = v as i32;
        self.bucket[v] = d as i32;
        if d < self.min_deg {
            self.min_deg = d;
        }
    }

    fn remove(&mut self, v: usize) {
        let d = self.bucket[v];
        if d < 0 {
            return;
        }
        let (p, n) = (self.prev[v], self.next[v]);
        if p >= 0 {
            self.next[p as usize] = n;
        } else {
            self.head[d as usize] = n;
        }
        if n >= 0 {
            self.prev[n as usize] = p;
        }
        self.bucket[v] = -1;
    }

    fn update(&mut self, v: usize, d: usize) {
        self.remove(v);
        self.insert(v, d);
    }

    /// Pops a vertex from the exact degree bucket `d`, if any.
    fn pop_at(&mut self, d: usize) -> Option<usize> {
        let h = self.head[d.min(self.buckets - 1)];
        if h >= 0 {
            let v = h as usize;
            self.remove(v);
            Some(v)
        } else {
            None
        }
    }

    /// Smallest non-empty degree, advancing the cursor.
    fn min_nonempty(&mut self) -> Option<usize> {
        while self.min_deg < self.buckets {
            if self.head[self.min_deg] >= 0 {
                return Some(self.min_deg);
            }
            self.min_deg += 1;
        }
        None
    }
}

/// The quotient-graph state of one minimum-degree run, kept between runs so
/// that ordering thousands of dissection leaves allocates nothing: every
/// array (and every inner list's capacity) is reused, and
/// [`MindegScratch::begin`] re-initializes exactly the first `n` slots — cost
/// proportional to the graph being ordered, never to the largest one seen.
///
/// Use: [`begin`](Self::begin), [`set_neighbors`](Self::set_neighbors) for
/// every vertex, [`run`](Self::run); the elimination order is left in
/// `order`.
#[derive(Default)]
pub(crate) struct MindegScratch {
    n: usize,
    /// Adjacent supervariables (pruned lazily; may hold merged ids).
    var_adj: Vec<Vec<u32>>,
    /// Adjacent elements.
    var_elems: Vec<Vec<u32>>,
    /// Boundary supervariables of each element (element id = its pivot's id).
    elem_vars: Vec<Vec<u32>>,
    elem_absorbed: Vec<bool>,
    state: Vec<State>,
    /// Union-find forest for merged supervariables.
    merge_parent: Vec<u32>,
    /// Number of original vertices inside each supervariable.
    weight: Vec<u32>,
    /// Original vertices inside each supervariable, in merge order, as a
    /// linked list starting at the representative itself.
    mem_next: Vec<u32>,
    mem_tail: Vec<u32>,
    lists: DegreeLists,
    /// `in_lp[v] == step` iff `v` is in the current pivot's boundary.
    in_lp: Vec<u32>,
    /// Transient set-membership marks.
    mark: Vec<u32>,
    mark_ctr: u32,
    /// `round_touch[v] == round` marks `v` as a boundary member of some
    /// pivot eliminated this round: its degree (and lists) are stale, so it
    /// is not eligible for multiple elimination until the round's update.
    round_touch: Vec<u32>,
    touched: Vec<u32>,
    stashed: Vec<(u32, u32)>,
    /// Boundary of the latest pivot.
    lp: Vec<u32>,
    keyed: Vec<(u64, u32)>,
    /// Elimination order of the latest run (local vertex ids).
    pub(crate) order: Vec<u32>,
}

fn reset<T: Clone>(a: &mut Vec<T>, n: usize, value: T) {
    a.clear();
    a.resize(n, value);
}

fn reset_lists(a: &mut Vec<Vec<u32>>, n: usize) {
    if a.len() < n {
        a.resize_with(n, Vec::new);
    }
    for l in &mut a[..n] {
        l.clear();
    }
}

impl MindegScratch {
    /// Prepares the state for a graph of `n` vertices with no edges yet.
    pub(crate) fn begin(&mut self, n: usize) {
        self.n = n;
        reset_lists(&mut self.var_adj, n);
        reset_lists(&mut self.var_elems, n);
        reset_lists(&mut self.elem_vars, n);
        reset(&mut self.elem_absorbed, n, false);
        reset(&mut self.state, n, State::Alive);
        self.merge_parent.clear();
        self.merge_parent.extend(0..n as u32);
        reset(&mut self.weight, n, 1);
        reset(&mut self.mem_next, n, NONE);
        self.mem_tail.clear();
        self.mem_tail.extend(0..n as u32);
        self.lists.reset(n);
        reset(&mut self.in_lp, n, u32::MAX);
        reset(&mut self.mark, n, 0);
        self.mark_ctr = 0;
        reset(&mut self.round_touch, n, 0);
        self.order.clear();
        self.order.reserve(n);
    }

    /// Sets vertex `v`'s neighbor list (distinct, no self loop); it is kept
    /// ascending, the order [`Graph`] adjacency has.
    pub(crate) fn set_neighbors(&mut self, v: usize, neighbors: impl Iterator<Item = u32>) {
        let adj = &mut self.var_adj[v];
        adj.extend(neighbors);
        if !adj.is_sorted() {
            adj.sort_unstable();
        }
    }

    #[inline]
    fn alive(&self, v: usize) -> bool {
        self.state[v] == State::Alive
    }

    /// Resolves a possibly-merged id to its live representative.
    fn resolve(&mut self, v: u32) -> u32 {
        let mut r = v;
        while self.merge_parent[r as usize] != r {
            r = self.merge_parent[r as usize];
        }
        // Path compression.
        let mut c = v;
        while self.merge_parent[c as usize] != r {
            let next = self.merge_parent[c as usize];
            self.merge_parent[c as usize] = r;
            c = next;
        }
        r
    }

    #[inline]
    fn next_mark(&mut self) -> u32 {
        self.mark_ctr += 1;
        self.mark_ctr
    }

    /// Runs the elimination; the order is left in `self.order`.
    pub(crate) fn run(&mut self) {
        let n = self.n;
        // Ascending insertion: each degree list is LIFO, so among equal
        // degrees the highest-numbered vertex is eliminated first.
        for v in 0..n {
            self.lists.insert(v, self.var_adj[v].len());
        }
        let mut step = 0u32;
        let mut round = 0u32;
        while self.order.len() < n {
            round += 1;
            let d = self.lists.min_nonempty().expect("live vertex remains");
            self.touched.clear();
            self.stashed.clear();
            // Multiple elimination: drain the minimum bucket, eliminating
            // every pivot not touched by this round's earlier pivots.
            while let Some(p) = self.lists.pop_at(d) {
                debug_assert!(self.alive(p));
                if self.round_touch[p] == round {
                    self.stashed.push((p as u32, d as u32));
                    continue;
                }
                step += 1;
                self.eliminate(p, step);
                for &v in &self.lp {
                    if self.round_touch[v as usize] != round {
                        self.round_touch[v as usize] = round;
                        self.touched.push(v);
                    }
                }
            }
            // Stashed vertices may have merged into a neighbor during the
            // round's supervariable detection; only re-insert survivors.
            for k in 0..self.stashed.len() {
                let (v, d) = self.stashed[k];
                if self.alive(v as usize) {
                    self.lists.insert(v as usize, d as usize); // degree refreshed below
                }
            }
            // One shared degree-update pass for the whole round.
            for k in 0..self.touched.len() {
                let v = self.touched[k] as usize;
                if self.alive(v) {
                    let deg = self.external_degree(v);
                    self.lists.update(v, deg);
                }
            }
        }
    }

    /// Appends `w`'s live representative to the boundary under construction
    /// unless it is dead or already there.
    #[inline]
    fn reach(&mut self, w: u32, step: u32, lp: &mut Vec<u32>) {
        let r = self.resolve(w) as usize;
        if self.alive(r) && self.in_lp[r] != step {
            self.in_lp[r] = step;
            lp.push(r as u32);
        }
    }

    /// Eliminates pivot `p`, leaving its boundary `Lp` in `self.lp`. Degrees
    /// of the boundary are *not* recomputed here — the caller batches updates
    /// per multiple-elimination round.
    fn eliminate(&mut self, p: usize, step: u32) {
        // --- Gather the boundary Lp of the new element. ---
        self.in_lp[p] = step;
        let mut lp = std::mem::take(&mut self.lp);
        lp.clear();
        let mut adj_p = std::mem::take(&mut self.var_adj[p]);
        for &w in &adj_p {
            self.reach(w, step, &mut lp);
        }
        adj_p.clear();
        self.var_adj[p] = adj_p;
        let mut elems_p = std::mem::take(&mut self.var_elems[p]);
        for &e in &elems_p {
            let e = e as usize;
            if self.elem_absorbed[e] {
                continue;
            }
            let mut boundary = std::mem::take(&mut self.elem_vars[e]);
            for &w in &boundary {
                self.reach(w, step, &mut lp);
            }
            boundary.clear();
            self.elem_vars[e] = boundary;
            self.elem_absorbed[e] = true; // absorbed into element p
        }
        elems_p.clear();
        self.var_elems[p] = elems_p;

        // --- Retire the pivot. ---
        self.state[p] = State::Eliminated;
        let mut m = p as u32;
        while m != NONE {
            self.order.push(m);
            m = self.mem_next[m as usize];
        }
        self.elem_vars[p].extend_from_slice(&lp);

        // --- Prune each boundary variable's lists and attach element p. ---
        for &v in &lp {
            let v = v as usize;
            let mut adj = std::mem::take(&mut self.var_adj[v]);
            let ctr = self.next_mark();
            let mut kept = 0;
            for i in 0..adj.len() {
                let r = self.resolve(adj[i]) as usize;
                // Keep only live vars outside Lp (element p covers Lp), once.
                if self.alive(r) && self.in_lp[r] != step && self.mark[r] != ctr {
                    self.mark[r] = ctr;
                    adj[kept] = r as u32;
                    kept += 1;
                }
            }
            adj.truncate(kept);
            self.var_adj[v] = adj;
            let absorbed = &self.elem_absorbed;
            self.var_elems[v].retain(|&e| !absorbed[e as usize]);
            self.var_elems[v].push(p as u32);
        }

        // --- Indistinguishable supervariable detection within Lp. ---
        // Two boundary variables with identical pruned (adj, elems) lists are
        // indistinguishable and merge into one supervariable.
        let mut keyed = std::mem::take(&mut self.keyed);
        keyed.clear();
        for &v in &lp {
            let v = v as usize;
            self.var_adj[v].sort_unstable();
            self.var_elems[v].sort_unstable();
            let mut h: u64 = 0x9E37_79B9_7F4A_7C15;
            for &w in &self.var_adj[v] {
                h = h.wrapping_add(w as u64).wrapping_mul(0x100_0000_01B3);
            }
            for &e in &self.var_elems[v] {
                h = h.wrapping_add((e as u64) << 32).wrapping_mul(0x100_0000_01B3);
            }
            h ^= (self.var_adj[v].len() as u64) << 1 | (self.var_elems[v].len() as u64) << 17;
            keyed.push((h, v as u32));
        }
        keyed.sort_unstable();
        let mut i = 0;
        while i < keyed.len() {
            let mut j = i + 1;
            while j < keyed.len() && keyed[j].0 == keyed[i].0 {
                j += 1;
            }
            // Bucket [i, j): pairwise-compare survivors.
            for a in i..j {
                let va = keyed[a].1 as usize;
                if !self.alive(va) {
                    continue;
                }
                for &(_, vb) in &keyed[(a + 1)..j] {
                    let vb = vb as usize;
                    if !self.alive(vb) {
                        continue;
                    }
                    if self.var_adj[va] == self.var_adj[vb]
                        && self.var_elems[va] == self.var_elems[vb]
                    {
                        self.merge(va, vb);
                    }
                }
            }
            i = j;
        }
        self.keyed = keyed;
        self.lp = lp;
    }

    /// Merges supervariable `w` into `v` (both alive, indistinguishable).
    fn merge(&mut self, v: usize, w: usize) {
        debug_assert!(self.alive(v) && self.alive(w));
        self.state[w] = State::Merged;
        self.merge_parent[w] = v as u32;
        self.weight[v] += self.weight[w];
        self.mem_next[self.mem_tail[v] as usize] = w as u32;
        self.mem_tail[v] = self.mem_tail[w];
        self.var_adj[w].clear();
        self.var_elems[w].clear();
        self.lists.remove(w);
    }

    /// External degree of `v`: total weight of distinct live supervariables
    /// reachable through `v`'s variable list and element boundaries, excluding
    /// `v` itself.
    fn external_degree(&mut self, v: usize) -> usize {
        let ctr = self.next_mark();
        self.mark[v] = ctr;
        let mut d: usize = 0;
        let adj = std::mem::take(&mut self.var_adj[v]);
        for &w in &adj {
            // Adjacent variables are outside Lp and cannot have merged this
            // step, but may have merged in earlier steps; resolve to be safe.
            let r = self.resolve(w) as usize;
            if self.alive(r) && self.mark[r] != ctr {
                self.mark[r] = ctr;
                d += self.weight[r] as usize;
            }
        }
        self.var_adj[v] = adj;
        let elems = std::mem::take(&mut self.var_elems[v]);
        for &e in &elems {
            let boundary = std::mem::take(&mut self.elem_vars[e as usize]);
            for &w in &boundary {
                let r = self.resolve(w) as usize;
                if self.alive(r) && self.mark[r] != ctr {
                    self.mark[r] = ctr;
                    d += self.weight[r] as usize;
                }
            }
            self.elem_vars[e as usize] = boundary;
        }
        self.var_elems[v] = elems;
        d
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::reference;
    use sparsemat::SparsityPattern;

    fn graph_of(n: usize, edges: &[(u32, u32)]) -> Graph {
        let p = SparsityPattern::from_coords(n, edges.iter().copied()).unwrap();
        Graph::from_pattern(&p)
    }

    #[test]
    fn empty_and_singleton() {
        let g = graph_of(1, &[]);
        assert_eq!(minimum_degree(&g).len(), 1);
    }

    #[test]
    fn path_orders_with_no_fill() {
        let g = graph_of(7, &[(0, 1), (1, 2), (2, 3), (3, 4), (4, 5), (5, 6)]);
        let p = minimum_degree(&g);
        assert_eq!(reference::fill_edges(&g, &p), 0);
    }

    #[test]
    fn tree_orders_with_no_fill() {
        // A binary tree: any minimum degree order of a tree is perfect.
        let g = graph_of(7, &[(0, 1), (0, 2), (1, 3), (1, 4), (2, 5), (2, 6)]);
        let p = minimum_degree(&g);
        assert_eq!(reference::fill_edges(&g, &p), 0);
    }

    #[test]
    fn star_eliminates_center_last() {
        let g = graph_of(6, &[(0, 1), (0, 2), (0, 3), (0, 4), (0, 5)]);
        let p = minimum_degree(&g);
        // Once one leaf remains, leaf and center tie at degree 1, so the
        // center lands in one of the last two positions.
        assert!(p.new_of_old(0) >= 4, "center at {}", p.new_of_old(0));
        assert_eq!(reference::fill_edges(&g, &p), 0);
    }

    #[test]
    fn complete_graph_merges_and_terminates() {
        let mut edges = Vec::new();
        for i in 0..8u32 {
            for j in 0..i {
                edges.push((i, j));
            }
        }
        let g = graph_of(8, &edges);
        let p = minimum_degree(&g);
        assert_eq!(p.len(), 8);
        // Dense: fill is zero regardless of order.
        assert_eq!(reference::fill_edges(&g, &p), 0);
    }

    #[test]
    fn disconnected_graph_is_handled() {
        let g = graph_of(6, &[(0, 1), (3, 4), (4, 5)]);
        let p = minimum_degree(&g);
        assert_eq!(p.len(), 6);
        assert_eq!(reference::fill_edges(&g, &p), 0);
    }

    #[test]
    fn grid_fill_beats_natural_order() {
        let p = sparsemat::gen::grid2d(8);
        let g = Graph::from_pattern(p.matrix.pattern());
        let md = minimum_degree(&g);
        let natural = Permutation::identity(g.n());
        let f_md = reference::factor_nnz_lower(&g, &md);
        let f_nat = reference::factor_nnz_lower(&g, &natural);
        assert!(
            (f_md as f64) < 0.8 * f_nat as f64,
            "md {f_md} vs natural {f_nat}"
        );
    }

    #[test]
    fn cycle_fill_is_minimal() {
        // Chordal completion of an n-cycle needs exactly n-3 fill edges.
        let n = 10u32;
        let edges: Vec<(u32, u32)> = (0..n).map(|i| (i, (i + 1) % n)).collect();
        let g = graph_of(n as usize, &edges);
        let p = minimum_degree(&g);
        assert_eq!(reference::fill_edges(&g, &p), (n - 3) as usize);
    }

    #[test]
    fn supervariables_emit_all_members() {
        // Two triangles sharing nothing plus a bridge: just check bijection
        // on a structure rich enough to trigger merging.
        let g = graph_of(
            6,
            &[(0, 1), (1, 2), (0, 2), (3, 4), (4, 5), (3, 5), (2, 3)],
        );
        let p = minimum_degree(&g);
        let mut seen = [false; 6];
        for k in 0..6 {
            seen[p.old_of_new(k)] = true;
        }
        assert!(seen.iter().all(|&s| s));
    }
}
