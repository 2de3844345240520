//! Graph-based nested dissection — no coordinates required.
//!
//! For patterns that carry no geometry (irregular meshes read from files,
//! generated structures, anything a user hands us) the geometric dissection
//! in [`crate::nd`] cannot run. This module dissects the adjacency graph
//! directly:
//!
//! 1. **Supervariable compression** — vertices with identical closed
//!    neighborhoods (dense node blocks: the 3-dof groups of BCSSTK-style
//!    problems, amalgamated element faces) collapse into one weighted
//!    quotient vertex, shrinking the graph the bisection works on.
//! 2. **Multilevel bisection** — each connected region becomes a weighted
//!    [`LevelGraph`]; heavy-edge matching ([`crate::coarsen`]) contracts it
//!    until it is small, the coarsest graph is split by a BFS level-set cut
//!    from a pseudo-peripheral vertex, and the partition is projected back
//!    level by level.
//! 3. **FM boundary refinement** — at every projection step (and on the
//!    coarsest cut itself) Fiduccia–Mattheyses separator refinement with
//!    gain buckets ([`crate::fm`]) thins and slides the separator under a
//!    balance cap. The pre-multilevel greedy thinning survives as
//!    [`RefineKind::Greedy`] for baselines.
//! 4. **Recursion** — halves recurse, the separator is ordered *last*;
//!    regions at or below a weight cutoff are ordered with minimum degree.
//!
//! Alongside the permutation, the recursion is recorded as a
//! [`SeparatorTree`]: each node owns its separator (or base-region) columns
//! and every subtree owns a contiguous column range, which is what the
//! subtree-parallel symbolic analysis and the proportional mapping consume.

use crate::coarsen::{coarsen_into, LevelBfs, LevelGraph};
use crate::fm::{self, FmOptions, FmScratch, HIGH, LOW, SEP};
use crate::nd::{order_base, BaseOrdering};
use crate::septree::{SeparatorTree, NONE};
use crate::workspace::{timed, Orderer, Workspace};
use sparsemat::{Graph, Permutation};

/// Separator refinement flavor used at each level of the bisection.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum RefineKind {
    /// Greedy thinning: move separator vertices with no opposite-side
    /// neighbor. The pre-multilevel behavior; kept as a baseline.
    Greedy,
    /// Fiduccia–Mattheyses refinement with gain buckets ([`crate::fm`]).
    Fm,
}

/// Options for [`nd_graph`].
#[derive(Debug, Clone, Copy)]
pub struct NdGraphOptions {
    /// Regions at or below this many (original) vertices are ordered by
    /// `base` directly and become separator-tree leaves.
    pub base_cutoff: usize,
    /// Base-case ordering.
    pub base: BaseOrdering,
    /// Refinement passes over each separator (FM passes, or greedy sweeps).
    pub refine_passes: usize,
    /// Merge vertices with identical closed neighborhoods before dissecting.
    pub compress: bool,
    /// Coarsen regions by heavy-edge matching before bisecting.
    pub multilevel: bool,
    /// Stop coarsening once a region has at most this many vertices.
    pub coarsest: usize,
    /// Separator refinement flavor.
    pub refine: RefineKind,
}

impl Default for NdGraphOptions {
    fn default() -> Self {
        Self {
            base_cutoff: 64,
            base: BaseOrdering::MinimumDegree,
            refine_passes: 6,
            compress: true,
            multilevel: true,
            coarsest: 96,
            refine: RefineKind::Fm,
        }
    }
}

impl NdGraphOptions {
    /// The pre-multilevel configuration — one-shot level-set bisection with
    /// greedy boundary thinning — kept as a regression baseline for tests
    /// and benches.
    pub fn single_level_greedy() -> Self {
        Self {
            multilevel: false,
            refine: RefineKind::Greedy,
            refine_passes: 2,
            ..Default::default()
        }
    }
}

/// Computes a nested dissection ordering of `g` from its structure alone,
/// returning the permutation and the separator tree of the recursion.
pub fn nd_graph(g: &Graph, opts: &NdGraphOptions) -> (Permutation, SeparatorTree) {
    Orderer::new(g).nd_graph(opts)
}

/// [`nd_graph`] on a prepared quotient (`None`: dissect `g` itself) and a
/// reusable workspace.
pub(crate) fn dissect(
    g: &Graph,
    quotient: Option<&Quotient>,
    opts: &NdGraphOptions,
    ws: &mut Workspace,
) -> (Permutation, SeparatorTree) {
    let n = g.n();
    let qg = quotient.map_or(g, |q| &q.graph);
    let qn = qg.n();
    ws.enter(n);
    let mut d = Dissector {
        qg,
        og: g,
        quotient,
        opts,
        ws,
        verts: (0..qn as u32).collect(),
        part: Vec::new(),
        leaf_verts: Vec::new(),
        nodes: Vec::new(),
        bounds: Vec::new(),
        order: Vec::with_capacity(n),
        parent: Vec::new(),
        col_start: Vec::new(),
        col_end: Vec::new(),
        first_desc: Vec::new(),
    };
    d.dissect(0, qn);
    debug_assert_eq!(d.order.len(), n);
    let perm = Permutation::from_old_of_new(d.order).expect("dissection emits each vertex once");
    let tree = SeparatorTree {
        parent: d.parent,
        col_start: d.col_start,
        col_end: d.col_end,
        first_desc_col: d.first_desc,
        n: n as u32,
    };
    debug_assert_eq!(tree.validate(), Ok(()));
    (perm, tree)
}

/// A graph with vertices of identical closed neighborhood merged into
/// supervariables: the quotient graph plus, per quotient vertex, its original
/// members (ascending). Quotient vertices are numbered by smallest member.
#[derive(Debug)]
pub(crate) struct Quotient {
    pub graph: Graph,
    member_ptr: Vec<u32>,
    members: Vec<u32>,
}

impl Quotient {
    /// Original vertices merged into quotient vertex `q`, ascending.
    pub fn members(&self, q: u32) -> &[u32] {
        let (from, to) = (self.member_ptr[q as usize], self.member_ptr[q as usize + 1]);
        &self.members[from as usize..to as usize]
    }

    /// Number of original vertices merged into `q`.
    pub fn weight(&self, q: u32) -> u32 {
        self.member_ptr[q as usize + 1] - self.member_ptr[q as usize]
    }
}

/// True when `v` and `w` (adjacent, equal degree) have the same closed
/// neighborhood: their sorted open neighborhoods agree once `w` is dropped
/// from `v`'s and `v` from `w`'s.
fn same_closed_neighborhood(g: &Graph, v: u32, w: u32) -> bool {
    let mut a = g.neighbors(v as usize).iter().filter(|&&x| x != w);
    let mut b = g.neighbors(w as usize).iter().filter(|&&x| x != v);
    loop {
        match (a.next(), b.next()) {
            (None, None) => return true,
            (x, y) if x != y => return false,
            _ => {}
        }
    }
}

/// Groups vertices with identical closed neighborhoods into supervariables,
/// or returns `None` when no two vertices merge.
///
/// Vertices with the same closed neighborhood are adjacent, so the twins of
/// `v` are found among its neighbors: an order-independent checksum of the
/// closed neighborhood rules almost every neighbor out, and an exact
/// comparison confirms the rest. Scanning `v` upward and claiming twins as
/// they are found numbers each class by its smallest member.
pub(crate) fn compress(g: &Graph) -> Option<Quotient> {
    let n = g.n();
    // splitmix64 finalizer: a linear mix would reduce the checksum to the
    // sum of the ids, which collides on every pair of shifted stencils.
    let mix = |v: usize| {
        let mut z = (v as u64).wrapping_add(0x9E37_79B9_7F4A_7C15);
        z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
        z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
        z ^ (z >> 31)
    };
    let id_hash: Vec<u64> = (0..n).map(mix).collect();
    let checksum: Vec<u64> = (0..n)
        .map(|v| {
            g.neighbors(v).iter().fold(id_hash[v], |h, &w| h.wrapping_add(id_hash[w as usize]))
        })
        .collect();

    const UNSET: u32 = u32::MAX;
    let mut q_of = vec![UNSET; n];
    let mut member_ptr: Vec<u32> = Vec::with_capacity(n + 1);
    let mut members: Vec<u32> = Vec::with_capacity(n);
    for v in 0..n {
        if q_of[v] != UNSET {
            continue;
        }
        let q = member_ptr.len() as u32;
        member_ptr.push(members.len() as u32);
        q_of[v] = q;
        members.push(v as u32);
        for &w in g.neighbors(v) {
            let wu = w as usize;
            if wu > v
                && q_of[wu] == UNSET
                && checksum[wu] == checksum[v]
                && g.degree(wu) == g.degree(v)
                && same_closed_neighborhood(g, v as u32, w)
            {
                q_of[wu] = q;
                members.push(w);
            }
        }
    }
    let qn = member_ptr.len();
    if qn == n {
        return None;
    }
    member_ptr.push(n as u32);

    // All members of a class see the same classes, so the representative's
    // neighbors, mapped and deduplicated, are the quotient adjacency.
    let mut adj_ptr = Vec::with_capacity(qn + 1);
    let mut adj: Vec<u32> = Vec::new();
    adj_ptr.push(0);
    for q in 0..qn {
        let rep = members[member_ptr[q] as usize] as usize;
        let start = adj.len();
        adj.extend(g.neighbors(rep).iter().map(|&w| q_of[w as usize]).filter(|&qw| qw != q as u32));
        adj[start..].sort_unstable();
        let mut kept = start;
        for i in start..adj.len() {
            if i == start || adj[i] != adj[kept - 1] {
                adj[kept] = adj[i];
                kept += 1;
            }
        }
        adj.truncate(kept);
        adj_ptr.push(adj.len());
    }
    Some(Quotient { graph: Graph::from_sorted_adjacency(adj_ptr, adj), member_ptr, members })
}

/// Scratch for [`initial_bisection`]: the BFS buffers and the per-level
/// weight and count histograms.
#[derive(Debug, Default)]
pub(crate) struct BisectScratch {
    pub bfs: LevelBfs,
    level_w: Vec<usize>,
    level_cnt: Vec<usize>,
}

/// Splits a connected [`LevelGraph`] by a BFS level structure rooted at the
/// far end of a sweep from vertex 0, cut at the level that best halves the
/// weight; the separator is the high-side boundary. A hopeless cut (one side
/// under 1/8 of the weight) falls back to splitting the BFS order at its
/// weight median. The labels are left in `label`.
pub(crate) fn initial_bisection(lg: &LevelGraph, label: &mut Vec<u8>, s: &mut BisectScratch) {
    let n = lg.n();
    let w = lg.total_weight();
    let BisectScratch { bfs, level_w, level_cnt } = s;
    lg.bfs(0, bfs);
    let start = *bfs.order.last().expect("nonempty") as usize;
    lg.bfs(start, bfs);
    let (bfs_order, levels) = (&bfs.order, &bfs.level);
    debug_assert_eq!(bfs_order.len(), n, "initial_bisection needs a connected graph");
    let max_level = levels[*bfs_order.last().expect("nonempty") as usize] as usize;
    let mut cut = 0usize; // index into bfs_order: low = bfs_order[..cut]
    if max_level >= 1 {
        level_w.clear();
        level_w.resize(max_level + 1, 0);
        level_cnt.clear();
        level_cnt.resize(max_level + 1, 0);
        for &v in bfs_order {
            level_w[levels[v as usize] as usize] += lg.vwt[v as usize] as usize;
            level_cnt[levels[v as usize] as usize] += 1;
        }
        let (mut cum, mut cnt, mut best_gap) = (0usize, 0usize, usize::MAX);
        for lv in 0..max_level {
            cum += level_w[lv];
            cnt += level_cnt[lv];
            let gap = cum.abs_diff(w - cum);
            if gap < best_gap {
                best_gap = gap;
                cut = cnt;
            }
        }
        let low_w: usize = bfs_order[..cut].iter().map(|&v| lg.vwt[v as usize] as usize).sum();
        if low_w.min(w - low_w) * 8 < w {
            cut = 0;
        }
    }
    if cut == 0 {
        // Fallback: split the BFS order itself at the weight median.
        let (mut cum, mut k) = (0usize, 0usize);
        while k < bfs_order.len() - 1 && 2 * cum < w {
            cum += lg.vwt[bfs_order[k] as usize] as usize;
            k += 1;
        }
        cut = k.max(1);
    }
    label.clear();
    label.resize(n, HIGH);
    for &v in &bfs_order[..cut] {
        label[v as usize] = LOW;
    }
    for &v in &bfs_order[cut..] {
        if lg.neighbors(v as usize).iter().any(|&u| label[u as usize] == LOW) {
            label[v as usize] = SEP;
        }
    }
}

/// Greedy thinning: a separator vertex with no neighbor on one side moves to
/// the other; with no neighbor on either, to the lighter. Skipped when the
/// separator *is* the whole high side — every vertex would drain into low
/// and the recursion would stop shrinking.
fn greedy_refine(lg: &LevelGraph, label: &mut [u8], passes: usize) {
    let n = lg.n();
    let mut w_low = 0usize;
    let mut w_high = 0usize;
    let mut n_high = 0usize;
    for (v, &l) in label.iter().enumerate() {
        match l {
            LOW => w_low += lg.vwt[v] as usize,
            HIGH => {
                w_high += lg.vwt[v] as usize;
                n_high += 1;
            }
            _ => {}
        }
    }
    if n_high == 0 {
        return;
    }
    for _ in 0..passes {
        let mut moved = false;
        for v in 0..n {
            if label[v] != SEP {
                continue;
            }
            let (mut has_low, mut has_high) = (false, false);
            for &u in lg.neighbors(v) {
                match label[u as usize] {
                    LOW => has_low = true,
                    HIGH => has_high = true,
                    _ => {}
                }
            }
            let side = match (has_low, has_high) {
                (true, true) => continue,
                (true, false) => HIGH,
                (false, true) => LOW,
                (false, false) => u8::from(w_low > w_high),
            };
            label[v] = side;
            if side == LOW {
                w_low += lg.vwt[v] as usize;
            } else {
                w_high += lg.vwt[v] as usize;
            }
            moved = true;
        }
        if !moved {
            break;
        }
    }
}

fn refine_labels(lg: &LevelGraph, label: &mut [u8], opts: &NdGraphOptions, fm: &mut FmScratch) {
    match opts.refine {
        RefineKind::Fm => fm::refine_with(
            lg,
            label,
            &FmOptions { passes: opts.refine_passes, ..Default::default() },
            fm,
        ),
        RefineKind::Greedy => greedy_refine(lg, label, opts.refine_passes),
    }
}

/// Bisects the connected level graph in `ws.levels[0]`, leaving the labels in
/// `ws.labels[0]`: coarsens through heavy-edge matching first when enabled,
/// cuts the coarsest graph, and refines after the cut and after every
/// projection step. The hierarchy lives in the workspace's level slots.
pub(crate) fn multilevel_labels(ws: &mut Workspace, opts: &NdGraphOptions) {
    let mut top = 0;
    while opts.multilevel && ws.levels[top].n() > opts.coarsest.max(8) && top < 48 {
        ws.level(top + 1);
        let (fine, coarse) = ws.levels.split_at_mut(top + 1);
        let (fine, coarse, map, scratch) =
            (&fine[top], &mut coarse[0], &mut ws.maps[top], &mut ws.coarsen);
        if !timed(&mut ws.phases.coarsen_s, || coarsen_into(fine, coarse, map, scratch)) {
            break;
        }
        top += 1;
    }
    let (lg, label) = (&ws.levels[top], &mut ws.labels[top]);
    timed(&mut ws.phases.bisect_s, || initial_bisection(lg, label, &mut ws.bisect));
    timed(&mut ws.phases.fm_s, || refine_labels(lg, label, opts, &mut ws.fm));
    for d in (0..top).rev() {
        // A fine vertex inherits its coarse label; a fine low–high edge
        // would imply a coarse low–high edge, so the FM invariant holds.
        let (fine, coarse) = ws.labels.split_at_mut(d + 1);
        let (label, coarse, map) = (&mut fine[d], &coarse[0], &ws.maps[d]);
        timed(&mut ws.phases.bisect_s, || {
            label.clear();
            label.extend(map.iter().map(|&c| coarse[c as usize]));
        });
        timed(&mut ws.phases.fm_s, || refine_labels(&ws.levels[d], label, opts, &mut ws.fm));
    }
}

/// Recursion state. Regions are slices `verts[lo..hi]`, ascending on entry to
/// [`Dissector::dissect`] and permuted in place through `part` (components,
/// then low | high | separator) on the way down, so the recursion allocates
/// nothing of its own. The four tree vectors grow one slot per finished node,
/// so node indices come out in postorder (children before parents, roots
/// last); `nodes` is the stack of finished nodes still waiting for a parent
/// and `bounds` the stack of component boundaries of the regions being
/// split. `quotient` is `None` when the graph was not compressed — the
/// quotient graph is then `og` itself.
struct Dissector<'a> {
    qg: &'a Graph,
    og: &'a Graph,
    quotient: Option<&'a Quotient>,
    opts: &'a NdGraphOptions,
    ws: &'a mut Workspace,
    verts: Vec<u32>,
    part: Vec<u32>,
    leaf_verts: Vec<u32>,
    nodes: Vec<u32>,
    bounds: Vec<u32>,
    order: Vec<u32>,
    parent: Vec<u32>,
    col_start: Vec<u32>,
    col_end: Vec<u32>,
    first_desc: Vec<u32>,
}

impl Dissector<'_> {
    fn weight(&self, region: &[u32]) -> usize {
        match self.quotient {
            None => region.len(),
            Some(q) => region.iter().map(|&v| q.weight(v) as usize).sum(),
        }
    }

    fn emit(&mut self, v: u32) {
        match self.quotient {
            None => self.order.push(v),
            Some(q) => self.order.extend_from_slice(q.members(v)),
        }
    }

    /// Records a finished node whose children are the nodes stacked above
    /// `children_from`, and stacks it in their place.
    fn push_node(&mut self, children_from: usize, first_desc: u32, col_start: u32) {
        let id = self.parent.len() as u32;
        self.parent.push(NONE);
        self.col_start.push(col_start);
        self.col_end.push(self.order.len() as u32);
        self.first_desc.push(first_desc);
        for &c in &self.nodes[children_from..] {
            self.parent[c as usize] = id;
        }
        self.nodes.truncate(children_from);
        self.nodes.push(id);
    }

    /// Orders a base region and records it as a leaf node.
    fn leaf(&mut self, lo: usize, hi: usize) {
        let start = self.order.len() as u32;
        let t0 = std::time::Instant::now();
        if hi - lo == 1 {
            self.emit(self.verts[lo]);
        } else {
            let region = match self.quotient {
                None => &self.verts[lo..hi],
                Some(q) => {
                    self.leaf_verts.clear();
                    for &v in &self.verts[lo..hi] {
                        self.leaf_verts.extend_from_slice(q.members(v));
                    }
                    self.leaf_verts.sort_unstable();
                    &self.leaf_verts[..]
                }
            };
            let (order, ws) = (&mut self.order, &mut *self.ws);
            order_base(self.og, self.opts.base, region, order, &mut ws.local, &mut ws.mindeg);
        }
        self.ws.phases.base_s += t0.elapsed().as_secs_f64();
        self.push_node(self.nodes.len(), start, start);
    }

    /// Dissects the region `verts[lo..hi]` (quotient vertices, ascending),
    /// appending its columns to the ordering and its nodes to the tree, and
    /// stacks the root node of every connected component of the region on
    /// `nodes`.
    fn dissect(&mut self, lo: usize, hi: usize) {
        if lo == hi {
            return;
        }
        let w = self.weight(&self.verts[lo..hi]);
        if hi - lo == 1 || w <= self.opts.base_cutoff {
            return self.leaf(lo, hi);
        }

        // The region's own weighted graph (local indices follow the region
        // order); connectivity is decided on it rather than on the full
        // graph, so the search never looks outside the region.
        let ws = &mut *self.ws;
        let quotient = self.quotient;
        timed(&mut ws.phases.level_graph_s, || {
            ws.levels[0].fill_from_region(
                self.qg,
                &self.verts[lo..hi],
                |v| quotient.map_or(1, |q| q.weight(v)),
                &mut ws.local,
            )
        });
        let bounds_from = self.bounds.len();
        timed(&mut ws.phases.components_s, || {
            let (lg, bfs) = (&ws.levels[0], &mut ws.bisect.bfs);
            lg.bfs_begin(bfs);
            for v in 0..lg.n() {
                if bfs.level[v] == u32::MAX {
                    self.bounds.push(bfs.order.len() as u32);
                    lg.bfs_from(v, bfs);
                }
            }
        });
        if self.bounds.len() - bounds_from > 1 {
            // Several components: regroup the region by component (found in
            // order of smallest vertex), each ascending, and recurse on each.
            self.part.clear();
            self.part.extend(ws.bisect.bfs.order.iter().map(|&i| self.verts[lo + i as usize]));
            self.verts[lo..hi].copy_from_slice(&self.part);
            self.bounds.push((hi - lo) as u32);
            for k in bounds_from..self.bounds.len() - 1 {
                let (a, b) = (lo + self.bounds[k] as usize, lo + self.bounds[k + 1] as usize);
                self.verts[a..b].sort_unstable();
                self.dissect(a, b);
            }
            self.bounds.truncate(bounds_from);
            return;
        }
        self.bounds.truncate(bounds_from);

        // Connected region: multilevel bisection, then low | high | separator
        // in place, each part keeping the ascending order.
        multilevel_labels(ws, self.opts);
        let labels = &ws.labels[0];
        let mut at = [0usize; 3];
        for &l in labels {
            at[l as usize] += 1;
        }
        let (n_low, n_high) = (at[LOW as usize], at[HIGH as usize]);
        at = [0, n_low, n_low + n_high];
        self.part.clear();
        self.part.resize(hi - lo, 0);
        for (&v, &l) in self.verts[lo..hi].iter().zip(labels) {
            self.part[at[l as usize]] = v;
            at[l as usize] += 1;
        }
        self.verts[lo..hi].copy_from_slice(&self.part);

        let first_desc = self.order.len() as u32;
        let children_from = self.nodes.len();
        self.dissect(lo, lo + n_low);
        self.dissect(lo + n_low, lo + n_low + n_high);
        let col_start = self.order.len() as u32;
        for i in lo + n_low + n_high..hi {
            self.emit(self.verts[i]);
        }
        self.push_node(children_from, first_desc, col_start);
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::reference;
    use sparsemat::{gen, SparsityPattern};

    fn graph_of(p: &sparsemat::Problem) -> Graph {
        Graph::from_pattern(p.matrix.pattern())
    }

    #[test]
    fn grid_ordering_is_valid_and_beats_natural_fill() {
        let p = gen::grid2d(16);
        let g = graph_of(&p);
        let (perm, tree) = nd_graph(&g, &NdGraphOptions::default());
        assert_eq!(perm.len(), 256);
        tree.validate().unwrap();
        let f_nd = reference::factor_nnz_lower(&g, &perm);
        let f_nat = reference::factor_nnz_lower(&g, &Permutation::identity(g.n()));
        assert!((f_nd as f64) < 0.75 * f_nat as f64, "nd {f_nd} nat {f_nat}");
    }

    #[test]
    fn tree_ranges_cover_and_split() {
        let p = gen::cube3d(8);
        let g = graph_of(&p);
        let (_, tree) = nd_graph(&g, &NdGraphOptions::default());
        tree.validate().unwrap();
        let ranges = tree.parallel_ranges(4);
        assert!(ranges.len() >= 2, "cube must split: {ranges:?}");
        // Ranges are disjoint and sorted.
        for w in ranges.windows(2) {
            assert!(w[0].end <= w[1].start);
        }
    }

    #[test]
    fn compression_merges_dense_node_blocks() {
        // bcsstk_like attaches several dofs per mesh node with identical
        // connectivity — compression must find them.
        let p = gen::bcsstk_like("C", 120, 1);
        let g = graph_of(&p);
        let q = compress(&g).expect("dof blocks must compress");
        let qn = q.graph.n() as u32;
        assert!(q.graph.n() < g.n(), "no compression on {} vertices", g.n());
        assert_eq!((0..qn).map(|v| q.weight(v) as usize).sum::<usize>(), g.n());
        // Classes are numbered by smallest member, members ascend, and every
        // member has its representative's closed neighborhood.
        assert!((1..qn).all(|v| q.members(v - 1)[0] < q.members(v)[0]));
        for v in 0..qn {
            let m = q.members(v);
            assert!(m.windows(2).all(|w| w[0] < w[1]));
            assert!(m[1..].iter().all(|&w| same_closed_neighborhood(&g, m[0], w)));
        }
        let (perm, tree) = nd_graph(&g, &NdGraphOptions::default());
        assert_eq!(perm.len(), g.n());
        tree.validate().unwrap();
    }

    #[test]
    fn no_compress_path_borrows_and_matches_compressed_quality() {
        let p = gen::grid2d(20); // grids have no identical closed neighborhoods
        let g = graph_of(&p);
        assert!(compress(&g).is_none(), "grid must not compress");
        let on = nd_graph(&g, &NdGraphOptions::default());
        let off = nd_graph(&g, &NdGraphOptions { compress: false, ..Default::default() });
        // With nothing to compress both paths see the same graph.
        assert_eq!(on.0, off.0);
        on.1.validate().unwrap();
        off.1.validate().unwrap();
    }

    #[test]
    fn multilevel_fm_does_not_lose_to_greedy_baseline() {
        for (name, p) in [
            ("grid", gen::grid2d(24)),
            ("bcsstk", gen::bcsstk_like("R", 360, 7)),
        ] {
            let g = graph_of(&p);
            let (new_perm, new_tree) = nd_graph(&g, &NdGraphOptions::default());
            new_tree.validate().unwrap();
            let (old_perm, _) = nd_graph(&g, &NdGraphOptions::single_level_greedy());
            let f_new = reference::factor_nnz_lower(&g, &new_perm);
            let f_old = reference::factor_nnz_lower(&g, &old_perm);
            assert!(
                f_new as f64 <= 1.05 * f_old as f64,
                "{name}: multilevel fill {f_new} vs greedy {f_old}"
            );
        }
    }

    #[test]
    fn degenerate_inputs() {
        // Empty graph.
        let p = SparsityPattern::from_coords(0, Vec::new()).unwrap();
        let (perm, tree) = nd_graph(&Graph::from_pattern(&p), &NdGraphOptions::default());
        assert_eq!(perm.len(), 0);
        assert!(tree.is_empty());

        // Single vertex.
        let p = SparsityPattern::from_coords(1, Vec::new()).unwrap();
        let (perm, tree) = nd_graph(&Graph::from_pattern(&p), &NdGraphOptions::default());
        assert_eq!(perm.len(), 1);
        tree.validate().unwrap();

        // Fully disconnected: every vertex its own component. All vertices
        // compress into leaves; the tree gets one root per leaf batch.
        let p = SparsityPattern::from_coords(100, Vec::new()).unwrap();
        let (perm, tree) = nd_graph(&Graph::from_pattern(&p), &NdGraphOptions::default());
        assert_eq!(perm.len(), 100);
        tree.validate().unwrap();

        // Dense clique larger than the cutoff: no separator exists; the
        // fallback still returns a valid permutation — with and without
        // compression (a clique compresses to one supervariable).
        let mut coords = Vec::new();
        for i in 0..80u32 {
            for j in 0..i {
                coords.push((i, j));
            }
        }
        let p = SparsityPattern::from_coords(80, coords).unwrap();
        let g = Graph::from_pattern(&p);
        for opts in [
            NdGraphOptions::default(),
            NdGraphOptions { compress: false, ..Default::default() },
            NdGraphOptions { compress: false, ..NdGraphOptions::single_level_greedy() },
        ] {
            let (perm, tree) = nd_graph(&g, &opts);
            assert_eq!(perm.len(), 80);
            tree.validate().unwrap();
        }
    }

    #[test]
    fn separators_order_last_on_two_blobs() {
        // Two 30-cliques joined by one bridge vertex: the bridge must be the
        // separator and take the final column.
        let mut coords = Vec::new();
        for b in 0..2u32 {
            let base = b * 30;
            for i in 0..30u32 {
                for j in 0..i {
                    coords.push((base + i, base + j));
                }
            }
        }
        let bridge = 60u32;
        coords.push((bridge, 0));
        coords.push((bridge, 30));
        let p = SparsityPattern::from_coords(61, coords).unwrap();
        let g = Graph::from_pattern(&p);
        let opts = NdGraphOptions { base_cutoff: 32, ..Default::default() };
        let (perm, tree) = nd_graph(&g, &opts);
        tree.validate().unwrap();
        assert_eq!(perm.old_of_new(60), bridge as usize, "bridge not last");
    }
}
