//! Geometric nested dissection.
//!
//! For grid and cube problems the paper uses nested dissection, which is
//! asymptotically optimal there. Our variant uses node coordinates: a region
//! is split by the median plane of its widest axis, the separator is the set
//! of vertices on the high side with a neighbor on the low side, the two
//! halves are ordered recursively, and the separator is ordered last. Small
//! base regions are ordered with minimum degree.
//!
//! Like the coordinate-free [`crate::nd_graph()`], the recursion is recorded
//! as a [`SeparatorTree`] (see [`nested_dissection_with_tree`]).

use crate::mindeg::MindegScratch;
use crate::septree::{SeparatorTree, NONE};
use crate::workspace::with_index_map;
use sparsemat::{Graph, Permutation};

/// How to order base-case regions.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum BaseOrdering {
    /// Run minimum degree on the region subgraph (recommended).
    MinimumDegree,
    /// Keep the natural order (useful for testing the dissection skeleton).
    Natural,
}

/// Nested dissection options.
#[derive(Debug, Clone, Copy)]
pub struct NdOptions {
    /// Regions at or below this size are ordered by `base` directly.
    pub base_cutoff: usize,
    /// Base-case ordering.
    pub base: BaseOrdering,
}

impl Default for NdOptions {
    fn default() -> Self {
        Self { base_cutoff: 48, base: BaseOrdering::MinimumDegree }
    }
}

/// Computes a nested dissection ordering of `g` using per-vertex coordinates.
///
/// `coords[v]` is the physical position of vertex `v`; the generators in
/// `sparsemat::gen` attach them for grid/cube problems.
pub fn nested_dissection(g: &Graph, coords: &[[f32; 3]], opts: &NdOptions) -> Permutation {
    nested_dissection_with_tree(g, coords, opts).0
}

/// [`nested_dissection`], also returning the separator tree of the recursion
/// for subtree-parallel analysis and proportional mapping.
pub fn nested_dissection_with_tree(
    g: &Graph,
    coords: &[[f32; 3]],
    opts: &NdOptions,
) -> (Permutation, SeparatorTree) {
    assert_eq!(coords.len(), g.n());
    let mut d = Dissector {
        g,
        coords,
        opts,
        order: Vec::with_capacity(g.n()),
        side: vec![0; g.n()],
        member: vec![0; g.n()],
        ctr: 0,
        local: vec![u32::MAX; g.n()],
        md: MindegScratch::default(),
        parent: Vec::new(),
        col_start: Vec::new(),
        col_end: Vec::new(),
        first_desc: Vec::new(),
    };
    if g.n() > 0 {
        let all: Vec<u32> = (0..g.n() as u32).collect();
        d.dissect(all);
    }
    let perm = Permutation::from_old_of_new(d.order).expect("dissection emits each vertex once");
    let tree = SeparatorTree {
        parent: d.parent,
        col_start: d.col_start,
        col_end: d.col_end,
        first_desc_col: d.first_desc,
        n: g.n() as u32,
    };
    debug_assert_eq!(tree.validate(), Ok(()));
    (perm, tree)
}

/// Recursion state: `side` holds low/high labels for the active region,
/// `member[v] == ctr` marks membership in the active region; `local`/`md` are
/// the base-case scratch ([`order_base`]); the four tree vectors grow one
/// slot per finished node (postorder, roots last).
struct Dissector<'a> {
    g: &'a Graph,
    coords: &'a [[f32; 3]],
    opts: &'a NdOptions,
    order: Vec<u32>,
    side: Vec<u8>,
    member: Vec<u32>,
    ctr: u32,
    local: Vec<u32>,
    md: MindegScratch,
    parent: Vec<u32>,
    col_start: Vec<u32>,
    col_end: Vec<u32>,
    first_desc: Vec<u32>,
}

impl Dissector<'_> {
    fn push_node(&mut self, children: &[u32], first_desc: u32, col_start: u32) -> u32 {
        let id = self.parent.len() as u32;
        self.parent.push(NONE);
        self.col_start.push(col_start);
        self.col_end.push(self.order.len() as u32);
        self.first_desc.push(first_desc);
        for &c in children {
            self.parent[c as usize] = id;
        }
        id
    }

    fn leaf(&mut self, region: &[u32]) -> u32 {
        let start = self.order.len() as u32;
        order_base(self.g, self.opts.base, region, &mut self.order, &mut self.local, &mut self.md);
        self.push_node(&[], start, start)
    }

    fn dissect(&mut self, mut region: Vec<u32>) -> u32 {
        if region.len() <= self.opts.base_cutoff {
            return self.leaf(&region);
        }
        // Widest axis of the region's bounding box. `total_cmp` keeps NaN
        // coordinates from panicking; they sort deterministically and the
        // degenerate-split fallback below catches any nonsense they cause.
        let mut lo = [f32::INFINITY; 3];
        let mut hi = [f32::NEG_INFINITY; 3];
        for &v in &region {
            for a in 0..3 {
                lo[a] = lo[a].min(self.coords[v as usize][a]);
                hi[a] = hi[a].max(self.coords[v as usize][a]);
            }
        }
        let axis = (0..3)
            .max_by(|&a, &b| (hi[a] - lo[a]).total_cmp(&(hi[b] - lo[b])))
            .unwrap();

        // Median split along that axis.
        region.sort_unstable_by(|&a, &b| {
            self.coords[a as usize][axis]
                .total_cmp(&self.coords[b as usize][axis])
                .then(a.cmp(&b))
        });
        let mid = region.len() / 2;
        let pivot = self.coords[region[mid] as usize][axis];
        // Low side: strictly below the pivot coordinate. (Ties all go high,
        // which keeps the split deterministic; a degenerate split falls back
        // below.)
        let split = region.partition_point(|&v| self.coords[v as usize][axis] < pivot);
        if split == 0 || split == region.len() {
            // All coordinates equal along every axis (or pathological
            // geometry, e.g. NaN): no plane separates; order directly.
            return self.leaf(&region);
        }
        let (low, high) = region.split_at(split);
        self.ctr += 1;
        let ctr = self.ctr;
        for &v in low {
            self.side[v as usize] = 0;
            self.member[v as usize] = ctr;
        }
        for &v in high {
            self.side[v as usize] = 1;
            self.member[v as usize] = ctr;
        }
        // Separator: high-side vertices adjacent to a low-side vertex *of
        // this region*.
        let mut separator = Vec::new();
        let mut rest_high = Vec::new();
        for &v in high {
            let is_sep = self
                .g
                .neighbors(v as usize)
                .iter()
                .any(|&w| self.member[w as usize] == ctr && self.side[w as usize] == 0);
            if is_sep {
                separator.push(v);
            } else {
                rest_high.push(v);
            }
        }
        let low = low.to_vec();
        drop(region);
        let first_desc = self.order.len() as u32;
        let mut children = vec![self.dissect(low)];
        if !rest_high.is_empty() {
            children.push(self.dissect(rest_high));
        }
        // Separator last; its internal order is by coordinate (already
        // sorted by the region sort, which kept the axis key order).
        let col_start = self.order.len() as u32;
        self.order.extend_from_slice(&separator);
        self.push_node(&children, first_desc, col_start)
    }
}

/// Orders a base-case region (shared with [`crate::nd_graph()`]): natural
/// order, or minimum degree on the region's induced subgraph, which is handed
/// to the minimum-degree state directly — local index = position in `region`
/// — without materializing a pattern or a graph. `local` is a vertex → local
/// index map at least `g.n()` long, all `u32::MAX` on entry and on return.
pub(crate) fn order_base(
    g: &Graph,
    base: BaseOrdering,
    region: &[u32],
    order: &mut Vec<u32>,
    local: &mut [u32],
    md: &mut MindegScratch,
) {
    if base == BaseOrdering::Natural || region.len() <= 2 {
        order.extend_from_slice(region);
        return;
    }
    md.begin(region.len());
    with_index_map(local, region, |local| {
        for (i, &v) in region.iter().enumerate() {
            let inside = g.neighbors(v as usize).iter().map(|&w| local[w as usize]);
            md.set_neighbors(i, inside.filter(|&j| j != u32::MAX));
        }
    });
    md.run();
    order.extend(md.order.iter().map(|&k| region[k as usize]));
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::reference;
    use sparsemat::gen;

    #[test]
    fn produces_valid_permutation() {
        let p = gen::grid2d(12);
        let g = Graph::from_pattern(p.matrix.pattern());
        let perm = nested_dissection(&g, p.coords.as_ref().unwrap(), &NdOptions::default());
        assert_eq!(perm.len(), 144);
    }

    #[test]
    fn separator_is_ordered_after_halves() {
        // On a 2k x 2k grid the global separator (one grid line) must occupy
        // the very end of the ordering.
        let k = 8;
        let p = gen::grid2d(k);
        let g = Graph::from_pattern(p.matrix.pattern());
        let coords = p.coords.as_ref().unwrap();
        let opts = NdOptions { base_cutoff: 4, base: BaseOrdering::Natural };
        let (perm, tree) = nested_dissection_with_tree(&g, coords, &opts);
        tree.validate().unwrap();
        // The last k vertices must share one x (or y) coordinate: a plane.
        let tail: Vec<usize> = (k * k - k..k * k).map(|t| perm.old_of_new(t)).collect();
        let same_x = tail.iter().all(|&v| coords[v][0] == coords[tail[0]][0]);
        let same_y = tail.iter().all(|&v| coords[v][1] == coords[tail[0]][1]);
        assert!(same_x || same_y, "tail is not a grid line: {tail:?}");
        // And the tree root owns exactly those separator columns.
        let root = tree.len() - 1;
        assert_eq!(tree.own_cols(root), (k * k - k) as u32..(k * k) as u32);
    }

    #[test]
    fn grid_fill_beats_natural_and_is_near_md() {
        let p = gen::grid2d(16);
        let g = Graph::from_pattern(p.matrix.pattern());
        let nd = nested_dissection(&g, p.coords.as_ref().unwrap(), &NdOptions::default());
        let f_nd = reference::factor_nnz_lower(&g, &nd);
        let f_nat = reference::factor_nnz_lower(&g, &sparsemat::Permutation::identity(g.n()));
        assert!((f_nd as f64) < 0.75 * f_nat as f64, "nd {f_nd} nat {f_nat}");
    }

    #[test]
    fn degenerate_coords_fall_back() {
        // All nodes at the same point: no separating plane exists.
        let p = gen::grid2d(4);
        let g = Graph::from_pattern(p.matrix.pattern());
        let coords = vec![[0.0, 0.0, 0.0]; 16];
        let opts = NdOptions { base_cutoff: 2, base: BaseOrdering::Natural };
        let perm = nested_dissection(&g, &coords, &opts);
        assert_eq!(perm.len(), 16);
    }

    #[test]
    fn degenerate_empty_and_single_node() {
        let p = sparsemat::SparsityPattern::from_coords(0, Vec::new()).unwrap();
        let g = Graph::from_pattern(&p);
        let (perm, tree) = nested_dissection_with_tree(&g, &[], &NdOptions::default());
        assert_eq!(perm.len(), 0);
        assert!(tree.is_empty());

        let p = sparsemat::SparsityPattern::from_coords(1, Vec::new()).unwrap();
        let g = Graph::from_pattern(&p);
        let perm = nested_dissection(&g, &[[0.0; 3]], &NdOptions::default());
        assert_eq!(perm.len(), 1);
    }

    #[test]
    fn degenerate_disconnected_components() {
        // 64 isolated vertices on a line: geometric splitting never finds a
        // separator (halves are never adjacent), but must still emit a valid
        // permutation and tree.
        let p = sparsemat::SparsityPattern::from_coords(64, Vec::new()).unwrap();
        let g = Graph::from_pattern(&p);
        let coords: Vec<[f32; 3]> = (0..64).map(|i| [i as f32, 0.0, 0.0]).collect();
        let opts = NdOptions { base_cutoff: 8, base: BaseOrdering::MinimumDegree };
        let (perm, tree) = nested_dissection_with_tree(&g, &coords, &opts);
        assert_eq!(perm.len(), 64);
        tree.validate().unwrap();
    }

    #[test]
    fn degenerate_duplicate_and_nan_coords() {
        // Half the grid collapses onto one point, and two coordinates are
        // NaN: must not panic, must stay a bijection.
        let p = gen::grid2d(8);
        let g = Graph::from_pattern(p.matrix.pattern());
        let mut coords = p.coords.clone().unwrap();
        for c in coords.iter_mut().take(32) {
            *c = [1.0, 1.0, 0.0];
        }
        coords[40] = [f32::NAN, 0.0, 0.0];
        coords[41] = [0.0, f32::NAN, f32::NAN];
        let opts = NdOptions { base_cutoff: 4, base: BaseOrdering::MinimumDegree };
        let (perm, tree) = nested_dissection_with_tree(&g, &coords, &opts);
        assert_eq!(perm.len(), 64);
        tree.validate().unwrap();
    }

    #[test]
    fn cube_ordering_is_valid_and_low_fill() {
        let p = gen::cube3d(5);
        let g = Graph::from_pattern(p.matrix.pattern());
        let nd = nested_dissection(&g, p.coords.as_ref().unwrap(), &NdOptions::default());
        let f_nd = reference::factor_nnz_lower(&g, &nd);
        let f_nat = reference::factor_nnz_lower(&g, &sparsemat::Permutation::identity(g.n()));
        assert!(f_nd <= f_nat);
    }
}
