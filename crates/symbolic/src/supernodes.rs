//! Fundamental supernodes, supernodal symbolic structure, and relaxed
//! amalgamation.
//!
//! A supernode is a set of adjacent factor columns sharing one nonzero
//! structure below a dense diagonal block (paper Section 2.2). Amalgamation
//! (Ashcraft & Grimes, the paper's reference \[1\]) merges a supernode into its
//! parent when doing so adds only a tolerable number of explicit zeros; the
//! paper uses it in all experiments.

use crate::etree::NONE;
use sparsemat::SparsityPattern;

/// Relaxed amalgamation options: a child supernode is merged into its
/// (column-adjacent) parent when any of three relaxation rules accepts the
/// merged supernode. All rules track the *cumulative* explicit-zero count of
/// the merged group (not the per-merge delta), so merge cascades cannot
/// silently densify the factor.
///
/// * **Relative** — cumulative zeros ≤ `max_fill_frac` × merged stored
///   nonzeros. This is the master knob: `max_fill_frac == 0` disables
///   amalgamation entirely (the other rules are only consulted while
///   relaxation is active).
/// * **Absolute** — cumulative zeros ≤ `max_zero_cols` × merged structure
///   height, i.e. an allowance of that many whole zero columns. Lets small
///   supernodes merge even when the relative test fails.
/// * **Width** — a merged supernode no wider than `min_width` columns always
///   merges (tiny supernodes cost more in per-block overhead than the
///   explicit zeros they would introduce).
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct AmalgamationOpts {
    /// Relative cap: cumulative zeros / merged supernode stored nonzeros.
    /// Zero disables amalgamation entirely.
    pub max_fill_frac: f64,
    /// Absolute allowance in whole-column units: cumulative zeros up to
    /// `max_zero_cols` × merged structure height are accepted.
    pub max_zero_cols: u64,
    /// Merged supernodes at most this wide always merge.
    pub min_width: usize,
}

impl Default for AmalgamationOpts {
    fn default() -> Self {
        Self { max_fill_frac: 0.10, max_zero_cols: 1, min_width: 8 }
    }
}

impl AmalgamationOpts {
    /// Disables amalgamation entirely.
    pub fn off() -> Self {
        Self { max_fill_frac: 0.0, max_zero_cols: 0, min_width: 0 }
    }

    /// Whether any merging can happen under these options.
    #[inline]
    pub fn enabled(&self) -> bool {
        self.max_fill_frac > 0.0
    }
}

/// The supernode partition of the factor columns plus the symbolic structure
/// of each supernode.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Supernodes {
    /// `first_col[s]..first_col[s+1]` are the columns of supernode `s`.
    pub first_col: Vec<u32>,
    /// Supernode containing each column.
    pub sn_of_col: Vec<u32>,
    /// Sorted row structure of each supernode, *including* its own columns.
    /// Column `j` of supernode `s` has structure `rows[s] ∩ {≥ j}`.
    pub rows: Vec<Box<[u32]>>,
    /// Parent in the supernode elimination tree ([`NONE`] for roots).
    pub parent: Vec<u32>,
    /// Depth in the supernode tree (roots at 0).
    pub depth: Vec<u32>,
}

impl Supernodes {
    /// Number of supernodes.
    #[inline]
    pub fn count(&self) -> usize {
        self.first_col.len() - 1
    }

    /// Number of matrix columns.
    #[inline]
    pub fn n(&self) -> usize {
        self.sn_of_col.len()
    }

    /// Column range of supernode `s`.
    #[inline]
    pub fn cols(&self, s: usize) -> std::ops::Range<usize> {
        self.first_col[s] as usize..self.first_col[s + 1] as usize
    }

    /// Width (number of columns) of supernode `s`.
    #[inline]
    pub fn width(&self, s: usize) -> usize {
        (self.first_col[s + 1] - self.first_col[s]) as usize
    }

    /// Factor nonzeros stored for supernode `s` (trapezoid: the diagonal
    /// block's lower triangle plus dense below-rows).
    pub fn nnz(&self, s: usize) -> u64 {
        trapezoid_nnz(self.width(s) as u64, self.rows[s].len() as u64)
    }

    /// Total stored factor nonzeros (including the diagonal and any explicit
    /// zeros introduced by amalgamation).
    pub fn total_nnz(&self) -> u64 {
        (0..self.count()).map(|s| self.nnz(s)).sum()
    }

    /// Computes supernodes for a (postordered) matrix pattern: detection,
    /// symbolic structure, and relaxed amalgamation.
    ///
    /// `parent` is the elimination tree and `counts` the factor column
    /// counts of `a` (see [`crate::col_counts`]).
    pub fn compute(
        a: &SparsityPattern,
        parent: &[u32],
        counts: &[u32],
        amalg: &AmalgamationOpts,
    ) -> Self {
        let n = a.n();
        assert_eq!(parent.len(), n);
        assert_eq!(counts.len(), n);
        if n == 0 {
            return Self {
                first_col: vec![0],
                sn_of_col: Vec::new(),
                rows: Vec::new(),
                parent: Vec::new(),
                depth: Vec::new(),
            };
        }
        let (first_col, sn_of_col) = detect(parent, counts);
        let children = supernode_children(parent, &first_col, &sn_of_col);
        let num_sn = first_col.len() - 1;
        let mut rows: Vec<Vec<u32>> = vec![Vec::new(); num_sn];
        let mut stamp = vec![u32::MAX; n];
        for s in 0..num_sn {
            // SAFETY: sequential pass in ascending order — every child of
            // `s` has a smaller index and its structure is already written.
            rows[s] = unsafe {
                supernode_structure(a, &first_col, counts, &children, rows.as_ptr(), s, &mut stamp)
            };
        }
        Self::finish(n, first_col, sn_of_col, rows, amalg)
    }

    /// Amalgamation + renumbering over already-computed fundamental
    /// structures; the tail of [`Self::compute`], shared with the parallel
    /// analysis in [`crate::par`].
    pub(crate) fn finish(
        n: usize,
        first_col: Vec<u32>,
        sn_of_col: Vec<u32>,
        rows: Vec<Vec<u32>>,
        amalg: &AmalgamationOpts,
    ) -> Self {
        let num_sn = first_col.len() - 1;
        // --- Relaxed amalgamation: bottom-up pass over the supernode etree
        // (the postorder guarantees children precede parents, so ascending
        // supernode order visits every child before its parent), merging a
        // child group into its column-adjacent parent group whenever one of
        // the relaxation rules in [`AmalgamationOpts`] accepts the result.
        // Group state, indexed by the group's *top* original supernode.
        let mut group_of: Vec<u32> = (0..num_sn as u32).collect(); // union-find
        let mut grp_first: Vec<u32> = (0..num_sn).map(|s| first_col[s]).collect();
        let mut grp_rows: Vec<Vec<u32>> = rows;
        let mut grp_zeros: Vec<u64> = vec![0; num_sn];
        let find = |group_of: &mut Vec<u32>, mut s: u32| -> u32 {
            while group_of[s as usize] != s {
                let p = group_of[s as usize];
                group_of[s as usize] = group_of[p as usize];
                s = group_of[s as usize];
            }
            s
        };
        if amalg.enabled() {
            for s in 0..num_sn as u32 {
                if find(&mut group_of, s) != s {
                    continue; // not a group top
                }
                let b_s = first_col[s as usize + 1] - 1;
                // Parent supernode = owner of first row below our columns.
                let Some(&f) = grp_rows[s as usize].iter().find(|&&i| i > b_s) else {
                    continue; // root
                };
                let p = find(&mut group_of, sn_of_col[f as usize]);
                let a_p = grp_first[p as usize];
                if a_p != b_s + 1 {
                    continue; // not column-adjacent; cannot keep columns contiguous
                }
                let w_g = (b_s + 1 - grp_first[s as usize]) as u64;
                let w_p = (first_col[p as usize + 1] - a_p) as u64;
                let h_g = grp_rows[s as usize].len() as u64;
                let h_p = grp_rows[p as usize].len() as u64;
                // Merged structure: our columns prepended to the parent rows
                // (our below-rows are a subset of the parent's structure).
                let h_m = w_g + h_p;
                let nnz_m = trapezoid_nnz(w_g + w_p, h_m);
                let zeros = nnz_m - trapezoid_nnz(w_g, h_g) - trapezoid_nnz(w_p, h_p);
                let cum_zeros = zeros + grp_zeros[s as usize] + grp_zeros[p as usize];
                let ok = (cum_zeros as f64) <= amalg.max_fill_frac * nnz_m as f64
                    || cum_zeros <= amalg.max_zero_cols.saturating_mul(h_m)
                    || (w_g + w_p) as usize <= amalg.min_width;
                if !ok {
                    continue;
                }
                // Merge group s into group p.
                group_of[s as usize] = p;
                grp_zeros[p as usize] = cum_zeros;
                let mut merged: Vec<u32> =
                    (grp_first[s as usize]..=b_s).collect();
                merged.extend_from_slice(&grp_rows[p as usize]);
                grp_rows[p as usize] = merged;
                grp_first[p as usize] = grp_first[s as usize];
                grp_rows[s as usize] = Vec::new();
            }
        }

        // --- Renumber groups into the final partition. ---
        let mut tops: Vec<u32> = (0..num_sn as u32)
            .filter(|&s| find(&mut group_of, s) == s)
            .collect();
        tops.sort_by_key(|&s| grp_first[s as usize]);
        let mut out_first: Vec<u32> = tops.iter().map(|&s| grp_first[s as usize]).collect();
        out_first.push(n as u32);
        let out_rows: Vec<Box<[u32]>> = tops
            .iter()
            .map(|&s| std::mem::take(&mut grp_rows[s as usize]).into_boxed_slice())
            .collect();
        let num_out = tops.len();
        let mut out_sn_of_col = vec![0u32; n];
        for s in 0..num_out {
            for j in out_first[s]..out_first[s + 1] {
                out_sn_of_col[j as usize] = s as u32;
            }
        }
        // Supernode tree over the final partition.
        let mut out_parent = vec![NONE; num_out];
        for s in 0..num_out {
            let b_s = out_first[s + 1] - 1;
            if let Some(&f) = out_rows[s].iter().find(|&&i| i > b_s) {
                out_parent[s] = out_sn_of_col[f as usize];
            }
        }
        let mut out_depth = vec![0u32; num_out];
        // Parents have larger indices; descending pass sets depths top-down.
        for s in (0..num_out).rev() {
            let p = out_parent[s];
            if p != NONE {
                out_depth[s] = out_depth[p as usize] + 1;
            }
        }
        Self {
            first_col: out_first,
            sn_of_col: out_sn_of_col,
            rows: out_rows,
            parent: out_parent,
            depth: out_depth,
        }
    }
}

/// Fundamental supernode detection: maximal column runs where each column's
/// etree parent is the next column and the factor count shrinks by one.
/// Returns `(first_col, sn_of_col)`.
pub(crate) fn detect(parent: &[u32], counts: &[u32]) -> (Vec<u32>, Vec<u32>) {
    let n = parent.len();
    let mut first_col: Vec<u32> = vec![0];
    for j in 1..n {
        let continues = parent[j - 1] == j as u32 && counts[j] == counts[j - 1] - 1;
        if !continues {
            first_col.push(j as u32);
        }
    }
    first_col.push(n as u32);
    let num_sn = first_col.len() - 1;
    let mut sn_of_col = vec![0u32; n];
    for s in 0..num_sn {
        for j in first_col[s]..first_col[s + 1] {
            sn_of_col[j as usize] = s as u32;
        }
    }
    (first_col, sn_of_col)
}

/// Children lists of the fundamental supernode tree, derived from the etree
/// alone: the parent of supernode `s` owns the etree parent of `s`'s last
/// column (for fundamental supernodes that *is* the first structure row
/// below the columns). Children appear in ascending order, and the lists are
/// read-only during structure computation — which is what lets the parallel
/// path compute structures for disjoint supernode ranges concurrently.
pub(crate) fn supernode_children(
    parent: &[u32],
    first_col: &[u32],
    sn_of_col: &[u32],
) -> Vec<Vec<u32>> {
    let num_sn = first_col.len() - 1;
    let mut children: Vec<Vec<u32>> = vec![Vec::new(); num_sn];
    for s in 0..num_sn {
        let b_s = first_col[s + 1] as usize - 1;
        let p = parent[b_s];
        if p != NONE {
            children[sn_of_col[p as usize] as usize].push(s as u32);
        }
    }
    children
}

/// Symbolic structure of one supernode: its own columns, the original
/// entries of its member columns, and each child's rows beyond the child's
/// columns; sorted. Reads only `rows[c]` for children `c` of `s`; `stamp` is
/// caller-provided scratch of length `n`. Takes `rows` as a raw pointer so
/// the parallel path in [`crate::par`] can share the array across threads
/// that write provably disjoint slots.
///
/// # Safety
/// `rows` must point to an array of initialized `Vec<u32>` covering every
/// child of `s`, the children's structures must already be computed, and no
/// concurrent writer may touch those child slots while this runs.
pub(crate) unsafe fn supernode_structure(
    a: &SparsityPattern,
    first_col: &[u32],
    counts: &[u32],
    children: &[Vec<u32>],
    rows: *const Vec<u32>,
    s: usize,
    stamp: &mut [u32],
) -> Vec<u32> {
    let (a_s, b_s) = (first_col[s] as usize, first_col[s + 1] as usize - 1);
    let mut r: Vec<u32> = Vec::with_capacity(counts[a_s] as usize);
    // Own columns (diagonal block is dense).
    stamp[a_s..=b_s].fill(s as u32);
    r.extend((a_s..=b_s).map(|j| j as u32));
    // Original entries of member columns.
    for j in a_s..=b_s {
        for &i in a.col(j) {
            let i = i as usize;
            if stamp[i] != s as u32 {
                stamp[i] = s as u32;
                r.push(i as u32);
            }
        }
    }
    // Child supernode contributions (rows beyond the child's columns).
    for &c in &children[s] {
        let c = c as usize;
        let b_c = first_col[c + 1] - 1;
        for &i in (*rows.add(c)).iter() {
            if i > b_c && stamp[i as usize] != s as u32 {
                stamp[i as usize] = s as u32;
                r.push(i);
            }
        }
    }
    r.sort_unstable();
    r
}

/// Nonzeros of a trapezoidal supernode: width `w`, total structure height
/// `h ≥ w` (the first `w` rows form the dense lower-triangular diagonal
/// block).
#[inline]
fn trapezoid_nnz(w: u64, h: u64) -> u64 {
    debug_assert!(h >= w);
    w * h - w * (w - 1) / 2
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::{col_counts, etree};
    use sparsemat::{Graph, Permutation, SparsityPattern};

    fn build(n: usize, lower: &[(u32, u32)], amalg: &AmalgamationOpts) -> Supernodes {
        let a = SparsityPattern::from_coords(n, lower.iter().copied()).unwrap();
        let parent = etree(&a);
        let counts = col_counts(&a, &parent);
        Supernodes::compute(&a, &parent, &counts, amalg)
    }

    #[test]
    fn dense_matrix_is_one_supernode() {
        let mut lower = Vec::new();
        for i in 0..6u32 {
            for j in 0..i {
                lower.push((i, j));
            }
        }
        let sn = build(6, &lower, &AmalgamationOpts::off());
        assert_eq!(sn.count(), 1);
        assert_eq!(sn.width(0), 6);
        assert_eq!(sn.rows[0].len(), 6);
        assert_eq!(sn.total_nnz(), 21);
        assert_eq!(sn.parent[0], NONE);
    }

    #[test]
    fn tridiagonal_supernodes_are_pairsish() {
        // Tridiagonal: counts are [2,2,...,2,1]; col j-1 has parent j and
        // count[j] == count[j-1] - 1 only at the last column.
        let sn = build(5, &[(1, 0), (2, 1), (3, 2), (4, 3)], &AmalgamationOpts::off());
        // Supernodes: {0},{1},{2},{3,4}.
        assert_eq!(sn.count(), 4);
        assert_eq!(sn.width(3), 2);
    }

    #[test]
    fn structure_matches_reference_elimination() {
        let p = sparsemat::gen::grid2d(6);
        let a = p.matrix.pattern();
        let parent = etree(a);
        let counts = col_counts(a, &parent);
        let sn = Supernodes::compute(a, &parent, &counts, &AmalgamationOpts::off());
        let g = Graph::from_pattern(a);
        let reference = ordering::reference::eliminate(&g, &Permutation::identity(a.n()));
        for (j, rj) in reference.iter().enumerate().take(a.n()) {
            let s = sn.sn_of_col[j] as usize;
            let ours: Vec<u32> = sn.rows[s]
                .iter()
                .copied()
                .filter(|&i| i as usize > j)
                .collect();
            let want: Vec<u32> = rj.iter().copied().collect();
            assert_eq!(ours, want, "column {j}");
        }
    }

    #[test]
    fn amalgamation_reduces_supernode_count_and_adds_zeros() {
        let p = sparsemat::gen::grid2d(8);
        let a = p.matrix.pattern();
        let parent = etree(a);
        let counts = col_counts(a, &parent);
        let exact = Supernodes::compute(a, &parent, &counts, &AmalgamationOpts::off());
        let relaxed = Supernodes::compute(
            a,
            &parent,
            &counts,
            &AmalgamationOpts { max_fill_frac: 0.25, max_zero_cols: 0, min_width: 0 },
        );
        assert!(relaxed.count() < exact.count());
        assert!(relaxed.total_nnz() >= exact.total_nnz());
        // Every exact structure entry survives in the relaxed structure.
        for j in 0..a.n() {
            let se = exact.sn_of_col[j] as usize;
            let sr = relaxed.sn_of_col[j] as usize;
            for &i in exact.rows[se].iter().filter(|&&i| i as usize >= j) {
                assert!(relaxed.rows[sr].contains(&i), "col {j} row {i}");
            }
        }
    }

    #[test]
    fn zero_fill_frac_is_the_identity() {
        // `max_fill_frac == 0` is the master off-switch: even with generous
        // absolute and width allowances, no merging may happen.
        for prob in [sparsemat::gen::grid2d(10), sparsemat::gen::cube3d(4)] {
            let a = prob.matrix.pattern();
            let parent = etree(a);
            let counts = col_counts(a, &parent);
            let exact = Supernodes::compute(a, &parent, &counts, &AmalgamationOpts::off());
            let opts = AmalgamationOpts { max_fill_frac: 0.0, max_zero_cols: 64, min_width: 32 };
            assert!(!opts.enabled());
            let got = Supernodes::compute(a, &parent, &counts, &opts);
            assert_eq!(got.first_col, exact.first_col);
            assert_eq!(got.sn_of_col, exact.sn_of_col);
            assert_eq!(got.rows, exact.rows);
            assert_eq!(got.parent, exact.parent);
        }
    }

    #[test]
    fn width_rule_merges_tiny_supernodes() {
        // A long tridiagonal chain amalgamates into wide supernodes under the
        // width rule alone, and the explicit-zero count grows accordingly.
        let lower: Vec<(u32, u32)> = (1..12u32).map(|i| (i, i - 1)).collect();
        let exact = build(12, &lower, &AmalgamationOpts::off());
        let wide = build(
            12,
            &lower,
            &AmalgamationOpts { max_fill_frac: 1e-9, max_zero_cols: 0, min_width: 4 },
        );
        assert!(wide.count() < exact.count());
        assert!(wide.total_nnz() > exact.total_nnz());
        for s in 0..wide.count() {
            // Merges only fire while the merged width stays ≤ min_width, so
            // amalgamated widths never exceed max(min_width, widest
            // fundamental supernode).
            assert!(wide.width(s) <= 4, "supernode {s} too wide: {}", wide.width(s));
        }
    }

    #[test]
    fn partition_is_exact_cover() {
        let p = sparsemat::gen::cube3d(4);
        let a = p.matrix.pattern();
        let parent = etree(a);
        let counts = col_counts(a, &parent);
        for amalg in [AmalgamationOpts::off(), AmalgamationOpts::default()] {
            let sn = Supernodes::compute(a, &parent, &counts, &amalg);
            assert_eq!(sn.first_col[0], 0);
            assert_eq!(*sn.first_col.last().unwrap(), a.n() as u32);
            for s in 0..sn.count() {
                assert!(sn.first_col[s] < sn.first_col[s + 1]);
                // Row list starts with the supernode's own columns.
                let w = sn.width(s);
                for (k, &r) in sn.rows[s][..w].iter().enumerate() {
                    assert_eq!(r, sn.first_col[s] + k as u32);
                }
                // Parent is above.
                if sn.parent[s] != NONE {
                    assert!(sn.parent[s] as usize > s);
                }
            }
        }
    }

    #[test]
    fn depths_decrease_toward_root() {
        let p = sparsemat::gen::grid2d(6);
        let a = p.matrix.pattern();
        let parent = etree(a);
        let counts = col_counts(a, &parent);
        let sn = Supernodes::compute(a, &parent, &counts, &AmalgamationOpts::off());
        for s in 0..sn.count() {
            if sn.parent[s] != NONE {
                assert_eq!(sn.depth[s], sn.depth[sn.parent[s] as usize] + 1);
            } else {
                assert_eq!(sn.depth[s], 0);
            }
        }
    }
}
