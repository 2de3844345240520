//! Elimination trees (Liu 1990, the paper's reference \[10\]).

use sparsemat::{Permutation, SparsityPattern};

/// Sentinel parent value for roots.
pub const NONE: u32 = u32::MAX;

/// Computes the elimination tree of a symmetric matrix given its lower
/// triangle pattern: `parent[j]` is the smallest `i > j` with `l_ij ≠ 0`,
/// or [`NONE`] for a root.
///
/// Liu's algorithm with path compression; `O(nnz·α(n))`.
pub fn etree(a: &SparsityPattern) -> Vec<u32> {
    let n = a.n();
    let (row_ptr, row_cols) = lower_row_structure(a);
    let mut parent = vec![NONE; n];
    let mut ancestor = vec![NONE; n];
    // Liu's algorithm requires visiting rows in ascending order, with all
    // entries of one row processed together.
    for i in 0..n {
        for &j in &row_cols[row_ptr[i]..row_ptr[i + 1]] {
            // Walk from j up the current virtual forest, compressing to i.
            let mut r = j as usize;
            loop {
                let anc = ancestor[r];
                if anc == i as u32 {
                    break;
                }
                ancestor[r] = i as u32;
                if anc == NONE {
                    parent[r] = i as u32;
                    break;
                }
                r = anc as usize;
            }
        }
    }
    parent
}

/// Builds the strictly-lower row structure (CSR) of a lower-triangle CSC
/// pattern: for each row `i`, the columns `j < i` with an entry `(i, j)`,
/// ascending.
pub fn lower_row_structure(a: &SparsityPattern) -> (Vec<usize>, Vec<u32>) {
    let n = a.n();
    let mut row_ptr = vec![0usize; n + 1];
    for (i, j) in a.iter() {
        if i != j {
            row_ptr[i as usize + 1] += 1;
        }
    }
    for i in 0..n {
        row_ptr[i + 1] += row_ptr[i];
    }
    let mut row_cols = vec![0u32; row_ptr[n]];
    let mut next = row_ptr.clone();
    for (i, j) in a.iter() {
        if i != j {
            row_cols[next[i as usize]] = j;
            next[i as usize] += 1;
        }
    }
    (row_ptr, row_cols)
}

/// Derived views of an elimination tree.
#[derive(Debug, Clone)]
pub struct EtreeInfo {
    /// Parent of each vertex ([`NONE`] for roots).
    pub parent: Vec<u32>,
    /// Children lists, each ascending.
    pub children: Vec<Vec<u32>>,
    /// Depth from the root (roots have depth 0).
    pub depth: Vec<u32>,
    /// Subtree vertex counts (including self).
    pub subtree_size: Vec<u32>,
}

impl EtreeInfo {
    /// Builds the derived views from a parent vector.
    pub fn new(parent: Vec<u32>) -> Self {
        let n = parent.len();
        let mut children = vec![Vec::new(); n];
        let mut roots = Vec::new();
        for j in 0..n {
            if parent[j] == NONE {
                roots.push(j as u32);
            } else {
                children[parent[j] as usize].push(j as u32);
            }
        }
        let mut depth = vec![0u32; n];
        let mut subtree_size = vec![1u32; n];
        // Depth: top-down in a BFS from the roots.
        let mut queue: Vec<u32> = roots;
        let mut head = 0;
        while head < queue.len() {
            let v = queue[head] as usize;
            head += 1;
            for &c in &children[v] {
                depth[c as usize] = depth[v] + 1;
                queue.push(c);
            }
        }
        // Subtree sizes: reverse BFS order is a valid bottom-up order.
        for &v in queue.iter().rev() {
            let p = parent[v as usize];
            if p != NONE {
                subtree_size[p as usize] += subtree_size[v as usize];
            }
        }
        Self { parent, children, depth, subtree_size }
    }

    /// Number of vertices.
    pub fn n(&self) -> usize {
        self.parent.len()
    }
}

/// Computes a postorder of the elimination tree as a [`Permutation`]:
/// position `k` of the result holds the vertex visited `k`-th.
///
/// Children are visited in ascending order, so an already-postordered tree
/// yields the identity.
pub fn postorder(parent: &[u32]) -> Permutation {
    let n = parent.len();
    let info = EtreeInfo::new(parent.to_vec());
    let mut order = Vec::with_capacity(n);
    // DFS from each root; explicit stack of (vertex, next-child index).
    let mut stack: Vec<(u32, usize)> = Vec::new();
    for (r, &pr) in parent.iter().enumerate() {
        if pr != NONE {
            continue;
        }
        stack.push((r as u32, 0));
        while let Some(&mut (v, ref mut ci)) = stack.last_mut() {
            let kids = &info.children[v as usize];
            if *ci < kids.len() {
                let c = kids[*ci];
                *ci += 1;
                stack.push((c, 0));
            } else {
                order.push(v);
                stack.pop();
            }
        }
    }
    Permutation::from_old_of_new(order).expect("postorder visits each vertex once")
}

/// Relabels an etree under a permutation of the vertices:
/// `out[p(j)] = p(parent[j])`.
pub fn relabel(parent: &[u32], perm: &Permutation) -> Vec<u32> {
    let n = parent.len();
    let mut out = vec![NONE; n];
    for j in 0..n {
        let pj = parent[j];
        out[perm.new_of_old(j)] = if pj == NONE {
            NONE
        } else {
            perm.new_of_old(pj as usize) as u32
        };
    }
    out
}

/// Checks the defining property of a postordered etree: every subtree is a
/// contiguous index range ending at its root (and parents come after
/// children). Used by tests and debug assertions in dependent crates.
pub fn is_postordered(parent: &[u32]) -> bool {
    let n = parent.len();
    // min_sub[v]: smallest index in v's subtree; computed bottom-up, which a
    // simple ascending pass provides when parents are above children.
    let mut min_sub: Vec<usize> = (0..n).collect();
    let mut size = vec![1usize; n];
    for v in 0..n {
        let p = parent[v];
        if p == NONE {
            continue;
        }
        let p = p as usize;
        if p <= v {
            return false;
        }
        min_sub[p] = min_sub[p].min(min_sub[v]);
        size[p] += size[v];
    }
    (0..n).all(|v| min_sub[v] == v + 1 - size[v])
}

#[cfg(test)]
mod tests {
    use super::*;
    use sparsemat::SparsityPattern;

    fn pattern_of(n: usize, lower: &[(u32, u32)]) -> SparsityPattern {
        SparsityPattern::from_coords(n, lower.iter().copied()).unwrap()
    }

    #[test]
    fn etree_of_tridiagonal_is_a_path() {
        let a = pattern_of(5, &[(1, 0), (2, 1), (3, 2), (4, 3)]);
        let p = etree(&a);
        assert_eq!(p, vec![1, 2, 3, 4, NONE]);
    }

    #[test]
    fn etree_of_arrow_matrix_is_a_star() {
        // Arrow: last row dense.
        let a = pattern_of(4, &[(3, 0), (3, 1), (3, 2)]);
        let p = etree(&a);
        assert_eq!(p, vec![3, 3, 3, NONE]);
    }

    #[test]
    fn etree_sees_fill_paths() {
        // A = {(1,0), (2,0)}: eliminating 0 fills (2,1), so parent(1) = 2.
        let a = pattern_of(3, &[(1, 0), (2, 0)]);
        let p = etree(&a);
        assert_eq!(p, vec![1, 2, NONE]);
    }

    #[test]
    fn info_depths_and_sizes() {
        let info = EtreeInfo::new(vec![2, 2, 4, 4, NONE]);
        assert_eq!(info.depth, vec![2, 2, 1, 1, 0]);
        assert_eq!(info.subtree_size, vec![1, 1, 3, 1, 5]);
        assert_eq!(info.children[4], vec![2, 3]);
    }

    #[test]
    fn postorder_is_identity_for_postordered_tree() {
        let parent = vec![1, 2, 3, 4, NONE];
        assert_eq!(postorder(&parent), Permutation::identity(5));
    }

    #[test]
    fn postorder_fixes_interleaved_tree() {
        // 0 -> 2, 1 -> 2 root; 3 -> 4 root. Already postordered? subtree of 2
        // is {0,1,2} contiguous; of 4 is {3,4}: yes. Make one that is not:
        // parent: 0->4, 1->2, 2->4, 3->4? subtree(2) = {1,2} contiguous...
        // Use: 0->3, 1->3, 2->3? contiguous. Non-postordered example:
        // parent[0]=2, parent[1]=3(root), parent[2]=3: subtree(2)={0,2}
        // contiguous, subtree(3) = all... but child 1 < 2 interleaves.
        let parent = vec![2, 3, 3, NONE];
        let po = postorder(&parent);
        let relabeled = relabel(&parent, &po);
        assert!(is_postordered(&relabeled));
    }

    #[test]
    fn is_postordered_detects_violations() {
        assert!(is_postordered(&[1, 2, NONE]));
        // Parent below child is invalid.
        assert!(!is_postordered(&[NONE, 0, 1]));
    }
}
