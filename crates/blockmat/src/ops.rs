//! The block operations (paper Section 2.1) and the update graph they form.
//!
//! The factorization consists of `BFAC(K,K)` (factor a diagonal block),
//! `BDIV(I,K)` (triangular solve of an off-diagonal block), and
//! `BMOD(I,J,K)` (update `L[I][J] -= L[I][K]·L[J][K]ᵀ`). `BFAC`/`BDIV`
//! are one per block and implicit in the structure; `BMOD`s are pairs of
//! blocks within a source block column. [`Updates`] lists every `BMOD` once,
//! with its destination block and the transpose (each block's incoming
//! updates); it is built with the [`BlockMatrix`], and the work model, the
//! critical path, the fan-out plan, the protocol and both executors read it
//! instead of enumerating the pairs themselves.

use crate::structure::{BlockCol, BlockMatrix};

/// One `BMOD(I, J, K)` operation with its operand shapes.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct BmodOp {
    /// Destination row panel `I`.
    pub i: u32,
    /// Destination column panel `J` (`K < J ≤ I`).
    pub j: u32,
    /// Source block column `K`.
    pub k: u32,
    /// Index of the source block `L[I][K]` within column `K`'s block list.
    pub src_a: u32,
    /// Index of the source block `L[J][K]` within column `K`'s block list.
    pub src_b: u32,
    /// Index of the destination block `L[I][J]` within column `J`'s block
    /// list.
    pub dest_b: u32,
    /// Dense rows of `L[I][K]`.
    pub r_a: u32,
    /// Dense rows of `L[J][K]`.
    pub r_b: u32,
    /// Width of block column `K`.
    pub c_k: u32,
}

impl BmodOp {
    /// Floating point operations of this update (symmetric rank-k form when
    /// the destination is a diagonal block).
    #[inline]
    pub fn flops(&self) -> u64 {
        if self.i == self.j {
            dense::kernels::flops::bmod_diag(self.r_a as usize, self.c_k as usize)
        } else {
            dense::kernels::flops::bmod(self.r_a as usize, self.r_b as usize, self.c_k as usize)
        }
    }
}

/// The update graph of a block structure: every `BMOD` once, in
/// source-column-major order (the order of [`for_each_bmod`]) with its
/// destination, and per destination block its sources in ascending source
/// column — the order the sequential factorization sums them in.
///
/// Blocks also get flat ids here: block `b` of column `j` is
/// [`Updates::block_id`]`(j, b)`, column after column.
#[derive(Debug, Clone)]
pub struct Updates {
    /// Flat id of the first block of each column (len `N + 1`).
    block_base: Vec<u32>,
    /// Per source column: start of its updates in `dest_b` (len `N + 1`).
    pair_base: Vec<u32>,
    /// Per update: index of the destination block within its column.
    dest_b: Vec<u32>,
    /// Per flat destination id: start of its sources in `src` (len
    /// `#blocks + 1`).
    src_base: Vec<u32>,
    /// `(k, a, b)` of every update, grouped by destination, ascending `k`.
    src: Vec<(u32, u32, u32)>,
}

impl Updates {
    /// Lists the updates of the block columns `cols`. Each destination is
    /// found by one merge walk per source block: the pair's rows ascend with
    /// `a`, and so do the destination column's blocks.
    pub(crate) fn new(cols: &[BlockCol]) -> Self {
        let (mut block_base, mut pair_base) = (vec![0u32], vec![0u32]);
        let (mut nb, mut npairs) = (0usize, 0usize);
        for c in cols {
            let m = c.blocks.len();
            nb += m;
            npairs += m * (m - 1) / 2;
            let too_many = "fewer than 2^32 blocks and updates";
            block_base.push(u32::try_from(nb).expect(too_many));
            pair_base.push(u32::try_from(npairs).expect(too_many));
        }
        let mut dest_b = Vec::with_capacity(npairs);
        let mut src_base = vec![0u32; nb + 1];
        for blocks in cols.iter().map(|c| &c.blocks) {
            for b in 1..blocks.len() {
                let j = blocks[b].row_panel as usize;
                let dest_blocks = &cols[j].blocks;
                let mut di = 0;
                for blk_a in &blocks[b..] {
                    di += dest_blocks[di..]
                        .iter()
                        .position(|d| d.row_panel == blk_a.row_panel)
                        .expect("BMOD destination exists");
                    dest_b.push(di as u32);
                    src_base[block_base[j] as usize + di + 1] += 1;
                }
            }
        }
        for id in 0..nb {
            src_base[id + 1] += src_base[id];
        }
        // Scatter in source-column order: each destination's list comes out
        // ascending in `k`.
        let mut next = src_base.clone();
        let mut src = vec![(0, 0, 0); dest_b.len()];
        let mut p = 0;
        for (k, blocks) in cols.iter().map(|c| &c.blocks).enumerate() {
            for b in 1..blocks.len() {
                let base = block_base[blocks[b].row_panel as usize] as usize;
                for a in b..blocks.len() {
                    let id = base + dest_b[p] as usize;
                    src[next[id] as usize] = (k as u32, a as u32, b as u32);
                    next[id] += 1;
                    p += 1;
                }
            }
        }
        Self { block_base, pair_base, dest_b, src_base, src }
    }

    /// Number of blocks.
    #[inline]
    pub fn num_blocks(&self) -> usize {
        self.src_base.len() - 1
    }

    /// Number of `BMOD`s.
    #[inline]
    pub fn num_updates(&self) -> usize {
        self.dest_b.len()
    }

    /// Flat id of block `b` of column `j`.
    #[inline]
    pub fn block_id(&self, j: usize, b: usize) -> usize {
        self.block_base[j] as usize + b
    }

    /// Destination indices (each within its own column) of the updates out
    /// of column `k`, in [`for_each_bmod`] order: `b` ascending, then
    /// `a ≥ b` ascending.
    #[inline]
    pub fn dests_of(&self, k: usize) -> &[u32] {
        &self.dest_b[self.pair_base[k] as usize..self.pair_base[k + 1] as usize]
    }

    /// Index within column `blocks[b].row_panel` of the destination of the
    /// update sourced by blocks `a ≥ b ≥ 1` of column `k`.
    #[inline]
    pub fn dest(&self, k: usize, a: usize, b: usize) -> usize {
        let m = (self.block_base[k + 1] - self.block_base[k]) as usize;
        // Pairs of the earlier `b' < b` come first: `m − b'` of each.
        let before = (b - 1) * m - (b - 1) * b / 2;
        self.dest_b[self.pair_base[k] as usize + before + a - b] as usize
    }

    /// The updates into flat block `id`, as `(k, a, b)` source triples
    /// ascending in `k`.
    #[inline]
    pub fn sources(&self, id: usize) -> &[(u32, u32, u32)] {
        &self.src[self.src_base[id] as usize..self.src_base[id + 1] as usize]
    }
}

impl BlockMatrix {
    /// The `BMOD`s sourced from block column `k`, in [`for_each_bmod`]
    /// order.
    pub fn bmods_of(&self, k: usize) -> impl Iterator<Item = BmodOp> + '_ {
        let blocks = &self.cols[k].blocks;
        let m = blocks.len();
        let c_k = self.col_width(k) as u32;
        let pairs = (1..m).flat_map(move |b| (b..m).map(move |a| (a, b)));
        pairs.zip(self.updates().dests_of(k)).map(move |((a, b), &dest_b)| BmodOp {
            i: blocks[a].row_panel,
            j: blocks[b].row_panel,
            k: k as u32,
            src_a: a as u32,
            src_b: b as u32,
            dest_b,
            r_a: blocks[a].hi - blocks[a].lo,
            r_b: blocks[b].hi - blocks[b].lo,
            c_k,
        })
    }
}

/// Visits every `BMOD(I, J, K)` in the factorization, in source-column-major
/// order (all updates out of block column `K = 0`, then `K = 1`, ...).
///
/// For each pair of off-diagonal blocks `L[I][K]`, `L[J][K]` with `I ≥ J`,
/// there is exactly one update, destined for `L[I][J]`.
pub fn for_each_bmod(bm: &BlockMatrix, mut f: impl FnMut(BmodOp)) {
    for k in 0..bm.num_panels() {
        bm.bmods_of(k).for_each(&mut f);
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use symbolic::{AmalgamationOpts, Supernodes};

    fn bm(k: usize, bs: usize) -> BlockMatrix {
        let p = sparsemat::gen::grid2d(k);
        let a = p.matrix.pattern();
        let parent = symbolic::etree(a);
        let counts = symbolic::col_counts(a, &parent);
        let sn = Supernodes::compute(a, &parent, &counts, &AmalgamationOpts::default());
        BlockMatrix::build(sn, bs)
    }

    #[test]
    fn destinations_exist_in_structure() {
        let m = bm(8, 4);
        for_each_bmod(&m, |op| {
            let found = m.find_block(op.i as usize, op.j as usize);
            assert_eq!(found, Some(op.dest_b as usize), "destination ({}, {})", op.i, op.j);
            assert!(op.k < op.j || (op.j == op.i && op.k < op.i));
            assert!(op.j <= op.i);
            assert!(op.r_a >= 1 && op.r_b >= 1 && op.c_k >= 1);
        });
    }

    #[test]
    fn dense_bmod_count_is_binomial() {
        // Dense n=6 with B=2: one supernode, 3 panels. Column 0 has 2
        // off-diagonal blocks -> 3 pairs; column 1 has 1 -> 1 pair.
        let p = sparsemat::gen::dense(6);
        let a = p.matrix.pattern();
        let parent = symbolic::etree(a);
        let counts = symbolic::col_counts(a, &parent);
        let sn = Supernodes::compute(a, &parent, &counts, &AmalgamationOpts::off());
        let m = BlockMatrix::build(sn, 2);
        let mut n_ops = 0;
        for_each_bmod(&m, |_| n_ops += 1);
        assert_eq!(n_ops, 3 + 1);
        assert_eq!(m.updates().num_updates(), 3 + 1);
        let ops = crate::BlockWork::compute(&m, &crate::WorkModel::default()).num_ops;
        assert_eq!(ops, 4 + 6, "one BFAC or BDIV per block plus the BMODs");
    }

    #[test]
    fn bmod_flops_formulas() {
        let off =
            BmodOp { i: 2, j: 1, k: 0, src_a: 2, src_b: 1, dest_b: 1, r_a: 3, r_b: 4, c_k: 5 };
        assert_eq!(off.flops(), 2 * 3 * 4 * 5);
        let diag =
            BmodOp { i: 2, j: 2, k: 0, src_a: 2, src_b: 2, dest_b: 0, r_a: 3, r_b: 3, c_k: 5 };
        assert_eq!(diag.flops(), 3 * 4 * 5);
    }

    #[test]
    fn source_indices_point_at_right_blocks() {
        let m = bm(6, 3);
        for_each_bmod(&m, |op| {
            let col = &m.cols[op.k as usize];
            assert_eq!(col.blocks[op.src_a as usize].row_panel, op.i);
            assert_eq!(col.blocks[op.src_b as usize].row_panel, op.j);
            let upd = m.updates();
            assert_eq!(
                upd.dest(op.k as usize, op.src_a as usize, op.src_b as usize),
                op.dest_b as usize
            );
            let id = upd.block_id(op.j as usize, op.dest_b as usize);
            assert!(upd.sources(id).contains(&(op.k, op.src_a, op.src_b)));
        });
    }
}
