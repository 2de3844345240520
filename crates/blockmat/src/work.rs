//! The per-block work model of Section 3.2.
//!
//! `work[I][J]` approximates the runtime the owner of `L[I][J]` spends on its
//! behalf: the flops of every block operation whose *destination* is
//! `L[I][J]`, plus a fixed 1000-op charge per such operation ("the fixed cost
//! of performing a block operation using small blocks often dominates"; the
//! 1000-op constant was measured from the authors' code).

use crate::ops::for_each_bmod;
use crate::structure::BlockMatrix;
use dense::kernels::flops;

/// Work model parameters.
#[derive(Debug, Clone, Copy)]
pub struct WorkModel {
    /// Fixed per-block-operation charge, in equivalent flops.
    pub fixed_op_cost: u64,
}

impl Default for WorkModel {
    fn default() -> Self {
        Self { fixed_op_cost: 1000 }
    }
}

/// Work assigned to every block, with row/column aggregates.
#[derive(Debug, Clone)]
pub struct BlockWork {
    /// `per_block[j][b]` is the work of block `b` of block column `j`,
    /// aligned with `BlockMatrix::cols[j].blocks`.
    pub per_block: Vec<Vec<u64>>,
    /// `workI[I]`: aggregate work of block row `I`.
    pub row_work: Vec<u64>,
    /// `workJ[J]`: aggregate work of block column `J`.
    pub col_work: Vec<u64>,
    /// Total work.
    pub total: u64,
    /// Number of distinct block operations.
    pub num_ops: u64,
    /// Total flops (work minus fixed op charges).
    pub total_flops: u64,
}

impl BlockWork {
    /// Computes the work model over a block matrix.
    pub fn compute(bm: &BlockMatrix, model: &WorkModel) -> Self {
        let np = bm.num_panels();
        let mut per_block: Vec<Vec<u64>> =
            (0..np).map(|j| vec![0u64; bm.cols[j].blocks.len()]).collect();
        let mut num_ops = 0u64;
        let mut total_flops = 0u64;
        // BFAC on diagonal blocks, BDIV on off-diagonal blocks.
        for (j, pbj) in per_block.iter_mut().enumerate() {
            let c = bm.col_width(j);
            for (b, blk) in bm.cols[j].blocks.iter().enumerate() {
                let fl = if b == 0 {
                    flops::bfac(c)
                } else {
                    flops::bdiv(blk.nrows(), c)
                };
                pbj[b] = fl + model.fixed_op_cost;
                num_ops += 1;
                total_flops += fl;
            }
        }
        // BMODs charge their destination block.
        for_each_bmod(bm, |op| {
            let fl = op.flops();
            per_block[op.j as usize][op.dest_b as usize] += fl + model.fixed_op_cost;
            num_ops += 1;
            total_flops += fl;
        });
        let mut row_work = vec![0u64; np];
        let mut col_work = vec![0u64; np];
        let mut total = 0u64;
        for j in 0..np {
            for (b, blk) in bm.cols[j].blocks.iter().enumerate() {
                let w = per_block[j][b];
                row_work[blk.row_panel as usize] += w;
                col_work[j] += w;
                total += w;
            }
        }
        Self { per_block, row_work, col_work, total, num_ops, total_flops }
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
    fn aggregates_are_consistent() {
        let m = bm(8, 4);
        let w = BlockWork::compute(&m, &WorkModel::default());
        assert_eq!(w.row_work.iter().sum::<u64>(), w.total);
        assert_eq!(w.col_work.iter().sum::<u64>(), w.total);
        assert_eq!(w.total, w.total_flops + 1000 * w.num_ops);
        // Every block has at least its BFAC/BDIV charge.
        for col in &w.per_block {
            for &x in col {
                assert!(x >= 1000);
            }
        }
    }

    #[test]
    fn fixed_cost_zero_counts_pure_flops() {
        let m = bm(6, 3);
        let w = BlockWork::compute(&m, &WorkModel { fixed_op_cost: 0 });
        assert_eq!(w.total, w.total_flops);
    }

    #[test]
    fn dense_block_flops_match_dense_cholesky_total() {
        // For a dense matrix the sum of all block-op flops must equal the
        // flops of dense Cholesky at the same partition, ~n³/3.
        let p = sparsemat::gen::dense(32);
        let a = p.matrix.pattern();
        let parent = symbolic::etree(a);
        let counts = symbolic::col_counts(a, &parent);
        let sn = Supernodes::compute(a, &parent, &counts, &AmalgamationOpts::off());
        let m = BlockMatrix::build(sn, 8);
        let w = BlockWork::compute(&m, &WorkModel { fixed_op_cost: 0 });
        let n = 32f64;
        let approx = n.powi(3) / 3.0;
        let got = w.total_flops as f64;
        assert!(
            (got - approx).abs() / approx < 0.2,
            "got {got}, expected ≈ {approx}"
        );
    }

    #[test]
    fn deeper_rows_receive_more_work_in_dense() {
        let p = sparsemat::gen::dense(40);
        let a = p.matrix.pattern();
        let parent = symbolic::etree(a);
        let counts = symbolic::col_counts(a, &parent);
        let sn = Supernodes::compute(a, &parent, &counts, &AmalgamationOpts::off());
        let m = BlockMatrix::build(sn, 8);
        let w = BlockWork::compute(&m, &WorkModel::default());
        // workI grows with I for dense problems (the paper's explanation of
        // row imbalance: quadratic growth in I).
        let first = w.row_work[0];
        let last = *w.row_work.last().unwrap();
        assert!(last > 3 * first, "first {first} last {last}");
    }
}
