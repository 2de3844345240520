//! The precomputed assembly template for repeated factorization.
//!
//! A solver that refactors the same structure with new values should not pay
//! for symbolic work twice — and not for *positional* work either: the block
//! and flat offset of every input entry depend only on the block structure.
//! [`AssemblyTemplate`] computes those positions once; afterwards
//! [`AssemblyTemplate::assemble_into`] is a zero-fill plus one write per
//! input entry, allocation-free, and writes exactly the values that
//! [`NumericFactor::from_matrix_parallel`] writes (same positions, same
//! source floats). The solve needs no template: [`crate::solve_in_place`]
//! runs on the block storage itself.

use crate::factor::NumericFactor;
use blockmat::BlockMatrix;
use sparsemat::SparsityPattern;
use std::sync::Arc;

/// Precomputed input-entry → factor-storage scatter map.
///
/// Built against the *permuted* matrix's sparsity pattern; applying it to a
/// matrix with the same pattern but new values reproduces
/// [`NumericFactor::from_matrix_parallel`] without any structure walks.
#[derive(Debug, Clone)]
pub struct AssemblyTemplate {
    /// Per panel: total buffer length (diagonal block + off-diagonal rows).
    lens: Vec<usize>,
    /// Per panel: offset of each block in the panel buffer.
    offsets: Vec<Vec<usize>>,
    /// Per input CSC entry, in the matrix's column-major entry order:
    /// `(panel, flat position in data[panel])`.
    targets: Vec<(u32, usize)>,
}

impl AssemblyTemplate {
    /// Precomputes the scatter map for the (permuted) input pattern into
    /// `bm`'s block storage. Panics (like assembly itself) if an entry
    /// falls outside the block structure.
    pub fn build(bm: &BlockMatrix, a: &SparsityPattern) -> Self {
        assert_eq!(bm.sn.n(), a.n());
        let np = bm.num_panels();
        let mut lens = Vec::with_capacity(np);
        let mut offsets = Vec::with_capacity(np);
        for j in 0..np {
            let c = bm.col_width(j);
            let mut offs = Vec::with_capacity(bm.cols[j].blocks.len());
            let mut len = 0usize;
            for (b, blk) in bm.cols[j].blocks.iter().enumerate() {
                offs.push(len);
                len += if b == 0 { c * c } else { blk.nrows() * c };
            }
            lens.push(len);
            offsets.push(offs);
        }
        let mut targets = Vec::with_capacity(a.nnz());
        for j in 0..a.n() {
            let pj = bm.partition.panel_of_col[j] as usize;
            let c = bm.col_width(pj);
            let col_off = j - bm.partition.cols(pj).start;
            for &i in a.col(j) {
                let i = i as usize;
                let pi = bm.partition.panel_of_col[i] as usize;
                let b = bm
                    .find_block(pi, pj)
                    .unwrap_or_else(|| panic!("entry ({i},{j}) outside block structure"));
                let blk = bm.cols[pj].blocks[b];
                let r = if b == 0 {
                    i - bm.partition.cols(pj).start
                } else {
                    bm.block_rows(pj, &blk)
                        .binary_search(&(i as u32))
                        .unwrap_or_else(|_| panic!("row {i} not dense in block ({pi},{pj})"))
                };
                targets.push((pj as u32, offsets[pj][b] + r * c + col_off));
            }
        }
        Self { lens, offsets, targets }
    }

    /// Number of input entries the template scatters.
    #[inline]
    pub fn nnz(&self) -> usize {
        self.targets.len()
    }

    /// The per-entry scatter targets, aligned with the source matrix's
    /// column-major entry order. Exposed so callers can compose this map
    /// with their own entry reordering (e.g. a fill permutation) into a
    /// single direct scatter.
    #[inline]
    pub fn targets(&self) -> &[(u32, usize)] {
        &self.targets
    }

    /// Allocates zeroed block storage shaped for this template.
    pub fn alloc(&self, bm: Arc<BlockMatrix>) -> NumericFactor {
        NumericFactor {
            bm,
            data: self.lens.iter().map(|&l| vec![0.0; l]).collect(),
            offsets: self.offsets.clone(),
        }
    }

    /// Scatters `values` (the permuted matrix's entries, column-major — the
    /// same order [`AssemblyTemplate::build`] walked) into `f`, zeroing the
    /// fill positions first. The result is bit-identical to assembling a
    /// fresh factor from a matrix with those values.
    pub fn assemble_into(&self, values: &[f64], f: &mut NumericFactor) {
        assert_eq!(values.len(), self.targets.len(), "value count != pattern nnz");
        debug_assert_eq!(f.data.len(), self.lens.len());
        for buf in &mut f.data {
            buf.iter_mut().for_each(|x| *x = 0.0);
        }
        for (&(p, at), &v) in self.targets.iter().zip(values) {
            f.data[p as usize][at] = v;
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use symbolic::AmalgamationOpts;

    fn build(k: usize, bs: usize) -> (Arc<BlockMatrix>, sparsemat::SymCscMatrix) {
        let p = sparsemat::gen::grid2d(k);
        let perm = ordering::order_problem(&p);
        let analysis = symbolic::analyze(p.matrix.pattern(), &perm, &AmalgamationOpts::default());
        let pa = analysis.perm.apply_to_matrix(&p.matrix);
        let bm = Arc::new(BlockMatrix::build(analysis.supernodes, bs));
        (bm, pa)
    }

    #[test]
    fn template_assembly_is_bit_identical_to_fresh_assembly() {
        for (k, bs) in [(6, 3), (10, 4)] {
            let (bm, a) = build(k, bs);
            let reference = NumericFactor::from_matrix_parallel(bm.clone(), &a, 1);
            let tpl = AssemblyTemplate::build(&bm, a.pattern());
            let mut f = tpl.alloc(bm.clone());
            // Dirty the buffers to prove the zero-fill works.
            for buf in &mut f.data {
                buf.iter_mut().for_each(|x| *x = f64::NAN);
            }
            tpl.assemble_into(a.values(), &mut f);
            assert_eq!(f.offsets, reference.offsets);
            for (got, want) in f.data.iter().zip(&reference.data) {
                for (g, w) in got.iter().zip(want) {
                    assert_eq!(g.to_bits(), w.to_bits());
                }
            }
        }
    }
}
