//! The 2-D block nonzero structure of the factor.

use crate::ops::Updates;
use crate::partition::BlockPartition;
use symbolic::Supernodes;

/// One nonzero block `L[I][J]`: the dense rows of block column `J` falling in
/// row panel `I`.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Block {
    /// Row panel index `I`.
    pub row_panel: u32,
    /// Range `lo..hi` into the owning supernode's row array: the global row
    /// indices of this block's dense rows.
    pub lo: u32,
    /// End of the row range (exclusive).
    pub hi: u32,
}

impl Block {
    /// Number of dense rows in the block.
    #[inline]
    pub fn nrows(&self) -> usize {
        (self.hi - self.lo) as usize
    }
}

/// All blocks of one block column (panel) `J`, ascending by row panel; the
/// first entry is always the diagonal block `L[J][J]`.
#[derive(Debug, Clone)]
pub struct BlockCol {
    /// The supernode this panel belongs to.
    pub sn: u32,
    /// The blocks, ascending by `row_panel`; `blocks[0].row_panel == J`.
    pub blocks: Vec<Block>,
}

/// The block matrix: partition, per-column block lists, the supernodal
/// structure the row ranges index into, and the update graph over the
/// blocks.
#[derive(Debug, Clone)]
pub struct BlockMatrix {
    /// The supernode partition and row structures (owned).
    pub sn: Supernodes,
    /// The panel partition.
    pub partition: BlockPartition,
    /// Block lists per block column.
    pub cols: Vec<BlockCol>,
    /// Every `BMOD` between the blocks of `cols`, listed once.
    updates: Updates,
}

impl BlockMatrix {
    /// Builds the block structure for the given supernodes and block size.
    pub fn build(sn: Supernodes, block_size: usize) -> Self {
        let partition = BlockPartition::new(&sn, block_size);
        Self::from_partition(sn, partition)
    }

    /// Builds with a per-supernode block size (see
    /// [`BlockPartition::with_width_fn`]).
    pub fn build_custom(
        sn: Supernodes,
        width_of: impl Fn(usize, u32) -> usize,
        nominal: usize,
    ) -> Self {
        let partition = BlockPartition::with_width_fn(&sn, width_of, nominal);
        Self::from_partition(sn, partition)
    }

    /// Builds the block lists for an existing partition.
    pub fn from_partition(sn: Supernodes, partition: BlockPartition) -> Self {
        let np = partition.count();
        let cols: Vec<BlockCol> = (0..np).map(|j| build_col(&sn, &partition, j)).collect();
        let updates = Updates::new(&cols);
        Self { sn, partition, cols, updates }
    }

    /// [`Self::from_partition`] with the per-column block lists built by
    /// `workers` threads. Every block column depends only on the supernode
    /// row structure, so columns are embarrassingly parallel; workers
    /// self-schedule contiguous column chunks off a shared atomic cursor.
    /// Falls back to the sequential path when `workers <= 1` or the problem
    /// is too small to amortize thread startup.
    pub fn from_partition_parallel(
        sn: Supernodes,
        partition: BlockPartition,
        workers: usize,
    ) -> Self {
        const GRAIN: usize = 64;
        let np = partition.count();
        if workers <= 1 || np < 2 * GRAIN {
            return Self::from_partition(sn, partition);
        }
        use std::sync::atomic::{AtomicUsize, Ordering};
        let next = AtomicUsize::new(0);
        let nw = workers.min(np.div_ceil(GRAIN));
        let chunks: Vec<Vec<(usize, BlockCol)>> = std::thread::scope(|scope| {
            let handles: Vec<_> = (0..nw)
                .map(|_| {
                    scope.spawn(|| {
                        let mut out = Vec::new();
                        loop {
                            let lo = next.fetch_add(1, Ordering::Relaxed) * GRAIN;
                            if lo >= np {
                                break;
                            }
                            for j in lo..(lo + GRAIN).min(np) {
                                out.push((j, build_col(&sn, &partition, j)));
                            }
                        }
                        out
                    })
                })
                .collect();
            handles.into_iter().map(|h| h.join().expect("structure worker")).collect()
        });
        let mut cols: Vec<Option<BlockCol>> = (0..np).map(|_| None).collect();
        for (j, c) in chunks.into_iter().flatten() {
            cols[j] = Some(c);
        }
        let cols: Vec<BlockCol> =
            cols.into_iter().map(|c| c.expect("every column built")).collect();
        let updates = Updates::new(&cols);
        Self { sn, partition, cols, updates }
    }

    /// Number of block columns (= block rows) `N`.
    #[inline]
    pub fn num_panels(&self) -> usize {
        self.partition.count()
    }

    /// Total number of nonzero blocks.
    #[inline]
    pub fn num_blocks(&self) -> usize {
        self.updates.num_blocks()
    }

    /// The update graph: every `BMOD`, its destination, and each block's
    /// incoming updates.
    #[inline]
    pub fn updates(&self) -> &Updates {
        &self.updates
    }

    /// Global row indices of a block in column `j`.
    #[inline]
    pub fn block_rows(&self, j: usize, b: &Block) -> &[u32] {
        &self.sn.rows[self.cols[j].sn as usize][b.lo as usize..b.hi as usize]
    }

    /// Width (column count) of block column `j`.
    #[inline]
    pub fn col_width(&self, j: usize) -> usize {
        self.partition.width(j)
    }

    /// Finds the block `L[I][J]` within column `j`, if present, by binary
    /// search. Assembly maps matrix entries to blocks with it; `BMOD`
    /// destinations come from [`Self::updates`].
    pub fn find_block(&self, i: usize, j: usize) -> Option<usize> {
        self.cols[j]
            .blocks
            .binary_search_by_key(&(i as u32), |b| b.row_panel)
            .ok()
    }

    /// Stored nonzero elements over all blocks (diagonal blocks count their
    /// full dense lower triangle; off-diagonal blocks are dense rows ×
    /// panel width).
    pub fn stored_elements(&self) -> u64 {
        let mut total = 0u64;
        for j in 0..self.num_panels() {
            let w = self.col_width(j) as u64;
            for (k, b) in self.cols[j].blocks.iter().enumerate() {
                if k == 0 {
                    total += w * (w + 1) / 2;
                } else {
                    total += b.nrows() as u64 * w;
                }
            }
        }
        total
    }
}

/// Builds the block list of one block column (panel) `j`.
fn build_col(sn: &Supernodes, partition: &BlockPartition, j: usize) -> BlockCol {
    let s = partition.sn_of_panel[j] as usize;
    let rows = &sn.rows[s];
    let first = partition.first_col[j];
    // Rows of this block column: supernode rows at or after the panel's
    // first column.
    let start = rows.partition_point(|&r| r < first);
    let mut blocks = Vec::new();
    let mut lo = start;
    while lo < rows.len() {
        let row_panel = partition.panel_of_col[rows[lo] as usize];
        let panel_end = partition.first_col[row_panel as usize + 1];
        let mut hi = lo + 1;
        while hi < rows.len() && rows[hi] < panel_end {
            hi += 1;
        }
        blocks.push(Block { row_panel, lo: lo as u32, hi: hi as u32 });
        lo = hi;
    }
    debug_assert_eq!(blocks.first().map(|b| b.row_panel), Some(j as u32));
    BlockCol { sn: s as u32, blocks }
}

#[cfg(test)]
mod tests {
    use super::*;
    use symbolic::AmalgamationOpts;

    fn block_matrix(k: usize, bs: usize) -> BlockMatrix {
        let p = sparsemat::gen::grid2d(k);
        let a = p.matrix.pattern();
        let parent = symbolic::etree(a);
        let counts = symbolic::col_counts(a, &parent);
        let sn = Supernodes::compute(a, &parent, &counts, &AmalgamationOpts::default());
        BlockMatrix::build(sn, bs)
    }

    #[test]
    fn diagonal_block_first_and_rows_sorted() {
        let bm = block_matrix(8, 4);
        for j in 0..bm.num_panels() {
            let col = &bm.cols[j];
            assert_eq!(col.blocks[0].row_panel as usize, j);
            // Diagonal block covers exactly the panel's own columns.
            let dr = bm.block_rows(j, &col.blocks[0]);
            let cols: Vec<u32> = bm.partition.cols(j).map(|c| c as u32).collect();
            assert_eq!(dr, &cols[..]);
            // Ascending row panels, each above j.
            for w in col.blocks.windows(2) {
                assert!(w[0].row_panel < w[1].row_panel);
            }
            // Rows of each block fall inside that panel's range.
            for b in &col.blocks[1..] {
                let range = bm.partition.cols(b.row_panel as usize);
                for &r in bm.block_rows(j, b) {
                    assert!(range.contains(&(r as usize)));
                }
                assert!(b.nrows() >= 1);
            }
        }
    }

    #[test]
    fn structure_covers_all_supernode_rows() {
        let bm = block_matrix(6, 3);
        for j in 0..bm.num_panels() {
            let total: usize = bm.cols[j].blocks.iter().map(|b| b.nrows()).sum();
            let s = bm.cols[j].sn as usize;
            let first = bm.partition.first_col[j];
            let expect = bm.sn.rows[s].iter().filter(|&&r| r >= first).count();
            assert_eq!(total, expect);
        }
    }

    #[test]
    fn find_block_hits_and_misses() {
        let bm = block_matrix(8, 4);
        for j in 0..bm.num_panels() {
            for (idx, b) in bm.cols[j].blocks.iter().enumerate() {
                assert_eq!(bm.find_block(b.row_panel as usize, j), Some(idx));
            }
        }
        assert_eq!(bm.find_block(0, bm.num_panels() - 1), None);
    }

    #[test]
    fn parallel_build_matches_sequential() {
        let p = sparsemat::gen::grid2d(20);
        let a = p.matrix.pattern();
        let parent = symbolic::etree(a);
        let counts = symbolic::col_counts(a, &parent);
        let sn = Supernodes::compute(a, &parent, &counts, &AmalgamationOpts::default());
        let partition = crate::partition::BlockPartition::new(&sn, 2);
        let seq = BlockMatrix::from_partition(sn.clone(), partition.clone());
        for workers in [1, 2, 3, 8] {
            let par =
                BlockMatrix::from_partition_parallel(sn.clone(), partition.clone(), workers);
            assert_eq!(par.num_panels(), seq.num_panels());
            for j in 0..seq.num_panels() {
                assert_eq!(par.cols[j].sn, seq.cols[j].sn, "panel {j}");
                assert_eq!(par.cols[j].blocks, seq.cols[j].blocks, "panel {j}");
            }
        }
    }

    #[test]
    fn stored_elements_at_least_factor_nnz() {
        let p = sparsemat::gen::grid2d(7);
        let a = p.matrix.pattern();
        let parent = symbolic::etree(a);
        let counts = symbolic::col_counts(a, &parent);
        let sn = Supernodes::compute(a, &parent, &counts, &AmalgamationOpts::off());
        let total_nnz = sn.total_nnz();
        let bm = BlockMatrix::build(sn, 4);
        assert_eq!(bm.stored_elements(), total_nnz);
    }
}
