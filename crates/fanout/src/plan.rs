//! The static execution plan shared by the scheduled and simulated drivers.

use blockmat::{for_each_bmod, BlockMatrix};
use mapping::Assignment;

/// Everything the data-driven protocol needs to know before execution:
/// block ownership, per-destination update counts, and the recipient list of
/// every completed block.
#[derive(Debug, Clone)]
pub struct Plan {
    /// Owner of every block (`owner[j][b]`, linear processor rank).
    pub owner: Vec<Vec<u32>>,
    /// Number of processors.
    pub p: usize,
    /// The processor grid.
    pub grid: mapping::ProcGrid,
    /// Panel → processor row of the root-portion CP map.
    pub map_i: Vec<u32>,
    /// Panel → processor column of the root-portion CP map.
    pub map_j: Vec<u32>,
    /// `eligible[j]`: block column `j` is 2-D mapped (false = domain column).
    pub eligible: Vec<bool>,
    /// `pending[j][b]`: number of `BMOD`s whose destination is the block.
    pub pending: Vec<Vec<u32>>,
    /// Flat id base of each block column (`id = block_base[j] + b`).
    pub block_base: Vec<u32>,
    /// `send_to[j][b]`: remote processors (owner excluded, deduplicated)
    /// that need the completed block.
    pub send_to: Vec<Vec<Vec<u32>>>,
    /// Per processor: number of block messages it will receive.
    pub expected_recv: Vec<u64>,
    /// Per processor: number of blocks it owns (and must complete).
    pub owned_blocks: Vec<u64>,
    /// Optional per-block scheduling priorities, flattened by `block_base`
    /// (`priority[block_id(j, b)]`, larger = more urgent). Carried over from
    /// [`Assignment::priority`]; the work-stealing scheduler derives
    /// critical-path levels itself when absent.
    pub priority: Option<Vec<f64>>,
}

impl Plan {
    /// Builds the plan for a block matrix under an assignment.
    pub fn build(bm: &BlockMatrix, asg: &Assignment) -> Self {
        let np = bm.num_panels();
        let p = asg.grid.p();
        let owner = asg.owner.clone();
        let mut block_base = Vec::with_capacity(np + 1);
        let mut acc = 0u32;
        for j in 0..np {
            block_base.push(acc);
            acc += bm.cols[j].blocks.len() as u32;
        }
        block_base.push(acc);
        let mut pending: Vec<Vec<u32>> =
            (0..np).map(|j| vec![0u32; bm.cols[j].blocks.len()]).collect();
        for_each_bmod(bm, |op| {
            let di = bm
                .find_block(op.i as usize, op.j as usize)
                .expect("BMOD destination exists");
            pending[op.j as usize][di] += 1;
        });

        let mut send_to: Vec<Vec<Vec<u32>>> =
            (0..np).map(|j| vec![Vec::new(); bm.cols[j].blocks.len()]).collect();
        let mut stamp = vec![u32::MAX; p];
        let mut ctr = 0u32;
        for k in 0..np {
            let blocks = &bm.cols[k].blocks;
            let m = blocks.len();
            // Diagonal block → owners of the column's off-diagonal blocks.
            {
                ctr += 1;
                stamp[owner[k][0] as usize] = ctr;
                for &q in &owner[k][1..m] {
                    if stamp[q as usize] != ctr {
                        stamp[q as usize] = ctr;
                        send_to[k][0].push(q);
                    }
                }
            }
            // Off-diagonal blocks → owners of their BMOD destinations.
            for a in 1..m {
                ctr += 1;
                stamp[owner[k][a] as usize] = ctr;
                let i_a = blocks[a].row_panel as usize;
                for blk_b in blocks[1..=a].iter().chain(blocks[a..].iter()) {
                    let i_b = blk_b.row_panel as usize;
                    let (di, dj) = (i_a.max(i_b), i_a.min(i_b));
                    let db = bm.find_block(di, dj).expect("destination exists");
                    let q = owner[dj][db];
                    if stamp[q as usize] != ctr {
                        stamp[q as usize] = ctr;
                        send_to[k][a].push(q);
                    }
                }
            }
        }

        let mut expected_recv = vec![0u64; p];
        let mut owned_blocks = vec![0u64; p];
        for j in 0..np {
            for (b, list) in send_to[j].iter().enumerate() {
                for &q in list {
                    expected_recv[q as usize] += 1;
                }
                owned_blocks[owner[j][b] as usize] += 1;
            }
        }
        let priority = asg.priority.as_ref().map(|pri| {
            let mut flat = Vec::with_capacity(*block_base.last().unwrap() as usize);
            for col in pri {
                flat.extend_from_slice(col);
            }
            flat
        });
        Self {
            owner,
            p,
            grid: asg.grid,
            map_i: asg.cp.map_i.clone(),
            map_j: asg.cp.map_j.clone(),
            eligible: asg.eligible.clone(),
            pending,
            block_base,
            send_to,
            expected_recv,
            owned_blocks,
            priority,
        }
    }

    /// Total number of blocks.
    #[inline]
    pub fn num_blocks(&self) -> usize {
        *self.block_base.last().unwrap() as usize
    }

    /// Flat id of block `b` of column `j`.
    #[inline]
    pub fn block_id(&self, j: u32, b: u32) -> usize {
        (self.block_base[j as usize] + b) as usize
    }

    /// Owner of the destination block of a `BMOD` with row panel `i`,
    /// column panel `j`.
    #[inline]
    pub fn dest_owner(&self, bm: &BlockMatrix, i: usize, j: usize) -> (u32, usize) {
        let db = bm.find_block(i, j).expect("destination exists");
        (self.owner[j][db], db)
    }

    /// Byte size of a block message (stored elements × 8 plus a small
    /// header), matching the storage layout of `NumericFactor`.
    pub fn block_bytes(&self, bm: &BlockMatrix, j: usize, b: usize) -> u64 {
        let c = bm.col_width(j) as u64;
        let elems = if b == 0 {
            c * c
        } else {
            bm.cols[j].blocks[b].nrows() as u64 * c
        };
        elems * 8 + 64
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use blockmat::{BlockWork, WorkModel};
    use std::collections::HashSet;
    use symbolic::AmalgamationOpts;

    fn setup(k: usize, p: usize) -> (BlockMatrix, Assignment) {
        let prob = sparsemat::gen::grid2d(k);
        let perm = ordering::order_problem(&prob);
        let analysis = symbolic::analyze(prob.matrix.pattern(), &perm, &AmalgamationOpts::default());
        let bm = BlockMatrix::build(analysis.supernodes, 4);
        let w = BlockWork::compute(&bm, &WorkModel::default());
        let asg = Assignment::cyclic(&bm, &w, p);
        (bm, asg)
    }

    #[test]
    fn pending_counts_match_bmod_enumeration() {
        let (bm, asg) = setup(8, 4);
        let plan = Plan::build(&bm, &asg);
        let mut total = 0u64;
        for col in &plan.pending {
            total += col.iter().map(|&x| x as u64).sum::<u64>();
        }
        let mut expect = 0u64;
        for_each_bmod(&bm, |_| expect += 1);
        assert_eq!(total, expect);
    }

    #[test]
    fn send_lists_exclude_owner_and_are_unique() {
        let (bm, asg) = setup(8, 4);
        let plan = Plan::build(&bm, &asg);
        for j in 0..bm.num_panels() {
            for (b, list) in plan.send_to[j].iter().enumerate() {
                let mut seen = HashSet::new();
                for &q in list {
                    assert_ne!(q, plan.owner[j][b], "sent to self");
                    assert!(seen.insert(q), "duplicate recipient");
                }
            }
        }
    }

    #[test]
    fn expected_recv_sums_to_total_sends() {
        let (bm, asg) = setup(10, 4);
        let plan = Plan::build(&bm, &asg);
        let sends: u64 = plan
            .send_to
            .iter()
            .flat_map(|c| c.iter().map(|l| l.len() as u64))
            .sum();
        assert_eq!(plan.expected_recv.iter().sum::<u64>(), sends);
        assert_eq!(
            plan.owned_blocks.iter().sum::<u64>(),
            bm.num_blocks() as u64
        );
    }

    #[test]
    fn send_volume_matches_balance_comm_stats() {
        // The plan's message count must agree with the analytic
        // communication-volume computation in the balance crate.
        let (bm, asg) = setup(10, 4);
        let plan = Plan::build(&bm, &asg);
        let stats = balance::comm_volume(&bm, &asg);
        let msgs: u64 = plan
            .send_to
            .iter()
            .flat_map(|c| c.iter().map(|l| l.len() as u64))
            .sum();
        assert_eq!(msgs, stats.messages);
    }

    #[test]
    fn single_proc_plan_sends_nothing() {
        let (bm, asg) = setup(6, 1);
        let plan = Plan::build(&bm, &asg);
        assert_eq!(plan.expected_recv[0], 0);
        assert!(plan.send_to.iter().all(|c| c.iter().all(|l| l.is_empty())));
    }
}
