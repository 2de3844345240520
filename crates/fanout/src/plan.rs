//! The static execution plan shared by the scheduled and simulated drivers.

use blockmat::BlockMatrix;
use mapping::Assignment;

/// Everything the data-driven protocol needs to know before execution
/// besides the update graph itself ([`BlockMatrix::updates`]): block
/// ownership and the recipient list of every completed block. Blocks are
/// addressed by the graph's flat ids ([`blockmat::Updates::block_id`]).
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
    /// Per flat block id: start of its recipients in `send_to` (len
    /// `#blocks + 1`).
    pub send_base: Vec<u32>,
    /// Remote processors (owner excluded, deduplicated) that need each
    /// completed block, concatenated in flat block id order.
    pub send_to: Vec<u32>,
    /// Per processor: number of block messages it will receive.
    pub expected_recv: Vec<u64>,
    /// Per processor: number of blocks it owns (and must complete).
    pub owned_blocks: Vec<u64>,
    /// Optional per-block scheduling priorities by flat block id (larger =
    /// more urgent). Carried over from [`Assignment::priority`]; the
    /// work-stealing scheduler derives critical-path levels itself when
    /// absent.
    pub priority: Option<Vec<f64>>,
}

impl Plan {
    /// Builds the plan for a block matrix under an assignment.
    pub fn build(bm: &BlockMatrix, asg: &Assignment) -> Self {
        let upd = bm.updates();
        let p = asg.grid.p();
        let owner = asg.owner.clone();
        let mut send_base = Vec::with_capacity(bm.num_blocks() + 1);
        let mut send_to = Vec::new();
        let mut expected_recv = vec![0u64; p];
        let mut owned_blocks = vec![0u64; p];
        let mut stamp = vec![u32::MAX; p];
        let mut ctr = 0u32;
        // Recipients of one block: the distinct owners of `dests` other than
        // the block's own.
        let mut send = |me: u32, dests: &mut dyn Iterator<Item = u32>| {
            ctr += 1;
            stamp[me as usize] = ctr;
            send_base.push(send_to.len() as u32);
            owned_blocks[me as usize] += 1;
            for q in dests {
                if stamp[q as usize] != ctr {
                    stamp[q as usize] = ctr;
                    send_to.push(q);
                    expected_recv[q as usize] += 1;
                }
            }
        };
        for k in 0..bm.num_panels() {
            let blocks = &bm.cols[k].blocks;
            let m = blocks.len();
            // Diagonal block → owners of the column's off-diagonal blocks.
            send(owner[k][0], &mut owner[k][1..m].iter().copied());
            // Off-diagonal block `a` → owners of the destinations of every
            // update it sources: pairs `(a, b ≤ a)` and `(a' ≥ a, a)`.
            for a in 1..m {
                let dest =
                    |(x, y): (usize, usize)| owner[blocks[y].row_panel as usize][upd.dest(k, x, y)];
                let pairs = (1..=a).map(|b| (a, b)).chain((a..m).map(|x| (x, a)));
                send(owner[k][a], &mut pairs.map(dest));
            }
        }
        send_base.push(send_to.len() as u32);
        let priority = asg.priority.as_ref().map(|pri| pri.concat());
        Self {
            owner,
            p,
            grid: asg.grid,
            map_i: asg.cp.map_i.clone(),
            map_j: asg.cp.map_j.clone(),
            eligible: asg.eligible.clone(),
            send_base,
            send_to,
            expected_recv,
            owned_blocks,
            priority,
        }
    }

    /// Remote processors that need completed block `id` (flat id).
    #[inline]
    pub fn recipients(&self, id: usize) -> &[u32] {
        &self.send_to[self.send_base[id] as usize..self.send_base[id + 1] as usize]
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
        // The protocol's per-block pending counts are the update graph's
        // per-destination source counts: together they cover every BMOD.
        let (bm, _) = setup(8, 4);
        let upd = bm.updates();
        let total: usize = (0..bm.num_blocks()).map(|id| upd.sources(id).len()).sum();
        let mut expect = 0usize;
        blockmat::for_each_bmod(&bm, |_| expect += 1);
        assert_eq!(total, expect);
    }

    #[test]
    fn send_lists_exclude_owner_and_are_unique() {
        let (bm, asg) = setup(8, 4);
        let plan = Plan::build(&bm, &asg);
        for j in 0..bm.num_panels() {
            for b in 0..bm.cols[j].blocks.len() {
                let mut seen = HashSet::new();
                for &q in plan.recipients(bm.updates().block_id(j, b)) {
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
        assert_eq!(plan.expected_recv.iter().sum::<u64>(), plan.send_to.len() as u64);
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
        assert_eq!(plan.send_to.len() as u64, stats.messages);
    }

    #[test]
    fn single_proc_plan_sends_nothing() {
        let (bm, asg) = setup(6, 1);
        let plan = Plan::build(&bm, &asg);
        assert_eq!(plan.expected_recv[0], 0);
        assert!(plan.send_to.is_empty());
        assert_eq!(plan.send_base.len(), bm.num_blocks() + 1);
    }
}
