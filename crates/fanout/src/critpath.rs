//! Critical path analysis of the block factorization DAG (paper Section 5).
//!
//! The paper uses critical path analysis (Rothberg's thesis, reference \[11\])
//! to argue that the benchmark problems *do* have enough concurrency: for
//! BCSSTK15 on 100 processors the critical path admits ~50% more performance
//! than achieved, so idle time must come from scheduling/communication, not
//! from want of parallelism.
//!
//! The critical path is the longest dependency chain through the block
//! operations, each weighted by its machine-model time, ignoring processor
//! counts and communication entirely:
//!
//! * `BFAC(K)` waits for every `BMOD` into `L[K][K]`;
//! * `BDIV(I,K)` waits for `BFAC(K)` and every `BMOD` into `L[I][K]`;
//! * `BMOD(I,J,K)` waits for `BDIV(I,K)` and `BDIV(J,K)`.

use blockmat::BlockMatrix;
use dense::kernels::flops;
use simgrid::MachineModel;

/// Critical path statistics.
#[derive(Debug, Clone, Copy)]
pub struct CriticalPath {
    /// Length of the critical path in modeled seconds.
    pub length_s: f64,
    /// Total modeled sequential time (same units).
    pub seq_time_s: f64,
}

impl CriticalPath {
    /// Maximum speedup the dependency structure admits.
    pub fn max_speedup(&self) -> f64 {
        self.seq_time_s / self.length_s
    }

    /// Upper bound on efficiency at `p` processors.
    pub fn efficiency_bound(&self, p: usize) -> f64 {
        (self.max_speedup() / p as f64).min(1.0)
    }
}

/// Computes the critical path of the factorization DAG under a machine
/// model. `O(#BMODs)`.
pub fn critical_path(bm: &BlockMatrix, model: &MachineModel) -> CriticalPath {
    let np = bm.num_panels();
    // finish[j][b]: completion time of block (j, b)'s BFAC/BDIV.
    // ready[j][b]: time at which the last BMOD into the block finishes.
    let mut finish: Vec<Vec<f64>> =
        (0..np).map(|j| vec![0.0f64; bm.cols[j].blocks.len()]).collect();
    let mut ready: Vec<Vec<f64>> = finish.clone();
    let mut seq_time = 0.0f64;

    // BMODs sourced from column k target columns > k, and BDIV finish times
    // of column k are fixed once all columns < k are processed, so one
    // ascending pass suffices.
    for k in 0..np {
        let c = bm.col_width(k);
        // Complete column k: BFAC then BDIVs.
        let t_bfac = model.op_time(flops::bfac(c), c);
        seq_time += t_bfac;
        finish[k][0] = ready[k][0] + t_bfac;
        for b in 1..bm.cols[k].blocks.len() {
            let r = bm.cols[k].blocks[b].nrows();
            let t = model.op_time(flops::bdiv(r, c), c);
            seq_time += t;
            finish[k][b] = finish[k][0].max(ready[k][b]) + t;
        }
        // Push BMODs out of column k.
        for op in bm.bmods_of(k) {
            let t = model.op_time(op.flops(), c);
            seq_time += t;
            let start = finish[k][op.src_a as usize].max(finish[k][op.src_b as usize]);
            let dest = &mut ready[op.j as usize][op.dest_b as usize];
            *dest = dest.max(start + t);
        }
    }
    let length = finish
        .iter()
        .flat_map(|col| col.iter().copied())
        .fold(0.0f64, f64::max);
    CriticalPath { length_s: length, seq_time_s: seq_time }
}

/// Per-block "distance to the DAG sink": for every block `(j, b)`,
/// the length (in modeled seconds) of the longest dependency chain that
/// *starts* with the block's own completion operation (`BFAC` for `b = 0`,
/// `BDIV` otherwise) and runs through downstream `BMOD`s and completions to
/// the end of the factorization.
///
/// This is the backward companion of [`critical_path`]: the maximum level
/// over source blocks (blocks awaiting no updates) equals the critical path
/// length. The work-stealing scheduler uses these levels as task priorities —
/// popping the block with the largest remaining distance first is the
/// classic critical-path-first heuristic, which is exactly the scheduling
/// fix the paper's Section 5 diagnosis calls for.
///
/// Returned in the block matrix's `[column][block]` layout. `O(#BMODs)`.
pub fn block_levels(bm: &BlockMatrix, model: &MachineModel) -> Vec<Vec<f64>> {
    let np = bm.num_panels();
    let mut level: Vec<Vec<f64>> =
        (0..np).map(|j| vec![0.0f64; bm.cols[j].blocks.len()]).collect();
    // One descending pass: BMODs out of column k only target columns > k,
    // whose levels are final by the time k is processed, and within column k
    // the diagonal's level depends only on the column's own BDIV levels.
    for k in (0..np).rev() {
        let c = bm.col_width(k);
        let blocks = &bm.cols[k].blocks;
        // Longest consumer chain hanging off each off-diagonal block: every
        // BMOD the block sources, followed by the destination's own level.
        let mut best = vec![0.0f64; blocks.len()];
        for op in bm.bmods_of(k) {
            let cand = model.op_time(op.flops(), c) + level[op.j as usize][op.dest_b as usize];
            let (a, b) = (op.src_a as usize, op.src_b as usize);
            best[a] = best[a].max(cand);
            best[b] = best[b].max(cand);
        }
        let mut diag_tail = 0.0f64;
        for b in 1..blocks.len() {
            let r = blocks[b].nrows();
            level[k][b] = model.op_time(flops::bdiv(r, c), c) + best[b];
            diag_tail = diag_tail.max(level[k][b]);
        }
        level[k][0] = model.op_time(flops::bfac(c), c) + diag_tail;
    }
    level
}

#[cfg(test)]
mod tests {
    use super::*;
    use symbolic::AmalgamationOpts;

    fn bm_of(prob: &sparsemat::Problem, bs: usize) -> BlockMatrix {
        let perm = ordering::order_problem(prob);
        let analysis = symbolic::analyze(prob.matrix.pattern(), &perm, &AmalgamationOpts::default());
        BlockMatrix::build(analysis.supernodes, bs)
    }

    #[test]
    fn single_block_path_equals_seq_time() {
        let prob = sparsemat::gen::dense(8);
        let bm = bm_of(&prob, 8);
        assert_eq!(bm.num_blocks(), 1);
        let cp = critical_path(&bm, &MachineModel::paragon());
        assert!((cp.length_s - cp.seq_time_s).abs() < 1e-15);
        assert!((cp.max_speedup() - 1.0).abs() < 1e-12);
    }

    #[test]
    fn dense_chain_has_long_critical_path() {
        // Dense matrix, one panel per column group: the diagonal chain
        // serializes; speedup is far below the block count.
        let prob = sparsemat::gen::dense(64);
        let bm = bm_of(&prob, 8);
        let cp = critical_path(&bm, &MachineModel::paragon());
        assert!(cp.length_s > 0.0);
        assert!(cp.max_speedup() > 1.0);
        assert!(cp.max_speedup() < bm.num_blocks() as f64);
    }

    #[test]
    fn grid_has_more_concurrency_than_dense_at_same_work() {
        let dense = bm_of(&sparsemat::gen::dense(96), 8);
        let grid = bm_of(&sparsemat::gen::grid2d(24), 8);
        let m = MachineModel::paragon();
        let cpd = critical_path(&dense, &m);
        let cpg = critical_path(&grid, &m);
        // Normalized by their own sequential times, the grid's relative
        // critical path is shorter (wide elimination tree).
        assert!(
            cpg.length_s / cpg.seq_time_s < cpd.length_s / cpd.seq_time_s,
            "grid {} dense {}",
            cpg.length_s / cpg.seq_time_s,
            cpd.length_s / cpd.seq_time_s
        );
    }

    #[test]
    fn critical_path_bounds_simulation() {
        // No simulated run can beat the critical path.
        let prob = sparsemat::gen::grid2d(12);
        let perm = ordering::order_problem(&prob);
        let analysis = symbolic::analyze(prob.matrix.pattern(), &perm, &AmalgamationOpts::default());
        let bm = std::sync::Arc::new(BlockMatrix::build(analysis.supernodes, 4));
        let w = blockmat::BlockWork::compute(&bm, &blockmat::WorkModel::default());
        let model = MachineModel::paragon();
        let cp = critical_path(&bm, &model);
        for p in [4usize, 16] {
            let asg = mapping::Assignment::cyclic(&bm, &w, p);
            let plan = std::sync::Arc::new(crate::Plan::build(&bm, &asg));
            let out = crate::simulate(&bm, &plan, &model);
            assert!(
                out.report.makespan_s >= cp.length_s * 0.999,
                "p={p}: makespan {} < critical path {}",
                out.report.makespan_s,
                cp.length_s
            );
        }
    }

    #[test]
    fn source_block_level_equals_critical_path() {
        // The longest chain must start at a completion with no incoming
        // BMODs (a BFAC whose diagonal awaits no updates), so the maximum
        // level over such blocks is exactly the critical path length.
        for prob in [sparsemat::gen::grid2d(12), sparsemat::gen::bcsstk_like("T", 150, 3)] {
            let bm = bm_of(&prob, 4);
            let m = MachineModel::paragon();
            let cp = critical_path(&bm, &m);
            let levels = block_levels(&bm, &m);
            let mut max_source = 0.0f64;
            let mut max_any = 0.0f64;
            let upd = bm.updates();
            for (j, col) in levels.iter().enumerate() {
                if upd.sources(upd.block_id(j, 0)).is_empty() {
                    max_source = max_source.max(col[0]);
                }
                for &l in col {
                    max_any = max_any.max(l);
                }
            }
            assert!(
                (max_source - cp.length_s).abs() <= 1e-12 * cp.length_s.max(1.0),
                "source level {max_source} vs critical path {}",
                cp.length_s
            );
            assert!(max_any <= cp.length_s * (1.0 + 1e-12));
        }
    }

    #[test]
    fn levels_decrease_down_the_dependency_chain() {
        // A block's level strictly exceeds the level of every destination
        // its completion feeds, and the diagonal dominates its column's
        // BDIV levels.
        let prob = sparsemat::gen::grid2d(10);
        let bm = bm_of(&prob, 3);
        let levels = block_levels(&bm, &MachineModel::paragon());
        for (k, col) in levels.iter().enumerate() {
            for (b, &l) in col.iter().enumerate().skip(1) {
                assert!(col[0] > l, "diag must dominate BDIV ({k},{b})");
            }
        }
        blockmat::for_each_bmod(&bm, |op| {
            let db = op.dest_b as usize;
            for sb in [op.src_a as usize, op.src_b as usize] {
                assert!(
                    levels[op.k as usize][sb] > levels[op.j as usize][db],
                    "level must strictly decrease along BMOD ({},{},{})",
                    op.i,
                    op.j,
                    op.k
                );
            }
        });
    }

    #[test]
    fn efficiency_bound_caps_at_one() {
        let prob = sparsemat::gen::grid2d(10);
        let bm = bm_of(&prob, 4);
        let cp = critical_path(&bm, &MachineModel::paragon());
        assert_eq!(cp.efficiency_bound(1), 1.0);
        assert!(cp.efficiency_bound(1000) < 1.0);
    }
}
