//! The block fan-out method on the simulated Paragon.
//!
//! Runs the exact data-driven protocol of [`crate::proto`] on the
//! discrete-event machine of the `simgrid` crate, charging model time for
//! every block operation and message instead of computing numerics. This is
//! the executor behind the paper's performance experiments (Figure 1,
//! Tables 5 and 7).

use crate::plan::Plan;
use crate::proto::{Action, ProtocolState};
use blockmat::BlockMatrix;
use dense::kernels::flops;
use simgrid::{Agent, Ctx, MachineModel, SimReport, Simulator};
use std::sync::Arc;
use trace::{TaskKind, Trace, TraceEvent, TraceOpts};

/// Result of one simulated factorization.
#[derive(Debug, Clone)]
pub struct SimOutcome {
    /// Raw simulator report (makespan, per-node busy/comm statistics).
    pub report: SimReport,
    /// Modeled single-node time for the same block computation (`tseq` in
    /// the paper's efficiency definition — the parallel algorithm on one
    /// processor, which pays the fixed per-op costs but no communication).
    pub seq_time_s: f64,
    /// Parallel efficiency `tseq / (P · tparallel)`.
    pub efficiency: f64,
    /// Per-processor virtual-time event timeline (only from
    /// [`simulate_traced`]; block ids are flat block ids, `Recv`
    /// events are instantaneous markers at message-processing time).
    pub trace: Option<Trace>,
}

impl SimOutcome {
    /// Performance in Mflops given the *best sequential* operation count
    /// (the paper's convention: paper Table 1 ops ÷ parallel runtime).
    pub fn mflops(&self, sequential_ops: u64) -> f64 {
        sequential_ops as f64 / self.report.makespan_s / 1e6
    }
}

/// Message processing discipline (paper Section 5 discusses replacing the
/// purely data-driven order with priority-sensitive dynamic scheduling).
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub enum SimPolicy {
    /// Process received blocks strictly in arrival order (the paper's block
    /// fan-out method).
    #[default]
    DataDriven,
    /// Process the pending block with the longest remaining dependency path
    /// first (b-level priority).
    CriticalPathPriority,
}

/// One simulated processor.
struct FanoutAgent {
    bm: Arc<BlockMatrix>,
    plan: Arc<Plan>,
    model: MachineModel,
    state: ProtocolState,
    actions: Vec<Action>,
    /// Per-block b-level priorities (only for `CriticalPathPriority`).
    ranks: Option<Arc<Vec<Vec<f64>>>>,
    /// Virtual-time event log (populated only by [`simulate_traced`]).
    tracing: bool,
    events: Vec<TraceEvent>,
}

impl FanoutAgent {
    /// The agent's current virtual time: event time plus compute charged so
    /// far inside the running handler.
    fn vnow(&self, ctx: &Ctx<(u32, u32)>) -> f64 {
        ctx.now() + ctx.computed()
    }

    fn stamp(&mut self, kind: TaskKind, block: u32, t_start: f64, t_end: f64) {
        if self.tracing {
            self.events.push(TraceEvent { block, kind, t_start, t_end });
        }
    }

    fn execute(&mut self, ctx: &mut Ctx<(u32, u32)>) {
        let actions = std::mem::take(&mut self.actions);
        for &act in &actions {
            match act {
                Action::Bmod { k, a, b, dest_j, dest_b } => {
                    let col = &self.bm.cols[k as usize];
                    let c_k = self.bm.col_width(k as usize);
                    let ra = col.blocks[a as usize].nrows();
                    let rb = col.blocks[b as usize].nrows();
                    let fl = if a == b {
                        flops::bmod_diag(ra, c_k)
                    } else {
                        flops::bmod(ra, rb, c_k)
                    };
                    let t0 = self.vnow(ctx);
                    ctx.compute(self.model.op_time(fl, c_k));
                    let t1 = self.vnow(ctx);
                    let id = self.bm.updates().block_id(dest_j as usize, dest_b as usize);
                    self.stamp(TaskKind::Bmod, id as u32, t0, t1);
                }
                Action::Complete { j, b } => {
                    let c = self.bm.col_width(j as usize);
                    let fl = if b == 0 {
                        flops::bfac(c)
                    } else {
                        flops::bdiv(self.bm.cols[j as usize].blocks[b as usize].nrows(), c)
                    };
                    let t0 = self.vnow(ctx);
                    ctx.compute(self.model.op_time(fl, c));
                    let t1 = self.vnow(ctx);
                    let kind = if b == 0 { TaskKind::Bfac } else { TaskKind::Bdiv };
                    let id = self.bm.updates().block_id(j as usize, b as usize);
                    self.stamp(kind, id as u32, t0, t1);
                    for &dest in self.plan.recipients(id) {
                        let bytes = self.plan.block_bytes(&self.bm, j as usize, b as usize);
                        ctx.send(dest as usize, bytes, (j, b));
                    }
                }
            }
        }
        self.actions = actions;
    }
}

impl Agent for FanoutAgent {
    type Msg = (u32, u32);

    fn on_start(&mut self, ctx: &mut Ctx<(u32, u32)>) {
        let mut actions = std::mem::take(&mut self.actions);
        self.state.start(&self.plan, &self.bm, &mut actions);
        self.actions = actions;
        self.execute(ctx);
    }

    fn on_message(&mut self, ctx: &mut Ctx<(u32, u32)>, _from: usize, (j, b): (u32, u32)) {
        let t = self.vnow(ctx);
        let id = self.bm.updates().block_id(j as usize, b as usize);
        self.stamp(TaskKind::Recv, id as u32, t, t);
        let mut actions = std::mem::take(&mut self.actions);
        self.state.on_receive(&self.plan, &self.bm, j, b, &mut actions);
        self.actions = actions;
        self.execute(ctx);
    }

    fn select(&mut self, inbox: &std::collections::VecDeque<(usize, (u32, u32))>) -> usize {
        let Some(ranks) = &self.ranks else { return 0 };
        let mut best = 0;
        let mut best_rank = f64::NEG_INFINITY;
        for (i, &(_, (j, b))) in inbox.iter().enumerate() {
            let r = ranks[j as usize][b as usize];
            if r > best_rank {
                best_rank = r;
                best = i;
            }
        }
        best
    }
}

/// Computes per-block b-levels: the longest remaining dependency path after
/// a block completes, under the machine model. Used as message priorities.
pub fn block_ranks(bm: &BlockMatrix, model: &MachineModel) -> Vec<Vec<f64>> {
    let np = bm.num_panels();
    let mut rank: Vec<Vec<f64>> =
        (0..np).map(|j| vec![0.0f64; bm.cols[j].blocks.len()]).collect();
    // Completion time of a block's own BFAC/BDIV, for tail estimates.
    let t_complete = |j: usize, b: usize| -> f64 {
        let c = bm.col_width(j);
        if b == 0 {
            model.op_time(flops::bfac(c), c)
        } else {
            model.op_time(flops::bdiv(bm.cols[j].blocks[b].nrows(), c), c)
        }
    };
    for k in (0..np).rev() {
        let c = bm.col_width(k);
        let m = bm.cols[k].blocks.len();
        // BMOD tails: both sources of each update inherit the destination's
        // remaining path.
        for op in bm.bmods_of(k) {
            let (dj, db) = (op.j as usize, op.dest_b as usize);
            let tail = model.op_time(op.flops(), c) + t_complete(dj, db) + rank[dj][db];
            for s in [op.src_a as usize, op.src_b as usize] {
                if tail > rank[k][s] {
                    rank[k][s] = tail;
                }
            }
        }
        // The factored diagonal releases the column's BDIVs.
        for b in 1..m {
            let tail = t_complete(k, b) + rank[k][b];
            if tail > rank[k][0] {
                rank[k][0] = tail;
            }
        }
    }
    rank
}

/// Modeled time for the whole block computation on a single node.
pub fn modeled_seq_time(bm: &BlockMatrix, model: &MachineModel) -> f64 {
    let mut t = 0.0f64;
    for j in 0..bm.num_panels() {
        let c = bm.col_width(j);
        for (b, blk) in bm.cols[j].blocks.iter().enumerate() {
            let fl = if b == 0 { flops::bfac(c) } else { flops::bdiv(blk.nrows(), c) };
            t += model.op_time(fl, c);
        }
    }
    blockmat::for_each_bmod(bm, |op| {
        t += model.op_time(op.flops(), op.c_k as usize);
    });
    t
}

/// Simulates a parallel factorization and returns timing and efficiency.
///
/// Panics if the protocol deadlocks (a processor finishes the event loop
/// with incomplete owned blocks) — the protocol tests guarantee it cannot.
pub fn simulate(bm: &Arc<BlockMatrix>, plan: &Arc<Plan>, model: &MachineModel) -> SimOutcome {
    simulate_with_policy(bm, plan, model, SimPolicy::DataDriven)
}

/// Simulates with an explicit message-processing discipline.
pub fn simulate_with_policy(
    bm: &Arc<BlockMatrix>,
    plan: &Arc<Plan>,
    model: &MachineModel,
    policy: SimPolicy,
) -> SimOutcome {
    simulate_traced(bm, plan, model, policy, &TraceOpts::off())
}

/// Simulates with a per-processor virtual-time event trace.
///
/// Every `BFAC`/`BDIV`/`BMOD` is recorded as an interval in *simulated*
/// seconds (so the trace lines up with `report.makespan_s`), plus an
/// instantaneous [`TaskKind::Recv`] marker when a block message is
/// processed. Block ids are the flat ids of [`blockmat::Updates::block_id`]; the
/// ring capacity of `trace_opts` is ignored (the simulator's log is
/// unbounded — single-threaded, no overwrite needed).
pub fn simulate_traced(
    bm: &Arc<BlockMatrix>,
    plan: &Arc<Plan>,
    model: &MachineModel,
    policy: SimPolicy,
    trace_opts: &TraceOpts,
) -> SimOutcome {
    let ranks = match policy {
        SimPolicy::DataDriven => None,
        SimPolicy::CriticalPathPriority => Some(Arc::new(block_ranks(bm, model))),
    };
    let agents: Vec<FanoutAgent> = (0..plan.p)
        .map(|q| FanoutAgent {
            bm: bm.clone(),
            plan: plan.clone(),
            model: *model,
            state: ProtocolState::new(plan, bm, q as u32),
            actions: Vec::new(),
            ranks: ranks.clone(),
            tracing: trace_opts.enabled,
            events: Vec::new(),
        })
        .collect();
    let mut sim = Simulator::new(agents, *model);
    let report = sim.run();
    let mut per_worker: Vec<Vec<TraceEvent>> = Vec::new();
    for (q, agent) in sim.into_nodes().into_iter().enumerate() {
        assert!(agent.state.is_done(), "processor {q} deadlocked");
        if trace_opts.enabled {
            per_worker.push(agent.events);
        }
    }
    let trace = trace_opts.enabled.then(|| Trace::from_events(per_worker));
    let seq_time_s = modeled_seq_time(bm, model);
    let p = plan.p as f64;
    let efficiency = if report.makespan_s > 0.0 {
        seq_time_s / (p * report.makespan_s)
    } else {
        1.0
    };
    SimOutcome { report, seq_time_s, efficiency, trace }
}

#[cfg(test)]
mod tests {
    use super::*;
    use blockmat::{BlockWork, WorkModel};
    use mapping::{Assignment, ColPolicy, Heuristic, ProcGrid, RowPolicy};
    use symbolic::AmalgamationOpts;

    fn setup(k: usize, bs: usize) -> (Arc<BlockMatrix>, BlockWork) {
        let prob = sparsemat::gen::grid2d(k);
        let perm = ordering::order_problem(&prob);
        let analysis = symbolic::analyze(prob.matrix.pattern(), &perm, &AmalgamationOpts::default());
        let bm = Arc::new(BlockMatrix::build(analysis.supernodes, bs));
        let w = BlockWork::compute(&bm, &WorkModel::default());
        (bm, w)
    }

    #[test]
    fn single_node_simulation_equals_seq_time() {
        let (bm, w) = setup(8, 3);
        let asg = Assignment::cyclic(&bm, &w, 1);
        let plan = Arc::new(Plan::build(&bm, &asg));
        let out = simulate(&bm, &plan, &MachineModel::paragon());
        assert!((out.report.makespan_s - out.seq_time_s).abs() < 1e-9);
        assert!((out.efficiency - 1.0).abs() < 1e-9);
        assert_eq!(out.report.total_msgs(), 0);
    }

    #[test]
    fn parallel_runs_faster_but_below_perfect_speedup() {
        let (bm, w) = setup(16, 4);
        let asg = Assignment::cyclic(&bm, &w, 4);
        let plan = Arc::new(Plan::build(&bm, &asg));
        let out = simulate(&bm, &plan, &MachineModel::paragon());
        assert!(out.report.makespan_s < out.seq_time_s);
        assert!(out.efficiency > 0.05 && out.efficiency < 1.0, "eff {}", out.efficiency);
        assert!(out.report.total_msgs() > 0);
    }

    #[test]
    fn heuristic_mapping_beats_cyclic_on_dense() {
        // The headline claim at miniature scale: remapping improves the
        // simulated performance of a dense problem on a 4×4 grid.
        let prob = sparsemat::gen::dense(256);
        let analysis =
            symbolic::analyze(prob.matrix.pattern(), &sparsemat::Permutation::identity(256), &AmalgamationOpts::off());
        let bm = Arc::new(BlockMatrix::build(analysis.supernodes, 16));
        let w = BlockWork::compute(&bm, &WorkModel::default());
        let grid = ProcGrid::square(16);
        let cyc = Assignment::build(
            &bm, &w, grid,
            RowPolicy::Heuristic(Heuristic::Cyclic),
            ColPolicy::Heuristic(Heuristic::Cyclic),
            None,
        );
        let heu = Assignment::build(
            &bm, &w, grid,
            RowPolicy::Heuristic(Heuristic::IncreasingDepth),
            ColPolicy::Heuristic(Heuristic::Cyclic),
            None,
        );
        let model = MachineModel::paragon();
        let t_cyc = simulate(&bm, &Arc::new(Plan::build(&bm, &cyc)), &model);
        let t_heu = simulate(&bm, &Arc::new(Plan::build(&bm, &heu)), &model);
        assert!(
            t_heu.report.makespan_s < t_cyc.report.makespan_s,
            "heuristic {} vs cyclic {}",
            t_heu.report.makespan_s,
            t_cyc.report.makespan_s
        );
    }

    #[test]
    fn priority_policy_completes_and_is_deterministic() {
        let (bm, w) = setup(14, 4);
        let asg = Assignment::cyclic(&bm, &w, 4);
        let plan = Arc::new(Plan::build(&bm, &asg));
        let model = MachineModel::paragon();
        let a = simulate_with_policy(&bm, &plan, &model, SimPolicy::CriticalPathPriority);
        let b = simulate_with_policy(&bm, &plan, &model, SimPolicy::CriticalPathPriority);
        assert_eq!(a.report.makespan_s, b.report.makespan_s);
        // Same total work regardless of processing order.
        let fifo = simulate(&bm, &plan, &model);
        assert!((a.report.total_busy_s() - fifo.report.total_busy_s()).abs() < 1e-9);
        assert_eq!(a.report.total_msgs(), fifo.report.total_msgs());
    }

    #[test]
    fn block_ranks_decrease_toward_the_root() {
        let (bm, _) = setup(10, 4);
        let model = MachineModel::paragon();
        let ranks = block_ranks(&bm, &model);
        // The final diagonal block has nothing after it.
        let last = bm.num_panels() - 1;
        assert_eq!(ranks[last][0], 0.0);
        // Every source block's rank is at least its destinations' ranks.
        blockmat::for_each_bmod(&bm, |op| {
            let r_dest = ranks[op.j as usize][op.dest_b as usize];
            for src in [op.src_a, op.src_b] {
                assert!(
                    ranks[op.k as usize][src as usize] > r_dest - 1e-12,
                    "rank inversion at k={} src={}",
                    op.k,
                    src
                );
            }
        });
    }

    #[test]
    fn traced_simulation_matches_report_accounting() {
        let (bm, w) = setup(12, 4);
        let asg = Assignment::cyclic(&bm, &w, 4);
        let plan = Arc::new(Plan::build(&bm, &asg));
        let model = MachineModel::paragon();
        let out = simulate_traced(&bm, &plan, &model, SimPolicy::DataDriven, &TraceOpts::on());
        let tr = out.trace.as_ref().expect("tracing was enabled");
        assert_eq!(tr.workers(), plan.p);
        // The trace's compute seconds are exactly the simulator's busy time
        // minus the per-message send overhead (charged outside any block op).
        let send_overhead = out.report.total_msgs() as f64 * model.send_overhead_s;
        assert!((tr.busy_s() - (out.report.total_busy_s() - send_overhead)).abs() < 1e-9);
        // Every interval nests within [0, makespan].
        for evs in &tr.per_worker {
            for e in evs {
                assert!(e.t_end >= e.t_start);
                assert!(e.t_start >= 0.0 && e.t_end <= out.report.makespan_s + 1e-12);
            }
        }
        // One compute event per block operation, one Recv per message.
        let count = |k: TaskKind| {
            tr.per_worker.iter().flatten().filter(|e| e.kind == k).count()
        };
        assert_eq!(count(TaskKind::Bfac), bm.num_panels());
        assert_eq!(count(TaskKind::Bfac) + count(TaskKind::Bdiv), bm.num_blocks());
        let mut bmods = 0usize;
        blockmat::for_each_bmod(&bm, |_| bmods += 1);
        assert_eq!(count(TaskKind::Bmod), bmods);
        assert_eq!(count(TaskKind::Recv) as u64, out.report.total_msgs());
        // Tracing must not perturb the simulation itself.
        let plain = simulate(&bm, &plan, &model);
        assert!(plain.trace.is_none());
        assert_eq!(plain.report.makespan_s, out.report.makespan_s);
        assert_eq!(plain.report.total_msgs(), out.report.total_msgs());
    }

    #[test]
    fn mflops_uses_sequential_ops() {
        let (bm, w) = setup(8, 3);
        let asg = Assignment::cyclic(&bm, &w, 4);
        let plan = Arc::new(Plan::build(&bm, &asg));
        let out = simulate(&bm, &plan, &MachineModel::paragon());
        let mf = out.mflops(1_000_000);
        assert!((mf - 1.0 / out.report.makespan_s).abs() < 1e-9);
    }
}
