//! Channel-based SPMD execution of the block fan-out method: one OS thread
//! per **virtual** processor, completed blocks exchanged over channels in
//! FIFO receive order, fully data-driven. Validates that the protocol the
//! simulator times is the same protocol that produces a correct factor, and
//! serves as the measured baseline for the work-stealing scheduler in
//! [`crate::sched`] (whose `factorize_threaded` is now the production entry
//! point).
//!
//! Each worker owns mutable slices into the factor's block storage and
//! factors them **in place**. The only copies made are the `Arc`-shared
//! snapshots of completed blocks shipped to remote consumers — the exact
//! overhead [`FifoStats::blocks_copied`] counts and the scheduler
//! eliminates.

use crate::cancel::{CancelReason, CancelToken};
use crate::factor::NumericFactor;
use crate::plan::Plan;
use crate::proto::{Action, ProtocolState};
use crate::seq::{apply_bmod, pack_sources};
use crate::{Error, StallReport};
use blockmat::BlockMatrix;
use crossbeam::channel::{unbounded, Receiver, RecvTimeoutError, Sender};
use dense::kernels::{potrf_with, trsm_right_lower_trans_with};
use dense::KernelArena;
use std::sync::Arc;
use std::time::{Duration, Instant};
use trace::{TaskKind, Trace, TraceBuf, TraceOpts, WorkerRing};

enum Msg {
    /// A completed block (flat id) with its data.
    Block(u32, Arc<Vec<f64>>),
    /// A processor panicked; everyone unwinds. Pivot failures do NOT
    /// abort — see [`factorize_fifo`] on the min-column convention.
    Abort,
}

/// Execution counters of one FIFO-baseline run.
#[derive(Debug, Clone, Default)]
pub struct FifoStats {
    /// Completed-block snapshots allocated (`Arc<Vec<f64>>` copies).
    pub blocks_copied: u64,
    /// Block messages sent over the channels.
    pub messages: u64,
    /// The collected execution trace (one track per virtual processor),
    /// when [`FifoOptions::trace`] enabled tracing.
    pub trace: Option<Trace>,
}

/// Tunables of [`factorize_fifo_opts`].
#[derive(Debug, Clone, Default)]
pub struct FifoOptions {
    /// Execution tracing: `bfac`/`bdiv`/`bmod` compute intervals plus
    /// `recv` intervals covering each blocking channel wait, one ring per
    /// virtual processor. Event `block` ids are the plan's flat block ids.
    pub trace: TraceOpts,
    /// Wall-clock deadline for the run, measured from entry. When armed
    /// (this or [`FifoOptions::cancel`] set), workers swap their blocking
    /// channel waits for short timed waits and poll the run token between
    /// messages; on expiry the run drains and returns
    /// [`Error::Cancelled`](crate::Error::Cancelled). `None` by default.
    pub deadline: Option<Duration>,
    /// External cancellation token, polled by every virtual processor
    /// between messages. `None` by default (no polling overhead).
    pub cancel: Option<CancelToken>,
}

/// Factors `f` in place using `plan.p` concurrent virtual processors, one
/// OS thread each, blocks exchanged over channels.
///
/// Each thread owns the blocks the plan assigns to it, processes arriving
/// completed blocks in receive order, and ships its own completions. The
/// result is numerically equal to the sequential factorization up to
/// floating-point summation order.
///
/// On a pivot failure the failing column is recorded (min-combined at join)
/// but the run is **not** aborted: the column publishes as-is and the
/// protocol drains to completion. Column dependencies only flow from lower
/// to higher columns, so every column below the eventual minimum still runs
/// on correct inputs, and the reported pivot is exactly the one
/// [`crate::seq::factorize_seq`] would report — the convention shared with
/// the scheduler — independent of worker count or message timing. (Any
/// spurious failure seeded by a published garbage column is necessarily at
/// a higher column and loses the min-combine.)
pub fn factorize_fifo(f: &mut NumericFactor, plan: &Plan) -> Result<FifoStats, Error> {
    factorize_fifo_opts(f, plan, &FifoOptions::default())
}

/// [`factorize_fifo`] with explicit [`FifoOptions`].
pub fn factorize_fifo_opts(
    f: &mut NumericFactor,
    plan: &Plan,
    opts: &FifoOptions,
) -> Result<FifoStats, Error> {
    let bm = f.bm.clone();
    let p = plan.p;
    let np = bm.num_panels();
    let nb = plan.num_blocks();
    let tracebuf = TraceBuf::new(p, &opts.trace);
    let epoch = Instant::now();
    // One run-level token even when only a deadline was configured: the
    // first worker to observe the expiry fires it, so every worker (and the
    // join) agrees on a single cancellation reason.
    let cancel_armed = opts.cancel.is_some() || opts.deadline.is_some();
    let run_token: CancelToken = opts.cancel.clone().unwrap_or_default();
    // An already-expired deadline cancels deterministically even if every
    // worker would finish before its first poll: fire the token up front.
    if opts.deadline.is_some_and(|d| d.is_zero()) {
        run_token.cancel_with(CancelReason::Deadline);
    }
    // Hand each virtual processor exclusive mutable views of its blocks,
    // flat-indexed by `plan.block_base` (no hash map on the hot path).
    let mut owned: Vec<Vec<Option<&mut [f64]>>> = (0..p)
        .map(|_| (0..nb).map(|_| None).collect())
        .collect();
    for ((j, b), slice) in f.split_blocks_mut() {
        let q = plan.owner[j as usize][b as usize] as usize;
        owned[q][plan.block_id(j, b)] = Some(slice);
    }

    let (senders, receivers): (Vec<Sender<Msg>>, Vec<Receiver<Msg>>) =
        (0..p).map(|_| unbounded()).unzip();

    let results: Vec<Result<WorkerOut, Error>> = std::thread::scope(|scope| {
        let mut handles = Vec::with_capacity(p);
        for (me, (mine, rx)) in owned.into_iter().zip(receivers).enumerate() {
            let senders = senders.clone();
            let bm = bm.clone();
            let tracer = tracebuf.as_ref().map(|tb| tb.ring(me));
            let token = cancel_armed.then_some(&run_token);
            let deadline = opts.deadline;
            handles.push(scope.spawn({
                let plan = &*plan;
                move || worker(me as u32, plan, &bm, mine, rx, senders, tracer, epoch, token, deadline)
            }));
        }
        drop(senders);
        // Poison-aware join: a panicking virtual processor becomes a
        // structured WorkerPanicked error instead of unwinding the caller.
        // (Its abort guard broadcast Msg::Abort while unwinding, so its
        // peers drained instead of blocking on blocks that never arrive.)
        handles
            .into_iter()
            .map(|h| match h.join() {
                Ok(res) => Ok(res),
                Err(payload) => Err(Error::from_panic(None, &*payload)),
            })
            .collect()
    });

    // Smallest failing column wins, independent of worker index or timing;
    // a contained panic trumps a cancellation trumps a pivot failure (as in
    // the scheduler — after a panic the factor state is unspecified, and a
    // cancelled run drained early so `min_col` only describes a prefix).
    let mut stats = FifoStats::default();
    let mut min_col = None;
    let mut panicked: Option<Error> = None;
    let mut cancelled = false;
    let mut cols_done = 0usize;
    let mut tasks_done = 0u64;
    for res in results {
        match res {
            Ok(out) => {
                stats.blocks_copied += out.stats.blocks_copied;
                stats.messages += out.stats.messages;
                cancelled |= out.cancelled;
                cols_done += out.cols_done;
                tasks_done += out.blocks_done as u64;
                if let Some(col) = out.fail_col {
                    min_col = Some(min_col.map_or(col, |c: usize| c.min(col)));
                }
            }
            Err(e) => panicked = panicked.or(Some(e)),
        }
    }
    if let Some(e) = panicked {
        return Err(e);
    }
    if cancelled {
        let reason = run_token.cancelled().unwrap_or(CancelReason::Caller);
        let progress = StallReport {
            timeout: match reason {
                CancelReason::Deadline => opts.deadline.unwrap_or_default(),
                _ => Duration::ZERO,
            },
            tasks_retired: tasks_done,
            columns_done: cols_done,
            columns_total: np,
            ..StallReport::default()
        };
        return Err(Error::Cancelled { reason, progress: Box::new(progress) });
    }
    match min_col {
        None => {
            stats.trace = tracebuf.as_ref().map(TraceBuf::collect);
            Ok(stats)
        }
        Some(col) => Err(Error::NotPositiveDefinite { col }),
    }
}

/// Per-worker results folded at join time.
struct WorkerOut {
    stats: FifoStats,
    /// Smallest global column whose pivot failed on this processor.
    fail_col: Option<usize>,
    /// Diagonal-block (column) completions this processor performed.
    cols_done: usize,
    /// Block completions (diagonal + off-diagonal) this processor performed.
    blocks_done: usize,
    /// True when this processor stopped because it observed the run token
    /// fired (or fired it itself on deadline expiry).
    cancelled: bool,
}

/// Broadcasts [`Msg::Abort`] to every peer unless disarmed — armed for the
/// whole life of a worker so even a panic unwinding through it unblocks the
/// peers waiting on this worker's blocks.
struct AbortGuard {
    senders: Vec<Sender<Msg>>,
    me: u32,
    armed: bool,
}

impl Drop for AbortGuard {
    fn drop(&mut self) {
        if !self.armed {
            return;
        }
        for (q, s) in self.senders.iter().enumerate() {
            if q != self.me as usize {
                let _ = s.send(Msg::Abort);
            }
        }
    }
}

struct Worker<'a, 'data> {
    me: u32,
    plan: &'a Plan,
    bm: &'a BlockMatrix,
    /// Blocks this processor owns (in-place views of the factor storage),
    /// indexed by flat block id.
    mine: Vec<Option<&'data mut [f64]>>,
    /// Remote blocks received over the channels, indexed by flat block id.
    received: Vec<Option<Arc<Vec<f64>>>>,
    senders: Vec<Sender<Msg>>,
    arena: KernelArena,
    stats: FifoStats,
    /// Smallest global column whose pivot failed on this processor.
    fail_col: Option<usize>,
    /// Diagonal-block completions (column progress for cancellation reports).
    cols_done: usize,
    /// All block completions.
    blocks_done: usize,
    /// This virtual processor's event ring, when tracing is enabled.
    tracer: Option<&'a WorkerRing>,
    /// Time origin for trace timestamps.
    epoch: Instant,
}

#[allow(clippy::too_many_arguments)]
fn worker(
    me: u32,
    plan: &Plan,
    bm: &BlockMatrix,
    mine: Vec<Option<&mut [f64]>>,
    rx: Receiver<Msg>,
    senders: Vec<Sender<Msg>>,
    tracer: Option<&WorkerRing>,
    epoch: Instant,
    token: Option<&CancelToken>,
    deadline: Option<Duration>,
) -> WorkerOut {
    let mut state = ProtocolState::new(plan, bm, me);
    let mut actions = Vec::new();
    let nb = plan.num_blocks();
    let mut w = Worker {
        me,
        plan,
        bm,
        mine,
        received: (0..nb).map(|_| None).collect(),
        senders,
        arena: KernelArena::new(),
        stats: FifoStats::default(),
        fail_col: None,
        cols_done: 0,
        blocks_done: 0,
        tracer,
        epoch,
    };
    let mut guard = AbortGuard { senders: w.senders.clone(), me, armed: true };
    state.start(plan, bm, &mut actions);
    w.execute(&actions);
    let mut cancelled = false;
    while !state.is_done() {
        // Cancellation / deadline poll between messages. When armed, the
        // blocking recv below becomes a short timed wait, so a fired token
        // is observed within one poll tick even by a starved processor.
        if let Some(t) = token {
            if t.is_cancelled() {
                cancelled = true;
                break;
            }
            if deadline.is_some_and(|d| epoch.elapsed() >= d) {
                t.cancel_with(CancelReason::Deadline);
                cancelled = true;
                break;
            }
        }
        let t_recv = w.tracer.map(|_| w.epoch.elapsed().as_secs_f64());
        let msg = if token.is_some() {
            match rx.recv_timeout(Duration::from_millis(20)) {
                Ok(m) => Some(m),
                Err(RecvTimeoutError::Timeout) => continue,
                Err(RecvTimeoutError::Disconnected) => None,
            }
        } else {
            rx.recv().ok()
        };
        match msg {
            Some(Msg::Block(id, data)) => {
                if let (Some(ring), Some(t0)) = (w.tracer, t_recv) {
                    // The recv interval covers the blocking wait for this
                    // block — the baseline's communication stall time.
                    ring.record(TaskKind::Recv, id, t0, w.epoch.elapsed().as_secs_f64());
                }
                let (j, b) = flat_to_jb(plan, id);
                w.received[id as usize] = Some(data);
                state.on_receive(plan, bm, j, b, &mut actions);
                w.execute(&actions);
            }
            Some(Msg::Abort) | None => {
                // A peer panicked or cancelled (or all senders dropped
                // unexpectedly); return what we have without an error of
                // our own — the join resolves the run outcome.
                break;
            }
        }
    }
    // A cancelling worker leaves the guard armed: its drop broadcasts Abort
    // so peers still blocked on this worker's blocks drain immediately
    // instead of waiting out their own poll ticks.
    guard.armed = cancelled;
    WorkerOut {
        stats: w.stats,
        fail_col: w.fail_col,
        cols_done: w.cols_done,
        blocks_done: w.blocks_done,
        cancelled,
    }
}

/// Inverse of [`Plan::block_id`] (binary search over `block_base`).
fn flat_to_jb(plan: &Plan, id: u32) -> (u32, u32) {
    let j = plan.block_base.partition_point(|&base| base <= id) - 1;
    (j as u32, id - plan.block_base[j])
}

impl<'data> Worker<'_, 'data> {
    /// Source-block lookup inlined at field level (rather than a `&self`
    /// method) so the borrow checker can see it is disjoint from
    /// `self.arena`.
    fn execute(&mut self, actions: &[Action]) {
        for &act in actions {
            match act {
                Action::Bmod { k, a, b, dest_j, dest_b } => {
                    let col = &self.bm.cols[k as usize];
                    let c_k = self.bm.col_width(k as usize);
                    let blk_a = col.blocks[a as usize];
                    let blk_b = col.blocks[b as usize];
                    let dest_i = blk_a.row_panel as usize;
                    let id_a = self.plan.block_id(k, a);
                    let id_b = self.plan.block_id(k, b);
                    // Take the destination view out of its slot so the source
                    // lookups can borrow the arrays immutably; sources are in
                    // other columns (k < dest_j), so no self-alias.
                    let dest = self.mine[self.plan.block_id(dest_j, dest_b)]
                        .take()
                        .expect("we own the BMOD destination");
                    let t0 = self.tracer.map(|_| self.epoch.elapsed().as_secs_f64());
                    {
                        let a_buf: &[f64] = if self.plan.owner[k as usize][a as usize] == self.me {
                            self.mine[id_a]
                                .as_deref()
                                .expect("own source block completed before use")
                        } else {
                            self.received[id_a]
                                .as_deref()
                                .map(|x| x.as_slice())
                                .expect("remote source block received before use")
                        };
                        let b_buf: &[f64] = if self.plan.owner[k as usize][b as usize] == self.me {
                            self.mine[id_b]
                                .as_deref()
                                .expect("own source block completed before use")
                        } else {
                            self.received[id_b]
                                .as_deref()
                                .map(|x| x.as_slice())
                                .expect("remote source block received before use")
                        };
                        let (ap, bp, scratch) = pack_sources(
                            &mut self.arena,
                            a_buf,
                            blk_a.nrows(),
                            b_buf,
                            blk_b.nrows(),
                            c_k,
                        );
                        apply_bmod(
                            self.bm,
                            &mut *dest,
                            dest_i,
                            blk_b.row_panel as usize,
                            dest_b as usize,
                            ap,
                            self.bm.block_rows(k as usize, &blk_a),
                            bp,
                            self.bm.block_rows(k as usize, &blk_b),
                            c_k,
                            scratch,
                        );
                    }
                    if let (Some(ring), Some(t0)) = (self.tracer, t0) {
                        ring.record(
                            TaskKind::Bmod,
                            self.plan.block_id(dest_j, dest_b) as u32,
                            t0,
                            self.epoch.elapsed().as_secs_f64(),
                        );
                    }
                    self.mine[self.plan.block_id(dest_j, dest_b)] = Some(dest);
                }
                Action::Complete { j, b } => {
                    let id = self.plan.block_id(j, b);
                    let buf = self.mine[id].take().expect("we own the completing block");
                    let c = self.bm.col_width(j as usize);
                    let t0 = self.tracer.map(|_| self.epoch.elapsed().as_secs_f64());
                    if b == 0 {
                        if let Err(e) = potrf_with(buf, c, &mut self.arena) {
                            // Record and keep going: the column publishes
                            // as-is so the protocol drains, and every column
                            // below the eventual minimum still factors on
                            // correct inputs (see `factorize_fifo`).
                            let col = self.bm.partition.cols(j as usize).start + e.pivot;
                            self.fail_col =
                                Some(self.fail_col.map_or(col, |c: usize| c.min(col)));
                        }
                    } else {
                        let rows = self.bm.cols[j as usize].blocks[b as usize].nrows();
                        let id_diag = self.plan.block_id(j, 0);
                        let diag: &[f64] = if self.plan.owner[j as usize][0] == self.me {
                            self.mine[id_diag].as_deref().expect("local diagonal factored")
                        } else {
                            self.received[id_diag]
                                .as_deref()
                                .map(|a| a.as_slice())
                                .expect("diagonal received")
                        };
                        trsm_right_lower_trans_with(diag, c, buf, rows, &mut self.arena);
                    }
                    if let (Some(ring), Some(t0)) = (self.tracer, t0) {
                        let kind = if b == 0 { TaskKind::Bfac } else { TaskKind::Bdiv };
                        ring.record(kind, id as u32, t0, self.epoch.elapsed().as_secs_f64());
                    }
                    self.blocks_done += 1;
                    if b == 0 {
                        self.cols_done += 1;
                    }
                    // Ship a snapshot only if someone remote needs it; local
                    // consumers read the in-place slice.
                    let dests = &self.plan.send_to[j as usize][b as usize];
                    if !dests.is_empty() {
                        let data = Arc::new(buf.to_vec());
                        self.stats.blocks_copied += 1;
                        for &dest in dests {
                            self.stats.messages += 1;
                            let _ = self.senders[dest as usize].send(Msg::Block(id as u32, data.clone()));
                        }
                    }
                    self.mine[id] = Some(buf);
                }
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::seq::factorize_seq;
    use crate::solve::residual_norm;
    use blockmat::{BlockWork, WorkModel};
    use mapping::Assignment;
    use symbolic::AmalgamationOpts;

    fn prepared(
        prob: &sparsemat::Problem,
        bs: usize,
        p: usize,
    ) -> (NumericFactor, Plan, sparsemat::SymCscMatrix) {
        let perm = ordering::order_problem(prob);
        let analysis = symbolic::analyze(prob.matrix.pattern(), &perm, &AmalgamationOpts::default());
        let pa = analysis.perm.apply_to_matrix(&prob.matrix);
        let bm = Arc::new(BlockMatrix::build(analysis.supernodes, bs));
        let w = BlockWork::compute(&bm, &WorkModel::default());
        let asg = Assignment::cyclic(&bm, &w, p);
        let plan = Plan::build(&bm, &asg);
        let f = NumericFactor::from_matrix(bm, &pa);
        (f, plan, pa)
    }

    #[test]
    fn fifo_matches_sequential_factor() {
        let prob = sparsemat::gen::grid2d(8);
        let (mut f_par, plan, pa) = prepared(&prob, 3, 4);
        let mut f_seq = f_par.clone();
        factorize_seq(&mut f_seq).unwrap();
        factorize_fifo(&mut f_par, &plan).unwrap();
        let (_, _, v_seq) = f_seq.to_csc();
        let (_, _, v_par) = f_par.to_csc();
        for (a, b) in v_seq.iter().zip(&v_par) {
            assert!((a - b).abs() < 1e-9, "{a} vs {b}");
        }
        assert!(residual_norm(&pa, &f_par) < 1e-12);
    }

    #[test]
    fn traced_fifo_run_records_completions_updates_and_receives() {
        let prob = sparsemat::gen::grid2d(8);
        let (mut f, plan, pa) = prepared(&prob, 3, 4);
        let opts = FifoOptions { trace: TraceOpts::on(), ..Default::default() };
        let stats = factorize_fifo_opts(&mut f, &plan, &opts).unwrap();
        let tr = stats.trace.as_ref().expect("tracing was enabled");
        assert_eq!(tr.workers(), plan.p);
        let count = |k: TaskKind| {
            tr.per_worker.iter().flatten().filter(|e| e.kind == k).count()
        };
        // One completion event per block, one Recv per delivered message.
        assert_eq!(count(TaskKind::Bfac), f.bm.num_panels());
        assert_eq!(count(TaskKind::Bfac) + count(TaskKind::Bdiv), f.bm.num_blocks());
        let expected_msgs: usize = plan
            .send_to
            .iter()
            .flat_map(|col| col.iter().map(|dests| dests.len()))
            .sum();
        assert_eq!(count(TaskKind::Recv), expected_msgs);
        for evs in &tr.per_worker {
            for e in evs {
                assert!(e.t_end >= e.t_start);
            }
        }
        assert!(residual_norm(&pa, &f) < 1e-12);
    }

    #[test]
    fn fifo_works_across_processor_counts() {
        for p in [1, 4, 9, 16] {
            let prob = sparsemat::gen::bcsstk_like("T", 150, 3);
            let (mut f, plan, pa) = prepared(&prob, 4, p);
            let stats = factorize_fifo(&mut f, &plan).unwrap();
            let r = residual_norm(&pa, &f);
            assert!(r < 1e-11, "p={p} residual {r}");
            if p == 1 {
                assert_eq!(stats.blocks_copied, 0, "single proc must not copy");
            }
        }
    }

    #[test]
    fn fifo_copy_count_matches_plan_send_lists() {
        let prob = sparsemat::gen::grid2d(10);
        let (mut f, plan, _) = prepared(&prob, 4, 4);
        let stats = factorize_fifo(&mut f, &plan).unwrap();
        let with_remote: u64 = plan
            .send_to
            .iter()
            .flat_map(|c| c.iter().map(|l| u64::from(!l.is_empty())))
            .sum();
        let msgs: u64 = plan
            .send_to
            .iter()
            .flat_map(|c| c.iter().map(|l| l.len() as u64))
            .sum();
        assert_eq!(stats.blocks_copied, with_remote);
        assert_eq!(stats.messages, msgs);
    }

    #[test]
    fn fifo_reports_smallest_failing_column() {
        // Two independent indefinite 2x2 blocks owned by different vprocs;
        // whichever worker trips first, the reported pivot must be the
        // smaller global column.
        let a = sparsemat::SymCscMatrix::from_coords(
            4,
            &[
                (0, 0, 1.0),
                (1, 0, 3.0),
                (1, 1, 1.0),
                (2, 2, 1.0),
                (3, 2, 4.0),
                (3, 3, 1.0),
            ],
        )
        .unwrap();
        let parent = symbolic::etree(a.pattern());
        let counts = symbolic::col_counts(a.pattern(), &parent);
        let sn = symbolic::Supernodes::compute(a.pattern(), &parent, &counts, &AmalgamationOpts::off());
        let bm = Arc::new(BlockMatrix::build(sn, 2));
        let w = BlockWork::compute(&bm, &WorkModel::default());
        let asg = Assignment::cyclic(&bm, &w, 4);
        let plan = Plan::build(&bm, &asg);
        let mut f = NumericFactor::from_matrix(bm, &a);
        let err = factorize_fifo(&mut f, &plan).unwrap_err();
        assert_eq!(err, Error::NotPositiveDefinite { col: 1 });
    }
}
