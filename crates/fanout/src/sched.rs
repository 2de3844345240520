//! Shared-memory work-stealing task scheduler for the block fan-out method.
//!
//! The paper's Section 5 diagnosis (see [`crate::critpath`]) is that the
//! benchmark problems have ~50% more concurrency than the achieved
//! performance — the gap is scheduling and communication, not want of
//! parallelism. Running the protocol literally on shared memory — one OS
//! thread per *virtual* processor, every remotely-consumed block snapshotted
//! into a message — pays for both twice over once every consumer shares one
//! address space.
//!
//! This module is an asynchronous task-DAG runtime instead:
//!
//! * **Workers, not vprocs.** The `p`-processor plan runs on
//!   `min(p, num_cpus)` worker threads. The plan's block ownership only
//!   seeds task *placement* (initial deque of owner `q` → worker
//!   `q mod workers`); execution is wherever the task is popped or stolen.
//! * **Chase–Lev deques with stealing.** Each worker owns a
//!   [`crossbeam::deque`] and pops LIFO; idle workers steal FIFO from
//!   victims, so the oldest (lowest-priority) tasks migrate first.
//! * **Dependency counts, flat ids.** The task graph is the block matrix's
//!   update graph ([`blockmat::Updates`]), built once with the block
//!   matrix: a run allocates only its priorities and run state, indexed by
//!   flat block ids — no hash map is touched on the hot path. A
//!   destination block carries a cursor over its incoming `BMOD` list
//!   (sorted by source column); a block column carries a count of blocks
//!   still awaiting updates; a column whose count hits zero becomes a
//!   completion task (`BFAC` + one whole-column `TRSM`).
//! * **Critical-path priorities.** Ready tasks are pushed in ascending
//!   [`crate::critpath::block_levels`] order, so the LIFO pop serves the
//!   task with the longest remaining dependency chain first
//!   (overridable through [`Plan::priority`], disablable per run). The
//!   levels are recomputed from the update graph on every call that has no
//!   plan priorities.
//! * **Zero-copy publication.** Completed blocks are never snapshotted:
//!   completion is a release-store into a per-column done bitmap, and
//!   consumers read the factor storage in place after an acquire-load.
//!
//! # Numerics
//!
//! The result is **bit-identical** to [`crate::seq::factorize_seq`]:
//! updates into each destination block are applied sequentially in
//! ascending source-column order (the cursor enforces the sequential
//! executor's summation order) through the same `apply_bmod` on operands
//! packed by the same `pack_rows` — here per task, into the worker's own
//! arena, where the sequential driver slices one retained column pack — and
//! column completion reuses `factor_column_buf` verbatim. The packed
//! triangular solve is lane-wise (a row's bits depend on that row and the
//! diagonal block only), so solving the column whole is a convenience, not a
//! numerical requirement.

use crate::cancel::{CancelReason, CancelToken};
use crate::critpath::block_levels;
use crate::factor::NumericFactor;
use crate::faults::{Fault, FaultPlan};
use crate::plan::Plan;
use crate::seq::{
    apply_bmod, factor_column_buf, factor_column_buf_perturb, max_column_pack_len, pack_sources,
};
use crate::{Error, StallReport};
use blockmat::BlockMatrix;
use crossbeam::deque::{Steal, Stealer, Worker as Deque};
use dense::KernelArena;
use simgrid::MachineModel;
use std::panic::AssertUnwindSafe;
use std::sync::atomic::{AtomicBool, AtomicU32, AtomicU64, AtomicU8, AtomicUsize, Ordering};
use std::sync::{Condvar, Mutex, MutexGuard, PoisonError};
use std::time::{Duration, Instant};
use trace::{TaskKind, Trace, TraceBuf, TraceOpts, WorkerRing, NO_BLOCK};

/// Events per worker embedded in a [`StallReport`] timeline (when the
/// stalled run had tracing enabled).
const STALL_TAIL_EVENTS: usize = 8;

/// Run control of the numeric drivers: every field steers
/// [`factorize_sched_opts`]; the inline driver
/// ([`crate::factorize_seq_opts`]) reads `perturb_npd`, `deadline`, `cancel`
/// and `trace` and ignores the rest.
#[derive(Debug, Clone)]
pub struct SchedOptions {
    /// Worker thread count; `None` = `min(plan.p, available_parallelism)`.
    pub workers: Option<usize>,
    /// Pop critical-path-urgent tasks first (`false` = plain LIFO order).
    pub use_priorities: bool,
    /// When set, randomizes steal-victim order and injects scheduling
    /// jitter (yields) from this seed — used by the interleaving stress
    /// tests. `None` for production runs.
    pub seed: Option<u64>,
    /// Stall watchdog: if no task retires for this long while the run is
    /// incomplete, the run is halted with [`Error::Stalled`] carrying a
    /// diagnostic [`StallReport`]. `None` disables the watchdog (a wedged
    /// run then blocks forever — only sensible for debugging). The
    /// heartbeat is task *retirement*, so long-running tasks do not trip it
    /// as long as some task finishes within the window.
    pub stall_timeout: Option<Duration>,
    /// Wall-clock deadline for the whole run, measured from entry into the
    /// driver. When it expires the supervisor fires the cancellation token
    /// with [`CancelReason::Deadline`], workers drain to quiescence, and the
    /// run returns [`Error::Cancelled`]. `None` (the default) imposes no
    /// deadline.
    pub deadline: Option<Duration>,
    /// External cancellation token. Workers poll it at every task-claim
    /// boundary; firing it drains the run into [`Error::Cancelled`] with
    /// the token's reason. `None` still creates a run-internal token (the
    /// deadline and watchdog need one), it just isn't externally reachable.
    ///
    /// Precedence when several causes race: the first reason to land in the
    /// token wins, and the supervisor checks the token before its own
    /// timers — so an explicit caller cancel beats a deadline beats the
    /// stall watchdog.
    pub cancel: Option<CancelToken>,
    /// Deterministic fault injection (panics / delays / lost tasks)
    /// consulted per task; `None` for production runs. NPD injection is
    /// data-level — apply [`FaultPlan::inject_npd`] to the factor before
    /// the run.
    pub faults: Option<FaultPlan>,
    /// NPD graceful degradation. `None` (the default) rejects any
    /// non-positive pivot with [`Error::NotPositiveDefinite`] at the smallest
    /// failing column, whichever driver and worker count ran. `Some(tau)`
    /// instead *perturbs* a failing pivot: the offending diagonal entry is
    /// boosted by `tau · (1 + |aₖₖ|)` (grown geometrically on repeated
    /// failure) and the diagonal block is refactored, so the factorization
    /// completes on indefinite or semidefinite inputs. Perturbed pivots are
    /// reported in [`SchedStats::pivot_perturbations`] /
    /// [`SeqStats::perturbed_pivots`](crate::SeqStats::perturbed_pivots); a
    /// factor with a nonzero perturbation count is a factor of a *modified*
    /// matrix and should be paired with iterative refinement.
    pub perturb_npd: Option<f64>,
    /// Execution tracing: when enabled, every task / steal / idle interval
    /// lands in a per-worker lock-free ring and the collected
    /// [`Trace`] is returned in [`SchedStats::trace`].
    /// [`TraceOpts::ring_capacity`] is a floor: each ring is raised to the
    /// run's task-event count (one per column plus at most one per `BMOD`,
    /// known from the task graph), so task events alone never overflow it
    /// and [`Trace::dropped`] is nonzero only when steal and idle events do.
    /// Off by default — a disabled run pays one branch per hook and
    /// allocates nothing.
    pub trace: TraceOpts,
}

impl Default for SchedOptions {
    fn default() -> Self {
        Self {
            workers: None,
            use_priorities: true,
            seed: None,
            stall_timeout: Some(Duration::from_secs(60)),
            deadline: None,
            cancel: None,
            faults: None,
            perturb_npd: None,
            trace: TraceOpts::off(),
        }
    }
}

/// Locks a mutex, recovering the guard if a panicking worker poisoned it.
/// Every mutex in the scheduler guards either `()` (the sleep lock) or a
/// write-once diagnostic slot, so a poisoned guard is always safe to reuse.
fn lock_ignore_poison<T>(m: &Mutex<T>) -> MutexGuard<'_, T> {
    m.lock().unwrap_or_else(PoisonError::into_inner)
}

/// Execution statistics of one scheduler run, fed to the bench layer.
#[derive(Debug, Clone, Default)]
pub struct SchedStats {
    /// Worker threads used.
    pub workers: usize,
    /// Virtual processors of the plan the run executed.
    pub p: usize,
    /// Successful steals.
    pub steals: u64,
    /// Steal attempts (successful or not).
    pub steal_attempts: u64,
    /// Park events after a full empty sweep of every deque.
    pub idle_polls: u64,
    /// Claims of a block task that could not advance its cursor (the
    /// notifying source column was not the cursor's next dependency).
    pub spurious_claims: u64,
    /// High-water mark of simultaneously queued ready tasks.
    pub ready_hwm: usize,
    /// Tasks executed (block-advance + column-completion).
    pub tasks_run: u64,
    /// `BMOD`s applied.
    pub bmods_applied: u64,
    /// Block columns factored (`BFAC` + whole-column `TRSM`).
    pub columns_factored: u64,
    /// Pivots perturbed by NPD graceful degradation (0 unless
    /// [`SchedOptions::perturb_npd`] is set *and* triggered).
    pub pivot_perturbations: u64,
    /// Per-worker busy time (seconds spent inside tasks).
    pub busy_s: Vec<f64>,
    /// Execution span of the task work itself: first task start to last
    /// task end across all workers (0 when no task ran). This is the
    /// denominator for utilization — unlike [`SchedStats::wall_s`] it
    /// excludes thread spawn/join overhead, which inflates small problems.
    pub elapsed_s: f64,
    /// Wall-clock of the whole parallel section (spawn to join inclusive).
    pub wall_s: f64,
    /// The collected execution trace, when [`SchedOptions::trace`] enabled
    /// tracing; `None` otherwise.
    pub trace: Option<Trace>,
}

/// Factors `f` in place using `plan`'s virtual-processor protocol on
/// `min(p, num_cpus)` work-stealing worker threads, under default options.
///
/// The factor is bit-identical to [`crate::factorize_seq`] regardless of
/// worker count, steal order, or priorities.
pub fn factorize_sched(f: &mut NumericFactor, plan: &Plan) -> Result<SchedStats, Error> {
    factorize_sched_opts(f, plan, &SchedOptions::default())
}

/// [`factorize_sched`] with explicit [`SchedOptions`].
pub fn factorize_sched_opts(
    f: &mut NumericFactor,
    plan: &Plan,
    opts: &SchedOptions,
) -> Result<SchedStats, Error> {
    let bm = f.bm.clone();
    let upd = bm.updates();
    let workers = opts
        .workers
        .unwrap_or_else(|| {
            plan.p.min(std::thread::available_parallelism().map(|n| n.get()).unwrap_or(1))
        })
        .max(1);

    let np = bm.num_panels();
    let nb = bm.num_blocks();
    // One event per task: a completion per column, and at most one
    // block-advance task per update. A ring that holds them all overflows
    // only if steal/idle events push it over.
    let task_events = np + upd.num_updates();
    let tracebuf = TraceBuf::new(
        workers,
        &TraceOpts { ring_capacity: opts.trace.ring_capacity.max(task_events), ..opts.trace },
    );
    // Per column: blocks that await at least one update.
    let unfinished: Vec<u32> = (0..np)
        .map(|j| {
            let ids = upd.block_id(j, 0)..upd.block_id(j + 1, 0);
            ids.filter(|&id| !upd.sources(id).is_empty()).count() as u32
        })
        .collect();
    let (prio_block, prio_col) = priorities(&bm, plan, opts.use_priorities);
    let shared = Shared {
        bm: &bm,
        prio_block,
        prio_col,
        epoch: Instant::now(),
        tracebuf: tracebuf.as_ref(),
        offsets: &f.offsets,
        cols: f.data.iter_mut().map(|v| ColPtr { ptr: v.as_mut_ptr(), len: v.len() }).collect(),
        state: (0..nb).map(|_| AtomicU8::new(IDLE)).collect(),
        cursor: (0..nb).map(|_| AtomicU32::new(0)).collect(),
        col_unfinished: unfinished.iter().map(|&u| AtomicU32::new(u)).collect(),
        col_done: (0..np).map(|_| AtomicBool::new(false)).collect(),
        cols_remaining: AtomicUsize::new(np),
        queued: AtomicUsize::new(0),
        outstanding: AtomicUsize::new(0),
        ready_hwm: AtomicUsize::new(0),
        tasks_retired: AtomicU64::new(0),
        done: AtomicBool::new(np == 0),
        fail_col: AtomicUsize::new(usize::MAX),
        panic_slot: Mutex::new(None),
        stall_slot: Mutex::new(None),
        cancel_slot: Mutex::new(None),
        cancel: opts.cancel.clone().unwrap_or_default(),
        deadline: opts.deadline,
        stall_timeout: opts.stall_timeout,
        faults: opts.faults.as_ref(),
        perturb_npd: opts.perturb_npd,
        stealers: Vec::new(),
        sleep: Mutex::new(()),
        wake: Condvar::new(),
    };

    // Per-worker deques. Capacity bound: the claim protocol keeps at most
    // one queued entry per block plus one per column, globally — so each
    // fixed-capacity deque can absorb the worst case of every task landing
    // on one worker.
    let mut deques: Vec<Deque> = (0..workers).map(|_| Deque::with_capacity(nb + np)).collect();
    let mut shared = shared;
    shared.stealers = deques.iter().map(|d| d.stealer()).collect();

    // Seed: columns with no incoming updates complete immediately; place
    // each on the deque of the worker its plan owner maps to, least urgent
    // first so the LIFO pop serves the critical path.
    let mut seeds: Vec<Vec<(f64, u64)>> = vec![Vec::new(); workers];
    for (j, &u) in unfinished.iter().enumerate() {
        if u == 0 {
            let w = plan.owner[j][0] as usize % workers;
            seeds[w].push((shared.prio_col[j], COL_TAG | j as u64));
        }
    }
    let mut seeded = 0usize;
    for (dq, mut batch) in deques.iter_mut().zip(seeds) {
        batch.sort_by(|x, y| x.0.total_cmp(&y.0));
        seeded += batch.len();
        for (_, t) in batch {
            dq.push(t);
        }
    }
    shared.queued.store(seeded, Ordering::Relaxed);
    shared.outstanding.store(seeded, Ordering::Relaxed);
    shared.ready_hwm.store(seeded, Ordering::Relaxed);
    if seeded == 0 {
        shared.done.store(true, Ordering::Relaxed);
    }

    // Widest buffer any kernel can need: the tallest real block or the
    // widest panel. `max_width()`, not the nominal `block_size` — irregular
    // policies (width_fn, BlockPolicy) produce panels wider than nominal.
    let max_dim = (0..np)
        .map(|j| bm.cols[j].blocks.iter().map(|b| b.nrows()).max().unwrap_or(0))
        .max()
        .unwrap_or(0)
        .max(bm.partition.max_width());
    let max_pack = max_column_pack_len(&bm);

    // An already-expired deadline (zero, or a caller-computed remainder
    // that ran out) must cancel deterministically even when the run would
    // beat the supervisor's first tick: fire the token before workers
    // start, exactly as if the caller had pre-fired it.
    if opts.deadline.is_some_and(|d| d.is_zero()) {
        shared.cancel.cancel_with(CancelReason::Deadline);
    }

    let t0 = Instant::now();
    let locals: Vec<LocalStats> = std::thread::scope(|scope| {
        // The supervisor (stall watchdog + deadline timer) shares the
        // workers' scope: it exits as soon as the done flag is raised,
        // which every termination path sets. Pure external-cancel runs
        // don't need it — workers poll the token themselves.
        if opts.stall_timeout.is_some() || opts.deadline.is_some() {
            let shared = &shared;
            scope.spawn(move || supervisor(shared));
        }
        let mut handles = Vec::with_capacity(workers);
        for (me, deque) in deques.into_iter().enumerate() {
            let shared = &shared;
            handles.push(scope.spawn(move || {
                let mut arena = KernelArena::new();
                arena.preallocate(max_dim, max_pack);
                let mut ctx = WorkerCtx {
                    me,
                    shared,
                    deque,
                    arena,
                    tracer: shared.tracebuf.map(|tb| tb.ring(me)),
                    rng: opts
                        .seed
                        .map(|s| (s ^ 0x9e37_79b9_7f4a_7c15).wrapping_add(me as u64 + 1) | 1),
                    stats: LocalStats::default(),
                    batch: Vec::new(),
                };
                ctx.run();
                ctx.stats
            }));
        }
        // Poison-aware join: a panic that somehow escaped the per-task
        // catch_unwind (e.g. in the scheduling loop itself) is recorded and
        // reported as Error::WorkerPanicked instead of unwinding the caller.
        handles
            .into_iter()
            .filter_map(|h| match h.join() {
                Ok(stats) => Some(stats),
                Err(payload) => {
                    shared.record_panic(None, &payload);
                    None
                }
            })
            .collect()
    });
    let wall = t0.elapsed().as_secs_f64();

    // Resolve the run outcome. Priority: a contained panic trumps
    // everything (the factor state is unspecified), then a cancellation
    // (caller / deadline — the run drained early, so downstream results
    // like `fail_col` only describe a prefix of the work), then a watchdog
    // stall, then a pivot failure, then the drain-time stall check that
    // turns any termination-race regression into a structured error.
    if let Some((block, payload)) = lock_ignore_poison(&shared.panic_slot).take() {
        return Err(Error::WorkerPanicked { block, payload });
    }
    if let Some((reason, report)) = lock_ignore_poison(&shared.cancel_slot).take() {
        return Err(Error::Cancelled { reason, progress: Box::new(report) });
    }
    if let Some(report) = lock_ignore_poison(&shared.stall_slot).take() {
        return Err(Error::Stalled(Box::new(report)));
    }
    let fail = shared.fail_col.load(Ordering::Acquire);
    if fail != usize::MAX {
        return Err(Error::NotPositiveDefinite { col: fail });
    }
    if shared.cols_remaining.load(Ordering::Acquire) != 0 {
        // Quiescence with unfactored columns and no pivot failure: a
        // scheduler bug (e.g. a dropped task). Report it loudly rather than
        // asserting — callers get the same diagnostics as a watchdog stall.
        return Err(Error::Stalled(Box::new(shared.snapshot(Duration::ZERO))));
    }
    debug_assert!(shared.col_done.iter().all(|d| d.load(Ordering::Acquire)));

    let mut stats = SchedStats {
        workers,
        p: plan.p,
        ready_hwm: shared.ready_hwm.load(Ordering::Relaxed),
        wall_s: wall,
        busy_s: Vec::with_capacity(workers),
        trace: tracebuf.as_ref().map(TraceBuf::collect),
        ..SchedStats::default()
    };
    // Task span, not section wall-clock: first task start to last task end,
    // from the per-worker epoch offsets (see `SchedStats::elapsed_s`).
    let (mut t_first, mut t_last) = (f64::INFINITY, f64::NEG_INFINITY);
    for l in locals {
        stats.steals += l.steals;
        stats.steal_attempts += l.steal_attempts;
        stats.idle_polls += l.idle_polls;
        stats.spurious_claims += l.spurious;
        stats.tasks_run += l.tasks;
        stats.bmods_applied += l.bmods;
        stats.columns_factored += l.cols;
        stats.pivot_perturbations += l.perturbed;
        stats.busy_s.push(l.busy_s);
        t_first = t_first.min(l.t_first);
        t_last = t_last.max(l.t_last);
    }
    stats.elapsed_s = if t_last > t_first { t_last - t_first } else { 0.0 };
    Ok(stats)
}

/// Run supervisor: unifies the stall watchdog and the deadline timer onto
/// the run's cancellation token. It wakes on the workers' condvar (or every
/// poll tick) and, in precedence order, (1) honors an externally fired
/// token, (2) fires the token with [`CancelReason::Deadline`] when
/// `s.deadline` expires, (3) fires it with [`CancelReason::Stalled`] when
/// the tasks-retired heartbeat stops advancing for `s.stall_timeout`.
/// Whatever reason wins, [`Shared::record_cancel`] halts the run.
fn supervisor(s: &Shared) {
    let mut poll = Duration::from_millis(100);
    for d in [s.stall_timeout, s.deadline].into_iter().flatten() {
        poll = poll.min((d / 4).clamp(Duration::from_millis(1), Duration::from_millis(100)));
    }
    let start = Instant::now();
    let mut last = s.tasks_retired.load(Ordering::Relaxed);
    let mut last_progress = Instant::now();
    loop {
        {
            let guard = lock_ignore_poison(&s.sleep);
            if s.done.load(Ordering::Acquire) {
                return;
            }
            let _ = s
                .wake
                .wait_timeout(guard, poll)
                .unwrap_or_else(PoisonError::into_inner);
        }
        if s.done.load(Ordering::Acquire) {
            return;
        }
        if let Some(reason) = s.cancel.cancelled() {
            s.record_cancel(reason);
            return;
        }
        if let Some(deadline) = s.deadline {
            if start.elapsed() >= deadline {
                s.cancel.cancel_with(CancelReason::Deadline);
                // Re-read the token: a racing caller cancel may have won.
                s.record_cancel(s.cancel.cancelled().unwrap_or(CancelReason::Deadline));
                return;
            }
        }
        if let Some(timeout) = s.stall_timeout {
            let retired = s.tasks_retired.load(Ordering::Relaxed);
            if retired != last {
                last = retired;
                last_progress = Instant::now();
                continue;
            }
            if last_progress.elapsed() >= timeout {
                s.cancel.cancel_with(CancelReason::Stalled);
                s.record_cancel(s.cancel.cancelled().unwrap_or(CancelReason::Stalled));
                return;
            }
        }
    }
}

/// Tag bit distinguishing column-completion tasks from block-advance tasks.
const COL_TAG: u64 = 1 << 63;

/// The flat block id a task acts on, for panic attribution: a block task is
/// its own id; a column-completion task maps to the column's diagonal block.
fn task_block(s: &Shared, t: u64) -> usize {
    if t & COL_TAG != 0 {
        s.bm.updates().block_id((t & !COL_TAG) as usize, 0)
    } else {
        t as usize
    }
}

// Claim states of a block task. At most one deque entry exists per block:
// IDLE→QUEUED enqueues, the popper moves QUEUED→RUNNING, concurrent
// notifications mark RUNNING→DIRTY, and release retries while DIRTY.
const IDLE: u8 = 0;
const QUEUED: u8 = 1;
const RUNNING: u8 = 2;
const DIRTY: u8 = 3;

/// Per block id and per column: critical-path priority (larger = more
/// urgent) — the plan's own when it carries them, else
/// [`block_levels`](crate::critpath::block_levels); all zero without
/// priorities.
fn priorities(bm: &BlockMatrix, plan: &Plan, use_priorities: bool) -> (Vec<f64>, Vec<f64>) {
    if !use_priorities {
        return (vec![0.0; bm.num_blocks()], vec![0.0; bm.num_panels()]);
    }
    let flat: Vec<f64> = match &plan.priority {
        Some(p) => p.clone(),
        None => block_levels(bm, &MachineModel::paragon()).concat(),
    };
    let pc = (0..bm.num_panels()).map(|j| flat[bm.updates().block_id(j, 0)]).collect();
    (flat, pc)
}

struct ColPtr {
    ptr: *mut f64,
    len: usize,
}

/// State shared by the workers.
///
/// Holds raw pointers into the factor's column buffers; see the safety
/// argument on [`Shared::block_mut`].
struct Shared<'a> {
    /// The block structure; its update graph is the task graph.
    bm: &'a BlockMatrix,
    /// Per block id / column: priority (larger = more urgent).
    prio_block: Vec<f64>,
    prio_col: Vec<f64>,
    /// Time origin for trace timestamps and the task span (`elapsed_s`).
    epoch: Instant,
    /// Event rings, when tracing is enabled for this run.
    tracebuf: Option<&'a TraceBuf>,
    offsets: &'a [Vec<usize>],
    cols: Vec<ColPtr>,
    /// Per block: claim state (IDLE/QUEUED/RUNNING/DIRTY).
    state: Vec<AtomicU8>,
    /// Per block: position of the next update in its source list
    /// ([`blockmat::Updates::sources`]). Written only by the claiming worker.
    cursor: Vec<AtomicU32>,
    /// Per column: blocks still awaiting updates.
    col_unfinished: Vec<AtomicU32>,
    /// Per column: published (factored, readable in place).
    col_done: Vec<AtomicBool>,
    cols_remaining: AtomicUsize,
    /// Currently queued tasks (stats / high-water mark only).
    queued: AtomicUsize,
    /// Queued **plus executing** tasks. Hitting zero means quiescence:
    /// nothing queued and nothing running that could enqueue more — which is
    /// how runs with a pivot failure terminate (columns downstream of the
    /// failed one never become ready; see [`WorkerCtx::run_column`]).
    outstanding: AtomicUsize,
    ready_hwm: AtomicUsize,
    /// Monotone count of retired tasks — the watchdog's heartbeat.
    tasks_retired: AtomicU64,
    done: AtomicBool,
    /// Smallest failing global column seen (`usize::MAX` = none).
    fail_col: AtomicUsize,
    /// First contained worker panic: `(task's block id, payload)`.
    panic_slot: Mutex<Option<(Option<usize>, String)>>,
    /// Diagnostic snapshot written by the watchdog on stall.
    stall_slot: Mutex<Option<StallReport>>,
    /// Caller/deadline cancellation outcome with its progress snapshot
    /// (stall-reason cancellations land in `stall_slot` instead, keeping
    /// [`Error::Stalled`] back-compatible).
    cancel_slot: Mutex<Option<(CancelReason, StallReport)>>,
    /// The run's cancellation token: the caller's clone when one was passed
    /// in [`SchedOptions::cancel`], otherwise run-internal. Workers poll it
    /// at every task-claim boundary; the supervisor fires it for deadline
    /// and stall causes so every halt travels through one mechanism.
    cancel: CancelToken,
    /// Configured deadline (for the supervisor and progress reports).
    deadline: Option<Duration>,
    /// Configured stall watchdog timeout.
    stall_timeout: Option<Duration>,
    /// Per-task fault injection; `None` in production.
    faults: Option<&'a FaultPlan>,
    /// NPD graceful degradation threshold; `None` = structured NPD errors.
    perturb_npd: Option<f64>,
    stealers: Vec<Stealer>,
    sleep: Mutex<()>,
    wake: Condvar,
}

// SAFETY: the raw column pointers are only dereferenced under the scheduling
// protocol — mutable access to a block is confined to the worker holding its
// RUNNING claim (block slices within a column are disjoint), mutable access
// to a whole column happens only in its single column-completion task after
// every block of the column released its final claim, and shared reads only
// follow an acquire-load of `col_done` after which the column is never
// written again. The pointers outlive the workers (scoped threads borrow
// `Shared`, which borrows the factor).
unsafe impl Sync for Shared<'_> {}

impl Shared<'_> {
    fn block_range(&self, j: usize, b: usize) -> (usize, usize) {
        let lo = self.offsets[j][b];
        let hi = self.offsets[j].get(b + 1).copied().unwrap_or(self.cols[j].len);
        (lo, hi)
    }

    /// SAFETY: caller must hold the block's RUNNING claim.
    #[allow(clippy::mut_from_ref)]
    unsafe fn block_mut(&self, j: usize, b: usize) -> &mut [f64] {
        let (lo, hi) = self.block_range(j, b);
        std::slice::from_raw_parts_mut(self.cols[j].ptr.add(lo), hi - lo)
    }

    /// SAFETY: caller must have acquire-observed `col_done[j]`.
    unsafe fn block_ref(&self, j: usize, b: usize) -> &[f64] {
        let (lo, hi) = self.block_range(j, b);
        std::slice::from_raw_parts(self.cols[j].ptr.add(lo), hi - lo)
    }

    /// SAFETY: caller must be the column's completion task.
    #[allow(clippy::mut_from_ref)]
    unsafe fn col_mut(&self, j: usize) -> &mut [f64] {
        std::slice::from_raw_parts_mut(self.cols[j].ptr, self.cols[j].len)
    }

    fn wake_all(&self) {
        let _guard = lock_ignore_poison(&self.sleep);
        self.wake.notify_all();
    }

    /// Records the first contained panic and triggers cooperative drain:
    /// every worker observes the done flag and exits its loop; parked
    /// workers are woken. Later panics are dropped (first one wins).
    fn record_panic(&self, block: Option<usize>, payload: &(dyn std::any::Any + Send)) {
        if let Error::WorkerPanicked { block, payload } = Error::from_panic(block, payload) {
            let mut slot = lock_ignore_poison(&self.panic_slot);
            if slot.is_none() {
                *slot = Some((block, payload));
            }
        }
        self.done.store(true, Ordering::Release);
        self.wake_all();
    }

    /// Records a cancellation outcome (first writer wins) and triggers the
    /// same cooperative drain as a contained panic: done flag up, sleepers
    /// woken, every worker exits at its next claim boundary. The progress
    /// snapshot's `timeout` field carries the expired deadline for
    /// [`CancelReason::Deadline`] and the watchdog timeout for
    /// [`CancelReason::Stalled`] (which is routed to `stall_slot` so it
    /// still surfaces as the back-compatible [`Error::Stalled`]).
    fn record_cancel(&self, reason: CancelReason) {
        match reason {
            CancelReason::Stalled => {
                let mut slot = lock_ignore_poison(&self.stall_slot);
                if slot.is_none() {
                    *slot = Some(self.snapshot(self.stall_timeout.unwrap_or(Duration::ZERO)));
                }
            }
            CancelReason::Caller | CancelReason::Deadline => {
                let timeout = match reason {
                    CancelReason::Deadline => self.deadline.unwrap_or(Duration::ZERO),
                    _ => Duration::ZERO,
                };
                let mut slot = lock_ignore_poison(&self.cancel_slot);
                if slot.is_none() {
                    *slot = Some((reason, self.snapshot(timeout)));
                }
            }
        }
        self.done.store(true, Ordering::Release);
        self.wake_all();
    }

    /// Racy diagnostic snapshot of the run for [`StallReport`].
    fn snapshot(&self, timeout: Duration) -> StallReport {
        let mut block_states = [0usize; 4];
        let mut stuck = Vec::new();
        for (id, st) in self.state.iter().enumerate() {
            let v = st.load(Ordering::Acquire) as usize;
            block_states[v.min(3)] += 1;
            if v != IDLE as usize && stuck.len() < 8 {
                stuck.push(id);
            }
        }
        let columns_total = self.col_done.len();
        let columns_done =
            columns_total - self.cols_remaining.load(Ordering::Acquire).min(columns_total);
        StallReport {
            timeout,
            tasks_retired: self.tasks_retired.load(Ordering::Relaxed),
            columns_done,
            columns_total,
            queued: self.queued.load(Ordering::Relaxed),
            outstanding: self.outstanding.load(Ordering::Relaxed),
            block_states,
            worker_queue_depths: self.stealers.iter().map(|s| s.len()).collect(),
            stuck_blocks: stuck,
            last_events: self
                .tracebuf
                .map(|tb| tb.recent_per_worker(STALL_TAIL_EVENTS))
                .unwrap_or_default(),
        }
    }
}

struct LocalStats {
    steals: u64,
    steal_attempts: u64,
    idle_polls: u64,
    spurious: u64,
    tasks: u64,
    bmods: u64,
    cols: u64,
    perturbed: u64,
    busy_s: f64,
    /// Epoch offset of this worker's first task start (∞ if none ran).
    t_first: f64,
    /// Epoch offset of this worker's last task end (−∞ if none ran).
    t_last: f64,
}

impl Default for LocalStats {
    fn default() -> Self {
        Self {
            steals: 0,
            steal_attempts: 0,
            idle_polls: 0,
            spurious: 0,
            tasks: 0,
            bmods: 0,
            cols: 0,
            perturbed: 0,
            busy_s: 0.0,
            t_first: f64::INFINITY,
            t_last: f64::NEG_INFINITY,
        }
    }
}

struct WorkerCtx<'a> {
    me: usize,
    shared: &'a Shared<'a>,
    deque: Deque,
    arena: KernelArena,
    /// This worker's event ring, when tracing is enabled.
    tracer: Option<&'a WorkerRing>,
    /// xorshift state for stress-test jitter; `None` = deterministic sweep.
    rng: Option<u64>,
    stats: LocalStats,
    /// Ready tasks generated by the current task, flushed priority-sorted.
    batch: Vec<(f64, u64)>,
}

impl WorkerCtx<'_> {
    fn run(&mut self) {
        let s = self.shared;
        loop {
            if s.done.load(Ordering::Acquire) {
                break;
            }
            // Cancellation poll at the task-claim boundary: one atomic load
            // per iteration. The task in hand (if any) was already finished;
            // nothing is torn mid-kernel.
            if let Some(reason) = s.cancel.cancelled() {
                s.record_cancel(reason);
                break;
            }
            let task = match self.deque.pop() {
                Some(t) => Some(t),
                None => self.steal_sweep(),
            };
            match task {
                Some(t) => {
                    s.queued.fetch_sub(1, Ordering::AcqRel);
                    if let Some(fault) = s.faults.and_then(|fp| fp.task_fault(t)) {
                        match fault {
                            // A lost task: neither executed nor retired, so
                            // `outstanding` never reaches zero and — absent
                            // the watchdog — the run would wait forever.
                            Fault::Vanish => continue,
                            Fault::Delay(us) => {
                                std::thread::sleep(Duration::from_micros(us));
                            }
                            Fault::Panic => {
                                s.record_panic(
                                    Some(task_block(s, t)),
                                    &format!("injected fault: task {t:#x}"),
                                );
                                break;
                            }
                        }
                    }
                    // Panic isolation: a panicking task must not tear down
                    // the process (the old join().expect path). Contain it,
                    // record the first payload, and drain cooperatively.
                    let run = std::panic::catch_unwind(AssertUnwindSafe(|| self.run_task(t)));
                    if let Err(payload) = run {
                        s.record_panic(Some(task_block(s, t)), payload.as_ref());
                        break;
                    }
                    // Flush before retiring the task so `outstanding` never
                    // dips to zero while successor tasks are still in hand.
                    self.flush_batch();
                    s.tasks_retired.fetch_add(1, Ordering::Relaxed);
                    if s.outstanding.fetch_sub(1, Ordering::AcqRel) == 1 {
                        s.done.store(true, Ordering::Release);
                        s.wake_all();
                    }
                }
                None => self.park(),
            }
        }
    }

    /// Executes one popped task (block-advance or column-completion).
    fn run_task(&mut self, t: u64) {
        self.jitter();
        let s = self.shared;
        let t_start = s.epoch.elapsed().as_secs_f64();
        if t & COL_TAG != 0 {
            self.run_column((t & !COL_TAG) as usize);
        } else {
            self.run_block(t as usize);
        }
        let t_end = s.epoch.elapsed().as_secs_f64();
        self.stats.tasks += 1;
        self.stats.busy_s += t_end - t_start;
        self.stats.t_first = self.stats.t_first.min(t_start);
        self.stats.t_last = self.stats.t_last.max(t_end);
        if let Some(ring) = self.tracer {
            // Column-completion covers BFAC plus the whole-column TRSM (one
            // shared kernel call — see TaskKind::Bfac); block-advance tasks
            // are the BMOD phase.
            let kind = if t & COL_TAG != 0 { TaskKind::Bfac } else { TaskKind::Bmod };
            ring.record(kind, task_block(s, t) as u32, t_start, t_end);
        }
    }

    fn rng_next(&mut self) -> u64 {
        let state = self.rng.as_mut().expect("rng requested without seed");
        let mut x = *state;
        x ^= x << 13;
        x ^= x >> 7;
        x ^= x << 17;
        *state = x;
        x
    }

    /// Stress-test scheduling jitter: occasionally yield the OS slice so
    /// seeded runs explore different thread interleavings.
    fn jitter(&mut self) {
        if self.rng.is_some() && self.rng_next().is_multiple_of(4) {
            std::thread::yield_now();
        }
    }

    fn steal_sweep(&mut self) -> Option<u64> {
        let n = self.shared.stealers.len();
        if n <= 1 {
            return None;
        }
        let t_start = self.tracer.map(|_| self.shared.epoch.elapsed().as_secs_f64());
        let start = if self.rng.is_some() {
            self.rng_next() as usize % n
        } else {
            self.me + 1
        };
        for i in 0..n {
            let v = (start + i) % n;
            if v == self.me {
                continue;
            }
            loop {
                self.stats.steal_attempts += 1;
                match self.shared.stealers[v].steal() {
                    Steal::Success(t) => {
                        self.stats.steals += 1;
                        if let (Some(ring), Some(t0)) = (self.tracer, t_start) {
                            let now = self.shared.epoch.elapsed().as_secs_f64();
                            ring.record(
                                TaskKind::Steal,
                                task_block(self.shared, t) as u32,
                                t0,
                                now,
                            );
                        }
                        return Some(t);
                    }
                    Steal::Retry => continue,
                    Steal::Empty => break,
                }
            }
        }
        None
    }

    fn park(&mut self) {
        let s = self.shared;
        self.stats.idle_polls += 1;
        let t_start = self.tracer.map(|_| s.epoch.elapsed().as_secs_f64());
        let guard = lock_ignore_poison(&s.sleep);
        if !s.done.load(Ordering::Acquire) {
            // The timeout bounds the cost of the benign race between a final
            // empty sweep and a concurrent push's notify. A poisoned condvar
            // result (a peer panicked while holding the sleep lock) is treated
            // as a plain wakeup — the loop re-checks the done flag.
            let _ = s
                .wake
                .wait_timeout(guard, Duration::from_micros(200))
                .unwrap_or_else(PoisonError::into_inner);
        }
        if let (Some(ring), Some(t0)) = (self.tracer, t_start) {
            ring.record(TaskKind::Idle, NO_BLOCK, t0, s.epoch.elapsed().as_secs_f64());
        }
    }

    /// Queues a freshly ready task into the current task's batch.
    fn enqueue(&mut self, prio: f64, task: u64) {
        self.batch.push((prio, task));
    }

    /// Pushes the batch least-urgent first (LIFO pop ⇒ most urgent runs
    /// first; thieves steal from the old, least-urgent end).
    fn flush_batch(&mut self) {
        if self.batch.is_empty() {
            return;
        }
        self.batch.sort_by(|x, y| x.0.total_cmp(&y.0));
        let n = self.batch.len();
        // Count the tasks before pushing: a thief may steal and retire a
        // task the instant it lands on the deque, and its fetch_subs must
        // never observe counters that don't yet include it (else
        // `outstanding` hits zero with siblings still queued and the run
        // terminates early).
        let s = self.shared;
        s.outstanding.fetch_add(n, Ordering::AcqRel);
        let q = s.queued.fetch_add(n, Ordering::AcqRel) + n;
        s.ready_hwm.fetch_max(q, Ordering::AcqRel);
        for i in 0..n {
            let t = self.batch[i].1;
            self.deque.push(t);
        }
        self.batch.clear();
        if s.stealers.len() > 1 {
            s.wake_all();
        }
    }

    /// Marks block `id` ready to (possibly) advance. At most one queue entry
    /// per block ever exists: IDLE is the only state that enqueues.
    fn notify_block(&mut self, id: usize) {
        let st = &self.shared.state[id];
        loop {
            match st.load(Ordering::Acquire) {
                IDLE => {
                    if st
                        .compare_exchange(IDLE, QUEUED, Ordering::AcqRel, Ordering::Acquire)
                        .is_ok()
                    {
                        self.enqueue(self.shared.prio_block[id], id as u64);
                        return;
                    }
                }
                QUEUED | DIRTY => return,
                RUNNING => {
                    if st
                        .compare_exchange(RUNNING, DIRTY, Ordering::AcqRel, Ordering::Acquire)
                        .is_ok()
                    {
                        return;
                    }
                }
                _ => unreachable!("invalid block claim state"),
            }
        }
    }

    fn run_block(&mut self, id: usize) {
        let st = &self.shared.state[id];
        let claimed =
            st.compare_exchange(QUEUED, RUNNING, Ordering::AcqRel, Ordering::Acquire).is_ok();
        // Hard assert: a failed claim would mean another worker holds (or
        // held) this block, and proceeding would race on block_mut.
        assert!(claimed, "popped block task must be QUEUED");
        let mut progressed = false;
        loop {
            progressed |= self.advance(id);
            match st.compare_exchange(RUNNING, IDLE, Ordering::AcqRel, Ordering::Acquire) {
                Ok(_) => break,
                Err(_) => {
                    // A notification raced in while we were RUNNING; clear
                    // the DIRTY mark and re-scan.
                    st.store(RUNNING, Ordering::Release);
                }
            }
        }
        if !progressed {
            self.stats.spurious += 1;
        }
    }

    /// Applies every currently-runnable update of block `id`, strictly in
    /// ascending source-column order. Returns true if the cursor moved.
    fn advance(&mut self, id: usize) -> bool {
        let s = self.shared;
        let srcs = s.bm.updates().sources(id);
        let start = s.cursor[id].load(Ordering::Relaxed) as usize;
        if start >= srcs.len() {
            return false;
        }
        // The block's column is the row panel of any update's `b` source.
        let (k0, _, b0) = srcs[0];
        let j = s.bm.cols[k0 as usize].blocks[b0 as usize].row_panel as usize;
        let b = id - s.bm.updates().block_id(j, 0);
        // SAFETY: we hold this block's RUNNING claim.
        let dest = unsafe { s.block_mut(j, b) };
        let mut cur = start;
        for &(k, a, bb) in &srcs[start..] {
            let (k, a, bb) = (k as usize, a as usize, bb as usize);
            if !s.col_done[k].load(Ordering::Acquire) {
                break;
            }
            let blocks = &s.bm.cols[k].blocks;
            let (blk_a, blk_b) = (blocks[a], blocks[bb]);
            // SAFETY: column k is published — read-only from here on.
            let a_buf = unsafe { s.block_ref(k, a) };
            let b_buf = unsafe { s.block_ref(k, bb) };
            let c_k = s.bm.col_width(k);
            let (ap, bp, scratch) =
                pack_sources(&mut self.arena, a_buf, blk_a.nrows(), b_buf, blk_b.nrows(), c_k);
            apply_bmod(
                s.bm,
                dest,
                blk_a.row_panel as usize,
                blk_b.row_panel as usize,
                b,
                ap,
                s.bm.block_rows(k, &blk_a),
                bp,
                s.bm.block_rows(k, &blk_b),
                c_k,
                scratch,
            );
            cur += 1;
            self.stats.bmods += 1;
        }
        s.cursor[id].store(cur as u32, Ordering::Relaxed);
        if cur == srcs.len() {
            // Final update applied exactly once (the cursor only moves under
            // the claim): retire the block from its column's count.
            if s.col_unfinished[j].fetch_sub(1, Ordering::AcqRel) == 1 {
                self.enqueue(s.prio_col[j], COL_TAG | j as u64);
            }
        }
        cur > start
    }

    /// `BFAC` + whole-column `TRSM`, then publish and fan out readiness.
    ///
    /// On a pivot failure the column is *not* published and no abort is
    /// broadcast: the failing global column enters `fail_col` (min-combined)
    /// and the run drains to quiescence. Because block-column dependencies
    /// only flow from lower to higher columns, every column smaller than the
    /// eventual minimum still runs, so the reported pivot is exactly the one
    /// `factorize_seq` would report — independent of worker count and steal
    /// order.
    fn run_column(&mut self, j: usize) {
        let s = self.shared;
        // SAFETY: the single completion task of column j; every block claim
        // in the column has been released (col_unfinished hit zero).
        let col = unsafe { s.col_mut(j) };
        let factored = match s.perturb_npd {
            None => factor_column_buf(col, s.bm, j, &mut self.arena),
            Some(tau) => factor_column_buf_perturb(col, s.bm, j, &mut self.arena, tau).map(
                |perturbed| {
                    self.stats.perturbed += perturbed.len() as u64;
                },
            ),
        };
        if let Err(e) = factored {
            if let Error::NotPositiveDefinite { col: c } = e {
                s.fail_col.fetch_min(c, Ordering::AcqRel);
            }
            return;
        }
        s.col_done[j].store(true, Ordering::Release);
        self.stats.cols += 1;
        for op in s.bm.bmods_of(j) {
            self.notify_block(s.bm.updates().block_id(op.j as usize, op.dest_b as usize));
        }
        if s.cols_remaining.fetch_sub(1, Ordering::AcqRel) == 1 {
            s.done.store(true, Ordering::Release);
            s.wake_all();
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
    use std::sync::Arc;
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
    fn sched_factor_is_bit_identical_to_seq() {
        let prob = sparsemat::gen::grid2d(9);
        let (mut f_par, plan, pa) = prepared(&prob, 3, 4);
        let mut f_seq = f_par.clone();
        factorize_seq(&mut f_seq).unwrap();
        let stats = factorize_sched(&mut f_par, &plan).unwrap();
        let (_, _, v_seq) = f_seq.to_csc();
        let (_, _, v_par) = f_par.to_csc();
        assert_eq!(v_seq.len(), v_par.len());
        for (i, (a, b)) in v_seq.iter().zip(&v_par).enumerate() {
            assert!(a.to_bits() == b.to_bits(), "entry {i}: {a} vs {b}");
        }
        assert!(residual_norm(&pa, &f_par) < 1e-12);
        assert_eq!(stats.columns_factored as usize, f_par.bm.num_panels());
        let mut bmods = 0u64;
        blockmat::for_each_bmod(&f_par.bm, |_| bmods += 1);
        assert_eq!(stats.bmods_applied, bmods);
    }

    #[test]
    fn sched_works_across_processor_and_worker_counts() {
        for (p, workers) in [(1, 1), (4, 2), (16, 3), (64, 4)] {
            let prob = sparsemat::gen::bcsstk_like("T", 150, 3);
            let (mut f, plan, pa) = prepared(&prob, 4, p);
            let opts = SchedOptions { workers: Some(workers), ..Default::default() };
            let stats = factorize_sched_opts(&mut f, &plan, &opts).unwrap();
            assert_eq!(stats.workers, workers);
            assert_eq!(stats.p, p);
            let r = residual_norm(&pa, &f);
            assert!(r < 1e-11, "p={p} workers={workers} residual {r}");
        }
    }

    #[test]
    fn traced_run_accounts_for_every_task_and_stays_bit_identical() {
        let prob = sparsemat::gen::bcsstk_like("T", 150, 3);
        let (mut f_tr, plan, _) = prepared(&prob, 4, 16);
        let mut f_off = f_tr.clone();
        let opts = SchedOptions {
            workers: Some(3),
            trace: TraceOpts::on(),
            ..Default::default()
        };
        let stats = factorize_sched_opts(&mut f_tr, &plan, &opts).unwrap();
        let tr = stats.trace.as_ref().expect("tracing was enabled");
        assert_eq!(tr.workers(), stats.workers);
        // One Bfac event per column-completion task, one Bmod per
        // block-advance task.
        let count = |k: TaskKind| {
            tr.per_worker.iter().flatten().filter(|e| e.kind == k).count()
        };
        assert_eq!(count(TaskKind::Bfac), f_tr.bm.num_panels());
        assert!(count(TaskKind::Bmod) > 0);
        // Intervals are well-formed and inside the measured task span.
        // The trace window covers the task span (it additionally holds
        // steal/idle events straddling the first and last task) and stays
        // inside the wall clock.
        let span = tr.span_s();
        assert!(span > 0.0 && span <= stats.wall_s + 1e-9);
        assert!(span >= stats.elapsed_s - 1e-9);
        for evs in &tr.per_worker {
            for e in evs {
                assert!(e.t_end >= e.t_start, "inverted interval");
            }
        }
        // Compute seconds in the trace agree with the busy counters (both
        // are sums of the same per-task measurements).
        let busy: f64 = stats.busy_s.iter().sum();
        assert!((tr.busy_s() - busy).abs() <= 0.05 * busy + 1e-6);
        // Tracing must not change the numerics.
        let opts_off = SchedOptions { workers: Some(3), ..Default::default() };
        let stats_off = factorize_sched_opts(&mut f_off, &plan, &opts_off).unwrap();
        assert!(stats_off.trace.is_none());
        let (_, _, v_tr) = f_tr.to_csc();
        let (_, _, v_off) = f_off.to_csc();
        for (a, b) in v_tr.iter().zip(&v_off) {
            assert_eq!(a.to_bits(), b.to_bits());
        }
    }

    #[test]
    fn a_requested_trace_keeps_every_task_event_whatever_the_ring_capacity() {
        // The configured capacity is a floor: the rings are raised to the
        // task graph's event count, so a tiny (or the default) capacity
        // cannot silently truncate the bfac/bmod record of a long run.
        let prob = sparsemat::gen::grid2d(12);
        let (f0, plan, _) = prepared(&prob, 3, 4);
        let np = f0.bm.num_panels();
        let mut updates = 0u64;
        blockmat::for_each_bmod(&f0.bm, |_| updates += 1);
        for workers in [1, 3] {
            let opts = SchedOptions {
                workers: Some(workers),
                trace: TraceOpts::with_capacity(8),
                ..Default::default()
            };
            let stats = factorize_sched_opts(&mut f0.clone(), &plan, &opts).unwrap();
            assert_eq!(stats.bmods_applied, updates);
            assert!(stats.tasks_run <= np as u64 + updates, "ring bound is not an upper bound");
            let tr = stats.trace.as_ref().expect("tracing was enabled");
            // Whatever overflowed was steal/idle traffic on top of the tasks.
            assert!(tr.dropped <= stats.steals + stats.idle_polls);
            if workers == 1 {
                // A lone worker neither steals nor parks: the trace is exact.
                assert_eq!(tr.dropped, 0);
                let count = |k: TaskKind| tr.per_worker[0].iter().filter(|e| e.kind == k).count();
                assert_eq!(count(TaskKind::Bfac), np, "one bfac per column");
                assert_eq!(
                    count(TaskKind::Bmod) as u64,
                    stats.tasks_run - np as u64,
                    "one bmod per block-advance task"
                );
            }
        }
    }

    #[test]
    fn elapsed_is_task_span_and_never_exceeds_wall() {
        let prob = sparsemat::gen::grid2d(9);
        let (mut f, plan, _) = prepared(&prob, 3, 4);
        let stats = factorize_sched_opts(&mut f, &plan, &SchedOptions::default()).unwrap();
        assert!(stats.elapsed_s > 0.0);
        assert!(
            stats.elapsed_s <= stats.wall_s + 1e-9,
            "task span {} exceeds wall clock {}",
            stats.elapsed_s,
            stats.wall_s
        );
    }

    #[test]
    fn priorities_off_is_still_bit_identical() {
        let prob = sparsemat::gen::grid2d(8);
        let (mut f_par, plan, _) = prepared(&prob, 3, 4);
        let mut f_seq = f_par.clone();
        factorize_seq(&mut f_seq).unwrap();
        let opts = SchedOptions { use_priorities: false, ..Default::default() };
        factorize_sched_opts(&mut f_par, &plan, &opts).unwrap();
        let (_, _, v_seq) = f_seq.to_csc();
        let (_, _, v_par) = f_par.to_csc();
        for (a, b) in v_seq.iter().zip(&v_par) {
            assert_eq!(a.to_bits(), b.to_bits());
        }
    }

    #[test]
    fn plan_priorities_are_honored() {
        let prob = sparsemat::gen::grid2d(8);
        let perm = ordering::order_problem(&prob);
        let analysis = symbolic::analyze(prob.matrix.pattern(), &perm, &AmalgamationOpts::default());
        let pa = analysis.perm.apply_to_matrix(&prob.matrix);
        let bm = Arc::new(BlockMatrix::build(analysis.supernodes, 3));
        let w = BlockWork::compute(&bm, &WorkModel::default());
        let levels = block_levels(&bm, &MachineModel::paragon());
        let asg = Assignment::cyclic(&bm, &w, 4).with_block_priorities(levels);
        let plan = Plan::build(&bm, &asg);
        assert!(plan.priority.is_some());
        let mut f = NumericFactor::from_matrix(bm, &pa);
        factorize_sched(&mut f, &plan).unwrap();
        assert!(residual_norm(&pa, &f) < 1e-12);
    }
}
