//! The block fan-out method (paper Section 2.3): one task graph, three
//! drivers.
//!
//! Every driver runs the same three block operations on the same storage
//! ([`NumericFactor`]) — `BFAC`/`BDIV` through the shared column factor and
//! `BMOD` through the one update routine, on operands in the kernels' packed
//! panel form — and applies the updates into a block in ascending
//! source-column order. They differ only in *who runs a task, when*, and
//! therefore in who packs a source block:
//!
//! * [`seq`] — the **inline** driver: block columns ascending on the calling
//!   thread. The numeric reference every other result is compared to bit for
//!   bit, and the `tseq` baseline. It packs each factored column **once**
//!   (the solve leaves the column's pack in the arena) and slices that pack
//!   for every update the column sources.
//! * [`sched`] — the **work-stealing** driver, the production path: the
//!   `p`-processor plan on `min(p, num_cpus)` worker threads with
//!   critical-path priorities and zero-copy block publication. A worker packs
//!   the two source blocks of a `BMOD` **per task**, into its own arena,
//!   because the update rarely runs on the worker that factored the source
//!   column. Bit-identical to [`seq`].
//! * [`sim`] — the **virtual-time** driver: the paper's data-driven protocol
//!   ([`proto::ProtocolState`], one state machine per processor) on the
//!   discrete-event Paragon model of the `simgrid` crate, charging model time
//!   instead of running kernels. All of the paper's performance experiments
//!   (Figure 1, Tables 5 and 7) are regenerated with it; nothing is packed.
//!
//! Run control — NPD perturbation, deadline, cancellation token, tracing,
//! plus the worker-thread knobs only [`sched`] reads — is one struct,
//! [`SchedOptions`], for both numeric drivers.
//!
//! The one task graph is the block matrix's update graph
//! ([`blockmat::Updates`]: each `BMOD`'s destination, each block's incoming
//! updates in summation order), built with the block matrix; no driver
//! enumerates the updates itself. The scheduled and simulated drivers also
//! share [`plan::Plan`] (who owns what, who must receive which completed
//! block). That the protocol
//! the simulator times also yields a correct factor is checked by the
//! `proto` tests, which interpret its action stream with the real kernels.
//! [`simplicial`] is deliberately *not* a fourth driver: it shares no kernel,
//! block structure or task order with the fan-out method, which is what makes
//! it the independent oracle the numeric drivers are tested against.

pub mod cancel;
pub mod critpath;
pub mod factor;
pub mod faults;
pub mod plan;
pub mod proto;
pub mod reuse;
pub mod sched;
pub mod seq;
pub mod sim;
pub mod simplicial;
pub mod solve;

pub use cancel::{CancelReason, CancelToken};
pub use critpath::{block_levels, critical_path, CriticalPath};
pub use factor::NumericFactor;
pub use faults::{Fault, FaultPlan};
pub use plan::Plan;
pub use reuse::AssemblyTemplate;
pub use sched::{factorize_sched, factorize_sched_opts, SchedOptions, SchedStats};
pub use seq::{factorize_seq, factorize_seq_opts, SeqStats};
pub use simplicial::{factorize_simplicial, factorize_simplicial_from, CscFactor};
pub use sim::{block_ranks, simulate, simulate_traced, simulate_with_policy, SimOutcome, SimPolicy};
pub use solve::{residual_norm, solve, solve_csc, solve_in_place};
// Tracing vocabulary, re-exported so executor callers need no direct `trace`
// dependency to configure or consume a trace.
pub use trace::{CounterEvent, TaskKind, Trace, TraceEvent, TraceOpts};

/// Errors from numeric factorization.
///
/// Every executor degrades into one of these — never a propagated panic,
/// never a hang: worker panics are caught and reported as
/// [`Error::WorkerPanicked`], a run that stops retiring tasks trips the
/// stall watchdog and returns [`Error::Stalled`] with a diagnostic snapshot,
/// and a fired [`CancelToken`] or expired deadline drains the run into
/// [`Error::Cancelled`].
#[derive(Debug, Clone, PartialEq)]
pub enum Error {
    /// A diagonal block was not positive definite.
    NotPositiveDefinite {
        /// Global column index of the failing pivot.
        col: usize,
    },
    /// A worker panicked while executing a task. The panic was contained:
    /// every other worker drained cooperatively and the factor storage was
    /// returned to the caller (in an unspecified, partially-updated state).
    WorkerPanicked {
        /// Flat block id of the task that panicked (for a column-completion
        /// task, the column's diagonal block), when the panic happened
        /// inside a task; `None` when a worker died outside task execution.
        block: Option<usize>,
        /// The panic payload, stringified.
        payload: String,
    },
    /// The scheduler stopped retiring tasks for longer than the configured
    /// watchdog timeout, or reached quiescence with columns still
    /// unfactored and no pivot failure. Carries a diagnostic snapshot of
    /// the run at the moment the stall was detected.
    Stalled(Box<StallReport>),
    /// The run was cancelled cooperatively — the caller fired a
    /// [`CancelToken`] or a configured deadline expired. Workers finished
    /// the tasks in hand and drained to quiescence before returning, so the
    /// factor storage is in a partially-updated but data-race-free state; a
    /// fresh refactor from the original values fully recovers it. (A
    /// watchdog-detected stall also travels through the token internally
    /// but is still reported as [`Error::Stalled`] for back-compatibility.)
    Cancelled {
        /// What fired the token (caller vs deadline).
        reason: cancel::CancelReason,
        /// Progress snapshot at cancellation time, same shape as a stall
        /// report: columns done, tasks retired, queue depths, worker trace
        /// tails. For deadline cancels `progress.timeout` carries the
        /// deadline duration that expired.
        progress: Box<StallReport>,
    },
}

/// Diagnostic snapshot captured when the scheduler stalls (see
/// [`Error::Stalled`]). All counts are racy reads taken while workers may
/// still be parked, so treat them as a debugging aid, not an invariant.
#[derive(Debug, Clone, Default, PartialEq)]
pub struct StallReport {
    /// The watchdog timeout that expired (zero for quiescence-detected
    /// stalls, which are found at drain time rather than by the watchdog).
    pub timeout: std::time::Duration,
    /// Tasks retired before progress stopped.
    pub tasks_retired: u64,
    /// Block columns published / total block columns.
    pub columns_done: usize,
    /// Total block columns of the factor.
    pub columns_total: usize,
    /// Tasks sitting on deques at snapshot time.
    pub queued: usize,
    /// Queued plus executing tasks at snapshot time.
    pub outstanding: usize,
    /// Per-claim-state block counts: `[IDLE, QUEUED, RUNNING, DIRTY]`.
    pub block_states: [usize; 4],
    /// Queue depth of each worker's deque.
    pub worker_queue_depths: Vec<usize>,
    /// Up to eight flat ids of blocks stuck in a non-idle claim state.
    pub stuck_blocks: Vec<usize>,
    /// The last few trace events of each worker at snapshot time (empty
    /// unless the run had tracing enabled) — a per-worker timeline of what
    /// everyone was doing when progress stopped. The snapshot is racy: an
    /// in-flight record may appear torn.
    pub last_events: Vec<Vec<trace::TraceEvent>>,
}

impl std::fmt::Display for StallReport {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(
            f,
            "{}/{} columns done, {} tasks retired, {} queued / {} outstanding, \
             block states [idle {}, queued {}, running {}, dirty {}], deques {:?}, \
             stuck blocks {:?}",
            self.columns_done,
            self.columns_total,
            self.tasks_retired,
            self.queued,
            self.outstanding,
            self.block_states[0],
            self.block_states[1],
            self.block_states[2],
            self.block_states[3],
            self.worker_queue_depths,
            self.stuck_blocks,
        )?;
        for (w, evs) in self.last_events.iter().enumerate() {
            if evs.is_empty() {
                continue;
            }
            write!(f, "; w{w} tail [")?;
            for (i, e) in evs.iter().enumerate() {
                if i > 0 {
                    write!(f, " ")?;
                }
                if e.block == trace::NO_BLOCK {
                    write!(f, "{}@{:.3}s", e.kind.name(), e.t_end)?;
                } else {
                    write!(f, "{}({})@{:.3}s", e.kind.name(), e.block, e.t_end)?;
                }
            }
            write!(f, "]")?;
        }
        Ok(())
    }
}

impl Error {
    /// Builds a [`Error::WorkerPanicked`] from a caught panic payload
    /// (stringifying the common `&str` / `String` payloads).
    pub fn from_panic(block: Option<usize>, payload: &(dyn std::any::Any + Send)) -> Self {
        let payload = payload
            .downcast_ref::<&str>()
            .map(|s| s.to_string())
            .or_else(|| payload.downcast_ref::<String>().cloned())
            .unwrap_or_else(|| "non-string panic payload".to_string());
        Error::WorkerPanicked { block, payload }
    }
}

impl std::fmt::Display for Error {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            Error::NotPositiveDefinite { col } => {
                write!(f, "matrix is not positive definite at column {col}")
            }
            Error::WorkerPanicked { block: Some(b), payload } => {
                write!(f, "worker panicked in task for block {b}: {payload}")
            }
            Error::WorkerPanicked { block: None, payload } => {
                write!(f, "worker panicked outside task execution: {payload}")
            }
            Error::Stalled(report) => {
                if report.timeout.is_zero() {
                    write!(f, "scheduler reached quiescence with unfactored columns: {report}")
                } else {
                    write!(
                        f,
                        "scheduler made no progress for {:?}: {report}",
                        report.timeout
                    )
                }
            }
            Error::Cancelled { reason, progress } => match reason {
                cancel::CancelReason::Deadline => write!(
                    f,
                    "factorization deadline of {:?} expired: {progress}",
                    progress.timeout
                ),
                _ => write!(f, "factorization cancelled ({reason}): {progress}"),
            },
        }
    }
}

impl std::error::Error for Error {}
