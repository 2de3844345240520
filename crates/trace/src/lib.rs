//! Execution tracing and metrics for the fan-out executors.
//!
//! The paper's whole argument compares a *predicted* load-balance bound
//! (Section 3.2's overall/row/column/diagonal statistics, computed by the
//! `balance` crate) against *achieved* parallel efficiency. The executors'
//! end-of-run counters cannot say where the bound is lost — idle time,
//! steal overhead, or skewed block placement — so this crate records the
//! execution itself:
//!
//! * [`WorkerRing`] — a fixed-capacity, lock-free per-worker event ring.
//!   Each worker is the sole writer of its ring; readers (the trace
//!   collector after the run, the stall watchdog during it) only perform
//!   atomic loads, so recording is a handful of relaxed stores and never
//!   blocks. When the ring fills, the oldest events are overwritten (and
//!   counted in [`Trace::dropped`]).
//! * [`TraceEvent`] — one interval `(block, kind, t_start, t_end)` with
//!   [`TaskKind`] ∈ {`bfac`, `bdiv`, `bmod`, `steal`, `idle`, `recv`}.
//!   Timestamps are seconds relative to the run's epoch: wall-clock offsets
//!   for the real executors, *virtual* time for the simulated Paragon — the
//!   analysis and export layers never care which.
//! * [`Trace`] — the collected per-worker event lists, with busy/span/
//!   per-phase accounting and a Chrome/Perfetto `trace.json` exporter
//!   ([`Trace::to_perfetto_json`]); one track (`tid`) per worker.
//! * [`RunReport`] — the join of a [`Trace`] with a
//!   [`balance::BalanceReport`]: the predicted balance bound printed next
//!   to the achieved utilization `busy / (workers · span)`, with the
//!   breakdown of where the difference went.
//!
//! Tracing is opt-in via [`TraceOpts`]; a [`TraceOpts::off`] run performs
//! one branch per would-be event and allocates nothing.

mod json;
mod perfetto;
mod report;
mod ring;

pub use json::{json_str, validate_json};
pub use report::{phase_spans, PhaseSpan, PredictedBalance, RunReport};
pub use ring::{TraceBuf, WorkerRing};

/// `block` value of events that act on no particular block (idle periods).
pub const NO_BLOCK: u32 = u32::MAX;

/// What a traced interval was spent on.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
#[repr(u8)]
pub enum TaskKind {
    /// Diagonal-block factorization (`BFAC`); in the work-stealing
    /// scheduler this covers the whole column-completion task (`BFAC` plus
    /// the single whole-column `TRSM`).
    Bfac = 0,
    /// Off-diagonal triangular solve (`BDIV`).
    Bdiv = 1,
    /// One outer-product update (`BMOD`) into the event's block.
    Bmod = 2,
    /// A successful steal sweep (work-stealing scheduler only).
    Steal = 3,
    /// Parked or spinning with no runnable task.
    Idle = 4,
    /// Receiving a remote block (simulated Paragon: an instantaneous
    /// arrival marker).
    Recv = 5,
}

impl TaskKind {
    /// Number of kinds (for fixed-size per-phase accumulators).
    pub const COUNT: usize = 6;

    /// All kinds, in discriminant order.
    pub const ALL: [TaskKind; Self::COUNT] = [
        TaskKind::Bfac,
        TaskKind::Bdiv,
        TaskKind::Bmod,
        TaskKind::Steal,
        TaskKind::Idle,
        TaskKind::Recv,
    ];

    /// Lower-case display name (also the Perfetto event/category name).
    pub fn name(self) -> &'static str {
        match self {
            TaskKind::Bfac => "bfac",
            TaskKind::Bdiv => "bdiv",
            TaskKind::Bmod => "bmod",
            TaskKind::Steal => "steal",
            TaskKind::Idle => "idle",
            TaskKind::Recv => "recv",
        }
    }

    /// True for the kinds that perform factorization arithmetic — the
    /// numerator of achieved utilization. Steal/idle/recv are overhead.
    pub fn is_compute(self) -> bool {
        matches!(self, TaskKind::Bfac | TaskKind::Bdiv | TaskKind::Bmod)
    }

    pub(crate) fn from_u8(v: u8) -> TaskKind {
        match v {
            0 => TaskKind::Bfac,
            1 => TaskKind::Bdiv,
            2 => TaskKind::Bmod,
            3 => TaskKind::Steal,
            4 => TaskKind::Idle,
            _ => TaskKind::Recv,
        }
    }
}

/// One traced interval.
///
/// `block` identifies what the interval acted on in executor-defined terms:
/// the plan's flat block id for the plan-driven executors (scheduler,
/// simulated Paragon), the destination panel index for the
/// sequential reference (which has no plan), [`NO_BLOCK`] for idle periods.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct TraceEvent {
    /// Block (or panel) the event acted on; [`NO_BLOCK`] when inapplicable.
    pub block: u32,
    /// What the interval was spent on.
    pub kind: TaskKind,
    /// Start offset in seconds from the run epoch.
    pub t_start: f64,
    /// End offset in seconds from the run epoch (`≥ t_start`).
    pub t_end: f64,
}

impl TraceEvent {
    /// Interval length in seconds.
    pub fn duration_s(&self) -> f64 {
        (self.t_end - self.t_start).max(0.0)
    }
}

/// Default per-worker ring capacity: 64 Ki events ≈ 1.5 MiB per worker —
/// enough for every event of the bench problems, bounded for any run.
pub const DEFAULT_RING_CAPACITY: usize = 1 << 16;

/// Tracing configuration, embedded in each executor's option struct.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct TraceOpts {
    /// Record events. When false no ring is allocated and every tracing
    /// hook is a single branch on a `None`.
    pub enabled: bool,
    /// Per-worker ring capacity in events; oldest events are overwritten
    /// once exceeded (the overwrite count survives in [`Trace::dropped`]).
    pub ring_capacity: usize,
}

impl TraceOpts {
    /// Tracing disabled (the default; within noise of an untraced build).
    pub fn off() -> Self {
        Self { enabled: false, ring_capacity: DEFAULT_RING_CAPACITY }
    }

    /// Tracing enabled at the default ring capacity.
    pub fn on() -> Self {
        Self { enabled: true, ring_capacity: DEFAULT_RING_CAPACITY }
    }

    /// Tracing enabled with an explicit per-worker ring capacity.
    pub fn with_capacity(ring_capacity: usize) -> Self {
        Self { enabled: true, ring_capacity }
    }
}

impl Default for TraceOpts {
    fn default() -> Self {
        Self::off()
    }
}

/// One sampled counter value: a named scalar at a point in time. Exported
/// to Perfetto as a `"ph":"C"` counter track, so resilience metrics
/// (attempts, cancellations, perturbed pivots, deadline misses) render as
/// step charts alongside the worker timelines.
#[derive(Debug, Clone, PartialEq)]
pub struct CounterEvent {
    /// Counter track name (e.g. `"attempts"`).
    pub name: String,
    /// Sample offset in seconds from the run epoch.
    pub t_s: f64,
    /// Sampled value.
    pub value: f64,
}

/// A collected execution trace: per-worker event lists, each sorted by
/// start time, timestamps in seconds from the run epoch.
#[derive(Debug, Clone, Default, PartialEq)]
pub struct Trace {
    /// One event list per worker (one Perfetto track each).
    pub per_worker: Vec<Vec<TraceEvent>>,
    /// Events lost to ring overwrite (0 unless a ring filled up).
    pub dropped: u64,
    /// Sampled counter values (empty unless the producer pushed any).
    pub counters: Vec<CounterEvent>,
}

impl Trace {
    /// Wraps pre-built per-worker event lists (used by the single-threaded
    /// executors and the simulator, which need no concurrent ring). Each
    /// list is sorted by start time.
    pub fn from_events(mut per_worker: Vec<Vec<TraceEvent>>) -> Self {
        for evs in &mut per_worker {
            evs.sort_by(|a, b| a.t_start.total_cmp(&b.t_start));
        }
        Self { per_worker, dropped: 0, counters: Vec::new() }
    }

    /// Appends a counter sample (kept in push order; the exporter sorts).
    pub fn push_counter(&mut self, name: impl Into<String>, t_s: f64, value: f64) {
        self.counters.push(CounterEvent { name: name.into(), t_s, value });
    }

    /// Number of worker tracks.
    pub fn workers(&self) -> usize {
        self.per_worker.len()
    }

    /// Total recorded events.
    pub fn num_events(&self) -> usize {
        self.per_worker.iter().map(|w| w.len()).sum()
    }

    /// Earliest event start (0 when empty).
    pub fn start_s(&self) -> f64 {
        self.per_worker
            .iter()
            .flatten()
            .map(|e| e.t_start)
            .fold(f64::INFINITY, f64::min)
            .if_finite_or(0.0)
    }

    /// Latest event end (0 when empty).
    pub fn end_s(&self) -> f64 {
        self.per_worker
            .iter()
            .flatten()
            .map(|e| e.t_end)
            .fold(f64::NEG_INFINITY, f64::max)
            .if_finite_or(0.0)
    }

    /// `end_s − start_s`: the traced execution window.
    pub fn span_s(&self) -> f64 {
        (self.end_s() - self.start_s()).max(0.0)
    }

    /// Total seconds spent in compute kinds (`bfac` + `bdiv` + `bmod`).
    pub fn busy_s(&self) -> f64 {
        self.per_worker
            .iter()
            .flatten()
            .filter(|e| e.kind.is_compute())
            .map(|e| e.duration_s())
            .sum()
    }

    /// Per-worker compute seconds.
    pub fn busy_per_worker(&self) -> Vec<f64> {
        self.per_worker
            .iter()
            .map(|evs| {
                evs.iter()
                    .filter(|e| e.kind.is_compute())
                    .map(|e| e.duration_s())
                    .sum()
            })
            .collect()
    }

    /// Total seconds per kind, indexed by `TaskKind as usize`.
    pub fn phase_totals(&self) -> [f64; TaskKind::COUNT] {
        let mut out = [0.0; TaskKind::COUNT];
        for e in self.per_worker.iter().flatten() {
            out[e.kind as usize] += e.duration_s();
        }
        out
    }

    /// Achieved utilization: `busy / (workers · span)` — the measured
    /// counterpart of the predicted overall balance bound.
    pub fn utilization(&self) -> f64 {
        let span = self.span_s();
        if span <= 0.0 || self.per_worker.is_empty() {
            return 1.0;
        }
        self.busy_s() / (self.workers() as f64 * span)
    }
}

/// Extension used by the fold-based min/max above: finite value or default.
trait IfFiniteOr {
    fn if_finite_or(self, default: f64) -> f64;
}

impl IfFiniteOr for f64 {
    fn if_finite_or(self, default: f64) -> f64 {
        if self.is_finite() {
            self
        } else {
            default
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn ev(kind: TaskKind, block: u32, t0: f64, t1: f64) -> TraceEvent {
        TraceEvent { block, kind, t_start: t0, t_end: t1 }
    }

    #[test]
    fn accounting_over_two_workers() {
        let t = Trace::from_events(vec![
            vec![ev(TaskKind::Bmod, 1, 0.5, 1.0), ev(TaskKind::Bfac, 0, 0.0, 0.5)],
            vec![ev(TaskKind::Idle, NO_BLOCK, 0.0, 0.75), ev(TaskKind::Bmod, 2, 0.75, 1.25)],
        ]);
        // from_events sorts by start time.
        assert_eq!(t.per_worker[0][0].kind, TaskKind::Bfac);
        assert_eq!(t.workers(), 2);
        assert_eq!(t.num_events(), 4);
        assert!((t.start_s() - 0.0).abs() < 1e-12);
        assert!((t.end_s() - 1.25).abs() < 1e-12);
        assert!((t.span_s() - 1.25).abs() < 1e-12);
        assert!((t.busy_s() - 1.5).abs() < 1e-12);
        let busy = t.busy_per_worker();
        assert!((busy[0] - 1.0).abs() < 1e-12 && (busy[1] - 0.5).abs() < 1e-12);
        let phases = t.phase_totals();
        assert!((phases[TaskKind::Idle as usize] - 0.75).abs() < 1e-12);
        assert!((t.utilization() - 1.5 / 2.5).abs() < 1e-12);
    }

    #[test]
    fn empty_trace_is_benign() {
        let t = Trace::default();
        assert_eq!(t.span_s(), 0.0);
        assert_eq!(t.busy_s(), 0.0);
        assert_eq!(t.utilization(), 1.0);
        assert_eq!(t.num_events(), 0);
    }

    #[test]
    fn kind_roundtrip_and_names() {
        for k in TaskKind::ALL {
            assert_eq!(TaskKind::from_u8(k as u8), k);
            assert!(!k.name().is_empty());
        }
        assert!(TaskKind::Bmod.is_compute());
        assert!(!TaskKind::Idle.is_compute());
    }
}
