//! Repeated factor/solve sessions over a shared symbolic plan.
//!
//! A [`FactorSession`] owns everything a repeated numeric cycle needs —
//! block storage, kernel arena, solve workspaces — and reuses all of it
//! across calls; L is stored once, in blocks. After the first
//! [`refactor`](FactorSession::refactor)/[`resolve`](FactorSession::resolve)
//! pair the hot path performs **zero symbolic work and zero allocation**:
//! assembly is a zero-fill plus one write per input entry through the plan's
//! precomputed scatter map, factorization rebuilds nothing (the sequential
//! executor reuses the session arena; the scheduled executor runs the
//! cached task DAG), and solves run on the block factor itself
//! ([`fanout::solve_in_place`]) through reused permutation buffers.
//!
//! Both paths are bit-identical to the one-shot pipeline: `refactor`
//! produces exactly the factor of fresh permute + assemble + factorize on
//! the same values, and `resolve`/`resolve_many` produce exactly
//! [`Solver::solve`](crate::Solver::solve)'s bits: every lane of the block
//! solve performs exactly the operation sequence of the reference
//! substitution [`fanout::solve_csc`] that the one-shot path runs.

use crate::plan::{NumericTemplates, SymbolicPlan};
use crate::resilience::{ResilienceStats, RetryPolicy};
use crate::{PhaseTimings, Solver, SolverError};
use fanout::{CancelReason, NumericFactor, SchedOptions, SchedStats};
use std::sync::Arc;

/// Reusable buffers for the solve paths ([`Solver::solve_into`],
/// [`Solver::solve_refined`], and the session resolves). All fields grow to
/// their steady-state size on first use and are reused thereafter —
/// repeated solves allocate nothing.
#[derive(Debug, Default)]
pub struct SolveWorkspace {
    /// Factor CSC column pointers: [`Solver::solve_into`] exports the
    /// factor here for the reference substitution [`fanout::solve_csc`].
    pub(crate) cp: Vec<usize>,
    /// Factor CSC row indices.
    pub(crate) ri: Vec<u32>,
    /// Factor CSC values.
    pub(crate) v: Vec<f64>,
    /// Permuted right-hand side / in-place solution.
    pub(crate) pb: Vec<f64>,
    /// Iterative-refinement residual.
    pub(crate) resid: Vec<f64>,
    /// Iterative-refinement correction, then the iterate it was applied
    /// to (restored when the step made the residual grow).
    pub(crate) dx: Vec<f64>,
    /// Lane-interleaved multi-RHS buffer.
    pub(crate) lanes: Vec<f64>,
    /// The block solve's per-panel gather of the slab rows' values.
    pub(crate) gathered: Vec<f64>,
}

impl SolveWorkspace {
    /// An empty workspace; buffers are sized on first use.
    pub fn new() -> Self {
        Self::default()
    }
}

/// A reusable numeric factor/solve session over a shared [`SymbolicPlan`].
///
/// Created by [`Solver::session`] (sequential executor) or
/// [`Solver::session_sched`] (work-stealing scheduler on a cached task
/// DAG). Concurrent sessions over the same plan are independent: each owns
/// its storage and workspaces while sharing the immutable plan and
/// templates.
pub struct FactorSession {
    plan: Arc<SymbolicPlan>,
    templates: Arc<NumericTemplates>,
    /// The cached task DAG [`Self::refactor`] hands the work-stealing
    /// scheduler; `None` runs the sequential reference executor on the
    /// session-owned arena instead.
    exec: Option<Arc<fanout::Plan>>,
    /// The factor, the only copy of L: solves run on its blocks.
    factor: NumericFactor,
    arena: dense::KernelArena,
    ws: SolveWorkspace,
    factored: bool,
    /// True after a failed refactor attempt left the block storage in a
    /// partially-updated state; cleared by the next successful refactor,
    /// which rebuilds numeric state from the immutable plan.
    poisoned: bool,
    /// Retry policy [`Self::refactor`] applies on failed attempts.
    /// Defaults to [`RetryPolicy::default`]; set
    /// [`RetryPolicy::disabled`] for fail-fast semantics.
    pub retry: RetryPolicy,
    /// Run control of every [`Self::refactor`] attempt, and the one place it
    /// is set: per-attempt deadline (measured from executor entry),
    /// cancellation token (install one to cancel from another thread), and
    /// for scheduled sessions the worker count, stall watchdog, fault
    /// injection and tracing. What [`Solver::session_sched`] was given, or
    /// the defaults for [`Solver::session`], whose sequential executor reads
    /// `perturb_npd`, `deadline`, `cancel` and `trace` only
    /// ([`fanout::factorize_seq_opts`]). `perturb_npd` is what an attempt
    /// uses when [`Self::retry`] does not escalate it.
    pub opts: SchedOptions,
    resilience: ResilienceStats,
    /// Wall-clock of the latest `refactor` / `resolve` calls, on top of the
    /// plan's analyze timings (the `refactor_s`/`resolve_s` phases feed the
    /// Perfetto pipeline track).
    pub timings: PhaseTimings,
    /// Stats of the latest scheduled refactorization (`None` for sequential
    /// sessions or before the first refactor). When tracing was enabled,
    /// the trace additionally carries the session's [`ResilienceStats`] as
    /// counter tracks (one sample per successful refactor).
    pub sched_stats: Option<SchedStats>,
}

impl FactorSession {
    pub(crate) fn new(
        solver: &Solver,
        exec: Option<Arc<fanout::Plan>>,
        opts: SchedOptions,
    ) -> Self {
        let templates = solver.plan.numeric_templates();
        let factor = templates.assembly.alloc(solver.plan.bm.clone());
        Self {
            plan: solver.plan.clone(),
            templates,
            exec,
            factor,
            arena: dense::KernelArena::new(),
            ws: SolveWorkspace::new(),
            factored: false,
            poisoned: false,
            retry: RetryPolicy::default(),
            opts,
            resilience: ResilienceStats::default(),
            timings: solver.plan.timings,
            sched_stats: None,
        }
    }

    /// The shared symbolic plan this session runs on.
    pub fn plan(&self) -> &Arc<SymbolicPlan> {
        &self.plan
    }

    /// Matrix dimension.
    pub fn n(&self) -> usize {
        self.plan.n()
    }

    /// Number of input matrix entries a `refactor` expects.
    pub fn input_nnz(&self) -> usize {
        self.templates.targets.len()
    }

    /// True once a successful [`Self::refactor`] has run.
    pub fn is_factored(&self) -> bool {
        self.factored
    }

    /// True while the numeric state is dirty: the latest refactor attempt
    /// failed (panic, stall, pivot failure, cancellation, deadline) and
    /// left block storage partially updated. A poisoned session is safe to
    /// keep — the next [`Self::refactor`] rebuilds all numeric state from
    /// the immutable plan and, on success, is bit-identical to the same
    /// refactor on a fresh session.
    pub fn is_poisoned(&self) -> bool {
        self.poisoned
    }

    /// Cumulative robustness counters of this session (attempts, retries,
    /// contained panics, perturbed pivots, …).
    pub fn resilience(&self) -> &ResilienceStats {
        &self.resilience
    }

    /// The current numeric factor (most recent successful refactorization).
    pub fn factor(&self) -> &NumericFactor {
        &self.factor
    }

    /// Refactorizes with new numeric values on the fixed structure.
    ///
    /// `values` are the **original** (unpermuted) matrix's stored
    /// lower-triangle entries in column-major order — exactly
    /// [`sparsemat::SymCscMatrix::values`] of a matrix sharing the analyzed
    /// pattern. No symbolic work runs: the values scatter straight into the
    /// reused block storage through the plan's precomputed map, the
    /// executor factors in place, and the solves read the factored blocks
    /// directly. The factor is bit-identical to a fresh
    /// permute + assemble + factorize of the same values.
    ///
    /// Failed attempts are governed by [`Self::retry`]: contained worker
    /// panics and scheduler stalls retry after a deterministic backoff,
    /// non-positive-definite pivots retry with escalating perturbation
    /// (`ε`, `10ε`, …), and cancellation / an expired deadline
    /// ([`Self::opts`]) returns immediately. Every attempt re-scatters the
    /// input through the plan's immutable map first, so a session whose
    /// previous refactor failed ([`Self::is_poisoned`]) recovers
    /// automatically — its next successful refactor is bit-identical to a
    /// fresh session's.
    pub fn refactor(&mut self, values: &[f64]) -> Result<(), SolverError> {
        assert_eq!(
            values.len(),
            self.templates.targets.len(),
            "value count != analyzed pattern nnz"
        );
        let t0 = std::time::Instant::now();
        if self.poisoned {
            self.resilience.recoveries += 1;
        }
        let max_attempts = self.retry.max_attempts.max(1);
        let mut attempt = 0u32;
        loop {
            self.resilience.attempts += 1;
            // Zero-fill + scatter rebuilds the numeric state from the
            // immutable plan on every attempt — this is also the recovery
            // path after a failed attempt left the storage partially
            // updated.
            for buf in &mut self.factor.data {
                buf.iter_mut().for_each(|x| *x = 0.0);
            }
            for (&(p, at), &v) in self.templates.targets.iter().zip(values) {
                self.factor.data[p as usize][at] = v;
            }
            self.factored = false;
            let opts = SchedOptions {
                perturb_npd: self.retry.perturb_for(attempt).or(self.opts.perturb_npd),
                ..self.opts.clone()
            };
            let perturbed = match &self.exec {
                None => fanout::factorize_seq_opts(&mut self.factor, &opts, &mut self.arena)
                    .map(|stats| stats.perturbed_pivots.len() as u64),
                Some(plan) => {
                    fanout::factorize_sched_opts(&mut self.factor, plan, &opts).map(|stats| {
                        let perturbed = stats.pivot_perturbations;
                        self.sched_stats = Some(stats);
                        perturbed
                    })
                }
            };
            match perturbed {
                Ok(perturbed) => {
                    self.resilience.perturbed_pivots += perturbed;
                    self.factored = true;
                    self.poisoned = false;
                    self.timings.refactor_s = t0.elapsed().as_secs_f64();
                    self.export_resilience_counters();
                    return Ok(());
                }
                Err(e) => {
                    self.poisoned = true;
                    attempt += 1;
                    let retryable = match &e {
                        fanout::Error::Cancelled { reason, .. } => {
                            self.resilience.cancellations += 1;
                            if *reason == CancelReason::Deadline {
                                self.resilience.deadline_misses += 1;
                            }
                            false
                        }
                        fanout::Error::NotPositiveDefinite { .. } => {
                            self.retry.npd_perturb.is_some()
                        }
                        fanout::Error::WorkerPanicked { .. } => {
                            self.resilience.panics_contained += 1;
                            true
                        }
                        fanout::Error::Stalled(_) => {
                            self.resilience.stalls += 1;
                            true
                        }
                    };
                    if !retryable || attempt >= max_attempts {
                        self.timings.refactor_s = t0.elapsed().as_secs_f64();
                        return Err(e.into());
                    }
                    self.resilience.retries += 1;
                    let delay = self.retry.delay_before(attempt);
                    if !delay.is_zero() {
                        std::thread::sleep(delay);
                    }
                }
            }
        }
    }

    /// Stamps the session's [`ResilienceStats`] onto the latest scheduled
    /// trace as counter tracks (no-op for untraced or sequential runs).
    fn export_resilience_counters(&mut self) {
        let Some(trace) = self.sched_stats.as_mut().and_then(|s| s.trace.as_mut()) else {
            return;
        };
        let t = trace.end_s();
        for (name, value) in self.resilience.counters() {
            trace.push_counter(name, t, value as f64);
        }
    }

    /// Solves `A·x = b` with the session factor, handling the fill
    /// permutation on both sides. Bit-identical to
    /// [`Solver::solve`](crate::Solver::solve) with a fresh factor of the
    /// same values.
    pub fn resolve(&mut self, b: &[f64]) -> Vec<f64> {
        let mut x = vec![0.0; self.n()];
        self.resolve_into(b, &mut x);
        x
    }

    /// [`Self::resolve`] that reports an unusable session instead of
    /// panicking: [`SolverError::NotFactored`] when no refactor succeeded
    /// yet or the latest one failed ([`Self::is_poisoned`]). The service
    /// entry point — a caller juggling many sessions under cancellation
    /// and deadlines should not die on one that is mid-recovery.
    pub fn try_resolve(&mut self, b: &[f64]) -> Result<Vec<f64>, SolverError> {
        if !self.factored || self.poisoned {
            return Err(SolverError::NotFactored);
        }
        Ok(self.resolve(b))
    }

    /// [`Self::resolve`] into a caller-provided buffer — the fully
    /// allocation-free repeated-solve path.
    pub fn resolve_into(&mut self, b: &[f64], out: &mut [f64]) {
        assert!(self.factored, "refactor before resolve");
        let t0 = std::time::Instant::now();
        let n = self.n();
        let perm = &self.plan.analysis.perm;
        self.ws.pb.resize(n, 0.0);
        perm.apply_to_vec_into(b, &mut self.ws.pb);
        fanout::solve_in_place(&self.factor, &mut self.ws.pb, 1, &mut self.ws.gathered);
        perm.apply_inverse_to_vec_into(&self.ws.pb, out);
        self.timings.resolve_s = t0.elapsed().as_secs_f64();
    }

    /// Solves `A·xᵣ = bᵣ` for a batch of right-hand sides, streaming the
    /// factor **once** for the whole batch (lane-interleaved block solve).
    /// Each returned solution is bit-identical to [`Self::resolve`] on the
    /// same right-hand side.
    pub fn resolve_many(&mut self, bs: &[&[f64]]) -> Vec<Vec<f64>> {
        assert!(self.factored, "refactor before resolve");
        let t0 = std::time::Instant::now();
        let n = self.n();
        let k = bs.len();
        if k == 0 {
            return Vec::new();
        }
        let perm = &self.plan.analysis.perm;
        self.ws.lanes.resize(n * k, 0.0);
        for (r, lane) in bs.iter().enumerate() {
            assert_eq!(lane.len(), n);
            for (i, &v) in lane.iter().enumerate() {
                self.ws.lanes[perm.new_of_old(i) * k + r] = v;
            }
        }
        fanout::solve_in_place(&self.factor, &mut self.ws.lanes, k, &mut self.ws.gathered);
        let out = (0..k)
            .map(|r| {
                (0..n)
                    .map(|i| self.ws.lanes[perm.new_of_old(i) * k + r])
                    .collect()
            })
            .collect();
        self.timings.resolve_s = t0.elapsed().as_secs_f64();
        out
    }

    /// Relative residual of the session factor against a matrix (normally
    /// the permuted input the latest values came from).
    pub fn residual(&self, permuted: &sparsemat::SymCscMatrix) -> f64 {
        fanout::residual_norm(permuted, &self.factor)
    }
}
