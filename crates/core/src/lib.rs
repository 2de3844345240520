//! High-level API for block-oriented parallel sparse Cholesky factorization
//! with heuristic load-balanced block mappings — the system of Rothberg &
//! Schreiber, *Improved Load Distribution in Parallel Sparse Cholesky
//! Factorization* (Supercomputing '94).
//!
//! The pipeline:
//!
//! 1. **Order** — fill-reducing permutation (nested dissection for geometric
//!    problems, minimum degree otherwise).
//! 2. **Analyze** — elimination tree, supernodes (with relaxed
//!    amalgamation), 2-D block structure at block size `B`, and the
//!    per-block work model. The result is an immutable, shareable
//!    [`SymbolicPlan`].
//! 3. **Map** — assign blocks to a `Pr × Pc` processor grid: domains at the
//!    bottom of the tree, and a Cartesian-product map of the root portion
//!    (cyclic or any of the paper's remapping heuristics).
//! 4. **Factor** — sequentially, on work-stealing worker threads, or in
//!    virtual time on the simulated Paragon for performance studies.
//! 5. **Solve** — triangular solves with the assembled factor.
//!
//! ```
//! use cholesky_core::{SchedOptions, Solver, SolverOptions};
//! use mapping::{ColPolicy, Heuristic, RowPolicy};
//!
//! let problem = sparsemat::gen::grid2d(12);
//! let solver = Solver::analyze_problem(&problem, &SolverOptions::default());
//! // Factor a 4-processor plan with the paper's best mapping.
//! let asg = solver.assign(4, RowPolicy::Heuristic(Heuristic::IncreasingDepth),
//!                         ColPolicy::Heuristic(Heuristic::Cyclic));
//! let (factor, _stats) = solver.factor_sched(&asg, &SchedOptions::default()).unwrap();
//! let b = vec![1.0; problem.n()];
//! let x = solver.solve(&factor, &b);
//! let report = solver.balance(&asg);
//! assert!(report.overall > 0.1);
//! # let _ = x;
//! ```
//!
//! # Reuse: plans, sessions, and the plan cache
//!
//! Analysis is the expensive half of the pipeline, and it depends only on
//! the sparsity *structure*. A [`Solver`] therefore splits into an
//! `Arc<`[`SymbolicPlan`]`>` (everything structural, immutable, `Sync`) plus
//! the permuted input values; the solver [`Deref`](std::ops::Deref)s to its
//! plan, so all structure-only methods remain available on it. For repeated
//! numeric work, open a [`FactorSession`]: its
//! [`refactor`](FactorSession::refactor)/[`resolve`](FactorSession::resolve)
//! hot path performs no symbolic work and, after warmup, no allocation —
//! and its results are bit-identical to the one-shot pipeline.
//!
//! ```
//! use cholesky_core::{PlanCache, SolverOptions};
//!
//! let p = sparsemat::gen::grid2d(10);
//! let cache = PlanCache::new();
//! let solver = cache.solver_for_problem(&p, &SolverOptions::default());
//! let mut session = solver.session();
//! session.refactor(p.matrix.values()).unwrap();
//! let x = session.resolve(&vec![1.0; p.n()]);
//! // Same structure, new values: the second analyze is a cache hit.
//! let again = cache.solver_for_problem(&p, &SolverOptions::default());
//! assert_eq!(cache.hits(), 1);
//! # let _ = (x, again);
//! ```

use std::sync::Arc;

pub mod cache;
pub mod plan;
pub mod resilience;
pub mod session;

pub use balance::{BalanceReport, CommStats};
pub use blockmat::{BlockMatrix, BlockPolicy, BlockWork, WorkModel};
pub use cache::PlanCache;
pub use fanout::{
    CancelReason, CancelToken, CriticalPath, FaultPlan, NumericFactor, Plan, SchedOptions,
    SchedStats, SimOutcome, SimPolicy, StallReport,
};
pub use mapping::{
    Assignment, ColPolicy, DomainParams, DomainPlan, Heuristic, ProcGrid, RowPolicy,
};
pub use plan::{NumericTemplates, SymbolicPlan};
pub use resilience::{ResilienceStats, ResourceBudget, ResourceEstimate, RetryPolicy};
pub use session::{FactorSession, SolveWorkspace};
pub use simgrid::MachineModel;
pub use sparsemat::{Permutation, Problem, SymCscMatrix};
pub use symbolic::{AmalgamationOpts, Analysis, FactorStats};
pub use trace::{PhaseSpan, PredictedBalance, RunReport, TaskKind, Trace, TraceEvent, TraceOpts};

/// Pipeline-wide error: everything the matrix front end (construction,
/// file parsing) or the numeric back end (pivot failure, contained worker
/// panic, stall) can fail with, converted at the crate boundary via `From`
/// so `?` composes across layers.
#[derive(Debug, Clone, PartialEq)]
pub enum SolverError {
    /// Matrix construction or file parsing failed (see
    /// [`sparsemat::Error`], including line-annotated
    /// [`Parse`](sparsemat::Error::Parse) errors from the readers).
    Matrix(sparsemat::Error),
    /// Numeric factorization failed (see [`fanout::Error`]: pivot failure,
    /// contained worker panic, scheduler stall, or cooperative
    /// cancellation / deadline expiry).
    Factor(fanout::Error),
    /// Admission control rejected the request: the factorization's
    /// symbolic cost estimate exceeds the configured
    /// [`ResourceBudget`] (see [`SolverOptions::budget`],
    /// [`PlanCache::try_solver_for`], [`Solver::try_session`]). The plan
    /// itself was still analyzed and cached — only numeric admission was
    /// refused.
    BudgetExceeded {
        /// The symbolic cost of the rejected factorization.
        estimate: ResourceEstimate,
        /// The budget it failed to fit under.
        budget: ResourceBudget,
    },
    /// A solve was requested on a session holding no valid factor: either
    /// no [`FactorSession::refactor`] succeeded yet, or the latest one
    /// failed and poisoned the numeric state (see
    /// [`FactorSession::is_poisoned`]).
    NotFactored,
}

impl std::fmt::Display for SolverError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            SolverError::Matrix(e) => write!(f, "matrix error: {e}"),
            SolverError::Factor(e) => write!(f, "factorization error: {e}"),
            SolverError::BudgetExceeded { estimate, budget } => write!(
                f,
                "admission rejected: estimated {estimate} exceeds budget \
                 (max {:?} bytes, {:?} flops)",
                budget.max_factor_bytes, budget.max_flops
            ),
            SolverError::NotFactored => {
                write!(f, "session holds no valid factor (refactor first)")
            }
        }
    }
}

impl std::error::Error for SolverError {
    fn source(&self) -> Option<&(dyn std::error::Error + 'static)> {
        match self {
            SolverError::Matrix(e) => Some(e),
            SolverError::Factor(e) => Some(e),
            SolverError::BudgetExceeded { .. } | SolverError::NotFactored => None,
        }
    }
}

impl From<sparsemat::Error> for SolverError {
    fn from(e: sparsemat::Error) -> Self {
        SolverError::Matrix(e)
    }
}

impl From<fanout::Error> for SolverError {
    fn from(e: fanout::Error) -> Self {
        SolverError::Factor(e)
    }
}

/// Ordering selection.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum OrderingChoice {
    /// Resolve per matrix from the pattern structure alone, via
    /// [`ordering::probe_structure`]: a trial bisection of the compressed
    /// graph (separator weight, balance, growth exponent) is scored against
    /// an exact minimum-degree fill sample, and the cheaper projected
    /// factorization wins — [`NestedDissection`](Self::NestedDissection) or
    /// [`MinimumDegree`](Self::MinimumDegree). Deterministic: the same
    /// pattern always resolves to the same choice, recorded on the plan as
    /// [`SymbolicPlan::resolved_ordering`].
    Auto,
    /// Keep the natural order.
    Natural,
    /// Force minimum degree.
    MinimumDegree,
    /// Force nested dissection: geometric when the problem carries
    /// coordinates, graph-based ([`ordering::nd_graph()`]) otherwise. Produces
    /// a separator tree, which enables subtree-parallel symbolic analysis
    /// and proportional mapping.
    NestedDissection,
}

/// Options of the analyze/assembly front half: amalgamation plus the thread
/// count used for parallel block-structure construction and matrix assembly.
#[derive(Debug, Clone, Copy, Default)]
pub struct AnalyzeOpts {
    /// Supernode amalgamation rules.
    pub amalg: AmalgamationOpts,
    /// Threads for block-structure construction and assembly; `None` =
    /// available parallelism.
    pub workers: Option<usize>,
}

impl AnalyzeOpts {
    /// The concrete thread count this configuration resolves to.
    pub fn resolved_workers(&self) -> usize {
        self.workers
            .unwrap_or_else(|| std::thread::available_parallelism().map(|n| n.get()).unwrap_or(1))
            .max(1)
    }
}

/// Options for analysis.
#[derive(Debug, Clone, Copy)]
pub struct SolverOptions {
    /// Block size `B` (the paper uses 48 throughout).
    pub block_size: usize,
    /// How panel boundaries are chosen within supernodes: uniform `B`, or
    /// the structure-aware work-equalized / rectilinear-refined irregular
    /// boundaries (DESIGN.md §17). Irregular policies may produce panels
    /// up to `2·B` wide. A [`PlanCache`] discriminant, like ordering.
    pub block_policy: BlockPolicy,
    /// Analyze/assembly options (amalgamation, front-half thread count).
    pub analyze: AnalyzeOpts,
    /// Ordering selection.
    pub ordering: OrderingChoice,
    /// Work model (the paper's 1000-op fixed cost).
    pub work_model: WorkModel,
    /// Domain selection; `None` disables domains (pure 2-D mapping).
    pub domains: Option<DomainParams>,
    /// Default row mapping policy, used by [`SymbolicPlan::assign_default`].
    pub row_policy: RowPolicy,
    /// Default column mapping policy, used by
    /// [`SymbolicPlan::assign_default`].
    pub col_policy: ColPolicy,
    /// Admission-control budget consulted by the fallible entry points
    /// ([`PlanCache::try_solver_for`], [`Solver::try_session`]); the
    /// infallible ones ignore it. Excluded from [`PlanCache`] keys — it
    /// gates numeric admission, never what analysis produces.
    pub budget: Option<ResourceBudget>,
}

impl Default for SolverOptions {
    fn default() -> Self {
        Self {
            block_size: 48,
            block_policy: BlockPolicy::Uniform,
            analyze: AnalyzeOpts::default(),
            ordering: OrderingChoice::Auto,
            work_model: WorkModel::default(),
            domains: Some(DomainParams::default()),
            // The paper's recommended mapping (Table 7).
            row_policy: RowPolicy::Heuristic(Heuristic::IncreasingDepth),
            col_policy: ColPolicy::Heuristic(Heuristic::Cyclic),
            budget: None,
        }
    }
}

/// Wall-clock seconds of every pipeline phase, in execution order. The
/// analyze phases are filled in by [`Solver::analyze_problem`] /
/// [`Solver::analyze`]; `assemble`/`factor`/`solve` stay 0 until a run
/// measures them (e.g. [`Solver::factor_sched_report`] fills assemble and
/// factor), and `refactor`/`resolve` are filled by [`FactorSession`]s,
/// which reuse the plan instead of re-running the front half.
#[derive(Debug, Clone, Copy, Default, PartialEq)]
pub struct PhaseTimings {
    /// Resolving [`OrderingChoice::Auto`]: adjacency-graph build plus the
    /// structure probe. 0 for explicit choices (the graph build is then
    /// part of `order_s`) and when a [`PlanCache`] remembered the
    /// resolution.
    pub probe_s: f64,
    /// Fill-reducing ordering alone.
    pub order_s: f64,
    /// Permute + elimination tree + postorder.
    pub etree_s: f64,
    /// Factor column counts.
    pub colcount_s: f64,
    /// Supernode detection, structure, amalgamation.
    pub supernodes_s: f64,
    /// Panel partition + 2-D block structure + work model.
    pub partition_s: f64,
    /// Scatter of `A` into block storage.
    pub assemble_s: f64,
    /// Numeric factorization.
    pub factor_s: f64,
    /// Triangular solves.
    pub solve_s: f64,
    /// Numeric refactorization on a reused plan
    /// ([`FactorSession::refactor`]: scatter + factor, no symbolic work).
    pub refactor_s: f64,
    /// Repeated triangular solve on a reused plan
    /// ([`FactorSession::resolve`] / [`FactorSession::resolve_many`]).
    pub resolve_s: f64,
}

impl PhaseTimings {
    /// The phases as consecutive [`PhaseSpan`]s on a clock starting at 0.
    pub fn spans(&self) -> Vec<PhaseSpan> {
        trace::phase_spans(&[
            ("probe", self.probe_s),
            ("order", self.order_s),
            ("etree", self.etree_s),
            ("colcount", self.colcount_s),
            ("supernodes", self.supernodes_s),
            ("partition", self.partition_s),
            ("assemble", self.assemble_s),
            ("factor", self.factor_s),
            ("solve", self.solve_s),
            ("refactor", self.refactor_s),
            ("resolve", self.resolve_s),
        ])
    }

    /// Seconds of the analyze front half (probe through partition).
    pub fn analyze_s(&self) -> f64 {
        self.probe_s
            + self.order_s
            + self.etree_s
            + self.colcount_s
            + self.supernodes_s
            + self.partition_s
    }

    /// Seconds of every phase combined.
    pub fn total_s(&self) -> f64 {
        self.analyze_s()
            + self.assemble_s
            + self.factor_s
            + self.solve_s
            + self.refactor_s
            + self.resolve_s
    }
}

/// An analyzed sparse SPD system, ready to be mapped and factored: an
/// immutable shared [`SymbolicPlan`] plus the permuted input matrix.
///
/// The solver [`Deref`](std::ops::Deref)s to its plan, so every
/// structure-only method ([`SymbolicPlan::assign`],
/// [`SymbolicPlan::balance`], [`SymbolicPlan::simulate`], …) and field
/// (`analysis`, `bm`, `work`, `opts`, `timings`) is available directly on
/// the solver. Methods defined here are the ones that need the numeric
/// values.
pub struct Solver {
    /// The shared symbolic plan (ordering, supernodes, block structure,
    /// work model, cached reuse templates).
    pub plan: Arc<SymbolicPlan>,
    /// The permuted input matrix.
    pub permuted: SymCscMatrix,
}

impl std::ops::Deref for Solver {
    type Target = SymbolicPlan;
    fn deref(&self) -> &SymbolicPlan {
        &self.plan
    }
}

/// Resolves an [`OrderingChoice`] against a concrete pattern: `Auto` runs
/// the structure probe ([`ordering::probe_structure`]) and returns the
/// winner ([`OrderingChoice::NestedDissection`] or
/// [`OrderingChoice::MinimumDegree`]); explicit choices pass through
/// unchanged. Deterministic in the pattern alone — coordinates, problem
/// names, and generator hints are never consulted.
pub fn resolve_ordering(
    pattern: &sparsemat::SparsityPattern,
    choice: OrderingChoice,
) -> OrderingChoice {
    Resolution::of(pattern, choice).choice
}

/// A resolved ordering choice together with what resolving it built. `Auto`
/// needs the adjacency graph and its supervariable quotient for the probe;
/// the ordering that follows needs the same two, so they travel with the
/// resolution (inside the [`ordering::Orderer`]) instead of being dropped
/// and rebuilt.
pub(crate) struct Resolution {
    /// Never `Auto`.
    pub(crate) choice: OrderingChoice,
    /// Seconds spent resolving (graph build + probe); 0 when nothing ran.
    probe_s: f64,
    orderer: Option<ordering::Orderer<'static>>,
}

impl Resolution {
    /// Resolves `choice` for `pattern`, probing only when it is `Auto`.
    pub(crate) fn of(pattern: &sparsemat::SparsityPattern, choice: OrderingChoice) -> Self {
        if choice != OrderingChoice::Auto {
            return Self::known(choice);
        }
        let t0 = std::time::Instant::now();
        let mut orderer = ordering::Orderer::from_pattern(pattern);
        let choice = match orderer.probe().choice {
            ordering::ProbeChoice::NestedDissection => OrderingChoice::NestedDissection,
            ordering::ProbeChoice::MinimumDegree => OrderingChoice::MinimumDegree,
        };
        Self { choice, probe_s: t0.elapsed().as_secs_f64(), orderer: Some(orderer) }
    }

    /// A resolution that needed no work: an explicit choice, or an `Auto`
    /// answer remembered from an earlier probe of the same structure.
    pub(crate) fn known(choice: OrderingChoice) -> Self {
        debug_assert_ne!(choice, OrderingChoice::Auto);
        Self { choice, probe_s: 0.0, orderer: None }
    }

    /// Runs the resolved ordering on `pattern`, reusing the probe's graph,
    /// quotient and workspace when there was a probe. Returns the
    /// permutation, the separator tree when dissection ran, and the seconds
    /// this took.
    fn order(
        self,
        pattern: &sparsemat::SparsityPattern,
    ) -> (Permutation, Option<ordering::SeparatorTree>, f64) {
        let t0 = std::time::Instant::now();
        let orderer = || self.orderer.unwrap_or_else(|| ordering::Orderer::from_pattern(pattern));
        let (perm, tree) = match self.choice {
            OrderingChoice::Auto => unreachable!("Auto is resolved before dispatch"),
            OrderingChoice::Natural => (Permutation::identity(pattern.n()), None),
            OrderingChoice::MinimumDegree => (orderer().minimum_degree(), None),
            // Always the multilevel graph dissection, even when a problem
            // carries coordinates: it beats the geometric cut on every
            // suite structure (1.7–3.9× fewer modeled flops), and it is the
            // ordering the Auto probe's estimate models. The geometric code
            // remains reachable through the `ordering` crate and
            // [`Solver::analyze_problem_paper`].
            OrderingChoice::NestedDissection => {
                let (perm, tree) = orderer().nd_graph(&ordering::NdGraphOptions::default());
                (perm, Some(tree))
            }
        };
        (perm, tree, t0.elapsed().as_secs_f64())
    }
}

impl Solver {
    /// Orders and analyzes a benchmark [`Problem`]. `Auto` resolves through
    /// the structure probe on the pattern alone ([`resolve_ordering`]);
    /// the factors are bit-identical to analyzing with the resolved choice
    /// made explicitly. `NestedDissection` always means the multilevel
    /// graph dissection ([`ordering::nd_graph()`]) and produces a separator
    /// tree, whose independent
    /// subtrees drive the subtree-parallel symbolic analysis
    /// ([`symbolic::analyze_parallel_timed`]) when more than one analyze
    /// worker is configured. Only the matrix is consulted: this is
    /// [`Self::analyze`] on `p.matrix`.
    pub fn analyze_problem(p: &Problem, opts: &SolverOptions) -> Self {
        Self::analyze(&p.matrix, opts)
    }

    /// Orders and analyzes a benchmark [`Problem`] with the *paper's*
    /// ordering regime instead of the probe: the generator's hint decides
    /// (geometric nested dissection on grid/cube problems with
    /// coordinates, minimum degree on irregular meshes, natural on dense),
    /// exactly as [`ordering::order_problem_with_tree`] encodes it. The
    /// reproduction harness (`repro`, EXPERIMENTS.md) uses this so its
    /// tables stay comparable to the published numbers even as the
    /// production default ([`OrderingChoice::Auto`]) improves.
    /// `resolved_ordering` records the hint's ordering family;
    /// `opts.ordering` is ignored.
    pub fn analyze_problem_paper(p: &Problem, opts: &SolverOptions) -> Self {
        let t0 = std::time::Instant::now();
        let (perm, tree) = ordering::order_problem_with_tree(p);
        let resolved = match p.ordering {
            sparsemat::gen::OrderingHint::Natural => OrderingChoice::Natural,
            sparsemat::gen::OrderingHint::MinimumDegree => OrderingChoice::MinimumDegree,
            sparsemat::gen::OrderingHint::NestedDissection => OrderingChoice::NestedDissection,
        };
        let order_s = t0.elapsed().as_secs_f64();
        Self::with_permutation_timed(&p.matrix, &perm, tree.as_ref(), opts, 0.0, order_s, resolved)
    }

    /// Analyzes a raw matrix with [`OrderingChoice`] applied directly.
    /// `Auto` resolves per pattern via the structure probe
    /// ([`resolve_ordering`]) — nested dissection when the trial bisection
    /// scores below the minimum-degree fill sample, minimum degree
    /// otherwise; `NestedDissection` uses the coordinate-free graph
    /// dissection ([`ordering::nd_graph()`]).
    pub fn analyze(a: &SymCscMatrix, opts: &SolverOptions) -> Self {
        Self::analyze_resolved(a, opts, Resolution::of(a.pattern(), opts.ordering))
    }

    /// [`Self::analyze`] with the `Auto` resolution already done (the
    /// [`PlanCache`] miss path, which resolves once for its key).
    pub(crate) fn analyze_resolved(
        a: &SymCscMatrix,
        opts: &SolverOptions,
        resolution: Resolution,
    ) -> Self {
        let (resolved, probe_s) = (resolution.choice, resolution.probe_s);
        let (perm, tree, order_s) = resolution.order(a.pattern());
        Self::with_permutation_timed(a, &perm, tree.as_ref(), opts, probe_s, order_s, resolved)
    }

    /// Analyzes with a caller-provided fill-reducing permutation (ordering
    /// time is not observable here, so `timings.order_s` stays 0). No
    /// ordering runs, so the plan's
    /// [`resolved_ordering`](SymbolicPlan::resolved_ordering) records the
    /// caller's option verbatim — including `Auto`.
    pub fn analyze_with_permutation(
        a: &SymCscMatrix,
        fill_perm: &Permutation,
        opts: &SolverOptions,
    ) -> Self {
        Self::with_permutation_timed(a, fill_perm, None, opts, 0.0, 0.0, opts.ordering)
    }

    fn with_permutation_timed(
        a: &SymCscMatrix,
        fill_perm: &Permutation,
        tree: Option<&ordering::SeparatorTree>,
        opts: &SolverOptions,
        probe_s: f64,
        order_s: f64,
        resolved: OrderingChoice,
    ) -> Self {
        let workers = opts.analyze.resolved_workers();
        let (analysis, sym_t, sub_spans) = if workers > 1 {
            // Separator-subtree ranges parallelize the etree stage; the
            // later stages re-derive ranges from the etree itself, so this
            // path helps even without a tree. Bit-identical to the
            // sequential pipeline either way.
            let ranges = tree.map(|t| t.parallel_ranges(4 * workers)).unwrap_or_default();
            symbolic::analyze_parallel_timed(
                a.pattern(),
                fill_perm,
                &opts.analyze.amalg,
                &ranges,
                workers,
            )
        } else {
            let (an, t) = symbolic::analyze_timed(a.pattern(), fill_perm, &opts.analyze.amalg);
            (an, t, Vec::new())
        };
        // Subtree spans onto the pipeline clock: analysis starts when
        // ordering ends.
        let analyze_spans: Vec<PhaseSpan> = sub_spans
            .into_iter()
            .map(|s| PhaseSpan {
                name: s.name,
                start_s: probe_s + order_s + s.start_s,
                end_s: probe_s + order_s + s.end_s,
            })
            .collect();
        let permuted = analysis.perm.apply_to_matrix(a);
        let t0 = std::time::Instant::now();
        let partition = opts.block_policy.build_partition(
            &analysis.supernodes,
            opts.block_size,
            &opts.work_model,
        );
        let bm = Arc::new(BlockMatrix::from_partition_parallel(
            analysis.supernodes.clone(),
            partition,
            workers,
        ));
        let work = BlockWork::compute(&bm, &opts.work_model);
        let timings = PhaseTimings {
            probe_s,
            order_s,
            etree_s: sym_t.etree_s,
            colcount_s: sym_t.colcount_s,
            supernodes_s: sym_t.supernodes_s,
            partition_s: t0.elapsed().as_secs_f64(),
            ..PhaseTimings::default()
        };
        Self {
            plan: Arc::new(SymbolicPlan::new(
                analysis,
                bm,
                work,
                *opts,
                resolved,
                timings,
                analyze_spans,
            )),
            permuted,
        }
    }

    /// Binds an existing plan to a (new) matrix sharing the analyzed
    /// structure, skipping analysis entirely. This is the
    /// [`PlanCache`] hit path. The matrix must have exactly the sparsity
    /// pattern the plan was analyzed from; downstream assembly panics on a
    /// structural mismatch.
    pub fn from_plan(plan: Arc<SymbolicPlan>, a: &SymCscMatrix) -> Self {
        assert_eq!(a.n(), plan.n(), "matrix dimension != plan dimension");
        let permuted = plan.analysis.perm.apply_to_matrix(a);
        Self { plan, permuted }
    }

    /// Reads a Matrix Market stream and analyzes it in one step; parse and
    /// validation failures surface as [`SolverError::Matrix`] so callers
    /// can `?` straight through to factorization.
    pub fn analyze_matrix_market<R: std::io::BufRead>(
        reader: R,
        opts: &SolverOptions,
    ) -> Result<Self, SolverError> {
        let a = sparsemat::io::read_matrix_market(reader)?;
        Ok(Self::analyze(&a, opts))
    }

    /// Opens a repeated factor/solve session on this solver's plan, using
    /// the sequential reference executor. The session's
    /// [`refactor`](FactorSession::refactor) is bit-identical to a fresh
    /// analyze + assemble + [`Self::factor_seq`].
    pub fn session(&self) -> FactorSession {
        FactorSession::new(self, None, SchedOptions::default())
    }

    /// [`Self::session`] behind admission control: rejects with
    /// [`SolverError::BudgetExceeded`] when the plan's
    /// [`resource_estimate`](SymbolicPlan::resource_estimate) exceeds the
    /// configured [`SolverOptions::budget`], *before* the session's block
    /// storage is allocated.
    pub fn try_session(&self) -> Result<FactorSession, SolverError> {
        self.plan.check_budget()?;
        Ok(self.session())
    }

    /// Opens a repeated factor/solve session running the work-stealing
    /// scheduler on the assignment's cached task DAG under `opts`, which
    /// become the session's [`FactorSession::opts`].
    pub fn session_sched(&self, asg: &Assignment, opts: &SchedOptions) -> FactorSession {
        FactorSession::new(self, Some(self.plan.exec_templates(asg)), opts.clone())
    }

    /// Scatters the permuted input into fresh block storage, using the
    /// analyze thread count ([`AnalyzeOpts::workers`]) and the merge-walk
    /// parallel assembly path. Every factor entry point starts from this.
    pub fn assemble(&self) -> NumericFactor {
        NumericFactor::from_matrix_parallel(
            self.bm.clone(),
            &self.permuted,
            self.opts.analyze.resolved_workers(),
        )
    }

    /// Sequential numeric factorization — the bit reference.
    pub fn factor_seq(&self) -> Result<NumericFactor, fanout::Error> {
        let mut f = self.assemble();
        fanout::factorize_seq(&mut f)?;
        Ok(f)
    }

    /// Parallel numeric factorization: the assignment's virtual-processor
    /// plan on work-stealing worker threads, bit-identical to
    /// [`Self::factor_seq`]. `opts` is the whole run contract — worker
    /// count, stall watchdog, deadline, cancellation token, deterministic
    /// fault injection, NPD pivot perturbation, tracing;
    /// `&SchedOptions::default()` is the plain parallel factorization. The
    /// task plan comes from the plan's per-assignment cache
    /// ([`SymbolicPlan::exec_templates`]).
    pub fn factor_sched(
        &self,
        asg: &Assignment,
        opts: &SchedOptions,
    ) -> Result<(NumericFactor, SchedStats), SolverError> {
        let plan = self.plan.exec_templates(asg);
        let mut f = self.assemble();
        let stats = fanout::factorize_sched_opts(&mut f, &plan, opts)?;
        Ok((f, stats))
    }

    /// Traced scheduler factorization with a predicted-vs-achieved
    /// [`RunReport`]: runs [`Self::factor_sched`] with tracing forced on
    /// and joins the collected [`Trace`] with the assignment's
    /// [`BalanceReport`]. The returned stats still carry the raw trace for
    /// Perfetto export ([`Trace::to_perfetto_json`]).
    pub fn factor_sched_report(
        &self,
        asg: &Assignment,
        opts: &SchedOptions,
    ) -> Result<(NumericFactor, SchedStats, RunReport), SolverError> {
        let mut opts = opts.clone();
        if !opts.trace.enabled {
            opts.trace = TraceOpts::on();
        }
        let plan = self.plan.exec_templates(asg);
        let t0 = std::time::Instant::now();
        let mut f = self.assemble();
        let assemble_s = t0.elapsed().as_secs_f64();
        let t1 = std::time::Instant::now();
        let stats = fanout::factorize_sched_opts(&mut f, &plan, &opts)?;
        let factor_s = t1.elapsed().as_secs_f64();
        let trace = stats.trace.as_ref().expect("tracing was forced on");
        let name = format!("sched p={} workers={}", stats.p, stats.workers);
        let timings = PhaseTimings { assemble_s, factor_s, ..self.timings };
        let mut pipeline = timings.spans();
        // Subtree-analysis spans ride the same clock; appending them lets
        // the Perfetto export show the symbolic fan-out under the phases.
        pipeline.extend(self.plan.analyze_spans.iter().cloned());
        let report = RunReport::new(name, trace, Some(&self.balance(asg)))
            .with_pipeline(pipeline);
        Ok((f, stats, report))
    }

    /// Traced simulation with a predicted-vs-achieved [`RunReport`] over
    /// *virtual* time — the simulated counterpart of
    /// [`Self::factor_sched_report`], covering the paper's Paragon
    /// experiments.
    pub fn simulate_report(
        &self,
        asg: &Assignment,
        model: &MachineModel,
        policy: SimPolicy,
    ) -> (SimOutcome, RunReport) {
        let plan = self.plan.exec_templates(asg);
        let out = fanout::simulate_traced(&self.bm, &plan, model, policy, &TraceOpts::on());
        let trace = out.trace.as_ref().expect("tracing was forced on");
        let name = format!("paragon-sim p={}", plan.p);
        let report = RunReport::new(name, trace, Some(&self.balance(asg)));
        (out, report)
    }

    /// Solves `A·x = b` given a computed factor, handling the fill
    /// permutation on both sides.
    pub fn solve(&self, factor: &NumericFactor, b: &[f64]) -> Vec<f64> {
        let mut ws = SolveWorkspace::new();
        let mut x = vec![0.0; self.n()];
        self.solve_into(factor, b, &mut ws, &mut x);
        x
    }

    /// [`Self::solve`] through a caller-owned [`SolveWorkspace`] into a
    /// caller-provided buffer: the factor CSC extraction, the permuted
    /// right-hand side, and the substitution all run in reused storage, so
    /// repeated solves allocate nothing after warmup. Bit-identical to
    /// [`Self::solve`].
    pub fn solve_into(
        &self,
        factor: &NumericFactor,
        b: &[f64],
        ws: &mut SolveWorkspace,
        out: &mut [f64],
    ) {
        let n = self.n();
        assert_eq!(b.len(), n);
        assert_eq!(out.len(), n);
        factor.to_csc_into(&mut ws.cp, &mut ws.ri, &mut ws.v);
        ws.pb.resize(n, 0.0);
        self.analysis.perm.apply_to_vec_into(b, &mut ws.pb);
        fanout::solve_csc(&ws.cp, &ws.ri, &ws.v, &mut ws.pb);
        self.analysis.perm.apply_inverse_to_vec_into(&ws.pb, out);
    }

    /// Solves with one or more steps of iterative refinement:
    /// `x ← x + L⁻ᵀL⁻¹(b − A·x)`, reducing the forward error when the input
    /// is ill-conditioned. Returns the best iterate and its residual
    /// `‖b − A·x‖∞ / ‖b‖∞`: refinement stops at the first step that does
    /// not lower the residual, and that step is undone. The substitutions
    /// run on the block factor ([`fanout::solve_in_place`], bit-equal to
    /// [`Self::solve`]) and every intermediate vector lives in the caller's
    /// [`SolveWorkspace`].
    pub fn solve_refined(
        &self,
        a: &SymCscMatrix,
        factor: &NumericFactor,
        b: &[f64],
        max_steps: usize,
        ws: &mut SolveWorkspace,
    ) -> (Vec<f64>, f64) {
        let n = self.n();
        assert_eq!(a.n(), n);
        let perm = &self.analysis.perm;
        ws.pb.resize(n, 0.0);
        ws.resid.resize(n, 0.0);
        ws.dx.resize(n, 0.0);
        let mut x = vec![0.0; n];
        perm.apply_to_vec_into(b, &mut ws.pb);
        fanout::solve_in_place(factor, &mut ws.pb, 1, &mut ws.gathered);
        perm.apply_inverse_to_vec_into(&ws.pb, &mut x);
        let bnorm = b.iter().fold(0.0f64, |m, &v| m.max(v.abs())).max(1e-300);
        // `ws.resid` ← b − A·x, and its relative norm.
        let residual = |x: &[f64], resid: &mut [f64]| {
            a.mul_vec(x, resid);
            for (r, &bv) in resid.iter_mut().zip(b) {
                *r = bv - *r;
            }
            resid.iter().fold(0.0f64, |m, &v| m.max(v.abs())) / bnorm
        };
        let mut rnorm = residual(&x, &mut ws.resid);
        for _ in 0..max_steps {
            if rnorm < 1e-16 {
                break;
            }
            perm.apply_to_vec_into(&ws.resid, &mut ws.pb);
            fanout::solve_in_place(factor, &mut ws.pb, 1, &mut ws.gathered);
            perm.apply_inverse_to_vec_into(&ws.pb, &mut ws.dx);
            // Apply the step, keeping the iterate it started from in `dx`.
            for (xi, di) in x.iter_mut().zip(ws.dx.iter_mut()) {
                let prev = *xi;
                *xi += *di;
                *di = prev;
            }
            let new_norm = residual(&x, &mut ws.resid);
            if new_norm >= rnorm {
                x.copy_from_slice(&ws.dx);
                break;
            }
            rnorm = new_norm;
        }
        (x, rnorm)
    }

    /// Relative residual of a factor against the (permuted) input.
    pub fn residual(&self, factor: &NumericFactor) -> f64 {
        fanout::residual_norm(&self.permuted, factor)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn opts(bs: usize) -> SolverOptions {
        SolverOptions { block_size: bs, ..Default::default() }
    }

    #[test]
    fn end_to_end_grid_solve() {
        let p = sparsemat::gen::grid2d(9);
        let solver = Solver::analyze_problem(&p, &opts(4));
        let f = solver.factor_seq().unwrap();
        let n = p.n();
        let x_true: Vec<f64> = (0..n).map(|i| 1.0 + (i as f64 * 0.11).cos()).collect();
        let mut b = vec![0.0; n];
        p.matrix.mul_vec(&x_true, &mut b);
        let x = solver.solve(&f, &b);
        for (got, want) in x.iter().zip(&x_true) {
            assert!((got - want).abs() < 1e-8);
        }
    }

    #[test]
    fn simulate_reports_consistent_efficiency() {
        let p = sparsemat::gen::grid2d(12);
        let solver = Solver::analyze_problem(&p, &opts(4));
        let asg = solver.assign_cyclic(4);
        let out = solver.simulate(&asg, &MachineModel::paragon());
        let rep = solver.balance(&asg);
        // Efficiency can exceed the balance bound only slightly (the bound
        // uses the work model; the simulator adds communication, so it
        // should generally be below).
        assert!(out.efficiency <= rep.overall * 1.05 + 0.05);
        assert!(out.efficiency > 0.0);
    }

    #[test]
    fn refined_solve_does_not_regress() {
        let p = sparsemat::gen::grid2d(8);
        let solver = Solver::analyze_problem(&p, &opts(4));
        let f = solver.factor_seq().unwrap();
        let n = p.n();
        let x_true: Vec<f64> = (0..n).map(|i| (i as f64).sqrt()).collect();
        let mut b = vec![0.0; n];
        p.matrix.mul_vec(&x_true, &mut b);
        let (x, resid) =
            solver.solve_refined(&p.matrix, &f, &b, 3, &mut SolveWorkspace::new());
        assert!(resid < 1e-13, "residual {resid}");
        for (got, want) in x.iter().zip(&x_true) {
            assert!((got - want).abs() < 1e-9);
        }
    }

    #[test]
    fn refinement_undoes_a_step_that_grows_the_residual() {
        // With the factor of 0.4·A, the first iterate is 2.5·x (residual
        // 1.5) and a refinement step overshoots to −1.25·x (residual 2.25).
        let p = sparsemat::gen::grid2d(8);
        let solver = Solver::analyze_problem(&p, &opts(4));
        let values = p.matrix.values().iter().map(|v| 0.4 * v).collect();
        let scaled = SymCscMatrix::new(p.matrix.pattern().clone(), values).unwrap();
        let f = Solver::from_plan(solver.plan.clone(), &scaled).factor_seq().unwrap();
        let n = p.n();
        let b: Vec<f64> = (0..n).map(|i| 1.0 + (i as f64 * 0.3).sin()).collect();
        let relative_residual = |x: &[f64]| {
            let mut ax = vec![0.0; n];
            p.matrix.mul_vec(x, &mut ax);
            let bnorm = b.iter().fold(0.0f64, |m, &v| m.max(v.abs())).max(1e-300);
            ax.iter().zip(&b).fold(0.0f64, |m, (&ax, &bv)| m.max((bv - ax).abs())) / bnorm
        };
        let first = relative_residual(&solver.solve(&f, &b));
        assert!((first - 1.5).abs() < 1e-9, "first iterate's residual {first}");
        let (x, resid) = solver.solve_refined(&p.matrix, &f, &b, 3, &mut SolveWorkspace::new());
        assert!(resid <= first, "returned residual {resid} > first iterate's {first}");
        assert_eq!(resid.to_bits(), relative_residual(&x).to_bits());
    }

    #[test]
    fn stats_are_invariant_to_block_size() {
        let p = sparsemat::gen::grid2d(10);
        let s1 = Solver::analyze_problem(&p, &opts(2));
        let s2 = Solver::analyze_problem(&p, &opts(16));
        assert_eq!(s1.stats(), s2.stats());
    }

    #[test]
    fn factor_sched_equals_factor_seq_under_default_and_explicit_options() {
        let explicit = SchedOptions {
            stall_timeout: Some(std::time::Duration::from_secs(10)),
            ..Default::default()
        };
        for (p, bs, sched_opts) in [
            (sparsemat::gen::grid2d(8), 4, explicit),
            (sparsemat::gen::bcsstk_like("T", 120, 4), 6, SchedOptions::default()),
        ] {
            let solver = Solver::analyze_problem(&p, &opts(bs));
            let asg = solver.assign_heuristic(4);
            let (f, stats) = solver.factor_sched(&asg, &sched_opts).unwrap();
            assert!(solver.residual(&f) < 1e-12);
            assert_eq!(stats.pivot_perturbations, 0);
            let f_seq = solver.factor_seq().unwrap();
            let (_, _, a) = f.to_csc();
            let (_, _, b) = f_seq.to_csc();
            for (x, y) in a.iter().zip(&b) {
                assert_eq!(x.to_bits(), y.to_bits());
            }
        }
    }

    #[test]
    fn traced_reports_join_prediction_with_achievement() {
        let p = sparsemat::gen::grid2d(10);
        let solver = Solver::analyze_problem(&p, &opts(4));
        let asg = solver.assign_cyclic(4);
        let (f, stats, rep) = solver
            .factor_sched_report(&asg, &SchedOptions::default())
            .unwrap();
        assert!(solver.residual(&f) < 1e-12);
        assert!(stats.trace.is_some());
        assert!(rep.predicted.is_some());
        assert!(rep.workers == stats.workers);
        assert!(rep.utilization > 0.0 && rep.utilization <= 1.0 + 1e-9);
        assert!(rep.to_string().contains("predicted balance"));

        // The run's trace exports to Perfetto: valid JSON, one named track
        // per worker, every event, every timestamp inside the span — and,
        // with the report's phases, one more track for the pipeline.
        let tr = stats.trace.as_ref().unwrap();
        let json = tr.to_perfetto_json("grid2d(10)");
        assert_eq!(trace::validate_json(&json), Ok(()));
        assert_eq!(json.matches("\"thread_name\"").count(), tr.workers());
        assert_eq!(json.matches("\"ph\":\"X\"").count(), tr.num_events());
        let span_us = tr.span_s() * 1e6;
        for chunk in json.split("\"ts\":").skip(1) {
            let ts: f64 = chunk[..chunk.find(',').unwrap()].parse().unwrap();
            assert!((0.0..=span_us + 1e-6).contains(&ts), "ts {ts} outside [0, {span_us}]");
        }
        let json = tr.to_perfetto_json_with_phases("grid2d(10)", &rep.pipeline);
        assert_eq!(trace::validate_json(&json), Ok(()));
        assert_eq!(json.matches("\"thread_name\"").count(), tr.workers() + 1);

        let (out, sim_rep) = solver.simulate_report(
            &asg,
            &MachineModel::paragon(),
            SimPolicy::DataDriven,
        );
        let tr = out.trace.as_ref().unwrap();
        // Virtual-time utilization agrees with the simulator's own measure
        // up to send overhead and pre-first-event startup.
        assert!(sim_rep.span_s <= out.report.makespan_s + 1e-12);
        assert!(sim_rep.utilization > 0.0 && sim_rep.utilization <= 1.0 + 1e-9);
        assert!(tr.num_events() > 0);
    }

    #[test]
    fn solver_error_composes_both_layers() {
        // Front-end failure: malformed Matrix Market stream.
        let bad = "%%MatrixMarket matrix coordinate real symmetric\n2 2 1\n1 1 oops\n";
        let err = Solver::analyze_matrix_market(std::io::BufReader::new(bad.as_bytes()), &opts(4))
            .map(|_| ())
            .unwrap_err();
        assert!(matches!(err, SolverError::Matrix(sparsemat::Error::Parse { line: 3, .. })));
        assert!(err.to_string().contains("line 3"), "display: {err}");

        // Back-end failure: indefinite matrix through the same error type.
        let a = SymCscMatrix::from_coords(2, &[(0, 0, 1.0), (1, 0, 3.0), (1, 1, 1.0)]).unwrap();
        let solver = Solver::analyze(&a, &opts(2));
        let asg = solver.assign_cyclic(1);
        let err = solver.factor_sched(&asg, &SchedOptions::default()).map(|_| ()).unwrap_err();
        assert_eq!(err, SolverError::Factor(fanout::Error::NotPositiveDefinite { col: 1 }));
    }

    #[test]
    fn session_refactor_matches_one_shot_factor_bitwise() {
        let p = sparsemat::gen::grid2d(9);
        let solver = Solver::analyze_problem(&p, &opts(4));
        let f_fresh = solver.factor_seq().unwrap();
        let mut session = solver.session();
        assert_eq!(session.input_nnz(), p.matrix.values().len());
        session.refactor(p.matrix.values()).unwrap();
        let (_, _, want) = f_fresh.to_csc();
        let (_, _, got) = session.factor().to_csc();
        for (g, w) in got.iter().zip(&want) {
            assert_eq!(g.to_bits(), w.to_bits());
        }

        // And the solve path through the session matches Solver::solve.
        let b: Vec<f64> = (0..p.n()).map(|i| (i as f64 * 0.3).sin() + 2.0).collect();
        let x_one_shot = solver.solve(&f_fresh, &b);
        let x_session = session.resolve(&b);
        for (g, w) in x_session.iter().zip(&x_one_shot) {
            assert_eq!(g.to_bits(), w.to_bits());
        }

        // A traced scheduled session gives the same bits, and its Perfetto
        // export carries the session's refactor/resolve phases.
        let asg = solver.assign_heuristic(4);
        let traced_opts = SchedOptions { trace: TraceOpts::on(), ..Default::default() };
        let mut traced = solver.session_sched(&asg, &traced_opts);
        traced.refactor(p.matrix.values()).unwrap();
        let (_, _, got) = traced.factor().to_csc();
        assert!(got.iter().zip(&want).all(|(g, w)| g.to_bits() == w.to_bits()));
        let _ = traced.resolve(&b);
        let tr = traced.sched_stats.as_ref().and_then(|s| s.trace.as_ref()).unwrap();
        let json = tr.to_perfetto_json_with_phases("session", &traced.timings.spans());
        assert_eq!(trace::validate_json(&json), Ok(()));
        assert!(json.contains("\"refactor\"") && json.contains("\"resolve\""));
    }

    #[test]
    fn plan_is_shared_between_solver_and_sessions() {
        let p = sparsemat::gen::grid2d(8);
        let solver = Solver::analyze_problem(&p, &opts(4));
        let s1 = solver.session();
        let s2 = solver.session();
        assert!(Arc::ptr_eq(s1.plan(), s2.plan()));
        assert!(Arc::ptr_eq(s1.plan(), &solver.plan));
        // Task DAGs are built once per assignment signature.
        let asg = solver.assign_cyclic(4);
        let t1 = solver.plan.exec_templates(&asg);
        let t2 = solver.plan.exec_templates(&asg);
        assert!(Arc::ptr_eq(&t1, &t2));
        assert_eq!(solver.plan.cached_exec_templates(), 1);
    }

    #[test]
    fn nested_dissection_ordering_solves_with_and_without_coords() {
        // grid2d carries coordinates (geometric ND); bcsstk_like does not
        // (graph ND). Both must produce a valid factorization.
        for p in [sparsemat::gen::grid2d(10), sparsemat::gen::bcsstk_like("N", 150, 3)] {
            let o = SolverOptions {
                block_size: 4,
                ordering: OrderingChoice::NestedDissection,
                ..Default::default()
            };
            let solver = Solver::analyze_problem(&p, &o);
            let f = solver.factor_seq().unwrap();
            assert!(solver.residual(&f) < 1e-10);
            // Raw-matrix path (no geometry available): graph ND.
            let solver2 = Solver::analyze(&p.matrix, &o);
            let f2 = solver2.factor_seq().unwrap();
            assert!(solver2.residual(&f2) < 1e-10);
        }
    }

    #[test]
    fn parallel_analyze_is_bit_identical_and_carries_subtree_spans() {
        let p = sparsemat::gen::grid2d(12);
        let base = SolverOptions {
            block_size: 4,
            ordering: OrderingChoice::NestedDissection,
            ..Default::default()
        };
        let mut par = base;
        par.analyze.workers = Some(4);
        let seq_solver = Solver::analyze_problem(&p, &base_seq(&base));
        let par_solver = Solver::analyze_problem(&p, &par);
        assert_eq!(seq_solver.plan.analysis, par_solver.plan.analysis);
        assert!(seq_solver.plan.analyze_spans.is_empty());
        assert!(par_solver.plan.analyze_spans.len() > 1, "analysis did not fan out");
        assert!(par_solver
            .plan
            .analyze_spans
            .iter()
            .all(|s| s.start_s
                >= par_solver.timings.probe_s + par_solver.timings.order_s - 1e-12));
        // The spans surface on the factor report's pipeline track.
        let asg = par_solver.assign_default(4);
        let (_, _, rep) = par_solver
            .factor_sched_report(&asg, &SchedOptions::default())
            .unwrap();
        assert!(rep
            .pipeline
            .iter()
            .any(|s| s.name.contains("subtree")));
    }

    /// `(graphs built, compressions run)` on this thread while `f` runs.
    fn ordering_work(f: impl FnOnce()) -> (u64, u64) {
        let before = (
            sparsemat::Graph::builds_on_this_thread(),
            ordering::compressions_on_this_thread(),
        );
        f();
        (
            sparsemat::Graph::builds_on_this_thread() - before.0,
            ordering::compressions_on_this_thread() - before.1,
        )
    }

    #[test]
    fn auto_analysis_builds_one_graph_and_one_compression() {
        // Large enough that the probe runs its bisection (n >= 192), on a
        // structure it resolves to dissection (which needs the quotient
        // again) and on one it resolves to minimum degree.
        for p in [sparsemat::gen::cube3d(8), sparsemat::gen::bcsstk_like("A", 400, 7)] {
            let o = base_seq(&opts(8));
            assert_eq!(o.ordering, OrderingChoice::Auto);
            let mut solver = None;
            let work = ordering_work(|| solver = Some(Solver::analyze(&p.matrix, &o)));
            assert_eq!(work, (1, 1), "{}: Solver::analyze", p.name);
            let t = solver.take().unwrap().timings;
            assert!(t.probe_s > 0.0 && t.order_s > 0.0);

            // The cache miss path resolves first and analyzes second; the
            // probe's graph and quotient must survive the hand-over.
            let cache = PlanCache::new();
            let work = ordering_work(|| solver = Some(cache.solver_for(&p.matrix, &o)));
            assert_eq!(work, (1, 1), "{}: PlanCache miss", p.name);
            let t = solver.unwrap().timings;
            assert!(t.probe_s > 0.0 && t.order_s > 0.0);
            // A hit does no ordering work at all.
            assert_eq!(ordering_work(|| drop(cache.solver_for(&p.matrix, &o))), (0, 0));
        }
    }

    #[test]
    fn explicit_choices_skip_the_probe_and_phases_sum_to_analyze() {
        let p = sparsemat::gen::grid2d(16);
        for (choice, want) in [
            (OrderingChoice::NestedDissection, (1, 1)),
            (OrderingChoice::MinimumDegree, (1, 0)),
            (OrderingChoice::Natural, (0, 0)),
        ] {
            let o = SolverOptions { ordering: choice, ..base_seq(&opts(4)) };
            let mut solver = None;
            let work = ordering_work(|| solver = Some(Solver::analyze(&p.matrix, &o)));
            assert_eq!(work, want, "{choice:?}");
            let t = solver.unwrap().timings;
            assert_eq!(t.probe_s, 0.0, "{choice:?}: no probe ran");
            let spans = t.spans();
            assert_eq!(spans[0].name, "probe");
            assert_eq!(spans[1].name, "order");
            let analyze_end = spans[5].end_s;
            assert!((analyze_end - t.analyze_s()).abs() < 1e-12);
        }
    }

    fn base_seq(o: &SolverOptions) -> SolverOptions {
        let mut s = *o;
        s.analyze.workers = Some(1);
        s
    }

    #[test]
    fn assign_default_follows_configured_policies() {
        let p = sparsemat::gen::grid2d(10);
        let pm = SolverOptions {
            block_size: 4,
            ordering: OrderingChoice::NestedDissection,
            row_policy: RowPolicy::Proportional,
            col_policy: ColPolicy::Proportional,
            ..Default::default()
        };
        let solver = Solver::analyze_problem(&p, &pm);
        let asg = solver.assign_default(4);
        let (f, _) = solver.factor_sched(&asg, &SchedOptions::default()).unwrap();
        assert!(solver.residual(&f) < 1e-10);
        // The balance guard: with the row map fixed, proportional columns
        // never lose to that heuristic's own column map on the
        // separator-tree plan.
        for h in &Heuristic::ALL[1..] {
            let row = RowPolicy::Heuristic(*h);
            let prop = solver.balance(&solver.assign(16, row, ColPolicy::Proportional)).overall;
            let heur = solver.balance(&solver.assign(16, row, ColPolicy::Heuristic(*h))).overall;
            assert!(prop >= heur - 1e-12, "{h:?} rows: PM columns {prop} vs {heur}");
        }
        // Default options reproduce the paper's Table 7 recommendation.
        let d = Solver::analyze_problem(&p, &opts(4));
        let a1 = d.assign_default(4);
        let a2 = d.assign_heuristic(4);
        assert_eq!(a1.signature(), a2.signature());
    }

    #[test]
    fn exec_template_cache_is_lru_bounded() {
        let p = sparsemat::gen::grid2d(10);
        let solver = Solver::analyze_problem(&p, &opts(4));
        // More distinct assignments than DEFAULT_EXEC_CAPACITY: vary grid
        // shape and policies to change the signature.
        let mut asgs = Vec::new();
        for np in 1..=9usize {
            asgs.push(solver.assign_cyclic(np * np));
            asgs.push(solver.assign(
                np * np,
                RowPolicy::Heuristic(Heuristic::IncreasingDepth),
                ColPolicy::Heuristic(Heuristic::Cyclic),
            ));
        }
        let handles: Vec<_> = asgs.iter().map(|a| solver.plan.exec_templates(a)).collect();
        assert!(solver.plan.cached_exec_templates() <= plan::DEFAULT_EXEC_CAPACITY);
        assert!(solver.plan.exec_evictions() > 0);
        // Evicted entries rebuild on demand; held Arcs stay valid and the
        // rebuild is structurally identical.
        let rebuilt = solver.plan.exec_templates(&asgs[0]);
        assert_eq!(rebuilt.owner, handles[0].owner);
    }
}
