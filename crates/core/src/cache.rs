//! A structure-keyed cache of symbolic plans.
//!
//! Analysis depends only on the sparsity structure and the analysis
//! options, so a solver-as-a-service front end that factors many matrices
//! with recurring structures (time steps, Newton iterations, parameter
//! sweeps) should analyze each structure once. [`PlanCache`] keys shared
//! [`SymbolicPlan`]s by a hash of the input [`SparsityPattern`] and the
//! structural [`SolverOptions`]; a hit binds the cached plan to the new
//! values ([`Solver::from_plan`]) without ordering, symbolic analysis, or
//! block-structure construction.
//!
//! The thread-count option ([`crate::AnalyzeOpts::workers`]) is *excluded*
//! from the key: it changes how fast analysis runs, never what it produces,
//! so plans are shared across callers with different parallelism settings
//! (the first caller's options are the ones stored in the plan).
//!
//! The ordering choice enters the key *resolved*
//! ([`crate::resolve_ordering`]): `Auto` hashes as whatever the structure
//! probe picks for the pattern, so an `Auto` request and the equivalent
//! explicit request share one entry instead of analyzing the same
//! structure twice. The probe itself is memoized per structure hash so
//! repeated `Auto` lookups stay cheap.

use crate::{OrderingChoice, Resolution, Solver, SolverError, SolverOptions, SymbolicPlan};
use mapping::{ColPolicy, RowPolicy};
use sparsemat::{Problem, SparsityPattern, SymCscMatrix};
use std::collections::HashMap;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::{Arc, Mutex, MutexGuard, PoisonError};

/// Locks a mutex, recovering the guard if a panicking holder poisoned it.
/// The cache mutex guards an [`Lru`] whose mutations are single `HashMap`
/// operations on already-constructed `Arc`s — no multi-step invariant can
/// be observed half-done — so the poison flag carries no information and a
/// caller's panic must not wedge the shared cache for every other thread.
fn lock_ignore_poison<T>(m: &Mutex<T>) -> MutexGuard<'_, T> {
    m.lock().unwrap_or_else(PoisonError::into_inner)
}

const FNV_OFFSET: u64 = 0xcbf2_9ce4_8422_2325;
const FNV_PRIME: u64 = 0x0000_0100_0000_01b3;

/// Default bound on the number of cached plans. Each plan can pin megabytes
/// of symbolic structure; a service front end that sees a long tail of
/// distinct structures must not grow without bound.
pub const DEFAULT_PLAN_CAPACITY: usize = 32;

#[inline]
fn mix(h: u64, v: u64) -> u64 {
    (h ^ v).wrapping_mul(FNV_PRIME)
}

/// Stable code (0–4) for the Section 4 heuristics, used in cache keys.
fn heuristic_code(h: mapping::Heuristic) -> u64 {
    mapping::Heuristic::ALL
        .iter()
        .position(|&x| x == h)
        .expect("Heuristic::ALL is exhaustive") as u64
}

/// A minimal stamp-based LRU map. Every lookup or insert refreshes the
/// entry's stamp from a monotone counter; inserting past capacity evicts the
/// smallest stamp. The eviction scan is linear, which is fine for the small
/// capacities used here (plans: ~32, exec templates: ~16).
#[derive(Debug)]
pub(crate) struct Lru<V> {
    map: HashMap<u64, (V, u64)>,
    stamp: u64,
    capacity: usize,
    evictions: u64,
}

impl<V> Lru<V> {
    pub(crate) fn new(capacity: usize) -> Self {
        Self { map: HashMap::new(), stamp: 0, capacity: capacity.max(1), evictions: 0 }
    }

    /// Looks up `key`, marking it most-recently used on a hit.
    pub(crate) fn get(&mut self, key: u64) -> Option<&V> {
        self.stamp += 1;
        let stamp = self.stamp;
        self.map.get_mut(&key).map(|e| {
            e.1 = stamp;
            &e.0
        })
    }

    /// Inserts (or refreshes) `key`, evicting least-recently-used entries
    /// until the map fits its capacity again.
    pub(crate) fn insert(&mut self, key: u64, value: V) {
        self.stamp += 1;
        self.map.insert(key, (value, self.stamp));
        while self.map.len() > self.capacity {
            let oldest = self
                .map
                .iter()
                .min_by_key(|(_, (_, s))| *s)
                .map(|(k, _)| *k)
                .expect("map over capacity is nonempty");
            self.map.remove(&oldest);
            self.evictions += 1;
        }
    }

    pub(crate) fn len(&self) -> usize {
        self.map.len()
    }

    pub(crate) fn evictions(&self) -> u64 {
        self.evictions
    }

    pub(crate) fn clear(&mut self) {
        self.map.clear();
    }
}

/// A thread-safe cache mapping input structure + analysis options to shared
/// [`SymbolicPlan`]s. Cheap to share behind an `Arc`; all methods take
/// `&self`. Bounded: past [`DEFAULT_PLAN_CAPACITY`] (or the explicit
/// [`PlanCache::with_capacity`] bound) the least-recently-used plan is
/// dropped — sessions holding its `Arc` keep it alive, the cache just stops
/// handing it out.
#[derive(Debug)]
pub struct PlanCache {
    map: Mutex<Lru<Arc<SymbolicPlan>>>,
    /// Memoized `Auto` probe resolutions, keyed by structure hash. The
    /// probe is deterministic in the pattern, so this only saves its cost
    /// (a trial bisection + a minimum-degree fill sample) on repeat
    /// lookups; capacity is a multiple of the plan capacity since entries
    /// are tiny.
    resolved: Mutex<Lru<OrderingChoice>>,
    hits: AtomicU64,
    misses: AtomicU64,
}

impl Default for PlanCache {
    fn default() -> Self {
        Self::with_capacity(DEFAULT_PLAN_CAPACITY)
    }
}

impl PlanCache {
    /// An empty cache with the default capacity bound.
    pub fn new() -> Self {
        Self::default()
    }

    /// An empty cache holding at most `capacity` plans (min 1).
    pub fn with_capacity(capacity: usize) -> Self {
        Self {
            map: Mutex::new(Lru::new(capacity)),
            resolved: Mutex::new(Lru::new(4 * capacity.max(1))),
            hits: AtomicU64::new(0),
            misses: AtomicU64::new(0),
        }
    }

    /// Resolves `opts.ordering` for this pattern, memoizing `Auto` probe
    /// results by structure hash. A fresh probe's graph and quotient ride
    /// along in the [`Resolution`], so a plan miss orders on them instead of
    /// rebuilding both.
    fn resolve(&self, pattern: &SparsityPattern, opts: &SolverOptions) -> Resolution {
        if opts.ordering != OrderingChoice::Auto {
            return Resolution::known(opts.ordering);
        }
        let h = pattern.structure_hash();
        if let Some(c) = lock_ignore_poison(&self.resolved).get(h).copied() {
            return Resolution::known(c);
        }
        let r = Resolution::of(pattern, OrderingChoice::Auto);
        lock_ignore_poison(&self.resolved).insert(h, r.choice);
        r
    }

    /// The cache key: structure hash of the pattern, mixed with every
    /// option that affects analysis output, plus a caller-supplied salt
    /// (used to separate geometry-dependent orderings by problem name).
    /// The ordering enters *resolved* (never `Auto`), so `Auto` and the
    /// equivalent explicit choice produce the same key.
    fn key(
        pattern: &SparsityPattern,
        opts: &SolverOptions,
        salt: u64,
        resolved: OrderingChoice,
    ) -> u64 {
        let mut h = mix(FNV_OFFSET, pattern.structure_hash());
        h = mix(h, salt);
        h = mix(h, opts.block_size as u64);
        // The blocking policy changes the panel partition (and with it
        // every downstream structure), so it discriminates plans exactly
        // like the block size does.
        h = mix(h, opts.block_policy.cache_code());
        h = mix(h, opts.analyze.amalg.max_fill_frac.to_bits());
        h = mix(h, opts.analyze.amalg.max_zero_cols);
        h = mix(h, opts.analyze.amalg.min_width as u64);
        h = mix(
            h,
            match resolved {
                OrderingChoice::Auto => 0,
                OrderingChoice::Natural => 1,
                OrderingChoice::MinimumDegree => 2,
                OrderingChoice::NestedDissection => 3,
            },
        );
        // The default mapping policies ride on the plan (assign_default
        // consults the stored options), so they are part of its identity.
        h = mix(
            h,
            match opts.row_policy {
                RowPolicy::Heuristic(hh) => heuristic_code(hh),
                RowPolicy::AltPerProcessor => 5,
                RowPolicy::Proportional => 6,
            },
        );
        h = mix(
            h,
            match opts.col_policy {
                ColPolicy::Heuristic(hh) => heuristic_code(hh),
                ColPolicy::Subtree => 5,
                ColPolicy::Proportional => 6,
            },
        );
        h = mix(h, opts.work_model.fixed_op_cost);
        match &opts.domains {
            None => h = mix(h, 0),
            Some(d) => {
                h = mix(h, 1);
                h = mix(h, d.per_proc as u64);
            }
        }
        h
    }

    fn lookup(&self, key: u64) -> Option<Arc<SymbolicPlan>> {
        let found = lock_ignore_poison(&self.map).get(key).cloned();
        match &found {
            Some(_) => self.hits.fetch_add(1, Ordering::Relaxed),
            None => self.misses.fetch_add(1, Ordering::Relaxed),
        };
        found
    }

    fn store(&self, key: u64, plan: Arc<SymbolicPlan>) {
        lock_ignore_poison(&self.map).insert(key, plan);
    }

    /// A solver for a raw matrix: reuses the cached plan when this
    /// structure + options combination has been analyzed before, analyzes
    /// and caches otherwise. Every ordering here (probe-resolved `Auto`
    /// included) is a deterministic function of the pattern, so a cached
    /// plan is exactly what a fresh analysis would produce.
    pub fn solver_for(&self, a: &SymCscMatrix, opts: &SolverOptions) -> Solver {
        let resolution = self.resolve(a.pattern(), opts);
        let key = Self::key(a.pattern(), opts, 0, resolution.choice);
        if let Some(plan) = self.lookup(key) {
            return Solver::from_plan(plan, a);
        }
        let s = Solver::analyze_resolved(a, opts, resolution);
        self.store(key, s.plan.clone());
        s
    }

    /// A solver for a benchmark [`Problem`]. A resolved nested dissection
    /// may consult problem geometry, so the key additionally includes the
    /// problem name.
    pub fn solver_for_problem(&self, p: &Problem, opts: &SolverOptions) -> Solver {
        let mut salt = FNV_OFFSET;
        for b in p.name.as_bytes() {
            salt = mix(salt, u64::from(*b));
        }
        let resolution = self.resolve(p.matrix.pattern(), opts);
        let key = Self::key(p.matrix.pattern(), opts, salt, resolution.choice);
        if let Some(plan) = self.lookup(key) {
            return Solver::from_plan(plan, &p.matrix);
        }
        let s = Solver::analyze_resolved(&p.matrix, opts, resolution);
        self.store(key, s.plan.clone());
        s
    }

    /// [`Self::solver_for`] behind admission control: after the plan is
    /// obtained (cached or freshly analyzed — and cached *either way*, so a
    /// rejected structure never re-analyzes), its symbolic cost estimate is
    /// checked against [`SolverOptions::budget`] and the request is
    /// rejected with [`SolverError::BudgetExceeded`] before any numeric
    /// storage would be allocated.
    pub fn try_solver_for(
        &self,
        a: &SymCscMatrix,
        opts: &SolverOptions,
    ) -> Result<Solver, SolverError> {
        Self::admit(self.solver_for(a, opts), opts)
    }

    /// [`Self::solver_for_problem`] behind admission control (see
    /// [`Self::try_solver_for`]).
    pub fn try_solver_for_problem(
        &self,
        p: &Problem,
        opts: &SolverOptions,
    ) -> Result<Solver, SolverError> {
        Self::admit(self.solver_for_problem(p, opts), opts)
    }

    /// Admission check against the *caller's* budget — a cached plan
    /// carries the first caller's options, and budgets are per-request.
    fn admit(s: Solver, opts: &SolverOptions) -> Result<Solver, SolverError> {
        if let Some(budget) = opts.budget {
            let estimate = s.plan.resource_estimate();
            if !budget.admits(&estimate) {
                return Err(SolverError::BudgetExceeded { estimate, budget });
            }
        }
        Ok(s)
    }

    /// Number of cached plans.
    pub fn len(&self) -> usize {
        lock_ignore_poison(&self.map).len()
    }

    /// True when no plan is cached.
    pub fn is_empty(&self) -> bool {
        self.len() == 0
    }

    /// Lookups that found a cached plan.
    pub fn hits(&self) -> u64 {
        self.hits.load(Ordering::Relaxed)
    }

    /// Lookups that had to analyze.
    pub fn misses(&self) -> u64 {
        self.misses.load(Ordering::Relaxed)
    }

    /// Plans dropped by the LRU bound since construction.
    pub fn evictions(&self) -> u64 {
        lock_ignore_poison(&self.map).evictions()
    }

    /// Drops all cached plans (sessions holding `Arc`s keep theirs alive).
    pub fn clear(&self) {
        lock_ignore_poison(&self.map).clear();
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::SolverOptions;

    #[test]
    fn cache_hits_share_the_plan_and_solve_identically() {
        let p = sparsemat::gen::grid2d(8);
        let cache = PlanCache::new();
        let opts = SolverOptions { block_size: 4, ..Default::default() };
        let s1 = cache.solver_for_problem(&p, &opts);
        let s2 = cache.solver_for_problem(&p, &opts);
        assert!(Arc::ptr_eq(&s1.plan, &s2.plan));
        assert_eq!((cache.hits(), cache.misses(), cache.len()), (1, 1, 1));

        let f1 = s1.factor_seq().unwrap();
        let f2 = s2.factor_seq().unwrap();
        let (_, _, a) = f1.to_csc();
        let (_, _, b) = f2.to_csc();
        for (x, y) in a.iter().zip(&b) {
            assert_eq!(x.to_bits(), y.to_bits());
        }
    }

    #[test]
    fn different_options_or_structure_miss() {
        let p8 = sparsemat::gen::grid2d(8);
        let p9 = sparsemat::gen::grid2d(9);
        let cache = PlanCache::new();
        let o4 = SolverOptions { block_size: 4, ..Default::default() };
        let o8 = SolverOptions { block_size: 8, ..Default::default() };
        let _ = cache.solver_for(&p8.matrix, &o4);
        let _ = cache.solver_for(&p8.matrix, &o8);
        let _ = cache.solver_for(&p9.matrix, &o4);
        assert_eq!((cache.hits(), cache.misses(), cache.len()), (0, 3, 3));
        // Worker count is excluded from the key: same plan, different
        // parallelism settings.
        let mut ow = o4;
        ow.analyze.workers = Some(2);
        let _ = cache.solver_for(&p8.matrix, &ow);
        assert_eq!(cache.hits(), 1);
        // Mapping policies are part of the key (plans answer
        // assign_default from their stored options).
        let mut op = o4;
        op.row_policy = mapping::RowPolicy::Proportional;
        let _ = cache.solver_for(&p8.matrix, &op);
        assert_eq!((cache.hits(), cache.len()), (1, 4));
    }

    #[test]
    fn auto_and_equivalent_explicit_choice_share_one_entry() {
        use crate::OrderingChoice;
        // bcsstk_like(S, 400, 7): the probe resolves Auto to minimum
        // degree on this pattern (asserted below so a probe retune that
        // flips it fails loudly here, not silently downstream).
        let p = sparsemat::gen::bcsstk_like("S", 400, 7);
        let cache = PlanCache::new();
        let auto_opts = SolverOptions { block_size: 8, ..Default::default() };
        assert_eq!(auto_opts.ordering, OrderingChoice::Auto);
        let s_auto = cache.solver_for(&p.matrix, &auto_opts);
        assert_eq!(s_auto.plan.resolved_ordering, OrderingChoice::MinimumDegree);

        // The explicit equivalent is a pure hit: same key, same Arc.
        let mut md_opts = auto_opts;
        md_opts.ordering = OrderingChoice::MinimumDegree;
        let s_md = cache.solver_for(&p.matrix, &md_opts);
        assert!(Arc::ptr_eq(&s_auto.plan, &s_md.plan));
        assert_eq!((cache.hits(), cache.misses(), cache.len()), (1, 1, 1));

        // And a second Auto lookup hits the same entry (memoized probe).
        let s_auto2 = cache.solver_for(&p.matrix, &auto_opts);
        assert!(Arc::ptr_eq(&s_auto.plan, &s_auto2.plan));
        assert_eq!((cache.hits(), cache.misses(), cache.len()), (2, 1, 1));

        // A genuinely different ordering still misses.
        let mut nat = auto_opts;
        nat.ordering = OrderingChoice::Natural;
        let s_nat = cache.solver_for(&p.matrix, &nat);
        assert!(!Arc::ptr_eq(&s_auto.plan, &s_nat.plan));
        assert_eq!((cache.misses(), cache.len()), (2, 2));

        // Problem path: same sharing, and factors are bit-identical
        // between the Auto plan and the explicit plan (one plan, so this
        // is sharing by construction).
        let cache2 = PlanCache::new();
        let sa = cache2.solver_for_problem(&p, &auto_opts);
        let sb = cache2.solver_for_problem(&p, &md_opts);
        assert!(Arc::ptr_eq(&sa.plan, &sb.plan));
        assert_eq!((cache2.hits(), cache2.misses()), (1, 1));
    }

    #[test]
    fn block_policy_discriminates_plans_and_identical_policies_hit() {
        use blockmat::BlockPolicy;
        let p = sparsemat::gen::grid2d(10);
        let cache = PlanCache::new();
        let uni = SolverOptions { block_size: 4, ..Default::default() };
        let weq = SolverOptions {
            block_size: 4,
            block_policy: BlockPolicy::WorkEqualized,
            ..Default::default()
        };
        let rect1 = SolverOptions {
            block_size: 4,
            block_policy: BlockPolicy::Rectilinear { sweeps: 1 },
            ..Default::default()
        };
        let rect2 = SolverOptions {
            block_size: 4,
            block_policy: BlockPolicy::Rectilinear { sweeps: 2 },
            ..Default::default()
        };
        // Each distinct policy (sweeps included) is its own entry.
        let s_uni = cache.solver_for(&p.matrix, &uni);
        let s_weq = cache.solver_for(&p.matrix, &weq);
        let s_r1 = cache.solver_for(&p.matrix, &rect1);
        let s_r2 = cache.solver_for(&p.matrix, &rect2);
        assert!(!Arc::ptr_eq(&s_uni.plan, &s_weq.plan));
        assert!(!Arc::ptr_eq(&s_weq.plan, &s_r1.plan));
        assert!(!Arc::ptr_eq(&s_r1.plan, &s_r2.plan));
        assert_eq!((cache.hits(), cache.misses(), cache.len()), (0, 4, 4));
        // An identical policy is a pure hit: same Arc.
        let s_weq2 = cache.solver_for(&p.matrix, &weq);
        assert!(Arc::ptr_eq(&s_weq.plan, &s_weq2.plan));
        let s_r1b = cache.solver_for(&p.matrix, &rect1);
        assert!(Arc::ptr_eq(&s_r1.plan, &s_r1b.plan));
        assert_eq!((cache.hits(), cache.misses(), cache.len()), (2, 4, 4));
    }

    #[test]
    fn lru_bound_evicts_oldest_plan_first() {
        let cache = PlanCache::with_capacity(2);
        let probs: Vec<_> = (6..9).map(sparsemat::gen::grid2d).collect();
        let opts = SolverOptions { block_size: 4, ..Default::default() };
        let s0 = cache.solver_for_problem(&probs[0], &opts);
        let _ = cache.solver_for_problem(&probs[1], &opts);
        // Refresh plan 0, then insert a third: plan 1 is now the LRU victim.
        let _ = cache.solver_for_problem(&probs[0], &opts);
        let _ = cache.solver_for_problem(&probs[2], &opts);
        assert_eq!((cache.len(), cache.evictions()), (2, 1));
        let s0_again = cache.solver_for_problem(&probs[0], &opts);
        assert!(Arc::ptr_eq(&s0.plan, &s0_again.plan), "plan 0 survived");
        let before = cache.misses();
        let _ = cache.solver_for_problem(&probs[1], &opts);
        assert_eq!(cache.misses(), before + 1, "plan 1 was evicted");
        // Evicted-plan holders keep a working solver (Arc keeps it alive).
        assert!(s0.factor_seq().is_ok());
    }

    #[test]
    fn poisoned_cache_lock_recovers_and_keeps_serving() {
        use std::panic::{catch_unwind, AssertUnwindSafe};
        let cache = PlanCache::new();
        let p = sparsemat::gen::grid2d(7);
        let opts = SolverOptions { block_size: 4, ..Default::default() };
        let s1 = cache.solver_for_problem(&p, &opts);
        // Poison the cache mutex: panic while holding its guard, exactly
        // what a panicking caller mid-lookup would do.
        let poisoned = catch_unwind(AssertUnwindSafe(|| {
            let _guard = cache.map.lock().unwrap();
            panic!("injected panic under the plan cache lock");
        }));
        assert!(poisoned.is_err());
        assert!(cache.map.is_poisoned());
        // Every entry point keeps working; the cached plan is still served.
        assert_eq!(cache.len(), 1);
        let s2 = cache.solver_for_problem(&p, &opts);
        assert!(Arc::ptr_eq(&s1.plan, &s2.plan));
        assert_eq!(cache.hits(), 1);
        cache.clear();
        assert!(cache.is_empty());
    }

    #[test]
    fn admission_rejects_over_budget_but_still_caches_the_plan() {
        use crate::resilience::ResourceBudget;
        let cache = PlanCache::new();
        let p = sparsemat::gen::grid2d(8);
        let mut opts = SolverOptions { block_size: 4, ..Default::default() };
        opts.budget =
            Some(ResourceBudget { max_factor_bytes: Some(1), max_flops: None });
        let err = cache.try_solver_for_problem(&p, &opts).map(|_| ()).unwrap_err();
        let crate::SolverError::BudgetExceeded { estimate, budget } = err else {
            panic!("expected BudgetExceeded, got {err:?}");
        };
        assert!(estimate.factor_bytes > 1);
        assert_eq!(budget.max_factor_bytes, Some(1));
        // The plan was analyzed once and cached despite the rejection …
        assert_eq!((cache.len(), cache.misses()), (1, 1));
        // … so an admissible retry is a pure cache hit.
        opts.budget = Some(ResourceBudget {
            max_factor_bytes: Some(estimate.factor_bytes),
            max_flops: Some(estimate.flops),
        });
        let _ = cache.try_solver_for_problem(&p, &opts).unwrap();
        assert_eq!(cache.hits(), 1);
        // Budgetless callers are never rejected.
        opts.budget = None;
        assert!(cache.try_solver_for_problem(&p, &opts).is_ok());
        // try_session consults the *plan's* stored budget (the options the
        // solver was analyzed with): admissible here, tight below.
        let direct = crate::Solver::analyze_problem(&p, &opts);
        assert!(direct.try_session().is_ok());
        let mut tight = opts;
        tight.budget = Some(ResourceBudget { max_factor_bytes: Some(1), max_flops: None });
        let rejected = crate::Solver::analyze_problem(&p, &tight);
        assert!(matches!(
            rejected.try_session(),
            Err(crate::SolverError::BudgetExceeded { .. })
        ));
    }
}
