//! Robustness policy and accounting for the solver service: resource
//! budgets checked at admission time, retry policy for the session
//! refactor hot path, and per-session resilience counters.
//!
//! Admission control keeps one oversized structure from taking the whole
//! service down: the memory/flop cost of a factorization is known exactly
//! after symbolic analysis ([`SymbolicPlan::resource_estimate`]), so
//! [`PlanCache::try_solver_for`] and [`Solver::try_session`] can reject a
//! request *before* any numeric storage is allocated, with
//! [`SolverError::BudgetExceeded`] carrying both sides of the comparison.
//!
//! [`RetryPolicy`] governs what [`FactorSession::refactor`] does when an
//! attempt fails: transient failures (contained worker panics, scheduler
//! stalls) retry after an exponential backoff with deterministic seeded
//! jitter; non-positive-definite pivots escalate through perturbation
//! (fail plain → retry with `ε` → retry with `10ε`, …); cancellation and
//! deadline expiry never retry — the caller asked for the run to stop.
//!
//! [`SymbolicPlan::resource_estimate`]: crate::SymbolicPlan::resource_estimate
//! [`PlanCache::try_solver_for`]: crate::PlanCache::try_solver_for
//! [`Solver::try_session`]: crate::Solver::try_session
//! [`SolverError::BudgetExceeded`]: crate::SolverError::BudgetExceeded
//! [`FactorSession::refactor`]: crate::FactorSession::refactor

use std::time::Duration;

/// Admission-control caps. `None` fields are unlimited; an all-`None`
/// budget admits everything (the default).
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct ResourceBudget {
    /// Cap on numeric factor storage, in bytes
    /// ([`ResourceEstimate::factor_bytes`]).
    pub max_factor_bytes: Option<u64>,
    /// Cap on factorization floating-point operations
    /// ([`ResourceEstimate::flops`]).
    pub max_flops: Option<u64>,
}

impl ResourceBudget {
    /// True when `estimate` fits under every configured cap.
    pub fn admits(&self, estimate: &ResourceEstimate) -> bool {
        self.max_factor_bytes.is_none_or(|cap| estimate.factor_bytes <= cap)
            && self.max_flops.is_none_or(|cap| estimate.flops <= cap)
    }
}

/// The cost of one factorization, known exactly from symbolic analysis.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct ResourceEstimate {
    /// Bytes of numeric block storage one factor/session allocates
    /// (stored factor elements × 8; block padding included).
    pub factor_bytes: u64,
    /// Floating-point operations of one numeric factorization.
    pub flops: u64,
}

impl std::fmt::Display for ResourceEstimate {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(f, "{} factor bytes, {} flops", self.factor_bytes, self.flops)
    }
}

/// Retry policy for [`FactorSession::refactor`](crate::FactorSession::refactor).
///
/// Attempt numbering is zero-based: attempt 0 is the initial try, and up to
/// `max_attempts - 1` retries follow. Which failures retry:
///
/// * **Contained worker panic / scheduler stall** — transient; retried
///   after [`Self::delay_before`].
/// * **Non-positive-definite pivot** — retried with pivot perturbation
///   escalating by [`Self::perturb_for`] (off when `npd_perturb` is
///   `None`). A factor produced under perturbation is the factor of a
///   modified matrix; pair it with iterative refinement.
/// * **Cancellation / deadline expiry** — never retried.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct RetryPolicy {
    /// Total attempts (initial + retries); min 1.
    pub max_attempts: u32,
    /// Base backoff before the first retry; doubles per further retry and
    /// is stretched by up to +50% deterministic jitter.
    pub backoff: Duration,
    /// Seed of the jitter sequence. Equal seeds give equal delays, so a
    /// chaos run is reproducible end to end.
    pub jitter_seed: u64,
    /// Base pivot-perturbation scale `ε` for NPD escalation: retry `r`
    /// perturbs with `ε·10^(r-1)`. `None` disables NPD retries entirely.
    pub npd_perturb: Option<f64>,
}

impl Default for RetryPolicy {
    fn default() -> Self {
        Self {
            max_attempts: 3,
            backoff: Duration::from_millis(10),
            jitter_seed: 0x5eed_0f5e_5510_11a1,
            // sqrt(machine epsilon): large enough to clear garden-variety
            // indefiniteness, small enough for refinement to clean up.
            npd_perturb: Some(1.49e-8),
        }
    }
}

impl RetryPolicy {
    /// A policy that never retries (single attempt, no perturbation).
    pub fn disabled() -> Self {
        Self { max_attempts: 1, npd_perturb: None, ..Self::default() }
    }

    /// Backoff before retry attempt `attempt` (1-based over retries:
    /// attempt 0 is the initial try and has no delay). Exponential with
    /// deterministic jitter in `[0, 50%)` drawn from `jitter_seed`, capped
    /// at 1000× the base so a long retry chain cannot sleep unboundedly.
    pub fn delay_before(&self, attempt: u32) -> Duration {
        if attempt == 0 || self.backoff.is_zero() {
            return Duration::ZERO;
        }
        let exp = 1u64 << (attempt - 1).min(10);
        let base = self.backoff.as_nanos() as u64;
        let scaled = base.saturating_mul(exp).min(base.saturating_mul(1000));
        // Jitter stretches, never shrinks: retries stay >= the exponential
        // floor, and equal (seed, attempt) pairs sleep identically.
        let j = splitmix64(self.jitter_seed.wrapping_add(u64::from(attempt)));
        let jitter = (scaled / 2).saturating_mul(j >> 32) / (1u64 << 32);
        Duration::from_nanos(scaled.saturating_add(jitter))
    }

    /// Pivot-perturbation scale for attempt `attempt` (0-based): `None` on
    /// the initial attempt, then `ε`, `10ε`, `100ε`, … on successive
    /// retries. Always `None` when `npd_perturb` is off.
    pub fn perturb_for(&self, attempt: u32) -> Option<f64> {
        if attempt == 0 {
            return None;
        }
        self.npd_perturb
            .map(|eps| eps * 10f64.powi(attempt.min(16) as i32 - 1))
    }
}

/// SplitMix64: the standard 64-bit finalizer, used for deterministic
/// backoff jitter.
fn splitmix64(mut x: u64) -> u64 {
    x = x.wrapping_add(0x9e37_79b9_7f4a_7c15);
    x = (x ^ (x >> 30)).wrapping_mul(0xbf58_476d_1ce4_e5b9);
    x = (x ^ (x >> 27)).wrapping_mul(0x94d0_49bb_1331_11eb);
    x ^ (x >> 31)
}

/// Cumulative per-session robustness counters, maintained by
/// [`FactorSession::refactor`](crate::FactorSession::refactor) and exported
/// as trace counter tracks when the session traces
/// (see [`trace::CounterEvent`]).
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct ResilienceStats {
    /// Refactor attempts (each retry counts again).
    pub attempts: u64,
    /// Retries after a failed attempt.
    pub retries: u64,
    /// Refactors ended by caller cancellation or deadline expiry.
    pub cancellations: u64,
    /// The subset of `cancellations` caused by a deadline.
    pub deadline_misses: u64,
    /// Pivots perturbed across all attempts (NPD escalation).
    pub perturbed_pivots: u64,
    /// Attempts that ended in a watchdog stall.
    pub stalls: u64,
    /// Attempts that ended in a contained worker panic.
    pub panics_contained: u64,
    /// Refactors that started on a poisoned session (a previous attempt
    /// failed) and therefore rebuilt numeric state from the plan.
    pub recoveries: u64,
}

impl ResilienceStats {
    /// The counters as `(name, value)` pairs, in a stable order — the
    /// source of the exported trace counter tracks.
    pub fn counters(&self) -> [(&'static str, u64); 8] {
        [
            ("attempts", self.attempts),
            ("retries", self.retries),
            ("cancellations", self.cancellations),
            ("deadline_misses", self.deadline_misses),
            ("perturbed_pivots", self.perturbed_pivots),
            ("stalls", self.stalls),
            ("panics_contained", self.panics_contained),
            ("recoveries", self.recoveries),
        ]
    }

    /// Adds another session's counters into this one (fleet aggregation).
    pub fn merge(&mut self, other: &ResilienceStats) {
        self.attempts += other.attempts;
        self.retries += other.retries;
        self.cancellations += other.cancellations;
        self.deadline_misses += other.deadline_misses;
        self.perturbed_pivots += other.perturbed_pivots;
        self.stalls += other.stalls;
        self.panics_contained += other.panics_contained;
        self.recoveries += other.recoveries;
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn budget_admits_under_caps_and_rejects_over() {
        let est = ResourceEstimate { factor_bytes: 1000, flops: 5000 };
        assert!(ResourceBudget::default().admits(&est));
        let tight = ResourceBudget { max_factor_bytes: Some(999), max_flops: None };
        assert!(!tight.admits(&est));
        let loose = ResourceBudget { max_factor_bytes: Some(1000), max_flops: Some(5000) };
        assert!(loose.admits(&est));
        let flops = ResourceBudget { max_factor_bytes: None, max_flops: Some(4999) };
        assert!(!flops.admits(&est));
    }

    #[test]
    fn backoff_is_exponential_deterministic_and_jittered_upward() {
        let p = RetryPolicy { backoff: Duration::from_millis(10), ..Default::default() };
        assert_eq!(p.delay_before(0), Duration::ZERO);
        let (d1, d2, d3) = (p.delay_before(1), p.delay_before(2), p.delay_before(3));
        // Jitter only stretches: each delay sits in [floor, 1.5*floor).
        for (d, floor_ms) in [(d1, 10), (d2, 20), (d3, 40)] {
            let floor = Duration::from_millis(floor_ms);
            assert!(d >= floor && d < floor * 3 / 2, "{d:?} vs floor {floor:?}");
        }
        // Same seed, same delays; different seed, (almost surely) different.
        let q = RetryPolicy { backoff: Duration::from_millis(10), ..Default::default() };
        assert_eq!(q.delay_before(2), d2);
        let r = RetryPolicy { jitter_seed: 7, ..p };
        assert_ne!(r.delay_before(2), d2);
    }

    #[test]
    fn perturbation_escalates_by_decades() {
        let p = RetryPolicy::default();
        let eps = p.npd_perturb.unwrap();
        assert_eq!(p.perturb_for(0), None);
        assert_eq!(p.perturb_for(1), Some(eps));
        assert_eq!(p.perturb_for(2), Some(eps * 10.0));
        assert_eq!(p.perturb_for(3), Some(eps * 100.0));
        assert_eq!(RetryPolicy::disabled().perturb_for(2), None);
        assert_eq!(RetryPolicy::disabled().max_attempts, 1);
    }
}
