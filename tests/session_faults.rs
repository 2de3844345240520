//! Session-level fault matrix: injected failures on the `session_sched`
//! refactor path must surface as structured errors, poison the session, and
//! leave it fully recoverable — the next successful refactor is
//! bit-identical to the same refactor on a fresh session over the same
//! shared plan.
//!
//! Five failure modes run over a 24-seed matrix: contained worker panics,
//! vanished tasks under a short stall watchdog, a pre-fired cancellation
//! token, an already-expired deadline, and non-positive-definite inputs
//! (both perturbation-retry and fail-fast flavours). Fault placement is a
//! pure function of `(seed, task)`, so every failing seed replays exactly.

use block_fanout_cholesky::core::{
    CancelReason, CancelToken, FaultPlan, RetryPolicy, SchedOptions, Solver, SolverError,
    SolverOptions,
};
use block_fanout_cholesky::fanout::Error as FactorError;
use block_fanout_cholesky::sparsemat::{gen, SymCscMatrix};
use std::time::{Duration, Instant};

/// Hard per-refactor ceiling: far above the short watchdog below, far
/// below a hang.
const PROMPT: Duration = Duration::from_secs(20);

struct Fixture {
    solver: Solver,
    a: SymCscMatrix,
    /// Reference bits: a fresh clean session's factor of `a.values()`.
    ref_bits: Vec<u64>,
}

fn fixture(seed: u64) -> Fixture {
    let prob = gen::grid2d(7 + (seed % 3) as usize);
    let opts = SolverOptions {
        block_size: 2 + (seed % 4) as usize,
        ..Default::default()
    };
    let solver = Solver::analyze(&prob.matrix, &opts);
    let a = prob.matrix.clone();
    let asg = solver.assign_cyclic(4);
    let mut fresh = solver.session_sched(&asg, &SchedOptions::default());
    fresh.refactor(a.values()).expect("clean reference refactor");
    let ref_bits = factor_bits(&fresh);
    Fixture { solver, a, ref_bits }
}

fn factor_bits(s: &block_fanout_cholesky::core::FactorSession) -> Vec<u64> {
    let (_, _, v) = s.factor().to_csc();
    v.iter().map(|x| x.to_bits()).collect()
}

/// The input values with one diagonal entry made strongly negative: a
/// matrix that shares the analyzed pattern but is not positive definite.
fn npd_values(a: &SymCscMatrix) -> Vec<f64> {
    let p = a.pattern();
    let mut v = a.values().to_vec();
    let j = p.n() / 2;
    for (e, &i) in p.col(j).iter().enumerate() {
        if i as usize == j {
            v[p.col_ptr()[j] + e] = -4.0;
        }
    }
    v
}

#[test]
fn prefired_cancel_poisons_then_recovers_bit_identically() {
    for seed in 0..24u64 {
        let fx = fixture(seed);
        let asg = fx.solver.assign_cyclic(4);
        let mut s = fx.solver.session_sched(&asg, &SchedOptions::default());
        let token = CancelToken::new();
        assert!(token.cancel());
        s.opts.cancel = Some(token.clone());
        let t0 = Instant::now();
        match s.refactor(fx.a.values()) {
            Err(SolverError::Factor(FactorError::Cancelled { reason, .. })) => {
                assert_eq!(reason, CancelReason::Caller, "seed {seed}");
            }
            other => panic!("seed {seed}: expected caller cancel, got {other:?}"),
        }
        assert!(t0.elapsed() < PROMPT, "seed {seed}: cancel not prompt");
        assert!(s.is_poisoned(), "seed {seed}");
        assert!(!s.is_factored(), "seed {seed}");
        assert_eq!(s.resilience().cancellations, 1, "seed {seed}");
        assert!(matches!(
            s.try_resolve(&vec![1.0; s.n()]),
            Err(SolverError::NotFactored)
        ));
        // Recovery: disarm the token and refactor the same values. The
        // result must be bit-identical to the fresh session's.
        s.opts.cancel = None;
        s.refactor(fx.a.values())
            .unwrap_or_else(|e| panic!("seed {seed}: recovery refactor failed: {e}"));
        assert!(!s.is_poisoned(), "seed {seed}");
        assert_eq!(s.resilience().recoveries, 1, "seed {seed}");
        assert_eq!(factor_bits(&s), fx.ref_bits, "seed {seed}: recovered bits differ");
        // And the recovered factor actually solves.
        let x = s.try_resolve(&vec![1.0; s.n()]).expect("solve after recovery");
        assert!(x.iter().all(|v| v.is_finite()), "seed {seed}");
    }
}

#[test]
fn expired_deadline_poisons_then_recovers_bit_identically() {
    for seed in 0..24u64 {
        let fx = fixture(seed);
        let asg = fx.solver.assign_cyclic(4);
        let mut s = fx.solver.session_sched(&asg, &SchedOptions::default());
        s.opts.deadline = Some(Duration::ZERO);
        match s.refactor(fx.a.values()) {
            Err(SolverError::Factor(FactorError::Cancelled { reason, .. })) => {
                assert_eq!(reason, CancelReason::Deadline, "seed {seed}");
            }
            other => panic!("seed {seed}: expected deadline cancel, got {other:?}"),
        }
        assert!(s.is_poisoned(), "seed {seed}");
        assert_eq!(s.resilience().deadline_misses, 1, "seed {seed}");
        assert_eq!(s.resilience().cancellations, 1, "seed {seed}");
        s.opts.deadline = None;
        s.refactor(fx.a.values())
            .unwrap_or_else(|e| panic!("seed {seed}: recovery refactor failed: {e}"));
        assert_eq!(factor_bits(&s), fx.ref_bits, "seed {seed}: recovered bits differ");
    }
}

#[test]
fn npd_input_retries_with_perturbation_then_recovers_cleanly() {
    for seed in 0..24u64 {
        let fx = fixture(seed);
        let asg = fx.solver.assign_cyclic(4);
        let bad = npd_values(&fx.a);

        // Default policy: the NPD attempt fails, the retry re-scatters and
        // perturbs, and the refactor reports success with the perturbation
        // on the record.
        let mut s = fx.solver.session_sched(&asg, &SchedOptions::default());
        s.refactor(&bad)
            .unwrap_or_else(|e| panic!("seed {seed}: perturbation retry failed: {e}"));
        assert!(s.resilience().retries >= 1, "seed {seed}");
        assert!(s.resilience().perturbed_pivots >= 1, "seed {seed}");
        // A perturbed factor is a factor of a modified matrix — the session
        // must still produce the clean bits for clean values afterwards.
        s.refactor(fx.a.values()).expect("clean refactor after perturbed one");
        assert_eq!(factor_bits(&s), fx.ref_bits, "seed {seed}: perturbation leaked");

        // Fail-fast policy: the same input is a structured pivot error that
        // poisons the session; clean values then recover it.
        let mut s = fx.solver.session_sched(&asg, &SchedOptions::default());
        s.retry = RetryPolicy::disabled();
        match s.refactor(&bad) {
            Err(SolverError::Factor(FactorError::NotPositiveDefinite { .. })) => {}
            other => panic!("seed {seed}: expected pivot failure, got {other:?}"),
        }
        assert!(s.is_poisoned(), "seed {seed}");
        s.refactor(fx.a.values())
            .unwrap_or_else(|e| panic!("seed {seed}: recovery refactor failed: {e}"));
        assert_eq!(s.resilience().recoveries, 1, "seed {seed}");
        assert_eq!(factor_bits(&s), fx.ref_bits, "seed {seed}: recovered bits differ");
    }
}

/// The sequential session keeps one kernel arena across refactors, and a
/// factored column's packed panels stay in it as the operand of that
/// column's updates. A refactor that ends early (pivot failure) or takes the
/// perturbing path leaves some column's pack behind; the next refactor must
/// not see it.
#[test]
fn sequential_session_arena_carries_nothing_across_failed_refactors() {
    for seed in 0..24u64 {
        let fx = fixture(seed);
        let bad = npd_values(&fx.a);

        let mut s = fx.solver.session();
        s.refactor(&bad)
            .unwrap_or_else(|e| panic!("seed {seed}: perturbation retry failed: {e}"));
        assert!(s.resilience().perturbed_pivots >= 1, "seed {seed}");
        s.refactor(fx.a.values()).expect("clean refactor after perturbed one");
        assert_eq!(factor_bits(&s), fx.ref_bits, "seed {seed}: perturbation leaked");

        let mut s = fx.solver.session();
        s.retry = RetryPolicy::disabled();
        match s.refactor(&bad) {
            Err(SolverError::Factor(FactorError::NotPositiveDefinite { .. })) => {}
            other => panic!("seed {seed}: expected pivot failure, got {other:?}"),
        }
        s.refactor(fx.a.values())
            .unwrap_or_else(|e| panic!("seed {seed}: recovery refactor failed: {e}"));
        assert_eq!(factor_bits(&s), fx.ref_bits, "seed {seed}: recovered bits differ");
    }
}

#[test]
fn worker_panics_surface_structured_and_leave_the_plan_reusable() {
    let mut failures = 0u32;
    for seed in 0..24u64 {
        let fx = fixture(seed);
        let asg = fx.solver.assign_cyclic(4);
        let opts = SchedOptions {
            faults: Some(FaultPlan::new(seed).with_panics(250)),
            stall_timeout: Some(Duration::from_secs(5)),
            ..Default::default()
        };
        let mut s = fx.solver.session_sched(&asg, &opts);
        s.retry = RetryPolicy::disabled();
        let t0 = Instant::now();
        match s.refactor(fx.a.values()) {
            Ok(()) => {
                // No task drew a fault this seed: the factor must be clean.
                assert_eq!(factor_bits(&s), fx.ref_bits, "seed {seed}");
            }
            Err(SolverError::Factor(FactorError::WorkerPanicked { .. })) => {
                failures += 1;
                assert!(s.is_poisoned(), "seed {seed}");
                assert_eq!(s.resilience().panics_contained, 1, "seed {seed}");
                assert!(matches!(
                    s.try_resolve(&vec![1.0; s.n()]),
                    Err(SolverError::NotFactored)
                ));
                // The shared plan is untouched by the poisoned session: a
                // clean session over the same solver reproduces the
                // reference bits.
                let mut clean =
                    fx.solver.session_sched(&asg, &SchedOptions::default());
                clean.refactor(fx.a.values()).expect("clean session refactor");
                assert_eq!(factor_bits(&clean), fx.ref_bits, "seed {seed}");
            }
            other => panic!("seed {seed}: unexpected outcome {other:?}"),
        }
        assert!(t0.elapsed() < PROMPT, "seed {seed}: not prompt");
    }
    assert!(failures >= 8, "only {failures}/24 seeds hit a panic fault");
}

#[test]
fn vanished_tasks_stall_structured_under_a_short_watchdog() {
    let mut stalls = 0u32;
    for seed in 0..24u64 {
        let fx = fixture(seed);
        let asg = fx.solver.assign_cyclic(4);
        let opts = SchedOptions {
            faults: Some(FaultPlan::new(seed).with_lost_tasks(200)),
            stall_timeout: Some(Duration::from_millis(300)),
            ..Default::default()
        };
        let mut s = fx.solver.session_sched(&asg, &opts);
        s.retry = RetryPolicy::disabled();
        let t0 = Instant::now();
        match s.refactor(fx.a.values()) {
            Ok(()) => assert_eq!(factor_bits(&s), fx.ref_bits, "seed {seed}"),
            Err(SolverError::Factor(FactorError::Stalled(report))) => {
                stalls += 1;
                assert!(report.columns_done < report.columns_total, "seed {seed}");
                assert!(s.is_poisoned(), "seed {seed}");
                assert_eq!(s.resilience().stalls, 1, "seed {seed}");
            }
            other => panic!("seed {seed}: unexpected outcome {other:?}"),
        }
        assert!(t0.elapsed() < PROMPT, "seed {seed}: watchdog not prompt");
    }
    assert!(stalls >= 8, "only {stalls}/24 seeds hit a vanish fault");
}

#[test]
fn session_stall_timeout_is_the_sessions_sched_option() {
    // The watchdog a session runs under is the one in its options — set at
    // open or, as here, on the open session — and nothing else.
    let prob = gen::grid2d(8);
    let solver = Solver::analyze(&prob.matrix, &SolverOptions::default());
    let asg = solver.assign_cyclic(4);
    let sched = SchedOptions {
        faults: Some(FaultPlan::new(3).with_lost_tasks(1000)),
        ..Default::default()
    };
    let mut s = solver.session_sched(&asg, &sched);
    s.opts.stall_timeout = Some(Duration::from_millis(250));
    s.retry = RetryPolicy::disabled();
    let t0 = Instant::now();
    match s.refactor(prob.matrix.values()) {
        Err(SolverError::Factor(FactorError::Stalled(report))) => {
            assert_eq!(report.timeout, Duration::from_millis(250));
        }
        other => panic!("expected stall, got {other:?}"),
    }
    // The 250ms watchdog, not the 60s default, must have fired.
    assert!(t0.elapsed() < Duration::from_secs(10), "watchdog did not downscale");
}
