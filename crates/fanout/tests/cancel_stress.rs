//! Cancellation and deadline stress tests across the numeric drivers.
//!
//! The contract under test (ISSUE: cancellation and deadlines): a fired
//! [`CancelToken`] or an expired deadline must stop any executor
//! *promptly* (bounded wall-clock, no hang), *cleanly* (a structured
//! [`Error::Cancelled`] with a progress snapshot — never a panic, never a
//! poisoned or racing factor), and *recoverably* (re-running the original
//! values on the same storage produces the exact bits of an undisturbed
//! run). The stall watchdog rides the same token internally but keeps its
//! back-compatible [`Error::Stalled`] surface, and the reason precedence
//! is caller > deadline > stall.

use blockmat::{BlockMatrix, BlockWork, WorkModel};
use dense::KernelArena;
use fanout::{
    factorize_sched_opts, factorize_seq, factorize_seq_opts, CancelReason, CancelToken, Error,
    FaultPlan, NumericFactor, Plan, SchedOptions,
};
use mapping::Assignment;
use std::sync::Arc;
use std::time::{Duration, Instant};
use symbolic::AmalgamationOpts;

/// Hard ceiling on any cancelled run: far above the poll interval
/// involved (100ms supervisor tick), far below a hang.
const PROMPT: Duration = Duration::from_secs(10);

fn prepared(prob: &sparsemat::Problem, bs: usize, p: usize) -> (NumericFactor, Plan) {
    let perm = ordering::order_problem(prob);
    let analysis =
        symbolic::analyze(prob.matrix.pattern(), &perm, &AmalgamationOpts::default());
    let pa = analysis.perm.apply_to_matrix(&prob.matrix);
    let bm = Arc::new(BlockMatrix::build(analysis.supernodes, bs));
    let w = BlockWork::compute(&bm, &WorkModel::default());
    let asg = Assignment::cyclic(&bm, &w, p);
    let plan = Plan::build(&bm, &asg);
    let f = NumericFactor::from_matrix(bm, &pa);
    (f, plan)
}

fn assert_bit_identical(f_a: &NumericFactor, f_b: &NumericFactor, what: &str) {
    let (_, _, va) = f_a.to_csc();
    let (_, _, vb) = f_b.to_csc();
    assert_eq!(va.len(), vb.len(), "{what}: factor size differs");
    for (i, (a, b)) in va.iter().zip(&vb).enumerate() {
        assert!(a.to_bits() == b.to_bits(), "{what}: entry {i} differs: {a:e} vs {b:e}");
    }
}

/// Runs `run` against a bounded clock and asserts it returned
/// `Cancelled` with the expected reason and a sane progress snapshot.
fn expect_cancelled(
    run: impl FnOnce() -> Result<(), Error>,
    want: CancelReason,
    what: &str,
) {
    let t0 = Instant::now();
    let result = run();
    let elapsed = t0.elapsed();
    assert!(elapsed < PROMPT, "{what}: cancellation took {elapsed:?}");
    match result {
        Err(Error::Cancelled { reason, progress }) => {
            assert_eq!(reason, want, "{what}: wrong reason");
            assert!(
                progress.columns_done <= progress.columns_total,
                "{what}: nonsense progress: {progress}"
            );
            assert!(progress.columns_total > 0, "{what}: empty snapshot");
            // The error formats without panicking and names the cause.
            let msg = Error::Cancelled { reason, progress }.to_string();
            let needle = if want == CancelReason::Deadline { "deadline" } else { "cancelled" };
            assert!(msg.contains(needle), "{what}: display {msg:?}");
        }
        other => panic!("{what}: expected Cancelled({want}), got {other:?}"),
    }
}

#[test]
fn pre_fired_token_cancels_every_executor_promptly() {
    let prob = sparsemat::gen::grid2d(10);
    let (f0, plan) = prepared(&prob, 3, 9);
    let fired = || {
        let t = CancelToken::new();
        assert!(t.cancel());
        t
    };
    expect_cancelled(
        || {
            let opts = SchedOptions {
                workers: Some(3),
                cancel: Some(fired()),
                ..Default::default()
            };
            factorize_sched_opts(&mut f0.clone(), &plan, &opts).map(|_| ())
        },
        CancelReason::Caller,
        "sched pre-fired",
    );
    expect_cancelled(
        || {
            let opts = SchedOptions { cancel: Some(fired()), ..Default::default() };
            factorize_seq_opts(&mut f0.clone(), &opts, &mut KernelArena::new()).map(|_| ())
        },
        CancelReason::Caller,
        "seq pre-fired",
    );
}

#[test]
fn zero_deadline_expires_every_executor() {
    let prob = sparsemat::gen::grid2d(10);
    let (f0, plan) = prepared(&prob, 3, 9);
    let dl = Some(Duration::ZERO);
    expect_cancelled(
        || {
            let opts =
                SchedOptions { workers: Some(3), deadline: dl, ..Default::default() };
            factorize_sched_opts(&mut f0.clone(), &plan, &opts).map(|_| ())
        },
        CancelReason::Deadline,
        "sched zero deadline",
    );
    expect_cancelled(
        || {
            let opts = SchedOptions { deadline: dl, ..Default::default() };
            factorize_seq_opts(&mut f0.clone(), &opts, &mut KernelArena::new()).map(|_| ())
        },
        CancelReason::Deadline,
        "seq zero deadline",
    );
}

#[test]
fn midrun_cancel_under_delay_faults_drains_cleanly() {
    // Delay faults stretch the run so the cancel lands mid-flight; over
    // many seeds the token fires at varied points of the schedule. The
    // cancelled storage must then be fully recoverable: re-scattering the
    // original values and factorizing produces the undisturbed bits.
    let prob = sparsemat::gen::grid2d(10);
    let (f0, plan) = prepared(&prob, 3, 16);
    let mut f_ref = f0.clone();
    factorize_seq(&mut f_ref).unwrap();
    let mut cancelled_runs = 0;
    for seed in 0..12u64 {
        let token = CancelToken::new();
        let opts = SchedOptions {
            workers: Some(3),
            seed: Some(seed),
            cancel: Some(token.clone()),
            faults: Some(FaultPlan::new(seed).with_delays(400, 900)),
            stall_timeout: Some(Duration::from_secs(5)),
            ..Default::default()
        };
        let mut f = f0.clone();
        let t0 = Instant::now();
        let result = std::thread::scope(|s| {
            let h = s.spawn(|| {
                // Stagger the fire point by seed (0..6ms).
                std::thread::sleep(Duration::from_micros(500 * seed));
                token.cancel()
            });
            let r = factorize_sched_opts(&mut f, &plan, &opts);
            h.join().expect("canceller thread");
            r
        });
        assert!(t0.elapsed() < PROMPT, "seed {seed}: not prompt");
        match result {
            Ok(_) => {} // the run beat the cancel — fine
            Err(Error::Cancelled { reason, progress }) => {
                assert_eq!(reason, CancelReason::Caller, "seed {seed}");
                assert!(progress.columns_done <= progress.columns_total);
                cancelled_runs += 1;
                // Recovery: re-scatter the original values and re-run.
                f = f0.clone();
                factorize_sched_opts(
                    &mut f,
                    &plan,
                    &SchedOptions { workers: Some(3), ..Default::default() },
                )
                .unwrap_or_else(|e| panic!("seed {seed}: recovery failed: {e}"));
                assert_bit_identical(&f_ref, &f, &format!("seed {seed} recovery"));
            }
            other => panic!("seed {seed}: unexpected outcome {other:?}"),
        }
    }
    assert!(cancelled_runs >= 4, "only {cancelled_runs}/12 runs observed the cancel");
}

#[test]
fn caller_cancel_wins_over_concurrent_deadline() {
    // Both mechanisms armed and the token fired before entry: the caller's
    // reason must win even though the deadline has also long expired.
    let prob = sparsemat::gen::grid2d(9);
    let (f0, plan) = prepared(&prob, 3, 4);
    let token = CancelToken::new();
    assert!(token.cancel_with(CancelReason::Caller));
    let opts = SchedOptions {
        workers: Some(2),
        cancel: Some(token),
        deadline: Some(Duration::ZERO),
        ..Default::default()
    };
    expect_cancelled(
        || factorize_sched_opts(&mut f0.clone(), &plan, &opts).map(|_| ()),
        CancelReason::Caller,
        "caller beats deadline",
    );
}

#[test]
fn reset_token_is_reusable_for_a_clean_run() {
    let prob = sparsemat::gen::grid2d(9);
    let (f0, plan) = prepared(&prob, 3, 4);
    let mut f_ref = f0.clone();
    factorize_seq(&mut f_ref).unwrap();

    let token = CancelToken::new();
    assert!(token.cancel());
    let opts = SchedOptions {
        workers: Some(2),
        cancel: Some(token.clone()),
        ..Default::default()
    };
    let mut f = f0.clone();
    assert!(matches!(
        factorize_sched_opts(&mut f, &plan, &opts),
        Err(Error::Cancelled { reason: CancelReason::Caller, .. })
    ));
    // Reset bumps the generation: the same token now reads un-fired, and
    // the same storage recovers by re-scattering the original values.
    token.reset();
    assert!(token.cancelled().is_none());
    f = f0.clone();
    factorize_sched_opts(&mut f, &plan, &opts).expect("post-reset run completes");
    assert_bit_identical(&f_ref, &f, "post-reset factor");
}

#[test]
fn generous_deadline_never_fires() {
    // A deadline far beyond the runtime must leave the result and the
    // bits completely untouched, in both drivers.
    let prob = sparsemat::gen::grid2d(9);
    let (f0, plan) = prepared(&prob, 3, 4);
    let mut f_ref = f0.clone();
    factorize_seq(&mut f_ref).unwrap();
    let dl = Some(Duration::from_secs(600));

    let mut f_sched = f0.clone();
    let opts = SchedOptions { workers: Some(2), deadline: dl, ..Default::default() };
    factorize_sched_opts(&mut f_sched, &plan, &opts).unwrap();
    assert_bit_identical(&f_ref, &f_sched, "sched generous deadline");

    let mut f_seq = f0.clone();
    factorize_seq_opts(&mut f_seq, &opts, &mut KernelArena::new()).unwrap();
    assert_bit_identical(&f_ref, &f_seq, "seq generous deadline");
}

#[test]
fn seq_deadline_reports_column_progress() {
    // The sequential executor checks between block columns; a deadline that
    // expires mid-run must report exactly how far it got.
    let prob = sparsemat::gen::grid2d(12);
    let (f0, _) = prepared(&prob, 3, 4);
    let mut f = f0.clone();
    let opts = SchedOptions { deadline: Some(Duration::ZERO), ..Default::default() };
    match factorize_seq_opts(&mut f, &opts, &mut KernelArena::new()) {
        Err(Error::Cancelled { reason: CancelReason::Deadline, progress }) => {
            assert_eq!(progress.columns_done, 0, "zero deadline stops before column 0");
            assert_eq!(progress.columns_total, f.bm.num_panels());
        }
        other => panic!("expected deadline cancel, got {other:?}"),
    }
}
