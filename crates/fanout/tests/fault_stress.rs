//! Fault-injection stress tests for the work-stealing scheduler.
//!
//! The contract under test (ISSUE: fault-tolerant factorization): with
//! panics, delays, lost tasks, and indefinite pivots injected, every
//! `factorize_sched_opts` run must either
//!
//! * complete with a factor **bit-identical** to the sequential
//!   factorization of the identically-perturbed input, or
//! * return a **structured error** (`WorkerPanicked`, `NotPositiveDefinite`
//!   at the sequential column, or `Stalled`)
//!
//! within the watchdog deadline — zero hangs, zero process aborts. Fault
//! placement is a pure function of `(seed, task)`, so any failing seed
//! replays exactly.

use blockmat::{BlockMatrix, BlockWork, WorkModel};
use dense::KernelArena;
use fanout::{
    factorize_sched_opts, factorize_seq, factorize_seq_opts, Error, FaultPlan, NumericFactor,
    Plan, SchedOptions,
};
use mapping::Assignment;
use std::sync::Arc;
use std::time::{Duration, Instant};
use symbolic::AmalgamationOpts;

fn prepared_with(
    prob: &sparsemat::Problem,
    bs: usize,
    p: usize,
    amalg: &AmalgamationOpts,
) -> (NumericFactor, Plan) {
    let perm = ordering::order_problem(prob);
    let analysis = symbolic::analyze(prob.matrix.pattern(), &perm, amalg);
    let pa = analysis.perm.apply_to_matrix(&prob.matrix);
    let bm = Arc::new(BlockMatrix::build(analysis.supernodes, bs));
    let w = BlockWork::compute(&bm, &WorkModel::default());
    let asg = Assignment::cyclic(&bm, &w, p);
    let plan = Plan::build(&bm, &asg);
    let f = NumericFactor::from_matrix(bm, &pa);
    (f, plan)
}

fn prepared(prob: &sparsemat::Problem, bs: usize, p: usize) -> (NumericFactor, Plan) {
    prepared_with(prob, bs, p, &AmalgamationOpts::default())
}

fn assert_bit_identical(f_seq: &NumericFactor, f_par: &NumericFactor, what: &str) {
    let (_, _, v_seq) = f_seq.to_csc();
    let (_, _, v_par) = f_par.to_csc();
    assert_eq!(v_seq.len(), v_par.len(), "{what}: factor size differs");
    for (i, (a, b)) in v_seq.iter().zip(&v_par).enumerate() {
        assert!(a.to_bits() == b.to_bits(), "{what}: entry {i} differs: {a:e} vs {b:e}");
    }
}

/// Hard ceiling on any single run: generous multiple of the watchdog
/// timeout used below, so a hung scheduler fails the test rather than the
/// CI job.
const DEADLINE: Duration = Duration::from_secs(30);
const WATCHDOG: Duration = Duration::from_secs(5);

/// Runs one faulted schedule and checks the outcome against the sequential
/// result on the identically-perturbed input.
fn run_one(f0: &NumericFactor, plan: &Plan, fp: &FaultPlan, seed: u64, what: &str) {
    // Perturb two copies identically (inject_npd is deterministic).
    let mut f_seq = f0.clone();
    let mut f_par = f0.clone();
    let cols_seq = fp.inject_npd(&mut f_seq);
    let cols_par = fp.inject_npd(&mut f_par);
    assert_eq!(cols_seq, cols_par, "{what}: NPD injection must be deterministic");
    let expected = factorize_seq(&mut f_seq);
    if let Some(&c) = cols_seq.first() {
        assert_eq!(
            expected,
            Err(Error::NotPositiveDefinite { col: c }),
            "{what}: seq must fail at the smallest injected column"
        );
    }

    let opts = SchedOptions {
        workers: Some(3),
        seed: Some(seed), // scheduling jitter on top of the faults
        stall_timeout: Some(WATCHDOG),
        faults: Some(fp.clone()),
        ..Default::default()
    };
    let t0 = Instant::now();
    let result = factorize_sched_opts(&mut f_par, plan, &opts);
    let elapsed = t0.elapsed();
    assert!(elapsed < DEADLINE, "{what}: run took {elapsed:?}, watchdog failed to bound it");

    match result {
        Ok(_) => {
            assert!(
                expected.is_ok(),
                "{what}: scheduler succeeded where sequential failed with {expected:?}"
            );
            assert_bit_identical(&f_seq, &f_par, what);
        }
        Err(Error::NotPositiveDefinite { col }) => {
            assert_eq!(
                expected,
                Err(Error::NotPositiveDefinite { col }),
                "{what}: NPD column must match the sequential convention"
            );
        }
        Err(Error::WorkerPanicked { .. }) => {
            assert!(fp.panic_per_mille > 0, "{what}: spurious panic with no panics armed");
        }
        Err(Error::Stalled(report)) => {
            assert!(fp.vanish_per_mille > 0, "{what}: spurious stall: {report}");
        }
        Err(e @ Error::Cancelled { .. }) => {
            // No token or deadline is armed in this harness; a watchdog
            // stall must keep reporting as Stalled, never as Cancelled.
            panic!("{what}: spurious cancellation: {e}");
        }
    }
}

#[test]
fn executors_agree_on_amalgamated_plans() {
    // Amalgamation pads blocks with explicit zeros; both drivers must walk
    // the padded structure identically, so the bit-identity that holds on
    // fundamental plans must survive merging unchanged.
    for (prob, bs) in [
        (sparsemat::gen::grid2d(12), 4usize),
        (sparsemat::gen::bcsstk_like("T", 240, 4), 6),
    ] {
        let mut blocks_seen = Vec::new();
        for amalg in [AmalgamationOpts::off(), AmalgamationOpts::default()] {
            let (f0, plan) = prepared_with(&prob, bs, 9, &amalg);
            blocks_seen.push(f0.bm.num_blocks());
            let mut f_seq = f0.clone();
            factorize_seq(&mut f_seq).expect("seq");
            for workers in [1usize, 3] {
                let mut f_sched = f0.clone();
                let opts = SchedOptions {
                    workers: Some(workers),
                    stall_timeout: Some(WATCHDOG),
                    ..Default::default()
                };
                factorize_sched_opts(&mut f_sched, &plan, &opts).expect("sched");
                assert_bit_identical(
                    &f_seq,
                    &f_sched,
                    &format!("{} sched workers={workers}", prob.name),
                );
            }
        }
        assert!(
            blocks_seen[1] < blocks_seen[0],
            "{}: amalgamation merged nothing ({blocks_seen:?})",
            prob.name
        );
    }
}

#[test]
fn sweep_seeds_and_fault_kinds() {
    let prob = sparsemat::gen::grid2d(10);
    let (f0, plan) = prepared(&prob, 3, 16);
    for seed in 0..24u64 {
        let kinds: [(&str, FaultPlan); 4] = [
            ("panics", FaultPlan::new(seed).with_panics(25)),
            ("delays", FaultPlan::new(seed).with_delays(120, 300)),
            ("npd", FaultPlan::new(seed).with_npd(60)),
            (
                "mixed",
                FaultPlan::new(seed).with_panics(10).with_delays(80, 200).with_npd(30),
            ),
        ];
        for (name, fp) in kinds {
            run_one(&f0, &plan, &fp, seed, &format!("seed {seed}, {name}"));
        }
    }
}

#[test]
fn delays_only_runs_complete_bit_identical() {
    // Delays perturb timing, never numerics: every run must *complete* and
    // bit-match, not merely avoid crashing.
    let prob = sparsemat::gen::grid2d(10);
    let (f0, plan) = prepared(&prob, 3, 16);
    let mut f_seq = f0.clone();
    factorize_seq(&mut f_seq).unwrap();
    for seed in 0..8u64 {
        let mut f_par = f0.clone();
        let opts = SchedOptions {
            workers: Some(4),
            seed: Some(seed),
            stall_timeout: Some(WATCHDOG),
            faults: Some(FaultPlan::new(seed).with_delays(250, 400)),
            ..Default::default()
        };
        factorize_sched_opts(&mut f_par, &plan, &opts)
            .unwrap_or_else(|e| panic!("delays-only seed {seed} failed: {e}"));
        assert_bit_identical(&f_seq, &f_par, &format!("delays-only seed {seed}"));
    }
}

#[test]
fn inert_plan_is_bit_identical_to_no_plan() {
    // The harness compiled in but disabled must not change a single bit.
    let prob = sparsemat::gen::bcsstk_like("T", 150, 3);
    let (f0, plan) = prepared(&prob, 4, 16);
    let mut f_seq = f0.clone();
    factorize_seq(&mut f_seq).unwrap();
    let inert = FaultPlan::new(123);
    assert!(inert.is_inert());
    assert_eq!(inert.inject_npd(&mut f0.clone()), vec![]);
    let mut f_par = f0.clone();
    let opts = SchedOptions { faults: Some(inert), ..Default::default() };
    factorize_sched_opts(&mut f_par, &plan, &opts).unwrap();
    assert_bit_identical(&f_seq, &f_par, "inert fault plan");
}

#[test]
fn every_task_panicking_is_contained() {
    let prob = sparsemat::gen::grid2d(8);
    let (f0, plan) = prepared(&prob, 3, 4);
    let mut f = f0.clone();
    let opts = SchedOptions {
        faults: Some(FaultPlan::new(1).with_panics(1000)),
        stall_timeout: Some(WATCHDOG),
        ..Default::default()
    };
    match factorize_sched_opts(&mut f, &plan, &opts) {
        Err(Error::WorkerPanicked { block, payload }) => {
            assert!(block.is_some(), "injected panics happen inside tasks");
            assert!(payload.contains("injected fault"), "payload: {payload}");
        }
        other => panic!("expected WorkerPanicked, got {other:?}"),
    }
}

#[test]
fn lost_tasks_trip_the_watchdog() {
    let prob = sparsemat::gen::grid2d(10);
    let (f0, plan) = prepared(&prob, 3, 16);
    for seed in [3u64, 11, 19] {
        let mut f = f0.clone();
        let timeout = Duration::from_millis(300);
        let opts = SchedOptions {
            workers: Some(3),
            stall_timeout: Some(timeout),
            faults: Some(FaultPlan::new(seed).with_lost_tasks(200)),
            ..Default::default()
        };
        let t0 = Instant::now();
        let result = factorize_sched_opts(&mut f, &plan, &opts);
        let elapsed = t0.elapsed();
        assert!(elapsed < DEADLINE, "seed {seed}: stall not bounded ({elapsed:?})");
        match result {
            Err(Error::Stalled(report)) => {
                assert_eq!(report.timeout, timeout);
                assert!(
                    report.columns_done < report.columns_total,
                    "seed {seed}: a stalled run cannot have finished: {report}"
                );
            }
            other => panic!("seed {seed}: expected Stalled, got {other:?}"),
        }
    }
}

#[test]
fn npd_perturbation_recovers_and_matches_seq() {
    // Graceful degradation: with perturb_npd set, an injected indefinite
    // pivot is boosted instead of fatal — identically in the sequential and
    // scheduled executors, so the factors still bit-match.
    let prob = sparsemat::gen::grid2d(9);
    let (f0, plan) = prepared(&prob, 3, 4);
    let fp = FaultPlan::new(5).with_npd(100);
    let mut f_seq = f0.clone();
    let mut f_par = f0.clone();
    let injected = fp.inject_npd(&mut f_seq);
    fp.inject_npd(&mut f_par);
    assert!(!injected.is_empty(), "seed 5 must hit at least one panel");

    let tau = 1e-6;
    let opts = SchedOptions { perturb_npd: Some(tau), ..Default::default() };
    let stats_seq = factorize_seq_opts(&mut f_seq, &opts, &mut KernelArena::new()).unwrap();
    assert!(!stats_seq.perturbed_pivots.is_empty());
    for c in &injected {
        assert!(
            stats_seq.perturbed_pivots.contains(c),
            "injected column {c} should appear in {:?}",
            stats_seq.perturbed_pivots
        );
    }

    let stats_par = factorize_sched_opts(&mut f_par, &plan, &opts).unwrap();
    assert_eq!(stats_par.pivot_perturbations, stats_seq.perturbed_pivots.len() as u64);
    assert_bit_identical(&f_seq, &f_par, "perturbed NPD recovery");
}

#[test]
fn perturbation_is_off_by_default() {
    // Default options must behave exactly like plain factorize_seq:
    // same structured NPD error on a perturbed input, bit-identical factor
    // on a clean one.
    let prob = sparsemat::gen::grid2d(9);
    let (f0, _) = prepared(&prob, 3, 4);
    let fp = FaultPlan::new(5).with_npd(100);
    let mut f_a = f0.clone();
    let mut f_b = f0.clone();
    fp.inject_npd(&mut f_a);
    fp.inject_npd(&mut f_b);
    let plain = factorize_seq(&mut f_a).unwrap_err();
    let defaults = SchedOptions::default();
    let opted = factorize_seq_opts(&mut f_b, &defaults, &mut KernelArena::new()).unwrap_err();
    assert_eq!(plain, opted);

    let mut f_c = f0.clone();
    let mut f_d = f0.clone();
    factorize_seq(&mut f_c).unwrap();
    let stats = factorize_seq_opts(&mut f_d, &defaults, &mut KernelArena::new()).unwrap();
    assert!(stats.perturbed_pivots.is_empty());
    assert_bit_identical(&f_c, &f_d, "default options vs factorize_seq");
}

#[test]
fn both_drivers_agree_on_the_failing_column() {
    // Two independent indefinite 2x2 diagonal blocks: columns 1 and 3 both
    // fail their pivot; both drivers must report the smaller (column 1),
    // whatever the worker count and the order workers reach them in.
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
    let f0 = NumericFactor::from_matrix(bm, &a);
    let want = Error::NotPositiveDefinite { col: 1 };

    assert_eq!(factorize_seq(&mut f0.clone()), Err(want.clone()), "seq");
    for workers in [1usize, 2, 4] {
        let opts = SchedOptions { workers: Some(workers), ..Default::default() };
        assert_eq!(
            factorize_sched_opts(&mut f0.clone(), &plan, &opts).unwrap_err(),
            want,
            "sched workers={workers}"
        );
    }
}
