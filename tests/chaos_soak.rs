//! Chaos soak: concurrent solver-service sessions over one shared symbolic
//! plan, under injected worker panics, lost tasks, pre-fired cancellations,
//! expired deadlines, indefinite inputs, and admission pressure — all at
//! once, across 48 deterministic seeds.
//!
//! Gates:
//!
//! 1. **Zero hangs** — every chaos refactor resolves (Ok or structured
//!    error) within a hard wall-clock ceiling.
//! 2. **No corruption** — every refactor that reports Ok on unperturbed
//!    values is bit-identical to the sequential factorization of the same
//!    values.
//! 3. **Recovery** — after its chaos cycle, every session performs a clean
//!    refactor that is bit-identical to the sequential reference, whatever
//!    failure poisoned it before.
//! 4. **Flat steady state** — once warm, clean refactor/resolve cycles are
//!    allocation-free: net live bytes across the soak loop stay flat
//!    (measured by a counting global allocator).
//! 5. **One copy of L** — opening, first-refactoring and resolving a
//!    sequential session adds no more live bytes than the block factor, the
//!    input scatter map (40 B per input entry), 64 B per row and the kernel
//!    arena: no second copy of the factor rides along.
//!
//! Plus admission control: a budget below the plan's resource estimate is
//! rejected, one above it admits and serves the cached plan.
//!
//! The counting allocator sees every thread of this test binary, so the
//! soak is its only test and lives in a file of its own.

use block_fanout_cholesky::core::{
    CancelToken, FaultPlan, NumericFactor, PlanCache, ResourceBudget, RetryPolicy, SchedOptions,
    Solver, SolverError, SolverOptions,
};
use block_fanout_cholesky::dense::KernelArena;
use block_fanout_cholesky::fanout::{factorize_seq_opts, Error as FactorError};
use block_fanout_cholesky::sparsemat::{gen, Problem, SymCscMatrix};
use std::alloc::{GlobalAlloc, Layout, System};
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::{Arc, Mutex};
use std::time::{Duration, Instant};

/// System allocator wrapped with live-byte accounting, so gate 4 can assert
/// the steady-state service loop allocates nothing.
struct CountingAlloc;

static ALLOC_BYTES: AtomicU64 = AtomicU64::new(0);
static DEALLOC_BYTES: AtomicU64 = AtomicU64::new(0);

// SAFETY: every method forwards to `System` with the caller's arguments
// unchanged; the counters are side effects that never touch the memory.
unsafe impl GlobalAlloc for CountingAlloc {
    unsafe fn alloc(&self, layout: Layout) -> *mut u8 {
        ALLOC_BYTES.fetch_add(layout.size() as u64, Ordering::Relaxed);
        unsafe { System.alloc(layout) }
    }
    unsafe fn dealloc(&self, ptr: *mut u8, layout: Layout) {
        DEALLOC_BYTES.fetch_add(layout.size() as u64, Ordering::Relaxed);
        unsafe { System.dealloc(ptr, layout) }
    }
    unsafe fn realloc(&self, ptr: *mut u8, layout: Layout, new_size: usize) -> *mut u8 {
        ALLOC_BYTES.fetch_add(new_size as u64, Ordering::Relaxed);
        DEALLOC_BYTES.fetch_add(layout.size() as u64, Ordering::Relaxed);
        unsafe { System.realloc(ptr, layout, new_size) }
    }
}

#[global_allocator]
static ALLOCATOR: CountingAlloc = CountingAlloc;

fn net_live_bytes() -> i64 {
    ALLOC_BYTES.load(Ordering::Relaxed) as i64 - DEALLOC_BYTES.load(Ordering::Relaxed) as i64
}

const SEEDS: u64 = 48;
const THREADS: usize = 4;
const SOAK_CYCLES: usize = 40;
/// Hard ceiling on any single chaos refactor (gate 1).
const PROMPT: Duration = Duration::from_secs(30);

/// One chaos scenario, drawn deterministically from the seed.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
enum Scenario {
    Clean,
    Panics,
    LostTasks,
    PrefiredCancel,
    MidrunCancel,
    ZeroDeadline,
    NpdInput,
}

const SCENARIOS: [Scenario; 7] = [
    Scenario::Clean,
    Scenario::Panics,
    Scenario::LostTasks,
    Scenario::PrefiredCancel,
    Scenario::MidrunCancel,
    Scenario::ZeroDeadline,
    Scenario::NpdInput,
];

impl Scenario {
    fn of(seed: u64) -> Self {
        SCENARIOS[(seed % SCENARIOS.len() as u64) as usize]
    }
}

/// SPD-preserving value sets: positive scaling plus diagonal inflation.
fn value_sets(a: &SymCscMatrix, count: usize) -> Vec<Vec<f64>> {
    let pattern = a.pattern();
    let mut diag = vec![false; pattern.nnz()];
    for j in 0..pattern.n() {
        for (e, &i) in pattern.col(j).iter().enumerate() {
            if i as usize == j {
                diag[pattern.col_ptr()[j] + e] = true;
            }
        }
    }
    (0..count)
        .map(|s| {
            let scale = 1.0 + 0.01 * s as f64;
            let bump = 1.0 + 0.05 * ((s * 7 + 3) % 11) as f64;
            a.values()
                .iter()
                .zip(&diag)
                .map(|(&v, &d)| if d { v * scale * bump } else { v * scale })
                .collect()
        })
        .collect()
}

/// The value set with one diagonal entry driven strongly negative.
fn npd_values(a: &SymCscMatrix, base: &[f64]) -> Vec<f64> {
    let p = a.pattern();
    let mut v = base.to_vec();
    let j = p.n() / 2;
    for (e, &i) in p.col(j).iter().enumerate() {
        if i as usize == j {
            v[p.col_ptr()[j] + e] = -8.0;
        }
    }
    v
}

fn bits_of(f: &NumericFactor) -> Vec<u64> {
    let (_, _, v) = f.to_csc();
    v.iter().map(|x| x.to_bits()).collect()
}

/// Per-scenario outcome tallies across all seeds.
#[derive(Default, Clone, Copy)]
struct Tally {
    runs: u64,
    ok: u64,
    structured_errors: u64,
    recoveries: u64,
}

#[test]
fn concurrent_sessions_survive_chaos_and_recover_bit_identically() {
    let problem = gen::grid2d(20);
    let opts = SolverOptions { block_size: 8, ..Default::default() };
    let cache = PlanCache::new();
    let solver = cache.solver_for_problem(&problem, &opts);
    let n = problem.n();
    let vals = value_sets(&problem.matrix, 8);
    let b: Vec<f64> = (0..n).map(|i| 1.0 + (i as f64 * 0.17).sin()).collect();

    // Gate 5, first, while no other thread allocates. The arena a first
    // refactor grows is measured on a twin factorization beforehand.
    let fresh = Solver::analyze_problem(&problem, &opts);
    let mut arena = KernelArena::new();
    factorize_seq_opts(&mut fresh.assemble(), &SchedOptions::default(), &mut arena)
        .expect("SPD by construction");
    let live_before = net_live_bytes();
    let mut session = fresh.session();
    session.refactor(problem.matrix.values()).expect("SPD by construction");
    let x = session.resolve(&b);
    let added = net_live_bytes() - live_before;
    let allowed = fresh.plan.resource_estimate().factor_bytes as i64
        + 40 * session.input_nnz() as i64
        + 64 * n as i64
        + 8 * arena.reserved() as i64;
    assert!(
        added <= allowed,
        "a session holds {added} live bytes, more than the {allowed} its factor needs"
    );
    drop((session, x, fresh));

    // Sequential reference bits for every value set (gates 2 and 3).
    let ref_bits: Vec<Vec<u64>> = vals
        .iter()
        .map(|vs| {
            let fresh_prob = Problem {
                matrix: SymCscMatrix::new(problem.matrix.pattern().clone(), vs.clone())
                    .expect("value set matches pattern"),
                ..problem.clone()
            };
            let fresh = Solver::analyze_problem(&fresh_prob, &opts);
            bits_of(&fresh.factor_seq().expect("sequential reference factor"))
        })
        .collect();

    // Admission control: a budget below the symbolic estimate must reject,
    // one above it must admit — both without touching the cached plan.
    let estimate = solver.plan.resource_estimate();
    let tight = SolverOptions {
        budget: Some(ResourceBudget {
            max_factor_bytes: Some(estimate.factor_bytes / 2),
            max_flops: None,
        }),
        ..opts
    };
    match cache.try_solver_for_problem(&problem, &tight) {
        Err(SolverError::BudgetExceeded { .. }) => {}
        other => panic!("tight budget must be rejected, got {:?}", other.map(|_| ())),
    }
    let roomy = SolverOptions {
        budget: Some(ResourceBudget {
            max_factor_bytes: Some(estimate.factor_bytes * 2),
            max_flops: Some(estimate.flops * 2),
        }),
        ..opts
    };
    let admitted = cache.try_solver_for_problem(&problem, &roomy).expect("roomy budget must admit");
    assert!(Arc::ptr_eq(&admitted.plan, &solver.plan), "admission must serve the cached plan");
    drop(admitted);

    // Chaos phase: THREADS concurrent sessions over the shared plan, each
    // draining its slice of the seed matrix. Every seed is one chaos
    // refactor followed by a clean recovery refactor (gate 3).
    let asg = solver.assign_cyclic(4);
    let hangs = Mutex::new(Vec::<String>::new());
    let tallies: Vec<[Tally; 7]> = std::thread::scope(|scope| {
        let handles: Vec<_> = (0..THREADS)
            .map(|tid| {
                let (solver, asg, vals, ref_bits, problem, b, hangs) =
                    (&solver, &asg, &vals, &ref_bits, &problem, &b, &hangs);
                scope.spawn(move || {
                    let mut tally = [Tally::default(); 7];
                    for seed in (tid as u64..SEEDS).step_by(THREADS) {
                        let scen = Scenario::of(seed);
                        let vi = (seed as usize) % vals.len();
                        let sched = match scen {
                            Scenario::Panics => SchedOptions {
                                faults: Some(FaultPlan::new(seed).with_panics(200)),
                                stall_timeout: Some(Duration::from_secs(5)),
                                ..Default::default()
                            },
                            Scenario::LostTasks => SchedOptions {
                                faults: Some(FaultPlan::new(seed).with_lost_tasks(150)),
                                stall_timeout: Some(Duration::from_millis(400)),
                                ..Default::default()
                            },
                            _ => SchedOptions::default(),
                        };
                        let mut s = solver.session_sched(asg, &sched);
                        // Panic/stall scenarios probe the *structured
                        // failure* path: deterministic faults would defeat a
                        // retry anyway, so fail fast.
                        if sched.faults.is_some() {
                            s.retry = RetryPolicy::disabled();
                        }
                        let values = if scen == Scenario::NpdInput {
                            npd_values(&problem.matrix, &vals[vi])
                        } else {
                            vals[vi].clone()
                        };
                        match scen {
                            Scenario::PrefiredCancel => {
                                let t = CancelToken::new();
                                t.cancel();
                                s.opts.cancel = Some(t);
                            }
                            Scenario::ZeroDeadline => s.opts.deadline = Some(Duration::ZERO),
                            Scenario::MidrunCancel => s.opts.cancel = Some(CancelToken::new()),
                            _ => {}
                        }

                        let t0 = Instant::now();
                        let result = if scen == Scenario::MidrunCancel {
                            let token = s.opts.cancel.clone().unwrap();
                            std::thread::scope(|cs| {
                                let h = cs.spawn(move || {
                                    std::thread::sleep(Duration::from_micros(137 * (seed + 1)));
                                    token.cancel();
                                });
                                let r = s.refactor(&values);
                                h.join().expect("canceller");
                                r
                            })
                        } else {
                            s.refactor(&values)
                        };
                        let elapsed = t0.elapsed();
                        if elapsed > PROMPT {
                            let hang = format!("seed {seed} ({scen:?}) took {elapsed:?}");
                            hangs.lock().unwrap().push(hang);
                        }

                        let t = &mut tally[scen as usize];
                        t.runs += 1;
                        match result {
                            Ok(()) => {
                                t.ok += 1;
                                // Gate 2: an Ok on unperturbed values is
                                // bit-identical to the sequential factor.
                                if s.resilience().perturbed_pivots == 0 {
                                    assert_eq!(
                                        bits_of(s.factor()),
                                        ref_bits[vi],
                                        "seed {seed} ({scen:?}): Ok factor diverged"
                                    );
                                }
                            }
                            Err(SolverError::Factor(
                                FactorError::WorkerPanicked { .. }
                                | FactorError::Stalled(_)
                                | FactorError::Cancelled { .. }
                                | FactorError::NotPositiveDefinite { .. },
                            )) => {
                                t.structured_errors += 1;
                                assert!(s.is_poisoned(), "seed {seed}: error must poison");
                                assert!(matches!(s.try_resolve(b), Err(SolverError::NotFactored)));
                            }
                            Err(e) => panic!("seed {seed}: unstructured failure: {e}"),
                        }

                        // Gate 3: whatever happened, the session recovers
                        // with a clean refactor — pre-fired tokens and dead
                        // deadlines disarmed, faulted executors replaced by
                        // a clean session over the same plan.
                        s.opts.cancel = None;
                        s.opts.deadline = None;
                        let mut recovered = if sched.faults.is_some() {
                            solver.session_sched(asg, &SchedOptions::default())
                        } else {
                            s
                        };
                        recovered.refactor(&vals[vi]).unwrap_or_else(|e| {
                            panic!("seed {seed} ({scen:?}): recovery failed: {e}")
                        });
                        assert_eq!(
                            bits_of(recovered.factor()),
                            ref_bits[vi],
                            "seed {seed} ({scen:?}): recovered factor diverged"
                        );
                        let x = recovered.try_resolve(b).expect("recovered solve");
                        assert!(x.iter().all(|v| v.is_finite()));
                        t.recoveries += 1;
                    }
                    tally
                })
            })
            .collect();
        handles.into_iter().map(|h| h.join().expect("chaos thread")).collect()
    });
    let hangs = hangs.into_inner().unwrap();
    assert!(hangs.is_empty(), "hangs detected: {hangs:?}");

    let mut total = [Tally::default(); 7];
    for tally in &tallies {
        for (acc, t) in total.iter_mut().zip(tally) {
            acc.runs += t.runs;
            acc.ok += t.ok;
            acc.structured_errors += t.structured_errors;
            acc.recoveries += t.recoveries;
        }
    }
    assert_eq!(total.iter().map(|t| t.runs).sum::<u64>(), SEEDS, "every seed must run");
    assert_eq!(total.iter().map(|t| t.recoveries).sum::<u64>(), SEEDS, "every seed must recover");
    for scen in [Scenario::PrefiredCancel, Scenario::ZeroDeadline] {
        assert_eq!(total[scen as usize].ok, 0, "{scen:?}: must never complete");
    }
    assert_eq!(total[Scenario::Clean as usize].structured_errors, 0, "clean runs must not fail");

    // Gate 4: flat steady state. One warm session serving clean cycles must
    // not allocate: every buffer was sized at session creation.
    let mut steady = solver.session_sched(&asg, &SchedOptions::default());
    let mut x = vec![0.0; n];
    for vs in &vals {
        steady.refactor(vs).expect("steady warmup");
        steady.resolve_into(&b, &mut x);
    }
    let live_before = net_live_bytes();
    for it in 0..SOAK_CYCLES {
        steady.refactor(&vals[it % vals.len()]).expect("steady refactor");
        steady.resolve_into(&b, &mut x);
    }
    let growth = net_live_bytes() - live_before;
    // Thread stacks and scheduler scaffolding are allocated and freed each
    // refactor; *net* growth beyond a page of slack means a leak.
    assert!(
        growth.abs() <= 64 * 1024,
        "steady-state allocation not flat: {growth} net bytes over {SOAK_CYCLES} cycles"
    );
}
