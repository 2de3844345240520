//! Chaos soak: concurrent solver-service sessions over one shared symbolic
//! plan, under injected worker panics, lost tasks, pre-fired cancellations,
//! expired deadlines, indefinite inputs, and admission pressure — all at
//! once, across ≥ 24 deterministic seeds.
//!
//! Self-gates (the binary aborts on any violation):
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
//!
//! Writes `BENCH_chaos.json` with per-scenario outcome counts, aggregate
//! resilience counters, and the allocation-flatness measurement.
//!
//! ```text
//! chaosbench [--json <path>] [--quick]
//! ```

use bench::table::{json_str, TextTable};
use bench::WorkerEnv;
use cholesky_core::{
    CancelToken, FaultPlan, PlanCache, ResourceBudget, SchedOptions, Solver, SolverError,
    SolverOptions,
};
use fanout::Error as FactorError;
use sparsemat::SymCscMatrix;
use std::alloc::{GlobalAlloc, Layout, System};
use std::sync::atomic::{AtomicU64, Ordering};
use std::time::{Duration, Instant};

/// System allocator wrapped with live-byte accounting, so gate 4 can assert
/// the steady-state service loop allocates nothing.
struct CountingAlloc;

static ALLOC_BYTES: AtomicU64 = AtomicU64::new(0);
static DEALLOC_BYTES: AtomicU64 = AtomicU64::new(0);

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
    fn name(self) -> &'static str {
        match self {
            Scenario::Clean => "clean",
            Scenario::Panics => "panics",
            Scenario::LostTasks => "lost_tasks",
            Scenario::PrefiredCancel => "prefired_cancel",
            Scenario::MidrunCancel => "midrun_cancel",
            Scenario::ZeroDeadline => "zero_deadline",
            Scenario::NpdInput => "npd_input",
        }
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

fn bits_of(f: &cholesky_core::NumericFactor) -> Vec<u64> {
    let (_, _, v) = f.to_csc();
    v.iter().map(|x| x.to_bits()).collect()
}

/// Per-scenario outcome tallies across all seeds.
#[derive(Default, Clone)]
struct Tally {
    runs: u64,
    ok: u64,
    structured_errors: u64,
    recoveries: u64,
}

fn main() {
    let mut json_path = "BENCH_chaos.json".to_string();
    let mut quick = false;
    let mut args = std::env::args().skip(1);
    while let Some(a) = args.next() {
        match a.as_str() {
            "--json" => json_path = args.next().expect("--json needs a path"),
            "--quick" => quick = true,
            other => {
                eprintln!("unknown arg {other}");
                std::process::exit(2);
            }
        }
    }
    // 24 seeds even in quick mode: the seed matrix IS the product; quick
    // only shrinks the problem and the steady-state soak.
    let (grid, bs, seeds, threads, soak_cycles) =
        if quick { (12, 4, 24u64, 4usize, 8usize) } else { (20, 8, 48u64, 4usize, 40usize) };
    /// Hard ceiling on any single chaos refactor (gate 1).
    const PROMPT: Duration = Duration::from_secs(30);

    let problem = sparsemat::gen::grid2d(grid);
    let opts = SolverOptions { block_size: bs, ..Default::default() };
    let env = WorkerEnv::probe_and_warn("chaosbench");
    let t_all = Instant::now();

    let cache = PlanCache::new();
    let solver = cache.solver_for_problem(&problem, &opts);
    let n = problem.n();
    let vals = value_sets(&problem.matrix, 8);
    let b: Vec<f64> = (0..n).map(|i| 1.0 + (i as f64 * 0.17).sin()).collect();

    // Sequential reference bits for every value set (gates 2 and 3).
    let ref_bits: Vec<Vec<u64>> = vals
        .iter()
        .map(|vs| {
            let fresh_prob = sparsemat::Problem {
                name: problem.name.clone(),
                matrix: SymCscMatrix::new(problem.matrix.pattern().clone(), vs.clone())
                    .expect("value set matches pattern"),
                coords: problem.coords.clone(),
                ordering: problem.ordering,
            };
            let fresh = Solver::analyze_problem(&fresh_prob, &opts);
            let f = fresh.factor_seq().expect("sequential reference factor");
            let (_, _, v) = f.to_csc();
            v.iter().map(|x| x.to_bits()).collect()
        })
        .collect();

    // ---- Admission-control gate: a budget below the symbolic estimate
    // must reject, one above it must admit — both without touching the
    // cached plan.
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
    let admitted = cache
        .try_solver_for_problem(&problem, &roomy)
        .expect("roomy budget must admit");
    assert!(
        std::sync::Arc::ptr_eq(&admitted.plan, &solver.plan),
        "admission must serve the cached plan"
    );
    drop(admitted);
    eprintln!("[admission gate passed: estimate {estimate}]");

    // ---- Chaos phase: `threads` concurrent sessions over the shared
    // plan, each draining its slice of the seed matrix. Every seed is one
    // chaos refactor followed by a clean recovery refactor (gate 3).
    let asg = solver.assign_cyclic(4);
    let hang_gate = std::sync::Mutex::new(Vec::<String>::new());
    let tallies: Vec<(Vec<(Scenario, Tally)>, cholesky_core::ResilienceStats)> =
        std::thread::scope(|scope| {
            let handles: Vec<_> = (0..threads)
                .map(|tid| {
                    let solver = &solver;
                    let asg = &asg;
                    let vals = &vals;
                    let ref_bits = &ref_bits;
                    let problem = &problem;
                    let b = &b;
                    let hang_gate = &hang_gate;
                    scope.spawn(move || {
                        let mut tally: Vec<(Scenario, Tally)> =
                            SCENARIOS.iter().map(|&s| (s, Tally::default())).collect();
                        let mut resilience = cholesky_core::ResilienceStats::default();
                        let mut seed = tid as u64;
                        while seed < seeds {
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
                            // failure* path: deterministic faults would
                            // defeat a retry anyway, so fail fast.
                            if matches!(scen, Scenario::Panics | Scenario::LostTasks) {
                                s.retry = cholesky_core::RetryPolicy::disabled();
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
                                Scenario::ZeroDeadline => {
                                    s.opts.deadline = Some(Duration::ZERO)
                                }
                                Scenario::MidrunCancel => {
                                    s.opts.cancel = Some(CancelToken::new())
                                }
                                _ => {}
                            }

                            let t0 = Instant::now();
                            let result = if scen == Scenario::MidrunCancel {
                                let token = s.opts.cancel.clone().unwrap();
                                std::thread::scope(|cs| {
                                    let h = cs.spawn(move || {
                                        std::thread::sleep(Duration::from_micros(
                                            137 * (seed + 1),
                                        ));
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
                                hang_gate.lock().unwrap().push(format!(
                                    "seed {seed} ({}) took {elapsed:?}",
                                    scen.name()
                                ));
                            }

                            let t = &mut tally
                                .iter_mut()
                                .find(|(sc, _)| *sc == scen)
                                .expect("scenario row")
                                .1;
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
                                            "seed {seed} ({}): Ok factor diverged",
                                            scen.name()
                                        );
                                    }
                                }
                                Err(
                                    SolverError::Factor(
                                        FactorError::WorkerPanicked { .. }
                                        | FactorError::Stalled(_)
                                        | FactorError::Cancelled { .. }
                                        | FactorError::NotPositiveDefinite { .. },
                                    ),
                                ) => {
                                    t.structured_errors += 1;
                                    assert!(s.is_poisoned(), "seed {seed}: error must poison");
                                    assert!(matches!(
                                        s.try_resolve(b),
                                        Err(SolverError::NotFactored)
                                    ));
                                }
                                Err(e) => panic!("seed {seed}: unstructured failure: {e}"),
                            }

                            // Gate 3: whatever happened, the session recovers
                            // with a clean refactor — pre-fired tokens and
                            // dead deadlines disarmed, faulted executors
                            // replaced by a clean session over the same plan.
                            s.opts.cancel = None;
                            s.opts.deadline = None;
                            let mut recovered = if sched.faults.is_some() {
                                resilience.merge(s.resilience());
                                solver.session_sched(asg, &SchedOptions::default())
                            } else {
                                s
                            };
                            recovered.refactor(&vals[vi]).unwrap_or_else(|e| {
                                panic!("seed {seed} ({}): recovery failed: {e}", scen.name())
                            });
                            assert_eq!(
                                bits_of(recovered.factor()),
                                ref_bits[vi],
                                "seed {seed} ({}): recovered factor diverged",
                                scen.name()
                            );
                            let x = recovered.try_resolve(b).expect("recovered solve");
                            assert!(x.iter().all(|v| v.is_finite()));
                            t.recoveries += 1;
                            resilience.merge(recovered.resilience());
                            seed += threads as u64;
                        }
                        (tally, resilience)
                    })
                })
                .collect();
            handles.into_iter().map(|h| h.join().expect("chaos thread")).collect()
        });
    let hangs = hang_gate.into_inner().unwrap();
    assert!(hangs.is_empty(), "hangs detected: {hangs:?}");

    // Merge per-thread tallies.
    let mut total: Vec<(Scenario, Tally)> =
        SCENARIOS.iter().map(|&s| (s, Tally::default())).collect();
    let mut counters = cholesky_core::ResilienceStats::default();
    for (tally, res) in &tallies {
        counters.merge(res);
        for ((_, acc), (_, t)) in total.iter_mut().zip(tally) {
            acc.runs += t.runs;
            acc.ok += t.ok;
            acc.structured_errors += t.structured_errors;
            acc.recoveries += t.recoveries;
        }
    }
    let runs: u64 = total.iter().map(|(_, t)| t.runs).sum();
    let recoveries: u64 = total.iter().map(|(_, t)| t.recoveries).sum();
    assert_eq!(runs, seeds, "every seed must run");
    assert_eq!(recoveries, seeds, "every seed must recover");
    for (scen, t) in &total {
        if matches!(scen, Scenario::PrefiredCancel | Scenario::ZeroDeadline) {
            assert_eq!(t.ok, 0, "{}: must never complete", scen.name());
        }
        if *scen == Scenario::Clean {
            assert_eq!(t.structured_errors, 0, "clean runs must not fail");
        }
    }

    // ---- Gate 4: flat steady state. One warm session serving clean
    // cycles must not allocate: every buffer was sized at session creation.
    let mut steady = solver.session_sched(&asg, &SchedOptions::default());
    let mut x = vec![0.0; n];
    for vs in vals.iter() {
        steady.refactor(vs).expect("steady warmup");
        steady.resolve_into(&b, &mut x);
    }
    let live_before = net_live_bytes();
    for it in 0..soak_cycles {
        steady.refactor(&vals[it % vals.len()]).expect("steady refactor");
        steady.resolve_into(&b, &mut x);
    }
    let live_after = net_live_bytes();
    let growth = live_after - live_before;
    // Thread stacks and scheduler scaffolding are allocated and freed each
    // refactor; *net* growth beyond a page of slack means a leak.
    let slack = 64 * 1024;
    assert!(
        growth.abs() <= slack,
        "steady-state allocation not flat: {growth} net bytes over {soak_cycles} cycles"
    );
    eprintln!("[steady-state gate passed: {growth} net bytes over {soak_cycles} cycles]");

    let wall_s = t_all.elapsed().as_secs_f64();
    let mut table = TextTable::new(
        "Chaos soak: concurrent sessions under fault, cancel, and budget pressure",
        &["scenario", "runs", "ok", "structured errors", "recoveries"],
    );
    for (scen, t) in &total {
        table.row(vec![
            scen.name().to_string(),
            t.runs.to_string(),
            t.ok.to_string(),
            t.structured_errors.to_string(),
            t.recoveries.to_string(),
        ]);
    }
    println!("{table}");

    let scenario_rows: Vec<String> = total
        .iter()
        .map(|(scen, t)| {
            format!(
                "    {{\"scenario\":{},\"runs\":{},\"ok\":{},\"structured_errors\":{},\
                 \"recoveries\":{}}}",
                json_str(scen.name()),
                t.runs,
                t.ok,
                t.structured_errors,
                t.recoveries
            )
        })
        .collect();
    let counter_fields: Vec<String> = counters
        .counters()
        .iter()
        .map(|(name, v)| format!("\"{name}\":{v}"))
        .collect();
    let out = format!(
        concat!(
            "{{\"chaos\":[\n",
            "  {{\"problem\":{},\"n\":{},\"block_policy\":\"uniform\",{},\"seeds\":{},\"sessions\":{},",
            "\"value_sets\":{},\"wall_s\":{:.6e},\n",
            "  \"gates\":{{\"zero_hangs\":true,\"ok_bit_identical_to_seq\":true,",
            "\"all_sessions_recovered\":true,\"admission_enforced\":true,",
            "\"steady_state_net_bytes\":{},\"soak_cycles\":{}}},\n",
            "  \"estimate\":{{\"factor_bytes\":{},\"flops\":{}}},\n",
            "  \"resilience\":{{{}}},\n",
            "  \"scenarios\":[\n{}\n  ]}}\n",
            "]}}\n"
        ),
        json_str(&problem.name),
        n,
        env.json_fields(),
        seeds,
        threads,
        vals.len(),
        wall_s,
        growth,
        soak_cycles,
        estimate.factor_bytes,
        estimate.flops,
        counter_fields.join(","),
        scenario_rows.join(",\n"),
    );
    trace::validate_json(&out).expect("bench json invalid");
    std::fs::write(&json_path, &out).expect("write json");
    eprintln!("[wrote {json_path}]");
}
