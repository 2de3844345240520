//! The traced run of one workload: the facade calls replaced by the layer
//! calls they are made of, a span around each, and the per-layer metrics.
//!
//! Each repetition runs (1) one *layered request* — the calls behind
//! `Solver::analyze` + `factor_seq` + `solve`, under one root span whose
//! children's durations are the per-layer sum; (2) the scheduler at one and
//! at N workers, untraced and traced; (3) the subtree-parallel symbolic
//! analysis; (4) mapping, balance and the simulated Paragon; (5) the
//! `cholesky_core` facade itself, plan cache and session included. The
//! kinds of call are interleaved per repetition, not timed one after the
//! other in blocks.

use crate::inputs::Inputs;
use crate::ops::{bits_equal, timed, verdict, Ops};
use crate::spans::Recorder;
use crate::stats::median;
use crate::{host, spec, Config, Report};
use blockmat::{BlockMatrix, BlockWork};
use cholesky_core::{
    Assignment, ColPolicy, DomainPlan, Heuristic, MachineModel, NumericFactor, OrderingChoice,
    PlanCache, ProcGrid, RowPolicy, SchedOptions, Solver, SolverOptions, SymCscMatrix, TaskKind,
    TraceOpts,
};
use sparsemat::{Graph, Permutation};
use std::collections::BTreeMap;
use std::hint::black_box;
use std::sync::Arc;
use std::time::Instant;

/// Most repetitions a traced run makes.
const MAX_REPS: usize = 5;
/// Repetitions of a `--quick` run.
const QUICK_REPS: usize = 3;
/// Fewest it reports medians of.
const MIN_REPS: usize = 2;
/// Virtual processors the scheduler rows are mapped onto.
const PAR_P: usize = 16;
/// How far the per-layer sum may sit from the facade's one-shot time.
const LAYER_SUM_TOL: f64 = 0.15;

/// Samples per metric name.
#[derive(Default)]
struct Layers(BTreeMap<&'static str, Vec<f64>>);

impl Layers {
    fn push(&mut self, name: &'static str, v: f64) {
        self.0.entry(name).or_default().push(v);
    }

    /// Replaces whatever was sampled under `name` by one derived value.
    fn set(&mut self, name: &'static str, v: f64) {
        self.0.insert(name, vec![v]);
    }

    fn median(&self, name: &str) -> Option<f64> {
        self.0.get(name).map(|v| median(v))
    }
}

// --- dense: kernel rates, measured in this run before the workload -------

/// Median Gflop/s of `call`, which performs `flops` per invocation, over
/// five batches of at least `batch_s` seconds each.
fn rate(flops: u64, batch_s: f64, mut call: impl FnMut()) -> f64 {
    let time = |iters: u64, call: &mut dyn FnMut()| {
        let t = Instant::now();
        for _ in 0..iters {
            call();
        }
        t.elapsed().as_secs_f64()
    };
    let mut iters = 1u64;
    while time(iters, &mut call) < batch_s {
        iters *= 2;
    }
    let rates: Vec<f64> = (0..5)
        .map(|_| (flops * iters) as f64 / time(iters, &mut call) / 1e9)
        .collect();
    median(&rates)
}

fn filled(len: usize, salt: usize) -> Vec<f64> {
    (0..len)
        .map(|i| 0.25 + ((i * 7 + salt) % 13) as f64 / 16.0)
        .collect()
}

fn kernel_rates(m: &mut Layers, quick: bool) {
    let batch_s = if quick { 0.001 } else { 0.01 };
    use dense::kernels::{self, flops};
    for (name, n) in [("dense.gemm48_gflops", 48), ("dense.gemm192_gflops", 192)] {
        let (a, b, mut c) = (filled(n * n, 1), filled(n * n, 2), filled(n * n, 3));
        m.push(
            name,
            rate(flops::bmod(n, n, n), batch_s, || {
                kernels::gemm_abt_sub(black_box(&mut c), black_box(&a), black_box(&b), n, n, n)
            }),
        );
    }
    let n = 48;
    let (a, mut c) = (filled(n * n, 4), filled(n * n, 5));
    m.push(
        "dense.syrk48_gflops",
        rate(flops::bmod_diag(n, n), batch_s, || {
            kernels::syrk_lt_sub(black_box(&mut c), black_box(&a), n, n)
        }),
    );
    // A strictly diagonally dominant block; each call factors a fresh copy
    // (the copy is inside the timed call: 2 304 words against ~38 kflop).
    let spd: Vec<f64> = (0..n * n)
        .map(|k| {
            let (i, j) = (k / n, k % n);
            if i == j {
                n as f64
            } else {
                1.0 / (1.0 + i.abs_diff(j) as f64)
            }
        })
        .collect();
    let mut work = spd.clone();
    m.push(
        "dense.potrf48_gflops",
        rate(flops::bfac(n), batch_s, || {
            work.copy_from_slice(&spd);
            kernels::potrf(black_box(&mut work), n).expect("the block is SPD");
        }),
    );
    let mut l = spd.clone();
    kernels::potrf(&mut l, n).expect("the block is SPD");
    let x0 = filled(n * n, 6);
    let mut x = x0.clone();
    m.push(
        "dense.trsm48_gflops",
        rate(flops::bdiv(n, n), batch_s, || {
            x.copy_from_slice(&x0);
            kernels::trsm_right_lower_trans(black_box(&l), n, black_box(&mut x), n);
        }),
    );
}

// --- (1) the layered request ---------------------------------------------

/// What the layered request built, reused by the later sections.
struct Built {
    fill_perm: Permutation,
    tree: Option<ordering::SeparatorTree>,
    analysis: symbolic::Analysis,
    permuted: SymCscMatrix,
    bm: Arc<BlockMatrix>,
    work: BlockWork,
    factor: NumericFactor,
    x: Vec<f64>,
    /// Root span of the request.
    root: usize,
}

fn layered_request(
    a: &SymCscMatrix,
    b: &[f64],
    opts: &SolverOptions,
    rec: &mut Recorder,
    m: &mut Layers,
) -> Result<Built, String> {
    let root = rec.open("request");
    let graph = |rec: &mut Recorder, m: &mut Layers| {
        let (g, t) = rec.record("sparsemat.graph_build", || Graph::from_pattern(a.pattern()));
        m.push("sparsemat.graph_build_s", t);
        g
    };
    // `Auto` builds the graph once for the probe and again for the
    // ordering, exactly as `Solver::analyze` does.
    let resolved = if opts.ordering == OrderingChoice::Auto {
        let g = graph(rec, m);
        let (probe, t) = rec.record("ordering.probe", || ordering::probe_structure(&g));
        m.push("ordering.probe_s", t);
        match probe.choice {
            ordering::ProbeChoice::NestedDissection => OrderingChoice::NestedDissection,
            ordering::ProbeChoice::MinimumDegree => OrderingChoice::MinimumDegree,
        }
    } else {
        opts.ordering
    };
    let g = graph(rec, m);
    let ((fill_perm, tree), t) = rec.record("ordering.order", || match resolved {
        OrderingChoice::NestedDissection => {
            let (p, t) = ordering::nd_graph(&g, &ordering::NdGraphOptions::default());
            (p, Some(t))
        }
        OrderingChoice::MinimumDegree => (ordering::minimum_degree(&g), None),
        OrderingChoice::Natural | OrderingChoice::Auto => (Permutation::identity(a.n()), None),
    });
    m.push("ordering.order_s", t);
    drop(g);

    let sym = rec.open("symbolic.analyze");
    let t0 = rec.now();
    let (analysis, st) = symbolic::analyze_timed(a.pattern(), &fill_perm, &opts.analyze.amalg);
    m.push("symbolic.analyze_s", rec.close(sym));
    for (span, metric, dur, start) in [
        ("symbolic.etree", "symbolic.etree_s", st.etree_s, t0),
        (
            "symbolic.colcount",
            "symbolic.colcount_s",
            st.colcount_s,
            t0 + st.etree_s,
        ),
        (
            "symbolic.supernodes",
            "symbolic.supernodes_s",
            st.supernodes_s,
            t0 + st.etree_s + st.colcount_s,
        ),
    ] {
        rec.child_at(span, sym, start, dur);
        m.push(metric, dur);
    }

    let (permuted, t) = rec.record("sparsemat.permute", || analysis.perm.apply_to_matrix(a));
    m.push("sparsemat.permute_s", t);

    let ((bm, work), t) = rec.record("blockmat.partition", || {
        let partition = opts.block_policy.build_partition(
            &analysis.supernodes,
            opts.block_size,
            &opts.work_model,
        );
        let bm = Arc::new(BlockMatrix::from_partition_parallel(
            analysis.supernodes.clone(),
            partition,
            1,
        ));
        let work = BlockWork::compute(&bm, &opts.work_model);
        (bm, work)
    });
    m.push("blockmat.partition_s", t);

    let (mut factor, t) = rec.record("fanout.assemble", || {
        NumericFactor::from_matrix_parallel(bm.clone(), &permuted, 1)
    });
    m.push("fanout.assemble_s", t);
    let (r, t) = rec.record("fanout.seq.factor", || fanout::factorize_seq(&mut factor));
    r.map_err(|e| e.to_string())?;
    m.push("fanout.seq.factor_s", t);

    let solve = rec.open("fanout.solve");
    let (mut cp, mut ri, mut v) = (Vec::new(), Vec::new(), Vec::new());
    let ((), t) = rec.record("fanout.solve.csc_extract", || {
        factor.to_csc_into(&mut cp, &mut ri, &mut v)
    });
    m.push("fanout.solve.csc_extract_s", t);
    let mut pb = vec![0.0; a.n()];
    analysis.perm.apply_to_vec_into(b, &mut pb);
    let ((), t) = rec.record("fanout.solve.trisolve", || {
        fanout::solve_csc(&cp, &ri, &v, &mut pb)
    });
    m.push("fanout.solve.trisolve_s", t);
    let mut x = vec![0.0; a.n()];
    analysis.perm.apply_inverse_to_vec_into(&pb, &mut x);
    rec.close(solve);
    rec.close(root);
    Ok(Built {
        fill_perm,
        tree,
        analysis,
        permuted,
        bm,
        work,
        factor,
        x,
        root,
    })
}

/// Counts that describe the structure; they repeat exactly.
fn structure_counts(a: &SymCscMatrix, built: &Built, m: &mut Layers) {
    let stats = built.analysis.stats;
    m.set("sparsemat.n", a.n() as f64);
    m.set("sparsemat.nnz_a", a.values().len() as f64);
    m.set("ordering.nnz_l", stats.nnz_l as f64);
    m.set("ordering.ops", stats.ops as f64);
    m.set(
        "symbolic.supernodes",
        built.analysis.supernodes.count() as f64,
    );
    m.set("blockmat.blocks", built.bm.num_blocks() as f64);
    m.set("blockmat.block_ops", built.work.num_ops as f64);
    m.set("blockmat.panels", built.bm.num_panels() as f64);
    // Share of the block model's flops spent on explicit zeros (padding
    // from amalgamation and dense block rows).
    m.set(
        "blockmat.pad_frac",
        1.0 - stats.ops as f64 / built.work.total_flops as f64,
    );
}

// --- (2) the scheduler at 1 and N workers --------------------------------

/// The layer calls behind `SymbolicPlan::assign`.
fn assign(
    built: &Built,
    opts: &SolverOptions,
    p: usize,
    row: RowPolicy,
    col: ColPolicy,
) -> Assignment {
    let domains = opts
        .domains
        .as_ref()
        .map(|params| DomainPlan::select(&built.bm, &built.work, p, params));
    Assignment::build(
        &built.bm,
        &built.work,
        ProcGrid::square(p),
        row,
        col,
        domains,
    )
}

/// The three scheduler runs of a repetition. On a one-core host N is 1:
/// the N-worker rows repeat the one-worker run and the speed-up reads ≈ 1,
/// rather than oversubscribing the core.
#[derive(Clone, Copy, PartialEq)]
enum Row {
    OneWorker,
    NWorkers,
    NWorkersTraced,
}

fn scheduler_rows(
    built: &Built,
    opts: &SolverOptions,
    rec: &mut Recorder,
    m: &mut Layers,
) -> Result<Vec<NumericFactor>, String> {
    let asg = assign(built, opts, PAR_P, opts.row_policy, opts.col_policy);
    let (plan, t) = rec.record("fanout.plan_build", || fanout::Plan::build(&built.bm, &asg));
    m.push("fanout.plan_build_s", t);
    let n_workers = host::par_workers();
    let mut factors = Vec::new();
    let mut busy_w1 = 0.0;
    for (row, span, workers) in [
        (Row::OneWorker, "fanout.sched.w1", 1),
        (Row::NWorkers, "fanout.sched.wN", n_workers),
        (Row::NWorkersTraced, "fanout.sched.wN_traced", n_workers),
    ] {
        let mut f = NumericFactor::from_matrix_parallel(built.bm.clone(), &built.permuted, 1);
        let traced = row == Row::NWorkersTraced;
        let sched = SchedOptions {
            workers: Some(workers),
            trace: if traced {
                TraceOpts::on()
            } else {
                TraceOpts::off()
            },
            ..SchedOptions::default()
        };
        let (r, wall) = rec.record(span, || fanout::factorize_sched_opts(&mut f, &plan, &sched));
        let stats = r.map_err(|e| e.to_string())?;
        factors.push(f);
        let busy: f64 = stats.busy_s.iter().sum();
        match row {
            Row::OneWorker => {
                m.push("fanout.sched.w1_s", wall);
                busy_w1 = busy;
            }
            Row::NWorkers => {
                m.push("fanout.sched.wN_s", wall);
                m.push(
                    "fanout.sched.utilisation",
                    busy / (stats.workers as f64 * stats.elapsed_s),
                );
                m.push("fanout.sched.busy_inflation", busy / busy_w1);
                m.push(
                    "fanout.sched.spawn_overhead_s",
                    stats.wall_s - stats.elapsed_s,
                );
                m.push("fanout.sched.steals", stats.steals as f64);
                m.push("fanout.sched.idle_polls", stats.idle_polls as f64);
                m.push("fanout.sched.spurious_claims", stats.spurious_claims as f64);
                m.push("fanout.sched.tasks_run", stats.tasks_run as f64);
            }
            Row::NWorkersTraced => {
                m.push("sched.wN_traced_s", wall);
                let tr = stats
                    .trace
                    .as_ref()
                    .ok_or("tracing was on but no trace came back")?;
                let phase = tr.phase_totals();
                m.push("fanout.sched.bfac_s", phase[TaskKind::Bfac as usize]);
                m.push("fanout.sched.bmod_s", phase[TaskKind::Bmod as usize]);
                m.push("fanout.sched.idle_s", phase[TaskKind::Idle as usize]);
                m.push("fanout.sched.steal_s", phase[TaskKind::Steal as usize]);
                m.push("trace.events", tr.num_events() as f64);
                m.push("trace.dropped", tr.dropped as f64);
            }
        }
    }
    Ok(factors)
}

// --- (4) mapping, balance, the simulated machine -------------------------

fn map_and_simulate(
    built: &Built,
    opts: &SolverOptions,
    first: bool,
    rec: &mut Recorder,
    m: &mut Layers,
) -> Result<(), String> {
    let paragon = MachineModel::paragon();
    let (asg64, t) = rec.record("mapping.assign_p64", || {
        assign(built, opts, 64, opts.row_policy, opts.col_policy)
    });
    m.push("mapping.assign_p64_s", t);
    let plan64 = Arc::new(fanout::Plan::build(&built.bm, &asg64));
    let (out64, t) = rec.record("simgrid.simulate_p64", || {
        fanout::simulate(&built.bm, &plan64, &paragon)
    });
    m.push("simgrid.sim_wall_s", t);
    if !first {
        return Ok(());
    }
    // Virtual time and counts repeat exactly: once is enough.
    let cyclic = RowPolicy::Heuristic(Heuristic::Cyclic);
    let cyclic_col = ColPolicy::Heuristic(Heuristic::Cyclic);
    let asg64c = assign(built, opts, 64, cyclic, cyclic_col);
    let asg16 = assign(built, opts, 16, opts.row_policy, opts.col_policy);
    let balance = |asg| balance::BalanceReport::compute(&built.bm, &built.work, asg);
    let b64 = balance(&asg64);
    m.set("balance.overall_p16", balance(&asg16).overall);
    m.set("balance.overall_p64", b64.overall);
    m.set("balance.overall_p64_cyclic", balance(&asg64c).overall);
    m.set("balance.row_p64", b64.row);
    m.set("balance.col_p64", b64.col);
    m.set("balance.diag_p64", b64.diag);
    let comm = balance::comm_volume(&built.bm, &asg64);
    m.set("balance.comm_msgs_p64", comm.messages as f64);
    m.set("balance.comm_bytes_p64", comm.bytes(0) as f64);
    let simulate = |asg: &Assignment| {
        fanout::simulate(
            &built.bm,
            &Arc::new(fanout::Plan::build(&built.bm, asg)),
            &paragon,
        )
    };
    let out64c = simulate(&asg64c);
    m.set("simgrid.efficiency_p64", out64.efficiency);
    m.set("simgrid.efficiency_p64_cyclic", out64c.efficiency);
    m.set(
        "simgrid.heuristic_gain_p64",
        out64.efficiency / out64c.efficiency - 1.0,
    );
    m.set("simgrid.efficiency_p16", simulate(&asg16).efficiency);
    m.set("simgrid.makespan_p64_s", out64.report.makespan_s);
    m.set("simgrid.msgs_p64", out64.report.total_msgs() as f64);
    let cp = fanout::critical_path(&built.bm, &paragon);
    m.set("fanout.critpath_frac", cp.length_s / cp.seq_time_s);
    Ok(())
}

// --- (5) the facade: one-shot, plan cache, session ------------------------

/// What the facade section hands back for checking.
struct FacadeAnswers {
    oneshot_x: Vec<f64>,
    cache_shared: bool,
    first_refactor_matches: bool,
    resolve_x: Vec<f64>,
    batch_rhs: Vec<Vec<f64>>,
    batch_x: Vec<Vec<f64>>,
    batch_matches_loop: bool,
}

/// Value set the session's steady-state refactor uses.
const SESSION_SET: usize = 1;

fn facade(
    inp: &Inputs,
    opts: &SolverOptions,
    layered_factor: &NumericFactor,
    rec: &mut Recorder,
    m: &mut Layers,
) -> Result<FacadeAnswers, String> {
    let a = &inp.a[0];
    let (solver, t_analyze) = rec.record("core.analyze", || Solver::analyze(a, opts));
    m.push("core.analyze_s", t_analyze);
    let (f, t_factor) = timed(|| solver.factor_seq());
    let f = f.map_err(|e| e.to_string())?;
    let (oneshot_x, t_solve) = timed(|| solver.solve(&f, &inp.b[0]));
    m.push("facade.oneshot_s", t_analyze + t_factor + t_solve);
    drop(f);
    m.set(
        "core.resource_estimate_mb",
        solver.resource_estimate().factor_bytes as f64 / (1u64 << 20) as f64,
    );
    drop(solver);

    let cache = PlanCache::new();
    let (miss, t) = rec.record("core.cache.miss", || cache.solver_for(a, opts));
    m.push("core.cache.miss_s", t);
    let (hit, t) = rec.record("core.cache.hit", || cache.solver_for(a, opts));
    m.push("core.cache.hit_s", t);
    let cache_shared =
        Arc::ptr_eq(&miss.plan, &hit.plan) && cache.hits() == 1 && cache.misses() == 1;
    drop(hit);

    let (mut session, t) = rec.record("core.session.open", || miss.session());
    m.push("core.session.open_s", t);
    let (r, t) = rec.record("core.session.first_refactor", || {
        session.refactor(a.values())
    });
    r.map_err(|e| e.to_string())?;
    m.push("core.session.first_refactor_s", t);
    let first_refactor_matches =
        crate::ops::factors_bit_identical(session.factor(), layered_factor);
    let (r, t) = rec.record("core.session.refactor", || {
        session.refactor(inp.a[SESSION_SET].values())
    });
    r.map_err(|e| e.to_string())?;
    m.push("core.session.refactor_s", t);
    let (resolve_x, t) = rec.record("core.session.resolve", || {
        session.resolve(&inp.b[SESSION_SET])
    });
    m.push("core.session.resolve_s", t);
    let batch_rhs = inp.batch_rhs(SESSION_SET);
    let refs: Vec<&[f64]> = batch_rhs.iter().map(Vec::as_slice).collect();
    let (batch_x, t) = rec.record("core.session.resolve_many8", || session.resolve_many(&refs));
    m.push("core.session.resolve_many8_s", t);
    let batch_matches_loop = refs
        .iter()
        .zip(&batch_x)
        .all(|(b, x)| bits_equal(&session.resolve(b), x));
    m.push("core.session.retries", session.resilience().retries as f64);
    m.push(
        "core.session.perturbed_pivots",
        session.resilience().perturbed_pivots as f64,
    );
    Ok(FacadeAnswers {
        oneshot_x,
        cache_shared,
        first_refactor_matches,
        resolve_x,
        batch_rhs,
        batch_x,
        batch_matches_loop,
    })
}

// --- the run --------------------------------------------------------------

/// One repetition: every section once, each under its own operation.
fn repetition(
    inp: &Inputs,
    opts: &SolverOptions,
    first: bool,
    rec: &mut Recorder,
    m: &mut Layers,
    ops: &mut Ops,
) -> Option<()> {
    let (a, b, x_true) = (&inp.a[0], &inp.b[0], &inp.x_true[0]);
    let built = ops.run("layered request", || layered_request(a, b, opts, rec, m));
    rec.abandon_open();
    let built = built?;
    ops.check_solution("layered solve check", a, inp.norm_a[0], &built.x, b, x_true);
    m.push("request.layer_sum_s", rec.children_s(built.root));
    if first {
        structure_counts(a, &built, m);
    }
    if opts.ordering != OrderingChoice::Auto {
        // Not on this workload's request path; measured for the metric.
        let g = Graph::from_pattern(a.pattern());
        let (_, t) = rec.record("ordering.probe", || ordering::probe_structure(&g));
        m.push("ordering.probe_s", t);
    }

    let factors = ops.run("scheduler at 1 and N workers", || {
        scheduler_rows(&built, opts, rec, m)
    });
    rec.abandon_open();
    for f in factors.iter().flatten() {
        ops.check_bits(
            "scheduled factor bit-identical to sequential",
            f,
            &built.factor,
        );
    }
    drop(factors);

    let workers = host::nproc();
    let ranges = built
        .tree
        .as_ref()
        .map(|t| t.parallel_ranges(4 * workers))
        .unwrap_or_default();
    let par = ops.timed("parallel symbolic analysis", || {
        rec.record("symbolic.par_analyze", || {
            symbolic::analyze_parallel_timed(
                a.pattern(),
                &built.fill_perm,
                &opts.analyze.amalg,
                &ranges,
                workers,
            )
        })
    });
    rec.abandon_open();
    if let Some((((analysis, _, _), t), _)) = par {
        m.push("symbolic.par_analyze_s", t);
        ops.check(
            "parallel analysis identical to sequential",
            verdict(analysis == built.analysis, "analyses differ"),
        );
    }

    ops.run("map + simulate", || {
        map_and_simulate(&built, opts, first, rec, m)
    });
    rec.abandon_open();

    let ans = ops.run("facade: one-shot, cache, session", || {
        facade(inp, opts, &built.factor, rec, m)
    });
    rec.abandon_open();
    let ans = ans?;
    let s = SESSION_SET;
    ops.check_solution(
        "facade solve check",
        a,
        inp.norm_a[0],
        &ans.oneshot_x,
        b,
        x_true,
    );
    ops.check(
        "plan cache: one miss, one hit, one shared plan",
        verdict(ans.cache_shared, "cache did not share the plan"),
    );
    ops.check(
        "first refactor bit-identical to a fresh factor",
        verdict(ans.first_refactor_matches, "factors differ bitwise"),
    );
    ops.check_solution(
        "resolve check",
        &inp.a[s],
        inp.norm_a[s],
        &ans.resolve_x,
        &inp.b[s],
        x_true,
    );
    for (lane, x) in ans.batch_x.iter().enumerate() {
        ops.check_solution(
            "batch lane check",
            &inp.a[s],
            inp.norm_a[s],
            x,
            &ans.batch_rhs[lane],
            &inp.x_true[lane],
        );
    }
    ops.check(
        "resolve_many lanes bit-identical to looped resolve",
        verdict(ans.batch_matches_loop, "lanes differ bitwise"),
    );
    Some(())
}

/// Ratios of medians, once every repetition is in.
fn derive(m: &mut Layers, lines: &mut Vec<String>, ops: &mut Ops, quick: bool) {
    let ratio = |m: &Layers, num: &str, den: &str| Some(m.median(num)? / m.median(den)?);
    if let Some(v) = ratio(m, "symbolic.analyze_s", "symbolic.par_analyze_s") {
        m.set("symbolic.par_speedup", v);
    }
    if let Some(v) = ratio(m, "fanout.sched.w1_s", "fanout.sched.wN_s") {
        m.set("fanout.sched.speedup", v);
    }
    if let Some(v) = ratio(m, "sched.wN_traced_s", "fanout.sched.wN_s") {
        m.set("trace.overhead_frac", v - 1.0);
    }
    if let Some(v) = ratio(m, "ordering.ops", "fanout.seq.factor_s") {
        m.set("fanout.seq.gflops", v / 1e9);
    }
    if let Some(v) = ratio(m, "fanout.seq.gflops", "dense.gemm48_gflops") {
        m.set("fanout.seq.kernel_frac", v);
    }
    m.set("core.backward_error_max", ops.backward_error_max);
    if let (Some(sum), Some(oneshot)) = (
        m.median("request.layer_sum_s"),
        m.median("facade.oneshot_s"),
    ) {
        let frac = sum / oneshot;
        m.set("trace.layer_sum_frac", frac);
        lines.push(format!(
            "per-layer sum {sum:.6} s vs facade one-shot {oneshot:.6} s: difference {:+.6} s ({:+.2} %)",
            sum - oneshot,
            (frac - 1.0) * 100.0
        ));
        // A `--quick` request lasts milliseconds: too short to hold a
        // timing tolerance while other tests share the cores.
        if !quick {
            ops.check(
                "per-layer sum within 15 % of the facade one-shot",
                verdict(
                    (frac - 1.0).abs() <= LAYER_SUM_TOL,
                    &format!("ratio {frac:.3}"),
                ),
            );
        }
    }
}

/// Runs the workload traced and reports the per-layer metrics.
pub fn run(cfg: &Config) -> Report {
    let mut ops = Ops::default();
    let mut lines = Vec::new();
    let mut m = Layers::default();
    let mut rec = Recorder::new();
    let opts = cfg.kind.solver_options();

    kernel_rates(&mut m, cfg.quick);
    let inp = Inputs::generate(cfg.kind, cfg.seed, cfg.mesh_seed, cfg.quick);

    let window = Instant::now();
    let mut last = 0.0;
    let mut reps = 0;
    let max_reps = if cfg.quick { QUICK_REPS } else { MAX_REPS };
    while reps < MIN_REPS
        || (reps < max_reps && window.elapsed().as_secs_f64() + last <= cfg.seconds)
    {
        rec.rep = reps;
        let t0 = Instant::now();
        repetition(&inp, &opts, reps == 0, &mut rec, &mut m, &mut ops);
        last = t0.elapsed().as_secs_f64();
        reps += 1;
    }
    lines.push(format!(
        "{reps} repetitions in {:.2} s",
        window.elapsed().as_secs_f64()
    ));
    derive(&mut m, &mut lines, &mut ops, cfg.quick);

    let path = cfg
        .trace_dir
        .join(format!("{}.trace.json", cfg.kind.name()));
    let json = rec.to_trace_json(&format!("benchmark {}", cfg.kind.name()));
    ops.check(
        "trace file validates and is written",
        trace::validate_json(&json)
            .map_err(|at| format!("trace JSON invalid at byte {at}"))
            .and_then(|()| std::fs::create_dir_all(&cfg.trace_dir).map_err(|e| e.to_string()))
            .and_then(|()| std::fs::write(&path, &json).map_err(|e| e.to_string())),
    );
    lines.push(format!(
        "{} spans written to {}",
        rec.spans().len(),
        path.display()
    ));

    let mut report = Report::new(ops, lines);
    for spec in &spec::PER_LAYER {
        let samples = m.0.get(spec.name).map_or(&[][..], Vec::as_slice);
        report.push_metric(spec.name, spec.unit, samples);
    }
    report
}
