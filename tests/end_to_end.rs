//! Integration tests: the full pipeline (generate → order → analyze → map →
//! factor → solve) across matrix families, block sizes, processor counts and
//! executors.

use block_fanout_cholesky::core::{
    ColPolicy, Heuristic, MachineModel, RowPolicy, SchedOptions, Solver, SolverOptions,
};
use block_fanout_cholesky::sparsemat::{gen, Problem};

fn opts(block_size: usize) -> SolverOptions {
    SolverOptions { block_size, ..Default::default() }
}

fn check_solve(problem: &Problem, solver: &Solver, factor: &block_fanout_cholesky::core::NumericFactor) {
    let n = problem.n();
    let x_true: Vec<f64> = (0..n).map(|i| 0.5 + ((i * 7 + 3) % 11) as f64 * 0.1).collect();
    let mut b = vec![0.0; n];
    problem.matrix.mul_vec(&x_true, &mut b);
    let x = solver.solve(factor, &b);
    for (i, (got, want)) in x.iter().zip(&x_true).enumerate() {
        assert!((got - want).abs() < 1e-7, "x[{i}] = {got}, want {want}");
    }
}

#[test]
fn every_family_factors_and_solves_sequentially() {
    let problems = vec![
        gen::dense(40),
        gen::grid2d(9),
        gen::cube3d(4),
        gen::bcsstk_like("bk", 120, 1),
        gen::copter_like("cp", 120, 2),
        gen::fleet_like("fl", 100, 3),
    ];
    for problem in &problems {
        let solver = Solver::analyze_problem(problem, &opts(6));
        let factor = solver
            .factor_seq()
            .unwrap_or_else(|e| panic!("{}: {e}", problem.name));
        assert!(
            solver.residual(&factor) < 1e-11,
            "{} residual too large",
            problem.name
        );
        check_solve(problem, &solver, &factor);
    }
}

#[test]
fn threaded_executor_agrees_with_sequential_across_configs() {
    let problem = gen::grid2d(12);
    for bs in [2, 5, 48] {
        let solver = Solver::analyze_problem(&problem, &opts(bs));
        let f_seq = solver.factor_seq().unwrap();
        for p in [1, 4, 9] {
            for (row, col) in [
                (RowPolicy::Heuristic(Heuristic::Cyclic), ColPolicy::Heuristic(Heuristic::Cyclic)),
                (RowPolicy::Heuristic(Heuristic::IncreasingDepth), ColPolicy::Heuristic(Heuristic::Cyclic)),
                (RowPolicy::AltPerProcessor, ColPolicy::Subtree),
            ] {
                let asg = solver.assign(p, row, col);
                let f_par = solver.factor_sched(&asg, &SchedOptions::default()).unwrap().0;
                let (_, _, vs) = f_seq.to_csc();
                let (_, _, vp) = f_par.to_csc();
                let max_diff = vs
                    .iter()
                    .zip(&vp)
                    .map(|(a, b)| (a - b).abs())
                    .fold(0.0f64, f64::max);
                assert!(
                    max_diff < 1e-9,
                    "bs={bs} p={p} {row:?}/{col:?}: max diff {max_diff}"
                );
            }
        }
    }
}

#[test]
fn simulation_efficiency_decreases_with_processor_count() {
    let problem = gen::grid2d(16);
    let solver = Solver::analyze_problem(&problem, &opts(4));
    let model = MachineModel::paragon();
    let mut prev_eff = f64::INFINITY;
    let mut prev_time = f64::INFINITY;
    for p in [1usize, 4, 16] {
        let out = solver.simulate(&solver.assign_heuristic(p), &model);
        assert!(out.efficiency <= prev_eff + 1e-9, "efficiency rose at p={p}");
        assert!(out.report.makespan_s <= prev_time, "runtime rose at p={p}");
        prev_eff = out.efficiency;
        prev_time = out.report.makespan_s;
    }
}

#[test]
fn domains_off_still_works_end_to_end() {
    let problem = gen::cube3d(5);
    let o = SolverOptions { domains: None, block_size: 6, ..Default::default() };
    let solver = Solver::analyze_problem(&problem, &o);
    let asg = solver.assign_cyclic(4);
    assert!(asg.domains.is_none());
    let f = solver.factor_sched(&asg, &SchedOptions::default()).unwrap().0;
    assert!(solver.residual(&f) < 1e-12);
    check_solve(&problem, &solver, &f);
}

#[test]
fn amalgamation_off_still_works_end_to_end() {
    let problem = gen::bcsstk_like("bk", 90, 7);
    let o = SolverOptions {
        analyze: block_fanout_cholesky::core::AnalyzeOpts {
            amalg: block_fanout_cholesky::core::AmalgamationOpts::off(),
            ..Default::default()
        },
        block_size: 4,
        ..Default::default()
    };
    let solver = Solver::analyze_problem(&problem, &o);
    let f = solver.factor_seq().unwrap();
    assert!(solver.residual(&f) < 1e-12);
}

#[test]
fn amalgamation_preserves_the_solution() {
    use block_fanout_cholesky::core::{AmalgamationOpts, AnalyzeOpts};
    for problem in [gen::grid2d(13), gen::cube3d(4), gen::bcsstk_like("bk", 150, 3)] {
        let n = problem.n();
        let x_true: Vec<f64> = (0..n).map(|i| 1.0 + ((i * 5 + 2) % 7) as f64 * 0.2).collect();
        let mut b = vec![0.0; n];
        problem.matrix.mul_vec(&x_true, &mut b);
        let residual_of = |amalg: AmalgamationOpts| {
            let o = SolverOptions {
                analyze: AnalyzeOpts { amalg, ..Default::default() },
                block_size: 6,
                ..Default::default()
            };
            let solver = Solver::analyze_problem(&problem, &o);
            let f = solver.factor_seq().unwrap();
            let x = solver.solve(&f, &b);
            let mut ax = vec![0.0; n];
            problem.matrix.mul_vec(&x, &mut ax);
            let num = ax.iter().zip(&b).map(|(p, q)| (p - q).abs()).fold(0.0, f64::max);
            let den = b.iter().map(|v| v.abs()).fold(0.0, f64::max);
            (num / den, x, solver.bm.num_blocks())
        };
        let (r_off, x_off, blocks_off) = residual_of(AmalgamationOpts::off());
        let (r_on, x_on, blocks_on) = residual_of(AmalgamationOpts::default());
        assert!(blocks_on < blocks_off, "{}: amalgamation merged nothing", problem.name);
        assert!(r_off < 1e-10 && r_on < 1e-10, "{}: {r_off:e} / {r_on:e}", problem.name);
        assert!(
            (r_on - r_off).abs() < 1e-10,
            "{}: residual moved {r_off:e} -> {r_on:e}",
            problem.name
        );
        for (i, (a, b)) in x_on.iter().zip(&x_off).enumerate() {
            assert!((a - b).abs() < 1e-7, "{}: x[{i}] {a} vs {b}", problem.name);
        }
    }
    // And it pays at the paper's B = 48: total block operations fall by more
    // than 20 % (today 25 824 -> 8 085 on GRID48, 3 334 -> 1 636 on the
    // BCSSTK-like mesh).
    for problem in [gen::grid2d(48), gen::bcsstk_like("T", 900, 6)] {
        let block_ops = |amalg: AmalgamationOpts| {
            let o = SolverOptions {
                analyze: AnalyzeOpts { amalg, ..Default::default() },
                block_size: 48,
                ..Default::default()
            };
            Solver::analyze_problem(&problem, &o).work.num_ops
        };
        let (off, on) = (block_ops(AmalgamationOpts::off()), block_ops(AmalgamationOpts::default()));
        let cut = 1.0 - on as f64 / off as f64;
        assert!(cut > 0.20, "{}: block ops {off} -> {on} ({:.1} % cut)", problem.name, 100.0 * cut);
    }
}

#[test]
fn predicted_balance_matches_hand_computed_bound_on_amalgamated_blocks() {
    use block_fanout_cholesky::core::{AmalgamationOpts, AnalyzeOpts, SchedOptions};
    let problem = gen::grid2d(8);
    let o = SolverOptions {
        block_size: 4,
        analyze: AnalyzeOpts {
            amalg: AmalgamationOpts { max_fill_frac: 0.5, max_zero_cols: 2, min_width: 6 },
            ..Default::default()
        },
        ..Default::default()
    };
    let solver = Solver::analyze_problem(&problem, &o);
    // The relaxed thresholds must actually pad: more stored entries than
    // the unamalgamated structure, so the work model below runs on padded
    // blocks.
    let off = Solver::analyze_problem(
        &problem,
        &SolverOptions {
            analyze: AnalyzeOpts {
                amalg: AmalgamationOpts::off(),
                ..Default::default()
            },
            ..o
        },
    );
    assert!(solver.bm.stored_elements() > off.bm.stored_elements(), "no padding introduced");

    let p = 4;
    let asg = solver.assign_heuristic(p);
    let rep = solver.balance(&asg);
    // Hand-computed bound from the per-block padded work and the ownership
    // table: overall = total / (P · max per-processor load).
    let mut load = vec![0u64; p];
    let mut total = 0u64;
    for (j, col) in asg.owner.iter().enumerate() {
        for (b, &q) in col.iter().enumerate() {
            load[q as usize] += solver.work.per_block[j][b];
            total += solver.work.per_block[j][b];
        }
    }
    let max_load = *load.iter().max().unwrap();
    assert_eq!(rep.per_proc, load);
    assert_eq!(rep.total, total);
    let overall = total as f64 / (p as f64 * max_load as f64);
    assert!((rep.overall - overall).abs() < 1e-12, "{} vs {overall}", rep.overall);

    // The critical-path levels are computed over the same padded blocks:
    // no level may exceed the critical path length, and the DAG admits at
    // least the trivial speedup bound.
    let model = MachineModel::paragon();
    let cp = solver.critical_path(&model);
    let levels = block_fanout_cholesky::fanout::block_levels(&solver.bm, &model);
    let max_level = levels.iter().flatten().copied().fold(0.0f64, f64::max);
    assert!(max_level <= cp.length_s * (1.0 + 1e-12), "{max_level} vs {}", cp.length_s);
    assert!(cp.length_s <= cp.seq_time_s * (1.0 + 1e-12));

    // And the traced run report carries exactly this predicted bound.
    let (_, _, report) = solver.factor_sched_report(&asg, &SchedOptions::default()).unwrap();
    let pred = report.predicted.as_ref().expect("balance attached");
    assert!((pred.overall - rep.overall).abs() < 1e-12);
}

#[test]
fn natural_ordering_factors_correctly() {
    let problem = gen::grid2d(8);
    let o = SolverOptions {
        ordering: block_fanout_cholesky::core::OrderingChoice::Natural,
        block_size: 4,
        ..Default::default()
    };
    let solver = Solver::analyze_problem(&problem, &o);
    // Natural ordering on a grid has more fill than ND but must be correct.
    let f = solver.factor_seq().unwrap();
    assert!(solver.residual(&f) < 1e-12);
    check_solve(&problem, &solver, &f);
}

#[test]
fn coprime_grid_assignment_runs() {
    let problem = gen::grid2d(12);
    let solver = Solver::analyze_problem(&problem, &opts(4));
    let grid = block_fanout_cholesky::core::ProcGrid::coprime(6).unwrap();
    let asg = solver.assign_on_grid(
        grid,
        RowPolicy::Heuristic(Heuristic::Cyclic),
        ColPolicy::Heuristic(Heuristic::Cyclic),
    );
    let f = solver.factor_sched(&asg, &SchedOptions::default()).unwrap().0;
    assert!(solver.residual(&f) < 1e-12);
    let out = solver.simulate(&asg, &MachineModel::paragon());
    assert!(out.efficiency > 0.0 && out.efficiency <= 1.0);
}

#[test]
fn matrix_market_roundtrip_through_pipeline() {
    use block_fanout_cholesky::sparsemat::io;
    let problem = gen::bcsstk_like("bk", 60, 11);
    let mut buf = Vec::new();
    io::write_matrix_market(&problem.matrix, &mut buf).unwrap();
    let read_back = io::read_matrix_market(std::io::BufReader::new(&buf[..])).unwrap();
    assert_eq!(read_back, problem.matrix);
    let p2 = Problem::new("roundtrip", read_back, None, gen::OrderingHint::MinimumDegree);
    let solver = Solver::analyze_problem(&p2, &opts(4));
    let f = solver.factor_seq().unwrap();
    assert!(solver.residual(&f) < 1e-12);
}
