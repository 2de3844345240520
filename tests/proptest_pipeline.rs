//! Property-based tests over the whole pipeline: random SPD matrices must
//! analyze, map, factor (all executors) and solve correctly under arbitrary
//! valid configurations.

use block_fanout_cholesky::core::{
    ColPolicy, Heuristic, ProcGrid, RowPolicy, SchedOptions, Solver, SolverOptions,
};
use block_fanout_cholesky::sparsemat::{gen, Problem, SymCscMatrix};
use proptest::prelude::*;

/// Random SPD matrix: a random undirected edge set made diagonally dominant.
fn arb_spd(max_n: usize) -> impl Strategy<Value = SymCscMatrix> {
    (2usize..max_n).prop_flat_map(move |n| {
        let edges = proptest::collection::vec(
            ((0..n as u32), (0..n as u32), 0.1f64..5.0),
            0..(4 * n),
        );
        edges.prop_map(move |es| {
            let edges: Vec<(u32, u32, f64)> =
                es.into_iter().filter(|(a, b, _)| a != b).collect();
            gen::spd_from_edges(n, &edges)
        })
    })
}

fn arb_heuristic() -> impl Strategy<Value = Heuristic> {
    prop_oneof![
        Just(Heuristic::Cyclic),
        Just(Heuristic::DecreasingWork),
        Just(Heuristic::IncreasingNumber),
        Just(Heuristic::DecreasingNumber),
        Just(Heuristic::IncreasingDepth),
    ]
}

proptest! {
    #![proptest_config(ProptestConfig { cases: 32, ..ProptestConfig::default() })]

    #[test]
    fn random_spd_factors_and_solves(a in arb_spd(40), bs in 1usize..9) {
        let n = a.n();
        let problem = Problem::new("prop", a, None, gen::OrderingHint::MinimumDegree);
        let solver = Solver::analyze_problem(
            &problem,
            &SolverOptions { block_size: bs, ..Default::default() },
        );
        let factor = solver.factor_seq().expect("SPD by construction");
        prop_assert!(solver.residual(&factor) < 1e-10);
        // Solve against a manufactured solution.
        let x_true: Vec<f64> = (0..n).map(|i| (i as f64) * 0.25 - 1.0).collect();
        let mut b = vec![0.0; n];
        problem.matrix.mul_vec(&x_true, &mut b);
        let x = solver.solve(&factor, &b);
        for (got, want) in x.iter().zip(&x_true) {
            prop_assert!((got - want).abs() < 1e-6, "{got} vs {want}");
        }
    }

    #[test]
    fn threaded_matches_sequential_on_random_input(
        a in arb_spd(30),
        bs in 1usize..6,
        p in 1usize..7,
        rh in arb_heuristic(),
        ch in arb_heuristic(),
    ) {
        let problem = Problem::new("prop", a, None, gen::OrderingHint::MinimumDegree);
        let solver = Solver::analyze_problem(
            &problem,
            &SolverOptions { block_size: bs, ..Default::default() },
        );
        let grid = ProcGrid::near_square(p);
        let asg = solver.assign_on_grid(
            grid,
            RowPolicy::Heuristic(rh),
            ColPolicy::Heuristic(ch),
        );
        let f_seq = solver.factor_seq().unwrap();
        let f_par = solver.factor_sched(&asg, &SchedOptions::default()).unwrap().0;
        let (_, _, vs) = f_seq.to_csc();
        let (_, _, vp) = f_par.to_csc();
        for (x, y) in vs.iter().zip(&vp) {
            prop_assert!((x - y).abs() < 1e-9, "{x} vs {y}");
        }
    }

    #[test]
    fn analysis_invariants_hold(a in arb_spd(50)) {
        let problem = Problem::new("prop", a, None, gen::OrderingHint::MinimumDegree);
        let solver = Solver::analyze_problem(&problem, &SolverOptions::default());
        let n = problem.n();
        // Permutation is a bijection (checked by construction) that matches
        // the permuted pattern.
        prop_assert_eq!(solver.analysis.perm.len(), n);
        // Supernodes exactly cover the columns.
        let sn = &solver.analysis.supernodes;
        prop_assert_eq!(sn.first_col[0], 0);
        prop_assert_eq!(*sn.first_col.last().unwrap() as usize, n);
        // Block partition covers every column once.
        let bp = &solver.bm.partition;
        for j in 0..n {
            let p = bp.panel_of_col[j] as usize;
            prop_assert!(bp.cols(p).contains(&j));
        }
        // Work model conservation.
        prop_assert_eq!(
            solver.work.row_work.iter().sum::<u64>(),
            solver.work.total
        );
        // Stored factor structure is at least the exact factor size.
        prop_assert!(sn.total_nnz() >= solver.stats().nnz_l + n as u64);
    }

    #[test]
    fn assignment_covers_all_blocks_and_conserves_work(
        a in arb_spd(40),
        p in 1usize..10,
    ) {
        let problem = Problem::new("prop", a, None, gen::OrderingHint::MinimumDegree);
        let solver = Solver::analyze_problem(
            &problem,
            &SolverOptions { block_size: 3, ..Default::default() },
        );
        let grid = ProcGrid::near_square(p);
        let asg = solver.assign_on_grid(
            grid,
            RowPolicy::Heuristic(Heuristic::DecreasingWork),
            ColPolicy::Heuristic(Heuristic::Cyclic),
        );
        let load = asg.per_proc_work(&solver.work);
        prop_assert_eq!(load.iter().sum::<u64>(), solver.work.total);
        let rep = solver.balance(&asg);
        prop_assert!(rep.overall > 0.0 && rep.overall <= 1.0);
        prop_assert!(rep.row > 0.0 && rep.row <= 1.0);
        prop_assert!(rep.col > 0.0 && rep.col <= 1.0);
        prop_assert!(rep.diag > 0.0 && rep.diag <= 1.0);
    }

    #[test]
    fn simulation_is_deterministic_and_bounded(
        a in arb_spd(30),
        p in 1usize..6,
    ) {
        let problem = Problem::new("prop", a, None, gen::OrderingHint::MinimumDegree);
        let solver = Solver::analyze_problem(
            &problem,
            &SolverOptions { block_size: 4, ..Default::default() },
        );
        let grid = ProcGrid::near_square(p);
        let asg = solver.assign_on_grid(
            grid,
            RowPolicy::Heuristic(Heuristic::IncreasingDepth),
            ColPolicy::Heuristic(Heuristic::Cyclic),
        );
        let model = block_fanout_cholesky::core::MachineModel::paragon();
        let o1 = solver.simulate(&asg, &model);
        let o2 = solver.simulate(&asg, &model);
        prop_assert_eq!(o1.report.makespan_s, o2.report.makespan_s);
        prop_assert!(o1.efficiency > 0.0 && o1.efficiency <= 1.0 + 1e-9);
        // Makespan is at least the critical chain of any single node's work
        // and at most the whole sequential time (plus communication).
        prop_assert!(o1.report.makespan_s * (grid.p() as f64) + 1e-12 >= o1.seq_time_s * 0.999);
    }

    /// Graph nested dissection must return a bijection on every input — no
    /// coordinates involved — with a separator tree whose subtree column
    /// ranges are disjoint, in-bounds, and usable for parallel analysis.
    #[test]
    fn nd_graph_orders_every_pattern_bijectively(a in arb_spd(50)) {
        let n = a.n();
        let g = block_fanout_cholesky::sparsemat::Graph::from_pattern(a.pattern());
        let (perm, tree) = block_fanout_cholesky::ordering::nd_graph(
            &g,
            &block_fanout_cholesky::ordering::NdGraphOptions::default(),
        );
        let mut seen = vec![false; n];
        for old in 0..n {
            let new = perm.new_of_old(old);
            prop_assert!(new < n, "image in range");
            prop_assert!(!seen[new], "no collision at {new}");
            seen[new] = true;
        }
        let ranges = tree.parallel_ranges(8);
        let mut last = 0u32;
        for r in &ranges {
            prop_assert!(r.start >= last && r.start < r.end && r.end <= n as u32,
                "range {r:?} sorted/disjoint/in-bounds");
            last = r.end;
        }
    }

    /// End to end under the new configuration surface: graph nested
    /// dissection ordering with proportional row/column mapping must factor
    /// and solve like any other policy combination.
    #[test]
    fn nested_dissection_with_proportional_mapping_solves(
        a in arb_spd(36),
        bs in 1usize..7,
        p in 1usize..7,
    ) {
        let o = SolverOptions {
            block_size: bs,
            ordering: block_fanout_cholesky::core::OrderingChoice::NestedDissection,
            row_policy: RowPolicy::Proportional,
            col_policy: ColPolicy::Proportional,
            ..Default::default()
        };
        let solver = Solver::analyze(&a, &o);
        let asg = solver.assign_default(p * p);
        let load = asg.per_proc_work(&solver.work);
        prop_assert_eq!(load.iter().sum::<u64>(), solver.work.total);
        let f_seq = solver.factor_seq().expect("SPD by construction");
        let f_par = solver.factor_sched(&asg, &SchedOptions::default()).expect("SPD by construction").0;
        prop_assert!(solver.residual(&f_par) < 1e-10);
        let (_, _, vs) = f_seq.to_csc();
        let (_, _, vp) = f_par.to_csc();
        for (x, y) in vs.iter().zip(&vp) {
            prop_assert!((x - y).abs() < 1e-9);
        }
    }
}

/// On separable synthetic structures (regular grids), nested dissection must
/// never produce more fill than the natural (banded) ordering — the paper's
/// Table 1 premise. Checked with exact symbolic counts, no numerics.
#[test]
fn nd_fill_never_exceeds_natural_on_separable_corpus() {
    use block_fanout_cholesky::core::OrderingChoice;
    let corpus = [
        gen::grid2d(8),
        gen::grid2d(12),
        gen::grid2d(16),
        gen::cube3d(4),
        gen::cube3d(6),
    ];
    for p in &corpus {
        let natural = Solver::analyze_problem(
            p,
            &SolverOptions { ordering: OrderingChoice::Natural, ..Default::default() },
        );
        let nd = Solver::analyze_problem(
            p,
            &SolverOptions { ordering: OrderingChoice::NestedDissection, ..Default::default() },
        );
        assert!(
            nd.stats().nnz_l <= natural.stats().nnz_l,
            "{}: nd fill {} > natural fill {}",
            p.name,
            nd.stats().nnz_l,
            natural.stats().nnz_l,
        );
    }
}
