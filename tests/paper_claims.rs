//! Integration tests for the paper's qualitative claims, at miniature scale:
//! these are the statements the full-scale `repro` harness quantifies.

use block_fanout_cholesky::core::{
    ColPolicy, Heuristic, MachineModel, ProcGrid, RowPolicy, Solver, SolverOptions,
};
use block_fanout_cholesky::sparsemat::gen;

fn dense_solver(n: usize, bs: usize) -> Solver {
    let problem = gen::dense(n);
    Solver::analyze_problem(&problem, &SolverOptions { block_size: bs, ..Default::default() })
}

/// Section 3: "the remarks we make about diagonal blocks and diagonal
/// processors apply to any SC mapping" — symmetric Cartesian maps suffer
/// diagonal imbalance; breaking symmetry fixes it.
#[test]
fn sc_mappings_have_diagonal_imbalance_nonsymmetric_fix_it() {
    // 48 panels on an 8×8 grid — the regime of the paper's DENSE problems,
    // where its Table 2 reports diag balance 0.69–0.82 under cyclic.
    let solver = dense_solver(480, 10);
    let p = 64;
    let sym = solver.assign_cyclic(p);
    assert!(sym.cp.is_symmetric_cartesian(), "cyclic must be SC");
    let rep = solver.balance(&sym);
    assert!(rep.diag < 0.87, "cyclic diag balance {} unexpectedly good", rep.diag);

    // The paper's fix: independent row/column maps.
    let heu = solver.assign(
        p,
        RowPolicy::Heuristic(Heuristic::IncreasingDepth),
        ColPolicy::Heuristic(Heuristic::Cyclic),
    );
    assert!(!heu.cp.is_symmetric_cartesian());
    let rep_h = solver.balance(&heu);
    assert!(rep_h.diag > 0.9, "nonsymmetric diag balance {} still poor", rep_h.diag);
    assert!(rep_h.overall > rep.overall);
}

/// Section 2.4: a CP mapping sends each block to at most Pr + Pc
/// processors.
#[test]
fn cp_mapping_bounds_block_recipients() {
    let problem = gen::grid2d(14);
    let solver = Solver::analyze_problem(&problem, &SolverOptions { block_size: 4, ..Default::default() });
    let grid = ProcGrid::new(2, 3);
    let asg = solver.assign_on_grid(
        grid,
        RowPolicy::Heuristic(Heuristic::DecreasingWork),
        ColPolicy::Heuristic(Heuristic::IncreasingDepth),
    );
    let plan = block_fanout_cholesky::core::Plan::build(&solver.bm, &asg);
    for id in 0..solver.bm.num_blocks() {
        let list = plan.recipients(id);
        assert!(
            list.len() <= grid.pr + grid.pc,
            "block sent to {} > Pr + Pc processors",
            list.len()
        );
    }
}

/// Section 1/paper abstract: 2-D mappings communicate o(P) per processor —
/// total volume grows clearly slower than linearly in P.
#[test]
fn communication_volume_grows_sublinearly_in_p() {
    let problem = gen::grid2d(20);
    let solver = Solver::analyze_problem(&problem, &SolverOptions { block_size: 4, ..Default::default() });
    let vol = |p: usize| {
        let asg = solver.assign_cyclic(p);
        solver.comm(&asg).elements as f64
    };
    let v4 = vol(4);
    let v16 = vol(16);
    // Quadrupling P should far less than quadruple the volume (the paper's
    // √P scaling is asymptotic; we only require clear sublinearity).
    assert!(v16 < 3.0 * v4, "volume grew from {v4} to {v16}");
}

/// Section 4.1: "all of the heuristics remove the diagonal imbalance" and
/// improve the overall balance bound.
#[test]
fn every_heuristic_improves_overall_balance_on_irregular_problems() {
    let problem = gen::bcsstk_like("bk", 240, 31);
    let solver = Solver::analyze_problem(&problem, &SolverOptions { block_size: 4, ..Default::default() });
    let p = 16;
    let base = solver.balance(&solver.assign_cyclic(p));
    for h in [
        Heuristic::DecreasingWork,
        Heuristic::IncreasingNumber,
        Heuristic::DecreasingNumber,
        Heuristic::IncreasingDepth,
    ] {
        let asg = solver.assign(p, RowPolicy::Heuristic(h), ColPolicy::Heuristic(h));
        let rep = solver.balance(&asg);
        assert!(
            rep.overall > base.overall,
            "{h:?}: {} vs cyclic {}",
            rep.overall,
            base.overall
        );
        assert!(rep.diag >= base.diag, "{h:?} diag got worse");
    }
}

/// Section 4.2: relatively prime grid dimensions remove diagonal imbalance
/// without any remapping.
#[test]
fn coprime_grid_removes_diagonal_imbalance() {
    let solver = dense_solver(240, 10);
    let square = solver.balance(&solver.assign_cyclic(16));
    let coprime = ProcGrid::coprime(15).unwrap(); // 3×5
    let asg = solver.assign_on_grid(
        coprime,
        RowPolicy::Heuristic(Heuristic::Cyclic),
        ColPolicy::Heuristic(Heuristic::Cyclic),
    );
    let rep = solver.balance(&asg);
    assert!(
        rep.diag > square.diag,
        "coprime diag {} vs square diag {}",
        rep.diag,
        square.diag
    );
}

/// Section 5: the subtree column mapping reduces communication volume (the
/// paper saw ~30%) even though it does not pay off in runtime on the
/// Paragon.
#[test]
fn subtree_column_map_cuts_volume_on_tree_structured_problems() {
    let problem = gen::grid2d(24);
    let solver = Solver::analyze_problem(&problem, &SolverOptions { block_size: 4, ..Default::default() });
    let p = 16;
    let row = RowPolicy::Heuristic(Heuristic::IncreasingDepth);
    let cyc = solver.assign(p, row, ColPolicy::Heuristic(Heuristic::Cyclic));
    let sub = solver.assign(p, row, ColPolicy::Subtree);
    let (vc, vs) = (solver.comm(&cyc), solver.comm(&sub));
    assert!(
        (vs.elements as f64) < 0.9 * vc.elements as f64,
        "subtree {} vs cyclic {}",
        vs.elements,
        vc.elements
    );
}

/// Section 4: the headline — remapping improves simulated parallel runtime
/// on the Paragon model.
#[test]
fn remapping_improves_simulated_runtime() {
    let model = MachineModel::paragon();
    for problem in [gen::cube3d(8), gen::bcsstk_like("bk", 300, 5)] {
        let solver =
            Solver::analyze_problem(&problem, &SolverOptions { block_size: 8, ..Default::default() });
        let p = 16;
        let cyc = solver.simulate(&solver.assign_cyclic(p), &model);
        let heu = solver.simulate(&solver.assign_heuristic(p), &model);
        assert!(
            heu.report.makespan_s < cyc.report.makespan_s,
            "{}: heuristic {} vs cyclic {}",
            problem.name,
            heu.report.makespan_s,
            cyc.report.makespan_s
        );
    }
}

/// The efficiency bound: simulated efficiency never exceeds the overall
/// balance bound by more than the modelling slack.
#[test]
fn balance_bounds_efficiency() {
    let model = MachineModel::paragon();
    for p in [4usize, 16] {
        let problem = gen::grid2d(16);
        let solver =
            Solver::analyze_problem(&problem, &SolverOptions { block_size: 4, ..Default::default() });
        let asg = solver.assign_cyclic(p);
        let rep = solver.balance(&asg);
        let out = solver.simulate(&asg, &model);
        // The work model and the machine model use the same per-op costs, so
        // the bound holds up to small rate-curve differences.
        assert!(
            out.efficiency <= rep.overall * 1.10,
            "p={p}: efficiency {} exceeds balance bound {}",
            out.efficiency,
            rep.overall
        );
    }
}
