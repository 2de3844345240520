//! A structural-analysis workload: factor a synthetic finite-element
//! stiffness matrix on virtual processors and solve several load cases —
//! the scenario the paper's introduction motivates (sparse Cholesky as the
//! bottleneck of engineering computations).
//!
//! ```text
//! cargo run --release --example structural_analysis
//! ```
//!
//! Demonstrates:
//! * the work-stealing scheduler (real numerics: the virtual-processor
//!   plan of the paper's block fan-out on this machine's worker threads);
//! * how the mapping changes the load balance of the same computation;
//! * factor once, solve many right-hand sides.

use block_fanout_cholesky::core::{SchedOptions, Solver, SolverOptions};
use block_fanout_cholesky::sparsemat::gen;

fn main() {
    // A ~3000-dof stiffness-like matrix (3 dofs per mesh node).
    let problem = gen::bcsstk_like("frame-3k", 3000, 2024);
    let n = problem.n();
    let opts = SolverOptions { block_size: 24, ..Default::default() };
    let solver = Solver::analyze_problem(&problem, &opts);
    println!(
        "{}: n = {n}, NZ(L) = {}, {:.1} Mflops",
        problem.name,
        solver.stats().nnz_l,
        solver.stats().ops as f64 / 1e6
    );

    // Compare the balance of the cyclic and remapped assignments on a
    // 4×4 virtual machine.
    let p = 16;
    let cyclic = solver.assign_cyclic(p);
    let remapped = solver.assign_heuristic(p);
    let (bc, bh) = (solver.balance(&cyclic), solver.balance(&remapped));
    println!("cyclic mapping:   overall balance {:.2} (row {:.2}, col {:.2}, diag {:.2})",
        bc.overall, bc.row, bc.col, bc.diag);
    println!("heuristic (ID/CY): overall balance {:.2} (row {:.2}, col {:.2}, diag {:.2})",
        bh.overall, bh.row, bh.col, bh.diag);

    // Factor on the better mapping with the work-stealing scheduler.
    let (factor, _) = solver
        .factor_sched(&remapped, &SchedOptions::default())
        .expect("stiffness matrix is SPD");
    println!("parallel factor residual: {:.2e}", solver.residual(&factor));

    // Solve a batch of load cases against the single factorization.
    for (case, load) in ["dead load", "wind +x", "wind +y"].iter().enumerate().map(|(i, n)| (n, i)) {
        let b: Vec<f64> = (0..n)
            .map(|i| match load {
                0 => -9.81,
                1 => ((i % 3 == 0) as i32 as f64) * 1.5,
                _ => ((i % 3 == 1) as i32 as f64) * 0.8,
            })
            .collect();
        let x = solver.solve(&factor, &b);
        // Report the largest displacement.
        let umax = x.iter().fold(0.0f64, |m, &v| m.max(v.abs()));
        println!("load case {case:>9}: max |u| = {umax:.4}");
    }
    println!("ok");
}
