//! Two organizations of sparse Cholesky on the same matrix:
//!
//! * simplicial left-looking (column at a time, no blocks — the 1980s
//!   baseline, and this repository's independent oracle),
//! * block fan-out (the paper's right-looking block kernels).
//!
//! Both produce the same factor; the wall-clock difference shows why the
//! paper builds on blocks.
//!
//! ```text
//! cargo run --release --example methods_comparison [grid_dim]
//! ```

use block_fanout_cholesky::core::{Solver, SolverOptions};
use block_fanout_cholesky::fanout;
use std::time::Instant;

fn main() {
    let k: usize = std::env::args().nth(1).and_then(|s| s.parse().ok()).unwrap_or(60);
    let problem = block_fanout_cholesky::sparsemat::gen::grid2d(k);
    let solver = Solver::analyze_problem(&problem, &SolverOptions::default());
    let ops = solver.stats().ops as f64;
    println!(
        "{}: n = {}, NZ(L) = {}, {:.1} Mflops\n",
        problem.name,
        problem.n(),
        solver.stats().nnz_l,
        ops / 1e6
    );

    // 1. Simplicial left-looking.
    let f0 = fanout::NumericFactor::from_matrix(solver.bm.clone(), &solver.permuted);
    let (cp, ri, _) = f0.to_csc();
    let t = Instant::now();
    let simp = fanout::factorize_simplicial(&solver.permuted, &cp, &ri).unwrap();
    let t_simp = t.elapsed().as_secs_f64();

    // 2. Block fan-out (the paper's kernels).
    let t = Instant::now();
    let f_block = solver.factor_seq().unwrap();
    let t_block = t.elapsed().as_secs_f64();

    println!("{:<22} {:>10} {:>12}", "method", "time", "Mflop/s");
    for (name, secs) in [("simplicial (no blocks)", t_simp), ("block fan-out", t_block)] {
        println!("{:<22} {:>8.1}ms {:>12.0}", name, secs * 1e3, ops / secs / 1e6);
    }

    // The two agree.
    let (_, _, vb) = f_block.to_csc();
    let mut max_diff: f64 = 0.0;
    for (s, b) in simp.values.iter().zip(&vb) {
        max_diff = max_diff.max((s - b).abs());
    }
    println!("\nmax cross-method factor difference: {max_diff:.2e}");
    assert!(max_diff < 1e-9);
    println!("ok");
}
