//! The independent oracle. Every other numeric test compares block fan-out
//! drivers with each other; here their factor is checked entry by entry
//! against the simplicial column Cholesky — which shares no kernel, block
//! structure or task order with them — and their solve against the backward
//! error `‖Ax − b‖∞ / (‖A‖∞‖x‖∞ + ‖b‖∞)` rather than a bare residual.

use block_fanout_cholesky::core::{
    AmalgamationOpts, AnalyzeOpts, BlockPolicy, SchedOptions, Solver, SolverOptions,
};
use block_fanout_cholesky::fanout::factorize_simplicial_from;
use block_fanout_cholesky::sparsemat::{gen, SymCscMatrix};

fn max_abs(v: &[f64]) -> f64 {
    v.iter().fold(0.0, |m, x| m.max(x.abs()))
}

/// `‖A‖∞` of a symmetric matrix stored as its lower triangle.
fn norm_inf(a: &SymCscMatrix) -> f64 {
    let mut row_sums = vec![0.0f64; a.n()];
    for j in 0..a.n() {
        for (&i, &v) in a.col_rows(j).iter().zip(a.col_values(j)) {
            row_sums[i as usize] += v.abs();
            if i as usize != j {
                row_sums[j] += v.abs();
            }
        }
    }
    max_abs(&row_sums)
}

#[test]
fn both_drivers_match_the_simplicial_factor_and_solve_backward_stably() {
    let problems = [
        gen::grid2d(18),
        gen::cube3d(7),
        gen::bcsstk_like("oracle-bk", 390, 3),
        gen::copter_like("oracle-copter", 390, 5),
        gen::fleet_like("oracle-fleet", 400, 7),
    ];
    let policies =
        [BlockPolicy::Uniform, BlockPolicy::WorkEqualized, BlockPolicy::Rectilinear { sweeps: 2 }];
    for p in &problems {
        let a = &p.matrix;
        let n = a.n();
        let b: Vec<f64> = (0..n).map(|i| ((i * 37 % 23) as f64) * 0.125 - 1.25).collect();
        for block_policy in policies {
            for amalg in [AmalgamationOpts::off(), AmalgamationOpts::default()] {
                let what = format!("{} {block_policy:?} amalgamation {amalg:?}", p.name);
                let opts = SolverOptions {
                    block_size: 8,
                    block_policy,
                    analyze: AnalyzeOpts { amalg, ..Default::default() },
                    ..Default::default()
                };
                let solver = Solver::analyze(a, &opts);
                let oracle = factorize_simplicial_from(&solver.assemble(), &solver.permuted)
                    .unwrap_or_else(|e| panic!("{what}: oracle: {e}"));
                let f_seq = solver.factor_seq().unwrap();
                let asg = solver.assign_default(4);
                let (f_sched, _) = solver.factor_sched(&asg, &SchedOptions::default()).unwrap();
                for (driver, f) in [("seq", &f_seq), ("sched", &f_sched)] {
                    let (col_ptr, row_idx, values) = f.to_csc();
                    assert_eq!(col_ptr, oracle.col_ptr, "{what} {driver}");
                    assert_eq!(row_idx, oracle.row_idx, "{what} {driver}");
                    for (e, (got, want)) in values.iter().zip(&oracle.values).enumerate() {
                        assert!(
                            (got - want).abs() <= 1e-10 * want.abs(),
                            "{what} {driver}: L entry {e} (row {}) is {got:e}, oracle {want:e}",
                            row_idx[e]
                        );
                    }
                    let x = solver.solve(f, &b);
                    let mut r = vec![0.0; n];
                    a.mul_vec(&x, &mut r);
                    for (ri, bi) in r.iter_mut().zip(&b) {
                        *ri -= bi;
                    }
                    let backward = max_abs(&r) / (norm_inf(a) * max_abs(&x) + max_abs(&b));
                    assert!(backward <= 1e-13, "{what} {driver}: backward error {backward:e}");
                }
            }
        }
    }
}
