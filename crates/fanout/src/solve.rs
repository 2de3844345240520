//! Triangular solves with the computed factor, and residual checks.

use crate::factor::NumericFactor;
use sparsemat::SymCscMatrix;

/// Solves `L·Lᵀ·x = b` with the factor in `f` (indices in the *permuted*
/// ordering — callers apply/undo the fill permutation around this).
pub fn solve(f: &NumericFactor, b: &[f64]) -> Vec<f64> {
    let n = f.bm.sn.n();
    assert_eq!(b.len(), n);
    let (cp, ri, v) = f.to_csc();
    let mut x = b.to_vec();
    solve_csc(&cp, &ri, &v, &mut x);
    x
}

/// Solves `L·Lᵀ·x = b` in place given the factor's CSC arrays (diagonal
/// entry first per column). This is the single shared solve core: the
/// one-shot [`solve`] and the plan-reusing session path both land here, so
/// their results are bit-identical by construction.
pub fn solve_csc(cp: &[usize], ri: &[u32], v: &[f64], x: &mut [f64]) {
    let n = x.len();
    debug_assert_eq!(cp.len(), n + 1);
    // Forward: L·y = b (column-oriented; diagonal entry first per column).
    for j in 0..n {
        let d = v[cp[j]];
        x[j] /= d;
        let xj = x[j];
        for e in cp[j] + 1..cp[j + 1] {
            x[ri[e] as usize] -= v[e] * xj;
        }
    }
    // Backward: Lᵀ·x = y (dot products against columns of L).
    for j in (0..n).rev() {
        let mut s = x[j];
        for e in cp[j] + 1..cp[j + 1] {
            s -= v[e] * x[ri[e] as usize];
        }
        x[j] = s / v[cp[j]];
    }
}

/// Blocked multi-right-hand-side solve: `x` holds `k` interleaved lanes
/// (`x[i*k + r]` is row `i` of lane `r`) and the factor is streamed **once**
/// for all lanes. The lane loop is innermost, so each lane performs exactly
/// the operation sequence of [`solve_csc`] — per-lane results are
/// bit-identical to `k` independent single-vector solves.
pub fn solve_csc_multi(cp: &[usize], ri: &[u32], v: &[f64], x: &mut [f64], k: usize) {
    if k == 0 {
        return;
    }
    if k == 1 {
        return solve_csc(cp, ri, v, x);
    }
    let n = x.len() / k;
    debug_assert_eq!(x.len(), n * k);
    debug_assert_eq!(cp.len(), n + 1);
    for j in 0..n {
        let d = v[cp[j]];
        for r in 0..k {
            x[j * k + r] /= d;
        }
        for e in cp[j] + 1..cp[j + 1] {
            let i = ri[e] as usize;
            let ve = v[e];
            for r in 0..k {
                x[i * k + r] -= ve * x[j * k + r];
            }
        }
    }
    for j in (0..n).rev() {
        let d = v[cp[j]];
        for r in 0..k {
            let mut s = x[j * k + r];
            for e in cp[j] + 1..cp[j + 1] {
                s -= v[e] * x[ri[e] as usize * k + r];
            }
            x[j * k + r] = s / d;
        }
    }
}

/// Relative residual `‖A·x − L·(Lᵀ·x)‖∞ / ‖A·x‖∞` for a deterministic probe
/// vector — a cheap global correctness check usable at any problem size.
pub fn residual_norm(a: &SymCscMatrix, f: &NumericFactor) -> f64 {
    let n = a.n();
    assert_eq!(n, f.bm.sn.n());
    let x: Vec<f64> = (0..n).map(|i| ((i % 13) as f64 - 6.0) / 7.0 + 1.0).collect();
    let mut ax = vec![0.0; n];
    a.mul_vec(&x, &mut ax);
    // L·(Lᵀ·x)
    let (cp, ri, v) = f.to_csc();
    let mut ltx = vec![0.0; n];
    for j in 0..n {
        let mut s = 0.0;
        for e in cp[j]..cp[j + 1] {
            s += v[e] * x[ri[e] as usize];
        }
        ltx[j] = s;
    }
    let mut llt = vec![0.0; n];
    for j in 0..n {
        let w = ltx[j];
        for e in cp[j]..cp[j + 1] {
            llt[ri[e] as usize] += v[e] * w;
        }
    }
    let denom = ax.iter().fold(0.0f64, |m, &t| m.max(t.abs())).max(1e-300);
    ax.iter()
        .zip(&llt)
        .fold(0.0f64, |m, (&p, &q)| m.max((p - q).abs()))
        / denom
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::seq::factorize_seq;
    use blockmat::BlockMatrix;
    use std::sync::Arc;
    use symbolic::AmalgamationOpts;

    fn factored(p: &sparsemat::Problem, bs: usize) -> (NumericFactor, SymCscMatrix) {
        let perm = ordering::order_problem(p);
        let analysis = symbolic::analyze(p.matrix.pattern(), &perm, &AmalgamationOpts::default());
        let pa = analysis.perm.apply_to_matrix(&p.matrix);
        let bm = Arc::new(BlockMatrix::build(analysis.supernodes, bs));
        let mut f = NumericFactor::from_matrix(bm, &pa);
        factorize_seq(&mut f).unwrap();
        (f, pa)
    }

    #[test]
    fn solve_recovers_known_solution() {
        let p = sparsemat::gen::grid2d(6);
        let (f, pa) = factored(&p, 3);
        let n = p.n();
        let x_true: Vec<f64> = (0..n).map(|i| (i as f64 * 0.37).sin() + 2.0).collect();
        let mut b = vec![0.0; n];
        pa.mul_vec(&x_true, &mut b);
        let x = solve(&f, &b);
        for (got, want) in x.iter().zip(&x_true) {
            assert!((got - want).abs() < 1e-8, "{got} vs {want}");
        }
    }

    #[test]
    fn residual_is_tiny_for_correct_factor() {
        let p = sparsemat::gen::bcsstk_like("T", 120, 9);
        let (f, pa) = factored(&p, 6);
        assert!(residual_norm(&pa, &f) < 1e-12);
    }

    #[test]
    fn solve_many_lanes_are_bit_identical_to_single_solves() {
        let p = sparsemat::gen::grid2d(7);
        let (f, pa) = factored(&p, 4);
        let n = p.n();
        let rhs: Vec<Vec<f64>> = (0..5)
            .map(|r| {
                (0..n)
                    .map(|i| ((i * 3 + r * 7) as f64 * 0.21).cos() + 0.5)
                    .collect()
            })
            .collect();
        let k = rhs.len();
        // Interleave lanes: x[i*k + r] = rhs[r][i].
        let mut x = vec![0.0; n * k];
        for (r, b) in rhs.iter().enumerate() {
            for (i, &bi) in b.iter().enumerate() {
                x[i * k + r] = bi;
            }
        }
        let (cp, ri, v) = f.to_csc();
        solve_csc_multi(&cp, &ri, &v, &mut x, k);
        for (r, b) in rhs.iter().enumerate() {
            let single = solve(&f, b);
            for (i, s) in single.iter().enumerate() {
                assert_eq!(x[i * k + r].to_bits(), s.to_bits(), "lane diverged from single solve");
            }
        }
        // And the batch actually solves the system.
        let lane0: Vec<f64> = (0..n).map(|i| x[i * k]).collect();
        let mut ax = vec![0.0; n];
        pa.mul_vec(&lane0, &mut ax);
        for (a, b) in ax.iter().zip(&rhs[0]) {
            assert!((a - b).abs() < 1e-8);
        }
    }

    #[test]
    fn residual_detects_corruption() {
        let p = sparsemat::gen::grid2d(5);
        let (mut f, pa) = factored(&p, 3);
        // Corrupt one stored value.
        f.data[0][0] += 0.5;
        assert!(residual_norm(&pa, &f) > 1e-6);
    }
}
