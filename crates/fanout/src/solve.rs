//! Triangular solves with the computed factor, and residual checks.
//!
//! Two substitutions compute the same bits. [`solve_csc`] is the
//! reference: a column sweep over the factor's CSC export
//! ([`NumericFactor::to_csc`]). [`solve_in_place`] runs on the block storage
//! itself — no second copy of L — and every lane of it performs exactly
//! `solve_csc`'s operation sequence.

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
/// entry first per column): the reference substitution. The one-shot
/// [`solve`] runs it, and [`solve_in_place`] is bit-equal to it lane by
/// lane.
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

/// Runs `$step::<L>($args…, k, r0)` over lanes `0..k` in chunks of
/// [`lane_chunk`] width `L` starting at lane `r0`.
macro_rules! by_lane_chunks {
    ($k:expr, $step:ident($($arg:expr),*)) => {
        let mut r0 = 0;
        while r0 < $k {
            let lanes = lane_chunk($k - r0);
            match lanes {
                8 => $step::<8>($($arg,)* $k, r0),
                4 => $step::<4>($($arg,)* $k, r0),
                2 => $step::<2>($($arg,)* $k, r0),
                _ => $step::<1>($($arg,)* $k, r0),
            }
            r0 += lanes;
        }
    };
}

/// Solves `L·Lᵀ·X = B` in place on the block factor for `k` interleaved
/// right-hand sides (`x[i*k + r]` is row `i` of lane `r`, indices in the
/// permuted ordering). `gathered` is grow-only scratch; once it has grown,
/// repeated solves allocate nothing.
///
/// Each panel is its `c × c` diagonal block and the one dense `rows × c`
/// slab below it ([`NumericFactor::to_csc`] walks the same view), and every
/// lane performs exactly [`solve_csc`]'s operation sequence on `to_csc`'s
/// arrays, so each lane is bit-equal to `solve_csc` on that lane alone:
///
/// * forward, panels ascending: [`dense::trsv_lower_multi`] on the diagonal
///   block (a row of L gets its terms in ascending column order, then the
///   division — `solve_csc`'s column sweep reaches it in that order), then
///   every slab row subtracts its `c` terms in ascending column order;
/// * backward, panels descending, each panel's columns descending: the
///   column's diagonal-block terms in ascending row order, then its slab
///   terms against the slab rows' values (gathered once per panel), then
///   the division — `solve_csc`'s dot product over a column, rows ascending.
///
/// No `mul_add`, and the lane loop is innermost: lanes run in chunks of 8,
/// 4, 2 and 1 whose accumulators stay in registers, and four slab rows are
/// interleaved in the forward step so their dependency chains overlap.
pub fn solve_in_place(f: &NumericFactor, x: &mut [f64], k: usize, gathered: &mut Vec<f64>) {
    assert_eq!(x.len(), f.bm.sn.n() * k, "x holds n rows of k lanes");
    match k {
        1 => sweep::<1>(f, x, 1, gathered),
        8 => sweep::<8>(f, x, 8, gathered),
        _ => sweep::<0>(f, x, k, gathered),
    }
}

/// Both substitutions over every panel. `K` is the lane count when it is
/// known at compile time — one resolve or one full batch, a single register
/// chunk with a constant lane stride — and 0 otherwise.
fn sweep<const K: usize>(f: &NumericFactor, x: &mut [f64], k: usize, gathered: &mut Vec<f64>) {
    let k = if K > 0 { K } else { k };
    let np = f.bm.num_panels();
    for pj in 0..np {
        let p @ (start, c, diag, ..) = f.panel(pj);
        dense::trsv_lower_multi(diag, c, &mut x[start * k..(start + c) * k], k);
        by_lane_chunks!(k, forward_slab(p, x));
    }
    for pj in (0..np).rev() {
        let p @ (.., rows) = f.panel(pj);
        let need = rows.len() * lane_chunk(k);
        if gathered.len() < need {
            gathered.resize(need, 0.0);
        }
        by_lane_chunks!(k, backward_panel(p, x, gathered));
    }
}

/// A block column as [`NumericFactor::panel`] returns it: first column,
/// width `c`, diagonal block, slab, slab rows.
type Panel<'a> = (usize, usize, &'a [f64], &'a [f64], &'a [u32]);

/// Lanes `at..at + L` of `s`.
#[inline(always)]
fn lanes<const L: usize>(s: &[f64], at: usize) -> [f64; L] {
    s[at..at + L].try_into().expect("L lanes convert to [f64; L]")
}

/// Width of the next lane chunk when `left` lanes remain.
#[inline]
fn lane_chunk(left: usize) -> usize {
    match left {
        8.. => 8,
        4..=7 => 4,
        2..=3 => 2,
        _ => 1,
    }
}

/// Forward step below one panel for lanes `r0..r0 + L`: each slab row `g`
/// becomes `x[g] − Σ_t slab[g][t]·x[start + t]`, subtracted term by term in
/// ascending `t`, four rows at a time.
#[inline(always)]
fn forward_slab<const L: usize>(p: Panel, x: &mut [f64], k: usize, r0: usize) {
    let (start, c, _, slab, rows) = p;
    let (head, below) = x.split_at_mut((start + c) * k);
    let xp = &head[start * k..];
    let base = start + c;
    let mut quads = slab.chunks_exact(4 * c);
    let mut quad_rows = rows.chunks_exact(4);
    for (s, g) in (&mut quads).zip(&mut quad_rows) {
        let (s0, s) = s.split_at(c);
        let (s1, s) = s.split_at(c);
        let (s2, s3) = s.split_at(c);
        let at: [usize; 4] = std::array::from_fn(|q| (g[q] as usize - base) * k + r0);
        let mut acc = at.map(|at| lanes::<L>(below, at));
        for (t, (((&v0, &v1), &v2), &v3)) in s0.iter().zip(s1).zip(s2).zip(s3).enumerate() {
            let xt = lanes::<L>(xp, t * k + r0);
            for r in 0..L {
                acc[0][r] -= v0 * xt[r];
                acc[1][r] -= v1 * xt[r];
                acc[2][r] -= v2 * xt[r];
                acc[3][r] -= v3 * xt[r];
            }
        }
        for (at, acc) in at.into_iter().zip(&acc) {
            below[at..][..L].copy_from_slice(acc);
        }
    }
    for (s, &g) in quads.remainder().chunks_exact(c).zip(quad_rows.remainder()) {
        let at = (g as usize - base) * k + r0;
        let mut acc = lanes::<L>(below, at);
        for (t, &v) in s.iter().enumerate() {
            let xt = lanes::<L>(xp, t * k + r0);
            for r in 0..L {
                acc[r] -= v * xt[r];
            }
        }
        below[at..][..L].copy_from_slice(&acc);
    }
}

/// Backward step of one panel for lanes `r0..r0 + L`, columns descending:
/// column `j` becomes `(x[j] − Σ_{i>j} diag[i][j]·x[i] − Σ_t
/// slab[t][j]·x[rows[t]]) / diag[j][j]`, subtracted term by term in that
/// order. The slab rows' final values are gathered into `xs` once.
#[inline(always)]
fn backward_panel<const L: usize>(p: Panel, x: &mut [f64], xs: &mut [f64], k: usize, r0: usize) {
    let (start, c, diag, slab, rows) = p;
    let (head, below) = x.split_at_mut((start + c) * k);
    let xp = &mut head[start * k..];
    let base = start + c;
    let xs = &mut xs.as_chunks_mut::<L>().0[..rows.len()];
    for (dst, &g) in xs.iter_mut().zip(rows) {
        let at = (g as usize - base) * k + r0;
        *dst = lanes(below, at);
    }
    for j in (0..c).rev() {
        let mut acc = lanes::<L>(xp, j * k + r0);
        for i in j + 1..c {
            let v = diag[i * c + j];
            let xi = lanes::<L>(xp, i * k + r0);
            for r in 0..L {
                acc[r] -= v * xi[r];
            }
        }
        for (row, xt) in slab.chunks_exact(c).zip(xs.iter()) {
            let v = row[j];
            for r in 0..L {
                acc[r] -= v * xt[r];
            }
        }
        let d = diag[j * c + j];
        for (out, a) in xp[j * k + r0..][..L].iter_mut().zip(acc) {
            *out = a / d;
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
        solve_in_place(&f, &mut x, k, &mut Vec::new());
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
