//! Row-major BLAS-3 style kernels.
//!
//! The public entry points keep the seed's shapes and semantics. GEMM/SYRK
//! dispatch on problem size: small blocks run the scalar kernels in
//! [`mod@reference`], larger ones the packed, register-tiled core in
//! [`crate::pack`]. The triangular solve has one implementation — pack the
//! rows into micro-panels, solve them eight rows per vector lane
//! ([`crate::pack::trsm_packed`]), unpack — whatever the shape, so a row's
//! bits never depend on how many rows were solved with it. Blocked `potrf`
//! solves each sub-diagonal panel the same way and feeds the retained pack
//! straight to the trailing SYRK.
//!
//! Every kernel has a `_with` variant taking an explicit [`KernelArena`];
//! the plain variants use a per-thread default arena. The `_strided` variants
//! operate on views into larger buffers (row stride ≥ logical width). The
//! factorization executors do not come through here for their updates: they
//! keep source blocks packed and call [`crate::pack`]'s prepacked products.

use crate::arena::{KernelArena, PackBufs};
use crate::pack::{self, Mode};
use crate::NotPositiveDefinite;
use std::cell::RefCell;

/// Panel width of the blocked `potrf`. Matrices at most this large use the
/// unblocked reference kernel directly. 32 keeps the scalar panel factor
/// small while the packed trailing updates still see a deep enough `k`.
pub(crate) const NB: usize = 32;

thread_local! {
    static DEFAULT_ARENA: RefCell<KernelArena> = RefCell::new(KernelArena::new());
}

/// Runs `f` with this thread's lazily-allocated default [`KernelArena`].
///
/// Executors that factor many blocks should allocate one arena per worker
/// and call the `_with` kernel variants instead; this helper exists so the
/// plain entry points stay allocation-free in steady state too.
pub fn with_default_arena<R>(f: impl FnOnce(&mut KernelArena) -> R) -> R {
    DEFAULT_ARENA.with(|a| f(&mut a.borrow_mut()))
}

/// True when `C -= A·Bᵀ` of this shape amortizes the packed core's packing
/// traffic. Kept identical for GEMM and SYRK (`m = n`) so differential tests
/// comparing the two take the same path for the same shape.
#[inline]
fn packed_worthwhile(m: usize, n: usize, k: usize) -> bool {
    k >= 8 && m >= 8 && n >= 8 && m * n * k >= 8192
}

// ---------------------------------------------------------------------------
// BFAC: Cholesky factorization of a diagonal block
// ---------------------------------------------------------------------------

/// In-place Cholesky factorization of the lower triangle of a row-major
/// `n × n` matrix: on success `a` holds `L` with `A = L·Lᵀ`.
///
/// Only the lower triangle is read or written; the strict upper triangle is
/// left untouched. This is the `BFAC` primitive applied to diagonal blocks.
/// Blocks wider than the internal panel size are factored by a blocked
/// right-looking algorithm whose trailing updates run on the packed SYRK
/// core.
pub fn potrf(a: &mut [f64], n: usize) -> Result<(), NotPositiveDefinite> {
    assert_eq!(a.len(), n * n);
    if n <= NB {
        reference::potrf_lda(a, n, n)
    } else {
        with_default_arena(|arena| potrf_with(a, n, arena))
    }
}

/// [`potrf`] with an explicit scratch arena.
pub fn potrf_with(
    a: &mut [f64],
    n: usize,
    arena: &mut KernelArena,
) -> Result<(), NotPositiveDefinite> {
    assert_eq!(a.len(), n * n);
    if n <= NB {
        return reference::potrf_lda(a, n, n);
    }
    let mut k0 = 0;
    while k0 < n {
        let nb = (n - k0).min(NB);
        reference::potrf_lda(&mut a[k0 * n + k0..], n, nb)
            .map_err(|e| NotPositiveDefinite { pivot: k0 + e.pivot })?;
        let rem = n - k0 - nb;
        if rem > 0 {
            // Pack the sub-diagonal panel A21 once: solve it against L11ᵀ on
            // the micro-panels, write L21 back, and feed the same pack to the
            // trailing update C22 := C22 − L21·L21ᵀ.
            let a21 = (k0 + nb) * n + k0;
            let xp = arena.panels_mut(pack::packed_len(rem, nb));
            pack::pack_rows(xp, &a[a21..], n, rem, nb);
            pack::trsm_packed(&a[k0 * n + k0..], n, nb, xp);
            pack::unpack_rows(&mut a[a21..], n, xp, rem, nb);
            pack::syrk_lt_prepacked(Mode::Sub, &mut a[a21 + nb..], n, xp, rem, nb);
        }
        k0 += nb;
    }
    Ok(())
}

// ---------------------------------------------------------------------------
// BDIV: triangular solve of an off-diagonal block
// ---------------------------------------------------------------------------

/// Solves `X := X · L⁻ᵀ` where `l` is the row-major lower-triangular `n × n`
/// Cholesky factor of a diagonal block and `x` is row-major `m × n`.
///
/// This is the `BDIV` primitive: each row of an off-diagonal block is solved
/// against the diagonal block's factor. Rows are independent and each sees
/// the same operation sequence whatever `m` is, so splitting `x` by rows
/// across several calls changes no bit of the result.
pub fn trsm_right_lower_trans(l: &[f64], n: usize, x: &mut [f64], m: usize) {
    with_default_arena(|arena| trsm_right_lower_trans_with(l, n, x, m, arena));
}

/// [`trsm_right_lower_trans`] with an explicit scratch arena. The packed
/// solved rows are left in the arena's panels.
pub fn trsm_right_lower_trans_with(
    l: &[f64],
    n: usize,
    x: &mut [f64],
    m: usize,
    arena: &mut KernelArena,
) {
    assert_eq!(l.len(), n * n);
    assert_eq!(x.len(), m * n);
    let xp = arena.panels_mut(pack::packed_len(m, n));
    pack::pack_rows(xp, x, n, m, n);
    pack::trsm_packed(l, n, n, xp);
    pack::unpack_rows(x, n, xp, m, n);
}

// ---------------------------------------------------------------------------
// BMOD: C := C − A·Bᵀ (GEMM) and C := C − A·Aᵀ (SYRK, lower triangle)
// ---------------------------------------------------------------------------

/// Computes `C := C − A·Bᵀ` with row-major `A (m × k)`, `B (n × k)`,
/// `C (m × n)`. This is the `BMOD` primitive for off-diagonal destinations.
pub fn gemm_abt_sub(c: &mut [f64], a: &[f64], b: &[f64], m: usize, n: usize, k: usize) {
    assert_eq!(a.len(), m * k);
    assert_eq!(b.len(), n * k);
    assert_eq!(c.len(), m * n);
    if packed_worthwhile(m, n, k) {
        with_default_arena(|ar| {
            pack::gemm_abt_packed(Mode::Sub, c, n, a, k, b, k, m, n, k, ar.packs())
        });
    } else {
        reference::gemm_abt_lda(c, n, a, k, b, k, m, n, k);
    }
}

/// [`gemm_abt_sub`] with an explicit scratch arena.
#[allow(clippy::too_many_arguments)]
pub fn gemm_abt_sub_with(
    c: &mut [f64],
    a: &[f64],
    b: &[f64],
    m: usize,
    n: usize,
    k: usize,
    arena: &mut KernelArena,
) {
    assert_eq!(a.len(), m * k);
    assert_eq!(b.len(), n * k);
    assert_eq!(c.len(), m * n);
    gemm_abt_sub_strided(c, n, a, k, b, k, m, n, k, arena.packs());
}

/// `C := C − A·Bᵀ` on strided row-major views (`c`: `m × n` stride `ldc`,
/// `a`: `m × k` stride `lda`, `b`: `n × k` stride `ldb`), size-dispatched
/// between the scalar reference and the packed core.
///
/// Slices only need to cover the strided extent, so a view of rows inside a
/// larger block (e.g. a sparse destination block in the fused BMOD path)
/// works directly.
#[allow(clippy::too_many_arguments)]
pub fn gemm_abt_sub_strided(
    c: &mut [f64],
    ldc: usize,
    a: &[f64],
    lda: usize,
    b: &[f64],
    ldb: usize,
    m: usize,
    n: usize,
    k: usize,
    packs: &mut PackBufs,
) {
    if packed_worthwhile(m, n, k) {
        pack::gemm_abt_packed(Mode::Sub, c, ldc, a, lda, b, ldb, m, n, k, packs);
    } else {
        reference::gemm_abt_lda(c, ldc, a, lda, b, ldb, m, n, k);
    }
}

/// Computes the lower triangle of `C := C − A·Aᵀ` with row-major `A (n × k)`
/// and `C (n × n)`. This is the `BMOD` primitive when source and destination
/// row blocks coincide (a symmetric rank-k update of a diagonal block).
pub fn syrk_lt_sub(c: &mut [f64], a: &[f64], n: usize, k: usize) {
    assert_eq!(a.len(), n * k);
    assert_eq!(c.len(), n * n);
    if packed_worthwhile(n, n, k) {
        with_default_arena(|ar| pack::syrk_lt_packed(Mode::Sub, c, n, a, k, n, k, ar.packs()));
    } else {
        reference::syrk_lt_lda(c, n, a, k, n, k);
    }
}

/// [`syrk_lt_sub`] with an explicit scratch arena.
pub fn syrk_lt_sub_with(c: &mut [f64], a: &[f64], n: usize, k: usize, arena: &mut KernelArena) {
    assert_eq!(a.len(), n * k);
    assert_eq!(c.len(), n * n);
    syrk_lt_sub_strided(c, n, a, k, n, k, arena.packs());
}

/// Lower-triangle `C := C − A·Aᵀ` on strided views, size-dispatched.
pub fn syrk_lt_sub_strided(
    c: &mut [f64],
    ldc: usize,
    a: &[f64],
    lda: usize,
    n: usize,
    k: usize,
    packs: &mut PackBufs,
) {
    if packed_worthwhile(n, n, k) {
        pack::syrk_lt_packed(Mode::Sub, c, ldc, a, lda, n, k, packs);
    } else {
        reference::syrk_lt_lda(c, ldc, a, lda, n, k);
    }
}

// ---------------------------------------------------------------------------
// Triangular solves for single right-hand sides (diagonal-block lanes)
// ---------------------------------------------------------------------------

/// Solves `L·x = b` in place for one right-hand side, with `l` the row-major
/// lower-triangular `n × n` factor (a diagonal block's forward step in a
/// solve on the block factor). Row `i` subtracts its terms in ascending
/// column order, then divides.
#[inline]
pub fn trsv_lower(l: &[f64], n: usize, x: &mut [f64]) {
    assert_eq!(l.len(), n * n);
    assert_eq!(x.len(), n);
    for i in 0..n {
        let row = &l[i * n..i * n + i];
        let mut s = x[i];
        for (&lv, &xv) in row.iter().zip(x.iter()) {
            s -= lv * xv;
        }
        x[i] = s / l[i * n + i];
    }
}

// ---------------------------------------------------------------------------
// Blocked multi-RHS triangular solves (TRSM-style, interleaved lanes)
// ---------------------------------------------------------------------------

/// Solves `L·X = B` in place for `k` right-hand sides stored *interleaved*
/// (`x[i*k + r]` is row `i` of lane `r`), with `l` the row-major lower
/// triangular `n × n` factor.
///
/// The lane loop is innermost, so `L` is streamed once for all `k` sides and
/// each lane performs exactly the operation sequence of [`trsv_lower`] —
/// every lane's result is bit-identical to a single-RHS solve of the same
/// column.
#[inline]
pub fn trsv_lower_multi(l: &[f64], n: usize, x: &mut [f64], k: usize) {
    assert_eq!(l.len(), n * n);
    assert_eq!(x.len(), n * k);
    if k == 1 {
        return trsv_lower(l, n, x);
    }
    for i in 0..n {
        let (done, cur) = x.split_at_mut(i * k);
        let row = &l[i * n..i * n + i];
        let d = l[i * n + i];
        for r in 0..k {
            let mut s = cur[r];
            for (j, &lv) in row.iter().enumerate() {
                s -= lv * done[j * k + r];
            }
            cur[r] = s / d;
        }
    }
}

// ---------------------------------------------------------------------------
// Reference kernels
// ---------------------------------------------------------------------------

/// The unblocked scalar kernels, kept reachable as the differential-testing
/// baseline for the packed core and as the small-block / panel kernels of the
/// blocked algorithms. All take explicit row strides so they work on views.
pub mod reference {
    use crate::NotPositiveDefinite;

    /// Unblocked in-place Cholesky of an `n × n` view with row stride `lda`.
    pub fn potrf_lda(a: &mut [f64], lda: usize, n: usize) -> Result<(), NotPositiveDefinite> {
        if n > 0 {
            assert!(lda >= n && a.len() >= (n - 1) * lda + n);
        }
        for k in 0..n {
            // Pivot: a[k][k] -= Σ_{t<k} a[k][t]²
            let (head, tail) = a.split_at_mut(k * lda + k);
            let row_k = &head[k * lda..];
            let mut d = tail[0];
            for &v in &row_k[..k] {
                d -= v * v;
            }
            if d <= 0.0 || !d.is_finite() {
                return Err(NotPositiveDefinite { pivot: k });
            }
            let d = d.sqrt();
            tail[0] = d;
            let inv = 1.0 / d;
            // Column below pivot: a[i][k] = (a[i][k] - Σ_t a[i][t]·a[k][t]) / d
            for i in (k + 1)..n {
                let (upper, lower) = a.split_at_mut(i * lda);
                let row_k = &upper[k * lda..k * lda + k];
                let row_i = &mut lower[..k + 1];
                let mut s = row_i[k];
                for (&x, &y) in row_i[..k].iter().zip(row_k) {
                    s -= x * y;
                }
                row_i[k] = s * inv;
            }
        }
        Ok(())
    }

    /// Unblocked Cholesky of a contiguous `n × n` matrix (the seed `potrf`).
    pub fn potrf(a: &mut [f64], n: usize) -> Result<(), NotPositiveDefinite> {
        assert_eq!(a.len(), n * n);
        potrf_lda(a, n, n)
    }

    /// Row-wise forward substitution `X := X · L⁻ᵀ` on strided views:
    /// `l` is `n × n` lower-triangular with stride `ldl`, `x` is `m × n`
    /// with stride `ldx`.
    pub fn trsm_lda(l: &[f64], ldl: usize, n: usize, x: &mut [f64], ldx: usize, m: usize) {
        for i in 0..m {
            let row = &mut x[i * ldx..i * ldx + n];
            for j in 0..n {
                let lj = &l[j * ldl..j * ldl + j];
                let mut s = row[j];
                for (&xv, &lv) in row[..j].iter().zip(lj) {
                    s -= xv * lv;
                }
                row[j] = s / l[j * ldl + j];
            }
        }
    }

    /// Contiguous `X := X · L⁻ᵀ` (the seed `trsm_right_lower_trans`).
    pub fn trsm_right_lower_trans(l: &[f64], n: usize, x: &mut [f64], m: usize) {
        assert_eq!(l.len(), n * n);
        assert_eq!(x.len(), m * n);
        trsm_lda(l, n, n, x, n, m);
    }

    /// Scalar `C := C − A·Bᵀ` on strided views. Columns of `C` (rows of `B`)
    /// are processed four at a time with independent accumulators, so each
    /// load of an `A` element feeds four multiply-adds and the compiler can
    /// keep the accumulators in registers.
    #[allow(clippy::too_many_arguments)]
    pub fn gemm_abt_lda(
        c: &mut [f64],
        ldc: usize,
        a: &[f64],
        lda: usize,
        b: &[f64],
        ldb: usize,
        m: usize,
        n: usize,
        k: usize,
    ) {
        if k == 0 || m == 0 || n == 0 {
            return;
        }
        let n4 = n - n % 4;
        for i in 0..m {
            let arow = &a[i * lda..i * lda + k];
            let crow = &mut c[i * ldc..i * ldc + n];
            let mut j = 0;
            while j < n4 {
                let b0 = &b[j * ldb..j * ldb + k];
                let b1 = &b[(j + 1) * ldb..(j + 1) * ldb + k];
                let b2 = &b[(j + 2) * ldb..(j + 2) * ldb + k];
                let b3 = &b[(j + 3) * ldb..(j + 3) * ldb + k];
                let (mut s0, mut s1, mut s2, mut s3) = (0.0, 0.0, 0.0, 0.0);
                for t in 0..k {
                    let x = arow[t];
                    s0 += x * b0[t];
                    s1 += x * b1[t];
                    s2 += x * b2[t];
                    s3 += x * b3[t];
                }
                crow[j] -= s0;
                crow[j + 1] -= s1;
                crow[j + 2] -= s2;
                crow[j + 3] -= s3;
                j += 4;
            }
            for j in n4..n {
                let brow = &b[j * ldb..j * ldb + k];
                let mut s = 0.0;
                for (&x, &y) in arow.iter().zip(brow) {
                    s += x * y;
                }
                crow[j] -= s;
            }
        }
    }

    /// Contiguous `C := C − A·Bᵀ` (the seed `gemm_abt_sub`).
    pub fn gemm_abt_sub(c: &mut [f64], a: &[f64], b: &[f64], m: usize, n: usize, k: usize) {
        assert_eq!(a.len(), m * k);
        assert_eq!(b.len(), n * k);
        assert_eq!(c.len(), m * n);
        gemm_abt_lda(c, n, a, k, b, k, m, n, k);
    }

    /// Scalar lower-triangle `C := C − A·Aᵀ` on strided views, with the same
    /// four-column accumulator scheme as [`gemm_abt_lda`] (column blocks are
    /// aligned identically, so for equal shapes the two produce bitwise-equal
    /// results on the lower triangle).
    pub fn syrk_lt_lda(c: &mut [f64], ldc: usize, a: &[f64], lda: usize, n: usize, k: usize) {
        if n == 0 || k == 0 {
            return;
        }
        for i in 0..n {
            let arow_i = &a[i * lda..i * lda + k];
            let crow = &mut c[i * ldc..i * ldc + i + 1];
            let jend = i + 1;
            let j4 = jend - jend % 4;
            let mut j = 0;
            while j < j4 {
                let a0 = &a[j * lda..j * lda + k];
                let a1 = &a[(j + 1) * lda..(j + 1) * lda + k];
                let a2 = &a[(j + 2) * lda..(j + 2) * lda + k];
                let a3 = &a[(j + 3) * lda..(j + 3) * lda + k];
                let (mut s0, mut s1, mut s2, mut s3) = (0.0, 0.0, 0.0, 0.0);
                for t in 0..k {
                    let x = arow_i[t];
                    s0 += x * a0[t];
                    s1 += x * a1[t];
                    s2 += x * a2[t];
                    s3 += x * a3[t];
                }
                crow[j] -= s0;
                crow[j + 1] -= s1;
                crow[j + 2] -= s2;
                crow[j + 3] -= s3;
                j += 4;
            }
            for j in j4..jend {
                let arow_j = &a[j * lda..j * lda + k];
                let mut s = 0.0;
                for (&x, &y) in arow_i.iter().zip(arow_j) {
                    s += x * y;
                }
                crow[j] -= s;
            }
        }
    }

    /// Contiguous lower-triangle `C := C − A·Aᵀ` (the seed `syrk_lt_sub`,
    /// upgraded to the four-wide accumulator scheme).
    pub fn syrk_lt_sub(c: &mut [f64], a: &[f64], n: usize, k: usize) {
        assert_eq!(a.len(), n * k);
        assert_eq!(c.len(), n * n);
        syrk_lt_lda(c, n, a, k, n, k);
    }
}

/// Flop count conventions used consistently by the work model, the machine
/// model and the reported Mflops numbers (multiply-add = 2 flops; the square
/// root and divisions of `potrf` count as 1 each).
pub mod flops {
    /// Flops to factor a dense `c × c` lower-triangular diagonal block.
    #[inline]
    pub fn bfac(c: usize) -> u64 {
        let c = c as u64;
        // Σ_k [1 (sqrt) + 2k (pivot update) + (c-1-k)(2k+1)]
        (c * c * c) / 3 + c * c / 2 + c / 6 + c
    }

    /// Flops for a triangular solve of an `r × c` block against a `c × c`
    /// factor.
    #[inline]
    pub fn bdiv(r: usize, c: usize) -> u64 {
        (r as u64) * (c as u64) * (c as u64)
    }

    /// Flops for `C -= A·Bᵀ` with `A (r1 × c)`, `B (r2 × c)`.
    #[inline]
    pub fn bmod(r1: usize, r2: usize, c: usize) -> u64 {
        2 * (r1 as u64) * (r2 as u64) * (c as u64)
    }

    /// Flops for a *diagonal* `BMOD` (`A == B`, `r × c` source): only the
    /// lower triangle of the rank-`c` update is formed, so the count is the
    /// triangular half of [`bmod`]`(r, r, c)` including the diagonal —
    /// `r(r+1)c`. Shared by the simulator, the critical-path model and the
    /// block work model so a kernel change cannot drift them apart.
    #[inline]
    pub fn bmod_diag(r: usize, c: usize) -> u64 {
        (r as u64) * (r as u64 + 1) * (c as u64)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn matmul_lt(l: &[f64], n: usize) -> Vec<f64> {
        // full L·Lᵀ using only the lower triangle of l
        let at = |i: usize, j: usize| if j <= i { l[i * n + j] } else { 0.0 };
        let mut out = vec![0.0; n * n];
        for i in 0..n {
            for j in 0..n {
                let mut s = 0.0;
                for k in 0..n {
                    s += at(i, k) * at(j, k);
                }
                out[i * n + j] = s;
            }
        }
        out
    }

    fn spd_test_matrix(n: usize) -> Vec<f64> {
        // A = M·Mᵀ + n·I with M[i][j] = 1/(1+i+j)
        let m: Vec<f64> = (0..n * n)
            .map(|t| 1.0 / (1.0 + (t / n + t % n) as f64))
            .collect();
        let mut a = vec![0.0; n * n];
        for i in 0..n {
            for j in 0..n {
                let mut s = if i == j { n as f64 } else { 0.0 };
                for k in 0..n {
                    s += m[i * n + k] * m[j * n + k];
                }
                a[i * n + j] = s;
            }
        }
        a
    }

    #[test]
    fn potrf_reconstructs() {
        // 17 stays on the unblocked path, 96/150 exercise the blocked one
        // (panel + packed trailing update), 150 includes a ragged last panel.
        for n in [1, 2, 3, 5, 8, 17, 96, 150] {
            let a = spd_test_matrix(n);
            let mut l = a.clone();
            potrf(&mut l, n).unwrap();
            let back = matmul_lt(&l, n);
            for i in 0..n {
                for j in 0..=i {
                    assert!(
                        (back[i * n + j] - a[i * n + j]).abs() < 1e-9 * (n as f64),
                        "n={n} ({i},{j})"
                    );
                }
            }
        }
    }

    #[test]
    fn blocked_potrf_matches_reference() {
        let n = 130;
        let a = spd_test_matrix(n);
        let mut l_blocked = a.clone();
        potrf(&mut l_blocked, n).unwrap();
        let mut l_ref = a.clone();
        reference::potrf(&mut l_ref, n).unwrap();
        for i in 0..n {
            for j in 0..=i {
                let (x, y) = (l_blocked[i * n + j], l_ref[i * n + j]);
                assert!((x - y).abs() < 1e-10 * y.abs().max(1.0), "({i},{j})");
            }
        }
    }

    #[test]
    fn potrf_rejects_indefinite() {
        let mut a = vec![1.0, 2.0, 2.0, 1.0]; // eigenvalues 3, -1
        assert_eq!(potrf(&mut a, 2).unwrap_err(), NotPositiveDefinite { pivot: 1 });
        let mut z = vec![0.0];
        assert_eq!(potrf(&mut z, 1).unwrap_err(), NotPositiveDefinite { pivot: 0 });
    }

    #[test]
    fn blocked_potrf_reports_global_pivot() {
        // Poison a diagonal entry beyond the first panel; the failing pivot
        // index must come back in global (not panel-relative) coordinates.
        let n = 120;
        let bad = 100;
        let mut a = spd_test_matrix(n);
        a[bad * n + bad] = -1.0;
        let err = potrf(&mut a, n).unwrap_err();
        assert_eq!(err.pivot, bad);
    }

    #[test]
    fn potrf_leaves_upper_triangle_untouched() {
        for n in [4, 96] {
            let mut a = spd_test_matrix(n);
            a[3] = 777.0; // position (0, 3): upper triangle
            potrf(&mut a, n).unwrap();
            assert_eq!(a[3], 777.0, "n={n}");
        }
    }

    #[test]
    fn trsm_solves_rows() {
        let n = 4;
        let a = spd_test_matrix(n);
        let mut l = a.clone();
        potrf(&mut l, n).unwrap();
        // B = X·Lᵀ for known X
        let m = 3;
        let x_true: Vec<f64> = (0..m * n).map(|t| (t as f64) * 0.5 - 1.0).collect();
        let mut b = vec![0.0; m * n];
        for i in 0..m {
            for j in 0..n {
                let mut s = 0.0;
                for t in 0..=j {
                    s += x_true[i * n + t] * l[j * n + t];
                }
                b[i * n + j] = s;
            }
        }
        trsm_right_lower_trans(&l, n, &mut b, m);
        for (got, want) in b.iter().zip(&x_true) {
            assert!((got - want).abs() < 1e-10);
        }
    }

    #[test]
    fn wide_trsm_matches_reference() {
        let n = 130;
        let m = 21; // two full micro-panels and a ragged third
        let a = spd_test_matrix(n);
        let mut l = a.clone();
        potrf(&mut l, n).unwrap();
        let x0: Vec<f64> = (0..m * n).map(|t| ((t % 23) as f64) * 0.3 - 2.0).collect();
        let mut x_blocked = x0.clone();
        trsm_right_lower_trans(&l, n, &mut x_blocked, m);
        let mut x_ref = x0.clone();
        reference::trsm_right_lower_trans(&l, n, &mut x_ref, m);
        for (i, (got, want)) in x_blocked.iter().zip(&x_ref).enumerate() {
            assert!((got - want).abs() < 1e-9 * want.abs().max(1.0), "idx={i}");
        }
    }

    #[test]
    fn gemm_matches_reference() {
        let (m, n, k) = (5, 7, 4);
        let a: Vec<f64> = (0..m * k).map(|t| (t as f64).sin()).collect();
        let b: Vec<f64> = (0..n * k).map(|t| (t as f64).cos()).collect();
        let mut c: Vec<f64> = (0..m * n).map(|t| t as f64).collect();
        let mut c_ref = c.clone();
        gemm_abt_sub(&mut c, &a, &b, m, n, k);
        for i in 0..m {
            for j in 0..n {
                let mut s = 0.0;
                for t in 0..k {
                    s += a[i * k + t] * b[j * k + t];
                }
                c_ref[i * n + j] -= s;
            }
        }
        for (x, y) in c.iter().zip(&c_ref) {
            assert!((x - y).abs() < 1e-12);
        }
    }

    #[test]
    fn gemm_packed_dispatch_matches_reference() {
        // Large enough that the public entry point takes the packed path.
        let (m, n, k) = (50, 60, 40);
        let a: Vec<f64> = (0..m * k).map(|t| ((t % 97) as f64) * 0.02 - 1.0).collect();
        let b: Vec<f64> = (0..n * k).map(|t| ((t % 89) as f64) * 0.03 - 1.3).collect();
        let mut c: Vec<f64> = (0..m * n).map(|t| (t % 13) as f64).collect();
        let mut c_ref = c.clone();
        gemm_abt_sub(&mut c, &a, &b, m, n, k);
        reference::gemm_abt_sub(&mut c_ref, &a, &b, m, n, k);
        for (x, y) in c.iter().zip(&c_ref) {
            assert!((x - y).abs() < 1e-10 * y.abs().max(1.0));
        }
    }

    #[test]
    fn gemm_handles_degenerate_dims() {
        let mut c = vec![5.0];
        gemm_abt_sub(&mut c, &[], &[], 1, 1, 0);
        assert_eq!(c, vec![5.0]);
        let mut empty: Vec<f64> = vec![];
        gemm_abt_sub(&mut empty, &[], &[1.0], 0, 1, 1);
    }

    #[test]
    fn syrk_matches_gemm_lower() {
        for (n, k) in [(6, 3), (48, 48)] {
            let a: Vec<f64> = (0..n * k).map(|t| (t as f64) * 0.25 - 1.5).collect();
            let mut c1 = vec![1.0; n * n];
            let mut c2 = vec![1.0; n * n];
            syrk_lt_sub(&mut c1, &a, n, k);
            gemm_abt_sub(&mut c2, &a, &a, n, n, k);
            for i in 0..n {
                for j in 0..=i {
                    assert!(
                        (c1[i * n + j] - c2[i * n + j]).abs() < 1e-12 * c2[i * n + j].abs().max(1.0),
                        "n={n} k={k} ({i},{j})"
                    );
                }
            }
            // Upper triangle untouched by syrk.
            assert_eq!(c1[n - 1], 1.0); // position (0, n-1): upper triangle
        }
    }

    #[test]
    fn trsv_solves_against_reference() {
        let n = 6;
        let a = spd_test_matrix(n);
        let mut l = a.clone();
        potrf(&mut l, n).unwrap();
        let x_true: Vec<f64> = (0..n).map(|i| i as f64 - 2.5).collect();
        // b = L·x
        let mut b = vec![0.0; n];
        for i in 0..n {
            for j in 0..=i {
                b[i] += l[i * n + j] * x_true[j];
            }
        }
        trsv_lower(&l, n, &mut b);
        for (got, want) in b.iter().zip(&x_true) {
            assert!((got - want).abs() < 1e-12);
        }
    }

    #[test]
    fn trsv_composes_to_full_solve() {
        // L(Lᵀx) = A x round trip: the forward kernel, then a plain
        // back substitution with Lᵀ.
        let n = 5;
        let a = spd_test_matrix(n);
        let mut l = a.clone();
        potrf(&mut l, n).unwrap();
        let x_true: Vec<f64> = (0..n).map(|i| 1.0 + (i as f64) * 0.5).collect();
        let mut b = vec![0.0; n];
        for (i, bi) in b.iter_mut().enumerate() {
            for (j, &xj) in x_true.iter().enumerate() {
                let (r, c) = if i >= j { (i, j) } else { (j, i) };
                *bi += a[r * n + c] * xj;
            }
        }
        trsv_lower(&l, n, &mut b);
        for i in (0..n).rev() {
            let s = (i + 1..n).fold(b[i], |s, j| s - l[j * n + i] * b[j]);
            b[i] = s / l[i * n + i];
        }
        for (got, want) in b.iter().zip(&x_true) {
            assert!((got - want).abs() < 1e-9);
        }
    }

    #[test]
    fn multi_rhs_trsv_lanes_are_bit_identical_to_single() {
        let n = 7;
        let a = spd_test_matrix(n);
        let mut l = a.clone();
        potrf(&mut l, n).unwrap();
        for k in [1usize, 2, 3, 5, 8] {
            // Interleave k distinct right-hand sides.
            let lanes: Vec<Vec<f64>> = (0..k)
                .map(|r| (0..n).map(|i| 1.0 + (i * 3 + r * 7) as f64 * 0.21).collect())
                .collect();
            let mut x = vec![0.0; n * k];
            for (r, lane) in lanes.iter().enumerate() {
                for i in 0..n {
                    x[i * k + r] = lane[i];
                }
            }
            trsv_lower_multi(&l, n, &mut x, k);
            for (r, lane) in lanes.iter().enumerate() {
                let mut single = lane.clone();
                trsv_lower(&l, n, &mut single);
                for i in 0..n {
                    assert_eq!(
                        x[i * k + r].to_bits(),
                        single[i].to_bits(),
                        "k={k} lane={r} row={i}"
                    );
                }
            }
        }
    }

    #[test]
    fn flop_counts_match_dense_formulas() {
        // Dense Cholesky of order n ≈ n³/3; our bfac is the exact loop count.
        // 1³/3 + 1²/2 + 1/6 + 1 = 0 + 0 + 0 + 1 (integer division)
        assert_eq!(flops::bfac(1), 1);
        // 2³/3 + 2²/2 + 2/6 + 2 = 2 + 2 + 0 + 2
        assert_eq!(flops::bfac(2), 6);
        assert_eq!(flops::bdiv(3, 4), 48);
        assert_eq!(flops::bmod(2, 3, 4), 48);
    }
}
