//! Goto-style packed GEMM/SYRK core: a register-tiled microkernel fed by
//! cache-blocked panel packing.
//!
//! The algorithm is the classic three-loop blocking of Goto & van de Geijn:
//! the operands of `C := C ∓ A·Bᵀ` are cut into `KC`-deep panels, `B`-panels
//! of `NC` columns are packed into `NR`-wide micro-panels, `A`-panels of `MC`
//! rows into `MR`-wide micro-panels, and an `MR × NR` register-tile
//! microkernel walks down the shared `k` dimension reading both packs
//! contiguously. Edge tiles are zero-padded during packing and masked on
//! write-back, so every shape runs through the same inner loop.
//!
//! Two register tiles are compiled from this file, chosen by the target and
//! by nothing else, and one `macro_kernel` drives whichever it is:
//!
//! * with `cfg(target_feature = "avx512f")` (what `-C target-cpu=native` in
//!   `.cargo/config.toml` gives on an AVX-512 host) an explicit `std::arch`
//!   tile of `MR = 8` rows × `2·NR = 16` columns: one `A` micro-panel
//!   against two adjacent `B` micro-panels, sixteen `zmm` accumulators, each
//!   broadcast of `A` feeding two 512-bit FMAs, written back straight from
//!   the registers through per-row lane masks (ragged edges and the SYRK
//!   diagonal are the same masked store);
//! * everywhere else the portable 8×8 loop (`microkernel` + `write_tile`),
//!   written so LLVM vectorises the `NR`-wide inner loop for whatever the
//!   target has. On an AVX-512 host it is also compiled under `cfg(test)`,
//!   as the oracle the explicit tile must match bit for bit.
//!
//! Autovectorisation alone was not enough: rustc's `native` CPU on the build
//! host (emeraldrapids) carries LLVM's prefer-256-bit tuning, so the portable
//! loop came out as sixteen `ymm` accumulators (`vfmadd231pd %ymm…`) and ran
//! at half the machine's FMA width; the `[[f64; NR]; MR]` it returns is then
//! spilled and re-read by the write-back. Both tiles compute, per element of
//! `C`, the same ascending-`k` FMA chain from zero and the same single
//! write-back operation, so they agree bitwise.
//!
//! SYRK (`C := C ∓ A·Aᵀ`, lower triangle) reuses the same packing and
//! microkernel; tiles entirely above the diagonal are skipped before any
//! arithmetic and tiles straddling it get a masked write-back. Because the
//! per-element accumulation order is identical to GEMM's (ascending `k`
//! within each `KC` panel, panels in order), packed SYRK and packed GEMM
//! produce bitwise-identical values on the lower triangle.
//!
//! `MR == NR`, so one packed form serves as either operand. Callers that
//! reuse an operand across many products pack it once with [`pack_rows`] and
//! multiply out of the retained panels with [`gemm_prepacked`] /
//! [`syrk_lt_prepacked`]; [`trsm_packed`] solves `X := X·L⁻ᵀ` on the same
//! panels, eight rows per vector lane, so a factored block column is packed
//! once and stays kernel-ready for every update it sources. The prepacked
//! products run the whole `k` extent as one panel: per element, an ascending-
//! `k` FMA chain from zero and one write-back — exactly what
//! [`gemm_abt_packed`] computes for `k ≤ KC`.

use crate::arena::PackBufs;

/// Register tile height (rows of `C` per microkernel call).
pub const MR: usize = 8;
/// Register tile width (columns of `C` per microkernel call).
pub const NR: usize = 8;
// One packed form is both the `A` and the `B` operand.
const _: () = assert!(MR == NR);
/// Depth of one packed panel pair (shared `k` extent per blocking pass).
pub const KC: usize = 256;
/// Rows of `A` packed per inner pass (`MC·KC` doubles ≈ 256 KiB, sized for L2).
pub const MC: usize = 128;
/// Columns of `B` packed per outer pass.
pub const NC: usize = 512;

/// What a packed kernel does to the destination.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Mode {
    /// `C := C − A·Bᵀ` (the BMOD convention).
    Sub,
    /// `C := A·Bᵀ` — overwrites without reading `C`, so scratch destinations
    /// need no zeroing pass.
    Set,
}

/// Per-tile write-back operation. `Set` applies only to the first `KC` panel
/// of a [`Mode::Set`] call; later panels accumulate with `Add`.
#[derive(Clone, Copy, PartialEq)]
enum WriteOp {
    Sub,
    Set,
    Add,
}

#[inline(always)]
fn fmadd(a: f64, b: f64, acc: f64) -> f64 {
    // `mul_add` is only a win when it compiles to the FMA instruction;
    // without the target feature it calls into libm, which would be ruinous.
    #[cfg(target_feature = "fma")]
    {
        a.mul_add(b, acc)
    }
    #[cfg(not(target_feature = "fma"))]
    {
        a * b + acc
    }
}

/// Doubles occupied by `rows` rows of `kc` columns in packed form (rows
/// rounded up to whole micro-panels).
#[inline]
pub const fn packed_len(rows: usize, kc: usize) -> usize {
    rows.div_ceil(MR) * MR * kc
}

/// Packs a `rows × kc` strided sub-matrix into `MR`-row micro-panels: panel
/// `pi` holds rows `pi·MR .. pi·MR+MR` interleaved as `kc` groups of `MR`
/// consecutive values, zero-padded when `rows` is not a multiple of `MR`.
/// Fills the leading [`packed_len`]`(rows, kc)` doubles of `dst`.
pub fn pack_rows(dst: &mut [f64], src: &[f64], ld: usize, rows: usize, kc: usize) {
    if kc == 0 {
        return;
    }
    for (pi, panel) in dst[..packed_len(rows, kc)].chunks_exact_mut(kc * MR).enumerate() {
        let h = (rows - pi * MR).min(MR);
        if h == MR {
            // Full panel: walk the eight rows in step so each group of `MR`
            // lanes is written with one contiguous store.
            let r: [&[f64]; MR] =
                std::array::from_fn(|r| &src[(pi * MR + r) * ld..(pi * MR + r) * ld + kc]);
            for (p, group) in panel.chunks_exact_mut(MR).enumerate() {
                for lane in 0..MR {
                    group[lane] = r[lane][p];
                }
            }
            continue;
        }
        for r in 0..h {
            let row = &src[(pi * MR + r) * ld..(pi * MR + r) * ld + kc];
            for (p, &v) in row.iter().enumerate() {
                panel[p * MR + r] = v;
            }
        }
        for group in panel.chunks_exact_mut(MR) {
            group[h..].fill(0.0);
        }
    }
}

/// Inverse of [`pack_rows`]: writes the `rows` real rows of the panels back
/// to a strided row-major view. Padding lanes are never read, so whatever a
/// kernel left in them cannot reach storage.
pub fn unpack_rows(dst: &mut [f64], ld: usize, src: &[f64], rows: usize, kc: usize) {
    if kc == 0 {
        return;
    }
    for (pi, panel) in src[..packed_len(rows, kc)].chunks_exact(kc * MR).enumerate() {
        let h = (rows - pi * MR).min(MR);
        if h == MR {
            // Full panel: walk the eight rows in step so each group of `MR`
            // lanes is read with one contiguous load.
            let mut strided = dst[pi * MR * ld..].chunks_mut(ld);
            let r: [&mut [f64]; MR] = std::array::from_fn(|_| {
                &mut strided.next().expect("a full panel has MR rows")[..kc]
            });
            for (p, group) in panel.chunks_exact(MR).enumerate() {
                for lane in 0..MR {
                    r[lane][p] = group[lane];
                }
            }
            continue;
        }
        for r in 0..h {
            let row = &mut dst[(pi * MR + r) * ld..(pi * MR + r) * ld + kc];
            for (p, v) in row.iter_mut().enumerate() {
                *v = panel[p * MR + r];
            }
        }
    }
}

/// One register tile of `C`: what [`macro_kernel`] computes each
/// `MR × PANELS·NR` piece with. Implemented twice — [`Portable`] and, where
/// the target has it, [`avx512::Tile16`] — and selected as [`Native`].
trait Tile {
    /// Adjacent `B` micro-panels one tile spans.
    const PANELS: usize;

    /// Applies `op` to the `h × w` corner at `c[0]` (row stride `ldc`) with
    /// the product of the `A` micro-panel `ap` and the `w.div_ceil(NR)`
    /// micro-panels at the head of `bp`, all `kc` deep. `diag` is the column,
    /// relative to the tile, that the diagonal crosses in row 0: row `r` is
    /// written in columns `j ≤ diag + r` only (`isize::MAX`: every column).
    #[allow(clippy::too_many_arguments)]
    fn run(
        kc: usize,
        ap: &[f64],
        bp: &[f64],
        c: &mut [f64],
        ldc: usize,
        h: usize,
        w: usize,
        op: WriteOp,
        diag: isize,
    );
}

/// The tile the public entry points run on this target.
#[cfg(target_feature = "avx512f")]
type Native = avx512::Tile16;
#[cfg(not(target_feature = "avx512f"))]
type Native = Portable;

/// Columns of tile row `r` that lie on or below the diagonal, at most `w`.
#[inline(always)]
fn row_width(diag: isize, r: usize, w: usize) -> usize {
    diag.saturating_add(r as isize + 1).clamp(0, w as isize) as usize
}

/// The portable register tile: `acc[r][j] += Σ_p ap[p][r] · bp[p][j]` over
/// one packed `A` micro-panel and one packed `B` micro-panel.
#[cfg(any(test, not(target_feature = "avx512f")))]
#[inline(always)]
fn microkernel(kc: usize, ap: &[f64], bp: &[f64]) -> [[f64; NR]; MR] {
    let mut acc = [[0.0f64; NR]; MR];
    for (a, b) in ap[..kc * MR].chunks_exact(MR).zip(bp[..kc * NR].chunks_exact(NR)) {
        let a: &[f64; MR] = a.try_into().unwrap();
        let b: &[f64; NR] = b.try_into().unwrap();
        for r in 0..MR {
            let ar = a[r];
            for j in 0..NR {
                acc[r][j] = fmadd(ar, b[j], acc[r][j]);
            }
        }
    }
    acc
}

/// Writes an `h × w` corner of the accumulator tile into `c` (row stride
/// `ldc`).
#[cfg(any(test, not(target_feature = "avx512f")))]
#[inline(always)]
fn write_tile(c: &mut [f64], ldc: usize, h: usize, w: usize, acc: &[[f64; NR]; MR], op: WriteOp) {
    match op {
        WriteOp::Sub => {
            for r in 0..h {
                let row = &mut c[r * ldc..r * ldc + w];
                for j in 0..w {
                    row[j] -= acc[r][j];
                }
            }
        }
        WriteOp::Set => {
            for r in 0..h {
                c[r * ldc..r * ldc + w].copy_from_slice(&acc[r][..w]);
            }
        }
        WriteOp::Add => {
            for r in 0..h {
                let row = &mut c[r * ldc..r * ldc + w];
                for j in 0..w {
                    row[j] += acc[r][j];
                }
            }
        }
    }
}

/// Like [`write_tile`] but only touches elements on or below the global
/// diagonal; `grow`/`gcol` are the global indices of the tile origin.
#[cfg(any(test, not(target_feature = "avx512f")))]
#[allow(clippy::too_many_arguments)]
fn write_tile_lower(
    c: &mut [f64],
    ldc: usize,
    h: usize,
    w: usize,
    acc: &[[f64; NR]; MR],
    op: WriteOp,
    grow: usize,
    gcol: usize,
) {
    for r in 0..h {
        let i = grow + r;
        if i < gcol {
            continue; // entire row of the tile is above the diagonal
        }
        let wmax = w.min(i + 1 - gcol);
        let row = &mut c[r * ldc..r * ldc + wmax];
        match op {
            WriteOp::Sub => {
                for j in 0..wmax {
                    row[j] -= acc[r][j];
                }
            }
            WriteOp::Set => row.copy_from_slice(&acc[r][..wmax]),
            WriteOp::Add => {
                for j in 0..wmax {
                    row[j] += acc[r][j];
                }
            }
        }
    }
}

/// The 8×8 tile every target can run: [`microkernel`] into a
/// `[[f64; NR]; MR]`, then [`write_tile`] or, where the tile straddles the
/// diagonal, [`write_tile_lower`].
#[cfg(any(test, not(target_feature = "avx512f")))]
struct Portable;

#[cfg(any(test, not(target_feature = "avx512f")))]
impl Tile for Portable {
    const PANELS: usize = 1;

    #[inline(always)]
    fn run(
        kc: usize,
        ap: &[f64],
        bp: &[f64],
        c: &mut [f64],
        ldc: usize,
        h: usize,
        w: usize,
        op: WriteOp,
        diag: isize,
    ) {
        let acc = microkernel(kc, ap, bp);
        if row_width(diag, 0, w) < w {
            // `write_tile_lower` takes global origins; only their difference
            // (`diag`) matters.
            let (grow, gcol) = (diag.max(0) as usize, (-diag).max(0) as usize);
            write_tile_lower(c, ldc, h, w, &acc, op, grow, gcol);
        } else {
            write_tile(c, ldc, h, w, &acc, op);
        }
    }
}

/// The explicit AVX-512 tile. Compiled only when `avx512f` is statically
/// enabled for the whole crate, so there is nothing to detect at run time.
#[cfg(target_feature = "avx512f")]
mod avx512 {
    use super::{row_width, Tile, WriteOp, MR, NR};
    use std::arch::x86_64::*;

    // One `zmm` register is one row of a micro-panel group.
    const _: () = assert!(NR == 8 && MR == 8);

    /// 8 rows × 16 columns: one `A` micro-panel against two adjacent `B`
    /// micro-panels in sixteen `zmm` accumulators. Where only one panel of
    /// columns exists, or the second lies wholly above the diagonal, the same
    /// code runs 8 × 8 in eight.
    pub(super) struct Tile16;

    impl Tile for Tile16 {
        const PANELS: usize = 2;

        #[inline(always)]
        fn run(
            kc: usize,
            ap: &[f64],
            bp: &[f64],
            c: &mut [f64],
            ldc: usize,
            h: usize,
            w: usize,
            op: WriteOp,
            diag: isize,
        ) {
            // The last row is the widest one a lower-triangle mask leaves.
            let w = row_width(diag, h - 1, w);
            // SAFETY: this module exists only under
            // `cfg(target_feature = "avx512f")`: the feature is enabled for
            // every function of the crate, this caller included.
            unsafe {
                if w <= NR {
                    tile::<1>(kc, ap, bp, c, ldc, h, w, op, diag)
                } else {
                    tile::<2>(kc, ap, bp, c, ldc, h, w, op, diag)
                }
            }
        }
    }

    /// `c[r][j] ∘= Σ_p ap[p][r] · bp[j / NR][p][j % NR]` for `r < h` and
    /// `j < row_width(diag, r, w)`: per element one ascending-`p` FMA chain
    /// from zero, then `op` once — the portable tile's arithmetic exactly.
    /// Nothing else of `c` is read or written.
    #[target_feature(enable = "avx512f")]
    #[inline]
    #[allow(clippy::too_many_arguments)]
    fn tile<const NP: usize>(
        kc: usize,
        ap: &[f64],
        bp: &[f64],
        c: &mut [f64],
        ldc: usize,
        h: usize,
        w: usize,
        op: WriteOp,
        diag: isize,
    ) {
        let mut acc = [[_mm512_setzero_pd(); NP]; MR];
        // Panel `q` of `bp`, eight doubles (one `zmm`) per step of `k`.
        let mut bq: [_; NP] =
            std::array::from_fn(|q| bp[q * kc * NR..(q + 1) * kc * NR].chunks_exact(NR));
        for a in ap[..kc * MR].chunks_exact(MR) {
            let b: [__m512d; NP] = std::array::from_fn(|q| {
                let b = bq[q].next().expect("every panel is kc groups long");
                // SAFETY: `chunks_exact(NR)` yields eight doubles.
                unsafe { _mm512_loadu_pd(b.as_ptr()) }
            });
            for r in 0..MR {
                let ar = _mm512_set1_pd(a[r]);
                for q in 0..NP {
                    acc[r][q] = _mm512_fmadd_pd(ar, b[q], acc[r][q]);
                }
            }
        }

        // The footprint every store below stays inside, checked once
        // (a checked slice per row and register costs 15–25 % of a tile at
        // `kc ≤ 16`, where most of the factor's updates are).
        assert!((1..=MR).contains(&h) && (1..=NP * NR).contains(&w));
        let foot = (h - 1).checked_mul(ldc).and_then(|above| above.checked_add(w));
        assert!(foot.is_some_and(|foot| foot <= c.len()), "tile outside the c view");
        // One row of the tile: `op` on its leading `row_width` columns, one
        // masked `zmm` per micro-panel.
        let mut row = |r: usize, acc: [__m512d; NP]| {
            let lanes = (1u32 << row_width(diag, r, w)) - 1;
            for (q, acc) in acc.into_iter().enumerate() {
                let k = (lanes >> (q * NR)) as __mmask8;
                // SAFETY: called with `r < h`, and `q·NR < w` (`NP = 2` only
                // when `w > NR`), so `r·ldc + q·NR < foot ≤ c.len()` without
                // overflow. The lanes `k` enables are columns
                // `< row_width ≤ w` of row `r`, all below `foot`; masked-off
                // lanes are neither loaded nor stored.
                unsafe {
                    let at = c.as_mut_ptr().add(r * ldc + q * NR);
                    let v = match op {
                        WriteOp::Set => acc,
                        WriteOp::Sub => _mm512_sub_pd(_mm512_maskz_loadu_pd(k, at), acc),
                        WriteOp::Add => _mm512_add_pd(_mm512_maskz_loadu_pd(k, at), acc),
                    };
                    _mm512_mask_storeu_pd(at, k, v);
                }
            }
        };
        // Spelled out row by row: indexing `acc` with a loop variable would
        // turn the sixteen registers into a stack array first.
        macro_rules! rows {
            ($($r:literal)*) => {$(
                if $r < h {
                    row($r, acc[$r]);
                }
            )*};
        }
        rows!(0 1 2 3 4 5 6 7);
    }
}

/// Runs tile `T` over one packed `mc × nc` block of `C`.
///
/// `tri = Some((grow, gcol))` gives the global origin of the block for
/// lower-triangle masking (SYRK): tiles strictly above the diagonal are
/// skipped before any arithmetic, tiles straddling it are masked row by row.
/// `None` writes every tile whole (GEMM).
#[allow(clippy::too_many_arguments)]
fn macro_kernel<T: Tile>(
    c: &mut [f64],
    ldc: usize,
    mc: usize,
    nc: usize,
    kc: usize,
    ap: &[f64],
    bp: &[f64],
    op: WriteOp,
    tri: Option<(usize, usize)>,
) {
    for j0 in (0..nc).step_by(T::PANELS * NR) {
        let w = (nc - j0).min(T::PANELS * NR);
        // `j0` is a whole number of micro-panels, each `kc·NR` long.
        let bpan = &bp[j0 * kc..(j0 + w.next_multiple_of(NR)) * kc];
        for i0 in (0..mc).step_by(MR) {
            let h = (mc - i0).min(MR);
            let diag = match tri {
                Some((grow, gcol)) => (grow + i0) as isize - (gcol + j0) as isize,
                None => isize::MAX,
            };
            if row_width(diag, h - 1, w) == 0 {
                continue; // tile entirely above the diagonal
            }
            let apan = &ap[i0 * kc..(i0 + MR) * kc];
            T::run(kc, apan, bpan, &mut c[i0 * ldc + j0..], ldc, h, w, op, diag);
        }
    }
}

fn zero_rows(c: &mut [f64], ldc: usize, m: usize, n: usize) {
    for r in 0..m {
        c[r * ldc..r * ldc + n].fill(0.0);
    }
}

#[inline]
fn write_op(mode: Mode, first_panel: bool) -> WriteOp {
    match mode {
        Mode::Sub => WriteOp::Sub,
        Mode::Set if first_panel => WriteOp::Set,
        Mode::Set => WriteOp::Add,
    }
}

/// Packed, cache-blocked `C := C ∓ A·Bᵀ` on strided row-major views:
/// `c` is `m × n` with row stride `ldc`, `a` is `m × k` with stride `lda`,
/// `b` is `n × k` with stride `ldb`. Slices only need to cover the strided
/// extent (`(rows−1)·ld + cols`), so views into larger buffers work.
///
/// Always takes the packed path regardless of problem size — this is the
/// differential-testing and benchmarking entry point. Size-dispatched
/// callers should use [`crate::kernels::gemm_abt_sub_strided`].
#[allow(clippy::too_many_arguments)]
pub fn gemm_abt_packed(
    mode: Mode,
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
    if m == 0 || n == 0 {
        return;
    }
    assert!(ldc >= n && c.len() >= (m - 1) * ldc + n, "c view too small");
    if k == 0 {
        if mode == Mode::Set {
            zero_rows(c, ldc, m, n);
        }
        return;
    }
    assert!(lda >= k && a.len() >= (m - 1) * lda + k, "a view too small");
    assert!(ldb >= k && b.len() >= (n - 1) * ldb + k, "b view too small");

    let kc_max = k.min(KC);
    let ap_len = m.min(MC).div_ceil(MR) * MR * kc_max;
    let bp_len = n.min(NC).div_ceil(NR) * NR * kc_max;
    let (ap, bp) = packs.get(ap_len, bp_len);

    for jc in (0..n).step_by(NC) {
        let nc = (n - jc).min(NC);
        for pc in (0..k).step_by(KC) {
            let kc = (k - pc).min(KC);
            let op = write_op(mode, pc == 0);
            pack_rows(bp, &b[jc * ldb + pc..], ldb, nc, kc);
            for ic in (0..m).step_by(MC) {
                let mc = (m - ic).min(MC);
                pack_rows(ap, &a[ic * lda + pc..], lda, mc, kc);
                macro_kernel::<Native>(&mut c[ic * ldc + jc..], ldc, mc, nc, kc, ap, bp, op, None);
            }
        }
    }
}

/// Packed, cache-blocked rank-k update of the lower triangle:
/// `C := C ∓ A·Aᵀ` with `c` an `n × n` view (row stride `ldc`) and `a` an
/// `n × k` view (stride `lda`). The strict upper triangle of `c` is never
/// read or written.
///
/// Always packed; size-dispatched callers use
/// [`crate::kernels::syrk_lt_sub_strided`].
#[allow(clippy::too_many_arguments)]
pub fn syrk_lt_packed(
    mode: Mode,
    c: &mut [f64],
    ldc: usize,
    a: &[f64],
    lda: usize,
    n: usize,
    k: usize,
    packs: &mut PackBufs,
) {
    if n == 0 {
        return;
    }
    assert!(ldc >= n && c.len() >= (n - 1) * ldc + n, "c view too small");
    if k == 0 {
        if mode == Mode::Set {
            for r in 0..n {
                c[r * ldc..r * ldc + r + 1].fill(0.0);
            }
        }
        return;
    }
    assert!(lda >= k && a.len() >= (n - 1) * lda + k, "a view too small");

    let kc_max = k.min(KC);
    let ap_len = n.min(MC).div_ceil(MR) * MR * kc_max;
    let bp_len = n.min(NC).div_ceil(NR) * NR * kc_max;
    let (ap, bp) = packs.get(ap_len, bp_len);

    for jc in (0..n).step_by(NC) {
        let nc = (n - jc).min(NC);
        for pc in (0..k).step_by(KC) {
            let kc = (k - pc).min(KC);
            let op = write_op(mode, pc == 0);
            pack_rows(bp, &a[jc * lda + pc..], lda, nc, kc);
            // Row blocks start at the column panel: everything above the
            // diagonal contributes nothing to the lower triangle.
            let mut ic = jc;
            while ic < n {
                let mc = (n - ic).min(MC);
                pack_rows(ap, &a[ic * lda + pc..], lda, mc, kc);
                macro_kernel::<Native>(
                    &mut c[ic * ldc + jc..],
                    ldc,
                    mc,
                    nc,
                    kc,
                    ap,
                    bp,
                    op,
                    Some((ic, jc)),
                );
                ic += MC;
            }
        }
    }
}

/// `C := C ∓ A·Bᵀ` out of operands already in [`pack_rows`] form: `ap` holds
/// `m` rows and `bp` holds `n` rows of `k` columns each. `c` is an `m × n`
/// view with row stride `ldc`. No packing, no scratch.
#[allow(clippy::too_many_arguments)]
pub fn gemm_prepacked(
    mode: Mode,
    c: &mut [f64],
    ldc: usize,
    ap: &[f64],
    bp: &[f64],
    m: usize,
    n: usize,
    k: usize,
) {
    if m == 0 || n == 0 {
        return;
    }
    assert!(ldc >= n && c.len() >= (m - 1) * ldc + n, "c view too small");
    assert!(ap.len() >= packed_len(m, k) && bp.len() >= packed_len(n, k), "pack too small");
    macro_kernel::<Native>(c, ldc, m, n, k, ap, bp, write_op(mode, true), None);
}

/// Lower triangle of `C := C ∓ A·Aᵀ` out of one [`pack_rows`] operand of `n`
/// rows × `k` columns. The strict upper triangle of `c` is never touched.
pub fn syrk_lt_prepacked(mode: Mode, c: &mut [f64], ldc: usize, ap: &[f64], n: usize, k: usize) {
    if n == 0 {
        return;
    }
    assert!(ldc >= n && c.len() >= (n - 1) * ldc + n, "c view too small");
    assert!(ap.len() >= packed_len(n, k), "pack too small");
    macro_kernel::<Native>(c, ldc, n, n, k, ap, ap, write_op(mode, true), Some((0, 0)));
}

/// Forward substitution on `G` consecutive micro-panels at once. Each lane
/// is one row of `X`; the `G` dependence chains are independent and share
/// every load of `L`. Columns are solved two at a time so each load of a
/// solved `x[t]` feeds both chains; per lane the operations are still the
/// plain ascending-`t` sequence `s −= x[t]·l[j][t]`, then `s · (1/l[j][j])`.
#[inline(always)]
fn solve_panels<const G: usize>(l: &[f64], ldl: usize, n: usize, xp: &mut [f64]) {
    let plen = n * MR;
    assert_eq!(xp.len(), G * plen);
    let lane = |xp: &[f64], g: usize, t: usize| -> [f64; MR] {
        xp[g * plen + t * MR..g * plen + t * MR + MR].try_into().unwrap()
    };
    let mut j = 0;
    while j < n {
        let pair = j + 1 < n;
        let l0 = &l[j * ldl..j * ldl + j + 1];
        // The odd last column runs the pair code with a second accumulator
        // that starts at zero and is dropped.
        let l1 = if pair { &l[(j + 1) * ldl..(j + 1) * ldl + j + 2] } else { l0 };
        let mut s0: [[f64; MR]; G] = std::array::from_fn(|g| lane(xp, g, j));
        let mut s1: [[f64; MR]; G] =
            std::array::from_fn(|g| if pair { lane(xp, g, j + 1) } else { [0.0; MR] });
        for t in 0..j {
            let (a, b) = (l0[t], l1[t]);
            for g in 0..G {
                let x = lane(xp, g, t);
                for r in 0..MR {
                    s0[g][r] = fmadd(-x[r], a, s0[g][r]);
                    s1[g][r] = fmadd(-x[r], b, s1[g][r]);
                }
            }
        }
        let inv0 = 1.0 / l0[j];
        for g in 0..G {
            for v in &mut s0[g] {
                *v *= inv0;
            }
            xp[g * plen + j * MR..g * plen + j * MR + MR].copy_from_slice(&s0[g]);
        }
        if pair {
            let (c, inv1) = (l1[j], 1.0 / l1[j + 1]);
            for g in 0..G {
                for r in 0..MR {
                    s1[g][r] = fmadd(-s0[g][r], c, s1[g][r]) * inv1;
                }
                xp[g * plen + (j + 1) * MR..g * plen + (j + 2) * MR].copy_from_slice(&s1[g]);
            }
        }
        j += 2;
    }
}

/// Solves `X := X · L⁻ᵀ` in place on `X` in [`pack_rows`] form (`xp` holds
/// whole micro-panels of `n` columns): `l` is the `n × n` lower-triangular
/// factor with row stride `ldl`.
///
/// Four panels are solved together so the FMA chains overlap, but every
/// operation is lane-wise: a row's result depends only on that row and `L`,
/// never on which rows share its panel or how panels are grouped into
/// calls. Solving a block column whole, block by block, or panel by panel
/// gives the same bits.
pub fn trsm_packed(l: &[f64], ldl: usize, n: usize, xp: &mut [f64]) {
    if n == 0 {
        return;
    }
    assert!(ldl >= n && l.len() >= (n - 1) * ldl + n, "l view too small");
    let plen = n * MR;
    assert_eq!(xp.len() % plen, 0, "xp must hold whole micro-panels");
    let mut groups = xp.chunks_exact_mut(4 * plen);
    for group in &mut groups {
        solve_panels::<4>(l, ldl, n, group);
    }
    let tail = groups.into_remainder();
    match tail.len() / plen {
        3 => solve_panels::<3>(l, ldl, n, tail),
        2 => solve_panels::<2>(l, ldl, n, tail),
        1 => solve_panels::<1>(l, ldl, n, tail),
        _ => {}
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn naive_abt(a: &[f64], b: &[f64], m: usize, n: usize, k: usize) -> Vec<f64> {
        let mut out = vec![0.0; m * n];
        for i in 0..m {
            for j in 0..n {
                let mut s = 0.0;
                for t in 0..k {
                    s += a[i * k + t] * b[j * k + t];
                }
                out[i * n + j] = s;
            }
        }
        out
    }

    fn fill(len: usize, f: impl Fn(usize) -> f64) -> Vec<f64> {
        (0..len).map(f).collect()
    }

    #[test]
    fn gemm_packed_matches_naive_various_shapes() {
        let mut packs = PackBufs::default();
        for &(m, n, k) in &[
            (1, 1, 1),
            (3, 5, 2),
            (8, 8, 8),
            (9, 7, 13),
            (17, 23, 31),
            (40, 40, 40),
            (65, 3, 70),
            (2, 70, 5),
        ] {
            let a = fill(m * k, |t| (t as f64 * 0.37).sin());
            let b = fill(n * k, |t| (t as f64 * 0.21).cos());
            let mut c = fill(m * n, |t| t as f64 * 0.01);
            let expect: Vec<f64> = c
                .iter()
                .zip(naive_abt(&a, &b, m, n, k))
                .map(|(&cv, p)| cv - p)
                .collect();
            gemm_abt_packed(Mode::Sub, &mut c, n, &a, k, &b, k, m, n, k, &mut packs);
            for (i, (got, want)) in c.iter().zip(&expect).enumerate() {
                assert!((got - want).abs() < 1e-11, "m={m} n={n} k={k} idx={i}");
            }
        }
    }

    #[test]
    fn gemm_packed_set_mode_crosses_kc_panels() {
        // k > KC exercises the Set-then-Add continuation across k panels.
        let (m, n, k) = (9, 11, KC + 37);
        let a = fill(m * k, |t| ((t % 83) as f64) * 0.03 - 1.0);
        let b = fill(n * k, |t| ((t % 59) as f64) * 0.05 - 1.4);
        let mut c = vec![f64::NAN; m * n]; // Set must not read C
        let mut packs = PackBufs::default();
        gemm_abt_packed(Mode::Set, &mut c, n, &a, k, &b, k, m, n, k, &mut packs);
        let expect = naive_abt(&a, &b, m, n, k);
        for (got, want) in c.iter().zip(&expect) {
            assert!((got - want).abs() < 1e-9 * want.abs().max(1.0));
        }
    }

    #[test]
    fn gemm_packed_strided_views_leave_gaps_untouched() {
        let (m, n, k) = (5, 4, 6);
        let (ldc, lda, ldb) = (n + 3, k + 2, k + 1);
        let a = fill((m - 1) * lda + k, |t| t as f64 * 0.1);
        let b = fill((n - 1) * ldb + k, |t| t as f64 * 0.2);
        let mut c = vec![7.0; (m - 1) * ldc + n];
        let mut packs = PackBufs::default();
        gemm_abt_packed(Mode::Sub, &mut c, ldc, &a, lda, &b, ldb, m, n, k, &mut packs);
        for i in 0..m {
            for j in 0..n {
                let mut s = 0.0;
                for t in 0..k {
                    s += a[i * lda + t] * b[j * ldb + t];
                }
                assert!((c[i * ldc + j] - (7.0 - s)).abs() < 1e-12);
            }
            // padding between rows untouched
            if i + 1 < m {
                for g in n..ldc {
                    assert_eq!(c[i * ldc + g], 7.0);
                }
            }
        }
    }

    #[test]
    fn gemm_packed_degenerate_dims() {
        let mut packs = PackBufs::default();
        let mut c = vec![5.0];
        gemm_abt_packed(Mode::Sub, &mut c, 1, &[], 0, &[], 0, 1, 1, 0, &mut packs);
        assert_eq!(c, vec![5.0]);
        gemm_abt_packed(Mode::Set, &mut c, 1, &[], 0, &[], 0, 1, 1, 0, &mut packs);
        assert_eq!(c, vec![0.0]);
        let mut empty: Vec<f64> = vec![];
        gemm_abt_packed(Mode::Sub, &mut empty, 1, &[], 1, &[1.0], 1, 0, 1, 1, &mut packs);
    }

    #[test]
    fn syrk_packed_matches_gemm_on_lower_and_spares_upper() {
        let mut packs = PackBufs::default();
        for &(n, k) in &[(1, 1), (6, 3), (8, 8), (13, 9), (21, 40), (40, 17)] {
            let a = fill(n * k, |t| (t as f64 * 0.13).sin() - 0.2);
            let mut c1 = fill(n * n, |t| t as f64 * 0.5);
            let mut c2 = c1.clone();
            syrk_lt_packed(Mode::Sub, &mut c1, n, &a, k, n, k, &mut packs);
            gemm_abt_packed(Mode::Sub, &mut c2, n, &a, k, &a, k, n, n, k, &mut packs);
            for i in 0..n {
                for j in 0..=i {
                    // bitwise: identical accumulation order by construction
                    assert_eq!(c1[i * n + j], c2[i * n + j], "n={n} k={k} ({i},{j})");
                }
                for j in (i + 1)..n {
                    assert_eq!(c1[i * n + j], (i * n + j) as f64 * 0.5);
                }
            }
        }
    }

    /// The tile the entry points run against the portable one, through the
    /// same `macro_kernel`: every block shape up to three tiles a side, every
    /// write-back operation, GEMM and every diagonal position a SYRK caller
    /// can hand over (block origins differ by multiples of `MR`). The
    /// destination is a wider view full of NaN wherever nothing may be
    /// written, so the comparison also pins the footprint. (On a target
    /// without `avx512f` both sides are the portable tile.)
    #[test]
    fn native_tile_is_bit_equal_to_portable_tile() {
        let (rows, kmax) = (40, 48);
        let a = fill(rows * kmax, |t| (t as f64 * 0.37).sin());
        let b = fill(rows * kmax, |t| (t as f64 * 0.21).cos());
        let packed = |src: &[f64], kc: usize| {
            let mut p = vec![0.0; packed_len(rows, kc)];
            pack_rows(&mut p, src, kmax, rows, kc);
            p
        };
        let tris = [None, Some((0, 0)), Some((8, 0)), Some((0, 16)), Some((24, 8)), Some((0, 32))];
        for kc in [1, 9, kmax] {
            let (ap, bp) = (packed(&a, kc), packed(&b, kc));
            for mc in 1..=17 {
                for nc in 1..=rows {
                    let ldc = nc + 3;
                    for tri in tris {
                        for op in [WriteOp::Sub, WriteOp::Set, WriteOp::Add] {
                            // NaN outside the footprint, numbers inside it
                            // (`Set` must not read even those).
                            let mut c0 = vec![f64::NAN; mc * ldc];
                            for i in 0..mc {
                                for j in 0..nc {
                                    let below = tri.is_none_or(|(gr, gc)| gc + j <= gr + i);
                                    if below && op != WriteOp::Set {
                                        c0[i * ldc + j] = (i * 41 + j) as f64 * 0.125;
                                    }
                                }
                            }
                            let (mut c_native, mut c_portable) = (c0.clone(), c0.clone());
                            macro_kernel::<Native>(
                                &mut c_native, ldc, mc, nc, kc, &ap, &bp, op, tri,
                            );
                            macro_kernel::<Portable>(
                                &mut c_portable, ldc, mc, nc, kc, &ap, &bp, op, tri,
                            );
                            for (t, (x, y)) in c_native.iter().zip(&c_portable).enumerate() {
                                assert_eq!(
                                    x.to_bits(),
                                    y.to_bits(),
                                    "mc={mc} nc={nc} kc={kc} tri={tri:?} at ({}, {})",
                                    t / ldc,
                                    t % ldc
                                );
                            }
                        }
                    }
                }
            }
        }
    }

    #[test]
    fn syrk_packed_set_mode() {
        let (n, k) = (11, 5);
        let a = fill(n * k, |t| (t as f64) * 0.07 - 0.3);
        let mut c = vec![f64::NAN; n * n];
        let mut packs = PackBufs::default();
        syrk_lt_packed(Mode::Set, &mut c, n, &a, k, n, k, &mut packs);
        let full = naive_abt(&a, &a, n, n, k);
        for i in 0..n {
            for j in 0..=i {
                assert!((c[i * n + j] - full[i * n + j]).abs() < 1e-12);
            }
            for j in (i + 1)..n {
                assert!(c[i * n + j].is_nan()); // upper never written
            }
        }
    }
}
