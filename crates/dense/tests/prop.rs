//! Property-based tests for the dense kernels against naive linear algebra.

use dense::kernels::{gemm_abt_sub, potrf, syrk_lt_sub, trsm_right_lower_trans};
use proptest::prelude::*;

fn arb_matrix(max_dim: usize) -> impl Strategy<Value = (usize, Vec<f64>)> {
    (1usize..max_dim).prop_flat_map(|n| {
        proptest::collection::vec(-2.0f64..2.0, n * n).prop_map(move |v| (n, v))
    })
}

/// Makes an SPD matrix from arbitrary square data: `A = M·Mᵀ + n·I`.
fn spd_of(n: usize, m: &[f64]) -> Vec<f64> {
    let mut a = vec![0.0; n * n];
    for i in 0..n {
        for j in 0..n {
            let mut s = if i == j { n as f64 + 1.0 } else { 0.0 };
            for k in 0..n {
                s += m[i * n + k] * m[j * n + k];
            }
            a[i * n + j] = s;
        }
    }
    a
}

proptest! {
    #![proptest_config(ProptestConfig { cases: 64, ..ProptestConfig::default() })]

    #[test]
    fn potrf_reconstructs_spd_input((n, m) in arb_matrix(14)) {
        let a = spd_of(n, &m);
        let mut l = a.clone();
        potrf(&mut l, n).unwrap();
        // Diagonal entries positive.
        for i in 0..n {
            prop_assert!(l[i * n + i] > 0.0);
        }
        // L·Lᵀ == A on the lower triangle.
        for i in 0..n {
            for j in 0..=i {
                let mut s = 0.0;
                for k in 0..=j {
                    s += l[i * n + k] * l[j * n + k];
                }
                prop_assert!(
                    (s - a[i * n + j]).abs() < 1e-8 * (1.0 + a[i * n + j].abs()),
                    "entry ({}, {})", i, j
                );
            }
        }
    }

    #[test]
    fn trsm_inverts_multiplication((n, m) in arb_matrix(10), rows in 1usize..8) {
        let a = spd_of(n, &m);
        let mut l = a;
        potrf(&mut l, n).unwrap();
        // X·Lᵀ = B  ⇒ trsm(B) == X.
        let x: Vec<f64> = (0..rows * n).map(|t| ((t * 13 % 7) as f64) - 3.0).collect();
        let mut b = vec![0.0; rows * n];
        for r in 0..rows {
            for j in 0..n {
                let mut s = 0.0;
                for k in 0..=j {
                    s += x[r * n + k] * l[j * n + k];
                }
                b[r * n + j] = s;
            }
        }
        trsm_right_lower_trans(&l, n, &mut b, rows);
        for (got, want) in b.iter().zip(&x) {
            prop_assert!((got - want).abs() < 1e-7, "{} vs {}", got, want);
        }
    }

    #[test]
    fn gemm_matches_naive(
        m in 1usize..10,
        n in 1usize..10,
        k in 0usize..8,
        seed in any::<u32>(),
    ) {
        let f = |t: usize| (((t as u32).wrapping_mul(seed | 1) >> 16) % 17) as f64 - 8.0;
        let a: Vec<f64> = (0..m * k).map(f).collect();
        let b: Vec<f64> = (0..n * k).map(|t| f(t + 31)).collect();
        let c0: Vec<f64> = (0..m * n).map(|t| f(t + 77)).collect();
        let mut c = c0.clone();
        gemm_abt_sub(&mut c, &a, &b, m, n, k);
        for i in 0..m {
            for j in 0..n {
                let mut s = c0[i * n + j];
                for t in 0..k {
                    s -= a[i * k + t] * b[j * k + t];
                }
                prop_assert!((c[i * n + j] - s).abs() < 1e-9);
            }
        }
    }

    #[test]
    fn syrk_equals_gemm_on_lower_triangle(
        n in 1usize..10,
        k in 0usize..8,
        seed in any::<u32>(),
    ) {
        let f = |t: usize| (((t as u32).wrapping_mul(seed | 1) >> 13) % 23) as f64 * 0.25 - 2.0;
        let a: Vec<f64> = (0..n * k).map(f).collect();
        let mut c1 = vec![0.5; n * n];
        let mut c2 = vec![0.5; n * n];
        syrk_lt_sub(&mut c1, &a, n, k);
        gemm_abt_sub(&mut c2, &a, &a, n, n, k);
        for i in 0..n {
            for j in 0..=i {
                prop_assert!((c1[i * n + j] - c2[i * n + j]).abs() < 1e-12);
            }
            // Strict upper triangle untouched by syrk.
            for j in (i + 1)..n {
                prop_assert_eq!(c1[i * n + j], 0.5);
            }
        }
    }

    #[test]
    fn potrf_rejects_symmetric_indefinite((n, m) in arb_matrix(8)) {
        prop_assume!(n >= 2);
        // A = M·Mᵀ − large·I is symmetric but indefinite (or negative).
        let mut a = spd_of(n, &m);
        let shift = 10.0 * n as f64
            + a.iter().fold(0.0f64, |mx, &v| mx.max(v.abs()));
        for i in 0..n {
            a[i * n + i] -= shift;
        }
        prop_assert!(potrf(&mut a, n).is_err());
    }
}

/// Differential tests: the packed/blocked BLAS-3 layer against the scalar
/// reference kernels it replaced. The reference implementations stay in the
/// tree exactly so these comparisons keep running.
mod packed {
    use dense::kernels::{self, reference};
    use dense::pack::{self, Mode, KC, MC, MR, NC, NR};
    use dense::KernelArena;
    use proptest::prelude::*;

    /// Deterministic pseudo-random fill in roughly [-0.5, 0.5).
    fn filled(len: usize, seed: u64) -> Vec<f64> {
        let mut s = seed.wrapping_mul(0x9e37_79b9_7f4a_7c15) | 1;
        (0..len)
            .map(|_| {
                s = s.wrapping_mul(6364136223846793005).wrapping_add(1442695040888963407);
                ((s >> 11) as f64) / ((1u64 << 53) as f64) - 0.5
            })
            .collect()
    }

    fn spd(n: usize) -> Vec<f64> {
        let m = filled(n * n, 17 + n as u64);
        let mut a = vec![0.0; n * n];
        for i in 0..n {
            for j in 0..n {
                let mut s = if i == j { n as f64 + 1.0 } else { 0.0 };
                for t in 0..n {
                    s += m[i * n + t] * m[j * n + t];
                }
                a[i * n + j] = s;
            }
        }
        a
    }

    /// Every (m, n) in `1..=2·MR+1 × 1..=2·NR+1` — all register-tile edge
    /// cases: exact multiples, one-row/one-column remainders, single tiles.
    #[test]
    fn gemm_packed_matches_reference_for_all_small_dims() {
        let mut arena = KernelArena::new();
        for m in 1..=2 * MR + 1 {
            for n in 1..=2 * NR + 1 {
                for k in [1, 3, MR, 2 * MR + 1] {
                    let a = filled(m * k, 1);
                    let b = filled(n * k, 2);
                    let c0 = filled(m * n, 3);
                    let mut c_ref = c0.clone();
                    reference::gemm_abt_sub(&mut c_ref, &a, &b, m, n, k);
                    let mut c = c0.clone();
                    pack::gemm_abt_packed(
                        Mode::Sub, &mut c, n, &a, k, &b, k, m, n, k, arena.packs(),
                    );
                    for i in 0..m * n {
                        assert!(
                            (c[i] - c_ref[i]).abs() < 1e-11,
                            "sub m={m} n={n} k={k} idx={i}"
                        );
                    }
                    // Set mode must not read C: poison it with NaN.
                    let mut c_set = vec![f64::NAN; m * n];
                    pack::gemm_abt_packed(
                        Mode::Set, &mut c_set, n, &a, k, &b, k, m, n, k, arena.packs(),
                    );
                    let mut want = vec![0.0; m * n];
                    reference::gemm_abt_sub(&mut want, &a, &b, m, n, k);
                    for i in 0..m * n {
                        assert!(
                            (c_set[i] + want[i]).abs() < 1e-11,
                            "set m={m} n={n} k={k} idx={i}"
                        );
                    }
                }
            }
        }
    }

    /// Same sweep for the symmetric rank-k update; additionally checks the
    /// strict upper triangle is never touched.
    #[test]
    fn syrk_packed_matches_reference_for_all_small_dims() {
        let mut arena = KernelArena::new();
        for n in 1..=2 * MR + 1 {
            for k in [1, 3, MR, 2 * MR + 1] {
                let a = filled(n * k, 4);
                let c0 = filled(n * n, 5);
                let mut c_ref = c0.clone();
                reference::syrk_lt_sub(&mut c_ref, &a, n, k);
                let mut c = c0.clone();
                pack::syrk_lt_packed(Mode::Sub, &mut c, n, &a, k, n, k, arena.packs());
                for i in 0..n {
                    for j in 0..=i {
                        assert!(
                            (c[i * n + j] - c_ref[i * n + j]).abs() < 1e-11,
                            "n={n} k={k} ({i},{j})"
                        );
                    }
                    for j in (i + 1)..n {
                        assert_eq!(c[i * n + j], c0[i * n + j], "upper touched n={n} k={k}");
                    }
                }
            }
        }
    }

    /// Shapes straddling the KC/MC cache-blocking boundaries — multiple
    /// packed panels per dimension, none an exact multiple of the tile or
    /// panel sizes.
    #[test]
    fn gemm_packed_matches_reference_across_cache_boundaries() {
        let mut arena = KernelArena::new();
        for (m, n, k) in [
            (MC + 5, NR + 3, KC + 13),
            (MR + 1, 2 * NR + 5, 2 * KC + 1),
            (MC - 1, 3, KC - 1),
            (2 * MC + 7, NR, MR),
        ] {
            let a = filled(m * k, 6);
            let b = filled(n * k, 7);
            let c0 = filled(m * n, 8);
            let mut c_ref = c0.clone();
            reference::gemm_abt_sub(&mut c_ref, &a, &b, m, n, k);
            let mut c = c0.clone();
            pack::gemm_abt_packed(Mode::Sub, &mut c, n, &a, k, &b, k, m, n, k, arena.packs());
            for i in 0..m * n {
                assert!((c[i] - c_ref[i]).abs() < 1e-10, "m={m} n={n} k={k} idx={i}");
            }
        }
    }

    /// Degenerate extents: every combination with a zero dimension must be
    /// well-defined — `Sub` is a no-op, `Set` overwrites with the (empty)
    /// product, i.e. zero.
    #[test]
    fn degenerate_dims_are_handled() {
        let mut arena = KernelArena::new();
        for (m, n, k) in [(0, 5, 4), (5, 0, 4), (5, 4, 0), (0, 0, 0)] {
            let a = filled(m * k, 9);
            let b = filled(n * k, 10);
            let c0 = filled(m * n, 11);
            let mut c = c0.clone();
            pack::gemm_abt_packed(Mode::Sub, &mut c, n.max(1), &a, k, &b, k, m, n, k, arena.packs());
            assert_eq!(c, c0, "sub must not touch c for m={m} n={n} k={k}");
            let mut c = c0.clone();
            pack::gemm_abt_packed(Mode::Set, &mut c, n.max(1), &a, k, &b, k, m, n, k, arena.packs());
            assert!(c.iter().all(|&v| v == 0.0) || m == 0 || n == 0);
        }
        // SYRK with k = 0: Set zeroes the lower triangle only.
        let c0 = filled(16, 12);
        let mut c = c0.clone();
        pack::syrk_lt_packed(Mode::Set, &mut c, 4, &[], 0, 4, 0, arena.packs());
        for i in 0..4 {
            for j in 0..4 {
                if j <= i {
                    assert_eq!(c[i * 4 + j], 0.0);
                } else {
                    assert_eq!(c[i * 4 + j], c0[i * 4 + j]);
                }
            }
        }
    }

    /// Blocked POTRF agrees with the scalar reference across its panel width
    /// NB — sizes below, at, and well above the blocking threshold — and so
    /// does the packed TRSM against factors of those sizes.
    #[test]
    fn blocked_potrf_and_trsm_match_reference() {
        let mut arena = KernelArena::new();
        for n in [1, 31, 32, 33, 63, 64, 65, 97, 130] {
            let a = spd(n);
            let mut l_ref = a.clone();
            reference::potrf(&mut l_ref, n).unwrap();
            let mut l = a.clone();
            kernels::potrf_with(&mut l, n, &mut arena).unwrap();
            for i in 0..n {
                for j in 0..=i {
                    assert!(
                        (l[i * n + j] - l_ref[i * n + j]).abs() < 1e-9 * (1.0 + n as f64),
                        "potrf n={n} ({i},{j})"
                    );
                }
            }
            for m in [1, 5, 40] {
                let x0 = filled(m * n, n as u64);
                let mut x_ref = x0.clone();
                reference::trsm_right_lower_trans(&l_ref, n, &mut x_ref, m);
                let mut x = x0.clone();
                kernels::trsm_right_lower_trans_with(&l_ref, n, &mut x, m, &mut arena);
                for i in 0..m * n {
                    assert!(
                        (x[i] - x_ref[i]).abs() < 1e-8 * (1.0 + x_ref[i].abs()),
                        "trsm n={n} m={m} idx={i}"
                    );
                }
            }
        }
    }

    /// The packed solve against the scalar oracle on every shape the
    /// executors can produce: widths below one micro-panel, row counts that
    /// are not multiples of `MR`, empty blocks.
    #[test]
    fn packed_trsm_matches_reference_for_all_shapes() {
        let mut arena = KernelArena::new();
        for n in 1..=64 {
            let mut l = spd(n);
            reference::potrf(&mut l, n).unwrap();
            for m in 0..=70 {
                let x0 = filled(m * n, (n * 100 + m) as u64);
                let mut x_ref = x0.clone();
                reference::trsm_lda(&l, n, n, &mut x_ref, n, m);
                let mut x = x0.clone();
                kernels::trsm_right_lower_trans_with(&l, n, &mut x, m, &mut arena);
                let scale = x_ref.iter().fold(0.0f64, |s, v| s.max(v.abs()));
                for i in 0..m * n {
                    assert!((x[i] - x_ref[i]).abs() <= 1e-12 * scale, "n={n} m={m} idx={i}");
                }
            }
        }
    }

    /// A row's solved bits depend on that row and `L` only: solving the
    /// panels one at a time, four at a time or all at once, or splitting the
    /// rows into blocks at arbitrary (non-`MR`) boundaries, changes nothing.
    /// This is what lets one executor solve a block column whole and another
    /// block by block and still agree bit for bit.
    #[test]
    fn packed_trsm_is_independent_of_row_grouping() {
        let mut arena = KernelArena::new();
        for (n, m) in [(5, 70), (8, 64), (31, 43), (48, 131), (64, 9)] {
            let mut l = spd(n);
            reference::potrf(&mut l, n).unwrap();
            let x0 = filled(m * n, (n + m) as u64);
            let plen = n * MR;
            let mut whole = vec![0.0; pack::packed_len(m, n)];
            pack::pack_rows(&mut whole, &x0, n, m, n);
            let packed = whole.clone();
            pack::trsm_packed(&l, n, n, &mut whole);
            for group in [1, 4] {
                let mut xp = packed.clone();
                for chunk in xp.chunks_mut(group * plen) {
                    pack::trsm_packed(&l, n, n, chunk);
                }
                assert!(
                    xp.iter().zip(&whole).all(|(a, b)| a.to_bits() == b.to_bits()),
                    "n={n} m={m} group={group}"
                );
            }
            // Through the strided entry point: whole, then in ragged blocks.
            let mut x_whole = x0.clone();
            kernels::trsm_right_lower_trans_with(&l, n, &mut x_whole, m, &mut arena);
            let mut x_blocks = x0.clone();
            let mut r0 = 0;
            for rows in [3usize, 8, 1, 13, 17, 5].iter().cycle() {
                let r = (*rows).min(m - r0);
                kernels::trsm_right_lower_trans_with(
                    &l, n, &mut x_blocks[r0 * n..(r0 + r) * n], r, &mut arena,
                );
                r0 += r;
                if r0 == m {
                    break;
                }
            }
            assert!(
                x_blocks.iter().zip(&x_whole).all(|(a, b)| a.to_bits() == b.to_bits()),
                "n={n} m={m} ragged blocks"
            );
            let mut unpacked = vec![0.0; m * n];
            pack::unpack_rows(&mut unpacked, n, &whole, m, n);
            assert!(unpacked.iter().zip(&x_whole).all(|(a, b)| a.to_bits() == b.to_bits()));
        }
    }

    /// Products out of caller-owned panels are the strided packed kernels'
    /// bits exactly, on the shapes the executors use (blocks of at most one
    /// nominal panel, `k` = a column width).
    #[test]
    fn prepacked_products_are_bit_equal_to_packed() {
        let dims = [1, 2, 7, 8, 9, 15, 16, 17, 24, 31, 33, 40, 47, 48];
        let mut arena = KernelArena::new();
        let bits = |v: &[f64]| v.iter().map(|x| x.to_bits()).collect::<Vec<_>>();
        for k in [1, 7, 8, 48] {
            for &m in &dims {
                let a = filled(m * k, (m * k) as u64);
                let mut ap = vec![0.0; pack::packed_len(m, k)];
                pack::pack_rows(&mut ap, &a, k, m, k);
                for &n in &dims {
                    let b = filled(n * k, (n + k) as u64);
                    let mut bp = vec![0.0; pack::packed_len(n, k)];
                    pack::pack_rows(&mut bp, &b, k, n, k);
                    let ldc = n + 3;
                    let c0 = filled(m * ldc, 21);
                    for mode in [Mode::Sub, Mode::Set] {
                        let (mut c, mut c_pre) = (c0.clone(), c0.clone());
                        pack::gemm_abt_packed(
                            mode, &mut c, ldc, &a, k, &b, k, m, n, k, arena.packs(),
                        );
                        pack::gemm_prepacked(mode, &mut c_pre, ldc, &ap, &bp, m, n, k);
                        assert_eq!(bits(&c_pre), bits(&c), "gemm {mode:?} m={m} n={n} k={k}");
                    }
                }
                let ldc = m + 2;
                let c0 = filled(m * ldc, 22);
                for mode in [Mode::Sub, Mode::Set] {
                    let (mut c, mut c_pre) = (c0.clone(), c0.clone());
                    pack::syrk_lt_packed(mode, &mut c, ldc, &a, k, m, k, arena.packs());
                    pack::syrk_lt_prepacked(mode, &mut c_pre, ldc, &ap, m, k);
                    assert_eq!(bits(&c_pre), bits(&c), "syrk {mode:?} n={m} k={k}");
                }
            }
        }
    }

    /// What every register tile must compute for one element of `C`, spelt
    /// out in scalars: per `KC` panel an ascending-`k` FMA chain from zero,
    /// written back once — `Sub` subtracts every panel, `Set` stores the first
    /// and adds the rest. `prod[i][j]` holds the chains of `a` row `i` against
    /// `b` row `j`, which depend on nothing else (not on `m`, `n` or the
    /// tile the element lands in).
    fn chains(a: &[f64], b: &[f64], rows: usize, k: usize) -> Vec<Vec<f64>> {
        let fma = |x: f64, y: f64, acc: f64| {
            if cfg!(target_feature = "fma") {
                x.mul_add(y, acc)
            } else {
                x * y + acc
            }
        };
        (0..rows * rows)
            .map(|ij| {
                let (ai, bj) = (&a[ij / rows * k..][..k], &b[ij % rows * k..][..k]);
                ai.chunks(KC).zip(bj.chunks(KC)).map(|(x, y)| {
                    x.iter().zip(y).fold(0.0, |acc, (&x, &y)| fma(x, y, acc))
                })
                .collect()
            })
            .collect()
    }

    fn write_back(mode: Mode, c: f64, chain: &[f64]) -> f64 {
        match (mode, chain.split_first()) {
            (Mode::Sub, _) => chain.iter().fold(c, |c, p| c - p),
            (Mode::Set, Some((first, rest))) => rest.iter().fold(*first, |c, p| c + p),
            (Mode::Set, None) => 0.0,
        }
    }

    /// The compiled tile against the scalar definition, bit for bit, for
    /// every `m, n ≤ 40`: all edge widths of an 8-, 16- or wider tile, `k`
    /// around the micro-panel depth and past `KC` (so `Set`, `Sub` and the
    /// `Add` continuation are all written). `C` is a view with `ldc > n` whose
    /// gap cells are NaN — as are, under `Set`, the cells to be written — so a
    /// masked store one lane too wide, or a load `Set` must not make, fails.
    /// Run under both compilations of the tile (see the verify skill), this
    /// is what makes them one function.
    #[test]
    fn gemm_tile_is_bit_equal_to_scalar_chains_and_keeps_its_footprint() {
        let rows = 40;
        let mut arena = KernelArena::new();
        for k in [0, 1, 7, 8, 9, 48, KC + 5] {
            let a = filled(rows * k, 31 + k as u64);
            let b = filled(rows * k, 32 + k as u64);
            let prod = chains(&a, &b, rows, k);
            for m in 1..=rows {
                for n in 1..=rows {
                    let ldc = n + 1 + (m + n) % 3;
                    for mode in [Mode::Sub, Mode::Set] {
                        let mut c0 = vec![f64::NAN; m * ldc];
                        if mode == Mode::Sub {
                            for i in 0..m {
                                c0[i * ldc..i * ldc + n].copy_from_slice(&filled(n, (i * n) as u64));
                            }
                        }
                        let mut c = c0.clone();
                        pack::gemm_abt_packed(
                            mode, &mut c, ldc, &a, k, &b, k, m, n, k, arena.packs(),
                        );
                        for (t, (&got, &was)) in c.iter().zip(&c0).enumerate() {
                            let (i, j) = (t / ldc, t % ldc);
                            let want =
                                if j < n { write_back(mode, was, &prod[i * rows + j]) } else { was };
                            assert_eq!(
                                got.to_bits(),
                                want.to_bits(),
                                "{mode:?} m={m} n={n} k={k} ({i},{j}): {got} vs {want}"
                            );
                        }
                    }
                }
            }
        }
    }

    /// Same for the symmetric update, whose tiles meet the diagonal at every
    /// offset a caller produces: `n ≤ 40` puts it at each multiple of `MR`
    /// inside one block, `n > MC` and `n > NC` start row and column blocks
    /// away from it. The strict upper triangle is part of the canary.
    #[test]
    fn syrk_tile_is_bit_equal_to_scalar_chains_and_keeps_its_footprint() {
        let mut arena = KernelArena::new();
        let shapes = (1..=40)
            .flat_map(|n| [0, 1, 7, 8, 9, 48, KC + 5].map(|k| (n, k)))
            .chain([(MC + 1, 9), (MC + MR + 3, KC + 5), (2 * MC + 3, 8), (NC + MR + 1, 3)]);
        for (n, k) in shapes {
            let a = filled(n * k, 41 + (n * k) as u64);
            let prod = chains(&a, &a, n, k);
            let ldc = n + 1 + n % 3;
            for mode in [Mode::Sub, Mode::Set] {
                let mut c0 = vec![f64::NAN; n * ldc];
                if mode == Mode::Sub {
                    for i in 0..n {
                        c0[i * ldc..i * ldc + i + 1].copy_from_slice(&filled(i + 1, (i + n) as u64));
                    }
                }
                let mut c = c0.clone();
                pack::syrk_lt_packed(mode, &mut c, ldc, &a, k, n, k, arena.packs());
                for (t, (&got, &was)) in c.iter().zip(&c0).enumerate() {
                    let (i, j) = (t / ldc, t % ldc);
                    let want = if j <= i { write_back(mode, was, &prod[i * n + j]) } else { was };
                    assert_eq!(
                        got.to_bits(),
                        want.to_bits(),
                        "{mode:?} n={n} k={k} ({i},{j}): {got} vs {want}"
                    );
                }
            }
        }
    }

    /// Padding lanes never reach storage: poison them with NaN after
    /// packing, run every packed kernel over the panels, and no NaN comes
    /// out — nor is anything outside the real rows written.
    #[test]
    fn nan_poisoned_padding_never_reaches_storage() {
        for (rows, kc) in [(1, 1), (3, 5), (8, 8), (11, 7), (21, 48), (47, 16)] {
            let src = filled(rows * kc, (rows * kc) as u64);
            let mut xp = vec![0.0; pack::packed_len(rows, kc)];
            pack::pack_rows(&mut xp, &src, kc, rows, kc);
            let h = rows % MR;
            if h != 0 {
                let last = xp.len() - kc * MR;
                for group in xp[last..].chunks_exact_mut(MR) {
                    group[h..].fill(f64::NAN);
                }
            }
            // Round trip into a wider, sentinel-filled view.
            let ld = kc + 2;
            let mut back = vec![-7.0; (rows + 1) * ld];
            pack::unpack_rows(&mut back, ld, &xp, rows, kc);
            for r in 0..rows {
                assert_eq!(back[r * ld..r * ld + kc], src[r * kc..(r + 1) * kc]);
                assert_eq!(back[r * ld + kc..(r + 1) * ld], [-7.0; 2]);
            }
            assert!(back[rows * ld..].iter().all(|&v| v == -7.0), "row past the end written");
            // Products out of the poisoned pack.
            let mut c = vec![1.0; rows * rows];
            pack::gemm_prepacked(Mode::Sub, &mut c, rows, &xp, &xp, rows, rows, kc);
            assert!(c.iter().all(|v| v.is_finite()), "gemm rows={rows} kc={kc}");
            let mut c = vec![1.0; rows * rows];
            pack::syrk_lt_prepacked(Mode::Set, &mut c, rows, &xp, rows, kc);
            assert!(c.iter().all(|v| v.is_finite()), "syrk rows={rows} kc={kc}");
            // The solve keeps poison in its own lane.
            let mut l = spd(kc);
            reference::potrf(&mut l, kc).unwrap();
            pack::trsm_packed(&l, kc, kc, &mut xp);
            let mut solved = vec![0.0; rows * kc];
            pack::unpack_rows(&mut solved, kc, &xp, rows, kc);
            assert!(solved.iter().all(|v| v.is_finite()), "trsm rows={rows} kc={kc}");
        }
    }

    proptest! {
        #![proptest_config(ProptestConfig { cases: 64, ..ProptestConfig::default() })]

        /// Random dims across the dispatch threshold: the public
        /// size-dispatched entry points must agree with the reference
        /// whichever path they take.
        #[test]
        fn dispatched_gemm_matches_reference(
            m in 0usize..40,
            n in 0usize..40,
            k in 0usize..70,
            seed in any::<u32>(),
        ) {
            let mut arena = KernelArena::new();
            let a = filled(m * k, seed as u64);
            let b = filled(n * k, seed as u64 ^ 0xabcd);
            let c0 = filled(m * n, seed as u64 ^ 0x1234);
            let mut c_ref = c0.clone();
            reference::gemm_abt_sub(&mut c_ref, &a, &b, m, n, k);
            let mut c = c0.clone();
            kernels::gemm_abt_sub_with(&mut c, &a, &b, m, n, k, &mut arena);
            for i in 0..m * n {
                prop_assert!((c[i] - c_ref[i]).abs() < 1e-10, "idx {}", i);
            }
        }

        /// Same for the symmetric update, which must stay bitwise-consistent
        /// with GEMM on the lower triangle in both the packed and the
        /// reference pairing (the BMOD scatter relies on this agreement).
        #[test]
        fn dispatched_syrk_matches_reference(
            n in 0usize..40,
            k in 0usize..70,
            seed in any::<u32>(),
        ) {
            let mut arena = KernelArena::new();
            let a = filled(n * k, seed as u64 | 1);
            let c0 = filled(n * n, (seed as u64) << 1);
            let mut c_ref = c0.clone();
            reference::syrk_lt_sub(&mut c_ref, &a, n, k);
            let mut c = c0.clone();
            kernels::syrk_lt_sub_with(&mut c, &a, n, k, &mut arena);
            for i in 0..n {
                for j in 0..=i {
                    prop_assert!(
                        (c[i * n + j] - c_ref[i * n + j]).abs() < 1e-10,
                        "({}, {})", i, j
                    );
                }
                for j in (i + 1)..n {
                    prop_assert_eq!(c[i * n + j], c0[i * n + j]);
                }
            }
        }
    }
}
