//! Property tests for the plan-reuse layer: sessions, workspaces, and the
//! plan cache must reproduce the one-shot pipeline bit for bit.
//!
//! The reuse hot path replaces symbolic walks with precomputed scatter and
//! gather maps, so the invariant is exact: same input values in, same
//! factor and solution bits out — across executors (sequential and
//! scheduled), with amalgamation on or off, for single and batched
//! right-hand sides, and through the structure-keyed plan cache.

use block_fanout_cholesky::core::{
    AmalgamationOpts, PlanCache, SchedOptions, SolveWorkspace, Solver, SolverOptions,
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

fn opts(bs: usize, amalg: bool) -> SolverOptions {
    let mut o = SolverOptions { block_size: bs, ..Default::default() };
    o.analyze.amalg = if amalg {
        AmalgamationOpts::default()
    } else {
        AmalgamationOpts::off()
    };
    o
}

/// A second SPD value set on the same pattern: scaled, with an inflated
/// diagonal.
fn perturbed_values(a: &SymCscMatrix) -> Vec<f64> {
    let p = a.pattern();
    let mut out = a.values().to_vec();
    for j in 0..p.n() {
        for (e, &i) in p.col(j).iter().enumerate() {
            let at = p.col_ptr()[j] + e;
            out[at] *= 1.25;
            if i as usize == j {
                out[at] += 1.5;
            }
        }
    }
    out
}

fn csc_bits(f: &block_fanout_cholesky::core::NumericFactor) -> Vec<u64> {
    let (_, _, v) = f.to_csc();
    v.iter().map(|x| x.to_bits()).collect()
}

proptest! {
    #![proptest_config(ProptestConfig { cases: 24, ..ProptestConfig::default() })]

    /// `refactor` on a session must equal a fresh analyze + assemble +
    /// factor of the same values, bitwise — for both executors and with
    /// amalgamation on or off. Two rounds of values per case prove the
    /// session's buffers are fully reset between refactorizations.
    #[test]
    fn refactor_is_bit_identical_to_fresh_pipeline(
        a in arb_spd(36),
        bs in 1usize..8,
        amalg in any::<bool>(),
        sched in any::<bool>(),
    ) {
        let o = opts(bs, amalg);
        let solver = Solver::analyze(&a, &o);
        let mut session = if sched {
            let asg = solver.assign_cyclic(4);
            solver.session_sched(&asg, &SchedOptions::default())
        } else {
            solver.session()
        };
        for values in [a.values().to_vec(), perturbed_values(&a)] {
            let m = SymCscMatrix::new(a.pattern().clone(), values.clone()).unwrap();
            // Fresh pipeline on the same values: full re-analysis (minimum
            // degree is a deterministic function of the pattern, so the
            // fresh solver reproduces the same plan) and a fresh factor.
            let fresh = Solver::analyze(&m, &o);
            let f = fresh.factor_seq().expect("SPD by construction");
            session.refactor(&values).expect("SPD by construction");
            prop_assert_eq!(csc_bits(session.factor()), csc_bits(&f));

            // And the session solve equals the one-shot solve, bitwise.
            let b: Vec<f64> = (0..a.n()).map(|i| 1.0 + (i as f64 * 0.4).sin()).collect();
            let want = fresh.solve(&f, &b);
            let got = session.resolve(&b);
            for (g, w) in got.iter().zip(&want) {
                prop_assert_eq!(g.to_bits(), w.to_bits());
            }
        }
    }

    /// Batched solves stream the factor once for all lanes but must keep
    /// each lane's operation sequence — and therefore its bits — identical
    /// to a looped single-RHS solve: for batch sizes on both sides of the
    /// 8-lane chunk, on sequential and scheduled sessions.
    #[test]
    fn resolve_many_is_bit_identical_to_looped_resolve(
        a in arb_spd(36),
        bs in 1usize..8,
    ) {
        let solver = Solver::analyze(&a, &opts(bs, true));
        let asg = solver.assign_cyclic(4);
        let n = a.n();
        let rhs: Vec<Vec<f64>> = (0..17)
            .map(|r| (0..n).map(|i| ((i * (r + 2)) as f64 * 0.13).cos()).collect())
            .collect();
        for mut session in [solver.session(), solver.session_sched(&asg, &SchedOptions::default())] {
            session.refactor(a.values()).expect("SPD by construction");
            for k in [1, 7, 8, 9, 17] {
                let refs: Vec<&[f64]> = rhs[..k].iter().map(|v| v.as_slice()).collect();
                let many = session.resolve_many(&refs);
                prop_assert_eq!(many.len(), k);
                for (r, x) in many.iter().enumerate() {
                    let single = session.resolve(&rhs[r]);
                    for (g, w) in x.iter().zip(&single) {
                        prop_assert_eq!(g.to_bits(), w.to_bits());
                    }
                }
            }
        }
    }

    /// The workspace-taking solve paths must give the same bits on warm
    /// buffers as on fresh ones.
    #[test]
    fn workspace_solves_match_allocating_solves(
        a in arb_spd(36),
        bs in 1usize..8,
    ) {
        let solver = Solver::analyze(&a, &opts(bs, true));
        let f = solver.factor_seq().expect("SPD by construction");
        let n = a.n();
        let b: Vec<f64> = (0..n).map(|i| (i as f64 * 0.21).sin() - 0.5).collect();
        let mut ws = SolveWorkspace::new();

        let want = solver.solve(&f, &b);
        let mut got = vec![0.0; n];
        // Twice through the same workspace: the second call runs on warm
        // buffers and must not be affected by the first.
        for _ in 0..2 {
            solver.solve_into(&f, &b, &mut ws, &mut got);
            for (g, w) in got.iter().zip(&want) {
                prop_assert_eq!(g.to_bits(), w.to_bits());
            }
        }

        let (want_x, want_r) = solver.solve_refined(&a, &f, &b, 2, &mut SolveWorkspace::new());
        let (got_x, got_r) = solver.solve_refined(&a, &f, &b, 2, &mut ws);
        prop_assert_eq!(got_r.to_bits(), want_r.to_bits());
        for (g, w) in got_x.iter().zip(&want_x) {
            prop_assert_eq!(g.to_bits(), w.to_bits());
        }
    }

    /// A plan-cache hit must behave exactly like a fresh analysis: same
    /// factor bits, one shared plan.
    #[test]
    fn plan_cache_hit_is_equivalent_to_fresh_analysis(
        a in arb_spd(30),
        bs in 1usize..6,
    ) {
        let o = opts(bs, true);
        let cache = PlanCache::new();
        let s1 = cache.solver_for(&a, &o);
        // New values, same structure: hit.
        let m = SymCscMatrix::new(a.pattern().clone(), perturbed_values(&a)).unwrap();
        let s2 = cache.solver_for(&m, &o);
        prop_assert_eq!(cache.hits(), 1);
        prop_assert_eq!(cache.misses(), 1);
        prop_assert!(std::sync::Arc::ptr_eq(&s1.plan, &s2.plan));
        let fresh = Solver::analyze(&m, &o);
        let f_cached = s2.factor_seq().expect("SPD by construction");
        let f_fresh = fresh.factor_seq().expect("SPD by construction");
        prop_assert_eq!(csc_bits(&f_cached), csc_bits(&f_fresh));
    }
}

/// Eviction pressure on a bounded plan cache must never invalidate live
/// sessions: a solver holding an evicted plan's `Arc` keeps factoring
/// bit-identically, and a re-request of the evicted structure rebuilds a
/// fresh (non-identical) plan that produces the same bits.
#[test]
fn plan_cache_eviction_keeps_live_sessions_valid() {
    let cache = PlanCache::with_capacity(2);
    let o = opts(4, true);
    let problems: Vec<_> = (6..11).map(gen::grid2d).collect();

    // Analyze the first structure and keep a live session on its plan.
    let s0 = cache.solver_for(&problems[0].matrix, &o);
    let plan0 = s0.plan.clone();
    let mut session = s0.session();
    session.refactor(problems[0].matrix.values()).unwrap();
    let bits_before = csc_bits(session.factor());

    // Flood the cache with other structures until plan 0 is evicted.
    for p in &problems[1..] {
        let _ = cache.solver_for(&p.matrix, &o);
    }
    assert_eq!(cache.len(), 2, "capacity bound holds");
    assert!(cache.evictions() >= 3, "evictions counted: {}", cache.evictions());

    // The live session is untouched by eviction: same plan Arc, same bits.
    assert!(std::sync::Arc::ptr_eq(session.plan(), &plan0));
    session.refactor(problems[0].matrix.values()).unwrap();
    assert_eq!(csc_bits(session.factor()), bits_before);

    // Re-requesting the evicted structure is a miss that rebuilds an
    // equivalent plan: a different allocation, identical factor bits.
    let hits_before = cache.hits();
    let s0_again = cache.solver_for(&problems[0].matrix, &o);
    assert_eq!(cache.hits(), hits_before, "evicted structure cannot hit");
    assert!(!std::sync::Arc::ptr_eq(&s0_again.plan, &plan0));
    let f = s0_again.factor_seq().unwrap();
    assert_eq!(csc_bits(&f), bits_before);
}

/// Concurrent sessions over one shared plan must not interfere: every
/// thread factors its own value set and gets its own correct bits.
#[test]
fn concurrent_sessions_share_a_plan_without_interference() {
    let p = gen::grid2d(8);
    let problem = Problem::new("shared", p.matrix.clone(), None, gen::OrderingHint::MinimumDegree);
    let solver = Solver::analyze_problem(&problem, &opts(4, true));
    let n = p.n();

    // Per-thread value sets and their expected factor bits (computed
    // serially first).
    let sets: Vec<Vec<f64>> = (0..4)
        .map(|t| {
            let mut v = p.matrix.values().to_vec();
            let pat = p.matrix.pattern();
            for j in 0..pat.n() {
                let at = pat.col_ptr()[j];
                v[at] += t as f64; // diagonal comes first in each column
            }
            v
        })
        .collect();
    let expected: Vec<Vec<u64>> = sets
        .iter()
        .map(|v| {
            let mut s = solver.session();
            s.refactor(v).unwrap();
            csc_bits(s.factor())
        })
        .collect();

    std::thread::scope(|scope| {
        for (v, want) in sets.iter().zip(&expected) {
            let solver = &solver;
            scope.spawn(move || {
                let mut s = solver.session();
                for _ in 0..3 {
                    s.refactor(v).unwrap();
                    assert_eq!(csc_bits(s.factor()), *want);
                    let b = vec![1.0; n];
                    let x = s.resolve(&b);
                    assert!(x.iter().all(|f| f.is_finite()));
                }
            });
        }
    });
}
