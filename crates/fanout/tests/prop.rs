//! Property-based tests for the fan-out executors: protocol invariants and
//! numeric agreement on random SPD problems under random configurations.

use blockmat::{BlockMatrix, BlockPolicy, BlockWork, WorkModel};
use fanout::{NumericFactor, Plan};
use mapping::{Assignment, ColPolicy, Heuristic, ProcGrid, RowPolicy};
use proptest::prelude::*;
use sparsemat::{Problem, SymCscMatrix};
use std::sync::Arc;
use symbolic::AmalgamationOpts;

fn arb_spd(max_n: usize) -> impl Strategy<Value = SymCscMatrix> {
    (3usize..max_n, proptest::collection::vec((0u32..1000, 0u32..1000, 0.2f64..3.0), 0..100))
        .prop_map(|(n, raw)| {
            let edges: Vec<(u32, u32, f64)> = raw
                .into_iter()
                .map(|(a, b, w)| (a % n as u32, b % n as u32, w))
                .filter(|(a, b, _)| a != b)
                .collect();
            sparsemat::gen::spd_from_edges(n, &edges)
        })
}

fn analyzed(a: &SymCscMatrix, bs: usize) -> (Arc<BlockMatrix>, SymCscMatrix, BlockWork) {
    let prob = Problem::new("prop", a.clone(), None, sparsemat::gen::OrderingHint::MinimumDegree);
    let perm = ordering::order_problem(&prob);
    let analysis = symbolic::analyze(a.pattern(), &perm, &AmalgamationOpts::default());
    let pa = analysis.perm.apply_to_matrix(a);
    let bm = Arc::new(BlockMatrix::build(analysis.supernodes, bs));
    let w = BlockWork::compute(&bm, &WorkModel::default());
    (bm, pa, w)
}

proptest! {
    #![proptest_config(ProptestConfig { cases: 24, ..ProptestConfig::default() })]

    #[test]
    fn plan_invariants_hold_for_random_grids(
        a in arb_spd(40),
        bs in 1usize..6,
        pr in 1usize..4,
        pc in 1usize..4,
    ) {
        let (bm, _, w) = analyzed(&a, bs);
        let grid = ProcGrid::new(pr, pc);
        let asg = Assignment::build(
            &bm,
            &w,
            grid,
            RowPolicy::Heuristic(Heuristic::DecreasingWork),
            ColPolicy::Heuristic(Heuristic::Cyclic),
            None,
        );
        let plan = Plan::build(&bm, &asg);
        // CP bound on recipients.
        for id in 0..bm.num_blocks() {
            prop_assert!(plan.recipients(id).len() <= pr + pc);
        }
        // Receives balance sends.
        prop_assert_eq!(plan.expected_recv.iter().sum::<u64>(), plan.send_to.len() as u64);
        // The per-block pending counts (the update graph's source counts)
        // total the BMOD count.
        let mut bmods = 0usize;
        blockmat::for_each_bmod(&bm, |_| bmods += 1);
        let upd = bm.updates();
        let pend: usize = (0..bm.num_blocks()).map(|id| upd.sources(id).len()).sum();
        prop_assert_eq!(pend, bmods);
    }

    #[test]
    fn sched_and_seq_and_sim_agree(
        a in arb_spd(30),
        bs in 1usize..5,
        p in 1usize..6,
    ) {
        let (bm, pa, w) = analyzed(&a, bs);
        let grid = ProcGrid::near_square(p);
        let asg = Assignment::build(
            &bm,
            &w,
            grid,
            RowPolicy::Heuristic(Heuristic::IncreasingDepth),
            ColPolicy::Heuristic(Heuristic::Cyclic),
            None,
        );
        let plan = Plan::build(&bm, &asg);
        // Numerics: scheduled == sequential, bit for bit.
        let mut f_seq = NumericFactor::from_matrix(bm.clone(), &pa);
        fanout::factorize_seq(&mut f_seq).unwrap();
        let mut f_par = NumericFactor::from_matrix(bm.clone(), &pa);
        fanout::factorize_sched(&mut f_par, &plan).unwrap();
        let (_, _, vs) = f_seq.to_csc();
        let (_, _, vp) = f_par.to_csc();
        for (x, y) in vs.iter().zip(&vp) {
            prop_assert!(x.to_bits() == y.to_bits());
        }
        // Simulation completes with sane outcome under both policies.
        let plan = Arc::new(plan);
        let model = simgrid::MachineModel::paragon();
        for policy in [fanout::SimPolicy::DataDriven, fanout::SimPolicy::CriticalPathPriority] {
            let out = fanout::simulate_with_policy(&bm, &plan, &model, policy);
            prop_assert!(out.report.makespan_s > 0.0);
            prop_assert!(out.efficiency > 0.0 && out.efficiency <= 1.0 + 1e-9);
            // Critical path lower-bounds any schedule.
            let cp = fanout::critical_path(&bm, &model);
            prop_assert!(out.report.makespan_s >= cp.length_s * 0.999);
        }
    }

    #[test]
    fn factor_residual_is_small_for_any_structure(a in arb_spd(35), bs in 1usize..6) {
        let (bm, pa, _) = analyzed(&a, bs);
        let mut f = NumericFactor::from_matrix(bm, &pa);
        fanout::factorize_seq(&mut f).unwrap();
        prop_assert!(fanout::residual_norm(&pa, &f) < 1e-10);
    }
}

/// Every lane of the block solve bit-equals the reference substitution on
/// the factor's CSC export, for 1 to 17 interleaved lanes (every lane-chunk
/// split), on the oracle corpus under every block policy with amalgamation
/// on and off. The right-hand sides carry zeros of both signs and negative
/// values.
#[test]
fn solve_in_place_lanes_are_bit_equal_to_solve_csc() {
    const K: usize = 17;
    let problems = [
        sparsemat::gen::grid2d(18),
        sparsemat::gen::cube3d(7),
        sparsemat::gen::bcsstk_like("oracle-bk", 390, 3),
        sparsemat::gen::copter_like("oracle-copter", 390, 5),
        sparsemat::gen::fleet_like("oracle-fleet", 400, 7),
    ];
    let policies =
        [BlockPolicy::Uniform, BlockPolicy::WorkEqualized, BlockPolicy::Rectilinear { sweeps: 2 }];
    for p in &problems {
        let perm = ordering::order_problem(p);
        let n = p.n();
        let rhs: Vec<Vec<f64>> = (0..K)
            .map(|r| {
                (0..n)
                    .map(|i| match (i + r) % 7 {
                        0 => 0.0,
                        1 => -0.0,
                        _ => ((i * 37 + r * 11) % 23) as f64 * 0.125 - 1.25,
                    })
                    .collect()
            })
            .collect();
        for amalg in [AmalgamationOpts::off(), AmalgamationOpts::default()] {
            let analysis = symbolic::analyze(p.matrix.pattern(), &perm, &amalg);
            let pa = analysis.perm.apply_to_matrix(&p.matrix);
            for policy in policies {
                let what = format!("{} {policy:?} amalgamation {amalg:?}", p.name);
                let partition =
                    policy.build_partition(&analysis.supernodes, 8, &WorkModel::default());
                let bm =
                    Arc::new(BlockMatrix::from_partition(analysis.supernodes.clone(), partition));
                let mut f = NumericFactor::from_matrix(bm, &pa);
                fanout::factorize_seq(&mut f).unwrap();
                let (cp, ri, v) = f.to_csc();
                let want: Vec<Vec<f64>> = rhs
                    .iter()
                    .map(|b| {
                        let mut x = b.clone();
                        fanout::solve_csc(&cp, &ri, &v, &mut x);
                        x
                    })
                    .collect();
                let mut gathered = Vec::new();
                for k in 1..=K {
                    let mut x = vec![0.0; n * k];
                    for (r, b) in rhs[..k].iter().enumerate() {
                        for (i, &bi) in b.iter().enumerate() {
                            x[i * k + r] = bi;
                        }
                    }
                    fanout::solve_in_place(&f, &mut x, k, &mut gathered);
                    for (r, w) in want[..k].iter().enumerate() {
                        for (i, wi) in w.iter().enumerate() {
                            assert_eq!(
                                x[i * k + r].to_bits(),
                                wi.to_bits(),
                                "{what}: k={k} lane {r} row {i}"
                            );
                        }
                    }
                }
            }
        }
    }
}
