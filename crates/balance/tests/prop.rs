//! Property-based tests for balance statistics and communication volume.

use balance::{comm_volume, BalanceReport};
use blockmat::{BlockMatrix, BlockWork, WorkModel};
use mapping::{Assignment, ColPolicy, Heuristic, ProcGrid, RowPolicy};
use proptest::prelude::*;
use sparsemat::Problem;
use symbolic::AmalgamationOpts;

fn arb_setup(max_n: usize) -> impl Strategy<Value = (BlockMatrix, BlockWork)> {
    (4usize..max_n, 1usize..6, proptest::collection::vec((0u32..900, 0u32..900), 0..100))
        .prop_map(|(n, bs, raw)| {
            let edges: Vec<(u32, u32, f64)> = raw
                .into_iter()
                .map(|(a, b)| (a % n as u32, b % n as u32, 1.0))
                .filter(|(a, b, _)| a != b)
                .collect();
            let a = sparsemat::gen::spd_from_edges(n, &edges);
            let prob = Problem::new("prop", a, None, sparsemat::gen::OrderingHint::MinimumDegree);
            let perm = ordering::order_problem(&prob);
            let analysis =
                symbolic::analyze(prob.matrix.pattern(), &perm, &AmalgamationOpts::default());
            let bm = BlockMatrix::build(analysis.supernodes, bs);
            let w = BlockWork::compute(&bm, &WorkModel::default());
            (bm, w)
        })
}

fn arb_grid() -> impl Strategy<Value = ProcGrid> {
    (1usize..4, 1usize..4).prop_map(|(r, c)| ProcGrid::new(r, c))
}

proptest! {
    #![proptest_config(ProptestConfig { cases: 40, ..ProptestConfig::default() })]

    #[test]
    fn balances_in_unit_interval_and_bound_overall(
        (bm, w) in arb_setup(50),
        grid in arb_grid(),
    ) {
        let asg = Assignment::build(
            &bm, &w, grid,
            RowPolicy::Heuristic(Heuristic::DecreasingNumber),
            ColPolicy::Heuristic(Heuristic::Cyclic),
            None,
        );
        let rep = BalanceReport::compute(&bm, &w, &asg);
        for v in [rep.overall, rep.row, rep.col, rep.diag] {
            prop_assert!(v > 0.0 && v <= 1.0 + 1e-12, "{}", v);
        }
        // Without domains, the coarse balances bound the overall balance.
        prop_assert!(rep.overall <= rep.row + 1e-9);
        prop_assert!(rep.overall <= rep.col + 1e-9);
        prop_assert!(rep.overall <= rep.diag + 1e-9);
        prop_assert_eq!(rep.per_proc.iter().sum::<u64>(), w.total);
    }

    #[test]
    fn comm_volume_zero_iff_single_processor((bm, w) in arb_setup(40)) {
        let single = Assignment::build(
            &bm, &w, ProcGrid::new(1, 1),
            RowPolicy::Heuristic(Heuristic::Cyclic),
            ColPolicy::Heuristic(Heuristic::Cyclic),
            None,
        );
        let stats = comm_volume(&bm, &single);
        prop_assert_eq!(stats.messages, 0);
        prop_assert_eq!(stats.elements, 0);
    }

    #[test]
    fn comm_volume_matches_plan_message_count(
        (bm, w) in arb_setup(40),
        grid in arb_grid(),
    ) {
        let asg = Assignment::build(
            &bm, &w, grid,
            RowPolicy::Heuristic(Heuristic::IncreasingDepth),
            ColPolicy::Heuristic(Heuristic::DecreasingWork),
            None,
        );
        let stats = comm_volume(&bm, &asg);
        let plan = fanout::Plan::build(&bm, &asg);
        prop_assert_eq!(stats.messages, plan.send_to.len() as u64);
    }

    #[test]
    fn simulated_message_traffic_matches_comm_volume(
        (bm, w) in arb_setup(35),
        p in 1usize..7,
    ) {
        let grid = ProcGrid::near_square(p);
        let asg = Assignment::build(
            &bm, &w, grid,
            RowPolicy::Heuristic(Heuristic::Cyclic),
            ColPolicy::Heuristic(Heuristic::Cyclic),
            None,
        );
        let stats = comm_volume(&bm, &asg);
        let bm = std::sync::Arc::new(bm);
        let plan = std::sync::Arc::new(fanout::Plan::build(&bm, &asg));
        let out = fanout::simulate(&bm, &plan, &simgrid::MachineModel::paragon());
        prop_assert_eq!(out.report.total_msgs(), stats.messages);
    }

    // comm.rs promises its message counts "agree exactly" with what the
    // protocol executor sends. Exercise that claim against the simulated
    // executor across grid shapes, heuristic mixes, and domain plans.
    #[test]
    fn simulated_message_traffic_matches_comm_volume_everywhere(
        (bm, w) in arb_setup(35),
        grid in arb_grid(),
        heur_ix in 0usize..4,
        use_domains in any::<bool>(),
    ) {
        let heuristics = [
            (Heuristic::Cyclic, Heuristic::Cyclic),
            (Heuristic::DecreasingWork, Heuristic::IncreasingDepth),
            (Heuristic::IncreasingDepth, Heuristic::DecreasingWork),
            (Heuristic::DecreasingNumber, Heuristic::DecreasingNumber),
        ];
        let (rh, ch) = heuristics[heur_ix];
        let domains = use_domains.then(|| {
            mapping::DomainPlan::select(&bm, &w, grid.p(), &mapping::DomainParams::default())
        });
        let asg = Assignment::build(
            &bm, &w, grid,
            RowPolicy::Heuristic(rh),
            ColPolicy::Heuristic(ch),
            domains,
        );
        let stats = comm_volume(&bm, &asg);
        let bm = std::sync::Arc::new(bm);
        let plan = std::sync::Arc::new(fanout::Plan::build(&bm, &asg));
        let out = fanout::simulate(&bm, &plan, &simgrid::MachineModel::paragon());
        prop_assert_eq!(out.report.total_msgs(), stats.messages);
    }
}
