//! Property-based tests for the block decomposition and work model.

use blockmat::{for_each_bmod, BlockMatrix, BlockPolicy, BlockWork, WorkModel};
use proptest::prelude::*;
use sparsemat::Problem;
use symbolic::AmalgamationOpts;

fn arb_bm(max_n: usize) -> impl Strategy<Value = BlockMatrix> {
    (3usize..max_n, 1usize..7, proptest::collection::vec((0u32..900, 0u32..900), 0..100))
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
            BlockMatrix::build(analysis.supernodes, bs)
        })
}

proptest! {
    #![proptest_config(ProptestConfig { cases: 48, ..ProptestConfig::default() })]

    #[test]
    fn blocks_partition_the_column_structure(bm in arb_bm(60)) {
        for j in 0..bm.num_panels() {
            let col = &bm.cols[j];
            // First block is the diagonal; row panels strictly ascend.
            prop_assert_eq!(col.blocks[0].row_panel as usize, j);
            for w in col.blocks.windows(2) {
                prop_assert!(w[0].row_panel < w[1].row_panel);
                prop_assert!(w[0].hi <= w[1].lo);
            }
            // Rows of each block land inside their panel's column range and
            // are globally sorted.
            for b in &col.blocks {
                let range = bm.partition.cols(b.row_panel as usize);
                let rows = bm.block_rows(j, b);
                for w in rows.windows(2) {
                    prop_assert!(w[0] < w[1]);
                }
                for &r in rows {
                    prop_assert!(range.contains(&(r as usize)));
                }
            }
        }
    }

    #[test]
    fn bmod_destinations_always_exist_and_dims_match(bm in arb_bm(50)) {
        for_each_bmod(&bm, |op| {
            let db = bm.find_block(op.i as usize, op.j as usize).expect("dest");
            let dest = bm.cols[op.j as usize].blocks[db];
            // Destination rows must contain the left source's rows.
            let a_rows = bm.block_rows(
                op.k as usize,
                &bm.cols[op.k as usize].blocks[op.src_a as usize],
            );
            let d_rows = bm.block_rows(op.j as usize, &dest);
            let mut cursor = 0usize;
            for &r in a_rows {
                while cursor < d_rows.len() && d_rows[cursor] < r {
                    cursor += 1;
                }
                assert!(cursor < d_rows.len() && d_rows[cursor] == r,
                    "row {r} missing in destination");
            }
        });
    }

    #[test]
    fn work_model_conserves_and_scales_with_fixed_cost(bm in arb_bm(50)) {
        let w0 = BlockWork::compute(&bm, &WorkModel { fixed_op_cost: 0 });
        let w1000 = BlockWork::compute(&bm, &WorkModel { fixed_op_cost: 1000 });
        prop_assert_eq!(w0.num_ops, w1000.num_ops);
        prop_assert_eq!(w0.total_flops, w1000.total_flops);
        prop_assert_eq!(w1000.total, w0.total + 1000 * w0.num_ops);
        prop_assert_eq!(w0.row_work.iter().sum::<u64>(), w0.total);
        prop_assert_eq!(w0.col_work.iter().sum::<u64>(), w0.total);
    }

    #[test]
    fn stored_elements_match_supernodal_nnz_without_amalgamation(
        n in 4usize..40,
        bs in 1usize..6,
        raw in proptest::collection::vec((0u32..900, 0u32..900), 0..60),
    ) {
        let edges: Vec<(u32, u32, f64)> = raw
            .into_iter()
            .map(|(a, b)| (a % n as u32, b % n as u32, 1.0))
            .filter(|(a, b, _)| a != b)
            .collect();
        let a = sparsemat::gen::spd_from_edges(n, &edges);
        let prob = Problem::new("prop", a, None, sparsemat::gen::OrderingHint::MinimumDegree);
        let perm = ordering::order_problem(&prob);
        let analysis = symbolic::analyze(prob.matrix.pattern(), &perm, &AmalgamationOpts::off());
        let nnz = analysis.supernodes.total_nnz();
        let bm = BlockMatrix::build(analysis.supernodes, bs);
        prop_assert_eq!(bm.stored_elements(), nnz);
    }

    #[test]
    fn panel_depth_is_a_valid_tree_labelling(bm in arb_bm(60)) {
        // Exactly the roots have depth 0 and each panel's depth is one more
        // than its parent panel's.
        let np = bm.num_panels();
        let partition = &bm.partition;
        for p in 0..np {
            let s = partition.sn_of_panel[p] as usize;
            let last_of_sn = partition.first_col[p + 1] as usize == bm.sn.cols(s).end;
            if !last_of_sn {
                prop_assert_eq!(partition.depth[p], partition.depth[p + 1] + 1);
            } else if let Some(&f) =
                bm.sn.rows[s].iter().find(|&&r| r as usize >= bm.sn.cols(s).end)
            {
                let parent = partition.panel_of_col[f as usize] as usize;
                prop_assert_eq!(partition.depth[p], partition.depth[parent] + 1);
            } else {
                prop_assert_eq!(partition.depth[p], 0);
            }
        }
    }
}

/// The update graph against its definition, on the oracle corpus under
/// every block policy with amalgamation on and off: every destination is
/// the block `find_block` finds, each block's source list is exactly the
/// `BMOD`s into it in ascending source column, and the lists together hold
/// every `BMOD` once.
#[test]
fn update_graph_matches_find_block_and_the_enumeration() {
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
        for amalg in [AmalgamationOpts::off(), AmalgamationOpts::default()] {
            let analysis = symbolic::analyze(p.matrix.pattern(), &perm, &amalg);
            for policy in policies {
                let what = format!("{} {policy:?} amalgamation {amalg:?}", p.name);
                let partition =
                    policy.build_partition(&analysis.supernodes, 8, &WorkModel::default());
                let bm = BlockMatrix::from_partition(analysis.supernodes.clone(), partition);
                let upd = bm.updates();
                let mut into: Vec<Vec<(u32, u32, u32)>> = vec![Vec::new(); bm.num_blocks()];
                let mut bmods = 0;
                for_each_bmod(&bm, |op| {
                    let (i, j) = (op.i as usize, op.j as usize);
                    let want = bm.find_block(i, j).expect("BMOD destination exists");
                    assert_eq!(op.dest_b as usize, want, "{what}: destination of {op:?}");
                    let (k, a, b) = (op.k as usize, op.src_a as usize, op.src_b as usize);
                    assert_eq!(upd.dest(k, a, b), want, "{what}: dest({k}, {a}, {b})");
                    into[upd.block_id(j, want)].push((op.k, op.src_a, op.src_b));
                    bmods += 1;
                });
                let mut listed = 0;
                for (id, want) in into.iter().enumerate() {
                    let got = upd.sources(id);
                    assert!(got.windows(2).all(|w| w[0].0 < w[1].0), "{what}: block {id}");
                    assert_eq!(got, &want[..], "{what}: sources of block {id}");
                    listed += got.len();
                }
                assert_eq!(listed, bmods, "{what}");
                assert_eq!(upd.num_updates(), bmods, "{what}");
                assert_eq!(upd.num_blocks(), bm.cols.iter().map(|c| c.blocks.len()).sum());
            }
        }
    }
}
