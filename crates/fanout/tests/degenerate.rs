//! Degenerate problem shapes pushed through both numeric drivers
//! (sequential, work-stealing scheduler): empty and 1×1 matrices, far more
//! virtual processors than blocks, and a single-supernode factor. None of
//! these may hang, panic, or disagree with the sequential factor.

use blockmat::{BlockMatrix, BlockWork, WorkModel};
use fanout::{factorize_sched_opts, factorize_seq, NumericFactor, Plan, SchedOptions};
use mapping::Assignment;
use std::sync::Arc;
use symbolic::AmalgamationOpts;

/// Builds the factor/plan pair straight from a matrix in natural order
/// (no fill-reducing permutation), so tiny hand-made matrices keep their
/// column numbering.
fn prepared_natural(a: &sparsemat::SymCscMatrix, bs: usize, p: usize) -> (NumericFactor, Plan) {
    let parent = symbolic::etree(a.pattern());
    let counts = symbolic::col_counts(a.pattern(), &parent);
    let sn = symbolic::Supernodes::compute(a.pattern(), &parent, &counts, &AmalgamationOpts::default());
    let bm = Arc::new(BlockMatrix::build(sn, bs));
    let w = BlockWork::compute(&bm, &WorkModel::default());
    let asg = Assignment::cyclic(&bm, &w, p);
    let plan = Plan::build(&bm, &asg);
    let f = NumericFactor::from_matrix(bm, a);
    (f, plan)
}

fn through_all_executors(a: &sparsemat::SymCscMatrix, bs: usize, p: usize, what: &str) {
    let (f0, plan) = prepared_natural(a, bs, p);
    let mut f_seq = f0.clone();
    factorize_seq(&mut f_seq).unwrap_or_else(|e| panic!("{what}: seq failed: {e}"));
    let (_, _, v_seq) = f_seq.to_csc();

    let mut f_sched = f0.clone();
    factorize_sched_opts(&mut f_sched, &plan, &SchedOptions::default())
        .unwrap_or_else(|e| panic!("{what}: sched failed: {e}"));
    let (_, _, v_sched) = f_sched.to_csc();
    assert_eq!(v_seq.len(), v_sched.len(), "{what}: sched factor size");
    for (i, (x, y)) in v_seq.iter().zip(&v_sched).enumerate() {
        assert!(x.to_bits() == y.to_bits(), "{what}: sched entry {i}: {x:e} vs {y:e}");
    }
}

#[test]
fn empty_matrix() {
    let a = sparsemat::SymCscMatrix::from_coords(0, &[]).unwrap();
    through_all_executors(&a, 4, 1, "0x0");
    through_all_executors(&a, 4, 4, "0x0 p=4");
}

#[test]
fn one_by_one_matrix() {
    let a = sparsemat::SymCscMatrix::from_coords(1, &[(0, 0, 9.0)]).unwrap();
    through_all_executors(&a, 4, 1, "1x1");
    let (mut f, _) = prepared_natural(&a, 4, 1);
    factorize_seq(&mut f).unwrap();
    let (_, _, v) = f.to_csc();
    assert_eq!(v, vec![3.0]);
}

#[test]
fn far_more_processors_than_blocks() {
    // grid2d(4) has 16 columns and only a handful of blocks at bs=8; a
    // 64-vproc plan leaves most processors with nothing to do.
    let prob = sparsemat::gen::grid2d(4);
    let perm = ordering::order_problem(&prob);
    let analysis = symbolic::analyze(prob.matrix.pattern(), &perm, &AmalgamationOpts::default());
    let pa = analysis.perm.apply_to_matrix(&prob.matrix);
    through_all_executors(&pa, 8, 64, "p >> blocks");
}

#[test]
fn single_supernode_dense_matrix() {
    // A dense matrix amalgamates into one supernode; with bs larger than n
    // the whole factor is a single diagonal block — one task, no updates.
    let prob = sparsemat::gen::dense(12);
    through_all_executors(&prob.matrix, 64, 4, "single supernode");
}

#[test]
fn single_column_chain() {
    // Tridiagonal path: deep elimination-tree chain, every panel depends on
    // its predecessor — minimal concurrency, maximal wakeup traffic.
    let edges: Vec<(u32, u32, f64)> = (0..19).map(|i| (i, i + 1, 1.0)).collect();
    let a = sparsemat::gen::spd_from_edges(20, &edges);
    through_all_executors(&a, 3, 4, "chain");
}
