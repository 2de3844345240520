//! Executor invariance and buffer sizing under irregular panel partitions:
//! widths above the nominal block size (via `with_width_fn` or a
//! [`BlockPolicy`]) must factor and solve bit-identically to the
//! sequential reference on every executor.

use blockmat::{BlockMatrix, BlockPartition, BlockPolicy, BlockWork, WorkModel};
use fanout::{NumericFactor, Plan};
use mapping::{Assignment, ColPolicy, Heuristic, ProcGrid, RowPolicy};
use sparsemat::Problem;
use std::sync::Arc;
use symbolic::AmalgamationOpts;

fn analyzed(p: &Problem) -> (symbolic::Analysis, sparsemat::SymCscMatrix) {
    let perm = ordering::order_problem(p);
    let analysis = symbolic::analyze(p.matrix.pattern(), &perm, &AmalgamationOpts::default());
    let pa = analysis.perm.apply_to_matrix(&p.matrix);
    (analysis, pa)
}

fn factor_bits(f: &NumericFactor) -> Vec<u64> {
    let (_, _, v) = f.to_csc();
    v.iter().map(|x| x.to_bits()).collect()
}

/// Runs seq and sched over one fixed partition and asserts both produce
/// bit-identical factors and a small residual.
fn assert_executors_agree(bm: Arc<BlockMatrix>, pa: &sparsemat::SymCscMatrix, procs: usize) {
    let w = BlockWork::compute(&bm, &WorkModel::default());
    let asg = Assignment::build(
        &bm,
        &w,
        ProcGrid::near_square(procs),
        RowPolicy::Heuristic(Heuristic::IncreasingDepth),
        ColPolicy::Heuristic(Heuristic::Cyclic),
        None,
    );
    let plan = Plan::build(&bm, &asg);

    let mut f_seq = NumericFactor::from_matrix(bm.clone(), pa);
    fanout::factorize_seq(&mut f_seq).unwrap();
    let reference = factor_bits(&f_seq);
    assert!(fanout::residual_norm(pa, &f_seq) < 1e-10);

    let mut f_sched = NumericFactor::from_matrix(bm.clone(), pa);
    fanout::factorize_sched(&mut f_sched, &plan).unwrap();
    assert_eq!(factor_bits(&f_sched), reference, "sched != seq");

    // Solves on the seq and sched factors agree bit for bit too.
    let n = pa.n();
    let b: Vec<f64> = (0..n).map(|i| ((i * 29 % 13) as f64) * 0.25 - 1.5).collect();
    let x1 = fanout::solve(&f_seq, &b);
    let x2 = fanout::solve(&f_sched, &b);
    for (u, v) in x1.iter().zip(&x2) {
        assert_eq!(u.to_bits(), v.to_bits());
    }
}

/// Regression for the latent uniform-width assumption: a width_fn that
/// exceeds the nominal must still factor correctly on the scheduled
/// executor, whose kernel arenas are preallocated from a max-dimension
/// estimate. Before `BlockPartition::max_width()` existed, anything sized
/// from `block_size` under-allocated here.
#[test]
fn width_fn_wider_than_nominal_factors_on_every_executor() {
    let p = sparsemat::gen::grid2d(16);
    let (analysis, pa) = analyzed(&p);
    // Nominal 4, but deep supernodes get panels up to 12 wide.
    let partition = BlockPartition::with_width_fn(
        &analysis.supernodes,
        |_, depth| if depth < 3 { 12 } else { 3 },
        4,
    );
    assert!(
        partition.max_width() > partition.block_size,
        "test needs a partition whose true max width {} exceeds the nominal {}",
        partition.max_width(),
        partition.block_size
    );
    let bm = Arc::new(BlockMatrix::from_partition(analysis.supernodes.clone(), partition));
    assert_executors_agree(bm, &pa, 4);
}

/// Every irregular policy yields bit-identical factors across seq and
/// sched for a fixed partition (the executors must be partition-shape
/// agnostic).
#[test]
fn block_policies_factor_bit_identically_across_executors() {
    let p = sparsemat::gen::bcsstk_like("T", 300, 5);
    let (analysis, pa) = analyzed(&p);
    let model = WorkModel::default();
    for policy in [
        BlockPolicy::WorkEqualized,
        BlockPolicy::Rectilinear { sweeps: 2 },
    ] {
        let partition = policy.build_partition(&analysis.supernodes, 8, &model);
        assert!(partition.max_width() <= policy.max_width(8));
        let bm =
            Arc::new(BlockMatrix::from_partition(analysis.supernodes.clone(), partition));
        assert_executors_agree(bm, &pa, 6);
    }
}

/// `max_width()` reports the real maximum, and the uniform policy never
/// exceeds the nominal.
#[test]
fn max_width_matches_partition_contents() {
    let p = sparsemat::gen::grid2d(12);
    let (analysis, _) = analyzed(&p);
    let uni = BlockPartition::new(&analysis.supernodes, 6);
    assert!(uni.max_width() <= 6);
    assert_eq!(uni.max_width(), (0..uni.count()).map(|q| uni.width(q)).max().unwrap());
    let weq = BlockPolicy::WorkEqualized.build_partition(
        &analysis.supernodes,
        6,
        &WorkModel::default(),
    );
    assert_eq!(weq.max_width(), (0..weq.count()).map(|q| weq.width(q)).max().unwrap());
    assert!(weq.max_width() <= 12);
}
