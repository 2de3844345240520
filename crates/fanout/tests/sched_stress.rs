//! Randomized interleaving stress tests for the work-stealing scheduler.
//!
//! Each seed perturbs the schedule two ways: steal-victim order is drawn
//! from a seeded RNG, and workers occasionally yield their OS slice between
//! tasks, so successive runs explore genuinely different steal/delivery
//! interleavings. Whatever the interleaving, the factor must be
//! **bit-identical** to the sequential factorization.

use blockmat::{BlockMatrix, BlockWork, WorkModel};
use fanout::{factorize_sched_opts, factorize_seq, NumericFactor, Plan, SchedOptions};
use mapping::Assignment;
use std::sync::Arc;
use symbolic::AmalgamationOpts;

fn prepared(prob: &sparsemat::Problem, bs: usize, p: usize) -> (NumericFactor, Plan) {
    let perm = ordering::order_problem(prob);
    let analysis = symbolic::analyze(prob.matrix.pattern(), &perm, &AmalgamationOpts::default());
    let pa = analysis.perm.apply_to_matrix(&prob.matrix);
    let bm = Arc::new(BlockMatrix::build(analysis.supernodes, bs));
    let w = BlockWork::compute(&bm, &WorkModel::default());
    let asg = Assignment::cyclic(&bm, &w, p);
    let plan = Plan::build(&bm, &asg);
    let f = NumericFactor::from_matrix(bm, &pa);
    (f, plan)
}

fn assert_bit_identical(f_seq: &NumericFactor, f_par: &NumericFactor, what: &str) {
    let (_, _, v_seq) = f_seq.to_csc();
    let (_, _, v_par) = f_par.to_csc();
    assert_eq!(v_seq.len(), v_par.len(), "{what}: factor size differs");
    for (i, (a, b)) in v_seq.iter().zip(&v_par).enumerate() {
        assert!(
            a.to_bits() == b.to_bits(),
            "{what}: entry {i} differs: {a:e} vs {b:e}"
        );
    }
}

fn stress(prob: &sparsemat::Problem, bs: usize, p: usize, workers: usize, what: &str) {
    let (f0, plan) = prepared(prob, bs, p);
    let mut f_seq = f0.clone();
    factorize_seq(&mut f_seq).unwrap();
    for seed in 0..24u64 {
        let mut f_par = f0.clone();
        let opts = SchedOptions {
            workers: Some(workers),
            use_priorities: seed % 3 != 2, // a third of the seeds without priorities
            seed: Some(0x5eed_0000 + seed),
            ..Default::default()
        };
        let stats = factorize_sched_opts(&mut f_par, &plan, &opts).unwrap();
        assert_bit_identical(&f_seq, &f_par, &format!("{what}, seed {seed}"));
        assert_eq!(
            stats.columns_factored as usize,
            f0.bm.num_panels(),
            "{what}, seed {seed}: wrong column count"
        );
    }
}

#[test]
fn grid2d_is_bit_identical_across_interleavings() {
    let prob = sparsemat::gen::grid2d(14);
    stress(&prob, 4, 16, 4, "grid2d(14) p=16 w=4");
}

#[test]
fn bcsstk_like_is_bit_identical_across_interleavings() {
    let prob = sparsemat::gen::bcsstk_like("T", 240, 4);
    stress(&prob, 4, 16, 3, "bcsstk_like p=16 w=3");
}

#[test]
fn many_vprocs_on_few_workers() {
    // p far above the worker count: the scheduler must happily run a
    // 64-processor plan on 4 workers (the decoupling the tentpole is about).
    let prob = sparsemat::gen::grid2d(12);
    let (f0, plan) = prepared(&prob, 3, 64);
    let mut f_seq = f0.clone();
    factorize_seq(&mut f_seq).unwrap();
    for seed in [1u64, 7, 23] {
        let mut f_par = f0.clone();
        let opts =
            SchedOptions { workers: Some(4), use_priorities: true, seed: Some(seed), ..Default::default() };
        let stats = factorize_sched_opts(&mut f_par, &plan, &opts).unwrap();
        assert_eq!(stats.p, 64);
        assert_eq!(stats.workers, 4);
        assert_bit_identical(&f_seq, &f_par, &format!("p=64 on 4 workers, seed {seed}"));
    }
}

#[test]
fn single_worker_matches_too() {
    // Degenerate schedule (pure LIFO, no steals possible) still bit-matches.
    let prob = sparsemat::gen::bcsstk_like("T", 150, 3);
    let (f0, plan) = prepared(&prob, 4, 16);
    let mut f_seq = f0.clone();
    factorize_seq(&mut f_seq).unwrap();
    let mut f_par = f0.clone();
    let opts =
        SchedOptions { workers: Some(1), use_priorities: true, seed: None, ..Default::default() };
    let stats = factorize_sched_opts(&mut f_par, &plan, &opts).unwrap();
    assert_eq!(stats.steals, 0);
    assert_bit_identical(&f_seq, &f_par, "single worker");
}
