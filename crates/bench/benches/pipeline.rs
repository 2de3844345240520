//! Benchmarks of each pipeline stage: ordering, symbolic analysis, plan
//! construction, numeric factorization (sequential and scheduled), and the
//! discrete-event simulation itself.

use cholesky_core::{MachineModel, Plan, SchedOptions, Solver, SolverOptions};
use criterion::{criterion_group, criterion_main, Criterion};
use std::hint::black_box;
use std::sync::Arc;

fn problem() -> sparsemat::Problem {
    sparsemat::gen::grid2d(40)
}

fn irregular() -> sparsemat::Problem {
    sparsemat::gen::bcsstk_like("bench-bk", 1200, 17)
}

fn bench_ordering(c: &mut Criterion) {
    let grid = problem();
    let irr = irregular();
    let g_grid = sparsemat::Graph::from_pattern(grid.matrix.pattern());
    let g_irr = sparsemat::Graph::from_pattern(irr.matrix.pattern());
    let mut group = c.benchmark_group("ordering");
    group.bench_function("nested_dissection_grid40", |b| {
        b.iter(|| {
            ordering::nested_dissection(
                black_box(&g_grid),
                grid.coords.as_ref().unwrap(),
                &ordering::NdOptions::default(),
            )
        })
    });
    group.bench_function("minimum_degree_bk1200", |b| {
        b.iter(|| ordering::minimum_degree(black_box(&g_irr)))
    });
    group.finish();
}

fn bench_symbolic(c: &mut Criterion) {
    let grid = problem();
    let perm = ordering::order_problem(&grid);
    c.bench_function("symbolic_analyze_grid40", |b| {
        b.iter(|| {
            symbolic::analyze(
                black_box(grid.matrix.pattern()),
                &perm,
                &symbolic::AmalgamationOpts::default(),
            )
        })
    });
}

fn bench_mapping_and_plan(c: &mut Criterion) {
    let grid = problem();
    let solver = Solver::analyze_problem(&grid, &SolverOptions { block_size: 8, ..Default::default() });
    let mut group = c.benchmark_group("mapping");
    group.bench_function("assign_heuristic_p16", |b| {
        b.iter(|| solver.assign_heuristic(black_box(16)))
    });
    let asg = solver.assign_heuristic(16);
    group.bench_function("plan_build_p16", |b| {
        b.iter(|| Plan::build(black_box(&solver.bm), &asg))
    });
    group.bench_function("balance_report", |b| {
        b.iter(|| solver.balance(black_box(&asg)))
    });
    group.finish();
}

fn bench_factorization(c: &mut Criterion) {
    let grid = problem();
    let solver = Arc::new(Solver::analyze_problem(
        &grid,
        &SolverOptions { block_size: 8, ..Default::default() },
    ));
    let mut group = c.benchmark_group("numeric");
    group.sample_size(10);
    group.bench_function("factor_seq_grid40", |b| {
        b.iter(|| solver.factor_seq().unwrap())
    });
    let asg = solver.assign_heuristic(4);
    group.bench_function("factor_sched_p4_grid40", |b| {
        b.iter(|| solver.factor_sched(black_box(&asg), &SchedOptions::default()).unwrap())
    });
    // The premise of block methods: the simplicial column algorithm does
    // the same arithmetic without BLAS-3 blocks and should be slower.
    let f0 = fanout::NumericFactor::from_matrix(solver.bm.clone(), &solver.permuted);
    let (cp, ri, _) = f0.to_csc();
    group.bench_function("factor_simplicial_grid40", |b| {
        b.iter(|| fanout::factorize_simplicial(black_box(&solver.permuted), &cp, &ri).unwrap())
    });
    group.finish();
}

fn bench_simulation(c: &mut Criterion) {
    let grid = problem();
    let solver = Solver::analyze_problem(&grid, &SolverOptions { block_size: 8, ..Default::default() });
    let model = MachineModel::paragon();
    let mut group = c.benchmark_group("simulate");
    for p in [16usize, 64] {
        let asg = solver.assign_heuristic(p);
        group.bench_function(format!("grid40_p{p}"), |b| {
            b.iter(|| solver.simulate(black_box(&asg), &model))
        });
    }
    group.finish();
}

criterion_group! {
    name = benches;
    config = Criterion::default().sample_size(30);
    targets = bench_ordering, bench_symbolic, bench_mapping_and_plan, bench_factorization, bench_simulation
}
criterion_main!(benches);
