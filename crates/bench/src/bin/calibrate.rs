//! Calibration utility: generates the benchmark suites, runs ordering +
//! symbolic analysis, and prints Table-1-style statistics next to the
//! paper's published values ([`bench::PAPER_MATRIX_STATS`]). Used to tune
//! the synthetic matrix generators.

use std::time::Instant;
use symbolic::AmalgamationOpts;

fn main() {
    let scale = match std::env::args().nth(1).as_deref() {
        Some("full") => sparsemat::gen::SuiteScale::Full,
        Some("medium") => sparsemat::gen::SuiteScale::Medium,
        _ => sparsemat::gen::SuiteScale::Tiny,
    };
    println!(
        "{:<10} {:>8} {:>12} {:>10} | {:>8} {:>12} {:>10} | {:>7} {:>7} {:>6}",
        "name", "n", "nzL", "Mops", "paper n", "paper nzL", "paper Mops", "t_ord", "t_sym", "#sn"
    );
    let mut problems = sparsemat::gen::scaled_paper_suite(scale);
    problems.extend(sparsemat::gen::large_suite(scale));
    for p in &problems {
        let t0 = Instant::now();
        let perm = ordering::order_problem(p);
        let t_ord = t0.elapsed().as_secs_f64();
        let t1 = Instant::now();
        let a = symbolic::analyze(p.matrix.pattern(), &perm, &AmalgamationOpts::default());
        let t_sym = t1.elapsed().as_secs_f64();
        let (pn, pnz, pops) = bench::paper_stats(&p.name).unwrap_or((0, 0, 0.0));
        println!(
            "{:<10} {:>8} {:>12} {:>10.1} | {:>8} {:>12} {:>10.1} | {:>7.2} {:>7.2} {:>6}",
            p.name,
            p.n(),
            a.stats.nnz_l,
            a.stats.ops as f64 / 1e6,
            pn,
            pnz,
            pops,
            t_ord,
            t_sym,
            a.supernodes.count(),
        );
    }
}
