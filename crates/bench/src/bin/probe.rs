//! Feasibility probe: wall-clock cost of one full-scale simulated
//! factorization, plus a real threaded run on a medium problem.

use cholesky_core::{MachineModel, SchedOptions, Solver, SolverOptions};
use std::time::Instant;

fn main() {
    let which = std::env::args().nth(1).unwrap_or_else(|| "cube".into());
    let p: usize = std::env::args().nth(2).and_then(|s| s.parse().ok()).unwrap_or(64);
    let prob = match which.as_str() {
        "cube" => sparsemat::gen::cube3d(35),
        "cube30" => sparsemat::gen::cube3d(30),
        "grid" => sparsemat::gen::grid2d(300),
        "dense" => sparsemat::gen::dense(2048),
        "bk31" => {
            let suite = sparsemat::gen::scaled_paper_suite(sparsemat::gen::SuiteScale::Full);
            suite.into_iter().find(|p| p.name == "BCSSTK31").unwrap()
        }
        "threaded" => {
            // Real numeric factorization on threads, medium scale.
            let prob = sparsemat::gen::cube3d(15);
            let t0 = Instant::now();
            let solver = Solver::analyze_problem(&prob, &SolverOptions::default());
            println!("analyze: {:.2}s, ops={:.1}M", t0.elapsed().as_secs_f64(), solver.stats().ops as f64 / 1e6);
            let t1 = Instant::now();
            let f1 = solver.factor_seq().unwrap();
            let t_seq = t1.elapsed().as_secs_f64();
            println!("seq factor: {t_seq:.2}s ({:.1} Mflop/s)", solver.stats().ops as f64 / t_seq / 1e6);
            for p in [4usize, 16] {
                let asg = solver.assign_heuristic(p);
                let t2 = Instant::now();
                let (f2, _) = solver.factor_sched(&asg, &SchedOptions::default()).unwrap();
                let t_par = t2.elapsed().as_secs_f64();
                println!(
                    "threaded p={p}: {t_par:.2}s speedup {:.2} residual {:.2e}",
                    t_seq / t_par,
                    solver.residual(&f2)
                );
            }
            let _ = f1;
            return;
        }
        other => panic!("unknown probe {other}"),
    };
    let t0 = Instant::now();
    let solver = Solver::analyze_problem(&prob, &SolverOptions::default());
    println!(
        "{}: analyze {:.2}s, nzL={} ops={:.0}M panels={} blocks={}",
        prob.name,
        t0.elapsed().as_secs_f64(),
        solver.stats().nnz_l,
        solver.stats().ops as f64 / 1e6,
        solver.bm.num_panels(),
        solver.bm.num_blocks(),
    );
    let model = MachineModel::paragon();
    for (name, asg) in [
        ("cyclic", solver.assign_cyclic(p)),
        ("ID/CY ", solver.assign_heuristic(p)),
    ] {
        let t1 = Instant::now();
        let out = solver.simulate(&asg, &model);
        println!(
            "P={p} {name}: sim wall {:.2}s | makespan {:.3}s eff {:.3} perf {:.0} Mflops msgs {}",
            t1.elapsed().as_secs_f64(),
            out.report.makespan_s,
            out.efficiency,
            out.mflops(solver.stats().ops),
            out.report.total_msgs(),
        );
    }
}
