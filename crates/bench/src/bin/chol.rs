//! Command-line sparse Cholesky solver.
//!
//! ```text
//! chol <matrix.mtx> [options]
//!
//!   --rhs <file>        right-hand side, one value per line (default: A·1)
//!   --out <file>        write the solution, one value per line
//!   -p <N>              virtual processors (default 1 = sequential)
//!   --block-size <B>    block size (default 48)
//!   --mapping <name>    cyclic | heuristic (default heuristic)
//!   --ordering <name>   auto | natural | mindeg | nd (default auto)
//!   --block-policy <p>  uniform | workeq | rect (default uniform)
//!   --simulate          also report a simulated Paragon run at P
//!   --stats             print analysis statistics and balance report
//! ```
//!
//! Reads a symmetric real Matrix Market file, factors it, solves, and
//! reports the relative residual.
//!
//! Exit status: 0 on success, 1 on bad input (unreadable or malformed
//! matrix or right-hand side, an indefinite matrix, an unwritable `--out`
//! file), 2 on a usage error. A `-p` that is not a perfect square is not an
//! error: the run falls back to the most-square processor grid.

use cholesky_core::{
    Assignment, BlockPolicy, ColPolicy, Heuristic, MachineModel, OrderingChoice, ProcGrid,
    RowPolicy, SchedOptions, Solver, SolverError, SolverOptions,
};
use std::io::{BufReader, BufWriter, Write};

struct Opts {
    matrix: String,
    rhs: Option<String>,
    out: Option<String>,
    p: usize,
    block_size: usize,
    mapping: (RowPolicy, ColPolicy),
    ordering: OrderingChoice,
    block_policy: BlockPolicy,
    simulate: bool,
    stats: bool,
}

fn usage() -> ! {
    eprintln!(
        "usage: chol <matrix.mtx> [--rhs f] [--out f] [-p N] [--block-size B] \
         [--mapping cyclic|heuristic] [--ordering auto|natural|mindeg|nd] \
         [--block-policy uniform|workeq|rect] [--simulate] [--stats]"
    );
    std::process::exit(2);
}

/// Reports a bad-input error and exits with status 1.
fn fail(msg: impl std::fmt::Display) -> ! {
    eprintln!("{msg}");
    std::process::exit(1);
}

fn parse() -> Opts {
    let mut o = Opts {
        matrix: String::new(),
        rhs: None,
        out: None,
        p: 1,
        block_size: 48,
        mapping: (
            RowPolicy::Heuristic(Heuristic::IncreasingDepth),
            ColPolicy::Heuristic(Heuristic::Cyclic),
        ),
        ordering: OrderingChoice::Auto,
        block_policy: BlockPolicy::Uniform,
        simulate: false,
        stats: false,
    };
    let mut args = std::env::args().skip(1);
    while let Some(a) = args.next() {
        match a.as_str() {
            "--rhs" => o.rhs = args.next(),
            "--out" => o.out = args.next(),
            "-p" => o.p = args.next().and_then(|s| s.parse().ok()).unwrap_or_else(|| usage()),
            "--block-size" => {
                o.block_size = args.next().and_then(|s| s.parse().ok()).unwrap_or_else(|| usage())
            }
            "--mapping" => {
                o.mapping = match args.next().as_deref() {
                    Some("cyclic") => (
                        RowPolicy::Heuristic(Heuristic::Cyclic),
                        ColPolicy::Heuristic(Heuristic::Cyclic),
                    ),
                    Some("heuristic") => (
                        RowPolicy::Heuristic(Heuristic::IncreasingDepth),
                        ColPolicy::Heuristic(Heuristic::Cyclic),
                    ),
                    Some(other) => {
                        eprintln!("unknown mapping {other}");
                        usage()
                    }
                    None => usage(),
                }
            }
            "--ordering" => {
                o.ordering = match args.next().as_deref() {
                    Some("auto") => OrderingChoice::Auto,
                    Some("natural") => OrderingChoice::Natural,
                    Some("mindeg") => OrderingChoice::MinimumDegree,
                    Some("nd") => OrderingChoice::NestedDissection,
                    _ => usage(),
                }
            }
            "--block-policy" => {
                o.block_policy = match args.next().as_deref() {
                    Some("uniform") => BlockPolicy::Uniform,
                    Some("workeq") => BlockPolicy::WorkEqualized,
                    Some("rect") => BlockPolicy::Rectilinear { sweeps: 2 },
                    _ => usage(),
                }
            }
            "--simulate" => o.simulate = true,
            "--stats" => o.stats = true,
            f if f.starts_with('-') => usage(),
            m if o.matrix.is_empty() => o.matrix = m.to_string(),
            _ => usage(),
        }
    }
    if o.matrix.is_empty() {
        usage();
    }
    o
}

/// The `--mapping` assignment on `p` virtual processors: a square grid, or
/// the most-square grid when `p` is not a perfect square.
fn assignment(solver: &Solver, p: usize, (row, col): (RowPolicy, ColPolicy)) -> Assignment {
    let s = (p as f64).sqrt().round() as usize;
    let grid = if s * s == p {
        ProcGrid::square(p)
    } else {
        eprintln!("note: P = {p} is not a perfect square; using a near-square grid");
        ProcGrid::near_square(p)
    };
    solver.assign_on_grid(grid, row, col)
}

/// The realized panel-width histogram and the padded per-panel work
/// spread: what the active block policy actually did to the partition.
fn print_partition_shape(solver: &Solver) {
    let part = &solver.bm.partition;
    let work = &solver.work;
    let np = part.count();
    let mut hist: std::collections::BTreeMap<usize, usize> = std::collections::BTreeMap::new();
    for p in 0..np {
        *hist.entry(part.width(p)).or_default() += 1;
    }
    let bars: Vec<String> = hist.iter().map(|(w, c)| format!("{w}:{c}")).collect();
    eprintln!(
        "blocking: policy {}, {} panels, nominal B = {}, max width {}",
        solver.opts.block_policy.label(),
        np,
        part.block_size,
        part.max_width()
    );
    eprintln!("  width histogram (width:count): {}", bars.join(" "));
    let max_w = (0..np).map(|j| work.col_work[j] + work.row_work[j]).max().unwrap_or(0);
    let mean_w = if np == 0 {
        0.0
    } else {
        (0..np).map(|j| work.col_work[j] + work.row_work[j]).sum::<u64>() as f64 / np as f64
    };
    eprintln!(
        "  padded work spread: max panel {:.3} Mops, mean {:.3} Mops, max/mean {:.2}",
        max_w as f64 / 1e6,
        mean_w / 1e6,
        if mean_w > 0.0 { max_w as f64 / mean_w } else { 0.0 }
    );
}

fn main() {
    let o = parse();
    let file = std::fs::File::open(&o.matrix)
        .unwrap_or_else(|e| fail(format!("cannot open {}: {e}", o.matrix)));
    let a = sparsemat::io::read_matrix_market(BufReader::new(file))
        .unwrap_or_else(|e| fail(format!("cannot parse {}: {e}", o.matrix)));
    let n = a.n();
    eprintln!("matrix: {n} equations, {} stored entries", a.pattern().nnz());

    let opts = SolverOptions {
        block_size: o.block_size,
        block_policy: o.block_policy,
        ordering: o.ordering,
        ..Default::default()
    };
    let t0 = std::time::Instant::now();
    let solver = Solver::analyze(&a, &opts);
    if o.ordering == OrderingChoice::Auto {
        eprintln!(
            "ordering: auto resolved to {}",
            match solver.resolved_ordering {
                OrderingChoice::NestedDissection => "nested dissection (structure probe)",
                OrderingChoice::MinimumDegree => "minimum degree (structure probe)",
                OrderingChoice::Natural => "natural",
                OrderingChoice::Auto => "auto",
            }
        );
    }
    eprintln!(
        "analysis: NZ(L) = {}, {:.1} Mflops, {} supernodes ({:.2}s)",
        solver.stats().nnz_l,
        solver.stats().ops as f64 / 1e6,
        solver.analysis.supernodes.count(),
        t0.elapsed().as_secs_f64()
    );
    if o.stats {
        let t = &solver.timings;
        eprintln!(
            "phases: probe {:.3}s, order {:.3}s, etree {:.3}s, colcount {:.3}s, \
             supernodes {:.3}s, partition {:.3}s (analyze {:.3}s)",
            t.probe_s,
            t.order_s,
            t.etree_s,
            t.colcount_s,
            t.supernodes_s,
            t.partition_s,
            t.analyze_s()
        );
    }
    if o.stats || o.block_policy != BlockPolicy::Uniform {
        print_partition_shape(&solver);
    }

    let b: Vec<f64> = match &o.rhs {
        Some(path) => std::fs::read_to_string(path)
            .unwrap_or_else(|e| fail(format!("cannot read rhs {path}: {e}")))
            .lines()
            .map(|l| {
                l.trim().parse().unwrap_or_else(|_| fail("rhs file contains a non-numeric line"))
            })
            .collect(),
        None => {
            // Default: b = A·1, so the exact solution is all-ones.
            let ones = vec![1.0; n];
            let mut b = vec![0.0; n];
            a.mul_vec(&ones, &mut b);
            b
        }
    };
    if b.len() != n {
        fail(format!("rhs has {} values but the matrix has {n} equations", b.len()));
    }
    // Create the output before the factorization, so an unwritable path
    // fails in milliseconds rather than after the whole solve.
    let out = o.out.as_ref().map(|path| {
        let f = std::fs::File::create(path)
            .unwrap_or_else(|e| fail(format!("cannot create {path}: {e}")));
        (path, BufWriter::new(f))
    });

    let t1 = std::time::Instant::now();
    let (factor, asg) = if o.p <= 1 {
        (solver.factor_seq().map_err(SolverError::from), None)
    } else {
        let asg = assignment(&solver, o.p, o.mapping);
        let factor = solver.factor_sched(&asg, &SchedOptions::default()).map(|(f, _)| f);
        (factor, Some(asg))
    };
    let factor = factor.unwrap_or_else(|e| fail(format!("error: {e}")));
    eprintln!(
        "factor: {:.2}s ({} virtual processor{}), residual {:.2e}",
        t1.elapsed().as_secs_f64(),
        o.p,
        if o.p == 1 { "" } else { "s" },
        solver.residual(&factor)
    );

    // The factor is bit-identical across drivers, so the solution's bits do
    // not depend on `-p`.
    let x = solver.solve(&factor, &b);

    // Solution quality: ‖A·x − b‖∞ / ‖b‖∞.
    let mut ax = vec![0.0; n];
    a.mul_vec(&x, &mut ax);
    let denom = b.iter().fold(0.0f64, |m, &v| m.max(v.abs())).max(1e-300);
    let err = ax
        .iter()
        .zip(&b)
        .fold(0.0f64, |m, (&p, &q)| m.max((p - q).abs()))
        / denom;
    eprintln!("solve: relative residual {err:.2e}");

    if o.stats {
        if let Some(asg) = &asg {
            let rep = solver.balance(asg);
            let comm = solver.comm(asg);
            eprintln!(
                "balance: overall {:.2} (row {:.2}, col {:.2}, diag {:.2}); comm {} msgs / {} elements",
                rep.overall, rep.row, rep.col, rep.diag, comm.messages, comm.elements
            );
        }
        let cp = solver.critical_path(&MachineModel::paragon());
        eprintln!(
            "critical path: {:.4}s modeled, max speedup {:.1}",
            cp.length_s,
            cp.max_speedup()
        );
    }
    if o.simulate {
        let asg = asg.unwrap_or_else(|| assignment(&solver, o.p, o.mapping));
        let out = solver.simulate(&asg, &MachineModel::paragon());
        eprintln!(
            "simulated Paragon: {:.3}s makespan, efficiency {:.2}, {:.0} Mflops",
            out.report.makespan_s,
            out.efficiency,
            out.mflops(solver.stats().ops)
        );
    }

    if let Some((path, mut w)) = out {
        let written: std::io::Result<()> =
            x.iter().try_for_each(|v| writeln!(w, "{v:.17e}")).and_then(|()| w.flush());
        written.unwrap_or_else(|e| fail(format!("cannot write {path}: {e}")));
        eprintln!("solution written to {path}");
    } else {
        let preview: Vec<String> = x.iter().take(5).map(|v| format!("{v:.6}")).collect();
        eprintln!("x[0..5] = [{}]", preview.join(", "));
    }
}
