//! Ordering benchmark: graph nested dissection vs minimum degree, the
//! subtree-parallel symbolic analysis, and proportional mapping.
//!
//! For each structure the run compares, all through the coordinate-free
//! graph path ([`ordering::nd_graph()`]):
//!
//! * modeled factor size/flops under minimum degree vs nested dissection;
//! * the `Auto` structure probe's resolution ([`ordering::probe_structure`])
//!   against which ordering actually modeled cheaper;
//! * the balance bound of proportional mapping (PM) on the ND plan against
//!   the best of the DW/IN/DN/ID Cartesian heuristics;
//! * sequential vs subtree-parallel symbolic analysis wall clock at 4
//!   workers (bit-identity is asserted on every sample);
//! * the end-to-end residual of the ND-ordered factorization;
//! * where the ordering layer's own time goes: one probe plus one
//!   dissection through a shared [`ordering::Orderer`], reported per phase
//!   (compress / components / level graph / coarsen / bisect / FM / base /
//!   probe) from the timers its workspace keeps.
//!
//! Writes `BENCH_order.json`. The run is self-gating (full scale; `--quick`
//! records the scale-dependent gates in `skipped_gates` instead):
//!
//! * on at least two structures, ND must cut modeled flops by ≥ 10 % or
//!   improve the balance bound by ≥ 10 % over minimum degree;
//! * the probe must agree with the cheaper-by-modeled-flops ordering on
//!   every structure;
//! * multilevel FM dissection must hold its quality floor: flops ratio
//!   (nd/md) ≤ 0.88 on the grid, ≤ 0.39 on the cube, ≤ 2.0 on every
//!   BCSSTK structure;
//! * PM's balance bound must not lose to the best Section 4 heuristic on
//!   any ND (separator-tree) plan;
//! * parallel analysis must reproduce the sequential analysis bit for bit,
//!   and reach ≥ 1.5× speedup when the host actually has ≥ 4 cores (on
//!   smaller hosts the gate is recorded in `skipped_gates` and the run is
//!   flagged oversubscribed instead — wall-clock speedups under
//!   oversubscription measure contention, not the code);
//! * every ND factorization must solve to a relative residual below 1e-10;
//! * the JSON artifact must validate.
//!
//! ```text
//! ordbench [--json <path>] [--quick]
//! ```

use bench::table::{json_str, TextTable};
use cholesky_core::{
    ColPolicy, Heuristic, OrderingChoice, RowPolicy, Solver, SolverOptions,
};
use sparsemat::gen::SuiteScale;
use std::time::Instant;

struct Row {
    problem: String,
    n: usize,
    nnz: usize,
    md_nnz_l: u64,
    md_ops: u64,
    md_balance: f64,
    nd_nnz_l: u64,
    nd_ops: u64,
    nd_pm_rows: &'static str,
    nd_pm_balance: f64,
    nd_best_heur: &'static str,
    nd_best_heur_balance: f64,
    probe_choice: ordering::ProbeChoice,
    probe_nd_est: f64,
    probe_md_est: f64,
    phases: ordering::OrderPhases,
    seq_analyze_s: f64,
    par_analyze_s: f64,
    subtree_spans: usize,
    residual: f64,
}

impl Row {
    fn flops_ratio(&self) -> f64 {
        self.nd_ops as f64 / self.md_ops as f64
    }

    fn probe_abbrev(&self) -> &'static str {
        match self.probe_choice {
            ordering::ProbeChoice::NestedDissection => "nd",
            ordering::ProbeChoice::MinimumDegree => "md",
        }
    }

    /// True when the probe picked whichever ordering modeled cheaper.
    fn probe_agrees(&self) -> bool {
        let probe_nd = self.probe_choice == ordering::ProbeChoice::NestedDissection;
        probe_nd == (self.nd_ops < self.md_ops)
    }

    fn balance_gain(&self) -> f64 {
        self.nd_pm_balance / self.md_balance
    }

    fn analyze_speedup(&self) -> f64 {
        self.seq_analyze_s / self.par_analyze_s
    }

    /// The headline gate: ND beats minimum degree by ≥ 10 % on modeled
    /// flops, or by ≥ 10 % on the balance bound.
    fn nd_wins(&self) -> bool {
        self.flops_ratio() <= 0.90 || self.balance_gain() >= 1.10
    }
}

/// A finite f64 as a JSON number, a non-finite one (the probe reports an
/// infinite dissection estimate when no separator exists) as `null`.
fn json_f64(v: f64) -> String {
    if v.is_finite() {
        format!("{v:.4e}")
    } else {
        "null".to_string()
    }
}

/// Relative residual `‖b − A x‖∞ / ‖b‖∞` in the original ordering.
fn rel_residual(a: &sparsemat::SymCscMatrix, x: &[f64], b: &[f64]) -> f64 {
    let mut ax = vec![0.0; x.len()];
    a.mul_vec(x, &mut ax);
    let num = ax.iter().zip(b).map(|(a, b)| (a - b).abs()).fold(0.0, f64::max);
    let den = b.iter().map(|v| v.abs()).fold(0.0, f64::max);
    num / den.max(1e-300)
}

fn median(mut times: Vec<f64>) -> f64 {
    times.sort_by(|a, b| a.partial_cmp(b).unwrap());
    times[times.len() / 2]
}

fn run_structure(prob: &sparsemat::Problem, block_size: usize, p: usize, samples: usize) -> Row {
    let a = &prob.matrix;
    let g = sparsemat::Graph::from_pattern(a.pattern());

    // The Auto structure probe, on the pattern alone, and the dissection it
    // would be followed by, sharing one graph, quotient and workspace —
    // what `Solver::analyze` with `OrderingChoice::Auto` does.
    let mut orderer = ordering::Orderer::new(&g);
    let probe = orderer.probe();
    let (nd_perm, tree) = orderer.nd_graph(&ordering::NdGraphOptions::default());
    let phases = orderer.phases();

    // Minimum degree baseline with the paper's recommended ID/CY mapping.
    let md_opts = SolverOptions {
        block_size,
        ordering: OrderingChoice::MinimumDegree,
        ..Default::default()
    };
    let md = Solver::analyze(a, &md_opts);
    let md_balance = md.balance(&md.assign_heuristic(p)).overall;

    // Graph nested dissection (raw-matrix path: no coordinates consulted).
    // PM constrains one dimension (subtree → processor columns,
    // proportional with least-loaded placement and a balance guard):
    // constraining both dimensions would clip each subtree's work into a
    // share² sub-grid of the Cartesian product and forfeit balance by
    // construction. Both PM and the baseline sweep the four non-cyclic row
    // heuristics and keep each side's best, Table 7 style.
    let nd_opts = SolverOptions {
        block_size,
        ordering: OrderingChoice::NestedDissection,
        row_policy: RowPolicy::Heuristic(Heuristic::IncreasingDepth),
        col_policy: ColPolicy::Proportional,
        ..Default::default()
    };
    let nd = Solver::analyze(a, &nd_opts);
    let sweep = [
        Heuristic::DecreasingWork,
        Heuristic::IncreasingNumber,
        Heuristic::DecreasingNumber,
        Heuristic::IncreasingDepth,
    ];
    let (mut nd_pm_rows, mut nd_pm_balance) = ("", f64::MIN);
    let (mut nd_best_heur, mut nd_best_heur_balance) = ("", f64::MIN);
    for h in sweep {
        let pm = nd.balance(&nd.assign(p, RowPolicy::Heuristic(h), ColPolicy::Proportional));
        if pm.overall > nd_pm_balance {
            nd_pm_balance = pm.overall;
            nd_pm_rows = h.abbrev();
        }
        let hh = nd.balance(&nd.assign(p, RowPolicy::Heuristic(h), ColPolicy::Heuristic(h)));
        if hh.overall > nd_best_heur_balance {
            nd_best_heur_balance = hh.overall;
            nd_best_heur = h.abbrev();
        }
    }

    // Sequential vs subtree-parallel symbolic analysis on the ND
    // permutation, timed directly around the symbolic layer so the
    // comparison excludes ordering and partitioning. Every parallel sample
    // is checked bit-identical against the sequential result.
    let workers = 4usize;
    let ranges = tree.parallel_ranges(4 * workers);
    let amalg = md_opts.analyze.amalg;
    let mut seq_times = Vec::new();
    let mut seq_analysis = None;
    for _ in 0..samples {
        let t = Instant::now();
        let (an, _) = symbolic::analyze_timed(a.pattern(), &nd_perm, &amalg);
        seq_times.push(t.elapsed().as_secs_f64());
        seq_analysis = Some(an);
    }
    let seq_analysis = seq_analysis.expect("at least one sample");
    let mut par_times = Vec::new();
    let mut subtree_spans = 0usize;
    for _ in 0..samples {
        let t = Instant::now();
        let (an, _, spans) =
            symbolic::analyze_parallel_timed(a.pattern(), &nd_perm, &amalg, &ranges, workers);
        par_times.push(t.elapsed().as_secs_f64());
        assert!(an == seq_analysis, "{}: parallel analysis diverged", prob.name);
        subtree_spans = spans.len();
    }

    // End-to-end numerics on the ND plan.
    let n = a.n();
    let x_true: Vec<f64> = (0..n).map(|i| 0.5 + ((i * 7 + 3) % 11) as f64 * 0.1).collect();
    let mut b = vec![0.0; n];
    a.mul_vec(&x_true, &mut b);
    let f = nd.factor_seq().expect("SPD by construction");
    let x = nd.solve(&f, &b);

    Row {
        problem: prob.name.clone(),
        n,
        nnz: a.values().len(),
        md_nnz_l: md.stats().nnz_l,
        md_ops: md.stats().ops,
        md_balance,
        nd_nnz_l: nd.stats().nnz_l,
        nd_ops: nd.stats().ops,
        nd_pm_rows,
        nd_pm_balance,
        nd_best_heur,
        nd_best_heur_balance,
        probe_choice: probe.choice,
        probe_nd_est: probe.nd_flops_est,
        probe_md_est: probe.md_flops_est,
        phases,
        seq_analyze_s: median(seq_times),
        par_analyze_s: median(par_times),
        subtree_spans,
        residual: rel_residual(a, &x, &b),
    }
}

fn main() {
    let mut json_path = "BENCH_order.json".to_string();
    let mut quick = false;
    let mut args = std::env::args().skip(1);
    while let Some(a) = args.next() {
        match a.as_str() {
            "--json" => json_path = args.next().expect("--json needs a path"),
            "--quick" => quick = true,
            other => {
                eprintln!("unknown arg {other}");
                std::process::exit(2);
            }
        }
    }
    let scale = if quick { SuiteScale::Tiny } else { SuiteScale::Full };
    let (block_size, p, samples) = if quick { (8, 4, 1) } else { (48, 16, 3) };
    // GRID150, CUBE30, BCSSTK15, BCSSTK29 at this scale (the GRID/CUBE
    // names carry the scaled dimension, so match by prefix and take the
    // smaller of each pair).
    let suite = sparsemat::gen::scaled_paper_suite(scale);
    let problems: Vec<sparsemat::Problem> = {
        let mut grid = None;
        let mut cube = None;
        let mut rest = Vec::new();
        for pb in suite {
            if pb.name.starts_with("GRID") && grid.is_none() {
                grid = Some(pb);
            } else if pb.name.starts_with("CUBE") && cube.is_none() {
                cube = Some(pb);
            } else if pb.name == "BCSSTK15" || pb.name == "BCSSTK29" {
                rest.push(pb);
            }
        }
        let mut v = vec![grid.expect("suite has a grid"), cube.expect("suite has a cube")];
        v.extend(rest);
        v
    };
    assert_eq!(problems.len(), 4, "suite names changed");

    let rows: Vec<Row> =
        problems.iter().map(|pb| run_structure(pb, block_size, p, samples)).collect();

    let mut env = bench::WorkerEnv::probe_and_warn("ordbench");
    let enforce_speedup = !quick && env.cores >= 4;

    // Gate: ND wins (flops or balance) on at least two structures. Tiny
    // (--quick) problems have no asymptotic separator advantage to show, so
    // the scale-dependent gates only apply at full scale (and are recorded
    // as skipped otherwise).
    let wins = rows.iter().filter(|r| r.nd_wins()).count();
    assert!(
        quick || wins >= 2,
        "nested dissection beat minimum degree on only {wins} structure(s); need 2 \
         (flops ratios: {:?})",
        rows.iter().map(|r| (r.problem.as_str(), r.flops_ratio())).collect::<Vec<_>>()
    );
    if quick {
        env.skip_gate("nd_wins");
        env.skip_gate("probe_agreement");
        env.skip_gate("flops_ratio_floor");
    }
    for r in &rows {
        if !quick {
            // Gate: the Auto probe resolves to whichever ordering actually
            // modeled cheaper on this structure.
            assert!(
                r.probe_agrees(),
                "{}: probe picked {} (nd_est {:.3e}, md_est {:.3e}) but modeled flops say \
                 nd {} vs md {}",
                r.problem, r.probe_abbrev(), r.probe_nd_est, r.probe_md_est,
                r.nd_ops, r.md_ops
            );
            // Gate: multilevel FM dissection quality floor per structure
            // family (the pre-multilevel greedy thinning sat at 3.6–6.4×
            // minimum degree on the BCSSTK meshes).
            let cap = if r.problem.starts_with("GRID") {
                0.88
            } else if r.problem.starts_with("CUBE") {
                0.39
            } else {
                2.0
            };
            assert!(
                r.flops_ratio() <= cap,
                "{}: nd/md flops ratio {:.3} above the {:.2} floor",
                r.problem, r.flops_ratio(), cap
            );
        }
        // Gate: PM does not lose to the best Section 4 heuristic on the
        // separator-tree plan.
        assert!(
            r.nd_pm_balance >= r.nd_best_heur_balance - 1e-12,
            "{}: PM balance {:.4} lost to {} {:.4}",
            r.problem, r.nd_pm_balance, r.nd_best_heur, r.nd_best_heur_balance
        );
        // Gate: the parallel analysis actually fanned out.
        assert!(
            r.subtree_spans > 1,
            "{}: parallel analysis produced {} subtree span(s)",
            r.problem, r.subtree_spans
        );
        // Gate: parallel speedup, only meaningful on a ≥ 4-core host.
        if enforce_speedup {
            assert!(
                r.analyze_speedup() >= 1.5,
                "{}: parallel analyze speedup {:.2}x below the 1.5x gate \
                 ({:.4}s -> {:.4}s at 4 workers on {} cores)",
                r.problem, r.analyze_speedup(), r.seq_analyze_s, r.par_analyze_s, env.cores
            );
        }
        // Gate: numerics.
        assert!(
            r.residual < 1e-10,
            "{}: ND residual {:.3e}", r.problem, r.residual
        );
    }

    let mut table = TextTable::new(
        "Ordering: graph nested dissection vs minimum degree (flops model, balance bound, \
         Auto probe, parallel analyze)",
        &["problem", "n", "md ops", "nd ops", "ratio", "probe", "md bal", "PM bal",
          "best heur", "seq ms", "par ms", "spd", "residual"],
    );
    for r in &rows {
        table.row(vec![
            r.problem.clone(),
            r.n.to_string(),
            r.md_ops.to_string(),
            r.nd_ops.to_string(),
            format!("{:.3}", r.flops_ratio()),
            r.probe_abbrev().to_string(),
            format!("{:.4}", r.md_balance),
            format!("{} {:.4}", r.nd_pm_rows, r.nd_pm_balance),
            format!("{} {:.4}", r.nd_best_heur, r.nd_best_heur_balance),
            format!("{:.2}", r.seq_analyze_s * 1e3),
            format!("{:.2}", r.par_analyze_s * 1e3),
            format!("{:.2}x", r.analyze_speedup()),
            format!("{:.2e}", r.residual),
        ]);
    }
    println!("{table}");

    let mut phases = TextTable::new(
        "Ordering phases, ms: one Auto probe + one nd_graph on a shared Orderer",
        &["problem", "compress", "components", "level graph", "coarsen", "bisect", "FM",
          "base", "probe"],
    );
    for r in &rows {
        let ph = &r.phases;
        let mut cells = vec![r.problem.clone()];
        cells.extend(
            [ph.compress_s, ph.components_s, ph.level_graph_s, ph.coarsen_s, ph.bisect_s,
             ph.fm_s, ph.base_s, ph.probe_s]
            .map(|s| format!("{:.2}", s * 1e3)),
        );
        phases.row(cells);
    }
    println!("{phases}");
    if !enforce_speedup && !quick {
        env.skip_gate("analyze_speedup");
        eprintln!(
            "note: ordbench: speedup gate skipped ({} core(s) < 4); \
             parallel-analyze numbers record oversubscription",
            env.cores
        );
    }

    let env_fields = env.json_fields();
    let mut out = String::from("{\"order\":[\n");
    for (i, r) in rows.iter().enumerate() {
        if i > 0 {
            out.push_str(",\n");
        }
        out.push_str(&format!(
            concat!(
                "  {{\"problem\":{},\"n\":{},\"nnz\":{},\"block_policy\":\"uniform\",{},",
                "\"md_nnz_l\":{},\"md_ops\":{},\"md_balance\":{:.6},",
                "\"nd_nnz_l\":{},\"nd_ops\":{},\"flops_ratio\":{:.4},",
                "\"probe_choice\":{},\"probe_nd_est\":{},\"probe_md_est\":{},",
                "\"probe_agrees\":{},",
                "\"phases_s\":{{\"compress\":{:.4e},\"components\":{:.4e},",
                "\"level_graph\":{:.4e},\"coarsen\":{:.4e},\"bisect\":{:.4e},",
                "\"fm\":{:.4e},\"base\":{:.4e},\"probe\":{:.4e}}},",
                "\"nd_pm_rows\":{},\"nd_pm_balance\":{:.6},\"nd_best_heur\":{},",
                "\"nd_best_heur_balance\":{:.6},",
                "\"seq_analyze_s\":{:.6e},\"par_analyze_s\":{:.6e},",
                "\"analyze_speedup\":{:.3},\"analyze_workers\":4,",
                "\"subtree_spans\":{},\"speedup_gate_enforced\":{},",
                "\"residual\":{:.3e}}}"
            ),
            json_str(&r.problem),
            r.n,
            r.nnz,
            env_fields,
            r.md_nnz_l,
            r.md_ops,
            r.md_balance,
            r.nd_nnz_l,
            r.nd_ops,
            r.flops_ratio(),
            json_str(r.probe_abbrev()),
            json_f64(r.probe_nd_est),
            json_f64(r.probe_md_est),
            r.probe_agrees(),
            r.phases.compress_s,
            r.phases.components_s,
            r.phases.level_graph_s,
            r.phases.coarsen_s,
            r.phases.bisect_s,
            r.phases.fm_s,
            r.phases.base_s,
            r.phases.probe_s,
            json_str(r.nd_pm_rows),
            r.nd_pm_balance,
            json_str(r.nd_best_heur),
            r.nd_best_heur_balance,
            r.seq_analyze_s,
            r.par_analyze_s,
            r.analyze_speedup(),
            r.subtree_spans,
            enforce_speedup,
            r.residual,
        ));
    }
    out.push_str("\n]}\n");
    trace::validate_json(&out).expect("bench json invalid");
    std::fs::write(&json_path, out).expect("write json");
    eprintln!("[wrote {json_path}]");
}
