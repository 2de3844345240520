//! One function per table/figure of the paper.

use crate::table::{bal, pct, TextTable};
use crate::{paper_stats, Ctx};
use cholesky_core::{
    ColPolicy, Heuristic, MachineModel, ProcGrid, RowPolicy, SimOutcome, Solver,
};

/// Paper Table 2 reference rows (P = 64, B = 48): row/col/diag/overall
/// balance under the 2-D cyclic mapping.
pub const PAPER_TABLE2: &[(&str, f64, f64, f64, f64)] = &[
    ("DENSE1024", 0.65, 0.95, 0.69, 0.46),
    ("DENSE2048", 0.80, 0.99, 0.82, 0.67),
    ("GRID150", 0.78, 0.86, 0.62, 0.48),
    ("GRID300", 0.85, 0.89, 0.71, 0.54),
    ("CUBE30", 0.87, 0.94, 0.77, 0.68),
    ("CUBE35", 0.86, 0.94, 0.80, 0.66),
    ("BCSSTK15", 0.70, 0.69, 0.58, 0.38),
    ("BCSSTK29", 0.68, 0.75, 0.63, 0.39),
    ("BCSSTK31", 0.75, 0.95, 0.73, 0.54),
    ("BCSSTK33", 0.76, 0.89, 0.71, 0.53),
];

/// Paper Table 7 reference (Mflops): `(name, cyc144, heu144, cyc196, heu196)`.
pub const PAPER_TABLE7: &[(&str, f64, f64, f64, f64)] = &[
    ("CUBE35", 1788.0, 2207.0, 2019.0, 2456.0),
    ("CUBE40", 2093.0, 2384.0, 2515.0, 3187.0),
    ("DENSE4096", 3587.0, 4156.0, 4489.0, 5237.0),
    ("BCSSTK31", 1161.0, 1322.0, 1361.0, 1709.0),
    ("COPTER2", 1693.0, 1779.0, 1959.0, 2312.0),
    ("10FLEET", 2027.0, 2246.0, 2488.0, 2722.0),
];

fn policies(row: Heuristic, col: Heuristic) -> (RowPolicy, ColPolicy) {
    (RowPolicy::Heuristic(row), ColPolicy::Heuristic(col))
}

fn simulate(solver: &Solver, p: usize, row: Heuristic, col: Heuristic) -> SimOutcome {
    let (r, c) = policies(row, col);
    let asg = solver.assign(p, r, c);
    solver.simulate(&asg, &MachineModel::paragon())
}

/// **Table 1 / Table 6** — benchmark matrix statistics vs the paper.
pub fn matrix_stats(ctx: &mut Ctx, large: bool) -> TextTable {
    let title = if large {
        "Table 6: large benchmark matrices (paper values in parentheses)"
    } else {
        "Table 1: benchmark matrices (paper values in parentheses)"
    };
    let mut t = TextTable::new(
        title,
        &["name", "equations", "NZ in L", "ops (M)", "paper NZ", "paper ops (M)"],
    );
    let problems = if large {
        crate::Ctx::large_problems(ctx)
            .into_iter()
            .filter(|p| !matches!(p.name.as_str(), "CUBE35" | "BCSSTK31"))
            .collect::<Vec<_>>()
    } else {
        ctx.paper_problems()
    };
    for prob in &problems {
        let s = ctx.solver(prob).stats();
        let (_, pnz, pops) = paper_stats(&prob.name).unwrap_or((0, 0, 0.0));
        t.row(vec![
            prob.name.clone(),
            prob.n().to_string(),
            s.nnz_l.to_string(),
            format!("{:.1}", s.ops as f64 / 1e6),
            pnz.to_string(),
            format!("{pops:.1}"),
        ]);
    }
    t
}

/// **Figure 1** — efficiency and overall balance of the block fan-out
/// method under the cyclic mapping, per matrix, at both machine sizes.
pub fn figure1(ctx: &mut Ctx) -> TextTable {
    let [p1, p2] = ctx.p_small;
    let mut t = TextTable::new(
        format!("Figure 1: efficiency and overall balance, cyclic mapping (P = {p1}, {p2})"),
        &["matrix", &format!("eff P={p1}"), &format!("bal P={p1}"),
          &format!("eff P={p2}"), &format!("bal P={p2}")],
    );
    for prob in ctx.paper_problems() {
        let solver = ctx.solver(&prob);
        let mut cells = vec![prob.name.clone()];
        for p in [p1, p2] {
            let asg = solver.assign_cyclic(p);
            let out = solver.simulate(&asg, &MachineModel::paragon());
            let rep = solver.balance(&asg);
            cells.push(format!("{:.2}", out.efficiency));
            cells.push(bal(rep.overall));
        }
        t.row(cells);
    }
    t
}

/// **Table 2** — row, column, diagonal and overall balance of the cyclic
/// mapping at the small machine size.
pub fn table2(ctx: &mut Ctx) -> TextTable {
    let p = ctx.p_small[0];
    let mut t = TextTable::new(
        format!("Table 2: cyclic-mapping balances (P = {p}) — measured | paper"),
        &["matrix", "row", "col", "diag", "overall", "paper r/c/d/o"],
    );
    for prob in ctx.paper_problems() {
        let solver = ctx.solver(&prob);
        let asg = solver.assign_cyclic(p);
        let rep = solver.balance(&asg);
        let paper = PAPER_TABLE2
            .iter()
            .find(|r| r.0 == prob.name)
            .map(|r| format!("{:.2}/{:.2}/{:.2}/{:.2}", r.1, r.2, r.3, r.4))
            .unwrap_or_default();
        t.row(vec![
            prob.name.clone(),
            bal(rep.row),
            bal(rep.col),
            bal(rep.diag),
            bal(rep.overall),
            paper,
        ]);
    }
    t
}

/// **Table 3** — balances for BCSSTK31 under each heuristic applied to both
/// rows and columns.
pub fn table3(ctx: &mut Ctx) -> TextTable {
    let p = ctx.p_small[0];
    let mut t = TextTable::new(
        format!("Table 3: BCSSTK31 balances by heuristic (rows = cols, P = {p})"),
        &["heuristic", "row", "col", "diag", "overall"],
    );
    let prob = ctx
        .paper_problems()
        .into_iter()
        .find(|pr| pr.name == "BCSSTK31")
        .expect("suite contains BCSSTK31");
    let solver = ctx.solver(&prob);
    for h in Heuristic::ALL {
        let (r, c) = policies(h, h);
        let asg = solver.assign(p, r, c);
        let rep = solver.balance(&asg);
        t.row(vec![
            h.name().to_string(),
            bal(rep.row),
            bal(rep.col),
            bal(rep.diag),
            bal(rep.overall),
        ]);
    }
    t
}

/// Result of the full 5×5 heuristic sweep at one machine size.
pub struct SweepResult {
    /// Mean improvement in overall balance over cyclic/cyclic, by
    /// `[row_heuristic][col_heuristic]`.
    pub balance_gain: [[f64; 5]; 5],
    /// Mean improvement in simulated performance over cyclic/cyclic.
    pub perf_gain: [[f64; 5]; 5],
    /// Number of matrices aggregated.
    pub matrices: usize,
}

/// Runs the 5×5 row/column heuristic sweep over the Table 1 suite at
/// processor count `p`, computing both Table 4 (balance) and Table 5
/// (simulated performance) in one pass.
pub fn sweep(ctx: &Ctx, p: usize) -> SweepResult {
    let mut balance_gain = [[0.0f64; 5]; 5];
    let mut perf_gain = [[0.0f64; 5]; 5];
    let problems = ctx.paper_problems();
    for prob in &problems {
        // Analyze locally (not cached) to keep peak memory to one matrix.
        let solver = Solver::analyze_problem_paper(prob, &ctx.opts);
        let mut base_bal = 0.0;
        let mut base_perf = 0.0;
        for (ri, rh) in Heuristic::ALL.iter().enumerate() {
            for (ci, chh) in Heuristic::ALL.iter().enumerate() {
                let (r, c) = policies(*rh, *chh);
                let asg = solver.assign(p, r, c);
                let rep = solver.balance(&asg);
                let out = solver.simulate(&asg, &MachineModel::paragon());
                let perf = 1.0 / out.report.makespan_s;
                if ri == 0 && ci == 0 {
                    base_bal = rep.overall;
                    base_perf = perf;
                }
                balance_gain[ri][ci] += rep.overall / base_bal - 1.0;
                perf_gain[ri][ci] += perf / base_perf - 1.0;
            }
        }
    }
    let n = problems.len() as f64;
    for r in 0..5 {
        for c in 0..5 {
            balance_gain[r][c] /= n;
            perf_gain[r][c] /= n;
        }
    }
    SweepResult { balance_gain, perf_gain, matrices: problems.len() }
}

/// Formats one 5×5 sweep matrix as a table.
pub fn sweep_table(title: &str, gain: &[[f64; 5]; 5]) -> TextTable {
    let mut header = vec!["row \\ col"];
    for h in Heuristic::ALL {
        header.push(h.abbrev());
    }
    let mut t = TextTable::new(title, &header);
    for (ri, rh) in Heuristic::ALL.iter().enumerate() {
        let mut cells = vec![rh.name().to_string()];
        for &g in &gain[ri] {
            cells.push(pct(g));
        }
        t.row(cells);
    }
    t
}

/// **Tables 4 and 5** — mean improvement in overall balance and in simulated
/// performance for all 25 heuristic combinations, at both machine sizes.
pub fn tables_4_and_5(ctx: &Ctx) -> Vec<TextTable> {
    let mut out = Vec::new();
    for p in ctx.p_small {
        let res = sweep(ctx, p);
        out.push(sweep_table(
            &format!("Table 4: mean improvement in overall balance (P = {p})"),
            &res.balance_gain,
        ));
        out.push(sweep_table(
            &format!("Table 5: mean improvement in parallel performance (P = {p})"),
            &res.perf_gain,
        ));
    }
    out
}

/// **Section 4.2 (first alternative)** — the per-processor row remap:
/// balance improves ~10–15% beyond the aggregate heuristic, performance
/// does not.
pub fn alt_heuristic(ctx: &Ctx) -> TextTable {
    let p = ctx.p_small[0];
    let mut t = TextTable::new(
        format!("§4.2 alternative row heuristic vs DW rows (CY columns, P = {p})"),
        &["matrix", "bal DW", "bal alt", "perf DW (rel)", "perf alt (rel)"],
    );
    for prob in ctx.paper_problems() {
        let solver = Solver::analyze_problem_paper(&prob, &ctx.opts);
        let col = ColPolicy::Heuristic(Heuristic::Cyclic);
        let dw = solver.assign(p, RowPolicy::Heuristic(Heuristic::DecreasingWork), col);
        let alt = solver.assign(p, RowPolicy::AltPerProcessor, col);
        let (bd, ba) = (solver.balance(&dw), solver.balance(&alt));
        let model = MachineModel::paragon();
        let (sd, sa) = (solver.simulate(&dw, &model), solver.simulate(&alt, &model));
        let base = sd.report.makespan_s;
        t.row(vec![
            prob.name.clone(),
            bal(bd.overall),
            bal(ba.overall),
            "1.00".into(),
            format!("{:.2}", base / sa.report.makespan_s),
        ]);
    }
    t
}

/// **Section 4.2 (second alternative)** — relatively prime grids: cyclic
/// maps on `P−1` processors vs cyclic and heuristic maps on `P`.
pub fn coprime_grids(ctx: &Ctx) -> TextTable {
    let mut t = TextTable::new(
        "§4.2 relatively prime grids: mean improvement over square cyclic",
        &["P", "grid", "coprime cyclic", "heuristic (ID/CY) on P"],
    );
    for p in ctx.p_small {
        let Some(grid) = ProcGrid::coprime(p - 1) else {
            continue;
        };
        let mut gain_coprime = 0.0;
        let mut gain_heu = 0.0;
        let problems = ctx.paper_problems();
        for prob in &problems {
            let solver = Solver::analyze_problem_paper(prob, &ctx.opts);
            let model = MachineModel::paragon();
            let cyc = solver.simulate(&solver.assign_cyclic(p), &model);
            let (r, c) = policies(Heuristic::Cyclic, Heuristic::Cyclic);
            let co = solver.simulate(&solver.assign_on_grid(grid, r, c), &model);
            let heu = solver.simulate(&solver.assign_heuristic(p), &model);
            gain_coprime += cyc.report.makespan_s / co.report.makespan_s - 1.0;
            gain_heu += cyc.report.makespan_s / heu.report.makespan_s - 1.0;
        }
        let n = problems.len() as f64;
        t.row(vec![
            p.to_string(),
            format!("{}x{}", grid.pr, grid.pc),
            pct(gain_coprime / n),
            pct(gain_heu / n),
        ]);
    }
    t
}

/// **Table 7** — Mflops for the large problems, cyclic vs the recommended
/// heuristic (increasing-depth rows, cyclic columns), at both large machine
/// sizes.
pub fn table7(ctx: &mut Ctx) -> TextTable {
    let [p1, p2] = ctx.p_large;
    let mut t = TextTable::new(
        format!("Table 7: performance (Mflops), cyclic vs ID/CY heuristic (P = {p1}, {p2})"),
        &["matrix",
          &format!("cyc {p1}"), &format!("heu {p1}"), "impr",
          &format!("cyc {p2}"), &format!("heu {p2}"), "impr",
          "paper impr (144/196)"],
    );
    for prob in ctx.large_problems() {
        let solver = Solver::analyze_problem_paper(&prob, &ctx.opts);
        let ops = solver.stats().ops;
        let mut cells = vec![prob.name.clone()];
        for p in [p1, p2] {
            let cyc = simulate(&solver, p, Heuristic::Cyclic, Heuristic::Cyclic);
            let heu = simulate(&solver, p, Heuristic::IncreasingDepth, Heuristic::Cyclic);
            cells.push(format!("{:.0}", cyc.mflops(ops)));
            cells.push(format!("{:.0}", heu.mflops(ops)));
            cells.push(pct(cyc.report.makespan_s / heu.report.makespan_s - 1.0));
        }
        let paper = PAPER_TABLE7
            .iter()
            .find(|r| r.0 == prob.name)
            .map(|r| {
                format!(
                    "{:+.0}%/{:+.0}%",
                    (r.2 / r.1 - 1.0) * 100.0,
                    (r.4 / r.3 - 1.0) * 100.0
                )
            })
            .unwrap_or_default();
        cells.push(paper);
        t.row(cells);
    }
    t
}

/// **Section 5 ablation** — the subtree-to-processor-columns map: cuts
/// communication volume but (on a Paragon-like machine) does not pay off.
pub fn ablation_subtree(ctx: &Ctx) -> TextTable {
    let p = ctx.p_small[0];
    let mut t = TextTable::new(
        format!("§5 ablation: subtree column map vs cyclic columns (ID rows, P = {p})"),
        &["matrix", "comm vol (cyc)", "comm vol (subtree)", "vol change",
          "perf change", "bal (cyc)", "bal (subtree)"],
    );
    for prob in ctx.paper_problems() {
        // Regular problems show the subtree effect best; skip dense (one
        // supernode, no tree to exploit).
        if prob.name.starts_with("DENSE") {
            continue;
        }
        let solver = Solver::analyze_problem_paper(&prob, &ctx.opts);
        let row = RowPolicy::Heuristic(Heuristic::IncreasingDepth);
        let cyc = solver.assign(p, row, ColPolicy::Heuristic(Heuristic::Cyclic));
        let sub = solver.assign(p, row, ColPolicy::Subtree);
        let (vc, vs) = (solver.comm(&cyc), solver.comm(&sub));
        let model = MachineModel::paragon();
        let (sc, ss) = (solver.simulate(&cyc, &model), solver.simulate(&sub, &model));
        t.row(vec![
            prob.name.clone(),
            vc.elements.to_string(),
            vs.elements.to_string(),
            pct(vs.elements as f64 / vc.elements as f64 - 1.0),
            pct(sc.report.makespan_s / ss.report.makespan_s - 1.0),
            bal(solver.balance(&cyc).overall),
            bal(solver.balance(&sub).overall),
        ]);
    }
    t
}

/// **Section 5 ablation** — block size sweep: single-node rate rises with B
/// while concurrency falls; B ≈ 48 balances the two on the Paragon model.
pub fn ablation_block_size(ctx: &Ctx, name: &str) -> TextTable {
    let p = ctx.p_small[0];
    let prob = ctx
        .paper_problems()
        .into_iter()
        .find(|pr| pr.name == name)
        .expect("matrix in suite");
    let mut t = TextTable::new(
        format!("§5 ablation: block size sweep on {name} (ID/CY, P = {p})"),
        &["B", "panels", "overall bal", "efficiency", "rel perf"],
    );
    let sizes: &[usize] = match ctx.scale {
        sparsemat::gen::SuiteScale::Full => &[16, 24, 48, 96],
        _ => &[4, 8, 16, 32],
    };
    let mut base = 0.0;
    for &bs in sizes {
        let opts = cholesky_core::SolverOptions { block_size: bs, ..ctx.opts };
        let solver = Solver::analyze_problem_paper(&prob, &opts);
        let asg = solver.assign_heuristic(p);
        let out = solver.simulate(&asg, &MachineModel::paragon());
        let rep = solver.balance(&asg);
        if base == 0.0 {
            base = out.report.makespan_s;
        }
        t.row(vec![
            bs.to_string(),
            solver.bm.num_panels().to_string(),
            bal(rep.overall),
            format!("{:.2}", out.efficiency),
            format!("{:.2}", base / out.report.makespan_s),
        ]);
    }
    t
}

/// **Section 5 discussion** — where does the remaining inefficiency go once
/// the heuristic mapping is applied? The paper reports: communication < 20%
/// of runtime, most lost time is idle, and critical-path analysis shows the
/// problems admit 30–50% more performance than achieved.
pub fn discussion(ctx: &Ctx) -> TextTable {
    let p = ctx.p_small[1];
    let mut t = TextTable::new(
        format!("§5 discussion: remaining bottlenecks after remapping (ID/CY, P = {p})"),
        &["matrix", "eff", "bal bound", "cp bound", "idle frac", "wire frac",
          "priority-sched gain"],
    );
    let model = MachineModel::paragon();
    for prob in ctx.paper_problems() {
        let solver = Solver::analyze_problem_paper(&prob, &ctx.opts);
        let asg = solver.assign_heuristic(p);
        let out = solver.simulate(&asg, &model);
        let rep = solver.balance(&asg);
        let cp = solver.critical_path(&model);
        // Idle fraction: processor-seconds not spent in handlers.
        let total = p as f64 * out.report.makespan_s;
        let idle = 1.0 - out.report.total_busy_s() / total;
        // Wire fraction: pure transfer time as a share of machine-seconds
        // (an upper proxy for "communication cost"; the paper measured
        // 5–20%).
        let wire: f64 = out.report.total_bytes() as f64 / model.bandwidth_bps
            + out.report.total_msgs() as f64 * model.latency_s;
        let pri = solver.simulate_with_policy(&asg, &model, fanout::SimPolicy::CriticalPathPriority);
        t.row(vec![
            prob.name.clone(),
            format!("{:.2}", out.efficiency),
            bal(rep.overall),
            format!("{:.2}", cp.efficiency_bound(p)),
            format!("{:.2}", idle),
            format!("{:.2}", wire / total),
            pct(out.report.makespan_s / pri.report.makespan_s - 1.0),
        ]);
    }
    t
}

/// **Section 1 claims** — 1-D column mappings vs 2-D block mappings:
/// communication volume growth and realized performance as the machine
/// scales. A 1-D mapping is the degenerate `1 × P` grid.
pub fn one_d_vs_two_d(ctx: &Ctx, name: &str) -> TextTable {
    let prob = ctx
        .paper_problems()
        .into_iter()
        .find(|p| p.name == name)
        .expect("matrix in suite");
    let solver = Solver::analyze_problem_paper(&prob, &ctx.opts);
    let ops = solver.stats().ops;
    let mut t = TextTable::new(
        format!("§1: 1-D column mapping vs 2-D block mapping on {name}"),
        &["P", "vol 1-D", "vol 2-D", "ratio", "Mflops 1-D", "Mflops 2-D"],
    );
    let model = MachineModel::paragon();
    let ps: &[usize] = match ctx.scale {
        sparsemat::gen::SuiteScale::Full => &[16, 64, 144],
        _ => &[4, 16, 36],
    };
    for &p in ps {
        let row = RowPolicy::Heuristic(Heuristic::IncreasingDepth);
        let col = ColPolicy::Heuristic(Heuristic::Cyclic);
        let one_d = solver.assign_on_grid(ProcGrid::new(1, p), row, col);
        let two_d = solver.assign_on_grid(ProcGrid::near_square(p), row, col);
        let (v1, v2) = (solver.comm(&one_d), solver.comm(&two_d));
        let (s1, s2) = (
            solver.simulate(&one_d, &model),
            solver.simulate(&two_d, &model),
        );
        t.row(vec![
            p.to_string(),
            v1.elements.to_string(),
            v2.elements.to_string(),
            format!("{:.2}", v1.elements as f64 / v2.elements.max(1) as f64),
            format!("{:.0}", s1.mflops(ops)),
            format!("{:.0}", s2.mflops(ops)),
        ]);
    }
    t
}

/// **Section 1, concurrency claim** — the task definition matters: column
/// tasks (`B = 1`) have an `O(k²)` critical path on a `k × k` grid, block
/// tasks `O(k)`. We compare the modeled critical path of the same
/// factorization under both task granularities.
pub fn task_granularity_critical_path(ctx: &Ctx, name: &str) -> TextTable {
    let prob = ctx
        .paper_problems()
        .into_iter()
        .find(|p| p.name == name)
        .expect("matrix in suite");
    let mut t = TextTable::new(
        format!("§1: critical path by task granularity on {name}"),
        &["tasks", "B", "critical path (s)", "max speedup"],
    );
    let model = MachineModel::paragon();
    for (label, bs) in [("column (1-D style)", 1usize), ("block", ctx.opts.block_size)] {
        let opts = cholesky_core::SolverOptions { block_size: bs, ..ctx.opts };
        let solver = Solver::analyze_problem_paper(&prob, &opts);
        let cp = solver.critical_path(&model);
        t.row(vec![
            label.to_string(),
            bs.to_string(),
            format!("{:.4}", cp.length_s),
            format!("{:.1}", cp.max_speedup()),
        ]);
    }
    t
}

/// **Section 5, block size variation** — the paper's (surprising) negative
/// result: "varying the block size between the early stages of the
/// computation and the later ones has no effect on load imbalance; and it
/// reduces the amount of parallelism available". We compare a uniform
/// partition against stage-graded partitions at matched nominal sizes.
pub fn ablation_stagewise_block_size(ctx: &Ctx, name: &str) -> TextTable {
    let prob = ctx
        .paper_problems()
        .into_iter()
        .find(|p| p.name == name)
        .expect("matrix in suite");
    let p = ctx.p_small[0];
    let b = ctx.opts.block_size;
    let mut t = TextTable::new(
        format!("§5 ablation: stage-graded block sizes on {name} (ID/CY, P = {p})"),
        &["partition", "panels", "overall bal", "cp max speedup", "rel perf"],
    );
    // Depth threshold: the median supernode depth separates "early"
    // (deep, eliminated first) from "late" (shallow) stages.
    let perm = ordering::order_problem(&prob);
    let analysis = symbolic::analyze(prob.matrix.pattern(), &perm, &ctx.opts.analyze.amalg);
    let mut depths: Vec<u32> = analysis.supernodes.depth.clone();
    depths.sort_unstable();
    let median = depths[depths.len() / 2];
    let model = MachineModel::paragon();
    let mut base = 0.0;
    type WidthFn = Box<dyn Fn(usize, u32) -> usize>;
    let variants: Vec<(&str, WidthFn)> = vec![
        ("uniform B", Box::new(move |_, _| b)),
        (
            "large early / small late",
            Box::new(move |_, d| if d >= median { 2 * b } else { b / 2 }),
        ),
        (
            "small early / large late",
            Box::new(move |_, d| if d >= median { b / 2 } else { 2 * b }),
        ),
    ];
    for (label, width_fn) in variants {
        let pa = analysis.perm.apply_to_matrix(&prob.matrix);
        let bm = std::sync::Arc::new(cholesky_core::BlockMatrix::build_custom(
            analysis.supernodes.clone(),
            width_fn,
            b,
        ));
        let w = cholesky_core::BlockWork::compute(&bm, &ctx.opts.work_model);
        let domains = cholesky_core::DomainPlan::select(&bm, &w, p, &Default::default());
        let asg = cholesky_core::Assignment::build(
            &bm,
            &w,
            ProcGrid::square(p),
            RowPolicy::Heuristic(Heuristic::IncreasingDepth),
            ColPolicy::Heuristic(Heuristic::Cyclic),
            Some(domains),
        );
        let rep = cholesky_core::BalanceReport::compute(&bm, &w, &asg);
        let plan = std::sync::Arc::new(cholesky_core::Plan::build(&bm, &asg));
        let out = fanout::simulate(&bm, &plan, &model);
        let cp = fanout::critical_path(&bm, &model);
        if base == 0.0 {
            base = out.report.makespan_s;
        }
        let _ = pa;
        t.row(vec![
            label.to_string(),
            bm.num_panels().to_string(),
            bal(rep.overall),
            format!("{:.0}", cp.max_speedup()),
            format!("{:.2}", base / out.report.makespan_s),
        ]);
    }
    t
}

/// **Machine ablation** — the paper notes its conclusions are
/// Paragon-specific: "communication costs were not a significant performance
/// bottleneck on the Paragon". On a much slower network the
/// communication-reducing subtree map should close the gap or win.
pub fn slow_network(ctx: &Ctx, name: &str) -> TextTable {
    let prob = ctx
        .paper_problems()
        .into_iter()
        .find(|p| p.name == name)
        .expect("matrix in suite");
    let solver = Solver::analyze_problem_paper(&prob, &ctx.opts);
    let p = ctx.p_small[0];
    let mut t = TextTable::new(
        format!("machine ablation on {name} (P = {p}): Paragon vs 10× slower network"),
        &["network", "cyclic cols (s)", "subtree cols (s)", "subtree vs cyclic"],
    );
    let row = RowPolicy::Heuristic(Heuristic::IncreasingDepth);
    let cyc = solver.assign(p, row, ColPolicy::Heuristic(Heuristic::Cyclic));
    let sub = solver.assign(p, row, ColPolicy::Subtree);
    for (label, model) in [
        ("Paragon", MachineModel::paragon()),
        ("slow net", MachineModel {
            bandwidth_bps: MachineModel::paragon().bandwidth_bps / 10.0,
            latency_s: MachineModel::paragon().latency_s * 10.0,
            ..MachineModel::paragon()
        }),
    ] {
        let (sc, ss) = (solver.simulate(&cyc, &model), solver.simulate(&sub, &model));
        t.row(vec![
            label.to_string(),
            format!("{:.3}", sc.report.makespan_s),
            format!("{:.3}", ss.report.makespan_s),
            pct(sc.report.makespan_s / ss.report.makespan_s - 1.0),
        ]);
    }
    t
}

#[cfg(test)]
mod tests {
    use super::*;
    use sparsemat::gen::SuiteScale;

    #[test]
    fn tiny_scale_tables_have_expected_shapes() {
        let mut ctx = Ctx::new(SuiteScale::Tiny);
        assert_eq!(matrix_stats(&mut ctx, false).len(), 10);
        assert_eq!(figure1(&mut ctx).len(), 10);
        assert_eq!(table2(&mut ctx).len(), 10);
        assert_eq!(table3(&mut ctx).len(), 5);
        assert_eq!(alt_heuristic(&ctx).len(), 10);
        // Table 6 lists the large suite alone; Table 7 adds BCSSTK31 from
        // the base suite, and CUBE35 only at full scale (below it the cube's
        // name carries its scaled dimension).
        assert_eq!(matrix_stats(&mut ctx, true).len(), 4);
        assert_eq!(table7(&mut ctx).len(), 5);
        // The subtree ablation skips the two dense problems.
        assert_eq!(ablation_subtree(&ctx).len(), 8);
    }

    #[test]
    fn tiny_sweep_improves_balance_on_average() {
        let ctx = Ctx::new(SuiteScale::Tiny);
        let res = sweep(&ctx, ctx.p_small[0]);
        assert_eq!(res.matrices, 10);
        // Cyclic/cyclic is the baseline.
        assert_eq!(res.balance_gain[0][0], 0.0);
        assert_eq!(res.perf_gain[0][0], 0.0);
        // Fully remapped combinations improve balance on average.
        assert!(
            res.balance_gain[1][3] > 0.0,
            "DW/DN balance gain {}",
            res.balance_gain[1][3]
        );
    }

    #[test]
    fn coprime_table_builds() {
        let ctx = Ctx::new(SuiteScale::Tiny);
        // p_small = [4, 9] → coprime(3) = 1x3, coprime(8) = none... rows may
        // be empty or not; just check it does not panic.
        let _ = coprime_grids(&ctx);
    }
}
