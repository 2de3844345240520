//! End-to-end pipeline benchmark: per-phase wall clock (order → etree →
//! colcount → supernodes → partition → assemble → factor → solve) with
//! relaxed supernode amalgamation on (the default
//! [`AmalgamationOpts`]) and off, plus the sequential scatter
//! (`NumericFactor::from_matrix`) against the merge-walk parallel assembly
//! path (`Solver::assemble`).
//!
//! Writes `BENCH_pipeline.json` and a Perfetto trace with the pipeline
//! phase track (`target/pipeline_trace.json`). The run is self-gating:
//!
//! * amalgamation must strictly reduce the block count, and in full mode
//!   cut total block operations by ≥ 20 % on every problem;
//! * both configurations must solve to a relative residual below 1e-10,
//!   differing by less than 1e-10;
//! * the per-phase times must sum to ≈ the measured end-to-end wall;
//! * both JSON artifacts must validate.
//!
//! ```text
//! pipebench [--json <path>] [--perfetto <path>] [--quick]
//! ```

use bench::table::{json_str, TextTable};
use cholesky_core::{
    AmalgamationOpts, AnalyzeOpts, BlockPolicy, PhaseTimings, SchedOptions, Solver, SolverOptions,
};
use fanout::NumericFactor;
use std::time::Instant;

/// Reference machine size for the balance-bound column: the paper's
/// "small machine" (processor grid the bound is evaluated on).
const BALANCE_P: usize = 16;

struct Row {
    problem: String,
    n: usize,
    block_size: usize,
    block_policy: BlockPolicy,
    amalg: bool,
    workers: usize,
    supernodes: usize,
    panels: usize,
    blocks: usize,
    block_ops: u64,
    total_work: u64,
    stored: u64,
    timings: PhaseTimings,
    total_s: f64,
    assemble_seq_s: f64,
    assemble_par_s: f64,
    residual: f64,
    /// Widest realized panel (== block_size for the uniform policy).
    max_width: usize,
    /// Balance bound (work_total / (P·max_proc_work)) under the default
    /// mapping at [`BALANCE_P`] processors — the quantity the paper's
    /// machinery optimizes and the irregular-blocking gate scores.
    balance: f64,
    /// Min-of-samples sequential factor wall time (robust against timer
    /// noise for the ≤1.05x irregular wall gate).
    factor_min_s: f64,
}

impl Row {
    fn assembly_speedup(&self) -> f64 {
        self.assemble_seq_s / self.assemble_par_s
    }
}

/// Relative residual `‖b − A x‖∞ / ‖b‖∞` in the original ordering.
fn rel_residual(prob: &sparsemat::Problem, x: &[f64], b: &[f64]) -> f64 {
    let mut ax = vec![0.0; x.len()];
    prob.matrix.mul_vec(x, &mut ax);
    let num = ax.iter().zip(b).map(|(a, b)| (a - b).abs()).fold(0.0, f64::max);
    let den = b.iter().map(|v| v.abs()).fold(0.0, f64::max);
    num / den.max(1e-300)
}

fn median(mut times: Vec<f64>) -> f64 {
    times.sort_by(|a, b| a.partial_cmp(b).unwrap());
    times[times.len() / 2]
}

/// One full pipeline pass (analyze → assemble → factor → solve) with the
/// given amalgamation setting, timed end to end and per phase.
fn run_config(
    prob: &sparsemat::Problem,
    block_size: usize,
    block_policy: BlockPolicy,
    amalg: AmalgamationOpts,
    on: bool,
    samples: usize,
) -> Row {
    let opts = SolverOptions {
        block_size,
        block_policy,
        analyze: AnalyzeOpts { amalg, ..Default::default() },
        ..Default::default()
    };
    let n = prob.n();
    let x_true: Vec<f64> = (0..n).map(|i| 0.5 + ((i * 7 + 3) % 11) as f64 * 0.1).collect();
    let mut b = vec![0.0; n];
    prob.matrix.mul_vec(&x_true, &mut b);

    let t_total = Instant::now();
    let solver = Solver::analyze_problem(prob, &opts);
    let t = Instant::now();
    let mut f = solver.assemble();
    let assemble_s = t.elapsed().as_secs_f64();
    let t = Instant::now();
    fanout::factorize_seq(&mut f).expect("factorization failed");
    let factor_s = t.elapsed().as_secs_f64();
    let t = Instant::now();
    let x = solver.solve(&f, &b);
    let solve_s = t.elapsed().as_secs_f64();
    let total_s = t_total.elapsed().as_secs_f64();

    // Assembly micro-benchmark outside the timed pass: sequential
    // column-at-a-time scatter vs the merge-walk parallel path. Assembly
    // runs in hundreds of microseconds, so it takes a bigger sample pool
    // than the pipeline pass for a stable median.
    let samples = samples.max(25);
    let assemble_seq_s = median(
        (0..samples)
            .map(|_| {
                let t = Instant::now();
                let f = NumericFactor::from_matrix(solver.bm.clone(), &solver.permuted);
                let dt = t.elapsed().as_secs_f64();
                std::hint::black_box(&f);
                dt
            })
            .collect(),
    );
    let assemble_par_s = median(
        (0..samples)
            .map(|_| {
                let t = Instant::now();
                let f = solver.assemble();
                let dt = t.elapsed().as_secs_f64();
                std::hint::black_box(&f);
                dt
            })
            .collect(),
    );

    // Robust factor timing for the irregular wall gate: min over fresh
    // assemble+factor repeats (the factor in the timed pass above is a
    // single sample and jittery at millisecond scale).
    let factor_min_s = (0..samples)
        .map(|_| {
            let mut f = solver.assemble();
            let t = Instant::now();
            fanout::factorize_seq(&mut f).expect("factorization failed");
            let dt = t.elapsed().as_secs_f64();
            std::hint::black_box(&f);
            dt
        })
        .fold(f64::INFINITY, f64::min);
    let balance = solver.balance(&solver.assign_default(BALANCE_P)).overall;

    Row {
        problem: prob.name.clone(),
        n,
        block_size,
        block_policy,
        amalg: on,
        workers: solver.opts.analyze.resolved_workers(),
        supernodes: solver.analysis.supernodes.count(),
        panels: solver.bm.num_panels(),
        blocks: solver.bm.num_blocks(),
        block_ops: solver.work.num_ops,
        total_work: solver.work.total,
        stored: solver.bm.stored_elements(),
        timings: PhaseTimings { assemble_s, factor_s, solve_s, ..solver.timings },
        total_s,
        assemble_seq_s,
        assemble_par_s,
        residual: rel_residual(prob, &x, &b),
        max_width: solver.bm.partition.max_width(),
        balance,
        factor_min_s,
    }
}

/// Min-of-`reps` factor walls for an irregular row and a uniform baseline
/// row, measured *interleaved* (alternating repeats in one time window) so
/// host drift — warm-up, governor shifts, background load — hits both
/// configurations equally instead of biasing whichever ran first.
fn retime_interleaved(
    prob: &sparsemat::Problem,
    irr: &Row,
    uni: &Row,
    reps: usize,
) -> (f64, f64) {
    let build = |r: &Row| {
        let opts = SolverOptions {
            block_size: r.block_size,
            block_policy: r.block_policy,
            analyze: AnalyzeOpts { amalg: AmalgamationOpts::default(), ..Default::default() },
            ..Default::default()
        };
        Solver::analyze_problem(prob, &opts)
    };
    let s_irr = build(irr);
    let s_uni = build(uni);
    let mut w_irr = f64::INFINITY;
    let mut w_uni = f64::INFINITY;
    for _ in 0..reps {
        for (s, w) in [(&s_irr, &mut w_irr), (&s_uni, &mut w_uni)] {
            let mut f = s.assemble();
            let t = Instant::now();
            fanout::factorize_seq(&mut f).expect("factorization failed");
            *w = w.min(t.elapsed().as_secs_f64());
            std::hint::black_box(&f);
        }
    }
    (w_irr, w_uni)
}

fn main() {
    let mut json_path = "BENCH_pipeline.json".to_string();
    let mut perfetto_path = "target/pipeline_trace.json".to_string();
    let mut quick = false;
    let mut args = std::env::args().skip(1);
    while let Some(a) = args.next() {
        match a.as_str() {
            "--json" => json_path = args.next().expect("--json needs a path"),
            "--perfetto" => perfetto_path = args.next().expect("--perfetto needs a path"),
            "--quick" => quick = true,
            other => {
                eprintln!("unknown arg {other}");
                std::process::exit(2);
            }
        }
    }
    let samples = if quick { 3 } else { 9 };
    // Full-scale structures are chosen where the uniform partition leaves
    // balance headroom at P = 16 (deep irregular elimination trees with a
    // dominant chain): this is where structure-aware blocking must prove
    // itself. Walls are a few ms, so min-of-9 sampling keeps the 1.05x
    // wall eligibility test out of timer noise.
    let problems: Vec<sparsemat::Problem> = if quick {
        vec![sparsemat::gen::grid2d(20), sparsemat::gen::bcsstk_like("T", 240, 4)]
    } else {
        vec![
            sparsemat::gen::copter_like("COPTER20", 2000, 7),
            sparsemat::gen::grid2d(48),
            sparsemat::gen::bcsstk_like("BCSSTK15", 1500, 2),
        ]
    };
    let block_sizes: &[usize] = if quick { &[16] } else { &[32, 48] };
    let min_ops_cut = if quick { 0.0 } else { 0.20 };

    let mut env = bench::WorkerEnv::probe_and_warn("pipebench");
    let mut rows: Vec<Row> = Vec::new();
    for prob in &problems {
        for &bs in block_sizes {
            let off = run_config(prob, bs, BlockPolicy::Uniform, AmalgamationOpts::off(), false, samples);
            let on = run_config(prob, bs, BlockPolicy::Uniform, AmalgamationOpts::default(), true, samples);

            // Gate: amalgamation strictly merges blocks and cuts block ops.
            assert!(
                on.blocks < off.blocks,
                "{} B={bs}: amalgamation did not reduce blocks ({} -> {})",
                prob.name, off.blocks, on.blocks
            );
            let cut = 1.0 - on.block_ops as f64 / off.block_ops as f64;
            assert!(
                cut > min_ops_cut,
                "{} B={bs}: block-op cut {:.1}% below the {:.0}% gate ({} -> {})",
                prob.name, cut * 100.0, min_ops_cut * 100.0, off.block_ops, on.block_ops
            );
            // Gate: numerics unchanged.
            for r in [&off, &on] {
                assert!(
                    r.residual < 1e-10,
                    "{} B={bs} amalg={}: residual {:.3e}", prob.name, r.amalg, r.residual
                );
            }
            assert!(
                (on.residual - off.residual).abs() < 1e-10,
                "{} B={bs}: residual moved {:.3e} -> {:.3e}",
                prob.name, off.residual, on.residual
            );
            // Gate: the per-phase clock accounts for the end-to-end wall
            // (the permutation apply and allocator noise live in the gap).
            for r in [&off, &on] {
                let sum = r.timings.total_s();
                let gap = r.total_s - sum;
                assert!(
                    gap > -1e-4 && gap < 0.25 * r.total_s + 0.02,
                    "{} B={bs} amalg={}: phases sum {:.4}s vs total {:.4}s",
                    prob.name, r.amalg, sum, r.total_s
                );
            }
            rows.push(off);
            rows.push(on);
        }

        // Irregular-blocking rows: the structure-aware policies at every
        // nominal block size, amalgamation on (the production default) —
        // the gate picks the best wall-eligible row per structure.
        for &nominal in block_sizes {
        for policy in [BlockPolicy::WorkEqualized, BlockPolicy::Rectilinear { sweeps: 4 }] {
            let r = run_config(prob, nominal, policy, AmalgamationOpts::default(), true, samples);
            assert!(
                r.residual < 1e-10,
                "{} {}: residual {:.3e}",
                prob.name,
                policy.label(),
                r.residual
            );
            assert!(
                r.max_width <= policy.max_width(nominal),
                "{} {}: panel width {} above the policy cap {}",
                prob.name,
                policy.label(),
                r.max_width,
                policy.max_width(nominal)
            );
            let sum = r.timings.total_s();
            let gap = r.total_s - sum;
            assert!(
                gap > -1e-4 && gap < 0.25 * r.total_s + 0.02,
                "{} {}: phases sum {:.4}s vs total {:.4}s",
                prob.name,
                policy.label(),
                sum,
                r.total_s
            );
            rows.push(r);
        }
        }
    }

    // Perfetto export with the pipeline phase track, from a traced
    // scheduler run of the first problem's amalgamated plan.
    {
        let prob = &problems[0];
        let opts = SolverOptions { block_size: block_sizes[0], ..Default::default() };
        let solver = Solver::analyze_problem(prob, &opts);
        let asg = solver.assign_heuristic(4);
        let (_, stats, report) = solver
            .factor_sched_report(&asg, &SchedOptions::default())
            .expect("traced run failed");
        let trace = stats.trace.as_ref().expect("trace on");
        let j = trace.to_perfetto_json_with_phases(
            &format!("pipeline {} B={}", prob.name, block_sizes[0]),
            &report.pipeline,
        );
        trace::validate_json(&j).expect("perfetto json invalid");
        assert!(j.contains("\"pipeline\""), "missing pipeline track");
        if let Some(dir) = std::path::Path::new(&perfetto_path).parent() {
            std::fs::create_dir_all(dir).expect("create trace dir");
        }
        std::fs::write(&perfetto_path, &j).expect("write perfetto");
        eprintln!("[wrote {perfetto_path}]");
        println!("{report}");
    }

    let mut table = TextTable::new(
        "Pipeline: relaxed amalgamation + irregular blocking (policy uniform/workeq/rect)",
        &["problem", "n", "B", "policy", "amalg", "sn", "blocks", "block ops", "bal@16",
          "analyze ms", "asm seq ms", "asm par ms", "asm spd", "factor ms", "residual"],
    );
    for r in &rows {
        table.row(vec![
            r.problem.clone(),
            r.n.to_string(),
            r.block_size.to_string(),
            r.block_policy.label().to_string(),
            if r.amalg { "on" } else { "off" }.to_string(),
            r.supernodes.to_string(),
            r.blocks.to_string(),
            r.block_ops.to_string(),
            format!("{:.3}", r.balance),
            format!("{:.2}", r.timings.analyze_s() * 1e3),
            format!("{:.2}", r.assemble_seq_s * 1e3),
            format!("{:.2}", r.assemble_par_s * 1e3),
            format!("{:.2}x", r.assembly_speedup()),
            format!("{:.2}", r.timings.factor_s * 1e3),
            format!("{:.2e}", r.residual),
        ]);
    }
    println!("{table}");

    // Gate: structure-aware blocking must beat the best uniform baseline.
    // Per structure, the winning irregular row must improve the balance
    // bound or the block-op count by >= 10% over the best uniform
    // B in {32,48} (amalgamation on), at a factor wall no worse than
    // 1.05x the uniform best; >= 2 structures must clear the bar. Under
    // --quick the problems are miniatures, so the scale-dependent gates
    // are recorded in skipped_gates instead (same convention as ordbench).
    {
        let mut improved = 0usize;
        for prob in &problems {
            let uni: Vec<&Row> = rows
                .iter()
                .filter(|r| {
                    r.problem == prob.name && r.amalg && r.block_policy == BlockPolicy::Uniform
                })
                .collect();
            let pol: Vec<&Row> = rows
                .iter()
                .filter(|r| r.problem == prob.name && r.block_policy != BlockPolicy::Uniform)
                .collect();
            let uni_bal = uni.iter().map(|r| r.balance).fold(0.0, f64::max);
            let uni_ops = uni.iter().map(|r| r.block_ops).min().unwrap();
            // Candidates in decreasing single-metric gain. The wall test
            // cannot reuse `factor_min_s` from the table pass: rows are
            // measured minutes apart and the host drifts (warm-up alone
            // skews early rows slow), so a gain-qualified candidate is
            // re-timed *interleaved* with the fastest uniform config —
            // alternating assemble+factor repeats in one window — and
            // counts only if its fresh min wall stays within 1.05x. A
            // gated structure therefore satisfies the wall bound by
            // construction, measured drift-free.
            let gain = |r: &Row| {
                let bal = (r.balance - uni_bal) / uni_bal;
                let ops = 1.0 - r.block_ops as f64 / uni_ops as f64;
                bal.max(ops)
            };
            let mut cand: Vec<&&Row> = pol.iter().collect();
            cand.sort_by(|a, b| gain(b).total_cmp(&gain(a)));
            let uni_fastest = uni
                .iter()
                .min_by(|a, b| a.factor_min_s.total_cmp(&b.factor_min_s))
                .unwrap();
            let best = cand.first().expect("irregular rows exist");
            eprintln!(
                "[{}] irregular {} B={}: balance {:.3} vs uniform-best {:.3}, block ops {} vs {} \
                 (gain {:+.1}%)",
                prob.name,
                best.block_policy.label(),
                best.block_size,
                best.balance,
                uni_bal,
                best.block_ops,
                uni_ops,
                gain(best) * 100.0
            );
            if quick {
                continue;
            }
            for r in cand {
                if gain(r) < 0.10 {
                    break;
                }
                let (w_irr, w_uni) = retime_interleaved(prob, r, uni_fastest, samples);
                let ok = w_irr <= 1.05 * w_uni;
                eprintln!(
                    "[{}] wall retest {} B={}: {:.2}ms vs uniform B={} {:.2}ms ({:.2}x) -> {}",
                    prob.name,
                    r.block_policy.label(),
                    r.block_size,
                    w_irr * 1e3,
                    uni_fastest.block_size,
                    w_uni * 1e3,
                    w_irr / w_uni,
                    if ok { "gated" } else { "rejected" }
                );
                if ok {
                    improved += 1;
                    break;
                }
            }
        }
        if quick {
            env.skip_gate("irregular_improvement");
            env.skip_gate("irregular_walltime");
            eprintln!(
                "[pipebench --quick] irregular improvement/wall gates skipped \
                 (miniature problems); recorded in skipped_gates"
            );
        } else {
            assert!(
                improved >= 2,
                "irregular blocking improved balance or block ops by >=10% on only \
                 {improved} structure(s); the gate needs 2"
            );
        }
    }


    let env_fields = env.json_fields();
    let mut out = String::from("{\"pipeline\":[\n");
    for (i, r) in rows.iter().enumerate() {
        if i > 0 {
            out.push_str(",\n");
        }
        let t = &r.timings;
        out.push_str(&format!(
            concat!(
                "  {{\"problem\":{},\"n\":{},\"block_size\":{},",
                "\"block_policy\":{},\"max_width\":{},\"balance_p16\":{:.4},",
                "\"factor_min_s\":{:.6e},\"amalg\":{},",
                "{},\"workers\":{},",
                "\"supernodes\":{},\"panels\":{},\"blocks\":{},",
                "\"block_ops\":{},\"total_work\":{},\"stored_elements\":{},",
                "\"probe_s\":{:.6e},\"order_s\":{:.6e},\"etree_s\":{:.6e},\"colcount_s\":{:.6e},",
                "\"supernodes_s\":{:.6e},\"partition_s\":{:.6e},\"assemble_s\":{:.6e},",
                "\"factor_s\":{:.6e},\"solve_s\":{:.6e},\"phase_sum_s\":{:.6e},",
                "\"total_s\":{:.6e},\"assemble_seq_s\":{:.6e},\"assemble_par_s\":{:.6e},",
                "\"assembly_speedup\":{:.3},\"residual\":{:.3e}}}"
            ),
            json_str(&r.problem),
            r.n,
            r.block_size,
            json_str(r.block_policy.label()),
            r.max_width,
            r.balance,
            r.factor_min_s,
            r.amalg,
            env_fields,
            r.workers,
            r.supernodes,
            r.panels,
            r.blocks,
            r.block_ops,
            r.total_work,
            r.stored,
            t.probe_s,
            t.order_s,
            t.etree_s,
            t.colcount_s,
            t.supernodes_s,
            t.partition_s,
            t.assemble_s,
            t.factor_s,
            t.solve_s,
            t.total_s(),
            r.total_s,
            r.assemble_seq_s,
            r.assemble_par_s,
            r.assembly_speedup(),
            r.residual,
        ));
    }
    out.push_str("\n]}\n");
    trace::validate_json(&out).expect("bench json invalid");
    std::fs::write(&json_path, out).expect("write json");
    eprintln!("[wrote {json_path}]");
}
