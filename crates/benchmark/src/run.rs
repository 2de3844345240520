//! The untraced run of one workload: the end-to-end metrics, measured
//! through the `cholesky_core` facade only.
//!
//! One closed-loop client. Cold requests (analyze → factor → solve, plus
//! the parallel factor of the same solver) and session blocks (refactor +
//! resolve cycles, then one 8-RHS batch) are *interleaved* inside one
//! measured window, because back-to-back samples of one phase drift on a
//! shared host. Every workload runs both kinds of work, in different
//! proportions, so every run reports every end-to-end metric.

use crate::inputs::{Inputs, Kind, SETS};
use crate::ops::{bits_equal, timed, verdict, Ops};
use crate::stats::{
    detrended, highest_steady_percentile, median, percentile, percentile_checked, summary,
    DETREND_HALF_WINDOW,
};
use crate::{host, spec, Config, Report};
use cholesky_core::{FactorSession, MachineModel, PlanCache, SchedOptions, Solver};
use std::time::Instant;

/// Repeated set-ups per run; `setup_s` is their median.
const SETUPS: usize = 3;
/// Virtual processors the parallel factor row is mapped onto.
const PAR_P: usize = 16;
/// Fewest cold requests and session blocks a run reports medians of.
const MIN_UNITS: usize = 3;

/// How one workload divides its measured window.
struct Shape {
    /// Share of the window spent on cold requests.
    cold_share: f64,
    /// Refactor + resolve cycles per session block (one batch follows).
    cycles_per_block: usize,
    /// Untimed cycles before the window opens.
    warmup_cycles: usize,
}

fn shape(kind: Kind) -> Shape {
    match kind {
        // Analysis is bypassed on the cycles that dominate this workload;
        // the few cold requests exist so its one-shot metrics are defined.
        Kind::Serve => Shape {
            cold_share: 0.06,
            cycles_per_block: 8,
            warmup_cycles: 5,
        },
        _ => Shape {
            cold_share: 0.70,
            cycles_per_block: 3,
            warmup_cycles: 1,
        },
    }
}

/// What set-up leaves behind for the measured window.
struct Prepared {
    inputs: Inputs,
    solver: Solver,
    session: FactorSession,
}

/// Set-up: generate matrix, value sets, right-hand sides and reference
/// answers, analyse once through a `PlanCache`, open the session and run
/// its first refactor — everything a client pays before its first cycle,
/// so work moved out of the cycle and into set-up shows in `setup_s`.
fn prepare(cfg: &Config, ops: &mut Ops) -> Option<Prepared> {
    let opts = cfg.kind.solver_options();
    let inputs = Inputs::generate(cfg.kind, cfg.seed, cfg.mesh_seed, cfg.quick);
    let solver = ops.run("analyze (cache miss)", || {
        Ok(PlanCache::new().solver_for(&inputs.a[0], &opts))
    })?;
    let mut session = ops.run("session open", || Ok(solver.session()))?;
    ops.run("first refactor", || {
        session
            .refactor(inputs.a[0].values())
            .map_err(|e| e.to_string())
    })?;
    Some(Prepared {
        inputs,
        solver,
        session,
    })
}

#[derive(Default)]
struct Samples {
    oneshot: Vec<f64>,
    factor: Vec<f64>,
    factor_par: Vec<f64>,
    cycle: Vec<f64>,
    batch: Vec<f64>,
}

/// One cold request and the parallel factor of the same solver.
fn cold_request(inp: &Inputs, kind: Kind, ops: &mut Ops, s: &mut Samples) -> Option<()> {
    let opts = kind.solver_options();
    let (solver, t_analyze) = ops.timed("analyze", || Solver::analyze(&inp.a[0], &opts))?;
    let (f, t_factor) = ops.run("factor_seq", || {
        let (r, t) = timed(|| solver.factor_seq());
        r.map(|f| (f, t)).map_err(|e| e.to_string())
    })?;
    let (x, t_solve) = ops.timed("solve", || solver.solve(&f, &inp.b[0]))?;
    s.oneshot.push(t_analyze + t_factor + t_solve);
    s.factor.push(t_factor);
    ops.check_solution(
        "solve check",
        &inp.a[0],
        inp.norm_a[0],
        &x,
        &inp.b[0],
        &inp.x_true[0],
    );

    // The mapping and the task plan are built before the timed call.
    let asg = ops.run("map + task plan", || {
        let asg = solver.assign_default(PAR_P);
        solver.plan.exec_templates(&asg);
        Ok(asg)
    })?;
    let sched = SchedOptions {
        workers: Some(host::par_workers()),
        ..SchedOptions::default()
    };
    let (f_par, t_par) = ops.run("factor_sched", || {
        let (r, t) = timed(|| solver.factor_sched(&asg, &sched));
        r.map(|(f, _stats)| (f, t)).map_err(|e| e.to_string())
    })?;
    s.factor_par.push(t_par);
    ops.check_bits("factor_sched bit-identical to factor_seq", &f_par, &f);
    Some(())
}

/// One refactor + resolve cycle on value set `set`; its wall seconds.
fn cycle(p: &mut Prepared, set: usize, ops: &mut Ops) -> Option<f64> {
    let inp = &p.inputs;
    let t0 = Instant::now();
    ops.run("refactor", || {
        p.session
            .refactor(inp.a[set].values())
            .map_err(|e| e.to_string())
    })?;
    let (x, _) = ops.timed("resolve", || p.session.resolve(&inp.b[set]))?;
    let dt = t0.elapsed().as_secs_f64();
    ops.check_solution(
        "resolve check",
        &inp.a[set],
        inp.norm_a[set],
        &x,
        &inp.b[set],
        &inp.x_true[0],
    );
    Some(dt)
}

/// One `resolve_many` batch against the session's current factor (value set
/// `set`); with `vs_loop`, its lanes are also compared with looped `resolve`.
fn batch(p: &mut Prepared, set: usize, vs_loop: bool, ops: &mut Ops) -> Option<f64> {
    let rhs = p.inputs.batch_rhs(set);
    let refs: Vec<&[f64]> = rhs.iter().map(Vec::as_slice).collect();
    let (xs, dt) = ops.timed("resolve_many", || p.session.resolve_many(&refs))?;
    let inp = &p.inputs;
    for (lane, x) in xs.iter().enumerate() {
        ops.check_solution(
            "batch lane check",
            &inp.a[set],
            inp.norm_a[set],
            x,
            &rhs[lane],
            &inp.x_true[lane],
        );
    }
    if vs_loop {
        let looped = ops.run("looped resolve", || {
            Ok(refs
                .iter()
                .map(|b| p.session.resolve(b))
                .collect::<Vec<_>>())
        })?;
        let same = xs.iter().zip(&looped).all(|(a, b)| bits_equal(a, b));
        ops.check(
            "resolve_many lanes bit-identical to looped resolve",
            verdict(same, "lanes differ bitwise"),
        );
    }
    Some(dt)
}

/// Runs the workload untraced and reports the end-to-end metrics.
pub fn run(cfg: &Config) -> Report {
    let mut ops = Ops::default();
    let mut lines = Vec::new();
    let shape = shape(cfg.kind);

    let mut setup = Vec::new();
    let mut prepared = None;
    for _ in 0..SETUPS {
        drop(prepared.take());
        let (p, dt) = timed(|| prepare(cfg, &mut ops));
        setup.push(dt);
        prepared = p;
    }
    let mut s = Samples::default();
    let mut sim_efficiency = None;
    if let Some(p) = prepared.as_mut() {
        lines.push(format!(
            "n={} nnz_a={} ordering={:?} nnz_l={} ops={}",
            p.inputs.n(),
            p.inputs.a[0].values().len(),
            p.solver.resolved_ordering,
            p.solver.stats().nnz_l,
            p.solver.stats().ops,
        ));
        let fresh = ops.run("fresh factor of the first values", || {
            Solver::from_plan(p.solver.plan.clone(), &p.inputs.a[0])
                .factor_seq()
                .map_err(|e| e.to_string())
        });
        if let Some(fresh) = fresh {
            ops.check_bits(
                "first refactor bit-identical to a fresh factor",
                p.session.factor(),
                &fresh,
            );
        }

        let mut cycles_done = 0;
        for _ in 0..shape.warmup_cycles {
            cycle(p, cycles_done % SETS, &mut ops);
            cycles_done += 1;
        }

        // The measured window. Whichever kind of work is behind its share
        // of the window goes next; a unit that would overrun is not started.
        let window = Instant::now();
        let (mut cold_spent, mut session_spent) = (0.0, 0.0);
        let (mut cold_units, mut blocks) = (0usize, 0usize);
        let (mut last_cold, mut last_block) = (0.0f64, 0.0f64);
        loop {
            let enough = cold_units >= MIN_UNITS && blocks >= MIN_UNITS;
            let cold_next = if cfg.quick {
                cold_units <= blocks
            } else {
                cold_spent <= shape.cold_share * (cold_spent + session_spent)
            };
            let expected = if cold_next { last_cold } else { last_block };
            let over = window.elapsed().as_secs_f64() + expected > cfg.seconds;
            if enough && (cfg.quick || over) {
                break;
            }
            let t0 = Instant::now();
            if cold_next {
                cold_request(&p.inputs, cfg.kind, &mut ops, &mut s);
                cold_units += 1;
                last_cold = t0.elapsed().as_secs_f64();
                cold_spent += last_cold;
            } else {
                let mut set = 0;
                for _ in 0..shape.cycles_per_block {
                    set = cycles_done % SETS;
                    s.cycle.extend(cycle(p, set, &mut ops));
                    cycles_done += 1;
                }
                s.batch.extend(batch(p, set, blocks == 0, &mut ops));
                blocks += 1;
                last_block = t0.elapsed().as_secs_f64();
                session_spent += last_block;
            }
        }
        lines.push(format!(
            "window {:.2}s: {} cold requests ({:.2}s), {} session blocks ({:.2}s)",
            window.elapsed().as_secs_f64(),
            cold_units,
            cold_spent,
            blocks,
            session_spent
        ));

        sim_efficiency = ops.run("simulate P=64", || {
            let asg = p.solver.assign_default(64);
            Ok(p.solver.simulate(&asg, &MachineModel::paragon()).efficiency)
        });
    }

    let per_rhs: Vec<f64> = s.batch.iter().map(|t| t / SETS as f64).collect();
    // The tail is taken of the cycles *relative to their neighbours in
    // time*, scaled back to the run's median: on this shared host a raw p95
    // measures how long the neighbours were noisy, not the solver's tail.
    let relative = detrended(&s.cycle, DETREND_HALF_WINDOW);
    let p95 = if s.cycle.is_empty() {
        None
    } else {
        let tail = match percentile_checked(&relative, 0.95) {
            Ok(v) => v,
            Err(e) => {
                let steady = highest_steady_percentile(&relative);
                lines.push(format!(
                    "cycle_p95_s: {e}; reporting p{:.1}, the highest percentile with {} beyond",
                    100.0 * (1.0 - steady.beyond as f64 / relative.len() as f64),
                    steady.beyond
                ));
                steady.value
            }
        };
        lines.push(format!(
            "cycle_p95_s raw (nearest rank, not detrended): {:.6} s",
            percentile(&s.cycle, 0.95).value
        ));
        Some(tail * median(&s.cycle))
    };
    if !s.factor_par.is_empty() {
        let q = summary(&s.factor_par);
        lines.push(format!(
            "factor_par_s, not gated (P = {PAR_P}, {} workers): median {:.6} s q1 {:.6} q3 {:.6} min {:.6} n {}",
            host::par_workers(),
            q.median,
            q.q1,
            q.q3,
            q.min,
            q.n
        ));
    }
    let single = |v: Option<f64>| v.map(|v| vec![v]).unwrap_or_default();
    let samples: [(&str, Vec<f64>); 8] = [
        ("setup_s", setup),
        ("oneshot_s", s.oneshot),
        ("factor_s", s.factor),
        ("cycle_p50_s", s.cycle),
        ("cycle_p95_s", single(p95)),
        ("solve_rhs_s", per_rhs),
        ("sim_efficiency_p64", single(sim_efficiency)),
        ("peak_rss_mb", single(host::peak_rss_mb())),
    ];
    let mut report = Report::new(ops, lines);
    for (spec, (name, v)) in spec::END_TO_END.iter().zip(samples) {
        assert_eq!(spec.name, name, "metric order follows spec::END_TO_END");
        report.push_metric(name, spec.unit, &v);
    }
    report
}
