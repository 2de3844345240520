//! `benchmark`: the one command that runs every workload, prints every
//! metric by name with its unit, and checks that answers are correct.
//!
//! ```text
//! cargo run --release -p benchmark -- [--workload W] [--seed N] [--mesh-seed N]
//!     [--seconds S] [--trace [0|1]] [--check-repeat] [--quick]
//! ```
//!
//! With `--workload` the named workload runs in this process — untraced
//! (end-to-end metrics) unless `--trace`/`--trace 1` (per-layer metrics) —
//! and the last line of standard output is the JSON result. Without it the
//! process re-executes itself once per workload, untraced and then traced,
//! so `peak_rss_mb` and allocator state belong to one workload alone.

use benchmark::inputs::Kind;
use benchmark::json::{parse, Value};
use benchmark::{host, layers, run, spec, Config, DEFAULT_SECONDS, DEFAULT_SEED};
use std::io::{BufRead, BufReader};
use std::path::PathBuf;
use std::process::{Command, ExitCode, Stdio};

struct Args {
    workload: Option<Kind>,
    seed: u64,
    mesh_seed: Option<u64>,
    seconds: f64,
    /// `None` = not given: a single workload runs untraced, the full set
    /// runs both.
    trace: Option<bool>,
    check_repeat: bool,
    quick: bool,
}

fn usage() -> String {
    let names: Vec<&str> = spec::WORKLOADS.iter().map(|w| w.name).collect();
    format!(
        "usage: benchmark [--workload {}] [--seed N] [--mesh-seed N] [--seconds S] \
         [--trace [0|1]] [--check-repeat] [--quick]",
        names.join("|")
    )
}

fn parse_args(argv: &[String]) -> Result<Args, String> {
    let mut args = Args {
        workload: None,
        seed: DEFAULT_SEED,
        mesh_seed: None,
        seconds: DEFAULT_SECONDS,
        trace: None,
        check_repeat: false,
        quick: false,
    };
    let mut it = argv.iter().peekable();
    while let Some(flag) = it.next() {
        let mut value = |what: &str| it.next().ok_or(format!("{flag} needs {what}"));
        match flag.as_str() {
            "--workload" => {
                let name = value("a workload name")?;
                args.workload =
                    Some(Kind::from_name(name).ok_or(format!("unknown workload {name:?}"))?);
            }
            "--seed" => {
                args.seed = value("a number")?
                    .parse()
                    .map_err(|e| format!("--seed: {e}"))?;
            }
            "--mesh-seed" => {
                args.mesh_seed = Some(
                    value("a number")?
                        .parse()
                        .map_err(|e| format!("--mesh-seed: {e}"))?,
                );
            }
            "--seconds" => {
                let s: f64 = value("a number")?
                    .parse()
                    .map_err(|e| format!("--seconds: {e}"))?;
                if !(s > 0.0 && s <= 600.0) {
                    return Err(format!("--seconds {s} is outside (0, 600]"));
                }
                args.seconds = s;
            }
            "--trace" => {
                args.trace = Some(match it.peek().map(|s| s.as_str()) {
                    Some("0") => {
                        it.next();
                        false
                    }
                    Some("1") => {
                        it.next();
                        true
                    }
                    _ => true,
                });
            }
            "--check-repeat" => args.check_repeat = true,
            "--quick" => args.quick = true,
            other => return Err(format!("unknown argument {other:?}")),
        }
    }
    if args.check_repeat && args.trace == Some(true) {
        return Err("--check-repeat compares untraced runs; drop --trace".into());
    }
    Ok(args)
}

/// Build products live under `CARGO_TARGET_DIR` (or `target`); so does the
/// trace file.
fn trace_dir() -> PathBuf {
    let target = std::env::var_os("CARGO_TARGET_DIR").unwrap_or_else(|| "target".into());
    PathBuf::from(target).join("benchmark")
}

/// One workload in this process.
fn run_one(kind: Kind, args: &Args) -> ExitCode {
    let traced = args.trace.unwrap_or(false);
    let cfg = Config {
        kind,
        seed: args.seed,
        mesh_seed: args.mesh_seed.unwrap_or(kind.default_mesh_seed()),
        seconds: args.seconds,
        quick: args.quick,
        trace_dir: trace_dir(),
    };
    println!(
        "workload={} traced={} seed={} mesh_seed={} seconds={} quick={}",
        kind.name(),
        traced,
        cfg.seed,
        cfg.mesh_seed,
        cfg.seconds,
        cfg.quick
    );
    println!("{}", host::describe());
    let report = if traced {
        layers::run(&cfg)
    } else {
        run::run(&cfg)
    };
    for line in &report.lines {
        println!("{line}");
    }
    for failure in &report.ops.failures {
        println!("FAILED {failure}");
    }
    println!(
        "ops_attempted {} ops_failed {}",
        report.ops.attempted, report.ops.failed
    );
    println!("{}", report.result_line());
    if report.correct() {
        ExitCode::SUCCESS
    } else {
        ExitCode::FAILURE
    }
}

/// Re-executes this binary for one workload; its parsed result line.
fn child(kind: Kind, traced: bool, args: &Args) -> Result<Value, String> {
    let exe = std::env::current_exe().map_err(|e| e.to_string())?;
    let mut cmd = Command::new(exe);
    cmd.args([
        "--workload",
        kind.name(),
        "--trace",
        if traced { "1" } else { "0" },
    ])
    .args([
        "--seed",
        &args.seed.to_string(),
        "--seconds",
        &args.seconds.to_string(),
    ])
    .stdout(Stdio::piped());
    if let Some(m) = args.mesh_seed {
        cmd.args(["--mesh-seed", &m.to_string()]);
    }
    if args.quick {
        cmd.arg("--quick");
    }
    let mut proc = cmd.spawn().map_err(|e| e.to_string())?;
    let stdout = proc.stdout.take().expect("stdout was piped");
    let mut last = String::new();
    for line in BufReader::new(stdout).lines() {
        last = line.map_err(|e| e.to_string())?;
        println!("{last}");
    }
    let status = proc.wait().map_err(|e| e.to_string())?;
    if !status.success() {
        return Err(format!("{} exited with {status}", kind.name()));
    }
    parse(&last).map_err(|at| format!("{}: result line unreadable at byte {at}", kind.name()))
}

fn metric(result: &Value, name: &str) -> Option<f64> {
    result.get("metrics")?.get(name)?.get("value")?.as_f64()
}

/// Every workload, each in its own process. Returns the untraced results.
fn run_set(args: &Args, traced: &[bool]) -> Result<Vec<(Kind, Value)>, String> {
    let mut untraced = Vec::new();
    for w in &spec::WORKLOADS {
        let kind = Kind::from_name(w.name).expect("spec names are workload names");
        for &t in traced {
            println!(
                "--- {} ({}) ---",
                w.name,
                if t { "traced" } else { "untraced" }
            );
            let result = child(kind, t, args)?;
            if !t {
                untraced.push((kind, result));
            }
        }
    }
    Ok(untraced)
}

/// `--check-repeat`: two full untraced sets must agree within each
/// metric's bound, whichever way the second one moved.
fn check_repeat(first: &[(Kind, Value)], second: &[(Kind, Value)]) -> bool {
    let mut ok = true;
    println!("--- repeatability: set 2 against set 1 ---");
    for ((kind, a), (_, b)) in first.iter().zip(second) {
        for e in &spec::END_TO_END {
            let (Some(x), Some(y)) = (metric(a, e.name), metric(b, e.name)) else {
                println!("{:<10} {:<20} missing", kind.name(), e.name);
                ok = false;
                continue;
            };
            let moved = (y - x) / x;
            let within = moved.abs() <= e.bound;
            ok &= within;
            println!(
                "{:<10} {:<20} {x:>12.6} {y:>12.6} {:+7.2} % (bound {:.0} %) {}",
                kind.name(),
                e.name,
                moved * 100.0,
                e.bound * 100.0,
                if within { "ok" } else { "OUTSIDE" }
            );
        }
    }
    ok
}

fn run_all(args: &Args) -> Result<bool, String> {
    let traced: &[bool] = match args.trace {
        None => &[false, true],
        Some(false) => &[false],
        Some(true) => &[true],
    };
    let first = run_set(args, traced)?;
    if !args.check_repeat {
        return Ok(true);
    }
    let second = run_set(args, &[false])?;
    Ok(check_repeat(&first, &second))
}

fn main() -> ExitCode {
    // The environment must not be able to change a number: worker counts
    // are set explicitly everywhere, and this knob would override `None`s.
    std::env::remove_var("SCHED_WORKERS");
    let argv: Vec<String> = std::env::args().skip(1).collect();
    let args = match parse_args(&argv) {
        Ok(a) => a,
        Err(e) => {
            eprintln!("{e}\n{}", usage());
            return ExitCode::from(2);
        }
    };
    if let Some(kind) = args.workload {
        return run_one(kind, &args);
    }
    match run_all(&args) {
        Ok(true) => ExitCode::SUCCESS,
        Ok(false) => ExitCode::FAILURE,
        Err(e) => {
            eprintln!("{e}");
            ExitCode::FAILURE
        }
    }
}
