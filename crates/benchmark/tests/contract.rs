//! `BENCHMARK.json` and the benchmark agree, and a `--quick` run of every
//! workload — untraced and traced — passes every check and emits exactly
//! the metric names the contract lists.

use benchmark::inputs::Kind;
use benchmark::json::{parse, Value};
use benchmark::{layers, run, spec, Config, Report, DEFAULT_SECONDS, DEFAULT_SEED};
use std::path::PathBuf;
use std::process::Command;

fn benchmark_json() -> Value {
    let path = PathBuf::from(env!("CARGO_MANIFEST_DIR")).join("../../BENCHMARK.json");
    let text = std::fs::read_to_string(&path).expect("BENCHMARK.json at the repository root");
    assert_eq!(trace::validate_json(&text), Ok(()));
    assert!(text.len() <= 64 * 1024);
    parse(&text).expect("BENCHMARK.json parses")
}

fn strings<'a>(list: &'a Value, key: &str) -> Vec<&'a str> {
    list.as_array()
        .unwrap()
        .iter()
        .map(|item| item.get(key).and_then(Value::as_str).unwrap())
        .collect()
}

fn valid_name(name: &str) -> bool {
    name.len() <= 64
        && name.starts_with(|c: char| c.is_ascii_alphanumeric())
        && name
            .chars()
            .all(|c| c.is_ascii_alphanumeric() || "_.-".contains(c))
}

#[test]
fn benchmark_json_mirrors_the_spec_tables() {
    let doc = benchmark_json();
    let keys: Vec<&str> = doc
        .as_object()
        .unwrap()
        .iter()
        .map(|(k, _)| k.as_str())
        .collect();
    assert_eq!(
        keys,
        [
            "command",
            "paths",
            "run_seconds",
            "workloads",
            "end_to_end",
            "per_layer"
        ]
    );
    assert_eq!(
        doc.get("run_seconds").and_then(Value::as_f64),
        Some(DEFAULT_SECONDS)
    );
    assert_eq!(
        doc.get("paths").unwrap().as_array().unwrap(),
        [Value::Str("crates/benchmark".into())]
    );

    let workloads = doc.get("workloads").unwrap();
    let want: Vec<&str> = spec::WORKLOADS.iter().map(|w| w.name).collect();
    assert_eq!(strings(workloads, "name"), want);
    let whys: Vec<&str> = spec::WORKLOADS.iter().map(|w| w.why).collect();
    assert_eq!(strings(workloads, "why"), whys);
    assert!(whys
        .iter()
        .all(|w| w.chars().count() <= 200 && !w.contains('\n')));

    let e2e = doc.get("end_to_end").unwrap();
    assert_eq!(strings(e2e, "name"), spec::END_TO_END.map(|m| m.name));
    assert_eq!(strings(e2e, "unit"), spec::END_TO_END.map(|m| m.unit));
    assert_eq!(
        strings(e2e, "better"),
        spec::END_TO_END.map(|m| m.better.as_str())
    );
    let bounds: Vec<f64> = e2e
        .as_array()
        .unwrap()
        .iter()
        .map(|m| m.get("bound").and_then(Value::as_f64).unwrap())
        .collect();
    assert_eq!(bounds, spec::END_TO_END.map(|m| m.bound));
    assert!(bounds.iter().all(|b| *b > 0.0 && *b <= 0.25));
    let setup = spec::END_TO_END
        .iter()
        .find(|m| m.name == "setup_s")
        .expect("setup_s is required");
    assert_eq!((setup.unit, setup.better), ("s", spec::Better::Lower));
    let widest = bounds.iter().copied().fold(0.0, f64::max);
    assert_eq!(setup.bound, widest, "set-up time carries the largest bound");

    let layers = doc.get("per_layer").unwrap();
    assert_eq!(strings(layers, "name"), spec::PER_LAYER.map(|m| m.name));
    assert_eq!(strings(layers, "unit"), spec::PER_LAYER.map(|m| m.unit));
    assert_eq!(
        strings(layers, "better"),
        spec::PER_LAYER.map(|m| m.better.as_str())
    );
    assert!(spec::PER_LAYER.len() <= 128);

    let mut names: Vec<&str> = want;
    names.extend(spec::END_TO_END.map(|m| m.name));
    names.extend(spec::PER_LAYER.map(|m| m.name));
    assert!(
        names.iter().all(|n| valid_name(n)),
        "a name breaks the contract's alphabet"
    );
    let total = names.len();
    names.sort_unstable();
    names.dedup();
    assert_eq!(names.len(), total, "every name is used once");
}

/// A `--quick` configuration; tests run concurrently, so each writes its
/// trace files under its own `dir`.
fn quick(kind: Kind, dir: &str) -> Config {
    Config {
        kind,
        seed: DEFAULT_SEED,
        mesh_seed: kind.default_mesh_seed(),
        seconds: DEFAULT_SECONDS,
        quick: true,
        trace_dir: PathBuf::from(env!("CARGO_TARGET_TMPDIR")).join(dir),
    }
}

/// The result line validates, carries exactly the contract's keys, and its
/// metrics are exactly `names`, each a finite number with its unit.
fn assert_result_line(report: &Report, names: &[&str], what: &str) {
    assert!(report.correct(), "{what}: {:?}", report.ops.failures);
    assert!(report.ops.attempted >= 1);
    let line = report.result_line();
    assert!(!line.contains('\n'));
    assert_eq!(trace::validate_json(&line), Ok(()), "{what}");
    let doc = parse(&line).unwrap();
    let keys: Vec<&str> = doc
        .as_object()
        .unwrap()
        .iter()
        .map(|(k, _)| k.as_str())
        .collect();
    assert_eq!(
        keys,
        ["correct", "attempted", "failed", "metrics"],
        "{what}"
    );
    assert_eq!(doc.get("correct"), Some(&Value::Bool(true)));
    assert_eq!(doc.get("failed").and_then(Value::as_f64), Some(0.0));
    let metrics = doc.get("metrics").unwrap().as_object().unwrap();
    let got: Vec<&str> = metrics.iter().map(|(k, _)| k.as_str()).collect();
    assert_eq!(got, names, "{what}");
    for (name, m) in metrics {
        let v = m.get("value").and_then(Value::as_f64).unwrap();
        assert!(v.is_finite(), "{what}: {name} = {v}");
        assert!(m.get("unit").and_then(Value::as_str).is_some());
    }
}

#[test]
fn quick_smoke_runs_every_workload_and_every_check() {
    let e2e = spec::END_TO_END.map(|m| m.name);
    let per_layer = spec::PER_LAYER.map(|m| m.name);
    for w in &spec::WORKLOADS {
        let cfg = quick(Kind::from_name(w.name).unwrap(), "smoke");

        let untraced = run::run(&cfg);
        assert_result_line(&untraced, &e2e, w.name);
        // Every timing and ratio of the end-to-end set is strictly positive.
        assert!(
            untraced.metrics.iter().all(|(_, v, _)| *v > 0.0),
            "{:?}",
            untraced.metrics
        );

        let traced = layers::run(&cfg);
        assert_result_line(&traced, &per_layer, w.name);
        let file = cfg.trace_dir.join(format!("{}.trace.json", w.name));
        let text = std::fs::read_to_string(&file).expect("the traced run writes its trace file");
        assert_eq!(trace::validate_json(&text), Ok(()));
        let events = parse(&text).unwrap();
        let events = events.get("traceEvents").and_then(Value::as_array).unwrap();
        let has = |name: &str| {
            events
                .iter()
                .any(|e| e.get("name").and_then(Value::as_str) == Some(name))
        };
        for span in [
            "request",
            "ordering.order",
            "symbolic.analyze",
            "fanout.seq.factor",
            "core.session.refactor",
        ] {
            assert!(has(span), "{}: no {span} span", w.name);
        }
    }
}

#[test]
fn same_seed_repeats_counts_and_virtual_time_exactly() {
    let cfg = quick(Kind::Irregular, "repeat");
    let pick = |r: &Report, name: &str| r.metrics.iter().find(|m| m.0 == name).unwrap().1;
    let (a, b) = (layers::run(&cfg), layers::run(&cfg));
    for name in [
        "ordering.ops",
        "ordering.nnz_l",
        "blockmat.blocks",
        "simgrid.msgs_p64",
        "simgrid.efficiency_p64",
        "balance.overall_p64",
    ] {
        assert_eq!(pick(&a, name).to_bits(), pick(&b, name).to_bits(), "{name}");
    }
    let (a, b) = (run::run(&cfg), run::run(&cfg));
    assert_eq!(
        pick(&a, "sim_efficiency_p64").to_bits(),
        pick(&b, "sim_efficiency_p64").to_bits()
    );
}

fn binary() -> Command {
    let mut cmd = Command::new(env!("CARGO_BIN_EXE_benchmark"));
    // Keep the children's trace files out of the source tree.
    cmd.env("CARGO_TARGET_DIR", env!("CARGO_TARGET_TMPDIR"));
    cmd
}

#[test]
fn the_binary_reexecutes_itself_per_workload_and_exits_zero() {
    let out = binary()
        .args(["--quick", "--seed", "5"])
        .env("SCHED_WORKERS", "7")
        .output()
        .unwrap();
    let text = String::from_utf8(out.stdout).unwrap();
    assert!(out.status.success(), "{text}");
    for w in &spec::WORKLOADS {
        assert!(text.contains(&format!("--- {} (untraced) ---", w.name)));
        assert!(text.contains(&format!("--- {} (traced) ---", w.name)));
    }
    assert_eq!(
        text.matches("\"correct\": true").count(),
        2 * spec::WORKLOADS.len()
    );
    assert!(text.contains("seed=5"));
    assert!(!text.contains("FAILED"));
}

#[test]
fn the_binary_rejects_bad_arguments_with_status_two() {
    for args in [
        &["--workload", "nosuch"][..],
        &["--seconds", "0"],
        &["--bogus"],
        &["--trace", "1", "--check-repeat"],
    ] {
        let out = binary().args(args).output().unwrap();
        assert_eq!(out.status.code(), Some(2), "{args:?}");
        assert!(String::from_utf8_lossy(&out.stderr).contains("usage:"));
    }
}
