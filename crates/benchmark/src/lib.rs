//! The benchmark of record (`BENCHMARK.json`): four workloads at the scale
//! where a factorization takes ≥ 100 ms, nine end-to-end metrics measured
//! through the `cholesky_core` facade with tracing off, and a separate
//! traced run that calls the layers one by one and reports per-crate
//! metrics. See `README.md` in this crate for the tables and how each layer
//! metric is predicted to move the end-to-end ones.
//!
//! Everything is measured **from outside**: this crate only calls public
//! functions of the other crates and times them.

pub mod host;
pub mod inputs;
pub mod json;
pub mod layers;
pub mod ops;
pub mod run;
pub mod spans;
pub mod spec;
pub mod stats;

use inputs::Kind;
use std::path::PathBuf;

/// Seed used when `--seed` is not given.
pub const DEFAULT_SEED: u64 = 20_240_611;
/// Measured seconds when `--seconds` is not given (`run_seconds` in
/// `BENCHMARK.json`).
pub const DEFAULT_SECONDS: f64 = 28.0;

/// One workload run's parameters.
#[derive(Debug, Clone)]
pub struct Config {
    /// The workload.
    pub kind: Kind,
    /// Drives every numeric value: diagonal perturbations, value sets,
    /// `x_true`, right-hand sides.
    pub seed: u64,
    /// Drives the structure of the irregular meshes.
    pub mesh_seed: u64,
    /// Length of the measured window.
    pub seconds: f64,
    /// Tiny sizes and three repetitions, for the smoke test.
    pub quick: bool,
    /// Where the traced run writes `<workload>.trace.json`.
    pub trace_dir: PathBuf,
}

/// What one workload run produced.
#[derive(Debug)]
pub struct Report {
    /// Operation counts and failures.
    pub ops: ops::Ops,
    /// `(name, value, unit)` of every metric of the run's kind, in the
    /// order of the tables in [`spec`].
    pub metrics: Vec<(&'static str, f64, &'static str)>,
    /// Human-readable lines: medians with quartiles and sample counts.
    pub lines: Vec<String>,
}

/// One printed metric line: median, unit, quartiles, minimum and sample count.
fn metric_line(name: &str, unit: &str, q: &stats::Summary) -> String {
    // Six decimals suit seconds; error norms and tiny ratios need exponents.
    let num = |v: f64| {
        if v != 0.0 && v.abs() < 1e-4 {
            format!("{v:.4e}")
        } else {
            format!("{v:.6}")
        }
    };
    format!(
        "{name:<34} {:>18} {unit:<8} q1 {} q3 {} min {} n {}",
        num(q.median),
        num(q.q1),
        num(q.q3),
        num(q.min),
        q.n
    )
}

impl Report {
    /// A report with no metrics yet.
    pub fn new(ops: ops::Ops, lines: Vec<String>) -> Self {
        Report {
            ops,
            metrics: Vec::new(),
            lines,
        }
    }

    /// Adds one metric as the median of `samples`, with its printed line. A
    /// metric nothing was measured for fails the run and reads 0.
    pub fn push_metric(&mut self, name: &'static str, unit: &'static str, samples: &[f64]) {
        if samples.is_empty() {
            self.ops.check(name, Err("no sample was measured".into()));
            self.metrics.push((name, 0.0, unit));
            return;
        }
        let q = stats::summary(samples);
        self.lines.push(metric_line(name, unit, &q));
        self.metrics.push((name, q.median, unit));
    }

    /// True when no operation failed.
    pub fn correct(&self) -> bool {
        self.ops.failed == 0
    }

    /// The one-line JSON result the acceptance driver reads.
    pub fn result_line(&self) -> String {
        let metrics: Vec<String> = self
            .metrics
            .iter()
            .map(|(name, value, unit)| {
                // JSON has no NaN; a poisoned value already failed its check.
                let value = if value.is_finite() { *value } else { 0.0 };
                format!(
                    "{}: {{\"value\": {value}, \"unit\": {}}}",
                    trace::json_str(name),
                    trace::json_str(unit)
                )
            })
            .collect();
        format!(
            "{{\"correct\": {}, \"attempted\": {}, \"failed\": {}, \"metrics\": {{{}}}}}",
            self.correct(),
            self.ops.attempted,
            self.ops.failed,
            metrics.join(", ")
        )
    }
}
