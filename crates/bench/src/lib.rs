//! The paper-reproduction harness: regenerates every table and figure of
//! the paper's evaluation (see `DESIGN.md` for the experiment index). Three
//! binaries:
//!
//! * `repro` drives the [`experiments`] module (EXPERIMENTS.md);
//! * `chol` is the command-line solver for Matrix Market files;
//! * `calibrate` prints the generated suites' statistics next to the
//!   paper's, to tune the synthetic matrix generators.
//!
//! ```text
//! cargo run --release -p bench --bin repro -- all --scale full
//! ```
//!
//! Performance is measured by the benchmark of record (`crates/benchmark`),
//! not here.

pub mod experiments;
pub mod table;

use cholesky_core::{Solver, SolverOptions};
use sparsemat::gen::SuiteScale;
use std::collections::HashMap;

/// Paper reference values used for side-by-side reporting:
/// `(name, equations, nz_l, ops_millions)` from Tables 1 and 6.
pub const PAPER_MATRIX_STATS: &[(&str, usize, u64, f64)] = &[
    ("DENSE1024", 1024, 523_776, 358.4),
    ("DENSE2048", 2048, 2_096_128, 2_865.4),
    ("GRID150", 22_500, 656_027, 56.5),
    ("GRID300", 90_000, 3_266_773, 482.0),
    ("CUBE30", 27_000, 6_233_404, 3_904.3),
    ("CUBE35", 42_875, 12_093_814, 10_114.7),
    ("BCSSTK15", 3_948, 647_274, 165.0),
    ("BCSSTK29", 13_992, 1_680_804, 393.1),
    ("BCSSTK31", 35_588, 5_272_659, 2_551.0),
    ("BCSSTK33", 8_738, 2_538_064, 1_203.5),
    ("DENSE4096", 4_096, 8_386_560, 22_915.0),
    ("CUBE40", 64_000, 21_408_189, 23_084.0),
    ("COPTER2", 55_476, 13_501_253, 11_377.0),
    ("10FLEET", 11_222, 4_782_460, 7_450.0),
];

/// Looks up a paper stat row by matrix name.
pub fn paper_stats(name: &str) -> Option<(usize, u64, f64)> {
    PAPER_MATRIX_STATS
        .iter()
        .find(|r| r.0 == name)
        .map(|r| (r.1, r.2, r.3))
}

/// Experiment context: problem scale, processor counts scaled to match, and
/// a cache of analyzed solvers (analysis of the big matrices — especially
/// the minimum degree ordering of 10FLEET — is the slow part).
pub struct Ctx {
    /// Problem scale.
    pub scale: SuiteScale,
    /// The two "small machine" sizes (paper: 64 and 100).
    pub p_small: [usize; 2],
    /// The two "large machine" sizes (paper: 144 and 196).
    pub p_large: [usize; 2],
    /// Solver options (block size 48, amalgamation, domains — the paper's
    /// configuration).
    pub opts: SolverOptions,
    solvers: HashMap<String, Solver>,
}

impl Ctx {
    /// Creates a context for the given scale. Processor counts shrink with
    /// the problems so miniature runs still have enough blocks per
    /// processor to be meaningful.
    pub fn new(scale: SuiteScale) -> Self {
        let (p_small, p_large, block_size) = match scale {
            SuiteScale::Full => ([64, 100], [144, 196], 48),
            SuiteScale::Medium => ([16, 25], [36, 49], 24),
            SuiteScale::Tiny => ([4, 9], [9, 16], 8),
        };
        Self {
            scale,
            p_small,
            p_large,
            opts: SolverOptions { block_size, ..Default::default() },
            solvers: HashMap::new(),
        }
    }

    /// The Table 1 benchmark suite at this scale.
    pub fn paper_problems(&self) -> Vec<sparsemat::Problem> {
        sparsemat::gen::scaled_paper_suite(self.scale)
    }

    /// The Table 6 large problems at this scale (plus CUBE35 and BCSSTK31
    /// from the base suite, as in Table 7).
    pub fn large_problems(&self) -> Vec<sparsemat::Problem> {
        let base = sparsemat::gen::scaled_paper_suite(self.scale);
        let mut out: Vec<sparsemat::Problem> = base
            .into_iter()
            .filter(|p| p.name == "CUBE35" || p.name == "BCSSTK31")
            .collect();
        out.extend(sparsemat::gen::large_suite(self.scale));
        out
    }

    /// Orders + analyzes a problem, caching the result by name. Uses the
    /// paper's ordering regime ([`Solver::analyze_problem_paper`]: the
    /// generator hint, not the Auto probe) so the reproduced tables stay
    /// comparable to the published numbers as the production default
    /// ordering improves.
    pub fn solver(&mut self, problem: &sparsemat::Problem) -> &Solver {
        if !self.solvers.contains_key(&problem.name) {
            let solver = Solver::analyze_problem_paper(problem, &self.opts);
            self.solvers.insert(problem.name.clone(), solver);
        }
        &self.solvers[&problem.name]
    }
}
