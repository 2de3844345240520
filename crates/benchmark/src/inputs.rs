//! Seeded inputs: the matrices, value sets, right-hand sides and reference
//! answers of one workload. The solver only ever sees these — never the
//! generator's `Problem` with its coordinates or ordering hint.

use cholesky_core::{AnalyzeOpts, OrderingChoice, SolverOptions, SymCscMatrix};

/// Value sets a session cycles through, and lanes of a batched solve.
pub const SETS: usize = 8;

/// The four workloads.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Kind {
    /// `gen::cube3d(30)`.
    Cube3d,
    /// `gen::grid2d(300)`.
    Grid2d,
    /// `gen::bcsstk_like(14 000)` under pinned minimum degree.
    Irregular,
    /// `gen::copter_like(20 000)`, session-heavy.
    Serve,
}

impl Kind {
    /// The workload called `name` in [`crate::spec::WORKLOADS`].
    pub fn from_name(name: &str) -> Option<Kind> {
        match name {
            "cube3d" => Some(Kind::Cube3d),
            "grid2d" => Some(Kind::Grid2d),
            "irregular" => Some(Kind::Irregular),
            "serve" => Some(Kind::Serve),
            _ => None,
        }
    }

    /// Its name.
    pub fn name(self) -> &'static str {
        match self {
            Kind::Cube3d => "cube3d",
            Kind::Grid2d => "grid2d",
            Kind::Irregular => "irregular",
            Kind::Serve => "serve",
        }
    }

    /// The mesh seed used when none is given. The irregular generators'
    /// factor cost moves ±20 % from one mesh to the next (and `Auto` flips
    /// ordering on some), which would drown any change in run-to-run
    /// spread; so the *structure* is pinned per workload and `--seed`
    /// drives every numeric value. `--mesh-seed` picks another structure.
    pub fn default_mesh_seed(self) -> u64 {
        match self {
            Kind::Irregular => 3,
            _ => 1,
        }
    }

    /// Solver options: the defaults (B = 48, default amalgamation and
    /// mapping policies) with the analyze thread count pinned to one, and
    /// minimum degree pinned on `irregular`.
    pub fn solver_options(self) -> SolverOptions {
        SolverOptions {
            analyze: AnalyzeOpts {
                workers: Some(1),
                ..AnalyzeOpts::default()
            },
            ordering: match self {
                Kind::Irregular => OrderingChoice::MinimumDegree,
                _ => OrderingChoice::Auto,
            },
            ..SolverOptions::default()
        }
    }

    fn base_matrix(self, mesh_seed: u64, quick: bool) -> SymCscMatrix {
        use sparsemat::gen;
        let p = match (self, quick) {
            (Kind::Cube3d, false) => gen::cube3d(30),
            (Kind::Cube3d, true) => gen::cube3d(9),
            (Kind::Grid2d, false) => gen::grid2d(300),
            (Kind::Grid2d, true) => gen::grid2d(30),
            (Kind::Irregular, false) => gen::bcsstk_like("irregular", 14_000, mesh_seed),
            (Kind::Irregular, true) => gen::bcsstk_like("irregular", 600, mesh_seed),
            (Kind::Serve, false) => gen::copter_like("serve", 20_000, mesh_seed),
            (Kind::Serve, true) => gen::copter_like("serve", 900, mesh_seed),
        };
        p.matrix
    }
}

/// SplitMix64: the benchmark's own generator, so its inputs do not change
/// when a crate under test changes its random stream.
#[derive(Debug, Clone)]
pub struct Rng(u64);

impl Rng {
    /// A generator for `seed`.
    pub fn new(seed: u64) -> Self {
        Rng(seed)
    }

    /// Next 64 random bits.
    pub fn next_u64(&mut self) -> u64 {
        self.0 = self.0.wrapping_add(0x9E37_79B9_7F4A_7C15);
        let mut z = self.0;
        z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
        z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
        z ^ (z >> 31)
    }

    /// Uniform in `[0, 1)`.
    pub fn unit(&mut self) -> f64 {
        (self.next_u64() >> 11) as f64 / (1u64 << 53) as f64
    }
}

/// Everything one workload run feeds the solver and checks it against.
#[derive(Debug)]
pub struct Inputs {
    /// [`SETS`] SPD matrices on one pattern; `a[0]` is the cold-request
    /// matrix, all of them feed `refactor`.
    pub a: Vec<SymCscMatrix>,
    /// `‖a[i]‖∞`, for the backward error.
    pub norm_a: Vec<f64>,
    /// [`SETS`] reference solutions; lane 0 is the single-RHS truth.
    pub x_true: Vec<Vec<f64>>,
    /// `b[i] = a[i] · x_true[0]`.
    pub b: Vec<Vec<f64>>,
}

/// `‖A‖∞` of a symmetric matrix stored as its lower triangle.
fn norm_inf(a: &SymCscMatrix) -> f64 {
    let mut rows = vec![0.0f64; a.n()];
    for j in 0..a.n() {
        for (&i, &v) in a.col_rows(j).iter().zip(a.col_values(j)) {
            rows[i as usize] += v.abs();
            if i as usize != j {
                rows[j] += v.abs();
            }
        }
    }
    rows.into_iter().fold(0.0, f64::max)
}

impl Inputs {
    /// Generates the inputs of `kind` from `seed` (numeric values) and
    /// `mesh_seed` (structure of the irregular meshes).
    ///
    /// Each value set scales the generator's strictly diagonally dominant
    /// matrix by a positive factor and then *raises* each diagonal entry by
    /// up to 10 %, so every set stays strictly diagonally dominant and SPD.
    pub fn generate(kind: Kind, seed: u64, mesh_seed: u64, quick: bool) -> Inputs {
        let base = kind.base_matrix(mesh_seed, quick);
        let n = base.n();
        let mut rng = Rng::new(seed);
        let pattern = base.pattern().clone();
        let a: Vec<SymCscMatrix> = (0..SETS)
            .map(|k| {
                let scale = if k == 0 { 1.0 } else { 0.5 + rng.unit() };
                let mut values: Vec<f64> = base.values().iter().map(|v| v * scale).collect();
                for j in 0..n {
                    // Columns store the lower triangle sorted by row, so a
                    // column's first entry is its diagonal.
                    values[pattern.col_ptr()[j]] *= 1.0 + 0.1 * rng.unit();
                }
                SymCscMatrix::new(pattern.clone(), values).expect("values match the pattern")
            })
            .collect();
        let x_true: Vec<Vec<f64>> = (0..SETS)
            .map(|_| (0..n).map(|_| 0.5 + rng.unit()).collect())
            .collect();
        let b = a
            .iter()
            .map(|ai| {
                let mut bi = vec![0.0; n];
                ai.mul_vec(&x_true[0], &mut bi);
                bi
            })
            .collect();
        let norm_a = a.iter().map(norm_inf).collect();
        Inputs {
            a,
            norm_a,
            x_true,
            b,
        }
    }

    /// Matrix dimension.
    pub fn n(&self) -> usize {
        self.a[0].n()
    }

    /// Right-hand sides `a[set] · x_true[lane]` for every lane: the batch
    /// a `resolve_many` against value set `set` is checked on.
    pub fn batch_rhs(&self, set: usize) -> Vec<Vec<f64>> {
        self.x_true
            .iter()
            .map(|x| {
                let mut b = vec![0.0; self.n()];
                self.a[set].mul_vec(x, &mut b);
                b
            })
            .collect()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn same_seed_same_inputs_other_seed_other_values() {
        let a = Inputs::generate(Kind::Irregular, 7, 3, true);
        let b = Inputs::generate(Kind::Irregular, 7, 3, true);
        let c = Inputs::generate(Kind::Irregular, 8, 3, true);
        assert_eq!(a.a[3].values(), b.a[3].values());
        assert_eq!(a.b, b.b);
        assert_ne!(a.a[0].values(), c.a[0].values());
        // The seed moves values only; the structure follows the mesh seed.
        assert_eq!(a.a[0].pattern(), c.a[0].pattern());
        let d = Inputs::generate(Kind::Irregular, 7, 4, true);
        assert_ne!(a.a[0].pattern(), d.a[0].pattern());
    }

    #[test]
    fn value_sets_stay_diagonally_dominant() {
        let inp = Inputs::generate(Kind::Serve, 11, 1, true);
        for a in &inp.a {
            let n = a.n();
            let mut off = vec![0.0f64; n];
            for j in 0..n {
                for (&i, &v) in a.col_rows(j).iter().zip(a.col_values(j)) {
                    if i as usize != j {
                        off[i as usize] += v.abs();
                        off[j] += v.abs();
                    }
                }
            }
            for (j, off_j) in off.iter().enumerate() {
                assert!(a.get(j, j) > *off_j, "row {j} lost dominance");
            }
        }
    }
}
