//! Operation accounting and the correctness checks. Every analyze, factor,
//! solve, refactor, resolve and check is one operation; a failed or
//! panicking one is caught and counted, never propagated.

use cholesky_core::{NumericFactor, SymCscMatrix};
use std::panic::{catch_unwind, AssertUnwindSafe};
use std::time::Instant;

/// Normwise backward error every solve must reach.
pub const BACKWARD_TOL: f64 = 1e-12;
/// Forward error against `x_true` every solve must reach.
pub const FORWARD_TOL: f64 = 1e-6;

/// Attempted / failed operation counts of one run.
#[derive(Debug, Default)]
pub struct Ops {
    /// Operations started.
    pub attempted: u64,
    /// Operations that returned an error, panicked, or failed a check.
    pub failed: u64,
    /// One line per failure.
    pub failures: Vec<String>,
    /// Largest backward error any checked solve showed.
    pub backward_error_max: f64,
}

impl Ops {
    /// Runs one operation; `None` (and one failure) if it errs or panics.
    pub fn run<T>(&mut self, what: &str, f: impl FnOnce() -> Result<T, String>) -> Option<T> {
        self.attempted += 1;
        let failure = match catch_unwind(AssertUnwindSafe(f)) {
            Ok(Ok(v)) => return Some(v),
            Ok(Err(e)) => e,
            Err(payload) => match payload.downcast_ref::<String>() {
                Some(s) => format!("panicked: {s}"),
                None => match payload.downcast_ref::<&str>() {
                    Some(s) => format!("panicked: {s}"),
                    None => "panicked".to_string(),
                },
            },
        };
        self.failed += 1;
        self.failures.push(format!("{what}: {failure}"));
        None
    }

    /// [`Self::run`] for an infallible call, returning its wall seconds too.
    pub fn timed<T>(&mut self, what: &str, f: impl FnOnce() -> T) -> Option<(T, f64)> {
        self.run(what, || Ok(timed(f)))
    }

    /// One check operation.
    pub fn check(&mut self, what: &str, verdict: Result<(), String>) {
        self.run(what, || verdict);
    }

    /// Checks a solution of `a·x = b` against both tolerances.
    pub fn check_solution(
        &mut self,
        what: &str,
        a: &SymCscMatrix,
        norm_a: f64,
        x: &[f64],
        b: &[f64],
        x_true: &[f64],
    ) {
        let be = backward_error(a, norm_a, x, b);
        self.backward_error_max = sticky_max(self.backward_error_max, be);
        let fe = forward_error(x, x_true);
        let ok = be <= BACKWARD_TOL && fe <= FORWARD_TOL;
        self.check(
            what,
            if ok {
                Ok(())
            } else {
                Err(format!("backward error {be:.3e} (≤ {BACKWARD_TOL:e}), forward error {fe:.3e} (≤ {FORWARD_TOL:e})"))
            },
        );
    }

    /// Checks two factors for bit identity.
    pub fn check_bits(&mut self, what: &str, got: &NumericFactor, want: &NumericFactor) {
        self.check(
            what,
            verdict(factors_bit_identical(got, want), "factors differ bitwise"),
        );
    }
}

/// `Ok` when `ok`, otherwise `Err(what)`: a check's outcome.
pub fn verdict(ok: bool, what: &str) -> Result<(), String> {
    if ok {
        Ok(())
    } else {
        Err(what.to_string())
    }
}

/// Runs `f`, returning its result and wall-clock seconds.
pub fn timed<T>(f: impl FnOnce() -> T) -> (T, f64) {
    let t = Instant::now();
    let v = f();
    (v, t.elapsed().as_secs_f64())
}

/// Maximum that keeps a NaN once it has seen one (`f64::max` drops NaN,
/// which would hide a poisoned answer).
fn sticky_max(m: f64, x: f64) -> f64 {
    if m.is_nan() || x <= m {
        m
    } else {
        x
    }
}

fn norm_inf(v: &[f64]) -> f64 {
    v.iter().fold(0.0, |m, x| sticky_max(m, x.abs()))
}

/// `‖A·x − b‖∞ / (‖A‖∞·‖x‖∞ + ‖b‖∞)` against the *original* matrix.
pub fn backward_error(a: &SymCscMatrix, norm_a: f64, x: &[f64], b: &[f64]) -> f64 {
    let mut r = vec![0.0; x.len()];
    a.mul_vec(x, &mut r);
    for (ri, bi) in r.iter_mut().zip(b) {
        *ri -= bi;
    }
    norm_inf(&r) / (norm_a * norm_inf(x) + norm_inf(b))
}

/// `‖x − x_true‖∞ / ‖x_true‖∞`.
pub fn forward_error(x: &[f64], x_true: &[f64]) -> f64 {
    let d: Vec<f64> = x.iter().zip(x_true).map(|(a, b)| a - b).collect();
    norm_inf(&d) / norm_inf(x_true)
}

/// True when two vectors agree bit for bit.
pub fn bits_equal(a: &[f64], b: &[f64]) -> bool {
    a.len() == b.len() && a.iter().zip(b).all(|(x, y)| x.to_bits() == y.to_bits())
}

/// True when two factors hold bit-identical block storage.
pub fn factors_bit_identical(a: &NumericFactor, b: &NumericFactor) -> bool {
    a.data.len() == b.data.len() && a.data.iter().zip(&b.data).all(|(x, y)| bits_equal(x, y))
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn errors_and_panics_are_counted_not_propagated() {
        let mut ops = Ops::default();
        assert_eq!(ops.run("ok", || Ok(3)), Some(3));
        assert_eq!(ops.run::<()>("err", || Err("boom".into())), None);
        assert_eq!(ops.run::<()>("panic", || panic!("kaboom {}", 7)), None);
        assert_eq!((ops.attempted, ops.failed), (3, 2));
        assert_eq!(ops.failures, ["err: boom", "panic: panicked: kaboom 7"]);
    }

    #[test]
    fn solution_check_rejects_wrong_and_nan_answers() {
        let a = SymCscMatrix::from_coords(2, &[(0, 0, 2.0), (1, 0, 1.0), (1, 1, 3.0)]).unwrap();
        let x_true = [1.0, 2.0];
        let b = [4.0, 7.0];
        let mut ops = Ops::default();
        ops.check_solution("exact", &a, 4.0, &x_true, &b, &x_true);
        assert_eq!(ops.failed, 0);
        ops.check_solution("off", &a, 4.0, &[1.0, 2.001], &b, &x_true);
        ops.check_solution("nan", &a, 4.0, &[f64::NAN, 2.0], &b, &x_true);
        assert_eq!((ops.attempted, ops.failed), (3, 2));
        assert!(ops.backward_error_max.is_nan());
    }

    #[test]
    fn bit_identity_sees_a_sign_of_zero() {
        assert!(bits_equal(&[0.0, 1.5], &[0.0, 1.5]));
        assert!(!bits_equal(&[0.0], &[-0.0]));
        assert!(!bits_equal(&[1.0], &[1.0, 2.0]));
    }
}
