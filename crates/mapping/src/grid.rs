//! Processor grids.

/// A `Pr × Pc` processor grid. Processor `(r, c)` is flattened to the linear
/// rank `r·Pc + c`.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct ProcGrid {
    /// Number of processor rows.
    pub pr: usize,
    /// Number of processor columns.
    pub pc: usize,
}

impl ProcGrid {
    /// Builds an explicit grid.
    pub fn new(pr: usize, pc: usize) -> Self {
        assert!(pr >= 1 && pc >= 1);
        Self { pr, pc }
    }

    /// The square grid `√P × √P` the paper uses in all experiments
    /// (`P` must be a perfect square).
    pub fn square(p: usize) -> Self {
        let s = (p as f64).sqrt().round() as usize;
        assert_eq!(s * s, p, "P = {p} is not a perfect square");
        Self { pr: s, pc: s }
    }

    /// The most-square factorization `Pr × Pc = P` with `Pr ≤ Pc`.
    pub fn near_square(p: usize) -> Self {
        let mut pr = (p as f64).sqrt() as usize;
        while pr > 1 && !p.is_multiple_of(pr) {
            pr -= 1;
        }
        Self { pr: pr.max(1), pc: p / pr.max(1) }
    }

    /// The Section 4.2 variant: the most-square factorization of `P` whose
    /// dimensions are relatively prime, so that cyclic row/column maps
    /// scatter the block diagonal over all processors. Returns `None` when
    /// the only such factorization is the degenerate `1 × P`and `P > 3`.
    pub fn coprime(p: usize) -> Option<Self> {
        let mut best: Option<(usize, usize)> = None;
        let mut d = 1usize;
        while d * d <= p {
            if p.is_multiple_of(d) {
                let (a, b) = (d, p / d);
                if gcd(a, b) == 1 && (a > 1 || p <= 3) {
                    best = Some((a, b)); // increasing d → more square
                }
            }
            d += 1;
        }
        best.map(|(a, b)| Self { pr: a, pc: b })
    }

    /// Total processor count.
    #[inline]
    pub fn p(&self) -> usize {
        self.pr * self.pc
    }

    /// Linear rank of grid position `(r, c)`.
    #[inline]
    pub fn rank(&self, r: usize, c: usize) -> usize {
        debug_assert!(r < self.pr && c < self.pc);
        r * self.pc + c
    }

    /// Grid position of a linear rank.
    #[inline]
    pub fn coords(&self, rank: usize) -> (usize, usize) {
        (rank / self.pc, rank % self.pc)
    }
}

fn gcd(mut a: usize, mut b: usize) -> usize {
    while b != 0 {
        (a, b) = (b, a % b);
    }
    a
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn square_grids() {
        let g = ProcGrid::square(64);
        assert_eq!((g.pr, g.pc), (8, 8));
        assert_eq!(g.p(), 64);
    }

    #[test]
    #[should_panic]
    fn square_rejects_non_squares() {
        ProcGrid::square(63);
    }

    #[test]
    fn rank_roundtrip() {
        let g = ProcGrid::new(3, 5);
        for r in 0..3 {
            for c in 0..5 {
                assert_eq!(g.coords(g.rank(r, c)), (r, c));
            }
        }
    }

    #[test]
    fn coprime_grids_match_paper_examples() {
        // The paper: "one fewer processor produces relatively prime grid
        // dimensions" — 63 = 9×7, 99 = 11×9.
        assert_eq!(ProcGrid::coprime(63), Some(ProcGrid::new(7, 9)));
        assert_eq!(ProcGrid::coprime(99), Some(ProcGrid::new(9, 11)));
        // 143 = 11×13 for the 144-node experiments.
        assert_eq!(ProcGrid::coprime(143), Some(ProcGrid::new(11, 13)));
    }

    #[test]
    fn coprime_rejects_prime_powers_needing_1xp() {
        // 64 = 2^6: every nontrivial split shares a factor of 2.
        assert_eq!(ProcGrid::coprime(64), None);
        // Small cases may use 1×p.
        assert_eq!(ProcGrid::coprime(2), Some(ProcGrid::new(1, 2)));
    }

    #[test]
    fn near_square_splits() {
        assert_eq!(ProcGrid::near_square(12), ProcGrid::new(3, 4));
        assert_eq!(ProcGrid::near_square(7), ProcGrid::new(1, 7));
    }
}
