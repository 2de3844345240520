//! Order statistics of timing samples: median, quartiles, and tail
//! percentiles guarded by the "ten samples beyond" rule.

/// Median, quartiles and count of one metric's samples.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct Summary {
    /// Sample count.
    pub n: usize,
    /// Smallest sample.
    pub min: f64,
    /// First quartile.
    pub q1: f64,
    /// Median.
    pub median: f64,
    /// Third quartile.
    pub q3: f64,
}

fn sorted(samples: &[f64]) -> Vec<f64> {
    let mut v = samples.to_vec();
    v.sort_by(f64::total_cmp);
    v
}

/// The three quartile cut points, computed as Python's
/// `statistics.quantiles(values, n=4)` does (the exclusive method), so the
/// spreads printed here are the ones the acceptance driver computes. A
/// single sample is its own quartiles.
pub fn summary(samples: &[f64]) -> Summary {
    assert!(!samples.is_empty(), "no samples");
    let v = sorted(samples);
    let ld = v.len();
    if ld == 1 {
        return Summary {
            n: 1,
            min: v[0],
            q1: v[0],
            median: v[0],
            q3: v[0],
        };
    }
    let cut = |i: usize| {
        let m = ld + 1;
        let j = (i * m / 4).clamp(1, ld - 1);
        // Signed: the clamp can push `j·4` past `i·m` on tiny inputs.
        let delta = (i * m) as f64 - (j * 4) as f64;
        (v[j - 1] * (4.0 - delta) + v[j] * delta) / 4.0
    };
    Summary {
        n: ld,
        min: v[0],
        q1: cut(1),
        median: cut(2),
        q3: cut(3),
    }
}

/// Median of the samples.
pub fn median(samples: &[f64]) -> f64 {
    summary(samples).median
}

/// A nearest-rank percentile together with how many samples lie beyond it.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct Tail {
    /// The `q`-quantile (nearest rank: the `⌈q·n⌉`-th smallest sample).
    pub value: f64,
    /// Samples strictly above that rank.
    pub beyond: usize,
}

/// Samples a tail percentile needs beyond it before it is reported as a
/// steady number (choosing-metrics §1).
pub const MIN_BEYOND: usize = 10;

/// Nearest-rank `q`-quantile, `0 < q < 1`.
pub fn percentile(samples: &[f64], q: f64) -> Tail {
    assert!(!samples.is_empty(), "no samples");
    assert!(q > 0.0 && q < 1.0, "quantile out of range");
    let v = sorted(samples);
    let rank = ((q * v.len() as f64).ceil() as usize).clamp(1, v.len());
    Tail {
        value: v[rank - 1],
        beyond: v.len() - rank,
    }
}

/// Samples on each side of one that make up its neighbourhood in
/// [`detrended`]: nine cycles span about a second on the largest workload.
pub const DETREND_HALF_WINDOW: usize = 4;

/// Each sample divided by the median of the samples around it in time
/// (`half` on each side, fewer at the ends). Host slow-downs that last
/// longer than the window cancel out of the ratios; a sample that is slow
/// *against its neighbours* — the solver's own tail — keeps its excess.
pub fn detrended(samples: &[f64], half: usize) -> Vec<f64> {
    (0..samples.len())
        .map(|i| {
            let lo = i.saturating_sub(half);
            let hi = (i + half + 1).min(samples.len());
            samples[i] / median(&samples[lo..hi])
        })
        .collect()
}

/// A tail percentile was asked of too few samples.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct TooFewSamples {
    /// Samples beyond the requested rank.
    pub beyond: usize,
    /// Samples given.
    pub have: usize,
}

impl std::fmt::Display for TooFewSamples {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(
            f,
            "{} samples leave {} beyond the percentile; the rule asks for {MIN_BEYOND}",
            self.have, self.beyond
        )
    }
}

/// [`percentile`] that refuses unless at least [`MIN_BEYOND`] samples lie
/// beyond the rank: p95 needs 200 samples, p99 needs 1000.
pub fn percentile_checked(samples: &[f64], q: f64) -> Result<f64, TooFewSamples> {
    let t = percentile(samples, q);
    if t.beyond >= MIN_BEYOND {
        Ok(t.value)
    } else {
        Err(TooFewSamples {
            beyond: t.beyond,
            have: samples.len(),
        })
    }
}

/// The highest percentile that still has [`MIN_BEYOND`] samples beyond it
/// (never below the median): what a run reports as its tail when it has too
/// few samples for the percentile it was asked for.
pub fn highest_steady_percentile(samples: &[f64]) -> Tail {
    assert!(!samples.is_empty(), "no samples");
    let v = sorted(samples);
    let n = v.len();
    let rank = n.saturating_sub(MIN_BEYOND).max(n.div_ceil(2));
    Tail {
        value: v[rank - 1],
        beyond: n - rank,
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn quartiles_match_python_statistics_quantiles() {
        // statistics.quantiles([1..10], n=4) == [2.75, 5.5, 8.25]
        let v: Vec<f64> = (1..=10).map(f64::from).collect();
        let s = summary(&v);
        assert_eq!(
            (s.min, s.q1, s.median, s.q3, s.n),
            (1.0, 2.75, 5.5, 8.25, 10)
        );
        // statistics.quantiles([3, 1, 2], n=4) == [1.0, 2.0, 3.0]
        let s = summary(&[3.0, 1.0, 2.0]);
        assert_eq!((s.q1, s.median, s.q3), (1.0, 2.0, 3.0));
        // statistics.quantiles([1, 2], n=4) == [0.75, 1.5, 2.25]
        let s = summary(&[2.0, 1.0]);
        assert_eq!((s.q1, s.median, s.q3), (0.75, 1.5, 2.25));
        // Odd count: the median is the middle sample.
        assert_eq!(median(&[9.0, 1.0, 5.0, 7.0, 3.0]), 5.0);
        assert_eq!(
            summary(&[4.0]),
            Summary {
                n: 1,
                min: 4.0,
                q1: 4.0,
                median: 4.0,
                q3: 4.0
            }
        );
    }

    #[test]
    fn percentile_is_nearest_rank() {
        let v: Vec<f64> = (1..=200).map(f64::from).collect();
        assert_eq!(
            percentile(&v, 0.95),
            Tail {
                value: 190.0,
                beyond: 10
            }
        );
        assert_eq!(percentile(&v, 0.5).value, 100.0);
        assert_eq!(
            percentile(&[7.0], 0.95),
            Tail {
                value: 7.0,
                beyond: 0
            }
        );
    }

    #[test]
    fn too_few_samples_fall_back_to_the_highest_percentile_with_ten_beyond() {
        let v: Vec<f64> = (1..=200).map(f64::from).collect();
        // 38 samples: rank 28 keeps ten beyond (about p74).
        assert_eq!(
            highest_steady_percentile(&v[..38]),
            Tail {
                value: 28.0,
                beyond: 10
            }
        );
        // 199 samples: one rank below the p95 that 200 would allow.
        assert_eq!(highest_steady_percentile(&v[..199]).value, 189.0);
        // Never below the median, however few the samples.
        assert_eq!(highest_steady_percentile(&v[..9]).value, 5.0);
        assert_eq!(highest_steady_percentile(&v[..1]).value, 1.0);
    }

    #[test]
    fn detrending_cancels_a_slow_period_but_keeps_an_isolated_spike() {
        // 40 samples at 1.0, then 40 at 1.3 (the host slowed down), with one
        // 2x spike inside each regime.
        let mut v = vec![1.0; 40];
        v.extend(vec![1.3; 40]);
        v[10] = 2.0;
        v[60] = 2.6;
        let r = detrended(&v, DETREND_HALF_WINDOW);
        assert_eq!(r.len(), v.len());
        assert_eq!(r[10], 2.0);
        assert_eq!(r[60], 2.0);
        assert!(r
            .iter()
            .enumerate()
            .all(|(i, x)| i == 10 || i == 60 || (x - 1.0).abs() < 0.31));
        // Away from the regime change the ratios are exactly one.
        assert!(r[..36]
            .iter()
            .enumerate()
            .all(|(i, x)| i == 10 || *x == 1.0));
        // Raw p95 sits in the slow regime; the detrended one does not.
        assert_eq!(percentile(&v, 0.95).value, 1.3);
        assert_eq!(percentile(&r, 0.95).value, 1.0);
        assert_eq!(detrended(&[3.0], 4), [1.0]);
    }

    #[test]
    fn p95_is_refused_below_two_hundred_samples() {
        let v200: Vec<f64> = (1..=200).map(f64::from).collect();
        assert_eq!(percentile_checked(&v200, 0.95), Ok(190.0));
        let v199 = &v200[..199];
        assert_eq!(
            percentile_checked(v199, 0.95),
            Err(TooFewSamples {
                beyond: 9,
                have: 199
            })
        );
        // The same rule scales with the quantile: p75 needs only 40.
        assert!(percentile_checked(&v200[..40], 0.75).is_ok());
        assert!(percentile_checked(&v200[..39], 0.75).is_err());
    }
}
