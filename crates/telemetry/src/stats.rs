//! Noise-aware change detection over binned latency samples.
//!
//! The perf-regression gate (see `cam-bench`'s trajectory runner) needs to
//! tell a real latency shift from run-to-run noise without pulling in a
//! statistics crate. Both tests here run directly on the log-linear
//! [`Histogram`](crate::Histogram) bins
//! ([`Histogram::bins`](crate::Histogram::bins) `(value, count)` pairs), so
//! a multi-million sample comparison costs a few hundred bin entries:
//!
//! * [`mann_whitney`] — the Mann-Whitney U rank test (normal approximation
//!   with tie correction; bins are ties by construction). Nonparametric, so
//!   it needs no distributional assumption about latency — exactly right
//!   for long-tailed service times.
//! * [`bootstrap_quantile_ci`] — a seeded percentile-bootstrap confidence
//!   interval for any quantile of the binned distribution. Deterministic:
//!   the same bins, seed and resample count reproduce the interval bit for
//!   bit, which keeps committed baselines meaningful in CI.
//!
//! Everything is pure and allocation-light; no wall clock, no global RNG.

/// Result of the one-sided Mann-Whitney U comparison of two binned samples.
#[derive(Clone, Copy, Debug, PartialEq)]
pub struct MannWhitney {
    /// Samples in the baseline distribution.
    pub n_baseline: u64,
    /// Samples in the current distribution.
    pub n_current: u64,
    /// The U statistic of the *current* sample (large U ⇒ current values
    /// tend to be larger, i.e. slower).
    pub u_current: f64,
    /// Normal-approximation z-score of `u_current`, tie-corrected.
    /// Positive ⇒ current tends larger/slower than baseline; ~0 for
    /// identical distributions.
    pub z: f64,
}

impl MannWhitney {
    /// Whether the "current is slower" direction is significant at the
    /// given z threshold (e.g. 3.0 ≈ p < 0.0013 one-sided).
    pub fn slower_than_baseline(&self, z_threshold: f64) -> bool {
        self.z > z_threshold
    }
}

/// Mann-Whitney U test of `current` against `baseline`, both given as
/// ascending `(value, count)` bins (as produced by
/// [`Histogram::bins`](crate::Histogram::bins)). Returns `None` if either
/// sample is empty.
///
/// Equal values across the two samples are ties and receive midranks; the
/// z denominator carries the standard tie correction
/// `Σ(t³−t) / (N(N−1))`. With every sample binned, ties are the common
/// case, so the correction matters.
pub fn mann_whitney(baseline: &[(u64, u64)], current: &[(u64, u64)]) -> Option<MannWhitney> {
    let n1: u64 = baseline.iter().map(|&(_, c)| c).sum();
    let n2: u64 = current.iter().map(|&(_, c)| c).sum();
    if n1 == 0 || n2 == 0 {
        return None;
    }
    // Merge-walk the two ascending bin lists, accumulating, per distinct
    // value v: U_current += cur(v) · (base(<v) + base(v)/2).
    let (mut i, mut j) = (0usize, 0usize);
    let mut base_below = 0u64; // baseline samples with value < v
    let mut u_current = 0.0f64;
    let mut tie_term = 0.0f64; // Σ (t³ − t) over distinct values
    while i < baseline.len() || j < current.len() {
        let bv = baseline.get(i).map(|&(v, _)| v);
        let cv = current.get(j).map(|&(v, _)| v);
        let v = match (bv, cv) {
            (Some(b), Some(c)) => b.min(c),
            (Some(b), None) => b,
            (None, Some(c)) => c,
            (None, None) => unreachable!(),
        };
        let mut tb = 0u64;
        if bv == Some(v) {
            tb = baseline[i].1;
            i += 1;
        }
        let mut tc = 0u64;
        if cv == Some(v) {
            tc = current[j].1;
            j += 1;
        }
        u_current += tc as f64 * (base_below as f64 + tb as f64 / 2.0);
        base_below += tb;
        let t = (tb + tc) as f64;
        tie_term += t * t * t - t;
    }
    let n1f = n1 as f64;
    let n2f = n2 as f64;
    let n = n1f + n2f;
    let mean = n1f * n2f / 2.0;
    // Tie-corrected variance of U under H0.
    let var = n1f * n2f / 12.0 * ((n + 1.0) - tie_term / (n * (n - 1.0)));
    let z = if var > 0.0 {
        (u_current - mean) / var.sqrt()
    } else {
        0.0 // all samples share one value: no evidence either way
    };
    Some(MannWhitney {
        n_baseline: n1,
        n_current: n2,
        u_current,
        z,
    })
}

/// A two-sided confidence interval for a quantile, from
/// [`bootstrap_quantile_ci`].
#[derive(Clone, Copy, Debug, PartialEq)]
pub struct QuantileCi {
    /// The quantile estimated (0..=1).
    pub q: f64,
    /// Point estimate on the full sample.
    pub point: u64,
    /// Lower confidence bound.
    pub lo: u64,
    /// Upper confidence bound.
    pub hi: u64,
}

impl QuantileCi {
    /// Whether `value` falls outside `[lo, hi]`.
    pub fn excludes(&self, value: u64) -> bool {
        value < self.lo || value > self.hi
    }
}

/// The quantile of a binned sample: the smallest bin value at or above the
/// `ceil(q·n)`-th sample. Returns 0 on an empty sample. Matches
/// [`Histogram::quantile`](crate::Histogram::quantile) semantics up to the
/// min/max clamp (bins carry no min/max).
pub fn binned_quantile(bins: &[(u64, u64)], q: f64) -> u64 {
    let n: u64 = bins.iter().map(|&(_, c)| c).sum();
    if n == 0 {
        return 0;
    }
    let q = q.clamp(0.0, 1.0);
    let target = ((q * n as f64).ceil() as u64).max(1);
    let mut seen = 0;
    for &(v, c) in bins {
        seen += c;
        if seen >= target {
            return v;
        }
    }
    bins.last().map(|&(v, _)| v).unwrap_or(0)
}

/// Mean of a binned sample (0.0 if empty).
pub fn binned_mean(bins: &[(u64, u64)]) -> f64 {
    let n: u64 = bins.iter().map(|&(_, c)| c).sum();
    if n == 0 {
        return 0.0;
    }
    let sum: u128 = bins
        .iter()
        .map(|&(v, c)| u128::from(v) * u128::from(c))
        .sum();
    sum as f64 / n as f64
}

/// The splitmix64-style seeded generator the bootstrap resampler uses:
/// deterministic, decent equidistribution, three lines.
#[derive(Clone, Copy, Debug)]
struct SplitMix(u64);

impl SplitMix {
    fn next(&mut self) -> u64 {
        self.0 = self.0.wrapping_add(0x9E37_79B9_7F4A_7C15);
        let mut z = self.0;
        z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
        z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
        z ^ (z >> 31)
    }

    /// Uniform in `[0, n)` without modulo bias worth caring about here
    /// (n ≪ 2^64).
    fn below(&mut self, n: u64) -> u64 {
        self.next() % n.max(1)
    }
}

/// Percentile-bootstrap confidence interval for quantile `q` of a binned
/// sample: draws `resamples` bootstrap resamples of size n (inverse-CDF
/// sampling from the empirical distribution), computes the quantile of
/// each, and returns the `alpha/2` / `1−alpha/2` percentiles of those
/// quantiles. Deterministic under `seed`. Returns `None` on an empty
/// sample or `resamples == 0`.
pub fn bootstrap_quantile_ci(
    bins: &[(u64, u64)],
    q: f64,
    resamples: usize,
    alpha: f64,
    seed: u64,
) -> Option<QuantileCi> {
    let n: u64 = bins.iter().map(|&(_, c)| c).sum();
    if n == 0 || resamples == 0 {
        return None;
    }
    // Cumulative counts once; each draw is a binary search.
    let mut cum = Vec::with_capacity(bins.len());
    let mut acc = 0u64;
    for &(v, c) in bins {
        acc += c;
        cum.push((acc, v));
    }
    let mut rng = SplitMix(seed ^ 0xB007_57A9);
    let mut estimates = Vec::with_capacity(resamples);
    // Resampled quantile via counting: draw n ranks, count how many land
    // below each bin — equivalent to resampling the values themselves
    // because the quantile only needs per-bin counts.
    let mut counts = vec![0u64; bins.len()];
    for _ in 0..resamples {
        counts.iter_mut().for_each(|c| *c = 0);
        for _ in 0..n {
            let r = rng.below(n);
            let idx = cum.partition_point(|&(c, _)| c <= r);
            counts[idx] += 1;
        }
        let target = ((q.clamp(0.0, 1.0) * n as f64).ceil() as u64).max(1);
        let mut seen = 0;
        let mut est = bins.last().map(|&(v, _)| v).unwrap_or(0);
        for (k, &c) in counts.iter().enumerate() {
            seen += c;
            if seen >= target {
                est = bins[k].0;
                break;
            }
        }
        estimates.push(est);
    }
    estimates.sort_unstable();
    let alpha = alpha.clamp(1e-6, 0.5);
    let lo_idx = ((alpha / 2.0) * (resamples - 1) as f64).round() as usize;
    let hi_idx = ((1.0 - alpha / 2.0) * (resamples - 1) as f64).round() as usize;
    Some(QuantileCi {
        q,
        point: binned_quantile(bins, q),
        lo: estimates[lo_idx.min(resamples - 1)],
        hi: estimates[hi_idx.min(resamples - 1)],
    })
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::hist::Histogram;

    fn hist_of(values: impl IntoIterator<Item = u64>) -> Vec<(u64, u64)> {
        let mut h = Histogram::new();
        for v in values {
            h.record(v);
        }
        h.bins()
    }

    #[test]
    fn identical_samples_score_zero() {
        let a = hist_of((0..1000).map(|i| 10_000 + i * 13));
        let m = mann_whitney(&a, &a).unwrap();
        assert_eq!(m.n_baseline, 1000);
        assert_eq!(m.n_current, 1000);
        assert!(m.z.abs() < 1e-9, "z = {}", m.z);
        assert!(!m.slower_than_baseline(3.0));
    }

    #[test]
    fn shifted_sample_scores_strongly_positive() {
        let base = hist_of((0..1000).map(|i| 10_000 + i * 13));
        let slow = hist_of((0..1000).map(|i| (10_000 + i * 13) * 12 / 10));
        let m = mann_whitney(&base, &slow).unwrap();
        assert!(m.z > 3.0, "a 20% shift at n=1000 must flag: z = {}", m.z);
        assert!(m.slower_than_baseline(3.0));
        // Antisymmetry: the reverse comparison scores the mirror image.
        let rev = mann_whitney(&slow, &base).unwrap();
        assert!((m.z + rev.z).abs() < 1e-6, "{} vs {}", m.z, rev.z);
    }

    #[test]
    fn u_statistics_partition_the_pair_count() {
        let a = hist_of([5u64, 9, 9, 30, 31]);
        let b = hist_of([4u64, 9, 12, 40]);
        let m = mann_whitney(&a, &b).unwrap();
        let rev = mann_whitney(&b, &a).unwrap();
        let n1n2 = (m.n_baseline * m.n_current) as f64;
        assert!((m.u_current + rev.u_current - n1n2).abs() < 1e-9);
    }

    #[test]
    fn degenerate_single_value_sample_is_not_evidence() {
        let a = vec![(500u64, 100u64)];
        let m = mann_whitney(&a, &a).unwrap();
        assert_eq!(m.z, 0.0);
        assert!(mann_whitney(&[], &a).is_none());
        assert!(mann_whitney(&a, &[]).is_none());
    }

    #[test]
    fn binned_quantile_and_mean_basics() {
        let bins = hist_of(1..=1000u64);
        let p50 = binned_quantile(&bins, 0.5);
        assert!((450..=550).contains(&p50), "p50 = {p50}");
        assert!((binned_mean(&bins) - 500.5).abs() < 20.0);
        assert_eq!(binned_quantile(&[], 0.5), 0);
        assert_eq!(binned_mean(&[]), 0.0);
    }

    #[test]
    fn bootstrap_ci_brackets_the_point_and_is_deterministic() {
        let bins = hist_of((0..2000).map(|i| 20_000 + (i * 37) % 9000));
        let ci = bootstrap_quantile_ci(&bins, 0.5, 200, 0.05, 42).unwrap();
        assert!(ci.lo <= ci.point && ci.point <= ci.hi, "{ci:?}");
        // Width is a small fraction of the point for a tight distribution.
        assert!((ci.hi - ci.lo) as f64 / (ci.point as f64) < 0.25, "{ci:?}");
        let again = bootstrap_quantile_ci(&bins, 0.5, 200, 0.05, 42).unwrap();
        assert_eq!(ci, again, "same seed must reproduce the interval");
        let other = bootstrap_quantile_ci(&bins, 0.5, 200, 0.05, 43).unwrap();
        assert!(other.lo <= other.point && other.point <= other.hi);
    }

    #[test]
    fn bootstrap_ci_separates_a_clear_shift() {
        let base = hist_of((0..1000).map(|i| 50_000 + i * 11));
        let slow = hist_of((0..1000).map(|i| (50_000 + i * 11) * 12 / 10));
        let ci = bootstrap_quantile_ci(&base, 0.5, 200, 0.05, 7).unwrap();
        let shifted = binned_quantile(&slow, 0.5);
        assert!(
            ci.excludes(shifted),
            "20% shifted median {shifted} inside baseline CI {ci:?}"
        );
        assert!(bootstrap_quantile_ci(&[], 0.5, 100, 0.05, 1).is_none());
        assert!(bootstrap_quantile_ci(&base, 0.5, 0, 0.05, 1).is_none());
    }
}
