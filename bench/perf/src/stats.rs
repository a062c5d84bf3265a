//! The estimators the README defines: nearest-rank percentiles over raw
//! samples, interpolated quantiles across windows or repeats.

/// Nearest-rank percentile of raw samples (sorts in place). 0 when empty.
pub fn percentile(samples: &mut [u64], q: f64) -> u64 {
    if samples.is_empty() {
        return 0;
    }
    samples.sort_unstable();
    samples[((samples.len() - 1) as f64 * q).round() as usize]
}

/// Linearly interpolated quantile across a handful of per-segment or
/// per-repeat values. `NaN` when empty.
pub fn quantile(values: &[f64], q: f64) -> f64 {
    if values.is_empty() {
        return f64::NAN;
    }
    let mut v = values.to_vec();
    v.sort_by(f64::total_cmp);
    let pos = (v.len() - 1) as f64 * q;
    let lo = pos.floor() as usize;
    let hi = pos.ceil() as usize;
    v[lo] + (v[hi] - v[lo]) * (pos - lo as f64)
}

/// Mean of the `k` smallest of `values`, `k` a hundredth of them and three
/// at least. `NaN` when empty.
fn mean_of_smallest(values: impl Iterator<Item = f64>) -> f64 {
    let mut v: Vec<f64> = values.collect();
    if v.is_empty() {
        return f64::NAN;
    }
    v.sort_by(f64::total_cmp);
    let k = v.len().div_ceil(100).max(3).min(v.len());
    mean(&v[..k])
}

/// A duration as the undisturbed windows or repeats of a run show it: the
/// mean of the fastest hundredth. Whatever disturbs this box only ever
/// slows it, so the fastest end, not the middle, is what the code under
/// test can do; over ten runs of one binary it also repeated best (README,
/// "Estimators").
pub fn fast_time(values: &[f64]) -> f64 {
    mean_of_smallest(values.iter().copied())
}

/// A rate as the undisturbed windows show it: the mean of the fastest
/// hundredth.
pub fn fast_rate(values: &[f64]) -> f64 {
    -mean_of_smallest(values.iter().map(|v| -v))
}

pub fn median(values: &[f64]) -> f64 {
    quantile(values, 0.5)
}

pub fn mean(values: &[f64]) -> f64 {
    values.iter().sum::<f64>() / values.len().max(1) as f64
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn percentile_is_nearest_rank() {
        let mut s: Vec<u64> = (1..=100).rev().collect();
        assert_eq!(percentile(&mut s, 0.5), 51);
        assert_eq!(percentile(&mut s, 0.99), 99);
        assert_eq!(percentile(&mut [], 0.5), 0);
    }

    #[test]
    fn fast_estimators_average_the_fastest_end() {
        let v: Vec<f64> = (1..=400).map(f64::from).collect();
        assert_eq!(fast_time(&v), 2.5);
        assert_eq!(fast_rate(&v), 398.5);
        assert_eq!(fast_time(&[5.0, 1.0]), 3.0);
        assert!(fast_time(&[]).is_nan());
    }

    #[test]
    fn quantile_interpolates() {
        let v = [4.0, 1.0, 3.0, 2.0];
        assert_eq!(median(&v), 2.5);
        assert_eq!(quantile(&v, 0.75), 3.25);
        assert_eq!(quantile(&v, 0.0), 1.0);
    }
}
