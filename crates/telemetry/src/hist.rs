//! The log-linear latency histogram. Originally lived in `cam-simkit`
//! (which now re-exports it) — lifted here so the functional engine and the
//! DES models share one implementation.

/// A log-linear histogram of `u64` samples (typically nanoseconds).
///
/// Values are bucketed by `floor(log2(v))` into major buckets, each divided
/// into [`Histogram::SUB_BUCKETS`] linear sub-buckets, giving a worst-case
/// relative quantile error of `1 / SUB_BUCKETS` (~3%) while using a few KiB.
#[derive(Clone)]
pub struct Histogram {
    buckets: Vec<u64>,
    count: u64,
    sum: u128,
    min: u64,
    max: u64,
}

impl Histogram {
    /// Linear sub-buckets per power of two.
    pub const SUB_BUCKETS: usize = 32;
    const MAJOR: usize = 64;
    /// Buckets in every histogram.
    pub(crate) const BUCKETS: usize = Self::MAJOR * Self::SUB_BUCKETS;

    /// Creates an empty histogram.
    pub fn new() -> Self {
        Histogram {
            buckets: vec![0; Self::BUCKETS],
            count: 0,
            sum: 0,
            min: u64::MAX,
            max: 0,
        }
    }

    /// The bucket `value` falls in.
    pub(crate) fn index(value: u64) -> usize {
        if value < Self::SUB_BUCKETS as u64 {
            return value as usize;
        }
        let major = 63 - value.leading_zeros() as usize;
        // Position within the major bucket, scaled to SUB_BUCKETS slots.
        let offset =
            (value - (1 << major)) >> (major - Self::SUB_BUCKETS.trailing_zeros() as usize);
        major * Self::SUB_BUCKETS + offset as usize
    }

    /// Representative (lower-bound) value of bucket `i`.
    fn bucket_low(i: usize) -> u64 {
        let major = i / Self::SUB_BUCKETS;
        let sub = (i % Self::SUB_BUCKETS) as u64;
        if major < Self::SUB_BUCKETS.trailing_zeros() as usize + 1 && i < Self::SUB_BUCKETS {
            return sub;
        }
        (1u64 << major) + (sub << (major - Self::SUB_BUCKETS.trailing_zeros() as usize))
    }

    /// Records one sample. (Not `record_n(value, 1)`: every hot path in the
    /// workspace records through here, and it stays the code it always was.)
    pub fn record(&mut self, value: u64) {
        self.buckets[Self::index(value)] += 1;
        self.count += 1;
        self.sum += value as u128;
        self.min = self.min.min(value);
        self.max = self.max.max(value);
    }

    /// Records `n` samples of `value` with one bin update — exactly what
    /// `n` calls of [`record`](Self::record) leave behind (`n = 0` records
    /// nothing). For feeds that time a burst and know only its mean.
    pub fn record_n(&mut self, value: u64, n: u64) {
        if n == 0 {
            return;
        }
        self.buckets[Self::index(value)] += n;
        self.count += n;
        self.sum += value as u128 * n as u128;
        self.min = self.min.min(value);
        self.max = self.max.max(value);
    }

    /// Number of recorded samples.
    pub fn count(&self) -> u64 {
        self.count
    }

    /// Sum of all recorded samples.
    pub fn sum(&self) -> u128 {
        self.sum
    }

    /// Mean of recorded samples (0 if empty).
    pub fn mean(&self) -> f64 {
        if self.count == 0 {
            0.0
        } else {
            self.sum as f64 / self.count as f64
        }
    }

    /// Smallest recorded sample (0 if empty).
    pub fn min(&self) -> u64 {
        if self.count == 0 {
            0
        } else {
            self.min
        }
    }

    /// Largest recorded sample.
    pub fn max(&self) -> u64 {
        self.max
    }

    /// Approximate quantile `q` in `[0, 1]` (0 if empty).
    pub fn quantile(&self, q: f64) -> u64 {
        if self.count == 0 {
            return 0;
        }
        let q = q.clamp(0.0, 1.0);
        let target = ((q * self.count as f64).ceil() as u64).max(1);
        let mut seen = 0;
        for (i, &c) in self.buckets.iter().enumerate() {
            seen += c;
            if seen >= target {
                return Self::bucket_low(i).clamp(self.min, self.max);
            }
        }
        self.max
    }

    /// Cumulative counts at power-of-two boundaries, for Prometheus
    /// `_bucket` exposition: `(bound, samples strictly below bound)` pairs
    /// spanning `min..=max`. Empty if no samples were recorded (the
    /// exposition layer still adds the `le="+Inf"` series).
    ///
    /// Because every major bucket starts on a power of two, these counts
    /// are exact, not interpolated.
    pub fn pow2_buckets(&self) -> Vec<(u64, u64)> {
        if self.count == 0 {
            return Vec::new();
        }
        // First boundary above min, first boundary covering max.
        let k_lo = 64 - self.min.max(1).leading_zeros() as usize;
        let k_hi = 64 - self.max.leading_zeros() as usize;
        let mut out = Vec::with_capacity(k_hi - k_lo + 1);
        for k in k_lo..=k_hi.min(63) {
            // Indices below `2^k`: the linear region stores value v at
            // index v; major buckets m ≥ log2(SUB_BUCKETS) start at
            // index m * SUB_BUCKETS.
            let sub_bits = Self::SUB_BUCKETS.trailing_zeros() as usize;
            let idx = if k < sub_bits {
                1usize << k
            } else {
                k * Self::SUB_BUCKETS
            };
            let cum: u64 = self.buckets[..idx.min(self.buckets.len())].iter().sum();
            out.push((1u64 << k, cum));
        }
        out
    }

    /// The non-empty bins as `(representative value, count)` pairs in
    /// ascending value order. The representative is the bin's lower bound,
    /// so reconstructed samples carry the histogram's usual ≤
    /// `1/SUB_BUCKETS` relative error — what the bench perf gate's
    /// baselines record.
    pub fn bins(&self) -> Vec<(u64, u64)> {
        self.buckets
            .iter()
            .enumerate()
            .filter(|(_, &c)| c > 0)
            .map(|(i, &c)| (Self::bucket_low(i), c))
            .collect()
    }

    /// Adds `n` samples to bucket `i` alone: with
    /// [`add_totals`](Self::add_totals), merges a shard kept in another
    /// representation.
    pub(crate) fn add_to_bucket(&mut self, i: usize, n: u64) {
        self.buckets[i] += n;
    }

    /// Adds the count, sum, min and max of samples whose buckets were added
    /// with [`add_to_bucket`](Self::add_to_bucket).
    pub(crate) fn add_totals(&mut self, count: u64, sum: u128, min: u64, max: u64) {
        self.count += count;
        self.sum += sum;
        self.min = self.min.min(min);
        self.max = self.max.max(max);
    }

    /// Merges another histogram into this one.
    pub fn merge(&mut self, other: &Histogram) {
        for (a, b) in self.buckets.iter_mut().zip(&other.buckets) {
            *a += b;
        }
        self.count += other.count;
        self.sum += other.sum;
        self.min = self.min.min(other.min);
        self.max = self.max.max(other.max);
    }
}

impl Default for Histogram {
    fn default() -> Self {
        Self::new()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn histogram_basic_stats() {
        let mut h = Histogram::new();
        for v in 1..=1000u64 {
            h.record(v);
        }
        assert_eq!(h.count(), 1000);
        assert_eq!(h.min(), 1);
        assert_eq!(h.max(), 1000);
        assert!((h.mean() - 500.5).abs() < 1e-9);
        let p50 = h.quantile(0.5);
        assert!((450..=550).contains(&p50), "p50 = {p50}");
        let p99 = h.quantile(0.99);
        assert!((950..=1000).contains(&p99), "p99 = {p99}");
    }

    #[test]
    fn histogram_small_values_exact() {
        let mut h = Histogram::new();
        for v in [0u64, 1, 2, 3, 5, 8, 13, 21] {
            h.record(v);
        }
        assert_eq!(h.min(), 0);
        assert_eq!(h.max(), 21);
        assert_eq!(h.count(), 8);
    }

    #[test]
    fn histogram_quantile_relative_error_bounded() {
        let mut h = Histogram::new();
        // Microsecond-scale latencies.
        for i in 0..10_000u64 {
            h.record(10_000 + i * 17);
        }
        let exact_p90 = 10_000 + 9_000 * 17;
        let approx = h.quantile(0.9) as f64;
        let err = (approx - exact_p90 as f64).abs() / exact_p90 as f64;
        assert!(err < 0.05, "err = {err}");
    }

    #[test]
    fn histogram_merge() {
        let mut a = Histogram::new();
        let mut b = Histogram::new();
        a.record(10);
        b.record(1000);
        a.merge(&b);
        assert_eq!(a.count(), 2);
        assert_eq!(a.min(), 10);
        assert_eq!(a.max(), 1000);
    }

    #[test]
    fn histogram_empty() {
        let h = Histogram::new();
        assert_eq!(h.quantile(0.5), 0);
        assert_eq!(h.mean(), 0.0);
        assert_eq!(h.min(), 0);
    }

    #[test]
    fn empty_histogram_quantiles_are_zero_at_every_q() {
        let h = Histogram::new();
        for q in [0.0, 0.25, 0.5, 0.9, 0.99, 1.0] {
            assert_eq!(h.quantile(q), 0, "q = {q}");
        }
        // Out-of-range q is clamped, not a panic.
        assert_eq!(h.quantile(-1.0), 0);
        assert_eq!(h.quantile(2.0), 0);
        assert!(h.pow2_buckets().is_empty());
    }

    #[test]
    fn single_sample_histogram_every_quantile_is_the_sample() {
        let mut h = Histogram::new();
        h.record(12_345);
        for q in [0.0, 0.01, 0.5, 0.99, 1.0] {
            assert_eq!(h.quantile(q), 12_345, "q = {q}");
        }
        assert_eq!((h.count(), h.min(), h.max()), (1, 12_345, 12_345));
        assert_eq!(h.mean(), 12_345.0);
        // Clamping also holds for a single zero sample.
        let mut z = Histogram::new();
        z.record(0);
        assert_eq!(z.quantile(0.5), 0);
        assert_eq!(z.quantile(1.0), 0);
    }

    #[test]
    fn pow2_buckets_are_exact_cumulative_counts() {
        let mut h = Histogram::new();
        for v in [3u64, 40, 100, 1000, 1001] {
            h.record(v);
        }
        let buckets = h.pow2_buckets();
        // Boundaries span min..=max: 4 up through 1024.
        assert_eq!(buckets.first().map(|b| b.0), Some(4));
        assert_eq!(buckets.last().map(|b| b.0), Some(1024));
        // Cumulative counts are monotone and exact at each boundary.
        for (bound, cum) in &buckets {
            let exact = [3u64, 40, 100, 1000, 1001]
                .iter()
                .filter(|&&v| v < *bound)
                .count() as u64;
            assert_eq!(*cum, exact, "bound {bound}");
        }
        assert_eq!(buckets.last().unwrap().1, 5);
        assert!(buckets.windows(2).all(|w| w[0].1 <= w[1].1));
    }

    #[test]
    fn bins_cover_every_sample_in_order() {
        let mut h = Histogram::new();
        for v in [3u64, 3, 40, 100, 1000] {
            h.record(v);
        }
        let bins = h.bins();
        assert_eq!(bins.iter().map(|&(_, c)| c).sum::<u64>(), h.count());
        assert!(bins.windows(2).all(|w| w[0].0 < w[1].0), "{bins:?}");
        // Small values land in the exact linear region.
        assert!(bins.contains(&(3, 2)), "{bins:?}");
        // Every representative is within one sub-bucket of a real sample.
        for &(v, _) in &bins {
            assert!(
                [3u64, 40, 100, 1000]
                    .iter()
                    .any(|&s| v <= s && (s - v) as f64 <= s as f64 / 32.0 + 1.0),
                "bin {v} far from all samples"
            );
        }
        assert!(Histogram::new().bins().is_empty());
    }
}
