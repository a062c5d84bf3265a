//! Property tests of the documented `Histogram` accuracy contract: for any
//! sample set, `quantile(q)` is within `1/SUB_BUCKETS` relative error of the
//! exact order statistic, never above it, and exact at power-of-two
//! boundaries and for values below `SUB_BUCKETS` — and of the weighted
//! record: `record_n(v, n)` is indistinguishable from `n × record(v)`.

use cam_telemetry::Histogram;
use proptest::prelude::*;

/// Exact order statistic matching the histogram's target rule:
/// the `max(1, ceil(q·n))`-th smallest sample.
fn exact_quantile(sorted: &[u64], q: f64) -> u64 {
    let n = sorted.len() as f64;
    let k = ((q * n).ceil() as usize).max(1).min(sorted.len());
    sorted[k - 1]
}

/// Everything a reader can learn from a histogram.
#[derive(PartialEq, Debug)]
struct Observable {
    bins: Vec<(u64, u64)>,
    pow2_buckets: Vec<(u64, u64)>,
    count: u64,
    sum: u128,
    min: u64,
    max: u64,
    quantiles: Vec<u64>,
}

fn observable(h: &Histogram) -> Observable {
    Observable {
        bins: h.bins(),
        pow2_buckets: h.pow2_buckets(),
        count: h.count(),
        sum: h.sum(),
        min: h.min(),
        max: h.max(),
        quantiles: [0.0, 0.01, 0.1, 0.25, 0.5, 0.75, 0.9, 0.95, 0.99, 1.0]
            .iter()
            .map(|&q| h.quantile(q))
            .collect(),
    }
}

proptest! {
    /// `record_n(v, n)` leaves exactly what `n` calls of `record(v)` leave
    /// (`n = 0`: nothing), and merging a weighted shard with an unweighted
    /// one agrees with the flat sequence recorded into one histogram.
    #[test]
    fn weighted_record_equals_repeated_record(
        a in proptest::collection::vec((0u64..u32::MAX as u64, 0u64..40), 0..60),
        b in proptest::collection::vec((0u64..u32::MAX as u64, 0u64..40), 0..60),
    ) {
        let mut weighted = Histogram::new();
        let mut repeated = Histogram::new();
        let mut flat = Histogram::new();
        for &(v, n) in &a {
            weighted.record_n(v, n);
            for _ in 0..n {
                repeated.record(v);
                flat.record(v);
            }
        }
        prop_assert_eq!(observable(&weighted), observable(&repeated));
        // The second shard is fed one sample at a time, then merged in.
        let mut unweighted = Histogram::new();
        for &(v, n) in &b {
            for _ in 0..n {
                unweighted.record(v);
                flat.record(v);
            }
        }
        weighted.merge(&unweighted);
        prop_assert_eq!(observable(&weighted), observable(&flat));
    }

    /// Relative error of every quantile is bounded by 1/SUB_BUCKETS, and the
    /// approximation never overshoots the exact order statistic.
    #[test]
    fn quantile_error_within_documented_bound(
        values in proptest::collection::vec(0u64..u32::MAX as u64, 1..400),
    ) {
        let mut h = Histogram::new();
        for &v in &values {
            h.record(v);
        }
        let mut sorted = values.clone();
        sorted.sort_unstable();
        for q in [0.0, 0.01, 0.1, 0.25, 0.5, 0.75, 0.9, 0.95, 0.99, 1.0] {
            let exact = exact_quantile(&sorted, q);
            let approx = h.quantile(q);
            prop_assert!(approx <= exact,
                "q={q}: approx {approx} overshoots exact {exact}");
            let bound = exact as f64 / Histogram::SUB_BUCKETS as f64;
            prop_assert!(exact as f64 - approx as f64 <= bound,
                "q={q}: exact {exact}, approx {approx}, bound {bound}");
        }
    }

    /// Values below SUB_BUCKETS land in unit-width buckets: quantiles are
    /// exact, not approximate.
    #[test]
    fn small_values_are_exact(
        values in proptest::collection::vec(0u64..32, 1..200),
    ) {
        let mut h = Histogram::new();
        for &v in &values {
            h.record(v);
        }
        let mut sorted = values.clone();
        sorted.sort_unstable();
        for q in [0.1, 0.5, 0.9, 1.0] {
            prop_assert_eq!(h.quantile(q), exact_quantile(&sorted, q));
        }
    }

    /// Power-of-two boundaries: 2^k sits at the exact start of a major
    /// bucket and 2^k − 1 at the exact end of the previous one, so a
    /// histogram of those two values recovers both exactly.
    #[test]
    fn power_of_two_boundaries_exact(shift in 5u32..63) {
        let lo = (1u64 << shift) - 1;
        let hi = 1u64 << shift;
        let mut h = Histogram::new();
        h.record(lo);
        h.record(hi);
        prop_assert_eq!(h.min(), lo);
        prop_assert_eq!(h.max(), hi);
        // The first sample is the 1st order statistic, the second the 2nd.
        prop_assert_eq!(h.quantile(0.5), lo);
        prop_assert_eq!(h.quantile(1.0), hi);
    }

    /// Quantiles are monotone in q and bracketed by min/max.
    #[test]
    fn quantiles_monotone_and_bracketed(
        values in proptest::collection::vec(0u64..u32::MAX as u64, 1..300),
    ) {
        let mut h = Histogram::new();
        for &v in &values {
            h.record(v);
        }
        let qs: Vec<u64> = [0.0, 0.2, 0.4, 0.6, 0.8, 1.0]
            .iter()
            .map(|&q| h.quantile(q))
            .collect();
        for pair in qs.windows(2) {
            prop_assert!(pair[0] <= pair[1], "not monotone: {:?}", qs);
        }
        prop_assert!(qs[0] >= h.min());
        prop_assert!(*qs.last().unwrap() <= h.max());
    }

    /// Merging two histograms gives the same quantiles as recording every
    /// sample into one.
    #[test]
    fn merge_equals_union(
        a in proptest::collection::vec(0u64..1_000_000, 1..100),
        b in proptest::collection::vec(0u64..1_000_000, 1..100),
    ) {
        let mut ha = Histogram::new();
        let mut hb = Histogram::new();
        let mut hu = Histogram::new();
        for &v in &a {
            ha.record(v);
            hu.record(v);
        }
        for &v in &b {
            hb.record(v);
            hu.record(v);
        }
        ha.merge(&hb);
        prop_assert_eq!(ha.count(), hu.count());
        prop_assert_eq!(ha.sum(), hu.sum());
        for q in [0.1, 0.5, 0.9, 0.99] {
            prop_assert_eq!(ha.quantile(q), hu.quantile(q));
        }
    }
}
