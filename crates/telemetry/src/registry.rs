//! The metrics registry: name-addressed counters, gauges and histograms
//! with Prometheus text exposition and JSON snapshot output.
//!
//! Names follow Prometheus conventions, with labels inline:
//! `cam_stage_ns{op="read",stage="pickup"}`. Handle acquisition
//! (`counter`/`gauge`/`histogram`) takes a lock and should happen at setup
//! time; the returned handles are lock-free (counters, gauges) or sharded
//! (histograms) and are what hot paths record into.

use std::collections::BTreeMap;
use std::fmt::Write as _;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::Arc;

use parking_lot::RwLock;

use crate::hist::Histogram;
use crate::json::Json;
use crate::obj;
use crate::shared::HistogramHandle;

/// A monotonically increasing counter. Cloning shares the underlying cell.
#[derive(Clone, Default)]
pub struct Counter(Arc<AtomicU64>);

impl Counter {
    /// Creates an unregistered counter (useful for tests and optional hooks).
    pub fn new() -> Self {
        Self::default()
    }

    /// Adds 1.
    pub fn inc(&self) {
        self.0.fetch_add(1, Ordering::Relaxed);
    }

    /// Adds `n`.
    pub fn add(&self, n: u64) {
        self.0.fetch_add(n, Ordering::Relaxed);
    }

    /// Current value.
    pub fn get(&self) -> u64 {
        self.0.load(Ordering::Relaxed)
    }
}

/// A settable instantaneous value. Cloning shares the underlying cell.
#[derive(Clone, Default)]
pub struct Gauge(Arc<AtomicU64>);

impl Gauge {
    /// Creates an unregistered gauge.
    pub fn new() -> Self {
        Self::default()
    }

    /// Sets the value.
    pub fn set(&self, v: u64) {
        self.0.store(v, Ordering::Relaxed);
    }

    /// Current value.
    pub fn get(&self) -> u64 {
        self.0.load(Ordering::Relaxed)
    }
}

/// Summary statistics of one histogram at snapshot time.
#[derive(Clone, Debug)]
pub struct HistogramSummary {
    /// Number of samples.
    pub count: u64,
    /// Smallest sample (0 if empty).
    pub min: u64,
    /// Largest sample.
    pub max: u64,
    /// Sum of all samples.
    pub sum: u128,
    /// Mean sample.
    pub mean: f64,
    /// 50th percentile.
    pub p50: u64,
    /// 90th percentile.
    pub p90: u64,
    /// 95th percentile.
    pub p95: u64,
    /// 99th percentile.
    pub p99: u64,
    /// Cumulative counts at power-of-two boundaries (Prometheus `_bucket`
    /// series); see [`Histogram::pow2_buckets`].
    pub pow2_buckets: Vec<(u64, u64)>,
}

impl From<&Histogram> for HistogramSummary {
    fn from(h: &Histogram) -> Self {
        HistogramSummary {
            count: h.count(),
            min: h.min(),
            max: h.max(),
            sum: h.sum(),
            mean: h.mean(),
            p50: h.quantile(0.50),
            p90: h.quantile(0.90),
            p95: h.quantile(0.95),
            p99: h.quantile(0.99),
            pow2_buckets: h.pow2_buckets(),
        }
    }
}

/// Point-in-time view of every metric in a [`MetricsRegistry`].
#[derive(Clone, Debug, Default)]
pub struct MetricsSnapshot {
    /// Counter values by name.
    pub counters: BTreeMap<String, u64>,
    /// Gauge values by name.
    pub gauges: BTreeMap<String, u64>,
    /// Histogram summaries by name.
    pub histograms: BTreeMap<String, HistogramSummary>,
}

impl MetricsSnapshot {
    /// Counter value, 0 if absent.
    pub fn counter(&self, name: &str) -> u64 {
        self.counters.get(name).copied().unwrap_or(0)
    }

    /// Gauge value, 0 if absent.
    pub fn gauge(&self, name: &str) -> u64 {
        self.gauges.get(name).copied().unwrap_or(0)
    }

    /// Histogram summary, if recorded.
    pub fn histogram(&self, name: &str) -> Option<&HistogramSummary> {
        self.histograms.get(name)
    }

    /// Sums every counter whose name starts with `prefix` (labels included in
    /// the match), e.g. `sum_counters("cam_ssd_submitted_total")`.
    pub fn sum_counters(&self, prefix: &str) -> u64 {
        self.counters
            .iter()
            .filter(|(k, _)| k.starts_with(prefix))
            .map(|(_, v)| v)
            .sum()
    }

    /// The snapshot as a self-contained JSON object (`metrics.json`, and
    /// the `metrics` field of a post-mortem dump).
    pub fn to_json(&self) -> Json {
        let scalars = |m: &BTreeMap<String, u64>| {
            Json::obj(m.iter().map(|(name, v)| (name.as_str(), Json::from(*v))))
        };
        let histograms = self.histograms.iter().map(|(name, h)| {
            let summary = obj! {
                "count" => h.count,
                "min" => h.min,
                "max" => h.max,
                "sum" => Json::Int(i128::try_from(h.sum).unwrap_or(i128::MAX)),
                "mean" => Json::fixed(h.mean, 3),
                "p50" => h.p50,
                "p90" => h.p90,
                "p95" => h.p95,
                "p99" => h.p99,
            };
            (name.as_str(), summary)
        });
        obj! {
            "counters" => scalars(&self.counters),
            "gauges" => scalars(&self.gauges),
            "histograms" => Json::obj(histograms),
        }
    }

    /// Serializes the snapshot in the Prometheus text exposition format.
    /// Histograms are exposed as cumulative `_bucket` series (power-of-two
    /// `le` boundaries plus `+Inf`) with `_count`/`_sum`, alongside
    /// pre-computed quantile series for human consumption.
    pub fn to_prometheus(&self) -> String {
        let mut out = String::with_capacity(4096);
        let mut typed: std::collections::BTreeSet<&str> = std::collections::BTreeSet::new();
        for (name, v) in &self.counters {
            let (base, _) = split_labels(name);
            if typed.insert(base) {
                let _ = writeln!(out, "# TYPE {base} counter");
            }
            let _ = writeln!(out, "{name} {v}");
        }
        for (name, v) in &self.gauges {
            let (base, _) = split_labels(name);
            if typed.insert(base) {
                let _ = writeln!(out, "# TYPE {base} gauge");
            }
            let _ = writeln!(out, "{name} {v}");
        }
        for (name, h) in &self.histograms {
            let (base, labels) = split_labels(name);
            if typed.insert(base) {
                let _ = writeln!(out, "# TYPE {base} histogram");
            }
            for (q, v) in [(0.5, h.p50), (0.9, h.p90), (0.95, h.p95), (0.99, h.p99)] {
                let _ = writeln!(
                    out,
                    "{}{} {v}",
                    base,
                    with_label(labels, &format!("quantile=\"{q}\""))
                );
            }
            for (bound, cum) in &h.pow2_buckets {
                let _ = writeln!(
                    out,
                    "{base}_bucket{} {cum}",
                    with_label(labels, &format!("le=\"{bound}\""))
                );
            }
            let _ = writeln!(
                out,
                "{base}_bucket{} {}",
                with_label(labels, "le=\"+Inf\""),
                h.count
            );
            let _ = writeln!(out, "{base}_count{} {}", braced(labels), h.count);
            let _ = writeln!(out, "{base}_sum{} {}", braced(labels), h.sum);
        }
        out
    }
}

/// Splits `name{a="b"}` into (`name`, `a="b"`); labels are `""` if absent.
fn split_labels(name: &str) -> (&str, &str) {
    match name.find('{') {
        Some(i) => (&name[..i], name[i + 1..].trim_end_matches('}')),
        None => (name, ""),
    }
}

/// `{existing,extra}` — merges an extra label into an optional label set.
fn with_label(labels: &str, extra: &str) -> String {
    if labels.is_empty() {
        format!("{{{extra}}}")
    } else {
        format!("{{{labels},{extra}}}")
    }
}

/// `{labels}` or the empty string.
fn braced(labels: &str) -> String {
    if labels.is_empty() {
        String::new()
    } else {
        format!("{{{labels}}}")
    }
}

/// The process-wide registry. Create one per [`CamContext`-like] scope and
/// share it via `Arc`; all handle types are cheap clones.
///
/// [`CamContext`-like]: crate::ControlMetrics
#[derive(Default)]
pub struct MetricsRegistry {
    counters: RwLock<BTreeMap<String, Counter>>,
    gauges: RwLock<BTreeMap<String, Gauge>>,
    histograms: RwLock<BTreeMap<String, HistogramHandle>>,
}

impl MetricsRegistry {
    /// Creates an empty registry.
    pub fn new() -> Self {
        Self::default()
    }

    /// Returns the counter registered under `name`, creating it if absent.
    pub fn counter(&self, name: &str) -> Counter {
        if let Some(c) = self.counters.read().get(name) {
            return c.clone();
        }
        self.counters
            .write()
            .entry(name.to_string())
            .or_default()
            .clone()
    }

    /// Returns the gauge registered under `name`, creating it if absent.
    pub fn gauge(&self, name: &str) -> Gauge {
        if let Some(g) = self.gauges.read().get(name) {
            return g.clone();
        }
        self.gauges
            .write()
            .entry(name.to_string())
            .or_default()
            .clone()
    }

    /// Returns the histogram registered under `name`, creating it if absent.
    pub fn histogram(&self, name: &str) -> HistogramHandle {
        if let Some(h) = self.histograms.read().get(name) {
            return h.clone();
        }
        self.histograms
            .write()
            .entry(name.to_string())
            .or_default()
            .clone()
    }

    /// Takes a point-in-time snapshot of every registered metric.
    pub fn snapshot(&self) -> MetricsSnapshot {
        MetricsSnapshot {
            counters: self
                .counters
                .read()
                .iter()
                .map(|(k, v)| (k.clone(), v.get()))
                .collect(),
            gauges: self
                .gauges
                .read()
                .iter()
                .map(|(k, v)| (k.clone(), v.get()))
                .collect(),
            histograms: self
                .histograms
                .read()
                .iter()
                .map(|(k, v)| (k.clone(), HistogramSummary::from(&v.snapshot())))
                .collect(),
        }
    }

    /// Convenience: JSON of a fresh snapshot.
    pub fn to_json(&self) -> Json {
        self.snapshot().to_json()
    }

    /// Convenience: Prometheus text of a fresh snapshot.
    pub fn to_prometheus(&self) -> String {
        self.snapshot().to_prometheus()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn handles_are_shared_by_name() {
        let reg = MetricsRegistry::new();
        let a = reg.counter("x_total");
        let b = reg.counter("x_total");
        a.inc();
        b.add(2);
        assert_eq!(reg.snapshot().counter("x_total"), 3);

        let g = reg.gauge("depth");
        g.set(7);
        assert_eq!(reg.gauge("depth").get(), 7);

        let h = reg.histogram("lat_ns");
        h.record(100);
        reg.histogram("lat_ns").record(300);
        let snap = reg.snapshot();
        let s = snap.histogram("lat_ns").unwrap();
        assert_eq!(s.count, 2);
        assert_eq!(s.min, 100);
        assert_eq!(s.max, 300);
    }

    #[test]
    fn sum_counters_matches_prefix() {
        let reg = MetricsRegistry::new();
        reg.counter("cam_ssd_submitted_total{ssd=\"0\"}").add(3);
        reg.counter("cam_ssd_submitted_total{ssd=\"1\"}").add(4);
        reg.counter("cam_ssd_completed_total{ssd=\"0\"}").add(9);
        let snap = reg.snapshot();
        assert_eq!(snap.sum_counters("cam_ssd_submitted_total"), 7);
        assert_eq!(snap.sum_counters("cam_ssd_completed_total"), 9);
    }

    #[test]
    fn json_is_escaped_and_structured() {
        let reg = MetricsRegistry::new();
        reg.counter("c_total{op=\"read\"}").inc();
        reg.histogram("h_ns").record(42);
        let json = reg.to_json().to_string();
        // Label quotes must be escaped into valid JSON.
        assert!(json.contains("\"c_total{op=\\\"read\\\"}\": 1"), "{json}");
        assert!(json.contains("\"p99\": 42"), "{json}");
        assert_eq!(crate::json::parse(&json), Ok(reg.to_json()));
    }

    #[test]
    fn prometheus_exposition_shape() {
        let reg = MetricsRegistry::new();
        reg.counter("req_total{op=\"read\"}").add(5);
        reg.counter("req_total{op=\"write\"}").add(6);
        reg.gauge("active").set(3);
        reg.histogram("lat_ns{op=\"read\"}").record(1000);
        let text = reg.to_prometheus();
        assert_eq!(text.matches("# TYPE req_total counter").count(), 1);
        assert!(text.contains("req_total{op=\"read\"} 5"));
        assert!(text.contains("# TYPE active gauge"));
        assert!(text.contains("active 3"));
        assert!(text.contains("# TYPE lat_ns histogram"));
        assert!(text.contains("lat_ns{op=\"read\",quantile=\"0.5\"}"));
        assert!(text.contains("lat_ns_count{op=\"read\"} 1"));
        assert!(text.contains("lat_ns_sum{op=\"read\"} 1000"));
    }

    #[test]
    fn prometheus_bucket_series_and_label_escaping() {
        let reg = MetricsRegistry::new();
        let h = reg.histogram("svc_ns{path=\"/a\\\"b\"}");
        for v in [10u64, 100, 1000] {
            h.record(v);
        }
        let text = reg.to_prometheus();
        // Labels pass through exposition verbatim (escapes intact).
        assert!(text.contains("svc_ns_count{path=\"/a\\\"b\"} 3"), "{text}");
        // Cumulative power-of-two buckets, merged into the label set.
        assert!(
            text.contains("svc_ns_bucket{path=\"/a\\\"b\",le=\"16\"} 1"),
            "{text}"
        );
        assert!(
            text.contains("svc_ns_bucket{path=\"/a\\\"b\",le=\"1024\"} 3"),
            "{text}"
        );
        // +Inf bucket always equals _count.
        assert!(
            text.contains("svc_ns_bucket{path=\"/a\\\"b\",le=\"+Inf\"} 3"),
            "{text}"
        );
        assert!(text.contains("svc_ns_sum{path=\"/a\\\"b\"} 1110"), "{text}");
        // Bucket counts are monotone in le order.
        let counts: Vec<u64> = text
            .lines()
            .filter(|l| l.starts_with("svc_ns_bucket") && !l.contains("+Inf"))
            .map(|l| l.rsplit(' ').next().unwrap().parse().unwrap())
            .collect();
        assert!(!counts.is_empty());
        assert!(counts.windows(2).all(|w| w[0] <= w[1]), "{counts:?}");
        // An empty histogram still exposes a +Inf bucket of 0.
        reg.histogram("idle_ns");
        let text = reg.to_prometheus();
        assert!(text.contains("idle_ns_bucket{le=\"+Inf\"} 0"), "{text}");
    }
}
