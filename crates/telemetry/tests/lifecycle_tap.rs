//! The lifecycle tap against a golden taken from the threaded engine as it
//! stood before the tap existed (commit 87db870): the same scripted facts,
//! pushed through that engine's `dispatch.rs` / `reactor.rs` / `retire.rs`
//! bodies with every endpoint attached, produced [`GOLDEN`]. One line
//! differs on purpose — see [`OVERSIZED`].

use std::fmt::Write as _;
use std::sync::Arc;

use cam_telemetry::{
    BatchFacts, ControlMetrics, EventKind, FlightRecorder, Lane, LifecycleTap, MetricsRegistry,
    OpsWindows, SloConfig, SloTracker, Stage, WindowConfig,
};

/// An error count that does not fit the `u32` event field. The old engine
/// wrote `errors as u32` (this value wrapped to 4) where the DES saturated;
/// the tap saturates for both.
const OVERSIZED: u64 = u32::MAX as u64 + 5;

/// Every endpoint a tap can feed, over two channels, two SSDs, two workers.
struct Endpoints {
    registry: Arc<MetricsRegistry>,
    metrics: Arc<ControlMetrics>,
    recorder: Arc<FlightRecorder>,
    windows: Arc<OpsWindows>,
    slo: Arc<SloTracker>,
}

impl Endpoints {
    fn new() -> Self {
        let registry = Arc::new(MetricsRegistry::new());
        let window = WindowConfig::new(4_000_000, 4);
        let slo = SloConfig {
            latency_target_ns: 850,
            error_budget: 0.5,
            short: window,
            long: WindowConfig::new(40_000_000, 4),
        };
        Endpoints {
            metrics: Arc::new(ControlMetrics::new(&registry, 2, 2, 2)),
            registry,
            recorder: Arc::new(FlightRecorder::new()),
            windows: Arc::new(OpsWindows::new(window, 2, 2)),
            slo: Arc::new(SloTracker::new(slo, 2)),
        }
    }

    /// A tap with every endpoint attached and the event stream on.
    fn full_tap(&self) -> LifecycleTap {
        LifecycleTap {
            metrics: Some(Arc::clone(&self.metrics)),
            recorder: Some(Arc::clone(&self.recorder)),
            lifecycle: true,
            windows: Some(Arc::clone(&self.windows)),
            slo: Some(Arc::clone(&self.slo)),
        }
    }

    /// Everything an observer can read back, at instant `end`.
    fn transcript(&self, end: u64) -> String {
        let mut out = String::new();
        for e in self.recorder.snapshot() {
            writeln!(out, "event {} {:?}", e.ts_ns, e.kind).unwrap();
        }
        let snap = self.registry.snapshot();
        for (name, v) in snap.counters.iter().filter(|(_, v)| **v > 0) {
            writeln!(out, "counter {name} {v}").unwrap();
        }
        for (name, v) in snap.gauges.iter().filter(|(_, v)| **v > 0) {
            writeln!(out, "gauge {name} {v}").unwrap();
        }
        for (name, h) in snap.histograms.iter().filter(|(_, h)| h.count > 0) {
            writeln!(
                out,
                "hist {name} n={} sum={} min={} max={}",
                h.count, h.sum, h.min, h.max
            )
            .unwrap();
        }
        let w = &self.windows;
        for s in Stage::ALL {
            let m = w.stage(s).merged_at(end);
            writeln!(
                out,
                "window stage {} n={} sum={}",
                s.name(),
                m.count(),
                m.sum()
            )
            .unwrap();
        }
        for ssd in 0..2 {
            let m = w.ssd_complete[ssd].merged_at(end);
            let (retries, groups) = w.ssd_retries[ssd].sums_at(end);
            writeln!(
                out,
                "window ssd {ssd} complete n={} sum={} retries={retries}/{groups}",
                m.count(),
                m.sum()
            )
            .unwrap();
        }
        for ch in 0..2 {
            let m = w.channel_batch[ch].merged_at(end);
            let burn = self.slo.burn_rate(ch, end);
            writeln!(
                out,
                "window channel {ch} batch n={} sum={} burn={:.2}/{:.2}",
                m.count(),
                m.sum(),
                burn.short,
                burn.long
            )
            .unwrap();
        }
        out
    }
}

/// Three batches over two channels and two SSDs: a read that splits across
/// both lanes and meets a retry on one and a timeout (with its lane
/// transition) on the other, a write that retires with [`OVERSIZED`]
/// errors, and a clean read that meets the latency target.
fn drive(tap: &LifecycleTap) {
    let on = |ssd, worker| Lane { ssd, worker };
    let a = BatchFacts {
        channel: 0,
        seq: 1,
        op: 0,
        requests: 8,
        doorbell_ns: 100,
        pickup_ns: 150,
        dispatched_ns: 150,
        compute_gap_ns: 0,
    };
    let b = BatchFacts {
        channel: 1,
        seq: 1,
        op: 1,
        requests: 4,
        doorbell_ns: 500,
        pickup_ns: 520,
        dispatched_ns: 520,
        compute_gap_ns: 40,
    };
    let c = BatchFacts {
        seq: 2,
        requests: 2,
        doorbell_ns: 1_400,
        pickup_ns: 1_410,
        dispatched_ns: 1_410,
        compute_gap_ns: 410,
        ..a
    };
    tap.batch_pickup(&a, 1, 2);
    tap.group_dispatch(&a, on(0, 0), 200);
    tap.group_dispatch(&a, on(1, 1), 220);
    tap.group_submitted(&a, on(0, 0), 5, 200, 260);
    tap.group_submitted(&a, on(1, 1), 4, 220, 300);
    tap.cmd_retry(&a, 0, 3, 1, 400);
    tap.lane_transition(0, 0, 1, 1, 400);
    tap.batch_pickup(&b, 0, 0);
    tap.group_dispatch(&b, on(0, 0), 600);
    tap.group_submitted(&b, on(0, 0), 4, 600, 650);
    tap.cmd_timeout(&a, 1, 7, 2, 800);
    tap.lane_transition(1, 0, 1, 1, 800);
    tap.group_complete(&a, on(0, 0), 5, 0, 260, 900);
    tap.group_complete(&a, on(1, 1), 4, 1, 300, 950);
    let total = tap.batch_retire(&a, 1, 950, 1_000, || ());
    assert_eq!(total, 900, "doorbell -> retire");
    tap.group_complete(&b, on(0, 0), 4, OVERSIZED, 650, 1_200);
    tap.batch_retire(&b, OVERSIZED, 1_200, 1_300, || ());
    tap.batch_pickup(&c, 0, 0);
    tap.group_dispatch(&c, on(1, 1), 1_420);
    tap.group_submitted(&c, on(1, 1), 2, 1_420, 1_430);
    tap.group_complete(&c, on(1, 1), 2, 0, 1_430, 1_500);
    tap.lane_transition(0, 1, 3, 1, 1_505);
    tap.batch_retire(&c, 0, 1_500, 1_510, || ());
}

const END: u64 = 2_000;

const GOLDEN: &str = include_str!("lifecycle_tap.golden");

#[test]
fn scripted_lifecycle_matches_the_pre_tap_engine() {
    let e = Endpoints::new();
    let tap = e.full_tap();
    drive(&tap);
    // The golden holds what the old engine wrote: the oversized count
    // wrapped to 4 in the two events that carry it.
    let wrapped = format!("errors: {} }}", OVERSIZED as u32);
    assert_eq!(GOLDEN.matches(&wrapped).count(), 2);
    let want = GOLDEN.replace(&wrapped, &format!("errors: {} }}", u32::MAX));
    assert_eq!(e.transcript(END), want);
}

#[test]
fn release_runs_after_the_counters_settle_and_before_the_rest() {
    let e = Endpoints::new();
    let tap = e.full_tap();
    let batch = BatchFacts {
        channel: 0,
        seq: 1,
        op: 0,
        requests: 8,
        doorbell_ns: 100,
        pickup_ns: 120,
        dispatched_ns: 150,
        compute_gap_ns: 30,
    };
    let mut released = false;
    tap.batch_retire(&batch, 2, 950, 1_000, || {
        // What a waiter may read once region 4 releases it.
        let m = &e.metrics;
        assert_eq!(
            (m.batches.get(), m.requests.get(), m.errors.get()),
            (1, 8, 2)
        );
        assert_eq!(m.io_time_ns.get(), 850);
        assert_eq!((m.compute_time_ns.get(), m.compute_samples.get()), (30, 1));
        // What stays off its critical path.
        assert_eq!(m.batch_total(0, 0).count(), 0);
        assert_eq!(e.windows.channel_batch[0].count_at(1_000), 0);
        assert_eq!(e.recorder.emitted(), 0);
        released = true;
    });
    assert!(released);
    assert_eq!(e.metrics.batch_total(0, 0).count(), 1);
    assert_eq!(e.recorder.emitted(), 1);
}

#[test]
fn des_default_emits_only_lane_health_and_still_feeds_windows_and_slo() {
    let e = Endpoints::new();
    let tap = LifecycleTap {
        metrics: None,
        recorder: Some(Arc::clone(&e.recorder)),
        lifecycle: false,
        windows: Some(Arc::clone(&e.windows)),
        slo: Some(Arc::clone(&e.slo)),
    };
    drive(&tap);
    let events = e.recorder.snapshot();
    assert_eq!(events.len(), 3);
    assert!(events
        .iter()
        .all(|e| matches!(e.kind, EventKind::LaneHealth { .. })));
    let snap = e.registry.snapshot();
    assert!(snap.counters.values().all(|&v| v == 0));
    assert!(snap.gauges.values().all(|&v| v == 0));
    assert!(snap.histograms.values().all(|h| h.count == 0));
    // Windows and SLO read exactly as with everything attached.
    let window_lines = |t: &str| -> Vec<String> {
        t.lines()
            .filter(|l| l.starts_with("window"))
            .map(str::to_owned)
            .collect()
    };
    assert_eq!(window_lines(&e.transcript(END)), window_lines(GOLDEN));
    // And with nothing attached at all, every hand-off is a no-op.
    drive(&LifecycleTap::default());
}
