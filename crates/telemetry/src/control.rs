//! [`ControlMetrics`] — the pre-registered metric bundle the CAM control
//! plane records into. Registering every handle up front keeps the poller
//! and worker hot paths free of registry map lookups.

use crate::registry::{Counter, Gauge, MetricsRegistry};
use crate::shared::HistogramHandle;
use crate::span::Stage;

/// Every metric the functional engine maintains, resolved to handles.
///
/// Naming scheme (all durations in nanoseconds):
///
/// | metric | kind | labels |
/// |---|---|---|
/// | `cam_batches_total` | counter | — |
/// | `cam_requests_total` | counter | — |
/// | `cam_errors_total` | counter | — |
/// | `cam_io_time_ns_total` | counter | — |
/// | `cam_compute_time_ns_total` | counter | — |
/// | `cam_compute_samples_total` | counter | — |
/// | `cam_active_workers` | gauge | — |
/// | `cam_workers_min` / `cam_workers_max` | gauge | — |
/// | `cam_scaler_grow_total` / `cam_scaler_shrink_total` | counter | — |
/// | `cam_stage_ns` | histogram | `op`, `stage` |
/// | `cam_batch_total_ns` | histogram | `channel`, `op` |
/// | `cam_ssd_submit_ns` / `cam_ssd_complete_ns` | histogram | `ssd` |
/// | `cam_ssd_submitted_total` / `cam_ssd_completed_total` | counter | `ssd` |
/// | `cam_dedup_dropped_total` | counter | — |
/// | `cam_sync_wait_ns` | histogram | — |
/// | `cam_retries_total` | counter | — |
/// | `cam_cmd_timeouts_total` | counter | — |
/// | `cam_stripe_splits_total` | counter | — |
/// | `cam_inflight` | gauge | `ssd` |
/// | `cam_inflight_peak` | gauge | `ssd` |
/// | `cam_lane_health` | gauge | `ssd` |
/// | `cam_slo_burn_rate` | gauge | `channel` |
/// | `cam_worker_park_ratio` | gauge | `worker` |
pub struct ControlMetrics {
    /// Batches retired.
    pub batches: Counter,
    /// Requests completed (success or error).
    pub requests: Counter,
    /// Requests completed with an error status.
    pub errors: Counter,
    /// Cumulative per-batch I/O time (doorbell→retire), nanoseconds.
    pub io_time_ns: Counter,
    /// Cumulative observed GPU compute gaps between batches, nanoseconds.
    pub compute_time_ns: Counter,
    /// Number of compute-gap observations.
    pub compute_samples: Counter,
    /// Workers currently dispatching.
    pub active_workers: Gauge,
    /// Scaler lower bound.
    pub workers_min: Gauge,
    /// Scaler upper bound.
    pub workers_max: Gauge,
    /// Scaler grow decisions.
    pub scaler_grow: Counter,
    /// Scaler shrink decisions.
    pub scaler_shrink: Counter,
    /// Duplicate LBAs removed from read batches before group dispatch (the
    /// dropped requests are served by a host-side copy at retire).
    pub dedup_dropped: Counter,
    /// Commands re-submitted after a transient NVMe failure.
    pub retries: Counter,
    /// Commands abandoned because their deadline expired.
    pub cmd_timeouts: Counter,
    /// Extra requests created by stripe-boundary splitting (runs emitted
    /// minus requests submitted).
    pub stripe_splits: Counter,
    /// Time host threads spent spinning in `synchronize_*`.
    pub sync_wait_ns: HistogramHandle,
    /// Per-SSD commands currently in flight (sampled at each doorbell and
    /// reap by the owning worker).
    pub inflight: Vec<Gauge>,
    /// Per-SSD high-water mark of in-flight commands.
    pub inflight_peak: Vec<Gauge>,
    /// Per-SSD lane-health state code (0 healthy, 1 degraded, 2 overloaded,
    /// 3 recovered — see `cam-protocol::HealthState`).
    pub lane_health: Vec<Gauge>,
    /// Per-channel SLO burn rate ×1000 (gauges are integers; 1000 = burning
    /// error budget exactly at the allowed speed).
    pub slo_burn: Vec<Gauge>,
    /// Per-worker parked-time share over the rolling window, ×1000 (the
    /// same milli-gauge convention as `cam_slo_burn_rate`; 1000 = the
    /// worker spent the whole window parked).
    pub worker_park_ratio: Vec<Gauge>,
    /// Per-SSD submit-phase latency (worker dequeue → doorbell rung).
    pub ssd_submit_ns: Vec<HistogramHandle>,
    /// Per-SSD completion-phase latency (doorbell rung → last CQE).
    pub ssd_complete_ns: Vec<HistogramHandle>,
    /// Per-SSD requests submitted.
    pub ssd_submitted: Vec<Counter>,
    /// Per-SSD requests completed.
    pub ssd_completed: Vec<Counter>,
    stage: Vec<HistogramHandle>,
    batch_total: Vec<HistogramHandle>,
    n_channels: usize,
}

impl ControlMetrics {
    /// Operation labels, indexed by the `op` argument of [`Self::stage`].
    pub const OPS: [&'static str; 2] = ["read", "write"];

    /// Registers (or re-attaches to) every control-plane metric in `reg`.
    pub fn new(reg: &MetricsRegistry, n_channels: usize, n_ssds: usize, n_workers: usize) -> Self {
        let stage = Self::OPS
            .iter()
            .flat_map(|op| {
                Stage::ALL
                    .iter()
                    .map(move |s| format!("cam_stage_ns{{op=\"{op}\",stage=\"{}\"}}", s.name()))
            })
            .map(|name| reg.histogram(&name))
            .collect();
        let batch_total = (0..n_channels)
            .flat_map(|ch| {
                Self::OPS
                    .iter()
                    .map(move |op| format!("cam_batch_total_ns{{channel=\"{ch}\",op=\"{op}\"}}"))
            })
            .map(|name| reg.histogram(&name))
            .collect();
        ControlMetrics {
            batches: reg.counter("cam_batches_total"),
            requests: reg.counter("cam_requests_total"),
            errors: reg.counter("cam_errors_total"),
            io_time_ns: reg.counter("cam_io_time_ns_total"),
            compute_time_ns: reg.counter("cam_compute_time_ns_total"),
            compute_samples: reg.counter("cam_compute_samples_total"),
            active_workers: reg.gauge("cam_active_workers"),
            workers_min: reg.gauge("cam_workers_min"),
            workers_max: reg.gauge("cam_workers_max"),
            scaler_grow: reg.counter("cam_scaler_grow_total"),
            scaler_shrink: reg.counter("cam_scaler_shrink_total"),
            dedup_dropped: reg.counter("cam_dedup_dropped_total"),
            retries: reg.counter("cam_retries_total"),
            cmd_timeouts: reg.counter("cam_cmd_timeouts_total"),
            stripe_splits: reg.counter("cam_stripe_splits_total"),
            sync_wait_ns: reg.histogram("cam_sync_wait_ns"),
            inflight: (0..n_ssds)
                .map(|i| reg.gauge(&format!("cam_inflight{{ssd=\"{i}\"}}")))
                .collect(),
            inflight_peak: (0..n_ssds)
                .map(|i| reg.gauge(&format!("cam_inflight_peak{{ssd=\"{i}\"}}")))
                .collect(),
            lane_health: (0..n_ssds)
                .map(|i| reg.gauge(&format!("cam_lane_health{{ssd=\"{i}\"}}")))
                .collect(),
            slo_burn: (0..n_channels)
                .map(|ch| reg.gauge(&format!("cam_slo_burn_rate{{channel=\"{ch}\"}}")))
                .collect(),
            worker_park_ratio: (0..n_workers)
                .map(|w| reg.gauge(&format!("cam_worker_park_ratio{{worker=\"{w}\"}}")))
                .collect(),
            ssd_submit_ns: (0..n_ssds)
                .map(|i| reg.histogram(&format!("cam_ssd_submit_ns{{ssd=\"{i}\"}}")))
                .collect(),
            ssd_complete_ns: (0..n_ssds)
                .map(|i| reg.histogram(&format!("cam_ssd_complete_ns{{ssd=\"{i}\"}}")))
                .collect(),
            ssd_submitted: (0..n_ssds)
                .map(|i| reg.counter(&format!("cam_ssd_submitted_total{{ssd=\"{i}\"}}")))
                .collect(),
            ssd_completed: (0..n_ssds)
                .map(|i| reg.counter(&format!("cam_ssd_completed_total{{ssd=\"{i}\"}}")))
                .collect(),
            stage,
            batch_total,
            n_channels,
        }
    }

    /// Stage histogram for (`op`, `stage`); `op` indexes [`Self::OPS`].
    pub fn stage(&self, op: usize, stage: Stage) -> &HistogramHandle {
        &self.stage[op * Stage::ALL.len() + stage.index()]
    }

    /// Doorbell→retire histogram for (`channel`, `op`).
    pub fn batch_total(&self, channel: usize, op: usize) -> &HistogramHandle {
        debug_assert!(channel < self.n_channels);
        &self.batch_total[channel * Self::OPS.len() + op]
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn bundle_registers_expected_names() {
        let reg = MetricsRegistry::new();
        let m = ControlMetrics::new(&reg, 2, 3, 2);
        m.batches.inc();
        m.stage(0, Stage::Pickup).record(10);
        m.stage(1, Stage::Retire).record(20);
        m.batch_total(1, 0).record(30);
        m.ssd_submitted[2].add(4);
        let snap = reg.snapshot();
        assert_eq!(snap.counter("cam_batches_total"), 1);
        assert_eq!(
            snap.histogram("cam_stage_ns{op=\"read\",stage=\"pickup\"}")
                .unwrap()
                .count,
            1
        );
        assert_eq!(
            snap.histogram("cam_stage_ns{op=\"write\",stage=\"retire\"}")
                .unwrap()
                .max,
            20
        );
        assert_eq!(
            snap.histogram("cam_batch_total_ns{channel=\"1\",op=\"read\"}")
                .unwrap()
                .max,
            30
        );
        assert_eq!(snap.counter("cam_ssd_submitted_total{ssd=\"2\"}"), 4);
        m.worker_park_ratio[1].set(950);
        assert_eq!(
            reg.snapshot().gauge("cam_worker_park_ratio{worker=\"1\"}"),
            950
        );
        // Re-attaching to the same registry shares state.
        let m2 = ControlMetrics::new(&reg, 2, 3, 2);
        assert_eq!(m2.batches.get(), 1);
    }

    #[test]
    fn every_op_stage_pair_is_distinct() {
        let reg = MetricsRegistry::new();
        let m = ControlMetrics::new(&reg, 1, 1, 1);
        for (op, _) in ControlMetrics::OPS.iter().enumerate() {
            for s in Stage::ALL {
                m.stage(op, s).record(1);
            }
        }
        let snap = reg.snapshot();
        let stage_hists = snap
            .histograms
            .keys()
            .filter(|k| k.starts_with("cam_stage_ns"))
            .count();
        assert_eq!(stage_hists, 10);
        for h in snap.histograms.values() {
            assert!(h.count <= 1);
        }
    }
}
