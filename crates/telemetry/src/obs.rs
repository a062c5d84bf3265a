//! The [`Observability`] bundle: everything a CAM attachment can record
//! into, carried as one value.
//!
//! The metric layer is the registry; the event layer adds two optional
//! endpoints (flight recorder, post-mortem dumper) plus a batch deadline,
//! and the live ops plane two more (windows, SLO tracker). Bundling them
//! keeps `CamConfig` `Copy` and gives `CamContext::attach_observed` a
//! single argument that defaults to "metrics only".

use std::sync::Arc;

use crate::postmortem::PostmortemDumper;
use crate::recorder::FlightRecorder;
use crate::window::{OpsWindows, SloTracker};
use crate::MetricsRegistry;

/// Observability endpoints for one CAM attachment. See module docs.
#[derive(Clone)]
pub struct Observability {
    /// Metric layer: counters, gauges, stage histograms.
    pub registry: Arc<MetricsRegistry>,
    /// Event layer: when set, every instrumented site emits typed events.
    pub recorder: Option<Arc<FlightRecorder>>,
    /// When set, triggered on batch errors and deadline overruns.
    pub postmortem: Option<Arc<PostmortemDumper>>,
    /// Doorbell→retire budget; batches exceeding it trigger the
    /// post-mortem dumper.
    pub batch_deadline_ns: Option<u64>,
    /// Live ops plane: rolling-window samplers the drivers record into.
    pub windows: Option<Arc<OpsWindows>>,
    /// Live ops plane: per-channel SLO accounting, fed at batch retire.
    pub slo: Option<Arc<SloTracker>>,
}

impl Observability {
    /// Metrics into `registry`, no event layer.
    pub fn with_registry(registry: Arc<MetricsRegistry>) -> Self {
        Observability {
            registry,
            recorder: None,
            postmortem: None,
            batch_deadline_ns: None,
            windows: None,
            slo: None,
        }
    }

    /// Metrics plus a flight recorder.
    pub fn recorded(registry: Arc<MetricsRegistry>, recorder: Arc<FlightRecorder>) -> Self {
        let mut o = Self::with_registry(registry);
        o.recorder = Some(recorder);
        o
    }

    /// Arms the post-mortem dumper (also adopts its recorder if none is
    /// set yet, so dump windows always match the attached event stream).
    pub fn with_postmortem(mut self, dumper: Arc<PostmortemDumper>) -> Self {
        if self.recorder.is_none() {
            self.recorder = Some(Arc::clone(dumper.recorder()));
        }
        self.postmortem = Some(dumper);
        self
    }

    /// Sets the doorbell→retire deadline that triggers a post-mortem.
    pub fn with_deadline_ns(mut self, deadline_ns: u64) -> Self {
        self.batch_deadline_ns = Some(deadline_ns);
        self
    }

    /// Attaches the rolling-window sampler bundle (live ops plane).
    pub fn with_windows(mut self, windows: Arc<OpsWindows>) -> Self {
        self.windows = Some(windows);
        self
    }

    /// Attaches the per-channel SLO tracker (live ops plane).
    pub fn with_slo(mut self, slo: Arc<SloTracker>) -> Self {
        self.slo = Some(slo);
        self
    }
}

impl Default for Observability {
    /// Private registry, event layer off — the same
    /// behaviour as plain `CamContext::attach`.
    fn default() -> Self {
        Self::with_registry(Arc::new(MetricsRegistry::new()))
    }
}

impl std::fmt::Debug for Observability {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("Observability")
            .field("recorder", &self.recorder.is_some())
            .field("postmortem", &self.postmortem.is_some())
            .field("batch_deadline_ns", &self.batch_deadline_ns)
            .finish()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::postmortem::PostmortemConfig;

    #[test]
    fn postmortem_adopts_recorder() {
        let rec = Arc::new(FlightRecorder::new());
        let reg = Arc::new(MetricsRegistry::new());
        let dumper = Arc::new(PostmortemDumper::new(
            Arc::clone(&rec),
            Arc::clone(&reg),
            PostmortemConfig::new("unused.json"),
        ));
        let obs = Observability::with_registry(reg).with_postmortem(dumper);
        assert!(obs.recorder.is_some());
        assert!(Arc::ptr_eq(obs.recorder.as_ref().unwrap(), &rec));
        // An explicitly-set recorder is kept.
        let other = Arc::new(FlightRecorder::new());
        let obs2 = Observability::recorded(Arc::new(MetricsRegistry::new()), Arc::clone(&other));
        assert!(Arc::ptr_eq(obs2.recorder.as_ref().unwrap(), &other));
    }
}
