//! # cam-telemetry — end-to-end observability for the CAM control plane
//!
//! CAM's contribution is a control-plane split whose behaviour lives in
//! timing: the GPU rings a doorbell, a persistent CPU thread picks the batch
//! up, workers fan requests out to private NVMe queue pairs, completions
//! drain, and the batch retires through region 4. This crate provides the
//! instruments that make those hand-offs visible:
//!
//! * [`MetricsRegistry`] — a process-wide, name-addressed registry of
//!   [`Counter`]s, [`Gauge`]s and sharded histograms with Prometheus text
//!   exposition and JSON snapshot output;
//! * [`Histogram`] — the log-linear histogram (lifted from `cam-simkit`,
//!   which re-exports it) with ≤ `1/SUB_BUCKETS` relative quantile error;
//! * [`SharedHistogram`] / [`HistogramHandle`] — the same histogram behind
//!   sharded `parking_lot` locks for concurrent recording from pollers,
//!   workers and device service threads;
//! * [`Stage`] — the batch lifecycle protocol stages (doorbell → pickup →
//!   dispatch → submit → complete → retire);
//! * [`ControlMetrics`] — the pre-registered metric bundle the functional
//!   engine records into, so hot paths never touch the registry's maps;
//! * [`LifecycleTap`] — the one observer both drivers report lifecycle
//!   hand-offs to: it owns the stage spans, the lifecycle metrics, windows,
//!   SLO samples and events;
//! * [`TenantMetrics`] — the per-tenant bundle the `cam-serving` request
//!   plane records into (`tenant`-labeled burn rate, latency, hit rate);
//! * [`clock`] — the shared monotonic nanosecond clock all spans use.
//!
//! On top of the metric layer sits the **event layer**: the
//! flight recorder and its consumers, sharing the same clock and the same
//! attach-gated cost model:
//!
//! * [`FlightRecorder`] — a bounded, per-thread-sharded ring of typed
//!   [`Event`]s covering every protocol hand-off in both engines;
//! * [`trace`] — Chrome trace-event / Perfetto export of a recorder
//!   snapshot, plus its schema validator;
//! * [`json`] — the one serde-free JSON value model, parser and writer
//!   every emitted document goes through;
//! * [`PostmortemDumper`] — fault-/deadline-triggered dumps of the last N
//!   events plus a registry snapshot;
//! * [`attribution`] — per-batch attribution of doorbell→retire latency
//!   along the group that gated retirement, and its mean and p99-tail
//!   decomposition into doorbell-wait / dispatch / lane-wait / SSD-service /
//!   retire components;
//! * [`Observability`] — the bundle (`registry` + `recorder` +
//!   `postmortem` + deadline) a CAM attachment records into.
//!
//! Instrumentation cost when nobody is looking: counters and gauges are one
//! relaxed atomic op; a histogram record is one uncontended sharded lock;
//! an un-attached event site is a single atomic load.

#![warn(missing_docs)]
#![deny(unsafe_code)]

pub mod attribution;
pub mod clock;
mod control;
mod event;
mod hist;
pub mod json;
mod lifecycle;
mod obs;
mod postmortem;
mod recorder;
mod registry;
mod shared;
mod span;
mod tenant;
pub mod trace;
mod window;

pub use control::ControlMetrics;
pub use event::{health_state_label, Event, EventKind};
pub use hist::Histogram;
pub use lifecycle::{BatchFacts, Lane, LifecycleTap};
pub use obs::Observability;
pub use postmortem::{PostmortemConfig, PostmortemDumper};
pub use recorder::{FlightRecorder, DEFAULT_CAPACITY_PER_SHARD};
pub use registry::{Counter, Gauge, HistogramSummary, MetricsRegistry, MetricsSnapshot};
pub use shared::{HistogramHandle, ShardClaim, SharedHistogram};
pub use span::Stage;
pub use tenant::TenantMetrics;
pub use window::{
    OpsWindows, SloBurn, SloConfig, SloTracker, WindowConfig, WindowedCounter, WindowedHistogram,
};
