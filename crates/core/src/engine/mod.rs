//! The CPU user-space control plane (§ III-A): the threaded driver over
//! the pure protocol layer.
//!
//! The engine is a set of lcore-style **run-to-completion workers**
//! ([`shard`]) — the paper's persistent CPU threads ("CAM does not require
//! persistent threads on the GPU. Instead, it requires a persistent thread
//! on the CPU"). Worker *w* owns channels `ch % workers` outright, performs
//! doorbell pickup and [`cam_protocol::plan_batch`] planning inline
//! ([`dispatch::poll_channel`]), routes each per-SSD group to the worker
//! owning that SSD over that worker's bounded `std::sync::mpsc` channel,
//! and drives a [`cam_protocol::WorkerCore`] state machine over private
//! queue pairs (SPDK's no-locks-in-the-I/O-path discipline), executing the
//! [`cam_protocol::Command`]s it emits ([`reactor`]) — SQE pushes and
//! doorbell rings. Group admission and the lifecycle half of the commands
//! (one [`LifecycleTap`] call per hand-off: the tap owns every span,
//! metric, window and event of the lifecycle) go through the worker shell
//! the DES driver runs too ([`cam_iostacks::shell`]); this driver only
//! supplies the wall clock. The last group of a batch retires it
//! ([`retire`]) by writing region 4 and feeds the [`DynamicScaler`] with the
//! batch's compute/I/O times. When the protocol reports nothing actionable
//! ([`cam_protocol::ParkHint`]), the worker parks its thread
//! (`std::thread::park_timeout`) and is unparked by doorbell publishes,
//! hand-offs from peers and stop — idle CPU burn goes to ~0 instead of a
//! spin loop.
//!
//! All protocol decisions live in `cam-protocol` and are clock-agnostic —
//! time enters them as a `now_ns` argument. This module is the *only*
//! place wall-clock time enters: every `now_ns` it hands over is read
//! from the telemetry timeline ([`cam_telemetry::clock::now_ns`]), so
//! protocol timestamps and trace events share one time base. The DES
//! driver (`cam_iostacks::cam_des`) steps the same protocol objects in
//! virtual time; `docs/TIMING.md` describes the split.
//!
//! [`DynamicScaler`]: crate::DynamicScaler

mod dispatch;
mod reactor;
mod retire;
mod shard;

use std::sync::atomic::{AtomicBool, AtomicU64, AtomicUsize, Ordering};
use std::sync::mpsc::{self, SyncSender};
use std::sync::{Arc, OnceLock};
use std::thread::{JoinHandle, Thread};

use cam_iostacks::Rig;
use cam_nvme::{DmaSpace, QueuePair};
use cam_protocol::{GroupSpec, PlanConfig, RetryPolicy};
use cam_simkit::Dur;
use cam_telemetry::{
    ControlMetrics, FlightRecorder, LifecycleTap, Observability, PostmortemDumper,
};
use parking_lot::Mutex;

use crate::regions::Channel;
use crate::scaler::DynamicScaler;
use crate::CamConfig;

/// The threaded engine's one threading model. Kept only because the frozen
/// benchmark names it; delete at the next benchmark re-anchor.
#[derive(Clone, Copy, PartialEq, Eq, Debug, Default)]
pub enum ThreadModel {
    /// lcore-style run-to-completion workers (see the module docs).
    #[default]
    ThreadPerCore,
}

/// A point-in-time snapshot of control-plane counters.
///
/// Derived from the telemetry registry: every field is readable as a
/// `cam_*` metric too (see [`ControlMetrics`]); this struct is the
/// ergonomic host-API view.
#[derive(Clone, Copy, Debug, Default)]
pub struct ControlStats {
    /// Batches retired.
    pub batches: u64,
    /// Requests completed.
    pub requests: u64,
    /// Commands that failed.
    pub errors: u64,
    /// Commands re-submitted after a transient NVMe failure.
    pub retries: u64,
    /// Commands abandoned because their deadline expired.
    pub cmd_timeouts: u64,
    /// Extra requests created by stripe-boundary splitting.
    pub stripe_splits: u64,
    /// Workers currently active (≤ spawned workers).
    pub active_workers: usize,
    /// Mean I/O time per batch (doorbell → region-4 write). `None` until a
    /// batch has retired — a snapshot with no batches has no mean, and
    /// reporting 0 silently would poison downstream rate math.
    pub mean_io: Option<Dur>,
    /// Mean GPU-side gap between batches (retire → next doorbell), the
    /// control plane's estimate of computation time. `None` until the first
    /// gap is observed.
    pub mean_compute: Option<Dur>,
    /// Cumulative I/O time across all batches (the numerator of
    /// [`mean_io`](Self::mean_io); kept so snapshots can be diffed).
    pub total_io: Dur,
    /// Cumulative observed compute gaps (numerator of
    /// [`mean_compute`](Self::mean_compute)).
    pub total_compute: Dur,
    /// Number of compute-gap observations (denominator of
    /// [`mean_compute`](Self::mean_compute)).
    pub compute_samples: u64,
}

impl ControlStats {
    /// Counters accumulated since `earlier` (an older snapshot of the same
    /// control plane): cumulative fields are subtracted and the means
    /// recomputed over the interval, so per-phase workloads can be measured
    /// without resetting the registry. `active_workers` is a gauge and keeps
    /// the current (later) value.
    pub fn diff(&self, earlier: &ControlStats) -> ControlStats {
        let batches = self.batches.saturating_sub(earlier.batches);
        let io_ns = self
            .total_io
            .as_ns()
            .saturating_sub(earlier.total_io.as_ns());
        let compute_ns = self
            .total_compute
            .as_ns()
            .saturating_sub(earlier.total_compute.as_ns());
        let samples = self.compute_samples.saturating_sub(earlier.compute_samples);
        ControlStats {
            batches,
            requests: self.requests.saturating_sub(earlier.requests),
            errors: self.errors.saturating_sub(earlier.errors),
            retries: self.retries.saturating_sub(earlier.retries),
            cmd_timeouts: self.cmd_timeouts.saturating_sub(earlier.cmd_timeouts),
            stripe_splits: self.stripe_splits.saturating_sub(earlier.stripe_splits),
            active_workers: self.active_workers,
            mean_io: mean_dur(io_ns, batches),
            mean_compute: mean_dur(compute_ns, samples),
            total_io: Dur::ns(io_ns),
            total_compute: Dur::ns(compute_ns),
            compute_samples: samples,
        }
    }

    /// Mean I/O time in seconds, NaN-safe: `None` when no batch retired.
    pub fn mean_io_secs(&self) -> Option<f64> {
        self.mean_io.map(|d| d.as_secs_f64())
    }
}

/// `total / n` as a duration, or `None` when there are no observations —
/// never a silent 0.
fn mean_dur(total_ns: u64, n: u64) -> Option<Dur> {
    (n > 0).then(|| Dur::ns(total_ns / n))
}

/// State shared by the workers and the host-facing
/// [`ControlPlane`] handle.
struct Shared {
    channels: Arc<Vec<Channel>>,
    /// Pinned address space shared with the SSDs, for host-side copies
    /// (duplicate-LBA replication at retire).
    dma: Arc<dyn DmaSpace>,
    /// `qps[ssd][worker]` — each worker's private queue pair per SSD.
    qps: Vec<Vec<Arc<QueuePair>>>,
    /// Array geometry for dispatch planning (and the block size for the
    /// dedup replication copies at retire).
    plan: PlanConfig,
    active_workers: AtomicUsize,
    stop: AtomicBool,
    scaler: Mutex<DynamicScaler>,
    dynamic: bool,
    /// All counters/histograms live in the registry behind these handles —
    /// the control plane keeps no parallel ad-hoc stat atomics. The
    /// lifecycle ones are fed through `tap`; used directly here only for
    /// what this driver alone has (queue pairs, parking, scaling).
    metrics: Arc<ControlMetrics>,
    /// The lifecycle observer: every batch hand-off is reported here.
    tap: LifecycleTap,
    /// Event layer, for the scaler's decisions and thread names.
    recorder: Option<Arc<FlightRecorder>>,
    /// Post-mortem dumper, triggered at retire on errors or deadline
    /// overrun.
    postmortem: Option<Arc<PostmortemDumper>>,
    /// Doorbell→retire budget for the post-mortem trigger.
    deadline_ns: Option<u64>,
    /// Per-command retry/backoff/deadline policy for the workers' protocol
    /// cores.
    retry: RetryPolicy,
    /// Per-channel retire timestamps (telemetry-timeline ns; 0 = no retire
    /// yet) for compute-gap estimation, sized to the channel count.
    last_retire: Vec<AtomicU64>,
    /// Cross-worker hand-off: `handoff[w]` sends a group to worker `w`,
    /// whose thread owns the matching receiver.
    handoff: Vec<SyncSender<GroupSpec>>,
    /// Every worker's thread, to unpark a peer after a hand-off. Set once
    /// all workers are spawned, before [`ControlPlane::start`] returns; no
    /// doorbell can be published before then, so no hand-off (and no
    /// wake-up) can happen while it is unset.
    threads: OnceLock<Vec<Thread>>,
}

impl Shared {
    /// Wakes worker `w`: one atomic swap unless it is parked, and a token
    /// its next park consumes if it is not.
    fn unpark(&self, w: usize) {
        self.threads
            .get()
            .expect("workers are spawned before any hand-off")[w]
            .unpark();
    }
}

/// The running control plane. Stops and joins its threads on drop.
pub(crate) struct ControlPlane {
    shared: Arc<Shared>,
    workers: Vec<JoinHandle<()>>,
}

impl ControlPlane {
    /// Spawns `max_workers` worker threads over `rig`'s SSDs, planning
    /// batches by `plan` (the rig's array geometry).
    ///
    /// Fails with the OS error if any thread cannot be spawned (resource
    /// exhaustion); threads spawned before the failure are stopped and
    /// joined, so an `Err` leaves nothing running.
    pub(crate) fn start(
        rig: &Rig,
        channels: Arc<Vec<Channel>>,
        cfg: &CamConfig,
        max_workers: usize,
        plan: PlanConfig,
        metrics: Arc<ControlMetrics>,
        obs: &Observability,
    ) -> std::io::Result<Self> {
        let n_ssds = plan.n_ssds;
        assert!(n_ssds >= 1 && max_workers >= 1);
        let qps: Vec<Vec<Arc<QueuePair>>> = rig
            .devices()
            .iter()
            .map(|d| {
                (0..max_workers)
                    .map(|_| d.add_queue_pair(cfg.queue_depth))
                    .collect()
            })
            .collect();
        let scaler = if cfg.dynamic_scaling {
            DynamicScaler::for_ssds(n_ssds)
        } else {
            DynamicScaler::with_bounds(max_workers, max_workers)
        };
        let initial = scaler.active().min(max_workers);
        metrics.active_workers.set(initial as u64);
        metrics.workers_min.set(scaler.min() as u64);
        metrics.workers_max.set(scaler.max() as u64);
        let n_channels = channels.len();
        // Hand-off capacity: each of the W−1 peers owns ceil(C/W) channels,
        // each with one outstanding batch fanning out to at most n_ssds
        // groups — a send can only find the channel full under a transient
        // drain lag, which the producer rides out by spinning (and draining
        // its own receiver to avoid a mutual-send deadlock).
        let capacity = ((max_workers - 1) * n_channels.div_ceil(max_workers) * n_ssds).max(1);
        let (handoff, receivers): (Vec<_>, Vec<_>) = (0..max_workers)
            .map(|_| mpsc::sync_channel(capacity))
            .unzip();
        let shared = Arc::new(Shared {
            channels,
            dma: rig.dma_space(),
            qps,
            plan,
            active_workers: AtomicUsize::new(initial),
            stop: AtomicBool::new(false),
            scaler: Mutex::new(scaler),
            dynamic: cfg.dynamic_scaling,
            tap: LifecycleTap {
                metrics: Some(Arc::clone(&metrics)),
                recorder: obs.recorder.clone(),
                lifecycle: true,
                windows: obs.windows.clone(),
                slo: obs.slo.clone(),
            },
            metrics,
            recorder: obs.recorder.clone(),
            postmortem: obs.postmortem.clone(),
            deadline_ns: obs.batch_deadline_ns,
            retry: RetryPolicy {
                max_retries: cfg.max_retries,
                backoff_base_ns: cfg.retry_backoff_ns,
                deadline_ns: cfg.cmd_deadline_ns,
            },
            last_retire: (0..n_channels).map(|_| AtomicU64::new(0)).collect(),
            handoff,
            threads: OnceLock::new(),
        });

        // A spawn failure drops `plane`, whose `Drop` stops, unparks and
        // joins the workers already running: a half-built plane must not
        // leak live workers holding the shared state.
        let mut plane = ControlPlane {
            shared,
            workers: Vec::with_capacity(max_workers),
        };
        let pipelined = cfg.pipelined;
        for (wid, rx) in receivers.into_iter().enumerate() {
            let sh = Arc::clone(&plane.shared);
            let spawned = std::thread::Builder::new()
                .name(format!("cam-worker{wid}"))
                .spawn(move || shard::shard_loop(&sh, wid, &rx, pipelined));
            plane.workers.push(spawned?);
        }
        let threads: Vec<Thread> = plane.workers.iter().map(|h| h.thread().clone()).collect();
        // Doorbell publishes wake the worker owning the channel
        // (`ch % workers` — the same static shard the workers poll), so an
        // idle engine burns no CPU waiting for work.
        for (ch_idx, ch) in plane.shared.channels.iter().enumerate() {
            ch.set_waker(threads[ch_idx % max_workers].clone());
        }
        let _ = plane.shared.threads.set(threads);
        Ok(plane)
    }

    pub(crate) fn stats(&self) -> ControlStats {
        let sh = &self.shared;
        let m = &sh.metrics;
        let batches = m.batches.get();
        let samples = m.compute_samples.get();
        let io_ns = m.io_time_ns.get();
        let compute_ns = m.compute_time_ns.get();
        ControlStats {
            batches,
            requests: m.requests.get(),
            errors: m.errors.get(),
            retries: m.retries.get(),
            cmd_timeouts: m.cmd_timeouts.get(),
            stripe_splits: m.stripe_splits.get(),
            active_workers: sh.active_workers.load(Ordering::Relaxed),
            mean_io: mean_dur(io_ns, batches),
            mean_compute: mean_dur(compute_ns, samples),
            total_io: Dur::ns(io_ns),
            total_compute: Dur::ns(compute_ns),
            compute_samples: samples,
        }
    }

    /// Number of worker threads spawned (scaling happens within these).
    pub(crate) fn max_workers(&self) -> usize {
        self.workers.len()
    }

    pub(crate) fn stop(&mut self) {
        self.shared.stop.store(true, Ordering::Release);
        // Wake every parked worker so shutdown latency is bounded by the
        // join, not by a park timeout.
        for w in &self.workers {
            w.thread().unpark();
        }
        for w in self.workers.drain(..) {
            let _ = w.join();
        }
        // Lane quiescence (degraded/overloaded → recovered) was emitted by
        // each worker as it exited — the lane-health machines live in the
        // workers' protocol cores, and the workers have all joined by now.
    }
}

impl Drop for ControlPlane {
    fn drop(&mut self) {
        self.stop();
    }
}
