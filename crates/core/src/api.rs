//! The CAM API of Table II: host-side setup ([`CamContext`]) and the
//! device-side calls ([`CamDevice`]) kernels use to overlap computation
//! with SSD I/O while keeping a synchronous programming experience.

use std::fmt;
use std::sync::Arc;

use cam_gpu::{Gpu, GpuBuffer, OutOfMemory};
use cam_iostacks::Rig;
use cam_protocol::PlanConfig;
use cam_telemetry::{
    clock, ControlMetrics, EventKind, FlightRecorder, Histogram, HistogramHandle, MetricsRegistry,
    Observability, Stage,
};

use crate::engine::{ControlPlane, ControlStats, ThreadModel};
use crate::regions::{Channel, ChannelOp, PublishError};

/// Configuration for [`CamContext::attach`] (`CAM_init`).
#[derive(Clone, Copy, Debug)]
pub struct CamConfig {
    /// Region-1 capacity: maximum requests per batch.
    pub max_batch: usize,
    /// Channels (independent batch streams). The default 2 carries
    /// prefetch on channel 0 and write-back on channel 1, as Fig. 7 uses.
    pub n_channels: usize,
    /// NVMe queue depth per worker per SSD.
    pub queue_depth: usize,
    /// Dynamic core adjustment (§ III-A). When off, all workers stay
    /// active.
    pub dynamic_scaling: bool,
    /// Worker threads to spawn; defaults to `ceil(N/2)` for `N` SSDs
    /// (Fig. 12: one thread drives two SSDs without degradation).
    pub workers: Option<usize>,
    /// Re-submissions allowed per command after a transient NVMe failure
    /// (0 disables retries).
    pub max_retries: u32,
    /// Base of the per-command exponential retry backoff; doubles per
    /// attempt.
    pub retry_backoff_ns: u64,
    /// Per-command deadline from dispatch to final completion. A command
    /// over it is failed (surfacing as [`CamError::Io`] at synchronize) —
    /// the worker thread is never wedged. `None` = unbounded.
    pub cmd_deadline_ns: Option<u64>,
    /// Pipelined reactor: workers keep commands from multiple batches in
    /// flight per SSD up to queue depth. Turn off for the blocking
    /// group-at-a-time baseline (benchmarks only).
    pub pipelined: bool,
    /// Read by no code: kept only because the frozen benchmark names it;
    /// delete at the next benchmark re-anchor.
    pub thread_model: ThreadModel,
    /// How long `synchronize_*` and [`BatchTicket::wait`] spin for region 4
    /// before giving up with [`CamError::SyncTimeout`] — a wedged control
    /// plane then surfaces as an error instead of a hung caller. `None` =
    /// wait forever.
    pub sync_timeout_ns: Option<u64>,
}

impl Default for CamConfig {
    fn default() -> Self {
        CamConfig {
            max_batch: 4096,
            n_channels: 2,
            queue_depth: 1024,
            dynamic_scaling: false,
            workers: None,
            max_retries: 3,
            retry_backoff_ns: 20_000,
            cmd_deadline_ns: None,
            pipelined: true,
            thread_model: ThreadModel::default(),
            sync_timeout_ns: Some(10_000_000_000),
        }
    }
}

/// CAM errors.
#[derive(Clone, Copy, PartialEq, Eq, Debug)]
pub enum CamError {
    /// The batch exceeds region-1 capacity — split it.
    BatchTooLarge {
        /// Requests in the attempted batch.
        requested: usize,
        /// Region-1 capacity.
        capacity: usize,
    },
    /// A batch is still outstanding on the channel; call the matching
    /// `*_synchronize` first.
    ChannelBusy,
    /// The batch's requests carry no blocks (`blocks_per_req == 0`).
    /// Nothing was published, so the channel stays usable.
    ZeroBlocks,
    /// Commands failed on the device.
    Io {
        /// Number of failed commands since the last synchronize.
        failed: u64,
    },
    /// No such channel.
    BadChannel(usize),
    /// A synchronize (or ticket wait) exceeded
    /// [`CamConfig::sync_timeout_ns`] without region 4 being written.
    SyncTimeout {
        /// How long the caller spun before giving up, nanoseconds.
        waited_ns: u64,
    },
    /// The OS refused to spawn a control-plane thread (resource
    /// exhaustion). Nothing was left running; retry with fewer workers.
    Spawn,
}

impl fmt::Display for CamError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            CamError::BatchTooLarge {
                requested,
                capacity,
            } => write!(f, "batch of {requested} exceeds capacity {capacity}"),
            CamError::ChannelBusy => write!(f, "channel busy: synchronize first"),
            CamError::ZeroBlocks => write!(f, "a batch must carry at least one block per request"),
            CamError::Io { failed } => write!(f, "{failed} command(s) failed"),
            CamError::BadChannel(ch) => write!(f, "no such channel {ch}"),
            CamError::SyncTimeout { waited_ns } => write!(
                f,
                "synchronize timed out after {:.3} s without a retire",
                *waited_ns as f64 / 1e9
            ),
            CamError::Spawn => write!(f, "failed to spawn a control-plane thread"),
        }
    }
}

impl std::error::Error for CamError {}

/// The host-side context (`CAM_init`): owns the shared channels and the CPU
/// control plane. Stops the control plane on drop.
pub struct CamContext {
    gpu: Arc<Gpu>,
    channels: Arc<Vec<Channel>>,
    control: ControlPlane,
    block_size: u32,
    sync_timeout_ns: Option<u64>,
    registry: Arc<MetricsRegistry>,
    metrics: Arc<ControlMetrics>,
    /// Event layer, when the attachment was observed with a recorder.
    recorder: Option<Arc<FlightRecorder>>,
}

impl CamContext {
    /// `CAM_init`: sets up the four memory regions per channel, registers
    /// queue pairs on every SSD, and starts the persistent CPU worker
    /// threads. Telemetry goes to a private registry
    /// (reachable via [`registry`](Self::registry)); use
    /// [`attach_observed`](Self::attach_observed) to supply your own.
    pub fn attach(rig: &Rig, cfg: CamConfig) -> Self {
        Self::attach_observed(rig, cfg, Observability::default())
    }

    /// [`attach`](Self::attach) with a full [`Observability`] bundle
    /// (registry + optional flight recorder, post-mortem dumper and
    /// batch deadline). Panics on thread-spawn failure; use
    /// [`try_attach_observed`](Self::try_attach_observed) to handle it.
    pub fn attach_observed(rig: &Rig, cfg: CamConfig, obs: Observability) -> Self {
        Self::try_attach_observed(rig, cfg, obs).expect("start CAM control plane")
    }

    /// The fallible attachment path: everything `attach_observed` does, but
    /// surfaces [`CamError::Spawn`] instead of panicking when the OS cannot
    /// create the control-plane threads. On error nothing is left running.
    pub fn try_attach_observed(
        rig: &Rig,
        cfg: CamConfig,
        obs: Observability,
    ) -> Result<Self, CamError> {
        assert!(cfg.n_channels >= 1);
        let channels = Arc::new(
            (0..cfg.n_channels)
                .map(|_| Channel::new(cfg.max_batch))
                .collect::<Vec<_>>(),
        );
        let max_workers = cfg
            .workers
            .unwrap_or_else(|| rig.n_ssds().div_ceil(2))
            .max(1);
        let registry = Arc::clone(&obs.registry);
        let metrics = Arc::new(ControlMetrics::new(
            &registry,
            cfg.n_channels,
            rig.n_ssds(),
            max_workers,
        ));
        // Substrate hooks before the control plane creates queue pairs, so
        // every queue pair inherits the doorbell-batch histogram (and, when
        // a recorder is attached, the doorbell event stream).
        for (idx, dev) in rig.devices().iter().enumerate() {
            dev.attach_telemetry(&registry);
            if let Some(rec) = &obs.recorder {
                dev.attach_recorder(idx as u16, Arc::clone(rec));
            }
        }
        rig.gpu().attach_telemetry(&registry);
        if let Some(rec) = &obs.recorder {
            rig.gpu().attach_recorder(Arc::clone(rec));
        }
        let plan = PlanConfig {
            n_ssds: rig.n_ssds(),
            stripe_blocks: rig.stripe_blocks(),
            block_size: rig.block_size(),
        };
        let control = ControlPlane::start(
            rig,
            Arc::clone(&channels),
            &cfg,
            max_workers,
            plan,
            Arc::clone(&metrics),
            &obs,
        )
        .map_err(|_| CamError::Spawn)?;
        Ok(CamContext {
            gpu: Arc::clone(rig.gpu()),
            channels,
            control,
            block_size: rig.block_size(),
            sync_timeout_ns: cfg.sync_timeout_ns,
            registry,
            metrics,
            recorder: obs.recorder,
        })
    }

    /// The metrics registry this context records into. Snapshot it for
    /// JSON/Prometheus exposition.
    pub fn registry(&self) -> &Arc<MetricsRegistry> {
        &self.registry
    }

    /// The pre-resolved control-plane metric handles (stage histograms,
    /// per-SSD counters, …).
    pub fn metrics(&self) -> &Arc<ControlMetrics> {
        &self.metrics
    }

    /// The flight recorder this context emits into, when attached with one.
    pub fn recorder(&self) -> Option<&Arc<FlightRecorder>> {
        self.recorder.as_ref()
    }

    /// Full-bin snapshots of every (`op`, stage) latency histogram, as
    /// `(op label, stage, merged histogram)` triples in
    /// [`ControlMetrics::OPS`] × [`Stage::ALL`] order. The registry's
    /// summaries keep only quantiles; the queue-delay attribution needs the
    /// bins themselves, so this is the threaded driver's per-stage snapshot
    /// hook (the DES driver's equivalent is its lifecycle event stream).
    pub fn stage_snapshots(&self) -> Vec<(&'static str, Stage, Histogram)> {
        let mut out = Vec::with_capacity(ControlMetrics::OPS.len() * Stage::ALL.len());
        for (op_idx, op) in ControlMetrics::OPS.iter().enumerate() {
            for stage in Stage::ALL {
                out.push((*op, stage, self.metrics.stage(op_idx, stage).snapshot()));
            }
        }
        out
    }

    /// `CAM_alloc`: pinned GPU memory SSDs can DMA into directly.
    pub fn alloc(&self, bytes: usize) -> Result<GpuBuffer, OutOfMemory> {
        self.gpu.alloc(bytes)
    }

    /// The device-side handle to pass into kernels.
    pub fn device(&self) -> CamDevice {
        CamDevice {
            channels: Arc::clone(&self.channels),
            block_size: self.block_size,
            sync_timeout_ns: self.sync_timeout_ns,
            sync_wait: self.metrics.sync_wait_ns.clone(),
            recorder: self.recorder.clone(),
        }
    }

    /// Control-plane counters (batches, errors, worker activity, compute
    /// vs. I/O time estimates).
    pub fn stats(&self) -> ControlStats {
        self.control.stats()
    }

    /// Worker threads spawned (the dynamic scaler works within these).
    pub fn max_workers(&self) -> usize {
        self.control.max_workers()
    }

    /// Array block size in bytes.
    pub fn block_size(&self) -> u32 {
        self.block_size
    }
}

/// A handle to one asynchronous batch (the raw CAM-Async interface).
#[derive(Clone)]
pub struct BatchTicket {
    channels: Arc<Vec<Channel>>,
    channel: usize,
    seq: u64,
    timeout_ns: Option<u64>,
}

impl BatchTicket {
    /// Whether the batch has retired.
    pub fn is_done(&self) -> bool {
        self.channels[self.channel].retired(self.seq)
    }

    /// Blocks until the batch retires (bounded by
    /// [`CamConfig::sync_timeout_ns`]); reports command failures.
    pub fn wait(&self) -> Result<(), CamError> {
        let ch = &self.channels[self.channel];
        wait_retired(ch, self.seq, self.timeout_ns, clock::now_ns())?;
        take_io_result(ch)
    }
}

/// Yields until batch `seq` of `ch` retires — "all threads are blocked and
/// wait for the leading thread to check if the fourth region has been
/// written" — giving up with [`CamError::SyncTimeout`] once more than
/// `timeout_ns` has passed since `start_ns`.
fn wait_retired(
    ch: &Channel,
    seq: u64,
    timeout_ns: Option<u64>,
    start_ns: u64,
) -> Result<(), CamError> {
    while !ch.retired(seq) {
        if let Some(limit) = timeout_ns {
            let waited_ns = clock::now_ns().saturating_sub(start_ns);
            if waited_ns > limit {
                return Err(CamError::SyncTimeout { waited_ns });
            }
        }
        std::thread::yield_now();
    }
    Ok(())
}

/// Reports the command failures `ch` collected since the last wait.
fn take_io_result(ch: &Channel) -> Result<(), CamError> {
    match ch.take_new_errors() {
        0 => Ok(()),
        failed => Err(CamError::Io { failed }),
    }
}

/// The device-side API (Table II's `Run On: Device` rows). Cloneable and
/// thread-safe: pass it into kernels; its methods are what the *leading
/// thread* of a block executes.
#[derive(Clone)]
pub struct CamDevice {
    channels: Arc<Vec<Channel>>,
    block_size: u32,
    sync_timeout_ns: Option<u64>,
    /// Telemetry: time threads spend blocked in `synchronize_*`.
    sync_wait: HistogramHandle,
    /// Event layer: sync-wait spans when the context has a recorder.
    recorder: Option<Arc<FlightRecorder>>,
}

/// Channel conventions matching Fig. 7's usage.
const READ_CHANNEL: usize = 0;
const WRITE_CHANNEL: usize = 1;

impl CamDevice {
    /// Array block size in bytes.
    pub fn block_size(&self) -> u32 {
        self.block_size
    }

    /// Number of channels.
    pub fn n_channels(&self) -> usize {
        self.channels.len()
    }

    /// Raw asynchronous submit (CAM-Async): publishes a batch of
    /// single-block requests on `channel`; request `i` reads/writes array
    /// block `lbas[i]` at `dest_addr + i * block_size`. Returns immediately
    /// with a ticket.
    pub fn submit(
        &self,
        channel: usize,
        op: ChannelOp,
        lbas: &[u64],
        dest_addr: u64,
    ) -> Result<BatchTicket, CamError> {
        let bs = self.block_size as u64;
        self.submit_scatter(channel, op, lbas, |i| dest_addr + i as u64 * bs, 1)
    }

    /// Raw asynchronous submit with explicit per-request addresses and a
    /// uniform per-request block count.
    pub fn submit_scatter(
        &self,
        channel: usize,
        op: ChannelOp,
        lbas: &[u64],
        addrs: impl Fn(usize) -> u64,
        blocks_per_req: u32,
    ) -> Result<BatchTicket, CamError> {
        let ch = self
            .channels
            .get(channel)
            .ok_or(CamError::BadChannel(channel))?;
        let seq = ch
            .try_publish(op, lbas, addrs, blocks_per_req)
            .map_err(|e| match e {
                PublishError::Busy => CamError::ChannelBusy,
                PublishError::ZeroBlocks => CamError::ZeroBlocks,
                PublishError::TooLarge => CamError::BatchTooLarge {
                    requested: lbas.len(),
                    capacity: ch.capacity(),
                },
            })?;
        Ok(BatchTicket {
            channels: Arc::clone(&self.channels),
            channel,
            seq,
            timeout_ns: self.sync_timeout_ns,
        })
    }

    /// `prefetch`: asynchronously fetch `lbas` from the SSDs into pinned
    /// GPU memory at `dest_addr` (block `i` lands at offset `i *
    /// block_size`). Only the leading thread does work; returns without
    /// blocking so computation on previously-fetched data proceeds.
    pub fn prefetch(&self, lbas: &[u64], dest_addr: u64) -> Result<(), CamError> {
        // An empty fetch has nothing to wait for: skip the doorbell round
        // trip entirely instead of publishing an empty batch.
        if lbas.is_empty() {
            return Ok(());
        }
        self.submit(READ_CHANNEL, ChannelOp::Read, lbas, dest_addr)
            .map(|_| ())
    }

    /// `prefetch_synchronize`: blocks until the last `prefetch` completed
    /// and its data is visible in GPU memory.
    pub fn prefetch_synchronize(&self) -> Result<(), CamError> {
        self.synchronize_channel(READ_CHANNEL)
    }

    /// `write_back`: asynchronously write pinned GPU memory at `src_addr`
    /// back to `lbas` on the SSDs.
    pub fn write_back(&self, lbas: &[u64], src_addr: u64) -> Result<(), CamError> {
        // Same as `prefetch`: nothing to make durable, nothing to publish.
        if lbas.is_empty() {
            return Ok(());
        }
        self.submit(WRITE_CHANNEL, ChannelOp::Write, lbas, src_addr)
            .map(|_| ())
    }

    /// `write_back_synchronize`: blocks until the last `write_back` is
    /// durable on the SSDs.
    pub fn write_back_synchronize(&self) -> Result<(), CamError> {
        self.synchronize_channel(WRITE_CHANNEL)
    }

    /// Synchronizes an arbitrary channel (multi-stream kernels).
    pub fn synchronize_channel(&self, channel: usize) -> Result<(), CamError> {
        let ch = self
            .channels
            .get(channel)
            .ok_or(CamError::BadChannel(channel))?;
        let wait_start = clock::now_ns();
        wait_retired(ch, ch.current_seq(), self.sync_timeout_ns, wait_start)?;
        self.sync_wait
            .record(clock::now_ns().saturating_sub(wait_start));
        if let Some(rec) = &self.recorder {
            rec.emit(EventKind::SyncWait {
                channel: channel as u16,
                start_ns: wait_start,
            });
        }
        take_io_result(ch)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    /// A device over a channel nobody serves: region 4 never advances, so
    /// both wait paths must give up with `SyncTimeout` instead of hanging.
    fn orphan_device(timeout_ns: Option<u64>) -> CamDevice {
        CamDevice {
            channels: Arc::new(vec![Channel::new(4)]),
            block_size: 4096,
            sync_timeout_ns: timeout_ns,
            sync_wait: MetricsRegistry::new().histogram("test_sync_wait_ns"),
            recorder: None,
        }
    }

    #[test]
    fn ticket_wait_times_out_on_a_dead_channel() {
        let dev = orphan_device(Some(2_000_000));
        let ticket = dev.submit(0, ChannelOp::Read, &[1], 0).unwrap();
        match ticket.wait() {
            Err(CamError::SyncTimeout { waited_ns }) => assert!(waited_ns > 2_000_000),
            other => panic!("expected SyncTimeout, got {other:?}"),
        }
    }

    #[test]
    fn synchronize_times_out_on_a_dead_channel() {
        let dev = orphan_device(Some(2_000_000));
        dev.submit(0, ChannelOp::Read, &[1], 0).unwrap();
        match dev.synchronize_channel(0) {
            Err(CamError::SyncTimeout { waited_ns }) => assert!(waited_ns > 2_000_000),
            other => panic!("expected SyncTimeout, got {other:?}"),
        }
    }
}
