//! [`NvmeDevice`] — a functional simulated SSD serviced by real threads.
//!
//! Each device owns a [`BlockStore`] (the flash media) and a reference to a
//! [`DmaSpace`] (the pinned memory commands point into). Service threads
//! poll the device's queue pairs, execute commands — moving real bytes
//! between media and DMA space — and post completions. This is the
//! counterpart of the hardware NVMe controller + its DMA engines; CAM's CPU
//! control plane drives these queues.
//!
//! Reads are single-copy: [`BlockStore::read_blocks`] lends each media block
//! to a visitor that DMA-writes it straight into the pinned page, so a block
//! is touched once (media → page). The media shard lock is held across that
//! DMA write — the data path's one lock order is **media shard, then DMA
//! page**. Writes keep a per-thread bounce buffer (DMA → bounce → media)
//! precisely so they never hold the two in the opposite order.
//!
//! A device given a [`DeviceConfig::burst_latency`] moves a burst's bytes
//! inside that latency, as an SSD's flash and DMA work while its service
//! time runs: the commands visible at the burst's first take execute at
//! once, the thread sleeps out what is left, and only then posts their
//! CQEs, held in a per-thread `Vec` that is reused from burst to burst.
//! Data still lands before its CQE, and [`DeviceStats`] still move before
//! it posts.

use std::sync::atomic::{AtomicBool, AtomicU64, Ordering};
use std::sync::{Arc, OnceLock};
use std::thread::JoinHandle;
use std::time::Duration;

use cam_blockdev::{BlockError, BlockStore, Lba};
use cam_telemetry::{clock, EventKind, FlightRecorder, HistogramHandle, MetricsRegistry};
use parking_lot::RwLock;

use crate::mem::DmaSpace;
use crate::queue::QueuePair;
use crate::spec::{Cqe, Opcode, Sqe, Status};

/// Configuration of a functional device.
#[derive(Clone, Debug)]
pub struct DeviceConfig {
    /// Device name, for diagnostics.
    pub name: String,
    /// Number of service threads (≥ 1). One models a single-LUN controller;
    /// more model internal parallelism.
    pub service_threads: usize,
    /// Maximum commands taken from one queue pair per service round.
    pub max_burst: usize,
    /// Optional wall-clock latency injected once per burst — each time a
    /// service thread finds a queue pair non-empty and takes up to
    /// `max_burst` of that pair's commands; a round that finds *k* pairs
    /// non-empty sleeps *k* times. The burst's bytes move inside the
    /// latency: the commands visible at the first take execute at once,
    /// the thread sleeps out the rest, and their CQEs post at `take +
    /// latency`, in take order; commands rung during the sleep join the
    /// burst and complete right after it. Makes compute/I/O overlap visible
    /// in real-time demos. `None` (the default) services at memory speed.
    ///
    /// On Linux the sleep lasts within a few µs of the latency given: with
    /// a latency set, each service thread first drops its timer slack to
    /// 1 ns ([`clock::exact_sleeps`]). Under the default 50 µs slack the
    /// kernel would defer each wake-up, so 100 µs would take about 154 µs.
    pub burst_latency: Option<Duration>,
    /// Maximum data transfer size (MDTS) in blocks per command; larger
    /// commands complete with `InvalidField`, as a real controller would
    /// reject them.
    pub max_transfer_blocks: u32,
}

impl Default for DeviceConfig {
    fn default() -> Self {
        DeviceConfig {
            name: "nvme0".to_string(),
            service_threads: 1,
            max_burst: 32,
            burst_latency: None,
            max_transfer_blocks: 1024,
        }
    }
}

/// Device counters (all monotonically increasing).
#[derive(Default)]
pub struct DeviceStats {
    reads: AtomicU64,
    writes: AtomicU64,
    read_bytes: AtomicU64,
    write_bytes: AtomicU64,
    errors: AtomicU64,
}

impl DeviceStats {
    /// Completed read commands.
    pub fn reads(&self) -> u64 {
        self.reads.load(Ordering::Relaxed)
    }
    /// Completed write commands.
    pub fn writes(&self) -> u64 {
        self.writes.load(Ordering::Relaxed)
    }
    /// Bytes delivered to DMA space by reads.
    pub fn read_bytes(&self) -> u64 {
        self.read_bytes.load(Ordering::Relaxed)
    }
    /// Bytes accepted from DMA space by writes.
    pub fn write_bytes(&self) -> u64 {
        self.write_bytes.load(Ordering::Relaxed)
    }
    /// Commands completed with a non-success status.
    pub fn errors(&self) -> u64 {
        self.errors.load(Ordering::Relaxed)
    }
}

/// Per-device registry handles, resolved once at attach time.
struct DeviceTelemetry {
    /// Per-command service time — the device's own work, without the
    /// injected latency's sleep — fed one burst at a time: every command
    /// of a burst records the burst's mean.
    cmd_ns: HistogramHandle,
    /// SQEs per doorbell ring, shared with this device's queue pairs.
    doorbell_batch: HistogramHandle,
}

struct Shared {
    config: DeviceConfig,
    store: Arc<dyn BlockStore>,
    dma: Arc<dyn DmaSpace>,
    qps: RwLock<Vec<Arc<QueuePair>>>,
    /// Bumped (under the `qps` write lock) on every registration; service
    /// threads re-snapshot their share of `qps` only when it moved.
    qps_epoch: AtomicU64,
    stop: AtomicBool,
    stats: DeviceStats,
    telemetry: OnceLock<DeviceTelemetry>,
    /// Event layer: `(device index, recorder)`; service threads emit a
    /// [`EventKind::NvmeCmd`] per executed command once attached.
    recorder: OnceLock<(u16, Arc<FlightRecorder>)>,
}

/// A running simulated NVMe SSD. Stops its service threads on drop.
pub struct NvmeDevice {
    shared: Arc<Shared>,
    workers: Vec<JoinHandle<()>>,
}

impl NvmeDevice {
    /// Starts a device over the given media and DMA space.
    pub fn start(config: DeviceConfig, store: Arc<dyn BlockStore>, dma: Arc<dyn DmaSpace>) -> Self {
        assert!(
            config.service_threads >= 1,
            "need at least one service thread"
        );
        assert!(config.max_burst >= 1, "burst must be >= 1");
        let shared = Arc::new(Shared {
            config,
            store,
            dma,
            qps: RwLock::new(Vec::new()),
            qps_epoch: AtomicU64::new(0),
            stop: AtomicBool::new(false),
            stats: DeviceStats::default(),
            telemetry: OnceLock::new(),
            recorder: OnceLock::new(),
        });
        let workers = (0..shared.config.service_threads)
            .map(|tid| {
                let sh = Arc::clone(&shared);
                std::thread::Builder::new()
                    .name(format!("{}-svc{}", sh.config.name, tid))
                    .spawn(move || service_loop(&sh, tid))
                    .expect("spawn device service thread")
            })
            .collect();
        NvmeDevice { shared, workers }
    }

    /// Creates and registers a new queue pair of the given depth.
    pub fn add_queue_pair(&self, depth: usize) -> Arc<QueuePair> {
        let mut qps = self.shared.qps.write();
        let qp = QueuePair::new(qps.len() as u16, depth);
        if let Some(t) = self.shared.telemetry.get() {
            qp.attach_telemetry(t.doorbell_batch.clone());
        }
        if let Some((_, rec)) = self.shared.recorder.get() {
            qp.attach_recorder(Arc::clone(rec));
        }
        qps.push(Arc::clone(&qp));
        self.shared.qps_epoch.fetch_add(1, Ordering::Release);
        qp
    }

    /// Registers this device's metrics in `reg` and starts recording:
    /// `cam_nvme_cmd_ns{device="<name>"}` (per-command service time, the
    /// injected `burst_latency` left out; `count` = commands executed, each
    /// carrying the mean of its burst, so the quantiles are quantiles of
    /// burst means) and `cam_nvme_doorbell_batch{device="<name>"}` (SQEs
    /// per doorbell, wired into every current and future queue pair).
    /// One-shot; later calls are ignored. Before attachment a burst pays two
    /// atomic loads (and, on a device with a `burst_latency`, the two clock
    /// reads its sleep needs); after it, one histogram shard lock and at
    /// most two clock reads more — per burst of up to `max_burst` commands,
    /// never per command.
    pub fn attach_telemetry(&self, reg: &MetricsRegistry) {
        let name = &self.shared.config.name;
        let t = DeviceTelemetry {
            cmd_ns: reg.histogram(&format!("cam_nvme_cmd_ns{{device=\"{name}\"}}")),
            doorbell_batch: reg.histogram(&format!("cam_nvme_doorbell_batch{{device=\"{name}\"}}")),
        };
        for qp in self.shared.qps.read().iter() {
            qp.attach_telemetry(t.doorbell_batch.clone());
        }
        let _ = self.shared.telemetry.set(t);
    }

    /// Event layer: tags this device with `index` and emits one
    /// [`EventKind::NvmeCmd`] per executed command into `rec` from now on,
    /// wiring every current and future queue pair's doorbell events too.
    /// One-shot; later calls are ignored. This is what puts a clock read on
    /// the per-command path (one per command, plus one per burst).
    pub fn attach_recorder(&self, index: u16, rec: Arc<FlightRecorder>) {
        for qp in self.shared.qps.read().iter() {
            qp.attach_recorder(Arc::clone(&rec));
        }
        let _ = self.shared.recorder.set((index, rec));
    }

    /// Media geometry.
    pub fn geometry(&self) -> cam_blockdev::BlockGeometry {
        self.shared.store.geometry()
    }

    /// Device counters.
    pub fn stats(&self) -> &DeviceStats {
        &self.shared.stats
    }

    /// The media, for out-of-band dataset loading in tests and workloads.
    pub fn store(&self) -> &Arc<dyn BlockStore> {
        &self.shared.store
    }

    /// Stops service threads and waits for them to exit.
    pub fn stop(&mut self) {
        self.shared.stop.store(true, Ordering::Release);
        for h in self.workers.drain(..) {
            let _ = h.join();
        }
    }
}

impl Drop for NvmeDevice {
    fn drop(&mut self) {
        self.stop();
    }
}

fn service_loop(sh: &Shared, tid: usize) {
    // Only a thread that sleeps pays for the slack write; a memory-speed
    // device never sleeps.
    if sh.config.burst_latency.is_some() {
        clock::exact_sleeps();
    }
    let mut bounce: Vec<u8> = Vec::new();
    // CQEs of a burst whose data has moved but whose latency has not passed.
    let mut held: Vec<Cqe> = Vec::with_capacity(sh.config.max_burst);
    let mut idle_rounds = 0u32;
    // This thread's share of the queue pairs, refreshed only when a
    // registration moved the epoch (0 = nothing registered yet).
    let mut qps: Vec<Arc<QueuePair>> = Vec::new();
    let mut seen_epoch = 0u64;
    while !sh.stop.load(Ordering::Acquire) {
        let epoch = sh.qps_epoch.load(Ordering::Acquire);
        if epoch != seen_epoch {
            seen_epoch = epoch;
            qps = sh
                .qps
                .read()
                .iter()
                .enumerate()
                .filter(|(i, _)| i % sh.config.service_threads == tid)
                .map(|(_, qp)| Arc::clone(qp))
                .collect();
        }
        let mut serviced = 0;
        for qp in &qps {
            serviced += service_burst(sh, qp, &mut bounce, &mut held);
        }
        if serviced == 0 {
            idle_rounds += 1;
            // Yield quickly: on small hosts (including single-core CI boxes)
            // the submitting thread needs this core to make progress.
            if idle_rounds > 2 {
                std::thread::yield_now();
            } else {
                std::hint::spin_loop();
            }
        } else {
            idle_rounds = 0;
        }
    }
}

/// Services one burst — up to `max_burst` commands from `qp` — and returns
/// how many it executed.
///
/// With a `burst_latency` the burst's bytes move inside its latency: the
/// first take sets `deadline = take + latency`, every command visible until
/// the queue runs dry executes at once and holds its CQE in `held`, and the
/// thread sleeps out what is left, then posts the held CQEs in take order.
/// Commands rung during the sleep join the burst (up to `max_burst` in all)
/// and execute and post one by one afterwards — as every command of a
/// memory-speed burst does, which has no deadline and holds nothing.
///
/// Observation is paid per burst, not per command: with telemetry attached
/// the burst is stamped at the take, before the sleep, and — only when a
/// command joined during the sleep — after it and at the end.
/// `cam_nvme_cmd_ns` takes the device's own work, the sleep left out, as
/// one weighted sample per command (one lock). Only an attached recorder,
/// whose [`EventKind::NvmeCmd`] carries a start stamp per command, makes the
/// loop read the clock per command — once, chained: command *i*'s
/// data-moved instant is command *i + 1*'s start, so each span is "take SQE
/// → data moved" (a late joiner's starts after the sleep). Unobserved, a
/// memory-speed burst reads no clock and a sleeping one reads it twice: for
/// its deadline and for the time left.
fn service_burst(sh: &Shared, qp: &QueuePair, bounce: &mut Vec<u8>, held: &mut Vec<Cqe>) -> usize {
    let Some(mut sqe) = qp.take_sqe() else {
        return 0;
    };
    let telemetry = sh.telemetry.get();
    let recorder = sh.recorder.get();
    let observed = telemetry.is_some() || recorder.is_some();
    let latency = sh.config.burst_latency;
    let take_ns = if observed || latency.is_some() {
        clock::now_ns()
    } else {
        0
    };
    // Pending while the commands taken before the sleep execute; their
    // CQEs wait in `held` until it passes.
    let mut deadline = latency.map(|lat| take_ns + lat.as_nanos() as u64);
    // Start of the execution stretch under way (`None` once the sleep has
    // closed the burst), and the device's own work in closed stretches.
    let mut stretch_ns = Some(take_ns);
    let mut busy_ns = 0;
    // End of the previous command (recorder attached) or the stretch start.
    let mut stamp = take_ns;
    let mut burst = 0;
    loop {
        let status = execute(sh, &sqe, bounce);
        let cqe = Cqe {
            cid: sqe.cid,
            status,
        };
        if deadline.is_some() {
            held.push(cqe);
        } else {
            qp.post_cqe(cqe);
        }
        burst += 1;
        if let Some((device, rec)) = recorder {
            let end_ns = clock::now_ns();
            rec.emit_at(
                end_ns,
                EventKind::NvmeCmd {
                    device: *device,
                    // NVMe opcode bytes: 0 flush, 1 write, 2 read.
                    opcode: match sqe.opcode {
                        Opcode::Flush => 0,
                        Opcode::Write => 1,
                        Opcode::Read => 2,
                    },
                    ok: status == Status::Success,
                    start_ns: stamp,
                },
            );
            stamp = end_ns;
        }
        let room = burst < sh.config.max_burst;
        if let Some(next) = room.then(|| qp.take_sqe()).flatten() {
            sqe = next;
            continue;
        }
        let Some(due) = deadline.take() else {
            break;
        };
        // Every command taken so far has moved its bytes: sleep out the
        // rest of the latency, then complete them in take order.
        let now = if recorder.is_some() {
            stamp
        } else {
            clock::now_ns()
        };
        busy_ns = now - take_ns;
        if due > now {
            std::thread::sleep(Duration::from_nanos(due - now));
        }
        for cqe in held.drain(..) {
            qp.post_cqe(cqe);
        }
        // Commands rung during the sleep join the burst.
        match room.then(|| qp.take_sqe()).flatten() {
            Some(next) => {
                sqe = next;
                stamp = if observed { clock::now_ns() } else { 0 };
                stretch_ns = Some(stamp);
            }
            None => {
                stretch_ns = None;
                break;
            }
        }
    }
    if let Some(t) = telemetry {
        if let Some(start_ns) = stretch_ns {
            let end_ns = if recorder.is_some() {
                stamp
            } else {
                clock::now_ns()
            };
            busy_ns += end_ns.saturating_sub(start_ns);
        }
        let n = burst as u64;
        t.cmd_ns.record_n(busy_ns / n, n);
    }
    burst
}

fn execute(sh: &Shared, sqe: &Sqe, bounce: &mut Vec<u8>) -> Status {
    let status = execute_inner(sh, sqe, bounce);
    match status {
        Status::Success => {
            let bytes = u64::from(sqe.nlb) * u64::from(sh.store.geometry().block_size);
            match sqe.opcode {
                Opcode::Read => {
                    sh.stats.reads.fetch_add(1, Ordering::Relaxed);
                    sh.stats.read_bytes.fetch_add(bytes, Ordering::Relaxed);
                }
                Opcode::Write => {
                    sh.stats.writes.fetch_add(1, Ordering::Relaxed);
                    sh.stats.write_bytes.fetch_add(bytes, Ordering::Relaxed);
                }
                Opcode::Flush => {}
            }
        }
        _ => {
            sh.stats.errors.fetch_add(1, Ordering::Relaxed);
        }
    }
    status
}

fn execute_inner(sh: &Shared, sqe: &Sqe, bounce: &mut Vec<u8>) -> Status {
    if sqe.opcode == Opcode::Flush {
        // The in-memory media is always durable; flush is a barrier that
        // completes after everything the service thread already executed.
        return Status::Success;
    }
    if sqe.nlb == 0 || sqe.nlb > sh.config.max_transfer_blocks {
        return Status::InvalidField;
    }
    let bs = sh.store.geometry().block_size as usize;
    let bytes = sqe.nlb as usize * bs;
    if sqe.opcode == Opcode::Read {
        // Check the whole DMA range up front, so a bad (or only partly
        // mapped) range moves no bytes — but still walk the media when it
        // is bad: range and media errors take precedence over DMA errors.
        let mut dma_ok = sh.dma.contains(sqe.data_addr, bytes);
        let walked = sh
            .store
            .read_blocks(Lba(sqe.slba), u64::from(sqe.nlb), &mut |i, block| {
                if dma_ok {
                    let addr = sqe.data_addr + (i * bs) as u64;
                    dma_ok = sh.dma.dma_write(addr, block).is_ok();
                }
            });
        match walked {
            Err(e) => block_err_status(e),
            Ok(()) if !dma_ok => Status::DataTransferError,
            Ok(()) => Status::Success,
        }
    } else {
        // The bounce buffer only ever grows; `dma_read` overwrites all of
        // `buf`, so stale bytes from earlier commands never reach media.
        if bounce.len() < bytes {
            bounce.resize(bytes, 0);
        }
        let buf = &mut bounce[..bytes];
        if sh.dma.dma_read(sqe.data_addr, buf).is_err() {
            return Status::DataTransferError;
        }
        match sh.store.write(Lba(sqe.slba), buf) {
            Ok(()) => Status::Success,
            Err(e) => block_err_status(e),
        }
    }
}

fn block_err_status(e: BlockError) -> Status {
    match e {
        BlockError::OutOfRange { .. } => Status::LbaOutOfRange,
        BlockError::BadBuffer { .. } => Status::InvalidField,
        BlockError::Media {
            transient: true, ..
        } => Status::TransientMediaError,
        BlockError::Media {
            transient: false, ..
        } => Status::MediaError,
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::mem::PinnedRegion;
    use cam_blockdev::{BlockGeometry, SparseMemStore};

    use std::time::Instant;

    fn setup() -> (NvmeDevice, Arc<PinnedRegion>) {
        setup_with(DeviceConfig::default())
    }

    fn setup_with(config: DeviceConfig) -> (NvmeDevice, Arc<PinnedRegion>) {
        let store: Arc<dyn BlockStore> =
            Arc::new(SparseMemStore::new(BlockGeometry::new(512, 4096)));
        let dma = Arc::new(PinnedRegion::new(0x1_0000, 1 << 20));
        let dev = NvmeDevice::start(config, store, Arc::clone(&dma) as Arc<dyn DmaSpace>);
        (dev, dma)
    }

    /// The burst latency of the timing tests: long enough that a loaded box
    /// cannot blur which side of it an event falls on.
    const L: Duration = Duration::from_millis(300);

    fn slow_setup() -> (NvmeDevice, Arc<PinnedRegion>) {
        setup_with(DeviceConfig {
            burst_latency: Some(L),
            ..DeviceConfig::default()
        })
    }

    /// DMA address of the 512-byte slot `i`.
    fn slot(i: u64) -> u64 {
        0x1_0000 + 512 * i
    }

    /// Whether slot `i` holds a block filled with `byte`.
    fn holds(dma: &PinnedRegion, i: u64, byte: u8) -> bool {
        let mut out = [0u8; 512];
        dma.dma_read(slot(i), &mut out).unwrap();
        out.iter().all(|&b| b == byte)
    }

    fn wait_cqe(qp: &QueuePair) -> Cqe {
        loop {
            if let Some(c) = qp.poll_cqe() {
                return c;
            }
            std::thread::yield_now();
        }
    }

    #[test]
    fn write_then_read_round_trips_through_device() {
        let (dev, dma) = setup();
        let qp = dev.add_queue_pair(64);
        // Place a pattern in "GPU memory", write it to blocks 10..14,
        // then read it back to a different DMA address.
        let pattern: Vec<u8> = (0..2048).map(|i| (i % 239) as u8).collect();
        dma.dma_write(0x1_0000, &pattern).unwrap();
        qp.submit(Sqe::write(1, 10, 4, 0x1_0000)).unwrap();
        assert!(wait_cqe(&qp).status.is_ok());
        qp.submit(Sqe::read(2, 10, 4, 0x1_0000 + 4096)).unwrap();
        assert!(wait_cqe(&qp).status.is_ok());
        let mut out = vec![0u8; 2048];
        dma.dma_read(0x1_0000 + 4096, &mut out).unwrap();
        assert_eq!(out, pattern);
        assert_eq!(dev.stats().reads(), 1);
        assert_eq!(dev.stats().writes(), 1);
        assert_eq!(dev.stats().read_bytes(), 2048);
    }

    #[test]
    fn out_of_range_command_fails_cleanly() {
        let (dev, _dma) = setup();
        let qp = dev.add_queue_pair(8);
        qp.submit(Sqe::read(1, 4095, 2, 0x1_0000)).unwrap();
        assert_eq!(wait_cqe(&qp).status, Status::LbaOutOfRange);
        assert_eq!(dev.stats().errors(), 1);
    }

    #[test]
    fn commands_beyond_mdts_are_rejected() {
        let store: Arc<dyn BlockStore> =
            Arc::new(SparseMemStore::new(BlockGeometry::new(512, 8192)));
        let dma = Arc::new(PinnedRegion::new(0, 8 << 20));
        let dev = NvmeDevice::start(
            DeviceConfig {
                max_transfer_blocks: 4,
                ..DeviceConfig::default()
            },
            store,
            Arc::clone(&dma) as Arc<dyn DmaSpace>,
        );
        let qp = dev.add_queue_pair(8);
        qp.submit(Sqe::read(1, 0, 5, 0)).unwrap();
        assert_eq!(wait_cqe(&qp).status, Status::InvalidField);
        qp.submit(Sqe::read(2, 0, 4, 0)).unwrap();
        assert!(wait_cqe(&qp).status.is_ok());
    }

    #[test]
    fn zero_block_command_is_invalid() {
        let (dev, _dma) = setup();
        let qp = dev.add_queue_pair(8);
        qp.submit(Sqe::read(1, 0, 0, 0x1_0000)).unwrap();
        assert_eq!(wait_cqe(&qp).status, Status::InvalidField);
        drop(dev);
    }

    #[test]
    fn bad_dma_address_reports_transfer_error() {
        let (dev, _dma) = setup();
        let qp = dev.add_queue_pair(8);
        qp.submit(Sqe::read(1, 0, 1, 0xDEAD_BEEF_0000)).unwrap();
        assert_eq!(wait_cqe(&qp).status, Status::DataTransferError);
    }

    #[test]
    fn media_and_range_errors_win_over_dma_errors() {
        use cam_blockdev::{FaultPolicy, FaultyStore};
        let inner: Arc<dyn BlockStore> =
            Arc::new(SparseMemStore::new(BlockGeometry::new(512, 4096)));
        let store = Arc::new(FaultyStore::new(
            inner,
            FaultPolicy::transient_reads_in(8, 16, u32::MAX),
        ));
        let dma = Arc::new(PinnedRegion::new(0x1_0000, 1 << 20));
        let dev = NvmeDevice::start(
            DeviceConfig::default(),
            Arc::clone(&store) as Arc<dyn BlockStore>,
            dma as Arc<dyn DmaSpace>,
        );
        let qp = dev.add_queue_pair(8);
        let unmapped = 0xDEAD_BEEF_0000;
        // Faulted media + unmapped buffer: the media error is reported.
        qp.submit(Sqe::read(1, 8, 1, unmapped)).unwrap();
        assert_eq!(wait_cqe(&qp).status, Status::TransientMediaError);
        assert_eq!(store.injected(), 1, "the media was consulted exactly once");
        // Out-of-range LBA + unmapped buffer: the range error is reported.
        qp.submit(Sqe::read(2, 4095, 2, unmapped)).unwrap();
        assert_eq!(wait_cqe(&qp).status, Status::LbaOutOfRange);
        // Healthy media + unmapped buffer: only now is it a DMA error.
        qp.submit(Sqe::read(3, 0, 1, unmapped)).unwrap();
        assert_eq!(wait_cqe(&qp).status, Status::DataTransferError);
    }

    #[test]
    fn partly_mapped_dma_range_moves_no_bytes() {
        let (dev, dma) = setup();
        let qp = dev.add_queue_pair(8);
        dev.store().write(Lba(0), &[0x5Au8; 4 * 512]).unwrap();
        // Four blocks aimed at the last two blocks' worth of the region:
        // the first half of the transfer is mapped, the second is not.
        let tail = 0x1_0000 + (1 << 20) - 1024;
        dma.fill((1 << 20) - 1024, 1024, 0xEE);
        qp.submit(Sqe::read(1, 0, 4, tail)).unwrap();
        assert_eq!(wait_cqe(&qp).status, Status::DataTransferError);
        let mut out = [0u8; 1024];
        dma.dma_read(tail, &mut out).unwrap();
        assert!(out.iter().all(|&b| b == 0xEE), "mapped half was written");
        assert_eq!(dev.stats().read_bytes(), 0);
    }

    #[test]
    fn multi_block_read_lands_across_pinned_pages() {
        let (dev, dma) = setup();
        let qp = dev.add_queue_pair(8);
        // 20 blocks of 512 B, block 7 left unwritten (reads as zeroes),
        // landing 1.5 KiB before a page boundary: four 4 KiB pages.
        let mut want = vec![0u8; 20 * 512];
        for (i, block) in want.chunks_exact_mut(512).enumerate() {
            if i != 7 {
                block.fill(i as u8 + 1);
                dev.store().write(Lba(100 + i as u64), block).unwrap();
            }
        }
        let addr = 0x1_0000 + 4096 - 1536;
        dma.fill(4096 - 1536, want.len(), 0xEE);
        qp.submit(Sqe::read(1, 100, 20, addr)).unwrap();
        assert!(wait_cqe(&qp).status.is_ok());
        let mut out = vec![0u8; want.len()];
        dma.dma_read(addr, &mut out).unwrap();
        assert_eq!(out, want);
        assert_eq!(dev.stats().read_bytes(), 20 * 512);
    }

    #[test]
    fn transient_read_faults_clear_through_the_visitor_path() {
        use cam_blockdev::{FaultPolicy, FaultyStore};
        let inner: Arc<dyn BlockStore> =
            Arc::new(SparseMemStore::new(BlockGeometry::new(512, 4096)));
        inner.write(Lba(40), &[0xC3u8; 1024]).unwrap();
        let store = Arc::new(FaultyStore::new(
            inner,
            FaultPolicy::transient_reads_in(40, 41, 2),
        ));
        let dma = Arc::new(PinnedRegion::new(0x1_0000, 1 << 20));
        let dev = NvmeDevice::start(
            DeviceConfig::default(),
            Arc::clone(&store) as Arc<dyn BlockStore>,
            Arc::clone(&dma) as Arc<dyn DmaSpace>,
        );
        let qp = dev.add_queue_pair(8);
        let statuses: Vec<Status> = (0..3)
            .map(|attempt| {
                qp.submit(Sqe::read(attempt, 40, 2, 0x1_0000)).unwrap();
                wait_cqe(&qp).status
            })
            .collect();
        assert_eq!(
            statuses,
            [
                Status::TransientMediaError,
                Status::TransientMediaError,
                Status::Success
            ]
        );
        assert_eq!(store.injected(), 2);
        let mut out = [0u8; 1024];
        dma.dma_read(0x1_0000, &mut out).unwrap();
        assert!(out.iter().all(|&b| b == 0xC3));
        assert_eq!(dev.stats().reads(), 1);
        assert_eq!(dev.stats().errors(), 2);
    }

    #[test]
    fn queue_pairs_added_while_running_are_serviced() {
        // The service thread snapshots its queue pairs and refreshes the
        // snapshot only when the registration epoch moves.
        let (dev, _dma) = setup();
        for round in 0..4u16 {
            let qp = dev.add_queue_pair(8);
            assert_eq!(qp.id(), round);
            qp.submit(Sqe::flush(round)).unwrap();
            assert_eq!(wait_cqe(&qp).cid, round);
        }
    }

    #[test]
    fn flush_completes() {
        let (dev, _dma) = setup();
        let qp = dev.add_queue_pair(8);
        qp.submit(Sqe::flush(9)).unwrap();
        let c = wait_cqe(&qp);
        assert_eq!(c.cid, 9);
        assert!(c.status.is_ok());
        drop(dev);
    }

    #[test]
    fn many_commands_across_two_queue_pairs_and_threads() {
        let store: Arc<dyn BlockStore> =
            Arc::new(SparseMemStore::new(BlockGeometry::new(512, 65536)));
        let dma = Arc::new(PinnedRegion::new(0, 8 << 20));
        let dev = NvmeDevice::start(
            DeviceConfig {
                service_threads: 2,
                ..DeviceConfig::default()
            },
            store,
            Arc::clone(&dma) as Arc<dyn DmaSpace>,
        );
        let qp0 = dev.add_queue_pair(256);
        let qp1 = dev.add_queue_pair(256);
        // 256 writes per QP, then read everything back.
        for (t, qp) in [&qp0, &qp1].into_iter().enumerate() {
            for i in 0..256u64 {
                let addr = (t as u64 * 256 + i) * 512;
                dma.fill(addr as usize, 512, (i % 250) as u8 + 1);
                qp.push_sqe(Sqe::write(i as u16, t as u64 * 4096 + i, 1, addr))
                    .unwrap();
            }
            qp.ring_doorbell();
        }
        let mut done = 0;
        while done < 512 {
            for qp in [&qp0, &qp1] {
                if let Some(c) = qp.poll_cqe() {
                    assert!(c.status.is_ok());
                    done += 1;
                }
            }
        }
        assert_eq!(dev.stats().writes(), 512);
        // Spot-check media content via a read command.
        qp0.submit(Sqe::read(999, 10, 1, 0x700_000)).unwrap();
        loop {
            if let Some(c) = qp0.poll_cqe() {
                assert!(c.status.is_ok());
                break;
            }
        }
        let mut out = vec![0u8; 512];
        dma.dma_read(0x700_000, &mut out).unwrap();
        assert!(out.iter().all(|&b| b == 11));
    }

    /// The Linux timer slack of the thread `tid`, as `/proc` prints it.
    fn slack_of(tid: &std::ffi::OsStr) -> String {
        let path = std::path::Path::new("/proc")
            .join(tid)
            .join("timerslack_ns");
        std::fs::read_to_string(path)
            .expect("read timerslack_ns")
            .trim()
            .to_string()
    }

    /// The timer slack of the service thread of a device named `name`,
    /// read once it has executed a command, so it is past its set-up;
    /// `None` where `/proc` has no `thread-self`.
    fn service_thread_slack(name: &str, burst_latency: Option<Duration>) -> Option<String> {
        std::fs::read_link("/proc/thread-self").ok()?;
        let store: Arc<dyn BlockStore> = Arc::new(SparseMemStore::new(BlockGeometry::new(512, 64)));
        let dev = NvmeDevice::start(
            DeviceConfig {
                name: name.to_string(),
                burst_latency,
                ..DeviceConfig::default()
            },
            store,
            Arc::new(PinnedRegion::new(0, 4096)),
        );
        let qp = dev.add_queue_pair(8);
        qp.submit(Sqe::flush(1)).unwrap();
        wait_cqe(&qp);
        let comm = format!("{name}-svc0");
        let tid = std::fs::read_dir("/proc/self/task")
            .expect("list threads")
            .flatten()
            .find(|task| {
                std::fs::read_to_string(task.path().join("comm"))
                    .is_ok_and(|c| c.trim_end() == comm)
            })
            .unwrap_or_else(|| panic!("no thread named {comm}"))
            .file_name();
        Some(slack_of(&tid))
    }

    #[test]
    fn a_device_with_burst_latency_services_with_exact_sleeps() {
        if let Some(slack) = service_thread_slack("slk", Some(Duration::from_micros(1))) {
            assert_eq!(slack, "1");
        }
    }

    #[test]
    fn a_memory_speed_device_keeps_its_creators_slack() {
        let Ok(own) = std::fs::read_link("/proc/thread-self") else {
            return;
        };
        let own_slack = slack_of(own.file_name().expect("tid"));
        if let Some(slack) = service_thread_slack("slkfree", None) {
            assert_eq!(slack, own_slack);
        }
    }

    #[test]
    fn a_burst_moves_its_data_inside_its_latency() {
        let (dev, dma) = slow_setup();
        let qp = dev.add_queue_pair(8);
        dev.store().write(Lba(5), &[0xA5; 512]).unwrap();
        let rung = Instant::now();
        qp.submit(Sqe::read(1, 5, 1, slot(0))).unwrap();
        while !holds(&dma, 0, 0xA5) {
            assert!(qp.poll_cqe().is_none(), "CQE posted before its bytes");
            std::thread::yield_now();
        }
        let landed = rung.elapsed();
        assert!(qp.poll_cqe().is_none(), "CQE posted with its bytes");
        assert!(landed < L / 2, "bytes moved after the sleep: {landed:?}");
        assert!(wait_cqe(&qp).status.is_ok());
        let done = rung.elapsed();
        assert!(done >= L, "CQE posted {done:?} after the ring");
    }

    #[test]
    fn a_command_rung_during_the_sleep_joins_the_burst() {
        let (dev, _dma) = slow_setup();
        let qp = dev.add_queue_pair(8);
        let rung = Instant::now();
        qp.submit(Sqe::read(1, 0, 1, slot(0))).unwrap();
        std::thread::sleep(Duration::from_millis(50));
        qp.submit(Sqe::read(2, 1, 1, slot(1))).unwrap();
        assert_eq!(wait_cqe(&qp).cid, 1);
        assert_eq!(wait_cqe(&qp).cid, 2);
        let done = rung.elapsed();
        assert!(done >= L, "burst shorter than its latency: {done:?}");
        assert!(
            done < L * 3 / 2,
            "the late command waited for a burst of its own: {done:?}"
        );
    }

    #[test]
    fn the_33rd_command_waits_for_the_next_burst() {
        let (dev, _dma) = slow_setup();
        let qp = dev.add_queue_pair(64);
        let rung = Instant::now();
        for cid in 0..33u16 {
            qp.push_sqe(Sqe::read(cid, u64::from(cid), 1, slot(u64::from(cid))))
                .unwrap();
        }
        qp.ring_doorbell();
        let done: Vec<(u16, Duration)> = (0..33)
            .map(|_| {
                let c = wait_cqe(&qp);
                assert!(c.status.is_ok());
                (c.cid, rung.elapsed())
            })
            .collect();
        assert!(done.iter().map(|d| d.0).eq(0..33), "FIFO order");
        assert!(done[0].1 >= L && done[31].1 < 2 * L, "{:?}", done[31]);
        assert!(
            done[32].1 >= 2 * L,
            "33rd command done after {:?}",
            done[32].1
        );
    }

    #[test]
    fn stopping_mid_burst_posts_every_taken_command() {
        let (dev, dma) = slow_setup();
        let qp = dev.add_queue_pair(8);
        for i in 0..4u64 {
            dev.store().write(Lba(i), &[i as u8 + 1; 512]).unwrap();
            qp.push_sqe(Sqe::read(i as u16, i, 1, slot(i))).unwrap();
        }
        qp.ring_doorbell();
        // Every byte has moved, no CQE is out: the service thread sleeps.
        while !(0..4u64).all(|i| holds(&dma, i, i as u8 + 1)) {
            std::thread::yield_now();
        }
        assert!(qp.poll_cqe().is_none());
        drop(dev);
        for i in 0..4u64 {
            let c = qp.poll_cqe().expect("a taken command's CQE after stop");
            assert_eq!((c.cid, c.status), (i as u16, Status::Success));
            assert!(holds(&dma, i, i as u8 + 1));
        }
        assert!(qp.poll_cqe().is_none());
    }

    #[test]
    fn stop_is_idempotent_and_drop_safe() {
        let (mut dev, _dma) = setup();
        dev.stop();
        dev.stop();
        // Drop runs stop() again.
    }
}
