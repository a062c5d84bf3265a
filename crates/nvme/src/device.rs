//! [`NvmeDevice`] — a functional simulated SSD, serviced by a real thread.
//!
//! Each device owns a [`BlockStore`] (the flash media) and a reference to a
//! [`DmaSpace`] (the pinned memory commands point into). One service
//! thread runs a whole *set* of devices — every SSD of an array
//! ([`NvmeDevice::start_set`]; a lone [`NvmeDevice::start`] is a set of
//! one). It polls each device's queue pairs, executes commands — moving
//! real bytes between media and DMA space — and posts completions, taking
//! at most [`MAX_BURST`] commands from a pair per burst. This is the
//! counterpart of the hardware NVMe controllers + their DMA engines, which
//! cost the host no CPU: an array's SSDs take one thread's turns, not one
//! thread's each. CAM's CPU control plane drives these queues.
//!
//! A whole-page transfer moves a reference, not 4 KiB: media blocks and
//! pinned pages are shared, copy-on-write buffers (see [`crate::mem`]). A
//! read walks [`BlockSession::read_blocks`], which lends each media block
//! to [`DmaSession::dma_write_block`]: the block is installed in a whole
//! destination page, and copied only into part of one. A write walks
//! [`BlockSession::write_blocks`], which lends each media block to
//! [`DmaSession::dma_read_block`]: a block no page shares takes the page's
//! bytes in place, and a shared one is replaced by the page's own buffer.
//! Reads, writes and flushes run on one path, and the commands a burst
//! executes together share one [`BlockStore::session`] and, inside it, one
//! [`DmaSpace::dma_session`]: the data path's one lock order is **media
//! store, then DMA region**, each lock taken once per burst, not per
//! command, and released before a burst's sleep. No service thread keeps a
//! buffer of its own.
//!
//! A burst is claimed once, counted once and, on a set given a
//! [`DeviceConfig::burst_latency`], timed once, on its device's time. One
//! store of the SQ head claims every visible command (with a latency,
//! every one of the oldest doorbell), up to [`MAX_BURST`]
//! — the service thread owns the device side of every pair it services,
//! so no other taker races it. They execute at once, their CQEs wait in
//! the device's own `Vec`, reused from burst to burst, the burst's
//! [`DeviceStats`] are added in one update per counter, and only then do
//! the CQEs post. So data and `DeviceStats` move before each CQE, on both
//! kinds of device. A memory-speed burst posts as soon as it has executed.
//!
//! With a latency, the burst's bytes move inside it, as an SSD's flash and
//! DMA work while its service time runs, and the burst stays *open* until
//! a deadline kept on its device's time: `max(previous burst's deadline,
//! its doorbell) + latency`. A burst opens with the commands of one
//! doorbell, the oldest its pair has unclaimed, whose time comes from the
//! pair's ring stamps (see [`crate::queue`]), not from when the service
//! thread got to run. Each device has at most one open burst; the thread
//! sleeps to the earliest open deadline and, on waking, closes every burst
//! whose deadline has passed: it claims and executes the commands rung on
//! that burst's pair since it opened (they join it, whichever doorbell
//! published them), then posts its CQEs in claim order. Only then does
//! that device open its next burst, chained on the deadline, not on the
//! wake-up. So no burst completes sooner than the latency after the
//! doorbell it opened with, a thread that wakes late posts at once, and
//! one device's sleep does not hold up another's: a set has one latency,
//! so a doorbell rung on an idle device during a sleep gets a deadline
//! after the wake. (One rung in the round before the sleep, after its
//! device was polled, may post up to the rest of that round late.)

use std::sync::atomic::{AtomicBool, AtomicU64, Ordering};
use std::sync::{Arc, OnceLock};
use std::thread::JoinHandle;
use std::time::Duration;

use cam_blockdev::{BlockError, BlockSession, BlockStore, Lba};
use cam_telemetry::{clock, EventKind, FlightRecorder, HistogramHandle, MetricsRegistry};
use parking_lot::{Mutex, RwLock};

use crate::mem::{DmaSession, DmaSpace};
use crate::queue::QueuePair;
use crate::spec::{Cqe, Opcode, Sqe, Status};

/// Maximum commands one burst takes from one queue pair.
pub const MAX_BURST: usize = 32;

/// Maximum data transfer size (MDTS) in blocks per command; larger
/// commands complete with `InvalidField`, as a real controller would reject
/// them.
const MAX_TRANSFER_BLOCKS: u32 = 1024;

/// Configuration of a functional device.
#[derive(Clone, Debug)]
pub struct DeviceConfig {
    /// Device name, for diagnostics.
    pub name: String,
    /// Optional wall-clock latency injected once per burst — each time the
    /// device's service thread finds one of its queue pairs non-empty and
    /// claims up to [`MAX_BURST`] of that pair's commands, those of one
    /// doorbell; a device whose *k* pairs are non-empty takes *k* bursts,
    /// one after another. The burst's bytes move inside the latency: the
    /// commands claimed execute at once and their CQEs post, in claim
    /// order, at `max(previous burst's deadline, their doorbell) +
    /// latency`; commands rung meanwhile join the burst and complete right
    /// after it. Makes compute/I/O overlap visible in real-time demos.
    /// `None` (the default) services at memory speed. Every device of a
    /// set ([`NvmeDevice::start_set`]) has the same latency.
    ///
    /// On Linux the sleep lasts within a few µs of the latency given: with
    /// a latency set, the service thread first drops its timer slack to
    /// 1 ns ([`clock::exact_sleeps`]). Under the default 50 µs slack the
    /// kernel would defer each wake-up, so 100 µs would take about 154 µs.
    pub burst_latency: Option<Duration>,
}

impl Default for DeviceConfig {
    fn default() -> Self {
        DeviceConfig {
            name: "nvme0".to_string(),
            burst_latency: None,
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
    /// Bumped (under the `qps` write lock) on every registration; the
    /// service thread re-snapshots `qps` only when it moved.
    qps_epoch: AtomicU64,
    stats: DeviceStats,
    telemetry: OnceLock<DeviceTelemetry>,
    /// Event layer: `(device index, recorder)`; the service thread emits a
    /// [`EventKind::NvmeCmd`] per executed command once attached.
    recorder: OnceLock<(u16, Arc<FlightRecorder>)>,
}

/// The service thread of a set of devices, shared by them: stopped and
/// joined by [`NvmeDevice::stop`] or when the set's last device is dropped.
struct ServiceThread {
    stop: Arc<AtomicBool>,
    handle: Mutex<Option<JoinHandle<()>>>,
}

impl ServiceThread {
    fn stop(&self) {
        self.stop.store(true, Ordering::Release);
        if let Some(h) = self.handle.lock().take() {
            let _ = h.join();
        }
    }
}

impl Drop for ServiceThread {
    fn drop(&mut self) {
        self.stop();
    }
}

/// The name of the service thread of a set whose first device is named
/// `first_device`.
fn service_thread_name(first_device: &str) -> String {
    format!("{first_device}-svc")
}

/// A running simulated NVMe SSD, a single-LUN controller, serviced by the
/// thread of its set ([`NvmeDevice::start_set`]). The thread is the set's,
/// not the device's: dropping one device of a larger set leaves its queue
/// pairs serviced until the set's last device drops, and
/// [`stop`](Self::stop) stops every device of the set.
pub struct NvmeDevice {
    shared: Arc<Shared>,
    thread: Arc<ServiceThread>,
}

impl NvmeDevice {
    /// Starts a device over the given media and DMA space, serviced by a
    /// thread of its own: a set of one.
    pub fn start(config: DeviceConfig, store: Arc<dyn BlockStore>, dma: Arc<dyn DmaSpace>) -> Self {
        let mut set = Self::start_set([(config, store, dma)]);
        set.pop().expect("a set of one")
    }

    /// Starts a set of devices, each over its own media and DMA space, all
    /// serviced by one thread, named after the first device
    /// (`<name>-svc`). The thread runs until [`stop`](Self::stop) is called
    /// on any device of the set or the last of them is dropped.
    ///
    /// # Panics
    ///
    /// If `devices` is empty, or if two of them have different
    /// [`DeviceConfig::burst_latency`]s: the thread sleeps to the earliest
    /// deadline of the set, which is exact only under one latency.
    pub fn start_set(
        devices: impl IntoIterator<Item = (DeviceConfig, Arc<dyn BlockStore>, Arc<dyn DmaSpace>)>,
    ) -> Vec<Self> {
        let shared: Vec<Arc<Shared>> = devices
            .into_iter()
            .map(|(config, store, dma)| {
                Arc::new(Shared {
                    config,
                    store,
                    dma,
                    qps: RwLock::new(Vec::new()),
                    qps_epoch: AtomicU64::new(0),
                    stats: DeviceStats::default(),
                    telemetry: OnceLock::new(),
                    recorder: OnceLock::new(),
                })
            })
            .collect();
        let first = &shared
            .first()
            .expect("a device set has at least one device")
            .config;
        let latency = first.burst_latency;
        for sh in &shared[1..] {
            assert_eq!(
                sh.config.burst_latency, latency,
                "a device set has one burst_latency: {} and {} differ",
                first.name, sh.config.name
            );
        }
        let stop = Arc::new(AtomicBool::new(false));
        let mut lanes: Vec<Lane> = shared.iter().map(|sh| Lane::new(Arc::clone(sh))).collect();
        let flag = Arc::clone(&stop);
        let handle = std::thread::Builder::new()
            .name(service_thread_name(&first.name))
            .spawn(move || service_loop(&mut lanes, latency, &flag))
            .expect("spawn device service thread");
        let thread = Arc::new(ServiceThread {
            stop,
            handle: Mutex::new(Some(handle)),
        });
        shared
            .into_iter()
            .map(|shared| NvmeDevice {
                shared,
                thread: Arc::clone(&thread),
            })
            .collect()
    }

    /// Creates and registers a new queue pair of the given depth. On a
    /// device with a `burst_latency` its doorbells stamp their SQEs with
    /// the clock, which the bursts' deadlines are kept from.
    pub fn add_queue_pair(&self, depth: usize) -> Arc<QueuePair> {
        let mut qps = self.shared.qps.write();
        let id = qps.len() as u16;
        let qp = if self.shared.config.burst_latency.is_some() {
            QueuePair::with_ring_stamps(id, depth)
        } else {
            QueuePair::new(id, depth)
        };
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
    /// atomic loads (and, on a device with a `burst_latency`, at most the
    /// clock read for the time left to sleep); after it, one histogram
    /// shard lock and at most three clock reads more — per burst of up to
    /// [`MAX_BURST`] commands, never per command.
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

    /// Stops the service thread of this device's set — every device of the
    /// set with it — and waits for it to exit. Every command it has taken
    /// completes first: an open burst posts at its deadline.
    pub fn stop(&mut self) {
        self.thread.stop();
    }
}

/// The set's service thread. Each round services every device: at memory
/// speed, a burst per non-empty queue pair, claimed, executed and posted
/// at once; with a `latency`, a device that has no open burst opens one.
/// Then the thread sleeps to the earliest open deadline and closes every
/// burst whose deadline has passed. Once stopped, it opens nothing more
/// and exits when the open bursts are closed.
fn service_loop(lanes: &mut [Lane], latency: Option<Duration>, stop: &AtomicBool) {
    // Only a thread that sleeps pays for the slack write; a memory-speed
    // set never sleeps.
    if latency.is_some() {
        clock::exact_sleeps();
    }
    let mut idle_rounds = 0u32;
    loop {
        let stopping = stop.load(Ordering::Acquire);
        let mut serviced = 0;
        // The clock as the last burst opened this round read it, if it did.
        let mut now_ns = None;
        if !stopping {
            for lane in lanes.iter_mut() {
                lane.refresh();
                serviced += match latency {
                    None => lane.service_now(),
                    Some(l) => lane.open(l.as_nanos() as u64, &mut now_ns),
                };
            }
        }
        let earliest = lanes.iter().filter(|l| l.open).map(|l| l.deadline_ns).min();
        if let Some(earliest) = earliest {
            let now = now_ns.unwrap_or_else(clock::now_ns);
            if earliest > now {
                std::thread::sleep(Duration::from_nanos(earliest - now));
            }
            // Every burst due by the wake-up closes, without another read.
            let due = earliest.max(now);
            for lane in lanes.iter_mut().filter(|l| l.open && l.deadline_ns <= due) {
                lane.close();
            }
            idle_rounds = 0;
        } else if stopping {
            return;
        } else if serviced == 0 {
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

/// When a burst's latency starts on device time: at the doorbell it opened
/// with, or at the previous burst's deadline while that burst still had the
/// device — never before either. The burst's deadline is this plus the
/// latency.
fn burst_start(previous_deadline_ns: u64, newest_ring_ns: u64) -> u64 {
    previous_deadline_ns.max(newest_ring_ns)
}

/// One device as its set's service thread keeps it: a snapshot of its
/// queue pairs, its burst buffers and its device time.
struct Lane {
    sh: Arc<Shared>,
    /// The queue pairs, refreshed only when a registration moved the epoch
    /// (0 = nothing registered yet). Registration only appends, so an
    /// index stays valid across refreshes.
    qps: Vec<Arc<QueuePair>>,
    seen_epoch: u64,
    /// Where a sleeping device's search for its next burst starts, so its
    /// non-empty pairs take turns.
    next_qp: usize,
    burst: Burst,
    /// Whether `burst` is open: claimed and executed, its CQEs held until
    /// `deadline_ns`.
    open: bool,
    /// Device time: the deadline of the open burst, or of the previous one
    /// (0 before the first).
    deadline_ns: u64,
}

/// A device's buffers and stamps for one burst, reused from burst to burst.
#[derive(Default)]
struct Burst {
    /// The index of the queue pair the burst was claimed from.
    qp: usize,
    /// The commands claimed, in claim order.
    sqes: Vec<Sqe>,
    /// Their completions, held until the burst's stats are added (and, on
    /// a device with a latency, its deadline has passed).
    cqes: Vec<Cqe>,
    /// The burst's [`DeviceStats`] increments.
    tally: Tally,
    /// Start of the execution stretch under way (`None` once an open burst
    /// has executed what it claimed), and the device's own work in closed
    /// stretches.
    stretch_ns: Option<u64>,
    busy_ns: u64,
    /// End of the last command executed (recorder attached) or the start
    /// of the stretch.
    stamp: u64,
}

/// [`DeviceStats`] increments, added to the shared counters in one update
/// per counter.
#[derive(Default)]
struct Tally {
    reads: u64,
    writes: u64,
    read_bytes: u64,
    write_bytes: u64,
    errors: u64,
}

impl Tally {
    fn count(&mut self, sqe: &Sqe, status: Status, block_size: u32) {
        let bytes = u64::from(sqe.nlb) * u64::from(block_size);
        match (status, sqe.opcode) {
            (Status::Success, Opcode::Read) => {
                self.reads += 1;
                self.read_bytes += bytes;
            }
            (Status::Success, Opcode::Write) => {
                self.writes += 1;
                self.write_bytes += bytes;
            }
            (Status::Success, Opcode::Flush) => {}
            _ => self.errors += 1,
        }
    }

    /// Adds the increments to `stats` — one read-modify-write per counter
    /// that moved — and starts over.
    fn add_to(&mut self, stats: &DeviceStats) {
        let t = std::mem::take(self);
        for (counter, n) in [
            (&stats.reads, t.reads),
            (&stats.writes, t.writes),
            (&stats.read_bytes, t.read_bytes),
            (&stats.write_bytes, t.write_bytes),
            (&stats.errors, t.errors),
        ] {
            if n > 0 {
                counter.fetch_add(n, Ordering::Relaxed);
            }
        }
    }
}

/// Observation is paid per burst, not per command: with telemetry attached
/// a burst is stamped at the claim, when what it claimed has executed, and
/// — only when a command joined it late — at the join and at the end.
/// `cam_nvme_cmd_ns` takes the device's own work, the sleep left out, as
/// one weighted sample per command (one lock). Only an attached recorder,
/// whose [`EventKind::NvmeCmd`] carries a start stamp per command, makes
/// the loop read the clock per command — once, chained: command *i*'s
/// data-moved instant is command *i + 1*'s start, so each span is "claim →
/// data moved" (a late joiner's starts at the join). Unobserved, a
/// memory-speed burst reads no clock and a sleeping one at most one, for
/// the time left, shared with every burst that closes at the same wake-up;
/// its doorbell's read supplies the rest of its deadline.
impl Lane {
    fn new(sh: Arc<Shared>) -> Self {
        Lane {
            sh,
            qps: Vec::new(),
            seen_epoch: 0,
            next_qp: 0,
            burst: Burst::default(),
            open: false,
            deadline_ns: 0,
        }
    }

    fn observed(&self) -> bool {
        self.sh.telemetry.get().is_some() || self.sh.recorder.get().is_some()
    }

    /// Re-snapshots the queue pairs, and binds their device side to this
    /// thread, when a registration moved the epoch.
    fn refresh(&mut self) {
        let epoch = self.sh.qps_epoch.load(Ordering::Acquire);
        if epoch != self.seen_epoch {
            self.seen_epoch = epoch;
            self.qps = self.sh.qps.read().clone();
            for qp in &self.qps {
                qp.bind_device_owner();
            }
        }
    }

    /// Claims the visible commands of queue pair `i` that its oldest
    /// doorbell among them published, up to [`MAX_BURST`] (on a pair that
    /// does not stamp, every visible one), and executes them, holding their
    /// CQEs; returns that doorbell's ring stamp, or `None` when the pair is
    /// empty.
    fn claim(&mut self, i: usize) -> Option<u64> {
        let rung_ns = self.qps[i].take_sqes_of_one_ring(MAX_BURST, &mut self.burst.sqes)?;
        let take_ns = if self.observed() { clock::now_ns() } else { 0 };
        let b = &mut self.burst;
        b.qp = i;
        b.stamp = execute_claimed(&self.sh, b, 0, take_ns);
        b.stretch_ns = Some(take_ns);
        b.busy_ns = 0;
        Some(rung_ns)
    }

    /// At memory speed: one burst from each non-empty queue pair, each
    /// claimed, executed and posted at once. Returns the commands executed.
    fn service_now(&mut self) -> usize {
        let mut n = 0;
        for i in 0..self.qps.len() {
            if self.claim(i).is_some() {
                n += self.post();
            }
        }
        n
    }

    /// With a latency, unless a burst is open: opens one from the next
    /// non-empty queue pair, due at `burst_start(previous deadline, its
    /// doorbell) + latency_ns`; later doorbells of the pair join it at the
    /// close. Every command claimed has moved its bytes when
    /// this returns; an observed burst leaves the clock it read for that in
    /// `now_ns`, for the sleep. Returns the commands executed.
    fn open(&mut self, latency_ns: u64, now_ns: &mut Option<u64>) -> usize {
        if self.open {
            return 0;
        }
        let n = self.qps.len();
        for k in 0..n {
            let i = (self.next_qp + k) % n;
            let Some(rung_ns) = self.claim(i) else {
                continue;
            };
            self.next_qp = (i + 1) % n;
            self.deadline_ns = burst_start(self.deadline_ns, rung_ns) + latency_ns;
            self.open = true;
            let observed = self.observed();
            let b = &mut self.burst;
            *now_ns = match b.stretch_ns.take() {
                Some(take_ns) if observed => {
                    let end_ns = if self.sh.recorder.get().is_some() {
                        b.stamp
                    } else {
                        clock::now_ns()
                    };
                    b.busy_ns = end_ns - take_ns;
                    Some(end_ns)
                }
                _ => None,
            };
            return b.sqes.len();
        }
        0
    }

    /// Closes the open burst, its deadline passed: the commands rung on its
    /// queue pair meanwhile join it (up to [`MAX_BURST`] in all) and
    /// execute, then it posts.
    fn close(&mut self) {
        self.open = false;
        let claimed = self.burst.sqes.len();
        let qp = &self.qps[self.burst.qp];
        if claimed < MAX_BURST
            && qp
                .take_sqes(MAX_BURST - claimed, &mut self.burst.sqes)
                .is_some()
        {
            let start_ns = if self.observed() { clock::now_ns() } else { 0 };
            self.burst.stretch_ns = Some(start_ns);
            self.burst.stamp = execute_claimed(&self.sh, &mut self.burst, claimed, start_ns);
        }
        self.post();
    }

    /// Adds the burst's [`DeviceStats`], posts its CQEs in claim order and
    /// records its service time. Returns the commands it held.
    fn post(&mut self) -> usize {
        let b = &mut self.burst;
        let qp = &self.qps[b.qp];
        b.tally.add_to(&self.sh.stats);
        for cqe in b.cqes.drain(..) {
            qp.post_cqe(cqe);
        }
        let n = b.sqes.len();
        b.sqes.clear();
        if let Some(t) = self.sh.telemetry.get() {
            if let Some(start_ns) = b.stretch_ns {
                let end_ns = if self.sh.recorder.get().is_some() {
                    b.stamp
                } else {
                    clock::now_ns()
                };
                b.busy_ns += end_ns.saturating_sub(start_ns);
            }
            t.cmd_ns.record_n(b.busy_ns / n as u64, n as u64);
        }
        n
    }
}

/// Executes `burst.sqes[from..]`, holding their CQEs and tallying their
/// stats, in one media session and, inside it, one DMA session: the
/// stretch takes the store's lock, then the DMA space's, once each. With a
/// recorder attached, emits one [`EventKind::NvmeCmd`] per command, the
/// first starting at `start_ns`; returns the last command's end stamp (or
/// `start_ns` without a recorder).
fn execute_claimed(sh: &Shared, burst: &mut Burst, from: usize, start_ns: u64) -> u64 {
    let recorder = sh.recorder.get();
    let block_size = sh.store.geometry().block_size;
    let mut stamp = start_ns;
    let Burst {
        sqes, cqes, tally, ..
    } = burst;
    sh.store.session(&mut |media| {
        sh.dma.dma_session(&mut |dma| {
            for sqe in &sqes[from..] {
                let status = execute(sh, media, dma, block_size, sqe);
                tally.count(sqe, status, block_size);
                cqes.push(Cqe {
                    cid: sqe.cid,
                    status,
                });
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
            }
        })
    });
    stamp
}

/// Executes one command through the stretch's media and DMA sessions.
fn execute(
    sh: &Shared,
    media: &mut dyn BlockSession,
    dma: &mut dyn DmaSession,
    block_size: u32,
    sqe: &Sqe,
) -> Status {
    if sqe.opcode == Opcode::Flush {
        // The in-memory media is always durable; flush is a barrier that
        // completes after everything the service thread already executed.
        return Status::Success;
    }
    if sqe.nlb == 0 || sqe.nlb > MAX_TRANSFER_BLOCKS {
        return Status::InvalidField;
    }
    let bs = block_size as usize;
    let bytes = sqe.nlb as usize * bs;
    // Check the whole DMA range up front, so a bad (or only partly mapped)
    // range moves no bytes. A read still walks the media when it is bad:
    // range and media errors take precedence over DMA errors. A write
    // fails before it touches the media.
    let mut dma_ok = sh.dma.contains(sqe.data_addr, bytes);
    let (lba, nlb) = (Lba(sqe.slba), u64::from(sqe.nlb));
    let addr = |i: usize| sqe.data_addr + (i * bs) as u64;
    let walked = if sqe.opcode == Opcode::Read {
        media.read_blocks(lba, nlb, &mut |i, block| {
            if dma_ok {
                dma_ok = dma.dma_write_block(addr(i), block).is_ok();
            }
        })
    } else if dma_ok {
        media.write_blocks(lba, nlb, &mut |i, block| {
            dma_ok &= dma.dma_read_block(addr(i), block).is_ok();
        })
    } else {
        return Status::DataTransferError;
    };
    match walked {
        Err(e) => block_err_status(e),
        Ok(()) if !dma_ok => Status::DataTransferError,
        Ok(()) => Status::Success,
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
    fn writes_from_untouched_pages_store_the_shared_zero_page() {
        let store = Arc::new(SparseMemStore::new(BlockGeometry::new(4096, 64)));
        let dma = Arc::new(PinnedRegion::new(0x1_0000, 1 << 20));
        let dev = NvmeDevice::start(
            DeviceConfig::default(),
            Arc::clone(&store) as Arc<dyn BlockStore>,
            Arc::clone(&dma) as Arc<dyn DmaSpace>,
        );
        let qp = dev.add_queue_pair(8);
        // Two whole-page writes from pinned pages nothing ever wrote.
        qp.submit(Sqe::write(1, 3, 1, 0x1_0000)).unwrap();
        assert!(wait_cqe(&qp).status.is_ok());
        qp.submit(Sqe::write(2, 9, 1, 0x1_0000 + 8 * 4096)).unwrap();
        assert!(wait_cqe(&qp).status.is_ok());
        let mut stored = Vec::new();
        for lba in [3, 9] {
            store
                .read_blocks(Lba(lba), 1, &mut |_, b| stored.push(Arc::clone(b)))
                .unwrap();
        }
        assert!(
            Arc::ptr_eq(&stored[0], &stored[1]),
            "two zero pages allocated"
        );
        assert!(stored[0].iter().all(|&b| b == 0));
        assert_eq!(dma.resident_pages(), 0, "a write materialized a page");
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
            DeviceConfig::default(),
            store,
            Arc::clone(&dma) as Arc<dyn DmaSpace>,
        );
        let qp = dev.add_queue_pair(8);
        qp.submit(Sqe::read(1, 0, MAX_TRANSFER_BLOCKS + 1, 0))
            .unwrap();
        assert_eq!(wait_cqe(&qp).status, Status::InvalidField);
        qp.submit(Sqe::read(2, 0, MAX_TRANSFER_BLOCKS, 0)).unwrap();
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
    #[cfg(debug_assertions)]
    #[should_panic(expected = "device side driven off its owning thread")]
    fn the_service_thread_owns_the_device_side_of_its_pairs() {
        let (dev, _dma) = setup();
        let qp = dev.add_queue_pair(8);
        qp.submit(Sqe::flush(1)).unwrap();
        wait_cqe(&qp);
        qp.take_sqe();
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
    fn many_commands_across_two_queue_pairs() {
        let store: Arc<dyn BlockStore> =
            Arc::new(SparseMemStore::new(BlockGeometry::new(512, 65536)));
        let dma = Arc::new(PinnedRegion::new(0, 8 << 20));
        let dev = NvmeDevice::start(
            DeviceConfig::default(),
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
            },
            store,
            Arc::new(PinnedRegion::new(0, 4096)),
        );
        let qp = dev.add_queue_pair(8);
        qp.submit(Sqe::flush(1)).unwrap();
        wait_cqe(&qp);
        let comm = service_thread_name(name);
        // A listing of `/proc/self/task` can miss a live thread when a
        // thread made before it exits during the scan (another test's), so
        // a miss is scanned again, a bounded number of times.
        let tid = (0..TASK_SCANS)
            .find_map(|_| find_thread(&comm))
            .unwrap_or_else(|| panic!("no thread named {comm} in {TASK_SCANS} scans"));
        Some(slack_of(&tid))
    }

    /// How many times [`service_thread_slack`] lists the threads.
    const TASK_SCANS: usize = 10;

    /// The tid of a thread named `comm`, as one listing of
    /// `/proc/self/task` finds it.
    fn find_thread(comm: &str) -> Option<std::ffi::OsString> {
        std::fs::read_dir("/proc/self/task")
            .expect("list threads")
            .flatten()
            .find(|task| {
                std::fs::read_to_string(task.path().join("comm"))
                    .is_ok_and(|c| c.trim_end() == comm)
            })
            .map(|task| task.file_name())
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

    /// [`wait_cqe`] that fails the test, rather than hang it, when no CQE
    /// comes within ten latencies.
    fn wait_cqe_within_10_l(qp: &QueuePair) -> Cqe {
        let started = Instant::now();
        loop {
            if let Some(c) = qp.poll_cqe() {
                return c;
            }
            assert!(started.elapsed() < 10 * L, "no CQE within {:?}", 10 * L);
            std::thread::yield_now();
        }
    }

    /// A set of one device per latency given, sharing one DMA region.
    fn set_of(latencies: &[Duration]) -> (Vec<NvmeDevice>, Arc<PinnedRegion>) {
        let dma = Arc::new(PinnedRegion::new(0x1_0000, 1 << 20));
        let set = NvmeDevice::start_set(latencies.iter().enumerate().map(|(i, &latency)| {
            let config = DeviceConfig {
                name: format!("set{i}"),
                burst_latency: Some(latency),
            };
            let store: Arc<dyn BlockStore> =
                Arc::new(SparseMemStore::new(BlockGeometry::new(512, 4096)));
            (config, store, Arc::clone(&dma) as Arc<dyn DmaSpace>)
        }));
        (set, dma)
    }

    /// Two devices at latency `L`, one service thread, one DMA region.
    fn slow_pair() -> (Vec<NvmeDevice>, Arc<PinnedRegion>) {
        set_of(&[L, L])
    }

    #[test]
    fn a_device_rung_while_another_sleeps_keeps_its_own_time() {
        let (set, dma) = slow_pair();
        let (a, b) = (set[0].add_queue_pair(8), set[1].add_queue_pair(8));
        set[0].store().write(Lba(0), &[0xA5; 512]).unwrap();
        let a_rung = Instant::now();
        a.submit(Sqe::read(1, 0, 1, slot(0))).unwrap();
        // A's bytes have moved and its CQE is held: its burst is open and
        // the service thread sleeps to its deadline.
        while !holds(&dma, 0, 0xA5) {
            std::thread::yield_now();
        }
        assert!(a.poll_cqe().is_none());
        let b_rung = Instant::now();
        b.submit(Sqe::read(2, 0, 1, slot(1))).unwrap();
        assert_eq!(wait_cqe_within_10_l(&a).cid, 1);
        let a_done = a_rung.elapsed();
        assert!(
            a_done >= L && a_done < L * 3 / 2,
            "A done {a_done:?} after its ring"
        );
        assert_eq!(wait_cqe_within_10_l(&b).cid, 2);
        let b_done = b_rung.elapsed();
        assert!(b_done >= L, "B done {b_done:?} after its ring");
        assert!(
            b_done < L * 3 / 2,
            "B waited for A's burst before its own: done {b_done:?} after its ring"
        );
    }

    #[test]
    fn a_device_rung_twice_while_another_sleeps_keeps_its_first_rings_time() {
        let (set, dma) = slow_pair();
        let (a, b) = (set[0].add_queue_pair(8), set[1].add_queue_pair(8));
        set[0].store().write(Lba(0), &[0xA5; 512]).unwrap();
        let a_rung = Instant::now();
        a.submit(Sqe::read(1, 0, 1, slot(0))).unwrap();
        while !holds(&dma, 0, 0xA5) {
            std::thread::yield_now();
        }
        // B is rung twice while A's burst sleeps: a tenth and nine tenths
        // of the way into it. The second ring joins the burst the first
        // opened; it does not push that burst's deadline back.
        let sleep_until =
            |t: Instant| std::thread::sleep(t.saturating_duration_since(Instant::now()));
        sleep_until(a_rung + L / 10);
        let b_rung = Instant::now();
        b.submit(Sqe::read(2, 0, 1, slot(1))).unwrap();
        sleep_until(a_rung + L * 9 / 10);
        b.submit(Sqe::read(3, 1, 1, slot(2))).unwrap();
        assert_eq!(wait_cqe_within_10_l(&a).cid, 1);
        for cid in [2, 3] {
            assert_eq!(wait_cqe_within_10_l(&b).cid, cid);
            let done = b_rung.elapsed();
            assert!(
                done >= L && done < L * 3 / 2,
                "B's command {cid} done {done:?} after B's first ring"
            );
        }
    }

    #[test]
    fn dropping_a_set_mid_burst_posts_every_taken_command_on_each_device() {
        let (set, dma) = slow_pair();
        let qps: Vec<_> = set.iter().map(|d| d.add_queue_pair(8)).collect();
        for (d, (dev, qp)) in set.iter().zip(&qps).enumerate() {
            for i in 0..4u64 {
                let (s, byte) = (4 * d as u64 + i, 16 * d as u8 + i as u8 + 1);
                dev.store().write(Lba(i), &[byte; 512]).unwrap();
                qp.push_sqe(Sqe::read(s as u16, i, 1, slot(s))).unwrap();
            }
            qp.ring_doorbell();
        }
        let byte_of = |s: u64| 16 * (s / 4) as u8 + (s % 4) as u8 + 1;
        // Every byte has moved on both devices, no CQE is out: both bursts
        // are open and the service thread sleeps.
        while !(0..8u64).all(|s| holds(&dma, s, byte_of(s))) {
            std::thread::yield_now();
        }
        assert!(qps.iter().all(|qp| qp.poll_cqe().is_none()));
        drop(set);
        for (d, qp) in qps.iter().enumerate() {
            for i in 0..4u64 {
                let s = 4 * d as u64 + i;
                let c = qp.poll_cqe().expect("a taken command's CQE after the drop");
                assert_eq!((c.cid, c.status), (s as u16, Status::Success));
            }
            assert!(qp.poll_cqe().is_none());
        }
    }

    #[test]
    fn queue_pairs_added_to_a_set_while_it_runs_are_serviced() {
        let (set, _dma) = slow_pair();
        let first = set[0].add_queue_pair(8);
        first.submit(Sqe::flush(1)).unwrap();
        assert_eq!(wait_cqe_within_10_l(&first).cid, 1);
        // The thread is running; the second device gets its pairs now.
        for round in 0..2u16 {
            let qp = set[1].add_queue_pair(8);
            assert_eq!(qp.id(), round);
            qp.submit(Sqe::flush(10 + round)).unwrap();
            assert_eq!(wait_cqe_within_10_l(&qp).cid, 10 + round);
        }
        assert_eq!(set[1].stats().errors(), 0);
    }

    #[test]
    #[should_panic(expected = "a device set has one burst_latency")]
    fn a_set_with_two_latencies_does_not_start() {
        set_of(&[L, L / 2]);
    }

    #[test]
    fn an_idle_device_starts_a_burst_at_its_newest_ring() {
        // The previous burst ended before this one was rung.
        assert_eq!(burst_start(1_000, 5_000), 5_000);
        assert_eq!(burst_start(0, 7), 7);
    }

    #[test]
    fn a_busy_device_starts_a_burst_at_the_previous_deadline() {
        // Rung while the previous burst still had the device.
        assert_eq!(burst_start(9_000, 5_000), 9_000);
        assert_eq!(burst_start(5_000, 5_000), 5_000);
    }

    #[test]
    fn a_burst_never_starts_before_its_ring_or_the_previous_deadline() {
        use rand::{rngs::StdRng, Rng, SeedableRng};
        let mut rng = StdRng::seed_from_u64(35);
        for _ in 0..10_000 {
            let (deadline, ring) = (rng.gen_range(0..1u64 << 40), rng.gen_range(0..1u64 << 40));
            let start = burst_start(deadline, ring);
            assert!(start >= deadline && start >= ring);
            assert!(start == deadline || start == ring, "no idle gap is added");
        }
    }

    #[test]
    fn stop_is_idempotent_and_drop_safe() {
        let (mut dev, _dma) = setup();
        dev.stop();
        dev.stop();
        // Drop runs stop() again.
    }
}
