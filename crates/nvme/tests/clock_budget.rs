//! The device service loop's observation budget: with telemetry attached
//! and no recorder, a burst of up to `MAX_BURST` commands costs at most two
//! clock reads and exactly one histogram lock — never a read or a lock per
//! command — and `cam_nvme_cmd_ns` still counts every command executed.
//! Only an attached `FlightRecorder` buys per-command stamps: one
//! `NvmeCmd` event and one read per command, plus one read per burst.
//!
//! A device with a `burst_latency` keeps device time: its queue pairs'
//! doorbells read the clock once per ring to stamp their SQEs, and a burst
//! takes its deadline from those stamps, so it reads the clock only for the
//! time left to sleep — one read per ring and one per burst with nothing
//! attached. Telemetry adds a read at the claim and, only when a command
//! joined the burst during the sleep, two more: after the sleep and at the
//! end.
//!
//! Devices that share a service thread ([`NvmeDevice::start_set`]) each
//! keep that budget: two devices rung at once read the clock no more than
//! two lone ones would, and each takes one histogram lock per burst.
//!
//! The counters behind these assertions (`clock::reads`,
//! `HistogramHandle::record_locks`) exist only in debug builds, so this
//! file compiles to nothing under `--release`; run it without that flag.
#![cfg(debug_assertions)]

use std::sync::{Arc, Mutex};
use std::time::Duration;

use cam_blockdev::{BlockGeometry, BlockStore, SparseMemStore};
use cam_nvme::spec::{Sqe, Status};
use cam_nvme::{DeviceConfig, DmaSpace, NvmeDevice, PinnedRegion, QueuePair, MAX_BURST};
use cam_telemetry::{clock, EventKind, FlightRecorder, HistogramHandle, MetricsRegistry};

/// `clock::reads` is process-wide: the tests of this file take turns.
static SERIAL: Mutex<()> = Mutex::new(());

const DMA_BASE: u64 = 0x1_0000;
const CMD_NS: &str = "cam_nvme_cmd_ns{device=\"nvme0\"}";

/// The burst latency of the sleeping device.
const LATENCY: Duration = Duration::from_millis(1);

/// The three doorbells every test rings: `(commands, bursts, errors)` —
/// one command, one full burst, and one command past it.
const SHAPES: [(usize, u64, usize); 3] = [(1, 1, 0), (MAX_BURST, 1, 4), (MAX_BURST + 1, 2, 4)];

/// A device with nothing attached, and the `cam_nvme_cmd_ns` handle that
/// `attach_telemetry(&reg)` would feed.
fn bare_device(burst_latency: Option<Duration>) -> (NvmeDevice, MetricsRegistry, HistogramHandle) {
    let store: Arc<dyn BlockStore> = Arc::new(SparseMemStore::new(BlockGeometry::new(512, 4096)));
    let dma: Arc<dyn DmaSpace> = Arc::new(PinnedRegion::new(DMA_BASE, 1 << 20));
    let config = DeviceConfig {
        burst_latency,
        ..DeviceConfig::default()
    };
    assert_eq!(
        MAX_BURST, 32,
        "SHAPES counts the errors of 32 and 33 commands"
    );
    let dev = NvmeDevice::start(config, store, dma);
    let reg = MetricsRegistry::new();
    let cmd_ns = reg.histogram(CMD_NS);
    (dev, reg, cmd_ns)
}

fn device(burst_latency: Option<Duration>) -> (NvmeDevice, HistogramHandle) {
    let (dev, reg, cmd_ns) = bare_device(burst_latency);
    dev.attach_telemetry(&reg);
    (dev, cmd_ns)
}

/// What one test step's commands cost the process.
struct Cost {
    clock_reads: u64,
    record_locks: u64,
    errors: usize,
}

/// Publishes `rings[k]` commands with the `k`-th doorbell, `gap` apart —
/// with one doorbell the device sees them all at once and services them as
/// `ceil(n / MAX_BURST)` bursts — reaps every completion, and, when
/// `recorded`, waits until the device has recorded the last burst.
/// Every seventh command fails (LBA out of range).
fn run_rings(
    qp: &QueuePair,
    cmd_ns: &HistogramHandle,
    rings: &[usize],
    gap: Duration,
    recorded: bool,
) -> Cost {
    let n: usize = rings.iter().sum();
    let counted = cmd_ns.count();
    let (reads, locks) = (clock::reads(), cmd_ns.record_locks());
    let mut i = 0;
    for (k, &batch) in rings.iter().enumerate() {
        if k > 0 {
            std::thread::sleep(gap);
        }
        for _ in 0..batch {
            let cid = i as u16;
            let sqe = match i % 7 {
                6 => Sqe::read(cid, 4095, 2, DMA_BASE),
                _ => Sqe::read(cid, i as u64, 1, DMA_BASE + 512 * i as u64),
            };
            qp.push_sqe(sqe).unwrap();
            i += 1;
        }
        qp.ring_doorbell();
    }
    let (mut reaped, mut errors) = (0, 0);
    while reaped < n {
        match qp.poll_cqe() {
            Some(cqe) => {
                reaped += 1;
                errors += usize::from(cqe.status != Status::Success);
            }
            None => std::thread::yield_now(),
        }
    }
    if recorded {
        // The burst is recorded after its last CQE is posted.
        while cmd_ns.count() < counted + n as u64 {
            std::thread::yield_now();
        }
        assert_eq!(cmd_ns.count(), counted + n as u64, "count = commands");
    }
    Cost {
        clock_reads: clock::reads() - reads,
        record_locks: cmd_ns.record_locks() - locks,
        errors,
    }
}

fn run(qp: &QueuePair, cmd_ns: &HistogramHandle, n: usize) -> Cost {
    run_rings(qp, cmd_ns, &[n], Duration::ZERO, true)
}

#[test]
fn unobserved_bursts_cost_two_reads_and_one_lock_each() {
    let _turn = SERIAL.lock().unwrap_or_else(|e| e.into_inner());
    let (dev, cmd_ns) = device(None);
    let qp = dev.add_queue_pair(64);
    for (n, bursts, errors) in SHAPES {
        let cost = run(&qp, &cmd_ns, n);
        assert_eq!(cost.errors, errors, "{n} commands");
        assert!(
            cost.clock_reads <= 2 * bursts,
            "{n} commands in {bursts} burst(s) read the clock {} times",
            cost.clock_reads
        );
        assert_eq!(cost.record_locks, bursts, "{n} commands");
    }
    assert_eq!(cmd_ns.count(), 66);
    assert_eq!(dev.stats().errors(), 8);
}

#[test]
fn sleeping_bursts_read_the_clock_for_their_deadline_only() {
    let _turn = SERIAL.lock().unwrap_or_else(|e| e.into_inner());
    let (dev, reg, cmd_ns) = bare_device(Some(LATENCY));
    let qp = dev.add_queue_pair(64);
    // Nothing attached: the ring's stamp and each burst's time left,
    // nothing recorded.
    for (n, bursts, errors) in SHAPES {
        let cost = run_rings(&qp, &cmd_ns, &[n], Duration::ZERO, false);
        assert_eq!(cost.errors, errors, "{n} commands");
        assert!(
            cost.clock_reads <= 1 + bursts,
            "{n} unobserved commands in {bursts} burst(s) read the clock {} times",
            cost.clock_reads
        );
        assert_eq!(cost.record_locks, 0, "{n} unobserved commands");
    }
    assert_eq!(cmd_ns.count(), 0);
    // Telemetry attached: one weighted record per burst.
    dev.attach_telemetry(&reg);
    for (n, bursts, errors) in SHAPES {
        let cost = run(&qp, &cmd_ns, n);
        assert_eq!(cost.errors, errors, "{n} commands");
        assert!(
            cost.clock_reads <= 1 + 4 * bursts,
            "{n} commands in {bursts} burst(s) read the clock {} times",
            cost.clock_reads
        );
        assert_eq!(cost.record_locks, bursts, "{n} commands");
    }
    // A command rung a fifth of the way into the sleep joins its burst,
    // unless the box is slow enough that it opens a burst of its own: the
    // locks count the bursts either way.
    let cost = run_rings(&qp, &cmd_ns, &[1, 1], LATENCY / 5, true);
    assert!(
        (1..=2).contains(&cost.record_locks),
        "{} bursts",
        cost.record_locks
    );
    assert!(
        cost.clock_reads <= 2 + 4 * cost.record_locks,
        "2 commands in {} burst(s) read the clock {} times",
        cost.record_locks,
        cost.clock_reads
    );
    assert_eq!(cmd_ns.count(), 68, "count = commands executed since attach");
    assert_eq!(dev.stats().reads() + dev.stats().errors(), 134);
}

/// One `NvmeCmd` per command, stamped from take to data moved: spans
/// chain without overlap in take order on either kind of device.
fn recorder_budget(burst_latency: Option<Duration>) {
    let _turn = SERIAL.lock().unwrap_or_else(|e| e.into_inner());
    let (mut dev, cmd_ns) = device(burst_latency);
    let rec = Arc::new(FlightRecorder::new());
    dev.attach_recorder(3, Arc::clone(&rec));
    let qp = dev.add_queue_pair(64);
    let mut commands = 0;
    for (n, bursts, _) in SHAPES {
        let cost = run(&qp, &cmd_ns, n);
        commands += n;
        // n chained stamps + one per burst, and the submitting thread's
        // own stamp on its `QpDoorbell` event.
        assert!(
            cost.clock_reads <= n as u64 + bursts + 1,
            "{n} commands in {bursts} burst(s) read the clock {} times",
            cost.clock_reads
        );
        assert_eq!(cost.record_locks, bursts, "{n} commands");
    }
    // Joining the service thread orders its last emit before the snapshot.
    dev.stop();
    let spans: Vec<(u64, u64, bool)> = rec
        .snapshot()
        .iter()
        .filter_map(|e| match e.kind {
            EventKind::NvmeCmd {
                device,
                ok,
                start_ns,
                ..
            } => {
                assert_eq!(device, 3);
                Some((start_ns, e.ts_ns, ok))
            }
            _ => None,
        })
        .collect();
    assert_eq!(spans.len(), commands, "one NvmeCmd per command");
    assert_eq!(spans.iter().filter(|s| !s.2).count(), 8);
    assert!(spans.iter().all(|&(start, end, _)| start <= end));
    assert!(
        spans
            .windows(2)
            .all(|w| w[0].0 <= w[1].0 && w[0].1 <= w[1].0),
        "start_ns non-decreasing, spans chained without overlap"
    );
}

#[test]
fn a_recorder_buys_one_stamp_and_one_event_per_command() {
    recorder_budget(None);
}

#[test]
fn a_recorder_on_a_sleeping_device_buys_the_same_stamps() {
    recorder_budget(Some(LATENCY));
}

/// Two devices serviced by one thread ([`NvmeDevice::start_set`]), each
/// with telemetry attached unless `bare`, and their `cam_nvme_cmd_ns`
/// handles.
fn device_pair(
    burst_latency: Option<Duration>,
    bare: bool,
) -> (Vec<NvmeDevice>, MetricsRegistry, [HistogramHandle; 2]) {
    let dma: Arc<dyn DmaSpace> = Arc::new(PinnedRegion::new(DMA_BASE, 1 << 20));
    let set = NvmeDevice::start_set((0..2).map(|i| {
        let config = DeviceConfig {
            name: format!("nvme{i}"),
            burst_latency,
        };
        let store: Arc<dyn BlockStore> =
            Arc::new(SparseMemStore::new(BlockGeometry::new(512, 4096)));
        (config, store, Arc::clone(&dma))
    }));
    let reg = MetricsRegistry::new();
    let cmd_ns = [0, 1].map(|i| reg.histogram(&format!("cam_nvme_cmd_ns{{device=\"nvme{i}\"}}")));
    if !bare {
        for dev in &set {
            dev.attach_telemetry(&reg);
        }
    }
    (set, reg, cmd_ns)
}

/// [`run_rings`] with one doorbell of `n` commands on each device at once:
/// the clock reads of both, and the histogram locks of each.
fn run_both(
    qps: &[Arc<QueuePair>],
    cmd_ns: &[HistogramHandle; 2],
    n: usize,
    recorded: bool,
) -> (u64, [u64; 2], usize) {
    let counted = cmd_ns.each_ref().map(|h| h.count());
    let locks = cmd_ns.each_ref().map(|h| h.record_locks());
    let reads = clock::reads();
    for (d, qp) in qps.iter().enumerate() {
        for i in 0..n {
            let cid = i as u16;
            let addr = DMA_BASE + 512 * (64 * d + i) as u64;
            let sqe = match i % 7 {
                6 => Sqe::read(cid, 4095, 2, addr),
                _ => Sqe::read(cid, i as u64, 1, addr),
            };
            qp.push_sqe(sqe).unwrap();
        }
        qp.ring_doorbell();
    }
    let (mut reaped, mut errors) = (0, 0);
    while reaped < 2 * n {
        let mut idle = true;
        for qp in qps {
            if let Some(cqe) = qp.poll_cqe() {
                idle = false;
                reaped += 1;
                errors += usize::from(cqe.status != Status::Success);
            }
        }
        if idle {
            std::thread::yield_now();
        }
    }
    if recorded {
        for (h, before) in cmd_ns.iter().zip(counted) {
            while h.count() < before + n as u64 {
                std::thread::yield_now();
            }
        }
    }
    let locks = [0, 1].map(|d| cmd_ns[d].record_locks() - locks[d]);
    (clock::reads() - reads, locks, errors)
}

#[test]
fn devices_sharing_a_service_thread_keep_the_one_device_budget() {
    let _turn = SERIAL.lock().unwrap_or_else(|e| e.into_inner());
    for (latency, attached) in [(None, true), (Some(LATENCY), false), (Some(LATENCY), true)] {
        // One device's clock reads for a doorbell taking `bursts` bursts,
        // as the one-device tests above bound them.
        let budget = |bursts: u64| match (latency, attached) {
            (None, _) => 2 * bursts,
            (Some(_), false) => 1 + bursts,
            (Some(_), true) => 1 + 4 * bursts,
        };
        let (set, _reg, cmd_ns) = device_pair(latency, !attached);
        let qps: Vec<_> = set.iter().map(|d| d.add_queue_pair(64)).collect();
        for (n, bursts, errors) in SHAPES {
            let (reads, locks, errs) = run_both(&qps, &cmd_ns, n, attached);
            let case = format!("{latency:?}, attached {attached}: {n} commands a device");
            assert_eq!(errs, 2 * errors, "{case}");
            assert!(
                reads <= 2 * budget(bursts),
                "{case} in {bursts} burst(s) each read the clock {reads} times"
            );
            let per_device = if attached { bursts } else { 0 };
            assert_eq!(locks, [per_device; 2], "{case}");
        }
        for dev in &set {
            assert_eq!(dev.stats().errors(), 8);
        }
    }
}
