//! The device service loop's observation budget: with telemetry attached
//! and no recorder, a burst of up to `max_burst` commands costs at most two
//! clock reads and exactly one histogram lock — never a read or a lock per
//! command — and `cam_nvme_cmd_ns` still counts every command executed.
//! Only an attached `FlightRecorder` buys per-command stamps: one
//! `NvmeCmd` event and one read per command, plus one read per burst.
//!
//! The counters behind these assertions (`clock::reads`,
//! `HistogramHandle::record_locks`) exist only in debug builds, so this
//! file compiles to nothing under `--release`; run it without that flag.
#![cfg(debug_assertions)]

use std::sync::{Arc, Mutex};

use cam_blockdev::{BlockGeometry, BlockStore, SparseMemStore};
use cam_nvme::spec::{Sqe, Status};
use cam_nvme::{DeviceConfig, DmaSpace, NvmeDevice, PinnedRegion, QueuePair};
use cam_telemetry::{clock, EventKind, FlightRecorder, HistogramHandle, MetricsRegistry};

/// `clock::reads` is process-wide: the tests of this file take turns.
static SERIAL: Mutex<()> = Mutex::new(());

const DMA_BASE: u64 = 0x1_0000;
const MAX_BURST: usize = 32;

fn device() -> (NvmeDevice, HistogramHandle) {
    let store: Arc<dyn BlockStore> = Arc::new(SparseMemStore::new(BlockGeometry::new(512, 4096)));
    let dma: Arc<dyn DmaSpace> = Arc::new(PinnedRegion::new(DMA_BASE, 1 << 20));
    let config = DeviceConfig::default();
    assert_eq!(config.max_burst, MAX_BURST);
    let dev = NvmeDevice::start(config, store, dma);
    let reg = MetricsRegistry::new();
    dev.attach_telemetry(&reg);
    let cmd_ns = reg.histogram("cam_nvme_cmd_ns{device=\"nvme0\"}");
    (dev, cmd_ns)
}

/// What one doorbell's worth of commands cost the process.
struct Cost {
    clock_reads: u64,
    record_locks: u64,
    errors: usize,
}

/// Publishes `n` commands with one doorbell — so the device sees them all
/// at once and services them as `ceil(n / MAX_BURST)` bursts — reaps every
/// completion, and waits until the device has recorded the last burst.
/// Every seventh command fails (LBA out of range).
fn run(qp: &QueuePair, cmd_ns: &HistogramHandle, n: usize) -> Cost {
    let counted = cmd_ns.count();
    let (reads, locks) = (clock::reads(), cmd_ns.record_locks());
    for i in 0..n {
        let cid = i as u16;
        let sqe = match i % 7 {
            6 => Sqe::read(cid, 4095, 2, DMA_BASE),
            _ => Sqe::read(cid, i as u64, 1, DMA_BASE + 512 * i as u64),
        };
        qp.push_sqe(sqe).unwrap();
    }
    qp.ring_doorbell();
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
    // The burst is recorded after its last CQE is posted.
    while cmd_ns.count() < counted + n as u64 {
        std::thread::yield_now();
    }
    assert_eq!(cmd_ns.count(), counted + n as u64, "count = commands");
    Cost {
        clock_reads: clock::reads() - reads,
        record_locks: cmd_ns.record_locks() - locks,
        errors,
    }
}

#[test]
fn unobserved_bursts_cost_two_reads_and_one_lock_each() {
    let _turn = SERIAL.lock().unwrap_or_else(|e| e.into_inner());
    let (dev, cmd_ns) = device();
    let qp = dev.add_queue_pair(64);
    for (n, bursts, errors) in [(1, 1, 0), (32, 1, 4), (33, 2, 4)] {
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
fn a_recorder_buys_one_stamp_and_one_event_per_command() {
    let _turn = SERIAL.lock().unwrap_or_else(|e| e.into_inner());
    let (mut dev, cmd_ns) = device();
    let rec = Arc::new(FlightRecorder::new());
    dev.attach_recorder(3, Arc::clone(&rec));
    let qp = dev.add_queue_pair(64);
    let mut commands = 0;
    for (n, bursts) in [(1, 1), (32, 1), (33, 2)] {
        let cost = run(&qp, &cmd_ns, n);
        commands += n;
        // n chained stamps + one per burst, and the submitting thread's
        // own stamp on its `QpDoorbell` event.
        assert!(
            cost.clock_reads <= (n + bursts + 1) as u64,
            "{n} commands in {bursts} burst(s) read the clock {} times",
            cost.clock_reads
        );
        assert_eq!(cost.record_locks, bursts as u64, "{n} commands");
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
