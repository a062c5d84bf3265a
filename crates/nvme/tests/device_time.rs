//! The threaded device keeps device time and counts each burst before it
//! completes it:
//!
//! * no CQE is reaped sooner than the burst latency after its own doorbell,
//!   and a burst rung while the device is busy starts at the previous
//!   burst's deadline — both lower bounds, so a loaded box, which only
//!   delays completions, cannot break them;
//! * a host that reaps a CQE and then reads `DeviceStats` always finds that
//!   command counted, on a memory-speed and on a sleeping device.

use std::sync::Arc;
use std::time::{Duration, Instant};

use cam_blockdev::{BlockGeometry, BlockStore, SparseMemStore};
use cam_nvme::spec::{Opcode, Sqe, Status};
use cam_nvme::{DeviceConfig, DmaSpace, NvmeDevice, PinnedRegion, QueuePair, MAX_BURST};
use rand::{rngs::StdRng, Rng, SeedableRng};

const DMA_BASE: u64 = 0x1_0000;
const BLOCKS: u64 = 4096;

fn device(burst_latency: Option<Duration>) -> NvmeDevice {
    let store: Arc<dyn BlockStore> = Arc::new(SparseMemStore::new(BlockGeometry::new(512, BLOCKS)));
    let dma: Arc<dyn DmaSpace> = Arc::new(PinnedRegion::new(DMA_BASE, 1 << 20));
    NvmeDevice::start(
        DeviceConfig {
            burst_latency,
            ..DeviceConfig::default()
        },
        store,
        dma,
    )
}

/// One doorbell of the lower-bound test: when it rang, and the earliest
/// instant its CQEs may be reaped (`None`: possibly a late joiner, which
/// completes right after the burst it joined).
struct Ring {
    first: u64,
    size: u64,
    not_before: Option<Instant>,
}

/// The host side of the lower-bound test: rings, and reaps while it waits.
struct Host<'a> {
    qp: &'a QueuePair,
    rings: Vec<Ring>,
    pushed: u64,
    reaped: u64,
}

impl Host<'_> {
    /// Rings `size` reads; `bound` maps the ring instant to the earliest
    /// instant its CQEs may be reaped.
    fn ring(&mut self, size: u64, bound: impl FnOnce(Instant) -> Option<Instant>) {
        for i in self.pushed..self.pushed + size {
            let sqe = Sqe::read(i as u16, i % BLOCKS, 1, DMA_BASE + 512 * (i % 2048));
            self.qp.push_sqe(sqe).expect("depth covers an episode");
        }
        // Read before the doorbell, so it is no later than the ring stamp.
        let rung = Instant::now();
        self.qp.ring_doorbell();
        self.rings.push(Ring {
            first: self.pushed,
            size,
            not_before: bound(rung),
        });
        self.pushed += size;
    }

    /// Reaps until `until`, or — with `None` — until nothing is in flight,
    /// checking each CQE against its ring's bound.
    fn reap(&mut self, until: Option<Instant>) {
        let started = Instant::now();
        loop {
            while let Some(cqe) = self.qp.poll_cqe() {
                let at = Instant::now();
                let i = self.reaped;
                assert_eq!(cqe.cid, i as u16, "FIFO completions");
                assert_eq!(cqe.status, Status::Success);
                let ring = self
                    .rings
                    .iter()
                    .rfind(|r| r.first <= i)
                    .expect("a ring per command");
                assert!(i < ring.first + ring.size);
                if let Some(not_before) = ring.not_before {
                    assert!(
                        at >= not_before,
                        "command {i} reaped {:?} before its bound",
                        not_before - at
                    );
                }
                self.reaped += 1;
            }
            let done = match until {
                Some(t) => Instant::now() >= t,
                None => self.reaped == self.pushed,
            };
            if done {
                return;
            }
            assert!(
                started.elapsed() < Duration::from_secs(60),
                "device stalled"
            );
            std::thread::yield_now();
        }
    }

    fn wait(&mut self, gap: Duration) {
        self.reap(Some(Instant::now() + gap));
    }
}

#[test]
fn no_cqe_is_reaped_sooner_than_the_latency_after_its_ring() {
    const L: Duration = Duration::from_millis(5);
    let dev = device(Some(L));
    let qp = dev.add_queue_pair(4 * MAX_BURST);
    let mut host = Host {
        qp: &qp,
        rings: Vec::new(),
        pushed: 0,
        reaped: 0,
    };
    let mut rng = StdRng::seed_from_u64(35);
    let gap = |rng: &mut StdRng| Duration::from_micros(rng.gen_range(0..7_500u64));
    let full = MAX_BURST as u64;
    // Each episode starts with nothing in flight.
    for episode in 0..30 {
        host.wait(gap(&mut rng));
        match episode % 3 {
            // One ring to an idle device: its burst starts at the ring.
            0 => host.ring(rng.gen_range(1..=full), |rung| Some(rung + L)),
            // Full rings back to back: no burst has room for a late
            // joiner, so each starts at its ring or at the previous
            // burst's deadline, whichever is later.
            1 => {
                let mut deadline = None::<Instant>;
                for k in 0..rng.gen_range(2..=4) {
                    if k > 0 {
                        host.wait(gap(&mut rng));
                    }
                    host.ring(full, |rung| {
                        let start = deadline.map_or(rung, |d| d.max(rung));
                        deadline = Some(start + L);
                        deadline
                    });
                }
            }
            // Rings of any size while the device is busy: the first starts
            // a burst at its ring, the later ones may join a burst late.
            _ => {
                host.ring(rng.gen_range(1..=full), |rung| Some(rung + L));
                for _ in 0..rng.gen_range(1..=3) {
                    host.wait(gap(&mut rng));
                    host.ring(rng.gen_range(1..=full), |_| None);
                }
            }
        }
        host.reap(None);
    }
    let checked = host.rings.iter().filter(|r| r.not_before.is_some()).count();
    assert!(checked >= 30, "only {checked} rings checked");
}

/// What a host has reaped so far, counted the way `DeviceStats` counts.
#[derive(Default, Debug, PartialEq)]
struct Counted {
    reads: u64,
    writes: u64,
    read_bytes: u64,
    write_bytes: u64,
    errors: u64,
}

fn reaped_commands_are_counted(burst_latency: Option<Duration>) {
    let dev = device(burst_latency);
    let qp = dev.add_queue_pair(2 * MAX_BURST);
    let mut rng = StdRng::seed_from_u64(7);
    let mut sqes = std::collections::HashMap::new();
    let mut counted = Counted::default();
    let (mut pushed, mut reaped, mut misses) = (0u64, 0u64, 0u64);
    let started = Instant::now();
    const COMMANDS: u64 = 10_000;
    while reaped < COMMANDS {
        if pushed < COMMANDS && qp.in_flight() < MAX_BURST as u64 {
            let n = rng.gen_range(1..=MAX_BURST as u64).min(COMMANDS - pushed);
            for _ in 0..n {
                let (cid, nlb) = (pushed as u16, rng.gen_range(1..=4u32));
                let addr = DMA_BASE + 2048 * (pushed % 256);
                let sqe = match rng.gen_range(0..8) {
                    0..=3 => Sqe::read(cid, rng.gen_range(0..BLOCKS - 4), nlb, addr),
                    4..=5 => Sqe::write(cid, rng.gen_range(0..BLOCKS - 4), nlb, addr),
                    6 => Sqe::flush(cid),
                    _ => Sqe::read(cid, BLOCKS - 1, 2, addr), // out of range
                };
                if qp.push_sqe(sqe).is_err() {
                    break;
                }
                sqes.insert(cid, sqe);
                pushed += 1;
            }
            qp.ring_doorbell();
        }
        let Some(cqe) = qp.poll_cqe() else {
            assert!(
                started.elapsed() < Duration::from_secs(60),
                "device stalled"
            );
            // Spin, so a CQE is read as soon as it posts, while the rest of
            // its burst may still be posting; yield now and then for a
            // device thread that shares this core.
            misses += 1;
            if misses % 1024 == 0 {
                std::thread::yield_now();
            } else {
                std::hint::spin_loop();
            }
            continue;
        };
        // Read the stats first: the window a wrong order leaves is short.
        let s = dev.stats();
        let seen = Counted {
            reads: s.reads(),
            writes: s.writes(),
            read_bytes: s.read_bytes(),
            write_bytes: s.write_bytes(),
            errors: s.errors(),
        };
        reaped += 1;
        let sqe = sqes.remove(&cqe.cid).expect("a CQE per command");
        let bytes = u64::from(sqe.nlb) * 512;
        match (cqe.status, sqe.opcode) {
            (Status::Success, Opcode::Read) => {
                counted.reads += 1;
                counted.read_bytes += bytes;
            }
            (Status::Success, Opcode::Write) => {
                counted.writes += 1;
                counted.write_bytes += bytes;
            }
            (Status::Success, Opcode::Flush) => {}
            _ => counted.errors += 1,
        }
        // The stats may run ahead — the rest of the CQE's burst is counted
        // with it — but never behind what was reaped.
        assert!(
            seen.reads >= counted.reads
                && seen.writes >= counted.writes
                && seen.read_bytes >= counted.read_bytes
                && seen.write_bytes >= counted.write_bytes
                && seen.errors >= counted.errors,
            "after command {}: stats {seen:?} behind the reaped {counted:?}",
            cqe.cid
        );
    }
    let s = dev.stats();
    assert_eq!(
        (s.reads(), s.writes(), s.errors()),
        (counted.reads, counted.writes, counted.errors)
    );
    assert!(counted.errors > 0 && counted.writes > 0);
}

#[test]
fn a_reaped_cqe_finds_its_command_counted_on_a_memory_speed_device() {
    reaped_commands_are_counted(None);
}

#[test]
fn a_reaped_cqe_finds_its_command_counted_on_a_sleeping_device() {
    reaped_commands_are_counted(Some(Duration::from_micros(50)));
}
