//! The threaded worker's exact operation budget per warm batch: heap
//! allocations and histogram shard locks between the doorbell and the
//! region-4 retire, counted on a real [`CamContext`] driving
//! `ctrl_read`-shaped batches (one worker, two SSDs striped one block wide,
//! 256 blocks, 64 one-block reads per batch with the duplicates a uniform
//! draw makes).
//!
//! * Allocations are counted by a process-wide counting global allocator,
//!   so every thread counts: the client, the worker and the SSD service
//!   threads. That is why this file is its own test binary with one test
//!   and `harness = false`: a second test running beside it would add its
//!   allocations, and so does libtest's own harness thread, which
//!   allocates to report a test that has run for over 60 seconds (as this
//!   one can on a loaded box).
//! * Shard locks are the sum of `HistogramHandle::record_locks` over the
//!   histograms the worker records into (the lifecycle stages, the per-SSD
//!   submit/complete spans, the doorbell→retire totals and the queue
//!   pairs' doorbell batch sizes). The counter exists only in debug builds,
//!   so the lock half of the test runs only there.
//!
//! A first pass over the batches warms every pool and table up to its
//! peak; the second pass is counted. A new allocation or lock per batch
//! anywhere on the path changes the count.

use std::alloc::{GlobalAlloc, Layout, System};
use std::sync::atomic::{AtomicU64, Ordering};

use cam_core::{CamConfig, CamContext, ChannelOp};
use cam_iostacks::{Rig, RigConfig};

struct Counting;

static ALLOCS: AtomicU64 = AtomicU64::new(0);

// SAFETY: every call forwards to `System` unchanged; the counter is a
// static atomic that never allocates.
unsafe impl GlobalAlloc for Counting {
    unsafe fn alloc(&self, layout: Layout) -> *mut u8 {
        ALLOCS.fetch_add(1, Ordering::Relaxed);
        unsafe { System.alloc(layout) }
    }

    unsafe fn alloc_zeroed(&self, layout: Layout) -> *mut u8 {
        ALLOCS.fetch_add(1, Ordering::Relaxed);
        unsafe { System.alloc_zeroed(layout) }
    }

    unsafe fn realloc(&self, ptr: *mut u8, layout: Layout, new_size: usize) -> *mut u8 {
        ALLOCS.fetch_add(1, Ordering::Relaxed);
        unsafe { System.realloc(ptr, layout, new_size) }
    }

    unsafe fn dealloc(&self, ptr: *mut u8, layout: Layout) {
        unsafe { System.dealloc(ptr, layout) }
    }
}

#[global_allocator]
static GLOBAL: Counting = Counting;

const N_SSDS: usize = 2;
const CTRL_BLOCKS: u64 = 256;
const BLOCK: usize = 4096;
const BATCH: usize = 64;
/// Warm-up batches, then counted batches.
const WARM: u64 = 2_000;
const BATCHES: u64 = 20_000;

/// Batch `b`'s seeded LBAs, uniform over the `ctrl_read` footprint.
fn fill_lbas(b: u64, lbas: &mut [u64]) {
    let mut x = b.wrapping_mul(0x9E37_79B9_7F4A_7C15) | 1;
    for lba in lbas {
        x = x
            .wrapping_mul(6_364_136_223_846_793_005)
            .wrapping_add(1_442_695_040_888_963_407);
        *lba = (x >> 33) % CTRL_BLOCKS;
    }
}

/// Histogram shard locks taken so far on the handles the worker records
/// into.
#[cfg(debug_assertions)]
fn worker_locks(reg: &cam_telemetry::MetricsRegistry) -> u64 {
    const WORKER_FED: [&str; 5] = [
        "cam_stage_ns",
        "cam_ssd_submit_ns",
        "cam_ssd_complete_ns",
        "cam_batch_total_ns",
        "cam_nvme_doorbell_batch",
    ];
    reg.snapshot()
        .histograms
        .keys()
        .filter(|name| WORKER_FED.iter().any(|p| name.starts_with(p)))
        .map(|name| reg.histogram(name).record_locks())
        .sum()
}

const NAME: &str = "a_warm_ctrl_read_batch_costs_a_pinned_number_of_allocations_and_locks";

fn a_warm_ctrl_read_batch_costs_a_pinned_number_of_allocations_and_locks() {
    let rig = Rig::new(RigConfig {
        n_ssds: N_SSDS,
        blocks_per_ssd: CTRL_BLOCKS / N_SSDS as u64,
        block_size: BLOCK as u32,
        stripe_blocks: 1,
        ..RigConfig::default()
    });
    let cam = CamContext::attach(
        &rig,
        CamConfig {
            n_channels: 1,
            workers: Some(1),
            pipelined: true,
            ..CamConfig::default()
        },
    );
    let dev = cam.device();
    let buf = cam.alloc(BATCH * BLOCK).expect("destination buffer");
    let mut lbas = vec![0u64; BATCH];
    let mut run = |batches: std::ops::Range<u64>| {
        for b in batches {
            fill_lbas(b, &mut lbas);
            dev.submit(0, ChannelOp::Read, &lbas, buf.addr())
                .and_then(|t| t.wait())
                .expect("batch retires cleanly");
        }
    };
    run(0..WARM);
    // Reading the registry allocates, so the lock counters are read
    // outside the allocation window.
    #[cfg(debug_assertions)]
    let locks = worker_locks(cam.registry());
    let allocs = ALLOCS.load(Ordering::Relaxed);
    run(WARM..WARM + BATCHES);
    let allocs = ALLOCS.load(Ordering::Relaxed) - allocs;
    #[cfg(debug_assertions)]
    let locks = worker_locks(cam.registry()) - locks;

    assert_eq!(cam.stats().batches, WARM + BATCHES);
    // The worker reuses every buffer from doorbell to retire: the region is
    // planned in place, and the batch records, run lists, planner index
    // and lane queues are recycled or sized once (the parent of this pin
    // made 199 922: about ten per batch). The SSD threads and the client
    // allocate nothing per batch either.
    assert_eq!(allocs, 0, "heap allocations over {BATCHES} warm batches");
    // The worker holds a `ShardClaim`, so its 15 samples per 2-group batch
    // (13 lifecycle samples and one doorbell-batch size per ring) land in
    // lock-free owned shards (the parent of this pin took 15 locks).
    #[cfg(debug_assertions)]
    assert_eq!(
        locks, 0,
        "histogram shard locks over {BATCHES} warm batches"
    );
}

fn main() {
    // `--list` is how test runners enumerate a binary's tests.
    if std::env::args().any(|a| a == "--list") {
        println!("{NAME}: test");
        return;
    }
    a_warm_ctrl_read_batch_costs_a_pinned_number_of_allocations_and_locks();
    println!("test {NAME} ... ok");
}
