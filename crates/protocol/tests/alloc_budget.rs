//! Heap allocations on the protocol core's hot path, counted exactly.
//!
//! A counting global allocator (this test binary only) tallies every
//! `alloc`, `alloc_zeroed` and `realloc` per thread, so tests running side
//! by side in the binary do not see each other's allocations. The batches
//! have `ctrl_read`'s shape: 64 one-block reads over 256 blocks striped
//! across two SSDs, two batches in flight.
//!
//! * `on_group` → `pump` → `on_cqe` allocates nothing once warm (a first
//!   pass over the same batches): the
//!   command slab, the lane queues, the in-flight tables and the group
//!   slots all stay at their peak size.
//! * `plan_batch` + `open_batch` allocate a pinned number of times; a new
//!   allocation per batch (a clone, a growing `Vec`) changes the count.

use std::alloc::{GlobalAlloc, Layout, System};
use std::cell::Cell;

use cam_nvme::spec::Status;
use cam_protocol::{
    open_batch, plan_batch, BatchStamps, ChannelOp, Command, GroupSpec, PlanConfig, RetryPolicy,
    WorkerCore,
};

struct Counting;

thread_local! {
    static ALLOCS: Cell<u64> = const { Cell::new(0) };
}

fn count() {
    // `try_with`: the allocator may run while the thread's locals are torn down.
    let _ = ALLOCS.try_with(|n| n.set(n.get() + 1));
}

// SAFETY: every call forwards to `System` unchanged; the counter is a
// const-initialised thread local that never allocates.
unsafe impl GlobalAlloc for Counting {
    unsafe fn alloc(&self, layout: Layout) -> *mut u8 {
        count();
        unsafe { System.alloc(layout) }
    }

    unsafe fn alloc_zeroed(&self, layout: Layout) -> *mut u8 {
        count();
        unsafe { System.alloc_zeroed(layout) }
    }

    unsafe fn realloc(&self, ptr: *mut u8, layout: Layout, new_size: usize) -> *mut u8 {
        count();
        unsafe { System.realloc(ptr, layout, new_size) }
    }

    unsafe fn dealloc(&self, ptr: *mut u8, layout: Layout) {
        unsafe { System.dealloc(ptr, layout) }
    }
}

#[global_allocator]
static GLOBAL: Counting = Counting;

/// Allocations made by this thread so far.
fn allocs() -> u64 {
    ALLOCS.with(Cell::get)
}

const N_SSDS: usize = 2;
const BATCH: u64 = 64;
const CTRL_BLOCKS: u64 = 256;
const QUEUE_DEPTH: usize = 1024;
const BATCHES: u64 = 1_000;

const PLAN: PlanConfig = PlanConfig {
    n_ssds: N_SSDS,
    stripe_blocks: 1,
    block_size: 4096,
};

/// Batch `b`'s seeded read requests: `(LBA, destination address)`.
fn requests(b: u64) -> Vec<(u64, u64)> {
    let mut x = b.wrapping_mul(0x9E37_79B9_7F4A_7C15) | 1;
    (0..BATCH)
        .map(|i| {
            x = x
                .wrapping_mul(6_364_136_223_846_793_005)
                .wrapping_add(1_442_695_040_888_963_407);
            ((x >> 33) % CTRL_BLOCKS, i << 12)
        })
        .collect()
}

fn open(b: u64, reqs: Vec<(u64, u64)>) -> Vec<GroupSpec> {
    let plan = plan_batch(&PLAN, ChannelOp::Read, 1, reqs);
    let at = BatchStamps {
        doorbell_ns: b,
        pickup_ns: b,
        dispatched_ns: b,
        compute_gap_ns: 0,
    };
    open_batch(plan, 0, b, at)
}

#[test]
fn the_worker_core_allocates_nothing_per_command_once_warm() {
    let mut core = WorkerCore::new(
        N_SSDS,
        QUEUE_DEPTH,
        RetryPolicy {
            max_retries: 3,
            backoff_base_ns: 20_000,
            deadline_ns: None,
        },
    );
    let mut out: Vec<Command> = Vec::with_capacity(4 * BATCH as usize);
    // The previous batch's submissions, completed after the next batch is
    // admitted: two batches share the lanes, as under pipelined admission.
    let mut in_flight: Vec<(usize, u16)> = Vec::with_capacity(BATCH as usize);
    let mut submitted: Vec<(usize, u16)> = Vec::with_capacity(BATCH as usize);
    let (mut counted, mut retired) = (0u64, 0u64);
    // The first pass over the batches warms the core up to its peak
    // sizes; the second pass is counted.
    for pass in 0..2 {
        for b in 0..BATCHES {
            let specs = open(b, requests(b));
            let before = allocs();
            for spec in specs {
                core.on_group(spec, b);
            }
            core.pump(b, &mut out);
            submitted.extend(out.drain(..).filter_map(|c| match c {
                Command::Submit(s) => Some((s.ssd, s.cid)),
                _ => None,
            }));
            // Completions arrive SSD 1 first, each lane in reverse order.
            in_flight.sort_unstable_by_key(|&(ssd, cid)| {
                (std::cmp::Reverse(ssd), std::cmp::Reverse(cid))
            });
            for (ssd, cid) in in_flight.drain(..) {
                core.on_cqe(ssd, cid, Status::Success, b, &mut out);
            }
            retired += out
                .drain(..)
                .filter(|c| matches!(c, Command::RetireBatch { .. }))
                .count() as u64;
            std::mem::swap(&mut in_flight, &mut submitted);
            if pass == 1 {
                counted += allocs() - before;
            }
        }
    }
    assert_eq!(retired, 2 * BATCHES - 1, "one batch is still in flight");
    assert_eq!(counted, 0, "allocations over {BATCHES} warm batches");
}

#[test]
fn planning_and_opening_a_batch_allocate_a_pinned_number_of_times() {
    let mut counted = 0u64;
    for b in 0..BATCHES {
        let reqs = requests(b);
        let before = allocs();
        let specs = open(b, reqs);
        counted += allocs() - before;
        drop(specs);
    }
    // Per batch: the dedup index, the group list and one `Vec` per SSD
    // group, the `BatchCore` `Arc` and the `GroupSpec` list (six), plus
    // the duplicate pairs' `Vec` as it grows (about three).
    assert_eq!(
        counted, 9_040,
        "plan_batch + open_batch over {BATCHES} batches"
    );
}
