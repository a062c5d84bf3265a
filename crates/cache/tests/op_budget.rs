//! The cached data path's exact operation budget per warm batch, counted on
//! a real [`CamContext`] (one worker, two SSDs striped one block wide)
//! driving 64-access Zipf(1.1) batches through a [`CachedDevice`] whose
//! footprint is 8× its cache, quiesced between batches as `cam-perf`'s
//! `cache_zipf` runs them. Every 16th counted batch repeats the one before
//! it, so the count covers batches where every access hits too:
//!
//! * 0 heap allocations, counted by a process-wide counting global
//!   allocator, so every thread counts: the client, the worker and the SSD
//!   service thread. That is why this file is its own test binary with
//!   `harness = false`: libtest's own threads allocate too.
//! * 2 holds of the cache's state lock per batch with a miss (classify,
//!   publish), 1 for an all-hit batch (`BlockCache::locks_taken`);
//! * 0 condvar wakes, since no `SlotWait` ever blocks here
//!   (`BlockCache::wakes_sent`);
//! * one DMA-region session for the batch's hits and one for its fills
//!   (plus one before the doorbell in a batch where a fill reclaimed the
//!   slot of one of its hits), beside the device's one per burst, which
//!   the media stores' lock count gives (`PinnedRegion::locks_taken`,
//!   `SparseMemStore::locks_taken`).
//!
//! The lock and wake counters exist only in debug builds, so a release
//! run checks the allocations alone. The expected counts come from a pure
//! `CacheCore` replay of the same batches, and the device's decisions must
//! equal that replay's.

use std::alloc::{GlobalAlloc, Layout, System};
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::Arc;

use cam_blockdev::{BlockGeometry, BlockStore, Lba, SparseMemStore};
use cam_cache::{CacheConfig, CachedDevice, ReadaheadConfig};
use cam_core::{CamConfig, CamContext};
use cam_iostacks::{Rig, RigConfig};
use cam_protocol::cache_core::replay_read_workload;
#[cfg(debug_assertions)]
use cam_protocol::cache_core::{CacheCore, ReadBatchPlan};

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

const NAME: &str = "a_warm_cached_batch_costs_a_pinned_number_of_allocations_locks_and_wakes";
const N_SSDS: usize = 2;
const BLOCK: usize = 4096;
const SLOTS: usize = 256;
const FOOTPRINT: u64 = 8 * SLOTS as u64;
const BATCH: usize = 64;
/// Warm-up batches, then counted batches.
const WARM: usize = 1_000;
const BATCHES: usize = 4_000;
/// Every `REPEAT`th counted batch repeats the one before it.
const REPEAT: usize = 16;

fn fill_of(lba: u64) -> u8 {
    (lba % 251) as u8 + 1
}

/// `WARM + BATCHES` batches of a seeded Zipf(1.1) stream over the
/// footprint, scattered so hot blocks spread over the cache's shards; every
/// `REPEAT`th counted batch is a copy of the one before it.
fn zipf_batches() -> Vec<Vec<u64>> {
    let mut cdf: Vec<f64> = (1..=FOOTPRINT)
        .map(|r| 1.0 / (r as f64).powf(1.1))
        .collect();
    let total: f64 = cdf.iter().sum();
    let mut acc = 0.0;
    for p in &mut cdf {
        acc += *p / total;
        *p = acc;
    }
    let mut x = 0x5EED_u64;
    let mut unit = move || {
        x = x
            .wrapping_mul(6_364_136_223_846_793_005)
            .wrapping_add(1_442_695_040_888_963_407);
        (x >> 11) as f64 / (1u64 << 53) as f64
    };
    let mut batches: Vec<Vec<u64>> = Vec::with_capacity(WARM + BATCHES);
    for k in 0..WARM + BATCHES {
        let batch = if k >= WARM && (k - WARM).is_multiple_of(REPEAT) {
            batches[k - 1].clone()
        } else {
            (0..BATCH)
                .map(|_| {
                    let u = unit();
                    let rank = cdf.partition_point(|&c| c < u).min(cdf.len() - 1) as u64;
                    (rank * 0x9E37) % FOOTPRINT
                })
                .collect()
        };
        batches.push(batch);
    }
    batches
}

/// What the counted batches should cost, from a pure replay of every batch.
#[cfg(debug_assertions)]
#[derive(Debug, Default, PartialEq)]
struct Expected {
    /// Holds of the cache's state lock.
    state_locks: u64,
    /// The cached path's own DMA-region sessions.
    region_sessions: u64,
}

/// [`Expected`] and how many counted batches hit on every access.
#[cfg(debug_assertions)]
fn expected(cfg: CacheConfig, batches: &[Vec<u64>]) -> (Expected, usize) {
    let mut core = CacheCore::new(cfg);
    let mut out = Expected::default();
    let mut all_hit = 0;
    for (k, lbas) in batches.iter().enumerate() {
        let mut plan = ReadBatchPlan::default();
        assert_eq!(core.plan_read_batch(lbas, 0, &mut plan), lbas.len());
        assert!(plan.direct.is_empty(), "no shard is ever exhausted here");
        let fills = plan.fills.len() as u64;
        let reclaimed = plan
            .hits
            .iter()
            .filter(|&&(_, slot)| plan.fills.iter().any(|&(_, f, _)| f == slot))
            .count();
        core.publish_read_batch(&plan);
        if k < WARM {
            continue;
        }
        let has = |n: u64| u64::from(n > 0);
        all_hit += usize::from(fills == 0);
        out.state_locks += 1 + has(fills);
        out.region_sessions +=
            has(plan.hits.len() as u64 - reclaimed as u64) + has(reclaimed as u64) + has(fills);
    }
    (out, all_hit)
}

fn a_warm_cached_batch_costs_a_pinned_number_of_allocations_locks_and_wakes() {
    let rig_cfg = RigConfig {
        n_ssds: N_SSDS,
        blocks_per_ssd: FOOTPRINT / N_SSDS as u64,
        block_size: BLOCK as u32,
        stripe_blocks: 1,
        ..RigConfig::default()
    };
    let stores: Vec<Arc<SparseMemStore>> = (0..N_SSDS)
        .map(|_| {
            Arc::new(SparseMemStore::new(BlockGeometry::new(
                rig_cfg.block_size,
                rig_cfg.blocks_per_ssd,
            )))
        })
        .collect();
    let rig = Rig::with_stores(
        rig_cfg,
        stores
            .iter()
            .map(|s| Arc::clone(s) as Arc<dyn BlockStore>)
            .collect(),
    );
    let raid = rig.raid_view();
    for lba in 0..FOOTPRINT {
        raid.write(Lba(lba), &[fill_of(lba); BLOCK]).unwrap();
    }
    let cam = CamContext::attach(
        &rig,
        CamConfig {
            n_channels: 1,
            workers: Some(1),
            pipelined: true,
            ..CamConfig::default()
        },
    );
    let cfg = CacheConfig {
        slots: SLOTS,
        readahead: ReadaheadConfig {
            enable: false,
            ..ReadaheadConfig::default()
        },
        ..CacheConfig::default()
    };
    let dev = CachedDevice::attach(&rig, &cam, cfg).expect("cache fits GPU memory");
    let buf = cam.alloc(BATCH * BLOCK).expect("destination buffer");
    let batches = zipf_batches();
    #[cfg(debug_assertions)]
    let (want, all_hit) = expected(cfg, &batches);
    // Each repeat finds every block of the batch before it resident.
    #[cfg(debug_assertions)]
    assert!(all_hit >= BATCHES / REPEAT, "{all_hit} all-hit batches");

    let run = |batches: &[Vec<u64>]| {
        for lbas in batches {
            dev.prefetch(lbas, buf.addr())
                .and_then(|()| dev.prefetch_synchronize())
                .expect("batch retires cleanly");
        }
    };
    run(&batches[..WARM]);
    let mut block = vec![0u8; BLOCK];
    for (i, &lba) in batches[WARM - 1].iter().enumerate() {
        buf.read(i * BLOCK, &mut block);
        assert!(block.iter().all(|&b| b == fill_of(lba)), "access {i}");
    }

    #[cfg(debug_assertions)]
    let region = rig.gpu().memory().region();
    #[cfg(debug_assertions)]
    let media_locks = || stores.iter().map(|s| s.locks_taken()).sum::<u64>();
    #[cfg(debug_assertions)]
    let before = (
        dev.cache().locks_taken(),
        dev.cache().wakes_sent(),
        region.locks_taken(),
        media_locks(),
    );
    let allocs = ALLOCS.load(Ordering::Relaxed);
    run(&batches[WARM..]);
    let allocs = ALLOCS.load(Ordering::Relaxed) - allocs;

    // The device's lists (plan, tickets, hits, copies, submission) are
    // reused from batch to batch, and the worker and the SSD thread
    // allocate nothing per batch either (`crates/core/tests/op_budget.rs`).
    // The parent of this pin made about 15 per batch.
    assert_eq!(allocs, 0, "heap allocations over {BATCHES} warm batches");
    #[cfg(debug_assertions)]
    {
        let got = Expected {
            state_locks: dev.cache().locks_taken() - before.0,
            // A device burst takes one media-store lock and one region
            // lock; what is left is the cached path's.
            region_sessions: (region.locks_taken() - before.2) - (media_locks() - before.3),
        };
        // Per-fill publication took a state lock per fill (and another to
        // drop its pin) and a region session per fill copy.
        assert_eq!(got, want, "over {BATCHES} warm batches");
        assert_eq!(
            dev.cache().wakes_sent() - before.1,
            0,
            "condvar wakes with no waiter blocked"
        );
    }
    assert_eq!(
        dev.decision_counters(),
        replay_read_workload(cfg, rig.array_blocks(), false, &batches)
    );
}

fn main() {
    // `--list` is how test runners enumerate a binary's tests.
    if std::env::args().any(|a| a == "--list") {
        println!("{NAME}: test");
        return;
    }
    a_warm_cached_batch_costs_a_pinned_number_of_allocations_locks_and_wakes();
    println!("test {NAME} ... ok");
}
