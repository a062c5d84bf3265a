//! End-to-end tests of the cached data path: byte-exactness against the
//! uncached device, NVMe traffic reduction, write absorption with lazy
//! durability, in-batch LBA dedup (control-plane side), the empty-batch
//! no-op contracts, and the read path's order: misses go to the SSDs
//! before hits are copied, and no fill lands in a slot whose hit is still
//! to be copied.

use std::sync::Arc;
use std::thread;
use std::time::Duration;

use cam_blockdev::{BlockStore, Lba};
use cam_cache::{CacheConfig, CachedBackend, CachedDevice, ReadaheadConfig};
use cam_core::{CamBackend, CamConfig, CamContext, StorageBackend};
use cam_iostacks::{Rig, RigConfig};
use cam_protocol::cache_core::{
    replay_read_workload, CacheCore, CoreLookup, Intent, ReadBatchPlan,
};
use cam_workloads::gemm::{load_matrix, out_of_core_gemm, OocGemmConfig};
use cam_workloads::sort::{out_of_core_sort, read_elems, OocSortConfig};

const BS: usize = 4096;

fn small_rig(n_ssds: usize) -> Rig {
    Rig::new(RigConfig {
        n_ssds,
        blocks_per_ssd: 4096,
        ..RigConfig::default()
    })
}

/// Attach with the three channels the cached path uses (read, write,
/// readahead).
fn cached_setup(rig: &Rig, cache: CacheConfig) -> (CamContext, Arc<CachedDevice>) {
    let cam = CamContext::attach(
        rig,
        CamConfig {
            n_channels: 3,
            ..CamConfig::default()
        },
    );
    let dev = Arc::new(CachedDevice::attach(rig, &cam, cache).unwrap());
    (cam, dev)
}

fn load_pattern(rig: &Rig, blocks: u64) {
    let raid = rig.raid_view();
    for b in 0..blocks {
        let fill = (b % 251) as u8 + 1;
        raid.write(Lba(b), &vec![fill; BS]).unwrap();
    }
}

fn no_readahead() -> CacheConfig {
    CacheConfig {
        readahead: ReadaheadConfig {
            enable: false,
            ..ReadaheadConfig::default()
        },
        ..CacheConfig::default()
    }
}

#[test]
fn repeated_reads_hit_without_nvme_traffic() {
    let rig = small_rig(2);
    load_pattern(&rig, 64);
    let (cam, dev) = cached_setup(&rig, no_readahead());
    let dst = cam.alloc(32 * BS).unwrap();
    let lbas: Vec<u64> = (0..32).collect();

    for round in 0..4 {
        dev.prefetch(&lbas, dst.addr()).unwrap();
        dev.prefetch_synchronize().unwrap();
        let data = dst.to_vec();
        for (i, &lba) in lbas.iter().enumerate() {
            let fill = (lba % 251) as u8 + 1;
            assert!(
                data[i * BS..(i + 1) * BS].iter().all(|&b| b == fill),
                "round {round}, lba {lba}"
            );
        }
    }

    let snap = cam.registry().snapshot();
    // Round 1 misses 32 blocks; rounds 2-4 are pure hits.
    assert_eq!(snap.counter("cam_cache_misses_total"), 32);
    assert_eq!(snap.counter("cam_cache_hits_total"), 3 * 32);
    assert_eq!(snap.sum_counters("cam_ssd_submitted_total"), 32);
    assert_eq!(dev.cache().metrics().hit_rate(), Some(0.75));
}

#[test]
fn duplicate_lbas_in_one_cached_batch_coalesce() {
    let rig = small_rig(2);
    load_pattern(&rig, 16);
    let (cam, dev) = cached_setup(&rig, no_readahead());
    let dst = cam.alloc(4 * BS).unwrap();
    // The same block requested four times in one batch: one fill, three
    // coalesced waiters, every destination populated.
    dev.prefetch(&[5, 5, 5, 5], dst.addr()).unwrap();
    dev.prefetch_synchronize().unwrap();
    let fill = 5u8 + 1;
    assert!(dst.to_vec().iter().all(|&b| b == fill));

    let snap = cam.registry().snapshot();
    assert_eq!(snap.counter("cam_cache_misses_total"), 1);
    assert_eq!(snap.counter("cam_cache_coalesced_total"), 3);
    assert_eq!(snap.sum_counters("cam_ssd_submitted_total"), 1);
}

#[test]
fn empty_batches_are_noops_on_both_devices() {
    // S1 regression: an empty prefetch/write_back is Ok(()) and publishes
    // nothing — the subsequent synchronize must not hang or error.
    let rig = small_rig(1);
    let cam = CamContext::attach(&rig, CamConfig::default());
    let dev = cam.device();
    dev.prefetch(&[], 0xdead_beef).unwrap();
    dev.prefetch_synchronize().unwrap();
    dev.write_back(&[], 0xdead_beef).unwrap();
    dev.write_back_synchronize().unwrap();
    assert_eq!(cam.stats().batches, 0);

    let rig = small_rig(1);
    let (cam, cached) = cached_setup(&rig, no_readahead());
    cached.prefetch(&[], 0xdead_beef).unwrap();
    cached.prefetch_synchronize().unwrap();
    cached.write_back(&[], 0xdead_beef).unwrap();
    cached.write_back_synchronize().unwrap();
    assert_eq!(cam.stats().batches, 0);
    assert_eq!(
        cam.registry()
            .snapshot()
            .sum_counters("cam_ssd_submitted_total"),
        0
    );
}

#[test]
fn uncached_duplicate_lbas_dedup_to_one_submission_per_unique() {
    // S2: the control plane drops duplicate LBAs from a read batch before
    // the stripe split and replicates the data to every requested
    // destination at retire.
    let rig = small_rig(2);
    load_pattern(&rig, 8);
    let cam = CamContext::attach(&rig, CamConfig::default());
    let dev = cam.device();
    let dst = cam.alloc(6 * BS).unwrap();
    // 6 requests, 3 unique LBAs.
    let lbas = [2u64, 3, 2, 4, 3, 2];
    dev.prefetch(&lbas, dst.addr()).unwrap();
    dev.prefetch_synchronize().unwrap();

    let data = dst.to_vec();
    for (i, &lba) in lbas.iter().enumerate() {
        let fill = (lba % 251) as u8 + 1;
        assert!(
            data[i * BS..(i + 1) * BS].iter().all(|&b| b == fill),
            "request {i} (lba {lba}) did not receive data"
        );
    }
    let snap = cam.registry().snapshot();
    assert_eq!(snap.sum_counters("cam_ssd_submitted_total"), 3);
    assert_eq!(snap.counter("cam_dedup_dropped_total"), 3);
    // The batch still accounts for all six requests.
    assert_eq!(cam.stats().requests, 6);
}

#[test]
fn write_absorption_is_lazy_and_flush_makes_it_durable() {
    let rig = small_rig(2);
    load_pattern(&rig, 8);
    let (cam, dev) = cached_setup(&rig, no_readahead());
    let src = cam.alloc(2 * BS).unwrap();
    src.write(0, &vec![0xAA; 2 * BS]);

    dev.write_back(&[3, 4], src.addr()).unwrap();
    dev.write_back_synchronize().unwrap();
    // Absorbed, not written: the media still holds the old pattern...
    let raid = rig.raid_view();
    let mut blk = vec![0u8; BS];
    raid.read(Lba(3), &mut blk).unwrap();
    assert!(blk.iter().all(|&b| b == 4)); // (3 % 251) + 1
    assert_eq!(
        cam.registry()
            .snapshot()
            .sum_counters("cam_ssd_submitted_total"),
        0
    );
    assert_eq!(dev.cache().dirty_blocks(), 2);

    // ...but a cached read observes the new data immediately.
    let dst = cam.alloc(2 * BS).unwrap();
    dev.prefetch(&[3, 4], dst.addr()).unwrap();
    dev.prefetch_synchronize().unwrap();
    assert!(dst.to_vec().iter().all(|&b| b == 0xAA));

    // Flush: now the array is updated and the slots are clean.
    dev.flush().unwrap();
    assert_eq!(dev.cache().dirty_blocks(), 0);
    raid.read(Lba(3), &mut blk).unwrap();
    assert!(blk.iter().all(|&b| b == 0xAA));
    raid.read(Lba(4), &mut blk).unwrap();
    assert!(blk.iter().all(|&b| b == 0xAA));
    let snap = cam.registry().snapshot();
    assert_eq!(snap.counter("cam_cache_write_absorbed_total"), 2);
    assert_eq!(snap.counter("cam_cache_flushed_blocks_total"), 2);
}

#[test]
fn readahead_speculates_on_sequential_streams_and_hits() {
    let rig = small_rig(2);
    load_pattern(&rig, 512);
    let (cam, dev) = cached_setup(&rig, CacheConfig::default());
    let dst = cam.alloc(16 * BS).unwrap();
    // A strictly sequential scan: batches of 16 blocks, back to back.
    for batch in 0..16u64 {
        let lbas: Vec<u64> = (batch * 16..(batch + 1) * 16).collect();
        dev.prefetch(&lbas, dst.addr()).unwrap();
        dev.prefetch_synchronize().unwrap();
        let fill = ((batch * 16) % 251) as u8 + 1;
        assert_eq!(dst.to_vec()[0], fill, "batch {batch} data");
    }
    let snap = cam.registry().snapshot();
    assert!(
        snap.counter("cam_cache_readahead_issued_total") > 0,
        "sequential stream triggered speculation"
    );
    assert!(
        snap.counter("cam_cache_readahead_hits_total") > 0,
        "speculated blocks served later demand accesses"
    );
}

#[test]
fn sort_is_byte_exact_with_cache_and_media_matches_after_flush() {
    let sort_cfg = OocSortConfig {
        total_elems: 16 * 1024,
        run_elems: 4 * 1024,
        block_size: BS as u32,
        data_lba: 0,
        scratch_lba: 16,
    };

    // Reference: the uncached CAM backend.
    let rig_a = small_rig(2);
    let cam_a = CamContext::attach(&rig_a, CamConfig::default());
    let be_a = CamBackend::new(cam_a.device(), 2048);
    seed_sort_input(&rig_a, &sort_cfg);
    let base_a = out_of_core_sort(&be_a, rig_a.gpu(), &sort_cfg).unwrap();
    let sorted_a = read_elems(&be_a, rig_a.gpu(), BS as u32, base_a, sort_cfg.total_elems).unwrap();

    // Same input through the cached backend on a second rig.
    let rig_b = small_rig(2);
    let (_cam_b, dev_b) = cached_setup(&rig_b, CacheConfig::with_slots(64));
    let be_b = CachedBackend::new(Arc::clone(&dev_b), 2048);
    seed_sort_input(&rig_b, &sort_cfg);
    let base_b = out_of_core_sort(&be_b, rig_b.gpu(), &sort_cfg).unwrap();
    assert_eq!(base_a, base_b, "same merge-pass parity");
    let sorted_b = read_elems(&be_b, rig_b.gpu(), BS as u32, base_b, sort_cfg.total_elems).unwrap();

    assert_eq!(sorted_a, sorted_b, "cached sort is byte-exact");
    assert!(sorted_b.windows(2).all(|w| w[0] <= w[1]), "actually sorted");

    // After a flush the media of both rigs agree block for block.
    dev_b.flush().unwrap();
    let (raid_a, raid_b) = (rig_a.raid_view(), rig_b.raid_view());
    let mut blk_a = vec![0u8; BS];
    let mut blk_b = vec![0u8; BS];
    for lba in 0..32u64 {
        raid_a.read(Lba(lba), &mut blk_a).unwrap();
        raid_b.read(Lba(lba), &mut blk_b).unwrap();
        assert_eq!(blk_a, blk_b, "media diverged at lba {lba}");
    }
}

fn seed_sort_input(rig: &Rig, cfg: &OocSortConfig) {
    // Deterministic pseudo-random u32 keys, packed into blocks.
    let raid = rig.raid_view();
    let per_block = BS / 4;
    let mut x = 0x1234_5678u32;
    for b in 0..(cfg.total_elems as usize / per_block) {
        let mut bytes = Vec::with_capacity(BS);
        for _ in 0..per_block {
            x = x.wrapping_mul(1_664_525).wrapping_add(1_013_904_223);
            bytes.extend_from_slice(&x.to_le_bytes());
        }
        raid.write(Lba(cfg.data_lba + b as u64), &bytes).unwrap();
    }
}

#[test]
fn gemm_is_byte_exact_with_cache() {
    let gemm_cfg = OocGemmConfig {
        n: 64,
        tile: 32,
        block_size: BS as u32,
        base_lba: 0,
    };
    let n = gemm_cfg.n as usize;
    let a: Vec<f32> = (0..n * n).map(|i| ((i % 17) as f32) - 8.0).collect();
    let b: Vec<f32> = (0..n * n).map(|i| ((i % 13) as f32) * 0.5).collect();

    let rig_u = small_rig(2);
    let cam_u = CamContext::attach(&rig_u, CamConfig::default());
    let be_u = CamBackend::new(cam_u.device(), 2048);
    load_matrix(&be_u, rig_u.gpu(), &gemm_cfg, 0, &a).unwrap();
    load_matrix(&be_u, rig_u.gpu(), &gemm_cfg, 1, &b).unwrap();
    let c_uncached = out_of_core_gemm(&be_u, rig_u.gpu(), &gemm_cfg).unwrap();

    let rig_c = small_rig(2);
    let (cam_c, dev_c) = cached_setup(&rig_c, CacheConfig::default());
    let be_c = CachedBackend::new(Arc::clone(&dev_c), 2048);
    load_matrix(&be_c, rig_c.gpu(), &gemm_cfg, 0, &a).unwrap();
    load_matrix(&be_c, rig_c.gpu(), &gemm_cfg, 1, &b).unwrap();
    let c_cached = out_of_core_gemm(&be_c, rig_c.gpu(), &gemm_cfg).unwrap();

    // Byte-exact: identical f32 bit patterns, not approximate equality.
    assert_eq!(c_uncached.len(), c_cached.len());
    for (i, (x, y)) in c_uncached.iter().zip(&c_cached).enumerate() {
        assert_eq!(x.to_bits(), y.to_bits(), "C[{i}] diverged");
    }
    // The repeated operand-tile reads (each A tile read tpd times) must
    // have produced cache hits.
    let snap = cam_c.registry().snapshot();
    assert!(snap.counter("cam_cache_hits_total") > 0);
}

#[test]
fn cached_backend_reports_name_and_block_size() {
    let rig = small_rig(1);
    let (_cam, dev) = cached_setup(&rig, no_readahead());
    let be = CachedBackend::new(dev, 64);
    assert_eq!(be.name(), "CAM+cache");
    assert_eq!(be.device().block_size(), BS as u64);
}

/// The pattern byte `load_pattern` gives `lba`.
fn fill_of(lba: u64) -> u8 {
    (lba % 251) as u8 + 1
}

fn one_shard(slots: usize) -> CacheConfig {
    CacheConfig {
        slots,
        shards: 1,
        ..no_readahead()
    }
}

/// How long a test's "kernel" works between `prefetch` and
/// `prefetch_synchronize`: ample time for the batch's DMA to land.
const OVERLAP: Duration = Duration::from_millis(5);

#[test]
fn a_hit_whose_slot_is_reclaimed_later_in_its_batch_keeps_its_bytes() {
    // One shard of two slots holding `a` and `b`. The batch hits `b`, then
    // `a`, then misses `c`: the CLOCK sweep clears both referenced bits
    // and gives `a`'s slot to `c`, whose DMA lands there while the caller
    // works. So `a` must be copied out before the doorbell.
    let rig = small_rig(2);
    load_pattern(&rig, 64);
    let (cam, dev) = cached_setup(&rig, one_shard(2));
    let warm = cam.alloc(2 * BS).unwrap();
    let dst = cam.alloc(3 * BS).unwrap();
    for round in 0..4u64 {
        let (a, b, c) = (3 * round + 1, 3 * round + 2, 3 * round + 3);
        dev.prefetch(&[a, b], warm.addr()).unwrap();
        dev.prefetch_synchronize().unwrap();
        let before = dev.decision_counters();

        dev.prefetch(&[b, a, c], dst.addr()).unwrap();
        thread::sleep(OVERLAP);
        dev.prefetch_synchronize().unwrap();

        let after = dev.decision_counters();
        assert_eq!(after.hits - before.hits, 2, "round {round}");
        assert_eq!(after.misses - before.misses, 1, "round {round}");
        assert!(
            !dev.cache().contains(a) && dev.cache().contains(b),
            "round {round}: the miss took the slot of `a`"
        );
        assert_blocks(&dst.to_vec(), &[b, a, c], &format!("round {round}"));
    }
}

#[test]
fn the_misses_are_submitted_before_any_hit_is_copied() {
    let rig = small_rig(2);
    load_pattern(&rig, 16);
    let (cam, dev) = cached_setup(&rig, no_readahead());
    let dst = cam.alloc(3 * BS).unwrap();
    let (dst_hit, dst_8, dst_9) = (
        dst.addr(),
        dst.addr() + BS as u64,
        dst.addr() + 2 * BS as u64,
    );
    let warm = cam.alloc(BS).unwrap();
    dev.prefetch(&[7], warm.addr()).unwrap();
    dev.prefetch_synchronize().unwrap();
    let submitted = || {
        cam.registry()
            .snapshot()
            .sum_counters("cam_ssd_submitted_total")
    };
    assert_eq!(submitted(), 1);

    // `prefetch` rings the doorbell and returns; the hit is copied by
    // `prefetch_synchronize`, while the SSDs work.
    dev.prefetch_pairs(&[(7, dst_hit), (8, dst_8)]).unwrap();
    assert!(
        dst.to_vec()[..BS].iter().all(|&x| x == 0),
        "the hit was copied before the doorbell"
    );
    dev.prefetch_synchronize().unwrap();
    let data = dst.to_vec();
    assert!(data[..BS].iter().all(|&x| x == fill_of(7)));
    assert!(data[BS..2 * BS].iter().all(|&x| x == fill_of(8)));
    assert_eq!(submitted(), 2);

    // A hit whose destination lies outside every DMA region cannot be
    // copied. The batch reports it, but its misses are on the SSDs already
    // and still delivered, and nothing stays outstanding.
    let nowhere = u64::MAX - BS as u64;
    dev.prefetch_pairs(&[(7, nowhere), (9, dst_9)]).unwrap();
    let err = dev.prefetch_synchronize().unwrap_err();
    assert!(matches!(err, cam_core::CamError::Io { .. }), "{err:?}");
    assert_eq!(submitted(), 3, "the miss was submitted");
    assert!(dst.to_vec()[2 * BS..].iter().all(|&x| x == fill_of(9)));
    dev.prefetch(&[8, 9], dst_8).unwrap();
    dev.prefetch_synchronize().unwrap();
    assert_eq!(submitted(), 3, "8 and 9 were published to the cache");
}

/// Batches of a seeded Zipf(1.1) stream over `rows` blocks, scattered so
/// hot rows spread over the cache.
fn zipf_batches(seed: u64, rows: u64, batches: usize, per_batch: usize) -> Vec<Vec<u64>> {
    let mut cdf: Vec<f64> = (1..=rows).map(|r| 1.0 / (r as f64).powf(1.1)).collect();
    let total: f64 = cdf.iter().sum();
    let mut acc = 0.0;
    for p in &mut cdf {
        acc += *p / total;
        *p = acc;
    }
    let mut x = seed;
    let mut next = move || {
        x = x
            .wrapping_mul(6_364_136_223_846_793_005)
            .wrapping_add(1_442_695_040_888_963_407);
        (x >> 11) as f64 / (1u64 << 53) as f64
    };
    (0..batches)
        .map(|_| {
            (0..per_batch)
                .map(|_| {
                    let u = next();
                    let rank = cdf.partition_point(|&c| c < u).min(rows as usize - 1) as u64;
                    (rank * 0x9E37) % rows
                })
                .collect()
        })
        .collect()
}

/// Hits that lost their slot before being copied, over a whole stream:
/// the core's own decisions, walked the way the device walks them
/// (quiesced batches, as `replay_read_workload` replays them).
#[derive(Default)]
struct Reclaims {
    /// To a later miss of the hit's own batch.
    by_miss: usize,
    /// To the speculative batch planned right after the hit's batch.
    by_readahead: usize,
}

fn reclaims(cfg: CacheConfig, array_blocks: u64, batches: &[Vec<u64>]) -> Reclaims {
    let mut core = CacheCore::new(cfg);
    let mut out = Reclaims::default();
    for lbas in batches {
        let mut plan = ReadBatchPlan::default();
        let mut hit_slots = Vec::new();
        for &lba in lbas {
            match core.lookup(lba, Intent::DemandRead) {
                CoreLookup::Hit { slot } => {
                    core.unpin(slot);
                    hit_slots.push(slot);
                }
                CoreLookup::Miss { slot, .. } => {
                    out.by_miss += hit_slots.iter().filter(|&&s| s == slot).count();
                    hit_slots.retain(|&s| s != slot);
                    plan.fills.push((slot, lba));
                }
                CoreLookup::InFlight => plan.waits.push(lba),
                CoreLookup::Busy => {}
                CoreLookup::NeedFlush => unreachable!("a read-only stream has no dirty slot"),
            }
        }
        let ra = core.plan_readahead(lbas[0], array_blocks);
        if let Some(p) = &ra {
            out.by_readahead += hit_slots
                .iter()
                .filter(|&&s| p.fills.iter().any(|&(f, _)| f == s))
                .count();
            core.commit_readahead(p);
        }
        core.publish_read_batch(&plan);
        if let Some(p) = &ra {
            for &(slot, _) in &p.fills {
                core.complete_fill_speculative(slot);
            }
            core.readahead_retired();
        }
    }
    out
}

/// Asserts that block `i` of `data` holds the pattern of `lbas[i]`.
fn assert_blocks(data: &[u8], lbas: &[u64], what: &str) {
    for (i, &lba) in lbas.iter().enumerate() {
        assert!(
            data[i * BS..(i + 1) * BS]
                .iter()
                .all(|&x| x == fill_of(lba)),
            "{what}, access {i}: lba {lba} does not hold its block"
        );
    }
}

/// Runs `batches` through a cached device, quiesced between batches and
/// with the caller working between each `prefetch` and its synchronize;
/// checks every destination and that the decisions equal the replay's.
fn run_stream(rig: &Rig, cfg: CacheConfig, batches: &[Vec<u64>]) {
    let (cam, dev) = cached_setup(rig, cfg);
    let width = batches.iter().map(Vec::len).max().unwrap_or(1);
    let dst = cam.alloc(width * BS).unwrap();
    for (k, lbas) in batches.iter().enumerate() {
        dev.prefetch(lbas, dst.addr()).unwrap();
        thread::sleep(OVERLAP / 5);
        dev.prefetch_synchronize().unwrap();
        dev.quiesce().unwrap();
        assert_blocks(&dst.to_vec(), lbas, &format!("batch {k}"));
    }
    assert_eq!(
        dev.decision_counters(),
        replay_read_workload(cfg, rig.array_blocks(), cfg.readahead.enable, batches)
    );
}

#[test]
fn a_zipf_stream_through_the_device_decides_as_the_replay_and_keeps_its_bytes() {
    let rows = 512;
    let rig = small_rig(2);
    load_pattern(&rig, rows);
    let cfg = CacheConfig {
        slots: 32,
        shards: 2,
        ..no_readahead()
    };
    let batches = zipf_batches(29, rows, 200, 32);
    assert!(
        reclaims(cfg, rig.array_blocks(), &batches).by_miss > 0,
        "a miss reclaims the slot of an earlier hit of its batch"
    );
    run_stream(&rig, cfg, &batches);
}

#[test]
fn readahead_never_lands_in_the_slot_of_a_hit_still_to_copy() {
    // Eight slots, a sequential stream of four-block batches: once the
    // stride is confirmed every demand access hits a speculated block, and
    // the next eight-block window can only be reserved by reclaiming them.
    let rig = small_rig(2);
    load_pattern(&rig, 256);
    let cfg = CacheConfig {
        slots: 8,
        shards: 1,
        readahead: ReadaheadConfig {
            enable: true,
            min_window: 8,
            initial_window: 8,
            max_window: 8,
            budget_blocks: 8,
        },
        ..CacheConfig::default()
    };
    let batches: Vec<Vec<u64>> = (0..40u64).map(|k| (4 * k..4 * k + 4).collect()).collect();
    assert!(
        reclaims(cfg, rig.array_blocks(), &batches).by_readahead > 0,
        "speculation reclaims the slot of a hit of the batch before it"
    );
    run_stream(&rig, cfg, &batches);
}
