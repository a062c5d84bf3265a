//! The data path's lock budget: a device burst takes the media store's lock
//! once and the DMA region's lock once, however many commands it holds. A
//! burst of 32 one-block reads takes exactly one of each, and so does a
//! burst that mixes reads, writes and a flush. The engine's retire holds
//! the region to one lock for all of a batch's duplicates
//! (`crates/core/tests/lock_budget.rs`).
//!
//! The counters behind these assertions (`SparseMemStore::locks_taken`,
//! `PinnedRegion::locks_taken`) exist only in debug builds, so this file
//! compiles to nothing under `--release`; run it without that flag.
#![cfg(debug_assertions)]

use std::sync::Arc;

use cam_blockdev::{BlockGeometry, BlockStore, Lba, SparseMemStore};
use cam_nvme::spec::{Sqe, Status};
use cam_nvme::{DeviceConfig, DmaSpace, NvmeDevice, PinnedRegion, QueuePair, MAX_BURST};

const DMA_BASE: u64 = 0x1_0000;
const PAGE: u64 = 4096;

/// One device over a 64-block store of 4 KiB blocks, every block preloaded
/// with its own number, and the store and region it works on.
fn rig() -> (
    NvmeDevice,
    Arc<QueuePair>,
    Arc<SparseMemStore>,
    Arc<PinnedRegion>,
) {
    let store = Arc::new(SparseMemStore::new(BlockGeometry::new(PAGE as u32, 64)));
    for lba in 0..64u64 {
        store.write(Lba(lba), &[lba as u8; PAGE as usize]).unwrap();
    }
    let region = Arc::new(PinnedRegion::new(DMA_BASE, 1 << 20));
    let dev = NvmeDevice::start(
        DeviceConfig::default(),
        Arc::clone(&store) as Arc<dyn BlockStore>,
        Arc::clone(&region) as Arc<dyn DmaSpace>,
    );
    let qp = dev.add_queue_pair(256);
    (dev, qp, store, region)
}

/// Rings one doorbell for `sqes` — one burst — and reaps every CQE.
fn run_burst(qp: &QueuePair, sqes: &[Sqe]) {
    assert!(sqes.len() <= MAX_BURST);
    for &sqe in sqes {
        qp.push_sqe(sqe).unwrap();
    }
    qp.ring_doorbell();
    let mut reaped = 0;
    while reaped < sqes.len() {
        match qp.poll_cqe() {
            Some(cqe) => {
                assert_eq!(cqe.status, Status::Success, "cid {}", cqe.cid);
                reaped += 1;
            }
            None => std::thread::yield_now(),
        }
    }
}

/// Locks `(store, region)` taken by `f`.
fn locks(store: &SparseMemStore, region: &PinnedRegion, f: impl FnOnce()) -> (u64, u64) {
    let before = (store.locks_taken(), region.locks_taken());
    f();
    (
        store.locks_taken() - before.0,
        region.locks_taken() - before.1,
    )
}

#[test]
fn a_32_read_burst_takes_one_store_lock_and_one_region_lock() {
    let (_dev, qp, store, region) = rig();
    let sqes: Vec<Sqe> = (0..MAX_BURST as u16)
        .map(|i| Sqe::read(i, u64::from(i), 1, DMA_BASE + u64::from(i) * PAGE))
        .collect();
    assert_eq!(locks(&store, &region, || run_burst(&qp, &sqes)), (1, 1));
    let mut out = [0u8; PAGE as usize];
    for i in 0..MAX_BURST as u64 {
        region.dma_read(DMA_BASE + i * PAGE, &mut out).unwrap();
        assert!(out.iter().all(|&b| b == i as u8), "page {i}");
    }
}

#[test]
fn a_mixed_burst_takes_one_store_lock_and_one_region_lock() {
    let (_dev, qp, store, region) = rig();
    // Pages 40..48 hold a host pattern to write; 16 one-block reads, 8
    // one-block writes, a 4-block read and a flush share one doorbell.
    for k in 0..8u64 {
        region
            .dma_write(DMA_BASE + (40 + k) * PAGE, &[0xA0 + k as u8; PAGE as usize])
            .unwrap();
    }
    let mut sqes: Vec<Sqe> = (0..16u16)
        .map(|i| Sqe::read(i, u64::from(i), 1, DMA_BASE + u64::from(i) * PAGE))
        .collect();
    sqes.extend((0..8u16).map(|k| {
        Sqe::write(
            16 + k,
            32 + u64::from(k),
            1,
            DMA_BASE + (40 + u64::from(k)) * PAGE,
        )
    }));
    sqes.push(Sqe::read(24, 20, 4, DMA_BASE + 20 * PAGE));
    sqes.push(Sqe::flush(25));
    assert_eq!(locks(&store, &region, || run_burst(&qp, &sqes)), (1, 1));
    let mut out = [0u8; PAGE as usize];
    for k in 0..8u64 {
        store.read(Lba(32 + k), &mut out).unwrap();
        assert!(out.iter().all(|&b| b == 0xA0 + k as u8), "block {}", 32 + k);
    }
    for k in 0..4u64 {
        region
            .dma_read(DMA_BASE + (20 + k) * PAGE, &mut out)
            .unwrap();
        assert!(out.iter().all(|&b| b == 20 + k as u8), "page {}", 20 + k);
    }
}
