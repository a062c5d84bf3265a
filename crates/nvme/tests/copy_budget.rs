//! The data path's copy budget: a whole-page transfer moves a reference,
//! not its bytes. A read burst of 4 KiB blocks into page-aligned
//! destinations copies no payload byte, a read of 512-byte blocks copies
//! exactly its `nlb × 512` bytes, and a `ctrl_read`-shaped batch — 64
//! random blocks of a 256-block array striped over two SSDs, duplicates
//! fanned out from their first destination the way the engine's retire
//! does — copies none either.
//!
//! The counter behind these assertions (`PinnedRegion::bytes_copied`)
//! exists only in debug builds, so this file compiles to nothing under
//! `--release`; run it without that flag.
#![cfg(debug_assertions)]

use std::sync::Arc;

use cam_blockdev::{BlockGeometry, BlockStore, Lba, SparseMemStore};
use cam_nvme::spec::{Sqe, Status};
use cam_nvme::{DeviceConfig, DmaSpace, NvmeDevice, PinnedRegion, QueuePair};

const DMA_BASE: u64 = 0x1_0000;
const PAGE: usize = 4096;

/// The byte block `lba` of SSD `ssd` is filled with.
fn byte_of(ssd: usize, lba: u64) -> u8 {
    (ssd as u64 * 131 + lba * 7 + 1) as u8
}

/// `n` SSDs of `blocks` blocks of `block_size` bytes, every block but the
/// odd ones below 8 preloaded with `byte_of`, serving one region.
fn rig(
    n: usize,
    block_size: u32,
    blocks: u64,
) -> (Vec<NvmeDevice>, Vec<Arc<QueuePair>>, Arc<PinnedRegion>) {
    let region = Arc::new(PinnedRegion::new(DMA_BASE, 1 << 20));
    let mut devs = Vec::new();
    let mut qps = Vec::new();
    for ssd in 0..n {
        let store: Arc<dyn BlockStore> =
            Arc::new(SparseMemStore::new(BlockGeometry::new(block_size, blocks)));
        for lba in (0..blocks).filter(|&l| l >= 8 || l % 2 == 0) {
            let block = vec![byte_of(ssd, lba); block_size as usize];
            store.write(Lba(lba), &block).unwrap();
        }
        let dev = NvmeDevice::start(
            DeviceConfig::default(),
            store,
            Arc::clone(&region) as Arc<dyn DmaSpace>,
        );
        qps.push(dev.add_queue_pair(256));
        devs.push(dev);
    }
    (devs, qps, region)
}

/// Rings one doorbell per queue pair for its SQEs and reaps every CQE.
fn run(qps: &[Arc<QueuePair>], sqes: Vec<Vec<Sqe>>) {
    for (qp, sqes) in qps.iter().zip(&sqes) {
        for &sqe in sqes {
            qp.push_sqe(sqe).unwrap();
        }
        qp.ring_doorbell();
    }
    for (qp, sqes) in qps.iter().zip(&sqes) {
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
}

/// Whether `[addr, addr + len)` holds `byte` throughout.
fn holds(region: &PinnedRegion, addr: u64, len: usize, byte: u8) -> bool {
    let mut out = vec![0u8; len];
    region.dma_read(addr, &mut out).unwrap();
    out.iter().all(|&b| b == byte)
}

#[test]
fn a_whole_page_read_burst_copies_no_payload_byte() {
    let (_devs, qps, region) = rig(1, PAGE as u32, 64);
    // One burst of 32 commands: 31 single blocks (never-written ones among
    // them) and one 4-block command over four consecutive pages.
    let mut sqes: Vec<Sqe> = (0..31u16)
        .map(|i| Sqe::read(i, u64::from(i), 1, DMA_BASE + (u64::from(i) * PAGE as u64)))
        .collect();
    sqes.push(Sqe::read(31, 40, 4, DMA_BASE + 32 * PAGE as u64));
    run(&qps, vec![sqes]);
    assert_eq!(region.bytes_copied(), 0, "a whole-page read copied bytes");
    for lba in 0..31u64 {
        let want = if lba < 8 && lba % 2 == 1 {
            0
        } else {
            byte_of(0, lba)
        };
        assert!(holds(&region, DMA_BASE + lba * PAGE as u64, PAGE, want));
    }
    for k in 0..4u64 {
        let addr = DMA_BASE + (32 + k) * PAGE as u64;
        assert!(holds(&region, addr, PAGE, byte_of(0, 40 + k)));
    }
}

#[test]
fn a_512_byte_block_read_copies_exactly_its_blocks() {
    let (_devs, qps, region) = rig(1, 512, 256);
    // 24 blocks starting 1 KiB into a page (they span four pages), and 3
    // more at a page boundary: 27 × 512 bytes, no copy-on-write.
    run(
        &qps,
        vec![vec![
            Sqe::read(0, 16, 24, DMA_BASE + 1024),
            Sqe::read(1, 100, 3, DMA_BASE + 8 * PAGE as u64),
        ]],
    );
    assert_eq!(region.bytes_copied(), 27 * 512);
    for i in 0..24u64 {
        assert!(holds(
            &region,
            DMA_BASE + 1024 + i * 512,
            512,
            byte_of(0, 16 + i)
        ));
    }
}

#[test]
fn a_ctrl_read_batch_with_duplicates_copies_no_payload_byte() {
    const SSDS: usize = 2;
    const ARRAY: u64 = 256;
    const BATCH: usize = 64;
    let (_devs, qps, region) = rig(SSDS, PAGE as u32, ARRAY / SSDS as u64);
    let dest = |i: usize| DMA_BASE + (i * PAGE) as u64;
    let mut state = 0x2545_F491_4F6C_DD1Du64;
    let mut lbas = Vec::with_capacity(BATCH);
    for _ in 0..BATCH {
        state ^= state << 13;
        state ^= state >> 7;
        state ^= state << 17;
        // A 48-block window of the array, so the batch has duplicates.
        lbas.push(state % 48);
    }
    // Stripe width one block: array block `lba` is block `lba / 2` of SSD
    // `lba % 2`. The first request for a block reads it; the rest are
    // duplicates, fanned out from the first destination at retire.
    let mut sqes = vec![Vec::new(); SSDS];
    let mut dups = Vec::new();
    for (i, &lba) in lbas.iter().enumerate() {
        match lbas[..i].iter().position(|&l| l == lba) {
            Some(first) => dups.push((dest(first), dest(i))),
            None => {
                let ssd = (lba % SSDS as u64) as usize;
                let cid = sqes[ssd].len() as u16;
                sqes[ssd].push(Sqe::read(cid, lba / SSDS as u64, 1, dest(i)));
            }
        }
    }
    assert!(dups.len() >= 8, "only {} duplicates", dups.len());
    run(&qps, sqes);
    for &(src, dst) in &dups {
        region.dma_copy(src, dst, PAGE).unwrap();
    }
    assert_eq!(region.bytes_copied(), 0, "the batch copied bytes");
    for (i, &lba) in lbas.iter().enumerate() {
        let (ssd, dev_lba) = ((lba % SSDS as u64) as usize, lba / SSDS as u64);
        let want = if dev_lba < 8 && dev_lba % 2 == 1 {
            0
        } else {
            byte_of(ssd, dev_lba)
        };
        assert!(holds(&region, dest(i), PAGE, want), "request {i}");
    }
}
