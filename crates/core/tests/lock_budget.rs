//! The retire's lock budget: a batch's duplicate fan-out holds the DMA
//! region's lock once, however many duplicates it replicates. A batch of
//! 64 reads of one block is one command, so one device burst (one media
//! lock, one region lock) and one retire (one region lock for its 63
//! duplicates) — a fan-out that locked per duplicate would take 63 more,
//! or twice that per page.
//!
//! The counters behind these assertions exist only in debug builds, so
//! this file compiles to nothing under `--release`; run it without that
//! flag. The device's own budget is `crates/nvme/tests/lock_budget.rs`.
#![cfg(debug_assertions)]

use std::sync::Arc;

use cam_blockdev::{BlockGeometry, BlockStore, Lba, SparseMemStore};
use cam_core::{CamConfig, CamContext, ChannelOp};
use cam_iostacks::{Rig, RigConfig};

const BLOCK: usize = 4096;
const BATCH: usize = 64;

#[test]
fn a_retire_with_63_duplicates_takes_one_region_lock() {
    let cfg = RigConfig {
        n_ssds: 1,
        ..RigConfig::default()
    };
    let store = Arc::new(SparseMemStore::new(BlockGeometry::new(
        cfg.block_size,
        cfg.blocks_per_ssd,
    )));
    store.write(Lba(7), &[0x5A; BLOCK]).unwrap();
    let rig = Rig::with_stores(cfg, vec![Arc::clone(&store) as Arc<dyn BlockStore>]);
    let cam = CamContext::attach(&rig, CamConfig::default());
    let region = rig.gpu().memory().region();
    let buf = cam.alloc(BATCH * BLOCK).unwrap();
    let before = (store.locks_taken(), region.locks_taken());
    cam.device()
        .submit(0, ChannelOp::Read, &[7; BATCH], buf.addr())
        .and_then(|t| t.wait())
        .unwrap();
    let taken = (
        store.locks_taken() - before.0,
        region.locks_taken() - before.1,
    );
    assert_eq!(taken, (1, 2), "(store, region): one burst, then one retire");
    let mut block = vec![0u8; BLOCK];
    for i in 0..BATCH {
        buf.read(i * BLOCK, &mut block);
        assert!(block.iter().all(|&b| b == 0x5A), "block {i}");
    }
}
