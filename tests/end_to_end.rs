//! Workspace-level end-to-end tests through the `cam` facade: the full
//! stack (simulated GPU → CAM protocol → CPU control plane → simulated
//! NVMe → block media) exercised the way a downstream user would.

use std::sync::Arc;

use cam::substrate::blockdev::{BlockStore, Lba};
use cam::workloads::gnn::{train_epoch_functional, FeatureStore, GnnConfig};
use cam::workloads::graph::GraphSpec;
use cam::{
    CacheConfig, CachedBackend, CachedDevice, CamBackend, CamConfig, CamContext, IoRequest, Rig,
    RigConfig, StorageBackend,
};

#[test]
fn facade_quickstart_compiles_and_runs() {
    let rig = Rig::new(RigConfig {
        n_ssds: 2,
        ..RigConfig::default()
    });
    let cam = CamContext::attach(&rig, CamConfig::default());
    let dev = cam.device();
    let buf = cam.alloc(4 * 4096).unwrap();
    buf.write(0, &vec![9u8; 4 * 4096]);
    dev.write_back(&[0, 1, 2, 3], buf.addr()).unwrap();
    dev.write_back_synchronize().unwrap();
    let out = cam.alloc(4 * 4096).unwrap();
    dev.prefetch(&[0, 1, 2, 3], out.addr()).unwrap();
    dev.prefetch_synchronize().unwrap();
    assert_eq!(out.to_vec(), buf.to_vec());
}

#[test]
fn all_backends_see_the_same_media() {
    // Write through CAM, read back through the cached management and
    // straight off the media — one trait, interchangeable managements.
    let rig = Rig::new(RigConfig {
        n_ssds: 3,
        ..RigConfig::default()
    });
    let cam_ctx = CamContext::attach(
        &rig,
        CamConfig {
            n_channels: 3,
            ..CamConfig::default()
        },
    );
    let cam = CamBackend::new(cam_ctx.device(), 4096);
    let cached_dev = CachedDevice::attach(&rig, &cam_ctx, CacheConfig::default()).unwrap();
    let cached = CachedBackend::new(Arc::new(cached_dev), 4096);

    let src = rig.gpu().alloc(16 * 4096).unwrap();
    for i in 0..16usize {
        src.write(i * 4096, &vec![i as u8 + 1; 4096]);
    }
    let lba = |i: u64| i * 3 + 1;
    let writes: Vec<IoRequest> = (0..16u64)
        .map(|i| IoRequest::write(lba(i), 1, src.addr() + i * 4096))
        .collect();
    cam.execute_batch(&writes).unwrap();

    let dst = rig.gpu().alloc(16 * 4096).unwrap();
    let reads: Vec<IoRequest> = (0..16u64)
        .map(|i| IoRequest::read(lba(i), 1, dst.addr() + i * 4096))
        .collect();
    cached.execute_batch(&reads).unwrap();
    assert_eq!(dst.to_vec(), src.to_vec(), "backend {}", cached.name());

    let raid = rig.raid_view();
    let mut media = vec![0u8; 16 * 4096];
    for (i, block) in media.chunks_mut(4096).enumerate() {
        raid.read(Lba(lba(i as u64)), block).unwrap();
    }
    assert_eq!(media, src.to_vec(), "raid view");
}

#[test]
fn kernel_initiated_io_with_many_blocks() {
    // Several thread blocks each drive their own CAM channel concurrently.
    let rig = Rig::new(RigConfig {
        n_ssds: 2,
        ..RigConfig::default()
    });
    let raid = rig.raid_view();
    for b in 0..64u64 {
        raid.write(Lba(b), &vec![(b + 1) as u8; 4096]).unwrap();
    }
    let n_blocks = 4u64;
    let cam = CamContext::attach(
        &rig,
        CamConfig {
            n_channels: n_blocks as usize,
            ..CamConfig::default()
        },
    );
    let dev = cam.device();
    let buf = cam.alloc(64 * 4096).unwrap();
    let base = buf.addr();
    rig.gpu().launch(n_blocks, |ctx| {
        let ch = ctx.block_idx as usize;
        let my: Vec<u64> = (0..64u64)
            .filter(|b| b % n_blocks == ctx.block_idx)
            .collect();
        let addr = base + ctx.block_idx * 16 * 4096;
        let ticket = dev
            .submit(ch, cam::ChannelOp::Read, &my, addr)
            .expect("submit");
        ticket.wait().expect("wait");
    });
    // Verify each block's slice.
    let data = buf.to_vec();
    for g in 0..n_blocks {
        for (i, b) in (0..64u64).filter(|b| b % n_blocks == g).enumerate() {
            let off = (g * 16 + i as u64) as usize * 4096;
            assert!(
                data[off..off + 4096].iter().all(|&x| x == (b + 1) as u8),
                "block {b} via channel {g}"
            );
        }
    }
    assert_eq!(cam.stats().batches, n_blocks);
}

#[test]
fn gnn_epoch_through_facade() {
    let rig = Rig::new(RigConfig {
        n_ssds: 2,
        blocks_per_ssd: 8192,
        ..RigConfig::default()
    });
    let graph = GraphSpec::paper100m().build_scaled(3_000, 21);
    let layout = FeatureStore::layout(graph.feature_dim(), rig.block_size());
    layout.load_features(&rig.raid_view(), graph.nodes());
    let ctx = CamContext::attach(&rig, CamConfig::default());
    let backend = CamBackend::new(ctx.device(), 4096);
    let rep = train_epoch_functional(
        &backend,
        rig.gpu(),
        &graph,
        layout,
        &GnnConfig {
            batch_size: 64,
            fanouts: [8, 4],
            hidden_dim: 128,
        },
        4,
        1,
    )
    .unwrap();
    assert_eq!(rep.steps, 4);
    assert!(rep.checksum.is_finite() && rep.checksum > 0.0);
    // Every fetched feature crossed the direct data path.
    let stats = ctx.stats();
    assert!(stats.requests >= rep.nodes_fetched);
    assert_eq!(stats.errors, 0);
}

#[test]
fn context_teardown_is_clean_under_load() {
    // Drop the context while devices still have service threads running;
    // nothing should hang or panic.
    for _ in 0..3 {
        let rig = Rig::new(RigConfig {
            n_ssds: 2,
            ..RigConfig::default()
        });
        let cam = CamContext::attach(&rig, CamConfig::default());
        let dev = cam.device();
        let buf = cam.alloc(8 * 4096).unwrap();
        dev.prefetch(&(0..8).collect::<Vec<_>>(), buf.addr())
            .unwrap();
        dev.prefetch_synchronize().unwrap();
        drop(cam);
        drop(rig);
    }
}
