//! Engine-level regressions: channel-count scaling of the compute-gap
//! tracker and the stripe-split metric.

use std::sync::Arc;

use cam_core::{CamConfig, CamContext, ChannelOp};
use cam_iostacks::{Rig, RigConfig};
use cam_telemetry::{MetricsRegistry, Observability};

#[test]
fn channels_beyond_64_track_compute_gaps() {
    // The compute-gap tracker was once a hard-coded 64-slot array: batches
    // on channel ≥ 64 crashed the retiring worker (out-of-bounds store) and
    // gap samples were silently dropped. It must now scale with the
    // configured channel count.
    let rig = Rig::new(RigConfig {
        n_ssds: 2,
        blocks_per_ssd: 4096,
        ..RigConfig::default()
    });
    let cfg = CamConfig {
        n_channels: 66,
        ..CamConfig::default()
    };
    let cam = CamContext::attach(&rig, cfg);
    let dev = cam.device();
    let buf = cam.alloc(4 * 4096).unwrap();

    // Two batches on the highest channel with a gap between them: the
    // second pickup must observe the retire→doorbell gap as compute time.
    let t = dev
        .submit(65, ChannelOp::Read, &[0, 1, 2, 3], buf.addr())
        .unwrap();
    t.wait().unwrap();
    std::thread::sleep(std::time::Duration::from_millis(2));
    let t = dev
        .submit(65, ChannelOp::Read, &[4, 5, 6, 7], buf.addr())
        .unwrap();
    t.wait().unwrap();

    let stats = cam.stats();
    assert_eq!(stats.batches, 2);
    assert_eq!(stats.errors, 0);
    assert!(
        stats.compute_samples >= 1,
        "gap on channel 65 dropped: {stats:?}"
    );
}

#[test]
fn stats_are_settled_when_wait_returns() {
    // `retire_batch` once released the waiter (region 4) before it counted
    // the batch, so a client returning from `wait` could read a
    // `ControlStats` that did not include the batch it had just waited for.
    // (An optimised build lost that race on the first batch, every run; it
    // was also the 1-in-15 flake of the test above.) The counters are now
    // written before the region-4 release-store the waiter acquires, so
    // every iteration must see its own batch.
    let rig = Rig::new(RigConfig {
        n_ssds: 2,
        blocks_per_ssd: 4096,
        ..RigConfig::default()
    });
    let cam = CamContext::attach(&rig, CamConfig::default());
    let dev = cam.device();
    let buf = cam.alloc(4 * 4096).unwrap();
    for i in 1..=2000 {
        dev.submit(0, ChannelOp::Read, &[0, 1, 2, 3], buf.addr())
            .unwrap()
            .wait()
            .unwrap();
        let stats = cam.stats();
        assert_eq!((stats.batches, stats.requests), (i, 4 * i), "batch {i}");
    }
}

#[test]
fn stripe_boundary_splits_are_counted() {
    // Stripe width 4, requests of 8 blocks starting on a stripe boundary:
    // each request splits into exactly 2 stripe-contiguous runs, so 4
    // requests yield 4 extra submissions.
    let rig = Rig::new(RigConfig {
        n_ssds: 2,
        blocks_per_ssd: 4096,
        stripe_blocks: 4,
        ..RigConfig::default()
    });
    let registry = Arc::new(MetricsRegistry::new());
    let obs = Observability::with_registry(Arc::clone(&registry));
    let cam = CamContext::attach_observed(&rig, CamConfig::default(), obs);
    let dev = cam.device();
    let buf = cam.alloc(4 * 8 * 4096).unwrap();

    let lbas = [0u64, 8, 16, 24];
    let bs = 8 * 4096u64;
    let t = dev
        .submit_scatter(0, ChannelOp::Read, &lbas, |i| buf.addr() + i as u64 * bs, 8)
        .unwrap();
    t.wait().unwrap();

    assert_eq!(cam.stats().stripe_splits, 4, "{:?}", cam.stats());
    let text = registry.to_prometheus();
    assert!(text.contains("cam_stripe_splits_total 4"), "{text}");

    // Single-block requests never split.
    let t = dev
        .submit(0, ChannelOp::Read, &[0, 1, 2, 3], buf.addr())
        .unwrap();
    t.wait().unwrap();
    assert_eq!(cam.stats().stripe_splits, 4);
}
