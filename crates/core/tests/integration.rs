//! End-to-end tests of the CAM protocol over the full functional substrate:
//! simulated GPU kernels initiating I/O, the CPU control plane managing
//! simulated NVMe devices, and data landing in pinned GPU memory.

use cam_blockdev::{BlockStore, Lba};
use cam_core::{CamConfig, CamContext, ChannelOp, DoubleBuffer};
use cam_iostacks::{Rig, RigConfig};

fn small_rig(n_ssds: usize) -> Rig {
    Rig::new(RigConfig {
        n_ssds,
        blocks_per_ssd: 4096,
        ..RigConfig::default()
    })
}

/// Loads a recognizable pattern into array blocks via the raid view.
fn load_pattern(rig: &Rig, blocks: u64) {
    let raid = rig.raid_view();
    let bs = rig.block_size() as usize;
    for b in 0..blocks {
        let fill = (b % 251) as u8 + 1;
        raid.write(Lba(b), &vec![fill; bs]).unwrap();
    }
}

#[test]
fn fig7_pipeline_from_a_kernel() {
    // The canonical CAM loop: prefetch_synchronize → swap → prefetch next →
    // compute on current, all inside one GPU kernel.
    let rig = small_rig(3);
    load_pattern(&rig, 256);
    let cam = CamContext::attach(&rig, CamConfig::default());
    let dev = cam.device();
    let bs = rig.block_size() as usize;
    let batch = 16usize;
    let db = DoubleBuffer::new(&cam, batch * bs).unwrap();

    let iterations = 8u64;
    let sums = std::sync::Mutex::new(Vec::<u64>::new());

    // Warm-up prefetch for iteration 0 (Fig. 7 primes the pipeline).
    let lbas: Vec<u64> = (0..batch as u64).collect();
    dev.prefetch(&lbas, db.read_buf().addr()).unwrap();

    rig.gpu().launch(1, |_ctx| {
        // The kernel body borrows the double buffer mutably via interior
        // steps; we model Fig. 7's single logical control flow.
        let mut local = Vec::new();
        let mut front_read; // tracks which buffer was just filled
        let mut db_front;
        let bufs = [db.compute_buf(), db.read_buf()];
        // Addresses are fixed; track roles by index to avoid aliasing.
        let addr_of = |idx: usize| bufs[idx].addr();
        let read_into = 1usize; // warm-up targeted read_buf()
        front_read = read_into;
        for it in 0..iterations {
            dev.prefetch_synchronize().unwrap();
            // Swap: the freshly-read buffer becomes the compute buffer.
            db_front = front_read;
            // Issue next prefetch into the other buffer.
            if it + 1 < iterations {
                let next: Vec<u64> = ((it + 1) * batch as u64..(it + 2) * batch as u64).collect();
                front_read = 1 - db_front;
                dev.prefetch(&next, addr_of(front_read)).unwrap();
            }
            // "Compute": checksum the current buffer.
            let data = bufs[db_front].to_vec();
            let sum: u64 = data.iter().map(|&b| b as u64).sum();
            local.push(sum);
        }
        sums.lock().unwrap().extend(local);
    });

    let sums = sums.into_inner().unwrap();
    assert_eq!(sums.len(), iterations as usize);
    // Every iteration saw exactly its own blocks' pattern.
    let bs64 = bs as u64;
    for (it, sum) in sums.iter().enumerate() {
        let expect: u64 = (it as u64 * batch as u64..(it as u64 + 1) * batch as u64)
            .map(|b| ((b % 251) + 1) * bs64)
            .sum();
        assert_eq!(*sum, expect, "iteration {it}");
    }
    let stats = cam.stats();
    assert_eq!(stats.batches, iterations);
    assert_eq!(stats.requests, iterations * batch as u64);
    assert_eq!(stats.errors, 0);
}

#[test]
fn write_back_then_prefetch_round_trip() {
    let rig = small_rig(2);
    let cam = CamContext::attach(&rig, CamConfig::default());
    let dev = cam.device();
    let src = cam.alloc(32 * 4096).unwrap();
    for i in 0..32usize {
        src.write(i * 4096, &vec![(i * 3) as u8 + 1; 4096]);
    }
    let lbas: Vec<u64> = (100..132).collect();
    dev.write_back(&lbas, src.addr()).unwrap();
    dev.write_back_synchronize().unwrap();

    let dst = cam.alloc(32 * 4096).unwrap();
    dev.prefetch(&lbas, dst.addr()).unwrap();
    dev.prefetch_synchronize().unwrap();
    assert_eq!(src.to_vec(), dst.to_vec());
}

#[test]
fn prefetch_and_write_back_channels_are_independent() {
    // Fig. 5/6: read and write streams overlap; each has its own regions.
    let rig = small_rig(2);
    load_pattern(&rig, 64);
    let cam = CamContext::attach(&rig, CamConfig::default());
    let dev = cam.device();
    let rbuf = cam.alloc(8 * 4096).unwrap();
    let wbuf = cam.alloc(8 * 4096).unwrap();
    wbuf.write(0, &vec![0xEE; 8 * 4096]);

    // Issue both before synchronizing either.
    dev.prefetch(&(0..8).collect::<Vec<_>>(), rbuf.addr())
        .unwrap();
    dev.write_back(&(200..208).collect::<Vec<_>>(), wbuf.addr())
        .unwrap();
    dev.prefetch_synchronize().unwrap();
    dev.write_back_synchronize().unwrap();

    assert_eq!(rbuf.to_vec()[0], 1); // block 0 pattern
    let raid = rig.raid_view();
    let mut out = vec![0u8; 4096];
    raid.read(Lba(203), &mut out).unwrap();
    assert!(out.iter().all(|&b| b == 0xEE));
}

#[test]
fn sync_api_equals_async_api_results() {
    // CAM-Sync (prefetch/synchronize) and CAM-Async (submit/ticket) must
    // deliver identical data — Fig. 11's premise.
    let rig = small_rig(2);
    load_pattern(&rig, 128);
    let cam = CamContext::attach(
        &rig,
        CamConfig {
            n_channels: 3,
            ..CamConfig::default()
        },
    );
    let dev = cam.device();
    let lbas: Vec<u64> = (32..64).collect();

    let sync_buf = cam.alloc(32 * 4096).unwrap();
    dev.prefetch(&lbas, sync_buf.addr()).unwrap();
    dev.prefetch_synchronize().unwrap();

    let async_buf = cam.alloc(32 * 4096).unwrap();
    let ticket = dev
        .submit(2, ChannelOp::Read, &lbas, async_buf.addr())
        .unwrap();
    ticket.wait().unwrap();

    assert_eq!(sync_buf.to_vec(), async_buf.to_vec());
}

#[test]
fn io_errors_surface_at_synchronize() {
    let rig = small_rig(2);
    let cam = CamContext::attach(&rig, CamConfig::default());
    let dev = cam.device();
    let buf = cam.alloc(4096).unwrap();
    let far = rig.array_blocks() * 8;
    dev.prefetch(&[far], buf.addr()).unwrap();
    let err = dev.prefetch_synchronize().unwrap_err();
    assert!(matches!(err, cam_core::CamError::Io { failed: 1 }));
    // The channel recovers: a valid prefetch afterwards succeeds.
    dev.prefetch(&[0], buf.addr()).unwrap();
    dev.prefetch_synchronize().unwrap();
}

#[test]
fn channel_busy_is_reported_not_hung() {
    let rig = small_rig(1);
    let cam = CamContext::attach(&rig, CamConfig::default());
    let dev = cam.device();
    let buf = cam.alloc(64 * 4096).unwrap();
    // Two prefetches without an intervening synchronize: the second must
    // either succeed (first already retired) or report ChannelBusy.
    dev.prefetch(&(0..64).collect::<Vec<_>>(), buf.addr())
        .unwrap();
    match dev.prefetch(&[0], buf.addr()) {
        Ok(()) | Err(cam_core::CamError::ChannelBusy) => {}
        other => panic!("unexpected: {other:?}"),
    }
    dev.prefetch_synchronize().unwrap();
}

#[test]
fn batch_too_large_is_reported() {
    let rig = small_rig(1);
    let cam = CamContext::attach(
        &rig,
        CamConfig {
            max_batch: 8,
            ..CamConfig::default()
        },
    );
    let dev = cam.device();
    let buf = cam.alloc(16 * 4096).unwrap();
    let err = dev
        .prefetch(&(0..16).collect::<Vec<_>>(), buf.addr())
        .unwrap_err();
    assert!(matches!(
        err,
        cam_core::CamError::BatchTooLarge {
            requested: 16,
            capacity: 8
        }
    ));
}

#[test]
fn a_zero_block_batch_is_refused_and_the_channel_stays_usable() {
    // A batch whose requests carry no blocks plans no command, so nothing
    // would retire it: published, its wait timed out and every later
    // submit on the channel was `ChannelBusy`. It is refused up front.
    let rig = small_rig(2);
    load_pattern(&rig, 4);
    let cam = CamContext::attach(
        &rig,
        CamConfig {
            sync_timeout_ns: Some(2_000_000_000),
            ..CamConfig::default()
        },
    );
    let dev = cam.device();
    let buf = cam.alloc(4 * 4096).unwrap();
    let err = dev
        .submit_scatter(
            0,
            ChannelOp::Read,
            &[0, 1],
            |i| buf.addr() + i as u64 * 4096,
            0,
        )
        .err();
    assert_eq!(err, Some(cam_core::CamError::ZeroBlocks));
    dev.submit(0, ChannelOp::Read, &[0, 1, 2, 3], buf.addr())
        .and_then(|t| t.wait())
        .expect("the channel takes the next batch");
    let mut block = vec![0u8; 4096];
    buf.read(3 * 4096, &mut block);
    assert!(block.iter().all(|&b| b == 4), "block 3 landed");
    assert_eq!(cam.stats().batches, 1);
}

#[test]
fn dynamic_scaling_shrinks_under_compute_heavy_load() {
    let rig = Rig::new(RigConfig {
        n_ssds: 8,
        blocks_per_ssd: 4096,
        ..RigConfig::default()
    });
    load_pattern(&rig, 512);
    let cam = CamContext::attach(
        &rig,
        CamConfig {
            dynamic_scaling: true,
            ..CamConfig::default()
        },
    );
    assert_eq!(cam.max_workers(), 4); // ceil(8/2)
    let dev = cam.device();
    let buf = cam.alloc(4 * 4096).unwrap();
    // Compute-heavy loop: tiny I/O, long "computation" gaps.
    for it in 0..12u64 {
        dev.prefetch(&[(it * 4) % 256, 1, 2, 3], buf.addr())
            .unwrap();
        dev.prefetch_synchronize().unwrap();
        std::thread::sleep(std::time::Duration::from_millis(8)); // "compute"
    }
    let stats = cam.stats();
    // ceil(8/4) = 2 is the floor; compute-dominated batches must have
    // driven the active worker count down from 4.
    assert!(
        stats.active_workers < 4,
        "expected shrink below max, got {}",
        stats.active_workers
    );
    assert!(stats.active_workers >= 2);
    // Both means exist (batches retired, gaps observed) and compute
    // dominates I/O in this workload.
    let mean_compute = stats.mean_compute.expect("compute gaps observed");
    let mean_io = stats.mean_io.expect("batches retired");
    assert!(mean_compute > mean_io);
}

#[test]
fn many_batches_stress_protocol() {
    let rig = small_rig(4);
    let cam = CamContext::attach(&rig, CamConfig::default());
    let dev = cam.device();
    let buf = cam.alloc(64 * 4096).unwrap();
    let src = cam.alloc(64 * 4096).unwrap();
    src.write(0, &vec![0xAB; 64 * 4096]);
    for round in 0..50u64 {
        let base = (round * 64) % 8192;
        let lbas: Vec<u64> = (base..base + 64).collect();
        dev.write_back(&lbas, src.addr()).unwrap();
        dev.write_back_synchronize().unwrap();
        dev.prefetch(&lbas, buf.addr()).unwrap();
        dev.prefetch_synchronize().unwrap();
        assert_eq!(buf.to_vec()[round as usize % (64 * 4096)], 0xAB);
    }
    let stats = cam.stats();
    assert_eq!(stats.batches, 100);
    assert_eq!(stats.requests, 100 * 64);
}
