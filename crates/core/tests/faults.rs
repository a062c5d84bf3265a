//! Failure-injection tests: device errors must surface as `CamError::Io`
//! at the synchronization points, never as silent corruption, and channels
//! must keep working after a failed batch.

use std::sync::Arc;

use cam_blockdev::{
    BlockGeometry, BlockStore, FaultKind, FaultMode, FaultPolicy, FaultyStore, SparseMemStore,
};
use cam_core::{CamBackend, CamConfig, CamContext, CamError, IoRequest, StorageBackend};
use cam_iostacks::{Rig, RigConfig};
use cam_telemetry::{
    FlightRecorder, MetricsRegistry, Observability, PostmortemConfig, PostmortemDumper,
};

/// Builds a rig whose first SSD fails reads on device LBAs 100..200.
fn faulty_rig(n_ssds: usize, policy: FaultPolicy) -> (Rig, Arc<FaultyStore>) {
    let cfg = RigConfig {
        n_ssds,
        blocks_per_ssd: 4096,
        ..RigConfig::default()
    };
    let faulty = Arc::new(FaultyStore::new(
        Arc::new(SparseMemStore::new(BlockGeometry::new(
            cfg.block_size,
            cfg.blocks_per_ssd,
        ))),
        policy,
    ));
    let mut stores: Vec<Arc<dyn BlockStore>> = vec![Arc::clone(&faulty) as Arc<dyn BlockStore>];
    for _ in 1..n_ssds {
        stores.push(Arc::new(SparseMemStore::new(BlockGeometry::new(
            cfg.block_size,
            cfg.blocks_per_ssd,
        ))));
    }
    (Rig::with_stores(cfg, stores), faulty)
}

#[test]
fn read_faults_surface_as_io_errors() {
    // With 2 SSDs and stripe 1, array LBA 2k lands on SSD 0 at device LBA k.
    // Device LBAs 100..200 fail → array LBAs 200, 202, ... fail.
    let (rig, faulty) = faulty_rig(2, FaultPolicy::reads_in(100, 200));
    let cam = CamContext::attach(&rig, CamConfig::default());
    let dev = cam.device();
    let buf = cam.alloc(8 * 4096).unwrap();

    // Healthy region: fine.
    dev.prefetch(&(0..8).collect::<Vec<_>>(), buf.addr())
        .unwrap();
    dev.prefetch_synchronize().unwrap();

    // Batch straddling the faulty region: exactly the SSD-0 requests fail.
    let lbas: Vec<u64> = (200..216).collect(); // 8 on ssd0 (faulty), 8 on ssd1
    dev.prefetch(&lbas, buf.addr()).unwrap();
    match dev.prefetch_synchronize() {
        Err(CamError::Io { failed }) => assert_eq!(failed, 8),
        other => panic!("expected Io error, got {other:?}"),
    }
    assert_eq!(faulty.injected(), 8);

    // The channel recovers for subsequent healthy batches.
    dev.prefetch(&(0..8).collect::<Vec<_>>(), buf.addr())
        .unwrap();
    dev.prefetch_synchronize().unwrap();
    assert_eq!(cam.stats().errors, 8);
}

#[test]
fn write_faults_do_not_ack_durability() {
    let (rig, _faulty) = faulty_rig(1, FaultPolicy::writes_in(50, 60));
    let cam = CamContext::attach(&rig, CamConfig::default());
    let dev = cam.device();
    let src = cam.alloc(4096).unwrap();
    src.write(0, &[0x44u8; 4096]);

    dev.write_back(&[55], src.addr()).unwrap();
    assert!(matches!(
        dev.write_back_synchronize(),
        Err(CamError::Io { failed: 1 })
    ));
    // Media unchanged: reading the block back returns zeroes, not 0x44.
    let out = cam.alloc(4096).unwrap();
    dev.prefetch(&[55], out.addr()).unwrap();
    dev.prefetch_synchronize().unwrap();
    assert!(out.to_vec().iter().all(|&b| b == 0), "failed write leaked");
}

#[test]
fn backend_adapter_propagates_injected_faults() {
    let (rig, _faulty) = faulty_rig(
        2,
        FaultPolicy {
            kind: FaultKind::Read,
            lba_range: (0, 4096),
            every: 1,
            mode: FaultMode::Permanent,
        },
    );
    let cam = CamContext::attach(&rig, CamConfig::default());
    let be = CamBackend::new(cam.device(), 1024);
    let buf = rig.gpu().alloc(4 * 4096).unwrap();
    // All four requests hit SSD 0 (even array LBAs) → all fail.
    let reads: Vec<IoRequest> = (0..4u64)
        .map(|i| IoRequest::read(i * 2, 1, buf.addr() + i * 4096))
        .collect();
    assert!(be.execute_batch(&reads).is_err());
    // Odd array LBAs live on the healthy SSD 1 → fine.
    let reads: Vec<IoRequest> = (0..4u64)
        .map(|i| IoRequest::read(i * 2 + 1, 1, buf.addr() + i * 4096))
        .collect();
    be.execute_batch(&reads).unwrap();
}

#[test]
fn failed_batch_triggers_a_post_mortem_dump_with_its_events() {
    let dump_path =
        std::env::temp_dir().join(format!("cam-postmortem-fault-{}.json", std::process::id()));
    let _ = std::fs::remove_file(&dump_path);

    let (rig, faulty) = faulty_rig(2, FaultPolicy::reads_in(100, 200));
    let recorder = Arc::new(FlightRecorder::new());
    let registry = Arc::new(MetricsRegistry::new());
    let dumper = Arc::new(PostmortemDumper::new(
        Arc::clone(&recorder),
        Arc::clone(&registry),
        PostmortemConfig::new(&dump_path),
    ));
    faulty.attach_recorder(Arc::clone(&recorder));
    let obs = Observability::recorded(Arc::clone(&registry), Arc::clone(&recorder))
        .with_postmortem(Arc::clone(&dumper));
    let cam = CamContext::attach_observed(&rig, CamConfig::default(), obs);
    let dev = cam.device();
    let buf = cam.alloc(16 * 4096).unwrap();

    // A healthy batch first, then the failing one.
    dev.prefetch(&(0..8).collect::<Vec<_>>(), buf.addr())
        .unwrap();
    dev.prefetch_synchronize().unwrap();
    let lbas: Vec<u64> = (200..216).collect(); // 8 requests hit the faulty SSD
    dev.prefetch(&lbas, buf.addr()).unwrap();
    assert!(dev.prefetch_synchronize().is_err());
    // Stop the control plane so the retire-side trigger has finished.
    drop(cam);

    assert_eq!(dumper.dumps(), 1, "exactly one dump for one failed batch");
    let dump = std::fs::read_to_string(&dump_path).expect("dump written");
    // The reason names the failing batch; the event window contains the
    // batch's lifecycle and the injected faults that sank it.
    assert!(dump.contains("retired with 8 error(s)"), "reason: {dump}");
    for needle in [
        "\"batch_doorbell\"",
        "\"batch_retire\"",
        "\"fault_injected\"",
        "\"group_complete\"",
        "\"metrics\"",
    ] {
        assert!(dump.contains(needle), "missing {needle} in dump");
    }
    let _ = std::fs::remove_file(&dump_path);
}

#[test]
fn deadline_overrun_triggers_a_post_mortem_without_errors() {
    let dump_path = std::env::temp_dir().join(format!(
        "cam-postmortem-deadline-{}.json",
        std::process::id()
    ));
    let _ = std::fs::remove_file(&dump_path);

    let rig = Rig::new(RigConfig {
        n_ssds: 2,
        blocks_per_ssd: 4096,
        ..RigConfig::default()
    });
    let recorder = Arc::new(FlightRecorder::new());
    let registry = Arc::new(MetricsRegistry::new());
    let dumper = Arc::new(PostmortemDumper::new(
        Arc::clone(&recorder),
        Arc::clone(&registry),
        PostmortemConfig::new(&dump_path),
    ));
    // A 1 ns doorbell→retire budget: every healthy batch overruns it.
    let obs = Observability::recorded(Arc::clone(&registry), recorder)
        .with_postmortem(Arc::clone(&dumper))
        .with_deadline_ns(1);
    let cam = CamContext::attach_observed(&rig, CamConfig::default(), obs);
    let dev = cam.device();
    let buf = cam.alloc(8 * 4096).unwrap();
    dev.prefetch(&(0..8).collect::<Vec<_>>(), buf.addr())
        .unwrap();
    dev.prefetch_synchronize().unwrap();
    drop(cam);

    assert!(dumper.dumps() >= 1);
    let dump = std::fs::read_to_string(&dump_path).expect("dump written");
    assert!(dump.contains("overran deadline"), "reason: {dump}");
    let _ = std::fs::remove_file(&dump_path);
}

#[test]
fn intermittent_faults_fail_some_batches_only() {
    // Every 4th matching read fails: a 16-request batch on the faulty SSD
    // reports exactly 4 failures.
    let (rig, faulty) = faulty_rig(
        1,
        FaultPolicy {
            kind: FaultKind::Read,
            lba_range: (0, 4096),
            every: 4,
            mode: FaultMode::Permanent,
        },
    );
    let cam = CamContext::attach(&rig, CamConfig::default());
    let dev = cam.device();
    let buf = cam.alloc(16 * 4096).unwrap();
    dev.prefetch(&(0..16).collect::<Vec<_>>(), buf.addr())
        .unwrap();
    match dev.prefetch_synchronize() {
        Err(CamError::Io { failed }) => assert_eq!(failed, 4),
        other => panic!("expected 4 failures, got {other:?}"),
    }
    assert_eq!(faulty.injected(), 4);
}
