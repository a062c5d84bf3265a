//! End-to-end telemetry tests: the functional engine drives a multi-batch
//! workload and the metrics registry must tell the same story as
//! `ControlStats` — batch counts agree, every protocol stage histogram is
//! populated, and per-SSD submit/complete counters sum to the request total.

use std::collections::BTreeMap;
use std::sync::Arc;

use cam_blockdev::{BlockStore, Lba};
use cam_core::{CamConfig, CamContext, ControlStats};
use cam_iostacks::{Rig, RigConfig};
use cam_telemetry::{EventKind, FlightRecorder, MetricsRegistry, Observability, Stage};

fn small_rig(n_ssds: usize) -> Rig {
    Rig::new(RigConfig {
        n_ssds,
        blocks_per_ssd: 4096,
        ..RigConfig::default()
    })
}

fn load_pattern(rig: &Rig, blocks: u64) {
    let raid = rig.raid_view();
    let bs = rig.block_size() as usize;
    for b in 0..blocks {
        raid.write(Lba(b), &vec![(b % 251) as u8 + 1; bs]).unwrap();
    }
}

/// Drives `rounds` prefetch+write-back rounds of `batch` requests each and
/// returns the context for inspection.
fn drive(cam: &CamContext, rounds: u64, batch: u64) {
    let dev = cam.device();
    let bs = cam.block_size() as usize;
    let rbuf = cam.alloc(batch as usize * bs).unwrap();
    let wbuf = cam.alloc(batch as usize * bs).unwrap();
    wbuf.write(0, &vec![0x5A; batch as usize * bs]);
    for round in 0..rounds {
        let base = round * batch;
        let lbas: Vec<u64> = (base..base + batch).collect();
        dev.prefetch(&lbas, rbuf.addr()).unwrap();
        dev.prefetch_synchronize().unwrap();
        dev.write_back(&lbas, wbuf.addr()).unwrap();
        dev.write_back_synchronize().unwrap();
    }
}

#[test]
fn registry_agrees_with_control_stats() {
    let rig = small_rig(3);
    load_pattern(&rig, 512);
    let registry = Arc::new(MetricsRegistry::new());
    let cam = CamContext::attach_observed(
        &rig,
        CamConfig::default(),
        Observability::with_registry(Arc::clone(&registry)),
    );
    let rounds = 10u64;
    let batch = 24u64;
    drive(&cam, rounds, batch);

    let stats = cam.stats();
    let snap = registry.snapshot();

    // Batch and request counters: registry == ControlStats == workload.
    assert_eq!(stats.batches, 2 * rounds);
    assert_eq!(snap.counter("cam_batches_total"), stats.batches);
    assert_eq!(stats.requests, 2 * rounds * batch);
    assert_eq!(snap.counter("cam_requests_total"), stats.requests);
    assert_eq!(snap.counter("cam_errors_total"), 0);

    // Every protocol stage histogram is populated for both ops. Each
    // batch crosses pickup/retire once and dispatch/submit/complete once
    // per SSD group, so every stage has at least `rounds` samples per op.
    for op in ["read", "write"] {
        for stage in Stage::ALL {
            let name = format!("cam_stage_ns{{op=\"{op}\",stage=\"{}\"}}", stage.name());
            let h = snap
                .histogram(&name)
                .unwrap_or_else(|| panic!("missing {name}"));
            assert!(h.count >= rounds, "{name}: count {} < {rounds}", h.count);
        }
    }

    // Per-SSD submitted/completed counters sum to the request total
    // (stripe_blocks=1 and 1 block per request → one SQE run per request).
    let submitted = snap.sum_counters("cam_ssd_submitted_total{");
    let completed = snap.sum_counters("cam_ssd_completed_total{");
    assert_eq!(submitted, stats.requests);
    assert_eq!(completed, stats.requests);
    // Striping across 3 SSDs means every SSD saw traffic.
    for ssd in 0..3 {
        let c = snap.counter(&format!("cam_ssd_submitted_total{{ssd=\"{ssd}\"}}"));
        assert!(c > 0, "ssd {ssd} got no requests");
    }

    // Doorbell→retire span per (channel, op): reads on channel 0, writes
    // on channel 1, one sample per round.
    let read_total = snap
        .histogram("cam_batch_total_ns{channel=\"0\",op=\"read\"}")
        .expect("read batch_total histogram");
    assert_eq!(read_total.count, rounds);
    assert!(read_total.p99 >= read_total.p50);
    let write_total = snap
        .histogram("cam_batch_total_ns{channel=\"1\",op=\"write\"}")
        .expect("write batch_total histogram");
    assert_eq!(write_total.count, rounds);

    // The host spun in synchronize_* once per round per op.
    assert!(snap.histogram("cam_sync_wait_ns").unwrap().count >= 2 * rounds);
}

#[test]
fn recorder_sees_every_batch_lifecycle() {
    let rig = small_rig(2);
    load_pattern(&rig, 256);
    let recorder = Arc::new(FlightRecorder::new());
    let cam = CamContext::attach_observed(
        &rig,
        CamConfig::default(),
        Observability::recorded(Arc::new(MetricsRegistry::new()), Arc::clone(&recorder)),
    );
    drive(&cam, 6, 16);
    drop(cam);

    // (channel, seq) → [doorbell, pickup, retire] timestamps.
    let mut batches: BTreeMap<(u16, u64), [Option<u64>; 3]> = BTreeMap::new();
    for ev in recorder.snapshot() {
        let (id, step) = match ev.kind {
            EventKind::BatchDoorbell {
                channel,
                seq,
                op,
                requests,
            } => {
                assert_eq!(requests, 16);
                // Reads ride channel 0, writes channel 1.
                assert_eq!(u16::from(op), channel);
                ((channel, seq), 0)
            }
            EventKind::BatchPickup { channel, seq } => ((channel, seq), 1),
            EventKind::BatchRetire {
                channel,
                seq,
                errors,
            } => {
                assert_eq!(errors, 0);
                ((channel, seq), 2)
            }
            _ => continue,
        };
        let slot = &mut batches.entry(id).or_default()[step];
        assert_eq!(slot.replace(ev.ts_ns), None, "{id:?} step {step} twice");
    }
    assert_eq!(batches.len(), 12);
    for (id, steps) in &batches {
        let [Some(doorbell), Some(pickup), Some(retire)] = steps else {
            panic!("{id:?} is missing a lifecycle step: {steps:?}");
        };
        // The batch timeline is ordered: doorbell ≤ pickup ≤ retire.
        assert!(doorbell <= pickup, "{id:?}: doorbell after pickup");
        assert!(pickup <= retire, "{id:?}: pickup after retire");
    }
    // Six batches per channel, and sequence numbers follow publication
    // order: a channel's batch retires before its successor's doorbell.
    for ch in 0..2 {
        let of_ch: Vec<_> = batches.iter().filter(|((c, _), _)| *c == ch).collect();
        assert_eq!(of_ch.len(), 6);
        for pair in of_ch.windows(2) {
            assert!(pair[0].1[2] <= pair[1].1[0], "ch{ch}: {pair:?}");
        }
    }
}

#[test]
fn stats_diff_isolates_a_phase() {
    let rig = small_rig(2);
    load_pattern(&rig, 512);
    let cam = CamContext::attach(&rig, CamConfig::default());
    drive(&cam, 4, 8);
    let mark = cam.stats();
    drive(&cam, 3, 32);
    let delta = cam.stats().diff(&mark);

    assert_eq!(delta.batches, 6);
    assert_eq!(delta.requests, 6 * 32);
    assert_eq!(delta.errors, 0);
    assert!(delta.total_io > cam_simkit::Dur::ZERO);
    let mean_io = delta.mean_io.expect("batches retired, mean must exist");
    assert!(mean_io > cam_simkit::Dur::ZERO);
    // The diff means are per-interval, not cumulative: they reflect only
    // the second phase's batches.
    assert_eq!(
        mean_io,
        cam_simkit::Dur::ns(delta.total_io.as_ns() / delta.batches)
    );
    // A snapshot diffed against itself has no batches — the mean is absent,
    // not a silent 0.
    let none = cam.stats().diff(&cam.stats());
    assert_eq!(none.batches, 0);
    assert_eq!(none.mean_io, None);
    assert_eq!(none.mean_compute, None);
    assert_eq!(none.mean_io_secs(), None);
    // Diffing against a fresh default gives back the later snapshot's
    // cumulative counters.
    let full = cam.stats().diff(&ControlStats::default());
    assert_eq!(full.batches, 14);
}
