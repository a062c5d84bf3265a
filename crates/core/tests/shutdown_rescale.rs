//! Engine lifecycle regressions:
//!
//! * **Bounded shutdown** — `drop(cam)` must return promptly even when
//!   every worker is parked. `stop()` wakes parked workers explicitly;
//!   without that wake, shutdown latency is bounded only by park
//!   timeouts — and a lost token would hang the join forever.
//! * **Idle parking** — an idle engine's workers spend their time parked,
//!   not spinning (`cam_worker_park_ratio{worker}` above 0.9).
//! * **Wake-up** — a parked worker wakes at once on a doorbell on a
//!   channel it owns and on a group a peer hands it; without the unpark it
//!   would sleep out the rest of its (50 ms-bounded) park.
//! * **Rescale epochs** — with dynamic scaling on, the active-worker
//!   count moves while batches are in flight. Group ownership
//!   (`ssd % active`) migrates between workers across epochs, but each
//!   queue pair stays driven by exactly one thread: the debug-build
//!   host-owner assertion in `cam-nvme` panics the worker (hanging the
//!   ticket) if a pair is ever polled off its owning thread, so a clean
//!   run *is* the single-driver proof.

use std::sync::Arc;
use std::time::{Duration, Instant};

use cam_core::{CamConfig, CamContext, ChannelOp};
use cam_iostacks::{Rig, RigConfig};
use cam_telemetry::{MetricsRegistry, Observability};

/// Generous hang guard: actual shutdown is a few milliseconds (stop flag +
/// unpark + join); a missing wake shows up as multi-second waits or a
/// full hang once workers park without a timeout safety net.
const SHUTDOWN_BOUND: Duration = Duration::from_millis(500);

fn shutdown_elapsed(submit_first: bool) -> Duration {
    let rig = Rig::new(RigConfig {
        n_ssds: 2,
        blocks_per_ssd: 4096,
        ..RigConfig::default()
    });
    let cfg = CamConfig {
        workers: Some(2),
        ..CamConfig::default()
    };
    let cam = CamContext::attach(&rig, cfg);
    if submit_first {
        let dev = cam.device();
        let buf = cam.alloc(4 * 4096).unwrap();
        let t = dev
            .submit(0, ChannelOp::Read, &[0, 1, 2, 3], buf.addr())
            .unwrap();
        t.wait().unwrap();
    }
    // Let the workers go fully idle: they are deep in a (50 ms-bounded)
    // park by now — the exact state shutdown must punch through.
    std::thread::sleep(Duration::from_millis(60));
    let start = Instant::now();
    drop(cam);
    start.elapsed()
}

#[test]
fn shutdown_is_bounded_with_parked_workers() {
    for submit_first in [false, true] {
        let elapsed = shutdown_elapsed(submit_first);
        assert!(
            elapsed < SHUTDOWN_BOUND,
            "(submit_first={submit_first}) took {elapsed:?} to stop"
        );
    }
}

/// One warm-up batch, then nothing: every worker's windowed park ratio
/// must sit above 0.9 (measured 0.999) — an engine with no doorbell to
/// serve burns no CPU.
#[test]
fn idle_workers_park() {
    const WORKERS: usize = 2;
    let rig = Rig::new(RigConfig {
        n_ssds: 4,
        ..RigConfig::default()
    });
    let registry = Arc::new(MetricsRegistry::new());
    let cam = CamContext::attach_observed(
        &rig,
        CamConfig {
            n_channels: 4,
            workers: Some(WORKERS),
            ..CamConfig::default()
        },
        Observability::with_registry(Arc::clone(&registry)),
    );
    let buf = cam.alloc(cam.block_size() as usize).unwrap();
    cam.device()
        .submit(0, ChannelOp::Read, &[0], buf.addr())
        .unwrap()
        .wait()
        .unwrap();
    std::thread::sleep(Duration::from_millis(800));
    let snap = registry.snapshot();
    for w in 0..WORKERS {
        let milli = snap.gauge(&format!("cam_worker_park_ratio{{worker=\"{w}\"}}"));
        assert!(
            milli > 900,
            "worker {w} parked only {milli}/1000 while idle"
        );
    }
}

/// The engine's bound on one park (`MAX_PARK` in the worker loop).
const MAX_PARK: Duration = Duration::from_millis(50);

/// Two workers, one channel (owned by worker 0) and a batch striped over
/// both SSDs: worker 0 must wake on the doorbell, and worker 1 on the
/// group worker 0 hands it for SSD 1. Each round publishes 20 ms into the
/// workers' second park after the previous batch, so a missing unpark
/// makes the round wait out the other ~30 ms of that park.
#[test]
fn parked_workers_wake_on_doorbell_and_handoff() {
    const ROUNDS: usize = 10;
    let rig = Rig::new(RigConfig {
        n_ssds: 2,
        blocks_per_ssd: 4096,
        ..RigConfig::default()
    });
    let cam = CamContext::attach(
        &rig,
        CamConfig {
            n_channels: 1,
            workers: Some(2),
            dynamic_scaling: false,
            ..CamConfig::default()
        },
    );
    let dev = cam.device();
    let buf = cam.alloc(2 * 4096).unwrap();
    // Stripe width 1: LBA 0 lives on SSD 0 (worker 0), LBA 1 on SSD 1
    // (worker 1).
    assert_eq!(rig.stripe_blocks(), 1);
    let lbas = [0, 1];
    let mut latencies = Vec::with_capacity(ROUNDS);
    for _ in 0..ROUNDS {
        std::thread::sleep(MAX_PARK + Duration::from_millis(20));
        let start = Instant::now();
        dev.submit(0, ChannelOp::Read, &lbas, buf.addr())
            .unwrap()
            .wait()
            .unwrap();
        latencies.push(start.elapsed());
    }
    let fast = latencies
        .iter()
        .filter(|l| **l < Duration::from_millis(10))
        .count();
    assert!(
        fast >= 8,
        "only {fast} of {ROUNDS} rounds retired within 10 ms: {latencies:?}"
    );
    assert_eq!(cam.stats().requests, 2 * ROUNDS as u64);
}

/// Drives the scaler through shrink and grow epochs: slow I/O
/// (`burst_latency`) with back-to-back batches makes I/O the critical
/// path (grow); the same I/O behind a long host-side gap hides under
/// compute (shrink). 8 SSDs bound the scaler to [2, 4] workers.
#[test]
fn rescale_epochs_never_double_drive_a_queue_pair() {
    let rig = Rig::new(RigConfig {
        n_ssds: 8,
        blocks_per_ssd: 4096,
        burst_latency: Some(Duration::from_micros(500)),
        ..RigConfig::default()
    });
    let registry = Arc::new(MetricsRegistry::new());
    let obs = Observability::with_registry(Arc::clone(&registry));
    let cfg = CamConfig {
        n_channels: 2,
        dynamic_scaling: true,
        ..CamConfig::default()
    };
    let cam = CamContext::attach_observed(&rig, cfg, obs);
    let dev = cam.device();
    let buf = cam.alloc(16 * 4096).unwrap();
    // 16 consecutive blocks fan out across all 8 SSDs, so every batch
    // exercises the ssd % active routing at whatever the current epoch is.
    let lbas: Vec<u64> = (0..16).collect();

    let mut batches = 0u64;
    for cycle in 0..3 {
        // Compute-heavy epoch: retire → next-doorbell gaps dwarf the
        // ~0.5 ms I/O time, so the scaler walks down toward min.
        for i in 0..4 {
            let ch = (cycle + i) % 2;
            let t = dev.submit(ch, ChannelOp::Read, &lbas, buf.addr()).unwrap();
            t.wait().unwrap();
            batches += 1;
            std::thread::sleep(Duration::from_millis(4));
        }
        // I/O-heavy epoch: back-to-back batches leave no compute gap to
        // hide the injected device latency, so the scaler walks back up.
        for i in 0..4 {
            let ch = (cycle + i) % 2;
            let t = dev.submit(ch, ChannelOp::Read, &lbas, buf.addr()).unwrap();
            t.wait().unwrap();
            batches += 1;
        }
    }

    let stats = cam.stats();
    assert_eq!(stats.batches, batches, "{stats:?}");
    assert_eq!(stats.errors, 0, "{stats:?}");
    assert_eq!(stats.requests, batches * 16, "{stats:?}");

    // The run only proves epoch handoff if the active count actually
    // moved. Shrinks are deterministic (4 ms gap vs 0.5 ms I/O clears the
    // 1.3× margin); at least one rescale in either direction must land.
    let prom = registry.to_prometheus();
    let decisions = ["cam_scaler_grow_total", "cam_scaler_shrink_total"]
        .iter()
        .map(|name| counter_value(&prom, name))
        .sum::<u64>();
    assert!(
        decisions >= 1,
        "scaler never rescaled; the test exercised nothing:\n{prom}"
    );
    drop(cam);
}

fn counter_value(prom: &str, name: &str) -> u64 {
    prom.lines()
        .find_map(|l| l.strip_prefix(&format!("{name} ")))
        .and_then(|v| v.trim().parse().ok())
        .unwrap_or(0)
}
