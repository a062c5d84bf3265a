//! The cached DES run against literals taken from commit 00d511d, the last
//! one whose `cam-simkit` calendar was a single binary heap: virtual time,
//! decisions and the recorded `SimIssue`/`SimComplete` sequence of a small
//! fixed run must not move when the calendar's storage does. (The uncached
//! drivers are pinned in `cam-iostacks`' `tests/des_identity.rs`.)

use std::sync::Arc;

use cam_cache::{run_cam_des_cached, CacheConfig, ReadaheadConfig};
use cam_iostacks::cam_des::{CamDesConfig, CamDesObs};
use cam_telemetry::FlightRecorder;

/// Everything the run decides, floats by their bits.
#[derive(Debug, PartialEq)]
struct Outcome {
    duration_ns: u64,
    batches: u64,
    commands: u64,
    bytes: u64,
    des_decisions: [u64; 8],
    cache_decisions: [u64; 8],
    mean_batch_ns_bits: u64,
    inflight_mean_bits: Vec<u64>,
    inflight_peak: Vec<u64>,
    events: usize,
    events_fnv: u64,
}

/// Re-references, in-batch duplicates, sequential runs and enough distinct
/// blocks to thrash a 32-slot cache: hits, coalescing, readahead and
/// evictions all occur.
fn workload() -> Vec<Vec<u64>> {
    (0u64..14)
        .map(|round| {
            let base = round * 8;
            let mut lbas: Vec<u64> = (base..base + 8).collect();
            lbas.push(base);
            if round >= 2 {
                lbas.push((round - 2) * 8);
            }
            lbas
        })
        .collect()
}

fn run() -> Outcome {
    let cfg = CamDesConfig {
        queue_depth: 8,
        ..CamDesConfig::calibrated(3, 2)
    };
    let cache_cfg = CacheConfig {
        slots: 32,
        shards: 4,
        flush_batch: 8,
        readahead: ReadaheadConfig::default(),
    };
    let rec = Arc::new(FlightRecorder::with_capacity(1 << 14));
    let (r, counters) = run_cam_des_cached(
        cfg,
        cache_cfg,
        4096,
        workload(),
        Some(Arc::clone(&rec)),
        CamDesObs::default(),
    );
    assert_eq!(rec.dropped(), 0, "the hash covers the whole sequence");
    let events = rec.snapshot();
    let mut fnv = 0xCBF2_9CE4_8422_2325u64;
    for e in &events {
        for b in format!("{} {:?}\n", e.ts_ns, e.kind).bytes() {
            fnv = (fnv ^ u64::from(b)).wrapping_mul(0x0000_0100_0000_01B3);
        }
    }
    Outcome {
        duration_ns: r.duration.as_ns(),
        batches: r.batches,
        commands: r.commands,
        bytes: r.bytes,
        des_decisions: r.decisions.fields().map(|(_, v)| v),
        cache_decisions: counters.fields().map(|(_, v)| v),
        mean_batch_ns_bits: r.mean_batch_ns.to_bits(),
        inflight_mean_bits: r.inflight_mean.iter().map(|m| m.to_bits()).collect(),
        inflight_peak: r.inflight_peak,
        events: events.len(),
        events_fnv: fnv,
    }
}

#[test]
fn cached_des_reproduces_the_single_heap_calendar_exactly() {
    let golden = Outcome {
        duration_ns: 539_642,
        batches: 24,
        commands: 224,
        bytes: 917_504,
        des_decisions: [24, 224, 0, 0, 58, 224, 0, 0],
        cache_decisions: [84, 47, 7, 192, 0, 0, 177, 74],
        mean_batch_ns_bits: 4_674_707_573_936_837_973,
        inflight_mean_bits: vec![
            4_613_483_758_703_961_214,
            4_613_374_002_438_697_645,
            4_613_337_686_855_813_987,
        ],
        inflight_peak: vec![8, 8, 8],
        events: 448,
        events_fnv: 2_497_830_405_419_823_333,
    };
    assert_eq!(run(), golden);
}
