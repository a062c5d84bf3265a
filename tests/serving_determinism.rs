//! Golden virtual-time pin for the serving plane.
//!
//! A small seeded `run_serving_des` (4 tenants, one hot with skewed
//! sessions, a GPU budget of one and a half sessions, throttling buckets) must
//! reproduce these numbers exactly under both policies. The literals were
//! captured on the commit *before* the session table got its LRU index and
//! slot handles, so they pin that every admission, eviction, scheduling
//! and retirement decision is unchanged by fast-path work in
//! `cam-serving`. A deliberate policy change updates them in the same PR.

use std::sync::Arc;

use cam::serving::{run_serving_des, AdmissionConfig, Policy, ServingConfig, ServingCore};
use cam::workloads::kv_cache::KvCacheConfig;
use parking_lot::Mutex;

/// Everything the run decides, in virtual time.
#[derive(Debug, PartialEq)]
struct Outcome {
    duration_ns: u64,
    batches: [u64; 3],
    blocks: [u64; 3],
    evictions: u64,
    /// Per tenant: completed, hits, accesses, throttled, p50_ns, p99_ns.
    tenants: [[u64; 6]; 4],
    /// What the DES substrate reports underneath: batches, commands, bytes,
    /// groups, SQEs, mean batch latency (f64 bits), then per SSD the peak
    /// and the time-weighted mean (f64 bits) device depth. Captured on the
    /// last commit whose event calendar was a single binary heap (00d511d).
    substrate: [u64; 10],
}

fn run(policy: Policy) -> Outcome {
    let mut wl = KvCacheConfig::uniform(4, 1, 1);
    wl.sessions = vec![96, 8, 8, 8];
    wl.steps = vec![1200, 100, 100, 100];
    wl.zipf_exponent = 0.6;
    wl.seed = 0xCA11;
    let mut cfg = ServingConfig::for_workload(wl, policy);
    cfg.gpu_budget_blocks = cfg.workload.session_blocks * 3 / 2;
    cfg.max_batch_blocks = 16;
    // The hot tenant's bucket outruns the array, so a demand backlog stands
    // (DRR and FIFO then differ); the cold buckets throttle.
    cfg.admission = [
        (3_000_000.0, 192.0),
        (40_000.0, 24.0),
        (40_000.0, 24.0),
        (40_000.0, 24.0),
    ]
    .iter()
    .map(|&(rate_blocks_per_s, burst_blocks)| AdmissionConfig {
        rate_blocks_per_s,
        burst_blocks,
    })
    .collect();
    let core = Arc::new(Mutex::new(ServingCore::new(cfg, None)));
    let (run, des) = run_serving_des(core, 2);
    let s = run.stats;
    let substrate = [
        des.batches,
        des.commands,
        des.bytes,
        des.decisions.groups,
        des.decisions.sqes,
        des.mean_batch_ns.to_bits(),
        des.inflight_peak[0],
        des.inflight_peak[1],
        des.inflight_mean[0].to_bits(),
        des.inflight_mean[1].to_bits(),
    ];
    let mut tenants = [[0; 6]; 4];
    for (row, t) in tenants.iter_mut().zip(&s.tenants) {
        *row = [
            t.completed,
            t.hits,
            t.accesses,
            t.throttled,
            t.p50_ns,
            t.p99_ns,
        ];
    }
    Outcome {
        duration_ns: s.duration_ns,
        batches: s.batches,
        blocks: s.blocks,
        evictions: s.evictions,
        tenants,
        substrate,
    }
}

#[test]
fn drr_run_matches_the_golden_virtual_time_outcome() {
    let golden = Outcome {
        duration_ns: 15_256_378,
        batches: [187, 138, 174],
        blocks: [2227, 2193, 1912],
        evictions: 590,
        tenants: [
            [1200, 3109, 4416, 34, 0, 1_066_659],
            [100, 28, 368, 97, 29_620, 65_625],
            [100, 88, 368, 97, 29_620, 60_657],
            [100, 68, 368, 97, 29_620, 61_943],
        ],
        substrate: [
            499,
            6272,
            25_690_112,
            997,
            6272,
            4_677_889_879_488_226_183,
            24,
            24,
            4_621_910_875_751_972_069,
            4_621_775_051_537_043_952,
        ],
    };
    assert_eq!(run(Policy::Drr), golden);
}

#[test]
fn fifo_run_matches_the_golden_virtual_time_outcome() {
    let golden = Outcome {
        duration_ns: 15_258_538,
        batches: [187, 138, 171],
        blocks: [2256, 2193, 1888],
        evictions: 583,
        tenants: [
            [1200, 2989, 4416, 40, 0, 953_447],
            [100, 60, 368, 97, 29_620, 946_582],
            [100, 118, 368, 97, 27_958, 939_833],
            [100, 97, 368, 97, 29_620, 951_474],
        ],
        substrate: [
            496,
            6261,
            25_645_056,
            991,
            6261,
            4_677_929_764_899_013_137,
            25,
            25,
            4_621_916_564_966_454_407,
            4_621_771_097_304_601_908,
        ],
    };
    assert_eq!(run(Policy::Fifo), golden);
}
