//! Cache-mode benchmark: the same repeated-access workloads driven through
//! the uncached [`CamDevice`](cam_core::CamDevice) and through
//! [`CachedDevice`](cam_cache::CachedDevice), on separate registries, so
//! the NVMe-submission and doorbell→retire deltas attribute entirely to
//! the cache layer. The sweep axis is the cache size in slots.

use std::sync::Arc;

use cam_cache::{run_cam_des_cached, CacheConfig};
use cam_core::{run_threaded_source, CamConfig, ChannelOp};
use cam_iostacks::cam_des::{run_cam_des_source, CamDesBatch, CamDesObs, StaticSource};
use cam_iostacks::{Rig, RigConfig};
use cam_nvme::SsdModel;
use cam_simkit::dist::{seeded_rng, Zipf};
use cam_telemetry::{FlightRecorder, MetricsRegistry, Observability};

use crate::fidelity_run::{des_config, read_mean_ns, run_threaded_cached};
use crate::figures::require;

/// The Zipf-draw seed of the DLRM workload `repro cache` runs (the
/// sequential scan is seed-free).
pub const DEFAULT_CACHE_SEED: u64 = 0xD78;

/// Access-pattern shapes the cache is evaluated on.
#[derive(Clone, Copy, PartialEq, Eq, Debug)]
pub enum CacheWorkload {
    /// DLRM-style embedding lookups: Zipf-skewed batches over a table, so
    /// hot rows repeat both across batches (hits) and within one batch
    /// (coalesced misses).
    DlrmZipf,
    /// GNN-style feature scan: sequential batches, repeated for a second
    /// epoch — the stream the readahead engine is built for.
    SeqScan,
}

impl CacheWorkload {
    /// Both workloads, in report order.
    pub const ALL: [CacheWorkload; 2] = [CacheWorkload::DlrmZipf, CacheWorkload::SeqScan];

    /// Report label.
    pub fn name(self) -> &'static str {
        match self {
            CacheWorkload::DlrmZipf => "dlrm_zipf",
            CacheWorkload::SeqScan => "seq_scan",
        }
    }

    /// The batched LBA trace (`seed` drives the stochastic draws):
    /// identical for the cached and uncached runs.
    fn batches(self, seed: u64) -> Vec<Vec<u64>> {
        match self {
            CacheWorkload::DlrmZipf => {
                // 64 pooled lookups per iteration over a 2048-row table,
                // skew 1.1 (TorchRec-like hot-row concentration).
                let zipf = Zipf::new(2048, 1.1);
                let mut rng = seeded_rng(seed);
                (0..64)
                    .map(|_| (0..64).map(|_| zipf.sample(&mut rng) - 1).collect())
                    .collect()
            }
            CacheWorkload::SeqScan => {
                // Two epochs over 1024 blocks in 32-block batches.
                (0..2)
                    .flat_map(|_| (0..32u64).map(|b| (b * 32..(b + 1) * 32).collect()))
                    .collect()
            }
        }
    }
}

/// One (workload, cache size) cell of the sweep.
#[derive(Clone, Debug)]
pub struct CacheWorkloadReport {
    /// Workload label (`dlrm_zipf`, `seq_scan`).
    pub workload: &'static str,
    /// Cache capacity in blocks for the cached run.
    pub slots: usize,
    /// Demand block accesses in the trace.
    pub accesses: u64,
    /// NVMe commands submitted by the uncached run.
    pub uncached_submissions: u64,
    /// NVMe commands submitted by the cached run (demand + readahead).
    pub cached_submissions: u64,
    /// Mean doorbell→retire latency of read batches, uncached (ns). Wall
    /// clock on a memory-speed rig: information, not a bar.
    pub uncached_read_mean_ns: f64,
    /// Mean doorbell→retire latency of demand read batches, cached (ns).
    /// Wall clock, as above.
    pub cached_read_mean_ns: f64,
    /// Virtual time the DES driver takes for the whole trace, uncached (ns).
    pub uncached_des_ns: u64,
    /// The same with the cache stage in the path (ns): exact per seed, so
    /// this pair is what the latency bar judges.
    pub cached_des_ns: u64,
    /// Cache hit fraction over all demand accesses.
    pub cache_hit_rate: f64,
    /// Demand misses absorbed by an already in-flight fill.
    pub coalesced_misses: u64,
    /// Fraction of speculative blocks that served a demand access; `None`
    /// when the workload never triggered readahead.
    pub readahead_accuracy: Option<f64>,
}

impl CacheWorkloadReport {
    /// Uncached / cached submission ratio (the headline saving).
    pub fn submission_ratio(&self) -> f64 {
        if self.cached_submissions == 0 {
            f64::INFINITY
        } else {
            self.uncached_submissions as f64 / self.cached_submissions as f64
        }
    }
}

const N_SSDS: usize = 4;
const BLOCKS_PER_SSD: u64 = 4096;

/// The full sweep: every workload × cache size, small-to-large. Each
/// workload's trace is drawn once, and its slot-independent uncached
/// baseline runs once, threaded and on the DES; then each size runs the
/// trace cached, threaded (quiescing between batches, so its counts are
/// exact) and through the DES cache stage. Every DES run keeps one batch in
/// flight, as the threaded runs do. The cached `seq_scan` run at the
/// largest size is recorded into `recorder`.
pub fn run_cache_sweep(
    slot_sizes: &[usize],
    seed: u64,
    recorder: &Arc<FlightRecorder>,
) -> Vec<CacheWorkloadReport> {
    let rig = || {
        Rig::new(RigConfig {
            n_ssds: N_SSDS,
            blocks_per_ssd: BLOCKS_PER_SSD,
            ..RigConfig::default()
        })
    };
    let des_cfg = || des_config(N_SSDS, 1, true, SsdModel::p5510());
    let largest = slot_sizes.iter().copied().max();
    let mut out = Vec::with_capacity(CacheWorkload::ALL.len() * slot_sizes.len());
    for workload in CacheWorkload::ALL {
        let batches = workload.batches(seed);
        let plain = || {
            let batches = batches.iter().map(|lbas| CamDesBatch {
                lbas: lbas.clone(),
                blocks: 1,
            });
            StaticSource::new(vec![batches.collect()], ChannelOp::Read)
        };
        let registry = Arc::new(MetricsRegistry::new());
        let obs = Observability::with_registry(Arc::clone(&registry));
        run_threaded_source(&rig(), CamConfig::default(), obs, &mut plain());
        let uncached = registry.snapshot();
        let uncached_des =
            run_cam_des_source(des_cfg(), 1, Box::new(plain()), None, CamDesObs::default());
        for &slots in slot_sizes {
            let registry = Arc::new(MetricsRegistry::new());
            let mut obs = Observability::with_registry(Arc::clone(&registry));
            let traced = workload == CacheWorkload::SeqScan && Some(slots) == largest;
            obs.recorder = traced.then(|| Arc::clone(recorder));
            let cache = CacheConfig::with_slots(slots);
            let cached = run_threaded_cached(&rig(), CamConfig::default(), obs, cache, &batches);
            let (cached_des, _) = run_cam_des_cached(
                des_cfg(),
                cache,
                N_SSDS as u64 * BLOCKS_PER_SSD,
                batches.clone(),
                None,
                CamDesObs::default(),
            );
            let c = cached.counters;
            let demand = c.hits + c.misses + c.coalesced;
            out.push(CacheWorkloadReport {
                workload: workload.name(),
                slots,
                accesses: batches.iter().map(|b| b.len() as u64).sum(),
                uncached_submissions: uncached.sum_counters("cam_ssd_submitted_total"),
                cached_submissions: registry.snapshot().sum_counters("cam_ssd_submitted_total"),
                uncached_read_mean_ns: read_mean_ns(&uncached),
                cached_read_mean_ns: cached.mean_read_ns as f64,
                uncached_des_ns: uncached_des.duration.as_ns(),
                cached_des_ns: cached_des.duration.as_ns(),
                cache_hit_rate: if demand == 0 {
                    0.0
                } else {
                    c.hits as f64 / demand as f64
                },
                coalesced_misses: c.coalesced,
                readahead_accuracy: (c.readahead_issued > 0)
                    .then(|| c.readahead_hits as f64 / c.readahead_issued as f64),
            });
        }
    }
    out
}

/// Minimum uncached/cached NVMe-submission ratio on the repeated-access
/// workload at the largest cache size.
pub const ZIPF_MIN_SUBMISSION_RATIO: f64 = 2.0;

/// The acceptance bars, judged on the largest `dlrm_zipf` cell: the cache
/// hits, saves at least [`ZIPF_MIN_SUBMISSION_RATIO`]x NVMe submissions,
/// and takes less virtual time on the DES driver than the uncached trace —
/// all three deterministic per seed. The latency clause is judged in
/// virtual time because two wall-clock means of ~27 µs batches on a
/// memory-speed rig are noise on a loaded box.
pub fn bars(reports: &[CacheWorkloadReport]) -> Vec<String> {
    let mut failed = Vec::new();
    let zipf = reports
        .iter()
        .filter(|r| r.workload == CacheWorkload::DlrmZipf.name())
        .max_by_key(|r| r.slots);
    let Some(z) = zipf else {
        return vec!["sweep has no dlrm_zipf cell".into()];
    };
    require(
        &mut failed,
        z.cache_hit_rate > 0.0,
        "dlrm_zipf never hit the cache".into(),
    );
    require(
        &mut failed,
        z.submission_ratio() >= ZIPF_MIN_SUBMISSION_RATIO,
        format!(
            "dlrm_zipf saves only {:.2}x submissions ({} vs {}), below \
             ZIPF_MIN_SUBMISSION_RATIO {ZIPF_MIN_SUBMISSION_RATIO}",
            z.submission_ratio(),
            z.uncached_submissions,
            z.cached_submissions
        ),
    );
    require(
        &mut failed,
        z.cached_des_ns < z.uncached_des_ns,
        format!(
            "dlrm_zipf cached trace takes {} virtual ns, not below uncached {}",
            z.cached_des_ns, z.uncached_des_ns
        ),
    );
    failed
}

#[cfg(test)]
mod tests {
    use super::*;

    /// The sweep's cell for `workload` at `slots` alone.
    fn cell(workload: CacheWorkload, slots: usize) -> CacheWorkloadReport {
        let rec = Arc::new(FlightRecorder::new());
        run_cache_sweep(&[slots], DEFAULT_CACHE_SEED, &rec)
            .into_iter()
            .find(|r| r.workload == workload.name())
            .expect("the sweep runs every workload")
    }

    #[test]
    fn traces_are_deterministic_and_sized() {
        let a = CacheWorkload::DlrmZipf.batches(DEFAULT_CACHE_SEED);
        let b = CacheWorkload::DlrmZipf.batches(DEFAULT_CACHE_SEED);
        assert_eq!(a, b, "seeded trace must be reproducible");
        assert_eq!(a.len(), 64);
        assert!(a.iter().all(|batch| batch.len() == 64));
        let s = CacheWorkload::SeqScan.batches(DEFAULT_CACHE_SEED);
        assert_eq!(s.len(), 64);
        assert_eq!(s[0], (0..32).collect::<Vec<u64>>());
        assert_eq!(
            s[32],
            (0..32).collect::<Vec<u64>>(),
            "second epoch restarts"
        );
    }

    #[test]
    fn zipf_cell_meets_the_acceptance_bar() {
        // On the repeated-access workload, cached mode does >= 2x fewer
        // NVMe submissions and takes less virtual time.
        let r = cell(CacheWorkload::DlrmZipf, 2048);
        assert_eq!(bars(std::slice::from_ref(&r)), Vec::<String>::new());
        assert!(r.cache_hit_rate > 0.5, "hit rate {}", r.cache_hit_rate);
        assert!(
            r.submission_ratio() >= 2.0,
            "only {:.2}x fewer submissions ({} vs {})",
            r.submission_ratio(),
            r.uncached_submissions,
            r.cached_submissions
        );
        assert!(r.coalesced_misses > 0, "zipf batches repeat rows in-batch");
    }

    #[test]
    fn seq_scan_exercises_readahead() {
        let r = cell(CacheWorkload::SeqScan, 2048);
        let acc = r.readahead_accuracy.expect("sequential stream speculated");
        assert!(acc > 0.0, "speculation never hit");
        // Epoch 2 re-reads everything: with the whole scan resident the
        // hit rate must be at least ~half.
        assert!(r.cache_hit_rate >= 0.4, "hit rate {}", r.cache_hit_rate);
    }

    #[test]
    fn seq_scan_counts_are_exact_and_equal_the_des_cache_stage() {
        // The count columns of each seq_scan cell: slots, submissions, hit
        // rate, coalesced misses, readahead accuracy.
        type Counts = (usize, u64, f64, u64, Option<f64>);
        let sweep = || -> Vec<Counts> {
            let rec = Arc::new(FlightRecorder::new());
            let reports = run_cache_sweep(&[256, 2048], DEFAULT_CACHE_SEED, &rec);
            let seq = reports.iter().filter(|r| r.workload == "seq_scan");
            seq.map(|r| {
                let (subs, ra) = (r.cached_submissions, r.readahead_accuracy);
                (r.slots, subs, r.cache_hit_rate, r.coalesced_misses, ra)
            })
            .collect()
        };
        let first = sweep();
        assert_eq!(first, sweep(), "two sweeps printed different counts");
        let batches = CacheWorkload::SeqScan.batches(DEFAULT_CACHE_SEED);
        let des: Vec<Counts> = first
            .iter()
            .map(|&(slots, ..)| {
                let (r, c) = run_cam_des_cached(
                    des_config(N_SSDS, 1, true, SsdModel::p5510()),
                    CacheConfig::with_slots(slots),
                    N_SSDS as u64 * BLOCKS_PER_SSD,
                    batches.clone(),
                    None,
                    CamDesObs::default(),
                );
                let hit_rate = c.hits as f64 / (c.hits + c.misses + c.coalesced) as f64;
                let accuracy = c.readahead_hits as f64 / c.readahead_issued as f64;
                (
                    slots,
                    r.decisions.sqes,
                    hit_rate,
                    c.coalesced,
                    Some(accuracy),
                )
            })
            .collect();
        assert_eq!(
            first, des,
            "threaded counts differ from the DES cache stage's"
        );
    }

    #[test]
    fn cache_table_rounds_at_the_build_site() {
        let reports = vec![CacheWorkloadReport {
            workload: "dlrm_zipf",
            slots: 256,
            accesses: 4096,
            uncached_submissions: 4096,
            cached_submissions: 700,
            uncached_read_mean_ns: 100_000.4,
            cached_read_mean_ns: 140_000.0,
            uncached_des_ns: 2_000_000,
            cached_des_ns: 900_000,
            cache_hit_rate: 0.81004,
            coalesced_misses: 120,
            readahead_accuracy: None,
        }];
        let table = crate::figures::cache_table(&reports);
        let cell = |column| table.find("dlrm_zipf", column);
        assert_eq!(cell("hit rate"), Some("81.0%"));
        assert_eq!(cell("ratio"), Some("5.85x"));
        assert_eq!(cell("read mean delta"), Some("+40%"));
        assert_eq!(cell("DES time delta"), Some("-55%"));
        assert_eq!(cell("ra accuracy"), Some("-"));
        // The wall-clock means are information only: cached reads slower
        // here, and no bar fails.
        assert_eq!(bars(&reports), Vec::<String>::new());
    }
}
