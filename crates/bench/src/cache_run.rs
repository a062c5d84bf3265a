//! Cache-mode benchmark: the same repeated-access workloads driven through
//! the uncached [`CamDevice`](cam_core::CamDevice) and through
//! [`CachedDevice`](cam_cache::CachedDevice), on separate registries, so
//! the NVMe-submission and doorbell→retire deltas attribute entirely to
//! the cache layer. The sweep axis is the cache size in slots.

use std::sync::Arc;

use cam_cache::{CacheConfig, CachedDevice};
use cam_core::{CamConfig, CamContext};
use cam_iostacks::{Rig, RigConfig};
use cam_simkit::dist::{seeded_rng, Zipf};
use cam_telemetry::{FlightRecorder, MetricsRegistry, MetricsSnapshot, Observability};

/// Default Zipf-draw seed for the DLRM workload (`repro --seed` overrides
/// it; the sequential scan is seed-free).
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

    /// The batched LBA trace at the default seed: identical for the cached
    /// and uncached runs.
    #[cfg(test)]
    fn batches(self) -> Vec<Vec<u64>> {
        self.batches_seeded(DEFAULT_CACHE_SEED)
    }

    /// [`Self::batches`] with an explicit seed for the stochastic draws.
    fn batches_seeded(self, seed: u64) -> Vec<Vec<u64>> {
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
    /// Mean doorbell→retire latency of read batches, uncached (ns).
    pub uncached_read_mean_ns: f64,
    /// Mean doorbell→retire latency of demand read batches, cached (ns).
    pub cached_read_mean_ns: f64,
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

fn bench_rig() -> Rig {
    Rig::new(RigConfig {
        n_ssds: 4,
        blocks_per_ssd: 4096,
        ..RigConfig::default()
    })
}

fn read_mean_ns(snap: &MetricsSnapshot) -> f64 {
    snap.histogram("cam_batch_total_ns{channel=\"0\",op=\"read\"}")
        .map(|h| h.mean)
        .unwrap_or(0.0)
}

/// Drives `workload` through the plain device and returns
/// `(submissions, read_mean_ns)`.
fn run_uncached(workload: CacheWorkload, seed: u64) -> (u64, f64) {
    let rig = bench_rig();
    let registry = Arc::new(MetricsRegistry::new());
    let cam = CamContext::attach_observed(
        &rig,
        CamConfig::default(),
        Observability::with_registry(Arc::clone(&registry)),
    );
    let dev = cam.device();
    let bs = cam.block_size() as usize;
    let buf = cam.alloc(64 * bs).expect("dest buffer");
    for batch in workload.batches_seeded(seed) {
        dev.prefetch(&batch, buf.addr()).expect("prefetch");
        dev.prefetch_synchronize().expect("synchronize");
    }
    let snap = registry.snapshot();
    (
        snap.sum_counters("cam_ssd_submitted_total"),
        read_mean_ns(&snap),
    )
}

/// Drives `workload` through a [`CachedDevice`] with `slots` cache blocks;
/// optionally records the run into `recorder`. Returns the final snapshot.
pub fn run_cached(
    workload: CacheWorkload,
    slots: usize,
    recorder: Option<Arc<FlightRecorder>>,
) -> MetricsSnapshot {
    run_cached_seeded(workload, slots, DEFAULT_CACHE_SEED, recorder)
}

/// [`run_cached`] with an explicit workload seed.
pub fn run_cached_seeded(
    workload: CacheWorkload,
    slots: usize,
    seed: u64,
    recorder: Option<Arc<FlightRecorder>>,
) -> MetricsSnapshot {
    let rig = bench_rig();
    let registry = Arc::new(MetricsRegistry::new());
    let mut obs = Observability::with_registry(Arc::clone(&registry));
    obs.recorder = recorder;
    let cam = CamContext::attach_observed(
        &rig,
        CamConfig {
            n_channels: 3,
            ..CamConfig::default()
        },
        obs,
    );
    let dev = CachedDevice::attach(&rig, &cam, CacheConfig::with_slots(slots))
        .expect("cache fits GPU memory");
    let bs = cam.block_size() as usize;
    let buf = cam.alloc(64 * bs).expect("dest buffer");
    for batch in workload.batches_seeded(seed) {
        dev.prefetch(&batch, buf.addr()).expect("prefetch");
        dev.prefetch_synchronize().expect("synchronize");
    }
    registry.snapshot()
}

/// Runs one sweep cell: the workload uncached, then cached with `slots`.
pub fn run_cache_cell(workload: CacheWorkload, slots: usize) -> CacheWorkloadReport {
    run_cache_cell_seeded(workload, slots, DEFAULT_CACHE_SEED)
}

/// [`run_cache_cell`] with an explicit workload seed.
pub fn run_cache_cell_seeded(
    workload: CacheWorkload,
    slots: usize,
    seed: u64,
) -> CacheWorkloadReport {
    let accesses: u64 = workload
        .batches_seeded(seed)
        .iter()
        .map(|b| b.len() as u64)
        .sum();
    let (uncached_submissions, uncached_read_mean_ns) = run_uncached(workload, seed);
    let snap = run_cached_seeded(workload, slots, seed, None);
    let hits = snap.counter("cam_cache_hits_total");
    let misses = snap.counter("cam_cache_misses_total");
    let coalesced = snap.counter("cam_cache_coalesced_total");
    let demand = hits + misses + coalesced;
    let issued = snap.counter("cam_cache_readahead_issued_total");
    CacheWorkloadReport {
        workload: workload.name(),
        slots,
        accesses,
        uncached_submissions,
        cached_submissions: snap.sum_counters("cam_ssd_submitted_total"),
        uncached_read_mean_ns,
        cached_read_mean_ns: read_mean_ns(&snap),
        cache_hit_rate: if demand == 0 {
            0.0
        } else {
            hits as f64 / demand as f64
        },
        coalesced_misses: coalesced,
        readahead_accuracy: (issued > 0)
            .then(|| snap.counter("cam_cache_readahead_hits_total") as f64 / issued as f64),
    }
}

/// The full sweep: every workload × cache size, small-to-large.
pub fn run_cache_sweep(slot_sizes: &[usize]) -> Vec<CacheWorkloadReport> {
    run_cache_sweep_seeded(slot_sizes, DEFAULT_CACHE_SEED)
}

/// [`run_cache_sweep`] with an explicit workload seed.
pub fn run_cache_sweep_seeded(slot_sizes: &[usize], seed: u64) -> Vec<CacheWorkloadReport> {
    let mut out = Vec::with_capacity(CacheWorkload::ALL.len() * slot_sizes.len());
    for workload in CacheWorkload::ALL {
        for &slots in slot_sizes {
            out.push(run_cache_cell_seeded(workload, slots, seed));
        }
    }
    out
}

/// The `"cache"` section of `BENCH_repro.json`: one object per sweep cell.
pub fn cache_section_json(reports: &[CacheWorkloadReport]) -> String {
    use std::fmt::Write as _;
    let mut out = String::from("[\n");
    for (i, r) in reports.iter().enumerate() {
        let ra = match r.readahead_accuracy {
            Some(a) => format!("{a:.4}"),
            None => "null".into(),
        };
        let _ = write!(
            out,
            "    {{\"workload\": \"{}\", \"slots\": {}, \"accesses\": {}, \
             \"uncached_submissions\": {}, \"cached_submissions\": {}, \
             \"submission_ratio\": {:.2}, \"uncached_read_mean_ns\": {:.0}, \
             \"cached_read_mean_ns\": {:.0}, \"cache_hit_rate\": {:.4}, \
             \"coalesced_misses\": {}, \"readahead_accuracy\": {}}}",
            r.workload,
            r.slots,
            r.accesses,
            r.uncached_submissions,
            r.cached_submissions,
            r.submission_ratio(),
            r.uncached_read_mean_ns,
            r.cached_read_mean_ns,
            r.cache_hit_rate,
            r.coalesced_misses,
            ra,
        );
        out.push_str(if i + 1 < reports.len() { ",\n" } else { "\n" });
    }
    out.push_str("  ]");
    out
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn traces_are_deterministic_and_sized() {
        let a = CacheWorkload::DlrmZipf.batches();
        let b = CacheWorkload::DlrmZipf.batches();
        assert_eq!(a, b, "seeded trace must be reproducible");
        assert_eq!(a.len(), 64);
        assert!(a.iter().all(|batch| batch.len() == 64));
        let s = CacheWorkload::SeqScan.batches();
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
        // The acceptance bar's deterministic half: on the repeated-access
        // workload, cached mode does >= 2x fewer NVMe submissions. Its
        // wall-clock half — a lower mean doorbell->retire latency than
        // uncached — is asserted on the `"cache"` section by CI's
        // `repro bench` smoke, on a release build.
        let r = run_cache_cell(CacheWorkload::DlrmZipf, 2048);
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
        let r = run_cache_cell(CacheWorkload::SeqScan, 2048);
        let acc = r.readahead_accuracy.expect("sequential stream speculated");
        assert!(acc > 0.0, "speculation never hit");
        // Epoch 2 re-reads everything: with the whole scan resident the
        // hit rate must be at least ~half.
        assert!(r.cache_hit_rate >= 0.4, "hit rate {}", r.cache_hit_rate);
    }

    #[test]
    fn cache_json_section_is_balanced() {
        let reports = vec![CacheWorkloadReport {
            workload: "dlrm_zipf",
            slots: 256,
            accesses: 4096,
            uncached_submissions: 4096,
            cached_submissions: 700,
            uncached_read_mean_ns: 100_000.0,
            cached_read_mean_ns: 40_000.0,
            cache_hit_rate: 0.81,
            coalesced_misses: 120,
            readahead_accuracy: None,
        }];
        let json = cache_section_json(&reports);
        assert_eq!(json.matches('{').count(), json.matches('}').count());
        assert!(json.contains("\"cache_hit_rate\": 0.8100"));
        assert!(json.contains("\"readahead_accuracy\": null"));
    }
}
