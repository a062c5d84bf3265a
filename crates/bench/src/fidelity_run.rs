//! Model-fidelity experiment: one seeded workload, two drivers of the same
//! protocol layer.
//!
//! The threaded control plane (`cam-core`) and the DES driver
//! (`cam_iostacks::cam_des`) both execute `cam-protocol`'s state machines.
//! This experiment drives a matched multi-channel read workload — with
//! duplicate LBAs and stripe-boundary crossings, so the planner has real
//! decisions to make — through both, in pipelined and blocking mode, and
//! compares:
//!
//! * **Decisions** ([`DecisionCounters`]): batches, requests, dedup drops,
//!   stripe splits, groups, first submissions, retries, timeouts. These are
//!   timing-independent, so all four runs must agree *exactly* with a pure
//!   `plan_batch` replay.
//! * **Timing trends**: per-SSD in-flight depth and doorbell→retire
//!   latency. The rig injects a 200 µs service latency and the DES runs a
//!   device model matched to it (`rig_matched_ssd_model`), so the depth
//!   regimes are directly comparable; agreement is judged on the reported
//!   depth relative error and on whether both drivers see the pipelined
//!   reactor beat the blocking baseline — in latency, and on the threaded
//!   driver in in-flight depth on every SSD (one worker owns all four, so
//!   depth beyond one group's commands is cross-batch overlap).
//! * **Cache decisions** ([`CachedFidelityReport`]): the same seeded
//!   cached read stream through the threaded [`CachedDevice`] and the DES
//!   cached source, pipelined and blocking — every run's
//!   [`CacheDecisionCounters`] must equal the pure
//!   [`replay_read_workload`] exactly.
//!
//! `repro fidelity` prints all of it; see `docs/TIMING.md` for the
//! methodology.

use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::Arc;
use std::time::Duration;

use cam_cache::{run_cam_des_cached, CacheConfig, CachedDevice};
use cam_core::{CamConfig, CamContext, ChannelOp, ControlStats};
use cam_iostacks::cam_des::{run_cam_des_obs, CamDesBatch, CamDesConfig, CamDesObs};
use cam_iostacks::{Rig, RigConfig};
use cam_nvme::SsdModel;
use cam_protocol::cache_core::{replay_read_workload, CacheDecisionCounters};
use cam_protocol::{replay_plan_workload, DecisionCounters, PlanConfig};
use cam_telemetry::{
    ControlMetrics, FlightRecorder, Gauge, MetricsRegistry, MetricsSnapshot, Observability,
};

use crate::figures::require;
use crate::Lcg;

/// SSDs in the array (both drivers).
pub const N_SSDS: usize = 4;
/// Channels driven concurrently (both drivers).
pub const N_CHANNELS: usize = 4;
pub(crate) const STRIPE_BLOCKS: u64 = 2;
pub(crate) const BLOCK_SIZE: u32 = 4096;
/// Blocks per request: 2 blocks starting at an odd LBA cross a stripe
/// boundary, so roughly half the surviving requests split.
const BLOCKS_PER_REQ: u32 = 2;
const BATCH_REQS: usize = 16;
/// Per-channel LBA window; 16 picks per batch from 96 slots makes
/// duplicate LBAs (and thus dedup decisions) near-certain.
const LBA_WINDOW: u64 = 96;
/// Injected functional-rig service latency per burst: slow enough that
/// overlap (or its absence) dominates the measured latency.
const SERVICE_LATENCY: Duration = Duration::from_micros(200);
/// The workload seed `repro fidelity` runs (tests drive others).
pub const DEFAULT_SEED: u64 = 0x5EED_CAFE;

/// CI tolerance on the **pipelined** per-SSD in-flight depth relative
/// error between drivers ([`FidelityReport::depth_rel_err`]). The DES and
/// the threaded rig measure depth differently (exact time-weighted
/// integral vs. 20 µs wall-clock sampling) and the mock device's
/// burst-sleep service discipline is only approximated by the DES server
/// model, so the depths agree in regime, not in digits: with the DES
/// device matched to the rig's injected service latency
/// (`rig_matched_ssd_model`) the seeded workload lands ≈ 0.2–0.4
/// relative error. 0.5 flags a driver whose depth regime collapsed (e.g.
/// pipelining silently lost) while absorbing sampling noise. One of the
/// wall-clock clauses of [`timing_bars`].
pub const DEPTH_REL_ERR_TOLERANCE: f64 = 0.5;
/// CI tolerance on the functional-over-DES **blocking** mean
/// doorbell→retire latency ([`FidelityReport::blocking_latency_ratio`]),
/// as a relative distance from 1. A blocking run is a chain of
/// device-service rounds with nothing overlapping them, so its mean is the
/// device the rig actually runs: ±10 % says the rig's injected latency is
/// the one `rig_matched_ssd_model` gives the DES. One of the wall-clock
/// clauses of [`timing_bars`].
pub const BLOCKING_LATENCY_TOLERANCE: f64 = 0.10;
/// Sanity window on the DES-over-functional speedup ratio: wall clock and
/// virtual time differ by design, so this bounds the ratio rather than
/// pinning it.
pub const SPEEDUP_RATIO_WINDOW: (f64, f64) = (0.05, 20.0);

/// One driver × mode measurement.
pub struct FidelityModeReport {
    /// Whether the reactor ran pipelined.
    pub pipelined: bool,
    /// Mean doorbell→retire latency, ns (wall-clock or virtual).
    pub mean_read_ns: u64,
    /// Mean in-flight depth per SSD (sampled gauges / time-weighted).
    pub inflight_mean: Vec<f64>,
    /// Peak in-flight depth per SSD.
    pub inflight_peak: Vec<u64>,
    /// Batches retired.
    pub batches: u64,
    /// Protocol decisions the run made.
    pub decisions: DecisionCounters,
}

impl FidelityModeReport {
    /// Mean in-flight depth across the array.
    pub fn depth(&self) -> f64 {
        let n = self.inflight_mean.len().max(1) as f64;
        self.inflight_mean.iter().sum::<f64>() / n
    }
}

/// One driver's pipelined run and blocking baseline.
pub struct FidelityEngineReport {
    /// Measurements with the pipelined reactor.
    pub pipelined: FidelityModeReport,
    /// Measurements with the blocking group-at-a-time baseline.
    pub blocking: FidelityModeReport,
}

impl FidelityEngineReport {
    /// Blocking-over-pipelined mean read latency ratio (> 1 = pipelining
    /// wins).
    pub fn speedup(&self) -> f64 {
        if self.pipelined.mean_read_ns == 0 {
            0.0
        } else {
            self.blocking.mean_read_ns as f64 / self.pipelined.mean_read_ns as f64
        }
    }
}

/// The full fidelity comparison: plan replay vs. threaded vs. DES.
pub struct FidelityReport {
    /// Seed of the workload every run below drove.
    pub seed: u64,
    /// Pure `plan_batch` replay of the workload (one first submission per
    /// planned run).
    pub expected: DecisionCounters,
    /// The threaded functional driver.
    pub functional: FidelityEngineReport,
    /// The DES driver over the calibrated timing models.
    pub des: FidelityEngineReport,
    /// The cached-mode matrix over the same two drivers.
    pub cached: CachedFidelityReport,
}

impl FidelityReport {
    /// Whether all four runs made exactly the planned decisions.
    pub fn decisions_match(&self) -> bool {
        [
            &self.functional.pipelined,
            &self.functional.blocking,
            &self.des.pipelined,
            &self.des.blocking,
        ]
        .iter()
        .all(|m| m.decisions == self.expected)
    }

    /// Relative error of the DES mean in-flight depth against the
    /// functional driver's, for the given mode.
    pub fn depth_rel_err(&self, pipelined: bool) -> f64 {
        let (f, d) = if pipelined {
            (&self.functional.pipelined, &self.des.pipelined)
        } else {
            (&self.functional.blocking, &self.des.blocking)
        };
        (d.depth() - f.depth()).abs() / f.depth().max(1e-9)
    }

    /// Functional blocking mean doorbell→retire latency over the DES one
    /// (1 = the rig runs the device the DES models).
    pub fn blocking_latency_ratio(&self) -> f64 {
        self.functional.blocking.mean_read_ns as f64 / self.des.blocking.mean_read_ns.max(1) as f64
    }

    /// DES speedup over functional speedup.
    pub fn speedup_ratio(&self) -> f64 {
        self.des.speedup() / self.functional.speedup().max(1e-9)
    }

    /// Whether both drivers agree on the direction of the
    /// pipelined-vs-blocking comparison.
    pub fn speedup_direction_agrees(&self) -> bool {
        (self.functional.speedup() >= 1.0) == (self.des.speedup() >= 1.0)
    }
}

/// The seeded workload both drivers (and the perf trajectory's trials)
/// run: `rounds` batches per channel, each batch `BATCH_REQS` two-block
/// reads drawn from the channel's `LBA_WINDOW`-slot window.
/// Deterministic: same rounds and seed, same batches.
pub fn fidelity_workload(rounds: u64, seed: u64) -> Vec<Vec<CamDesBatch>> {
    let mut rng = Lcg(seed);
    (0..N_CHANNELS)
        .map(|ch| {
            let base = ch as u64 * 256;
            (0..rounds)
                .map(|_| CamDesBatch {
                    lbas: (0..BATCH_REQS)
                        .map(|_| base + rng.next() % LBA_WINDOW)
                        .collect(),
                    blocks: BLOCKS_PER_REQ,
                })
                .collect()
        })
        .collect()
}

/// Replays the workload through `plan_batch` alone: the decision counters
/// a fault-free execution must produce, under either driver.
pub fn expected_decisions(channels: &[Vec<CamDesBatch>]) -> DecisionCounters {
    let cfg = PlanConfig {
        n_ssds: N_SSDS,
        stripe_blocks: STRIPE_BLOCKS,
        block_size: BLOCK_SIZE,
    };
    let batches = channels.iter().flatten();
    replay_plan_workload(
        &cfg,
        ChannelOp::Read,
        batches.map(|b| (b.lbas.as_slice(), b.blocks)),
    )
}

/// Runs the seeded workload on both drivers in both modes and assembles
/// the comparison. An attached `recorder` observes the pipelined DES run
/// (the `fidelity` verb's trace artifact) without perturbing it.
pub fn run_fidelity_experiment(
    rounds: u64,
    seed: u64,
    recorder: Option<Arc<FlightRecorder>>,
) -> FidelityReport {
    let workload = fidelity_workload(rounds, seed);
    FidelityReport {
        seed,
        expected: expected_decisions(&workload),
        functional: FidelityEngineReport {
            pipelined: run_functional(true, 1, &workload),
            blocking: run_functional(false, 1, &workload),
        },
        des: FidelityEngineReport {
            pipelined: run_des(true, &workload, recorder),
            blocking: run_des(false, &workload, None),
        },
        // 3x the uncached round count: the cached stream is a single
        // logical channel, and CLOCK needs enough distinct blocks to
        // evict on a CACHED_SLOTS-block cache.
        cached: run_cached_fidelity_seeded(rounds * 3, seed),
    }
}

/// The threaded twin of `run_cam_des_obs`: attaches a [`CamContext`] to
/// `rig` with `cfg` and `obs`, drives `channels` with one scoped thread per
/// channel, each keeping one batch outstanding (scatter the batch's reads
/// over a per-channel buffer, wait for the retire, next), and stops the
/// engine before it returns the engine's counters. Stopping drains the
/// lanes, so every event of the run is in `obs`'s recorder on return.
pub(crate) fn run_threaded(
    rig: &Rig,
    cfg: CamConfig,
    obs: Observability,
    channels: &[Vec<CamDesBatch>],
) -> ControlStats {
    let cam = CamContext::attach_observed(rig, cfg, obs);
    let block_size = cam.block_size() as usize;
    std::thread::scope(|s| {
        for (ch, batches) in channels.iter().enumerate() {
            let dev = cam.device();
            let batch_bytes = |b: &CamDesBatch| b.lbas.len() * b.blocks as usize * block_size;
            let buf = cam
                .alloc(batches.iter().map(batch_bytes).max().unwrap_or(0))
                .expect("alloc channel buffer");
            s.spawn(move || {
                let addr = buf.addr();
                for b in batches {
                    let bytes_per_req = b.blocks as usize * block_size;
                    let ticket = dev
                        .submit_scatter(
                            ch,
                            ChannelOp::Read,
                            &b.lbas,
                            |i| addr + (i * bytes_per_req) as u64,
                            b.blocks,
                        )
                        .expect("submit");
                    ticket.wait().expect("batch retires cleanly");
                }
            });
        }
    });
    cam.stats()
}

/// The threaded twin of `run_cam_des_cached`: attaches a [`CamContext`]
/// with `cfg` on `CACHED_N_CHANNELS` channels and a [`CachedDevice`]
/// with `cache`, then reads `batches` one at a time. It quiesces after
/// each batch, the discipline the replay models: each batch's demand and
/// speculative I/O are published before the next batch's lookups, so the
/// decisions do not depend on timing.
pub(crate) fn run_threaded_cached(
    rig: &Rig,
    cfg: CamConfig,
    obs: Observability,
    cache: CacheConfig,
    batches: &[Vec<u64>],
) -> CachedModeReport {
    let registry = Arc::clone(&obs.registry);
    let cfg = CamConfig {
        n_channels: CACHED_N_CHANNELS,
        ..cfg
    };
    let cam = CamContext::attach_observed(rig, cfg, obs);
    let dev = CachedDevice::attach(rig, &cam, cache).expect("cache fits GPU memory");
    let bs = cam.block_size() as usize;
    let max_lbas = batches.iter().map(Vec::len).max().unwrap_or(1);
    let buf = cam.alloc(max_lbas * bs).expect("dest buffer");
    for b in batches {
        dev.prefetch(b, buf.addr()).expect("prefetch");
        dev.quiesce().expect("quiesce");
    }
    CachedModeReport {
        counters: dev.decision_counters(),
        mean_read_ns: read_mean_ns(&registry.snapshot()) as u64,
    }
}

/// Mean doorbell→retire latency of channel 0's read batches, ns (0 when
/// none retired).
pub(crate) fn read_mean_ns(snap: &MetricsSnapshot) -> f64 {
    snap.histogram("cam_batch_total_ns{channel=\"0\",op=\"read\"}")
        .map_or(0.0, |h| h.mean)
}

/// Runs `drive` while a sampler reads `registry`'s `cam_inflight{ssd}`
/// gauges every 20 us; returns their time-mean per SSD over the busy
/// window, from the first to the last sample with a command in flight.
/// The window leaves out the engine's start and stop, which `drive`
/// includes and which take as long as a short pipelined run.
fn sample_inflight(registry: &MetricsRegistry, drive: impl FnOnce()) -> Vec<f64> {
    let gauges: Vec<Gauge> = (0..N_SSDS)
        .map(|ssd| registry.gauge(&format!("cam_inflight{{ssd=\"{ssd}\"}}")))
        .collect();
    let stop = AtomicBool::new(false);
    let (sums, samples) = std::thread::scope(|s| {
        let sampler = s.spawn(|| {
            // Without this a 20 us sleep takes about 70 us.
            cam_telemetry::clock::exact_sleeps();
            let mut sums = vec![0u64; N_SSDS];
            let mut samples = 0u64;
            // The sums and sample count at the last busy sample.
            let mut busy = (sums.clone(), 0u64);
            while !stop.load(Ordering::Acquire) {
                let depths: Vec<u64> = gauges.iter().map(Gauge::get).collect();
                let in_flight = depths.iter().any(|&d| d > 0);
                if in_flight || samples > 0 {
                    for (sum, depth) in sums.iter_mut().zip(depths) {
                        *sum += depth;
                    }
                    samples += 1;
                }
                if in_flight {
                    busy = (sums.clone(), samples);
                }
                std::thread::sleep(Duration::from_micros(20));
            }
            busy
        });
        drive();
        stop.store(true, Ordering::Release);
        sampler.join().expect("sampler")
    });
    sums.iter()
        .map(|&s| s as f64 / samples.max(1) as f64)
        .collect()
}

/// The report's runs use one worker owning all SSDs, as the DES does
/// (`threads: 1`): any overlap must come from the reactor, not thread
/// parallelism.
fn run_functional(
    pipelined: bool,
    workers: usize,
    channels: &[Vec<CamDesBatch>],
) -> FidelityModeReport {
    let rig = Rig::new(rig_config());
    assert_eq!(rig.block_size(), BLOCK_SIZE);
    let registry = Arc::new(MetricsRegistry::new());
    let obs = Observability::with_registry(Arc::clone(&registry));
    let cfg = CamConfig {
        n_channels: N_CHANNELS,
        workers: Some(workers),
        pipelined,
        ..CamConfig::default()
    };
    let inflight_mean = sample_inflight(&registry, || {
        run_threaded(&rig, cfg, obs, channels);
    });

    let snapshot = registry.snapshot();
    let (mut total_ns, mut batches) = (0u128, 0u64);
    for ch in 0..N_CHANNELS {
        let name = format!("cam_batch_total_ns{{channel=\"{ch}\",op=\"read\"}}");
        if let Some(h) = snapshot.histogram(&name) {
            total_ns += h.sum;
            batches += h.count;
        }
    }
    FidelityModeReport {
        pipelined,
        mean_read_ns: (total_ns / u128::from(batches.max(1))) as u64,
        inflight_mean,
        inflight_peak: (0..N_SSDS)
            .map(|ssd| snapshot.gauge(&format!("cam_inflight_peak{{ssd=\"{ssd}\"}}")))
            .collect(),
        batches,
        decisions: threaded_decisions(&snapshot),
    }
}

/// The threaded engine's protocol decisions, read from its registry: the
/// planning and submission counters, and one group per
/// `cam_stage_ns{stage="dispatch"}` sample (the lifecycle tap records one
/// for every group a worker admits).
pub fn threaded_decisions(snapshot: &MetricsSnapshot) -> DecisionCounters {
    let groups = ControlMetrics::OPS
        .iter()
        .filter_map(|op| {
            snapshot.histogram(&format!("cam_stage_ns{{op=\"{op}\",stage=\"dispatch\"}}"))
        })
        .map(|h| h.count)
        .sum();
    DecisionCounters {
        batches: snapshot.counter("cam_batches_total"),
        requests: snapshot.counter("cam_requests_total"),
        dedup_dropped: snapshot.counter("cam_dedup_dropped_total"),
        stripe_splits: snapshot.counter("cam_stripe_splits_total"),
        groups,
        sqes: snapshot.sum_counters("cam_ssd_submitted_total"),
        retries: snapshot.counter("cam_retries_total"),
        timeouts: snapshot.counter("cam_cmd_timeouts_total"),
    }
}

/// The SSD model the fidelity DES runs: a P5510 whose base read latency
/// is replaced by the [`SERVICE_LATENCY`] the functional rig injects.
/// The comparison probes *protocol* fidelity — both drivers must be
/// looking at comparably slow devices, or the in-flight depth regimes
/// diverge for reasons that have nothing to do with the drivers.
fn rig_matched_ssd_model() -> SsdModel {
    SsdModel {
        read_latency: cam_simkit::Dur::ns(SERVICE_LATENCY.as_nanos() as u64),
        ..SsdModel::p5510()
    }
}

/// The one-worker fault-free CAM DES read configuration every DES run in
/// this crate starts from (fidelity matrix, cached matrix, perf trajectory,
/// SLO overload), differing in array shape, reactor mode and device model.
pub(crate) fn des_config(
    n_ssds: usize,
    stripe_blocks: u64,
    pipelined: bool,
    ssd_model: SsdModel,
) -> CamDesConfig {
    CamDesConfig {
        block_size: BLOCK_SIZE,
        stripe_blocks,
        pipelined,
        ssd_model,
        ..CamDesConfig::calibrated(n_ssds, 1)
    }
}

/// Runs one DES mode of the fidelity workload; an attached recorder
/// observes the virtual-time issue/complete stream.
fn run_des(
    pipelined: bool,
    channels: &[Vec<CamDesBatch>],
    recorder: Option<Arc<FlightRecorder>>,
) -> FidelityModeReport {
    let r = run_cam_des_obs(
        des_config(N_SSDS, STRIPE_BLOCKS, pipelined, rig_matched_ssd_model()),
        channels.to_vec(),
        recorder,
        CamDesObs::default(),
    );
    FidelityModeReport {
        pipelined,
        mean_read_ns: r.mean_batch_ns as u64,
        inflight_mean: r.inflight_mean,
        inflight_peak: r.inflight_peak,
        batches: r.batches,
        decisions: r.decisions,
    }
}

/// Cache capacity for the cached matrix: small enough that the seeded
/// stream forces CLOCK evictions, so eviction decisions are compared too.
const CACHED_SLOTS: usize = 64;
/// Channels a cached run occupies: demand 0, write-back 1 (idle in the
/// read-only matrix), speculation 2 — the `CachedDevice` convention.
const CACHED_N_CHANNELS: usize = 3;

/// The cache every run of the matrix (and the replay) is configured with.
/// The cached perf trajectory ([`crate::trajectory_run`]) reuses it so the
/// gated configuration is the one fidelity proved decision-exact.
pub fn cached_cache_cfg() -> CacheConfig {
    CacheConfig {
        slots: CACHED_SLOTS,
        shards: 4,
        flush_batch: 16,
        ..CacheConfig::default()
    }
}

/// Rig shape of every functional run; the cached DES side derives its
/// array size from the same config so readahead sees identical bounds.
fn rig_config() -> RigConfig {
    RigConfig {
        n_ssds: N_SSDS,
        stripe_blocks: STRIPE_BLOCKS,
        burst_latency: Some(SERVICE_LATENCY),
        ..RigConfig::default()
    }
}

/// The seeded cached read stream: per round an 8-block sequential run (a
/// stable stride for the readahead detector), an in-batch duplicate
/// (coalescing), re-references into earlier rounds (hits — some against
/// evicted blocks), and one far scattered read (extra CLOCK pressure).
/// Single logical stream, as the cached device serializes demand reads.
pub fn cached_fidelity_workload_seeded(rounds: u64, seed: u64) -> Vec<Vec<u64>> {
    let mut rng = Lcg(seed ^ 0xCAC4ED);
    (0..rounds)
        .map(|round| {
            let base = round * 8;
            let mut lbas: Vec<u64> = (base..base + 8).collect();
            lbas.push(base + rng.next() % 8);
            if round > 0 {
                for _ in 0..4 {
                    lbas.push(rng.next() % (round * 8));
                }
            }
            lbas.push(4096 + rng.next() % 256);
            lbas
        })
        .collect()
}

/// One cached run's outcome: the decision counters (the exact-equality
/// payload) plus the informative mean demand-read latency.
pub struct CachedModeReport {
    /// Every cache decision the run made.
    pub counters: CacheDecisionCounters,
    /// Mean doorbell→retire latency of demand batches, ns (wall-clock or
    /// virtual — informative only; the matrix asserts decisions).
    pub mean_read_ns: u64,
}

/// The cached-mode fidelity matrix: functional × DES × {pipelined,
/// blocking}, all against the pure [`replay_read_workload`] ground truth.
pub struct CachedFidelityReport {
    /// Counters of the pure replay — the ground truth.
    pub expected: CacheDecisionCounters,
    /// Threaded [`CachedDevice`] with the pipelined reactor.
    pub functional_pipelined: CachedModeReport,
    /// Threaded [`CachedDevice`] over the blocking baseline.
    pub functional_blocking: CachedModeReport,
    /// DES cached source, pipelined.
    pub des_pipelined: CachedModeReport,
    /// DES cached source, blocking.
    pub des_blocking: CachedModeReport,
}

impl CachedFidelityReport {
    /// The four runs with their report labels.
    pub fn modes(&self) -> [(&'static str, &CachedModeReport); 4] {
        [
            ("functional/pipelined", &self.functional_pipelined),
            ("functional/blocking", &self.functional_blocking),
            ("des/pipelined", &self.des_pipelined),
            ("des/blocking", &self.des_blocking),
        ]
    }

    /// Whether all four runs made exactly the replayed cache decisions.
    pub fn decisions_match(&self) -> bool {
        self.modes()
            .iter()
            .all(|(_, m)| m.counters == self.expected)
    }
}

fn run_des_cached(pipelined: bool, batches: &[Vec<u64>], array_blocks: u64) -> CachedModeReport {
    let (r, counters) = run_cam_des_cached(
        des_config(N_SSDS, STRIPE_BLOCKS, pipelined, rig_matched_ssd_model()),
        cached_cache_cfg(),
        array_blocks,
        batches.to_vec(),
        None,
        CamDesObs::default(),
    );
    CachedModeReport {
        counters,
        mean_read_ns: r.mean_batch_ns as u64,
    }
}

/// Runs the cached matrix on `rounds` batches of the seeded stream.
pub fn run_cached_fidelity_seeded(rounds: u64, seed: u64) -> CachedFidelityReport {
    let batches = cached_fidelity_workload_seeded(rounds, seed);
    let rig_cfg = rig_config();
    let array_blocks = rig_cfg.n_ssds as u64 * rig_cfg.blocks_per_ssd;
    let functional = |pipelined| {
        let cfg = CamConfig {
            workers: Some(1),
            pipelined,
            ..CamConfig::default()
        };
        let rig = Rig::new(rig_config());
        run_threaded_cached(
            &rig,
            cfg,
            Observability::default(),
            cached_cache_cfg(),
            &batches,
        )
    };
    CachedFidelityReport {
        expected: replay_read_workload(cached_cache_cfg(), array_blocks, true, &batches),
        functional_pipelined: functional(true),
        functional_blocking: functional(false),
        des_pipelined: run_des_cached(true, &batches, array_blocks),
        des_blocking: run_des_cached(false, &batches, array_blocks),
    }
}

/// The deterministic acceptance bars: every driver x mode made exactly the
/// replayed protocol and cache decisions, on a workload that exercises
/// them, and the DES (virtual time) sees pipelining win.
pub fn decision_bars(report: &FidelityReport) -> Vec<String> {
    let mut failed = Vec::new();
    require(
        &mut failed,
        report.decisions_match(),
        format!(
            "protocol decisions diverge from the plan replay {:?}",
            report.expected
        ),
    );
    let cached = &report.cached;
    let diverged: Vec<&str> = cached
        .modes()
        .iter()
        .filter(|(_, m)| m.counters != cached.expected || m.mean_read_ns == 0)
        .map(|(label, _)| *label)
        .collect();
    require(
        &mut failed,
        diverged.is_empty(),
        format!("cached runs {diverged:?} diverge from the cache replay or carry no latency"),
    );
    let e = &cached.expected;
    require(
        &mut failed,
        e.hits > 0 && e.misses > 0 && e.readahead_hits > 0,
        format!("cached stream skips a decision class: {e:?}"),
    );
    require(
        &mut failed,
        report.des.speedup() >= 1.0,
        format!("DES pipelining lost: {:.3}x", report.des.speedup()),
    );
    failed
}

/// The wall-clock acceptance bars (`docs/TIMING.md`): trends directional,
/// magnitudes sanity-bounded, sampled in-flight depth within
/// [`DEPTH_REL_ERR_TOLERANCE`] of the DES, the blocking mean read within
/// [`BLOCKING_LATENCY_TOLERANCE`] of the DES — and, on the threaded driver,
/// the cross-batch-overlap claim itself: a group-at-a-time reactor cannot
/// hold more than one group's commands on an SSD, so the pipelined run's
/// peak and time-mean in-flight depth must exceed the blocking run's on
/// every SSD.
pub fn timing_bars(report: &FidelityReport) -> Vec<String> {
    let mut failed = Vec::new();
    let (p, b) = (&report.functional.pipelined, &report.functional.blocking);
    require(
        &mut failed,
        p.inflight_peak
            .iter()
            .zip(&b.inflight_peak)
            .all(|(p, b)| p > b),
        format!(
            "pipelined peak in-flight depth must exceed blocking's on every SSD: {:?} vs {:?}",
            p.inflight_peak, b.inflight_peak
        ),
    );
    require(
        &mut failed,
        p.inflight_mean
            .iter()
            .zip(&b.inflight_mean)
            .all(|(p, b)| p > b),
        format!(
            "pipelined mean in-flight depth must exceed blocking's on every SSD: {:.2?} vs {:.2?}",
            p.inflight_mean, b.inflight_mean
        ),
    );
    require(
        &mut failed,
        report.functional.speedup() >= 1.0 && report.speedup_direction_agrees(),
        format!(
            "pipelining must win on both drivers: functional {:.3}x, DES {:.3}x",
            report.functional.speedup(),
            report.des.speedup()
        ),
    );
    let (lo, hi) = SPEEDUP_RATIO_WINDOW;
    require(
        &mut failed,
        (lo..=hi).contains(&report.speedup_ratio()),
        format!(
            "speedup ratio DES/functional {:.4} outside SPEEDUP_RATIO_WINDOW {lo}..={hi}",
            report.speedup_ratio()
        ),
    );
    for (mode, pipelined) in [("pipelined", true), ("blocking", false)] {
        let err = report.depth_rel_err(pipelined);
        require(
            &mut failed,
            (0.0..=DEPTH_REL_ERR_TOLERANCE).contains(&err),
            format!(
                "{mode} in-flight depth rel err {err:.3} exceeds \
                 DEPTH_REL_ERR_TOLERANCE {DEPTH_REL_ERR_TOLERANCE}"
            ),
        );
    }
    let ratio = report.blocking_latency_ratio();
    require(
        &mut failed,
        (ratio - 1.0).abs() <= BLOCKING_LATENCY_TOLERANCE,
        format!(
            "functional/DES blocking mean read {ratio:.3} is more than \
             BLOCKING_LATENCY_TOLERANCE {BLOCKING_LATENCY_TOLERANCE} from 1"
        ),
    );
    failed
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn decisions_note_prints_the_seed_the_run_used() {
        let report = run_fidelity_experiment(1, 7, None);
        assert_eq!(report.seed, 7);
        let tables = crate::figures::fidelity_tables(&report, 1);
        let note = &tables[0].notes()[0];
        assert!(note.contains("workload seed 0x7)"), "{note}");
    }

    #[test]
    fn both_drivers_make_exactly_the_planned_decisions() {
        let report = run_fidelity_experiment(6, DEFAULT_SEED, None);
        // The workload exercises real planner decisions, not a trivial
        // pass-through.
        assert!(report.expected.dedup_dropped > 0, "workload has no dups");
        assert!(report.expected.stripe_splits > 0, "workload has no splits");
        assert_eq!(report.expected.batches, 6 * N_CHANNELS as u64);
        // The DES base config copies the threaded engine's lane depth.
        let des = CamDesConfig::calibrated(N_SSDS, 1);
        assert_eq!(des.queue_depth, CamConfig::default().queue_depth);
        // Two workers force cross-worker handoff (each worker plans
        // channels whose SSD groups the other owns): sharded pickup,
        // routing and parking reorder work in time but may not change what
        // is planned, deduped, split, grouped or submitted.
        let workload = fidelity_workload(6, DEFAULT_SEED);
        let two_pipelined = run_functional(true, 2, &workload);
        let two_blocking = run_functional(false, 2, &workload);
        for (name, m) in [
            ("functional/2 workers/pipelined", &two_pipelined),
            ("functional/2 workers/blocking", &two_blocking),
        ] {
            assert_eq!(
                m.decisions, report.expected,
                "{name} diverged from the plan replay"
            );
            assert_eq!(m.batches, report.expected.batches, "{name} batches");
        }
        // Both modes of the report's own threaded runs retire every batch.
        for m in [&report.functional.pipelined, &report.functional.blocking] {
            assert_eq!(m.batches, 6 * N_CHANNELS as u64);
        }
        // The report's own four runs (and its cached matrix) are judged by
        // the same function `repro fidelity --check` runs.
        assert_eq!(decision_bars(&report), Vec::<String>::new());
        assert!(
            report.des.pipelined.depth() > report.des.blocking.depth(),
            "DES pipelined depth {:.3} <= blocking {:.3}",
            report.des.pipelined.depth(),
            report.des.blocking.depth()
        );
    }

    #[test]
    fn workload_is_deterministic() {
        let a = fidelity_workload(4, DEFAULT_SEED);
        let b = fidelity_workload(4, DEFAULT_SEED);
        assert_eq!(a.len(), N_CHANNELS);
        for (ca, cb) in a.iter().zip(&b) {
            assert_eq!(ca.len(), 4);
            for (ba, bb) in ca.iter().zip(cb) {
                assert_eq!(ba.lbas, bb.lbas);
            }
        }
        assert_eq!(expected_decisions(&a), expected_decisions(&b));
        // A different seed produces a different (but well-formed) workload.
        let c = fidelity_workload(4, DEFAULT_SEED ^ 1);
        assert_ne!(a[0][0].lbas, c[0][0].lbas);
    }

    #[test]
    fn cached_matrix_matches_the_pure_replay_exactly() {
        let report = run_cached_fidelity_seeded(24, DEFAULT_SEED);
        // The stream exercises every decision class the core makes.
        assert!(report.expected.hits > 0, "no hits: {:?}", report.expected);
        assert!(report.expected.misses > 0, "no misses");
        assert!(report.expected.coalesced > 0, "no coalescing");
        assert!(report.expected.evictions > 0, "no CLOCK evictions");
        assert!(report.expected.readahead_issued > 0, "no speculation");
        assert!(report.expected.readahead_hits > 0, "speculation never hit");
        for (name, m) in report.modes() {
            assert_eq!(
                m.counters, report.expected,
                "{name} diverged from the cache replay"
            );
            assert!(m.mean_read_ns > 0, "{name} has no demand latency");
        }
        assert!(report.decisions_match());
    }

    #[test]
    fn cached_workload_is_deterministic_and_seed_sensitive() {
        let a = cached_fidelity_workload_seeded(12, DEFAULT_SEED);
        let b = cached_fidelity_workload_seeded(12, DEFAULT_SEED);
        assert_eq!(a, b);
        let c = cached_fidelity_workload_seeded(12, DEFAULT_SEED ^ 1);
        assert_ne!(a, c);
    }
}
