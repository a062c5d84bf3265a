//! SLO / lane-health experiment: one transient-fault overload, two drivers.
//!
//! SSD 0's media fails every read in a window twice before succeeding
//! ([`FaultPolicy::transient_reads_in`] on the threaded rig, the matched
//! [`DesFaultSpec`] in the DES device model). The retry policy absorbs
//! every fault, so batches retire clean — but the fault storm must walk
//! lane 0 through `Healthy → Degraded → Overloaded` and the end-of-run
//! drain through `→ Recovered`, and the [`SloTracker`] must report a burn
//! rate above 1 (the latency target is set below what the overloaded run
//! can deliver).
//!
//! Because lane-health transitions are gated only on protocol decisions
//! (see `cam_protocol::health`), the `(ssd, from, to, faults)` sequence
//! must be *identical* across the threaded and DES drivers — [`bars`]
//! asserts exactly that (`repro slo --check`, and the unit test below).

use std::sync::Arc;

use cam_blockdev::{BlockGeometry, BlockStore, FaultPolicy, FaultyStore, SparseMemStore};
use cam_core::CamConfig;
use cam_iostacks::cam_des::{run_cam_des_obs, CamDesBatch, CamDesConfig, CamDesObs, DesFaultSpec};
use cam_iostacks::{Rig, RigConfig};
use cam_nvme::SsdModel;
use cam_protocol::RetryPolicy;
use cam_telemetry::{
    clock, EventKind, FlightRecorder, MetricsRegistry, Observability, OpsWindows, SloConfig,
    SloTracker, Stage, WindowConfig,
};

use crate::fidelity_run::{des_config, run_threaded};
use crate::figures::require;

/// SSDs in the array; SSD 0 carries the faults, SSD 1 stays healthy.
pub const N_SSDS: usize = 2;
/// Faulty device-LBA window on SSD 0.
const FAULT_LBAS: u64 = 16;
/// Transient failures per LBA before reads succeed.
const FAIL_TIMES: u32 = 2;
/// Retry budget — above `FAIL_TIMES`, so every batch retires clean.
const MAX_RETRIES: u32 = 3;
const RETRY_BACKOFF_NS: u64 = 1_000;
/// Batches driven through the single channel.
const ROUNDS: usize = 12;
/// Requests per batch: LBAs `0..32` with stripe 1 put device LBAs
/// `0..16` on each SSD — SSD 0's half is exactly the faulty window.
const BATCH_REQS: u64 = 2 * FAULT_LBAS;
const BLOCK_SIZE: u32 = 4096;

/// A latency target no batch can meet (doorbell→retire is tens of
/// microseconds on either timeline), so the bad fraction is 1.0 and the
/// burn rate is deterministically `1 / error_budget` on both drivers.
pub(crate) fn slo_config() -> SloConfig {
    SloConfig {
        latency_target_ns: 1_000,
        error_budget: 0.01,
        ..SloConfig::default()
    }
}

/// One lane-health transition, reduced to its driver-independent key.
pub type TransitionKey = (u16, u8, u8, u64);

/// One driver's view of the overload run.
pub struct HealthDriverReport {
    /// Lane-health transitions in occurrence order.
    pub transitions: Vec<TransitionKey>,
    /// Short-window burn rate on channel 0 at end of run.
    pub burn_short: f64,
    /// Long-window burn rate on channel 0 at end of run.
    pub burn_long: f64,
    /// Protocol retries the run decided.
    pub retries: u64,
    /// `CmdRetry` events on the driver's timeline.
    pub retry_events: u64,
    /// Numerator of lane 0's windowed retry rate at end of run (retries
    /// only; the window outlasts the run).
    pub retry_window: u64,
    /// Samples in each per-stage window at end of run, in [`Stage::ALL`]
    /// order: one per batch for pickup/retire, one per group for the rest.
    pub stage_window: [u64; 5],
    /// Transient faults the device layer injected.
    pub faults: u64,
    /// Batches retired.
    pub batches: u64,
}

/// The two-driver comparison.
pub struct HealthReport {
    /// The threaded functional driver.
    pub functional: HealthDriverReport,
    /// The DES driver on the same fault schedule.
    pub des: HealthDriverReport,
}

impl HealthReport {
    /// Whether both drivers produced the identical transition sequence.
    pub fn sequences_match(&self) -> bool {
        self.functional.transitions == self.des.transitions
    }

    /// Whether lane 0 passed through `Overloaded` and ended `Recovered`.
    pub fn overloaded_then_recovered(&self) -> bool {
        let through = |ts: &[TransitionKey]| {
            ts.iter().any(|&(_, _, to, _)| to == 2)
                && ts.last().is_some_and(|&(_, _, to, _)| to == 3)
        };
        through(&self.functional.transitions) && through(&self.des.transitions)
    }

    /// Whether both drivers burned more than their whole error budget.
    pub fn burn_exceeds_one(&self) -> bool {
        self.functional.burn_short.max(self.functional.burn_long) > 1.0
            && self.des.burn_short.max(self.des.burn_long) > 1.0
    }
}

/// Rolling windows long enough to hold the whole run on either timeline.
fn run_long_windows() -> Arc<OpsWindows> {
    let cfg = WindowConfig::new(3_600_000_000_000, 4);
    Arc::new(OpsWindows::new(cfg, N_SSDS, 1))
}

/// Samples in each per-stage window at `now`.
fn stage_counts(windows: &OpsWindows, now: u64) -> [u64; 5] {
    Stage::ALL.map(|s| windows.stage(s).count_at(now))
}

/// `CmdRetry` events in a recorder's timeline.
fn retry_events(recorder: &FlightRecorder) -> u64 {
    let is_retry = |kind| matches!(kind, EventKind::CmdRetry { .. });
    let events = recorder.snapshot();
    events.iter().filter(|e| is_retry(e.kind)).count() as u64
}

/// The matched workload: `ROUNDS` batches of single-block reads over
/// array LBAs `0..BATCH_REQS` on one channel.
fn workload() -> Vec<Vec<CamDesBatch>> {
    vec![vec![
        CamDesBatch {
            lbas: (0..BATCH_REQS).collect(),
            blocks: 1,
        };
        ROUNDS
    ]]
}

/// Runs the overload workload on both drivers and assembles the report.
pub fn run_health_experiment() -> HealthReport {
    HealthReport {
        functional: run_functional(),
        des: run_des(),
    }
}

/// The overload rig (also behind `repro watch`): SSD 0's media fails every
/// read of its first [`FAULT_LBAS`] LBAs [`FAIL_TIMES`] times before
/// succeeding; the other SSDs stay healthy. Returns the rig and the faulty
/// store (for its injected-fault count).
pub(crate) fn overload_rig() -> (Rig, Arc<FaultyStore>) {
    let rig_cfg = RigConfig {
        n_ssds: N_SSDS,
        blocks_per_ssd: 4096,
        ..RigConfig::default()
    };
    assert_eq!(rig_cfg.block_size, BLOCK_SIZE);
    let healthy = || -> Arc<dyn BlockStore> {
        Arc::new(SparseMemStore::new(BlockGeometry::new(
            rig_cfg.block_size,
            rig_cfg.blocks_per_ssd,
        )))
    };
    let faulty = Arc::new(FaultyStore::new(
        healthy(),
        FaultPolicy::transient_reads_in(0, FAULT_LBAS, FAIL_TIMES),
    ));
    let mut stores: Vec<Arc<dyn BlockStore>> = vec![Arc::clone(&faulty) as Arc<dyn BlockStore>];
    stores.extend((1..N_SSDS).map(|_| healthy()));
    (Rig::with_stores(rig_cfg, stores), faulty)
}

fn run_functional() -> HealthDriverReport {
    let (rig, faulty) = overload_rig();

    let registry = Arc::new(MetricsRegistry::new());
    let recorder = Arc::new(FlightRecorder::new());
    let slo = Arc::new(SloTracker::new(slo_config(), 1));
    let windows = run_long_windows();
    let obs = Observability::recorded(Arc::clone(&registry), Arc::clone(&recorder))
        .with_slo(Arc::clone(&slo))
        .with_windows(Arc::clone(&windows));
    let cfg = CamConfig {
        n_channels: 1,
        workers: Some(1),
        max_retries: MAX_RETRIES,
        retry_backoff_ns: RETRY_BACKOFF_NS,
        ..CamConfig::default()
    };
    // Transient faults retire clean: the retry budget absorbs every one.
    // The runner stops the engine, which drains the lanes, so the
    // `→ Recovered` transition is in the recorder before we snapshot it.
    let stats = run_threaded(&rig, cfg, obs, &workload());

    let transitions = transitions_from_events(&recorder);
    let now = clock::now_ns();
    let burn = slo.burn_rate(0, now);
    HealthDriverReport {
        transitions,
        burn_short: burn.short,
        burn_long: burn.long,
        retries: stats.retries,
        retry_events: retry_events(&recorder),
        retry_window: windows.ssd_retries[0].sums_at(now).0,
        stage_window: stage_counts(&windows, now),
        faults: faulty.injected(),
        batches: stats.batches,
    }
}

fn run_des() -> HealthDriverReport {
    let slo = Arc::new(SloTracker::new(slo_config(), 1));
    let windows = run_long_windows();
    let recorder = Arc::new(FlightRecorder::new());
    let obs = CamDesObs {
        windows: Some(Arc::clone(&windows)),
        slo: Some(Arc::clone(&slo)),
        lifecycle: true,
    };
    let r = run_cam_des_obs(
        CamDesConfig {
            retry: RetryPolicy {
                max_retries: MAX_RETRIES,
                backoff_base_ns: RETRY_BACKOFF_NS,
                deadline_ns: None,
            },
            fault: Some(DesFaultSpec::transient_reads_in(
                0, 0, FAULT_LBAS, FAIL_TIMES,
            )),
            ..des_config(N_SSDS, 1, true, SsdModel::p5510())
        },
        workload(),
        Some(Arc::clone(&recorder)),
        obs,
    );
    let end = r.duration.as_ns();
    let burn = slo.burn_rate(0, end);
    HealthDriverReport {
        transitions: r
            .transitions
            .iter()
            .map(|t| (t.ssd as u16, t.from.code(), t.to.code(), t.faults))
            .collect(),
        burn_short: burn.short,
        burn_long: burn.long,
        retries: r.decisions.retries,
        retry_events: retry_events(&recorder),
        retry_window: windows.ssd_retries[0].sums_at(end).0,
        stage_window: stage_counts(&windows, end),
        faults: r.faults_injected,
        batches: r.batches,
    }
}

/// Extracts the `(ssd, from, to, faults)` sequence from a threaded run's
/// flight-recorder timeline.
pub fn transitions_from_events(recorder: &FlightRecorder) -> Vec<TransitionKey> {
    recorder
        .snapshot()
        .iter()
        .filter_map(|e| match e.kind {
            EventKind::LaneHealth {
                ssd,
                from,
                to,
                retries,
            } => Some((ssd, from, to, retries)),
            _ => None,
        })
        .collect()
}

/// The acceptance bars, all deterministic (transitions are gated on
/// protocol decisions; the latency target is unmeetable on any clock):
/// under the transient overload both drivers walk lane 0 through the
/// identical `healthy -> degraded -> overloaded -> recovered` sequence,
/// absorb the same faults with the same retries, burn their SLO budget at
/// more than 1x, and feed every per-stage window the same number of samples.
pub fn bars(report: &HealthReport) -> Vec<String> {
    let mut failed = Vec::new();
    let (f, d) = (&report.functional, &report.des);
    require(
        &mut failed,
        report.sequences_match(),
        format!(
            "lane-health sequences diverge: functional {:?} vs des {:?}",
            f.transitions, d.transitions
        ),
    );
    let walk: Vec<(u8, u8)> = f.transitions.iter().map(|t| (t.1, t.2)).collect();
    require(
        &mut failed,
        walk == [(0, 1), (1, 2), (2, 3)],
        format!("lane 0 must walk healthy->degraded->overloaded->recovered, got {walk:?}"),
    );
    require(
        &mut failed,
        report.burn_exceeds_one(),
        format!(
            "burn rate must exceed 1: functional {:.1}/{:.1}, des {:.1}/{:.1}",
            f.burn_short, f.burn_long, d.burn_short, d.burn_long
        ),
    );
    require(
        &mut failed,
        f.faults == d.faults && f.faults > 0 && f.retries == d.retries && f.retries > 0,
        format!(
            "drivers must absorb the same faults: functional {} faults/{} retries, \
             des {} faults/{} retries",
            f.faults, f.retries, d.faults, d.retries
        ),
    );
    require(
        &mut failed,
        [
            f.retry_events,
            f.retry_window,
            d.retry_events,
            d.retry_window,
        ] == [f.retries; 4],
        format!(
            "every retry must be one CmdRetry event and one windowed-rate numerator count: \
             functional {} events/{} windowed, des {} events/{} windowed, {} retries",
            f.retry_events, f.retry_window, d.retry_events, d.retry_window, f.retries
        ),
    );
    require(
        &mut failed,
        f.stage_window == d.stage_window && f.stage_window.iter().all(|&n| n > 0),
        format!(
            "both drivers must feed every per-stage window the same sample count \
             (pickup/dispatch/submit/complete/retire): functional {:?}, des {:?}",
            f.stage_window, d.stage_window
        ),
    );
    failed
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn overload_walks_the_lane_and_burns_budget_identically_on_both_drivers() {
        let report = run_health_experiment();
        // HealthConfig::default() escalates at 8 episode faults; the run
        // injects 16 LBAs × 2 failures = 32 faults on lane 0.
        let expected: Vec<TransitionKey> = vec![
            (0, 0, 1, 1),                                  // Healthy → Degraded
            (0, 1, 2, 8),                                  // Degraded → Overloaded
            (0, 2, 3, FAULT_LBAS * u64::from(FAIL_TIMES)), // drain → Recovered
        ];
        assert_eq!(
            report.des.transitions, expected,
            "DES transition sequence diverged"
        );
        assert_eq!(
            report.functional.transitions, expected,
            "functional transition sequence diverged"
        );
        assert_eq!(bars(&report), Vec::<String>::new());
        // Driver drift guard: the shared fault schedule yields the same
        // retry events and the same windowed-retry numerator on both.
        assert_eq!(report.functional.retry_events, report.des.retry_events);
        assert_eq!(report.functional.retry_window, report.des.retry_window);
        assert_eq!(report.functional.batches, ROUNDS as u64);
        assert_eq!(report.des.batches, ROUNDS as u64);
        // No silently-empty window on either driver: one pickup and one
        // retire sample per batch, one of the rest per (batch, SSD) group.
        let (batches, groups) = (ROUNDS as u64, (ROUNDS * N_SSDS) as u64);
        let expected = [batches, groups, groups, groups, batches];
        assert_eq!(report.functional.stage_window, expected);
        assert_eq!(report.des.stage_window, expected);
    }
}
