//! Perf-trajectory subsystem: seeded multi-trial DES bench runs, and the
//! `bench` verb's exact gate on virtual time.
//!
//! The trajectories run on the **DES driver only**: virtual time makes
//! every trial metric machine-independent and exactly reproducible, so a
//! pin committed from one machine is bit-comparable in CI on any other —
//! and the comparison is equality, not a hypothesis test. Each trial:
//!
//! 1. builds a seeded workload (trial `i` uses [`SEED`]` + 1 + i`, so
//!    trials differ but the whole trajectory is reproducible),
//! 2. runs the CAM DES driver with lifecycle events on and a flight
//!    recorder attached,
//! 3. feeds the timeline through [`attribution::analyze`] into per-batch
//!    doorbell→retire attributions.
//!
//! The trials' batches are merged into one [`Trajectory`]: a log-linear
//! [`Histogram`] of the per-batch totals and the integer nanosecond sums of
//! doorbell→retire and of each queue-delay component
//! ([`attribution::component_name`]). On a P5510 both trajectories are
//! cases of the virtual-time transcript ([`pins::trajectory_case`]), one
//! line per component and per histogram bin. `repro bench` runs them once:
//! [`run_gate`] prints their summary and compares the whole transcript,
//! their cases rendered from those runs ([`pins::transcript_with`]), with
//! the committed `bench/baselines/virtual_time.golden` through
//! [`pins::differences`], the check the facade's
//! `tests/virtual_time_pins.rs` runs too: any difference — slower or
//! faster — is a failed bar, and a moved `component` line names the stage.
//! `repro bench --check` exits non-zero on it.
//!
//! `repro bench --update-baselines` rewrites the transcript instead. Its
//! directory [`BASELINES_DIR`] is resolved from this crate's manifest, so
//! any working directory reads and writes the same file.
//!
//! A second, **cached-mode** trajectory runs the seeded cache workload
//! through the DES cache stage ([`run_cached_trajectory`]) — so a change
//! in the cache hit path, the write-back flush, or the readahead pipeline
//! moves a committed line even though the uncached trajectory never
//! exercises that code.

use std::sync::Arc;

use cam_cache::run_cam_des_cached;
use cam_iostacks::cam_des::{run_cam_des_source, CamDesObs, CamDesReport, StaticSource};
use cam_nvme::SsdModel;
use cam_protocol::ChannelOp;
use cam_telemetry::attribution::{self, component_name, BatchAttribution};
use cam_telemetry::{FlightRecorder, Histogram, Stage};

use crate::fidelity_run::{
    cached_cache_cfg, cached_fidelity_workload_seeded, des_config, fidelity_workload, N_CHANNELS,
    N_SSDS, STRIPE_BLOCKS,
};
use crate::pins::{self, TRANSCRIPT_FILE};
use crate::table::Table;

/// The committed pins (`bench/baselines/` at the workspace root),
/// resolved from this crate's manifest so that `repro bench` reads and
/// writes the same file from any working directory.
pub const BASELINES_DIR: &str = concat!(env!("CARGO_MANIFEST_DIR"), "/../../bench/baselines");
/// Blocks in the cached trajectory's array (matches the fidelity rig:
/// [`N_SSDS`] SSDs × 16 Ki blocks each), so readahead sees real bounds.
const CACHED_ARRAY_BLOCKS: u64 = N_SSDS as u64 * 16 * 1024;

/// Trials merged into each trajectory.
pub const TRIALS: u64 = 5;
/// Base seed of the trials: trial `i` runs on `SEED + 1 + i`.
pub const SEED: u64 = 0x7E57_5EED;
/// Batches per channel per uncached trial (the cached trials run three
/// times as many on their one stream).
pub const ROUNDS: u64 = 10;

/// The [`Trajectory`] of [`TRIALS`] seeded DES trials: `run` drives trial
/// `i` on seed [`SEED`]` + 1 + i` with lifecycle events on and a flight
/// recorder attached, [`attribution::analyze`] splits its timeline, and
/// every trial's batches are merged.
fn trials(run: impl Fn(u64, Option<Arc<FlightRecorder>>, CamDesObs) -> CamDesReport) -> Trajectory {
    let mut attributed = Vec::new();
    for i in 0..TRIALS {
        let recorder = Arc::new(FlightRecorder::new());
        let obs = CamDesObs {
            lifecycle: true,
            ..CamDesObs::default()
        };
        run(SEED.wrapping_add(1 + i), Some(Arc::clone(&recorder)), obs);
        attributed.extend(attribution::analyze(&recorder.snapshot()));
    }
    let mut merged = Histogram::new();
    let mut total_ns = 0;
    let mut component_ns = [0; Stage::ALL.len()];
    for b in &attributed {
        merged.record(b.total_ns);
        total_ns += b.total_ns;
        for (sum, ns) in component_ns.iter_mut().zip(b.stage_ns) {
            *sum += ns;
        }
    }
    Trajectory {
        p50_ns: merged.quantile(0.5),
        p99_ns: merged.quantile(0.99),
        total_ns,
        component_ns,
        bins: merged.bins(),
        attributed,
    }
}

/// The exact facts of one trajectory run — what the transcript's
/// `== trajectory` cases state — and the attributed batches they are
/// merged from. Everything is an integer on the virtual timeline, so two
/// runs of the same model are equal.
#[derive(Clone, Debug)]
pub struct Trajectory {
    /// p50 of per-batch doorbell→retire latency over the merged bins, ns.
    pub p50_ns: u64,
    /// p99 of per-batch doorbell→retire latency over the merged bins, ns.
    pub p99_ns: u64,
    /// Sum of every batch's doorbell→retire latency, ns.
    pub total_ns: u64,
    /// Sum of every batch's time per queue-delay component, ns, indexed by
    /// [`Stage::index`].
    pub component_ns: [u64; Stage::ALL.len()],
    /// Log-linear histogram bins of the per-batch totals, all trials
    /// merged.
    pub bins: Vec<(u64, u64)>,
    /// Every trial's attributed batches, in trial order.
    pub attributed: Vec<BatchAttribution>,
}

impl Trajectory {
    /// Batches retired across all trials.
    pub fn batches(&self) -> u64 {
        self.bins.iter().map(|&(_, count)| count).sum()
    }

    /// The component with the largest share of the total.
    pub fn dominant(&self) -> Stage {
        attribution::dominant(&self.component_ns)
    }
}

/// Runs the full uncached trajectory on `model` SSDs: [`TRIALS`] seeded
/// trials of the fidelity experiment's workload on the fidelity DES
/// configuration, so dedup and stripe splits occur. Deterministic: same
/// model, same [`Trajectory`] (virtual time end to end).
pub fn run_trajectory(model: SsdModel) -> Trajectory {
    trials(|seed, recorder, obs| {
        let workload = StaticSource::new(fidelity_workload(ROUNDS, seed), ChannelOp::Read);
        let config = des_config(N_SSDS, STRIPE_BLOCKS, true, model);
        run_cam_des_source(config, N_CHANNELS, Box::new(workload), recorder, obs)
    })
}

/// The cached-mode counterpart of [`run_trajectory`]: each trial runs the
/// seeded cache workload (same shape the cached fidelity matrix proved
/// decision-exact across drivers) through the DES cache stage. The
/// trajectory pins latencies, not decisions — decision exactness is the
/// fidelity suite's job — but it runs on the identical [`cached_cache_cfg`]
/// configuration, so a cache change surfaces here as a latency/attribution
/// difference.
pub fn run_cached_trajectory(model: SsdModel) -> Trajectory {
    trials(|seed, recorder, obs| {
        let workload = cached_fidelity_workload_seeded(ROUNDS * 3, seed);
        let config = des_config(N_SSDS, STRIPE_BLOCKS, true, model);
        let cache = cached_cache_cfg();
        run_cam_des_cached(config, cache, CACHED_ARRAY_BLOCKS, workload, recorder, obs).0
    })
}

/// The summary table of the uncached and cached trajectories on P5510s,
/// and the gate of the whole virtual-time transcript, its trajectory cases
/// rendered from those two runs ([`pins::transcript_with`]), against the
/// committed one under [`BASELINES_DIR`]; with `update` the transcript is
/// written there instead. A failed bar, pushed to `failed`, is a
/// transcript that differs — the message names every differing case and
/// its first differing lines — or a file that cannot be read or (with
/// `update`) written.
pub fn run_gate(
    uncached: &Trajectory,
    cached: &Trajectory,
    update: bool,
    failed: &mut Vec<String>,
) -> Table {
    let mut summary = Table::new(
        "Perf trajectory: seeded DES trials, per-batch doorbell->retire latency",
        &["mode", "batches", "p50 ns", "p99 ns", "mean ns", "dominant"],
    );
    summary.note(format!(
        "{TRIALS} trials, seed {SEED:#x}, {ROUNDS} rounds/channel"
    ));
    for (label, t) in [("uncached", uncached), ("cached", cached)] {
        let mean_ns = t.total_ns as f64 / t.batches().max(1) as f64;
        summary.row(vec![
            label.into(),
            t.batches().to_string(),
            t.p50_ns.to_string(),
            t.p99_ns.to_string(),
            format!("{mean_ns:.0}"),
            component_name(t.dominant()).into(),
        ]);
    }
    let path = format!("{BASELINES_DIR}/{TRANSCRIPT_FILE}");
    let file = format!("bench/baselines/{TRANSCRIPT_FILE}");
    let transcript = pins::transcript_with(uncached, cached);
    let verdict = if update {
        std::fs::write(&path, transcript)
            .map(|()| format!("updated {file}"))
            .map_err(|e| format!("could not write {path}: {e}"))
    } else {
        match std::fs::read_to_string(&path) {
            Err(e) => Err(format!(
                "{path} unreadable ({e}); write it with 'repro bench --update-baselines'"
            )),
            Ok(committed) => match pins::differences(&transcript, &committed) {
                None => Ok(format!("virtual time equals {file}")),
                Some(diff) => Err(format!(
                    "virtual time differs from {file} (after a deliberate model change, \
                     regenerate it with 'repro bench --update-baselines' and review the \
                     diff):\n{diff}"
                )),
            },
        }
    };
    match verdict {
        Ok(note) => {
            summary.note(note);
        }
        Err(failure) => failed.push(failure),
    }
    summary
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::fidelity_run::N_CHANNELS;
    use cam_simkit::Dur;

    #[test]
    fn des_lifecycle_covers_every_batch() {
        let r = run_trajectory(SsdModel::p5510());
        let expected = TRIALS * ROUNDS * N_CHANNELS as u64;
        assert_eq!(r.batches(), expected, "every retired batch is attributed");
        // In the DES, doorbell and pickup coincide: the doorbell-wait
        // component is structurally zero. Dispatch and submit are NOT —
        // the calibrated CPU pipe charges batch planning on the dispatch
        // pipe and SQE pushes on the worker pipe, so both components are
        // visible exactly as in the threaded driver.
        assert_eq!(r.component_ns[Stage::Pickup.index()], 0);
        assert!(
            r.component_ns[Stage::Dispatch.index()] > 0,
            "CPU pipe must surface a dispatch component"
        );
        assert!(
            r.component_ns[Stage::Submit.index()] > 0,
            "worker CPU must surface a lane-wait component"
        );
        // One worker pushing four channels' SQEs at the paper's per-command
        // cost makes the submission CPU the honest bottleneck of this
        // configuration; device service is the runner-up.
        assert!(matches!(r.dominant(), Stage::Submit | Stage::Complete));
        // The cached stage runs on the calibrated CPU pipe too.
        let c = run_cached_trajectory(SsdModel::p5510());
        assert_eq!(c.component_ns[Stage::Pickup.index()], 0);
        assert!(c.component_ns[Stage::Dispatch.index()] > 0);
    }

    /// A P5510 whose service time is scaled by `scale`: command latency up
    /// and channel/link bandwidth down, so `1.02` models a device 2%
    /// slower across the board.
    fn scaled_p5510(scale: f64) -> SsdModel {
        let mut model = SsdModel::p5510();
        model.read_latency = Dur::ns((model.read_latency.as_ns() as f64 * scale) as u64);
        model.write_latency = Dur::ns((model.write_latency.as_ns() as f64 * scale) as u64);
        model.channel_read_gbps /= scale;
        model.channel_write_gbps /= scale;
        model.link_gbps /= scale;
        model
    }

    /// The `== trajectory <mode>` case of a transcript or of a report.
    fn case<'a>(text: &'a str, mode: &str) -> &'a str {
        let mut cases = text.split("== trajectory ");
        cases.find(|c| c.starts_with(mode)).unwrap_or_default()
    }

    /// The two `== trajectory` cases on `model` SSDs, and the uncached run
    /// they state.
    fn trajectory_cases(model: SsdModel) -> (String, Trajectory) {
        let uncached = run_trajectory(model);
        let cached = run_cached_trajectory(model);
        let text = pins::trajectory_case("trajectory uncached", &uncached)
            + &pins::trajectory_case("trajectory cached", &cached);
        (text, uncached)
    }

    /// The gate's self-test: against the default trajectories, a device 2%
    /// slower or 2% faster across the board makes the transcript check
    /// name both trajectory cases and their `component ssd_service` line,
    /// moved the right way. (That the default trajectories are the
    /// committed ones is the facade's `tests/virtual_time_pins.rs`.)
    #[test]
    fn a_2_percent_device_change_is_named_by_its_component_line() {
        let (committed, p5510) = trajectory_cases(SsdModel::p5510());
        assert_eq!(pins::differences(&committed, &committed), None);
        for (scale, slower) in [(1.02, true), (0.98, false)] {
            let (perturbed, _) = trajectory_cases(scaled_p5510(scale));
            let diff = pins::differences(&perturbed, &committed).expect("flagged");
            for mode in ["uncached", "cached"] {
                let ssd_service = |text| {
                    let mut lines = case(text, mode).lines();
                    let ns = lines.find_map(|l| l.strip_prefix("component ssd_service "));
                    ns.expect("an ssd_service line").parse::<u64>().unwrap()
                };
                let (now, then) = (ssd_service(&perturbed), ssd_service(&committed));
                assert_eq!(now > then, slower, "{mode} at {scale}");
                let named = format!(
                    "this tree \"component ssd_service {now}\", \
                     committed \"component ssd_service {then}\""
                );
                assert!(case(&diff, mode).contains(&named), "{scale}:\n{diff}");
            }
        }
        // One worker pushing four channels' SQEs is the honest bottleneck
        // of the default configuration, and the summary row says so.
        assert_eq!(component_name(p5510.dominant()), "lane_wait");
    }
}
