//! Perf-trajectory subsystem: seeded multi-trial DES bench runs, a
//! statistical regression gate against committed baselines, and run
//! metadata appended to `BENCH_repro.json`'s `trajectory` array.
//!
//! The gate runs on the **DES driver only**: virtual time makes every
//! trial metric machine-independent, so a baseline committed from one
//! machine is bit-comparable in CI on any other. (Wall-clock numbers from
//! the threaded driver would drown a 20% model regression in scheduler
//! noise.) Each trial:
//!
//! 1. builds a seeded workload (seed = `params.seed + trial index`, so
//!    trials differ but the whole trajectory is reproducible),
//! 2. runs the CAM DES driver with lifecycle events on and a flight
//!    recorder attached,
//! 3. feeds the timeline through [`critical::analyze`] and collects the
//!    per-batch doorbell→retire totals into a log-linear [`Histogram`].
//!
//! Warmup trials are discarded; the measured trials' bins are merged and
//! compared against `bench/baselines/trajectory.json` with a Mann-Whitney
//! U test plus a minimum-relative-shift guard (see [`check`]), and
//! the queue-delay decomposition ([`cam_telemetry::attribution`]) says
//! *which* component moved. `repro bench --check` exits non-zero on a
//! flagged regression; `repro bench --update-baselines` rewrites the
//! baseline file. The gate is one of the `bench` verb's acceptance bars
//! ([`run_gate`]).
//!
//! A second, **cached-mode** trajectory runs the seeded cache workload
//! through the DES cache stage ([`run_cached_trajectory`]) and gates it
//! against `bench/baselines/trajectory_cached.json` with the same
//! statistics — so a regression in the cache hit path, the write-back
//! flush, or the readahead pipeline moves a committed number even though
//! the uncached trajectory never exercises that code.

use std::sync::Arc;

use cam_cache::run_cam_des_cached;
use cam_iostacks::cam_des::{run_cam_des_obs, CamDesConfig, CamDesObs, CamDesReport};
use cam_nvme::SsdModel;
use cam_simkit::Dur;
use cam_telemetry::attribution::{component_name, decompose, LatencyDecomposition};
use cam_telemetry::json::{parse, Json};
use cam_telemetry::stats::{
    binned_mean, binned_quantile, bootstrap_quantile_ci, mann_whitney, MannWhitney, QuantileCi,
};
use cam_telemetry::{critical, obj, FlightRecorder, Histogram, Stage};

use crate::fidelity_run::{des_config, fidelity_workload, N_SSDS, STRIPE_BLOCKS};
use crate::table::Table;

/// Default path of the committed baseline, relative to the repo root.
pub const BASELINE_PATH: &str = "bench/baselines/trajectory.json";
/// Baseline schema version, bumped when the JSON layout changes.
pub const BASELINE_SCHEMA: u64 = 1;
/// Blocks in the cached trajectory's array (matches the fidelity rig:
/// [`N_SSDS`] SSDs × 16 Ki blocks each), so readahead sees real bounds.
const CACHED_ARRAY_BLOCKS: u64 = N_SSDS as u64 * 16 * 1024;

/// The cached-mode baseline path derived from the uncached one:
/// `trajectory.json` → `trajectory_cached.json`, so `--baselines <path>`
/// relocates both files together.
pub fn cached_baseline_path(baselines: &str) -> String {
    match baselines.strip_suffix(".json") {
        Some(stem) => format!("{stem}_cached.json"),
        None => format!("{baselines}_cached"),
    }
}

/// Parameters of one trajectory run (the `repro` CLI threads `--trials`
/// and `--seed` here).
#[derive(Clone, Copy, Debug, PartialEq)]
pub struct TrialParams {
    /// Measured trials (after warmup).
    pub trials: usize,
    /// Leading trials discarded before statistics.
    pub warmup: usize,
    /// Base seed; trial `i` uses `seed + i`.
    pub seed: u64,
    /// Batches per channel per trial.
    pub rounds: u64,
    /// SSD service-time multiplier — the deliberate perturbation knob the
    /// gate's failing-path test (and CI job) uses. Scales command latency
    /// up and channel/link bandwidth down, i.e. `1.2` models a device 20%
    /// slower across the board.
    pub latency_scale: f64,
}

impl Default for TrialParams {
    fn default() -> Self {
        TrialParams {
            trials: 5,
            warmup: 1,
            seed: 0x7E57_5EED,
            rounds: 10,
            latency_scale: 1.0,
        }
    }
}

/// Metrics of a single measured trial.
#[derive(Clone, Debug)]
pub struct TrialMetrics {
    /// The trial's workload seed.
    pub seed: u64,
    /// Virtual doorbell→last-retire duration, ns.
    pub duration_ns: u64,
    /// Batches retired.
    pub batches: u64,
    /// p50 of per-batch doorbell→retire latency, ns.
    pub p50_ns: u64,
    /// p99 of per-batch doorbell→retire latency, ns.
    pub p99_ns: u64,
    /// Log-linear histogram bins of the per-batch totals.
    pub bins: Vec<(u64, u64)>,
    /// Per-batch attributions (feed of the merged decomposition).
    pub attributions: Vec<critical::BatchAttribution>,
}

/// A full trajectory run: per-trial metrics plus merged statistics.
#[derive(Clone, Debug)]
pub struct TrajectoryReport {
    /// The parameters that produced it.
    pub params: TrialParams,
    /// Measured trials, in order (warmup already discarded).
    pub trials: Vec<TrialMetrics>,
    /// Bins merged across all measured trials.
    pub bins: Vec<(u64, u64)>,
    /// Merged p50 of per-batch latency, ns.
    pub p50_ns: u64,
    /// Merged p99 of per-batch latency, ns.
    pub p99_ns: u64,
    /// Merged mean per-batch latency, ns.
    pub mean_batch_ns: f64,
    /// Bootstrap CI around the merged p50.
    pub p50_ci: QuantileCi,
    /// Bootstrap CI around the merged p99.
    pub p99_ci: QuantileCi,
    /// Queue-delay decomposition over every measured batch.
    pub decomposition: LatencyDecomposition,
}

/// The fidelity DES configuration on a P5510 whose service time is scaled
/// by `latency_scale`; each trial drives it with the fidelity experiment's
/// seeded workload, so dedup and stripe splits occur.
fn trial_config(latency_scale: f64) -> CamDesConfig {
    let mut model = SsdModel::p5510();
    model.read_latency = Dur::ns((model.read_latency.as_ns() as f64 * latency_scale) as u64);
    model.write_latency = Dur::ns((model.write_latency.as_ns() as f64 * latency_scale) as u64);
    model.channel_read_gbps /= latency_scale;
    model.channel_write_gbps /= latency_scale;
    model.link_gbps /= latency_scale;
    des_config(N_SSDS, STRIPE_BLOCKS, true, model)
}

/// Runs one DES trial with lifecycle events on and a flight recorder
/// attached, and attributes its timeline through [`critical::analyze`].
fn recorded_trial(
    seed: u64,
    run: impl FnOnce(Option<Arc<FlightRecorder>>, CamDesObs) -> CamDesReport,
) -> TrialMetrics {
    let recorder = Arc::new(FlightRecorder::new());
    let obs = CamDesObs {
        windows: None,
        slo: None,
        lifecycle: true,
    };
    let r = run(Some(Arc::clone(&recorder)), obs);
    let report = critical::analyze(&recorder.snapshot());
    let mut hist = Histogram::new();
    for b in &report.batches {
        hist.record(b.total_ns);
    }
    TrialMetrics {
        seed,
        duration_ns: r.duration.as_ns(),
        batches: r.batches,
        p50_ns: hist.quantile(0.5),
        p99_ns: hist.quantile(0.99),
        bins: hist.bins(),
        attributions: report.batches,
    }
}

/// Runs one uncached trial on the fidelity experiment's seeded workload.
pub fn run_trial(seed: u64, rounds: u64, latency_scale: f64) -> TrialMetrics {
    recorded_trial(seed, |recorder, obs| {
        run_cam_des_obs(
            trial_config(latency_scale),
            fidelity_workload(rounds, seed),
            recorder,
            obs,
        )
    })
}

/// Runs one **cached-mode** trial: the seeded cache workload (same shape
/// the cached fidelity matrix proved decision-exact across drivers)
/// through the DES cache stage, attributed exactly like [`run_trial`].
/// The trajectory gates latency distributions, not decisions — decision
/// exactness is the fidelity suite's job — but it runs on the identical
/// [`crate::fidelity_run::cached_cache_cfg`] configuration, so a cache
/// regression surfaces here as a latency/attribution shift.
pub fn run_cached_trial(seed: u64, rounds: u64, latency_scale: f64) -> TrialMetrics {
    recorded_trial(seed, |recorder, obs| {
        run_cam_des_cached(
            trial_config(latency_scale),
            crate::fidelity_run::cached_cache_cfg(),
            CACHED_ARRAY_BLOCKS,
            crate::fidelity_run::cached_fidelity_workload_seeded(rounds * 3, seed),
            recorder,
            obs,
        )
        .0
    })
}

/// Runs the full trajectory: `warmup` discarded trials then `trials`
/// measured ones, merged statistics over the measured set. Deterministic:
/// same params, same report (virtual time end to end).
pub fn run_trajectory(params: &TrialParams) -> TrajectoryReport {
    run_trajectory_with(params, run_trial)
}

/// The cached-mode counterpart of [`run_trajectory`]: same trial/warmup
/// merge over [`run_cached_trial`]. Gated against
/// `bench/baselines/trajectory_cached.json` by `repro bench --check`.
pub fn run_cached_trajectory(params: &TrialParams) -> TrajectoryReport {
    run_trajectory_with(params, run_cached_trial)
}

fn run_trajectory_with(
    params: &TrialParams,
    run: impl Fn(u64, u64, f64) -> TrialMetrics,
) -> TrajectoryReport {
    let mut trials = Vec::with_capacity(params.trials);
    for i in 0..params.warmup + params.trials {
        let t = run(
            params.seed.wrapping_add(i as u64),
            params.rounds,
            params.latency_scale,
        );
        if i >= params.warmup {
            trials.push(t);
        }
    }
    let mut merged = Histogram::new();
    let mut attributions = Vec::new();
    for t in &trials {
        for b in &t.attributions {
            merged.record(b.total_ns);
        }
        attributions.extend(t.attributions.iter().cloned());
    }
    let bins = merged.bins();
    let decomposition = decompose(&attributions).expect("trajectory retires at least one batch");
    let p50_ci = bootstrap_quantile_ci(&bins, 0.5, 200, 0.05, params.seed).expect("non-empty bins");
    let p99_ci =
        bootstrap_quantile_ci(&bins, 0.99, 200, 0.05, params.seed).expect("non-empty bins");
    TrajectoryReport {
        params: *params,
        p50_ns: merged.quantile(0.5),
        p99_ns: merged.quantile(0.99),
        mean_batch_ns: binned_mean(&bins),
        p50_ci,
        p99_ci,
        decomposition,
        bins,
        trials,
    }
}

// ---------------------------------------------------------------------------
// Baselines
// ---------------------------------------------------------------------------

/// A committed baseline: the merged bins and headline metrics of a past
/// trajectory run on the same parameters.
#[derive(Clone, Debug, PartialEq)]
pub struct Baseline {
    /// Merged histogram bins of per-batch latency.
    pub bins: Vec<(u64, u64)>,
    /// Merged p50, ns.
    pub p50_ns: u64,
    /// Merged p99, ns.
    pub p99_ns: u64,
    /// Merged mean, ns.
    pub mean_batch_ns: f64,
    /// Mean ns per queue-delay component, indexed by [`Stage::index`].
    pub mean_component_ns: [f64; Stage::ALL.len()],
}

/// A report as the committed baseline document.
pub fn baseline_json(report: &TrajectoryReport) -> Json {
    let p = &report.params;
    obj! {
        "schema" => BASELINE_SCHEMA,
        "params" => obj! {
            "trials" => p.trials,
            "warmup" => p.warmup,
            "seed" => p.seed,
            "rounds" => p.rounds,
        },
        "p50_ns" => report.p50_ns,
        "p99_ns" => report.p99_ns,
        "mean_batch_ns" => Json::fixed(report.mean_batch_ns, 1),
        "mean_component_ns" => Json::obj(Stage::ALL.iter().map(|s| {
            let mean = Json::fixed(report.decomposition.mean_ns[s.index()], 1);
            (component_name(*s), mean)
        })),
        "bins" => Json::arr(report.bins.iter().map(|&(low, count)| Json::arr([low, count]))),
    }
}

/// Parses a baseline file.
pub fn parse_baseline(text: &str) -> Result<Baseline, String> {
    let json = parse(text)?;
    let int = |key: &str| -> Result<u64, String> {
        json.get(key)
            .and_then(Json::as_u64)
            .ok_or_else(|| format!("baseline missing '{key}'"))
    };
    let schema = int("schema")?;
    if schema != BASELINE_SCHEMA {
        return Err(format!(
            "baseline schema {schema} != supported {BASELINE_SCHEMA} \
             (regenerate with 'repro bench --update-baselines')"
        ));
    }
    let bins = json
        .get("bins")
        .and_then(Json::as_arr)
        .ok_or("baseline missing 'bins'")?
        .iter()
        .map(|pair| match pair.as_arr() {
            Some([low, count]) => Ok((
                low.as_u64().ok_or("non-integer bin low")?,
                count.as_u64().ok_or("non-integer bin count")?,
            )),
            _ => Err("bin is not a [low, count] pair".to_string()),
        })
        .collect::<Result<Vec<_>, String>>()?;
    let comps = json
        .get("mean_component_ns")
        .ok_or("baseline missing 'mean_component_ns'")?;
    let mut mean_component_ns = [0.0; Stage::ALL.len()];
    for s in Stage::ALL {
        mean_component_ns[s.index()] = comps
            .get(component_name(s))
            .and_then(Json::as_f64)
            .ok_or_else(|| format!("baseline missing component '{}'", component_name(s)))?;
    }
    Ok(Baseline {
        bins,
        p50_ns: int("p50_ns")?,
        p99_ns: int("p99_ns")?,
        mean_batch_ns: json
            .get("mean_batch_ns")
            .and_then(Json::as_f64)
            .ok_or("baseline missing 'mean_batch_ns'")?,
        mean_component_ns,
    })
}

// ---------------------------------------------------------------------------
// The gate
// ---------------------------------------------------------------------------

/// Mann-Whitney z threshold of the regression gate (≈ one-sided
/// p < 0.001).
pub const Z_THRESHOLD: f64 = 3.0;
/// Minimum relative p50-or-p99 shift (5%) the gate calls a regression:
/// above the histogram's ~3% bucket quantization, so a one-bucket wobble
/// alone cannot fire the shift arm.
pub const MIN_REL_SHIFT: f64 = 0.05;

/// Per-component baseline-vs-current delta in the gate report.
#[derive(Clone, Debug)]
pub struct ComponentDelta {
    /// Queue-delay component name ([`component_name`]).
    pub name: &'static str,
    /// Baseline mean ns per batch in this component.
    pub baseline_ns: f64,
    /// Current mean ns per batch in this component.
    pub current_ns: f64,
}

impl ComponentDelta {
    /// Relative change vs baseline (0.2 = +20%); 0 when the baseline
    /// component is empty.
    pub fn rel_delta(&self) -> f64 {
        if self.baseline_ns <= 0.0 {
            return 0.0;
        }
        self.current_ns / self.baseline_ns - 1.0
    }
}

/// Outcome of gating a trajectory report against a baseline.
#[derive(Clone, Debug)]
pub struct GateOutcome {
    /// Whether the gate flags a regression.
    pub regressed: bool,
    /// The Mann-Whitney test over the merged bins (None only for empty
    /// inputs, which cannot happen through [`run_trajectory`]).
    pub mw: Option<MannWhitney>,
    /// Relative p50 shift vs baseline (positive = slower).
    pub rel_shift_p50: f64,
    /// Relative p99 shift vs baseline.
    pub rel_shift_p99: f64,
    /// Whether the baseline p50 falls outside the current p50's
    /// bootstrap CI (reported, not part of the decision rule).
    pub ci_excludes_baseline: bool,
    /// Per-component deltas, stage order.
    pub components: Vec<ComponentDelta>,
}

impl GateOutcome {
    /// The component with the largest absolute ns increase — where the
    /// regression went, in queue-delay terms.
    pub fn dominant_shift(&self) -> Option<&ComponentDelta> {
        self.components
            .iter()
            .max_by(|a, b| {
                let da = a.current_ns - a.baseline_ns;
                let db = b.current_ns - b.baseline_ns;
                da.partial_cmp(&db).unwrap_or(std::cmp::Ordering::Equal)
            })
            .filter(|c| c.current_ns > c.baseline_ns)
    }

    /// The verdict plus the per-component attribution, as a CLI table.
    pub fn table(&self, label: &str) -> Table {
        let mut t = Table::new(
            format!("Perf gate ({label}): mean ns/batch per component, baseline vs current"),
            &["component", "baseline ns", "current ns", "delta"],
        );
        for c in &self.components {
            t.row(vec![
                c.name.into(),
                format!("{:.0}", c.baseline_ns),
                format!("{:.0}", c.current_ns),
                format!("{:+.1}%", c.rel_delta() * 100.0),
            ]);
        }
        t.note(format!(
            "gate: {} (z = {:.2}, p50 shift {:+.1}%, p99 shift {:+.1}%, \
             CI excludes baseline p50: {})",
            if self.regressed { "REGRESSED" } else { "ok" },
            self.mw.as_ref().map_or(0.0, |m| m.z),
            self.rel_shift_p50 * 100.0,
            self.rel_shift_p99 * 100.0,
            self.ci_excludes_baseline
        ));
        if let Some(dom) = self.dominant_shift() {
            t.note(format!(
                "largest shift: {} ({:+.0} ns/batch, {:+.1}%)",
                dom.name,
                dom.current_ns - dom.baseline_ns,
                dom.rel_delta() * 100.0
            ));
        }
        t
    }

    /// The machine-readable diff report (`baseline_diff.json`, uploaded
    /// as a CI artifact when the gate fails).
    pub fn to_json(&self) -> Json {
        obj! {
            "regressed" => self.regressed,
            "z" => Json::fixed(self.mw.as_ref().map_or(0.0, |m| m.z), 3),
            "rel_shift_p50" => Json::fixed(self.rel_shift_p50, 4),
            "rel_shift_p99" => Json::fixed(self.rel_shift_p99, 4),
            "ci_excludes_baseline" => self.ci_excludes_baseline,
            "components" => Json::obj(self.components.iter().map(|c| {
                let delta = obj! {
                    "baseline_ns" => Json::fixed(c.baseline_ns, 1),
                    "current_ns" => Json::fixed(c.current_ns, 1),
                    "rel_delta" => Json::fixed(c.rel_delta(), 4),
                };
                (c.name, delta)
            })),
            "dominant_shift" => self.dominant_shift().map(|d| d.name),
        }
    }
}

/// Gates a trajectory report against a baseline.
///
/// A run is flagged as regressed when **either** detector fires:
/// * the Mann-Whitney z over the merged bins exceeds [`Z_THRESHOLD`]
///   (current stochastically slower than baseline) — catches dense,
///   whole-distribution shifts with statistical confidence, **or**
/// * the relative p50 **or** p99 shift exceeds [`MIN_REL_SHIFT`] — catches
///   tail-only regressions that Mann-Whitney cannot power at these sample
///   sizes. The tail arm matters in this pipelined system: a device 20%
///   slower across the board is largely absorbed by CPU/device overlap
///   near the median (measured p50 shift ~3%, within a log-linear bucket)
///   but surfaces whole in the tail (p99 +13–15%), leaving z ≈ 1–2 even
///   at hundreds of batches per side because most histogram mass never
///   moves.
///
/// Using OR instead of AND does not make the gate flaky: the DES is
/// deterministic, so a baseline-identical rerun reproduces the bins
/// bit-for-bit (z = 0, shifts = 0) and passes structurally, not by luck.
pub fn check(report: &TrajectoryReport, baseline: &Baseline) -> GateOutcome {
    let mw = mann_whitney(&baseline.bins, &report.bins);
    let rel = |base: u64, cur: u64| {
        if base == 0 {
            0.0
        } else {
            cur as f64 / base as f64 - 1.0
        }
    };
    let rel_shift_p50 = rel(baseline.p50_ns, binned_quantile(&report.bins, 0.5));
    let rel_shift_p99 = rel(baseline.p99_ns, binned_quantile(&report.bins, 0.99));
    let slower = mw
        .as_ref()
        .is_some_and(|m| m.slower_than_baseline(Z_THRESHOLD));
    let components = Stage::ALL
        .iter()
        .map(|s| ComponentDelta {
            name: component_name(*s),
            baseline_ns: baseline.mean_component_ns[s.index()],
            current_ns: report.decomposition.mean_ns[s.index()],
        })
        .collect();
    GateOutcome {
        regressed: slower || rel_shift_p50.max(rel_shift_p99) > MIN_REL_SHIFT,
        mw,
        rel_shift_p50,
        rel_shift_p99,
        ci_excludes_baseline: report.p50_ci.excludes(baseline.p50_ns),
        components,
    }
}

/// What [`run_gate`] hands the `bench` generator.
pub struct GateRun {
    /// The trajectory summary and, per gated mode, the component table.
    pub tables: Vec<Table>,
    /// The uncached run's entry for `BENCH_repro.json`'s `trajectory` array.
    pub entry: Json,
    /// Failed bars: a flagged regression, or a baseline that cannot be
    /// read, parsed or (with `update`) written.
    pub failures: Vec<String>,
}

/// Runs the uncached and cached trajectories and gates each against its
/// committed baseline (`baselines` and its [`cached_baseline_path`]); a
/// regression also writes `baseline_diff.json` / `baseline_diff_cached.json`
/// with the per-component attribution. With `update` the baselines are
/// rewritten from this run instead of judged.
pub fn run_gate(tp: &TrialParams, baselines: &str, update: bool) -> GateRun {
    let mut summary = Table::new(
        "Perf trajectory: seeded DES trials, per-batch doorbell->retire latency",
        &[
            "mode",
            "batches",
            "p50 ns (CI)",
            "p99 ns (CI)",
            "mean ns",
            "dominant",
        ],
    );
    summary.note(format!(
        "{} trials + {} warmup, seed {:#x}, {} rounds/channel, latency scale {:.2}",
        tp.trials, tp.warmup, tp.seed, tp.rounds, tp.latency_scale
    ));
    let mut tables = Vec::new();
    let mut failures = Vec::new();
    let uncached = run_trajectory(tp);
    let cached = run_cached_trajectory(tp);
    for (label, report, path, diff_path) in [
        (
            "uncached",
            &uncached,
            baselines.to_string(),
            "baseline_diff.json",
        ),
        (
            "cached",
            &cached,
            cached_baseline_path(baselines),
            "baseline_diff_cached.json",
        ),
    ] {
        summary.row(vec![
            label.into(),
            report.decomposition.batches.to_string(),
            format!(
                "{} ({}..{})",
                report.p50_ns, report.p50_ci.lo, report.p50_ci.hi
            ),
            format!(
                "{} ({}..{})",
                report.p99_ns, report.p99_ci.lo, report.p99_ci.hi
            ),
            format!("{:.0}", report.mean_batch_ns),
            component_name(report.decomposition.dominant_mean()).into(),
        ]);
        if update {
            let dir = std::path::Path::new(&path).parent();
            let written = dir
                .map_or(Ok(()), std::fs::create_dir_all)
                .and_then(|()| std::fs::write(&path, format!("{:#}", baseline_json(report))));
            match written {
                Ok(()) => {
                    summary.note(format!("updated {label} baseline at {path}"));
                }
                Err(e) => failures.push(format!("could not write {label} baseline {path}: {e}")),
            }
            continue;
        }
        let baseline = std::fs::read_to_string(&path)
            .map_err(|e| {
                format!("unreadable ({e}); seed one with 'repro bench --update-baselines'")
            })
            .and_then(|text| parse_baseline(&text));
        let outcome = match baseline {
            Ok(b) => check(report, &b),
            Err(e) => {
                failures.push(format!("{label} baseline {path}: {e}"));
                continue;
            }
        };
        if outcome.regressed {
            let shift = outcome.dominant_shift().map_or("none", |c| c.name);
            failures.push(format!(
                "{label} trajectory REGRESSED against {path} (p50 {:+.1}%, p99 {:+.1}%, \
                 largest shift: {shift}); attribution in {diff_path}",
                outcome.rel_shift_p50 * 100.0,
                outcome.rel_shift_p99 * 100.0,
            ));
            if let Err(e) = std::fs::write(diff_path, format!("{:#}", outcome.to_json())) {
                eprintln!("warning: could not write {diff_path}: {e}");
            }
        }
        tables.push(outcome.table(label));
    }
    tables.insert(0, summary);
    let unix_time = std::time::SystemTime::now()
        .duration_since(std::time::UNIX_EPOCH)
        .map(|d| d.as_secs())
        .unwrap_or(0);
    GateRun {
        tables,
        entry: trajectory_entry_json(&uncached, &current_git_sha(), unix_time),
        failures,
    }
}

/// One run's entry in `BENCH_repro.json`'s `trajectory` array.
pub fn trajectory_entry_json(report: &TrajectoryReport, git_sha: &str, unix_time: u64) -> Json {
    let p = &report.params;
    obj! {
        "git_sha" => git_sha,
        "unix_time" => unix_time,
        "seed" => p.seed,
        "trials" => p.trials,
        "rounds" => p.rounds,
        "latency_scale" => Json::fixed(p.latency_scale, 2),
        "p50_ns" => report.p50_ns,
        "p99_ns" => report.p99_ns,
        "mean_batch_ns" => Json::fixed(report.mean_batch_ns, 1),
        "dominant_mean" => component_name(report.decomposition.dominant_mean()),
    }
}

/// Best-effort commit id for trajectory entries: `git rev-parse` in the
/// current directory, then `GITHUB_SHA`, then `"unknown"`.
pub fn current_git_sha() -> String {
    if let Ok(output) = std::process::Command::new("git")
        .args(["rev-parse", "--short", "HEAD"])
        .output()
    {
        if output.status.success() {
            if let Ok(s) = String::from_utf8(output.stdout) {
                let s = s.trim();
                if !s.is_empty() {
                    return s.to_string();
                }
            }
        }
    }
    std::env::var("GITHUB_SHA")
        .ok()
        .filter(|s| !s.is_empty())
        .map(|s| s.chars().take(12).collect())
        .unwrap_or_else(|| "unknown".to_string())
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::fidelity_run::N_CHANNELS;

    fn small() -> TrialParams {
        TrialParams {
            trials: 2,
            warmup: 1,
            rounds: 4,
            ..TrialParams::default()
        }
    }

    #[test]
    fn trajectory_is_deterministic() {
        let p = small();
        let a = run_trajectory(&p);
        let b = run_trajectory(&p);
        assert_eq!(a.bins, b.bins);
        assert_eq!(a.p50_ns, b.p50_ns);
        assert_eq!(a.p99_ns, b.p99_ns);
        assert!(a.p50_ns > 0);
        assert_eq!(
            a.trials.len(),
            p.trials,
            "warmup trials are discarded from the measured set"
        );
    }

    #[test]
    fn des_lifecycle_covers_every_batch() {
        let p = small();
        let r = run_trajectory(&p);
        let expected = (p.trials as u64) * (p.rounds * N_CHANNELS as u64);
        let attributed: u64 = r.trials.iter().map(|t| t.attributions.len() as u64).sum();
        assert_eq!(attributed, expected, "every retired batch is attributed");
        // In the DES, doorbell and pickup coincide: the doorbell-wait
        // component is structurally zero. Dispatch and submit are NOT —
        // the calibrated CPU pipe charges batch planning on the dispatch
        // pipe and SQE pushes on the worker pipe, so both components are
        // visible exactly as in the threaded driver.
        assert_eq!(r.decomposition.mean_ns[Stage::Pickup.index()], 0.0);
        assert!(
            r.decomposition.mean_ns[Stage::Dispatch.index()] > 0.0,
            "CPU pipe must surface a dispatch component"
        );
        assert!(
            r.decomposition.mean_ns[Stage::Submit.index()] > 0.0,
            "worker CPU must surface a lane-wait component"
        );
        // One worker pushing four channels' SQEs at the paper's per-command
        // cost makes the submission CPU the honest bottleneck of this
        // configuration; device service is the runner-up.
        assert!(matches!(
            r.decomposition.dominant_mean(),
            Stage::Submit | Stage::Complete
        ));
    }

    #[test]
    fn cached_trajectory_is_deterministic_and_gateable() {
        let p = small();
        let a = run_cached_trajectory(&p);
        let b = run_cached_trajectory(&p);
        assert_eq!(a.bins, b.bins, "virtual time replays bit-identically");
        assert_eq!(a.p50_ns, b.p50_ns);
        assert!(a.p50_ns > 0);
        // The cached stage runs on the calibrated CPU pipe too: dispatch
        // and lane-wait are charged, doorbell-wait stays structurally zero.
        assert!(a.decomposition.mean_ns[Stage::Dispatch.index()] > 0.0);
        assert_eq!(a.decomposition.mean_ns[Stage::Pickup.index()], 0.0);
        // The same baseline schema and gate serve cached mode unchanged.
        let baseline = parse_baseline(&baseline_json(&a).to_string()).expect("baseline");
        let outcome = check(&a, &baseline);
        assert!(!outcome.regressed, "{}", outcome.table("test"));
    }

    #[test]
    fn cached_baseline_path_derives_from_the_uncached_one() {
        assert_eq!(
            cached_baseline_path(BASELINE_PATH),
            "bench/baselines/trajectory_cached.json"
        );
        assert_eq!(
            cached_baseline_path("custom/t.json"),
            "custom/t_cached.json"
        );
        assert_eq!(cached_baseline_path("noext"), "noext_cached");
    }

    #[test]
    fn baseline_round_trips_through_json() {
        let r = run_trajectory(&small());
        let b = parse_baseline(&format!("{:#}", baseline_json(&r))).expect("parses");
        assert_eq!(b.bins, r.bins);
        assert_eq!(b.p50_ns, r.p50_ns);
        assert_eq!(b.p99_ns, r.p99_ns);
        for s in Stage::ALL {
            assert!(
                (b.mean_component_ns[s.index()] - r.decomposition.mean_ns[s.index()]).abs() < 0.1
            );
        }
    }

    /// The gate's self-test, against the files CI gates on: the default
    /// trajectory reproduces both committed baselines (so a stale baseline
    /// fails `cargo test`), and a device 20% slower across the board is
    /// flagged in both modes and attributed to `ssd_service`.
    #[test]
    fn committed_baselines_gate_green_and_flag_a_20_percent_slower_device() {
        let dir = concat!(env!("CARGO_MANIFEST_DIR"), "/../../");
        let uncached_path = format!("{dir}{BASELINE_PATH}");
        let slow = TrialParams {
            latency_scale: 1.2,
            ..TrialParams::default()
        };
        type Run = fn(&TrialParams) -> TrajectoryReport;
        for (path, run) in [
            (uncached_path.clone(), run_trajectory as Run),
            (cached_baseline_path(&uncached_path), run_cached_trajectory),
        ] {
            let text = std::fs::read_to_string(&path).expect("committed baseline");
            let baseline = parse_baseline(&text).expect("committed baseline parses");
            let same = check(&run(&TrialParams::default()), &baseline);
            assert!(!same.regressed, "{path}\n{}", same.table("stale?"));
            assert_eq!(same.mw.map(|m| m.z), Some(0.0), "bins reproduce exactly");
            let slower = check(&run(&slow), &baseline);
            assert!(slower.regressed, "{path}\n{}", slower.table("slow"));
            assert!(slower.rel_shift_p50.max(slower.rel_shift_p99) > MIN_REL_SHIFT);
            let diff = slower.to_json();
            assert_eq!(diff.get("regressed"), Some(&Json::Bool(true)));
            assert_eq!(diff.get("dominant_shift"), Some(&Json::from("ssd_service")));
        }
        // One worker pushing four channels' SQEs is the honest bottleneck
        // of the default configuration, and the trajectory entry says so.
        let entry = trajectory_entry_json(&run_trajectory(&TrialParams::default()), "sha", 1);
        assert_eq!(entry.get("dominant_mean"), Some(&Json::from("lane_wait")));
    }
}
