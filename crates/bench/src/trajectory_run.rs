//! Perf-trajectory subsystem: seeded multi-trial DES bench runs and an
//! exact gate against committed baselines.
//!
//! The gate runs on the **DES driver only**: virtual time makes every
//! trial metric machine-independent and exactly reproducible, so a
//! baseline committed from one machine is bit-comparable in CI on any
//! other — and the comparison is equality, not a hypothesis test. Each
//! trial:
//!
//! 1. builds a seeded workload (trial `i` uses `params.seed + 1 + i`, so
//!    trials differ but the whole trajectory is reproducible),
//! 2. runs the CAM DES driver with lifecycle events on and a flight
//!    recorder attached,
//! 3. feeds the timeline through [`attribution::analyze`] into per-batch
//!    doorbell→retire attributions.
//!
//! The trials' batches are merged into one [`Trajectory`]: a log-linear
//! [`Histogram`] of the per-batch totals and the integer nanosecond sums of
//! doorbell→retire and of each queue-delay component
//! ([`attribution::component_name`]). [`check`] compares those facts with
//! `bench/baselines/trajectory.json` for equality — slower or faster, any
//! difference fails — and says *which* fact differs first and which
//! component moved most. `repro bench --check` exits non-zero on a
//! difference. The gate is one of the `bench` verb's acceptance bars
//! ([`run_gate`]).
//!
//! `repro bench --update-baselines` rewrites every file under
//! [`BASELINES_DIR`]: both trajectory baselines and the virtual-time
//! transcript of [`pins`]. The directory is resolved from this crate's
//! manifest, so any working directory reads and writes the same files, and
//! the facade's `tests/virtual_time_pins.rs` holds all three to the tree.
//!
//! A second, **cached-mode** trajectory runs the seeded cache workload
//! through the DES cache stage ([`run_cached_trajectory`]) and gates it
//! against `bench/baselines/trajectory_cached.json` the same way — so a
//! change in the cache hit path, the write-back flush, or the readahead
//! pipeline moves a committed number even though the uncached trajectory
//! never exercises that code.

use std::sync::Arc;

use cam_cache::run_cam_des_cached;
use cam_iostacks::cam_des::{run_cam_des_obs, CamDesConfig, CamDesObs, CamDesReport};
use cam_nvme::SsdModel;
use cam_simkit::Dur;
use cam_telemetry::attribution::{self, component_name, BatchAttribution};
use cam_telemetry::json::{parse, Json};
use cam_telemetry::{obj, FlightRecorder, Histogram, Stage};

use crate::fidelity_run::{
    cached_cache_cfg, cached_fidelity_workload_seeded, des_config, fidelity_workload, N_SSDS,
    STRIPE_BLOCKS,
};
use crate::figures::Outcome;
use crate::pins;
use crate::table::Table;

/// The committed baselines (`bench/baselines/` at the workspace root),
/// resolved from this crate's manifest so that `repro bench` reads and
/// writes the same files from any working directory.
pub const BASELINES_DIR: &str = concat!(env!("CARGO_MANIFEST_DIR"), "/../../bench/baselines");
/// The uncached trajectory's baseline file under [`BASELINES_DIR`].
pub const BASELINE_FILE: &str = "trajectory.json";
/// The cached trajectory's baseline file under [`BASELINES_DIR`].
pub const CACHED_BASELINE_FILE: &str = "trajectory_cached.json";
/// Baseline schema version, bumped when the JSON layout changes.
pub const BASELINE_SCHEMA: u64 = 2;
/// Blocks in the cached trajectory's array (matches the fidelity rig:
/// [`N_SSDS`] SSDs × 16 Ki blocks each), so readahead sees real bounds.
const CACHED_ARRAY_BLOCKS: u64 = N_SSDS as u64 * 16 * 1024;

/// Parameters of one trajectory run (the `repro` CLI threads `--seed` and
/// `--perturb` here).
#[derive(Clone, Copy, Debug, PartialEq)]
pub struct TrialParams {
    /// Trials merged into the trajectory.
    pub trials: usize,
    /// Base seed; trial `i` uses `seed + 1 + i`.
    pub seed: u64,
    /// Batches per channel per trial.
    pub rounds: u64,
    /// SSD service-time multiplier — the deliberate perturbation knob the
    /// gate's failing-path test (and CI job) uses. Scales command latency
    /// up and channel/link bandwidth down, i.e. `1.02` models a device 2%
    /// slower across the board. Not recorded in a baseline: comparing a
    /// perturbed run with the committed one is the demo of a failing gate.
    pub latency_scale: f64,
}

impl Default for TrialParams {
    fn default() -> Self {
        TrialParams {
            trials: 5,
            seed: 0x7E57_5EED,
            rounds: 10,
            latency_scale: 1.0,
        }
    }
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

/// Every attributed batch of `params.trials` seeded DES trials: `run`
/// drives trial `i` on seed `params.seed + 1 + i` with lifecycle events on
/// and a flight recorder attached, and [`attribution::analyze`] splits its
/// timeline.
fn trial_batches(
    params: &TrialParams,
    run: impl Fn(u64, Option<Arc<FlightRecorder>>, CamDesObs) -> CamDesReport,
) -> Vec<BatchAttribution> {
    let mut batches = Vec::new();
    for i in 0..params.trials as u64 {
        let recorder = Arc::new(FlightRecorder::new());
        let obs = CamDesObs {
            lifecycle: true,
            ..CamDesObs::default()
        };
        run(
            params.seed.wrapping_add(1 + i),
            Some(Arc::clone(&recorder)),
            obs,
        );
        batches.extend(attribution::analyze(&recorder.snapshot()));
    }
    batches
}

/// The uncached trials' batches: the fidelity experiment's seeded workload.
fn uncached_batches(params: &TrialParams) -> Vec<BatchAttribution> {
    trial_batches(params, |seed, recorder, obs| {
        let workload = fidelity_workload(params.rounds, seed);
        run_cam_des_obs(trial_config(params.latency_scale), workload, recorder, obs)
    })
}

/// The exact facts of one trajectory run — what a baseline file records
/// and what the gate compares. Everything is an integer on the virtual
/// timeline, so two runs of the same model on the same parameters are
/// `==`.
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct Trajectory {
    /// Trials merged.
    pub trials: usize,
    /// Base seed of the run.
    pub seed: u64,
    /// Batches per channel per trial.
    pub rounds: u64,
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
}

impl Trajectory {
    /// Batches retired across all trials.
    pub fn batches(&self) -> u64 {
        self.bins.iter().map(|&(_, count)| count).sum()
    }

    /// Mean doorbell→retire latency per batch, ns.
    pub fn mean_batch_ns(&self) -> f64 {
        self.per_batch(self.total_ns)
    }

    /// The component with the largest share of the total.
    pub fn dominant(&self) -> Stage {
        attribution::dominant(&self.component_ns)
    }

    fn per_batch(&self, sum_ns: u64) -> f64 {
        sum_ns as f64 / self.batches().max(1) as f64
    }

    fn params(&self) -> String {
        format!(
            "{} trials, seed {:#x}, {} rounds/channel",
            self.trials, self.seed, self.rounds
        )
    }
}

/// Runs the full uncached trajectory: `params.trials` seeded trials,
/// merged. Deterministic: same params, same [`Trajectory`] (virtual time
/// end to end).
pub fn run_trajectory(params: &TrialParams) -> Trajectory {
    merge(params, &uncached_batches(params))
}

/// The cached-mode counterpart of [`run_trajectory`]: each trial runs the
/// seeded cache workload (same shape the cached fidelity matrix proved
/// decision-exact across drivers) through the DES cache stage. The
/// trajectory gates latencies, not decisions — decision exactness is the
/// fidelity suite's job — but it runs on the identical [`cached_cache_cfg`]
/// configuration, so a cache change surfaces here as a latency/attribution
/// difference. Gated against `bench/baselines/trajectory_cached.json` by
/// `repro bench --check`.
pub fn run_cached_trajectory(params: &TrialParams) -> Trajectory {
    let batches = trial_batches(params, |seed, recorder, obs| {
        let workload = cached_fidelity_workload_seeded(params.rounds * 3, seed);
        let (config, cache) = (trial_config(params.latency_scale), cached_cache_cfg());
        run_cam_des_cached(config, cache, CACHED_ARRAY_BLOCKS, workload, recorder, obs).0
    });
    merge(params, &batches)
}

/// The trajectory facts of a run's attributed batches.
fn merge(params: &TrialParams, batches: &[BatchAttribution]) -> Trajectory {
    let mut merged = Histogram::new();
    let mut total_ns = 0;
    let mut component_ns = [0; Stage::ALL.len()];
    for b in batches {
        merged.record(b.total_ns);
        total_ns += b.total_ns;
        for (sum, ns) in component_ns.iter_mut().zip(b.stage_ns) {
            *sum += ns;
        }
    }
    Trajectory {
        trials: params.trials,
        seed: params.seed,
        rounds: params.rounds,
        p50_ns: merged.quantile(0.5),
        p99_ns: merged.quantile(0.99),
        total_ns,
        component_ns,
        bins: merged.bins(),
    }
}

// ---------------------------------------------------------------------------
// Baselines
// ---------------------------------------------------------------------------

/// A trajectory as the committed baseline document.
pub fn baseline_json(t: &Trajectory) -> Json {
    obj! {
        "schema" => BASELINE_SCHEMA,
        "params" => obj! {
            "trials" => t.trials,
            "seed" => t.seed,
            "rounds" => t.rounds,
        },
        "p50_ns" => t.p50_ns,
        "p99_ns" => t.p99_ns,
        "doorbell_to_retire_ns" => t.total_ns,
        "component_ns" => Json::obj(
            Stage::ALL.iter().map(|s| (component_name(*s), Json::from(t.component_ns[s.index()]))),
        ),
        "bins" => Json::arr(t.bins.iter().map(|&(low, count)| Json::arr([low, count]))),
    }
}

/// Parses a baseline file.
pub fn parse_baseline(text: &str) -> Result<Trajectory, String> {
    let json = parse(text)?;
    let int = |obj: &Json, key: &str| -> Result<u64, String> {
        obj.get(key)
            .and_then(Json::as_u64)
            .ok_or_else(|| format!("baseline missing '{key}'"))
    };
    let schema = int(&json, "schema")?;
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
    let params = json.get("params").ok_or("baseline missing 'params'")?;
    let comps = json
        .get("component_ns")
        .ok_or("baseline missing 'component_ns'")?;
    let mut component_ns = [0; Stage::ALL.len()];
    for s in Stage::ALL {
        component_ns[s.index()] = int(comps, component_name(s))?;
    }
    Ok(Trajectory {
        trials: int(params, "trials")? as usize,
        seed: int(params, "seed")?,
        rounds: int(params, "rounds")?,
        p50_ns: int(&json, "p50_ns")?,
        p99_ns: int(&json, "p99_ns")?,
        total_ns: int(&json, "doorbell_to_retire_ns")?,
        component_ns,
        bins,
    })
}

// ---------------------------------------------------------------------------
// The gate
// ---------------------------------------------------------------------------

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
    /// Signed change vs baseline, ns per batch (positive = slower).
    pub fn shift_ns(&self) -> f64 {
        self.current_ns - self.baseline_ns
    }

    /// Relative change vs baseline (0.2 = +20%); `None` when the
    /// component appears from a zero baseline.
    pub fn rel_delta(&self) -> Option<f64> {
        if self.baseline_ns > 0.0 {
            Some(self.current_ns / self.baseline_ns - 1.0)
        } else {
            (self.current_ns == 0.0).then_some(0.0)
        }
    }

    /// [`Self::rel_delta`] as printed: `+2.0%`, or `new`.
    fn rel_delta_cell(&self) -> String {
        self.rel_delta()
            .map_or("new".into(), |d| format!("{:+.1}%", d * 100.0))
    }
}

/// Outcome of comparing a trajectory with a baseline recorded on the same
/// parameters.
#[derive(Clone, Debug)]
pub struct GateOutcome {
    /// The first recorded fact that differs, as `name: baseline X, current
    /// Y` — in file order: `p50_ns`, `p99_ns`, `doorbell_to_retire_ns`, the
    /// five `component_ns`, `bins`. `None` when the run reproduces the
    /// baseline exactly.
    pub first_difference: Option<String>,
    /// Relative p50 shift vs baseline (positive = slower).
    pub rel_shift_p50: f64,
    /// Relative p99 shift vs baseline.
    pub rel_shift_p99: f64,
    /// Per-component deltas, stage order.
    pub components: Vec<ComponentDelta>,
}

impl GateOutcome {
    /// Whether the run differs from the baseline in any recorded fact.
    pub fn differs(&self) -> bool {
        self.first_difference.is_some()
    }

    /// The component whose ns/batch moved most in either direction — where
    /// the difference went, in queue-delay terms. `None` when no component
    /// moved.
    pub fn dominant_shift(&self) -> Option<&ComponentDelta> {
        self.components
            .iter()
            .max_by(|a, b| a.shift_ns().abs().total_cmp(&b.shift_ns().abs()))
            .filter(|c| c.shift_ns() != 0.0)
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
                c.rel_delta_cell(),
            ]);
        }
        t.note(match &self.first_difference {
            None => "gate: identical to the baseline".to_string(),
            Some(fact) => format!(
                "gate: DIFFERS (first difference {fact}; p50 shift {:+.1}%, p99 shift {:+.1}%)",
                self.rel_shift_p50 * 100.0,
                self.rel_shift_p99 * 100.0
            ),
        });
        if let Some(dom) = self.dominant_shift() {
            t.note(format!(
                "largest shift: {} ({:+.0} ns/batch, {})",
                dom.name,
                dom.shift_ns(),
                dom.rel_delta_cell()
            ));
        }
        t
    }

    /// The machine-readable diff report (`baseline_diff.json`, uploaded
    /// as a CI artifact when the gate fails).
    pub fn to_json(&self) -> Json {
        let dominant = self.dominant_shift();
        obj! {
            "differs" => self.differs(),
            "first_difference" => self.first_difference.as_deref(),
            "rel_shift_p50" => Json::fixed(self.rel_shift_p50, 4),
            "rel_shift_p99" => Json::fixed(self.rel_shift_p99, 4),
            "components" => Json::obj(self.components.iter().map(|c| {
                let delta = obj! {
                    "baseline_ns" => Json::fixed(c.baseline_ns, 1),
                    "current_ns" => Json::fixed(c.current_ns, 1),
                    "rel_delta" => c.rel_delta().map(|d| Json::fixed(d, 4)),
                };
                (c.name, delta)
            })),
            "dominant_shift" => dominant.map(|d| d.name),
            "dominant_shift_ns" => dominant.map(|d| Json::fixed(d.shift_ns(), 1)),
        }
    }
}

/// Gates a trajectory against a baseline: every recorded fact must be
/// equal. The DES is deterministic, so a rerun of the same model
/// reproduces the baseline bit for bit; any difference — slower *or*
/// faster — means the model changed, and an intended change is committed
/// with `repro bench --update-baselines`.
///
/// `Err` when the baseline was recorded on other parameters than this run
/// used: the two are different workloads and comparing them says nothing.
pub fn check(current: &Trajectory, baseline: &Trajectory) -> Result<GateOutcome, String> {
    if (baseline.trials, baseline.seed, baseline.rounds)
        != (current.trials, current.seed, current.rounds)
    {
        return Err(format!(
            "baseline recorded with {}, this run used {}",
            baseline.params(),
            current.params()
        ));
    }
    let mut facts = vec![
        ("p50_ns", baseline.p50_ns, current.p50_ns),
        ("p99_ns", baseline.p99_ns, current.p99_ns),
        ("doorbell_to_retire_ns", baseline.total_ns, current.total_ns),
    ];
    facts.extend(Stage::ALL.iter().map(|s| {
        let i = s.index();
        (
            component_name(*s),
            baseline.component_ns[i],
            current.component_ns[i],
        )
    }));
    let first_difference = facts
        .iter()
        .find(|(_, base, cur)| base != cur)
        .map(|(name, base, cur)| format!("{name}: baseline {base}, current {cur}"))
        .or_else(|| (baseline.bins != current.bins).then(|| "bins".to_string()));
    let rel = |base: u64, cur: u64| {
        if base == 0 {
            0.0
        } else {
            cur as f64 / base as f64 - 1.0
        }
    };
    let components = Stage::ALL
        .iter()
        .map(|s| ComponentDelta {
            name: component_name(*s),
            baseline_ns: baseline.per_batch(baseline.component_ns[s.index()]),
            current_ns: current.per_batch(current.component_ns[s.index()]),
        })
        .collect();
    Ok(GateOutcome {
        first_difference,
        rel_shift_p50: rel(baseline.p50_ns, current.p50_ns),
        rel_shift_p99: rel(baseline.p99_ns, current.p99_ns),
        components,
    })
}

/// Runs the uncached and cached trajectories and gates each against its
/// committed baseline under [`BASELINES_DIR`]; a difference also writes
/// `baseline_diff.json` / `baseline_diff_cached.json` to the working
/// directory with the per-component attribution. With `update` the two
/// baselines and the virtual-time transcript ([`pins::transcript`]) are
/// rewritten from this run instead of judged. Returns the trajectory
/// summary and, per gated mode, the component table; a failed bar is a run
/// that differs from its baseline, or a baseline that cannot be read,
/// parsed, compared (other parameters) or (with `update`) written. Also
/// returns the uncached trials' attributed batches, which `bench`
/// decomposes as its DES driver.
pub fn run_gate(tp: &TrialParams, update: bool) -> (Outcome, Vec<BatchAttribution>) {
    let mut summary = Table::new(
        "Perf trajectory: seeded DES trials, per-batch doorbell->retire latency",
        &["mode", "batches", "p50 ns", "p99 ns", "mean ns", "dominant"],
    );
    summary.note(format!(
        "{} trials, seed {:#x}, {} rounds/channel, latency scale {:.2}",
        tp.trials, tp.seed, tp.rounds, tp.latency_scale
    ));
    let mut failures = Vec::new();
    let des = uncached_batches(tp);
    let uncached = merge(tp, &des);
    let cached = run_cached_trajectory(tp);
    let modes = [
        ("uncached", &uncached, BASELINE_FILE, "baseline_diff.json"),
        (
            "cached",
            &cached,
            CACHED_BASELINE_FILE,
            "baseline_diff_cached.json",
        ),
    ];
    for (label, current, _, _) in modes {
        summary.row(vec![
            label.into(),
            current.batches().to_string(),
            current.p50_ns.to_string(),
            current.p99_ns.to_string(),
            format!("{:.0}", current.mean_batch_ns()),
            component_name(current.dominant()).into(),
        ]);
    }
    if update {
        let files = [
            (BASELINE_FILE, format!("{:#}", baseline_json(&uncached))),
            (
                CACHED_BASELINE_FILE,
                format!("{:#}", baseline_json(&cached)),
            ),
            (pins::TRANSCRIPT_FILE, pins::transcript()),
        ];
        for (file, text) in files {
            let path = format!("{BASELINES_DIR}/{file}");
            match std::fs::write(&path, text) {
                Ok(()) => {
                    summary.note(format!("updated bench/baselines/{file}"));
                }
                Err(e) => failures.push(format!("could not write {path}: {e}")),
            }
        }
        return (
            Outcome {
                tables: vec![summary],
                failures,
            },
            des,
        );
    }
    let mut tables = vec![summary];
    for (label, current, file, diff_path) in modes {
        let path = format!("{BASELINES_DIR}/{file}");
        let outcome = std::fs::read_to_string(&path)
            .map_err(|e| {
                format!("unreadable ({e}); seed one with 'repro bench --update-baselines'")
            })
            .and_then(|text| parse_baseline(&text))
            .and_then(|baseline| check(current, &baseline));
        let outcome = match outcome {
            Ok(o) => o,
            Err(e) => {
                failures.push(format!("{label} baseline {path}: {e}"));
                continue;
            }
        };
        if let Some(fact) = &outcome.first_difference {
            let shift = outcome.dominant_shift().map_or("none".to_string(), |c| {
                format!("{} ({:+.0} ns/batch)", c.name, c.shift_ns())
            });
            failures.push(format!(
                "{label} trajectory DIFFERS from bench/baselines/{file} (first difference {fact}; \
                 largest shift: {shift}); attribution in {diff_path}"
            ));
            if let Err(e) = std::fs::write(diff_path, format!("{:#}", outcome.to_json())) {
                eprintln!("warning: could not write {diff_path}: {e}");
            }
        }
        tables.push(outcome.table(label));
    }
    (Outcome { tables, failures }, des)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::fidelity_run::N_CHANNELS;

    fn small() -> TrialParams {
        TrialParams {
            trials: 2,
            rounds: 4,
            ..TrialParams::default()
        }
    }

    #[test]
    fn des_lifecycle_covers_every_batch() {
        let p = small();
        let r = run_trajectory(&p);
        let expected = (p.trials as u64) * (p.rounds * N_CHANNELS as u64);
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
        let c = run_cached_trajectory(&p);
        assert_eq!(c.component_ns[Stage::Pickup.index()], 0);
        assert!(c.component_ns[Stage::Dispatch.index()] > 0);
    }

    #[test]
    fn a_component_from_a_zero_baseline_is_new_not_zero() {
        // The DES retire component is structurally 0 in the baseline.
        let baseline = run_trajectory(&small());
        let mut current = baseline.clone();
        current.component_ns[Stage::Retire.index()] += 1_000;
        let outcome = check(&current, &baseline).expect("same parameters");
        let table = outcome.table("test");
        assert_eq!(table.find("retire", "delta"), Some("new"));
        assert_eq!(table.find("doorbell_wait", "delta"), Some("+0.0%"));
        let diff = outcome.to_json();
        let retire = diff.get("components").and_then(|c| c.get("retire"));
        assert_eq!(retire.and_then(|r| r.get("rel_delta")), Some(&Json::Null));
    }

    /// The gate's self-test: against the default trajectory, a device 2%
    /// slower or 2% faster across the board is flagged in both modes and
    /// attributed to `ssd_service` with its sign, and a run on other
    /// parameters is refused rather than compared. (That the default
    /// trajectories are deterministic, equal the committed baselines and
    /// round-trip through their JSON is the facade's
    /// `tests/virtual_time_pins.rs`.)
    #[test]
    fn a_2_percent_device_change_is_flagged_and_other_parameters_refused() {
        type Run = fn(&TrialParams) -> Trajectory;
        for (mode, run) in [
            ("uncached", run_trajectory as Run),
            ("cached", run_cached_trajectory),
        ] {
            let baseline = run(&TrialParams::default());
            let same = check(&baseline, &baseline).expect("same parameters");
            assert!(!same.differs(), "{mode}\n{}", same.table("same"));
            for (latency_scale, slower) in [(1.02, true), (0.98, false)] {
                let perturbed = run(&TrialParams {
                    latency_scale,
                    ..TrialParams::default()
                });
                let outcome = check(&perturbed, &baseline).expect("same parameters");
                assert!(outcome.differs(), "{mode}\n{}", outcome.table("perturbed"));
                let dom = outcome.dominant_shift().expect("a component moved");
                assert_eq!(dom.name, "ssd_service", "{}", outcome.table("perturbed"));
                assert_eq!(dom.shift_ns() > 0.0, slower);
                let diff = outcome.to_json();
                assert_eq!(diff.get("differs"), Some(&Json::Bool(true)));
                assert_eq!(diff.get("dominant_shift"), Some(&Json::from("ssd_service")));
            }
            let other_seed = run(&TrialParams { seed: 7, ..small() });
            let refused = check(&other_seed, &baseline).expect_err("other parameters");
            assert!(
                refused.contains("baseline recorded with 5 trials, seed 0x7e575eed")
                    && refused.contains("this run used 2 trials, seed 0x7"),
                "{refused}"
            );
        }
        // One worker pushing four channels' SQEs is the honest bottleneck
        // of the default configuration, and the summary row says so.
        let dominant = run_trajectory(&TrialParams::default()).dominant();
        assert_eq!(component_name(dominant), "lane_wait");
    }
}
