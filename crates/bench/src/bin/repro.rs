//! `repro` — regenerates every table and figure of the paper's evaluation.
//!
//! ```text
//! repro all                    # everything, in paper order
//! repro list                   # available experiment ids
//! repro fig8 fig9              # a subset
//! repro experiments > EXPERIMENTS.md   # the paper-vs-measured document
//! repro --metrics m.json bench # also dump the full telemetry registry
//! repro --trace t.json         # also write a Perfetto-loadable trace
//! ```
//!
//! Every verb of `repro list` returns its tables and the acceptance bars
//! it failed. The tables are the report: `repro` prints them and writes
//! them, as JSON under the verb's id, to `BENCH_repro.json` — one document
//! per invocation, holding exactly the verbs it ran (the shape is stated in
//! `docs/OBSERVABILITY.md`). The paper's tables and figures (`tab1` …
//! `motiv`) read no flag — `--seed`, `--perturb` or `--baselines` with only
//! such verbs is a usage error —; their bars are the paper's claims, each
//! judged on a printed cell. `repro experiments` prints `EXPERIMENTS.md`:
//! per figure the claims beside the cells and bounds they are held to, then
//! the raw tables (a tier-1 test fails when the committed file differs).
//!
//! Failed bars are always printed; with `--check` they make the exit code
//! 1, so `repro all --check` is what CI runs and what a developer runs
//! locally (`docs/OBSERVABILITY.md` lists every bar).
//!
//! `bench` runs the seeded DES perf trajectories — uncached and
//! cached-mode — and gates each against its committed baseline
//! (`bench/baselines/trajectory.json` and `trajectory_cached.json`;
//! `--baselines <path>` relocates both) exactly: virtual time is
//! deterministic, so any recorded fact that differs — slower or faster —
//! is a failed bar naming the first such fact and the queue-delay
//! component that moved most, and writes `baseline_diff.json` (or
//! `baseline_diff_cached.json`) with the per-component attribution. A
//! baseline recorded on other parameters than the run's (`--seed S`) is a
//! failed bar too, never a comparison. `repro bench --update-baselines`
//! regenerates both baselines. `--perturb F` scales the SSD model's
//! service time (the gate's demo knob: `repro bench --check --perturb
//! 1.02` models a device 2% slower across the board and exits 1; it cannot
//! be combined with `--update-baselines`). `bench` also prints the
//! doorbell→retire decomposition (mean + p99 tail) of its threaded run and
//! of the uncached DES trials, attributed along each batch's gating group.
//!
//! `--metrics <path>` runs an instrumented functional-engine workload and
//! writes the complete metrics-registry snapshot (counters, gauges, stage
//! histograms with p50/p99) to `<path>` as JSON.
//!
//! `--trace <path>` runs the same instrumented workload plus a small CAM
//! DES microbenchmark with a flight recorder attached, and writes the
//! combined timeline as Chrome trace-event JSON — open it in Perfetto or
//! `chrome://tracing`. Process 1 is the functional engine (one track per
//! worker/emitting thread, one async span per batch); process 2 is
//! the simulated SSDs.
//!
//! `repro watch` drives a fault-injected workload through a fully observed
//! engine and renders a live per-lane / per-channel / per-tenant snapshot
//! table every few hundred milliseconds (rolling-window retries, latency
//! quantiles, SLO burn rates, lane health, tenant hit rates). `repro
//! watch --once` renders a single end-of-run snapshot and writes its
//! tables to `bench/out/health_snapshot.json` — for scripting and CI smoke.
//!
//! `repro calibrate [--rounds N]` re-fits the DES CPU-pipe constants
//! (`CpuPipeModel::calibrated()`) from the threaded engine's own lifecycle
//! traces on this machine and exits 1 when the predicted dispatch cost
//! drifts more than 25% from the committed model on three consecutive
//! sweeps — the CI smoke against stale calibration.

use std::process::ExitCode;

use cam_bench::figures::{bench_doc, run_figures, BenchParams, Experiment, BENCH_DOC, EXPERIMENTS};
use cam_bench::paper::experiments_md;
use cam_bench::telemetry_run::{run_recorded, run_traced};
use cam_telemetry::trace::validate_chrome_trace;

fn take_flag_value(args: &mut Vec<String>, flag: &str) -> Result<Option<String>, ExitCode> {
    match args.iter().position(|a| a == flag) {
        Some(i) => {
            if i + 1 >= args.len() {
                eprintln!("{flag} requires a value argument");
                return Err(ExitCode::from(2));
            }
            args.remove(i); // the flag
            Ok(Some(args.remove(i))) // its value
        }
        None => Ok(None),
    }
}

fn take_flag(args: &mut Vec<String>, flag: &str) -> bool {
    match args.iter().position(|a| a == flag) {
        Some(i) => {
            args.remove(i);
            true
        }
        None => false,
    }
}

fn parse_flag<T: std::str::FromStr>(
    args: &mut Vec<String>,
    flag: &str,
) -> Result<Option<T>, ExitCode> {
    match take_flag_value(args, flag)? {
        Some(raw) => match raw.parse::<T>() {
            Ok(v) => Ok(Some(v)),
            Err(_) => {
                eprintln!("{flag}: could not parse '{raw}'");
                Err(ExitCode::from(2))
            }
        },
        None => Ok(None),
    }
}

/// `repro calibrate`: re-fits the DES CPU-pipe constants on this machine
/// and gates the drift — the CI smoke for stale
/// `CpuPipeModel::calibrated()`.
fn calibrate(rounds: u64) -> ExitCode {
    // Up to three sweeps, passing on the first in-tolerance fit: a
    // transient load spike (CI runner just finished compiling) fails
    // one sweep; genuinely stale constants fail all three.
    const ATTEMPTS: u32 = 3;
    for attempt in 1..=ATTEMPTS {
        let Some(r) = cam_bench::calibrate::calibrate(rounds) else {
            eprintln!("calibration sweep produced too few samples to fit");
            return ExitCode::from(2);
        };
        if attempt > 1 {
            println!("-- attempt {attempt}/{ATTEMPTS} --");
        }
        println!("{}", r.table());
        if r.within_tolerance() {
            return ExitCode::SUCCESS;
        }
    }
    ExitCode::FAILURE
}

/// `repro watch [--once]`: a live view, not a figure generator.
fn watch(once: bool) -> Result<ExitCode, ExitCode> {
    let last = cam_bench::watch::run_watch(once, |frame| println!("{frame}"));
    if once {
        let path = "bench/out/health_snapshot.json";
        let doc = bench_doc(&[("watch", last.tables)]);
        std::fs::create_dir_all("bench/out")
            .and_then(|()| std::fs::write(path, format!("{doc:#}")))
            .map_err(|e| {
                eprintln!("could not write {path}: {e}");
                ExitCode::FAILURE
            })?;
        println!("wrote {path}");
    }
    Ok(ExitCode::SUCCESS)
}

fn run() -> Result<ExitCode, ExitCode> {
    let mut args: Vec<String> = std::env::args().skip(1).collect();
    let metrics_path = take_flag_value(&mut args, "--metrics")?;
    let trace_path = take_flag_value(&mut args, "--trace")?;
    let params = BenchParams {
        seed: parse_flag(&mut args, "--seed")?,
        latency_scale: parse_flag(&mut args, "--perturb")?,
        baselines: take_flag_value(&mut args, "--baselines")?,
        update_baselines: take_flag(&mut args, "--update-baselines"),
    };
    let check = take_flag(&mut args, "--check");
    let first = args.first().map(String::as_str);
    if params.update_baselines && first != Some("bench") {
        eprintln!(
            "--update-baselines applies to the 'bench' experiment: repro bench --update-baselines"
        );
        return Err(ExitCode::from(2));
    }
    if params.update_baselines && params.latency_scale.is_some() {
        eprintln!(
            "--update-baselines cannot be combined with --perturb: \
             a baseline records the unperturbed model"
        );
        return Err(ExitCode::from(2));
    }
    if first == Some("calibrate") {
        let rounds = parse_flag(&mut args, "--rounds")?.unwrap_or(24);
        return Ok(calibrate(rounds));
    }
    if first == Some("watch") {
        return watch(args.iter().any(|a| a == "--once"));
    }
    if metrics_path.is_none()
        && trace_path.is_none()
        && matches!(first, None | Some("help" | "--help"))
    {
        eprintln!(
            "usage: repro [--metrics <path>] [--trace <path>] [--seed S] \
             [--perturb F] [--baselines <path>] [--check] [all|list|experiments|\
             watch [--once]|calibrate [--rounds N]|bench [--update-baselines]|\
             <experiment id>...]"
        );
        eprintln!("experiments:");
        for e in EXPERIMENTS {
            eprintln!("  {:<8} {}", e.id(), e.desc());
        }
        return Err(ExitCode::from(2));
    }
    if first == Some("list") {
        for e in EXPERIMENTS {
            println!("{:<8} {}", e.id(), e.desc());
        }
        return Ok(ExitCode::SUCCESS);
    }
    if first == Some("experiments") {
        print!("{}", experiments_md(&run_figures()));
        return Ok(ExitCode::SUCCESS);
    }
    let wanted: Vec<&Experiment> = if first == Some("all") {
        EXPERIMENTS.iter().collect()
    } else {
        let find = |want: &String| {
            EXPERIMENTS.iter().find(|e| e.id() == want).ok_or_else(|| {
                eprintln!("unknown experiment '{want}' (try 'repro list')");
                ExitCode::FAILURE
            })
        };
        args.iter().map(find).collect::<Result<_, _>>()?
    };
    let flagged =
        params.seed.is_some() || params.latency_scale.is_some() || params.baselines.is_some();
    if flagged && !wanted.is_empty() && wanted.iter().all(|e| e.figure().is_some()) {
        let readers: Vec<&str> = (EXPERIMENTS.iter().filter(|e| e.figure().is_none()))
            .map(Experiment::id)
            .collect();
        eprintln!(
            "--seed, --perturb and --baselines are read only by {}: \
             a paper figure takes no parameter",
            readers.join(", ")
        );
        return Err(ExitCode::from(2));
    }
    let mut failed_bars = 0usize;
    let mut ran = Vec::new();
    for experiment in wanted {
        let want = experiment.id();
        println!("######## {want}: {}\n", experiment.desc());
        let outcome = experiment.run(&params);
        for table in &outcome.tables {
            println!("{table}");
        }
        for failure in &outcome.failures {
            eprintln!("BAR FAILED [{want}] {failure}");
        }
        failed_bars += outcome.failures.len();
        ran.push((want, outcome.tables));
    }
    if !ran.is_empty() {
        let doc = bench_doc(&ran);
        if let Err(e) = std::fs::write(BENCH_DOC, format!("{doc:#}")) {
            eprintln!("warning: could not write {BENCH_DOC}: {e}");
        }
    }
    if let Some(path) = metrics_path {
        let run = run_recorded(20, 64, None);
        std::fs::write(&path, format!("{:#}", run.snapshot.to_json())).map_err(|e| {
            eprintln!("could not write metrics to {path}: {e}");
            ExitCode::FAILURE
        })?;
        println!("wrote telemetry registry snapshot to {path}");
    }
    if let Some(path) = trace_path {
        let (run, trace) = run_traced(20, 64);
        // Self-check before writing: a trace that fails its own validator
        // (missing fields, unbalanced async spans) is a bug, not output.
        let summary = validate_chrome_trace(&trace).map_err(|e| {
            eprintln!("generated trace failed validation: {e}");
            ExitCode::FAILURE
        })?;
        std::fs::write(&path, &trace).map_err(|e| {
            eprintln!("could not write trace to {path}: {e}");
            ExitCode::FAILURE
        })?;
        println!(
            "wrote Chrome trace to {path}: {} events, {} async spans, {} tracks across {} processes ({} batches retired)",
            summary.events,
            summary.async_begin,
            summary.named_tracks.len(),
            summary.processes,
            run.snapshot.counter("cam_batches_total"),
        );
    }
    // `--update-baselines` is a write, so its failure is fatal too.
    if failed_bars > 0 && (check || params.update_baselines) {
        eprintln!("{failed_bars} acceptance bar(s) failed");
        return Err(ExitCode::FAILURE);
    }
    Ok(ExitCode::SUCCESS)
}

fn main() -> ExitCode {
    run().unwrap_or_else(|code| code)
}
