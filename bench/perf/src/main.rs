//! `cam-perf` — the repository's performance benchmark (see README.md).
//!
//! `run` measures the named workloads, each in its own child process, prints
//! every metric by name and unit, checks outputs, and ends with the JSON
//! object the benchmark contract specifies. `agree` runs two full sets and
//! holds them to the bounds. `manifest` prints `BENCHMARK.json`.

mod catalogue;
mod des;
mod gen;
mod inline;
mod report;
mod serve;
mod span;
mod stats;
mod sys;
mod wall;

use std::collections::BTreeMap;
use std::fmt::Write as _;
use std::io::Read;
use std::path::PathBuf;
use std::process::{Command, ExitCode, Stdio};
use std::time::{Duration, Instant};

use catalogue::{Agree, Metric, END_TO_END, PER_LAYER, WORKLOADS};
use report::Report;

const DEFAULT_SECONDS: u64 = 18;
/// The contract allows a run 180 s; a child still running after this is
/// killed and its operations counted as failed.
const CHILD_TIMEOUT_CAP_S: u64 = 170;
/// `setup_s` may differ between two sets by this much regardless of share.
const SETUP_FLOOR_S: f64 = 0.05;

const USAGE: &str = "usage:
  cam-perf run --seed <u64> [--workload <name>] [--seconds <1..60>] [--trace <0|1> | --traced]
  cam-perf agree --seed <u64> [--seconds <1..60>]
  cam-perf manifest";

struct Args {
    seed: u64,
    workload: Option<String>,
    seconds: u64,
    traced: bool,
}

fn parse_args(args: &[String]) -> Result<Args, String> {
    let mut out = Args {
        seed: 0,
        workload: None,
        seconds: DEFAULT_SECONDS,
        traced: false,
    };
    let mut seed_given = false;
    let mut it = args.iter();
    while let Some(flag) = it.next() {
        let mut value = || it.next().ok_or(format!("{flag} needs a value"));
        match flag.as_str() {
            "--seed" => {
                out.seed = value()?.parse().map_err(|e| format!("--seed: {e}"))?;
                seed_given = true;
            }
            "--workload" => {
                let w = value()?;
                if !catalogue::is_workload(w) {
                    return Err(format!(
                        "unknown workload {w:?}; one of {}",
                        catalogue::ALL.join(", ")
                    ));
                }
                out.workload = Some(w.clone());
            }
            "--seconds" => {
                out.seconds = value()?.parse().map_err(|e| format!("--seconds: {e}"))?;
                if !(1..=60).contains(&out.seconds) {
                    return Err("--seconds must be between 1 and 60".into());
                }
            }
            "--trace" => {
                out.traced = match value()?.as_str() {
                    "0" => false,
                    "1" => true,
                    other => return Err(format!("--trace takes 0 or 1, not {other:?}")),
                }
            }
            "--traced" => out.traced = true,
            other => return Err(format!("unknown argument {other:?}")),
        }
    }
    if !seed_given {
        return Err("--seed is required".into());
    }
    Ok(out)
}

fn main() -> ExitCode {
    let argv: Vec<String> = std::env::args().skip(1).collect();
    let Some((cmd, rest)) = argv.split_first() else {
        eprintln!("{USAGE}");
        return ExitCode::from(2);
    };
    if cmd == "manifest" {
        print!("{}", manifest());
        return ExitCode::SUCCESS;
    }
    if cfg!(debug_assertions) {
        eprintln!("cam-perf measures optimized builds only: rebuild with `cargo run --release`");
        return ExitCode::from(2);
    }
    let args = match parse_args(rest) {
        Ok(a) => a,
        Err(e) => {
            eprintln!("cam-perf: {e}\n{USAGE}");
            return ExitCode::from(2);
        }
    };
    match cmd.as_str() {
        "run" => run(&args),
        "agree" => agree(&args),
        "child" => child(&args),
        _ => {
            eprintln!("{USAGE}");
            ExitCode::from(2)
        }
    }
}

// ---------------------------------------------------------------- child

/// Runs one workload in this process and prints the line protocol the
/// parent parses.
fn child(args: &Args) -> ExitCode {
    let name = args.workload.as_deref().expect("child is given a workload");
    let seconds = args.seconds as f64;
    let mut r = Report::default();
    match sys::pin_to_one_cpu() {
        Some(cpu) => r.note(format!("process pinned to CPU {cpu}")),
        None => r.note("process NOT pinned to one CPU: expect a wider spread".into()),
    }
    // DES workloads halve their trial in a traced run, like the wall-clock
    // passes, so a traced run takes about as long as an untraced one.
    let des_seconds = if args.traced { seconds / 2.0 } else { seconds };
    if let Some(kind) = wall::Kind::from_name(name) {
        let full = wall::Timing::full(kind, seconds);
        if args.traced {
            // End-to-end figures always come from an untraced pass; the
            // observed pass beside it reads the program's own registry.
            let half = full.half();
            let plain = wall::run_pass(kind, args.seed, half, false);
            let observed = wall::run_pass(kind, args.seed, half, true);
            plain.report_untraced(&mut r);
            observed.report_observed(&mut r);
            r.set(
                "telemetry.overhead_pct",
                100.0 * (1.0 - observed.req_per_s() / plain.req_per_s()),
            );
            inline::telemetry_layers(&mut r);
            if kind == wall::Kind::CacheZipf {
                inline::cache_layers(args.seed, &mut r);
            }
        } else {
            let pass = wall::run_pass(kind, args.seed, full, false);
            pass.report_untraced(&mut r);
            r.set("peak_rss_mb", pass.peak_rss_mb);
        }
    } else if name == catalogue::DES_BATCH {
        let o = des::run(args.seed, des_seconds);
        o.report(&mut r);
        if args.traced {
            o.report_layers(&mut r);
            inline::simkit_layer(&mut r);
        }
    } else {
        let o = serve::run(args.seed, des_seconds);
        o.report(&mut r);
        if args.traced {
            o.report_layers(&mut r);
            serve::traced_pass(args.seed, &o, &mut r);
            inline::simkit_layer(&mut r);
        }
    }
    if args.traced {
        // After the workload, so its preloaded media does not count towards
        // the workload's peak RSS.
        let tr = inline::control_plane(args.seed, &mut r);
        if let (Some(sum_us), Some(p50_us)) =
            (r.get("layers.sum_us_per_batch"), r.get("batch_p50_us"))
        {
            r.set("layers.coverage_ctrl_read", sum_us / p50_us);
        }
        let path = out_dir().join("trace.json");
        let written = std::fs::create_dir_all(out_dir())
            .and_then(|()| std::fs::write(&path, tr.to_json(inline::TRACE_FILE_BATCHES)));
        match written {
            Ok(()) => r.note(format!(
                "inline spans of the first {} batches written to {}",
                inline::TRACE_FILE_BATCHES,
                path.display()
            )),
            Err(e) => r.problem(format!("cannot write {}: {e}", path.display())),
        }
    }
    println!("@@counts {} {}", r.attempted, r.failed);
    for (metric, value) in &r.metrics {
        // A layer pass may measure more than this workload exercises; only
        // the metrics the catalogue lists for the workload are reported.
        if catalogue::find(metric).is_some_and(|m| m.on.contains(&name)) {
            println!("@@metric {metric} {value}");
        }
    }
    for n in &r.notes {
        println!("@@note {n}");
    }
    for p in &r.problems {
        println!("@@problem {p}");
    }
    ExitCode::SUCCESS
}

fn out_dir() -> PathBuf {
    // The checkout root is the working directory under the driver; fall
    // back to the package directory when run from elsewhere.
    let here = PathBuf::from("bench/perf");
    let base = if here.join("Cargo.toml").exists() {
        here
    } else {
        PathBuf::from(env!("CARGO_MANIFEST_DIR"))
    };
    base.join("out")
}

// --------------------------------------------------------------- parent

/// One workload's result as the parent sees it.
struct Outcome {
    workload: &'static str,
    attempted: u64,
    failed: u64,
    metrics: BTreeMap<String, f64>,
    notes: Vec<String>,
    problems: Vec<String>,
}

impl Outcome {
    fn correct(&self) -> bool {
        self.problems.is_empty() && self.failed == 0
    }
}

/// Runs `workload` in a child process, bounded by a timeout so a wedged
/// engine is counted as failed operations instead of hanging the run.
fn run_child(workload: &'static str, args: &Args) -> Outcome {
    let mut out = Outcome {
        workload,
        attempted: 0,
        failed: 0,
        metrics: BTreeMap::new(),
        notes: Vec::new(),
        problems: Vec::new(),
    };
    let exe = std::env::current_exe().expect("path of this executable");
    let spawned = Command::new(exe)
        .args(["child", "--workload", workload])
        .args(["--seed", &args.seed.to_string()])
        .args(["--seconds", &args.seconds.to_string()])
        .args(["--trace", if args.traced { "1" } else { "0" }])
        .stdout(Stdio::piped())
        .spawn();
    let mut proc = match spawned {
        Ok(p) => p,
        Err(e) => {
            out.problems
                .push(format!("cannot start the child process: {e}"));
            return out;
        }
    };
    let mut stdout = proc.stdout.take().expect("stdout is piped");
    let reader = std::thread::spawn(move || {
        let mut text = String::new();
        let _ = stdout.read_to_string(&mut text);
        text
    });
    let limit = Duration::from_secs((4 * args.seconds + 60).min(CHILD_TIMEOUT_CAP_S));
    let started = Instant::now();
    let status = loop {
        match proc.try_wait() {
            Ok(Some(status)) => break Some(status),
            Ok(None) if started.elapsed() < limit => std::thread::sleep(Duration::from_millis(20)),
            _ => {
                let _ = proc.kill();
                let _ = proc.wait();
                break None;
            }
        }
    };
    let text = reader.join().unwrap_or_default();
    for line in text.lines() {
        let Some(rest) = line.strip_prefix("@@") else {
            continue;
        };
        let (tag, body) = rest.split_once(' ').unwrap_or((rest, ""));
        match tag {
            "counts" => {
                let mut n = body.split(' ').map(|v| v.parse::<u64>().unwrap_or(0));
                out.attempted = n.next().unwrap_or(0);
                out.failed = n.next().unwrap_or(0);
            }
            "metric" => {
                if let Some((name, value)) = body.split_once(' ') {
                    if let Ok(v) = value.parse::<f64>() {
                        out.metrics.insert(name.to_string(), v);
                    }
                }
            }
            "note" => out.notes.push(body.to_string()),
            "problem" => out.problems.push(body.to_string()),
            _ => {}
        }
    }
    match status {
        Some(s) if s.success() => {}
        Some(s) => out.problems.push(format!("child process ended with {s}")),
        None => out.problems.push(format!(
            "child process still running after {} s: killed, its operations count as failed",
            limit.as_secs()
        )),
    }
    if !status.is_some_and(|s| s.success()) || out.attempted == 0 {
        // Nothing trustworthy came back: one attempted, one failed.
        out.attempted = out.attempted.max(1);
        out.failed = out.attempted;
    }
    out
}

fn print_table(o: &Outcome, traced: bool) {
    println!(
        "\n== {} ({}) — attempted {}, failed {}, {}",
        o.workload,
        if traced { "traced" } else { "untraced" },
        o.attempted,
        o.failed,
        if o.correct() {
            "outputs correct"
        } else {
            "OUTPUTS WRONG"
        }
    );
    for metric in catalogue::all_metrics() {
        if let Some(v) = o.metrics.get(metric.name) {
            // Sub-unit values (set-up seconds, ratios) keep six decimals.
            let decimals = if v.abs() < 1.0 { 6 } else { 3 };
            println!("  {:<40} {:>16.decimals$} {}", metric.name, v, metric.unit);
        }
    }
    for n in &o.notes {
        println!("  note: {n}");
    }
    for p in &o.problems {
        println!("  PROBLEM: {p}");
    }
}

/// The contract's result object: every end-to-end metric untraced, every
/// per-layer metric traced (0 where the workload does not exercise the
/// layer).
fn contract_json(o: &Outcome, traced: bool) -> String {
    let list: &[Metric] = if traced { &PER_LAYER } else { &END_TO_END };
    let mut correct = o.correct();
    let mut body = String::new();
    for (i, metric) in list.iter().enumerate() {
        let value = match o.metrics.get(metric.name) {
            Some(&v) if v.is_finite() => v,
            Some(_) => {
                correct = false;
                0.0
            }
            None => {
                // An end-to-end metric is owed by every workload; a layer
                // metric only by the workloads that exercise the layer.
                correct &= traced && !metric.on.contains(&o.workload);
                0.0
            }
        };
        let sep = if i == 0 { "" } else { ", " };
        let _ = write!(
            body,
            "{sep}\"{}\": {{\"value\": {value}, \"unit\": \"{}\"}}",
            metric.name, metric.unit
        );
    }
    format!(
        "{{\"correct\": {correct}, \"attempted\": {}, \"failed\": {}, \"metrics\": {{{body}}}}}",
        o.attempted.max(1),
        o.failed
    )
}

fn meta_json(args: &Args) -> String {
    format!(
        "{{\"seed\": {}, \"seconds\": {}, \"nproc\": {}, \"git_sha\": \"{}\", \"rustc\": \"{}\"}}",
        args.seed,
        args.seconds,
        sys::nproc(),
        sys::git_sha(std::path::Path::new(".")),
        sys::rustc_version()
    )
}

fn selected(args: &Args) -> Vec<&'static str> {
    WORKLOADS
        .iter()
        .map(|w| w.name)
        .filter(|n| args.workload.as_deref().is_none_or(|w| w == *n))
        .collect()
}

fn run(args: &Args) -> ExitCode {
    let meta = meta_json(args);
    println!("cam-perf run {meta}");
    let mut all_correct = true;
    let mut record = format!(
        "{{\"meta\": {meta}, \"traced\": {}, \"workloads\": {{",
        args.traced
    );
    let mut last = String::new();
    for (i, workload) in selected(args).into_iter().enumerate() {
        let o = run_child(workload, args);
        print_table(&o, args.traced);
        all_correct &= o.correct();
        let _ = write!(
            record,
            "{}\"{workload}\": {{\"attempted\": {}, \"failed\": {}, \"correct\": {}, \"metrics\": {{{}}}}}",
            if i == 0 { "" } else { ", " },
            o.attempted,
            o.failed,
            o.correct(),
            o.metrics
                .iter()
                .map(|(k, v)| format!("\"{k}\": {}", if v.is_finite() { *v } else { 0.0 }))
                .collect::<Vec<_>>()
                .join(", ")
        );
        last = contract_json(&o, args.traced);
        if args.workload.is_none() {
            println!("  result: {last}");
        }
    }
    record.push_str("}}\n");
    let path = out_dir().join("result.json");
    if let Err(e) = std::fs::create_dir_all(out_dir()).and_then(|()| std::fs::write(&path, record))
    {
        eprintln!("cam-perf: cannot write {}: {e}", path.display());
    }
    // The contract's result object is the last line of standard output.
    println!("{last}");
    if all_correct {
        ExitCode::SUCCESS
    } else {
        ExitCode::FAILURE
    }
}

/// Two full untraced sets with the same seed, every gated metric held to
/// its bound: virtual-time metrics to equality, wall-clock ones to their
/// relative bound.
fn agree(args: &Args) -> ExitCode {
    println!("cam-perf agree {}", meta_json(args));
    let mut ok = true;
    let sets: Vec<Vec<Outcome>> = (0..2)
        .map(|_| {
            selected(args)
                .into_iter()
                .map(|w| run_child(w, args))
                .collect()
        })
        .collect();
    for (a, b) in sets[0].iter().zip(&sets[1]) {
        println!("\n== {}", a.workload);
        println!(
            "  {:<24} {:>16} {:>16} {:>9} {:>8}  verdict",
            "metric", "set A", "set B", "diff", "bound"
        );
        for o in [a, b] {
            for p in &o.problems {
                println!("  PROBLEM: {p}");
            }
            ok &= o.correct();
        }
        for metric in catalogue::all_metrics() {
            let Some(rule) = metric.agree else { continue };
            if !metric.on.contains(&a.workload) {
                continue;
            }
            let (Some(&va), Some(&vb)) = (a.metrics.get(metric.name), b.metrics.get(metric.name))
            else {
                println!("  {:<24} missing from a set  FAIL", metric.name);
                ok = false;
                continue;
            };
            let diff = (vb - va) / va;
            let (bound, pass) = match rule {
                Agree::Exact => ("exact".to_string(), va.to_bits() == vb.to_bits()),
                Agree::Within(share) => {
                    let floor = if metric.name == "setup_s" {
                        SETUP_FLOOR_S
                    } else {
                        0.0
                    };
                    (
                        format!("{:.0}%", share * 100.0),
                        (vb - va).abs() <= (share * va.abs()).max(floor),
                    )
                }
            };
            ok &= pass;
            let decimals = if va.abs() < 1.0 { 6 } else { 3 };
            println!(
                "  {:<24} {:>16.decimals$} {:>16.decimals$} {:>8.2}% {:>8}  {}",
                metric.name,
                va,
                vb,
                diff * 100.0,
                bound,
                if pass { "ok" } else { "FAIL" }
            );
        }
    }
    println!("\nagree: {}", if ok { "PASS" } else { "FAIL" });
    if ok {
        ExitCode::SUCCESS
    } else {
        ExitCode::FAILURE
    }
}

// ------------------------------------------------------------- manifest

/// `BENCHMARK.json`, rendered from the catalogue.
fn manifest() -> String {
    let mut s = String::from("{\n");
    s.push_str(
        "  \"command\": [\"cargo\", \"run\", \"--release\", \"--quiet\", \"--manifest-path\", \"bench/perf/Cargo.toml\", \"--\", \"run\"],\n",
    );
    s.push_str("  \"paths\": [\"bench/perf\"],\n");
    let _ = writeln!(s, "  \"run_seconds\": {DEFAULT_SECONDS},");
    s.push_str("  \"workloads\": [\n");
    for (i, w) in WORKLOADS.iter().enumerate() {
        let _ = writeln!(
            s,
            "    {{\"name\": \"{}\", \"why\": \"{}\"}}{}",
            w.name,
            w.why,
            if i + 1 < WORKLOADS.len() { "," } else { "" }
        );
    }
    s.push_str("  ],\n  \"end_to_end\": [\n");
    for (i, metric) in END_TO_END.iter().enumerate() {
        let _ = writeln!(
            s,
            "    {{\"name\": \"{}\", \"unit\": \"{}\", \"better\": \"{}\", \"bound\": {}}}{}",
            metric.name,
            metric.unit,
            metric.better.as_str(),
            catalogue::driver_bound(metric),
            if i + 1 < END_TO_END.len() { "," } else { "" }
        );
    }
    s.push_str("  ],\n  \"per_layer\": [\n");
    for (i, metric) in PER_LAYER.iter().enumerate() {
        let _ = writeln!(
            s,
            "    {{\"name\": \"{}\", \"unit\": \"{}\", \"better\": \"{}\"}}{}",
            metric.name,
            metric.unit,
            metric.better.as_str(),
            if i + 1 < PER_LAYER.len() { "," } else { "" }
        );
    }
    s.push_str("  ]\n}\n");
    s
}

#[cfg(test)]
mod tests {
    #[test]
    fn committed_manifest_is_the_rendered_catalogue() {
        let path = concat!(env!("CARGO_MANIFEST_DIR"), "/../../BENCHMARK.json");
        let committed = std::fs::read_to_string(path).expect("BENCHMARK.json at the repo root");
        assert_eq!(
            committed,
            super::manifest(),
            "regenerate with `cam-perf manifest`"
        );
    }
}
