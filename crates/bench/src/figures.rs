//! One generator per table/figure of the paper's evaluation. Each returns
//! the same rows/series the paper reports, computed from the calibrated
//! models and the DES microbenchmark engine (see `DESIGN.md` for the
//! experiment index and `EXPERIMENTS.md` for paper-vs-measured values).
//! The repo-grown experiments (`bench` … `serve`) also return the
//! `BENCH_repro.json` sections they own and the acceptance bars they
//! failed — see [`Outcome`].

use cam_gpu::GpuSpec;
use cam_hostos::{CpuModel, IoDir, IoStackKind, MemoryModel};
use cam_iostacks::des::{run_microbench, Engine, MicrobenchConfig};
use cam_nvme::spec::Opcode;
use cam_nvme::SsdModel;
use cam_workloads::gemm::{model_gemm, GemmEngine};
use cam_workloads::gnn::{fig9_speedup, model_epoch, GnnConfig, GnnModel, GnnSystem};
use cam_workloads::graph::GraphSpec;
use cam_workloads::sort::{model_sort, model_sort_read_gbps, SortEngine};

use cam_telemetry::json::{parse, Json};
use cam_telemetry::trace::{chrome_trace, validate_chrome_trace, TraceSummary};
use cam_telemetry::{Event, FlightRecorder};

use crate::table::{f1, f2, pct, Table};

/// Runtime knobs the `repro` CLI threads into every generator. `None`
/// means "the experiment's historical default", so unflagged runs stay
/// bit-identical with committed expectations.
#[derive(Clone, Debug, Default)]
pub struct BenchParams {
    /// `--seed S`: base seed for seeded workloads.
    pub seed: Option<u64>,
    /// `--perturb F`: SSD service-time multiplier for the trajectory run
    /// (the perf gate's deliberate-perturbation knob).
    pub latency_scale: Option<f64>,
    /// `--baselines <path>`: the uncached trajectory baseline `bench` gates
    /// against (the cached one sits beside it).
    pub baselines: Option<String>,
    /// `--update-baselines`: `bench` rewrites the baselines instead of
    /// gating against them.
    pub update_baselines: bool,
}

impl BenchParams {
    /// The trajectory-run parameters implied by these knobs.
    pub fn trial_params(&self) -> crate::trajectory_run::TrialParams {
        let d = crate::trajectory_run::TrialParams::default();
        crate::trajectory_run::TrialParams {
            seed: self.seed.unwrap_or(d.seed),
            latency_scale: self.latency_scale.unwrap_or(d.latency_scale),
            ..d
        }
    }
}

/// What one experiment produced.
#[derive(Default)]
pub struct Outcome {
    /// The figure/table row data, printed by the CLI.
    pub tables: Vec<Table>,
    /// The top-level sections of [`BENCH_DOC`] this verb owns, freshly
    /// computed; the CLI replaces exactly these and keeps the rest.
    pub sections: Vec<(&'static str, Json)>,
    /// Acceptance bars that failed, one line each. Always printed; with
    /// `--check` they make the exit code 1.
    pub failures: Vec<String>,
}

impl From<Vec<Table>> for Outcome {
    fn from(tables: Vec<Table>) -> Self {
        Outcome {
            tables,
            ..Outcome::default()
        }
    }
}

/// Records `what` as a failed acceptance bar unless `ok`.
pub(crate) fn require(failed: &mut Vec<String>, ok: bool, what: String) {
    if !ok {
        failed.push(what);
    }
}

/// The machine-readable results document, in the working directory. Each
/// top-level section is written by exactly one verb (see [`EXPERIMENTS`]).
pub const BENCH_DOC: &str = "BENCH_repro.json";

/// The current [`BENCH_DOC`], or an empty object when it is absent or not
/// a JSON object.
pub fn read_bench_doc() -> Json {
    std::fs::read_to_string(BENCH_DOC)
        .ok()
        .and_then(|text| parse(&text).ok())
        .filter(|doc| matches!(doc, Json::Obj(_)))
        .unwrap_or(Json::Obj(Vec::new()))
}

/// Replaces `sections` in [`BENCH_DOC`], preserving every other section.
pub fn write_sections(sections: Vec<(&'static str, Json)>) -> std::io::Result<()> {
    let mut doc = read_bench_doc();
    for (key, value) in sections {
        doc.set(key, value);
    }
    std::fs::write(BENCH_DOC, format!("{doc:#}"))
}

/// Exports a recorder timeline as Chrome-trace JSON and validates it
/// before writing it to `path`: a trace that fails its own validator is a
/// failed bar, not an artifact.
fn write_trace(
    path: &str,
    events: &[Event],
    rec: &FlightRecorder,
    failed: &mut Vec<String>,
) -> Option<TraceSummary> {
    let trace = chrome_trace(events, &rec.thread_names());
    match validate_chrome_trace(&trace) {
        Ok(summary) => {
            if let Err(e) = std::fs::write(path, &trace) {
                eprintln!("warning: could not write {path}: {e}");
            }
            Some(summary)
        }
        Err(e) => {
            failed.push(format!("{path} failed trace validation: {e}"));
            None
        }
    }
}

/// An experiment generator: produces the figure/table's row data, the
/// [`BENCH_DOC`] sections it owns, and its failed acceptance bars.
pub type Generator = fn(&BenchParams) -> Outcome;

/// Every experiment, in paper order: `(id, description, generator)`.
///
/// The single source of truth for the CLI verb list — the `repro` usage
/// text, `repro all` and the coverage test all derive from this const, so
/// a new verb registers in exactly one place.
pub static EXPERIMENTS: &[(&str, &str, Generator)] = &[
    ("tab1", "Architectural design comparison", tab1),
    ("fig1", "GIDS GNN training time breakdown (Paper100M)", fig1),
    (
        "fig2",
        "4KB random I/O throughput of software I/O stacks",
        fig2,
    ),
    (
        "fig3",
        "Read/write I/O time breakdown of software I/O stacks",
        fig3,
    ),
    (
        "fig4",
        "A100 SM utilization for BaM to saturate N SSDs",
        fig4,
    ),
    ("tab3", "Experimental platform", tab3),
    ("tab4", "Real-world datasets", tab4),
    ("tab5", "GNN experiment configuration", tab5),
    ("fig8", "I/O throughput: CAM vs BaM, SPDK, POSIX", fig8),
    ("fig9", "GNN training epoch time: CAM vs GIDS", fig9),
    ("fig10", "Sort and GEMM end-to-end comparison", fig10),
    ("tab6", "Lines of code in real-world applications", tab6),
    ("fig11", "CAM-Sync vs CAM-Async vs SPDK (sort)", fig11),
    ("fig12", "One CPU thread controlling multiple SSDs", fig12),
    ("fig13", "CPU instructions/cycles per request", fig13),
    (
        "fig14",
        "CPU memory bandwidth usage vs SSD bandwidth",
        fig14,
    ),
    ("fig15", "Throughput at 2 vs 16 memory channels", fig15),
    (
        "fig16",
        "SPDK staging throughput vs access granularity",
        fig16,
    ),
    (
        "issue2",
        "ANNS: cudaMemcpyAsync share of staged-path time",
        issue2,
    ),
    (
        "motiv",
        "Section II motivation: DLRM / LLM-offload baselines",
        motiv,
    ),
    (
        "bench",
        "Functional-engine telemetry benchmark + DES perf trajectory gated against bench/baselines (writes workload, throughput, stages_ns, doorbell_to_retire_ns, critical_path, trajectory)",
        bench,
    ),
    (
        "cache",
        "GPU-memory block cache: hit rate / NVMe-submission sweep (writes the cache section and cache_trace.json)",
        cache,
    ),
    (
        "pipeline",
        "Multi-channel pipelining: per-SSD in-flight depth and read latency vs the blocking baseline (writes the pipeline section)",
        pipeline,
    ),
    (
        "fidelity",
        "Model fidelity: DES driver vs functional driver on a matched workload (writes the fidelity section and fidelity_trace.json)",
        fidelity,
    ),
    (
        "slo",
        "SLO burn and lane health under a transient overload, threaded vs DES driver (writes the slo section)",
        slo,
    ),
    (
        "attribute",
        "Queue-delay attribution: doorbell->retire decomposition, threaded and DES drivers",
        attribute,
    ),
    (
        "serve",
        "Multi-tenant KV-cache serving: admission, DRR fairness, per-tenant SLO (writes the serving section)",
        crate::serving_run::serve,
    ),
];

fn tab1(_p: &BenchParams) -> Outcome {
    let mut t = Table::new(
        "Table I: Architectural design comparison",
        &["system", "initiated by", "control plane", "data plane"],
    );
    t.row(vec![
        "POSIX I/O".into(),
        "CPU".into(),
        "CPU OS kernel".into(),
        "SSD - CPU memory - GPU memory".into(),
    ]);
    t.row(vec![
        "BaM".into(),
        "GPU".into(),
        "GPU user I/O queue".into(),
        "SSD - GPU memory".into(),
    ]);
    t.row(vec![
        "CAM".into(),
        "GPU".into(),
        "CPU user I/O queue".into(),
        "SSD - GPU memory".into(),
    ]);
    vec![t].into()
}

fn fig1(_p: &BenchParams) -> Outcome {
    let spec = GraphSpec::paper100m();
    let cfg = GnnConfig::default();
    let mut t = Table::new(
        "Fig. 1: GIDS (BaM-based) step breakdown, Paper100M, 12 SSDs",
        &[
            "model",
            "sample ms",
            "extract ms",
            "train ms",
            "extract %",
            "train %",
        ],
    );
    for model in GnnModel::ALL {
        let b = model_epoch(GnnSystem::Gids, &spec, model, &cfg, 12);
        t.row(vec![
            model.name().into(),
            f1(b.sample.as_secs_f64() * 1e3),
            f1(b.extract.as_secs_f64() * 1e3),
            f1(b.train.as_secs_f64() * 1e3),
            pct(b.extract_fraction()),
            pct(b.train_fraction()),
        ]);
    }
    t.note("paper: extraction 40-65% of step time, training 16-44%");
    vec![t].into()
}

fn fig2(_p: &BenchParams) -> Outcome {
    let m = SsdModel::p5510();
    let mut out = Vec::new();
    for (dir, op, label) in [
        (IoDir::Read, Opcode::Read, "(a) 4KB random read"),
        (IoDir::Write, Opcode::Write, "(b) 4KB random write"),
    ] {
        let mut t = Table::new(
            format!("Fig. 2{label}, single P5510, KIOPS"),
            &["stack", "KIOPS"],
        );
        for engine in [
            Engine::Posix,
            Engine::Libaio,
            Engine::IoUringInt,
            Engine::IoUringPoll,
        ] {
            let mut cfg = MicrobenchConfig::new(engine, 1, dir);
            cfg.requests = 8_000;
            let r = run_microbench(cfg);
            t.row(vec![engine.name().into(), f1(r.kiops)]);
        }
        t.note(format!(
            "SSD maximum (dashed line): {:.1} KIOPS",
            m.peak_iops_4k(op) / 1e3
        ));
        out.push(t);
    }
    out.into()
}

fn fig3(_p: &BenchParams) -> Outcome {
    let mut out = Vec::new();
    for dir in [IoDir::Read, IoDir::Write] {
        let mut t = Table::new(
            format!("Fig. 3: per-request time by layer, {dir:?}"),
            &[
                "stack",
                "user ns",
                "filesystem ns",
                "io_map ns",
                "block I/O ns",
                "fs+io_map %",
            ],
        );
        for stack in [
            IoStackKind::Posix,
            IoStackKind::Libaio,
            IoStackKind::IoUringInt,
            IoStackKind::IoUringPoll,
        ] {
            let c = stack.layer_costs(dir);
            t.row(vec![
                stack.name().into(),
                c.user.as_ns().to_string(),
                c.filesystem.as_ns().to_string(),
                c.io_map.as_ns().to_string(),
                c.block_io.as_ns().to_string(),
                pct(c.avoidable_fraction()),
            ]);
        }
        t.note("paper: >34% of request time in io_map + LBA retrieval");
        out.push(t);
    }
    out.into()
}

fn fig4(_p: &BenchParams) -> Outcome {
    let g = GpuSpec::a100_80g();
    let mut t = Table::new(
        "Fig. 4: A100 SM utilization for BaM to saturate N SSDs",
        &["SSDs", "SM utilization", "CAM (for reference)"],
    );
    for n in 1..=12u32 {
        t.row(vec![n.to_string(), pct(g.bam_sm_utilization(n)), pct(0.0)]);
    }
    t.note("paper: \"when the number of SSDs exceeds five, BaM engages nearly all available SMs\"");
    vec![t].into()
}

fn tab3(_p: &BenchParams) -> Outcome {
    let mut t = Table::new(
        "Table III: Experimental platform (simulated)",
        &["component", "specification"],
    );
    for (c, s) in [
        (
            "CPU",
            "Intel Xeon Gold 5320 (2 x 52 threads) @ 2.20 GHz [CpuModel]",
        ),
        ("CPU memory", "768 GB, 16 DDR4-3200 channels [MemoryModel]"),
        (
            "GPU",
            "80GB-PCIe-A100: 108 SMs, 2048 thr/SM [GpuSpec::a100_80g]",
        ),
        ("SSD", "12 x 3.84TB Intel P5510 [SsdModel::p5510]"),
        ("PCIe", "Gen4 x16, 21 GB/s measured ceiling"),
        (
            "S/W",
            "this reproduction: simulated NVMe/GPU substrate in Rust",
        ),
    ] {
        t.row(vec![c.into(), s.into()]);
    }
    vec![t].into()
}

fn tab4(_p: &BenchParams) -> Outcome {
    let mut t = Table::new(
        "Table IV: Datasets",
        &["dataset", "nodes", "edges", "feature dim", "feature size"],
    );
    for spec in [GraphSpec::paper100m(), GraphSpec::igb_full()] {
        t.row(vec![
            spec.name.into(),
            spec.nodes.to_string(),
            spec.edges.to_string(),
            spec.feature_dim.to_string(),
            format!("{:.1} GB", spec.feature_store_bytes() as f64 / 1e9),
        ]);
    }
    t.note("synthetic scale-downs preserve avg degree, skew, and record size");
    vec![t].into()
}

fn tab5(_p: &BenchParams) -> Outcome {
    let cfg = GnnConfig::default();
    let mut t = Table::new(
        "Table V: GNN experiment configuration",
        &["parameter", "setting"],
    );
    t.row(vec!["GNN task".into(), "node classification".into()]);
    t.row(vec![
        "sampling method".into(),
        "2-hop random neighbor sampling".into(),
    ]);
    t.row(vec![
        "sampling fan-outs".into(),
        format!("{}, {}", cfg.fanouts[0], cfg.fanouts[1]),
    ]);
    t.row(vec![
        "hidden layer dimension".into(),
        cfg.hidden_dim.to_string(),
    ]);
    t.row(vec!["batch size".into(), cfg.batch_size.to_string()]);
    vec![t].into()
}

fn fig8(_p: &BenchParams) -> Outcome {
    let engines = [Engine::Cam, Engine::Spdk, Engine::Bam, Engine::Posix];
    let mut out = Vec::new();
    // (a)/(c): 4 KiB throughput vs number of SSDs.
    for dir in [IoDir::Read, IoDir::Write] {
        let sub = if dir == IoDir::Read { "(a)" } else { "(c)" };
        let mut t = Table::new(
            format!("Fig. 8{sub}: 4KB random {dir:?} GB/s vs SSD count"),
            &["SSDs", "CAM", "SPDK", "BaM", "POSIX I/O"],
        );
        for n in [1usize, 2, 4, 8, 12] {
            let mut row = vec![n.to_string()];
            for e in engines {
                let mut cfg = MicrobenchConfig::new(e, n, dir);
                cfg.requests = (n as u64) * 6_000;
                row.push(f2(run_microbench(cfg).gbps));
            }
            t.row(row);
        }
        out.push(t);
    }
    // (b)/(d): throughput vs access granularity at 12 SSDs.
    for dir in [IoDir::Read, IoDir::Write] {
        let sub = if dir == IoDir::Read { "(b)" } else { "(d)" };
        let mut t = Table::new(
            format!("Fig. 8{sub}: {dir:?} GB/s vs granularity, 12 SSDs"),
            &["granularity", "CAM", "SPDK", "BaM", "POSIX I/O"],
        );
        for shift in [9u32, 10, 12, 14, 17] {
            let gran = 1u64 << shift;
            let mut row = vec![format!("{} B", gran)];
            for e in engines {
                let mut cfg = MicrobenchConfig::new(e, 12, dir);
                cfg.granularity = gran;
                cfg.requests = 12 * 1_500;
                row.push(f2(run_microbench(cfg).gbps));
            }
            t.row(row);
        }
        out.push(t);
    }
    out.into()
}

fn fig9(_p: &BenchParams) -> Outcome {
    let cfg = GnnConfig::default();
    let mut out = Vec::new();
    for spec in [GraphSpec::paper100m(), GraphSpec::igb_full()] {
        let mut t = Table::new(
            format!("Fig. 9: GNN epoch time on {}, 12 SSDs", spec.name),
            &["model", "GIDS s/epoch", "CAM s/epoch", "speedup"],
        );
        for model in GnnModel::ALL {
            let gids = model_epoch(GnnSystem::Gids, &spec, model, &cfg, 12);
            let cam = model_epoch(GnnSystem::Cam, &spec, model, &cfg, 12);
            t.row(vec![
                model.name().into(),
                f1(gids.epoch().as_secs_f64()),
                f1(cam.epoch().as_secs_f64()),
                format!("{:.2}x", fig9_speedup(&spec, model, &cfg, 12)),
            ]);
        }
        out.push(t);
    }
    out.into()
}

fn fig10(_p: &BenchParams) -> Outcome {
    let mut out = Vec::new();
    // (a) mergesort.
    let mut t = Table::new(
        "Fig. 10(a): mergesort time, 8Gi int32 (32 GB), 12 SSDs",
        &["system", "time s", "vs CAM"],
    );
    let cam = model_sort(SortEngine::CamSync, 8 << 30, 12).as_secs_f64();
    for (e, name) in [
        (SortEngine::CamSync, "CAM"),
        (SortEngine::Spdk, "SPDK"),
        (SortEngine::Posix, "POSIX I/O"),
    ] {
        let s = model_sort(e, 8 << 30, 12).as_secs_f64();
        t.row(vec![name.into(), f1(s), format!("{:.2}x", s / cam)]);
    }
    t.note("paper: CAM up to 1.5x faster than POSIX, similar to SPDK");
    out.push(t);
    // (b)+(c) GEMM.
    let mut t = Table::new(
        "Fig. 10(b,c): GEMM 65536^2 f32, 4096^2 tiles, 12 SSDs",
        &["system", "I/O GB/s", "time s", "vs CAM"],
    );
    let camr = model_gemm(GemmEngine::Cam, 65_536, 4_096, 12);
    for (e, name) in [
        (GemmEngine::Cam, "CAM"),
        (GemmEngine::Bam, "BaM"),
        (GemmEngine::Gds, "GDS"),
        (GemmEngine::Spdk, "SPDK"),
    ] {
        let r = model_gemm(e, 65_536, 4_096, 12);
        t.row(vec![
            name.into(),
            f2(r.io_gbps),
            f1(r.time.as_secs_f64()),
            format!("{:.2}x", r.time.as_secs_f64() / camr.time.as_secs_f64()),
        ]);
    }
    t.note("paper: GDS only 0.8 GB/s with 12 SSDs; CAM nearly 20 GB/s; CAM up to 1.84x vs BaM");
    out.push(t);
    out.into()
}

fn tab6(_p: &BenchParams) -> Outcome {
    let mut t = Table::new(
        "Table VI: lines of code per workload",
        &[
            "workload",
            "paper baseline LoC",
            "paper CAM LoC",
            "this repo's CAM example LoC",
        ],
    );
    let gnn = crate::count_loc(include_str!("../../../examples/gnn_training.rs"));
    let sort = crate::count_loc(include_str!("../../../examples/out_of_core_sort.rs"));
    let gemm = crate::count_loc(include_str!("../../../examples/out_of_core_gemm.rs"));
    t.row(vec![
        "GNN training".into(),
        "BaM: 65".into(),
        "66".into(),
        gnn.to_string(),
    ]);
    t.row(vec![
        "Sort".into(),
        "POSIX: 644".into(),
        "510".into(),
        sort.to_string(),
    ]);
    t.row(vec![
        "GEMM".into(),
        "GDS: 158 / BaM: 165".into(),
        "130".into(),
        gemm.to_string(),
    ]);
    t.note("our examples include dataset generation and verification; the paper counts only the I/O core loop");
    vec![t].into()
}

fn fig11(_p: &BenchParams) -> Outcome {
    let mut out = Vec::new();
    let mut t = Table::new(
        "Fig. 11(a): sort-phase read throughput GB/s vs SSD count",
        &["SSDs", "SPDK", "CAM-Async", "CAM-Sync"],
    );
    for n in [2usize, 4, 8, 12] {
        t.row(vec![
            n.to_string(),
            f2(model_sort_read_gbps(SortEngine::Spdk, n)),
            f2(model_sort_read_gbps(SortEngine::CamAsync, n)),
            f2(model_sort_read_gbps(SortEngine::CamSync, n)),
        ]);
    }
    out.push(t);
    let mut t = Table::new(
        "Fig. 11(b): sort execution time (s) vs dataset size, 12 SSDs",
        &["elements", "SPDK", "CAM-Async", "CAM-Sync"],
    );
    for gi in [2u64, 4, 8, 16] {
        let elems = gi << 30;
        t.row(vec![
            format!("{gi} Gi"),
            f1(model_sort(SortEngine::Spdk, elems, 12).as_secs_f64()),
            f1(model_sort(SortEngine::CamAsync, elems, 12).as_secs_f64()),
            f1(model_sort(SortEngine::CamSync, elems, 12).as_secs_f64()),
        ]);
    }
    t.note("paper: CAM-Sync achieves nearly the same performance as CAM-Async/SPDK");
    out.push(t);
    out.into()
}

fn fig12(_p: &BenchParams) -> Outcome {
    let mut out = Vec::new();
    for dir in [IoDir::Read, IoDir::Write] {
        let mut t = Table::new(
            format!("Fig. 12: {dir:?} GB/s, 12 SSDs, varying threads"),
            &["threads", "SSDs/thread", "GB/s", "vs 12 threads"],
        );
        let mut base = 0.0;
        for threads in [12usize, 6, 4, 3, 2, 1] {
            let mut cfg = MicrobenchConfig::new(Engine::Cam, 12, dir);
            cfg.cam_threads = threads;
            cfg.requests = 12 * 6_000;
            let g = run_microbench(cfg).gbps;
            if threads == 12 {
                base = g;
            }
            t.row(vec![
                threads.to_string(),
                format!("{:.0}", 12.0 / threads as f64),
                f2(g),
                pct(g / base),
            ]);
        }
        t.note("paper: 2 SSDs/thread free; 4 SSDs/thread ~75%");
        out.push(t);
    }
    out.into()
}

fn fig13(_p: &BenchParams) -> Outcome {
    let cpu = CpuModel::xeon_gold_5320();
    let m = SsdModel::p5510();
    let mut out = Vec::new();
    for (dir, op) in [(IoDir::Read, Opcode::Read), (IoDir::Write, Opcode::Write)] {
        let device_rate = m.peak_iops_4k(op);
        let mut t = Table::new(
            format!("Fig. 13: CPU cost per 4KB {dir:?} request"),
            &["stack", "instructions", "cycles", "IPC"],
        );
        for stack in [IoStackKind::Cam, IoStackKind::Spdk, IoStackKind::Libaio] {
            let rate = stack.max_rate_per_core(dir).min(device_rate);
            let c = cpu.per_request(stack, dir, rate);
            t.row(vec![
                stack.name().into(),
                c.instructions.to_string(),
                c.cycles.to_string(),
                f2(c.instructions as f64 / c.cycles as f64),
            ]);
        }
        t.note("paper: CAM/SPDK fewer instructions and far fewer cycles than libaio; polling has high IPC");
        out.push(t);
    }
    out.into()
}

fn fig14(_p: &BenchParams) -> Outcome {
    let mem = MemoryModel::xeon_16ch();
    let mut t = Table::new(
        "Fig. 14: CPU memory traffic (GB/s) vs delivered SSD bandwidth",
        &["SSDs", "SSD GB/s", "SPDK mem GB/s", "CAM mem GB/s"],
    );
    for n in [1usize, 2, 4, 8, 12] {
        let mut cfg = MicrobenchConfig::new(Engine::Cam, n, IoDir::Read);
        cfg.requests = (n as u64) * 4_000;
        let ssd = run_microbench(cfg).gbps;
        t.row(vec![
            n.to_string(),
            f2(ssd),
            f2(mem.traffic_gbps(ssd, true)),
            f2(mem.traffic_gbps(ssd, false)),
        ]);
    }
    t.note("paper: SPDK's memory traffic is ~2x the SSD bandwidth; CAM's grows much slower");
    vec![t].into()
}

fn fig15(_p: &BenchParams) -> Outcome {
    let mut out = Vec::new();
    for dir in [IoDir::Read, IoDir::Write] {
        let mut t = Table::new(
            format!("Fig. 15: {dir:?} GB/s at limited memory channels, 12 SSDs"),
            &["system", "2 channels", "16 channels"],
        );
        for e in [Engine::Spdk, Engine::Cam] {
            let mut row = vec![e.name().to_string()];
            for ch in [2u32, 16] {
                let mut cfg = MicrobenchConfig::new(e, 12, dir);
                cfg.mem_channels = ch;
                cfg.requests = 12 * 4_000;
                row.push(f2(run_microbench(cfg).gbps));
            }
            t.row(row);
        }
        t.note("paper: SPDK degrades when memory bandwidth is limited; CAM is unaffected");
        out.push(t);
    }
    out.into()
}

fn fig16(_p: &BenchParams) -> Outcome {
    let mut t = Table::new(
        "Fig. 16: staged (SPDK) GB/s vs granularity, non-contiguous destination, 12 SSDs",
        &["granularity", "SPDK", "CAM"],
    );
    for (gran, reqs) in [
        (4u64 << 10, 24_000u64),
        (64 << 10, 12_000),
        (1 << 20, 2_400),
        (16 << 20, 600),
        (128 << 20, 240),
    ] {
        let mut spdk = MicrobenchConfig::new(Engine::Spdk, 12, IoDir::Read);
        spdk.granularity = gran;
        spdk.requests = reqs;
        spdk.noncontig_dest = true;
        let mut cam = MicrobenchConfig::new(Engine::Cam, 12, IoDir::Read);
        cam.granularity = gran.min(1 << 20); // CAM scatters at block granularity
        cam.requests = reqs.max(2_400);
        t.row(vec![
            if gran >= 1 << 20 {
                format!("{} MB", gran >> 20)
            } else {
                format!("{} KB", gran >> 10)
            },
            f2(run_microbench(spdk).gbps),
            f2(run_microbench(cam).gbps),
        ]);
    }
    t.note("paper: at 4KB the staged path delivers 1.3 GB/s, 93.5% below CAM");
    vec![t].into()
}

fn issue2(_p: &BenchParams) -> Outcome {
    let mut t = Table::new(
        "Issue 2 (§ II-A): cudaMemcpyAsync share of staged ANNS time, 12 SSDs",
        &["granularity", "copy share"],
    );
    for gran in [4u64 << 10, 16 << 10, 64 << 10, 1 << 20, 16 << 20] {
        t.row(vec![
            format!("{} B", gran),
            pct(cam_workloads::anns::staged_copy_fraction(gran, 12)),
        ]);
    }
    t.note("paper: \"cudaMemcpyAsync costs 78% of the total time\" at 4KB; CAM's direct path pays none");
    vec![t].into()
}

fn motiv(_p: &BenchParams) -> Outcome {
    use cam_workloads::dlrm::{model_iteration, DlrmSystem};
    use cam_workloads::llm::{model_step, LlmSystem};
    let mut t = Table::new(
        "Section II motivation: storage-bound training baselines, 12 SSDs",
        &[
            "system",
            "I/O phase share",
            "baseline time",
            "CAM time",
            "speedup",
        ],
    );
    let d_base = model_iteration(DlrmSystem::TorchRec, 4096, 26, 20, 128, 12);
    let d_cam = model_iteration(DlrmSystem::Cam, 4096, 26, 20, 128, 12);
    t.row(vec![
        "DLRM (TorchRec-style)".into(),
        pct(d_base.embedding_fraction()),
        format!("{:.1} ms/iter", d_base.iteration.as_secs_f64() * 1e3),
        format!("{:.1} ms/iter", d_cam.iteration.as_secs_f64() * 1e3),
        format!(
            "{:.2}x",
            d_base.iteration.as_ns() as f64 / d_cam.iteration.as_ns() as f64
        ),
    ]);
    let l_base = model_step(LlmSystem::ZeroInfinity, 100.0, 12);
    let l_cam = model_step(LlmSystem::Cam, 100.0, 12);
    t.row(vec![
        "LLM 100B (ZeRO-Infinity-style)".into(),
        pct(l_base.update_fraction()),
        format!("{:.1} s/step", l_base.step.as_secs_f64()),
        format!("{:.1} s/step", l_cam.step.as_secs_f64()),
        format!(
            "{:.2}x",
            l_base.step.as_ns() as f64 / l_cam.step.as_ns() as f64
        ),
    ]);
    t.note("paper: TorchRec spends 75% of each iteration on embedding access at ~64% bandwidth;");
    t.note("ZeRO-Infinity spends >80% of time in the update phase at ~70% bandwidth");
    vec![t].into()
}

fn bench(p: &BenchParams) -> Outcome {
    use crate::telemetry_run::{bars, bench_sections, run_recorded};
    use crate::trajectory_run::{run_gate, BASELINE_PATH};
    use cam_telemetry::{critical, Stage};
    use std::sync::Arc;

    let run = run_recorded(20, 64, Some(Arc::new(FlightRecorder::new())));
    // Critical-path attribution from the event timeline: where each
    // channel's doorbell→retire latency actually went.
    let report = critical::analyze(&run.events);
    let mut sections = bench_sections(&run, &report);
    let mut failures = bars(&run, &report);

    // The perf trajectory: seeded multi-trial DES runs, gated against the
    // committed baselines; the uncached run's headline metrics append to
    // the `trajectory` array, which keeps every prior entry.
    let baselines = p.baselines.as_deref().unwrap_or(BASELINE_PATH);
    let gate = run_gate(&p.trial_params(), baselines, p.update_baselines);
    failures.extend(gate.failures);
    let mut trajectory = match read_bench_doc().get("trajectory") {
        Some(Json::Arr(prior)) => prior.clone(),
        _ => Vec::new(),
    };
    trajectory.push(gate.entry);
    sections.push(("trajectory", Json::Arr(trajectory)));

    let mut t = Table::new(
        "Functional engine: batch-lifecycle stage latency (instrumented run)",
        &["op", "stage", "p50 (ns)", "p99 (ns)", "samples"],
    );
    for op in ["read", "write"] {
        for stage in Stage::ALL {
            let name = format!("cam_stage_ns{{op=\"{op}\",stage=\"{}\"}}", stage.name());
            let (p50, p99, count) = run
                .snapshot
                .histogram(&name)
                .map(|h| (h.p50, h.p99, h.count))
                .unwrap_or((0, 0, 0));
            t.row(vec![
                op.into(),
                stage.name().into(),
                p50.to_string(),
                p99.to_string(),
                count.to_string(),
            ]);
        }
    }
    t.note(format!(
        "{} requests in {:.2} ms: {} GB/s, {} K IOPS; full report in {BENCH_DOC}",
        run.requests,
        run.elapsed_ns as f64 / 1e6,
        f2(run.gbps()),
        f1(run.kiops()),
    ));

    let mut cp = Table::new(
        "Critical path: per-channel doorbell->retire attribution (mean ns/batch)",
        &[
            "channel", "batches", "pickup", "dispatch", "submit", "complete", "retire", "dominant",
        ],
    );
    for ch in &report.channels {
        let mean = |i: usize| ch.stage_ns[i].checked_div(ch.batches).unwrap_or(0);
        cp.row(vec![
            ch.channel.to_string(),
            ch.batches.to_string(),
            mean(0).to_string(),
            mean(1).to_string(),
            mean(2).to_string(),
            mean(3).to_string(),
            mean(4).to_string(),
            format!(
                "{} ({:.0}%)",
                ch.dominant().name(),
                ch.dominant_fraction() * 100.0
            ),
        ]);
    }
    let mut tables = vec![t, cp];
    tables.extend(gate.tables);
    Outcome {
        tables,
        sections,
        failures,
    }
}

fn pipeline(_p: &BenchParams) -> Outcome {
    use crate::pipeline_run::{bars, pipeline_section_json, run_pipeline_experiment};

    let report = run_pipeline_experiment(16);
    let mut t = Table::new(
        "Pipelining: per-SSD in-flight depth and mean read latency vs. blocking baseline",
        &[
            "mode",
            "mean depth/ssd",
            "peak depth/ssd",
            "mean read (us)",
            "batches",
        ],
    );
    for m in [&report.pipelined, &report.blocking] {
        let join = |cells: Vec<String>| cells.join("/");
        t.row(vec![
            if m.pipelined { "pipelined" } else { "blocking" }.into(),
            join(m.inflight_mean.iter().map(|v| format!("{v:.2}")).collect()),
            join(m.inflight_peak.iter().map(u64::to_string).collect()),
            format!("{:.1}", m.mean_read_ns as f64 / 1e3),
            m.batches.to_string(),
        ]);
    }
    t.note(format!(
        "4 channels x 4 SSDs, 1 worker; read latency speedup {:.2}x",
        report.speedup()
    ));
    Outcome {
        tables: vec![t],
        sections: vec![("pipeline", pipeline_section_json(&report))],
        failures: bars(&report),
    }
}

fn slo(_p: &BenchParams) -> Outcome {
    use crate::health_run::{bars, run_health_experiment, slo_section_json};
    use cam_telemetry::health_state_label;

    let report = run_health_experiment();
    let mut t = Table::new(
        "SLO & lane health: transient overload on SSD 0, threaded vs DES driver",
        &[
            "driver",
            "burn short",
            "burn long",
            "retries",
            "faults",
            "batches",
            "lane 0 walk",
        ],
    );
    for (driver, d) in [("functional", &report.functional), ("des", &report.des)] {
        let walk: Vec<&str> = (d.transitions.first().map(|t| t.1).into_iter())
            .chain(d.transitions.iter().map(|t| t.2))
            .map(health_state_label)
            .collect();
        t.row(vec![
            driver.into(),
            f1(d.burn_short),
            f1(d.burn_long),
            d.retries.to_string(),
            d.faults.to_string(),
            d.batches.to_string(),
            walk.join(" > "),
        ]);
    }
    t.note(format!(
        "health sequences match: {}, overloaded->recovered: {}",
        report.sequences_match(),
        report.overloaded_then_recovered(),
    ));
    Outcome {
        tables: vec![t],
        sections: vec![("slo", slo_section_json(&report))],
        failures: bars(&report),
    }
}

fn cache(p: &BenchParams) -> Outcome {
    use crate::cache_run::{
        bars, cache_section_json, run_cache_sweep, run_cached, CacheWorkload, DEFAULT_CACHE_SEED,
    };
    use cam_telemetry::EventKind;
    use std::sync::Arc;

    let seed = p.seed.unwrap_or(DEFAULT_CACHE_SEED);
    let reports = run_cache_sweep(&[256, 2048], seed);
    let mut failures = bars(&reports);
    let mut t = Table::new(
        "Block cache: cache size x workload sweep (cached vs uncached runs)",
        &[
            "workload",
            "slots",
            "accesses",
            "uncached subs",
            "cached subs",
            "ratio",
            "hit rate",
            "coalesced",
            "ra accuracy",
            "read mean delta",
        ],
    );
    for r in &reports {
        t.row(vec![
            r.workload.into(),
            r.slots.to_string(),
            r.accesses.to_string(),
            r.uncached_submissions.to_string(),
            r.cached_submissions.to_string(),
            format!("{:.2}x", r.submission_ratio()),
            pct(r.cache_hit_rate),
            r.coalesced_misses.to_string(),
            match r.readahead_accuracy {
                Some(a) => pct(a),
                None => "-".into(),
            },
            format!(
                "{:+.0}%",
                (r.cached_read_mean_ns / r.uncached_read_mean_ns.max(1.0) - 1.0) * 100.0
            ),
        ]);
    }
    t.note("subs = NVMe commands submitted; cached runs include readahead traffic");

    // A recorded cached run, exported through the Chrome-trace pipeline:
    // the cache events (access / evict / readahead / flush instants) must
    // satisfy the trace validator beside balanced batch spans.
    let rec = Arc::new(FlightRecorder::new());
    let _ = run_cached(CacheWorkload::SeqScan, 1024, seed, Some(Arc::clone(&rec)));
    let path = "cache_trace.json";
    let events = rec.snapshot();
    if let Some(summary) = write_trace(path, &events, &rec, &mut failures) {
        let accesses = events
            .iter()
            .any(|e| matches!(e.kind, EventKind::CacheAccess { .. }));
        require(
            &mut failures,
            accesses && summary.async_begin > 0,
            format!("{path} lacks cache-access instants or batch spans"),
        );
        t.note(format!(
            "cached-mode trace valid: {} events across {} tracks, written to {path}",
            summary.events,
            summary.named_tracks.len(),
        ));
    }
    Outcome {
        tables: vec![t],
        sections: vec![("cache", cache_section_json(&reports))],
        failures,
    }
}

fn fidelity(p: &BenchParams) -> Outcome {
    use crate::fidelity_run::{
        decision_bars, fidelity_section_json, fidelity_workload, run_des, run_fidelity_experiment,
        timing_bars, DEFAULT_SEED, N_CHANNELS, N_SSDS,
    };
    use cam_telemetry::EventKind;
    use std::sync::Arc;

    let seed = p.seed.unwrap_or(DEFAULT_SEED);
    let report = run_fidelity_experiment(8, seed);
    let mut failures = decision_bars(&report);
    failures.extend(timing_bars(&report));

    // The decision comparison: every counter, plan replay vs. each
    // driver × mode. The whole point is that the four rightmost columns
    // are identical.
    let mut t = Table::new(
        "Model fidelity: protocol decisions, plan replay vs threaded vs DES driver",
        &[
            "decision",
            "expected",
            "func piped",
            "func blocking",
            "des piped",
            "des blocking",
        ],
    );
    let cols = [
        report.expected.fields(),
        report.functional.pipelined.decisions.fields(),
        report.functional.blocking.decisions.fields(),
        report.des.pipelined.decisions.fields(),
        report.des.blocking.decisions.fields(),
    ];
    for i in 0..cols[0].len() {
        let mut row = vec![cols[0][i].0.replace('_', " ")];
        row.extend(cols.iter().map(|c| c[i].1.to_string()));
        t.row(row);
    }
    t.note(format!(
        "decisions_match: {} ({N_CHANNELS} channels x 8 batches, {N_SSDS} SSDs, seeded workload)",
        report.decisions_match()
    ));

    // The timing-trend comparison: magnitudes differ by design (wall clock
    // vs calibrated virtual time), directions must not.
    let mut tr = Table::new(
        "Model fidelity: in-flight depth and doorbell->retire latency trends",
        &["driver", "mode", "mean depth", "mean read (us)", "speedup"],
    );
    for (driver, engine) in [("functional", &report.functional), ("des", &report.des)] {
        for m in [&engine.pipelined, &engine.blocking] {
            tr.row(vec![
                driver.into(),
                if m.pipelined { "pipelined" } else { "blocking" }.into(),
                format!("{:.2}", m.depth()),
                format!("{:.1}", m.mean_read_ns as f64 / 1e3),
                if m.pipelined {
                    format!("{:.2}x", engine.speedup())
                } else {
                    "-".into()
                },
            ]);
        }
    }
    tr.note(format!(
        "depth rel err: {:.2} piped / {:.2} blocking (tolerance {}); speedup direction agrees: {}",
        report.depth_rel_err(true),
        report.depth_rel_err(false),
        crate::fidelity_run::DEPTH_REL_ERR_TOLERANCE,
        report.speedup_direction_agrees()
    ));

    // The cached matrix: the same CacheCore behind both drivers, decision
    // counters against the pure replay. The whole point is four identical
    // rows under the "expected" one.
    let names = report
        .cached
        .expected
        .fields()
        .map(|(name, _)| name.replace('_', " "));
    let mut headers = vec!["run"];
    headers.extend(names.iter().map(String::as_str));
    headers.push("mean read (us)");
    let mut tc = Table::new(
        "Model fidelity: cache decisions, pure replay vs threaded CachedDevice vs DES cache stage",
        &headers,
    );
    let cache_row =
        |label: &str, c: &cam_protocol::cache_core::CacheDecisionCounters, mean_ns: Option<u64>| {
            let mut row = vec![label.to_string()];
            row.extend(c.fields().iter().map(|(_, v)| v.to_string()));
            row.push(
                mean_ns
                    .map(|ns| format!("{:.1}", ns as f64 / 1e3))
                    .unwrap_or_else(|| "-".into()),
            );
            row
        };
    tc.row(cache_row(
        "replay (expected)",
        &report.cached.expected,
        None,
    ));
    for (label, m) in report.cached.modes() {
        tc.row(cache_row(label, &m.counters, Some(m.mean_read_ns)));
    }
    tc.note(format!(
        "cache decisions_match: {} (seeded single-stream workload, {} batches)",
        report.cached.decisions_match(),
        8 * 3,
    ));

    // The virtual-time trace artifact: a recorded DES pipelined run — sim
    // events only, on sim-ssd tracks under process 2.
    let rec = Arc::new(FlightRecorder::new());
    let _ = run_des(true, &fidelity_workload(8, seed), Some(Arc::clone(&rec)));
    let path = "fidelity_trace.json";
    let events = rec.snapshot();
    if let Some(summary) = write_trace(path, &events, &rec, &mut failures) {
        let sim_only = events.iter().all(|e| {
            matches!(
                e.kind,
                EventKind::SimIssue { .. } | EventKind::SimComplete { .. }
            )
        });
        require(
            &mut failures,
            sim_only
                && summary.async_begin > 0
                && summary.named_tracks.iter().any(|n| n == "sim-ssd0"),
            format!("{path} must hold only sim spans, on sim-ssd tracks"),
        );
        tr.note(format!(
            "DES trace valid: {} events across {} tracks, written to {path}",
            summary.events,
            summary.named_tracks.len(),
        ));
    }
    Outcome {
        tables: vec![t, tc, tr],
        sections: vec![("fidelity", fidelity_section_json(&report))],
        failures,
    }
}

fn attribute(p: &BenchParams) -> Outcome {
    use crate::trajectory_run::{run_trial, TrialParams};
    use cam_telemetry::attribution::{component_name, decompose};
    use cam_telemetry::{critical, FlightRecorder, Stage};
    use std::sync::Arc;

    let defaults = TrialParams::default();
    let seed = p.seed.unwrap_or(defaults.seed);

    // Threaded driver: a recorded functional-engine run on the wall clock.
    let recorder = Arc::new(FlightRecorder::new());
    let run = crate::telemetry_run::run_recorded(20, 64, Some(Arc::clone(&recorder)));
    let threaded = critical::analyze(&run.events);
    // DES driver: one seeded virtual-time trial with lifecycle events on.
    let des_trial = run_trial(seed, defaults.rounds, 1.0);

    let mut out = Vec::new();
    for (driver, batches) in [("threaded", &threaded.batches), ("des", &des_trial)] {
        let mut t = Table::new(
            format!("Queue-delay attribution ({driver}): doorbell->retire decomposition, ns/batch"),
            &[
                "row",
                "doorbell_wait",
                "dispatch",
                "lane_wait",
                "ssd_service",
                "retire",
                "total",
                "dominant",
            ],
        );
        let Some(d) = decompose(batches) else {
            t.note("no batches attributed");
            out.push(t);
            continue;
        };
        let present = d.present;
        let row = move |label: &str, vals: &[f64; Stage::ALL.len()], total: f64, dom: Stage| {
            let mut r = vec![label.to_string()];
            r.extend(Stage::ALL.iter().map(|s| {
                if present[s.index()] {
                    format!("{:.0}", vals[s.index()])
                } else {
                    "n/a".into()
                }
            }));
            r.push(format!("{total:.0}"));
            r.push(component_name(dom).into());
            r
        };
        t.row(row("mean", &d.mean_ns, d.mean_total_ns, d.dominant_mean()));
        let tail_total: f64 = d.tail_mean_ns.iter().sum();
        t.row(row(
            "p99 tail",
            &d.tail_mean_ns,
            tail_total,
            d.dominant_tail(),
        ));
        t.note(format!(
            "{} batches, p99 total {} ns, {} tail batches; p99-tail row averages the \
             batches at or above the p99 (components sum to the tail total)",
            d.batches, d.p99_total_ns, d.tail_batches
        ));
        if driver == "des" {
            t.note(
                "n/a components are structurally absent from the DES timeline \
                 (doorbell/pickup coincide in virtual time; retire follows the last \
                 completion instantly); dispatch and lane_wait are charged by the \
                 calibrated CPU pipe (see `repro calibrate`)",
            );
        }
        out.push(t);
    }
    out.into()
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn registry_covers_every_table_and_figure() {
        // `EXPERIMENTS` is the single source of truth for the CLI verb list;
        // this test guards its invariants rather than mirroring its contents.
        let ids: Vec<&str> = EXPERIMENTS.iter().map(|(id, _, _)| *id).collect();
        let mut unique = ids.clone();
        unique.sort_unstable();
        unique.dedup();
        assert_eq!(unique.len(), ids.len(), "duplicate experiment ids: {ids:?}");
        // The paper's core evaluation plus every repo-grown experiment must
        // register exactly once, including the serving front-end verb.
        assert!(ids.len() >= 27, "registry shrank: {ids:?}");
        for want in ["tab1", "fig8", "bench", "pipeline", "slo", "serve"] {
            assert!(ids.contains(&want), "missing {want}");
        }
        for (id, desc, _) in EXPERIMENTS {
            assert!(!desc.is_empty(), "experiment {id} has no description");
        }
    }

    #[test]
    fn cheap_generators_produce_rows() {
        // The non-sweep generators are fast enough for unit tests.
        for id in [
            "tab1", "fig1", "fig3", "fig4", "tab3", "tab4", "tab5", "fig9", "fig10", "fig11",
            "fig13", "fig15",
        ] {
            let (_, _, gen) = EXPERIMENTS.iter().find(|(i, _, _)| *i == id).unwrap();
            let outcome = gen(&BenchParams::default());
            assert!(outcome.sections.is_empty() && outcome.failures.is_empty());
            for t in outcome.tables {
                assert!(!t.is_empty(), "{id}: empty table {}", t.title());
            }
        }
    }

    #[test]
    fn attribute_marks_structurally_absent_des_components_na() {
        // Doorbell/pickup coincide in virtual time and retire follows the
        // last completion instantly: the DES rows must say n/a, never 0.
        let tables = attribute(&BenchParams::default()).tables;
        let des = &tables[1];
        assert!(des.title().contains("(des)"), "{}", des.title());
        for row in 0..des.len() {
            assert_eq!((des.cell(row, 1), des.cell(row, 5)), ("n/a", "n/a"));
            assert_ne!(
                des.cell(row, 2),
                "n/a",
                "dispatch is charged by the CPU pipe"
            );
        }
    }

    #[test]
    fn fig4_table_hits_full_utilization_by_five() {
        let t = &fig4(&BenchParams::default()).tables[0];
        // Row 4 = 5 SSDs (1-indexed SSD count in col 0).
        assert_eq!(t.cell(4, 0), "5");
        let u: f64 = t.cell(4, 1).trim_end_matches('%').parse().unwrap();
        assert!(u > 90.0, "5-SSD utilization {u}%");
    }
}
