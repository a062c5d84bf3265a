//! The `repro` verbs. [`EXPERIMENTS`] lists them in paper order: first the
//! tables and figures of the paper's evaluation, each a [`Figure`] — a
//! function that builds the rows the paper reports, from the calibrated
//! models and the DES microbenchmark engine, plus the [`Claim`]s the paper
//! makes about them (`EXPERIMENTS.md` is rendered from this list) — then
//! the repo-grown experiments (`bench` … `serve`), which judge their own
//! acceptance bars — see [`Outcome`]. A verb's tables are its whole report:
//! [`bench_doc`] is what the CLI printed, as JSON.

use cam_gpu::GpuSpec;
use cam_hostos::{CpuModel, IoDir, IoStackKind, LayerCosts, MemoryModel, PerfCounts};
use cam_iostacks::des::{run_microbench, Engine, MicrobenchConfig};
use cam_nvme::spec::Opcode;
use cam_nvme::SsdModel;
use cam_simkit::Dur;
use cam_workloads::gemm::{model_gemm, GemmEngine};
use cam_workloads::gnn::{
    fig9_speedup, model_epoch, EpochBreakdown, GnnConfig, GnnModel, GnnSystem,
};
use cam_workloads::graph::GraphSpec;
use cam_workloads::sort::{model_sort, model_sort_read_gbps, SortEngine};

use cam_telemetry::json::Json;
use cam_telemetry::trace::{chrome_trace, validate_chrome_trace, TraceSummary};
use cam_telemetry::{Event, FlightRecorder};

use crate::paper::{Bound, Cell, Claim, Figure, Verdict};
use crate::table::{f1, f2, pct, Table};
use Bound::{Ordered, Range, Ratio, Within};
use Experiment::{Harness, Paper};

/// The `repro` flags the `bench` verb reads (every other verb reads none,
/// and runs its committed seed).
#[derive(Clone, Debug, Default)]
pub struct BenchParams {
    /// `--update-baselines`: `bench` rewrites the virtual-time transcript
    /// under `bench/baselines/` instead of gating against it.
    pub update_baselines: bool,
    /// `--metrics <path>`: where `bench` writes its instrumented run's
    /// metrics-registry snapshot, as JSON.
    pub metrics: Option<String>,
    /// `--trace <path>`: where `bench` writes its two-engine timeline, as
    /// Chrome trace-event JSON.
    pub trace: Option<String>,
}

/// What one experiment produced.
#[derive(Default)]
pub struct Outcome {
    /// The figure/table row data, printed by the CLI and written to
    /// [`BENCH_DOC`] under the verb's id.
    pub tables: Vec<Table>,
    /// Acceptance bars that failed, one line each. Always printed; with
    /// `--check` they make the exit code 1.
    pub failures: Vec<String>,
    /// `(path, contents)` of the files a flag asked the verb for; the CLI
    /// writes them, and a failed write exits 1.
    pub files: Vec<(String, String)>,
}

/// Records `what` as a failed acceptance bar unless `ok`.
pub(crate) fn require(failed: &mut Vec<String>, ok: bool, what: String) {
    if !ok {
        failed.push(what);
    }
}

/// The machine-readable results document, in the working directory:
/// [`bench_doc`] of the verbs one `repro` invocation ran, overwritten by
/// the next.
pub const BENCH_DOC: &str = "BENCH_repro.json";

/// The one document shape of the harness: `{"<verb>": [table, …]}`, each
/// table as [`Table::to_json`] writes it — what the CLI printed, in JSON
/// syntax (`docs/OBSERVABILITY.md`).
pub fn bench_doc(ran: &[(&str, Vec<Table>)]) -> Json {
    let tables = |tables: &Vec<Table>| Json::arr(tables.iter().map(Table::to_json));
    Json::obj(ran.iter().map(|(verb, t)| (*verb, tables(t))))
}

/// Exports a recorder timeline as Chrome-trace JSON and validates it: a
/// trace that fails its own validator is a failed bar, not an artifact.
fn checked_trace(
    name: &str,
    events: &[Event],
    rec: &FlightRecorder,
    failed: &mut Vec<String>,
) -> Option<(String, TraceSummary)> {
    let trace = chrome_trace(events, &rec.thread_names());
    let checked = validate_chrome_trace(&trace).map(|summary| (trace, summary));
    let failure = |e| failed.push(format!("{name} failed trace validation: {e}"));
    checked.map_err(failure).ok()
}

/// A [`checked_trace`], written to `path` when it validates.
fn write_trace(
    path: &str,
    events: &[Event],
    rec: &FlightRecorder,
    failed: &mut Vec<String>,
) -> Option<TraceSummary> {
    let (trace, summary) = checked_trace(path, events, rec, failed)?;
    if let Err(e) = std::fs::write(path, &trace) {
        eprintln!("warning: could not write {path}: {e}");
    }
    Some(summary)
}

/// A `repro` verb: a figure of the paper, or a repo-grown harness
/// experiment.
pub enum Experiment {
    /// A table or figure of the paper: rows plus claims. Its tables are a
    /// `fn() -> Vec<Table>`, so it reads no flag.
    Paper(Figure),
    /// `(id, description, generator)` of a harness experiment, which reads
    /// [`BenchParams`] and judges its own bars.
    Harness(&'static str, &'static str, fn(&BenchParams) -> Outcome),
}

impl Experiment {
    /// The verb.
    pub fn id(&self) -> &'static str {
        match self {
            Paper(f) => f.id,
            Harness(id, ..) => id,
        }
    }

    /// One line for `repro list`.
    pub fn desc(&self) -> &'static str {
        match self {
            Paper(f) => f.desc,
            Harness(_, desc, _) => desc,
        }
    }

    /// The paper figure behind the verb, if it is one.
    pub fn figure(&self) -> Option<&Figure> {
        match self {
            Paper(f) => Some(f),
            Harness(..) => None,
        }
    }

    /// Runs the verb. A figure's failed claims are its failed bars.
    pub fn run(&self, params: &BenchParams) -> Outcome {
        match self {
            Paper(f) => {
                let (tables, failures) = f.run();
                Outcome {
                    tables,
                    failures,
                    ..Outcome::default()
                }
            }
            Harness(.., generate) => generate(params),
        }
    }
}

/// Every paper figure, run: what [`experiments_md`](crate::paper::experiments_md)
/// renders.
pub fn run_figures() -> Vec<(&'static Figure, Vec<Table>)> {
    let figures = EXPERIMENTS.iter().filter_map(Experiment::figure);
    figures.map(|f| (f, f.run().0)).collect()
}

const fn ok(paper: &'static str, cell: Cell, bound: Bound) -> Claim {
    Claim {
        paper,
        cell,
        bound,
        verdict: Verdict::Reproduced,
    }
}

const fn deviation(paper: &'static str, cell: Cell, bound: Bound, why: &'static str) -> Claim {
    Claim {
        paper,
        cell,
        bound,
        verdict: Verdict::Deviation(why),
    }
}

const INF: f64 = f64::INFINITY;
const EXTRACT: &str = "feature extraction takes 40-65% of step time";
const TRAIN: &str = "training takes 16-44% of step time";
const IO_MAP: &str = "more than 34% of request time goes to io_map and LBA retrieval";
const IGB_GAINS_MORE: &str = "speedups on IGB-full exceed those on Paper100M";
const GAT_GAINS_MOST: &str = "on Paper100M, GAT gains most";
const SYNC_SAME: &str = "CAM-Sync achieves nearly the same performance as CAM-Async/SPDK";
const SPDK_DEGRADES: &str = "SPDK degrades when memory bandwidth is limited";
const CAM_UNAFFECTED: &str = "CAM is unaffected by the number of memory channels";
const LOC: &str = "CAM needs 66 / 510 / 130 lines for GNN / sort / GEMM";
const LOC_WHY: &str =
    "absolute counts differ: ours are library calls over one generic backend trait \
    (and include dataset generation and verification), the paper's are CUDA I/O core loops; the \
    programmability ordering (CAM below every baseline) holds";
const OURS: &str = "this repo's CAM example LoC";

/// Every experiment, in paper order — the paper's tables and figures with
/// their claims, then the harness experiments.
///
/// The single source of truth for the CLI verb list — the `repro` usage
/// text, `repro all`, `repro experiments` and the claim tests all derive
/// from this const, so a verb, and a claim of the paper, registers in
/// exactly one place.
pub static EXPERIMENTS: &[Experiment] = &[
    Paper(Figure {
        id: "tab1",
        desc: "Architectural design comparison",
        heading: "Table I",
        build: tab1,
        claims: &[],
        commentary: "Documentation table, reproduced verbatim.",
    }),
    Paper(Figure {
        id: "fig1",
        desc: "GIDS GNN training time breakdown (Paper100M)",
        heading: "Fig. 1",
        build: fig1,
        claims: &[
            ok(EXTRACT, (0, "GAT", "extract %"), Range(40.0, 65.0)),
            ok(EXTRACT, (0, "GRAPHSAGE", "extract %"), Range(40.0, 65.0)),
            deviation(
                EXTRACT,
                (0, "GCN", "extract %"),
                Within(65.0, 0.01),
                "GCN's light training step leaves extraction a hair above the paper's upper edge",
            ),
            ok(TRAIN, (0, "GCN", "train %"), Range(16.0, 44.0)),
            ok(TRAIN, (0, "GRAPHSAGE", "train %"), Range(16.0, 44.0)),
            deviation(
                TRAIN,
                (0, "GAT", "train %"),
                Range(44.0, 48.0),
                "a consequence of calibrating GAT to also satisfy Fig. 9's \"GAT gains most on \
                 Paper100M\"",
            ),
        ],
        commentary: "",
    }),
    Paper(Figure {
        id: "fig2",
        desc: "4KB random I/O throughput of software I/O stacks",
        heading: "Fig. 2",
        build: fig2,
        claims: &[
            ok(
                "reads: POSIX < libaio < io_uring (interrupt) < io_uring (poll)",
                (0, "POSIX I/O", "KIOPS"),
                Ordered(&[
                    (0, "libaio", "KIOPS"),
                    (0, "io_uring int", "KIOPS"),
                    (0, "io_uring poll", "KIOPS"),
                ]),
            ),
            deviation(
                "every stack stays visibly below the SSD maximum",
                (0, "io_uring poll", "KIOPS"),
                Within(427.3, 0.005),
                "our dashed line is the modelled achievable rate, so io_uring-poll touches it; the \
                 paper's spec-sheet line leaves all stacks below; ordering and magnitudes match",
            ),
            deviation(
                "writes: small gaps between the stacks",
                (1, "POSIX I/O", "KIOPS"),
                Ratio((1, "io_uring poll", "KIOPS"), 0.99, 1.0),
                "the P5510's write ceiling sits below every stack's submission rate in our model, \
                 collapsing the bars to the ceiling",
            ),
        ],
        commentary: "",
    }),
    Paper(Figure {
        id: "fig3",
        desc: "Read/write I/O time breakdown of software I/O stacks",
        heading: "Fig. 3",
        build: fig3,
        claims: &[
            ok(IO_MAP, (0, "POSIX I/O", "fs+io_map %"), Range(34.0, INF)),
            ok(IO_MAP, (1, "POSIX I/O", "fs+io_map %"), Range(34.0, INF)),
        ],
        commentary: "POSIX I/O has the smallest filesystem + io_map share of the four kernel \
            stacks and the highest cost per request; SPDK and CAM have no kernel layers at all.",
    }),
    Paper(Figure {
        id: "fig4",
        desc: "A100 SM utilization for BaM to saturate N SSDs",
        heading: "Fig. 4",
        build: fig4,
        claims: &[
            ok(
                "beyond five SSDs BaM engages nearly all (100%) of the available SMs",
                (0, "6", "SM utilization"),
                Within(100.0, 0.01),
            ),
            ok(
                "CAM occupies 0 SMs for I/O control",
                (0, "12", "CAM (for reference)"),
                Range(0.0, 0.0),
            ),
        ],
        commentary: "",
    }),
    Paper(Figure {
        id: "tab3",
        desc: "Experimental platform",
        heading: "Table III",
        build: tab3,
        claims: &[],
        commentary: "Constants carried in code (`CpuModel`, `MemoryModel`, `GpuSpec::a100_80g`, \
            `SsdModel::p5510`).",
    }),
    Paper(Figure {
        id: "tab4",
        desc: "Real-world datasets",
        heading: "Table IV",
        build: tab4,
        claims: &[
            ok("Paper100M features: 56 GB", (0, "Paper100M", "feature size"), Within(56.0, 0.02)),
            ok(
                "IGB-full features: 1.1 TB (1100 GB)",
                (0, "IGB-full", "feature size"),
                Within(1100.0, 0.01),
            ),
        ],
        commentary: "",
    }),
    Paper(Figure {
        id: "tab5",
        desc: "GNN experiment configuration",
        heading: "Table V",
        build: tab5,
        claims: &[],
        commentary: "Constants carried in `GnnConfig::default`.",
    }),
    Paper(Figure {
        id: "fig8",
        desc: "I/O throughput: CAM vs BaM, SPDK, POSIX",
        heading: "Fig. 8",
        build: fig8,
        claims: &[
            ok("CAM is capable of achieving 20 GB/s", (0, "12", "CAM"), Within(20.0, 0.05)),
            ok("CAM matches SPDK", (0, "12", "CAM"), Ratio((0, "12", "SPDK"), 0.97, 1.03)),
            ok("CAM matches BaM", (0, "12", "CAM"), Ratio((0, "12", "BaM"), 0.97, 1.03)),
            ok(
                "POSIX I/O, on one core, is an order of magnitude behind",
                (0, "12", "CAM"),
                Ratio((0, "12", "POSIX I/O"), 10.0, INF),
            ),
            ok(
                "12 SSDs sustain about 8 GB/s of 4KB random writes",
                (1, "12", "CAM"),
                Within(8.0, 0.05),
            ),
            ok(
                "read throughput rises with access granularity",
                (2, "512 B", "CAM"),
                Ordered(&[(2, "1024 B", "CAM"), (2, "4096 B", "CAM")]),
            ),
            ok(
                "large writes reach the 21 GB/s PCIe ceiling",
                (3, "16384 B", "CAM"),
                Within(21.0, 0.03),
            ),
        ],
        commentary: "(a)/(c) scale with the SSD count until the PCIe ceiling (reads) or the \
            device write rate; (b)/(d) rise with granularity, POSIX I/O closing the gap only at \
            128 KiB.",
    }),
    Paper(Figure {
        id: "fig9",
        desc: "GNN training epoch time: CAM vs GIDS",
        heading: "Fig. 9",
        build: fig9,
        claims: &[
            ok(
                "CAM is up to 1.84x faster than GIDS",
                (1, "GRAPHSAGE", "speedup"),
                Within(1.84, 0.03),
            ),
            ok(IGB_GAINS_MORE, (0, "GCN", "speedup"), Ordered(&[(1, "GCN", "speedup")])),
            ok(IGB_GAINS_MORE, (0, "GAT", "speedup"), Ordered(&[(1, "GAT", "speedup")])),
            ok(
                IGB_GAINS_MORE,
                (0, "GRAPHSAGE", "speedup"),
                Ordered(&[(1, "GRAPHSAGE", "speedup")]),
            ),
            ok(GAT_GAINS_MOST, (0, "GCN", "speedup"), Ordered(&[(0, "GAT", "speedup")])),
            ok(GAT_GAINS_MOST, (0, "GRAPHSAGE", "speedup"), Ordered(&[(0, "GAT", "speedup")])),
        ],
        commentary: "GAT gains most on Paper100M because its compute hides more of the I/O.",
    }),
    Paper(Figure {
        id: "fig10",
        desc: "Sort and GEMM end-to-end comparison",
        heading: "Fig. 10",
        build: fig10,
        claims: &[
            ok(
                "sort: CAM is up to 1.5x faster than POSIX I/O",
                (0, "POSIX I/O", "vs CAM"),
                Within(1.5, 0.03),
            ),
            ok("sort: CAM performs like SPDK (1x)", (0, "SPDK", "vs CAM"), Within(1.0, 0.03)),
            ok(
                "GEMM: CAM is up to 1.84x faster than BaM",
                (1, "BaM", "vs CAM"),
                Within(1.84, 0.03),
            ),
            ok(
                "GEMM: GDS only reaches 0.8 GB/s with 12 SSDs",
                (1, "GDS", "I/O GB/s"),
                Within(0.8, 0.05),
            ),
            deviation(
                "GEMM: CAM reads at nearly 20 GB/s",
                (1, "CAM", "I/O GB/s"),
                Range(18.0, 18.5),
                "our GEMM step is marginally compute-bound (the tile multiply outlasts the tile \
                 read, plus a pipeline bubble), so the delivered I/O rate sits below the array's",
            ),
            deviation(
                "absolute seconds on the authors' testbed",
                (0, "CAM", "time s"),
                Within(24.0, 0.02),
                "the substrate is a simulator, so absolute times everywhere are the model's; this \
                 one is pinned so that a model change shows up, and only ratios are compared with \
                 the paper",
            ),
        ],
        commentary: "",
    }),
    Paper(Figure {
        id: "tab6",
        desc: "Lines of code in real-world applications",
        heading: "Table VI",
        build: tab6,
        claims: &[
            deviation(
                LOC,
                (0, "GNN training", OURS),
                Ordered(&[(0, "GNN training", "paper CAM LoC")]),
                LOC_WHY,
            ),
            deviation(LOC, (0, "Sort", OURS), Ordered(&[(0, "Sort", "paper CAM LoC")]), LOC_WHY),
            deviation(LOC, (0, "GEMM", OURS), Ordered(&[(0, "GEMM", "paper CAM LoC")]), LOC_WHY),
        ],
        commentary: "Meaningful lines, counted at build time from `examples/`.",
    }),
    Paper(Figure {
        id: "fig11",
        desc: "CAM-Sync vs CAM-Async vs SPDK (sort)",
        heading: "Fig. 11",
        build: fig11,
        claims: &[
            ok(SYNC_SAME, (0, "12", "CAM-Sync"), Ratio((0, "12", "CAM-Async"), 0.97, 1.0)),
            ok(SYNC_SAME, (1, "16 Gi", "CAM-Sync"), Ratio((1, "16 Gi", "CAM-Async"), 1.0, 1.03)),
        ],
        commentary: "",
    }),
    Paper(Figure {
        id: "fig12",
        desc: "One CPU thread controlling multiple SSDs",
        heading: "Fig. 12",
        build: fig12,
        claims: &[
            ok(
                "one thread drives 2 SSDs at no cost (100%)",
                (0, "6", "vs 12 threads"),
                Within(100.0, 0.01),
            ),
            ok(
                "one thread driving 4 SSDs keeps about 75%",
                (0, "3", "vs 12 threads"),
                Within(75.0, 0.05),
            ),
        ],
        commentary: "Writes are device-bound and degrade later than reads.",
    }),
    Paper(Figure {
        id: "fig13",
        desc: "CPU instructions/cycles per request",
        heading: "Fig. 13",
        build: fig13,
        claims: &[
            ok(
                "reads: CAM and SPDK execute fewer instructions than libaio",
                (0, "SPDK", "instructions"),
                Ordered(&[(0, "CAM", "instructions"), (0, "libaio", "instructions")]),
            ),
            ok(
                "reads: and far fewer cycles",
                (0, "libaio", "cycles"),
                Ratio((0, "CAM", "cycles"), 5.0, INF),
            ),
            ok(
                "writes: slightly fewer instructions but significantly fewer cycles",
                (1, "CAM", "instructions"),
                Ordered(&[(1, "libaio", "instructions")]),
            ),
            ok("polling runs at a high IPC", (0, "libaio", "IPC"), Ordered(&[(0, "CAM", "IPC")])),
        ],
        commentary: "",
    }),
    Paper(Figure {
        id: "fig14",
        desc: "CPU memory bandwidth usage vs SSD bandwidth",
        heading: "Fig. 14",
        build: fig14,
        claims: &[
            ok(
                "SPDK's memory traffic is about 2x the SSD bandwidth",
                (0, "12", "SPDK mem GB/s"),
                Ratio((0, "12", "SSD GB/s"), 1.9, 2.1),
            ),
            ok(
                "CAM's grows much slower (queue entries only)",
                (0, "12", "CAM mem GB/s"),
                Ratio((0, "12", "SSD GB/s"), -INF, 0.05),
            ),
        ],
        commentary: "",
    }),
    Paper(Figure {
        id: "fig15",
        desc: "Throughput at 2 vs 16 memory channels",
        heading: "Fig. 15",
        build: fig15,
        claims: &[
            ok(SPDK_DEGRADES, (0, "SPDK", "2 channels"), Ordered(&[(0, "SPDK", "16 channels")])),
            ok(SPDK_DEGRADES, (1, "SPDK", "2 channels"), Ordered(&[(1, "SPDK", "16 channels")])),
            ok(
                CAM_UNAFFECTED,
                (0, "CAM", "2 channels"),
                Ratio((0, "CAM", "16 channels"), 0.99, 1.01),
            ),
            ok(
                CAM_UNAFFECTED,
                (1, "CAM", "2 channels"),
                Ratio((1, "CAM", "16 channels"), 0.99, 1.01),
            ),
        ],
        commentary: "",
    }),
    Paper(Figure {
        id: "fig16",
        desc: "SPDK staging throughput vs access granularity",
        heading: "Fig. 16",
        build: fig16,
        claims: &[
            ok("at 4KB the staged path delivers 1.3 GB/s", (0, "4 KB", "SPDK"), Within(1.3, 0.05)),
            ok(
                "93.5% lower than CAM",
                (0, "4 KB", "SPDK"),
                Ratio((0, "4 KB", "CAM"), 0.061, 0.069),
            ),
        ],
        commentary: "The staged path recovers with granularity; CAM is unaffected by the \
            destination layout.",
    }),
    Paper(Figure {
        id: "issue2",
        desc: "ANNS: cudaMemcpyAsync share of staged-path time",
        heading: "Issue 2 (§ II-A)",
        build: issue2,
        claims: &[ok(
            "cudaMemcpyAsync costs 78% of the total time at 4KB",
            (0, "4096 B", "copy share"),
            Within(78.0, 0.02),
        )],
        commentary: "The copy \"can not be overlapped by computation\"; CAM's direct path pays \
            none of it.",
    }),
    Paper(Figure {
        id: "motiv",
        desc: "Section II motivation: DLRM / LLM-offload baselines",
        heading: "§ II",
        build: motiv,
        claims: &[
            ok(
                "TorchRec spends 75% of each iteration on embedding access, at ~64% bandwidth",
                (0, "DLRM (TorchRec-style)", "I/O phase share"),
                Within(75.0, 0.01),
            ),
            ok(
                "ZeRO-Infinity spends >80% of time in the update phase, at ~70% bandwidth",
                (0, "LLM 100B (ZeRO-Infinity-style)", "I/O phase share"),
                Range(80.0, INF),
            ),
        ],
        commentary: "",
    }),
    Harness(
        "bench",
        "Functional-engine telemetry benchmark + DES perf trajectory gated against bench/baselines",
        bench,
    ),
    Harness(
        "cache",
        "GPU-memory block cache: hit rate / NVMe-submission sweep (writes cache_trace.json)",
        cache,
    ),
    Harness(
        "fidelity",
        "Model fidelity: DES driver vs functional driver on a matched workload, pipelined vs blocking (writes fidelity_trace.json)",
        fidelity,
    ),
    Harness(
        "slo",
        "SLO burn and lane health under a transient overload, threaded vs DES driver",
        slo,
    ),
    Harness(
        "serve",
        "Multi-tenant KV-cache serving: admission, DRR fairness, per-tenant SLO",
        crate::serving_run::serve,
    ),
];

/// A table from its rows.
fn table(
    title: impl Into<String>,
    headers: &[&str],
    rows: impl IntoIterator<Item = Vec<String>>,
) -> Table {
    let mut t = Table::new(title, headers);
    for row in rows {
        t.row(row);
    }
    t
}

/// A table of fixed text.
fn listing<const N: usize>(title: &str, headers: [&str; N], rows: &[[&str; N]]) -> Table {
    let rows = rows
        .iter()
        .map(|r| r.iter().map(|c| c.to_string()).collect());
    table(title, &headers, rows)
}

/// A table as rows × columns × a cell function; the first column holds the
/// row labels under the header `corner`.
fn sweep<R, C>(
    title: impl Into<String>,
    corner: &str,
    rows: &[(String, R)],
    cols: &[(&str, C)],
    cell: impl Fn(&R, &C) -> String,
) -> Table {
    let mut headers = vec![corner];
    headers.extend(cols.iter().map(|(h, _)| *h));
    let rows = rows.iter().map(|(label, r)| {
        let mut row = vec![label.clone()];
        row.extend(cols.iter().map(|(_, c)| cell(r, c)));
        row
    });
    table(title, &headers, rows)
}

/// Sweep rows (or columns) labelled by their own value.
fn labelled<T: Copy + ToString>(values: &[T]) -> Vec<(String, T)> {
    values.iter().map(|&v| (v.to_string(), v)).collect()
}

/// A column that formats one field of the row's record.
type Field<R> = fn(&R) -> String;

/// Delivered GB/s of one DES microbenchmark: `engine` on `n_ssds` SSDs,
/// with `tune` applied to [`MicrobenchConfig::new`]'s defaults.
fn gbps(
    engine: Engine,
    n_ssds: usize,
    dir: IoDir,
    tune: impl FnOnce(&mut MicrobenchConfig),
) -> f64 {
    let mut cfg = MicrobenchConfig::new(engine, n_ssds, dir);
    tune(&mut cfg);
    run_microbench(cfg).gbps
}

const DIRS: [(IoDir, Opcode); 2] = [(IoDir::Read, Opcode::Read), (IoDir::Write, Opcode::Write)];

fn tab1() -> Vec<Table> {
    vec![listing(
        "Table I: Architectural design comparison",
        ["system", "initiated by", "control plane", "data plane"],
        &[
            [
                "POSIX I/O",
                "CPU",
                "CPU OS kernel",
                "SSD - CPU memory - GPU memory",
            ],
            ["BaM", "GPU", "GPU user I/O queue", "SSD - GPU memory"],
            ["CAM", "GPU", "CPU user I/O queue", "SSD - GPU memory"],
        ],
    )]
}

fn fig1() -> Vec<Table> {
    let (spec, cfg) = (GraphSpec::paper100m(), GnnConfig::default());
    let steps: Vec<_> = GnnModel::ALL
        .iter()
        .map(|&m| {
            (
                m.name().to_string(),
                model_epoch(GnnSystem::Gids, &spec, m, &cfg, 12),
            )
        })
        .collect();
    let cols: [(&str, Field<EpochBreakdown>); 5] = [
        ("sample ms", |b| f1(b.sample.as_secs_f64() * 1e3)),
        ("extract ms", |b| f1(b.extract.as_secs_f64() * 1e3)),
        ("train ms", |b| f1(b.train.as_secs_f64() * 1e3)),
        ("extract %", |b| pct(b.extract_fraction())),
        ("train %", |b| pct(b.train_fraction())),
    ];
    let title = "Fig. 1: GIDS (BaM-based) step breakdown, Paper100M, 12 SSDs";
    vec![sweep(title, "model", &steps, &cols, |b, col| col(b))]
}

fn fig2() -> Vec<Table> {
    let m = SsdModel::p5510();
    let stacks = [
        Engine::Posix,
        Engine::Libaio,
        Engine::IoUringInt,
        Engine::IoUringPoll,
    ]
    .map(|e| (e.name().to_string(), e));
    let subs = ["(a) 4KB random read", "(b) 4KB random write"];
    let fig = |(label, (dir, op))| {
        let title = format!("Fig. 2{label}, single P5510, KIOPS");
        let mut t = sweep(title, "stack", &stacks, &[("KIOPS", ())], |&e, _| {
            let mut cfg = MicrobenchConfig::new(e, 1, dir);
            cfg.requests = 8_000;
            f1(run_microbench(cfg).kiops)
        });
        let max = m.peak_iops_4k(op) / 1e3;
        t.note(format!("SSD maximum (dashed line): {max:.1} KIOPS"));
        t
    };
    subs.into_iter().zip(DIRS).map(fig).collect()
}

fn fig3() -> Vec<Table> {
    let cols: [(&str, Field<LayerCosts>); 5] = [
        ("user ns", |c| c.user.as_ns().to_string()),
        ("filesystem ns", |c| c.filesystem.as_ns().to_string()),
        ("io_map ns", |c| c.io_map.as_ns().to_string()),
        ("block I/O ns", |c| c.block_io.as_ns().to_string()),
        ("fs+io_map %", |c| pct(c.avoidable_fraction())),
    ];
    let stacks = [
        IoStackKind::Posix,
        IoStackKind::Libaio,
        IoStackKind::IoUringInt,
        IoStackKind::IoUringPoll,
    ];
    let fig = |(dir, _)| {
        let costs = stacks.map(|s| (s.name().to_string(), s.layer_costs(dir)));
        let title = format!("Fig. 3: per-request time by layer, {dir:?}");
        sweep(title, "stack", &costs, &cols, |c, col| col(c))
    };
    DIRS.into_iter().map(fig).collect()
}

fn fig4() -> Vec<Table> {
    let g = GpuSpec::a100_80g();
    let cols = [("SM utilization", true), ("CAM (for reference)", false)];
    let ssds: Vec<u32> = (1..=12).collect();
    let title = "Fig. 4: A100 SM utilization for BaM to saturate N SSDs";
    vec![sweep(title, "SSDs", &labelled(&ssds), &cols, |&n, &bam| {
        pct(if bam { g.bam_sm_utilization(n) } else { 0.0 })
    })]
}

fn tab3() -> Vec<Table> {
    vec![listing(
        "Table III: Experimental platform (simulated)",
        ["component", "specification"],
        &[
            [
                "CPU",
                "Intel Xeon Gold 5320 (2 x 52 threads) @ 2.20 GHz [CpuModel]",
            ],
            ["CPU memory", "768 GB, 16 DDR4-3200 channels [MemoryModel]"],
            [
                "GPU",
                "80GB-PCIe-A100: 108 SMs, 2048 thr/SM [GpuSpec::a100_80g]",
            ],
            ["SSD", "12 x 3.84TB Intel P5510 [SsdModel::p5510]"],
            ["PCIe", "Gen4 x16, 21 GB/s measured ceiling"],
            [
                "S/W",
                "this reproduction: simulated NVMe/GPU substrate in Rust",
            ],
        ],
    )]
}

fn tab4() -> Vec<Table> {
    let specs = [GraphSpec::paper100m(), GraphSpec::igb_full()].map(|s| (s.name.to_string(), s));
    let cols: [(&str, Field<GraphSpec>); 4] = [
        ("nodes", |s| s.nodes.to_string()),
        ("edges", |s| s.edges.to_string()),
        ("feature dim", |s| s.feature_dim.to_string()),
        ("feature size", |s| {
            format!("{:.1} GB", s.feature_store_bytes() as f64 / 1e9)
        }),
    ];
    let mut t = sweep("Table IV: Datasets", "dataset", &specs, &cols, |s, col| {
        col(s)
    });
    t.note("synthetic scale-downs preserve avg degree, skew, and record size");
    vec![t]
}

fn tab5() -> Vec<Table> {
    let cfg = GnnConfig::default();
    let fanouts = format!("{}, {}", cfg.fanouts[0], cfg.fanouts[1]);
    vec![listing(
        "Table V: GNN experiment configuration",
        ["parameter", "setting"],
        &[
            ["GNN task", "node classification"],
            ["sampling method", "2-hop random neighbor sampling"],
            ["sampling fan-outs", &fanouts],
            ["hidden layer dimension", &cfg.hidden_dim.to_string()],
            ["batch size", &cfg.batch_size.to_string()],
        ],
    )]
}

fn fig8() -> Vec<Table> {
    let engines = [Engine::Cam, Engine::Spdk, Engine::Bam, Engine::Posix].map(|e| (e.name(), e));
    let mut out = Vec::new();
    // (a)/(c): 4 KiB throughput vs number of SSDs.
    for (sub, dir) in [("(a)", IoDir::Read), ("(c)", IoDir::Write)] {
        let title = format!("Fig. 8{sub}: 4KB random {dir:?} GB/s vs SSD count");
        let ssds = labelled(&[1usize, 2, 4, 8, 12]);
        out.push(sweep(title, "SSDs", &ssds, &engines, |&n, &e| {
            f2(gbps(e, n, dir, |c| c.requests = (n as u64) * 6_000))
        }));
    }
    // (b)/(d): throughput vs access granularity at 12 SSDs.
    for (sub, dir) in [("(b)", IoDir::Read), ("(d)", IoDir::Write)] {
        let title = format!("Fig. 8{sub}: {dir:?} GB/s vs granularity, 12 SSDs");
        let grans =
            [9u32, 10, 12, 14, 17].map(|shift| (format!("{} B", 1u64 << shift), 1u64 << shift));
        out.push(sweep(
            title,
            "granularity",
            &grans,
            &engines,
            |&gran, &e| {
                f2(gbps(e, 12, dir, |c| {
                    c.granularity = gran;
                    c.requests = 12 * 1_500;
                }))
            },
        ));
    }
    out
}

fn fig9() -> Vec<Table> {
    let cfg = GnnConfig::default();
    let fig = |spec: GraphSpec| {
        let secs = |system, m| {
            model_epoch(system, &spec, m, &cfg, 12)
                .epoch()
                .as_secs_f64()
        };
        let rows = GnnModel::ALL.map(|m| {
            let speedup = format!("{:.2}x", fig9_speedup(&spec, m, &cfg, 12));
            vec![
                m.name().into(),
                f1(secs(GnnSystem::Gids, m)),
                f1(secs(GnnSystem::Cam, m)),
                speedup,
            ]
        });
        let title = format!("Fig. 9: GNN epoch time on {}, 12 SSDs", spec.name);
        table(
            title,
            &["model", "GIDS s/epoch", "CAM s/epoch", "speedup"],
            rows,
        )
    };
    [GraphSpec::paper100m(), GraphSpec::igb_full()]
        .map(fig)
        .into()
}

fn fig10() -> Vec<Table> {
    let sort = |e| model_sort(e, 8 << 30, 12).as_secs_f64();
    let cam = sort(SortEngine::CamSync);
    let systems = [
        ("CAM", SortEngine::CamSync),
        ("SPDK", SortEngine::Spdk),
        ("POSIX I/O", SortEngine::Posix),
    ];
    let a = table(
        "Fig. 10(a): mergesort time, 8Gi int32 (32 GB), 12 SSDs",
        &["system", "time s", "vs CAM"],
        systems.map(|(name, e)| {
            let secs = sort(e);
            vec![name.into(), f1(secs), format!("{:.2}x", secs / cam)]
        }),
    );
    let gemm = |e| model_gemm(e, 65_536, 4_096, 12);
    let cam = gemm(GemmEngine::Cam).time.as_secs_f64();
    let systems = [
        ("CAM", GemmEngine::Cam),
        ("BaM", GemmEngine::Bam),
        ("GDS", GemmEngine::Gds),
        ("SPDK", GemmEngine::Spdk),
    ];
    let bc = table(
        "Fig. 10(b,c): GEMM 65536^2 f32, 4096^2 tiles, 12 SSDs",
        &["system", "I/O GB/s", "time s", "vs CAM"],
        systems.map(|(name, e)| {
            let r = gemm(e);
            let secs = r.time.as_secs_f64();
            vec![
                name.into(),
                f2(r.io_gbps),
                f1(secs),
                format!("{:.2}x", secs / cam),
            ]
        }),
    );
    vec![a, bc]
}

fn tab6() -> Vec<Table> {
    let loc = |src| crate::count_loc(src).to_string();
    let gnn = loc(include_str!("../../../examples/gnn_training.rs"));
    let sort = loc(include_str!("../../../examples/out_of_core_sort.rs"));
    let gemm = loc(include_str!("../../../examples/out_of_core_gemm.rs"));
    let mut t = listing(
        "Table VI: lines of code per workload",
        [
            "workload",
            "paper baseline LoC",
            "paper CAM LoC",
            "this repo's CAM example LoC",
        ],
        &[
            ["GNN training", "BaM: 65", "66", &gnn],
            ["Sort", "POSIX: 644", "510", &sort],
            ["GEMM", "GDS: 158 / BaM: 165", "130", &gemm],
        ],
    );
    t.note("our examples include dataset generation and verification; the paper counts only the I/O core loop");
    vec![t]
}

fn fig11() -> Vec<Table> {
    let engines = [
        ("SPDK", SortEngine::Spdk),
        ("CAM-Async", SortEngine::CamAsync),
        ("CAM-Sync", SortEngine::CamSync),
    ];
    let title = "Fig. 11(a): sort-phase read throughput GB/s vs SSD count";
    let a = sweep(
        title,
        "SSDs",
        &labelled(&[2usize, 4, 8, 12]),
        &engines,
        |&n, &e| f2(model_sort_read_gbps(e, n)),
    );
    let title = "Fig. 11(b): sort execution time (s) vs dataset size, 12 SSDs";
    let sizes = [2u64, 4, 8, 16].map(|gi| (format!("{gi} Gi"), gi << 30));
    let b = sweep(title, "elements", &sizes, &engines, |&elems, &e| {
        f1(model_sort(e, elems, 12).as_secs_f64())
    });
    vec![a, b]
}

fn fig12() -> Vec<Table> {
    let fig = |(dir, _)| {
        let threads = [12usize, 6, 4, 3, 2, 1];
        let rates = threads.map(|threads| {
            gbps(Engine::Cam, 12, dir, |c| {
                c.cam_threads = threads;
                c.requests = 12 * 6_000;
            })
        });
        let rows = threads.iter().zip(rates).map(|(&threads, g)| {
            let per_thread = format!("{:.0}", 12.0 / threads as f64);
            vec![threads.to_string(), per_thread, f2(g), pct(g / rates[0])]
        });
        let title = format!("Fig. 12: {dir:?} GB/s, 12 SSDs, varying threads");
        table(
            title,
            &["threads", "SSDs/thread", "GB/s", "vs 12 threads"],
            rows,
        )
    };
    DIRS.into_iter().map(fig).collect()
}

fn fig13() -> Vec<Table> {
    let (cpu, m) = (CpuModel::xeon_gold_5320(), SsdModel::p5510());
    let cols: [(&str, Field<PerfCounts>); 3] = [
        ("instructions", |c| c.instructions.to_string()),
        ("cycles", |c| c.cycles.to_string()),
        ("IPC", |c| f2(c.instructions as f64 / c.cycles as f64)),
    ];
    let fig = |(dir, op)| {
        let costs = [IoStackKind::Cam, IoStackKind::Spdk, IoStackKind::Libaio].map(|stack| {
            let rate = stack.max_rate_per_core(dir).min(m.peak_iops_4k(op));
            (stack.name().to_string(), cpu.per_request(stack, dir, rate))
        });
        let title = format!("Fig. 13: CPU cost per 4KB {dir:?} request");
        sweep(title, "stack", &costs, &cols, |c, col| col(c))
    };
    DIRS.into_iter().map(fig).collect()
}

fn fig14() -> Vec<Table> {
    let mem = MemoryModel::xeon_16ch();
    let rows = [1usize, 2, 4, 8, 12].map(|n| {
        let ssd = gbps(Engine::Cam, n, IoDir::Read, |c| {
            c.requests = (n as u64) * 4_000
        });
        let (spdk, cam) = (mem.traffic_gbps(ssd, true), mem.traffic_gbps(ssd, false));
        vec![n.to_string(), f2(ssd), f2(spdk), f2(cam)]
    });
    let title = "Fig. 14: CPU memory traffic (GB/s) vs delivered SSD bandwidth";
    vec![table(
        title,
        &["SSDs", "SSD GB/s", "SPDK mem GB/s", "CAM mem GB/s"],
        rows,
    )]
}

fn fig15() -> Vec<Table> {
    let systems = [Engine::Spdk, Engine::Cam].map(|e| (e.name().to_string(), e));
    let fig = |(dir, _)| {
        let title = format!("Fig. 15: {dir:?} GB/s at limited memory channels, 12 SSDs");
        let cols = [("2 channels", 2u32), ("16 channels", 16)];
        sweep(title, "system", &systems, &cols, |&e, &channels| {
            f2(gbps(e, 12, dir, |c| {
                c.mem_channels = channels;
                c.requests = 12 * 4_000;
            }))
        })
    };
    DIRS.into_iter().map(fig).collect()
}

fn fig16() -> Vec<Table> {
    let sizes = [
        ("4 KB", (4u64 << 10, 24_000u64)),
        ("64 KB", (64 << 10, 12_000)),
        ("1 MB", (1 << 20, 2_400)),
        ("16 MB", (16 << 20, 600)),
        ("128 MB", (128 << 20, 240)),
    ]
    .map(|(label, run)| (label.to_string(), run));
    let title = "Fig. 16: staged (SPDK) GB/s vs granularity, non-contiguous destination, 12 SSDs";
    let cols = [("SPDK", Engine::Spdk), ("CAM", Engine::Cam)];
    vec![sweep(
        title,
        "granularity",
        &sizes,
        &cols,
        |&(gran, reqs), &e| {
            f2(gbps(e, 12, IoDir::Read, |c| match e {
                Engine::Spdk => {
                    c.granularity = gran;
                    c.requests = reqs;
                    c.noncontig_dest = true;
                }
                _ => {
                    c.granularity = gran.min(1 << 20); // CAM scatters at block granularity
                    c.requests = reqs.max(2_400);
                }
            }))
        },
    )]
}

fn issue2() -> Vec<Table> {
    let grans = [4u64 << 10, 16 << 10, 64 << 10, 1 << 20, 16 << 20].map(|g| (format!("{g} B"), g));
    let title = "Issue 2 (§ II-A): cudaMemcpyAsync share of staged ANNS time, 12 SSDs";
    vec![sweep(
        title,
        "granularity",
        &grans,
        &[("copy share", ())],
        |&gran, _| pct(cam_workloads::anns::staged_copy_fraction(gran, 12)),
    )]
}

fn motiv() -> Vec<Table> {
    use cam_workloads::dlrm::{model_iteration, DlrmSystem};
    use cam_workloads::llm::{model_step, LlmSystem};
    let dlrm = |system| model_iteration(system, 4096, 26, 20, 128, 12);
    let (d_base, d_cam) = (dlrm(DlrmSystem::TorchRec), dlrm(DlrmSystem::Cam).iteration);
    let (l_base, l_cam) = (
        model_step(LlmSystem::ZeroInfinity, 100.0, 12),
        model_step(LlmSystem::Cam, 100.0, 12).step,
    );
    let speedup = |base: Dur, cam: Dur| format!("{:.2}x", base.as_ns() as f64 / cam.as_ns() as f64);
    let ms = |d: Dur| format!("{:.1} ms/iter", d.as_secs_f64() * 1e3);
    let s = |d: Dur| format!("{:.1} s/step", d.as_secs_f64());
    vec![table(
        "Section II motivation: storage-bound training baselines, 12 SSDs",
        &[
            "system",
            "I/O phase share",
            "baseline time",
            "CAM time",
            "speedup",
        ],
        [
            vec![
                "DLRM (TorchRec-style)".into(),
                pct(d_base.embedding_fraction()),
                ms(d_base.iteration),
                ms(d_cam),
                speedup(d_base.iteration, d_cam),
            ],
            vec![
                "LLM 100B (ZeRO-Infinity-style)".into(),
                pct(l_base.update_fraction()),
                s(l_base.step),
                s(l_cam),
                speedup(l_base.step, l_cam),
            ],
        ],
    )]
}

fn bench(p: &BenchParams) -> Outcome {
    use crate::telemetry_run::{bars, record_des_microbench, run_recorded};
    use crate::trajectory_run::{run_cached_trajectory, run_gate, run_trajectory};
    use cam_telemetry::{attribution, Stage};
    use std::sync::Arc;

    let rec = Arc::new(FlightRecorder::new());
    let run = run_recorded(20, 64, Some(Arc::clone(&rec)));
    let threaded = attribution::analyze(&run.events);
    let mut failures = bars(&run, &threaded);
    let mut files = Vec::new();
    if let Some(path) = &p.metrics {
        files.push((path.clone(), format!("{:#}", run.snapshot.to_json())));
    }

    // The perf trajectory: seeded multi-trial DES runs, and the gate of
    // every exact pin of virtual time against the committed transcript.
    let model = SsdModel::p5510();
    let uncached = run_trajectory(model);
    let cached = run_cached_trajectory(model);
    let gate = run_gate(&uncached, &cached, p.update_baselines, &mut failures);

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
        "{} requests in {:.2} ms: {} GB/s, {} K IOPS",
        run.requests,
        run.elapsed_ns as f64 / 1e6,
        f2(run.gbps()),
        f1(run.kiops()),
    ));
    // The run's timeline, then a small DES run's: both engines, one trace.
    record_des_microbench(&rec);
    let name = "the two-engine trace";
    if let Some((trace, summary)) = checked_trace(name, &rec.snapshot(), &rec, &mut failures) {
        let processes = summary.processes;
        let spans = format!("{name} spans {processes} processes, not 2");
        require(&mut failures, processes == 2, spans);
        t.note(format!(
            "two-engine trace valid: {} events, {} async spans, {} tracks across {processes} \
             processes ({} batches retired)",
            summary.events,
            summary.async_begin,
            summary.named_tracks.len(),
            run.snapshot.counter("cam_batches_total"),
        ));
        files.extend(p.trace.clone().map(|path| (path, trace)));
    }

    let mut tables = vec![
        t,
        decomposition("threaded", &threaded, &mut failures),
        decomposition("des", &uncached.attributed, &mut failures),
    ];
    tables[2].note(
        "n/a components are structurally absent from the DES timeline \
         (doorbell/pickup coincide in virtual time; retire follows the last \
         completion instantly); dispatch and lane_wait are charged by the \
         calibrated CPU pipe (see `repro calibrate`)",
    );
    tables.push(gate);
    Outcome {
        tables,
        failures,
        files,
    }
}

/// The mean + p99-tail decomposition of one driver's attributed batches,
/// and `bench`'s closure bar: every batch's components sum to its
/// doorbell→retire total.
fn decomposition(
    driver: &str,
    batches: &[cam_telemetry::attribution::BatchAttribution],
    failed: &mut Vec<String>,
) -> Table {
    use cam_telemetry::attribution::{component_name, decompose};
    use cam_telemetry::Stage;

    let open = (batches.iter())
        .filter(|b| b.stage_ns.iter().sum::<u64>() != b.total_ns)
        .count();
    require(
        failed,
        open == 0,
        format!(
            "{open} of {} {driver} batches do not close: components must sum to doorbell->retire",
            batches.len()
        ),
    );
    let mut headers = vec!["row"];
    headers.extend(Stage::ALL.map(component_name));
    headers.extend(["total", "dominant"]);
    let mut t = Table::new(
        format!(
            "Latency attribution ({driver}): doorbell->retire along the gating group, ns/batch"
        ),
        &headers,
    );
    let Some(d) = decompose(batches) else {
        failed.push(format!("no {driver} batch attributed"));
        return t;
    };
    let rows = [
        ("mean", d.mean_ns, d.mean_total_ns, d.dominant_mean()),
        (
            "p99 tail",
            d.tail_mean_ns,
            d.tail_mean_total_ns,
            d.dominant_tail(),
        ),
    ];
    for (label, vals, total, dominant) in rows {
        let mut r = vec![label.to_string()];
        r.extend(Stage::ALL.iter().map(|s| {
            if d.present[s.index()] {
                format!("{:.0}", vals[s.index()])
            } else {
                "n/a".into()
            }
        }));
        r.extend([format!("{total:.0}"), component_name(dominant).into()]);
        t.row(r);
    }
    t.note(format!(
        "{} batches, p99 total {} ns, {} tail batches; the p99-tail row averages \
         the batches at or above the p99",
        d.batches, d.p99_total_ns, d.tail_batches
    ));
    t
}

fn slo(_p: &BenchParams) -> Outcome {
    use crate::health_run::{bars, run_health_experiment, slo_config};
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
    let target = slo_config();
    t.note(format!(
        "target: doorbell->retire within {} ns, error budget {}",
        target.latency_target_ns, target.error_budget
    ));
    Outcome {
        tables: vec![t],
        failures: bars(&report),
        ..Outcome::default()
    }
}

/// The cache sweep as its printed table, one row per (workload, size) cell.
pub(crate) fn cache_table(reports: &[crate::cache_run::CacheWorkloadReport]) -> Table {
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
            "DES time delta",
        ],
    );
    for r in reports {
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
            format!(
                "{:+.0}%",
                (r.cached_des_ns as f64 / r.uncached_des_ns.max(1) as f64 - 1.0) * 100.0
            ),
        ]);
    }
    t.note("subs = NVMe commands submitted; cached runs include readahead traffic");
    t.note("read mean delta is wall clock (information); DES time delta is virtual time (the bar)");
    t
}

fn cache(_p: &BenchParams) -> Outcome {
    use crate::cache_run::{bars, run_cache_sweep, DEFAULT_CACHE_SEED};
    use cam_telemetry::EventKind;
    use std::sync::Arc;

    // The sweep records its largest cached seq_scan run, exported through
    // the Chrome-trace pipeline: the cache events (access / evict /
    // readahead / flush instants) must satisfy the trace validator beside
    // balanced batch spans.
    let rec = Arc::new(FlightRecorder::new());
    let reports = run_cache_sweep(&[256, 2048], DEFAULT_CACHE_SEED, &rec);
    let mut failures = bars(&reports);
    let mut t = cache_table(&reports);
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
        failures,
        ..Outcome::default()
    }
}

/// The fidelity report as its printed tables — protocol decisions, cache
/// decisions, timing trends — for a run of `rounds` batches per channel.
pub(crate) fn fidelity_tables(
    report: &crate::fidelity_run::FidelityReport,
    rounds: u64,
) -> Vec<Table> {
    use crate::fidelity_run::{
        BLOCKING_LATENCY_TOLERANCE, DEPTH_REL_ERR_TOLERANCE, N_CHANNELS, N_SSDS,
    };

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
        "decisions_match: {} ({N_CHANNELS} channels x {rounds} batches, {N_SSDS} SSDs, \
         workload seed {:#x})",
        report.decisions_match(),
        report.seed
    ));

    // The timing-trend comparison: magnitudes differ by design (wall clock
    // vs calibrated virtual time), directions must not.
    let mut tr = Table::new(
        "Model fidelity: in-flight depth and doorbell->retire latency trends",
        &[
            "driver",
            "mode",
            "mean depth",
            "peak depth/ssd",
            "mean read (us)",
            "speedup",
        ],
    );
    for (driver, engine) in [("functional", &report.functional), ("des", &report.des)] {
        for m in [&engine.pipelined, &engine.blocking] {
            let peaks: Vec<String> = m.inflight_peak.iter().map(u64::to_string).collect();
            tr.row(vec![
                driver.into(),
                if m.pipelined { "pipelined" } else { "blocking" }.into(),
                format!("{:.2}", m.depth()),
                peaks.join("/"),
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
        "depth rel err: {:.2} piped / {:.2} blocking (tolerance {}); speedup direction agrees: {}; \
         blocking mean read functional/DES: {:.3} (tolerance ±{})",
        report.depth_rel_err(true),
        report.depth_rel_err(false),
        DEPTH_REL_ERR_TOLERANCE,
        report.speedup_direction_agrees(),
        report.blocking_latency_ratio(),
        BLOCKING_LATENCY_TOLERANCE
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
        rounds * 3,
    ));
    vec![t, tc, tr]
}

fn fidelity(_p: &BenchParams) -> Outcome {
    use crate::fidelity_run::{decision_bars, run_fidelity_experiment, timing_bars, DEFAULT_SEED};
    use cam_telemetry::EventKind;
    use std::sync::Arc;

    const ROUNDS: u64 = 8;
    // The virtual-time trace artifact: the experiment's pipelined DES run,
    // recorded — sim events only, on sim-ssd tracks under process 2.
    let rec = Arc::new(FlightRecorder::new());
    let report = run_fidelity_experiment(ROUNDS, DEFAULT_SEED, Some(Arc::clone(&rec)));
    let mut failures = decision_bars(&report);
    failures.extend(timing_bars(&report));
    let mut tables = fidelity_tables(&report, ROUNDS);
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
        tables[2].note(format!(
            "DES trace valid: {} events across {} tracks, written to {path}",
            summary.events,
            summary.named_tracks.len(),
        ));
    }
    Outcome {
        tables,
        failures,
        ..Outcome::default()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn registry_ids_are_unique_and_described() {
        // `EXPERIMENTS` is the single source of truth for the CLI verb list;
        // this test guards its invariants rather than mirroring its contents.
        let ids: Vec<&str> = EXPERIMENTS.iter().map(Experiment::id).collect();
        let mut unique = ids.clone();
        unique.sort_unstable();
        unique.dedup();
        assert_eq!(unique.len(), ids.len(), "duplicate experiment ids: {ids:?}");
        for want in ["tab1", "fig8", "bench", "slo", "serve"] {
            assert!(ids.contains(&want), "missing {want}");
        }
        for e in EXPERIMENTS {
            assert!(
                !e.desc().is_empty(),
                "experiment {} has no description",
                e.id()
            );
        }
    }

    #[test]
    fn bench_doc_holds_exactly_the_verbs_run_and_the_tables_they_printed() {
        let ran = ["tab1", "slo"].map(|id| {
            let verb = EXPERIMENTS.iter().find(|e| e.id() == id).expect(id);
            (id, verb.run(&BenchParams::default()).tables)
        });
        let doc = bench_doc(&ran);
        let parsed = cam_telemetry::json::parse(&format!("{doc:#}")).expect("document parses");
        assert_eq!(parsed, doc);
        let Json::Obj(entries) = &parsed else {
            panic!("not an object: {parsed}")
        };
        assert_eq!(entries.len(), ran.len(), "one key per verb run");
        for ((id, tables), (key, entry)) in ran.iter().zip(entries) {
            assert_eq!(id, key);
            let titles = entry.as_arr().expect("array of tables").iter();
            let titles: Vec<_> = titles
                .map(|t| t.get("title").and_then(Json::as_str))
                .collect();
            let printed: Vec<_> = tables.iter().map(|t| Some(t.title())).collect();
            assert_eq!(titles, printed, "{id}");
        }
        // The printed walk is the report: the DES lane drains to recovered.
        let walk = ran[1].1[0].find("des", "lane 0 walk").expect("des row");
        assert!(walk.ends_with("> recovered"), "{walk}");
    }

    #[test]
    fn bench_decomposes_both_drivers_and_every_batch_closes() {
        let outcome = bench(&BenchParams::default());
        assert_eq!(outcome.failures, Vec::<String>::new());
        let des = &outcome.tables[2];
        // Doorbell/pickup coincide in virtual time and retire follows the
        // last completion instantly: the DES rows must say n/a, never 0.
        for row in ["mean", "p99 tail"] {
            let cell = |c| des.find(row, c).expect("decomposition cell");
            assert_eq!((cell("doorbell_wait"), cell("retire")), ("n/a", "n/a"));
            assert_ne!(
                cell("dispatch"),
                "n/a",
                "dispatch is charged by the CPU pipe"
            );
        }
    }
}
