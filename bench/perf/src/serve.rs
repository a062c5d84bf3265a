//! `serve_kv`: the Tutti scenario — multi-tenant KV-cache paging through
//! `ServingCore` (token bucket, DRR, session residency) on the DES driver.
//!
//! Four tenants, tenant 0 hot at ~94 % of steps (the `repro serve` skew
//! shape, scaled up), a GPU budget tight enough that cold tenants page, and
//! token buckets that pace admission at ~70 % of the array's 4 KiB read
//! capacity: an open loop on the virtual timeline, not a standing backlog.
//! Step latency is timed from admission, as `TenantStats` defines it; time a
//! step waits for tokens *before* admission is not observable from outside
//! `ServingCore` (README, "Known gaps").

use std::cell::RefCell;
use std::rc::Rc;
use std::sync::Arc;
use std::time::Instant;

use cam_iostacks::cam_des::{
    run_cam_des_source, CamDesBatch, CamDesConfig, CamDesObs, CamDesReport, CpuPipeModel,
    DesBatchSource,
};
use cam_iostacks::des::cam_thread_cost;
use cam_nvme::spec::Opcode;
use cam_nvme::SsdModel;
use cam_protocol::ChannelOp;
use cam_serving::{
    run_serving_des, AdmissionConfig, CoreSource, FairScheduler, Policy, ServingConfig,
    ServingCore, ServingStats, WorkItem, CH_DEMAND, CH_READAHEAD, CH_WRITEBACK, N_CHANNELS,
};
use cam_workloads::kv_cache::KvCacheConfig;
use parking_lot::Mutex;

use crate::des::{MAX_REPEATS, MIN_REPEATS};
use crate::report::Report;
use crate::stats::{fast_time, mean, median, quantile};

const N_SSDS: usize = 4;
const SESSIONS: [usize; 4] = [970, 20, 20, 20];
/// Steps per tenant per repeat: four times the `repro serve` skew trace,
/// a third of a second of host time on the reference box (short for the
/// reason `des::ROUNDS` gives). `--seconds` only sets how often the trial is
/// repeated, so virtual-time results depend on the seed alone.
const STEPS: [usize; 4] = [38_800, 800, 800, 800];
/// Share of the array's 4 KiB read capacity the token buckets admit.
const LOAD: f64 = 0.7;

fn serving_config(seed: u64) -> ServingConfig {
    let mut wl = KvCacheConfig::uniform(4, 1, 1);
    wl.sessions = SESSIONS.to_vec();
    wl.steps = STEPS.to_vec();
    wl.seed = seed;
    let total_steps: usize = wl.steps.iter().sum();
    let capacity = N_SSDS as f64 * SsdModel::p5510().peak_iops_4k(Opcode::Read);
    let admission = wl
        .steps
        .iter()
        .map(|&s| AdmissionConfig {
            // Each tenant's bucket refills in proportion to its share of the
            // trace, so all tenants finish at about the same virtual time.
            rate_blocks_per_s: LOAD * capacity * s as f64 / total_steps as f64,
            burst_blocks: 64.0,
        })
        .collect();
    let mut cfg = ServingConfig::for_workload(wl, Policy::Drr);
    cfg.admission = admission;
    // Eight sessions' worth of GPU memory for 1030 sessions: cold tenants'
    // sessions are evicted between touches, so their decode reads page.
    cfg.gpu_budget_blocks = cfg.workload.session_blocks * 8;
    cfg.max_batch_blocks = 128;
    cfg
}

/// The virtual-time outcome of one repeat; bit-identical across repeats.
#[derive(PartialEq, Debug, Clone)]
struct Virtual {
    duration_ns: u64,
    completed: Vec<u64>,
    p50_ns: Vec<u64>,
    p99_ns: Vec<u64>,
    batches: [u64; N_CHANNELS],
    blocks: [u64; N_CHANNELS],
}

impl Virtual {
    fn of(stats: &ServingStats) -> Self {
        Virtual {
            duration_ns: stats.duration_ns,
            completed: stats.tenants.iter().map(|t| t.completed).collect(),
            p50_ns: stats.tenants.iter().map(|t| t.p50_ns).collect(),
            p99_ns: stats.tenants.iter().map(|t| t.p99_ns).collect(),
            batches: stats.batches,
            blocks: stats.blocks,
        }
    }
}

pub struct Outcome {
    /// Steps that did not complete, over all repeats.
    incomplete: u64,
    virt: Virtual,
    stats: ServingStats,
    des: CamDesReport,
    host_s: Vec<f64>,
    setup_s: Vec<f64>,
    /// `VmHWM` after the last repeat.
    peak_rss_mb: f64,
    problems: Vec<String>,
}

/// Generates the traces and builds the serving plane, timing it into
/// `setup_s`.
fn set_up(seed: u64, setup_s: &mut Vec<f64>) -> Arc<Mutex<ServingCore>> {
    let t = Instant::now();
    let core = Arc::new(Mutex::new(ServingCore::new(serving_config(seed), None)));
    setup_s.push(t.elapsed().as_secs_f64());
    core
}

pub fn run(seed: u64, seconds: f64) -> Outcome {
    let started = Instant::now();
    let mut problems = Vec::new();
    let (mut host_s, mut setup_s) = (Vec::new(), Vec::new());
    let mut first: Option<Virtual> = None;
    let mut last = None;
    let mut incomplete = 0;
    while host_s.len() < MIN_REPEATS
        || (started.elapsed().as_secs_f64() < seconds && host_s.len() < MAX_REPEATS)
    {
        let core = set_up(seed, &mut setup_s);

        let t_run = Instant::now();
        let (run, des) = run_serving_des(core, N_SSDS);
        host_s.push(t_run.elapsed().as_secs_f64());

        if run.substrate_batches != run.stats.batches.iter().sum::<u64>() {
            problems.push(format!(
                "substrate retired {} batches, the serving plane published {}",
                run.substrate_batches,
                run.stats.batches.iter().sum::<u64>()
            ));
        }
        let this = Virtual::of(&run.stats);
        let attempted: u64 = STEPS.iter().map(|&s| s as u64).sum();
        incomplete += attempted.saturating_sub(this.completed.iter().sum());
        match &first {
            None => first = Some(this),
            Some(f) if *f != this => problems.push(format!(
                "virtual-time results differ between repeats: {f:?} vs {this:?}"
            )),
            Some(_) => {}
        }
        last = Some((run.stats, des));
    }
    let (stats, des) = last.expect("at least one repeat ran");
    Outcome {
        incomplete,
        virt: first.expect("at least one repeat ran"),
        stats,
        des,
        host_s,
        setup_s,
        peak_rss_mb: crate::sys::peak_rss_mb(),
        problems,
    }
}

impl Outcome {
    fn blocks(&self) -> u64 {
        self.virt.blocks.iter().sum()
    }

    /// Simulator speed as the undisturbed repeats show it.
    fn sim_req_per_host_s(&self) -> f64 {
        self.blocks() as f64 / fast_time(&self.host_s)
    }

    pub fn report(&self, r: &mut Report) {
        let attempted: u64 = STEPS.iter().map(|&s| s as u64).sum();
        let completed: u64 = self.virt.completed.iter().sum();
        r.attempted += attempted * self.host_s.len() as u64;
        r.failed += self.incomplete;
        for p in &self.problems {
            r.problem(p.clone());
        }
        let v = &self.virt;
        let virt_s = v.duration_ns as f64 * 1e-9;
        // Uniform end-to-end names: simulated block requests per host
        // second, and the hot tenant's median step latency (94 % of steps)
        // on the virtual timeline.
        r.set("req_per_s", self.sim_req_per_host_s());
        r.set("batch_p50_us", v.p50_ns[0] as f64 / 1e3);
        r.set("setup_s", fast_time(&self.setup_s));
        r.set("peak_rss_mb", self.peak_rss_mb);
        r.set("virt_steps_per_s", completed as f64 / virt_s);
        r.set("virt_step_p99_us_hot", v.p99_ns[0] as f64 / 1e3);
        let cold = v.p99_ns[1..].iter().max().copied().unwrap_or(0);
        r.set("virt_step_p99_us_cold", cold as f64 / 1e3);
        r.set("sim_req_per_host_s", self.sim_req_per_host_s());
        r.note(format!(
            "{} repeats, virtual results identical; {} steps each ({} latency samples for the hot tenant), {:.3} virtual s; host s per repeat min / quartiles / max: {}",
            self.host_s.len(),
            completed,
            v.completed[0],
            virt_s,
            [0.0, 0.25, 0.5, 0.75, 1.0]
                .iter()
                .map(|&q| format!("{:.4}", quantile(&self.host_s, q)))
                .collect::<Vec<_>>()
                .join(" ")
        ));
    }

    pub fn report_layers(&self, r: &mut Report) {
        let t = &self.stats.tenants;
        let hits: u64 = t.iter().map(|t| t.hits).sum();
        let accesses: u64 = t.iter().map(|t| t.accesses).sum();
        r.set("serving.hit_rate", hits as f64 / accesses.max(1) as f64);
        r.set("serving.evictions", self.stats.evictions as f64);
        r.set(
            "serving.throttled",
            t.iter().map(|t| t.throttled).sum::<u64>() as f64,
        );
        r.set(
            "serving.batches_demand",
            self.virt.batches[CH_DEMAND] as f64,
        );
        r.set("serving.batches_wb", self.virt.batches[CH_WRITEBACK] as f64);
        r.set("serving.batches_ra", self.virt.batches[CH_READAHEAD] as f64);
        let d = &self.des.decisions;
        r.set("protocol.sqes", d.sqes as f64);
        r.set("protocol.groups", d.groups as f64);
        r.set("protocol.dedup_dropped", d.dedup_dropped as f64);
        r.set("protocol.stripe_splits", d.stripe_splits as f64);
        r.set(
            "iostacks.des.host_ns_per_req",
            1e9 / self.sim_req_per_host_s(),
        );
        r.set("iostacks.des.inflight_mean", mean(&self.des.inflight_mean));
        r.set("iostacks.des.commands", self.des.commands as f64);
    }
}

/// Host time spent inside the serving plane's two pump entry points.
#[derive(Default)]
struct PumpTime {
    next_batch_ns: u64,
    next_batch_calls: u64,
    on_retire_ns: u64,
    on_retire_calls: u64,
}

/// `CoreSource` with the benchmark's clock reads around each call.
struct TimedSource {
    inner: CoreSource,
    time: Rc<RefCell<PumpTime>>,
}

impl DesBatchSource for TimedSource {
    fn next_batch(&mut self, channel: usize, now_ns: u64) -> Option<(CamDesBatch, ChannelOp)> {
        let t = Instant::now();
        let out = self.inner.next_batch(channel, now_ns);
        let mut time = self.time.borrow_mut();
        time.next_batch_ns += t.elapsed().as_nanos() as u64;
        time.next_batch_calls += 1;
        out
    }

    fn on_retire(&mut self, channel: usize, now_ns: u64, errors: u64) {
        let t = Instant::now();
        self.inner.on_retire(channel, now_ns, errors);
        let mut time = self.time.borrow_mut();
        time.on_retire_ns += t.elapsed().as_nanos() as u64;
        time.on_retire_calls += 1;
    }

    fn next_ready_ns(&mut self, now_ns: u64) -> Option<u64> {
        self.inner.next_ready_ns(now_ns)
    }

    fn is_drained(&self) -> bool {
        self.inner.is_drained()
    }
}

/// The traced pass: the same trace through a timed source. The driver
/// configuration is this file's copy of `run_serving_des`'s; the pass checks
/// that the copy still produces the library's virtual duration.
pub fn traced_pass(seed: u64, untraced: &Outcome, r: &mut Report) {
    let core = Arc::new(Mutex::new(ServingCore::new(serving_config(seed), None)));
    let time = Rc::new(RefCell::new(PumpTime::default()));
    let source = TimedSource {
        inner: CoreSource(Arc::clone(&core)),
        time: Rc::clone(&time),
    };
    let cfg = CamDesConfig {
        n_ssds: N_SSDS,
        block_size: 4096,
        stripe_blocks: 1,
        op: ChannelOp::Read,
        threads: 2,
        queue_depth: 1024,
        pipelined: true,
        thread_cost: cam_thread_cost(N_SSDS as f64),
        cpu_pipe: CpuPipeModel::calibrated(),
        host_gbps: 21.0,
        retry: CamDesConfig::inert_retry(),
        fault: None,
        ssd_model: SsdModel::p5510(),
    };
    let des = run_cam_des_source(
        cfg,
        N_CHANNELS,
        Box::new(source),
        None,
        CamDesObs::default(),
    );
    if des.duration.as_ns() != untraced.des.duration.as_ns() {
        r.problem(format!(
            "timed-source pass ran {} virtual ns, run_serving_des {}: the benchmark's copy of its driver configuration has drifted",
            des.duration.as_ns(),
            untraced.des.duration.as_ns()
        ));
    }
    let time = time.borrow();
    r.set(
        "serving.next_batch_ns",
        time.next_batch_ns as f64 / time.next_batch_calls.max(1) as f64,
    );
    r.set(
        "serving.on_retire_ns",
        time.on_retire_ns as f64 / time.on_retire_calls.max(1) as f64,
    );
    r.set("serving.sched_ns_per_item", sched_ns_per_item());
}

/// DRR push + pick cost per work item, on a benchmark-owned scheduler.
fn sched_ns_per_item() -> f64 {
    const ITEMS: usize = 4096;
    const ROUNDS: usize = 32;
    let mut per_round = Vec::with_capacity(ROUNDS);
    for _ in 0..ROUNDS {
        let mut sched = FairScheduler::new(Policy::Drr, 4, 32);
        let t = Instant::now();
        for i in 0..ITEMS {
            sched.push(WorkItem {
                tenant: i % 4,
                key: (i % 4, i / 4),
                lbas: vec![i as u64; 4],
                resident_target: 4,
                admit_ns: 0,
            });
        }
        let mut picked = 0;
        while !sched.is_empty() {
            picked += std::hint::black_box(sched.next_batch(128)).len();
        }
        assert_eq!(picked, ITEMS);
        per_round.push(t.elapsed().as_nanos() as f64 / ITEMS as f64);
    }
    median(&per_round)
}
