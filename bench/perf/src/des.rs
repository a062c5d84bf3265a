//! `des_batch`: the shared protocol core (`plan_batch`, `WorkerCore`) on the
//! modelled hardware, fed by a benchmark-owned closed-loop source.
//!
//! The configuration reproduces, in this file, the shape of `cam-bench`'s
//! trajectory trial: 4 P5510 SSDs, one worker thread, queue depth 1024,
//! pipelined, the calibrated CPU pipe. Two-block reads in a 256-block window
//! per channel make dedup and stripe splits occur.

use std::cell::RefCell;
use std::collections::VecDeque;
use std::rc::Rc;
use std::time::Instant;

use cam_iostacks::cam_des::{
    run_cam_des_source, CamDesBatch, CamDesConfig, CamDesObs, CamDesReport, CpuPipeModel,
    DesBatchSource,
};
use cam_iostacks::des::cam_thread_cost;
use cam_nvme::SsdModel;
use cam_protocol::{plan_batch, ChannelOp, DecisionCounters, PlanConfig};

use crate::gen::Lcg;
use crate::report::Report;
use crate::stats::{fast_time, mean, percentile, quantile};

const N_SSDS: usize = 4;
const N_CHANNELS: usize = 4;
const BLOCK_SIZE: u32 = 4096;
const STRIPE_BLOCKS: u64 = 2;
const BLOCKS_PER_REQ: u32 = 2;
const BATCH: usize = 64;
const LBA_WINDOW: u64 = 256;
/// Batches per channel per repeat: an eighth of a second of host time on
/// the reference box, so that many repeats fall wholly outside the box's
/// slow spells (README, "Estimators"). The trial is the same
/// whatever `--seconds` says — that only sets how often it is repeated — so
/// virtual-time results depend on the seed alone.
const ROUNDS: u64 = 625;
pub const MIN_REPEATS: usize = 3;
pub const MAX_REPEATS: usize = 1000;

fn config() -> CamDesConfig {
    CamDesConfig {
        n_ssds: N_SSDS,
        block_size: BLOCK_SIZE,
        stripe_blocks: STRIPE_BLOCKS,
        op: ChannelOp::Read,
        threads: 1,
        queue_depth: 1024,
        pipelined: true,
        thread_cost: cam_thread_cost(N_SSDS as f64),
        cpu_pipe: CpuPipeModel::calibrated(),
        host_gbps: 21.0,
        retry: CamDesConfig::inert_retry(),
        fault: None,
        ssd_model: SsdModel::p5510(),
    }
}

fn make_trace(seed: u64, rounds: u64) -> Vec<VecDeque<CamDesBatch>> {
    (0..N_CHANNELS as u64)
        .map(|ch| {
            let mut rng = Lcg::derive(seed, ch);
            let base = ch * LBA_WINDOW;
            (0..rounds)
                .map(|_| CamDesBatch {
                    lbas: (0..BATCH).map(|_| base + rng.below(LBA_WINDOW)).collect(),
                    blocks: BLOCKS_PER_REQ,
                })
                .collect()
        })
        .collect()
}

/// What the source observed from outside the driver.
#[derive(Default)]
struct Observed {
    /// Doorbell→retire per batch on the virtual timeline, ns.
    latency_ns: Vec<u64>,
    failed_batches: u64,
}

/// Closed loop per channel: the next batch is published the moment the
/// previous one retires. Stamps doorbell in `next_batch`, retire in
/// `on_retire`.
struct ClosedLoopSource {
    queues: Vec<VecDeque<CamDesBatch>>,
    doorbell_ns: Vec<u64>,
    seen: Rc<RefCell<Observed>>,
}

impl DesBatchSource for ClosedLoopSource {
    fn next_batch(&mut self, channel: usize, now_ns: u64) -> Option<(CamDesBatch, ChannelOp)> {
        let batch = self.queues[channel].pop_front()?;
        self.doorbell_ns[channel] = now_ns;
        Some((batch, ChannelOp::Read))
    }

    fn on_retire(&mut self, channel: usize, now_ns: u64, errors: u64) {
        let mut seen = self.seen.borrow_mut();
        if errors > 0 {
            // A failed batch counts every request as failed and contributes
            // no latency sample.
            seen.failed_batches += 1;
        } else {
            seen.latency_ns.push(now_ns - self.doorbell_ns[channel]);
        }
    }

    fn is_drained(&self) -> bool {
        self.queues.iter().all(VecDeque::is_empty)
    }
}

/// Generates the trace and builds the source, timing it into `setup_s`.
fn set_up(seed: u64, setup_s: &mut Vec<f64>) -> (ClosedLoopSource, Rc<RefCell<Observed>>) {
    let t = Instant::now();
    let seen = Rc::new(RefCell::new(Observed {
        latency_ns: Vec::with_capacity(ROUNDS as usize * N_CHANNELS),
        failed_batches: 0,
    }));
    let source = ClosedLoopSource {
        queues: make_trace(seed, ROUNDS),
        doorbell_ns: vec![0; N_CHANNELS],
        seen: Rc::clone(&seen),
    };
    setup_s.push(t.elapsed().as_secs_f64());
    (source, seen)
}

/// The decisions a pure `plan_batch` replay of the trace makes.
fn replay_decisions(trace: &[VecDeque<CamDesBatch>]) -> DecisionCounters {
    let plan_cfg = PlanConfig {
        n_ssds: N_SSDS,
        stripe_blocks: STRIPE_BLOCKS,
        block_size: BLOCK_SIZE,
    };
    let mut want = DecisionCounters::default();
    for batch in trace.iter().flatten() {
        let reqs = batch.lbas.iter().map(|&lba| (lba, 0)).collect();
        let plan = plan_batch(&plan_cfg, ChannelOp::Read, batch.blocks, reqs);
        want.record_plan(&plan);
        want.sqes += plan.runs();
    }
    want
}

/// The virtual-time outcome of one repeat; must be bit-identical across
/// repeats and across sets of runs.
#[derive(PartialEq, Debug, Clone)]
struct Virtual {
    duration_ns: u64,
    p50_ns: u64,
    p99_ns: u64,
    samples: usize,
    decisions: DecisionCounters,
}

pub struct Outcome {
    requests: u64,
    failed: u64,
    virt: Virtual,
    host_s: Vec<f64>,
    setup_s: Vec<f64>,
    last: CamDesReport,
    /// `VmHWM` after the last repeat, before the replay check allocates.
    peak_rss_mb: f64,
    problems: Vec<String>,
}

pub fn run(seed: u64, seconds: f64) -> Outcome {
    let requests = ROUNDS * (N_CHANNELS * BATCH) as u64;
    let started = Instant::now();
    let mut problems = Vec::new();
    let mut virt: Option<Virtual> = None;
    let (mut host_s, mut setup_s) = (Vec::new(), Vec::new());
    let mut failed = 0;
    let mut last = None;
    while host_s.len() < MIN_REPEATS
        || (started.elapsed().as_secs_f64() < seconds && host_s.len() < MAX_REPEATS)
    {
        let (source, seen) = set_up(seed, &mut setup_s);

        let t_run = Instant::now();
        let report = run_cam_des_source(
            config(),
            N_CHANNELS,
            Box::new(source),
            None,
            CamDesObs::default(),
        );
        host_s.push(t_run.elapsed().as_secs_f64());

        let mut seen = seen.borrow_mut();
        failed += seen.failed_batches * BATCH as u64;
        let retired = seen.latency_ns.len() as u64 + seen.failed_batches;
        if retired != ROUNDS * N_CHANNELS as u64 {
            problems.push(format!(
                "{retired} batches retired, {} published",
                ROUNDS * N_CHANNELS as u64
            ));
        }
        let this = Virtual {
            duration_ns: report.duration.as_ns(),
            p50_ns: percentile(&mut seen.latency_ns, 0.50),
            p99_ns: percentile(&mut seen.latency_ns, 0.99),
            samples: seen.latency_ns.len(),
            decisions: report.decisions,
        };
        match &virt {
            None => virt = Some(this),
            Some(first) if *first != this => problems.push(format!(
                "virtual-time results differ between repeats: {first:?} vs {this:?}"
            )),
            Some(_) => {}
        }
        last = Some(report);
    }
    let virt = virt.expect("at least one repeat ran");
    let peak_rss_mb = crate::sys::peak_rss_mb();
    let want = replay_decisions(&make_trace(seed, ROUNDS));
    if virt.decisions != want {
        problems.push(format!(
            "DES decisions {:?} differ from the plan_batch replay's {want:?}",
            virt.decisions
        ));
    }
    Outcome {
        requests,
        failed,
        virt,
        host_s,
        setup_s,
        last: last.expect("at least one repeat ran"),
        peak_rss_mb,
        problems,
    }
}

impl Outcome {
    /// Simulator speed as the undisturbed repeats show it.
    fn sim_req_per_host_s(&self) -> f64 {
        self.requests as f64 / fast_time(&self.host_s)
    }

    pub fn report(&self, r: &mut Report) {
        r.attempted += self.requests * self.host_s.len() as u64;
        r.failed += self.failed;
        for p in &self.problems {
            r.problem(p.clone());
        }
        let v = &self.virt;
        let virt_s = v.duration_ns as f64 * 1e-9;
        // Uniform end-to-end names: host-time throughput and the batch
        // median on this workload's own (virtual) timeline.
        r.set("req_per_s", self.sim_req_per_host_s());
        r.set("batch_p50_us", v.p50_ns as f64 / 1e3);
        r.set("setup_s", fast_time(&self.setup_s));
        r.set("peak_rss_mb", self.peak_rss_mb);
        r.set("virt_req_per_s", self.requests as f64 / virt_s);
        r.set("virt_batch_p50_us", v.p50_ns as f64 / 1e3);
        r.set("virt_batch_p99_us", v.p99_ns as f64 / 1e3);
        r.set("sim_req_per_host_s", self.sim_req_per_host_s());
        r.note(format!(
            "{} repeats of {} batches ({} latency samples each), virtual results identical; host s per repeat min / quartiles / max: {}",
            self.host_s.len(),
            ROUNDS * N_CHANNELS as u64,
            v.samples,
            [0.0, 0.25, 0.5, 0.75, 1.0]
                .iter()
                .map(|&q| format!("{:.4}", quantile(&self.host_s, q)))
                .collect::<Vec<_>>()
                .join(" ")
        ));
    }

    pub fn report_layers(&self, r: &mut Report) {
        let d = &self.virt.decisions;
        r.set("protocol.sqes", d.sqes as f64);
        r.set("protocol.groups", d.groups as f64);
        r.set("protocol.dedup_dropped", d.dedup_dropped as f64);
        r.set("protocol.stripe_splits", d.stripe_splits as f64);
        r.set(
            "iostacks.des.host_ns_per_req",
            1e9 / self.sim_req_per_host_s(),
        );
        r.set("iostacks.des.inflight_mean", mean(&self.last.inflight_mean));
        r.set("iostacks.des.commands", self.last.commands as f64);
    }
}
