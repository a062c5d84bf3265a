//! The discrete-event microbenchmark engine behind the paper's throughput
//! figures (Figs. 2, 8, 12, and the SPDK-limitation Figs. 14–16).
//!
//! One simulation shape covers every SSD management; they differ only in
//! who pays per-request control cost and where the data travels:
//!
//! ```text
//!   submit resource ──► SSD (P5510 model) ──► host PCIe ──► [staging copy] ──► done
//!   (CPU core pipe /        latency +            21 GB/s      only bounce paths
//!    GPU submit pipe)       channels + link       shared
//! ```
//!
//! Per-request control cost comes from [`cam_hostos::IoStackKind`] for the
//! kernel stacks and SPDK/CAM; BaM pays (almost) nothing on the CPU but
//! occupies SMs per [`GpuSpec::bam_sm_utilization`]; GDS pays a heavy
//! synchronous filesystem/NVFS cost per request (§ IV-E: "these I/O
//! unrelated operations account for 70% of the total processing time").
//!
//! [`GpuSpec::bam_sm_utilization`]: cam_gpu::GpuSpec::bam_sm_utilization

use std::sync::Arc;

use cam_gpu::GpuSpec;
use cam_hostos::{IoDir, IoStackKind, MemoryModel};
use cam_nvme::spec::Opcode;
use cam_nvme::{DesSsd, SsdModel};
use cam_protocol::ChannelOp;
use cam_simkit::{Dur, EventKind, FlightRecorder, Pipe, Sim, Time};

use crate::cam_des::{run_cam_des_obs, CamDesBatch, CamDesConfig, CamDesObs};

/// The SSD management being modelled.
#[derive(Clone, Copy, PartialEq, Eq, Debug, Hash)]
pub enum Engine {
    /// POSIX `pread`/`pwrite` over RAID 0 (kernel, staged, synchronous).
    Posix,
    /// libaio (kernel, staged, async, interrupt completion).
    Libaio,
    /// io_uring, interrupt completion (kernel, staged).
    IoUringInt,
    /// io_uring, polled (kernel, staged).
    IoUringPoll,
    /// SPDK user-space driver (staged through CPU memory).
    Spdk,
    /// CAM: CPU user-space control plane, direct data path.
    Cam,
    /// BaM: GPU-managed queues, direct data path.
    Bam,
    /// NVIDIA GPUDirect Storage: direct data path, heavyweight
    /// filesystem/NVFS control path, synchronous.
    Gds,
}

impl Engine {
    /// All engines in the order the figures list them.
    pub const ALL: [Engine; 8] = [
        Engine::Posix,
        Engine::Libaio,
        Engine::IoUringInt,
        Engine::IoUringPoll,
        Engine::Spdk,
        Engine::Cam,
        Engine::Bam,
        Engine::Gds,
    ];

    /// Display label matching the paper.
    pub fn name(self) -> &'static str {
        match self {
            Engine::Posix => "POSIX I/O",
            Engine::Libaio => "libaio",
            Engine::IoUringInt => "io_uring int",
            Engine::IoUringPoll => "io_uring poll",
            Engine::Spdk => "SPDK",
            Engine::Cam => "CAM",
            Engine::Bam => "BaM",
            Engine::Gds => "GDS",
        }
    }

    /// Whether payloads bounce through CPU memory.
    pub fn staged(self) -> bool {
        matches!(
            self,
            Engine::Posix
                | Engine::Libaio
                | Engine::IoUringInt
                | Engine::IoUringPoll
                | Engine::Spdk
        )
    }

    fn kernel_stack(self) -> Option<IoStackKind> {
        match self {
            Engine::Posix => Some(IoStackKind::Posix),
            Engine::Libaio => Some(IoStackKind::Libaio),
            Engine::IoUringInt => Some(IoStackKind::IoUringInt),
            Engine::IoUringPoll => Some(IoStackKind::IoUringPoll),
            _ => None,
        }
    }
}

/// Microbenchmark configuration.
#[derive(Clone, Copy, Debug)]
pub struct MicrobenchConfig {
    /// The management under test.
    pub engine: Engine,
    /// Number of P5510 SSDs.
    pub n_ssds: usize,
    /// Bytes per request (512 B – 128 KiB in Fig. 8; up to MBs in Fig. 16).
    pub granularity: u64,
    /// Direction.
    pub dir: IoDir,
    /// Total requests across all SSDs.
    pub requests: u64,
    /// Target in-flight requests per SSD (ignored by synchronous engines).
    pub queue_depth: u32,
    /// Populated DRAM channels (Figs. 14/15).
    pub mem_channels: u32,
    /// CPU control threads for CAM (paper default: one per SSD, dynamic
    /// adjustment shrinks it to N/4..N/2; Fig. 12 sweeps it).
    pub cam_threads: usize,
    /// Fig. 16: destination buffer non-contiguous → one `cudaMemcpyAsync`
    /// per request on the staging path.
    pub noncontig_dest: bool,
}

impl MicrobenchConfig {
    /// A sensible default: engine + SSD count + direction, 4 KiB random,
    /// enough requests for steady state.
    pub fn new(engine: Engine, n_ssds: usize, dir: IoDir) -> Self {
        MicrobenchConfig {
            engine,
            n_ssds,
            granularity: 4096,
            dir,
            requests: (n_ssds as u64) * 20_000,
            queue_depth: 256,
            mem_channels: 16,
            cam_threads: n_ssds,
            noncontig_dest: false,
        }
    }
}

/// Microbenchmark outcome.
#[derive(Clone, Copy, Debug)]
pub struct MicrobenchResult {
    /// Delivered payload throughput, GB/s (after memory-channel capping).
    pub gbps: f64,
    /// Delivered rate, thousand requests per second.
    pub kiops: f64,
    /// Simulated duration.
    pub duration: Dur,
    /// Fraction of GPU SMs the control plane occupies (Fig. 4 / Issue 3).
    pub sm_utilization: f64,
    /// CPU cores the control plane occupies.
    pub cpu_cores: f64,
    /// CPU DRAM traffic generated, GB/s (Fig. 14).
    pub mem_traffic_gbps: f64,
}

/// Per-request CPU submit+complete cost for CAM/SPDK's user-space control
/// plane when one thread juggles `ssds_per_thread` queue pairs — Fig. 12's
/// knob. Calibrated: 2 SSDs/thread costs nothing, 4 SSDs/thread ≈ −25%.
pub fn cam_thread_cost(ssds_per_thread: f64) -> Dur {
    Dur::from_ns_f64(240.0 + 140.0 * ssds_per_thread.max(1.0))
}

/// Per-request cost of GDS's control path (EXT4 + NVFS + CUDA bookkeeping),
/// calibrated so 512 KiB tiles on 12 SSDs deliver ≈ 0.8 GB/s (§ IV-E). The
/// data plane is striped (the file spans the array), but the control path is
/// synchronous and serial — this constant is ~70–85% of each request's life,
/// matching "I/O unrelated operations account for 70% of the total
/// processing time".
const GDS_CPU_PER_REQUEST: Dur = Dur::us(500);

/// Fixed per-`cudaMemcpyAsync` overhead on the staging copy engine
/// (Fig. 16): at 4 KiB granularity the copy engine, not the SSDs, is the
/// bottleneck — 4096 B / (2.95 µs + 4096/21 ns) ≈ 1.3 GB/s. The ANNS
/// copy-share model (`cam_workloads::anns`) reads the same constant.
pub const MEMCPY_LAUNCH_OVERHEAD: Dur = Dur::ns(2_950);

struct World {
    ssds: Vec<DesSsd>,
    host: Pipe,
    submit: Vec<Pipe>,
    copy: Option<Pipe>,
    bytes: u64,
    submit_cost: Dur,
    issued: Vec<u64>,
    target: Vec<u64>,
    completed: u64,
    /// Per-SSD completions, for the [`EventKind::SimComplete`] ordinal.
    done_per_ssd: Vec<u64>,
    op: Opcode,
    /// For `global_qd` engines (GDS): round-robin cursor.
    global_next_ssd: usize,
    global_qd: Option<u32>,
    remaining_global: u64,
    /// GDS: the file spans the array, so each logical request's data plane
    /// fans out across every SSD in parallel (control stays serial).
    fanout: bool,
}

fn issue(sim: &mut Sim<World>, w: &mut World, ssd: usize) {
    sim.emit(EventKind::SimIssue {
        ssd: ssd as u16,
        req: w.issued[ssd],
    });
    w.issued[ssd] += 1;
    let thread = ssd % w.submit.len();
    let pipe = w.submit[thread];
    let cost = w.submit_cost;
    sim.pipe_work(pipe, cost, move |sim, w| {
        let bytes = w.bytes;
        let host = w.host;
        let copy = w.copy;
        let op = w.op;
        if w.fanout {
            // Striped data plane: split the payload across all SSDs and
            // join before crossing the host fabric.
            let n = w.ssds.len() as u64;
            let share = (bytes / n).max(1);
            let left = std::rc::Rc::new(std::cell::Cell::new(n));
            for i in 0..w.ssds.len() {
                let left = std::rc::Rc::clone(&left);
                w.ssds[i].submit(sim, op, share, move |sim, w| {
                    left.set(left.get() - 1);
                    if left.get() == 0 {
                        finish_transfer(sim, w, ssd, bytes, host, copy);
                    }
                });
            }
        } else {
            w.ssds[ssd].submit(sim, op, bytes, move |sim, w| {
                finish_transfer(sim, w, ssd, bytes, host, copy);
            });
        }
    });
}

fn finish_transfer(
    sim: &mut Sim<World>,
    _w: &mut World,
    ssd: usize,
    bytes: u64,
    host: Pipe,
    copy: Option<Pipe>,
) {
    sim.pipe_transfer(host, bytes, move |sim, w| match copy {
        Some(cp) => {
            sim.pipe_enqueue_work(cp, MEMCPY_LAUNCH_OVERHEAD);
            sim.pipe_transfer(cp, bytes, move |sim, w| complete(sim, w, ssd));
        }
        None => complete(sim, w, ssd),
    });
}

fn complete(sim: &mut Sim<World>, w: &mut World, ssd: usize) {
    w.completed += 1;
    sim.emit(EventKind::SimComplete {
        ssd: ssd as u16,
        req: w.done_per_ssd[ssd],
    });
    w.done_per_ssd[ssd] += 1;
    match w.global_qd {
        Some(_) => {
            if w.remaining_global > 0 {
                w.remaining_global -= 1;
                let next = w.global_next_ssd;
                w.global_next_ssd = (w.global_next_ssd + 1) % w.ssds.len();
                issue(sim, w, next);
            }
        }
        None => {
            if w.issued[ssd] < w.target[ssd] {
                issue(sim, w, ssd);
            }
        }
    }
}

/// Runs one microbenchmark and returns delivered throughput and side
/// effects. Deterministic: same config, same result.
pub fn run_microbench(cfg: MicrobenchConfig) -> MicrobenchResult {
    run_microbench_traced(cfg, None)
}

/// [`run_microbench`] with an optional flight recorder: every simulated
/// request emits [`EventKind::SimIssue`]/[`EventKind::SimComplete`] pairs
/// stamped with **virtual** time, so a DES run can be exported in the same
/// Chrome-trace format as the functional engine (distinct `sim-ssd*`
/// tracks under the simulation process).
pub fn run_microbench_traced(
    cfg: MicrobenchConfig,
    recorder: Option<Arc<FlightRecorder>>,
) -> MicrobenchResult {
    assert!(cfg.n_ssds >= 1 && cfg.requests >= 1 && cfg.granularity >= 1);
    if cfg.engine == Engine::Cam {
        // CAM does not get an analytic shortcut: it runs the shared
        // protocol layer (dispatch planning, worker cores, batch
        // retirement) over the same timing models, in virtual time.
        return run_cam_microbench(cfg, recorder);
    }
    let gpu = GpuSpec::a100_80g();
    let mem = MemoryModel::with_channels(cfg.mem_channels);

    let mut sim: Sim<World> = Sim::new();
    if let Some(rec) = recorder {
        sim.attach_recorder(rec);
    }
    let ssds: Vec<DesSsd> = (0..cfg.n_ssds)
        .map(|_| DesSsd::new(&mut sim, SsdModel::p5510()))
        .collect();
    let host = sim.new_pipe(gpu.pcie_gbps);

    // Submit resource: per-engine placement and per-request cost.
    let (n_submit, submit_cost, cpu_cores, global_qd) = match cfg.engine {
        Engine::Posix | Engine::Libaio | Engine::IoUringInt | Engine::IoUringPoll => {
            let k = cfg.engine.kernel_stack().expect("kernel engine");
            // One submitting core, as in the paper's stack microbenchmarks;
            // POSIX is synchronous but deep thread pools keep the device
            // busy — the core is the bottleneck either way.
            (1usize, k.cpu_per_request(cfg.dir), 1.0, None)
        }
        Engine::Spdk => {
            let threads = cfg.cam_threads.max(1);
            let per = cfg.n_ssds as f64 / threads as f64;
            (threads, cam_thread_cost(per), threads as f64, None)
        }
        Engine::Cam => unreachable!("Engine::Cam runs the protocol DES driver above"),
        Engine::Bam => {
            // GPU-side submission: massively parallel, tiny per-request
            // cost; one virtual submit pipe per SSD.
            (cfg.n_ssds, Dur::ns(150), 0.0, None)
        }
        Engine::Gds => (1usize, GDS_CPU_PER_REQUEST, 1.0, Some(1u32)),
    };
    let submit: Vec<Pipe> = (0..n_submit).map(|_| sim.new_pipe(1.0)).collect();

    let copy = (cfg.engine.staged() && cfg.noncontig_dest).then(|| sim.new_pipe(21.0));

    let per_ssd = cfg.requests / cfg.n_ssds as u64;
    let target: Vec<u64> = (0..cfg.n_ssds)
        .map(|i| per_ssd + u64::from((i as u64) < cfg.requests % cfg.n_ssds as u64))
        .collect();
    let op = match cfg.dir {
        IoDir::Read => Opcode::Read,
        IoDir::Write => Opcode::Write,
    };

    let mut w = World {
        ssds,
        host,
        submit,
        copy,
        bytes: cfg.granularity,
        submit_cost,
        issued: vec![0; cfg.n_ssds],
        target: target.clone(),
        completed: 0,
        done_per_ssd: vec![0; cfg.n_ssds],
        op,
        global_next_ssd: 0,
        global_qd,
        remaining_global: 0,
        fanout: cfg.engine == Engine::Gds,
    };

    // Prime the closed loops.
    match global_qd {
        Some(qd) => {
            let prime = (qd as u64).min(cfg.requests);
            w.remaining_global = cfg.requests - prime;
            let seeds: Vec<usize> = (0..prime as usize).map(|i| i % cfg.n_ssds).collect();
            w.global_next_ssd = (prime as usize) % cfg.n_ssds;
            for s in seeds {
                issue(&mut sim, &mut w, s);
            }
        }
        None => {
            for (ssd, t) in target.iter().enumerate() {
                let prime = (cfg.queue_depth as u64).min(*t);
                for _ in 0..prime {
                    issue(&mut sim, &mut w, ssd);
                }
            }
        }
    }

    let end: Time = sim.run(&mut w);
    assert_eq!(w.completed, cfg.requests, "all requests must complete");

    let raw_gbps = (cfg.requests * cfg.granularity) as f64 / end.as_ns().max(1) as f64;
    let delivered = if cfg.engine.staged() {
        mem.staged_delivered_gbps(raw_gbps)
    } else {
        mem.direct_delivered_gbps(raw_gbps)
    };
    let scale = delivered / raw_gbps.max(1e-12);
    let duration = Dur::from_ns_f64(end.as_ns() as f64 / scale.max(1e-12));

    MicrobenchResult {
        gbps: delivered,
        kiops: cfg.requests as f64 / duration.as_secs_f64() / 1e3,
        duration,
        sm_utilization: if cfg.engine == Engine::Bam {
            gpu.bam_sm_utilization(cfg.n_ssds as u32)
        } else {
            0.0
        },
        cpu_cores,
        mem_traffic_gbps: mem.traffic_gbps(delivered, cfg.engine.staged()),
    }
}

/// Channels the CAM microbench spreads its closed loop over: enough
/// concurrent single-outstanding-batch streams to keep the devices busy
/// across batch turnarounds, matching the multi-channel usage of § III-B.
const CAM_DES_CHANNELS: usize = 4;

/// The CAM arm of the microbench: the shared protocol layer over the DES
/// timing models (see [`crate::cam_des`]), followed by the same
/// memory-model post-processing as every other engine.
fn run_cam_microbench(
    cfg: MicrobenchConfig,
    recorder: Option<Arc<FlightRecorder>>,
) -> MicrobenchResult {
    let mem = MemoryModel::with_channels(cfg.mem_channels);
    let threads = cfg.cam_threads.max(1);
    assert!(
        cfg.granularity <= u64::from(u32::MAX),
        "CAM granularity is one block"
    );
    let des_cfg = CamDesConfig {
        block_size: cfg.granularity as u32,
        op: match cfg.dir {
            IoDir::Read => ChannelOp::Read,
            IoDir::Write => ChannelOp::Write,
        },
        queue_depth: (cfg.queue_depth.max(1)) as usize,
        ..CamDesConfig::calibrated(cfg.n_ssds, threads)
    };
    // Round-robin the request budget into per-channel batches of ~32
    // requests per SSD; each channel keeps one batch outstanding and
    // publishes the next at retire, so the channels together form the
    // closed loop the other engines prime with `queue_depth`.
    let batch_reqs = ((cfg.n_ssds as u64) * 32).min(cfg.requests).max(1);
    let mut channels: Vec<Vec<CamDesBatch>> = vec![Vec::new(); CAM_DES_CHANNELS];
    let mut next_lba = [0u64; CAM_DES_CHANNELS];
    let mut remaining = cfg.requests;
    let mut ch = 0usize;
    while remaining > 0 {
        let n = batch_reqs.min(remaining);
        // Disjoint LBA windows per channel: sequential, duplicate-free.
        let base = ((ch as u64) << 32) + next_lba[ch];
        channels[ch].push(CamDesBatch {
            lbas: (base..base + n).collect(),
            blocks: 1,
        });
        next_lba[ch] += n;
        remaining -= n;
        ch = (ch + 1) % CAM_DES_CHANNELS;
    }
    let report = run_cam_des_obs(des_cfg, channels, recorder, CamDesObs::default());
    assert_eq!(report.commands, cfg.requests, "closed loop must drain");

    let raw_gbps = (cfg.requests * cfg.granularity) as f64 / report.duration.as_ns().max(1) as f64;
    let delivered = mem.direct_delivered_gbps(raw_gbps); // never staged
    let scale = delivered / raw_gbps.max(1e-12);
    let duration = Dur::from_ns_f64(report.duration.as_ns() as f64 / scale.max(1e-12));
    MicrobenchResult {
        gbps: delivered,
        kiops: cfg.requests as f64 / duration.as_secs_f64() / 1e3,
        duration,
        sm_utilization: 0.0,
        // +1 uncounted polling thread, per the paper's accounting.
        cpu_cores: threads as f64,
        mem_traffic_gbps: mem.traffic_gbps(delivered, false),
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn bench(engine: Engine, n: usize, dir: IoDir) -> MicrobenchResult {
        run_microbench(MicrobenchConfig::new(engine, n, dir))
    }

    #[test]
    fn fig12_thread_cost_curve_is_pinned() {
        // The calibration behind Fig. 12 (shared by SPDK and CAM): 240 ns
        // fixed + 140 ns per SSD the thread juggles, clamped at one SSD.
        assert_eq!(cam_thread_cost(1.0).as_ns(), 380);
        assert_eq!(cam_thread_cost(2.0).as_ns(), 520);
        assert_eq!(cam_thread_cost(4.0).as_ns(), 800);
        assert_eq!(cam_thread_cost(0.5).as_ns(), 380, "clamped below one");
    }

    #[test]
    fn fig2_single_ssd_read_ordering() {
        // POSIX < libaio < io_uring int < io_uring poll ≤ device max.
        let rates: Vec<f64> = [
            Engine::Posix,
            Engine::Libaio,
            Engine::IoUringInt,
            Engine::IoUringPoll,
        ]
        .iter()
        .map(|&e| bench(e, 1, IoDir::Read).kiops)
        .collect();
        assert!(rates[0] < rates[1] && rates[1] < rates[2] && rates[2] < rates[3]);
        let device_max = SsdModel::p5510().peak_iops_4k(Opcode::Read) / 1e3;
        for r in &rates {
            assert!(*r <= device_max * 1.01, "{r} exceeds device {device_max}");
        }
        // POSIX is roughly half the device's capability.
        assert!(rates[0] < device_max * 0.6);
        // io_uring poll is device-bound.
        assert!(rates[3] > device_max * 0.95);
    }

    #[test]
    fn fig8a_read_scales_to_pcie_ceiling() {
        let mut last = 0.0;
        for n in [1, 2, 4, 8, 12] {
            let r = bench(Engine::Cam, n, IoDir::Read);
            assert!(r.gbps >= last * 0.99, "non-monotone at {n} SSDs");
            last = r.gbps;
        }
        // 12 SSDs: ~20 GB/s ("CAM is capable of achieving 20GB/s").
        assert!((19.0..21.5).contains(&last), "12-SSD read = {last}");
        // Low SSD counts scale linearly (~1.75 GB/s per SSD).
        let one = bench(Engine::Cam, 1, IoDir::Read).gbps;
        assert!((1.6..1.9).contains(&one), "1-SSD read = {one}");
    }

    #[test]
    fn fig8_cam_spdk_bam_similar_posix_below() {
        for dir in [IoDir::Read, IoDir::Write] {
            let cam = bench(Engine::Cam, 12, dir).gbps;
            let spdk = bench(Engine::Spdk, 12, dir).gbps;
            let bam = bench(Engine::Bam, 12, dir).gbps;
            let posix = bench(Engine::Posix, 12, dir).gbps;
            assert!(
                (cam - spdk).abs() / cam < 0.15,
                "{dir:?}: cam {cam} spdk {spdk}"
            );
            assert!(
                (cam - bam).abs() / cam < 0.15,
                "{dir:?}: cam {cam} bam {bam}"
            );
            assert!(
                posix < cam * 0.6,
                "{dir:?}: posix {posix} not below cam {cam}"
            );
        }
    }

    #[test]
    fn fig8b_throughput_grows_with_granularity() {
        let mut last = 0.0;
        for shift in 9..=17 {
            let mut cfg = MicrobenchConfig::new(Engine::Cam, 12, IoDir::Read);
            cfg.granularity = 1 << shift;
            cfg.requests = 12 * 2_000;
            let r = run_microbench(cfg);
            assert!(r.gbps >= last * 0.995, "dropped at {}B", 1u64 << shift);
            last = r.gbps;
        }
        assert!(last > 19.0, "large-granularity read = {last}");
    }

    #[test]
    fn fig8c_writes_slower_than_reads() {
        let r = bench(Engine::Cam, 12, IoDir::Read).gbps;
        let w = bench(Engine::Cam, 12, IoDir::Write).gbps;
        assert!(w < r * 0.6, "write {w} vs read {r}");
        assert!((7.0..9.5).contains(&w), "12-SSD write = {w}");
    }

    #[test]
    fn fig12_one_thread_handles_two_ssds_free_four_costs_quarter() {
        let full = {
            let mut c = MicrobenchConfig::new(Engine::Cam, 12, IoDir::Read);
            c.cam_threads = 12;
            run_microbench(c).gbps
        };
        let half = {
            let mut c = MicrobenchConfig::new(Engine::Cam, 12, IoDir::Read);
            c.cam_threads = 6;
            run_microbench(c).gbps
        };
        let quarter = {
            let mut c = MicrobenchConfig::new(Engine::Cam, 12, IoDir::Read);
            c.cam_threads = 3;
            run_microbench(c).gbps
        };
        assert!(
            (half - full).abs() / full < 0.03,
            "2/thread {half} vs {full}"
        );
        let ratio = quarter / full;
        assert!(
            (0.65..0.85).contains(&ratio),
            "4/thread should be ~75%, got {ratio}"
        );
    }

    #[test]
    fn fig14_mem_traffic_double_for_spdk_tiny_for_cam() {
        let spdk = bench(Engine::Spdk, 12, IoDir::Read);
        let cam = bench(Engine::Cam, 12, IoDir::Read);
        assert!((spdk.mem_traffic_gbps - 2.0 * spdk.gbps).abs() < 1e-9);
        assert!(cam.mem_traffic_gbps < 0.05 * spdk.mem_traffic_gbps);
    }

    #[test]
    fn fig15_two_channels_hurt_spdk_not_cam() {
        let mut cfg = MicrobenchConfig::new(Engine::Spdk, 12, IoDir::Read);
        cfg.mem_channels = 2;
        let spdk_2c = run_microbench(cfg).gbps;
        let spdk_16c = bench(Engine::Spdk, 12, IoDir::Read).gbps;
        assert!(spdk_2c < spdk_16c * 0.75, "2c {spdk_2c} vs 16c {spdk_16c}");
        let mut cfg = MicrobenchConfig::new(Engine::Cam, 12, IoDir::Read);
        cfg.mem_channels = 2;
        let cam_2c = run_microbench(cfg).gbps;
        let cam_16c = bench(Engine::Cam, 12, IoDir::Read).gbps;
        assert!((cam_2c - cam_16c).abs() / cam_16c < 0.02);
    }

    #[test]
    fn fig16_noncontiguous_4k_staging_collapses_to_1_3_gbps() {
        let mut cfg = MicrobenchConfig::new(Engine::Spdk, 12, IoDir::Read);
        cfg.noncontig_dest = true;
        cfg.requests = 12 * 4_000;
        let r = run_microbench(cfg);
        assert!((1.1..1.5).contains(&r.gbps), "4K noncontig = {}", r.gbps);
        // Large granularity recovers.
        cfg.granularity = 16 << 20;
        cfg.requests = 256;
        let big = run_microbench(cfg);
        assert!(big.gbps > 15.0, "16MB noncontig = {}", big.gbps);
    }

    #[test]
    fn gds_control_path_dominates() {
        let mut cfg = MicrobenchConfig::new(Engine::Gds, 12, IoDir::Read);
        cfg.granularity = 512 << 10;
        cfg.requests = 2_000;
        let r = run_microbench(cfg);
        assert!((0.6..1.1).contains(&r.gbps), "GDS = {}", r.gbps);
        // Far below what CAM extracts from the same hardware (§ IV-E:
        // "GDS achieves a throughput of only 0.8 GB/s with 12 SSDs,
        // whereas CAM can attain nearly 20 GB/s").
        let mut camcfg = MicrobenchConfig::new(Engine::Cam, 12, IoDir::Read);
        camcfg.granularity = 512 << 10;
        camcfg.requests = 12 * 500;
        let cam = run_microbench(camcfg);
        assert!(
            cam.gbps / r.gbps > 15.0,
            "cam {} vs gds {}",
            cam.gbps,
            r.gbps
        );
    }

    #[test]
    fn traced_run_emits_balanced_sim_events_at_virtual_times() {
        let rec = Arc::new(FlightRecorder::new());
        let mut cfg = MicrobenchConfig::new(Engine::Cam, 2, IoDir::Read);
        cfg.requests = 64;
        cfg.queue_depth = 8;
        let r = run_microbench_traced(cfg, Some(Arc::clone(&rec)));
        assert!(r.gbps > 0.0);
        let events = rec.snapshot();
        let issues = events
            .iter()
            .filter(|e| matches!(e.kind, EventKind::SimIssue { .. }))
            .count();
        let completes = events
            .iter()
            .filter(|e| matches!(e.kind, EventKind::SimComplete { .. }))
            .count();
        assert_eq!(issues, 64);
        assert_eq!(completes, 64);
        // Virtual timestamps: bounded by the simulated duration scale, and
        // every (ssd, req) issue has a matching complete at a later time.
        for e in &events {
            if let EventKind::SimIssue { ssd, req } = e.kind {
                let done = events
                    .iter()
                    .find(|c| c.kind == EventKind::SimComplete { ssd, req })
                    .unwrap_or_else(|| panic!("no completion for ssd{ssd} req{req}"));
                assert!(done.ts_ns >= e.ts_ns);
            }
        }
    }

    #[test]
    fn untraced_run_matches_traced_run() {
        // The recorder must not perturb the model: same config, same result.
        let cfg = MicrobenchConfig::new(Engine::Cam, 2, IoDir::Read);
        let plain = run_microbench(cfg);
        let traced = run_microbench_traced(cfg, Some(Arc::new(FlightRecorder::new())));
        assert_eq!(plain.duration.as_ns(), traced.duration.as_ns());
        assert_eq!(plain.gbps, traced.gbps);
    }

    #[test]
    fn bam_occupies_sms_cam_does_not() {
        let bam = bench(Engine::Bam, 12, IoDir::Read);
        let cam = bench(Engine::Cam, 12, IoDir::Read);
        assert!((bam.sm_utilization - 1.0).abs() < 1e-9);
        assert_eq!(cam.sm_utilization, 0.0);
        assert_eq!(bam.cpu_cores, 0.0);
        assert!(cam.cpu_cores >= 1.0);
    }
}
