//! The DES driver for the CAM protocol layer.
//!
//! The threaded control plane in `cam-core` and this module drive the
//! **same** `cam-protocol` state machines — [`plan_batch`],
//! [`WorkerCore`], [`BatchCore`](cam_protocol::BatchCore) — so every
//! dispatch, submission, retry, and retirement *decision* is shared code,
//! and both run the same [`shell`] around each worker's core: group
//! admission and the lifecycle reports of the [`Command`]s go through it
//! to the [`LifecycleTap`]. Where the threaded driver executes the rest of
//! the commands against real queue pairs on the wall clock, this driver
//! charges them on the calibrated timing models in virtual time, reports
//! each group's submission when its CPU pipe drains, retires batches, and
//! re-admits a worker's waiting groups when one of its groups closes:
//!
//! ```text
//!   Doorbell ──► dispatch pipe (CpuPipeModel) ──► Submit ──► CPU pipe (thread_cost) ──► SSD ──► host PCIe ──► CQE
//!               one planner                       one per worker thread       P5510 model   shared
//! ```
//!
//! The dispatch pipe charges the calibrated per-batch cost the threaded
//! engine's owning worker pays between a doorbell and its groups reaching
//! a reactor — pickup, [`plan_batch`], routing (measured from the threaded
//! engine; see `docs/TIMING.md`) — so `repro bench` decomposes DES
//! batches into the same nonzero dispatch and lane-wait components the
//! threaded driver shows. All channels serialise on the one pipe: exact
//! for one planning worker, an approximation for more (the threaded engine
//! plans channels `ch % W` on *W* workers in parallel).
//!
//! Channels keep the paper's single-outstanding-batch semantics: a
//! channel's next batch publishes the instant the previous one retires, so
//! cross-batch pipelining comes from multiple channels — exactly as in the
//! functional engine. `cam-bench`'s fidelity experiment runs matched
//! workloads on both drivers and asserts the protocol decisions agree.

use std::collections::{HashMap, VecDeque};
use std::mem;
use std::sync::atomic::Ordering;
use std::sync::Arc;

use cam_nvme::spec::{Opcode, Status};
use cam_nvme::{DesSsd, SsdModel};
use cam_protocol::{
    op_index, open_batch, plan_batch, BatchPlan, BatchStamps, ChannelOp, Command, DecisionCounters,
    GroupSpec, HealthTransition, PlanConfig, RetryPolicy, SubmitCmd, WorkerCore,
};
use cam_simkit::{Dur, EventKind, Fire, FlightRecorder, Pipe, Sim, Time};
use cam_telemetry::{BatchFacts, Lane, LifecycleTap, OpsWindows, SloTracker};

use crate::shell::{self, batch_facts};

/// Calibrated cost model for the planning worker's per-batch work:
/// doorbell pickup, request planning ([`plan_batch`]), and group routing.
///
/// The threaded engine pays this cost on a real CPU; the DES charges it on
/// a dedicated dispatch [`Pipe`] in virtual time, so a batch's groups reach
/// their workers `base + per_req · requests` nanoseconds after its
/// doorbell — and back-to-back doorbells queue behind one planner, as
/// they do behind one worker of the threaded driver.
///
/// The committed constants in [`CpuPipeModel::calibrated`] are fitted from
/// the threaded engine's own lifecycle traces by `repro calibrate`
/// (least-squares over per-batch dispatch latencies; see
/// `docs/TIMING.md`). CI re-fits them on every run and uploads the
/// report, but its job is `continue-on-error` while these constants are
/// known stale, so drift beyond 25% does not fail CI.
#[derive(Clone, Copy, Debug, PartialEq)]
pub struct CpuPipeModel {
    /// Fixed per-batch planning/dispatch cost, ns.
    pub dispatch_base_ns: u64,
    /// Incremental cost per request in the batch, ns.
    pub dispatch_per_req_ns: u64,
}

impl CpuPipeModel {
    /// The committed constants fitted from the threaded engine (see
    /// `repro calibrate` and `docs/TIMING.md`): the lower-quartile
    /// per-batch dispatch latency across a 4–64 request sweep fits
    /// `≈ 5 µs + 105 ns/request` on the reference machine. The quartile
    /// is the load-robust floor estimator — repeated quiet-machine
    /// sweeps predict costs within ~8% of this line at every swept
    /// size, comfortably inside the 25% drift gate. (Sweeps taken while
    /// a build still thrashes the machine inflate even the quartile;
    /// `repro calibrate` retries for exactly that case.)
    pub fn calibrated() -> Self {
        CpuPipeModel {
            dispatch_base_ns: 5_000,
            dispatch_per_req_ns: 105,
        }
    }

    /// A free CPU pipe (dispatch is instantaneous). Batches still route
    /// through the dispatch pipe so event ordering is identical; only the
    /// charged cost is zero.
    pub fn zero() -> Self {
        CpuPipeModel {
            dispatch_base_ns: 0,
            dispatch_per_req_ns: 0,
        }
    }

    /// Dispatch cost for one batch of `requests` requests.
    pub fn dispatch_cost(&self, requests: u32) -> Dur {
        Dur::ns(self.dispatch_base_ns + self.dispatch_per_req_ns * u64::from(requests))
    }
}

/// Configuration for one DES CAM run.
#[derive(Clone, Copy, Debug)]
pub struct CamDesConfig {
    /// SSDs in the RAID-0 array.
    pub n_ssds: usize,
    /// Bytes per block.
    pub block_size: u32,
    /// Blocks per stripe unit.
    pub stripe_blocks: u64,
    /// Operation every batch of a fixed [`run_cam_des_obs`] workload carries.
    /// Ignored by [`run_cam_des_source`], where each batch brings its own
    /// op from the [`DesBatchSource`].
    pub op: ChannelOp,
    /// Worker threads modelled (one CPU submit pipe each); SSD `s` belongs
    /// to worker `s % threads`, as in the threaded driver's routing.
    pub threads: usize,
    /// Queue depth per (worker, SSD) lane.
    pub queue_depth: usize,
    /// Pipelined reactor vs. blocking group-at-a-time baseline.
    pub pipelined: bool,
    /// Per-command CPU submit+complete cost (Fig. 12's knob; see
    /// [`crate::des::cam_thread_cost`]).
    pub thread_cost: Dur,
    /// Per-batch planner cost (pickup + planning + dispatch),
    /// charged on a dedicated dispatch pipe before a batch's groups reach
    /// their workers. [`CpuPipeModel::calibrated`] in all the paper
    /// experiments.
    pub cpu_pipe: CpuPipeModel,
    /// Host fabric bandwidth (GB/s) all completions share.
    pub host_gbps: f64,
    /// Retry policy the worker cores run. [`CamDesConfig::inert_retry`]
    /// keeps the machinery live but never triggered (fault-free model).
    pub retry: RetryPolicy,
    /// Transient-fault injection, mirroring `cam-blockdev`'s
    /// `FaultPolicy::transient_reads_in` so matched threaded/DES overload
    /// experiments see the same failure schedule.
    pub fault: Option<DesFaultSpec>,
    /// Calibrated device timing model every SSD in the array runs
    /// ([`SsdModel::p5510`] in all the paper experiments). Exposed so the
    /// regression-gate tests can inject a controlled perturbation (e.g. a
    /// 20% slower read service time) without touching the calibration.
    pub ssd_model: SsdModel,
}

impl CamDesConfig {
    /// The base every DES run starts from, stated once: a fault-free
    /// array of `n_ssds` calibrated P5510s read in 4 KiB blocks, striped
    /// one block per SSD, by `threads` pipelined workers on the calibrated
    /// CPU pipe, each paying [`cam_thread_cost`](crate::des::cam_thread_cost)
    /// for its `n_ssds / threads` queue pairs at the threaded engine's
    /// default queue depth, behind the A100's PCIe link. A site varies
    /// fields by struct update; a refit of the timing model edits here.
    pub fn calibrated(n_ssds: usize, threads: usize) -> Self {
        CamDesConfig {
            n_ssds,
            block_size: 4096,
            stripe_blocks: 1,
            op: ChannelOp::Read,
            threads,
            queue_depth: 1024,
            pipelined: true,
            thread_cost: crate::des::cam_thread_cost(n_ssds as f64 / threads as f64),
            cpu_pipe: CpuPipeModel::calibrated(),
            host_gbps: cam_gpu::GpuSpec::a100_80g().pcie_gbps,
            retry: Self::inert_retry(),
            fault: None,
            ssd_model: SsdModel::p5510(),
        }
    }

    /// The no-retry policy of the fault-free device model: the retry
    /// machinery is live but never triggered (see docs/TIMING.md).
    pub fn inert_retry() -> RetryPolicy {
        RetryPolicy {
            max_retries: 0,
            backoff_base_ns: 0,
            deadline_ns: None,
        }
    }
}

/// Deterministic transient-fault schedule for the DES device model: reads
/// of device LBAs in `[lba_from, lba_to)` on `ssd` fail with
/// [`Status::TransientMediaError`] the first `fail_times` attempts per
/// LBA, then succeed — exactly `cam-blockdev::FaultPolicy`'s
/// `transient_reads_in` semantics, counted per (LBA, read) key.
#[derive(Clone, Copy, Debug)]
pub struct DesFaultSpec {
    /// SSD (lane) the faults land on.
    pub ssd: usize,
    /// First faulty device LBA (inclusive).
    pub lba_from: u64,
    /// End of the faulty device-LBA range (exclusive).
    pub lba_to: u64,
    /// Failures per LBA before reads start succeeding.
    pub fail_times: u32,
}

impl DesFaultSpec {
    /// Reads of `[lba_from, lba_to)` on `ssd` fail `fail_times` times.
    pub fn transient_reads_in(ssd: usize, lba_from: u64, lba_to: u64, fail_times: u32) -> Self {
        DesFaultSpec {
            ssd,
            lba_from,
            lba_to,
            fail_times,
        }
    }
}

/// Observability endpoints for a DES run: the same windowed samplers and
/// SLO tracker the threaded engine feeds, here advanced on virtual time —
/// the windows take their `now_ns` as an argument, which is what makes the
/// two drivers' rollups comparable. The run's [`LifecycleTap`] is built
/// from these plus the recorder; the metrics registry stays off.
#[derive(Clone, Default)]
pub struct CamDesObs {
    /// Rolling-window samplers, advanced at virtual timestamps.
    pub windows: Option<Arc<OpsWindows>>,
    /// SLO tracker fed one sample per retired batch.
    pub slo: Option<Arc<SloTracker>>,
    /// Emit the full batch-lifecycle event stream (doorbell → pickup →
    /// dispatch → submit → complete → retire) on the virtual timeline, so
    /// [`cam_telemetry::attribution::analyze`] attributes DES batches exactly
    /// as it does threaded ones. Off by default: the plain DES trace
    /// artifact stays sim-process-only (issue/complete pairs), which the
    /// fidelity trace validator asserts.
    pub lifecycle: bool,
}

/// One batch to publish on a channel. Destination addresses are
/// synthesized (nothing dereferences them in the timing model), so only
/// the LBAs and the per-request block count matter.
#[derive(Clone, Debug)]
pub struct CamDesBatch {
    /// Logical start blocks, one per request.
    pub lbas: Vec<u64>,
    /// Blocks per request.
    pub blocks: u32,
}

/// A dynamic batch feed for [`run_cam_des_source`]: instead of fixed
/// per-channel queues, the source decides each channel's next batch (and
/// the NVMe op it carries) at the moment the channel frees, on the virtual
/// timeline. This is what lets a closed-loop layer above the protocol — a
/// fair scheduler, an admission controller — make decisions that depend on
/// completions, while the driver keeps the paper's single-outstanding-batch
/// channel semantics.
pub trait DesBatchSource {
    /// The next batch for `channel` at virtual instant `now_ns`, with its
    /// op. `None` leaves the channel idle; the driver re-polls after every
    /// retirement and at [`DesBatchSource::next_ready_ns`]. Returned
    /// batches must be non-empty and carry at least one block per request.
    fn next_batch(&mut self, channel: usize, now_ns: u64) -> Option<(CamDesBatch, ChannelOp)>;

    /// A batch previously returned for `channel` retired at `now_ns` with
    /// `errors` failed commands.
    fn on_retire(&mut self, channel: usize, now_ns: u64, errors: u64) {
        let _ = (channel, now_ns, errors);
    }

    /// Earliest future instant at which new work may appear even if no
    /// retirement happens first (e.g. a token bucket refilling). The driver
    /// arms a calendar timer there whenever a channel is idle. `None`
    /// means only retirements can unblock the source.
    fn next_ready_ns(&mut self, now_ns: u64) -> Option<u64> {
        let _ = now_ns;
        None
    }

    /// Whether the source has no queued, gated, or in-flight work left.
    /// The run asserts this after the calendar drains.
    fn is_drained(&self) -> bool;
}

/// The fixed-workload source behind [`run_cam_des_obs`]: one pre-built queue
/// per channel, every batch carrying the configured op.
struct StaticSource {
    queues: Vec<VecDeque<CamDesBatch>>,
    op: ChannelOp,
}

impl DesBatchSource for StaticSource {
    fn next_batch(&mut self, channel: usize, _now_ns: u64) -> Option<(CamDesBatch, ChannelOp)> {
        self.queues[channel].pop_front().map(|b| (b, self.op))
    }

    fn is_drained(&self) -> bool {
        self.queues.iter().all(VecDeque::is_empty)
    }
}

/// Outcome of a DES CAM run.
#[derive(Clone, Debug)]
pub struct CamDesReport {
    /// Virtual time from first doorbell to last retire.
    pub duration: Dur,
    /// Batches retired.
    pub batches: u64,
    /// Commands completed on the devices.
    pub commands: u64,
    /// Payload bytes moved.
    pub bytes: u64,
    /// Protocol decisions (planning folded with the workers' submission
    /// counters) — comparable 1:1 with the functional driver's.
    pub decisions: DecisionCounters,
    /// Mean doorbell→retire latency per batch, ns.
    pub mean_batch_ns: f64,
    /// Time-weighted mean device in-flight depth per SSD.
    pub inflight_mean: Vec<f64>,
    /// Peak device in-flight depth per SSD.
    pub inflight_peak: Vec<u64>,
    /// Lane-health transitions in occurrence order (including the
    /// end-of-run drain), comparable verbatim with the threaded driver's.
    pub transitions: Vec<HealthTransition>,
    /// Transient faults the device model injected.
    pub faults_injected: u64,
}

/// Per-SSD device-depth accounting (time-weighted integral + peak).
struct LaneStat {
    depth: u64,
    peak: u64,
    integral: u128,
    last_change_ns: u64,
}

/// Everything the driver schedules. There is no closure variant: each
/// command's four hops (CPU, flash, device link, host fabric) are values,
/// so the per-command path cannot allocate an event by construction.
/// Payloads larger than a word wait in the world instead — a command in
/// [`DesWorld::cmds`], a batch in [`DesWorld::dispatching`] — or, off the
/// per-command path, in a box of their own. That keeps this type at 16
/// bytes, so a calendar entry that holds one stays at four words (a unit
/// test pins both).
enum DesEvent {
    /// The dispatch pipe finished the oldest batch in `dispatching`.
    Dispatched,
    /// The source wake-up armed for this instant (ns).
    SourceWake(u64),
    /// Worker `wid`'s protocol timer armed for instant `t` (ns).
    Timer { wid: u32, t: u64 },
    /// The worker's CPU paid for the command: it enters the SSD.
    CpuDone(CmdId),
    /// The SSD served the command: its data crosses the device link.
    FlashDone(CmdId),
    /// The data crossed the device link: it crosses the host fabric.
    LinkDone(CmdId),
    /// The data reached the host: the CQE goes to the worker.
    HostDone(CmdId),
    /// The group's last SQE is in its queue (lifecycle stream only).
    GroupSubmit(Box<GroupSubmit>),
}

/// A command between its CPU cost and its CQE: its slot in
/// [`DesWorld::cmds`].
#[derive(Clone, Copy)]
struct CmdId(u32);

/// The commands on their way through the timing models, each with its
/// worker. Slots are reused, so the table is as large as the most
/// commands ever in flight at once.
#[derive(Default)]
struct Cmds {
    slots: Vec<Option<(usize, SubmitCmd)>>,
    free: Vec<u32>,
}

impl Cmds {
    fn park(&mut self, wid: usize, s: SubmitCmd) -> CmdId {
        let cmd = Some((wid, s));
        match self.free.pop() {
            Some(slot) => {
                self.slots[slot as usize] = cmd;
                CmdId(slot)
            }
            None => {
                let slot = u32::try_from(self.slots.len()).expect("a command id fits 32 bits");
                self.slots.push(cmd);
                CmdId(slot)
            }
        }
    }

    fn get(&self, id: CmdId) -> &SubmitCmd {
        let cmd = self.slots[id.0 as usize].as_ref();
        &cmd.expect("an event names a command in flight").1
    }

    fn take(&mut self, id: CmdId) -> (usize, SubmitCmd) {
        self.free.push(id.0);
        self.slots[id.0 as usize]
            .take()
            .expect("an event names a command in flight")
    }
}

/// A group-submit marker waiting for its instant.
struct GroupSubmit {
    batch: BatchFacts,
    on: Lane,
    sqes: u32,
    recv_ns: u64,
    at: u64,
}

type DesSim = Sim<DesWorld, DesEvent>;

impl Fire<DesWorld> for DesEvent {
    fn fire(self, sim: &mut DesSim, w: &mut DesWorld) {
        match self {
            DesEvent::Dispatched => dispatched(sim, w),
            DesEvent::SourceWake(t) => {
                if w.source_timer_ns == t {
                    w.source_timer_ns = 0;
                }
                publish_all_idle(sim, w);
            }
            DesEvent::Timer { wid, t } => {
                let wid = wid as usize;
                if w.timer_armed[wid] == t {
                    w.timer_armed[wid] = 0;
                }
                pump_worker(sim, w, wid);
            }
            DesEvent::CpuDone(c) => enter_ssd(sim, w, c),
            DesEvent::FlashDone(c) => {
                let s = w.cmds.get(c);
                match w.cmd_bytes(s) {
                    0 => DesEvent::LinkDone(c).fire(sim, w),
                    bytes => w.ssds[s.ssd].dma(sim, bytes, DesEvent::LinkDone(c)),
                }
            }
            DesEvent::LinkDone(c) => {
                let bytes = w.cmd_bytes(w.cmds.get(c));
                sim.post_transfer(w.host, bytes, DesEvent::HostDone(c));
            }
            DesEvent::HostDone(c) => complete_cmd(sim, w, c),
            DesEvent::GroupSubmit(g) => w
                .tap
                .group_submitted(&g.batch, g.on, g.sqes, g.recv_ns, g.at),
        }
    }
}

/// A planned batch waiting on the dispatch pipe.
struct Dispatching {
    plan: BatchPlan,
    ch: usize,
    seq: u64,
    doorbell_ns: u64,
}

struct DesWorld {
    cfg: CamDesConfig,
    plan: PlanConfig,
    cores: Vec<WorkerCore>,
    /// Groups delivered to a worker and not admitted yet (only the
    /// blocking baseline's group-at-a-time admission leaves any here).
    pending: Vec<VecDeque<GroupSpec>>,
    cpus: Vec<Pipe>,
    /// The planner's dispatch pipe: every published batch pays
    /// its [`CpuPipeModel`] cost here before its groups reach the workers.
    dispatcher: Pipe,
    /// The batches on `dispatcher`, in the order it completes them (it is
    /// FIFO), each popped by its [`DesEvent::Dispatched`].
    dispatching: VecDeque<Dispatching>,
    /// The submitted commands not yet completed, named by their events.
    cmds: Cmds,
    /// Per-(worker, ssd) instant the worker's CPU pipe drains the last
    /// submit charged toward that SSD — the virtual time the group's SQEs
    /// are actually in the lane's queue, where the
    /// [`EventKind::GroupSubmit`] marker lands. Indexed `wid * n_ssds +
    /// ssd`.
    lane_submit_done: Vec<u64>,
    ssds: Vec<DesSsd>,
    host: Pipe,
    source: Box<dyn DesBatchSource>,
    n_channels: usize,
    /// Per-channel single-outstanding-batch latch: `true` from publish to
    /// retire.
    channel_busy: Vec<bool>,
    /// Armed source wakeup instant (0 = none) — dedupes calendar timers
    /// for admission-gated work while every channel is idle.
    source_timer_ns: u64,
    seqs: Vec<u64>,
    /// Reused command buffer (taken/restored around protocol calls).
    scratch: Vec<Command>,
    decisions: DecisionCounters,
    batches_done: u64,
    batch_total_ns: u128,
    completed: u64,
    bytes_done: u64,
    issued_ord: Vec<u64>,
    done_ord: Vec<u64>,
    lanes: Vec<LaneStat>,
    /// Per-(ssd, device LBA) read attempts, for the transient-fault spec.
    attempts: HashMap<(usize, u64), u32>,
    transitions: Vec<HealthTransition>,
    faults_injected: u64,
    /// The lifecycle observer (no metrics registry on this driver).
    tap: LifecycleTap,
    /// Per-worker armed wake time (0 = none) — dedupes calendar wakeups
    /// for backoff-gated retries.
    timer_armed: Vec<u64>,
}

impl DesWorld {
    /// Payload bytes `s` moves.
    fn cmd_bytes(&self, s: &SubmitCmd) -> u64 {
        u64::from(s.blocks) * u64::from(self.cfg.block_size)
    }
}

/// Publishes the channel's next batch, if any: pull it from the source,
/// plan it, open it ([`open_batch`]), and deliver its per-SSD groups to
/// their workers.
fn publish_next(sim: &mut DesSim, w: &mut DesWorld, ch: usize) {
    if w.channel_busy[ch] {
        return;
    }
    let now = sim.now().as_ns();
    let Some((batch, op)) = w.source.next_batch(ch, now) else {
        return;
    };
    assert!(
        !batch.lbas.is_empty(),
        "published batches must be non-empty"
    );
    // The threaded driver refuses the same batch at publish
    // (`CamError::ZeroBlocks`): it would plan no command, so nothing would
    // ever retire it.
    assert!(
        batch.blocks > 0,
        "published batches must carry at least one block per request"
    );
    w.channel_busy[ch] = true;
    w.seqs[ch] += 1;
    let seq = w.seqs[ch];
    let bytes_per_req = u64::from(batch.blocks) * u64::from(w.cfg.block_size);
    let reqs: Vec<(u64, u64)> = batch
        .lbas
        .iter()
        .enumerate()
        .map(|(i, &lba)| (lba, i as u64 * bytes_per_req))
        .collect();
    let n_requests = reqs.len() as u32;
    let plan = plan_batch(&w.plan, op, batch.blocks, reqs);
    w.decisions.record_plan(&plan);
    let (dedup_dropped, stripe_splits) = (plan.dups.len() as u64, plan.stripe_splits);
    let (has_groups, op_idx, requests) = (plan.n_groups() > 0, op_index(plan.op), plan.requests);
    let cost = w.cfg.cpu_pipe.dispatch_cost(n_requests);
    // Groups reach their workers when the planner finishes the batch's
    // planning/dispatch work — back-to-back doorbells serialize behind the
    // one dispatch pipe, as behind one planning worker of the threaded
    // engine.
    w.dispatching.push_back(Dispatching {
        plan,
        ch,
        seq,
        doorbell_ns: now,
    });
    let done = sim.post_work(w.dispatcher, cost, DesEvent::Dispatched);
    if has_groups {
        let b = BatchFacts {
            channel: ch,
            seq,
            op: op_idx,
            requests,
            doorbell_ns: now,
            pickup_ns: now,
            dispatched_ns: done.as_ns(),
            compute_gap_ns: 0,
        };
        w.tap.batch_pickup(&b, dedup_dropped, stripe_splits);
    }
}

/// The dispatch pipe finished planning its oldest batch: open it and hand
/// its per-SSD groups to their workers.
fn dispatched(sim: &mut DesSim, w: &mut DesWorld) {
    let d = w
        .dispatching
        .pop_front()
        .expect("a dispatch completion has its batch");
    // Doorbell and pickup coincide in virtual time: the DES has no polling
    // delay, so the doorbell-wait component is structurally 0. Dispatch is
    // NOT free: the planner paid the calibrated per-batch planning cost on
    // its pipe, which completes now.
    let at = BatchStamps {
        doorbell_ns: d.doorbell_ns,
        pickup_ns: d.doorbell_ns,
        dispatched_ns: sim.now().as_ns(),
        compute_gap_ns: 0,
    };
    for spec in open_batch(d.plan, d.ch, d.seq, at) {
        let wid = spec.ssd % w.cores.len();
        w.pending[wid].push_back(spec);
        admit_pending(sim, w, wid);
    }
}

/// Offers every idle channel to the source, then arms a wakeup at the
/// source's next time-gated readiness instant so admission-throttled work
/// makes progress even with nothing left on the calendar.
fn publish_all_idle(sim: &mut DesSim, w: &mut DesWorld) {
    for ch in 0..w.n_channels {
        publish_next(sim, w, ch);
    }
    if w.channel_busy.iter().all(|&b| b) {
        return; // a retirement is pending; it will re-poll the source
    }
    let now = sim.now().as_ns();
    let Some(t) = w.source.next_ready_ns(now) else {
        return;
    };
    let t = t.max(now + 1);
    if w.source_timer_ns == t {
        return;
    }
    w.source_timer_ns = t;
    sim.post_at(Time::from_ns(t), DesEvent::SourceWake(t));
}

/// Admits the worker's waiting groups by the core's rule (the blocking
/// baseline takes one while none is open; pipelined admission never holds
/// one back) and, when it took any, pumps.
fn admit_pending(sim: &mut DesSim, w: &mut DesWorld, wid: usize) {
    let now = sim.now().as_ns();
    if shell::admit(
        &mut w.cores[wid],
        &w.tap,
        wid,
        &mut w.pending[wid],
        || now,
        drop,
    ) {
        pump_worker(sim, w, wid);
    }
}

/// One protocol submission pass for `wid` at the current virtual time.
fn pump_worker(sim: &mut DesSim, w: &mut DesWorld, wid: usize) {
    let now = sim.now().as_ns();
    let mut out = mem::take(&mut w.scratch);
    w.cores[wid].pump(now, &mut out);
    execute(sim, w, wid, &mut out);
    w.scratch = out;
    arm_timer(sim, w, wid);
}

/// Schedules a calendar wakeup at the worker's earliest pending protocol
/// timer (retry backoff / deadline), so a lone backoff-gated command makes
/// progress even when nothing else is on the calendar. Deduped per worker.
fn arm_timer(sim: &mut DesSim, w: &mut DesWorld, wid: usize) {
    let Some(t) = w.cores[wid].next_timer_ns() else {
        return;
    };
    if t <= sim.now().as_ns() || w.timer_armed[wid] == t {
        return;
    }
    w.timer_armed[wid] = t;
    let wid = wid as u32;
    sim.post_at(Time::from_ns(t), DesEvent::Timer { wid, t });
}

/// Executes drained protocol commands against the timing models.
fn execute(sim: &mut DesSim, w: &mut DesWorld, wid: usize, out: &mut Vec<Command>) {
    for cmd in out.drain(..) {
        match cmd {
            Command::Submit(s) => {
                // The worker thread pays its per-command cost on its CPU
                // pipe; the command enters the device when the CPU is done
                // with it.
                let cpu = w.cpus[wid];
                let cost = w.cfg.thread_cost;
                let lane = wid * w.cfg.n_ssds + s.ssd;
                let id = w.cmds.park(wid, s);
                let done = sim.post_work(cpu, cost, DesEvent::CpuDone(id));
                w.lane_submit_done[lane] = w.lane_submit_done[lane].max(done.as_ns());
            }
            // Doorbell rings are free here: their cost is folded into
            // `thread_cost`, and the decision counters live in the
            // protocol core itself.
            Command::RingDoorbell { .. } => {}
            Command::GroupSubmitted {
                batch,
                ssd,
                sqes,
                recv_ns,
                ..
            } => {
                // The submit marker lands when the worker's CPU pipe drains
                // the group's last SQE — the protocol raises the command
                // the instant the submit is *decided*, but the queue entry
                // exists only once the CPU paid for it. This is the DES's
                // lane-wait component.
                let lane = wid * w.cfg.n_ssds + ssd;
                let at = w.lane_submit_done[lane].max(sim.now().as_ns());
                let (batch, on) = (batch_facts(&batch), Lane { ssd, worker: wid });
                if w.tap.lifecycle {
                    // With the event stream on, report from the calendar,
                    // so the marker takes its place among the device
                    // events of that instant.
                    let g = GroupSubmit {
                        batch,
                        on,
                        sqes,
                        recv_ns,
                        at,
                    };
                    sim.post_at(Time::from_ns(at), DesEvent::GroupSubmit(Box::new(g)));
                } else {
                    w.tap.group_submitted(&batch, on, sqes, recv_ns, at);
                }
            }
            Command::RetireBatch { batch, complete_ns } => {
                let errors = batch.errors.load(Ordering::Relaxed);
                // Retirement is instantaneous in virtual time (the retire
                // component is structurally 0) and releases nothing.
                let total_ns = w.tap.batch_retire(
                    &batch_facts(&batch),
                    errors,
                    complete_ns,
                    complete_ns,
                    || (),
                );
                w.batches_done += 1;
                w.batch_total_ns += u128::from(total_ns);
                // Single-outstanding-batch channels: retirement frees the
                // channel and re-polls the source (the closed loop of
                // Fig. 7). Every idle channel is offered, because a
                // completion on one channel can unblock work on another
                // (e.g. a read retiring admits a session's write-back).
                w.channel_busy[batch.channel] = false;
                w.source.on_retire(batch.channel, complete_ns, errors);
                publish_all_idle(sim, w);
            }
            // Retries, timeouts, lane transitions, group completions. The
            // DES also keeps its transitions for the report (sequence
            // comparison across drivers) and re-admits after a group
            // closes.
            lifecycle => {
                shell::report(&w.tap, wid, &lifecycle);
                match lifecycle {
                    Command::LaneTransition { transition, .. } => w.transitions.push(transition),
                    Command::GroupComplete { .. } => admit_pending(sim, w, wid),
                    _ => {}
                }
            }
        }
    }
}

/// A command clears its CPU cost and enters the device.
fn enter_ssd(sim: &mut DesSim, w: &mut DesWorld, c: CmdId) {
    let s = *w.cmds.get(c);
    sim.emit(EventKind::SimIssue {
        ssd: s.ssd as u16,
        req: w.issued_ord[s.ssd],
    });
    w.issued_ord[s.ssd] += 1;
    let now = sim.now().as_ns();
    bump_depth(w, s.ssd, now, 1);
    let op = match s.op {
        ChannelOp::Read => Opcode::Read,
        ChannelOp::Write => Opcode::Write,
    };
    let bytes = w.cmd_bytes(&s);
    w.ssds[s.ssd].serve(sim, op, bytes, DesEvent::FlashDone(c));
}

/// Applies the transient-fault schedule to one device completion.
fn fault_status(sim: &DesSim, w: &mut DesWorld, s: &SubmitCmd) -> Status {
    let Some(f) = w.cfg.fault else {
        return Status::Success;
    };
    if s.op != ChannelOp::Read || s.ssd != f.ssd || s.dev_lba < f.lba_from || s.dev_lba >= f.lba_to
    {
        return Status::Success;
    }
    let seen = w.attempts.entry((s.ssd, s.dev_lba)).or_insert(0);
    if *seen < f.fail_times {
        *seen += 1;
        w.faults_injected += 1;
        sim.emit(EventKind::FaultInjected {
            lba: s.dev_lba,
            read: true,
        });
        Status::TransientMediaError
    } else {
        Status::Success
    }
}

/// The command's payload crossed the host fabric: reap its CQE into the
/// protocol core and pump whatever the freed depth admits.
fn complete_cmd(sim: &mut DesSim, w: &mut DesWorld, c: CmdId) {
    let (wid, s) = w.cmds.take(c);
    sim.emit(EventKind::SimComplete {
        ssd: s.ssd as u16,
        req: w.done_ord[s.ssd],
    });
    w.done_ord[s.ssd] += 1;
    let status = fault_status(sim, w, &s);
    if status == Status::Success {
        w.completed += 1;
        w.bytes_done += w.cmd_bytes(&s);
    }
    let now = sim.now().as_ns();
    bump_depth(w, s.ssd, now, -1);
    let mut out = mem::take(&mut w.scratch);
    w.cores[wid].on_cqe(s.ssd, s.cid, status, now, &mut out);
    execute(sim, w, wid, &mut out);
    w.scratch = out;
    pump_worker(sim, w, wid);
}

/// Advances the SSD's time-weighted depth integral and applies `delta`.
fn bump_depth(w: &mut DesWorld, ssd: usize, now: u64, delta: i64) {
    let lane = &mut w.lanes[ssd];
    lane.integral += u128::from(lane.depth) * u128::from(now - lane.last_change_ns);
    lane.last_change_ns = now;
    lane.depth = lane
        .depth
        .checked_add_signed(delta)
        .expect("depth underflow");
    if lane.depth > lane.peak {
        lane.peak = lane.depth;
    }
}

/// Runs the CAM protocol layer over the DES timing models until every
/// channel's batches have retired. Deterministic: same inputs, same
/// virtual-time outcome; an attached recorder observes
/// [`EventKind::SimIssue`]/[`EventKind::SimComplete`] pairs without
/// perturbing the model. The run feeds `obs`'s rolling windows and SLO
/// tracker at virtual timestamps, exactly as the threaded engine feeds its
/// own at wall timestamps ([`CamDesObs::default`] attaches none).
pub fn run_cam_des_obs(
    cfg: CamDesConfig,
    channels: Vec<Vec<CamDesBatch>>,
    recorder: Option<Arc<FlightRecorder>>,
    obs: CamDesObs,
) -> CamDesReport {
    assert!(!channels.is_empty(), "at least one channel");
    let n_channels = channels.len();
    let source = StaticSource {
        queues: channels.into_iter().map(VecDeque::from).collect(),
        op: cfg.op,
    };
    run_cam_des_source(cfg, n_channels, Box::new(source), recorder, obs)
}

/// Runs the CAM protocol layer over the DES timing models with a dynamic
/// [`DesBatchSource`] feeding the channels (the serving front-end's entry
/// point). `cfg.op` is ignored — each batch carries the op the source
/// returns. The run ends when the calendar drains, and asserts the source
/// reports itself drained (a source stalled with work left and no
/// [`DesBatchSource::next_ready_ns`] wakeup is a scheduling bug).
pub fn run_cam_des_source(
    cfg: CamDesConfig,
    n_channels: usize,
    source: Box<dyn DesBatchSource>,
    recorder: Option<Arc<FlightRecorder>>,
    obs: CamDesObs,
) -> CamDesReport {
    assert!(cfg.n_ssds >= 1 && cfg.threads >= 1 && cfg.queue_depth >= 1);
    assert!(n_channels >= 1, "at least one channel");
    let mut sim = DesSim::default();
    let tap = LifecycleTap {
        metrics: None,
        recorder: recorder.clone(),
        lifecycle: obs.lifecycle,
        windows: obs.windows,
        slo: obs.slo,
    };
    if let Some(rec) = recorder {
        sim.attach_recorder(rec);
    }
    let ssds: Vec<DesSsd> = (0..cfg.n_ssds)
        .map(|_| DesSsd::new(&mut sim, cfg.ssd_model))
        .collect();
    let host = sim.new_pipe(cfg.host_gbps);
    let cpus: Vec<Pipe> = (0..cfg.threads).map(|_| sim.new_pipe(1.0)).collect();
    let dispatcher = sim.new_pipe(1.0);
    let retry = cfg.retry;
    let mut w = DesWorld {
        plan: PlanConfig {
            n_ssds: cfg.n_ssds,
            stripe_blocks: cfg.stripe_blocks,
            block_size: cfg.block_size,
        },
        cores: (0..cfg.threads)
            .map(|_| {
                WorkerCore::new(cfg.n_ssds, cfg.queue_depth, retry).group_at_a_time(!cfg.pipelined)
            })
            .collect(),
        pending: (0..cfg.threads).map(|_| VecDeque::new()).collect(),
        cpus,
        dispatcher,
        dispatching: VecDeque::new(),
        cmds: Cmds::default(),
        lane_submit_done: vec![0; cfg.threads * cfg.n_ssds],
        ssds,
        host,
        source,
        n_channels,
        channel_busy: vec![false; n_channels],
        source_timer_ns: 0,
        seqs: vec![0; n_channels],
        scratch: Vec::new(),
        decisions: DecisionCounters::default(),
        batches_done: 0,
        batch_total_ns: 0,
        completed: 0,
        bytes_done: 0,
        issued_ord: vec![0; cfg.n_ssds],
        done_ord: vec![0; cfg.n_ssds],
        lanes: (0..cfg.n_ssds)
            .map(|_| LaneStat {
                depth: 0,
                peak: 0,
                integral: 0,
                last_change_ns: 0,
            })
            .collect(),
        attempts: HashMap::new(),
        transitions: Vec::new(),
        faults_injected: 0,
        tap,
        timer_armed: vec![0; cfg.threads],
        cfg,
    };
    publish_all_idle(&mut sim, &mut w);
    let end = sim.run(&mut w);
    let end_ns = end.as_ns();
    // End-of-calendar drain: every lane is quiesced, so degraded or
    // overloaded lanes are declared recovered — the same drain the
    // threaded engine performs in `Engine::stop` after joining workers.
    for wid in 0..w.cores.len() {
        let mut out = mem::take(&mut w.scratch);
        w.cores[wid].drain_lanes(end_ns, &mut out);
        execute(&mut sim, &mut w, wid, &mut out);
        w.scratch = out;
    }
    assert!(w.source.is_drained(), "every batch must publish");
    assert!(
        !w.channel_busy.iter().any(|&b| b),
        "every published batch must retire"
    );
    assert!(
        w.cores.iter().all(WorkerCore::idle) && w.pending.iter().all(VecDeque::is_empty),
        "every group must close"
    );
    let mut decisions = w.decisions;
    for core in &w.cores {
        let k = core.counters();
        decisions.sqes += k.sqes;
        decisions.retries += k.retries;
        decisions.timeouts += k.timeouts;
    }
    let inflight_mean = w
        .lanes
        .iter()
        .map(|l| {
            // Depth is 0 at the end, so the integral is already complete.
            l.integral as f64 / end_ns.max(1) as f64
        })
        .collect();
    CamDesReport {
        duration: Dur::ns(end_ns),
        batches: w.batches_done,
        commands: w.completed,
        bytes: w.bytes_done,
        decisions,
        mean_batch_ns: w.batch_total_ns as f64 / w.batches_done.max(1) as f64,
        inflight_mean,
        inflight_peak: w.lanes.iter().map(|l| l.peak).collect(),
        transitions: w.transitions,
        faults_injected: w.faults_injected,
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn cfg(n_ssds: usize, pipelined: bool) -> CamDesConfig {
        CamDesConfig {
            n_ssds,
            block_size: 4096,
            stripe_blocks: 1,
            op: ChannelOp::Read,
            threads: 1,
            queue_depth: 64,
            pipelined,
            thread_cost: Dur::ns(380),
            cpu_pipe: CpuPipeModel::calibrated(),
            host_gbps: 21.0,
            retry: CamDesConfig::inert_retry(),
            fault: None,
            ssd_model: SsdModel::p5510(),
        }
    }

    /// Every calendar entry, lane entry and server slot holds a
    /// `DesEvent`, so a field that grows it slows every command. At 16
    /// bytes, with its tag leaving room beside it, a heap entry (key +
    /// event) stays at the four words the calendar pins for closures: one
    /// word more costs a quarter of the plain-event path.
    #[test]
    fn a_des_event_keeps_the_heap_entry_at_four_words() {
        assert_eq!(std::mem::size_of::<DesEvent>(), 16);
        assert_eq!(DesSim::ENTRY_BYTES, 32);
    }

    /// An unobserved fixed-workload run.
    fn run(cfg: CamDesConfig, channels: Vec<Vec<CamDesBatch>>) -> CamDesReport {
        run_cam_des_obs(cfg, channels, None, CamDesObs::default())
    }

    fn seq_batch(base: u64, n: u64) -> CamDesBatch {
        CamDesBatch {
            lbas: (base..base + n).collect(),
            blocks: 1,
        }
    }

    #[test]
    #[should_panic(expected = "published batches must carry at least one block per request")]
    fn a_zero_block_batch_is_refused_where_it_is_published() {
        let batch = CamDesBatch {
            lbas: vec![0, 1],
            blocks: 0,
        };
        run(cfg(2, true), vec![vec![batch]]);
    }

    #[test]
    fn closed_loop_drains_and_counts_every_decision() {
        let r = run(cfg(2, true), vec![vec![seq_batch(0, 8), seq_batch(8, 8)]]);
        assert_eq!(r.batches, 2);
        assert_eq!(r.commands, 16);
        assert_eq!(r.bytes, 16 * 4096);
        assert_eq!(r.decisions.batches, 2);
        assert_eq!(r.decisions.requests, 16);
        assert_eq!(r.decisions.sqes, 16);
        assert_eq!(r.decisions.dedup_dropped, 0);
        assert_eq!(r.decisions.stripe_splits, 0);
        assert_eq!(r.decisions.groups, 4, "two per-SSD groups per batch");
        assert_eq!(r.decisions.retries, 0);
        assert_eq!(r.decisions.timeouts, 0);
        assert!(r.duration > Dur::ZERO && r.mean_batch_ns > 0.0);
        assert!(r.inflight_peak.iter().all(|&p| p >= 1));
    }

    #[test]
    fn des_decisions_match_a_pure_plan_replay() {
        // Duplicates and stripe crossings: the driver must report exactly
        // what plan_batch decides, plus one first submission per run.
        let plan_cfg = PlanConfig {
            n_ssds: 2,
            stripe_blocks: 2,
            block_size: 4096,
        };
        let batches = [
            CamDesBatch {
                lbas: vec![1, 5, 1, 9],
                blocks: 2,
            },
            CamDesBatch {
                lbas: vec![4, 4, 6],
                blocks: 2,
            },
        ];
        let expected = cam_protocol::replay_plan_workload(
            &plan_cfg,
            ChannelOp::Read,
            batches.iter().map(|b| (b.lbas.as_slice(), b.blocks)),
        );
        let mut c = cfg(2, true);
        c.stripe_blocks = 2;
        let r = run(c, vec![batches.to_vec()]);
        assert_eq!(r.decisions, expected);
        assert_eq!(r.commands, expected.sqes);
    }

    #[test]
    fn pipelined_channels_overlap_blocking_ones_serialize() {
        let channels = || {
            vec![
                vec![seq_batch(0, 16), seq_batch(16, 16)],
                vec![seq_batch(1 << 32, 16), seq_batch((1 << 32) + 16, 16)],
            ]
        };
        let piped = run(cfg(1, true), channels());
        let blocking = run(cfg(1, false), channels());
        assert_eq!(piped.commands, blocking.commands);
        assert_eq!(
            piped.decisions, blocking.decisions,
            "decisions are timing-independent"
        );
        assert!(
            piped.duration < blocking.duration,
            "overlap must win: {:?} vs {:?}",
            piped.duration,
            blocking.duration
        );
        assert!(
            piped.inflight_peak[0] > blocking.inflight_peak[0],
            "pipelining deepens the device queue: {} vs {}",
            piped.inflight_peak[0],
            blocking.inflight_peak[0]
        );
        assert!(piped.inflight_mean[0] > blocking.inflight_mean[0]);
    }

    #[test]
    fn transient_faults_retry_and_walk_the_health_states() {
        use cam_protocol::HealthState;
        let mut c = cfg(1, true);
        c.retry = RetryPolicy {
            max_retries: 3,
            backoff_base_ns: 0,
            deadline_ns: None,
        };
        c.fault = Some(DesFaultSpec::transient_reads_in(0, 0, 16, 2));
        let r = run(c, vec![vec![seq_batch(0, 16)]]);
        assert_eq!(r.faults_injected, 32, "each of 16 LBAs fails twice");
        assert_eq!(r.decisions.retries, 32);
        assert_eq!(r.commands, 16, "every request eventually succeeds");
        assert_eq!(r.batches, 1);
        let seq: Vec<(HealthState, HealthState, u64)> = r
            .transitions
            .iter()
            .map(|t| (t.from, t.to, t.faults))
            .collect();
        assert_eq!(
            seq,
            vec![
                (HealthState::Healthy, HealthState::Degraded, 1),
                (HealthState::Degraded, HealthState::Overloaded, 8),
                (HealthState::Overloaded, HealthState::Recovered, 32),
            ]
        );
        // Determinism: the schedule is pure virtual time, so a re-run
        // reproduces the transition sequence verbatim.
        let mut c2 = cfg(1, true);
        c2.retry = c.retry;
        c2.fault = c.fault;
        let r2 = run(c2, vec![vec![seq_batch(0, 16)]]);
        assert_eq!(r2.transitions, r.transitions);
    }

    #[test]
    fn retries_and_timeouts_are_told_apart_in_windows_and_events() {
        use cam_telemetry::{OpsWindows, WindowConfig};
        // Every read of LBA 0 fails; the deadline expires after a few
        // backed-off retries. The windowed retry rate counts the retries
        // only (as the threaded driver and docs/OBSERVABILITY.md do), and
        // the lifecycle stream carries one event per retry and per timeout.
        let mut c = cfg(1, true);
        c.retry = RetryPolicy {
            max_retries: 100,
            backoff_base_ns: 50_000,
            deadline_ns: Some(400_000),
        };
        c.fault = Some(DesFaultSpec::transient_reads_in(0, 0, 1, u32::MAX));
        let windows = Arc::new(OpsWindows::new(WindowConfig::new(4_000_000_000, 4), 1, 1));
        let rec = Arc::new(FlightRecorder::new());
        let obs = CamDesObs {
            windows: Some(Arc::clone(&windows)),
            slo: None,
            lifecycle: true,
        };
        let r = run_cam_des_obs(c, vec![vec![seq_batch(0, 4)]], Some(Arc::clone(&rec)), obs);
        assert!(r.decisions.retries >= 2, "{:?}", r.decisions);
        assert_eq!(r.decisions.timeouts, 1);
        let (retried, groups) = windows.ssd_retries[0].sums_at(r.duration.as_ns());
        assert_eq!(retried, r.decisions.retries, "timeouts are not retries");
        assert_eq!(groups, 1);
        let events = rec.snapshot();
        let count = |pick: fn(&EventKind) -> bool| lifecycle_ts(&events, pick).len() as u64;
        assert_eq!(
            count(|k| matches!(k, EventKind::CmdRetry { .. })),
            r.decisions.retries
        );
        assert_eq!(count(|k| matches!(k, EventKind::CmdTimeout { .. })), 1);
    }

    #[test]
    fn backoff_gated_retry_arms_a_calendar_timer() {
        // One faulty single-command batch with a long backoff: with no
        // other calendar events pending, only the armed timer can make the
        // retry progress.
        let mut c = cfg(1, true);
        c.retry = RetryPolicy {
            max_retries: 2,
            backoff_base_ns: 2_000_000,
            deadline_ns: None,
        };
        c.fault = Some(DesFaultSpec::transient_reads_in(0, 0, 1, 1));
        let r = run(c, vec![vec![seq_batch(0, 1)]]);
        assert_eq!(r.commands, 1);
        assert_eq!(r.decisions.retries, 1);
        assert!(
            r.duration.as_ns() >= 2_000_000,
            "retry waited out its backoff in virtual time: {:?}",
            r.duration
        );
    }

    #[test]
    fn virtual_time_drives_window_rollover_exactly() {
        use cam_telemetry::{OpsWindows, SloConfig, SloTracker, WindowConfig};
        // One-second slots: the whole (microsecond-scale) run lands in
        // epoch 0, so the merged window must hold every batch at any
        // instant before the rollover boundary and none at the boundary.
        let wcfg = WindowConfig::new(4_000_000_000, 4);
        let windows = Arc::new(OpsWindows::new(wcfg, 1, 1));
        let slo = Arc::new(SloTracker::new(SloConfig::default(), 1));
        let obs = CamDesObs {
            windows: Some(Arc::clone(&windows)),
            slo: Some(Arc::clone(&slo)),
            lifecycle: false,
        };
        let r = run_cam_des_obs(
            cfg(1, true),
            vec![vec![seq_batch(0, 8), seq_batch(8, 8)]],
            None,
            obs,
        );
        assert!(r.duration.as_ns() < 1_000_000_000, "run fits in slot 0");
        let boundary = 4 * 1_000_000_000u64;
        assert_eq!(windows.channel_batch[0].count_at(boundary - 1), 2);
        assert_eq!(
            windows.channel_batch[0].count_at(boundary),
            0,
            "window rolls over at the exact virtual-time boundary"
        );
        // No wall-clock leakage: a bit-identical re-run fills the windows
        // identically, whatever wall time elapsed in between.
        let windows2 = Arc::new(OpsWindows::new(wcfg, 1, 1));
        let obs2 = CamDesObs {
            windows: Some(Arc::clone(&windows2)),
            slo: None,
            lifecycle: false,
        };
        let r2 = run_cam_des_obs(
            cfg(1, true),
            vec![vec![seq_batch(0, 8), seq_batch(8, 8)]],
            None,
            obs2,
        );
        assert_eq!(r2.duration.as_ns(), r.duration.as_ns());
        let end = r.duration.as_ns();
        assert_eq!(
            windows.channel_batch[0].quantile_at(end, 0.5),
            windows2.channel_batch[0].quantile_at(end, 0.5)
        );
        let burn = slo.burn_rate(0, end);
        assert_eq!(burn.short, 0.0, "fault-free run burns no error budget");
    }

    #[test]
    fn health_state_labels_align_with_protocol_codes() {
        use cam_protocol::HealthState;
        for s in [
            HealthState::Healthy,
            HealthState::Degraded,
            HealthState::Overloaded,
            HealthState::Recovered,
        ] {
            assert_eq!(cam_telemetry::health_state_label(s.code()), s.name());
        }
        assert_eq!(cam_telemetry::health_state_label(200), "unknown");
    }

    /// A closed-loop source: channel 0 reads, channel 1 writes, and the
    /// write for round `k` is gated on round `k`'s read retiring — plus a
    /// token-style time gate that only `next_ready_ns` can clear.
    struct LoopSource {
        rounds: u64,
        published_reads: u64,
        retired_reads: u64,
        published_writes: u64,
        /// Virtual instant before which nothing may publish.
        gate_ns: u64,
    }

    impl DesBatchSource for LoopSource {
        fn next_batch(&mut self, ch: usize, now_ns: u64) -> Option<(CamDesBatch, ChannelOp)> {
            if now_ns < self.gate_ns {
                return None;
            }
            match ch {
                0 if self.published_reads < self.rounds => {
                    let base = self.published_reads * 8;
                    self.published_reads += 1;
                    Some((seq_batch(base, 8), ChannelOp::Read))
                }
                1 if self.published_writes < self.retired_reads => {
                    let base = 1024 + self.published_writes * 8;
                    self.published_writes += 1;
                    Some((seq_batch(base, 8), ChannelOp::Write))
                }
                _ => None,
            }
        }

        fn on_retire(&mut self, ch: usize, _now_ns: u64, errors: u64) {
            assert_eq!(errors, 0);
            if ch == 0 {
                self.retired_reads += 1;
            }
        }

        fn next_ready_ns(&mut self, now_ns: u64) -> Option<u64> {
            (now_ns < self.gate_ns).then_some(self.gate_ns)
        }

        fn is_drained(&self) -> bool {
            self.published_reads == self.rounds && self.published_writes == self.rounds
        }
    }

    #[test]
    fn dynamic_source_drives_mixed_ops_through_a_time_gate() {
        let rounds = 3u64;
        let gate_ns = 5_000_000u64;
        let r = run_cam_des_source(
            cfg(2, true),
            2,
            Box::new(LoopSource {
                rounds,
                published_reads: 0,
                retired_reads: 0,
                published_writes: 0,
                gate_ns,
            }),
            None,
            CamDesObs::default(),
        );
        assert_eq!(r.batches, 2 * rounds, "reads plus gated write-backs");
        assert_eq!(r.commands, 2 * rounds * 8);
        assert!(
            r.duration.as_ns() >= gate_ns,
            "the armed source timer waited out the gate: {:?}",
            r.duration
        );
        // Determinism: the dynamic path is as replayable as the static one.
        let r2 = run_cam_des_source(
            cfg(2, true),
            2,
            Box::new(LoopSource {
                rounds,
                published_reads: 0,
                retired_reads: 0,
                published_writes: 0,
                gate_ns,
            }),
            None,
            CamDesObs::default(),
        );
        assert_eq!(r2.duration.as_ns(), r.duration.as_ns());
        assert_eq!(r2.decisions, r.decisions);
    }

    /// Lifecycle timestamps for `(kind_match)` events from a recorded run.
    fn lifecycle_ts(
        events: &[cam_telemetry::Event],
        pick: impl Fn(&EventKind) -> bool,
    ) -> Vec<u64> {
        events
            .iter()
            .filter(|e| pick(&e.kind))
            .map(|e| e.ts_ns)
            .collect()
    }

    #[test]
    fn dispatch_pipe_defers_delivery_and_submit_markers() {
        let run = |pipe: CpuPipeModel| {
            let mut c = cfg(2, true);
            c.cpu_pipe = pipe;
            let rec = Arc::new(FlightRecorder::new());
            let obs = CamDesObs {
                windows: None,
                slo: None,
                lifecycle: true,
            };
            run_cam_des_obs(
                c,
                vec![vec![seq_batch(0, 8), seq_batch(8, 8)]],
                Some(Arc::clone(&rec)),
                obs,
            );
            rec.snapshot()
        };
        let events = run(CpuPipeModel {
            dispatch_base_ns: 1_000,
            dispatch_per_req_ns: 50,
        });
        let pickups = lifecycle_ts(&events, |k| matches!(k, EventKind::BatchPickup { .. }));
        let dispatches = lifecycle_ts(&events, |k| matches!(k, EventKind::GroupDispatch { .. }));
        let submits = lifecycle_ts(&events, |k| matches!(k, EventKind::GroupSubmit { .. }));
        assert_eq!(pickups.len(), 2);
        assert_eq!(dispatches.len(), 4, "two SSDs per batch");
        assert_eq!(submits.len(), 4);
        // 8 requests: every group dispatches exactly base + 8*per_req
        // after its pickup — the calibrated CPU planning cost, nonzero.
        for (i, &d) in dispatches.iter().enumerate() {
            let pickup = pickups[i / 2];
            assert_eq!(d - pickup, 1_000 + 8 * 50, "dispatch charges the pipe");
        }
        // Submit markers land when the worker CPU drains the group's
        // SQEs: strictly after dispatch (the DES lane-wait component).
        for (&s, &d) in submits.iter().zip(dispatches.iter()) {
            assert!(s > d, "submit {s} must trail dispatch {d}");
        }
        // A zero-cost pipe collapses dispatch onto pickup — the pre-model
        // behavior, kept reachable for A/B runs.
        let free = run(CpuPipeModel::zero());
        let pickups = lifecycle_ts(&free, |k| matches!(k, EventKind::BatchPickup { .. }));
        let dispatches = lifecycle_ts(&free, |k| matches!(k, EventKind::GroupDispatch { .. }));
        for (i, &d) in dispatches.iter().enumerate() {
            assert_eq!(d, pickups[i / 2]);
        }
    }

    #[test]
    fn back_to_back_doorbells_serialize_on_the_dispatch_pipe() {
        // Two channels ring at t=0; one management thread plans them one
        // after the other, so the second batch's groups go out one full
        // dispatch cost after the first's.
        let mut c = cfg(1, true);
        c.cpu_pipe = CpuPipeModel {
            dispatch_base_ns: 500,
            dispatch_per_req_ns: 0,
        };
        let rec = Arc::new(FlightRecorder::new());
        let obs = CamDesObs {
            windows: None,
            slo: None,
            lifecycle: true,
        };
        run_cam_des_obs(
            c,
            vec![vec![seq_batch(0, 4)], vec![seq_batch(1 << 32, 4)]],
            Some(Arc::clone(&rec)),
            obs,
        );
        let events = rec.snapshot();
        let mut dispatches =
            lifecycle_ts(&events, |k| matches!(k, EventKind::GroupDispatch { .. }));
        dispatches.sort_unstable();
        assert_eq!(dispatches, vec![500, 1_000]);
    }

    #[test]
    fn recorder_does_not_perturb_virtual_time() {
        let workload = || vec![vec![seq_batch(0, 32)]];
        let plain = run(cfg(2, true), workload());
        let rec = Arc::new(FlightRecorder::new());
        let traced = run_cam_des_obs(
            cfg(2, true),
            workload(),
            Some(Arc::clone(&rec)),
            CamDesObs::default(),
        );
        assert_eq!(plain.duration.as_ns(), traced.duration.as_ns());
        let events = rec.snapshot();
        let issues = events
            .iter()
            .filter(|e| matches!(e.kind, EventKind::SimIssue { .. }))
            .count();
        let completes = events
            .iter()
            .filter(|e| matches!(e.kind, EventKind::SimComplete { .. }))
            .count();
        assert_eq!(issues, 32);
        assert_eq!(completes, 32);
    }
}
