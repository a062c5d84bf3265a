//! The worker state machine: submission multiplexing, completion matching,
//! retry, and group/batch closure — with no threads and no clock of its own.
//!
//! A [`WorkerCore`] multiplexes *all* of its accepted groups over one lane
//! per SSD: [`pump`](WorkerCore::pump) stages as many queued commands as
//! the per-SSD [`InflightTable`] admits — across batches — and asks for one
//! doorbell ring per burst; [`on_cqe`](WorkerCore::on_cqe) matches each
//! completion back through the table and applies the [`RetryPolicy`] to
//! failures — and, since lane health is gated on exactly those verdicts,
//! feeds each lane's health machine (`crate::health`) in the same step.
//! Nothing ever blocks on a single group, so an SSD's in-flight
//! depth stays above one whenever independent batches overlap (the
//! pipelining the blocking baseline forfeits).
//!
//! Every externally-visible effect is returned as a [`Command`]; the driver
//! executes them (against real queue pairs or a device timing model) and
//! records whatever telemetry it keeps. The table's capacity equals the
//! queue-pair depth, so a driver may treat a submit command as infallible:
//! admission here *is* admission there.

use std::collections::VecDeque;
use std::sync::Arc;

use cam_nvme::spec::Status;

use crate::batch::BatchCore;
use crate::health::{HealthConfig, HealthTransition, LaneHealth};
use crate::inflight::InflightTable;
use crate::plan::{ChannelOp, DecisionCounters};
use crate::retry::{RetryPolicy, Verdict};

/// One per-SSD group of a batch, handed to a worker by the dispatch layer.
pub struct GroupSpec {
    /// SSD the group targets.
    pub ssd: usize,
    /// `(device LBA, address, blocks)` — stripe-contiguous runs.
    pub reqs: Vec<(u64, u64, u32)>,
    /// The batch the group belongs to.
    pub batch: Arc<BatchCore>,
}

/// One SQE the driver must push (CID already allocated; push cannot fail).
#[derive(Clone, Copy, Debug)]
pub struct SubmitCmd {
    /// SSD (lane) to submit on.
    pub ssd: usize,
    /// Command identifier from the lane's inflight table.
    pub cid: u16,
    /// Read or write.
    pub op: ChannelOp,
    /// Device LBA.
    pub dev_lba: u64,
    /// DMA address.
    pub addr: u64,
    /// Blocks to transfer.
    pub blocks: u32,
    /// First submission of this command (false for retries) — drives the
    /// logical-request counters without double-counting retries.
    pub first: bool,
}

/// An effect the protocol asks its driver to perform.
pub enum Command {
    /// Push one SQE on the SSD's queue pair.
    Submit(SubmitCmd),
    /// Ring the SSD's doorbell for the `staged` SQEs pushed since the last
    /// ring (one ring per burst).
    RingDoorbell {
        /// SSD whose doorbell to ring.
        ssd: usize,
        /// SQEs staged in this burst.
        staged: u32,
    },
    /// Every command of a group has now been submitted at least once
    /// (telemetry: the group's submit-stage span is `submit_ns − recv_ns`).
    GroupSubmitted {
        /// The group's batch.
        batch: Arc<BatchCore>,
        /// SSD the group targets.
        ssd: usize,
        /// Commands in the group.
        sqes: u32,
        /// When the worker accepted the group.
        recv_ns: u64,
        /// When the last first-submission happened.
        submit_ns: u64,
    },
    /// A command failed transiently and was re-queued with backoff.
    CmdRetry {
        /// The command's batch.
        batch: Arc<BatchCore>,
        /// SSD the command targets.
        ssd: usize,
        /// CID of the failed attempt.
        cid: u16,
        /// Submissions so far.
        attempt: u32,
        /// When the failure was classified.
        now_ns: u64,
        /// Earliest re-submission time.
        at_ns: u64,
    },
    /// A command was failed terminally because its deadline expired.
    CmdTimeout {
        /// The command's batch.
        batch: Arc<BatchCore>,
        /// SSD the command targets.
        ssd: usize,
        /// CID of the most recent attempt (0 if never submitted).
        cid: u16,
        /// Submissions so far.
        attempts: u32,
        /// When the deadline expiry was observed.
        now_ns: u64,
    },
    /// A lane's health state changed — raised right after the
    /// [`Command::CmdRetry`] / [`Command::CmdTimeout`] that caused it, or by
    /// [`WorkerCore::drain_lanes`].
    LaneTransition {
        /// The state change.
        transition: HealthTransition,
        /// When the gating decision was made.
        now_ns: u64,
    },
    /// Every command of a group reached a final state (telemetry: the
    /// complete-stage span is `complete_ns − anchor_ns`).
    GroupComplete {
        /// The group's batch.
        batch: Arc<BatchCore>,
        /// SSD the group targeted.
        ssd: usize,
        /// Commands the group carried.
        sqes: u32,
        /// Failed commands among them.
        errors: u64,
        /// Span anchor: the group's submit instant, or its accept instant
        /// if it never fully submitted.
        anchor_ns: u64,
        /// When the last command finished.
        complete_ns: u64,
    },
    /// The group that just completed was its batch's last: retire the batch
    /// (region-4 write, dedup replication, scaler feed). Emitted after the
    /// final [`Command::GroupComplete`]; exactly once per batch.
    RetireBatch {
        /// The retiring batch.
        batch: Arc<BatchCore>,
        /// When the batch's last command finished.
        complete_ns: u64,
    },
}

/// What a driver should do when a [`WorkerCore`] has drained its command
/// output — the protocol's idleness surface (see
/// [`park_hint`](WorkerCore::park_hint)). Pure data: the threaded driver
/// maps it onto thread parking, a virtual-time driver onto calendar
/// wakeups.
#[derive(Clone, Copy, PartialEq, Eq, Debug)]
pub enum ParkHint {
    /// Work is actionable now (commands in flight awaiting CQEs, or queued
    /// commands ready to submit): keep polling.
    Poll,
    /// Nothing is actionable before this instant (ns on the driver clock):
    /// a backoff expiry or deadline. Park with a timeout.
    Until(u64),
    /// No queued or in-flight work at all: park until an external wakeup.
    Idle,
}

/// One command's worker-side state, from dispatch to final completion. It
/// is written once, into the worker's command slab, and named by its slab
/// index from then on: the lane queue and the in-flight table carry the
/// index, never the command.
struct PendingCmd {
    /// Index into the worker's group slab.
    group: usize,
    dev_lba: u64,
    addr: u64,
    blocks: u32,
    /// Submissions so far (0 = never hit the wire).
    attempts: u32,
    /// Backoff gate: not re-submitted before this timeline instant.
    earliest_ns: u64,
    /// Absolute deadline; `None` = unbounded.
    deadline_ns: Option<u64>,
    /// CID of the most recent attempt (for timeout reporting).
    last_cid: u16,
}

/// Per-SSD submission state: the slab indices of the commands waiting to
/// be (re-)submitted, the in-flight table from CID to slab index and group
/// index, and the lane's health machine.
struct Lane {
    queue: VecDeque<u32>,
    /// The group index rides along so that a successful completion, the
    /// common case, closes its command without reading the command's slab
    /// slot (a cache line per command, cold again by the time its CQE is
    /// reaped).
    inflight: InflightTable<(u32, u32)>,
    health: LaneHealth,
}

/// One accepted per-SSD group and its completion accounting.
struct GroupState {
    batch: Arc<BatchCore>,
    ssd: usize,
    /// Commands in the group.
    total: usize,
    /// Commands finally completed (success, permanent failure, or timeout).
    done: usize,
    /// Failed commands among `done`.
    errors: u64,
    /// Commands submitted at least once — drives the one-submit-event-per-
    /// group telemetry without double-counting retries.
    submitted_first: usize,
    recv_ns: u64,
    /// Stamped when the last command of the group first hits the wire.
    submit_ns: u64,
}

/// Open groups, keyed by slab index: a command carries its group's index,
/// so reaching the accounting record is one indexed load. A slot is
/// vacated when its group closes — by then every command that named it has
/// reached a final state — and reused by a later group.
#[derive(Default)]
struct Groups {
    slots: Vec<Option<GroupState>>,
    /// Vacant `slots`, reused last-in-first-out.
    free: Vec<usize>,
}

impl Groups {
    /// Slots ever opened (the peak number of open groups).
    fn len(&self) -> usize {
        self.slots.len()
    }

    fn open(&mut self, state: GroupState) -> usize {
        match self.free.pop() {
            Some(gid) => {
                self.slots[gid] = Some(state);
                gid
            }
            None => {
                self.slots.push(Some(state));
                self.slots.len() - 1
            }
        }
    }

    fn get(&self, gid: usize) -> &GroupState {
        self.slots[gid].as_ref().expect("command without group")
    }

    /// One more command of `gid` reached its final state (`failed`: with an
    /// error). When it was the group's last, closes the group, and asks for
    /// batch retirement if the group was its batch's last.
    fn finish_cmd(&mut self, gid: usize, failed: bool, now_ns: u64, out: &mut Vec<Command>) {
        let slot = &mut self.slots[gid];
        let g = slot.as_mut().expect("command without group");
        g.done += 1;
        g.errors += u64::from(failed);
        if g.done < g.total {
            return;
        }
        let g = slot.take().expect("group vanished");
        self.free.push(gid);
        let anchor_ns = if g.submit_ns > 0 {
            g.submit_ns
        } else {
            g.recv_ns
        };
        out.push(Command::GroupComplete {
            batch: Arc::clone(&g.batch),
            ssd: g.ssd,
            sqes: g.total as u32,
            errors: g.errors,
            anchor_ns,
            complete_ns: now_ns,
        });
        if g.batch.finish_group(g.errors) {
            out.push(Command::RetireBatch {
                batch: g.batch,
                complete_ns: now_ns,
            });
        }
    }
}

/// Hands a lane-health change, if there was one, to the driver.
fn push_transition(out: &mut Vec<Command>, transition: Option<HealthTransition>, now_ns: u64) {
    out.extend(transition.map(|transition| Command::LaneTransition { transition, now_ns }));
}

/// Fails `cmd` terminally because its deadline expired: reported,
/// accounted as completed-with-error — the worker moves on.
fn time_out(
    groups: &mut Groups,
    lane: &mut Lane,
    counters: &mut DecisionCounters,
    ssd: usize,
    cmd: &PendingCmd,
    now_ns: u64,
    out: &mut Vec<Command>,
) {
    counters.timeouts += 1;
    out.push(Command::CmdTimeout {
        batch: Arc::clone(&groups.get(cmd.group).batch),
        ssd,
        cid: cmd.last_cid,
        attempts: cmd.attempts,
        now_ns,
    });
    push_transition(out, lane.health.on_fault(), now_ns);
    groups.finish_cmd(cmd.group, true, now_ns, out);
}

/// The per-worker protocol state machine.
pub struct WorkerCore {
    lanes: Vec<Lane>,
    groups: Groups,
    /// Every command between dispatch and its final state, keyed by slab
    /// index; a slot is vacated at the final state and reused by a later
    /// command.
    cmds: Vec<PendingCmd>,
    /// Vacant `cmds` slots, reused last-in-first-out.
    free_cmds: Vec<u32>,
    /// Commands waiting in the lane queues.
    queued: usize,
    /// Those among them gated by a backoff (`earliest_ns > 0`): while none
    /// is, the timer and park questions need no walk of the queues.
    gated: usize,
    retry: RetryPolicy,
    counters: DecisionCounters,
    /// Admission rule: a new group only once every open one has closed
    /// (the blocking baseline), instead of whenever one is offered.
    group_at_a_time: bool,
}

impl WorkerCore {
    /// A worker over `n_ssds` lanes, each admitting `queue_depth` commands.
    /// Pipelined admission; see [`group_at_a_time`](Self::group_at_a_time).
    pub fn new(n_ssds: usize, queue_depth: usize, retry: RetryPolicy) -> Self {
        WorkerCore {
            lanes: (0..n_ssds)
                .map(|ssd| Lane {
                    // Room for a queue depth of waiting commands up front,
                    // like the in-flight table: a warm lane grows only past
                    // that, not with each new longest group.
                    queue: VecDeque::with_capacity(queue_depth),
                    inflight: InflightTable::new(queue_depth),
                    health: LaneHealth::new(ssd, HealthConfig::default()),
                })
                .collect(),
            groups: Groups::default(),
            cmds: Vec::new(),
            free_cmds: Vec::new(),
            queued: 0,
            gated: 0,
            retry,
            counters: DecisionCounters::default(),
            group_at_a_time: false,
        }
    }

    /// Selects the admission rule: `true` is the blocking baseline (depth ≤
    /// one group per worker), `false` lets commands from several batches
    /// share the queue depth.
    pub fn group_at_a_time(mut self, on: bool) -> Self {
        self.group_at_a_time = on;
        self
    }

    /// Whether no group is open.
    pub fn idle(&self) -> bool {
        self.groups.len() == self.groups.free.len()
    }

    /// Whether the driver may hand over another group now
    /// ([`on_group`](Self::on_group)); a group offered while this is false
    /// waits in the driver's queue. Every driver asks here, so blocking vs
    /// pipelined is decided once, where the core is built.
    pub fn accepts_group(&self) -> bool {
        !self.group_at_a_time || self.idle()
    }

    /// Commands in flight on `ssd` (this worker's lane).
    pub fn inflight(&self, ssd: usize) -> usize {
        self.lanes[ssd].inflight.len()
    }

    /// Commands waiting in the lanes to be (re-)submitted. While it is 0,
    /// [`pump`](Self::pump) has nothing to do.
    pub fn queued(&self) -> usize {
        self.queued
    }

    /// Submission decisions made so far (`sqes`, `retries`, `timeouts`; the
    /// planning fields stay zero — fold in [`DecisionCounters::record_plan`]
    /// at the dispatch layer).
    pub fn counters(&self) -> DecisionCounters {
        self.counters
    }

    /// The earliest future instant at which a queued command becomes
    /// actionable (backoff expiry or deadline), if any — the "arm timer"
    /// output. A virtual-time driver with nothing else scheduled should
    /// wake then; the threaded driver polls and may ignore this. Only
    /// backoff-gated commands set a timer, so with none queued this is
    /// `None` without a look at the queues.
    pub fn next_timer_ns(&self) -> Option<u64> {
        if self.gated == 0 {
            return None;
        }
        self.lanes
            .iter()
            .flat_map(|l| l.queue.iter())
            .map(|&i| &self.cmds[i as usize])
            .filter(|c| c.earliest_ns > 0)
            .map(|c| match c.deadline_ns {
                Some(d) => c.earliest_ns.min(d),
                None => c.earliest_ns,
            })
            .min()
    }

    /// What an idleness-aware driver should do next, derived purely from
    /// protocol state (the run-to-completion shell's parking decision).
    ///
    /// The rules, in priority order:
    ///
    /// 1. Commands in flight ⇒ [`ParkHint::Poll`]. Completions arrive by
    ///    device-side `post_cqe` with no waker attached, so the driver must
    ///    keep reaping.
    /// 2. A queued command that is actionable *now* (`earliest_ns == 0`,
    ///    i.e. not backing off) ⇒ [`ParkHint::Poll`] — the next
    ///    [`pump`](WorkerCore::pump) will submit it.
    /// 3. Only backing-off commands ⇒ [`ParkHint::Until`] the
    ///    [`next_timer_ns`](WorkerCore::next_timer_ns) instant.
    /// 4. Nothing queued, nothing in flight ⇒ [`ParkHint::Idle`]: the
    ///    driver may park until an external wakeup (doorbell publish, ring
    ///    push, stop).
    pub fn park_hint(&self) -> ParkHint {
        if self.lanes.iter().any(|l| !l.inflight.is_empty()) || self.queued > self.gated {
            return ParkHint::Poll;
        }
        match self.next_timer_ns() {
            Some(t) => ParkHint::Until(t),
            None => ParkHint::Idle,
        }
    }

    /// Accepts a dispatched group at `recv_ns`: writes its commands into
    /// the slab, queues their indices on the SSD's lane and opens the
    /// group's accounting record. Call [`pump`](WorkerCore::pump)
    /// afterwards to generate submissions.
    ///
    /// [`on_group_runs`](Self::on_group_runs) of the spec's parts.
    pub fn on_group(&mut self, spec: GroupSpec, recv_ns: u64) {
        self.on_group_runs(spec.ssd, &spec.reqs, spec.batch, recv_ns);
    }

    /// [`on_group`](Self::on_group) for the group of `batch` on `ssd` whose
    /// runs are `reqs`: the commands are copied into the slab, so a driver
    /// keeps the run list's buffer for its next batch.
    pub fn on_group_runs(
        &mut self,
        ssd: usize,
        reqs: &[(u64, u64, u32)],
        batch: Arc<BatchCore>,
        recv_ns: u64,
    ) {
        let deadline_ns = self.retry.deadline_ns.map(|d| recv_ns + d);
        let group = self.groups.open(GroupState {
            ssd,
            total: reqs.len(),
            done: 0,
            errors: 0,
            submitted_first: 0,
            recv_ns,
            submit_ns: 0,
            batch,
        });
        let WorkerCore {
            lanes,
            cmds,
            free_cmds,
            ..
        } = self;
        lanes[ssd]
            .queue
            .extend(reqs.iter().map(|&(dev_lba, addr, blocks)| {
                let cmd = PendingCmd {
                    group,
                    dev_lba,
                    addr,
                    blocks,
                    attempts: 0,
                    earliest_ns: 0,
                    deadline_ns,
                    last_cid: 0,
                };
                match free_cmds.pop() {
                    Some(i) => {
                        cmds[i as usize] = cmd;
                        i
                    }
                    None => {
                        cmds.push(cmd);
                        (cmds.len() - 1) as u32
                    }
                }
            }));
        self.queued += reqs.len();
    }

    /// One submission pass over every lane at `now_ns`: times out
    /// overdue commands, stages as many queued commands as each inflight
    /// table admits, and asks for one doorbell ring per non-empty burst.
    pub fn pump(&mut self, now_ns: u64, out: &mut Vec<Command>) {
        if self.queued == 0 {
            return;
        }
        for ssd in 0..self.lanes.len() {
            self.pump_lane(ssd, now_ns, out);
        }
    }

    fn pump_lane(&mut self, ssd: usize, now_ns: u64, out: &mut Vec<Command>) {
        let WorkerCore {
            lanes,
            groups,
            cmds,
            free_cmds,
            queued,
            gated,
            counters,
            ..
        } = self;
        let lane = &mut lanes[ssd];
        let mut staged = 0u32;
        // Each queued command is examined at most once per pass:
        // backoff-gated commands rotate to the back and wait for a later
        // pass.
        for _ in 0..lane.queue.len() {
            let Some(idx) = lane.queue.pop_front() else {
                break;
            };
            let cmd = &mut cmds[idx as usize];
            if cmd.deadline_ns.is_some_and(|d| now_ns >= d) {
                *queued -= 1;
                *gated -= usize::from(cmd.earliest_ns > 0);
                time_out(groups, lane, counters, ssd, cmd, now_ns, out);
                free_cmds.push(idx);
                continue;
            }
            if cmd.earliest_ns > now_ns {
                lane.queue.push_back(idx);
                continue;
            }
            let Ok(cid) = lane.inflight.insert((idx, cmd.group as u32)) else {
                lane.queue.push_front(idx);
                break;
            };
            *queued -= 1;
            *gated -= usize::from(cmd.earliest_ns > 0);
            let first = cmd.attempts == 0;
            cmd.attempts += 1;
            cmd.last_cid = cid;
            let g = groups.slots[cmd.group]
                .as_mut()
                .expect("command without group");
            // Built in place: a command built before `push` lives across its
            // growth call, so it is stored field by field to the stack and
            // copied back with wide loads that stall on those narrow stores.
            out.extend(std::iter::once_with(|| {
                Command::Submit(SubmitCmd {
                    ssd,
                    cid,
                    op: g.batch.op,
                    dev_lba: cmd.dev_lba,
                    addr: cmd.addr,
                    blocks: cmd.blocks,
                    first,
                })
            }));
            staged += 1;
            if first {
                // Retries are deliberately excluded: `sqes` counts logical
                // requests, so its sum stays comparable to requests retired.
                counters.sqes += 1;
                g.submitted_first += 1;
                if g.submitted_first == g.total {
                    g.submit_ns = now_ns;
                    out.push(Command::GroupSubmitted {
                        batch: Arc::clone(&g.batch),
                        ssd,
                        sqes: g.total as u32,
                        recv_ns: g.recv_ns,
                        submit_ns: now_ns,
                    });
                }
            }
        }
        if staged > 0 {
            out.push(Command::RingDoorbell { ssd, staged });
        }
    }

    /// Applies one reaped completion at `now_ns`: matches the CQE back to
    /// its command (stale CIDs are silently discarded), closes the group
    /// when its last command finishes, and applies the retry policy to
    /// failures. Re-queued retries need a later [`pump`](WorkerCore::pump)
    /// to hit the wire again.
    pub fn on_cqe(
        &mut self,
        ssd: usize,
        cid: u16,
        status: Status,
        now_ns: u64,
        out: &mut Vec<Command>,
    ) {
        let Some((idx, group)) = self.lanes[ssd].inflight.remove(cid) else {
            // Stale or unknown CID: nothing to attribute it to.
            return;
        };
        if status == Status::Success {
            self.groups.finish_cmd(group as usize, false, now_ns, out);
            self.free_cmds.push(idx);
            return;
        }
        let cmd = &mut self.cmds[idx as usize];
        match self
            .retry
            .classify(status, cmd.attempts, now_ns, cmd.deadline_ns)
        {
            Verdict::Retry { at_ns } => {
                self.counters.retries += 1;
                out.push(Command::CmdRetry {
                    batch: Arc::clone(&self.groups.get(cmd.group).batch),
                    ssd,
                    cid,
                    attempt: cmd.attempts,
                    now_ns,
                    at_ns,
                });
                cmd.earliest_ns = at_ns;
                self.queued += 1;
                self.gated += usize::from(at_ns > 0);
                let lane = &mut self.lanes[ssd];
                lane.queue.push_back(idx);
                push_transition(out, lane.health.on_fault(), now_ns);
                return;
            }
            Verdict::TimedOut => time_out(
                &mut self.groups,
                &mut self.lanes[ssd],
                &mut self.counters,
                ssd,
                cmd,
                now_ns,
                out,
            ),
            Verdict::Permanent => self.groups.finish_cmd(cmd.group, true, now_ns, out),
        }
        self.free_cmds.push(idx);
    }

    /// The driver quiesced this worker (loop exit / end of run): every
    /// degraded or overloaded lane is declared recovered.
    pub fn drain_lanes(&mut self, now_ns: u64, out: &mut Vec<Command>) {
        for lane in &mut self.lanes {
            push_transition(out, lane.health.on_drain(), now_ns);
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::health::HealthState;
    use std::sync::atomic::{AtomicU64, AtomicUsize};

    fn no_retry() -> RetryPolicy {
        RetryPolicy {
            max_retries: 0,
            backoff_base_ns: 0,
            deadline_ns: None,
        }
    }

    fn batch(n_groups: usize) -> Arc<BatchCore> {
        Arc::new(BatchCore {
            channel: 0,
            seq: 1,
            op: ChannelOp::Read,
            remaining: AtomicUsize::new(n_groups),
            errors: AtomicU64::new(0),
            requests: 0,
            dispatched_ns: 0,
            compute_gap_ns: 0,
            doorbell_ns: 0,
            pickup_ns: 0,
            dups: Vec::new(),
            blocks: 1,
        })
    }

    fn submits(out: &[Command]) -> Vec<SubmitCmd> {
        out.iter()
            .filter_map(|c| match c {
                Command::Submit(s) => Some(*s),
                _ => None,
            })
            .collect()
    }

    #[test]
    fn pump_respects_depth_and_rings_one_doorbell_per_burst() {
        let mut w = WorkerCore::new(1, 2, no_retry());
        let b = batch(1);
        w.on_group(
            GroupSpec {
                ssd: 0,
                reqs: (0..5).map(|i| (i, i * 4096, 1)).collect(),
                batch: b,
            },
            100,
        );
        let mut out = Vec::new();
        w.pump(100, &mut out);
        let subs = submits(&out);
        assert_eq!(subs.len(), 2, "depth 2 admits two commands");
        assert!(subs.iter().all(|s| s.first));
        assert_eq!(
            out.iter()
                .filter(|c| matches!(c, Command::RingDoorbell { staged: 2, .. }))
                .count(),
            1,
            "one ring for the burst"
        );
        assert_eq!(w.inflight(0), 2);
        // Nothing new to stage: a second pump is silent (no empty ring).
        out.clear();
        w.pump(101, &mut out);
        assert!(out.is_empty());
    }

    #[test]
    fn group_submitted_fires_once_when_last_command_hits_the_wire() {
        let mut w = WorkerCore::new(1, 8, no_retry());
        let b = batch(1);
        w.on_group(
            GroupSpec {
                ssd: 0,
                reqs: vec![(0, 0, 1), (1, 4096, 1)],
                batch: Arc::clone(&b),
            },
            50,
        );
        let mut out = Vec::new();
        w.pump(70, &mut out);
        let marks: Vec<_> = out
            .iter()
            .filter_map(|c| match c {
                Command::GroupSubmitted {
                    recv_ns, submit_ns, ..
                } => Some((*recv_ns, *submit_ns)),
                _ => None,
            })
            .collect();
        assert_eq!(marks, vec![(50, 70)]);
        // Completions close the group and retire the single-group batch.
        out.clear();
        let cids: Vec<u16> = submits({
            let mut v = Vec::new();
            w.pump(70, &mut v);
            &{ v }
        })
        .iter()
        .map(|s| s.cid)
        .collect();
        assert!(cids.is_empty(), "no double submission");
        w.on_cqe(0, 0, Status::Success, 90, &mut out);
        assert!(out.is_empty(), "group still open");
        w.on_cqe(0, 1, Status::Success, 95, &mut out);
        assert!(
            matches!(
                out.as_slice(),
                [
                    Command::GroupComplete {
                        sqes: 2,
                        errors: 0,
                        anchor_ns: 70,
                        complete_ns: 95,
                        ..
                    },
                    Command::RetireBatch {
                        complete_ns: 95,
                        ..
                    }
                ]
            ),
            "complete then retire"
        );
    }

    #[test]
    fn transient_failure_waits_out_backoff_then_resubmits() {
        let mut w = WorkerCore::new(
            1,
            8,
            RetryPolicy {
                max_retries: 3,
                backoff_base_ns: 1000,
                deadline_ns: None,
            },
        );
        w.on_group(
            GroupSpec {
                ssd: 0,
                reqs: vec![(7, 0, 1)],
                batch: batch(1),
            },
            0,
        );
        let mut out = Vec::new();
        w.pump(0, &mut out);
        let cid = submits(&out)[0].cid;
        out.clear();
        w.on_cqe(0, cid, Status::TransientMediaError, 100, &mut out);
        assert!(matches!(
            out.as_slice(),
            [
                Command::CmdRetry {
                    attempt: 1,
                    now_ns: 100,
                    at_ns: 1100,
                    ..
                },
                Command::LaneTransition { now_ns: 100, .. }
            ]
        ));
        assert_eq!(w.next_timer_ns(), Some(1100), "timer armed for backoff");
        // Before the backoff gate: nothing moves.
        out.clear();
        w.pump(500, &mut out);
        assert!(out.is_empty());
        // After it: re-submitted, not first, sqes counter unchanged.
        w.pump(1100, &mut out);
        let subs = submits(&out);
        assert_eq!(subs.len(), 1);
        assert!(!subs[0].first);
        assert_eq!(w.counters().sqes, 1);
        assert_eq!(w.counters().retries, 1);
        assert_eq!(w.next_timer_ns(), None);
    }

    #[test]
    fn deadline_times_out_queued_command_and_retires_with_error() {
        let mut w = WorkerCore::new(
            1,
            8,
            RetryPolicy {
                max_retries: 0,
                backoff_base_ns: 0,
                deadline_ns: Some(1000),
            },
        );
        let b = batch(1);
        w.on_group(
            GroupSpec {
                ssd: 0,
                reqs: vec![(3, 0, 1)],
                batch: Arc::clone(&b),
            },
            0,
        );
        // First pump happens after the deadline already expired.
        let mut out = Vec::new();
        w.pump(5000, &mut out);
        assert!(matches!(
            out.as_slice(),
            [
                Command::CmdTimeout {
                    attempts: 0,
                    now_ns: 5000,
                    ..
                },
                Command::LaneTransition { now_ns: 5000, .. },
                Command::GroupComplete {
                    errors: 1,
                    anchor_ns: 0,
                    ..
                },
                Command::RetireBatch { .. }
            ]
        ));
        assert_eq!(w.counters().timeouts, 1);
        assert!(w.idle());
    }

    #[test]
    fn multi_group_batch_retires_exactly_once_across_lanes() {
        let mut w = WorkerCore::new(2, 8, no_retry());
        let b = batch(2);
        for ssd in 0..2 {
            w.on_group(
                GroupSpec {
                    ssd,
                    reqs: vec![(ssd as u64, 0, 1)],
                    batch: Arc::clone(&b),
                },
                0,
            );
        }
        let mut out = Vec::new();
        w.pump(0, &mut out);
        let subs = submits(&out);
        assert_eq!(subs.len(), 2);
        out.clear();
        w.on_cqe(0, subs[0].cid, Status::Success, 10, &mut out);
        assert_eq!(
            out.iter()
                .filter(|c| matches!(c, Command::RetireBatch { .. }))
                .count(),
            0
        );
        w.on_cqe(1, subs[1].cid, Status::Success, 20, &mut out);
        assert_eq!(
            out.iter()
                .filter(|c| matches!(c, Command::RetireBatch { .. }))
                .count(),
            1,
            "second group's close retires"
        );
        assert!(w.idle());
    }

    #[test]
    fn closed_group_slots_are_reused() {
        // Three groups open at once, closed out of order, then three more:
        // the slab never grows past the peak number of open groups, and a
        // reused slot carries none of its previous tenant's accounting.
        let mut w = WorkerCore::new(1, 16, no_retry());
        let mut out = Vec::new();
        for round in 0..4u64 {
            let batches: Vec<_> = (0..3).map(|_| batch(1)).collect();
            for (g, b) in batches.iter().enumerate() {
                w.on_group(
                    GroupSpec {
                        ssd: 0,
                        reqs: (0..=g as u64).map(|i| (i, 0, 1)).collect(),
                        batch: Arc::clone(b),
                    },
                    round,
                );
            }
            assert!(!w.idle());
            out.clear();
            w.pump(round, &mut out);
            let subs = submits(&out);
            assert_eq!(subs.len(), 1 + 2 + 3);
            out.clear();
            // Complete in reverse submission order: the last group closes
            // first.
            for s in subs.iter().rev() {
                w.on_cqe(0, s.cid, Status::Success, round, &mut out);
            }
            let closed: Vec<u32> = out
                .iter()
                .filter_map(|c| match c {
                    Command::GroupComplete {
                        sqes, errors: 0, ..
                    } => Some(*sqes),
                    _ => None,
                })
                .collect();
            assert_eq!(closed, vec![3, 2, 1]);
            assert!(w.idle());
            assert_eq!(w.groups.len(), 3, "round {round}: slab grew");
        }
    }

    #[test]
    fn group_at_a_time_admits_only_between_groups() {
        for blocking in [true, false] {
            let mut w = WorkerCore::new(1, 8, no_retry()).group_at_a_time(blocking);
            assert!(w.accepts_group());
            w.on_group(
                GroupSpec {
                    ssd: 0,
                    reqs: vec![(0, 0, 1)],
                    batch: batch(1),
                },
                0,
            );
            assert_eq!(w.accepts_group(), !blocking, "a group is open");
            let mut out = Vec::new();
            w.pump(0, &mut out);
            let cid = submits(&out)[0].cid;
            assert_eq!(w.accepts_group(), !blocking, "still open while in flight");
            w.on_cqe(0, cid, Status::Success, 10, &mut out);
            assert!(w.accepts_group(), "closed: the next group may enter");
        }
    }

    #[test]
    fn core_owned_lane_health_matches_a_standalone_machine() {
        // 2 workers x 3 SSDs under a scripted retry / timeout / drain
        // trace: the transitions leaving each core as commands equal what
        // standalone `LaneHealth` machines fed the same faults report.
        enum Step {
            Retry(usize, usize),
            Timeout(usize, usize),
            Drain(usize),
        }
        use Step::*;
        let mut script: Vec<Step> = (0..10).map(|_| Retry(0, 0)).collect();
        script.extend([Timeout(1, 2), Retry(0, 1), Drain(0), Retry(0, 0)]);
        script.extend((0..7).map(|_| Timeout(1, 2)));
        script.extend([Retry(1, 0), Drain(1), Drain(0), Drain(0)]);

        const DEADLINE: u64 = 1_000;
        let policy = RetryPolicy {
            max_retries: 3,
            backoff_base_ns: 0,
            deadline_ns: Some(DEADLINE),
        };
        let mut cores: Vec<WorkerCore> = (0..2).map(|_| WorkerCore::new(3, 8, policy)).collect();
        let mut reference: Vec<Vec<LaneHealth>> = (0..2)
            .map(|_| {
                (0..3)
                    .map(|ssd| LaneHealth::new(ssd, HealthConfig::default()))
                    .collect()
            })
            .collect();
        let (mut got, mut want) = (Vec::new(), Vec::new());
        let mut out = Vec::new();
        let mut now = 0u64;
        for step in script {
            now += 10 * DEADLINE;
            out.clear();
            match step {
                Retry(w, ssd) | Timeout(w, ssd) => {
                    let core = &mut cores[w];
                    core.on_group(
                        GroupSpec {
                            ssd,
                            reqs: vec![(0, 0, 1)],
                            batch: batch(1),
                        },
                        now,
                    );
                    core.pump(now, &mut out);
                    let cid = submits(&out)[0].cid;
                    // A transient failure inside the deadline retries (and
                    // then succeeds); one past it times the command out.
                    let fail_at = match step {
                        Retry(..) => now + 1,
                        _ => now + DEADLINE,
                    };
                    core.on_cqe(ssd, cid, Status::TransientMediaError, fail_at, &mut out);
                    if matches!(step, Retry(..)) {
                        core.pump(fail_at, &mut out);
                        let cid = submits(&out).last().unwrap().cid;
                        core.on_cqe(ssd, cid, Status::Success, fail_at, &mut out);
                    }
                    assert!(core.idle(), "every scripted group closes");
                    want.extend(reference[w][ssd].on_fault().map(|t| (w, t)));
                }
                Drain(w) => {
                    cores[w].drain_lanes(now, &mut out);
                    want.extend(
                        reference[w]
                            .iter_mut()
                            .filter_map(LaneHealth::on_drain)
                            .map(|t| (w, t)),
                    );
                }
            }
            let w = match step {
                Retry(w, _) | Timeout(w, _) | Drain(w) => w,
            };
            got.extend(out.iter().filter_map(|c| match c {
                Command::LaneTransition { transition, .. } => Some((w, *transition)),
                _ => None,
            }));
        }
        assert_eq!(got, want);
        let walk: Vec<(usize, usize, HealthState, u64)> = got
            .iter()
            .map(|(w, t)| (*w, t.ssd, t.to, t.faults))
            .collect();
        use HealthState::*;
        assert_eq!(
            walk,
            [
                (0, 0, Degraded, 1),
                (0, 0, Overloaded, 8),
                (1, 2, Degraded, 1),
                (0, 1, Degraded, 1),
                (0, 0, Recovered, 10),
                (0, 1, Recovered, 1),
                (0, 0, Degraded, 11),
                (1, 2, Overloaded, 8),
                (1, 0, Degraded, 1),
                (1, 0, Recovered, 1),
                (1, 2, Recovered, 8),
                (0, 0, Recovered, 11),
            ]
        );
        let faults: u64 = cores
            .iter()
            .map(|c| c.counters().retries + c.counters().timeouts)
            .sum();
        assert_eq!(faults, 21, "11 + 1 + 1 retries, 8 timeouts");
    }

    #[test]
    fn stale_cids_are_discarded() {
        let mut w = WorkerCore::new(1, 8, no_retry());
        let mut out = Vec::new();
        w.on_cqe(0, 42, Status::Success, 0, &mut out);
        assert!(out.is_empty());
    }

    #[test]
    fn park_hint_tracks_the_lane_lifecycle() {
        // Fresh worker: nothing anywhere → Idle.
        let mut w = WorkerCore::new(1, 8, no_retry());
        assert_eq!(w.park_hint(), ParkHint::Idle);

        // Accepted but not yet pumped: queued commands with earliest 0 →
        // Poll (the next pump will submit them).
        let b = batch(1);
        w.on_group(
            GroupSpec {
                ssd: 0,
                reqs: vec![(0, 0, 1)],
                batch: Arc::clone(&b),
            },
            0,
        );
        assert_eq!(w.park_hint(), ParkHint::Poll);

        // Submitted: in flight, CQEs arrive without a waker → Poll.
        let mut out = Vec::new();
        w.pump(0, &mut out);
        assert_eq!(w.inflight(0), 1);
        assert_eq!(w.park_hint(), ParkHint::Poll);

        // Completed: idle again.
        let cid = submits(&out)[0].cid;
        out.clear();
        w.on_cqe(0, cid, Status::Success, 10, &mut out);
        assert!(w.idle());
        assert_eq!(w.park_hint(), ParkHint::Idle);
    }

    #[test]
    fn park_hint_surfaces_backoff_timers() {
        // One transient failure re-queues the command with a future
        // earliest_ns: no inflight, nothing actionable now → Until(timer).
        let mut w = WorkerCore::new(
            1,
            8,
            RetryPolicy {
                max_retries: 2,
                backoff_base_ns: 1_000,
                deadline_ns: None,
            },
        );
        let b = batch(1);
        w.on_group(
            GroupSpec {
                ssd: 0,
                reqs: vec![(0, 0, 1)],
                batch: b,
            },
            0,
        );
        let mut out = Vec::new();
        w.pump(0, &mut out);
        let cid = submits(&out)[0].cid;
        out.clear();
        w.on_cqe(0, cid, Status::TransientMediaError, 100, &mut out);
        let timer = w.next_timer_ns().expect("backoff armed");
        assert_eq!(w.park_hint(), ParkHint::Until(timer));
        assert!(timer > 100);

        // Once the driver pumps past the timer the command resubmits and
        // the hint returns to Poll.
        out.clear();
        w.pump(timer, &mut out);
        assert_eq!(submits(&out).len(), 1);
        assert_eq!(w.park_hint(), ParkHint::Poll);
    }
}
