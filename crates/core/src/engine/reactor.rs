//! The threaded worker shell around [`WorkerCore`].
//!
//! Each worker thread (`shard`) owns one private queue pair per SSD, a
//! [`WorkerCore`] protocol state machine (which also owns the lane-health
//! machines of its lanes) and the scratch buffers the loop reuses, so the
//! steady-state I/O path allocates nothing and takes no lock. The loop is
//! pure driver glue: groups are admitted by the shared
//! [`shell::admit`](cam_iostacks::shell::admit), [`pump`](Worker::pump)
//! runs at the wall clock, [`reap`](Worker::reap) feeds CQEs into
//! [`on_cqe`](WorkerCore::on_cqe), and whatever [`Command`]s come back are
//! executed: the shared [`shell::report`] hands their lifecycle half to the
//! [`LifecycleTap`](cam_telemetry::LifecycleTap), and this module does the
//! rest — SQE pushes, doorbell rings, the group-submitted report and batch
//! retirement. Every submission, retry, and closure *decision* is the
//! protocol's; the DES driver runs the same shell and executes the same
//! commands against a device timing model instead.
//!
//! A `Submit` command is executed infallibly: the protocol admits a
//! command only when the lane's inflight table (sized to the queue depth)
//! has room, and the queue pair admits exactly `depth − in_flight` staged
//! SQEs — so admission there implies SQ room here.

use std::sync::Arc;

use cam_iostacks::shell::{self, batch_facts};
use cam_nvme::spec::{Cqe, Sqe};
use cam_nvme::QueuePair;
use cam_protocol::{ChannelOp, Command, WorkerCore};
use cam_telemetry::{clock, Lane, ShardClaim};

use super::dispatch::Pickup;
use super::retire::retire_batch;
use super::Shared;

/// One worker thread's private state.
pub(super) struct Worker {
    wid: usize,
    /// This worker's queue-pair column: one private pair per SSD.
    qps: Vec<Arc<QueuePair>>,
    pub(super) core: WorkerCore,
    /// Commands drained from the core, executed in order.
    out: Vec<Command>,
    /// One queue pair's reaped CQEs: sized for a full pair up front, so a
    /// reap that finds more than any before it does not grow it.
    cqes: Vec<Cqe>,
    /// Pickup buffers, fed the records this worker retires.
    pub(super) pickup: Pickup,
    /// This thread's lock-free histogram shards: the worker records every
    /// lifecycle sample without a lock.
    _shards: Option<ShardClaim>,
}

impl Worker {
    /// Builds worker `wid`'s state on the calling thread — which, from now
    /// on, is the only host-side driver of its queue-pair column (ownership
    /// moves across rescale epochs change *which column* serves an SSD, not
    /// who drives a pair); the pairs are claimed so a sharding bug panics
    /// at the site. `pipelined = false` selects the blocking baseline's
    /// group-at-a-time admission.
    pub(super) fn new(sh: &Shared, wid: usize, pipelined: bool) -> Self {
        if let Some(rec) = &sh.recorder {
            rec.name_current_thread(&format!("cam-worker{wid}"));
        }
        let qps: Vec<Arc<QueuePair>> = (0..sh.plan.n_ssds)
            .map(|ssd| Arc::clone(&sh.qps[ssd][wid]))
            .collect();
        for qp in &qps {
            qp.bind_host_owner();
        }
        let depth = qps[0].depth();
        Worker {
            wid,
            core: WorkerCore::new(sh.plan.n_ssds, depth, sh.retry).group_at_a_time(!pipelined),
            qps,
            out: Vec::new(),
            cqes: Vec::with_capacity(depth),
            pickup: Pickup::new(sh.plan.n_ssds, sh.channels.len()),
            _shards: ShardClaim::claim(),
        }
    }

    /// Quiesces the lanes at loop exit, so degraded/overloaded lanes are
    /// declared recovered. The DES driver performs the identical drain at
    /// the end of its calendar, keeping the transition sequences comparable.
    pub(super) fn drain_lanes(&mut self, sh: &Shared) {
        self.core.drain_lanes(clock::now_ns(), &mut self.out);
        self.execute(sh);
    }

    /// One submission pass at the wall clock, executed. Returns whether it
    /// produced any command. With no command queued a pass has nothing to
    /// stage or time out, so it neither reads the clock nor runs.
    pub(super) fn pump(&mut self, sh: &Shared) -> bool {
        if self.core.queued() == 0 {
            return false;
        }
        self.core.pump(clock::now_ns(), &mut self.out);
        let progress = !self.out.is_empty();
        self.execute(sh);
        progress
    }

    /// One reap pass over every queue pair: drains available CQEs into the
    /// protocol core and executes the resulting commands. Returns whether
    /// any completion arrived.
    pub(super) fn reap(&mut self, sh: &Shared) -> bool {
        let mut progress = false;
        for ssd in 0..self.qps.len() {
            self.cqes.clear();
            let depth = self.qps[ssd].depth();
            if self.qps[ssd].poll_cqes(depth, &mut self.cqes) == 0 {
                continue;
            }
            progress = true;
            let now = clock::now_ns();
            for cqe in &self.cqes {
                self.core
                    .on_cqe(ssd, cqe.cid, cqe.status, now, &mut self.out);
            }
            self.execute(sh);
            update_inflight_gauges(sh, ssd, &self.qps[ssd]);
        }
        progress
    }

    /// Executes the drained protocol commands against the real queue pairs,
    /// in order (submissions precede their doorbell ring).
    fn execute(&mut self, sh: &Shared) {
        let Worker {
            wid,
            qps,
            out,
            pickup,
            ..
        } = self;
        let wid = *wid;
        // First submissions staged since the last doorbell. The protocol
        // stages one lane at a time and closes every burst with that lane's
        // `RingDoorbell`, so the tally always belongs to the ringing SSD.
        let mut first_submits = 0u64;
        for cmd in out.drain(..) {
            match cmd {
                Command::Submit(s) => {
                    let sqe = match s.op {
                        ChannelOp::Read => Sqe::read(s.cid, s.dev_lba, s.blocks, s.addr),
                        ChannelOp::Write => Sqe::write(s.cid, s.dev_lba, s.blocks, s.addr),
                    };
                    qps[s.ssd]
                        .push_sqe(sqe)
                        .expect("protocol admission implies SQ room");
                    // Retries are deliberately excluded:
                    // `cam_ssd_submitted_total` counts logical requests, so
                    // its sum stays comparable to `requests` retired.
                    first_submits += u64::from(s.first);
                }
                Command::RingDoorbell { ssd, .. } => {
                    qps[ssd].ring_doorbell();
                    // One shared-counter update per doorbell, not per SQE.
                    // Not folded further into `GroupSubmitted`: a group that
                    // loses a queued command to its deadline never raises
                    // it, and its first submissions would go uncounted.
                    sh.metrics.ssd_submitted[ssd].add(first_submits);
                    first_submits = 0;
                    update_inflight_gauges(sh, ssd, &qps[ssd]);
                }
                Command::GroupSubmitted {
                    batch,
                    ssd,
                    sqes,
                    recv_ns,
                    submit_ns,
                } => {
                    let at = Lane { ssd, worker: wid };
                    sh.tap
                        .group_submitted(&batch_facts(&batch), at, sqes, recv_ns, submit_ns);
                }
                Command::RetireBatch { batch, complete_ns } => {
                    retire_batch(sh, &batch, complete_ns);
                    pickup.recycle_batch(batch);
                }
                // Retries, timeouts, lane transitions, group completions.
                lifecycle => shell::report(&sh.tap, wid, &lifecycle),
            }
        }
        debug_assert_eq!(first_submits, 0, "submissions without a doorbell");
    }
}

/// Publishes the lane's live in-flight depth (and its high-water mark) to
/// the `cam_inflight{ssd}` gauges.
fn update_inflight_gauges(sh: &Shared, ssd: usize, qp: &QueuePair) {
    let cur = qp.in_flight();
    sh.metrics.inflight[ssd].set(cur);
    if cur > sh.metrics.inflight_peak[ssd].get() {
        sh.metrics.inflight_peak[ssd].set(cur);
    }
}
