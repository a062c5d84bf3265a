//! [`LifecycleTap`] — the one observer of the batch lifecycle.
//!
//! CAM's control plane is a fixed chain of hand-offs — doorbell → pickup →
//! dispatch → submit → complete → retire, plus the fault path's retry,
//! timeout and lane-health transitions. Both drivers of `cam-protocol`
//! (the threaded engine in `cam-core`, the DES in `cam-iostacks`) report
//! each hand-off here as plain protocol facts plus a timestamp from their
//! own timeline, and this module alone decides what an observer sees of
//! it: the stage spans, the `cam_*` registry metrics, every [`OpsWindows`]
//! sampler, the [`SloTracker`] sample, and the nine lifecycle
//! [`EventKind`]s. A driver keeps only its substrate's own business
//! (queue-pair gauges, scaling decisions, virtual-time scheduling).

use std::sync::Arc;

use crate::control::ControlMetrics;
use crate::event::EventKind;
use crate::recorder::FlightRecorder;
use crate::span::Stage;
use crate::window::{OpsWindows, SloTracker};

/// What a driver knows about a batch from pickup on, on its own timeline.
#[derive(Clone, Copy, Debug)]
pub struct BatchFacts {
    /// Channel the batch was published on.
    pub channel: usize,
    /// Channel-local batch sequence number.
    pub seq: u64,
    /// Operation index into [`ControlMetrics::OPS`].
    pub op: usize,
    /// Requests as published (pre-dedup).
    pub requests: u64,
    /// When the doorbell rang.
    pub doorbell_ns: u64,
    /// When the batch was picked up.
    pub pickup_ns: u64,
    /// When dispatch planning ran (anchors the batch's I/O time).
    pub dispatched_ns: u64,
    /// Previous retire → this pickup on the channel; 0 = no sample.
    pub compute_gap_ns: u64,
}

/// Where one per-SSD group of a batch executes.
#[derive(Clone, Copy, Debug)]
pub struct Lane {
    /// SSD the group targets.
    pub ssd: usize,
    /// Worker executing it.
    pub worker: usize,
}

/// The observer both drivers report lifecycle hand-offs to (module docs).
/// Every endpoint is optional: the threaded engine always attaches the
/// registry bundle, the DES never does.
#[derive(Clone, Default)]
pub struct LifecycleTap {
    /// Registry bundle (`cam_*` counters, gauges, histograms).
    pub metrics: Option<Arc<ControlMetrics>>,
    /// Event layer. Lane-health transitions always land here.
    pub recorder: Option<Arc<FlightRecorder>>,
    /// Whether the other eight lifecycle events land in `recorder` too.
    pub lifecycle: bool,
    /// Rolling-window samplers.
    pub windows: Option<Arc<OpsWindows>>,
    /// Per-channel SLO accounting, fed one sample per retired batch.
    pub slo: Option<Arc<SloTracker>>,
}

/// Narrows a count into a `u32` event field, saturating.
fn sat32(n: u64) -> u32 {
    u32::try_from(n).unwrap_or(u32::MAX)
}

impl LifecycleTap {
    /// Records one sample of `stage` ending at `now_ns`.
    fn stage(&self, op: usize, stage: Stage, now_ns: u64, span_ns: u64) {
        if let Some(m) = &self.metrics {
            m.stage(op, stage).record(span_ns);
        }
        if let Some(w) = &self.windows {
            w.stage(stage).record_at(now_ns, span_ns);
        }
    }

    /// Emits a lifecycle event at `ts_ns`, when the stream is on.
    fn emit(&self, ts_ns: u64, kind: EventKind) {
        if let (true, Some(rec)) = (self.lifecycle, &self.recorder) {
            rec.emit_at(ts_ns, kind);
        }
    }

    /// Batch `b` rang its doorbell and was picked up and planned; planning
    /// dropped `dedup_dropped` duplicate reads and added `stripe_splits`
    /// runs.
    pub fn batch_pickup(&self, b: &BatchFacts, dedup_dropped: u64, stripe_splits: u64) {
        let span = b.pickup_ns.saturating_sub(b.doorbell_ns);
        self.stage(b.op, Stage::Pickup, b.pickup_ns, span);
        if let Some(m) = &self.metrics {
            if dedup_dropped > 0 {
                m.dedup_dropped.add(dedup_dropped);
            }
            if stripe_splits > 0 {
                m.stripe_splits.add(stripe_splits);
            }
        }
        let (channel, seq) = (b.channel as u16, b.seq);
        // The doorbell fired before anyone saw it: stamp it retroactively
        // so the trace span starts where the batch actually started.
        self.emit(
            b.doorbell_ns,
            EventKind::BatchDoorbell {
                channel,
                seq,
                op: b.op as u8,
                requests: sat32(b.requests),
            },
        );
        self.emit(b.pickup_ns, EventKind::BatchPickup { channel, seq });
    }

    /// Worker `at.worker` accepted `b`'s group for `at.ssd` at `recv_ns`.
    pub fn group_dispatch(&self, b: &BatchFacts, at: Lane, recv_ns: u64) {
        let span = recv_ns.saturating_sub(b.pickup_ns);
        self.stage(b.op, Stage::Dispatch, recv_ns, span);
        self.emit(
            recv_ns,
            EventKind::GroupDispatch {
                channel: b.channel as u16,
                seq: b.seq,
                ssd: at.ssd as u16,
                worker: at.worker as u16,
            },
        );
    }

    /// Every one of the group's `sqes` commands, accepted at `recv_ns`, had
    /// been submitted at least once by `submit_ns`.
    pub fn group_submitted(
        &self,
        b: &BatchFacts,
        at: Lane,
        sqes: u32,
        recv_ns: u64,
        submit_ns: u64,
    ) {
        let span = submit_ns.saturating_sub(recv_ns);
        self.stage(b.op, Stage::Submit, submit_ns, span);
        if let Some(m) = &self.metrics {
            m.ssd_submit_ns[at.ssd].record(span);
        }
        self.emit(
            submit_ns,
            EventKind::GroupSubmit {
                channel: b.channel as u16,
                seq: b.seq,
                ssd: at.ssd as u16,
                worker: at.worker as u16,
                sqes,
            },
        );
    }

    /// Attempt number `attempt` of command `cid` on `ssd` failed
    /// transiently at `now_ns` and was re-queued.
    pub fn cmd_retry(&self, b: &BatchFacts, ssd: usize, cid: u16, attempt: u32, now_ns: u64) {
        if let Some(m) = &self.metrics {
            m.retries.inc();
        }
        if let Some(w) = &self.windows {
            // Numerator of the windowed retry rate. Timeouts are not
            // retries and stay out of it.
            w.ssd_retries[ssd].add_at(now_ns, 1, 0);
        }
        self.emit(
            now_ns,
            EventKind::CmdRetry {
                channel: b.channel as u16,
                seq: b.seq,
                ssd: ssd as u16,
                cid,
                attempt,
            },
        );
    }

    /// Command `cid` on `ssd` was failed at `now_ns`, after `attempts`
    /// submissions, because its deadline expired.
    pub fn cmd_timeout(&self, b: &BatchFacts, ssd: usize, cid: u16, attempts: u32, now_ns: u64) {
        if let Some(m) = &self.metrics {
            m.cmd_timeouts.inc();
        }
        self.emit(
            now_ns,
            EventKind::CmdTimeout {
                channel: b.channel as u16,
                seq: b.seq,
                ssd: ssd as u16,
                cid,
                attempts,
            },
        );
    }

    /// Lane `ssd`'s health machine moved `from` → `to` (state codes) at
    /// `now_ns`, with `faults` cumulative transient faults on the lane.
    pub fn lane_transition(&self, ssd: usize, from: u8, to: u8, faults: u64, now_ns: u64) {
        if let Some(m) = &self.metrics {
            m.lane_health[ssd].set(u64::from(to));
        }
        if let Some(rec) = &self.recorder {
            rec.emit_at(
                now_ns,
                EventKind::LaneHealth {
                    ssd: ssd as u16,
                    from,
                    to,
                    retries: faults,
                },
            );
        }
    }

    /// Every one of the group's `sqes` commands reached a final state by
    /// `complete_ns`, `errors` of them failed; `anchor_ns` is the group's
    /// submit instant (its accept instant if it never fully submitted).
    pub fn group_complete(
        &self,
        b: &BatchFacts,
        at: Lane,
        sqes: u32,
        errors: u64,
        anchor_ns: u64,
        complete_ns: u64,
    ) {
        let span = complete_ns.saturating_sub(anchor_ns);
        self.stage(b.op, Stage::Complete, complete_ns, span);
        if let Some(m) = &self.metrics {
            m.ssd_complete_ns[at.ssd].record(span);
            m.ssd_completed[at.ssd].add(u64::from(sqes));
        }
        if let Some(w) = &self.windows {
            w.ssd_complete[at.ssd].record_at(complete_ns, span);
            // Denominator of the windowed retry rate: groups closed.
            w.ssd_retries[at.ssd].add_at(complete_ns, 0, 1);
        }
        self.emit(
            complete_ns,
            EventKind::GroupComplete {
                channel: b.channel as u16,
                seq: b.seq,
                ssd: at.ssd as u16,
                worker: at.worker as u16,
                errors: sat32(errors),
            },
        );
    }

    /// Batch `b`, whose last command finished at `complete_ns`, retires at
    /// `retire_ns` with `errors` failed commands; returns its
    /// doorbell→retire latency.
    ///
    /// The counters a waiter may read the moment its wait returns settle
    /// first, then `release` runs — the threaded driver's region-4
    /// release-store, which that waiter acquires — and only then the
    /// histograms, windows, SLO sample and event, off the client's
    /// critical path.
    pub fn batch_retire(
        &self,
        b: &BatchFacts,
        errors: u64,
        complete_ns: u64,
        retire_ns: u64,
        release: impl FnOnce(),
    ) -> u64 {
        if let Some(m) = &self.metrics {
            m.batches.inc();
            m.requests.add(b.requests);
            m.errors.add(errors);
            m.io_time_ns.add(retire_ns.saturating_sub(b.dispatched_ns));
            if b.compute_gap_ns > 0 {
                m.compute_time_ns.add(b.compute_gap_ns);
                m.compute_samples.inc();
            }
        }
        release();
        let total_ns = retire_ns.saturating_sub(b.doorbell_ns);
        let span = retire_ns.saturating_sub(complete_ns);
        self.stage(b.op, Stage::Retire, retire_ns, span);
        if let Some(m) = &self.metrics {
            m.batch_total(b.channel, b.op).record(total_ns);
        }
        if let Some(w) = &self.windows {
            w.channel_batch[b.channel].record_at(retire_ns, total_ns);
        }
        if let Some(slo) = &self.slo {
            slo.record(b.channel, total_ns, errors, retire_ns);
            if let Some(m) = &self.metrics {
                let burn = slo.burn_rate(b.channel, retire_ns).max();
                m.slo_burn[b.channel].set((burn * 1000.0) as u64);
            }
        }
        self.emit(
            retire_ns,
            EventKind::BatchRetire {
                channel: b.channel as u16,
                seq: b.seq,
                errors: sat32(errors),
            },
        );
        total_ns
    }
}
