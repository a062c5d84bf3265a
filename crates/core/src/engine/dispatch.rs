//! Doorbell pickup and dispatch planning.
//!
//! [`poll_channel`] is the engine's one pickup path, called inline by the
//! worker that owns the channel (`shard`): it snapshots a channel whose
//! region-3 doorbell advanced and hands the batch to
//! [`cam_protocol::plan_batch`] — dedup, stripe split, per-SSD grouping all
//! happen in the shared protocol layer, so the DES driver plans
//! identically. The rest is threaded-driver glue: timestamps, metrics,
//! events; [`open_batch`] turns the plan into the batch record and one
//! [`GroupSpec`] per non-empty group.

use std::sync::atomic::Ordering;

use cam_protocol::{op_index, open_batch, plan_batch, BatchStamps, GroupSpec};
use cam_telemetry::{EventKind, Stage};

use super::Shared;

/// Polls channel `ch_idx` once. On a new doorbell (relative to
/// `*last_seen`, which is advanced), snapshots and plans the batch,
/// records the pickup metrics/events, and returns one [`GroupSpec`] per
/// non-empty per-SSD group. Returns `None` when no doorbell is pending;
/// `Some(vec![])` for an empty batch (retired inline) — still progress.
pub(super) fn poll_channel(
    sh: &Shared,
    ch_idx: usize,
    last_seen: &mut u64,
) -> Option<Vec<GroupSpec>> {
    let ch = &sh.channels[ch_idx];
    let seq = ch.pending(*last_seen)?;
    *last_seen = seq;
    let (op, blocks, reqs) = ch.snapshot();
    let pickup_ns = sh.clock.now_ns();
    let doorbell_ns = ch.published_at_ns();
    // Compute-gap estimate: the GPU-side interval between the
    // channel's previous retire and this pickup. The retire path
    // stores its timestamp; swapping it out consumes the sample.
    let prev_retire = sh.last_retire[ch_idx].swap(0, Ordering::Relaxed);
    let compute_gap_ns = if prev_retire > 0 {
        pickup_ns.saturating_sub(prev_retire)
    } else {
        0
    };
    if reqs.is_empty() {
        ch.retire(seq, 0);
        return Some(Vec::new());
    }
    let op_idx = op_index(op);
    sh.metrics
        .stage(op_idx, Stage::Pickup)
        .record(pickup_ns.saturating_sub(doorbell_ns));
    if let Some(rec) = &sh.recorder {
        // The doorbell fired on the GPU side before this thread saw
        // it — emit retroactively at the region-3 publish timestamp
        // so the trace span starts where the batch actually started.
        // Empty batches never get here, so every doorbell span is
        // closed by a retire.
        rec.emit_at(
            doorbell_ns,
            EventKind::BatchDoorbell {
                channel: ch_idx as u16,
                seq,
                op: op_idx as u8,
                requests: reqs.len() as u32,
            },
        );
        rec.emit_at(
            pickup_ns,
            EventKind::BatchPickup {
                channel: ch_idx as u16,
                seq,
            },
        );
    }
    let plan = plan_batch(&sh.plan, op, blocks, reqs);
    if !plan.dups.is_empty() {
        sh.metrics.dedup_dropped.add(plan.dups.len() as u64);
    }
    if plan.stripe_splits > 0 {
        sh.metrics.stripe_splits.add(plan.stripe_splits);
    }
    let at = BatchStamps {
        doorbell_ns,
        pickup_ns,
        dispatched_ns: pickup_ns,
        compute_gap_ns,
    };
    Some(open_batch(plan, ch_idx, seq, at))
}
