//! Doorbell pickup and dispatch planning.
//!
//! [`poll_channel`] is the engine's one pickup path, called inline by the
//! worker that owns the channel (`shard`): it snapshots a channel whose
//! region-3 doorbell advanced and hands the batch to
//! [`cam_protocol::plan_batch`] — dedup, stripe split, per-SSD grouping all
//! happen in the shared protocol layer, so the DES driver plans
//! identically. The rest is threaded-driver glue: timestamps and the
//! pickup report to the lifecycle tap; [`open_batch`] turns the plan into
//! the batch record and one [`GroupSpec`] per non-empty group.

use std::sync::atomic::Ordering;

use cam_iostacks::shell::batch_facts;
use cam_protocol::{open_batch, plan_batch, BatchStamps, GroupSpec};
use cam_telemetry::clock::now_ns;

use super::Shared;

/// Polls channel `ch_idx` once. On a new doorbell (relative to
/// `*last_seen`, which is advanced), snapshots and plans the batch,
/// reports the pickup, and returns one [`GroupSpec`] per
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
    let pickup_ns = now_ns();
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
    let plan = plan_batch(&sh.plan, op, blocks, reqs);
    let (dedup_dropped, stripe_splits) = (plan.dups.len() as u64, plan.stripe_splits);
    let at = BatchStamps {
        doorbell_ns,
        pickup_ns,
        dispatched_ns: pickup_ns,
        compute_gap_ns,
    };
    let groups = open_batch(plan, ch_idx, seq, at);
    // Empty batches never get here, so every doorbell the tap reports is
    // closed by a retire (a batch without groups would never retire).
    if let Some(g) = groups.first() {
        sh.tap
            .batch_pickup(&batch_facts(&g.batch), dedup_dropped, stripe_splits);
    }
    Some(groups)
}
