//! Doorbell pickup and dispatch planning.
//!
//! [`poll_channel`] is the engine's one pickup path, called inline by the
//! worker that owns the channel (`shard`): on a new region-3 doorbell it
//! plans the batch straight out of regions 1 and 2 with the shared
//! [`Planner`] — dedup, stripe split, per-SSD grouping all happen in the
//! protocol layer, so the DES driver plans identically — and opens it into
//! one [`GroupSpec`] per non-empty group ([`open_groups`]). The rest is
//! threaded-driver glue: timestamps, the pickup report to the lifecycle
//! tap, and the worker's [`Pickup`] buffers, which recycle each batch's
//! record and run lists so that a warm pickup allocates nothing.

use std::sync::atomic::Ordering;
use std::sync::Arc;

use cam_iostacks::shell::batch_facts;
use cam_protocol::{open_groups, BatchCore, BatchStamps, GroupSpec, Planner};
use cam_telemetry::clock::now_ns;

use super::Shared;

/// A run list: `(device LBA, address, blocks)` per stripe-contiguous run.
type Runs = Vec<(u64, u64, u32)>;

/// One worker's pickup buffers, and the parts of earlier batches it reuses:
/// the planner's scratch, the run lists being planned, the run lists of
/// groups this worker admitted and the batch records it retired. Each
/// spare list is capped at what the engine can have live at once, so a
/// worker that retires more batches than it picks up (several workers
/// share the channels' SSDs) keeps no more than that.
pub(super) struct Pickup {
    planner: Planner,
    /// One run list per SSD, empty between pickups.
    runs: Vec<Runs>,
    /// Run lists of admitted groups, emptied.
    spare_runs: Vec<Runs>,
    /// Retired batch records no one else holds.
    spare_batches: Vec<Arc<BatchCore>>,
    /// The groups of the batch just picked up, until they are routed.
    pub(super) specs: Vec<GroupSpec>,
    /// Most batches outstanding at once: one per channel.
    max_batches: usize,
}

impl Pickup {
    pub(super) fn new(n_ssds: usize, n_channels: usize) -> Self {
        Pickup {
            planner: Planner::default(),
            runs: (0..n_ssds).map(|_| Vec::new()).collect(),
            spare_runs: Vec::new(),
            spare_batches: Vec::new(),
            specs: Vec::with_capacity(n_ssds),
            max_batches: n_channels,
        }
    }

    /// Keeps an admitted group's run list for a later batch.
    pub(super) fn recycle_runs(&mut self, mut runs: Runs) {
        if self.spare_runs.len() < self.max_batches * self.runs.len() {
            runs.clear();
            self.spare_runs.push(runs);
        }
    }

    /// Keeps a retired batch's record for a later batch, unless another
    /// worker still holds it (its report of the batch's other group).
    pub(super) fn recycle_batch(&mut self, mut batch: Arc<BatchCore>) {
        if self.spare_batches.len() < self.max_batches && Arc::get_mut(&mut batch).is_some() {
            self.spare_batches.push(batch);
        }
    }
}

/// Polls channel `ch_idx` once. On a new doorbell (relative to
/// `*last_seen`, which is advanced), plans and opens the batch into
/// `p.specs`, reports the pickup and returns true; an empty batch is
/// retired inline, which is progress too. Returns false when no doorbell
/// is pending.
pub(super) fn poll_channel(
    sh: &Shared,
    ch_idx: usize,
    last_seen: &mut u64,
    p: &mut Pickup,
) -> bool {
    let ch = &sh.channels[ch_idx];
    let Some(seq) = ch.pending(*last_seen) else {
        return false;
    };
    *last_seen = seq;
    let (op, blocks, n) = ch.header();
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
    if n == 0 {
        ch.retire(seq, 0);
        return true;
    }
    let at = BatchStamps {
        doorbell_ns,
        pickup_ns,
        dispatched_ns: pickup_ns,
        compute_gap_ns,
    };
    let fresh = || BatchCore::new(ch_idx, seq, op, n as u64, blocks, at);
    let mut batch = p.spare_batches.pop().unwrap_or_else(|| Arc::new(fresh()));
    let record = Arc::get_mut(&mut batch).expect("a new or spare batch record is unshared");
    // A spare record keeps its duplicate list's buffer.
    let mut dups = std::mem::take(&mut record.dups);
    dups.clear();
    // Room for a whole batch in every list this batch may fill, so the
    // lists grow only with the batch size, not with its luck.
    dups.reserve(n);
    for runs in &mut p.runs {
        runs.reserve(n);
    }
    let stripe_splits = p.planner.plan(
        &sh.plan,
        op,
        blocks,
        n,
        |i| ch.request(i),
        &mut dups,
        &mut p.runs,
    );
    let dedup_dropped = dups.len() as u64;
    *record = BatchCore { dups, ..fresh() };
    // A published batch carries at least one block per request
    // (`Channel::try_publish`), so it plans at least one run: every doorbell
    // the tap reports is closed by a retire.
    sh.tap
        .batch_pickup(&batch_facts(&batch), dedup_dropped, stripe_splits);
    let Pickup {
        runs,
        spare_runs,
        specs,
        ..
    } = p;
    open_groups(batch, runs, || spare_runs.pop().unwrap_or_default(), specs);
    debug_assert!(!specs.is_empty(), "batch ch{ch_idx} seq {seq} has no group");
    true
}
