//! Shared per-batch completion accounting.
//!
//! A batch is retired when its last per-SSD group completes — pure
//! accounting on [`BatchCore::remaining`], no thread or simulated process
//! ever waits for it. The atomics are the one concession to the threaded
//! driver (several workers may close groups of one batch concurrently);
//! they read identically under the single-threaded DES driver.

use std::sync::atomic::{AtomicU64, AtomicUsize, Ordering};
use std::sync::Arc;

use crate::plan::{BatchPlan, ChannelOp};
use crate::worker::GroupSpec;

/// One batch's identity, plan residue, and completion accounting, owned
/// jointly by the batch's per-SSD groups.
pub struct BatchCore {
    /// Channel the batch was published on.
    pub channel: usize,
    /// Channel-local batch sequence number.
    pub seq: u64,
    /// Operation carried by the batch.
    pub op: ChannelOp,
    /// Per-SSD groups still outstanding; the decrement that hits zero
    /// retires the batch.
    pub remaining: AtomicUsize,
    /// Failed commands accumulated across the batch's groups.
    pub errors: AtomicU64,
    /// Requests as published (pre-dedup).
    pub requests: u64,
    /// When dispatch planning ran, on the driver's clock (anchors the
    /// batch's I/O-time measurement).
    pub dispatched_ns: u64,
    /// GPU-side gap between the channel's previous retire and this pickup
    /// (the control plane's estimate of computation time); 0 = no sample.
    pub compute_gap_ns: u64,
    /// When the GPU rang the doorbell, on the driver's clock.
    pub doorbell_ns: u64,
    /// When the poller picked the batch up, on the driver's clock.
    pub pickup_ns: u64,
    /// Duplicate read requests removed before dispatch: `(primary address,
    /// duplicate address)` pairs, replicated by a host-side copy right
    /// before retire so every destination the GPU asked for is populated.
    pub dups: Vec<(u64, u64)>,
    /// Blocks per request (the replication copy length, in blocks).
    pub blocks: u32,
}

/// When the driver saw a batch, on its own clock (see the [`BatchCore`]
/// fields of the same names).
#[derive(Clone, Copy, Debug)]
pub struct BatchStamps {
    /// When the GPU rang the doorbell.
    pub doorbell_ns: u64,
    /// When the poller picked the batch up.
    pub pickup_ns: u64,
    /// When dispatch planning ran (or, in virtual time, finishes).
    pub dispatched_ns: u64,
    /// Previous retire → this pickup on the channel; 0 = no sample.
    pub compute_gap_ns: u64,
}

/// Opens the batch `plan` describes: its non-empty per-SSD groups in SSD
/// order — ready for [`WorkerCore::on_group`](crate::WorkerCore::on_group)
/// — sharing one [`BatchCore`] that expects a close from each. A plan with
/// no runs yields no groups (nothing would ever retire its core).
///
/// [`open_groups`] with a fresh record and fresh buffers.
pub fn open_batch(
    mut plan: BatchPlan,
    channel: usize,
    seq: u64,
    at: BatchStamps,
) -> Vec<GroupSpec> {
    let mut batch = BatchCore::new(channel, seq, plan.op, plan.requests, plan.blocks, at);
    batch.dups = std::mem::take(&mut plan.dups);
    let mut specs = Vec::new();
    open_groups(Arc::new(batch), &mut plan.groups, Vec::new, &mut specs);
    specs
}

/// Opens `batch` over its planned runs, `groups[ssd]` per SSD: each
/// non-empty list moves into a [`GroupSpec`] pushed to `specs`, in SSD
/// order, and `spare()` takes its place, so a driver that keeps its run
/// lists hands the same buffers round. `batch` expects one close per group
/// pushed.
pub fn open_groups(
    batch: Arc<BatchCore>,
    groups: &mut [Vec<(u64, u64, u32)>],
    mut spare: impl FnMut() -> Vec<(u64, u64, u32)>,
    specs: &mut Vec<GroupSpec>,
) {
    let n_groups = groups.iter().filter(|g| !g.is_empty()).count();
    // Relaxed: the groups reach their workers through the driver's
    // hand-off (a channel send, or the same thread), which publishes this
    // store along with them.
    batch.remaining.store(n_groups, Ordering::Relaxed);
    for (ssd, reqs) in groups.iter_mut().enumerate() {
        if !reqs.is_empty() {
            specs.push(GroupSpec {
                ssd,
                reqs: std::mem::replace(reqs, spare()),
                batch: Arc::clone(&batch),
            });
        }
    }
}

impl BatchCore {
    /// A batch's record before its groups open: no group outstanding, no
    /// error and no duplicate pair yet.
    pub fn new(
        channel: usize,
        seq: u64,
        op: ChannelOp,
        requests: u64,
        blocks: u32,
        at: BatchStamps,
    ) -> Self {
        BatchCore {
            channel,
            seq,
            op,
            remaining: AtomicUsize::new(0),
            errors: AtomicU64::new(0),
            requests,
            dispatched_ns: at.dispatched_ns,
            compute_gap_ns: at.compute_gap_ns,
            doorbell_ns: at.doorbell_ns,
            pickup_ns: at.pickup_ns,
            dups: Vec::new(),
            blocks,
        }
    }

    /// Closes one group with `errors` failed commands; returns whether this
    /// was the batch's last group — the caller must then retire the batch
    /// (exactly one caller sees `true`).
    pub fn finish_group(&self, errors: u64) -> bool {
        if errors > 0 {
            self.errors.fetch_add(errors, Ordering::Relaxed);
        }
        self.remaining.fetch_sub(1, Ordering::AcqRel) == 1
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::plan::{plan_batch, PlanConfig};

    const AT: BatchStamps = BatchStamps {
        doorbell_ns: 10,
        pickup_ns: 20,
        dispatched_ns: 30,
        compute_gap_ns: 5,
    };

    #[test]
    fn last_group_retires_exactly_once() {
        let cfg = PlanConfig {
            n_ssds: 3,
            stripe_blocks: 1,
            block_size: 4096,
        };
        let reqs = (0..12u64).map(|lba| (lba, lba * 4096)).collect();
        let groups = open_batch(plan_batch(&cfg, ChannelOp::Read, 1, reqs), 0, 1, AT);
        assert_eq!(groups.len(), 3);
        let b = &groups[0].batch;
        assert!(!b.finish_group(0));
        assert!(!b.finish_group(2));
        assert!(b.finish_group(1), "third close retires");
        assert_eq!(b.errors.load(Ordering::Relaxed), 3);
    }

    #[test]
    fn open_batch_matches_the_field_by_field_construction() {
        // Seeded plans with duplicates, stripe crossings and untouched SSDs,
        // checked against the construction both drivers used to spell out.
        let mut x = 0x9E37_79B9_7F4A_7C15u64;
        let mut next = move |n: u64| {
            x ^= x << 13;
            x ^= x >> 7;
            x ^= x << 17;
            x % n
        };
        let mut saw_empty_group = false;
        let mut saw_dups = false;
        for round in 0..64u64 {
            let cfg = PlanConfig {
                n_ssds: 1 + next(6) as usize,
                stripe_blocks: 1 + next(4),
                block_size: 4096,
            };
            let op = if round % 4 == 3 {
                ChannelOp::Write
            } else {
                ChannelOp::Read
            };
            let blocks = 1 + next(3) as u32;
            let n = next(9);
            let reqs: Vec<(u64, u64)> = (0..n).map(|i| (next(12), i * 0x4000)).collect();
            let plan = plan_batch(&cfg, op, blocks, reqs.clone());
            let want = plan_batch(&cfg, op, blocks, reqs);
            let groups = open_batch(plan, 7, round, AT);
            assert_eq!(groups.len(), want.n_groups());
            saw_empty_group |= groups.len() < cfg.n_ssds;
            saw_dups |= !want.dups.is_empty();
            let Some(first) = groups.first() else {
                continue;
            };
            let batch = &first.batch;
            assert_eq!(batch.remaining.load(Ordering::Relaxed), want.n_groups());
            assert_eq!(batch.errors.load(Ordering::Relaxed), 0);
            assert_eq!((batch.channel, batch.seq, batch.op), (7, round, op));
            assert_eq!((batch.requests, batch.blocks), (n, blocks));
            assert_eq!(batch.dups, want.dups);
            assert_eq!(
                (batch.doorbell_ns, batch.pickup_ns),
                (AT.doorbell_ns, AT.pickup_ns)
            );
            assert_eq!(
                (batch.dispatched_ns, batch.compute_gap_ns),
                (AT.dispatched_ns, AT.compute_gap_ns)
            );
            let expected: Vec<_> = want
                .groups
                .iter()
                .enumerate()
                .filter(|(_, g)| !g.is_empty())
                .collect();
            for (spec, (ssd, reqs)) in groups.iter().zip(expected) {
                assert_eq!(spec.ssd, ssd);
                assert_eq!(&spec.reqs, reqs);
                assert!(Arc::ptr_eq(&spec.batch, batch), "groups share one core");
            }
        }
        assert!(saw_empty_group && saw_dups, "seeds must cover both cases");
    }
}
