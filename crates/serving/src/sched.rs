//! Deficit-round-robin fair scheduling of tenant queues onto a channel.
//!
//! Each CAM channel carries one outstanding batch at a time, so fairness
//! is decided at batch-build time: [`FairScheduler::next_batch`] assembles
//! the next batch from the per-tenant queues. Under [`Policy::Drr`] every
//! backlogged tenant earns `quantum_blocks` of deficit per round and
//! spends it on its queued items, so a tenant with a huge backlog cannot
//! monopolize the channel — cold tenants ride in *every* batch. Under
//! [`Policy::Fifo`] (the unfair baseline the skew experiment compares
//! against) items drain in arrival order and a hot tenant's backlog heads
//! everyone else off.

use std::collections::VecDeque;

use crate::session::SessionKey;

/// Batch-building policy.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum Policy {
    /// Deficit round robin across tenants (the fair scheduler).
    Drr,
    /// Global arrival order (the unfair baseline).
    Fifo,
}

/// One schedulable unit of work: the demand reads (or readahead) of one
/// admitted step. Items are never split across batches. `S` is how the
/// item names its session: a [`SessionKey`] by default, the table's
/// [`SessionSlot`](crate::SessionSlot) inside `ServingCore`, which resolves
/// the key once at admission and carries the handle to retirement.
#[derive(Clone, Debug)]
pub struct WorkItem<S = SessionKey> {
    /// Owning tenant.
    pub tenant: usize,
    /// Session the blocks belong to (pinned while the item is in flight).
    pub key: S,
    /// Array LBAs to move.
    pub lbas: Vec<u64>,
    /// Resident suffix length to install once the blocks land on the GPU.
    pub resident_target: u64,
    /// Admission instant — the latency clock starts here.
    pub admit_ns: u64,
}

impl<S> WorkItem<S> {
    /// Scheduling cost of the item, blocks.
    pub fn cost(&self) -> u64 {
        self.lbas.len() as u64
    }
}

/// A per-channel scheduler multiplexing tenant queues.
#[derive(Debug)]
pub struct FairScheduler<S = SessionKey> {
    policy: Policy,
    quantum: u64,
    queues: Vec<VecDeque<WorkItem<S>>>,
    deficit: Vec<u64>,
    /// Round-robin position, persistent across batches so service rotates.
    cursor: usize,
    fifo: VecDeque<WorkItem<S>>,
    queued: usize,
}

impl<S> FairScheduler<S> {
    /// A scheduler over `n_tenants` queues. `quantum_blocks` is the DRR
    /// deficit earned per backlogged tenant per round (≥ 1).
    pub fn new(policy: Policy, n_tenants: usize, quantum_blocks: u64) -> Self {
        FairScheduler {
            policy,
            quantum: quantum_blocks.max(1),
            queues: (0..n_tenants).map(|_| VecDeque::new()).collect(),
            deficit: vec![0; n_tenants],
            cursor: 0,
            fifo: VecDeque::new(),
            queued: 0,
        }
    }

    /// Enqueues an item on its tenant's queue.
    pub fn push(&mut self, item: WorkItem<S>) {
        self.queued += 1;
        match self.policy {
            Policy::Drr => self.queues[item.tenant].push_back(item),
            Policy::Fifo => self.fifo.push_back(item),
        }
    }

    /// Items currently queued.
    pub fn len(&self) -> usize {
        self.queued
    }

    /// Whether no items are queued.
    pub fn is_empty(&self) -> bool {
        self.queued == 0
    }

    /// Builds the next batch, at most `max_blocks` blocks. Returns an
    /// empty vec when nothing is queued; otherwise always makes progress
    /// (at least one item, even if it alone exceeds `max_blocks`).
    pub fn next_batch(&mut self, max_blocks: u64) -> Vec<WorkItem<S>> {
        match self.policy {
            Policy::Fifo => self.next_batch_fifo(max_blocks),
            Policy::Drr => self.next_batch_drr(max_blocks),
        }
    }

    fn next_batch_fifo(&mut self, max_blocks: u64) -> Vec<WorkItem<S>> {
        let mut batch = Vec::new();
        let mut blocks = 0;
        while let Some(front) = self.fifo.front() {
            if !batch.is_empty() && blocks + front.cost() > max_blocks {
                break;
            }
            let item = self.fifo.pop_front().expect("front exists");
            self.queued -= 1;
            blocks += item.cost();
            batch.push(item);
        }
        batch
    }

    fn next_batch_drr(&mut self, max_blocks: u64) -> Vec<WorkItem<S>> {
        let n = self.queues.len();
        let mut batch = Vec::new();
        let mut blocks = 0u64;
        // Rounds continue until the batch fills or a full round makes no
        // progress (every backlogged tenant's head item no longer fits).
        loop {
            let mut progressed = false;
            for off in 0..n {
                let t = (self.cursor + off) % n;
                if self.queues[t].is_empty() {
                    // An idle tenant carries no deficit into its next
                    // burst — DRR's standard reset keeps long-idle tenants
                    // from hoarding credit.
                    self.deficit[t] = 0;
                    continue;
                }
                self.deficit[t] = (self.deficit[t] + self.quantum).min(self.quantum * n as u64);
                while let Some(front) = self.queues[t].front() {
                    let cost = front.cost();
                    let fits = blocks + cost <= max_blocks || batch.is_empty();
                    if !fits || self.deficit[t] < cost {
                        break;
                    }
                    let item = self.queues[t].pop_front().expect("front exists");
                    self.queued -= 1;
                    self.deficit[t] -= cost;
                    blocks += cost;
                    batch.push(item);
                    progressed = true;
                    if blocks >= max_blocks {
                        self.cursor = (t + 1) % n;
                        return batch;
                    }
                }
                if self.queues[t].is_empty() {
                    self.deficit[t] = 0;
                }
            }
            if !progressed {
                if batch.is_empty() && self.queued > 0 {
                    // Oversize guard: a lone item larger than the whole
                    // batch budget still ships, alone.
                    for t in 0..n {
                        let q = (self.cursor + t) % n;
                        if let Some(item) = self.queues[q].pop_front() {
                            self.queued -= 1;
                            self.deficit[q] = 0;
                            self.cursor = (q + 1) % n;
                            return vec![item];
                        }
                    }
                }
                return batch;
            }
        }
    }

    /// Removes every queued item of `tenant` (disconnect mid-burst) and
    /// returns them so the caller can release session pins. In-flight
    /// items are not affected — they retire normally.
    pub fn drain_tenant(&mut self, tenant: usize) -> Vec<WorkItem<S>> {
        let drained: Vec<WorkItem<S>> = match self.policy {
            Policy::Drr => {
                self.deficit[tenant] = 0;
                std::mem::take(&mut self.queues[tenant]).into()
            }
            Policy::Fifo => {
                let (keep, drop): (VecDeque<_>, VecDeque<_>) = std::mem::take(&mut self.fifo)
                    .into_iter()
                    .partition(|i| i.tenant != tenant);
                self.fifo = keep;
                drop.into()
            }
        };
        self.queued -= drained.len();
        drained
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn item(tenant: usize, blocks: u64) -> WorkItem {
        WorkItem {
            tenant,
            key: (tenant, 0),
            lbas: (0..blocks).collect(),
            resident_target: blocks,
            admit_ns: 0,
        }
    }

    #[test]
    fn drr_shares_a_batch_between_backlogged_tenants() {
        let mut s = FairScheduler::new(Policy::Drr, 2, 4);
        for _ in 0..10 {
            s.push(item(0, 4));
        }
        s.push(item(1, 4));
        let batch = s.next_batch(16);
        // Tenant 1's single item must ride in the first batch despite
        // tenant 0's 10-item backlog.
        assert!(batch.iter().any(|i| i.tenant == 1), "cold tenant starved");
        assert_eq!(batch.iter().map(WorkItem::cost).sum::<u64>(), 16);
    }

    #[test]
    fn fifo_serves_strictly_in_arrival_order() {
        let mut s = FairScheduler::new(Policy::Fifo, 2, 4);
        for _ in 0..10 {
            s.push(item(0, 4));
        }
        s.push(item(1, 4));
        let batch = s.next_batch(16);
        assert!(batch.iter().all(|i| i.tenant == 0), "FIFO must not reorder");
        assert_eq!(batch.len(), 4);
    }

    #[test]
    fn oversize_item_ships_alone() {
        let mut s = FairScheduler::new(Policy::Drr, 2, 4);
        s.push(item(0, 100));
        s.push(item(1, 2));
        let a = s.next_batch(8);
        let b = s.next_batch(8);
        let mut sizes = vec![a.len(), b.len()];
        sizes.sort_unstable();
        assert_eq!(sizes, vec![1, 1]);
        assert!(s.is_empty());
    }

    #[test]
    fn cursor_rotates_service_across_batches() {
        let mut s = FairScheduler::new(Policy::Drr, 3, 2);
        for t in 0..3 {
            for _ in 0..4 {
                s.push(item(t, 2));
            }
        }
        // Batches of one quantum each: first-served tenant rotates.
        let first: Vec<usize> = (0..3).map(|_| s.next_batch(2)[0].tenant).collect();
        assert_eq!(first.len(), 3);
        assert!(first[0] != first[1] || first[1] != first[2]);
    }

    #[test]
    fn drain_tenant_removes_only_that_tenant() {
        for policy in [Policy::Drr, Policy::Fifo] {
            let mut s = FairScheduler::new(policy, 2, 4);
            s.push(item(0, 2));
            s.push(item(1, 2));
            s.push(item(0, 2));
            let drained = s.drain_tenant(0);
            assert_eq!(drained.len(), 2);
            assert!(drained.iter().all(|i| i.tenant == 0));
            assert_eq!(s.len(), 1);
            let rest = s.next_batch(64);
            assert!(rest.iter().all(|i| i.tenant == 1));
        }
    }
}
