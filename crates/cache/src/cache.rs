//! [`BlockCache`] — the threaded wrapper over the clock-agnostic
//! [`CacheCore`]: pinned GPU memory, a mutex + condvar, and RAII handles.
//!
//! Every cache *decision* (CLOCK eviction, refcount pinning, in-flight
//! miss coalescing, dirty tracking, readahead planning) lives in
//! `cam_protocol::cache_core` — the same state machine the DES driver and
//! the fidelity replay step in virtual time. This wrapper adds what only
//! the threaded world needs:
//!
//! * slot addresses inside one pinned [`GpuBuffer`];
//! * one lock and one metrics sync per demand read batch, classified by
//!   the core's `plan_read_batch` (the one classifier every driver runs);
//! * blocking coalesced waits ([`SlotWait`]) on a condvar;
//! * RAII pin/fill ownership ([`SlotPin`], [`FillTicket`]);
//! * `cam_cache_*` metrics, synced from the core's decision counters;
//! * `CacheEvict` flight-recorder events.

use std::sync::{Arc, Condvar, Mutex, MutexGuard};

use cam_gpu::GpuBuffer;
use cam_protocol::cache_core::{
    CacheCore, CacheDecisionCounters, CoreLookup, Intent, ReadBatchPlan, ReadaheadPlan, Resolve,
};
use cam_telemetry::{EventKind, FlightRecorder, MetricsRegistry};

use crate::config::CacheConfig;
use crate::metrics::CacheMetrics;

/// Outcome of a [`BlockCache::lookup`].
pub enum Lookup {
    /// The block is resident; the pin keeps it so until dropped.
    Hit(SlotPin),
    /// A slot was reserved for this LBA; the caller owns the one fill.
    Miss(FillTicket),
    /// Another caller is already filling this LBA — wait instead of issuing
    /// a second NVMe request.
    InFlight(SlotWait),
    /// No clean slot could be reclaimed, but dirty unpinned slots exist:
    /// flush (see [`BlockCache::take_dirty`]) and retry.
    NeedFlush,
    /// Every slot in the LBA's shard is pinned or filling; the caller must
    /// fall back to an uncached transfer or drain pins first.
    Busy,
}

struct CoreState {
    core: CacheCore,
    /// Counter values already mirrored into the metrics registry.
    synced: CacheDecisionCounters,
}

struct Inner {
    buf: GpuBuffer,
    block_size: u32,
    state: Mutex<CoreState>,
    /// Signalled whenever a fill completes or aborts.
    filled: Condvar,
    metrics: CacheMetrics,
    recorder: Option<Arc<FlightRecorder>>,
}

/// The sharded block cache. Cheap to clone (an `Arc` handle).
#[derive(Clone)]
pub struct BlockCache {
    inner: Arc<Inner>,
}

/// A planned (reserved, not yet issued) speculative readahead batch: the
/// core's decision plus one [`FillTicket`] per reserved slot. Dropping the
/// batch without [`BlockCache::commit_readahead`] aborts every fill.
pub struct ReadaheadBatch {
    plan: ReadaheadPlan,
    tickets: Vec<FillTicket>,
}

impl ReadaheadBatch {
    /// First predicted LBA.
    pub fn pred_start(&self) -> u64 {
        self.plan.pred_start
    }

    /// Window the detector proposed, in blocks.
    pub fn window(&self) -> u32 {
        self.plan.window
    }

    /// The reserved fills, in LBA order.
    pub fn tickets(&self) -> &[FillTicket] {
        &self.tickets
    }

    /// Consumes the batch, handing the caller the fill tickets (after a
    /// successful [`BlockCache::commit_readahead`]).
    pub fn into_tickets(self) -> Vec<FillTicket> {
        self.tickets
    }
}

impl BlockCache {
    /// Builds a cache over `buf`, which must hold at least `cfg.slots`
    /// blocks of `block_size` bytes of pinned (DMA-able) memory.
    pub fn new(
        buf: GpuBuffer,
        block_size: u32,
        cfg: CacheConfig,
        registry: &MetricsRegistry,
        recorder: Option<Arc<FlightRecorder>>,
    ) -> Self {
        assert!(cfg.slots >= 1, "cache needs at least one slot");
        assert!(
            buf.capacity() >= cfg.slots * block_size as usize,
            "cache buffer too small: {} < {} slots x {} B",
            buf.capacity(),
            cfg.slots,
            block_size
        );
        let metrics = CacheMetrics::new(registry);
        metrics.slots.set(cfg.slots as u64);
        BlockCache {
            inner: Arc::new(Inner {
                buf,
                block_size,
                state: Mutex::new(CoreState {
                    core: CacheCore::new(cfg),
                    synced: CacheDecisionCounters::default(),
                }),
                filled: Condvar::new(),
                metrics,
                recorder,
            }),
        }
    }

    /// The cache's metric bundle (registered in the registry passed to
    /// [`new`](Self::new)).
    pub fn metrics(&self) -> &CacheMetrics {
        &self.inner.metrics
    }

    /// Block size in bytes.
    pub fn block_size(&self) -> u32 {
        self.inner.block_size
    }

    /// The core's decision counters so far — the cross-driver fidelity
    /// currency (see `cam_protocol::cache_core`).
    pub fn decision_counters(&self) -> CacheDecisionCounters {
        self.lock().core.counters()
    }

    fn lock(&self) -> MutexGuard<'_, CoreState> {
        self.inner.state.lock().unwrap()
    }

    /// Pinned address of global slot index `idx`.
    pub(crate) fn slot_addr(&self, idx: usize) -> u64 {
        self.inner.buf.addr() + idx as u64 * self.inner.block_size as u64
    }

    /// Mirrors new core decisions into the metrics registry. Called with
    /// the state lock held after every mutating core operation.
    fn sync_metrics(&self, st: &mut CoreState) {
        let c = st.core.counters();
        let s = &st.synced;
        let m = &self.inner.metrics;
        m.hits.add(c.hits - s.hits);
        m.misses.add(c.misses - s.misses);
        m.coalesced.add(c.coalesced - s.coalesced);
        m.evictions.add(c.evictions - s.evictions);
        m.write_absorbed.add(c.write_absorbed - s.write_absorbed);
        m.flushed_blocks.add(c.flushed_blocks - s.flushed_blocks);
        m.readahead_issued
            .add(c.readahead_issued - s.readahead_issued);
        m.readahead_hits.add(c.readahead_hits - s.readahead_hits);
        st.synced = c;
    }

    fn emit_evict(&self, lba: u64) {
        if let Some(rec) = &self.inner.recorder {
            rec.emit(EventKind::CacheEvict { lba, dirty: false });
        }
    }

    /// Whether `lba` currently has a slot (resident *or* filling). Racy by
    /// nature — use only as a cheap filter.
    pub fn contains(&self, lba: u64) -> bool {
        self.lock().core.contains(lba)
    }

    fn lookup_with(&self, lba: u64, intent: Intent) -> Lookup {
        let mut st = self.lock();
        let out = match st.core.lookup(lba, intent) {
            CoreLookup::Hit { slot } => Lookup::Hit(SlotPin {
                cache: self.clone(),
                slot,
                lba,
                addr: self.slot_addr(slot),
            }),
            CoreLookup::Miss { slot, evicted } => {
                if let Some(old) = evicted {
                    self.emit_evict(old);
                }
                Lookup::Miss(self.fill_ticket(slot, lba))
            }
            CoreLookup::InFlight => Lookup::InFlight(self.slot_wait(lba, intent)),
            CoreLookup::NeedFlush => Lookup::NeedFlush,
            CoreLookup::Busy => Lookup::Busy,
        };
        self.sync_metrics(&mut st);
        out
    }

    /// The ticket for the fill the core reserved on `slot`.
    fn fill_ticket(&self, slot: usize, lba: u64) -> FillTicket {
        FillTicket {
            cache: self.clone(),
            slot,
            lba,
            addr: self.slot_addr(slot),
            done: false,
        }
    }

    fn slot_wait(&self, lba: u64, intent: Intent) -> SlotWait {
        SlotWait {
            cache: self.clone(),
            lba,
            intent,
        }
    }

    /// Classifies `lba`: resident (pin returned), absent (fill ticket
    /// returned, slot reserved), or being filled by someone else (waiter
    /// returned). See [`Lookup`] for the two backpressure outcomes.
    ///
    /// Counts no demand metrics — hit/miss accounting belongs to the
    /// intent-aware device paths ([`lookup_read`](Self::lookup_read),
    /// [`lookup_write`](Self::lookup_write)); a speculative hit still
    /// counts its readahead hit, whoever touches it.
    pub fn lookup(&self, lba: u64) -> Lookup {
        self.lookup_with(lba, Intent::Speculative)
    }

    /// [`lookup`](Self::lookup) as a demand read: counts
    /// hits/misses/coalesced decisions.
    pub fn lookup_read(&self, lba: u64) -> Lookup {
        self.lookup_with(lba, Intent::DemandRead)
    }

    /// [`lookup`](Self::lookup) as a write-back absorption: counts
    /// `write_absorbed` decisions.
    pub fn lookup_write(&self, lba: u64) -> Lookup {
        self.lookup_with(lba, Intent::Write)
    }

    /// Classifies the demand reads `lbas[from..]` with
    /// [`CacheCore::plan_read_batch`], under one lock and with one metrics
    /// sync, and returns how many it classified (it stops where a flush is
    /// needed). The hits and uncached fallbacks stay in `plan`; its fills
    /// and coalesced accesses move into `fills` and `waits` as
    /// [`FillTicket`]s and [`SlotWait`]s, each tagged with its position.
    pub(crate) fn plan_read_batch(
        &self,
        lbas: &[u64],
        from: usize,
        plan: &mut ReadBatchPlan,
        fills: &mut Vec<(usize, FillTicket)>,
        waits: &mut Vec<(usize, SlotWait)>,
    ) -> usize {
        let mut st = self.lock();
        let classified = st.core.plan_read_batch(lbas, from, plan);
        self.sync_metrics(&mut st);
        drop(st);
        for lba in plan.evicted.drain(..) {
            self.emit_evict(lba);
        }
        for (pos, slot, lba) in plan.fills.drain(..) {
            fills.push((pos, self.fill_ticket(slot, lba)));
        }
        for (pos, lba) in plan.waits.drain(..) {
            waits.push((pos, self.slot_wait(lba, Intent::DemandRead)));
        }
        classified
    }

    /// Feeds the readahead stream detector with a demand batch starting at
    /// `batch_start` and reserves fills for the predicted window (see
    /// [`CacheCore::plan_readahead`]). Issue the I/O, then either
    /// [`commit_readahead`](Self::commit_readahead) or drop the batch to
    /// abort the reserved fills.
    pub fn plan_readahead(&self, batch_start: u64, array_blocks: u64) -> Option<ReadaheadBatch> {
        let mut st = self.lock();
        let plan = st.core.plan_readahead(batch_start, array_blocks);
        self.sync_metrics(&mut st);
        drop(st);
        let plan = plan?;
        for &lba in &plan.evicted {
            self.emit_evict(lba);
        }
        let tickets = plan
            .fills
            .iter()
            .map(|&(slot, lba)| self.fill_ticket(slot, lba))
            .collect();
        Some(ReadaheadBatch { plan, tickets })
    }

    /// Commits a planned readahead batch whose I/O was issued: counts the
    /// issue and arms the accuracy sample (see
    /// [`CacheCore::commit_readahead`]).
    pub fn commit_readahead(&self, batch: &ReadaheadBatch) {
        let mut st = self.lock();
        st.core.commit_readahead(&batch.plan);
        self.sync_metrics(&mut st);
    }

    /// Marks the committed speculative batch as retired (after its tickets
    /// completed or aborted).
    pub fn readahead_retired(&self) {
        self.lock().core.readahead_retired();
    }

    /// Claims up to `max` dirty, unpinned, resident slots for a flush: each
    /// comes back pinned (so eviction and concurrent flushes skip it) with
    /// its dirty bit already cleared — a racing `write_back` re-dirties the
    /// slot and the *next* flush picks it up again.
    pub fn take_dirty(&self, max: usize) -> Vec<SlotPin> {
        let mut st = self.lock();
        let claimed = st.core.take_dirty(max);
        self.sync_metrics(&mut st);
        drop(st);
        claimed
            .into_iter()
            .map(|(slot, lba)| SlotPin {
                cache: self.clone(),
                slot,
                lba,
                addr: self.slot_addr(slot),
            })
            .collect()
    }

    /// Number of dirty resident blocks (flush-loop termination check).
    pub fn dirty_blocks(&self) -> usize {
        self.lock().core.dirty_blocks()
    }

    /// Number of resident blocks.
    pub fn resident_blocks(&self) -> usize {
        self.lock().core.resident_blocks()
    }
}

/// A resident block, pinned against eviction until dropped.
pub struct SlotPin {
    cache: BlockCache,
    slot: usize,
    lba: u64,
    addr: u64,
}

impl SlotPin {
    /// Pinned GPU-memory address of the cached block.
    pub fn addr(&self) -> u64 {
        self.addr
    }

    /// Array LBA of the cached block.
    pub fn lba(&self) -> u64 {
        self.lba
    }

    /// Marks the block dirty (its slot now differs from the array).
    pub fn mark_dirty(&self) {
        self.cache.lock().core.mark_dirty(self.slot);
    }
}

impl Drop for SlotPin {
    fn drop(&mut self) {
        self.cache.lock().core.unpin(self.slot);
    }
}

/// Ownership of the one NVMe fill for a missed LBA. DMA the block into
/// [`addr`](Self::addr), then [`complete`](Self::complete). Dropping the
/// ticket without completing aborts the fill: the slot is freed and every
/// [`SlotWait`] is woken (they observe the abort and fall back).
pub struct FillTicket {
    cache: BlockCache,
    slot: usize,
    lba: u64,
    addr: u64,
    done: bool,
}

impl FillTicket {
    /// Pinned GPU-memory address the fill must land at.
    pub fn addr(&self) -> u64 {
        self.addr
    }

    /// Array LBA being filled.
    pub fn lba(&self) -> u64 {
        self.lba
    }

    /// Publishes the filled block as resident and returns it pinned.
    /// `dirty` marks slots populated from host data (write absorption)
    /// rather than from the array.
    pub fn complete(mut self, dirty: bool) -> SlotPin {
        self.done = true;
        self.cache.lock().core.complete_fill(self.slot, dirty);
        self.cache.inner.filled.notify_all();
        SlotPin {
            cache: self.cache.clone(),
            slot: self.slot,
            lba: self.lba,
            addr: self.addr,
        }
    }

    /// Publishes a speculative (readahead) fill: resident, unpinned, and
    /// flagged so the first demand access counts as a readahead hit.
    pub fn complete_speculative(mut self) {
        self.done = true;
        self.cache.lock().core.complete_fill_speculative(self.slot);
        self.cache.inner.filled.notify_all();
    }
}

impl Drop for FillTicket {
    fn drop(&mut self) {
        if self.done {
            return;
        }
        self.cache.lock().core.abort_fill(self.slot);
        self.cache.inner.filled.notify_all();
    }
}

/// A coalesced miss: the LBA is being filled by another caller's
/// [`FillTicket`]. [`wait`](Self::wait) blocks until that fill resolves.
pub struct SlotWait {
    cache: BlockCache,
    lba: u64,
    intent: Intent,
}

impl SlotWait {
    /// Blocks until the in-flight fill completes (returns the block pinned)
    /// or aborts (returns `None`; the caller must fetch the block itself).
    pub fn wait(self) -> Option<SlotPin> {
        let inner = &self.cache.inner;
        let mut st = inner.state.lock().unwrap();
        loop {
            match st.core.resolve_wait(self.lba, self.intent) {
                Resolve::Ready { slot } => {
                    self.cache.sync_metrics(&mut st);
                    return Some(SlotPin {
                        cache: self.cache.clone(),
                        slot,
                        lba: self.lba,
                        addr: self.cache.slot_addr(slot),
                    });
                }
                Resolve::Aborted => return None,
                Resolve::Pending => {
                    st = inner.filled.wait(st).unwrap();
                }
            }
        }
    }
}
