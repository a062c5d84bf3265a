//! [`CacheCore`] — the block cache as a pure, clock-agnostic state machine.
//!
//! This is the cache analogue of [`WorkerCore`](crate::WorkerCore): every
//! *decision* the GPU-memory block cache makes — CLOCK eviction, refcount
//! pinning, in-flight miss coalescing, dirty/write-back policy, and
//! stride-detecting readahead — lives here as plain state transitions over
//! slot indices. No locks, no condvars, no GPU buffers, no I/O: events go
//! in (`lookup`, `complete_fill`, `resolve_wait`, …), typed decisions come
//! out ([`CoreLookup`], [`ReadaheadPlan`]), and every decision bumps a
//! [`CacheDecisionCounters`] field so independent drivers can be asserted
//! *exactly equal* against a pure replay.
//!
//! Three drivers share this object:
//!
//! * the **threaded** `cam-cache::BlockCache` wraps one `CacheCore` in a
//!   mutex + condvar and layers pinned-memory addresses and RAII
//!   pins/tickets on top;
//! * the **DES** cached batch source (`cam_iostacks::cam_des`) steps the
//!   same core in virtual time, so cache-sensitive experiments produce
//!   latency curves without the threaded engine;
//! * the **replay** ([`replay_read_workload`]) runs the core with no driver
//!   at all — the fidelity harness's ground truth.
//!
//! All three classify a demand read batch with one function,
//! [`CacheCore::plan_read_batch`].
//!
//! The slot namespace is *global* (0..slots); sharding exists only to
//! replicate the threaded cache's per-shard CLOCK hands and multiplicative
//! shard hash, so eviction sequences are bit-identical across drivers.
//!
//! A lookup does no division and no SipHash: the shard index masks when
//! the shard count is a power of two, the CLOCK hand wraps with a compare,
//! and each shard's LBA index hashes by Fibonacci multiplication. None of
//! these choices can change a decision — which slot, which victim.

use std::collections::HashMap;
use std::hash::{BuildHasherDefault, Hasher};

/// Configuration for the block cache (threaded wrapper and DES stage).
#[derive(Clone, Copy, Debug)]
pub struct CacheConfig {
    /// Cache capacity in blocks (one pinned GPU-memory slot per block).
    pub slots: usize,
    /// CLOCK partitions. Each shard owns `slots / shards` slots with a
    /// private CLOCK hand. They are not lock stripes: the threaded wrapper
    /// keeps the whole core behind one mutex.
    pub shards: usize,
    /// Maximum dirty blocks written back per flush batch.
    pub flush_batch: usize,
    /// Speculative-prefetch knobs.
    pub readahead: ReadaheadConfig,
}

impl Default for CacheConfig {
    fn default() -> Self {
        CacheConfig {
            slots: 1024,
            shards: 8,
            flush_batch: 256,
            readahead: ReadaheadConfig::default(),
        }
    }
}

impl CacheConfig {
    /// Same knobs with a different slot count (the bench sweep's axis).
    pub fn with_slots(slots: usize) -> Self {
        CacheConfig {
            slots,
            ..CacheConfig::default()
        }
    }
}

/// Adaptive-readahead configuration.
///
/// The engine watches the start LBA of successive demand batches on the
/// read channel. Once the inter-batch stride is stable for two transitions
/// it speculatively fetches a window of blocks one stride ahead, then grows
/// or shrinks the window from the measured accuracy of the previous issue
/// (speculative blocks that later served a demand hit).
#[derive(Clone, Copy, Debug)]
pub struct ReadaheadConfig {
    /// Master switch. Readahead also requires the context to have a third
    /// channel (`CamConfig::n_channels >= 3`) so speculation never occupies
    /// the demand channels — that gate belongs to the driver, which must
    /// not call [`CacheCore::plan_readahead`] without the channel.
    pub enable: bool,
    /// Window floor in blocks.
    pub min_window: u32,
    /// Window at startup, in blocks.
    pub initial_window: u32,
    /// Window ceiling in blocks.
    pub max_window: u32,
    /// Hard cap on speculative blocks in flight — speculation never starves
    /// demand misses of cache slots.
    pub budget_blocks: u32,
}

impl Default for ReadaheadConfig {
    fn default() -> Self {
        ReadaheadConfig {
            enable: true,
            min_window: 4,
            initial_window: 8,
            max_window: 64,
            budget_blocks: 64,
        }
    }
}

/// Detects a stable stride between successive demand-batch start LBAs and
/// predicts where the stream goes next. Pure decision logic, no I/O.
#[derive(Debug)]
pub struct ReadaheadCore {
    cfg: ReadaheadConfig,
    window: u32,
    last_start: Option<u64>,
    stride: Option<i64>,
    /// Consecutive transitions with the same nonzero stride.
    confirmed: u32,
}

impl ReadaheadCore {
    /// A fresh detector with the configured initial window.
    pub fn new(cfg: ReadaheadConfig) -> Self {
        let window = cfg
            .initial_window
            .clamp(cfg.min_window.max(1), cfg.max_window.max(1));
        ReadaheadCore {
            cfg,
            window,
            last_start: None,
            stride: None,
            confirmed: 0,
        }
    }

    /// Current speculative window in blocks.
    pub fn window(&self) -> u32 {
        self.window
    }

    /// Observes a demand batch starting at `start`. Returns
    /// `Some((predicted_start, blocks))` when the inter-batch stride has
    /// held for two consecutive transitions — the caller should prefetch
    /// `blocks` blocks from one stride past `start`.
    pub fn observe(&mut self, start: u64) -> Option<(u64, u32)> {
        let prediction = match self.last_start {
            None => None,
            Some(prev) => {
                let stride = start as i64 - prev as i64;
                if stride != 0 && self.stride == Some(stride) {
                    self.confirmed += 1;
                } else {
                    self.confirmed = 0;
                }
                self.stride = Some(stride);
                // Two stable transitions (three aligned batches) before
                // speculating; descending streams are not worth chasing.
                if self.confirmed >= 1 && stride > 0 {
                    let blocks = self.window.min(self.cfg.budget_blocks.max(1));
                    Some((start.saturating_add(stride as u64), blocks))
                } else {
                    None
                }
            }
        };
        self.last_start = Some(start);
        prediction
    }

    /// Adapts the window from the accuracy of the previous issue (fraction
    /// of its speculative blocks that served a demand access): ≥ 0.75 grows
    /// the window ×2, ≤ 0.25 halves it, in between leaves it alone.
    pub fn feedback(&mut self, accuracy: f64) {
        if accuracy >= 0.75 {
            self.window = (self.window.saturating_mul(2)).min(self.cfg.max_window.max(1));
        } else if accuracy <= 0.25 {
            self.window = (self.window / 2).max(self.cfg.min_window.max(1));
        }
    }
}

/// Every decision the cache makes, counted. Two drivers replaying the same
/// access sequence against the same [`CacheCore`] logic must produce equal
/// counter sets — the fidelity harness asserts exactly that.
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub struct CacheDecisionCounters {
    /// Demand reads served from a resident slot.
    pub hits: u64,
    /// Demand reads that reserved a fill or fell back uncached (`Busy`).
    pub misses: u64,
    /// Demand reads coalesced onto another caller's in-flight fill.
    pub coalesced: u64,
    /// Resident blocks reclaimed by the CLOCK sweep.
    pub evictions: u64,
    /// Writes absorbed into (existing or write-allocated) slots.
    pub write_absorbed: u64,
    /// Dirty blocks claimed for write-back by [`CacheCore::take_dirty`].
    pub flushed_blocks: u64,
    /// Speculative blocks issued by committed readahead plans.
    pub readahead_issued: u64,
    /// Speculative blocks that later served a demand access.
    pub readahead_hits: u64,
}

impl CacheDecisionCounters {
    /// Every counter as `(name, value)`, in declaration order — the one
    /// field list reports and tables iterate.
    pub fn fields(&self) -> [(&'static str, u64); 8] {
        [
            ("hits", self.hits),
            ("misses", self.misses),
            ("coalesced", self.coalesced),
            ("evictions", self.evictions),
            ("write_absorbed", self.write_absorbed),
            ("flushed_blocks", self.flushed_blocks),
            ("readahead_issued", self.readahead_issued),
            ("readahead_hits", self.readahead_hits),
        ]
    }
}

/// What the caller intends to do with the block — selects which decision
/// counters a [`CacheCore::lookup`] bumps (the slot state transitions are
/// identical for all intents).
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum Intent {
    /// A demand read: counts hits / misses / coalesced.
    DemandRead,
    /// A write-back absorption: counts `write_absorbed`.
    Write,
    /// A readahead candidate probe: counts nothing.
    Speculative,
}

/// Outcome of a [`CacheCore::lookup`].
#[derive(Debug, PartialEq, Eq)]
pub enum CoreLookup {
    /// The block is resident; `slot` is pinned until
    /// [`CacheCore::unpin`].
    Hit {
        /// Global slot index of the resident block.
        slot: usize,
    },
    /// `slot` was reserved (state *Filling*) for this LBA; the caller owns
    /// the one fill and must `complete_fill` / `abort_fill` it.
    Miss {
        /// Global slot index reserved for the fill.
        slot: usize,
        /// LBA of the resident block the CLOCK sweep evicted to make room,
        /// if any (for `CacheEvict` event emission).
        evicted: Option<u64>,
    },
    /// Another caller is already filling this LBA — coalesce onto that fill
    /// and resolve later via [`CacheCore::resolve_wait`].
    InFlight,
    /// No clean slot could be reclaimed, but dirty unpinned slots exist:
    /// flush (see [`CacheCore::take_dirty`]) and retry.
    NeedFlush,
    /// Every slot in the LBA's shard is pinned or filling; the caller must
    /// fall back to an uncached transfer or drain pins first.
    Busy,
}

/// Outcome of resolving a coalesced wait (see [`CoreLookup::InFlight`]).
#[derive(Debug, PartialEq, Eq)]
pub enum Resolve {
    /// The fill completed; `slot` is pinned until [`CacheCore::unpin`].
    Ready {
        /// Global slot index of the now-resident block.
        slot: usize,
    },
    /// The fill is still in flight — wait and retry.
    Pending,
    /// The owning fill aborted; fetch the block uncached.
    Aborted,
}

#[derive(Clone, Copy, PartialEq, Eq, Debug)]
enum SlotState {
    Free,
    Filling,
    Resident,
}

struct Slot {
    lba: u64,
    state: SlotState,
    referenced: bool,
    dirty: bool,
    /// Set by speculative (readahead) fills, cleared by the first demand
    /// access — the signal behind `readahead_hits`.
    speculative: bool,
    pins: u32,
}

/// Hashes an LBA by Fibonacci multiplication — no SipHash. LBAs come from
/// the caller's own kernel, not from an outside party, so a
/// collision-resistant hash buys nothing here (the `Planner`'s dedup index
/// makes the same argument). The product's well-mixed high half is rotated
/// down to the low bits, which pick the bucket. The multiplier differs from
/// [`CacheCore::shard_of`]'s: with the same one, every LBA of a shard would
/// share the bucket bits that picked its shard.
#[derive(Default)]
struct LbaHasher(u64);

impl Hasher for LbaHasher {
    fn finish(&self) -> u64 {
        self.0.wrapping_mul(0xD6E8_FEB8_6659_FD93).rotate_left(32)
    }

    fn write(&mut self, bytes: &[u8]) {
        for &b in bytes {
            self.0 = self.0.rotate_left(8) ^ u64::from(b);
        }
    }

    fn write_u64(&mut self, lba: u64) {
        self.0 = lba;
    }
}

struct ShardState {
    /// LBA → *global* slot index.
    map: HashMap<u64, usize, BuildHasherDefault<LbaHasher>>,
    /// Global index of the shard's first slot.
    base: usize,
    /// Slots owned by the shard.
    len: usize,
    /// CLOCK hand, relative to `base`.
    hand: usize,
}

/// A planned (not yet committed) speculative readahead batch.
#[derive(Debug)]
pub struct ReadaheadPlan {
    /// First predicted LBA (one stride past the observed batch start).
    pub pred_start: u64,
    /// Window size the detector proposed, in blocks.
    pub window: u32,
    /// Reserved fills: `(global slot, lba)`, already *Filling* in the core.
    pub fills: Vec<(usize, u64)>,
    /// Blocks evicted while reserving the fills (for event emission).
    pub evicted: Vec<u64>,
}

/// One demand read batch as [`CacheCore::plan_read_batch`] classified it,
/// in batch order. Every entry carries its access's position in the batch,
/// so a driver can find the access's destination.
#[derive(Debug, Default)]
pub struct ReadBatchPlan {
    /// Hits: `(position, global slot)`. Each slot was pinned and unpinned
    /// at once, so it holds the block only until a fill reclaims it: a
    /// driver copies a hit out before any DMA can land in its slot.
    pub hits: Vec<(usize, usize)>,
    /// Reserved fills: `(position, global slot, lba)`.
    pub fills: Vec<(usize, usize, u64)>,
    /// Coalesced accesses `(position, lba)`, resolved after the owning
    /// fills publish.
    pub waits: Vec<(usize, u64)>,
    /// Uncached fallbacks (`Busy` shards): `(position, lba)`.
    pub direct: Vec<(usize, u64)>,
    /// Blocks evicted while reserving fills (for event emission).
    pub evicted: Vec<u64>,
}

impl ReadBatchPlan {
    /// Empties every list, keeping their capacity for the next batch.
    pub fn clear(&mut self) {
        self.hits.clear();
        self.fills.clear();
        self.waits.clear();
        self.direct.clear();
        self.evicted.clear();
    }
}

/// The block cache decision core. See the module docs for the contract.
pub struct CacheCore {
    cfg: CacheConfig,
    slots: Vec<Slot>,
    shards: Vec<ShardState>,
    counters: CacheDecisionCounters,
    ra: ReadaheadCore,
    ra_outstanding: bool,
    /// `readahead_hits` value when the last speculative batch was
    /// committed, and that batch's size — the accuracy sample fed back to
    /// the detector at the next demand batch.
    ra_hits_at_issue: u64,
    ra_last_issue: u32,
    /// `shards.len() - 1` when the shard count is a power of two, so
    /// [`shard_of`](Self::shard_of) masks instead of dividing.
    shard_mask: Option<usize>,
}

impl CacheCore {
    /// A fresh core. Shard count is clamped to `1..=slots`; the slot
    /// layout (shard *s* owns `slots/shards` slots plus one of the first
    /// `slots % shards` remainders, contiguously) matches the threaded
    /// cache so global slot indices translate directly to buffer offsets.
    pub fn new(cfg: CacheConfig) -> Self {
        assert!(cfg.slots >= 1, "cache needs at least one slot");
        let n_shards = cfg.shards.clamp(1, cfg.slots);
        let per = cfg.slots / n_shards;
        let rem = cfg.slots % n_shards;
        let mut base = 0usize;
        let shards = (0..n_shards)
            .map(|s| {
                let len = per + usize::from(s < rem);
                let st = ShardState {
                    // Twice the shard's slots: erased LBAs leave tombstones,
                    // and once they fill the table, a table at most half
                    // full rehashes in place, where a fuller one would
                    // allocate a larger one mid-run.
                    map: HashMap::with_capacity_and_hasher(2 * len, Default::default()),
                    base,
                    len,
                    hand: 0,
                };
                base += len;
                st
            })
            .collect();
        let slots = (0..cfg.slots)
            .map(|_| Slot {
                lba: 0,
                state: SlotState::Free,
                referenced: false,
                dirty: false,
                speculative: false,
                pins: 0,
            })
            .collect();
        CacheCore {
            ra: ReadaheadCore::new(cfg.readahead),
            cfg,
            slots,
            shards,
            counters: CacheDecisionCounters::default(),
            ra_outstanding: false,
            ra_hits_at_issue: 0,
            ra_last_issue: 0,
            shard_mask: n_shards.is_power_of_two().then(|| n_shards - 1),
        }
    }

    /// The configuration the core was built with (shards already clamped
    /// into the layout; `cfg.shards` is the requested value).
    pub fn config(&self) -> &CacheConfig {
        &self.cfg
    }

    /// Decision counters so far.
    pub fn counters(&self) -> CacheDecisionCounters {
        self.counters
    }

    /// Multiplicative hash so strided LBA streams still spread over shards.
    fn shard_of(&self, lba: u64) -> usize {
        let h = (lba.wrapping_mul(0x9E37_79B9_7F4A_7C15) >> 32) as usize;
        match self.shard_mask {
            Some(mask) => h & mask,
            None => h % self.shards.len(),
        }
    }

    /// Whether `lba` currently has a slot (resident *or* filling). Cheap
    /// filter for readahead candidate selection.
    pub fn contains(&self, lba: u64) -> bool {
        self.shards[self.shard_of(lba)].map.contains_key(&lba)
    }

    /// Takes a pin + reference on resident slot `g`; bumps
    /// `readahead_hits` if the slot was speculative (any intent — mirrors
    /// the threaded cache, where the resident arm is caller-agnostic).
    fn touch_resident(&mut self, g: usize) {
        let slot = &mut self.slots[g];
        slot.pins += 1;
        slot.referenced = true;
        if slot.speculative {
            slot.speculative = false;
            self.counters.readahead_hits += 1;
        }
    }

    /// Classifies `lba` and bumps the counters `intent` selects. State
    /// transitions are identical for every intent: a resident block is
    /// pinned (release with [`unpin`](Self::unpin)), an absent block
    /// reserves a *Filling* slot the caller owns.
    pub fn lookup(&mut self, lba: u64, intent: Intent) -> CoreLookup {
        let si = self.shard_of(lba);
        if let Some(&g) = self.shards[si].map.get(&lba) {
            match self.slots[g].state {
                SlotState::Resident => {
                    self.touch_resident(g);
                    if intent == Intent::DemandRead {
                        self.counters.hits += 1;
                    } else if intent == Intent::Write {
                        self.counters.write_absorbed += 1;
                    }
                    return CoreLookup::Hit { slot: g };
                }
                SlotState::Filling => {
                    if intent == Intent::DemandRead {
                        self.counters.coalesced += 1;
                    }
                    return CoreLookup::InFlight;
                }
                // A mapped Free slot cannot happen (fill aborts unmap), but
                // recover by dropping the stale mapping and allocating.
                SlotState::Free => {
                    self.shards[si].map.remove(&lba);
                }
            }
        }
        // CLOCK sweep: two passes so every referenced bit can be cleared
        // once before giving up.
        let (base, len) = (self.shards[si].base, self.shards[si].len);
        let mut dirty_seen = false;
        let mut found = None;
        let mut evicted = None;
        for _ in 0..2 * len {
            let idx = self.shards[si].hand;
            self.shards[si].hand = if idx + 1 == len { 0 } else { idx + 1 };
            let g = base + idx;
            let (state, pins, referenced, dirty, old_lba) = {
                let sl = &self.slots[g];
                (sl.state, sl.pins, sl.referenced, sl.dirty, sl.lba)
            };
            match state {
                SlotState::Free => {
                    found = Some(g);
                    break;
                }
                SlotState::Filling => continue,
                SlotState::Resident => {
                    if pins > 0 {
                        continue;
                    }
                    if referenced {
                        self.slots[g].referenced = false;
                        continue;
                    }
                    if dirty {
                        dirty_seen = true;
                        continue;
                    }
                    self.shards[si].map.remove(&old_lba);
                    self.counters.evictions += 1;
                    evicted = Some(old_lba);
                    found = Some(g);
                    break;
                }
            }
        }
        match found {
            Some(g) => {
                let slot = &mut self.slots[g];
                slot.lba = lba;
                slot.state = SlotState::Filling;
                slot.referenced = false;
                slot.dirty = false;
                slot.speculative = false;
                slot.pins = 0;
                self.shards[si].map.insert(lba, g);
                if intent == Intent::DemandRead {
                    self.counters.misses += 1;
                } else if intent == Intent::Write {
                    // Write-allocate: the slot is born dirty from host data.
                    self.counters.write_absorbed += 1;
                }
                CoreLookup::Miss { slot: g, evicted }
            }
            None if dirty_seen => CoreLookup::NeedFlush,
            None => {
                if intent == Intent::DemandRead {
                    // Uncached fallback still costs an NVMe request.
                    self.counters.misses += 1;
                }
                CoreLookup::Busy
            }
        }
    }

    /// Resolves a coalesced wait on `lba` (non-blocking; the threaded
    /// wrapper loops on a condvar around `Pending`). A `Ready` block comes
    /// back pinned; `Write` intent counts the absorption.
    pub fn resolve_wait(&mut self, lba: u64, intent: Intent) -> Resolve {
        let si = self.shard_of(lba);
        match self.shards[si].map.get(&lba).copied() {
            None => Resolve::Aborted,
            Some(g) => match self.slots[g].state {
                SlotState::Resident => {
                    self.touch_resident(g);
                    if intent == Intent::Write {
                        self.counters.write_absorbed += 1;
                    }
                    Resolve::Ready { slot: g }
                }
                SlotState::Filling => Resolve::Pending,
                SlotState::Free => Resolve::Aborted,
            },
        }
    }

    /// Publishes the fill owned on slot `g` as resident and pinned.
    /// `dirty` marks slots populated from host data (write absorption)
    /// rather than from the array.
    pub fn complete_fill(&mut self, g: usize, dirty: bool) {
        let slot = &mut self.slots[g];
        debug_assert_eq!(slot.state, SlotState::Filling, "complete of a non-fill");
        slot.state = SlotState::Resident;
        slot.dirty = dirty;
        slot.referenced = true;
        slot.speculative = false;
        slot.pins = 1;
    }

    /// Publishes a speculative (readahead) fill: resident, unpinned, and
    /// flagged so the first demand access counts as a readahead hit.
    pub fn complete_fill_speculative(&mut self, g: usize) {
        let slot = &mut self.slots[g];
        debug_assert_eq!(slot.state, SlotState::Filling, "complete of a non-fill");
        slot.state = SlotState::Resident;
        slot.dirty = false;
        slot.referenced = true;
        slot.speculative = true;
        slot.pins = 0;
    }

    /// Aborts the fill owned on slot `g`: the slot is freed and unmapped;
    /// coalesced waiters observe [`Resolve::Aborted`] and fall back.
    pub fn abort_fill(&mut self, g: usize) {
        let lba = self.slots[g].lba;
        let si = self.shard_of(lba);
        self.shards[si].map.remove(&lba);
        let slot = &mut self.slots[g];
        slot.state = SlotState::Free;
        slot.dirty = false;
        slot.speculative = false;
        slot.pins = 0;
    }

    /// Releases one pin on slot `g`.
    pub fn unpin(&mut self, g: usize) {
        let slot = &mut self.slots[g];
        debug_assert!(slot.pins > 0, "unbalanced unpin");
        slot.pins = slot.pins.saturating_sub(1);
    }

    /// Marks resident slot `g` dirty (its contents now differ from the
    /// array).
    pub fn mark_dirty(&mut self, g: usize) {
        self.slots[g].dirty = true;
    }

    /// Claims up to `max` dirty, unpinned, resident slots for a flush:
    /// each comes back pinned (so eviction and concurrent flushes skip it)
    /// with its dirty bit already cleared — a racing `write_back`
    /// re-dirties the slot and the *next* flush picks it up again. Counts
    /// the claimed blocks as flushed.
    pub fn take_dirty(&mut self, max: usize) -> Vec<(usize, u64)> {
        let mut out = Vec::new();
        'shards: for s in 0..self.shards.len() {
            let (base, len) = (self.shards[s].base, self.shards[s].len);
            for g in base..base + len {
                if out.len() >= max {
                    break 'shards;
                }
                let slot = &mut self.slots[g];
                if slot.state == SlotState::Resident && slot.dirty && slot.pins == 0 {
                    slot.dirty = false;
                    slot.pins = 1;
                    out.push((g, slot.lba));
                }
            }
        }
        self.counters.flushed_blocks += out.len() as u64;
        out
    }

    /// Number of dirty resident blocks (flush-loop termination check).
    pub fn dirty_blocks(&self) -> usize {
        self.slots
            .iter()
            .filter(|s| s.state == SlotState::Resident && s.dirty)
            .count()
    }

    /// Number of resident blocks.
    pub fn resident_blocks(&self) -> usize {
        self.slots
            .iter()
            .filter(|s| s.state == SlotState::Resident)
            .count()
    }

    /// Feeds the stream detector with a demand batch starting at
    /// `batch_start` and, when a stride is confirmed and no speculative
    /// batch is outstanding, reserves fills for the predicted window
    /// (clamped to `array_blocks`). The plan is *reserved but not
    /// committed*: call [`commit_readahead`](Self::commit_readahead) after
    /// the speculative I/O is issued, or [`abort_fill`](Self::abort_fill)
    /// every reserved slot if issuing failed.
    ///
    /// Also closes the accuracy loop on the previous committed issue —
    /// even if that batch is still outstanding, matching the threaded
    /// device's policy.
    ///
    /// Callers gating readahead on driver resources (the dedicated
    /// channel) must skip this call entirely when the gate fails, so the
    /// detector observes exactly the batches a readahead-enabled run
    /// observes.
    pub fn plan_readahead(&mut self, batch_start: u64, array_blocks: u64) -> Option<ReadaheadPlan> {
        if !self.cfg.readahead.enable {
            return None;
        }
        // Close the accuracy loop on the previous issue before predicting.
        if self.ra_last_issue > 0 {
            let acc = (self.counters.readahead_hits - self.ra_hits_at_issue) as f64
                / self.ra_last_issue as f64;
            self.ra.feedback(acc);
            self.ra_last_issue = 0;
        }
        let (pred_start, window) = self.ra.observe(batch_start)?;
        if self.ra_outstanding {
            return None; // single outstanding speculative batch
        }
        let budget = self.cfg.readahead.budget_blocks.max(1) as usize;
        let mut fills: Vec<(usize, u64)> = Vec::new();
        let mut evicted: Vec<u64> = Vec::new();
        let end = pred_start.saturating_add(window as u64).min(array_blocks);
        for lba in pred_start..end {
            if fills.len() >= budget {
                break;
            }
            if self.contains(lba) {
                continue;
            }
            match self.lookup(lba, Intent::Speculative) {
                CoreLookup::Miss { slot, evicted: ev } => {
                    fills.push((slot, lba));
                    evicted.extend(ev);
                }
                CoreLookup::Hit { slot } => self.unpin(slot),
                CoreLookup::InFlight => {}
                // Never flush or stall for speculation.
                CoreLookup::NeedFlush | CoreLookup::Busy => break,
            }
        }
        if fills.is_empty() {
            return None;
        }
        Some(ReadaheadPlan {
            pred_start,
            window,
            fills,
            evicted,
        })
    }

    /// Commits a reserved plan: the speculative I/O was issued. Counts the
    /// issue and arms the accuracy sample for the next demand batch.
    pub fn commit_readahead(&mut self, plan: &ReadaheadPlan) {
        self.counters.readahead_issued += plan.fills.len() as u64;
        self.ra_hits_at_issue = self.counters.readahead_hits;
        self.ra_last_issue = plan.fills.len() as u32;
        self.ra_outstanding = true;
    }

    /// Marks the committed speculative batch as no longer outstanding
    /// (after its fills were published or aborted).
    pub fn readahead_retired(&mut self) {
        self.ra_outstanding = false;
    }

    /// Classifies the demand reads `lbas[from..]` in batch order into
    /// `plan`, one [`lookup`](Self::lookup) each (a hit unpinned at once),
    /// and returns how many it classified. It stops before the first access
    /// that needs a flush ([`CoreLookup::NeedFlush`], which counted nothing
    /// but swept the CLOCK, as any retried lookup does): the caller flushes
    /// ([`take_dirty`](Self::take_dirty), then the write-back) and resumes
    /// from `from` plus the count. A read-only stream never stops.
    pub fn plan_read_batch(
        &mut self,
        lbas: &[u64],
        from: usize,
        plan: &mut ReadBatchPlan,
    ) -> usize {
        for (pos, &lba) in lbas.iter().enumerate().skip(from) {
            match self.lookup(lba, Intent::DemandRead) {
                CoreLookup::Hit { slot } => {
                    self.unpin(slot);
                    plan.hits.push((pos, slot));
                }
                CoreLookup::Miss { slot, evicted } => {
                    plan.fills.push((pos, slot, lba));
                    plan.evicted.extend(evicted);
                }
                CoreLookup::InFlight => plan.waits.push((pos, lba)),
                CoreLookup::Busy => plan.direct.push((pos, lba)),
                CoreLookup::NeedFlush => return pos - from,
            }
        }
        lbas.len() - from
    }

    /// Publishes the fills of a retired demand batch: each slot becomes
    /// resident, referenced and unpinned ([`complete_fill`] then
    /// [`unpin`]). This is the fill half of
    /// [`publish_read_batch`](Self::publish_read_batch), and the one
    /// publication step every driver runs: the threaded device calls it
    /// with the batch's slots under one hold of its lock.
    ///
    /// [`complete_fill`]: Self::complete_fill
    /// [`unpin`]: Self::unpin
    pub fn publish_fills(&mut self, slots: impl IntoIterator<Item = usize>) {
        for slot in slots {
            self.complete_fill(slot, false);
            self.unpin(slot);
        }
    }

    /// Publishes a retired demand batch: completes (and unpins) every
    /// reserved fill, then resolves every coalesced wait. Call only after
    /// the batch's I/O finished — and after the owning fills of any waits
    /// are resident (in the quiesced batch discipline, that is this same
    /// call).
    pub fn publish_read_batch(&mut self, plan: &ReadBatchPlan) {
        self.publish_fills(plan.fills.iter().map(|&(_, slot, _)| slot));
        for &(_, lba) in &plan.waits {
            match self.resolve_wait(lba, Intent::DemandRead) {
                Resolve::Ready { slot } => self.unpin(slot),
                // Aborted waiters re-fetch uncached — a driver decision
                // with no cache-state side effect. Pending cannot happen
                // once the batch's own fills are resident.
                Resolve::Pending | Resolve::Aborted => {}
            }
        }
    }
}

/// Replays a read-only batched workload against a fresh core with the
/// quiesced batch discipline every driver follows (each batch's demand and
/// speculative I/O fully published before the next batch's lookups), and
/// returns the decision counters — the fidelity harness's ground truth.
///
/// `readahead_over_channel` is the driver gate for the dedicated
/// speculative channel (`n_channels >= 3`); when false the detector is
/// never fed, exactly like a 2-channel threaded device.
pub fn replay_read_workload(
    cfg: CacheConfig,
    array_blocks: u64,
    readahead_over_channel: bool,
    batches: &[Vec<u64>],
) -> CacheDecisionCounters {
    let mut core = CacheCore::new(cfg);
    for lbas in batches {
        if lbas.is_empty() {
            continue;
        }
        let mut plan = ReadBatchPlan::default();
        let classified = core.plan_read_batch(lbas, 0, &mut plan);
        assert_eq!(classified, lbas.len(), "a read-only replay needs no flush");
        let ra = if readahead_over_channel {
            core.plan_readahead(lbas[0], array_blocks)
        } else {
            None
        };
        if let Some(p) = &ra {
            core.commit_readahead(p);
        }
        core.publish_read_batch(&plan);
        if let Some(p) = &ra {
            for &(slot, _) in &p.fills {
                core.complete_fill_speculative(slot);
            }
            core.readahead_retired();
        }
    }
    core.counters()
}

#[cfg(test)]
mod tests {
    use super::*;

    fn small(slots: usize, shards: usize) -> CacheCore {
        CacheCore::new(CacheConfig {
            slots,
            shards,
            flush_batch: 8,
            readahead: ReadaheadConfig {
                enable: false,
                ..ReadaheadConfig::default()
            },
        })
    }

    #[test]
    fn hit_miss_coalesce_counting() {
        let mut c = small(8, 1);
        let CoreLookup::Miss { slot, evicted } = c.lookup(7, Intent::DemandRead) else {
            panic!("expected miss");
        };
        assert_eq!(evicted, None);
        // Second demand access coalesces on the in-flight fill.
        assert_eq!(c.lookup(7, Intent::DemandRead), CoreLookup::InFlight);
        assert_eq!(c.resolve_wait(7, Intent::DemandRead), Resolve::Pending);
        c.complete_fill(slot, false);
        c.unpin(slot);
        let Resolve::Ready { slot: s2 } = c.resolve_wait(7, Intent::DemandRead) else {
            panic!("expected ready");
        };
        assert_eq!(s2, slot);
        c.unpin(s2);
        let CoreLookup::Hit { slot: s3 } = c.lookup(7, Intent::DemandRead) else {
            panic!("expected hit");
        };
        c.unpin(s3);
        let ctr = c.counters();
        assert_eq!(
            (ctr.hits, ctr.misses, ctr.coalesced, ctr.evictions),
            (1, 1, 1, 0)
        );
    }

    #[test]
    fn clock_evicts_unreferenced_clean_blocks_only() {
        let mut c = small(2, 1);
        for lba in 0..2 {
            let CoreLookup::Miss { slot, .. } = c.lookup(lba, Intent::DemandRead) else {
                panic!("miss");
            };
            c.complete_fill(slot, false);
            c.unpin(slot);
        }
        // Both resident+referenced: first sweep clears bits, second evicts.
        let CoreLookup::Miss { evicted, .. } = c.lookup(9, Intent::DemandRead) else {
            panic!("miss");
        };
        assert!(evicted.is_some());
        assert_eq!(c.counters().evictions, 1);
        assert_eq!(c.resident_blocks(), 1);
    }

    #[test]
    fn pinned_and_dirty_slots_resist_eviction() {
        let mut c = small(1, 1);
        let CoreLookup::Miss { slot, .. } = c.lookup(1, Intent::DemandRead) else {
            panic!("miss");
        };
        c.complete_fill(slot, false);
        // Pinned: the only slot cannot be reclaimed.
        assert_eq!(c.lookup(2, Intent::DemandRead), CoreLookup::Busy);
        c.unpin(slot);
        c.mark_dirty(slot);
        // Dirty (after the referenced bit is cleared): flush required.
        assert_eq!(c.lookup(2, Intent::DemandRead), CoreLookup::NeedFlush);
        let claimed = c.take_dirty(4);
        assert_eq!(claimed, vec![(slot, 1)]);
        assert_eq!(c.counters().flushed_blocks, 1);
        for (s, _) in claimed {
            c.unpin(s);
        }
        let CoreLookup::Miss { evicted, .. } = c.lookup(2, Intent::DemandRead) else {
            panic!("miss after flush");
        };
        assert_eq!(evicted, Some(1));
    }

    #[test]
    fn write_intent_counts_absorption_not_hits() {
        let mut c = small(8, 2);
        let CoreLookup::Miss { slot, .. } = c.lookup(3, Intent::Write) else {
            panic!("write-allocate miss");
        };
        c.complete_fill(slot, true);
        c.unpin(slot);
        let CoreLookup::Hit { slot: s } = c.lookup(3, Intent::Write) else {
            panic!("absorb hit");
        };
        c.mark_dirty(s);
        c.unpin(s);
        let ctr = c.counters();
        assert_eq!(ctr.write_absorbed, 2);
        assert_eq!((ctr.hits, ctr.misses), (0, 0));
        assert_eq!(c.dirty_blocks(), 1);
    }

    #[test]
    fn aborted_fill_unmaps_and_waiters_fall_back() {
        let mut c = small(4, 1);
        let CoreLookup::Miss { slot, .. } = c.lookup(5, Intent::DemandRead) else {
            panic!("miss");
        };
        assert_eq!(c.lookup(5, Intent::DemandRead), CoreLookup::InFlight);
        c.abort_fill(slot);
        assert_eq!(c.resolve_wait(5, Intent::DemandRead), Resolve::Aborted);
        assert!(!c.contains(5));
    }

    #[test]
    fn speculative_fill_counts_hit_on_first_demand_access() {
        let mut c = small(8, 1);
        let CoreLookup::Miss { slot, .. } = c.lookup(11, Intent::Speculative) else {
            panic!("speculative miss");
        };
        c.complete_fill_speculative(slot);
        let before = c.counters();
        assert_eq!(
            (before.hits, before.misses, before.readahead_hits),
            (0, 0, 0)
        );
        let CoreLookup::Hit { slot: s } = c.lookup(11, Intent::DemandRead) else {
            panic!("demand hit");
        };
        c.unpin(s);
        let after = c.counters();
        assert_eq!((after.hits, after.readahead_hits), (1, 1));
        // The flag clears: a second access is a plain hit.
        let CoreLookup::Hit { slot: s } = c.lookup(11, Intent::DemandRead) else {
            panic!("plain hit");
        };
        c.unpin(s);
        assert_eq!(c.counters().readahead_hits, 1);
    }

    /// One shard of four slots, each holding a block written into it.
    fn all_dirty() -> CacheCore {
        let mut c = small(4, 1);
        for lba in 0..4 {
            if let CoreLookup::Miss { slot, .. } = c.lookup(lba, Intent::Write) {
                c.complete_fill(slot, true);
                c.unpin(slot);
            }
        }
        c
    }

    /// Writes back every dirty slot, as a driver's flush does.
    fn flush_all(c: &mut CacheCore) {
        for (slot, _) in c.take_dirty(usize::MAX) {
            c.unpin(slot);
        }
    }

    #[test]
    fn a_read_batch_stops_before_a_flush_and_resumes_as_lookups_would() {
        let batch = [1, 10, 10, 11];
        let mut planned = all_dirty();
        let mut plan = ReadBatchPlan::default();
        // The hit classifies; the first miss finds only dirty slots.
        assert_eq!(planned.plan_read_batch(&batch, 0, &mut plan), 1);
        assert_eq!(planned.counters().flushed_blocks, 0);
        flush_all(&mut planned);
        assert_eq!(planned.plan_read_batch(&batch, 1, &mut plan), 3);

        // One lookup per access on a core in the same state, flushed where
        // the plan stopped.
        let mut stepped = all_dirty();
        let read = |c: &mut CacheCore, lba| c.lookup(lba, Intent::DemandRead);
        let [(0, slot)] = plan.hits[..] else {
            panic!("{plan:?}")
        };
        assert_eq!(read(&mut stepped, 1), CoreLookup::Hit { slot });
        stepped.unpin(slot);
        assert_eq!(read(&mut stepped, 10), CoreLookup::NeedFlush);
        flush_all(&mut stepped);
        let [(1, s10, 10), (3, s11, 11)] = plan.fills[..] else {
            panic!("{plan:?}")
        };
        let [e10, e11] = plan.evicted[..] else {
            panic!("{plan:?}")
        };
        let miss = |slot, lba| CoreLookup::Miss {
            slot,
            evicted: Some(lba),
        };
        assert_eq!(read(&mut stepped, 10), miss(s10, e10));
        assert_eq!(read(&mut stepped, 10), CoreLookup::InFlight);
        assert_eq!(read(&mut stepped, 11), miss(s11, e11));
        assert_eq!(plan.waits, [(2, 10)]);
        assert!(plan.direct.is_empty());
        assert_eq!(planned.counters(), stepped.counters());
        assert_eq!(planned.counters().flushed_blocks, 4);
    }

    fn ra_core(slots: usize) -> CacheCore {
        CacheCore::new(CacheConfig {
            slots,
            shards: 2,
            flush_batch: 8,
            readahead: ReadaheadConfig::default(),
        })
    }

    #[test]
    fn readahead_plan_commit_feedback_cycle() {
        let mut c = ra_core(256);
        assert!(c.plan_readahead(0, 1 << 20).is_none());
        assert!(c.plan_readahead(16, 1 << 20).is_none());
        let plan = c.plan_readahead(32, 1 << 20).expect("stride confirmed");
        assert_eq!(plan.pred_start, 48);
        assert_eq!(plan.fills.len(), plan.window as usize);
        c.commit_readahead(&plan);
        assert_eq!(c.counters().readahead_issued, plan.fills.len() as u64);
        for &(slot, _) in &plan.fills {
            c.complete_fill_speculative(slot);
        }
        c.readahead_retired();
        // Every speculative block serves a demand hit; the accuracy sample
        // closes at the next plan call → window grows.
        for &(_, lba) in &plan.fills {
            let CoreLookup::Hit { slot } = c.lookup(lba, Intent::DemandRead) else {
                panic!("speculative block resident");
            };
            c.unpin(slot);
        }
        let next = c.plan_readahead(48, 1 << 20).expect("stride still held");
        assert!(next.window > plan.window, "window grew on perfect accuracy");
    }

    #[test]
    fn single_outstanding_speculative_batch() {
        let mut c = ra_core(256);
        c.plan_readahead(0, 1 << 20);
        c.plan_readahead(16, 1 << 20);
        let plan = c.plan_readahead(32, 1 << 20).expect("plan");
        c.commit_readahead(&plan);
        // Outstanding batch: the detector still observes, but no new plan
        // is reserved until the committed one retires.
        assert!(c.plan_readahead(48, 1 << 20).is_none());
        for &(slot, _) in &plan.fills {
            c.complete_fill_speculative(slot);
        }
        c.readahead_retired();
        assert!(c.plan_readahead(64, 1 << 20).is_some());
    }

    #[test]
    fn readahead_clamps_to_array_end() {
        let mut c = ra_core(64);
        c.plan_readahead(0, 40);
        c.plan_readahead(8, 40);
        let plan = c.plan_readahead(16, 40).expect("plan");
        assert!(plan.fills.iter().all(|&(_, lba)| lba < 40));
    }

    #[test]
    fn replay_is_deterministic_and_counts_everything() {
        let batches: Vec<Vec<u64>> = (0..12)
            .map(|i| {
                if i % 5 == 4 {
                    // Revisit the first window: hits (and readahead hits).
                    (0..16).collect()
                } else {
                    (i * 16..(i + 1) * 16).collect()
                }
            })
            .collect();
        let cfg = CacheConfig {
            slots: 64,
            shards: 4,
            flush_batch: 8,
            readahead: ReadaheadConfig::default(),
        };
        let a = replay_read_workload(cfg, 1 << 20, true, &batches);
        let b = replay_read_workload(cfg, 1 << 20, true, &batches);
        assert_eq!(a, b);
        assert!(a.hits > 0 && a.misses > 0 && a.evictions > 0);
        assert!(a.readahead_issued > 0);
        let no_ra = replay_read_workload(cfg, 1 << 20, false, &batches);
        assert_eq!(no_ra.readahead_issued, 0);
        assert_eq!(no_ra.readahead_hits, 0);
    }

    // ---- ReadaheadCore (moved verbatim from cam-cache) ----

    fn engine() -> ReadaheadCore {
        ReadaheadCore::new(ReadaheadConfig::default())
    }

    #[test]
    fn sequential_stream_predicts_after_two_stable_strides() {
        let mut ra = engine();
        assert_eq!(ra.observe(0), None); // first batch: nothing to compare
        assert_eq!(ra.observe(32), None); // stride 32 seen once
        let (start, blocks) = ra.observe(64).expect("stride confirmed");
        assert_eq!(start, 96);
        assert_eq!(blocks, ra.window());
        // The stream keeps predicting as long as the stride holds.
        assert_eq!(ra.observe(96).map(|p| p.0), Some(128));
    }

    #[test]
    fn strided_stream_is_detected_and_random_breaks_it() {
        let mut ra = engine();
        ra.observe(10);
        ra.observe(110);
        assert_eq!(ra.observe(210).map(|p| p.0), Some(310));
        // A random jump resets confirmation.
        assert_eq!(ra.observe(5000), None);
        assert_eq!(ra.observe(5100), None);
        assert_eq!(ra.observe(5200).map(|p| p.0), Some(5300));
    }

    #[test]
    fn window_adapts_within_bounds() {
        let cfg = ReadaheadConfig {
            min_window: 4,
            initial_window: 8,
            max_window: 32,
            ..ReadaheadConfig::default()
        };
        let mut ra = ReadaheadCore::new(cfg);
        ra.feedback(1.0);
        assert_eq!(ra.window(), 16);
        ra.feedback(0.9);
        ra.feedback(0.9);
        assert_eq!(ra.window(), 32); // clamped at max
        ra.feedback(0.5);
        assert_eq!(ra.window(), 32); // mid accuracy: unchanged
        ra.feedback(0.0);
        ra.feedback(0.0);
        ra.feedback(0.0);
        ra.feedback(0.0);
        assert_eq!(ra.window(), 4); // clamped at min
    }

    #[test]
    fn descending_and_repeated_streams_never_predict() {
        let mut ra = engine();
        ra.observe(300);
        ra.observe(200);
        assert_eq!(ra.observe(100), None); // stable but descending
        let mut ra = engine();
        ra.observe(50);
        ra.observe(50);
        assert_eq!(ra.observe(50), None); // zero stride (repeats = cache hits)
    }
}
