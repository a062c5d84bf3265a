//! [`CachedDevice`] — the cached data path over an unchanged CAM doorbell
//! protocol — and [`CachedBackend`], its [`StorageBackend`] adapter.
//!
//! Hits are served straight from pinned GPU memory (no doorbell round
//! trip); misses are batched into one demand read per `prefetch`, DMA'd by
//! the SSDs **directly into cache slots**, and copied to the caller's
//! destination at synchronize. `prefetch` rings that doorbell and leaves
//! the hits to synchronize too, where their copies overlap the SSDs' work.
//!
//! `prefetch` classifies its batch with `CacheCore::plan_read_batch`, as
//! the DES and the replay do. Where the plan stops for a dirty slot it
//! flushes every dirty slot and resumes; before the doorbell it copies out
//! each hit whose slot a fill of the same batch reserved.
//! `write_back` is absorbed into dirty slots and flushed lazily.
//! Speculative readahead batches ride a third channel so they never occupy
//! the demand channels.

use std::sync::{Arc, Mutex};

use cam_core::{
    BackendError, BatchTicket, CamContext, CamDevice, CamError, ChannelOp, IoRequest,
    StorageBackend,
};
use cam_gpu::OutOfMemory;
use cam_hostos::IoDir;
use cam_iostacks::Rig;
use cam_nvme::spec::Status;
use cam_nvme::DmaSpace;
use cam_telemetry::{EventKind, FlightRecorder};

use cam_protocol::cache_core::{CacheDecisionCounters, ReadBatchPlan};

use crate::cache::{BlockCache, FillTicket, Lookup, SlotWait};
use crate::config::CacheConfig;

/// Fig. 7 channel conventions, shared with `cam_core`.
pub(crate) const READ_CHANNEL: usize = 0;
const WRITE_CHANNEL: usize = 1;
/// Speculative traffic rides its own channel so readahead never makes a
/// demand `prefetch` see `ChannelBusy`.
pub(crate) const READAHEAD_CHANNEL: usize = 2;

/// One outstanding demand read batch and its pending resolutions.
struct ReadBatch {
    /// `None` when every access was a hit or coalesced (no NVMe traffic).
    ticket: Option<BatchTicket>,
    /// Hits still to copy: `(slot address, caller destination)`. Their
    /// slots are unpinned; `prefetch` has already copied out every hit
    /// whose slot a fill of its own batch or of its speculation reserved.
    hits: Vec<(u64, u64)>,
    /// Misses owned by this batch: fill ticket + caller destination.
    fills: Vec<(FillTicket, u64)>,
    /// Coalesced misses: waiter + `(lba, destination)` for the fallback.
    waits: Vec<(SlotWait, u64, u64)>,
}

struct DevState {
    read: Option<ReadBatch>,
    /// The single outstanding speculative batch, if any. The accuracy
    /// bookkeeping (hits at issue, last issue size, outstanding flag)
    /// lives in the shared decision core.
    ra_outstanding: Option<(BatchTicket, Vec<FillTicket>)>,
}

/// The cached device-side API: drop-in `prefetch` / `write_back` /
/// `*_synchronize` with a [`BlockCache`] in front of the doorbell protocol.
///
/// Thread-safe (`&self` everywhere), but like [`CamDevice`] it carries
/// single-outstanding-batch semantics: one un-synchronized `prefetch` at a
/// time.
pub struct CachedDevice {
    dev: CamDevice,
    cache: BlockCache,
    dma: Arc<dyn DmaSpace>,
    block_size: u64,
    /// Array capacity in blocks — readahead never speculates past the end.
    array_blocks: u64,
    ra_enabled: bool,
    flush_batch: usize,
    recorder: Option<Arc<FlightRecorder>>,
    state: Mutex<DevState>,
}

impl CachedDevice {
    /// Builds the cached layer over an attached context: allocates
    /// `cfg.slots` blocks of pinned GPU memory for the cache the device
    /// owns and wires the context's registry/recorder through.
    /// `CamContext::attach` itself is untouched — this is the opt-in path.
    ///
    /// Readahead requires `CamConfig::n_channels >= 3` (the speculative
    /// channel); with fewer channels it is silently disabled.
    pub fn attach(rig: &Rig, cam: &CamContext, cfg: CacheConfig) -> Result<Self, OutOfMemory> {
        let block_size = cam.block_size();
        let buf = cam.alloc(cfg.slots * block_size as usize)?;
        let cache = BlockCache::new(
            buf,
            block_size,
            cfg,
            cam.registry(),
            cam.recorder().cloned(),
        );
        let dev = cam.device();
        let ra_enabled = cfg.readahead.enable && dev.n_channels() > READAHEAD_CHANNEL;
        Ok(CachedDevice {
            dev,
            cache,
            dma: rig.dma_space(),
            block_size: block_size as u64,
            array_blocks: rig.array_blocks(),
            ra_enabled,
            flush_batch: cfg.flush_batch.max(1),
            recorder: cam.recorder().cloned(),
            state: Mutex::new(DevState {
                read: None,
                ra_outstanding: None,
            }),
        })
    }

    /// The cache behind this device. A lookup made through it between a
    /// `prefetch` and its synchronize can reclaim the slot of a hit the
    /// device has yet to copy; the device guards those only against its
    /// own fills.
    pub fn cache(&self) -> &BlockCache {
        &self.cache
    }

    /// Array block size in bytes.
    pub fn block_size(&self) -> u64 {
        self.block_size
    }

    /// Cached `prefetch`: block `i` of `lbas` lands at `dest_addr + i *
    /// block_size`, from cache when resident, from the SSDs otherwise, by
    /// the time [`prefetch_synchronize`](Self::prefetch_synchronize)
    /// returns.
    pub fn prefetch(&self, lbas: &[u64], dest_addr: u64) -> Result<(), CamError> {
        let pairs: Vec<(u64, u64)> = lbas
            .iter()
            .enumerate()
            .map(|(i, &lba)| (lba, dest_addr + i as u64 * self.block_size))
            .collect();
        self.prefetch_pairs(&pairs)
    }

    /// Cached `prefetch` with an explicit destination per block. Classifies
    /// the batch, rings one doorbell for its misses and returns; the hits
    /// are copied by `prefetch_synchronize`, while the SSDs work.
    pub fn prefetch_pairs(&self, pairs: &[(u64, u64)]) -> Result<(), CamError> {
        if pairs.is_empty() {
            return Ok(());
        }
        let mut guard = self.state.lock().unwrap();
        let st = &mut *guard;
        if st.read.is_some() {
            return Err(CamError::ChannelBusy);
        }
        self.reap_readahead(st, false);

        // Classify every access first; a hit is only queued. Exhausted
        // shards (`Busy`) are served uncached rather than stall the batch;
        // the core counts them as misses.
        let before = self
            .recorder
            .is_some()
            .then(|| self.cache.decision_counters());
        let lbas: Vec<u64> = pairs.iter().map(|&(lba, _)| lba).collect();
        let mut plan = ReadBatchPlan::default();
        let (mut fills, mut waits) = (Vec::new(), Vec::new());
        let mut done = 0;
        loop {
            done += self
                .cache
                .plan_read_batch(&lbas, done, &mut plan, &mut fills, &mut waits);
            if done == lbas.len() {
                break;
            }
            // `lbas[done]` needs a flush. A flush only reads slots, so the
            // queued hits keep their blocks through it.
            self.flush_locked()?;
        }
        if let (Some(rec), Some(before)) = (&self.recorder, before) {
            let after = self.cache.decision_counters();
            rec.emit(EventKind::CacheAccess {
                channel: READ_CHANNEL as u16,
                hits: (after.hits - before.hits) as u32,
                misses: (after.misses - before.misses) as u32,
                coalesced: (after.coalesced - before.coalesced) as u32,
            });
        }

        let dest = |pos: usize| pairs[pos].1;
        let mut hits: Vec<(u64, u64)> = plan
            .hits
            .iter()
            .map(|&(pos, slot)| (self.cache.slot_addr(slot), dest(pos)))
            .collect();
        // A fill may have reserved the slot of an earlier hit of this
        // batch: copy that hit out before the doorbell lets the fill's DMA
        // land there.
        self.copy_out_reclaimed(&mut hits, fills.iter().map(|(_, f)| f));

        // One demand batch covers every real miss: fills DMA into their
        // cache slots, uncached fallbacks into the caller's buffer.
        let ticket = if fills.is_empty() && plan.direct.is_empty() {
            None
        } else {
            let lbas: Vec<u64> = fills
                .iter()
                .map(|(_, f)| f.lba())
                .chain(plan.direct.iter().map(|&(_, lba)| lba))
                .collect();
            let addrs: Vec<u64> = fills
                .iter()
                .map(|(_, f)| f.addr())
                .chain(plan.direct.iter().map(|&(pos, _)| dest(pos)))
                .collect();
            Some(
                self.dev
                    .submit_scatter(READ_CHANNEL, ChannelOp::Read, &lbas, |i| addrs[i], 1)?,
            )
        };
        self.maybe_readahead(st, lbas[0], &mut hits);
        st.read = Some(ReadBatch {
            ticket,
            hits,
            fills: fills.into_iter().map(|(pos, f)| (f, dest(pos))).collect(),
            waits: waits
                .into_iter()
                .map(|(pos, w)| (w, lbas[pos], dest(pos)))
                .collect(),
        });
        Ok(())
    }

    /// Blocks until the outstanding `prefetch` is fully resolved: every
    /// hit copied (while the SSDs still serve the misses), the demand batch
    /// retired, every fill published to the cache, and every destination
    /// populated.
    pub fn prefetch_synchronize(&self) -> Result<(), CamError> {
        let mut st = self.state.lock().unwrap();
        self.synchronize_read_locked(&mut st)
    }

    fn synchronize_read_locked(&self, st: &mut DevState) -> Result<(), CamError> {
        let Some(rb) = st.read.take() else {
            return Ok(());
        };
        if rb.ticket.is_some() && !rb.hits.is_empty() {
            // Let the worker take the misses to the SSDs first: where it
            // shares the core with this thread, this is what overlaps the
            // hit copies with the SSDs' work.
            std::thread::yield_now();
        }
        let copied = self.copy_blocks(&rb.hits);
        let mut result = rb.ticket.map_or(Ok(()), |t| t.wait());
        for (fill, dest) in rb.fills {
            if result.is_ok() {
                let pin = fill.complete(false);
                result = self.copy_block(pin.addr(), dest);
            }
            // On error the fill ticket drops un-completed, freeing the slot
            // and waking coalesced waiters into their fallback path.
        }
        if !rb.waits.is_empty() {
            // Coalesced waiters may be waiting on speculative fills — make
            // sure those are published before blocking on the condvar.
            self.reap_readahead(st, true);
            for (wait, lba, dest) in rb.waits {
                match wait.wait() {
                    Some(pin) => {
                        let r = self.copy_block(pin.addr(), dest);
                        if result.is_ok() {
                            result = r;
                        }
                    }
                    None => {
                        // The owning fill aborted: fetch the block
                        // uncached so the caller still gets its data.
                        let r = self
                            .dev
                            .submit_scatter(READ_CHANNEL, ChannelOp::Read, &[lba], |_| dest, 1)
                            .and_then(|t| t.wait());
                        if result.is_ok() {
                            result = r;
                        }
                    }
                }
            }
        }
        copied.and(result)
    }

    /// Cached `write_back`: block `i` at `src_addr + i * block_size` is
    /// absorbed into a dirty cache slot for `lbas[i]` — no SSD I/O until a
    /// flush. Visible to subsequent cached reads immediately on return.
    pub fn write_back(&self, lbas: &[u64], src_addr: u64) -> Result<(), CamError> {
        let pairs: Vec<(u64, u64)> = lbas
            .iter()
            .enumerate()
            .map(|(i, &lba)| (lba, src_addr + i as u64 * self.block_size))
            .collect();
        self.write_back_pairs(&pairs)
    }

    /// Cached `write_back` with an explicit source per block.
    pub fn write_back_pairs(&self, pairs: &[(u64, u64)]) -> Result<(), CamError> {
        if pairs.is_empty() {
            return Ok(());
        }
        let mut guard = self.state.lock().unwrap();
        let st = &mut *guard;
        // A pending prefetch may hold fills for the very LBAs being
        // written; resolve it first so absorb-over-fill is ordered.
        self.synchronize_read_locked(st)?;
        self.reap_readahead(st, false);
        let mut direct: Vec<(u64, u64)> = Vec::new();
        for &(lba, src) in pairs {
            loop {
                match self.cache.lookup_write(lba) {
                    Lookup::Hit(pin) => {
                        self.copy_block(src, pin.addr())?;
                        pin.mark_dirty();
                        break;
                    }
                    Lookup::Miss(t) => {
                        // Write-allocate: the slot is born dirty from host
                        // data, no fill from the array needed.
                        self.copy_block(src, t.addr())?;
                        drop(t.complete(true));
                        break;
                    }
                    Lookup::InFlight(w) => {
                        // A speculative fill is racing this write: wait it
                        // out, then overwrite. Aborted fills retry.
                        self.reap_readahead(st, true);
                        if let Some(pin) = w.wait() {
                            self.copy_block(src, pin.addr())?;
                            pin.mark_dirty();
                            break;
                        }
                    }
                    Lookup::NeedFlush => self.flush_locked()?,
                    Lookup::Busy => {
                        direct.push((lba, src));
                        break;
                    }
                }
            }
        }
        if !direct.is_empty() {
            // Write-through fallback for exhausted shards, synchronous so
            // ordering against later absorbed writes holds.
            let lbas: Vec<u64> = direct.iter().map(|&(lba, _)| lba).collect();
            let addrs: Vec<u64> = direct.iter().map(|&(_, src)| src).collect();
            self.dev
                .submit_scatter(WRITE_CHANNEL, ChannelOp::Write, &lbas, |i| addrs[i], 1)?
                .wait()?;
        }
        Ok(())
    }

    /// With absorption, `write_back` returns with the data already visible
    /// to cached reads; durability on the array is [`flush`](Self::flush)'s
    /// job. This is a deliberate semantic shift from the uncached device —
    /// kept as a method so call sites stay source-compatible.
    pub fn write_back_synchronize(&self) -> Result<(), CamError> {
        Ok(())
    }

    /// Writes every dirty block back to the array (batched on the write
    /// channel) and blocks until durable.
    pub fn flush(&self) -> Result<(), CamError> {
        let _st = self.state.lock().unwrap();
        self.flush_locked()
    }

    /// Flush loop body; callers hold the state lock (or are inside a state
    /// lock already) so flush batches never interleave.
    fn flush_locked(&self) -> Result<(), CamError> {
        loop {
            let pins = self.cache.take_dirty(self.flush_batch);
            if pins.is_empty() {
                return Ok(());
            }
            let lbas: Vec<u64> = pins.iter().map(|p| p.lba()).collect();
            let addrs: Vec<u64> = pins.iter().map(|p| p.addr()).collect();
            self.dev
                .submit_scatter(WRITE_CHANNEL, ChannelOp::Write, &lbas, |i| addrs[i], 1)?
                .wait()?;
            if let Some(rec) = &self.recorder {
                rec.emit(EventKind::CacheFlush {
                    blocks: lbas.len() as u32,
                });
            }
            drop(pins);
        }
    }

    /// Collects a finished speculative batch: publishes its fills as
    /// resident speculative blocks (or aborts them if the batch errored).
    /// With `block`, waits for an unfinished batch instead of leaving it.
    fn reap_readahead(&self, st: &mut DevState, block: bool) {
        let Some((ticket, fills)) = st.ra_outstanding.take() else {
            return;
        };
        if !block && !ticket.is_done() {
            st.ra_outstanding = Some((ticket, fills));
            return;
        }
        match ticket.wait() {
            Ok(()) => {
                for f in fills {
                    f.complete_speculative();
                }
            }
            // Errored speculation: drop the tickets so the slots free up
            // and any waiter falls back to a demand fetch.
            Err(_) => drop(fills),
        }
        self.cache.readahead_retired();
    }

    /// Feeds the stream detector and issues at most one speculative batch.
    /// All decisions (accuracy feedback, stride confirmation, candidate
    /// selection, budget) are the core's; this method only issues the I/O.
    /// A reserved slot that held one of the demand batch's `hits` has that
    /// hit copied out first, before the speculative DMA can land there.
    fn maybe_readahead(&self, st: &mut DevState, batch_start: u64, hits: &mut Vec<(u64, u64)>) {
        if !self.ra_enabled {
            return;
        }
        let Some(batch) = self.cache.plan_readahead(batch_start, self.array_blocks) else {
            return;
        };
        self.copy_out_reclaimed(hits, batch.tickets().iter());
        let lbas: Vec<u64> = batch.tickets().iter().map(|f| f.lba()).collect();
        let addrs: Vec<u64> = batch.tickets().iter().map(|f| f.addr()).collect();
        match self
            .dev
            .submit_scatter(READAHEAD_CHANNEL, ChannelOp::Read, &lbas, |i| addrs[i], 1)
        {
            Ok(ticket) => {
                self.cache.commit_readahead(&batch);
                if let Some(rec) = &self.recorder {
                    rec.emit(EventKind::Readahead {
                        lba: batch.pred_start(),
                        blocks: lbas.len() as u32,
                        window: batch.window(),
                    });
                }
                st.ra_outstanding = Some((ticket, batch.into_tickets()));
            }
            // Channel busy or batch too large: dropping the batch aborts
            // its reserved fills; speculation just skips this round.
            Err(_) => drop(batch),
        }
    }

    /// Fully quiesces the cached data path: resolves the outstanding
    /// demand batch (if any) and blocks until the outstanding speculative
    /// batch is reaped and published. After this, every decision the cache
    /// will make is independent of I/O timing — the discipline the
    /// cross-driver fidelity matrix relies on.
    pub fn quiesce(&self) -> Result<(), CamError> {
        let mut st = self.state.lock().unwrap();
        self.synchronize_read_locked(&mut st)?;
        self.reap_readahead(&mut st, true);
        Ok(())
    }

    /// The decision counters of the cache core behind this device.
    pub fn decision_counters(&self) -> CacheDecisionCounters {
        self.cache.decision_counters()
    }

    /// Copies out every queued hit whose slot one of `reserved` took, so
    /// the hit keeps its block when the reserving DMA lands. A copy that
    /// fails stays queued: it fails again, and is reported, at
    /// synchronize.
    fn copy_out_reclaimed<'a>(
        &self,
        hits: &mut Vec<(u64, u64)>,
        reserved: impl Iterator<Item = &'a FillTicket>,
    ) {
        let mut reserved: Vec<u64> = reserved.map(FillTicket::addr).collect();
        reserved.sort_unstable();
        hits.retain(|&(src, dst)| {
            !(reserved.binary_search(&src).is_ok() && self.copy_block(src, dst).is_ok())
        });
    }

    /// Host-side copy of one block between pinned addresses (cache slot ↔
    /// caller buffer), inside the DMA space the SSDs use: a whole-page
    /// block is shared by reference, a smaller one copied.
    fn copy_block(&self, src: u64, dst: u64) -> Result<(), CamError> {
        self.copy_blocks(&[(src, dst)])
    }

    /// [`copy_block`](Self::copy_block) for each `(src, dst)` in order,
    /// under one hold of the DMA space's lock, stopping at the first that
    /// fails.
    fn copy_blocks(&self, copies: &[(u64, u64)]) -> Result<(), CamError> {
        let mut copied = Ok(());
        if !copies.is_empty() {
            let len = self.block_size as usize;
            self.dma.dma_session(&mut |dma| {
                copied = copies
                    .iter()
                    .try_for_each(|&(src, dst)| dma.dma_copy(src, dst, len));
            });
        }
        copied.map_err(|_| CamError::Io { failed: 1 })
    }
}

/// [`StorageBackend`] adapter over [`CachedDevice`]: the evaluation
/// workloads (sort, GEMM, GNN, DLRM) run unchanged with the cache in the
/// path. Multi-block requests are expanded to per-block cache accesses.
pub struct CachedBackend {
    dev: Arc<CachedDevice>,
    /// Per-submit cap — expansion can exceed the channel's region-1 size.
    max_batch: usize,
}

impl CachedBackend {
    /// Wraps a cached device. `max_batch` must not exceed the context's
    /// `CamConfig::max_batch`.
    pub fn new(dev: Arc<CachedDevice>, max_batch: usize) -> Self {
        CachedBackend {
            dev,
            max_batch: max_batch.max(1),
        }
    }

    /// The device (for flushes and cache inspection after a run).
    pub fn device(&self) -> &Arc<CachedDevice> {
        &self.dev
    }
}

fn to_backend(e: CamError) -> BackendError {
    match e {
        CamError::BatchTooLarge {
            requested,
            capacity,
        } => BackendError::BatchTooLarge {
            needed: requested,
            capacity,
        },
        _ => BackendError::Command(Status::DataTransferError),
    }
}

impl StorageBackend for CachedBackend {
    fn name(&self) -> &'static str {
        "CAM+cache"
    }

    fn execute_batch(&self, reqs: &[IoRequest]) -> Result<(), BackendError> {
        let bs = self.dev.block_size();
        // Preserve request order across direction changes: consecutive
        // same-direction runs become cached batches.
        let mut i = 0;
        while i < reqs.len() {
            let dir = reqs[i].dir;
            let mut pairs: Vec<(u64, u64)> = Vec::new();
            while i < reqs.len() && reqs[i].dir == dir {
                let r = &reqs[i];
                for b in 0..r.blocks as u64 {
                    pairs.push((r.lba + b, r.addr + b * bs));
                }
                i += 1;
            }
            for chunk in pairs.chunks(self.max_batch) {
                match dir {
                    IoDir::Read => {
                        self.dev.prefetch_pairs(chunk).map_err(to_backend)?;
                        self.dev.prefetch_synchronize().map_err(to_backend)?;
                    }
                    IoDir::Write => {
                        self.dev.write_back_pairs(chunk).map_err(to_backend)?;
                    }
                }
            }
        }
        Ok(())
    }
}
