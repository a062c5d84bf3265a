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
//!
//! A cached batch pays per batch, not per block. After the demand batch
//! retires, `prefetch_synchronize` copies every fill (and every wait of
//! the batch coalesced onto one) from its slot to its destination in one
//! DMA-region session while the slots are still *Filling*, then publishes
//! them all with `CacheCore::publish_fills` under one hold of the cache's
//! state lock. So a warm batch takes the state lock twice (classify,
//! publish), once if every access hit, and the region lock once for its
//! hits and once for its fills.
//! Every list the two calls use lives in the device and is reused, so a
//! warm batch allocates nothing.
//!
//! `write_back` is absorbed into dirty slots and flushed lazily, a block
//! at a time. Speculative readahead batches ride a third channel so they
//! never occupy the demand channels; a retired one is published in one
//! hold of the state lock.

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

/// The demand read batch between its `prefetch` and its synchronize, and
/// the lists both use. They live as long as the device and are emptied,
/// not dropped, after each batch: grown on first use, then reused.
#[derive(Default)]
struct DevState {
    /// Whether a `prefetch` awaits its synchronize.
    pending: bool,
    /// `None` when every access was a hit or coalesced (no NVMe traffic).
    ticket: Option<BatchTicket>,
    /// Hits still to copy: `(slot address, caller destination)`. Their
    /// slots are unpinned; `prefetch` has already copied out every hit
    /// whose slot a fill of its own batch or of its speculation reserved.
    hits: Vec<(u64, u64)>,
    /// Misses owned by this batch: fill ticket + caller destination.
    fills: Vec<(FillTicket, u64)>,
    /// Coalesced misses: waiter + caller destination.
    waits: Vec<(SlotWait, u64)>,
    /// `prefetch_pairs`' LBAs, in batch order.
    lbas: Vec<u64>,
    plan: ReadBatchPlan,
    /// `copy_out_reclaimed`'s sorted slot addresses.
    reserved: Vec<u64>,
    /// The demand submission's LBAs.
    sub_lbas: Vec<u64>,
    /// The fill copies: `(slot address, caller destination)`.
    copies: Vec<(u64, u64)>,
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
            state: Mutex::new(DevState::default()),
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
        if lbas.is_empty() {
            return Ok(());
        }
        let mut st = self.state.lock().unwrap();
        self.prefetch_locked(&mut st, lbas, |i| dest_addr + i as u64 * self.block_size)
    }

    /// Cached `prefetch` with an explicit destination per block. Classifies
    /// the batch, rings one doorbell for its misses and returns; the hits
    /// are copied by `prefetch_synchronize`, while the SSDs work.
    pub fn prefetch_pairs(&self, pairs: &[(u64, u64)]) -> Result<(), CamError> {
        if pairs.is_empty() {
            return Ok(());
        }
        let mut st = self.state.lock().unwrap();
        let mut lbas = std::mem::take(&mut st.lbas);
        lbas.clear();
        lbas.extend(pairs.iter().map(|&(lba, _)| lba));
        let sent = self.prefetch_locked(&mut st, &lbas, |i| pairs[i].1);
        st.lbas = lbas;
        sent
    }

    /// The body of both `prefetch` forms: access `i` reads `lbas[i]` into
    /// `dest(i)`.
    fn prefetch_locked(
        &self,
        st: &mut DevState,
        lbas: &[u64],
        dest: impl Fn(usize) -> u64,
    ) -> Result<(), CamError> {
        if st.pending {
            return Err(CamError::ChannelBusy);
        }
        self.reap_readahead(st, false);

        // Classify every access first; a hit is only queued. Exhausted
        // shards (`Busy`) are served uncached rather than stall the batch;
        // the core counts them as misses.
        st.plan.clear();
        let mut done = 0;
        loop {
            done += self.cache.plan_read_batch(
                lbas,
                done,
                &mut st.plan,
                &dest,
                &mut st.fills,
                &mut st.waits,
            );
            if done == lbas.len() {
                break;
            }
            // `lbas[done]` needs a flush. A flush only reads slots, so the
            // queued hits keep their blocks through it.
            if let Err(e) = self.flush_locked() {
                self.drop_batch(st);
                return Err(e);
            }
        }
        if let Some(rec) = &self.recorder {
            // The decisions this batch made, which the core counted: a
            // `Busy` fallback counts as a miss.
            rec.emit(EventKind::CacheAccess {
                channel: READ_CHANNEL as u16,
                hits: st.plan.hits.len() as u32,
                misses: (st.fills.len() + st.plan.direct.len()) as u32,
                coalesced: st.waits.len() as u32,
            });
        }

        let DevState {
            hits,
            fills,
            plan,
            reserved,
            sub_lbas,
            ..
        } = st;
        hits.extend(
            plan.hits
                .iter()
                .map(|&(pos, slot)| (self.cache.slot_addr(slot), dest(pos))),
        );
        // A fill may have reserved the slot of an earlier hit of this
        // batch: copy that hit out before the doorbell lets the fill's DMA
        // land there.
        self.copy_out_reclaimed(hits, reserved, fills.iter().map(|(f, _)| f));

        // One demand batch covers every real miss: fills DMA into their
        // cache slots, uncached fallbacks into the caller's buffer.
        if !fills.is_empty() || !plan.direct.is_empty() {
            sub_lbas.clear();
            sub_lbas.extend(fills.iter().map(|(f, _)| f.lba()));
            sub_lbas.extend(plan.direct.iter().map(|&(_, lba)| lba));
            let n_fills = fills.len();
            let addr = |i: usize| match i.checked_sub(n_fills) {
                None => fills[i].0.addr(),
                Some(d) => dest(plan.direct[d].0),
            };
            match self
                .dev
                .submit_scatter(READ_CHANNEL, ChannelOp::Read, sub_lbas, addr, 1)
            {
                Ok(t) => st.ticket = Some(t),
                Err(e) => {
                    self.drop_batch(st);
                    return Err(e);
                }
            }
        }
        self.maybe_readahead(st, lbas[0]);
        st.pending = true;
        Ok(())
    }

    /// Forgets a batch that failed before its doorbell: its fill tickets
    /// drop, aborting their fills, and its queued hits and waits go.
    fn drop_batch(&self, st: &mut DevState) {
        st.hits.clear();
        st.fills.clear();
        st.waits.clear();
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
        if !std::mem::take(&mut st.pending) {
            return Ok(());
        }
        let ticket = st.ticket.take();
        if ticket.is_some() && !st.hits.is_empty() {
            // Let the worker take the misses to the SSDs first: where it
            // shares the core with this thread, this is what overlaps the
            // hit copies with the SSDs' work.
            std::thread::yield_now();
        }
        let copied = self.copy_blocks(&st.hits);
        st.hits.clear();
        let mut result = ticket.map_or(Ok(()), |t| t.wait());
        if result.is_ok() {
            // The blocks have landed and the slots are still *Filling*, so
            // no one can reclaim them: copy every fill out, and every wait
            // coalesced onto one of them, in one region session, then
            // publish the fills under one hold of the cache lock.
            let DevState {
                fills,
                waits,
                copies,
                ..
            } = st;
            copies.clear();
            copies.extend(fills.iter().map(|(f, dest)| (f.addr(), *dest)));
            waits.retain(
                |(w, dest)| match fills.iter().find(|(f, _)| f.lba() == w.lba()) {
                    Some((f, _)) => {
                        copies.push((f.addr(), *dest));
                        false
                    }
                    None => true,
                },
            );
            result = self.copy_blocks(copies);
            if !fills.is_empty() {
                self.cache.publish_fills(fills.drain(..).map(|(f, _)| f));
            }
        } else {
            // The fill tickets drop un-completed, freeing their slots and
            // waking coalesced waiters into their fallback path.
            st.fills.clear();
        }
        if !st.waits.is_empty() {
            // Coalesced waiters may be waiting on speculative fills — make
            // sure those are published before blocking on the condvar.
            self.reap_readahead(st, true);
            for (wait, dest) in st.waits.drain(..) {
                let lba = wait.lba();
                let r = match wait.wait() {
                    Some(pin) => self.copy_block(pin.addr(), dest),
                    // The owning fill aborted: fetch the block uncached so
                    // the caller still gets its data.
                    None => self
                        .dev
                        .submit_scatter(READ_CHANNEL, ChannelOp::Read, &[lba], |_| dest, 1)
                        .and_then(|t| t.wait()),
                };
                if result.is_ok() {
                    result = r;
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
    /// resident speculative blocks (or aborts them if the batch errored),
    /// all in one hold of the cache lock. With `block`, waits for an
    /// unfinished batch instead of leaving it.
    fn reap_readahead(&self, st: &mut DevState, block: bool) {
        let Some((ticket, fills)) = st.ra_outstanding.take() else {
            return;
        };
        if !block && !ticket.is_done() {
            st.ra_outstanding = Some((ticket, fills));
            return;
        }
        // Errored speculation aborts its fills, so the slots free up and
        // any waiter falls back to a demand fetch.
        let landed = ticket.wait().is_ok();
        self.cache.retire_readahead(fills, landed);
    }

    /// Feeds the stream detector and issues at most one speculative batch.
    /// All decisions (accuracy feedback, stride confirmation, candidate
    /// selection, budget) are the core's; this method only issues the I/O.
    /// A reserved slot that held one of the demand batch's queued hits has
    /// that hit copied out first, before the speculative DMA can land there.
    fn maybe_readahead(&self, st: &mut DevState, batch_start: u64) {
        if !self.ra_enabled {
            return;
        }
        let Some(batch) = self.cache.plan_readahead(batch_start, self.array_blocks) else {
            return;
        };
        self.copy_out_reclaimed(&mut st.hits, &mut st.reserved, batch.tickets().iter());
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

    /// Copies out every queued hit whose slot one of `fills` took, so the
    /// hit keeps its block when the reserving DMA lands, in one region
    /// session, and only when there is one. A copy that fails stays
    /// queued: it fails again, and is reported, at synchronize. `reserved`
    /// is scratch for the sorted slot addresses.
    fn copy_out_reclaimed<'a>(
        &self,
        hits: &mut Vec<(u64, u64)>,
        reserved: &mut Vec<u64>,
        fills: impl Iterator<Item = &'a FillTicket>,
    ) {
        reserved.clear();
        reserved.extend(fills.map(FillTicket::addr));
        reserved.sort_unstable();
        let reclaimed = |src: &u64| reserved.binary_search(src).is_ok();
        if !hits.iter().any(|(src, _)| reclaimed(src)) {
            return;
        }
        let len = self.block_size as usize;
        self.dma.dma_session(&mut |dma| {
            hits.retain(|&(src, dst)| !(reclaimed(&src) && dma.dma_copy(src, dst, len).is_ok()));
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
