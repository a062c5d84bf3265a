//! [`ServingCore`] — the tenant-facing request plane.
//!
//! The core is a clock-agnostic state machine (every entry point takes an
//! explicit `now_ns`), pumped by whichever driver owns the channels:
//!
//! * the **DES driver** wraps it in a `DesBatchSource` and runs it on the
//!   virtual timeline (thousands of sessions in milliseconds of CPU);
//! * the **threaded driver** polls it from a wall-clock loop over real
//!   `CamContext` batch tickets.
//!
//! Pump contract, per channel (0 = demand reads, 1 = write-back,
//! 2 = readahead): call [`ServingCore::next_batch`] only while the channel
//! is idle; when the published batch retires, call
//! [`ServingCore::on_retire`] and re-poll every idle channel. When every
//! channel idles with work still pending (admission-throttled tenants),
//! [`ServingCore::next_ready_ns`] names the instant to re-poll.
//!
//! A step's life: the tenant's trace head is **admitted** when its token
//! bucket grants the step's block cost. Admission opens the session,
//! counts GPU-residency hits, turns the missing context blocks into a
//! demand-read [`WorkItem`] (plus a readahead item on a cold restore) and
//! appends the step's new KV blocks (write-back is fire-and-forget).
//! Hit-only steps complete at admission with zero latency; miss steps
//! complete when their demand read retires — that span is the per-tenant
//! latency the SLO accounting records.

use std::collections::VecDeque;
use std::ops::Range;

use cam_protocol::ChannelOp;
use cam_telemetry::{
    MetricsRegistry, SloConfig, SloTracker, TenantMetrics, WindowConfig, WindowedHistogram,
};
use cam_workloads::kv_cache::{self, KvCacheConfig, KvStep};

use crate::admission::{AdmissionConfig, TokenBucket};
use crate::sched::{FairScheduler, Policy, WorkItem};
use crate::session::{SessionConfig, SessionSlot, SessionTable, SessionView};

/// Demand-read channel.
pub const CH_DEMAND: usize = 0;
/// Write-back channel.
pub const CH_WRITEBACK: usize = 1;
/// Readahead channel.
pub const CH_READAHEAD: usize = 2;
/// Channels the serving plane drives.
pub const N_CHANNELS: usize = 3;

/// Full serving-plane configuration.
#[derive(Clone, Debug)]
pub struct ServingConfig {
    /// The KV-cache workload (tenant count, traces, session shape).
    pub workload: KvCacheConfig,
    /// Demand-read scheduling policy.
    pub policy: Policy,
    /// DRR deficit earned per backlogged tenant per round, blocks.
    pub quantum_blocks: u64,
    /// Per-tenant admission buckets (length = tenant count).
    pub admission: Vec<AdmissionConfig>,
    /// GPU KV-residency budget across all sessions, blocks.
    pub gpu_budget_blocks: u64,
    /// Largest batch published on any channel, blocks.
    pub max_batch_blocks: u64,
    /// Extra older-context blocks prefetched on a cold session restore.
    pub readahead_blocks: u64,
    /// Per-tenant concurrent-step cap (clamped to the tenant's session
    /// count — a tenant's concurrency is its active sessions).
    pub max_inflight_per_tenant: usize,
    /// The latency objective per-tenant burn rates track.
    pub slo: SloConfig,
}

impl ServingConfig {
    /// A ready-to-run config over `workload`: generous admission, GPU
    /// budget at ~¼ of the total KV footprint (so the session tail pages),
    /// 512-block batches.
    pub fn for_workload(workload: KvCacheConfig, policy: Policy) -> Self {
        let tenants = workload.tenants();
        let footprint = workload.total_sessions() as u64 * workload.session_blocks;
        ServingConfig {
            policy,
            quantum_blocks: 32,
            admission: vec![AdmissionConfig::default(); tenants],
            gpu_budget_blocks: (footprint / 4).max(workload.session_blocks),
            max_batch_blocks: 512,
            readahead_blocks: 4,
            max_inflight_per_tenant: 1024,
            slo: SloConfig::default(),
            workload,
        }
    }

    /// Array capacity the session table needs, blocks.
    pub fn capacity_blocks(&self) -> u64 {
        self.workload.total_sessions() as u64 * self.workload.session_blocks
    }
}

/// Per-tenant accumulators (exact, whole-run).
#[derive(Debug, Default)]
struct TenantAccum {
    admitted: u64,
    throttled: u64,
    completed: u64,
    hits: u64,
    accesses: u64,
    latencies: Vec<u64>,
    stalled: bool,
}

/// Per-tenant results of a finished run.
#[derive(Clone, Debug)]
pub struct TenantStats {
    /// Steps admitted past the token bucket.
    pub admitted: u64,
    /// Admission-stall episodes.
    pub throttled: u64,
    /// Steps completed.
    pub completed: u64,
    /// GPU-resident context blocks served without I/O.
    pub hits: u64,
    /// Context blocks requested.
    pub accesses: u64,
    /// Exact median step latency, ns.
    pub p50_ns: u64,
    /// Exact 99th-percentile step latency, ns.
    pub p99_ns: u64,
    /// Completed steps per second of run time.
    pub rps: f64,
    /// Short-window SLO burn rate at end of run.
    pub burn_short: f64,
    /// Long-window SLO burn rate at end of run.
    pub burn_long: f64,
}

impl TenantStats {
    /// Block hit rate (1.0 when no context was requested).
    pub fn hit_rate(&self) -> f64 {
        if self.accesses == 0 {
            1.0
        } else {
            self.hits as f64 / self.accesses as f64
        }
    }
}

/// Whole-run results.
#[derive(Clone, Debug)]
pub struct ServingStats {
    /// Per-tenant results, indexed by tenant id.
    pub tenants: Vec<TenantStats>,
    /// Batches published per channel.
    pub batches: [u64; N_CHANNELS],
    /// Blocks moved per channel.
    pub blocks: [u64; N_CHANNELS],
    /// GPU-residency evictions.
    pub evictions: u64,
    /// Run duration, ns.
    pub duration_ns: u64,
}

/// A work item naming its session by table slot: the key is resolved once,
/// at admission, and the pin the item holds keeps the slot valid.
type Item = WorkItem<SessionSlot>;

/// One in-flight batch's bookkeeping, per channel.
enum Inflight {
    /// Demand reads / readahead: the items riding the batch.
    Items(Vec<Item>),
    /// Write-back: fire-and-forget, nothing to resolve at retire.
    Writeback,
}

/// The serving state machine. Drivers own it behind a mutex and pump it
/// through [`next_batch`](Self::next_batch) / [`on_retire`](Self::on_retire).
pub struct ServingCore {
    cfg: ServingConfig,
    traces: Vec<VecDeque<KvStep>>,
    buckets: Vec<TokenBucket>,
    table: SessionTable,
    sched: FairScheduler<SessionSlot>,
    /// Readahead items, in arrival order whatever the demand policy.
    readahead: FairScheduler<SessionSlot>,
    wb_queue: VecDeque<u64>,
    /// Instant of the last [`admit`](Self::admit) pass, until a retirement
    /// or disconnect changes what a pass would decide. A second pass at
    /// the same instant is a no-op (each tenant stops where it stopped: cap
    /// reached, trace empty, or bucket refusing the same step with no time
    /// elapsed), so the channels polled at one instant share one pass.
    admitted_at: Option<u64>,
    inflight: [Option<Inflight>; N_CHANNELS],
    inflight_steps: Vec<usize>,
    max_inflight: Vec<usize>,
    accum: Vec<TenantAccum>,
    /// First pump instant — anchors duration on the threaded driver's
    /// absolute wall clock (the DES timeline starts at ~0 anyway).
    start_ns: Option<u64>,
    slo: SloTracker,
    lat_windows: Vec<WindowedHistogram>,
    metrics: Option<TenantMetrics>,
    batches: [u64; N_CHANNELS],
    moved: [u64; N_CHANNELS],
}

impl ServingCore {
    /// Builds the core: generates the workload traces and sizes the
    /// session table. When `registry` is given, per-tenant gauges and
    /// counters ([`TenantMetrics`]) are kept live as the run progresses.
    pub fn new(cfg: ServingConfig, registry: Option<&MetricsRegistry>) -> Self {
        let tenants = cfg.workload.tenants();
        assert_eq!(
            cfg.admission.len(),
            tenants,
            "one admission bucket per tenant"
        );
        let traces: Vec<VecDeque<KvStep>> = kv_cache::generate(&cfg.workload)
            .into_iter()
            .map(VecDeque::from)
            .collect();
        let table = SessionTable::new(SessionConfig {
            session_blocks: cfg.workload.session_blocks,
            capacity_blocks: cfg.capacity_blocks(),
            gpu_budget_blocks: cfg.gpu_budget_blocks,
        });
        let max_inflight = cfg
            .workload
            .sessions
            .iter()
            .map(|&s| s.min(cfg.max_inflight_per_tenant))
            .collect();
        let window_cfg = WindowConfig::new(cfg.slo.short.window_ns(), 8);
        ServingCore {
            sched: FairScheduler::new(cfg.policy, tenants, cfg.quantum_blocks),
            buckets: cfg.admission.iter().map(|&a| TokenBucket::new(a)).collect(),
            slo: SloTracker::new(cfg.slo, tenants),
            lat_windows: (0..tenants)
                .map(|_| WindowedHistogram::new(window_cfg))
                .collect(),
            metrics: registry.map(|r| TenantMetrics::new(r, tenants)),
            readahead: FairScheduler::new(Policy::Fifo, tenants, cfg.quantum_blocks),
            traces,
            table,
            wb_queue: VecDeque::new(),
            admitted_at: None,
            inflight: [None, None, None],
            inflight_steps: vec![0; tenants],
            max_inflight,
            accum: (0..tenants).map(|_| TenantAccum::default()).collect(),
            start_ns: None,
            batches: [0; N_CHANNELS],
            moved: [0; N_CHANNELS],
            cfg,
        }
    }

    /// Tenants in the plane.
    pub fn n_tenants(&self) -> usize {
        self.traces.len()
    }

    /// Array capacity the session table was sized for, blocks.
    pub fn capacity_blocks(&self) -> u64 {
        self.cfg.capacity_blocks()
    }

    /// Largest batch the core publishes on any channel, blocks.
    pub fn max_batch_blocks(&self) -> u64 {
        self.cfg.max_batch_blocks
    }

    /// Pulls admissible steps from every tenant's trace head.
    fn admit(&mut self, now_ns: u64) {
        for t in 0..self.traces.len() {
            while self.inflight_steps[t] < self.max_inflight[t] {
                let Some(&step) = self.traces[t].front() else {
                    break;
                };
                let cost = (step.read_blocks + step.write_blocks) as f64;
                if !self.buckets[t].try_take(now_ns, cost) {
                    if !self.accum[t].stalled {
                        self.accum[t].stalled = true;
                        self.accum[t].throttled += 1;
                        if let Some(m) = &self.metrics {
                            m.throttled[t].inc();
                        }
                    }
                    break;
                }
                self.accum[t].stalled = false;
                self.traces[t].pop_front();
                self.admit_step(t, step, now_ns);
            }
        }
    }

    fn admit_step(&mut self, t: usize, step: KvStep, now_ns: u64) {
        let (slot, _) = self.table.open((t, step.session), now_ns);
        self.accum[t].admitted += 1;
        if let Some(m) = &self.metrics {
            m.admitted[t].inc();
        }

        // Demand reads over the context window written *before* this step.
        let SessionView {
            extent,
            written,
            resident,
        } = self.table.view(slot);
        let window = step.read_blocks.min(written);
        let hits = window.min(resident);
        let misses = window - hits;
        self.accum[t].accesses += window;
        self.accum[t].hits += hits;
        if misses > 0 {
            // The resident suffix covers [written-resident, written); the
            // missing prefix of the window pages in from SSD.
            let item = |blocks: Range<u64>, resident_target| Item {
                tenant: t,
                key: slot,
                lbas: (extent + blocks.start..extent + blocks.end).collect(),
                resident_target,
                admit_ns: now_ns,
            };
            self.table.pin_slot(slot);
            self.inflight_steps[t] += 1;
            // Cold restore: prefetch older context beyond the demand
            // window on the readahead channel.
            if resident == 0 && written > window && self.cfg.readahead_blocks > 0 {
                let ra = self.cfg.readahead_blocks.min(written - window);
                self.table.pin_slot(slot);
                self.readahead
                    .push(item(written - window - ra..written - window, window + ra));
            }
            self.sched
                .push(item(written - window..written - hits, window));
        } else {
            // Every context block is GPU-resident (or the step reads
            // nothing): the step completes at admission.
            self.complete_step(t, 0, 0, now_ns);
        }

        // Appends: new KV blocks are born resident and written back
        // asynchronously on the write-back channel.
        if step.write_blocks > 0 {
            let appended = self.table.append_slot(slot, step.write_blocks, now_ns);
            self.wb_queue
                .extend(extent + appended.start..extent + appended.end);
        }
    }

    fn complete_step(&mut self, t: usize, latency_ns: u64, errors: u64, now_ns: u64) {
        self.accum[t].completed += 1;
        self.accum[t].latencies.push(latency_ns);
        self.slo.record(t, latency_ns, errors, now_ns);
        self.lat_windows[t].record_at(now_ns, latency_ns);
        if let Some(m) = &self.metrics {
            m.completed[t].inc();
            let burn = self.slo.burn_rate(t, now_ns);
            m.slo_burn[t].set((burn.max() * 1000.0) as u64);
            m.latency_p50_ns[t].set(self.lat_windows[t].quantile_at(now_ns, 0.50));
            m.latency_p99_ns[t].set(self.lat_windows[t].quantile_at(now_ns, 0.99));
            let a = &self.accum[t];
            let rate = (a.hits * 1000).checked_div(a.accesses).unwrap_or(1000);
            m.hit_rate_milli[t].set(rate);
        }
    }

    /// Builds the next batch for an idle `channel`, or `None` when the
    /// channel has nothing to do right now. Runs admission first, so the
    /// driver never has to call it separately.
    pub fn next_batch(&mut self, channel: usize, now_ns: u64) -> Option<(Vec<u64>, ChannelOp)> {
        assert!(
            self.inflight[channel].is_none(),
            "channel {channel} already has a batch in flight"
        );
        self.start_ns.get_or_insert(now_ns);
        if self.admitted_at != Some(now_ns) {
            self.admit(now_ns);
            self.admitted_at = Some(now_ns);
        }
        let (lbas, op, inflight) = match channel {
            CH_DEMAND | CH_READAHEAD => {
                let sched = if channel == CH_DEMAND {
                    &mut self.sched
                } else {
                    &mut self.readahead
                };
                let items = sched.next_batch(self.cfg.max_batch_blocks);
                if items.is_empty() {
                    return None;
                }
                let mut lbas = Vec::with_capacity(items.iter().map(|i| i.lbas.len()).sum());
                for item in &items {
                    lbas.extend_from_slice(&item.lbas);
                }
                (lbas, ChannelOp::Read, Inflight::Items(items))
            }
            CH_WRITEBACK => {
                if self.wb_queue.is_empty() {
                    return None;
                }
                let take = (self.cfg.max_batch_blocks as usize).min(self.wb_queue.len());
                let lbas: Vec<u64> = self.wb_queue.drain(..take).collect();
                (lbas, ChannelOp::Write, Inflight::Writeback)
            }
            _ => panic!("serving drives channels 0..{N_CHANNELS}"),
        };
        self.batches[channel] += 1;
        self.moved[channel] += lbas.len() as u64;
        self.inflight[channel] = Some(inflight);
        Some((lbas, op))
    }

    /// Retires the channel's in-flight batch at `now_ns`: installs
    /// residency, releases pins, and records per-tenant latency/SLO for
    /// demand reads.
    pub fn on_retire(&mut self, channel: usize, now_ns: u64, errors: u64) {
        let inflight = self.inflight[channel]
            .take()
            .expect("retire without a batch in flight");
        self.admitted_at = None;
        match inflight {
            Inflight::Writeback => {}
            Inflight::Items(items) => {
                let errored = u64::from(errors > 0);
                for item in items {
                    self.table
                        .mark_resident_slot(item.key, item.resident_target, now_ns);
                    self.table.unpin_slot(item.key);
                    if channel == CH_DEMAND {
                        self.inflight_steps[item.tenant] -= 1;
                        let latency = now_ns.saturating_sub(item.admit_ns);
                        self.complete_step(item.tenant, latency, errored, now_ns);
                    }
                }
            }
        }
    }

    /// Earliest instant at which an admission-throttled tenant's bucket
    /// could grant its head-of-line step; `None` when no tenant is
    /// throttle-stalled (any other stall resolves at the next retire) or
    /// every stalled bucket will never refill (a paused tenant waits for a
    /// [`disconnect`](Self::disconnect), not for a timer).
    pub fn next_ready_ns(&mut self, now_ns: u64) -> Option<u64> {
        let _ = now_ns;
        (0..self.traces.len())
            .filter_map(|t| {
                let step = self.traces[t].front()?;
                if self.inflight_steps[t] >= self.max_inflight[t] {
                    return None;
                }
                let cost = (step.read_blocks + step.write_blocks) as f64;
                Some(self.buckets[t].ready_at(cost))
            })
            .filter(|&ready_ns| ready_ns != u64::MAX)
            .min()
    }

    /// Whether every trace is consumed and every queue and channel drained.
    pub fn is_drained(&self) -> bool {
        self.traces.iter().all(VecDeque::is_empty)
            && self.sched.is_empty()
            && self.readahead.is_empty()
            && self.wb_queue.is_empty()
            && self.inflight.iter().all(Option::is_none)
    }

    /// Disconnects `tenant` mid-burst: its remaining trace is dropped and
    /// its queued (not-yet-published) items are cancelled. In-flight
    /// batches retire normally — sessions stay pinned until then.
    pub fn disconnect(&mut self, tenant: usize, now_ns: u64) {
        self.traces[tenant].clear();
        self.admitted_at = None;
        for item in self.sched.drain_tenant(tenant) {
            self.table.unpin_slot(item.key);
            self.inflight_steps[tenant] -= 1;
        }
        for item in self.readahead.drain_tenant(tenant) {
            self.table.unpin_slot(item.key);
        }
        let _ = now_ns;
    }

    /// GPU-resident blocks across all sessions right now.
    pub fn resident_blocks(&self) -> u64 {
        self.table.resident_total()
    }

    /// Snapshot of the finished (or in-progress) run at `end_ns`.
    pub fn report(&self, end_ns: u64) -> ServingStats {
        let duration_ns = end_ns.saturating_sub(self.start_ns.unwrap_or(0)).max(1);
        let dur_s = duration_ns as f64 * 1e-9;
        let tenants = self
            .accum
            .iter()
            .enumerate()
            .map(|(t, a)| {
                let mut lat = a.latencies.clone();
                lat.sort_unstable();
                let q = |q: f64| -> u64 {
                    if lat.is_empty() {
                        0
                    } else {
                        lat[((lat.len() - 1) as f64 * q).round() as usize]
                    }
                };
                let burn = self.slo.burn_rate(t, end_ns);
                TenantStats {
                    admitted: a.admitted,
                    throttled: a.throttled,
                    completed: a.completed,
                    hits: a.hits,
                    accesses: a.accesses,
                    p50_ns: q(0.50),
                    p99_ns: q(0.99),
                    rps: a.completed as f64 / dur_s,
                    burn_short: burn.short,
                    burn_long: burn.long,
                }
            })
            .collect();
        ServingStats {
            tenants,
            batches: self.batches,
            blocks: self.moved,
            evictions: self.table.evictions(),
            duration_ns,
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn small_cfg(policy: Policy) -> ServingConfig {
        let mut wl = KvCacheConfig::uniform(2, 8, 60);
        wl.seed = 7;
        let mut cfg = ServingConfig::for_workload(wl, policy);
        cfg.max_batch_blocks = 32;
        cfg
    }

    /// Pumps the core synchronously: every published batch retires after a
    /// fixed virtual service time. A minimal single-threaded driver.
    fn pump(core: &mut ServingCore, service_ns: u64) -> u64 {
        let mut now = 0;
        let mut guard = 0;
        while !core.is_drained() {
            let mut published = false;
            for ch in 0..N_CHANNELS {
                if core.inflight[ch].is_none() {
                    if let Some((lbas, _op)) = core.next_batch(ch, now) {
                        assert!(!lbas.is_empty());
                        published = true;
                        now += service_ns;
                        core.on_retire(ch, now, 0);
                    }
                }
            }
            if !published {
                now = core
                    .next_ready_ns(now)
                    .expect("stalled with no wake-up")
                    .max(now + 1);
            }
            guard += 1;
            assert!(guard < 1_000_000, "pump did not converge");
        }
        now
    }

    #[test]
    fn every_step_completes_and_counters_balance() {
        for policy in [Policy::Drr, Policy::Fifo] {
            let mut core = ServingCore::new(small_cfg(policy), None);
            let end = pump(&mut core, 100_000);
            let stats = core.report(end);
            for (t, s) in stats.tenants.iter().enumerate() {
                assert_eq!(s.admitted, 60, "tenant {t} admitted");
                assert_eq!(s.completed, 60, "tenant {t} completed");
                assert!(s.hits <= s.accesses);
            }
            assert!(stats.batches[CH_DEMAND] > 0, "no demand traffic");
            assert!(stats.batches[CH_WRITEBACK] > 0, "no write-back traffic");
        }
    }

    #[test]
    fn runs_are_deterministic_on_the_virtual_timeline() {
        let run = || {
            let mut core = ServingCore::new(small_cfg(Policy::Drr), None);
            let end = pump(&mut core, 100_000);
            let s = core.report(end);
            (
                end,
                s.batches,
                s.blocks,
                s.tenants.iter().map(|t| t.p99_ns).collect::<Vec<_>>(),
            )
        };
        assert_eq!(run(), run());
    }

    #[test]
    fn admission_throttling_stretches_the_run() {
        let mut cfg = small_cfg(Policy::Drr);
        let fast = {
            let mut core = ServingCore::new(cfg.clone(), None);
            pump(&mut core, 100_000)
        };
        // 5k blocks/s over ~60 steps × ~9 blocks per tenant ⇒ the bucket,
        // not the device, paces the run.
        for a in &mut cfg.admission {
            a.rate_blocks_per_s = 5_000.0;
            a.burst_blocks = 16.0;
        }
        let mut core = ServingCore::new(cfg, None);
        let slow = pump(&mut core, 100_000);
        let stats = core.report(slow);
        assert!(slow > fast * 2, "throttled run {slow} vs {fast}");
        assert!(stats.tenants.iter().all(|t| t.throttled > 0));
        assert!(stats.tenants.iter().all(|t| t.completed == 60));
    }

    #[test]
    fn eviction_under_tight_budget_forces_paging_and_readahead() {
        let mut cfg = small_cfg(Policy::Drr);
        cfg.gpu_budget_blocks = cfg.workload.session_blocks * 2;
        let mut core = ServingCore::new(cfg, None);
        let end = pump(&mut core, 100_000);
        let stats = core.report(end);
        assert!(stats.evictions > 0, "tight budget must evict");
        assert!(
            stats.batches[CH_READAHEAD] > 0,
            "cold restores must prefetch"
        );
        let hit_rate: f64 = stats.tenants.iter().map(TenantStats::hit_rate).sum::<f64>() / 2.0;
        assert!(hit_rate < 1.0, "tight budget must miss");
        assert!(core.resident_blocks() <= cfg_budget(&core));
    }

    fn cfg_budget(core: &ServingCore) -> u64 {
        core.cfg.gpu_budget_blocks
    }
}
