//! The four wall-clock workloads: one client thread, one thread-per-core
//! engine worker, two SSDs (see README, "Thread budget").
//!
//! Everything here goes through the public device-side API
//! (`CamDevice::submit`, `BatchTicket`, `CachedDevice`); the client's own
//! clock reads around those calls are the `client.*` spans.

use std::sync::Arc;
use std::time::{Duration, Instant};

use cam_blockdev::{BlockStore, Lba};
use cam_cache::{CacheConfig, CachedDevice, ReadaheadConfig};
use cam_core::{BatchTicket, CamConfig, CamContext, CamError, ChannelOp, ThreadModel};
use cam_gpu::GpuBuffer;
use cam_iostacks::{Rig, RigConfig};
use cam_protocol::cache_core::replay_read_workload;
use cam_telemetry::{FlightRecorder, Histogram, MetricsRegistry, Observability, Stage};

use crate::catalogue::{CACHE_ZIPF, CTRL_READ, DEV_READ, RW_OVERLAP};
use crate::gen::{Lcg, Pattern, Zipf};
use crate::report::Report;
use crate::stats::{fast_rate, fast_time, median, percentile, quantile};

pub const N_SSDS: usize = 2;
pub const BLOCK: usize = 4096;
/// Array size in blocks (8 Ki per SSD); also the Zipf row count.
pub const ARRAY_BLOCKS: u64 = 16 * 1024;
/// `ctrl_read`'s array: 1 MiB of media, resident in the core's L2, so the
/// device's block copy costs less than the control plane's own work and the
/// figure does not follow the host's shared L3 and memory traffic.
pub const CTRL_BLOCKS: u64 = 256;
pub const BATCH: usize = 64;
/// Batches generated during set-up; the run cycles through them.
const TRACE_BATCHES: usize = 4096;
/// Every `CHECK_EVERY`-th batch has all of its blocks compared with the
/// preloaded pattern, off the timed path.
const CHECK_EVERY: u64 = 64;
const DEVICE_LATENCY: Duration = Duration::from_micros(100);
const CACHE_SLOTS: usize = 2048;
/// `ctrl_read` runs this many fresh-context segments per `--seconds`.
pub const CTRL_SEGMENTS: usize = 12;
/// Leading share of each `ctrl_read` segment that is discarded.
const CTRL_DISCARD: f64 = 0.1;
/// Least length of a timed window: 50 ms, or 20 ms for `ctrl_read`, whose
/// batches are a tenth as long (45 to 480 batches a window either way). The
/// box slows by a third for anything from 0.1 s to tens of seconds at a time
/// (README, "Estimators"); the shorter the windows, the more of them fall
/// wholly outside such spells.
const WINDOW_S: f64 = 0.05;
const CTRL_WINDOW_S: f64 = 0.02;
/// A window is "slow" below this share of the reported throughput.
const SLOW_WINDOW: f64 = 0.8;
/// A batch that has not retired after this long is counted as failed and
/// ends the run: the engine is wedged.
const SYNC_TIMEOUT_NS: u64 = 2_000_000_000;
/// Set-ups per run for the continuous workloads. With three, the figure
/// flipped between the allocator's cold and warm behaviour from run to run
/// (quartile spread 22 %); `ctrl_read`'s twelve fresh contexts never did.
const SETUP_REPEATS: usize = 11;

#[derive(Clone, Copy, PartialEq)]
pub enum Kind {
    CtrlRead,
    DevRead,
    RwOverlap,
    CacheZipf,
}

impl Kind {
    pub fn from_name(name: &str) -> Option<Kind> {
        match name {
            CTRL_READ => Some(Kind::CtrlRead),
            DEV_READ => Some(Kind::DevRead),
            RW_OVERLAP => Some(Kind::RwOverlap),
            CACHE_ZIPF => Some(Kind::CacheZipf),
            _ => None,
        }
    }

    fn channels(self) -> usize {
        match self {
            Kind::CtrlRead => 1,
            _ => 2,
        }
    }

    fn blocks(self) -> u64 {
        match self {
            Kind::CtrlRead => CTRL_BLOCKS,
            _ => ARRAY_BLOCKS,
        }
    }

    fn device_latency(self) -> Option<Duration> {
        match self {
            Kind::CtrlRead => None,
            _ => Some(DEVICE_LATENCY),
        }
    }
}

/// One batch of the pre-generated trace.
struct TraceBatch {
    reads: Vec<u64>,
    /// `rw_overlap` only: distinct LBAs in the upper half of the array.
    writes: Vec<u64>,
}

fn make_trace(kind: Kind, seed: u64, lane: u64) -> Vec<TraceBatch> {
    let mut rng = Lcg::derive(seed, lane);
    let zipf = (kind == Kind::CacheZipf).then(|| Zipf::new(ARRAY_BLOCKS as usize, 1.1));
    let half = ARRAY_BLOCKS / 2;
    (0..TRACE_BATCHES)
        .map(|_| {
            let reads = (0..BATCH)
                .map(|_| match (&zipf, kind) {
                    // Rank r maps to a scattered row so hot rows spread
                    // over both SSDs and all cache shards.
                    (Some(z), _) => (z.sample(&mut rng) * 0x9E37) % ARRAY_BLOCKS,
                    (None, Kind::RwOverlap) => rng.below(half),
                    (None, _) => rng.below(kind.blocks()),
                })
                .collect();
            let writes = if kind == Kind::RwOverlap {
                // Odd stride over a power-of-two range: 64 distinct LBAs,
                // so read-after-write has one defined answer per block.
                let (base, stride) = (rng.below(half), rng.below(half) | 1);
                (0..BATCH as u64)
                    .map(|i| half + (base + i * stride) % half)
                    .collect()
            } else {
                Vec::new()
            };
            TraceBatch { reads, writes }
        })
        .collect()
}

/// A built testbed. Field order is drop order: the context (and its worker)
/// stops before the devices under it.
struct Env {
    cache: Option<CachedDevice>,
    cam: CamContext,
    rig: Rig,
    trace: Vec<TraceBatch>,
    setup_s: f64,
}

fn build_env(kind: Kind, seed: u64, lane: u64, pattern: Pattern, observed: bool) -> Env {
    let t0 = Instant::now();
    let trace = make_trace(kind, seed, lane);
    let rig = Rig::new(RigConfig {
        n_ssds: N_SSDS,
        blocks_per_ssd: kind.blocks() / N_SSDS as u64,
        block_size: BLOCK as u32,
        stripe_blocks: 1,
        burst_latency: kind.device_latency(),
        ..RigConfig::default()
    });
    // Preload before attach, so the worker's idle time during it does not
    // land in the park-ratio window.
    let raid = rig.raid_view();
    let mut block = vec![0u8; BLOCK];
    for lba in 0..kind.blocks() {
        pattern.fill(lba, &mut block);
        raid.write(Lba(lba), &block).expect("preload media");
    }
    let cfg = CamConfig {
        n_channels: kind.channels(),
        workers: Some(1),
        thread_model: ThreadModel::ThreadPerCore,
        pipelined: true,
        sync_timeout_ns: Some(SYNC_TIMEOUT_NS),
        ..CamConfig::default()
    };
    let cam = if observed {
        let obs = Observability::recorded(
            Arc::new(MetricsRegistry::new()),
            Arc::new(FlightRecorder::new()),
        );
        CamContext::attach_observed(&rig, cfg, obs)
    } else {
        CamContext::attach(&rig, cfg)
    };
    let cache = (kind == Kind::CacheZipf)
        .then(|| CachedDevice::attach(&rig, &cam, cache_config()).expect("cache fits GPU memory"));
    Env {
        cache,
        cam,
        rig,
        trace,
        setup_s: t0.elapsed().as_secs_f64(),
    }
}

pub fn cache_config() -> CacheConfig {
    CacheConfig {
        slots: CACHE_SLOTS,
        readahead: ReadaheadConfig {
            enable: false,
            ..ReadaheadConfig::default()
        },
        ..CacheConfig::default()
    }
}

/// Samples of one timed window. Vectors are sized up front so recording
/// never allocates on the timed path.
struct Window {
    /// From the retire that opened the window to the one that closed it.
    span_ns: u64,
    reqs: u64,
    batch_ns: Vec<u64>,
    submit_ns: Vec<u64>,
    wait_ns: Vec<u64>,
}

/// The measurement clock: time since start minus time spent in output
/// checks, cut into a warm-up and windows of at least `window_ns`. A window
/// opens and closes on a retire, so it holds a whole number of batches over
/// exactly its span.
struct Meter {
    start: Instant,
    excluded_ns: u64,
    warm_ns: u64,
    window_ns: u64,
    /// When the window being filled opened; `None` until the first retire
    /// after the warm-up.
    open_ns: Option<u64>,
    /// Windows closed so far; `windows[closed]` is being filled.
    closed: usize,
    windows: Vec<Window>,
}

impl Meter {
    fn new(timing: Timing) -> Self {
        // Room for 60 k batches per window second: three times the fastest
        // rate seen on the reference box.
        let cap = (timing.window_s * 60_000.0) as usize + 64;
        Meter {
            start: Instant::now(),
            excluded_ns: 0,
            warm_ns: (timing.warm_s * 1e9) as u64,
            window_ns: (timing.window_s * 1e9) as u64,
            open_ns: None,
            closed: 0,
            windows: (0..timing.windows)
                .map(|_| Window {
                    span_ns: 0,
                    reqs: 0,
                    batch_ns: Vec::with_capacity(cap),
                    submit_ns: Vec::with_capacity(cap),
                    wait_ns: Vec::with_capacity(cap),
                })
                .collect(),
        }
    }

    fn now(&self) -> u64 {
        (self.start.elapsed().as_nanos() as u64).saturating_sub(self.excluded_ns)
    }

    /// Every window has closed — or none has for far too long, which only
    /// failing batches can cause (they retire nothing).
    fn done(&self, now: u64) -> bool {
        self.closed == self.windows.len()
            || now > 2 * (self.warm_ns + self.window_ns * self.windows.len() as u64) + 1_000_000_000
    }

    /// Credits `reqs` retired at `now`; `spans` = (t_submit, t_submitted),
    /// omitted for a batch whose latency an output check disturbed.
    fn retire(&mut self, now: u64, reqs: u64, spans: Option<(u64, u64)>) {
        if now < self.warm_ns {
            return;
        }
        let Some(open) = self.open_ns else {
            self.open_ns = Some(now);
            return;
        };
        let Some(w) = self.windows.get_mut(self.closed) else {
            return;
        };
        w.reqs += reqs;
        if let Some((t0, t1)) = spans {
            if w.batch_ns.len() < w.batch_ns.capacity() {
                w.batch_ns.push(now - t0);
                w.submit_ns.push(t1 - t0);
                w.wait_ns.push(now - t1);
            }
        }
        if now - open >= self.window_ns {
            w.span_ns = now - open;
            self.closed += 1;
            self.open_ns = Some(now);
        }
    }

    /// Takes the time since `since` out of the measurement clock.
    fn exclude(&mut self, since: Instant) {
        self.excluded_ns += since.elapsed().as_nanos() as u64;
    }
}

/// Per-window figures, reduced by the estimators afterwards.
struct WindowStats {
    req_per_s: f64,
    p50_us: f64,
    submit_p50_ns: f64,
    wait_p50_ns: f64,
    samples: usize,
}

/// Reduces a closed window; its batch latencies go to `pooled`, over which
/// the tail percentiles are taken.
fn window_stats(mut w: Window, pooled: &mut Vec<u64>) -> WindowStats {
    let stats = WindowStats {
        req_per_s: w.reqs as f64 / (w.span_ns as f64 * 1e-9),
        p50_us: percentile(&mut w.batch_ns, 0.50) as f64 / 1e3,
        submit_p50_ns: percentile(&mut w.submit_ns, 0.50) as f64,
        wait_p50_ns: percentile(&mut w.wait_ns, 0.50) as f64,
        samples: w.batch_ns.len(),
    };
    pooled.append(&mut w.batch_ns);
    stats
}

/// Operation counts and output-check state of one client loop.
#[derive(Default)]
struct Tally {
    attempted: u64,
    failed: u64,
    checked_blocks: u64,
    problems: Vec<String>,
    wedged: bool,
}

impl Tally {
    /// Books one batch outcome; returns whether it succeeded.
    fn book(&mut self, reqs: u64, result: Result<(), CamError>) -> bool {
        self.attempted += reqs;
        match result {
            Ok(()) => true,
            Err(e) => {
                self.failed += reqs;
                if matches!(e, CamError::SyncTimeout { .. }) {
                    self.wedged = true;
                }
                if self.problems.len() < 8 {
                    self.problems.push(format!("batch failed: {e}"));
                }
                false
            }
        }
    }

    fn check_reads(&mut self, pattern: Pattern, lbas: &[u64], buf: &GpuBuffer, what: &str) {
        let mut block = vec![0u8; BLOCK];
        for (i, &lba) in lbas.iter().enumerate() {
            buf.read(i * BLOCK, &mut block);
            self.checked_blocks += 1;
            if !pattern.matches(lba, &block) && self.problems.len() < 8 {
                self.problems.push(format!(
                    "{what}: block {i} (lba {lba}) does not hold its pattern"
                ));
            }
        }
    }
}

/// Registry reads of an observed context, summed over contexts.
#[derive(Default)]
struct EngineAcc {
    stages: Vec<Histogram>,
    park_ratio: Vec<f64>,
    batches: u64,
    doorbells: u64,
    sqes_rung: u64,
    inflight_peak: u64,
    retries: u64,
    timeouts: u64,
    sqes: u64,
    groups: u64,
    dedup_dropped: u64,
    stripe_splits: u64,
}

impl EngineAcc {
    /// Reads the context's counters; call while the loop has just stopped,
    /// before the context drops.
    fn absorb(&mut self, cam: &CamContext) {
        if self.stages.is_empty() {
            self.stages = Stage::ALL.iter().map(|_| Histogram::new()).collect();
        }
        for (_, stage, hist) in cam.stage_snapshots() {
            if stage == Stage::Dispatch {
                self.groups += hist.count();
            }
            self.stages[stage.index()].merge(&hist);
        }
        let snap = cam.registry().snapshot();
        self.batches += snap.counter("cam_batches_total");
        self.retries += snap.counter("cam_retries_total");
        self.timeouts += snap.counter("cam_cmd_timeouts_total");
        self.dedup_dropped += snap.counter("cam_dedup_dropped_total");
        self.stripe_splits += snap.counter("cam_stripe_splits_total");
        self.sqes += snap.sum_counters("cam_ssd_submitted_total");
        for (name, h) in &snap.histograms {
            if name.starts_with("cam_nvme_doorbell_batch") {
                self.doorbells += h.count;
                self.sqes_rung += h.sum as u64;
            }
        }
        for (name, &v) in &snap.gauges {
            if name.starts_with("cam_inflight_peak") {
                self.inflight_peak = self.inflight_peak.max(v);
            }
        }
        self.park_ratio
            .push(snap.gauge("cam_worker_park_ratio{worker=\"0\"}") as f64 / 1000.0);
    }

    fn report(&self, r: &mut Report) {
        let names = [
            "core.engine.stage_pickup_ns_p50",
            "core.engine.stage_dispatch_ns_p50",
            "core.engine.stage_submit_ns_p50",
            "core.engine.stage_complete_ns_p50",
            "core.engine.stage_retire_ns_p50",
        ];
        for (stage, name) in Stage::ALL.iter().zip(names) {
            r.set(name, self.stages[stage.index()].quantile(0.5) as f64);
        }
        r.set("core.engine.park_ratio", median(&self.park_ratio));
        r.set(
            "core.engine.doorbells_per_batch",
            self.doorbells as f64 / self.batches.max(1) as f64,
        );
        r.set(
            "core.engine.sqes_per_doorbell",
            self.sqes_rung as f64 / self.doorbells.max(1) as f64,
        );
        r.set("core.engine.inflight_peak", self.inflight_peak as f64);
        r.set("core.engine.retries", self.retries as f64);
        r.set("core.engine.timeouts", self.timeouts as f64);
        r.set("protocol.sqes", self.sqes as f64);
        r.set("protocol.groups", self.groups as f64);
        r.set("protocol.dedup_dropped", self.dedup_dropped as f64);
        r.set("protocol.stripe_splits", self.stripe_splits as f64);
    }
}

/// Device-side counters, summed over SSDs and contexts.
#[derive(Default)]
struct DeviceAcc {
    reads: u64,
    writes: u64,
    bytes: u64,
}

impl DeviceAcc {
    fn absorb(&mut self, rig: &Rig) {
        for d in rig.devices() {
            let s = d.stats();
            self.reads += s.reads();
            self.writes += s.writes();
            self.bytes += s.read_bytes() + s.write_bytes();
        }
    }
}

/// Everything one pass (untraced or observed) of a workload measured.
pub struct Pass {
    windows: Vec<WindowStats>,
    /// Every batch latency of the pass, ns: the base of the tail percentiles.
    pooled_ns: Vec<u64>,
    tally: Tally,
    setups: Vec<f64>,
    engine: EngineAcc,
    devices: DeviceAcc,
    cache: Option<CacheFacts>,
    /// `VmHWM` when the last timed window closed, before the replay checks
    /// allocate.
    pub peak_rss_mb: f64,
    kind: Kind,
    timing: Timing,
}

struct CacheFacts {
    hit_rate: f64,
    evictions: u64,
    coalesced: u64,
    accesses: u64,
}

/// How long a pass measures: `contexts` freshly built testbeds (one, except
/// for `ctrl_read`), on each `warm_s` discarded and then `windows` windows
/// of at least `window_s`.
#[derive(Clone, Copy)]
pub struct Timing {
    pub contexts: usize,
    pub warm_s: f64,
    pub window_s: f64,
    pub windows: usize,
}

impl Timing {
    /// The full-length pass for `--seconds s`.
    pub fn full(kind: Kind, s: f64) -> Timing {
        let (contexts, warm_s, timed_s, least_s) = match kind {
            Kind::CtrlRead => {
                let seg = s / CTRL_SEGMENTS as f64;
                (
                    CTRL_SEGMENTS,
                    seg * CTRL_DISCARD,
                    seg * (1.0 - CTRL_DISCARD),
                    CTRL_WINDOW_S,
                )
            }
            _ => (1, s / 20.0, s, WINDOW_S),
        };
        let windows = ((timed_s / least_s) as usize).max(1);
        Timing {
            contexts,
            warm_s,
            window_s: timed_s / windows as f64,
            windows,
        }
    }

    /// Half the timed windows (the traced run's passes).
    pub fn half(self) -> Timing {
        if self.contexts > 1 {
            Timing {
                contexts: self.contexts / 2,
                ..self
            }
        } else {
            Timing {
                windows: (self.windows / 2).max(1),
                warm_s: self.warm_s / 2.0,
                ..self
            }
        }
    }
}

pub fn run_pass(kind: Kind, seed: u64, timing: Timing, observed: bool) -> Pass {
    let pattern = Pattern::new(seed);
    let mut pass = Pass {
        windows: Vec::new(),
        pooled_ns: Vec::new(),
        tally: Tally::default(),
        setups: Vec::new(),
        engine: EngineAcc::default(),
        devices: DeviceAcc::default(),
        cache: None,
        peak_rss_mb: 0.0,
        kind,
        timing,
    };
    if kind == Kind::CtrlRead {
        for seg in 0..timing.contexts {
            let env = build_env(kind, seed, seg as u64, pattern, observed);
            pass.setups.push(env.setup_s);
            let meter = Meter::new(timing);
            let meter = ctrl_read_loop(&env, pattern, meter, &mut pass.tally);
            pass.finish_env(&env, meter, observed);
            if pass.tally.wedged {
                break;
            }
        }
        pass.peak_rss_mb = crate::sys::peak_rss_mb();
        return pass;
    }
    // Set up several times so `setup_s` has samples, then run on the last.
    let repeats = if observed { 1 } else { SETUP_REPEATS };
    let mut env = build_env(kind, seed, 0, pattern, observed);
    pass.setups.push(env.setup_s);
    for _ in 1..repeats {
        drop(env);
        env = build_env(kind, seed, 0, pattern, observed);
        pass.setups.push(env.setup_s);
    }
    let meter = Meter::new(timing);
    let mut issued = 0;
    let meter = match kind {
        Kind::DevRead => dev_read_loop(&env, pattern, meter, &mut pass.tally),
        Kind::RwOverlap => rw_overlap_loop(&env, pattern, meter, &mut pass.tally),
        Kind::CacheZipf => cache_zipf_loop(&env, pattern, meter, &mut pass.tally, &mut issued),
        Kind::CtrlRead => unreachable!("handled above"),
    };
    pass.peak_rss_mb = crate::sys::peak_rss_mb();
    pass.finish_env(&env, meter, observed);
    if let Some(cdev) = &env.cache {
        pass.cache = Some(check_cache_decisions(
            cdev,
            &env.trace,
            issued,
            &mut pass.tally,
        ));
    }
    pass
}

impl Pass {
    fn finish_env(&mut self, env: &Env, meter: Meter, observed: bool) {
        if observed {
            self.engine.absorb(&env.cam);
        }
        self.devices.absorb(&env.rig);
        let closed = meter.closed;
        for w in meter.windows.into_iter().take(closed) {
            self.windows.push(window_stats(w, &mut self.pooled_ns));
        }
    }

    fn values(&self, f: impl Fn(&WindowStats) -> f64) -> Vec<f64> {
        self.windows.iter().map(f).collect()
    }

    /// Throughput as the undisturbed windows show it (`stats::fast_rate`).
    pub fn req_per_s(&self) -> f64 {
        fast_rate(&self.values(|w| w.req_per_s))
    }

    /// A per-window latency median as the undisturbed windows show it
    /// (`stats::fast_time`), over the windows that hold samples.
    fn latency(&self, f: impl Fn(&WindowStats) -> f64) -> f64 {
        let v: Vec<f64> = self
            .windows
            .iter()
            .filter(|w| w.samples > 0)
            .map(f)
            .collect();
        fast_time(&v)
    }

    fn batch_p50_us(&self) -> f64 {
        self.latency(|w| w.p50_us)
    }

    pub fn setup_s(&self) -> f64 {
        fast_time(&self.setups)
    }

    /// End-to-end and `client.*` metrics, counts and problems of an
    /// untraced pass.
    pub fn report_untraced(&self, r: &mut Report) {
        r.attempted += self.tally.attempted;
        r.failed += self.tally.failed;
        for p in &self.tally.problems {
            r.problem(p.clone());
        }
        if self.tally.checked_blocks == 0 {
            r.problem("no read batch was checked against the media pattern".into());
        }
        r.set("req_per_s", self.req_per_s());
        r.set("batch_p50_us", self.batch_p50_us());
        r.set("setup_s", self.setup_s());
        r.set("client.submit_ns_p50", self.latency(|w| w.submit_p50_ns));
        r.set("client.wait_ns_p50", self.latency(|w| w.wait_p50_ns));
        let mut pooled = self.pooled_ns.clone();
        r.set(
            "client.batch_p99_us",
            percentile(&mut pooled, 0.99) as f64 / 1e3,
        );
        r.set(
            "client.batch_p999_us",
            percentile(&mut pooled, 0.999) as f64 / 1e3,
        );
        let rates = self.values(|w| w.req_per_s);
        if self.kind == Kind::CtrlRead {
            let floor = SLOW_WINDOW * self.req_per_s();
            let slow = rates.iter().filter(|&&x| x < floor).count();
            r.set(
                "client.slow_segment_share",
                slow as f64 / rates.len().max(1) as f64,
            );
        }
        if rates.is_empty() {
            r.problem("no timed window closed".into());
        }
        r.note(format!(
            "{} windows of {:.0} ms or more, {} latency samples ({} per window at least), {} blocks checked, set-up x{}",
            rates.len(),
            self.timing.window_s * 1e3,
            pooled.len(),
            self.windows.iter().map(|w| w.samples).min().unwrap_or(0),
            self.tally.checked_blocks,
            self.setups.len()
        ));
        r.note(format!(
            "set-up s: {}",
            self.setups
                .iter()
                .map(|v| format!("{v:.4}"))
                .collect::<Vec<_>>()
                .join(" ")
        ));
        r.note(format!(
            "window req/s min / quartiles / max: {}",
            [0.0, 0.25, 0.5, 0.75, 1.0]
                .iter()
                .map(|&q| format!("{:.0}", quantile(&rates, q)))
                .collect::<Vec<_>>()
                .join(" ")
        ));
    }

    /// Registry and device counts of an observed pass.
    pub fn report_observed(&self, r: &mut Report) {
        for p in &self.tally.problems {
            r.problem(format!("traced pass: {p}"));
        }
        self.engine.report(r);
        r.set("nvme.reads", self.devices.reads as f64);
        r.set("nvme.writes", self.devices.writes as f64);
        r.set("nvme.bytes", self.devices.bytes as f64);
        if let Some(c) = &self.cache {
            r.set("cache.hit_rate", c.hit_rate);
            r.set("cache.evictions", c.evictions as f64);
            r.set("cache.coalesced", c.coalesced as f64);
            r.set(
                "cache.nvme_cmds_per_access",
                self.devices.reads as f64 / c.accesses.max(1) as f64,
            );
        }
    }
}

/// Closed loop, one channel: submit, wait, repeat.
fn ctrl_read_loop(env: &Env, pattern: Pattern, mut meter: Meter, tally: &mut Tally) -> Meter {
    let dev = env.cam.device();
    let buf = env.cam.alloc(BATCH * BLOCK).expect("destination buffer");
    let mut i = 0u64;
    loop {
        let b = &env.trace[i as usize % TRACE_BATCHES];
        let t0 = meter.now();
        if meter.done(t0) {
            break;
        }
        let ticket = dev.submit(0, ChannelOp::Read, &b.reads, buf.addr());
        let t1 = meter.now();
        let result = ticket.and_then(|t| t.wait());
        let t2 = meter.now();
        if tally.book(BATCH as u64, result) {
            meter.retire(t2, BATCH as u64, Some((t0, t1)));
            if i.is_multiple_of(CHECK_EVERY) {
                let since = Instant::now();
                tally.check_reads(pattern, &b.reads, &buf, "ctrl_read");
                meter.exclude(since);
            }
        } else if tally.wedged {
            break;
        }
        i += 1;
    }
    meter
}

struct Inflight {
    ticket: BatchTicket,
    t0: u64,
    t1: u64,
    index: u64,
    /// An output check ran while this batch was in flight: its observed
    /// latency includes the check, so only its requests are counted.
    disturbed: bool,
}

/// One client keeps both read channels in flight (Fig. 7 double-buffered
/// prefetch), polling `is_done` round-robin.
fn dev_read_loop(env: &Env, pattern: Pattern, mut meter: Meter, tally: &mut Tally) -> Meter {
    let dev = env.cam.device();
    let bufs: Vec<GpuBuffer> = (0..2)
        .map(|_| env.cam.alloc(BATCH * BLOCK).expect("destination buffer"))
        .collect();
    let mut inflight: [Option<Inflight>; 2] = [None, None];
    let mut next = 0u64;
    loop {
        let mut progressed = false;
        for ch in 0..2 {
            if let Some(f) = &inflight[ch] {
                let now = meter.now();
                if !f.ticket.is_done() {
                    let waited_ns = now.saturating_sub(f.t0);
                    if waited_ns < SYNC_TIMEOUT_NS {
                        continue;
                    }
                    tally.book(BATCH as u64, Err(CamError::SyncTimeout { waited_ns }));
                    return meter;
                }
                let f = inflight[ch].take().expect("checked above");
                progressed = true;
                // Retired already: `wait` only collects the error count.
                if tally.book(BATCH as u64, f.ticket.wait()) {
                    let spans = (!f.disturbed).then_some((f.t0, f.t1));
                    meter.retire(now, BATCH as u64, spans);
                    if f.index.is_multiple_of(CHECK_EVERY) {
                        let since = Instant::now();
                        let lbas = &env.trace[f.index as usize % TRACE_BATCHES].reads;
                        tally.check_reads(pattern, lbas, &bufs[ch], "dev_read");
                        meter.exclude(since);
                        if let Some(other) = &mut inflight[1 - ch] {
                            other.disturbed = true;
                        }
                    }
                }
            }
            let t0 = meter.now();
            if meter.done(t0) {
                continue;
            }
            let b = &env.trace[next as usize % TRACE_BATCHES];
            match dev.submit(ch, ChannelOp::Read, &b.reads, bufs[ch].addr()) {
                Ok(ticket) => {
                    inflight[ch] = Some(Inflight {
                        ticket,
                        t0,
                        t1: meter.now(),
                        index: next,
                        disturbed: false,
                    });
                }
                Err(e) => {
                    tally.book(BATCH as u64, Err(e));
                }
            }
            next += 1;
            progressed = true;
        }
        if inflight.iter().all(Option::is_none) && meter.done(meter.now()) {
            return meter;
        }
        if !progressed {
            std::thread::yield_now();
        }
    }
}

/// Fig. 7's full loop: a read batch on channel 0 beside a write-back batch
/// on channel 1, both synchronised every iteration.
fn rw_overlap_loop(env: &Env, pattern: Pattern, mut meter: Meter, tally: &mut Tally) -> Meter {
    let dev = env.cam.device();
    let alloc = || env.cam.alloc(BATCH * BLOCK).expect("pinned buffer");
    let (rbuf, wbuf, vbuf) = (alloc(), alloc(), alloc());
    let mut block = vec![0u8; BLOCK];
    for i in 0..BATCH {
        pattern.fill(u64::MAX - i as u64, &mut block);
        wbuf.write(i * BLOCK, &block);
    }
    let mut i = 0u64;
    loop {
        let b = &env.trace[i as usize % TRACE_BATCHES];
        // The "kernel" produces new data each iteration: stamp every block.
        for blk in 0..BATCH {
            wbuf.write(blk * BLOCK, &i.to_le_bytes());
        }
        let t0 = meter.now();
        if meter.done(t0) {
            break;
        }
        let read = dev.submit(0, ChannelOp::Read, &b.reads, rbuf.addr());
        let write = dev.submit(1, ChannelOp::Write, &b.writes, wbuf.addr());
        let t1 = meter.now();
        let read = read.and_then(|t| t.wait());
        let write = write.and_then(|t| t.wait());
        let t2 = meter.now();
        let ok = tally.book(BATCH as u64, read) & tally.book(BATCH as u64, write);
        if ok {
            meter.retire(t2, 2 * BATCH as u64, Some((t0, t1)));
            if i.is_multiple_of(CHECK_EVERY) {
                let since = Instant::now();
                tally.check_reads(pattern, &b.reads, &rbuf, "rw_overlap read");
                // Read back what was just written and compare bytes.
                let back = dev
                    .submit(0, ChannelOp::Read, &b.writes, vbuf.addr())
                    .and_then(|t| t.wait());
                if back.is_err() || vbuf.to_vec() != wbuf.to_vec() {
                    tally.problems.push(format!(
                        "rw_overlap: read-after-write mismatch at iteration {i} ({back:?})"
                    ));
                }
                tally.checked_blocks += BATCH as u64;
                meter.exclude(since);
            }
        } else if tally.wedged {
            break;
        }
        i += 1;
    }
    meter
}

/// `CachedDevice::prefetch` then `prefetch_synchronize`, closed loop.
/// `issued` counts the batches handed to the cache, for the replay check.
fn cache_zipf_loop(
    env: &Env,
    pattern: Pattern,
    mut meter: Meter,
    tally: &mut Tally,
    issued: &mut usize,
) -> Meter {
    let cdev = env
        .cache
        .as_ref()
        .expect("cache_zipf builds a cached device");
    let buf = env.cam.alloc(BATCH * BLOCK).expect("destination buffer");
    loop {
        let b = &env.trace[*issued % TRACE_BATCHES];
        let t0 = meter.now();
        if meter.done(t0) {
            break;
        }
        let sent = cdev.prefetch(&b.reads, buf.addr());
        let t1 = meter.now();
        let result = sent.and_then(|()| cdev.prefetch_synchronize());
        let t2 = meter.now();
        *issued += 1;
        if tally.book(BATCH as u64, result) {
            meter.retire(t2, BATCH as u64, Some((t0, t1)));
            if (*issued as u64 - 1).is_multiple_of(CHECK_EVERY) {
                let since = Instant::now();
                tally.check_reads(pattern, &b.reads, &buf, "cache_zipf");
                meter.exclude(since);
            }
        } else if tally.wedged {
            break;
        }
    }
    meter
}

/// Every decision the cache made must equal a pure replay of the same
/// batches through `CacheCore` (off the timed path).
fn check_cache_decisions(
    cdev: &CachedDevice,
    trace: &[TraceBatch],
    issued: usize,
    tally: &mut Tally,
) -> CacheFacts {
    let got = cdev.decision_counters();
    if tally.failed == 0 {
        let batches: Vec<Vec<u64>> = (0..issued)
            .map(|k| trace[k % TRACE_BATCHES].reads.clone())
            .collect();
        let want = replay_read_workload(cache_config(), ARRAY_BLOCKS, false, &batches);
        if got != want {
            tally.problems.push(format!(
                "cache decisions {got:?} differ from the replay's {want:?}"
            ));
        }
    }
    let accesses = got.hits + got.misses + got.coalesced;
    CacheFacts {
        hit_rate: got.hits as f64 / accesses.max(1) as f64,
        evictions: got.evictions,
        coalesced: got.coalesced,
        accesses,
    }
}
