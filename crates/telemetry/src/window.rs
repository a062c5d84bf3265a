//! Rolling-window samplers and SLO burn-rate tracking — the live ops plane.
//!
//! The cumulative registry ([`crate::MetricsRegistry`]) answers "what
//! happened since the process started"; post-mortems and traces answer
//! "what happened around this batch". Neither answers the question a
//! management plane asks while it runs: *what is the p99 / error rate /
//! hit ratio right now?* This module adds bounded-memory rolling windows
//! over the same log-linear [`Histogram`] bins:
//!
//! * [`WindowedHistogram`] — a ring of time-slot histograms merged at query
//!   time. Memory is fixed at `slots × sizeof(Histogram)` (~16 KiB per
//!   slot) no matter how long the process runs.
//! * [`WindowedCounter`] / [`WindowedRatio`] — the counter analogue, for
//!   rates (retries/s) and ratios (cache hit rate) over the window.
//! * [`OpsWindows`] — the keyed bundle the lifecycle tap records into: one
//!   completion-latency window per SSD, one doorbell→retire window per
//!   channel, one window per protocol [`Stage`].
//! * [`SloTracker`] — per-channel latency/error objectives with
//!   multi-window burn-rate computation (Google-SRE-style: observed
//!   violation rate divided by the error budget).
//!
//! **Clock discipline.** Nothing here reads a clock. Every operation takes
//! an explicit `now_ns` on the driver's own timeline — the threaded engine
//! passes the wall-clock telemetry timeline ([`crate::clock::now_ns`]), the
//! DES driver its calendar's virtual time — relayed by the
//! [`LifecycleTap`](crate::LifecycleTap). Window boundaries therefore
//! fall at *identical* timeline offsets in both drivers: slot rollover
//! happens exactly at
//! multiples of `slot_ns` on whichever timeline feeds the window, and a
//! virtual-time window can never leak wall-clock time.
//!
//! Samples timestamped more than a full window in the past (possible when
//! racing threads read the clock before a long preemption) are dropped
//! rather than smeared into the wrong slot — the window only ever reports
//! what happened inside it.

use parking_lot::Mutex;

use crate::hist::Histogram;
use crate::span::Stage;

/// Shape of one rolling window: `slots` ring slots of `slot_ns` each, so
/// the window covers `slot_ns × slots` nanoseconds and a query merges at
/// most `slots` histograms.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct WindowConfig {
    /// Width of one ring slot, nanoseconds. Slot boundaries fall at exact
    /// multiples of this value on the driving timeline.
    pub slot_ns: u64,
    /// Number of ring slots (window length = `slot_ns × slots`).
    pub slots: usize,
}

impl WindowConfig {
    /// A window of `window_ns` split into `slots` equal slots.
    pub fn new(window_ns: u64, slots: usize) -> Self {
        let slots = slots.max(1);
        WindowConfig {
            slot_ns: (window_ns / slots as u64).max(1),
            slots,
        }
    }

    /// Total window length in nanoseconds.
    pub fn window_ns(&self) -> u64 {
        self.slot_ns * self.slots as u64
    }
}

impl Default for WindowConfig {
    /// 2 s window in 8 × 250 ms slots — a dashboard-friendly default on
    /// the wall clock.
    fn default() -> Self {
        WindowConfig {
            slot_ns: 250_000_000,
            slots: 8,
        }
    }
}

/// One ring slot: the epoch (`now_ns / slot_ns`) it currently holds
/// samples for, and those samples.
struct HistSlot {
    epoch: u64,
    hist: Histogram,
}

/// The interior of a [`WindowedHistogram`].
struct HistRing {
    slots: Vec<HistSlot>,
}

/// A bounded-memory rolling-window latency sampler over the log-linear
/// [`Histogram`] bins. See module docs for the clock discipline.
pub struct WindowedHistogram {
    cfg: WindowConfig,
    inner: Mutex<HistRing>,
}

impl WindowedHistogram {
    /// An empty window.
    pub fn new(cfg: WindowConfig) -> Self {
        WindowedHistogram {
            cfg,
            inner: Mutex::new(HistRing {
                slots: (0..cfg.slots)
                    .map(|_| HistSlot {
                        // u64::MAX marks "never used": no real epoch can
                        // reach it (it would need now_ns ≈ u64::MAX).
                        epoch: u64::MAX,
                        hist: Histogram::new(),
                    })
                    .collect(),
            }),
        }
    }

    /// The window shape.
    pub fn config(&self) -> WindowConfig {
        self.cfg
    }

    /// Records `value` at timeline instant `now_ns`.
    pub fn record_at(&self, now_ns: u64, value: u64) {
        let epoch = now_ns / self.cfg.slot_ns;
        let idx = (epoch % self.cfg.slots as u64) as usize;
        let mut ring = self.inner.lock();
        let slot = &mut ring.slots[idx];
        if slot.epoch != epoch {
            if slot.epoch != u64::MAX && epoch < slot.epoch {
                // A sample from more than a full window ago: drop it.
                return;
            }
            slot.epoch = epoch;
            slot.hist = Histogram::new();
        }
        slot.hist.record(value);
    }

    /// Merged histogram of every sample inside the window ending at
    /// `now_ns` (i.e. with epochs in `(now/slot − slots, now/slot]`).
    pub fn merged_at(&self, now_ns: u64) -> Histogram {
        let cur = now_ns / self.cfg.slot_ns;
        let lo = cur.saturating_sub(self.cfg.slots as u64 - 1);
        let mut out = Histogram::new();
        let ring = self.inner.lock();
        for slot in &ring.slots {
            if slot.epoch != u64::MAX && slot.epoch >= lo && slot.epoch <= cur {
                out.merge(&slot.hist);
            }
        }
        out
    }

    /// Samples inside the window ending at `now_ns`.
    pub fn count_at(&self, now_ns: u64) -> u64 {
        self.merged_at(now_ns).count()
    }

    /// Approximate quantile `q` of the window ending at `now_ns` (0 if the
    /// window is empty).
    pub fn quantile_at(&self, now_ns: u64, q: f64) -> u64 {
        self.merged_at(now_ns).quantile(q)
    }
}

impl std::fmt::Debug for WindowedHistogram {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("WindowedHistogram")
            .field("slot_ns", &self.cfg.slot_ns)
            .field("slots", &self.cfg.slots)
            .finish()
    }
}

/// A rolling-window counter: per-slot `(numerator, denominator)` pairs,
/// queried as sums or a ratio over the window. One type serves both plain
/// counts (`den` unused) and ratios (hit rate, violation fraction).
pub struct WindowedCounter {
    cfg: WindowConfig,
    inner: Mutex<Vec<CountSlot>>,
}

struct CountSlot {
    epoch: u64,
    num: u64,
    den: u64,
}

impl WindowedCounter {
    /// An empty window.
    pub fn new(cfg: WindowConfig) -> Self {
        WindowedCounter {
            cfg,
            inner: Mutex::new(
                (0..cfg.slots)
                    .map(|_| CountSlot {
                        epoch: u64::MAX,
                        num: 0,
                        den: 0,
                    })
                    .collect(),
            ),
        }
    }

    /// The window shape.
    pub fn config(&self) -> WindowConfig {
        self.cfg
    }

    /// Adds `num`/`den` deltas at timeline instant `now_ns`.
    pub fn add_at(&self, now_ns: u64, num: u64, den: u64) {
        let epoch = now_ns / self.cfg.slot_ns;
        let idx = (epoch % self.cfg.slots as u64) as usize;
        let mut slots = self.inner.lock();
        let slot = &mut slots[idx];
        if slot.epoch != epoch {
            if slot.epoch != u64::MAX && epoch < slot.epoch {
                return; // more than a window old — see module docs
            }
            slot.epoch = epoch;
            slot.num = 0;
            slot.den = 0;
        }
        slot.num += num;
        slot.den += den;
    }

    /// `(numerator, denominator)` sums over the window ending at `now_ns`.
    pub fn sums_at(&self, now_ns: u64) -> (u64, u64) {
        let cur = now_ns / self.cfg.slot_ns;
        let lo = cur.saturating_sub(self.cfg.slots as u64 - 1);
        let (mut num, mut den) = (0, 0);
        for slot in self.inner.lock().iter() {
            if slot.epoch != u64::MAX && slot.epoch >= lo && slot.epoch <= cur {
                num += slot.num;
                den += slot.den;
            }
        }
        (num, den)
    }

    /// `num / den` over the window ending at `now_ns`; `None` while the
    /// denominator is zero.
    pub fn ratio_at(&self, now_ns: u64) -> Option<f64> {
        let (num, den) = self.sums_at(now_ns);
        (den > 0).then(|| num as f64 / den as f64)
    }
}

impl std::fmt::Debug for WindowedCounter {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("WindowedCounter")
            .field("slot_ns", &self.cfg.slot_ns)
            .field("slots", &self.cfg.slots)
            .finish()
    }
}

/// The keyed rolling-window bundle, one sampler per (ssd | channel |
/// stage) key. Its only writer is the [`LifecycleTap`](crate::LifecycleTap)
/// both the threaded engine and the DES driver report to — each on its own
/// timeline — so every member is fed by either driver under the same
/// rules, and a live view (`repro watch`) and a virtual-time replay expose
/// identical semantics.
#[derive(Debug)]
pub struct OpsWindows {
    cfg: WindowConfig,
    /// Per-SSD completion-phase latency (doorbell rung → last CQE).
    pub ssd_complete: Vec<WindowedHistogram>,
    /// Per-SSD retries inside the window (numerator; denominator counts
    /// completed groups, giving a windowed retry *rate*).
    pub ssd_retries: Vec<WindowedCounter>,
    /// Per-channel doorbell→retire latency.
    pub channel_batch: Vec<WindowedHistogram>,
    /// Per-protocol-stage latency, indexed by [`Stage::index`].
    pub stage: Vec<WindowedHistogram>,
}

impl OpsWindows {
    /// Windows for `n_ssds` lanes and `n_channels` channels.
    pub fn new(cfg: WindowConfig, n_ssds: usize, n_channels: usize) -> Self {
        OpsWindows {
            cfg,
            ssd_complete: (0..n_ssds).map(|_| WindowedHistogram::new(cfg)).collect(),
            ssd_retries: (0..n_ssds).map(|_| WindowedCounter::new(cfg)).collect(),
            channel_batch: (0..n_channels)
                .map(|_| WindowedHistogram::new(cfg))
                .collect(),
            stage: Stage::ALL
                .iter()
                .map(|_| WindowedHistogram::new(cfg))
                .collect(),
        }
    }

    /// The window shape shared by every sampler in the bundle.
    pub fn config(&self) -> WindowConfig {
        self.cfg
    }

    /// The sampler for one protocol stage.
    pub fn stage(&self, s: Stage) -> &WindowedHistogram {
        &self.stage[s.index()]
    }
}

/// Per-channel service-level objective and the windows burn rate is
/// computed over.
#[derive(Clone, Copy, Debug)]
pub struct SloConfig {
    /// A batch retiring later than this violates the objective.
    pub latency_target_ns: u64,
    /// Tolerated violation fraction (e.g. `0.01` = 1% of batches may miss
    /// the target). Burn rate 1.0 means violations arrive exactly at
    /// budget speed.
    pub error_budget: f64,
    /// Fast-reacting window (paging-grade signal).
    pub short: WindowConfig,
    /// Slow window (sustained-burn confirmation).
    pub long: WindowConfig,
}

impl Default for SloConfig {
    /// 10 ms doorbell→retire target, 1% budget, 2 s / 16 s windows.
    fn default() -> Self {
        SloConfig {
            latency_target_ns: 10_000_000,
            error_budget: 0.01,
            short: WindowConfig::default(),
            long: WindowConfig {
                slot_ns: 2_000_000_000,
                slots: 8,
            },
        }
    }
}

/// Burn rates over the tracker's two windows.
#[derive(Clone, Copy, Debug, Default, PartialEq)]
pub struct SloBurn {
    /// Burn over the short window.
    pub short: f64,
    /// Burn over the long window.
    pub long: f64,
}

impl SloBurn {
    /// The more alarming of the two (multi-window alerting policies fire
    /// when *both* exceed a threshold; dashboards show the max).
    pub fn max(&self) -> f64 {
        if self.short > self.long {
            self.short
        } else {
            self.long
        }
    }
}

/// Per-channel SLO accounting: every retired batch is *good* (met the
/// latency target, no command errors) or *bad*, and
///
/// ```text
/// burn(window) = (bad / total over window) / error_budget
/// ```
///
/// Burn > 1 means the channel is consuming error budget faster than the
/// objective allows. Like the samplers, the tracker never reads a clock —
/// both drivers feed it their own `now_ns`.
pub struct SloTracker {
    cfg: SloConfig,
    channels: Vec<ChannelSlo>,
}

struct ChannelSlo {
    short: WindowedCounter,
    long: WindowedCounter,
}

impl SloTracker {
    /// A tracker for `n_channels` channels sharing one objective.
    pub fn new(cfg: SloConfig, n_channels: usize) -> Self {
        SloTracker {
            cfg,
            channels: (0..n_channels)
                .map(|_| ChannelSlo {
                    short: WindowedCounter::new(cfg.short),
                    long: WindowedCounter::new(cfg.long),
                })
                .collect(),
        }
    }

    /// The objective.
    pub fn config(&self) -> SloConfig {
        self.cfg
    }

    /// Channels tracked.
    pub fn n_channels(&self) -> usize {
        self.channels.len()
    }

    /// Records one retired batch: `latency_ns` doorbell→retire, `errors`
    /// failed commands, at timeline instant `now_ns`.
    pub fn record(&self, channel: usize, latency_ns: u64, errors: u64, now_ns: u64) {
        let bad = u64::from(latency_ns > self.cfg.latency_target_ns || errors > 0);
        let ch = &self.channels[channel];
        ch.short.add_at(now_ns, bad, 1);
        ch.long.add_at(now_ns, bad, 1);
    }

    /// Burn rates for `channel` over both windows at `now_ns` (0 while a
    /// window has no samples).
    pub fn burn_rate(&self, channel: usize, now_ns: u64) -> SloBurn {
        let ch = &self.channels[channel];
        let burn = |w: &WindowedCounter| {
            w.ratio_at(now_ns)
                .map_or(0.0, |frac| frac / self.cfg.error_budget.max(f64::EPSILON))
        };
        SloBurn {
            short: burn(&ch.short),
            long: burn(&ch.long),
        }
    }
}

impl std::fmt::Debug for SloTracker {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("SloTracker")
            .field("cfg", &self.cfg)
            .field("n_channels", &self.channels.len())
            .finish()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn cfg(slot_ns: u64, slots: usize) -> WindowConfig {
        WindowConfig { slot_ns, slots }
    }

    #[test]
    fn window_forgets_samples_older_than_the_window() {
        let w = WindowedHistogram::new(cfg(100, 4));
        w.record_at(0, 7);
        // In-window while now < (0/100 + 4) * 100.
        assert_eq!(w.count_at(0), 1);
        assert_eq!(w.count_at(399), 1);
        // Exactly at the boundary the slot ages out.
        assert_eq!(w.count_at(400), 0);
    }

    #[test]
    fn slot_reuse_resets_stale_epochs() {
        let w = WindowedHistogram::new(cfg(100, 4));
        w.record_at(50, 10); // epoch 0, slot 0
        w.record_at(450, 20); // epoch 4 → reuses slot 0
        let m = w.merged_at(450);
        assert_eq!(m.count(), 1);
        assert_eq!(m.max(), 20, "old epoch's samples are gone");
    }

    #[test]
    fn late_samples_beyond_a_window_are_dropped() {
        let w = WindowedHistogram::new(cfg(100, 4));
        w.record_at(450, 20); // slot 0 now holds epoch 4
        w.record_at(10, 99); // epoch 0 — a full ring behind; dropped
        assert_eq!(w.merged_at(450).count(), 1);
        assert_eq!(w.merged_at(450).max(), 20);
    }

    #[test]
    fn merged_quantiles_match_a_plain_histogram() {
        let w = WindowedHistogram::new(cfg(1_000, 8));
        let mut exact = Histogram::new();
        for i in 0..500u64 {
            w.record_at(i * 10, 1_000 + i * 13);
            exact.record(1_000 + i * 13);
        }
        let now = 499 * 10;
        for q in [0.5, 0.9, 0.99] {
            assert_eq!(w.quantile_at(now, q), exact.quantile(q), "q = {q}");
        }
        assert_eq!(w.count_at(now), exact.count());
    }

    #[test]
    fn counter_window_sums_and_ratio() {
        let c = WindowedCounter::new(cfg(100, 4));
        c.add_at(0, 1, 2);
        c.add_at(150, 3, 4);
        assert_eq!(c.sums_at(150), (4, 6));
        assert_eq!(c.ratio_at(150), Some(4.0 / 6.0));
        // First slot ages out at 400.
        assert_eq!(c.sums_at(400), (3, 4));
        // Everything ages out eventually.
        assert_eq!(c.sums_at(10_000), (0, 0));
        assert_eq!(c.ratio_at(10_000), None);
    }

    #[test]
    fn ops_windows_are_keyed_per_ssd_channel_stage() {
        let w = OpsWindows::new(cfg(100, 4), 2, 3);
        assert_eq!(w.ssd_complete.len(), 2);
        assert_eq!(w.ssd_retries.len(), 2);
        assert_eq!(w.channel_batch.len(), 3);
        assert_eq!(w.stage.len(), Stage::ALL.len());
        w.stage(Stage::Submit).record_at(5, 42);
        assert_eq!(w.stage(Stage::Submit).count_at(5), 1);
        assert_eq!(w.stage(Stage::Complete).count_at(5), 0);
    }

    #[test]
    fn burn_rate_is_violation_fraction_over_budget() {
        let slo = SloConfig {
            latency_target_ns: 1_000,
            error_budget: 0.1,
            short: cfg(100, 4),
            long: cfg(1_000, 4),
        };
        let t = SloTracker::new(slo, 2);
        // Channel 0: 2 violations in 10 batches → frac 0.2 → burn 2.0.
        for i in 0..10u64 {
            let latency = if i < 2 { 5_000 } else { 10 };
            t.record(0, latency, 0, i);
        }
        let b = t.burn_rate(0, 9);
        assert!((b.short - 2.0).abs() < 1e-9, "short = {}", b.short);
        assert!((b.long - 2.0).abs() < 1e-9);
        assert_eq!(b.max(), b.short);
        // Command errors violate too, even under the latency target.
        t.record(1, 10, 3, 0);
        assert!(t.burn_rate(1, 0).short > 1.0);
        // Quiet channel burns nothing.
        assert_eq!(t.burn_rate(0, 1_000_000).short, 0.0);
    }

    #[test]
    fn short_and_long_windows_diverge_after_a_burst() {
        let slo = SloConfig {
            latency_target_ns: 100,
            error_budget: 0.5,
            short: cfg(100, 2),  // 200 ns window
            long: cfg(1_000, 2), // 2000 ns window
        };
        let t = SloTracker::new(slo, 1);
        // A violation burst at t≈0, then healthy traffic later.
        for i in 0..4u64 {
            t.record(0, 1_000, 0, i);
        }
        for i in 0..4u64 {
            t.record(0, 10, 0, 500 + i);
        }
        let b = t.burn_rate(0, 600);
        assert_eq!(b.short, 0.0, "burst left the short window");
        assert!(b.long > 0.0, "long window still remembers it");
    }
}
