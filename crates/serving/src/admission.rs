//! Per-tenant token-bucket admission.
//!
//! Cost is measured in KV *blocks* (reads + writes a step implies), so a
//! tenant's rate limit is a paging-bandwidth budget, not a request count.
//! Like everything in this crate the bucket is clock-agnostic: callers
//! pass the timeline instant explicitly, so the same code meters wall time
//! under the threaded driver and virtual time under the DES.

/// Token-bucket parameters.
#[derive(Clone, Copy, Debug)]
pub struct AdmissionConfig {
    /// Sustained refill rate, KV blocks per second.
    pub rate_blocks_per_s: f64,
    /// Bucket capacity — the largest burst admitted at once, blocks.
    pub burst_blocks: f64,
}

impl Default for AdmissionConfig {
    fn default() -> Self {
        AdmissionConfig {
            rate_blocks_per_s: 100_000.0,
            burst_blocks: 256.0,
        }
    }
}

/// A classic token bucket on an explicit nanosecond timeline.
#[derive(Debug)]
pub struct TokenBucket {
    cfg: AdmissionConfig,
    tokens: f64,
    last_ns: u64,
}

impl TokenBucket {
    /// A bucket that starts full.
    pub fn new(cfg: AdmissionConfig) -> Self {
        TokenBucket {
            tokens: cfg.burst_blocks,
            cfg,
            last_ns: 0,
        }
    }

    fn refill(&mut self, now_ns: u64) {
        let dt = now_ns.saturating_sub(self.last_ns);
        if dt > 0 {
            self.tokens = (self.tokens + dt as f64 * 1e-9 * self.cfg.rate_blocks_per_s)
                .min(self.cfg.burst_blocks);
            self.last_ns = now_ns;
        }
    }

    /// Admits `cost` blocks at `now_ns` if the bucket holds enough tokens.
    /// A cost above the burst capacity is clamped to it — an oversized step
    /// admits once the bucket is full rather than never.
    pub fn try_take(&mut self, now_ns: u64, cost: f64) -> bool {
        self.refill(now_ns);
        let cost = cost.min(self.cfg.burst_blocks);
        if self.tokens + 1e-9 >= cost {
            self.tokens -= cost;
            true
        } else {
            false
        }
    }

    /// Earliest instant at which `try_take(_, cost)` could succeed, given
    /// the balance left by the last call; `u64::MAX` when it never will (a
    /// zero rate, or a refill so slow the instant is past the end of the
    /// timeline). Used to arm the DES wake-up timer when every tenant is
    /// admission-stalled.
    pub fn ready_at(&self, cost: f64) -> u64 {
        let cost = cost.min(self.cfg.burst_blocks);
        let deficit = cost - self.tokens;
        if deficit <= 0.0 {
            return self.last_ns;
        }
        // The float-to-int cast saturates, so an infinite wait is u64::MAX.
        let wait_ns = (deficit / self.cfg.rate_blocks_per_s * 1e9).ceil() as u64;
        self.last_ns.saturating_add(wait_ns.max(1))
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn bucket(rate: f64, burst: f64) -> TokenBucket {
        TokenBucket::new(AdmissionConfig {
            rate_blocks_per_s: rate,
            burst_blocks: burst,
        })
    }

    #[test]
    fn starts_full_then_meters_at_rate() {
        // 1000 blocks/s, burst 10: the initial burst admits 10, then one
        // block per millisecond.
        let mut b = bucket(1000.0, 10.0);
        assert!(b.try_take(0, 10.0));
        assert!(!b.try_take(0, 1.0));
        let t = b.ready_at(1.0);
        assert!((900_000..=1_100_000).contains(&t), "ready_at = {t}");
        assert!(!b.try_take(t - 500_000, 1.0));
        assert!(b.try_take(t, 1.0));
    }

    #[test]
    fn refill_caps_at_burst_and_oversize_clamps() {
        let mut b = bucket(1_000_000.0, 4.0);
        assert!(b.try_take(0, 4.0));
        // A long idle period refills to burst, not beyond.
        b.refill(1_000_000_000);
        assert!(b.tokens <= 4.0 + 1e-9);
        // A 100-block step clamps to the 4-block burst: admits when full.
        assert!(b.try_take(1_000_000_000, 100.0));
        assert!(b.tokens < 1.0);
    }

    #[test]
    fn zero_or_tiny_rate_is_never_ready_instead_of_overflowing() {
        for rate in [0.0, 1e-12] {
            let mut b = bucket(rate, 4.0);
            assert!(b.try_take(1_000, 4.0), "the initial burst still admits");
            assert!(!b.try_take(2_000, 1.0));
            assert_eq!(b.ready_at(1.0), u64::MAX, "rate {rate}");
        }
    }

    #[test]
    fn ready_at_never_moves_backwards_in_need() {
        let mut b = bucket(500.0, 8.0);
        assert!(b.try_take(0, 8.0));
        assert!(b.ready_at(4.0) < b.ready_at(8.0));
    }
}
