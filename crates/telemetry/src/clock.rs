//! The shared monotonic clock: every span timestamp in the process is
//! nanoseconds since one lazily-anchored [`Instant`], so timestamps taken on
//! different threads (GPU doorbell writer, CPU poller, workers, device
//! service threads) are directly comparable.

#[cfg(debug_assertions)]
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::OnceLock;
use std::time::Instant;

static EPOCH: OnceLock<Instant> = OnceLock::new();

#[cfg(debug_assertions)]
static READS: AtomicU64 = AtomicU64::new(0);

/// The process-wide telemetry epoch. Anchored on first use.
pub fn epoch() -> Instant {
    *EPOCH.get_or_init(Instant::now)
}

/// Monotonic nanoseconds since [`epoch`].
pub fn now_ns() -> u64 {
    #[cfg(debug_assertions)]
    READS.fetch_add(1, Ordering::Relaxed);
    epoch().elapsed().as_nanos() as u64
}

/// Process-wide number of [`now_ns`] calls so far. Exists only in debug
/// builds (release builds compile no counter), for tests that hold a hot
/// path to a clock-read budget (`crates/nvme/tests/clock_budget.rs`).
#[cfg(debug_assertions)]
pub fn reads() -> u64 {
    READS.load(Ordering::Relaxed)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn clock_is_monotone() {
        let a = now_ns();
        let b = now_ns();
        assert!(b >= a);
    }

    #[test]
    fn epoch_is_stable() {
        assert_eq!(epoch(), epoch());
    }
}
