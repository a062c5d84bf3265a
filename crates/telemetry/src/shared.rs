//! Concurrent histogram recording: the plain [`Histogram`] behind a small
//! set of sharded `parking_lot` locks. Each recording thread hashes to its
//! own shard, so the CPU poller, N workers and device service threads never
//! contend on the hot path; readers merge the shards into one snapshot.

#[cfg(debug_assertions)]
use std::sync::atomic::AtomicU64;
use std::sync::atomic::{AtomicUsize, Ordering};
use std::sync::Arc;

use parking_lot::{Mutex, MutexGuard};

use crate::hist::Histogram;

/// Number of lock shards. Power of two; enough that a poller plus a
/// half-dozen workers land on distinct shards with high probability.
const SHARDS: usize = 8;

static NEXT_SHARD: AtomicUsize = AtomicUsize::new(0);

thread_local! {
    /// Round-robin shard assignment, fixed per thread for its lifetime.
    static MY_SHARD: usize = NEXT_SHARD.fetch_add(1, Ordering::Relaxed) & (SHARDS - 1);
}

/// A histogram safe to record into from many threads concurrently.
pub struct SharedHistogram {
    shards: Vec<Mutex<Histogram>>,
    /// Shard locks taken to record (debug builds only; see
    /// [`HistogramHandle::record_locks`]).
    #[cfg(debug_assertions)]
    record_locks: AtomicU64,
}

impl SharedHistogram {
    /// Creates an empty sharded histogram.
    pub fn new() -> Self {
        SharedHistogram {
            shards: (0..SHARDS).map(|_| Mutex::new(Histogram::new())).collect(),
            #[cfg(debug_assertions)]
            record_locks: AtomicU64::new(0),
        }
    }

    /// Locks the calling thread's shard to record into it.
    fn my_shard(&self) -> MutexGuard<'_, Histogram> {
        #[cfg(debug_assertions)]
        self.record_locks.fetch_add(1, Ordering::Relaxed);
        MY_SHARD.with(|&s| self.shards[s].lock())
    }

    /// Records one sample into the calling thread's shard.
    pub fn record(&self, value: u64) {
        self.my_shard().record(value);
    }

    /// Records `n` samples of `value` ([`Histogram::record_n`]) under one
    /// lock of the calling thread's shard.
    pub fn record_n(&self, value: u64, n: u64) {
        self.my_shard().record_n(value, n);
    }

    /// Merges every shard into one point-in-time [`Histogram`].
    pub fn snapshot(&self) -> Histogram {
        let mut out = Histogram::new();
        for shard in &self.shards {
            out.merge(&shard.lock());
        }
        out
    }

    /// Total samples across all shards.
    pub fn count(&self) -> u64 {
        self.shards.iter().map(|s| s.lock().count()).sum()
    }
}

impl Default for SharedHistogram {
    fn default() -> Self {
        Self::new()
    }
}

/// A cheap cloneable handle to a [`SharedHistogram`] registered in a
/// [`crate::MetricsRegistry`].
#[derive(Clone, Default)]
pub struct HistogramHandle(Arc<SharedHistogram>);

impl HistogramHandle {
    /// Creates a handle to a fresh histogram.
    pub fn new() -> Self {
        Self::default()
    }

    /// Records one sample.
    pub fn record(&self, value: u64) {
        self.0.record(value);
    }

    /// Records `n` samples of `value` under one lock
    /// ([`Histogram::record_n`]).
    pub fn record_n(&self, value: u64, n: u64) {
        self.0.record_n(value, n);
    }

    /// How many times a shard lock was taken to record into this histogram.
    /// Exists only in debug builds, for tests that hold a hot path to a
    /// lock budget (`crates/nvme/tests/clock_budget.rs`).
    #[cfg(debug_assertions)]
    pub fn record_locks(&self) -> u64 {
        self.0.record_locks.load(Ordering::Relaxed)
    }

    /// Point-in-time merged view.
    pub fn snapshot(&self) -> Histogram {
        self.0.snapshot()
    }

    /// Total samples recorded.
    pub fn count(&self) -> u64 {
        self.0.count()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn concurrent_records_all_land() {
        let h = Arc::new(SharedHistogram::new());
        let threads: Vec<_> = (0..8)
            .map(|t| {
                let h = Arc::clone(&h);
                std::thread::spawn(move || {
                    for i in 0..1000u64 {
                        h.record(t * 1000 + i);
                    }
                })
            })
            .collect();
        for t in threads {
            t.join().unwrap();
        }
        let snap = h.snapshot();
        assert_eq!(snap.count(), 8000);
        assert_eq!(snap.min(), 0);
        assert_eq!(snap.max(), 7999);
        assert_eq!(h.count(), 8000);
    }

    #[test]
    fn handle_clones_share_state() {
        let a = HistogramHandle::new();
        let b = a.clone();
        a.record(1);
        b.record(2);
        assert_eq!(a.count(), 2);
        assert_eq!(b.snapshot().max(), 2);
    }
}
