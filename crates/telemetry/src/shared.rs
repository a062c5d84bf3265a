//! Concurrent histogram recording: the plain [`Histogram`] behind a small
//! set of sharded `parking_lot` locks. Each recording thread hashes to its
//! own shard, so the CPU poller, N workers and device service threads never
//! contend on the hot path; readers merge the shards into one snapshot. A
//! shard's buckets are allocated by its first record, so a histogram costs
//! memory only for the shards its recording threads use.
//!
//! A thread that records on every batch can do without the lock: while it
//! holds a [`ShardClaim`], its records into any histogram land in that
//! histogram's *owned* shard for the claim's slot. Only the claimant writes
//! an owned shard, so it records with plain atomic loads and stores — no
//! lock and no read-modify-write — and readers merge it like the others.

use std::cell::Cell;
use std::marker::PhantomData;
use std::sync::atomic::{AtomicU32, AtomicU64, AtomicUsize, Ordering};
use std::sync::{Arc, OnceLock};

use parking_lot::{Mutex, MutexGuard};

use crate::hist::Histogram;

/// Number of lock shards. Power of two; enough that a poller plus a
/// half-dozen workers land on distinct shards with high probability.
const SHARDS: usize = 8;

/// Owned-shard slots: how many threads can hold a [`ShardClaim`] at once.
const OWNED: usize = 32;

static NEXT_SHARD: AtomicUsize = AtomicUsize::new(0);

/// Claimed owned-shard slots, one bit each.
static CLAIMED: AtomicU32 = AtomicU32::new(0);

thread_local! {
    /// The shard this thread records into: a lock shard, assigned round
    /// robin and fixed for the thread's lifetime, or — while the thread
    /// holds a [`ShardClaim`] — `SHARDS` + its owned slot.
    static MY_SHARD: Cell<usize> =
        Cell::new(NEXT_SHARD.fetch_add(1, Ordering::Relaxed) & (SHARDS - 1));
}

/// The calling thread's lock-free owned shard of every histogram, for as
/// long as the claim lives (module docs). A claim belongs to the thread
/// that made it, so it is neither `Send` nor `Sync`.
pub struct ShardClaim {
    slot: usize,
    /// The thread's lock shard, restored when the claim ends.
    locked: usize,
    _thread: PhantomData<*const ()>,
}

impl ShardClaim {
    /// Claims a free owned-shard slot for the calling thread. `None` when
    /// every slot is held or the thread already holds one: the thread then
    /// keeps recording through its lock shard, which is only slower.
    #[must_use = "the claim ends when it is dropped"]
    pub fn claim() -> Option<Self> {
        let locked = MY_SHARD.with(Cell::get);
        if locked >= SHARDS {
            return None;
        }
        let mut bits = CLAIMED.load(Ordering::Relaxed);
        loop {
            let slot = (!bits).trailing_zeros() as usize;
            if slot >= OWNED {
                return None;
            }
            // Acquire: the slot's previous claimant released it after its
            // last store into the owned shards this claim now continues.
            match CLAIMED.compare_exchange_weak(
                bits,
                bits | 1 << slot,
                Ordering::Acquire,
                Ordering::Relaxed,
            ) {
                Ok(_) => {
                    MY_SHARD.with(|s| s.set(SHARDS + slot));
                    return Some(ShardClaim {
                        slot,
                        locked,
                        _thread: PhantomData,
                    });
                }
                Err(now) => bits = now,
            }
        }
    }
}

impl Drop for ShardClaim {
    fn drop(&mut self) {
        MY_SHARD.with(|s| s.set(self.locked));
        CLAIMED.fetch_and(!(1 << self.slot), Ordering::Release);
    }
}

/// Adds `n` to a counter only its owner thread writes: a plain load and
/// store, no read-modify-write.
fn bump(counter: &AtomicU64, n: u64) {
    counter.store(counter.load(Ordering::Relaxed) + n, Ordering::Relaxed);
}

/// One claimant's shard of a histogram: [`Histogram`]'s fields as atomics.
/// It is made whole when the claimant first records into the histogram, so
/// a later record never allocates.
struct OwnedShard {
    buckets: Box<[AtomicU64; Histogram::BUCKETS]>,
    /// Samples recorded. Stored last, with release, so a reader that loads
    /// it (with acquire) sees every bucket, sum, min and max it counts.
    count: AtomicU64,
    /// The sum's low and high words.
    sum: [AtomicU64; 2],
    min: AtomicU64,
    max: AtomicU64,
}

impl OwnedShard {
    fn new() -> Self {
        OwnedShard {
            buckets: Box::new([const { AtomicU64::new(0) }; Histogram::BUCKETS]),
            count: AtomicU64::new(0),
            sum: [AtomicU64::new(0), AtomicU64::new(0)],
            min: AtomicU64::new(u64::MAX),
            max: AtomicU64::new(0),
        }
    }

    fn sum(&self) -> u128 {
        let [lo, hi] = &self.sum;
        u128::from(hi.load(Ordering::Relaxed)) << 64 | u128::from(lo.load(Ordering::Relaxed))
    }

    /// [`Histogram::record_n`], by the claimant only.
    fn record_n(&self, value: u64, n: u64) {
        if n == 0 {
            return;
        }
        bump(&self.buckets[Histogram::index(value)], n);
        let sum = self.sum() + u128::from(value) * u128::from(n);
        self.sum[0].store(sum as u64, Ordering::Relaxed);
        self.sum[1].store((sum >> 64) as u64, Ordering::Relaxed);
        if value < self.min.load(Ordering::Relaxed) {
            self.min.store(value, Ordering::Relaxed);
        }
        if value > self.max.load(Ordering::Relaxed) {
            self.max.store(value, Ordering::Relaxed);
        }
        let count = self.count.load(Ordering::Relaxed);
        self.count.store(count + n, Ordering::Release);
    }

    /// Adds this shard's samples to `h`.
    fn merge_into(&self, h: &mut Histogram) {
        let count = self.count.load(Ordering::Acquire);
        for (i, bucket) in self.buckets.iter().enumerate() {
            let n = bucket.load(Ordering::Relaxed);
            if n > 0 {
                h.add_to_bucket(i, n);
            }
        }
        h.add_totals(
            count,
            self.sum(),
            self.min.load(Ordering::Relaxed),
            self.max.load(Ordering::Relaxed),
        );
    }
}

/// A histogram safe to record into from many threads concurrently.
pub struct SharedHistogram {
    /// Lock shards, each made by its first record.
    shards: [OnceLock<Mutex<Histogram>>; SHARDS],
    /// One lock-free shard per claimable slot, made by its first record.
    owned: [OnceLock<Box<OwnedShard>>; OWNED],
    /// Shard locks taken to record (debug builds only; see
    /// [`HistogramHandle::record_locks`]).
    #[cfg(debug_assertions)]
    record_locks: AtomicU64,
}

impl SharedHistogram {
    /// Creates an empty sharded histogram.
    pub fn new() -> Self {
        SharedHistogram {
            shards: std::array::from_fn(|_| OnceLock::new()),
            owned: std::array::from_fn(|_| OnceLock::new()),
            #[cfg(debug_assertions)]
            record_locks: AtomicU64::new(0),
        }
    }

    /// Locks lock shard `s` to record into it.
    fn lock_shard(&self, s: usize) -> MutexGuard<'_, Histogram> {
        #[cfg(debug_assertions)]
        self.record_locks.fetch_add(1, Ordering::Relaxed);
        self.shards[s]
            .get_or_init(|| Mutex::new(Histogram::new()))
            .lock()
    }

    /// The owned shard of slot `slot`, made on first use.
    fn owned_shard(&self, slot: usize) -> &OwnedShard {
        self.owned[slot].get_or_init(|| Box::new(OwnedShard::new()))
    }

    /// Records one sample into the calling thread's shard.
    pub fn record(&self, value: u64) {
        match MY_SHARD.with(Cell::get) {
            s if s < SHARDS => self.lock_shard(s).record(value),
            s => self.owned_shard(s - SHARDS).record_n(value, 1),
        }
    }

    /// Records `n` samples of `value` ([`Histogram::record_n`]) with one
    /// update of the calling thread's shard (under one lock, for a lock
    /// shard).
    pub fn record_n(&self, value: u64, n: u64) {
        match MY_SHARD.with(Cell::get) {
            s if s < SHARDS => self.lock_shard(s).record_n(value, n),
            s => self.owned_shard(s - SHARDS).record_n(value, n),
        }
    }

    /// Merges every shard into one point-in-time [`Histogram`].
    pub fn snapshot(&self) -> Histogram {
        let mut out = Histogram::new();
        for shard in self.shards.iter().filter_map(OnceLock::get) {
            out.merge(&shard.lock());
        }
        for shard in self.owned.iter().filter_map(OnceLock::get) {
            shard.merge_into(&mut out);
        }
        out
    }

    /// Total samples across all shards.
    pub fn count(&self) -> u64 {
        let locked: u64 = self
            .shards
            .iter()
            .filter_map(OnceLock::get)
            .map(|s| s.lock().count())
            .sum();
        let owned: u64 = self
            .owned
            .iter()
            .filter_map(OnceLock::get)
            .map(|s| s.count.load(Ordering::Acquire))
            .sum();
        locked + owned
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

    /// How many times a shard lock was taken to record into this histogram
    /// (a thread holding a [`ShardClaim`] takes none). Exists only in debug
    /// builds, for tests that hold a hot path to a lock budget
    /// (`crates/nvme/tests/clock_budget.rs`, `crates/core/tests/op_budget.rs`).
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
    fn claimed_threads_record_without_a_lock_and_readers_see_every_sample() {
        let h = HistogramHandle::new();
        h.record(5);
        #[cfg(debug_assertions)]
        assert_eq!(h.record_locks(), 1, "an unclaimed thread locks its shard");
        std::thread::scope(|s| {
            for t in 0..4u64 {
                let h = h.clone();
                s.spawn(move || {
                    let claim = ShardClaim::claim().expect("a free slot");
                    assert!(ShardClaim::claim().is_none(), "one claim per thread");
                    for i in 0..1000u64 {
                        h.record(t * 1_000_000 + i);
                    }
                    h.record_n(7, 3);
                    h.record_n(7, 0);
                    drop(claim);
                    // The claim is over: back to the lock shard.
                    h.record(1);
                });
            }
        });
        #[cfg(debug_assertions)]
        assert_eq!(h.record_locks(), 1 + 4, "claimed records take no lock");
        let mut want = Histogram::new();
        want.record(5);
        for t in 0..4u64 {
            for i in 0..1000u64 {
                want.record(t * 1_000_000 + i);
            }
            want.record_n(7, 3);
            want.record(1);
        }
        let got = h.snapshot();
        assert_eq!(h.count(), want.count());
        assert_eq!(
            (got.count(), got.sum(), got.min(), got.max()),
            (want.count(), want.sum(), want.min(), want.max())
        );
        assert_eq!(got.bins(), want.bins());
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
