//! Concurrency tests for [`BlockCache`]: refcount pinning vs. the CLOCK
//! hand, and in-flight miss coalescing under thread contention.

use std::sync::atomic::{AtomicUsize, Ordering};
use std::sync::{Arc, Barrier};
use std::thread;
use std::time::Duration;

use cam_cache::{BlockCache, CacheConfig, Lookup};
use cam_gpu::GpuMemory;
use cam_telemetry::MetricsRegistry;

const BS: u32 = 4096;

fn cache(slots: usize, shards: usize) -> (BlockCache, Arc<MetricsRegistry>) {
    let mem = GpuMemory::new(0x4000_0000, (slots + 1) * BS as usize);
    let buf = mem.alloc(slots * BS as usize).unwrap();
    let reg = Arc::new(MetricsRegistry::new());
    let cfg = CacheConfig {
        slots,
        shards,
        ..CacheConfig::default()
    };
    (BlockCache::new(buf, BS, cfg, &reg, None), reg)
}

/// Fills `lba` as resident (the plain demand path) and returns its pin.
fn insert(c: &BlockCache, lba: u64) -> cam_cache::SlotPin {
    match c.lookup(lba) {
        Lookup::Miss(t) => t.complete(false),
        other => panic!("expected miss for fresh lba {lba}, got {}", variant(&other)),
    }
}

fn variant(l: &Lookup) -> &'static str {
    match l {
        Lookup::Hit(_) => "Hit",
        Lookup::Miss(_) => "Miss",
        Lookup::InFlight(_) => "InFlight",
        Lookup::NeedFlush => "NeedFlush",
        Lookup::Busy => "Busy",
    }
}

#[test]
fn pinned_blocks_survive_eviction_pressure() {
    // One shard, four slots: every insertion fights over the same CLOCK
    // hand. A held pin must never be evicted no matter the pressure.
    let (c, _reg) = cache(4, 1);
    let pinned = insert(&c, 7);
    let addr = pinned.addr();

    // Churn far more distinct LBAs through the shard than it has slots.
    for lba in 100..200u64 {
        match c.lookup(lba) {
            Lookup::Miss(t) => drop(t.complete(false)),
            Lookup::Busy => {} // only the pinned slot left: acceptable
            other => panic!("unexpected {} for lba {lba}", variant(&other)),
        }
    }

    // The pinned block is still resident at the same address.
    match c.lookup(7) {
        Lookup::Hit(p) => assert_eq!(p.addr(), addr),
        other => panic!("pinned block evicted: {}", variant(&other)),
    }
    drop(pinned);
}

#[test]
fn pin_vs_evict_race_under_threads() {
    // Readers continuously pin/unpin a hot set while a writer thread churns
    // cold LBAs that force evictions through the same shards. Every hit must
    // return the address the hot LBA was originally filled at (slots are
    // immobile while pinned), and nothing may deadlock or panic.
    let (c, _reg) = cache(16, 2);
    let hot: Vec<u64> = (0..4).collect();
    let mut hot_addr = std::collections::HashMap::new();
    for &lba in &hot {
        let pin = insert(&c, lba);
        hot_addr.insert(lba, pin.addr());
        // Drop the pin: residency is kept alive by reader re-pins below.
    }
    let hot_addr = Arc::new(hot_addr);
    let barrier = Arc::new(Barrier::new(3));
    let evicted_hot = Arc::new(AtomicUsize::new(0));

    let mut handles = Vec::new();
    for r in 0..2 {
        let c = c.clone();
        let hot = hot.clone();
        let hot_addr = Arc::clone(&hot_addr);
        let barrier = Arc::clone(&barrier);
        let evicted_hot = Arc::clone(&evicted_hot);
        handles.push(thread::spawn(move || {
            barrier.wait();
            for i in 0..2000usize {
                let lba = hot[(i + r) % hot.len()];
                match c.lookup(lba) {
                    Lookup::Hit(p) => {
                        // While pinned the address must be the original.
                        assert_eq!(p.addr(), hot_addr[&lba], "hot lba {lba} moved while pinned");
                    }
                    Lookup::Miss(t) => {
                        // The churn thread managed to evict it between our
                        // accesses — legal (the pin was dropped). Re-insert.
                        evicted_hot.fetch_add(1, Ordering::Relaxed);
                        drop(t);
                    }
                    Lookup::InFlight(w) => drop(w),
                    Lookup::NeedFlush | Lookup::Busy => {}
                }
            }
        }));
    }
    {
        let c = c.clone();
        let barrier = Arc::clone(&barrier);
        handles.push(thread::spawn(move || {
            barrier.wait();
            for lba in 0..4000u64 {
                match c.lookup(1000 + lba) {
                    Lookup::Miss(t) => drop(t.complete(false)),
                    Lookup::Busy | Lookup::NeedFlush => {}
                    Lookup::Hit(p) => drop(p),
                    Lookup::InFlight(w) => drop(w),
                }
            }
        }));
    }
    for h in handles {
        h.join().unwrap();
    }
    // Sanity: the cache is still coherent — a fresh insert works.
    drop(insert(&c, 9999));
}

#[test]
fn concurrent_misses_coalesce_to_one_fill() {
    // N threads race a lookup for the same absent LBA: exactly one must get
    // the fill ticket, everyone else a waiter that resolves to the same slot.
    let n = 8;
    let (c, _reg) = cache(32, 4);
    let barrier = Arc::new(Barrier::new(n));
    let fill_owners = Arc::new(AtomicUsize::new(0));
    let handles: Vec<_> = (0..n)
        .map(|_| {
            let c = c.clone();
            let barrier = Arc::clone(&barrier);
            let fill_owners = Arc::clone(&fill_owners);
            thread::spawn(move || {
                barrier.wait();
                match c.lookup(42) {
                    Lookup::Miss(t) => {
                        fill_owners.fetch_add(1, Ordering::SeqCst);
                        // Simulate the NVMe fill latency while waiters queue.
                        thread::sleep(Duration::from_millis(20));
                        let pin = t.complete(false);
                        pin.addr()
                    }
                    Lookup::InFlight(w) => {
                        let pin = w.wait().expect("fill completed, not aborted");
                        pin.addr()
                    }
                    Lookup::Hit(p) => p.addr(), // raced past completion: fine
                    other => panic!("unexpected {}", variant(&other)),
                }
            })
        })
        .collect();
    let addrs: Vec<u64> = handles.into_iter().map(|h| h.join().unwrap()).collect();
    assert_eq!(
        fill_owners.load(Ordering::SeqCst),
        1,
        "exactly one thread owns the NVMe fill"
    );
    assert!(
        addrs.windows(2).all(|w| w[0] == w[1]),
        "all threads resolved to the same slot: {addrs:?}"
    );
    let snap = _reg.snapshot();
    assert_eq!(snap.counter("cam_cache_misses_total"), 0); // metric belongs to the device layer
}

#[test]
fn aborted_fill_wakes_waiters_with_none() {
    let (c, _reg) = cache(8, 1);
    let ticket = match c.lookup(5) {
        Lookup::Miss(t) => t,
        other => panic!("unexpected {}", variant(&other)),
    };
    let waiter = match c.lookup(5) {
        Lookup::InFlight(w) => w,
        other => panic!("unexpected {}", variant(&other)),
    };
    let h = thread::spawn(move || waiter.wait());
    thread::sleep(Duration::from_millis(10));
    drop(ticket); // abort: the owning read failed
    assert!(
        h.join().unwrap().is_none(),
        "waiter observes the abort and falls back"
    );
    // The slot is reusable afterwards.
    drop(insert(&c, 5));
}

#[test]
fn dirty_slots_are_skipped_by_eviction_until_flushed() {
    let (c, _reg) = cache(4, 1);
    for lba in 0..4u64 {
        let pin = insert(&c, lba);
        pin.mark_dirty();
    }
    assert_eq!(c.dirty_blocks(), 4);
    // Shard is full of dirty blocks: demand allocation must ask for a
    // flush, never silently drop dirty data.
    assert!(matches!(c.lookup(99), Lookup::NeedFlush));

    let pins = c.take_dirty(2);
    assert_eq!(pins.len(), 2);
    assert_eq!(c.dirty_blocks(), 2); // dirty cleared at take
    drop(pins);
    // With clean unpinned slots available, allocation succeeds again.
    match c.lookup(99) {
        Lookup::Miss(t) => drop(t.complete(false)),
        other => panic!("unexpected {}", variant(&other)),
    }
}

#[test]
fn take_dirty_pins_against_concurrent_eviction() {
    let (c, _reg) = cache(4, 1);
    let pin = insert(&c, 1);
    pin.mark_dirty();
    drop(pin);
    let flush = c.take_dirty(4);
    assert_eq!(flush.len(), 1);
    // While the flush holds the pin, churn cannot reclaim that slot.
    for lba in 10..30u64 {
        if let Lookup::Miss(t) = c.lookup(lba) {
            drop(t.complete(false));
        }
    }
    assert!(
        matches!(c.lookup(1), Lookup::Hit(_)),
        "block being flushed stayed resident"
    );
    drop(flush);
}

#[test]
fn a_blocked_wait_is_woken_by_a_batched_publication_and_by_an_abort() {
    // Wakes are made only while a `SlotWait` is blocked, so a lost one
    // leaves the waiter blocked for good: the bounded receive turns that
    // into a failure in seconds instead of a hung test.
    let (c, _reg) = cache(8, 1);
    for abort in [false, true] {
        let lba = 40 + u64::from(abort);
        let (fill, other) = match (c.lookup(lba), c.lookup(lba + 100)) {
            (Lookup::Miss(a), Lookup::Miss(b)) => (a, b),
            (a, b) => panic!("unexpected {} / {}", variant(&a), variant(&b)),
        };
        let waiter = match c.lookup(lba) {
            Lookup::InFlight(w) => w,
            other => panic!("unexpected {}", variant(&other)),
        };
        let (tx, rx) = std::sync::mpsc::channel();
        let h = thread::spawn(move || tx.send(waiter.wait().map(|pin| pin.addr())).unwrap());
        // Let the waiter block on the condvar first.
        thread::sleep(Duration::from_millis(20));
        let addr = fill.addr();
        if abort {
            drop(fill); // the owning read failed
            drop(other.complete(false));
        } else {
            c.publish_fills([fill, other]);
        }
        let woke = rx
            .recv_timeout(Duration::from_secs(5))
            .unwrap_or_else(|_| panic!("the waiter was not woken (abort: {abort})"));
        assert_eq!(woke, (!abort).then_some(addr));
        h.join().unwrap();
    }
    // Both published blocks are resident and unpinned, the aborted one gone.
    assert!(matches!(c.lookup(40), Lookup::Hit(_)));
    assert!(matches!(c.lookup(140), Lookup::Hit(_)));
    assert!(matches!(c.lookup(41), Lookup::Miss(_)));
}
