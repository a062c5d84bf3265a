//! A bounded single-producer / single-consumer ring for cross-worker
//! group handoff.
//!
//! The thread-per-core engine wires one ring per ordered worker pair:
//! worker *p* pushes a [`GroupSpec`] whose SSD is owned by worker *c* into
//! `rings[c][p]`, and only *c* ever pops it — so each ring has exactly one
//! producer and one consumer by construction. Position counters are the
//! only cross-thread coordination; the `tail` release-store publishes the
//! slot write, the `head` release-store publishes the slot take. The
//! workspace forbids `unsafe`, so slots are `Mutex<Option<T>>` rather than
//! `UnsafeCell`s — under SPSC discipline every lock is uncontended, and
//! the mutex cost is dwarfed by the planning work a `GroupSpec` carries.
//!
//! [`GroupSpec`]: cam_protocol::GroupSpec

use std::sync::atomic::{AtomicUsize, Ordering};

use parking_lot::Mutex;

/// A bounded SPSC queue. `push` from one thread, `pop` from one other;
/// both are wait-free apart from the uncontended slot lock.
pub(crate) struct SpscRing<T> {
    slots: Box<[Mutex<Option<T>>]>,
    /// Next slot to pop (consumer-owned; producer reads it to detect full).
    head: AtomicUsize,
    /// Next slot to push (producer-owned; consumer reads it to detect
    /// empty).
    tail: AtomicUsize,
}

impl<T> SpscRing<T> {
    /// A ring holding up to `capacity` items (raised to 1 if 0).
    pub(crate) fn with_capacity(capacity: usize) -> Self {
        let cap = capacity.max(1);
        SpscRing {
            slots: (0..cap).map(|_| Mutex::new(None)).collect(),
            head: AtomicUsize::new(0),
            tail: AtomicUsize::new(0),
        }
    }

    /// Slots in the ring.
    #[cfg(test)]
    pub(crate) fn capacity(&self) -> usize {
        self.slots.len()
    }

    /// Producer side: enqueues `v`, or returns it if the ring is full.
    pub(crate) fn push(&self, v: T) -> Result<(), T> {
        let tail = self.tail.load(Ordering::Relaxed);
        let head = self.head.load(Ordering::Acquire);
        if tail.wrapping_sub(head) >= self.slots.len() {
            return Err(v);
        }
        *self.slots[tail % self.slots.len()].lock() = Some(v);
        self.tail.store(tail.wrapping_add(1), Ordering::Release);
        Ok(())
    }

    /// Consumer side: dequeues the oldest item, if any.
    pub(crate) fn pop(&self) -> Option<T> {
        let head = self.head.load(Ordering::Relaxed);
        let tail = self.tail.load(Ordering::Acquire);
        if head == tail {
            return None;
        }
        let v = self.slots[head % self.slots.len()].lock().take();
        self.head.store(head.wrapping_add(1), Ordering::Release);
        debug_assert!(v.is_some(), "SPSC slot empty between head and tail");
        v
    }

    /// Whether the ring currently holds nothing (racy by nature: only
    /// meaningful to the consumer as a park-side recheck).
    #[cfg(test)]
    pub(crate) fn is_empty(&self) -> bool {
        self.head.load(Ordering::Acquire) == self.tail.load(Ordering::Acquire)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::collections::VecDeque;
    use std::sync::Arc;

    #[test]
    fn empty_ring_pops_nothing() {
        let r: SpscRing<u64> = SpscRing::with_capacity(4);
        assert!(r.is_empty());
        assert_eq!(r.pop(), None);
        assert_eq!(r.capacity(), 4);
    }

    #[test]
    fn full_ring_rejects_and_returns_the_value() {
        let r = SpscRing::with_capacity(2);
        assert_eq!(r.push(1), Ok(()));
        assert_eq!(r.push(2), Ok(()));
        assert_eq!(r.push(3), Err(3));
        assert_eq!(r.pop(), Some(1));
        assert_eq!(r.push(3), Ok(()));
        assert_eq!(r.pop(), Some(2));
        assert_eq!(r.pop(), Some(3));
        assert_eq!(r.pop(), None);
    }

    #[test]
    fn zero_capacity_is_raised_to_one() {
        let r = SpscRing::with_capacity(0);
        assert_eq!(r.capacity(), 1);
        assert_eq!(r.push(7), Ok(()));
        assert_eq!(r.push(8), Err(8));
        assert_eq!(r.pop(), Some(7));
    }

    /// Property test against a model deque: a deterministic pseudo-random
    /// interleaving of pushes and pops must match `VecDeque` exactly,
    /// including full/empty refusals, across many wraps of a small ring.
    #[test]
    fn interleaved_ops_match_a_model_deque_across_wraps() {
        for cap in [1usize, 2, 3, 7] {
            let r = SpscRing::with_capacity(cap);
            let mut model: VecDeque<u64> = VecDeque::new();
            let mut rng: u64 = 0x9E37_79B9_7F4A_7C15 ^ cap as u64;
            let mut next_val = 0u64;
            for _ in 0..10_000 {
                // xorshift64
                rng ^= rng << 13;
                rng ^= rng >> 7;
                rng ^= rng << 17;
                if rng.is_multiple_of(2) {
                    let res = r.push(next_val);
                    if model.len() < cap {
                        assert_eq!(res, Ok(()), "cap {cap}: push into non-full ring");
                        model.push_back(next_val);
                    } else {
                        assert_eq!(res, Err(next_val), "cap {cap}: full ring must refuse");
                    }
                    next_val += 1;
                } else {
                    assert_eq!(r.pop(), model.pop_front(), "cap {cap}: FIFO order");
                }
            }
            assert_eq!(r.is_empty(), model.is_empty());
        }
    }

    /// Two-thread stress: one producer, one consumer, a ring much smaller
    /// than the item count (forcing constant wraps and full/empty edges).
    /// Every item must arrive exactly once, in order.
    #[test]
    fn two_thread_stress_preserves_order_and_loses_nothing() {
        const N: u64 = 200_000;
        let ring = Arc::new(SpscRing::with_capacity(8));
        let producer = {
            let ring = Arc::clone(&ring);
            std::thread::spawn(move || {
                let mut v = 0u64;
                while v < N {
                    match ring.push(v) {
                        Ok(()) => v += 1,
                        Err(_) => std::thread::yield_now(),
                    }
                }
            })
        };
        let mut expected = 0u64;
        while expected < N {
            match ring.pop() {
                Some(v) => {
                    assert_eq!(v, expected, "reordered or duplicated item");
                    expected += 1;
                }
                None => std::thread::yield_now(),
            }
        }
        producer.join().unwrap();
        assert!(ring.is_empty());
    }
}
