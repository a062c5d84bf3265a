//! Offline shim for the `crossbeam` crate.
//!
//! The build environment has no crates-registry access, so the workspace
//! wires `crossbeam` to this std-backed shim (see the workspace
//! `Cargo.toml`). It covers exactly the surface the workspace uses:
//! `crossbeam::queue::ArrayQueue`, with the real crate's semantics.

#![deny(unsafe_code)]

/// Concurrent queues.
pub mod queue {
    use std::collections::VecDeque;
    use std::sync::Mutex;

    /// A bounded MPMC queue (mutex-backed stand-in for crossbeam's lock-free
    /// `ArrayQueue`; same API and semantics, different performance profile).
    pub struct ArrayQueue<T> {
        cap: usize,
        items: Mutex<VecDeque<T>>,
    }

    impl<T> ArrayQueue<T> {
        /// Creates a queue with room for `cap` elements. Panics if `cap == 0`.
        pub fn new(cap: usize) -> Self {
            assert!(cap > 0, "capacity must be non-zero");
            ArrayQueue {
                cap,
                items: Mutex::new(VecDeque::with_capacity(cap)),
            }
        }

        /// Pushes an element, returning it back if the queue is full.
        pub fn push(&self, value: T) -> Result<(), T> {
            let mut q = self.items.lock().unwrap_or_else(|e| e.into_inner());
            if q.len() == self.cap {
                Err(value)
            } else {
                q.push_back(value);
                Ok(())
            }
        }

        /// Pops the oldest element, if any.
        pub fn pop(&self) -> Option<T> {
            self.items
                .lock()
                .unwrap_or_else(|e| e.into_inner())
                .pop_front()
        }

        /// Number of elements currently queued.
        pub fn len(&self) -> usize {
            self.items.lock().unwrap_or_else(|e| e.into_inner()).len()
        }

        /// True if the queue holds no elements.
        pub fn is_empty(&self) -> bool {
            self.len() == 0
        }

        /// True if the queue is at capacity.
        pub fn is_full(&self) -> bool {
            self.len() == self.cap
        }

        /// The fixed capacity given at construction.
        pub fn capacity(&self) -> usize {
            self.cap
        }
    }
}

#[cfg(test)]
mod tests {
    use super::queue::ArrayQueue;

    #[test]
    fn array_queue_bounds() {
        let q = ArrayQueue::new(2);
        assert!(q.push(1).is_ok());
        assert!(q.push(2).is_ok());
        assert_eq!(q.push(3), Err(3));
        assert!(q.is_full());
        assert_eq!(q.pop(), Some(1));
        assert_eq!(q.len(), 1);
        assert_eq!(q.pop(), Some(2));
        assert!(q.pop().is_none());
        assert!(q.is_empty());
        assert_eq!(q.capacity(), 2);
    }
}
