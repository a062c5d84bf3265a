//! [`IoMapper`] — the I/O-mapping layer's functional counterpart: page
//! pin/unpin accounting.
//!
//! The paper's "Opportunity for Improvement" (§ II-A): kernel stacks pin
//! and unpin the destination pages *per request* because "they don't know
//! the total request size ahead of time, so they can't map once in a
//! single batching access", whereas a batching design can map once before
//! the batch and unmap once after. `IoMapper` makes that cost observable:
//! the POSIX path pins per request; CAM's pinned GPU memory is mapped once
//! at `CAM_alloc` time.

use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::Arc;

/// Page pin/unpin accounting for one address space.
#[derive(Default)]
pub struct IoMapper {
    pins: AtomicU64,
    unpins: AtomicU64,
    pinned_pages: AtomicU64,
}

/// Pages held pinned; unpins on drop.
pub struct PinnedPages {
    mapper: Arc<IoMapper>,
    pages: u64,
}

impl IoMapper {
    /// Host page size.
    pub const PAGE: u64 = 4096;

    /// Creates a mapper.
    pub fn new() -> Arc<Self> {
        Arc::new(Self::default())
    }

    /// Pins the pages covering `bytes` (one `io_map` call). Returns a
    /// guard that unpins on drop.
    pub fn pin(self: &Arc<Self>, bytes: u64) -> PinnedPages {
        let pages = bytes.div_ceil(Self::PAGE).max(1);
        self.pins.fetch_add(1, Ordering::Relaxed);
        self.pinned_pages.fetch_add(pages, Ordering::Relaxed);
        PinnedPages {
            mapper: Arc::clone(self),
            pages,
        }
    }

    /// `io_map` (pin) calls so far.
    pub fn pin_calls(&self) -> u64 {
        self.pins.load(Ordering::Relaxed)
    }

    /// Unpin calls so far.
    pub fn unpin_calls(&self) -> u64 {
        self.unpins.load(Ordering::Relaxed)
    }

    /// Pages currently pinned.
    pub fn pinned_pages(&self) -> u64 {
        self.pinned_pages.load(Ordering::Relaxed)
    }
}

impl Drop for PinnedPages {
    fn drop(&mut self) {
        self.mapper.unpins.fetch_add(1, Ordering::Relaxed);
        self.mapper
            .pinned_pages
            .fetch_sub(self.pages, Ordering::Relaxed);
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn pin_unpin_balance() {
        let m = IoMapper::new();
        {
            let _a = m.pin(8192); // 2 pages
            let _b = m.pin(1); // 1 page (rounded up)
            assert_eq!(m.pin_calls(), 2);
            assert_eq!(m.pinned_pages(), 3);
        }
        assert_eq!(m.unpin_calls(), 2);
        assert_eq!(m.pinned_pages(), 0);
    }

    #[test]
    fn per_request_vs_batched_mapping() {
        // The Opportunity: N requests pinned one-by-one cost N io_map
        // round trips; the same bytes mapped once cost 1.
        let per_request = IoMapper::new();
        for _ in 0..64 {
            let _g = per_request.pin(4096);
        }
        assert_eq!(per_request.pin_calls() + per_request.unpin_calls(), 128);

        let batched = IoMapper::new();
        {
            let _g = batched.pin(64 * 4096);
        }
        assert_eq!(batched.pin_calls() + batched.unpin_calls(), 2);
    }
}
