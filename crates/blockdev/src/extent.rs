//! [`ExtentAllocator`] — first-fit extent allocation over a block range,
//! with free-list coalescing.
//!
//! Used by `cam-gpu`'s device memory, which hands out pinned buffers as
//! extents of pages.

use std::collections::BTreeMap;

use crate::lba::Lba;

/// A contiguous run of blocks.
#[derive(Clone, Copy, PartialEq, Eq, Debug, Hash)]
pub struct Extent {
    /// First block.
    pub start: Lba,
    /// Length in blocks (> 0).
    pub blocks: u64,
}

impl Extent {
    /// Creates an extent; `blocks` must be nonzero.
    pub fn new(start: Lba, blocks: u64) -> Self {
        assert!(blocks > 0, "extent must be nonempty");
        Extent { start, blocks }
    }

    /// One past the last block.
    #[inline]
    pub fn end(&self) -> u64 {
        self.start.0 + self.blocks
    }

    /// Whether two extents overlap.
    pub fn overlaps(&self, other: &Extent) -> bool {
        self.start.0 < other.end() && other.start.0 < self.end()
    }
}

/// First-fit extent allocator with coalescing free list.
pub struct ExtentAllocator {
    /// Free runs keyed by start block.
    free: BTreeMap<u64, u64>,
    total: u64,
    allocated: u64,
}

impl ExtentAllocator {
    /// Creates an allocator over blocks `0..blocks`.
    pub fn new(blocks: u64) -> Self {
        let mut free = BTreeMap::new();
        if blocks > 0 {
            free.insert(0, blocks);
        }
        ExtentAllocator {
            free,
            total: blocks,
            allocated: 0,
        }
    }

    /// Total managed blocks.
    pub fn total_blocks(&self) -> u64 {
        self.total
    }

    /// Blocks currently allocated.
    pub fn allocated_blocks(&self) -> u64 {
        self.allocated
    }

    /// Blocks currently free.
    pub fn free_blocks(&self) -> u64 {
        self.total - self.allocated
    }

    /// Allocates `blocks` contiguous blocks (first fit), or `None` if no
    /// free run is large enough (external fragmentation included).
    pub fn alloc(&mut self, blocks: u64) -> Option<Extent> {
        if blocks == 0 {
            return None;
        }
        let (&start, &len) = self.free.iter().find(|(_, &len)| len >= blocks)?;
        self.free.remove(&start);
        if len > blocks {
            self.free.insert(start + blocks, len - blocks);
        }
        self.allocated += blocks;
        Some(Extent::new(Lba(start), blocks))
    }

    /// Returns an extent to the free list, coalescing with neighbours.
    ///
    /// # Panics
    /// If the extent overlaps a free run (double free) or exceeds the range.
    pub fn free(&mut self, extent: Extent) {
        assert!(
            extent.end() <= self.total,
            "extent {extent:?} exceeds managed range of {} blocks",
            self.total
        );
        let mut start = extent.start.0;
        let mut len = extent.blocks;

        // Check and merge with the predecessor run.
        if let Some((&p_start, &p_len)) = self.free.range(..start).next_back() {
            assert!(
                p_start + p_len <= start,
                "double free: {extent:?} overlaps free run at {p_start}+{p_len}"
            );
            if p_start + p_len == start {
                self.free.remove(&p_start);
                start = p_start;
                len += p_len;
            }
        }
        // Check and merge with the successor run.
        if let Some((&n_start, &n_len)) = self.free.range(extent.start.0..).next() {
            assert!(
                extent.end() <= n_start,
                "double free: {extent:?} overlaps free run at {n_start}+{n_len}"
            );
            if extent.end() == n_start {
                self.free.remove(&n_start);
                len += n_len;
            }
        }
        self.free.insert(start, len);
        self.allocated -= extent.blocks;
    }

    /// Number of distinct free runs (fragmentation indicator).
    pub fn fragments(&self) -> usize {
        self.free.len()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn alloc_is_first_fit_and_exact() {
        let mut a = ExtentAllocator::new(100);
        let e1 = a.alloc(10).unwrap();
        let e2 = a.alloc(20).unwrap();
        assert_eq!(e1, Extent::new(Lba(0), 10));
        assert_eq!(e2, Extent::new(Lba(10), 20));
        assert_eq!(a.allocated_blocks(), 30);
        assert_eq!(a.free_blocks(), 70);
    }

    #[test]
    fn exhaustion_returns_none() {
        let mut a = ExtentAllocator::new(10);
        assert!(a.alloc(11).is_none());
        assert!(a.alloc(10).is_some());
        assert!(a.alloc(1).is_none());
        assert!(a.alloc(0).is_none());
    }

    #[test]
    fn free_coalesces_both_sides() {
        let mut a = ExtentAllocator::new(30);
        let e1 = a.alloc(10).unwrap();
        let e2 = a.alloc(10).unwrap();
        let e3 = a.alloc(10).unwrap();
        a.free(e1);
        a.free(e3);
        assert_eq!(a.fragments(), 2);
        a.free(e2); // merges all three back into one run
        assert_eq!(a.fragments(), 1);
        assert_eq!(a.alloc(30).unwrap(), Extent::new(Lba(0), 30));
    }

    #[test]
    fn fragmentation_can_block_large_allocs() {
        let mut a = ExtentAllocator::new(30);
        let e1 = a.alloc(10).unwrap();
        let _e2 = a.alloc(10).unwrap();
        let e3 = a.alloc(10).unwrap();
        a.free(e1);
        a.free(e3);
        // 20 free blocks but no contiguous 20.
        assert_eq!(a.free_blocks(), 20);
        assert!(a.alloc(20).is_none());
        assert!(a.alloc(10).is_some());
    }

    #[test]
    #[should_panic(expected = "double free")]
    fn double_free_detected() {
        let mut a = ExtentAllocator::new(10);
        let e = a.alloc(5).unwrap();
        a.free(e);
        a.free(e);
    }

    #[test]
    fn extent_overlap_math() {
        let a = Extent::new(Lba(0), 10);
        let b = Extent::new(Lba(9), 1);
        let c = Extent::new(Lba(10), 5);
        assert!(a.overlaps(&b));
        assert!(!a.overlaps(&c));
    }
}
