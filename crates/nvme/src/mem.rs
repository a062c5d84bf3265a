//! DMA-addressable memory: the [`DmaSpace`] trait and [`PinnedRegion`].
//!
//! CAM's data plane works because GDRCopy (`nvidia_p2p_get_pages`) pins GPU
//! memory and exposes **physical** addresses that NVMe SQEs can target
//! directly (§ III-A, "Direct Data Path between GPU and SSD"). In this
//! reproduction a [`PinnedRegion`] plays that role: a contiguous range of
//! simulated physical address space, organised as page-locked buffers that
//! both "device DMA engines" (NVMe service threads) and "kernels" (GPU
//! thread-block closures) can access concurrently.
//!
//! The whole address range is reserved at construction, but host memory is
//! paid for on first write: a page is allocated (zeroed) by the first
//! `dma_write` that touches it, and a page never written reads as zeros
//! without being allocated — the DMA twin of
//! `cam_blockdev::SparseMemStore`.

use std::fmt;

use parking_lot::Mutex;

/// Errors from DMA accesses.
#[derive(Clone, Copy, PartialEq, Eq, Debug)]
pub enum DmaError {
    /// The access fell (partly) outside the region.
    OutOfBounds {
        /// Requested start address.
        addr: u64,
        /// Requested length.
        len: usize,
    },
}

impl fmt::Display for DmaError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            DmaError::OutOfBounds { addr, len } => {
                write!(f, "DMA access of {len} bytes at {addr:#x} out of bounds")
            }
        }
    }
}

impl std::error::Error for DmaError {}

/// An address space that simulated DMA engines can read and write.
pub trait DmaSpace: Send + Sync {
    /// Copies `buf.len()` bytes from the space at `addr` into `buf`.
    fn dma_read(&self, addr: u64, buf: &mut [u8]) -> Result<(), DmaError>;

    /// Copies `data` into the space at `addr`.
    fn dma_write(&self, addr: u64, data: &[u8]) -> Result<(), DmaError>;

    /// Whether `[addr, addr + len)` lies inside the space.
    fn contains(&self, addr: u64, len: usize) -> bool;
}

/// A pinned, physically-contiguous memory region (the GDRCopy stand-in).
///
/// "After this procedure, we can know the start physical address of this big
/// chunk of memory, and the address is continuous. So, we can calculate the
/// physical address from any virtual address in this chunk." — § III-A.
/// `PinnedRegion` has exactly that contract: a base physical address plus
/// offset arithmetic. Internally the region is divided into page-sized
/// slots, each behind its own lock, so concurrent DMA to different pages
/// proceeds in parallel.
///
/// Construction reserves the address range only. A slot holds no buffer
/// until the first `dma_write` touching that page allocates a zeroed one
/// under the page's lock; reads of a never-written page fill zeros and
/// allocate nothing. [`resident_pages`](Self::resident_pages) counts the
/// pages paid for so far.
pub struct PinnedRegion {
    base: u64,
    len: usize,
    page_size: usize,
    pages: Vec<Mutex<Option<Box<[u8]>>>>,
}

impl PinnedRegion {
    /// Default page size (matches the host page / NVMe MDTS granularity
    /// the paper's workloads use).
    pub const DEFAULT_PAGE: usize = 4096;

    /// Pins `len` bytes at physical base address `base` with 4 KiB pages.
    pub fn new(base: u64, len: usize) -> Self {
        Self::with_page_size(base, len, Self::DEFAULT_PAGE)
    }

    /// Pins `len` bytes with an explicit page size (power of two; `len`
    /// is rounded up to whole pages).
    pub fn with_page_size(base: u64, len: usize, page_size: usize) -> Self {
        assert!(
            page_size.is_power_of_two(),
            "page size must be a power of two"
        );
        assert!(len > 0, "region must be nonempty");
        let n_pages = len.div_ceil(page_size);
        let pages = (0..n_pages).map(|_| Mutex::new(None)).collect();
        PinnedRegion {
            base,
            len: n_pages * page_size,
            page_size,
            pages,
        }
    }

    /// Base physical address.
    pub fn base(&self) -> u64 {
        self.base
    }

    /// Region length in bytes (whole pages).
    pub fn len(&self) -> usize {
        self.len
    }

    /// Whether the region is empty (never true; constructor forbids it).
    pub fn is_empty(&self) -> bool {
        self.len == 0
    }

    /// Number of pages allocated so far (each by its first write). A scan
    /// of every page's lock, for tests and reports: the DMA path keeps no
    /// counter.
    pub fn resident_pages(&self) -> usize {
        self.pages.iter().filter(|p| p.lock().is_some()).count()
    }

    /// Physical address of byte `offset` within the region.
    pub fn addr_of(&self, offset: usize) -> u64 {
        assert!(offset < self.len, "offset {offset} out of region");
        self.base + offset as u64
    }

    fn offset_of(&self, addr: u64, len: usize) -> Result<usize, DmaError> {
        if !self.contains(addr, len) {
            return Err(DmaError::OutOfBounds { addr, len });
        }
        Ok((addr - self.base) as usize)
    }

    /// Fills `[offset, offset+len)` with a byte value (test/debug helper).
    pub fn fill(&self, offset: usize, len: usize, value: u8) {
        let data = vec![value; len];
        self.dma_write(self.base + offset as u64, &data)
            .expect("fill within region");
    }
}

impl DmaSpace for PinnedRegion {
    fn dma_read(&self, addr: u64, buf: &mut [u8]) -> Result<(), DmaError> {
        let mut off = self.offset_of(addr, buf.len())?;
        let mut read = 0;
        while read < buf.len() {
            let page = off / self.page_size;
            let in_page = off % self.page_size;
            let n = (self.page_size - in_page).min(buf.len() - read);
            let dst = &mut buf[read..read + n];
            match &*self.pages[page].lock() {
                Some(p) => dst.copy_from_slice(&p[in_page..in_page + n]),
                None => dst.fill(0),
            }
            off += n;
            read += n;
        }
        Ok(())
    }

    fn dma_write(&self, addr: u64, data: &[u8]) -> Result<(), DmaError> {
        let mut off = self.offset_of(addr, data.len())?;
        let mut written = 0;
        while written < data.len() {
            let page = off / self.page_size;
            let in_page = off % self.page_size;
            let n = (self.page_size - in_page).min(data.len() - written);
            let mut slot = self.pages[page].lock();
            // Only a first write allocates, under the page's own lock.
            let p = slot.get_or_insert_with(|| vec![0u8; self.page_size].into_boxed_slice());
            p[in_page..in_page + n].copy_from_slice(&data[written..written + n]);
            off += n;
            written += n;
        }
        Ok(())
    }

    fn contains(&self, addr: u64, len: usize) -> bool {
        addr >= self.base
            && addr
                .checked_add(len as u64)
                .map(|end| end <= self.base + self.len as u64)
                .unwrap_or(false)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::sync::Arc;

    #[test]
    fn round_trip_within_a_page() {
        let r = PinnedRegion::new(0x1000_0000, 8192);
        let data = [0xABu8; 100];
        r.dma_write(0x1000_0000 + 50, &data).unwrap();
        let mut out = [0u8; 100];
        r.dma_read(0x1000_0000 + 50, &mut out).unwrap();
        assert_eq!(out, data);
    }

    #[test]
    fn round_trip_across_pages() {
        let r = PinnedRegion::new(0, 16384);
        let data: Vec<u8> = (0..10_000).map(|i| (i % 253) as u8).collect();
        r.dma_write(1234, &data).unwrap();
        let mut out = vec![0u8; data.len()];
        r.dma_read(1234, &mut out).unwrap();
        assert_eq!(out, data);
        // [1234, 11234) spans pages 0, 1 and 2 of 4, and allocates just those;
        // the untouched head of page 0 and tail of page 2 read as zeros.
        assert_eq!(r.resident_pages(), 3);
        let mut head = [0xFFu8; 1234];
        r.dma_read(0, &mut head).unwrap();
        assert!(head.iter().all(|&b| b == 0));
        let mut tail = vec![0xFFu8; 3 * 4096 - 11_234];
        r.dma_read(11_234, &mut tail).unwrap();
        assert!(tail.iter().all(|&b| b == 0));
    }

    #[test]
    fn bounds_are_enforced() {
        let r = PinnedRegion::new(0x1000, 4096);
        let mut buf = [0u8; 8];
        assert!(r.dma_read(0xFF8, &mut buf).is_err()); // before base
        assert!(r.dma_read(0x1000 + 4090, &mut buf).is_err()); // past end
        assert!(r.dma_read(u64::MAX - 2, &mut buf).is_err()); // overflow-safe
        assert!(r.contains(0x1000, 4096));
        assert!(!r.contains(0x1000, 4097));
    }

    #[test]
    fn addr_of_matches_layout() {
        let r = PinnedRegion::new(0x2000, 4096);
        assert_eq!(r.addr_of(0), 0x2000);
        assert_eq!(r.addr_of(100), 0x2064);
    }

    #[test]
    fn rounds_len_up_to_pages() {
        let r = PinnedRegion::new(0, 5000);
        assert_eq!(r.len(), 8192);
        assert!(!r.is_empty());
    }

    #[test]
    fn concurrent_disjoint_dma() {
        let r = Arc::new(PinnedRegion::new(0, 64 * 4096));
        let mut handles = Vec::new();
        for t in 0..8u64 {
            let r = Arc::clone(&r);
            handles.push(std::thread::spawn(move || {
                let data = vec![t as u8 + 1; 8 * 4096];
                r.dma_write(t * 8 * 4096, &data).unwrap();
            }));
        }
        for h in handles {
            h.join().unwrap();
        }
        for t in 0..8u64 {
            let mut buf = vec![0u8; 8 * 4096];
            r.dma_read(t * 8 * 4096, &mut buf).unwrap();
            assert!(buf.iter().all(|&b| b == t as u8 + 1));
        }
        assert_eq!(r.resident_pages(), 64);
    }

    #[test]
    fn concurrent_first_touch_of_shared_pages() {
        // Eight threads first-touch disjoint 512-byte slices of the same
        // eight pages at once: exactly one allocation per page wins, and no
        // thread's bytes land in a page another thread then replaces.
        const PAGES: usize = 8;
        const SLICE: usize = 4096 / 8;
        let r = Arc::new(PinnedRegion::new(0, PAGES * 4096));
        let start = Arc::new(std::sync::Barrier::new(8));
        let handles: Vec<_> = (0..8usize)
            .map(|t| {
                let (r, start) = (Arc::clone(&r), Arc::clone(&start));
                std::thread::spawn(move || {
                    let data = [t as u8 + 1; SLICE];
                    start.wait();
                    for page in 0..PAGES {
                        r.dma_write((page * 4096 + t * SLICE) as u64, &data)
                            .unwrap();
                    }
                })
            })
            .collect();
        for h in handles {
            h.join().unwrap();
        }
        assert_eq!(r.resident_pages(), PAGES);
        let mut all = vec![0u8; PAGES * 4096];
        r.dma_read(0, &mut all).unwrap();
        for (i, &b) in all.iter().enumerate() {
            assert_eq!(b, ((i % 4096) / SLICE) as u8 + 1, "byte {i}");
        }
    }

    #[test]
    fn a_fresh_region_holds_no_pages() {
        let r = PinnedRegion::new(0, 64 << 20);
        assert_eq!(r.len(), 64 << 20);
        assert_eq!(r.resident_pages(), 0);
    }

    #[test]
    fn reading_untouched_pages_allocates_nothing() {
        let r = PinnedRegion::new(0x1000, 8 * 4096);
        r.dma_write(0x1000 + 4096, &[7u8; 16]).unwrap();
        let mut buf = vec![0xAAu8; 8 * 4096];
        r.dma_read(0x1000, &mut buf).unwrap();
        assert!(buf[..4096].iter().all(|&b| b == 0));
        assert!(buf[4096..4096 + 16].iter().all(|&b| b == 7));
        assert!(buf[4096 + 16..].iter().all(|&b| b == 0));
        assert_eq!(r.resident_pages(), 1, "reading materializes nothing");
    }

    #[test]
    fn overwrites_allocate_nothing_new() {
        let r = PinnedRegion::new(0, 4 * 4096);
        r.dma_write(0, &[1u8; 8192]).unwrap();
        assert_eq!(r.resident_pages(), 2);
        r.dma_write(100, &[2u8; 4096]).unwrap();
        r.dma_write(0, &[3u8; 10]).unwrap();
        assert_eq!(r.resident_pages(), 2, "overwrites materialize nothing");
        let mut out = [0u8; 8192];
        r.dma_read(0, &mut out).unwrap();
        assert!(out[..10].iter().all(|&b| b == 3));
        assert!(out[10..100].iter().all(|&b| b == 1));
        assert!(out[100..4196].iter().all(|&b| b == 2));
        assert!(out[4196..].iter().all(|&b| b == 1));
    }

    #[test]
    fn rejected_accesses_allocate_nothing() {
        let r = PinnedRegion::new(0x1000, 4096);
        let err = DmaError::OutOfBounds {
            addr: 0x1000 + 4090,
            len: 8,
        };
        assert_eq!(r.dma_write(0x1000 + 4090, &[1u8; 8]), Err(err));
        assert!(r.dma_write(0xFF8, &[1u8; 16]).is_err());
        assert!(r.dma_write(u64::MAX - 2, &[1u8; 8]).is_err());
        let mut buf = [0u8; 8];
        assert_eq!(r.dma_read(0x1000 + 4090, &mut buf), Err(err));
        assert_eq!(r.resident_pages(), 0);
    }
}
