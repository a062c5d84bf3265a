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
//! The whole address range is reserved at construction, and a page holds
//! no buffer until something lands in it. Pages are shared, copy-on-write
//! `Arc<[u8]>` buffers, like the blocks of `cam_blockdev::SparseMemStore`:
//! a whole, page-aligned transfer moves a reference instead of its bytes —
//! a device read installs the media block in the page
//! ([`DmaSpace::dma_write_block`]), a device write hands the page's buffer
//! to the media ([`DmaSpace::dma_read_block`]), and a copy inside the
//! region shares the source page ([`DmaSpace::dma_copy`]). Everything else
//! copies bytes: sub-page and unaligned transfers, and host `dma_write`s,
//! which first copy a page that is shared (copy-on-write). So a page is
//! paid for by its first partial or host write, or by the media block it
//! shares; one never written reads as zeros without holding a buffer. Every
//! `dma_read` sees exactly what byte copies would have put there.

use std::fmt;
#[cfg(debug_assertions)]
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::Arc;

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
///
/// Every method has copy semantics: what a later `dma_read` returns is
/// what byte-for-byte copies would have left, however the space moves the
/// bytes.
pub trait DmaSpace: Send + Sync {
    /// Copies `buf.len()` bytes from the space at `addr` into `buf`.
    fn dma_read(&self, addr: u64, buf: &mut [u8]) -> Result<(), DmaError>;

    /// Copies `data` into the space at `addr`.
    fn dma_write(&self, addr: u64, data: &[u8]) -> Result<(), DmaError>;

    /// Writes the shared `block` at `addr` — a device read landing. A block
    /// that fills one aligned page is installed in it by reference;
    /// anything else is copied.
    fn dma_write_block(&self, addr: u64, block: &Arc<[u8]>) -> Result<(), DmaError>;

    /// Reads `block.len()` bytes at `addr` into `block` — a device write
    /// taking its data. A block that fills one aligned page is copied into
    /// in place when it is unique, and otherwise replaced by the page's own
    /// buffer; anything else is copied into a buffer of `block`'s own.
    fn dma_read_block(&self, addr: u64, block: &mut Arc<[u8]>) -> Result<(), DmaError>;

    /// Copies `len` bytes from `src` to `dst` inside the space, as if
    /// through a buffer (overlapping ranges included). Whole aligned pages
    /// are shared by reference; partial pages are copied.
    fn dma_copy(&self, src: u64, dst: u64, len: usize) -> Result<(), DmaError>;

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
/// proceeds in parallel. No operation holds two page locks at once; the
/// device paths take a page lock inside a media shard lock, never the
/// other way round.
///
/// Construction reserves the address range only. A slot holds no buffer
/// until a transfer lands in it (see the module docs); reads of a page that
/// holds none fill zeros and allocate nothing.
/// [`resident_pages`](Self::resident_pages) counts the pages that hold a
/// buffer, their own or one shared with media or other pages.
pub struct PinnedRegion {
    base: u64,
    len: usize,
    page_size: usize,
    pages: Vec<Mutex<Option<Arc<[u8]>>>>,
    /// Payload bytes copied into or out of pages so far (debug builds only).
    #[cfg(debug_assertions)]
    copied: AtomicU64,
}

/// A zero-filled buffer of `len` bytes, allocated once.
fn zeroed(len: usize) -> Arc<[u8]> {
    std::iter::repeat_n(0, len).collect()
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
            #[cfg(debug_assertions)]
            copied: AtomicU64::new(0),
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

    /// Number of pages holding a buffer — their own, or one shared with
    /// media blocks or other pages. A scan of every page's lock, for tests
    /// and reports: the DMA path keeps no counter.
    pub fn resident_pages(&self) -> usize {
        self.pages.iter().filter(|p| p.lock().is_some()).count()
    }

    /// Payload bytes this region has copied into or out of its pages so
    /// far, copy-on-write copies of shared pages included; a transfer moved
    /// by reference adds nothing. Exists only in debug builds (release
    /// builds compile no counter), for tests that hold a data path to a
    /// copy budget (`crates/nvme/tests/copy_budget.rs`).
    #[cfg(debug_assertions)]
    pub fn bytes_copied(&self) -> u64 {
        self.copied.load(Ordering::Relaxed)
    }

    #[inline]
    fn count_copy(&self, _bytes: usize) {
        #[cfg(debug_assertions)]
        self.copied.fetch_add(_bytes as u64, Ordering::Relaxed);
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

    /// The page `[off, off + len)` fills exactly, if it fills one.
    fn whole_page(&self, off: usize, len: usize) -> Option<usize> {
        (len == self.page_size && off.is_multiple_of(self.page_size)).then(|| off / self.page_size)
    }

    /// The slot's page as a buffer of its own, to write into: a page that
    /// holds none gets a zeroed one, and a shared one is copied first.
    fn own_page<'a>(&self, slot: &'a mut Option<Arc<[u8]>>) -> &'a mut [u8] {
        let page = slot.get_or_insert_with(|| zeroed(self.page_size));
        if Arc::get_mut(page).is_none() {
            self.count_copy(self.page_size);
            *page = Arc::from(&page[..]);
        }
        Arc::get_mut(page).expect("a fresh copy is unique")
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
                Some(p) => {
                    self.count_copy(n);
                    dst.copy_from_slice(&p[in_page..in_page + n]);
                }
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
            let src = &data[written..written + n];
            let mut slot = self.pages[page].lock();
            self.count_copy(n);
            match slot.as_mut().and_then(Arc::get_mut) {
                // A whole page replaces the old bytes, so a page that is
                // not this slot's alone is not copied first.
                None if n == self.page_size => *slot = Some(Arc::from(src)),
                Some(own) if n == self.page_size => own.copy_from_slice(src),
                _ => self.own_page(&mut slot)[in_page..in_page + n].copy_from_slice(src),
            }
            off += n;
            written += n;
        }
        Ok(())
    }

    fn dma_write_block(&self, addr: u64, block: &Arc<[u8]>) -> Result<(), DmaError> {
        let off = self.offset_of(addr, block.len())?;
        match self.whole_page(off, block.len()) {
            Some(page) => {
                *self.pages[page].lock() = Some(Arc::clone(block));
                Ok(())
            }
            None => self.dma_write(addr, block),
        }
    }

    fn dma_read_block(&self, addr: u64, block: &mut Arc<[u8]>) -> Result<(), DmaError> {
        let len = block.len();
        let off = self.offset_of(addr, len)?;
        let Some(page) = self.whole_page(off, len) else {
            if Arc::get_mut(block).is_none() {
                *block = zeroed(len);
            }
            let own = Arc::get_mut(block).expect("a fresh buffer is unique");
            return self.dma_read(addr, own);
        };
        let slot = self.pages[page].lock();
        match (&*slot, Arc::get_mut(block)) {
            (Some(p), Some(own)) => {
                self.count_copy(len);
                own.copy_from_slice(p);
            }
            (Some(p), None) => *block = Arc::clone(p),
            (None, Some(own)) => own.fill(0),
            (None, None) => *block = zeroed(len),
        }
        Ok(())
    }

    fn dma_copy(&self, src: u64, dst: u64, len: usize) -> Result<(), DmaError> {
        let mut from = self.offset_of(src, len)?;
        let mut to = self.offset_of(dst, len)?;
        if from < to + len && to < from + len {
            // Overlapping ranges: the cold path, through a buffer.
            let mut buf = vec![0; len];
            self.dma_read(src, &mut buf)?;
            return self.dma_write(dst, &buf);
        }
        let end = from + len;
        while from < end {
            let (s_in, d_in) = (from % self.page_size, to % self.page_size);
            let n = (self.page_size - s_in.max(d_in)).min(end - from);
            // The source page by reference, its lock released before the
            // destination's is taken.
            let page = self.pages[from / self.page_size].lock().clone();
            let mut slot = self.pages[to / self.page_size].lock();
            if n == self.page_size {
                *slot = page;
            } else {
                self.count_copy(n);
                let out = &mut self.own_page(&mut slot)[d_in..d_in + n];
                match page {
                    Some(p) => out.copy_from_slice(&p[s_in..s_in + n]),
                    None => out.fill(0),
                }
            }
            from += n;
            to += n;
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

    #[test]
    fn whole_pages_move_by_reference_and_stay_isolated() {
        let r = PinnedRegion::new(0, 4 * 4096);
        let block: Arc<[u8]> = Arc::from(&[5u8; 4096][..]);
        r.dma_write_block(4096, &block).unwrap();
        r.dma_copy(4096, 2 * 4096, 4096).unwrap();
        assert_eq!(Arc::strong_count(&block), 3, "both pages hold the block");
        // A host write copies the page it lands in first.
        r.dma_write(2 * 4096 + 10, &[6u8; 4]).unwrap();
        assert_eq!(Arc::strong_count(&block), 2);
        assert!(block.iter().all(|&b| b == 5));
        // Taking a page: a shared block is replaced by the page's buffer,
        // a unique one is written in place.
        let mut shared: Arc<[u8]> = Arc::from(&[0u8; 4096][..]);
        let _other = Arc::clone(&shared);
        r.dma_read_block(4096, &mut shared).unwrap();
        assert!(Arc::ptr_eq(&shared, &block));
        let mut own: Arc<[u8]> = Arc::from(&[0u8; 4096][..]);
        let at = Arc::as_ptr(&own);
        r.dma_read_block(2 * 4096, &mut own).unwrap();
        assert_eq!(Arc::as_ptr(&own), at);
        assert_eq!(&own[8..16], &[5, 5, 6, 6, 6, 6, 5, 5]);
        // A never-written page reads into a block as zeros.
        r.dma_read_block(3 * 4096, &mut own).unwrap();
        assert!(own.iter().all(|&b| b == 0));
        assert_eq!(r.resident_pages(), 2);
    }

    #[test]
    fn rejected_block_accesses_touch_nothing() {
        let r = PinnedRegion::new(0x1000, 2 * 4096);
        let block: Arc<[u8]> = Arc::from(&[1u8; 4096][..]);
        assert!(r.dma_write_block(0x1000 + 4096 + 8, &block).is_err());
        let mut taken = Arc::clone(&block);
        assert!(r.dma_read_block(0x1000 + 4096 + 8, &mut taken).is_err());
        assert!(Arc::ptr_eq(&taken, &block));
        assert!(r.dma_copy(0x1000, 0x1000 + 4096 + 8, 4096).is_err());
        assert!(r.dma_copy(0xF00, 0x1000, 4096).is_err());
        assert_eq!(r.resident_pages(), 0);
    }

    #[test]
    fn overlapping_copies_behave_like_memmove() {
        let r = PinnedRegion::new(0, 3 * 4096);
        let data: Vec<u8> = (0..3 * 4096).map(|i| (i % 251) as u8).collect();
        r.dma_write(0, &data).unwrap();
        let mut want = data.clone();
        want.copy_within(100..100 + 6000, 3000);
        r.dma_copy(100, 3000, 6000).unwrap();
        let mut out = vec![0u8; data.len()];
        r.dma_read(0, &mut out).unwrap();
        assert_eq!(out, want);
    }
}
