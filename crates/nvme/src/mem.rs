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
//! ([`DmaSession::dma_write_block`]), a device write hands the page's buffer
//! to the media ([`DmaSession::dma_read_block`]), and a copy inside the
//! region shares the source page ([`DmaSession::dma_copy`]). Everything else
//! copies bytes: sub-page and unaligned transfers, and host `dma_write`s,
//! which first copy a page that is shared (copy-on-write). So a page is
//! paid for by its first partial or host write, or by the media block it
//! shares; one never written reads as zeros without holding a buffer, and a
//! device write taking it gets the region's one shared zero page. Every
//! `dma_read` sees exactly what byte copies would have put there.
//!
//! The block transfers run in a [`DmaSpace::dma_session`], which takes the
//! region's one lock once for any number of them: a device burst, the
//! retire's duplicate fan-out, a cached batch's hit copies. Host
//! `dma_read`s and `dma_write`s take it once per page.

use std::fmt;
#[cfg(debug_assertions)]
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::Arc;

use parking_lot::{Mutex, MutexGuard};

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

    /// Runs `run` with a [`DmaSession`] through which it may make any
    /// number of block transfers — a device's burst, a batch's duplicate
    /// fan-out. The space is locked once for the whole session, so `run`
    /// must not call back into the space.
    fn dma_session(&self, run: &mut dyn FnMut(&mut dyn DmaSession));

    /// [`DmaSession::dma_copy`] in a session of its own.
    fn dma_copy(&self, src: u64, dst: u64, len: usize) -> Result<(), DmaError> {
        let mut copied = Ok(());
        self.dma_session(&mut |s| copied = s.dma_copy(src, dst, len));
        copied
    }

    /// Whether `[addr, addr + len)` lies inside the space.
    fn contains(&self, addr: u64, len: usize) -> bool;
}

/// Block transfers inside a [`DmaSpace::dma_session`], under its one hold
/// of the space's lock.
pub trait DmaSession {
    /// Writes the shared `block` at `addr` — a device read landing. A block
    /// that fills one aligned page is installed in it by reference;
    /// anything else is copied.
    fn dma_write_block(&mut self, addr: u64, block: &Arc<[u8]>) -> Result<(), DmaError>;

    /// Reads `block.len()` bytes at `addr` into `block` — a device write
    /// taking its data. A block that fills one aligned page is copied into
    /// in place when it is unique, and otherwise replaced by the page's own
    /// buffer (a never-written page's is the space's shared zero page);
    /// anything else is copied into a buffer of `block`'s own.
    fn dma_read_block(&mut self, addr: u64, block: &mut Arc<[u8]>) -> Result<(), DmaError>;

    /// Copies `len` bytes from `src` to `dst` inside the space, as if
    /// through a buffer (overlapping ranges included). Whole aligned pages
    /// are shared by reference; partial pages are copied.
    fn dma_copy(&mut self, src: u64, dst: u64, len: usize) -> Result<(), DmaError>;
}

/// A page's buffer, if one has landed in it.
type Page = Option<Arc<[u8]>>;

/// A pinned, physically-contiguous memory region (the GDRCopy stand-in).
///
/// "After this procedure, we can know the start physical address of this big
/// chunk of memory, and the address is continuous. So, we can calculate the
/// physical address from any virtual address in this chunk." — § III-A.
/// `PinnedRegion` has exactly that contract: a base physical address plus
/// offset arithmetic. Internally the region is a table of page-sized
/// slots behind one lock. A [`DmaSpace::dma_session`] — a device burst,
/// a batch's duplicate fan-out, a cached batch's hit copies — takes it
/// once; a host [`dma_read`](DmaSpace::dma_read) or
/// [`dma_write`](DmaSpace::dma_write) takes it once per page, so it never
/// holds it long. The device path takes it inside a media store's lock,
/// never the other way round.
///
/// Construction reserves the address range only. A slot holds no buffer
/// until a transfer lands in it (see the module docs); reads of a page that
/// holds none fill zeros, or lend the region's one shared zero page, and
/// allocate nothing. [`resident_pages`](Self::resident_pages) counts the
/// pages that hold a buffer, their own or one shared with media or other
/// pages.
pub struct PinnedRegion {
    base: u64,
    len: usize,
    /// log2 of the page size: a page index is a shift, not a division.
    page_shift: u32,
    pages: Mutex<Vec<Page>>,
    /// What a never-written page reads as when a device write takes it.
    /// Always shared (this field holds it), so never written in place.
    zero_page: Arc<[u8]>,
    /// Payload bytes copied into or out of pages so far (debug builds only).
    #[cfg(debug_assertions)]
    copied: AtomicU64,
    /// Acquisitions of `pages` so far (debug builds only).
    #[cfg(debug_assertions)]
    locks: AtomicU64,
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
        PinnedRegion {
            base,
            len: n_pages * page_size,
            page_shift: page_size.trailing_zeros(),
            pages: Mutex::new(vec![None; n_pages]),
            zero_page: zeroed(page_size),
            #[cfg(debug_assertions)]
            copied: AtomicU64::new(0),
            #[cfg(debug_assertions)]
            locks: AtomicU64::new(0),
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
    /// media blocks or other pages. A scan of the page table, for tests
    /// and reports: the DMA path keeps no counter.
    pub fn resident_pages(&self) -> usize {
        self.lock().iter().filter(|p| p.is_some()).count()
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

    /// How many times this region has taken its page-table lock so far:
    /// once per [`DmaSpace::dma_session`] and once per page of a host
    /// `dma_read` or `dma_write`. Exists only in debug builds, for tests
    /// that hold a data path to a lock budget
    /// (`crates/nvme/tests/lock_budget.rs`).
    #[cfg(debug_assertions)]
    pub fn locks_taken(&self) -> u64 {
        self.locks.load(Ordering::Relaxed)
    }

    #[inline]
    fn count_copy(&self, _bytes: usize) {
        #[cfg(debug_assertions)]
        self.copied.fetch_add(_bytes as u64, Ordering::Relaxed);
    }

    fn lock(&self) -> MutexGuard<'_, Vec<Page>> {
        #[cfg(debug_assertions)]
        self.locks.fetch_add(1, Ordering::Relaxed);
        self.pages.lock()
    }

    fn page_size(&self) -> usize {
        1 << self.page_shift
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
        let mask = self.page_size() - 1;
        (len == self.page_size() && off & mask == 0).then_some(off >> self.page_shift)
    }

    /// Calls `piece(page, offset in page, offset in transfer, length)` for
    /// each page's part of the `len` bytes at region offset `off`, in order.
    fn for_each_piece(
        &self,
        off: usize,
        len: usize,
        mut piece: impl FnMut(usize, usize, usize, usize),
    ) {
        let mask = self.page_size() - 1;
        let mut at = 0;
        while at < len {
            let o = off + at;
            let n = (self.page_size() - (o & mask)).min(len - at);
            piece(o >> self.page_shift, o & mask, at, n);
            at += n;
        }
    }

    /// Copies `dst.len()` bytes at `in_page` of `page` into `dst`.
    fn read_piece(&self, page: &Page, in_page: usize, dst: &mut [u8]) {
        match page {
            Some(p) => {
                self.count_copy(dst.len());
                dst.copy_from_slice(&p[in_page..in_page + dst.len()]);
            }
            None => dst.fill(0),
        }
    }

    /// Copies `src` into `slot`'s page at `in_page`.
    fn write_piece(&self, slot: &mut Page, in_page: usize, src: &[u8]) {
        self.count_copy(src.len());
        let whole = src.len() == self.page_size();
        match slot.as_mut().and_then(Arc::get_mut) {
            // A whole page replaces the old bytes, so a page that is not
            // this slot's alone is not copied first.
            None if whole => *slot = Some(Arc::from(src)),
            Some(own) if whole => own.copy_from_slice(src),
            _ => self.own_page(slot)[in_page..in_page + src.len()].copy_from_slice(src),
        }
    }

    /// The slot's page as a buffer of its own, to write into: a page that
    /// holds none gets a zeroed one, and a shared one is copied first.
    fn own_page<'a>(&self, slot: &'a mut Page) -> &'a mut [u8] {
        let page = slot.get_or_insert_with(|| zeroed(self.page_size()));
        if Arc::get_mut(page).is_none() {
            self.count_copy(self.page_size());
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
        let off = self.offset_of(addr, buf.len())?;
        self.for_each_piece(off, buf.len(), |page, in_page, at, n| {
            self.read_piece(&self.lock()[page], in_page, &mut buf[at..at + n]);
        });
        Ok(())
    }

    fn dma_write(&self, addr: u64, data: &[u8]) -> Result<(), DmaError> {
        let off = self.offset_of(addr, data.len())?;
        self.for_each_piece(off, data.len(), |page, in_page, at, n| {
            self.write_piece(&mut self.lock()[page], in_page, &data[at..at + n]);
        });
        Ok(())
    }

    fn dma_session(&self, run: &mut dyn FnMut(&mut dyn DmaSession)) {
        run(&mut Session {
            region: self,
            pages: self.lock(),
        })
    }

    fn contains(&self, addr: u64, len: usize) -> bool {
        addr >= self.base
            && addr
                .checked_add(len as u64)
                .map(|end| end <= self.base + self.len as u64)
                .unwrap_or(false)
    }
}

/// A [`PinnedRegion`] session: its page table, locked.
struct Session<'a> {
    region: &'a PinnedRegion,
    pages: MutexGuard<'a, Vec<Page>>,
}

impl Session<'_> {
    fn read(&self, off: usize, buf: &mut [u8]) {
        let Session { region, pages } = self;
        region.for_each_piece(off, buf.len(), |page, in_page, at, n| {
            region.read_piece(&pages[page], in_page, &mut buf[at..at + n]);
        });
    }

    fn write(&mut self, off: usize, data: &[u8]) {
        let Session { region, pages } = self;
        region.for_each_piece(off, data.len(), |page, in_page, at, n| {
            region.write_piece(&mut pages[page], in_page, &data[at..at + n]);
        });
    }
}

impl DmaSession for Session<'_> {
    fn dma_write_block(&mut self, addr: u64, block: &Arc<[u8]>) -> Result<(), DmaError> {
        let off = self.region.offset_of(addr, block.len())?;
        match self.region.whole_page(off, block.len()) {
            Some(page) => self.pages[page] = Some(Arc::clone(block)),
            None => self.write(off, block),
        }
        Ok(())
    }

    fn dma_read_block(&mut self, addr: u64, block: &mut Arc<[u8]>) -> Result<(), DmaError> {
        let len = block.len();
        let off = self.region.offset_of(addr, len)?;
        let Some(page) = self.region.whole_page(off, len) else {
            if Arc::get_mut(block).is_none() {
                *block = zeroed(len);
            }
            self.read(off, Arc::get_mut(block).expect("a fresh buffer is unique"));
            return Ok(());
        };
        match (&self.pages[page], Arc::get_mut(block)) {
            (Some(p), Some(own)) => {
                self.region.count_copy(len);
                own.copy_from_slice(p);
            }
            (Some(p), None) => *block = Arc::clone(p),
            (None, Some(own)) => own.fill(0),
            (None, None) => *block = Arc::clone(&self.region.zero_page),
        }
        Ok(())
    }

    fn dma_copy(&mut self, src: u64, dst: u64, len: usize) -> Result<(), DmaError> {
        let from = self.region.offset_of(src, len)?;
        let to = self.region.offset_of(dst, len)?;
        if from < to + len && to < from + len {
            // Overlapping ranges: the cold path, through a buffer.
            let mut buf = vec![0; len];
            self.read(from, &mut buf);
            self.write(to, &buf);
            return Ok(());
        }
        let Session { region, pages } = self;
        let (size, mask) = (region.page_size(), region.page_size() - 1);
        let (mut from, mut to, end) = (from, to, from + len);
        while from < end {
            let (s_in, d_in) = (from & mask, to & mask);
            let n = (size - s_in.max(d_in)).min(end - from);
            // The source page by reference: a whole page is shared, part
            // of one copied out of it.
            let page = pages[from >> region.page_shift].clone();
            let slot = &mut pages[to >> region.page_shift];
            if n == size {
                *slot = page;
            } else {
                region.count_copy(n);
                let out = &mut region.own_page(slot)[d_in..d_in + n];
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
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::sync::Arc;

    /// `f`'s result, run in a session of its own.
    fn session<T>(r: &PinnedRegion, f: impl FnOnce(&mut dyn DmaSession) -> T) -> T {
        let (mut f, mut out) = (Some(f), None);
        r.dma_session(&mut |s| out = f.take().map(|f| f(s)));
        out.expect("the session ran")
    }

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
        session(&r, |s| s.dma_write_block(4096, &block)).unwrap();
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
        session(&r, |s| s.dma_read_block(4096, &mut shared)).unwrap();
        assert!(Arc::ptr_eq(&shared, &block));
        let mut own: Arc<[u8]> = Arc::from(&[0u8; 4096][..]);
        let at = Arc::as_ptr(&own);
        session(&r, |s| s.dma_read_block(2 * 4096, &mut own)).unwrap();
        assert_eq!(Arc::as_ptr(&own), at);
        assert_eq!(&own[8..16], &[5, 5, 6, 6, 6, 6, 5, 5]);
        // A never-written page reads into a block as zeros.
        session(&r, |s| s.dma_read_block(3 * 4096, &mut own)).unwrap();
        assert!(own.iter().all(|&b| b == 0));
        assert_eq!(r.resident_pages(), 2);
    }

    #[test]
    fn a_session_locks_once_and_lends_one_zero_page() {
        let r = PinnedRegion::new(0, 8 * 4096);
        r.dma_write(0, &[1u8; 4096]).unwrap();
        #[cfg(debug_assertions)]
        let before = r.locks_taken();
        let mut blocks: Vec<Arc<[u8]>> = (0..3).map(|_| Arc::from(&[9u8; 4096][..])).collect();
        let held = blocks.clone();
        r.dma_session(&mut |s| {
            for (i, block) in blocks.iter_mut().enumerate() {
                s.dma_read_block(4096 * (i as u64 + 1), block).unwrap();
            }
            s.dma_copy(0, 5 * 4096, 4096).unwrap();
            s.dma_copy(10, 6 * 4096 + 10, 100).unwrap();
        });
        #[cfg(debug_assertions)]
        assert_eq!(r.locks_taken() - before, 1);
        drop(held);
        // Shared blocks taking never-written pages all get the one zero page.
        assert!(Arc::ptr_eq(&blocks[0], &blocks[1]) && Arc::ptr_eq(&blocks[1], &blocks[2]));
        assert!(blocks[0].iter().all(|&b| b == 0));
        let mut out = [0u8; 4096];
        r.dma_read(6 * 4096, &mut out).unwrap();
        assert!(out[10..110].iter().all(|&b| b == 1));
        assert_eq!(r.resident_pages(), 3);
    }

    #[test]
    fn rejected_block_accesses_touch_nothing() {
        let r = PinnedRegion::new(0x1000, 2 * 4096);
        let block: Arc<[u8]> = Arc::from(&[1u8; 4096][..]);
        assert!(session(&r, |s| s.dma_write_block(0x1000 + 4096 + 8, &block)).is_err());
        let mut taken = Arc::clone(&block);
        assert!(session(&r, |s| s.dma_read_block(0x1000 + 4096 + 8, &mut taken)).is_err());
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
