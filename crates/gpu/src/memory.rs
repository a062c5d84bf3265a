//! [`GpuMemory`] / [`GpuBuffer`] — pinned device memory that NVMe commands
//! can target directly.
//!
//! This is the reproduction's `CAM_alloc` substrate: allocation returns a
//! buffer whose **physical address** ([`GpuBuffer::addr`]) is stable and
//! registered in one contiguous [`PinnedRegion`], exactly the contract the
//! paper gets from GDRCopy. Buffers return their extent to the allocator on
//! drop (`CAM_free`); the pages themselves stay pinned and keep their bytes.
//! The whole pool's address range is reserved up front, but host memory is
//! paid for page by page as data lands, and a page an SSD read fills shares
//! the media block instead of holding a copy ([`PinnedRegion`]).

use std::fmt;
use std::sync::Arc;

use cam_blockdev::ExtentAllocator;
use cam_nvme::{DmaSpace, PinnedRegion};
use parking_lot::Mutex;

/// Allocation failure: device memory exhausted (or fragmented).
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct OutOfMemory {
    /// Bytes requested.
    pub requested: usize,
    /// Bytes currently free (may be fragmented).
    pub free: usize,
}

impl fmt::Display for OutOfMemory {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(
            f,
            "GPU out of memory: requested {} bytes, {} free",
            self.requested, self.free
        )
    }
}

impl std::error::Error for OutOfMemory {}

/// Page size of device allocations.
const PAGE: usize = 4096;

struct Inner {
    region: Arc<PinnedRegion>,
    alloc: Mutex<ExtentAllocator>,
}

/// The GPU's pinned device memory pool.
#[derive(Clone)]
pub struct GpuMemory {
    inner: Arc<Inner>,
}

impl GpuMemory {
    /// Creates a pool of `bytes` device memory whose physical address space
    /// starts at `base`.
    pub fn new(base: u64, bytes: usize) -> Self {
        assert!(bytes >= PAGE, "GPU memory must be at least one page");
        let region = Arc::new(PinnedRegion::with_page_size(base, bytes, PAGE));
        let pages = region.len() / PAGE;
        GpuMemory {
            inner: Arc::new(Inner {
                region,
                alloc: Mutex::new(ExtentAllocator::new(pages as u64)),
            }),
        }
    }

    /// The pinned region, to register with NVMe devices as their DMA space.
    pub fn region(&self) -> Arc<PinnedRegion> {
        Arc::clone(&self.inner.region)
    }

    /// Allocates `bytes` (rounded up to whole pages) of device memory.
    /// This is `CAM_alloc`.
    pub fn alloc(&self, bytes: usize) -> Result<GpuBuffer, OutOfMemory> {
        let pages = bytes.max(1).div_ceil(PAGE) as u64;
        let extent = {
            let mut a = self.inner.alloc.lock();
            a.alloc(pages).ok_or(OutOfMemory {
                requested: bytes,
                free: (a.free_blocks() as usize) * PAGE,
            })?
        };
        Ok(GpuBuffer {
            inner: Arc::clone(&self.inner),
            extent,
            len: bytes.max(1),
        })
    }

    /// Bytes currently free.
    pub fn free_bytes(&self) -> usize {
        self.inner.alloc.lock().free_blocks() as usize * PAGE
    }

    /// Bytes currently allocated.
    pub fn allocated_bytes(&self) -> usize {
        self.inner.alloc.lock().allocated_blocks() as usize * PAGE
    }
}

/// A pinned device-memory buffer. Freed on drop (`CAM_free`).
pub struct GpuBuffer {
    inner: Arc<Inner>,
    extent: cam_blockdev::Extent,
    len: usize,
}

impl GpuBuffer {
    /// Physical address of the buffer start — the value NVMe SQEs carry.
    pub fn addr(&self) -> u64 {
        self.inner.region.base() + self.extent.start.index() * PAGE as u64
    }

    /// Requested length in bytes.
    pub fn len(&self) -> usize {
        self.len
    }

    /// Whether the buffer has zero requested length (never true).
    pub fn is_empty(&self) -> bool {
        self.len == 0
    }

    /// Page-rounded capacity in bytes.
    pub fn capacity(&self) -> usize {
        self.extent.blocks as usize * PAGE
    }

    /// Copies host data into the buffer at `offset`.
    pub fn write(&self, offset: usize, data: &[u8]) {
        assert!(
            offset + data.len() <= self.capacity(),
            "write out of buffer"
        );
        self.inner
            .region
            .dma_write(self.addr() + offset as u64, data)
            .expect("buffer lies inside its region");
    }

    /// Copies buffer contents at `offset` out to host memory.
    pub fn read(&self, offset: usize, out: &mut [u8]) {
        assert!(offset + out.len() <= self.capacity(), "read out of buffer");
        self.inner
            .region
            .dma_read(self.addr() + offset as u64, out)
            .expect("buffer lies inside its region");
    }

    /// Convenience: reads the whole requested length into a new vector.
    pub fn to_vec(&self) -> Vec<u8> {
        let mut v = vec![0u8; self.len];
        self.read(0, &mut v);
        v
    }
}

impl Drop for GpuBuffer {
    fn drop(&mut self) {
        self.inner.alloc.lock().free(self.extent);
    }
}

impl fmt::Debug for GpuBuffer {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "GpuBuffer({:#x}, {} B)", self.addr(), self.len)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn alloc_free_cycle_reclaims_memory() {
        let mem = GpuMemory::new(0x10_0000_0000, 1 << 20);
        let total = mem.free_bytes();
        {
            let b = mem.alloc(100_000).unwrap();
            assert_eq!(b.len(), 100_000);
            assert!(b.capacity() >= 100_000);
            assert!(mem.free_bytes() < total);
        }
        assert_eq!(mem.free_bytes(), total);
    }

    #[test]
    fn oom_reports_free_bytes() {
        let mem = GpuMemory::new(0, 64 * 1024);
        let _a = mem.alloc(48 * 1024).unwrap();
        let err = mem.alloc(32 * 1024).unwrap_err();
        assert_eq!(err.requested, 32 * 1024);
        assert_eq!(err.free, 16 * 1024);
        assert!(err.to_string().contains("out of memory"));
    }

    #[test]
    fn buffers_are_disjoint_and_addressable() {
        let mem = GpuMemory::new(0x1000, 1 << 20);
        let a = mem.alloc(8192).unwrap();
        let b = mem.alloc(8192).unwrap();
        assert_ne!(a.addr(), b.addr());
        a.write(0, &[1u8; 8192]);
        b.write(0, &[2u8; 8192]);
        assert!(a.to_vec().iter().all(|&x| x == 1));
        assert!(b.to_vec().iter().all(|&x| x == 2));
    }

    #[test]
    fn region_is_shared_dma_space() {
        let mem = GpuMemory::new(0x4000_0000, 1 << 20);
        let buf = mem.alloc(4096).unwrap();
        buf.write(0, b"hello, dma");
        // A "device" resolves the same bytes through the region.
        let region = mem.region();
        let mut out = [0u8; 10];
        region.dma_read(buf.addr(), &mut out).unwrap();
        assert_eq!(&out, b"hello, dma");
    }

    #[test]
    fn write_read_roundtrip_with_offsets() {
        let mem = GpuMemory::new(0, 1 << 20);
        let buf = mem.alloc(10_000).unwrap();
        let data: Vec<u8> = (0..5000).map(|i| (i % 251) as u8).collect();
        buf.write(3000, &data);
        let mut out = vec![0u8; 5000];
        buf.read(3000, &mut out);
        assert_eq!(out, data);
    }

    #[test]
    fn cam_free_returns_the_extent_not_the_bytes() {
        let mem = GpuMemory::new(0, 1 << 20);
        let region = mem.region();
        let a = mem.alloc(8192).unwrap();
        assert!(a.to_vec().iter().all(|&x| x == 0), "untouched reads zero");
        assert_eq!(region.resident_pages(), 0);
        a.write(0, &[0x5Au8; 8192]);
        let addr = a.addr();
        drop(a);
        // `CAM_free` hands the extent back to the allocator; the pinned
        // pages keep their bytes, and the next `CAM_alloc` of it sees them.
        let b = mem.alloc(8192).unwrap();
        assert_eq!(b.addr(), addr);
        assert!(b.to_vec().iter().all(|&x| x == 0x5A));
        assert_eq!(region.resident_pages(), 2);
    }

    #[test]
    #[should_panic(expected = "write out of buffer")]
    fn overflow_write_panics() {
        let mem = GpuMemory::new(0, 1 << 20);
        let buf = mem.alloc(4096).unwrap();
        buf.write(4000, &[0u8; 200]);
    }
}
