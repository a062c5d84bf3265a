//! [`MiniFs`] — a minimal extent-based filesystem over a raw block store.
//!
//! Exists to make the paper's "file system" layer cost *real* rather than a
//! bare constant: files are allocated as extents that can be fragmented
//! (files "are not always mapped to continuous blocks", § II-A), so every
//! O_DIRECT-style read must first translate (file, offset) → LBA runs. The
//! POSIX and GDS baselines in `cam-iostacks` run on this; CAM bypasses it by
//! requiring raw block devices (§ III-C, limitation 1).

use std::collections::HashMap;
use std::fmt;
use std::sync::atomic::{AtomicU32, AtomicU64, Ordering};
use std::sync::Arc;

use cam_blockdev::{BlockError, BlockStore, Extent, ExtentAllocator, Lba};
use parking_lot::{Mutex, RwLock};

/// Handle to a file in a [`MiniFs`].
#[derive(Clone, Copy, PartialEq, Eq, Hash, Debug)]
pub struct FileId(u32);

/// Filesystem errors.
#[derive(Clone, Copy, PartialEq, Eq, Debug)]
pub enum FsError {
    /// Not enough contiguous-or-fragmented space for the file.
    NoSpace,
    /// Unknown file handle.
    NoSuchFile,
    /// Access past the end of the file.
    BeyondEof,
    /// Offset or length not block-aligned (O_DIRECT semantics).
    Misaligned,
    /// Underlying store error.
    Store(BlockError),
}

impl fmt::Display for FsError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            FsError::NoSpace => write!(f, "no space left on device"),
            FsError::NoSuchFile => write!(f, "no such file"),
            FsError::BeyondEof => write!(f, "access beyond end of file"),
            FsError::Misaligned => write!(f, "offset/length not block-aligned"),
            FsError::Store(e) => write!(f, "store error: {e}"),
        }
    }
}

impl std::error::Error for FsError {}

struct FileMeta {
    size_bytes: u64,
    extents: Vec<Extent>,
}

/// The filesystem. Thread-safe; lookups are counted so experiments can
/// report LBA-retrieval work.
pub struct MiniFs {
    store: Arc<dyn BlockStore>,
    alloc: Mutex<ExtentAllocator>,
    files: RwLock<HashMap<u32, FileMeta>>,
    next_id: AtomicU32,
    lookups: AtomicU64,
}

impl MiniFs {
    /// Formats (takes over) a block store.
    pub fn format(store: Arc<dyn BlockStore>) -> Self {
        let blocks = store.geometry().blocks;
        MiniFs {
            store,
            alloc: Mutex::new(ExtentAllocator::new(blocks)),
            files: RwLock::new(HashMap::new()),
            next_id: AtomicU32::new(1),
            lookups: AtomicU64::new(0),
        }
    }

    /// Block size of the underlying store.
    pub fn block_size(&self) -> u32 {
        self.store.geometry().block_size
    }

    /// Creates a file of `size_bytes`, allocated in extents of at most
    /// `max_extent_blocks` (smaller values model fragmentation).
    pub fn create_with_max_extent(
        &self,
        size_bytes: u64,
        max_extent_blocks: u64,
    ) -> Result<FileId, FsError> {
        assert!(max_extent_blocks >= 1);
        let bs = self.block_size() as u64;
        let mut remaining = size_bytes.div_ceil(bs);
        let mut extents = Vec::new();
        let mut alloc = self.alloc.lock();
        while remaining > 0 {
            let want = remaining.min(max_extent_blocks);
            // First fit at the wanted size, falling back to whatever run
            // exists (so nearly-full disks still fill up, fragmenting).
            let got = alloc.alloc(want).or_else(|| {
                let mut sz = want / 2;
                while sz >= 1 {
                    if let Some(e) = alloc.alloc(sz) {
                        return Some(e);
                    }
                    sz /= 2;
                }
                None
            });
            match got {
                Some(e) => {
                    remaining -= e.blocks;
                    extents.push(e);
                }
                None => {
                    for e in extents {
                        alloc.free(e);
                    }
                    return Err(FsError::NoSpace);
                }
            }
        }
        drop(alloc);
        let id = self.next_id.fetch_add(1, Ordering::Relaxed);
        self.files.write().insert(
            id,
            FileMeta {
                size_bytes,
                extents,
            },
        );
        Ok(FileId(id))
    }

    /// Creates a file with the default maximal extent size (128 MiB worth
    /// of blocks, like ext4's extent limit order of magnitude).
    pub fn create(&self, size_bytes: u64) -> Result<FileId, FsError> {
        let max = (128u64 << 20) / self.block_size() as u64;
        self.create_with_max_extent(size_bytes, max.max(1))
    }

    /// Deletes a file, freeing its extents (how the tests fragment the
    /// free space; no I/O stack deletes files).
    #[cfg(test)]
    fn delete(&self, file: FileId) -> Result<(), FsError> {
        let meta = self
            .files
            .write()
            .remove(&file.0)
            .ok_or(FsError::NoSuchFile)?;
        let mut alloc = self.alloc.lock();
        for e in meta.extents {
            alloc.free(e);
        }
        Ok(())
    }

    /// Number of extents backing the file (fragmentation indicator).
    #[cfg(test)]
    fn extent_count(&self, file: FileId) -> Result<usize, FsError> {
        self.files
            .read()
            .get(&file.0)
            .map(|m| m.extents.len())
            .ok_or(FsError::NoSuchFile)
    }

    /// Total LBA lookups performed (the "file system layer" work).
    pub fn lookup_count(&self) -> u64 {
        self.lookups.load(Ordering::Relaxed)
    }

    /// Translates `(file, offset, len)` into contiguous `(Lba, blocks)`
    /// runs — the logical-block-address retrieval every kernel-path request
    /// performs. Offset and length must be block-aligned.
    pub fn lookup(&self, file: FileId, offset: u64, len: u64) -> Result<Vec<(Lba, u64)>, FsError> {
        self.lookups.fetch_add(1, Ordering::Relaxed);
        let bs = self.block_size() as u64;
        if !offset.is_multiple_of(bs) || !len.is_multiple_of(bs) || len == 0 {
            return Err(FsError::Misaligned);
        }
        let files = self.files.read();
        let meta = files.get(&file.0).ok_or(FsError::NoSuchFile)?;
        let file_blocks = meta.size_bytes.div_ceil(bs);
        let mut block = offset / bs;
        let mut remaining = len / bs;
        if block + remaining > file_blocks {
            return Err(FsError::BeyondEof);
        }
        let mut runs: Vec<(Lba, u64)> = Vec::new();
        // Walk extents to find the run containing `block`.
        let mut skipped = 0u64;
        for e in &meta.extents {
            if remaining == 0 {
                break;
            }
            if block >= skipped + e.blocks {
                skipped += e.blocks;
                continue;
            }
            let within = block - skipped;
            let take = (e.blocks - within).min(remaining);
            let lba = e.start + within;
            match runs.last_mut() {
                Some((last_lba, last_n)) if last_lba.index() + *last_n == lba.index() => {
                    *last_n += take;
                }
                _ => runs.push((lba, take)),
            }
            block += take;
            remaining -= take;
            skipped += e.blocks;
        }
        debug_assert_eq!(remaining, 0, "extent walk must cover the range");
        Ok(runs)
    }

    /// O_DIRECT-style read: block-aligned offset and buffer.
    pub fn read(&self, file: FileId, offset: u64, buf: &mut [u8]) -> Result<(), FsError> {
        let bs = self.block_size() as usize;
        let runs = self.lookup(file, offset, buf.len() as u64)?;
        let mut done = 0usize;
        for (lba, blocks) in runs {
            let n = blocks as usize * bs;
            self.store
                .read(lba, &mut buf[done..done + n])
                .map_err(FsError::Store)?;
            done += n;
        }
        Ok(())
    }

    /// O_DIRECT-style write: block-aligned offset and buffer.
    pub fn write(&self, file: FileId, offset: u64, buf: &[u8]) -> Result<(), FsError> {
        let bs = self.block_size() as usize;
        let runs = self.lookup(file, offset, buf.len() as u64)?;
        let mut done = 0usize;
        for (lba, blocks) in runs {
            let n = blocks as usize * bs;
            self.store
                .write(lba, &buf[done..done + n])
                .map_err(FsError::Store)?;
            done += n;
        }
        Ok(())
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use cam_blockdev::{BlockGeometry, SparseMemStore};

    fn fs_with(blocks: u64) -> MiniFs {
        MiniFs::format(Arc::new(SparseMemStore::new(BlockGeometry::new(
            512, blocks,
        ))))
    }

    #[test]
    fn create_read_write_round_trip() {
        let fs = fs_with(1024);
        let f = fs.create(10 * 512).unwrap();
        let data: Vec<u8> = (0..2048).map(|i| (i % 241) as u8).collect();
        fs.write(f, 512, &data).unwrap();
        let mut out = vec![0u8; 2048];
        fs.read(f, 512, &mut out).unwrap();
        assert_eq!(out, data);
    }

    #[test]
    fn fragmented_files_span_multiple_extents() {
        let fs = fs_with(1024);
        let f = fs.create_with_max_extent(100 * 512, 16).unwrap();
        assert_eq!(fs.extent_count(f).unwrap(), 100usize.div_ceil(16));
        // Data still reads back correctly across fragment boundaries.
        let data: Vec<u8> = (0..100 * 512).map(|i| (i % 233) as u8).collect();
        fs.write(f, 0, &data).unwrap();
        let mut out = vec![0u8; data.len()];
        fs.read(f, 0, &mut out).unwrap();
        assert_eq!(out, data);
    }

    #[test]
    fn deletions_fragment_later_files() {
        // Fill the disk with small files, delete every other one, then
        // allocate a large file into the holes: its LBA runs cannot be
        // contiguous — the situation that forces real filesystems to do
        // per-request LBA lookup.
        let fs = fs_with(128);
        let files: Vec<FileId> = (0..16)
            .map(|_| fs.create_with_max_extent(8 * 512, 8).unwrap())
            .collect();
        for f in files.iter().step_by(2) {
            fs.delete(*f).unwrap();
        }
        let big = fs.create(64 * 512).unwrap();
        let runs = fs.lookup(big, 0, 64 * 512).unwrap();
        assert!(runs.len() > 1, "expected fragmentation, got {runs:?}");
        // Still reads back correctly across the scattered runs.
        let data: Vec<u8> = (0..64 * 512).map(|i| (i % 229) as u8).collect();
        fs.write(big, 0, &data).unwrap();
        let mut out = vec![0u8; data.len()];
        fs.read(big, 0, &mut out).unwrap();
        assert_eq!(out, data);
    }

    #[test]
    fn lookup_coalesces_adjacent_extents() {
        let fs = fs_with(1024);
        // Two extents allocated back-to-back are physically contiguous,
        // so lookup should return one run.
        let f = fs.create_with_max_extent(32 * 512, 16).unwrap();
        assert_eq!(fs.extent_count(f).unwrap(), 2);
        let runs = fs.lookup(f, 0, 32 * 512).unwrap();
        assert_eq!(runs.len(), 1);
        assert_eq!(runs[0].1, 32);
    }

    #[test]
    fn lookup_counts_accumulate() {
        let fs = fs_with(256);
        let f = fs.create(512).unwrap();
        let before = fs.lookup_count();
        let mut buf = vec![0u8; 512];
        fs.read(f, 0, &mut buf).unwrap();
        fs.read(f, 0, &mut buf).unwrap();
        assert_eq!(fs.lookup_count() - before, 2);
    }

    #[test]
    fn alignment_and_bounds_enforced() {
        let fs = fs_with(256);
        let f = fs.create(4 * 512).unwrap();
        let mut buf = vec![0u8; 512];
        assert_eq!(fs.read(f, 100, &mut buf), Err(FsError::Misaligned));
        assert_eq!(fs.read(f, 4 * 512, &mut buf), Err(FsError::BeyondEof));
        let mut odd = vec![0u8; 100];
        assert_eq!(fs.read(f, 0, &mut odd), Err(FsError::Misaligned));
    }

    #[test]
    fn delete_frees_space() {
        let fs = fs_with(64);
        let f = fs.create(64 * 512).unwrap();
        assert!(matches!(fs.create(512), Err(FsError::NoSpace)));
        fs.delete(f).unwrap();
        assert!(fs.create(64 * 512).is_ok());
        assert_eq!(fs.delete(f), Err(FsError::NoSuchFile));
    }

    #[test]
    fn no_space_rolls_back_partial_allocation() {
        let fs = fs_with(64);
        let _a = fs.create(32 * 512).unwrap();
        assert!(matches!(fs.create(40 * 512), Err(FsError::NoSpace)));
        // The failed create must not leak its partial extents.
        fs.create(32 * 512).unwrap();
    }
}
