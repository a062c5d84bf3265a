//! The [`BlockStore`] trait and the sparse in-memory implementation that
//! stands in for multi-terabyte SSD media.
//!
//! Blocks are shared, copy-on-write `Arc<[u8]>` buffers: a device lends a
//! media block to pinned memory by reference ([`BlockStore::read_blocks`])
//! and hands the store a pinned page's buffer the same way
//! ([`BlockStore::write_blocks`]), so a whole-page transfer moves a
//! reference instead of its bytes. Copy semantics hold throughout: a block
//! shared with a page is never written in place — [`BlockStore::write`]
//! replaces it with a fresh buffer, and the page keeps the old bytes.
//!
//! A device runs a whole burst of commands in one [`BlockStore::session`]:
//! [`SparseMemStore`] takes its one lock once for the burst, not once per
//! block. One service thread serves every SSD of an array, so the store's
//! lock separates that thread only from host-side loads and checks.

use std::collections::HashMap;
use std::fmt;
use std::hash::{BuildHasherDefault, Hasher};
#[cfg(debug_assertions)]
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::Arc;

use parking_lot::{Mutex, MutexGuard};

use crate::lba::{BlockGeometry, Lba};

/// Errors from block-store operations.
#[derive(Clone, Copy, PartialEq, Eq, Debug)]
pub enum BlockError {
    /// The addressed range falls outside the store.
    OutOfRange {
        /// First block of the attempted access.
        lba: Lba,
        /// Number of blocks in the attempted access.
        count: u64,
        /// Store capacity in blocks.
        blocks: u64,
    },
    /// The buffer length is not a nonzero multiple of the block size.
    BadBuffer {
        /// Buffer length supplied.
        len: usize,
        /// Store block size.
        block_size: u32,
    },
    /// The media failed the access (injected by [`crate::FaultyStore`]).
    /// Transient media errors clear on a later attempt; permanent ones
    /// never do.
    Media {
        /// First block of the failed access.
        lba: Lba,
        /// Whether a retry of the same access may succeed.
        transient: bool,
    },
}

impl fmt::Display for BlockError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            BlockError::OutOfRange { lba, count, blocks } => {
                write!(f, "{count} blocks at {lba} exceed capacity {blocks}")
            }
            BlockError::BadBuffer { len, block_size } => {
                write!(
                    f,
                    "buffer of {len} bytes is not a nonzero multiple of block size {block_size}"
                )
            }
            BlockError::Media { lba, transient } => {
                let class = if *transient { "transient" } else { "permanent" };
                write!(f, "{class} media error at {lba}")
            }
        }
    }
}

impl std::error::Error for BlockError {}

/// Raw block storage: whole-block reads and writes, no filesystem.
///
/// A store implements one access path, the block visitors; the byte-slice
/// [`read`](Self::read) and [`write`](Self::write) are built on them. A
/// visitor runs only once the whole access is valid and passes the store's
/// own checks, but a store over members (`Raid0`) visits the runs of
/// earlier members before a later member fails.
///
/// Implementations must be thread-safe; simulated NVMe devices service
/// queues from their own threads while workloads touch other ranges.
pub trait BlockStore: Send + Sync {
    /// Block size and capacity.
    fn geometry(&self) -> BlockGeometry;

    /// Visits the `count` blocks starting at `lba` in order, lending each
    /// block's shared buffer to `visit(index within the access, block)` —
    /// the device read path: a device DMA-writes each lent block to its
    /// destination, by reference where the destination is a whole pinned
    /// page, so a block's bytes are copied at most once (media → page).
    /// Blocks never written read as zeroes. A store that holds blocks in
    /// memory lends them in place, under whatever lock guards them, so
    /// `visit` must not call back into the store; a wrapper forwards to its
    /// inner store after its own checks (`FaultyStore`).
    fn read_blocks(
        &self,
        lba: Lba,
        count: u64,
        visit: &mut dyn FnMut(usize, &Arc<[u8]>),
    ) -> Result<(), BlockError>;

    /// Writes the `count` blocks starting at `lba` in order, lending each
    /// block's buffer to `fill(index within the access, block)`, which
    /// overwrites all of it with the block's new content — the device write
    /// path. `fill` may write into the buffer in place only when it is
    /// unique (`Arc::get_mut`); otherwise it replaces it, for instance with
    /// a pinned page's buffer taken by reference. A store that holds blocks
    /// in memory lends them in place (under its lock, so `fill` must not
    /// call back into the store); a wrapper forwards after its own checks.
    fn write_blocks(
        &self,
        lba: Lba,
        count: u64,
        fill: &mut dyn FnMut(usize, &mut Arc<[u8]>),
    ) -> Result<(), BlockError>;

    /// Runs `run` with a [`BlockSession`] through which it may make any
    /// number of block accesses — a device's burst of commands. A store
    /// that holds its blocks under one lock takes it once for the whole
    /// session, so `run` must not call back into the store. The default
    /// session forwards each access to [`read_blocks`](Self::read_blocks)
    /// or [`write_blocks`](Self::write_blocks), which lock on their own.
    fn session(&self, run: &mut dyn FnMut(&mut dyn BlockSession)) {
        run(&mut PerAccess(self))
    }

    /// Reads `buf.len() / block_size` blocks starting at `lba`, copying
    /// each block [`read_blocks`](Self::read_blocks) lends.
    fn read(&self, lba: Lba, buf: &mut [u8]) -> Result<(), BlockError> {
        let count = self.check_access(lba, buf.len())?;
        let bs = self.geometry().block_size as usize;
        self.read_blocks(lba, count, &mut |i, block| {
            buf[i * bs..(i + 1) * bs].copy_from_slice(block);
        })
    }

    /// Writes `buf.len() / block_size` blocks starting at `lba` through
    /// [`write_blocks`](Self::write_blocks): a block no one else holds is
    /// overwritten in place, a shared one is replaced by a fresh buffer.
    fn write(&self, lba: Lba, buf: &[u8]) -> Result<(), BlockError> {
        let count = self.check_access(lba, buf.len())?;
        let bs = self.geometry().block_size as usize;
        self.write_blocks(lba, count, &mut |i, block| {
            let src = &buf[i * bs..(i + 1) * bs];
            match Arc::get_mut(block) {
                Some(own) => own.copy_from_slice(src),
                None => *block = Arc::from(src),
            }
        })
    }

    /// Validates a `count`-block access and returns its length in bytes.
    fn check_blocks(&self, lba: Lba, count: u64) -> Result<usize, BlockError> {
        let g = self.geometry();
        let len = usize::try_from(count)
            .ok()
            .and_then(|c| c.checked_mul(g.block_size as usize))
            .ok_or(BlockError::OutOfRange {
                lba,
                count,
                blocks: g.blocks,
            })?;
        self.check_access(lba, len)?;
        Ok(len)
    }

    /// Validates an access and returns its block count.
    fn check_access(&self, lba: Lba, len: usize) -> Result<u64, BlockError> {
        let g = self.geometry();
        if len == 0 || !len.is_multiple_of(g.block_size as usize) {
            return Err(BlockError::BadBuffer {
                len,
                block_size: g.block_size,
            });
        }
        let count = (len / g.block_size as usize) as u64;
        if !g.contains(lba, count) {
            return Err(BlockError::OutOfRange {
                lba,
                count,
                blocks: g.blocks,
            });
        }
        Ok(count)
    }
}

/// Block accesses inside a [`BlockStore::session`]: the store's
/// [`read_blocks`](BlockStore::read_blocks) and
/// [`write_blocks`](BlockStore::write_blocks), with the same checks and
/// visitors, under the session's hold of the store's lock.
pub trait BlockSession {
    /// [`BlockStore::read_blocks`] inside the session.
    fn read_blocks(
        &mut self,
        lba: Lba,
        count: u64,
        visit: &mut dyn FnMut(usize, &Arc<[u8]>),
    ) -> Result<(), BlockError>;

    /// [`BlockStore::write_blocks`] inside the session.
    fn write_blocks(
        &mut self,
        lba: Lba,
        count: u64,
        fill: &mut dyn FnMut(usize, &mut Arc<[u8]>),
    ) -> Result<(), BlockError>;
}

/// The default session: every access locks on its own.
struct PerAccess<'a, S: ?Sized>(&'a S);

impl<S: BlockStore + ?Sized> BlockSession for PerAccess<'_, S> {
    fn read_blocks(
        &mut self,
        lba: Lba,
        count: u64,
        visit: &mut dyn FnMut(usize, &Arc<[u8]>),
    ) -> Result<(), BlockError> {
        self.0.read_blocks(lba, count, visit)
    }

    fn write_blocks(
        &mut self,
        lba: Lba,
        count: u64,
        fill: &mut dyn FnMut(usize, &mut Arc<[u8]>),
    ) -> Result<(), BlockError> {
        self.0.write_blocks(lba, count, fill)
    }
}

/// Hashes a block number by Fibonacci multiplication — no SipHash. The
/// workload picks the blocks, not an adversary, so a collision-resistant
/// hash buys nothing here. The product's well-mixed high half is rotated
/// down to the low bits, which pick the bucket; its low half, on top, still
/// varies for the bucket tags.
#[derive(Default)]
struct BlockHasher(u64);

impl Hasher for BlockHasher {
    fn finish(&self) -> u64 {
        self.0.wrapping_mul(0x9E37_79B9_7F4A_7C15).rotate_left(32)
    }

    fn write(&mut self, bytes: &[u8]) {
        for &b in bytes {
            self.0 = self.0.rotate_left(8) ^ u64::from(b);
        }
    }

    fn write_u64(&mut self, block: u64) {
        self.0 = block;
    }
}

/// The store's blocks, keyed by block number.
type Blocks = HashMap<u64, Arc<[u8]>, BuildHasherDefault<BlockHasher>>;

/// A sparse, thread-safe in-memory block store.
///
/// Only blocks that have been written consume memory, so a simulated
/// 3.84 TB P5510 namespace costs nothing until data lands on it. One lock
/// guards every block: a device takes it once per burst
/// ([`BlockStore::session`]), and every other access once per call. A
/// block may share its buffer with pinned pages (see the module docs), so
/// [`resident_blocks`](Self::resident_blocks) counts blocks, not bytes
/// this store alone pays for.
pub struct SparseMemStore {
    geometry: BlockGeometry,
    blocks: Mutex<Blocks>,
    /// What every never-written block reads as; lent by `read_blocks` and
    /// `write_blocks`. Always shared (this field holds it), so never
    /// written in place.
    zero_block: Arc<[u8]>,
    /// Acquisitions of `blocks` so far (debug builds only).
    #[cfg(debug_assertions)]
    locks: AtomicU64,
}

impl SparseMemStore {
    /// Creates an empty store with the given geometry.
    pub fn new(geometry: BlockGeometry) -> Self {
        SparseMemStore {
            geometry,
            blocks: Mutex::new(Blocks::default()),
            zero_block: std::iter::repeat_n(0, geometry.block_size as usize).collect(),
            #[cfg(debug_assertions)]
            locks: AtomicU64::new(0),
        }
    }

    /// A session over the locked blocks.
    fn lock(&self) -> MemSession<'_> {
        #[cfg(debug_assertions)]
        self.locks.fetch_add(1, Ordering::Relaxed);
        MemSession {
            store: self,
            blocks: self.blocks.lock(),
        }
    }

    /// Number of blocks currently materialized in memory.
    pub fn resident_blocks(&self) -> usize {
        self.lock().blocks.len()
    }

    /// How many times this store has taken its lock so far: once per
    /// [`BlockStore::session`] and once per access outside one. Exists
    /// only in debug builds, for tests that hold a data path to a lock
    /// budget (`crates/nvme/tests/lock_budget.rs`).
    #[cfg(debug_assertions)]
    pub fn locks_taken(&self) -> u64 {
        self.locks.load(Ordering::Relaxed)
    }
}

/// A [`SparseMemStore`] session: its blocks, locked.
struct MemSession<'a> {
    store: &'a SparseMemStore,
    blocks: MutexGuard<'a, Blocks>,
}

impl BlockSession for MemSession<'_> {
    fn read_blocks(
        &mut self,
        lba: Lba,
        count: u64,
        visit: &mut dyn FnMut(usize, &Arc<[u8]>),
    ) -> Result<(), BlockError> {
        self.store.check_blocks(lba, count)?;
        // The lock is held while the visitor runs, so the lent block
        // cannot be replaced under it.
        for i in 0..count {
            let block = self.blocks.get(&(lba.0 + i));
            visit(i as usize, block.unwrap_or(&self.store.zero_block));
        }
        Ok(())
    }

    fn write_blocks(
        &mut self,
        lba: Lba,
        count: u64,
        fill: &mut dyn FnMut(usize, &mut Arc<[u8]>),
    ) -> Result<(), BlockError> {
        self.store.check_blocks(lba, count)?;
        // `fill` runs under the lock: no reader can clone the block while
        // it is written in place.
        for i in 0..count {
            let block = self
                .blocks
                .entry(lba.0 + i)
                .or_insert_with(|| Arc::clone(&self.store.zero_block));
            fill(i as usize, block);
        }
        Ok(())
    }
}

impl BlockStore for SparseMemStore {
    fn geometry(&self) -> BlockGeometry {
        self.geometry
    }

    fn read_blocks(
        &self,
        lba: Lba,
        count: u64,
        visit: &mut dyn FnMut(usize, &Arc<[u8]>),
    ) -> Result<(), BlockError> {
        self.lock().read_blocks(lba, count, visit)
    }

    fn write_blocks(
        &self,
        lba: Lba,
        count: u64,
        fill: &mut dyn FnMut(usize, &mut Arc<[u8]>),
    ) -> Result<(), BlockError> {
        self.lock().write_blocks(lba, count, fill)
    }

    fn session(&self, run: &mut dyn FnMut(&mut dyn BlockSession)) {
        run(&mut self.lock())
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::sync::Arc;

    fn store() -> SparseMemStore {
        SparseMemStore::new(BlockGeometry::new(512, 1000))
    }

    #[test]
    fn unwritten_blocks_read_zero() {
        let s = store();
        let mut buf = vec![0xAAu8; 1024];
        s.read(Lba(0), &mut buf).unwrap();
        assert!(buf.iter().all(|&b| b == 0));
        assert_eq!(s.resident_blocks(), 0);
    }

    #[test]
    fn read_after_write_round_trips() {
        let s = store();
        let data: Vec<u8> = (0..1536).map(|i| (i % 251) as u8).collect();
        s.write(Lba(10), &data).unwrap();
        let mut out = vec![0u8; 1536];
        s.read(Lba(10), &mut out).unwrap();
        assert_eq!(out, data);
        assert_eq!(s.resident_blocks(), 3);
    }

    #[test]
    fn partial_overwrite_is_block_granular() {
        let s = store();
        s.write(Lba(0), &[1u8; 1024]).unwrap();
        s.write(Lba(1), &[2u8; 512]).unwrap();
        let mut out = vec![0u8; 1024];
        s.read(Lba(0), &mut out).unwrap();
        assert!(out[..512].iter().all(|&b| b == 1));
        assert!(out[512..].iter().all(|&b| b == 2));
    }

    #[test]
    fn overwrite_reuses_the_resident_block() {
        let s = store();
        s.write(Lba(4), &[1u8; 1024]).unwrap();
        assert_eq!(s.resident_blocks(), 2);
        s.write(Lba(4), &[9u8; 1024]).unwrap();
        s.write(Lba(5), &[7u8; 512]).unwrap();
        assert_eq!(s.resident_blocks(), 2, "overwrites materialize nothing");
        let mut out = vec![0u8; 1024];
        s.read(Lba(4), &mut out).unwrap();
        assert!(out[..512].iter().all(|&b| b == 9));
        assert!(out[512..].iter().all(|&b| b == 7));
    }

    #[test]
    fn read_blocks_lends_resident_and_zero_blocks_in_order() {
        let s = store();
        s.write(Lba(11), &[5u8; 512]).unwrap();
        let mut seen = Vec::new();
        s.read_blocks(Lba(10), 3, &mut |i, block| {
            assert_eq!(block.len(), 512);
            seen.push((i, block[0], block[511]));
        })
        .unwrap();
        assert_eq!(seen, vec![(0, 0, 0), (1, 5, 5), (2, 0, 0)]);
        assert_eq!(s.resident_blocks(), 1, "reading materializes nothing");
        // Invalid accesses are rejected before any block is lent.
        let mut calls = 0;
        assert!(matches!(
            s.read_blocks(Lba(999), 2, &mut |_, _| calls += 1),
            Err(BlockError::OutOfRange { count: 2, .. })
        ));
        assert!(matches!(
            s.read_blocks(Lba(0), 0, &mut |_, _| calls += 1),
            Err(BlockError::BadBuffer { len: 0, .. })
        ));
        assert!(s
            .read_blocks(Lba(0), u64::MAX, &mut |_, _| calls += 1)
            .is_err());
        assert_eq!(calls, 0);
    }

    #[test]
    fn a_shared_block_is_never_written_in_place() {
        let s = store();
        s.write(Lba(0), &[1u8; 512]).unwrap();
        let mut held = Vec::new();
        s.read_blocks(Lba(0), 1, &mut |_, block| held.push(Arc::clone(block)))
            .unwrap();
        s.write(Lba(0), &[2u8; 512]).unwrap();
        assert!(held[0].iter().all(|&b| b == 1), "the holder saw a write");
        let mut out = [0u8; 512];
        s.read(Lba(0), &mut out).unwrap();
        assert!(out.iter().all(|&b| b == 2));
    }

    #[test]
    fn write_blocks_lends_owned_blocks_unique_and_the_rest_shared() {
        let s = store();
        s.write(Lba(4), &[3u8; 512]).unwrap();
        // Block 4 is resident and no one else holds it; block 5 was never
        // written and is lent as the shared zero block.
        s.write_blocks(Lba(4), 2, &mut |i, block| {
            assert_eq!(block[0], [3, 0][i]);
            match Arc::get_mut(block) {
                Some(own) => own.fill(8),
                None => *block = Arc::from(&[9u8; 512][..]),
            }
        })
        .unwrap();
        let mut out = vec![0u8; 1024];
        s.read(Lba(4), &mut out).unwrap();
        assert!(out[..512].iter().all(|&b| b == 8));
        assert!(out[512..].iter().all(|&b| b == 9));
        assert_eq!(s.resident_blocks(), 2);
        let mut calls = 0;
        assert!(s.write_blocks(Lba(999), 2, &mut |_, _| calls += 1).is_err());
        assert_eq!(calls, 0);
    }

    #[test]
    fn out_of_range_rejected() {
        let s = store();
        let mut buf = vec![0u8; 1024];
        assert_eq!(
            s.read(Lba(999), &mut buf),
            Err(BlockError::OutOfRange {
                lba: Lba(999),
                count: 2,
                blocks: 1000
            })
        );
    }

    #[test]
    fn misaligned_buffer_rejected() {
        let s = store();
        let mut buf = vec![0u8; 100];
        assert!(matches!(
            s.read(Lba(0), &mut buf),
            Err(BlockError::BadBuffer { len: 100, .. })
        ));
        assert!(matches!(
            s.write(Lba(0), &[]),
            Err(BlockError::BadBuffer { len: 0, .. })
        ));
    }

    #[test]
    fn concurrent_disjoint_writes() {
        let s = Arc::new(SparseMemStore::new(BlockGeometry::new(512, 4096)));
        let mut handles = Vec::new();
        for t in 0u64..8 {
            let s = Arc::clone(&s);
            handles.push(std::thread::spawn(move || {
                let pattern = vec![t as u8 + 1; 512];
                for b in (t * 512)..(t * 512 + 512) {
                    s.write(Lba(b), &pattern).unwrap();
                }
            }));
        }
        for h in handles {
            h.join().unwrap();
        }
        let mut buf = vec![0u8; 512];
        for t in 0u64..8 {
            s.read(Lba(t * 512 + 100), &mut buf).unwrap();
            assert!(buf.iter().all(|&b| b == t as u8 + 1));
        }
        assert_eq!(s.resident_blocks(), 8 * 512);
    }

    #[test]
    fn block_runs_spread_over_the_bucket_bits() {
        use std::hash::BuildHasher;
        let hasher = BuildHasherDefault::<BlockHasher>::default();
        // Dense and striped block runs alike: the bucket index is the
        // hash's low bits.
        for stride in [1u64, 12, 64] {
            let keys: Vec<u64> = (0..1 << 12).map(|i| i * stride).collect();
            let buckets = 2 * keys.len().next_power_of_two() as u64;
            let mut used: Vec<u64> = keys
                .iter()
                .map(|&b| hasher.hash_one(b) & (buckets - 1))
                .collect();
            used.sort_unstable();
            used.dedup();
            // A random hash fills ~79 % of as many buckets as keys here.
            assert!(
                used.len() * 10 >= keys.len() * 7,
                "stride {stride}: {} keys in {} buckets",
                keys.len(),
                used.len()
            );
        }
    }

    #[test]
    fn a_session_takes_the_lock_once() {
        let s = store();
        s.write(Lba(3), &[4u8; 512]).unwrap();
        #[cfg(debug_assertions)]
        let before = s.locks_taken();
        let mut seen = Vec::new();
        s.session(&mut |media| {
            for lba in 0..6 {
                media
                    .read_blocks(Lba(lba), 1, &mut |_, b| seen.push(b[0]))
                    .unwrap();
            }
            media
                .write_blocks(Lba(0), 2, &mut |i, b| {
                    *b = Arc::from(&[i as u8 + 1; 512][..])
                })
                .unwrap();
            assert!(media.read_blocks(Lba(999), 2, &mut |_, _| ()).is_err());
        });
        #[cfg(debug_assertions)]
        assert_eq!(s.locks_taken() - before, 1);
        assert_eq!(seen, [0, 0, 0, 4, 0, 0]);
        let mut out = [0u8; 1024];
        s.read(Lba(0), &mut out).unwrap();
        assert_eq!((out[0], out[512]), (1, 2));
    }

    #[test]
    fn error_display() {
        let e = BlockError::BadBuffer {
            len: 7,
            block_size: 512,
        };
        assert!(e.to_string().contains("7 bytes"));
    }
}
