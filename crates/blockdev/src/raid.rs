//! [`Raid0`] — stripe aggregation across block stores.
//!
//! The paper's POSIX baseline presents 12 SSDs as one RAID-0 array
//! ("we create a widely adopted method of RAID 0 array to support multiple
//! SSDs because POSIX I/O doesn't support varying SSD numbers", § IV-B).
//! CAM itself also stripes datasets across SSDs; this type provides the
//! address math for both.

use std::sync::Arc;

use crate::lba::{BlockGeometry, Lba};
use crate::store::{BlockError, BlockStore};

/// A RAID-0 (striping) view over equal-geometry child stores. An access
/// visits each member's run in turn; a member that fails ends it after
/// the runs before were visited (or written). No device reads through it.
pub struct Raid0 {
    children: Vec<Arc<dyn BlockStore>>,
    stripe_blocks: u64,
    geometry: BlockGeometry,
}

impl Raid0 {
    /// Builds a stripe set. All children must share a block size; the array
    /// capacity is `n × min(child blocks)` rounded down to whole stripes.
    ///
    /// # Panics
    /// If `children` is empty, `stripe_blocks` is zero, or block sizes differ.
    pub fn new(children: Vec<Arc<dyn BlockStore>>, stripe_blocks: u64) -> Self {
        assert!(!children.is_empty(), "RAID-0 needs at least one member");
        assert!(stripe_blocks > 0, "stripe size must be at least one block");
        let block_size = children[0].geometry().block_size;
        let mut min_blocks = u64::MAX;
        for c in &children {
            let g = c.geometry();
            assert_eq!(
                g.block_size, block_size,
                "RAID-0 members must share a block size"
            );
            min_blocks = min_blocks.min(g.blocks);
        }
        let usable_per_child = (min_blocks / stripe_blocks) * stripe_blocks;
        let geometry = BlockGeometry::new(block_size, usable_per_child * children.len() as u64);
        Raid0 {
            children,
            stripe_blocks,
            geometry,
        }
    }

    /// Number of member stores.
    pub fn width(&self) -> usize {
        self.children.len()
    }

    /// Maps an array LBA to `(member index, member LBA)`.
    pub fn map(&self, lba: Lba) -> (usize, Lba) {
        let stripe = lba.0 / self.stripe_blocks;
        let within = lba.0 % self.stripe_blocks;
        let child = (stripe % self.children.len() as u64) as usize;
        let child_stripe = stripe / self.children.len() as u64;
        (child, Lba(child_stripe * self.stripe_blocks + within))
    }

    /// Splits an access into per-member contiguous runs and applies `f`.
    fn for_each_run(
        &self,
        lba: Lba,
        count: u64,
        mut f: impl FnMut(usize, Lba, u64, usize) -> Result<(), BlockError>,
    ) -> Result<(), BlockError> {
        let mut done = 0u64;
        while done < count {
            let cur = lba + done;
            let (child, child_lba) = self.map(cur);
            let left_in_stripe = self.stripe_blocks - cur.0 % self.stripe_blocks;
            let run = left_in_stripe.min(count - done);
            f(child, child_lba, run, done as usize)?;
            done += run;
        }
        Ok(())
    }
}

impl BlockStore for Raid0 {
    fn geometry(&self) -> BlockGeometry {
        self.geometry
    }

    fn read_blocks(
        &self,
        lba: Lba,
        count: u64,
        visit: &mut dyn FnMut(usize, &Arc<[u8]>),
    ) -> Result<(), BlockError> {
        self.check_blocks(lba, count)?;
        self.for_each_run(lba, count, |child, child_lba, run, off| {
            self.children[child].read_blocks(child_lba, run, &mut |i, block| visit(off + i, block))
        })
    }

    fn write_blocks(
        &self,
        lba: Lba,
        count: u64,
        fill: &mut dyn FnMut(usize, &mut Arc<[u8]>),
    ) -> Result<(), BlockError> {
        self.check_blocks(lba, count)?;
        self.for_each_run(lba, count, |child, child_lba, run, off| {
            self.children[child].write_blocks(child_lba, run, &mut |i, block| fill(off + i, block))
        })
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::store::SparseMemStore;

    fn array(n: usize, stripe: u64) -> Raid0 {
        let children: Vec<Arc<dyn BlockStore>> = (0..n)
            .map(|_| {
                Arc::new(SparseMemStore::new(BlockGeometry::new(512, 4096))) as Arc<dyn BlockStore>
            })
            .collect();
        Raid0::new(children, stripe)
    }

    #[test]
    fn geometry_is_sum_of_usable() {
        let r = array(4, 8);
        assert_eq!(r.geometry().blocks, 4 * 4096);
        assert_eq!(r.width(), 4);
    }

    #[test]
    fn capacity_rounds_down_to_stripes() {
        let a: Arc<dyn BlockStore> = Arc::new(SparseMemStore::new(BlockGeometry::new(512, 100)));
        let b: Arc<dyn BlockStore> = Arc::new(SparseMemStore::new(BlockGeometry::new(512, 97)));
        let r = Raid0::new(vec![a, b], 8);
        // min(100, 97) = 97 → 96 usable per member → 192 total.
        assert_eq!(r.geometry().blocks, 192);
    }

    #[test]
    fn mapping_round_robins_stripes() {
        let r = array(3, 4);
        assert_eq!(r.map(Lba(0)), (0, Lba(0)));
        assert_eq!(r.map(Lba(3)), (0, Lba(3)));
        assert_eq!(r.map(Lba(4)), (1, Lba(0)));
        assert_eq!(r.map(Lba(8)), (2, Lba(0)));
        assert_eq!(r.map(Lba(12)), (0, Lba(4)));
        assert_eq!(r.map(Lba(13)), (0, Lba(5)));
    }

    #[test]
    fn read_after_write_across_stripe_boundaries() {
        let r = array(3, 4);
        let data: Vec<u8> = (0..512 * 11).map(|i| (i % 247) as u8).collect();
        r.write(Lba(2), &data).unwrap();
        let mut out = vec![0u8; data.len()];
        r.read(Lba(2), &mut out).unwrap();
        assert_eq!(out, data);
    }

    #[test]
    fn the_visitors_keep_the_striping() {
        let r = array(3, 4);
        r.write_blocks(Lba(2), 11, &mut |i, block| {
            *block = Arc::from(&[i as u8 + 1; 512][..]);
        })
        .unwrap();
        let mut seen = Vec::new();
        r.read_blocks(Lba(2), 11, &mut |i, block| {
            assert!(block.iter().all(|&b| b == block[0]));
            seen.push((i, block[0]));
        })
        .unwrap();
        assert_eq!(seen, (0..11).map(|i| (i, i as u8 + 1)).collect::<Vec<_>>());
        let mut out = vec![0u8; 512];
        r.read(Lba(6), &mut out).unwrap();
        assert!(out.iter().all(|&b| b == 5), "block 6 is the fifth written");
    }

    #[test]
    fn members_see_only_their_share() {
        let children: Vec<Arc<SparseMemStore>> = (0..2)
            .map(|_| Arc::new(SparseMemStore::new(BlockGeometry::new(512, 1024))))
            .collect();
        let dyns: Vec<Arc<dyn BlockStore>> = children
            .iter()
            .map(|c| Arc::clone(c) as Arc<dyn BlockStore>)
            .collect();
        let r = Raid0::new(dyns, 2);
        // Write 8 blocks = 4 stripes, alternating members, 2 stripes each.
        r.write(Lba(0), &vec![7u8; 512 * 8]).unwrap();
        assert_eq!(children[0].resident_blocks(), 4);
        assert_eq!(children[1].resident_blocks(), 4);
    }

    #[test]
    fn out_of_range_rejected() {
        let r = array(2, 4);
        let mut buf = vec![0u8; 512];
        assert!(r.read(Lba(2 * 4096), &mut buf).is_err());
    }

    #[test]
    #[should_panic(expected = "share a block size")]
    fn mixed_block_sizes_rejected() {
        let a: Arc<dyn BlockStore> = Arc::new(SparseMemStore::new(BlockGeometry::new(512, 100)));
        let b: Arc<dyn BlockStore> = Arc::new(SparseMemStore::new(BlockGeometry::new(4096, 100)));
        Raid0::new(vec![a, b], 8);
    }
}
