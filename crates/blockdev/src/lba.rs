//! Logical block addressing: the [`Lba`] newtype and [`BlockGeometry`]
//! byte/block conversions.

use std::fmt;
use std::ops::{Add, Sub};

/// A logical block address on some device or address space.
///
/// An `Lba` is meaningless without the [`BlockGeometry`] of the space it
/// indexes; keeping it a distinct type prevents accidentally mixing block
/// numbers with byte offsets (the classic off-by-512 bug family).
#[derive(Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash, Default)]
pub struct Lba(pub u64);

impl Lba {
    /// Block index as a raw `u64`.
    #[inline]
    pub const fn index(self) -> u64 {
        self.0
    }
}

impl Add<u64> for Lba {
    type Output = Lba;
    #[inline]
    fn add(self, rhs: u64) -> Lba {
        Lba(self.0 + rhs)
    }
}

impl Sub<Lba> for Lba {
    type Output = u64;
    #[inline]
    fn sub(self, rhs: Lba) -> u64 {
        self.0 - rhs.0
    }
}

impl fmt::Debug for Lba {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "lba:{}", self.0)
    }
}

impl fmt::Display for Lba {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        fmt::Debug::fmt(self, f)
    }
}

/// Block size and capacity of an address space, with byte/block math.
///
/// The paper's access granularities are 512 B and 4 KiB blocks; geometry is
/// parameterized so both are first-class.
#[derive(Clone, Copy, PartialEq, Eq, Debug)]
pub struct BlockGeometry {
    /// Bytes per block. Must be a power of two.
    pub block_size: u32,
    /// Total number of blocks.
    pub blocks: u64,
}

impl BlockGeometry {
    /// Creates a geometry; `block_size` must be a nonzero power of two.
    pub fn new(block_size: u32, blocks: u64) -> Self {
        assert!(
            block_size.is_power_of_two(),
            "block size must be a power of two, got {block_size}"
        );
        BlockGeometry { block_size, blocks }
    }

    /// Total capacity in bytes.
    #[inline]
    pub fn capacity_bytes(&self) -> u64 {
        self.blocks * self.block_size as u64
    }

    /// Whether the `count`-block range at `lba` lies inside the space.
    #[inline]
    pub fn contains(&self, lba: Lba, count: u64) -> bool {
        lba.0
            .checked_add(count)
            .map(|end| end <= self.blocks)
            .unwrap_or(false)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn lba_arithmetic() {
        let a = Lba(10);
        assert_eq!(a + 5, Lba(15));
        assert_eq!(Lba(15) - a, 5);
        assert_eq!(format!("{a}"), "lba:10");
    }

    #[test]
    fn geometry_math() {
        let g = BlockGeometry::new(4096, 1024);
        assert_eq!(g.capacity_bytes(), 4 << 20);
        assert!(g.contains(Lba(1023), 1));
        assert!(!g.contains(Lba(1023), 2));
        assert!(!g.contains(Lba(u64::MAX), 2)); // overflow-safe
    }

    #[test]
    #[should_panic(expected = "power of two")]
    fn non_power_of_two_rejected() {
        BlockGeometry::new(1000, 1);
    }
}
