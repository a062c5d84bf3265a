//! # cam-blockdev — block-storage substrate
//!
//! CAM (§ III-C) requires SSDs to operate **without a pre-existing
//! filesystem**: applications address raw logical blocks. This crate provides
//! that raw-block world for the reproduction:
//!
//! * [`Lba`] — typed logical block addresses and size math;
//! * [`BlockStore`] — the storage trait the simulated NVMe namespaces read
//!   from and write to;
//! * [`SparseMemStore`] — a thread-safe, sparse, in-memory store standing in
//!   for a multi-terabyte SSD (only touched blocks consume host memory);
//! * [`Raid0`] — stripe aggregation across stores, used to present multiple
//!   SSDs as one address space (the paper's POSIX baseline uses RAID 0, and
//!   CAM itself stripes batches across SSDs);
//! * [`ExtentAllocator`] — first-fit extent allocation with coalescing, used
//!   by `cam-gpu`'s pinned device-memory allocator (`CAM_alloc`);
//! * [`FaultyStore`] — deterministic fault injection for failure-path
//!   testing of every layer above.

#![warn(missing_docs)]
#![deny(unsafe_code)]

mod extent;
mod fault;
mod lba;
mod raid;
mod store;

pub use extent::{Extent, ExtentAllocator};
pub use fault::{FaultKind, FaultMode, FaultPolicy, FaultyStore};
pub use lba::{BlockGeometry, Lba};
pub use raid::Raid0;
pub use store::{BlockError, BlockSession, BlockStore, SparseMemStore};
