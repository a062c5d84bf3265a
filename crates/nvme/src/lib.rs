//! # cam-nvme — simulated NVMe substrate
//!
//! The paper's testbed is 12× Intel P5510 NVMe SSDs driven from user space
//! (SPDK for CAM and the SPDK baseline, GPU-resident queues for BaM, the
//! kernel block layer for POSIX/libaio/io_uring). This crate provides the
//! NVMe layer those systems are built on, twice over:
//!
//! 1. **Functionally** — [`QueuePair`]s are real lock-free submission /
//!    completion rings with doorbell semantics, and [`NvmeDevice`] services
//!    them from a real thread (one for a whole SSD array), moving real
//!    bytes between a
//!    [`BlockStore`](cam_blockdev::BlockStore) (the flash) and a
//!    [`DmaSpace`] (pinned GPU memory). The "no locks in the I/O
//!    path" property the paper inherits from SPDK holds: one queue pair per
//!    submitting thread, lock-free rings in between.
//!
//! 2. **In virtual time** — [`DesSsd`] reproduces the P5510's latency and
//!    bandwidth envelope (15 µs random-read / 82 µs random-write latency,
//!    per-command FTL overhead, bounded internal parallelism, a PCIe Gen4 ×4
//!    device link) on the `cam-simkit` event calendar, for the throughput
//!    figures.
//!
//! The two halves share the command vocabulary in [`spec`].

#![warn(missing_docs)]
#![deny(unsafe_code)]

mod device;
mod mem;
mod model;
mod queue;
pub mod spec;

pub use device::{DeviceConfig, DeviceStats, NvmeDevice, MAX_BURST};
pub use mem::{DmaError, DmaSession, DmaSpace, PinnedRegion};
pub use model::{DesSsd, SsdModel};
pub use queue::{QpStats, QueueError, QueuePair};
