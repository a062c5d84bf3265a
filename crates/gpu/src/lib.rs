//! # cam-gpu — simulated GPU substrate
//!
//! The paper runs on an 80 GB PCIe A100. What its evaluation actually needs
//! from the GPU is:
//!
//! * **pinned device memory with physical addresses** — GDRCopy's
//!   `nvidia_p2p_get_pages` in the paper; here a
//!   [`PinnedRegion`](cam_nvme::PinnedRegion)-backed [`GpuMemory`] whose
//!   [`GpuBuffer`]s are valid NVMe DMA targets (the direct SSD↔GPU path);
//! * **kernels that occupy SMs** — a [`Gpu::launch`] thread-block executor:
//!   each simulated thread block is a closure run on a worker pool, with the
//!   closure body playing the *leading thread* (the only thread CAM's device
//!   API does real work on, § III-B);
//! * **occupancy accounting** — [`GpuSpec`] knows how many SMs a grid
//!   occupies, which is what Figs. 1, 4 and 9 are made of.

#![warn(missing_docs)]
#![deny(unsafe_code)]

mod exec;
mod memory;
mod spec;

pub use exec::{BlockCtx, Gpu};
pub use memory::{GpuBuffer, GpuMemory, OutOfMemory};
pub use spec::GpuSpec;
