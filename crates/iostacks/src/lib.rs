//! # cam-iostacks — the baseline I/O managements
//!
//! CAM is evaluated against the SSD managements of § II: POSIX I/O through
//! the kernel (with RAID 0 for multi-SSD), SPDK in user space with a
//! CPU-memory bounce buffer, BaM's GPU-managed queues, and (for GEMM)
//! NVIDIA GDS. This crate implements them **twice**, mirroring the two
//! halves of the substrate crates:
//!
//! * **Functional backends** ([`StorageBackend`]) move real bytes over the
//!   simulated hardware [`Rig`] — POSIX through the [`MiniFs`] kernel path
//!   with a bounce buffer, SPDK through user-space queue pairs with a bounce
//!   buffer, BaM by submitting from GPU thread blocks straight to queue
//!   pairs with a direct data path. CAM's functional backend lives in
//!   `cam-core` and implements the same trait, so every workload can run on
//!   every management.
//!
//! * **The DES microbench** ([`des::run_microbench`]) plays the same
//!   architectures on the calibrated timing models (P5510 SSDs, PCIe
//!   fabric, per-request stack costs, memory channels) and returns achieved
//!   throughput plus SM/memory/CPU side effects — the engine behind
//!   Figs. 2, 8, 12, 14, 15 and 16.
//!
//! [`MiniFs`]: cam_hostos::MiniFs

#![warn(missing_docs)]
#![deny(unsafe_code)]

mod bam;
pub mod cam_des;
pub mod des;
mod gds;
mod posix;
mod rig;
mod spdk;
mod types;
mod uring;

pub use bam::BamBackend;
pub use cam_des::CpuPipeModel;
pub use gds::GdsBackend;
pub use posix::PosixBackend;
pub use rig::{Rig, RigConfig};
pub use spdk::SpdkBackend;
pub use types::{BackendError, IoRequest, StorageBackend};
pub use uring::{CompletionMode, UringBackend};
