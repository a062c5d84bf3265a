//! # cam-iostacks — the baseline I/O managements and the CAM testbed
//!
//! CAM is evaluated against the SSD managements of § II: POSIX I/O through
//! the kernel (with RAID 0 for multi-SSD), SPDK in user space with a
//! CPU-memory bounce buffer, BaM's GPU-managed queues, and (for GEMM)
//! NVIDIA GDS. This crate models them once, in virtual time:
//!
//! * **The DES microbench** ([`des::run_microbench`]) plays every
//!   architecture on the calibrated timing models (P5510 SSDs, PCIe
//!   fabric, per-request stack costs from
//!   [`IoStackKind::layer_costs`](cam_hostos::IoStackKind::layer_costs),
//!   memory channels) and returns achieved throughput plus SM/memory/CPU
//!   side effects — the engine behind Figs. 2, 8, 12, 14, 15 and 16.
//!   CAM's own DES driver ([`cam_des`]) runs the shared `cam-protocol`
//!   core on the same models, inside the same [`shell`] as the threaded
//!   engine.
//!
//! * **The functional testbed** ([`Rig`]) assembles the simulated SSDs and
//!   GPU that CAM's threaded control plane (`cam-core`) moves real bytes
//!   over.

#![warn(missing_docs)]
#![deny(unsafe_code)]

pub mod cam_des;
pub mod des;
mod rig;
pub mod shell;

pub use cam_des::CpuPipeModel;
pub use rig::{Rig, RigConfig};
