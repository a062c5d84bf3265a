//! # cam-core — CAM: asynchronous GPU-initiated, CPU-managed SSD management
//!
//! This crate is the paper's primary contribution (§ III): the SSD **control
//! plane lives on the CPU in user space** (zero GPU SMs spent on I/O), the
//! GPU merely **initiates** batches by writing logical block addresses and a
//! doorbell into shared memory, and the **data plane is direct** — NVMe
//! commands carry physical addresses of pinned GPU memory. A small
//! synchronous-feeling device API hides the asynchrony:
//!
//! | Table II API             | here                                            |
//! |--------------------------|-------------------------------------------------|
//! | `CAM_init`               | [`CamContext::attach`]                          |
//! | `CAM_alloc` / `CAM_free` | [`CamContext::alloc`] / drop the buffer         |
//! | `prefetch`               | [`CamDevice::prefetch`]                         |
//! | `prefetch_synchronize`   | [`CamDevice::prefetch_synchronize`]             |
//! | `write_back`             | [`CamDevice::write_back`]                       |
//! | `write_back_synchronize` | [`CamDevice::write_back_synchronize`]           |
//!
//! ## The four memory regions (§ III-B)
//!
//! GPU↔CPU synchronization uses four pre-allocated regions per [`Channel`]:
//! (1) the LBA array, (2) batch arguments, (3) a GPU→CPU doorbell that says
//! "the block IDs are all written", and (4) a CPU→GPU completion word.
//! Regions 1–3 are written only by the GPU and read by the CPU; region 4
//! only by the CPU. The *leading thread* of a kernel performs the region-2/3
//! writes — our simulated thread blocks **are** their leading thread
//! (`cam-gpu`), so the protocol maps one-to-one.
//!
//! ## Control plane (§ III-A)
//!
//! Persistent CPU worker threads each watch the doorbells of the channels
//! they own, plan the batch, and hand its per-SSD groups to the worker
//! owning each SSD; that worker owns the queue pairs of its SSDs (no locks
//! in the I/O path), submits the whole batch with one doorbell per SSD, and
//! polls completions. A [`DynamicScaler`] adjusts the number of active
//! workers between `N/4` and `N/2` for `N` SSDs from the observed
//! compute:I/O ratio of recent batches.
//!
//! ## Example
//!
//! The canonical Fig. 7 double-buffered loop, on the simulated testbed:
//!
//! ```
//! use cam_core::{CamConfig, CamContext};
//! use cam_iostacks::{Rig, RigConfig};
//!
//! let rig = Rig::new(RigConfig { n_ssds: 2, ..RigConfig::default() });
//! let cam = CamContext::attach(&rig, CamConfig::default());
//!
//! // CAM_alloc: pinned GPU buffers the SSDs can DMA into.
//! let read_buf = cam.alloc(4 * 4096).unwrap();
//! let dev = cam.device();
//!
//! // Seed the array with a pattern via write_back.
//! let src = cam.alloc(4 * 4096).unwrap();
//! src.write(0, &vec![7u8; 4 * 4096]);
//! dev.write_back(&[0, 1, 2, 3], src.addr()).unwrap();
//! dev.write_back_synchronize().unwrap();
//!
//! // GPU kernel: prefetch, synchronize, compute.
//! rig.gpu().launch(1, |_ctx| {
//!     dev.prefetch(&[0, 1, 2, 3], read_buf.addr()).unwrap();
//!     dev.prefetch_synchronize().unwrap();
//! });
//! assert!(read_buf.to_vec().iter().all(|&b| b == 7));
//! ```

#![warn(missing_docs)]
#![deny(unsafe_code)]

mod api;
mod backend;
mod engine;
mod pipeline;
mod regions;
mod scaler;

pub use api::{BatchTicket, CamConfig, CamContext, CamDevice, CamError};
pub use backend::CamBackend;
pub use engine::{ControlStats, ThreadModel};
pub use pipeline::DoubleBuffer;
pub use regions::{Channel, ChannelOp, PublishError};
pub use scaler::DynamicScaler;
