//! # cam-hostos — host/OS substrate
//!
//! The paper's Issue 1 is that kernel I/O stacks burn per-request CPU time
//! in four layers — **User**, **file system** (logical-block-address
//! retrieval), **I/O mapping** (page pin/unpin), and **Block I/O** — and
//! that this throttles the NVMe command rate (Figs. 2 and 3). This crate
//! models the host side of that story:
//!
//! * [`IoStackKind`] / [`LayerCosts`] — the calibrated per-request CPU cost
//!   of each kernel stack, split by layer (Fig. 3), plus derived maximum
//!   command rates (Fig. 2).
//! * [`CpuModel`] + [`PerfCounts`] — instructions/cycles per request for
//!   CAM, SPDK, and libaio, separating "fewer instructions" (kernel bypass)
//!   from "fewer cycles" (polling's high IPC vs. interrupt stalls) — Fig. 13.
//! * [`MemoryModel`] — DDR channel bandwidth and the 2× staging cost of the
//!   bounce-buffer data path (Figs. 14 and 15).

#![warn(missing_docs)]
#![deny(unsafe_code)]

mod membw;
mod perf;
mod stacks;

pub use membw::MemoryModel;
pub use perf::{CpuModel, PerfCounts};
pub use stacks::{IoDir, IoStackKind, LayerCosts};
