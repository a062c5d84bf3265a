//! # CAM — asynchronous GPU-initiated, CPU-managed SSD management
//!
//! Facade crate for the full-system reproduction of *"CAM: Asynchronous
//! GPU-Initiated, CPU-Managed SSD Management for Batching Storage Access"*
//! (Song et al., ICDE 2025). Everything runs over simulated hardware built
//! in this workspace — see the README for the architecture tour and
//! `DESIGN.md` for the per-experiment index. The optional GPU-memory block
//! cache ([`CachedDevice`]) layers hit-serving, write absorption, miss
//! coalescing, and adaptive readahead over the unchanged doorbell protocol
//! — see `docs/CACHE.md`.
//!
//! ## Quickstart
//!
//! ```
//! use cam::{CamConfig, CamContext, Rig, RigConfig};
//!
//! // Testbed: simulated SSDs + GPU ("CAM_init" wires the control plane).
//! let rig = Rig::new(RigConfig { n_ssds: 4, ..RigConfig::default() });
//! let cam = CamContext::attach(&rig, CamConfig::default());
//! let dev = cam.device();
//!
//! // CAM_alloc pinned GPU memory, write_back, prefetch — Table II's API.
//! let buf = cam.alloc(8 * 4096).unwrap();
//! buf.write(0, &vec![0x5Au8; 8 * 4096]);
//! dev.write_back(&(0..8).collect::<Vec<_>>(), buf.addr()).unwrap();
//! dev.write_back_synchronize().unwrap();
//!
//! let out = cam.alloc(8 * 4096).unwrap();
//! dev.prefetch(&(0..8).collect::<Vec<_>>(), out.addr()).unwrap();
//! dev.prefetch_synchronize().unwrap();
//! assert_eq!(out.to_vec(), buf.to_vec());
//!
//! // Telemetry: every batch's doorbell→retire lifecycle is measured.
//! let snap = cam.registry().snapshot();
//! assert_eq!(snap.counter("cam_batches_total"), cam.stats().batches);
//! assert!(snap
//!     .histogram("cam_stage_ns{op=\"read\",stage=\"complete\"}")
//!     .is_some_and(|h| h.count > 0));
//! ```

#![warn(missing_docs)]
#![deny(unsafe_code)]

pub use cam_cache::{
    BlockCache, CacheConfig, CacheMetrics, CachedBackend, CachedDevice, ReadaheadConfig,
    ReadaheadEngine,
};
pub use cam_core::{
    BatchTicket, CamBackend, CamConfig, CamContext, CamDevice, CamError, Channel, ChannelOp,
    ControlStats, DoubleBuffer, DynamicScaler,
};
pub use cam_iostacks::{
    BackendError, BamBackend, IoRequest, PosixBackend, Rig, RigConfig, SpdkBackend, StorageBackend,
};
pub use cam_serving::{ServingConfig, ServingCore, ServingStats, TenantStats};
pub use cam_telemetry::{
    ControlMetrics, Counter, Gauge, Histogram, HistogramHandle, HistogramSummary, MetricsRegistry,
    MetricsSnapshot, Observability, Stage, TenantMetrics,
};

/// Substrate crates, re-exported for direct access to the simulated
/// hardware (NVMe queues and devices, GPU memory/occupancy models, the DES
/// kernel, the host-OS models, and raw block storage).
pub mod substrate {
    pub use cam_blockdev as blockdev;
    pub use cam_gpu as gpu;
    pub use cam_hostos as hostos;
    pub use cam_nvme as nvme;
    pub use cam_simkit as simkit;
}

/// Evaluation workloads (GNN training, mergesort, GEMM, KV-cache serving)
/// — functional and analytic forms.
pub mod workloads {
    pub use cam_workloads::{anns, dlrm, gemm, gnn, graph, kv_cache, llm, sort};
}

/// The multi-tenant serving front-end (session table, token-bucket
/// admission, DRR fair scheduling, per-tenant SLO accounting) — see
/// `docs/SERVING.md`.
pub mod serving {
    pub use cam_serving::*;
}
