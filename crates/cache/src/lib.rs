//! GPU-memory block cache for CAM: sharded CLOCK cache over pinned GPU
//! memory with in-flight miss coalescing, lazy write-back absorption, and
//! adaptive readahead.
//!
//! The cache sits **between kernels and the doorbell protocol** — the CAM
//! control plane, channel layout, and `CamContext::attach` are untouched.
//! Opting in means wrapping the context:
//!
//! ```no_run
//! use std::sync::Arc;
//! use cam_core::{CamConfig, CamContext, StorageBackend};
//! use cam_iostacks::{Rig, RigConfig};
//! use cam_cache::{CacheConfig, CachedBackend, CachedDevice};
//!
//! let rig = Rig::new(RigConfig::default());
//! // Three channels: demand read, write-back flush, speculative readahead.
//! let cam = CamContext::attach(&rig, CamConfig { n_channels: 3, ..CamConfig::default() });
//! let dev = Arc::new(CachedDevice::attach(&rig, &cam, CacheConfig::default()).unwrap());
//! dev.prefetch(&[0, 1, 2], /* pinned dest */ 0x1000).unwrap();
//! dev.prefetch_synchronize().unwrap();
//! dev.flush().unwrap(); // make absorbed writes durable
//! let backend = CachedBackend::new(dev, 2048); // run workloads through it
//! let _ = backend.name();
//! ```
//!
//! Layering (see `docs/CACHE.md` for the full walk-through):
//!
//! * `cam_protocol::cache_core::CacheCore` — every cache *decision*
//!   (CLOCK eviction, coalescing, dirty policy, readahead planning) as a
//!   pure state machine, shared with the DES driver and fidelity replay.
//! * [`BlockCache`] — the threaded wrapper: pinned GPU memory, a condvar
//!   for coalesced waits, refcount pins ([`SlotPin`]), one-owner fills
//!   ([`FillTicket`]) and waiters ([`SlotWait`]), dirty tracking
//!   ([`BlockCache::take_dirty`]), metrics synced from the core counters.
//! * [`ReadaheadEngine`] — pure stream detection + window adaptation
//!   (re-exported from the protocol core).
//! * [`CachedDevice`] — the cached `prefetch` / `write_back` data path
//!   wiring cache misses into single demand batches and speculation onto
//!   its own channel.
//! * [`CachedBackend`] — [`cam_core::StorageBackend`] adapter so the
//!   evaluation workloads run unchanged with the cache in the path.

mod cache;
mod config;
mod des;
mod device;
mod metrics;

pub use cache::{BlockCache, FillTicket, Lookup, ReadaheadBatch, SlotPin, SlotWait};
pub use cam_protocol::cache_core::ReadaheadCore as ReadaheadEngine;
pub use config::{CacheConfig, ReadaheadConfig};
pub use des::run_cam_des_cached;
pub use device::{CachedBackend, CachedDevice};
pub use metrics::CacheMetrics;
