//! # cam-serving — the multi-tenant serving front-end
//!
//! The ROADMAP's "millions of users" story needs a request plane above
//! `CamContext`: tenants submitting concurrent session streams, with
//! admission control, fairness across tenants, and per-tenant SLO
//! accounting. This crate is that plane, grounded in the Tutti workload
//! (SSD-backed KV cache for long-context LLM serving, see PAPERS.md):
//! each session pages fixed-size attention-cache blocks through the
//! striped namespace, with Zipf session popularity inside every tenant.
//!
//! The pieces, bottom-up:
//!
//! * [`SessionTable`] — (tenant, session) → KV-block extents with
//!   pin-aware GPU-residency accounting and LRU eviction under a budget;
//! * [`TokenBucket`] — per-tenant admission metered in KV blocks on an
//!   explicit nanosecond timeline;
//! * [`FairScheduler`] — deficit round robin (or the FIFO baseline) that
//!   builds each demand-read batch from the per-tenant queues, so a hot
//!   tenant's backlog cannot starve cold tenants;
//! * [`ServingCore`] — the clock-agnostic state machine tying them
//!   together over the three CAM channels (0 demand, 1 write-back,
//!   2 readahead), recording per-tenant latency/SLO/hit-rate into
//!   [`cam_telemetry::TenantMetrics`] and a per-tenant
//!   `SloTracker`;
//! * [`drivers`] — the DES pump (virtual time, thousands of sessions) and
//!   the threaded pump (real `CamContext` tickets, wall clock), sharing
//!   one pump contract and one metric schema.
//!
//! See `docs/SERVING.md` for the architecture and policy write-up.

#![warn(missing_docs)]
#![deny(unsafe_code)]

pub mod admission;
pub mod core;
pub mod drivers;
pub mod sched;
pub mod session;

pub use crate::core::{
    ServingConfig, ServingCore, ServingStats, TenantStats, CH_DEMAND, CH_READAHEAD, CH_WRITEBACK,
    N_CHANNELS,
};
pub use admission::{AdmissionConfig, TokenBucket};
pub use drivers::{run_serving_des, run_serving_threaded, CoreSource, ServingRun};
pub use sched::{FairScheduler, Policy, WorkItem};
pub use session::{SessionConfig, SessionKey, SessionSlot, SessionTable, SessionView};
