//! # cam-protocol — the control plane as a pure state machine
//!
//! The paper's CPU user-space control plane (§ III-A) is, at its core, a
//! protocol: batches arrive at doorbells, are deduplicated and split by
//! stripe into per-SSD groups, commands are kept in flight up to queue
//! depth, failures are retried with bounded backoff, and the last completed
//! group retires its batch. None of that depends on *how* time passes or
//! *where* the commands run — which is why this crate contains no
//! `std::thread`, no `std::time::Instant`, and no channel types.
//!
//! Inputs are events (a batch arrived, a CQE was reaped, a timer fired);
//! outputs are [`Command`] values (submit an SQE, ring a doorbell, record a
//! group's lifecycle, retire a batch). All time enters as the plain `u64`
//! `now_ns` argument every entry point takes; which timeline it counts on
//! is the *driver's* business:
//!
//! * the **threaded driver** (`cam-core`'s `engine/` shell) passes the
//!   wall-clock telemetry timeline and executes commands against real
//!   `QueuePair`s serviced by device threads;
//! * the **DES driver** (`cam-iostacks::cam_des`) passes `simkit` virtual
//!   time and executes commands against the `DesSsd` timing model —
//!   so the figures measure the *same* protocol code the functional tests
//!   validate.
//!
//! The layering deviates from a module-inside-`cam-core` split in one way:
//! `cam-core` depends on `cam-iostacks` (for the functional rig), so a
//! protocol layer both engines share must live *below* both — this crate
//! depends only on `cam-nvme` (for NVMe status codes). See
//! `docs/TIMING.md`.

#![warn(missing_docs)]
#![deny(unsafe_code)]

mod batch;
pub mod cache_core;
mod health;
mod inflight;
mod plan;
mod retry;
mod worker;

pub use batch::{open_batch, open_groups, BatchCore, BatchStamps};
pub use cache_core::{CacheCore, CacheDecisionCounters};
pub use health::{HealthState, HealthTransition};
pub use inflight::InflightTable;
pub use plan::{
    op_index, plan_batch, replay_plan_workload, BatchPlan, ChannelOp, DecisionCounters, PlanConfig,
    Planner,
};
pub use retry::{RetryPolicy, Verdict};
pub use worker::{Command, GroupSpec, ParkHint, SubmitCmd, WorkerCore};
