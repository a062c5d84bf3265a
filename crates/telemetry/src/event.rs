//! Typed flight-recorder events: the unified vocabulary both engines emit.
//!
//! One enum covers every interesting hand-off in the system — the batch
//! protocol stages of the functional engine (doorbell → pickup → dispatch →
//! submit → complete → retire), substrate activity (NVMe doorbells and
//! command service, GPU kernels, synchronize waits), failure signals (fault
//! injection), control decisions (worker scaling), and the DES timing
//! engine's simulated request lifecycle. Because both engines speak this one
//! vocabulary, a functional run and a `simkit` run export to the same
//! Chrome-trace timeline and can be diffed in Perfetto.
//!
//! Events are `Copy` and carry only scalars so a recorder write is a plain
//! memcpy into a ring slot — no allocation on the hot path.

use crate::json::Json;
use crate::obj;

/// One flight-recorder record, stamped on the [`crate::clock`] timeline
/// (functional engine) or on virtual time (DES engine).
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct Event {
    /// Nanoseconds on the emitting engine's timeline.
    pub ts_ns: u64,
    /// Process-wide emission sequence number (total order across threads).
    pub seq: u64,
    /// Small dense id of the emitting thread (see
    /// [`FlightRecorder::thread_names`](crate::FlightRecorder::thread_names)).
    pub thread: u32,
    /// What happened.
    pub kind: EventKind,
}

/// The typed payload of an [`Event`].
///
/// `op` fields index [`crate::ControlMetrics::OPS`] (0 = read, 1 = write).
/// `start_ns` fields carry the beginning of a completed interval, so a
/// single event describes a whole span without needing begin/end pairing on
/// the hot path.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum EventKind {
    /// GPU leading thread rang a channel doorbell (region-3 write).
    BatchDoorbell {
        /// Channel index.
        channel: u16,
        /// Channel-local batch sequence number.
        seq: u64,
        /// Operation index into [`crate::ControlMetrics::OPS`].
        op: u8,
        /// Requests in the batch.
        requests: u32,
    },
    /// The CPU poller picked the batch up.
    BatchPickup {
        /// Channel index.
        channel: u16,
        /// Batch sequence number.
        seq: u64,
    },
    /// A worker dequeued one per-SSD group of the batch.
    GroupDispatch {
        /// Channel index.
        channel: u16,
        /// Batch sequence number.
        seq: u64,
        /// SSD the group targets.
        ssd: u16,
        /// Worker thread index.
        worker: u16,
    },
    /// The group's SQEs are staged and its queue-pair doorbell rung.
    GroupSubmit {
        /// Channel index.
        channel: u16,
        /// Batch sequence number.
        seq: u64,
        /// SSD the group targets.
        ssd: u16,
        /// Worker thread index.
        worker: u16,
        /// Commands submitted for the group.
        sqes: u32,
    },
    /// Every completion for the group has been reaped.
    GroupComplete {
        /// Channel index.
        channel: u16,
        /// Batch sequence number.
        seq: u64,
        /// SSD the group targets.
        ssd: u16,
        /// Worker thread index.
        worker: u16,
        /// Commands that completed with errors.
        errors: u32,
    },
    /// The last worker retired the batch (region-4 write).
    BatchRetire {
        /// Channel index.
        channel: u16,
        /// Batch sequence number.
        seq: u64,
        /// Failed commands across the whole batch.
        errors: u32,
    },
    /// An NVMe submission-queue doorbell was rung.
    QpDoorbell {
        /// Queue-pair id.
        qp: u16,
        /// SQEs published by this ring.
        sqes: u32,
    },
    /// A device service thread finished executing one NVMe command.
    NvmeCmd {
        /// Device index (attachment order).
        device: u16,
        /// NVMe opcode byte (1 = write, 2 = read, 0 = flush).
        opcode: u8,
        /// Whether the command completed successfully.
        ok: bool,
        /// When the service thread took the SQE.
        start_ns: u64,
    },
    /// A GPU kernel launch began.
    KernelBegin {
        /// Monotonic kernel id.
        kernel: u64,
        /// Blocks in the grid.
        grid: u64,
    },
    /// Every block of the kernel retired.
    KernelEnd {
        /// Monotonic kernel id.
        kernel: u64,
    },
    /// A host thread finished spinning in a `*_synchronize` call.
    SyncWait {
        /// Channel waited on.
        channel: u16,
        /// When the wait began.
        start_ns: u64,
    },
    /// `FaultyStore` injected an error.
    FaultInjected {
        /// First LBA of the failed access.
        lba: u64,
        /// `true` for reads, `false` for writes.
        read: bool,
    },
    /// The dynamic scaler changed the active worker count.
    ScalerDecision {
        /// Workers active after the decision.
        active: u32,
        /// `true` if the count grew.
        grew: bool,
    },
    /// One cache-mediated access batch was classified (block cache layer).
    CacheAccess {
        /// Channel the demand traffic rides.
        channel: u16,
        /// Blocks served from resident slots.
        hits: u32,
        /// Blocks that required an NVMe fill.
        misses: u32,
        /// Misses absorbed by an already in-flight fill for the same LBA.
        coalesced: u32,
    },
    /// The CLOCK hand reclaimed a resident slot.
    CacheEvict {
        /// Array LBA the evicted slot held.
        lba: u64,
        /// Whether the slot was dirty (forced a flush before reuse).
        dirty: bool,
    },
    /// The readahead engine issued a speculative prefetch batch.
    Readahead {
        /// First LBA of the speculative window.
        lba: u64,
        /// Blocks issued.
        blocks: u32,
        /// Window size after the adaptive update.
        window: u32,
    },
    /// Dirty slots were written back to the array in one flush batch.
    CacheFlush {
        /// Dirty blocks flushed.
        blocks: u32,
    },
    /// The reactor re-queued a command after a transient NVMe failure.
    CmdRetry {
        /// Channel index of the owning batch.
        channel: u16,
        /// Batch sequence number.
        seq: u64,
        /// SSD the command targets.
        ssd: u16,
        /// Command identifier the failed attempt carried.
        cid: u16,
        /// Attempt number that just failed (1 = first submission).
        attempt: u32,
    },
    /// A command exhausted its deadline and was failed without retiring the
    /// worker thread.
    CmdTimeout {
        /// Channel index of the owning batch.
        channel: u16,
        /// Batch sequence number.
        seq: u64,
        /// SSD the command targets.
        ssd: u16,
        /// Command identifier of the abandoned attempt.
        cid: u16,
        /// Submission attempts made before the deadline fired.
        attempts: u32,
    },
    /// A lane's health state machine transitioned (see
    /// `cam-protocol::LaneHealth`; state codes index
    /// [`health_state_label`]).
    LaneHealth {
        /// SSD lane that transitioned.
        ssd: u16,
        /// State code before the transition.
        from: u8,
        /// State code after the transition.
        to: u8,
        /// Cumulative transient faults (retries + timeouts) observed on the
        /// lane when the transition fired.
        retries: u64,
    },
    /// DES engine: a simulated request was issued to an SSD.
    SimIssue {
        /// Simulated SSD index.
        ssd: u16,
        /// Per-SSD request ordinal.
        req: u64,
    },
    /// DES engine: a simulated request completed end to end.
    SimComplete {
        /// Simulated SSD index.
        ssd: u16,
        /// Per-SSD request ordinal (FIFO-paired with [`EventKind::SimIssue`]).
        req: u64,
    },
}

impl EventKind {
    /// Stable snake_case label, used in post-mortem dumps and trace `args`.
    pub fn name(&self) -> &'static str {
        match self {
            EventKind::BatchDoorbell { .. } => "batch_doorbell",
            EventKind::BatchPickup { .. } => "batch_pickup",
            EventKind::GroupDispatch { .. } => "group_dispatch",
            EventKind::GroupSubmit { .. } => "group_submit",
            EventKind::GroupComplete { .. } => "group_complete",
            EventKind::BatchRetire { .. } => "batch_retire",
            EventKind::QpDoorbell { .. } => "qp_doorbell",
            EventKind::NvmeCmd { .. } => "nvme_cmd",
            EventKind::KernelBegin { .. } => "kernel_begin",
            EventKind::KernelEnd { .. } => "kernel_end",
            EventKind::SyncWait { .. } => "sync_wait",
            EventKind::FaultInjected { .. } => "fault_injected",
            EventKind::ScalerDecision { .. } => "scaler_decision",
            EventKind::CacheAccess { .. } => "cache_access",
            EventKind::CacheEvict { .. } => "cache_evict",
            EventKind::Readahead { .. } => "readahead",
            EventKind::CacheFlush { .. } => "cache_flush",
            EventKind::CmdRetry { .. } => "cmd_retry",
            EventKind::CmdTimeout { .. } => "cmd_timeout",
            EventKind::LaneHealth { .. } => "lane_health",
            EventKind::SimIssue { .. } => "sim_issue",
            EventKind::SimComplete { .. } => "sim_complete",
        }
    }

    /// The payload's fields as a JSON object — the one field list every
    /// output (post-mortem dumps, Chrome-trace `args`) is built from. A
    /// batch's sequence number is keyed `batch`, leaving `seq` to the
    /// [`Event`] envelope; lane-health state codes print as their labels.
    pub fn args(&self) -> Json {
        match *self {
            EventKind::BatchDoorbell {
                channel,
                seq,
                op,
                requests,
            } => obj! {"channel" => channel, "batch" => seq, "op" => op, "requests" => requests},
            EventKind::BatchPickup { channel, seq } => obj! {"channel" => channel, "batch" => seq},
            EventKind::GroupDispatch {
                channel,
                seq,
                ssd,
                worker,
            } => obj! {"channel" => channel, "batch" => seq, "ssd" => ssd, "worker" => worker},
            EventKind::GroupSubmit {
                channel,
                seq,
                ssd,
                worker,
                sqes,
            } => obj! {
                "channel" => channel, "batch" => seq, "ssd" => ssd, "worker" => worker,
                "sqes" => sqes,
            },
            EventKind::GroupComplete {
                channel,
                seq,
                ssd,
                worker,
                errors,
            } => obj! {
                "channel" => channel, "batch" => seq, "ssd" => ssd, "worker" => worker,
                "errors" => errors,
            },
            EventKind::BatchRetire {
                channel,
                seq,
                errors,
            } => obj! {"channel" => channel, "batch" => seq, "errors" => errors},
            EventKind::QpDoorbell { qp, sqes } => obj! {"qp" => qp, "sqes" => sqes},
            EventKind::NvmeCmd {
                device,
                opcode,
                ok,
                start_ns,
            } => obj! {"device" => device, "opcode" => opcode, "ok" => ok, "start_ns" => start_ns},
            EventKind::KernelBegin { kernel, grid } => obj! {"kernel" => kernel, "grid" => grid},
            EventKind::KernelEnd { kernel } => obj! {"kernel" => kernel},
            EventKind::SyncWait { channel, start_ns } => {
                obj! {"channel" => channel, "start_ns" => start_ns}
            }
            EventKind::FaultInjected { lba, read } => obj! {"lba" => lba, "read" => read},
            EventKind::ScalerDecision { active, grew } => obj! {"active" => active, "grew" => grew},
            EventKind::CacheAccess {
                channel,
                hits,
                misses,
                coalesced,
            } => obj! {
                "channel" => channel, "hits" => hits, "misses" => misses,
                "coalesced" => coalesced,
            },
            EventKind::CacheEvict { lba, dirty } => obj! {"lba" => lba, "dirty" => dirty},
            EventKind::Readahead {
                lba,
                blocks,
                window,
            } => obj! {"lba" => lba, "blocks" => blocks, "window" => window},
            EventKind::CacheFlush { blocks } => obj! {"blocks" => blocks},
            EventKind::CmdRetry {
                channel,
                seq,
                ssd,
                cid,
                attempt,
            } => obj! {
                "channel" => channel, "batch" => seq, "ssd" => ssd, "cid" => cid,
                "attempt" => attempt,
            },
            EventKind::CmdTimeout {
                channel,
                seq,
                ssd,
                cid,
                attempts,
            } => obj! {
                "channel" => channel, "batch" => seq, "ssd" => ssd, "cid" => cid,
                "attempts" => attempts,
            },
            EventKind::LaneHealth {
                ssd,
                from,
                to,
                retries,
            } => obj! {
                "ssd" => ssd, "from" => health_state_label(from), "to" => health_state_label(to),
                "retries" => retries,
            },
            EventKind::SimIssue { ssd, req } | EventKind::SimComplete { ssd, req } => {
                obj! {"ssd" => ssd, "req" => req}
            }
        }
    }
}

/// Human-readable label for a lane-health state code. Mirrors
/// `cam-protocol::HealthState::code` (this crate sits below the protocol
/// layer, so the mapping is duplicated here; `cam-iostacks` tests assert
/// the two stay aligned).
pub fn health_state_label(code: u8) -> &'static str {
    match code {
        0 => "healthy",
        1 => "degraded",
        2 => "overloaded",
        3 => "recovered",
        _ => "unknown",
    }
}

impl Event {
    /// The event as one self-contained JSON object (post-mortem dump
    /// format): the envelope, then the payload's [`EventKind::args`].
    pub fn to_json(&self) -> Json {
        let mut fields = vec![
            ("ts_ns".to_string(), self.ts_ns.into()),
            ("seq".to_string(), self.seq.into()),
            ("thread".to_string(), self.thread.into()),
            ("kind".to_string(), self.kind.name().into()),
        ];
        if let Json::Obj(args) = self.kind.args() {
            fields.extend(args);
        }
        Json::Obj(fields)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    /// `(kind, "key:type ...")` of `Event::to_json` per variant, as the
    /// post-mortem dump format has spelled them since the flight recorder
    /// landed — consumers of old dumps rely on it.
    const GOLDEN: [(&str, &str); 22] = [
        (
            "batch_doorbell",
            "channel:int batch:int op:int requests:int",
        ),
        ("batch_pickup", "channel:int batch:int"),
        ("group_dispatch", "channel:int batch:int ssd:int worker:int"),
        (
            "group_submit",
            "channel:int batch:int ssd:int worker:int sqes:int",
        ),
        (
            "group_complete",
            "channel:int batch:int ssd:int worker:int errors:int",
        ),
        ("batch_retire", "channel:int batch:int errors:int"),
        ("qp_doorbell", "qp:int sqes:int"),
        ("nvme_cmd", "device:int opcode:int ok:bool start_ns:int"),
        ("kernel_begin", "kernel:int grid:int"),
        ("kernel_end", "kernel:int"),
        ("sync_wait", "channel:int start_ns:int"),
        ("fault_injected", "lba:int read:bool"),
        ("scaler_decision", "active:int grew:bool"),
        (
            "cache_access",
            "channel:int hits:int misses:int coalesced:int",
        ),
        ("cache_evict", "lba:int dirty:bool"),
        ("readahead", "lba:int blocks:int window:int"),
        ("cache_flush", "blocks:int"),
        (
            "cmd_retry",
            "channel:int batch:int ssd:int cid:int attempt:int",
        ),
        (
            "cmd_timeout",
            "channel:int batch:int ssd:int cid:int attempts:int",
        ),
        ("lane_health", "ssd:int from:str to:str retries:int"),
        ("sim_issue", "ssd:int req:int"),
        ("sim_complete", "ssd:int req:int"),
    ];

    #[test]
    fn json_of_every_variant_keeps_the_golden_keys_and_types() {
        let kinds = [
            EventKind::BatchDoorbell {
                channel: 0,
                seq: 1,
                op: 0,
                requests: 8,
            },
            EventKind::BatchPickup { channel: 0, seq: 1 },
            EventKind::GroupDispatch {
                channel: 0,
                seq: 1,
                ssd: 2,
                worker: 3,
            },
            EventKind::GroupSubmit {
                channel: 0,
                seq: 1,
                ssd: 2,
                worker: 3,
                sqes: 4,
            },
            EventKind::GroupComplete {
                channel: 0,
                seq: 1,
                ssd: 2,
                worker: 3,
                errors: 0,
            },
            EventKind::BatchRetire {
                channel: 0,
                seq: 1,
                errors: 0,
            },
            EventKind::QpDoorbell { qp: 7, sqes: 32 },
            EventKind::NvmeCmd {
                device: 0,
                opcode: 2,
                ok: true,
                start_ns: 5,
            },
            EventKind::KernelBegin { kernel: 1, grid: 4 },
            EventKind::KernelEnd { kernel: 1 },
            EventKind::SyncWait {
                channel: 0,
                start_ns: 9,
            },
            EventKind::FaultInjected {
                lba: 100,
                read: true,
            },
            EventKind::ScalerDecision {
                active: 2,
                grew: false,
            },
            EventKind::CacheAccess {
                channel: 0,
                hits: 6,
                misses: 2,
                coalesced: 1,
            },
            EventKind::CacheEvict {
                lba: 42,
                dirty: true,
            },
            EventKind::Readahead {
                lba: 64,
                blocks: 8,
                window: 16,
            },
            EventKind::CacheFlush { blocks: 3 },
            EventKind::CmdRetry {
                channel: 0,
                seq: 1,
                ssd: 2,
                cid: 7,
                attempt: 1,
            },
            EventKind::CmdTimeout {
                channel: 0,
                seq: 1,
                ssd: 2,
                cid: 7,
                attempts: 3,
            },
            EventKind::LaneHealth {
                ssd: 0,
                from: 0,
                to: 2,
                retries: 9,
            },
            EventKind::SimIssue { ssd: 0, req: 0 },
            EventKind::SimComplete { ssd: 0, req: 0 },
        ];
        assert_eq!(kinds.len(), GOLDEN.len());
        for (kind, (name, fields)) in kinds.into_iter().zip(GOLDEN) {
            let ev = Event {
                ts_ns: 10,
                seq: 1,
                thread: 0,
                kind,
            };
            let Json::Obj(got) = ev.to_json() else {
                panic!("{name}: not an object");
            };
            let signature: Vec<String> = got
                .iter()
                .map(|(key, value)| {
                    let ty = match value {
                        Json::Int(_) => "int",
                        Json::Str(_) => "str",
                        Json::Bool(_) => "bool",
                        other => panic!("{name}.{key}: unexpected {other:?}"),
                    };
                    format!("{key}:{ty}")
                })
                .collect();
            assert_eq!(
                signature.join(" "),
                format!("ts_ns:int seq:int thread:int kind:str {fields}"),
                "{name}"
            );
            assert_eq!(got[3].1.as_str(), Some(name));
            assert_eq!(kind.name(), name);
        }
    }
}
