//! The worker shell: the glue both drivers run around [`WorkerCore`].
//!
//! The threaded engine (`cam-core`) and the DES ([`crate::cam_des`]) step
//! the same protocol core on two clocks. What they do around it that does
//! not depend on the clock is stated here, once:
//!
//! * [`batch_facts`] — the batch as the [`LifecycleTap`] takes it;
//! * [`admit`] — group admission by the core's own rule: while
//!   [`WorkerCore::accepts_group`], report the dispatch and hand the group
//!   to [`WorkerCore::on_group_runs`];
//! * [`report`] — the lifecycle half of executing [`Command`]s: retries,
//!   timeouts, lane transitions and group completions go to the tap.
//!
//! Each driver keeps only its own effects: submissions and doorbells (real
//! queue pairs, or the modelled CPU pipe), when a group's submission is
//! reported, retirement, and — in the DES — its transition list and
//! re-admission after a group completes.

use std::collections::VecDeque;

use cam_protocol::{op_index, BatchCore, Command, GroupSpec, WorkerCore};
use cam_telemetry::{BatchFacts, Lane, LifecycleTap};

/// The batch as the [`LifecycleTap`] takes it: plain integers. The mirror
/// of [`BatchCore`] is spelled once, for both drivers.
pub fn batch_facts(b: &BatchCore) -> BatchFacts {
    BatchFacts {
        channel: b.channel,
        seq: b.seq,
        op: op_index(b.op),
        requests: b.requests,
        doorbell_ns: b.doorbell_ns,
        pickup_ns: b.pickup_ns,
        dispatched_ns: b.dispatched_ns,
        compute_gap_ns: b.compute_gap_ns,
    }
}

/// Hands `worker`'s core the groups at the front of `queue` while it
/// accepts them: pipelined admission takes every one, the blocking
/// baseline at most one (and none while a group is open). Each admitted
/// group is stamped with one `now_ns()` read, reported to the tap as
/// dispatched, then given to [`WorkerCore::on_group_runs`], and its run
/// list, copied into the core, is handed to `spent` for reuse. Returns
/// whether any group was admitted; the caller pumps the core afterwards.
pub fn admit(
    core: &mut WorkerCore,
    tap: &LifecycleTap,
    worker: usize,
    queue: &mut VecDeque<GroupSpec>,
    mut now_ns: impl FnMut() -> u64,
    mut spent: impl FnMut(Vec<(u64, u64, u32)>),
) -> bool {
    let mut admitted = false;
    while core.accepts_group() {
        let Some(GroupSpec { ssd, reqs, batch }) = queue.pop_front() else {
            break;
        };
        let recv_ns = now_ns();
        tap.group_dispatch(&batch_facts(&batch), Lane { ssd, worker }, recv_ns);
        core.on_group_runs(ssd, &reqs, batch, recv_ns);
        spent(reqs);
        admitted = true;
    }
    admitted
}

/// Reports the lifecycle half of `cmd`, drained from `worker`'s core:
/// [`Command::CmdRetry`], [`Command::CmdTimeout`],
/// [`Command::LaneTransition`] and [`Command::GroupComplete`] go to the
/// tap; every other command is the driver's alone and is ignored here.
pub fn report(tap: &LifecycleTap, worker: usize, cmd: &Command) {
    match cmd {
        Command::CmdRetry {
            batch,
            ssd,
            cid,
            attempt,
            now_ns,
            ..
        } => tap.cmd_retry(&batch_facts(batch), *ssd, *cid, *attempt, *now_ns),
        Command::CmdTimeout {
            batch,
            ssd,
            cid,
            attempts,
            now_ns,
        } => tap.cmd_timeout(&batch_facts(batch), *ssd, *cid, *attempts, *now_ns),
        Command::LaneTransition {
            transition: t,
            now_ns,
        } => tap.lane_transition(t.ssd, t.from.code(), t.to.code(), t.faults, *now_ns),
        Command::GroupComplete {
            batch,
            ssd,
            sqes,
            errors,
            anchor_ns,
            complete_ns,
        } => {
            let at = Lane { ssd: *ssd, worker };
            tap.group_complete(
                &batch_facts(batch),
                at,
                *sqes,
                *errors,
                *anchor_ns,
                *complete_ns,
            );
        }
        Command::Submit(_)
        | Command::RingDoorbell { .. }
        | Command::GroupSubmitted { .. }
        | Command::RetireBatch { .. } => {}
    }
}
