//! The run-to-completion worker loop.
//!
//! Worker *w* of *W* owns channels `ch % W` and the per-SSD lanes
//! `ssd % active` outright: it performs doorbell pickup and planning
//! inline ([`dispatch::poll_channel`]), sends each per-SSD group to the
//! owning worker over that worker's bounded `mpsc` channel, and runs the
//! worker shell ([`reactor::Worker`]) over its private queue pairs. Groups
//! for its own SSDs skip the channel and go straight into the local inbox.
//!
//! Idleness is protocol-driven: when [`WorkerCore::park_hint`] reports
//! nothing actionable, the worker parks its thread
//! ([`std::thread::park_timeout`]) — unparked by doorbell publishes on
//! owned channels, hand-offs from peer workers, and stop. std's parker
//! keeps one token, so an unpark that lands before the park is not lost.
//! The parked-time share is exported as `cam_worker_park_ratio{worker}`
//! (milli-units, windowed), so idle CPU burn is observable.
//!
//! [`WorkerCore::park_hint`]: cam_protocol::WorkerCore::park_hint

use std::collections::VecDeque;
use std::sync::atomic::Ordering;
use std::sync::mpsc::{Receiver, TrySendError};
use std::time::Duration;

use cam_iostacks::shell;
use cam_protocol::{GroupSpec, ParkHint};
use cam_telemetry::clock::now_ns;
use cam_telemetry::{WindowConfig, WindowedCounter};

use super::reactor::Worker;
use super::{dispatch, Shared};

/// Upper bound on one park: an idle worker re-checks the world (and
/// refreshes its park-ratio gauge) at least this often, so a hypothetical
/// lost wakeup degrades to latency, never to a hang.
const MAX_PARK: Duration = Duration::from_millis(50);

/// Consecutive empty iterations a worker rides out with a plain yield
/// before actually parking on an `Idle` hint. Under sustained load the
/// next doorbell or hand-off lands within microseconds, and a futex
/// sleep+wake pair per batch costs more than the work itself; genuine
/// idleness still parks after ~this many yields, so the idle park ratio
/// stays high.
const IDLE_SPIN: u32 = 128;

/// Hot iterations between park-window flushes. Any iteration that
/// actually parked flushes immediately, so an idle worker's ratio stays
/// fresh; a busy worker amortizes the window lock over this many loops.
const FLUSH_ITERS: u32 = 512;

pub(super) fn shard_loop(sh: &Shared, wid: usize, handoff: &Receiver<GroupSpec>, pipelined: bool) {
    let n_workers = sh.handoff.len();
    let mut w = Worker::new(sh, wid, pipelined);
    // Static channel shard: this worker is the only thread that ever polls
    // these channels' doorbells.
    let owned: Vec<usize> = (wid..sh.channels.len()).step_by(n_workers).collect();
    let mut last_seen = vec![0u64; owned.len()];
    let mut inbox: VecDeque<GroupSpec> = VecDeque::new();
    // Park accounting: parked-ns over elapsed-ns per rolling window,
    // exported ×1000 (the registry's milli-gauge convention, like
    // `cam_slo_burn_rate`).
    let park_win = WindowedCounter::new(WindowConfig::default());
    let mut last_mark = now_ns();
    let mut idle_streak = 0u32;
    // Window flushes are batched: the add/sum per iteration would cost
    // more than a hot iteration's useful work (a lock plus a slot scan).
    let mut iters_since_flush = 0u32;
    loop {
        let stopping = sh.stop.load(Ordering::Acquire);
        let mut progress = false;
        if !stopping {
            // 1. Doorbell pickup on owned channels, planning inline.
            for (i, &ch_idx) in owned.iter().enumerate() {
                if dispatch::poll_channel(sh, ch_idx, &mut last_seen[i], &mut w.pickup) {
                    progress = true;
                    route_groups(sh, wid, n_workers, &mut w.pickup.specs, handoff, &mut inbox);
                }
            }
        }
        // 2. Drain groups routed here by peer workers (a lone worker has
        //    none, and skips the channel's atomics).
        if n_workers > 1 {
            progress |= drain_handoff(handoff, &mut inbox);
        }
        // 3. Admission, by the protocol's rule: pipelined takes everything
        //    (commands from several batches share the queue depth); the
        //    blocking baseline one group at a time. The admitted groups'
        //    run lists go back to the pickup buffers.
        progress |= shell::admit(&mut w.core, &sh.tap, wid, &mut inbox, now_ns, |runs| {
            w.pickup.recycle_runs(runs)
        });
        // 4. Pump submissions, execute effects, reap completions.
        progress |= w.pump(sh);
        progress |= w.reap(sh);

        if stopping && w.core.idle() && inbox.is_empty() {
            break;
        }
        // 5. Idle policy from the protocol: park instead of spinning.
        let mut parked_ns = 0u64;
        if progress {
            idle_streak = 0;
        } else if !stopping {
            idle_streak = idle_streak.saturating_add(1);
            match w.core.park_hint() {
                ParkHint::Poll => std::thread::yield_now(),
                ParkHint::Until(t) => {
                    let now = now_ns();
                    if t > now {
                        let before = now;
                        std::thread::park_timeout(Duration::from_nanos(t - now).min(MAX_PARK));
                        parked_ns = now_ns().saturating_sub(before);
                    } else {
                        std::thread::yield_now();
                    }
                }
                ParkHint::Idle if idle_streak < IDLE_SPIN => std::thread::yield_now(),
                ParkHint::Idle => {
                    // No token is lost to the publish→park race: a doorbell
                    // or hand-off that lands just before this park leaves
                    // the token set, so the park returns immediately.
                    let before = now_ns();
                    std::thread::park_timeout(MAX_PARK);
                    parked_ns = now_ns().saturating_sub(before);
                }
            }
        }
        iters_since_flush += 1;
        if parked_ns > 0 || iters_since_flush >= FLUSH_ITERS {
            let now = now_ns();
            park_win.add_at(now, parked_ns, now.saturating_sub(last_mark));
            last_mark = now;
            if let Some(ratio) = park_win.ratio_at(now) {
                sh.metrics.worker_park_ratio[wid].set((ratio * 1000.0) as u64);
            }
            iters_since_flush = 0;
        }
    }
    w.drain_lanes(sh);
}

/// Routes (drains) freshly planned groups: local SSDs go straight to the
/// inbox, remote ones over the owner's channel (waking the owner). A full
/// channel is ridden out by spinning — while also draining our own
/// receiver, so two workers sending to each other can never deadlock.
///
/// A channel disconnects only once its worker has exited, which it does
/// only after `stop`. A group for it is then dropped: it belongs to a
/// batch picked up while the plane was stopping, which is never retired,
/// like a group left in an exiting worker's channel.
fn route_groups(
    sh: &Shared,
    wid: usize,
    n_workers: usize,
    specs: &mut Vec<GroupSpec>,
    handoff: &Receiver<GroupSpec>,
    inbox: &mut VecDeque<GroupSpec>,
) {
    let active = sh
        .active_workers
        .load(Ordering::Relaxed)
        .clamp(1, n_workers);
    for mut spec in specs.drain(..) {
        // An SSD is always handled by the worker `ssd % active`, so one
        // SSD's queue pairs are never polled by two threads at once within
        // an active-count epoch.
        let dst = spec.ssd % active;
        if dst == wid {
            inbox.push_back(spec);
            continue;
        }
        loop {
            let sent = sh.handoff[dst].try_send(spec);
            sh.unpark(dst);
            match sent {
                Ok(()) | Err(TrySendError::Disconnected(_)) => break,
                Err(TrySendError::Full(back)) => {
                    spec = back;
                    drain_handoff(handoff, inbox);
                    std::thread::yield_now();
                }
            }
        }
    }
}

/// Moves every group peers sent here into the local inbox; returns
/// whether anything arrived.
fn drain_handoff(handoff: &Receiver<GroupSpec>, inbox: &mut VecDeque<GroupSpec>) -> bool {
    let before = inbox.len();
    inbox.extend(handoff.try_iter());
    inbox.len() > before
}
