//! Completion-accounting-driven batch retirement.
//!
//! The protocol layer decides *when* a batch retires (its last group's
//! [`BatchCore::finish_group`] returning true); this module is the
//! threaded driver's retirement effect: replicate deduplicated reads,
//! write region 4 (from inside the lifecycle tap's retire report, so the
//! counters a waiter reads settle first), feed the [`DynamicScaler`], fire
//! the post-mortem triggers.
//!
//! [`DynamicScaler`]: crate::DynamicScaler

use std::sync::atomic::Ordering;

use cam_iostacks::shell::batch_facts;
use cam_protocol::BatchCore;
use cam_simkit::Dur;
use cam_telemetry::clock::now_ns;
use cam_telemetry::EventKind;

use super::Shared;

/// Retires `b`: region-4 write + bookkeeping. Called by the reactor when
/// the batch's last group completed (at `complete_ns` on the driver
/// clock).
pub(super) fn retire_batch(sh: &Shared, b: &BatchCore, complete_ns: u64) {
    let m = &sh.metrics;
    // Replicate deduplicated reads to their duplicate destinations
    // before region 4 is written — after retire the GPU is free to
    // read any of them. Whole pages are shared, not copied, all under one
    // hold of the DMA space's lock.
    if !b.dups.is_empty() {
        let len = b.blocks as usize * sh.plan.block_size as usize;
        sh.dma.dma_session(&mut |dma| {
            for &(src, dst) in &b.dups {
                if dma.dma_copy(src, dst, len).is_err() {
                    b.errors.fetch_add(1, Ordering::Relaxed);
                }
            }
        });
    }
    let batch_errors = b.errors.load(Ordering::Relaxed);
    let retire_ns = now_ns();
    // Everything a client may read as soon as its wait returns settles
    // before region 4 releases it (the region-4 store is the release the
    // waiter acquires): the `ControlStats` counters, inside the tap, and
    // `last_retire`, which the pickup of its next doorbell turns into a
    // compute gap.
    sh.last_retire[b.channel].store(retire_ns, Ordering::Relaxed);
    let total_ns = sh.tap.batch_retire(
        &batch_facts(b),
        batch_errors,
        complete_ns,
        retire_ns,
        || sh.channels[b.channel].retire(b.seq, batch_errors),
    );
    let compute_gap = Dur::ns(b.compute_gap_ns);
    if sh.dynamic && compute_gap > Dur::ZERO {
        let prev = sh.active_workers.load(Ordering::Relaxed);
        let io = Dur::ns(retire_ns.saturating_sub(b.dispatched_ns));
        let active = sh.scaler.lock().observe(compute_gap, io);
        sh.active_workers.store(active, Ordering::Relaxed);
        if active != prev {
            m.active_workers.set(active as u64);
            if active > prev {
                m.scaler_grow.inc();
            } else {
                m.scaler_shrink.inc();
            }
            if let Some(rec) = &sh.recorder {
                rec.emit(EventKind::ScalerDecision {
                    active: active as u32,
                    grew: active > prev,
                });
            }
        }
    }
    if let Some(pm) = &sh.postmortem {
        if batch_errors > 0 {
            pm.trigger(&format!(
                "batch ch{} seq {} retired with {} error(s)",
                b.channel, b.seq, batch_errors
            ));
        } else if sh.deadline_ns.is_some_and(|d| total_ns > d) {
            pm.trigger(&format!(
                "batch ch{} seq {} overran deadline: {} ns doorbell->retire",
                b.channel, b.seq, total_ns
            ));
        }
    }
}
