//! Completion-accounting-driven batch retirement.
//!
//! The protocol layer decides *when* a batch retires (its last group's
//! [`BatchCore::finish_group`] returning true); this module is the
//! threaded driver's retirement effect: replicate deduplicated reads,
//! write region 4, feed the [`DynamicScaler`], fire the post-mortem
//! triggers.
//!
//! [`DynamicScaler`]: crate::DynamicScaler

use std::sync::atomic::Ordering;

use cam_protocol::{op_index, BatchCore};
use cam_simkit::Dur;
use cam_telemetry::{EventKind, Stage};

use super::Shared;

/// Retires `b`: region-4 write + bookkeeping. Called by the reactor when
/// the batch's last group completed (at `complete_ns` on the driver
/// clock). `copy_buf` is the calling worker's replication bounce buffer:
/// it grows to the largest request once, so steady-state retirement
/// allocates nothing.
pub(super) fn retire_batch(sh: &Shared, b: &BatchCore, complete_ns: u64, copy_buf: &mut Vec<u8>) {
    let m = &sh.metrics;
    let op_idx = op_index(b.op);
    // Replicate deduplicated reads to their duplicate destinations
    // before region 4 is written — after retire the GPU is free to
    // read any of them.
    if !b.dups.is_empty() {
        let len = b.blocks as usize * sh.plan.block_size as usize;
        if copy_buf.len() < len {
            copy_buf.resize(len, 0);
        }
        // `dma_read` fills all of `buf` or fails, so no stale bytes leak.
        let buf = &mut copy_buf[..len];
        for &(src, dst) in &b.dups {
            if sh.dma.dma_read(src, buf).is_err() || sh.dma.dma_write(dst, buf).is_err() {
                b.errors.fetch_add(1, Ordering::Relaxed);
            }
        }
    }
    let batch_errors = b.errors.load(Ordering::Relaxed);
    let retire_ns = sh.clock.now_ns();
    let io = Dur::ns(retire_ns.saturating_sub(b.dispatched_ns));
    // Everything a client may read as soon as its wait returns — the
    // `ControlStats` counters, and `last_retire`, which the pickup of its
    // next doorbell turns into a compute gap — settles before region 4
    // releases it (the region-4 store is the release the waiter acquires).
    sh.last_retire[b.channel].store(retire_ns, Ordering::Relaxed);
    m.batches.inc();
    m.requests.add(b.requests);
    m.errors.add(batch_errors);
    m.io_time_ns.add(io.as_ns());
    let compute_gap = Dur::ns(b.compute_gap_ns);
    if compute_gap > Dur::ZERO {
        m.compute_time_ns.add(compute_gap.as_ns());
        m.compute_samples.inc();
    }
    sh.channels[b.channel].retire(b.seq, batch_errors);
    let retire_span = retire_ns.saturating_sub(complete_ns);
    let total_ns = retire_ns.saturating_sub(b.doorbell_ns);
    m.stage(op_idx, Stage::Retire).record(retire_span);
    m.batch_total(b.channel, op_idx).record(total_ns);
    if let Some(w) = &sh.windows {
        w.stage(Stage::Pickup)
            .record_at(retire_ns, b.pickup_ns.saturating_sub(b.doorbell_ns));
        w.stage(Stage::Retire).record_at(retire_ns, retire_span);
        w.channel_batch[b.channel].record_at(retire_ns, total_ns);
    }
    if let Some(slo) = &sh.slo {
        slo.record(b.channel, total_ns, batch_errors, retire_ns);
        let burn = slo.burn_rate(b.channel, retire_ns).max();
        m.slo_burn[b.channel].set((burn * 1000.0) as u64);
    }
    if let Some(rec) = &sh.recorder {
        rec.emit_at(
            retire_ns,
            EventKind::BatchRetire {
                channel: b.channel as u16,
                seq: b.seq,
                errors: batch_errors as u32,
            },
        );
    }
    if sh.dynamic && compute_gap > Dur::ZERO {
        let prev = sh.active_workers.load(Ordering::Relaxed);
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
