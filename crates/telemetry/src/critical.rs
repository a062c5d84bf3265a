//! Critical-path analysis over a flight-recorder timeline.
//!
//! Aggregate stage histograms (PR 1) tell you the *distribution* of each
//! stage; they cannot tell you which stage a given batch actually waited
//! on, because per-SSD groups overlap. This module walks the event
//! timeline batch by batch and attributes each batch's doorbell→retire
//! latency to the five protocol stages, taking the **maximum over groups**
//! for the parallel stages (dispatch/submit/complete) — i.e. the group
//! that gated retirement, which is the critical path (CAM §6's "which
//! stage dominates" question, answered per channel).

use std::collections::BTreeMap;

use crate::event::{Event, EventKind};
use crate::span::Stage;

/// Stage attribution for one retired batch.
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct BatchAttribution {
    /// Channel index.
    pub channel: u16,
    /// Channel-local batch sequence number.
    pub seq: u64,
    /// Operation index into [`crate::ControlMetrics::OPS`].
    pub op: u8,
    /// Nanoseconds attributed to each stage, indexed by [`Stage::index`].
    pub stage_ns: [u64; Stage::ALL.len()],
    /// Doorbell→retire latency.
    pub total_ns: u64,
}

impl BatchAttribution {
    /// The stage this batch spent the most time in.
    pub fn dominant(&self) -> Stage {
        dominant_stage(&self.stage_ns)
    }
}

/// Per-channel aggregate of [`BatchAttribution`]s.
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct ChannelCriticalPath {
    /// Channel index.
    pub channel: u16,
    /// Batches attributed on this channel.
    pub batches: u64,
    /// Summed doorbell→retire latency.
    pub total_ns: u64,
    /// Summed per-stage attribution, indexed by [`Stage::index`].
    pub stage_ns: [u64; Stage::ALL.len()],
    /// How many batches had each stage as their dominant stage.
    pub dominant_batches: [u64; Stage::ALL.len()],
}

impl ChannelCriticalPath {
    /// The stage with the largest summed attribution on this channel.
    pub fn dominant(&self) -> Stage {
        dominant_stage(&self.stage_ns)
    }

    /// Fraction (0..=1) of total latency spent in the dominant stage.
    pub fn dominant_fraction(&self) -> f64 {
        if self.total_ns == 0 {
            return 0.0;
        }
        self.stage_ns[self.dominant().index()] as f64 / self.total_ns as f64
    }
}

fn dominant_stage(stage_ns: &[u64; Stage::ALL.len()]) -> Stage {
    let mut best = Stage::ALL[0];
    for s in Stage::ALL {
        if stage_ns[s.index()] > stage_ns[best.index()] {
            best = s;
        }
    }
    best
}

/// Result of [`analyze`]: every retired batch plus per-channel rollups.
#[derive(Clone, Debug, Default, PartialEq, Eq)]
pub struct CriticalPathReport {
    /// One entry per retired batch seen in the timeline, in retire order.
    pub batches: Vec<BatchAttribution>,
    /// Per-channel aggregates, ordered by channel index.
    pub channels: Vec<ChannelCriticalPath>,
}

/// In-flight per-batch accumulator while walking the timeline.
#[derive(Default)]
struct BatchAcc {
    op: u8,
    doorbell_ns: u64,
    pickup_ns: Option<u64>,
    /// ssd → timestamp of the group's latest observed phase event.
    group_phase: BTreeMap<u16, u64>,
    /// Maxima over groups for the parallel stages.
    max_dispatch: u64,
    max_submit: u64,
    max_complete: u64,
    last_complete_ns: u64,
}

/// Walks a timeline-sorted event slice (as returned by
/// [`crate::FlightRecorder::snapshot`]) and attributes each retired
/// batch's latency to the five protocol stages.
pub fn analyze(events: &[Event]) -> CriticalPathReport {
    let mut open: BTreeMap<(u16, u64), BatchAcc> = BTreeMap::new();
    let mut report = CriticalPathReport::default();
    let mut per_channel: BTreeMap<u16, ChannelCriticalPath> = BTreeMap::new();

    for ev in events {
        match ev.kind {
            EventKind::BatchDoorbell {
                channel, seq, op, ..
            } => {
                let acc = open.entry((channel, seq)).or_default();
                acc.op = op;
                acc.doorbell_ns = ev.ts_ns;
            }
            EventKind::BatchPickup { channel, seq } => {
                if let Some(acc) = open.get_mut(&(channel, seq)) {
                    acc.pickup_ns = Some(ev.ts_ns);
                }
            }
            EventKind::GroupDispatch {
                channel, seq, ssd, ..
            } => {
                if let Some(acc) = open.get_mut(&(channel, seq)) {
                    let from = acc.pickup_ns.unwrap_or(acc.doorbell_ns);
                    acc.max_dispatch = acc.max_dispatch.max(ev.ts_ns.saturating_sub(from));
                    acc.group_phase.insert(ssd, ev.ts_ns);
                }
            }
            EventKind::GroupSubmit {
                channel, seq, ssd, ..
            } => {
                if let Some(acc) = open.get_mut(&(channel, seq)) {
                    if let Some(from) = acc.group_phase.insert(ssd, ev.ts_ns) {
                        acc.max_submit = acc.max_submit.max(ev.ts_ns.saturating_sub(from));
                    }
                }
            }
            EventKind::GroupComplete {
                channel, seq, ssd, ..
            } => {
                if let Some(acc) = open.get_mut(&(channel, seq)) {
                    if let Some(from) = acc.group_phase.remove(&ssd) {
                        acc.max_complete = acc.max_complete.max(ev.ts_ns.saturating_sub(from));
                    }
                    acc.last_complete_ns = acc.last_complete_ns.max(ev.ts_ns);
                }
            }
            EventKind::BatchRetire { channel, seq, .. } => {
                let Some(acc) = open.remove(&(channel, seq)) else {
                    continue; // doorbell fell out of the ring window
                };
                let retire_ns = ev.ts_ns;
                let pickup = acc.pickup_ns.unwrap_or(acc.doorbell_ns);
                let mut stage_ns = [0u64; Stage::ALL.len()];
                stage_ns[Stage::Pickup.index()] = pickup.saturating_sub(acc.doorbell_ns);
                stage_ns[Stage::Dispatch.index()] = acc.max_dispatch;
                stage_ns[Stage::Submit.index()] = acc.max_submit;
                stage_ns[Stage::Complete.index()] = acc.max_complete;
                stage_ns[Stage::Retire.index()] = if acc.last_complete_ns > 0 {
                    retire_ns.saturating_sub(acc.last_complete_ns)
                } else {
                    0
                };
                let attribution = BatchAttribution {
                    channel,
                    seq,
                    op: acc.op,
                    stage_ns,
                    total_ns: retire_ns.saturating_sub(acc.doorbell_ns),
                };
                let ch = per_channel
                    .entry(channel)
                    .or_insert_with(|| ChannelCriticalPath {
                        channel,
                        batches: 0,
                        total_ns: 0,
                        stage_ns: [0; Stage::ALL.len()],
                        dominant_batches: [0; Stage::ALL.len()],
                    });
                ch.batches += 1;
                ch.total_ns += attribution.total_ns;
                for s in Stage::ALL {
                    ch.stage_ns[s.index()] += attribution.stage_ns[s.index()];
                }
                ch.dominant_batches[attribution.dominant().index()] += 1;
                report.batches.push(attribution);
            }
            _ => {}
        }
    }
    report.channels = per_channel.into_values().collect();
    report
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::FlightRecorder;

    /// Emits a two-group batch where the complete stage dominates.
    fn emit_batch(rec: &FlightRecorder, channel: u16, seq: u64, base: u64) {
        rec.emit_at(
            base,
            EventKind::BatchDoorbell {
                channel,
                seq,
                op: 0,
                requests: 16,
            },
        );
        rec.emit_at(base + 10, EventKind::BatchPickup { channel, seq });
        for ssd in 0..2u16 {
            rec.emit_at(
                base + 20 + ssd as u64,
                EventKind::GroupDispatch {
                    channel,
                    seq,
                    ssd,
                    worker: ssd,
                },
            );
            rec.emit_at(
                base + 40 + ssd as u64,
                EventKind::GroupSubmit {
                    channel,
                    seq,
                    ssd,
                    worker: ssd,
                    sqes: 8,
                },
            );
        }
        // SSD 1 completes much later — it is the critical path.
        rec.emit_at(
            base + 100,
            EventKind::GroupComplete {
                channel,
                seq,
                ssd: 0,
                worker: 0,
                errors: 0,
            },
        );
        rec.emit_at(
            base + 540,
            EventKind::GroupComplete {
                channel,
                seq,
                ssd: 1,
                worker: 1,
                errors: 0,
            },
        );
        rec.emit_at(
            base + 550,
            EventKind::BatchRetire {
                channel,
                seq,
                errors: 0,
            },
        );
    }

    #[test]
    fn attributes_latency_to_the_gating_group() {
        let rec = FlightRecorder::new();
        emit_batch(&rec, 0, 1, 1000);
        let report = analyze(&rec.snapshot());
        assert_eq!(report.batches.len(), 1);
        let b = &report.batches[0];
        assert_eq!(b.total_ns, 550);
        assert_eq!(b.stage_ns[Stage::Pickup.index()], 10);
        // dispatch: max(dispatch_ts - pickup) over groups = (base+21)-(base+10)
        assert_eq!(b.stage_ns[Stage::Dispatch.index()], 11);
        // submit: max over groups of submit-dispatch = 20
        assert_eq!(b.stage_ns[Stage::Submit.index()], 20);
        // complete: ssd1 gated: (base+540)-(base+41)
        assert_eq!(b.stage_ns[Stage::Complete.index()], 499);
        assert_eq!(b.stage_ns[Stage::Retire.index()], 10);
        assert_eq!(b.dominant(), Stage::Complete);
    }

    #[test]
    fn channel_rollup() {
        let rec = FlightRecorder::new();
        for seq in 1..=3u64 {
            emit_batch(&rec, 0, seq, seq * 10_000);
        }
        emit_batch(&rec, 2, 1, 100_000);
        let report = analyze(&rec.snapshot());
        assert_eq!(report.channels.len(), 2);
        let ch0 = &report.channels[0];
        assert_eq!((ch0.channel, ch0.batches), (0, 3));
        assert_eq!(ch0.dominant(), Stage::Complete);
        assert!(ch0.dominant_fraction() > 0.5);
        assert_eq!(ch0.dominant_batches[Stage::Complete.index()], 3);
    }

    #[test]
    fn retire_without_doorbell_is_skipped() {
        let rec = FlightRecorder::new();
        rec.emit_at(
            5,
            EventKind::BatchRetire {
                channel: 0,
                seq: 9,
                errors: 0,
            },
        );
        let report = analyze(&rec.snapshot());
        assert!(report.batches.is_empty());
        assert!(report.channels.is_empty());
    }
}
