//! Latency attribution: splits each retired batch's doorbell→retire latency
//! along its critical path, and rolls the splits up into the mean and
//! p99-tail decomposition a regression report can act on.
//!
//! A batch retires when its last per-SSD group completes (CAM § III-B), so
//! its critical path is the **gating group** — the group whose
//! `GroupComplete` came last. [`analyze`] walks the event timeline batch by
//! batch and cuts the latency at that group's hand-offs; each stage maps
//! onto a queueing-delay component:
//!
//! | stage    | component       | span                             | what the batch was waiting on          |
//! |----------|-----------------|----------------------------------|----------------------------------------|
//! | pickup   | `doorbell_wait` | doorbell → pickup                | the CPU poller to notice the doorbell  |
//! | dispatch | `dispatch`      | pickup → gating group's dispatch | the poller to fan groups out to workers|
//! | submit   | `lane_wait`     | → its submit                     | queue-pair depth / CPU submit cost     |
//! | complete | `ssd_service`   | → its completion                 | the device (and host fabric) itself    |
//! | retire   | `retire`        | → retire                         | the last worker's region-4 write       |
//!
//! The spans are consecutive cuts of one interval, so a batch's components
//! sum to its total. A hand-off the timeline lacks (no pickup, a group never
//! fully submitted, no group at all) is a zero-length span and the next
//! span starts where the last present one ended.
//!
//! The p99 decomposition averages the stage times of the batches **in the
//! p99 tail** (total ≥ the p99 of totals) rather than taking per-stage
//! p99s, so the components of the tail row still sum to the tail's total —
//! per-stage quantiles don't add up and routinely mis-attribute tails.

use std::collections::BTreeMap;

use crate::event::{Event, EventKind};
use crate::span::Stage;

/// Operator-facing name of a stage's delay component (see module docs).
pub fn component_name(stage: Stage) -> &'static str {
    match stage {
        Stage::Pickup => "doorbell_wait",
        Stage::Dispatch => "dispatch",
        Stage::Submit => "lane_wait",
        Stage::Complete => "ssd_service",
        Stage::Retire => "retire",
    }
}

/// The stage holding the largest value (the first on a tie): the dominant
/// component of a decomposition or of summed attributions.
pub fn dominant<T: PartialOrd>(vals: &[T; Stage::ALL.len()]) -> Stage {
    let mut best = Stage::ALL[0];
    for s in Stage::ALL {
        if vals[s.index()] > vals[best.index()] {
            best = s;
        }
    }
    best
}

/// Stage attribution for one retired batch, along its gating group.
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct BatchAttribution {
    /// Channel index.
    pub channel: u16,
    /// Channel-local batch sequence number.
    pub seq: u64,
    /// Requests in the batch, from its doorbell.
    pub requests: u32,
    /// Nanoseconds attributed to each stage, indexed by [`Stage::index`];
    /// they sum to `total_ns`.
    pub stage_ns: [u64; Stage::ALL.len()],
    /// Doorbell→retire latency.
    pub total_ns: u64,
}

/// Timestamps of one per-SSD group's hand-offs.
#[derive(Clone, Copy, Default)]
struct GroupTimes {
    dispatch: Option<u64>,
    submit: Option<u64>,
    complete: Option<u64>,
}

/// In-flight per-batch accumulator while walking the timeline.
#[derive(Default)]
struct BatchAcc {
    requests: u32,
    doorbell_ns: u64,
    pickup_ns: Option<u64>,
    /// ssd → the group's hand-offs seen so far.
    groups: BTreeMap<u16, GroupTimes>,
    /// The group whose completion came last.
    gating: GroupTimes,
}

/// Walks a timeline-sorted event slice (as returned by
/// [`crate::FlightRecorder::snapshot`]) and attributes each retired batch's
/// latency to the five stages along its gating group, in retire order. A
/// retire whose doorbell fell out of the ring window is skipped.
pub fn analyze(events: &[Event]) -> Vec<BatchAttribution> {
    let mut open: BTreeMap<(u16, u64), BatchAcc> = BTreeMap::new();
    let mut batches = Vec::new();
    for ev in events {
        let ts = ev.ts_ns;
        match ev.kind {
            EventKind::BatchDoorbell {
                channel,
                seq,
                requests,
                ..
            } => {
                let acc = open.entry((channel, seq)).or_default();
                acc.requests = requests;
                acc.doorbell_ns = ts;
            }
            EventKind::BatchPickup { channel, seq } => {
                if let Some(acc) = open.get_mut(&(channel, seq)) {
                    acc.pickup_ns = Some(ts);
                }
            }
            EventKind::GroupDispatch {
                channel, seq, ssd, ..
            } => {
                if let Some(acc) = open.get_mut(&(channel, seq)) {
                    acc.groups.entry(ssd).or_default().dispatch = Some(ts);
                }
            }
            EventKind::GroupSubmit {
                channel, seq, ssd, ..
            } => {
                if let Some(acc) = open.get_mut(&(channel, seq)) {
                    acc.groups.entry(ssd).or_default().submit = Some(ts);
                }
            }
            EventKind::GroupComplete {
                channel, seq, ssd, ..
            } => {
                if let Some(acc) = open.get_mut(&(channel, seq)) {
                    let mut group = acc.groups.remove(&ssd).unwrap_or_default();
                    group.complete = Some(ts);
                    acc.gating = group;
                }
            }
            EventKind::BatchRetire { channel, seq, .. } => {
                let Some(acc) = open.remove(&(channel, seq)) else {
                    continue; // doorbell fell out of the ring window
                };
                let g = acc.gating;
                let cuts = [acc.pickup_ns, g.dispatch, g.submit, g.complete, Some(ts)];
                let mut at = acc.doorbell_ns;
                let mut stage_ns = [0u64; Stage::ALL.len()];
                for (ns, cut) in stage_ns.iter_mut().zip(cuts) {
                    if let Some(cut) = cut {
                        *ns = cut.saturating_sub(at);
                        at = at.max(cut);
                    }
                }
                batches.push(BatchAttribution {
                    channel,
                    seq,
                    requests: acc.requests,
                    stage_ns,
                    total_ns: ts.saturating_sub(acc.doorbell_ns),
                });
            }
            _ => {}
        }
    }
    batches
}

/// Mean + p99-tail decomposition of doorbell→retire latency over a set of
/// attributed batches.
#[derive(Clone, Debug, PartialEq)]
pub struct LatencyDecomposition {
    /// Batches decomposed.
    pub batches: u64,
    /// Mean doorbell→retire latency, ns.
    pub mean_total_ns: f64,
    /// Exact p99 of the per-batch totals (nearest-rank), ns.
    pub p99_total_ns: u64,
    /// Batches in the p99 tail (total ≥ `p99_total_ns`).
    pub tail_batches: u64,
    /// Mean doorbell→retire latency of the p99-tail batches, ns.
    pub tail_mean_total_ns: f64,
    /// Mean nanoseconds per component across all batches, indexed by
    /// [`Stage::index`].
    pub mean_ns: [f64; Stage::ALL.len()],
    /// Mean nanoseconds per component across the p99-tail batches.
    pub tail_mean_ns: [f64; Stage::ALL.len()],
    /// Whether the driver produced any nonzero sample for the component.
    /// A component that is `false` here is *structurally absent* — the
    /// driver's timeline never separates the two events that bound it
    /// (e.g. DES doorbell and pickup coincide in virtual time) — and
    /// `repro bench` prints `n/a` instead of a misleading `0`.
    pub present: [bool; Stage::ALL.len()],
}

impl LatencyDecomposition {
    /// The component that dominates the mean.
    pub fn dominant_mean(&self) -> Stage {
        dominant(&self.mean_ns)
    }

    /// The component that dominates the p99 tail.
    pub fn dominant_tail(&self) -> Stage {
        dominant(&self.tail_mean_ns)
    }
}

/// Decomposes a set of per-batch attributions (from [`analyze`], either
/// driver) into the mean and p99-tail component breakdown. Returns `None`
/// when there are no batches.
pub fn decompose(batches: &[BatchAttribution]) -> Option<LatencyDecomposition> {
    if batches.is_empty() {
        return None;
    }
    let n = batches.len() as u64;
    let mut totals: Vec<u64> = batches.iter().map(|b| b.total_ns).collect();
    totals.sort_unstable();
    // p99 over the exact per-batch totals (no binning error), picked so the
    // tail is the top 1% of batches: index ⌊0.99·n⌋ in the sorted totals.
    let idx = ((0.99 * n as f64) as usize).min(totals.len() - 1);
    let p99 = totals[idx];

    let mut mean_ns = [0.0f64; Stage::ALL.len()];
    let mut tail_mean_ns = [0.0f64; Stage::ALL.len()];
    let mut present = [false; Stage::ALL.len()];
    let mut mean_total = 0.0f64;
    let mut tail_total = 0.0f64;
    let mut tail_batches = 0u64;
    for b in batches {
        mean_total += b.total_ns as f64;
        for s in Stage::ALL {
            mean_ns[s.index()] += b.stage_ns[s.index()] as f64;
            present[s.index()] |= b.stage_ns[s.index()] > 0;
        }
        if b.total_ns >= p99 {
            tail_batches += 1;
            tail_total += b.total_ns as f64;
            for s in Stage::ALL {
                tail_mean_ns[s.index()] += b.stage_ns[s.index()] as f64;
            }
        }
    }
    for v in &mut mean_ns {
        *v /= n as f64;
    }
    for v in &mut tail_mean_ns {
        *v /= tail_batches.max(1) as f64;
    }
    Some(LatencyDecomposition {
        batches: n,
        mean_total_ns: mean_total / n as f64,
        p99_total_ns: p99,
        tail_batches,
        tail_mean_total_ns: tail_total / tail_batches.max(1) as f64,
        mean_ns,
        tail_mean_ns,
        present,
    })
}

#[cfg(test)]
mod tests {
    use super::*;

    fn batch(total: u64, complete: u64) -> BatchAttribution {
        let mut stage_ns = [0u64; Stage::ALL.len()];
        stage_ns[Stage::Pickup.index()] = 10;
        stage_ns[Stage::Dispatch.index()] = 5;
        stage_ns[Stage::Submit.index()] = total - complete - 35;
        stage_ns[Stage::Complete.index()] = complete;
        stage_ns[Stage::Retire.index()] = 20;
        BatchAttribution {
            channel: 0,
            seq: 0,
            requests: 1,
            stage_ns,
            total_ns: total,
        }
    }

    #[test]
    fn mean_components_sum_to_mean_total() {
        let batches: Vec<_> = (0..100)
            .map(|i| batch(1000 + i * 10, 800 + i * 10))
            .collect();
        let d = decompose(&batches).unwrap();
        assert_eq!(d.batches, 100);
        let sum: f64 = d.mean_ns.iter().sum();
        assert!(
            (sum - d.mean_total_ns).abs() < 1e-6,
            "{sum} vs {}",
            d.mean_total_ns
        );
        assert_eq!(d.dominant_mean(), Stage::Complete);
        assert!(d.mean_ns[Stage::Complete.index()] > 0.5 * d.mean_total_ns);
    }

    #[test]
    fn p99_tail_attributes_the_actual_slow_batches() {
        // 99 fast device-bound batches and one slow batch gated on
        // lane_wait: the tail row must finger lane_wait, the mean must not.
        let mut batches: Vec<_> = (0..99).map(|_| batch(1000, 900)).collect();
        batches.push(batch(50_000, 900)); // submit = 49_065 ns
        let d = decompose(&batches).unwrap();
        assert_eq!(d.p99_total_ns, 50_000);
        assert_eq!((d.tail_batches, d.tail_mean_total_ns), (1, 50_000.0));
        assert_eq!(d.dominant_mean(), Stage::Complete);
        assert_eq!(d.dominant_tail(), Stage::Submit);
        // Tail components sum to the tail batch's total.
        let tail_sum: f64 = d.tail_mean_ns.iter().sum();
        assert!((tail_sum - 50_000.0).abs() < 1e-6, "{tail_sum}");
    }

    #[test]
    fn empty_input_yields_none() {
        assert!(decompose(&[]).is_none());
    }

    #[test]
    fn structurally_absent_components_are_not_present() {
        // A DES-like timeline: doorbell and pickup coincide and retire
        // follows the last completion instantly, so neither component
        // ever produces a sample — distinct from a component that merely
        // averages small.
        let batches: Vec<_> = (0..20)
            .map(|i| {
                let mut stage_ns = [0u64; Stage::ALL.len()];
                stage_ns[Stage::Dispatch.index()] = 100;
                stage_ns[Stage::Submit.index()] = 300 + i;
                stage_ns[Stage::Complete.index()] = 900;
                BatchAttribution {
                    channel: 0,
                    seq: i,
                    requests: 1,
                    stage_ns,
                    total_ns: 1300 + i,
                }
            })
            .collect();
        let d = decompose(&batches).unwrap();
        assert!(!d.present[Stage::Pickup.index()]);
        assert!(!d.present[Stage::Retire.index()]);
        assert!(d.present[Stage::Dispatch.index()]);
        assert_eq!(d.mean_ns[Stage::Dispatch.index()], 100.0);
    }
}
