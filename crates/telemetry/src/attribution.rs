//! Queue-delay attribution: decomposes doorbell→retire latency into the
//! delay components a regression report can act on.
//!
//! [`critical::analyze`](crate::critical::analyze) already attributes each
//! retired batch's latency to the five protocol stages. This module rolls
//! those per-batch attributions up into the operator-facing decomposition:
//! *where does the mean go, and where does the p99 go?* The five stages map
//! onto queueing-delay components:
//!
//! | stage    | component       | what the batch was waiting on          |
//! |----------|-----------------|----------------------------------------|
//! | pickup   | `doorbell_wait` | the CPU poller to notice the doorbell  |
//! | dispatch | `dispatch`      | the poller to fan groups out to workers|
//! | submit   | `lane_wait`     | queue-pair depth / CPU submit cost     |
//! | complete | `ssd_service`   | the device (and host fabric) itself    |
//! | retire   | `retire`        | the last worker's region-4 write       |
//!
//! The p99 decomposition averages the stage times of the batches **in the
//! p99 tail** (total ≥ the p99 of totals) rather than taking per-stage
//! p99s, so the components of the tail row still sum to the tail's total —
//! per-stage quantiles don't add up and routinely mis-attribute tails.

use crate::critical::BatchAttribution;
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
    /// Mean nanoseconds per component across all batches, indexed by
    /// [`Stage::index`].
    pub mean_ns: [f64; Stage::ALL.len()],
    /// Mean nanoseconds per component across the p99-tail batches.
    pub tail_mean_ns: [f64; Stage::ALL.len()],
    /// Whether the driver produced any nonzero sample for the component.
    /// A component that is `false` here is *structurally absent* — the
    /// driver's timeline never separates the two events that bound it
    /// (e.g. DES doorbell and pickup coincide in virtual time) — and
    /// `repro attribute` prints `n/a` instead of a misleading `0`.
    pub present: [bool; Stage::ALL.len()],
}

impl LatencyDecomposition {
    /// The component that dominates the mean.
    pub fn dominant_mean(&self) -> Stage {
        argmax(&self.mean_ns)
    }

    /// The component that dominates the p99 tail.
    pub fn dominant_tail(&self) -> Stage {
        argmax(&self.tail_mean_ns)
    }
}

fn argmax(vals: &[f64; Stage::ALL.len()]) -> Stage {
    let mut best = Stage::ALL[0];
    for s in Stage::ALL {
        if vals[s.index()] > vals[best.index()] {
            best = s;
        }
    }
    best
}

/// Decomposes a set of per-batch attributions (from
/// [`critical::analyze`](crate::critical::analyze), either driver) into
/// the mean and p99-tail component breakdown. Returns `None` when there
/// are no batches.
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
    let mut tail_batches = 0u64;
    for b in batches {
        mean_total += b.total_ns as f64;
        for s in Stage::ALL {
            mean_ns[s.index()] += b.stage_ns[s.index()] as f64;
            present[s.index()] |= b.stage_ns[s.index()] > 0;
        }
        if b.total_ns >= p99 {
            tail_batches += 1;
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
            op: 0,
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
        assert_eq!(d.tail_batches, 1);
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
                    op: 0,
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
