//! `attribution::analyze` cuts a batch's latency along its gating group,
//! and on any timeline every attributed batch's components sum to its
//! doorbell→retire total — with 1–4 groups per batch completing out of SSD
//! order, groups that never reached `GroupSubmit`, batches with no group
//! event, and retires whose doorbell fell out of the ring.

use cam_telemetry::attribution::analyze;
use cam_telemetry::{EventKind, FlightRecorder};
use proptest::prelude::*;

/// One group: dispatch after pickup, whether it was submitted, submit after
/// dispatch, completion after that, ns.
type GroupSpec = (u64, bool, u64, u64);
/// One batch: start, pickup delay, its groups, retire delay after the last
/// completion, whether the doorbell is still in the ring.
type BatchSpec = (u64, u64, Vec<GroupSpec>, u64, bool);

fn emit(rec: &FlightRecorder, seq: u64, spec: &BatchSpec) {
    let (start, pickup, groups, retire, doorbell) = spec;
    let channel = (seq % 3) as u16;
    let (requests, op, worker, sqes, errors) = (4 * groups.len() as u32, 0, 0, 1, 0);
    if *doorbell {
        rec.emit_at(
            *start,
            EventKind::BatchDoorbell {
                channel,
                seq,
                op,
                requests,
            },
        );
    }
    let picked = start + pickup;
    rec.emit_at(picked, EventKind::BatchPickup { channel, seq });
    let mut last = picked;
    for (ssd, &(dispatch, submitted, submit, complete)) in groups.iter().enumerate() {
        let ssd = ssd as u16;
        let mut at = picked + dispatch;
        rec.emit_at(
            at,
            EventKind::GroupDispatch {
                channel,
                seq,
                ssd,
                worker,
            },
        );
        if submitted {
            at += submit;
            rec.emit_at(
                at,
                EventKind::GroupSubmit {
                    channel,
                    seq,
                    ssd,
                    worker,
                    sqes,
                },
            );
        }
        at += complete;
        rec.emit_at(
            at,
            EventKind::GroupComplete {
                channel,
                seq,
                ssd,
                worker,
                errors,
            },
        );
        last = last.max(at);
    }
    rec.emit_at(
        last + retire,
        EventKind::BatchRetire {
            channel,
            seq,
            errors,
        },
    );
}

/// SSD 1 is dispatched first but completes last: it gated retirement, so
/// its dispatch, submit and completion cut the latency — not SSD 0's later
/// dispatch or longer submit span, as per-stage maxima over groups would.
#[test]
fn attributes_latency_along_the_gating_group() {
    let rec = FlightRecorder::new();
    let groups = vec![(20, true, 30, 40), (10, true, 20, 470)];
    emit(&rec, 0, &(1000, 10, groups, 10, true));
    let b = &analyze(&rec.snapshot())[0];
    assert_eq!((b.total_ns, b.requests), (520, 8));
    assert_eq!(b.stage_ns, [10, 10, 20, 470, 10]);
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(128))]

    #[test]
    fn every_batch_closes(
        specs in proptest::collection::vec(
            (
                0u64..50_000,
                0u64..2_000,
                proptest::collection::vec(
                    (0u64..5_000, proptest::bool::ANY, 0u64..5_000, 0u64..40_000),
                    0..5,
                ),
                0u64..2_000,
                proptest::bool::ANY,
            ),
            1..24,
        ),
    ) {
        let rec = FlightRecorder::new();
        for (seq, spec) in specs.iter().enumerate() {
            emit(&rec, seq as u64, spec);
        }
        let batches = analyze(&rec.snapshot());
        prop_assert_eq!(batches.len(), specs.iter().filter(|s| s.4).count());
        for b in &batches {
            let spec = &specs[b.seq as usize];
            let sum: u64 = b.stage_ns.iter().sum();
            prop_assert_eq!(sum, b.total_ns, "batch {:?}: {:?}", spec, b.stage_ns);
        }
    }
}
