//! The threaded engine makes exactly the planned decisions, in every
//! configuration it has: `pipelined ∈ {true, false} × workers ∈ {1, 2}`.
//!
//! A seeded 4-channel read workload with duplicate LBAs (dedup decisions)
//! and two-block requests at odd LBAs (stripe-boundary splits) runs through
//! `CamContext`; the control plane's decisions, read back from its
//! registry, must equal a pure `cam_protocol::plan_batch` replay field for
//! field (groups included), and every destination — duplicates included —
//! must hold the media's bytes. Counters and bytes only: nothing
//! here depends on timing. Two workers force cross-worker handoff
//! (each worker plans channels whose SSD groups the other owns).

use std::sync::Arc;

use cam::substrate::blockdev::{BlockStore, Lba};
use cam::{CamConfig, CamContext, ChannelOp, MetricsRegistry, Rig, RigConfig};
use cam_bench::fidelity_run::threaded_decisions;
use cam_protocol::{replay_plan_workload, DecisionCounters, PlanConfig};
use cam_telemetry::Observability;

const N_SSDS: usize = 4;
const N_CHANNELS: usize = 4;
const STRIPE_BLOCKS: u64 = 2;
const BLOCK_SIZE: usize = 4096;
/// Two blocks starting at an odd LBA cross a stripe boundary.
const BLOCKS_PER_REQ: u32 = 2;
const REQ_BYTES: usize = BLOCKS_PER_REQ as usize * BLOCK_SIZE;
const BATCH_REQS: usize = 16;
const ROUNDS: usize = 6;
/// Per-channel LBA window: 16 picks from 96 slots make duplicates
/// near-certain; channel `ch` reads `[ch * 256, ch * 256 + 96]`.
const LBA_WINDOW: u64 = 96;
const MEDIA_BLOCKS: u64 = N_CHANNELS as u64 * 256;

fn workload() -> Vec<Vec<Vec<u64>>> {
    let mut state = 0x5EED_CAFEu64;
    let mut next = || {
        state = state
            .wrapping_mul(6364136223846793005)
            .wrapping_add(1442695040888963407);
        state >> 33
    };
    (0..N_CHANNELS as u64)
        .map(|ch| {
            (0..ROUNDS)
                .map(|_| {
                    (0..BATCH_REQS)
                        .map(|_| ch * 256 + next() % LBA_WINDOW)
                        .collect()
                })
                .collect()
        })
        .collect()
}

fn block_pattern(lba: u64) -> Vec<u8> {
    (0..BLOCK_SIZE)
        .map(|i| (lba as usize * 31 + i) as u8)
        .collect()
}

/// What a fault-free execution must decide, from the planner alone.
fn replay(channels: &[Vec<Vec<u64>>]) -> DecisionCounters {
    let cfg = PlanConfig {
        n_ssds: N_SSDS,
        stripe_blocks: STRIPE_BLOCKS,
        block_size: BLOCK_SIZE as u32,
    };
    let batches = channels.iter().flatten();
    replay_plan_workload(
        &cfg,
        ChannelOp::Read,
        batches.map(|lbas| (lbas.as_slice(), BLOCKS_PER_REQ)),
    )
}

#[test]
fn every_engine_configuration_makes_the_planned_decisions() {
    let channels = workload();
    let expected = replay(&channels);
    assert!(expected.dedup_dropped > 0, "workload has no duplicates");
    assert!(expected.stripe_splits > 0, "workload has no stripe splits");

    for (pipelined, workers) in [(true, 1), (false, 1), (true, 2), (false, 2)] {
        let label = format!("pipelined={pipelined} workers={workers}");
        let rig = Rig::new(RigConfig {
            n_ssds: N_SSDS,
            stripe_blocks: STRIPE_BLOCKS,
            ..RigConfig::default()
        });
        let raid = rig.raid_view();
        for lba in 0..MEDIA_BLOCKS {
            raid.write(Lba(lba), &block_pattern(lba)).unwrap();
        }
        let registry = Arc::new(MetricsRegistry::new());
        let cam = CamContext::attach_observed(
            &rig,
            CamConfig {
                n_channels: N_CHANNELS,
                workers: Some(workers),
                pipelined,
                ..CamConfig::default()
            },
            Observability::with_registry(Arc::clone(&registry)),
        );

        std::thread::scope(|s| {
            for (ch, batches) in channels.iter().enumerate() {
                let dev = cam.device();
                let buf = cam.alloc(BATCH_REQS * REQ_BYTES).unwrap();
                let label = &label;
                s.spawn(move || {
                    let addr = buf.addr();
                    for lbas in batches {
                        dev.submit_scatter(
                            ch,
                            ChannelOp::Read,
                            lbas,
                            |i| addr + (i * REQ_BYTES) as u64,
                            BLOCKS_PER_REQ,
                        )
                        .unwrap()
                        .wait()
                        .unwrap();
                        let got = buf.to_vec();
                        for (i, &lba) in lbas.iter().enumerate() {
                            let want = [block_pattern(lba), block_pattern(lba + 1)].concat();
                            assert!(
                                got[i * REQ_BYTES..(i + 1) * REQ_BYTES] == want[..],
                                "{label}: channel {ch} request {i} (lba {lba}) read wrong bytes"
                            );
                        }
                    }
                });
            }
        });

        assert_eq!(cam.stats().errors, 0, "{label}");
        assert_eq!(
            threaded_decisions(&registry.snapshot()),
            expected,
            "{label}"
        );
    }
}
