//! Property tests for the extracted cache decision core: the
//! stride-detecting readahead under LBA wraparound, interleaved streams,
//! and accuracy feedback, plus invariants of the full [`CacheCore`] state
//! machine under arbitrary read workloads.

use cam_protocol::cache_core::{
    replay_read_workload, CacheConfig, CacheCore, CoreLookup, Intent, ReadBatchPlan,
    ReadaheadConfig, ReadaheadCore,
};
use proptest::prelude::*;

fn ra_cfg() -> ReadaheadConfig {
    ReadaheadConfig::default()
}

proptest! {
    /// Near u64::MAX, `observe` must neither overflow nor predict past the
    /// address space: the predicted start saturates and stays >= start.
    #[test]
    fn observe_never_overflows_near_lba_wraparound(
        base in (u64::MAX - 10_000)..u64::MAX,
        stride in 1u64..=4096,
        steps in 2usize..8,
    ) {
        let mut ra = ReadaheadCore::new(ra_cfg());
        let mut start = base;
        for _ in 0..steps {
            if let Some((pred, blocks)) = ra.observe(start) {
                prop_assert!(blocks >= 1);
                prop_assert!(pred >= start, "prediction moved backwards");
                // Saturating: a prediction never wraps to a low LBA.
                prop_assert!(pred >= base);
            }
            start = start.saturating_add(stride);
        }
    }

    /// Two sequential streams interleaved batch-by-batch look like an
    /// alternating +/- stride to the per-channel detector: it must never
    /// confirm a stride, so it never predicts. (Stream separation is the
    /// driver's job — one detector per channel.)
    #[test]
    fn interleaved_streams_never_confirm_a_stride(
        a0 in 0u64..1 << 30,
        gap in (1u64 << 20)..(1 << 24),
        stride in 1u64..=256,
        rounds in 2usize..12,
    ) {
        let b0 = a0 + gap;
        let mut ra = ReadaheadCore::new(ra_cfg());
        let mut predicted = false;
        for i in 0..rounds as u64 {
            predicted |= ra.observe(a0 + i * stride).is_some();
            predicted |= ra.observe(b0 + i * stride).is_some();
        }
        prop_assert!(!predicted, "interleaved streams were chased");
    }

    /// Feedback monotonically shrinks the window to the floor under
    /// sustained inaccuracy, never below `min_window`, and the shrink
    /// happens within log2(initial/min) + 1 samples.
    #[test]
    fn sustained_inaccuracy_shrinks_window_to_floor(
        min_window in 1u32..=8,
        factor in 1u32..=5,
        accuracy_permille in 0u32..=250,
    ) {
        let accuracy = f64::from(accuracy_permille) / 1000.0;
        let initial = min_window << factor;
        let cfg = ReadaheadConfig {
            min_window,
            initial_window: initial,
            max_window: initial * 2,
            ..ra_cfg()
        };
        let mut ra = ReadaheadCore::new(cfg);
        let mut last = ra.window();
        for _ in 0..=factor {
            ra.feedback(accuracy);
            prop_assert!(ra.window() <= last, "window grew on bad accuracy");
            prop_assert!(ra.window() >= min_window);
            last = ra.window();
        }
        prop_assert_eq!(ra.window(), min_window.max(1));
    }

    /// The full core replay is deterministic and its counters are
    /// self-consistent on arbitrary batched read workloads: every access
    /// classifies to exactly one of hit/miss/coalesced, and readahead hits
    /// never exceed issues.
    #[test]
    fn replay_counters_are_consistent_on_arbitrary_workloads(
        seed_lbas in proptest::collection::vec(0u64..4096, 1..200),
        batch in 1usize..32,
        slots in 16usize..128,
        shards in 1usize..8,
    ) {
        let batches: Vec<Vec<u64>> =
            seed_lbas.chunks(batch).map(|c| c.to_vec()).collect();
        let accesses: u64 = batches.iter().map(|b| b.len() as u64).sum();
        let cfg = CacheConfig {
            slots,
            shards,
            flush_batch: 16,
            readahead: ra_cfg(),
        };
        let a = replay_read_workload(cfg, 4096, true, &batches);
        let b = replay_read_workload(cfg, 4096, true, &batches);
        prop_assert_eq!(a, b);
        prop_assert_eq!(a.hits + a.misses + a.coalesced, accesses);
        prop_assert!(a.readahead_hits <= a.readahead_issued);
        prop_assert_eq!(a.write_absorbed, 0);
        prop_assert_eq!(a.flushed_blocks, 0);
    }

    /// Pin accounting balances: after small demand batches, each published
    /// with some fills aborted before the next one classifies (so hits,
    /// CLOCK evictions and re-misses after aborts all occur), every slot is
    /// unpinned and evictable.
    #[test]
    fn pins_balance_and_cache_stays_reclaimable(
        lbas in proptest::collection::vec(0u64..64, 1..100),
        batch in 1usize..=8,
        complete_mod in 2u64..5,
    ) {
        let mut core = CacheCore::new(CacheConfig {
            slots: 16,
            shards: 2,
            flush_batch: 8,
            readahead: ReadaheadConfig { enable: false, ..ra_cfg() },
        });
        for (b, chunk) in lbas.chunks(batch).enumerate() {
            let mut plan = ReadBatchPlan::default();
            prop_assert_eq!(core.plan_read_batch(chunk, 0, &mut plan), chunk.len());
            plan.fills.retain(|&(pos, slot, _)| {
                let abort = ((b * batch + pos) as u64).is_multiple_of(complete_mod);
                if abort {
                    core.abort_fill(slot);
                }
                !abort
            });
            core.publish_read_batch(&plan);
        }
        // Every slot must now be reclaimable: holding the fills of cold
        // LBAs reserves all 16 slots (evicting as needed). A slot whose pin
        // leaked stays taken, and its shard turns Busy one fill early.
        let held: Vec<usize> = (1000..1200)
            .filter_map(|lba| match core.lookup(lba, Intent::DemandRead) {
                CoreLookup::Miss { slot, .. } => Some(slot),
                _ => None,
            })
            .collect();
        prop_assert_eq!(held.len(), 16, "unreclaimable slots");
    }
}
