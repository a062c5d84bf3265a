//! Dispatch planning: read dedup, stripe splitting, per-SSD grouping.
//!
//! `plan_batch` is the pure core of the poller's pickup path: it turns one
//! published batch (op, blocks-per-request, `(lba, addr)` pairs) into the
//! per-SSD groups of stripe-contiguous runs the workers execute, plus the
//! host-side copy pairs that replicate deduplicated reads at retire. Both
//! drivers call it with identical inputs, so every planning decision —
//! which duplicates drop, where stripe boundaries split, which SSD owns a
//! run — is made by one piece of code.

/// Operation carried by a batch.
#[derive(Clone, Copy, PartialEq, Eq, Debug)]
pub enum ChannelOp {
    /// SSD → GPU memory (`prefetch`).
    Read,
    /// GPU memory → SSD (`write_back`).
    Write,
}

/// Index into the telemetry `OPS` table (`["read", "write"]`) for an op.
pub fn op_index(op: ChannelOp) -> usize {
    match op {
        ChannelOp::Read => 0,
        ChannelOp::Write => 1,
    }
}

/// Array geometry the planner needs: how logical blocks map onto SSDs.
#[derive(Clone, Copy, Debug)]
pub struct PlanConfig {
    /// SSDs in the RAID-0 array.
    pub n_ssds: usize,
    /// Blocks per stripe unit.
    pub stripe_blocks: u64,
    /// Bytes per block (scales request addresses across split runs).
    pub block_size: u32,
}

impl PlanConfig {
    /// Maps a logical block onto `(ssd, device LBA)`.
    pub fn map(&self, lba: u64) -> (usize, u64) {
        let (stripe, within) = div_rem(lba, self.stripe_blocks);
        let (row, ssd) = div_rem(stripe, self.n_ssds as u64);
        (ssd as usize, row * self.stripe_blocks + within)
    }

    /// Splits `blocks` logical blocks starting at `lba` at stripe
    /// boundaries and calls `f(ssd, device LBA, run blocks, byte offset)`
    /// for each stripe-contiguous run, in order; the byte offset is the
    /// run's position inside the request's buffer. Runs never cross a
    /// stripe, so each lands whole on one SSD — whoever submits NVMe
    /// commands per SSD must walk a request this way, or a
    /// boundary-crossing request would silently de-stripe the array.
    #[inline]
    pub fn for_each_run(&self, lba: u64, blocks: u32, mut f: impl FnMut(usize, u64, u32, u64)) {
        let total = u64::from(blocks);
        let mut done = 0u64;
        while done < total {
            let cur = lba + done;
            let left = self.stripe_blocks - div_rem(cur, self.stripe_blocks).1;
            let run = left.min(total - done) as u32;
            let (ssd, dev_lba) = self.map(cur);
            f(ssd, dev_lba, run, done * u64::from(self.block_size));
            done += u64::from(run);
        }
    }
}

/// `(x / d, x % d)`: a shift and a mask when `d` is a power of two, as
/// stripe widths and array sizes usually are, which spares the planner two
/// or three integer divisions per request.
#[inline]
fn div_rem(x: u64, d: u64) -> (u64, u64) {
    if d.is_power_of_two() {
        (x >> d.trailing_zeros(), x & (d - 1))
    } else {
        (x / d, x % d)
    }
}

/// The planner's output for one batch.
pub struct BatchPlan {
    /// Operation the batch carries.
    pub op: ChannelOp,
    /// Blocks per request as published.
    pub blocks: u32,
    /// Requests as published (before dedup).
    pub requests: u64,
    /// Duplicate read requests removed from dispatch: `(primary address,
    /// duplicate address)` pairs replicated by a host-side copy at retire.
    pub dups: Vec<(u64, u64)>,
    /// Per-SSD groups of `(device LBA, address, blocks)` runs; indexed by
    /// SSD, possibly empty for SSDs the batch does not touch.
    pub groups: Vec<Vec<(u64, u64, u32)>>,
    /// Extra runs created by stripe-boundary splitting.
    pub stripe_splits: u64,
}

impl BatchPlan {
    /// Non-empty per-SSD groups (the batch's outstanding-group count).
    pub fn n_groups(&self) -> usize {
        self.groups.iter().filter(|g| !g.is_empty()).count()
    }

    /// Total runs across all groups — the SQEs a fault-free execution
    /// submits exactly once each.
    pub fn runs(&self) -> u64 {
        self.groups.iter().map(|g| g.len() as u64).sum()
    }
}

/// Plans one batch: dedup duplicate read LBAs (keep-first), split every
/// request at stripe boundaries, and group the resulting runs by SSD.
///
/// Duplicate LBAs in one read batch would fetch the same blocks from the
/// SSD several times. The first destination per LBA is kept, the rest are
/// dropped from dispatch and remembered as copy pairs: the retiring driver
/// replicates the fetched data to every duplicate destination before
/// region 4 is written, so the GPU still sees all of its destinations
/// populated. Requests in a batch share `blocks`, so equal start LBAs
/// cover identical ranges. Writes are left untouched (last-writer
/// semantics would change if we collapsed them).
///
/// A driver that plans every batch holds a [`Planner`] and its own output
/// buffers instead; this is [`Planner::plan`] into fresh ones.
pub fn plan_batch(
    cfg: &PlanConfig,
    op: ChannelOp,
    blocks: u32,
    reqs: Vec<(u64, u64)>,
) -> BatchPlan {
    let mut dups = Vec::new();
    // Striping spreads a batch evenly: size every group for its share up
    // front instead of growing it push by push.
    let mut groups: Vec<Vec<(u64, u64, u32)>> = (0..cfg.n_ssds)
        .map(|_| Vec::with_capacity(reqs.len().div_ceil(cfg.n_ssds)))
        .collect();
    let stripe_splits = Planner::default().plan(
        cfg,
        op,
        blocks,
        reqs.len(),
        |i| reqs[i],
        &mut dups,
        &mut groups,
    );
    BatchPlan {
        op,
        blocks,
        requests: reqs.len() as u64,
        dups,
        groups,
        stripe_splits,
    }
}

/// The planner's reusable scratch: the dedup index. One held across
/// batches makes planning allocation-free once it has seen the largest
/// batch.
#[derive(Default)]
pub struct Planner {
    /// Open-addressed first-occurrence index: the position of the first
    /// request of each distinct LBA, or [`Planner::EMPTY`].
    first: Vec<u32>,
}

impl Planner {
    const EMPTY: u32 = u32::MAX;

    /// Plans the `n` requests `req(0)`, …, `req(n - 1)` (`(lba, address)`
    /// each) the way [`plan_batch`] does, in one pass that reads each
    /// request once: appends the duplicate pairs to `dups` and each
    /// stripe-contiguous run to `groups[ssd]`, both in request order, and
    /// returns the extra runs stripe splitting made. `groups` holds one
    /// list per SSD; pass every list empty.
    ///
    /// The dedup index is an open-addressed table of request positions,
    /// probed linearly from a Fibonacci hash of the LBA — no SipHash. LBAs
    /// are chosen by the caller's own kernel, not by an outside party, and
    /// a batch is bounded by region-1 capacity, so a collision-resistant
    /// hash buys nothing here.
    #[allow(clippy::too_many_arguments)]
    pub fn plan(
        &mut self,
        cfg: &PlanConfig,
        op: ChannelOp,
        blocks: u32,
        n: usize,
        req: impl Fn(usize) -> (u64, u64),
        dups: &mut Vec<(u64, u64)>,
        groups: &mut [Vec<(u64, u64, u32)>],
    ) -> u64 {
        debug_assert_eq!(groups.len(), cfg.n_ssds);
        let dedup = op == ChannelOp::Read && n >= 2;
        // At most half full, so probes stay short and always find a vacancy.
        let bits = (2 * n).next_power_of_two().trailing_zeros();
        let mask = (1usize << bits) - 1;
        if dedup {
            self.first.clear();
            self.first.resize(mask + 1, Self::EMPTY);
        }
        let (mut kept, mut runs) = (0u64, 0u64);
        'reqs: for i in 0..n {
            let (lba, addr) = req(i);
            if dedup {
                let mut h = (lba.wrapping_mul(0x9E37_79B9_7F4A_7C15) >> (64 - bits)) as usize;
                loop {
                    match self.first[h] {
                        Self::EMPTY => {
                            self.first[h] = i as u32;
                            break;
                        }
                        k => {
                            let (first_lba, first_addr) = req(k as usize);
                            if first_lba == lba {
                                dups.push((first_addr, addr));
                                continue 'reqs;
                            }
                            h = (h + 1) & mask;
                        }
                    }
                }
            }
            // Split the request by stripe across SSDs. A request that
            // crosses a stripe boundary becomes several stripe-contiguous
            // runs — the CPU control plane owns the striping, so GPU code
            // never needs to know the array layout.
            kept += 1;
            cfg.for_each_run(lba, blocks, |ssd, dev_lba, run, offset| {
                groups[ssd].push((dev_lba, addr + offset, run));
                runs += 1;
            });
        }
        runs.saturating_sub(kept)
    }
}

/// Timing-independent protocol decisions, for driver-fidelity comparison.
///
/// Every field counts a *decision* the protocol makes — not an artifact of
/// scheduling — so a fixed workload must produce identical counters under
/// the threaded and the DES driver (`cam-bench`'s fidelity experiment
/// asserts exactly that).
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub struct DecisionCounters {
    /// Batches planned.
    pub batches: u64,
    /// Requests as published (pre-dedup).
    pub requests: u64,
    /// Duplicate reads dropped from dispatch.
    pub dedup_dropped: u64,
    /// Extra runs created at stripe boundaries.
    pub stripe_splits: u64,
    /// Non-empty per-SSD groups dispatched.
    pub groups: u64,
    /// First submissions (logical SQEs; retries excluded).
    pub sqes: u64,
    /// Transient-failure re-submissions.
    pub retries: u64,
    /// Commands failed by deadline.
    pub timeouts: u64,
}

impl DecisionCounters {
    /// Every counter as `(name, value)`, in declaration order — the one
    /// field list reports and tables iterate.
    pub fn fields(&self) -> [(&'static str, u64); 8] {
        [
            ("batches", self.batches),
            ("requests", self.requests),
            ("dedup_dropped", self.dedup_dropped),
            ("stripe_splits", self.stripe_splits),
            ("groups", self.groups),
            ("sqes", self.sqes),
            ("retries", self.retries),
            ("timeouts", self.timeouts),
        ]
    }

    /// Folds one batch plan into the counters.
    pub fn record_plan(&mut self, plan: &BatchPlan) {
        self.batches += 1;
        self.requests += plan.requests;
        self.dedup_dropped += plan.dups.len() as u64;
        self.stripe_splits += plan.stripe_splits;
        self.groups += plan.n_groups() as u64;
    }
}

/// Replays fault-free batches — `(start LBAs, blocks per request)` each —
/// through [`plan_batch`] alone and returns the decisions any driver must
/// reach on them: every plan folded in, one first submission per run. The
/// uncached counterpart of
/// [`replay_read_workload`](crate::cache_core::replay_read_workload).
pub fn replay_plan_workload<'a>(
    cfg: &PlanConfig,
    op: ChannelOp,
    batches: impl IntoIterator<Item = (&'a [u64], u32)>,
) -> DecisionCounters {
    let mut d = DecisionCounters::default();
    for (lbas, blocks) in batches {
        // Destinations are synthesized as the drivers lay them out; no
        // decision reads them.
        let stride = u64::from(blocks) * u64::from(cfg.block_size);
        let reqs = lbas
            .iter()
            .enumerate()
            .map(|(i, &lba)| (lba, i as u64 * stride))
            .collect();
        let plan = plan_batch(cfg, op, blocks, reqs);
        d.record_plan(&plan);
        d.sqes += plan.runs();
    }
    d
}

#[cfg(test)]
mod tests {
    use super::*;

    fn cfg() -> PlanConfig {
        PlanConfig {
            n_ssds: 4,
            stripe_blocks: 2,
            block_size: 4096,
        }
    }

    #[test]
    fn duplicate_reads_collapse_to_first_destination() {
        let plan = plan_batch(
            &cfg(),
            ChannelOp::Read,
            1,
            vec![(10, 0x1000), (20, 0x2000), (10, 0x3000), (10, 0x4000)],
        );
        assert_eq!(plan.requests, 4);
        assert_eq!(plan.dups, vec![(0x1000, 0x3000), (0x1000, 0x4000)]);
        assert_eq!(plan.runs(), 2, "two distinct LBAs survive dispatch");
    }

    #[test]
    fn dedup_matches_a_keep_first_map_on_colliding_and_scattered_lbas() {
        // Reference: the ordered-map formulation of keep-first dedup.
        type Pairs = Vec<(u64, u64)>;
        fn reference(reqs: &[(u64, u64)]) -> (Pairs, Pairs) {
            let mut first = std::collections::BTreeMap::new();
            let (mut kept, mut dups) = (Vec::new(), Vec::new());
            for &(lba, addr) in reqs {
                match first.get(&lba) {
                    Some(&primary) => dups.push((primary, addr)),
                    None => {
                        first.insert(lba, addr);
                        kept.push((lba, addr));
                    }
                }
            }
            (kept, dups)
        }
        // One SSD and one unbounded stripe: every kept request is one run
        // at its own LBA.
        let whole = PlanConfig {
            n_ssds: 1,
            stripe_blocks: u64::MAX,
            block_size: 4096,
        };
        let mut x = 0x2545_F491_4F6C_DD1Du64;
        let mut next = move || {
            x ^= x << 13;
            x ^= x >> 7;
            x ^= x << 17;
            x
        };
        // One planner across every case: its index is reused at every size.
        let mut planner = Planner::default();
        for n in [0usize, 1, 2, 3, 64, 257, 4096, 5] {
            for spread in [1u64, 7, 64, 1 << 20, u64::MAX] {
                // `<< 40` strips the low bits a weaker hash would lean on.
                for shift in [0u32, 40] {
                    let reqs: Vec<(u64, u64)> = (0..n)
                        .map(|i| ((next() % spread) << shift, 0x1000 * i as u64))
                        .collect();
                    let (kept, dups) = reference(&reqs);
                    let (mut got_dups, mut groups) = (Vec::new(), vec![Vec::new()]);
                    let splits = planner.plan(
                        &whole,
                        ChannelOp::Read,
                        1,
                        n,
                        |i| reqs[i],
                        &mut got_dups,
                        &mut groups,
                    );
                    assert_eq!(got_dups, dups, "n={n} spread={spread}");
                    let got: Pairs = groups[0].iter().map(|&(l, a, _)| (l, a)).collect();
                    assert_eq!(got, kept, "n={n} spread={spread}");
                    assert_eq!(splits, 0);
                    let plan = plan_batch(&whole, ChannelOp::Read, 1, reqs);
                    assert_eq!((plan.dups, &plan.groups), (dups, &groups));
                }
            }
        }
    }

    #[test]
    fn writes_are_never_deduplicated() {
        let plan = plan_batch(
            &cfg(),
            ChannelOp::Write,
            1,
            vec![(10, 0x1000), (10, 0x2000)],
        );
        assert!(plan.dups.is_empty());
        assert_eq!(plan.runs(), 2, "last-writer semantics preserved");
    }

    #[test]
    fn stripe_crossings_split_into_contiguous_runs() {
        // stripe_blocks = 2: a 2-block request starting at odd LBA 1 covers
        // blocks {1, 2} and crosses the stripe boundary at 2.
        let plan = plan_batch(&cfg(), ChannelOp::Read, 2, vec![(1, 0x1000)]);
        assert_eq!(plan.stripe_splits, 1);
        assert_eq!(plan.runs(), 2);
        // Block 1 → stripe 0 → ssd 0 at device LBA 1; block 2 → stripe 1 →
        // ssd 1 at device LBA 0. The second run's address advances by one
        // block.
        assert_eq!(plan.groups[0], vec![(1, 0x1000, 1)]);
        assert_eq!(plan.groups[1], vec![(0, 0x1000 + 4096, 1)]);
    }

    #[test]
    fn the_map_is_the_division_formula_for_every_geometry() {
        for n_ssds in 1..=6usize {
            for stripe_blocks in [1u64, 2, 3, 4, 7, 8, 64, 96] {
                let c = PlanConfig {
                    n_ssds,
                    stripe_blocks,
                    block_size: 4096,
                };
                for lba in (0..300u64).chain([u64::MAX / 3, u64::MAX - 1, u64::MAX]) {
                    let n = n_ssds as u64;
                    let stripe = lba / stripe_blocks;
                    let want = (
                        (stripe % n) as usize,
                        stripe / n * stripe_blocks + lba % stripe_blocks,
                    );
                    assert_eq!(
                        c.map(lba),
                        want,
                        "{n_ssds} SSDs, stripe {stripe_blocks}, lba {lba}"
                    );
                }
            }
        }
    }

    #[test]
    fn groups_follow_the_raid0_map() {
        let c = cfg();
        let plan = plan_batch(
            &c,
            ChannelOp::Read,
            1,
            (0..16u64).map(|lba| (lba, lba * 4096)).collect(),
        );
        assert_eq!(plan.n_groups(), 4);
        assert_eq!(plan.stripe_splits, 0);
        for (ssd, group) in plan.groups.iter().enumerate() {
            assert_eq!(group.len(), 4);
            for &(dev_lba, _, blocks) in group {
                assert_eq!(blocks, 1);
                // Reconstruct the logical block and confirm the bijection.
                let stripe = dev_lba / c.stripe_blocks;
                let within = dev_lba % c.stripe_blocks;
                let lba = (stripe * c.n_ssds as u64 + ssd as u64) * c.stripe_blocks + within;
                assert_eq!(c.map(lba), (ssd, dev_lba));
            }
        }
    }

    #[test]
    fn decision_counters_fold_plans() {
        let mut d = DecisionCounters::default();
        let plan = plan_batch(
            &cfg(),
            ChannelOp::Read,
            2,
            vec![(1, 0), (1, 4096), (4, 8192)],
        );
        d.record_plan(&plan);
        assert_eq!(d.batches, 1);
        assert_eq!(d.requests, 3);
        assert_eq!(d.dedup_dropped, 1);
        assert_eq!(d.stripe_splits, 1);
        assert_eq!(d.groups, plan.n_groups() as u64);
    }
}
