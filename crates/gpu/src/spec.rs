//! [`GpuSpec`] — architectural parameters and SM-occupancy math.

/// Architectural parameters of a GPU.
#[derive(Clone, Copy, Debug)]
pub struct GpuSpec {
    /// Streaming multiprocessors.
    pub sms: u32,
    /// Maximum resident threads per SM.
    pub max_threads_per_sm: u32,
    /// Maximum resident thread blocks per SM.
    pub max_blocks_per_sm: u32,
    /// Host interface (PCIe Gen4 ×16) measured bandwidth, GB/s — the
    /// paper's 21 GB/s practical ceiling, not the 32 GB/s theoretical one.
    pub pcie_gbps: f64,
    /// BaM calibration: resident threads needed to keep one SSD saturated
    /// through the synchronous submit-and-poll API. See
    /// [`bam_sm_utilization`](Self::bam_sm_utilization).
    pub bam_threads_per_ssd: f64,
    /// BaM calibration: super-linear contention exponent.
    pub bam_contention_exp: f64,
}

impl GpuSpec {
    /// The 80 GB PCIe A100 used in the paper's testbed.
    pub fn a100_80g() -> Self {
        GpuSpec {
            sms: 108,
            max_threads_per_sm: 2048,
            max_blocks_per_sm: 32,
            pcie_gbps: 21.0,
            bam_threads_per_ssd: 32_500.0,
            bam_contention_exp: 1.18,
        }
    }

    /// Thread blocks resident per SM for a given block size (threads).
    pub fn blocks_per_sm(&self, threads_per_block: u32) -> u32 {
        assert!(threads_per_block >= 1);
        (self.max_threads_per_sm / threads_per_block).clamp(1, self.max_blocks_per_sm)
    }

    /// SMs occupied by a grid of `blocks` blocks of `threads_per_block`
    /// threads, capped at the machine size.
    pub fn sms_for(&self, blocks: u64, threads_per_block: u32) -> u32 {
        let per_sm = self.blocks_per_sm(threads_per_block) as u64;
        (blocks.div_ceil(per_sm)).min(self.sms as u64) as u32
    }

    /// Fraction of SMs (0..=1) BaM's GPU-managed control plane occupies to
    /// saturate `n_ssds` SSDs — the model behind **Fig. 4**.
    ///
    /// Mechanism: BaM's synchronous `bam::array` interface parks one GPU
    /// thread per in-flight request for the full I/O round trip, and queue
    /// contention inflates the thread count super-linearly with SSD count
    /// (the paper's own benchmark drives 12 SSDs with 262 144 threads of
    /// block size 64). Threads become blocks, blocks become SMs:
    /// `threads(n) = bam_threads_per_ssd · n^bam_contention_exp`.
    /// Calibrated anchors: ~15% of SMs for one SSD; ≥5 SSDs engage
    /// essentially the whole machine (the paper: "when the number of SSDs
    /// exceeds five, BaM engages nearly all available SMs").
    pub fn bam_sm_utilization(&self, n_ssds: u32) -> f64 {
        if n_ssds == 0 {
            return 0.0;
        }
        let threads = self.bam_threads_per_ssd * (n_ssds as f64).powf(self.bam_contention_exp);
        let blocks = (threads / 64.0).ceil() as u64; // BaM's 64-thread blocks
        let sms = self.sms_for(blocks, 64);
        sms as f64 / self.sms as f64
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn occupancy_math() {
        let g = GpuSpec::a100_80g();
        // 64-thread blocks: thread-limited 32/SM (2048/64 = 32 = block cap).
        assert_eq!(g.blocks_per_sm(64), 32);
        // 1024-thread blocks: 2 per SM.
        assert_eq!(g.blocks_per_sm(1024), 2);
        assert_eq!(g.sms_for(32, 64), 1);
        assert_eq!(g.sms_for(33, 64), 2);
        assert_eq!(g.sms_for(1_000_000, 64), 108); // capped at machine
    }

    #[test]
    fn fig4_anchor_points() {
        let g = GpuSpec::a100_80g();
        assert_eq!(g.bam_sm_utilization(0), 0.0);
        let u1 = g.bam_sm_utilization(1);
        assert!((0.10..0.20).contains(&u1), "1 SSD → {u1}");
        let u5 = g.bam_sm_utilization(5);
        assert!(u5 > 0.9, "5 SSDs → {u5}");
        let u12 = g.bam_sm_utilization(12);
        assert!((u12 - 1.0).abs() < 1e-9, "12 SSDs → {u12}");
        // Monotone in SSD count.
        let mut last = 0.0;
        for n in 1..=12 {
            let u = g.bam_sm_utilization(n);
            assert!(u >= last);
            last = u;
        }
    }
}
