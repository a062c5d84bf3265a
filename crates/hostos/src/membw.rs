//! [`MemoryModel`] — CPU memory-channel bandwidth and the cost of the
//! bounce-buffer data path (Figs. 14 and 15).
//!
//! When a GPU reads SSDs through a CPU-staged path (SPDK and every kernel
//! stack), each payload byte crosses CPU DRAM **twice**: the SSD DMA-writes
//! it into a host buffer, then the GPU DMA-reads it back out
//! ("Reading from SSDs consumes two times the CPU memory bandwidth",
//! § IV-J). CAM's direct path touches DRAM only for queue entries and
//! doorbells. The model exposes both the traffic accounting (Fig. 14) and
//! the delivered-throughput cap when channels are scarce (Fig. 15).

/// DRAM configuration and efficiency parameters.
#[derive(Clone, Copy, Debug)]
pub struct MemoryModel {
    /// Populated DDR channels.
    pub channels: u32,
    /// Raw per-channel bandwidth, GB/s (DDR4-3200 = 25.6).
    pub per_channel_gbps: f64,
    /// Fraction of raw bandwidth sustainable by the mixed read+write
    /// streaming pattern of a bounce buffer (measured STREAM-like
    /// efficiencies with bidirectional DMA land near half the peak).
    pub mixed_stream_efficiency: f64,
    /// Bytes of DRAM traffic per payload byte on the *direct* path
    /// (submission/completion entries, doorbells): a few percent.
    pub direct_overhead_ratio: f64,
}

impl MemoryModel {
    /// The testbed's fully-populated configuration (16 channels across two
    /// Xeon Gold 5320 sockets) — the paper's "16c".
    pub fn xeon_16ch() -> Self {
        Self::with_channels(16)
    }

    /// An arbitrary channel count with testbed DDR4-3200 parameters.
    pub fn with_channels(channels: u32) -> Self {
        assert!(channels >= 1);
        MemoryModel {
            channels,
            per_channel_gbps: 25.6,
            mixed_stream_efficiency: 0.55,
            direct_overhead_ratio: 0.03,
        }
    }

    /// DRAM bandwidth usable by the staging path, GB/s.
    pub fn usable_gbps(&self) -> f64 {
        self.channels as f64 * self.per_channel_gbps * self.mixed_stream_efficiency
    }

    /// DRAM traffic generated when moving `ssd_gbps` of payload, GB/s.
    /// This is Fig. 14's y-axis.
    pub fn traffic_gbps(&self, ssd_gbps: f64, staged: bool) -> f64 {
        if staged {
            2.0 * ssd_gbps
        } else {
            self.direct_overhead_ratio * ssd_gbps
        }
    }

    /// Payload throughput the staged path actually delivers when the
    /// SSDs could supply `demand_gbps` (Fig. 15's bars).
    ///
    /// The hard cap is `usable / 2` (two crossings per byte); above 50%
    /// channel utilization a queueing derate of 10% applies — partially
    /// loaded channels already lose efficiency to bank conflicts between
    /// the inbound and outbound streams.
    pub fn staged_delivered_gbps(&self, demand_gbps: f64) -> f64 {
        let cap = self.usable_gbps() / 2.0;
        let delivered = demand_gbps.min(cap);
        let utilization = self.traffic_gbps(delivered, true) / self.usable_gbps();
        if utilization > 0.5 {
            delivered * 0.9
        } else {
            delivered
        }
    }

    /// Direct-path delivered throughput: DRAM is never the binding
    /// constraint (queue-entry traffic is ~3% of payload).
    pub fn direct_delivered_gbps(&self, demand_gbps: f64) -> f64 {
        let cap = self.usable_gbps() / self.direct_overhead_ratio;
        demand_gbps.min(cap)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn staged_path_doubles_traffic() {
        let m = MemoryModel::xeon_16ch();
        assert_eq!(m.traffic_gbps(21.0, true), 42.0);
        assert!(m.traffic_gbps(21.0, false) < 1.0);
    }

    #[test]
    fn sixteen_channels_do_not_constrain_the_paper_workload() {
        let m = MemoryModel::xeon_16ch();
        // Read: 21 GB/s demand passes through intact.
        assert!((m.staged_delivered_gbps(21.0) - 21.0).abs() < 1e-9);
        // Write: 8 GB/s likewise.
        assert!((m.staged_delivered_gbps(8.2) - 8.2).abs() < 1e-9);
    }

    #[test]
    fn two_channels_throttle_spdk_reads_but_not_cam() {
        let m = MemoryModel::with_channels(2);
        let spdk = m.staged_delivered_gbps(21.0);
        assert!(
            spdk < 15.0 && spdk > 10.0,
            "2c staged read should drop well below 21, got {spdk}"
        );
        let cam = m.direct_delivered_gbps(21.0);
        assert!((cam - 21.0).abs() < 1e-9);
    }

    #[test]
    fn two_channels_derate_writes_modestly() {
        let m = MemoryModel::with_channels(2);
        let w = m.staged_delivered_gbps(8.2);
        assert!(w < 8.2, "some derate expected");
        assert!(w > 6.5, "writes should not collapse, got {w}");
    }

    #[test]
    fn delivered_is_monotone_in_channels() {
        let mut last = 0.0;
        for ch in [1, 2, 4, 8, 16] {
            let d = MemoryModel::with_channels(ch).staged_delivered_gbps(21.0);
            assert!(d >= last, "channels {ch}: {d} < {last}");
            last = d;
        }
        assert!((last - 21.0).abs() < 1e-9);
    }
}
