//! [`Rig`] — the assembled functional testbed: N simulated SSDs, a
//! simulated GPU, and the striping math that presents the SSDs as one array
//! address space.

use std::sync::Arc;

use cam_blockdev::{BlockGeometry, BlockStore, Raid0, SparseMemStore};
use cam_gpu::{Gpu, GpuSpec};
use cam_nvme::{DeviceConfig, DmaSpace, NvmeDevice};
use cam_protocol::PlanConfig;

/// The functional testbed CAM's control plane runs on. Every SSD DMAs
/// into one address space: the GPU's pinned device memory.
pub struct Rig {
    gpu: Arc<Gpu>,
    devices: Vec<NvmeDevice>,
    stores: Vec<Arc<dyn BlockStore>>,
    stripe_blocks: u64,
    block_size: u32,
}

/// Configuration for building a [`Rig`].
#[derive(Clone, Debug)]
pub struct RigConfig {
    /// Number of SSDs (the paper uses up to 12).
    pub n_ssds: usize,
    /// Blocks per SSD.
    pub blocks_per_ssd: u64,
    /// Block size in bytes (512 or 4096 in the paper).
    pub block_size: u32,
    /// GPU device-memory bytes. The address range is reserved at
    /// construction; host memory is paid for page by page on first write.
    pub gpu_mem: usize,
    /// Stripe width in blocks.
    pub stripe_blocks: u64,
    /// Optional injected wall-clock latency per device burst (each time a
    /// service thread finds a queue pair non-empty — see
    /// [`DeviceConfig::burst_latency`]), to make I/O slow enough that
    /// overlap is visible in real-time demos. A burst's bytes move inside
    /// this latency and its completions post when it has passed, so a
    /// burst costs the latency, not the latency plus its copies. On Linux
    /// each sleep lasts
    /// within a few µs of this latency: the service threads of a device
    /// given one run with 1 ns timer slack instead of the kernel's default
    /// 50 µs, which would make 100 µs take about 154 µs.
    pub burst_latency: Option<std::time::Duration>,
}

impl Default for RigConfig {
    fn default() -> Self {
        RigConfig {
            n_ssds: 4,
            blocks_per_ssd: 16 * 1024,
            block_size: 4096,
            gpu_mem: 64 << 20,
            stripe_blocks: 1,
            burst_latency: None,
        }
    }
}

impl Rig {
    /// Builds and starts the testbed with fresh sparse media.
    pub fn new(cfg: RigConfig) -> Self {
        let stores: Vec<Arc<dyn BlockStore>> = (0..cfg.n_ssds)
            .map(|_| {
                Arc::new(SparseMemStore::new(BlockGeometry::new(
                    cfg.block_size,
                    cfg.blocks_per_ssd,
                ))) as Arc<dyn BlockStore>
            })
            .collect();
        Self::with_stores(cfg, stores)
    }

    /// Builds the testbed over caller-provided media (e.g. wrapped in
    /// [`FaultyStore`](cam_blockdev::FaultyStore) for failure-injection
    /// tests). Store geometries must match the config.
    pub fn with_stores(cfg: RigConfig, stores: Vec<Arc<dyn BlockStore>>) -> Self {
        assert!(cfg.n_ssds >= 1);
        assert_eq!(stores.len(), cfg.n_ssds, "one store per SSD");
        for s in &stores {
            assert_eq!(s.geometry().block_size, cfg.block_size);
        }
        let gpu = Gpu::new(GpuSpec::a100_80g(), cfg.gpu_mem);
        let devices = stores
            .iter()
            .enumerate()
            .map(|(i, store)| {
                NvmeDevice::start(
                    DeviceConfig {
                        name: format!("nvme{i}"),
                        burst_latency: cfg.burst_latency,
                        ..DeviceConfig::default()
                    },
                    Arc::clone(store),
                    gpu.memory().region(),
                )
            })
            .collect();
        Rig {
            gpu,
            devices,
            stores,
            stripe_blocks: cfg.stripe_blocks,
            block_size: cfg.block_size,
        }
    }

    /// The simulated GPU.
    pub fn gpu(&self) -> &Arc<Gpu> {
        &self.gpu
    }

    /// The SSDs.
    pub fn devices(&self) -> &[NvmeDevice] {
        &self.devices
    }

    /// Number of SSDs.
    pub fn n_ssds(&self) -> usize {
        self.devices.len()
    }

    /// Block size in bytes.
    pub fn block_size(&self) -> u32 {
        self.block_size
    }

    /// Stripe width in blocks.
    pub fn stripe_blocks(&self) -> u64 {
        self.stripe_blocks
    }

    /// Total array capacity in blocks.
    pub fn array_blocks(&self) -> u64 {
        self.raid_view().geometry().blocks
    }

    /// The array geometry as the protocol's planner takes it — the RAID-0
    /// map and stripe-run walk every per-SSD submitter uses.
    pub fn plan_config(&self) -> PlanConfig {
        PlanConfig {
            n_ssds: self.devices.len(),
            stripe_blocks: self.stripe_blocks,
            block_size: self.block_size,
        }
    }

    /// A RAID-0 view over the SSD media, for loading datasets out-of-band
    /// and checking what the SSDs hold.
    pub fn raid_view(&self) -> Raid0 {
        Raid0::new(self.stores.clone(), self.stripe_blocks)
    }

    /// The address space the SSDs DMA through — the GPU's pinned device
    /// memory — for host-side copies between pinned buffers.
    pub fn dma_space(&self) -> Arc<dyn DmaSpace> {
        self.gpu.memory().region()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use cam_blockdev::Lba;

    #[test]
    fn rig_map_agrees_with_raid0() {
        // `cam-blockdev` sits below `cam-protocol` and keeps its own copy of
        // the stripe map; this pins the pair.
        let rig = Rig::new(RigConfig {
            n_ssds: 3,
            stripe_blocks: 4,
            ..RigConfig::default()
        });
        let (plan, raid) = (rig.plan_config(), rig.raid_view());
        for lba in 0..2000u64 {
            let (s, l) = plan.map(lba);
            let (rs, rl) = raid.map(Lba(lba));
            assert_eq!((s, l), (rs, rl.index()));
        }
    }

    #[test]
    fn devices_dma_only_into_gpu_memory() {
        let rig = Rig::new(RigConfig::default());
        // Write a pattern via the raid view, then read one block into GPU
        // memory and one to a host address outside it.
        let raid = rig.raid_view();
        raid.write(Lba(0), &vec![0x5Au8; 4096]).unwrap();
        let qp = rig.devices()[0].add_queue_pair(8);
        let gbuf = rig.gpu().alloc(4096).unwrap();
        let region = rig.gpu().memory().region();
        let resident = region.resident_pages();
        qp.submit(cam_nvme::spec::Sqe::read(1, 0, 1, gbuf.addr()))
            .unwrap();
        qp.submit(cam_nvme::spec::Sqe::read(2, 0, 1, 0x2_0000_0000))
            .unwrap();
        let mut cqes = Vec::new();
        while cqes.len() < 2 {
            match qp.poll_cqe() {
                Some(c) => cqes.push(c),
                None => std::thread::yield_now(),
            }
        }
        cqes.sort_by_key(|c| c.cid);
        assert!(cqes[0].status.is_ok(), "{:?}", cqes[0]);
        assert!(!cqes[1].status.is_ok(), "{:?}", cqes[1]);
        assert!(gbuf.to_vec().iter().all(|&b| b == 0x5A));
        // Only the GPU buffer's page was paid for.
        assert_eq!(region.resident_pages(), resident + 1);
    }
}
