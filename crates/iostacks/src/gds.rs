//! [`GdsBackend`] — the NVIDIA GPUDirect Storage baseline (§ IV-E).
//!
//! GDS's defining split: the **data path is direct** (NVMe DMA straight
//! into pinned GPU memory, no bounce buffer) but the **control path walks
//! the filesystem stack** — "GDS relies on a complex file system to deal
//! with the EXT4 File System, NVFS Management, and CUDA library-related
//! tasks". Here every request resolves its LBA runs through the
//! [`MiniFs`], then submits NVMe commands targeting GPU addresses and
//! waits synchronously — which is exactly why its throughput is
//! control-path-bound in Fig. 10.
//!
//! [`MiniFs`]: cam_hostos::MiniFs

use std::sync::Arc;

use cam_blockdev::BlockStore;
use cam_hostos::{FileId, IoDir, MiniFs};
use cam_nvme::spec::{Sqe, Status};
use cam_nvme::QueuePair;
use cam_protocol::PlanConfig;

use crate::rig::Rig;
use crate::types::{BackendError, IoRequest, StorageBackend};

/// GDS-style backend: filesystem control path, direct data path.
pub struct GdsBackend {
    fs: MiniFs,
    file: FileId,
    qps: Vec<Arc<QueuePair>>,
    /// Array geometry: the RAID-0 map and the stripe-run walk.
    plan: PlanConfig,
}

impl GdsBackend {
    /// Builds the backend: a filesystem on the array with one dataset file,
    /// plus one queue pair per SSD for the direct submissions.
    pub fn new(rig: &Rig) -> Self {
        let raid = Arc::new(rig.raid_view());
        let capacity = raid.geometry().capacity_bytes();
        let fs = MiniFs::format(raid);
        let file = fs.create(capacity).expect("array-sized file fits");
        GdsBackend {
            fs,
            file,
            qps: rig
                .devices()
                .iter()
                .map(|d| d.add_queue_pair(256))
                .collect(),
            plan: rig.plan_config(),
        }
    }

    /// Filesystem lookups performed (the NVFS/EXT4 control-path work).
    pub fn lookups(&self) -> u64 {
        self.fs.lookup_count()
    }
}

impl StorageBackend for GdsBackend {
    fn name(&self) -> &'static str {
        "GDS"
    }

    fn staged_data_path(&self) -> bool {
        false // data goes direct; the *control* path is the problem
    }

    fn execute_batch(&self, reqs: &[IoRequest]) -> Result<(), BackendError> {
        let bs = u64::from(self.plan.block_size);
        for req in reqs {
            // Control path: cuFileRead resolves (file, offset) → LBA runs
            // through the filesystem, synchronously, per request.
            let runs = self
                .fs
                .lookup(self.file, req.lba * bs, req.blocks as u64 * bs)?;
            // Data path: direct NVMe submissions per stripe-contiguous run.
            let mut pending = 0u64;
            let mut byte_off = 0u64;
            for (file_lba, blocks) in runs {
                // The file spans the array from LBA 0, so file LBAs are
                // array LBAs; split further at stripe boundaries.
                self.plan.for_each_run(
                    file_lba.index(),
                    blocks as u32,
                    |ssd, dev_lba, run, offset| {
                        let addr = req.addr + byte_off + offset;
                        let sqe = match req.dir {
                            IoDir::Read => Sqe::read(0, dev_lba, run, addr),
                            IoDir::Write => Sqe::write(0, dev_lba, run, addr),
                        };
                        // Depth 256 with synchronous per-request waits can't
                        // overflow.
                        self.qps[ssd].submit(sqe).expect("QP depth suffices");
                        pending += 1;
                    },
                );
                byte_off += blocks * bs;
            }
            // Synchronous completion wait (cuFileRead returns when done).
            let mut done = 0u64;
            while done < pending {
                let mut any = false;
                for qp in &self.qps {
                    while let Some(cqe) = qp.poll_cqe() {
                        if cqe.status != Status::Success {
                            return Err(BackendError::Command(cqe.status));
                        }
                        done += 1;
                        any = true;
                    }
                }
                if !any {
                    std::thread::yield_now();
                }
            }
        }
        Ok(())
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::rig::RigConfig;

    #[test]
    fn direct_data_path_with_fs_control_path() {
        let rig = Rig::new(RigConfig {
            n_ssds: 3,
            ..RigConfig::default()
        });
        let be = GdsBackend::new(&rig);
        let n = 24u64;
        let buf = rig.gpu().alloc((n as usize) * 4096).unwrap();
        for i in 0..n {
            buf.write(i as usize * 4096, &vec![(i + 9) as u8; 4096]);
        }
        let writes: Vec<IoRequest> = (0..n)
            .map(|i| IoRequest::write(i, 1, buf.addr() + i * 4096))
            .collect();
        be.execute_batch(&writes).unwrap();
        let out = rig.gpu().alloc((n as usize) * 4096).unwrap();
        let reads: Vec<IoRequest> = (0..n)
            .map(|i| IoRequest::read(i, 1, out.addr() + i * 4096))
            .collect();
        be.execute_batch(&reads).unwrap();
        assert_eq!(out.to_vec(), buf.to_vec());
        // Every request paid a filesystem lookup.
        assert_eq!(be.lookups(), 2 * n);
        assert!(!be.staged_data_path());
    }

    #[test]
    fn multi_block_requests_split_correctly() {
        let rig = Rig::new(RigConfig {
            n_ssds: 3,
            stripe_blocks: 2,
            ..RigConfig::default()
        });
        let be = GdsBackend::new(&rig);
        let buf = rig.gpu().alloc(16 * 4096).unwrap();
        buf.write(0, &vec![0x77; 16 * 4096]);
        be.execute_batch(&[IoRequest::write(1, 16, buf.addr())])
            .unwrap();
        let out = rig.gpu().alloc(16 * 4096).unwrap();
        be.execute_batch(&[IoRequest::read(1, 16, out.addr())])
            .unwrap();
        assert_eq!(out.to_vec(), buf.to_vec());
    }

    #[test]
    fn beyond_eof_is_an_fs_error() {
        let rig = Rig::new(RigConfig::default());
        let be = GdsBackend::new(&rig);
        let buf = rig.gpu().alloc(4096).unwrap();
        let far = rig.array_blocks() + 5;
        assert!(matches!(
            be.execute_batch(&[IoRequest::read(far, 1, buf.addr())]),
            Err(BackendError::Fs(_))
        ));
    }
}
