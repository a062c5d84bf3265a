//! [`BamBackend`] — GPU-initiated, GPU-managed baseline (§ II-B).
//!
//! Control path: GPU thread blocks submit commands to their own queue pairs
//! and **synchronously poll** the completion before touching the data — the
//! `bam::array` semantics whose cost is Issue 3 (threads idle-wait the full
//! I/O latency, and saturating many SSDs engages most of the machine).
//! Data path: direct SSD ↔ GPU memory, like CAM.

use std::sync::atomic::{AtomicU32, Ordering};
use std::sync::Arc;

use cam_gpu::Gpu;
use cam_hostos::IoDir;
use cam_nvme::spec::{Sqe, Status};
use cam_nvme::QueuePair;
use cam_protocol::PlanConfig;

use crate::rig::Rig;
use crate::types::{BackendError, IoRequest, StorageBackend};

/// BaM-style backend: per-(thread block, SSD) queue pairs, synchronous
/// per-request submit-and-poll from inside the kernel.
pub struct BamBackend {
    /// `qps[block][ssd]`.
    qps: Vec<Vec<Arc<QueuePair>>>,
    gpu: Arc<Gpu>,
    n_blocks: u64,
    /// Array geometry: the RAID-0 map and the stripe-run walk.
    plan: PlanConfig,
}

impl BamBackend {
    /// Builds the backend with `n_blocks` I/O thread blocks (BaM launches
    /// thousands; functional tests use a handful).
    pub fn new(rig: &Rig, n_blocks: u64) -> Self {
        assert!(n_blocks >= 1);
        let qps = (0..n_blocks)
            .map(|_| rig.devices().iter().map(|d| d.add_queue_pair(64)).collect())
            .collect();
        BamBackend {
            qps,
            gpu: Arc::clone(rig.gpu()),
            n_blocks,
            plan: rig.plan_config(),
        }
    }
}

impl StorageBackend for BamBackend {
    fn name(&self) -> &'static str {
        "BaM"
    }

    fn staged_data_path(&self) -> bool {
        false
    }

    fn execute_batch(&self, reqs: &[IoRequest]) -> Result<(), BackendError> {
        let errors = AtomicU32::new(0);
        self.gpu.launch(self.n_blocks, |ctx| {
            let my_qps = &self.qps[ctx.block_idx as usize];
            // Each block strides over the batch; every request is
            // synchronous: submit, then poll until *this* request's
            // completion arrives (the thread idles the full I/O latency).
            let mut i = ctx.block_idx as usize;
            while i < reqs.len() {
                let req = &reqs[i];
                // Requests crossing stripe boundaries split into per-SSD
                // sub-commands, each synchronous (submit → poll).
                let mut subs: Vec<(usize, Sqe)> = Vec::new();
                self.plan
                    .for_each_run(req.lba, req.blocks, |ssd, dev_lba, run, offset| {
                        let addr = req.addr + offset;
                        let sqe = match req.dir {
                            IoDir::Read => Sqe::read(i as u16, dev_lba, run, addr),
                            IoDir::Write => Sqe::write(i as u16, dev_lba, run, addr),
                        };
                        subs.push((ssd, sqe));
                    });
                for (ssd, sqe) in subs {
                    let qp = &my_qps[ssd];
                    if qp.submit(sqe).is_err() {
                        errors.fetch_add(1, Ordering::Relaxed);
                        return;
                    }
                    loop {
                        if let Some(cqe) = qp.poll_cqe() {
                            if cqe.status != Status::Success {
                                errors.fetch_add(1, Ordering::Relaxed);
                            }
                            break;
                        }
                        std::thread::yield_now();
                    }
                }
                i += self.n_blocks as usize;
            }
        });
        if errors.load(Ordering::Relaxed) > 0 {
            return Err(BackendError::Command(Status::DataTransferError));
        }
        Ok(())
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::rig::RigConfig;

    #[test]
    fn gpu_blocks_drive_io_directly() {
        let rig = Rig::new(RigConfig {
            n_ssds: 3,
            ..RigConfig::default()
        });
        let be = BamBackend::new(&rig, 4);
        let n = 24u64;
        let buf = rig.gpu().alloc((n as usize) * 4096).unwrap();
        for i in 0..n {
            buf.write(i as usize * 4096, &vec![(i + 1) as u8; 4096]);
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
        assert!(!be.staged_data_path());
        // A GPU kernel was launched per batch — I/O occupied the GPU.
        assert_eq!(rig.gpu().kernels_launched(), 2);
    }

    #[test]
    fn command_failures_are_reported() {
        let rig = Rig::new(RigConfig::default());
        let be = BamBackend::new(&rig, 2);
        let buf = rig.gpu().alloc(4096).unwrap();
        let far = rig.array_blocks() * 2;
        assert!(be
            .execute_batch(&[IoRequest::read(far, 1, buf.addr())])
            .is_err());
    }
}
