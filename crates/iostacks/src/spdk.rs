//! [`SpdkBackend`] — user-space CPU-managed baseline with a bounce buffer.
//!
//! Control path: kernel bypass; SQEs are staged on per-SSD queue pairs and
//! published with one doorbell per batch, completions are polled — the SPDK
//! discipline CAM builds on. Data path: NVMe DMA targets the pinned **host**
//! bounce buffer, and a second copy moves payloads between bounce and GPU
//! memory (§ IV-J's 2× memory-bandwidth cost and Fig. 16's `cudaMemcpyAsync`
//! per non-contiguous destination).

use std::sync::Arc;

use cam_hostos::IoDir;
use cam_nvme::spec::{Sqe, Status};
use cam_nvme::{DmaSpace, PinnedRegion, QueuePair};
use cam_protocol::PlanConfig;

use crate::rig::Rig;
use crate::types::{BackendError, IoRequest, StorageBackend};

/// SPDK-style backend: one queue pair per SSD, polled from the caller.
pub struct SpdkBackend {
    qps: Vec<Arc<QueuePair>>,
    bounce: Arc<PinnedRegion>,
    gpu_region: Arc<PinnedRegion>,
    /// Array geometry: the RAID-0 map and the stripe-run walk.
    plan: PlanConfig,
}

impl SpdkBackend {
    /// Queue depth per SSD.
    const QD: usize = 1024;

    /// Attaches to the rig: one deep queue pair per SSD.
    pub fn new(rig: &Rig) -> Self {
        SpdkBackend {
            qps: rig
                .devices()
                .iter()
                .map(|d| d.add_queue_pair(Self::QD))
                .collect(),
            bounce: Arc::clone(rig.bounce()),
            gpu_region: rig.gpu().memory().region(),
            plan: rig.plan_config(),
        }
    }

    /// Executes one bounce-sized chunk of same-direction requests.
    fn run_chunk(&self, reqs: &[(u64, &IoRequest)]) -> Result<(), BackendError> {
        let dir = reqs[0].1.dir;
        // Writes: stage GPU → bounce before submitting.
        if dir == IoDir::Write {
            let mut tmp = Vec::new();
            for (boff, req) in reqs {
                let bytes = req.blocks as usize * self.plan.block_size as usize;
                tmp.clear();
                tmp.resize(bytes, 0);
                self.gpu_region.dma_read(req.addr, &mut tmp)?;
                self.bounce.dma_write(self.bounce.base() + boff, &tmp)?;
            }
        }
        // Split every request at stripe boundaries, then stage SQEs per SSD
        // with one doorbell per SSD (batched submission).
        let mut subs: Vec<(usize, Sqe)> = Vec::new();
        for (i, (boff, req)) in reqs.iter().enumerate() {
            self.plan
                .for_each_run(req.lba, req.blocks, |ssd, dev_lba, run, offset| {
                    let addr = self.bounce.base() + boff + offset;
                    let sqe = match dir {
                        IoDir::Read => Sqe::read(i as u16, dev_lba, run, addr),
                        IoDir::Write => Sqe::write(i as u16, dev_lba, run, addr),
                    };
                    subs.push((ssd, sqe));
                });
        }
        let mut pending = 0u64;
        for (ssd, sqe) in subs {
            let qp = &self.qps[ssd];
            // Backpressure: if the ring is full, publish and reap.
            while qp.push_sqe(sqe).is_err() {
                qp.ring_doorbell();
                pending -= self.reap_some()? as u64;
            }
            pending += 1;
        }
        for qp in &self.qps {
            qp.ring_doorbell();
        }
        // Poll completions until the chunk drains.
        while pending > 0 {
            let reaped = self.reap_some()?;
            if reaped == 0 {
                std::thread::yield_now();
            } else {
                pending -= reaped as u64;
            }
        }
        // Reads: stage bounce → GPU after the data has landed.
        if dir == IoDir::Read {
            let mut tmp = Vec::new();
            for (boff, req) in reqs {
                let bytes = req.blocks as usize * self.plan.block_size as usize;
                tmp.clear();
                tmp.resize(bytes, 0);
                self.bounce.dma_read(self.bounce.base() + boff, &mut tmp)?;
                self.gpu_region.dma_write(req.addr, &tmp)?;
            }
        }
        Ok(())
    }

    fn reap_some(&self) -> Result<usize, BackendError> {
        let mut n = 0;
        for qp in &self.qps {
            while let Some(cqe) = qp.poll_cqe() {
                if cqe.status != Status::Success {
                    return Err(BackendError::Command(cqe.status));
                }
                n += 1;
            }
        }
        Ok(n)
    }
}

impl StorageBackend for SpdkBackend {
    fn name(&self) -> &'static str {
        "SPDK"
    }

    fn staged_data_path(&self) -> bool {
        true
    }

    fn execute_batch(&self, reqs: &[IoRequest]) -> Result<(), BackendError> {
        // Split into chunks that fit the bounce buffer, preserving order and
        // grouping by direction (mixed batches execute in segments).
        let cap = self.bounce.len();
        let mut chunk: Vec<(u64, &IoRequest)> = Vec::new();
        let mut used = 0usize;
        for req in reqs {
            let bytes = req.blocks as usize * self.plan.block_size as usize;
            if bytes > cap {
                return Err(BackendError::BatchTooLarge {
                    needed: bytes,
                    capacity: cap,
                });
            }
            let dir_break = chunk
                .last()
                .map(|(_, prev)| prev.dir != req.dir)
                .unwrap_or(false);
            if used + bytes > cap || dir_break {
                self.run_chunk(&chunk)?;
                chunk.clear();
                used = 0;
            }
            chunk.push((used as u64, req));
            used += bytes;
        }
        if !chunk.is_empty() {
            self.run_chunk(&chunk)?;
        }
        Ok(())
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::rig::RigConfig;

    #[test]
    fn batched_round_trip_across_ssds() {
        let rig = Rig::new(RigConfig {
            n_ssds: 4,
            ..RigConfig::default()
        });
        let be = SpdkBackend::new(&rig);
        let n = 64u64;
        let buf = rig.gpu().alloc((n as usize) * 4096).unwrap();
        for i in 0..n {
            buf.write(i as usize * 4096, &vec![(i % 251) as u8 + 1; 4096]);
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
        // Batched submission: far fewer doorbells than commands.
        let doorbells: u64 = be.qps.iter().map(|q| q.stats().doorbells()).sum();
        let submitted: u64 = be.qps.iter().map(|q| q.stats().submitted()).sum();
        assert_eq!(submitted, 2 * n);
        assert!(doorbells <= 2 * be.qps.len() as u64 + 2);
    }

    #[test]
    fn chunks_larger_than_bounce_are_split() {
        let rig = Rig::new(RigConfig {
            n_ssds: 2,
            bounce_bytes: 64 * 1024, // 16 blocks
            ..RigConfig::default()
        });
        let be = SpdkBackend::new(&rig);
        let n = 64u64; // 4 chunks
        let buf = rig.gpu().alloc((n as usize) * 4096).unwrap();
        buf.write(0, &vec![7u8; (n as usize) * 4096]);
        let writes: Vec<IoRequest> = (0..n)
            .map(|i| IoRequest::write(i, 1, buf.addr() + i * 4096))
            .collect();
        be.execute_batch(&writes).unwrap();
        let out = rig.gpu().alloc((n as usize) * 4096).unwrap();
        let reads: Vec<IoRequest> = (0..n)
            .map(|i| IoRequest::read(i, 1, out.addr() + i * 4096))
            .collect();
        be.execute_batch(&reads).unwrap();
        assert!(out.to_vec().iter().all(|&b| b == 7));
    }

    #[test]
    fn mixed_direction_batches_preserve_order() {
        let rig = Rig::new(RigConfig::default());
        let be = SpdkBackend::new(&rig);
        let a = rig.gpu().alloc(4096).unwrap();
        let b = rig.gpu().alloc(4096).unwrap();
        a.write(0, &[9u8; 4096]);
        // Write block 5 then read it back, in one batch.
        be.execute_batch(&[
            IoRequest::write(5, 1, a.addr()),
            IoRequest::read(5, 1, b.addr()),
        ])
        .unwrap();
        assert!(b.to_vec().iter().all(|&x| x == 9));
    }

    #[test]
    fn oversized_single_request_rejected() {
        let rig = Rig::new(RigConfig {
            bounce_bytes: 8192,
            ..RigConfig::default()
        });
        let be = SpdkBackend::new(&rig);
        let buf = rig.gpu().alloc(16384).unwrap();
        assert!(matches!(
            be.execute_batch(&[IoRequest::read(0, 4, buf.addr())]),
            Err(BackendError::BatchTooLarge { .. })
        ));
    }
}
