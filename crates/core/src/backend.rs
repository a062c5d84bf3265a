//! [`StorageBackend`] — the batch-of-block-transfers interface every
//! workload in `cam-workloads` is written against — and [`CamBackend`],
//! CAM behind it. `cam-cache`'s `CachedBackend` is the other
//! implementation, so a workload runs unchanged on CAM or on cached CAM.

use std::fmt;

use cam_hostos::IoDir;
use cam_nvme::spec::Status;

use crate::api::{CamDevice, CamError};
use crate::regions::ChannelOp;

/// One block-granular transfer between the striped SSD array and pinned
/// (GPU) memory.
#[derive(Clone, Copy, Debug)]
pub struct IoRequest {
    /// Direction: `Read` = SSD → memory, `Write` = memory → SSD.
    pub dir: IoDir,
    /// Starting LBA in the *array* address space (striped across SSDs).
    pub lba: u64,
    /// Length in blocks (> 0).
    pub blocks: u32,
    /// Pinned-memory physical address of the data buffer.
    pub addr: u64,
}

impl IoRequest {
    /// A read of `blocks` array blocks at `lba` into pinned memory `addr`.
    pub fn read(lba: u64, blocks: u32, addr: u64) -> Self {
        IoRequest {
            dir: IoDir::Read,
            lba,
            blocks,
            addr,
        }
    }

    /// A write of `blocks` array blocks at `lba` from pinned memory `addr`.
    pub fn write(lba: u64, blocks: u32, addr: u64) -> Self {
        IoRequest {
            dir: IoDir::Write,
            lba,
            blocks,
            addr,
        }
    }
}

/// Errors surfaced by a [`StorageBackend`].
#[derive(Debug)]
pub enum BackendError {
    /// A device completed a command with a failure status.
    Command(Status),
    /// The batch didn't fit the channel's region-1 capacity.
    BatchTooLarge {
        /// Requests the batch needs at once.
        needed: usize,
        /// Requests the channel takes at once.
        capacity: usize,
    },
}

impl fmt::Display for BackendError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            BackendError::Command(s) => write!(f, "command failed: {s:?}"),
            BackendError::BatchTooLarge { needed, capacity } => {
                write!(f, "batch of {needed} requests exceeds capacity {capacity}")
            }
        }
    }
}

impl std::error::Error for BackendError {}

/// A storage management that executes batches of block transfers between
/// the array and pinned GPU memory.
pub trait StorageBackend: Send + Sync {
    /// Human-readable name (matches the paper's labels).
    fn name(&self) -> &'static str;

    /// Executes a batch, blocking until every request is durable/visible.
    fn execute_batch(&self, reqs: &[IoRequest]) -> Result<(), BackendError>;
}

/// Adapter holding a device handle; batches are carried over the regular
/// CAM channels (reads on channel 0, writes on channel 1).
pub struct CamBackend {
    device: CamDevice,
    max_batch: usize,
}

impl CamBackend {
    /// Wraps a device handle. `max_batch` must not exceed the context's
    /// region-1 capacity.
    pub fn new(device: CamDevice, max_batch: usize) -> Self {
        assert!(max_batch >= 1);
        CamBackend { device, max_batch }
    }

    fn run_chunk(&self, chunk: &[&IoRequest]) -> Result<(), BackendError> {
        let dir = chunk[0].dir;
        let blocks = chunk[0].blocks;
        let (channel, op) = match dir {
            IoDir::Read => (0, ChannelOp::Read),
            IoDir::Write => (1, ChannelOp::Write),
        };
        let lbas: Vec<u64> = chunk.iter().map(|r| r.lba).collect();
        let ticket = self
            .device
            .submit_scatter(channel, op, &lbas, |i| chunk[i].addr, blocks)
            .map_err(cam_to_backend)?;
        ticket.wait().map_err(cam_to_backend)
    }
}

fn cam_to_backend(e: CamError) -> BackendError {
    match e {
        // A sync timeout means the batch never retired — surface it as a
        // failed command like any other lost I/O.
        CamError::Io { .. } | CamError::SyncTimeout { .. } => {
            BackendError::Command(Status::DataTransferError)
        }
        CamError::BatchTooLarge {
            requested,
            capacity,
        } => BackendError::BatchTooLarge {
            needed: requested,
            capacity,
        },
        // Spawn can't reach here (the backend wraps an already-running
        // context), but map it to a command failure rather than panic.
        CamError::ChannelBusy | CamError::BadChannel(_) | CamError::Spawn => {
            BackendError::Command(Status::InvalidField)
        }
    }
}

impl StorageBackend for CamBackend {
    fn name(&self) -> &'static str {
        "CAM"
    }

    fn execute_batch(&self, reqs: &[IoRequest]) -> Result<(), BackendError> {
        // Chunk by (direction, per-request block count) and capacity,
        // preserving order across direction changes.
        let mut chunk: Vec<&IoRequest> = Vec::new();
        for req in reqs {
            let brk = chunk
                .last()
                .map(|p| p.dir != req.dir || p.blocks != req.blocks)
                .unwrap_or(false);
            if brk || chunk.len() == self.max_batch {
                self.run_chunk(&chunk)?;
                chunk.clear();
            }
            chunk.push(req);
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
    use crate::{CamConfig, CamContext};
    use cam_iostacks::{Rig, RigConfig};

    #[test]
    fn cam_backend_round_trip() {
        let rig = Rig::new(RigConfig {
            n_ssds: 3,
            ..RigConfig::default()
        });
        let cam = CamContext::attach(&rig, CamConfig::default());
        let be = CamBackend::new(cam.device(), 4096);
        let n = 48u64;
        let src = rig.gpu().alloc((n as usize) * 4096).unwrap();
        for i in 0..n {
            src.write(i as usize * 4096, &vec![(i % 200) as u8 + 1; 4096]);
        }
        let writes: Vec<IoRequest> = (0..n)
            .map(|i| IoRequest::write(i, 1, src.addr() + i * 4096))
            .collect();
        be.execute_batch(&writes).unwrap();
        let dst = rig.gpu().alloc((n as usize) * 4096).unwrap();
        let reads: Vec<IoRequest> = (0..n)
            .map(|i| IoRequest::read(i, 1, dst.addr() + i * 4096))
            .collect();
        be.execute_batch(&reads).unwrap();
        assert_eq!(src.to_vec(), dst.to_vec());
        assert_eq!(be.name(), "CAM");
    }

    #[test]
    fn mixed_direction_batch_respects_order() {
        let rig = Rig::new(RigConfig::default());
        let cam = CamContext::attach(&rig, CamConfig::default());
        let be = CamBackend::new(cam.device(), 16);
        let a = rig.gpu().alloc(4096).unwrap();
        let b = rig.gpu().alloc(4096).unwrap();
        a.write(0, &[0x31u8; 4096]);
        be.execute_batch(&[
            IoRequest::write(7, 1, a.addr()),
            IoRequest::read(7, 1, b.addr()),
        ])
        .unwrap();
        assert!(b.to_vec().iter().all(|&x| x == 0x31));
    }

    #[test]
    fn errors_propagate() {
        let rig = Rig::new(RigConfig::default());
        let cam = CamContext::attach(&rig, CamConfig::default());
        let be = CamBackend::new(cam.device(), 16);
        let buf = rig.gpu().alloc(4096).unwrap();
        let far = rig.array_blocks() * 4;
        assert!(be
            .execute_batch(&[IoRequest::read(far, 1, buf.addr())])
            .is_err());
    }
}
