//! Request/trait vocabulary shared by all functional storage backends.

use std::fmt;

use cam_hostos::{FsError, IoDir};
use cam_nvme::spec::Status;
use cam_nvme::{DmaError, QueueError};

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

/// Errors surfaced by functional backends.
#[derive(Debug)]
pub enum BackendError {
    /// A queue-pair operation failed.
    Queue(QueueError),
    /// A device completed a command with a failure status.
    Command(Status),
    /// The POSIX path's filesystem failed.
    Fs(FsError),
    /// A staging copy failed.
    Dma(DmaError),
    /// The batch didn't fit backend limits (e.g. bounce-buffer capacity).
    BatchTooLarge {
        /// Bytes the batch needs at once.
        needed: usize,
        /// Bytes the backend can stage.
        capacity: usize,
    },
}

impl fmt::Display for BackendError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            BackendError::Queue(e) => write!(f, "queue error: {e}"),
            BackendError::Command(s) => write!(f, "command failed: {s:?}"),
            BackendError::Fs(e) => write!(f, "filesystem error: {e}"),
            BackendError::Dma(e) => write!(f, "dma error: {e}"),
            BackendError::BatchTooLarge { needed, capacity } => {
                write!(
                    f,
                    "batch of {needed} bytes exceeds staging capacity {capacity}"
                )
            }
        }
    }
}

impl std::error::Error for BackendError {}

impl From<QueueError> for BackendError {
    fn from(e: QueueError) -> Self {
        BackendError::Queue(e)
    }
}

impl From<FsError> for BackendError {
    fn from(e: FsError) -> Self {
        BackendError::Fs(e)
    }
}

impl From<DmaError> for BackendError {
    fn from(e: DmaError) -> Self {
        BackendError::Dma(e)
    }
}

/// A complete SSD management: executes batches of block transfers between
/// the array and pinned memory. Implementations differ in who controls the
/// SSDs (kernel, CPU user space, GPU) and how data travels (bounced through
/// CPU memory or direct) — exactly Table I's axes.
pub trait StorageBackend: Send + Sync {
    /// Human-readable name (matches the paper's labels).
    fn name(&self) -> &'static str;

    /// Executes a batch, blocking until every request is durable/visible.
    fn execute_batch(&self, reqs: &[IoRequest]) -> Result<(), BackendError>;

    /// Whether the data path stages through CPU memory.
    fn staged_data_path(&self) -> bool;
}
