//! NVMe command vocabulary: submission/completion entries and status codes.
//!
//! Only the I/O command set fields the reproduction exercises are modelled;
//! layout-compatibility with the real 64-byte SQE is not a goal (nothing
//! here crosses a real PCIe bus), but the *information content* matches:
//! command id, opcode, starting LBA, block count, and the physical data
//! pointer that makes the direct SSD↔GPU data path possible.
//!
//! Both entries are plain data and pack losslessly into `u64` words
//! (`Sqe::to_words`, `Cqe::to_word`) — the representation the
//! [`QueuePair`](crate::QueuePair) rings keep in their atomic slots.

/// I/O command opcode.
#[derive(Clone, Copy, PartialEq, Eq, Debug, Hash)]
pub enum Opcode {
    /// Read `nlb` blocks starting at `slba` into the buffer at `data_addr`.
    Read,
    /// Write `nlb` blocks starting at `slba` from the buffer at `data_addr`.
    Write,
    /// Barrier: completes once prior commands on the queue pair are durable.
    Flush,
}

impl Opcode {
    fn code(self) -> u64 {
        match self {
            Opcode::Read => 0,
            Opcode::Write => 1,
            Opcode::Flush => 2,
        }
    }

    fn from_code(code: u64) -> Self {
        match code {
            0 => Opcode::Read,
            1 => Opcode::Write,
            2 => Opcode::Flush,
            _ => panic!("corrupt SQ slot: opcode code {code}"),
        }
    }
}

/// A submission-queue entry.
#[derive(Clone, Copy, Debug)]
pub struct Sqe {
    /// Command identifier, echoed in the matching [`Cqe`].
    pub cid: u16,
    /// Operation.
    pub opcode: Opcode,
    /// Starting logical block address.
    pub slba: u64,
    /// Number of logical blocks (1-based; zero is invalid except for Flush).
    pub nlb: u32,
    /// "Physical" address of the data buffer in some [`DmaSpace`]
    /// (pinned GPU memory for the direct path, host memory for staged paths).
    ///
    /// [`DmaSpace`]: crate::DmaSpace
    pub data_addr: u64,
}

impl Sqe {
    /// Builds a read command.
    pub fn read(cid: u16, slba: u64, nlb: u32, data_addr: u64) -> Self {
        Sqe {
            cid,
            opcode: Opcode::Read,
            slba,
            nlb,
            data_addr,
        }
    }

    /// Builds a write command.
    pub fn write(cid: u16, slba: u64, nlb: u32, data_addr: u64) -> Self {
        Sqe {
            cid,
            opcode: Opcode::Write,
            slba,
            nlb,
            data_addr,
        }
    }

    /// Builds a flush command.
    pub fn flush(cid: u16) -> Self {
        Sqe {
            cid,
            opcode: Opcode::Flush,
            slba: 0,
            nlb: 0,
            data_addr: 0,
        }
    }

    /// Packs the entry into ring-slot words: `[slba, data_addr,
    /// cid | opcode << 16 | nlb << 32]`.
    pub(crate) fn to_words(self) -> [u64; 3] {
        [
            self.slba,
            self.data_addr,
            u64::from(self.cid) | self.opcode.code() << 16 | u64::from(self.nlb) << 32,
        ]
    }

    /// Inverse of [`to_words`](Self::to_words).
    pub(crate) fn from_words(w: [u64; 3]) -> Self {
        Sqe {
            cid: w[2] as u16,
            opcode: Opcode::from_code(w[2] >> 16 & 0xFFFF),
            slba: w[0],
            nlb: (w[2] >> 32) as u32,
            data_addr: w[1],
        }
    }
}

/// Completion status.
#[derive(Clone, Copy, PartialEq, Eq, Debug, Hash)]
pub enum Status {
    /// Command completed successfully.
    Success,
    /// The LBA range exceeded the namespace.
    LbaOutOfRange,
    /// A field was invalid (e.g. `nlb == 0` on a data command).
    InvalidField,
    /// The DMA address was outside every registered region.
    DataTransferError,
    /// The media failed the access and a retry will not help.
    MediaError,
    /// The media failed the access but the condition may clear: the host is
    /// expected to retry the command (bounded by its retry policy).
    TransientMediaError,
}

impl Status {
    /// Whether the command succeeded.
    #[inline]
    pub fn is_ok(self) -> bool {
        self == Status::Success
    }

    /// Whether a retry of the same command may succeed. Only transient
    /// media errors qualify; addressing and DMA failures are deterministic.
    #[inline]
    pub fn is_transient(self) -> bool {
        self == Status::TransientMediaError
    }

    fn code(self) -> u64 {
        match self {
            Status::Success => 0,
            Status::LbaOutOfRange => 1,
            Status::InvalidField => 2,
            Status::DataTransferError => 3,
            Status::MediaError => 4,
            Status::TransientMediaError => 5,
        }
    }

    fn from_code(code: u64) -> Self {
        match code {
            0 => Status::Success,
            1 => Status::LbaOutOfRange,
            2 => Status::InvalidField,
            3 => Status::DataTransferError,
            4 => Status::MediaError,
            5 => Status::TransientMediaError,
            _ => panic!("corrupt CQ slot: status code {code}"),
        }
    }
}

/// A completion-queue entry.
#[derive(Clone, Copy, Debug)]
pub struct Cqe {
    /// Command identifier from the originating [`Sqe`].
    pub cid: u16,
    /// Completion status.
    pub status: Status,
}

impl Cqe {
    /// Packs the entry into one ring-slot word: `cid | status << 16`.
    pub(crate) fn to_word(self) -> u64 {
        u64::from(self.cid) | self.status.code() << 16
    }

    /// Inverse of [`to_word`](Self::to_word).
    pub(crate) fn from_word(w: u64) -> Self {
        Cqe {
            cid: w as u16,
            status: Status::from_code(w >> 16),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn constructors_fill_fields() {
        let r = Sqe::read(7, 100, 8, 0x1000);
        assert_eq!(r.opcode, Opcode::Read);
        assert_eq!((r.cid, r.slba, r.nlb, r.data_addr), (7, 100, 8, 0x1000));
        let w = Sqe::write(8, 0, 1, 0x2000);
        assert_eq!(w.opcode, Opcode::Write);
        let f = Sqe::flush(9);
        assert_eq!(f.opcode, Opcode::Flush);
        assert_eq!(f.nlb, 0);
    }

    #[test]
    fn ring_words_round_trip_every_opcode_and_status_at_the_field_extremes() {
        for opcode in [Opcode::Read, Opcode::Write, Opcode::Flush] {
            for (cid, slba, nlb, data_addr) in [
                (0, 0, 0, 0),
                (u16::MAX, u64::MAX, u32::MAX, u64::MAX),
                (u16::MAX, 0, u32::MAX, 0),
                (0, u64::MAX, 0, u64::MAX),
                (
                    0x1234,
                    0x0123_4567_89AB_CDEF,
                    0x89AB_CDEF,
                    0xFEDC_BA98_7654_3210,
                ),
            ] {
                let sqe = Sqe {
                    cid,
                    opcode,
                    slba,
                    nlb,
                    data_addr,
                };
                let back = Sqe::from_words(sqe.to_words());
                assert_eq!(
                    (back.cid, back.opcode, back.slba, back.nlb, back.data_addr),
                    (cid, opcode, slba, nlb, data_addr)
                );
            }
        }
        for status in [
            Status::Success,
            Status::LbaOutOfRange,
            Status::InvalidField,
            Status::DataTransferError,
            Status::MediaError,
            Status::TransientMediaError,
        ] {
            for cid in [0, 1, 0x8000, u16::MAX] {
                let back = Cqe::from_word(Cqe { cid, status }.to_word());
                assert_eq!((back.cid, back.status), (cid, status));
            }
        }
    }

    #[test]
    fn status_predicate() {
        assert!(Status::Success.is_ok());
        assert!(!Status::LbaOutOfRange.is_ok());
    }

    #[test]
    fn only_transient_media_errors_are_retryable() {
        assert!(Status::TransientMediaError.is_transient());
        for s in [
            Status::Success,
            Status::LbaOutOfRange,
            Status::InvalidField,
            Status::DataTransferError,
            Status::MediaError,
        ] {
            assert!(!s.is_transient(), "{s:?} must not be retryable");
        }
    }
}
