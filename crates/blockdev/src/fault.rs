//! [`FaultyStore`] — deterministic fault injection for failure-path tests.
//!
//! Wraps any [`BlockStore`] and fails a configurable subset of accesses.
//! Used to verify that every storage management surfaces device errors
//! instead of silently corrupting data, and that CAM's channels recover
//! after a failed batch (`CamError::Io` then clean subsequent batches).

use std::collections::HashMap;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::{Arc, OnceLock};

use cam_telemetry::{Counter, EventKind, FlightRecorder, MetricsRegistry};
use parking_lot::Mutex;

use crate::lba::{BlockGeometry, Lba};
use crate::store::{BlockError, BlockSession, BlockStore};

/// Which operations a fault rule applies to.
#[derive(Clone, Copy, PartialEq, Eq, Debug)]
pub enum FaultKind {
    /// Fail reads only.
    Read,
    /// Fail writes only.
    Write,
    /// Fail both directions.
    Both,
}

/// Whether an injected fault clears on retry.
#[derive(Clone, Copy, PartialEq, Eq, Debug)]
pub enum FaultMode {
    /// The fault never clears: every matching access fails with a
    /// non-retryable error ([`BlockError::Media`] with `transient: false`).
    Permanent,
    /// The fault clears after `fail_times` failed attempts per `(lba,
    /// direction)` pair; retries beyond that succeed. `u32::MAX` models a
    /// stuck-but-nominally-transient command that only a deadline can end.
    Transient {
        /// Failed attempts before the access starts succeeding.
        fail_times: u32,
    },
}

/// Deterministic fault policy.
#[derive(Clone, Copy, Debug)]
pub struct FaultPolicy {
    /// Operations affected.
    pub kind: FaultKind,
    /// Fail every access whose first LBA falls in `[from, to)`.
    pub lba_range: (u64, u64),
    /// Additionally fail every `every`-th matching access (1 = all).
    pub every: u64,
    /// Whether injected faults clear on retry.
    pub mode: FaultMode,
}

impl FaultPolicy {
    /// Fails every read in the LBA range, permanently.
    pub fn reads_in(from: u64, to: u64) -> Self {
        FaultPolicy {
            kind: FaultKind::Read,
            lba_range: (from, to),
            every: 1,
            mode: FaultMode::Permanent,
        }
    }

    /// Fails every write in the LBA range, permanently.
    pub fn writes_in(from: u64, to: u64) -> Self {
        FaultPolicy {
            kind: FaultKind::Write,
            lba_range: (from, to),
            every: 1,
            mode: FaultMode::Permanent,
        }
    }

    /// Fails the first `fail_times` read attempts of every block in the LBA
    /// range with a transient media error, then lets retries through.
    pub fn transient_reads_in(from: u64, to: u64, fail_times: u32) -> Self {
        FaultPolicy {
            kind: FaultKind::Read,
            lba_range: (from, to),
            every: 1,
            mode: FaultMode::Transient { fail_times },
        }
    }

    /// Fails the first `fail_times` write attempts of every block in the LBA
    /// range with a transient media error, then lets retries through.
    pub fn transient_writes_in(from: u64, to: u64, fail_times: u32) -> Self {
        FaultPolicy {
            kind: FaultKind::Write,
            lba_range: (from, to),
            every: 1,
            mode: FaultMode::Transient { fail_times },
        }
    }
}

/// A [`BlockStore`] wrapper that injects [`BlockError::OutOfRange`]-class
/// failures per a [`FaultPolicy`]. Counts injected faults.
pub struct FaultyStore {
    inner: Arc<dyn BlockStore>,
    policy: FaultPolicy,
    matches: AtomicU64,
    injected: AtomicU64,
    /// Transient mode: failed-attempt count per `(lba, is_read)` pair.
    attempts: Mutex<HashMap<(u64, bool), u32>>,
    /// Telemetry: mirrors `injected` into a registry counter once attached.
    injected_metric: OnceLock<Counter>,
    /// Event layer: emits a [`EventKind::FaultInjected`] per injection once
    /// attached.
    recorder: OnceLock<Arc<FlightRecorder>>,
}

impl FaultyStore {
    /// Wraps `inner` with the policy.
    pub fn new(inner: Arc<dyn BlockStore>, policy: FaultPolicy) -> Self {
        assert!(policy.every >= 1);
        FaultyStore {
            inner,
            policy,
            matches: AtomicU64::new(0),
            injected: AtomicU64::new(0),
            attempts: Mutex::new(HashMap::new()),
            injected_metric: OnceLock::new(),
            recorder: OnceLock::new(),
        }
    }

    /// Faults injected so far.
    pub fn injected(&self) -> u64 {
        self.injected.load(Ordering::Relaxed)
    }

    /// Registers `cam_fault_injected_total` in `reg` and counts every
    /// injected fault from now on. One-shot; later calls are ignored.
    pub fn attach_telemetry(&self, reg: &MetricsRegistry) {
        let _ = self
            .injected_metric
            .set(reg.counter("cam_fault_injected_total"));
    }

    /// Event layer: emits a fault event per injection into `rec` from now
    /// on (timestamped at the injection site, so post-mortem dumps show the
    /// fault in sequence with the batch that absorbed it). One-shot; later
    /// calls are ignored.
    pub fn attach_recorder(&self, rec: Arc<FlightRecorder>) {
        let _ = self.recorder.set(rec);
    }

    /// The access's fault decision: `Err` when it is to fail.
    fn check(&self, lba: Lba, count: u64, is_read: bool) -> Result<(), BlockError> {
        if self.should_fail(lba, is_read) {
            return Err(self.fault(lba, count));
        }
        Ok(())
    }

    fn should_fail(&self, lba: Lba, is_read: bool) -> bool {
        let dir_match = match self.policy.kind {
            FaultKind::Read => is_read,
            FaultKind::Write => !is_read,
            FaultKind::Both => true,
        };
        if !dir_match
            || lba.index() < self.policy.lba_range.0
            || lba.index() >= self.policy.lba_range.1
        {
            return false;
        }
        let fail = match self.policy.mode {
            FaultMode::Permanent => {
                let n = self.matches.fetch_add(1, Ordering::Relaxed);
                n.is_multiple_of(self.policy.every)
            }
            FaultMode::Transient { fail_times } => {
                let mut attempts = self.attempts.lock();
                let seen = attempts.entry((lba.index(), is_read)).or_insert(0);
                if *seen < fail_times {
                    *seen = seen.saturating_add(1);
                    true
                } else {
                    false
                }
            }
        };
        if fail {
            self.injected.fetch_add(1, Ordering::Relaxed);
            if let Some(c) = self.injected_metric.get() {
                c.inc();
            }
            if let Some(rec) = self.recorder.get() {
                rec.emit(EventKind::FaultInjected {
                    lba: lba.index(),
                    read: is_read,
                });
            }
        }
        fail
    }

    fn fault(&self, lba: Lba, count: u64) -> BlockError {
        match self.policy.mode {
            // Media error surfaced as an addressing failure: the command
            // layer maps any BlockError to a failed completion status.
            FaultMode::Permanent => BlockError::OutOfRange {
                lba,
                count,
                blocks: self.inner.geometry().blocks,
            },
            FaultMode::Transient { .. } => BlockError::Media {
                lba,
                transient: true,
            },
        }
    }
}

impl BlockStore for FaultyStore {
    fn geometry(&self) -> BlockGeometry {
        self.inner.geometry()
    }

    /// One fault decision per access, before the inner store's range
    /// check; then the inner store lends its blocks directly, so a wrapped
    /// device keeps moving whole pages by reference.
    fn read_blocks(
        &self,
        lba: Lba,
        count: u64,
        visit: &mut dyn FnMut(usize, &Arc<[u8]>),
    ) -> Result<(), BlockError> {
        self.check(lba, count, true)?;
        self.inner.read_blocks(lba, count, visit)
    }

    /// One fault decision per access, then the inner store lends its blocks.
    fn write_blocks(
        &self,
        lba: Lba,
        count: u64,
        fill: &mut dyn FnMut(usize, &mut Arc<[u8]>),
    ) -> Result<(), BlockError> {
        self.check(lba, count, false)?;
        self.inner.write_blocks(lba, count, fill)
    }

    /// The inner store's session, with one fault decision per access: a
    /// wrapped device keeps its one media lock per burst, taken before
    /// the DMA space's.
    fn session(&self, run: &mut dyn FnMut(&mut dyn BlockSession)) {
        self.inner
            .session(&mut |inner| run(&mut FaultySession { store: self, inner }))
    }
}

/// A [`FaultyStore`] session: the inner store's, behind the fault
/// decisions.
struct FaultySession<'a> {
    store: &'a FaultyStore,
    inner: &'a mut dyn BlockSession,
}

impl BlockSession for FaultySession<'_> {
    fn read_blocks(
        &mut self,
        lba: Lba,
        count: u64,
        visit: &mut dyn FnMut(usize, &Arc<[u8]>),
    ) -> Result<(), BlockError> {
        self.store.check(lba, count, true)?;
        self.inner.read_blocks(lba, count, visit)
    }

    fn write_blocks(
        &mut self,
        lba: Lba,
        count: u64,
        fill: &mut dyn FnMut(usize, &mut Arc<[u8]>),
    ) -> Result<(), BlockError> {
        self.store.check(lba, count, false)?;
        self.inner.write_blocks(lba, count, fill)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::store::SparseMemStore;

    fn wrapped(policy: FaultPolicy) -> FaultyStore {
        let inner: Arc<dyn BlockStore> =
            Arc::new(SparseMemStore::new(BlockGeometry::new(512, 1024)));
        FaultyStore::new(inner, policy)
    }

    #[test]
    fn reads_fail_in_range_writes_pass() {
        let s = wrapped(FaultPolicy::reads_in(10, 20));
        let mut buf = vec![0u8; 512];
        s.write(Lba(15), &buf).unwrap();
        assert!(s.read(Lba(15), &mut buf).is_err());
        assert!(s.read(Lba(9), &mut buf).is_ok());
        assert!(s.read(Lba(20), &mut buf).is_ok());
        assert_eq!(s.injected(), 1);
    }

    #[test]
    fn every_nth_failure() {
        let s = wrapped(FaultPolicy {
            kind: FaultKind::Read,
            lba_range: (0, 1024),
            every: 3,
            mode: FaultMode::Permanent,
        });
        let mut buf = vec![0u8; 512];
        let mut failures = 0;
        for i in 0..9 {
            if s.read(Lba(i), &mut buf).is_err() {
                failures += 1;
            }
        }
        assert_eq!(failures, 3);
        assert_eq!(s.injected(), 3);
    }

    #[test]
    fn injected_faults_reach_the_registry() {
        let s = wrapped(FaultPolicy::reads_in(0, 4));
        let reg = MetricsRegistry::new();
        s.attach_telemetry(&reg);
        let mut buf = vec![0u8; 512];
        for i in 0..8 {
            let _ = s.read(Lba(i), &mut buf);
        }
        assert_eq!(s.injected(), 4);
        assert_eq!(reg.snapshot().counter("cam_fault_injected_total"), 4);
        // A second attach is a no-op: the original counter keeps counting.
        let reg2 = MetricsRegistry::new();
        s.attach_telemetry(&reg2);
        let _ = s.read(Lba(0), &mut buf);
        assert_eq!(reg.snapshot().counter("cam_fault_injected_total"), 5);
        assert_eq!(reg2.snapshot().counter("cam_fault_injected_total"), 0);
    }

    #[test]
    fn transient_faults_clear_after_fail_times_attempts() {
        let s = wrapped(FaultPolicy::transient_reads_in(0, 8, 2));
        let mut buf = vec![0u8; 512];
        // First two attempts on the same block fail transiently, then clear.
        assert_eq!(
            s.read(Lba(3), &mut buf),
            Err(BlockError::Media {
                lba: Lba(3),
                transient: true
            })
        );
        assert!(s.read(Lba(3), &mut buf).is_err());
        assert!(s.read(Lba(3), &mut buf).is_ok());
        assert!(s.read(Lba(3), &mut buf).is_ok());
        // Attempt counters are per block: a different LBA starts fresh.
        assert!(s.read(Lba(4), &mut buf).is_err());
        assert_eq!(s.injected(), 3);
        // Writes are unaffected by a read-only transient policy.
        assert!(s.write(Lba(3), &buf).is_ok());
    }

    #[test]
    fn read_blocks_faults_like_read_then_lends_the_inner_blocks() {
        let s = wrapped(FaultPolicy::transient_reads_in(0, 8, 1));
        s.write(Lba(3), &[6u8; 1024]).unwrap();
        let mut seen = Vec::new();
        let mut visit = |i: usize, block: &Arc<[u8]>| seen.push((i, block[0], block.len()));
        assert_eq!(
            s.read_blocks(Lba(3), 2, &mut visit),
            Err(BlockError::Media {
                lba: Lba(3),
                transient: true
            })
        );
        // One fault decision per access, shared with `read`: the retry
        // clears, and nothing was lent by the failed attempt.
        assert!(s.read_blocks(Lba(3), 2, &mut visit).is_ok());
        assert_eq!(seen, vec![(0, 6, 512), (1, 6, 512)]);
        assert_eq!(s.injected(), 1);
        // A permanent fault reports the same error `read` would.
        let p = wrapped(FaultPolicy::reads_in(10, 20));
        let mut buf = vec![0u8; 1024];
        assert_eq!(
            p.read_blocks(Lba(15), 2, &mut |_, _| panic!("lent a faulted block")),
            p.read(Lba(15), &mut buf)
        );
    }

    #[test]
    fn stuck_transient_fault_never_clears() {
        let s = wrapped(FaultPolicy::transient_reads_in(0, 8, u32::MAX));
        let mut buf = vec![0u8; 512];
        for _ in 0..16 {
            assert!(s.read(Lba(1), &mut buf).is_err());
        }
        assert_eq!(s.injected(), 16);
    }

    #[test]
    fn write_blocks_faults_like_write_then_lends_the_inner_blocks() {
        let s = wrapped(FaultPolicy::transient_writes_in(0, 8, 1));
        let mut fill = |_: usize, block: &mut Arc<[u8]>| *block = Arc::from(&[4u8; 512][..]);
        assert_eq!(
            s.write_blocks(Lba(3), 2, &mut fill),
            Err(BlockError::Media {
                lba: Lba(3),
                transient: true
            })
        );
        let mut buf = vec![9u8; 1024];
        s.read(Lba(3), &mut buf).unwrap();
        assert!(buf.iter().all(|&b| b == 0), "failed write must not land");
        assert!(s.write_blocks(Lba(3), 2, &mut fill).is_ok());
        s.read(Lba(3), &mut buf).unwrap();
        assert!(buf.iter().all(|&b| b == 4));
        assert_eq!(s.injected(), 1);
        // A permanent fault reports the same error `write` would.
        let p = wrapped(FaultPolicy::writes_in(10, 20));
        assert_eq!(
            p.write_blocks(Lba(15), 2, &mut |_, _| panic!("lent a faulted block")),
            p.write(Lba(15), &buf)
        );
    }

    #[test]
    fn write_faults_do_not_corrupt_media() {
        let s = wrapped(FaultPolicy::writes_in(0, 5));
        let mut buf = vec![7u8; 512];
        assert!(s.write(Lba(2), &buf).is_err());
        s.read(Lba(2), &mut buf).unwrap();
        assert!(buf.iter().all(|&b| b == 0), "failed write must not land");
    }
}
