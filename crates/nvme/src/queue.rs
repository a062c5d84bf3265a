//! [`QueuePair`] — a submission queue + completion queue with doorbell
//! semantics.
//!
//! The queue pair is the unit of lock-free parallelism in both SPDK and CAM:
//! "dedicate a single NVMe queue pair to each NVMe device [per thread] —
//! the NVMe driver takes no locks in the I/O path" (§ III-A). Both rings are
//! fixed arrays of atomic slot words ([`Sqe`]/[`Cqe`] are plain data, packed
//! into `u64`s), indexed by monotone 64-bit positions:
//!
//! * **SQ** — the host writes an SQE straight into slot `staged` and bumps
//!   its private `staged` cursor; nothing is visible to the device until
//!   [`ring_doorbell`](QueuePair::ring_doorbell) release-stores the SQ
//!   *tail* — literally the NVMe tail doorbell. One doorbell publishes a
//!   whole batch of SQEs (the key control-plane saving CAM inherits from
//!   SPDK), observable in the [`QpStats`]. The device claims a burst of up
//!   to `max` visible SQEs by moving its private SQ *head* past them
//!   (`take_sqes`; [`take_sqe`](QueuePair::take_sqe) is its one-entry
//!   case).
//! * **Ring stamps** — on a pair whose device has a burst latency
//!   (`NvmeDevice::add_queue_pair` decides), each SQ slot carries a fourth
//!   word: the clock at the doorbell that published it, read once per
//!   ring. A claim returns the newest stamp among its SQEs, which is the
//!   stamp of its last one, so the device can keep time from the rings
//!   rather than from when its thread got to run; a claim that opens a
//!   burst ends at the next doorbell (`take_sqes_of_one_ring`). Other
//!   pairs' slots are three words and their doorbells read no clock.
//! * **CQ** — the device writes a CQE into slot `cq_tail` and release-stores
//!   the new tail; the host reaps everything visible with one acquire-load
//!   and advances its *head* (`completed`).
//!
//! **One thread per ring end.** The host side (`push_sqe` /
//! `ring_doorbell` / `poll_cqe*`) has one thread, and so does the device
//! side (`take_sqe*` / `post_cqe`): each cursor has one writer, and no
//! update is a read-modify-write. An engine worker claims the host end
//! ([`bind_host_owner`](QueuePair::bind_host_owner)), the device's service
//! thread the device end; a second claimant panics, and so, in debug
//! builds, does a call from another thread.
//!
//! **Memory-ordering contract.** Slot words are `Relaxed`; they are
//! published by the `Release` store of the ring's tail and read after an
//! `Acquire` load of it. A slot is reused only after its previous occupant
//! was consumed: the depth check in `push_sqe` reads `completed`, which the
//! host itself advances only after an `Acquire` load of `cq_tail` — and the
//! device's `Release` store of `cq_tail` is sequenced after every SQ-slot
//! read it made. The SQ head is device-private, so it is `Relaxed`. The CQ
//! side mirrors this through the `Release`/`Acquire` pair on `completed`.
//! Nothing on either side takes a lock.

use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::{Arc, OnceLock};
use std::thread::ThreadId;

use cam_telemetry::{clock, EventKind, FlightRecorder, HistogramHandle};

use crate::spec::{Cqe, Sqe};

/// Errors from queue-pair operations.
#[derive(Clone, Copy, PartialEq, Eq, Debug)]
pub enum QueueError {
    /// The submission queue is full (in-flight commands == queue depth).
    SqFull,
}

impl std::fmt::Display for QueueError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            QueueError::SqFull => write!(f, "submission queue full"),
        }
    }
}

impl std::error::Error for QueueError {}

/// Counters exported by a queue pair. All four are written by the host
/// side only; `submitted` and `completed` double as the SQ tail doorbell
/// and the CQ head of the rings.
#[derive(Default)]
pub struct QpStats {
    /// SQ tail: SQEs at positions below it are visible to the device.
    submitted: AtomicU64,
    /// CQ head: CQEs at positions below it were reaped by the host.
    completed: AtomicU64,
    doorbells: AtomicU64,
    peak_inflight: AtomicU64,
}

impl QpStats {
    /// Commands submitted (made visible to the device).
    pub fn submitted(&self) -> u64 {
        self.submitted.load(Ordering::Relaxed)
    }

    /// Completions consumed by the host.
    pub fn completed(&self) -> u64 {
        self.completed.load(Ordering::Relaxed)
    }

    /// Doorbell rings. `submitted / doorbells` is the mean batch size.
    pub fn doorbells(&self) -> u64 {
        self.doorbells.load(Ordering::Relaxed)
    }

    /// High-water mark of commands in flight, sampled at each doorbell.
    /// A pipelined control plane shows values above the per-group batch
    /// size here; a blocking one never exceeds it.
    pub fn peak_in_flight(&self) -> u64 {
        self.peak_inflight.load(Ordering::Relaxed)
    }
}

/// Every word the host side writes, together on one cache line.
#[derive(Default)]
#[repr(align(64))]
struct HostSide {
    stats: QpStats,
    /// Host-private: position of the next SQ slot to stage into. SQEs in
    /// `[submitted, staged)` are written but not yet rung.
    staged: AtomicU64,
}

/// The ring cursors the device side writes, on a cache line of their own:
/// neither side's stores bounce the other's line, nor the read-only ring
/// geometry both keep reading.
#[derive(Default)]
#[repr(align(64))]
struct DeviceCursors {
    /// SQ head, device-private: SQEs below it were claimed by `take_sqes`.
    sq_head: AtomicU64,
    /// CQ tail: CQEs at positions below it are visible to the host.
    cq_tail: AtomicU64,
}

/// The thread that claimed one end of a queue pair, if any.
#[derive(Default)]
struct Owner(OnceLock<ThreadId>);

impl Owner {
    /// Claims this end for the calling thread. Idempotent from the owning
    /// thread; panics, in release builds too, if another thread holds it.
    fn claim(&self, qp: u16, end: &str) {
        let me = std::thread::current().id();
        let owner = *self.0.get_or_init(|| me);
        assert_eq!(
            owner, me,
            "queue pair {qp} {end} side is already owned by another thread"
        );
    }

    /// In debug builds, panics if this end is claimed by another thread.
    #[inline]
    fn check(&self, qp: u16, end: &str) {
        if cfg!(debug_assertions) {
            if let Some(owner) = self.0.get() {
                assert_eq!(
                    *owner,
                    std::thread::current().id(),
                    "queue pair {qp} {end} side driven off its owning thread"
                );
            }
        }
    }
}

/// Words of an SQE in its slot: those of [`Sqe::to_words`]. A stamped
/// pair's slot has one more, the ring stamp.
const SQE_WORDS: usize = 3;

/// A submission/completion ring pair of fixed depth.
///
/// Host-side methods ([`push_sqe`](Self::push_sqe), [`ring_doorbell`](Self::ring_doorbell),
/// [`poll_cqe`](Self::poll_cqe)) are meant to be called from one thread;
/// device-side methods ([`take_sqe`](Self::take_sqe), [`post_cqe`](Self::post_cqe))
/// from one thread too, the device's service thread (see the module docs).
pub struct QueuePair {
    id: u16,
    depth: usize,
    /// Ring capacity − 1. The capacity is the depth rounded up to a power
    /// of two, so positions map to slots with a mask; admission is still
    /// bounded by `depth`.
    mask: u64,
    /// The SQ slots' words, slot after slot: `SQE_WORDS` per slot, or one
    /// more on a pair that stamps its rings (see [`Self::slot_words`]).
    sq: Box<[AtomicU64]>,
    cq: Box<[AtomicU64]>,
    host: HostSide,
    dev: DeviceCursors,
    /// Telemetry: SQEs published per doorbell ring (batched-submission
    /// depth). Unset until attached; the disabled cost is one atomic load.
    doorbell_batch: OnceLock<HistogramHandle>,
    /// Event layer: emits a [`EventKind::QpDoorbell`] per ring once
    /// attached. Same cost model as `doorbell_batch`.
    recorder: OnceLock<Arc<FlightRecorder>>,
    /// The threads that claimed each end. Entry points assert against
    /// them in debug builds, turning a sharding bug (two engine workers
    /// polling one pair, a second taker) into a panic at the violation
    /// site instead of silently interleaved ring writes.
    host_owner: Owner,
    device_owner: Owner,
}

impl QueuePair {
    /// Creates a queue pair with the given id and depth (≥ 1).
    pub fn new(id: u16, depth: usize) -> Arc<Self> {
        Self::with_slot_words(id, depth, SQE_WORDS)
    }

    /// A queue pair whose doorbells stamp every slot they publish with the
    /// clock (see the module docs), for a device that keeps time.
    pub(crate) fn with_ring_stamps(id: u16, depth: usize) -> Arc<Self> {
        Self::with_slot_words(id, depth, SQE_WORDS + 1)
    }

    fn with_slot_words(id: u16, depth: usize, words: usize) -> Arc<Self> {
        assert!(depth >= 1, "queue depth must be >= 1");
        let capacity = depth.next_power_of_two();
        Arc::new(QueuePair {
            id,
            depth,
            mask: capacity as u64 - 1,
            sq: (0..capacity * words).map(|_| AtomicU64::new(0)).collect(),
            cq: (0..capacity).map(|_| AtomicU64::new(0)).collect(),
            host: HostSide::default(),
            dev: DeviceCursors::default(),
            doorbell_batch: OnceLock::new(),
            recorder: OnceLock::new(),
            host_owner: Owner::default(),
            device_owner: Owner::default(),
        })
    }

    /// Claims the host side of this queue pair for the calling thread: from
    /// now on, `push_sqe` / `ring_doorbell` / `poll_cqe` assert (in debug
    /// builds) that they run on this thread. Idempotent from the owning
    /// thread; panics if another thread already holds the claim. Callers
    /// that drive a pair from one thread of their own — unit tests, the
    /// rig smoke test, `cam-perf`'s inline probe — leave it unclaimed.
    pub fn bind_host_owner(&self) {
        self.host_owner.claim(self.id, "host");
    }

    /// Claims the device side (`take_sqe*` / `post_cqe`) for the calling
    /// thread, as [`bind_host_owner`](Self::bind_host_owner) does the host
    /// side. `NvmeDevice`'s service thread claims every pair it services.
    pub(crate) fn bind_device_owner(&self) {
        self.device_owner.claim(self.id, "device");
    }

    /// Words per SQ slot: `SQE_WORDS`, plus the ring stamp on a stamped
    /// pair. The SQ's length against the CQ's (one word per slot) is the
    /// record; no flag is kept.
    #[inline]
    fn slot_words(&self) -> usize {
        if self.sq.len() > SQE_WORDS * self.cq.len() {
            SQE_WORDS + 1
        } else {
            SQE_WORDS
        }
    }

    /// The words of the SQ slot at ring position `pos`.
    #[inline]
    fn sq_slot(&self, pos: u64) -> &[AtomicU64] {
        let words = self.slot_words();
        let at = (pos & self.mask) as usize * words;
        &self.sq[at..at + words]
    }

    /// Telemetry: records SQEs-per-doorbell into `hist` from now on.
    /// One-shot — later calls are ignored.
    pub fn attach_telemetry(&self, hist: HistogramHandle) {
        let _ = self.doorbell_batch.set(hist);
    }

    /// Event layer: emits a doorbell event per ring from now on. One-shot —
    /// later calls are ignored.
    pub fn attach_recorder(&self, rec: Arc<FlightRecorder>) {
        let _ = self.recorder.set(rec);
    }

    /// Queue pair identifier.
    pub fn id(&self) -> u16 {
        self.id
    }

    /// Ring depth.
    pub fn depth(&self) -> usize {
        self.depth
    }

    /// Commands submitted but not yet reaped.
    pub fn in_flight(&self) -> u64 {
        self.host.stats.submitted() - self.host.stats.completed()
    }

    /// Exported counters.
    pub fn stats(&self) -> &QpStats {
        &self.host.stats
    }

    /// Stages an SQE without making it visible. Fails if staging it would
    /// exceed the queue depth in flight once rung.
    pub fn push_sqe(&self, sqe: Sqe) -> Result<(), QueueError> {
        self.host_owner.check(self.id, "host");
        let staged = self.host.staged.load(Ordering::Relaxed);
        // `staged − completed` = in flight + staged-but-unrung. Admitting
        // only below `depth ≤ capacity` also makes the slot safe to
        // overwrite: its last occupant sat at `staged − capacity`, which is
        // below `completed` and so below the SQ head — every reaped
        // completion answers an SQE the device had already taken.
        if staged - self.host.stats.completed() >= self.depth as u64 {
            return Err(QueueError::SqFull);
        }
        let slot = self.sq_slot(staged);
        for (word, value) in slot.iter().zip(sqe.to_words()) {
            word.store(value, Ordering::Relaxed);
        }
        self.host.staged.store(staged + 1, Ordering::Relaxed);
        Ok(())
    }

    /// Publishes all staged SQEs to the device in one doorbell write.
    /// Returns the number published. On a stamped pair, first stamps their
    /// slots with one clock read.
    pub fn ring_doorbell(&self) -> usize {
        self.host_owner.check(self.id, "host");
        let staged = self.host.staged.load(Ordering::Relaxed);
        let submitted = self.host.stats.submitted();
        let n = (staged - submitted) as usize;
        if n == 0 {
            return 0;
        }
        let stamped = self.slot_words() > SQE_WORDS;
        let recorder = self.recorder.get();
        // One read serves the stamps and the doorbell event alike.
        let rung_ns = if stamped || recorder.is_some() {
            clock::now_ns()
        } else {
            0
        };
        if stamped {
            for pos in submitted..staged {
                self.sq_slot(pos)[SQE_WORDS].store(rung_ns, Ordering::Relaxed);
            }
        }
        // The tail doorbell: this one release-store publishes every slot
        // word written since the previous ring.
        self.host.stats.submitted.store(staged, Ordering::Release);
        // Host-only counters: plain load/store, no read-modify-write.
        let now_inflight = staged - self.host.stats.completed();
        if now_inflight > self.host.stats.peak_in_flight() {
            self.host
                .stats
                .peak_inflight
                .store(now_inflight, Ordering::Relaxed);
        }
        self.host
            .stats
            .doorbells
            .store(self.host.stats.doorbells() + 1, Ordering::Relaxed);
        if let Some(h) = self.doorbell_batch.get() {
            h.record(n as u64);
        }
        if let Some(rec) = recorder {
            rec.emit_at(
                rung_ns,
                EventKind::QpDoorbell {
                    qp: self.id,
                    sqes: n as u32,
                },
            );
        }
        n
    }

    /// Convenience: stage one SQE and ring the doorbell immediately
    /// (per-command submission; tests and the rig smoke test use it).
    pub fn submit(&self, sqe: Sqe) -> Result<(), QueueError> {
        self.push_sqe(sqe)?;
        self.ring_doorbell();
        Ok(())
    }

    /// Host side: reaps one completion if available.
    pub fn poll_cqe(&self) -> Option<Cqe> {
        let mut cqe = None;
        self.reap(1, |c| cqe = Some(c));
        cqe
    }

    /// Host side: reaps up to `max` completions into `out`; returns count.
    pub fn poll_cqes(&self, max: usize, out: &mut Vec<Cqe>) -> usize {
        self.reap(max, |c| out.push(c))
    }

    /// Reaps up to `max` visible CQEs with one acquire-load of the CQ tail
    /// and one store of the new head.
    #[inline]
    fn reap(&self, max: usize, mut sink: impl FnMut(Cqe)) -> usize {
        self.host_owner.check(self.id, "host");
        let head = self.host.stats.completed();
        let tail = self.dev.cq_tail.load(Ordering::Acquire);
        let n = (tail - head).min(max as u64);
        for pos in head..head + n {
            sink(Cqe::from_word(
                self.cq[(pos & self.mask) as usize].load(Ordering::Relaxed),
            ));
        }
        if n > 0 {
            // Release: `post_cqe` may overwrite the reaped slots once it
            // observes the new head.
            self.host.stats.completed.store(head + n, Ordering::Release);
        }
        n as usize
    }

    /// Device side: takes the next visible SQE, if any — the one-entry
    /// case of the burst claim (`take_sqes`).
    pub fn take_sqe(&self) -> Option<Sqe> {
        let mut sqe = None;
        self.claim(1, false, |s| sqe = Some(s))?;
        sqe
    }

    /// Device side: claims up to `max` visible SQEs and appends them to
    /// `out` in ring order. Returns `None` when none is visible; else the
    /// ring stamp of the newest SQE claimed (0 on a pair that does not
    /// stamp).
    pub(crate) fn take_sqes(&self, max: usize, out: &mut Vec<Sqe>) -> Option<u64> {
        self.claim(max, false, |sqe| out.push(sqe))
    }

    /// Device side: [`take_sqes`](Self::take_sqes), but the claim ends at
    /// the first SQE a later doorbell published, so every SQE claimed
    /// carries the returned stamp. A device opens a burst this way: the
    /// commands of later doorbells join the burst instead of pushing its
    /// deadline back. On a pair that does not stamp it is `take_sqes`.
    pub(crate) fn take_sqes_of_one_ring(&self, max: usize, out: &mut Vec<Sqe>) -> Option<u64> {
        self.claim(max, true, |sqe| out.push(sqe))
    }

    /// The claim behind `take_sqe`/`take_sqes*`: up to `max` visible SQEs
    /// (with `one_ring`, only those of the first doorbell among them) into
    /// `read`, then a relaxed store of the head — no other thread reads
    /// it, and `post_cqe`'s `Release` of the CQ tail orders these reads
    /// before the host reuses the slots. Returns the newest claimed SQE's
    /// ring stamp.
    #[inline]
    fn claim(&self, max: usize, one_ring: bool, mut read: impl FnMut(Sqe)) -> Option<u64> {
        self.device_owner.check(self.id, "device");
        let head = self.dev.sq_head.load(Ordering::Relaxed);
        let tail = self.host.stats.submitted.load(Ordering::Acquire);
        debug_assert!(tail >= head, "SQ head {head} past the tail {tail}");
        let mut n = (tail - head).min(max as u64);
        if n == 0 {
            return None;
        }
        let stamp = |pos: u64| {
            self.sq_slot(pos)
                .get(SQE_WORDS)
                .map_or(0, |w| w.load(Ordering::Relaxed))
        };
        if one_ring && self.slot_words() > SQE_WORDS {
            // One doorbell stamps all its slots alike, and stamps never
            // fall along the ring.
            let first = stamp(head);
            n = (1..n).find(|&k| stamp(head + k) != first).unwrap_or(n);
        }
        for pos in head..head + n {
            let slot = self.sq_slot(pos);
            read(Sqe::from_words(
                [0, 1, 2].map(|w| slot[w].load(Ordering::Relaxed)),
            ));
        }
        let rung_ns = stamp(head + n - 1);
        self.dev.sq_head.store(head + n, Ordering::Relaxed);
        Some(rung_ns)
    }

    /// Device side: posts a completion. The CQ tail is a plain load then
    /// store: the device side has one thread (see the module docs).
    ///
    /// The depth invariant guarantees space; a full CQ indicates a protocol
    /// violation and panics.
    pub fn post_cqe(&self, cqe: Cqe) {
        self.device_owner.check(self.id, "device");
        let tail = self.dev.cq_tail.load(Ordering::Relaxed);
        // Acquire pairs with the host's head store: the slot about to be
        // overwritten has been read.
        let unreaped = tail - self.host.stats.completed.load(Ordering::Acquire);
        assert!(
            unreaped < self.depth as u64,
            "CQ overflow: more completions than in-flight commands"
        );
        self.cq[(tail & self.mask) as usize].store(cqe.to_word(), Ordering::Relaxed);
        self.dev.cq_tail.store(tail + 1, Ordering::Release);
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::spec::Status;

    #[test]
    fn staged_sqes_invisible_until_doorbell() {
        let qp = QueuePair::new(0, 8);
        qp.push_sqe(Sqe::read(1, 0, 1, 0)).unwrap();
        qp.push_sqe(Sqe::read(2, 1, 1, 0)).unwrap();
        assert!(qp.take_sqe().is_none());
        assert_eq!(qp.ring_doorbell(), 2);
        assert_eq!(qp.take_sqe().unwrap().cid, 1);
        assert_eq!(qp.take_sqe().unwrap().cid, 2);
        assert!(qp.take_sqe().is_none());
        assert_eq!(qp.stats().doorbells(), 1);
        assert_eq!(qp.stats().submitted(), 2);
    }

    #[test]
    fn depth_limits_in_flight() {
        let qp = QueuePair::new(0, 2);
        qp.submit(Sqe::read(1, 0, 1, 0)).unwrap();
        qp.submit(Sqe::read(2, 0, 1, 0)).unwrap();
        assert_eq!(qp.submit(Sqe::read(3, 0, 1, 0)), Err(QueueError::SqFull));
        // Completing one frees a slot.
        let sqe = qp.take_sqe().unwrap();
        qp.post_cqe(Cqe {
            cid: sqe.cid,
            status: Status::Success,
        });
        assert!(qp.poll_cqe().is_some());
        qp.submit(Sqe::read(3, 0, 1, 0)).unwrap();
        assert_eq!(qp.in_flight(), 2);
        assert_eq!(qp.stats().peak_in_flight(), 2);
    }

    /// Stages SQEs until the queue fills, then rings once (the CAM/SPDK
    /// pattern). Returns how many were accepted.
    fn submit_batch(qp: &QueuePair, sqes: impl IntoIterator<Item = Sqe>) -> usize {
        let accepted = sqes
            .into_iter()
            .take_while(|&sqe| qp.push_sqe(sqe).is_ok())
            .count();
        qp.ring_doorbell();
        accepted
    }

    #[test]
    fn batch_submission_counts_one_doorbell() {
        let qp = QueuePair::new(0, 64);
        let n = submit_batch(&qp, (0..32).map(|i| Sqe::read(i, i as u64, 1, 0)));
        assert_eq!(n, 32);
        assert_eq!(qp.stats().doorbells(), 1);
        assert_eq!(qp.stats().submitted(), 32);
    }

    #[test]
    fn batch_submission_stops_at_capacity() {
        let qp = QueuePair::new(0, 4);
        let n = submit_batch(&qp, (0..10).map(|i| Sqe::read(i, 0, 1, 0)));
        assert_eq!(n, 4);
        assert_eq!(qp.in_flight(), 4);
    }

    #[test]
    fn poll_cqes_reaps_up_to_max() {
        let qp = QueuePair::new(0, 8);
        submit_batch(&qp, (0..6).map(|i| Sqe::read(i, 0, 1, 0)));
        while let Some(sqe) = qp.take_sqe() {
            qp.post_cqe(Cqe {
                cid: sqe.cid,
                status: Status::Success,
            });
        }
        let mut out = Vec::new();
        assert_eq!(qp.poll_cqes(4, &mut out), 4);
        assert_eq!(qp.poll_cqes(4, &mut out), 2);
        assert_eq!(out.len(), 6);
        assert_eq!(qp.in_flight(), 0);
    }

    #[test]
    fn host_owner_claim_is_idempotent_and_exclusive() {
        let qp = QueuePair::new(3, 8);
        // An unclaimed host side accepts any thread.
        qp.submit(Sqe::read(1, 0, 1, 0)).unwrap();
        qp.bind_host_owner();
        qp.bind_host_owner(); // same thread: fine
        qp.submit(Sqe::read(2, 0, 1, 0)).unwrap();
        // A second thread cannot take the claim…
        let other = Arc::clone(&qp);
        let claim = std::thread::spawn(move || other.bind_host_owner()).join();
        assert!(claim.is_err(), "foreign claim must panic");
        // …and (debug builds) cannot drive the host side either.
        #[cfg(debug_assertions)]
        {
            let other = Arc::clone(&qp);
            let drive = std::thread::spawn(move || {
                other.push_sqe(Sqe::read(9, 0, 1, 0)).unwrap();
            })
            .join();
            assert!(drive.is_err(), "foreign host-side call must panic");
        }
        // The device side has an owner of its own, claimed apart.
        let dev = Arc::clone(&qp);
        std::thread::spawn(move || {
            dev.bind_device_owner();
            while dev.take_sqe().is_some() {}
        })
        .join()
        .unwrap();
    }

    #[test]
    fn device_owner_claim_is_exclusive() {
        let qp = QueuePair::new(4, 8);
        qp.submit(Sqe::read(1, 0, 1, 0)).unwrap();
        qp.bind_device_owner();
        qp.bind_device_owner(); // same thread: fine
        let done = Cqe {
            cid: qp.take_sqe().unwrap().cid,
            status: Status::Success,
        };
        // A second taker cannot claim the device side, in release too…
        let other = Arc::clone(&qp);
        let claim = std::thread::spawn(move || other.bind_device_owner()).join();
        assert!(claim.is_err(), "foreign device-side claim must panic");
        // …and (debug builds) can neither take nor post.
        #[cfg(debug_assertions)]
        {
            let other = Arc::clone(&qp);
            let take = std::thread::spawn(move || other.take_sqe()).join();
            assert!(take.is_err(), "foreign take_sqe must panic");
            let other = Arc::clone(&qp);
            let post = std::thread::spawn(move || other.post_cqe(done)).join();
            assert!(post.is_err(), "foreign post_cqe must panic");
        }
        // The owner still completes the command.
        qp.post_cqe(done);
        assert_eq!(qp.poll_cqe().map(|c| c.cid), Some(1));
    }

    /// Spin loops of the threaded tests call the returned check whenever
    /// they find nothing to do, so a peer thread that panicked becomes a
    /// failure here too instead of an endless spin.
    fn stall_check() -> impl Fn() {
        let started = std::time::Instant::now();
        move || assert!(started.elapsed().as_secs() < 120, "peer thread stalled")
    }

    const STATUSES: [Status; 6] = [
        Status::Success,
        Status::LbaOutOfRange,
        Status::InvalidField,
        Status::DataTransferError,
        Status::MediaError,
        Status::TransientMediaError,
    ];

    fn sqe_fields(s: &Sqe) -> (u16, crate::spec::Opcode, u64, u32, u64) {
        (s.cid, s.opcode, s.slba, s.nlb, s.data_addr)
    }

    #[test]
    fn seeded_interleaving_matches_a_deque_model_across_many_wraps() {
        use rand::{rngs::StdRng, RngCore, SeedableRng};
        use std::collections::VecDeque;
        for (depth, stamped) in [1usize, 2, 3, 7]
            .into_iter()
            .flat_map(|d| [(d, false), (d, true)])
        {
            let qp = if stamped {
                QueuePair::with_ring_stamps(0, depth)
            } else {
                QueuePair::new(0, depth)
            };
            let mut rng = StdRng::seed_from_u64(depth as u64);
            let mut newest_ring = 0;
            // The model: four FIFOs a command moves through.
            let mut staged: VecDeque<Sqe> = VecDeque::new();
            let mut visible: VecDeque<Sqe> = VecDeque::new();
            let mut taken: VecDeque<u16> = VecDeque::new();
            let mut posted: VecDeque<Cqe> = VecDeque::new();
            let (mut submitted, mut completed, mut doorbells, mut peak) = (0u64, 0u64, 0u64, 0u64);
            let mut reaped = Vec::new();
            for step in 0..40_000u64 {
                match rng.next_u64() % 5 {
                    0 => {
                        let r = rng.next_u64();
                        let sqe = match r % 3 {
                            0 => Sqe::read(step as u16, r, (r >> 8) as u32, !r),
                            1 => Sqe::write(step as u16, !r, (r >> 16) as u32, r),
                            _ => Sqe::flush(step as u16),
                        };
                        let room = submitted - completed + (staged.len() as u64) < depth as u64;
                        assert_eq!(qp.push_sqe(sqe).is_ok(), room, "step {step}");
                        if room {
                            staged.push_back(sqe);
                        } else {
                            assert_eq!(qp.push_sqe(sqe), Err(QueueError::SqFull));
                        }
                    }
                    1 => {
                        let n = staged.len();
                        assert_eq!(qp.ring_doorbell(), n, "step {step}");
                        visible.extend(staged.drain(..));
                        submitted += n as u64;
                        if n > 0 {
                            doorbells += 1;
                            peak = peak.max(submitted - completed);
                        }
                    }
                    2 => {
                        // Staged-but-unrung SQEs are invisible: only the
                        // model's `visible` FIFO can feed a claim, of one
                        // SQE or of a burst.
                        let max = 1 + (rng.next_u64() % (depth as u64 + 1)) as usize;
                        let mut got = Vec::new();
                        if max == 1 {
                            got.extend(qp.take_sqe());
                        } else if let Some(rung_ns) = qp.take_sqes(max, &mut got) {
                            // The newest claimed SQE's ring, never older
                            // than an earlier claim's.
                            assert_eq!(rung_ns == 0, !stamped, "step {step}");
                            assert!(rung_ns >= newest_ring, "step {step}");
                            newest_ring = rung_ns;
                        }
                        let want: Vec<Sqe> = visible.drain(..max.min(visible.len())).collect();
                        assert!(
                            got.iter().map(sqe_fields).eq(want.iter().map(sqe_fields)),
                            "step {step}"
                        );
                        taken.extend(want.iter().map(|s| s.cid));
                    }
                    3 => {
                        if let Some(cid) = taken.pop_front() {
                            let cqe = Cqe {
                                cid,
                                status: STATUSES[(rng.next_u64() % 6) as usize],
                            };
                            qp.post_cqe(cqe);
                            posted.push_back(cqe);
                        }
                    }
                    _ => {
                        let max = (rng.next_u64() % (depth as u64 + 2)) as usize;
                        reaped.clear();
                        let n = qp.poll_cqes(max, &mut reaped);
                        assert_eq!(n, max.min(posted.len()), "step {step}");
                        for got in &reaped {
                            let want = posted.pop_front().unwrap();
                            assert_eq!((got.cid, got.status), (want.cid, want.status));
                        }
                        completed += n as u64;
                    }
                }
                assert_eq!(qp.stats().submitted(), submitted);
                assert_eq!(qp.stats().completed(), completed);
                assert_eq!(qp.in_flight(), submitted - completed);
            }
            assert_eq!(qp.stats().doorbells(), doorbells);
            assert_eq!(qp.stats().peak_in_flight(), peak);
            assert!(
                submitted > 100 * depth.next_power_of_two() as u64,
                "depth {depth}: only {submitted} commands, too few ring wraps"
            );
        }
    }

    #[test]
    #[should_panic(expected = "CQ overflow")]
    fn posting_more_completions_than_the_depth_panics() {
        let qp = QueuePair::new(0, 3);
        // Nothing reaps, so the fourth unreaped completion cannot fit —
        // whether or not a command was ever submitted for it.
        for cid in 0..4 {
            qp.post_cqe(Cqe {
                cid,
                status: Status::Success,
            });
        }
    }

    #[test]
    fn two_thread_stress_echoes_every_command_exactly_once() {
        const COMMANDS: u64 = 1_000_000;
        let qp = QueuePair::new(0, 64);
        std::thread::scope(|s| {
            let dev = &qp;
            s.spawn(move || {
                // One service thread: commands arrive, and are completed,
                // in submission order with every field intact.
                let stalled = stall_check();
                let mut next = 0u64;
                while next < COMMANDS {
                    let Some(sqe) = dev.take_sqe() else {
                        stalled();
                        std::thread::yield_now();
                        continue;
                    };
                    assert_eq!(
                        (sqe.cid, sqe.slba, sqe.nlb, sqe.data_addr),
                        (next as u16, next, next as u32, !next)
                    );
                    dev.post_cqe(Cqe {
                        cid: sqe.cid,
                        status: STATUSES[(next % 6) as usize],
                    });
                    next += 1;
                }
                assert!(dev.take_sqe().is_none());
            });
            let stalled = stall_check();
            let (mut pushed, mut echoed) = (0u64, 0u64);
            let mut cqes = Vec::new();
            while echoed < COMMANDS {
                // Bursts of varying size, one doorbell each.
                let burst = 1 + pushed % 17;
                for _ in 0..burst {
                    if pushed == COMMANDS
                        || qp
                            .push_sqe(Sqe::read(pushed as u16, pushed, pushed as u32, !pushed))
                            .is_err()
                    {
                        break;
                    }
                    pushed += 1;
                }
                qp.ring_doorbell();
                cqes.clear();
                if qp.poll_cqes(64, &mut cqes) == 0 {
                    stalled();
                    std::thread::yield_now();
                }
                for cqe in &cqes {
                    // In order and gap-free: each CID echoes exactly once.
                    assert_eq!(
                        (cqe.cid, cqe.status),
                        (echoed as u16, STATUSES[(echoed % 6) as usize])
                    );
                    echoed += 1;
                }
            }
            assert_eq!(pushed, COMMANDS);
        });
        assert_eq!(qp.stats().submitted(), COMMANDS);
        assert_eq!(qp.stats().completed(), COMMANDS);
        assert_eq!(qp.in_flight(), 0);
        assert!(qp.poll_cqe().is_none());
    }

    #[test]
    fn a_stamped_pair_stamps_each_ring_once_and_a_claim_returns_the_newest() {
        let qp = QueuePair::with_ring_stamps(0, 8);
        let before = clock::now_ns();
        qp.submit(Sqe::read(1, 0, 1, 0)).unwrap();
        std::thread::sleep(std::time::Duration::from_millis(2));
        qp.push_sqe(Sqe::read(2, 1, 1, 0)).unwrap();
        qp.push_sqe(Sqe::read(3, 2, 1, 0)).unwrap();
        qp.ring_doorbell();
        let after = clock::now_ns();
        let mut out = Vec::new();
        let first = qp.take_sqes(1, &mut out).unwrap();
        let second = qp.take_sqes(8, &mut out).unwrap();
        assert!(out.iter().map(|s| s.cid).eq(1..=3));
        assert!(before <= first && first + 2_000_000 <= second && second <= after);
        assert_eq!(qp.take_sqes(8, &mut out), None);
        // A pair that does not stamp returns 0.
        let plain = QueuePair::new(1, 8);
        plain.submit(Sqe::flush(4)).unwrap();
        assert_eq!(plain.take_sqes(8, &mut out), Some(0));
    }

    #[test]
    fn a_one_ring_claim_ends_at_the_next_doorbell() {
        let qp = QueuePair::with_ring_stamps(0, 8);
        for cid in 1..=2 {
            qp.push_sqe(Sqe::read(cid, 0, 1, 0)).unwrap();
        }
        qp.ring_doorbell();
        std::thread::sleep(std::time::Duration::from_millis(2));
        for cid in 3..=5 {
            qp.push_sqe(Sqe::read(cid, 0, 1, 0)).unwrap();
        }
        qp.ring_doorbell();
        let mut out = Vec::new();
        let first = qp.take_sqes_of_one_ring(8, &mut out).unwrap();
        assert!(out.iter().map(|s| s.cid).eq(1..=2));
        // `max` still bounds the claim within a doorbell.
        let second = qp.take_sqes_of_one_ring(2, &mut out).unwrap();
        let third = qp.take_sqes_of_one_ring(8, &mut out).unwrap();
        assert!(out.iter().map(|s| s.cid).eq(1..=5));
        assert!(first + 2_000_000 <= second && second == third);
        assert_eq!(qp.take_sqes_of_one_ring(8, &mut out), None);
        // A pair that does not stamp claims every visible SQE.
        let plain = QueuePair::new(1, 8);
        plain.submit(Sqe::flush(6)).unwrap();
        plain.submit(Sqe::flush(7)).unwrap();
        out.clear();
        assert_eq!(plain.take_sqes_of_one_ring(8, &mut out), Some(0));
        assert_eq!(out.len(), 2);
    }
}
