//! [`Channel`] — the four pre-allocated memory regions of § III-B.
//!
//! One channel carries one stream of batches with single-outstanding-batch
//! semantics (Fig. 7 issues `prefetch` for batch *n+1* only after
//! `prefetch_synchronize` retired batch *n*). [`CamContext`] allocates one
//! channel for prefetch and one for write-back by default; extra channels
//! let several thread blocks drive independent streams.
//!
//! Ownership discipline (quoted from the paper): "The first three regions
//! are only written by the GPU and read by the CPU, whereas the last region
//! is only written by the CPU and read by the GPU."
//!
//! [`CamContext`]: crate::CamContext

use std::sync::atomic::{AtomicU64, Ordering};

/// Why a publish was refused.
#[derive(Clone, Copy, PartialEq, Eq, Debug)]
pub enum PublishError {
    /// A batch is still in flight on this channel.
    Busy,
    /// The batch exceeds region-1 capacity.
    TooLarge,
    /// The batch's requests carry no blocks: it would plan no command, so
    /// nothing would ever retire it.
    ZeroBlocks,
}

// The op enum lives in the protocol layer (both drivers plan and submit
// by it); re-exported here because the channel regions are its producer.
pub use cam_protocol::ChannelOp;

/// The four regions for one batch stream.
pub struct Channel {
    // -- Region 1: "an array of logical blocks that need to be processed",
    //    extended with a per-request destination address so scattered
    //    batches (and the StorageBackend adapter) are expressible.
    lbas: Vec<AtomicU64>,
    addrs: Vec<AtomicU64>,
    // -- Region 2: "arguments for the CPU to process a batch of requests".
    req_num: AtomicU64,
    op: AtomicU64, // 0 = read, 1 = write
    blocks_per_req: AtomicU64,
    // -- Region 3: "informed when the GPU has finished writing all the
    //    block IDs" — a monotone batch sequence number.
    doorbell: AtomicU64,
    // -- Region 4: "notifies the GPU when the CPU has processed all
    //    requests" — the retired batch sequence number.
    complete: AtomicU64,
    /// Commands of the current batch that completed with an error
    /// (CPU-written, GPU-read alongside region 4).
    errors: AtomicU64,
    /// Errors already reported to a `synchronize` caller.
    acked_errors: AtomicU64,
    /// Telemetry: when the current batch's doorbell was rung, on the
    /// [`cam_telemetry::clock`] timeline. Stamped just before the region-3
    /// release-store, so the owning worker reads a coherent value.
    published_ns: AtomicU64,
    /// Guards region 1+2 writes: the protocol has a single leading thread,
    /// but a racing misuse must fail with `Busy`, not corrupt the regions.
    publishing: std::sync::atomic::AtomicBool,
    /// The worker thread owning this channel, unparked after every doorbell
    /// publish so an idle (parked) engine wakes without polling. Unset
    /// until the control plane installs it (once, at attach). Reading it is
    /// one atomic load: the GPU-side publish path takes no lock.
    waker: std::sync::OnceLock<std::thread::Thread>,
}

impl Channel {
    /// Allocates a channel able to carry `max_batch` requests per batch.
    pub fn new(max_batch: usize) -> Self {
        assert!(max_batch >= 1);
        Channel {
            lbas: (0..max_batch).map(|_| AtomicU64::new(0)).collect(),
            addrs: (0..max_batch).map(|_| AtomicU64::new(0)).collect(),
            req_num: AtomicU64::new(0),
            op: AtomicU64::new(0),
            blocks_per_req: AtomicU64::new(1),
            doorbell: AtomicU64::new(0),
            complete: AtomicU64::new(0),
            errors: AtomicU64::new(0),
            acked_errors: AtomicU64::new(0),
            published_ns: AtomicU64::new(0),
            publishing: std::sync::atomic::AtomicBool::new(false),
            waker: std::sync::OnceLock::new(),
        }
    }

    /// Installs the worker thread to unpark after each publish. Set-once:
    /// the control plane calls this at attach, and a later call is ignored
    /// (a channel is served by one control plane for its lifetime). The
    /// publishing (GPU-side) thread unparks it after the region-3 doorbell
    /// store.
    pub fn set_waker(&self, worker: std::thread::Thread) {
        let _ = self.waker.set(worker);
    }

    /// Maximum requests per batch (region-1 capacity).
    pub fn capacity(&self) -> usize {
        self.lbas.len()
    }

    /// GPU side: whether the previous batch has fully retired, i.e. the
    /// regions may be overwritten.
    pub fn idle(&self) -> bool {
        self.complete.load(Ordering::Acquire) == self.doorbell.load(Ordering::Acquire)
    }

    /// GPU side (leading thread): publish a batch. Regions 1 and 2 are
    /// filled, then the region-3 doorbell releases them to the CPU.
    /// Returns the batch's sequence number.
    ///
    /// # Panics
    /// If the batch exceeds capacity or the channel is busy (the protocol
    /// requires `synchronize` between batches on one channel). Use
    /// [`try_publish`](Self::try_publish) for a fallible variant.
    pub fn publish(
        &self,
        op: ChannelOp,
        lbas: &[u64],
        addrs: impl Fn(usize) -> u64,
        blocks_per_req: u32,
    ) -> u64 {
        match self.try_publish(op, lbas, addrs, blocks_per_req) {
            Ok(seq) => seq,
            Err(PublishError::TooLarge) => panic!("batch exceeds region-1 capacity"),
            Err(PublishError::Busy) => panic!("channel busy: synchronize before re-publishing"),
            Err(PublishError::ZeroBlocks) => {
                panic!("a batch must carry at least one block per request")
            }
        }
    }

    /// Fallible [`publish`](Self::publish).
    pub fn try_publish(
        &self,
        op: ChannelOp,
        lbas: &[u64],
        addrs: impl Fn(usize) -> u64,
        blocks_per_req: u32,
    ) -> Result<u64, PublishError> {
        if lbas.len() > self.capacity() {
            return Err(PublishError::TooLarge);
        }
        if blocks_per_req == 0 {
            return Err(PublishError::ZeroBlocks);
        }
        // Claim exclusive publish rights before touching regions 1+2 — a
        // second concurrent publisher gets `Busy` instead of interleaving
        // region writes with ours.
        if self
            .publishing
            .compare_exchange(false, true, Ordering::Acquire, Ordering::Relaxed)
            .is_err()
        {
            return Err(PublishError::Busy);
        }
        if !self.idle() {
            self.publishing.store(false, Ordering::Release);
            return Err(PublishError::Busy);
        }
        for (i, &lba) in lbas.iter().enumerate() {
            self.lbas[i].store(lba, Ordering::Relaxed);
            self.addrs[i].store(addrs(i), Ordering::Relaxed);
        }
        self.req_num.store(lbas.len() as u64, Ordering::Relaxed);
        self.op.store(
            match op {
                ChannelOp::Read => 0,
                ChannelOp::Write => 1,
            },
            Ordering::Relaxed,
        );
        self.blocks_per_req
            .store(blocks_per_req as u64, Ordering::Relaxed);
        self.published_ns
            .store(cam_telemetry::clock::now_ns(), Ordering::Relaxed);
        // Region 3: one release-store makes regions 1+2 visible — this is
        // the single "doorbell" write the leading thread performs.
        let seq = self.doorbell.load(Ordering::Relaxed) + 1;
        self.doorbell.store(seq, Ordering::Release);
        self.publishing.store(false, Ordering::Release);
        // Wake the owning worker *after* the doorbell is visible: an unpark
        // that lands before the worker parks leaves its token set, and a
        // worker that wakes and sees nothing simply re-parks.
        if let Some(worker) = self.waker.get() {
            worker.unpark();
        }
        Ok(seq)
    }

    /// CPU side (owning worker): returns the pending batch sequence if a new
    /// doorbell has been rung.
    pub fn pending(&self, last_seen: u64) -> Option<u64> {
        let db = self.doorbell.load(Ordering::Acquire);
        (db > last_seen).then_some(db)
    }

    /// CPU side: snapshot the published batch (after observing `pending`).
    pub fn snapshot(&self) -> (ChannelOp, u32, Vec<(u64, u64)>) {
        let (op, blocks, n) = self.header();
        (op, blocks, (0..n).map(|i| self.request(i)).collect())
    }

    /// CPU side: the published batch's region 2 (after observing
    /// `pending`): its op, blocks per request and request count. With
    /// [`request`](Self::request), a planner reads region 1 in place
    /// instead of copying it out first.
    pub fn header(&self) -> (ChannelOp, u32, usize) {
        let op = if self.op.load(Ordering::Relaxed) == 0 {
            ChannelOp::Read
        } else {
            ChannelOp::Write
        };
        (
            op,
            self.blocks_per_req.load(Ordering::Relaxed) as u32,
            self.req_num.load(Ordering::Relaxed) as usize,
        )
    }

    /// CPU side: request `i` of the published batch, `(lba, address)`.
    pub fn request(&self, i: usize) -> (u64, u64) {
        (
            self.lbas[i].load(Ordering::Relaxed),
            self.addrs[i].load(Ordering::Relaxed),
        )
    }

    /// CPU side: retire batch `seq`, adding `errors` failed commands.
    /// The region-4 store is the only CPU→GPU write.
    pub fn retire(&self, seq: u64, errors: u64) {
        if errors > 0 {
            self.errors.fetch_add(errors, Ordering::Relaxed);
        }
        self.complete.store(seq, Ordering::Release);
    }

    /// GPU side: whether batch `seq` has retired.
    pub fn retired(&self, seq: u64) -> bool {
        self.complete.load(Ordering::Acquire) >= seq
    }

    /// GPU side: errors that appeared since the last call (consumed by
    /// `synchronize` so each failure is reported exactly once).
    pub fn take_new_errors(&self) -> u64 {
        let now = self.errors.load(Ordering::Relaxed);
        let prev = self.acked_errors.swap(now, Ordering::Relaxed);
        now - prev
    }

    /// Latest published sequence number.
    pub fn current_seq(&self) -> u64 {
        self.doorbell.load(Ordering::Acquire)
    }

    /// Telemetry: when the current batch's doorbell was rung
    /// ([`cam_telemetry::clock`] nanoseconds). Meaningful after observing
    /// [`pending`](Self::pending) for that batch.
    pub fn published_at_ns(&self) -> u64 {
        self.published_ns.load(Ordering::Relaxed)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn publish_snapshot_retire_cycle() {
        let ch = Channel::new(8);
        assert!(ch.idle());
        let seq = ch.publish(
            ChannelOp::Read,
            &[10, 20, 30],
            |i| 0x1000 + i as u64 * 4096,
            2,
        );
        assert_eq!(seq, 1);
        assert!(!ch.idle());
        assert_eq!(ch.pending(0), Some(1));
        assert_eq!(ch.pending(1), None);
        let (op, blocks, reqs) = ch.snapshot();
        assert_eq!(op, ChannelOp::Read);
        assert_eq!(blocks, 2);
        assert_eq!(reqs, vec![(10, 0x1000), (20, 0x2000), (30, 0x3000)]);
        assert!(!ch.retired(1));
        ch.retire(1, 0);
        assert!(ch.retired(1));
        assert!(ch.idle());
        assert_eq!(ch.take_new_errors(), 0);
    }

    #[test]
    fn sequences_are_monotone() {
        let ch = Channel::new(4);
        for expect in 1..=5u64 {
            let seq = ch.publish(ChannelOp::Write, &[1], |_| 0, 1);
            assert_eq!(seq, expect);
            ch.retire(seq, 0);
        }
        assert_eq!(ch.current_seq(), 5);
    }

    #[test]
    fn errors_accumulate() {
        let ch = Channel::new(4);
        let s = ch.publish(ChannelOp::Read, &[1, 2], |_| 0, 1);
        ch.retire(s, 2);
        assert_eq!(ch.take_new_errors(), 2);
        assert_eq!(ch.take_new_errors(), 0, "each failure is reported once");
    }

    #[test]
    #[should_panic(expected = "channel busy")]
    fn republish_without_retire_panics() {
        let ch = Channel::new(4);
        ch.publish(ChannelOp::Read, &[1], |_| 0, 1);
        ch.publish(ChannelOp::Read, &[2], |_| 0, 1);
    }

    #[test]
    fn a_zero_block_batch_is_refused_and_leaves_the_channel_idle() {
        let ch = Channel::new(4);
        assert_eq!(
            ch.try_publish(ChannelOp::Read, &[1, 2], |_| 0, 0),
            Err(PublishError::ZeroBlocks)
        );
        assert!(ch.idle());
        assert_eq!(ch.pending(0), None, "nothing was published");
        assert_eq!(ch.try_publish(ChannelOp::Read, &[1, 2], |_| 0, 1), Ok(1));
    }

    #[test]
    #[should_panic(expected = "capacity")]
    fn oversized_batch_panics() {
        let ch = Channel::new(2);
        ch.publish(ChannelOp::Read, &[1, 2, 3], |_| 0, 1);
    }

    #[test]
    fn racing_publishers_cannot_interleave() {
        // Many threads race to publish on one channel; per protocol round
        // exactly one may win, and the snapshot must always be internally
        // consistent (all entries from one winner).
        let ch = std::sync::Arc::new(Channel::new(64));
        let rounds = 50u64;
        std::thread::scope(|s| {
            let mut handles = Vec::new();
            for t in 0..4u64 {
                let ch = std::sync::Arc::clone(&ch);
                handles.push(s.spawn(move || {
                    let mut wins = 0u64;
                    for _ in 0..rounds {
                        let lbas = [t * 1000, t * 1000 + 1, t * 1000 + 2];
                        if ch.try_publish(ChannelOp::Read, &lbas, |_| t, 1).is_ok() {
                            wins += 1;
                        }
                        std::thread::yield_now();
                    }
                    wins
                }));
            }
            // "CPU": retire whatever appears, checking consistency. The
            // deadline panics rather than silently breaking out — a wedged
            // channel must fail the test loudly, not trickle into the
            // win/retire-count mismatch below.
            let mut last = 0;
            let deadline = std::time::Instant::now() + std::time::Duration::from_secs(10);
            let mut retired = 0u64;
            loop {
                assert!(
                    std::time::Instant::now() < deadline,
                    "retire loop exceeded its 10 s deadline with publishers still running \
                     ({retired} batches retired so far)"
                );
                if let Some(seq) = ch.pending(last) {
                    let (_, _, reqs) = ch.snapshot();
                    assert_eq!(reqs.len(), 3);
                    let owner = reqs[0].1; // addr encodes the winner
                    let base = owner * 1000;
                    assert_eq!(
                        reqs.iter().map(|r| r.0).collect::<Vec<_>>(),
                        vec![base, base + 1, base + 2],
                        "interleaved publish detected"
                    );
                    ch.retire(seq, 0);
                    retired += 1;
                    last = seq;
                } else if handles.iter().all(|h| h.is_finished()) {
                    break;
                } else {
                    std::thread::yield_now();
                }
            }
            let total_wins: u64 = handles.into_iter().map(|h| h.join().unwrap()).sum();
            assert_eq!(total_wins, retired);
            assert!(retired >= 1);
        });
    }

    #[test]
    fn cross_thread_handoff() {
        // GPU thread publishes; CPU thread snapshots and retires.
        let ch = std::sync::Arc::new(Channel::new(64));
        let cpu = {
            let ch = std::sync::Arc::clone(&ch);
            std::thread::spawn(move || {
                let mut last = 0;
                let mut total = 0u64;
                while total < 10 {
                    if let Some(seq) = ch.pending(last) {
                        let (_, _, reqs) = ch.snapshot();
                        total += reqs.len() as u64;
                        ch.retire(seq, 0);
                        last = seq;
                    } else {
                        std::thread::yield_now();
                    }
                }
                total
            })
        };
        for batch in 0..5u64 {
            let seq = ch.publish(ChannelOp::Read, &[batch, batch + 100], |_| 0, 1);
            while !ch.retired(seq) {
                std::thread::yield_now();
            }
        }
        assert_eq!(cpu.join().unwrap(), 10);
    }
}
