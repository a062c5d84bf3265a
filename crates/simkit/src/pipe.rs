//! [`Pipe`] — a FIFO store-and-forward bandwidth resource.
//!
//! A pipe serializes work at a fixed rate: a transfer of `b` bytes completes
//! at `max(now, free_at) + b / rate`. Under sustained load the delivered
//! aggregate throughput is exactly the configured rate, which is the property
//! the paper's throughput figures depend on. Pipes model PCIe links, SSD
//! internal bandwidth, DRAM channel bandwidth, and — with time-based service
//! via [`Sim::pipe_work`] — single CPU threads and GPU SMs.
//!
//! Because a pipe is FIFO, its completion times never decrease, so the
//! completions it has scheduled are already in calendar order. Each pipe
//! keeps them in a queue of its own — its *lane* — and the calendar's heap
//! holds only the lane's head (the [crate docs](crate)' ordering contract):
//! scheduling on a pipe is O(1), and the execution order is exactly what
//! [`Sim::schedule_at`] at the completion time would have produced.

use std::collections::binary_heap::PeekMut;
use std::collections::VecDeque;

use crate::sim::{key, Boxed, Entry, Fire, Held, Pending, Sim};
use crate::time::{Dur, Time};

/// Handle to a pipe created with [`Sim::new_pipe`].
#[derive(Clone, Copy, PartialEq, Eq, Debug, Hash)]
pub struct Pipe(pub(crate) usize);

pub(crate) struct PipeState<E> {
    /// Service rate in bytes per nanosecond (= GB/s, numerically).
    rate: f64,
    /// Time at which the pipe finishes everything currently queued.
    free_at: Time,
    /// Total bytes accepted.
    bytes: u64,
    /// Scheduled completions not yet run, ascending in `(time, seq)`.
    pub(crate) lane: VecDeque<LaneEntry<E>>,
}

/// One scheduled completion waiting in a pipe's lane.
pub(crate) struct LaneEntry<E> {
    pub(crate) key: u128,
    pub(crate) ev: E,
}

impl<E> PipeState<E> {
    fn service_dur(&self, bytes: u64) -> Dur {
        Dur::from_ns_f64(bytes as f64 / self.rate)
    }
}

/// Closure twins of the typed pipe calls.
impl<W: 'static> Sim<W> {
    /// Enqueues a transfer and schedules `cb` at its completion;
    /// [`post_transfer`](Self::post_transfer).
    pub fn pipe_transfer(
        &mut self,
        pipe: Pipe,
        bytes: u64,
        cb: impl FnOnce(&mut Sim<W>, &mut W) + 'static,
    ) -> Time {
        self.post_transfer(pipe, bytes, Boxed::new(cb))
    }

    /// Enqueues `work` of service time and schedules `cb` at its
    /// completion; [`post_work`](Self::post_work).
    pub fn pipe_work(
        &mut self,
        pipe: Pipe,
        work: Dur,
        cb: impl FnOnce(&mut Sim<W>, &mut W) + 'static,
    ) -> Time {
        self.post_work(pipe, work, Boxed::new(cb))
    }
}

impl<W, E: Fire<W>> Sim<W, E> {
    /// Creates a pipe with the given rate in **bytes per nanosecond**
    /// (numerically equal to GB/s). Must be positive and finite.
    pub fn new_pipe(&mut self, rate_gbps: f64) -> Pipe {
        assert!(
            rate_gbps.is_finite() && rate_gbps > 0.0,
            "pipe rate must be positive, got {rate_gbps}"
        );
        assert!(
            u32::try_from(self.pipes.len()).is_ok(),
            "a lane head names its pipe in 32 bits"
        );
        self.pipes.push(PipeState {
            rate: rate_gbps,
            free_at: Time::ZERO,
            bytes: 0,
            lane: VecDeque::new(),
        });
        Pipe(self.pipes.len() - 1)
    }

    /// Occupies the pipe with a `bytes`-sized transfer and returns its
    /// completion time.
    fn pipe_enqueue(&mut self, pipe: Pipe, bytes: u64) -> Time {
        let now = self.now();
        let p = &mut self.pipes[pipe.0];
        let service = p.service_dur(bytes);
        let start = p.free_at.max(now);
        p.free_at = start + service;
        p.bytes += bytes;
        p.free_at
    }

    /// Enqueues a transfer expressed as a service *duration* rather than a
    /// byte count (e.g. CPU work on a thread) and returns its completion
    /// time without scheduling anything: occupancy only. To fire an event
    /// at the completion use [`post_work`](Self::post_work).
    pub fn pipe_enqueue_work(&mut self, pipe: Pipe, work: Dur) -> Time {
        let now = self.now();
        let p = &mut self.pipes[pipe.0];
        let start = p.free_at.max(now);
        p.free_at = start + work;
        p.free_at
    }

    /// Enqueues a transfer of `bytes` and schedules `ev` at its completion,
    /// which it returns.
    pub fn post_transfer(&mut self, pipe: Pipe, bytes: u64, ev: E) -> Time {
        let done = self.pipe_enqueue(pipe, bytes);
        self.lane_push(pipe, done, ev);
        done
    }

    /// Enqueues `work` of service time (the duration twin of
    /// [`post_transfer`](Self::post_transfer)) and schedules `ev` at its
    /// completion, which it returns.
    pub fn post_work(&mut self, pipe: Pipe, work: Dur, ev: E) -> Time {
        let done = self.pipe_enqueue_work(pipe, work);
        self.lane_push(pipe, done, ev);
        done
    }

    /// Schedules `ev` at `time`, the completion the pipe just computed, by
    /// appending it to the pipe's lane; an empty lane's new head also goes
    /// on the heap. The lane must stay ascending: that is checked here, not
    /// assumed, and a completion that would break it goes on the heap as a
    /// general event, where the global order holds regardless.
    fn lane_push(&mut self, pipe: Pipe, time: Time, ev: E) {
        let key = key(time, self.next_seq());
        let lane = &mut self.pipes[pipe.0].lane;
        let ascending = lane.back().is_none_or(|tail| tail.key <= key);
        debug_assert!(
            ascending,
            "pipe completion at {time:?} precedes the lane tail"
        );
        if !ascending {
            let what = Pending::Call(ev);
            self.heap.push(Entry { key, what });
            return;
        }
        if lane.is_empty() {
            let what = Pending::Held(Held::LaneHead(pipe.0 as u32));
            self.heap.push(Entry { key, what });
        }
        lane.push_back(LaneEntry { key, ev });
    }

    /// Takes the completion at the head of `pipe`'s lane, which is the top
    /// of the heap. The lane's next completion takes over the heap entry in
    /// place (one sift, no pop + push) before the event can append to the
    /// lane.
    pub(crate) fn lane_pop(&mut self, pipe: u32) -> E {
        let mut top = self.heap.peek_mut().expect("a lane head is on the heap");
        let lane = &mut self.pipes[pipe as usize].lane;
        let done = lane.pop_front().expect("a lane head has a lane entry");
        debug_assert_eq!(done.key, top.key);
        match lane.front() {
            Some(next) => top.key = next.key,
            None => {
                PeekMut::pop(top);
            }
        }
        done.ev
    }

    /// Total bytes accepted by the pipe.
    pub fn pipe_bytes(&self, pipe: Pipe) -> u64 {
        self.pipes[pipe.0].bytes
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn single_transfer_takes_bytes_over_rate() {
        let mut sim: Sim<u64> = Sim::new();
        let mut w = 0;
        let p = sim.new_pipe(2.0); // 2 B/ns
        sim.pipe_transfer(p, 1000, |sim, w: &mut u64| *w = sim.now().as_ns());
        sim.run(&mut w);
        assert_eq!(w, 500);
    }

    #[test]
    fn back_to_back_transfers_serialize() {
        let mut sim: Sim<Vec<u64>> = Sim::new();
        let mut w = Vec::new();
        let p = sim.new_pipe(1.0);
        for _ in 0..4 {
            sim.pipe_transfer(p, 100, |sim, w: &mut Vec<u64>| w.push(sim.now().as_ns()));
        }
        sim.run(&mut w);
        assert_eq!(w, vec![100, 200, 300, 400]);
        assert_eq!(sim.pipe_bytes(p), 400);
    }

    #[test]
    fn sustained_load_delivers_configured_rate() {
        // 1000 x 4KiB at 4 B/ns must take exactly 1,024,000 ns.
        let mut sim: Sim<u64> = Sim::new();
        let mut w = 0;
        let p = sim.new_pipe(4.0);
        for _ in 0..1000 {
            sim.pipe_transfer(p, 4096, |sim, w: &mut u64| *w = sim.now().as_ns());
        }
        sim.run(&mut w);
        assert_eq!(w, 1000 * 4096 / 4);
        let gbps = sim.pipe_bytes(p) as f64 / sim.now().as_ns() as f64;
        assert!((gbps - 4.0).abs() < 1e-9);
    }

    #[test]
    fn an_idle_pipe_starts_work_at_arrival() {
        let mut sim: Sim<()> = Sim::new();
        let p = sim.new_pipe(1.0);
        sim.schedule_in(Dur::ns(1000), move |sim, _| {
            sim.pipe_transfer(p, 100, |_, _| {});
        });
        sim.run(&mut ());
        assert_eq!(sim.now().as_ns(), 1100);
    }

    #[test]
    fn work_based_service() {
        let mut sim: Sim<()> = Sim::new();
        let core = sim.new_pipe(1.0);
        assert_eq!(sim.pipe_enqueue_work(core, Dur::us(5)).as_ns(), 5000);
        assert_eq!(sim.pipe_enqueue_work(core, Dur::us(1)).as_ns(), 6000);
    }

    /// No pipe operation completes out of order, so the checked branch of
    /// `lane_push` is driven directly: optimised builds fall back to the
    /// general heap and keep the global order, debug builds refuse.
    #[test]
    #[cfg_attr(debug_assertions, should_panic(expected = "precedes the lane tail"))]
    fn an_out_of_order_completion_never_misorders_the_lane() {
        let mut sim: Sim<Vec<u32>> = Sim::new();
        let mut w = Vec::new();
        let p = sim.new_pipe(1.0);
        sim.pipe_transfer(p, 300, |_, w: &mut Vec<u32>| w.push(300));
        sim.lane_push(
            p,
            Time::from_ns(100),
            Boxed::new(|_, w: &mut Vec<u32>| w.push(100)),
        );
        sim.pipe_transfer(p, 100, |_, w: &mut Vec<u32>| w.push(400));
        sim.run(&mut w);
        assert_eq!(w, vec![100, 300, 400]);
        assert_eq!(sim.executed_events(), 3);
    }

    #[test]
    #[should_panic(expected = "pipe rate must be positive")]
    fn zero_rate_rejected() {
        let mut sim: Sim<()> = Sim::new();
        sim.new_pipe(0.0);
    }
}
