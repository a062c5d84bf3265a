//! [`Pipe`] — a FIFO store-and-forward bandwidth resource.
//!
//! A pipe serializes work at a fixed rate: a transfer of `b` bytes completes
//! at `max(now, free_at) + b / rate`. Under sustained load the delivered
//! aggregate throughput is exactly the configured rate, which is the property
//! the paper's throughput figures depend on. Pipes model PCIe links, SSD
//! internal bandwidth, DRAM channel bandwidth, and — with time-based service
//! via [`Sim::pipe_enqueue_work`] — single CPU threads and GPU SMs.

use crate::sim::Sim;
use crate::time::{Dur, Time};

/// Handle to a pipe created with [`Sim::new_pipe`].
#[derive(Clone, Copy, PartialEq, Eq, Debug, Hash)]
pub struct Pipe(pub(crate) usize);

pub(crate) struct PipeState {
    /// Service rate in bytes per nanosecond (= GB/s, numerically).
    rate: f64,
    /// Time at which the pipe finishes everything currently queued.
    free_at: Time,
    /// Total bytes accepted.
    bytes: u64,
}

impl PipeState {
    fn service_dur(&self, bytes: u64) -> Dur {
        Dur::from_ns_f64(bytes as f64 / self.rate)
    }
}

impl<W: 'static> Sim<W> {
    /// Creates a pipe with the given rate in **bytes per nanosecond**
    /// (numerically equal to GB/s). Must be positive and finite.
    pub fn new_pipe(&mut self, rate_gbps: f64) -> Pipe {
        assert!(
            rate_gbps.is_finite() && rate_gbps > 0.0,
            "pipe rate must be positive, got {rate_gbps}"
        );
        self.pipes.push(PipeState {
            rate: rate_gbps,
            free_at: Time::ZERO,
            bytes: 0,
        });
        Pipe(self.pipes.len() - 1)
    }

    /// Enqueues a `bytes`-sized transfer and returns its completion time
    /// without scheduling anything. Useful when the caller wants to chain
    /// stages manually.
    pub fn pipe_enqueue(&mut self, pipe: Pipe, bytes: u64) -> Time {
        let now = self.now();
        let p = &mut self.pipes[pipe.0];
        let service = p.service_dur(bytes);
        let start = p.free_at.max(now);
        p.free_at = start + service;
        p.bytes += bytes;
        p.free_at
    }

    /// Enqueues a transfer expressed as a service *duration* rather than a
    /// byte count (e.g. CPU work on a thread). Returns the completion time.
    pub fn pipe_enqueue_work(&mut self, pipe: Pipe, work: Dur) -> Time {
        let now = self.now();
        let p = &mut self.pipes[pipe.0];
        let start = p.free_at.max(now);
        p.free_at = start + work;
        p.free_at
    }

    /// Enqueues a transfer and schedules `cb` at its completion.
    pub fn pipe_transfer(
        &mut self,
        pipe: Pipe,
        bytes: u64,
        cb: impl FnOnce(&mut Sim<W>, &mut W) + 'static,
    ) -> Time {
        let done = self.pipe_enqueue(pipe, bytes);
        self.schedule_at(done, cb);
        done
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

    #[test]
    #[should_panic(expected = "pipe rate must be positive")]
    fn zero_rate_rejected() {
        let mut sim: Sim<()> = Sim::new();
        sim.new_pipe(0.0);
    }
}
