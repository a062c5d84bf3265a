//! [`DesSsd`] — the discrete-event timing model of one NVMe SSD.
//!
//! The model has three parameters groups, all taken from the paper and the
//! P5510 datasheet it cites:
//!
//! * **command latency** — 15 µs random read, 82 µs random write (§ II-B,
//!   Issue 3 cites these for the P5510);
//! * **internal parallelism** — a bounded number of concurrently serviced
//!   commands per direction (flash channels / FTL queue); by Little's law
//!   this, together with latency, fixes the peak 4 KiB IOPS (~1.75 GB/s
//!   read, ~0.7 GB/s write per SSD — the per-SSD rates behind the paper's
//!   21 GB/s ceiling with 12 SSDs);
//! * **per-byte costs** — flash-channel transfer time (why throughput grows
//!   with access size: "more data are retrieved ... using a single SQE,
//!   [which] has a lower overhead in the flash translation layer", § IV-B)
//!   and a PCIe Gen4 ×4 device link that caps large-transfer throughput.
//!
//! A command's life: acquire a channel slot → `latency + bytes/channel_bw`
//! of service ([`DesSsd::serve`]) → DMA over the device link
//! ([`DesSsd::dma`]) → completion event. [`DesSsd::submit`] chains both
//! stages for a closure calendar; a model with its own event type fires one
//! event per stage. Host-side fabric contention (the shared ×16 root
//! complex) is layered on by callers.

use cam_simkit::{Boxed, Dur, Fire, Pipe, Server, Sim};

use crate::spec::Opcode;

/// Timing parameters of one SSD.
#[derive(Clone, Copy, Debug)]
pub struct SsdModel {
    /// Base random-read command latency.
    pub read_latency: Dur,
    /// Base random-write command latency.
    pub write_latency: Dur,
    /// Concurrent read commands the controller services.
    pub read_channels: usize,
    /// Concurrent write commands the controller services.
    pub write_channels: usize,
    /// Per-channel flash read bandwidth, GB/s.
    pub channel_read_gbps: f64,
    /// Per-channel flash write bandwidth, GB/s.
    pub channel_write_gbps: f64,
    /// Device PCIe link bandwidth (Gen4 ×4 minus protocol overhead), GB/s.
    pub link_gbps: f64,
}

impl SsdModel {
    /// The Intel/Solidigm D7-P5510 3.84 TB, as configured in the paper.
    ///
    /// Calibration (Little's law, `channels / (latency + 4096/channel_bw)`):
    /// 4 KiB random read ≈ 427 K IOPS ≈ 1.75 GB/s, 4 KiB random write
    /// ≈ 166 K IOPS ≈ 0.68 GB/s — ×12 SSDs ≈ 21 / 8 GB/s aggregate, matching
    /// Fig. 8's measured ceiling and read/write asymmetry.
    pub fn p5510() -> Self {
        SsdModel {
            read_latency: Dur::us(15),
            write_latency: Dur::us(82),
            read_channels: 8,
            write_channels: 16,
            channel_read_gbps: 1.1,
            channel_write_gbps: 0.28,
            link_gbps: 6.6,
        }
    }

    /// Peak 4 KiB IOPS in the given direction (analytic, for assertions).
    pub fn peak_iops_4k(&self, op: Opcode) -> f64 {
        let (lat, ch, bw) = match op {
            Opcode::Write => (
                self.write_latency,
                self.write_channels,
                self.channel_write_gbps,
            ),
            _ => (
                self.read_latency,
                self.read_channels,
                self.channel_read_gbps,
            ),
        };
        let service_ns = lat.as_ns() as f64 + 4096.0 / bw;
        ch as f64 / service_ns * 1e9
    }
}

/// One SSD instantiated on a simulation's event calendar.
#[derive(Clone, Copy)]
pub struct DesSsd {
    model: SsdModel,
    read_srv: Server,
    write_srv: Server,
    link: Pipe,
}

impl DesSsd {
    /// Creates the SSD's resources on `sim`.
    pub fn new<W, E: Fire<W>>(sim: &mut Sim<W, E>, model: SsdModel) -> Self {
        DesSsd {
            model,
            read_srv: sim.new_server(model.read_channels),
            write_srv: sim.new_server(model.write_channels),
            link: sim.new_pipe(model.link_gbps),
        }
    }

    /// The model parameters.
    pub fn model(&self) -> &SsdModel {
        &self.model
    }

    /// Submits a command of `bytes` (must be > 0 for reads/writes);
    /// `cb` fires when the data has crossed the device link.
    pub fn submit<W: 'static>(
        &self,
        sim: &mut Sim<W>,
        op: Opcode,
        bytes: u64,
        cb: impl FnOnce(&mut Sim<W>, &mut W) + 'static,
    ) {
        let ssd = *self;
        let stage2 = move |sim: &mut Sim<W>, w: &mut W| match bytes {
            0 => cb(sim, w),
            _ => ssd.dma(sim, bytes, Boxed::new(cb)),
        };
        self.serve(sim, op, bytes, Boxed::new(stage2));
    }

    /// A command's first stage: `bytes` of flash service behind the
    /// controller's channel parallelism; `ev` fires when it leaves
    /// service. A typed model then moves the data with [`dma`](Self::dma).
    pub fn serve<W, E: Fire<W>>(&self, sim: &mut Sim<W, E>, op: Opcode, bytes: u64, ev: E) {
        let (srv, lat, ch_bw) = match op {
            Opcode::Write => (
                self.write_srv,
                self.model.write_latency,
                self.model.channel_write_gbps,
            ),
            Opcode::Read => (
                self.read_srv,
                self.model.read_latency,
                self.model.channel_read_gbps,
            ),
            Opcode::Flush => {
                // A barrier: schedule behind current in-service work with a
                // token service time.
                (self.write_srv, Dur::us(1), self.model.channel_write_gbps)
            }
        };
        let service = lat + Dur::from_ns_f64(bytes as f64 / ch_bw);
        sim.post_serve(srv, service, ev);
    }

    /// A command's second stage: its `bytes` cross the device link; `ev`
    /// fires when they have.
    pub fn dma<W, E: Fire<W>>(&self, sim: &mut Sim<W, E>, bytes: u64, ev: E) {
        sim.post_transfer(self.link, bytes, ev);
    }

    /// Bytes moved over the device link so far.
    pub fn link_bytes<W, E: Fire<W>>(&self, sim: &Sim<W, E>) -> u64 {
        sim.pipe_bytes(self.link)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use cam_simkit::Time;

    fn run_closed_loop(model: SsdModel, op: Opcode, bytes: u64, total: u32) -> (f64, f64) {
        // Closed-loop load generator with a deep queue: submit all commands
        // up front; the server capacity throttles concurrency like a QD-1024
        // ring would.
        let mut sim: Sim<u32> = Sim::new();
        let ssd = DesSsd::new(&mut sim, model);
        let mut done = 0u32;
        for _ in 0..total {
            ssd.submit(&mut sim, op, bytes, |_, done: &mut u32| *done += 1);
        }
        let end: Time = sim.run(&mut done);
        assert_eq!(done, total);
        let secs = end.as_secs_f64();
        let iops = total as f64 / secs;
        let gbps = total as f64 * bytes as f64 / end.as_ns() as f64;
        (iops, gbps)
    }

    #[test]
    fn p5510_4k_random_read_rate() {
        let m = SsdModel::p5510();
        let (iops, gbps) = run_closed_loop(m, Opcode::Read, 4096, 20_000);
        let expect = m.peak_iops_4k(Opcode::Read);
        assert!(
            (iops - expect).abs() / expect < 0.02,
            "iops {iops} vs analytic {expect}"
        );
        // ~1.75 GB/s per SSD.
        assert!((1.6..1.9).contains(&gbps), "gbps = {gbps}");
    }

    #[test]
    fn p5510_4k_random_write_rate() {
        let m = SsdModel::p5510();
        let (iops, gbps) = run_closed_loop(m, Opcode::Write, 4096, 10_000);
        let expect = m.peak_iops_4k(Opcode::Write);
        assert!(
            (iops - expect).abs() / expect < 0.02,
            "iops {iops} vs analytic {expect}"
        );
        // Writes are several times slower than reads (Fig. 8's asymmetry).
        assert!((0.6..0.8).contains(&gbps), "gbps = {gbps}");
    }

    #[test]
    fn throughput_grows_with_access_size_then_hits_link() {
        let m = SsdModel::p5510();
        let mut last = 0.0;
        let mut at_cap = 0;
        for shift in 9..=17 {
            // 512 B .. 128 KiB
            let (_, gbps) = run_closed_loop(m, Opcode::Read, 1u64 << shift, 4_000);
            assert!(
                gbps + 1e-6 >= last,
                "throughput decreased at {} B: {gbps} < {last}",
                1u64 << shift
            );
            if gbps > m.link_gbps * 0.95 {
                at_cap += 1;
            }
            last = gbps;
        }
        assert!(at_cap >= 1, "large transfers never approached the link cap");
        assert!(last <= m.link_gbps + 1e-6);
    }

    #[test]
    fn single_command_latency_is_base_plus_transfer() {
        let mut sim: Sim<u64> = Sim::new();
        let ssd = DesSsd::new(&mut sim, SsdModel::p5510());
        let mut finish = 0u64;
        ssd.submit(&mut sim, Opcode::Read, 4096, |sim, w: &mut u64| {
            *w = sim.now().as_ns()
        });
        sim.run(&mut finish);
        // 15 us + 4096/1.1 + 4096/6.6 ns ≈ 19.3 us.
        let expect = 15_000.0 + 4096.0 / 1.1 + 4096.0 / 6.6;
        assert!(
            (finish as f64 - expect).abs() < 10.0,
            "latency {finish} vs {expect}"
        );
    }

    #[test]
    fn flush_acts_as_barrier_token() {
        let mut sim: Sim<Vec<&'static str>> = Sim::new();
        let ssd = DesSsd::new(&mut sim, SsdModel::p5510());
        let mut order = Vec::new();
        ssd.submit(&mut sim, Opcode::Write, 4096, |_, w: &mut Vec<&str>| {
            w.push("write")
        });
        ssd.submit(&mut sim, Opcode::Flush, 0, |_, w: &mut Vec<&str>| {
            w.push("flush")
        });
        sim.run(&mut order);
        assert_eq!(order, vec!["flush", "write"]); // flush is short but doesn't block channels
        assert_eq!(ssd.link_bytes(&sim), 4096);
    }
}
