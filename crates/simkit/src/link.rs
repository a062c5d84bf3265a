//! [`SharedLink`] — a processor-sharing (fluid) bandwidth resource.
//!
//! All active flows share the link's aggregate rate equally. Compared with
//! [`Pipe`](crate::Pipe), a shared link models per-flow latency under
//! contention more faithfully (e.g. concurrent DMA streams on a PCIe switch),
//! at `O(flows)` cost per flow arrival/departure. Use it where flow counts
//! are moderate; use `Pipe` in hot paths.

use crate::sim::{Event, Sim};
use crate::time::{Dur, Time};

/// Handle to a shared link created with [`Sim::new_shared_link`].
#[derive(Clone, Copy, PartialEq, Eq, Debug, Hash)]
pub struct SharedLink(pub(crate) usize);

pub(crate) struct LinkState<W> {
    /// Aggregate rate, bytes per nanosecond.
    rate: f64,
    /// Last time `flows[*].remaining` was brought up to date.
    last: Time,
    /// Invalidates stale completion events after membership changes.
    epoch: u64,
    flows: Vec<Flow<W>>,
    bytes: u64,
}

struct Flow<W> {
    remaining: f64,
    cb: Option<Event<W>>,
}

/// Residual byte count below which a flow counts as finished. Completion
/// times are rounded up to whole nanoseconds, so residuals are tiny negatives
/// or rounding dust.
const EPS_BYTES: f64 = 1e-3;

impl<W: 'static> Sim<W> {
    /// Creates a processor-sharing link with the given aggregate rate in
    /// bytes per nanosecond (numerically GB/s).
    pub fn new_shared_link(&mut self, rate_gbps: f64) -> SharedLink {
        assert!(
            rate_gbps.is_finite() && rate_gbps > 0.0,
            "link rate must be positive, got {rate_gbps}"
        );
        self.links.push(LinkState {
            rate: rate_gbps,
            last: Time::ZERO,
            epoch: 0,
            flows: Vec::new(),
            bytes: 0,
        });
        SharedLink(self.links.len() - 1)
    }

    /// Starts a flow of `bytes` on the link; `cb` runs when the flow's last
    /// byte is delivered. A zero-byte flow completes immediately.
    pub fn link_start_flow(
        &mut self,
        link: SharedLink,
        bytes: u64,
        cb: impl FnOnce(&mut Sim<W>, &mut W) + 'static,
    ) {
        if bytes == 0 {
            self.schedule_in(Dur::ZERO, cb);
            return;
        }
        self.link_advance(link);
        let st = &mut self.links[link.0];
        st.bytes += bytes;
        st.flows.push(Flow {
            remaining: bytes as f64,
            cb: Some(Box::new(cb)),
        });
        self.link_reschedule(link);
    }

    /// Total bytes accepted by the link.
    pub fn link_bytes(&self, link: SharedLink) -> u64 {
        self.links[link.0].bytes
    }

    /// Brings per-flow residuals up to `now` and returns callbacks of flows
    /// that finished in the interim.
    fn link_advance(&mut self, link: SharedLink) -> Vec<Event<W>> {
        let now = self.now();
        let st = &mut self.links[link.0];
        let elapsed = (now - st.last).as_ns() as f64;
        st.last = now;
        let n = st.flows.len();
        let mut done = Vec::new();
        if n > 0 && elapsed > 0.0 {
            let per_flow = elapsed * st.rate / n as f64;
            for f in &mut st.flows {
                f.remaining -= per_flow;
            }
        }
        let mut i = 0;
        while i < st.flows.len() {
            if st.flows[i].remaining <= EPS_BYTES {
                let mut f = st.flows.swap_remove(i);
                if let Some(cb) = f.cb.take() {
                    done.push(cb);
                }
            } else {
                i += 1;
            }
        }
        done
    }

    /// Schedules the next flow-completion tick; invalidates prior ticks.
    fn link_reschedule(&mut self, link: SharedLink) {
        let now = self.now();
        let st = &mut self.links[link.0];
        st.epoch += 1;
        let epoch = st.epoch;
        let n = st.flows.len();
        if n == 0 {
            return;
        }
        let min_rem = st
            .flows
            .iter()
            .map(|f| f.remaining)
            .fold(f64::INFINITY, f64::min);
        // Round *up* so the earliest flow has definitely drained by the tick,
        // guaranteeing forward progress.
        let delay = Dur::ns((min_rem * n as f64 / st.rate).ceil().max(1.0) as u64);
        self.schedule_at(now + delay, move |sim, w| sim.link_tick(w, link, epoch));
    }

    fn link_tick(&mut self, world: &mut W, link: SharedLink, epoch: u64) {
        if self.links[link.0].epoch != epoch {
            return; // superseded by a membership change
        }
        let done = self.link_advance(link);
        self.link_reschedule(link);
        for cb in done {
            cb(self, world);
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn lone_flow_gets_full_rate() {
        let mut sim: Sim<u64> = Sim::new();
        let mut w = 0;
        let l = sim.new_shared_link(2.0);
        sim.link_start_flow(l, 2000, |sim, w: &mut u64| *w = sim.now().as_ns());
        sim.run(&mut w);
        assert_eq!(w, 1000);
    }

    #[test]
    fn two_equal_flows_share_fairly() {
        let mut sim: Sim<Vec<u64>> = Sim::new();
        let mut w = Vec::new();
        let l = sim.new_shared_link(1.0);
        for _ in 0..2 {
            sim.link_start_flow(l, 1000, |sim, w: &mut Vec<u64>| w.push(sim.now().as_ns()));
        }
        sim.run(&mut w);
        // Each flow sees rate/2, so both finish at 2000 ns.
        assert_eq!(w, vec![2000, 2000]);
    }

    #[test]
    fn late_arrival_slows_the_first_flow() {
        // Flow A: 3000 B from t=0. Flow B: 1000 B from t=1000.
        // 0..1000: A alone, drains 1000. 1000..3000: fair share 0.5 B/ns each;
        // both have 2000 and 1000 left → B done at 3000, A at 3000 + 1000 = 4000.
        let mut sim: Sim<Vec<(char, u64)>> = Sim::new();
        let mut w = Vec::new();
        let l = sim.new_shared_link(1.0);
        sim.link_start_flow(l, 3000, |sim, w: &mut Vec<(char, u64)>| {
            w.push(('a', sim.now().as_ns()))
        });
        sim.schedule_in(Dur::ns(1000), move |sim, _| {
            sim.link_start_flow(l, 1000, |sim, w: &mut Vec<(char, u64)>| {
                w.push(('b', sim.now().as_ns()))
            });
        });
        sim.run(&mut w);
        assert_eq!(w, vec![('b', 3000), ('a', 4000)]);
    }

    #[test]
    fn zero_byte_flow_completes_now() {
        let mut sim: Sim<u64> = Sim::new();
        let mut w = 99;
        let l = sim.new_shared_link(1.0);
        sim.link_start_flow(l, 0, |sim, w: &mut u64| *w = sim.now().as_ns());
        sim.run(&mut w);
        assert_eq!(w, 0);
    }

    #[test]
    fn aggregate_throughput_matches_rate_under_load() {
        let mut sim: Sim<u32> = Sim::new();
        let mut w = 0;
        let l = sim.new_shared_link(4.0);
        for _ in 0..64 {
            sim.link_start_flow(l, 4096, |_, w: &mut u32| *w += 1);
        }
        sim.run(&mut w);
        assert_eq!(w, 64);
        let expect_ns = 64.0 * 4096.0 / 4.0;
        let got = sim.now().as_ns() as f64;
        assert!(
            (got - expect_ns).abs() / expect_ns < 0.01,
            "got {got}, want ~{expect_ns}"
        );
    }

    #[test]
    fn completion_callback_can_start_new_flow() {
        let mut sim: Sim<Vec<u64>> = Sim::new();
        let mut w = Vec::new();
        let l = sim.new_shared_link(1.0);
        sim.link_start_flow(l, 100, move |sim, w: &mut Vec<u64>| {
            w.push(sim.now().as_ns());
            sim.link_start_flow(l, 100, |sim, w: &mut Vec<u64>| w.push(sim.now().as_ns()));
        });
        sim.run(&mut w);
        assert_eq!(w, vec![100, 200]);
    }
}
