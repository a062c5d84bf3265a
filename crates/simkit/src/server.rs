//! [`Server`] — a k-server FIFO queueing station.
//!
//! Jobs carry an explicit service duration; up to `capacity` jobs are in
//! service simultaneously and the rest wait in FIFO order. This models an
//! SSD controller's internal command parallelism (Fig. 8's
//! throughput-vs-queue-depth behaviour falls out of `capacity × latency`).

use std::collections::VecDeque;

use crate::sim::{Event, Sim};
use crate::time::Dur;

/// Handle to a server created with [`Sim::new_server`].
#[derive(Clone, Copy, PartialEq, Eq, Debug, Hash)]
pub struct Server(pub(crate) usize);

pub(crate) struct ServerState<W> {
    capacity: usize,
    in_service: usize,
    queue: VecDeque<(Dur, Event<W>)>,
    completed: u64,
}

impl<W: 'static> Sim<W> {
    /// Creates a station with `capacity` parallel servers (must be ≥ 1).
    pub fn new_server(&mut self, capacity: usize) -> Server {
        assert!(capacity >= 1, "server capacity must be >= 1");
        self.servers.push(ServerState {
            capacity,
            in_service: 0,
            queue: VecDeque::new(),
            completed: 0,
        });
        Server(self.servers.len() - 1)
    }

    /// Submits a job that needs `service` time; `cb` runs at its completion.
    pub fn server_submit(
        &mut self,
        server: Server,
        service: Dur,
        cb: impl FnOnce(&mut Sim<W>, &mut W) + 'static,
    ) {
        let st = &mut self.servers[server.0];
        if st.in_service < st.capacity {
            self.server_start(server, service, Box::new(cb));
        } else {
            st.queue.push_back((service, Box::new(cb)));
        }
    }

    /// Total jobs completed.
    pub fn server_completed(&self, server: Server) -> u64 {
        self.servers[server.0].completed
    }

    fn server_start(&mut self, server: Server, service: Dur, cb: Event<W>) {
        self.servers[server.0].in_service += 1;
        self.schedule_in(service, move |sim, w| {
            let st = &mut sim.servers[server.0];
            st.in_service -= 1;
            st.completed += 1;
            if let Some((next_service, next_cb)) = st.queue.pop_front() {
                sim.server_start(server, next_service, next_cb);
            }
            cb(sim, w);
        });
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn single_server_serializes() {
        let mut sim: Sim<Vec<u64>> = Sim::new();
        let mut w = Vec::new();
        let s = sim.new_server(1);
        for _ in 0..3 {
            sim.server_submit(s, Dur::ns(10), |sim, w: &mut Vec<u64>| {
                w.push(sim.now().as_ns())
            });
        }
        sim.run(&mut w);
        assert_eq!(w, vec![10, 20, 30]);
        assert_eq!(sim.server_completed(s), 3);
    }

    #[test]
    fn parallel_capacity_overlaps() {
        let mut sim: Sim<Vec<u64>> = Sim::new();
        let mut w = Vec::new();
        let s = sim.new_server(4);
        for _ in 0..8 {
            sim.server_submit(s, Dur::ns(10), |sim, w: &mut Vec<u64>| {
                w.push(sim.now().as_ns())
            });
        }
        sim.run(&mut w);
        assert_eq!(w, vec![10, 10, 10, 10, 20, 20, 20, 20]);
    }

    #[test]
    fn throughput_is_capacity_over_latency() {
        // capacity 32, 10 us service → 3.2 jobs/us steady state.
        let mut sim: Sim<u32> = Sim::new();
        let mut w = 0;
        let s = sim.new_server(32);
        for _ in 0..3200 {
            sim.server_submit(s, Dur::us(10), |_, w: &mut u32| *w += 1);
        }
        sim.run(&mut w);
        assert_eq!(w, 3200);
        // 3200 jobs / (capacity 32 / 10us) = 1000 us total.
        assert_eq!(sim.now().as_ns(), 1_000_000);
    }
}
