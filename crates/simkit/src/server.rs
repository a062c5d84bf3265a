//! [`Server`] — a k-server FIFO queueing station.
//!
//! Jobs carry an explicit service duration; up to `capacity` jobs are in
//! service simultaneously and the rest wait in FIFO order. This models an
//! SSD controller's internal command parallelism (Fig. 8's
//! throughput-vs-queue-depth behaviour falls out of `capacity × latency`).

use std::collections::VecDeque;

use crate::sim::{Boxed, Fire, Held, Pending, Sim};
use crate::time::Dur;

/// Handle to a server created with [`Sim::new_server`].
#[derive(Clone, Copy, PartialEq, Eq, Debug, Hash)]
pub struct Server(pub(crate) usize);

pub(crate) struct ServerState<E> {
    capacity: usize,
    in_service: usize,
    queue: VecDeque<(Dur, E)>,
    completed: u64,
}

/// The jobs in service across all servers. A job's completion entry on the
/// heap names its slot here, so the event given at submission is all the
/// job holds, whether or not it queued first.
pub(crate) struct InService<E> {
    slots: Vec<Option<(Server, E)>>,
    free: Vec<u32>,
}

impl<E> Default for InService<E> {
    fn default() -> Self {
        InService {
            slots: Vec::new(),
            free: Vec::new(),
        }
    }
}

/// Closure twin of the typed server call.
impl<W: 'static> Sim<W> {
    /// Submits a job that needs `service` time; `cb` runs at its
    /// completion; [`post_serve`](Self::post_serve).
    pub fn server_submit(
        &mut self,
        server: Server,
        service: Dur,
        cb: impl FnOnce(&mut Sim<W>, &mut W) + 'static,
    ) {
        self.post_serve(server, service, Boxed::new(cb));
    }
}

impl<W, E: Fire<W>> Sim<W, E> {
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

    /// Submits a job that needs `service` time; `ev` fires at its
    /// completion.
    pub fn post_serve(&mut self, server: Server, service: Dur, ev: E) {
        let st = &mut self.servers[server.0];
        if st.in_service < st.capacity {
            self.server_start(server, service, ev);
        } else {
            st.queue.push_back((service, ev));
        }
    }

    /// Total jobs completed.
    pub fn server_completed(&self, server: Server) -> u64 {
        self.servers[server.0].completed
    }

    /// Puts a job in service: its event waits in a slot, its completion
    /// goes on the calendar.
    fn server_start(&mut self, server: Server, service: Dur, ev: E) {
        self.servers[server.0].in_service += 1;
        let job = Some((server, ev));
        let slot = match self.in_service.free.pop() {
            Some(slot) => {
                self.in_service.slots[slot as usize] = job;
                slot
            }
            None => {
                let slot = u32::try_from(self.in_service.slots.len());
                self.in_service.slots.push(job);
                slot.expect("a completion entry names its slot in 32 bits")
            }
        };
        let done = self.now() + service;
        self.push(done, Pending::Held(Held::ServerJob(slot)));
    }

    /// The job in `slot` left service: the freed capacity goes to the
    /// server's longest-waiting job, and the finished job's event is
    /// returned to fire next.
    pub(crate) fn server_finish(&mut self, slot: u32) -> E {
        let (server, ev) = self.in_service.slots[slot as usize]
            .take()
            .expect("a completion entry names an occupied slot");
        self.in_service.free.push(slot);
        let st = &mut self.servers[server.0];
        st.in_service -= 1;
        st.completed += 1;
        if let Some((service, next)) = st.queue.pop_front() {
            self.server_start(server, service, next);
        }
        ev
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
