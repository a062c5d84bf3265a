//! Property-based tests for the simulation kernel's invariants.

use cam_simkit::stats::Histogram;
use cam_simkit::{Dur, Sim, Time};
use proptest::prelude::*;

proptest! {
    /// Events always execute in nondecreasing time order, regardless of the
    /// order they were scheduled in.
    #[test]
    fn events_monotone(delays in proptest::collection::vec(0u64..1_000_000, 1..200)) {
        let mut sim: Sim<Vec<u64>> = Sim::new();
        let mut w = Vec::new();
        for d in &delays {
            sim.schedule_in(Dur::ns(*d), |sim, w: &mut Vec<u64>| w.push(sim.now().as_ns()));
        }
        sim.run(&mut w);
        prop_assert_eq!(w.len(), delays.len());
        for pair in w.windows(2) {
            prop_assert!(pair[0] <= pair[1]);
        }
        let mut sorted = delays.clone();
        sorted.sort_unstable();
        prop_assert_eq!(w, sorted);
    }

    /// A pipe conserves work: total completion span equals total service
    /// time when saturated from t=0, and per-transfer completions are FIFO.
    #[test]
    fn pipe_conservation(sizes in proptest::collection::vec(1u64..1_000_000, 1..100),
                         rate in 1u32..64) {
        let mut sim: Sim<Vec<u64>> = Sim::new();
        let mut w = Vec::new();
        let p = sim.new_pipe(rate as f64);
        for s in &sizes {
            sim.pipe_transfer(p, *s, |sim, w: &mut Vec<u64>| w.push(sim.now().as_ns()));
        }
        sim.run(&mut w);
        // FIFO order.
        for pair in w.windows(2) {
            prop_assert!(pair[0] <= pair[1]);
        }
        // Total time ~ sum(size)/rate within per-transfer rounding (1 ns each).
        let ideal: f64 = sizes.iter().map(|&s| s as f64 / rate as f64).sum();
        let got = *w.last().unwrap() as f64;
        prop_assert!((got - ideal).abs() <= sizes.len() as f64 + 1.0,
            "got {} want {}", got, ideal);
        prop_assert_eq!(sim.pipe_bytes(p), sizes.iter().sum::<u64>());
    }

    /// Server stations complete every job, and a capacity-1 station takes
    /// exactly the sum of service times.
    #[test]
    fn server_completes_all(services in proptest::collection::vec(1u64..10_000, 1..100),
                            cap in 1usize..8) {
        let mut sim: Sim<u32> = Sim::new();
        let mut w = 0u32;
        let s = sim.new_server(cap);
        for d in &services {
            sim.server_submit(s, Dur::ns(*d), |_, w: &mut u32| *w += 1);
        }
        sim.run(&mut w);
        prop_assert_eq!(w as usize, services.len());
        prop_assert_eq!(sim.server_completed(s), services.len() as u64);
        if cap == 1 {
            prop_assert_eq!(sim.now().as_ns(), services.iter().sum::<u64>());
        } else {
            // Work conservation lower bound.
            let bound = services.iter().sum::<u64>() / cap as u64;
            prop_assert!(sim.now().as_ns() >= bound.saturating_sub(1));
        }
    }

    /// Histogram quantiles are monotone and bounded by min/max, and count
    /// matches the number of records.
    #[test]
    fn histogram_invariants(values in proptest::collection::vec(0u64..u32::MAX as u64, 1..500)) {
        let mut h = Histogram::new();
        for v in &values {
            h.record(*v);
        }
        prop_assert_eq!(h.count(), values.len() as u64);
        prop_assert_eq!(h.min(), *values.iter().min().unwrap());
        prop_assert_eq!(h.max(), *values.iter().max().unwrap());
        let qs: Vec<u64> = [0.0, 0.25, 0.5, 0.75, 0.99, 1.0]
            .iter()
            .map(|&q| h.quantile(q))
            .collect();
        for pair in qs.windows(2) {
            prop_assert!(pair[0] <= pair[1], "quantiles not monotone: {:?}", qs);
        }
        prop_assert!(qs[0] >= h.min() && qs[5] <= h.max());
    }

    /// `run_until` never advances past its deadline and preserves all later
    /// events for subsequent runs.
    #[test]
    fn run_until_boundary(delays in proptest::collection::vec(1u64..1000, 1..50),
                          cut in 1u64..1000) {
        let mut sim: Sim<u32> = Sim::new();
        let mut w = 0u32;
        for d in &delays {
            sim.schedule_in(Dur::ns(*d), |_, w: &mut u32| *w += 1);
        }
        sim.run_until(&mut w, Time::from_ns(cut));
        let before = delays.iter().filter(|&&d| d <= cut).count() as u32;
        prop_assert_eq!(w, before);
        prop_assert_eq!(sim.now().as_ns(), cut);
        sim.run(&mut w);
        prop_assert_eq!(w as usize, delays.len());
    }
}

// ---------------------------------------------------------------------------
// Differential ordering: `Sim` against a model that sorts `(time, seq)`.
//
// The contract (`sim.rs` module docs): every scheduling call draws the next
// insertion sequence number — `post_at`/`post_in`, a pipe completion, a
// server job *entering service* — and events fire in ascending
// `(time, sequence)` order, whatever their type. The model below is that
// sentence and nothing else: one `Vec` of pending entries, the minimum found
// by sorting. Random programs run on it, on the closure calendar and on a
// calendar whose events are plain `Item` values; the execution logs must be
// equal element for element.
// ---------------------------------------------------------------------------

use cam_simkit::{Boxed, Fire, Pipe, Server};

const PIPES: usize = 8;
const SERVERS: usize = 2;
/// Pipe rates, bytes per ns: exact in binary, so the model's completion
/// arithmetic (`Dur::from_ns_f64`, as in `pipe.rs`) cannot drift.
const RATES: [f64; PIPES] = [1.0, 2.0, 0.5, 4.0, 1.0, 8.0, 0.25, 1.0];
const CAPACITY: [usize; SERVERS] = [1, 3];

/// What an event does after logging itself.
#[derive(Clone, Copy, Debug)]
enum Then {
    Nothing,
    /// Schedule a plain event at `now` (zero delay).
    Plain,
    /// Start a transfer on a pipe (possibly the one being popped).
    Transfer(usize, u64),
    /// Charge service time on a pipe.
    Work(usize, u64),
    /// Submit a job to a server.
    Serve(usize, u64),
}

/// One scheduled event: logs `(id, now)`, then acts `depth` levels deep.
#[derive(Clone, Copy, Debug)]
struct Item {
    id: u32,
    then: Then,
    depth: u8,
}

type Log = Vec<(u32, u64)>;

/// The scheduling surface both sides offer.
trait Calendar {
    fn now_ns(&self) -> u64;
    fn at(&mut self, t_ns: u64, item: Item);
    fn after(&mut self, d_ns: u64, item: Item);
    fn transfer(&mut self, pipe: usize, bytes: u64, item: Item);
    fn work(&mut self, pipe: usize, d_ns: u64, item: Item);
    fn serve(&mut self, server: usize, d_ns: u64, item: Item);
}

/// Runs `item`'s body on either side.
fn fire<C: Calendar>(c: &mut C, log: &mut Log, item: Item) {
    log.push((item.id, c.now_ns()));
    if item.depth == 0 {
        return;
    }
    let child = Item {
        id: item.id + 100_000,
        then: item.then,
        depth: item.depth - 1,
    };
    match item.then {
        Then::Nothing => {}
        Then::Plain => c.after(0, child),
        Then::Transfer(p, b) => c.transfer(p, b, child),
        Then::Work(p, d) => c.work(p, d, child),
        Then::Serve(s, d) => c.serve(s, d, child),
    }
}

// --- the real thing --------------------------------------------------------

struct World {
    log: Log,
    pipes: [Pipe; PIPES],
    servers: [Server; SERVERS],
}

/// How an [`Item`] becomes an event of the calendar under test: a boxed
/// closure on the default calendar, or the item itself on a typed one.
trait Event: Fire<World> {
    fn of(item: Item) -> Self;
}

impl Event for Boxed<World> {
    fn of(item: Item) -> Self {
        Boxed::new(move |sim, w| fire_real(sim, w, item))
    }
}

impl Fire<World> for Item {
    fn fire(self, sim: &mut Sim<World, Item>, w: &mut World) {
        fire_real(sim, w, self)
    }
}

impl Event for Item {
    fn of(item: Item) -> Self {
        item
    }
}

/// `Sim` plus the handles, as an event or the top-level program sees it.
struct Real<'a, E> {
    sim: &'a mut Sim<World, E>,
    pipes: [Pipe; PIPES],
    servers: [Server; SERVERS],
}

fn fire_real<E: Event>(sim: &mut Sim<World, E>, w: &mut World, item: Item) {
    let mut c = Real {
        sim,
        pipes: w.pipes,
        servers: w.servers,
    };
    fire(&mut c, &mut w.log, item);
}

impl<E: Event> Calendar for Real<'_, E> {
    fn now_ns(&self) -> u64 {
        self.sim.now().as_ns()
    }
    fn at(&mut self, t_ns: u64, item: Item) {
        self.sim.post_at(Time::from_ns(t_ns), E::of(item));
    }
    fn after(&mut self, d_ns: u64, item: Item) {
        self.sim.post_in(Dur::ns(d_ns), E::of(item));
    }
    fn transfer(&mut self, pipe: usize, bytes: u64, item: Item) {
        self.sim.post_transfer(self.pipes[pipe], bytes, E::of(item));
    }
    fn work(&mut self, pipe: usize, d_ns: u64, item: Item) {
        self.sim
            .post_work(self.pipes[pipe], Dur::ns(d_ns), E::of(item));
    }
    fn serve(&mut self, server: usize, d_ns: u64, item: Item) {
        self.sim
            .post_serve(self.servers[server], Dur::ns(d_ns), E::of(item));
    }
}

// --- the model -------------------------------------------------------------

enum Due {
    Call(Item),
    /// A job leaving service on this server.
    ServerDone(usize, Item),
}

#[derive(Default)]
struct ModelServer {
    in_service: usize,
    queue: std::collections::VecDeque<(u64, Item)>,
}

#[derive(Default)]
struct Model {
    now: u64,
    seq: u64,
    pending: Vec<(u64, u64, Due)>,
    free_at: [u64; PIPES],
    servers: [ModelServer; SERVERS],
    executed: u64,
}

impl Model {
    fn push(&mut self, t_ns: u64, due: Due) {
        self.pending.push((t_ns, self.seq, due));
        self.seq += 1;
    }

    fn occupy(&mut self, pipe: usize, d_ns: u64) -> u64 {
        self.free_at[pipe] = self.free_at[pipe].max(self.now) + d_ns;
        self.free_at[pipe]
    }

    fn start(&mut self, server: usize, d_ns: u64, item: Item) {
        self.servers[server].in_service += 1;
        self.push(self.now + d_ns, Due::ServerDone(server, item));
    }

    /// The earliest pending instant, found the slow way.
    fn next_time(&mut self) -> Option<u64> {
        self.pending
            .sort_by_key(|&(t, s, _)| std::cmp::Reverse((t, s)));
        self.pending.last().map(|&(t, _, _)| t)
    }

    fn step(&mut self, log: &mut Log) -> bool {
        if self.next_time().is_none() {
            return false;
        }
        let (t, _, due) = self.pending.pop().expect("just checked");
        self.now = t;
        self.executed += 1;
        let item = match due {
            Due::Call(item) => item,
            Due::ServerDone(server, item) => {
                // The freed slot is handed on before the callback runs.
                self.servers[server].in_service -= 1;
                if let Some((d_ns, next)) = self.servers[server].queue.pop_front() {
                    self.start(server, d_ns, next);
                }
                item
            }
        };
        fire(self, log, item);
        true
    }

    fn run_until(&mut self, log: &mut Log, deadline: u64) {
        while self.next_time().is_some_and(|t| t <= deadline) {
            self.step(log);
        }
        self.now = self.now.max(deadline);
    }
}

impl Calendar for Model {
    fn now_ns(&self) -> u64 {
        self.now
    }
    fn at(&mut self, t_ns: u64, item: Item) {
        self.push(t_ns.max(self.now), Due::Call(item));
    }
    fn after(&mut self, d_ns: u64, item: Item) {
        self.push(self.now + d_ns, Due::Call(item));
    }
    fn transfer(&mut self, pipe: usize, bytes: u64, item: Item) {
        let d_ns = Dur::from_ns_f64(bytes as f64 / RATES[pipe]).as_ns();
        let done = self.occupy(pipe, d_ns);
        self.push(done, Due::Call(item));
    }
    fn work(&mut self, pipe: usize, d_ns: u64, item: Item) {
        let done = self.occupy(pipe, d_ns);
        self.push(done, Due::Call(item));
    }
    fn serve(&mut self, server: usize, d_ns: u64, item: Item) {
        if self.servers[server].in_service < CAPACITY[server] {
            self.start(server, d_ns, item);
        } else {
            self.servers[server].queue.push_back((d_ns, item));
        }
    }
}

// --- programs ----------------------------------------------------------------

/// One top-level step of a program.
#[derive(Clone, Copy, Debug)]
enum Op {
    At(u64, Item),
    After(u64, Item),
    Transfer(usize, u64, Item),
    Work(usize, u64, Item),
    Serve(usize, u64, Item),
    /// `run_until(now + .0)`.
    Cut(u64),
}

fn issue<C: Calendar>(c: &mut C, op: Op) {
    match op {
        Op::At(t, item) => c.at(t, item),
        Op::After(d, item) => c.after(d, item),
        Op::Transfer(p, b, item) => c.transfer(p, b, item),
        Op::Work(p, d, item) => c.work(p, d, item),
        Op::Serve(s, d, item) => c.serve(s, d, item),
        Op::Cut(_) => unreachable!("cuts are run, not issued"),
    }
}

/// Runs `program` on a `Sim` whose events are `E`, and on the model;
/// returns both logs and both executed-event counts.
fn run_both<E: Event>(program: &[Op]) -> ((Log, u64), (Log, u64)) {
    let mut sim: Sim<World, E> = Sim::default();
    let mut world = World {
        log: Vec::new(),
        pipes: RATES.map(|r| sim.new_pipe(r)),
        servers: CAPACITY.map(|c| sim.new_server(c)),
    };
    let mut model = Model::default();
    let mut model_log = Vec::new();
    for &op in program {
        if let Op::Cut(d) = op {
            let deadline = sim.now().as_ns() + d;
            sim.run_until(&mut world, Time::from_ns(deadline));
            model.run_until(&mut model_log, deadline);
            assert_eq!(sim.now().as_ns(), model.now);
            continue;
        }
        let mut real = Real {
            sim: &mut sim,
            pipes: world.pipes,
            servers: world.servers,
        };
        issue(&mut real, op);
        issue(&mut model, op);
    }
    sim.run(&mut world);
    while model.step(&mut model_log) {}
    (
        (world.log, sim.executed_events()),
        (model_log, model.executed),
    )
}

/// Decodes one generated tuple into an op over the first `n_pipes` pipes.
/// Small value ranges on purpose: ties — equal instants across pipes,
/// servers and plain events — are the interesting case, and they need
/// collisions.
fn decode(i: usize, (kind, a, b, then): (u8, u64, u64, u8), n_pipes: usize) -> Op {
    let then = match then % 8 {
        0 | 1 => Then::Nothing,
        2 | 3 => Then::Plain,
        4 => Then::Transfer(b as usize % n_pipes, a % 5 * 8),
        5 => Then::Work(a as usize % n_pipes, b % 4 * 4),
        6 => Then::Serve(a as usize % SERVERS, 1 + b % 6),
        _ => Then::Transfer(a as usize % n_pipes, 8),
    };
    let item = Item {
        id: i as u32,
        then,
        depth: (a % 3) as u8,
    };
    match kind % 8 {
        0 => Op::After(a % 4 * 8, item), // zero delays included
        1 => Op::At(b % 64, item),       // often in the past: clamps to now
        2 | 3 => Op::Transfer(a as usize % n_pipes, b % 5 * 8, item),
        4 => Op::Work(b as usize % n_pipes, a % 4 * 4, item),
        5 | 6 => Op::Serve(a as usize % SERVERS, 1 + b % 12, item),
        _ => Op::Cut(a % 40),
    }
}

proptest! {
    #![proptest_config(ProptestConfig { cases: 256, .. ProptestConfig::default() })]

    /// Random programs — plain events (zero delays, past instants), pipe
    /// transfers and work on 1–8 pipes, server jobs with unequal service
    /// times, events that schedule at `now`, `run_until` cuts — execute in
    /// exactly the model's order, at the model's instants, on the closure
    /// calendar and on a typed one alike.
    #[test]
    fn sim_executes_in_the_order_of_a_sorted_vec(
        raw in proptest::collection::vec((0u8..8, 0u64..1000, 0u64..1000, 0u8..8), 1..160),
        n_pipes in 1usize..9,
    ) {
        let program: Vec<Op> = raw.iter().enumerate().map(|(i, &t)| decode(i, t, n_pipes)).collect();
        let ((boxed, boxed_n), (want, want_n)) = run_both::<Boxed<World>>(&program);
        let ((typed, typed_n), _) = run_both::<Item>(&program);
        for got in [&boxed, &typed] {
            prop_assert_eq!(got.len(), want.len());
            for (i, (g, w)) in got.iter().zip(&want).enumerate() {
                prop_assert_eq!(g, w, "execution {} (id, ns)", i);
            }
        }
        prop_assert_eq!(boxed_n, want_n);
        prop_assert_eq!(typed_n, want_n);
    }
}

fn plain(id: u32) -> Item {
    Item {
        id,
        then: Then::Nothing,
        depth: 0,
    }
}

/// Ids in execution order, after checking both calendars against the model.
fn order(program: &[Op]) -> Vec<u32> {
    let ((got, got_n), (want, want_n)) = run_both::<Boxed<World>>(program);
    assert_eq!(got, want);
    assert_eq!(got_n, want_n);
    assert_eq!(run_both::<Item>(program).0, (want, want_n));
    got.into_iter().map(|(id, _)| id).collect()
}

#[test]
fn a_pipe_completion_and_a_plain_event_tie_by_insertion_either_way() {
    // Both at t = 16: pipe 0 moves 16 bytes at 1 B/ns.
    let pipe_first = [Op::Transfer(0, 16, plain(1)), Op::After(16, plain(2))];
    assert_eq!(order(&pipe_first), [1, 2]);
    let plain_first = [Op::After(16, plain(1)), Op::Transfer(0, 16, plain(2))];
    assert_eq!(order(&plain_first), [1, 2]);
    // Behind the head too: the lane's second entry (t = 16) was inserted
    // before the plain event it ties with, so it runs first.
    let behind_the_head = [
        Op::Transfer(0, 8, plain(1)),
        Op::Transfer(0, 8, plain(2)),
        Op::After(16, plain(3)),
    ];
    assert_eq!(order(&behind_the_head), [1, 2, 3]);
}

#[test]
fn two_pipes_completing_at_one_instant_run_in_insertion_order() {
    // Pipe 0 at 1 B/ns and pipe 1 at 2 B/ns both complete at t = 8 and
    // t = 16; the second pipe was asked first.
    let program = [
        Op::Transfer(1, 16, plain(1)),
        Op::Transfer(0, 8, plain(2)),
        Op::Transfer(0, 8, plain(3)),
        Op::Transfer(1, 16, plain(4)),
    ];
    assert_eq!(order(&program), [1, 2, 3, 4]);
    // Lane-local order would run 1 then 4 (pipe 1's lane) before 2 and 3.
    let interleaved = [
        Op::Transfer(0, 8, plain(1)),
        Op::Transfer(1, 32, plain(2)),
        Op::Transfer(0, 8, plain(3)),
        Op::Transfer(1, 32, plain(4)),
    ];
    assert_eq!(order(&interleaved), [1, 2, 3, 4]);
}

#[test]
fn a_callback_may_append_to_the_lane_being_popped() {
    // Event 1 completes on pipe 0 at t = 8 and, from its callback, starts
    // an empty transfer on the same pipe (child id 100_001), which queues
    // behind event 2 and so completes at t = 16 with it — where a plain
    // event 3 already ties with both.
    let appending = Item {
        id: 1,
        then: Then::Transfer(0, 0),
        depth: 1,
    };
    let program = [
        Op::Transfer(0, 8, appending),
        Op::Transfer(0, 8, plain(2)),
        Op::After(16, plain(3)),
    ];
    assert_eq!(order(&program), [1, 2, 3, 100_001]);
    // Appending to a lane that the pop just emptied puts a new head on the
    // heap.
    let lone = [Op::Transfer(0, 8, appending), Op::After(8, plain(2))];
    assert_eq!(order(&lone), [1, 2, 100_001]);
}
