//! The event calendar: [`Sim`] owns the virtual clock, the pending events
//! and all resources, and fires user events in deterministic
//! `(time, insertion)` order.
//!
//! **Ordering contract.** Every scheduling call — [`Sim::post_at`], a
//! pipe completion, a server job entering service — draws the next
//! insertion sequence number, and events fire in ascending
//! `(time, sequence)` order. That is the whole semantics. How the pending
//! set is stored is an implementation of it: a FIFO [`Pipe`](crate::Pipe)
//! completes in the order it accepted work, so its pending completions sit
//! in a queue of their own (a *lane*) that is already sorted, and the
//! binary heap orders only the general events and the *head* of each
//! non-empty lane. A lane head ties with a heap entry exactly as two heap
//! entries would: by sequence number.

use std::cmp::Ordering;
use std::collections::BinaryHeap;
use std::marker::PhantomData;
use std::sync::Arc;

use cam_telemetry::{EventKind, FlightRecorder};

use crate::pipe::PipeState;
use crate::server::{InService, ServerState};
use crate::time::{Dur, Time};

/// What an event does when its time comes: it receives the simulator (to
/// schedule follow-up work) and the user world `W` (all model state).
///
/// A model that schedules a fixed set of things implements this for one
/// `enum` and runs on `Sim<W, ThatEnum>`; every other model uses the
/// default event type, [`Boxed`] closures.
pub trait Fire<W>: Sized {
    /// Runs the event at its scheduled instant (`sim.now()`).
    fn fire(self, sim: &mut Sim<W, Self>, world: &mut W);
}

/// A callback on the closure calendar.
type Callback<W> = dyn FnOnce(&mut Sim<W>, &mut W);

/// The default event type: a boxed closure, one allocation per event.
pub struct Boxed<W>(Box<Callback<W>>);

impl<W> Boxed<W> {
    /// Boxes `cb` as an event.
    pub fn new(cb: impl FnOnce(&mut Sim<W>, &mut W) + 'static) -> Self {
        Boxed(Box::new(cb))
    }
}

impl<W> Fire<W> for Boxed<W> {
    #[inline]
    fn fire(self, sim: &mut Sim<W>, world: &mut W) {
        (self.0)(sim, world)
    }
}

/// Where a heap entry's event is.
///
/// Two words when `E` is (a boxed closure; an `enum` of at most 16 bytes
/// whose tag leaves room for a `u32` beside it), which keeps an [`Entry`]
/// at four: the heap's cost is moving entries, and a fifth word makes the
/// plain `schedule_in` path a quarter slower (24 → 30 ns per event over 64
/// timer chains). A larger `E` still works, in a larger entry.
pub(crate) enum Pending<E> {
    /// In the entry: a general event.
    Call(E),
    /// With the resource that scheduled it.
    Held(Held),
}

/// An event a resource keeps until its heap entry comes up.
#[derive(Clone, Copy)]
pub(crate) enum Held {
    /// The head of this pipe's lane.
    LaneHead(u32),
    /// The server job in this in-service slot.
    ServerJob(u32),
}

/// The calendar's sort key: `(time, insertion sequence)` as one integer,
/// time in the high half, so every sift step is a single comparison.
pub(crate) fn key(time: Time, seq: u64) -> u128 {
    (u128::from(time.as_ns()) << 64) | u128::from(seq)
}

/// The instant a [`key`] was built from.
pub(crate) fn key_time(key: u128) -> Time {
    Time::from_ns((key >> 64) as u64)
}

pub(crate) struct Entry<E> {
    pub(crate) key: u128,
    pub(crate) what: Pending<E>,
}

impl<E> PartialEq for Entry<E> {
    fn eq(&self, other: &Self) -> bool {
        self.key == other.key
    }
}
impl<E> Eq for Entry<E> {}
impl<E> PartialOrd for Entry<E> {
    fn partial_cmp(&self, other: &Self) -> Option<Ordering> {
        Some(self.cmp(other))
    }
}
impl<E> Ord for Entry<E> {
    // Reversed so that `BinaryHeap` (a max-heap) pops the earliest event;
    // ties break by insertion sequence for determinism.
    fn cmp(&self, other: &Self) -> Ordering {
        other.key.cmp(&self.key)
    }
}

/// A discrete-event simulator over a user-defined world `W`, whose events
/// are values of `E` (boxed closures unless the model names its own type).
///
/// See the [crate-level docs](crate) for the programming model.
pub struct Sim<W, E = Boxed<W>> {
    now: Time,
    seq: u64,
    executed: u64,
    /// General events, server jobs in service, and the head of every
    /// non-empty pipe lane.
    pub(crate) heap: BinaryHeap<Entry<E>>,
    /// Event hook: models call [`emit`](Self::emit) and events land in the
    /// recorder stamped with **virtual** time, so DES runs produce the same
    /// trace format as the functional engine.
    recorder: Option<Arc<FlightRecorder>>,
    pub(crate) pipes: Vec<PipeState<E>>,
    pub(crate) servers: Vec<ServerState<E>>,
    pub(crate) in_service: InService<E>,
    /// Events fire against a `W`.
    world: PhantomData<fn(&mut W)>,
}

impl<W, E: Fire<W>> Default for Sim<W, E> {
    fn default() -> Self {
        Sim {
            now: Time::ZERO,
            seq: 0,
            executed: 0,
            heap: BinaryHeap::new(),
            recorder: None,
            pipes: Vec::new(),
            servers: Vec::new(),
            in_service: InService::default(),
            world: PhantomData,
        }
    }
}

/// The closure calendar: each call boxes its callback as a [`Boxed`] event
/// and schedules it with the typed twin named in its docs.
impl<W: 'static> Sim<W> {
    /// Creates an empty simulator at `t = 0` whose events are closures
    /// (a typed calendar starts from [`Sim::default`]).
    pub fn new() -> Self {
        Self::default()
    }

    /// Schedules `cb` to run at absolute time `at` (clamped to `now` if in
    /// the past, so causality is never violated); [`post_at`](Self::post_at).
    pub fn schedule_at(&mut self, at: Time, cb: impl FnOnce(&mut Sim<W>, &mut W) + 'static) {
        self.post_at(at, Boxed::new(cb));
    }

    /// Schedules `cb` to run `delay` after the current time;
    /// [`post_in`](Self::post_in).
    #[inline]
    pub fn schedule_in(&mut self, delay: Dur, cb: impl FnOnce(&mut Sim<W>, &mut W) + 'static) {
        self.post_in(delay, Boxed::new(cb));
    }
}

impl<W, E: Fire<W>> Sim<W, E> {
    /// Bytes of one calendar entry, sort key and event: what the heap moves
    /// on every sift. 32 for closures, and for any `E` of 16 bytes whose
    /// tag leaves room for a `u32` beside it.
    pub const ENTRY_BYTES: usize = std::mem::size_of::<Entry<E>>();

    /// Attaches a flight recorder; subsequent [`emit`](Self::emit) calls
    /// record into it at virtual-time timestamps.
    pub fn attach_recorder(&mut self, rec: Arc<FlightRecorder>) {
        self.recorder = Some(rec);
    }

    /// The attached recorder, if any.
    pub fn recorder(&self) -> Option<&Arc<FlightRecorder>> {
        self.recorder.as_ref()
    }

    /// Emits `kind` into the attached recorder, timestamped at the current
    /// **virtual** time (`now().as_ns()`). A no-op without a recorder, so
    /// models can emit unconditionally.
    #[inline]
    pub fn emit(&self, kind: EventKind) {
        if let Some(rec) = &self.recorder {
            rec.emit_at(self.now.as_ns(), kind);
        }
    }

    /// Current virtual time.
    #[inline]
    pub fn now(&self) -> Time {
        self.now
    }

    /// Number of events executed so far (useful for runaway detection).
    #[inline]
    pub fn executed_events(&self) -> u64 {
        self.executed
    }

    /// Schedules `ev` to fire at absolute time `at` (clamped to `now` if in
    /// the past, so causality is never violated).
    pub fn post_at(&mut self, at: Time, ev: E) {
        self.push(at.max(self.now), Pending::Call(ev));
    }

    /// Schedules `ev` to fire `delay` after the current time.
    #[inline]
    pub fn post_in(&mut self, delay: Dur, ev: E) {
        self.post_at(self.now + delay, ev);
    }

    /// Draws the next insertion sequence number.
    #[inline]
    pub(crate) fn next_seq(&mut self) -> u64 {
        let seq = self.seq;
        self.seq += 1;
        seq
    }

    /// Puts `what` on the heap at `time` (not before `now`).
    #[inline]
    pub(crate) fn push(&mut self, time: Time, what: Pending<E>) {
        let key = key(time, self.next_seq());
        self.heap.push(Entry { key, what });
    }

    /// Runs a single event if one is pending; returns whether one ran.
    pub fn step(&mut self, world: &mut W) -> bool {
        let Some(top) = self.heap.peek() else {
            return false;
        };
        let time = key_time(top.key);
        debug_assert!(time >= self.now, "event scheduled in the past");
        self.now = time;
        self.executed += 1;
        let ev = match top.what {
            Pending::Held(held) => self.take_held(held),
            Pending::Call(_) => match self.heap.pop() {
                Some(Entry {
                    what: Pending::Call(ev),
                    ..
                }) => ev,
                _ => unreachable!("pop returns the entry just peeked"),
            },
        };
        ev.fire(self, world);
        true
    }

    /// Takes the event the top heap entry's resource holds for it, and the
    /// entry with it. Out of line so that [`step`](Self::step)'s general
    /// path stays a pop and a call (inlined, plain `schedule_in` events
    /// cost 24 ns instead of 22).
    #[inline(never)]
    fn take_held(&mut self, held: Held) -> E {
        match held {
            Held::LaneHead(pipe) => self.lane_pop(pipe),
            Held::ServerJob(job) => {
                self.heap.pop();
                self.server_finish(job)
            }
        }
    }

    /// Runs until no events remain. Returns the final virtual time.
    pub fn run(&mut self, world: &mut W) -> Time {
        while self.step(world) {}
        self.now
    }

    /// Runs every event scheduled at or before `deadline`, then advances the
    /// clock to exactly `deadline`. Later events stay pending.
    pub fn run_until(&mut self, world: &mut W, deadline: Time) -> Time {
        loop {
            match self.heap.peek() {
                Some(e) if key_time(e.key) <= deadline => {
                    self.step(world);
                }
                _ => break,
            }
        }
        self.now = self.now.max(deadline);
        self.now
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn a_heap_entry_is_four_words() {
        assert_eq!(std::mem::size_of::<Entry<()>>(), 32);
        assert_eq!(std::mem::size_of::<Entry<Boxed<()>>>(), 32);
    }

    #[test]
    fn events_run_in_time_order() {
        let mut sim: Sim<Vec<u32>> = Sim::new();
        let mut w = Vec::new();
        sim.schedule_in(Dur::us(3), |_, w: &mut Vec<u32>| w.push(3));
        sim.schedule_in(Dur::us(1), |_, w: &mut Vec<u32>| w.push(1));
        sim.schedule_in(Dur::us(2), |_, w: &mut Vec<u32>| w.push(2));
        sim.run(&mut w);
        assert_eq!(w, vec![1, 2, 3]);
        assert_eq!(sim.now(), Time::ZERO + Dur::us(3));
        assert_eq!(sim.executed_events(), 3);
    }

    #[test]
    fn ties_break_by_insertion_order() {
        let mut sim: Sim<Vec<u32>> = Sim::new();
        let mut w = Vec::new();
        for i in 0..16 {
            sim.schedule_at(Time::from_ns(100), move |_, w: &mut Vec<u32>| w.push(i));
        }
        sim.run(&mut w);
        assert_eq!(w, (0..16).collect::<Vec<_>>());
    }

    #[test]
    fn nested_scheduling() {
        let mut sim: Sim<u32> = Sim::new();
        let mut w = 0;
        sim.schedule_in(Dur::ns(10), |sim, w: &mut u32| {
            *w += 1;
            sim.schedule_in(Dur::ns(10), |_, w| *w += 10);
        });
        sim.run(&mut w);
        assert_eq!(w, 11);
        assert_eq!(sim.now().as_ns(), 20);
    }

    #[test]
    fn past_events_clamp_to_now() {
        let mut sim: Sim<u32> = Sim::new();
        let mut w = 0;
        sim.schedule_in(Dur::ns(100), |sim, _w: &mut u32| {
            // Scheduling "in the past" must still run, at the current time.
            sim.schedule_at(Time::from_ns(1), |sim, w| {
                *w = sim.now().as_ns() as u32;
            });
        });
        sim.run(&mut w);
        assert_eq!(w, 100);
    }

    #[test]
    fn run_until_leaves_later_events_pending() {
        let mut sim: Sim<u32> = Sim::new();
        let mut w = 0;
        sim.schedule_in(Dur::ns(10), |_, w: &mut u32| *w += 1);
        sim.schedule_in(Dur::ns(30), |_, w: &mut u32| *w += 1);
        sim.run_until(&mut w, Time::from_ns(20));
        assert_eq!(w, 1);
        assert_eq!(sim.now().as_ns(), 20);
        sim.run(&mut w);
        assert_eq!(w, 2);
    }

    #[test]
    fn emit_records_at_virtual_time() {
        let mut sim: Sim<()> = Sim::new();
        let rec = Arc::new(FlightRecorder::new());
        sim.attach_recorder(Arc::clone(&rec));
        sim.schedule_in(Dur::us(5), |sim, _: &mut ()| {
            sim.emit(EventKind::SimIssue { ssd: 0, req: 0 });
            sim.schedule_in(Dur::us(95), |sim, _| {
                sim.emit(EventKind::SimComplete { ssd: 0, req: 0 });
            });
        });
        sim.run(&mut ());
        let events = rec.snapshot();
        assert_eq!(events.len(), 2);
        // Timestamps are the *virtual* times the events ran at, not wall
        // clock — that is what lets DES traces share the functional format.
        assert_eq!(events[0].ts_ns, 5_000);
        assert_eq!(events[0].kind, EventKind::SimIssue { ssd: 0, req: 0 });
        assert_eq!(events[1].ts_ns, 100_000);
        assert_eq!(events[1].kind, EventKind::SimComplete { ssd: 0, req: 0 });
    }

    #[test]
    fn emit_without_recorder_is_a_noop() {
        let mut sim: Sim<()> = Sim::new();
        sim.schedule_in(Dur::ns(1), |sim, _: &mut ()| {
            sim.emit(EventKind::SimIssue { ssd: 1, req: 7 });
        });
        sim.run(&mut ());
        assert!(sim.recorder().is_none());
    }
}
