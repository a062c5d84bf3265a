//! Chrome trace-event (Perfetto-loadable) export of a flight-recorder
//! timeline, plus the schema validator tests and tools run over it. Every
//! record is a [`Json`] tree whose `args` are the event's own
//! [`EventKind::args`]; the exporter writes one record per line (dumps reach
//! 10^5 events) and the validator parses with [`crate::json::parse`].
//!
//! Mapping (see `docs/OBSERVABILITY.md` for the full schema):
//!
//! * pid 1 = functional engine, pid 2 = DES timing engine — two process
//!   groups on one timeline.
//! * Each real thread that emitted events becomes a named track (pid 1);
//!   each simulated SSD becomes a track under pid 2.
//! * A batch is an **async span** (`ph:"b"` … `ph:"e"`, `cat:"batch"`,
//!   `id:"ch<channel>:<seq>"`) opened at the GPU doorbell and closed at
//!   region-4 retire, with an async instant (`ph:"n"`) at poller pickup.
//! * Worker-side group work renders as **complete spans** (`ph:"X"`):
//!   `stage+ring` (dequeue → SQ doorbell) and `await cqes` (doorbell →
//!   last CQE) on the worker's track; NVMe command service, GPU kernels,
//!   and `*_synchronize` waits are also `X` spans on their threads.
//! * Every other event kind is an **instant** (`ph:"i"`).
//! * Simulated requests are async spans `cat:"sim"` on per-SSD tracks.

use std::collections::{BTreeMap, BTreeSet};
use std::fmt::Write as _;

use crate::event::{health_state_label, Event, EventKind};
use crate::json::{parse, Json};
use crate::{obj, ControlMetrics};

/// pid of the functional-engine process group in exported traces.
pub const PID_FUNCTIONAL: u64 = 1;
/// pid of the DES timing-engine process group in exported traces.
pub const PID_SIM: u64 = 2;

fn op_name(op: u8) -> &'static str {
    ControlMetrics::OPS
        .get(op as usize)
        .copied()
        .unwrap_or("op?")
}

/// Microseconds from nanoseconds (the trace-event `ts` / `dur` unit).
fn us(ns: u64) -> f64 {
    ns as f64 / 1000.0
}

/// The `(pid, tid)` track an event renders on: a simulated request on its
/// SSD's track under the DES process, anything else on the emitting thread's.
fn track(ev: &Event) -> (u64, u64) {
    match ev.kind {
        EventKind::SimIssue { ssd, .. } | EventKind::SimComplete { ssd, .. } => {
            (PID_SIM, ssd.into())
        }
        _ => (PID_FUNCTIONAL, ev.thread.into()),
    }
}

/// Writes the trace document one record per line.
struct TraceWriter {
    out: String,
}

impl TraceWriter {
    fn new() -> Self {
        TraceWriter {
            out: String::from("{\"displayTimeUnit\": \"ns\", \"traceEvents\": ["),
        }
    }

    fn push(&mut self, record: Json) {
        let sep = if self.out.ends_with('[') { "" } else { "," };
        let _ = write!(self.out, "{sep}\n  {record}");
    }

    fn metadata(&mut self, pid: u64, tid: Option<u64>, which: &str, name: &str) {
        let mut record = obj! {"name" => which, "ph" => "M", "pid" => pid};
        if let Some(tid) = tid {
            record.set("tid", tid.into());
        }
        record.set("args", obj! {"name" => name});
        self.push(record);
    }

    /// An async begin / instant / end (`ph` = `b` / `n` / `e`) of span
    /// `cat`/`id`, on the event's own track.
    fn async_ev(&mut self, ph: &str, name: String, cat: &str, id: String, ev: &Event) {
        let (pid, tid) = track(ev);
        self.push(obj! {
            "name" => name, "cat" => cat, "ph" => ph, "id" => id, "pid" => pid, "tid" => tid,
            "ts" => us(ev.ts_ns), "args" => ev.kind.args(),
        });
    }

    /// A complete span on the functional engine's track `tid`.
    fn complete(&mut self, name: String, tid: u32, start_ns: u64, end_ns: u64, args: Json) {
        self.push(obj! {
            "name" => name, "ph" => "X", "pid" => PID_FUNCTIONAL, "tid" => tid,
            "ts" => us(start_ns), "dur" => us(end_ns.saturating_sub(start_ns)), "args" => args,
        });
    }

    fn finish(mut self) -> String {
        self.out.push_str("\n]}\n");
        self.out
    }
}

/// Renders a recorder snapshot (plus its thread names) as Chrome
/// trace-event JSON. `events` must be timeline-sorted, as
/// [`crate::FlightRecorder::snapshot`] returns them.
pub fn chrome_trace(events: &[Event], thread_names: &[(u32, String)]) -> String {
    let mut w = TraceWriter::new();
    w.metadata(
        PID_FUNCTIONAL,
        None,
        "process_name",
        "cam functional engine",
    );
    w.metadata(PID_SIM, None, "process_name", "cam DES timing engine");

    // Name every functional track that actually emitted, and every
    // simulated-SSD track referenced by DES events.
    let names: BTreeMap<u32, &str> = thread_names.iter().map(|(t, n)| (*t, n.as_str())).collect();
    let tracks: BTreeSet<(u64, u64)> = events.iter().map(track).collect();
    for (pid, tid) in tracks {
        let name = match names.get(&(tid as u32)) {
            _ if pid == PID_SIM => format!("sim-ssd{tid}"),
            Some(name) => name.to_string(),
            None => format!("thread-{tid}"),
        };
        w.metadata(pid, Some(tid), "thread_name", &name);
    }

    // Pairing state.
    let mut batch_op: BTreeMap<(u16, u64), u8> = BTreeMap::new(); // open async batch spans
    let mut group_phase: BTreeMap<(u16, u64, u16), u64> = BTreeMap::new(); // last phase ts
    let mut kernels: BTreeMap<u64, &Event> = BTreeMap::new(); // open kernel launches

    for ev in events {
        let batch_span = |ph: &str, w: &mut TraceWriter, channel: u16, seq: u64, op: u8| {
            let name = format!("batch ch{channel} {}", op_name(op));
            w.async_ev(ph, name, "batch", format!("ch{channel}:{seq}"), ev);
        };
        match ev.kind {
            EventKind::BatchDoorbell {
                channel, seq, op, ..
            } => {
                batch_op.insert((channel, seq), op);
                batch_span("b", &mut w, channel, seq, op);
            }
            EventKind::BatchPickup { channel, seq } => {
                if let Some(&op) = batch_op.get(&(channel, seq)) {
                    batch_span("n", &mut w, channel, seq, op);
                }
            }
            EventKind::BatchRetire { channel, seq, .. } => {
                let op = batch_op.remove(&(channel, seq)).unwrap_or(0);
                batch_span("e", &mut w, channel, seq, op);
            }
            EventKind::GroupDispatch {
                channel, seq, ssd, ..
            } => {
                group_phase.insert((channel, seq, ssd), ev.ts_ns);
            }
            EventKind::GroupSubmit {
                channel, seq, ssd, ..
            } => {
                if let Some(start) = group_phase.insert((channel, seq, ssd), ev.ts_ns) {
                    let name = format!("stage+ring ssd{ssd}");
                    w.complete(name, ev.thread, start, ev.ts_ns, ev.kind.args());
                }
            }
            EventKind::GroupComplete {
                channel, seq, ssd, ..
            } => {
                if let Some(start) = group_phase.remove(&(channel, seq, ssd)) {
                    let name = format!("await cqes ssd{ssd}");
                    w.complete(name, ev.thread, start, ev.ts_ns, ev.kind.args());
                }
            }
            EventKind::NvmeCmd {
                opcode, start_ns, ..
            } => {
                let verb = match opcode {
                    1 => "write",
                    2 => "read",
                    _ => "flush",
                };
                let name = format!("nvme {verb}");
                w.complete(name, ev.thread, start_ns, ev.ts_ns, ev.kind.args());
            }
            EventKind::KernelBegin { kernel, .. } => {
                kernels.insert(kernel, ev);
            }
            EventKind::KernelEnd { kernel } => {
                if let Some(begin) = kernels.remove(&kernel) {
                    let name = format!("kernel {kernel}");
                    w.complete(name, begin.thread, begin.ts_ns, ev.ts_ns, begin.kind.args());
                }
            }
            EventKind::SyncWait { channel, start_ns } => {
                let name = format!("sync ch{channel}");
                w.complete(name, ev.thread, start_ns, ev.ts_ns, ev.kind.args());
            }
            EventKind::SimIssue { ssd, req } => {
                w.async_ev(
                    "b",
                    format!("io ssd{ssd}"),
                    "sim",
                    format!("ssd{ssd}:{req}"),
                    ev,
                );
            }
            EventKind::SimComplete { ssd, req } => {
                w.async_ev(
                    "e",
                    format!("io ssd{ssd}"),
                    "sim",
                    format!("ssd{ssd}:{req}"),
                    ev,
                );
            }
            EventKind::QpDoorbell { .. }
            | EventKind::FaultInjected { .. }
            | EventKind::ScalerDecision { .. }
            | EventKind::CacheAccess { .. }
            | EventKind::CacheEvict { .. }
            | EventKind::Readahead { .. }
            | EventKind::CacheFlush { .. }
            | EventKind::CmdRetry { .. }
            | EventKind::CmdTimeout { .. }
            | EventKind::LaneHealth { .. } => {
                let name = match ev.kind {
                    EventKind::LaneHealth { ssd, to, .. } => {
                        format!("lane ssd{ssd} {}", health_state_label(to))
                    }
                    kind => kind.name().replace('_', " "),
                };
                w.push(obj! {
                    "name" => name, "ph" => "i", "s" => "t", "pid" => PID_FUNCTIONAL,
                    "tid" => ev.thread, "ts" => us(ev.ts_ns), "args" => ev.kind.args(),
                });
            }
        }
    }
    w.finish()
}

/// Shape counts from a validated trace (see [`validate_chrome_trace`]).
#[derive(Clone, Debug, Default, PartialEq, Eq)]
pub struct TraceSummary {
    /// Total records in `traceEvents`.
    pub events: usize,
    /// `ph:"b"` async begins.
    pub async_begin: usize,
    /// `ph:"e"` async ends.
    pub async_end: usize,
    /// `ph:"X"` complete spans.
    pub complete: usize,
    /// `ph:"i"` instants.
    pub instant: usize,
    /// `ph:"M"` metadata records.
    pub metadata: usize,
    /// Distinct pids seen.
    pub processes: usize,
    /// Distinct `(pid, tid)` tracks named via `thread_name` metadata.
    pub named_tracks: Vec<String>,
}

/// Parses `text` and checks every record against the trace-event schema:
/// required `name`/`ph`/`pid` fields, `ts` on all non-metadata records,
/// `cat` + `id` on async records, `dur` on complete spans, and balanced
/// async begin/end counts per `(cat, id)`.
pub fn validate_chrome_trace(text: &str) -> Result<TraceSummary, String> {
    let root = parse(text)?;
    let events = root
        .get("traceEvents")
        .and_then(Json::as_arr)
        .ok_or("missing traceEvents array")?;
    let mut summary = TraceSummary::default();
    let mut pids = Vec::new();
    let mut open_async: BTreeMap<(String, String), i64> = BTreeMap::new();
    for (i, ev) in events.iter().enumerate() {
        let at = |msg: &str| format!("traceEvents[{i}]: {msg}");
        let ph = ev
            .get("ph")
            .and_then(Json::as_str)
            .ok_or_else(|| at("missing ph"))?
            .to_owned();
        ev.get("name")
            .and_then(Json::as_str)
            .ok_or_else(|| at("missing name"))?;
        let pid = ev
            .get("pid")
            .and_then(Json::as_f64)
            .ok_or_else(|| at("missing pid"))? as u64;
        if !pids.contains(&pid) {
            pids.push(pid);
        }
        summary.events += 1;
        match ph.as_str() {
            "M" => {
                summary.metadata += 1;
                let which = ev.get("name").and_then(Json::as_str).unwrap_or("");
                if which == "thread_name" {
                    let label = ev
                        .get("args")
                        .and_then(|a| a.get("name"))
                        .and_then(Json::as_str)
                        .ok_or_else(|| at("thread_name without args.name"))?;
                    summary.named_tracks.push(label.to_owned());
                }
            }
            "b" | "e" | "n" => {
                ev.get("ts")
                    .and_then(Json::as_f64)
                    .ok_or_else(|| at("async record missing ts"))?;
                let cat = ev
                    .get("cat")
                    .and_then(Json::as_str)
                    .ok_or_else(|| at("async record missing cat"))?;
                let id = ev
                    .get("id")
                    .and_then(Json::as_str)
                    .ok_or_else(|| at("async record missing id"))?;
                let slot = open_async
                    .entry((cat.to_owned(), id.to_owned()))
                    .or_insert(0);
                match ph.as_str() {
                    "b" => {
                        *slot += 1;
                        summary.async_begin += 1;
                    }
                    "e" => {
                        *slot -= 1;
                        summary.async_end += 1;
                        if *slot < 0 {
                            return Err(at(&format!("async end without begin ({cat}/{id})")));
                        }
                    }
                    _ => {}
                }
            }
            "X" => {
                ev.get("ts")
                    .and_then(Json::as_f64)
                    .ok_or_else(|| at("X record missing ts"))?;
                ev.get("dur")
                    .and_then(Json::as_f64)
                    .ok_or_else(|| at("X record missing dur"))?;
                summary.complete += 1;
            }
            "i" => {
                ev.get("ts")
                    .and_then(Json::as_f64)
                    .ok_or_else(|| at("instant missing ts"))?;
                summary.instant += 1;
            }
            other => return Err(at(&format!("unknown ph '{other}'"))),
        }
    }
    if let Some(((cat, id), n)) = open_async.iter().find(|(_, n)| **n != 0) {
        return Err(format!("unbalanced async span {cat}/{id}: {n} open"));
    }
    summary.processes = pids.len();
    Ok(summary)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::FlightRecorder;

    fn sample_recorder() -> FlightRecorder {
        let rec = FlightRecorder::new();
        rec.name_current_thread("poller-0");
        rec.emit_at(
            100,
            EventKind::BatchDoorbell {
                channel: 0,
                seq: 1,
                op: 0,
                requests: 8,
            },
        );
        rec.emit_at(110, EventKind::BatchPickup { channel: 0, seq: 1 });
        rec.emit_at(
            120,
            EventKind::GroupDispatch {
                channel: 0,
                seq: 1,
                ssd: 0,
                worker: 0,
            },
        );
        rec.emit_at(130, EventKind::QpDoorbell { qp: 3, sqes: 8 });
        rec.emit_at(
            135,
            EventKind::GroupSubmit {
                channel: 0,
                seq: 1,
                ssd: 0,
                worker: 0,
                sqes: 8,
            },
        );
        rec.emit_at(
            150,
            EventKind::NvmeCmd {
                device: 0,
                opcode: 2,
                ok: true,
                start_ns: 140,
            },
        );
        rec.emit_at(
            160,
            EventKind::GroupComplete {
                channel: 0,
                seq: 1,
                ssd: 0,
                worker: 0,
                errors: 0,
            },
        );
        rec.emit_at(
            170,
            EventKind::BatchRetire {
                channel: 0,
                seq: 1,
                errors: 0,
            },
        );
        rec.emit_at(200, EventKind::SimIssue { ssd: 0, req: 0 });
        rec.emit_at(260, EventKind::SimComplete { ssd: 0, req: 0 });
        rec
    }

    #[test]
    fn export_round_trips_through_validator() {
        let rec = sample_recorder();
        let json = chrome_trace(&rec.snapshot(), &rec.thread_names());
        let summary = validate_chrome_trace(&json).expect("valid trace");
        assert_eq!(
            parse(&json).unwrap().get("displayTimeUnit"),
            Some(&Json::from("ns"))
        );
        // One batch async span + one sim async span.
        assert_eq!(summary.async_begin, 2);
        assert_eq!(summary.async_end, 2);
        // stage+ring, await cqes, nvme read.
        assert_eq!(summary.complete, 3);
        // qp doorbell instant.
        assert_eq!(summary.instant, 1);
        // Both engines present as processes.
        assert_eq!(summary.processes, 2);
        // Tracks for the poller thread and the simulated SSD.
        assert!(summary.named_tracks.iter().any(|n| n == "poller-0"));
        assert!(summary.named_tracks.iter().any(|n| n == "sim-ssd0"));
    }

    #[test]
    fn validator_rejects_malformed_traces() {
        assert!(validate_chrome_trace("{}").is_err());
        assert!(validate_chrome_trace("{\"traceEvents\": [{\"ph\": \"X\"}]}").is_err());
        // Unbalanced async span.
        let bad = "{\"traceEvents\": [{\"name\": \"a\", \"cat\": \"c\", \"ph\": \"b\", \
                   \"id\": \"1\", \"pid\": 1, \"tid\": 0, \"ts\": 1}]}";
        assert!(validate_chrome_trace(bad).is_err());
    }
}
