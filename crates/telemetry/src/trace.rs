//! Chrome trace-event (Perfetto-loadable) export of a flight-recorder
//! timeline, plus the schema validator tests and tools run over it. The
//! exporter streams one record per event with `write!` (dumps reach 10^5
//! events) and shares [`crate::json`]'s escaper; the validator parses with
//! [`crate::json::parse`].
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
//! * Queue-pair doorbells, fault injections, and scaler decisions are
//!   **instants** (`ph:"i"`).
//! * Simulated requests are async spans `cat:"sim"` on per-SSD tracks.

use std::collections::BTreeMap;

use crate::event::{Event, EventKind};
use crate::json::{esc, parse, Json};
use crate::ControlMetrics;

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

/// Microsecond timestamp field from nanoseconds (trace-event `ts` unit).
fn us(ns: u64) -> String {
    format!("{}.{:03}", ns / 1000, ns % 1000)
}

struct TraceWriter {
    out: String,
    first: bool,
}

impl TraceWriter {
    fn new() -> Self {
        TraceWriter {
            out: String::from("{\"displayTimeUnit\": \"ns\", \"traceEvents\": [\n"),
            first: true,
        }
    }

    fn push(&mut self, record: String) {
        if !self.first {
            self.out.push_str(",\n");
        }
        self.first = false;
        self.out.push_str("  ");
        self.out.push_str(&record);
    }

    fn metadata(&mut self, pid: u64, tid: Option<u64>, which: &str, name: &str) {
        let tid_field = tid.map(|t| format!("\"tid\": {t}, ")).unwrap_or_default();
        self.push(format!(
            "{{\"name\": \"{which}\", \"ph\": \"M\", \"pid\": {pid}, {tid_field}\"args\": \
             {{\"name\": \"{}\"}}}}",
            esc(name)
        ));
    }

    #[allow(clippy::too_many_arguments)] // a trace record simply has this many fields
    fn async_ev(
        &mut self,
        ph: char,
        name: &str,
        cat: &str,
        id: &str,
        pid: u64,
        tid: u64,
        ts_ns: u64,
        args: &str,
    ) {
        self.push(format!(
            "{{\"name\": \"{}\", \"cat\": \"{cat}\", \"ph\": \"{ph}\", \"id\": \"{}\", \
             \"pid\": {pid}, \"tid\": {tid}, \"ts\": {}{args}}}",
            esc(name),
            esc(id),
            us(ts_ns)
        ));
    }

    fn complete(&mut self, name: &str, pid: u64, tid: u64, start_ns: u64, end_ns: u64, args: &str) {
        let dur = end_ns.saturating_sub(start_ns);
        self.push(format!(
            "{{\"name\": \"{}\", \"ph\": \"X\", \"pid\": {pid}, \"tid\": {tid}, \"ts\": {}, \
             \"dur\": {}{args}}}",
            esc(name),
            us(start_ns),
            us(dur)
        ));
    }

    fn instant(&mut self, name: &str, pid: u64, tid: u64, ts_ns: u64, args: &str) {
        self.push(format!(
            "{{\"name\": \"{}\", \"ph\": \"i\", \"s\": \"t\", \"pid\": {pid}, \"tid\": {tid}, \
             \"ts\": {}{args}}}",
            esc(name),
            us(ts_ns)
        ));
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
    let mut func_tids: Vec<u32> = Vec::new();
    let mut sim_ssds: Vec<u16> = Vec::new();
    for ev in events {
        match ev.kind {
            EventKind::SimIssue { ssd, .. } | EventKind::SimComplete { ssd, .. } => {
                if !sim_ssds.contains(&ssd) {
                    sim_ssds.push(ssd);
                }
            }
            _ => {
                if !func_tids.contains(&ev.thread) {
                    func_tids.push(ev.thread);
                }
            }
        }
    }
    func_tids.sort_unstable();
    sim_ssds.sort_unstable();
    for tid in &func_tids {
        let fallback = format!("thread-{tid}");
        let name = names.get(tid).copied().unwrap_or(&fallback);
        w.metadata(PID_FUNCTIONAL, Some(*tid as u64), "thread_name", name);
    }
    for ssd in &sim_ssds {
        w.metadata(
            PID_SIM,
            Some(*ssd as u64),
            "thread_name",
            &format!("sim-ssd{ssd}"),
        );
    }

    // Pairing state.
    let mut batch_op: BTreeMap<(u16, u64), u8> = BTreeMap::new(); // open async batch spans
    let mut group_phase: BTreeMap<(u16, u64, u16), u64> = BTreeMap::new(); // last phase ts
    let mut kernels: BTreeMap<u64, (u64, u32, u64)> = BTreeMap::new(); // id → (ts, tid, grid)

    for ev in events {
        let tid = ev.thread as u64;
        match ev.kind {
            EventKind::BatchDoorbell {
                channel,
                seq,
                op,
                requests,
            } => {
                batch_op.insert((channel, seq), op);
                let args = format!(", \"args\": {{\"requests\": {requests}}}");
                w.async_ev(
                    'b',
                    &format!("batch ch{channel} {}", op_name(op)),
                    "batch",
                    &format!("ch{channel}:{seq}"),
                    PID_FUNCTIONAL,
                    tid,
                    ev.ts_ns,
                    &args,
                );
            }
            EventKind::BatchPickup { channel, seq } => {
                if let Some(op) = batch_op.get(&(channel, seq)) {
                    w.async_ev(
                        'n',
                        &format!("batch ch{channel} {}", op_name(*op)),
                        "batch",
                        &format!("ch{channel}:{seq}"),
                        PID_FUNCTIONAL,
                        tid,
                        ev.ts_ns,
                        ", \"args\": {\"step\": \"pickup\"}",
                    );
                }
            }
            EventKind::GroupDispatch {
                channel, seq, ssd, ..
            } => {
                group_phase.insert((channel, seq, ssd), ev.ts_ns);
            }
            EventKind::GroupSubmit {
                channel,
                seq,
                ssd,
                sqes,
                ..
            } => {
                if let Some(start) = group_phase.insert((channel, seq, ssd), ev.ts_ns) {
                    let args = format!(
                        ", \"args\": {{\"channel\": {channel}, \"batch\": {seq}, \"sqes\": {sqes}}}"
                    );
                    w.complete(
                        &format!("stage+ring ssd{ssd}"),
                        PID_FUNCTIONAL,
                        tid,
                        start,
                        ev.ts_ns,
                        &args,
                    );
                }
            }
            EventKind::GroupComplete {
                channel,
                seq,
                ssd,
                errors,
                ..
            } => {
                if let Some(start) = group_phase.remove(&(channel, seq, ssd)) {
                    let args = format!(
                        ", \"args\": {{\"channel\": {channel}, \"batch\": {seq}, \
                         \"errors\": {errors}}}"
                    );
                    w.complete(
                        &format!("await cqes ssd{ssd}"),
                        PID_FUNCTIONAL,
                        tid,
                        start,
                        ev.ts_ns,
                        &args,
                    );
                }
            }
            EventKind::BatchRetire {
                channel,
                seq,
                errors,
            } => {
                let op = batch_op.remove(&(channel, seq)).unwrap_or(0);
                let args = format!(", \"args\": {{\"errors\": {errors}}}");
                w.async_ev(
                    'e',
                    &format!("batch ch{channel} {}", op_name(op)),
                    "batch",
                    &format!("ch{channel}:{seq}"),
                    PID_FUNCTIONAL,
                    tid,
                    ev.ts_ns,
                    &args,
                );
            }
            EventKind::QpDoorbell { qp, sqes } => {
                let args = format!(", \"args\": {{\"qp\": {qp}, \"sqes\": {sqes}}}");
                w.instant("qp doorbell", PID_FUNCTIONAL, tid, ev.ts_ns, &args);
            }
            EventKind::NvmeCmd {
                device,
                opcode,
                ok,
                start_ns,
            } => {
                let verb = match opcode {
                    1 => "write",
                    2 => "read",
                    _ => "flush",
                };
                let args = format!(", \"args\": {{\"device\": {device}, \"ok\": {ok}}}");
                w.complete(
                    &format!("nvme {verb}"),
                    PID_FUNCTIONAL,
                    tid,
                    start_ns,
                    ev.ts_ns,
                    &args,
                );
            }
            EventKind::KernelBegin { kernel, grid } => {
                kernels.insert(kernel, (ev.ts_ns, ev.thread, grid));
            }
            EventKind::KernelEnd { kernel } => {
                if let Some((start, ktid, grid)) = kernels.remove(&kernel) {
                    let args = format!(", \"args\": {{\"grid\": {grid}}}");
                    w.complete(
                        &format!("kernel {kernel}"),
                        PID_FUNCTIONAL,
                        ktid as u64,
                        start,
                        ev.ts_ns,
                        &args,
                    );
                }
            }
            EventKind::SyncWait { channel, start_ns } => {
                w.complete(
                    &format!("sync ch{channel}"),
                    PID_FUNCTIONAL,
                    tid,
                    start_ns,
                    ev.ts_ns,
                    "",
                );
            }
            EventKind::FaultInjected { lba, read } => {
                let args = format!(", \"args\": {{\"lba\": {lba}, \"read\": {read}}}");
                w.instant("fault injected", PID_FUNCTIONAL, tid, ev.ts_ns, &args);
            }
            EventKind::ScalerDecision { active, grew } => {
                let args = format!(", \"args\": {{\"active\": {active}, \"grew\": {grew}}}");
                w.instant("scaler", PID_FUNCTIONAL, tid, ev.ts_ns, &args);
            }
            EventKind::CacheAccess {
                channel,
                hits,
                misses,
                coalesced,
            } => {
                let args = format!(
                    ", \"args\": {{\"channel\": {channel}, \"hits\": {hits}, \
                     \"misses\": {misses}, \"coalesced\": {coalesced}}}"
                );
                w.instant("cache access", PID_FUNCTIONAL, tid, ev.ts_ns, &args);
            }
            EventKind::CacheEvict { lba, dirty } => {
                let args = format!(", \"args\": {{\"lba\": {lba}, \"dirty\": {dirty}}}");
                w.instant("cache evict", PID_FUNCTIONAL, tid, ev.ts_ns, &args);
            }
            EventKind::Readahead {
                lba,
                blocks,
                window,
            } => {
                let args = format!(
                    ", \"args\": {{\"lba\": {lba}, \"blocks\": {blocks}, \"window\": {window}}}"
                );
                w.instant("readahead", PID_FUNCTIONAL, tid, ev.ts_ns, &args);
            }
            EventKind::CacheFlush { blocks } => {
                let args = format!(", \"args\": {{\"blocks\": {blocks}}}");
                w.instant("cache flush", PID_FUNCTIONAL, tid, ev.ts_ns, &args);
            }
            EventKind::CmdRetry {
                channel,
                seq,
                ssd,
                cid,
                attempt,
            } => {
                let args = format!(
                    ", \"args\": {{\"channel\": {channel}, \"batch\": {seq}, \"ssd\": {ssd}, \
                     \"cid\": {cid}, \"attempt\": {attempt}}}"
                );
                w.instant("cmd retry", PID_FUNCTIONAL, tid, ev.ts_ns, &args);
            }
            EventKind::CmdTimeout {
                channel,
                seq,
                ssd,
                cid,
                attempts,
            } => {
                let args = format!(
                    ", \"args\": {{\"channel\": {channel}, \"batch\": {seq}, \"ssd\": {ssd}, \
                     \"cid\": {cid}, \"attempts\": {attempts}}}"
                );
                w.instant("cmd timeout", PID_FUNCTIONAL, tid, ev.ts_ns, &args);
            }
            EventKind::LaneHealth {
                ssd,
                from,
                to,
                retries,
            } => {
                let args = format!(
                    ", \"args\": {{\"ssd\": {ssd}, \"from\": \"{}\", \"to\": \"{}\", \
                     \"retries\": {retries}}}",
                    crate::event::health_state_label(from),
                    crate::event::health_state_label(to)
                );
                w.instant(
                    &format!("lane ssd{ssd} {}", crate::event::health_state_label(to)),
                    PID_FUNCTIONAL,
                    tid,
                    ev.ts_ns,
                    &args,
                );
            }
            EventKind::SimIssue { ssd, req } => {
                w.async_ev(
                    'b',
                    &format!("io ssd{ssd}"),
                    "sim",
                    &format!("ssd{ssd}:{req}"),
                    PID_SIM,
                    ssd as u64,
                    ev.ts_ns,
                    "",
                );
            }
            EventKind::SimComplete { ssd, req } => {
                w.async_ev(
                    'e',
                    &format!("io ssd{ssd}"),
                    "sim",
                    &format!("ssd{ssd}:{req}"),
                    PID_SIM,
                    ssd as u64,
                    ev.ts_ns,
                    "",
                );
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
