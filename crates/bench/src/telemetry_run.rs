//! Instrumented functional-engine run: drives a multi-batch read+write
//! workload through [`CamContext`] with a shared [`MetricsRegistry`] and
//! renders the `BENCH_repro.json` report (throughput plus stage latency
//! quantiles straight from the registry).

use std::fmt::Write as _;
use std::sync::Arc;

use cam_core::{CamConfig, CamContext};
use cam_iostacks::{Rig, RigConfig};
use cam_telemetry::critical;
use cam_telemetry::{
    clock, Event, FlightRecorder, MetricsRegistry, MetricsSnapshot, Observability, Stage,
};

/// Result of one instrumented workload run.
pub struct TelemetryRun {
    /// Registry state after the workload (the full telemetry story).
    pub snapshot: MetricsSnapshot,
    /// Flight-recorder events of the run, merged and time-ordered. Empty
    /// unless the run was recorded (see [`run_recorded`]).
    pub events: Vec<Event>,
    /// Recorder thread names (for the Chrome-trace exporter). Empty unless
    /// recorded.
    pub thread_names: Vec<(u32, String)>,
    /// Batch rounds driven (each round = one read batch + one write batch).
    pub rounds: u64,
    /// Requests per batch.
    pub batch: u64,
    /// Requests completed, from the control plane.
    pub requests: u64,
    /// Bytes moved (requests × block size).
    pub bytes: u64,
    /// Wall-clock duration of the workload, nanoseconds.
    pub elapsed_ns: u64,
}

impl TelemetryRun {
    /// End-to-end throughput in GB/s.
    pub fn gbps(&self) -> f64 {
        if self.elapsed_ns == 0 {
            0.0
        } else {
            self.bytes as f64 / self.elapsed_ns as f64
        }
    }

    /// Request rate in K IOPS.
    pub fn kiops(&self) -> f64 {
        if self.elapsed_ns == 0 {
            0.0
        } else {
            self.requests as f64 / (self.elapsed_ns as f64 / 1e9) / 1e3
        }
    }
}

/// Runs `rounds` rounds of a `batch`-request write-back + prefetch workload
/// on a default 4-SSD rig, fully instrumented, and returns the telemetry.
pub fn run_instrumented(rounds: u64, batch: u64) -> TelemetryRun {
    run_recorded(rounds, batch, None)
}

/// [`run_instrumented`] with an optional flight recorder attached: the
/// returned [`TelemetryRun`] then carries the merged event timeline (for
/// Chrome-trace export and critical-path analysis) alongside the metric
/// snapshot.
pub fn run_recorded(
    rounds: u64,
    batch: u64,
    recorder: Option<Arc<FlightRecorder>>,
) -> TelemetryRun {
    let rig = Rig::new(RigConfig::default());
    let registry = Arc::new(MetricsRegistry::new());
    let mut obs = Observability::with_registry(Arc::clone(&registry));
    obs.recorder = recorder.clone();
    let cam = CamContext::attach_observed(&rig, CamConfig::default(), obs);
    let dev = cam.device();
    let bs = cam.block_size() as usize;
    let wbuf = cam.alloc(batch as usize * bs).expect("alloc write buffer");
    let rbuf = cam.alloc(batch as usize * bs).expect("alloc read buffer");
    wbuf.write(0, &vec![0xC3; batch as usize * bs]);

    let start_ns = clock::now_ns();
    for round in 0..rounds {
        let base = (round * batch) % (rig.array_blocks() - batch);
        let lbas: Vec<u64> = (base..base + batch).collect();
        dev.write_back(&lbas, wbuf.addr()).expect("write_back");
        dev.write_back_synchronize()
            .expect("write_back_synchronize");
        dev.prefetch(&lbas, rbuf.addr()).expect("prefetch");
        dev.prefetch_synchronize().expect("prefetch_synchronize");
    }
    let elapsed_ns = clock::now_ns().saturating_sub(start_ns);

    let stats = cam.stats();
    let (events, thread_names) = match &recorder {
        Some(rec) => (rec.snapshot(), rec.thread_names()),
        None => (Vec::new(), Vec::new()),
    };
    TelemetryRun {
        snapshot: registry.snapshot(),
        events,
        thread_names,
        rounds,
        batch,
        requests: stats.requests,
        bytes: stats.requests * bs as u64,
        elapsed_ns,
    }
}

/// Runs the instrumented functional workload *and* a small traced CAM DES
/// microbenchmark into one shared flight recorder, and returns the run
/// together with the combined Chrome-trace JSON: process 1 carries the
/// functional engine's worker/doorbell tracks, process 2 the
/// simulated SSDs — one file, both engines, loadable in Perfetto.
pub fn run_traced(rounds: u64, batch: u64) -> (TelemetryRun, String) {
    use cam_hostos::IoDir;
    use cam_iostacks::des::{run_microbench_traced, Engine, MicrobenchConfig};
    use cam_telemetry::trace::chrome_trace;

    let rec = Arc::new(FlightRecorder::new());
    let run = run_recorded(rounds, batch, Some(Arc::clone(&rec)));
    let mut cfg = MicrobenchConfig::new(Engine::Cam, 2, IoDir::Read);
    cfg.requests = 128;
    cfg.queue_depth = 16;
    let _ = run_microbench_traced(cfg, Some(Arc::clone(&rec)));
    let events = rec.snapshot();
    let trace = chrome_trace(&events, &rec.thread_names());
    (run, trace)
}

/// Renders the `BENCH_repro.json` report: workload shape, throughput, and
/// p50/p99 for every protocol stage and for the doorbell→retire span. When
/// `cache` carries sweep results (see [`crate::cache_run`]), a `"cache"`
/// section records per-workload hit rate, coalesced misses, readahead
/// accuracy, and the cached-vs-uncached submission/latency deltas. When
/// `pipeline` carries the multi-channel pipelining experiment (see
/// [`crate::pipeline_run`]), a `"pipeline"` section records per-SSD
/// in-flight depth and read latency for the pipelined reactor vs. the
/// blocking baseline. When `fidelity` carries the two-driver comparison
/// (see [`crate::fidelity_run`]), a `"fidelity"` section records the
/// DES-vs-functional decision agreement and timing trends. When `slo`
/// carries the transient-overload SLO experiment (see
/// [`crate::health_run`]), a `"slo"` section records burn rates and the
/// per-driver lane-health transition sequences.
pub fn bench_json(
    run: &TelemetryRun,
    cache: Option<&[crate::cache_run::CacheWorkloadReport]>,
    pipeline: Option<&crate::pipeline_run::PipelineReport>,
    fidelity: Option<&crate::fidelity_run::FidelityReport>,
    slo: Option<&crate::health_run::HealthReport>,
) -> String {
    let mut out = String::with_capacity(2048);
    out.push_str("{\n");
    let _ = writeln!(
        out,
        "  \"workload\": {{\"rounds\": {}, \"batch\": {}, \"ops\": [\"read\", \"write\"]}},",
        run.rounds, run.batch
    );
    let _ = writeln!(
        out,
        "  \"throughput\": {{\"requests\": {}, \"bytes\": {}, \"elapsed_ns\": {}, \
         \"gbps\": {:.4}, \"kiops\": {:.2}}},",
        run.requests,
        run.bytes,
        run.elapsed_ns,
        run.gbps(),
        run.kiops()
    );
    out.push_str("  \"stages_ns\": {\n");
    for (i, op) in ["read", "write"].iter().enumerate() {
        let _ = write!(out, "    \"{op}\": {{");
        for (j, stage) in Stage::ALL.iter().enumerate() {
            let name = format!("cam_stage_ns{{op=\"{op}\",stage=\"{}\"}}", stage.name());
            let (p50, p99) = run
                .snapshot
                .histogram(&name)
                .map(|h| (h.p50, h.p99))
                .unwrap_or((0, 0));
            let comma = if j + 1 < Stage::ALL.len() { ", " } else { "" };
            let _ = write!(
                out,
                "\"{}\": {{\"p50\": {p50}, \"p99\": {p99}}}{comma}",
                stage.name()
            );
        }
        let _ = writeln!(out, "}}{}", if i == 0 { "," } else { "" });
    }
    out.push_str("  },\n  \"doorbell_to_retire_ns\": {\n");
    // Reads ride channel 0, writes channel 1 (the Fig. 7 convention).
    for (i, (op, channel)) in [("read", 0), ("write", 1)].iter().enumerate() {
        let name = format!("cam_batch_total_ns{{channel=\"{channel}\",op=\"{op}\"}}");
        let (p50, p99) = run
            .snapshot
            .histogram(&name)
            .map(|h| (h.p50, h.p99))
            .unwrap_or((0, 0));
        let _ = writeln!(
            out,
            "    \"{op}\": {{\"p50\": {p50}, \"p99\": {p99}}}{}",
            if i == 0 { "," } else { "" }
        );
    }
    out.push_str("  }");
    if let Some(reports) = cache {
        out.push_str(",\n  \"cache\": ");
        out.push_str(&crate::cache_run::cache_section_json(reports));
    }
    if let Some(report) = pipeline {
        out.push_str(",\n  \"pipeline\": ");
        out.push_str(&crate::pipeline_run::pipeline_section_json(report));
    }
    if let Some(report) = fidelity {
        out.push_str(",\n  \"fidelity\": ");
        out.push_str(&crate::fidelity_run::fidelity_section_json(report));
    }
    if let Some(report) = slo {
        out.push_str(",\n  \"slo\": ");
        out.push_str(&crate::health_run::slo_section_json(report));
    }
    // Per-channel doorbell→retire latency attribution, only available when
    // the run carried a flight recorder.
    if !run.events.is_empty() {
        let report = critical::analyze(&run.events);
        out.push_str(",\n  \"critical_path\": ");
        out.push_str(&report.to_json());
    }
    out.push_str("\n}\n");
    out
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn instrumented_run_populates_every_stage() {
        let run = run_instrumented(4, 16);
        assert_eq!(run.requests, 2 * 4 * 16);
        assert!(run.elapsed_ns > 0);
        assert_eq!(run.snapshot.counter("cam_batches_total"), 8);
        for op in ["read", "write"] {
            for stage in Stage::ALL {
                let name = format!("cam_stage_ns{{op=\"{op}\",stage=\"{}\"}}", stage.name());
                assert!(
                    run.snapshot.histogram(&name).map(|h| h.count).unwrap_or(0) >= 4,
                    "stage {name} unpopulated"
                );
            }
        }
    }

    #[test]
    fn bench_json_is_balanced_and_complete() {
        let run = run_instrumented(2, 8);
        let json = bench_json(&run, None, None, None, None);
        assert_eq!(json.matches('{').count(), json.matches('}').count());
        for key in [
            "\"workload\"",
            "\"throughput\"",
            "\"gbps\"",
            "\"stages_ns\"",
            "\"pickup\"",
            "\"retire\"",
            "\"doorbell_to_retire_ns\"",
            "\"p50\"",
            "\"p99\"",
        ] {
            assert!(json.contains(key), "missing {key} in {json}");
        }
        // No recorder → no critical-path section.
        assert!(!json.contains("\"critical_path\""));
    }

    #[test]
    fn recorded_run_carries_events_and_critical_path() {
        let rec = Arc::new(FlightRecorder::new());
        let run = run_recorded(3, 16, Some(Arc::clone(&rec)));
        // 3 rounds × (1 write + 1 read) = 6 batches, each with a doorbell
        // and a retire in the timeline.
        let retires = run
            .events
            .iter()
            .filter(|e| matches!(e.kind, cam_telemetry::EventKind::BatchRetire { .. }))
            .count();
        assert_eq!(retires, 6);
        let json = bench_json(&run, None, None, None, None);
        assert!(
            json.contains("\"critical_path\""),
            "missing section: {json}"
        );
        assert!(json.contains("\"dominant\""));
        let report = critical::analyze(&run.events);
        assert_eq!(report.batches.len(), 6);
        assert_eq!(report.channels.len(), 2, "read + write channels");
        for ch in &report.channels {
            assert!(ch.total_ns > 0);
        }
    }

    #[test]
    fn traced_run_exports_a_valid_two_engine_chrome_trace() {
        use cam_telemetry::trace::validate_chrome_trace;

        let (run, trace) = run_traced(3, 16);
        let summary = validate_chrome_trace(&trace).expect("trace must validate");
        // One async batch span per retired batch (plus the DES sim spans).
        let batches = run.snapshot.counter("cam_batches_total") as usize;
        assert_eq!(batches, 6);
        assert!(
            summary.async_begin >= batches,
            "async spans {} < batches {batches}",
            summary.async_begin
        );
        assert_eq!(summary.async_begin, summary.async_end);
        // Both engines present: functional (pid 1) and simulated (pid 2).
        assert_eq!(summary.processes, 2);
        // Distinct tracks for the workers and simulated SSDs; doorbell
        // pickup happens on the worker owning the channel, so worker 0's
        // track (channel 0, the reads) carries pickup instants and no
        // pickup lands anywhere but a worker track.
        assert!(
            summary.named_tracks.iter().any(|t| t == "cam-worker0"),
            "tracks: {:?}",
            summary.named_tracks
        );
        let track = |tid: u32| {
            run.thread_names
                .iter()
                .find(|(id, _)| *id == tid)
                .map_or("", |(_, name)| name.as_str())
        };
        let pickups: Vec<&str> = run
            .events
            .iter()
            .filter(|e| matches!(e.kind, cam_telemetry::EventKind::BatchPickup { .. }))
            .map(|e| track(e.thread))
            .collect();
        assert_eq!(pickups.len(), batches);
        assert!(pickups.contains(&"cam-worker0"), "pickups on: {pickups:?}");
        assert!(
            pickups.iter().all(|t| t.starts_with("cam-worker")),
            "pickups on: {pickups:?}"
        );
        assert!(summary.named_tracks.iter().any(|t| t == "sim-ssd0"));
        assert!(summary.named_tracks.iter().any(|t| t == "sim-ssd1"));
    }
}
