//! Instrumented functional-engine run: drives a multi-batch read+write
//! workload through [`CamContext`] with a shared [`MetricsRegistry`]; the
//! `bench` verb prints its throughput and the stage latency quantiles
//! straight from the registry.

use std::sync::Arc;

use cam_core::{CamConfig, CamContext};
use cam_iostacks::{Rig, RigConfig};
use cam_telemetry::attribution::BatchAttribution;
use cam_telemetry::{
    clock, Event, FlightRecorder, MetricsRegistry, MetricsSnapshot, Observability,
};

use crate::figures::require;

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
/// With a flight recorder attached the returned [`TelemetryRun`] also
/// carries the merged event timeline (for Chrome-trace export and
/// latency attribution) alongside the metric snapshot.
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

/// The instrumented run's acceptance bars (counter facts of one run): the
/// read channel recorded a doorbell→retire distribution, and the timeline
/// attributes batches on both the read and the write channel.
pub fn bars(run: &TelemetryRun, batches: &[BatchAttribution]) -> Vec<String> {
    let mut failed = Vec::new();
    let read_p99 = run
        .snapshot
        .histogram("cam_batch_total_ns{channel=\"0\",op=\"read\"}")
        .map_or(0, |h| h.p99);
    require(
        &mut failed,
        read_p99 > 0,
        "no doorbell->retire latency recorded on the read channel".into(),
    );
    let channels: std::collections::BTreeSet<u16> = batches.iter().map(|b| b.channel).collect();
    require(
        &mut failed,
        channels.len() >= 2,
        format!("attribution must cover batches on >= 2 channels, got {channels:?}"),
    );
    failed
}

#[cfg(test)]
mod tests {
    use super::*;
    use cam_telemetry::Stage;

    #[test]
    fn instrumented_run_populates_every_stage() {
        let run = run_recorded(4, 16, None);
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
    fn recorded_run_carries_events_and_attributions() {
        let rec = Arc::new(FlightRecorder::new());
        let run = run_recorded(3, 16, Some(Arc::clone(&rec)));
        // 3 rounds × (1 write + 1 read) = 6 batches, each with a doorbell
        // and a retire in the timeline.
        let batches = cam_telemetry::attribution::analyze(&run.events);
        assert_eq!(batches.len(), 6);
        assert_eq!(bars(&run, &batches), Vec::<String>::new());
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
