//! Instrumented functional-engine run: drives a multi-batch read+write
//! workload, stated as a [`DesBatchSource`], through the threaded engine
//! ([`run_threaded_source`]) with a shared [`MetricsRegistry`]; the
//! `bench` verb prints its throughput and the stage latency quantiles
//! straight from the registry, writes the registry under `--metrics`, and
//! exports its timeline, followed by a small DES run's
//! ([`record_des_microbench`]), under `--trace`.

use std::collections::VecDeque;
use std::sync::Arc;

use cam_core::{run_threaded_source, CamConfig, ChannelOp};
use cam_iostacks::cam_des::{CamDesBatch, DesBatchSource};
use cam_iostacks::{Rig, RigConfig};
use cam_telemetry::attribution::BatchAttribution;
use cam_telemetry::{Event, FlightRecorder, MetricsRegistry, MetricsSnapshot, Observability};

use crate::figures::require;

/// Result of one instrumented workload run.
pub struct TelemetryRun {
    /// Registry state after the workload (the full telemetry story).
    pub snapshot: MetricsSnapshot,
    /// Flight-recorder events of the run, merged and time-ordered. Empty
    /// unless the run was recorded (see [`run_recorded`]).
    pub events: Vec<Event>,
    /// Requests completed, from the control plane.
    pub requests: u64,
    /// Bytes moved (requests × block size).
    pub bytes: u64,
    /// Wall-clock time the workload's batches were in flight (one at a
    /// time, doorbell to retire), nanoseconds.
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

/// Runs `rounds` rounds of a `batch`-request write-back (channel 1) +
/// prefetch (channel 0) workload on a default 4-SSD rig, fully
/// instrumented, and returns the telemetry. With a flight recorder
/// attached the returned [`TelemetryRun`] also carries the merged event
/// timeline (for Chrome-trace export and latency attribution).
pub fn run_recorded(
    rounds: u64,
    batch: u64,
    recorder: Option<Arc<FlightRecorder>>,
) -> TelemetryRun {
    let rig = Rig::new(RigConfig::default());
    let registry = Arc::new(MetricsRegistry::new());
    let mut obs = Observability::with_registry(Arc::clone(&registry));
    obs.recorder = recorder.clone();
    let mut source = OneAtATime::default();
    for round in 0..rounds {
        let base = (round * batch) % (rig.array_blocks() - batch);
        let lbas: Vec<u64> = (base..base + batch).collect();
        source.steps.push_back((1, ChannelOp::Write, lbas.clone()));
        source.steps.push_back((0, ChannelOp::Read, lbas));
    }
    let stats = run_threaded_source(&rig, CamConfig::default(), obs, &mut source);
    TelemetryRun {
        snapshot: registry.snapshot(),
        events: recorder.map(|rec| rec.snapshot()).unwrap_or_default(),
        requests: stats.requests,
        bytes: stats.requests * u64::from(rig.block_size()),
        elapsed_ns: stats.total_io.as_ns(),
    }
}

/// Single-block batches, each published on its channel once the one
/// before it retired.
#[derive(Default)]
struct OneAtATime {
    steps: VecDeque<(usize, ChannelOp, Vec<u64>)>,
    in_flight: bool,
}

impl DesBatchSource for OneAtATime {
    fn next_batch(&mut self, channel: usize, _now_ns: u64) -> Option<(CamDesBatch, ChannelOp)> {
        if self.in_flight || self.steps.front()?.0 != channel {
            return None;
        }
        let (_, op, lbas) = self.steps.pop_front()?;
        self.in_flight = true;
        Some((CamDesBatch { lbas, blocks: 1 }, op))
    }

    fn on_retire(&mut self, _channel: usize, _now_ns: u64, _errors: u64) {
        self.in_flight = false;
    }

    fn is_drained(&self) -> bool {
        !self.in_flight && self.steps.is_empty()
    }
}

/// Records a small CAM DES microbenchmark (2 SSDs, 128 reads at queue
/// depth 16) into `recorder`. After an instrumented functional run
/// ([`run_recorded`]) into the same recorder, its Chrome trace holds both
/// engines, loadable in Perfetto: process 1 carries the functional
/// engine's worker/doorbell tracks, process 2 the simulated SSDs.
pub fn record_des_microbench(recorder: &Arc<FlightRecorder>) {
    use cam_hostos::IoDir;
    use cam_iostacks::des::{run_microbench_traced, Engine, MicrobenchConfig};

    let mut cfg = MicrobenchConfig::new(Engine::Cam, 2, IoDir::Read);
    cfg.requests = 128;
    cfg.queue_depth = 16;
    let _ = run_microbench_traced(cfg, Some(Arc::clone(recorder)));
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
        use cam_telemetry::trace::{chrome_trace, validate_chrome_trace};

        let rec = Arc::new(FlightRecorder::new());
        let run = run_recorded(3, 16, Some(Arc::clone(&rec)));
        record_des_microbench(&rec);
        let trace = chrome_trace(&rec.snapshot(), &rec.thread_names());
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
        let names = rec.thread_names();
        let track = |tid: u32| {
            (names.iter())
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
