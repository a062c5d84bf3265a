//! Multi-channel pipelining experiment: the same contended read workload
//! driven through the pipelined reactor and through the blocking
//! group-at-a-time baseline, with the per-SSD in-flight depth sampled live
//! from the `cam_inflight{ssd}` gauges.
//!
//! Four channels each keep one single-block-per-SSD read batch outstanding
//! against a slow 4-SSD rig (a real service latency per burst), so batches
//! from different channels *can* overlap on every SSD. The pipelined
//! reactor keeps them overlapped — sustained in-flight depth above one per
//! SSD and one amortized service round for the whole burst — while the
//! blocking baseline serializes group after group and pays the service
//! latency per command.

use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::Arc;
use std::time::Duration;

use cam_core::{CamConfig, CamContext, ChannelOp};
use cam_iostacks::{Rig, RigConfig};
use cam_telemetry::json::Json;
use cam_telemetry::{obj, MetricsRegistry, Observability};

use crate::fidelity_run::mode_json;
use crate::figures::require;

const N_SSDS: usize = 4;
const N_CHANNELS: usize = 4;
/// Injected device service latency per burst — slow enough that overlap
/// (or its absence) dominates the measured latency.
const SERVICE_LATENCY: Duration = Duration::from_micros(200);

/// One mode's measurements.
pub struct PipelineModeReport {
    /// Whether the reactor ran pipelined.
    pub pipelined: bool,
    /// Time-mean in-flight depth per SSD, sampled from `cam_inflight{ssd}`.
    pub inflight_mean: Vec<f64>,
    /// High-water in-flight depth per SSD (`cam_inflight_peak{ssd}`).
    pub inflight_peak: Vec<u64>,
    /// Mean doorbell→retire read latency across all channels, nanoseconds.
    pub mean_read_ns: u64,
    /// Read batches retired.
    pub batches: u64,
}

/// The pipelined run and its blocking baseline, side by side.
pub struct PipelineReport {
    /// Measurements with the pipelined reactor.
    pub pipelined: PipelineModeReport,
    /// Measurements with the blocking group-at-a-time baseline.
    pub blocking: PipelineModeReport,
}

impl PipelineReport {
    /// Blocking-over-pipelined mean read latency ratio (> 1 = pipelining
    /// wins).
    pub fn speedup(&self) -> f64 {
        if self.pipelined.mean_read_ns == 0 {
            0.0
        } else {
            self.blocking.mean_read_ns as f64 / self.pipelined.mean_read_ns as f64
        }
    }
}

/// Runs the experiment in both modes: `rounds` read batches per channel,
/// four channels driven concurrently.
pub fn run_pipeline_experiment(rounds: u64) -> PipelineReport {
    PipelineReport {
        pipelined: run_mode(true, rounds),
        blocking: run_mode(false, rounds),
    }
}

/// Runs `drive` (the workload's channel threads) while a sampler takes the
/// time-mean of the live per-SSD `cam_inflight{ssd}` gauges every 20 us,
/// then reads the high-water gauges and the read channels' doorbell→retire
/// histograms out of `registry`.
pub(crate) fn measure_reads(
    cam: &CamContext,
    registry: &MetricsRegistry,
    pipelined: bool,
    n_ssds: usize,
    n_channels: usize,
    drive: impl FnOnce(),
) -> PipelineModeReport {
    let metrics = Arc::clone(cam.metrics());
    let stop = Arc::new(AtomicBool::new(false));
    let sampler = {
        let stop = Arc::clone(&stop);
        std::thread::spawn(move || {
            let mut sums = vec![0u64; n_ssds];
            let mut samples = 0u64;
            while !stop.load(Ordering::Acquire) {
                for (ssd, sum) in sums.iter_mut().enumerate() {
                    *sum += metrics.inflight[ssd].get();
                }
                samples += 1;
                std::thread::sleep(Duration::from_micros(20));
            }
            (sums, samples)
        })
    };
    drive();
    stop.store(true, Ordering::Release);
    let (sums, samples) = sampler.join().expect("sampler");

    let snapshot = registry.snapshot();
    let (mut total_ns, mut batches) = (0u128, 0u64);
    for ch in 0..n_channels {
        let name = format!("cam_batch_total_ns{{channel=\"{ch}\",op=\"read\"}}");
        if let Some(h) = snapshot.histogram(&name) {
            total_ns += h.sum;
            batches += h.count;
        }
    }
    PipelineModeReport {
        pipelined,
        inflight_mean: sums
            .iter()
            .map(|&s| s as f64 / samples.max(1) as f64)
            .collect(),
        inflight_peak: (0..n_ssds)
            .map(|ssd| snapshot.gauge(&format!("cam_inflight_peak{{ssd=\"{ssd}\"}}")))
            .collect(),
        mean_read_ns: (total_ns / u128::from(batches.max(1))) as u64,
        batches,
    }
}

fn run_mode(pipelined: bool, rounds: u64) -> PipelineModeReport {
    let rig = Rig::new(RigConfig {
        n_ssds: N_SSDS,
        blocks_per_ssd: 4096,
        stripe_blocks: 1,
        burst_latency: Some(SERVICE_LATENCY),
        ..RigConfig::default()
    });
    let registry = Arc::new(MetricsRegistry::new());
    let cfg = CamConfig {
        n_channels: N_CHANNELS,
        // One worker owning all four SSDs: any overlap across channels must
        // come from the reactor's pipelining, not from thread parallelism.
        workers: Some(1),
        pipelined,
        ..CamConfig::default()
    };
    let obs = Observability::with_registry(Arc::clone(&registry));
    let cam = CamContext::attach_observed(&rig, cfg, obs);

    // Four driver threads, one per channel, each keeping one batch of one
    // single-block read per SSD outstanding (stripe 1: LBA k lands on SSD
    // k mod 4), over disjoint LBA windows.
    let drive = || {
        std::thread::scope(|s| {
            for ch in 0..N_CHANNELS {
                let dev = cam.device();
                let buf = cam.alloc(N_SSDS * cam.block_size() as usize).unwrap();
                s.spawn(move || {
                    let base = ch as u64 * 512;
                    for round in 0..rounds {
                        let lo = base + (round % 64) * N_SSDS as u64;
                        let lbas: Vec<u64> = (lo..lo + N_SSDS as u64).collect();
                        let ticket = dev
                            .submit(ch, ChannelOp::Read, &lbas, buf.addr())
                            .expect("submit");
                        ticket.wait().expect("batch retires cleanly");
                    }
                });
            }
        })
    };
    measure_reads(&cam, &registry, pipelined, N_SSDS, N_CHANNELS, drive)
}

/// The `"pipeline"` section of `BENCH_repro.json`.
pub fn pipeline_section_json(report: &PipelineReport) -> Json {
    let mode = |m: &PipelineModeReport| {
        mode_json(
            &m.inflight_mean,
            &m.inflight_peak,
            m.mean_read_ns,
            m.batches,
        )
    };
    obj! {
        "workload" => obj! {
            "channels" => N_CHANNELS,
            "ssds" => N_SSDS,
            "service_latency_ns" => SERVICE_LATENCY.as_nanos() as u64,
        },
        "pipelined" => mode(&report.pipelined),
        "blocking" => mode(&report.blocking),
        "read_latency_speedup" => Json::fixed(report.speedup(), 2),
    }
}

/// The acceptance bars, all wall-clock (sampled gauges and measured
/// latency): under multi-channel load the pipelined reactor sustains an
/// in-flight depth above one on every SSD — time-mean and peak — and its
/// mean doorbell->retire read latency is no worse than the blocking
/// group-at-a-time baseline's.
pub fn bars(report: &PipelineReport) -> Vec<String> {
    let mut failed = Vec::new();
    let p = &report.pipelined;
    require(
        &mut failed,
        p.inflight_mean.iter().all(|&d| d > 1.0),
        format!(
            "pipelined mean in-flight depth must exceed 1 on every SSD: {:?}",
            p.inflight_mean
        ),
    );
    require(
        &mut failed,
        p.inflight_peak.iter().all(|&d| d > 1),
        format!(
            "pipelined peak in-flight depth must exceed 1 on every SSD: {:?}",
            p.inflight_peak
        ),
    );
    require(
        &mut failed,
        p.mean_read_ns <= report.blocking.mean_read_ns,
        format!(
            "pipelined mean read {} ns slower than blocking {} ns",
            p.mean_read_ns, report.blocking.mean_read_ns
        ),
    );
    failed
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn both_modes_retire_every_batch() {
        // Only the counter facts live here; the sampled depth and the
        // latency comparison are wall-clock clauses of [`bars`].
        let report = run_pipeline_experiment(16);
        assert_eq!(report.pipelined.batches, 16 * N_CHANNELS as u64);
        assert_eq!(report.blocking.batches, 16 * N_CHANNELS as u64);
    }
}
