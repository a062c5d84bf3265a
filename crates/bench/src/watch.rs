//! `repro watch` — the live ops view over the windowed telemetry layer.
//!
//! Drives a two-channel read workload (channel 0 crosses a transient-fault
//! window on SSD 0, channel 1 stays on healthy media) through a fully
//! observed engine — bounded flight recorder, rolling [`OpsWindows`],
//! [`SloTracker`] — and renders a periodic per-lane / per-channel snapshot
//! table from the *windowed* samplers, so the numbers are "last few
//! seconds", not since-boot cumulative. `--once` renders a single
//! end-of-run snapshot (deterministic shape, for scripts and CI smoke),
//! whose tables the CLI also writes to `bench/out/health_snapshot.json`.

use std::fmt;
use std::sync::Arc;
use std::time::Duration;

use cam_core::CamConfig;
use cam_iostacks::cam_des::CamDesBatch;
use cam_serving::{run_serving_threaded, Policy, ServingConfig, ServingCore};
use cam_telemetry::{
    clock, health_state_label, FlightRecorder, MetricsRegistry, Observability, OpsWindows,
    SloTracker, WindowConfig,
};
use cam_workloads::kv_cache::KvCacheConfig;
use parking_lot::Mutex;

use crate::fidelity_run::run_threaded;
use crate::health_run::{overload_rig, slo_config, N_SSDS};
use crate::Table;

const N_CHANNELS: usize = 2;
const BATCH_REQS: u64 = 32;
const ROUNDS: usize = 24;
/// Tenants in the serving smoke that feeds the per-tenant table.
const SERVE_TENANTS: usize = 3;
/// Per-thread flight-recorder ring: small enough that a watch run
/// exercises the drop accounting (`cam_trace_dropped_total`).
const RING_CAPACITY: usize = 512;

/// One rendered snapshot; its `Display` is the frame the CLI prints.
pub struct Frame {
    /// The lanes, channels, workers and tenants tables, in print order.
    pub tables: Vec<Table>,
    /// Flight-recorder events dropped so far (`cam_trace_dropped_total`).
    pub dropped: u64,
}

impl fmt::Display for Frame {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        for table in &self.tables {
            writeln!(f, "{table}")?;
        }
        writeln!(f, "trace events dropped: {}", self.dropped)
    }
}

/// A short multi-tenant serving run on the threaded driver; its registry
/// (tenant-labeled burn / latency / hit-rate gauges) feeds the watch
/// view's per-tenant table. Kept on its own registry so the serving
/// engine's lane gauges never clobber the fault workload's.
fn run_serving_smoke() -> Arc<MetricsRegistry> {
    let mut wl = KvCacheConfig::uniform(SERVE_TENANTS, 4, 24);
    wl.seed = 0x005e_5511;
    let mut cfg = ServingConfig::for_workload(wl, Policy::Drr);
    // GPU budget below even one session's full extent, so the demand
    // channel pages and hit rates are meaningfully below 1.
    cfg.gpu_budget_blocks = cfg.workload.session_blocks / 2;
    cfg.max_batch_blocks = 32;
    let registry = Arc::new(MetricsRegistry::new());
    let core = Arc::new(Mutex::new(ServingCore::new(cfg, Some(&registry))));
    let _ = run_serving_threaded(core, N_SSDS, Some(Arc::clone(&registry)));
    registry
}

/// Runs the watch workload; `emit` receives each rendered frame (live
/// mode renders every ~200 ms until the workload drains; `--once` renders
/// only the final frame). Returns the final frame.
pub fn run_watch(once: bool, mut emit: impl FnMut(&Frame)) -> Frame {
    // The serving smoke runs first: its end-of-run gauges hold steady, so
    // every frame (live and final) carries the per-tenant rows.
    let tenant_reg = run_serving_smoke();
    let (rig, _faulty) = overload_rig();

    let registry = Arc::new(MetricsRegistry::new());
    let recorder = Arc::new(FlightRecorder::with_capacity(RING_CAPACITY));
    recorder.attach_dropped_counter(&registry);
    let windows = Arc::new(OpsWindows::new(WindowConfig::default(), N_SSDS, N_CHANNELS));
    let slo = Arc::new(SloTracker::new(slo_config(), N_CHANNELS));
    let obs = Observability::recorded(Arc::clone(&registry), Arc::clone(&recorder))
        .with_windows(Arc::clone(&windows))
        .with_slo(Arc::clone(&slo));
    let cfg = CamConfig {
        n_channels: N_CHANNELS,
        workers: Some(1),
        max_retries: 3,
        retry_backoff_ns: 1_000,
        ..CamConfig::default()
    };

    // Channel 0 reads the fault window; channel 1 healthy LBAs.
    let workload: Vec<Vec<CamDesBatch>> = (0..N_CHANNELS as u64)
        .map(|ch| {
            let lbas = (ch * 64..ch * 64 + BATCH_REQS).collect();
            vec![CamDesBatch { lbas, blocks: 1 }; ROUNDS]
        })
        .collect();
    std::thread::scope(|s| {
        let driver = s.spawn(|| run_threaded(&rig, cfg, obs, &workload));
        while !once && !driver.is_finished() {
            emit(&render(&registry, &windows, &slo, &tenant_reg));
            std::thread::sleep(Duration::from_millis(200));
        }
    });
    // The runner stopped the engine, which drains the lanes, so the final
    // frame shows `recovered` rather than a stuck `overloaded`.
    let last = render(&registry, &windows, &slo, &tenant_reg);
    emit(&last);
    last
}

/// Renders one per-lane / per-channel / per-tenant snapshot from the live
/// registries and the rolling windows at the current telemetry timestamp.
fn render(
    registry: &MetricsRegistry,
    windows: &OpsWindows,
    slo: &SloTracker,
    tenant_reg: &MetricsRegistry,
) -> Frame {
    let now = clock::now_ns();
    let snap = registry.snapshot();
    let mut lanes = Table::new(
        "lanes (rolling window)",
        &[
            "ssd",
            "health",
            "inflight",
            "peak",
            "retries/group",
            "complete p99 (ns)",
        ],
    );
    for ssd in 0..windows.ssd_complete.len() {
        let health = snap.gauge(&format!("cam_lane_health{{ssd=\"{ssd}\"}}"));
        let retry_rate = windows.ssd_retries[ssd]
            .ratio_at(now)
            .map_or_else(|| "-".into(), |r| format!("{r:.3}"));
        lanes.row(vec![
            ssd.to_string(),
            health_state_label(health.min(u64::from(u8::MAX)) as u8).to_string(),
            snap.gauge(&format!("cam_inflight{{ssd=\"{ssd}\"}}"))
                .to_string(),
            snap.gauge(&format!("cam_inflight_peak{{ssd=\"{ssd}\"}}"))
                .to_string(),
            retry_rate,
            windows.ssd_complete[ssd].quantile_at(now, 0.99).to_string(),
        ]);
    }
    let mut channels = Table::new(
        "channels (rolling window)",
        &[
            "channel",
            "burn short",
            "burn long",
            "batches",
            "batch p99 (ns)",
        ],
    );
    for ch in 0..slo.n_channels() {
        let burn = slo.burn_rate(ch, now);
        channels.row(vec![
            ch.to_string(),
            format!("{:.2}", burn.short),
            format!("{:.2}", burn.long),
            windows.channel_batch[ch].count_at(now).to_string(),
            windows.channel_batch[ch].quantile_at(now, 0.99).to_string(),
        ]);
    }
    let mut workers = Table::new("workers (rolling window)", &["worker", "park ratio"]);
    for (worker, milli) in park_ratios(&snap) {
        workers.row(vec![worker, format!("{:.3}", milli as f64 / 1000.0)]);
    }
    let mut tenants = Table::new(
        "tenants (rolling window)",
        &[
            "tenant",
            "burn",
            "p50 (ns)",
            "p99 (ns)",
            "hit rate",
            "admitted",
            "throttled",
            "done",
        ],
    );
    let tsnap = tenant_reg.snapshot();
    for tenant in 0..SERVE_TENANTS {
        let g = |name: &str| tsnap.gauge(&format!("{name}{{tenant=\"{tenant}\"}}"));
        let c = |name: &str| tsnap.counter(&format!("{name}{{tenant=\"{tenant}\"}}"));
        tenants.row(vec![
            tenant.to_string(),
            format!("{:.2}", g("cam_slo_burn_rate") as f64 / 1000.0),
            g("cam_tenant_latency_p50_ns").to_string(),
            g("cam_tenant_latency_p99_ns").to_string(),
            format!("{:.1}%", g("cam_tenant_hit_rate_milli") as f64 / 10.0),
            c("cam_tenant_admitted_total").to_string(),
            c("cam_tenant_throttled_total").to_string(),
            c("cam_tenant_completed_total").to_string(),
        ]);
    }
    Frame {
        tables: vec![lanes, channels, workers, tenants],
        dropped: snap.counter("cam_trace_dropped_total"),
    }
}

/// Every `cam_worker_park_ratio{worker}` gauge in the snapshot, as
/// `(worker label, milli-ratio)` rows. The thread-per-core engine
/// refreshes these at least every park bound (50 ms), so even an idle
/// plane reports a current share of parked time.
fn park_ratios(snap: &cam_telemetry::MetricsSnapshot) -> Vec<(String, u64)> {
    snap.gauges
        .iter()
        .filter_map(|(name, &v)| {
            let rest = name.strip_prefix("cam_worker_park_ratio{worker=\"")?;
            Some((rest.strip_suffix("\"}")?.to_string(), v))
        })
        .collect()
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn once_mode_renders_one_recovered_snapshot() {
        let mut emitted = Vec::new();
        let last = run_watch(true, |frame| emitted.push(frame.to_string()));
        assert_eq!(emitted, [last.to_string()], "--once renders one frame");
        let rendered = &emitted[0];
        assert!(rendered.contains(&format!("trace events dropped: {}\n", last.dropped)));
        let [lanes, channels, workers, tenants] = &last.tables[..] else {
            panic!("four tables, got:\n{rendered}")
        };
        let titles = [lanes, channels, workers, tenants].map(Table::title);
        let expected = ["lanes", "channels", "workers", "tenants"];
        assert_eq!(titles, expected.map(|t| format!("{t} (rolling window)")));
        assert_eq!((lanes.len(), channels.len()), (N_SSDS, N_CHANNELS));
        // Lane 0 took faults and drained: the final frame shows recovered;
        // lane 1 never faulted and stays healthy.
        assert_eq!(lanes.find("0", "health"), Some("recovered"));
        assert_eq!(lanes.find("1", "health"), Some("healthy"));
        let num = |t: &Table, row: &str, col: &str| -> f64 {
            let cell = t.find(row, col).expect("cell").trim_end_matches('%');
            cell.parse()
                .unwrap_or_else(|_| panic!("{row}/{col} in:\n{rendered}"))
        };
        assert!(num(lanes, "0", "retries/group") > 0.0, "{rendered}");
        assert!((0..N_CHANNELS).all(|c| num(channels, &c.to_string(), "burn short") >= 0.0));
        assert!(!workers.is_empty());
        // The serving smoke retired real multi-tenant traffic: every
        // tenant row reports completions and a sub-unity hit rate.
        assert_eq!(tenants.len(), SERVE_TENANTS);
        for t in 0..SERVE_TENANTS {
            let t = t.to_string();
            assert!(
                num(tenants, &t, "done") > 0.0,
                "tenant retired no traffic: {rendered}"
            );
            let hit = num(tenants, &t, "hit rate");
            assert!(
                (0.0..100.0).contains(&hit),
                "degenerate hit rate: {rendered}"
            );
        }
    }
}
