//! `repro watch` — the live ops view over the windowed telemetry layer.
//!
//! Drives a two-channel read workload (channel 0 crosses a transient-fault
//! window on SSD 0, channel 1 stays on healthy media) through a fully
//! observed engine — bounded flight recorder, rolling [`OpsWindows`],
//! [`SloTracker`] — and renders a periodic per-lane / per-channel snapshot
//! table from the *windowed* samplers, so the numbers are "last few
//! seconds", not since-boot cumulative. `--once` renders a single
//! end-of-run snapshot (deterministic shape, for scripts and CI smoke) and
//! returns the `bench/out/health_snapshot.json` payload.

use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::Arc;
use std::time::Duration;

use cam_core::{CamConfig, CamContext, ChannelOp};
use cam_serving::{run_serving_threaded, Policy, ServingConfig, ServingCore};
use cam_telemetry::json::Json;
use cam_telemetry::{
    clock, health_state_label, obj, FlightRecorder, MetricsRegistry, Observability, OpsWindows,
    SloTracker, WindowConfig,
};
use cam_workloads::kv_cache::KvCacheConfig;
use parking_lot::Mutex;

use crate::health_run::{overload_rig, slo_config, N_SSDS};
use crate::Table;

const N_CHANNELS: usize = 2;
const BLOCK_SIZE: u32 = 4096;
const BATCH_REQS: u64 = 32;
const ROUNDS: usize = 24;
/// Tenants in the serving smoke that feeds the per-tenant table.
const SERVE_TENANTS: usize = 3;
/// Per-thread flight-recorder ring: small enough that a watch run
/// exercises the drop accounting (`cam_trace_dropped_total`).
const RING_CAPACITY: usize = 512;

/// Outcome of a watch session.
pub struct WatchReport {
    /// The final rendered snapshot (what `--once` prints).
    pub rendered: String,
    /// The `bench/out/health_snapshot.json` payload.
    pub snapshot_json: Json,
    /// Snapshot frames rendered (1 in `--once` mode).
    pub frames: u64,
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
/// only the final frame).
pub fn run_watch(once: bool, mut emit: impl FnMut(&str)) -> WatchReport {
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
    let cam = CamContext::attach_observed(
        &rig,
        CamConfig {
            n_channels: N_CHANNELS,
            workers: Some(1),
            max_retries: 3,
            retry_backoff_ns: 1_000,
            ..CamConfig::default()
        },
        obs,
    );

    let done = Arc::new(AtomicBool::new(false));
    let mut frames = 0u64;
    std::thread::scope(|s| {
        for ch in 0..N_CHANNELS {
            let dev = cam.device();
            let buf = cam
                .alloc(BATCH_REQS as usize * BLOCK_SIZE as usize)
                .expect("alloc watch buffer");
            let done = Arc::clone(&done);
            s.spawn(move || {
                let addr = buf.addr();
                // Channel 0 reads the fault window; channel 1 healthy LBAs.
                let base = ch as u64 * 64;
                let lbas: Vec<u64> = (base..base + BATCH_REQS).collect();
                for _ in 0..ROUNDS {
                    let ticket = dev
                        .submit_scatter(
                            ch,
                            ChannelOp::Read,
                            &lbas,
                            |i| addr + (i as u64) * u64::from(BLOCK_SIZE),
                            1,
                        )
                        .expect("submit");
                    ticket.wait().expect("watch batch retires");
                }
                if ch == 0 {
                    done.store(true, Ordering::Release);
                }
            });
        }
        if !once {
            while !done.load(Ordering::Acquire) {
                emit(&render(&registry, &windows, &slo, &tenant_reg));
                frames += 1;
                std::thread::sleep(Duration::from_millis(200));
            }
        }
    });
    // Stopping the engine drains the lanes, so the final frame shows
    // `recovered` rather than a stuck `overloaded`.
    drop(cam);
    let rendered = render(&registry, &windows, &slo, &tenant_reg);
    emit(&rendered);
    frames += 1;
    WatchReport {
        snapshot_json: snapshot_json(&registry, &windows, &slo, &tenant_reg),
        rendered,
        frames,
    }
}

/// Reads one tenant's gauge/counter row out of the serving registry.
/// Returns `(burn, p50_ns, p99_ns, hit_rate, admitted, throttled,
/// completed)`.
fn tenant_row(
    snap: &cam_telemetry::MetricsSnapshot,
    tenant: usize,
) -> (f64, u64, u64, f64, u64, u64, u64) {
    let g = |name: &str| snap.gauge(&format!("{name}{{tenant=\"{tenant}\"}}"));
    let c = |name: &str| snap.counter(&format!("{name}{{tenant=\"{tenant}\"}}"));
    (
        g("cam_slo_burn_rate") as f64 / 1000.0,
        g("cam_tenant_latency_p50_ns"),
        g("cam_tenant_latency_p99_ns"),
        g("cam_tenant_hit_rate_milli") as f64 / 1000.0,
        c("cam_tenant_admitted_total"),
        c("cam_tenant_throttled_total"),
        c("cam_tenant_completed_total"),
    )
}

/// Renders one per-lane / per-channel / per-tenant snapshot from the live
/// registries and the rolling windows at the current telemetry timestamp.
pub fn render(
    registry: &MetricsRegistry,
    windows: &OpsWindows,
    slo: &SloTracker,
    tenant_reg: &MetricsRegistry,
) -> String {
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
        let (burn, p50, p99, hit, admitted, throttled, completed) = tenant_row(&tsnap, tenant);
        tenants.row(vec![
            tenant.to_string(),
            format!("{burn:.2}"),
            p50.to_string(),
            p99.to_string(),
            format!("{:.1}%", hit * 100.0),
            admitted.to_string(),
            throttled.to_string(),
            completed.to_string(),
        ]);
    }
    format!(
        "{lanes}\n{channels}\n{workers}\n{tenants}\ntrace events dropped: {}\n",
        snap.counter("cam_trace_dropped_total")
    )
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

/// The `bench/out/health_snapshot.json` payload: the same per-lane / per-channel /
/// per-tenant view, machine-readable.
pub fn snapshot_json(
    registry: &MetricsRegistry,
    windows: &OpsWindows,
    slo: &SloTracker,
    tenant_reg: &MetricsRegistry,
) -> Json {
    let now = clock::now_ns();
    let snap = registry.snapshot();
    let tsnap = tenant_reg.snapshot();
    let lanes = (0..windows.ssd_complete.len()).map(|ssd| {
        let health = snap.gauge(&format!("cam_lane_health{{ssd=\"{ssd}\"}}"));
        obj! {
            "ssd" => ssd,
            "health" => health_state_label(health.min(u64::from(u8::MAX)) as u8),
            "inflight_peak" => snap.gauge(&format!("cam_inflight_peak{{ssd=\"{ssd}\"}}")),
            "window_retry_rate" =>
                Json::fixed(windows.ssd_retries[ssd].ratio_at(now).unwrap_or(0.0), 4),
            "window_complete_p99_ns" => windows.ssd_complete[ssd].quantile_at(now, 0.99),
        }
    });
    let channels = (0..slo.n_channels()).map(|ch| {
        let burn = slo.burn_rate(ch, now);
        obj! {
            "channel" => ch,
            "burn_short" => Json::fixed(burn.short, 2),
            "burn_long" => Json::fixed(burn.long, 2),
            "window_batches" => windows.channel_batch[ch].count_at(now),
            "window_batch_p99_ns" => windows.channel_batch[ch].quantile_at(now, 0.99),
        }
    });
    let workers = park_ratios(&snap).into_iter().map(|(worker, milli)| {
        obj! {
            "worker" => worker.parse::<u64>().ok(),
            "park_ratio" => Json::fixed(milli as f64 / 1000.0, 3),
        }
    });
    let tenants = (0..SERVE_TENANTS).map(|tenant| {
        let (burn, p50, p99, hit, admitted, throttled, completed) = tenant_row(&tsnap, tenant);
        obj! {
            "tenant" => tenant,
            "burn_rate" => Json::fixed(burn, 2),
            "p50_ns" => p50,
            "p99_ns" => p99,
            "hit_rate" => Json::fixed(hit, 3),
            "admitted" => admitted,
            "throttled" => throttled,
            "completed" => completed,
        }
    });
    obj! {
        "lanes" => Json::arr(lanes),
        "channels" => Json::arr(channels),
        "workers" => Json::arr(workers),
        "tenants" => Json::arr(tenants),
        "trace_dropped" => snap.counter("cam_trace_dropped_total"),
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn once_mode_renders_one_recovered_snapshot_with_json() {
        let mut emitted = Vec::new();
        let report = run_watch(true, |frame| emitted.push(frame.to_string()));
        assert_eq!(report.frames, 1, "--once renders exactly one frame");
        assert_eq!(emitted.len(), 1);
        // Lane 0 took faults and drained: the final frame shows recovered;
        // lane 1 never faulted and stays healthy.
        assert!(
            report.rendered.contains("recovered"),
            "no recovery in:\n{}",
            report.rendered
        );
        assert!(report.rendered.contains("healthy"));
        assert!(report.rendered.contains("lanes (rolling window)"));
        assert!(report.rendered.contains("burn short"));
        assert!(report.rendered.contains("workers (rolling window)"));
        assert!(report.rendered.contains("tenants (rolling window)"));
        assert!(report.rendered.contains("trace events dropped:"));
        // The machine-readable twin carries the same story, typed.
        let json = &report.snapshot_json;
        let rows = |key: &str| json.get(key).and_then(Json::as_arr).expect("array");
        let lanes = rows("lanes");
        assert_eq!((lanes.len(), rows("channels").len()), (N_SSDS, N_CHANNELS));
        let health = |lane: &Json| lane.get("health").and_then(Json::as_str).map(str::to_owned);
        assert_eq!(health(&lanes[0]).as_deref(), Some("recovered"));
        assert_eq!(health(&lanes[1]).as_deref(), Some("healthy"));
        let num = |row: &Json, key: &str| row.get(key).and_then(Json::as_f64).expect("number");
        assert!(num(&lanes[0], "window_retry_rate") > 0.0, "{json}");
        assert!(rows("channels").iter().all(|c| num(c, "burn_short") >= 0.0));
        assert!(!rows("workers").is_empty());
        assert!(json.get("trace_dropped").and_then(Json::as_u64).is_some());
        // The serving smoke retired real multi-tenant traffic: every
        // tenant row reports completions and a sub-unity hit rate.
        let tenants = rows("tenants");
        assert_eq!(tenants.len(), SERVE_TENANTS);
        for t in tenants {
            assert!(
                num(t, "completed") > 0.0,
                "tenant retired no traffic: {json}"
            );
            let hit = num(t, "hit_rate");
            assert!((0.0..1.0).contains(&hit), "degenerate hit rate: {json}");
        }
    }
}
