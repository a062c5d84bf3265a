//! The two drivers that pump a [`ServingCore`]: the DES driver (virtual
//! time, thousands of sessions in milliseconds of CPU) and the threaded
//! driver (real `CamContext` batch tickets on the wall clock). Both obey
//! the same pump contract, so a run's metric schema is identical across
//! drivers — only the timeline differs.

use std::sync::Arc;

use cam_core::{CamConfig, CamContext};
use cam_iostacks::cam_des::{
    run_cam_des_source, CamDesBatch, CamDesConfig, CamDesObs, CamDesReport, DesBatchSource,
};
use cam_iostacks::des::cam_thread_cost;
use cam_iostacks::{Rig, RigConfig};
use cam_protocol::ChannelOp;
use cam_telemetry::{clock, MetricsRegistry, Observability};
use parking_lot::Mutex;

use crate::core::{ServingCore, ServingStats, N_CHANNELS};

/// Adapts a shared [`ServingCore`] to the DES driver's batch-source hook.
pub struct CoreSource(pub Arc<Mutex<ServingCore>>);

impl DesBatchSource for CoreSource {
    fn next_batch(&mut self, channel: usize, now_ns: u64) -> Option<(CamDesBatch, ChannelOp)> {
        self.0
            .lock()
            .next_batch(channel, now_ns)
            .map(|(lbas, op)| (CamDesBatch { lbas, blocks: 1 }, op))
    }

    fn on_retire(&mut self, channel: usize, now_ns: u64, errors: u64) {
        self.0.lock().on_retire(channel, now_ns, errors);
    }

    fn next_ready_ns(&mut self, now_ns: u64) -> Option<u64> {
        self.0.lock().next_ready_ns(now_ns)
    }

    fn is_drained(&self) -> bool {
        self.0.lock().is_drained()
    }
}

/// One driver's results: the serving stats plus what the substrate saw.
pub struct ServingRun {
    /// Per-tenant serving stats (identical schema across drivers).
    pub stats: ServingStats,
    /// Batches the substrate retired (cross-check against `stats.batches`).
    pub substrate_batches: u64,
}

/// The DES substrate every serving run uses: a fault-free calibrated
/// P5510 array under the pipelined reactor.
fn des_config(n_ssds: usize) -> CamDesConfig {
    CamDesConfig {
        // Charged as if one worker polled every queue pair.
        thread_cost: cam_thread_cost(n_ssds as f64),
        ..CamDesConfig::calibrated(n_ssds, 2.min(n_ssds))
    }
}

/// Runs the core to completion on the DES driver. Returns the serving
/// stats and the underlying [`CamDesReport`].
pub fn run_serving_des(core: Arc<Mutex<ServingCore>>, n_ssds: usize) -> (ServingRun, CamDesReport) {
    let report = run_cam_des_source(
        des_config(n_ssds),
        N_CHANNELS,
        Box::new(CoreSource(Arc::clone(&core))),
        None,
        CamDesObs {
            windows: None,
            slo: None,
            lifecycle: false,
        },
    );
    let stats = core.lock().report(report.duration.as_ns());
    (
        ServingRun {
            stats,
            substrate_batches: report.batches,
        },
        report,
    )
}

/// Runs the core to completion on the threaded functional driver: a real
/// `CamContext` over sparse media, one outstanding batch ticket per
/// channel, polled on the wall clock. `registry` (when given) should be
/// the registry the core's [`TenantMetrics`](cam_telemetry::TenantMetrics)
/// were built against, so control-plane and tenant metrics land together.
pub fn run_serving_threaded(
    core: Arc<Mutex<ServingCore>>,
    n_ssds: usize,
    registry: Option<Arc<MetricsRegistry>>,
) -> ServingRun {
    let (capacity, max_batch) = {
        let c = core.lock();
        (c.capacity_blocks(), c.max_batch_blocks())
    };
    let rig_cfg = RigConfig {
        n_ssds,
        blocks_per_ssd: capacity.div_ceil(n_ssds as u64).max(64),
        ..RigConfig::default()
    };
    let block_size = u64::from(rig_cfg.block_size);
    let rig = Rig::new(rig_cfg);
    let obs = match registry {
        Some(reg) => Observability::with_registry(reg),
        None => Observability::default(),
    };
    let cam = CamContext::attach_observed(
        &rig,
        CamConfig {
            n_channels: N_CHANNELS,
            workers: Some(2.min(n_ssds)),
            ..CamConfig::default()
        },
        obs,
    );
    let dev = cam.device();
    // One buffer per channel, sized for the largest batch; the oversize
    // guard can exceed it, so destinations wrap (read data is not
    // consumed by the serving model).
    let buf_blocks = max_batch.max(1);
    let bufs: Vec<_> = (0..N_CHANNELS)
        .map(|_| {
            cam.alloc(buf_blocks as usize * block_size as usize)
                .expect("serving buffer")
        })
        .collect();
    let mut tickets: [Option<cam_core::BatchTicket>; N_CHANNELS] = [None, None, None];

    loop {
        let mut all_idle = true;
        for ch in 0..N_CHANNELS {
            if let Some(t) = &tickets[ch] {
                if !t.is_done() {
                    all_idle = false;
                    continue;
                }
                tickets[ch] = None;
                core.lock().on_retire(ch, clock::now_ns(), 0);
            }
            let next = core.lock().next_batch(ch, clock::now_ns());
            if let Some((lbas, op)) = next {
                let addr = bufs[ch].addr();
                let ticket = dev
                    .submit_scatter(
                        ch,
                        op,
                        &lbas,
                        |i| addr + (i as u64 % buf_blocks) * block_size,
                        1,
                    )
                    .expect("serving submit");
                tickets[ch] = Some(ticket);
                all_idle = false;
            }
        }
        if all_idle {
            if core.lock().is_drained() {
                break;
            }
            // Admission-throttled on the wall clock: let time pass.
            std::thread::yield_now();
        }
    }
    let stats = core.lock().report(clock::now_ns());
    let substrate_batches = cam.stats().batches;
    drop(cam);
    ServingRun {
        stats,
        substrate_batches,
    }
}

#[cfg(test)]
mod tests {
    use std::cell::Cell;
    use std::rc::Rc;

    use super::*;
    use crate::admission::AdmissionConfig;
    use crate::core::ServingConfig;
    use crate::sched::Policy;
    use cam_workloads::kv_cache::KvCacheConfig;

    fn small_core(seed: u64) -> ServingCore {
        let mut wl = KvCacheConfig::uniform(3, 6, 40);
        wl.seed = seed;
        let mut cfg = ServingConfig::for_workload(wl, Policy::Drr);
        cfg.max_batch_blocks = 64;
        // Two sessions' worth of GPU budget: the other sixteen page.
        cfg.gpu_budget_blocks = cfg.workload.session_blocks * 2;
        ServingCore::new(cfg, None)
    }

    #[test]
    fn des_driver_retires_every_tenant_and_is_deterministic() {
        let run = || {
            let core = Arc::new(Mutex::new(small_core(11)));
            let (run, report) = run_serving_des(core, 2);
            assert!(report.duration.as_ns() > 0);
            (
                report.duration.as_ns(),
                run.stats.batches,
                run.stats
                    .tenants
                    .iter()
                    .map(|t| (t.completed, t.p99_ns))
                    .collect::<Vec<_>>(),
            )
        };
        let a = run();
        assert!(a.2.iter().all(|&(completed, _)| completed == 40));
        assert_eq!(a, run(), "DES serving run must be deterministic");
    }

    /// `CoreSource` that disconnects tenant 0 once tenant 1 has completed
    /// `live_steps`, counting the driver's wake-up queries on the way.
    struct DisconnectPaused {
        inner: CoreSource,
        live_steps: u64,
        wakeup_queries: Rc<Cell<u64>>,
    }

    impl DesBatchSource for DisconnectPaused {
        fn next_batch(&mut self, channel: usize, now_ns: u64) -> Option<(CamDesBatch, ChannelOp)> {
            self.inner.next_batch(channel, now_ns)
        }

        fn on_retire(&mut self, channel: usize, now_ns: u64, errors: u64) {
            self.inner.on_retire(channel, now_ns, errors);
            let mut core = self.inner.0.lock();
            if core.report(now_ns).tenants[1].completed == self.live_steps {
                core.disconnect(0, now_ns);
            }
        }

        fn next_ready_ns(&mut self, now_ns: u64) -> Option<u64> {
            self.wakeup_queries.set(self.wakeup_queries.get() + 1);
            self.inner.next_ready_ns(now_ns)
        }

        fn is_drained(&self) -> bool {
            self.inner.is_drained()
        }
    }

    /// A tenant whose bucket never refills (rate 0) used to overflow
    /// `ready_at` (debug: panic; release: a wake-up one virtual nanosecond
    /// ahead, re-armed forever). It must instead just wait: the live tenant
    /// runs to completion on its own timers, and the run ends once the
    /// paused tenant is disconnected.
    #[test]
    fn paused_tenant_waits_for_disconnect_without_a_timer_storm() {
        let mut wl = KvCacheConfig::uniform(2, 4, 40);
        wl.seed = 17;
        let mut cfg = ServingConfig::for_workload(wl, Policy::Drr);
        cfg.admission[0] = AdmissionConfig {
            rate_blocks_per_s: 0.0,
            burst_blocks: 16.0,
        };
        // The live tenant throttles too, so real wake-ups are armed beside
        // the never-ready one.
        cfg.admission[1] = AdmissionConfig {
            rate_blocks_per_s: 50_000.0,
            burst_blocks: 16.0,
        };
        let core = Arc::new(Mutex::new(ServingCore::new(cfg, None)));
        let wakeup_queries = Rc::new(Cell::new(0));
        let report = run_cam_des_source(
            des_config(2),
            N_CHANNELS,
            Box::new(DisconnectPaused {
                inner: CoreSource(Arc::clone(&core)),
                live_steps: 40,
                wakeup_queries: Rc::clone(&wakeup_queries),
            }),
            None,
            CamDesObs::default(),
        );
        let stats = core.lock().report(report.duration.as_ns());
        assert_eq!(stats.tenants[1].completed, 40);
        assert!(stats.tenants[1].throttled > 0);
        let paused = &stats.tenants[0];
        assert!(paused.throttled == 1 && paused.admitted < 40, "{paused:?}");
        assert_eq!(paused.completed, paused.admitted);
        // One query per poll of the idle channels: a few per batch, not one
        // per virtual nanosecond.
        assert!(
            wakeup_queries.get() <= 4 * report.batches + 4 * 40,
            "{} wake-up queries for {} batches",
            wakeup_queries.get(),
            report.batches
        );
    }

    #[test]
    fn threaded_driver_retires_every_tenant_with_the_same_schema() {
        let core = Arc::new(Mutex::new(small_core(13)));
        let run = run_serving_threaded(core, 2, None);
        assert_eq!(run.stats.tenants.len(), 3);
        for t in &run.stats.tenants {
            assert_eq!(t.completed, 40);
            assert!(t.rps > 0.0);
        }
        assert!(run.stats.batches[0] > 0);
        assert_eq!(
            run.substrate_batches,
            run.stats.batches.iter().sum::<u64>(),
            "every published batch must retire through the substrate"
        );
    }
}
