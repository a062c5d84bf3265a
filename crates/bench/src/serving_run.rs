//! `repro serve` — the multi-tenant KV-cache serving experiment.
//!
//! Three scenarios over the `cam-serving` front-end:
//!
//! * **main** (DES): 1050 Zipf sessions across 4 unequal tenants on the
//!   virtual timeline — the scale run. Admission keeps its default
//!   token-bucket rates, so throttle episodes show up in the per-tenant
//!   stats.
//! * **skew** (DES): one tenant holds ~94% of the sessions and traffic;
//!   the identical workload runs once under DRR and once under FIFO.
//!   The fairness block asserts the headline property: DRR bounds the
//!   cold tenants' p99 near the hot tenant's, while FIFO parks every
//!   cold request behind the hot backlog.
//! * **threaded** (wall clock): a small run on the functional driver with
//!   a live metrics registry, proving the metric schema is identical
//!   across drivers and that the `tenant`-labeled gauges populate.

use std::sync::Arc;

use cam_serving::{
    run_serving_des, run_serving_threaded, AdmissionConfig, Policy, ServingConfig, ServingCore,
    ServingRun,
};
use cam_telemetry::MetricsRegistry;
use cam_workloads::kv_cache::KvCacheConfig;
use parking_lot::Mutex;

use crate::figures::{require, BenchParams, Outcome};
use crate::table::{f2, pct, Table};

/// The workload seed `repro serve` runs.
const SEED: u64 = 0x005e_5510;
/// SSDs behind the DES scenarios.
const DES_SSDS: usize = 4;
/// SSDs behind the threaded smoke scenario.
const THREADED_SSDS: usize = 2;

/// One scenario's results: the serving stats plus how it was driven.
pub struct ScenarioReport {
    /// `"des"` or `"threaded"`.
    pub driver: &'static str,
    /// Scheduling policy the run used.
    pub policy: Policy,
    /// Sessions per tenant (workload shape, for the report).
    pub sessions: Vec<usize>,
    /// The driver's results.
    pub run: ServingRun,
}

/// Cold-vs-hot fairness derived from the skew scenario's two sub-runs.
pub struct FairnessReport {
    /// Hot tenant's p99 under DRR, ns.
    pub drr_hot_p99_ns: u64,
    /// Worst cold tenant's p99 under DRR, ns.
    pub drr_cold_p99_ns: u64,
    /// Worst cold tenant's p99 under FIFO, ns.
    pub fifo_cold_p99_ns: u64,
}

impl FairnessReport {
    /// The headline bound: DRR keeps the worst cold tenant's p99 within
    /// 2x the hot tenant's p99.
    pub fn drr_bounded(&self) -> bool {
        self.drr_cold_p99_ns <= 2 * self.drr_hot_p99_ns
    }

    /// The baseline contrast: FIFO inflates the cold tenants' p99 to at
    /// least 2x what DRR delivers on the identical workload (in practice
    /// the gap is an order of magnitude — the cold requests queue behind
    /// the hot tenant's entire standing backlog).
    pub fn fifo_starves_cold(&self) -> bool {
        self.fifo_cold_p99_ns >= 2 * self.drr_cold_p99_ns.max(1)
    }
}

/// The full `repro serve` experiment.
pub struct ServingReport {
    /// The 1050-session, 4-tenant DES scale run (DRR).
    pub main: ScenarioReport,
    /// Hot-tenant skew under DRR.
    pub skew_drr: ScenarioReport,
    /// The identical skew workload under FIFO.
    pub skew_fifo: ScenarioReport,
    /// Fairness bounds derived from the two skew sub-runs.
    pub fairness: FairnessReport,
    /// The threaded smoke run (DRR, live registry).
    pub threaded: ScenarioReport,
}

/// The scale workload: 1050 sessions across four unequal tenants, ~10
/// steps per session on average.
fn main_workload(seed: u64) -> KvCacheConfig {
    let mut wl = KvCacheConfig::uniform(4, 1, 1);
    wl.sessions = vec![400, 250, 250, 150];
    wl.steps = vec![4000, 2500, 2500, 1500];
    wl.seed = seed;
    wl
}

/// The hot-tenant workload: tenant 0 holds 970 of 1030 sessions and ~94%
/// of the traffic; tenants 1..3 are the cold bystanders whose latency the
/// scheduler must protect.
fn skew_workload(seed: u64) -> KvCacheConfig {
    let mut wl = KvCacheConfig::uniform(4, 1, 1);
    wl.sessions = vec![970, 20, 20, 20];
    wl.steps = vec![9700, 200, 200, 200];
    wl.seed = seed;
    wl
}

fn run_main(seed: u64) -> ScenarioReport {
    let wl = main_workload(seed);
    let sessions = wl.sessions.clone();
    let cfg = ServingConfig::for_workload(wl, Policy::Drr);
    let core = Arc::new(Mutex::new(ServingCore::new(cfg, None)));
    let (run, _) = run_serving_des(core, DES_SSDS);
    ScenarioReport {
        driver: "des",
        policy: Policy::Drr,
        sessions,
        run,
    }
}

fn run_skew(seed: u64, policy: Policy) -> ScenarioReport {
    let wl = skew_workload(seed);
    let sessions = wl.sessions.clone();
    let mut cfg = ServingConfig::for_workload(wl, policy);
    // The scheduler, not admission, must be the bottleneck: unthrottled
    // buckets let the hot tenant build its full standing backlog.
    cfg.admission = vec![
        AdmissionConfig {
            rate_blocks_per_s: 1e9,
            burst_blocks: 1e9,
        };
        4
    ];
    // A tight GPU budget evicts the cold tenants' sessions between
    // touches, so their decode reads actually page (latency 0 hits would
    // make the p99 comparison vacuous).
    cfg.gpu_budget_blocks = cfg.workload.session_blocks * 8;
    cfg.max_batch_blocks = 128;
    let core = Arc::new(Mutex::new(ServingCore::new(cfg, None)));
    let (run, _) = run_serving_des(core, DES_SSDS);
    ScenarioReport {
        driver: "des",
        policy,
        sessions,
        run,
    }
}

fn run_threaded(seed: u64) -> (ScenarioReport, Arc<MetricsRegistry>) {
    let mut wl = KvCacheConfig::uniform(4, 8, 60);
    wl.seed = seed;
    let sessions = wl.sessions.clone();
    let mut cfg = ServingConfig::for_workload(wl, Policy::Drr);
    // Tight budget so the demand channel carries real paging traffic.
    cfg.gpu_budget_blocks = cfg.workload.session_blocks * 4;
    cfg.max_batch_blocks = 64;
    let registry = Arc::new(MetricsRegistry::new());
    let core = Arc::new(Mutex::new(ServingCore::new(cfg, Some(&registry))));
    let run = run_serving_threaded(core, THREADED_SSDS, Some(Arc::clone(&registry)));
    (
        ScenarioReport {
            driver: "threaded",
            policy: Policy::Drr,
            sessions,
            run,
        },
        registry,
    )
}

/// Worst (maximum) p99 across the cold tenants (1..).
fn worst_cold_p99(s: &ScenarioReport) -> u64 {
    s.run.stats.tenants[1..]
        .iter()
        .map(|t| t.p99_ns)
        .max()
        .unwrap_or(0)
}

/// Runs all three scenarios. Deterministic in `seed` on the DES runs.
pub fn run_serving_experiment(seed: u64) -> ServingReport {
    let main = run_main(seed);
    let skew_drr = run_skew(seed, Policy::Drr);
    let skew_fifo = run_skew(seed, Policy::Fifo);
    let fairness = FairnessReport {
        drr_hot_p99_ns: skew_drr.run.stats.tenants[0].p99_ns,
        drr_cold_p99_ns: worst_cold_p99(&skew_drr),
        fifo_cold_p99_ns: worst_cold_p99(&skew_fifo),
    };
    let (threaded, _registry) = run_threaded(seed);
    ServingReport {
        main,
        skew_drr,
        skew_fifo,
        fairness,
        threaded,
    }
}

fn policy_name(p: Policy) -> &'static str {
    match p {
        Policy::Drr => "drr",
        Policy::Fifo => "fifo",
    }
}

/// Minimum concurrent sessions / tenants of the DES scale run.
pub const SCALE_MIN: (usize, usize) = (1000, 4);

/// The acceptance bars. Scale and fairness run on the DES (deterministic
/// per seed): >= [`SCALE_MIN`] sessions x tenants with every tenant
/// retiring its whole trace, DRR bounding the cold tenants' p99 within 2x
/// the hot tenant's while FIFO inflates it >= 2x DRR's. Both drivers must
/// retire traffic for at least two tenants.
pub fn bars(report: &ServingReport) -> Vec<String> {
    let mut failed = Vec::new();
    let main = &report.main;
    let (min_sessions, min_tenants) = SCALE_MIN;
    require(
        &mut failed,
        main.sessions.iter().sum::<usize>() >= min_sessions && main.sessions.len() >= min_tenants,
        format!(
            "scale run below SCALE_MIN {SCALE_MIN:?}: sessions {:?}",
            main.sessions
        ),
    );
    for (i, t) in main.run.stats.tenants.iter().enumerate() {
        require(
            &mut failed,
            t.completed == t.admitted && t.completed > 0,
            format!(
                "des tenant {i} left steps behind: {} admitted, {} completed",
                t.admitted, t.completed
            ),
        );
    }
    for s in [main, &report.threaded] {
        let live = s.run.stats.tenants.iter().filter(|t| t.completed > 0);
        require(
            &mut failed,
            live.count() >= 2,
            format!(
                "{} driver retired traffic for fewer than 2 tenants",
                s.driver
            ),
        );
    }
    let f = &report.fairness;
    require(
        &mut failed,
        f.drr_cold_p99_ns > 0 && f.drr_bounded(),
        format!(
            "DRR must bound the (paging) cold tenants' p99 {} ns within 2x the hot tenant's {} ns",
            f.drr_cold_p99_ns, f.drr_hot_p99_ns
        ),
    );
    require(
        &mut failed,
        f.fifo_starves_cold(),
        format!(
            "FIFO cold p99 {} ns is not >= 2x DRR's {} ns",
            f.fifo_cold_p99_ns, f.drr_cold_p99_ns
        ),
    );
    failed
}

fn scenario_table(title: &str, s: &ScenarioReport) -> Table {
    let mut t = Table::new(
        title,
        &[
            "tenant",
            "sessions",
            "admitted",
            "throttled",
            "done",
            "rps",
            "p50 (us)",
            "p99 (us)",
            "burn",
            "hit rate",
        ],
    );
    for (i, ts) in s.run.stats.tenants.iter().enumerate() {
        t.row(vec![
            i.to_string(),
            s.sessions[i].to_string(),
            ts.admitted.to_string(),
            ts.throttled.to_string(),
            ts.completed.to_string(),
            format!("{:.0}", ts.rps),
            f2(ts.p50_ns as f64 / 1_000.0),
            f2(ts.p99_ns as f64 / 1_000.0),
            f2(ts.burn_short.max(ts.burn_long)),
            pct(ts.hit_rate()),
        ]);
    }
    let stats = &s.run.stats;
    t.note(format!(
        "{} / {}: batches demand {} wb {} ra {}, evictions {}, {:.1} ms {}",
        s.driver,
        policy_name(s.policy),
        stats.batches[0],
        stats.batches[1],
        stats.batches[2],
        stats.evictions,
        stats.duration_ns as f64 / 1e6,
        if s.driver == "des" {
            "virtual"
        } else {
            "wall clock"
        },
    ));
    t
}

/// The `serve` experiment generator: runs the three scenarios and returns
/// the CLI tables — one per scenario, the *same* columns for both drivers
/// — and the failed bars.
pub fn serve(_p: &BenchParams) -> Outcome {
    let report = run_serving_experiment(SEED);
    let f = &report.fairness;
    let mut skew_drr = scenario_table("skew: hot tenant 0 under DRR", &report.skew_drr);
    skew_drr.note(format!(
        "fairness: drr cold p99 {:.1} us vs hot {:.1} us (bounded: {}); \
         fifo cold p99 {:.1} us (starves: {})",
        f.drr_cold_p99_ns as f64 / 1e3,
        f.drr_hot_p99_ns as f64 / 1e3,
        f.drr_bounded(),
        f.fifo_cold_p99_ns as f64 / 1e3,
        f.fifo_starves_cold()
    ));
    Outcome {
        tables: vec![
            scenario_table("serving: 1050 sessions, 4 tenants (DES)", &report.main),
            skew_drr,
            scenario_table("skew: identical workload under FIFO", &report.skew_fifo),
            scenario_table("threaded smoke: 32 sessions, 4 tenants", &report.threaded),
        ],
        failures: bars(&report),
        ..Outcome::default()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn full_experiment_meets_the_acceptance_bar() {
        let report = run_serving_experiment(SEED);
        assert_eq!(bars(&report), Vec::<String>::new());
        // Every tenant retires its full trace, not merely what it admitted.
        for (t, &steps) in report
            .main
            .run
            .stats
            .tenants
            .iter()
            .zip(main_workload(SEED).steps.iter())
        {
            assert_eq!(t.completed, steps as u64, "tenant left steps behind");
            assert!(t.rps > 0.0);
        }
        assert_eq!(
            (report.main.driver, report.threaded.driver),
            ("des", "threaded")
        );
    }
}
