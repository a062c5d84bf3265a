//! The exact virtual-time pins: one transcript of small fixed-seed DES runs.
//!
//! [`transcript`] states, per case under an `== <case>` header, what each
//! run computed — virtual time, decisions, per-batch latencies, health
//! transitions, and the recorded events' count, FNV-1a hash and first
//! events; floats by their bits. The cases: `run_cam_des_source` plain,
//! with the lifecycle stream and with retried faults; three
//! `run_microbench_traced` engines; the cached run with its cache
//! decisions; the serving plane under DRR and FIFO with its tenant stats.
//! It is committed as `bench/baselines/`[`TRANSCRIPT_FILE`] and rewritten by
//! `repro bench --update-baselines`: how the calendar stores events or the
//! cache and serving core index their state may change, what runs when may
//! not.

use std::cell::RefCell;
use std::collections::VecDeque;
use std::fmt::Write as _;
use std::rc::Rc;
use std::sync::Arc;

use cam_cache::{run_cam_des_cached, CacheConfig, ReadaheadConfig};
use cam_hostos::IoDir;
use cam_iostacks::cam_des::{
    run_cam_des_source, CamDesBatch, CamDesConfig, CamDesObs, CamDesReport, DesBatchSource,
    DesFaultSpec,
};
use cam_iostacks::des::{run_microbench_traced, Engine, MicrobenchConfig};
use cam_protocol::{ChannelOp, RetryPolicy};
use cam_serving::{run_serving_des, AdmissionConfig, Policy, ServingConfig, ServingCore};
use cam_telemetry::FlightRecorder;
use cam_workloads::kv_cache::KvCacheConfig;
use parking_lot::Mutex;

/// The transcript's file name under
/// [`BASELINES_DIR`](crate::trajectory_run::BASELINES_DIR).
pub const TRANSCRIPT_FILE: &str = "virtual_time.golden";

const N_SSDS: usize = 4;
const N_CHANNELS: usize = 3;
const WINDOW: u64 = 256;

/// One retired batch: `(channel, doorbell_ns, retire_ns, errors)`.
type Retired = (usize, u64, u64, u64);

/// Closed loop per channel that notes each batch's doorbell and retire.
struct Source {
    queues: Vec<VecDeque<CamDesBatch>>,
    doorbell_ns: Vec<u64>,
    /// In retire order.
    retired: Rc<RefCell<Vec<Retired>>>,
}

impl DesBatchSource for Source {
    fn next_batch(&mut self, channel: usize, now_ns: u64) -> Option<(CamDesBatch, ChannelOp)> {
        let batch = self.queues[channel].pop_front()?;
        self.doorbell_ns[channel] = now_ns;
        Some((batch, ChannelOp::Read))
    }

    fn on_retire(&mut self, channel: usize, now_ns: u64, errors: u64) {
        let row = (channel, self.doorbell_ns[channel], now_ns, errors);
        self.retired.borrow_mut().push(row);
    }

    fn is_drained(&self) -> bool {
        self.queues.iter().all(VecDeque::is_empty)
    }
}

/// Two-block reads at seeded offsets in a 256-block window per channel:
/// duplicates (dedup) and odd offsets over stripe 2 (splits) both occur.
fn trace(seed: u64) -> Vec<VecDeque<CamDesBatch>> {
    (0..N_CHANNELS as u64)
        .map(|ch| {
            let mut x = seed ^ (ch + 1).wrapping_mul(0x9E37_79B9_7F4A_7C15);
            (0..5)
                .map(|_| CamDesBatch {
                    lbas: (0..24)
                        .map(|_| {
                            x = x
                                .wrapping_mul(6_364_136_223_846_793_005)
                                .wrapping_add(1_442_695_040_888_963_407);
                            ch * WINDOW + (x >> 33) % WINDOW
                        })
                        .collect(),
                    blocks: 2,
                })
                .collect()
        })
        .collect()
}

fn config() -> CamDesConfig {
    CamDesConfig {
        stripe_blocks: 2,
        queue_depth: 16,
        ..CamDesConfig::calibrated(N_SSDS, 2)
    }
}

/// The recorded sequence: its length, an FNV-1a hash over every
/// `(timestamp, kind)` in recorder order, and its first events verbatim.
fn events(out: &mut String, rec: &FlightRecorder) {
    assert_eq!(rec.dropped(), 0, "the transcript covers the whole sequence");
    let all = rec.snapshot();
    let mut hash = 0xCBF2_9CE4_8422_2325u64;
    let mut head = String::new();
    for (i, e) in all.iter().enumerate() {
        let line = format!("{} {:?}", e.ts_ns, e.kind);
        for b in line.bytes().chain([b'\n']) {
            hash = (hash ^ u64::from(b)).wrapping_mul(0x0000_0100_0000_01B3);
        }
        if i < 24 {
            writeln!(head, "event {line}").unwrap();
        }
    }
    writeln!(out, "events {} fnv {hash:016x}", all.len()).unwrap();
    out.push_str(&head);
}

/// Everything a [`CamDesReport`] states, floats by their bits.
fn report(out: &mut String, r: &CamDesReport) {
    writeln!(out, "duration_ns {}", r.duration.as_ns()).unwrap();
    writeln!(
        out,
        "batches {} commands {} bytes {} faults {}",
        r.batches, r.commands, r.bytes, r.faults_injected
    )
    .unwrap();
    writeln!(out, "decisions {:?}", r.decisions.fields()).unwrap();
    writeln!(out, "mean_batch_ns {:016x}", r.mean_batch_ns.to_bits()).unwrap();
    let mean: Vec<String> = r
        .inflight_mean
        .iter()
        .map(|m| format!("{:016x}", m.to_bits()))
        .collect();
    writeln!(out, "inflight_mean {}", mean.join(" ")).unwrap();
    writeln!(out, "inflight_peak {:?}", r.inflight_peak).unwrap();
    for t in &r.transitions {
        writeln!(out, "transition {t:?}").unwrap();
    }
}

fn cam_des_case(out: &mut String, name: &str, cfg: CamDesConfig, lifecycle: bool) {
    writeln!(out, "== {name}").unwrap();
    let retired = Rc::new(RefCell::new(Vec::new()));
    let source = Source {
        queues: trace(0xC0FFEE),
        doorbell_ns: vec![0; N_CHANNELS],
        retired: Rc::clone(&retired),
    };
    let rec = Arc::new(FlightRecorder::with_capacity(1 << 16));
    let obs = CamDesObs {
        lifecycle,
        ..CamDesObs::default()
    };
    let r = run_cam_des_source(
        cfg,
        N_CHANNELS,
        Box::new(source),
        Some(Arc::clone(&rec)),
        obs,
    );
    report(out, &r);
    for (ch, doorbell, retire, errors) in retired.borrow().iter() {
        writeln!(
            out,
            "batch ch {ch} doorbell {doorbell} retire {retire} errors {errors}"
        )
        .unwrap();
    }
    events(out, &rec);
}

fn microbench_case(out: &mut String, engine: Engine, noncontig_dest: bool) {
    writeln!(out, "== microbench {engine:?} noncontig {noncontig_dest}").unwrap();
    let mut cfg = MicrobenchConfig::new(engine, 3, IoDir::Read);
    cfg.requests = 700;
    cfg.queue_depth = 24;
    cfg.noncontig_dest = noncontig_dest;
    let rec = Arc::new(FlightRecorder::with_capacity(1 << 16));
    let r = run_microbench_traced(cfg, Some(Arc::clone(&rec)));
    writeln!(
        out,
        "duration_ns {} gbps {:016x} kiops {:016x}",
        r.duration.as_ns(),
        r.gbps.to_bits(),
        r.kiops.to_bits()
    )
    .unwrap();
    events(out, &rec);
}

/// Re-references, in-batch duplicates, sequential runs and enough distinct
/// blocks to thrash a 32-slot cache: hits, coalescing, readahead and
/// evictions all occur.
fn cached_case(out: &mut String) {
    writeln!(out, "== cam_des cached").unwrap();
    let workload = (0u64..14)
        .map(|round| {
            let base = round * 8;
            let mut lbas: Vec<u64> = (base..base + 8).collect();
            lbas.push(base);
            if round >= 2 {
                lbas.push((round - 2) * 8);
            }
            lbas
        })
        .collect();
    let cfg = CamDesConfig {
        queue_depth: 8,
        ..CamDesConfig::calibrated(3, 2)
    };
    let cache_cfg = CacheConfig {
        slots: 32,
        shards: 4,
        flush_batch: 8,
        readahead: ReadaheadConfig::default(),
    };
    let rec = Arc::new(FlightRecorder::with_capacity(1 << 14));
    let (r, counters) = run_cam_des_cached(
        cfg,
        cache_cfg,
        4096,
        workload,
        Some(Arc::clone(&rec)),
        CamDesObs::default(),
    );
    report(out, &r);
    writeln!(out, "cache_decisions {:?}", counters.fields()).unwrap();
    events(out, &rec);
}

/// Four tenants, one hot with skewed sessions, a GPU budget of one and a
/// half sessions and throttling buckets, on a two-SSD array.
fn serving_case(out: &mut String, policy: Policy) {
    writeln!(out, "== serving {policy:?}").unwrap();
    let mut wl = KvCacheConfig::uniform(4, 1, 1);
    wl.sessions = vec![96, 8, 8, 8];
    wl.steps = vec![1200, 100, 100, 100];
    wl.zipf_exponent = 0.6;
    wl.seed = 0xCA11;
    let mut cfg = ServingConfig::for_workload(wl, policy);
    cfg.gpu_budget_blocks = cfg.workload.session_blocks * 3 / 2;
    cfg.max_batch_blocks = 16;
    // The hot tenant's bucket outruns the array, so a demand backlog stands
    // (DRR and FIFO then differ); the cold buckets throttle.
    cfg.admission = [
        (3_000_000.0, 192.0),
        (40_000.0, 24.0),
        (40_000.0, 24.0),
        (40_000.0, 24.0),
    ]
    .iter()
    .map(|&(rate_blocks_per_s, burst_blocks)| AdmissionConfig {
        rate_blocks_per_s,
        burst_blocks,
    })
    .collect();
    let core = Arc::new(Mutex::new(ServingCore::new(cfg, None)));
    let (run, des) = run_serving_des(core, 2);
    report(out, &des);
    let s = run.stats;
    writeln!(
        out,
        "serving duration_ns {} batches {:?} blocks {:?} evictions {}",
        s.duration_ns, s.batches, s.blocks, s.evictions
    )
    .unwrap();
    for (i, t) in s.tenants.iter().enumerate() {
        writeln!(
            out,
            "tenant {i} admitted {} throttled {} completed {} hits {} accesses {} \
             p50_ns {} p99_ns {}",
            t.admitted, t.throttled, t.completed, t.hits, t.accesses, t.p50_ns, t.p99_ns
        )
        .unwrap();
    }
}

/// Every pinned run, in file order — what [`TRANSCRIPT_FILE`] holds.
pub fn transcript() -> String {
    let mut out = String::new();
    cam_des_case(&mut out, "cam_des plain", config(), false);
    cam_des_case(&mut out, "cam_des lifecycle stream", config(), true);
    // Every read of 12 device LBAs on SSD 1 fails twice, then succeeds:
    // retries wait out a backoff on the calendar's timer path.
    let mut faulty = config();
    faulty.retry = RetryPolicy {
        max_retries: 4,
        backoff_base_ns: 20_000,
        deadline_ns: Some(5_000_000),
    };
    faulty.fault = Some(DesFaultSpec::transient_reads_in(1, 4, 16, 2));
    cam_des_case(&mut out, "cam_des faults", faulty, false);
    // Staged with a per-request staging copy (host pipe → copy pipe), and
    // the GDS fan-out across every SSD (direct).
    microbench_case(&mut out, Engine::Spdk, true);
    microbench_case(&mut out, Engine::Bam, false);
    microbench_case(&mut out, Engine::Gds, false);
    cached_case(&mut out);
    serving_case(&mut out, Policy::Drr);
    serving_case(&mut out, Policy::Fifo);
    out
}
