//! The inline layer pass: one thread steps the public protocol objects
//! through a batch's life, with a span around each call into a layer.
//!
//! `Channel::publish` → `pending`/`snapshot` → `plan_batch` →
//! `WorkerCore::on_group`/`pump` → `QueuePair::push_sqe`/`ring_doorbell` →
//! `take_sqe`/store read/DMA/`post_cqe` → `poll_cqes` → `WorkerCore::on_cqe`
//! → `Channel::retire`. The benchmark plays the engine's glue (building
//! `BatchCore`/`GroupSpec`, executing `Command`s) and the device's service
//! loop itself; what it reports is the self time of the library calls.
//! Contention between threads, wake-ups and cache misses across cores are
//! absent by construction — that is what `layers.coverage_ctrl_read` shows.

use std::sync::atomic::{AtomicU64, AtomicUsize};
use std::sync::Arc;
use std::time::Instant;

use cam_blockdev::{BlockGeometry, BlockStore, Lba, SparseMemStore};
use cam_cache::{BlockCache, Lookup};
use cam_core::Channel;
use cam_gpu::{Gpu, GpuSpec};
use cam_nvme::spec::{Cqe, Sqe, Status};
use cam_nvme::{DmaSpace, PinnedRegion, QueuePair};
use cam_protocol::cache_core::{CoreLookup, Intent};
use cam_protocol::{
    plan_batch, BatchCore, CacheCore, ChannelOp, Command, GroupSpec, PlanConfig, RetryPolicy,
    WorkerCore,
};
use cam_simkit::{Dur, Sim};
use cam_telemetry::{EventKind, FlightRecorder, MetricsRegistry};

use crate::gen::{Lcg, Pattern, Zipf};
use crate::report::Report;
use crate::span::Tracer;
use crate::stats::median;
use crate::wall::{cache_config, ARRAY_BLOCKS, BATCH, BLOCK, CTRL_BLOCKS, N_SSDS};

const QUEUE_DEPTH: usize = 1024;
/// Batches stepped through the control plane; all are reduced, the first
/// `TRACE_FILE_BATCHES` are written to `trace.json`.
const BATCHES: u64 = 4096;
pub const TRACE_FILE_BATCHES: u64 = 256;
const DMA_BASE: u64 = 0x7_0000_0000;

/// Span names of one batch's life, in order. Their self times per batch add
/// up to `layers.sum_us_per_batch`.
const BATCH_LIFE: [&str; 10] = [
    "core.regions.publish",
    "core.regions.pickup",
    "protocol.plan_batch",
    "protocol.worker_admit",
    "nvme.sq_push",
    "nvme.doorbell",
    "nvme.device_service",
    "nvme.cq_reap",
    "protocol.worker_cqe",
    "core.regions.retire",
];

/// Steps `BATCHES` read batches of `ctrl_read`'s shape (the same 1 MiB
/// array) through the control plane and reports the per-layer costs. Returns the tracer so the caller can write the spans.
pub fn control_plane(seed: u64, r: &mut Report) -> Tracer {
    let pattern = Pattern::new(seed);
    let stores: Vec<Arc<dyn BlockStore>> = (0..N_SSDS)
        .map(|_| {
            Arc::new(SparseMemStore::new(BlockGeometry::new(
                BLOCK as u32,
                CTRL_BLOCKS / N_SSDS as u64,
            ))) as Arc<dyn BlockStore>
        })
        .collect();
    let plan_cfg = PlanConfig {
        n_ssds: N_SSDS,
        stripe_blocks: 1,
        block_size: BLOCK as u32,
    };
    let mut block = vec![0u8; BLOCK];
    for lba in 0..CTRL_BLOCKS {
        pattern.fill(lba, &mut block);
        let (ssd, dev_lba) = plan_cfg.map(lba);
        stores[ssd].write(Lba(dev_lba), &block).expect("preload");
    }
    let dma = PinnedRegion::new(DMA_BASE, BATCH * BLOCK);
    let channel = Channel::new(cam_core::CamConfig::default().max_batch);
    let qps: Vec<Arc<QueuePair>> = (0..N_SSDS)
        .map(|i| QueuePair::new(i as u16, QUEUE_DEPTH))
        .collect();
    let retry = RetryPolicy {
        max_retries: 3,
        backoff_base_ns: 20_000,
        deadline_ns: None,
    };
    let mut core = WorkerCore::new(N_SSDS, QUEUE_DEPTH, retry);
    let mut rng = Lcg::derive(seed, 0x1A1E);
    let mut tr = Tracer::with_capacity(BATCHES as usize * (BATCH_LIFE.len() + 1));
    let mut out: Vec<Command> = Vec::new();
    let mut cqes: Vec<Vec<Cqe>> = vec![Vec::new(); N_SSDS];
    let mut scratch = vec![0u8; BLOCK];
    let (mut last_seen, mut cmds, mut rings) = (0u64, 0u64, 0u64);
    let mut lbas = vec![0u64; BATCH];

    for b in 0..BATCHES {
        for l in &mut lbas {
            *l = rng.below(CTRL_BLOCKS);
        }
        let root = tr.begin("batch", None, b);

        let s = tr.begin(BATCH_LIFE[0], Some(root), b);
        channel.publish(ChannelOp::Read, &lbas, |i| DMA_BASE + (i * BLOCK) as u64, 1);
        tr.end(s);

        let s = tr.begin(BATCH_LIFE[1], Some(root), b);
        let seq = channel.pending(last_seen).expect("doorbell was rung");
        let (op, blocks, reqs) = channel.snapshot();
        tr.end(s);
        last_seen = seq;

        let s = tr.begin(BATCH_LIFE[2], Some(root), b);
        let plan = plan_batch(&plan_cfg, op, blocks, reqs);
        tr.end(s);

        // Engine glue (root self time): the batch record and its groups.
        let now = tr.now_ns();
        let batch = Arc::new(BatchCore {
            channel: 0,
            seq,
            op,
            remaining: AtomicUsize::new(plan.n_groups()),
            errors: AtomicU64::new(0),
            requests: plan.requests,
            dispatched_ns: now,
            compute_gap_ns: 0,
            doorbell_ns: channel.published_at_ns(),
            pickup_ns: now,
            dups: plan.dups,
            blocks,
        });
        let specs: Vec<GroupSpec> = plan
            .groups
            .into_iter()
            .enumerate()
            .filter(|(_, g)| !g.is_empty())
            .map(|(ssd, reqs)| GroupSpec {
                ssd,
                reqs,
                batch: Arc::clone(&batch),
            })
            .collect();

        let s = tr.begin(BATCH_LIFE[3], Some(root), b);
        for spec in specs {
            core.on_group(spec, now);
        }
        core.pump(now, &mut out);
        tr.end(s);

        let s = tr.begin(BATCH_LIFE[4], Some(root), b);
        for cmd in &out {
            if let Command::Submit(c) = cmd {
                qps[c.ssd]
                    .push_sqe(Sqe::read(c.cid, c.dev_lba, c.blocks, c.addr))
                    .expect("protocol admission implies SQ room");
                cmds += 1;
            }
        }
        tr.end(s);

        let s = tr.begin(BATCH_LIFE[5], Some(root), b);
        for cmd in &out {
            if let Command::RingDoorbell { ssd, .. } = cmd {
                qps[*ssd].ring_doorbell();
                rings += 1;
            }
        }
        tr.end(s);
        out.clear();

        // The device's service round: take, media read, DMA, complete.
        let s = tr.begin(BATCH_LIFE[6], Some(root), b);
        for (ssd, qp) in qps.iter().enumerate() {
            while let Some(sqe) = qp.take_sqe() {
                stores[ssd]
                    .read(Lba(sqe.slba), &mut scratch)
                    .expect("media read");
                dma.dma_write(sqe.data_addr, &scratch).expect("DMA");
                qp.post_cqe(Cqe {
                    cid: sqe.cid,
                    status: Status::Success,
                });
            }
        }
        tr.end(s);

        let s = tr.begin(BATCH_LIFE[7], Some(root), b);
        for (qp, reaped) in qps.iter().zip(&mut cqes) {
            reaped.clear();
            qp.poll_cqes(QUEUE_DEPTH, reaped);
        }
        tr.end(s);

        let s = tr.begin(BATCH_LIFE[8], Some(root), b);
        let now = tr.now_ns();
        for (ssd, reaped) in cqes.iter().enumerate() {
            for cqe in reaped {
                core.on_cqe(ssd, cqe.cid, cqe.status, now, &mut out);
            }
        }
        tr.end(s);
        let retired = out.iter().any(|c| matches!(c, Command::RetireBatch { .. }));
        out.clear();
        // Engine glue: deduplicated reads are replicated to their duplicate
        // destinations before region 4 is written.
        for &(src, dst) in &batch.dups {
            dma.dma_read(src, &mut scratch).expect("DMA region read");
            dma.dma_write(dst, &scratch).expect("DMA region write");
        }

        let s = tr.begin(BATCH_LIFE[9], Some(root), b);
        channel.retire(seq, 0);
        tr.end(s);
        tr.end(root);

        if !retired || !channel.retired(seq) {
            r.problem(format!("inline pass: batch {b} did not retire"));
            break;
        }
        if b % 64 == 0 {
            // The data really moved: the DMA region holds the pattern.
            for (i, &lba) in lbas.iter().enumerate() {
                dma.dma_read(DMA_BASE + (i * BLOCK) as u64, &mut scratch)
                    .expect("DMA region read");
                if !pattern.matches(lba, &scratch) {
                    r.problem(format!(
                        "inline pass: batch {b} block {i} holds the wrong data"
                    ));
                }
            }
        }
    }

    let st = tr.self_times();
    let per = |name: &str, n: u64| {
        st.get(name)
            .map_or(0.0, |s| s.self_ns as f64 / n.max(1) as f64)
    };
    r.set(
        "core.regions.publish_ns_per_batch",
        per(BATCH_LIFE[0], BATCHES),
    );
    r.set(
        "core.regions.pickup_ns_per_batch",
        per(BATCH_LIFE[1], BATCHES),
    );
    r.set(
        "core.regions.retire_ns_per_batch",
        per(BATCH_LIFE[9], BATCHES),
    );
    r.set(
        "protocol.plan_batch_ns_per_req",
        per(BATCH_LIFE[2], BATCHES * BATCH as u64),
    );
    r.set("protocol.worker_admit_ns_per_cmd", per(BATCH_LIFE[3], cmds));
    r.set("protocol.worker_cqe_ns_per_cmd", per(BATCH_LIFE[8], cmds));
    r.set("nvme.sq_push_ns_per_cmd", per(BATCH_LIFE[4], cmds));
    r.set("nvme.doorbell_ns_per_ring", per(BATCH_LIFE[5], rings));
    r.set("nvme.device_service_ns_per_cmd", per(BATCH_LIFE[6], cmds));
    r.set("nvme.cq_reap_ns_per_cqe", per(BATCH_LIFE[7], cmds));
    let sum_ns: f64 = BATCH_LIFE.iter().map(|n| per(n, BATCHES)).sum();
    r.set("layers.sum_us_per_batch", sum_ns / 1e3);
    r.note(format!(
        "inline pass: {} batches, {} spans, {:.1} commands and {:.1} doorbells per batch, span overhead {} ns subtracted, engine glue {:.0} ns per batch",
        BATCHES,
        tr.len(),
        cmds as f64 / BATCHES as f64,
        rings as f64 / BATCHES as f64,
        tr.overhead_ns(),
        per("batch", BATCHES)
    ));

    // Write planning: no dedup, same split and grouping.
    let mut tw = Tracer::with_capacity(BATCHES as usize);
    for b in 0..BATCHES {
        let reqs: Vec<(u64, u64)> = (0..BATCH)
            .map(|i| (rng.below(CTRL_BLOCKS), DMA_BASE + (i * BLOCK) as u64))
            .collect();
        let s = tw.begin("protocol.plan_batch_write", None, b);
        std::hint::black_box(plan_batch(&plan_cfg, ChannelOp::Write, 1, reqs));
        tw.end(s);
    }
    r.set(
        "protocol.plan_batch_write_ns_per_req",
        tw.self_times()["protocol.plan_batch_write"].self_ns as f64
            / (BATCHES * BATCH as u64) as f64,
    );
    tr
}

/// Times `f` over `rounds` rounds of `per_round` operations; median ns/op.
fn ns_per_op(rounds: usize, per_round: usize, mut f: impl FnMut(usize)) -> f64 {
    let mut v = Vec::with_capacity(rounds);
    for round in 0..rounds {
        let t = Instant::now();
        for i in 0..per_round {
            f(round * per_round + i);
        }
        v.push(t.elapsed().as_nanos() as f64 / per_round as f64);
    }
    median(&v)
}

/// `CacheCore::lookup` on a Zipf stream, and `BlockCache` hit and
/// miss-plus-fill costs, on benchmark-owned caches.
pub fn cache_layers(seed: u64, r: &mut Report) {
    let zipf = Zipf::new(ARRAY_BLOCKS as usize, 1.1);
    let mut rng = Lcg::derive(seed, 0xCAC4E);
    let mut core = CacheCore::new(cache_config());
    r.set(
        "protocol.cache_core_lookup_ns",
        ns_per_op(16, 16 * 1024, |_| {
            let lba = (zipf.sample(&mut rng) * 0x9E37) % ARRAY_BLOCKS;
            match core.lookup(lba, Intent::DemandRead) {
                CoreLookup::Hit { slot } => core.unpin(slot),
                CoreLookup::Miss { slot, .. } => {
                    core.complete_fill(slot, false);
                    core.unpin(slot);
                }
                other => panic!("single-threaded clean cache returned {other:?}"),
            }
        }),
    );

    let gpu = Gpu::new(GpuSpec::a100_80g(), 16 << 20);
    let buf = gpu.alloc(2048 * BLOCK).expect("cache buffer");
    let cache = BlockCache::new(
        buf,
        BLOCK as u32,
        cache_config(),
        &MetricsRegistry::new(),
        None,
    );
    let fill = |lba: u64| match cache.lookup_read(lba) {
        Lookup::Miss(ticket) => drop(ticket.complete(false)),
        Lookup::Hit(pin) => drop(pin),
        _ => panic!("single-threaded clean cache must hit or miss"),
    };
    // Resident set: 1024 blocks, half the slots, so every shard has room.
    (0..1024).for_each(fill);
    r.set(
        "cache.lookup_hit_ns",
        ns_per_op(16, 16 * 1024, |i| {
            match cache.lookup_read(i as u64 % 1024) {
                Lookup::Hit(pin) => drop(pin),
                _ => panic!("resident block must hit"),
            }
        }),
    );
    // Never-seen LBAs: every lookup reserves a slot (evicting once the
    // cache is full) and publishes the fill.
    r.set(
        "cache.lookup_miss_fill_ns",
        ns_per_op(16, 16 * 1024, |i| fill(1 << 20 | i as u64)),
    );
}

/// `HistogramHandle::record` and `FlightRecorder::emit` on their own.
pub fn telemetry_layers(r: &mut Report) {
    let hist = MetricsRegistry::new().histogram("cam_perf_probe_ns");
    r.set(
        "telemetry.hist_record_ns",
        ns_per_op(16, 64 * 1024, |i| hist.record(100 + (i as u64 & 0xFFFF))),
    );
    let rec = FlightRecorder::new();
    r.set(
        "telemetry.recorder_emit_ns",
        ns_per_op(16, 64 * 1024, |i| {
            rec.emit(EventKind::QpDoorbell {
                qp: 0,
                sqes: i as u32 & 63,
            })
        }),
    );
}

/// Event-calendar cost on a benchmark-owned `Sim`: 64 concurrent timer
/// chains, host ns per executed event.
pub fn simkit_layer(r: &mut Report) {
    const EVENTS: u64 = 1 << 20;
    fn tick(sim: &mut Sim<u64>, fired: &mut u64) {
        *fired += 1;
        if *fired + 64 <= EVENTS {
            sim.schedule_in(Dur::ns(100 + *fired % 7), tick);
        }
    }
    let per_round: Vec<f64> = (0..8)
        .map(|_| {
            let mut sim: Sim<u64> = Sim::new();
            let mut fired = 0u64;
            for i in 0..64 {
                sim.schedule_in(Dur::ns(i), tick);
            }
            let t = Instant::now();
            sim.run(&mut fired);
            t.elapsed().as_nanos() as f64 / sim.executed_events().max(1) as f64
        })
        .collect();
    r.set("simkit.host_ns_per_event", median(&per_round));
}
