//! The single list of workloads and metrics. `BENCHMARK.json` is this file
//! rendered by `cam-perf manifest`; the README tables describe the same
//! names. A metric is reported only on the workloads listed for it — on the
//! others the layer is idle, the table leaves the row out, and the driver's
//! JSON (which must carry every per-layer name) carries 0.

pub const CTRL_READ: &str = "ctrl_read";
pub const DEV_READ: &str = "dev_read";
pub const RW_OVERLAP: &str = "rw_overlap";
pub const CACHE_ZIPF: &str = "cache_zipf";
pub const DES_BATCH: &str = "des_batch";
pub const SERVE_KV: &str = "serve_kv";

pub struct Workload {
    pub name: &'static str,
    pub why: &'static str,
}

pub const WORKLOADS: [Workload; 6] = [
    Workload {
        name: CTRL_READ,
        why: "memory-speed media small enough to stay in cache: the control plane (regions, plan_batch, WorkerCore, QueuePair) does nearly all the work",
    },
    Workload {
        name: DEV_READ,
        why: "100 us device, 2 read channels in flight: the device dominates and the worker only waits on it (poll/park path)",
    },
    Workload {
        name: RW_OVERLAP,
        why: "read channel beside a write_back channel (Fig. 7 loop): no dedup, device write path, read-after-write checked",
    },
    Workload {
        name: CACHE_ZIPF,
        why: "Zipf(1.1) reads through CachedDevice, footprint 8x the cache: hits skip the device, so cam-cache/CacheCore dominate",
    },
    Workload {
        name: DES_BATCH,
        why: "shared protocol core on modelled hardware (DES): virtual-time results are exact, host time measures simulator speed",
    },
    Workload {
        name: SERVE_KV,
        why: "multi-tenant KV-cache paging over ServingCore (token bucket, DRR, residency), open loop at ~70% of array capacity",
    },
];

pub const WALL: &[&str] = &[CTRL_READ, DEV_READ, RW_OVERLAP, CACHE_ZIPF];
pub const DES: &[&str] = &[DES_BATCH, SERVE_KV];
pub const ALL: &[&str] = &[
    CTRL_READ, DEV_READ, RW_OVERLAP, CACHE_ZIPF, DES_BATCH, SERVE_KV,
];

#[derive(Clone, Copy, PartialEq)]
pub enum Better {
    Higher,
    Lower,
}

impl Better {
    pub fn as_str(self) -> &'static str {
        match self {
            Better::Higher => "higher",
            Better::Lower => "lower",
        }
    }
}

/// How `cam-perf agree` compares two sets of runs.
#[derive(Clone, Copy, PartialEq)]
pub enum Agree {
    /// Wall-clock: set B may be worse than set A by at most this share.
    Within(f64),
    /// Virtual-time: bit-identical.
    Exact,
}

pub struct Metric {
    pub name: &'static str,
    pub unit: &'static str,
    pub better: Better,
    /// Workloads that report it.
    pub on: &'static [&'static str],
    /// `Some` for the metrics `agree` checks (the issue's eleven).
    pub agree: Option<Agree>,
}

const fn m(
    name: &'static str,
    unit: &'static str,
    better: Better,
    on: &'static [&'static str],
) -> Metric {
    Metric {
        name,
        unit,
        better,
        on,
        agree: None,
    }
}

const fn gated(mut metric: Metric, agree: Agree) -> Metric {
    metric.agree = Some(agree);
    metric
}

use Better::{Higher, Lower};

/// End to end under the driver's contract: every workload reports every one
/// of these on every run, so each is defined on all six (README, "What the
/// four uniform metrics mean on each workload").
pub const END_TO_END: [Metric; 4] = [
    gated(m("req_per_s", "1/s", Higher, ALL), Agree::Within(0.25)),
    gated(m("batch_p50_us", "us", Lower, ALL), Agree::Within(0.25)),
    gated(m("setup_s", "s", Lower, ALL), Agree::Within(0.25)),
    gated(m("peak_rss_mb", "MB", Lower, ALL), Agree::Within(0.15)),
];

/// The bound the driver applies, as a share of the parent's median.
pub fn driver_bound(metric: &Metric) -> f64 {
    match metric.agree {
        Some(Agree::Within(b)) => b,
        _ => unreachable!("end-to-end metrics carry a relative bound"),
    }
}

const SERVE: &[&str] = &[SERVE_KV];
const DESB: &[&str] = &[DES_BATCH];
const CTRL: &[&str] = &[CTRL_READ];
const CACHE: &[&str] = &[CACHE_ZIPF];

pub const PER_LAYER: [Metric; 66] = [
    // Virtual-time end-to-end results. They exist only where a virtual
    // timeline does, so the driver's every-workload rule puts them here;
    // `agree` and the in-run repeat check still hold them to equality.
    gated(m("virt_req_per_s", "1/s", Higher, DESB), Agree::Exact),
    gated(m("virt_batch_p50_us", "us", Lower, DESB), Agree::Exact),
    gated(m("virt_batch_p99_us", "us", Lower, DESB), Agree::Exact),
    gated(m("virt_steps_per_s", "1/s", Higher, SERVE), Agree::Exact),
    gated(m("virt_step_p99_us_hot", "us", Lower, SERVE), Agree::Exact),
    gated(m("virt_step_p99_us_cold", "us", Lower, SERVE), Agree::Exact),
    gated(
        m("sim_req_per_host_s", "1/s", Higher, DES),
        Agree::Within(0.25),
    ),
    // client.* — the benchmark's own spans around submit and wait/is_done.
    m("client.submit_ns_p50", "ns", Lower, WALL),
    m("client.wait_ns_p50", "ns", Lower, WALL),
    m("client.batch_p99_us", "us", Lower, WALL),
    m("client.batch_p999_us", "us", Lower, WALL),
    m("client.slow_segment_share", "ratio", Lower, CTRL),
    // core.regions.* — inline pass.
    m("core.regions.publish_ns_per_batch", "ns", Lower, WALL),
    m("core.regions.pickup_ns_per_batch", "ns", Lower, WALL),
    m("core.regions.retire_ns_per_batch", "ns", Lower, WALL),
    // core.engine.* — the program's own registry, traced workload pass.
    m("core.engine.stage_pickup_ns_p50", "ns", Lower, WALL),
    m("core.engine.stage_dispatch_ns_p50", "ns", Lower, WALL),
    m("core.engine.stage_submit_ns_p50", "ns", Lower, WALL),
    m("core.engine.stage_complete_ns_p50", "ns", Lower, WALL),
    m("core.engine.stage_retire_ns_p50", "ns", Lower, WALL),
    m("core.engine.park_ratio", "ratio", Higher, WALL),
    m("core.engine.doorbells_per_batch", "count", Lower, WALL),
    m("core.engine.sqes_per_doorbell", "count", Higher, WALL),
    m("core.engine.inflight_peak", "count", Higher, WALL),
    m("core.engine.retries", "count", Lower, WALL),
    m("core.engine.timeouts", "count", Lower, WALL),
    // protocol.* — inline pass (costs) and decision counters (counts).
    m("protocol.plan_batch_ns_per_req", "ns", Lower, ALL),
    m("protocol.plan_batch_write_ns_per_req", "ns", Lower, ALL),
    m("protocol.worker_admit_ns_per_cmd", "ns", Lower, ALL),
    m("protocol.worker_cqe_ns_per_cmd", "ns", Lower, ALL),
    m("protocol.cache_core_lookup_ns", "ns", Lower, CACHE),
    m("protocol.sqes", "count", Lower, ALL),
    m("protocol.groups", "count", Lower, ALL),
    m("protocol.dedup_dropped", "count", Higher, ALL),
    m("protocol.stripe_splits", "count", Lower, ALL),
    // nvme.* — inline pass (costs) and device counters (counts).
    m("nvme.sq_push_ns_per_cmd", "ns", Lower, WALL),
    m("nvme.doorbell_ns_per_ring", "ns", Lower, WALL),
    m("nvme.cq_reap_ns_per_cqe", "ns", Lower, WALL),
    m("nvme.device_service_ns_per_cmd", "ns", Lower, WALL),
    m("nvme.reads", "count", Lower, WALL),
    m("nvme.writes", "count", Lower, WALL),
    m("nvme.bytes", "count", Lower, WALL),
    // cache.*
    m("cache.lookup_hit_ns", "ns", Lower, CACHE),
    m("cache.lookup_miss_fill_ns", "ns", Lower, CACHE),
    m("cache.hit_rate", "ratio", Higher, CACHE),
    m("cache.evictions", "count", Lower, CACHE),
    m("cache.coalesced", "count", Higher, CACHE),
    m("cache.nvme_cmds_per_access", "ratio", Lower, CACHE),
    // serving.*
    m("serving.next_batch_ns", "ns", Lower, SERVE),
    m("serving.on_retire_ns", "ns", Lower, SERVE),
    m("serving.sched_ns_per_item", "ns", Lower, SERVE),
    m("serving.hit_rate", "ratio", Higher, SERVE),
    m("serving.evictions", "count", Lower, SERVE),
    m("serving.throttled", "count", Lower, SERVE),
    m("serving.batches_demand", "count", Lower, SERVE),
    m("serving.batches_wb", "count", Lower, SERVE),
    m("serving.batches_ra", "count", Lower, SERVE),
    // iostacks.des.*, simkit.*
    m("iostacks.des.host_ns_per_req", "ns", Lower, DES),
    m("iostacks.des.inflight_mean", "count", Higher, DES),
    m("iostacks.des.commands", "count", Lower, DES),
    m("simkit.host_ns_per_event", "ns", Lower, DES),
    // telemetry.*
    m("telemetry.hist_record_ns", "ns", Lower, WALL),
    m("telemetry.recorder_emit_ns", "ns", Lower, WALL),
    m("telemetry.overhead_pct", "%", Lower, WALL),
    // layers.* — the reconciliation, reported rather than gated.
    m("layers.sum_us_per_batch", "us", Lower, CTRL),
    m("layers.coverage_ctrl_read", "ratio", Higher, CTRL),
];

pub fn all_metrics() -> impl Iterator<Item = &'static Metric> {
    END_TO_END.iter().chain(PER_LAYER.iter())
}

pub fn find(name: &str) -> Option<&'static Metric> {
    all_metrics().find(|m| m.name == name)
}

pub fn unit_of(name: &str) -> Option<&'static str> {
    find(name).map(|m| m.unit)
}

pub fn is_workload(name: &str) -> bool {
    ALL.contains(&name)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn names_are_unique_and_within_the_contract_limits() {
        let mut seen = std::collections::BTreeSet::new();
        for name in all_metrics().map(|m| m.name).chain(ALL.iter().copied()) {
            assert!(seen.insert(name), "{name} used twice");
            assert!(name.len() <= 64);
            assert!(name
                .chars()
                .all(|c| c.is_ascii_alphanumeric() || "_.-".contains(c)));
        }
        for w in &WORKLOADS {
            assert!(w.why.len() <= 200 && !w.why.contains('\n'), "{}", w.name);
        }
        for metric in all_metrics() {
            assert!(metric.unit.len() <= 16, "{}", metric.name);
            assert!(metric.on.iter().all(|w| is_workload(w)));
        }
    }
}
