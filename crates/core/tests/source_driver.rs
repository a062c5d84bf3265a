//! The threaded driver of a `DesBatchSource` (`run_threaded_source`), the
//! wall-clock twin of the DES's `run_cam_des_source`: one source sees the
//! same retire outcomes on both clocks, failed commands included, and a
//! time-gated source waits out each gate on the wall clock.

use std::cell::RefCell;
use std::rc::Rc;
use std::sync::Arc;

use cam_blockdev::{BlockGeometry, BlockStore, FaultPolicy, FaultyStore, SparseMemStore};
use cam_core::{run_threaded_source, CamConfig, ChannelOp};
use cam_iostacks::cam_des::{
    run_cam_des_source, CamDesBatch, CamDesConfig, CamDesObs, DesBatchSource, DesFaultSpec,
    StaticSource,
};
use cam_iostacks::{Rig, RigConfig};
use cam_protocol::RetryPolicy;
use cam_telemetry::{clock, Observability};

const N_SSDS: usize = 2;
const N_CHANNELS: usize = 2;
const MAX_RETRIES: u32 = 1;
const RETRY_BACKOFF_NS: u64 = 1_000;
/// Faulty device LBAs `0..FAULT_LBAS` on SSD 0.
const FAULT_LBAS: u64 = 8;
/// Failed reads per faulty LBA: each of the first two batches that read
/// it spends its whole retry budget, and the third's retry succeeds.
const FAIL_TIMES: u32 = 2 * (MAX_RETRIES + 1) + 1;
const ROUNDS: usize = 4;

/// Channel `c` reads array LBAs `8c..8c + 8` every round. With two SSDs
/// and stripe 1, half of each batch lands on SSD 0's faulty window, and
/// the channels share no LBA, so each LBA's attempts come in one order on
/// either clock.
fn workload() -> StaticSource {
    let channels = (0..N_CHANNELS as u64)
        .map(|c| {
            let lbas = (8 * c..8 * c + 8).collect();
            vec![CamDesBatch { lbas, blocks: 1 }; ROUNDS]
        })
        .collect();
    StaticSource::new(channels, ChannelOp::Read)
}

/// Per-channel `errors` of every retired batch, in retire order.
type ErrorLog = Rc<RefCell<Vec<Vec<u64>>>>;

/// A source that logs what each retire reports and otherwise defers to
/// the wrapped one.
struct Recording {
    inner: StaticSource,
    log: ErrorLog,
}

impl DesBatchSource for Recording {
    fn next_batch(&mut self, channel: usize, now_ns: u64) -> Option<(CamDesBatch, ChannelOp)> {
        self.inner.next_batch(channel, now_ns)
    }

    fn on_retire(&mut self, channel: usize, _now_ns: u64, errors: u64) {
        self.log.borrow_mut()[channel].push(errors);
    }

    fn is_drained(&self) -> bool {
        self.inner.is_drained()
    }
}

fn recording() -> (Recording, ErrorLog) {
    let log = Rc::new(RefCell::new(vec![Vec::new(); N_CHANNELS]));
    let source = Recording {
        inner: workload(),
        log: Rc::clone(&log),
    };
    (source, log)
}

/// The rig of the threaded side: SSD 0's media fails the first
/// `FAIL_TIMES` reads of each faulty LBA.
fn faulty_rig() -> Rig {
    let cfg = RigConfig {
        n_ssds: N_SSDS,
        blocks_per_ssd: 4096,
        ..RigConfig::default()
    };
    let media = || -> Arc<dyn BlockStore> {
        Arc::new(SparseMemStore::new(BlockGeometry::new(
            cfg.block_size,
            cfg.blocks_per_ssd,
        )))
    };
    let policy = FaultPolicy::transient_reads_in(0, FAULT_LBAS, FAIL_TIMES);
    let stores = vec![Arc::new(FaultyStore::new(media(), policy)), media()];
    Rig::with_stores(cfg, stores)
}

#[test]
fn failed_reads_reach_the_source_alike_on_both_clocks() {
    let (mut source, threaded) = recording();
    let cfg = CamConfig {
        n_channels: N_CHANNELS,
        workers: Some(1),
        max_retries: MAX_RETRIES,
        retry_backoff_ns: RETRY_BACKOFF_NS,
        ..CamConfig::default()
    };
    let stats = run_threaded_source(&faulty_rig(), cfg, Observability::default(), &mut source);

    let (source, des) = recording();
    let des_cfg = CamDesConfig {
        retry: RetryPolicy {
            max_retries: MAX_RETRIES,
            backoff_base_ns: RETRY_BACKOFF_NS,
            deadline_ns: None,
        },
        fault: Some(DesFaultSpec::transient_reads_in(
            0, 0, FAULT_LBAS, FAIL_TIMES,
        )),
        ..CamDesConfig::calibrated(N_SSDS, 1)
    };
    let obs = CamDesObs::default();
    let report = run_cam_des_source(des_cfg, N_CHANNELS, Box::new(source), None, obs);

    // Four faulty LBAs per batch: each fails the first two batches that
    // read it, and the third batch's retry gets it through.
    let expected = vec![vec![4, 4, 0, 0]; N_CHANNELS];
    assert_eq!(*threaded.borrow(), expected, "threaded retires");
    assert_eq!(*des.borrow(), expected, "DES retires");
    assert_eq!(stats.batches, report.batches);
    assert_eq!(stats.errors, 16);
    assert_eq!(stats.retries, report.decisions.retries);
}

/// Batch `k` becomes ready at `t0 + k · GAP_NS` on the wall clock; every
/// batch is four single-block reads.
struct Gated {
    t0: u64,
    /// The instant each published batch was offered at.
    published: Vec<u64>,
    retired: u64,
}

const GATED_BATCHES: u64 = 8;
const GAP_NS: u64 = 200_000;

impl Gated {
    fn ready_ns(&self) -> Option<u64> {
        let k = self.published.len() as u64;
        (k < GATED_BATCHES).then_some(self.t0 + k * GAP_NS)
    }
}

impl DesBatchSource for Gated {
    fn next_batch(&mut self, _channel: usize, now_ns: u64) -> Option<(CamDesBatch, ChannelOp)> {
        assert!(now_ns <= clock::now_ns(), "offered at an instant to come");
        if self.ready_ns()? > now_ns {
            return None;
        }
        let base = 4 * self.published.len() as u64;
        self.published.push(now_ns);
        let lbas = (base..base + 4).collect();
        Some((CamDesBatch { lbas, blocks: 1 }, ChannelOp::Read))
    }

    fn on_retire(&mut self, _channel: usize, _now_ns: u64, errors: u64) {
        assert_eq!(errors, 0);
        self.retired += 1;
    }

    fn next_ready_ns(&mut self, _now_ns: u64) -> Option<u64> {
        self.ready_ns()
    }

    fn is_drained(&self) -> bool {
        self.published.len() as u64 == GATED_BATCHES && self.retired == GATED_BATCHES
    }
}

#[test]
fn a_time_gated_source_publishes_each_batch_at_its_instant() {
    let rig = Rig::new(RigConfig {
        n_ssds: N_SSDS,
        ..RigConfig::default()
    });
    let cfg = CamConfig {
        n_channels: N_CHANNELS,
        ..CamConfig::default()
    };
    let mut source = Gated {
        t0: clock::now_ns(),
        published: Vec::new(),
        retired: 0,
    };
    let stats = run_threaded_source(&rig, cfg, Observability::default(), &mut source);
    assert!(
        source.is_drained(),
        "the run returns once the source drains"
    );
    assert_eq!(stats.batches, GATED_BATCHES);
    for (k, &at) in source.published.iter().enumerate() {
        let ready = source.t0 + k as u64 * GAP_NS;
        assert!(at >= ready, "batch {k} published {} ns early", ready - at);
    }
}
