//! Out-of-core GNN training (§ IV-C): neighbor sampling, SSD-resident node
//! features, and the three models of Table V.
//!
//! Two halves:
//!
//! * **Functional** — [`FeatureStore`] lays node features out on the raw
//!   array (one record per block group, like GIDS' feature pages),
//!   [`sample_neighborhood`] is a real 2-hop fan-out sampler, and
//!   [`train_epoch_functional`] fetches sampled features through any
//!   [`StorageBackend`] and computes a verifiable aggregate.
//!
//! * **Analytic** — [`model_epoch`] reproduces Figs. 1 and 9 from
//!   calibrated per-node costs and the P5510/PCIe bandwidth model:
//!   GIDS (BaM-based) runs sample → extract → train serially, CAM overlaps
//!   extraction with sampling + training (Fig. 6's pipeline) and sustains
//!   higher 4 KiB throughput than BaM's synchronous submission under
//!   compute contention (15 → 20 GB/s in the paper's measurements).

use std::collections::HashSet;

use cam_blockdev::{BlockStore, Lba};
use cam_core::{BackendError, IoRequest, StorageBackend};
use cam_nvme::SsdModel;
use cam_simkit::dist::seeded_rng;
use cam_simkit::Dur;
use rand::seq::SliceRandom;
use rand::Rng;

use crate::graph::{Graph, GraphSpec};

/// Table V's experiment configuration.
#[derive(Clone, Copy, Debug)]
pub struct GnnConfig {
    /// Mini-batch size (paper: 8000).
    pub batch_size: u32,
    /// Sampling fan-outs per hop (paper: 25, 10).
    pub fanouts: [u32; 2],
    /// Hidden layer dimension (paper: 128).
    pub hidden_dim: u32,
}

impl Default for GnnConfig {
    fn default() -> Self {
        GnnConfig {
            batch_size: 8000,
            fanouts: [25, 10],
            hidden_dim: 128,
        }
    }
}

/// The three GNN models evaluated (Fig. 9).
#[derive(Clone, Copy, PartialEq, Eq, Debug, Hash)]
pub enum GnnModel {
    /// Graph convolutional network.
    Gcn,
    /// Graph attention network — the most compute-intensive ("GAT involves
    /// the most intensive computations", § IV-C).
    Gat,
    /// GraphSAGE.
    GraphSage,
}

impl GnnModel {
    /// All models, figure order.
    pub const ALL: [GnnModel; 3] = [GnnModel::Gcn, GnnModel::Gat, GnnModel::GraphSage];

    /// Display name.
    pub fn name(self) -> &'static str {
        match self {
            GnnModel::Gcn => "GCN",
            GnnModel::Gat => "GAT",
            GnnModel::GraphSage => "GRAPHSAGE",
        }
    }

    /// Calibrated GPU training cost per sampled node at 128-dim features
    /// (forward + backward on the A100), fitted to Fig. 1's breakdown:
    /// extraction 40–65% and training 16–44% of a GIDS step.
    fn train_ns_per_node_base(self) -> f64 {
        match self {
            GnnModel::Gcn => 49.0,
            GnnModel::Gat => 176.0,
            GnnModel::GraphSage => 67.0,
        }
    }

    /// Input-dimension scaling of training cost. GCN/GraphSAGE are
    /// dominated by the first-layer `X·W` (∝ feature dim); GAT's per-edge
    /// attention works on hidden vectors, so its cost is mostly
    /// dimension-independent.
    fn dim_factor(self, feature_dim: u32) -> f64 {
        let r = feature_dim as f64 / 128.0;
        match self {
            GnnModel::Gat => 1.0 + (r - 1.0) * 0.043,
            _ => 1.0 + (r - 1.0) * 0.15,
        }
    }

    /// Training cost per sampled node for a given feature dimension.
    pub fn train_ns_per_node(self, feature_dim: u32) -> f64 {
        self.train_ns_per_node_base() * self.dim_factor(feature_dim)
    }
}

/// Calibrated sampling cost per sampled node (CPU-resident graph walk +
/// frontier dedup).
pub const SAMPLE_NS_PER_NODE: f64 = 36.7;

/// 2-hop neighbor sampling with the configured fan-outs; returns the
/// deduplicated node set (seeds first). Deterministic in `rng`.
pub fn sample_neighborhood<R: Rng>(
    graph: &Graph,
    seeds: &[u32],
    fanouts: &[u32],
    rng: &mut R,
) -> Vec<u32> {
    let mut seen: HashSet<u32> = seeds.iter().copied().collect();
    let mut out: Vec<u32> = seeds.to_vec();
    let mut frontier: Vec<u32> = seeds.to_vec();
    for &fanout in fanouts {
        let mut next = Vec::new();
        for &v in &frontier {
            let nbrs = graph.neighbors(v);
            if nbrs.is_empty() {
                continue;
            }
            if nbrs.len() <= fanout as usize {
                for &n in nbrs {
                    if seen.insert(n) {
                        out.push(n);
                        next.push(n);
                    }
                }
            } else {
                for &n in nbrs.choose_multiple(rng, fanout as usize) {
                    if seen.insert(n) {
                        out.push(n);
                        next.push(n);
                    }
                }
            }
        }
        frontier = next;
    }
    out
}

/// Node-feature layout on the raw array: node `v`'s record occupies
/// `blocks_per_node` consecutive blocks starting at `v * blocks_per_node`
/// (the fixed mapping that lets CAM skip filesystem lookup, § II-A).
#[derive(Clone, Copy, Debug)]
pub struct FeatureStore {
    /// Array block size in bytes.
    pub block_size: u32,
    /// Feature dimension.
    pub feature_dim: u32,
    /// Blocks per node record.
    pub blocks_per_node: u32,
}

impl FeatureStore {
    /// Computes the layout for a feature dimension on a given block size.
    pub fn layout(feature_dim: u32, block_size: u32) -> Self {
        let bytes = feature_dim as u64 * 4;
        FeatureStore {
            block_size,
            feature_dim,
            blocks_per_node: bytes.div_ceil(block_size as u64).max(1) as u32,
        }
    }

    /// First LBA of node `v`'s record.
    pub fn lba_of(&self, v: u32) -> u64 {
        v as u64 * self.blocks_per_node as u64
    }

    /// Bytes per node record (padded to whole blocks).
    pub fn node_bytes(&self) -> usize {
        self.blocks_per_node as usize * self.block_size as usize
    }

    /// The deterministic feature value `feat[v][j]` used by tests and the
    /// functional trainer.
    pub fn feature_value(v: u32, j: u32) -> f32 {
        ((v as u64 * 31 + j as u64) % 1000) as f32
    }

    /// Writes every node's features to the array (dataset loading,
    /// out-of-band like the paper's preprocessing).
    pub fn load_features(&self, store: &dyn BlockStore, nodes: u32) {
        let nb = self.node_bytes();
        let mut buf = vec![0u8; nb];
        for v in 0..nodes {
            for j in 0..self.feature_dim {
                let val = Self::feature_value(v, j);
                buf[j as usize * 4..j as usize * 4 + 4].copy_from_slice(&val.to_le_bytes());
            }
            store
                .write(Lba(self.lba_of(v)), &buf)
                .expect("feature store fits the array");
        }
    }
}

/// Result of a functional training run: a verifiable aggregate.
#[derive(Clone, Copy, Debug, PartialEq)]
pub struct TrainReport {
    /// Mini-batch steps executed.
    pub steps: u32,
    /// Total sampled (deduplicated) nodes fetched from SSD.
    pub nodes_fetched: u64,
    /// Sum over steps of the mean first-feature value of sampled nodes —
    /// any data corruption in the I/O path changes it.
    pub checksum: f64,
}

/// Runs `steps` mini-batches: sample → fetch features via `backend` into
/// pinned GPU memory → aggregate (the "training" compute). The returned
/// checksum is reproducible for a given `(graph seed, sample seed)`.
pub fn train_epoch_functional(
    backend: &dyn StorageBackend,
    gpu: &cam_gpu::Gpu,
    graph: &Graph,
    layout: FeatureStore,
    cfg: &GnnConfig,
    steps: u32,
    sample_seed: u64,
) -> Result<TrainReport, BackendError> {
    let mut rng = seeded_rng(sample_seed);
    let nb = layout.node_bytes();
    let mut checksum = 0.0f64;
    let mut nodes_fetched = 0u64;
    for step in 0..steps {
        let seeds: Vec<u32> = (0..cfg.batch_size)
            .map(|i| (step * cfg.batch_size + i) % graph.nodes())
            .collect();
        let nodes = sample_neighborhood(graph, &seeds, &cfg.fanouts, &mut rng);
        nodes_fetched += nodes.len() as u64;
        let buf = gpu
            .alloc(nodes.len() * nb)
            .expect("feature batch fits GPU memory");
        let reqs: Vec<IoRequest> = nodes
            .iter()
            .enumerate()
            .map(|(i, &v)| {
                IoRequest::read(
                    layout.lba_of(v),
                    layout.blocks_per_node,
                    buf.addr() + (i * nb) as u64,
                )
            })
            .collect();
        backend.execute_batch(&reqs)?;
        // "Training": mean of each node's first feature — touches every
        // fetched record, so corruption or misrouting shows up.
        let data = buf.to_vec();
        let mut sum = 0.0f64;
        for i in 0..nodes.len() {
            let mut le = [0u8; 4];
            le.copy_from_slice(&data[i * nb..i * nb + 4]);
            sum += f32::from_le_bytes(le) as f64;
        }
        checksum += sum / nodes.len() as f64;
    }
    Ok(TrainReport {
        steps,
        nodes_fetched,
        checksum,
    })
}

// ---------------------------------------------------------------------------
// Analytic epoch model (Figs. 1 and 9).
// ---------------------------------------------------------------------------

/// The training system being modelled.
#[derive(Clone, Copy, PartialEq, Eq, Debug)]
pub enum GnnSystem {
    /// GIDS: BaM-based, synchronous feature extraction serial with training.
    Gids,
    /// CAM: extraction overlapped with sampling + training (Fig. 6).
    Cam,
}

/// Per-step (and per-epoch) time breakdown — Fig. 1's bars.
#[derive(Clone, Copy, Debug)]
pub struct EpochBreakdown {
    /// Node sampling time per step.
    pub sample: Dur,
    /// Feature-extraction (SSD I/O) time per step.
    pub extract: Dur,
    /// Model training time per step.
    pub train: Dur,
    /// End-to-end step time (serial sum for GIDS; pipelined for CAM).
    pub step: Dur,
    /// Steps per epoch.
    pub steps: u64,
    /// Sampled (deduplicated) nodes per step.
    pub nodes_per_step: u64,
}

impl EpochBreakdown {
    /// Epoch time = steps × step time.
    pub fn epoch(&self) -> Dur {
        self.step * self.steps
    }

    /// Fraction of a step spent on feature extraction (GIDS view).
    pub fn extract_fraction(&self) -> f64 {
        self.extract.as_ns() as f64 / (self.sample + self.extract + self.train).as_ns() as f64
    }

    /// Fraction of a step spent training (GIDS view).
    pub fn train_fraction(&self) -> f64 {
        self.train.as_ns() as f64 / (self.sample + self.extract + self.train).as_ns() as f64
    }
}

/// Sampling dedup factor: fraction of the raw 2-hop expansion that remains
/// after deduplication. Bigger graphs dedup less.
fn dedup_factor(spec: &GraphSpec) -> f64 {
    if spec.nodes > 200_000_000 {
        0.70
    } else {
        0.55
    }
}

/// Aggregate read bandwidth (GB/s) of `n` P5510s at `gran`-byte requests,
/// capped by the measured PCIe ceiling — the same arithmetic as the
/// microbenchmark engine's steady state.
pub fn array_read_gbps(n_ssds: usize, gran: u64) -> f64 {
    let m = SsdModel::p5510();
    let service_ns = m.read_latency.as_ns() as f64 + gran as f64 / m.channel_read_gbps;
    let per_ssd = (m.read_channels as f64 / service_ns * gran as f64).min(m.link_gbps);
    (per_ssd * n_ssds as f64).min(21.0)
}

/// GIDS' achieved share of the array bandwidth. At ≥4 KiB granularity the
/// devices could deliver more than BaM's synchronous submission sustains
/// while training contends for SMs (the paper measures 15 of ~20 GB/s); at
/// sub-page granularity the SSDs themselves are the bottleneck and the two
/// systems match.
const GIDS_BW_FACTOR_LARGE: f64 = 0.75;

/// Fraction of the shorter pipeline leg that CAM fails to overlap
/// (per-batch synchronization, sampling of the very first/last batches —
/// "our system can't eliminate the pipeline bubbles caused by data
/// dependencies").
const CAM_BUBBLE: f64 = 0.25;

/// Models one training epoch of `model` on `spec` with `n_ssds` SSDs.
pub fn model_epoch(
    system: GnnSystem,
    spec: &GraphSpec,
    model: GnnModel,
    cfg: &GnnConfig,
    n_ssds: usize,
) -> EpochBreakdown {
    let expansion = 1 + cfg.fanouts[0] as u64 + (cfg.fanouts[0] * cfg.fanouts[1]) as u64;
    let nodes_per_step = (cfg.batch_size as u64 * expansion) as f64 * dedup_factor(spec);
    // Feature records are fetched at their natural granularity (512 B for
    // Paper100M's 128-dim records, 4 KiB for IGB's 1024-dim records).
    let gran = spec.feature_bytes().max(512);
    let bytes = nodes_per_step * gran as f64;

    let cam_bw = array_read_gbps(n_ssds, gran);
    let bw = match system {
        GnnSystem::Cam => cam_bw,
        GnnSystem::Gids => {
            if gran >= 4096 {
                cam_bw * GIDS_BW_FACTOR_LARGE
            } else {
                cam_bw
            }
        }
    };
    let extract = Dur::from_ns_f64(bytes / bw);
    let sample = Dur::from_ns_f64(nodes_per_step * SAMPLE_NS_PER_NODE);
    let train = Dur::from_ns_f64(nodes_per_step * model.train_ns_per_node(spec.feature_dim));

    let step = match system {
        GnnSystem::Gids => sample + extract + train,
        GnnSystem::Cam => {
            // Fig. 6: sampling and training of batch n overlap extraction
            // of batch n+1, with a bubble on the shorter leg.
            let compute = sample + train;
            let long = compute.max(extract);
            let short = compute.min(extract);
            long + Dur::from_ns_f64(short.as_ns() as f64 * CAM_BUBBLE)
        }
    };
    EpochBreakdown {
        sample,
        extract,
        train,
        step,
        steps: spec.nodes / cfg.batch_size as u64,
        nodes_per_step: nodes_per_step as u64,
    }
}

/// CAM speedup over GIDS for one (dataset, model) cell of Fig. 9.
pub fn fig9_speedup(spec: &GraphSpec, model: GnnModel, cfg: &GnnConfig, n_ssds: usize) -> f64 {
    let gids = model_epoch(GnnSystem::Gids, spec, model, cfg, n_ssds);
    let cam = model_epoch(GnnSystem::Cam, spec, model, cfg, n_ssds);
    gids.step.as_ns() as f64 / cam.step.as_ns() as f64
}

/// Schedules `steps` batches of the Fig. 6 pipeline explicitly and returns
/// the makespan — the dataflow view the closed-form in [`model_epoch`]
/// summarizes.
///
/// Two resources: the GPU (sampling and training serialize on it, in
/// program order) and the I/O plane (feature extraction). Batch `k`'s
/// extraction needs `k`'s sampling; `k`'s training needs `k`'s extraction.
/// When `dependency_every = Some(m)`, every `m`-th batch's sampling
/// additionally depends on the *previous* batch's training output — the
/// data dependency the paper concedes it cannot pipeline away ("if the
/// read is dependent on the prior compute, pipeline bubbles will appear").
/// `overlapped = false` chains everything on one timeline (GIDS).
pub fn pipeline_makespan(
    sample: Dur,
    extract: Dur,
    train: Dur,
    steps: u64,
    overlapped: bool,
    dependency_every: Option<u64>,
) -> Dur {
    assert!(steps >= 1);
    if !overlapped {
        return (sample + extract + train) * steps;
    }
    // Fig. 7's program order per iteration k: synchronize extract(k) →
    // sample(k+1) → issue extract(k+1) → train(k). Sampling the *next*
    // batch before training the current one is what lets extraction overlap
    // training; a dependent batch must instead sample after train(k).
    let (s, e, t) = (sample.as_ns(), extract.as_ns(), train.as_ns());
    let mut gpu_free: u64;
    let mut io_free: u64;
    // Warm-up: sample(0) + extract(0) with an empty pipeline.
    gpu_free = s;
    io_free = s + e;
    let mut extract_done_cur = io_free;
    for k in 0..steps {
        let next_dependent = dependency_every
            .map(|m| m > 0 && (k + 1) % m == 0)
            .unwrap_or(false);
        let mut next_extract = extract_done_cur;
        if k + 1 < steps && !next_dependent {
            // Sample k+1 now, so its extraction overlaps train(k).
            gpu_free += s;
            next_extract = io_free.max(gpu_free) + e;
            io_free = next_extract;
        }
        // Train k once its features are resident.
        gpu_free = gpu_free.max(extract_done_cur) + t;
        if k + 1 < steps && next_dependent {
            // Data dependency: k+1's sampling needs train(k)'s output.
            gpu_free += s;
            next_extract = io_free.max(gpu_free) + e;
            io_free = next_extract;
        }
        extract_done_cur = next_extract;
    }
    Dur::ns(gpu_free)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn sampler_respects_fanouts_and_dedups() {
        let g = Graph::generate(50_000, 15.0, 128, 3);
        let mut rng = seeded_rng(1);
        let seeds: Vec<u32> = (0..100).collect();
        let nodes = sample_neighborhood(&g, &seeds, &[25, 10], &mut rng);
        // Seeds come first and appear once.
        assert_eq!(&nodes[..100], &seeds[..]);
        let set: HashSet<u32> = nodes.iter().copied().collect();
        assert_eq!(set.len(), nodes.len(), "duplicates in sample");
        // Bounded by the raw expansion.
        assert!(nodes.len() as u64 <= 100 * (1 + 25 + 250));
        assert!(nodes.len() > 100);
    }

    #[test]
    fn feature_layout_math() {
        let l = FeatureStore::layout(128, 512);
        assert_eq!(l.blocks_per_node, 1); // 512 B record in 512 B blocks
        assert_eq!(l.node_bytes(), 512);
        assert_eq!(l.lba_of(10), 10);
        let l = FeatureStore::layout(1024, 4096);
        assert_eq!(l.blocks_per_node, 1); // 4 KiB record in 4 KiB blocks
        let l = FeatureStore::layout(128, 4096);
        assert_eq!(l.blocks_per_node, 1); // padded
        let l = FeatureStore::layout(2048, 4096);
        assert_eq!(l.blocks_per_node, 2);
        assert_eq!(l.lba_of(10), 20);
    }

    #[test]
    fn fig1_gids_breakdown_fractions() {
        // "GIDS spends 40%-65% of the overall training time on extracting
        // node features ... training ranges from 16% to 44%".
        let spec = GraphSpec::paper100m();
        let cfg = GnnConfig::default();
        for model in GnnModel::ALL {
            let b = model_epoch(GnnSystem::Gids, &spec, model, &cfg, 12);
            let ef = b.extract_fraction();
            let tf = b.train_fraction();
            assert!(
                (0.40..=0.67).contains(&ef),
                "{}: extract {ef}",
                model.name()
            );
            assert!((0.16..=0.48).contains(&tf), "{}: train {tf}", model.name());
        }
    }

    #[test]
    fn fig9_speedups_in_paper_ranges() {
        let cfg = GnnConfig::default();
        let p = GraphSpec::paper100m();
        let i = GraphSpec::igb_full();
        let mut max_speedup: f64 = 0.0;
        for model in GnnModel::ALL {
            let sp = fig9_speedup(&p, model, &cfg, 12);
            let si = fig9_speedup(&i, model, &cfg, 12);
            assert!(sp > 1.2 && sp < 1.6, "{} P100M: {sp}", model.name());
            assert!(si > 1.4 && si < 1.95, "{} IGB: {si}", model.name());
            // "CAM achieves a greater speed-up on the IGB dataset".
            assert!(si > sp, "{}: IGB {si} ≤ P100M {sp}", model.name());
            max_speedup = max_speedup.max(sp).max(si);
        }
        // Headline: "up to 1.84× training speed".
        assert!(
            (1.7..=1.95).contains(&max_speedup),
            "max speedup {max_speedup}"
        );
    }

    #[test]
    fn gat_gets_best_speedup_on_paper100m() {
        // "our solution can achieve greater speed in the GAT model than GCN
        // and GRAPHSAGE" (Paper100M).
        let cfg = GnnConfig::default();
        let p = GraphSpec::paper100m();
        let gat = fig9_speedup(&p, GnnModel::Gat, &cfg, 12);
        let gcn = fig9_speedup(&p, GnnModel::Gcn, &cfg, 12);
        let sage = fig9_speedup(&p, GnnModel::GraphSage, &cfg, 12);
        assert!(gat > gcn, "GAT {gat} vs GCN {gcn}");
        assert!(gat > sage, "GAT {gat} vs SAGE {sage}");
    }

    #[test]
    fn pipeline_schedule_agrees_with_closed_form() {
        // The closed-form CAM step (max + bubble·min with bubble 0.25) must
        // match the explicit dataflow schedule with a dependency every 4th
        // batch, in both the I/O-bound and compute-bound regimes.
        let cfg = GnnConfig::default();
        for spec in [GraphSpec::paper100m(), GraphSpec::igb_full()] {
            for model in GnnModel::ALL {
                let b = model_epoch(GnnSystem::Cam, &spec, model, &cfg, 12);
                // Recover the CAM-bandwidth extraction time.
                let gran = spec.feature_bytes().max(512);
                let bytes = b.nodes_per_step as f64 * gran as f64;
                let extract_cam = Dur::from_ns_f64(bytes / array_read_gbps(12, gran));
                let steps = 256;
                let sched = pipeline_makespan(b.sample, extract_cam, b.train, steps, true, Some(4));
                let per_step = sched.as_ns() as f64 / steps as f64;
                let closed = b.step.as_ns() as f64;
                let rel = (per_step - closed).abs() / closed;
                assert!(
                    rel < 0.05,
                    "{} {}: schedule {per_step} vs closed form {closed}",
                    spec.name,
                    model.name()
                );
            }
        }
    }

    #[test]
    fn pipeline_schedule_edge_cases() {
        let s = Dur::ms(1);
        let e = Dur::ms(4);
        let t = Dur::ms(2);
        // Serial = sum of stages.
        assert_eq!(
            pipeline_makespan(s, e, t, 10, false, None).as_ns(),
            (s + e + t).as_ns() * 10
        );
        // Fully independent overlap: steady state paced by the longest leg.
        let m = pipeline_makespan(s, e, t, 1000, true, None);
        let per_step = m.as_ns() as f64 / 1000.0;
        assert!((per_step - e.as_ns() as f64).abs() / (e.as_ns() as f64) < 0.01);
        // Every batch dependent: fully serialized again.
        let m = pipeline_makespan(s, e, t, 100, true, Some(1));
        let per_step = m.as_ns() / 100;
        assert!(per_step >= (s + e + t).as_ns() * 99 / 100);
        // One batch: identical regardless of overlap.
        assert_eq!(
            pipeline_makespan(s, e, t, 1, true, None),
            pipeline_makespan(s, e, t, 1, false, None)
        );
    }

    #[test]
    fn bandwidth_model_matches_microbench_anchors() {
        // 12 SSDs, 4 KiB: ~21 GB/s (PCIe-capped); 512 B: ~3.2 GB/s.
        let b4k = array_read_gbps(12, 4096);
        assert!((20.0..21.01).contains(&b4k), "{b4k}");
        let b512 = array_read_gbps(12, 512);
        assert!((2.8..3.6).contains(&b512), "{b512}");
    }
}
