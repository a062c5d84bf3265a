//! DLRM embedding-table training — the recommendation-model motivation of
//! § I/§ II: "the DLRM training system TorchRec spends 75% of each
//! iteration time on the embedding access, which mainly reads the embedding
//! table from SSD with only ~64% SSD bandwidth utilization".
//!
//! * **Functional** — [`EmbeddingTable`] stores rows on the raw array;
//!   [`EmbeddingTable::lookup_pooled`] gathers and sum-pools Zipf-skewed
//!   rows through any [`StorageBackend`];
//!   [`EmbeddingTable::sgd_update`] applies a verifiable gradient step and
//!   writes rows back (the read-modify-write pattern of embedding
//!   training).
//! * **Analytic** — [`model_iteration`] reproduces the TorchRec breakdown
//!   and shows what CAM's full-bandwidth, overlapped access does to it.

use cam_core::{BackendError, IoRequest, StorageBackend};
use cam_gpu::Gpu;
use cam_simkit::dist::Zipf;
use cam_simkit::Dur;
use rand::Rng;

use crate::gnn::array_read_gbps;

/// An embedding table resident on the SSD array: row `r` occupies
/// `blocks_per_row` blocks starting at `base_lba + r * blocks_per_row`.
#[derive(Clone, Copy, Debug)]
pub struct EmbeddingTable {
    /// Number of rows.
    pub rows: u64,
    /// Embedding dimension (f32 elements).
    pub dim: u32,
    /// Array block size.
    pub block_size: u32,
    /// First LBA of the table.
    pub base_lba: u64,
    /// Blocks per row (dim × 4 bytes, padded to whole blocks).
    pub blocks_per_row: u32,
}

impl EmbeddingTable {
    /// Lays out a table.
    pub fn layout(rows: u64, dim: u32, block_size: u32, base_lba: u64) -> Self {
        let bytes = dim as u64 * 4;
        EmbeddingTable {
            rows,
            dim,
            block_size,
            base_lba,
            blocks_per_row: bytes.div_ceil(block_size as u64).max(1) as u32,
        }
    }

    /// First LBA of row `r`.
    pub fn lba_of(&self, r: u64) -> u64 {
        assert!(r < self.rows);
        self.base_lba + r * self.blocks_per_row as u64
    }

    /// Bytes per row record (padded).
    pub fn row_bytes(&self) -> usize {
        self.blocks_per_row as usize * self.block_size as usize
    }

    /// Total blocks the table occupies.
    pub fn total_blocks(&self) -> u64 {
        self.rows * self.blocks_per_row as u64
    }

    /// The deterministic initial value of `emb[r][j]`.
    pub fn init_value(r: u64, j: u32) -> f32 {
        (((r * 37 + j as u64) % 1000) as f32) / 100.0
    }

    /// Initializes every row on the array through `backend`.
    pub fn load(&self, backend: &dyn StorageBackend, gpu: &Gpu) -> Result<(), BackendError> {
        let rb = self.row_bytes();
        let buf = gpu.alloc(rb).expect("row buffer");
        let mut bytes = vec![0u8; rb];
        for r in 0..self.rows {
            for j in 0..self.dim {
                bytes[j as usize * 4..j as usize * 4 + 4]
                    .copy_from_slice(&Self::init_value(r, j).to_le_bytes());
            }
            buf.write(0, &bytes);
            backend.execute_batch(&[IoRequest::write(
                self.lba_of(r),
                self.blocks_per_row,
                buf.addr(),
            )])?;
        }
        Ok(())
    }

    /// Fetches `ids` (with duplicates allowed) and returns each row's f32
    /// vector, via one batched read of the deduplicated id set.
    pub fn gather(
        &self,
        backend: &dyn StorageBackend,
        gpu: &Gpu,
        ids: &[u64],
    ) -> Result<Vec<Vec<f32>>, BackendError> {
        let mut unique: Vec<u64> = ids.to_vec();
        unique.sort_unstable();
        unique.dedup();
        let rb = self.row_bytes();
        let buf = gpu.alloc(unique.len() * rb).expect("gather buffer");
        let reqs: Vec<IoRequest> = unique
            .iter()
            .enumerate()
            .map(|(i, &r)| {
                IoRequest::read(
                    self.lba_of(r),
                    self.blocks_per_row,
                    buf.addr() + (i * rb) as u64,
                )
            })
            .collect();
        backend.execute_batch(&reqs)?;
        let data = buf.to_vec();
        let decode = |i: usize| -> Vec<f32> {
            (0..self.dim as usize)
                .map(|j| {
                    let o = i * rb + j * 4;
                    f32::from_le_bytes(data[o..o + 4].try_into().unwrap())
                })
                .collect()
        };
        Ok(ids
            .iter()
            .map(|r| decode(unique.binary_search(r).unwrap()))
            .collect())
    }

    /// Sum-pools a multi-hot bag of ids (one DLRM sparse-feature lookup).
    pub fn lookup_pooled(
        &self,
        backend: &dyn StorageBackend,
        gpu: &Gpu,
        bag: &[u64],
    ) -> Result<Vec<f32>, BackendError> {
        let rows = self.gather(backend, gpu, bag)?;
        let mut pooled = vec![0.0f32; self.dim as usize];
        for row in rows {
            for (p, x) in pooled.iter_mut().zip(row) {
                *p += x;
            }
        }
        Ok(pooled)
    }

    /// Applies `row[j] -= lr * grad[j]` to each id's row (read-modify-write
    /// through the backend), deduplicating ids so each row is updated once.
    pub fn sgd_update(
        &self,
        backend: &dyn StorageBackend,
        gpu: &Gpu,
        ids: &[u64],
        grad: &[f32],
        lr: f32,
    ) -> Result<(), BackendError> {
        assert_eq!(grad.len(), self.dim as usize);
        let mut unique: Vec<u64> = ids.to_vec();
        unique.sort_unstable();
        unique.dedup();
        let rows = self.gather(backend, gpu, &unique)?;
        let rb = self.row_bytes();
        let buf = gpu.alloc(rb).expect("update buffer");
        let mut bytes = vec![0u8; rb];
        for (i, &r) in unique.iter().enumerate() {
            for j in 0..self.dim as usize {
                let v = rows[i][j] - lr * grad[j];
                bytes[j * 4..j * 4 + 4].copy_from_slice(&v.to_le_bytes());
            }
            buf.write(0, &bytes);
            backend.execute_batch(&[IoRequest::write(
                self.lba_of(r),
                self.blocks_per_row,
                buf.addr(),
            )])?;
        }
        Ok(())
    }
}

/// Draws a Zipf-skewed lookup bag (hot rows dominate, as in production
/// recommendation traffic).
pub fn zipf_bag<R: Rng>(table_rows: u64, bag_size: usize, skew: f64, rng: &mut R) -> Vec<u64> {
    let z = Zipf::new(table_rows, skew);
    (0..bag_size).map(|_| z.sample(rng) - 1).collect()
}

// ---------------------------------------------------------------------------
// Analytic iteration model (§ II's TorchRec observation).
// ---------------------------------------------------------------------------

/// The embedding-access substrate being modelled.
#[derive(Clone, Copy, PartialEq, Eq, Debug)]
pub enum DlrmSystem {
    /// TorchRec-style kernel path: ~64% of array bandwidth, serial with
    /// compute.
    TorchRec,
    /// CAM: full bandwidth, embedding I/O overlapped with dense compute.
    Cam,
}

/// One training iteration's time breakdown.
#[derive(Clone, Copy, Debug)]
pub struct DlrmBreakdown {
    /// Embedding fetch + update time (SSD I/O).
    pub embedding: Dur,
    /// Dense MLP + interaction compute.
    pub compute: Dur,
    /// End-to-end iteration time.
    pub iteration: Dur,
}

impl DlrmBreakdown {
    /// Share of the iteration spent on embedding access (serial view).
    pub fn embedding_fraction(&self) -> f64 {
        self.embedding.as_ns() as f64 / (self.embedding + self.compute).as_ns() as f64
    }
}

/// Bandwidth utilization of the TorchRec baseline ("only ~64% SSD
/// bandwidth utilization", § II).
pub const TORCHREC_BW_UTILIZATION: f64 = 0.64;

/// Models one iteration: `batch` samples × `tables` sparse features ×
/// `pooling` ids each, `dim`-wide rows, fetch + update both on SSD.
pub fn model_iteration(
    system: DlrmSystem,
    batch: u64,
    tables: u64,
    pooling: u64,
    dim: u32,
    n_ssds: usize,
) -> DlrmBreakdown {
    let row_bytes = (dim as u64 * 4).max(512);
    let io_bytes = 2 * batch * tables * pooling * row_bytes; // fetch + update
    let bw = array_read_gbps(n_ssds, row_bytes);
    let (eff_bw, overlapped) = match system {
        DlrmSystem::TorchRec => (bw * TORCHREC_BW_UTILIZATION, false),
        DlrmSystem::Cam => (bw, true),
    };
    let embedding = Dur::from_ns_f64(io_bytes as f64 / eff_bw);
    // Dense compute calibrated so the TorchRec embedding share lands at the
    // paper's 75%: compute = embedding_torchrec / 3.
    let torchrec_embedding = io_bytes as f64 / (bw * TORCHREC_BW_UTILIZATION);
    let compute = Dur::from_ns_f64(torchrec_embedding / 3.0);
    let iteration = if overlapped {
        let long = embedding.max(compute);
        let short = if embedding.as_ns() > compute.as_ns() {
            compute
        } else {
            embedding
        };
        long + Dur::from_ns_f64(short.as_ns() as f64 * 0.25)
    } else {
        embedding + compute
    };
    DlrmBreakdown {
        embedding,
        compute,
        iteration,
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use cam_simkit::dist::seeded_rng;

    #[test]
    fn torchrec_baseline_matches_section_ii() {
        let b = model_iteration(DlrmSystem::TorchRec, 4096, 26, 20, 128, 12);
        // "75% of each iteration time on the embedding access".
        let f = b.embedding_fraction();
        assert!((0.72..0.78).contains(&f), "embedding fraction {f}");
    }

    #[test]
    fn cam_shortens_the_iteration_substantially() {
        let base = model_iteration(DlrmSystem::TorchRec, 4096, 26, 20, 128, 12);
        let cam = model_iteration(DlrmSystem::Cam, 4096, 26, 20, 128, 12);
        let speedup = base.iteration.as_ns() as f64 / cam.iteration.as_ns() as f64;
        // Full bandwidth (1/0.64) + overlap: well above 1.5x.
        assert!(speedup > 1.5, "speedup {speedup}");
        assert!(speedup < 3.0, "speedup {speedup} suspiciously high");
    }

    #[test]
    fn zipf_bags_are_skewed_and_in_range() {
        let mut rng = seeded_rng(5);
        let bag = zipf_bag(1_000_000, 10_000, 0.9, &mut rng);
        assert!(bag.iter().all(|&r| r < 1_000_000));
        let hot = bag.iter().filter(|&&r| r < 100).count();
        assert!(hot > 500, "hot-row share {hot}/10000");
    }

    #[test]
    fn layout_math() {
        let t = EmbeddingTable::layout(100, 128, 512, 50);
        assert_eq!(t.blocks_per_row, 1); // 512 B rows in 512 B blocks
        assert_eq!(t.lba_of(3), 53);
        assert_eq!(t.total_blocks(), 100);
        let t = EmbeddingTable::layout(10, 128, 4096, 0);
        assert_eq!(t.blocks_per_row, 1); // padded into one 4 KiB block
        assert_eq!(t.row_bytes(), 4096);
    }
}
