//! Out-of-core GEMM (§ IV-E): `C = A × B` where the three matrices don't
//! fit in GPU memory and operand tiles stream from the SSD array.
//!
//! * [`out_of_core_gemm`] — functional tiled multiply: f32 tiles live on
//!   raw blocks, every operand byte moves through the supplied backend,
//!   and the result is verifiable against a dense reference.
//! * [`model_gemm`] — the analytic model behind Figs. 10b/10c: CAM overlaps
//!   tile I/O with the multiply, BaM serializes them (its GPU-resident
//!   control plane contends with the GEMM kernel for SMs), and GDS is
//!   control-path-bound at ~0.8 GB/s.

use cam_core::{BackendError, IoRequest, StorageBackend};
use cam_gpu::Gpu;
use cam_simkit::Dur;

use crate::gnn::array_read_gbps;

/// Functional GEMM configuration. Matrices are square `n × n`, tiled into
/// `tile × tile` f32 blocks; `tile² × 4` bytes must be a multiple of the
/// array block size.
#[derive(Clone, Copy, Debug)]
pub struct OocGemmConfig {
    /// Matrix dimension (multiple of `tile`).
    pub n: u32,
    /// Tile dimension.
    pub tile: u32,
    /// Array block size in bytes.
    pub block_size: u32,
    /// First LBA of matrix A (row-major tiles); B and C follow.
    pub base_lba: u64,
}

impl OocGemmConfig {
    fn tiles_per_dim(&self) -> u64 {
        (self.n / self.tile) as u64
    }

    fn tile_bytes(&self) -> u64 {
        self.tile as u64 * self.tile as u64 * 4
    }

    fn tile_blocks(&self) -> u64 {
        self.tile_bytes() / self.block_size as u64
    }

    fn matrix_blocks(&self) -> u64 {
        self.tiles_per_dim() * self.tiles_per_dim() * self.tile_blocks()
    }

    /// First LBA of tile `(i, j)` of matrix `m` (0 = A, 1 = B, 2 = C).
    pub fn tile_lba(&self, m: u64, i: u64, j: u64) -> u64 {
        self.base_lba
            + m * self.matrix_blocks()
            + (i * self.tiles_per_dim() + j) * self.tile_blocks()
    }

    fn validate(&self) {
        assert!(self.tile >= 1 && self.n >= self.tile);
        assert!(self.n.is_multiple_of(self.tile), "tile must divide n");
        assert!(
            self.tile_bytes().is_multiple_of(self.block_size as u64),
            "tile must be whole blocks"
        );
    }
}

fn f32s_from(bytes: &[u8]) -> Vec<f32> {
    bytes
        .chunks_exact(4)
        .map(|c| f32::from_le_bytes([c[0], c[1], c[2], c[3]]))
        .collect()
}

fn bytes_from(vals: &[f32]) -> Vec<u8> {
    let mut out = Vec::with_capacity(vals.len() * 4);
    for v in vals {
        out.extend_from_slice(&v.to_le_bytes());
    }
    out
}

/// Writes matrix `m` (0 = A, 1 = B) tile-by-tile from a row-major host
/// slice (dataset loading).
pub fn load_matrix(
    backend: &dyn StorageBackend,
    gpu: &Gpu,
    cfg: &OocGemmConfig,
    m: u64,
    data: &[f32],
) -> Result<(), BackendError> {
    cfg.validate();
    let n = cfg.n as usize;
    let t = cfg.tile as usize;
    assert_eq!(data.len(), n * n);
    let buf = gpu.alloc(cfg.tile_bytes() as usize).expect("tile buffer");
    let tpd = cfg.tiles_per_dim();
    for ti in 0..tpd {
        for tj in 0..tpd {
            let mut tile = Vec::with_capacity(t * t);
            for r in 0..t {
                let row = ti as usize * t + r;
                let col0 = tj as usize * t;
                tile.extend_from_slice(&data[row * n + col0..row * n + col0 + t]);
            }
            buf.write(0, &bytes_from(&tile));
            backend.execute_batch(&[IoRequest::write(
                cfg.tile_lba(m, ti, tj),
                cfg.tile_blocks() as u32,
                buf.addr(),
            )])?;
        }
    }
    Ok(())
}

/// Computes `C = A × B` tile-by-tile through `backend`, then reads C back
/// into a row-major host vector.
pub fn out_of_core_gemm(
    backend: &dyn StorageBackend,
    gpu: &Gpu,
    cfg: &OocGemmConfig,
) -> Result<Vec<f32>, BackendError> {
    cfg.validate();
    let t = cfg.tile as usize;
    let tpd = cfg.tiles_per_dim();
    let tb = cfg.tile_bytes() as usize;
    let a_buf = gpu.alloc(tb).expect("A tile");
    let b_buf = gpu.alloc(tb).expect("B tile");
    let c_buf = gpu.alloc(tb).expect("C tile");
    for ci in 0..tpd {
        for cj in 0..tpd {
            let mut acc = vec![0.0f32; t * t];
            for l in 0..tpd {
                backend.execute_batch(&[
                    IoRequest::read(
                        cfg.tile_lba(0, ci, l),
                        cfg.tile_blocks() as u32,
                        a_buf.addr(),
                    ),
                    IoRequest::read(
                        cfg.tile_lba(1, l, cj),
                        cfg.tile_blocks() as u32,
                        b_buf.addr(),
                    ),
                ])?;
                let a = f32s_from(&a_buf.to_vec());
                let b = f32s_from(&b_buf.to_vec());
                // The "GPU kernel": dense tile multiply-accumulate.
                for r in 0..t {
                    for k in 0..t {
                        let av = a[r * t + k];
                        if av == 0.0 {
                            continue;
                        }
                        for c in 0..t {
                            acc[r * t + c] += av * b[k * t + c];
                        }
                    }
                }
            }
            c_buf.write(0, &bytes_from(&acc));
            backend.execute_batch(&[IoRequest::write(
                cfg.tile_lba(2, ci, cj),
                cfg.tile_blocks() as u32,
                c_buf.addr(),
            )])?;
        }
    }
    // Gather C row-major.
    let n = cfg.n as usize;
    let mut out = vec![0.0f32; n * n];
    for ti in 0..tpd {
        for tj in 0..tpd {
            backend.execute_batch(&[IoRequest::read(
                cfg.tile_lba(2, ti, tj),
                cfg.tile_blocks() as u32,
                c_buf.addr(),
            )])?;
            let tile = f32s_from(&c_buf.to_vec());
            for r in 0..t {
                let row = ti as usize * t + r;
                let col0 = tj as usize * t;
                out[row * n + col0..row * n + col0 + t].copy_from_slice(&tile[r * t..(r + 1) * t]);
            }
        }
    }
    Ok(out)
}

// ---------------------------------------------------------------------------
// Analytic model (Figs. 10b and 10c).
// ---------------------------------------------------------------------------

/// GEMM engines compared in Figs. 10b/10c.
#[derive(Clone, Copy, PartialEq, Eq, Debug)]
pub enum GemmEngine {
    /// CAM: tile prefetch overlapped with the multiply.
    Cam,
    /// BaM: GPU-managed I/O serial with the multiply (SM contention).
    Bam,
    /// NVIDIA GDS: direct data path, ~0.8 GB/s control-path-bound.
    Gds,
    /// SPDK with overlapping (staged).
    Spdk,
}

impl GemmEngine {
    /// Figure label.
    pub fn name(self) -> &'static str {
        match self {
            GemmEngine::Cam => "CAM",
            GemmEngine::Bam => "BaM",
            GemmEngine::Gds => "GDS",
            GemmEngine::Spdk => "SPDK",
        }
    }
}

/// Modelled outcome for one engine.
#[derive(Clone, Copy, Debug)]
pub struct GemmReport {
    /// End-to-end time.
    pub time: Dur,
    /// Achieved storage throughput (Fig. 10b's bars).
    pub io_gbps: f64,
}

/// Sustained FP32 GEMM rate on the A100 (cuBLAS-like efficiency).
const GEMM_TFLOPS: f64 = 19.5;

/// GDS's control-path-bound throughput (§ IV-E: "GDS achieves a throughput
/// of only 0.8 GB/s with 12 SSDs").
const GDS_GBPS: f64 = 0.8;

/// Pipeline bubble for the regular, data-independent tile schedule.
const GEMM_BUBBLE: f64 = 0.05;

/// Models `C = A×B` for `n × n` f32 matrices with `tile × tile` tiles
/// streamed from `n_ssds` SSDs. Paper-scale default: `n = 65536`,
/// `tile = 4096` ("three huge matrices cannot fit into GPU memory
/// entirely, we need to divide these matrices into smaller blocks").
pub fn model_gemm(engine: GemmEngine, n: u64, tile: u64, n_ssds: usize) -> GemmReport {
    assert!(n.is_multiple_of(tile));
    let tpd = n / tile;
    let steps = tpd * tpd * tpd; // tile multiply-accumulates
    let io_bytes_per_step = 2.0 * (tile * tile * 4) as f64; // A and B tiles
    let flops_per_step = 2.0 * tile.pow(3) as f64;
    let compute = flops_per_step / (GEMM_TFLOPS * 1e12); // seconds
    let array_bw = array_read_gbps(n_ssds, 128 << 10);
    let (io_bw, overlap) = match engine {
        GemmEngine::Cam => (array_bw, true),
        GemmEngine::Spdk => (array_bw, true),
        GemmEngine::Bam => (array_bw, false),
        GemmEngine::Gds => (GDS_GBPS.min(array_bw), false),
    };
    let io = io_bytes_per_step / (io_bw * 1e9);
    let step = if overlap {
        io.max(compute) + GEMM_BUBBLE * io.min(compute)
    } else {
        io + compute
    };
    let total = step * steps as f64;
    GemmReport {
        time: Dur::from_secs_f64(total),
        io_gbps: io_bytes_per_step * steps as f64 / total / 1e9,
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn fig10bc_cam_vs_bam_vs_gds() {
        let cam = model_gemm(GemmEngine::Cam, 65_536, 4_096, 12);
        let bam = model_gemm(GemmEngine::Bam, 65_536, 4_096, 12);
        let gds = model_gemm(GemmEngine::Gds, 65_536, 4_096, 12);
        let spdk = model_gemm(GemmEngine::Spdk, 65_536, 4_096, 12);
        // "CAM outperforms up to 1.84× [GEMM]" — vs BaM.
        let speedup = bam.time.as_secs_f64() / cam.time.as_secs_f64();
        assert!((1.6..1.95).contains(&speedup), "CAM vs BaM = {speedup}");
        // "GDS achieves a throughput of only 0.8 GB/s ... whereas CAM can
        // attain nearly 20 GB/s".
        assert!(gds.io_gbps < 1.0, "GDS io = {}", gds.io_gbps);
        assert!(cam.io_gbps > 15.0, "CAM io = {}", cam.io_gbps);
        assert!(gds.time > cam.time * 10);
        // SPDK overlaps too; close to CAM at full memory bandwidth.
        let rel = (spdk.time.as_secs_f64() - cam.time.as_secs_f64()).abs() / cam.time.as_secs_f64();
        assert!(rel < 0.05, "spdk vs cam {rel}");
    }

    #[test]
    fn tile_lba_layout_disjoint() {
        let cfg = OocGemmConfig {
            n: 128,
            tile: 32,
            block_size: 4096,
            base_lba: 0,
        };
        let mut seen = std::collections::HashSet::new();
        for m in 0..3 {
            for i in 0..4 {
                for j in 0..4 {
                    let lba = cfg.tile_lba(m, i, j);
                    for b in 0..cfg.tile_blocks() {
                        assert!(seen.insert(lba + b), "overlap at {}", lba + b);
                    }
                }
            }
        }
    }
}
