//! Out-of-core mergesort (§ IV-D): ModernGPU-style block sort of large
//! runs, then pairwise merging of pre-sorted runs until one remains.
//!
//! * [`out_of_core_sort`] — the functional sorter: `u32` keys live on the
//!   array as packed blocks; every byte moves through the supplied
//!   [`StorageBackend`], runs are sorted "on the GPU" (host stand-in for
//!   the ModernGPU kernels), and merging streams block-granular buffers —
//!   genuinely out-of-core.
//! * [`model_sort`] / [`model_sort_read_gbps`] — the analytic model behind
//!   Fig. 10a (CAM vs SPDK vs POSIX) and Fig. 11 (CAM-Sync vs CAM-Async vs
//!   SPDK).

use cam_core::{BackendError, IoRequest, StorageBackend};
use cam_gpu::Gpu;
use cam_simkit::Dur;

use crate::gnn::array_read_gbps;

/// Functional sorter configuration.
#[derive(Clone, Copy, Debug)]
pub struct OocSortConfig {
    /// Total `u32` elements to sort.
    pub total_elems: u64,
    /// Elements per phase-1 run (the paper uses 1-billion-element runs;
    /// tests use small ones). Must divide `total_elems` and be a multiple
    /// of the elements-per-block.
    pub run_elems: u64,
    /// Array block size in bytes.
    pub block_size: u32,
    /// First LBA of the data region.
    pub data_lba: u64,
    /// First LBA of an equally-sized scratch region.
    pub scratch_lba: u64,
}

impl OocSortConfig {
    fn elems_per_block(&self) -> u64 {
        self.block_size as u64 / 4
    }

    fn total_blocks(&self) -> u64 {
        self.total_elems / self.elems_per_block()
    }

    fn run_blocks(&self) -> u64 {
        self.run_elems / self.elems_per_block()
    }

    fn validate(&self) {
        assert!(self.block_size.is_power_of_two() && self.block_size >= 4);
        assert!(self.total_elems >= self.run_elems && self.run_elems >= 1);
        assert!(
            self.total_elems.is_multiple_of(self.run_elems),
            "runs must tile the dataset"
        );
        assert!(
            self.run_elems.is_multiple_of(self.elems_per_block()),
            "runs must be whole blocks"
        );
        let span = self.total_blocks();
        assert!(
            self.scratch_lba >= self.data_lba + span || self.data_lba >= self.scratch_lba + span,
            "data and scratch regions overlap"
        );
    }
}

fn read_blocks(
    backend: &dyn StorageBackend,
    buf: &cam_gpu::GpuBuffer,
    lba: u64,
    blocks: u64,
    bs: usize,
) -> Result<(), BackendError> {
    backend.execute_batch(&[IoRequest::read(lba, blocks as u32, buf.addr())])?;
    debug_assert!(blocks as usize * bs <= buf.capacity());
    Ok(())
}

fn write_blocks(
    backend: &dyn StorageBackend,
    buf: &cam_gpu::GpuBuffer,
    lba: u64,
    blocks: u64,
) -> Result<(), BackendError> {
    backend.execute_batch(&[IoRequest::write(lba, blocks as u32, buf.addr())])?;
    Ok(())
}

fn decode(bytes: &[u8]) -> Vec<u32> {
    bytes
        .chunks_exact(4)
        .map(|c| u32::from_le_bytes([c[0], c[1], c[2], c[3]]))
        .collect()
}

fn encode(vals: &[u32], out: &mut Vec<u8>) {
    out.clear();
    for v in vals {
        out.extend_from_slice(&v.to_le_bytes());
    }
}

/// Sorts `cfg.total_elems` `u32` keys in place on the array. Returns the
/// base LBA where the fully-sorted data ends up (data or scratch region,
/// depending on the merge-pass parity).
pub fn out_of_core_sort(
    backend: &dyn StorageBackend,
    gpu: &Gpu,
    cfg: &OocSortConfig,
) -> Result<u64, BackendError> {
    cfg.validate();
    let bs = cfg.block_size as usize;
    let run_blocks = cfg.run_blocks();
    let run_bytes = run_blocks as usize * bs;
    let n_runs = (cfg.total_elems / cfg.run_elems) as usize;

    // Phase 1: sort each run in GPU memory (ModernGPU block sort stand-in).
    let run_buf = gpu.alloc(run_bytes).expect("run fits GPU memory");
    let mut scratch_bytes = Vec::with_capacity(run_bytes);
    for r in 0..n_runs as u64 {
        let lba = cfg.data_lba + r * run_blocks;
        read_blocks(backend, &run_buf, lba, run_blocks, bs)?;
        let mut vals = decode(&run_buf.to_vec());
        vals.sort_unstable();
        encode(&vals, &mut scratch_bytes);
        run_buf.write(0, &scratch_bytes);
        write_blocks(backend, &run_buf, lba, run_blocks)?;
    }

    // Phase 2: pairwise merge passes, ping-ponging between regions.
    let in_a = gpu.alloc(bs).expect("merge buffer");
    let in_b = gpu.alloc(bs).expect("merge buffer");
    let out = gpu.alloc(bs).expect("merge buffer");
    let mut src = cfg.data_lba;
    let mut dst = cfg.scratch_lba;
    let mut cur_run_blocks = run_blocks;
    let mut runs = n_runs;
    while runs > 1 {
        let mut out_lba = dst;
        let mut pair = 0usize;
        while pair < runs {
            if pair + 1 == runs {
                // Odd run out: copy through GPU memory.
                let a_base = src + pair as u64 * cur_run_blocks;
                for b in 0..cur_run_blocks {
                    read_blocks(backend, &out, a_base + b, 1, bs)?;
                    write_blocks(backend, &out, out_lba + b, 1)?;
                }
                out_lba += cur_run_blocks;
                pair += 1;
                continue;
            }
            // Streaming 2-way merge at block granularity.
            let a_base = src + pair as u64 * cur_run_blocks;
            let b_base = a_base + cur_run_blocks;
            let mut a_blk = 0u64;
            let mut b_blk = 0u64;
            let mut a_vals: Vec<u32> = Vec::new();
            let mut b_vals: Vec<u32> = Vec::new();
            let mut ai = 0usize;
            let mut bi = 0usize;
            let mut out_vals: Vec<u32> = Vec::with_capacity(bs / 4);
            let mut out_bytes = Vec::with_capacity(bs);
            loop {
                if ai == a_vals.len() && a_blk < cur_run_blocks {
                    read_blocks(backend, &in_a, a_base + a_blk, 1, bs)?;
                    a_vals = decode(&in_a.to_vec());
                    ai = 0;
                    a_blk += 1;
                }
                if bi == b_vals.len() && b_blk < cur_run_blocks {
                    read_blocks(backend, &in_b, b_base + b_blk, 1, bs)?;
                    b_vals = decode(&in_b.to_vec());
                    bi = 0;
                    b_blk += 1;
                }
                let a_left = ai < a_vals.len();
                let b_left = bi < b_vals.len();
                if !a_left && !b_left {
                    break;
                }
                let take_a = match (a_left, b_left) {
                    (true, true) => a_vals[ai] <= b_vals[bi],
                    (true, false) => true,
                    (false, true) => false,
                    (false, false) => unreachable!(),
                };
                if take_a {
                    out_vals.push(a_vals[ai]);
                    ai += 1;
                } else {
                    out_vals.push(b_vals[bi]);
                    bi += 1;
                }
                if out_vals.len() == bs / 4 {
                    encode(&out_vals, &mut out_bytes);
                    out.write(0, &out_bytes);
                    write_blocks(backend, &out, out_lba, 1)?;
                    out_lba += 1;
                    out_vals.clear();
                }
            }
            debug_assert!(out_vals.is_empty(), "runs are whole blocks");
            pair += 2;
        }
        std::mem::swap(&mut src, &mut dst);
        cur_run_blocks *= 2;
        runs = runs.div_ceil(2);
    }
    Ok(src)
}

/// Reads `count` elements starting at `lba` (test/verification helper).
pub fn read_elems(
    backend: &dyn StorageBackend,
    gpu: &Gpu,
    block_size: u32,
    lba: u64,
    count: u64,
) -> Result<Vec<u32>, BackendError> {
    let bs = block_size as usize;
    let blocks = (count * 4).div_ceil(bs as u64);
    let buf = gpu.alloc(blocks as usize * bs).expect("alloc");
    backend.execute_batch(&[IoRequest::read(lba, blocks as u32, buf.addr())])?;
    let mut v = decode(&buf.to_vec());
    v.truncate(count as usize);
    Ok(v)
}

// ---------------------------------------------------------------------------
// Analytic model (Figs. 10a and 11).
// ---------------------------------------------------------------------------

/// Sort engines compared in Figs. 10a and 11.
#[derive(Clone, Copy, PartialEq, Eq, Debug)]
pub enum SortEngine {
    /// POSIX I/O: synchronous kernel path, no overlap.
    Posix,
    /// SPDK with overlapping (bounce-buffered data path).
    Spdk,
    /// CAM through the synchronous-feeling API.
    CamSync,
    /// CAM through the raw asynchronous API.
    CamAsync,
}

impl SortEngine {
    /// Label matching Fig. 10a/11.
    pub fn name(self) -> &'static str {
        match self {
            SortEngine::Posix => "POSIX I/O",
            SortEngine::Spdk => "SPDK",
            SortEngine::CamSync => "CAM-Sync",
            SortEngine::CamAsync => "CAM-Async",
        }
    }
}

/// GPU merge/sort throughput, GB/s (memory-bound merge path on the A100;
/// calibrated so Fig. 10a reproduces CAM ≈ SPDK ≈ 1.5× POSIX).
const GPU_SORT_GBPS: f64 = 6.0;

/// Per-batch synchronization overhead of the sync wrapper relative to raw
/// async submission (Fig. 11: "CAM-Sync can achieve nearly the same
/// performance as CAM-Async/SPDK").
const SYNC_WRAPPER_OVERHEAD: f64 = 0.01;

/// Sequential array bandwidth for the sort's large streaming requests.
fn sort_io_gbps(n_ssds: usize) -> f64 {
    array_read_gbps(n_ssds, 128 << 10)
}

/// Models end-to-end sort time for `elems` `u32` keys on `n_ssds` SSDs
/// with 1-Gi-element phase-1 runs (the paper's configuration).
pub fn model_sort(engine: SortEngine, elems: u64, n_ssds: usize) -> Dur {
    let bytes = elems as f64 * 4.0;
    let run_elems = 1u64 << 30;
    let runs = elems.div_ceil(run_elems).max(1);
    let merge_passes = (runs as f64).log2().ceil() as u32;
    let io_bw = sort_io_gbps(n_ssds);
    let one_way = bytes / io_bw / 1e9; // seconds, read or write of everything
    let compute = bytes / GPU_SORT_GBPS / 1e9;

    // Each pass reads and writes the full dataset once; reads and writes
    // overlap on the full-duplex fabric for the async engines.
    let passes = 1 + merge_passes; // phase 1 counts as a pass
    let secs = match engine {
        SortEngine::Posix => {
            // Synchronous: read, compute, write in strict sequence.
            passes as f64 * (2.0 * one_way + compute)
        }
        SortEngine::Spdk => passes as f64 * (one_way.max(compute) + 0.1 * one_way.min(compute)),
        SortEngine::CamAsync => passes as f64 * (one_way.max(compute) + 0.1 * one_way.min(compute)),
        SortEngine::CamSync => {
            passes as f64
                * (one_way.max(compute) + 0.1 * one_way.min(compute))
                * (1.0 + SYNC_WRAPPER_OVERHEAD)
        }
    };
    Dur::from_secs_f64(secs)
}

/// Achieved read throughput of the sort's I/O phase (Fig. 11a's series).
pub fn model_sort_read_gbps(engine: SortEngine, n_ssds: usize) -> f64 {
    let raw = sort_io_gbps(n_ssds);
    match engine {
        SortEngine::CamSync => raw / (1.0 + SYNC_WRAPPER_OVERHEAD),
        _ => raw,
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn fig10a_cam_beats_posix_matches_spdk() {
        let elems = 8u64 << 30; // 8 Gi elements = 32 GB
        let posix = model_sort(SortEngine::Posix, elems, 12).as_secs_f64();
        let cam = model_sort(SortEngine::CamSync, elems, 12).as_secs_f64();
        let spdk = model_sort(SortEngine::Spdk, elems, 12).as_secs_f64();
        let speedup = posix / cam;
        assert!(
            (1.3..1.7).contains(&speedup),
            "CAM vs POSIX = {speedup} (paper: up to 1.5×)"
        );
        assert!((cam - spdk).abs() / spdk < 0.05, "cam {cam} spdk {spdk}");
    }

    #[test]
    fn fig11_sync_wrapper_is_free() {
        for n in [2, 4, 8, 12] {
            let sync = model_sort_read_gbps(SortEngine::CamSync, n);
            let asyn = model_sort_read_gbps(SortEngine::CamAsync, n);
            let spdk = model_sort_read_gbps(SortEngine::Spdk, n);
            assert!((asyn - sync) / asyn < 0.02);
            assert!((asyn - spdk).abs() / spdk < 0.02);
        }
        // Execution time scales near-linearly in dataset size (n log n I/O).
        let t1 = model_sort(SortEngine::CamSync, 2 << 30, 12).as_secs_f64();
        let t4 = model_sort(SortEngine::CamSync, 8 << 30, 12).as_secs_f64();
        let ratio = t4 / t1;
        assert!((3.5..8.5).contains(&ratio), "4× data → {ratio}× time");
    }

    #[test]
    fn throughput_grows_with_ssds() {
        let mut last = 0.0;
        for n in [1, 2, 4, 8, 12] {
            let g = model_sort_read_gbps(SortEngine::CamAsync, n);
            assert!(g >= last);
            last = g;
        }
        assert!(last > 19.0);
    }
}
