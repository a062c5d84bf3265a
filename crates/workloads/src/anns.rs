//! Approximate nearest-neighbor search (ANNS) — the workload behind
//! Issue 2 (§ II-A): "When we evaluate the ANNS workload that mainly
//! involves 4 KB SSD accesses, `cudaMemcpyAsync` costs 78% of the total
//! time. Such a large proportion can not be overlapped by computation."
//!
//! An IVF-Flat index: vectors are clustered into `nlist` inverted lists;
//! centroids stay in memory, the lists live on the SSD array. A query
//! scans the `nprobe` nearest centroids' lists — small, scattered reads,
//! exactly the 4 KiB random pattern that breaks the staged data path.
//!
//! * **Functional**: [`IvfIndex::build`] / [`IvfIndex::search`] run real
//!   k-means-lite clustering, store lists on the array through any
//!   [`StorageBackend`], and return exact-over-probed top-k results,
//!   verifiable against brute force over the probed lists.
//! * **Analytic**: [`staged_copy_fraction`] reproduces the 78% claim from
//!   the same per-chunk `cudaMemcpyAsync` overhead as Fig. 16's model.

use cam_gpu::Gpu;
use cam_iostacks::des::MEMCPY_LAUNCH_OVERHEAD;
use cam_iostacks::{BackendError, IoRequest, StorageBackend};
use cam_simkit::dist::seeded_rng;
use rand::Rng;

use crate::gnn::array_read_gbps;

/// Build parameters for [`IvfIndex::build`].
#[derive(Clone, Copy, Debug)]
pub struct IvfBuildConfig {
    /// Vector dimensionality.
    pub dim: usize,
    /// Number of inverted lists (k-means clusters).
    pub nlist: usize,
    /// Array block size in bytes.
    pub block_size: u32,
    /// First LBA of the index on the array.
    pub base_lba: u64,
    /// Clustering seed (deterministic builds).
    pub seed: u64,
}

/// An IVF-Flat index over f32 vectors, lists resident on the SSD array.
pub struct IvfIndex {
    dim: usize,
    centroids: Vec<Vec<f32>>,
    /// Per-list vector ids, in on-disk order.
    list_ids: Vec<Vec<u32>>,
    /// Per-list first LBA.
    list_lba: Vec<u64>,
    block_size: usize,
    vec_stride: usize,
}

/// A search hit.
#[derive(Clone, Copy, Debug, PartialEq)]
pub struct Hit {
    /// Vector id.
    pub id: u32,
    /// Squared L2 distance to the query.
    pub dist: f32,
}

fn l2sq(a: &[f32], b: &[f32]) -> f32 {
    a.iter().zip(b).map(|(x, y)| (x - y) * (x - y)).sum()
}

impl IvfIndex {
    /// Builds the index: a few rounds of Lloyd's k-means on a sample, then
    /// assigns every vector to its nearest centroid and writes each list
    /// contiguously to the array starting at `base_lba`.
    ///
    /// Vector `i`'s data is `vectors[i*dim..(i+1)*dim]`.
    pub fn build(
        backend: &dyn StorageBackend,
        gpu: &Gpu,
        vectors: &[f32],
        cfg: IvfBuildConfig,
    ) -> Result<Self, BackendError> {
        let IvfBuildConfig {
            dim,
            nlist,
            block_size,
            base_lba,
            seed,
        } = cfg;
        assert!(dim >= 1 && nlist >= 1);
        assert!(vectors.len().is_multiple_of(dim));
        let n = vectors.len() / dim;
        assert!(n >= nlist, "need at least one vector per list");
        let mut rng = seeded_rng(seed);

        // Init centroids from distinct random vectors; 4 Lloyd rounds.
        let mut centroids: Vec<Vec<f32>> = (0..nlist)
            .map(|_| {
                let v = rng.gen_range(0..n);
                vectors[v * dim..(v + 1) * dim].to_vec()
            })
            .collect();
        let mut assign = vec![0usize; n];
        for _round in 0..4 {
            for (i, a) in assign.iter_mut().enumerate() {
                let v = &vectors[i * dim..(i + 1) * dim];
                *a = (0..nlist)
                    .min_by(|&x, &y| {
                        l2sq(v, &centroids[x])
                            .partial_cmp(&l2sq(v, &centroids[y]))
                            .unwrap()
                    })
                    .unwrap();
            }
            let mut sums = vec![vec![0.0f32; dim]; nlist];
            let mut counts = vec![0u32; nlist];
            for (i, &a) in assign.iter().enumerate() {
                counts[a] += 1;
                for (s, &x) in sums[a].iter_mut().zip(&vectors[i * dim..(i + 1) * dim]) {
                    *s += x;
                }
            }
            for (c, (s, &cnt)) in centroids.iter_mut().zip(sums.iter().zip(&counts)) {
                if cnt > 0 {
                    for (cc, &ss) in c.iter_mut().zip(s) {
                        *cc = ss / cnt as f32;
                    }
                }
            }
        }

        // Vector record: id (as f32 bit pattern would be fragile — use a
        // u32 prefix) + dim f32s, padded to a block multiple per *list
        // chunk*, not per vector: vectors pack densely within a list.
        let bs = block_size as usize;
        let vec_stride = 4 + dim * 4;
        let mut list_ids: Vec<Vec<u32>> = vec![Vec::new(); nlist];
        for (i, &a) in assign.iter().enumerate() {
            list_ids[a].push(i as u32);
        }
        let mut list_lba = Vec::with_capacity(nlist);
        let mut next_lba = base_lba;
        for ids in &list_ids {
            list_lba.push(next_lba);
            let bytes = (ids.len() * vec_stride).div_ceil(bs) * bs;
            // Serialize the list and write it through the backend.
            let mut blob = vec![0u8; bytes.max(bs)];
            for (k, &id) in ids.iter().enumerate() {
                let off = k * vec_stride;
                blob[off..off + 4].copy_from_slice(&id.to_le_bytes());
                for (j, &x) in vectors[id as usize * dim..(id as usize + 1) * dim]
                    .iter()
                    .enumerate()
                {
                    blob[off + 4 + j * 4..off + 8 + j * 4].copy_from_slice(&x.to_le_bytes());
                }
            }
            let buf = gpu.alloc(blob.len()).expect("list fits GPU memory");
            buf.write(0, &blob);
            backend.execute_batch(&[IoRequest::write(
                next_lba,
                (blob.len() / bs) as u32,
                buf.addr(),
            )])?;
            next_lba += (blob.len() / bs) as u64;
        }
        Ok(IvfIndex {
            dim,
            centroids,
            list_ids,
            list_lba,
            block_size: bs,
            vec_stride,
        })
    }

    /// Number of inverted lists.
    pub fn nlist(&self) -> usize {
        self.centroids.len()
    }

    /// Blocks occupied by list `l`.
    fn list_blocks(&self, l: usize) -> u32 {
        ((self.list_ids[l].len() * self.vec_stride).div_ceil(self.block_size) as u32).max(1)
    }

    /// Searches for the `k` nearest vectors among the `nprobe` closest
    /// lists, fetching those lists from the array through `backend`.
    /// Returns hits sorted by ascending distance.
    pub fn search(
        &self,
        backend: &dyn StorageBackend,
        gpu: &Gpu,
        query: &[f32],
        nprobe: usize,
        k: usize,
    ) -> Result<Vec<Hit>, BackendError> {
        assert_eq!(query.len(), self.dim);
        let nprobe = nprobe.min(self.nlist());
        // Rank centroids by distance.
        let mut order: Vec<usize> = (0..self.nlist()).collect();
        order.sort_by(|&a, &b| {
            l2sq(query, &self.centroids[a])
                .partial_cmp(&l2sq(query, &self.centroids[b]))
                .unwrap()
        });
        // Fetch the probed lists (small scattered reads) into GPU memory.
        let probed = &order[..nprobe];
        let total_blocks: u32 = probed.iter().map(|&l| self.list_blocks(l)).sum();
        let buf = gpu
            .alloc(total_blocks as usize * self.block_size)
            .expect("probe set fits GPU memory");
        let mut reqs = Vec::with_capacity(nprobe);
        let mut offsets = Vec::with_capacity(nprobe);
        let mut off_blocks = 0u32;
        for &l in probed {
            reqs.push(IoRequest::read(
                self.list_lba[l],
                self.list_blocks(l),
                buf.addr() + off_blocks as u64 * self.block_size as u64,
            ));
            offsets.push(off_blocks as usize * self.block_size);
            off_blocks += self.list_blocks(l);
        }
        backend.execute_batch(&reqs)?;
        // Exact scan over fetched lists (the "GPU kernel").
        let data = buf.to_vec();
        let mut hits: Vec<Hit> = Vec::new();
        for (pi, &l) in probed.iter().enumerate() {
            let base = offsets[pi];
            for kx in 0..self.list_ids[l].len() {
                let off = base + kx * self.vec_stride;
                let id = u32::from_le_bytes(data[off..off + 4].try_into().unwrap());
                let mut v = Vec::with_capacity(self.dim);
                for j in 0..self.dim {
                    let o = off + 4 + j * 4;
                    v.push(f32::from_le_bytes(data[o..o + 4].try_into().unwrap()));
                }
                hits.push(Hit {
                    id,
                    dist: l2sq(query, &v),
                });
            }
        }
        hits.sort_by(|a, b| a.dist.partial_cmp(&b.dist).unwrap());
        hits.truncate(k);
        Ok(hits)
    }

    /// Ids of the vectors in the `nprobe` nearest lists (for reference
    /// verification).
    pub fn probed_ids(&self, query: &[f32], nprobe: usize) -> Vec<u32> {
        let mut order: Vec<usize> = (0..self.nlist()).collect();
        order.sort_by(|&a, &b| {
            l2sq(query, &self.centroids[a])
                .partial_cmp(&l2sq(query, &self.centroids[b]))
                .unwrap()
        });
        order[..nprobe.min(self.nlist())]
            .iter()
            .flat_map(|&l| self.list_ids[l].iter().copied())
            .collect()
    }
}

// ---------------------------------------------------------------------------
// Analytic model: Issue 2's "cudaMemcpyAsync costs 78% of the total time".
// ---------------------------------------------------------------------------

/// Distance-scan compute cost per fetched byte (ns/B): one squared-diff
/// FMA chain per f32, at GPU memory-bound rates.
const SCAN_NS_PER_BYTE: f64 = 0.22;

/// Fraction of a staged ANNS batch spent in `cudaMemcpyAsync` when lists
/// are fetched at `gran`-byte granularity on `n_ssds` SSDs.
///
/// Each scattered chunk pays a fixed copy-launch overhead plus its PCIe
/// transfer, serialized on the copy engine; SSD reads pipeline across
/// devices and distance scanning overlaps neither (it needs the copied
/// data). The copy share of end-to-end time is therefore
/// `copy / (copy + max(ssd pacing, compute))` — at 4 KiB on 12 SSDs this
/// is ≈ 0.78, the paper's Issue-2 measurement, and it amortizes away at
/// large granularity.
pub fn staged_copy_fraction(gran: u64, n_ssds: usize) -> f64 {
    let ssd_pace = gran as f64 / array_read_gbps(n_ssds, gran);
    let compute = gran as f64 * SCAN_NS_PER_BYTE;
    // Each chunk pays Fig. 16's per-`cudaMemcpyAsync` launch overhead.
    let copy = MEMCPY_LAUNCH_OVERHEAD.as_ns() as f64 + gran as f64 / 21.0;
    copy / (copy + ssd_pace.max(compute))
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn issue2_memcpy_dominates_at_4k() {
        // "cudaMemcpyAsync costs 78% of the total time" at 4 KiB.
        let f = staged_copy_fraction(4096, 12);
        assert!((0.70..0.90).contains(&f), "copy fraction at 4K = {f}");
        // Large granularity amortizes the launches away.
        let f_big = staged_copy_fraction(16 << 20, 12);
        assert!(f_big < 0.25, "copy fraction at 16M = {f_big}");
    }

    #[test]
    fn l2_math() {
        assert_eq!(l2sq(&[0.0, 0.0], &[3.0, 4.0]), 25.0);
    }
}
