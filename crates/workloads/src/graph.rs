//! Synthetic graphs standing in for Paper100M and IGB-full (Table IV).
//!
//! The real datasets are 56 GB and 1.1 TB of node features — unavailable
//! here, and irrelevant to the I/O pattern, which is entirely determined by
//! (a) the sampled-neighborhood structure and (b) the feature record size.
//! [`GraphSpec`] carries the paper's full-scale shape constants for
//! reporting, and [`GraphSpec::build_scaled`] materializes a
//! degree-skewed CSR graph with the same average degree and feature
//! dimension at a size that fits in memory.

use cam_simkit::dist::{seeded_rng, Zipf};
use rand::Rng;

/// Shape parameters of a dataset (Table IV).
#[derive(Clone, Copy, Debug)]
pub struct GraphSpec {
    /// Dataset name.
    pub name: &'static str,
    /// Node count of the full dataset.
    pub nodes: u64,
    /// Edge count of the full dataset.
    pub edges: u64,
    /// Feature dimension (f32 elements per node).
    pub feature_dim: u32,
}

impl GraphSpec {
    /// ogbn-papers100M as used in the paper.
    pub fn paper100m() -> Self {
        GraphSpec {
            name: "Paper100M",
            nodes: 111_059_956,
            edges: 1_615_685_872,
            feature_dim: 128,
        }
    }

    /// IGB-full as used in the paper.
    pub fn igb_full() -> Self {
        GraphSpec {
            name: "IGB-full",
            nodes: 269_364_174,
            edges: 3_995_777_033,
            feature_dim: 1024,
        }
    }

    /// Bytes of one node's feature record (f32 features).
    pub fn feature_bytes(&self) -> u64 {
        self.feature_dim as u64 * 4
    }

    /// Total feature-store size in bytes (Table IV's "Feature Size").
    pub fn feature_store_bytes(&self) -> u64 {
        self.nodes * self.feature_bytes()
    }

    /// Average degree of the full dataset.
    pub fn avg_degree(&self) -> f64 {
        self.edges as f64 / self.nodes as f64
    }

    /// Materializes a scaled-down graph with the same average degree,
    /// degree skew, and feature dimension. Deterministic in `seed`.
    pub fn build_scaled(&self, nodes: u32, seed: u64) -> Graph {
        Graph::generate(nodes, self.avg_degree(), self.feature_dim, seed)
    }
}

/// An in-memory CSR graph ("the graph structure data is stored in the CPU
/// memory", Fig. 1 caption — only features live on SSD).
pub struct Graph {
    offsets: Vec<u64>,
    targets: Vec<u32>,
    feature_dim: u32,
}

impl Graph {
    /// Generates a graph with Zipf-skewed degrees around `avg_degree`.
    pub fn generate(nodes: u32, avg_degree: f64, feature_dim: u32, seed: u64) -> Self {
        assert!(nodes >= 2);
        assert!(avg_degree >= 1.0);
        let mut rng = seeded_rng(seed);
        // Degrees: 1 + Zipf-skewed extra mass, scaled to hit the average.
        // A rank-r node draws extra degree ∝ r^-0.8 samples.
        let zipf = Zipf::new(nodes as u64, 0.8);
        let extra_total = ((avg_degree - 1.0) * nodes as f64) as u64;
        let mut degrees = vec![1u32; nodes as usize];
        for _ in 0..extra_total {
            let r = zipf.sample(&mut rng) - 1;
            degrees[r as usize] += 1;
        }
        let mut offsets = Vec::with_capacity(nodes as usize + 1);
        offsets.push(0u64);
        let mut acc = 0u64;
        for &d in &degrees {
            acc += d as u64;
            offsets.push(acc);
        }
        let mut targets = Vec::with_capacity(acc as usize);
        for v in 0..nodes {
            for _ in 0..degrees[v as usize] {
                // Uniform endpoints; self-loops allowed (harmless for the
                // access pattern, like DGL's add_self_loop).
                targets.push(rng.gen_range(0..nodes));
            }
        }
        Graph {
            offsets,
            targets,
            feature_dim,
        }
    }

    /// Node count.
    pub fn nodes(&self) -> u32 {
        (self.offsets.len() - 1) as u32
    }

    /// Edge count.
    pub fn edges(&self) -> u64 {
        *self.offsets.last().unwrap()
    }

    /// Feature dimension.
    pub fn feature_dim(&self) -> u32 {
        self.feature_dim
    }

    /// Out-neighbors of `v`.
    pub fn neighbors(&self, v: u32) -> &[u32] {
        let s = self.offsets[v as usize] as usize;
        let e = self.offsets[v as usize + 1] as usize;
        &self.targets[s..e]
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn table_iv_constants() {
        let p = GraphSpec::paper100m();
        assert_eq!(p.nodes, 111_059_956);
        assert_eq!(p.edges, 1_615_685_872);
        assert_eq!(p.feature_dim, 128);
        // "Feature Size: 56 GB".
        let gb = p.feature_store_bytes() as f64 / 1e9;
        assert!((56.0..58.0).contains(&gb), "{gb}");
        let i = GraphSpec::igb_full();
        assert_eq!(i.feature_dim, 1024);
        // "Feature Size: 1.1 TB".
        let tb = i.feature_store_bytes() as f64 / 1e12;
        assert!((1.05..1.15).contains(&tb), "{tb}");
    }

    #[test]
    fn generated_graph_matches_shape() {
        let g = GraphSpec::paper100m().build_scaled(10_000, 42);
        assert_eq!(g.nodes(), 10_000);
        let avg = g.edges() as f64 / g.nodes() as f64;
        let want = GraphSpec::paper100m().avg_degree();
        assert!(
            (avg - want).abs() / want < 0.05,
            "avg degree {avg} vs {want}"
        );
        assert_eq!(g.feature_dim(), 128);
    }

    #[test]
    fn degrees_are_skewed() {
        let g = Graph::generate(10_000, 15.0, 128, 7);
        let mut degs: Vec<usize> = (0..g.nodes()).map(|v| g.neighbors(v).len()).collect();
        degs.sort_unstable_by(|a, b| b.cmp(a));
        // Top 1% of nodes should hold well more than 1% of edges.
        let top: usize = degs[..100].iter().sum();
        let frac = top as f64 / g.edges() as f64;
        assert!(frac > 0.05, "top-1% edge share = {frac}");
        // Every node has at least one neighbor.
        assert!(degs.last().copied().unwrap() >= 1);
    }

    #[test]
    fn generation_is_deterministic() {
        let a = Graph::generate(1000, 10.0, 64, 99);
        let b = Graph::generate(1000, 10.0, 64, 99);
        assert_eq!(a.edges(), b.edges());
        for v in (0..1000).step_by(97) {
            assert_eq!(a.neighbors(v), b.neighbors(v));
        }
        let c = Graph::generate(1000, 10.0, 64, 100);
        // A different seed almost surely differs somewhere.
        let differs = (0..1000).any(|v| a.neighbors(v) != c.neighbors(v));
        assert!(differs);
    }
}
