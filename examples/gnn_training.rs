//! Out-of-core GNN training (the paper's § IV-C workload): node features
//! live on the simulated SSD array; each mini-batch samples a 2-hop
//! neighborhood, prefetches the features through CAM, and trains.
//!
//! Run with: `cargo run --release --example gnn_training`

use cam::workloads::gnn::{
    model_epoch, train_epoch_functional, FeatureStore, GnnConfig, GnnModel, GnnSystem,
};
use cam::workloads::graph::GraphSpec;
use cam::{CamBackend, CamConfig, CamContext, Rig, RigConfig};

fn main() {
    // A scaled-down Paper100M: same average degree, skew and 128-dim
    // features, sized for host memory.
    let spec = GraphSpec::paper100m();
    let graph = spec.build_scaled(20_000, 42);
    println!(
        "graph: {} nodes, {} edges (scaled {}), {}-dim features",
        graph.nodes(),
        graph.edges(),
        spec.name,
        graph.feature_dim()
    );

    let rig = Rig::new(RigConfig {
        n_ssds: 4,
        blocks_per_ssd: 16 * 1024,
        ..RigConfig::default()
    });
    let layout = FeatureStore::layout(graph.feature_dim(), rig.block_size());
    layout.load_features(&rig.raid_view(), graph.nodes());

    let cfg = GnnConfig {
        batch_size: 256,
        fanouts: [10, 5],
        hidden_dim: 128,
    };
    let steps = 8;

    // Train through CAM: every mini-batch's features arrive by one
    // doorbell batch straight into GPU memory.
    let cam_ctx = CamContext::attach(&rig, CamConfig::default());
    let cam_backend = CamBackend::new(cam_ctx.device(), 4096);
    let t0 = std::time::Instant::now();
    let rep =
        train_epoch_functional(&cam_backend, rig.gpu(), &graph, layout, &cfg, steps, 7).unwrap();
    assert!(rep.nodes_fetched > 0 && rep.checksum.is_finite());
    println!(
        "{} steps, {} features fetched in {:?}, checksum {:.3}",
        steps,
        rep.nodes_fetched,
        t0.elapsed(),
        rep.checksum
    );

    // Paper-scale projection (Fig. 9) from the analytic model.
    println!("\nprojected epoch times at paper scale (12 SSDs):");
    for dataset in [GraphSpec::paper100m(), GraphSpec::igb_full()] {
        for model in GnnModel::ALL {
            let gids = model_epoch(GnnSystem::Gids, &dataset, model, &GnnConfig::default(), 12);
            let cam = model_epoch(GnnSystem::Cam, &dataset, model, &GnnConfig::default(), 12);
            println!(
                "  {:<10} {:<10} GIDS {:>7.1}s  CAM {:>7.1}s  ({:.2}x)",
                dataset.name,
                model.name(),
                gids.epoch().as_secs_f64(),
                cam.epoch().as_secs_f64(),
                gids.epoch().as_secs_f64() / cam.epoch().as_secs_f64()
            );
        }
    }
}
