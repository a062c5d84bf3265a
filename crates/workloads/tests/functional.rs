//! Cross-crate functional tests: every workload runs through CAM over the
//! simulated hardware and produces verifiable results, each checked
//! against an oracle computed without storage.

use cam_core::{CamBackend, CamConfig, CamContext, IoRequest, StorageBackend};
use cam_iostacks::{Rig, RigConfig};
use cam_workloads::gemm::{load_matrix, model_gemm, out_of_core_gemm, GemmEngine, OocGemmConfig};
use cam_workloads::gnn::{train_epoch_functional, FeatureStore, GnnConfig};
use cam_workloads::graph::Graph;
use cam_workloads::sort::{out_of_core_sort, read_elems, OocSortConfig};
use rand::Rng;

fn rig() -> Rig {
    Rig::new(RigConfig {
        n_ssds: 3,
        blocks_per_ssd: 8192,
        block_size: 4096,
        gpu_mem: 96 << 20,
        stripe_blocks: 1,
        burst_latency: None,
    })
}

#[test]
fn sort_is_correct_on_cam() {
    let r = rig();
    let cam = CamContext::attach(&r, CamConfig::default());
    let be = CamBackend::new(cam.device(), 2048);
    let elems: u64 = 16 * 1024; // 16 blocks of data, 4 runs
    let cfg = OocSortConfig {
        total_elems: elems,
        run_elems: 4 * 1024,
        block_size: 4096,
        data_lba: 0,
        scratch_lba: 64,
    };
    // Load a deterministic shuffled dataset.
    let mut rng = cam_simkit::dist::seeded_rng(1234);
    let data: Vec<u32> = (0..elems).map(|_| rng.gen()).collect();
    let buf = r.gpu().alloc(elems as usize * 4).unwrap();
    let bytes: Vec<u8> = data.iter().flat_map(|v| v.to_le_bytes()).collect();
    buf.write(0, &bytes);
    be.execute_batch(&[IoRequest::write(0, 16, buf.addr())])
        .unwrap();

    let out_lba = out_of_core_sort(&be, r.gpu(), &cfg).unwrap();
    let sorted = read_elems(&be, r.gpu(), 4096, out_lba, elems).unwrap();
    let mut expect = data.clone();
    expect.sort_unstable();
    assert_eq!(sorted, expect);
}

#[test]
fn gemm_matches_dense_reference_on_cam() {
    let r = rig();
    let cam = CamContext::attach(&r, CamConfig::default());
    let be = CamBackend::new(cam.device(), 2048);
    let n = 64u32;
    let t = 32u32;
    let cfg = OocGemmConfig {
        n,
        tile: t,
        block_size: 4096,
        base_lba: 0,
    };
    let nn = (n * n) as usize;
    let a: Vec<f32> = (0..nn).map(|i| ((i * 7) % 13) as f32 - 6.0).collect();
    let b: Vec<f32> = (0..nn).map(|i| ((i * 5) % 11) as f32 - 5.0).collect();
    // Dense reference.
    let mut reference = vec![0.0f32; nn];
    for i in 0..n as usize {
        for k in 0..n as usize {
            let av = a[i * n as usize + k];
            for j in 0..n as usize {
                reference[i * n as usize + j] += av * b[k * n as usize + j];
            }
        }
    }
    load_matrix(&be, r.gpu(), &cfg, 0, &a).unwrap();
    load_matrix(&be, r.gpu(), &cfg, 1, &b).unwrap();
    let c = out_of_core_gemm(&be, r.gpu(), &cfg).unwrap();
    assert_eq!(c.len(), reference.len());
    for (i, (&got, &want)) in c.iter().zip(&reference).enumerate() {
        assert!((got - want).abs() < 1e-3, "C[{i}] = {got}, want {want}");
    }
}

#[test]
fn gnn_checksum_matches_cpu_reference() {
    // Compute the expected checksum directly from the deterministic
    // feature function, bypassing storage entirely.
    let r = rig();
    let graph = Graph::generate(500, 8.0, 64, 5);
    let layout = FeatureStore::layout(64, 4096);
    layout.load_features(&r.raid_view(), graph.nodes());
    let cfg = GnnConfig {
        batch_size: 32,
        fanouts: [4, 2],
        hidden_dim: 64,
    };
    let cam = CamContext::attach(&r, CamConfig::default());
    let be = CamBackend::new(cam.device(), 2048);
    let rep = train_epoch_functional(&be, r.gpu(), &graph, layout, &cfg, 2, 4242).unwrap();

    // Reference: replay the sampler with the same seed.
    let mut rng = cam_simkit::dist::seeded_rng(4242);
    let mut expect = 0.0f64;
    for step in 0..2u32 {
        let seeds: Vec<u32> = (0..32).map(|i| (step * 32 + i) % graph.nodes()).collect();
        let nodes = cam_workloads::gnn::sample_neighborhood(&graph, &seeds, &cfg.fanouts, &mut rng);
        let sum: f64 = nodes
            .iter()
            .map(|&v| FeatureStore::feature_value(v, 0) as f64)
            .sum();
        expect += sum / nodes.len() as f64;
    }
    assert!(
        (rep.checksum - expect).abs() < 1e-9,
        "{} vs {}",
        rep.checksum,
        expect
    );
}

#[test]
fn model_gemm_scales_down_consistently() {
    // The analytic model's CAM-vs-BaM advantage is tile-size dependent but
    // present across scales.
    for (n, t) in [(16_384u64, 2_048u64), (65_536, 4_096)] {
        let cam = model_gemm(GemmEngine::Cam, n, t, 12);
        let bam = model_gemm(GemmEngine::Bam, n, t, 12);
        assert!(bam.time > cam.time);
    }
}

#[test]
fn anns_search_matches_brute_force_over_probed_lists() {
    use cam_workloads::anns::{IvfBuildConfig, IvfIndex};
    let r = rig();
    let cam = CamContext::attach(&r, CamConfig::default());
    let be = CamBackend::new(cam.device(), 2048);

    let dim = 16usize;
    let n = 600usize;
    let mut rng = cam_simkit::dist::seeded_rng(31);
    let vectors: Vec<f32> = (0..n * dim).map(|_| rng.gen_range(-1.0f32..1.0)).collect();
    let index = IvfIndex::build(
        &be,
        r.gpu(),
        &vectors,
        IvfBuildConfig {
            dim,
            nlist: 8,
            block_size: 4096,
            base_lba: 0,
            seed: 7,
        },
    )
    .unwrap();
    assert_eq!(index.nlist(), 8);

    for q in 0..5 {
        let query: Vec<f32> = (0..dim).map(|j| ((q * 7 + j) % 5) as f32 / 5.0).collect();
        let hits = index.search(&be, r.gpu(), &query, 3, 10).unwrap();
        assert_eq!(hits.len(), 10);
        // Reference: exact scan over the same probed lists, in memory.
        let mut expect: Vec<(u32, f32)> = index
            .probed_ids(&query, 3)
            .into_iter()
            .map(|id| {
                let v = &vectors[id as usize * dim..(id as usize + 1) * dim];
                let d: f32 = v.iter().zip(&query).map(|(x, y)| (x - y) * (x - y)).sum();
                (id, d)
            })
            .collect();
        expect.sort_by(|a, b| a.1.partial_cmp(&b.1).unwrap());
        for (hit, (eid, edist)) in hits.iter().zip(&expect) {
            assert!(
                (hit.dist - edist).abs() < 1e-4,
                "q{q}: {hit:?} vs ({eid},{edist})"
            );
        }
        // Results are sorted ascending.
        for w in hits.windows(2) {
            assert!(w[0].dist <= w[1].dist);
        }
    }
}

#[test]
fn dlrm_pooled_lookup_and_update_verified() {
    use cam_workloads::dlrm::{zipf_bag, EmbeddingTable};
    let r = rig();
    let cam = CamContext::attach(&r, CamConfig::default());
    let be = CamBackend::new(cam.device(), 2048);
    let table = EmbeddingTable::layout(256, 64, 4096, 0);
    table.load(&be, r.gpu()).unwrap();

    // Pooled lookup matches the in-memory sum of the init values.
    let mut rng = cam_simkit::dist::seeded_rng(12);
    let bag = zipf_bag(table.rows, 50, 0.9, &mut rng);
    let pooled = table.lookup_pooled(&be, r.gpu(), &bag).unwrap();
    for j in 0..64u32 {
        let want: f32 = bag
            .iter()
            .map(|&id| EmbeddingTable::init_value(id, j))
            .sum();
        assert!(
            (pooled[j as usize] - want).abs() < 1e-2,
            "dim {j}: {} vs {want}",
            pooled[j as usize]
        );
    }

    // SGD update: each unique row moves by exactly -lr*grad once.
    let grad = vec![2.0f32; 64];
    table.sgd_update(&be, r.gpu(), &bag, &grad, 0.5).unwrap();
    let mut unique = bag.clone();
    unique.sort_unstable();
    unique.dedup();
    let rows = table.gather(&be, r.gpu(), &unique).unwrap();
    for (i, &id) in unique.iter().enumerate() {
        for j in 0..64u32 {
            let want = EmbeddingTable::init_value(id, j) - 0.5 * 2.0;
            assert!(
                (rows[i][j as usize] - want).abs() < 1e-4,
                "row {id} dim {j}"
            );
        }
    }
}

#[test]
fn offloaded_adam_matches_in_memory_reference() {
    use cam_workloads::llm::{adam_reference, AdamConfig, OffloadedOptimizer};
    let r = rig();
    let cam = CamContext::attach(&r, CamConfig::default());
    let be = CamBackend::new(cam.device(), 2048);
    let elems = 3000usize;
    let init = |i: usize| (i % 17) as f32 / 4.0 - 2.0;
    let cfg = AdamConfig::default();
    let mut opt = OffloadedOptimizer::create(&be, r.gpu(), elems, init, 4096, 0, cfg).unwrap();

    let mut rng = cam_simkit::dist::seeded_rng(3);
    let grads: Vec<Vec<f32>> = (0..4)
        .map(|_| (0..elems).map(|_| rng.gen_range(-1.0f32..1.0)).collect())
        .collect();
    for g in &grads {
        opt.step(&be, r.gpu(), g).unwrap();
    }
    let got = opt.params(&be, r.gpu()).unwrap();
    let want = adam_reference(init, elems, &grads, cfg);
    for i in (0..elems).step_by(97) {
        assert!(
            (got[i] - want[i]).abs() < 1e-5,
            "param {i}: {} vs {}",
            got[i],
            want[i]
        );
    }
}
