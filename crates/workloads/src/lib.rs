//! # cam-workloads — the evaluation workloads
//!
//! The paper evaluates CAM on three out-of-core applications (§ IV):
//!
//! * **GNN training** ([`gnn`]) — node classification with 2-hop neighbor
//!   sampling (fan-outs 25/10, batch 8000) on Paper100M and IGB-full
//!   ([`graph`] generates deterministic synthetic graphs with the same
//!   shape parameters; Table IV's full-scale stats are constants);
//! * **mergesort** ([`sort`]) — ModernGPU-style block sort followed by
//!   pairwise merging of runs;
//! * **GEMM** ([`gemm`]) — tiled matrix multiply with operand tiles
//!   streamed from SSD;
//! * **ANNS** ([`anns`]) — the IVF-Flat vector search of § II's Issue 2
//!   (scattered 4 KiB reads that break the staged data path);
//! * **DLRM** ([`dlrm`]) and **LLM offload** ([`llm`]) — the § I/§ II
//!   motivating applications: SSD-resident embedding tables with
//!   Zipf-skewed pooled lookups, and an Adam optimizer whose state streams
//!   from SSD each step;
//! * **KV-cache serving** ([`kv_cache`]) — multi-tenant LLM session traces
//!   (Tutti-style) paging attention-cache blocks through the SSD tier,
//!   consumed by the `cam-serving` request plane.
//!
//! Every workload comes in two forms, mirroring the substrate crates:
//! a **functional** implementation generic over
//! [`StorageBackend`](cam_core::StorageBackend) (real bytes, verified
//! results — CAM and cached CAM are interchangeable), and an
//! **analytic (DES) model** that reproduces the paper's end-to-end figures
//! (Figs. 1, 9, 10, 11) on the calibrated hardware models.

#![warn(missing_docs)]
#![deny(unsafe_code)]

pub mod anns;
pub mod dlrm;
pub mod gemm;
pub mod gnn;
pub mod graph;
pub mod kv_cache;
pub mod llm;
pub mod sort;
