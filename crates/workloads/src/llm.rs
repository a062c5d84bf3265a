//! LLM training with SSD-offloaded optimizer state — the ZeRO-Infinity
//! motivation of § II: "LLM training system Zero-infinity spends more than
//! 80% of time on the update phase that mainly consists of SSD accesses
//! with only ~70% SSD bandwidth utilization".
//!
//! * **Functional** — [`OffloadedOptimizer`] keeps parameters and Adam
//!   moments on the raw array and streams them chunk-by-chunk through any
//!   [`StorageBackend`] for each update step (read params+moments → apply
//!   Adam → write back), verifiable against an in-memory reference.
//! * **Analytic** — [`model_step`] reproduces the update-phase share and
//!   shows the effect of CAM's full-bandwidth overlapped streaming.

use cam_core::{BackendError, IoRequest, StorageBackend};
use cam_gpu::Gpu;
use cam_simkit::Dur;

use crate::gnn::array_read_gbps;

/// Adam hyperparameters.
#[derive(Clone, Copy, Debug)]
pub struct AdamConfig {
    /// Learning rate.
    pub lr: f32,
    /// First-moment decay.
    pub beta1: f32,
    /// Second-moment decay.
    pub beta2: f32,
    /// Numerical floor.
    pub eps: f32,
}

impl Default for AdamConfig {
    fn default() -> Self {
        AdamConfig {
            lr: 1e-3,
            beta1: 0.9,
            beta2: 0.999,
            eps: 1e-8,
        }
    }
}

/// Optimizer state resident on the SSD array: three equal f32 streams
/// (params, m, v), each `elems` long, packed into blocks.
pub struct OffloadedOptimizer {
    elems: usize,
    block_size: usize,
    /// First LBA of each stream: [params, m, v].
    stream_lba: [u64; 3],
    cfg: AdamConfig,
    steps: u64,
}

impl OffloadedOptimizer {
    /// Lays out and zero-initializes the state for `elems` parameters
    /// starting at `base_lba` (parameters start at `init` values).
    pub fn create(
        backend: &dyn StorageBackend,
        gpu: &Gpu,
        elems: usize,
        init: impl Fn(usize) -> f32,
        block_size: u32,
        base_lba: u64,
        cfg: AdamConfig,
    ) -> Result<Self, BackendError> {
        let bs = block_size as usize;
        assert!(bs.is_multiple_of(4));
        let blocks_per_stream = (elems * 4).div_ceil(bs) as u64;
        let stream_lba = [
            base_lba,
            base_lba + blocks_per_stream,
            base_lba + 2 * blocks_per_stream,
        ];
        let opt = OffloadedOptimizer {
            elems,
            block_size: bs,
            stream_lba,
            cfg,
            steps: 0,
        };
        // Initialize params to `init`, moments to zero.
        let mut data = vec![0.0f32; elems];
        for (i, d) in data.iter_mut().enumerate() {
            *d = init(i);
        }
        opt.write_stream(backend, gpu, 0, &data)?;
        let zeros = vec![0.0f32; elems];
        opt.write_stream(backend, gpu, 1, &zeros)?;
        opt.write_stream(backend, gpu, 2, &zeros)?;
        Ok(opt)
    }

    /// Parameter count.
    pub fn elems(&self) -> usize {
        self.elems
    }

    /// Blocks per stream.
    fn stream_blocks(&self) -> u64 {
        (self.elems * 4).div_ceil(self.block_size) as u64
    }

    fn read_stream(
        &self,
        backend: &dyn StorageBackend,
        gpu: &Gpu,
        stream: usize,
    ) -> Result<Vec<f32>, BackendError> {
        let blocks = self.stream_blocks();
        let buf = gpu
            .alloc(blocks as usize * self.block_size)
            .expect("stream buffer");
        backend.execute_batch(&[IoRequest::read(
            self.stream_lba[stream],
            blocks as u32,
            buf.addr(),
        )])?;
        let raw = buf.to_vec();
        Ok((0..self.elems)
            .map(|i| f32::from_le_bytes(raw[i * 4..i * 4 + 4].try_into().unwrap()))
            .collect())
    }

    fn write_stream(
        &self,
        backend: &dyn StorageBackend,
        gpu: &Gpu,
        stream: usize,
        data: &[f32],
    ) -> Result<(), BackendError> {
        assert_eq!(data.len(), self.elems);
        let blocks = self.stream_blocks();
        let mut raw = vec![0u8; blocks as usize * self.block_size];
        for (i, &x) in data.iter().enumerate() {
            raw[i * 4..i * 4 + 4].copy_from_slice(&x.to_le_bytes());
        }
        let buf = gpu.alloc(raw.len()).expect("stream buffer");
        buf.write(0, &raw);
        backend.execute_batch(&[IoRequest::write(
            self.stream_lba[stream],
            blocks as u32,
            buf.addr(),
        )])?;
        Ok(())
    }

    /// One Adam step with the given gradients: streams params + moments in
    /// from the array, updates, streams them back. This is ZeRO-Infinity's
    /// update phase at miniature scale.
    pub fn step(
        &mut self,
        backend: &dyn StorageBackend,
        gpu: &Gpu,
        grads: &[f32],
    ) -> Result<(), BackendError> {
        assert_eq!(grads.len(), self.elems);
        self.steps += 1;
        let t = self.steps as i32;
        let mut p = self.read_stream(backend, gpu, 0)?;
        let mut m = self.read_stream(backend, gpu, 1)?;
        let mut v = self.read_stream(backend, gpu, 2)?;
        let c = self.cfg;
        let bc1 = 1.0 - c.beta1.powi(t);
        let bc2 = 1.0 - c.beta2.powi(t);
        for i in 0..self.elems {
            m[i] = c.beta1 * m[i] + (1.0 - c.beta1) * grads[i];
            v[i] = c.beta2 * v[i] + (1.0 - c.beta2) * grads[i] * grads[i];
            let mhat = m[i] / bc1;
            let vhat = v[i] / bc2;
            p[i] -= c.lr * mhat / (vhat.sqrt() + c.eps);
        }
        self.write_stream(backend, gpu, 0, &p)?;
        self.write_stream(backend, gpu, 1, &m)?;
        self.write_stream(backend, gpu, 2, &v)?;
        Ok(())
    }

    /// Reads the current parameters (verification).
    pub fn params(
        &self,
        backend: &dyn StorageBackend,
        gpu: &Gpu,
    ) -> Result<Vec<f32>, BackendError> {
        self.read_stream(backend, gpu, 0)
    }
}

/// In-memory Adam reference for verification.
pub fn adam_reference(
    init: impl Fn(usize) -> f32,
    elems: usize,
    grads_per_step: &[Vec<f32>],
    cfg: AdamConfig,
) -> Vec<f32> {
    let mut p: Vec<f32> = (0..elems).map(init).collect();
    let mut m = vec![0.0f32; elems];
    let mut v = vec![0.0f32; elems];
    for (step, grads) in grads_per_step.iter().enumerate() {
        let t = step as i32 + 1;
        let bc1 = 1.0 - cfg.beta1.powi(t);
        let bc2 = 1.0 - cfg.beta2.powi(t);
        for i in 0..elems {
            m[i] = cfg.beta1 * m[i] + (1.0 - cfg.beta1) * grads[i];
            v[i] = cfg.beta2 * v[i] + (1.0 - cfg.beta2) * grads[i] * grads[i];
            p[i] -= cfg.lr * (m[i] / bc1) / ((v[i] / bc2).sqrt() + cfg.eps);
        }
    }
    p
}

// ---------------------------------------------------------------------------
// Analytic step model (§ II's ZeRO-Infinity observation).
// ---------------------------------------------------------------------------

/// The offload substrate being modelled.
#[derive(Clone, Copy, PartialEq, Eq, Debug)]
pub enum LlmSystem {
    /// ZeRO-Infinity-style kernel path: ~70% bandwidth, update serial with
    /// forward/backward.
    ZeroInfinity,
    /// CAM: full bandwidth, update streaming overlapped with compute.
    Cam,
}

/// Bandwidth utilization of the ZeRO-Infinity baseline ("~70% SSD
/// bandwidth utilization", § II).
pub const ZERO_INFINITY_BW_UTILIZATION: f64 = 0.70;

/// One training step's breakdown.
#[derive(Clone, Copy, Debug)]
pub struct LlmBreakdown {
    /// Update-phase time (optimizer-state SSD streaming).
    pub update: Dur,
    /// Forward + backward compute.
    pub compute: Dur,
    /// End-to-end step time.
    pub step: Dur,
}

impl LlmBreakdown {
    /// Share of the step spent in the update phase (serial view).
    pub fn update_fraction(&self) -> f64 {
        self.update.as_ns() as f64 / (self.update + self.compute).as_ns() as f64
    }
}

/// Models one step for a model with `params_b` billion parameters: the
/// update streams params + two moments in and out (fp32), sequentially.
pub fn model_step(system: LlmSystem, params_b: f64, n_ssds: usize) -> LlmBreakdown {
    let io_bytes = params_b * 1e9 * 4.0 * 3.0 * 2.0; // 3 streams, read+write
    let bw = array_read_gbps(n_ssds, 128 << 10);
    let (eff_bw, overlapped) = match system {
        LlmSystem::ZeroInfinity => (bw * ZERO_INFINITY_BW_UTILIZATION, false),
        LlmSystem::Cam => (bw, true),
    };
    let update = Dur::from_ns_f64(io_bytes / eff_bw);
    // Forward/backward calibrated to the paper's ">80% of time on the
    // update phase": compute = update_zero / 4.
    let update_zero = io_bytes / (bw * ZERO_INFINITY_BW_UTILIZATION);
    let compute = Dur::from_ns_f64(update_zero / 4.0);
    let step = if overlapped {
        let long = update.max(compute);
        let short = if update.as_ns() > compute.as_ns() {
            compute
        } else {
            update
        };
        long + Dur::from_ns_f64(short.as_ns() as f64 * 0.25)
    } else {
        update + compute
    };
    LlmBreakdown {
        update,
        compute,
        step,
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn zero_infinity_baseline_matches_section_ii() {
        let b = model_step(LlmSystem::ZeroInfinity, 100.0, 12);
        let f = b.update_fraction();
        // ">80% of time on the update phase".
        assert!((0.78..0.85).contains(&f), "update fraction {f}");
    }

    #[test]
    fn cam_reduces_step_time() {
        let base = model_step(LlmSystem::ZeroInfinity, 100.0, 12);
        let cam = model_step(LlmSystem::Cam, 100.0, 12);
        let speedup = base.step.as_ns() as f64 / cam.step.as_ns() as f64;
        assert!(speedup > 1.4 && speedup < 2.5, "speedup {speedup}");
    }

    #[test]
    fn adam_reference_is_well_behaved() {
        let grads = vec![vec![0.1f32; 8]; 3];
        let p = adam_reference(|i| i as f32, 8, &grads, AdamConfig::default());
        // Constant positive gradients must decrease every parameter.
        for (i, &x) in p.iter().enumerate() {
            assert!(x < i as f32, "param {i} = {x}");
            assert!(x > i as f32 - 0.01, "param {i} moved too far: {x}");
        }
    }
}
