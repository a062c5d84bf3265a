//! The threaded driver of a [`DesBatchSource`], the wall-clock twin of
//! [`run_cam_des_source`](cam_iostacks::cam_des::run_cam_des_source).

use cam_gpu::GpuBuffer;
use cam_iostacks::cam_des::DesBatchSource;
use cam_iostacks::Rig;
use cam_telemetry::{clock, Observability};

use crate::{BatchTicket, CamConfig, CamContext, CamError, ControlStats};

/// Runs `source` over `cfg.n_channels` channels of a [`CamContext`]
/// attached to `rig` with `cfg` and `obs`. One thread sequences the source,
/// as the DES calendar does, so it needs no lock: it offers each idle
/// channel a batch at [`clock::now_ns`], polls every ticket, and hands a
/// retire its failed-command count, as the DES hands its `errors`. A pass
/// with nothing to do yields, which is how a time-gated source waits. Once
/// every channel is idle and the source drained the engine stops, so every
/// event is in `obs`'s recorder on return. Panics, as the DES asserts, on
/// a source stalled with work left and no [`DesBatchSource::next_ready_ns`].
pub fn run_threaded_source(
    rig: &Rig,
    cfg: CamConfig,
    obs: Observability,
    source: &mut dyn DesBatchSource,
) -> ControlStats {
    let cam = CamContext::attach_observed(rig, cfg, obs);
    let dev = cam.device();
    let block_size = u64::from(cam.block_size());
    let mut bufs: Vec<Option<GpuBuffer>> = (0..cfg.n_channels).map(|_| None).collect();
    let mut tickets: Vec<Option<BatchTicket>> = vec![None; cfg.n_channels];
    loop {
        let mut progress = false;
        for ch in 0..cfg.n_channels {
            if let Some(ticket) = &tickets[ch] {
                if !ticket.is_done() {
                    continue;
                }
                let failed = match ticket.wait() {
                    Ok(()) => 0,
                    Err(CamError::Io { failed }) => failed,
                    Err(e) => panic!("channel {ch}: {e}"),
                };
                tickets[ch] = None;
                source.on_retire(ch, clock::now_ns(), failed);
                progress = true;
            }
            let Some((batch, op)) = source.next_batch(ch, clock::now_ns()) else {
                continue;
            };
            let req_bytes = u64::from(batch.blocks) * block_size;
            let bytes = batch.lbas.len() * req_bytes as usize;
            if bufs[ch].as_ref().is_none_or(|b| b.len() < bytes) {
                bufs[ch] = None;
                let buf = cam.alloc(bytes).expect("channel buffer");
                // Written once: a write from a never-written page would cost
                // a fresh zero buffer per block, every batch.
                buf.write(0, &vec![0; bytes]);
                bufs[ch] = Some(buf);
            }
            let addr = bufs[ch].as_ref().map_or(0, GpuBuffer::addr);
            let dest = |i: usize| addr + i as u64 * req_bytes;
            let ticket = dev.submit_scatter(ch, op, &batch.lbas, dest, batch.blocks);
            tickets[ch] = Some(ticket.unwrap_or_else(|e| panic!("channel {ch}: {e}")));
            progress = true;
        }
        if !progress && tickets.iter().all(Option::is_none) {
            if source.is_drained() {
                break;
            }
            let stalled = source.next_ready_ns(clock::now_ns()).is_none();
            assert!(!stalled, "every batch must publish: the source stalled");
        }
        if !progress {
            std::thread::yield_now();
        }
    }
    let stats = cam.stats();
    drop(cam);
    stats
}
