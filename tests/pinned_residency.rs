//! Pinned memory costs what is touched: a default `Rig` reserves 64 MiB of
//! GPU memory, but attaching CAM allocates none of it, and a read batch
//! holds exactly the destination pages it lands in — each sharing its
//! media block, so in debug builds the batch is also held to copying no
//! payload byte. Eager pages would read 16 384 resident pages here.

use cam::substrate::blockdev::{BlockStore, Lba};
use cam::{CamConfig, CamContext, ChannelOp, Rig, RigConfig};

const BLOCK: usize = 4096;
const BATCH: usize = 64;

#[test]
fn a_default_rig_pays_only_for_the_pages_a_batch_touches() {
    let rig = Rig::new(RigConfig::default());
    let cam = CamContext::attach(&rig, CamConfig::default());
    let gpu = rig.gpu().memory().region();
    assert_eq!(gpu.len(), RigConfig::default().gpu_mem);
    assert_eq!(gpu.resident_pages(), 0, "attach touches no pinned page");

    // Media writes go straight to the store, not through pinned memory.
    let raid = rig.raid_view();
    for lba in 0..48u64 {
        raid.write(Lba(lba), &vec![lba as u8 + 1; BLOCK]).unwrap();
    }
    // `ctrl_read`'s shape: 64 reads over 48 blocks, so duplicates are
    // deduplicated and replicated at retire.
    let lbas: Vec<u64> = (0..BATCH as u64).map(|i| i * 37 % 48).collect();
    let buf = cam.alloc(BATCH * BLOCK).unwrap();
    cam.device()
        .submit(0, ChannelOp::Read, &lbas, buf.addr())
        .and_then(|t| t.wait())
        .unwrap();
    // Device reads and the fan-out of duplicates at retire move whole
    // pages by reference.
    #[cfg(debug_assertions)]
    assert_eq!(gpu.bytes_copied(), 0, "the batch copied payload bytes");

    let mut block = vec![0u8; BLOCK];
    for (i, &lba) in lbas.iter().enumerate() {
        buf.read(i * BLOCK, &mut block);
        assert!(block.iter().all(|&b| b == lba as u8 + 1), "block {i}");
    }
    assert_eq!(
        gpu.resident_pages(),
        BATCH,
        "one page per destination block"
    );
}
