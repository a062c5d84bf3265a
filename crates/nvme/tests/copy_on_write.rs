//! Media blocks and pinned pages share copy-on-write buffers, and nothing
//! may tell: every `dma_read` and every media read returns exactly what
//! byte-for-byte copies would have left.
//!
//! A seeded model test drives random sequences of device reads and writes,
//! host partial and full-page `dma_write`s, media writes through the RAID-0
//! view, dedup fan-out copies and cache slot→buffer copies against a
//! reference of plain `Vec<u8>`s, on 4 KiB blocks (moved by reference) and
//! on 512-byte blocks (copied). The named tests pin the three sharing cases
//! a copy-on-write bug would break first, and the fault path on whole
//! pages.

use std::sync::Arc;

use cam_blockdev::{
    BlockGeometry, BlockStore, FaultPolicy, FaultyStore, Lba, Raid0, SparseMemStore,
};
use cam_nvme::spec::{Sqe, Status};
use cam_nvme::{DeviceConfig, DmaSpace, NvmeDevice, PinnedRegion, QueuePair};
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};

const BASE: u64 = 0x4_0000;
const PAGE: usize = 4096;
/// Pages of pinned memory, and bytes of media per SSD, in pages.
const PAGES: usize = 12;
const SSDS: usize = 2;

/// Two SSDs under one region, their stores also seen as a RAID-0 array
/// (stripe one block), and the plain-copy model of all of it.
struct World {
    region: Arc<PinnedRegion>,
    stores: Vec<Arc<dyn BlockStore>>,
    raid: Raid0,
    qps: Vec<Arc<QueuePair>>,
    _devs: Vec<NvmeDevice>,
    bs: usize,
    /// What the region must read as.
    gpu: Vec<u8>,
    /// What each SSD's media must read as.
    media: Vec<Vec<u8>>,
}

impl World {
    fn new(bs: usize) -> Self {
        let blocks = (PAGES * PAGE / bs) as u64;
        let stores: Vec<Arc<dyn BlockStore>> = (0..SSDS)
            .map(|_| {
                Arc::new(SparseMemStore::new(BlockGeometry::new(bs as u32, blocks)))
                    as Arc<dyn BlockStore>
            })
            .collect();
        World::with_stores(bs, stores)
    }

    fn with_stores(bs: usize, stores: Vec<Arc<dyn BlockStore>>) -> Self {
        let region = Arc::new(PinnedRegion::new(BASE, PAGES * PAGE));
        let devs: Vec<NvmeDevice> = stores
            .iter()
            .map(|s| {
                NvmeDevice::start(
                    DeviceConfig::default(),
                    Arc::clone(s),
                    Arc::clone(&region) as Arc<dyn DmaSpace>,
                )
            })
            .collect();
        World {
            qps: devs.iter().map(|d| d.add_queue_pair(8)).collect(),
            raid: Raid0::new(stores.clone(), 1),
            region,
            stores,
            _devs: devs,
            bs,
            gpu: vec![0; PAGES * PAGE],
            media: vec![vec![0; PAGES * PAGE]; SSDS],
        }
    }

    /// Runs one command on SSD `ssd` and returns its status.
    fn command(&self, ssd: usize, sqe: Sqe) -> Status {
        self.qps[ssd].submit(sqe).unwrap();
        loop {
            if let Some(cqe) = self.qps[ssd].poll_cqe() {
                return cqe.status;
            }
            std::thread::yield_now();
        }
    }

    /// Device read of `nlb` blocks at `lba` of `ssd` to region offset `off`.
    fn device_read(&mut self, ssd: usize, lba: usize, nlb: usize, off: usize) {
        let sqe = Sqe::read(0, lba as u64, nlb as u32, BASE + off as u64);
        assert_eq!(self.command(ssd, sqe), Status::Success);
        let len = nlb * self.bs;
        self.gpu[off..off + len].copy_from_slice(&self.media[ssd][lba * self.bs..][..len]);
    }

    /// Device write of `nlb` blocks from region offset `off` to `lba`.
    fn device_write(&mut self, ssd: usize, lba: usize, nlb: usize, off: usize) {
        let sqe = Sqe::write(0, lba as u64, nlb as u32, BASE + off as u64);
        assert_eq!(self.command(ssd, sqe), Status::Success);
        let len = nlb * self.bs;
        self.media[ssd][lba * self.bs..][..len].copy_from_slice(&self.gpu[off..off + len]);
    }

    /// Host `dma_write` of `data` at region offset `off`.
    fn host_write(&mut self, off: usize, data: &[u8]) {
        self.region.dma_write(BASE + off as u64, data).unwrap();
        self.gpu[off..off + data.len()].copy_from_slice(data);
    }

    /// Media write of whole blocks through the RAID-0 view.
    fn raid_write(&mut self, lba: u64, data: &[u8]) {
        self.raid.write(Lba(lba), data).unwrap();
        for (i, block) in data.chunks_exact(self.bs).enumerate() {
            let (ssd, dev_lba) = self.raid.map(Lba(lba + i as u64));
            self.media[ssd][dev_lba.index() as usize * self.bs..][..self.bs].copy_from_slice(block);
        }
    }

    /// A copy inside the region: the dedup fan-out and the cache's slot →
    /// buffer copy both are one.
    fn copy(&mut self, src: usize, dst: usize, len: usize) {
        self.region
            .dma_copy(BASE + src as u64, BASE + dst as u64, len)
            .unwrap();
        self.gpu.copy_within(src..src + len, dst);
    }

    /// Every byte of the region and of both media reads as the model says.
    fn check(&self, step: &str) {
        let mut gpu = vec![0xA5; self.gpu.len()];
        self.region.dma_read(BASE, &mut gpu).unwrap();
        assert!(
            gpu == self.gpu,
            "region differs from the model after {step}"
        );
        for (ssd, store) in self.stores.iter().enumerate() {
            let mut media = vec![0xA5; self.media[ssd].len()];
            store.read(Lba(0), &mut media).unwrap();
            assert!(media == self.media[ssd], "SSD {ssd} differs after {step}");
        }
    }
}

fn bytes(rng: &mut StdRng, len: usize) -> Vec<u8> {
    (0..len).map(|_| rng.gen::<u8>()).collect()
}

/// One random step of the model test; returns its name for failures.
fn step(w: &mut World, rng: &mut StdRng) -> String {
    let bs = w.bs;
    let blocks = PAGES * PAGE / bs;
    // A transfer of up to two pages' worth of blocks; its region offset is
    // mostly page-aligned (moved by reference when `bs` is a page) and
    // otherwise only 512-byte aligned (copied).
    let nlb = rng.gen_range(1..=2 * PAGE / bs);
    let len = nlb * bs;
    let off = if rng.gen_range(0..4) == 0 {
        rng.gen_range(0..=(PAGES * PAGE - len) / 512) * 512
    } else {
        rng.gen_range(0..=PAGES - len.div_ceil(PAGE)) * PAGE
    };
    let (ssd, lba) = (rng.gen_range(0..SSDS), rng.gen_range(0..=blocks - nlb));
    match rng.gen_range(0..8) {
        0 | 1 => {
            w.device_read(ssd, lba, nlb, off);
            format!("device read {nlb}@{lba} of SSD {ssd} to {off:#x}")
        }
        2 | 3 => {
            w.device_write(ssd, lba, nlb, off);
            format!("device write {nlb}@{lba} of SSD {ssd} from {off:#x}")
        }
        4 => {
            let n = rng.gen_range(1..=600usize);
            let at = rng.gen_range(0..=PAGES * PAGE - n);
            let data = bytes(rng, n);
            w.host_write(at, &data);
            format!("host write of {n} bytes at {at:#x}")
        }
        5 => {
            let at = rng.gen_range(0..PAGES) * PAGE;
            let data = bytes(rng, PAGE);
            w.host_write(at, &data);
            format!("host page write at {at:#x}")
        }
        6 => {
            let count = rng.gen_range(1..=3usize);
            let lba = rng.gen_range(0..=(SSDS * blocks - count) as u64);
            let data = bytes(rng, count * bs);
            w.raid_write(lba, &data);
            format!("raid write {count}@{lba}")
        }
        _ => {
            // Fan-out of a whole multi-block request, a one-block slot →
            // buffer copy, or (rarely) an arbitrary, possibly overlapping
            // range.
            let (src, dst, n) = match rng.gen_range(0..5) {
                0 | 1 => {
                    let pages = rng.gen_range(1..=2usize);
                    let src = rng.gen_range(0..=PAGES - pages);
                    let dst = loop {
                        let d = rng.gen_range(0..=PAGES - pages);
                        if d + pages <= src || src + pages <= d {
                            break d;
                        }
                    };
                    (src * PAGE, dst * PAGE, pages * PAGE)
                }
                2 | 3 => {
                    let slot = |rng: &mut StdRng| rng.gen_range(0..blocks) * bs;
                    (slot(rng), slot(rng), bs)
                }
                _ => {
                    let n = rng.gen_range(1..=2 * PAGE);
                    let mut at = || rng.gen_range(0..=PAGES * PAGE - n);
                    (at(), at(), n)
                }
            };
            w.copy(src, dst, n);
            format!("copy of {n} bytes {src:#x} -> {dst:#x}")
        }
    }
}

fn model_test(bs: usize) {
    for seed in 0..12u64 {
        let mut rng = StdRng::seed_from_u64(seed * 0x9E37 + bs as u64);
        let mut w = World::new(bs);
        for i in 0..200 {
            let what = step(&mut w, &mut rng);
            w.check(&format!("step {i} ({what}), seed {seed}, {bs}-byte blocks"));
        }
    }
}

#[test]
fn whole_page_blocks_read_as_plain_copies() {
    model_test(PAGE);
}

#[test]
fn sub_page_blocks_read_as_plain_copies() {
    model_test(512);
}

/// Fills SSD 0's block `lba` with `byte` through the RAID-0 view.
fn media_block(w: &mut World, lba: usize, byte: u8) {
    w.raid_write(2 * lba as u64, &[byte; PAGE]);
}

#[test]
fn media_rewritten_after_a_read_leaves_the_gpu_page_unchanged() {
    let mut w = World::new(PAGE);
    media_block(&mut w, 3, 0x11);
    w.device_read(0, 3, 1, 0);
    // Rewritten through the array view, then by a device write from
    // another page: the page that shares the block keeps the old bytes.
    media_block(&mut w, 3, 0x22);
    w.check("raid write over a block a page holds");
    w.host_write(PAGE, &[0x33; PAGE]);
    w.device_write(0, 3, 1, PAGE);
    w.check("device write over a block a page holds");
    let mut page = vec![0; PAGE];
    w.region.dma_read(BASE, &mut page).unwrap();
    assert!(page.iter().all(|&b| b == 0x11));
}

#[test]
fn a_page_stamped_after_a_write_leaves_the_media_unchanged() {
    let mut w = World::new(PAGE);
    for shared in [false, true] {
        let lba = 4 + usize::from(shared);
        media_block(&mut w, lba, 0x44);
        if shared {
            // A page holds the block, so the write takes the source page
            // by reference instead of writing into the block.
            w.device_read(0, lba, 1, 5 * PAGE);
        }
        w.host_write(0, &[0x55; PAGE]);
        w.device_write(0, lba, 1, 0);
        w.host_write(8, &7u64.to_le_bytes());
        w.check(&format!("a stamp after a write (block shared: {shared})"));
        let mut block = vec![0; PAGE];
        w.stores[0].read(Lba(lba as u64), &mut block).unwrap();
        assert!(block.iter().all(|&b| b == 0x55));
    }
}

#[test]
fn a_fan_out_then_a_write_to_one_destination_leaves_the_other_unchanged() {
    let mut w = World::new(PAGE);
    media_block(&mut w, 6, 0x66);
    w.device_read(0, 6, 1, 0);
    w.copy(0, 2 * PAGE, PAGE);
    w.copy(0, 3 * PAGE, PAGE);
    // A host write into one destination, then a device read over another:
    // the source and the remaining destination keep the fanned-out bytes.
    w.host_write(2 * PAGE + 100, &[0x77; 64]);
    media_block(&mut w, 7, 0x88);
    w.device_read(0, 7, 1, 3 * PAGE);
    w.check("writes to fanned-out destinations");
    let mut page = vec![0; PAGE];
    w.region.dma_read(BASE, &mut page).unwrap();
    assert!(page.iter().all(|&b| b == 0x66));
    w.region
        .dma_read(BASE + 2 * PAGE as u64, &mut page)
        .unwrap();
    assert!(page[..100].iter().chain(&page[164..]).all(|&b| b == 0x66));
}

#[test]
fn faulted_whole_page_reads_fail_as_before_and_move_no_bytes() {
    let inner: Arc<dyn BlockStore> = Arc::new(SparseMemStore::new(BlockGeometry::new(
        PAGE as u32,
        PAGES as u64,
    )));
    inner.write(Lba(2), &[0x99; 2 * PAGE]).unwrap();
    let transient = Arc::new(FaultyStore::new(
        Arc::clone(&inner),
        FaultPolicy::transient_reads_in(2, 4, 1),
    ));
    let permanent = Arc::new(FaultyStore::new(inner, FaultPolicy::reads_in(2, 4)));
    let mut w = World::with_stores(
        PAGE,
        vec![
            Arc::clone(&transient) as Arc<dyn BlockStore>,
            Arc::clone(&permanent) as Arc<dyn BlockStore>,
        ],
    );
    for media in &mut w.media {
        media[2 * PAGE..4 * PAGE].fill(0x99);
    }
    w.host_write(0, &[0xEE; 2 * PAGE]);
    let read = Sqe::read(0, 2, 2, BASE);
    // A permanent fault fails as an addressing error, every time.
    for _ in 0..2 {
        assert_eq!(w.command(1, read), Status::LbaOutOfRange);
        w.check("a permanently faulted read");
    }
    // A transient fault fails once, moving nothing; the retry delivers.
    assert_eq!(w.command(0, read), Status::TransientMediaError);
    w.check("a transiently faulted read");
    assert_eq!(w.command(0, read), Status::Success);
    w.gpu[..2 * PAGE].fill(0x99);
    w.check("the retried read");
    assert_eq!((transient.injected(), permanent.injected()), (1, 2));
}
