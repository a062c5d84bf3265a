//! The per-(worker, SSD) in-flight command table.
//!
//! Every submitted command gets a CID from here; every reaped CQE is
//! matched back to its originating request through it. CIDs wrap at
//! `u16::MAX` but never collide with a command still in flight — the
//! allocator skips in-use slots, so a late completion can never be
//! attributed to the wrong request after CID reuse.

/// CID-keyed table of commands awaiting their completion.
///
/// Live commands sit densely in `live`; `index` is an open-addressed map
/// from CID to position in `live`, probed linearly from the CID's own low
/// bits and at most half full, so allocation checks, inserts and
/// completion matching are a mask and a probe or two — no hashing at all.
/// CIDs are allocated in sequence, so the commands in flight sit in a few
/// adjacent slots: a batch's completions touch a cache line or two of the
/// index, not one line each. A CID lands off its home slot only when an
/// older command still holds that slot a whole index's worth of CIDs
/// later, and `displaced` counts those: while it is 0 no probe passes an
/// occupied slot, so removal just clears the slot, and only otherwise does
/// it run the backward shift (which, over a contiguous run of CIDs, walks
/// the run to its end). Memory is proportional to the depth: two bytes per
/// index slot, and a `live` entry per command in flight — the CID and the
/// caller's value, which for `WorkerCore` is the command's `u32` slab
/// index, so eight bytes.
pub struct InflightTable<T> {
    /// `(cid, command)` for every command in flight, in no particular order.
    live: Vec<(u16, T)>,
    /// Position in `live`, plus one, of the entry in this slot; 0 = vacant.
    /// Always keeps at least one slot vacant, so probes terminate.
    index: Box<[u16]>,
    mask: usize,
    /// Live entries not in their home slot.
    displaced: usize,
    next_cid: u16,
    capacity: usize,
}

impl<T> InflightTable<T> {
    /// A table bounded by the queue depth (and by the 16-bit CID space).
    pub fn new(depth: usize) -> Self {
        let capacity = depth.min(u16::MAX as usize);
        // At most half full, so probes stay short and always end.
        let slots = (2 * capacity).next_power_of_two().max(2);
        InflightTable {
            live: Vec::with_capacity(capacity),
            index: vec![0; slots].into_boxed_slice(),
            mask: slots - 1,
            displaced: 0,
            next_cid: 0,
            capacity,
        }
    }

    /// Commands currently in flight.
    pub fn len(&self) -> usize {
        self.live.len()
    }

    /// Whether nothing is in flight.
    pub fn is_empty(&self) -> bool {
        self.live.is_empty()
    }

    /// Whether another command can be admitted.
    pub fn is_full(&self) -> bool {
        self.live.len() >= self.capacity
    }

    /// Records `cmd` as in flight under the next free CID, which it
    /// returns; hands `cmd` back when the table is full.
    pub fn insert(&mut self, cmd: T) -> Result<u16, T> {
        if self.is_full() {
            return Err(cmd);
        }
        // At most `capacity` slots are occupied and capacity ≤ the CID
        // space, so a free CID exists within one wrap.
        loop {
            let cid = self.next_cid;
            self.next_cid = self.next_cid.wrapping_add(1);
            if let Err(vacant) = self.probe(cid) {
                self.live.push((cid, cmd));
                self.place(cid, vacant);
                return Ok(cid);
            }
        }
    }

    /// The index slot a CID's probe starts at: its low bits.
    fn home(&self, cid: u16) -> usize {
        usize::from(cid) & self.mask
    }

    /// Points vacant `slot` at the entry just pushed to `live`, under `cid`.
    fn place(&mut self, cid: u16, slot: usize) {
        // `live.len() ≤ capacity ≤ u16::MAX`, so the position fits.
        self.index[slot] = self.live.len() as u16;
        self.displaced += usize::from(slot != self.home(cid));
    }

    /// Probes for `cid`: the index slot holding it if it is in flight,
    /// else the vacant slot that ends its probe (where `insert` places it).
    fn probe(&self, cid: u16) -> Result<usize, usize> {
        let mut i = self.home(cid);
        loop {
            match self.index[i] {
                0 => return Err(i),
                p if self.live[p as usize - 1].0 == cid => return Ok(i),
                _ => i = (i + 1) & self.mask,
            }
        }
    }

    /// Matches a completion back to its command; `None` for a stale or
    /// unknown CID.
    pub fn remove(&mut self, cid: u16) -> Option<T> {
        let slot = self.probe(cid).ok()?;
        let pos = self.index[slot] as usize - 1;
        let (_, cmd) = self.live.swap_remove(pos);
        // The former last entry (if any) now sits at `pos`: repoint its
        // slot while every probe chain is still intact.
        if let Some(&(moved, _)) = self.live.get(pos) {
            let was = self.live.len() as u16 + 1;
            let mut i = self.home(moved);
            while self.index[i] != was {
                i = (i + 1) & self.mask;
            }
            self.index[i] = pos as u16 + 1;
        }
        self.displaced -= usize::from(slot != self.home(cid));
        // Vacate `slot`. With every entry home, no probe runs through it.
        // Otherwise, backward-shift deletion: pull up every later entry of
        // the run whose probe would otherwise stop at the hole.
        let (mut hole, mut j) = (slot, slot);
        while self.displaced > 0 {
            j = (j + 1) & self.mask;
            let p = self.index[j];
            if p == 0 {
                break;
            }
            let home = self.home(self.live[p as usize - 1].0);
            if (j.wrapping_sub(home) & self.mask) >= (j.wrapping_sub(hole) & self.mask) {
                self.index[hole] = p;
                self.displaced -= usize::from(hole == home);
                hole = j;
            }
        }
        self.index[hole] = 0;
        Some(cmd)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn cids_round_trip() {
        let mut t: InflightTable<&str> = InflightTable::new(8);
        let a = t.insert("a").unwrap();
        let b = t.insert("b").unwrap();
        assert_ne!(a, b);
        assert_eq!(t.len(), 2);
        assert_eq!(t.remove(a), Some("a"));
        assert_eq!(t.remove(a), None, "second reap of the same CID is stale");
        assert_eq!(t.remove(b), Some("b"));
        assert_eq!(t.len(), 0);
    }

    #[test]
    fn capacity_bounds_admission() {
        let mut t: InflightTable<u32> = InflightTable::new(2);
        let a = t.insert(0).unwrap();
        t.insert(1).unwrap();
        assert!(t.is_full());
        assert_eq!(t.insert(2), Err(2), "a full table hands the command back");
        t.remove(a).unwrap();
        assert!(t.insert(3).is_ok());
    }

    #[test]
    fn wrapping_allocator_skips_live_cids() {
        let mut t: InflightTable<u32> = InflightTable::new(usize::from(u16::MAX));
        // Park a command on CID 0, then walk the allocator through a full
        // wrap of the CID space: it must hand out every other CID once and
        // never 0 again while it is live.
        assert_eq!(t.insert(42), Ok(0));
        for _ in 0..u32::from(u16::MAX) - 1 {
            let cid = t.insert(0).unwrap();
            assert_ne!(cid, 0, "live CID must not be reissued");
            t.remove(cid).unwrap();
        }
        // The allocator has wrapped past 0; the parked command is intact.
        assert_ne!(t.insert(0).unwrap(), 0);
        assert_eq!(t.remove(0), Some(42));
    }

    /// The allocator this table has always had, as a model: a wrapping
    /// cursor that skips exactly the CIDs still in flight. Drivers, traces
    /// and the DES all see CIDs, so the sequence is part of the contract.
    struct ModelTable {
        live: std::collections::BTreeSet<u16>,
        next: u16,
        capacity: usize,
    }

    impl ModelTable {
        fn alloc(&mut self) -> Option<u16> {
            if self.live.len() >= self.capacity {
                return None;
            }
            loop {
                let cid = self.next;
                self.next = self.next.wrapping_add(1);
                if self.live.insert(cid) {
                    return Some(cid);
                }
            }
        }
    }

    #[test]
    fn cid_sequence_is_the_wrapping_skip_in_use_sequence_through_a_u16_wrap() {
        // 128 index slots; four stragglers parked for the whole run.
        check_against_model(48, &[0, 1, 7, 40]);
        // 16 slots, half the table parked: long probe runs around them.
        check_against_model(6, &[0, 1, 2]);
    }

    fn check_against_model(depth: usize, stragglers: &[u16]) {
        let mut t: InflightTable<u32> = InflightTable::new(depth);
        let mut model = ModelTable {
            live: Default::default(),
            next: 0,
            capacity: depth,
        };
        let mut rng = 0x9E37_79B9_7F4A_7C15u64;
        let mut next_rand = move || {
            rng ^= rng << 13;
            rng ^= rng >> 7;
            rng ^= rng << 17;
            rng
        };
        // A few early commands stay in flight for the whole run, so the
        // cursor has to step over them on every wrap; a CID that lands on
        // a straggler's slot is displaced.
        let mut live: Vec<(u16, u32)> = Vec::new();
        let (mut allocated, mut steps) = (0u32, 0u32);
        let mut most_displaced = 0;
        while allocated < 3 << 16 {
            if live.len() < depth && (live.len() <= stragglers.len() || next_rand() % 3 != 0) {
                let cid = t.insert(allocated).expect("table has room");
                assert_eq!(Some(cid), model.alloc(), "allocation {allocated}");
                if (allocated as usize) < depth {
                    assert_eq!(u32::from(cid), allocated, "a fresh table counts up");
                }
                live.push((cid, allocated));
                allocated += 1;
            } else {
                let i = next_rand() as usize % live.len();
                if stragglers.contains(&live[i].0) {
                    continue;
                }
                let (cid, cmd) = live.swap_remove(i);
                assert_eq!(t.remove(cid), Some(cmd));
                assert_eq!(t.remove(cid), None, "second reap is stale");
                assert!(model.live.remove(&cid));
            }
            assert_eq!(t.len(), live.len());
            steps += 1;
            if steps % 16 == 0 {
                let off_home = t
                    .live
                    .iter()
                    .filter(|&&(c, _)| t.probe(c) != Ok(t.home(c)))
                    .count();
                assert_eq!(t.displaced, off_home, "allocation {allocated}");
                most_displaced = most_displaced.max(off_home);
            }
        }
        // Entries did land off their home slot, so probing past a collision
        // and the backward shift on removal both ran.
        assert!(most_displaced > 0);
        // A full table refuses, like the model.
        while t.len() < depth {
            let cid = t.insert(0).unwrap();
            assert_eq!(Some(cid), model.alloc());
        }
        assert_eq!(t.insert(9), Err(9));
        assert_eq!(model.alloc(), None);
        // The stragglers survived three wraps untouched.
        for &(cid, cmd) in live.iter().filter(|(c, _)| stragglers.contains(c)) {
            assert_eq!(t.remove(cid), Some(cmd));
        }
    }
}
