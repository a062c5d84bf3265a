//! The session table: (tenant, session) → KV-block extents on the striped
//! namespace, plus GPU-residency accounting.
//!
//! Every session owns one fixed-size extent of `session_blocks` array LBAs:
//! sessions live in a slab, and slot `i` owns the LBAs
//! `[i * session_blocks, (i + 1) * session_blocks)`. The KV cache grows
//! append-only inside the extent; the GPU holds a *suffix* of each
//! session's written blocks (the most recent context), and the table
//! enforces a global GPU budget by evicting the least-recently-used
//! unpinned session's residency — evicted context pages back in from SSD
//! on the session's next decode step.
//!
//! Sessions with requests in flight are *pinned*: eviction skips them.
//!
//! Nothing on the per-step path scans the sessions. A key resolves to its
//! slot once ([`SessionTable::open`]) and every later operation of the
//! step takes the [`SessionSlot`] handle; eviction reads its victim off an
//! ordered index of the evictable sessions (see `docs/SERVING.md`, "Cost
//! model").

use std::collections::btree_map::Entry;
use std::collections::BTreeMap;
use std::ops::Range;

/// Session-table shape.
#[derive(Clone, Copy, Debug)]
pub struct SessionConfig {
    /// Array LBAs per session extent (the per-session KV capacity).
    pub session_blocks: u64,
    /// Total array LBAs available for extents.
    pub capacity_blocks: u64,
    /// GPU KV-residency budget across all sessions, blocks.
    pub gpu_budget_blocks: u64,
}

/// Key of a session: tenant id + tenant-local session id.
pub type SessionKey = (usize, usize);

/// Handle to an open session's slab slot, from [`SessionTable::open`].
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct SessionSlot(u32);

/// Where a session's blocks are and how many the GPU holds.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct SessionView {
    /// First array LBA of the extent: block `b` lives at `extent + b`.
    pub extent: u64,
    /// Blocks written so far (≤ `session_blocks`).
    pub written: u64,
    /// GPU-resident suffix length: the last `resident` written blocks are
    /// on the GPU and read for free.
    pub resident: u64,
}

#[derive(Debug)]
struct Session {
    key: SessionKey,
    written: u64,
    resident: u64,
    /// In-flight requests referencing this session.
    pins: u32,
    /// Last touch instant, the LRU eviction key.
    last_use_ns: u64,
}

impl Session {
    /// The session's place in the eviction order while it is evictable
    /// (resident and unpinned), else `None`.
    fn lru_entry(&self) -> Option<(u64, SessionKey)> {
        (self.resident > 0 && self.pins == 0).then_some((self.last_use_ns, self.key))
    }
}

/// The table. Clock-agnostic: every mutation takes an explicit `now_ns`
/// used only for LRU ordering.
#[derive(Debug)]
pub struct SessionTable {
    cfg: SessionConfig,
    /// The slab, in opening order.
    slots: Vec<Session>,
    by_key: BTreeMap<SessionKey, SessionSlot>,
    /// Exactly the evictable sessions, ordered by `(last_use_ns, key)`:
    /// the first entry is the LRU victim, ties break on the session key,
    /// so runs replay identically on both drivers. [`Self::update`] keeps
    /// it in step with every session mutation.
    lru: BTreeMap<(u64, SessionKey), SessionSlot>,
    resident_total: u64,
    evictions: u64,
    eviction_probes: u64,
}

impl SessionTable {
    /// An empty table.
    pub fn new(cfg: SessionConfig) -> Self {
        assert!(cfg.session_blocks > 0);
        SessionTable {
            cfg,
            slots: Vec::new(),
            by_key: BTreeMap::new(),
            lru: BTreeMap::new(),
            resident_total: 0,
            evictions: 0,
            eviction_probes: 0,
        }
    }

    /// Opens `key` if it is not already open, else updates its LRU stamp.
    /// Returns the session's slot and whether this call opened it. Panics
    /// when the namespace is out of extents — sizing the array is the
    /// caller's contract, not a runtime condition.
    pub fn open(&mut self, key: SessionKey, now_ns: u64) -> (SessionSlot, bool) {
        let vacant = match self.by_key.entry(key) {
            Entry::Occupied(e) => {
                let slot = *e.get();
                self.update(slot, |s| s.last_use_ns = now_ns);
                return (slot, false);
            }
            Entry::Vacant(e) => e,
        };
        let i = self.slots.len() as u64;
        assert!(
            (i + 1) * self.cfg.session_blocks <= self.cfg.capacity_blocks,
            "session capacity exhausted: {} extents of {} blocks in {} total",
            i,
            self.cfg.session_blocks,
            self.cfg.capacity_blocks
        );
        let slot = SessionSlot(u32::try_from(i).expect("more than u32::MAX session extents"));
        vacant.insert(slot);
        self.slots.push(Session {
            key,
            written: 0,
            resident: 0,
            pins: 0,
            last_use_ns: now_ns,
        });
        (slot, true)
    }

    /// Applies `f` to the session and moves its eviction-index entry to
    /// match: the one place `last_use_ns`, `resident` and `pins` change.
    fn update<R>(&mut self, slot: SessionSlot, f: impl FnOnce(&mut Session) -> R) -> R {
        let s = &mut self.slots[slot.0 as usize];
        let before = s.lru_entry();
        let out = f(s);
        let after = s.lru_entry();
        if before != after {
            if let Some(e) = before {
                self.lru.remove(&e);
            }
            if let Some(e) = after {
                self.lru.insert(e, slot);
            }
        }
        out
    }

    /// Extent base, written and resident block counts of the session.
    pub fn view(&self, slot: SessionSlot) -> SessionView {
        let s = &self.slots[slot.0 as usize];
        SessionView {
            extent: u64::from(slot.0) * self.cfg.session_blocks,
            written: s.written,
            resident: s.resident,
        }
    }

    /// Appends `blocks` to the session (clamped to the extent size) and
    /// extends the resident suffix by the same amount — freshly produced
    /// KV blocks are born on the GPU. Returns the block indices appended.
    pub fn append_slot(&mut self, slot: SessionSlot, blocks: u64, now_ns: u64) -> Range<u64> {
        let limit = self.cfg.session_blocks;
        let (appended, grow) = self.update(slot, |s| {
            let start = s.written;
            let end = (s.written + blocks).min(limit);
            s.written = end;
            let grow = (s.resident + (end - start)).min(end) - s.resident;
            s.resident += grow;
            s.last_use_ns = now_ns;
            (start..end, grow)
        });
        self.resident_total += grow;
        self.enforce_budget(slot);
        appended
    }

    /// Raises the session's resident suffix to `target` blocks (clamped to
    /// what is written), evicting other sessions if the GPU budget
    /// overflows. Called when paged-in context lands on the GPU.
    pub fn mark_resident_slot(&mut self, slot: SessionSlot, target: u64, now_ns: u64) {
        let grow = self.update(slot, |s| {
            let grow = target.min(s.written).saturating_sub(s.resident);
            s.resident += grow;
            s.last_use_ns = now_ns;
            grow
        });
        if grow > 0 {
            self.resident_total += grow;
            self.enforce_budget(slot);
        }
    }

    /// Evicts LRU unpinned sessions (other than `keep`) until the resident
    /// total fits the GPU budget. An evicted session's context pages back
    /// in from SSD on its next read.
    fn enforce_budget(&mut self, keep: SessionSlot) {
        while self.resident_total > self.cfg.gpu_budget_blocks {
            // `keep` holds at most one index entry, so the victim is the
            // first or the second one, however many sessions are open.
            let victim = self.lru.values().copied().find(|&slot| {
                self.eviction_probes += 1;
                slot != keep
            });
            #[cfg(test)]
            assert_eq!(victim, self.scan_victim(keep), "LRU index out of step");
            let Some(victim) = victim else {
                // Everything left is pinned (or the protected session):
                // transiently over budget until the in-flight work retires.
                return;
            };
            self.resident_total -= self.update(victim, |s| std::mem::take(&mut s.resident));
            self.evictions += 1;
        }
    }

    /// The victim by a full scan in the index's order — the definition the
    /// index must reproduce, checked on every eviction any unit test makes.
    #[cfg(test)]
    fn scan_victim(&self, keep: SessionSlot) -> Option<SessionSlot> {
        self.slots
            .iter()
            .enumerate()
            .map(|(i, s)| (SessionSlot(i as u32), s))
            .filter(|(slot, s)| s.resident > 0 && s.pins == 0 && *slot != keep)
            .min_by_key(|(_, s)| (s.last_use_ns, s.key))
            .map(|(slot, _)| slot)
    }

    /// Pins the session against eviction while a request holds references
    /// to its extent.
    pub fn pin_slot(&mut self, slot: SessionSlot) {
        self.update(slot, |s| s.pins += 1);
    }

    /// Drops one pin.
    pub fn unpin_slot(&mut self, slot: SessionSlot) {
        self.update(slot, |s| {
            assert!(s.pins > 0, "unpin without pin");
            s.pins -= 1;
        });
    }

    /// GPU-resident blocks across all sessions.
    pub fn resident_total(&self) -> u64 {
        self.resident_total
    }

    /// Residency evictions performed so far.
    pub fn evictions(&self) -> u64 {
        self.evictions
    }

    /// Eviction-index entries inspected by all evictions so far: at most
    /// two per eviction (the protected session, then the victim), whatever
    /// the number of open or pinned sessions. The counter the work-bound
    /// test reads.
    pub fn eviction_probes(&self) -> u64 {
        self.eviction_probes
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn table(budget: u64) -> SessionTable {
        SessionTable::new(SessionConfig {
            session_blocks: 8,
            capacity_blocks: 64,
            gpu_budget_blocks: budget,
        })
    }

    #[test]
    fn extents_are_disjoint_and_reopening_keeps_the_slot() {
        let mut t = table(1000);
        let (a, opened_a) = t.open((0, 0), 1);
        let (b, opened_b) = t.open((0, 1), 2);
        assert!(opened_a && opened_b);
        assert_eq!(t.open((0, 0), 3), (a, false));
        assert_eq!(t.view(a).extent, 0);
        assert_eq!(t.view(b).extent, 8);
    }

    #[test]
    fn append_grows_written_and_residency_within_extent() {
        let mut t = table(1000);
        let (s, _) = t.open((0, 0), 1);
        assert_eq!(t.append_slot(s, 5, 1), 0..5);
        assert_eq!((t.view(s).written, t.view(s).resident), (5, 5));
        // Clamp at the extent boundary.
        assert_eq!(t.append_slot(s, 10, 2), 5..8);
        assert_eq!(t.view(s).written, 8);
        assert_eq!(t.resident_total(), 8);
    }

    #[test]
    fn budget_evicts_lru_but_never_pinned() {
        let mut t = table(12);
        let open_full = |t: &mut SessionTable, session: usize, now: u64| {
            let (s, _) = t.open((0, session), now);
            t.append_slot(s, 6, now);
            s
        };
        let a = open_full(&mut t, 0, 1);
        let b = open_full(&mut t, 1, 2);
        assert_eq!(t.resident_total(), 12);
        // Opening a third session overflows the budget: LRU (0,0) evicts.
        let c = open_full(&mut t, 2, 3);
        assert_eq!(t.view(a).resident, 0);
        assert_eq!(t.resident_total(), 12);
        assert_eq!(t.evictions(), 1);
        // Pin (0,1); it must survive the next overflow even though it is
        // now the LRU.
        t.pin_slot(b);
        open_full(&mut t, 3, 4);
        assert_eq!(t.view(b).resident, 6, "pinned session evicted");
        assert_eq!(t.view(c).resident, 0);
        t.unpin_slot(b);
    }

    /// The table as it was before the eviction index: sessions in a
    /// `BTreeMap`, extents from a bump pointer, and a full scan of every
    /// session per eviction. The reference the indexed slab must match
    /// decision for decision.
    struct ScanTable {
        cfg: SessionConfig,
        sessions: BTreeMap<SessionKey, ScanSession>,
        next_extent: u64,
        resident_total: u64,
        victims: Vec<SessionKey>,
    }

    struct ScanSession {
        extent: u64,
        written: u64,
        resident: u64,
        pins: u32,
        last_use_ns: u64,
    }

    impl ScanTable {
        fn open(&mut self, key: SessionKey, now_ns: u64) {
            if let Some(s) = self.sessions.get_mut(&key) {
                s.last_use_ns = now_ns;
                return;
            }
            let extent = self.next_extent;
            assert!(extent + self.cfg.session_blocks <= self.cfg.capacity_blocks);
            self.next_extent = extent + self.cfg.session_blocks;
            self.sessions.insert(
                key,
                ScanSession {
                    extent,
                    written: 0,
                    resident: 0,
                    pins: 0,
                    last_use_ns: now_ns,
                },
            );
        }

        fn append(&mut self, key: SessionKey, blocks: u64, now_ns: u64) -> Range<u64> {
            let limit = self.cfg.session_blocks;
            let s = self.sessions.get_mut(&key).unwrap();
            let start = s.written;
            let end = (s.written + blocks).min(limit);
            s.written = end;
            let grow = (s.resident + (end - start)).min(end) - s.resident;
            s.resident += grow;
            s.last_use_ns = now_ns;
            self.resident_total += grow;
            self.enforce_budget(key);
            start..end
        }

        fn mark_resident(&mut self, key: SessionKey, target: u64, now_ns: u64) {
            let s = self.sessions.get_mut(&key).unwrap();
            let target = target.min(s.written);
            s.last_use_ns = now_ns;
            if target > s.resident {
                self.resident_total += target - s.resident;
                s.resident = target;
                self.enforce_budget(key);
            }
        }

        fn enforce_budget(&mut self, keep: SessionKey) {
            while self.resident_total > self.cfg.gpu_budget_blocks {
                let victim = self
                    .sessions
                    .iter()
                    .filter(|(k, s)| s.resident > 0 && s.pins == 0 && **k != keep)
                    .min_by_key(|(k, s)| (s.last_use_ns, **k))
                    .map(|(k, _)| *k);
                let Some(victim) = victim else {
                    return;
                };
                let s = self.sessions.get_mut(&victim).unwrap();
                self.resident_total -= s.resident;
                s.resident = 0;
                self.victims.push(victim);
            }
        }
    }

    /// SplitMix64: a seeded stream for the op sequences.
    struct Rng(u64);

    impl Rng {
        fn below(&mut self, n: u64) -> u64 {
            self.0 = self.0.wrapping_add(0x9e37_79b9_7f4a_7c15);
            let mut z = self.0;
            z = (z ^ (z >> 30)).wrapping_mul(0xbf58_476d_1ce4_e5b9);
            z = (z ^ (z >> 27)).wrapping_mul(0x94d0_49bb_1331_11eb);
            (z ^ (z >> 31)) % n
        }
    }

    /// Drives the indexed table and the scan reference with one random op
    /// sequence, comparing everything observable after every op. Each
    /// eviction's victim is additionally checked against a scan of the
    /// indexed table's own state inside `enforce_budget`. Returns how many
    /// evictions, multi-victim ops and tie-broken evictions the sequence
    /// exercised.
    fn check_sequence(seed: u64) -> [u64; 3] {
        const TENANTS: usize = 3;
        const SESSIONS: usize = 6;
        const OPS: usize = 300;
        let mut rng = Rng(seed);
        let cfg = SessionConfig {
            session_blocks: 8,
            capacity_blocks: 8 * (TENANTS * SESSIONS) as u64,
            gpu_budget_blocks: 4 + rng.below(12),
        };
        let mut t = SessionTable::new(cfg);
        let mut m = ScanTable {
            cfg,
            sessions: BTreeMap::new(),
            next_extent: 0,
            resident_total: 0,
            victims: Vec::new(),
        };
        let mut now = 0;
        let mut covered = [0; 3];
        for op in 0..OPS {
            // A third of the ops share the previous op's instant, so LRU
            // ties (broken on the key) are routine.
            now += rng.below(3);
            let key = (
                rng.below(TENANTS as u64) as usize,
                rng.below(SESSIONS as u64) as usize,
            );
            let slot = t.by_key.get(&key).copied();
            assert_eq!(slot.is_some(), m.sessions.contains_key(&key));
            let before: Vec<_> = t
                .slots
                .iter()
                .map(|s| (s.last_use_ns, s.key, s.resident))
                .collect();
            let evicted_before = m.victims.len();
            match (rng.below(15), slot) {
                (0..=2, _) => {
                    let (opened_slot, opened) = t.open(key, now);
                    assert_eq!(opened, slot.is_none());
                    assert!(slot.is_none_or(|s| s == opened_slot));
                    m.open(key, now);
                }
                // Re-opening an open session is how its LRU stamp moves.
                (3 | 4, Some(slot)) => {
                    assert_eq!(t.open(key, now), (slot, false));
                    m.sessions.get_mut(&key).unwrap().last_use_ns = now;
                }
                (5..=8, Some(slot)) => {
                    let blocks = 1 + rng.below(5);
                    assert_eq!(t.append_slot(slot, blocks, now), m.append(key, blocks, now));
                }
                (9 | 10, Some(slot)) => {
                    let target = rng.below(10);
                    t.mark_resident_slot(slot, target, now);
                    m.mark_resident(key, target, now);
                }
                (11 | 12, Some(slot)) => {
                    t.pin_slot(slot);
                    m.sessions.get_mut(&key).unwrap().pins += 1;
                }
                (13 | 14, Some(slot)) if m.sessions[&key].pins > 0 => {
                    t.unpin_slot(slot);
                    m.sessions.get_mut(&key).unwrap().pins -= 1;
                }
                _ => {}
            }
            let ctx = format!("seed {seed} op {op}");
            // This op's victims, read off the indexed table alone:
            // sessions that lost their whole residency, in LRU order.
            let mut evicted: Vec<_> = before
                .iter()
                .zip(&t.slots)
                .filter(|((_, _, resident), s)| *resident > 0 && s.resident == 0)
                .map(|(&(last_use_ns, k, _), _)| (last_use_ns, k))
                .collect();
            evicted.sort_unstable();
            assert!(
                evicted
                    .iter()
                    .map(|&(_, k)| k)
                    .eq(m.victims[evicted_before..].iter().copied()),
                "{ctx}: evicted {evicted:?}, reference {:?}",
                &m.victims[evicted_before..]
            );
            assert_eq!(t.evictions(), m.victims.len() as u64, "{ctx}");
            covered[0] += evicted.len() as u64;
            covered[1] += u64::from(evicted.len() > 1);
            if let Some(&(victim_use_ns, _)) = evicted.first() {
                let tied = |&&(at, k, resident): &&(u64, SessionKey, u64)| {
                    at == victim_use_ns && resident > 0 && k != key
                };
                covered[2] += u64::from(before.iter().filter(tied).count() > 1);
            }
            assert_eq!(t.resident_total(), m.resident_total, "{ctx}");
            assert_eq!(t.by_key.len(), m.sessions.len(), "{ctx}");
            for (k, s) in &m.sessions {
                let view = t.view(t.by_key[k]);
                let want = SessionView {
                    extent: s.extent,
                    written: s.written,
                    resident: s.resident,
                };
                assert_eq!(view, want, "{ctx} {k:?}");
            }
            // The index holds exactly the evictable sessions.
            let mut evictable: Vec<_> = t.slots.iter().filter_map(Session::lru_entry).collect();
            evictable.sort_unstable();
            assert!(
                t.lru.keys().copied().eq(evictable),
                "{ctx}: index {:?}",
                t.lru
            );
        }
        covered
    }

    #[test]
    fn indexed_table_matches_the_scan_reference_on_1000_random_sequences() {
        let mut covered = [0; 3];
        for seed in 0..1000 {
            for (sum, n) in covered.iter_mut().zip(check_sequence(seed)) {
                *sum += n;
            }
        }
        // The sequences must really reach the cases the index could get
        // wrong, not just pass vacuously.
        let [evictions, multi_victim_ops, tied_evictions] = covered;
        assert!(evictions > 20_000, "{covered:?}");
        assert!(multi_victim_ops > 1_000, "{covered:?}");
        assert!(tied_evictions > 1_000, "{covered:?}");
    }

    /// No O(sessions) work per eviction: with 10 000 sessions open, half of
    /// them pinned and older than every unpinned one, an eviction inspects
    /// the protected session's index entry and the victim's — nothing else.
    #[test]
    fn one_eviction_inspects_at_most_two_index_entries() {
        const SESSIONS: usize = 10_000;
        let mut t = SessionTable::new(SessionConfig {
            session_blocks: 4,
            capacity_blocks: 4 * SESSIONS as u64,
            gpu_budget_blocks: SESSIONS as u64,
        });
        let slots: Vec<SessionSlot> = (0..SESSIONS)
            .map(|i| {
                let (slot, _) = t.open((0, i), i as u64);
                t.append_slot(slot, 1, i as u64);
                if i < SESSIONS / 2 {
                    t.pin_slot(slot);
                }
                slot
            })
            .collect();
        assert_eq!((t.evictions(), t.eviction_probes()), (0, 0));
        // The oldest unpinned session grows: it heads the index but is the
        // one protected, so the victim is the entry right behind it.
        let oldest_unpinned = slots[SESSIONS / 2];
        t.append_slot(oldest_unpinned, 1, SESSIONS as u64);
        assert_eq!(t.evictions(), 1);
        let behind = slots[SESSIONS / 2 + 1];
        assert_eq!(t.view(behind).resident, 0, "LRU unpinned evicts");
        assert_eq!(t.view(oldest_unpinned).resident, 2);
        assert!(t.eviction_probes() <= 2, "{} probes", t.eviction_probes());
    }
}
