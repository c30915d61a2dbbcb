//! A single set-associative cache with true-LRU replacement.

use crate::addr::Addr;

/// Geometry of one cache level (line size is globally 64 bytes).
#[derive(Copy, Clone, PartialEq, Eq, Hash, Debug)]
pub struct CacheGeometry {
    /// Number of sets (power of two).
    pub sets: usize,
    /// Associativity.
    pub ways: usize,
}

impl CacheGeometry {
    /// Total capacity in bytes.
    pub fn capacity(&self) -> usize {
        self.sets * self.ways * crate::LINE_SIZE as usize
    }
}

/// Sentinel for an empty way slot (no simulated address is line-aligned at
/// `u64::MAX`).
const EMPTY: u64 = u64::MAX;

/// Entries in a cache's most-recently-used hint table (a power of two).
const MRU_HINTS: usize = 64;

/// A line evicted to make room for a fill.
#[derive(Copy, Clone, PartialEq, Eq, Debug)]
pub struct Evicted {
    /// Line-aligned address that was evicted.
    pub line: Addr,
    /// Whether the evicted line was dirty.
    pub dirty: bool,
}

/// A set-associative, true-LRU cache over 64-byte lines.
///
/// ```
/// use smack_uarch::cache::{Cache, CacheGeometry};
/// use smack_uarch::Addr;
///
/// let mut c = Cache::new(CacheGeometry { sets: 64, ways: 8 });
/// c.insert(Addr(0x1000), false);
/// assert!(c.contains(Addr(0x1000)));
/// assert!(!c.contains(Addr(0x2000)));
/// ```
/// Storage is struct-of-arrays over fixed way slots (`set * ways + way`):
/// the tag scan — the single hottest loop in the simulator, run on every
/// fetch, load, store and probe — walks a contiguous `u64` slice the
/// compiler can unroll and vectorize, instead of chasing 24-byte entries.
/// Within a set the occupied slots form a prefix (`occ[set]` of them), so
/// lightly-filled sets — the common case right after a per-trace reset —
/// scan only the lines actually present; a full 8-way set compares all
/// its tags at once instead. LRU stamps live in a parallel array touched
/// only on a hit.
///
/// A fixed-size hint table short-circuits repeat accesses: touching a line
/// that is already the most recent in its set leaves the LRU order
/// unchanged, so [`Cache::touch_line`] skips the scan and the re-stamp, and
/// [`Cache::contains_line`] answers without scanning.
#[derive(Clone, Debug)]
pub struct Cache {
    geom: CacheGeometry,
    /// Line-aligned address per way slot; only the first `occ[set]` slots
    /// of each set are meaningful, the rest hold [`EMPTY`].
    lines: Vec<u64>,
    /// LRU stamp per way slot; larger is more recent, unique per cache.
    stamps: Vec<u64>,
    /// Dirty bit per way slot.
    dirty: Vec<bool>,
    /// Number of occupied way slots per set.
    occ: Vec<u8>,
    clock: u64,
    /// Direct-mapped by [`Cache::hint_of`] of the set index: the line most
    /// recently stamped in any set mapping to the entry, or [`EMPTY`].
    /// Every stamp writes its set's entry and every removal of the hinted
    /// line clears it, so a hinted line is present and the most recent in
    /// its own set.
    mru: [u64; MRU_HINTS],
}

impl Cache {
    /// Create an empty cache with the given geometry.
    ///
    /// # Panics
    ///
    /// Panics if `sets` is not a power of two or `ways` is zero.
    pub fn new(geom: CacheGeometry) -> Cache {
        assert!(geom.sets.is_power_of_two(), "sets must be a power of two");
        assert!(geom.ways > 0, "ways must be nonzero");
        assert!(geom.ways <= u8::MAX as usize, "way count fits the occupancy array");
        let slots = geom.sets * geom.ways;
        Cache {
            geom,
            lines: vec![EMPTY; slots],
            stamps: vec![0; slots],
            dirty: vec![false; slots],
            occ: vec![0; geom.sets],
            clock: 0,
            mru: [EMPTY; MRU_HINTS],
        }
    }

    /// Geometry of this cache.
    pub fn geometry(&self) -> CacheGeometry {
        self.geom
    }

    fn set_of(&self, addr: Addr) -> usize {
        addr.set_index(self.geom.sets)
    }

    /// Hint-table entry of a set: the identity for caches of at most
    /// [`MRU_HINTS`] sets, a fold of the higher set bits beyond that (so
    /// the same offset in consecutive pages lands on distinct entries).
    #[inline]
    fn hint_of(set: usize) -> usize {
        (set ^ (set >> 6) ^ (set >> 12)) & (MRU_HINTS - 1)
    }

    /// Range of *occupied* way-slot indices of set `set`.
    #[inline]
    fn slots_in(&self, set: usize) -> std::ops::Range<usize> {
        let base = set * self.geom.ways;
        base..base + usize::from(self.occ[set])
    }

    /// Slot index holding `line` in set `set`, if present.
    ///
    /// A set holding eight lines — a full set of the 8-way L1s, where an
    /// eviction set keeps its ways — compares all eight tags into a mask.
    /// Its lines are distinct, so the mask has at most the bit of the
    /// line's slot, and no branch depends on where a scan would stop: the
    /// ways of an eviction set take turns as the most recent line, so the
    /// hint rarely answers and a scan's exit branch mispredicts. Any other
    /// set scans its occupied prefix, which is short in the lightly filled
    /// sets of a lone attacker, where the mask measured slower.
    #[inline(always)]
    fn find(&self, set: usize, line: u64) -> Option<usize> {
        let base = set * self.geom.ways;
        let occupied = &self.lines[base..base + usize::from(self.occ[set])];
        if let Ok(tags) = <&[u64; 8]>::try_from(occupied) {
            let mask =
                tags.iter().enumerate().fold(0u32, |m, (w, &l)| m | (u32::from(l == line) << w));
            return (mask != 0).then(|| base + mask.trailing_zeros() as usize);
        }
        occupied.iter().position(|&l| l == line).map(|w| base + w)
    }

    /// Whether the line containing `addr` is present.
    #[inline]
    pub fn contains(&self, addr: Addr) -> bool {
        self.contains_line(addr.line())
    }

    /// [`Cache::contains`] for an already line-aligned address. The
    /// `*_line` variants let the hierarchy resolve an access's line mask
    /// once and share it across all four levels instead of re-masking in
    /// every call — the tag-scan loops themselves are unchanged.
    #[inline(always)]
    pub fn contains_line(&self, line: Addr) -> bool {
        debug_assert_eq!(line.line(), line, "caller resolves the line mask");
        let set = self.set_of(line);
        self.mru[Self::hint_of(set)] == line.0 || self.find(set, line.0).is_some()
    }

    /// Whether the line-aligned `line` is the hinted most recent line of
    /// its set — the case in which [`Cache::touch_line`] changes nothing.
    #[inline]
    pub fn is_hinted_mru(&self, line: Addr) -> bool {
        self.mru[Self::hint_of(self.set_of(line))] == line.0
    }

    /// The hint-table entry of `line`'s set. The lines of one set share
    /// its entry, so two lines whose entries differ share no set, and an
    /// access to one cannot change whether the other is
    /// [`Cache::is_hinted_mru`].
    #[inline]
    pub(crate) fn hint_entry(&self, line: Addr) -> usize {
        Self::hint_of(self.set_of(line))
    }

    /// Whether the line containing `addr` is present and dirty.
    pub fn is_dirty(&self, addr: Addr) -> bool {
        self.find(self.set_of(addr), addr.line().0).is_some_and(|i| self.dirty[i])
    }

    /// Mark the line as most-recently-used. Returns `true` if it was present.
    #[inline]
    pub fn touch(&mut self, addr: Addr) -> bool {
        self.touch_line(addr.line())
    }

    /// [`Cache::touch`] for an already line-aligned address.
    #[inline(always)]
    pub fn touch_line(&mut self, line: Addr) -> bool {
        debug_assert_eq!(line.line(), line, "caller resolves the line mask");
        let set = self.set_of(line);
        let hint = Self::hint_of(set);
        if self.mru[hint] == line.0 {
            return true;
        }
        self.clock += 1;
        match self.find(set, line.0) {
            Some(i) => {
                self.stamps[i] = self.clock;
                self.mru[hint] = line.0;
                true
            }
            None => false,
        }
    }

    /// [`Cache::touch_line`] of a line the caller knows is present, and
    /// set its dirty bit — a store's hit — in one scan. The hint check
    /// still skips the re-stamp of the set's most recent line.
    ///
    /// # Panics
    ///
    /// Panics if the line is absent.
    #[inline]
    pub(crate) fn touch_dirty_line(&mut self, line: Addr) {
        debug_assert_eq!(line.line(), line, "caller resolves the line mask");
        let set = self.set_of(line);
        let i = self.find(set, line.0).expect("the caller knows the line is present");
        let hint = Self::hint_of(set);
        if self.mru[hint] != line.0 {
            self.clock += 1;
            self.stamps[i] = self.clock;
            self.mru[hint] = line.0;
        }
        self.dirty[i] = true;
    }

    /// Insert (fill) the line containing `addr`, evicting the LRU way if the
    /// set is full. Touching an already-present line updates LRU and ORs in
    /// the dirty bit.
    pub fn insert(&mut self, addr: Addr, dirty: bool) -> Option<Evicted> {
        self.insert_line(addr.line(), dirty)
    }

    /// [`Cache::insert`] for an already line-aligned address.
    pub fn insert_line(&mut self, line: Addr, dirty: bool) -> Option<Evicted> {
        debug_assert_eq!(line.line(), line, "caller resolves the line mask");
        let set = self.set_of(line);
        match self.find(set, line.0) {
            Some(i) => {
                self.clock += 1;
                self.stamps[i] = self.clock;
                self.dirty[i] |= dirty;
                self.mru[Self::hint_of(set)] = line.0;
                None
            }
            None => self.fill(set, line.0, dirty),
        }
    }

    /// [`Cache::insert_line`] of a line the caller knows is absent — a
    /// [`Cache::touch_line`] just missed it and nothing has filled its set
    /// since — without the presence scan.
    pub(crate) fn insert_absent_line(&mut self, line: Addr, dirty: bool) -> Option<Evicted> {
        debug_assert!(!self.contains_line(line), "the caller knows the line is absent");
        self.fill(self.set_of(line), line.0, dirty)
    }

    /// Fill the absent line-aligned `line` into set `set` as its most
    /// recent line, evicting the LRU way if the set is full.
    #[inline]
    fn fill(&mut self, set: usize, line: u64, dirty: bool) -> Option<Evicted> {
        self.clock += 1;
        let stamp = self.clock;
        let slots = self.slots_in(set);
        self.mru[Self::hint_of(set)] = line;
        // Append into the free suffix if any, else replace the
        // (unique-stamped) LRU victim.
        let (slot, evicted) = if usize::from(self.occ[set]) < self.geom.ways {
            self.occ[set] += 1;
            (slots.end, None)
        } else {
            let victim =
                slots.clone().min_by_key(|&i| self.stamps[i]).expect("set is full, so nonempty");
            let ev = Evicted { line: Addr(self.lines[victim]), dirty: self.dirty[victim] };
            (victim, Some(ev))
        };
        self.lines[slot] = line;
        self.stamps[slot] = stamp;
        self.dirty[slot] = dirty;
        evicted
    }

    /// Set the dirty bit on a present line-aligned `line`. Returns `true`
    /// if present.
    #[cfg(test)]
    pub(crate) fn mark_dirty_line(&mut self, line: Addr) -> bool {
        debug_assert_eq!(line.line(), line, "caller resolves the line mask");
        match self.find(self.set_of(line), line.0) {
            Some(i) => {
                self.dirty[i] = true;
                true
            }
            None => false,
        }
    }

    /// Clear the dirty bit on a present line (write-back). Returns `true`
    /// if the line was present and dirty.
    pub fn clean(&mut self, addr: Addr) -> bool {
        self.clean_line(addr.line())
    }

    /// [`Cache::clean`] for an already line-aligned address.
    pub fn clean_line(&mut self, line: Addr) -> bool {
        debug_assert_eq!(line.line(), line, "caller resolves the line mask");
        match self.find(self.set_of(line), line.0) {
            Some(i) => {
                let was = self.dirty[i];
                self.dirty[i] = false;
                was
            }
            None => false,
        }
    }

    /// Remove the line containing `addr`. Returns the evicted entry if it
    /// was present.
    pub fn invalidate(&mut self, addr: Addr) -> Option<Evicted> {
        self.invalidate_line(addr.line())
    }

    /// [`Cache::invalidate`] for an already line-aligned address.
    pub fn invalidate_line(&mut self, line: Addr) -> Option<Evicted> {
        debug_assert_eq!(line.line(), line, "caller resolves the line mask");
        let line = line.0;
        let set = self.set_of(Addr(line));
        match self.find(set, line) {
            Some(i) => {
                let ev = Evicted { line: Addr(self.lines[i]), dirty: self.dirty[i] };
                // Keep the occupied prefix dense: move the last occupied
                // slot into the hole (slot order carries no meaning — LRU
                // is decided purely by the unique stamps).
                let last = self.slots_in(set).end - 1;
                self.lines[i] = self.lines[last];
                self.stamps[i] = self.stamps[last];
                self.dirty[i] = self.dirty[last];
                self.lines[last] = EMPTY;
                self.occ[set] -= 1;
                let hint = &mut self.mru[Self::hint_of(set)];
                if *hint == line {
                    *hint = EMPTY;
                }
                Some(ev)
            }
            None => None,
        }
    }

    /// Invalidate every line (e.g. `wbinvd`).
    pub fn flush_all(&mut self) {
        self.lines.fill(EMPTY);
        self.occ.fill(0);
        self.mru = [EMPTY; MRU_HINTS];
    }

    /// Lines currently resident in set `set`, in no particular order.
    /// Borrows instead of allocating — callers that need a `Vec` collect
    /// explicitly; diagnostic sweeps over many sets stay allocation-free.
    pub fn lines_in_set(&self, set: usize) -> impl Iterator<Item = Addr> + '_ {
        let base = set * self.geom.ways;
        self.lines[base..base + usize::from(self.occ[set])].iter().map(|&l| Addr(l))
    }

    /// Number of valid lines across all sets.
    pub fn occupancy(&self) -> usize {
        self.occ.iter().map(|&n| usize::from(n)).sum()
    }

    /// The least-recently-used line in `set`, if the set is nonempty.
    pub fn lru_line(&self, set: usize) -> Option<Addr> {
        let base = set * self.geom.ways;
        (base..base + usize::from(self.occ[set]))
            .min_by_key(|&i| self.stamps[i])
            .map(|i| Addr(self.lines[i]))
    }

    /// The lines of set `set` with their dirty bits, least recent first.
    #[cfg(test)]
    pub(crate) fn lru_order(&self, set: usize) -> Vec<(Addr, bool)> {
        let mut slots: Vec<usize> = self.slots_in(set).collect();
        slots.sort_by_key(|&i| self.stamps[i]);
        slots.into_iter().map(|i| (Addr(self.lines[i]), self.dirty[i])).collect()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn small() -> Cache {
        Cache::new(CacheGeometry { sets: 4, ways: 2 })
    }

    #[test]
    fn insert_and_contains() {
        let mut c = small();
        assert!(c.insert(Addr(0), false).is_none());
        assert!(c.contains(Addr(0)));
        assert!(c.contains(Addr(63))); // same line
        assert!(!c.contains(Addr(64))); // next line
    }

    #[test]
    fn lru_eviction_order() {
        let mut c = small();
        // Set 0 lines for a 4-set cache: stride = 4 * 64 = 256 bytes.
        c.insert(Addr(0), false);
        c.insert(Addr(256), false);
        c.touch(Addr(0)); // 256 is now LRU
        let ev = c.insert(Addr(512), false).expect("eviction");
        assert_eq!(ev.line, Addr(256));
        assert!(c.contains(Addr(0)));
        assert!(c.contains(Addr(512)));
    }

    #[test]
    fn dirty_bit_propagates_through_eviction() {
        let mut c = small();
        c.insert(Addr(0), true);
        c.insert(Addr(256), false);
        let ev = c.insert(Addr(512), false).unwrap();
        assert_eq!(ev, Evicted { line: Addr(0), dirty: true });
    }

    #[test]
    fn reinsert_ors_dirty() {
        let mut c = small();
        c.insert(Addr(0), false);
        c.insert(Addr(0), true);
        assert!(c.is_dirty(Addr(0)));
        assert!(c.clean(Addr(0)));
        assert!(!c.is_dirty(Addr(0)));
        assert!(c.contains(Addr(0)));
    }

    #[test]
    fn invalidate_removes() {
        let mut c = small();
        c.insert(Addr(64), true);
        let ev = c.invalidate(Addr(64)).unwrap();
        assert!(ev.dirty);
        assert!(!c.contains(Addr(64)));
        assert!(c.invalidate(Addr(64)).is_none());
    }

    #[test]
    fn occupancy_counts() {
        let mut c = small();
        for i in 0..8u64 {
            c.insert(Addr(i * 64), false);
        }
        assert_eq!(c.occupancy(), 8);
        c.flush_all();
        assert_eq!(c.occupancy(), 0);
    }

    #[test]
    fn set_isolation() {
        let mut c = small();
        // Fill set 0 beyond capacity; set 1 must be untouched.
        c.insert(Addr(0), false);
        c.insert(Addr(256), false);
        c.insert(Addr(512), false);
        c.insert(Addr(64), false); // set 1
        assert!(c.contains(Addr(64)));
        assert_eq!(c.lines_in_set(1).collect::<Vec<_>>(), vec![Addr(64)]);
        assert_eq!(c.occupancy(), 3);
    }

    /// The true-LRU cache without the most-recent hints: each set keeps
    /// its lines in recency order (least recent first) and every touch
    /// moves its line to the back.
    struct StampEveryTouch {
        sets: Vec<Vec<(u64, bool)>>,
        ways: usize,
    }

    impl StampEveryTouch {
        fn set(&mut self, line: u64) -> &mut Vec<(u64, bool)> {
            let n = self.sets.len();
            &mut self.sets[Addr(line).set_index(n)]
        }

        fn touch(&mut self, line: u64) -> bool {
            let set = self.set(line);
            match set.iter().position(|e| e.0 == line) {
                Some(i) => {
                    let e = set.remove(i);
                    set.push(e);
                    true
                }
                None => false,
            }
        }

        fn insert(&mut self, line: u64, dirty: bool) -> Option<Evicted> {
            let ways = self.ways;
            let set = self.set(line);
            if let Some(i) = set.iter().position(|e| e.0 == line) {
                let (l, d) = set.remove(i);
                set.push((l, d | dirty));
                return None;
            }
            let ev = (set.len() == ways).then(|| {
                let (l, d) = set.remove(0);
                Evicted { line: Addr(l), dirty: d }
            });
            set.push((line, dirty));
            ev
        }

        fn invalidate(&mut self, line: u64) -> Option<Evicted> {
            let set = self.set(line);
            let i = set.iter().position(|e| e.0 == line)?;
            let (l, d) = set.remove(i);
            Some(Evicted { line: Addr(l), dirty: d })
        }
    }

    /// Short-circuiting touches and lookups of each set's most recent line
    /// through the fixed hint table (which aliases sets once a cache has
    /// more than `MRU_HINTS` of them) leaves every hit, eviction victim and
    /// LRU order exactly as re-stamping on every touch has them — on the
    /// prefix scan and on the full 8-way set compare.
    #[test]
    fn mru_hints_match_stamp_every_touch() {
        let geoms = [
            CacheGeometry { sets: 64, ways: 2 },
            CacheGeometry { sets: 256, ways: 4 },
            CacheGeometry { sets: 64, ways: 8 },
        ];
        for geom in geoms {
            let mut c = Cache::new(geom);
            let mut reference =
                StampEveryTouch { sets: vec![Vec::new(); geom.sets], ways: geom.ways };
            let stride = (geom.sets * 64) as u64;
            let mut x = 0x2545_f491_4f6c_dd1du64;
            let tags = (geom.ways as u64 + 2).max(6);
            let mut last = 0u64;
            for i in 0..20_000 {
                x ^= x << 13;
                x ^= x >> 7;
                x ^= x << 17;
                // A few sets (two of them aliasing in the hint table) and
                // more tags than ways; the previous line half the time.
                let set = [0u64, 1, 64, 65, 3][(x % 5) as usize];
                let line =
                    if (x >> 3) & 1 == 0 { last } else { set * 64 + ((x >> 4) % tags) * stride };
                last = line;
                if i % 1000 == 999 {
                    c.flush_all();
                    reference.sets.iter_mut().for_each(Vec::clear);
                }
                match (x >> 8) % 8 {
                    0..=2 => assert_eq!(c.touch(Addr(line)), reference.touch(line), "touch {i}"),
                    3 | 4 => {
                        let dirty = (x >> 12) & 1 == 0;
                        assert_eq!(c.insert(Addr(line), dirty), reference.insert(line, dirty));
                    }
                    5 => assert_eq!(c.invalidate(Addr(line)), reference.invalidate(line)),
                    _ => {
                        let present = reference.set(line).iter().any(|e| e.0 == line);
                        assert_eq!(c.contains(Addr(line)), present, "contains {i}");
                    }
                }
                for s in [0usize, 1, 3, 64, 65].map(|s| s % geom.sets) {
                    let lru = reference.sets[s].first().map(|e| Addr(e.0));
                    assert_eq!(c.lru_line(s), lru, "set {s} LRU after op {i}");
                }
            }
        }
    }
}
