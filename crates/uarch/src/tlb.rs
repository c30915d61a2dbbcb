//! A small fully-associative LRU translation lookaside buffer.
//!
//! SMaCk's oracle preparation (Listing 1) warms the TLB entry for the oracle
//! page before timing anything, precisely so that page walks do not pollute
//! the measurements; modeling the TLB lets the reproduction show why that
//! step matters.

use crate::addr::Addr;

/// Entries in a TLB's slot-hint table (a power of two).
const SLOT_HINTS: usize = 64;

/// A fully-associative LRU TLB over 4 KiB pages.
///
/// Lookups go through a fixed-size hint table mapping each page (by its low
/// page-number bits) to the entry slot that last held it, validated on use,
/// so a hit costs one probe instead of a scan; and re-touching the most
/// recent page skips the re-stamp, which leaves the LRU order unchanged.
///
/// ```
/// use smack_uarch::tlb::Tlb;
/// use smack_uarch::Addr;
///
/// let mut t = Tlb::new(4);
/// assert!(!t.access(Addr(0x1000)));
/// assert!(t.access(Addr(0x1fff))); // same page
/// ```
#[derive(Clone, Debug)]
pub struct Tlb {
    capacity: usize,
    entries: Vec<(u64, u64)>, // (page, stamp)
    clock: u64,
    /// Index of the most recently used entry (stale only while `entries`
    /// is empty, when it indexes nothing).
    mru: usize,
    /// Per page-number bucket, the entry slot that last held a page of the
    /// bucket; a hint only — entries move on eviction, so every use checks
    /// the slot's page.
    slots: [u32; SLOT_HINTS],
}

impl Tlb {
    /// Create a TLB holding `capacity` page translations.
    ///
    /// # Panics
    ///
    /// Panics if `capacity` is zero.
    pub fn new(capacity: usize) -> Tlb {
        assert!(capacity > 0, "TLB capacity must be nonzero");
        Tlb {
            capacity,
            entries: Vec::with_capacity(capacity),
            clock: 0,
            mru: 0,
            slots: [0; SLOT_HINTS],
        }
    }

    /// Access the page containing `addr`. Returns `true` on a TLB hit;
    /// on a miss the translation is installed (evicting LRU if full).
    #[inline]
    pub fn access(&mut self, addr: Addr) -> bool {
        let page = addr.page().0;
        let bucket = (page / crate::PAGE_SIZE) as usize % SLOT_HINTS;
        let hinted = self.slots[bucket] as usize;
        let slot = match self.entries.get(hinted) {
            Some(e) if e.0 == page => Some(hinted),
            _ => self.entries.iter().position(|e| e.0 == page),
        };
        if let Some(i) = slot {
            self.slots[bucket] = i as u32;
            if i != self.mru {
                self.clock += 1;
                self.entries[i].1 = self.clock;
                self.mru = i;
            }
            return true;
        }
        self.clock += 1;
        let stamp = self.clock;
        if self.entries.len() >= self.capacity {
            let (idx, _) = self
                .entries
                .iter()
                .enumerate()
                .min_by_key(|(_, e)| e.1)
                .expect("full TLB is nonempty");
            self.entries.swap_remove(idx);
        }
        self.mru = self.entries.len();
        self.slots[bucket] = self.mru as u32;
        self.entries.push((page, stamp));
        false
    }

    /// Whether [`Tlb::access`] of `addr` would be a hit that changes
    /// nothing: its page sits in the hinted slot, which is also the most
    /// recently used entry.
    #[inline]
    pub fn hit_is_quiet(&self, addr: Addr) -> bool {
        let page = addr.page().0;
        let hinted = self.slots[(page / crate::PAGE_SIZE) as usize % SLOT_HINTS] as usize;
        hinted == self.mru && self.entries.get(hinted).is_some_and(|e| e.0 == page)
    }

    /// Whether the page containing `addr` is currently mapped (no side
    /// effects).
    pub fn contains(&self, addr: Addr) -> bool {
        let page = addr.page().0;
        self.entries.iter().any(|e| e.0 == page)
    }

    /// Drop all translations.
    pub fn flush(&mut self) {
        self.entries.clear();
    }

    /// Number of resident translations.
    pub fn occupancy(&self) -> usize {
        self.entries.len()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn hit_after_install() {
        let mut t = Tlb::new(2);
        assert!(!t.access(Addr(0)));
        assert!(t.access(Addr(100)));
    }

    #[test]
    fn lru_eviction() {
        let mut t = Tlb::new(2);
        t.access(Addr(0x0000));
        t.access(Addr(0x1000));
        t.access(Addr(0x0000)); // 0x1000 is LRU
        t.access(Addr(0x2000)); // evicts 0x1000
        assert!(t.contains(Addr(0x0000)));
        assert!(!t.contains(Addr(0x1000)));
        assert!(t.contains(Addr(0x2000)));
    }

    /// The LRU TLB without the most-recent short-circuit: every access
    /// scans and re-stamps.
    struct StampEveryAccess {
        capacity: usize,
        entries: Vec<(u64, u64)>,
        clock: u64,
    }

    impl StampEveryAccess {
        fn access(&mut self, page: u64) -> bool {
            self.clock += 1;
            if let Some(e) = self.entries.iter_mut().find(|e| e.0 == page) {
                e.1 = self.clock;
                return true;
            }
            if self.entries.len() >= self.capacity {
                let lru = (0..self.entries.len()).min_by_key(|&i| self.entries[i].1).unwrap();
                self.entries.swap_remove(lru);
            }
            self.entries.push((page, self.clock));
            false
        }
    }

    /// Hinted lookups and skipping the re-stamp of the most recent page
    /// leave every hit, miss and eviction as the scan-and-stamp-every-access
    /// TLB has them, through runs of repeats, cycling working sets, pages
    /// sharing a hint bucket, and flushes.
    #[test]
    fn mru_short_circuit_matches_stamp_every_access() {
        for capacity in [1, 2, 4] {
            let mut t = Tlb::new(capacity);
            let mut reference = StampEveryAccess { capacity, entries: Vec::new(), clock: 0 };
            let mut x = 0x9e37_79b9_7f4a_7c15u64;
            for i in 0..5000 {
                x ^= x << 13;
                x ^= x >> 7;
                x ^= x << 17;
                if i % 997 == 0 {
                    t.flush();
                    reference.entries.clear();
                }
                // A cycling working set half the time; pages 64 apart share
                // a hint bucket.
                let page = if x & 1 == 0 { (x >> 8) % 7 } else { i % 7 } * 32;
                assert_eq!(t.access(Addr(page * 4096)), reference.access(page), "access {i}");
                for p in (0..7).map(|p| p * 32) {
                    let resident = reference.entries.iter().any(|e| e.0 == p);
                    assert_eq!(t.contains(Addr(p * 4096)), resident, "page {p} after {i}");
                }
            }
        }
    }

    #[test]
    fn flush_empties() {
        let mut t = Tlb::new(2);
        t.access(Addr(0));
        t.flush();
        assert_eq!(t.occupancy(), 0);
        assert!(!t.access(Addr(0)));
    }
}
