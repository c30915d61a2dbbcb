//! The four-level cache hierarchy: split L1 (instruction + data), unified
//! L2, and an inclusive last-level cache.
//!
//! Key modeling choices, and the attack behaviour each one produces:
//!
//! * **Inclusive LLC** — evicting an LLC line back-invalidates it from L1i,
//!   L1d and L2, which is what lets cross-core eviction matter. L2 is
//!   non-inclusive of L1.
//! * **Instruction fetches hide most of the L2 latency** behind the
//!   next-line prefetcher, so an L1i miss that hits L2 costs only a couple
//!   of cycles more than an L1i hit. This reproduces the paper's
//!   observation that Mastik's execute-probe sees a 1–2 cycle L1i/L2 gap
//!   (§4.1), which is why classic L1i Prime+Probe is noisy.
//! * **Stores invalidate L1i copies** (an instruction cache never holds a
//!   modified line), which is the hook the SMC detection unit observes.

use crate::addr::Addr;
use crate::cache::{Cache, CacheGeometry, Evicted};

/// The hierarchy level where an access hit.
#[derive(Copy, Clone, PartialEq, Eq, Hash, Debug)]
pub enum Level {
    /// L1 instruction cache.
    L1i,
    /// L1 data cache.
    L1d,
    /// Unified second-level cache.
    L2,
    /// Last-level cache.
    Llc,
    /// Main memory.
    Dram,
}

/// Which caches currently hold a given line.
#[derive(Copy, Clone, PartialEq, Eq, Debug, Default)]
pub struct Residency {
    /// Present in the L1 instruction cache.
    pub l1i: bool,
    /// Present in the L1 data cache.
    pub l1d: bool,
    /// Present in L2.
    pub l2: bool,
    /// Present in the LLC.
    pub llc: bool,
}

impl Residency {
    /// Level a *data-side* access would hit.
    pub fn data_level(&self) -> Level {
        if self.l1d {
            Level::L1d
        } else if self.l2 {
            Level::L2
        } else if self.llc {
            Level::Llc
        } else {
            Level::Dram
        }
    }

    /// Present in any cache level.
    pub fn cached_anywhere(&self) -> bool {
        self.l1i || self.l1d || self.l2 || self.llc
    }
}

/// Static configuration of the hierarchy.
#[derive(Copy, Clone, PartialEq, Eq, Hash, Debug)]
pub struct HierarchyConfig {
    /// L1 instruction cache geometry.
    pub l1i: CacheGeometry,
    /// L1 data cache geometry.
    pub l1d: CacheGeometry,
    /// L2 geometry.
    pub l2: CacheGeometry,
    /// LLC geometry.
    pub llc: CacheGeometry,
    /// Data-load latency on an L1d hit.
    pub lat_l1d: u32,
    /// Data latency on an L2 hit.
    pub lat_l2: u32,
    /// Data latency on an LLC hit.
    pub lat_llc: u32,
    /// Data latency for DRAM.
    pub lat_dram: u32,
    /// Extra instruction-fetch cycles when the fetch hits L2
    /// (mostly hidden by the next-line prefetcher).
    pub ifetch_extra_l2: u32,
    /// Extra instruction-fetch cycles when the fetch hits the LLC.
    pub ifetch_extra_llc: u32,
    /// Extra instruction-fetch cycles when the fetch goes to DRAM.
    pub ifetch_extra_dram: u32,
    /// Whether the front-end next-line prefetcher is enabled.
    pub next_line_prefetch: bool,
}

impl HierarchyConfig {
    /// A 32 KiB / 8-way split L1, 1 MiB L2, 16 MiB LLC Intel-like hierarchy.
    pub fn intel_like() -> HierarchyConfig {
        HierarchyConfig {
            l1i: CacheGeometry { sets: 64, ways: 8 },
            l1d: CacheGeometry { sets: 64, ways: 8 },
            l2: CacheGeometry { sets: 1024, ways: 16 },
            llc: CacheGeometry { sets: 8192, ways: 16 },
            lat_l1d: 4,
            lat_l2: 14,
            lat_llc: 50,
            lat_dram: 250,
            ifetch_extra_l2: 2,
            ifetch_extra_llc: 25,
            ifetch_extra_dram: 220,
            next_line_prefetch: true,
        }
    }
}

/// A set of cache hint entries ([`CacheHierarchy::fetch_footprint`]): one
/// bit per most-recently-used hint entry of the L1i, L2 and LLC. Accesses
/// confined to one footprint cannot stamp, fill or evict in a set of a
/// disjoint one, nor change which line its hint entries name.
#[derive(Copy, Clone, PartialEq, Eq, Debug, Default)]
pub(crate) struct Footprint([u64; 3]);

impl Footprint {
    /// The empty footprint.
    pub(crate) const NONE: Footprint = Footprint([0; 3]);

    /// Whether the two footprints share an entry at any level.
    #[inline]
    pub(crate) fn overlaps(self, other: Footprint) -> bool {
        self.0.iter().zip(other.0).any(|(a, b)| a & b != 0)
    }
}

impl std::ops::BitOr for Footprint {
    type Output = Footprint;

    fn bitor(self, other: Footprint) -> Footprint {
        Footprint([self.0[0] | other.0[0], self.0[1] | other.0[1], self.0[2] | other.0[2]])
    }
}

/// Outcome of a data read/write or prefetch.
#[derive(Copy, Clone, PartialEq, Eq, Debug)]
pub struct AccessInfo {
    /// Level the access hit (before filling).
    pub level: Level,
    /// Data-side latency in cycles for that level.
    pub latency: u32,
    /// Whether the line was resident in L1i before the access.
    pub was_in_l1i: bool,
}

/// Outcome of a `clflush`-style invalidation.
#[derive(Copy, Clone, PartialEq, Eq, Debug)]
pub struct FlushInfo {
    /// Whether the line was cached anywhere before the flush.
    pub was_cached: bool,
    /// Whether the line was in L1i before the flush.
    pub was_in_l1i: bool,
    /// Whether a dirty copy had to be written back.
    pub wrote_back: bool,
}

/// The split-L1 / L2 / inclusive-LLC hierarchy.
#[derive(Clone, Debug)]
pub struct CacheHierarchy {
    cfg: HierarchyConfig,
    l1i: Cache,
    l1d: Cache,
    l2: Cache,
    llc: Cache,
}

impl CacheHierarchy {
    /// Create an empty hierarchy.
    pub fn new(cfg: HierarchyConfig) -> CacheHierarchy {
        CacheHierarchy {
            cfg,
            l1i: Cache::new(cfg.l1i),
            l1d: Cache::new(cfg.l1d),
            l2: Cache::new(cfg.l2),
            llc: Cache::new(cfg.llc),
        }
    }

    /// Configuration this hierarchy was built with.
    pub fn config(&self) -> &HierarchyConfig {
        &self.cfg
    }

    /// Invalidate every line in every level, keeping the per-set storage
    /// allocated. A cleared hierarchy behaves exactly like a freshly built
    /// one: LRU decisions only ever compare stamps of co-resident lines.
    pub fn clear(&mut self) {
        for c in [&mut self.l1i, &mut self.l1d, &mut self.l2, &mut self.llc] {
            c.flush_all();
        }
    }

    /// Where is this line cached right now? (Non-mutating.)
    pub fn residency(&self, addr: Addr) -> Residency {
        let line = addr.line();
        Residency {
            l1i: self.l1i.contains_line(line),
            l1d: self.l1d.contains_line(line),
            l2: self.l2.contains_line(line),
            llc: self.llc.contains_line(line),
        }
    }

    /// Data latency for a hierarchy level.
    pub fn latency_of(&self, level: Level) -> u32 {
        match level {
            Level::L1i | Level::L1d => self.cfg.lat_l1d,
            Level::L2 => self.cfg.lat_l2,
            Level::Llc => self.cfg.lat_llc,
            Level::Dram => self.cfg.lat_dram,
        }
    }

    /// Extra instruction-fetch cycles for a miss serviced at `level`.
    pub fn ifetch_extra(&self, level: Level) -> u32 {
        match level {
            Level::L1i => 0,
            Level::L1d | Level::L2 => self.cfg.ifetch_extra_l2,
            Level::Llc => self.cfg.ifetch_extra_llc,
            Level::Dram => self.cfg.ifetch_extra_dram,
        }
    }

    fn back_invalidate(&mut self, ev: Option<Evicted>) {
        // Inclusive LLC: anything leaving the LLC leaves the core entirely.
        if let Some(ev) = ev {
            self.l1i.invalidate_line(ev.line);
            self.l1d.invalidate_line(ev.line);
            self.l2.invalidate_line(ev.line);
        }
    }

    /// Fill L2 and the LLC. `line` is line-aligned (all internal callers
    /// resolve the mask exactly once per access).
    fn fill_shared(&mut self, line: Addr) {
        let ev = self.llc.insert_line(line, false);
        self.back_invalidate(ev);
        self.l2.insert_line(line, false);
    }

    /// Instruction fetch of the line containing `addr`; fills L1i/L2/LLC.
    /// Returns the pre-fill hit level.
    ///
    /// The presence probes are folded into the LRU `touch` calls (which
    /// report presence): every cache keeps its own monotonic stamp clock,
    /// so the extra clock increments on missing levels change only
    /// absolute stamp values, never the relative recency order — eviction
    /// decisions, and therefore all observable behavior, are bit-identical
    /// to the probe-then-touch formulation at half the set scans.
    pub fn fetch(&mut self, addr: Addr) -> AccessInfo {
        let line = addr.line();
        let in_l1i = self.l1i.touch_line(line);
        let in_l2 = self.l2.touch_line(line);
        let in_llc = self.llc.touch_line(line);
        let level = if in_l1i {
            Level::L1i
        } else if in_l2 {
            Level::L2
        } else if in_llc {
            Level::Llc
        } else {
            Level::Dram
        };
        if !in_l1i {
            self.fill_shared(line);
            self.l1i.insert_line(line, false);
        }
        AccessInfo { level, latency: self.ifetch_extra(level), was_in_l1i: in_l1i }
    }

    /// The front-end's instruction fetch of a line-aligned `line`:
    /// [`CacheHierarchy::fetch`], then, when the next-line prefetcher is
    /// configured, the silent [`CacheHierarchy::prefetch_ifetch`] of the
    /// line after it. Returns the fetch's pre-fill hit level.
    #[inline]
    pub fn front_end_fetch(&mut self, line: u64) -> AccessInfo {
        let info = self.fetch(Addr(line));
        if self.cfg.next_line_prefetch {
            self.prefetch_ifetch(Addr(line + crate::LINE_SIZE));
        }
        info
    }

    /// Whether [`CacheHierarchy::front_end_fetch`] of a line-aligned
    /// `line` would change no state: the line is the hinted most recent
    /// line of its set in the L1i, L2 and LLC (every touch
    /// short-circuits), and the next-line prefetch target, when the
    /// prefetcher is on, is already in L2 or the LLC. Such a fetch hits
    /// the L1i at no extra cost, so any number of them may be elided.
    #[inline(always)]
    pub fn front_end_fetch_is_quiet(&self, line: u64) -> bool {
        let next = Addr(line + crate::LINE_SIZE);
        self.l1i.is_hinted_mru(Addr(line))
            && self.l2.is_hinted_mru(Addr(line))
            && self.llc.is_hinted_mru(Addr(line))
            && (!self.cfg.next_line_prefetch
                || self.l2.contains_line(next)
                || self.llc.contains_line(next))
    }

    /// The hint entries ([`Footprint`]) that a front-end fetch of the
    /// line-aligned `line` may stamp, fill or evict in: `line`'s own at
    /// every instruction-side level, and its next-line prefetch target's
    /// in L2 and the LLC. An inclusive-LLC eviction back-invalidates a line
    /// of the same LLC set, hence of the same L2 and L1i sets whenever the
    /// LLC's set bits include theirs; otherwise the footprint is every
    /// entry.
    pub(crate) fn fetch_footprint(&self, line: u64) -> Footprint {
        let (l1i, l2, llc) = (self.cfg.l1i.sets, self.cfg.l2.sets, self.cfg.llc.sets);
        if llc < l2 || llc < l1i {
            return Footprint([u64::MAX; 3]);
        }
        let bit = |c: &Cache, line: u64| 1u64 << c.hint_entry(Addr(line));
        let next = line + crate::LINE_SIZE;
        Footprint([
            bit(&self.l1i, line),
            bit(&self.l2, line) | bit(&self.l2, next),
            bit(&self.llc, line) | bit(&self.llc, next),
        ])
    }

    /// Worst-case extra cycles of one instruction fetch (a DRAM miss,
    /// unless a faster level is configured slower).
    pub(crate) fn max_ifetch_extra(&self) -> u64 {
        let c = &self.cfg;
        u64::from(c.ifetch_extra_l2.max(c.ifetch_extra_llc).max(c.ifetch_extra_dram))
    }

    /// Data read of the line containing `addr`; fills L1d/L2/LLC.
    ///
    /// L1d-hit fast path: a read only re-stamps the L1d line, so the L2
    /// and LLC scans are skipped entirely when the `touch` reports a hit
    /// (their state is untouched on a hit in the original formulation
    /// too — reads do not refresh outer-level LRU).
    pub fn read(&mut self, addr: Addr) -> AccessInfo {
        let line = addr.line();
        let was_in_l1i = self.l1i.contains_line(line);
        if self.l1d.touch_line(line) {
            return AccessInfo {
                level: Level::L1d,
                latency: self.latency_of(Level::L1d),
                was_in_l1i,
            };
        }
        let in_l2 = self.l2.contains_line(line);
        let in_llc = self.llc.contains_line(line);
        let level = if in_l2 {
            Level::L2
        } else if in_llc {
            Level::Llc
        } else {
            Level::Dram
        };
        self.fill_shared(line);
        self.l1d.insert_line(line, false);
        AccessInfo { level, latency: self.latency_of(level), was_in_l1i }
    }

    /// Data write (read-for-ownership) of the line containing `addr`.
    ///
    /// Invalidates any L1i copy — an instruction cache never holds a
    /// modified line — and marks the L1d copy dirty. Same L1d-hit fast
    /// path as [`CacheHierarchy::read`].
    pub fn write(&mut self, addr: Addr) -> AccessInfo {
        let line = addr.line();
        let was_in_l1i = self.l1i.contains_line(line);
        if was_in_l1i {
            self.l1i.invalidate_line(line);
        }
        if self.l1d.touch_line(line) {
            self.l1d.mark_dirty_line(line);
            return AccessInfo {
                level: Level::L1d,
                latency: self.latency_of(Level::L1d),
                was_in_l1i,
            };
        }
        let in_l2 = self.l2.contains_line(line);
        let in_llc = self.llc.contains_line(line);
        let level = if in_l2 {
            Level::L2
        } else if in_llc {
            Level::Llc
        } else {
            Level::Dram
        };
        self.fill_shared(line);
        self.l1d.insert_line(line, true);
        AccessInfo { level, latency: self.latency_of(level), was_in_l1i }
    }

    /// [`CacheHierarchy::write`] reusing a residency snapshot the caller
    /// already computed — the probe hot path reads residency for its cost
    /// model immediately before writing, and re-scanning four levels per
    /// probe is measurable at millions of probes per trial.
    ///
    /// `res` must come from [`CacheHierarchy::residency`] on the same line
    /// with no intervening L1d/L2/LLC mutation. The L1i state *may* have
    /// changed (an SMC machine clear invalidates the line between the
    /// residency read and the write), which only turns the invalidation
    /// into a no-op; `was_in_l1i` reports the snapshot's bit.
    pub fn write_resident(&mut self, addr: Addr, res: Residency) -> AccessInfo {
        let line = addr.line();
        if res.l1i {
            self.l1i.invalidate_line(line);
        }
        if self.l1d.touch_line(line) {
            self.l1d.mark_dirty_line(line);
            return AccessInfo {
                level: Level::L1d,
                latency: self.latency_of(Level::L1d),
                was_in_l1i: res.l1i,
            };
        }
        let level = if res.l2 {
            Level::L2
        } else if res.llc {
            Level::Llc
        } else {
            Level::Dram
        };
        self.fill_shared(line);
        self.l1d.insert_line(line, true);
        AccessInfo { level, latency: self.latency_of(level), was_in_l1i: res.l1i }
    }

    /// `clflush`/`clflushopt`: invalidate the line from every level.
    pub fn flush(&mut self, addr: Addr) -> FlushInfo {
        let line = addr.line();
        let res = self.residency(line);
        let mut wrote_back = false;
        for c in [&mut self.l1i, &mut self.l1d, &mut self.l2, &mut self.llc] {
            if let Some(ev) = c.invalidate_line(line) {
                wrote_back |= ev.dirty;
            }
        }
        FlushInfo { was_cached: res.cached_anywhere(), was_in_l1i: res.l1i, wrote_back }
    }

    /// `clwb`: write back any dirty copy but keep the line valid.
    pub fn writeback(&mut self, addr: Addr) -> FlushInfo {
        let line = addr.line();
        let res = self.residency(line);
        let mut wrote_back = false;
        for c in [&mut self.l1i, &mut self.l1d, &mut self.l2, &mut self.llc] {
            wrote_back |= c.clean_line(line);
        }
        FlushInfo { was_cached: res.cached_anywhere(), was_in_l1i: res.l1i, wrote_back }
    }

    /// `prefetcht0`/`prefetchnta`: fill the data path.
    pub fn prefetch(&mut self, addr: Addr) -> AccessInfo {
        // Model both prefetch flavours as an L1d fill; `nta` differences are
        // captured in the probe cost tables, not the state machine.
        self.read(addr)
    }

    /// Silent instruction-side fill used by the next-line prefetcher.
    ///
    /// Streaming prefetches land in L2/LLC, not in the L1i itself; what
    /// hides the L2 ifetch latency is the front-end pipelining (the small
    /// `ifetch_extra_l2`), not an L1i fill. Keeping prefetches out of the
    /// L1i matters for SMC probing: only genuinely fetched lines conflict.
    pub fn prefetch_ifetch(&mut self, addr: Addr) {
        let line = addr.line();
        if !self.l2.contains_line(line) && !self.llc.contains_line(line) {
            self.fill_shared(line);
        }
    }

    /// Invalidate a line from L1i only (SMC machine clear side effect).
    /// Returns `true` if it was present.
    pub fn invalidate_l1i(&mut self, addr: Addr) -> bool {
        self.l1i.invalidate(addr).is_some()
    }

    /// Evict the least-recently-used line of L1i set `set` (noise
    /// injection). Returns the evicted line, if the set was nonempty.
    pub fn evict_lru_l1i(&mut self, set: usize) -> Option<Addr> {
        let line = self.l1i.lru_line(set)?;
        self.l1i.invalidate(line);
        Some(line)
    }

    /// Direct access to the L1i for diagnostics and tests.
    pub fn l1i(&self) -> &Cache {
        &self.l1i
    }

    /// Remove the line from every level (used for experiment setup).
    pub fn evict_everywhere(&mut self, addr: Addr) {
        self.flush(addr);
    }

    /// Place a line at exactly the levels named by `residency`
    /// (experiment-setup helper; keeps LLC inclusion: any cached line is
    /// also placed in the LLC).
    pub fn place(&mut self, addr: Addr, residency: Residency) {
        self.flush(addr);
        if residency.cached_anywhere() {
            self.llc.insert(addr, false);
        }
        if residency.l2 {
            self.l2.insert(addr, false);
        }
        if residency.l1i {
            self.l1i.insert(addr, false);
        }
        if residency.l1d {
            self.l1d.insert(addr, false);
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn hier() -> CacheHierarchy {
        CacheHierarchy::new(HierarchyConfig::intel_like())
    }

    #[test]
    fn fetch_fills_inclusively() {
        let mut h = hier();
        let a = Addr(0x4000);
        assert_eq!(h.fetch(a).level, Level::Dram);
        let r = h.residency(a);
        assert!(r.l1i && r.l2 && r.llc && !r.l1d);
        assert_eq!(h.fetch(a).level, Level::L1i);
    }

    #[test]
    fn read_fills_data_path() {
        let mut h = hier();
        let a = Addr(0x8000);
        assert_eq!(h.read(a).level, Level::Dram);
        assert_eq!(h.read(a).level, Level::L1d);
        let r = h.residency(a);
        assert!(r.l1d && r.l2 && r.llc && !r.l1i);
    }

    #[test]
    fn write_invalidates_l1i_copy() {
        let mut h = hier();
        let a = Addr(0xc000);
        h.fetch(a);
        assert!(h.residency(a).l1i);
        let info = h.write(a);
        assert!(info.was_in_l1i);
        let r = h.residency(a);
        assert!(!r.l1i, "store must invalidate the L1i copy");
        assert!(r.l1d);
        assert!(h.l1d_is_dirty(a));
    }

    #[test]
    fn flush_removes_everywhere() {
        let mut h = hier();
        let a = Addr(0x10000);
        h.fetch(a);
        h.read(a);
        let info = h.flush(a);
        assert!(info.was_cached && info.was_in_l1i);
        assert!(!h.residency(a).cached_anywhere());
        let info2 = h.flush(a);
        assert!(!info2.was_cached);
    }

    #[test]
    fn writeback_keeps_line_valid() {
        let mut h = hier();
        let a = Addr(0x14000);
        h.write(a);
        let info = h.writeback(a);
        assert!(info.wrote_back);
        assert!(h.residency(a).l1d);
        assert!(!h.l1d_is_dirty(a));
    }

    #[test]
    fn l1i_set_conflict_evicts_lru() {
        let mut h = hier();
        // 64-set 8-way L1i: 9 lines in the same set (stride 4096).
        for i in 0..9u64 {
            h.fetch(Addr(0x100000 + i * 4096));
        }
        let r0 = h.residency(Addr(0x100000));
        assert!(!r0.l1i, "first line should be LRU-evicted from L1i");
        assert!(r0.l2, "but should remain in L2");
    }

    #[test]
    fn place_establishes_exact_state() {
        let mut h = hier();
        let a = Addr(0x20000);
        h.place(a, Residency { l1i: false, l1d: false, l2: true, llc: true });
        let r = h.residency(a);
        assert_eq!(r, Residency { l1i: false, l1d: false, l2: true, llc: true });
        assert_eq!(h.read(a).level, Level::L2);
    }

    #[test]
    fn prefetch_ifetch_fills_l2_not_l1i() {
        let mut h = hier();
        let a = Addr(0x24000);
        h.prefetch_ifetch(a);
        let r = h.residency(a);
        assert!(r.l2 && r.llc, "streamed into the shared levels");
        assert!(!r.l1i, "but not into the L1i");
    }

    impl CacheHierarchy {
        fn l1d_is_dirty(&self, a: Addr) -> bool {
            self.l1d.is_dirty(a)
        }
    }
}
