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

    /// Fill the line-aligned `line` into the shared levels that lack it —
    /// the LLC first, with its back-invalidation, then L2 — and return the
    /// level an access that missed its L1 hit. The caller has just touched
    /// the levels that hold the line, which is all a fill of a present line
    /// would do: every cache keeps its own stamp clock, so skipping the
    /// re-insert changes only absolute stamp values, never the recency
    /// order, and an LLC fill's back-invalidation removes another line,
    /// never this one.
    fn fill_shared(&mut self, line: Addr, in_l2: bool, in_llc: bool) -> Level {
        if !in_llc {
            let ev = self.llc.insert_absent_line(line, false);
            self.back_invalidate(ev);
        }
        if !in_l2 {
            self.l2.insert_absent_line(line, false);
        }
        if in_l2 {
            Level::L2
        } else if in_llc {
            Level::Llc
        } else {
            Level::Dram
        }
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
    ///
    /// The same argument lets an L1i miss fill only the levels it missed
    /// (`fill_shared`). The L1i fill skips its presence scan: the touch
    /// found the line absent.
    pub fn fetch(&mut self, addr: Addr) -> AccessInfo {
        let line = addr.line();
        let in_l1i = self.l1i.touch_line(line);
        let in_l2 = self.l2.touch_line(line);
        let in_llc = self.llc.touch_line(line);
        let level = if in_l1i {
            Level::L1i
        } else {
            let level = self.fill_shared(line, in_l2, in_llc);
            self.l1i.insert_absent_line(line, false);
            level
        };
        AccessInfo { level, latency: self.ifetch_extra(level) }
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
    /// An L1d hit only re-stamps the L1d line: reads do not refresh
    /// outer-level LRU. A miss touches L2 and the LLC, which reports
    /// presence, and fills only the levels that lack the line, as
    /// [`CacheHierarchy::fetch`] does.
    pub fn read(&mut self, addr: Addr) -> AccessInfo {
        let line = addr.line();
        if self.l1d.touch_line(line) {
            return AccessInfo { level: Level::L1d, latency: self.latency_of(Level::L1d) };
        }
        let in_l2 = self.l2.touch_line(line);
        let in_llc = self.llc.touch_line(line);
        let level = self.fill_shared(line, in_l2, in_llc);
        self.l1d.insert_absent_line(line, false);
        AccessInfo { level, latency: self.latency_of(level) }
    }

    /// Data write (read-for-ownership) of the line containing `addr`.
    ///
    /// Invalidates any L1i copy — an instruction cache never holds a
    /// modified line — and marks the L1d copy dirty, re-stamping it in the
    /// same scan. An L1d miss touches the levels that hold the line and
    /// fills the rest, as [`CacheHierarchy::read`] does.
    ///
    /// `res` is the line's [`CacheHierarchy::residency`] snapshot: the
    /// probe hot path reads it for its cost model just before writing, so
    /// the write scans only the levels that hold the line. The L1d, L2 and
    /// LLC must not have changed since; the L1i may have lost the line (an
    /// SMC machine clear invalidates it in between), which only makes the
    /// invalidation a no-op.
    pub fn write(&mut self, addr: Addr, res: Residency) -> AccessInfo {
        let line = addr.line();
        if res.l1i {
            self.l1i.invalidate_line(line);
        }
        if res.l1d {
            self.l1d.touch_dirty_line(line);
            return AccessInfo { level: Level::L1d, latency: self.latency_of(Level::L1d) };
        }
        if res.l2 {
            self.l2.touch_line(line);
        }
        if res.llc {
            self.llc.touch_line(line);
        }
        let level = self.fill_shared(line, res.l2, res.llc);
        self.l1d.insert_absent_line(line, true);
        AccessInfo { level, latency: self.latency_of(level) }
    }

    /// `clflush`/`clflushopt`: invalidate the line from every level. `res`
    /// is its residency snapshot, as for [`CacheHierarchy::write`]; only the
    /// levels it marks present are scanned.
    pub fn flush(&mut self, addr: Addr, res: Residency) -> FlushInfo {
        let line = addr.line();
        let mut wrote_back = false;
        for (present, c) in self.levels_mut(res) {
            if present {
                if let Some(ev) = c.invalidate_line(line) {
                    wrote_back |= ev.dirty;
                }
            }
        }
        FlushInfo { was_cached: res.cached_anywhere(), was_in_l1i: res.l1i, wrote_back }
    }

    /// `clwb`: write back any dirty copy but keep the line valid. `res` as
    /// for [`CacheHierarchy::flush`].
    pub fn writeback(&mut self, addr: Addr, res: Residency) -> FlushInfo {
        let line = addr.line();
        let mut wrote_back = false;
        for (present, c) in self.levels_mut(res) {
            if present {
                wrote_back |= c.clean_line(line);
            }
        }
        FlushInfo { was_cached: res.cached_anywhere(), was_in_l1i: res.l1i, wrote_back }
    }

    /// Every level, paired with whether `res` marks the line present there.
    fn levels_mut(&mut self, res: Residency) -> [(bool, &mut Cache); 4] {
        [
            (res.l1i, &mut self.l1i),
            (res.l1d, &mut self.l1d),
            (res.l2, &mut self.l2),
            (res.llc, &mut self.llc),
        ]
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
            self.fill_shared(line, false, false);
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
        self.flush(addr, self.residency(addr));
    }

    /// Place a line at exactly the levels named by `residency`
    /// (experiment-setup helper; keeps LLC inclusion: any cached line is
    /// also placed in the LLC).
    pub fn place(&mut self, addr: Addr, residency: Residency) {
        self.evict_everywhere(addr);
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
        h.write(a, h.residency(a));
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
        let info = h.flush(a, h.residency(a));
        assert!(info.was_cached && info.was_in_l1i);
        assert!(!h.residency(a).cached_anywhere());
        let info2 = h.flush(a, h.residency(a));
        assert!(!info2.was_cached);
    }

    #[test]
    fn writeback_keeps_line_valid() {
        let mut h = hier();
        let a = Addr(0x14000);
        h.write(a, h.residency(a));
        let info = h.writeback(a, h.residency(a));
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

    /// The shared-level fill before accesses filled only the levels they
    /// missed: the LLC and L2 inserts scan for the line first.
    fn fill_rescanning(h: &mut CacheHierarchy, line: Addr) {
        let ev = h.llc.insert_line(line, false);
        h.back_invalidate(ev);
        h.l2.insert_line(line, false);
    }

    /// [`CacheHierarchy::fetch`] as it was before it skipped fills: an
    /// L1i miss refills the LLC, L2 and L1i through the inserts that scan
    /// for the line first.
    fn fetch_rescanning(h: &mut CacheHierarchy, addr: Addr) -> AccessInfo {
        let line = addr.line();
        let in_l1i = h.l1i.touch_line(line);
        let in_l2 = h.l2.touch_line(line);
        let in_llc = h.llc.touch_line(line);
        let level = match (in_l1i, in_l2, in_llc) {
            (true, _, _) => Level::L1i,
            (_, true, _) => Level::L2,
            (_, _, true) => Level::Llc,
            _ => Level::Dram,
        };
        if !in_l1i {
            fill_rescanning(h, line);
            h.l1i.insert_line(line, false);
        }
        AccessInfo { level, latency: h.ifetch_extra(level) }
    }

    /// [`CacheHierarchy::read`] as it was before it filled only the levels
    /// it missed: presence scans of L2 and the LLC, then a fill of all
    /// three data-side levels through the scanning inserts.
    fn read_rescanning(h: &mut CacheHierarchy, addr: Addr) -> AccessInfo {
        let line = addr.line();
        if h.l1d.touch_line(line) {
            return AccessInfo { level: Level::L1d, latency: h.latency_of(Level::L1d) };
        }
        let in_l2 = h.l2.contains_line(line);
        let in_llc = h.llc.contains_line(line);
        let level = if in_l2 {
            Level::L2
        } else if in_llc {
            Level::Llc
        } else {
            Level::Dram
        };
        fill_rescanning(h, line);
        h.l1d.insert_line(line, false);
        AccessInfo { level, latency: h.latency_of(level) }
    }

    /// [`CacheHierarchy::write`] as it was before it trusted the snapshot
    /// beyond the level: a touch and a dirty-marking scan on an L1d hit,
    /// the scanning fill on a miss.
    fn write_rescanning(h: &mut CacheHierarchy, addr: Addr, res: Residency) -> AccessInfo {
        let line = addr.line();
        if res.l1i {
            h.l1i.invalidate_line(line);
        }
        if h.l1d.touch_line(line) {
            h.l1d.mark_dirty_line(line);
            return AccessInfo { level: Level::L1d, latency: h.latency_of(Level::L1d) };
        }
        let level = if res.l2 {
            Level::L2
        } else if res.llc {
            Level::Llc
        } else {
            Level::Dram
        };
        fill_rescanning(h, line);
        h.l1d.insert_line(line, true);
        AccessInfo { level, latency: h.latency_of(level) }
    }

    /// [`CacheHierarchy::flush`] as it was before it took the snapshot: a
    /// residency scan of its own, then an invalidation at every level.
    fn flush_rescanning(h: &mut CacheHierarchy, addr: Addr) -> FlushInfo {
        let line = addr.line();
        let res = h.residency(line);
        let mut wrote_back = false;
        for c in [&mut h.l1i, &mut h.l1d, &mut h.l2, &mut h.llc] {
            if let Some(ev) = c.invalidate_line(line) {
                wrote_back |= ev.dirty;
            }
        }
        FlushInfo { was_cached: res.cached_anywhere(), was_in_l1i: res.l1i, wrote_back }
    }

    /// [`CacheHierarchy::writeback`] as it was before it took the
    /// snapshot.
    fn writeback_rescanning(h: &mut CacheHierarchy, addr: Addr) -> FlushInfo {
        let line = addr.line();
        let res = h.residency(line);
        let mut wrote_back = false;
        for c in [&mut h.l1i, &mut h.l1d, &mut h.l2, &mut h.llc] {
            wrote_back |= c.clean_line(line);
        }
        FlushInfo { was_cached: res.cached_anywhere(), was_in_l1i: res.l1i, wrote_back }
    }

    /// [`CacheHierarchy::prefetch_ifetch`] through the scanning fill.
    fn prefetch_ifetch_rescanning(h: &mut CacheHierarchy, addr: Addr) {
        let line = addr.line();
        if !h.l2.contains_line(line) && !h.llc.contains_line(line) {
            fill_rescanning(h, line);
        }
    }

    /// The four levels of `a` and `b`, pairwise.
    fn level_pairs<'a>(
        a: &'a CacheHierarchy,
        b: &'a CacheHierarchy,
    ) -> [(&'a Cache, &'a Cache); 4] {
        [(&a.l1i, &b.l1i), (&a.l1d, &b.l1d), (&a.l2, &b.l2), (&a.llc, &b.llc)]
    }

    /// Touching only the levels a snapshot or a touch found the line in,
    /// filling only the levels it missed without rescanning them, and
    /// invalidating or cleaning only where the snapshot holds it, gives
    /// every access the outcome, every line the residency and hint state,
    /// and every set the LRU order and dirty bits that the rescanning
    /// hierarchy gives — over fetches, reads, writes, flushes, write-backs,
    /// next-line prefetches and noise evictions that keep the sets full and
    /// back-invalidate through the inclusive LLC, with an SMC clear's L1i
    /// invalidation between a probe's snapshot and its write, flush or
    /// write-back, on a small hierarchy and on the Intel-like one.
    #[test]
    fn accesses_match_rescanning_every_level() {
        let small = HierarchyConfig {
            l1i: CacheGeometry { sets: 4, ways: 8 },
            l1d: CacheGeometry { sets: 4, ways: 8 },
            l2: CacheGeometry { sets: 8, ways: 4 },
            llc: CacheGeometry { sets: 16, ways: 4 },
            ..HierarchyConfig::intel_like()
        };
        for cfg in [small, HierarchyConfig::intel_like()] {
            let (mut new, mut old) = (CacheHierarchy::new(cfg), CacheHierarchy::new(cfg));
            let llc_stride = (cfg.llc.sets * 64) as u64;
            let l1i_stride = (cfg.l1i.sets * 64) as u64;
            let mut x = 0x2545_f491_4f6c_dd1du64;
            let mut line = Addr(0);
            for i in 0..40_000 {
                x ^= x << 13;
                x ^= x >> 7;
                x ^= x << 17;
                // Tags past the LLC's ways in a few LLC sets, tags past the
                // L1i's ways in one L1i set spread over the outer sets, or
                // the previous line again.
                line = match x % 3 {
                    0 => {
                        Addr((x >> 8) % 3 * 64 + (x >> 12) % (cfg.llc.ways as u64 + 4) * llc_stride)
                    }
                    1 => Addr((x >> 8) % (cfg.l1i.ways as u64 + 6) * l1i_stride),
                    _ => line,
                };
                let op = (x >> 20) % 12;
                // A probe's snapshot; half the time an SMC clear then
                // removes the line's L1i copy, and the engine hands the
                // snapshot on without it (the rescanning write was handed
                // the snapshot as taken).
                let snapshot = old.residency(line);
                let mut res = new.residency(line);
                assert_eq!(res, snapshot, "residency before {i}");
                if (6..=8).contains(&op) && res.l1i && (x >> 24) & 1 == 0 {
                    assert!(new.invalidate_l1i(line) && old.invalidate_l1i(line));
                    res.l1i = false;
                }
                match op {
                    0..=3 => assert_eq!(new.fetch(line), fetch_rescanning(&mut old, line), "{i}"),
                    4 | 5 => assert_eq!(new.read(line), read_rescanning(&mut old, line), "{i}"),
                    6 => {
                        let want = write_rescanning(&mut old, line, snapshot);
                        assert_eq!(new.write(line, res), want, "write {i}");
                    }
                    7 => assert_eq!(new.flush(line, res), flush_rescanning(&mut old, line), "{i}"),
                    8 => {
                        let want = writeback_rescanning(&mut old, line);
                        assert_eq!(new.writeback(line, res), want, "writeback {i}");
                    }
                    9 => {
                        let next = Addr(line.0 + crate::LINE_SIZE);
                        new.prefetch_ifetch(next);
                        prefetch_ifetch_rescanning(&mut old, next);
                    }
                    _ => {
                        let set = ((x >> 28) % cfg.l1i.sets as u64) as usize;
                        assert_eq!(new.evict_lru_l1i(set), old.evict_lru_l1i(set), "evict {i}");
                    }
                }
                assert_eq!(new.residency(line), old.residency(line), "residency after {i}");
                // The LLC's set bits include every inner level's, so an
                // access and its back-invalidations change only the sets of
                // `line` (and of the prefetched line after it).
                for probe in [line, Addr(line.0 + crate::LINE_SIZE)] {
                    for (a, b) in level_pairs(&new, &old) {
                        let set = probe.set_index(a.geometry().sets);
                        assert_eq!(a.lru_order(set), b.lru_order(set), "LRU order after {i}");
                        assert_eq!(a.is_hinted_mru(probe), b.is_hinted_mru(probe), "hint {i}");
                    }
                }
                if i % 4000 == 0 && cfg == small {
                    for (a, b) in level_pairs(&new, &old) {
                        for set in 0..a.geometry().sets {
                            assert_eq!(a.lru_order(set), b.lru_order(set), "set {set} after {i}");
                        }
                    }
                }
            }
        }
    }

    impl CacheHierarchy {
        fn l1d_is_dirty(&self, a: Addr) -> bool {
            self.l1d.is_dirty(a)
        }
    }
}
