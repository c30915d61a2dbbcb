//! Sparse byte-addressable simulated memory.

use std::cell::Cell;
use std::collections::HashMap;
use std::hash::{BuildHasherDefault, Hasher};

use crate::addr::{Addr, PAGE_SIZE};

/// Sentinel page base marking the last-page memo as empty.
const NO_PAGE: u64 = u64::MAX;

/// Hasher of a page base for [`Memory`]'s index: one multiply of the page
/// number by an odd constant, the high half folded into the low bits that
/// pick the bucket. A probing access touches a new page per eviction-set
/// way, where SipHash was a measurable share of every store.
#[derive(Default)]
struct PageHasher(u64);

impl Hasher for PageHasher {
    fn write(&mut self, _: &[u8]) {
        unreachable!("the index hashes only u64 page bases");
    }

    #[inline]
    fn write_u64(&mut self, page: u64) {
        let h = (page / PAGE_SIZE).wrapping_mul(0x9e37_79b9_7f4a_7c15);
        self.0 = h ^ (h >> 32);
    }

    #[inline]
    fn finish(&self) -> u64 {
        self.0
    }
}

/// Sparse 64-bit memory backed by 4 KiB pages allocated on demand.
///
/// Pages live in an indexed arena: a dense `Vec` of page frames plus a
/// `page base → frame` map consulted only on a page switch. Accesses show
/// strong page locality (a victim hammers its operand buffers, a probe its
/// oracle line), so the common case is a single compare against the
/// last-resolved page memo rather than a hash lookup per byte.
///
/// Reads from unallocated memory return zero, which keeps victim setup
/// simple and deterministic.
///
/// ```
/// use smack_uarch::mem::Memory;
/// use smack_uarch::Addr;
///
/// let mut m = Memory::new();
/// m.write_u64(Addr(0x1000), 0xdead_beef);
/// assert_eq!(m.read_u64(Addr(0x1000)), 0xdead_beef);
/// assert_eq!(m.read_u8(Addr(0x9999)), 0);
/// ```
pub struct Memory {
    frames: Vec<Box<[u8; PAGE_SIZE as usize]>>,
    index: HashMap<u64, u32, BuildHasherDefault<PageHasher>>,
    /// `(page base, frame)` of the most recently resolved page — a `Cell`
    /// so read paths can refresh it through `&self`.
    last: Cell<(u64, u32)>,
}

impl Default for Memory {
    fn default() -> Memory {
        Memory { frames: Vec::new(), index: HashMap::default(), last: Cell::new((NO_PAGE, 0)) }
    }
}

impl Memory {
    /// New empty memory.
    pub fn new() -> Memory {
        Memory::default()
    }

    /// Frame slot of the page at `page` base, if allocated. One compare on
    /// the hot (same page as last access) path, one hash probe otherwise.
    fn frame_of(&self, page: u64) -> Option<u32> {
        let (last_page, last_frame) = self.last.get();
        if last_page == page {
            return Some(last_frame);
        }
        let frame = *self.index.get(&page)?;
        self.last.set((page, frame));
        Some(frame)
    }

    fn page_mut(&mut self, page: u64) -> &mut [u8; PAGE_SIZE as usize] {
        let frame = match self.frame_of(page) {
            Some(f) => f,
            None => {
                let f = u32::try_from(self.frames.len()).expect("fewer than 2^32 pages");
                self.frames.push(Box::new([0; PAGE_SIZE as usize]));
                self.index.insert(page, f);
                self.last.set((page, f));
                f
            }
        };
        &mut self.frames[frame as usize]
    }

    /// Read one byte.
    pub fn read_u8(&self, addr: Addr) -> u8 {
        let page = addr.page().0;
        match self.frame_of(page) {
            Some(f) => self.frames[f as usize][(addr.0 - page) as usize],
            None => 0,
        }
    }

    /// Write one byte.
    pub fn write_u8(&mut self, addr: Addr, val: u8) {
        let page = addr.page().0;
        self.page_mut(page)[(addr.0 - page) as usize] = val;
    }

    /// Read a little-endian u64 (may straddle pages).
    pub fn read_u64(&self, addr: Addr) -> u64 {
        let page = addr.page().0;
        let off = (addr.0 - page) as usize;
        if off + 8 <= PAGE_SIZE as usize {
            match self.frame_of(page) {
                Some(f) => {
                    let bytes = &self.frames[f as usize][off..off + 8];
                    u64::from_le_bytes(bytes.try_into().expect("8-byte slice"))
                }
                None => 0,
            }
        } else {
            let mut bytes = [0u8; 8];
            for (i, b) in bytes.iter_mut().enumerate() {
                *b = self.read_u8(addr.offset(i as i64));
            }
            u64::from_le_bytes(bytes)
        }
    }

    /// Write a little-endian u64 (may straddle pages).
    pub fn write_u64(&mut self, addr: Addr, val: u64) {
        let page = addr.page().0;
        let off = (addr.0 - page) as usize;
        if off + 8 <= PAGE_SIZE as usize {
            self.page_mut(page)[off..off + 8].copy_from_slice(&val.to_le_bytes());
        } else {
            for (i, b) in val.to_le_bytes().iter().enumerate() {
                self.write_u8(addr.offset(i as i64), *b);
            }
        }
    }

    /// Copy a byte slice into memory at `addr`.
    pub fn write_bytes(&mut self, addr: Addr, bytes: &[u8]) {
        for (i, b) in bytes.iter().enumerate() {
            self.write_u8(addr.offset(i as i64), *b);
        }
    }

    /// Read `len` bytes starting at `addr`.
    pub fn read_bytes(&self, addr: Addr, len: usize) -> Vec<u8> {
        (0..len).map(|i| self.read_u8(addr.offset(i as i64))).collect()
    }

    /// Number of allocated pages (for tests and diagnostics).
    pub fn allocated_pages(&self) -> usize {
        self.frames.len()
    }

    /// Zero every allocated page **in place**, keeping the page frames and
    /// their index for reuse. Behaviorally identical to a fresh [`Memory`]
    /// (reads of unallocated pages already return zero), but a reset
    /// machine re-runs a same-shaped workload without re-allocating its
    /// working set.
    pub fn clear(&mut self) {
        for p in &mut self.frames {
            p.fill(0);
        }
    }
}

impl std::fmt::Debug for Memory {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("Memory").field("allocated_pages", &self.frames.len()).finish()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn unallocated_reads_zero() {
        let m = Memory::new();
        assert_eq!(m.read_u64(Addr(0xdead_0000)), 0);
        assert_eq!(m.allocated_pages(), 0);
    }

    #[test]
    fn u64_round_trip() {
        let mut m = Memory::new();
        m.write_u64(Addr(8), u64::MAX - 3);
        assert_eq!(m.read_u64(Addr(8)), u64::MAX - 3);
    }

    #[test]
    fn straddles_page_boundary() {
        let mut m = Memory::new();
        m.write_u64(Addr(PAGE_SIZE - 4), 0x1122_3344_5566_7788);
        assert_eq!(m.read_u64(Addr(PAGE_SIZE - 4)), 0x1122_3344_5566_7788);
        assert_eq!(m.allocated_pages(), 2);
    }

    #[test]
    fn bytes_round_trip() {
        let mut m = Memory::new();
        m.write_bytes(Addr(100), b"smack");
        assert_eq!(m.read_bytes(Addr(100), 5), b"smack");
    }

    #[test]
    fn page_memo_survives_interleaved_pages() {
        let mut m = Memory::new();
        // Alternate between two pages so the memo is repeatedly displaced.
        for i in 0..32u64 {
            m.write_u8(Addr(i), i as u8);
            m.write_u8(Addr(5 * PAGE_SIZE + i), (i + 1) as u8);
        }
        for i in 0..32u64 {
            assert_eq!(m.read_u8(Addr(i)), i as u8);
            assert_eq!(m.read_u8(Addr(5 * PAGE_SIZE + i)), (i + 1) as u8);
        }
        assert_eq!(m.allocated_pages(), 2);
    }

    /// Thousands of pages, touched at 4 KiB strides in an interleaved
    /// order across two regions: every page keeps its own bytes, frames
    /// are numbered in first-touch order, a repeat touch allocates
    /// nothing, and `clear` zeroes every page but keeps its frame.
    #[test]
    fn many_interleaved_pages_round_trip() {
        const PAGES: u64 = 6000;
        // A stride-7 walk over the page numbers (7 is prime to 6000, so
        // every page comes once) in a low and a high region by turns.
        let base = |k: u64| {
            let region = if k.is_multiple_of(2) { 0x1000_0000 } else { 0x7fff_0000_0000 };
            region + (k / 2 * 7 % PAGES) * PAGE_SIZE
        };
        let value = |k: u64| k.wrapping_mul(0x9e37_79b9_7f4a_7c15) | 1;
        let mut m = Memory::new();
        for k in 0..2 * PAGES {
            let off = k % (PAGE_SIZE - 16);
            m.write_u64(Addr(base(k) + off), value(k));
            m.write_u8(Addr(base(k) + PAGE_SIZE - 1), k as u8);
            assert_eq!(m.allocated_pages() as u64, k + 1, "one frame per first touch");
            assert_eq!(m.index[&base(k)] as u64, k, "frames in first-touch order");
        }
        // Touch every page again, in the opposite order.
        for k in (0..2 * PAGES).rev() {
            m.write_u8(Addr(base(k) + PAGE_SIZE - 2), !(k as u8));
        }
        assert_eq!(m.allocated_pages() as u64, 2 * PAGES, "repeat touches allocate nothing");
        for k in 0..2 * PAGES {
            let off = k % (PAGE_SIZE - 16);
            assert_eq!(m.read_u64(Addr(base(k) + off)), value(k), "page {k}");
            assert_eq!(m.read_u8(Addr(base(k) + PAGE_SIZE - 1)), k as u8);
            assert_eq!(m.read_u8(Addr(base(k) + PAGE_SIZE - 2)), !(k as u8));
        }
        m.clear();
        assert_eq!(m.allocated_pages() as u64, 2 * PAGES, "clear keeps the frames");
        for k in 0..2 * PAGES {
            assert_eq!(m.read_u64(Addr(base(k) + k % (PAGE_SIZE - 16))), 0, "cleared page {k}");
            assert_eq!(m.read_u8(Addr(base(k) + PAGE_SIZE - 1)), 0);
        }
        m.write_u64(Addr(base(3)), 5);
        assert_eq!(m.read_u64(Addr(base(3))), 5);
        assert_eq!(m.allocated_pages() as u64, 2 * PAGES, "cleared frames are reused");
    }

    #[test]
    fn clear_zeroes_but_keeps_frames() {
        let mut m = Memory::new();
        m.write_u64(Addr(0x4000), 7);
        m.write_u64(Addr(0x9000), 9);
        assert_eq!(m.allocated_pages(), 2);
        m.clear();
        assert_eq!(m.allocated_pages(), 2, "frames stay allocated");
        assert_eq!(m.read_u64(Addr(0x4000)), 0);
        assert_eq!(m.read_u64(Addr(0x9000)), 0);
        m.write_u64(Addr(0x4000), 11);
        assert_eq!(m.read_u64(Addr(0x4000)), 11, "frames are reusable after clear");
        assert_eq!(m.allocated_pages(), 2);
    }
}
