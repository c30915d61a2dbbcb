//! Oracle code pages (paper Listing 1) and L1i eviction sets.
//!
//! An *oracle* is an executable cache line the attacker controls: a few
//! `nop`s and a `ret`, so calling its base address fetches exactly that
//! line into the L1i. An *eviction set* is eight such lines mapping to the
//! same L1i set with distinct tags (addresses 4 KiB apart), enough to own
//! every way of the set on the 64-set/8-way L1 instruction caches modeled
//! here.

use smack_uarch::asm::{Assembler, Program};
use smack_uarch::{Addr, Machine, StepError, ThreadId};

use crate::probe::Prober;

/// An executable oracle region of consecutive cache lines.
#[derive(Clone, Debug)]
pub struct OraclePage {
    base: Addr,
    lines: usize,
    program: Program,
}

impl OraclePage {
    /// Build an oracle of `lines` consecutive lines starting at `base`
    /// (line-aligned). Each line is `nop; nop; ret`.
    ///
    /// # Panics
    ///
    /// Panics if `base` is not line-aligned or `lines` is zero.
    pub fn build(base: Addr, lines: usize) -> OraclePage {
        assert_eq!(base.line_offset(), 0, "oracle base must be line-aligned");
        assert!(lines > 0, "oracle needs at least one line");
        let mut a = Assembler::new(base.0);
        for i in 0..lines {
            a.org(base.0 + (i as u64) * 64).nop().nop().ret();
        }
        OraclePage { base, lines, program: a.assemble().expect("oracle assembles") }
    }

    /// Load the oracle's code into a machine.
    pub fn install(&self, machine: &mut Machine) {
        machine.load_program(&self.program);
    }

    /// Base address.
    pub fn base(&self) -> Addr {
        self.base
    }

    /// Number of lines.
    pub fn lines(&self) -> usize {
        self.lines
    }

    /// Address of line `i`.
    ///
    /// # Panics
    ///
    /// Panics if `i >= lines`.
    pub fn line(&self, i: usize) -> Addr {
        assert!(i < self.lines, "oracle line out of range");
        Addr(self.base.0 + (i as u64) * 64)
    }

    /// Prepare the canonical Listing-1 state on `tid`: warm the TLB, flush
    /// the line, execute it so it is resident in the L1i, and fence.
    ///
    /// # Errors
    ///
    /// Propagates [`StepError`] from either thread.
    pub fn prepare_l1i(
        &self,
        machine: &mut Machine,
        tid: ThreadId,
        i: usize,
    ) -> Result<(), StepError> {
        let line = self.line(i);
        machine.warm_tlb(tid, line);
        let mut p = Prober::new(tid);
        p.flush_line(machine, line)?;
        p.execute_line(machine, line)?;
        machine.run_sequence(tid, &[smack_uarch::isa::Instr::Mfence])?;
        Ok(())
    }
}

/// An eviction set: one oracle line per way of a single L1i set.
#[derive(Clone, Debug)]
pub struct EvictionSet {
    set: usize,
    ways: Vec<Addr>,
    program: Program,
}

impl EvictionSet {
    /// Build an eviction set for L1i set `set` with `ways` lines, placing
    /// code at `region_base + way * 4096 + set * 64`.
    ///
    /// # Panics
    ///
    /// Panics if `region_base` is not page-aligned or `set >= 64`.
    pub fn build(region_base: u64, set: usize, ways: usize) -> EvictionSet {
        assert_eq!(region_base % 4096, 0, "eviction region must be page-aligned");
        assert!(set < 64, "set index out of range");
        let mut a = Assembler::new(region_base);
        let mut lines = Vec::with_capacity(ways);
        for w in 0..ways {
            let addr = region_base + (w as u64) * 4096 + (set as u64) * 64;
            a.org(addr).nop().nop().ret();
            lines.push(Addr(addr));
        }
        EvictionSet { set, ways: lines, program: a.assemble().expect("eviction set assembles") }
    }

    /// Build the full 8-way set for a machine's L1i geometry.
    pub fn for_machine(machine: &Machine, region_base: u64, set: usize) -> EvictionSet {
        EvictionSet::build(region_base, set, machine.l1i_ways())
    }

    /// Load the eviction-set code into a machine.
    pub fn install(&self, machine: &mut Machine) {
        machine.load_program(&self.program);
    }

    /// The monitored L1i set index.
    pub fn set(&self) -> usize {
        self.set
    }

    /// The way line addresses.
    pub fn ways(&self) -> &[Addr] {
        &self.ways
    }

    /// Prime: execute every way so the attacker owns the whole set.
    ///
    /// # Errors
    ///
    /// Propagates [`StepError`] from either thread.
    pub fn prime(&self, machine: &mut Machine, prober: &mut Prober) -> Result<(), StepError> {
        prober.execute_lines(machine, &self.ways)
    }

    /// Probe every way with `kind`, returning per-way timings.
    ///
    /// # Errors
    ///
    /// Propagates [`StepError`] from either thread.
    pub fn probe(
        &self,
        machine: &mut Machine,
        prober: &mut Prober,
        kind: smack_uarch::ProbeKind,
    ) -> Result<Vec<u64>, StepError> {
        self.probe_first(machine, prober, kind, self.ways.len())
    }

    /// Probe only the first `n` ways — the ways LRU replacement evicts
    /// first, so a single victim fetch is almost always caught. Probing
    /// fewer ways keeps the sample period short (and stalls the victim
    /// less), which is what gives the RSA/SRP attacks their per-square
    /// resolution.
    ///
    /// # Errors
    ///
    /// Propagates [`StepError`] from either thread.
    pub fn probe_first(
        &self,
        machine: &mut Machine,
        prober: &mut Prober,
        kind: smack_uarch::ProbeKind,
        n: usize,
    ) -> Result<Vec<u64>, StepError> {
        let mut out = Vec::new();
        self.probe_first_into(machine, prober, kind, n, &mut out)?;
        Ok(out)
    }

    /// [`EvictionSet::probe_first`] into a caller-owned buffer (cleared
    /// first), so a sampling loop can reuse one allocation across its
    /// hundreds of probe rounds per trial. The round is one batched
    /// [`Prober::measure_lines`] call.
    ///
    /// # Errors
    ///
    /// Propagates [`StepError`] from either thread.
    pub fn probe_first_into(
        &self,
        machine: &mut Machine,
        prober: &mut Prober,
        kind: smack_uarch::ProbeKind,
        n: usize,
        out: &mut Vec<u64>,
    ) -> Result<(), StepError> {
        let n = n.min(self.ways.len());
        out.clear();
        out.resize(n, 0);
        prober.measure_lines(machine, kind, &self.ways[..n], out)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use smack_uarch::{MicroArch, ProbeKind};

    const T0: ThreadId = ThreadId::T0;

    #[test]
    fn oracle_lines_are_line_aligned_and_distinct() {
        let o = OraclePage::build(Addr(0x2_0000), 8);
        for i in 0..8 {
            assert_eq!(o.line(i).line_offset(), 0);
        }
        assert_ne!(o.line(0), o.line(1));
    }

    #[test]
    fn prepare_l1i_lands_line_in_l1i() {
        let mut m = Machine::new(MicroArch::CascadeLake.profile());
        let o = OraclePage::build(Addr(0x2_0000), 4);
        o.install(&mut m);
        o.prepare_l1i(&mut m, T0, 2).unwrap();
        let r = m.residency(o.line(2));
        assert!(r.l1i && r.l2 && r.llc);
    }

    #[test]
    fn eviction_set_ways_share_the_set() {
        let m = Machine::new(MicroArch::CascadeLake.profile());
        let ev = EvictionSet::for_machine(&m, 0x10_0000, 37);
        assert_eq!(ev.ways().len(), 8);
        for w in ev.ways() {
            assert_eq!(m.l1i_set(*w), 37);
        }
        // Distinct tags.
        let mut lines: Vec<_> = ev.ways().to_vec();
        lines.dedup();
        assert_eq!(lines.len(), 8);
    }

    #[test]
    fn prime_owns_the_whole_set() {
        let mut m = Machine::new(MicroArch::CascadeLake.profile());
        let ev = EvictionSet::for_machine(&m, 0x10_0000, 5);
        ev.install(&mut m);
        let mut p = Prober::new(T0);
        ev.prime(&mut m, &mut p).unwrap();
        for w in ev.ways() {
            assert!(m.residency(*w).l1i, "way {w} resident after prime");
        }
    }

    #[test]
    fn probe_sees_eviction_as_the_low_way() {
        let mut m = Machine::new(MicroArch::CascadeLake.profile());
        let ev = EvictionSet::for_machine(&m, 0x10_0000, 5);
        ev.install(&mut m);
        let mut p = Prober::new(T0);
        for w in ev.ways() {
            m.warm_tlb(T0, *w);
        }
        ev.prime(&mut m, &mut p).unwrap();
        // Simulate a victim fetch landing in the set: the evicted way
        // leaves the L1i but stays in L2 (inclusive hierarchy).
        m.place_line(ev.ways()[3], smack_uarch::Placement::L2);
        let t = ev.probe(&mut m, &mut p, ProbeKind::Store).unwrap();
        let evicted = t[3];
        for (i, v) in t.iter().enumerate() {
            if i != 3 {
                assert!(*v > evicted + 100, "way {i}: {v} vs evicted {evicted}");
            }
        }
    }
}
