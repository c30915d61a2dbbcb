//! [`Machine`]: the simulated SMT core and its public API.
//!
//! A `Machine` is one simulated physical core with two SMT threads plus
//! memory. Victims run as loaded programs; attackers are usually Rust code
//! injecting straight-line instruction sequences ([`Machine::run_sequence`])
//! or calling into simulated code ([`Machine::call`]). The machine keeps the
//! two threads' clocks aligned by stepping whichever runnable thread is
//! behind, so machine clears, cache evictions and stalls land on the sibling
//! at (approximately) the right time.
//!
//! This module holds the state and the public API; the execution core —
//! stepping, instruction semantics, fetch modeling and the fused probe
//! tier — lives in [`crate::engine`].

use std::fmt;

use crate::addr::Addr;
use crate::asm::Program;
use crate::bpu::BranchPredictor;
use crate::counters::{CounterBank, PerfEvent};
use crate::decoded::{DecodedProgram, NO_IDX};
use crate::engine::{
    step_budget, CallShape, CompiledProbe, InjectedNext, SeqOutcome, StepError, Thread, ThreadId,
    ThreadState, CALL_SHAPE_SLOTS, DELAY_CHUNK, EMPTY_SHAPE,
};
use crate::hierarchy::{CacheHierarchy, Residency};
use crate::isa::{Instr, Reg};
use crate::mem::Memory;
use crate::noise::{NoiseConfig, NoiseSource};
use crate::profile::UarchProfile;
use crate::tlb::Tlb;

/// Where to place a line for experiment setup (paper §4.1 prepares the
/// oracle line in each of five microarchitectural states).
#[derive(Copy, Clone, PartialEq, Eq, Hash, Debug)]
pub enum Placement {
    /// In the L1 instruction cache (and, inclusively, L2 + LLC).
    L1i,
    /// In the L1 data cache (and L2 + LLC).
    L1d,
    /// In L2 (and LLC) but in neither L1.
    L2,
    /// Only in the LLC.
    Llc,
    /// Not cached anywhere.
    DramOnly,
}

impl Placement {
    /// The five paper states in presentation order.
    pub const ALL: [Placement; 5] =
        [Placement::L1i, Placement::L1d, Placement::L2, Placement::Llc, Placement::DramOnly];

    /// Display name matching the paper's figure labels.
    pub fn name(self) -> &'static str {
        match self {
            Placement::L1i => "L1i",
            Placement::L1d => "L1d",
            Placement::L2 => "L2",
            Placement::Llc => "LLC",
            Placement::DramOnly => "DRAM",
        }
    }
}

impl fmt::Display for Placement {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.write_str(self.name())
    }
}

/// The interpreter tier a machine executes on. All three produce
/// bit-identical architectural state, clocks, caches and hardware
/// counters; only the `SIM.*` engine bookkeeping differs.
#[derive(Copy, Clone, PartialEq, Eq, Debug)]
pub enum Tier {
    /// Every instruction stepped through a `BTreeMap` lookup in the
    /// loaded program: the oracle the equivalence tests compare the other
    /// tiers against. Nothing times it.
    Reference,
    /// Every instruction stepped through the decoded side table
    /// ([`DecodedProgram`]), which chases pre-resolved successor indices
    /// instead of looking each pc up: the per-step oracle of the fused
    /// tier.
    Decoded,
    /// The decoded table plus fusion (the default):
    /// [`Machine::run_probes`] retires a batch of compiled
    /// `mfence; rdtsc; <op>; mfence; rdtsc` probe sequences in one
    /// specialized pass, [`Machine::run_calls`] a batch of calls to
    /// `nop*; ret` lines and [`Machine::advance`] a busy-wait — each
    /// bit-identical to per-step injection, running the helpers `exec`
    /// runs and catching a running sibling up at the same points — and
    /// every catch-up of a sibling busy in a counted delay loop retires
    /// its turns in closed form instead of stepping them, or, across a
    /// batch of calls or `Execute` probes clear of the loop's cache sets,
    /// skips the batch's catch-ups for one closed form at its end. Fusion
    /// refuses to run (and per-step execution takes over) when the
    /// injecting thread is running or speculating, or a fetch log could
    /// observe intermediate state.
    Fused,
}

/// One simulated SMT physical core plus memory. See the
/// [module documentation](self).
pub struct Machine {
    pub(crate) profile: UarchProfile,
    pub(crate) threads: [Thread; 2],
    pub(crate) code: Program,
    /// Dense side table compiled from `code` at load time: the steady-state
    /// step loop chases successor indices through it instead of walking the
    /// program's `BTreeMap` per instruction.
    pub(crate) decoded: DecodedProgram,
    /// The interpreter tier (see [`Machine::set_tier`]).
    pub(crate) tier: Tier,
    /// Memoized callee-shape walks for the fused call path — `(target,
    /// shape)`, direct-mapped by a multiply-hash of the target address,
    /// valid while `call_shapes_gen` matches `decode_gen`. Sized for
    /// attacker working sets (an 8-way eviction set plus a few oracle
    /// lines): priming calls the same handful of targets millions of
    /// times per campaign, and one hash probe beats re-hashing
    /// `pc → index` in the decoded table's map every call.
    pub(crate) call_shapes: [(u64, CallShape); CALL_SHAPE_SLOTS],
    pub(crate) call_shapes_gen: u64,
    /// Bumped whenever the decoded table is rebuilt (load / reset),
    /// invalidating `call_shapes`.
    pub(crate) decode_gen: u64,
    pub(crate) mem: Memory,
    pub(crate) hier: CacheHierarchy,
    pub(crate) itlb: [Tlb; 2],
    pub(crate) dtlb: [Tlb; 2],
    pub(crate) bpu: BranchPredictor,
    pub(crate) noise: NoiseSource,
    /// When enabled, every line-granular instruction fetch (architectural
    /// *and* speculative wrong-path) appends its line address here. Used by
    /// the static analyzer's soundness tests to compare the observed fetch
    /// footprint against the statically predicted one. `None` (the default)
    /// keeps the hot fetch path branch-predictable and allocation-free.
    pub(crate) fetch_log: Option<Vec<u64>>,
}

/// Default tier: [`Tier::Fused`], or [`Tier::Decoded`] when the
/// `SMACK_FUSED_PROBES` environment variable is `0` (the CI determinism
/// gates run the repro both ways and diff CSVs).
fn default_tier() -> Tier {
    static TIER: std::sync::OnceLock<Tier> = std::sync::OnceLock::new();
    *TIER.get_or_init(|| match std::env::var("SMACK_FUSED_PROBES") {
        Ok(v) if v == "0" => Tier::Decoded,
        _ => Tier::Fused,
    })
}

impl Machine {
    /// Create a machine with quiet (deterministic) noise.
    pub fn new(profile: UarchProfile) -> Machine {
        Machine::with_noise(profile, NoiseConfig::quiet(), 0x5eed)
    }

    /// Create a machine with an explicit noise model and seed.
    pub fn with_noise(profile: UarchProfile, noise: NoiseConfig, seed: u64) -> Machine {
        let hier = CacheHierarchy::new(profile.hierarchy);
        let itlb = [Tlb::new(profile.itlb_entries), Tlb::new(profile.itlb_entries)];
        let dtlb = [Tlb::new(profile.dtlb_entries), Tlb::new(profile.dtlb_entries)];
        Machine {
            threads: [Thread::new(), Thread::new()],
            code: Program::default(),
            decoded: DecodedProgram::default(),
            tier: default_tier(),
            call_shapes: [EMPTY_SHAPE; CALL_SHAPE_SLOTS],
            call_shapes_gen: 0,
            decode_gen: 0,
            mem: Memory::new(),
            hier,
            itlb,
            dtlb,
            bpu: BranchPredictor::new(4096),
            noise: NoiseSource::new(noise, seed),
            fetch_log: None,
            profile,
        }
    }

    /// Select the interpreter tier. Output is bit-identical on every
    /// tier, so the switch exists for the equivalence tests and the CI
    /// determinism gates. Reset restores the default: [`Tier::Fused`], or
    /// [`Tier::Decoded`] under `SMACK_FUSED_PROBES=0`.
    pub fn set_tier(&mut self, tier: Tier) {
        self.tier = tier;
        for t in &mut self.threads {
            t.pc_idx = NO_IDX;
        }
    }

    /// The active interpreter tier.
    pub fn tier(&self) -> Tier {
        self.tier
    }

    /// The microarchitecture profile.
    pub fn profile(&self) -> &UarchProfile {
        &self.profile
    }

    /// Restore this machine to the cold power-on state — cold caches, TLBs
    /// and branch predictor, reset counters and clocks, no loaded code,
    /// zeroed memory — and reseed the noise source, reusing the existing
    /// allocations (cache hierarchy, memory pages, predictor tables)
    /// instead of rebuilding them. A reset machine is behaviorally
    /// indistinguishable from `Machine::with_noise(profile, noise, seed)`:
    /// for the same seed and workload it produces bit-identical timings,
    /// traces and reports.
    pub fn reset(&mut self, noise: NoiseConfig, seed: u64) {
        for t in &mut self.threads {
            t.reset();
        }
        self.code.clear();
        self.decoded.clear();
        self.decode_gen += 1;
        self.tier = default_tier();
        self.mem.clear();
        self.hier.clear();
        for tlb in self.itlb.iter_mut().chain(self.dtlb.iter_mut()) {
            tlb.flush();
        }
        self.bpu.reset();
        self.noise = NoiseSource::new(noise, seed);
        self.fetch_log = None;
    }

    /// Replace the noise configuration (keeps the RNG stream).
    pub fn set_noise(&mut self, cfg: NoiseConfig) {
        self.noise.set_config(cfg);
    }

    // ---- code & memory -----------------------------------------------------

    /// Load (merge) a program into the core's address space and recompile
    /// the decoded side table (linear in total program size — paid per
    /// load, never per step), invalidating the call-shape memo and every
    /// thread's cached instruction index.
    ///
    /// Architectural state only: a store to a code line has the timing
    /// effects of an SMC write-back (machine clear, L1i invalidation,
    /// sibling stall) but never changes the instructions executed there.
    pub fn load_program(&mut self, prog: &Program) {
        self.code.merge(prog);
        self.decoded = DecodedProgram::compile(&self.code);
        self.decode_gen += 1;
        for t in &mut self.threads {
            t.pc_idx = NO_IDX;
        }
    }

    /// Write bytes to simulated memory (no timing effects).
    pub fn write_bytes(&mut self, addr: Addr, bytes: &[u8]) {
        self.mem.write_bytes(addr, bytes);
    }

    /// Read bytes from simulated memory (no timing effects).
    pub fn read_bytes(&self, addr: Addr, len: usize) -> Vec<u8> {
        self.mem.read_bytes(addr, len)
    }

    /// Write a u64 to simulated memory (no timing effects).
    pub fn write_u64(&mut self, addr: Addr, v: u64) {
        self.mem.write_u64(addr, v);
    }

    /// Read a u64 from simulated memory (no timing effects).
    pub fn read_u64(&self, addr: Addr) -> u64 {
        self.mem.read_u64(addr)
    }

    /// Write a byte to simulated memory (no timing effects).
    pub fn write_u8(&mut self, addr: Addr, v: u8) {
        self.mem.write_u8(addr, v);
    }

    /// Read a byte from simulated memory (no timing effects).
    pub fn read_u8(&self, addr: Addr) -> u8 {
        self.mem.read_u8(addr)
    }

    // ---- cache state -------------------------------------------------------

    /// Which caches hold the line containing `addr` right now.
    pub fn residency(&self, addr: Addr) -> Residency {
        self.hier.residency(addr)
    }

    /// Place the line containing `addr` in an exact microarchitectural
    /// state (experiment setup; no timing effects).
    pub fn place_line(&mut self, addr: Addr, placement: Placement) {
        let r = match placement {
            Placement::L1i => Residency { l1i: true, l1d: false, l2: true, llc: true },
            Placement::L1d => Residency { l1i: false, l1d: true, l2: true, llc: true },
            Placement::L2 => Residency { l1i: false, l1d: false, l2: true, llc: true },
            Placement::Llc => Residency { l1i: false, l1d: false, l2: false, llc: true },
            Placement::DramOnly => Residency::default(),
        };
        self.hier.place(addr, r);
    }

    /// Evict the line containing `addr` from every cache level
    /// (no timing effects — use a `clflush` sequence for the timed version).
    pub fn flush_line(&mut self, addr: Addr) {
        self.hier.evict_everywhere(addr);
    }

    /// Warm the instruction and data TLBs for the page containing `addr`
    /// (no timing effects), as the oracle preparation in Listing 1 does.
    pub fn warm_tlb(&mut self, tid: ThreadId, addr: Addr) {
        self.itlb[tid.index()].access(addr);
        self.dtlb[tid.index()].access(addr);
    }

    /// L1i set index of `addr` for this machine's geometry.
    pub fn l1i_set(&self, addr: Addr) -> usize {
        addr.set_index(self.profile.hierarchy.l1i.sets)
    }

    /// Number of L1i sets.
    pub fn l1i_sets(&self) -> usize {
        self.profile.hierarchy.l1i.sets
    }

    /// Number of L1i ways.
    pub fn l1i_ways(&self) -> usize {
        self.profile.hierarchy.l1i.ways
    }

    // ---- threads -------------------------------------------------------------

    /// Thread state.
    pub fn state(&self, tid: ThreadId) -> ThreadState {
        self.t(tid).state
    }

    /// Thread-local cycle clock.
    pub fn clock(&self, tid: ThreadId) -> u64 {
        self.t(tid).clock
    }

    /// Read a register.
    pub fn reg(&self, tid: ThreadId, r: Reg) -> u64 {
        self.t(tid).regs[r.index()]
    }

    /// Write a register (value becomes ready immediately).
    pub fn set_reg(&mut self, tid: ThreadId, r: Reg, v: u64) {
        let t = self.t_mut(tid);
        t.regs[r.index()] = v;
        t.ready[r.index()] = t.clock;
    }

    /// Per-thread performance counters.
    pub fn counters(&self, tid: ThreadId) -> &CounterBank {
        &self.t(tid).counters
    }

    /// Core-wide counters (both threads summed) — what a system-wide
    /// detection agent samples.
    pub fn counters_total(&self) -> CounterBank {
        let mut total = self.threads[0].counters.clone();
        total.accumulate(&self.threads[1].counters);
        total
    }

    /// Start (or stop) recording the line address of every instruction
    /// fetch — architectural and speculative wrong-path alike. Enabling
    /// clears any previously recorded log.
    pub fn set_fetch_log(&mut self, on: bool) {
        self.fetch_log = if on { Some(Vec::new()) } else { None };
    }

    /// Take the recorded fetch-line log, leaving recording enabled with an
    /// empty log (empty when recording is off).
    pub fn take_fetch_log(&mut self) -> Vec<u64> {
        self.fetch_log.as_mut().map(std::mem::take).unwrap_or_default()
    }

    /// Park a thread back to idle (stop a victim).
    pub fn park(&mut self, tid: ThreadId) {
        let t = self.t_mut(tid);
        t.state = ThreadState::Idle;
        t.spec = None;
        t.stack.clear();
    }

    // ---- running code --------------------------------------------------------

    /// Start a program on `tid` without driving it; it advances whenever the
    /// sibling thread performs timed work, like a real co-resident victim.
    /// Arguments go to `R1..`.
    pub fn start_program(&mut self, tid: ThreadId, entry: u64, args: &[u64]) {
        assert!(args.len() <= 5, "at most five register arguments");
        let t = self.t_mut(tid);
        t.pc = entry;
        t.pc_idx = NO_IDX;
        t.stack.clear();
        t.state = ThreadState::Running;
        t.spec = None;
        for (i, a) in args.iter().enumerate() {
            let r = Reg::from_index(1 + i).index();
            t.regs[r] = *a;
            t.ready[r] = t.clock;
        }
    }

    /// Run `tid`'s program to completion (`halt` or final `ret`),
    /// interleaving the sibling.
    ///
    /// # Errors
    ///
    /// Propagates [`StepError`] from either thread, including
    /// [`StepError::StepLimit`] after `max_steps` instructions.
    pub fn run_until_halt(&mut self, tid: ThreadId, max_steps: u64) -> Result<u64, StepError> {
        let start = self.t(tid).clock;
        self.run_burst(tid, max_steps)?;
        if self.t(tid).state == ThreadState::Running {
            return Err(StepError::StepLimit);
        }
        Ok(self.t(tid).clock - start)
    }

    /// Run up to `max_steps` causally-ordered program steps — the
    /// low-level entry for drivers that meter progress themselves. Each
    /// counted step executes one instruction on whichever runnable thread
    /// the causal-order rule picks: the sibling when it is running and
    /// behind `tid`'s clock, `tid` otherwise. Returns the number of steps
    /// executed; stops early (without error) when `tid` leaves the
    /// running state.
    ///
    /// # Errors
    ///
    /// Propagates [`StepError`] from either thread.
    pub fn run_burst(&mut self, tid: ThreadId, max_steps: u64) -> Result<u64, StepError> {
        let sib = tid.sibling();
        let mut steps = 0u64;
        while steps < max_steps
            && self.t(tid).state == ThreadState::Running
            && self.t(sib).state == ThreadState::Running
        {
            if self.t(sib).clock < self.t(tid).clock {
                self.step(sib)?;
            } else {
                self.step(tid)?;
            }
            steps += 1;
        }
        // Lone-thread loop: the causal-order test is hoisted out, because
        // only an external `start_program` or injected call can wake the
        // sibling, and neither can happen inside this loop.
        while steps < max_steps && self.t(tid).state == ThreadState::Running {
            self.step(tid)?;
            steps += 1;
            debug_assert_ne!(self.t(sib).state, ThreadState::Running, "sibling woke mid-run");
        }
        Ok(steps)
    }

    /// Call a simulated function on an idle thread: arguments in `R1..`,
    /// runs until the callee returns. Returns cycles spent.
    ///
    /// # Errors
    ///
    /// Propagates [`StepError`] from either thread.
    pub fn call(&mut self, tid: ThreadId, target: u64, args: &[u64]) -> Result<u64, StepError> {
        assert!(args.len() <= 5, "at most five register arguments");
        for (i, a) in args.iter().enumerate() {
            self.set_reg(tid, Reg::from_index(1 + i), *a);
        }
        let start = self.t(tid).clock;
        self.begin_injected_call(tid, target);
        self.drive_to_idle(tid)?;
        Ok(self.t(tid).clock - start)
    }

    /// Execute an injected straight-line sequence on an idle thread,
    /// interleaving the sibling's program by clock order. `Call`/`CallReg`
    /// instructions in the sequence run the callee to completion.
    ///
    /// # Errors
    ///
    /// Propagates [`StepError`]; injected sequences cannot contain jumps.
    pub fn run_sequence(
        &mut self,
        tid: ThreadId,
        instrs: &[Instr],
    ) -> Result<SeqOutcome, StepError> {
        let start = self.t(tid).clock;
        for instr in instrs {
            self.catch_up_sibling(tid)?;
            match self.exec_injected(tid, instr)? {
                InjectedNext::Done => {}
                InjectedNext::EnterCall { target } => {
                    self.begin_injected_call(tid, target);
                    self.drive_to_idle(tid)?;
                }
            }
        }
        self.catch_up_sibling(tid)?;
        Ok(self.outcome_since(tid, start))
    }

    /// Run `probe` once per target back to back on an idle thread, the
    /// register its timed operation addresses through (the memory
    /// operand's base, or `call *r`'s register) set to each target in
    /// turn, writing each probe's measured `rdtsc` delta (closing
    /// minus opening reading, saturating at 0) to the matching `timings`
    /// slot: one fused pass for the whole batch when the guards allow
    /// every probe, each probe's five instructions injected per-step via
    /// [`Machine::run_sequence`] otherwise. An eviction set probes its
    /// ways this way, and a single probe is a batch of one. Same outcome
    /// either way, by construction; the `SimProbeFastPath` and
    /// `SimProbeFallback` counters record which path each probe took.
    ///
    /// # Errors
    ///
    /// Propagates [`StepError`] from either thread (e.g. unsupported probe
    /// classes), after the probes before the failing one have written
    /// their timings.
    ///
    /// # Panics
    ///
    /// Panics if `timings` and `targets` differ in length.
    pub fn run_probes(
        &mut self,
        tid: ThreadId,
        probe: &CompiledProbe,
        targets: &[Addr],
        timings: &mut [u64],
    ) -> Result<SeqOutcome, StepError> {
        assert_eq!(targets.len(), timings.len(), "one timing slot per target");
        if let Some(outcome) = self.try_fused_probes(tid, probe, targets, timings) {
            return outcome;
        }
        let start = self.t(tid).clock;
        for (target, slot) in targets.iter().zip(timings.iter_mut()) {
            self.set_reg(tid, probe.addr, target.0);
            self.t_mut(tid).counters.add(PerfEvent::SimProbeFallback, 1);
            self.run_sequence(tid, probe.instrs())?;
            *slot = probe.timing(self, tid);
        }
        Ok(self.outcome_since(tid, start))
    }

    /// Call every line in `targets` back to back on an idle thread: one
    /// fused pass for the whole batch when the guards and every callee's
    /// shape allow it (each callee must be an attacker-style one-line
    /// `nop*; ret` routine), each `call` injected per-step via
    /// [`Machine::run_sequence`] otherwise — an eviction set primes its
    /// eight ways in one pass instead of eight, and a single call is a
    /// batch of one. Same outcome either way, by construction, with or
    /// without a running sibling. With [`Machine::run_probes`], one of the
    /// two batch entries.
    ///
    /// # Errors
    ///
    /// Propagates [`StepError`] from either thread.
    pub fn run_calls(&mut self, tid: ThreadId, targets: &[Addr]) -> Result<SeqOutcome, StepError> {
        if let Some(outcome) = self.try_fused_calls(tid, targets) {
            return outcome;
        }
        let start = self.t(tid).clock;
        for &Addr(target) in targets {
            self.t_mut(tid).counters.add(PerfEvent::SimProbeFallback, 1);
            self.run_sequence(tid, &[Instr::Call { target }])?;
        }
        Ok(self.outcome_since(tid, start))
    }

    /// Let `cycles` pass on `tid` (a "dummy for loop"), still interleaving
    /// the sibling.
    ///
    /// # Errors
    ///
    /// Propagates [`StepError`] from the sibling's program.
    pub fn advance(&mut self, tid: ThreadId, cycles: u64) -> Result<(), StepError> {
        if self.tier == Tier::Fused && self.t(tid).state != ThreadState::Running {
            return self.fused_advance(tid, cycles);
        }
        let mut left = cycles;
        while left > 0 {
            let chunk = left.min(DELAY_CHUNK) as u32;
            self.catch_up_sibling(tid)?;
            self.exec_injected(tid, &Instr::Delay { cycles: chunk })?;
            left -= chunk as u64;
        }
        self.catch_up_sibling(tid)
    }

    /// Drive a running thread to idle/halt, enforcing the default step
    /// budget.
    fn drive_to_idle(&mut self, tid: ThreadId) -> Result<(), StepError> {
        self.run_burst(tid, step_budget())?;
        if self.t(tid).state == ThreadState::Running {
            return Err(StepError::StepLimit);
        }
        Ok(())
    }
}

impl fmt::Debug for Machine {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.debug_struct("Machine")
            .field("arch", &self.profile.arch)
            .field("t0_clock", &self.threads[0].clock)
            .field("t1_clock", &self.threads[1].clock)
            .finish()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::asm::Assembler;
    use crate::isa::MemRef;
    use crate::profile::{MicroArch, ProbeKind};
    use crate::PerfEvent;

    const T0: ThreadId = ThreadId::T0;
    const T1: ThreadId = ThreadId::T1;

    fn cl() -> Machine {
        Machine::new(MicroArch::CascadeLake.profile())
    }

    /// An oracle line at `addr`: a couple of nops and a ret.
    fn oracle_program(addr: u64) -> Program {
        let mut a = Assembler::new(addr);
        a.nop().nop().ret();
        a.assemble().unwrap()
    }

    #[test]
    fn loop_program_computes_sum() {
        let mut m = cl();
        let mut a = Assembler::new(0x40_0000);
        // sum 1..=10 into R0
        a.mov_imm(Reg::R0, 0)
            .mov_imm(Reg::R2, 1)
            .label("loop")
            .add(Reg::R0, Reg::R2)
            .add_imm(Reg::R2, 1)
            .cmp_imm(Reg::R2, 11)
            .jne("loop")
            .halt();
        let p = a.assemble().unwrap();
        m.load_program(&p);
        m.start_program(T0, p.entry(), &[]);
        m.run_until_halt(T0, 10_000).unwrap();
        assert_eq!(m.reg(T0, Reg::R0), 55);
        assert_eq!(m.state(T0), ThreadState::Halted);
    }

    #[test]
    fn injected_call_runs_and_returns_to_idle() {
        let mut m = cl();
        let p = oracle_program(0x1000);
        m.load_program(&p);
        let out = m.run_sequence(T0, &[Instr::Call { target: 0x1000 }]).unwrap();
        assert!(out.cycles > 0);
        assert_eq!(m.state(T0), ThreadState::Idle);
        assert!(m.residency(Addr(0x1000)).l1i, "execute fills the L1i");
    }

    #[test]
    fn store_to_l1i_line_triggers_machine_clear() {
        let mut m = cl();
        let p = oracle_program(0x2000);
        m.load_program(&p);
        // Execute the oracle so its line is in L1i.
        m.run_sequence(T0, &[Instr::Call { target: 0x2000 }]).unwrap();
        assert!(m.residency(Addr(0x2000)).l1i);
        let before = m.counters(T0).snapshot();
        m.set_reg(T0, Reg::R1, 0x2000);
        m.run_sequence(T0, &[Instr::StoreImm { mem: MemRef::base(Reg::R1), imm: 0x90 }]).unwrap();
        let c = m.counters(T0);
        assert_eq!(c.delta(&before, PerfEvent::MachineClearsCount), 1);
        assert_eq!(c.delta(&before, PerfEvent::MachineClearsSmc), 1);
        assert!(!m.residency(Addr(0x2000)).l1i, "clear invalidates the L1i line");
    }

    #[test]
    fn probe_timing_separates_l1i_hit_from_evicted() {
        let mut m = cl();
        let p = oracle_program(0x3000);
        m.load_program(&p);
        m.set_reg(T0, Reg::R1, 0x3000);
        let probe = [
            Instr::Mfence,
            Instr::Rdtsc { dst: Reg::R14 },
            Instr::StoreImm { mem: MemRef::base(Reg::R1), imm: 0x90 },
            Instr::Mfence,
            Instr::Rdtsc { dst: Reg::R15 },
        ];
        // Hot: line in L1i -> SMC conflict -> slow.
        m.place_line(Addr(0x3000), Placement::L1i);
        m.warm_tlb(T0, Addr(0x3000));
        m.run_sequence(T0, &probe).unwrap();
        let hot = m.reg(T0, Reg::R15) - m.reg(T0, Reg::R14);
        // Cold: line in L2 only -> no SMC -> fast.
        m.place_line(Addr(0x3000), Placement::L2);
        m.run_sequence(T0, &probe).unwrap();
        let cold = m.reg(T0, Reg::R15) - m.reg(T0, Reg::R14);
        assert!(hot > cold + 150, "SMC hit must dominate: hot={hot} cold={cold}");
    }

    #[test]
    fn machine_clear_stalls_sibling_victim() {
        let mut m = cl();
        // Victim: tight arithmetic loop on T1.
        let mut a = Assembler::new(0x10_000);
        a.label("spin").add_imm(Reg::R0, 1).jmp("spin");
        let victim = a.assemble().unwrap();
        m.load_program(&victim);
        let oracle = oracle_program(0x20_000);
        m.load_program(&oracle);
        m.start_program(T1, 0x10_000, &[]);

        // Baseline: victim throughput while the attacker merely waits.
        let before = m.counters(T1).snapshot();
        m.advance(T0, 20_000).unwrap();
        let baseline = m.counters(T1).delta(&before, PerfEvent::InstRetired);

        // Attack: SMC machine-clear storm for a comparable cycle budget.
        m.set_reg(T0, Reg::R1, 0x20_000);
        let before = m.counters(T1).snapshot();
        let start = m.clock(T0);
        while m.clock(T0) - start < 20_000 {
            // Re-execute (fill L1i), then store (SMC clear).
            m.run_sequence(
                T0,
                &[
                    Instr::Call { target: 0x20_000 },
                    Instr::StoreImm { mem: MemRef::base(Reg::R1), imm: 0x90 },
                ],
            )
            .unwrap();
        }
        let attacked = m.counters(T1).delta(&before, PerfEvent::InstRetired);
        // The paper reports each clear stalling the sibling ~235 cycles; the
        // victim must make markedly less progress under the storm.
        assert!(
            attacked * 2 < baseline,
            "victim must slow down: baseline {baseline}, attacked {attacked}"
        );
        assert!(m.counters(T0).read(PerfEvent::MachineClearsSmc) > 10);
    }

    #[test]
    fn call_shape_memo_follows_index_shifting_loads() {
        // The fused call path memoizes a callee's `nop*; ret` shape,
        // including the decoded index of its `ret`, where the caller parks
        // `pc_idx` as the per-step path does. Loading code below the
        // routine shifts every decoded index, so a memo that outlived the
        // load would park the thread on the new code's third `mov_imm`.
        // After a reset, the same address may hold a routine of another
        // shape, which a stale memo would still retire as `nop; nop; ret`.
        const ROUTINE: u64 = 0x7_0000;
        const BELOW: u64 = 0x1000;
        let mut a = Assembler::new(BELOW);
        a.mov_imm(Reg::R0, 0xbad).mov_imm(Reg::R0, 0xbad).mov_imm(Reg::R0, 0xbad).ret();
        let below = a.assemble().unwrap();
        let mut a = Assembler::new(ROUTINE);
        a.nop().add(Reg::R0, Reg::R1).ret();
        let adds = a.assemble().unwrap();
        let mut outcomes = Vec::new();
        for t in [Tier::Reference, Tier::Decoded, Tier::Fused] {
            let tier = format!("{t:?}");
            let mut m = cl();
            m.set_tier(t);
            m.load_program(&oracle_program(ROUTINE));
            m.set_reg(T0, Reg::R0, 1);
            m.run_calls(T0, &[Addr(ROUTINE), Addr(ROUTINE)]).unwrap();
            m.load_program(&below);
            m.run_calls(T0, &[Addr(ROUTINE), Addr(ROUTINE)]).unwrap();
            assert_eq!(m.reg(T0, Reg::R0), 1, "{tier}");
            let (pc, pc_idx) = (m.threads[0].pc, m.threads[0].pc_idx);
            if t != Tier::Reference {
                assert_eq!(pc_idx, m.decoded.index_of(pc), "{tier}: parked on the `ret`");
            }
            if t == Tier::Fused {
                assert_eq!(m.counters(T0).read(PerfEvent::SimProbeFastPath), 4, "{tier}");
            }
            m.call(T0, BELOW, &[]).unwrap();
            assert_eq!(m.reg(T0, Reg::R0), 0xbad, "{tier}: the new code runs");

            m.reset(NoiseConfig::quiet(), 0x5eed);
            m.set_tier(t);
            m.load_program(&adds);
            m.set_reg(T0, Reg::R0, 1);
            m.set_reg(T0, Reg::R1, 2);
            m.run_calls(T0, &[Addr(ROUTINE), Addr(ROUTINE)]).unwrap();
            assert_eq!(m.reg(T0, Reg::R0), 5, "{tier}: no stale shape after a reset");
            outcomes.push((pc, m.clock(T0), m.counters(T0).read(PerfEvent::InstRetired)));
        }
        assert_eq!(outcomes[1], outcomes[0], "decoded vs reference");
        assert_eq!(outcomes[2], outcomes[0], "fused vs reference");
    }

    #[test]
    fn unsupported_probe_errors() {
        let mut m = Machine::new(MicroArch::SandyBridge.profile());
        m.set_reg(T0, Reg::R1, 0x5000);
        let err =
            m.run_sequence(T0, &[Instr::Clflushopt { mem: MemRef::base(Reg::R1) }]).unwrap_err();
        assert_eq!(err, StepError::Unsupported { kind: ProbeKind::FlushOpt });
    }

    #[test]
    fn speculative_wrong_path_fills_cache_then_rolls_back() {
        let mut m = cl();
        // data layout: [0x9000] = bounds (1), [0x9100] = array base
        let bounds_addr = 0x9000u64;
        let array = 0x9100u64;
        let oracle = 0x80_000u64;
        let mut a = Assembler::new(0x50_000);
        // victim(R1 = idx):
        //   R2 = bounds; cmp idx, R2; jge done
        //   R3 = array[idx]; R3 <<= 6; R3 += oracle; call *R3
        a.mov_imm(Reg::R4, bounds_addr)
            .load(Reg::R2, MemRef::base(Reg::R4))
            .cmp(Reg::R1, Reg::R2)
            .jge("done")
            .mov_imm(Reg::R5, array)
            .add(Reg::R5, Reg::R1)
            .load_byte(Reg::R3, MemRef::base(Reg::R5))
            .shl_imm(Reg::R3, 6)
            .add_imm(Reg::R3, oracle as i64)
            .call_reg(Reg::R3)
            .label("done")
            .ret();
        let victim = a.assemble().unwrap();
        m.load_program(&victim);
        // Oracle page: 4 lines of nop/ret.
        let mut o = Assembler::new(oracle);
        for i in 0..4 {
            o.org(oracle + i * 64).nop().ret();
        }
        m.load_program(&o.assemble().unwrap());
        m.write_u64(Addr(bounds_addr), 1);
        m.write_u8(Addr(array), 0); // in-bounds value -> slot 0
        m.write_u8(Addr(array + 2), 3); // "secret" at OOB index 2 -> slot 3

        // Train: in-bounds calls teach the branch predictor "not taken".
        for _ in 0..8 {
            m.call(T0, 0x50_000, &[0]).unwrap();
        }
        // Flush the bounds so the branch resolves late, flush the oracle.
        for i in 0..4 {
            m.flush_line(Addr(oracle + i * 64));
        }
        m.flush_line(Addr(bounds_addr));
        let r0_before = m.reg(T0, Reg::R0);
        // Out-of-bounds call: architecturally takes the `done` path...
        m.call(T0, 0x50_000, &[2]).unwrap();
        assert_eq!(m.reg(T0, Reg::R0), r0_before, "architectural state is clean");
        // ...but the wrong path fetched oracle slot 3 into the caches.
        assert!(
            m.residency(Addr(oracle + 3 * 64)).l1i,
            "speculative fetch must survive the squash"
        );
        assert!(!m.residency(Addr(oracle + 64)).l1i);
    }
}
